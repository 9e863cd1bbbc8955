//! End-to-end `hfz` CLI behaviour: degenerate inputs must surface as clean errors
//! (the stable `HfzError` exit codes + a message), never as panics; the compress and
//! decompress paths must report their timings and name the clock they were read from;
//! and the serving subcommands must round-trip through a real `hfz serve` daemon
//! process.

use std::io::BufRead;
use std::process::{Command, Stdio};

fn hfz() -> Command {
    Command::new(env!("CARGO_BIN_EXE_hfz"))
}

#[test]
fn zero_length_input_file_is_a_graceful_error() {
    let dir = std::env::temp_dir().join("hfz-cli-test-empty");
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("empty.f32");
    std::fs::write(&input, b"").unwrap();
    let output = dir.join("empty.hfz");

    let result = hfz()
        .args([
            "compress",
            "--input",
            input.to_str().unwrap(),
            "--dims",
            "16",
            "--output",
            output.to_str().unwrap(),
        ])
        .output()
        .expect("hfz runs");
    assert!(!result.status.success());
    let stderr = String::from_utf8_lossy(&result.stderr);
    assert!(
        stderr.contains("hfz:"),
        "expected a clean CLI error, got: {}",
        stderr
    );
    assert!(
        !stderr.contains("panicked"),
        "hfz must not panic on an empty input file: {}",
        stderr
    );
    assert!(!output.exists(), "no archive should be written on error");
}

#[test]
fn compress_reports_encoder_throughput() {
    let dir = std::env::temp_dir().join("hfz-cli-test-encode");
    std::fs::create_dir_all(&dir).unwrap();
    let output = dir.join("hacc.hfz");

    let result = hfz()
        .args([
            "compress",
            "--dataset",
            "HACC",
            "--elements",
            "30000",
            "--output",
            output.to_str().unwrap(),
        ])
        .output()
        .expect("hfz runs");
    assert!(
        result.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&result.stderr)
    );
    let stdout = String::from_utf8_lossy(&result.stdout);
    assert!(stdout.contains("encode:"), "stdout: {}", stdout);
    assert!(stdout.contains("GB/s"), "stdout: {}", stdout);
    for phase in ["histogram", "tree+codebook", "offset prefix-sum", "scatter"] {
        assert!(
            stdout.contains(phase),
            "missing phase '{}': {}",
            phase,
            stdout
        );
    }
}

#[test]
fn decompress_of_truncated_archive_is_a_graceful_error() {
    let dir = std::env::temp_dir().join("hfz-cli-test-trunc");
    std::fs::create_dir_all(&dir).unwrap();
    let archive = dir.join("t.hfz");
    let out = dir.join("t.f32");

    // Produce a valid archive, then truncate it mid-section.
    let ok = hfz()
        .args([
            "compress",
            "--dataset",
            "CESM",
            "--elements",
            "20000",
            "--output",
            archive.to_str().unwrap(),
        ])
        .status()
        .unwrap();
    assert!(ok.success());
    let bytes = std::fs::read(&archive).unwrap();
    std::fs::write(&archive, &bytes[..bytes.len() / 2]).unwrap();

    let result = hfz()
        .args([
            "decompress",
            archive.to_str().unwrap(),
            "--output",
            out.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(!result.status.success());
    let stderr = String::from_utf8_lossy(&result.stderr);
    assert!(!stderr.contains("panicked"), "stderr: {}", stderr);
    assert!(stderr.contains("hfz:"), "stderr: {}", stderr);
}

fn compress_dataset(
    dir: &std::path::Path,
    name: &str,
    dataset: &str,
    decoder: &str,
) -> std::path::PathBuf {
    let path = dir.join(format!("{}.hfz", name));
    let status = hfz()
        .args([
            "compress",
            "--dataset",
            dataset,
            "--elements",
            "20000",
            "--decoder",
            decoder,
            "--output",
            path.to_str().unwrap(),
        ])
        .status()
        .expect("hfz runs");
    assert!(status.success());
    path
}

/// The default backend is the CPU, whose times are wall time; the simulator is chosen by
/// name and its times are modeled. Both decode the same bytes.
#[test]
fn decompress_names_its_clock_and_both_backends_decode_alike() {
    let dir = std::env::temp_dir().join("hfz-cli-test-clock");
    std::fs::create_dir_all(&dir).unwrap();
    let archive = compress_dataset(&dir, "a", "HACC", "gap");
    let decompress = |backend: Option<&str>, output: &std::path::Path| {
        let mut command = hfz();
        // The default is what a bare invocation gets, whatever this suite runs under.
        command.env_remove("HFZ_BACKEND").args([
            "decompress",
            archive.to_str().unwrap(),
            "--output",
            output.to_str().unwrap(),
        ]);
        if let Some(backend) = backend {
            command.args(["--backend", backend]);
        }
        let result = command.output().expect("hfz runs");
        assert!(
            result.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&result.stderr)
        );
        String::from_utf8_lossy(&result.stdout).into_owned()
    };
    let (default_out, sim_out) = (dir.join("default.f32"), dir.join("sim.f32"));
    let default_report = decompress(None, &default_out);
    assert!(default_report.contains("measured"), "{}", default_report);
    assert!(!default_report.contains("modeled"), "{}", default_report);
    let sim_report = decompress(Some("sim"), &sim_out);
    assert!(sim_report.contains("modeled on "), "{}", sim_report);
    assert!(sim_report.contains("V100"), "{}", sim_report);
    assert_eq!(
        std::fs::read(&default_out).unwrap(),
        std::fs::read(&sim_out).unwrap(),
        "both backends decode the same bytes"
    );
}

#[test]
fn verify_deep_checks_the_decoded_stream_digest() {
    let dir = std::env::temp_dir().join("hfz-cli-test-deep");
    std::fs::create_dir_all(&dir).unwrap();
    let archive = compress_dataset(&dir, "deep", "HACC", "gap");

    // Deep verification passes on a fresh archive and reports the digest.
    let result = hfz()
        .args(["verify", archive.to_str().unwrap(), "--deep"])
        .output()
        .unwrap();
    assert!(
        result.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&result.stderr)
    );
    let stdout = String::from_utf8_lossy(&result.stdout);
    assert!(stdout.contains("deep:"), "stdout: {}", stdout);
    assert!(stdout.contains("decoded CRC32"), "stdout: {}", stdout);

    // A wrong caller-supplied digest fails cleanly.
    let result = hfz()
        .args(["verify", archive.to_str().unwrap(), "--digest", "deadbeef"])
        .output()
        .unwrap();
    assert!(!result.status.success());
    let stderr = String::from_utf8_lossy(&result.stderr);
    assert!(
        stderr.contains("deep verification failed"),
        "stderr: {}",
        stderr
    );
    assert!(!stderr.contains("panicked"), "stderr: {}", stderr);
}

#[test]
fn inspect_json_is_machine_readable() {
    let dir = std::env::temp_dir().join("hfz-cli-test-json");
    std::fs::create_dir_all(&dir).unwrap();
    let archive = compress_dataset(&dir, "json", "CESM", "self-sync");

    let result = hfz()
        .args(["inspect", archive.to_str().unwrap(), "--json"])
        .output()
        .unwrap();
    assert!(result.status.success());
    let stdout = String::from_utf8_lossy(&result.stdout);
    let doc = stdout.trim();
    // One JSON array of archive objects with the fields tooling needs — and none of
    // the human report's prose.
    assert!(doc.starts_with('[') && doc.ends_with(']'), "{}", doc);
    for key in [
        "\"total_bytes\":",
        "\"decoder\":\"opt. self-sync\"",
        "\"decoder_tag\":2",
        "\"num_symbols\":",
        "\"decoded_crc\":",
        "\"field\":{\"dims\":[",
        "\"sections\":[{\"kind\":\"codebook\"",
    ] {
        assert!(doc.contains(key), "missing {} in {}", key, doc);
    }
    assert!(
        !doc.contains("compression:"),
        "human report leaked: {}",
        doc
    );
}

#[test]
fn serve_and_get_roundtrip_through_the_daemon() {
    let dir = std::env::temp_dir().join("hfz-cli-test-serve");
    std::fs::create_dir_all(&dir).unwrap();
    let hacc = compress_dataset(&dir, "hacc", "HACC", "gap");
    let gamess = compress_dataset(&dir, "gamess", "GAMESS", "baseline");

    // Ephemeral port: the daemon prints the resolved address on stdout.
    let mut daemon = hfz()
        .args([
            "serve",
            "--listen",
            "tcp:127.0.0.1:0",
            "--cache-bytes",
            "1000000",
            "--load",
            &format!("hacc={}", hacc.display()),
        ])
        .stdout(Stdio::piped())
        .spawn()
        .expect("daemon starts");
    let stdout = daemon.stdout.take().expect("piped stdout");
    let mut lines = std::io::BufReader::new(stdout).lines();
    let banner = lines
        .next()
        .expect("daemon prints its banner")
        .expect("banner reads");
    let addr = banner
        .split_whitespace()
        .find(|w| w.starts_with("tcp:"))
        .expect("banner names the address")
        .to_string();

    let run = |args: &[&str]| {
        let result = hfz().args(args).output().expect("hfz runs");
        assert!(
            result.status.success(),
            "hfz {:?} failed: {}",
            args,
            String::from_utf8_lossy(&result.stderr)
        );
        String::from_utf8_lossy(&result.stdout).into_owned()
    };

    run(&[
        "load",
        "--addr",
        &addr,
        "--name",
        "gamess",
        "--path",
        gamess.to_str().unwrap(),
    ]);
    let list = run(&["list", "--addr", &addr]);
    assert!(list.contains("\"hacc\"") && list.contains("\"gamess\""));

    // Served bytes are identical to a direct decompress.
    let served = dir.join("served.f32");
    let direct = dir.join("direct.f32");
    let get_out = run(&[
        "get",
        "--addr",
        &addr,
        "--archive",
        "hacc",
        "--output",
        served.to_str().unwrap(),
    ]);
    assert!(get_out.contains("f32 elements"), "{}", get_out);
    run(&[
        "decompress",
        hacc.to_str().unwrap(),
        "--output",
        direct.to_str().unwrap(),
    ]);
    assert_eq!(
        std::fs::read(&served).unwrap(),
        std::fs::read(&direct).unwrap(),
        "served bytes must equal the direct decode"
    );

    // Second fetch is a cache hit; a ranged code fetch is a partial decode.
    let again = run(&[
        "get",
        "--addr",
        &addr,
        "--archive",
        "hacc",
        "--output",
        served.to_str().unwrap(),
    ]);
    assert!(again.contains("cached"), "{}", again);
    let range_out = dir.join("range.u16");
    let ranged = run(&[
        "get",
        "--addr",
        &addr,
        "--archive",
        "gamess",
        "--codes",
        "--range",
        "500:128",
        "--output",
        range_out.to_str().unwrap(),
    ]);
    assert!(ranged.contains("partial decode"), "{}", ranged);
    assert_eq!(std::fs::metadata(&range_out).unwrap().len(), 256);

    // Remote deep verify and stats, then a clean shutdown.
    let report = run(&["verify", "--addr", &addr, "--archive", "hacc"]);
    assert!(report.contains("0 digest failures"), "{}", report);
    let stats = run(&["stats", "--addr", &addr]);
    assert!(stats.contains("\"hits\":"), "{}", stats);
    run(&["shutdown", "--addr", &addr]);
    let status = daemon.wait().expect("daemon exits");
    assert!(status.success(), "daemon must exit cleanly after SHUTDOWN");
}

/// Writes `DIR/NAME.hfz`: an archive whose sections all check out but whose stored
/// decoded-stream digest is wrong, so only a deep verify can tell.
fn write_digest_flipped_archive(dir: &std::path::Path, name: &str) -> std::path::PathBuf {
    use huffdec::container::to_bytes;
    use huffdec::datasets::{dataset_by_name, generate};

    let field = generate(&dataset_by_name("HACC").unwrap(), 20_000, 7);
    let mut compressed = huffdec::Codec::builder()
        .build()
        .unwrap()
        .compress_archive(&field)
        .unwrap();
    compressed.decoded_crc = compressed.decoded_crc.map(|crc| !crc);
    let path = dir.join(format!("{}.hfz", name));
    std::fs::write(&path, to_bytes(&compressed).unwrap()).unwrap();
    path
}

/// Starts `hfz serve` on an ephemeral tcp port with one `--load` per entry of `loads`
/// (`NAME=PATH`) and returns the child with the address its banner names.
fn spawn_serve(loads: &[String]) -> (std::process::Child, String) {
    let mut command = hfz();
    command.args(["serve", "--listen", "tcp:127.0.0.1:0"]);
    for load in loads {
        command.args(["--load", load]);
    }
    let mut daemon = command
        .stdout(Stdio::piped())
        .spawn()
        .expect("daemon starts");
    let stdout = daemon.stdout.take().expect("piped stdout");
    let banner = std::io::BufReader::new(stdout)
        .lines()
        .next()
        .expect("daemon prints its banner")
        .expect("banner reads");
    let addr = banner
        .split_whitespace()
        .find(|w| w.starts_with("tcp:"))
        .expect("banner names the address")
        .to_string();
    (daemon, addr)
}

#[test]
fn remote_verify_judges_the_fields_not_the_archive_name() {
    let dir = std::env::temp_dir().join("hfz-cli-test-remote-verify");
    std::fs::create_dir_all(&dir).unwrap();
    let healthy = compress_dataset(&dir, "healthy", "HACC", "gap");
    let corrupt = write_digest_flipped_archive(&dir, "corrupt");

    let (mut daemon, addr) = spawn_serve(&[
        format!("DIGEST MISMATCH={}", healthy.display()),
        format!("corrupt={}", corrupt.display()),
    ]);
    let verify = |archive: &str| {
        hfz()
            .args(["verify", "--addr", &addr, "--archive", archive])
            .output()
            .expect("hfz runs")
    };

    let named_like_a_failure = verify("DIGEST MISMATCH");
    let report = String::from_utf8_lossy(&named_like_a_failure.stdout);
    assert!(report.contains("0 digest failures"), "{}", report);
    assert_eq!(named_like_a_failure.status.code(), Some(0), "{}", report);

    let genuinely_corrupt = verify("corrupt");
    let report = String::from_utf8_lossy(&genuinely_corrupt.stdout);
    assert!(report.contains("field 0: DIGEST MISMATCH"), "{}", report);
    assert_eq!(genuinely_corrupt.status.code(), Some(7), "{}", report);

    let shutdown = hfz().args(["shutdown", "--addr", &addr]).status().unwrap();
    assert!(shutdown.success());
    assert!(daemon.wait().expect("daemon exits").success());
}

/// A range whose end overflows `u64` reaches the daemon, which refuses it against the
/// field's length (protocol error, exit 6) instead of wrapping it into a short range.
#[test]
fn a_range_past_u64_is_the_daemons_refusal() {
    let dir = std::env::temp_dir().join("hfz-cli-test-range-overflow");
    std::fs::create_dir_all(&dir).unwrap();
    let archive = compress_dataset(&dir, "hacc", "HACC", "gap");
    let codes = dir.join("codes.bin");
    let _ = std::fs::remove_file(&codes);
    let (mut daemon, addr) = spawn_serve(&[format!("hacc={}", archive.display())]);

    let result = hfz()
        .args(["get", "--addr", &addr, "--archive", "hacc", "--codes"])
        .args(["--range", "18446744073709551615:2", "--output"])
        .arg(&codes)
        .output()
        .expect("hfz runs");
    let stderr = String::from_utf8_lossy(&result.stderr);
    assert_eq!(result.status.code(), Some(6), "{}", stderr);
    assert!(
        stderr.contains(
            "range [18446744073709551615, 18446744073709551615+2) exceeds the field's 20000 elements"
        ),
        "{}",
        stderr
    );
    assert!(!codes.exists(), "nothing is written");

    let shutdown = hfz().args(["shutdown", "--addr", &addr]).status().unwrap();
    assert!(shutdown.success());
    assert!(daemon.wait().expect("daemon exits").success());
}

/// A file is its fields: on a manifest-less concatenation of a healthy archive and a
/// digest-flipped one, the local deep verify and the daemon's `VERIFY` both check
/// every field, fail, and name field 1, and a bare decompress refuses to pick a field.
#[test]
fn both_verifiers_check_every_field_of_a_concatenation() {
    let dir = std::env::temp_dir().join("hfz-cli-test-concat-verify");
    std::fs::create_dir_all(&dir).unwrap();
    let healthy = compress_dataset(&dir, "healthy", "HACC", "gap");
    let corrupt = write_digest_flipped_archive(&dir, "corrupt");
    let mut bytes = std::fs::read(&healthy).unwrap();
    bytes.extend(std::fs::read(&corrupt).unwrap());
    let concat = dir.join("concat.hfz");
    std::fs::write(&concat, &bytes).unwrap();

    let local = hfz()
        .args(["verify", concat.to_str().unwrap(), "--deep"])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&local.stdout);
    let stderr = String::from_utf8_lossy(&local.stderr);
    assert_eq!(local.status.code(), Some(7), "{}{}", stdout, stderr);
    assert!(stdout.contains("field 0: deep:      ok"), "{}", stdout);
    assert!(
        stderr.contains("deep verification failed: field 1 digests to"),
        "{}",
        stderr
    );

    let (mut daemon, addr) = spawn_serve(&[format!("c={}", concat.display())]);
    let remote = hfz()
        .args(["verify", "--addr", &addr, "--archive", "c"])
        .output()
        .unwrap();
    let report = String::from_utf8_lossy(&remote.stdout);
    assert_eq!(remote.status.code(), Some(7), "{}", report);
    assert!(report.contains("field 0: ok"), "{}", report);
    assert!(report.contains("field 1: DIGEST MISMATCH"), "{}", report);
    let shutdown = hfz().args(["shutdown", "--addr", &addr]).status().unwrap();
    assert!(shutdown.success());
    assert!(daemon.wait().expect("daemon exits").success());

    let out = dir.join("x.f32");
    let _ = std::fs::remove_file(&out);
    let mut command = hfz();
    command.args([
        "decompress",
        concat.to_str().unwrap(),
        "--output",
        out.to_str().unwrap(),
    ]);
    assert_usage_error(command, "pass --field NAME|INDEX or --all --output-dir DIR");
    assert!(!out.exists(), "nothing is written");
}

#[test]
fn snapshot_compress_extract_roundtrips_byte_identically() {
    let dir = std::env::temp_dir().join("hfz-cli-test-snapshot");
    std::fs::create_dir_all(&dir).unwrap();
    let snap = dir.join("snap.hfz");

    // Pack a 3-field snapshot; field i is generated with seed 7+i, so the GAMESS field
    // (index 1) is reproducible standalone with seed 8.
    let status = hfz()
        .args([
            "compress",
            "--snapshot",
            "--dataset",
            "HACC,GAMESS,CESM",
            "--elements",
            "20000",
            "--seed",
            "7",
            "--output",
            snap.to_str().unwrap(),
        ])
        .output()
        .expect("hfz runs");
    assert!(
        status.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&status.stderr)
    );
    let stdout = String::from_utf8_lossy(&status.stdout);
    assert!(stdout.contains("snapshot manifest: 3 fields"), "{}", stdout);

    // inspect --json wraps the archive list with the manifest.
    let result = hfz()
        .args(["inspect", snap.to_str().unwrap(), "--json"])
        .output()
        .unwrap();
    assert!(result.status.success());
    let doc = String::from_utf8_lossy(&result.stdout);
    let doc = doc.trim();
    assert!(doc.starts_with("{\"manifest\":"), "{}", doc);
    assert!(doc.contains("\"name\":\"GAMESS\""), "{}", doc);
    assert!(doc.contains("\"archives\":["), "{}", doc);

    // Extract by name (manifest seek) and compare against the standalone compress of
    // the same field.
    let from_snap = dir.join("snap-gamess.f32");
    let result = hfz()
        .args([
            "decompress",
            snap.to_str().unwrap(),
            "--field",
            "GAMESS",
            "--output",
            from_snap.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        result.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&result.stderr)
    );
    let solo = dir.join("solo.hfz");
    let solo_out = dir.join("solo.f32");
    assert!(hfz()
        .args([
            "compress",
            "--dataset",
            "GAMESS",
            "--elements",
            "20000",
            "--seed",
            "8",
            "--output",
            solo.to_str().unwrap(),
        ])
        .status()
        .unwrap()
        .success());
    assert!(hfz()
        .args([
            "decompress",
            solo.to_str().unwrap(),
            "--output",
            solo_out.to_str().unwrap(),
        ])
        .status()
        .unwrap()
        .success());
    assert_eq!(
        std::fs::read(&from_snap).unwrap(),
        std::fs::read(&solo_out).unwrap(),
        "manifest-seek extraction must be byte-identical to the standalone decompress"
    );

    // A bare decompress of a multi-field snapshot is ambiguous: typed error, exit 1.
    let result = hfz()
        .args([
            "decompress",
            snap.to_str().unwrap(),
            "--output",
            dir.join("x.f32").to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(!result.status.success());
    let stderr = String::from_utf8_lossy(&result.stderr);
    assert!(stderr.contains("--field"), "stderr: {}", stderr);
    assert!(!stderr.contains("panicked"), "stderr: {}", stderr);
}

/// Writes a sparse bounded random walk (95% flat steps) as a little-endian f32 file
/// and returns its element count.
fn write_sparse_walk(path: &std::path::Path, n: usize, seed: u64) -> usize {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut rng = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    let mut value = 0.0f32;
    let mut bytes = Vec::with_capacity(n * 4);
    for _ in 0..n {
        if rng() % 100 >= 95 {
            value += (rng() % 401) as f32 - 200.0;
        }
        bytes.extend_from_slice(&value.to_le_bytes());
    }
    std::fs::write(path, &bytes).unwrap();
    n
}

#[test]
fn hybrid_compress_roundtrips_and_beats_dense_on_sparse_fields() {
    let dir = std::env::temp_dir().join("hfz-cli-test-hybrid");
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("sparse.f32");
    let elements = write_sparse_walk(&input, 40_000, 17);

    // The same sparse field through the hybrid and the best dense pipeline. An
    // absolute bound keeps the walk's increments inside the quantization alphabet.
    let hybrid = dir.join("sparse-hybrid.hfz");
    let dense = dir.join("sparse-dense.hfz");
    for (path, extra) in [
        (&hybrid, &["--hybrid", "--format", "v2"][..]),
        (&dense, &[][..]),
    ] {
        let result = hfz()
            .args([
                "compress",
                "--input",
                input.to_str().unwrap(),
                "--dims",
                &elements.to_string(),
                "--eb",
                "abs:0.5",
                "--output",
                path.to_str().unwrap(),
            ])
            .args(extra)
            .output()
            .expect("hfz runs");
        assert!(
            result.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&result.stderr)
        );
    }
    let hybrid_bytes = std::fs::metadata(&hybrid).unwrap().len();
    let dense_bytes = std::fs::metadata(&dense).unwrap().len();
    assert!(
        hybrid_bytes < dense_bytes,
        "at 95% zeros the hybrid archive must be smaller: {} vs {}",
        hybrid_bytes,
        dense_bytes
    );

    // inspect --json names the v2 format, the hybrid decoder, and its sections.
    let result = hfz()
        .args(["inspect", hybrid.to_str().unwrap(), "--json"])
        .output()
        .unwrap();
    assert!(result.status.success());
    let doc = String::from_utf8_lossy(&result.stdout);
    for key in [
        "\"format_version\":2",
        "\"decoder\":\"rle+huff hybrid\"",
        "\"sections\":[{\"kind\":\"hybrid-stream\"",
        "\"dict_id\":null",
    ] {
        assert!(doc.contains(key), "missing {} in {}", key, doc);
    }

    // Deep verification decodes the hybrid stream and checks the stored digest.
    let result = hfz()
        .args(["verify", hybrid.to_str().unwrap(), "--deep"])
        .output()
        .unwrap();
    assert!(
        result.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&result.stderr)
    );
    let stdout = String::from_utf8_lossy(&result.stdout);
    assert!(stdout.contains("decoded CRC32"), "stdout: {}", stdout);

    // Both pipelines quantize identically, so the reconstructions are byte-identical.
    let from_hybrid = dir.join("hybrid.f32");
    let from_dense = dir.join("dense.f32");
    for (archive, out) in [(&hybrid, &from_hybrid), (&dense, &from_dense)] {
        assert!(hfz()
            .args([
                "decompress",
                archive.to_str().unwrap(),
                "--output",
                out.to_str().unwrap(),
            ])
            .status()
            .unwrap()
            .success());
    }
    assert_eq!(
        std::fs::read(&from_hybrid).unwrap(),
        std::fs::read(&from_dense).unwrap(),
        "hybrid and dense reconstructions must agree bit-for-bit"
    );

    // `--format v2` with auto-hybrid picks the hybrid stream for this field on its
    // own; `--auto-hybrid off` keeps it dense.
    let auto = dir.join("auto.hfz");
    assert!(hfz()
        .args([
            "compress",
            "--input",
            input.to_str().unwrap(),
            "--dims",
            &elements.to_string(),
            "--eb",
            "abs:0.5",
            "--format",
            "v2",
            "--output",
            auto.to_str().unwrap(),
        ])
        .status()
        .unwrap()
        .success());
    let result = hfz()
        .args(["inspect", auto.to_str().unwrap(), "--json"])
        .output()
        .unwrap();
    let doc = String::from_utf8_lossy(&result.stdout);
    assert!(
        doc.contains("\"decoder\":\"rle+huff hybrid\""),
        "auto-hybrid must upgrade a 95%-sparse field: {}",
        doc
    );
    let manual = dir.join("manual.hfz");
    assert!(hfz()
        .args([
            "compress",
            "--input",
            input.to_str().unwrap(),
            "--dims",
            &elements.to_string(),
            "--eb",
            "abs:0.5",
            "--format",
            "v2",
            "--auto-hybrid",
            "off",
            "--output",
            manual.to_str().unwrap(),
        ])
        .status()
        .unwrap()
        .success());
    let result = hfz()
        .args(["inspect", manual.to_str().unwrap(), "--json"])
        .output()
        .unwrap();
    let doc = String::from_utf8_lossy(&result.stdout);
    assert!(
        doc.contains("\"decoder\":\"opt. gap-array\""),
        "--auto-hybrid off must keep the dense decoder: {}",
        doc
    );
}

#[test]
fn unknown_field_and_malformed_archive_are_typed_errors_with_nonzero_exit() {
    let dir = std::env::temp_dir().join("hfz-cli-test-field-errors");
    std::fs::create_dir_all(&dir).unwrap();
    let snap = dir.join("snap.hfz");
    assert!(hfz()
        .args([
            "compress",
            "--snapshot",
            "--dataset",
            "HACC,CESM",
            "--elements",
            "15000",
            "--output",
            snap.to_str().unwrap(),
        ])
        .status()
        .unwrap()
        .success());

    // Unknown field name: typed message naming the field, the corrupt-archive exit
    // code (4), no Debug panic.
    let result = hfz()
        .args([
            "decompress",
            snap.to_str().unwrap(),
            "--field",
            "NOPE",
            "--output",
            dir.join("x.f32").to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(result.status.code(), Some(4));
    let stderr = String::from_utf8_lossy(&result.stderr);
    assert!(
        stderr.contains("hfz:") && stderr.contains("no field 'NOPE'"),
        "stderr: {}",
        stderr
    );
    assert!(!stderr.contains("panicked"), "stderr: {}", stderr);

    // Out-of-range field index: same contract.
    let result = hfz()
        .args([
            "decompress",
            snap.to_str().unwrap(),
            "--field",
            "9",
            "--output",
            dir.join("x.f32").to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(result.status.code(), Some(4));
    let stderr = String::from_utf8_lossy(&result.stderr);
    assert!(stderr.contains("hfz:"), "stderr: {}", stderr);
    assert!(!stderr.contains("panicked"), "stderr: {}", stderr);

    // A corrupted manifest (bit flip in the prologue) fails every snapshot-aware
    // subcommand with a clean checksum error, not a panic or a Debug dump.
    let mut bytes = std::fs::read(&snap).unwrap();
    bytes[20] ^= 0x40;
    let bad = dir.join("bad.hfz");
    std::fs::write(&bad, &bytes).unwrap();
    for subcommand in ["inspect", "verify"] {
        let result = hfz()
            .args([subcommand, bad.to_str().unwrap()])
            .output()
            .unwrap();
        assert_eq!(result.status.code(), Some(4), "{} must fail", subcommand);
        let stderr = String::from_utf8_lossy(&result.stderr);
        assert!(
            stderr.contains("hfz:") && stderr.contains("checksum mismatch"),
            "{} stderr: {}",
            subcommand,
            stderr
        );
        assert!(!stderr.contains("panicked"), "stderr: {}", stderr);
    }
}

/// A misspelt flag used to be parsed, stored and never read: `--feild 3` decoded field 0
/// and `--bakend cpu` ran on the simulator, both exiting 0.
#[test]
fn unknown_flags_are_usage_errors() {
    let dir = std::env::temp_dir().join("hfz-cli-test-unknown-flags");
    std::fs::create_dir_all(&dir).unwrap();
    let archive = compress_dataset(&dir, "a", "HACC", "gap");
    let out = dir.join("a.f32");
    let compressed = dir.join("b.hfz");
    for stale in [&out, &compressed] {
        let _ = std::fs::remove_file(stale);
    }
    let cases: [(&[&str], &str); 3] = [
        (
            &[
                "decompress",
                archive.to_str().unwrap(),
                "--output",
                out.to_str().unwrap(),
                "--feild",
                "3",
            ],
            "--feild",
        ),
        (
            &[
                "compress",
                "--dataset",
                "HACC",
                "--elements",
                "20000",
                "--output",
                compressed.to_str().unwrap(),
                "--bakend",
                "cpu",
            ],
            "--bakend",
        ),
        // Rejected before any connection is attempted.
        (
            &["stats", "--addr", "tcp:127.0.0.1:1", "--promm"],
            "--promm",
        ),
    ];
    for (args, flag) in cases {
        let result = hfz().args(args).output().expect("hfz runs");
        let stderr = String::from_utf8_lossy(&result.stderr);
        assert_eq!(result.status.code(), Some(2), "{:?}: {}", args, stderr);
        assert!(
            stderr.contains(&format!("unknown flag {}", flag)),
            "{:?}: {}",
            args,
            stderr
        );
    }
    assert!(!out.exists() && !compressed.exists(), "nothing is written");
}

/// Runs `command` and asserts the usage-error contract: exit 2 and a stderr line that
/// contains `message`.
fn assert_usage_error(mut command: Command, message: &str) {
    let result = command.output().expect("the binary runs");
    let stderr = String::from_utf8_lossy(&result.stderr);
    assert_eq!(result.status.code(), Some(2), "{:?}: {}", command, stderr);
    assert!(stderr.contains(message), "{:?}: {}", command, stderr);
}

/// Every argument a subcommand has no place for used to be dropped without a word: a
/// second archive, a stray word after the flags, `--input` under `--snapshot`,
/// `--archive` on a local verify, an archive path on a remote one, `--output` beside
/// `--all` and a `--seed` with no dataset.
#[test]
fn stray_arguments_are_usage_errors() {
    let dir = std::env::temp_dir().join("hfz-cli-test-stray-arguments");
    std::fs::create_dir_all(&dir).unwrap();
    let a = compress_dataset(&dir, "a", "HACC", "gap");
    let b = compress_dataset(&dir, "b", "HACC", "gap");
    let (a, b) = (a.to_str().unwrap(), b.to_str().unwrap());
    let out = dir.join("x.f32");
    let compressed = dir.join("c.hfz");
    let snapshot = dir.join("s.hfz");
    let missing = dir.join("missing.f32");
    for stale in [&out, &compressed, &snapshot] {
        let _ = std::fs::remove_file(stale);
    }
    let cases: [(&[&str], &str); 9] = [
        // Rejected before any connection is attempted.
        (
            &["list", "--addr", "tcp:127.0.0.1:1", "stray"],
            "unexpected argument 'stray'",
        ),
        (
            &[
                "decompress",
                a,
                b,
                "--field",
                "0",
                "--output",
                out.to_str().unwrap(),
            ],
            "unexpected argument",
        ),
        (&["inspect", a, b], "unexpected argument"),
        (
            &[
                "compress",
                "--dataset",
                "HACC",
                "--elements",
                "2000",
                "--output",
                compressed.to_str().unwrap(),
                "junk",
            ],
            "unexpected argument 'junk'",
        ),
        (
            &[
                "compress",
                "--snapshot",
                "--dataset",
                "HACC,GAMESS",
                "--elements",
                "2000",
                "--input",
                missing.to_str().unwrap(),
                "--dims",
                "5",
                "--output",
                snapshot.to_str().unwrap(),
            ],
            "--input",
        ),
        (&["verify", a, "--archive", "zzz"], "unknown flag --archive"),
        (
            &[
                "decompress",
                a,
                "--all",
                "--output-dir",
                dir.to_str().unwrap(),
                "--output",
                out.to_str().unwrap(),
            ],
            "--output-dir goes with --all",
        ),
        (&["verify", a, "--seed", "3"], "--dataset NAME"),
        (
            &[
                "verify",
                "foo.hfz",
                "--addr",
                "tcp:127.0.0.1:1",
                "--archive",
                "a",
            ],
            "unexpected argument 'foo.hfz'",
        ),
    ];
    for (args, message) in cases {
        let mut command = hfz();
        command.args(args);
        assert_usage_error(command, message);
    }
    assert!(
        !out.exists() && !compressed.exists() && !snapshot.exists(),
        "nothing is written"
    );
}

/// `hfz`, `hfz serve`, `hfzd` and `hfzr` read their command lines through one cursor,
/// so they word a missing value, a bad number, a bad backend and an unknown flag alike.
/// Only `hfz`'s compress, decompress and verify take `--backend`: `inspect` runs no
/// backend, and the daemons run on the one `HFZ_BACKEND` names.
#[test]
fn every_binary_words_flag_errors_one_way() {
    let dir = std::env::temp_dir().join("hfz-cli-test-grammar");
    std::fs::create_dir_all(&dir).unwrap();
    let archive = compress_dataset(&dir, "a", "HACC", "gap");
    let output = dir.join("o.hfz");
    let decoded = dir.join("o.f32");
    let _ = std::fs::remove_file(&output);
    let _ = std::fs::remove_file(&decoded);
    // 3 x 12297829382473034411 wraps `usize` to 1, which a 4-byte file matches.
    let four_bytes = dir.join("four.f32");
    std::fs::write(&four_bytes, 1.0f32.to_le_bytes()).unwrap();
    let snapshot = dir.join("s.hfz");
    let _ = std::fs::remove_file(&snapshot);
    let cases: [(&[&str], &str); 14] = [
        (
            &[
                "get",
                "--addr",
                "tcp:127.0.0.1:1",
                "--archive",
                "x",
                "--output",
            ],
            "flag --output expects a value",
        ),
        (
            &[
                "compress",
                "--dataset",
                "HACC",
                "--elements",
                "1000",
                "--seed",
                "x",
                "--output",
                output.to_str().unwrap(),
            ],
            "bad --seed value",
        ),
        (
            &[
                "decompress",
                archive.to_str().unwrap(),
                "--output",
                decoded.to_str().unwrap(),
                "--backend",
                "cuda",
            ],
            "unknown backend 'cuda' (expected sim|cpu)",
        ),
        (
            &["inspect", archive.to_str().unwrap(), "--backend", "sim"],
            "unknown flag --backend",
        ),
        (&["serve", "--bogus"], "unknown flag --bogus"),
        (&["serve", "--backend", "sim"], "unknown flag --backend"),
        (
            &[
                "compress",
                "--input",
                four_bytes.to_str().unwrap(),
                "--dims",
                "3,12297829382473034411",
                "--output",
                output.to_str().unwrap(),
            ],
            "overflow the element count",
        ),
        (
            &[
                "compress",
                "--input",
                four_bytes.to_str().unwrap(),
                "--dims",
                "12297829382473034411,3",
                "--output",
                output.to_str().unwrap(),
            ],
            "overflow the element count",
        ),
        // 0 is no element count; `Dims::scaled_to_elements` would read it as "all
        // 280,953,867 HACC elements".
        (
            &[
                "compress",
                "--dataset",
                "HACC",
                "--elements",
                "0",
                "--output",
                output.to_str().unwrap(),
            ],
            "--elements must be at least 1",
        ),
        // Field i of a snapshot is generated from seed S+i, which must not wrap.
        (
            &[
                "compress",
                "--snapshot",
                "--dataset",
                "HACC,CESM",
                "--elements",
                "1000",
                "--seed",
                "18446744073709551615",
                "--output",
                snapshot.to_str().unwrap(),
            ],
            "--seed 18446744073709551615 leaves no room for 2 fields",
        ),
        // 2^32 is no `u32` field index; the dead address is never dialed.
        (
            &[
                "get",
                "--addr",
                "tcp:127.0.0.1:1",
                "--archive",
                "x",
                "--field",
                "4294967296",
                "--output",
                decoded.to_str().unwrap(),
            ],
            "bad --field value",
        ),
        (
            &[
                "batch",
                "--addr",
                "tcp:127.0.0.1:1",
                "--archive",
                "x",
                "--fields",
                "1,x",
                "--output-prefix",
                decoded.to_str().unwrap(),
            ],
            "bad field index 'x'",
        ),
        (
            &[
                "batch",
                "--addr",
                "tcp:127.0.0.1:1",
                "--archive",
                "x",
                "--fields",
                "1,99999999999",
                "--output-prefix",
                decoded.to_str().unwrap(),
            ],
            "bad field index '99999999999'",
        ),
        (&["serve", "--cache-bytes", "-1"], "bad --cache-bytes value"),
    ];
    for (args, message) in cases {
        let mut command = hfz();
        command.args(args);
        assert_usage_error(command, message);
    }
    assert!(
        !output.exists() && !decoded.exists() && !snapshot.exists(),
        "nothing is written"
    );
    for binary in [env!("CARGO_BIN_EXE_hfzd"), env!("CARGO_BIN_EXE_hfzr")] {
        for (args, message) in [
            (&["--bogus"][..], "unknown flag --bogus"),
            (&["--backend", "sim"][..], "unknown flag --backend"),
            (&["--cache-bytes", "-1"][..], "bad --cache-bytes value"),
            (
                &["--cache-bytes", "99999999999999999999"][..],
                "bad --cache-bytes value",
            ),
        ] {
            let mut command = Command::new(binary);
            command.args(args);
            assert_usage_error(command, message);
        }
    }
}

/// `--hybrid` is `--decoder hybrid`, so of the two the later one wins, as it does for
/// any repeated flag.
#[test]
fn the_later_of_hybrid_and_decoder_wins() {
    let dir = std::env::temp_dir().join("hfz-cli-test-last-flag-wins");
    std::fs::create_dir_all(&dir).unwrap();
    let archive = dir.join("a.hfz");
    for (order, decoder) in [
        (["--decoder", "self-sync", "--hybrid"], "rle+huff hybrid"),
        (["--hybrid", "--decoder", "self-sync"], "opt. self-sync"),
    ] {
        let status = hfz()
            .args([
                "compress",
                "--dataset",
                "HACC",
                "--elements",
                "20000",
                "--output",
                archive.to_str().unwrap(),
            ])
            .args(order)
            .output()
            .expect("hfz runs")
            .status;
        assert!(status.success(), "{:?}", order);
        let result = hfz()
            .args(["inspect", archive.to_str().unwrap(), "--json"])
            .output()
            .unwrap();
        let doc = String::from_utf8_lossy(&result.stdout);
        assert!(
            doc.contains(&format!("\"decoder\":\"{}\"", decoder)),
            "{:?}: {}",
            order,
            doc
        );
    }
}

/// A router that fails to start after forking its shards stops and reaps them: once
/// when the `--load` it is asked to place does not exist, and once when its addr-file
/// cannot be written after the metrics sidecar is bound. The shard is started through
/// a `/bin/sh` wrapper that records its pid before `exec`ing `hfzd`.
#[cfg(unix)]
#[test]
fn a_failed_router_start_leaves_no_shard_running() {
    use std::os::unix::fs::PermissionsExt;

    let dir = std::env::temp_dir().join("hfz-cli-test-orphan-shards");
    std::fs::create_dir_all(&dir).unwrap();
    let pid_file = dir.join("shard.pid");
    let wrapper = dir.join("hfzd-wrapper.sh");
    std::fs::write(
        &wrapper,
        format!(
            "#!/bin/sh\necho $$ > '{}'\nexec '{}' \"$@\"\n",
            pid_file.display(),
            env!("CARGO_BIN_EXE_hfzd")
        ),
    )
    .unwrap();
    std::fs::set_permissions(&wrapper, std::fs::Permissions::from_mode(0o755)).unwrap();

    let missing_archive = format!("x={}", dir.join("missing.hfz").display());
    let unwritable = dir.join("no-such-dir").join("addr");
    let failures: [&[&str]; 2] = [
        &["--load", &missing_archive],
        &[
            "--metrics",
            "tcp:127.0.0.1:0",
            "--addr-file",
            unwritable.to_str().unwrap(),
        ],
    ];
    for failure in failures {
        let _ = std::fs::remove_file(&pid_file);
        // A file, not a pipe: an orphaned shard would hold a pipe's write end open, and
        // reading it to the end would wait for the shard instead of for the router.
        let stderr_path = dir.join("hfzr.err");
        let status = Command::new(env!("CARGO_BIN_EXE_hfzr"))
            .args(["--listen", "tcp:127.0.0.1:0", "--spawn", "1", "--hfzd-bin"])
            .arg(&wrapper)
            .args(failure)
            .stdout(Stdio::null())
            .stderr(std::fs::File::create(&stderr_path).unwrap())
            .status()
            .expect("hfzr runs");

        let pid = std::fs::read_to_string(&pid_file).expect("the shard was spawned");
        let pid = pid.trim();
        let alive = || {
            Command::new("kill")
                .args(["-0", pid])
                .stderr(Stdio::null())
                .status()
                .expect("kill runs")
                .success()
        };
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
        while alive() && std::time::Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        if alive() {
            let _ = Command::new("kill").args(["-9", pid]).status();
            panic!("{:?}: shard {} outlived the router", failure, pid);
        }
        let stderr = std::fs::read_to_string(&stderr_path).unwrap();
        assert_eq!(status.code(), Some(3), "{:?}: {}", failure, stderr);
    }
}
