//! `hfz-benchmark` — the wall-clock benchmark of the huffdec codec, daemon and fleet on
//! `CpuBackend`, measured from outside through public API only.
//!
//! ```text
//! hfz-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! hfz-benchmark --all [--trace 1]          every workload, each in a fresh process
//! hfz-benchmark --check-repeat [--runs N]  the full set twice; fails if the second
//!                                          set is worse than the first beyond a bound
//! hfz-benchmark --manifest                 prints BENCHMARK.json from the metric tables
//! ```
//!
//! A run sets the workload up (three times untraced; the median is `setup_s`),
//! measures for `--seconds` with tracing off, checks every output, and prints every
//! metric by name and unit; its last line is one JSON object. With `--trace 1` it
//! instead runs a fixed amount of the workload with spans on, then the per-layer
//! probes, and writes `benchmark/out/trace-<workload>.json`. See `README.md`.

mod inputs;
mod json;
mod layers;
mod report;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use report::{Metric, RunResult, END_TO_END};
use stats::sig3;
use trace::Tracer;
use workloads::file::{FileCompress, FileDecompress};
use workloads::serve::Serving;
use workloads::{Budget, Ctx, Measured, ServeCounts, Workload, NAMES};

const DEFAULT_SEED: u64 = 42;
const DEFAULT_SECONDS: f64 = 20.0;

/// `run_seconds` of `BENCHMARK.json`: the harness's time cap fits 114 runs of about
/// twenty seconds, set-ups included, so every workload measures for half the default.
const MANIFEST_RUN_SECONDS: u64 = 10;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// Work of a traced pass: sweeps over the file set, or requests per client.
const TRACED_SWEEPS: u64 = 3;
const TRACED_REQUESTS: u64 = 150;

#[derive(Debug, Clone)]
struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    all: bool,
    check_repeat: bool,
    runs: usize,
}

fn usage() -> ! {
    eprintln!(
        "usage: hfz-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n       hfz-benchmark --all [--seed N] [--seconds S] [--trace 1]\n       hfz-benchmark --check-repeat [--runs N] [--seed N] [--seconds S]\n       hfz-benchmark --manifest\nworkloads: {}",
        NAMES.join(", ")
    );
    std::process::exit(2);
}

fn parse_args(args: &[String]) -> Options {
    let mut o = Options {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        all: false,
        check_repeat: false,
        runs: 1,
    };
    let mut i = 0;
    let value = |i: &mut usize| -> String {
        *i += 1;
        args.get(*i).cloned().unwrap_or_else(|| usage())
    };
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => o.workload = Some(value(&mut i)),
            "--seed" => o.seed = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--seconds" => o.seconds = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--runs" => o.runs = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                // `--trace` alone turns tracing on; `--trace 0|1` is the harness's form.
                o.trace = match args.get(i + 1).map(String::as_str) {
                    Some("0") => {
                        i += 1;
                        false
                    }
                    Some("1") => {
                        i += 1;
                        true
                    }
                    _ => true,
                };
            }
            "--all" => o.all = true,
            "--check-repeat" => o.check_repeat = true,
            _ => usage(),
        }
        i += 1;
    }
    if o.seconds.is_nan() || o.seconds <= 0.0 || o.runs == 0 {
        usage();
    }
    o
}

/// `benchmark/out/`, where archives, sockets and span files go: inside the checkout,
/// ignored by git.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set of this process in MB (`VmHWM`): one workload per process, so
/// this is the workload's own peak, set-up included.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn print_classes(measured: &Measured) {
    for (c, class) in measured.classes.iter().enumerate() {
        let ms = measured.class_ms(c);
        if ms.is_empty() {
            continue;
        }
        let (q1, med, q3) = stats::quartiles(&ms);
        println!(
            "  {:<34} n={:<5} p50 {} ms  q1 {}  q3 {}  p95 {}{}",
            class.name,
            ms.len(),
            sig3(med),
            sig3(q1),
            sig3(q3),
            sig3(stats::percentile(&ms, 95.0)),
            if class.primary { "" } else { "  (secondary)" }
        );
    }
}

fn print_counts(counts: &ServeCounts) {
    println!(
        "  serving layers: hit_ratio {}  decodes {}  waves {}  fields/wave {}  coalesced {}  shed {}  evictions {}  decode_busy_share {}  shard_imbalance {}  router_retries {}",
        sig3(counts.hit_ratio),
        counts.decodes,
        counts.waves,
        sig3(counts.fields_per_wave),
        counts.coalesced,
        counts.shed,
        counts.evictions,
        sig3(counts.decode_busy_share),
        sig3(counts.shard_imbalance),
        counts.router_retries
    );
}

fn metric(name: &str, value: f64) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit: report::unit_of(name).unwrap_or_else(|| panic!("{} is not declared", name)),
    }
}

/// One workload, one process: set up, measure, check, report.
fn run<W: Workload>(ctx: &Ctx, opts: &Options) -> RunResult {
    let tracer = Tracer::new(opts.trace);
    println!(
        "== {}  seed {}  clients {} of {} cpus  backend cpu  tracing {}",
        ctx.workload,
        ctx.seed,
        ctx.clients,
        nproc(),
        if opts.trace { "on" } else { "off" }
    );

    // Set-up, repeated so that its time is a median; the last one is measured on.
    let repeats = if opts.trace { 1 } else { SETUP_REPEATS };
    let mut setup_s = Vec::new();
    let mut state: Option<W> = None;
    for _ in 0..repeats {
        if let Some(previous) = state.take() {
            previous.teardown();
        }
        let start = Instant::now();
        state = Some(W::setup(ctx));
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let mut workload = state.expect("at least one set-up");
    println!(
        "  set-up {} s  (median of {}: {})",
        sig3(stats::median(&setup_s)),
        repeats,
        setup_s
            .iter()
            .map(|s| sig3(*s))
            .collect::<Vec<_>>()
            .join(" ")
    );

    let budget = match (opts.trace, ctx.workload.starts_with("file_")) {
        (false, _) => Budget::Seconds(opts.seconds),
        (true, true) => Budget::Work(TRACED_SWEEPS),
        (true, false) => Budget::Work(TRACED_REQUESTS),
    };
    let mut measured = workload.measure(ctx, budget, &tracer);
    let mut tally = std::mem::take(&mut measured.tally);
    workload.verify(&mut tally);
    let counts = workload.serve_counts();

    print_classes(&measured);
    println!(
        "  throughput {} MB/s  ({} ops/s over {} s)   compression ratio {}",
        sig3(measured.throughput_mbps()),
        sig3(measured.ops_per_s()),
        sig3(measured.wall_s),
        sig3(workload.compression_ratio())
    );
    if !ctx.workload.starts_with("file_") {
        print_counts(&counts);
    }

    let mut metrics = Vec::new();
    if opts.trace {
        let primary = measured.primary_ms();
        let pass_spans = trace::summarize(&tracer.spans());
        let uncovered: usize = pass_spans.iter().map(|s| s.uncovered_parents).sum();
        metrics.extend(
            [
                ("workload.traced_op_p50_ms", measured.op_p50_ms()),
                (
                    "workload.traced_throughput_mbps",
                    measured.throughput_mbps(),
                ),
                ("workload.op_p95_ms", stats::percentile(&primary, 95.0)),
                ("workload.op_p99_ms", stats::percentile(&primary, 99.0)),
                ("workload.uncovered_ops", uncovered as f64),
                ("serve.hit_ratio", counts.hit_ratio),
                ("serve.decodes", counts.decodes as f64),
                ("serve.waves", counts.waves as f64),
                ("serve.fields_per_wave", counts.fields_per_wave),
                ("serve.coalesced", counts.coalesced as f64),
                ("serve.shed", counts.shed as f64),
                ("serve.evictions", counts.evictions as f64),
                ("serve.decode_busy_share", counts.decode_busy_share),
                ("router.shard_imbalance", counts.shard_imbalance),
                ("router.retries", counts.router_retries as f64),
            ]
            .map(|(name, value)| metric(name, value)),
        );
        println!("  spans of the traced pass (self = duration minus child spans):");
        for s in &pass_spans {
            println!(
                "    {:<34} n={:<5} median {} ms  self {} ms{}",
                s.name,
                s.count,
                sig3(s.median_ms),
                sig3(s.median_self_ms),
                if s.uncovered_parents > 0 {
                    format!(
                        "  FLAG: children cover < 90 % in {} of {}",
                        s.uncovered_parents, s.parents
                    )
                } else {
                    String::new()
                }
            );
        }
        workload.teardown();
        let layer = layers::run(ctx, &tracer);
        println!("  per-layer probes:");
        for m in &layer {
            println!("    {:<40} {} {}", m.name, sig3(m.value), m.unit);
        }
        metrics.extend(layer);
        let path = out_dir().join(format!("trace-{}.json", ctx.workload));
        match tracer.write_json(&path, ctx.workload, ctx.seed) {
            Ok(()) => println!("  spans written to {}", path.display()),
            Err(e) => {
                tally.check(false, || format!("cannot write {}: {}", path.display(), e));
            }
        }
    } else {
        metrics.extend(
            [
                ("op_p50_ms", measured.op_p50_ms()),
                ("throughput_mbps", measured.throughput_mbps()),
                ("compression_ratio", workload.compression_ratio()),
                ("peak_rss_mb", peak_rss_mb()),
                ("setup_s", stats::median(&setup_s)),
            ]
            .map(|(name, value)| metric(name, value)),
        );
        workload.teardown();
        for m in &metrics {
            println!("  {:<18} {} {}", m.name, sig3(m.value), m.unit);
        }
    }

    for note in &tally.notes {
        eprintln!("FAILED: {}", note);
    }
    println!(
        "  checks: attempted {}  failed {}  failed_share {}",
        tally.attempted,
        tally.failed,
        sig3(tally.failed as f64 / tally.attempted.max(1) as f64)
    );
    RunResult {
        correct: tally.failed == 0,
        attempted: tally.attempted.max(1),
        failed: tally.failed,
        metrics,
    }
}

fn run_workload(name: &'static str, opts: &Options) -> i32 {
    let dir = out_dir().join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch directory inside benchmark/out");
    let ctx = Ctx {
        workload: name,
        seed: opts.seed,
        dir: dir.clone(),
        // Never more client threads (= connections) than processors.
        clients: nproc().min(2),
    };
    let result = match name {
        "file_decompress" => run::<FileDecompress>(&ctx, opts),
        "file_compress" => run::<FileCompress>(&ctx, opts),
        _ => run::<Serving>(&ctx, opts),
    };
    let _ = std::fs::remove_dir_all(&dir);
    println!("{}", result.to_line());
    if result.correct {
        0
    } else {
        1
    }
}

/// Re-executes this binary for one workload, so that it runs in a fresh process
/// (its own allocator state, its own `VmHWM`). Passes the child's report through.
fn child(name: &str, seed: u64, seconds: f64, trace: bool) -> Result<RunResult, String> {
    let output = Command::new(std::env::current_exe().map_err(|e| e.to_string())?)
        .args(["--workload", name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&output.stdout);
    let (report, line) = text
        .trim_end()
        .rsplit_once('\n')
        .ok_or_else(|| format!("{} printed no result", name))?;
    println!("{}", report);
    let result = RunResult::from_line(line)?;
    if !output.status.success() || !result.correct {
        return Err(format!(
            "{}: {} of {} operations failed",
            name, result.failed, result.attempted
        ));
    }
    Ok(result)
}

fn print_table(title: &str, rows: &[(&str, RunResult)], names: &[&str]) {
    println!("\n{}", title);
    print!("{:<18}", "workload");
    for name in names {
        print!(
            " {:>24}",
            format!("{} [{}]", name, report::unit_of(name).unwrap_or(""))
        );
    }
    println!();
    for (workload, result) in rows {
        print!("{:<18}", workload);
        for name in names {
            print!(" {:>24}", result.value(name).map_or("-".to_string(), sig3));
        }
        println!();
    }
}

fn run_all(opts: &Options) -> i32 {
    let names: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
    let mut untraced = Vec::new();
    for name in NAMES {
        match child(name, opts.seed, opts.seconds, false) {
            Ok(result) => untraced.push((name, result)),
            Err(e) => {
                eprintln!("FAILED: {}", e);
                return 1;
            }
        }
    }
    print_table("end-to-end metrics (tracing off)", &untraced, &names);
    if !opts.trace {
        return 0;
    }
    let mut traced = Vec::new();
    for name in NAMES {
        match child(name, opts.seed, opts.seconds, true) {
            Ok(result) => traced.push((name, result)),
            Err(e) => {
                eprintln!("FAILED: {}", e);
                return 1;
            }
        }
    }
    println!("\ntracing overhead (traced pass against the untraced run, same seed)");
    println!(
        "{:<18} {:>14} {:>14} {:>10} {:>16}",
        "workload", "op_p50_ms", "traced", "change", "uncovered ops"
    );
    for ((name, plain), (_, with_spans)) in untraced.iter().zip(&traced) {
        let (a, b) = (
            plain.value("op_p50_ms").unwrap_or(0.0),
            with_spans.value("workload.traced_op_p50_ms").unwrap_or(0.0),
        );
        println!(
            "{:<18} {:>14} {:>14} {:>9}% {:>16}",
            name,
            sig3(a),
            sig3(b),
            sig3((b - a) / a * 100.0),
            with_spans.value("workload.uncovered_ops").unwrap_or(0.0)
        );
    }
    println!("span files: {}/trace-<workload>.json", out_dir().display());
    0
}

/// Runs the full set twice on this build and holds the second set to the bounds
/// `BENCHMARK.json` fixes. With `--runs N` each set runs every workload on N seeds and
/// medians are compared, which is the acceptance procedure of the harness itself.
fn check_repeat(opts: &Options) -> i32 {
    let manifest_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let bounds = std::fs::read_to_string(&manifest_path)
        .map_err(|e| e.to_string())
        .and_then(|text| report::bounds_from_manifest(&text));
    let bounds = match bounds {
        Ok(b) if !b.is_empty() => b,
        other => {
            eprintln!(
                "cannot read bounds from {}: {:?}",
                manifest_path.display(),
                other.err()
            );
            return 2;
        }
    };
    // values[set][workload][metric] = one value per run
    let mut values = vec![vec![vec![Vec::new(); bounds.len()]; NAMES.len()]; 2];
    for set in values.iter_mut() {
        for (w, name) in NAMES.iter().enumerate() {
            for run in 0..opts.runs {
                match child(name, opts.seed + run as u64, opts.seconds, false) {
                    Ok(result) => {
                        for (m, (metric, _, _)) in bounds.iter().enumerate() {
                            set[w][m].push(result.value(metric).unwrap_or(f64::NAN));
                        }
                    }
                    Err(e) => {
                        eprintln!("FAILED: {}", e);
                        return 1;
                    }
                }
            }
        }
    }
    println!(
        "\nrepeatability: two sets of {} run(s) per workload, seeds {}..{}, {} s each",
        opts.runs,
        opts.seed,
        opts.seed + opts.runs as u64 - 1,
        opts.seconds
    );
    println!(
        "{:<16} {:<18} {:>3} {:>10} {:>10} {:>10} {:>8} {:>10} {:>8} {:>8} {:>7}  verdict",
        "workload",
        "metric",
        "n",
        "q1",
        "median",
        "q3",
        "spread",
        "median 2",
        "spread 2",
        "worse",
        "bound"
    );
    let mut failures = 0;
    for (w, name) in NAMES.iter().enumerate() {
        for (m, (metric, higher, bound)) in bounds.iter().enumerate() {
            let (first, second) = (&values[0][w][m], &values[1][w][m]);
            let (q1, med, q3) = stats::quartiles(first);
            let med2 = stats::quartiles(second).1;
            let worse = if *higher {
                (med - med2) / med
            } else {
                (med2 - med) / med
            };
            let spreads = (stats::spread(first), stats::spread(second));
            // `setup_s` is held to its bound between sets but not on its spread.
            let steady = metric == "setup_s" || spreads.0.max(spreads.1) <= *bound;
            let ok = worse <= *bound && steady;
            failures += usize::from(!ok);
            println!(
                "{:<16} {:<18} {:>3} {:>10} {:>10} {:>10} {:>7}% {:>10} {:>7}% {:>7}% {:>6}%  {}",
                name,
                metric,
                first.len(),
                sig3(q1),
                sig3(med),
                sig3(q3),
                sig3(spreads.0 * 100.0),
                sig3(med2),
                sig3(spreads.1 * 100.0),
                sig3(worse * 100.0),
                sig3(bound * 100.0),
                if ok { "ok" } else { "OUTSIDE ITS BOUND" }
            );
        }
    }
    if failures > 0 {
        eprintln!(
            "{} metric(s) outside their bound between two sets of the same build",
            failures
        );
        return 1;
    }
    0
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, path] = args.as_slice() {
        if flag == layers::FIRST_DECOMPRESS_FLAG {
            std::process::exit(layers::first_decompress_child(path));
        }
    }
    if args == ["--manifest"] {
        print!("{}", report::manifest(MANIFEST_RUN_SECONDS));
        return;
    }
    let opts = parse_args(&args);
    let code = if opts.check_repeat {
        check_repeat(&opts)
    } else if opts.all {
        run_all(&opts)
    } else {
        match opts
            .workload
            .as_deref()
            .and_then(|w| NAMES.iter().find(|n| **n == w))
        {
            Some(name) => run_workload(name, &opts),
            None => usage(),
        }
    };
    std::process::exit(code);
}
