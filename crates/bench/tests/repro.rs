//! The `repro` report through its library entry point and its binary.

use std::process::Command;

use huffdec_bench::{report_json, run, Context, Expectation, Settings, EXPERIMENTS, REL_EB};
use huffdec_core::DecoderKind;

const TINY: Settings = Settings {
    sms: 2,
    elements: Some(4_000),
};

#[test]
fn context_hands_back_what_it_already_made() {
    let mut ctx = Context::new(TINY);
    let gap = DecoderKind::OptimizedGapArray;
    let (field, archive) = (ctx.field("HACC"), ctx.archive("HACC", gap, REL_EB));
    let decoded = ctx.decoded("HACC", gap, REL_EB);
    // Other requests in between, all drawing on the one generated HACC field.
    ctx.decoded("HACC", DecoderKind::CuszBaseline, REL_EB);
    ctx.decompressed("HACC", gap);
    ctx.archive("HACC", gap, 1e-2);
    assert!(std::ptr::eq(&*field, &*ctx.field("HACC")));
    assert!(std::ptr::eq(&*archive, &*ctx.archive("HACC", gap, REL_EB)));
    assert!(std::ptr::eq(&*decoded, &*ctx.decoded("HACC", gap, REL_EB)));
    assert!(!std::ptr::eq(&*archive, &*ctx.archive("HACC", gap, 1e-2)));
}

#[test]
fn experiment_names_are_unique_and_unknown_ones_are_listed() {
    let mut names: Vec<_> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), EXPERIMENTS.len());

    // An unknown name fails before anything runs, naming every valid experiment...
    let err = run(TINY, &["fig3_shmem_sweep".into(), "no_such_table".into()]).unwrap_err();
    assert!(names.iter().all(|name| err.contains(name)), "{}", err);
    // ...and the binary turns that into exit code 2, as it does an unknown flag.
    for arg in ["no_such_table", "--direct-write"] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .arg(arg)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{}", arg);
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage: repro [--json]"));
    }
}

#[test]
fn expectation_status_and_miss_size() {
    let judge = |band, measured| Expectation {
        what: "x",
        paper: "y",
        band,
        measured,
    };
    let inf = f64::INFINITY;
    assert_eq!(judge((2.055, 3.425), 3.37).status(), "ok");
    assert_eq!(judge((1.0, inf), 1.0).miss_by(), 0.0);
    assert!((judge((-inf, 10.0), 29.3).miss_by() - 19.3).abs() < 1e-12);
    assert_eq!(judge((5.0, 5.0), 2.0).miss_by(), -3.0);
    // Nothing measured is a miss, never a pass.
    assert_eq!(judge((5.0, 5.0), f64::NAN).status(), "miss");
}

/// The paper's statements the report must judge, as `(experiment, paper value or wording)`.
const REQUIRED: [(&str, &str); 19] = [
    ("table5_decode_throughput", "2.74x"),
    ("table5_decode_throughput", "3.64x"),
    (
        "table5_decode_throughput",
        "below baseline on CESM, Nyx, Hurricane, RTM, GAMESS",
    ),
    ("table1_shmem_tuning", "within ~10 % of best"),
    ("table1_shmem_tuning", "worst-case penalty"),
    ("fig3_shmem_sweep", "5120"),
    ("fig3_shmem_sweep", "~32 %"),
    ("table2_phase_breakdown", "decode-and-write collapses"),
    ("table2_phase_breakdown", "~10–35 % faster"),
    ("fig2_errorbound_sweep", "drops as the error bound grows"),
    ("fig4_overall_decompression", "2.08x"),
    ("fig4_overall_decompression", "2.43x"),
    ("fig5_with_transfer", "1.53x"),
    ("fig5_with_transfer", "1.65x"),
    ("table4_compression_ratio", "within ~10 % of each other"),
    ("snapshot_batch_throughput", "never slower than serial"),
    ("table6_encode_throughput", "Revisiting Huffman Coding"),
    ("small_dataset_sweep", "as small as 10 MB"),
    ("table1_shmem_tuning", "smaller datasets"),
];

#[test]
fn whole_report_runs_verified_at_a_tiny_scale() {
    // No names selects every experiment, the direct-write ablation included.
    let experiments = run(TINY, &[]).unwrap();
    let ran: Vec<_> = experiments.iter().map(|e| e.name).collect();
    let all: Vec<_> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
    assert_eq!(ran, all);
    assert!(ran.contains(&"table5_direct_write"));

    for e in &experiments {
        assert!(e.verified, "{}", e.name);
        assert!(e.metrics.iter().all(|(_, v)| v.is_finite()), "{}", e.name);
        for x in &e.expectations {
            assert!(x.measured.is_finite(), "{}: {}", e.name, x.what);
            assert_eq!(x.status() == "ok", x.miss_by() == 0.0);
        }
    }
    for (name, paper) in REQUIRED {
        let e = experiments.iter().find(|e| e.name == name).unwrap();
        let judged = e.expectations.iter().any(|x| x.paper.contains(paper));
        assert!(judged, "{} does not judge '{}'", name, paper);
    }

    // One line of settings, one line per experiment, a closing line.
    let json = report_json(TINY, &experiments);
    assert!(json.starts_with("{\"name\":\"repro\",\"sms\":2,\"elements_env\":4000,"));
    assert_eq!(json.lines().count(), EXPERIMENTS.len() + 2);
    assert!(json.contains("\"status\"") && json.contains("\"verified\":true"));
}
