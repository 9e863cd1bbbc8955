//! `repro [--json] [EXPERIMENT ...]` — runs the named experiments of the paper
//! reproduction (none = all, see `huffdec_bench::EXPERIMENTS`) and prints each table with
//! the paper's statements judged under it; `--json` also writes `BENCH_repro.json`.
//! Exits 2 on a usage error; a failed self-check panics.

use huffdec_bench::{report_json, run, Settings};

fn main() {
    let args = std::env::args().skip(1);
    let (flags, names): (Vec<String>, Vec<String>) = args.partition(|a| a.starts_with("--"));
    let settings = Settings::from_env();
    let experiments = match flags.iter().find(|f| *f != "--json") {
        Some(flag) => Err(format!("unknown flag '{}'", flag)),
        None => run(settings, &names),
    };
    let experiments = experiments.unwrap_or_else(|message| {
        eprintln!("repro: {}\nusage: repro [--json] [EXPERIMENT ...]", message);
        std::process::exit(2);
    });
    // `--json` is the only flag there is; a report that cannot be recorded must not pass.
    if !flags.is_empty() {
        let json = report_json(settings, &experiments);
        std::fs::write("BENCH_repro.json", json).expect("cannot write BENCH_repro.json");
        println!("wrote BENCH_repro.json");
    }
}
