//! `hfzr` — the sharded-fleet fan-out router.
//!
//! ```text
//! hfzr --spawn 3 --hfzd-bin target/release/hfzd --load hacc=/data/hacc.hfz
//! hfzr --shard tcp:127.0.0.1:4806 --shard tcp:10.0.0.2:4806
//! ```
//!
//! Speaks the same protocol as a single `hfzd` (an `hfz --addr` pointed here works
//! unchanged) but shards archives across the fleet: `GET`/`VERIFY` go to the owning
//! shard, `GETBATCH` fans out and merges in order, `STATS`/`METRICS` aggregate, and
//! a dead shard's archives are re-placed onto the survivors with one transparent
//! retry for the in-flight request.

use std::process::ExitCode;

use huffdec::router::{run_foreground, RouterBuilder};
use huffdec::HfzError;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--help")
        || args.first().map(String::as_str) == Some("-h")
    {
        eprintln!(
            "hfzr — sharded hfzd fleet router\n\n\
             USAGE:\n  hfzr [--listen ADDR] (--shard ADDR)... [--spawn N] [--hfzd-bin PATH]\n       \
             [--cache-bytes N] [--load NAME=PATH]... [--metrics ADDR] [--addr-file PATH]\n\n\
             ADDR is tcp:HOST:PORT (port 0 = ephemeral) or unix:PATH; default {}\n\
             --shard attaches to a running hfzd; --spawn forks N hfzd children on ephemeral\n\
             ports (--cache-bytes is forwarded to them; they inherit HFZ_BACKEND)\n\
             --metrics binds an HTTP sidecar serving the fleet GET /metrics and GET /healthz\n\
             --addr-file writes the resolved listen address to PATH once accepting",
            huffdec::router::DEFAULT_LISTEN
        );
        return ExitCode::SUCCESS;
    }
    let result = RouterBuilder::parse(&args)
        .map_err(HfzError::Usage)
        .and_then(run_foreground);
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(error) => {
            eprintln!("hfzr: {}", error);
            // The same stable exit-code mapping hfz and hfzd use.
            ExitCode::from(error.exit_code())
        }
    }
}
