//! `hfzd` — the block-decode daemon.
//!
//! ```text
//! hfzd --listen tcp:127.0.0.1:4806 --cache-bytes 268435456 --load hacc=/data/hacc.hfz
//! ```
//!
//! Serves `LIST`/`GET`/`STATS`/`VERIFY`/`LOAD`/`SHUTDOWN` until a client sends
//! `SHUTDOWN` (`hfz shutdown --addr ...`). `hfz serve` is the same daemon spelled as a
//! CLI subcommand.

use std::process::ExitCode;

use huffdec::serve::daemon::{run_foreground, DaemonBuilder};
use huffdec::HfzError;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--help")
        || args.first().map(String::as_str) == Some("-h")
    {
        eprintln!(
            "hfzd — HFZ1 block-decode daemon\n\n\
             USAGE:\n  hfzd [--listen ADDR] [--cache-bytes N] [--load NAME=PATH]... [--host-threads N] [--metrics ADDR] [--addr-file PATH]\n\n\
             ADDR is tcp:HOST:PORT (port 0 = ephemeral) or unix:PATH; default {}\n\
             decodes run on the backend HFZ_BACKEND names: cpu (default) or sim\n\
             --metrics binds an HTTP sidecar serving GET /metrics (Prometheus) and GET /healthz\n\
             --addr-file writes the resolved listen address to PATH once accepting",
            huffdec::serve::daemon::DEFAULT_LISTEN
        );
        return ExitCode::SUCCESS;
    }
    let result = DaemonBuilder::parse(&args)
        .map_err(HfzError::Usage)
        .and_then(run_foreground);
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(error) => {
            eprintln!("hfzd: {}", error);
            // The same stable exit-code mapping the `hfz` CLI uses.
            ExitCode::from(error.exit_code())
        }
    }
}
