//! `nplus-perfbench`: the repository's benchmark.
//!
//! ```text
//! nplus-perfbench --workload <fig3_grid|city_sparse|serve_mix> --seed <n>
//!                 --seconds <s> --trace <0|1> --server-bin <path>
//! ```
//!
//! Prints one row per metric (name, value, unit, note), then as the
//! last line the JSON result: the end-to-end metrics with `--trace 0`,
//! the per-layer metrics with `--trace 1`. `perfbench/run.py` builds
//! this binary and `sweep-server` and passes `--server-bin`.

mod kernels;
mod report;
mod serve;
mod spec;
mod sweeps;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

/// The workload seed the golden digests are stored for.
pub const DEFAULT_SEED: u64 = 1;

const USAGE: &str = "usage: nplus-perfbench --workload <fig3_grid|city_sparse|serve_mix> \
                     --seed <n> --seconds <s> --trace <0|1> --server-bin <path>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    server_bin: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        server_bin: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value}"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                }
            }
            "--server-bin" => args.server_bin = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("nplus-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(server_bin) = &args.server_bin else {
        eprintln!("nplus-perfbench: --server-bin is required\n{USAGE}");
        return ExitCode::from(2);
    };
    let mut report = match args.workload.as_str() {
        "fig3_grid" => sweeps::run(
            &sweeps::SweepWorkload::fig3_grid(args.seed),
            args.seed,
            args.seconds,
            args.trace,
            server_bin,
        ),
        "city_sparse" => sweeps::run(
            &sweeps::SweepWorkload::city_sparse(args.seed),
            args.seed,
            args.seconds,
            args.trace,
            server_bin,
        ),
        "serve_mix" => serve::run(args.seed, args.seconds, args.trace, server_bin),
        other => {
            eprintln!("nplus-perfbench: unknown workload {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {} threads available {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let declared = match report::declared(if args.trace {
        "per_layer"
    } else {
        "end_to_end"
    }) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("nplus-perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    report.print(&declared);
    ExitCode::SUCCESS
}
