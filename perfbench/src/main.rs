//! `ec-perfbench` — the repo's benchmark. See `EXPERIMENTS.md` beside
//! this package for what is measured and why, and `BENCHMARK.json` at
//! the repo root for the contract it is run under.
//!
//! ```text
//! ec-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one workload, in this process; the last stdout line is its result
//! ec-perfbench [--seed n] [--seconds s] [--trace 0|1]
//!     all four workloads, one child process each
//! ec-perfbench --aa <N> [--seed n] [--seconds s]
//!     A/A self-check: two interleaved sets of N runs of this binary
//! ```

mod drive;
mod graphs;
mod micro;
mod report;
mod spans;
mod stats;
mod workload;

use graphs::{Workload, ALL_WORKLOADS};
use std::path::PathBuf;

pub struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    aa: Option<usize>,
    /// Directory for trace files; defaults to a directory beside the
    /// executable.
    out: Option<PathBuf>,
}

fn usage(problem: &str) -> ! {
    eprintln!("ec-perfbench: {problem}");
    eprintln!(
        "usage: ec-perfbench [--workload {}] [--seed N] [--seconds S] [--trace 0|1] \
         [--aa N] [--out DIR]",
        ALL_WORKLOADS.map(Workload::name).join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        aa: None,
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            usage(&format!("{flag} needs a value"));
        };
        let bad = || -> ! { usage(&format!("bad value {value:?} for {flag}")) };
        match flag.as_str() {
            "--workload" => {
                args.workload = Some(Workload::from_name(&value).unwrap_or_else(|| bad()))
            }
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| bad()),
            "--seconds" => {
                args.seconds = value.parse().unwrap_or_else(|_| bad());
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    bad();
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => bad(),
                }
            }
            "--aa" => args.aa = Some(value.parse().unwrap_or_else(|_| bad())),
            "--out" => args.out = Some(PathBuf::from(&value)),
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let code = match (args.workload, args.aa) {
        (Some(w), None) => workload::run_in_this_process(w, &args),
        (None, None) => report::run_all(&args),
        (None, Some(n)) => report::run_aa(&args, n),
        (Some(_), Some(_)) => usage("--aa runs every workload; drop --workload"),
    };
    std::process::exit(code);
}
