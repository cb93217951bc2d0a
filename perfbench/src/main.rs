//! End-to-end benchmark for the three costs the paper weighs: the junk
//! torrent at the root (`serve`), recursive resolution under hints versus a
//! local root copy (`resolve`), and the daily refresh of a verified local
//! copy (`zone_update`).
//!
//! ```text
//! perfbench --workload <serve|resolve|zone_update> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload is a closed loop: the next operation starts when the
//! previous one returns. The last stdout line is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports the
//! end-to-end metrics (tracing off); `--trace 1` runs the traced probes of
//! every layer and reports the per-layer metrics, writing spans to
//! `perfbench/traces/`. See `perfbench/README.md`.

mod alloc;
mod report;
mod resolve;
mod serve;
mod trace;
mod zone_update;

use std::process::ExitCode;
use std::time::Duration;

use report::Outcome;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Setups per run; the reported `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: Duration,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <serve|resolve|zone_update> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if s == 0 {
                    return Err("--seconds must be at least 1".into());
                }
                seconds = Some(Duration::from_secs(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["serve", "resolve", "zone_update"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome: Outcome = if args.trace {
        trace::run_traced(&args.workload, args.seed)
    } else {
        match args.workload.as_str() {
            "serve" => serve::run(args.seed, args.seconds),
            "resolve" => resolve::run(args.seed, args.seconds),
            _ => zone_update::run(args.seed, args.seconds),
        }
    };
    for failure in &outcome.failures {
        eprintln!("perfbench: check failed: {failure}");
    }
    println!("{}", outcome.to_json());
    ExitCode::SUCCESS
}
