//! The dctstream benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload durable_ingest|tenant_queries|bulk_recover \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. Generates the workload's inputs from
//! the seed, measures for `--seconds`, checks the program's outputs, and
//! prints a host record line and then the result line (the last line of
//! standard output): every end-to-end metric with `--trace 0`, every
//! per-layer metric with `--trace 1`. Exits non-zero when a correctness
//! check fails. Registries live under `.bench_work/` in the current
//! directory and are removed at exit; traced runs leave their span dump
//! in `.bench_work/spans/`. See `perfbench/README.md`.

mod bulk_recover;
mod checks;
mod durable_ingest;
mod gen;
mod host;
mod layers;
mod load;
mod report;
mod served;
mod stats;
mod tenant_queries;
mod trace;

use report::Outcome;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Span;

/// What every workload runs with.
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: Duration,
    /// Whether this is the traced (per-layer) run.
    pub traced: bool,
    /// Scratch directory for this run's registries.
    pub work: PathBuf,
    /// Clock origin of every span.
    pub origin: Instant,
}

/// A workload's measurements and correctness verdicts, plus its spans.
pub type RunResult = Result<(Outcome, Vec<Span>), String>;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload durable_ingest|tenant_queries|bulk_recover --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("bad {flag} {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.unwrap_or(u64::from(report::RUN_SECONDS)),
        trace: trace.unwrap_or(false),
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
    let run: fn(&Ctx) -> RunResult = match args.workload.as_str() {
        "durable_ingest" => durable_ingest::run,
        "tenant_queries" => tenant_queries::run,
        "bulk_recover" => bulk_recover::run,
        other => {
            eprintln!("perfbench: unknown workload {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let root = PathBuf::from(".bench_work");
    let work = root.join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: creating {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    // Probe host noise before the workload starts, so the probe never
    // competes with it for a core.
    let stall = host::stall_ms_per_s(Duration::from_millis(500));
    let ctx = Ctx {
        seed: args.seed,
        seconds: Duration::from_secs(args.seconds),
        traced: args.trace,
        work: work.clone(),
        origin: Instant::now(),
    };
    let result = run(&ctx);
    let host = host::record_json(&args.workload, args.seed, &work, stall);
    let _ = std::fs::remove_dir_all(&work);
    let (mut outcome, spans) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    outcome.set("process.peak_rss_mb", host::peak_rss_mb());
    outcome.set("bench.host_stall_ms_per_s", stall);
    if args.trace {
        let path = root
            .join("spans")
            .join(format!("{}-seed{}.tsv", args.workload, args.seed));
        match trace::dump(&path, &spans) {
            Ok(()) => eprintln!("perfbench: {} spans in {}", spans.len(), path.display()),
            Err(e) => outcome.failures.push(format!("span dump: {e}")),
        }
    }
    let line = outcome.result_line(args.trace);
    for f in &outcome.failures {
        eprintln!("perfbench: check failed: {f}");
    }
    println!("{host}");
    println!("{line}");
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
