//! Bulk loading through the typed intake front end: the `build
//! --wal-dir` path (probe a CSV, then `intake::run` it into a durable
//! registry through `DurableSink`). Every workload's registry is loaded
//! this way, so the intake layer is measured on each of them.

use crate::gen::DOMAIN_HI;
use dctstream_intake::{
    probe, run as intake_run, ColumnType, CountSink, DurableSink, IntakeOptions, IntakeReport,
    ProbeOptions, RejectLedger, Schema,
};
use dctstream_stream::{
    DirStorage, DurableProcessor, RecoveryOptions, RecoveryReport, SyncPolicy, WalOptions,
    WalStorage,
};
use std::io::Cursor;
use std::time::Instant;

/// Rejects kept as attributed samples per run; the count is exact
/// regardless.
const REJECT_SAMPLES: usize = 16;

/// Open (or create) a loader's durable registry under `dir`. The WAL
/// syncs only when told to: the loader syncs once per input file, one
/// durable ack per file. The CLI's default (a sync every 256 appends)
/// would put some 24 device fsyncs into each file's timing, and on a
/// shared disk their latency drifts by a quarter between runs; the
/// fsync count stays measured as `stream.fsyncs_per_request`.
pub fn open_loader(
    dir: &std::path::Path,
) -> Result<(DurableProcessor<DirStorage>, RecoveryReport), String> {
    let opts = RecoveryOptions {
        wal: WalOptions {
            sync: SyncPolicy::Manual,
            ..WalOptions::default()
        },
        ..RecoveryOptions::default()
    };
    DurableProcessor::open_dir(dir, opts).map_err(|e| e.to_string())
}

/// Probe `csv` (with or without a header row) over its whole input and
/// pin every column to the join domain, as an operator pins the domain a
/// synopsis was built over. Returns the schema and the probe's wall time
/// in seconds.
pub fn probe_schema(csv: &[u8], header: bool) -> Result<(Schema, f64), String> {
    let opts = ProbeOptions {
        sample_rows: 0,
        header: Some(header),
        ..ProbeOptions::default()
    };
    let t = Instant::now();
    let (mut schema, _) = probe(Cursor::new(csv), &opts).map_err(|e| format!("probe: {e}"))?;
    let secs = t.elapsed().as_secs_f64();
    for c in &mut schema.columns {
        if c.ty != ColumnType::Int {
            return Err(format!("probe inferred {} for column {}", c.ty, c.name));
        }
        c.domain = Some((0, DOMAIN_HI));
    }
    Ok((schema, secs))
}

fn options(targets: &[usize]) -> IntakeOptions {
    IntakeOptions {
        targets: targets.to_vec(),
        ..IntakeOptions::default()
    }
}

/// Intake `csv` into registered stream `key` of `dp`, feeding it the
/// `targets` columns (every column is validated). Returns the report;
/// rejects land in `ledger`.
pub fn intake_durable<S: WalStorage>(
    dp: &mut DurableProcessor<S>,
    key: &str,
    csv: &[u8],
    schema: &Schema,
    targets: &[usize],
    ledger: &mut RejectLedger,
) -> Result<IntakeReport, String> {
    let opts = options(targets);
    let mut sink = DurableSink::new(dp, key, &opts.targets);
    intake_run(Cursor::new(csv), schema, &opts, ledger, &mut sink).map_err(|e| format!("{e}"))
}

/// Intake `csv` into a discarding sink: the intake layer alone.
/// Returns the report and the wall time in seconds.
pub fn intake_count(
    csv: &[u8],
    schema: &Schema,
    targets: &[usize],
) -> Result<(IntakeReport, f64), String> {
    let opts = options(targets);
    let mut ledger = RejectLedger::new(REJECT_SAMPLES);
    let t = Instant::now();
    let report = intake_run(Cursor::new(csv), schema, &opts, &mut ledger, &mut CountSink)
        .map_err(|e| format!("{e}"))?;
    Ok((report, t.elapsed().as_secs_f64()))
}

/// A fresh rejects ledger.
pub fn ledger() -> RejectLedger {
    RejectLedger::new(REJECT_SAMPLES)
}

/// Render 1-d values as a one-column CSV.
pub fn csv_1d(values: &[i64]) -> Vec<u8> {
    let mut s = String::with_capacity(values.len() * 5);
    for v in values {
        s.push_str(&v.to_string());
        s.push('\n');
    }
    s.into_bytes()
}

/// Render 2-d tuples as a two-column CSV.
pub fn csv_2d(tuples: &[(i64, i64)]) -> Vec<u8> {
    let mut s = String::with_capacity(tuples.len() * 10);
    for (a, b) in tuples {
        s.push_str(&format!("{a},{b}\n"));
    }
    s.into_bytes()
}

/// Total bytes of the regular files under `dir`, recursively.
pub fn dir_bytes(dir: &std::path::Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Copy the directory tree `from` to `to`.
pub fn copy_dir(from: &std::path::Path, to: &std::path::Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for e in std::fs::read_dir(from)? {
        let e = e?;
        let target = to.join(e.file_name());
        if e.file_type()?.is_dir() {
            copy_dir(&e.path(), &target)?;
        } else {
            std::fs::copy(e.path(), target)?;
        }
    }
    Ok(())
}
