//! `durable_ingest`: served, write-only, closed loop. One keep-alive
//! connection sends Zipf-skewed batches of `BATCH` rows and waits for
//! each durable ack, like a log shipper. The daemon runs with
//! `ServeOptions::default()` and restarts over a prebuilt registry
//! (checkpoint plus WAL tail) of a few tenants.
//!
//! Work lands in serve request handling, `parse_row`, per-row apply in
//! core, and WAL append plus group fsync in stream. Snapshot estimates,
//! the estimate cache, chains and intake stay off the measured traffic;
//! `estimate_p50_ms`, `chain_p50_ms` and `rel_err_p50` come from the
//! verification queries that end every round of a served run.

use crate::gen::{lane, IngestGen, Shape};
use crate::report::Outcome;
use crate::served::{self, IngestRun, LoadSpec, Op, Stop, Verifier, VerifySpec, SERVE_COUNTERS};
use crate::stats::{median, quantile};
use crate::trace::Recorder;
use crate::{checks, load, Ctx, RunResult};

const SHAPE: Shape = Shape {
    tenants: 4,
    cosine: 4,
    multi_m: 32,
};

const LOAD: LoadSpec = LoadSpec {
    base_rows: 12_000,
    tail_rows: 8_000,
    multi_rows: 1_000,
};

/// Rows per ingest request: exactly `publish_every`, so every request
/// publishes (a cheap copy of this small registry) and the median never
/// flips between a publishing and a quiet mode. Batches this size keep
/// per-request work well above the host's fsync and wake-up jitter.
const BATCH: usize = 1024;

/// Restarts over the prebuilt registry; `setup_s` is their median.
const SETUP_RESTARTS: usize = 9;

const VERIFY: VerifySpec = VerifySpec {
    crash_ops: 100,
    crash_batch: BATCH,
    restarts: 2,
    tenants: 4,
};

pub fn run(ctx: &Ctx) -> RunResult {
    let mut out = Outcome::default();
    let template = ctx.work.join("template");
    let pre = served::prebuild(&SHAPE, &LOAD, ctx.seed, &template)?;
    let gen = IngestGen::new(&SHAPE, ctx.seed, lane::INGEST, BATCH);
    let round_time = ctx.seconds / served::ROUNDS;

    // A traced run first drives the same seed untraced, for the tracing
    // overhead.
    let untraced_p50 = if ctx.traced {
        let dir = ctx.work.join("untraced");
        load::copy_dir(&template, &dir).map_err(|e| e.to_string())?;
        let (mut d, _) = served::start(&dir)?;
        let mut off = Recorder::new(ctx.origin, 0, false);
        let mut scratch = pre.history.clone();
        let run = served::closed_ingest(
            &mut d.client,
            &gen,
            0,
            Stop::After(ctx.seconds),
            &mut off,
            &mut scratch,
        );
        d.stop();
        std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
        median(&run.lat_ms)
    } else {
        f64::NAN
    };

    let dir = ctx.work.join("served");
    load::copy_dir(&template, &dir).map_err(|e| e.to_string())?;
    let (mut d, setup) = served::restarts(&dir, SETUP_RESTARTS)?;
    out.set("setup_s", median(&setup));
    let mut history = pre.history.clone();
    let mut verifier = Verifier::new(&SHAPE, ctx.seed, &VERIFY, &history)?;
    let mut rec = Recorder::new(ctx.origin, 1, ctx.traced);
    let mut rec_verify = Recorder::new(ctx.origin, 2, ctx.traced);
    let counters0 = served::scrape(&mut d.client, &SERVE_COUNTERS)?;
    let (mut run, mut disk, mut fsyncs, mut bytes) = (IngestRun::default(), Vec::new(), 0.0, 0.0);
    for _ in 0..served::ROUNDS {
        let disk0 = load::dir_bytes(&dir);
        let (fsyncs0, bytes0) = (
            served::obs_counter("wal.fsyncs"),
            served::obs_counter("wal.append_bytes"),
        );
        let r = served::closed_ingest(
            &mut d.client,
            &gen,
            run.attempted,
            Stop::After(round_time),
            &mut rec,
            &mut history,
        );
        fsyncs += served::obs_counter("wal.fsyncs") - fsyncs0;
        bytes += served::obs_counter("wal.append_bytes") - bytes0;
        disk.push((load::dir_bytes(&dir) - disk0) as f64 / r.acked_rows as f64);
        run.absorb(r);
        d = verifier.round(d, &dir, &mut history, &mut rec_verify, &mut out.failures)?;
    }
    verifier.finish(&mut d, &history, &mut rec_verify, &mut out.failures)?;
    let counters1 = served::scrape(&mut d.client, &SERVE_COUNTERS)?;
    d.stop();
    let v = &verifier.v;
    out.attempted += run.attempted + v.attempted;
    out.failed += run.failed + v.failed;
    out.check(checks::acked_equals_sent(
        "durable_ingest",
        run.sent_rows,
        run.acked_rows,
    ));
    let acked = run.acked_rows as f64;
    out.set("ingest_rows_per_s", acked / run.wall_s);
    out.set("ingest_p50_ms", median(&run.lat_ms));
    out.set("disk_bytes_per_row", median(&disk));
    out.set("estimate_p50_ms", median(&v.est_ms));
    out.set("chain_p50_ms", median(&v.chain_ms));
    out.set("recovery_s", median(&v.recovery_s));
    out.set("rel_err_p50", median(&v.rel_err));

    let mut spans = rec.into_spans();
    spans.extend(rec_verify.into_spans());
    if ctx.traced {
        // Every k-th op, spread over the whole run, and the served
        // latencies of exactly those ops.
        let stride = run.attempted.div_ceil(served::INPROC_OPS).max(1) as usize;
        let sample: Vec<u64> = (0..run.attempted).step_by(stride).collect();
        let sample_ms: Vec<f64> = sample
            .iter()
            .filter_map(|&i| run.lat_ms.get(i as usize).copied())
            .collect();
        let mut ops: Vec<Op> = sample.iter().map(|&i| Op::Ingest(gen.op(i))).collect();
        ops.extend(
            crate::gen::verification_queries(&SHAPE, VERIFY.tenants)
                .into_iter()
                .map(Op::Query),
        );
        let latency = crate::layers::ServedLatency {
            ingest_ms: &sample_ms,
            estimate_ms: &v.est_ms,
            chain_ms: &v.chain_ms,
        };
        spans.extend(served::inproc_layers(
            ctx, &template, &ops, &pre, &latency, &mut out,
        )?);
        out.set("stream.fsyncs_per_request", fsyncs / run.attempted as f64);
        out.set("stream.wal_bytes_per_row", bytes / acked);
        served::set_serve_counters(&mut out, &counters0, &counters1);
        out.set("serve.pushback", run.pushback as f64);
        out.set("serve.ingest_p99_ms", quantile(&run.lat_ms, 0.99));
        out.set("serve.estimate_p99_ms", quantile(&v.est_ms, 0.99));
        out.set("serve.chain_p99_ms", quantile(&v.chain_ms, 0.99));
        out.set("bench.gen_late_ms", median(&run.gap_ms));
        let traced_p50 = median(&run.lat_ms);
        out.set(
            "bench.trace_overhead_pct",
            (traced_p50 - untraced_p50) / untraced_p50 * 100.0,
        );
    }
    Ok((out, spans))
}
