//! `tenant_queries`: served reads beside writes. The registry holds 48
//! Zipf-popular tenants, each with six cosine streams and one 2-d stream
//! for chains, so every snapshot publish deep-copies megabytes. One
//! connection sends estimate and chain queries in an open loop at
//! `QUERY_RATE`, well under capacity; Zipf-popular pairs with mixed
//! budgets span more distinct keys than the 1024-entry estimate cache
//! holds. A second connection sends open-loop writes of `WRITE_BATCH`
//! rows, more than `publish_every`, so every write publishes.
//!
//! Work lands in the snapshot read path, the epoch-keyed cache (hits and
//! misses), `RegistrySnapshot::capture` under the registry lock, and
//! query handling in serve. Latencies are timed from when each request
//! was due, so a stall also charges the requests queued behind it.

use crate::gen::{lane, IngestGen, QueryGen, Shape};
use crate::report::Outcome;
use crate::served::{self, History, LoadSpec, Op, Verifier, VerifySpec, SERVE_COUNTERS};
use crate::stats::{median, quantile};
use crate::trace::Recorder;
use crate::{checks, load, Ctx, RunResult};
use dctstream_replay::client::json_num;
use dctstream_replay::Client;
use std::time::{Duration, Instant};

const SHAPE: Shape = Shape {
    tenants: 48,
    cosine: 6,
    multi_m: 64,
};

const LOAD: LoadSpec = LoadSpec {
    base_rows: 1_000,
    tail_rows: 250,
    multi_rows: 600,
};

/// Queries per second on the query connection. Well under capacity on
/// two cores: at 400/s beside 20 writes/s, queueing behind writes and
/// publishes already set the median timed from due.
const QUERY_RATE: f64 = 200.0;
/// Share of queries that are chains.
const CHAIN_SHARE: f64 = 0.25;
/// Write requests per second on the write connection.
const WRITE_RATE: f64 = 10.0;
/// Rows per write: above `publish_every` (1024), so every write
/// request publishes, never about half of them.
const WRITE_BATCH: usize = 1100;

const SETUP_RESTARTS: usize = 9;

const VERIFY: VerifySpec = VerifySpec {
    crash_ops: 60,
    crash_batch: WRITE_BATCH,
    restarts: 2,
    tenants: 4,
};

/// One open-loop connection's record.
#[derive(Debug, Default)]
struct Lane {
    /// Latency from when each answered request was due, ms, by kind
    /// (0 = ingest, 1 = estimate, 2 = chain).
    from_due_ms: [Vec<f64>; 3],
    /// Send-to-answer latency, ms, by kind.
    service_ms: [Vec<f64>; 3],
    /// How late the generator sent each request, ms.
    late_ms: Vec<f64>,
    /// Indices of the ops answered `200`.
    ok_ops: Vec<u64>,
    sent_rows: u64,
    acked_rows: u64,
    attempted: u64,
    failed: u64,
    pushback: u64,
}

impl Lane {
    /// Fold a later round's record into this one.
    fn absorb(&mut self, other: Lane) {
        for k in 0..3 {
            self.from_due_ms[k].extend(&other.from_due_ms[k]);
            self.service_ms[k].extend(&other.service_ms[k]);
        }
        self.late_ms.extend(other.late_ms);
        self.ok_ops.extend(other.ok_ops);
        self.sent_rows += other.sent_rows;
        self.acked_rows += other.acked_rows;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.pushback += other.pushback;
    }
}

/// How long before a send the generator stops sleeping and spins. A
/// sleeping thread wakes 0.1 ms or more late on a busy virtual machine,
/// and that lateness would be charged to the daemon; spinning the last
/// stretch costs about 4 % of one core at this workload's rates.
const SPIN: Duration = Duration::from_micros(200);

/// Wait until `due`: sleep most of the way, spin the rest.
fn pace_until(due: Instant) {
    let now = Instant::now();
    if due > now + SPIN {
        std::thread::sleep(due - now - SPIN);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// Drive ops `first..` of one connection on a fixed schedule: op
/// `first + k` is due at `start + k / rate` and is sent then, or at once
/// if the previous answer came late. Stops at the first op due after
/// `seconds`.
fn open_loop(
    client: &mut Client,
    rate: f64,
    start: Instant,
    seconds: Duration,
    first: u64,
    rec: &mut Recorder,
    mut request: impl FnMut(u64) -> (usize, &'static str, String, String, u64),
) -> Lane {
    let mut lane = Lane::default();
    for i in first.. {
        let due = start + Duration::from_secs_f64((i - first) as f64 / rate);
        if due >= start + seconds {
            break;
        }
        let (kind, method, path, body, rows) = request(i);
        pace_until(due);
        let send = Instant::now();
        let r = client.request(method, &path, &body);
        let done = Instant::now();
        const NAMES: [&str; 3] = ["client.ingest", "client.estimate", "client.chain"];
        rec.record(NAMES[kind], i, None, send, done);
        lane.attempted += 1;
        lane.sent_rows += rows;
        lane.late_ms.push((send - due).as_secs_f64() * 1e3);
        match r {
            Ok(resp) if resp.status == 200 => {
                lane.from_due_ms[kind].push((done - due).as_secs_f64() * 1e3);
                lane.service_ms[kind].push((done - send).as_secs_f64() * 1e3);
                lane.acked_rows += json_num(&resp.body, "accepted").unwrap_or(0.0) as u64;
                lane.ok_ops.push(i);
            }
            Ok(resp) => {
                lane.failed += 1;
                lane.pushback += u64::from(matches!(resp.status, 429 | 503));
            }
            Err(_) => {
                lane.failed += 1;
                break;
            }
        }
    }
    lane
}

/// Both connections for `seconds`, from write op `first.0` and query op
/// `first.1`: `(writes, queries)`.
fn drive(
    d: &mut served::Daemon,
    writes: &IngestGen,
    queries: &QueryGen,
    seconds: Duration,
    first: (u64, u64),
    recs: (&mut Recorder, &mut Recorder),
) -> Result<(Lane, Lane), String> {
    let mut writer = d.connect()?;
    let reader = &mut d.client;
    let start = Instant::now() + Duration::from_millis(20);
    let (wrec, qrec) = recs;
    std::thread::scope(|s| {
        let w = s.spawn(|| {
            open_loop(
                &mut writer,
                WRITE_RATE,
                start,
                seconds,
                first.0,
                wrec,
                |i| {
                    let op = writes.op(i);
                    let rows = op.rows.len() as u64;
                    (0, "POST", op.path(), op.body(), rows)
                },
            )
        });
        let q = open_loop(reader, QUERY_RATE, start, seconds, first.1, qrec, |i| {
            let op = queries.op(i);
            let (method, path, body) = op.request();
            (if op.is_chain() { 2 } else { 1 }, method, path, body, 0)
        });
        let w = w
            .join()
            .map_err(|_| "write connection panicked".to_string())?;
        Ok((w, q))
    })
}

pub fn run(ctx: &Ctx) -> RunResult {
    let mut out = Outcome::default();
    let template = ctx.work.join("template");
    let pre = served::prebuild(&SHAPE, &LOAD, ctx.seed, &template)?;
    let writes = IngestGen::new(&SHAPE, ctx.seed, lane::INGEST, WRITE_BATCH);
    let queries = QueryGen::new(&SHAPE, ctx.seed, CHAIN_SHARE);
    let round_time = ctx.seconds / served::ROUNDS;

    let untraced_p50 = if ctx.traced {
        let dir = ctx.work.join("untraced");
        load::copy_dir(&template, &dir).map_err(|e| e.to_string())?;
        let (mut d, _) = served::start(&dir)?;
        let mut off = (
            Recorder::new(ctx.origin, 0, false),
            Recorder::new(ctx.origin, 0, false),
        );
        let (_, q) = drive(
            &mut d,
            &writes,
            &queries,
            ctx.seconds,
            (0, 0),
            (&mut off.0, &mut off.1),
        )?;
        d.stop();
        std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
        median(&q.from_due_ms[1])
    } else {
        f64::NAN
    };

    let dir = ctx.work.join("served");
    load::copy_dir(&template, &dir).map_err(|e| e.to_string())?;
    let (mut d, setup) = served::restarts(&dir, SETUP_RESTARTS)?;
    out.set("setup_s", median(&setup));
    let mut history: History = pre.history.clone();
    let mut verifier = Verifier::new(&SHAPE, ctx.seed, &VERIFY, &history)?;
    let mut wrec = Recorder::new(ctx.origin, 1, ctx.traced);
    let mut qrec = Recorder::new(ctx.origin, 4, ctx.traced);
    let mut rec_verify = Recorder::new(ctx.origin, 2, ctx.traced);
    let counters0 = served::scrape(&mut d.client, &SERVE_COUNTERS)?;
    let (mut w, mut q) = (Lane::default(), Lane::default());
    let (mut disk, mut fsyncs, mut bytes) = (Vec::new(), 0.0, 0.0);
    for _ in 0..served::ROUNDS {
        let disk0 = load::dir_bytes(&dir);
        let (fsyncs0, bytes0) = (
            served::obs_counter("wal.fsyncs"),
            served::obs_counter("wal.append_bytes"),
        );
        let (rw, rq) = drive(
            &mut d,
            &writes,
            &queries,
            round_time,
            (w.attempted, q.attempted),
            (&mut wrec, &mut qrec),
        )?;
        fsyncs += served::obs_counter("wal.fsyncs") - fsyncs0;
        bytes += served::obs_counter("wal.append_bytes") - bytes0;
        disk.push((load::dir_bytes(&dir) - disk0) as f64 / rw.acked_rows as f64);
        for &i in &rw.ok_ops {
            history.add(&writes, i);
        }
        w.absorb(rw);
        q.absorb(rq);
        d = verifier.round(d, &dir, &mut history, &mut rec_verify, &mut out.failures)?;
    }
    verifier.finish(&mut d, &history, &mut rec_verify, &mut out.failures)?;
    let counters1 = served::scrape(&mut d.client, &SERVE_COUNTERS)?;
    d.stop();
    let v = &verifier.v;
    out.attempted += w.attempted + q.attempted + v.attempted;
    out.failed += w.failed + q.failed + v.failed;
    out.check(checks::acked_equals_sent(
        "tenant_queries writes",
        w.sent_rows,
        w.acked_rows,
    ));
    let acked = w.acked_rows as f64;
    // The writes arrive on a fixed schedule, so rows ÷ wall time would
    // only echo it; rows ÷ the median request's service time measures
    // how fast a write moves while the daemon works on it.
    out.set(
        "ingest_rows_per_s",
        WRITE_BATCH as f64 / (median(&w.service_ms[0]) / 1e3),
    );
    out.set("ingest_p50_ms", median(&w.from_due_ms[0]));
    out.set("estimate_p50_ms", median(&q.from_due_ms[1]));
    out.set("chain_p50_ms", median(&q.from_due_ms[2]));
    out.set("disk_bytes_per_row", median(&disk));
    out.set("recovery_s", median(&v.recovery_s));
    out.set("rel_err_p50", median(&v.rel_err));

    let mut spans = wrec.into_spans();
    spans.extend(qrec.into_spans());
    spans.extend(rec_verify.into_spans());
    if ctx.traced {
        // Replay both connections' ops in due order.
        let mut ops: Vec<(f64, Op)> = (0..w.attempted)
            .map(|i| (i as f64 / WRITE_RATE, Op::Ingest(writes.op(i))))
            .chain((0..q.attempted).map(|i| (i as f64 / QUERY_RATE, Op::Query(queries.op(i)))))
            .collect();
        ops.sort_by(|a, b| a.0.total_cmp(&b.0));
        let ops: Vec<Op> = ops.into_iter().map(|(_, op)| op).collect();
        let latency = crate::layers::ServedLatency {
            ingest_ms: &w.service_ms[0],
            estimate_ms: &q.service_ms[1],
            chain_ms: &q.service_ms[2],
        };
        spans.extend(served::inproc_layers(
            ctx, &template, &ops, &pre, &latency, &mut out,
        )?);
        out.set("stream.fsyncs_per_request", fsyncs / w.attempted as f64);
        out.set("stream.wal_bytes_per_row", bytes / acked);
        served::set_serve_counters(&mut out, &counters0, &counters1);
        out.set("serve.pushback", (w.pushback + q.pushback) as f64);
        out.set("serve.ingest_p99_ms", quantile(&w.from_due_ms[0], 0.99));
        out.set("serve.estimate_p99_ms", quantile(&q.from_due_ms[1], 0.99));
        out.set("serve.chain_p99_ms", quantile(&q.from_due_ms[2], 0.99));
        let late: Vec<f64> = w.late_ms.iter().chain(&q.late_ms).copied().collect();
        out.set("bench.gen_late_ms", median(&late));
        let traced_p50 = median(&q.from_due_ms[1]);
        out.set(
            "bench.trace_overhead_pct",
            (traced_p50 - untraced_p50) / untraced_p50 * 100.0,
        );
    }
    Ok((out, spans))
}
