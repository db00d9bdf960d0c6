//! `bulk_recover`: offline, no HTTP on the measured path. Two relations
//! are generated from Zipf frequencies through a `datagen::mapping`
//! value mapping, rendered as two-column CSV and corrupted in about
//! 1.5 % of rows with labelled damage (`datagen::dirty`). Each cycle
//! probes both relations over their whole input, opens a fresh durable
//! registry, intakes the relations file by file through `DurableSink`
//! (the `build --wal-dir` path; one durable sync per file), abandons the
//! registry without a checkpoint, and reopens it, replaying the whole
//! WAL. Cycles repeat for the run's seconds; metrics are medians.
//!
//! Work lands in intake validation, per-row apply, WAL append and WAL
//! replay. Serve does nothing here, so a serve optimisation predicts no
//! change on this workload. A traced run adds a short served pass over
//! the recovered registry, only to time the serve layer on this data.

use crate::gen::{self, lane, BUDGETS, DOMAIN_HI, M};
use crate::layers::{self, per_call_ns, InProc, LayerQuery, ServedLatency};
use crate::report::Outcome;
use crate::served::{self, SERVE_COUNTERS};
use crate::stats::{median, quantile};
use crate::trace::{self, Recorder};
use crate::{checks, load, Ctx, RunResult};
use dctstream_core::{estimate_equi_join, CosineSynopsis, Domain, Grid};
use dctstream_datagen::{
    correlated_pair, frequencies_to_stream, inject, Correlation, CorruptionClass,
};
use dctstream_replay::client::json_num;
use dctstream_stream::{ChainJoinQuery, DenseFreq, DurableProcessor, Summary};
use rand::RngExt;
use std::collections::HashSet;
use std::path::Path;
use std::time::Instant;

/// Rows per relation.
const ROWS: u64 = 60_000;
/// Rows per input file; each file is one durable intake call.
const FILE_ROWS: usize = 6_000;
/// Share of rows damaged.
const DIRTY: f64 = 0.015;
/// Zipf skews of the two relations.
const SKEWS: (f64, f64) = (1.0, 0.8);
/// The header row of every relation file. Probing takes the arity from
/// the first record, so a header keeps a damaged first data row from
/// setting it.
const HEADER: &[u8] = b"a,b\n";
/// Registry keys of the relations (tenant `bulk` when served).
const KEYS: [&str; 2] = ["bulk/r1", "bulk/r2"];
/// Estimator calls per loop-timed latency sample.
const ESTIMATE_REPS: u32 = 256;
const CHAIN_REPS: u32 = 64;
/// Ingest requests and rows per request of the traced served pass.
const PROBE_OPS: usize = 40;
const PROBE_BATCH: usize = 500;

/// One generated relation.
struct Relation {
    /// The whole dirty CSV.
    csv: Vec<u8>,
    /// The CSV cut into files of `FILE_ROWS` lines.
    files: Vec<Vec<u8>>,
    /// Rows the corruption manifest says must be rejected.
    manifest: u64,
    /// Join values of the rows intake must accept, in file order.
    accepted: Vec<i64>,
}

fn relations(seed: u64) -> [Relation; 2] {
    let n = DOMAIN_HI as usize + 1;
    // Orderly (smooth) mappings: the estimate error is then a property
    // of the estimator, not of where a seed happens to put heavy hitters.
    let (f1, f2) = correlated_pair(
        n,
        SKEWS.0,
        SKEWS.1,
        ROWS,
        ROWS,
        Correlation::SmoothPositive,
        seed,
    );
    let relation = |r: usize, freqs: &[u64]| {
        let values = frequencies_to_stream(freqs, seed ^ (r as u64 + 1));
        let mut rng = gen::rng(seed, lane::BULK, r as u64);
        let mut clean = String::with_capacity(values.len() * 10);
        for v in &values {
            let payload: i64 = rng.random_range(0..=DOMAIN_HI);
            clean.push_str(&format!("{v},{payload}\n"));
        }
        let dirty = inject(
            &clean,
            DIRTY,
            seed ^ (0xD1 + r as u64),
            &CorruptionClass::ALL,
        );
        let bad: HashSet<u64> = dirty
            .corrupted
            .iter()
            .filter(|(_, c)| !c.still_valid())
            .map(|&(row, _)| row)
            .collect();
        let accepted = values
            .iter()
            .enumerate()
            .filter(|(i, _)| !bad.contains(&(*i as u64)))
            .map(|(_, &v)| v)
            .collect();
        // Every file starts with the header row, like a daily extract.
        let mut files = Vec::new();
        let mut rest = &dirty.bytes[..];
        while !rest.is_empty() {
            let mut cut = 0;
            for _ in 0..FILE_ROWS {
                match rest[cut..].iter().position(|&b| b == b'\n') {
                    Some(p) => cut += p + 1,
                    None => {
                        cut = rest.len();
                        break;
                    }
                }
                if cut == rest.len() {
                    break;
                }
            }
            files.push([HEADER, &rest[..cut]].concat());
            rest = &rest[cut..];
        }
        Relation {
            csv: [HEADER, &dirty.bytes[..]].concat(),
            files,
            manifest: bad.len() as u64,
            accepted,
        }
    };
    [relation(0, &f1), relation(1, &f2)]
}

/// The fixed queries: every pair of the two relations at every budget,
/// and the two-link chain `r1 ⋈ r2` at every budget.
fn queries() -> Vec<LayerQuery> {
    let mut out = Vec::new();
    for (l, r) in [(0, 1), (0, 0), (1, 1)] {
        for budget in BUDGETS {
            out.push(LayerQuery::Estimate {
                left: KEYS[l].into(),
                right: KEYS[r].into(),
                budget,
            });
        }
    }
    for budget in BUDGETS {
        let query = ChainJoinQuery::builder()
            .end(KEYS[0])
            .end(KEYS[1])
            .build()
            .expect("a two-end chain is valid");
        out.push(LayerQuery::Chain { query, budget });
    }
    out
}

fn answer<S: dctstream_stream::WalStorage>(
    dp: &mut DurableProcessor<S>,
    q: &LayerQuery,
) -> Result<f64, String> {
    match q {
        LayerQuery::Estimate {
            left,
            right,
            budget,
        } => dp.estimate_cosine_join(left, right, *budget),
        LayerQuery::Chain { query, budget } => dp.estimate_chain(query, *budget),
    }
    .map_err(|e| e.to_string())
}

fn label(q: &LayerQuery) -> String {
    match q {
        LayerQuery::Estimate {
            left,
            right,
            budget,
        } => format!("estimate {left} {right} {budget:?}"),
        LayerQuery::Chain { budget, .. } => format!("chain r1-r2 {budget:?}"),
    }
}

/// What the cycles measured.
#[derive(Debug, Default)]
struct Cycles {
    setup_s: Vec<f64>,
    ingest_rows_per_s: Vec<f64>,
    file_ms: Vec<f64>,
    gap_ms: Vec<f64>,
    recovery_s: Vec<f64>,
    disk_bytes_per_row: Vec<f64>,
    estimate_ms: Vec<f64>,
    chain_ms: Vec<f64>,
    probe_ms: Vec<f64>,
    accepted: u64,
    files: u64,
    rejected: u64,
    attempted: u64,
}

/// Reference answers of the fixed queries from a row-by-row build of
/// the rows intake must accept, and the exact equi-join sizes.
fn reference(
    rels: &[Relation; 2],
    qs: &[LayerQuery],
) -> Result<(Vec<f64>, Vec<Option<f64>>), String> {
    let mut syn = Vec::new();
    let mut freq = Vec::new();
    for rel in rels {
        let mut s = CosineSynopsis::new(Domain::new(0, DOMAIN_HI), Grid::Midpoint, M)
            .map_err(|e| e.to_string())?;
        let mut f = vec![0u64; DOMAIN_HI as usize + 1];
        for &v in &rel.accepted {
            s.update(v, 1.0).map_err(|e| e.to_string())?;
            f[v as usize] += 1;
        }
        syn.push(s);
        freq.push(DenseFreq(f));
    }
    let idx = |k: &str| usize::from(k == KEYS[1]);
    let mut want = Vec::new();
    let mut exact = Vec::new();
    for q in qs {
        let (l, r, budget, chain) = match q {
            LayerQuery::Estimate {
                left,
                right,
                budget,
            } => (idx(left), idx(right), *budget, false),
            LayerQuery::Chain { budget, .. } => (0, 1, *budget, true),
        };
        want.push(estimate_equi_join(&syn[l], &syn[r], budget).map_err(|e| e.to_string())?);
        exact.push((!chain).then(|| freq[l].equi_join(&freq[r])));
    }
    Ok((want, exact))
}

/// Run build-crash-recover cycles for `ctx.seconds`. The registry of
/// the last cycle is left in `keep` when given.
fn cycles(
    ctx: &Ctx,
    rels: &[Relation; 2],
    rec: &mut Recorder,
    keep: Option<&Path>,
    out: &mut Outcome,
) -> Result<Cycles, String> {
    let qs = queries();
    let (want, exact) = reference(rels, &qs)?;
    let labels: Vec<String> = qs.iter().map(label).collect();
    let manifest: u64 = rels.iter().map(|r| r.manifest).sum();
    let expected: u64 = rels.iter().map(|r| r.accepted.len() as u64).sum();
    let mut c = Cycles::default();
    let start = Instant::now();
    let mut k = 0u64;
    while k == 0 || start.elapsed() < ctx.seconds {
        let dir = ctx.work.join(format!("bulk-{k}"));
        let op = k;
        k += 1;

        // Set-up: full-scan probes, then a fresh registry with both
        // relations registered.
        let t = Instant::now();
        let setup = trace::open(rec, "bulk.setup", op, t);
        let mut schemas = Vec::new();
        for rel in rels {
            let p = Instant::now();
            let (schema, secs) = load::probe_schema(&rel.csv, true)?;
            rec.record("intake.probe", op, Some(setup), p, Instant::now());
            c.probe_ms.push(secs * 1e3);
            schemas.push(schema);
        }
        let (mut dp, _) = rec.time("stream.open_dir", op, Some(setup), || {
            load::open_loader(&dir)
        })?;
        for key in KEYS {
            let s = CosineSynopsis::new(Domain::new(0, DOMAIN_HI), Grid::Midpoint, M)
                .map_err(|e| e.to_string())?;
            dp.register(key, Summary::Cosine(s))
                .map_err(|e| e.to_string())?;
        }
        let now = Instant::now();
        trace::close(rec, setup, now);
        c.setup_s.push((now - t).as_secs_f64());

        // Build: every file is one intake call plus a durable sync.
        let mut ledger = load::ledger();
        let mut accepted = 0u64;
        let t = Instant::now();
        let mut last: Option<Instant> = None;
        for (rel, (key, schema)) in rels.iter().zip(KEYS.iter().zip(&schemas)) {
            for file in &rel.files {
                let send = Instant::now();
                if let Some(prev) = last {
                    c.gap_ms.push((send - prev).as_secs_f64() * 1e3);
                }
                let parent = trace::open(rec, "bulk.file", op, send);
                let report = rec.time("intake.run_durable", op, Some(parent), || {
                    load::intake_durable(&mut dp, key, file, schema, &[0], &mut ledger)
                })?;
                rec.time("stream.sync", op, Some(parent), || dp.sync())
                    .map_err(|e| e.to_string())?;
                let done = Instant::now();
                trace::close(rec, parent, done);
                c.file_ms.push((done - send).as_secs_f64() * 1e3);
                accepted += report.accepted;
                c.files += 1;
                c.attempted += 1;
                last = Some(done);
            }
        }
        let build = t.elapsed().as_secs_f64();
        let rejected = ledger.total();
        c.ingest_rows_per_s.push(accepted as f64 / build);
        c.accepted += accepted;
        c.rejected = rejected;
        out.check(checks::rejects_match_manifest(rejected, manifest));
        out.check(checks::count_equals("rows accepted", expected, accepted));
        let before = qs
            .iter()
            .map(|q| answer(&mut dp, q))
            .collect::<Result<Vec<_>, _>>()?;
        c.disk_bytes_per_row
            .push(load::dir_bytes(&dir) as f64 / accepted as f64);

        // Crash: abandon the registry without a checkpoint, then reopen
        // it, replaying the whole WAL.
        drop(dp);
        let t = Instant::now();
        let (mut dp, report) = rec.time("stream.recover", op, None, || load::open_loader(&dir))?;
        c.recovery_s.push(t.elapsed().as_secs_f64());
        c.attempted += 1;
        out.check(checks::count_equals(
            "records replayed",
            accepted + KEYS.len() as u64,
            report.replayed as u64,
        ));
        let after = qs
            .iter()
            .map(|q| answer(&mut dp, q))
            .collect::<Result<Vec<_>, _>>()?;
        out.check(checks::recovered_equal(&labels, &before, &after));
        out.check(checks::estimates_match(&labels, &after, &want));
        for q in &qs {
            let reps = if q.is_chain() {
                CHAIN_REPS
            } else {
                ESTIMATE_REPS
            };
            let ms = per_call_ns(reps, || {
                let _ = std::hint::black_box(answer(&mut dp, q));
            }) / 1e6;
            if q.is_chain() {
                c.chain_ms.push(ms);
            } else {
                c.estimate_ms.push(ms);
            }
            c.attempted += 1;
        }
        if k == 1 {
            let rel_err: Vec<f64> = after
                .iter()
                .zip(&exact)
                .filter_map(|(&est, &x)| x.filter(|&x| x > 0.0).map(|x| (est - x).abs() / x))
                .collect();
            out.set("rel_err_p50", median(&rel_err));
        }
        drop(dp);
        match keep {
            Some(to) if start.elapsed() >= ctx.seconds => {
                std::fs::rename(&dir, to).map_err(|e| e.to_string())?;
            }
            _ => {
                std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
            }
        }
    }
    Ok(c)
}

pub fn run(ctx: &Ctx) -> RunResult {
    let mut out = Outcome::default();
    let rels = relations(ctx.seed);
    let untraced_p50 = if ctx.traced {
        let mut off = Recorder::new(ctx.origin, 0, false);
        let mut scratch = Outcome::default();
        median(&cycles(ctx, &rels, &mut off, None, &mut scratch)?.file_ms)
    } else {
        f64::NAN
    };
    let mut rec = Recorder::new(ctx.origin, 1, ctx.traced);
    let kept = ctx.work.join("recovered");
    let (fsyncs0, bytes0) = (
        served::obs_counter("wal.fsyncs"),
        served::obs_counter("wal.append_bytes"),
    );
    let c = cycles(
        ctx,
        &rels,
        &mut rec,
        ctx.traced.then_some(kept.as_path()),
        &mut out,
    )?;
    let (fsyncs1, bytes1) = (
        served::obs_counter("wal.fsyncs"),
        served::obs_counter("wal.append_bytes"),
    );
    out.attempted += c.attempted;
    out.set("setup_s", median(&c.setup_s));
    out.set("ingest_rows_per_s", median(&c.ingest_rows_per_s));
    out.set("ingest_p50_ms", median(&c.file_ms));
    out.set("recovery_s", median(&c.recovery_s));
    out.set("disk_bytes_per_row", median(&c.disk_bytes_per_row));
    out.set("estimate_p50_ms", median(&c.estimate_ms));
    out.set("chain_p50_ms", median(&c.chain_ms));

    let mut spans = rec.into_spans();
    if ctx.traced {
        spans.extend(traced_layers(ctx, &rels, &kept, &mut out)?);
        out.set(
            "stream.fsyncs_per_request",
            (fsyncs1 - fsyncs0) / c.files as f64,
        );
        out.set(
            "stream.wal_bytes_per_row",
            (bytes1 - bytes0) / c.accepted as f64,
        );
        out.set("intake.probe_ms", median(&c.probe_ms));
        out.set("intake.rows_rejected", c.rejected as f64);
        out.set("bench.gen_late_ms", median(&c.gap_ms));
        out.set(
            "bench.trace_overhead_pct",
            (median(&c.file_ms) - untraced_p50) / untraced_p50 * 100.0,
        );
    }
    Ok((out, spans))
}

/// Ingest bodies of the traced served pass: accepted rows of the two
/// relations, alternating.
fn probe_ops(rels: &[Relation; 2]) -> Vec<(usize, String)> {
    (0..PROBE_OPS)
        .map(|i| {
            let rel = &rels[i % 2];
            let from = (i / 2 * PROBE_BATCH) % rel.accepted.len();
            let body: String = rel.accepted[from..]
                .iter()
                .chain(&rel.accepted[..from])
                .take(PROBE_BATCH)
                .map(|v| format!("{v}\n"))
                .collect();
            (i % 2, body)
        })
        .collect()
}

/// Per-layer metrics beyond the cycles' own spans: the intake layer
/// alone, the core kernels on the relations' rows, and the serve layer
/// timed by a short served pass over the recovered registry against the
/// same ops driven in process.
fn traced_layers(
    ctx: &Ctx,
    rels: &[Relation; 2],
    recovered: &Path,
    out: &mut Outcome,
) -> Result<Vec<trace::Span>, String> {
    let (mut seen, mut secs) = (0u64, 0.0);
    for rel in rels {
        let (schema, _) = load::probe_schema(&rel.csv, true)?;
        let (report, s) = load::intake_count(&rel.csv, &schema, &[0])?;
        seen += report.rows_seen;
        secs += s;
    }
    out.set("intake.ns_per_row", secs * 1e9 / seen as f64);
    let batches: Vec<(String, Vec<i64>)> = rels
        .iter()
        .zip(KEYS)
        .flat_map(|(rel, key)| {
            rel.accepted
                .chunks(FILE_ROWS)
                .map(move |c| (key.to_string(), c.to_vec()))
        })
        .collect();
    let (update, batch) = layers::core_apply(&batches)?;
    out.set("core.apply_ns_per_row", update);
    out.set("core.batch_apply_ns_per_row", batch);

    let ops = probe_ops(rels);
    let qs = queries();
    let wire = |q: &LayerQuery| match q {
        LayerQuery::Estimate {
            left,
            right,
            budget,
        } => (
            "GET",
            format!(
                "/v1/estimate?tenant=bulk&left={}&right={}{}",
                &left[5..],
                &right[5..],
                budget.map_or_else(String::new, |b| format!("&budget={b}"))
            ),
            String::new(),
        ),
        LayerQuery::Chain { budget, .. } => (
            "POST",
            format!(
                "/v1/chain?tenant=bulk{}",
                budget.map_or_else(String::new, |b| format!("&budget={b}"))
            ),
            "end r1\nend r2\n".to_string(),
        ),
    };

    // Served pass.
    let served_dir = ctx.work.join("probe-served");
    load::copy_dir(recovered, &served_dir).map_err(|e| e.to_string())?;
    let (mut d, _) = served::start(&served_dir)?;
    let counters0 = served::scrape(&mut d.client, &SERVE_COUNTERS)?;
    let mut rec = Recorder::new(ctx.origin, 5, true);
    let (mut ingest_ms, mut est_ms, mut chain_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut pushback = 0u64;
    for (i, (rel, body)) in ops.iter().enumerate() {
        let path = format!("/v1/ingest?tenant=bulk&stream=r{}", rel + 1);
        let send = Instant::now();
        let r = served::call(&mut d.client, "POST", &path, body)?;
        let done = Instant::now();
        rec.record("client.ingest", i as u64, None, send, done);
        pushback += u64::from(matches!(r.status, 429 | 503));
        served::expect_ok("probe ingest", &r)?;
        out.check(checks::acked_equals_sent(
            "probe ingest",
            PROBE_BATCH as u64,
            json_num(&r.body, "accepted").unwrap_or(0.0) as u64,
        ));
        ingest_ms.push((done - send).as_secs_f64() * 1e3);
    }
    // Twice: the second pass is answered from the estimate cache.
    for pass in 0..2 {
        for (i, q) in qs.iter().enumerate() {
            let (method, path, body) = wire(q);
            let send = Instant::now();
            let r = served::call(&mut d.client, method, &path, &body)?;
            let done = Instant::now();
            let name = if q.is_chain() {
                "client.chain"
            } else {
                "client.estimate"
            };
            rec.record(name, (pass * qs.len() + i) as u64, None, send, done);
            pushback += u64::from(matches!(r.status, 429 | 503));
            served::expect_ok("probe query", &r)?;
            let ms = (done - send).as_secs_f64() * 1e3;
            if q.is_chain() {
                chain_ms.push(ms);
            } else {
                est_ms.push(ms);
            }
        }
    }
    let counters1 = served::scrape(&mut d.client, &SERVE_COUNTERS)?;
    d.stop();
    served::set_serve_counters(out, &counters0, &counters1);
    out.set("serve.pushback", pushback as f64);
    out.set("serve.ingest_p99_ms", quantile(&ingest_ms, 0.99));
    out.set("serve.estimate_p99_ms", quantile(&est_ms, 0.99));
    out.set("serve.chain_p99_ms", quantile(&chain_ms, 0.99));

    // The same ops in process.
    let inproc_dir = ctx.work.join("probe-inproc");
    load::copy_dir(recovered, &inproc_dir).map_err(|e| e.to_string())?;
    let mut ip = InProc::open(&inproc_dir)?;
    let mut irec = Recorder::new(ctx.origin, 6, true);
    for (i, (rel, body)) in ops.iter().enumerate() {
        ip.ingest_body(KEYS[*rel], body, i as u64, &mut irec)?;
    }
    for (i, q) in qs.iter().enumerate() {
        ip.query(q, (ops.len() + i) as u64, &mut irec)?;
    }
    let ispans = irec.into_spans();
    let latency = ServedLatency {
        ingest_ms: &ingest_ms,
        estimate_ms: &est_ms,
        chain_ms: &chain_ms,
    };
    layers::set_inproc_metrics(out, &ip, &ispans, PROBE_OPS * PROBE_BATCH, &qs, &latency)?;
    let mut spans = rec.into_spans();
    spans.extend(ispans);
    Ok(spans)
}
