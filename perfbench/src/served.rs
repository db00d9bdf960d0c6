//! The served harness shared by `durable_ingest` and `tenant_queries`:
//! the prebuilt registry, daemon restarts, the closed-loop ingest loop,
//! the crash-and-verify step that ends every round of a served run, and
//! the traced run's in-process pass.

use crate::checks;
use crate::gen::{self, lane, IngestGen, IngestOp, QueryOp, Shape, Values, DOMAIN_HI, M};
use crate::load;
use crate::trace::Recorder;
use dctstream_core::{
    estimate_chain_join, estimate_equi_join, ChainLink, CosineSynopsis, Domain, Grid,
    MultiDimSynopsis,
};
use dctstream_replay::client::{json_num, Response};
use dctstream_replay::Client;
use dctstream_serve::{ServeOptions, Server};
use dctstream_stream::{DenseFreq, DurableProcessor, Summary};
use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// How a served registry is prebuilt: checkpointed base rows, then a
/// WAL tail the daemon replays on every restart.
#[derive(Debug, Clone)]
pub struct LoadSpec {
    /// Checkpointed rows per cosine stream.
    pub base_rows: usize,
    /// Rows per cosine stream logged after the checkpoint.
    pub tail_rows: usize,
    /// Checkpointed tuples per 2-d stream.
    pub multi_rows: usize,
}

/// Every row each stream holds, for the in-process reference build:
/// the prebuilt rows, and the acked ingest ops as indices into their
/// generators (regenerated when needed, so memory does not grow with
/// throughput).
#[derive(Debug, Default, Clone)]
pub struct History {
    /// Prebuilt rows of each cosine stream.
    pub cosine: HashMap<String, Vec<i64>>,
    /// Tuples of each 2-d stream.
    pub multi: HashMap<String, Vec<(i64, i64)>>,
    /// Acked ops, grouped by generator.
    pub ops: Vec<(IngestGen, Vec<u64>)>,
}

impl History {
    /// Rows across every stream.
    pub fn rows(&self) -> u64 {
        let c: usize = self.cosine.values().map(Vec::len).sum();
        let m: usize = self.multi.values().map(Vec::len).sum();
        let o: usize = self.ops.iter().map(|(g, i)| g.batch() * i.len()).sum();
        (c + m + o) as u64
    }

    /// Record acked op `index` of `gen`.
    pub fn add(&mut self, gen: &IngestGen, index: u64) {
        match self.ops.last_mut() {
            Some((g, idx)) if g.lane() == gen.lane() => idx.push(index),
            _ => self.ops.push((gen.clone(), vec![index])),
        }
    }
}

/// A prebuilt registry and what loading it measured.
#[derive(Debug)]
pub struct Prebuilt {
    /// Rows the registry holds.
    pub history: History,
    /// Full-scan probe time of each loaded CSV, ms.
    pub probe_ms: Vec<f64>,
    /// Every loaded CSV (kept for the traced intake-only pass).
    pub csvs: Vec<Vec<u8>>,
    /// Rows the intake ledger rejected while loading.
    pub rejected: u64,
}

fn cosine_summary() -> Result<Summary, String> {
    CosineSynopsis::new(Domain::new(0, DOMAIN_HI), Grid::Midpoint, M)
        .map(Summary::Cosine)
        .map_err(|e| e.to_string())
}

fn multi_summary(m: usize) -> Result<Summary, String> {
    let d = Domain::new(0, DOMAIN_HI);
    MultiDimSynopsis::new(vec![d, d], Grid::Midpoint, m)
        .map(Summary::Multi)
        .map_err(|e| e.to_string())
}

/// Build the registry under `dir` through intake, one synced CSV per
/// stream: every stream's base rows, a checkpoint, then every cosine
/// stream's tail rows, abandoned without a checkpoint, so a restart
/// replays the tail.
pub fn prebuild(shape: &Shape, spec: &LoadSpec, seed: u64, dir: &Path) -> Result<Prebuilt, String> {
    let values = Values::default();
    let (mut dp, _) = load::open_loader(dir)?;
    for t in 0..shape.tenants {
        for c in 0..shape.cosine {
            dp.register(Shape::cosine_key(t, c), cosine_summary()?)
                .map_err(|e| e.to_string())?;
        }
        dp.register(Shape::multi_key(t), multi_summary(shape.multi_m)?)
            .map_err(|e| e.to_string())?;
    }
    let mut history = History::default();
    let mut loader = Loader::default();
    for g in 0..shape.cosine_streams() {
        let key = Shape::cosine_key(g / shape.cosine, g % shape.cosine);
        let rows = values.cosine(g, spec.base_rows, &mut gen::rng(seed, lane::BASE, g as u64));
        loader.load(&mut dp, &key, load::csv_1d(&rows), rows.len())?;
        history.cosine.insert(key, rows);
    }
    for t in 0..shape.tenants {
        let tuples = values.multi(spec.multi_rows, &mut gen::rng(seed, lane::MULTI, t as u64));
        loader.load(
            &mut dp,
            &Shape::multi_key(t),
            load::csv_2d(&tuples),
            tuples.len(),
        )?;
        history.multi.insert(Shape::multi_key(t), tuples);
    }
    dp.checkpoint().map_err(|e| e.to_string())?;
    for g in 0..shape.cosine_streams() {
        let key = Shape::cosine_key(g / shape.cosine, g % shape.cosine);
        let rows = values.cosine(g, spec.tail_rows, &mut gen::rng(seed, lane::TAIL, g as u64));
        loader.load(&mut dp, &key, load::csv_1d(&rows), rows.len())?;
        history.cosine.entry(key).or_default().extend(rows);
    }
    Ok(Prebuilt {
        history,
        probe_ms: loader.probe_ms,
        csvs: loader.csvs,
        rejected: loader.ledger.total(),
    })
}

/// Accumulates what loading several CSVs measured.
struct Loader {
    ledger: dctstream_intake::RejectLedger,
    probe_ms: Vec<f64>,
    csvs: Vec<Vec<u8>>,
}

impl Default for Loader {
    fn default() -> Self {
        Loader {
            ledger: load::ledger(),
            probe_ms: Vec::new(),
            csvs: Vec::new(),
        }
    }
}

impl Loader {
    /// Probe `csv`, then intake it into `key`, which must accept all
    /// `rows` rows.
    fn load<S: dctstream_stream::WalStorage>(
        &mut self,
        dp: &mut DurableProcessor<S>,
        key: &str,
        csv: Vec<u8>,
        rows: usize,
    ) -> Result<(), String> {
        let (schema, probe_s) = load::probe_schema(&csv, false)?;
        let targets: Vec<usize> = (0..schema.arity()).collect();
        let report = load::intake_durable(dp, key, &csv, &schema, &targets, &mut self.ledger)?;
        dp.sync().map_err(|e| e.to_string())?;
        checks::count_equals(
            &format!("rows loaded into {key}"),
            rows as u64,
            report.accepted,
        )?;
        self.probe_ms.push(probe_s * 1e3);
        self.csvs.push(csv);
        Ok(())
    }
}

/// A running daemon and one keep-alive connection to it.
pub struct Daemon {
    /// The in-process daemon.
    pub server: Server,
    /// The measuring client.
    pub client: Client,
}

impl Daemon {
    /// Simulate a crash: abandon the daemon without a checkpoint. The
    /// client goes first so no worker sits in a keep-alive read.
    pub fn kill(self) {
        drop(self.client);
        self.server.kill();
    }

    /// Graceful stop without a checkpoint (acked rows are durable).
    pub fn stop(self) {
        drop(self.client);
        self.server.shutdown(false);
    }

    /// A second connection (the open-loop writer's).
    pub fn connect(&self) -> Result<Client, String> {
        Client::connect(self.server.local_addr(), CLIENT_TIMEOUT).map_err(|e| e.to_string())
    }
}

const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

/// Start a daemon over `dir` with default options and wait for its first
/// `200`. Returns the daemon and the seconds from `Server::start` to
/// that answer: restart time, mostly WAL replay.
pub fn start(dir: &Path) -> Result<(Daemon, f64), String> {
    let t = Instant::now();
    let (server, rep) = Server::start(dir, "127.0.0.1:0", ServeOptions::default())
        .map_err(|e| format!("Server::start: {e}"))?;
    let _ = rep;
    let mut client =
        Client::connect(server.local_addr(), CLIENT_TIMEOUT).map_err(|e| e.to_string())?;
    let r = call(&mut client, "GET", "/healthz", "")?;
    let secs = t.elapsed().as_secs_f64();
    expect_ok("/healthz", &r)?;
    Ok((Daemon { server, client }, secs))
}

/// Restart the daemon over `dir` `n` times, crashing every instance but
/// the last. Returns the live daemon and every restart time.
pub fn restarts(dir: &Path, n: usize) -> Result<(Daemon, Vec<f64>), String> {
    let mut samples = Vec::with_capacity(n);
    loop {
        let (d, secs) = start(dir)?;
        samples.push(secs);
        if samples.len() >= n {
            return Ok((d, samples));
        }
        d.kill();
    }
}

/// One request/response exchange; transport errors become `Err`.
pub fn call(client: &mut Client, method: &str, path: &str, body: &str) -> Result<Response, String> {
    client
        .request(method, path, body)
        .map_err(|e| format!("{method} {path}: {e}"))
}

/// `Err` unless the answer is `200`.
pub fn expect_ok(what: &str, r: &Response) -> Result<(), String> {
    if r.status == 200 {
        Ok(())
    } else {
        Err(format!("{what}: status {} {}", r.status, r.body))
    }
}

/// Read unlabelled counters from the daemon's `/metrics`.
pub fn scrape(client: &mut Client, names: &[&str]) -> Result<Vec<f64>, String> {
    let r = call(client, "GET", "/metrics", "")?;
    expect_ok("/metrics", &r)?;
    Ok(names
        .iter()
        .map(|n| {
            r.body
                .lines()
                .find_map(|l| l.strip_prefix(n)?.strip_prefix(' ')?.parse().ok())
                .unwrap_or(0.0)
        })
        .collect())
}

/// Serve-layer counters read around a measured phase.
pub const SERVE_COUNTERS: [&str; 3] = [
    "dctstream_serve_cache_hits_total",
    "dctstream_serve_cache_misses_total",
    "dctstream_serve_requeues_total",
];

impl IngestRun {
    /// Fold a later phase's record into this one.
    pub fn absorb(&mut self, other: IngestRun) {
        self.lat_ms.extend(other.lat_ms);
        self.gap_ms.extend(other.gap_ms);
        self.sent_rows += other.sent_rows;
        self.acked_rows += other.acked_rows;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.pushback += other.pushback;
        self.wall_s += other.wall_s;
    }
}

/// When a closed loop stops.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After this much wall time.
    After(Duration),
    /// After this many ops.
    Ops(u64),
}

/// What a closed-loop ingest phase did.
#[derive(Debug, Default)]
pub struct IngestRun {
    /// Ack latency of every successful request, ms.
    pub lat_ms: Vec<f64>,
    /// Client time between an ack and the next send, ms.
    pub gap_ms: Vec<f64>,
    /// Rows in every request sent.
    pub sent_rows: u64,
    /// Rows the daemon acked as accepted.
    pub acked_rows: u64,
    /// Requests attempted.
    pub attempted: u64,
    /// Requests that failed.
    pub failed: u64,
    /// Status 429/503 answers.
    pub pushback: u64,
    /// Wall time of the phase, s.
    pub wall_s: f64,
}

/// Closed-loop ingest, like a log shipper waiting for each durable ack:
/// ops `first..` of `gen` on one keep-alive connection until `stop`.
/// Acked ops are added to `history`; one client span per request goes
/// to `rec`.
pub fn closed_ingest(
    client: &mut Client,
    gen: &IngestGen,
    first: u64,
    stop: Stop,
    rec: &mut Recorder,
    history: &mut History,
) -> IngestRun {
    let mut run = IngestRun::default();
    let start = Instant::now();
    let mut last_ack: Option<Instant> = None;
    for i in first.. {
        let done = match stop {
            Stop::After(d) => start.elapsed() >= d,
            Stop::Ops(n) => i >= first + n,
        };
        if done {
            break;
        }
        let op = gen.op(i);
        let (path, body) = (op.path(), op.body());
        let send = Instant::now();
        if let Some(prev) = last_ack {
            run.gap_ms.push((send - prev).as_secs_f64() * 1e3);
        }
        let r = client.request("POST", &path, &body);
        let ack = Instant::now();
        rec.record("client.ingest", i, None, send, ack);
        run.attempted += 1;
        run.sent_rows += op.rows.len() as u64;
        last_ack = Some(ack);
        match r {
            Ok(resp) if resp.status == 200 => {
                run.acked_rows += json_num(&resp.body, "accepted").unwrap_or(0.0) as u64;
                run.lat_ms.push((ack - send).as_secs_f64() * 1e3);
                history.add(gen, i);
            }
            Ok(resp) => {
                run.failed += 1;
                run.pushback += u64::from(matches!(resp.status, 429 | 503));
            }
            Err(_) => {
                // The connection is gone; the acked-rows check reports it.
                run.failed += 1;
                break;
            }
        }
    }
    run.wall_s = start.elapsed().as_secs_f64();
    run
}

/// The in-process reference for the streams of some tenants: synopses
/// built from the history with `update_batch` (an independent path from
/// the daemon's per-row apply), and exact frequencies.
pub struct Reference {
    cosine: HashMap<String, CosineSynopsis>,
    multi: HashMap<String, MultiDimSynopsis>,
    freq: HashMap<String, DenseFreq>,
    /// Ops of each history group already applied.
    applied: Vec<usize>,
}

impl Reference {
    /// Build the reference for tenants `0..tenants` of `shape`.
    pub fn build(history: &History, shape: &Shape, tenants: usize) -> Result<Self, String> {
        let mut out = Reference {
            cosine: HashMap::new(),
            multi: HashMap::new(),
            freq: HashMap::new(),
            applied: Vec::new(),
        };
        for t in 0..tenants.min(shape.tenants) {
            for c in 0..shape.cosine {
                let key = Shape::cosine_key(t, c);
                let syn = CosineSynopsis::new(Domain::new(0, DOMAIN_HI), Grid::Midpoint, M)
                    .map_err(|e| e.to_string())?;
                out.cosine.insert(key.clone(), syn);
                out.freq
                    .insert(key.clone(), DenseFreq(vec![0; DOMAIN_HI as usize + 1]));
                out.apply(
                    &key,
                    history.cosine.get(&key).map_or(&[][..], Vec::as_slice),
                )?;
            }
        }
        out.catch_up(history)?;
        let d = Domain::new(0, DOMAIN_HI);
        for t in 0..tenants.min(shape.tenants) {
            let key = Shape::multi_key(t);
            let mut syn = MultiDimSynopsis::new(vec![d, d], Grid::Midpoint, shape.multi_m)
                .map_err(|e| e.to_string())?;
            for &(a, b) in history.multi.get(&key).map_or(&[][..], Vec::as_slice) {
                syn.update(&[a, b], 1.0).map_err(|e| e.to_string())?;
            }
            out.multi.insert(key, syn);
        }
        Ok(out)
    }

    /// Apply the ops acked since the last call, batch by batch, so memory
    /// stays flat however many rows the run acked.
    pub fn catch_up(&mut self, history: &History) -> Result<(), String> {
        self.applied.resize(history.ops.len(), 0);
        for (g, (gen, indices)) in history.ops.iter().enumerate() {
            for &i in &indices[self.applied[g]..] {
                let op = gen.op(i);
                self.apply(&op.key(), &op.rows)?;
            }
            self.applied[g] = indices.len();
        }
        Ok(())
    }

    /// Add `rows` to stream `key`, if the reference covers it.
    fn apply(&mut self, key: &str, rows: &[i64]) -> Result<(), String> {
        let (Some(syn), Some(freq)) = (self.cosine.get_mut(key), self.freq.get_mut(key)) else {
            return Ok(());
        };
        let batch: Vec<(i64, f64)> = rows.iter().map(|&v| (v, 1.0)).collect();
        syn.update_batch(&batch).map_err(|e| e.to_string())?;
        for &v in rows {
            freq.0[v as usize] += 1;
        }
        Ok(())
    }

    fn cosine(&self, key: &str) -> Result<&CosineSynopsis, String> {
        self.cosine
            .get(key)
            .ok_or_else(|| format!("no reference for {key}"))
    }

    /// Reference answer to `q`, and the exact join size for estimates.
    pub fn answer(&self, q: &QueryOp) -> Result<(f64, Option<f64>), String> {
        match *q {
            QueryOp::Estimate {
                tenant,
                left,
                right,
                budget,
            } => {
                let (l, r) = (
                    Shape::cosine_key(tenant, left),
                    Shape::cosine_key(tenant, right),
                );
                let est = estimate_equi_join(self.cosine(&l)?, self.cosine(&r)?, budget)
                    .map_err(|e| e.to_string())?;
                let exact = self.freq[&l].equi_join(&self.freq[&r]);
                Ok((est, Some(exact)))
            }
            QueryOp::Chain {
                tenant,
                left,
                right,
                budget,
            } => {
                let (l, r) = (
                    Shape::cosine_key(tenant, left),
                    Shape::cosine_key(tenant, right),
                );
                let mm = Shape::multi_key(tenant);
                let inner = self
                    .multi
                    .get(&mm)
                    .ok_or_else(|| format!("no reference for {mm}"))?;
                let links = [
                    ChainLink::End(self.cosine(&l)?),
                    ChainLink::Inner {
                        synopsis: inner,
                        left: 0,
                        right: 1,
                    },
                    ChainLink::End(self.cosine(&r)?),
                ];
                let est = estimate_chain_join(&links, budget).map_err(|e| e.to_string())?;
                Ok((est, None))
            }
        }
    }
}

/// What the crash-and-verify step measured.
#[derive(Debug, Default)]
pub struct Verification {
    /// Restart times after the crash, s.
    pub recovery_s: Vec<f64>,
    /// Served latency of each verification estimate, ms.
    pub est_ms: Vec<f64>,
    /// Served latency of each verification chain, ms.
    pub chain_ms: Vec<f64>,
    /// `|served − exact| / exact` of each verification estimate.
    pub rel_err: Vec<f64>,
    /// Requests attempted.
    pub attempted: u64,
    /// Requests that failed.
    pub failed: u64,
}

/// Fixed-size parts of the crash-and-verify step.
#[derive(Debug, Clone)]
pub struct VerifySpec {
    /// Ingest ops written between a round's checkpoint and its crash.
    pub crash_ops: u64,
    /// Rows per crash-tail op.
    pub crash_batch: usize,
    /// Restarts after each crash (their median is `recovery_s`), each
    /// answering the verification queries.
    pub restarts: usize,
    /// Tenants `0..n` whose streams the verification queries cover.
    pub tenants: usize,
}

/// Rounds a served run's measured time is split into. Each ends with a
/// crash and verified restarts, so recovery and verification samples
/// spread over the run instead of landing in one burst that a few
/// seconds of host noise could shift.
pub const ROUNDS: u32 = 5;

/// The crash-and-verify step every round of a served run ends with:
/// checkpoint, write a fixed crash tail, crash, then restart (timed)
/// `spec.restarts` times, asking the fixed verification queries of every
/// restarted daemon and checking each answer against the in-process
/// reference built from the history.
pub struct Verifier {
    spec: VerifySpec,
    tail: IngestGen,
    next_tail: u64,
    queries: Vec<QueryOp>,
    reference: Reference,
    /// What the rounds measured.
    pub v: Verification,
}

impl Verifier {
    /// A verifier for `shape` whose reference starts from `history`.
    pub fn new(
        shape: &Shape,
        seed: u64,
        spec: &VerifySpec,
        history: &History,
    ) -> Result<Self, String> {
        Ok(Verifier {
            spec: spec.clone(),
            tail: IngestGen::new(shape, seed, lane::CRASH_TAIL, spec.crash_batch),
            next_tail: 0,
            queries: gen::verification_queries(shape, spec.tenants),
            reference: Reference::build(history, shape, spec.tenants)?,
            v: Verification::default(),
        })
    }

    /// End a round: checkpoint, crash tail, crash, verified restarts.
    /// Returns the live daemon of the last restart.
    pub fn round(
        &mut self,
        mut d: Daemon,
        dir: &Path,
        history: &mut History,
        rec: &mut Recorder,
        failures: &mut Vec<String>,
    ) -> Result<Daemon, String> {
        let r = call(&mut d.client, "POST", "/v1/checkpoint", "")?;
        expect_ok("checkpoint before the crash", &r)?;
        let run = closed_ingest(
            &mut d.client,
            &self.tail,
            self.next_tail,
            Stop::Ops(self.spec.crash_ops),
            rec,
            history,
        );
        self.next_tail += run.attempted;
        self.v.attempted += run.attempted;
        self.v.failed += run.failed;
        if let Err(e) = checks::acked_equals_sent("crash tail", run.sent_rows, run.acked_rows) {
            failures.push(e);
        }
        d.kill();
        self.reference.catch_up(history)?;
        for r in 1..=self.spec.restarts {
            let (mut d, secs) = start(dir)?;
            self.v.recovery_s.push(secs);
            self.ask(&mut d, rec, failures, false);
            if r == self.spec.restarts {
                return Ok(d);
            }
            d.kill();
        }
        Err("no restarts configured".into())
    }

    /// The last check of a run: after a final checkpoint the daemon's
    /// event count equals every row written, and every answer still
    /// matches the reference.
    pub fn finish(
        &mut self,
        d: &mut Daemon,
        history: &History,
        rec: &mut Recorder,
        failures: &mut Vec<String>,
    ) -> Result<(), String> {
        let r = call(&mut d.client, "POST", "/v1/checkpoint", "")?;
        expect_ok("final checkpoint", &r)?;
        let r = call(&mut d.client, "GET", "/healthz", "")?;
        expect_ok("/healthz", &r)?;
        let events = json_num(&r.body, "events").unwrap_or(-1.0);
        if let Err(e) = checks::count_equals("events at the end", history.rows(), events as u64) {
            failures.push(e);
        }
        self.reference.catch_up(history)?;
        self.ask(d, rec, failures, true);
        Ok(())
    }

    fn ask(
        &mut self,
        d: &mut Daemon,
        rec: &mut Recorder,
        failures: &mut Vec<String>,
        rel_err: bool,
    ) {
        verify_queries(
            d,
            &self.queries,
            &self.reference,
            &mut self.v,
            rec,
            failures,
            rel_err,
        );
    }
}

/// Ask every query of `queries`, time each answer, and check the answers
/// against `reference`; with `rel_err`, also keep each estimate's error
/// against the exact join size.
fn verify_queries(
    d: &mut Daemon,
    queries: &[QueryOp],
    reference: &Reference,
    v: &mut Verification,
    rec: &mut Recorder,
    failures: &mut Vec<String>,
    rel_err: bool,
) {
    let (mut labels, mut served, mut expected) = (Vec::new(), Vec::new(), Vec::new());
    for q in queries {
        let (method, path, body) = q.request();
        let send = Instant::now();
        let r = d.client.request(method, &path, &body);
        let done = Instant::now();
        let name = if q.is_chain() {
            "client.chain"
        } else {
            "client.estimate"
        };
        rec.record(name, v.attempted, None, send, done);
        v.attempted += 1;
        let est = match r {
            Ok(resp) if resp.status == 200 => json_num(&resp.body, "estimate"),
            _ => None,
        };
        let Some(est) = est else {
            v.failed += 1;
            continue;
        };
        let ms = (done - send).as_secs_f64() * 1e3;
        if q.is_chain() {
            v.chain_ms.push(ms);
        } else {
            v.est_ms.push(ms);
        }
        let (want, exact) = match reference.answer(q) {
            Ok(a) => a,
            Err(e) => {
                failures.push(e);
                continue;
            }
        };
        if let Some(exact) = exact.filter(|&x| rel_err && x > 0.0) {
            v.rel_err.push((est - exact).abs() / exact);
        }
        labels.push(format!("{path} {}", body.replace('\n', ";")));
        served.push(est);
        expected.push(want);
    }
    if let Err(e) = checks::estimates_match(&labels, &served, &expected) {
        failures.push(e);
    }
}

/// An op of the in-process replay, in the order the served run issued
/// it.
#[derive(Debug, Clone)]
pub enum Op {
    /// An ingest request.
    Ingest(IngestOp),
    /// A query.
    Query(QueryOp),
}

/// Ingest ops the in-process pass replays at most (every k-th op of the
/// served sequence; the self times compare the same ops).
pub const INPROC_OPS: u64 = 2000;

/// Queries whose estimator costs are loop-timed; more only repeat the
/// same few hundred distinct shapes.
const LAYER_QUERIES: usize = 512;

/// The traced run's in-process pass: open a copy of the prebuilt
/// registry (timed), drive `ops` through the layer functions, and set
/// every per-layer metric the ops determine. Returns the pass's spans.
pub fn inproc_layers(
    ctx: &crate::Ctx,
    template: &Path,
    ops: &[Op],
    pre: &Prebuilt,
    served: &crate::layers::ServedLatency<'_>,
    out: &mut crate::report::Outcome,
) -> Result<Vec<crate::trace::Span>, String> {
    use crate::layers::{self, InProc, LayerQuery};
    use crate::stats::median;

    let dir = ctx.work.join("inproc");
    load::copy_dir(template, &dir).map_err(|e| e.to_string())?;
    let mut ip = InProc::open(&dir)?;
    let mut rec = Recorder::new(ctx.origin, 3, true);
    let mut batches = Vec::new();
    let mut queries = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        match op {
            Op::Ingest(o) => {
                ip.ingest(o, i as u64, &mut rec)?;
                batches.push((o.key(), o.rows.clone()));
            }
            Op::Query(q) => {
                let lq = LayerQuery::from_op(q)?;
                ip.query(&lq, i as u64, &mut rec)?;
                queries.push(lq);
            }
        }
    }
    let spans = rec.into_spans();
    let rows: usize = batches.iter().map(|(_, r)| r.len()).sum();
    queries.truncate(LAYER_QUERIES);
    layers::set_inproc_metrics(out, &ip, &spans, rows, &queries, served)?;
    let (update, batch) = layers::core_apply(&batches)?;
    out.set("core.apply_ns_per_row", update);
    out.set("core.batch_apply_ns_per_row", batch);

    let (mut seen, mut secs) = (0u64, 0.0);
    for csv in &pre.csvs {
        let (schema, _) = load::probe_schema(csv, false)?;
        let targets: Vec<usize> = (0..schema.arity()).collect();
        let (report, s) = load::intake_count(csv, &schema, &targets)?;
        seen += report.rows_seen;
        secs += s;
    }
    out.set("intake.ns_per_row", secs * 1e9 / seen as f64);
    out.set("intake.probe_ms", median(&pre.probe_ms));
    out.set("intake.rows_rejected", pre.rejected as f64);
    Ok(spans)
}

/// Set the cache and requeue metrics from `/metrics` readings taken
/// before and after the traced session.
pub fn set_serve_counters(out: &mut crate::report::Outcome, before: &[f64], after: &[f64]) {
    let delta = |i: usize| after[i] - before[i];
    let (hits, misses) = (delta(0), delta(1));
    out.set("serve.cache_hits", hits);
    out.set("serve.cache_misses", misses);
    out.set(
        "serve.cache_hit_ratio",
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
    );
    out.set("serve.requeues", delta(2));
}

/// A process-global counter of the `obs` registry the daemon (hosted in
/// this process) reports into.
pub fn obs_counter(name: &str) -> f64 {
    dctstream_obs::global().counter(name).get() as f64
}
