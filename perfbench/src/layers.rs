//! The traced run's in-process path: the identical op sequence driven
//! through each layer's public functions, one span per call, mirroring
//! what the daemon does for a request (`parse_row` →
//! `GroupDurable::with(process_weighted…)` → `capture_snapshot` when a
//! publish is due → `sync`; estimates against the published
//! `RegistrySnapshot`). Also the loop-timed per-call costs of the core
//! and snapshot estimators, which are too short to time one call at a
//! time.

use crate::gen::{IngestOp, QueryOp, Shape, DOMAIN_HI, M};
use crate::stats::median;
use crate::trace::{self, Recorder};
use dctstream_core::{
    estimate_chain_join, estimate_equi_join, ChainLink, CosineSynopsis, Domain, Grid,
};
use dctstream_serve::{parse_row, ServeOptions};
use dctstream_stream::{
    ChainJoinQuery, DirStorage, GroupDurable, QueryLink, RecoveryOptions, RegistrySnapshot, Summary,
};
use std::collections::HashMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// A query in layer terms: registry keys, not wire parameters.
#[derive(Debug, Clone)]
pub enum LayerQuery {
    /// Equi-join of two cosine streams.
    Estimate {
        /// Left stream key.
        left: String,
        /// Right stream key.
        right: String,
        /// Coefficient budget.
        budget: Option<usize>,
    },
    /// Chain join.
    Chain {
        /// The chain.
        query: ChainJoinQuery,
        /// Coefficient budget.
        budget: Option<usize>,
    },
}

impl LayerQuery {
    /// The layer form of a served query.
    pub fn from_op(q: &QueryOp) -> Result<Self, String> {
        Ok(match *q {
            QueryOp::Estimate {
                tenant,
                left,
                right,
                budget,
            } => LayerQuery::Estimate {
                left: Shape::cosine_key(tenant, left),
                right: Shape::cosine_key(tenant, right),
                budget,
            },
            QueryOp::Chain {
                tenant,
                left,
                right,
                budget,
            } => LayerQuery::Chain {
                query: ChainJoinQuery::builder()
                    .end(Shape::cosine_key(tenant, left))
                    .inner(Shape::multi_key(tenant), 0, 1)
                    .end(Shape::cosine_key(tenant, right))
                    .build()
                    .map_err(|e| e.to_string())?,
                budget,
            },
        })
    }

    /// Whether this is a chain.
    pub fn is_chain(&self) -> bool {
        matches!(self, LayerQuery::Chain { .. })
    }
}

/// A durable registry driven in process the way the daemon drives it.
pub struct InProc {
    gd: GroupDurable<DirStorage>,
    snap: Arc<RegistrySnapshot>,
    epoch: u64,
    since_publish: u64,
    publish_every: u64,
    /// `GroupDurable::open_dir` wall time, s.
    pub open_s: f64,
    /// WAL records the open replayed.
    pub replayed: usize,
}

impl InProc {
    /// Open the registry under `dir` (timed) and publish epoch 1, as the
    /// daemon does at start.
    pub fn open(dir: &Path) -> Result<Self, String> {
        let t = Instant::now();
        let (gd, report) =
            GroupDurable::open_dir(dir, RecoveryOptions::default()).map_err(|e| e.to_string())?;
        let open_s = t.elapsed().as_secs_f64();
        let snap = gd
            .with(|dp| dp.capture_snapshot(1))
            .map_err(|e| e.to_string())?;
        Ok(InProc {
            gd,
            snap: Arc::new(snap),
            epoch: 1,
            since_publish: 0,
            publish_every: ServeOptions::default().publish_every,
            open_s,
            replayed: report.replayed,
        })
    }

    /// The last published snapshot.
    pub fn snapshot(&self) -> &RegistrySnapshot {
        &self.snap
    }

    /// One ingest request's work, as spans under an `inproc.ingest`
    /// parent: parse every body line, apply and log every row under the
    /// registry lock, publish when due, then wait for the group fsync.
    pub fn ingest(&mut self, op: &IngestOp, id: u64, rec: &mut Recorder) -> Result<(), String> {
        self.ingest_body(&op.key(), &op.body(), id, rec)
    }

    /// [`Self::ingest`] of a request body for stream `key`.
    pub fn ingest_body(
        &mut self,
        key: &str,
        body: &str,
        id: u64,
        rec: &mut Recorder,
    ) -> Result<(), String> {
        let parent = trace::open(rec, "inproc.ingest", id, Instant::now());
        let rows = rec.time("serve.parse_row", id, Some(parent), || {
            body.lines()
                .map(|l| parse_row(l.trim()))
                .collect::<Result<Vec<_>, _>>()
        })?;
        rec.time("stream.process", id, Some(parent), || {
            self.gd.with(|dp| {
                rows.iter()
                    .try_for_each(|(t, w)| dp.process_weighted(key, t, *w).map(|_| ()))
            })
        })
        .map_err(|e| e.to_string())?;
        self.since_publish += rows.len() as u64;
        if self.since_publish >= self.publish_every {
            self.since_publish = 0;
            self.epoch += 1;
            let epoch = self.epoch;
            let gd = &self.gd;
            let snap = rec
                .time("stream.publish", id, Some(parent), || {
                    gd.with(|dp| dp.capture_snapshot(epoch))
                })
                .map_err(|e| e.to_string())?;
            self.snap = Arc::new(snap);
        }
        rec.time("stream.sync", id, Some(parent), || self.gd.sync())
            .map_err(|e| e.to_string())?;
        trace::close(rec, parent, Instant::now());
        Ok(())
    }

    /// One query against the published snapshot, as one span.
    pub fn query(&self, q: &LayerQuery, id: u64, rec: &mut Recorder) -> Result<f64, String> {
        let snap = &*self.snap;
        match q {
            LayerQuery::Estimate {
                left,
                right,
                budget,
            } => rec.time("stream.snapshot_estimate", id, None, || {
                snap.estimate_cosine_join(left, right, *budget)
            }),
            LayerQuery::Chain { query, budget } => {
                rec.time("stream.chain_estimate", id, None, || {
                    query.estimate_at(snap, *budget)
                })
            }
        }
        .map_err(|e| e.to_string())
    }
}

/// Served per-request latencies (send to answer, ms) that the serve
/// self times are measured against.
pub struct ServedLatency<'a> {
    /// Ingest requests.
    pub ingest_ms: &'a [f64],
    /// Estimate requests.
    pub estimate_ms: &'a [f64],
    /// Chain requests.
    pub chain_ms: &'a [f64],
}

/// Set the per-layer metrics an in-process pass determines: its spans
/// (from [`InProc`], over `rows` ingested rows), the served latencies of
/// the same ops, and the loop-timed estimator costs over `queries` on
/// the pass's final snapshot.
pub fn set_inproc_metrics(
    out: &mut crate::report::Outcome,
    ip: &InProc,
    spans: &[trace::Span],
    rows: usize,
    queries: &[LayerQuery],
    served: &ServedLatency<'_>,
) -> Result<(), String> {
    use crate::trace::durations_ns;
    let total = |name: &str| durations_ns(spans, name).iter().sum::<f64>();
    let p50 = |name: &str| median(&durations_ns(spans, name));
    out.set(
        "serve.parse_ns_per_row",
        total("serve.parse_row") / rows as f64,
    );
    out.set(
        "stream.process_ns_per_row",
        total("stream.process") / rows as f64,
    );
    out.set("stream.sync_us", p50("stream.sync") / 1e3);
    out.set("stream.publish_us", p50("stream.publish") / 1e3);
    out.set(
        "stream.publishes",
        durations_ns(spans, "stream.publish").len() as f64,
    );
    out.set("stream.open_s", ip.open_s);
    out.set("stream.replayed_records", ip.replayed as f64);
    // Serve self time: the served p50 minus the in-process p50 of the
    // same ops.
    let self_us = |served_ms: &[f64], name: &str| median(served_ms) * 1e3 - p50(name) / 1e3;
    out.set(
        "serve.ingest_self_us",
        self_us(served.ingest_ms, "inproc.ingest"),
    );
    out.set(
        "serve.estimate_self_us",
        self_us(served.estimate_ms, "stream.snapshot_estimate"),
    );
    out.set(
        "serve.chain_self_us",
        self_us(served.chain_ms, "stream.chain_estimate"),
    );
    let ql = query_layers(ip.snapshot(), queries)?;
    out.set("core.estimate_ns", ql.core_estimate_ns);
    out.set("core.chain_us", ql.core_chain_us);
    out.set("stream.snapshot_estimate_ns", ql.snapshot_estimate_ns);
    out.set("stream.chain_estimate_us", ql.chain_estimate_us);
    Ok(())
}

/// Mean nanoseconds per call of `f` over `reps` calls.
pub fn per_call_ns(reps: u32, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    for _ in 0..reps {
        f();
    }
    t.elapsed().as_nanos() as f64 / f64::from(reps)
}

/// Per-row cost of the core apply kernels on `batches` (stream key,
/// rows): `CosineSynopsis::update` row by row, and `update_batch` once
/// per batch, each into fresh synopses. Returns `(update, batch)` ns/row.
pub fn core_apply(batches: &[(String, Vec<i64>)]) -> Result<(f64, f64), String> {
    let fresh = || {
        CosineSynopsis::new(Domain::new(0, DOMAIN_HI), Grid::Midpoint, M).map_err(|e| e.to_string())
    };
    let rows: usize = batches.iter().map(|(_, r)| r.len()).sum();
    let mut per_row: HashMap<&str, CosineSynopsis> = HashMap::new();
    let mut batched: HashMap<&str, CosineSynopsis> = HashMap::new();
    for (key, _) in batches {
        per_row.insert(key, fresh()?);
        batched.insert(key, fresh()?);
    }
    let weighted: Vec<Vec<(i64, f64)>> = batches
        .iter()
        .map(|(_, r)| r.iter().map(|&v| (v, 1.0)).collect())
        .collect();
    let t = Instant::now();
    for (key, r) in batches {
        let syn = per_row.get_mut(key.as_str()).expect("inserted above");
        for &v in r {
            syn.update(black_box(v), 1.0).map_err(|e| e.to_string())?;
        }
    }
    let update = t.elapsed().as_nanos() as f64 / rows as f64;
    let t = Instant::now();
    for ((key, _), w) in batches.iter().zip(&weighted) {
        let syn = batched.get_mut(key.as_str()).expect("inserted above");
        syn.update_batch(black_box(w)).map_err(|e| e.to_string())?;
    }
    let batch = t.elapsed().as_nanos() as f64 / rows as f64;
    black_box((&per_row, &batched));
    Ok((update, batch))
}

/// Loop-timed estimator costs over `queries` on `snap`.
#[derive(Debug, Default)]
pub struct QueryLayers {
    /// Median `estimate_equi_join` ns.
    pub core_estimate_ns: f64,
    /// Median `estimate_chain_join` µs.
    pub core_chain_us: f64,
    /// Median `RegistrySnapshot::estimate_cosine_join` ns.
    pub snapshot_estimate_ns: f64,
    /// Median `ChainJoinQuery::estimate_at` µs.
    pub chain_estimate_us: f64,
}

/// Calls per timed loop of one estimator on one query.
const QUERY_REPS: u32 = 64;

/// Time each estimator on every query of `queries` against `snap`.
pub fn query_layers(
    snap: &RegistrySnapshot,
    queries: &[LayerQuery],
) -> Result<QueryLayers, String> {
    let cosine = |k: &str| {
        snap.summary(k)
            .and_then(Summary::as_cosine)
            .ok_or_else(|| format!("no cosine stream {k}"))
    };
    let (mut core_est, mut snap_est, mut core_chain, mut snap_chain) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for q in queries {
        match q {
            LayerQuery::Estimate {
                left,
                right,
                budget,
            } => {
                let (l, r) = (cosine(left)?, cosine(right)?);
                estimate_equi_join(l, r, *budget).map_err(|e| e.to_string())?;
                core_est.push(per_call_ns(QUERY_REPS, || {
                    let _ = black_box(estimate_equi_join(black_box(l), black_box(r), *budget));
                }));
                snap_est.push(per_call_ns(QUERY_REPS, || {
                    let _ = black_box(snap.estimate_cosine_join(left, right, *budget));
                }));
            }
            LayerQuery::Chain { query, budget } => {
                let mut links = Vec::new();
                for link in query.links() {
                    let s = snap
                        .summary(link.stream())
                        .ok_or_else(|| format!("no stream {}", link.stream()))?;
                    links.push(match (link, s) {
                        (QueryLink::End { .. }, Summary::Cosine(c)) => ChainLink::End(c),
                        (QueryLink::Inner { left, right, .. }, Summary::Multi(m)) => {
                            ChainLink::Inner {
                                synopsis: m,
                                left: *left,
                                right: *right,
                            }
                        }
                        _ => {
                            return Err(format!("chain link {} has the wrong kind", link.stream()))
                        }
                    });
                }
                estimate_chain_join(&links, *budget).map_err(|e| e.to_string())?;
                core_chain.push(
                    per_call_ns(QUERY_REPS, || {
                        let _ = black_box(estimate_chain_join(black_box(&links), *budget));
                    }) / 1e3,
                );
                snap_chain.push(
                    per_call_ns(QUERY_REPS, || {
                        let _ = black_box(query.estimate_at(snap, *budget));
                    }) / 1e3,
                );
            }
        }
    }
    Ok(QueryLayers {
        core_estimate_ns: median(&core_est),
        core_chain_us: median(&core_chain),
        snapshot_estimate_ns: median(&snap_est),
        chain_estimate_us: median(&snap_chain),
    })
}
