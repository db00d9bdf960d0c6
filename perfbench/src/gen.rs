//! Seeded workload generation. Every input the program receives is made
//! here from `--seed`: the same seed gives the identical op sequence,
//! and op `i` of a lane is a pure function of `(seed, lane, i)`, so a run
//! can regenerate any prefix of its sequence (the traced run replays the
//! served ops in process this way).

use dctstream_datagen::ZipfSampler;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Inclusive upper end of every join attribute's domain `0..=DOMAIN_HI`.
pub const DOMAIN_HI: i64 = 4095;
/// Coefficients kept per cosine synopsis.
pub const M: usize = 256;
/// Zipf skews of a tenant's cosine streams, cycled by stream index, so
/// the streams of one tenant differ and so do their joins. Values follow
/// the orderly (smooth) mapping of rank to value, which keeps the
/// accuracy metric a property of the estimator rather than of where a
/// seed happens to put the heavy hitters.
pub const STREAM_SKEWS: [f64; 4] = [0.6, 0.8, 1.0, 1.2];
/// Coefficient budgets queries ask for (`None` = every coefficient).
pub const BUDGETS: [Option<usize>; 4] = [None, Some(32), Some(64), Some(128)];

/// Independent generator lanes.
pub mod lane {
    /// Checkpointed base rows of a stream (index = stream number).
    pub const BASE: u64 = 1;
    /// WAL-tail rows of a stream written after the checkpoint.
    pub const TAIL: u64 = 2;
    /// Rows of a tenant's 2-d stream.
    pub const MULTI: u64 = 3;
    /// Measured ingest ops.
    pub const INGEST: u64 = 10;
    /// Measured query ops.
    pub const QUERY: u64 = 11;
    /// Ingest ops written between the final checkpoint and the crash.
    pub const CRASH_TAIL: u64 = 12;
    /// Bulk relations.
    pub const BULK: u64 = 20;
}

/// SplitMix64 finalizer: decorrelates nearby `(seed, lane, index)`.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The generator for item `index` of `lane` under `seed`.
pub fn rng(seed: u64, lane: u64, index: u64) -> StdRng {
    StdRng::seed_from_u64(mix(seed ^ mix(lane ^ mix(index))))
}

/// Tenants and streams of a served registry. Tenant `t` owns cosine
/// streams `c0..c{cosine-1}` and one 2-d stream `mm` used as the inner
/// relation of chain queries.
#[derive(Debug, Clone)]
pub struct Shape {
    /// Number of tenants.
    pub tenants: usize,
    /// Cosine streams per tenant.
    pub cosine: usize,
    /// Per-dimension coefficient count of each tenant's 2-d stream.
    pub multi_m: usize,
}

impl Shape {
    /// Number of cosine streams across all tenants.
    pub fn cosine_streams(&self) -> usize {
        self.tenants * self.cosine
    }

    /// Registry key of cosine stream `c` of tenant `t`.
    pub fn cosine_key(t: usize, c: usize) -> String {
        format!("t{t}/c{c}")
    }

    /// Registry key of tenant `t`'s 2-d stream.
    pub fn multi_key(t: usize) -> String {
        format!("t{t}/mm")
    }
}

/// Zipf value samplers, one per skew in [`STREAM_SKEWS`].
#[derive(Debug, Clone)]
pub struct Values {
    samplers: Vec<ZipfSampler>,
}

impl Default for Values {
    fn default() -> Self {
        Values {
            samplers: STREAM_SKEWS
                .iter()
                .map(|&z| ZipfSampler::new(DOMAIN_HI as usize + 1, z))
                .collect(),
        }
    }
}

impl Values {
    /// `n` values of cosine stream number `stream` (its skew is
    /// `STREAM_SKEWS[stream % 4]`).
    pub fn cosine(&self, stream: usize, n: usize, rng: &mut StdRng) -> Vec<i64> {
        let s = &self.samplers[stream % self.samplers.len()];
        (0..n).map(|_| s.sample(rng) as i64).collect()
    }

    /// `n` tuples of a 2-d stream: both attributes drawn independently
    /// with the middle skew.
    pub fn multi(&self, n: usize, rng: &mut StdRng) -> Vec<(i64, i64)> {
        let s = &self.samplers[1];
        (0..n)
            .map(|_| (s.sample(rng) as i64, s.sample(rng) as i64))
            .collect()
    }
}

/// One ingest request: a batch of rows for one cosine stream.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestOp {
    /// Tenant index.
    pub tenant: usize,
    /// Cosine stream index within the tenant.
    pub stream: usize,
    /// The batch's values (weight 1 each).
    pub rows: Vec<i64>,
}

impl IngestOp {
    /// Registry key of the target stream.
    pub fn key(&self) -> String {
        Shape::cosine_key(self.tenant, self.stream)
    }

    /// Request path and query string.
    pub fn path(&self) -> String {
        format!("/v1/ingest?tenant=t{}&stream=c{}", self.tenant, self.stream)
    }

    /// Request body: one row per line in the daemon's `v[:w]` format.
    pub fn body(&self) -> String {
        let mut s = String::with_capacity(self.rows.len() * 5);
        for v in &self.rows {
            s.push_str(&v.to_string());
            s.push('\n');
        }
        s
    }
}

/// Seeded ingest ops: Zipf-popular tenants, a uniform stream within the
/// tenant, a fixed batch size.
#[derive(Debug, Clone)]
pub struct IngestGen {
    shape: Shape,
    tenants: ZipfSampler,
    values: Values,
    batch: usize,
    seed: u64,
    lane: u64,
}

impl IngestGen {
    /// Ops of `lane` under `seed`, `batch` rows each.
    pub fn new(shape: &Shape, seed: u64, lane: u64, batch: usize) -> Self {
        IngestGen {
            shape: shape.clone(),
            tenants: ZipfSampler::new(shape.tenants, 1.0),
            values: Values::default(),
            batch,
            seed,
            lane,
        }
    }

    /// Rows per op.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// The generator lane.
    pub fn lane(&self) -> u64 {
        self.lane
    }

    /// Op number `index`.
    pub fn op(&self, index: u64) -> IngestOp {
        let mut rng = rng(self.seed, self.lane, index);
        let tenant = self.tenants.sample(&mut rng);
        let stream = rng.random_range(0..self.shape.cosine);
        let global = tenant * self.shape.cosine + stream;
        IngestOp {
            tenant,
            stream,
            rows: self.values.cosine(global, self.batch, &mut rng),
        }
    }
}

/// One query request.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryOp {
    /// `GET /v1/estimate` of two cosine streams of one tenant.
    Estimate {
        /// Tenant index.
        tenant: usize,
        /// Left cosine stream.
        left: usize,
        /// Right cosine stream.
        right: usize,
        /// Coefficient budget.
        budget: Option<usize>,
    },
    /// `POST /v1/chain`: `c{left} ⋈ mm ⋈ c{right}` within one tenant.
    Chain {
        /// Tenant index.
        tenant: usize,
        /// First end relation.
        left: usize,
        /// Last end relation.
        right: usize,
        /// Coefficient budget.
        budget: Option<usize>,
    },
}

impl QueryOp {
    /// Method, path with query string, and body.
    pub fn request(&self) -> (&'static str, String, String) {
        let budget = |b: &Option<usize>| b.map_or_else(String::new, |b| format!("&budget={b}"));
        match self {
            QueryOp::Estimate {
                tenant,
                left,
                right,
                budget: b,
            } => (
                "GET",
                format!(
                    "/v1/estimate?tenant=t{tenant}&left=c{left}&right=c{right}{}",
                    budget(b)
                ),
                String::new(),
            ),
            QueryOp::Chain {
                tenant,
                left,
                right,
                budget: b,
            } => (
                "POST",
                format!("/v1/chain?tenant=t{tenant}{}", budget(b)),
                format!("end c{left}\ninner mm 0 1\nend c{right}\n"),
            ),
        }
    }

    /// Whether this is a chain query.
    pub fn is_chain(&self) -> bool {
        matches!(self, QueryOp::Chain { .. })
    }
}

/// Seeded query ops: Zipf-popular tenants, Zipf-popular stream pairs,
/// budgets drawn from [`BUDGETS`], a fixed share of chains.
#[derive(Debug, Clone)]
pub struct QueryGen {
    tenants: ZipfSampler,
    pairs: Vec<(usize, usize)>,
    pair_pop: ZipfSampler,
    chain_share: f64,
    seed: u64,
}

impl QueryGen {
    /// Queries over `shape` under `seed`; `chain_share` of them chains.
    pub fn new(shape: &Shape, seed: u64, chain_share: f64) -> Self {
        let mut pairs = Vec::new();
        for l in 0..shape.cosine {
            for r in l..shape.cosine {
                pairs.push((l, r));
            }
        }
        QueryGen {
            tenants: ZipfSampler::new(shape.tenants, 1.1),
            pair_pop: ZipfSampler::new(pairs.len(), 1.0),
            pairs,
            chain_share,
            seed,
        }
    }

    /// Op number `index`.
    pub fn op(&self, index: u64) -> QueryOp {
        let mut rng = rng(self.seed, lane::QUERY, index);
        let tenant = self.tenants.sample(&mut rng);
        let (left, right) = self.pairs[self.pair_pop.sample(&mut rng)];
        let budget = BUDGETS[rng.random_range(0..BUDGETS.len())];
        if rng.random::<f64>() < self.chain_share {
            QueryOp::Chain {
                tenant,
                left,
                right,
                budget,
            }
        } else {
            QueryOp::Estimate {
                tenant,
                left,
                right,
                budget,
            }
        }
    }
}

/// The fixed query set the verification step asks about tenants
/// `0..tenants`: every estimate pair `l ≤ r` at every budget, and every
/// chain `c_l ⋈ mm ⋈ c_r` with `l ≠ r` at two budgets.
pub fn verification_queries(shape: &Shape, tenants: usize) -> Vec<QueryOp> {
    let mut out = Vec::new();
    for tenant in 0..tenants.min(shape.tenants) {
        for left in 0..shape.cosine {
            for right in left..shape.cosine {
                for budget in BUDGETS {
                    out.push(QueryOp::Estimate {
                        tenant,
                        left,
                        right,
                        budget,
                    });
                }
            }
        }
        for left in 0..shape.cosine {
            for right in 0..shape.cosine {
                if left != right {
                    for budget in [None, Some(32)] {
                        out.push(QueryOp::Chain {
                            tenant,
                            left,
                            right,
                            budget,
                        });
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape() -> Shape {
        Shape {
            tenants: 5,
            cosine: 3,
            multi_m: 8,
        }
    }

    #[test]
    fn same_seed_gives_the_identical_op_sequence() {
        let a = IngestGen::new(&shape(), 7, lane::INGEST, 20);
        let b = IngestGen::new(&shape(), 7, lane::INGEST, 20);
        let qa = QueryGen::new(&shape(), 7, 0.2);
        let qb = QueryGen::new(&shape(), 7, 0.2);
        for i in 0..200 {
            assert_eq!(a.op(i), b.op(i));
            assert_eq!(qa.op(i), qb.op(i));
        }
        let v = Values::default();
        assert_eq!(
            v.cosine(2, 50, &mut rng(7, lane::BASE, 2)),
            v.cosine(2, 50, &mut rng(7, lane::BASE, 2))
        );
    }

    #[test]
    fn another_seed_gives_another_op_sequence() {
        let a = IngestGen::new(&shape(), 7, lane::INGEST, 20);
        let b = IngestGen::new(&shape(), 8, lane::INGEST, 20);
        let qa = QueryGen::new(&shape(), 7, 0.2);
        let qb = QueryGen::new(&shape(), 8, 0.2);
        assert!((0..50).any(|i| a.op(i) != b.op(i)));
        assert!((0..50).any(|i| qa.op(i) != qb.op(i)));
        // Lanes are independent streams under one seed, too.
        let c = IngestGen::new(&shape(), 7, lane::CRASH_TAIL, 20);
        assert!((0..50).any(|i| a.op(i) != c.op(i)));
    }

    #[test]
    fn ops_stay_inside_the_shape_and_domain() {
        let g = IngestGen::new(&shape(), 3, lane::INGEST, 100);
        let q = QueryGen::new(&shape(), 3, 0.5);
        for i in 0..100 {
            let op = g.op(i);
            assert!(op.tenant < 5 && op.stream < 3 && op.rows.len() == 100);
            assert!(op.rows.iter().all(|v| (0..=DOMAIN_HI).contains(v)));
            match q.op(i) {
                QueryOp::Estimate {
                    tenant,
                    left,
                    right,
                    ..
                }
                | QueryOp::Chain {
                    tenant,
                    left,
                    right,
                    ..
                } => {
                    assert!(tenant < 5 && left <= right && right < 3);
                }
            }
        }
        assert!((0..100).any(|i| q.op(i).is_chain()));
        assert!(g.op(0).body().lines().count() == 100);
    }
}
