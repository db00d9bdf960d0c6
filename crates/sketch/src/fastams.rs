//! The bucketed "fast-AGMS" sketch (a.k.a. *hash sketch* / Count-Sketch
//! inner products) — the structure Ganguly et al.'s skimmed sketch \[32\]
//! is built on, and the modern streaming literature's default AGMS
//! variant.
//!
//! Where the basic sketch spends `O(atoms)` work per arriving tuple (every
//! atomic sketch is touched), the fast-AGMS sketch hashes each tuple into
//! **one bucket per row**: a row is an array of `B` counters, a tuple
//! updates counter `h(v)` by `±w`, and
//!
//! ```text
//! E[ Σ_b X_A[b]·X_B[b] ] = Σ_v f_A(v)·f_B(v)
//! ```
//!
//! for two rows built with the same bucket hash `h` and sign family `ξ`.
//! Bucketing plays the variance-reduction role of averaging `B` atomic
//! sketches, at `O(1)` update cost per row; a small odd number of
//! independent rows is medianed for confidence.
//!
//! For inner relations of multi-join chains the row becomes a bucket
//! *grid*: tuple `(a, b)` lands in `(h₁(a), h₂(b))` with sign
//! `ξ₁(a)·ξ₂(b)`, and the chain estimate is a contraction over the grid
//! (Dobra et al. \[9\]) — structurally the same contraction the cosine
//! chain estimator performs over coefficient space.

use crate::ams::median;
use crate::hash::{FourWiseHash, SplitMix64, TwoWiseHash};
use dctstream_core::{DctError, Result, StreamSummary};

/// Layout shared by every fast-AGMS sketch participating in a query: the
/// number of medianed rows, and the per-join-attribute bucket counts.
///
/// Unlike atomic-sketch budgets, bucket counts must agree *per attribute*
/// across relations (the contraction walks a shared bucket space), so the
/// schema fixes them globally. A relation's space is then
/// `rows × Π buckets(attr)` over its join attributes — inner relations
/// genuinely cost more, which is a real property of the method.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FastSchema {
    seed: u64,
    rows: usize,
    buckets: Vec<usize>,
}

impl FastSchema {
    /// Create a schema: `rows ≥ 1` (odd recommended), one bucket count per
    /// join attribute (each ≥ 1).
    pub fn new(seed: u64, rows: usize, buckets: Vec<usize>) -> Result<Self> {
        if rows == 0 {
            return Err(DctError::InvalidParameter(
                "fast-AGMS needs at least one row".into(),
            ));
        }
        if buckets.is_empty() || buckets.contains(&0) {
            return Err(DctError::InvalidParameter(
                "every join attribute needs a positive bucket count".into(),
            ));
        }
        Ok(Self {
            seed,
            rows,
            buckets,
        })
    }

    /// Schema for a single-join query where each stream gets
    /// `total_space = rows × buckets` counters — the paper's space axis.
    pub fn for_single_join(seed: u64, total_space: usize, rows: usize) -> Result<Self> {
        let buckets = (total_space / rows.max(1)).max(1);
        Self::new(seed, rows.max(1), vec![buckets])
    }

    /// Base seed the bucket and sign hashes are derived from.
    ///
    /// As with the basic sketch, the seed plus the layout fully determine
    /// every hash function, so a checkpoint only stores the schema and the
    /// counter table.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of medianed rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Bucket counts per join attribute.
    pub fn buckets(&self) -> &[usize] {
        &self.buckets
    }

    /// Number of join attributes.
    pub fn join_attrs(&self) -> usize {
        self.buckets.len()
    }

    fn bucket_hash(&self, family: usize, row: usize) -> TwoWiseHash {
        let mut rng = SplitMix64::new(
            self.seed
                ^ 0xB492B66FBE98F273u64.wrapping_mul(family as u64 + 1)
                ^ 0x9AE16A3B2F90404Fu64.wrapping_mul(row as u64 + 1),
        );
        TwoWiseHash::generate(&mut rng)
    }

    fn sign_hash(&self, family: usize, row: usize) -> FourWiseHash {
        let mut rng = SplitMix64::new(
            self.seed
                ^ 0xC3A5C85C97CB3127u64.wrapping_mul(family as u64 + 1)
                ^ 0xFF51AFD7ED558CCDu64.wrapping_mul(row as u64 + 1),
        );
        FourWiseHash::generate(&mut rng)
    }
}

/// A fast-AGMS (bucketed) sketch of one stream over one or more of the
/// query's join attributes.
///
/// ```
/// use dctstream_sketch::{estimate_fast_join, FastAmsSketch, FastSchema};
///
/// let schema = FastSchema::for_single_join(7, 500, 5).unwrap();
/// let mut r1 = FastAmsSketch::new(schema.clone(), vec![0]).unwrap();
/// let mut r2 = FastAmsSketch::new(schema, vec![0]).unwrap();
/// for v in 0..1000i64 {
///     r1.update(&[v % 100], 1.0).unwrap(); // O(rows) per tuple
///     r2.update(&[v % 50], 1.0).unwrap();
/// }
/// let est = estimate_fast_join(&[&r1, &r2], None).unwrap();
/// assert!(est > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct FastAmsSketch {
    schema: FastSchema,
    families: Vec<usize>,
    /// `bucket_h[pos][row]`, `sign_h[pos][row]`.
    bucket_h: Vec<Vec<TwoWiseHash>>,
    sign_h: Vec<Vec<FourWiseHash>>,
    /// Row-major counters: row `r` occupies `table[r·row_size ..]`.
    table: Vec<f64>,
    row_size: usize,
    count: f64,
    /// Gross update mass `Σ|w|` (monotone non-decreasing; bounds each
    /// row's L1 mass even when the net count passes through zero).
    gross: f64,
}

impl FastAmsSketch {
    /// Create a sketch whose tuple positions map to the given schema
    /// join-attribute families.
    pub fn new(schema: FastSchema, families: Vec<usize>) -> Result<Self> {
        if families.is_empty() {
            return Err(DctError::InvalidParameter(
                "a sketch must cover at least one join attribute".into(),
            ));
        }
        for &f in &families {
            if f >= schema.join_attrs() {
                return Err(DctError::InvalidParameter(format!(
                    "join attribute family {f} out of range ({} families)",
                    schema.join_attrs()
                )));
            }
        }
        let row_size: usize = families.iter().map(|&f| schema.buckets[f]).product();
        let bucket_h = families
            .iter()
            .map(|&f| (0..schema.rows).map(|r| schema.bucket_hash(f, r)).collect())
            .collect();
        let sign_h = families
            .iter()
            .map(|&f| (0..schema.rows).map(|r| schema.sign_hash(f, r)).collect())
            .collect();
        let table = vec![0.0; schema.rows * row_size];
        Ok(Self {
            schema,
            families,
            bucket_h,
            sign_h,
            table,
            row_size,
            count: 0.0,
            gross: 0.0,
        })
    }

    /// The shared schema.
    pub fn schema(&self) -> &FastSchema {
        &self.schema
    }

    /// Schema families covered, in tuple-position order.
    pub fn families(&self) -> &[usize] {
        &self.families
    }

    /// Counters per row (`Π` bucket counts over this relation's attributes).
    pub fn row_size(&self) -> usize {
        self.row_size
    }

    /// Total counters (`rows × row_size`) — this sketch's space.
    pub fn total_space(&self) -> usize {
        self.table.len()
    }

    /// Signed tuple count.
    pub fn count(&self) -> f64 {
        self.count
    }

    /// Gross update mass `Σ|w|` over every update applied so far.
    pub fn gross(&self) -> f64 {
        self.gross
    }

    /// Full row-major counter table.
    pub fn table(&self) -> &[f64] {
        &self.table
    }

    /// Overwrite the accumulated state with checkpointed values. The
    /// caller (the persist module) has already validated the length.
    pub(crate) fn load_raw(&mut self, table: Vec<f64>, count: f64, gross: f64) {
        debug_assert_eq!(table.len(), self.table.len());
        self.table = table;
        self.count = count;
        self.gross = gross;
    }

    /// One row's counters.
    pub fn row(&self, r: usize) -> &[f64] {
        &self.table[r * self.row_size..(r + 1) * self.row_size]
    }

    /// Apply `w` copies of `tuple` — `O(rows)`, independent of sketch size.
    pub fn update(&mut self, tuple: &[i64], w: f64) -> Result<()> {
        self.check_update(tuple, w)?;
        for r in 0..self.schema.rows {
            let mut idx = 0usize;
            let mut sign = w;
            for (pos, &v) in tuple.iter().enumerate() {
                let fam_buckets = self.schema.buckets[self.families[pos]];
                idx = idx * fam_buckets + self.bucket_h[pos][r].bucket(v as u64, fam_buckets);
                sign *= self.sign_h[pos][r].sign(v as u64);
            }
            self.table[r * self.row_size + idx] += sign;
        }
        self.count += w;
        self.gross += w.abs();
        dctstream_obs::counter_add!("sketch.updates", &[("kind", "fastams")], 1);
        Ok(())
    }

    /// Audit the sketch against its structural invariants.
    ///
    /// Checks that the counter table matches the schema layout
    /// (`rows × Π buckets`), that the count and every counter are finite,
    /// and that each row's L1 mass `Σ_b |X[b]|` respects the gross-mass
    /// bound: every update adds `±w` to exactly one counter per row, so
    /// no row can hold more absolute mass than the gross update mass
    /// `Σ|w|` (which also bounds `|N|`). Returns
    /// [`DctError::IntegrityViolation`] naming the first failing field.
    pub fn check_invariants(&self) -> Result<()> {
        let violation = |field: String, detail: String| DctError::IntegrityViolation {
            stream: None,
            field,
            artifact: "summary".into(),
            detail,
        };
        let expect_len = self.schema.rows * self.row_size;
        if self.table.len() != expect_len {
            return Err(violation(
                "table.len".into(),
                format!(
                    "{} counters stored but schema lays out {expect_len}",
                    self.table.len()
                ),
            ));
        }
        if !self.count.is_finite() {
            return Err(violation(
                "count".into(),
                format!("tuple count {} is not finite", self.count),
            ));
        }
        if !self.gross.is_finite() || self.gross < 0.0 {
            return Err(violation(
                "gross".into(),
                format!(
                    "gross update mass {} is not a finite non-negative value",
                    self.gross
                ),
            ));
        }
        let tol = 1e-9 * self.gross.max(1.0);
        if self.count.abs() > self.gross + tol {
            return Err(violation(
                "count".into(),
                format!(
                    "|N| = {} exceeds the gross update mass {} that produced it",
                    self.count.abs(),
                    self.gross
                ),
            ));
        }
        for (i, &x) in self.table.iter().enumerate() {
            if !x.is_finite() {
                return Err(violation(
                    format!("table[{i}]"),
                    format!("counter value {x} is not finite"),
                ));
            }
        }
        let bound = self.gross + tol;
        for r in 0..self.schema.rows {
            let mass: f64 = self.row(r).iter().map(|x| x.abs()).sum();
            if mass > bound {
                return Err(violation(
                    format!("row[{r}]"),
                    format!(
                        "row L1 mass {mass} exceeds the gross-mass bound {bound} \
                         (each update lands in one bucket per row)"
                    ),
                ));
            }
        }
        Ok(())
    }

    /// Self-join (F₂) estimate: median over rows of `Σ_b X[b]²`.
    pub fn self_join(&self) -> f64 {
        let mut per_row: Vec<f64> = (0..self.schema.rows)
            .map(|r| self.row(r).iter().map(|x| x * x).sum())
            .collect();
        median(&mut per_row)
    }

    /// Point-frequency estimate of `tuple`: median over rows of
    /// `X[bucket(tuple)]·ξ(tuple)` (the Count-Sketch point query).
    pub fn point_estimate(&self, tuple: &[i64]) -> Result<f64> {
        if tuple.len() != self.families.len() {
            return Err(DctError::ArityMismatch {
                expected: self.families.len(),
                got: tuple.len(),
            });
        }
        let mut per_row = Vec::with_capacity(self.schema.rows);
        for r in 0..self.schema.rows {
            let mut idx = 0usize;
            let mut sign = 1.0;
            for (pos, &v) in tuple.iter().enumerate() {
                let fam_buckets = self.schema.buckets[self.families[pos]];
                idx = idx * fam_buckets + self.bucket_h[pos][r].bucket(v as u64, fam_buckets);
                sign *= self.sign_h[pos][r].sign(v as u64);
            }
            per_row.push(self.table[r * self.row_size + idx] * sign);
        }
        Ok(median(&mut per_row))
    }
}

impl StreamSummary for FastAmsSketch {
    fn arity(&self) -> usize {
        self.families.len()
    }

    fn update_weighted(&mut self, tuple: &[i64], w: f64) -> Result<()> {
        self.update(tuple, w)
    }

    fn tuple_count(&self) -> f64 {
        self.count
    }

    fn space(&self) -> usize {
        self.total_space()
    }
}

/// Median-over-rows chain-join estimate from one fast-AGMS sketch per
/// relation. Relations must share a schema and form a chain (ends cover
/// one attribute, inner relations two); the estimate contracts each row's
/// bucket grids left to right, exactly like the cosine chain contraction
/// but over bucket space.
pub fn estimate_fast_join(sketches: &[&FastAmsSketch], _budget: Option<usize>) -> Result<f64> {
    let _span = dctstream_obs::span!("estimate.latency", &[("kind", "fastams")]);
    if sketches.len() < 2 {
        return Err(DctError::InvalidChain(
            "a join needs at least two relations".into(),
        ));
    }
    let schema = sketches[0].schema.clone();
    for s in sketches {
        if s.schema != schema {
            return Err(DctError::InvalidParameter(
                "all fast-AGMS sketches in a join must share a schema".into(),
            ));
        }
    }
    let first = sketches[0];
    let last = sketches[sketches.len() - 1];
    if first.families.len() != 1 || last.families.len() != 1 {
        return Err(DctError::InvalidChain(
            "chain ends must cover exactly one join attribute".into(),
        ));
    }

    let mut per_row = Vec::with_capacity(schema.rows());
    for r in 0..schema.rows() {
        // msg over the open attribute's buckets.
        let mut open_family = first.families[0];
        let mut msg: Vec<f64> = first.row(r).to_vec();
        for s in &sketches[1..sketches.len() - 1] {
            let fams = s.families();
            if fams.len() != 2 {
                return Err(DctError::InvalidChain(
                    "inner relations must cover exactly two join attributes".into(),
                ));
            }
            let (lpos, rpos) = if fams[0] == open_family {
                (0usize, 1usize)
            } else if fams[1] == open_family {
                (1, 0)
            } else {
                return Err(DctError::InvalidChain(format!(
                    "relation families {fams:?} do not contain the open attribute {open_family}"
                )));
            };
            let bl = schema.buckets[fams[lpos]];
            let br = schema.buckets[fams[rpos]];
            if msg.len() != bl {
                return Err(DctError::InvalidChain(
                    "bucket counts disagree along the chain".into(),
                ));
            }
            let grid = s.row(r);
            let mut next = vec![0.0f64; br];
            // Grid is laid out position-major: index = b(pos0)·B(fam1) + b(pos1).
            let inner = schema.buckets[fams[1]];
            for (i, chunk) in grid.chunks_exact(inner).enumerate() {
                for (j, &cell) in chunk.iter().enumerate() {
                    let (bl_idx, br_idx) = if lpos == 0 { (i, j) } else { (j, i) };
                    next[br_idx] += msg[bl_idx] * cell;
                }
            }
            msg = next;
            open_family = fams[rpos];
        }
        if last.families[0] != open_family {
            return Err(DctError::InvalidChain(format!(
                "last relation family {} does not close the chain on attribute {open_family}",
                last.families[0]
            )));
        }
        let dot: f64 = msg.iter().zip(last.row(r)).map(|(a, b)| a * b).sum();
        per_row.push(dot);
    }
    Ok(median(&mut per_row))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn freqs_to_sketch(schema: FastSchema, freqs: &[u64]) -> FastAmsSketch {
        let mut s = FastAmsSketch::new(schema, vec![0]).unwrap();
        for (v, &f) in freqs.iter().enumerate() {
            if f > 0 {
                s.update(&[v as i64], f as f64).unwrap();
            }
        }
        s
    }

    fn exact_join(f1: &[u64], f2: &[u64]) -> f64 {
        f1.iter().zip(f2).map(|(a, b)| (a * b) as f64).sum()
    }

    #[test]
    fn schema_validation() {
        assert!(FastSchema::new(1, 0, vec![4]).is_err());
        assert!(FastSchema::new(1, 3, vec![]).is_err());
        assert!(FastSchema::new(1, 3, vec![4, 0]).is_err());
        let s = FastSchema::for_single_join(1, 500, 5).unwrap();
        assert_eq!(s.rows(), 5);
        assert_eq!(s.buckets(), &[100]);
    }

    #[test]
    fn sketch_validation() {
        let schema = FastSchema::new(1, 3, vec![8, 8]).unwrap();
        assert!(FastAmsSketch::new(schema.clone(), vec![]).is_err());
        assert!(FastAmsSketch::new(schema.clone(), vec![2]).is_err());
        let mut s = FastAmsSketch::new(schema, vec![0, 1]).unwrap();
        assert_eq!(s.row_size(), 64);
        assert_eq!(s.total_space(), 192);
        assert!(matches!(
            s.update(&[1], 1.0),
            Err(DctError::ArityMismatch { .. })
        ));
        assert!(s.update(&[1, 2], f64::NAN).is_err());
    }

    #[test]
    fn update_is_linear_and_o_rows() {
        let schema = FastSchema::new(5, 3, vec![16]).unwrap();
        let mut s = FastAmsSketch::new(schema, vec![0]).unwrap();
        s.update(&[7], 2.0).unwrap();
        let snap = s.table.clone();
        s.update(&[9], 1.0).unwrap();
        s.update(&[9], -1.0).unwrap();
        assert_eq!(s.table, snap);
        // Each update touches exactly `rows` counters.
        let touched = s.table.iter().filter(|&&x| x != 0.0).count();
        assert!(touched <= 3);
    }

    #[test]
    fn single_value_join_is_exact() {
        let schema = FastSchema::for_single_join(3, 200, 5).unwrap();
        let mut a = FastAmsSketch::new(schema.clone(), vec![0]).unwrap();
        let mut b = FastAmsSketch::new(schema, vec![0]).unwrap();
        a.update(&[42], 1000.0).unwrap();
        b.update(&[42], 500.0).unwrap();
        let est = estimate_fast_join(&[&a, &b], None).unwrap();
        assert!((est - 500_000.0).abs() < 1e-6);
    }

    #[test]
    fn join_estimate_unbiased_over_seeds() {
        let n = 300usize;
        let f1: Vec<u64> = (0..n as u64).map(|i| i % 7 + 1).collect();
        let f2: Vec<u64> = (0..n as u64).map(|i| (i * 3) % 5 + 1).collect();
        let exact = exact_join(&f1, &f2);
        let seeds = 30;
        let mut acc = 0.0;
        for seed in 0..seeds {
            let schema = FastSchema::for_single_join(seed, 300, 5).unwrap();
            let a = freqs_to_sketch(schema.clone(), &f1);
            let b = freqs_to_sketch(schema, &f2);
            acc += estimate_fast_join(&[&a, &b], None).unwrap();
        }
        let mean = acc / seeds as f64;
        assert!(
            (mean - exact).abs() / exact < 0.2,
            "mean {mean} vs exact {exact}"
        );
    }

    #[test]
    fn self_join_tracks_f2() {
        let n = 200usize;
        let f: Vec<u64> = (0..n as u64).map(|i| i % 9).collect();
        let exact: f64 = f.iter().map(|&x| (x * x) as f64).sum();
        let mut acc = 0.0;
        let seeds = 20;
        for seed in 0..seeds {
            let schema = FastSchema::for_single_join(seed + 50, 400, 5).unwrap();
            acc += freqs_to_sketch(schema, &f).self_join();
        }
        let mean = acc / seeds as f64;
        assert!((mean - exact).abs() / exact < 0.2, "mean {mean} vs {exact}");
    }

    #[test]
    fn point_estimates_recover_heavy_items() {
        let n = 500usize;
        let mut f = vec![1u64; n];
        f[123] = 10_000;
        let schema = FastSchema::for_single_join(9, 1000, 5).unwrap();
        let s = freqs_to_sketch(schema, &f);
        let est = s.point_estimate(&[123]).unwrap();
        assert!((est - 10_000.0).abs() < 500.0, "heavy point estimate {est}");
        assert!(s.point_estimate(&[1, 2]).is_err());
    }

    #[test]
    fn two_join_chain_unbiased_over_seeds() {
        let n = 12i64;
        let mut exact = 0.0;
        for a in 0..n {
            for b in 0..n {
                exact += ((a % 3 + 1) * ((a + b) % 2 + 1) * (b % 4 + 1)) as f64;
            }
        }
        let seeds = 40;
        let mut acc = 0.0;
        for seed in 0..seeds {
            let schema = FastSchema::new(seed, 5, vec![10, 10]).unwrap();
            let mut r1 = FastAmsSketch::new(schema.clone(), vec![0]).unwrap();
            let mut r2 = FastAmsSketch::new(schema.clone(), vec![0, 1]).unwrap();
            let mut r3 = FastAmsSketch::new(schema, vec![1]).unwrap();
            for a in 0..n {
                r1.update(&[a], (a % 3 + 1) as f64).unwrap();
                r3.update(&[a], (a % 4 + 1) as f64).unwrap();
                for b in 0..n {
                    r2.update(&[a, b], ((a + b) % 2 + 1) as f64).unwrap();
                }
            }
            acc += estimate_fast_join(&[&r1, &r2, &r3], None).unwrap();
        }
        let mean = acc / seeds as f64;
        assert!(
            (mean - exact).abs() / exact < 0.3,
            "mean {mean} vs exact {exact}"
        );
    }

    #[test]
    fn chain_validation_errors() {
        let schema = FastSchema::new(1, 3, vec![8, 8]).unwrap();
        let e0 = FastAmsSketch::new(schema.clone(), vec![0]).unwrap();
        let e1 = FastAmsSketch::new(schema.clone(), vec![1]).unwrap();
        let mid = FastAmsSketch::new(schema.clone(), vec![0, 1]).unwrap();
        // Chain does not close.
        assert!(estimate_fast_join(&[&e0, &e0], None).is_ok());
        assert!(matches!(
            estimate_fast_join(&[&e0, &e1], None),
            Err(DctError::InvalidChain(_))
        ));
        // Mid at the end.
        assert!(estimate_fast_join(&[&e0, &mid], None).is_err());
        // Too short.
        assert!(estimate_fast_join(&[&e0], None).is_err());
        // Different schema.
        let other = FastSchema::new(2, 3, vec![8, 8]).unwrap();
        let o = FastAmsSketch::new(other, vec![0]).unwrap();
        assert!(estimate_fast_join(&[&e0, &o], None).is_err());
    }

    #[test]
    fn same_schema_same_layout_across_streams() {
        let schema = FastSchema::for_single_join(11, 60, 3).unwrap();
        let mut a = FastAmsSketch::new(schema.clone(), vec![0]).unwrap();
        let mut b = FastAmsSketch::new(schema, vec![0]).unwrap();
        a.update(&[17], 1.0).unwrap();
        b.update(&[17], 1.0).unwrap();
        assert_eq!(a.table, b.table);
    }

    #[test]
    fn invariant_audit_flags_damaged_counters() {
        let schema = FastSchema::new(2, 3, vec![8]).unwrap();
        let mut s = FastAmsSketch::new(schema, vec![0]).unwrap();
        s.check_invariants().unwrap();
        for v in 0..20i64 {
            s.update(&[v], 1.0).unwrap();
        }
        s.check_invariants().unwrap();

        let mut bad = s.clone();
        bad.table[5] = f64::NEG_INFINITY;
        assert!(matches!(
            bad.check_invariants(),
            Err(DctError::IntegrityViolation { field, .. }) if field == "table[5]"
        ));

        let mut bad = s.clone();
        bad.table[9] += 1e6;
        assert!(matches!(
            bad.check_invariants(),
            Err(DctError::IntegrityViolation { field, .. }) if field == "row[1]"
        ));

        let mut bad = s;
        bad.table.truncate(10);
        assert!(matches!(
            bad.check_invariants(),
            Err(DctError::IntegrityViolation { field, .. }) if field == "table.len"
        ));
    }

    /// At equal space, the bucketed estimator's accuracy is comparable to
    /// atomic-sketch averaging, while the update touches `rows` counters
    /// instead of all of them — the reason it became standard.
    #[test]
    fn accuracy_comparable_to_basic_at_equal_space() {
        use crate::ams::{estimate_join, AmsSketch, SketchSchema};
        let n = 500usize;
        let f1: Vec<u64> = (0..n as u64).map(|i| i % 11 + 1).collect();
        let f2: Vec<u64> = (0..n as u64).map(|i| (i * 7) % 13 + 1).collect();
        let exact = exact_join(&f1, &f2);
        let space = 250usize;
        let seeds = 15;
        let (mut fast_err, mut basic_err) = (0.0, 0.0);
        for seed in 0..seeds {
            let fs = FastSchema::for_single_join(seed, space, 5).unwrap();
            let fa = freqs_to_sketch(fs.clone(), &f1);
            let fb = freqs_to_sketch(fs, &f2);
            fast_err += (estimate_fast_join(&[&fa, &fb], None).unwrap() - exact).abs() / exact;
            let bs = SketchSchema::with_total_atoms(seed, space, 5, 1).unwrap();
            let mut ba = AmsSketch::new(bs, vec![0]).unwrap();
            let mut bb = AmsSketch::new(bs, vec![0]).unwrap();
            for (v, &f) in f1.iter().enumerate() {
                ba.update(&[v as i64], f as f64).unwrap();
            }
            for (v, &f) in f2.iter().enumerate() {
                bb.update(&[v as i64], f as f64).unwrap();
            }
            basic_err += (estimate_join(&[&ba, &bb], None).unwrap() - exact).abs() / exact;
        }
        // Within a small factor of each other on average.
        assert!(
            fast_err < basic_err * 3.0 + 0.5,
            "fast {fast_err} vs basic {basic_err}"
        );
    }
}
