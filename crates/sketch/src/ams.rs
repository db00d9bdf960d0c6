//! The AMS "basic" sketch (Alon–Matias–Szegedy \[2\], extended to binary
//! joins by Alon et al. \[3\] and to multi-join aggregates by Dobra et
//! al. \[9\]).
//!
//! An *atomic sketch* of a stream is `X = Σ_v f(v)·ξ_v` for a four-wise
//! independent ±1 family `ξ`; `E[X_A · X_B] = Σ_v f_A(v) f_B(v)` when both
//! streams share `ξ`, which is exactly the equi-join size. For an inner
//! relation of a multi-join, `X = Σ_{a,b} f(a,b)·ξ¹_a·ξ²_b` with an
//! independent family per join attribute.
//!
//! The final estimate uses `s₂` groups of `s₁` atomic sketches: the mean of
//! products within each group (variance reduction), then the median across
//! groups (confidence boosting) — "averaging and selecting the group
//! median" (paper §2).
//!
//! # Space accounting
//!
//! The paper's experiments measure space in *atomic sketches per stream*.
//! [`estimate_join`] accepts a `budget` that uses only the first
//! `⌊budget/s₂⌋` atoms of each group, so one maximal sketch can be
//! evaluated at every point of a storage sweep, exactly like the cosine
//! synopsis's coefficient prefixes.

use crate::hash::{FourWiseHash, SplitMix64};
use dctstream_core::{DctError, Result, StreamSummary};

/// Layout and seed shared by every sketch participating in a query.
///
/// Two sketches can only be combined if they were built from the same
/// schema: it fixes the number of groups (`s₂`), atoms per group (`s₁`),
/// the number of distinct join attributes in the query, and the seed from
/// which each (atom, attribute) hash function is derived.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SketchSchema {
    seed: u64,
    groups: usize,
    per_group: usize,
    join_attrs: usize,
}

impl SketchSchema {
    /// Create a schema with `groups` × `per_group` atomic sketches over
    /// `join_attrs` distinct join attributes.
    pub fn new(seed: u64, groups: usize, per_group: usize, join_attrs: usize) -> Result<Self> {
        if groups == 0 || per_group == 0 {
            return Err(DctError::InvalidParameter(
                "sketch needs at least one group and one atom per group".into(),
            ));
        }
        if join_attrs == 0 {
            return Err(DctError::InvalidParameter(
                "a join query references at least one join attribute".into(),
            ));
        }
        Ok(Self {
            seed,
            groups,
            per_group,
            join_attrs,
        })
    }

    /// Convenience: split a total atomic-sketch budget into `groups` equal
    /// groups (the paper's space axis counts total atoms).
    pub fn with_total_atoms(
        seed: u64,
        total_atoms: usize,
        groups: usize,
        join_attrs: usize,
    ) -> Result<Self> {
        let per_group = total_atoms / groups.max(1);
        Self::new(seed, groups, per_group.max(1), join_attrs)
    }

    /// Base seed every (family, atom) ξ hash is derived from.
    ///
    /// Persisting the seed (plus the layout) is all the "random" state a
    /// checkpoint needs: the hash functions themselves are reconstructed
    /// deterministically on restore, so resumed updates see identical signs.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of groups (`s₂`).
    pub fn groups(&self) -> usize {
        self.groups
    }

    /// Atoms per group (`s₁`).
    pub fn per_group(&self) -> usize {
        self.per_group
    }

    /// Total atomic sketches per stream.
    pub fn total_atoms(&self) -> usize {
        self.groups * self.per_group
    }

    /// Number of distinct join attributes covered by the schema.
    pub fn join_attrs(&self) -> usize {
        self.join_attrs
    }

    /// Materialize the ξ family of join attribute `family` for all atoms.
    /// Deterministic in `(seed, family)` — all streams agree.
    fn build_family(&self, family: usize) -> Vec<FourWiseHash> {
        let mut out = Vec::with_capacity(self.total_atoms());
        for atom in 0..self.total_atoms() {
            // Derive an independent generator per (family, atom) so the
            // functions are mutually independent draws.
            let mut rng = SplitMix64::new(
                self.seed
                    ^ (family as u64).wrapping_mul(0xA24BAED4963EE407)
                    ^ (atom as u64).wrapping_mul(0x9FB21C651E98DF25),
            );
            out.push(FourWiseHash::generate(&mut rng));
        }
        out
    }
}

/// An AMS sketch of one stream, over one or more of the query's join
/// attributes.
///
/// ```
/// use dctstream_sketch::{AmsSketch, SketchSchema, estimate_join};
///
/// // A single-join query (one join attribute); both streams share the schema.
/// let schema = SketchSchema::new(1, 5, 40, 1).unwrap();
/// let mut r1 = AmsSketch::new(schema, vec![0]).unwrap();
/// let mut r2 = AmsSketch::new(schema, vec![0]).unwrap();
/// for v in 0..1000i64 {
///     r1.update(&[v % 100], 1.0).unwrap();
///     r2.update(&[v % 50], 1.0).unwrap();
/// }
/// let est = estimate_join(&[&r1, &r2], None).unwrap();
/// assert!(est > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct AmsSketch {
    schema: SketchSchema,
    /// Which schema-level join-attribute family each tuple position maps to.
    families: Vec<usize>,
    /// `hashes[pos][atom]` — ξ family for tuple position `pos`.
    hashes: Vec<Vec<FourWiseHash>>,
    /// Atomic sketch values, grouped: atom `g·s₁ + j` is slot `j` of group `g`.
    atoms: Vec<f64>,
    count: f64,
    /// Gross update mass `Σ|w|` (monotone non-decreasing; bounds every
    /// atom's magnitude even when the net count passes through zero).
    gross: f64,
}

impl AmsSketch {
    /// Create a sketch whose tuples' positions map to the given schema
    /// join-attribute families (e.g. an inner relation of a two-join uses
    /// `vec![0, 1]`; the two end relations use `vec![0]` and `vec![1]`).
    pub fn new(schema: SketchSchema, families: Vec<usize>) -> Result<Self> {
        if families.is_empty() {
            return Err(DctError::InvalidParameter(
                "a sketch must cover at least one join attribute".into(),
            ));
        }
        for &f in &families {
            if f >= schema.join_attrs {
                return Err(DctError::InvalidParameter(format!(
                    "join attribute family {f} out of range ({} families)",
                    schema.join_attrs
                )));
            }
        }
        let hashes = families.iter().map(|&f| schema.build_family(f)).collect();
        let atoms = vec![0.0; schema.total_atoms()];
        Ok(Self {
            schema,
            families,
            hashes,
            atoms,
            count: 0.0,
            gross: 0.0,
        })
    }

    /// The shared schema.
    pub fn schema(&self) -> SketchSchema {
        self.schema
    }

    /// Schema families covered by this sketch, in tuple-position order.
    pub fn families(&self) -> &[usize] {
        &self.families
    }

    /// Raw atomic sketch values.
    pub fn atoms(&self) -> &[f64] {
        &self.atoms
    }

    /// Signed count of summarized tuples.
    pub fn count(&self) -> f64 {
        self.count
    }

    /// Gross update mass `Σ|w|` over every update applied so far.
    pub fn gross(&self) -> f64 {
        self.gross
    }

    /// Overwrite the accumulated state with checkpointed values. The
    /// caller (the persist module) has already validated the length.
    pub(crate) fn load_raw(&mut self, atoms: Vec<f64>, count: f64, gross: f64) {
        debug_assert_eq!(atoms.len(), self.atoms.len());
        self.atoms = atoms;
        self.count = count;
        self.gross = gross;
    }

    /// Apply `w` copies of `tuple` (negative `w` deletes — atomic sketches
    /// are linear, so turnstile updates are exact).
    pub fn update(&mut self, tuple: &[i64], w: f64) -> Result<()> {
        self.check_update(tuple, w)?;
        for (atom_idx, atom) in self.atoms.iter_mut().enumerate() {
            let mut sign = w;
            for (pos, &v) in tuple.iter().enumerate() {
                sign *= self.hashes[pos][atom_idx].sign(v as u64);
            }
            *atom += sign;
        }
        self.count += w;
        self.gross += w.abs();
        dctstream_obs::counter_add!("sketch.updates", &[("kind", "ams")], 1);
        Ok(())
    }

    /// The per-atom ±1 product for a given tuple — used by the skimmed
    /// sketch to project extracted dense frequencies onto atom space.
    pub(crate) fn sign_product(&self, atom_idx: usize, tuple: &[i64]) -> f64 {
        let mut sign = 1.0;
        for (pos, &v) in tuple.iter().enumerate() {
            sign *= self.hashes[pos][atom_idx].sign(v as u64);
        }
        sign
    }

    /// Audit the sketch against its structural invariants.
    ///
    /// Checks that the atom vector matches the schema layout
    /// (`s₁·s₂` slots), that the count and every atomic sketch value are
    /// finite, and that every atom respects `|X| ≤ gross`: each atom is
    /// `Σ ±w` over the applied updates, so its magnitude cannot exceed
    /// the gross update mass `Σ|w|` (which also bounds `|N|`). Returns
    /// [`DctError::IntegrityViolation`] naming the first failing field.
    pub fn check_invariants(&self) -> Result<()> {
        let violation = |field: String, detail: String| DctError::IntegrityViolation {
            stream: None,
            field,
            artifact: "summary".into(),
            detail,
        };
        if self.atoms.len() != self.schema.total_atoms() {
            return Err(violation(
                "atoms.len".into(),
                format!(
                    "{} atoms stored but schema lays out {}",
                    self.atoms.len(),
                    self.schema.total_atoms()
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
        let bound = self.gross + tol;
        for (i, &x) in self.atoms.iter().enumerate() {
            if !x.is_finite() {
                return Err(violation(
                    format!("atoms[{i}]"),
                    format!("atomic sketch value {x} is not finite"),
                ));
            }
            if x.abs() > bound {
                return Err(violation(
                    format!("atoms[{i}]"),
                    format!(
                        "|X| = {} exceeds the gross-mass bound {bound} \
                         (atoms are +/-1-signed weight sums)",
                        x.abs()
                    ),
                ));
            }
        }
        Ok(())
    }

    /// Self-join (second frequency moment) estimate, optionally restricted
    /// to a total atom budget.
    pub fn self_join(&self, budget: Option<usize>) -> f64 {
        // E[X²] = F₂ for every atom; mean within groups, median across.
        estimate_join(&[self, self], budget).expect("self-join on compatible schema")
    }
}

impl StreamSummary for AmsSketch {
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
        self.atoms.len()
    }
}

/// Mean-of-group / median-of-means estimate of the (multi-)join size from
/// one sketch per relation (Alon et al. \[3\]; Dobra et al. \[9\] for > 2
/// relations).
///
/// All sketches must share a schema. Together they must cover every schema
/// join attribute the natural way (this function does not re-derive the
/// query structure; it trusts the caller's family assignment, which the
/// higher-level harness validates). `budget` restricts the estimate to the
/// first `⌊budget/s₂⌋` atoms of each group.
pub fn estimate_join(sketches: &[&AmsSketch], budget: Option<usize>) -> Result<f64> {
    let _span = dctstream_obs::span!("estimate.latency", &[("kind", "ams")]);
    let first = sketches
        .first()
        .ok_or_else(|| DctError::InvalidParameter("no sketches supplied".into()))?;
    let schema = first.schema;
    for s in sketches {
        if s.schema != schema {
            return Err(DctError::InvalidParameter(
                "all sketches in a join must share a schema".into(),
            ));
        }
    }
    let s2 = schema.groups;
    let s1 = schema.per_group;
    let q = budget.map(|b| (b / s2).clamp(1, s1)).unwrap_or(s1);
    let mut group_means = Vec::with_capacity(s2);
    for g in 0..s2 {
        let base = g * s1;
        let mut acc = 0.0;
        for j in 0..q {
            let mut prod = 1.0;
            for s in sketches {
                prod *= s.atoms[base + j];
            }
            acc += prod;
        }
        group_means.push(acc / q as f64);
    }
    Ok(median(&mut group_means))
}

/// Median of a scratch slice (averages the two middles for even lengths).
pub(crate) fn median(values: &mut [f64]) -> f64 {
    debug_assert!(!values.is_empty());
    values.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs in estimates"));
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        0.5 * (values[n / 2 - 1] + values[n / 2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn freqs_to_sketch(schema: SketchSchema, families: Vec<usize>, freqs: &[u64]) -> AmsSketch {
        let mut s = AmsSketch::new(schema, families).unwrap();
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
        assert!(SketchSchema::new(1, 0, 5, 1).is_err());
        assert!(SketchSchema::new(1, 5, 0, 1).is_err());
        assert!(SketchSchema::new(1, 5, 5, 0).is_err());
        let s = SketchSchema::with_total_atoms(1, 500, 5, 1).unwrap();
        assert_eq!(s.total_atoms(), 500);
        assert_eq!(s.per_group(), 100);
    }

    #[test]
    fn sketch_validation() {
        let schema = SketchSchema::new(1, 3, 4, 2).unwrap();
        assert!(AmsSketch::new(schema, vec![]).is_err());
        assert!(AmsSketch::new(schema, vec![2]).is_err());
        let mut s = AmsSketch::new(schema, vec![0, 1]).unwrap();
        assert!(matches!(
            s.update(&[1], 1.0),
            Err(DctError::ArityMismatch {
                expected: 2,
                got: 1
            })
        ));
    }

    #[test]
    fn non_finite_weights_rejected() {
        let schema = SketchSchema::new(1, 2, 2, 1).unwrap();
        let mut s = AmsSketch::new(schema, vec![0]).unwrap();
        assert!(s.update(&[1], f64::NAN).is_err());
        assert!(s.update(&[1], f64::INFINITY).is_err());
        assert_eq!(s.count(), 0.0);
    }

    #[test]
    fn update_is_linear_insert_delete_cancels() {
        let schema = SketchSchema::new(9, 3, 8, 1).unwrap();
        let mut s = AmsSketch::new(schema, vec![0]).unwrap();
        s.update(&[5], 1.0).unwrap();
        s.update(&[9], 3.0).unwrap();
        let snapshot = s.atoms().to_vec();
        s.update(&[123], 1.0).unwrap();
        s.update(&[123], -1.0).unwrap();
        assert_eq!(s.atoms(), &snapshot[..]);
        assert_eq!(s.count(), 4.0);
    }

    #[test]
    fn same_schema_same_signs_across_streams() {
        let schema = SketchSchema::new(4, 2, 3, 1).unwrap();
        let mut a = AmsSketch::new(schema, vec![0]).unwrap();
        let mut b = AmsSketch::new(schema, vec![0]).unwrap();
        a.update(&[77], 1.0).unwrap();
        b.update(&[77], 1.0).unwrap();
        assert_eq!(a.atoms(), b.atoms());
    }

    #[test]
    fn single_value_join_is_exact() {
        // Paper §4.3.2: sketches are exact when all tuples share one value:
        // every atom is ±N, and products are N₁N₂ exactly.
        let schema = SketchSchema::new(11, 5, 10, 1).unwrap();
        let mut a = AmsSketch::new(schema, vec![0]).unwrap();
        let mut b = AmsSketch::new(schema, vec![0]).unwrap();
        a.update(&[42], 1000.0).unwrap();
        b.update(&[42], 500.0).unwrap();
        let est = estimate_join(&[&a, &b], None).unwrap();
        assert!((est - 500_000.0).abs() < 1e-6);
    }

    #[test]
    fn join_estimate_is_statistically_sound() {
        // Average over seeds: the estimator is unbiased, so the seed-mean
        // should approach the exact join.
        let n = 200usize;
        let f1: Vec<u64> = (0..n as u64).map(|i| i % 7 + 1).collect();
        let f2: Vec<u64> = (0..n as u64).map(|i| (i * 3) % 5 + 1).collect();
        let exact = exact_join(&f1, &f2);
        let mut acc = 0.0;
        let seeds = 30;
        for seed in 0..seeds {
            let schema = SketchSchema::new(seed, 5, 60, 1).unwrap();
            let a = freqs_to_sketch(schema, vec![0], &f1);
            let b = freqs_to_sketch(schema, vec![0], &f2);
            acc += estimate_join(&[&a, &b], None).unwrap();
        }
        let mean = acc / seeds as f64;
        let rel = (mean - exact).abs() / exact;
        assert!(rel < 0.25, "mean {mean} vs exact {exact} (rel {rel})");
    }

    #[test]
    fn self_join_estimate_tracks_f2() {
        let n = 100usize;
        let f: Vec<u64> = (0..n as u64).map(|i| i % 10).collect();
        let exact: f64 = f.iter().map(|&x| (x * x) as f64).sum();
        let mut acc = 0.0;
        let seeds = 20;
        for seed in 100..100 + seeds {
            let schema = SketchSchema::new(seed, 5, 80, 1).unwrap();
            let s = freqs_to_sketch(schema, vec![0], &f);
            acc += s.self_join(None);
        }
        let mean = acc / seeds as f64;
        assert!(
            (mean - exact).abs() / exact < 0.2,
            "mean {mean} vs exact {exact}"
        );
    }

    #[test]
    fn budget_prefix_uses_fewer_atoms() {
        let schema = SketchSchema::new(3, 5, 100, 1).unwrap();
        let f: Vec<u64> = (0..50u64).map(|i| i + 1).collect();
        let a = freqs_to_sketch(schema, vec![0], &f);
        let b = freqs_to_sketch(schema, vec![0], &f);
        // Budget sweeps must all produce finite estimates; full-budget call
        // equals the unbudgeted call.
        let full = estimate_join(&[&a, &b], None).unwrap();
        let same = estimate_join(&[&a, &b], Some(500)).unwrap();
        assert_eq!(full, same);
        for budget in [5usize, 50, 250] {
            let est = estimate_join(&[&a, &b], Some(budget)).unwrap();
            assert!(est.is_finite());
        }
    }

    #[test]
    fn three_relation_chain_estimate_is_unbiased() {
        // R1(a) ⋈ R2(a, b) ⋈ R3(b) over tiny domains, averaged over seeds.
        let n = 8i64;
        let mut exact = 0.0;
        for a in 0..n {
            for b in 0..n {
                let f1 = (a % 3 + 1) as f64;
                let f2 = ((a + b) % 2 + 1) as f64;
                let f3 = (b % 4 + 1) as f64;
                exact += f1 * f2 * f3;
            }
        }
        let seeds = 40;
        let mut acc = 0.0;
        for seed in 0..seeds {
            let schema = SketchSchema::new(seed, 5, 120, 2).unwrap();
            let mut r1 = AmsSketch::new(schema, vec![0]).unwrap();
            let mut r2 = AmsSketch::new(schema, vec![0, 1]).unwrap();
            let mut r3 = AmsSketch::new(schema, vec![1]).unwrap();
            for a in 0..n {
                r1.update(&[a], (a % 3 + 1) as f64).unwrap();
                r3.update(&[a], (a % 4 + 1) as f64).unwrap();
                for b in 0..n {
                    r2.update(&[a, b], ((a + b) % 2 + 1) as f64).unwrap();
                }
            }
            acc += estimate_join(&[&r1, &r2, &r3], None).unwrap();
        }
        let mean = acc / seeds as f64;
        let rel = (mean - exact).abs() / exact;
        assert!(rel < 0.25, "mean {mean} vs exact {exact} (rel {rel})");
    }

    #[test]
    fn mismatched_schemas_rejected() {
        let s1 = SketchSchema::new(1, 3, 4, 1).unwrap();
        let s2 = SketchSchema::new(2, 3, 4, 1).unwrap();
        let a = AmsSketch::new(s1, vec![0]).unwrap();
        let b = AmsSketch::new(s2, vec![0]).unwrap();
        assert!(estimate_join(&[&a, &b], None).is_err());
        assert!(estimate_join(&[], None).is_err());
    }

    #[test]
    fn invariant_audit_flags_damaged_atoms() {
        let schema = SketchSchema::new(7, 2, 3, 1).unwrap();
        let mut s = AmsSketch::new(schema, vec![0]).unwrap();
        s.check_invariants().unwrap();
        s.update(&[5], 10.0).unwrap();
        s.update(&[9], 7.0).unwrap();
        s.check_invariants().unwrap();

        let mut bad = s.clone();
        bad.atoms[2] = f64::NAN;
        assert!(matches!(
            bad.check_invariants(),
            Err(DctError::IntegrityViolation { field, .. }) if field == "atoms[2]"
        ));

        let mut bad = s.clone();
        bad.atoms[4] = 1e9;
        assert!(matches!(
            bad.check_invariants(),
            Err(DctError::IntegrityViolation { field, .. }) if field == "atoms[4]"
        ));

        let mut bad = s;
        bad.atoms.pop();
        assert!(matches!(
            bad.check_invariants(),
            Err(DctError::IntegrityViolation { field, .. }) if field == "atoms.len"
        ));
    }

    #[test]
    fn median_helper() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut [7.0]), 7.0);
    }
}
