//! The skimmed sketch (Ganguly, Garofalakis, Rastogi — EDBT 2004 \[32\]).
//!
//! The basic sketch's variance is dominated by the few *dense* (heavy)
//! frequencies. The skimmed sketch extracts those into an explicit map
//! `ĥ`, leaving residual frequencies `f − ĥ` in the sketch, and estimates
//!
//! ```text
//! J = (dense ⋈ dense)  +  (dense ⋈ residual cross terms)
//!      exact, from ĥ        sketch-estimated
//! ```
//!
//! # Implementation notes (documented substitution)
//!
//! Ganguly et al. recover the dense items from the sketch's own hash
//! buckets; we track candidates with a weighted Misra–Gries summary
//! ([`crate::heavy::MisraGries`]) and *project* each extracted tuple onto
//! atom space with the shared ξ families: for relation `R` with dense map
//! `ĥ`, the per-atom projection is `D_i = Σ_t ĥ(t)·Π ξ_i(t)`. Then
//!
//! ```text
//! Π_R X_i  −  Π_R D_i
//! ```
//!
//! expands to exactly the sum of Ganguly's dense×residual and
//! residual×residual estimators (all cross terms), so
//!
//! `Est = exact-dense-join + median-of-means( Π X − Π D )`
//!
//! is the same estimator, generalized to multi-join chains. It is unbiased
//! for **any** extracted values `ĥ` — accuracy of the heavy tracker affects
//! only the variance — which a test verifies by averaging over seeds. As
//! the paper notes (§5.2.1), the extracted dense storage is *extra* space
//! on top of the atomic sketches, up to `O(n)`; the experiments account it
//! the same way.

use crate::ams::{median, AmsSketch, SketchSchema};
use crate::heavy::MisraGries;
use dctstream_core::{DctError, Domain, Result, StreamSummary};
use std::collections::HashMap;

/// Per-relation skimmed sketch: AMS atoms + heavy-hitter tracking +
/// (after [`SkimmedSketch::prepare`]) the extracted dense map and its atom
/// projections.
#[derive(Debug, Clone)]
pub struct SkimmedSketch {
    ams: AmsSketch,
    heavy: MisraGries,
    domains: Vec<Domain>,
    prepared: Option<Prepared>,
}

#[derive(Debug, Clone)]
struct Prepared {
    /// Extracted dense tuples and their skimmed frequencies `ĥ`.
    dense: Vec<(Vec<i64>, f64)>,
    /// `D_i = Σ ĥ(t)·Π ξ_i(t)` per atom.
    proj: Vec<f64>,
}

impl SkimmedSketch {
    /// Create a skimmed sketch. `families` maps tuple positions to schema
    /// join-attribute families (as in [`AmsSketch::new`]); `domains` gives
    /// each position's attribute domain (needed to key the heavy-hitter
    /// tracker); `heavy_capacity` is the size of the extracted-frequency
    /// store (the paper's `O(n)` extra space).
    pub fn new(
        schema: SketchSchema,
        families: Vec<usize>,
        domains: Vec<Domain>,
        heavy_capacity: usize,
    ) -> Result<Self> {
        if domains.len() != families.len() {
            return Err(DctError::InvalidParameter(format!(
                "{} domains for {} tuple positions",
                domains.len(),
                families.len()
            )));
        }
        validate_key_space(&domains)?;
        Ok(Self {
            ams: AmsSketch::new(schema, families)?,
            heavy: MisraGries::new(heavy_capacity),
            domains,
            prepared: None,
        })
    }

    /// Reassemble from checkpointed parts. Re-runs the same key-space
    /// validation as [`SkimmedSketch::new`]; the tracker and sketch state
    /// have been validated by the persist module.
    pub(crate) fn from_parts(
        ams: AmsSketch,
        heavy: MisraGries,
        domains: Vec<Domain>,
    ) -> Result<Self> {
        if domains.len() != ams.families().len() {
            return Err(DctError::InvalidParameter(format!(
                "{} domains for {} tuple positions",
                domains.len(),
                ams.families().len()
            )));
        }
        validate_key_space(&domains)?;
        Ok(Self {
            ams,
            heavy,
            domains,
            prepared: None,
        })
    }

    /// Per-position attribute domains.
    pub fn domains(&self) -> &[Domain] {
        &self.domains
    }

    /// The heavy-hitter tracker holding candidate dense frequencies.
    pub fn heavy(&self) -> &MisraGries {
        &self.heavy
    }

    /// The underlying schema.
    pub fn schema(&self) -> SketchSchema {
        self.ams.schema()
    }

    /// The embedded AMS sketch (same atoms, no skimming) — lets a harness
    /// evaluate the *basic* sketch from the same build, as the paper's
    /// experiments do when sweeping both methods over one data pass.
    pub fn ams(&self) -> &AmsSketch {
        &self.ams
    }

    /// Atomic-sketch space (the x-axis unit of the paper's experiments).
    pub fn atom_space(&self) -> usize {
        self.ams.atoms().len()
    }

    /// Extra space used by the dense-frequency store.
    pub fn extra_space(&self) -> usize {
        self.heavy.capacity()
    }

    /// Signed tuple count.
    pub fn count(&self) -> f64 {
        self.ams.count()
    }

    fn encode(&self, tuple: &[i64]) -> Result<u64> {
        let mut key: u64 = 0;
        for (dom, &v) in self.domains.iter().zip(tuple) {
            let idx = dom.index_of(v).ok_or(DctError::ValueOutOfDomain {
                value: v,
                domain: (dom.lo(), dom.hi()),
            })? as u64;
            key = key * dom.size() as u64 + idx;
        }
        Ok(key)
    }

    fn decode(&self, mut key: u64) -> Vec<i64> {
        let mut vals = vec![0i64; self.domains.len()];
        for (slot, dom) in vals.iter_mut().zip(&self.domains).rev() {
            let n = dom.size() as u64;
            *slot = dom.value_at((key % n) as usize);
            key /= n;
        }
        vals
    }

    /// Apply `w` copies of `tuple` (negative `w` deletes; the atomic
    /// sketches handle turnstile updates exactly, the heavy tracker
    /// approximately — see [`MisraGries::update`]).
    pub fn update(&mut self, tuple: &[i64], w: f64) -> Result<()> {
        let key = self.encode(tuple)?;
        self.ams.update(tuple, w)?;
        self.heavy.update(key, w);
        self.prepared = None;
        dctstream_obs::counter_add!("sketch.updates", &[("kind", "skimmed")], 1);
        Ok(())
    }

    /// Skim: extract every tracked tuple whose (lower-bound) frequency
    /// estimate reaches `threshold`, and project the extracted map onto
    /// atom space. Must be called before estimation; idempotent until the
    /// next update.
    pub fn prepare(&mut self, threshold: f64) {
        let entries = self.heavy.heavy_entries(threshold);
        let dense: Vec<(Vec<i64>, f64)> = entries
            .into_iter()
            .map(|(k, c)| (self.decode(k), c))
            .collect();
        let atoms = self.ams.atoms().len();
        let mut proj = vec![0.0; atoms];
        for (tuple, h) in &dense {
            for (i, p) in proj.iter_mut().enumerate() {
                *p += h * self.ams.sign_product(i, tuple);
            }
        }
        self.prepared = Some(Prepared { dense, proj });
    }

    /// Skim every tracked frequency (threshold 1). Since the estimator is
    /// unbiased for any extracted values, skimming as much as the tracker
    /// holds minimizes residual variance; the tracker capacity is the
    /// knob that bounds the extra space (paper §5.2.1: "from thousands
    /// to 10⁵").
    pub fn prepare_default(&mut self) {
        self.prepare(1.0);
    }

    /// Number of extracted dense tuples (after `prepare`).
    pub fn dense_len(&self) -> usize {
        self.prepared.as_ref().map_or(0, |p| p.dense.len())
    }

    /// Audit the skimmed sketch against its structural invariants:
    /// delegates to the embedded [`AmsSketch::check_invariants`] and
    /// [`MisraGries::check_invariants`], then checks that any prepared
    /// dense projection is finite and aligned with the atom vector.
    /// Returns [`DctError::IntegrityViolation`] naming the first failing
    /// field.
    pub fn check_invariants(&self) -> Result<()> {
        self.ams.check_invariants()?;
        self.heavy.check_invariants()?;
        if let Some(p) = &self.prepared {
            let violation = |field: String, detail: String| DctError::IntegrityViolation {
                stream: None,
                field,
                artifact: "summary".into(),
                detail,
            };
            if p.proj.len() != self.ams.atoms().len() {
                return Err(violation(
                    "proj.len".into(),
                    format!(
                        "{} dense projections for {} atoms",
                        p.proj.len(),
                        self.ams.atoms().len()
                    ),
                ));
            }
            for (i, &d) in p.proj.iter().enumerate() {
                if !d.is_finite() {
                    return Err(violation(
                        format!("proj[{i}]"),
                        format!("dense projection {d} is not finite"),
                    ));
                }
            }
            for (t, h) in &p.dense {
                if !h.is_finite() {
                    return Err(violation(
                        format!("dense[{t:?}]"),
                        format!("extracted frequency {h} is not finite"),
                    ));
                }
            }
        }
        Ok(())
    }

    fn prepared(&self) -> Result<&Prepared> {
        self.prepared.as_ref().ok_or_else(|| {
            DctError::InvalidParameter(
                "SkimmedSketch::prepare must be called before estimation".into(),
            )
        })
    }
}

impl StreamSummary for SkimmedSketch {
    fn arity(&self) -> usize {
        self.domains.len()
    }

    fn update_weighted(&mut self, tuple: &[i64], w: f64) -> Result<()> {
        self.update(tuple, w)
    }

    fn check_update(&self, tuple: &[i64], w: f64) -> Result<()> {
        self.encode(tuple)?;
        self.ams.check_update(tuple, w)
    }

    fn tuple_count(&self) -> f64 {
        self.count()
    }

    fn space(&self) -> usize {
        self.atom_space()
    }
}

/// The heavy tracker flattens each tuple to a single `u64` by mixed-radix
/// encoding over the attribute domains; if the product of domain sizes
/// exceeds `u64::MAX` the encoding would silently wrap and alias distinct
/// tuples, so such domain combinations are rejected up front.
fn validate_key_space(domains: &[Domain]) -> Result<()> {
    let mut key_space: u128 = 1;
    for dom in domains {
        let n = dom.try_size().ok_or_else(|| {
            DctError::InvalidParameter(format!(
                "attribute domain [{}, {}] wider than usize::MAX",
                dom.lo(),
                dom.hi()
            ))
        })?;
        key_space = key_space.saturating_mul(n as u128);
        if key_space > u64::MAX as u128 {
            return Err(DctError::InvalidParameter(format!(
                "composite key space of {} attribute domains exceeds u64 \
                 ({key_space} keys); narrow the attribute domains",
                domains.len()
            )));
        }
    }
    Ok(())
}

/// Exact chain join over the extracted dense maps:
/// `Σ ĥ₁(a)·ĥ₂(a,b)·…·ĥ_r(z)` for relations whose `families` vectors form
/// a chain. Returns the value and performs the chain validation shared
/// with the sketch term.
fn dense_chain_join(sketches: &[&SkimmedSketch]) -> Result<f64> {
    let first = sketches[0];
    if first.ams.families().len() != 1 {
        return Err(DctError::InvalidChain(
            "the first relation of a skimmed chain must have one join attribute".into(),
        ));
    }
    // msg: open-attribute value -> accumulated dense weight.
    let mut open_family = first.ams.families()[0];
    let mut msg: HashMap<i64, f64> = HashMap::new();
    for (t, h) in &first.prepared()?.dense {
        *msg.entry(t[0]).or_insert(0.0) += h;
    }
    for s in &sketches[1..sketches.len() - 1] {
        let fams = s.ams.families();
        if fams.len() != 2 {
            return Err(DctError::InvalidChain(
                "inner relations of a skimmed chain must have two join attributes".into(),
            ));
        }
        let (lpos, rpos) = if fams[0] == open_family {
            (0, 1)
        } else if fams[1] == open_family {
            (1, 0)
        } else {
            return Err(DctError::InvalidChain(format!(
                "relation families {fams:?} do not contain the open attribute {open_family}"
            )));
        };
        let mut next: HashMap<i64, f64> = HashMap::new();
        for (t, h) in &s.prepared()?.dense {
            if let Some(&w) = msg.get(&t[lpos]) {
                *next.entry(t[rpos]).or_insert(0.0) += w * h;
            }
        }
        msg = next;
        open_family = fams[rpos];
    }
    let last = sketches[sketches.len() - 1];
    if last.ams.families() != [open_family] {
        return Err(DctError::InvalidChain(format!(
            "last relation families {:?} do not close the chain on attribute {open_family}",
            last.ams.families()
        )));
    }
    let mut acc = 0.0;
    for (t, h) in &last.prepared()?.dense {
        if let Some(&w) = msg.get(&t[0]) {
            acc += w * h;
        }
    }
    Ok(acc)
}

/// Skimmed estimate of a (multi-)join chain:
/// exact dense⋈dense plus the median-of-means residual/cross-term sketch
/// estimate. All sketches must share a schema and be
/// [`SkimmedSketch::prepare`]d; `budget` restricts the sketch term to the
/// first `⌊budget/s₂⌋` atoms per group.
pub fn estimate_skimmed_join(sketches: &[&SkimmedSketch], budget: Option<usize>) -> Result<f64> {
    let _span = dctstream_obs::span!("estimate.latency", &[("kind", "skimmed")]);
    if sketches.len() < 2 {
        return Err(DctError::InvalidChain(
            "a join needs at least two relations".into(),
        ));
    }
    let schema = sketches[0].schema();
    for s in sketches {
        if s.schema() != schema {
            return Err(DctError::InvalidParameter(
                "all skimmed sketches in a join must share a schema".into(),
            ));
        }
    }
    let dense_term = dense_chain_join(sketches)?;

    let s2 = schema.groups();
    let s1 = schema.per_group();
    let q = budget.map(|b| (b / s2).clamp(1, s1)).unwrap_or(s1);
    let mut group_means = Vec::with_capacity(s2);
    for g in 0..s2 {
        let base = g * s1;
        let mut acc = 0.0;
        for j in 0..q {
            let i = base + j;
            let mut full = 1.0;
            let mut dense = 1.0;
            for s in sketches {
                full *= s.ams.atoms()[i];
                dense *= s.prepared()?.proj[i];
            }
            acc += full - dense;
        }
        group_means.push(acc / q as f64);
    }
    Ok(dense_term + median(&mut group_means))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn invariant_audit_covers_embedded_parts() {
        let schema = SketchSchema::new(3, 2, 4, 1).unwrap();
        let d = Domain::of_size(64);
        let mut s = SkimmedSketch::new(schema, vec![0], vec![d], 8).unwrap();
        s.check_invariants().unwrap();
        for v in 0..40i64 {
            s.update(&[v % 16], 1.0).unwrap();
        }
        s.check_invariants().unwrap();
        s.prepare_default();
        s.check_invariants().unwrap();

        // Damage in the embedded AMS sketch surfaces through the audit.
        let mut bad = s.clone();
        bad.ams.load_raw(
            vec![f64::NAN; bad.ams.atoms().len()],
            bad.ams.count(),
            bad.ams.gross(),
        );
        assert!(matches!(
            bad.check_invariants(),
            Err(DctError::IntegrityViolation { field, .. }) if field == "atoms[0]"
        ));

        // Damage in the prepared projection is caught too.
        let mut bad = s;
        if let Some(p) = bad.prepared.as_mut() {
            p.proj[1] = f64::INFINITY;
        }
        assert!(matches!(
            bad.check_invariants(),
            Err(DctError::IntegrityViolation { field, .. }) if field == "proj[1]"
        ));
    }

    fn build_pair(
        seed: u64,
        n: usize,
        f1: &[u64],
        f2: &[u64],
        capacity: usize,
        atoms: (usize, usize),
    ) -> (SkimmedSketch, SkimmedSketch) {
        let schema = SketchSchema::new(seed, atoms.0, atoms.1, 1).unwrap();
        let d = Domain::of_size(n);
        let mut a = SkimmedSketch::new(schema, vec![0], vec![d], capacity).unwrap();
        let mut b = SkimmedSketch::new(schema, vec![0], vec![d], capacity).unwrap();
        for (v, &f) in f1.iter().enumerate() {
            if f > 0 {
                a.update(&[v as i64], f as f64).unwrap();
            }
        }
        for (v, &f) in f2.iter().enumerate() {
            if f > 0 {
                b.update(&[v as i64], f as f64).unwrap();
            }
        }
        a.prepare_default();
        b.prepare_default();
        (a, b)
    }

    fn exact_join(f1: &[u64], f2: &[u64]) -> f64 {
        f1.iter().zip(f2).map(|(a, b)| (a * b) as f64).sum()
    }

    #[test]
    fn key_encode_decode_roundtrip() {
        let schema = SketchSchema::new(1, 2, 2, 2).unwrap();
        let s = SkimmedSketch::new(
            schema,
            vec![0, 1],
            vec![Domain::new(-5, 10), Domain::new(100, 200)],
            8,
        )
        .unwrap();
        for t in [[-5i64, 100], [10, 200], [0, 150], [-1, 101]] {
            let k = s.encode(&t).unwrap();
            assert_eq!(s.decode(k), t.to_vec());
        }
        assert!(s.encode(&[11, 100]).is_err());
    }

    #[test]
    fn overwide_key_space_rejected_at_construction() {
        let schema = SketchSchema::new(1, 2, 2, 2).unwrap();
        // 2^32 × 2^32 = 2^64 keys — one more than u64 can index. The old
        // mixed-radix encoding silently wrapped here, aliasing tuples.
        let wide = Domain::new(0, (1i64 << 32) - 1);
        let err = SkimmedSketch::new(schema, vec![0, 1], vec![wide, wide], 8).unwrap_err();
        assert!(err.to_string().contains("composite key space"), "{err}");
        // 2^32 × 2^31 = 2^63 keys fits and is accepted (the boundary).
        let half = Domain::new(0, (1i64 << 31) - 1);
        let mut s = SkimmedSketch::new(schema, vec![0, 1], vec![wide, half], 8).unwrap();
        s.update(&[(1 << 32) - 1, (1 << 31) - 1], 2.0).unwrap();
        let k = s.encode(&[(1 << 32) - 1, (1 << 31) - 1]).unwrap();
        assert_eq!(s.decode(k), vec![(1 << 32) - 1, (1 << 31) - 1]);
        // A single over-wide domain is also rejected.
        let schema1 = SketchSchema::new(1, 2, 2, 1).unwrap();
        let full = Domain::new(i64::MIN, i64::MAX);
        assert!(SkimmedSketch::new(schema1, vec![0], vec![full], 8).is_err());
    }

    #[test]
    fn estimation_requires_prepare() {
        let schema = SketchSchema::new(1, 3, 4, 1).unwrap();
        let d = Domain::of_size(8);
        let mut a = SkimmedSketch::new(schema, vec![0], vec![d], 4).unwrap();
        let mut b = SkimmedSketch::new(schema, vec![0], vec![d], 4).unwrap();
        a.update(&[1], 1.0).unwrap();
        b.update(&[1], 1.0).unwrap();
        assert!(estimate_skimmed_join(&[&a, &b], None).is_err());
        a.prepare_default();
        b.prepare_default();
        assert!(estimate_skimmed_join(&[&a, &b], None).is_ok());
        // A further update invalidates preparation.
        a.update(&[2], 1.0).unwrap();
        assert!(estimate_skimmed_join(&[&a, &b], None).is_err());
    }

    #[test]
    fn fully_skimmed_single_value_is_exact() {
        // One value dominates completely: it is extracted, residuals are
        // zero, and the estimate is exact — sketches' best case (§4.3.2).
        let n = 64;
        let mut f = vec![0u64; n];
        f[13] = 10_000;
        let (a, b) = build_pair(5, n, &f, &f, 8, (5, 20));
        assert_eq!(a.dense_len(), 1);
        let est = estimate_skimmed_join(&[&a, &b], None).unwrap();
        let exact = exact_join(&f, &f);
        assert!((est - exact).abs() < 1e-6 * exact, "est {est} vs {exact}");
    }

    #[test]
    fn skimming_reduces_error_on_skewed_data() {
        // Zipf-ish skew: compare absolute errors of basic vs skimmed over
        // seeds; skimmed should win on average.
        let n = 400usize;
        let f: Vec<u64> = (0..n).map(|i| (20_000 / (i + 1)) as u64).collect();
        let exact = exact_join(&f, &f);
        let mut basic_err = 0.0;
        let mut skim_err = 0.0;
        let seeds = 12;
        for seed in 0..seeds {
            let (a, b) = build_pair(seed, n, &f, &f, 50, (5, 30));
            let skim = estimate_skimmed_join(&[&a, &b], None).unwrap();
            skim_err += (skim - exact).abs() / exact;
            // Basic: same atoms, no skimming (threshold above everything).
            let (mut c, mut d) = build_pair(seed, n, &f, &f, 50, (5, 30));
            c.prepare(f64::INFINITY);
            d.prepare(f64::INFINITY);
            let basic = estimate_skimmed_join(&[&c, &d], None).unwrap();
            basic_err += (basic - exact).abs() / exact;
        }
        assert!(
            skim_err < basic_err,
            "skimmed mean rel err {} !< basic {}",
            skim_err / seeds as f64,
            basic_err / seeds as f64
        );
    }

    #[test]
    fn unbiased_over_seeds() {
        let n = 120usize;
        let f1: Vec<u64> = (0..n as u64).map(|i| i % 9 + 1).collect();
        let f2: Vec<u64> = (0..n as u64).map(|i| (i * 5) % 11 + 1).collect();
        let exact = exact_join(&f1, &f2);
        let seeds = 30;
        let mut acc = 0.0;
        for seed in 0..seeds {
            let (a, b) = build_pair(seed, n, &f1, &f2, 16, (5, 40));
            acc += estimate_skimmed_join(&[&a, &b], None).unwrap();
        }
        let mean = acc / seeds as f64;
        assert!(
            (mean - exact).abs() / exact < 0.25,
            "mean {mean} vs exact {exact}"
        );
    }

    #[test]
    fn two_join_chain_estimates() {
        // R1(a) ⋈ R2(a,b) ⋈ R3(b), heavy diagonal in R2.
        let n = 16i64;
        let d = Domain::of_size(n as usize);
        let mut exact = 0.0;
        let seeds = 20;
        let mut acc = 0.0;
        for seed in 0..seeds {
            let schema = SketchSchema::new(seed, 5, 60, 2).unwrap();
            let mut r1 = SkimmedSketch::new(schema, vec![0], vec![d], 16).unwrap();
            let mut r2 = SkimmedSketch::new(schema, vec![0, 1], vec![d, d], 16).unwrap();
            let mut r3 = SkimmedSketch::new(schema, vec![1], vec![d], 16).unwrap();
            exact = 0.0;
            for a in 0..n {
                let f1 = (a % 4 + 1) as f64;
                let f3 = (a % 3 + 1) as f64;
                r1.update(&[a], f1).unwrap();
                r3.update(&[a], f3).unwrap();
            }
            for a in 0..n {
                for b in 0..n {
                    let f2 = if a == b { 50.0 } else { 1.0 };
                    r2.update(&[a, b], f2).unwrap();
                }
            }
            for a in 0..n {
                for b in 0..n {
                    let f1 = (a % 4 + 1) as f64;
                    let f2 = if a == b { 50.0 } else { 1.0 };
                    let f3 = (b % 3 + 1) as f64;
                    exact += f1 * f2 * f3;
                }
            }
            r1.prepare_default();
            r2.prepare_default();
            r3.prepare_default();
            acc += estimate_skimmed_join(&[&r1, &r2, &r3], None).unwrap();
        }
        let mean = acc / seeds as f64;
        assert!(
            (mean - exact).abs() / exact < 0.3,
            "mean {mean} vs exact {exact}"
        );
    }

    #[test]
    fn chain_validation_errors() {
        let schema = SketchSchema::new(1, 2, 3, 2).unwrap();
        let d = Domain::of_size(4);
        let mut r1 = SkimmedSketch::new(schema, vec![0], vec![d], 4).unwrap();
        let mut r2 = SkimmedSketch::new(schema, vec![1], vec![d], 4).unwrap();
        r1.update(&[0], 1.0).unwrap();
        r2.update(&[0], 1.0).unwrap();
        r1.prepare_default();
        r2.prepare_default();
        // Chain does not close: r1 sketches attribute 0, r2 attribute 1.
        assert!(matches!(
            estimate_skimmed_join(&[&r1, &r2], None),
            Err(DctError::InvalidChain(_))
        ));
        // Too few relations.
        assert!(estimate_skimmed_join(&[&r1], None).is_err());
    }

    #[test]
    fn budget_sweep_is_finite() {
        let n = 50usize;
        let f: Vec<u64> = (0..n as u64).map(|i| i + 1).collect();
        let (a, b) = build_pair(3, n, &f, &f, 10, (5, 40));
        for budget in [5usize, 25, 100, 200] {
            let est = estimate_skimmed_join(&[&a, &b], Some(budget)).unwrap();
            assert!(est.is_finite());
        }
    }
}
