//! Common traits implemented by every stream summary in the workspace —
//! the cosine synopses here, the sketches in `dctstream-sketch`, and the
//! sampling/histogram baselines in `dctstream-baselines` — so that the
//! stream layer and the experiment harness can drive them uniformly.

use crate::error::Result;
use crate::multidim::MultiDimSynopsis;
use crate::synopsis::{check_weight, CosineSynopsis};

/// A summary structure maintained online over a (turnstile) tuple stream.
///
/// Implementations accept tuples of a fixed arity; 1-attribute summaries
/// take single-element slices.
pub trait StreamSummary {
    /// Arity of the tuples this summary accepts.
    fn arity(&self) -> usize;

    /// Process the arrival of `w` copies of `tuple` (negative `w` deletes).
    ///
    /// This single entry point covers per-tuple updates (`w = ±1`) and the
    /// batch scheme of §3.2 (one call per distinct buffered value).
    fn update_weighted(&mut self, tuple: &[i64], w: f64) -> Result<()>;

    /// Check an update without applying it: `Ok` exactly when
    /// [`Self::update_weighted`] would accept `(tuple, w)`, otherwise the
    /// error that call would return. Batch ingest validates rows one by
    /// one with this, then applies the valid ones in a single
    /// [`Self::update_weighted_batch`].
    ///
    /// The default is the check every sketch performs (a finite weight,
    /// then the arity); summaries that also bound the values override it.
    fn check_update(&self, tuple: &[i64], w: f64) -> Result<()> {
        check_weight(w)?;
        if tuple.len() != self.arity() {
            return Err(crate::error::DctError::ArityMismatch {
                expected: self.arity(),
                got: tuple.len(),
            });
        }
        Ok(())
    }

    /// Signed number of tuples currently summarized.
    fn tuple_count(&self) -> f64;

    /// Storage used, in the space unit of the paper's experiments
    /// (coefficients for DCT synopses, atomic sketches for sketches,
    /// sample slots / buckets for the baselines).
    fn space(&self) -> usize;

    /// Process a batch of weighted arrivals at once.
    ///
    /// Semantically `for (tuple, w) in batch { self.update_weighted(..)? }`
    /// (the default does exactly that), but implementations with a blocked
    /// update kernel override it to amortize per-call overhead — the
    /// cosine synopsis processes the batch 8 tuples per coefficient-array
    /// pass. Overrides may validate the whole batch up front and apply it
    /// atomically; the default stops at the first failing tuple.
    fn update_weighted_batch(&mut self, batch: &[(&[i64], f64)]) -> Result<()> {
        for &(tuple, w) in batch {
            self.update_weighted(tuple, w)?;
        }
        Ok(())
    }

    /// Process a single arrival.
    fn insert_tuple(&mut self, tuple: &[i64]) -> Result<()> {
        self.update_weighted(tuple, 1.0)
    }

    /// Process a single deletion.
    fn delete_tuple(&mut self, tuple: &[i64]) -> Result<()> {
        self.update_weighted(tuple, -1.0)
    }
}

/// The value of a 1-tuple, or the arity error a 1-attribute summary
/// gives any other tuple.
fn sole_value(tuple: &[i64]) -> Result<i64> {
    match tuple {
        [v] => Ok(*v),
        _ => Err(crate::error::DctError::ArityMismatch {
            expected: 1,
            got: tuple.len(),
        }),
    }
}

impl StreamSummary for CosineSynopsis {
    fn arity(&self) -> usize {
        1
    }

    fn update_weighted(&mut self, tuple: &[i64], w: f64) -> Result<()> {
        self.update(sole_value(tuple)?, w)
    }

    fn check_update(&self, tuple: &[i64], w: f64) -> Result<()> {
        self.checked(sole_value(tuple)?, w).map(|_| ())
    }

    /// Routed through the blocked Chebyshev kernel
    /// ([`crate::basis::accumulate_phi_block`]); validates the whole batch
    /// before applying any of it.
    fn update_weighted_batch(&mut self, batch: &[(&[i64], f64)]) -> Result<()> {
        let mut pairs = Vec::with_capacity(batch.len());
        for &(tuple, w) in batch {
            pairs.push((sole_value(tuple)?, w));
        }
        self.update_batch(&pairs)
    }

    fn tuple_count(&self) -> f64 {
        self.count()
    }

    fn space(&self) -> usize {
        self.coefficient_count()
    }
}

impl StreamSummary for MultiDimSynopsis {
    fn arity(&self) -> usize {
        MultiDimSynopsis::arity(self)
    }

    fn update_weighted(&mut self, tuple: &[i64], w: f64) -> Result<()> {
        self.update(tuple, w)
    }

    fn check_update(&self, tuple: &[i64], w: f64) -> Result<()> {
        self.validate(tuple, w)
    }

    /// Validates the whole batch before applying any of it.
    fn update_weighted_batch(&mut self, batch: &[(&[i64], f64)]) -> Result<()> {
        self.update_batch(batch)
    }

    fn tuple_count(&self) -> f64 {
        self.count()
    }

    fn space(&self) -> usize {
        self.coefficient_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::{Domain, Grid};

    #[test]
    fn cosine_synopsis_implements_stream_summary() {
        let mut s: Box<dyn StreamSummary> =
            Box::new(CosineSynopsis::new(Domain::of_size(10), Grid::Midpoint, 4).unwrap());
        assert_eq!(s.arity(), 1);
        s.insert_tuple(&[3]).unwrap();
        s.insert_tuple(&[7]).unwrap();
        s.delete_tuple(&[3]).unwrap();
        assert_eq!(s.tuple_count(), 1.0);
        assert_eq!(s.space(), 4);
        assert!(s.insert_tuple(&[1, 2]).is_err());
    }

    #[test]
    fn multidim_synopsis_implements_stream_summary() {
        let mut s = MultiDimSynopsis::new(
            vec![Domain::of_size(8), Domain::of_size(8)],
            Grid::Midpoint,
            3,
        )
        .unwrap();
        StreamSummary::update_weighted(&mut s, &[1, 2], 2.0).unwrap();
        assert_eq!(StreamSummary::tuple_count(&s), 2.0);
        assert_eq!(StreamSummary::arity(&s), 2);
        assert_eq!(StreamSummary::space(&s), 6); // C(4,2)
    }
}
