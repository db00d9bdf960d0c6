//! Correctness checks. Each returns `Err` with a reason on failure; the
//! command then prints `"correct": false` and exits non-zero.

/// Largest relative difference tolerated between a served estimate and
/// the in-process reference. Not bit-identity: the daemon's WAL replay
/// may apply rows through `update_batch`, which matches the per-row loop
/// only to about 1e-12 relative.
pub const REFERENCE_TOL: f64 = 1e-9;

/// Every row sent was acked: nothing lost, nothing counted twice.
pub fn acked_equals_sent(what: &str, sent: u64, acked: u64) -> Result<(), String> {
    if sent == acked {
        Ok(())
    } else {
        Err(format!("{what}: {acked} rows acked but {sent} sent"))
    }
}

/// Served estimates agree with the reference within [`REFERENCE_TOL`].
/// `served[i]` and `reference[i]` answer the same query `labels[i]`.
pub fn estimates_match(labels: &[String], served: &[f64], reference: &[f64]) -> Result<(), String> {
    if served.len() != reference.len() || labels.len() != served.len() {
        return Err(format!(
            "{} served answers for {} reference answers",
            served.len(),
            reference.len()
        ));
    }
    for ((label, &s), &r) in labels.iter().zip(served).zip(reference) {
        let rel = (s - r).abs() / r.abs().max(f64::MIN_POSITIVE);
        if !s.is_finite() || !r.is_finite() || rel > REFERENCE_TOL {
            return Err(format!(
                "{label}: served {s} vs reference {r} (relative difference {rel:e})"
            ));
        }
    }
    Ok(())
}

/// The rejects ledger counted exactly the rows the corruption manifest
/// says were damaged.
pub fn rejects_match_manifest(rejected: u64, manifest: u64) -> Result<(), String> {
    if rejected == manifest {
        Ok(())
    } else {
        Err(format!(
            "intake rejected {rejected} rows but the dirty manifest lists {manifest}"
        ))
    }
}

/// Estimates after a crash and reopen are bit-identical to the ones
/// before the crash: the WAL replays every synced row in order.
pub fn recovered_equal(labels: &[String], before: &[f64], after: &[f64]) -> Result<(), String> {
    if before.len() != after.len() {
        return Err(format!(
            "{} estimates before the crash, {} after",
            before.len(),
            after.len()
        ));
    }
    for ((label, b), a) in labels.iter().zip(before).zip(after) {
        if b.to_bits() != a.to_bits() {
            return Err(format!(
                "{label}: {b} before the crash, {a} after reopening"
            ));
        }
    }
    Ok(())
}

/// A counter read back from the system equals the expected count.
pub fn count_equals(what: &str, expected: u64, got: u64) -> Result<(), String> {
    if expected == got {
        Ok(())
    } else {
        Err(format!("{what}: expected {expected}, got {got}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labels(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("q{i}")).collect()
    }

    #[test]
    fn acked_check_fails_on_a_lost_or_doubled_row() {
        assert!(acked_equals_sent("x", 1000, 1000).is_ok());
        assert!(acked_equals_sent("x", 1000, 999).is_err());
        assert!(acked_equals_sent("x", 1000, 1001).is_err());
    }

    #[test]
    fn reference_check_fails_on_a_tampered_estimate() {
        let reference = [1.0e6, 2.5e3, 7.0];
        let mut served = reference;
        assert!(estimates_match(&labels(3), &served, &reference).is_ok());
        served[1] *= 1.0 + 1e-12; // update_batch-sized drift passes
        assert!(estimates_match(&labels(3), &served, &reference).is_ok());
        served[1] *= 1.0 + 1e-6;
        assert!(estimates_match(&labels(3), &served, &reference).is_err());
        let nan = [1.0e6, f64::NAN, 7.0];
        assert!(estimates_match(&labels(3), &nan, &reference).is_err());
        assert!(estimates_match(&labels(2), &served[..2], &reference).is_err());
    }

    #[test]
    fn reject_check_fails_on_a_tampered_count() {
        assert!(rejects_match_manifest(17, 17).is_ok());
        assert!(rejects_match_manifest(16, 17).is_err());
    }

    #[test]
    fn recovery_check_demands_bit_identity() {
        let before = [3.0, 4.0];
        assert!(recovered_equal(&labels(2), &before, &before).is_ok());
        let after = [3.0, 4.0 + f64::EPSILON * 4.0];
        assert!(recovered_equal(&labels(2), &before, &after).is_err());
        assert!(recovered_equal(&labels(1), &before, &after[..1]).is_err());
    }

    #[test]
    fn count_check_fails_on_a_tampered_count() {
        assert!(count_equals("events", 5, 5).is_ok());
        assert!(count_equals("events", 5, 6).is_err());
    }
}
