//! Invariant monitors: per-cycle conservation checks over the live
//! SLI stream. Each check is a pure function from observed values to
//! an optional violation detail string; the evaluator wraps the detail
//! into a typed [`crate::watch::Violation`] carrying the offending
//! (entity, QoS, shard, cycle) and its stable `W01xx` code.
//!
//! Every numeric in a detail string is formatted shortest-round-trip
//! (`format!("{v}")`), the same policy the trace labels use — so a
//! detail built from label-roundtripped floats during an offline
//! refold is byte-identical to the one built live.

use crate::report::fmt_f64;
use crate::watch::config::WatchPolicy;

/// W0101 — delivery conservation: conforming delivery never exceeds
/// `min(demand, approved) × (1 + ε)`. The caller gates this on the
/// settle window (a fresh contract rollover gets `SETTLE_CYCLES` of
/// metering reaction time) and on measurability.
#[must_use]
pub fn check_delivery(demand_bps: f64, delivered_bps: f64, approved_bps: f64) -> Option<String> {
    let bound = demand_bps.min(approved_bps) * (1.0 + WatchPolicy::DELIVERY_EPSILON);
    // f64::min quietly drops a NaN operand, so check the raw inputs too.
    if !demand_bps.is_finite() || !approved_bps.is_finite() || !delivered_bps.is_finite() {
        return Some(format!(
            "non-finite delivery accounting: delivered {} vs bound {}",
            fmt_f64(delivered_bps),
            fmt_f64(bound)
        ));
    }
    if delivered_bps > bound {
        return Some(format!(
            "delivered {} bps exceeds min(demand {}, approved {}) × {}",
            fmt_f64(delivered_bps),
            fmt_f64(demand_bps),
            fmt_f64(approved_bps),
            fmt_f64(1.0 + WatchPolicy::DELIVERY_EPSILON)
        ));
    }
    None
}

/// W0102 — shard reconciliation: the flat aggregate total must equal
/// the per-shard partials re-summed in shard order, bit-for-bit. The
/// fold the meters consumed and the re-sum here run the identical
/// ascending-shard f64 reduction, so any divergence means the fold saw
/// different values than it published.
#[must_use]
pub fn check_shard_sum(total_bps: f64, shard_bps: &[f64]) -> Option<String> {
    let resum: f64 = shard_bps.iter().sum();
    if resum.to_bits() != total_bps.to_bits() {
        return Some(format!(
            "flat total {} bps does not bit-reconcile with the {}-shard re-sum {}",
            fmt_f64(total_bps),
            shard_bps.len(),
            fmt_f64(resum)
        ));
    }
    None
}

/// W0103 — residual monotonicity: a grant is never negative and, when
/// anything was granted, never more than the ask (a NaN ask fails the
/// comparison); the residual-index decrement never goes negative, never
/// grows the residual, and lands exactly on `max(before − granted, 0)`.
#[must_use]
pub fn check_residual(
    before_bps: f64,
    after_bps: f64,
    granted_bps: f64,
    ask_bps: f64,
) -> Option<String> {
    // A denial grants exactly zero whatever was asked, so a zero grant
    // passes against any ask, a rejected ask's `NaN` included.
    if !(granted_bps == 0.0 || (0.0..=ask_bps).contains(&granted_bps)) {
        return Some(format!(
            "granted {} is not within [0, ask {}]",
            fmt_f64(granted_bps),
            fmt_f64(ask_bps)
        ));
    }
    if before_bps < 0.0 || after_bps < 0.0 {
        return Some(format!(
            "negative residual: before {} after {}",
            fmt_f64(before_bps),
            fmt_f64(after_bps)
        ));
    }
    if after_bps > before_bps {
        return Some(format!(
            "residual grew on a decrement: before {} after {}",
            fmt_f64(before_bps),
            fmt_f64(after_bps)
        ));
    }
    let expect = (before_bps - granted_bps).max(0.0);
    if after_bps.to_bits() != expect.to_bits() {
        return Some(format!(
            "residual after {} is not before {} minus granted {} (expected {})",
            fmt_f64(after_bps),
            fmt_f64(before_bps),
            fmt_f64(granted_bps),
            fmt_f64(expect)
        ));
    }
    None
}

/// W0104 — fraction sanity: the marked and conforming fractions are
/// valid shares of sent traffic, each in `[0, 1]` (± ε), so marked and
/// conforming traffic partition the cycle's accounting.
#[must_use]
pub fn check_fractions(marked_fraction: f64, conform_fraction: f64) -> Option<String> {
    let eps = WatchPolicy::FRACTION_EPSILON;
    for (name, v) in [
        ("marked_fraction", marked_fraction),
        ("conform_fraction", conform_fraction),
    ] {
        if !v.is_finite() || v < -eps || v > 1.0 + eps {
            return Some(format!("{name} {} is outside [0, 1]", fmt_f64(v)));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivery_within_epsilon_passes() {
        // bound = min(2e12, 1e12) × 1.25
        assert!(check_delivery(2e12, 1.24e12, 1e12).is_none());
        let detail = check_delivery(2e12, 1.26e12, 1e12).expect("violation");
        assert!(detail.contains("exceeds"), "{detail}");
    }

    #[test]
    fn delivery_rejects_non_finite_accounting() {
        assert!(check_delivery(f64::NAN, 1.0, 1.0).is_some());
        assert!(check_delivery(1.0, f64::INFINITY, 1.0).is_some());
    }

    #[test]
    fn shard_sum_requires_bit_equality() {
        let shards = [0.1, 0.2, 0.3];
        let in_order: f64 = shards.iter().sum();
        assert!(check_shard_sum(in_order, &shards).is_none());
        // The reversed fold lands on different bits for these values —
        // exactly the divergence the monitor exists to catch.
        let reversed: f64 = shards.iter().rev().sum();
        assert_ne!(in_order.to_bits(), reversed.to_bits());
        assert!(check_shard_sum(reversed, &shards).is_some());
    }

    #[test]
    fn residual_decrement_must_be_exact() {
        assert!(check_residual(10.0, 7.5, 2.5, 2.5).is_none());
        // Over-grant clamps at zero.
        assert!(check_residual(1.0, 0.0, 2.5, 2.5).is_none());
        assert!(check_residual(-1.0, 0.0, 0.0, 1.0).is_some(), "negative before");
        assert!(check_residual(1.0, -0.5, 0.0, 1.0).is_some(), "negative after");
        assert!(check_residual(1.0, 2.0, 0.0, 1.0).is_some(), "residual grew");
        assert!(check_residual(10.0, 7.0, 2.5, 2.5).is_some(), "wrong decrement");
    }

    #[test]
    fn a_grant_stays_within_its_ask() {
        assert!(check_residual(10.0, 10.0, 0.0, 5.0).is_none(), "plain denial");
        assert!(check_residual(10.0, 10.0, 0.0, -100.0).is_none(), "bad ask, denied");
        assert!(check_residual(10.0, 10.0, 0.0, f64::NAN).is_none(), "bad ask, denied");
        assert!(check_residual(10.0, 7.0, 3.0, 2.5).is_some(), "granted over the ask");
        assert!(check_residual(10.0, 0.0, 10.0, f64::NAN).is_some(), "NaN ask served");
        // The parent's bug: a negative ask "granted", minting headroom.
        assert!(check_residual(10.0, 10.0, -100.0, -100.0).is_some(), "negative grant");
    }

    #[test]
    fn fractions_must_be_shares() {
        assert!(check_fractions(0.55, 0.45).is_none());
        assert!(check_fractions(0.0, 1.0).is_none());
        assert!(check_fractions(1.02, 0.5).is_some());
        assert!(check_fractions(0.5, -0.2).is_some());
        assert!(check_fractions(f64::NAN, 0.5).is_some());
    }
}
