//! Statistical TCP behavior under loss.
//!
//! The drill collects "TCP stats (e.g., number of SYN/FIN/RST packets)"
//! (§6); Fig 14 shows SYN counts rising for non-conforming traffic as the
//! drop percentage grows. We model the per-tick aggregate over a pool of
//! connections: expected SYN (re)transmissions, connection successes and
//! failures, FIN/RST volumes, and latency inflation of transfers.

use serde::{Deserialize, Serialize};

/// Maximum SYN transmissions per connection attempt (1 + retries).
pub const SYN_ATTEMPTS: u32 = 4;

/// SYN retransmission timeout in seconds (compounds per retry).
pub const SYN_TIMEOUT_SECS: f64 = 1.0;

/// Senders throttled by loss never drop below this share of their
/// demand: connections keep probing, which is also how they detect
/// recovery when drops clear.
pub const PROBE_FLOOR: f64 = 0.02;

/// Retransmit overhead factor: sent ≈ delivered × (1 + overhead × loss).
pub const RETRANSMIT_OVERHEAD: f64 = 0.05;

/// The share of its demand a sender puts on the wire after a tick that
/// lost `loss`: it throttles toward what the network delivered, never
/// below [`PROBE_FLOOR`], plus [`RETRANSMIT_OVERHEAD`] for what it
/// resends.
pub fn send_throttle(loss: f64) -> f64 {
    (1.0 - loss).max(PROBE_FLOOR) * (1.0 + RETRANSMIT_OVERHEAD * loss)
}

/// Aggregate TCP activity of one tick for one traffic slice.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct TcpTickStats {
    /// SYN packets sent (including retransmissions).
    pub syn_sent: f64,
    /// Connections successfully established.
    pub established: f64,
    /// Connection attempts that exhausted their retries.
    pub failed: f64,
    /// Expected connect latency of the *successful* attempts, seconds.
    pub connect_latency_secs: f64,
    /// FIN packets (graceful closes — equal to established on average).
    pub fin_sent: f64,
    /// RST packets (failed/aborted attempts emit resets).
    pub rst_sent: f64,
}

/// Statistics for `attempts` new connection attempts under packet
/// loss `p` (applied independently per SYN; the SYN/ACK return path
/// is assumed to share fate, which is accurate for symmetric
/// remarking).
pub fn connect_stats(attempts: f64, p: f64) -> TcpTickStats {
    let p = p.clamp(0.0, 1.0);
    let q = 1.0 - p;
    let k = SYN_ATTEMPTS;

    // Expected SYNs per attempt: sum over tries until success or
    // exhaustion = (1 - p^k) / (1 - p) for p < 1, else k.
    let expected_syn = if p >= 1.0 {
        k as f64
    } else if p <= 0.0 {
        1.0
    } else {
        (1.0 - p.powi(k as i32)) / (1.0 - p)
    };
    // Success probability within k attempts.
    let p_success = 1.0 - p.powi(k as i32);

    // Expected latency of successful attempts: geometric over tries,
    // each failed try costs an exponentially backed-off timeout.
    let mut lat_num = 0.0;
    let mut prob_mass = 0.0;
    let mut wait = 0.0;
    for i in 0..k {
        let p_this = p.powi(i as i32) * q; // fail i times then succeed
        lat_num += p_this * wait;
        prob_mass += p_this;
        wait += SYN_TIMEOUT_SECS * 2f64.powi(i as i32);
    }
    let connect_latency_secs = if prob_mass > 0.0 {
        lat_num / prob_mass
    } else {
        f64::NAN
    };

    let established = attempts * p_success;
    let failed = attempts - established;
    TcpTickStats {
        syn_sent: attempts * expected_syn,
        established,
        failed,
        connect_latency_secs,
        fin_sent: established,
        rst_sent: failed,
    }
}

/// Latency multiplier for a bulk transfer under loss `p`: each lost
/// segment costs an RTO; goodput roughly scales with `1/sqrt(p)`
/// (Mathis), which we fold into a bounded slowdown factor.
pub fn transfer_slowdown(p: f64) -> f64 {
    let p = p.clamp(0.0, 0.999);
    if p <= 0.0 {
        return 1.0;
    }
    // Mathis-style: throughput ∝ 1/sqrt(p) relative to a 1% baseline,
    // so slowdown = sqrt(p / 0.0001) clamped to keep the model sane.
    (1.0 + (p / 1e-4).sqrt() * 0.1).min(60.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_loss_single_syn() {
        let s = connect_stats(100.0, 0.0);
        assert!((s.syn_sent - 100.0).abs() < 1e-9);
        assert!((s.established - 100.0).abs() < 1e-9);
        assert_eq!(s.failed, 0.0);
        assert_eq!(s.connect_latency_secs, 0.0);
        assert!((s.fin_sent - 100.0).abs() < 1e-9);
        assert_eq!(s.rst_sent, 0.0);
    }

    #[test]
    fn syn_count_grows_with_loss() {
        let mut prev = 0.0;
        for p in [0.0, 0.125, 0.5, 0.9] {
            let s = connect_stats(100.0, p);
            assert!(s.syn_sent > prev, "p={p}: {} !> {prev}", s.syn_sent);
            prev = s.syn_sent;
        }
    }

    #[test]
    fn full_loss_fails_everything_with_max_syns() {
        let s = connect_stats(10.0, 1.0);
        assert!((s.syn_sent - 40.0).abs() < 1e-9, "4 SYNs per attempt");
        assert_eq!(s.established, 0.0);
        assert!((s.failed - 10.0).abs() < 1e-9);
        assert!((s.rst_sent - 10.0).abs() < 1e-9);
        assert!(s.connect_latency_secs.is_nan(), "no successes to measure");
    }

    #[test]
    fn connect_latency_grows_with_loss() {
        let lo = connect_stats(1.0, 0.1).connect_latency_secs;
        let hi = connect_stats(1.0, 0.6).connect_latency_secs;
        assert!(hi > lo, "{hi} vs {lo}");
        assert!(lo >= 0.0);
    }

    #[test]
    fn transfer_slowdown_monotone_and_bounded() {
        assert_eq!(transfer_slowdown(0.0), 1.0);
        let mut prev = 1.0;
        for p in [0.001, 0.01, 0.125, 0.5, 0.9] {
            let s = transfer_slowdown(p);
            assert!(s >= prev, "p={p}");
            prev = s;
        }
        assert!(transfer_slowdown(0.999) <= 60.0);
    }

    #[test]
    fn probabilities_conserve_attempts() {
        for p in [0.0, 0.3, 0.7, 1.0] {
            let s = connect_stats(42.0, p);
            assert!((s.established + s.failed - 42.0).abs() < 1e-9, "p={p}");
        }
    }
}
