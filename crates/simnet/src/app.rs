//! The Coldstorage-like storage application model (paper §6.2).
//!
//! Coldstorage's ingress is uploads (writes), egress is restores (reads).
//! The drill observed, and this model reproduces:
//!
//! * **Read latency** grows with the non-conforming drop rate, then
//!   *falls drastically at 100%*: fully-blackholed hosts never establish
//!   TCP connections, so clients fail over fast to healthy hosts —
//!   possible only because remarking is host-granular (§5.3);
//! * **Write latency** is severely impacted even at small loss because
//!   writes are stateful and sessions take time to move away from
//!   affected hosts;
//! * **Block errors** peak when connections cannot be established at all
//!   (correlating with SYN failures).

use crate::tcp::{connect_stats, transfer_slowdown, SYN_ATTEMPTS, SYN_TIMEOUT_SECS};
use serde::{Deserialize, Serialize};

/// Baseline read (restore) service time, seconds.
const BASE_READ_SECS: f64 = 5.0;
/// Baseline write (upload) service time, seconds.
const BASE_WRITE_SECS: f64 = 3.0;
/// Read requests per tick.
const READS_PER_TICK: f64 = 1000.0;
/// Write operations per tick.
const WRITES_PER_TICK: f64 = 600.0;
/// Fraction of sticky write sessions that migrate off unhealthy hosts
/// per tick (writes move slowly — §6.2).
const WRITE_MIGRATION_RATE: f64 = 0.04;
/// Fraction of read retries that land on a healthy host (reads
/// rebalance instantly via the application's failover).
const READ_FAILOVER_EFFICIENCY: f64 = 0.95;

/// Time wasted before giving up on a dead host: the full SYN backoff
/// chain.
fn syn_give_up_secs() -> f64 {
    (0..SYN_ATTEMPTS)
        .map(|i| SYN_TIMEOUT_SECS * 2f64.powi(i as i32))
        .sum()
}

/// Per-tick application metrics (the Fig 15–17 series).
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct AppMetrics {
    /// Mean read latency, seconds.
    pub read_latency_secs: f64,
    /// Mean write latency, seconds.
    pub write_latency_secs: f64,
    /// Block write errors this tick.
    pub block_errors: f64,
    /// Failed read requests this tick.
    pub read_failures: f64,
}

/// The storage application: tracks where sticky write sessions live.
/// A fresh one (`default()`) has no sessions on marked hosts.
#[derive(Clone, Debug, Default)]
pub struct StorageApp {
    /// Fraction of write sessions currently on marked (unhealthy) hosts.
    write_sessions_on_marked: f64,
}

impl StorageApp {
    /// Fraction of write sessions currently pinned to marked hosts.
    pub fn sessions_on_marked(&self) -> f64 {
        self.write_sessions_on_marked
    }

    /// Advance one tick.
    ///
    /// * `marked_fraction` — share of hosts currently remarked;
    /// * `nonconf_loss` — loss ratio experienced by non-conforming
    ///   traffic (marked hosts);
    /// * `conf_loss` — loss of conforming traffic (normally ~0).
    pub fn step(&mut self, marked_fraction: f64, nonconf_loss: f64, conf_loss: f64) -> AppMetrics {
        let m = marked_fraction.clamp(0.0, 1.0);
        let p_bad = nonconf_loss.clamp(0.0, 1.0);
        let p_ok = conf_loss.clamp(0.0, 1.0);

        // ---- Reads: stateless, instant failover. -----------------------
        // A read picks a host ∝ capacity: marked with prob m.
        let healthy_read = connect_stats(1.0, p_ok).connect_latency_secs.max(0.0)
            + BASE_READ_SECS * transfer_slowdown(p_ok);
        // On a marked host the connection may establish (then crawl) or
        // fail entirely (then fail over to a healthy host).
        let s = connect_stats(1.0, p_bad);
        let p_established = if 1.0 - p_bad > 0.0 {
            1.0 - p_bad.powi(SYN_ATTEMPTS as i32)
        } else {
            0.0
        };
        let give_up_secs = syn_give_up_secs();
        let marked_read = if p_established > 0.0 {
            let slow_read =
                s.connect_latency_secs.max(0.0) + BASE_READ_SECS * transfer_slowdown(p_bad);
            let failed_then_failover = give_up_secs
                + READ_FAILOVER_EFFICIENCY * healthy_read
                + (1.0 - READ_FAILOVER_EFFICIENCY) * (give_up_secs + healthy_read);
            p_established * slow_read + (1.0 - p_established) * failed_then_failover
        } else {
            give_up_secs + healthy_read
        };
        let read_latency_secs = (1.0 - m) * healthy_read + m * marked_read;
        // Reads fail outright only if the failover also fails.
        let read_failures =
            READS_PER_TICK * m * (1.0 - p_established) * (1.0 - READ_FAILOVER_EFFICIENCY) * p_bad;

        // ---- Writes: sticky sessions migrate slowly. --------------------
        // Sessions drift toward the marked share when healthy, and away
        // from marked hosts (at the slow migration rate) when those hosts
        // are hurting.
        let pain = p_bad; // how hard marked hosts are hurting
        let target = m * (1.0 - pain); // load balancer avoids hurting hosts
        let f = self.write_sessions_on_marked;
        self.write_sessions_on_marked = f + (target - f) * WRITE_MIGRATION_RATE;
        let on_marked = self.write_sessions_on_marked.clamp(0.0, 1.0);

        let healthy_write = BASE_WRITE_SECS * transfer_slowdown(p_ok);
        let marked_write = if p_established > 0.0 {
            BASE_WRITE_SECS * transfer_slowdown(p_bad) + s.connect_latency_secs.max(0.0)
        } else {
            // Can't even re-establish: stall until migration.
            give_up_secs + BASE_WRITE_SECS
        };
        let write_latency_secs = (1.0 - on_marked) * healthy_write + on_marked * marked_write;

        // Block errors: write ops on marked hosts whose connection (or
        // re-connection mid-block) fails.
        let block_errors =
            WRITES_PER_TICK * on_marked * (1.0 - p_established).max(p_bad * p_bad * 0.5);

        AppMetrics {
            read_latency_secs,
            write_latency_secs,
            block_errors,
            read_failures,
        }
    }
}

impl StorageApp {
    /// Advance one tick under *flow-based* remarking (§5.3's alternative
    /// strategy): every host remarks `marked_fraction` of its flows, so a
    /// retry lands on another non-conforming flow with the same
    /// probability — "the result may manifest as random individual flow
    /// failures" that host-failover cannot route around.
    pub fn step_flow_based(
        &mut self,
        marked_fraction: f64,
        nonconf_loss: f64,
        conf_loss: f64,
    ) -> AppMetrics {
        let m = marked_fraction.clamp(0.0, 1.0);
        let p_bad = nonconf_loss.clamp(0.0, 1.0);
        let p_ok = conf_loss.clamp(0.0, 1.0);

        let healthy_read = connect_stats(1.0, p_ok).connect_latency_secs.max(0.0)
            + BASE_READ_SECS * transfer_slowdown(p_ok);
        let s = connect_stats(1.0, p_bad);
        let p_established = 1.0 - p_bad.powi(SYN_ATTEMPTS as i32);
        let give_up_secs = syn_give_up_secs();
        let slow_read = s.connect_latency_secs.max(0.0) + BASE_READ_SECS * transfer_slowdown(p_bad);

        // Up to 3 application retries; each independently draws a marked
        // flow with probability m (retrying on another host does not
        // help — the flow-group hash is what matters).
        const RETRIES: usize = 3;
        let mut read_latency = 0.0;
        let mut fail_prob = 1.0;
        let mut read_failures_prob = 0.0;
        for attempt in 0..=RETRIES {
            let p_marked_fail = m * (1.0 - p_established);
            let p_marked_slow = m * p_established;
            let p_clean = 1.0 - m;
            // This attempt succeeds (clean or slow) or wastes give_up.
            read_latency += fail_prob * (p_clean * healthy_read + p_marked_slow * slow_read);
            if attempt < RETRIES {
                read_latency += fail_prob * p_marked_fail * give_up_secs;
                fail_prob *= p_marked_fail;
            } else {
                read_failures_prob = fail_prob * p_marked_fail;
                read_latency += read_failures_prob * give_up_secs;
            }
        }

        // Writes: sessions cannot migrate away from marked *flows*; the
        // effective marked share of write operations stays at m.
        self.write_sessions_on_marked = m;
        let healthy_write = BASE_WRITE_SECS * transfer_slowdown(p_ok);
        let marked_write = if p_established > 0.0 {
            BASE_WRITE_SECS * transfer_slowdown(p_bad) + s.connect_latency_secs.max(0.0)
        } else {
            give_up_secs + BASE_WRITE_SECS
        };
        let write_latency_secs = (1.0 - m) * healthy_write + m * marked_write;
        let block_errors = WRITES_PER_TICK * m * (1.0 - p_established).max(p_bad * p_bad * 0.5);

        AppMetrics {
            read_latency_secs: read_latency,
            write_latency_secs,
            block_errors,
            read_failures: READS_PER_TICK * read_failures_prob,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn settle(app: &mut StorageApp, m: f64, p: f64, ticks: usize) -> AppMetrics {
        let mut last = AppMetrics::default();
        for _ in 0..ticks {
            last = app.step(m, p, 0.0);
        }
        last
    }

    #[test]
    fn no_marking_is_baseline() {
        let mut app = StorageApp::default();
        let m = settle(&mut app, 0.0, 0.0, 10);
        assert!((m.read_latency_secs - 5.0).abs() < 0.1);
        assert!((m.write_latency_secs - 3.0).abs() < 0.1);
        assert_eq!(m.block_errors, 0.0);
        assert_eq!(m.read_failures, 0.0);
    }

    #[test]
    fn read_latency_rises_then_falls_at_full_drop() {
        // The Fig 15 signature.
        let lat = |p: f64| {
            let mut app = StorageApp::default();
            settle(&mut app, 0.3, p, 30).read_latency_secs
        };
        let l0 = lat(0.0);
        let l125 = lat(0.125);
        let l50 = lat(0.5);
        let l100 = lat(1.0);
        assert!(l125 > l0, "loss hurts: {l125} vs {l0}");
        assert!(l50 > l125, "more loss hurts more: {l50} vs {l125}");
        assert!(
            l100 < l50,
            "at 100% drop, fast failover wins: {l100} vs {l50}"
        );
        assert!(l100 > l0, "but still worse than healthy");
    }

    #[test]
    fn write_latency_severe_even_at_low_loss() {
        // The Fig 16 observation: "The impact on write latency is severe
        // even when loss rate is small."
        let mut app = StorageApp::default();
        // Sessions settle onto the (healthy) marked hosts first; then the
        // drill starts dropping their traffic.
        settle(&mut app, 0.3, 0.0, 100);
        let m = settle(&mut app, 0.3, 0.125, 3);
        assert!(
            m.write_latency_secs > 1.8 * BASE_WRITE_SECS,
            "write latency {} should be well above base",
            m.write_latency_secs
        );
    }

    #[test]
    fn write_sessions_migrate_slowly() {
        let mut app = StorageApp::default();
        // Put sessions on marked hosts.
        settle(&mut app, 0.3, 0.0, 50);
        let before = app.sessions_on_marked();
        assert!(before > 0.2, "sessions follow the marked share: {before}");
        // Now the marked hosts go fully dark; sessions should drain, but
        // not instantly.
        app.step(0.3, 1.0, 0.0);
        let after_one = app.sessions_on_marked();
        assert!(after_one > 0.15, "one tick does not drain: {after_one}");
        settle(&mut app, 0.3, 1.0, 200);
        assert!(app.sessions_on_marked() < 0.05, "eventually drains");
    }

    #[test]
    fn flow_based_reads_do_not_recover_at_full_drop() {
        // Contrast with host-based: at 100% loss, flow-based retries keep
        // drawing dead flows, so latency stays high instead of dropping.
        let flow_lat = |p: f64| {
            let mut app = StorageApp::default();
            let mut last = AppMetrics::default();
            for _ in 0..10 {
                last = app.step_flow_based(0.3, p, 0.0);
            }
            last.read_latency_secs
        };
        let host_lat = |p: f64| {
            let mut app = StorageApp::default();
            let mut last = AppMetrics::default();
            for _ in 0..30 {
                last = app.step(0.3, p, 0.0);
            }
            last.read_latency_secs
        };
        // Host-based recovers at 100% (ratio < 1), flow-based does not
        // recover as much.
        let host_ratio = host_lat(1.0) / host_lat(0.5);
        let flow_ratio = flow_lat(1.0) / flow_lat(0.5);
        assert!(host_ratio < 1.0, "host-based recovers: {host_ratio}");
        assert!(
            flow_ratio > host_ratio,
            "flow-based {flow_ratio} worse than host-based {host_ratio}"
        );
        // Flow-based also produces outright read failures at full drop.
        let mut app = StorageApp::default();
        let m = app.step_flow_based(0.3, 1.0, 0.0);
        assert!(m.read_failures > 0.0);
    }

    #[test]
    fn block_errors_peak_with_connection_failures() {
        let errs = |p: f64| {
            let mut app = StorageApp::default();
            // Sessions settle on healthy marked hosts before the drops.
            settle(&mut app, 0.3, 0.0, 100);
            settle(&mut app, 0.3, p, 3).block_errors
        };
        assert!(errs(0.5) > errs(0.125));
        assert!(errs(1.0) > 0.0, "full drop still errors until migration");
        assert_eq!(errs(0.0), 0.0);
    }
}
