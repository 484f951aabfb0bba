//! A packet-granularity micro-simulator for one switch egress port.
//!
//! The fluid [`crate::fabric::Bottleneck`] model asserts that strict
//! priority queueing protects conforming traffic and starves the
//! scavenger queue first. This module validates that claim at per-packet
//! granularity: a deterministic discrete-event simulation of one egress
//! port with DSCP-mapped strict-priority queues, finite buffers, and
//! tail drop — the behavior §5.1 relies on in hardware switches.
//!
//! It is intentionally small-scale (one port, seconds of simulated
//! time); the property test in this module and the cross-validation
//! test against the fluid model are its reason to exist.

use entitlement_core::qos::Dscp;
use entitlement_core::{DetRng, Rate};
use serde::{Deserialize, Serialize};
use std::collections::{BinaryHeap, VecDeque};

/// A traffic source feeding the port.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PacketSource {
    /// DSCP its packets carry.
    pub dscp: Dscp,
    /// Offered rate.
    pub rate: Rate,
    /// Packet size in bytes.
    pub packet_bytes: u32,
}

/// Line rate of the port, Gbps.
const LINE_RATE_GBPS: f64 = 10.0;

/// Buffer per queue, bytes.
const BUFFER_BYTES: u64 = 1_000_000;

/// Arrival jitter: inter-arrival times are scaled by a uniform factor
/// in `[1-j, 1+j]`.
const JITTER: f64 = 0.3;

/// Port configuration.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PortConfig {
    /// Simulated duration, seconds.
    pub duration_secs: f64,
    /// Seed.
    pub seed: u64,
}

impl Default for PortConfig {
    fn default() -> Self {
        PortConfig {
            duration_secs: 1.0,
            seed: 0x9AC7,
        }
    }
}

/// Per-queue outcome of a run.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct QueueStats {
    /// Packets enqueued (arrived and accepted).
    pub accepted: u64,
    /// Packets tail-dropped on arrival.
    pub dropped: u64,
    /// Packets transmitted.
    pub transmitted: u64,
    /// Sum of queueing delays (seconds) over transmitted packets.
    pub total_delay_secs: f64,
}

impl QueueStats {
    /// Loss ratio of this queue.
    pub fn loss(&self) -> f64 {
        let offered = self.accepted + self.dropped;
        if offered == 0 {
            0.0
        } else {
            self.dropped as f64 / offered as f64
        }
    }

    /// Mean queueing delay of transmitted packets, seconds.
    pub fn mean_delay_secs(&self) -> f64 {
        if self.transmitted == 0 {
            f64::NAN
        } else {
            self.total_delay_secs / self.transmitted as f64
        }
    }
}

/// Result of a port simulation, indexed by queue (0 = scavenger, 4 =
/// highest priority; see [`Dscp::queue`]).
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct PortOutcome {
    /// Stats per queue index.
    pub queues: [QueueStats; 5],
}

impl PortOutcome {
    /// Stats for the queue a DSCP maps to.
    pub fn for_dscp(&self, dscp: Dscp) -> &QueueStats {
        &self.queues[dscp.queue() as usize]
    }
}

#[derive(PartialEq)]
struct Arrival {
    /// Time in nanoseconds (integer for exact ordering).
    t_ns: u64,
    /// Tie-break sequence.
    seq: u64,
    source: usize,
}

impl Eq for Arrival {}
impl Ord for Arrival {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Min-heap.
        other
            .t_ns
            .cmp(&self.t_ns)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl PartialOrd for Arrival {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Run the discrete-event simulation.
pub fn simulate_port(sources: &[PacketSource], config: &PortConfig) -> PortOutcome {
    let mut rng = DetRng::new(config.seed);
    let mut heap: BinaryHeap<Arrival> = BinaryHeap::new();
    let mut seq = 0u64;
    let horizon_ns = (config.duration_secs * 1e9) as u64;

    // Prime one arrival per source.
    let next_gap = |src: &PacketSource, rng: &mut DetRng| -> u64 {
        let mean_ns = src.packet_bytes as f64 * 8.0 / src.rate.as_bps() * 1e9;
        (mean_ns * rng.range(1.0 - JITTER, 1.0 + JITTER)).max(1.0) as u64
    };
    for (i, s) in sources.iter().enumerate() {
        let t = next_gap(s, &mut rng);
        heap.push(Arrival {
            t_ns: t,
            seq,
            source: i,
        });
        seq += 1;
    }

    // Queues: per priority level, FIFO of (arrival_ns, source).
    let mut queues: [VecDeque<(u64, usize)>; 5] = Default::default();
    let mut queue_bytes = [0u64; 5];
    let mut stats = PortOutcome::default();
    // Time the port becomes free.
    let mut port_free_ns = 0u64;

    // Serve as many packets as possible up to time `now`.
    let serve = |now: u64,
                 port_free_ns: &mut u64,
                 queues: &mut [VecDeque<(u64, usize)>; 5],
                 queue_bytes: &mut [u64; 5],
                 stats: &mut PortOutcome,
                 sources: &[PacketSource],
                 capacity_bps: f64| {
        while *port_free_ns <= now {
            // Highest priority non-empty queue.
            let Some(q) = (0..5).rev().find(|&q| !queues[q].is_empty()) else {
                break;
            };
            let (arr_ns, src) = queues[q].pop_front().unwrap();
            let bytes = sources[src].packet_bytes as u64;
            queue_bytes[q] -= bytes;
            let start = (*port_free_ns).max(arr_ns);
            let tx_ns = (bytes as f64 * 8.0 / capacity_bps * 1e9) as u64;
            *port_free_ns = start + tx_ns.max(1);
            let s = &mut stats.queues[q];
            s.transmitted += 1;
            s.total_delay_secs += (start.saturating_sub(arr_ns)) as f64 / 1e9;
        }
    };

    let capacity_bps = Rate::gbps(LINE_RATE_GBPS).as_bps();
    while let Some(Arrival { t_ns, source, .. }) = heap.pop() {
        if t_ns > horizon_ns {
            break;
        }
        // Drain the port up to this arrival.
        serve(
            t_ns,
            &mut port_free_ns,
            &mut queues,
            &mut queue_bytes,
            &mut stats,
            sources,
            capacity_bps,
        );
        let src = &sources[source];
        let q = src.dscp.queue() as usize;
        if queue_bytes[q] + src.packet_bytes as u64 > BUFFER_BYTES {
            stats.queues[q].dropped += 1;
        } else {
            queues[q].push_back((t_ns, source));
            queue_bytes[q] += src.packet_bytes as u64;
            stats.queues[q].accepted += 1;
        }
        // Schedule the next arrival of this source.
        let gap = next_gap(src, &mut rng);
        heap.push(Arrival {
            t_ns: t_ns + gap,
            seq,
            source,
        });
        seq += 1;
    }
    // Final drain.
    serve(
        u64::MAX,
        &mut port_free_ns,
        &mut queues,
        &mut queue_bytes,
        &mut stats,
        sources,
        capacity_bps,
    );
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::Bottleneck;
    use entitlement_core::QosClass;

    fn src(dscp: Dscp, gbps: f64) -> PacketSource {
        PacketSource {
            dscp,
            rate: Rate::gbps(gbps),
            packet_bytes: 1500,
        }
    }

    #[test]
    fn uncongested_delivers_everything() {
        let out = simulate_port(
            &[
                src(Dscp::for_class(QosClass::C1), 3.0),
                src(Dscp::NON_CONFORMING, 2.0),
            ],
            &PortConfig::default(),
        );
        assert_eq!(out.for_dscp(Dscp::for_class(QosClass::C1)).loss(), 0.0);
        assert_eq!(out.for_dscp(Dscp::NON_CONFORMING).loss(), 0.0);
        assert!(out.for_dscp(Dscp::for_class(QosClass::C1)).transmitted > 100_000);
    }

    #[test]
    fn congestion_starves_the_scavenger_queue_first() {
        // 8G conforming + 5G non-conforming into a 10G port.
        let out = simulate_port(
            &[
                src(Dscp::for_class(QosClass::C2), 8.0),
                src(Dscp::NON_CONFORMING, 5.0),
            ],
            &PortConfig::default(),
        );
        let conf = out.for_dscp(Dscp::for_class(QosClass::C2));
        let nonconf = out.for_dscp(Dscp::NON_CONFORMING);
        assert!(conf.loss() < 0.01, "conforming loss {}", conf.loss());
        // Fluid prediction: (5 - 2) / 5 = 0.6.
        assert!(
            (nonconf.loss() - 0.6).abs() < 0.1,
            "scavenger loss {} vs fluid 0.6",
            nonconf.loss()
        );
        // Scavenger queueing delay exceeds the premium queue's.
        assert!(nonconf.mean_delay_secs() > conf.mean_delay_secs());
    }

    #[test]
    fn packet_and_fluid_models_agree() {
        // Cross-validate loss ratios across several load points.
        let fluid = Bottleneck {
            capacity: Rate::gbps(10.0),
            ..Default::default()
        };
        for (conf_g, nonconf_g) in [(5.0, 3.0), (7.0, 6.0), (9.5, 4.0)] {
            let fluid_out = fluid.serve(0.0, Rate::gbps(conf_g), Rate::gbps(nonconf_g));
            let pkt = simulate_port(
                &[
                    src(Dscp::for_class(QosClass::C1), conf_g),
                    src(Dscp::NON_CONFORMING, nonconf_g),
                ],
                &PortConfig::default(),
            );
            let pkt_nonconf = pkt.for_dscp(Dscp::NON_CONFORMING).loss();
            assert!(
                (pkt_nonconf - fluid_out.nonconf_loss).abs() < 0.08,
                "({conf_g},{nonconf_g}): packet {pkt_nonconf} vs fluid {}",
                fluid_out.nonconf_loss
            );
            let pkt_conf = pkt.for_dscp(Dscp::for_class(QosClass::C1)).loss();
            assert!(
                (pkt_conf - fluid_out.conf_loss).abs() < 0.05,
                "conforming: packet {pkt_conf} vs fluid {}",
                fluid_out.conf_loss
            );
        }
    }

    #[test]
    fn class_priorities_are_respected_under_overload() {
        // All four classes offered 4G each into 10G: C1 and C2 fit,
        // C3 partially, C4 and scavenger starve.
        let out = simulate_port(
            &[
                src(Dscp::for_class(QosClass::C1), 4.0),
                src(Dscp::for_class(QosClass::C2), 4.0),
                src(Dscp::for_class(QosClass::C3), 4.0),
                src(Dscp::for_class(QosClass::C4), 4.0),
            ],
            &PortConfig::default(),
        );
        let loss = |c: QosClass| out.for_dscp(Dscp::for_class(c)).loss();
        assert!(loss(QosClass::C1) < 0.01, "c1 {}", loss(QosClass::C1));
        assert!(loss(QosClass::C2) < 0.02, "c2 {}", loss(QosClass::C2));
        assert!(
            (loss(QosClass::C3) - 0.5).abs() < 0.12,
            "c3 gets the 2G leftover: {}",
            loss(QosClass::C3)
        );
        assert!(loss(QosClass::C4) > 0.9, "c4 {}", loss(QosClass::C4));
    }

    #[test]
    fn determinism() {
        let sources = [
            src(Dscp::for_class(QosClass::C1), 6.0),
            src(Dscp::NON_CONFORMING, 6.0),
        ];
        let a = simulate_port(&sources, &PortConfig::default());
        let b = simulate_port(&sources, &PortConfig::default());
        assert_eq!(a.queues[0].transmitted, b.queues[0].transmitted);
        assert_eq!(a.queues[4].dropped, b.queues[4].dropped);
    }

    #[test]
    fn conservation_per_queue() {
        let out = simulate_port(
            &[
                src(Dscp::for_class(QosClass::C2), 9.0),
                src(Dscp::NON_CONFORMING, 8.0),
            ],
            &PortConfig::default(),
        );
        for q in &out.queues {
            assert!(q.transmitted <= q.accepted);
            // Anything accepted but not transmitted is still queued at the
            // horizon — bounded by the buffer.
            let queued = q.accepted - q.transmitted;
            assert!(queued * 1500 <= BUFFER_BYTES + 1500);
        }
    }
}
