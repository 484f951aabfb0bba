//! The interference probe and the timers that carry it.
//!
//! The box this benchmark runs on shares its cores and caches with
//! other tenants, and how hard they press changes by the tens of
//! seconds: the same binary on the same seed ran a repetition in 0.35 s
//! and in 0.65 s an hour apart, and no statistic of raw wall-clock
//! readings - minimum, quartile or median - held still across runs.
//! What does hold still is the *ratio* between the measured work and a
//! small fixed kernel run in its gaps: both slow down together.
//!
//! So every timer reading is followed by the probe, and a run reports
//! its timings divided by its *interference factor*
//! `mean probe reading / PROBE_QUIET_NS` - the time the work would take
//! with the neighbours quiet. Raw wall-clock and the factor are printed
//! beside every normalised number.

use std::collections::{BTreeMap, BinaryHeap};
use std::hint::black_box;
use std::time::Instant;

/// The probe's time on the reference box (2-vCPU Firecracker guest on a
/// Xeon "Sapphire Rapids" host, rustc 1.95 release build) with its
/// neighbours quiet: the 0.2 % quantile of 186 000 readings over 150 s;
/// their median was 8 834 ns and their mean 9 534 ns. On another box
/// the factor also carries that box's speed relative to this one, which
/// leaves comparisons made on one box untouched.
pub const PROBE_QUIET_NS: f64 = 6_000.0;

/// Run the probe once this much measured time has passed since the last
/// one, so cheap segments are not swamped by probing.
const PROBE_EVERY_NS: u64 = 200_000;
/// At most this many probes after one long call.
const BURST: u64 = 16;
/// A reading is judged by this many probes on each side of it: enough
/// that their own scatter (about 15 % each) averages out, few enough
/// that they ran within milliseconds of a cheap call or within the two
/// calls either side of a long one.
const NEAR: usize = 32;

/// A fixed routing-like kernel owned by the benchmark: Dijkstra over a
/// 24-node graph from two sources, every path materialised, residuals
/// kept in a `BTreeMap` - heap, small allocations, pointer chasing and
/// float compares in about the mix the library's own hot paths have. It
/// must never call the library: a change to the library must not move
/// the yardstick.
pub struct Probe {
    adj: Vec<Vec<(usize, f64)>>,
    turn: usize,
}

impl Probe {
    pub fn new() -> Probe {
        let n = 24;
        let mut adj = vec![Vec::new(); n];
        for i in 0..n {
            let j = (i + 1) % n;
            adj[i].push((j, 1.0 + (i % 5) as f64));
            adj[j].push((i, 1.0 + (i % 3) as f64));
        }
        let mut x = 0x1234_5678_9abc_def0u64;
        for _ in 0..30 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let a = (x % n as u64) as usize;
            let b = ((x >> 20) % n as u64) as usize;
            if a != b {
                adj[a].push((b, 2.0 + (x % 7) as f64));
                adj[b].push((a, 2.0 + (x % 5) as f64));
            }
        }
        Probe { adj, turn: 0 }
    }

    /// The kernel itself: total path length and residual entries from
    /// `src`. Pure, so a test can pin it.
    fn kernel(&self, src: usize) -> (f64, usize) {
        let n = self.adj.len();
        let mut residual: BTreeMap<(u16, u16), f64> = BTreeMap::new();
        let mut total = 0.0;
        for s in [src % n, (src + 7) % n] {
            let mut dist = vec![f64::INFINITY; n];
            let mut prev = vec![usize::MAX; n];
            let mut heap = BinaryHeap::new();
            dist[s] = 0.0;
            heap.push((std::cmp::Reverse(0u64), s));
            // Non-negative floats order like their bit patterns.
            while let Some((std::cmp::Reverse(bits), u)) = heap.pop() {
                let d = f64::from_bits(bits);
                if d > dist[u] {
                    continue;
                }
                for &(v, w) in &self.adj[u] {
                    let nd = d + w;
                    if nd < dist[v] {
                        dist[v] = nd;
                        prev[v] = u;
                        heap.push((std::cmp::Reverse(nd.to_bits()), v));
                    }
                }
            }
            for dst in (0..n).filter(|&dst| dst != s) {
                let mut path = Vec::new();
                let mut hop = dst;
                while hop != s {
                    path.push(hop);
                    hop = prev[hop];
                }
                for link in path.windows(2) {
                    *residual
                        .entry((link[0] as u16, link[1] as u16))
                        .or_insert(100.0) -= 0.5;
                }
                total += dist[dst];
            }
        }
        (total, residual.len())
    }

    /// One timed probe, in nanoseconds.
    pub fn run(&mut self) -> u64 {
        self.turn += 1;
        let t = Instant::now();
        black_box(self.kernel(self.turn));
        t.elapsed().as_nanos() as u64
    }

    /// Mean of `n` probes, in nanoseconds.
    pub fn burst(&mut self, n: u64) -> f64 {
        (0..n).map(|_| self.run()).sum::<u64>() as f64 / n as f64
    }
}

/// The timers of one repetition: every reading is kept, and the probe
/// runs in the gaps between them.
pub struct Timers<'a> {
    /// One reading per timed stretch, nanoseconds, in order.
    pub ns: Vec<u64>,
    probe: &'a mut Probe,
    /// Every probe reading, with the number of timer readings taken
    /// before it ran.
    probes: Vec<(usize, u64)>,
    since_probe_ns: u64,
}

impl<'a> Timers<'a> {
    /// `ns` is a buffer to reuse; the repetition opens with a burst.
    pub fn new(probe: &'a mut Probe, mut ns: Vec<u64>) -> Timers<'a> {
        ns.clear();
        let mut t = Timers {
            ns,
            probe,
            probes: Vec::new(),
            since_probe_ns: 0,
        };
        t.probe(BURST);
        t
    }

    fn probe(&mut self, n: u64) {
        for _ in 0..n {
            self.probes.push((self.ns.len(), self.probe.run()));
        }
        self.since_probe_ns = 0;
    }

    /// Time `f`, then probe: once per `PROBE_EVERY_NS` of measured
    /// time, up to `BURST` probes after one long stretch.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        let ns = t.elapsed().as_nanos() as u64;
        self.ns.push(ns);
        self.since_probe_ns += ns;
        if self.since_probe_ns >= PROBE_EVERY_NS {
            self.probe((self.since_probe_ns / PROBE_EVERY_NS).min(BURST));
        }
        out
    }

    /// Seconds inside the timers.
    pub fn total_s(&self) -> f64 {
        self.ns.iter().sum::<u64>() as f64 / 1e9
    }

    /// The repetition's interference factor.
    pub fn interference(&self) -> f64 {
        let sum: u64 = self.probes.iter().map(|p| p.1).sum();
        interference(sum as f64 / self.probes.len() as f64)
    }

    /// Every reading over the interference factor of its own moment:
    /// the mean of the `NEAR` probes that ran just before it and the
    /// `NEAR` that ran just after. Nanoseconds, in order.
    pub fn quiet_ns(&self) -> Vec<f64> {
        let half = NEAR;
        // `after` is the first probe that ran after reading `i`.
        let mut after = 0;
        self.ns
            .iter()
            .enumerate()
            .map(|(i, &ns)| {
                while after < self.probes.len() && self.probes[after].0 <= i {
                    after += 1;
                }
                let window =
                    &self.probes[after.saturating_sub(half)..(after + half).min(self.probes.len())];
                let sum: u64 = window.iter().map(|p| p.1).sum();
                ns as f64 / interference(sum as f64 / window.len() as f64)
            })
            .collect()
    }
}

/// How much slower than quiet the probe ran.
pub fn interference(mean_probe_ns: f64) -> f64 {
    mean_probe_ns / PROBE_QUIET_NS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_probe_kernel_is_pinned() {
        // The yardstick: if this changes, every number the benchmark
        // ever printed stops being comparable.
        let p = Probe::new();
        assert_eq!(p.adj.iter().map(Vec::len).sum::<usize>(), 106);
        assert_eq!(p.kernel(0), (238.0, 31));
        assert_eq!(p.kernel(5), (296.0, 36));
    }

    #[test]
    fn timers_keep_every_reading_and_probe_in_the_gaps() {
        let mut probe = Probe::new();
        let mut t = Timers::new(&mut probe, vec![1, 2, 3]);
        assert!(t.ns.is_empty(), "the buffer is reused, not its contents");
        assert_eq!(t.probes.len() as u64, BURST);
        assert_eq!(t.time(|| 7), 7);
        t.time(|| {
            let spin = Instant::now();
            while spin.elapsed().as_micros() < 450 {}
        });
        assert_eq!(t.ns.len(), 2);
        assert_eq!(
            t.probes.len() as u64,
            BURST + 2,
            "450 us of work earns two probes"
        );
        assert_eq!(
            t.probes[BURST as usize].0, 2,
            "they ran after the second reading"
        );
        assert!((t.total_s() - (t.ns[0] + t.ns[1]) as f64 / 1e9).abs() < 1e-12);

        // Slow the opening burst to twice the quiet probe: both readings
        // sit between it and the two probes after them.
        for (i, p) in t.probes.iter_mut().enumerate() {
            p.1 = if i < BURST as usize {
                2 * PROBE_QUIET_NS as u64
            } else {
                PROBE_QUIET_NS as u64
            };
        }
        t.ns = vec![1_000, 3_000];
        let factor = (16.0 * 2.0 + 2.0) / 18.0;
        let quiet = t.quiet_ns();
        assert!(
            (quiet[0] - 1_000.0 / factor).abs() < 1e-9
                && (quiet[1] - 3_000.0 / factor).abs() < 1e-9
        );
        // A later reading, with `NEAR` quiet probes between, sees only
        // quiet ones.
        t.ns.push(5_000);
        for _ in 0..NEAR {
            t.probes.push((2, PROBE_QUIET_NS as u64));
        }
        assert_eq!(t.quiet_ns()[2], 5_000.0);
    }
}
