//! Seeded, deterministic fault schedules.
//!
//! A [`FaultPlan`] is pure data: a seed plus a list of faults, each
//! active over a half-open window of *logical* milliseconds. Every
//! query is a pure function of `(plan, key, now_ms)` — two runs of the
//! same plan against the same workload inject exactly the same faults,
//! which is what lets chaos tests assert invariants instead of
//! eyeballing flakes.

use serde::{Deserialize, Serialize};

/// A half-open activity window `[from_ms, to_ms)` in logical time.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimeWindow {
    /// First millisecond the fault is active.
    pub from_ms: u64,
    /// First millisecond it no longer is.
    pub to_ms: u64,
}

impl TimeWindow {
    /// Window covering `[from_ms, to_ms)`.
    pub fn new(from_ms: u64, to_ms: u64) -> Self {
        TimeWindow { from_ms, to_ms }
    }

    /// Is `now_ms` inside the window?
    pub fn contains(&self, now_ms: u64) -> bool {
        now_ms >= self.from_ms && now_ms < self.to_ms
    }
}

/// What breaks while a fault's window is active.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// The listed shards (by index; empty list = every shard) are
    /// unreachable. Reads and writes on an affected shard fail, and
    /// **every aggregate fails** — a prefix sum missing a shard would
    /// silently under-count, which is exactly the "outage reads as no
    /// traffic" hazard fail-static exists to prevent.
    ShardOutage {
        /// Affected shard indices; empty = total outage.
        shards: Vec<usize>,
    },
    /// Publishes are silently lost in transit with this probability
    /// (deterministic per `(seed, key, now_ms)`): the writer sees
    /// success, the value just never lands — stale entries then age
    /// out of aggregates through the TTL.
    DropPublishes {
        /// Loss probability in `[0, 1]`.
        fraction: f64,
    },
    /// Reads and aggregates return the values observed when the window
    /// opened (a wedged replica serving a frozen snapshot).
    StaleReads,
    /// The store's notion of "now" is offset by `skew_ms` relative to
    /// the writers' clocks, so TTL liveness is judged on a skewed
    /// clock (positive skew prematurely expires entries).
    ClockSkew {
        /// Offset added to the logical clock, in milliseconds.
        skew_ms: i64,
    },
    /// The listed agent hosts are down (crashed); they neither publish
    /// nor meter, and restart with fresh (lost) meter state when the
    /// window closes.
    AgentCrash {
        /// Hosts that crash.
        hosts: Vec<u32>,
    },
    /// The listed backbone links (raw `LinkId` values; the chaos crate
    /// is topology-agnostic) are cut while the window is active. A
    /// serving-side consumer must invalidate any capacity it derived
    /// from the pre-cut topology — serving stale headroom across a cut
    /// is the exact failure mode the market's fail-closed epoch rule
    /// exists to prevent.
    LinkCut {
        /// Raw link ids that are down.
        links: Vec<u32>,
    },
}

impl FaultKind {
    /// The family's name, as a plan's JSON spells it.
    pub fn family(&self) -> &'static str {
        match self {
            FaultKind::ShardOutage { .. } => "ShardOutage",
            FaultKind::DropPublishes { .. } => "DropPublishes",
            FaultKind::StaleReads => "StaleReads",
            FaultKind::ClockSkew { .. } => "ClockSkew",
            FaultKind::AgentCrash { .. } => "AgentCrash",
            FaultKind::LinkCut { .. } => "LinkCut",
        }
    }
}

/// One scheduled fault.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Fault {
    /// When the fault is active.
    pub window: TimeWindow,
    /// What breaks.
    pub kind: FaultKind,
}

/// A complete, deterministic fault schedule.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed for per-operation randomness (publish drops).
    pub seed: u64,
    /// Scheduled faults; windows may overlap.
    pub faults: Vec<Fault>,
}

/// SplitMix64 finalizer: cheap stateless hash for per-op decisions.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// A plan that injects nothing.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// No faults scheduled at all?
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Parse a plan from its JSON representation.
    ///
    /// A plan that parses but would silently mean something else is
    /// refused, naming the index of the first bad fault: a window whose
    /// `from_ms` is after its `to_ms` (it would never fire) and a
    /// `DropPublishes` fraction outside `[0, 1]` (it would act as the
    /// nearest bound).
    pub fn from_json(text: &str) -> Result<FaultPlan, String> {
        let plan: FaultPlan =
            serde_json::from_str(text).map_err(|e| format!("invalid fault plan: {e}"))?;
        for (i, fault) in plan.faults.iter().enumerate() {
            let TimeWindow { from_ms, to_ms } = fault.window;
            if from_ms > to_ms {
                return Err(format!(
                    "invalid fault plan: fault {i}: window from_ms {from_ms} is after to_ms {to_ms}"
                ));
            }
            if let FaultKind::DropPublishes { fraction } = fault.kind {
                if !(0.0..=1.0).contains(&fraction) {
                    return Err(format!(
                        "invalid fault plan: fault {i}: DropPublishes fraction {fraction} is outside [0, 1]"
                    ));
                }
            }
        }
        Ok(plan)
    }

    /// Refuse a plan that names a family `consumer` does not honour,
    /// naming the index of the first such fault: a fault nobody injects
    /// would let the run pass for a faulted one.
    pub fn check_honoured(&self, consumer: &str, honoured: &[&str]) -> Result<(), String> {
        match self
            .faults
            .iter()
            .position(|f| !honoured.contains(&f.kind.family()))
        {
            None => Ok(()),
            Some(i) => Err(format!(
                "invalid fault plan: fault {i}: {consumer} does not honour {} (it honours {})",
                self.faults[i].kind.family(),
                honoured.join(", ")
            )),
        }
    }

    /// Serialize the plan to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("fault plans always serialize")
    }

    fn active(&self, now_ms: u64) -> impl Iterator<Item = &FaultKind> {
        self.faults
            .iter()
            .filter(move |f| f.window.contains(now_ms))
            .map(|f| &f.kind)
    }

    /// Is the shard holding `shard_idx` unreachable at `now_ms`?
    pub fn shard_down(&self, shard_idx: usize, now_ms: u64) -> bool {
        self.active(now_ms).any(|k| match k {
            FaultKind::ShardOutage { shards } => {
                shards.is_empty() || shards.contains(&shard_idx)
            }
            _ => false,
        })
    }

    /// Is *any* shard unreachable at `now_ms`? (Aggregates span every
    /// shard, so one down shard makes the whole sum unavailable.)
    pub fn any_shard_down(&self, now_ms: u64) -> bool {
        self.active(now_ms)
            .any(|k| matches!(k, FaultKind::ShardOutage { .. }))
    }

    /// Should this publish be silently dropped? Deterministic in
    /// `(seed, key, now_ms)`.
    pub fn drop_publish(&self, key_hash: u64, now_ms: u64) -> bool {
        self.active(now_ms).any(|k| match k {
            FaultKind::DropPublishes { fraction } => {
                let h = mix(self.seed ^ key_hash ^ mix(now_ms));
                (h as f64 / u64::MAX as f64) < *fraction
            }
            _ => false,
        })
    }

    /// If reads are frozen at `now_ms`, the timestamp the snapshot was
    /// taken at (the window's opening edge).
    pub fn reads_frozen_at(&self, now_ms: u64) -> Option<u64> {
        self.faults
            .iter()
            .filter(|f| f.window.contains(now_ms))
            .find_map(|f| match f.kind {
                FaultKind::StaleReads => Some(f.window.from_ms),
                _ => None,
            })
    }

    /// The logical clock the store sees at `now_ms` (clock skew
    /// applied, saturating at zero).
    pub fn skewed_now(&self, now_ms: u64) -> u64 {
        let skew: i64 = self
            .active(now_ms)
            .map(|k| match k {
                FaultKind::ClockSkew { skew_ms } => *skew_ms,
                _ => 0,
            })
            .sum();
        now_ms.saturating_add_signed(skew)
    }

    /// Every agent host crashed at `now_ms`, ascending and distinct.
    pub fn down_hosts(&self, now_ms: u64) -> Vec<u32> {
        let mut out = Vec::new();
        for k in self.active(now_ms) {
            if let FaultKind::AgentCrash { hosts } = k {
                out.extend_from_slice(hosts);
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Raw ids of every link cut at `now_ms`, deduplicated, in first-
    /// seen order across overlapping windows.
    pub fn cut_links(&self, now_ms: u64) -> Vec<u32> {
        let mut out = Vec::new();
        for k in self.active(now_ms) {
            if let FaultKind::LinkCut { links } = k {
                for l in links {
                    if !out.contains(l) {
                        out.push(*l);
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outage(from: u64, to: u64, shards: Vec<usize>) -> Fault {
        Fault {
            window: TimeWindow::new(from, to),
            kind: FaultKind::ShardOutage { shards },
        }
    }

    #[test]
    fn windows_are_half_open() {
        let w = TimeWindow::new(100, 200);
        assert!(!w.contains(99));
        assert!(w.contains(100));
        assert!(w.contains(199));
        assert!(!w.contains(200));
    }

    #[test]
    fn shard_outage_scopes_by_index() {
        let plan = FaultPlan {
            seed: 1,
            faults: vec![outage(100, 200, vec![2, 5])],
        };
        assert!(plan.shard_down(2, 150));
        assert!(plan.shard_down(5, 150));
        assert!(!plan.shard_down(3, 150));
        assert!(!plan.shard_down(2, 250), "outside the window");
        assert!(plan.any_shard_down(150));
        assert!(!plan.any_shard_down(50));
        // Empty shard list = total outage.
        let total = FaultPlan {
            seed: 1,
            faults: vec![outage(0, 10, vec![])],
        };
        assert!(total.shard_down(11, 5));
    }

    #[test]
    fn drop_publish_is_deterministic_and_seeded() {
        let plan = FaultPlan {
            seed: 42,
            faults: vec![Fault {
                window: TimeWindow::new(0, 1000),
                kind: FaultKind::DropPublishes { fraction: 0.5 },
            }],
        };
        let other_seed = FaultPlan { seed: 43, ..plan.clone() };
        let mut dropped = 0;
        let mut diverged = false;
        for t in 0..1000u64 {
            let a = plan.drop_publish(0xDEAD, t);
            assert_eq!(a, plan.drop_publish(0xDEAD, t), "same inputs, same call");
            if a != other_seed.drop_publish(0xDEAD, t) {
                diverged = true;
            }
            dropped += u64::from(a);
        }
        assert!(diverged, "different seeds give different schedules");
        assert!(
            (300..700).contains(&dropped),
            "~half dropped at fraction 0.5, got {dropped}"
        );
        // fraction 0 drops nothing; fraction 1 drops everything.
        let never = FaultPlan {
            seed: 42,
            faults: vec![Fault {
                window: TimeWindow::new(0, 1000),
                kind: FaultKind::DropPublishes { fraction: 0.0 },
            }],
        };
        let always = FaultPlan {
            seed: 42,
            faults: vec![Fault {
                window: TimeWindow::new(0, 1000),
                kind: FaultKind::DropPublishes { fraction: 1.0 },
            }],
        };
        for t in 0..100 {
            assert!(!never.drop_publish(1, t));
            assert!(always.drop_publish(1, t));
        }
    }

    #[test]
    fn clock_skew_sums_over_overlaps() {
        let plan = FaultPlan {
            seed: 0,
            faults: vec![
                Fault {
                    window: TimeWindow::new(0, 100),
                    kind: FaultKind::ClockSkew { skew_ms: 50 },
                },
                Fault {
                    window: TimeWindow::new(0, 100),
                    kind: FaultKind::ClockSkew { skew_ms: -20 },
                },
            ],
        };
        assert_eq!(plan.skewed_now(10), 40);
        assert_eq!(plan.skewed_now(150), 150, "no skew outside windows");
        // Negative skew saturates at zero.
        let back = FaultPlan {
            seed: 0,
            faults: vec![Fault {
                window: TimeWindow::new(0, 100),
                kind: FaultKind::ClockSkew { skew_ms: -1000 },
            }],
        };
        assert_eq!(back.skewed_now(10), 0);
    }

    #[test]
    fn stale_reads_freeze_at_window_entry() {
        let plan = FaultPlan {
            seed: 0,
            faults: vec![Fault {
                window: TimeWindow::new(500, 900),
                kind: FaultKind::StaleReads,
            }],
        };
        assert_eq!(plan.reads_frozen_at(400), None);
        assert_eq!(plan.reads_frozen_at(600), Some(500));
        assert_eq!(plan.reads_frozen_at(900), None);
    }

    #[test]
    fn agent_crash_targets_hosts() {
        let crash = |from, to, hosts| Fault {
            window: TimeWindow::new(from, to),
            kind: FaultKind::AgentCrash { hosts },
        };
        let plan = FaultPlan {
            seed: 0,
            faults: vec![crash(100, 300, vec![9, 3]), crash(200, 400, vec![3, 5])],
        };
        assert!(plan.down_hosts(50).is_empty());
        assert_eq!(plan.down_hosts(100), [3, 9]);
        assert_eq!(plan.down_hosts(250), [3, 5, 9], "overlap sorts and dedups");
        assert_eq!(plan.down_hosts(300), [3, 5], "restarts when the window closes");
    }

    #[test]
    fn a_consumer_refuses_the_families_it_does_not_honour() {
        let plan = FaultPlan {
            seed: 0,
            faults: vec![
                outage(0, 10, vec![]),
                Fault {
                    window: TimeWindow::new(0, 10),
                    kind: FaultKind::AgentCrash { hosts: vec![1] },
                },
            ],
        };
        assert_eq!(plan.check_honoured("everyone", &["ShardOutage", "AgentCrash"]), Ok(()));
        assert_eq!(
            plan.check_honoured("the drill", &["ShardOutage", "StaleReads"]),
            Err("invalid fault plan: fault 1: the drill does not honour AgentCrash \
(it honours ShardOutage, StaleReads)"
                .to_string())
        );
        assert_eq!(FaultPlan::none().check_honoured("nobody", &[]), Ok(()));
    }

    #[test]
    fn link_cuts_window_and_dedup() {
        let plan = FaultPlan {
            seed: 0,
            faults: vec![
                Fault {
                    window: TimeWindow::new(100, 300),
                    kind: FaultKind::LinkCut { links: vec![4, 9] },
                },
                Fault {
                    window: TimeWindow::new(200, 400),
                    kind: FaultKind::LinkCut { links: vec![9, 2] },
                },
            ],
        };
        assert!(plan.cut_links(50).is_empty());
        assert_eq!(plan.cut_links(150), vec![4, 9]);
        assert_eq!(plan.cut_links(250), vec![4, 9, 2], "overlap dedups");
        assert_eq!(plan.cut_links(350), vec![9, 2]);
        assert!(plan.cut_links(400).is_empty(), "half-open close");
    }

    #[test]
    fn json_roundtrip() {
        let plan = FaultPlan {
            seed: 7,
            faults: vec![
                outage(1000, 2000, vec![0, 1]),
                Fault {
                    window: TimeWindow::new(0, 500),
                    kind: FaultKind::DropPublishes { fraction: 0.25 },
                },
                Fault {
                    window: TimeWindow::new(100, 200),
                    kind: FaultKind::StaleReads,
                },
                Fault {
                    window: TimeWindow::new(100, 200),
                    kind: FaultKind::ClockSkew { skew_ms: -3 },
                },
                Fault {
                    window: TimeWindow::new(100, 200),
                    kind: FaultKind::AgentCrash { hosts: vec![1] },
                },
            ],
        };
        let json = plan.to_json();
        let back = FaultPlan::from_json(&json).expect("roundtrip");
        assert_eq!(back, plan);
        // A hand-written plan (the CLI input shape) parses too.
        let hand = r#"{
            "seed": 7,
            "faults": [
                {"window": {"from_ms": 0, "to_ms": 60000},
                 "kind": {"ShardOutage": {"shards": []}}},
                {"window": {"from_ms": 0, "to_ms": 1000},
                 "kind": "StaleReads"}
            ]
        }"#;
        let p = FaultPlan::from_json(hand).expect("hand-written plan");
        assert_eq!(p.faults.len(), 2);
        assert!(p.any_shard_down(30_000));
        assert!(FaultPlan::from_json("{nonsense").is_err());
        // An unknown family is refused.
        let latency = r#"{"seed":1,"faults":[{"window":{"from_ms":0,"to_ms":10},
            "kind":{"AddedLatency":{"ms":20}}}]}"#;
        assert!(FaultPlan::from_json(latency).is_err());
    }

    #[test]
    fn plans_that_would_mean_something_else_name_the_bad_fault() {
        let plan = |second: &str| {
            format!(
                r#"{{"seed":1,"faults":[{{"window":{{"from_ms":0,"to_ms":10}},"kind":"StaleReads"}},{second}]}}"#
            )
        };
        let drop = |fraction: &str| {
            plan(&format!(
                r#"{{"window":{{"from_ms":0,"to_ms":10}},"kind":{{"DropPublishes":{{"fraction":{fraction}}}}}}}"#
            ))
        };
        for fraction in ["0", "0.5", "1"] {
            assert!(FaultPlan::from_json(&drop(fraction)).is_ok(), "{fraction}");
        }
        for fraction in ["1.5", "-0.1"] {
            let e = FaultPlan::from_json(&drop(fraction)).unwrap_err();
            assert!(e.contains("fault 1:") && e.contains("fraction"), "{e}");
        }
        let window = |from: u64, to: u64| {
            plan(&format!(
                r#"{{"window":{{"from_ms":{from},"to_ms":{to}}},"kind":"StaleReads"}}"#
            ))
        };
        assert!(FaultPlan::from_json(&window(5, 5)).is_ok(), "empty window");
        let e = FaultPlan::from_json(&window(6, 5)).unwrap_err();
        assert!(e.contains("fault 1:") && e.contains("from_ms 6"), "{e}");
    }
}
