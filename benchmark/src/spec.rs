//! The benchmark's contract: workload names, metric names, units,
//! directions and bounds. `BENCHMARK.json` at the repo root is
//! `spec_json()` verbatim (pinned by a unit test), so a metric exists
//! exactly when this file names it.

/// How long one run measures (set-up rebuilds plus repetitions).
pub const RUN_SECONDS: u64 = 15;

pub struct WorkloadSpec {
    pub name: &'static str,
    /// One line, at most 200 characters: why the workload exists and its
    /// final tuned sizes.
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 5] = [
    WorkloadSpec {
        name: "admit_warm",
        why: "200k tiny asks on a warm 4320-slot index, 0% sweeps: isolates market (probe, consume, ledger); the control on which a risk or sweep change must show nothing",
    },
    WorkloadSpec {
        name: "admit_exhausted",
        why: "4800 asks, 360 of them exhaust a slot and 720 re-ask it (15% sweep path, each a re-proved zero): risk+topology through market's fallback, p50 in index mode, p99 in sweep mode",
    },
    WorkloadSpec {
        name: "admit_traced",
        why: "admit_warm's storm cut to 50k through admit_obs with a counting-clock Obs, then to_jsonl+render: obs does most of the work; gates traced-vs-untraced cost",
    },
    WorkloadSpec {
        name: "fleet_cycle",
        why: "1e6 hosts/256 shards, 8 run_fleet_engine calls of 8 cycles over load 0.5/1/2/10 x 2 seeds: enforcement host+meter passes with kvstore/slo/watch riding along; bypasses market and risk",
    },
    WorkloadSpec {
        name: "approval_round",
        why: "60 of the plan pipeline's 82 segmented hoses in 12 approve_requests rounds of 2-10: Algorithm 2 in bulk (hose TMs, analyzer pre-flight, risk sweep, curve read), no market index in the way",
    },
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Relative worsening that counts as a regression; end-to-end only.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound,
    }
}

const fn lo(name: &'static str, unit: &'static str) -> MetricSpec {
    e2e(name, unit, Better::Lower, 0.0)
}

const fn hi(name: &'static str, unit: &'static str) -> MetricSpec {
    e2e(name, unit, Better::Higher, 0.0)
}

pub const END_TO_END: [MetricSpec; 6] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("work_per_s", "1/s", Better::Higher, 0.20),
    e2e("call_p50_us", "us", Better::Lower, 0.20),
    e2e("call_tail_us", "us", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.20),
    e2e("yield_share", "share", Better::Higher, 0.001),
];

/// Per-layer metrics, grouped by the crate they measure. README.md has
/// the table saying how each is measured and which end-to-end metric it
/// should move.
pub const PER_LAYER: [MetricSpec; 56] = [
    lo("market.index_admit_ns", "ns"),
    lo("market.index_consume_ns", "ns"),
    lo("market.index_install_ns", "ns"),
    lo("market.sweep_admit_us", "us"),
    lo("market.sweep_share", "share"),
    lo("market.sweep_zero_grant_share", "share"),
    lo("market.sweep_overhead_us", "us"),
    lo("market.new_ms", "ms"),
    lo("market.warm_ms", "ms"),
    lo("market.warm_probes", "count"),
    lo("market.clone_ms", "ms"),
    lo("market.invalidate_us", "us"),
    lo("market.rewarm_ms", "ms"),
    lo("risk.headroom_probe_us", "us"),
    lo("risk.assess_ms", "ms"),
    hi("risk.scenarios_per_s", "1/s"),
    hi("risk.dedup_share", "share"),
    hi("risk.par_speedup_x", "x"),
    lo("topology.build_ms", "ms"),
    lo("topology.enumerate_ms", "ms"),
    lo("topology.scenarios", "count"),
    lo("topology.route_us", "us"),
    lo("hose.segment_us", "us"),
    lo("hose.tmgen_us", "us"),
    lo("workload.catalog_ms", "ms"),
    lo("workload.matrix_us", "us"),
    lo("analyzer.preflight_us", "us"),
    lo("approval.round_ms", "ms"),
    lo("approval.hose_ms", "ms"),
    lo("approval.unattributed_share", "share"),
    lo("enforcement.state_build_ms", "ms"),
    lo("enforcement.cycle_ms", "ms"),
    lo("enforcement.host_cycle_ns", "ns"),
    lo("enforcement.meter_update_ns", "ns"),
    lo("enforcement.shard_cycle_us", "us"),
    hi("enforcement.par_speedup_x", "x"),
    lo("kvstore.put_shard_batch_us", "us"),
    lo("kvstore.fanout_refresh_us", "us"),
    lo("kvstore.fanout_reads", "count"),
    lo("slo.observe_us", "us"),
    lo("slo.fold_trace_ms", "ms"),
    lo("watch.observe_cycle_us", "us"),
    lo("watch.observe_admit_ns", "ns"),
    lo("watch.fold_trace_ms", "ms"),
    lo("obs.span_disabled_ns", "ns"),
    lo("obs.span_enabled_ns", "ns"),
    lo("obs.admit_overhead_x", "x"),
    lo("obs.events_per_admit", "count"),
    lo("obs.trace_bytes_per_admit", "count"),
    lo("obs.render_ms", "ms"),
    lo("bench.timer_ns", "ns"),
    lo("bench.interference_x", "x"),
    lo("bench.rep_spread", "share"),
    hi("bench.reps", "count"),
    lo("bench.spans", "count"),
    lo("bench.trace_overhead_x", "x"),
];

/// `BENCHMARK.json`, byte for byte.
pub fn spec_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}\n",
            w.name, w.why
        ));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound
        ));
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}\n",
            m.name,
            m.unit,
            m.better.as_str()
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    #[test]
    fn benchmark_json_is_the_spec() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(on_disk, spec_json(), "regenerate with `benchmark spec`");
        assert!(on_disk.len() <= 64 * 1024);
        serde_json::parse(&on_disk).expect("valid JSON");
    }

    #[test]
    fn names_units_and_bounds_meet_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: {}",
                w.name,
                w.why.len()
            );
            assert!(seen.insert(w.name), "duplicate {}", w.name);
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(name_ok(m.name), "{}", m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit.bytes().all(|b| b.is_ascii_alphanumeric()
                        || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-')),
                "{}: unit {}",
                m.name,
                m.unit
            );
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }
}
