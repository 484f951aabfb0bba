//! Golden-shape regression tests for the `repro` figure pipelines: the
//! exact parameterizations `repro fig22` and `repro fig20` ship with
//! must keep producing curves of the paper's shape, and the fig22
//! pipeline must be invariant under the risk-sweep knobs.

use entitlement_bench::experiments::approval_slo;
use entitlement_bench::experiments::segmented_benefit::{self, BenefitConfig};
use entitlement_core::stats::percentile;

/// The availability targets `repro fig22` sweeps.
const FIG22_TARGETS: &[f64] = &[0.9, 0.95, 0.99, 0.995, 0.999, 0.9995];

#[test]
fn fig22_shape_approval_vs_slo() {
    let out = approval_slo::run_with_sweep(FIG22_TARGETS, 0.45, 0x22, 1, true);
    assert_eq!(out.availability, FIG22_TARGETS);
    assert_eq!(out.egress_approval.len(), FIG22_TARGETS.len());
    assert_eq!(out.ingress_approval.len(), FIG22_TARGETS.len());
    for series in [&out.egress_approval, &out.ingress_approval] {
        // Approval is a rate in [0, 1] and non-increasing in the SLO.
        for &r in series {
            assert!((0.0..=1.0).contains(&r), "approval rate {r} out of range");
        }
        for w in series.windows(2) {
            assert!(
                w[1] <= w[0] + 1e-9,
                "approval must not rise with stricter SLO: {series:?}"
            );
        }
        // Paper shape: generous at 0.9, visibly squeezed at 0.9995.
        assert!(series[0] > 0.5, "loose-SLO approval too low: {series:?}");
        assert!(
            series[series.len() - 1] < series[0],
            "strict SLO must bite: {series:?}"
        );
    }
}

/// The fig22 curves to the bit, as the pipeline produced them when
/// every risk sweep searched its own paths: a round whose hoses each
/// share one route plan across their sweeps must not move a single grant.
#[test]
fn fig22_bits_unmoved_by_the_shared_route_plan() {
    const EGRESS: [f64; 6] = [
        0.6639760248771109,
        0.6639760248771109,
        0.28311130052529465,
        0.263797636010669,
        0.263797636010669,
        0.263797636010669,
    ];
    const INGRESS: [f64; 6] = [
        0.6608109789768739,
        0.6608109789768739,
        0.27587221131854134,
        0.2571494035521757,
        0.2571494035521757,
        0.2571494035521757,
    ];
    let out = approval_slo::run_with_sweep(FIG22_TARGETS, 0.45, 0x22, 1, true);
    let bits = |series: &[f64]| series.iter().map(|r| r.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&out.egress_approval), bits(&EGRESS), "{:?}", out.egress_approval);
    assert_eq!(bits(&out.ingress_approval), bits(&INGRESS), "{:?}", out.ingress_approval);
}

#[test]
fn fig22_invariant_under_sweep_knobs() {
    let baseline = approval_slo::run_with_sweep(FIG22_TARGETS, 0.45, 0x22, 1, false);
    for (workers, dedup) in [(1, true), (4, true), (4, false)] {
        let out = approval_slo::run_with_sweep(FIG22_TARGETS, 0.45, 0x22, workers, dedup);
        for (series, base) in [
            (&out.egress_approval, &baseline.egress_approval),
            (&out.ingress_approval, &baseline.ingress_approval),
        ] {
            let bits: Vec<u64> = series.iter().map(|r| r.to_bits()).collect();
            let base_bits: Vec<u64> = base.iter().map(|r| r.to_bits()).collect();
            assert_eq!(
                bits, base_bits,
                "fig22 diverged at workers={workers} dedup={dedup}"
            );
        }
    }
}

#[test]
fn fig20_shape_tm_reduction_cdf() {
    // Exactly what `repro fig20` runs.
    let out = segmented_benefit::run(&BenefitConfig::default());
    // Nearly all of the 40 synthetic hose cases must resolve within the
    // TM budget — an unresolved tail would silently truncate the CDF.
    assert!(
        out.reductions.len() >= 36,
        "only {} of 40 cases resolved",
        out.reductions.len()
    );
    assert_eq!(out.reductions.len(), out.counts.len());
    // Every reduction is a fraction: segmentation may never need *more*
    // than the full budget relative bound (1.0), and counts must agree.
    for (&red, &(general, segmented)) in out.reductions.iter().zip(&out.counts) {
        assert!(red <= 1.0, "reduction {red} > 1");
        assert!(general >= 1 && segmented >= 1);
        let recomputed = 1.0 - segmented as f64 / general as f64;
        assert!((red - recomputed).abs() < 1e-12);
    }
    // CDF shape: percentiles are monotone by construction; the paper's
    // headline bounds must hold with slack — a substantial median
    // reduction and a clear win even in 90% of cases.
    let deciles: Vec<f64> = [10.0, 25.0, 50.0, 75.0, 90.0]
        .iter()
        .map(|&p| percentile(&out.reductions, p))
        .collect();
    for w in deciles.windows(2) {
        assert!(w[1] >= w[0] - 1e-12, "percentile CDF not monotone: {deciles:?}");
    }
    let median = percentile(&out.reductions, 50.0);
    assert!(median > 0.3, "median TM reduction {median} too small");
    let at90 = out.at_fraction(0.9);
    assert!(
        at90 > 0.1,
        "reduction in 90% of cases {at90} below paper-shape floor"
    );
    assert!(at90 <= median + 1e-12, "at_fraction(0.9) exceeds median");
}
