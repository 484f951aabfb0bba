//! Cross-crate integration: the complete entitlement lifecycle, from
//! synthetic history through forecast, hose conversion, approval,
//! contract storage, and runtime enforcement.

use network_entitlement::core::period::DAYS_PER_MONTH;
use network_entitlement::forecast::{ForecastPipeline, PipelineConfig};
use network_entitlement::hose::segment::FlowSeries;
use network_entitlement::prelude::*;

/// Forecast a service's demand, convert it into a segmented hose,
/// approve it against the backbone, store the contract, and enforce it.
#[test]
fn full_lifecycle() {
    // --- 1. Demand history and forecast. ------------------------------
    let history = HistorySpec {
        months: 15,
        base_rate: Rate::gbps(150.0),
        monthly_growth: 0.02,
        seed: 0xE2E,
        ..Default::default()
    }
    .generate();
    let (train, _) = history.split(12);
    let regs: Vec<Vec<f64>> = history
        .regressors
        .iter()
        .map(|r| r.features().to_vec())
        .collect();
    let pipe = ForecastPipeline::fit(train, &history.holidays, &regs[..12], PipelineConfig::default())
        .expect("forecast fits");
    let future = [regs[12].clone(), regs[13].clone(), regs[14].clone()];
    let forecast = pipe.forecast_quarter(&regs[..12], &future);
    let sli = Rate::bps(forecast.sli_bps);
    assert!(
        sli.as_gbps() > 100.0 && sli.as_gbps() < 400.0,
        "plausible SLI: {sli}"
    );

    // --- 2. Hose conversion with segmentation. -------------------------
    let topo = BackboneSpec::small(0xE2E).build();
    let dcs = topo.dc_ids();
    let src = dcs[0];
    let mut flows = FlowSeries::new();
    for (i, &dst) in dcs.iter().skip(1).enumerate() {
        let base = sli.as_bps() / 2f64.powi(i as i32 + 1);
        flows.insert(dst, (0..12).map(|t| base * (1.0 + 0.05 * (t as f64).sin())).collect());
    }
    let hose = segment_flow_series(NpgId(1), QosClass::C2, src, Direction::Egress, sli, &flows)
        .expect("segmentable");
    assert!(hose.segments.len() == 2);
    assert!(hose.reserved_capacity().as_bps() < sli.as_bps() * dcs.len() as f64);

    // --- 3. Approval. ---------------------------------------------------
    let slo = SloTarget::new(0.99).unwrap();
    let approvals = hose_approval(&topo, &[hose], &[slo], &ApprovalConfig::default());
    let approved = approvals[0].approved_total;
    assert!(approved.as_bps() > 0.0, "some volume approved");
    assert!(approved.as_bps() <= sli.as_bps() * (1.0 + 1e-9));

    // --- 4. Contract storage. -------------------------------------------
    let db = ContractDb::new();
    db.insert(
        NpgId(1),
        slo,
        vec![Entitlement {
            npg: NpgId(1),
            qos: QosClass::C2,
            region: src,
            direction: Direction::Egress,
            entitled_rate: approved,
            period: Quarter(0).period(),
        }],
    )
    .unwrap();

    // --- 5. Enforcement convergence. --------------------------------------
    let mut agent = Agent::new(AgentConfig {
        host: HostId(0),
        npg: NpgId(1),
        qos: QosClass::C2,
        region: src,
        strategy: MarkingStrategy::HostBased,
    });
    agent.refresh_contract(&db, 10);
    let demand = approved * 1.5;
    let mut conform = demand;
    let mut cr = 1.0;
    for _ in 0..10 {
        cr = agent.cycle(demand, conform);
        conform = demand * cr;
    }
    assert!(
        (conform.as_bps() - approved.as_bps()).abs() < 0.05 * approved.as_bps(),
        "conforming rate {conform} settles at the entitlement {approved} (cr {cr})"
    );
}

/// The catalog's high-touch set feeds the approval engine; low-touch
/// services are aggregated (§4.3) and still protected.
#[test]
fn high_touch_low_touch_approval() {
    use network_entitlement::workload::ontology::CatalogSpec;
    let topo = BackboneSpec::small(0x47).build();
    let catalog = ServiceCatalog::generate(&CatalogSpec {
        tail_services: 100,
        total_traffic: Rate::tbps(4.0),
        ..Default::default()
    });
    let dcs = topo.dc_ids();
    let high = catalog.high_touch(0.75);
    assert!(high.len() <= 10);

    let mut hoses = Vec::new();
    let mut slos = Vec::new();
    // High-touch: one hose each from their biggest class.
    for (i, svc) in high.iter().enumerate() {
        let (&qos, &rate) = svc
            .rate_by_class
            .iter()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap();
        let src = dcs[i % dcs.len()];
        hoses.push(HoseRequest::general(
            svc.npg,
            qos,
            src,
            Direction::Egress,
            rate * 0.2,
            dcs.iter().copied().filter(|&d| d != src),
        ));
        slos.push(SloTarget::new(0.99).unwrap());
    }
    // Low-touch aggregate as one pseudo-service hose.
    let lt: Rate = catalog.low_touch_aggregate(0.75).values().copied().sum();
    hoses.push(HoseRequest::general(
        NpgId::LOW_TOUCH,
        QosClass::C2,
        dcs[0],
        Direction::Egress,
        lt * 0.2,
        dcs[1..].iter().copied(),
    ));
    slos.push(SloTarget::new(0.99).unwrap());

    let approvals = hose_approval(&topo, &hoses, &slos, &ApprovalConfig::default());
    let summary = ApprovalSummary::from_approvals(&approvals);
    assert!(summary.approval_rate() > 0.5, "most of the modest demand clears");
    // The low-touch hose got something.
    let lt_approval = approvals.last().unwrap();
    assert!(lt_approval.approved_total.as_bps() > 0.0);
}

/// Risk curves are consistent with approvals: a hose approved at SLO s
/// must have every representative pipe's availability ≥ s at the
/// granted volume.
#[test]
fn approval_volumes_meet_the_slo_on_the_curve() {
    use network_entitlement::risk::RiskConfig;
    use network_entitlement::topology::routing::Demand;

    let topo = BackboneSpec::small(0x99).build();
    let dcs = topo.dc_ids();
    let scenarios = ScenarioSet::enumerate(&topo, 2);
    let demand = Demand {
        src: dcs[0],
        dst: dcs[2],
        amount: Rate::tbps(2.0),
    };
    let curves = assess_risk_detailed(&topo, &[demand], &scenarios, &RiskConfig::default()).curves;
    for slo in [0.9, 0.99, 0.999] {
        let granted = curves[0].bandwidth_at(slo);
        if granted.as_bps() > 0.0 {
            let achieved = curves[0].availability_of(granted);
            assert!(
                achieved >= slo - 1e-9,
                "slo {slo}: granted {granted} achieves only {achieved}"
            );
        }
    }
}

/// Forecast accuracy is good enough to plan with: the quarterly SLI of a
/// well-behaved service lands within 25% of the realized quarterly peak.
#[test]
fn sli_tracks_realized_demand() {
    let history = HistorySpec {
        months: 15,
        base_rate: Rate::gbps(300.0),
        monthly_growth: 0.03,
        noise_sigma: 0.05,
        seed: 0x5117,
        ..Default::default()
    }
    .generate();
    let (train, holdout) = history.split(12);
    let regs: Vec<Vec<f64>> = history
        .regressors
        .iter()
        .map(|r| r.features().to_vec())
        .collect();
    let pipe = ForecastPipeline::fit(train, &history.holidays, &regs[..12], PipelineConfig::default())
        .unwrap();
    let future = [regs[12].clone(), regs[13].clone(), regs[14].clone()];
    let fc = pipe.forecast_quarter(&regs[..12], &future);
    let realized_peak = (0..3)
        .map(|m| {
            network_entitlement::core::stats::mean(
                &holdout[m * DAYS_PER_MONTH as usize..(m + 1) * DAYS_PER_MONTH as usize],
            )
        })
        .fold(f64::NEG_INFINITY, f64::max);
    let ratio = fc.sli_bps / realized_peak;
    assert!(
        (0.75..1.25).contains(&ratio),
        "SLI/realized ratio {ratio}"
    );
}
