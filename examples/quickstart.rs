//! Quickstart: the entitlement lifecycle in one page.
//!
//! Builds a backbone, converts a demand forecast into a segmented hose,
//! approves it against the network's failure risk, stores the contract,
//! and runs a few enforcement metering cycles against observed traffic.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use network_entitlement::prelude::*;

fn main() {
    // 1. The backbone: a synthetic Meta-like WAN.
    let topo = BackboneSpec::default().build();
    let dcs = topo.dc_ids();
    println!(
        "backbone: {} regions ({} DCs), {} directed links",
        topo.region_count(),
        dcs.len(),
        topo.link_count()
    );

    // 2. A service's forecast demand out of its home DC, per remote
    //    destination (these would come from the forecast pipeline).
    let src = dcs[0];
    let mut flows = network_entitlement::hose::segment::FlowSeries::new();
    for (i, &dst) in dcs.iter().skip(1).take(6).enumerate() {
        let base = 120.0 / (i + 1) as f64; // concentrated toward a few dsts
        flows.insert(
            dst,
            (0..24).map(|t| base * (1.0 + 0.1 * (t as f64 / 4.0).sin())).collect(),
        );
    }

    // 3. The segmented-hose contract representation (Algorithm 1).
    let total = Rate::gbps(300.0);
    let hose = segment_flow_series(NpgId(1), QosClass::C2, src, Direction::Egress, total, &flows)
        .expect("segmentable");
    println!("\nsegmented hose for {} egress of {}:", NpgId(1), src);
    for (i, seg) in hose.segments.iter().enumerate() {
        println!(
            "  segment {}: {} regions, cap {}",
            i + 1,
            seg.regions.len(),
            seg.cap
        );
    }
    println!(
        "reserved capacity: {} (general hose would need {})",
        hose.reserved_capacity(),
        total * hose.remotes().len() as f64,
    );

    // 4. Approval against failure risk at a 99.9% availability SLO.
    let slo = SloTarget::new(0.999).unwrap();
    let approvals = hose_approval(&topo, &[hose], &[slo], &ApprovalConfig::default());
    let approval = &approvals[0];
    println!(
        "\napproval at SLO {slo}: {} of {} ({:.0}%)",
        approval.approved_total,
        approval.request.total,
        approval.approval_fraction() * 100.0
    );

    // 5. Store the contract.
    let db = ContractDb::new();
    let quarter = Quarter(0);
    db.insert(
        NpgId(1),
        slo,
        vec![Entitlement {
            npg: NpgId(1),
            qos: QosClass::C2,
            region: src,
            direction: Direction::Egress,
            entitled_rate: approval.approved_total,
            period: quarter.period(),
        }],
    )
    .expect("valid contract");

    // 6. Runtime enforcement: an agent meters observed service rates
    //    against the contract and decides how much to remark.
    let mut agent = Agent::new(AgentConfig {
        host: HostId(0),
        npg: NpgId(1),
        qos: QosClass::C2,
        region: src,
        strategy: MarkingStrategy::HostBased,
    });
    agent.refresh_contract(&db, 0);
    println!("\nenforcement cycles (entitled {}):", agent.entitled().unwrap());
    let over = approval.approved_total * 1.4; // the service misbehaves
    let mut conform = over;
    for cycle in 0..6 {
        let cr = agent.cycle(over, conform);
        conform = over * cr;
        println!(
            "  cycle {cycle}: conform ratio {:.3} -> conforming {}",
            cr, conform
        );
    }
    println!("\nthe conforming rate settles at the entitled rate; the excess");
    println!("is remarked and dropped by switches only under congestion.");
}
