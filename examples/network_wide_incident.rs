//! A network-wide incident on the routed backbone (the §2.2 story at
//! full scale): a misbehaving service's spike congests shared links all
//! over the WAN, hurting victims that never talk to the same
//! destinations — and entitlement enforcement contains it.
//!
//! Unlike `misbehaving_service.rs` (one bottleneck), this example routes
//! every service over the real topology with per-link priority queues.
//!
//! ```sh
//! cargo run --release --example network_wide_incident
//! ```

use network_entitlement::prelude::*;
use network_entitlement::simnet::netfluid::{NetWorld, ServiceFlow};

fn build_world() -> NetWorld {
    // A backbone sized so that the *contracted* demand fits (the
    // planning invariant the approval engine maintains) while the
    // offender's over-contract spike does not.
    let topo = BackboneSpec {
        base_link_capacity: Rate::tbps(3.0),
        ..Default::default()
    }
    .build();
    let dcs = topo.dc_ids();
    let mut flows = Vec::new();
    // The offender (NPG 0): heavy fan-out from its home DC.
    for (i, &dst) in dcs.iter().skip(1).take(6).enumerate() {
        flows.push(ServiceFlow {
            npg: NpgId(0),
            qos: QosClass::C2,
            src: dcs[0],
            dst,
            base_rate: Rate::gbps(700.0 - 60.0 * i as f64),
            pattern: TrafficPattern::Flat,
        });
    }
    // Victims (NPG 1..): traffic between other region pairs that shares
    // links with the offender only via the backbone mesh.
    for (i, w) in dcs.windows(2).enumerate().take(8) {
        flows.push(ServiceFlow {
            npg: NpgId(1 + (i % 3) as u32),
            qos: QosClass::C2,
            src: w[1],
            dst: w[0],
            base_rate: Rate::gbps(500.0),
            pattern: TrafficPattern::warmstorage(),
        });
    }
    NetWorld::new(topo, flows).expect("routable")
}

fn victim_goodput(net: &NetWorld, tick: &network_entitlement::simnet::netfluid::NetTick) -> f64 {
    let mut offered = 0.0;
    let mut delivered = 0.0;
    for (f, o) in net.flows().iter().zip(&tick.flows) {
        if f.npg != NpgId(0) {
            offered += o.offered.as_bps();
            delivered += o.conf_delivered.as_bps() + o.nonconf_delivered.as_bps();
        }
    }
    delivered / offered.max(1.0)
}

fn main() {
    let incident = Incident::video_bug(1800.0, 5400.0);
    // The offender's contract covers its steady fan-out (3.3 T); the
    // +50% spike is over-contract traffic.
    let entitled = Rate::tbps(3.3);

    for enforced in [false, true] {
        let mut net = build_world();
        net.set_multiplier(NpgId(0), move |t| incident.factor_at(t));
        let mut meter = StatefulMeter::new();
        let marker = Marker::new(MarkingStrategy::HostBased);

        let dt = 30.0;
        let mut baseline_goodput = (0.0f64, 0usize);
        let mut incident_goodput = (0.0f64, 0usize);
        let mut offender_sent = (0.0f64, 0usize);
        for k in 0..300 {
            let t = k as f64 * dt;
            let tick = net.step(t);
            // The offender's agents meter its aggregate.
            let (mut tot, mut conf) = (Rate::ZERO, Rate::ZERO);
            for (f, o) in net.flows().iter().zip(&tick.flows) {
                if f.npg == NpgId(0) {
                    tot += o.conf_sent + o.nonconf_sent;
                    conf += o.conf_sent;
                }
            }
            // Metering cycles are much slower than TCP's reaction time
            // (the paper's agents publish and read aggregates on multi-
            // second periods); meter every other tick so the observed
            // rates reflect recovered senders, not a transient dip.
            if enforced && k % 2 == 0 {
                let cr = meter.update(tot, conf, entitled);
                let cmd = marker.command(cr, 1000);
                net.apply_command(NpgId(0), &cmd, 1000);
            }
            let g = victim_goodput(&net, &tick);
            if t > 600.0 && t < 1800.0 {
                baseline_goodput.0 += g;
                baseline_goodput.1 += 1;
            }
            if t > 2400.0 && t < 7200.0 {
                incident_goodput.0 += g;
                incident_goodput.1 += 1;
                offender_sent.0 += tot.as_tbps();
                offender_sent.1 += 1;
            }
        }
        let base = baseline_goodput.0 / baseline_goodput.1 as f64;
        let inc = incident_goodput.0 / incident_goodput.1 as f64;
        println!(
            "{}: victim goodput {:.1}% before -> {:.1}% during the spike              (impact {:+.1} pts); offender mean rate {:.2} Tbps",
            if enforced { "with entitlement   " } else { "without entitlement" },
            base * 100.0,
            inc * 100.0,
            (inc - base) * 100.0,
            offender_sent.0 / offender_sent.1 as f64
        );
    }
    println!("\nenforcement marks only the offender's over-contract traffic;");
    println!("shared links drop it first and the victims ride unharmed.");
}
