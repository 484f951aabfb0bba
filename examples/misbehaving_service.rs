//! The §2.2 motivating incidents, with and without entitlement
//! enforcement: a video-client bug spikes a service's traffic +50% in
//! three minutes. Without enforcement every service in the class eats
//! the loss; with enforcement only the misbehaving service's
//! over-entitlement traffic is remarked and dropped.
//!
//! ```sh
//! cargo run --release --example misbehaving_service
//! ```

use network_entitlement::prelude::*;

fn main() {
    let dt = 30.0;
    let duration = 5400.0; // 90 minutes
    let incident = Incident::video_bug(1200.0, 3000.0);

    // A class queue: 9.4T steady demand against 10T capacity; the
    // misbehaving service contributes 3T of it and spikes to 4.5T.
    let capacity = Rate::tbps(10.0);
    let mk = |base_t: f64, seed: u64| {
        World::new(
            WorldConfig {
                hosts: 300,
                base_rate: Rate::tbps(base_t),
                dt_secs: dt,
                seed,
            },
            Bottleneck {
                capacity,
                ..Default::default()
            },
        )
    };

    for enforced in [false, true] {
        let mut victim = mk(6.4, 11);
        let mut offender = mk(3.0, 13);
        offender.set_demand_multiplier(move |t| incident.factor_at(t));
        let shared = Bottleneck {
            capacity,
            ..Default::default()
        };

        // The offender's contract: entitled to its steady 3T.
        let mut meter = StatefulMeter::new();
        let marker = Marker::new(MarkingStrategy::HostBased);
        let entitled = Rate::tbps(3.0);

        let mut victim_loss_acc = 0.0;
        let mut offender_delivered_acc = 0.0;
        let mut ticks_in_incident = 0;
        let mut marking = MarkingCommand::None;
        let mut last_offender: Option<network_entitlement::simnet::Observation> = None;

        for k in 0..(duration / dt) as usize {
            let t = k as f64 * dt;
            if enforced {
                if let Some(obs) = &last_offender {
                    let cr = meter.update(obs.total_sent, obs.conf_sent, entitled);
                    marking = marker.command(cr, 300);
                }
            }
            let v = victim.step(t, &MarkingCommand::None);
            let o = offender.step(t, &marking);
            // Victim traffic is conforming; offender splits.
            let outcome = shared.serve(
                t,
                v.total_sent + o.conf_sent,
                o.nonconf_sent,
            );
            // Approximate the victim's share of conforming loss.
            if (1200.0..4200.0).contains(&t) {
                victim_loss_acc += outcome.conf_loss;
                offender_delivered_acc +=
                    (o.conf_sent * (1.0 - outcome.conf_loss) + o.nonconf_sent * (1.0 - outcome.nonconf_loss))
                        .as_tbps();
                ticks_in_incident += 1;
            }
            last_offender = Some(o);
        }
        let mean_victim_loss = victim_loss_acc / ticks_in_incident as f64;
        let mean_offender_rate = offender_delivered_acc / ticks_in_incident as f64;
        println!(
            "{}: victim loss during incident {:.2}%, offender delivered {:.2} Tbps",
            if enforced { "with entitlement   " } else { "without entitlement" },
            mean_victim_loss * 100.0,
            mean_offender_rate
        );
    }
    println!("\nwith the contract enforced, the spike is remarked to the");
    println!("scavenger queue and the well-behaved service sees ~no loss —");
    println!("the accountability line of §3.2 in action.");
}
