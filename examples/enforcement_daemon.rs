//! The distributed enforcement fleet as real tokio tasks: N agents
//! publish their host rates into one shared KV store (through the same
//! fault-injecting layer the §6 drill uses), read back the service-wide
//! aggregates the driver's per-shard fan-out folds, and independently
//! converge on the same marking decision — no controller anywhere
//! (§5.1's second-generation architecture). Midway through the run the
//! KV store suffers a full outage; the agents go fail-static and hold
//! the throttle instead of reading the outage as an idle service.
//!
//! ```sh
//! cargo run --release --example enforcement_daemon
//! ```

use network_entitlement::chaos::{Fault, FaultKind, FaultPlan, TimeWindow};
use network_entitlement::enforcement::daemon::{run_fleet, DaemonConfig};
use network_entitlement::prelude::*;
use std::time::Duration;

#[tokio::main]
async fn main() {
    let config = DaemonConfig {
        hosts: 40,
        npg: NpgId(3),
        qos: QosClass::C2,
        region: RegionId(0),
        entitled: Rate::gbps(200.0),
        per_host_rate: Rate::gbps(10.0), // 400G offered vs 200G entitled
        cycle: Duration::from_millis(50),
        cycles: 10,
        // The store goes dark from round 7 onward (rounds are 50 ms of
        // logical time each): the fleet must hold its decision.
        faults: Some(FaultPlan {
            seed: 42,
            faults: vec![Fault {
                window: TimeWindow::new(7 * 50, u64::MAX),
                kind: FaultKind::ShardOutage { shards: vec![] },
            }],
        }),
    };
    println!(
        "spawning {} agent tasks; offered {} vs entitled {}",
        config.hosts,
        config.per_host_rate * config.hosts as f64,
        config.entitled
    );

    let outcome = run_fleet(config).await;

    let first = outcome.marked_fractions[0];
    let all_agree = outcome
        .marked_fractions
        .iter()
        .all(|&m| (m - first).abs() < 1e-9);
    println!("fleet aggregate total: {}", outcome.final_total);
    println!(
        "marked fraction per agent: {:.2} (all {} agents agree: {})",
        first,
        outcome.marked_fractions.len(),
        all_agree
    );
    println!(
        "meter conform ratio per agent: {:.2}",
        outcome.conform_ratios[0]
    );
    println!(
        "fail-static cycles across the fleet: {} ({} failed reads)",
        outcome.fail_static_cycles, outcome.aggregate_read_failures
    );
    println!("\nhalf the offered traffic exceeds the contract, and every agent");
    println!("independently remarks the same ~50% of host groups — and keeps");
    println!("remarking it while the KV store is down (fail-static).");
}
