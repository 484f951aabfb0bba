//! The §6 end-to-end enforcement drill, printed as a timeline.
//!
//! Reproduces the September-2021 production test: the entitlement of a
//! Coldstorage-like service is cut to 1 Tbps, then switch ACLs drop an
//! increasing share of its non-conforming traffic (12.5% → 50% → 100%)
//! before rollback. Watch conforming traffic ride unharmed while the
//! non-conforming share is squeezed to the contract.
//!
//! ```sh
//! cargo run --release --example drill_test
//! ```

use network_entitlement::enforcement::drill::{run_drill, DrillConfig, CUT_MIN};

fn main() {
    let config = DrillConfig::default();
    println!("running drill: {} hosts, entitlement cut to {} at minute {CUT_MIN}",
        config.hosts, config.entitled_after);
    for s in &config.stages {
        println!("  ACL stage at minute {:>5.0}: drop {:>5.1}% of non-conforming",
            s.start_min, s.drop_fraction * 100.0);
    }
    println!("  rollback at minute {:.0}\n", config.rollback_min);

    let recorder = run_drill(&config);

    println!(
        "{:>7} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "minute", "total_T", "conf_T", "entl_T", "loss_nc%", "rtt_c_ms", "read_s", "write_s", "blk_err"
    );
    let every = (recorder.times.len() / 25).max(1);
    let series = |name: &str| recorder.series(name);
    let (total, conf, entl) = (
        series("rate_total_tbps"),
        series("rate_conform_tbps"),
        series("rate_entitled_tbps"),
    );
    let (lossn, rttc) = (series("loss_nonconf"), series("rtt_conf_ms"));
    let (rd, wr, be) = (
        series("read_latency_s"),
        series("write_latency_s"),
        series("block_errors"),
    );
    for (i, t) in recorder.times.iter().enumerate() {
        if i % every != 0 {
            continue;
        }
        println!(
            "{:>7.0} {:>9.2} {:>9.2} {:>9.2} {:>9.1} {:>9.1} {:>9.1} {:>9.1} {:>9.0}",
            t / 60.0,
            total[i],
            conf[i],
            entl[i],
            lossn[i] * 100.0,
            rttc[i],
            rd[i],
            wr[i],
            be[i]
        );
    }

    // Headline checks, mirroring the paper's observations.
    let conf_loss_max = series("loss_conf").iter().copied().fold(0.0, f64::max);
    println!("\nmax conforming loss over the whole drill: {:.3}% (paper: ~0%)", conf_loss_max * 100.0);
    let late: Vec<f64> = recorder
        .times
        .iter()
        .zip(&total)
        .filter(|(&t, _)| t > 190.0 * 60.0 && t < 220.0 * 60.0)
        .map(|(_, &v)| v)
        .collect();
    println!(
        "total rate during the 100%-drop stage: {:.2} Tbps (entitled: 1.00 Tbps)",
        network_entitlement::core::stats::mean(&late)
    );
}
