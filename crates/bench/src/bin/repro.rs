//! Regenerate the paper's figures.
//!
//! ```text
//! repro <id> [--json]     one experiment (fig1, fig3, fig6, ..., fig25,
//!                         ablations)
//! repro all [--json]      everything
//! repro list              show the experiment index (the default)
//! repro --help            every flag
//! ```
//!
//! `--workers N` / `--no-dedup` control the risk-simulation sweep for
//! the approval experiments (fig22): `N` scoped threads route the
//! failure scenarios (0 = one per core), and dedup routes each distinct
//! failure set once. Both are output-invariant.
//!
//! `--trace out.jsonl` / `--metrics out.prom` collect span traces from
//! the drill experiments (fig11–fig17) — agent cycles, KV operations and
//! metered ticks, stamped by a deterministic logical clock — and the
//! Prometheus text they fold into. Validate or summarize the outputs
//! with `entitlectl obs summarize`.
//!
//! The argv is parsed by `entitlectl`'s grammar (`network_entitlement::cli`)
//! with the same flag groups, so an unknown flag, a value flag with no
//! value or an unparsable value exits 2 naming the flag.

use entitlement_bench::experiments as exp;
use entitlement_enforcement::MarkingStrategy;
use entitlement_obs::TelemetrySpec;
use network_entitlement::cli::commands::{SWEEP, TELEMETRY};
use network_entitlement::cli::{self, flag, Command, Kind};

const INDEX: &[(&str, &str)] = &[
    ("fig1", "service distribution of a high QoS class"),
    ("fig2", "service distribution of a low QoS class"),
    ("fig3", "Coldstorage vs Warmstorage traffic patterns"),
    ("fig4", "misbehaving service: the +50% spike"),
    ("fig5", "loss induced on two QoS classes"),
    ("fig6", "reserved capacity: pipe vs hose vs segmented hose"),
    ("fig7", "traffic distribution across sources for one destination"),
    ("fig11", "drill: packet loss per conformance class"),
    ("fig12", "drill: traffic rate vs entitlement"),
    ("fig13", "drill: RTT"),
    ("fig14", "drill: TCP SYN transmissions"),
    ("fig15", "drill: storage read latency"),
    ("fig16", "drill: storage write latency"),
    ("fig17", "drill: block write errors"),
    ("fig18", "forecast accuracy sMAPE CDF, QoS A"),
    ("fig19", "forecast accuracy sMAPE CDF, QoS B"),
    ("fig20", "segmented hose: TM-count reduction CDF"),
    ("fig21", "hose coverage vs number of TMs"),
    ("fig22", "approval percentage vs availability SLO"),
    ("fig23", "stateless marking, instantaneous rate"),
    ("fig24", "stateless marking, average rate"),
    ("fig25", "stateful marking, instantaneous rate"),
    ("ablations", "N-segments, recovery factor, gen-1 vs gen-2"),
];

/// `repro`'s grammar: one command, the experiment id its positional.
/// `--workers`/`--no-dedup` reach the approval experiments (fig22),
/// `--trace`/`--metrics` the drill ones (fig11–fig17).
#[rustfmt::skip]
static REPRO: &[Command] = &[Command {
    program: "repro",
    name: "",
    positionals: &["[id]"],
    flags: &[
        &[flag("--json", Kind::Switch, "print each result as one JSON line")],
        SWEEP,
        TELEMETRY,
    ],
    about: "regenerate a paper figure (`repro list` shows the ids)",
}];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let m = cli::parse(REPRO, &args).unwrap_or_else(|exit| {
        if exit.code == 0 {
            print!("{}", exit.message);
        } else {
            eprint!("{}", exit.message);
        }
        std::process::exit(exit.code)
    });
    let json = m.on("--json");
    let sweep = m.sweep();
    let tele = m.telemetry();
    let id = m.positional(0).unwrap_or("list");

    match id {
        "list" => {
            println!("experiments:");
            for (id, desc) in INDEX {
                println!("  {id:<10} {desc}");
            }
        }
        "all" => {
            // Heavy experiments back several figure ids; run each once.
            for id in [
                "fig1", "fig2", "fig3", "fig4", "fig6", "fig7", "fig11", "fig18", "fig19",
                "fig20", "fig21", "fig22", "fig23", "ablations",
            ] {
                run(id, json, sweep, &tele);
            }
        }
        _ => run(id, json, sweep, &tele),
    }
}

fn emit<T: serde::Serialize>(json: bool, id: &str, value: &T, print: impl FnOnce()) {
    if json {
        println!(
            "{{\"experiment\":\"{id}\",\"data\":{}}}",
            serde_json::to_string(value).expect("serializable result")
        );
    } else {
        print();
    }
}

/// Run one experiment; `sweep` is `(--workers, !--no-dedup)`.
fn run(id: &str, json: bool, sweep: (usize, bool), tele: &TelemetrySpec) {
    match id {
        "fig1" | "fig2" => {
            let (high, low) = exp::service_distribution::run(0x51);
            let d = if id == "fig1" { high } else { low };
            emit(json, id, &d, || print!("{}", d.render()));
        }
        "fig3" => {
            let p = exp::storage_patterns::run(2.0);
            emit(json, id, &p, || print!("{}", p.render()));
        }
        "fig4" | "fig5" => {
            let r = exp::incident::run(5);
            emit(json, id, &r, || print!("{}", r.render()));
        }
        "fig6" => {
            let e = exp::hose_example::run();
            emit(json, id, &e, || print!("{}", e.render()));
        }
        "fig7" => {
            let d = exp::src_distribution::run(0x51);
            emit(json, id, &d, || print!("{}", d.render()));
        }
        "fig11" | "fig12" | "fig13" | "fig14" | "fig15" | "fig16" | "fig17" => {
            let obs = tele.make_obs();
            let r = exp::drill::run(MarkingStrategy::HostBased, &obs);
            emit(json, id, &r, || print!("{}", r.render()));
            match tele.write(&obs) {
                Ok(lines) => lines.iter().for_each(|line| eprintln!("{line}")),
                Err(e) => {
                    eprintln!("{e}");
                    std::process::exit(1);
                }
            }
        }
        "fig18" | "fig19" => {
            let seed = if id == "fig18" { 0xF18 } else { 0xF19 };
            let acc = exp::forecast_accuracy::run(&exp::forecast_accuracy::AccuracyConfig {
                seed,
                ..Default::default()
            });
            let label = if id == "fig18" { "QoS A" } else { "QoS B" };
            emit(json, id, &acc, || print!("{}", acc.render(label)));
        }
        "fig20" => {
            let b = exp::segmented_benefit::run(&Default::default());
            emit(json, id, &b, || print!("{}", b.render()));
        }
        "fig21" => {
            let c = exp::coverage_tradeoff::run(4000, 400, 0xF21);
            emit(json, id, &c, || print!("{}", c.render()));
        }
        "fig22" => {
            let (workers, dedup) = sweep;
            let a = exp::approval_slo::run_with_sweep(
                &[0.9, 0.95, 0.99, 0.995, 0.999, 0.9995],
                0.45,
                0x22,
                workers,
                dedup,
            );
            emit(json, id, &a, || print!("{}", a.render()));
        }
        "fig23" | "fig24" | "fig25" => {
            let m = exp::marking::run(60);
            emit(json, id, &m, || print!("{}", m.render()));
        }
        "ablations" => {
            let s = exp::ablations::segments_ablation(20, 0xAB1);
            let r = exp::ablations::recovery_ablation();
            let a = exp::ablations::architecture_ablation();
            let g = exp::ablations::srlg_ablation(0x51);
            if json {
                emit(json, "ablation_segments", &s, || {});
                emit(json, "ablation_recovery", &r, || {});
                emit(json, "ablation_architecture", &a, || {});
                emit(json, "ablation_srlg", &g, || {});
            } else {
                print!("{}{}{}{}", s.render(), r.render(), a.render(), g.render());
            }
        }
        other => {
            eprintln!("unknown experiment '{other}'; try `repro list`");
            std::process::exit(2);
        }
    }
}
