//! Every experiment's bytes, pinned across commits: `repro all --json`
//! prints one JSON line per experiment, and each line's length and
//! FNV-1a-64 digest must match the table below. This is the one pin on
//! the §6 drill series (rates, loss, RTT, SYN counts, application
//! latency and block errors) and on the figure sweeps no trace reaches.
//! A deliberate change to an experiment regenerates its row; the
//! failure names the experiment, and the lines print in the order
//! `repro all` runs them.

use std::process::Command;

/// `(experiment, line length, FNV-1a-64 of the line)`, in run order.
const PINS: [(&str, usize, u64); 17] = [
    ("fig1", 14307, 0x9d8f_3ab5_368d_762c),
    ("fig2", 22755, 0x667a_14fb_355e_e356),
    ("fig3", 22190, 0x0375_9fec_a198_caa0),
    ("fig4", 9214, 0xd7be_96a8_fd00_e06e),
    ("fig6", 98, 0x2a66_682d_5f06_2652),
    ("fig7", 343, 0x3b07_1f87_bc52_efec),
    ("fig11", 65124, 0x7012_945d_8219_5e05),
    ("fig18", 3671, 0xc068_6da3_e7c8_c824),
    ("fig19", 3684, 0x4aa8_1d50_c41a_e37d),
    ("fig20", 1221, 0x8c14_8133_72f1_3cbf),
    ("fig21", 585, 0xaa8c_094f_3bc2_d26e),
    ("fig22", 349, 0x33eb_9c4a_11b1_4645),
    ("fig23", 23791, 0x3f64_5a54_72a7_35dd),
    ("ablation_segments", 149, 0xff76_faf2_26e4_5b71),
    ("ablation_recovery", 132, 0x8ad6_3b17_c4c6_d1e7),
    ("ablation_architecture", 136, 0x6f98_fd51_636c_f0a5),
    ("ablation_srlg", 162, 0x57c7_0862_4c3c_984a),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn every_experiment_line_matches_its_pinned_digest() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["all", "--json"])
        .output()
        .expect("spawn repro");
    assert!(out.status.success(), "repro all --json: {out:?}");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 JSON lines");
    let lines: Vec<&str> = stdout.lines().collect();
    let names: Vec<&str> = lines
        .iter()
        .map(|l| {
            let rest = l
                .strip_prefix(r#"{"experiment":""#)
                .expect("an experiment line");
            &rest[..rest.find('"').expect("a quoted experiment name")]
        })
        .collect();
    let pinned: Vec<&str> = PINS.iter().map(|p| p.0).collect();
    assert_eq!(
        names, pinned,
        "`repro all` runs a different set of experiments"
    );
    let moved: Vec<String> = PINS
        .iter()
        .zip(&lines)
        .filter(|((_, len, digest), line)| (line.len(), fnv1a(line.as_bytes())) != (*len, *digest))
        .map(|((name, _, _), line)| {
            format!(
                "{name}: now ({}, 0x{:016x})",
                line.len(),
                fnv1a(line.as_bytes())
            )
        })
        .collect();
    assert!(
        moved.is_empty(),
        "experiment output moved:\n{}",
        moved.join("\n")
    );
}
