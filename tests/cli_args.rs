//! The argv contract of `entitlectl`, checked against the grammar's own
//! command table — a new subcommand or flag is covered the moment it is
//! declared. For every subcommand: an unknown flag, each value flag
//! given last with no value, and each numeric flag given `x` exit 2
//! naming the flag; `--help` exits 0 and lists every flag. Then one
//! regression per panic the CLI used to have (exit 101 + backtrace),
//! and a drift check between the table and the README's CLI reference.

use network_entitlement::cli::commands::ENTITLECTL;
use network_entitlement::cli::{Command as Subcommand, Kind};
use std::path::PathBuf;
use std::process::{Command, Output};

fn ctl(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_entitlectl"))
        .args(args)
        .output()
        .expect("spawn entitlectl")
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cli_args_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

/// The subcommand's words plus one dummy per required positional.
fn base_args(cmd: &Subcommand) -> Vec<&'static str> {
    let mut args: Vec<&str> = cmd.name.split(' ').collect();
    args.extend(cmd.positionals.iter().filter(|p| p.starts_with('<')));
    args
}

/// Exit 2, the flag named on stderr, and never a panic.
fn assert_rejected(args: &[&str], flag: &str) {
    let out = ctl(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}:\n{stderr}");
    assert!(stderr.contains(flag), "{args:?} does not name {flag}:\n{stderr}");
    assert!(!stderr.contains("panicked at"), "{args:?}:\n{stderr}");
}

#[test]
fn every_subcommand_rejects_unknown_missing_and_unparsable() {
    for cmd in ENTITLECTL {
        let base = base_args(cmd);
        let with = |extra: &[&'static str]| [base.as_slice(), extra].concat();
        assert_rejected(&with(&["--no-such-flag"]), "--no-such-flag");
        for flag in cmd.all_flags() {
            match flag.kind {
                Kind::Switch => continue,
                Kind::Text(_) => {}
                Kind::U32(_) | Kind::U64(_) | Kind::Num(..) => {
                    assert_rejected(&with(&[flag.name, "x"]), flag.name);
                }
            }
            assert_rejected(&with(&[flag.name]), flag.name);
            assert_rejected(&with(&[flag.name, "1", flag.name, "1"]), flag.name);
        }
    }
}

#[test]
fn help_is_generated_from_the_table() {
    let top = ctl(&["--help"]);
    assert_eq!(top.status.code(), Some(0));
    let listing = String::from_utf8_lossy(&top.stdout).into_owned();
    for cmd in ENTITLECTL {
        assert!(listing.contains(cmd.name), "top-level help lists `{}`", cmd.name);
        // `--help` wins wherever it stands, even after a bad flag.
        let mut args = base_args(cmd);
        args.extend(["--no-such-flag", "--help"]);
        let out = ctl(&args);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {out:?}");
        assert!(out.stderr.is_empty(), "{args:?}: {out:?}");
        let help = String::from_utf8_lossy(&out.stdout);
        assert!(help.starts_with(&cmd.usage()), "{help}");
        for flag in cmd.all_flags() {
            assert!(help.contains(flag.name) && help.contains(flag.help), "{}: {help}", flag.name);
        }
    }
    let none = ctl(&[]);
    assert_eq!(none.status.code(), Some(2), "no subcommand is a usage error");
    assert_eq!(String::from_utf8_lossy(&none.stderr), listing);
}

/// Each of these used to exit 101 with a Rust backtrace, or (a value
/// outside its flag's range) ran an empty or clamped workload and
/// exited 0.
#[test]
fn outside_input_never_panics() {
    let unwritable = "/nonexistent-dir/out";
    let garbage = tmp("garbage.json");
    std::fs::write(&garbage, "{\"not\": \"contracts\"").expect("write fixture");
    let garbage = garbage.display().to_string();
    let crash = tmp("crash.json");
    std::fs::write(
        &crash,
        r#"{"seed":1,"faults":[{"window":{"from_ms":0,"to_ms":5000},"kind":{"AgentCrash":{"hosts":[3,50]}}}]}"#,
    )
    .expect("write fixture");
    let crash = crash.display().to_string();
    let cases: [(&[&str], i32); 13] = [
        (&["plan", "--slo", "2"], 2),
        (&["plan", "--slo", "0"], 2),
        (&["plan", "--out", unwritable], 1),
        (&["check"], 2),
        (&["check", "--npg", "1", "--qos", "c1"], 2),
        (&["check", "--npg", "1", "--qos", "c1", "--region", "0"], 2),
        (&["check", "--npg", "1", "--qos", "c1", "--region", "0", "--rate", "5", "--db", &garbage], 1),
        (&["show", "--db", &garbage], 1),
        (&["negotiate"], 2),
        (&["drill", "--hosts", "50", "--csv", unwritable], 1),
        (&["topo", "--dot", unwritable], 1),
        (&["drill", "--hosts", "50", "--trace", unwritable], 1),
        // Host 50 of a 50-host fleet.
        (&["drill", "--hosts", "50", "--shards", "2", "--faults", &crash], 2),
    ];
    for (args, code) in cases {
        let out = ctl(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(code), "{args:?}:\n{stderr}");
        assert!(!stderr.contains("panicked at"), "{args:?}:\n{stderr}");
        assert!(!stderr.is_empty(), "{args:?} fails without saying why");
    }
    let out_of_range: [&[&str]; 7] = [
        &["drill", "--hosts", "0"],
        &["drill", "--hosts", "0", "--shards", "4"],
        &["drill", "--hosts", "5000000000", "--shards", "8"],
        &["drill", "--cycles", "0", "--shards", "4", "--hosts", "100"],
        &["drill", "--cycles", "18446744073709551615", "--shards", "4"],
        &["market", "--slice-days", "0"],
        &["market", "--slice-days", "500"],
    ];
    for args in out_of_range {
        let out = ctl(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}:\n{stderr}");
        assert!(stderr.contains(args[1]), "{args:?} does not name its flag:\n{stderr}");
    }
}

/// Every numeric flag refuses `nan`, `inf`, `-1` and `1e400` (which
/// parses as infinity): exit 2 naming the flag. The first, second and
/// fourth are outside every domain. `-1` is outside each declared
/// domain but the SLO-policy flags': theirs is any finite number, and
/// `SloPolicy::validate` refuses it with its `E06xx` code, naming the
/// flag, as `entitlectl lint` refuses the same policy in a bundle.
/// Before domains, `negotiate --rate nan` "agreed" on 0 bps and
/// `market --max-ask -1` granted every request.
#[test]
fn every_num_flag_refuses_values_outside_its_domain() {
    let mut walked = 0;
    for cmd in ENTITLECTL {
        let base = base_args(cmd);
        for flag in cmd.all_flags() {
            let Kind::Num(_, domain) = flag.kind else { continue };
            for value in ["nan", "inf", "-1", "1e400"] {
                let v: f64 = value.parse().expect("a float literal");
                assert!(!domain.admits(v) || cmd.name.starts_with("slo "), "{} {value}", flag.name);
                assert_rejected(&[base.as_slice(), &[flag.name, value]].concat(), flag.name);
            }
            walked += 1;
        }
    }
    // plan --slo; check --rate, --slo; market --max-ask; negotiate
    // --rate, --accept; six SLO-policy flags on each of `slo report`
    // and `slo audit`.
    assert_eq!(walked, 18);
    assert_rejected(&["negotiate", "--rate", "50", "--accept", "5"], "--accept");
}

/// Same flags, same stdout, byte for byte: `market` and the sharded
/// `drill` each run their workload once, under no clock that reads
/// real time. The text is also pinned, so a change that moves both
/// runs the same way — an outcome, a marked fraction, granted volume —
/// shows up here too.
#[test]
fn market_and_fleet_drill_stdout_is_a_function_of_the_flags() {
    let runs: [(&[&str], &str); 2] = [
        (
            &["market", "--requests", "2000"],
            "market storm: 2000 requests over 20 DC pairs x 4 buckets x 12 slices (seed 4960)\n  \
             book: 4 contract(s); index warm with 960 slot(s)\n  \
             outcomes: 2000 granted / 0 partial / 0 denied; paths: 2000 index / 0 sweep; 2.0 Tbps granted\n",
        ),
        (
            &["drill", "--hosts", "2000", "--shards", "8", "--cycles", "4"],
            "fleet drill: 2000 hosts / 8 shards, strategy det \u{2014} 4 cycles\n  \
             marked fraction 0.5015; conforming 9.998 of 20.043 Tbps offered; attainment 1.0000\n",
        ),
    ];
    for (args, pinned) in runs {
        let [a, b] = [ctl(args), ctl(args)];
        assert!(a.status.success() && b.status.success(), "{args:?}: {a:?}");
        assert_eq!(a.stdout, b.stdout, "{args:?}: two runs differ");
        assert_eq!(String::from_utf8_lossy(&a.stdout), pinned, "{args:?}");
    }
}

/// A reader that stops reading is not an error: with its stdout a pipe
/// whose read end is already closed, a command exits as it would have,
/// where `print!` panicked on the closed pipe (exit 101).
#[test]
fn a_closed_stdout_ends_the_output_not_the_run() {
    for args in [&["lint", "--list-rules"][..], &["--help"], &["topo"]] {
        let (reader, writer) = std::io::pipe().expect("a pipe");
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_entitlectl"))
            .args(args)
            .stdout(writer)
            .output()
            .expect("spawn entitlectl");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

/// A seeded stream of byte mutations of `base`: each one flips a byte,
/// truncates the text, or duplicates a run of bytes in place.
fn mutants(base: &[u8], seed: u64, count: usize) -> Vec<Vec<u8>> {
    let mut state = seed;
    // splitmix64
    let mut next = |bound: usize| {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % bound.max(1) as u64) as usize
    };
    (0..count)
        .map(|i| {
            let mut bytes = base.to_vec();
            let at = next(bytes.len());
            match i % 3 {
                0 => bytes[at] ^= 1 + next(255) as u8,
                1 => bytes.truncate(at),
                _ => {
                    let end = (at + 1 + next(64)).min(bytes.len());
                    let run = bytes[at..end].to_vec();
                    bytes.splice(at..at, run);
                }
            }
            bytes
        })
        .collect()
}

/// Flipped, truncated and duplicated bytes of a fault plan, a contract
/// book and a recorded trace, fed to every command that reads that
/// kind of file: each exit is 0, 1 or 2, never a panic.
#[test]
fn mutated_input_files_never_panic() {
    use network_entitlement::core::{QosBand, QosBucket};
    use network_entitlement::prelude::*;

    let root = env!("CARGO_MANIFEST_DIR");
    let faults = std::fs::read(format!("{root}/examples/faults/kv_outage.json")).expect("fault plan");
    let dcs = BackboneSpec::small(4960).build().dc_ids();
    let book: Vec<MarketEntitlement> = (0..4)
        .map(|i| MarketEntitlement {
            npg: NpgId(100 + i as u32),
            bucket: QosBucket { class: QosClass::C3, band: QosBand::Low },
            src: dcs[i % dcs.len()],
            dst: dcs[(i + 1) % dcs.len()],
            rate: Rate::gbps(10.0 * (i + 1) as f64),
            kind: [
                EntitlementKind::Subscription,
                EntitlementKind::Quota { volume_bytes: 1e15 },
                EntitlementKind::UsageBased,
            ][i % 3],
        })
        .collect();
    let book = serde_json::to_string(&book).expect("book serializes").into_bytes();
    let trace_path = tmp("sweep-base.jsonl").display().to_string();
    let storm = ctl(&["market", "--requests", "200", "--max-ask", "2000", "--trace", &trace_path]);
    assert!(storm.status.success(), "{storm:?}");
    let trace = std::fs::read(&trace_path).expect("recorded trace");

    let input = tmp("sweep-input").display().to_string();
    let readers: [(&[u8], &[&[&str]]); 3] = [
        (
            &faults,
            &[
                &["drill", "--hosts", "20", "--faults"],
                &["drill", "--hosts", "20", "--shards", "2", "--cycles", "4", "--faults"],
                &["market", "--requests", "50", "--faults"],
            ],
        ),
        (&book, &[&["lint"], &["market", "--requests", "50", "--contracts"]]),
        (
            &trace,
            &[
                &["watch"],
                &["explain", "--all-denied"],
                &["slo", "audit"],
                &["obs", "summarize", "--tree"],
            ],
        ),
    ];
    for (seed, (base, commands)) in readers.into_iter().enumerate() {
        for mutant in mutants(base, 0x5EED + seed as u64, 30) {
            std::fs::write(&input, &mutant).expect("write mutant");
            for command in commands {
                let args = [command, &[input.as_str()][..]].concat();
                let out = ctl(&args);
                let stderr = String::from_utf8_lossy(&out.stderr);
                assert!(
                    matches!(out.status.code(), Some(0..=2)) && !stderr.contains("panicked at"),
                    "{args:?} on {:?}: {:?}\n{stderr}",
                    String::from_utf8_lossy(&mutant),
                    out.status,
                );
            }
        }
    }
}

/// The positional scan used to mistake `t.jsonl` for `--out`'s value
/// and print usage; silently ignored flags now say so.
#[test]
fn positionals_and_mode_flags_are_read_from_the_table() {
    let trace = tmp("flame.jsonl");
    let trace = trace.display().to_string();
    let drill = ctl(&["drill", "--hosts", "50", "--trace", &trace]);
    assert!(drill.status.success(), "{drill:?}");
    // Same path as positional and as the flag's value: overwrites the
    // trace with its own folded stacks.
    let flame = ctl(&["obs", "flame", &trace, "--out", &trace]);
    assert_eq!(flame.status.code(), Some(0), "{flame:?}");
    let folded = std::fs::read_to_string(&trace).expect("folded stacks");
    assert!(folded.contains("agent/cycle"), "{folded}");

    assert_rejected(&["drill", "--cycles", "3"], "--cycles");
    assert_rejected(&["drill", "--shards", "2", "--csv", "x.csv"], "--csv");
    assert_rejected(&["watch", &trace, "--idle-ms", "5"], "--idle-ms");
    // The retired bench-baseline gate's flags are unknown, not ignored.
    let retired: [&[&str]; 4] =
        [&["--bench-name", "drill"], &["--bench-dir", "."], &["--write-bench"], &["--seed", "3607"]];
    for stray in retired {
        assert_rejected(&[&["slo", "audit", &trace][..], stray].concat(), stray[0]);
    }
    assert_rejected(
        &["check", "--npg", "1", "--qos", "c1", "--region", "0", "--rate", "5", "--seed", "4"],
        "--seed",
    );
    assert_rejected(&["lint", "a.json", "b.json"], "b.json");
}

/// README's "CLI reference" carries one synopsis per subcommand; each
/// must equal the usage the table generates, and there must be no
/// synopsis for a subcommand the table does not have.
#[test]
fn readme_reference_matches_the_table() {
    let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md"))
        .expect("README.md");
    let reference = readme
        .split("\n## CLI reference\n")
        .nth(1)
        .expect("README has a `## CLI reference` section");
    let reference = reference.split("\n## ").next().unwrap_or(reference);
    let mut documented = Vec::new();
    for block in reference.split("\n#### `entitlectl ").skip(1) {
        let (name, rest) = block.split_once('`').expect("heading closes its backtick");
        let synopsis = rest
            .split("```text\n")
            .nth(1)
            .and_then(|s| s.split("```").next())
            .unwrap_or_else(|| panic!("`{name}` has no ```text synopsis"));
        let synopsis: Vec<&str> = synopsis.split_whitespace().collect();
        documented.push((name, format!("usage: {}", synopsis.join(" "))));
    }
    let declared: Vec<(&str, String)> = ENTITLECTL.iter().map(|c| (c.name, c.usage())).collect();
    assert_eq!(documented, declared, "README CLI reference vs cli::commands::ENTITLECTL");
}
