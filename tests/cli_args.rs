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
                Kind::U32(_) | Kind::U64(_) | Kind::Num(_) => {
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

/// Each of these used to exit 101 with a Rust backtrace.
#[test]
fn outside_input_never_panics() {
    let unwritable = "/nonexistent-dir/out";
    let garbage = tmp("garbage.json");
    std::fs::write(&garbage, "{\"not\": \"contracts\"").expect("write fixture");
    let garbage = garbage.display().to_string();
    let cases: [(&[&str], i32); 12] = [
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
    ];
    for (args, code) in cases {
        let out = ctl(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(code), "{args:?}:\n{stderr}");
        assert!(!stderr.contains("panicked at"), "{args:?}:\n{stderr}");
        assert!(!stderr.is_empty(), "{args:?} fails without saying why");
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
    assert_rejected(&["slo", "audit", &trace, "--write-bench"], "--write-bench");
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
