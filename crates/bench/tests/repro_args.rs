//! `repro`'s argv goes through `entitlectl`'s grammar: a flag it cannot
//! honour as given exits 2 naming the flag, before any experiment runs.
//! Each case below used to exit 0 — the flag ignored, the bad value
//! replaced by a default, or (the last one) the next flag taken as the
//! trace path.

use std::path::PathBuf;
use std::process::{Command, Output};

/// Run `repro` in a fresh directory of its own, so a stray output file
/// would show up there.
fn repro(case: &str, args: &[&str]) -> (Output, PathBuf) {
    let dir = std::env::temp_dir().join(format!("repro_args_{}_{case}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("spawn repro");
    (out, dir)
}

#[test]
fn unusable_flags_exit_two_naming_the_flag() {
    let cases: [(&str, &[&str], &str); 4] = [
        ("bogus", &["fig6", "--bogus"], "unknown flag `--bogus`"),
        (
            "workers",
            &["fig6", "--workers", "x"],
            "--workers expects an integer, got `x`",
        ),
        ("trace_last", &["fig6", "--trace"], "--trace needs a value"),
        (
            "trace_flag",
            &["fig11", "--trace", "--metrics", "m.prom"],
            "--trace needs a value",
        ),
    ];
    for (case, args, named) in cases {
        let (out, dir) = repro(case, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}:\n{stderr}");
        assert!(
            stderr.starts_with(&format!("repro: {named}\n")),
            "{args:?}:\n{stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} ran an experiment");
        let written: Vec<_> = std::fs::read_dir(&dir).expect("temp dir").collect();
        assert!(written.is_empty(), "{args:?} wrote {written:?}");
        std::fs::remove_dir_all(&dir).expect("clean up");
    }
}

#[test]
fn a_valid_line_still_runs() {
    let (out, dir) = repro("fig6", &["fig6", "--workers", "2", "--no-dedup"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("segmented hose       1800 G"), "{stdout}");
    std::fs::remove_dir_all(dir).expect("clean up");
    let (help, dir) = repro("help", &["--help"]);
    assert_eq!(help.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&help.stdout).starts_with("usage: repro [id] [--json]"));
    std::fs::remove_dir_all(dir).expect("clean up");
}
