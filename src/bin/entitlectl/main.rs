//! `entitlectl` — the operator CLI for the entitlement workspace.
//!
//! The binary is a shell: `network_entitlement::cli` owns the argv
//! grammar (one table of subcommands and flags, one parser, generated
//! usage) and the library crates own every loop. `entitlectl --help`
//! lists the subcommands, `entitlectl <command> --help` each flag; the
//! README's "CLI reference" carries the prose. Exit codes: 0 done,
//! 1 the run or a file failed (gate tripped, unreadable trace, I/O),
//! 2 bad arguments or an unusable input file, 3 `check` found the rate
//! over its entitlement — never 101.

mod drill;
mod market;
mod obs;
mod plan;
mod slo;
mod watch;

use network_entitlement::chaos::FaultPlan;
use network_entitlement::cli::{self, Exit, Matches};
use network_entitlement::obs::{BadLabel, Obs, TelemetrySpec, TraceEvent};
use std::fmt::Display;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let m = cli::parse(cli::commands::ENTITLECTL, &args).unwrap_or_else(|e| exit_with(&e));
    let run = match m.command.name {
        "plan" => plan::plan,
        "show" => plan::show,
        "check" => plan::check,
        "negotiate" => plan::negotiate,
        "topo" => plan::topo,
        "lint" => plan::lint,
        "drill" => drill::drill,
        "market" => market::market,
        "explain" => market::explain,
        "obs summarize" => obs::summarize,
        "obs flame" => obs::flame,
        "obs diff" => obs::diff,
        "slo report" | "slo audit" => slo::slo,
        "watch" => watch::watch,
        other => fail(2, format_args!("entitlectl {other}: declared but not implemented")),
    };
    run(&m);
}

/// Print one line on stderr and exit with `code`.
fn fail(code: i32, message: impl Display) -> ! {
    eprintln!("{message}");
    std::process::exit(code)
}

/// Leave the way the grammar asks: help on stdout, errors on stderr.
fn exit_with(exit: &Exit) -> ! {
    if exit.code == 0 {
        print!("{}", exit.message);
    } else {
        eprint!("{}", exit.message);
    }
    std::process::exit(exit.code)
}

/// Exit 2 when a flag that only one mode of the command reads was
/// given outside that mode, instead of silently ignoring it.
fn only_with(m: &Matches, mode: &str, in_mode: bool, flags: &[&str]) {
    if in_mode {
        return;
    }
    if let Some(stray) = flags.iter().find(|f| m.on(f)) {
        exit_with(&m.command.usage_error(format_args!("{stray} only applies with {mode}")));
    }
}

/// Read `path`, or print one line and exit `code`.
fn read(path: &str, code: i32) -> String {
    std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(code, format_args!("cannot read {path}: {e}")))
}

/// [`read`] `path` and parse it as a `what`, or print one line and
/// exit `code` — every input file enters through these two.
fn load<T, E: Display>(
    path: &str,
    what: &str,
    code: i32,
    parse: impl FnOnce(&str) -> Result<T, E>,
) -> T {
    parse(&read(path, code))
        .unwrap_or_else(|e| fail(code, format_args!("cannot parse {what} {path}: {e}")))
}

/// Write `text` to `path`, or print one line and exit 1.
fn write_file(path: &str, text: &str) {
    std::fs::write(path, text).unwrap_or_else(|e| fail(1, format_args!("cannot write {path}: {e}")));
}

/// The schema-validated trace named by the command's first positional.
fn load_trace(m: &Matches) -> Vec<TraceEvent> {
    let path = m.positional(0).unwrap_or_default();
    load(path, "trace", 1, network_entitlement::obs::parse_trace)
}

/// Exit 1 when a `fold_trace` met observation events it could not
/// decode: the fold skipped them, so its report would not describe the
/// run. One line, naming the first.
fn reject_malformed(source: impl Display, malformed: &[BadLabel]) {
    if let Some(first) = malformed.first() {
        let n = malformed.len();
        fail(1, format_args!("{source}: {first} ({n} malformed observation event(s))"));
    }
}

/// The `--faults` plan, if one was given.
fn load_faults(m: &Matches) -> Option<FaultPlan> {
    m.text("--faults")
        .map(|path| load(path, "fault plan", 2, FaultPlan::from_json))
}

/// Flush `--trace`/`--metrics` outputs, printing one line per file (or
/// the error, exiting 1).
fn write_telemetry(tele: &TelemetrySpec, obs: &Obs) {
    match tele.write(obs) {
        Ok(lines) => lines.iter().for_each(|line| eprintln!("{line}")),
        Err(e) => fail(1, e),
    }
}
