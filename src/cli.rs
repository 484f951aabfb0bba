//! One argv grammar for the workspace's binaries: a subcommand declares
//! its flags once in a table ([`commands::ENTITLECTL`] for `entitlectl`;
//! `repro` has a one-command table of its own) and [`parse`] does the
//! rest — routing, typed values, positionals, generated usage and
//! `--help`, and a uniform [`Exit`] (code 2, naming the flag) for an
//! unknown flag, a missing value, an unparsable value or a repeated
//! value flag. Nothing here prints or exits: the binary does both with
//! the [`Exit`] it is handed.

pub mod commands;

use entitlement_obs::TelemetrySpec;
use std::fmt::{Display, Write as _};
use std::str::FromStr;

/// What follows a flag on the command line. Value kinds carry the
/// placeholder shown in usage (`--seed N`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Kind {
    /// Present or absent; takes no value.
    Switch,
    /// Any string (a path, a name).
    Text(&'static str),
    /// An integer that fits `u32`.
    U32(&'static str),
    /// An integer that fits `u64`.
    U64(&'static str),
    /// A finite floating-point number inside its [`Domain`].
    Num(&'static str, Domain),
}

/// One end of a [`Domain`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum End {
    /// The bound is admitted (`[0`, `1]`).
    Closed(f64),
    /// The bound is excluded (`(0`, `1)`).
    Open(f64),
    /// No bound on this side.
    Unbounded,
}

/// The values a [`Kind::Num`] flag admits: finite numbers from the
/// first [`End`] to the second. `nan`, `inf` and a literal that
/// overflows `f64` (`1e400`) are outside every domain.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Domain(pub End, pub End);

impl Domain {
    /// Whether `v` lies in the domain.
    #[must_use]
    pub fn admits(self, v: f64) -> bool {
        let above = match self.0 {
            End::Closed(b) => v >= b,
            End::Open(b) => v > b,
            End::Unbounded => true,
        };
        let below = match self.1 {
            End::Closed(b) => v <= b,
            End::Open(b) => v < b,
            End::Unbounded => true,
        };
        v.is_finite() && above && below
    }
}

impl Display for Domain {
    /// `a finite number in (0, 1]`; an unbounded end reads `-inf`/`inf`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let low = match self.0 {
            End::Closed(b) => format!("[{b}"),
            End::Open(b) => format!("({b}"),
            End::Unbounded => "(-inf".to_string(),
        };
        let high = match self.1 {
            End::Closed(b) => format!("{b}]"),
            End::Open(b) => format!("{b})"),
            End::Unbounded => "inf)".to_string(),
        };
        write!(f, "a finite number in {low}, {high}")
    }
}

/// One flag of one subcommand.
#[derive(Clone, Copy, Debug)]
pub struct Flag {
    /// The flag as typed, dashes included.
    pub name: &'static str,
    /// Switch, or the kind of value it takes.
    pub kind: Kind,
    /// One help line.
    pub help: &'static str,
}

/// Declare a flag (const shorthand that keeps the table one line each).
#[must_use]
pub const fn flag(name: &'static str, kind: Kind, help: &'static str) -> Flag {
    Flag { name, kind, help }
}

impl Flag {
    /// The flag with its value placeholder, as usage shows it.
    fn spelled(&self) -> String {
        match self.kind {
            Kind::Switch => self.name.to_string(),
            Kind::Text(m) | Kind::U32(m) | Kind::U64(m) | Kind::Num(m, _) => {
                format!("{} {m}", self.name)
            }
        }
    }
}

/// One subcommand: its words, positionals, flag groups and summary.
#[derive(Debug)]
pub struct Command {
    /// The binary the command belongs to (`"entitlectl"`).
    pub program: &'static str,
    /// The subcommand words after the program name (`"obs summarize"`);
    /// empty for a binary with no subcommands, whose one command then
    /// matches every command line.
    pub name: &'static str,
    /// Positional arguments in order, spelled as usage shows them:
    /// `<required>` or `[optional]`, optional ones last.
    pub positionals: &'static [&'static str],
    /// Flag groups: the command's own flags plus any shared groups.
    pub flags: &'static [&'static [Flag]],
    /// One-line summary for `--help`.
    pub about: &'static str,
}

impl Command {
    /// Every flag the command accepts, groups flattened.
    pub fn all_flags(&self) -> impl Iterator<Item = &'static Flag> {
        self.flags.iter().flat_map(|group| group.iter())
    }

    /// The program and subcommand words, as typed.
    fn invocation(&self) -> String {
        if self.name.is_empty() {
            self.program.to_string()
        } else {
            format!("{} {}", self.program, self.name)
        }
    }

    /// The one-line usage synopsis.
    #[must_use]
    pub fn usage(&self) -> String {
        let mut out = format!("usage: {}", self.invocation());
        for p in self.positionals {
            let _ = write!(out, " {p}");
        }
        for f in self.all_flags() {
            let _ = write!(out, " [{}]", f.spelled());
        }
        out
    }

    /// The `--help` text: usage, summary, one line per flag.
    #[must_use]
    pub fn help(&self) -> String {
        let mut out = format!("{}\n\n{}\n\n", self.usage(), self.about);
        for f in self.all_flags() {
            let _ = writeln!(out, "  {:<24} {}", f.spelled(), f.help);
        }
        let _ = writeln!(out, "  {:<24} print this help", "--help");
        out
    }

    /// A usage error for this command: exit 2, `what`, the synopsis.
    #[must_use]
    pub fn usage_error(&self, what: impl Display) -> Exit {
        let (invocation, usage) = (self.invocation(), self.usage());
        Exit {
            code: 2,
            message: format!(
                "{invocation}: {what}\n{usage}\n(`{invocation} --help` describes each flag)\n"
            ),
        }
    }
}

/// Why parsing stopped: the process exit code and the text to print —
/// on stdout for code 0 (`--help`), on stderr otherwise.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Exit {
    /// Process exit code: 0 for `--help`, 2 for a usage error.
    pub code: i32,
    /// Text to print, newline-terminated.
    pub message: String,
}

/// A parsed command line: validated flag values and positionals.
#[derive(Debug)]
pub struct Matches {
    /// The command that matched.
    pub command: &'static Command,
    /// Flags given, in order; a switch carries an empty value.
    given: Vec<(&'static str, String)>,
    positionals: Vec<String>,
}

impl Matches {
    /// Whether `name` (switch or value flag) was given.
    #[must_use]
    pub fn on(&self, name: &str) -> bool {
        self.given.iter().any(|(n, _)| *n == name)
    }

    /// The raw value of a value flag.
    #[must_use]
    pub fn text(&self, name: &str) -> Option<&str> {
        let given = self.given.iter().find(|(n, _)| *n == name);
        given.map(|(_, v)| v.as_str())
    }

    /// The typed value of a value flag. [`parse`] already proved the
    /// text parses as the flag's declared [`Kind`], so `None` means
    /// "not given".
    #[must_use]
    pub fn get<T: FromStr>(&self, name: &str) -> Option<T> {
        self.text(name).and_then(|v| v.parse().ok())
    }

    /// The `i`-th positional ([`parse`] enforces the `<required>` ones).
    #[must_use]
    pub fn positional(&self, i: usize) -> Option<&str> {
        self.positionals.get(i).map(String::as_str)
    }

    /// The shared `--trace` / `--metrics` group.
    #[must_use]
    pub fn telemetry(&self) -> TelemetrySpec {
        TelemetrySpec {
            trace: self.text("--trace").map(str::to_string),
            metrics: self.text("--metrics").map(str::to_string),
        }
    }

    /// The shared risk-sweep group: `(--workers N, !--no-dedup)`.
    #[must_use]
    pub fn sweep(&self) -> (usize, bool) {
        (self.get("--workers").unwrap_or(1), !self.on("--no-dedup"))
    }
}

/// Route `args` (program name already stripped) to the command of
/// `table` whose words lead it, then parse the rest against that
/// command's flags.
///
/// # Errors
///
/// An [`Exit`] with code 0 for `--help` (anywhere on the line) and
/// code 2 for an unknown command or flag, a value flag with no value,
/// given twice, with a value of the wrong kind or a number outside its
/// [`Domain`], and a missing or surplus positional.
pub fn parse(table: &'static [Command], args: &[String]) -> Result<Matches, Exit> {
    let help = args.contains(&String::from("--help"));
    // Longest match wins: `obs summarize` before a hypothetical `obs`.
    let routed = table.iter().filter(|c| {
        let words = c.name.split_whitespace();
        words.clone().count() <= args.len() && words.zip(args).all(|(w, a)| w == a)
    });
    let Some(command) = routed.max_by_key(|c| c.name.len()) else {
        let program = table.first().map_or("", |c| c.program);
        let mut message = format!("usage: {program} <command> [options]\n\ncommands:\n");
        for c in table {
            let _ = writeln!(message, "  {:<16} {}", c.name, c.about);
        }
        let _ = writeln!(message, "\n`{program} <command> --help` describes a command's flags.");
        let code = if help { 0 } else { 2 };
        return Err(Exit { code, message });
    };
    if help {
        let message = command.help();
        return Err(Exit { code: 0, message });
    }

    let (mut given, mut positionals) = (Vec::new(), Vec::new());
    let mut rest = args[command.name.split_whitespace().count()..].iter();
    while let Some(arg) = rest.next() {
        if !arg.starts_with("--") {
            positionals.push(arg.clone());
            continue;
        }
        let Some(f) = command.all_flags().find(|f| f.name == arg) else {
            return Err(command.usage_error(format_args!("unknown flag `{arg}`")));
        };
        if f.kind == Kind::Switch {
            given.push((f.name, String::new()));
            continue;
        }
        if given.iter().any(|(n, _)| *n == f.name) {
            return Err(command.usage_error(format_args!("{arg} given more than once")));
        }
        // A value may start with `-` (`--rate -1`); only another flag
        // of this command reads as "the value is missing".
        let Some(value) = rest.next().filter(|v| command.all_flags().all(|g| g.name != *v)) else {
            return Err(command.usage_error(format_args!("{arg} needs a value")));
        };
        let expects = match f.kind {
            Kind::U32(_) if value.parse::<u32>().is_err() => "an integer".to_string(),
            Kind::U64(_) if value.parse::<u64>().is_err() => "an integer".to_string(),
            Kind::Num(_, domain) => match value.parse::<f64>() {
                Err(_) => "a number".to_string(),
                Ok(v) if !domain.admits(v) => domain.to_string(),
                Ok(_) => String::new(),
            },
            _ => String::new(),
        };
        if !expects.is_empty() {
            let what = format_args!("{arg} expects {expects}, got `{value}`");
            return Err(command.usage_error(what));
        }
        given.push((f.name, value.clone()));
    }

    let required = command.positionals.iter().filter(|p| p.starts_with('<'));
    if let Some(missing) = command.positionals[..required.count()].get(positionals.len()) {
        return Err(command.usage_error(format_args!("missing {missing}")));
    }
    if let Some(extra) = positionals.get(command.positionals.len()) {
        return Err(command.usage_error(format_args!("unexpected argument `{extra}`")));
    }
    Ok(Matches { command, given, positionals })
}

#[cfg(test)]
mod tests {
    use super::Kind::{Num, Switch, Text, U64};
    use super::*;

    const ANY: Domain = Domain(End::Unbounded, End::Unbounded);

    static TABLE: &[Command] = &[
        Command {
            program: "entitlectl",
            name: "obs flame",
            positionals: &["<trace.jsonl>"],
            flags: &[&[flag("--out", Text("FILE"), "write here")]],
            about: "export folded stacks",
        },
        Command {
            program: "entitlectl",
            name: "watch",
            positionals: &["<trace.jsonl>"],
            flags: &[
                &[
                    flag("--json", Switch, "JSON report"),
                    flag("--idle-ms", U64("N"), "idle deadline"),
                    flag("--rate", Num("GBPS", ANY), "a rate"),
                ],
                &[flag("--trace", Text("FILE"), "trace output")],
            ],
            about: "re-fold the watchdog",
        },
        Command {
            program: "entitlectl",
            name: "lint",
            positionals: &["[bundle.json]"],
            flags: &[&[flag("--list-rules", Switch, "print the catalog")]],
            about: "static diagnostics",
        },
    ];

    fn run(line: &str) -> Result<Matches, Exit> {
        let args: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        parse(TABLE, &args)
    }

    fn rejected(line: &str) -> String {
        let exit = run(line).expect_err(line);
        assert_eq!(exit.code, 2, "{line}: {}", exit.message);
        exit.message
    }

    #[test]
    fn a_switch_before_a_positional_does_not_swallow_it() {
        let m = run("watch --json t.jsonl").unwrap();
        assert!(m.on("--json"));
        assert_eq!(m.positional(0), Some("t.jsonl"));
        assert_eq!(m.command.name, "watch");
    }

    #[test]
    fn a_positional_equal_to_a_flags_value_is_still_found() {
        let m = run("obs flame t.jsonl --out t.jsonl").unwrap();
        assert_eq!(m.positional(0), Some("t.jsonl"));
        assert_eq!(m.text("--out"), Some("t.jsonl"));
    }

    #[test]
    fn a_value_may_start_with_a_dash() {
        let m = run("watch t.jsonl --rate -1").unwrap();
        assert_eq!(m.get::<f64>("--rate"), Some(-1.0));
        assert_eq!(m.get::<u64>("--idle-ms"), None);
    }

    #[test]
    fn a_repeated_value_flag_is_an_error_and_a_repeated_switch_is_not() {
        assert!(rejected("watch t.jsonl --idle-ms 5 --idle-ms 6").contains("--idle-ms given more"));
        assert!(run("watch t.jsonl --json --json").unwrap().on("--json"));
    }

    #[test]
    fn help_anywhere_wins_and_exits_zero() {
        for line in ["watch --help", "watch t.jsonl --bogus --help", "watch --idle-ms --help"] {
            let exit = run(line).expect_err(line);
            assert_eq!(exit.code, 0, "{line}");
            assert!(exit.message.starts_with("usage: entitlectl watch <trace.jsonl> [--json]"));
            assert!(exit.message.contains("--idle-ms N"), "{}", exit.message);
            assert!(exit.message.contains("idle deadline"), "{}", exit.message);
        }
        let top = run("--help").expect_err("top-level help");
        assert_eq!(top.code, 0);
        assert!(top.message.contains("obs flame") && top.message.contains("static diagnostics"));
    }

    #[test]
    fn usage_errors_name_the_flag() {
        assert!(rejected("watch t.jsonl --jsno").contains("unknown flag `--jsno`"));
        assert!(rejected("watch t.jsonl --idle-ms").contains("--idle-ms needs a value"));
        assert!(rejected("watch t.jsonl --idle-ms --json").contains("--idle-ms needs a value"));
        assert!(rejected("watch t.jsonl --idle-ms soon").contains("--idle-ms expects an integer"));
        assert!(rejected("watch t.jsonl --idle-ms -1").contains("--idle-ms expects an integer"));
        assert!(rejected("watch t.jsonl --rate fast").contains("--rate expects a number"));
        assert!(rejected("watch t.jsonl --trace").contains("--trace needs a value"));
    }

    #[test]
    fn a_number_outside_its_domain_names_the_flag_and_the_domain() {
        static SHARES: &[Command] = &[Command {
            program: "entitlectl",
            name: "negotiate",
            positionals: &[],
            flags: &[&[
                flag("--accept", Num("F", Domain(End::Open(0.0), End::Closed(1.0))), "share"),
                flag("--rate", Num("GBPS", Domain(End::Open(0.0), End::Unbounded)), "rate"),
            ]],
            about: "domains",
        }];
        let args = |line: &str| -> Vec<String> { line.split_whitespace().map(str::to_string).collect() };
        let m = parse(SHARES, &args("negotiate --accept 1 --rate 1e-9")).unwrap();
        assert_eq!(m.get::<f64>("--accept"), Some(1.0));
        for (line, why) in [
            ("negotiate --accept 0", "--accept expects a finite number in (0, 1], got `0`"),
            ("negotiate --accept 5", "--accept expects a finite number in (0, 1], got `5`"),
            ("negotiate --accept NaN", "--accept expects a finite number in (0, 1], got `NaN`"),
            ("negotiate --rate 0", "--rate expects a finite number in (0, inf), got `0`"),
            ("negotiate --rate -inf", "--rate expects a finite number in (0, inf), got `-inf`"),
            ("negotiate --rate 1e400", "--rate expects a finite number in (0, inf), got `1e400`"),
            ("negotiate --rate fast", "--rate expects a number, got `fast`"),
        ] {
            let exit = parse(SHARES, &args(line)).expect_err(line);
            assert_eq!(exit.code, 2, "{line}");
            assert!(exit.message.starts_with(&format!("entitlectl negotiate: {why}\n")), "{}", exit.message);
        }
        assert_eq!(ANY.to_string(), "a finite number in (-inf, inf)");
        assert!(!ANY.admits(f64::NAN) && ANY.admits(-1e300));
    }

    #[test]
    fn commands_and_positionals_are_checked() {
        assert!(rejected("").starts_with("usage: entitlectl <command>"));
        assert!(rejected("obs").starts_with("usage: entitlectl <command>"));
        assert!(rejected("obs bogus t.jsonl").contains("obs flame"));
        assert!(rejected("watch").contains("missing <trace.jsonl>"));
        assert!(rejected("watch a.jsonl b.jsonl").contains("unexpected argument `b.jsonl`"));
        assert!(run("lint --list-rules").unwrap().positional(0).is_none());
        assert_eq!(run("lint b.json").unwrap().positional(0), Some("b.json"));
    }

    #[test]
    fn a_command_with_no_words_takes_every_line() {
        static SOLO: &[Command] = &[Command {
            program: "repro",
            name: "",
            positionals: &["[id]"],
            flags: &[&[flag("--json", Switch, "JSON")]],
            about: "one command",
        }];
        let args = |line: &str| -> Vec<String> { line.split_whitespace().map(str::to_string).collect() };
        let m = parse(SOLO, &args("fig6 --json")).unwrap();
        assert_eq!((m.positional(0), m.on("--json")), (Some("fig6"), true));
        assert_eq!(parse(SOLO, &[]).unwrap().positional(0), None);
        let exit = parse(SOLO, &args("fig6 --jsno")).expect_err("unknown flag");
        assert_eq!(exit.code, 2);
        assert!(exit.message.starts_with("repro: unknown flag `--jsno`\nusage: repro [id] [--json]\n"));
    }

    #[test]
    fn shared_groups_read_through_typed_getters() {
        let m = run("watch t.jsonl --trace out.jsonl").unwrap();
        let spec = m.telemetry();
        assert_eq!(spec.trace.as_deref(), Some("out.jsonl"));
        assert!(spec.metrics.is_none() && spec.requested());
        assert!(spec.make_obs().enabled());
        let quiet = run("watch t.jsonl").unwrap().telemetry();
        assert!(!quiet.requested() && !quiet.make_obs().enabled());
        assert_eq!(m.sweep(), (1, true));
        let exit = m.command.usage_error("--idle-ms is required");
        assert_eq!(exit.code, 2);
        assert!(exit.message.starts_with("entitlectl watch: --idle-ms is required\nusage: "));
    }
}
