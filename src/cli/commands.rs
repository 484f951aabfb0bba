//! `entitlectl`'s command table: every subcommand, its positionals and
//! its flags, declared once. The parser, `--help`, `tests/cli_args.rs`
//! and the README's CLI reference all read this table; the binary's
//! command modules only *get* the values. The two shared groups `repro`
//! also takes, [`TELEMETRY`] and [`SWEEP`], are public.

use super::End::{Closed, Open, Unbounded};
use super::Kind::{Num, Switch, Text, U32, U64};
use super::{flag, Command, Domain, Flag};

/// A rate or an ask: more than nothing.
const POSITIVE: Domain = Domain(Open(0.0), Unbounded);
/// A planned rate: zero is a legal plan.
const NON_NEGATIVE: Domain = Domain(Closed(0.0), Unbounded);
/// An availability target or a settling share: `(0, 1]`.
const SHARE: Domain = Domain(Open(0.0), Closed(1.0));
/// Any finite number: the SLO-policy knobs, whose ranges are
/// `SloPolicy::validate`'s. It reports them with the same `E06xx` codes
/// `entitlectl lint` gives a bundle's policy, naming the flags.
const FINITE: Domain = Domain(Unbounded, Unbounded);

/// `--trace` / `--metrics`: deterministic telemetry export.
#[rustfmt::skip]
pub const TELEMETRY: &[Flag] = &[
    flag("--trace", Text("FILE"), "write the span trace as JSONL (byte-identical per seed)"),
    flag("--metrics", Text("FILE"), "write a Prometheus text snapshot of every metric touched"),
];

/// The risk-sweep knobs; both change wall-clock time only, never results.
#[rustfmt::skip]
pub const SWEEP: &[Flag] = &[
    flag("--workers", U64("N"), "scenario-sweep threads (default 1; 0 = one per core)"),
    flag("--no-dedup", Switch, "route every scenario, not each distinct failure set once"),
];

/// `--faults`: a chaos `FaultPlan` (see examples/faults/).
#[rustfmt::skip]
const FAULTS: &[Flag] = &[flag("--faults", Text("FILE"), "inject the JSON fault plan FILE")];

/// The nine SLO-policy flags of `slo report|audit`.
#[rustfmt::skip]
const SLO_POLICY: &[Flag] = &[
    flag("--fast", U64("N"), "fast burn window, cycles (default 5)"),
    flag("--slow", U64("N"), "slow burn window, cycles (default 60)"),
    flag("--hysteresis", U64("N"), "calm fast-window cycles before an alert clears"),
    flag("--fast-burn", Num("X", FINITE), "fast-window burn-rate threshold"),
    flag("--slow-burn", Num("X", FINITE), "slow-window burn-rate threshold"),
    flag("--clear-fraction", Num("X", FINITE), "fraction of the threshold that counts as calm"),
    flag("--tolerance", Num("X", FINITE), "delivery slack before an interval counts as bad"),
    flag("--under-util", Num("X", FINITE), "utilization below which an entity is over-entitled"),
    flag("--over-util", Num("X", FINITE), "utilization above which an entity is under-entitled"),
];

/// Every `entitlectl` subcommand, in `--help` order.
#[rustfmt::skip]
pub static ENTITLECTL: &[Command] = &[
    Command {
        program: "entitlectl",
        name: "plan",
        positionals: &[],
        flags: &[
            &[
                flag("--out", Text("FILE"), "contract snapshot to write (default contracts.json)"),
                flag("--seed", U64("N"), "backbone and catalog seed (default 3607)"),
                flag("--slo", Num("P", SHARE), "availability target in (0, 1] (default 0.99)"),
            ],
            SWEEP,
        ],
        about: "run a quarterly granting cycle and write the approved contracts",
    },
    Command {
        program: "entitlectl",
        name: "show",
        positionals: &[],
        flags: &[&[
            flag("--db", Text("FILE"), "contract snapshot to read (default contracts.json)"),
            flag("--npg", U32("N"), "only this NPG's contracts"),
        ]],
        about: "print the stored contracts",
    },
    Command {
        program: "entitlectl",
        name: "check",
        positionals: &[],
        flags: &[
            &[
                flag("--db", Text("FILE"), "contract snapshot to read (default contracts.json)"),
                flag("--npg", U32("N"), "the asking NPG (required)"),
                flag("--qos", Text("CLASS"), "QoS class c1..c4 or a..d (required)"),
                flag("--region", U32("R"), "egress region (required)"),
                flag("--rate", Num("GBPS", NON_NEGATIVE), "planned rate (required)"),
                flag("--risk", Switch, "also sweep failure scenarios for the rate's availability"),
                flag("--seed", U64("N"), "with --risk: backbone seed (default 3607)"),
                flag("--slo", Num("P", SHARE), "with --risk: availability to quote capacity at (default 0.99)"),
            ],
            SWEEP,
            TELEMETRY,
        ],
        about: "ask whether a planned rate fits the stored entitlement (exit 3 = over)",
    },
    Command {
        program: "entitlectl",
        name: "drill",
        positionals: &[],
        flags: &[
            &[
                flag("--hosts", U64("N"), "fleet size (default 1000; 100000 with --shards)"),
                flag("--seed", U64("N"), "drill seed (default 53783)"),
                flag("--csv", Text("FILE"), "flat drill: dump every recorded series as CSV"),
                flag("--shards", U64("S"), "run the sharded fleet engine over S shards (default 64)"),
                flag("--strategy", Text("det|par"), "fleet engine: single-threaded or scoped workers"),
                flag("--workers", U64("N"), "fleet engine: worker threads for `par` (omit to auto-size)"),
                flag("--cycles", U64("N"), "fleet engine: metering cycles (default 16)"),
                flag("--watch", Switch, "print the streaming watchdog report; exit 1 when unhealthy"),
            ],
            FAULTS,
            TELEMETRY,
        ],
        about: "run the section-6 enforcement drill, flat or (--shards/--strategy) sharded",
    },
    Command {
        program: "entitlectl",
        name: "market",
        positionals: &[],
        flags: &[
            &[
                flag("--requests", U64("N"), "admission requests in the storm (default 100000)"),
                flag("--seed", U64("N"), "backbone and storm seed (default 4960)"),
                flag("--slice-days", U32("D"), "time-slice length, days (default 7)"),
                flag("--max-ask", Num("GBPS", POSITIVE), "largest single ask (default 2)"),
                flag("--contracts", Text("FILE"), "JSON array of market entitlements (default: a synthetic book)"),
                flag("--watch", Switch, "print the watchdog report of the deterministic storm; exit 1 when unhealthy"),
            ],
            SWEEP,
            FAULTS,
            TELEMETRY,
        ],
        about: "serve a seeded admission storm through the entitlement market",
    },
    Command {
        program: "entitlectl",
        name: "negotiate",
        positionals: &[],
        flags: &[
            &[
                flag("--rate", Num("GBPS", POSITIVE), "the egress ask (required)"),
                flag("--accept", Num("FRACTION", SHARE), "share of the ask the service settles for (default 0.8)"),
                flag("--seed", U64("N"), "backbone seed (default 3607)"),
            ],
            SWEEP,
        ],
        about: "negotiate an oversized egress request against the backbone (section 8)",
    },
    Command {
        program: "entitlectl",
        name: "topo",
        positionals: &[],
        flags: &[&[
            flag("--seed", U64("N"), "backbone seed (default 3607)"),
            flag("--dot", Text("FILE"), "write the Graphviz DOT here instead of stdout"),
        ]],
        about: "generate a backbone and print its Graphviz DOT rendering",
    },
    Command {
        program: "entitlectl",
        name: "lint",
        positionals: &["[bundle.json]"],
        flags: &[&[
            flag("--json", Switch, "emit the report as JSON"),
            flag("--list-rules", Switch, "print the rule catalog and exit"),
        ]],
        about: "run the static analyzer over a contract snapshot or lint bundle",
    },
    Command {
        program: "entitlectl",
        name: "obs summarize",
        positionals: &["<trace.jsonl>"],
        flags: &[&[
            flag("--metrics", Text("FILE"), "also validate this Prometheus text file"),
            flag("--by-label", Text("KEY"), "add a breakdown by the values of label KEY"),
            flag("--tree", Switch, "add the aggregated span tree and the critical path"),
        ]],
        about: "validate a trace and print its per-(span, phase) self-time table",
    },
    Command {
        program: "entitlectl",
        name: "obs flame",
        positionals: &["<trace.jsonl>"],
        flags: &[&[flag("--out", Text("FILE"), "write the folded stacks here instead of stdout")]],
        about: "export a trace as flamegraph folded stacks",
    },
    Command {
        program: "entitlectl",
        name: "obs diff",
        positionals: &["<a>", "<b>"],
        flags: &[&[flag("--counters", Switch, "audit counter monotonicity from <a> to <b> instead")]],
        about: "first-divergence diff of two trace or Prometheus files (exit 1 = differ)",
    },
    Command {
        program: "entitlectl",
        name: "slo report",
        positionals: &["<trace.jsonl>"],
        flags: &[&[flag("--json", Switch, "emit the report as JSON")], SLO_POLICY],
        about: "fold a trace's slo/cycle and slo/interval events into attainment, audit and alerts",
    },
    Command {
        program: "entitlectl",
        name: "slo audit",
        positionals: &["<trace.jsonl>"],
        flags: &[&[flag("--json", Switch, "emit the report as JSON")], SLO_POLICY],
        about: "`slo report` as a gate: exit 1 on an SLO miss",
    },
    Command {
        program: "entitlectl",
        name: "watch",
        positionals: &["<trace.jsonl>"],
        flags: &[&[
            flag("--json", Switch, "emit the report as JSON"),
            flag("--follow", Switch, "tail the file, printing findings as they land"),
            flag("--idle-ms", U64("N"), "with --follow: stop after N ms without growth (default 2000)"),
        ]],
        about: "re-fold the runtime watchdog over a recorded trace (exit 1 = unhealthy)",
    },
    Command {
        program: "entitlectl",
        name: "explain",
        positionals: &["<trace.jsonl>"],
        flags: &[&[
            flag("--request", U64("N"), "explain the admission with this request ordinal"),
            flag("--all-denied", Switch, "explain every denied admission, in request order"),
        ]],
        about: "render admission-decision provenance from a `market --trace` recording",
    },
];
