//! Workspace automation:
//!
//! ```text
//! cargo run -p xtask -- lint [--allowlist lint.allow]
//! ```
//!
//! `lint` is a source-level pass over the workspace's own `.rs` files
//! enforcing the repository's determinism and robustness conventions:
//!
//! * `X0101` — wall-clock or ambient randomness (`Instant::now`,
//!   `SystemTime`, `thread_rng`, `rand::`) inside the deterministic
//!   crates (`risk`, `simnet`, `topology`). Their outputs must be a
//!   pure function of their inputs, or approvals stop being
//!   reproducible.
//! * `X0102` / `X0103` — `.unwrap(` / `.expect(` in the library
//!   (non-`#[cfg(test)]`) code of the hot-path crates (`risk`,
//!   `approval`, `hose`); these run inside the granting loop and must
//!   surface failures as `Result`s. The `entitlectl` binary and its
//!   argv grammar (`src/bin/`, `src/cli*`) are enrolled too: outside
//!   input must never reach a panic.
//! * `X0104` — a library crate whose `lib.rs` does not declare
//!   `#![forbid(unsafe_code)]`.
//! * `X0105` — any `unsafe` block or function anywhere in workspace
//!   sources.
//! * `X0106` — `println!`/`print!`/`eprintln!`/`eprint!`/`dbg!` in
//!   library code. Libraries report through returned values and the
//!   telemetry registry (`entitlement-obs`), never stdout; binaries
//!   (`src/bin/`, `crates/*/src/bin/`), `examples/`, integration
//!   `tests/`, and this xtask are exempt.
//!
//! The X02xx family guards the scoped-thread paths whose results the
//! det == par equivalence gate (`tests/shard_equivalence.rs`,
//! `crates/risk/tests/equivalence.rs`) pins bit for bit:
//!
//! * `X0201` — iterator float reductions (`.sum()`, `.fold(0.0`,
//!   `.reduce(`, `.product()`) inside the parallel-path modules.
//!   Float addition is not associative; any reduction there must have
//!   a pinned, schedule-independent fold order, documented via a
//!   `lint.allow` entry.
//! * `X0202` — read-modify-write atomics (`fetch_*`,
//!   `compare_exchange*`, `.swap(`) at `Ordering::Relaxed`, anywhere.
//!   A Relaxed RMW publishes no happens-before edge, so readers can
//!   observe the result unordered with what produced it.
//! * `X0203` — `thread::spawn` / `thread::scope` outside the approved
//!   parallel modules. Every real thread must live where the det/par
//!   equivalence gate can see it.
//! * `X0204` — `static mut`, or interior-mutable statics (atomics,
//!   locks, cells at static scope) outside `thread_local!`. Global
//!   mutable state hides cross-thread edges from the ownership graph;
//!   write-once `OnceLock` init is fine.
//! * `X0205` — `.lock().unwrap(` / `.read().unwrap(` /
//!   `.write().unwrap(` in hot-path library code: poison-panic on a
//!   contended path takes the whole agent down with the lock holder.
//!
//! `#[cfg(test)]` modules, comments, and doc comments are skipped.
//! Known-good exceptions live in `lint.allow` at the repository root,
//! one per line: `CODE path-substring -- justification`. Entries that
//! match nothing are reported (and fail the run) so the allowlist
//! can't rot.

#![forbid(unsafe_code)]

use std::fmt;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Crates — or single modules, as file-path prefixes — whose outputs
/// must be deterministic (X0101). The sharded fleet runtime lives in
/// an otherwise-exempt crate, so its modules are listed individually:
/// its det/par bit-equivalence proof depends on no ambient clock or
/// randomness ever entering the engine.
const DETERMINISTIC_CRATES: &[&str] = &[
    "crates/risk",
    "crates/simnet",
    "crates/topology",
    "crates/kvstore",
    "crates/chaos",
    "crates/obs",
    "crates/slo",
    "crates/market",
    "crates/enforcement/src/fleet",
    "crates/enforcement/src/shard",
];

/// Modules on the parallel fleet path (X0201): float reductions here
/// feed the det/par bit-equivalence gate, so their fold order must be
/// pinned and every iterator reduction justified.
const PAR_MODULES: &[&str] = &[
    "crates/enforcement/src/fleet",
    "crates/risk/src/sweep",
    "crates/kvstore/src/fanout",
];

/// Modules allowed to spawn OS threads (X0203): the fleet engine's
/// scoped workers and the risk sweep pool. Everything else runs on
/// its caller's thread or hands work to these.
const APPROVED_SPAWN_MODULES: &[&str] = &[
    "crates/enforcement/src/fleet",
    "crates/risk/src/sweep",
];

/// Crates (or modules) whose library code is on the granting or
/// metering hot path (X0102/X0103).
const HOT_PATH_CRATES: &[&str] = &[
    "crates/risk",
    "crates/approval",
    "crates/hose",
    "crates/enforcement/src/fleet",
    "crates/enforcement/src/shard",
    "crates/kvstore/src/fanout",
    // The placement kernel and the path search under every risk sweep;
    // the plan fills its topology's memo of pools and rows under a lock.
    "crates/topology/src/path",
    "crates/topology/src/plan",
    "crates/topology/src/routing",
    // The write side of telemetry rides inside every traced admit and
    // fleet cycle: a poisoned lock is recovered, never unwrapped.
    "crates/obs/src/trace",
    "crates/obs/src/registry",
    // Every admit: the table probe and the decision around it. A key
    // outside the table is cold, never a panic.
    "crates/market/src/index",
    "crates/market/src/market",
    // The operator's edge: no argv and no file content may reach a
    // panic (exit 101); failures are one line and exit 1 or 2.
    "src/bin",
    "src/cli",
];

struct Finding {
    code: &'static str,
    path: String,
    line: usize,
    message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}:{}: {}", self.code, self.path, self.line, self.message)
    }
}

struct AllowEntry {
    code: String,
    path_substring: String,
    reason: String,
    used: bool,
}

fn parse_allowlist(text: &str) -> Result<Vec<AllowEntry>, String> {
    let mut entries = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (head, reason) = line
            .split_once("--")
            .ok_or_else(|| format!("lint.allow:{}: missing `-- reason`", i + 1))?;
        let mut parts = head.split_whitespace();
        let (Some(code), Some(path_substring), None) = (parts.next(), parts.next(), parts.next())
        else {
            return Err(format!(
                "lint.allow:{}: expected `CODE path-substring -- reason`",
                i + 1
            ));
        };
        let reason = reason.trim();
        if reason.is_empty() {
            return Err(format!("lint.allow:{}: empty justification", i + 1));
        }
        entries.push(AllowEntry {
            code: code.to_string(),
            path_substring: path_substring.to_string(),
            reason: reason.to_string(),
            used: false,
        });
    }
    Ok(entries)
}

/// Every workspace-owned `.rs` file: the root package's `src/`, each
/// `crates/*/src/`, plus integration tests and examples for the unsafe
/// scan. `vendor/` and `target/` are never visited.
fn workspace_sources(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut roots = vec![root.join("src"), root.join("tests"), root.join("examples")];
    if let Ok(dir) = std::fs::read_dir(root.join("crates")) {
        for entry in dir.flatten() {
            roots.push(entry.path());
        }
    }
    for r in roots {
        collect_rs(&r, &mut files);
    }
    files.sort();
    files
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let p = entry.path();
        if p.is_dir() {
            collect_rs(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

/// Strip `//` comments (covers `///` and `//!` too). Good enough for a
/// line lexer: a `//` inside a string literal will over-strip, which
/// can only hide findings on lines that embed URLs, never invent them.
fn strip_comment(line: &str) -> &str {
    match line.find("//") {
        Some(i) => &line[..i],
        None => line,
    }
}

/// Blank out the contents of double-quoted string literals so message
/// text (including this linter's own) never matches a code pattern.
/// Escaped quotes are honored; multi-line literals are out of scope for
/// a line lexer and only risk a false positive, never a false negative.
fn strip_strings(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut in_string = false;
    let mut escaped = false;
    for ch in line.chars() {
        if in_string {
            if escaped {
                escaped = false;
            } else if ch == '\\' {
                escaped = true;
            } else if ch == '"' {
                in_string = false;
                out.push('"');
            }
        } else {
            if ch == '"' {
                in_string = true;
            }
            out.push(ch);
        }
    }
    out
}

/// The line ranges (1-indexed, inclusive) covered by `#[cfg(test)]`
/// items, found by brace-tracking the block that follows the attribute.
fn test_ranges(lines: &[&str]) -> Vec<(usize, usize)> {
    marked_block_ranges(lines, "#[cfg(test)]")
}

/// Line ranges covered by `thread_local!` invocations. Their `static`s
/// are per-thread by construction, so X0204 must not flag them.
fn thread_local_ranges(lines: &[&str]) -> Vec<(usize, usize)> {
    marked_block_ranges(lines, "thread_local!")
}

/// The line ranges (1-indexed, inclusive) of the brace-delimited block
/// following each line containing `marker`.
fn marked_block_ranges(lines: &[&str], marker: &str) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut i = 0;
    while i < lines.len() {
        if strip_comment(lines[i]).contains(marker) {
            let start = i + 1;
            let mut depth: i64 = 0;
            let mut opened = false;
            let mut j = i;
            while j < lines.len() {
                for ch in strip_comment(lines[j]).chars() {
                    match ch {
                        '{' => {
                            depth += 1;
                            opened = true;
                        }
                        '}' => depth -= 1,
                        _ => {}
                    }
                }
                if opened && depth <= 0 {
                    break;
                }
                j += 1;
            }
            ranges.push((start, j + 1));
            i = j + 1;
        } else {
            i += 1;
        }
    }
    ranges
}

fn in_ranges(ranges: &[(usize, usize)], line: usize) -> bool {
    ranges.iter().any(|&(s, e)| (s..=e).contains(&line))
}

fn lint(root: &Path, allowlist_path: &Path) -> Result<Vec<Finding>, String> {
    let allow_text = std::fs::read_to_string(allowlist_path).unwrap_or_default();
    let mut allow = parse_allowlist(&allow_text)?;
    let mut findings = Vec::new();

    for file in workspace_sources(root) {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        let Ok(text) = std::fs::read_to_string(&file) else { continue };
        let lines: Vec<&str> = text.lines().collect();
        let tests = test_ranges(&lines);
        let thread_locals = thread_local_ranges(&lines);
        let deterministic = DETERMINISTIC_CRATES.iter().any(|c| rel.starts_with(c));
        let hot_path = HOT_PATH_CRATES.iter().any(|c| rel.starts_with(c))
            && (rel.contains("/src/") || rel.starts_with("src/"));
        let par_module = PAR_MODULES.iter().any(|c| rel.starts_with(c)) && rel.contains("/src/");
        let spawn_approved = APPROVED_SPAWN_MODULES.iter().any(|c| rel.starts_with(c));
        // X0202/X0203/X0204 cover library sources only: integration
        // tests and examples spawn and synchronize however they like.
        let src_file = rel.contains("/src/") || rel.starts_with("src/");
        // X0106 applies to library code only: not binaries, examples,
        // integration tests, or this xtask (whose job is to print).
        let library = !rel.contains("/bin/")
            && !rel.starts_with("examples/")
            && !rel.contains("/examples/")
            && !rel.starts_with("tests/")
            && !rel.contains("/tests/")
            && !rel.starts_with("crates/xtask");

        if rel.ends_with("src/lib.rs") && !text.contains("#![forbid(unsafe_code)]") {
            findings.push(Finding {
                code: "X0104",
                path: rel.clone(),
                line: 1,
                message: "library crate does not declare #![forbid(unsafe_code)]".into(),
            });
        }

        for (idx, raw) in lines.iter().enumerate() {
            let line_no = idx + 1;
            if in_ranges(&tests, line_no) {
                continue;
            }
            let code_part = strip_strings(strip_comment(raw));
            if code_part.trim().is_empty() {
                continue;
            }
            if deterministic {
                for pat in ["Instant::now", "SystemTime", "thread_rng", "rand::"] {
                    if code_part.contains(pat) {
                        findings.push(Finding {
                            code: "X0101",
                            path: rel.clone(),
                            line: line_no,
                            message: format!(
                                "`{pat}` in a deterministic crate; derive all variation \
                                 from explicit seeds"
                            ),
                        });
                    }
                }
            }
            if hot_path {
                if code_part.contains(".unwrap(") {
                    findings.push(Finding {
                        code: "X0102",
                        path: rel.clone(),
                        line: line_no,
                        message: "`.unwrap()` in hot-path library code; return a Result".into(),
                    });
                }
                if code_part.contains(".expect(") {
                    findings.push(Finding {
                        code: "X0103",
                        path: rel.clone(),
                        line: line_no,
                        message: "`.expect()` in hot-path library code; return a Result".into(),
                    });
                }
            }
            if library {
                for pat in ["println!", "eprintln!", "print!", "eprint!", "dbg!"] {
                    if code_part.contains(pat) {
                        findings.push(Finding {
                            code: "X0106",
                            path: rel.clone(),
                            line: line_no,
                            message: format!(
                                "`{pat}` in library code; return strings or record \
                                 through the obs registry"
                            ),
                        });
                        break; // `print!` is a substring of `println!`
                    }
                }
            }
            if par_module {
                let iterator_sum = (code_part.contains(".sum()") || code_part.contains(".sum::<"))
                    && (code_part.contains("iter(") || code_part.contains(".map("));
                if iterator_sum
                    || code_part.contains(".fold(0.0")
                    || code_part.contains(".reduce(")
                    || code_part.contains(".product()")
                {
                    findings.push(Finding {
                        code: "X0201",
                        path: rel.clone(),
                        line: line_no,
                        message: "iterator reduction in a parallel-path module; float folds \
                                  must have a pinned order — justify via lint.allow"
                            .into(),
                    });
                }
            }
            if src_file && code_part.contains("Ordering::Relaxed") {
                let rmw = code_part.contains("fetch_")
                    || code_part.contains("compare_exchange")
                    || code_part.contains(".swap(");
                if rmw {
                    findings.push(Finding {
                        code: "X0202",
                        path: rel.clone(),
                        line: line_no,
                        message: "read-modify-write atomic at Ordering::Relaxed publishes no \
                                  happens-before edge; use AcqRel (or Release/Acquire pairs)"
                            .into(),
                    });
                }
            }
            if src_file && !spawn_approved {
                for pat in ["thread::spawn", "thread::scope"] {
                    if code_part.contains(pat) {
                        findings.push(Finding {
                            code: "X0203",
                            path: rel.clone(),
                            line: line_no,
                            message: format!(
                                "`{pat}` outside the approved parallel modules \
                                 ({APPROVED_SPAWN_MODULES:?}); threads must live where \
                                 the det/par equivalence gate can see them"
                            ),
                        });
                        break;
                    }
                }
            }
            if src_file && !in_ranges(&thread_locals, line_no) {
                if code_part.contains("static mut") {
                    findings.push(Finding {
                        code: "X0204",
                        path: rel.clone(),
                        line: line_no,
                        message: "`static mut` is never acceptable; use an owned handle or a \
                                  thread_local"
                            .into(),
                    });
                } else if code_part.contains("static ")
                    && [
                        "AtomicU", "AtomicI", "AtomicBool", "AtomicUsize", "AtomicIsize",
                        "Mutex<", "RwLock<", "RefCell<", "UnsafeCell<",
                    ]
                    .iter()
                    .any(|t| code_part.contains(t))
                {
                    findings.push(Finding {
                        code: "X0204",
                        path: rel.clone(),
                        line: line_no,
                        message: "interior-mutable static hides cross-thread state from the \
                                  ownership graph; pass a handle explicitly (write-once \
                                  OnceLock init is exempt)"
                            .into(),
                    });
                }
            }
            if hot_path {
                for pat in [".lock().unwrap(", ".read().unwrap(", ".write().unwrap("] {
                    if code_part.contains(pat) {
                        findings.push(Finding {
                            code: "X0205",
                            path: rel.clone(),
                            line: line_no,
                            message: format!(
                                "`{pat}` in hot-path library code: poison-panic takes the \
                                 agent down with the lock holder; handle or ignore poison \
                                 explicitly"
                            ),
                        });
                        break;
                    }
                }
            }
            let has_unsafe = code_part
                .split(|c: char| !c.is_alphanumeric() && c != '_')
                .any(|tok| tok == "unsafe");
            if has_unsafe {
                findings.push(Finding {
                    code: "X0105",
                    path: rel.clone(),
                    line: line_no,
                    message: "`unsafe` is not used anywhere in this workspace".into(),
                });
            }
        }
    }

    // Apply the allowlist; every entry must earn its keep.
    findings.retain(|f| {
        for a in &mut allow {
            if a.code == f.code && f.path.contains(&a.path_substring) {
                a.used = true;
                return false;
            }
        }
        true
    });
    for a in &allow {
        if !a.used {
            findings.push(Finding {
                code: "XDEAD",
                path: allowlist_path.to_string_lossy().into_owned(),
                line: 0,
                message: format!(
                    "allowlist entry `{} {}` ({}) matched nothing; remove it",
                    a.code, a.path_substring, a.reason
                ),
            });
        }
    }
    Ok(findings)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) != Some("lint") {
        eprintln!("usage: cargo run -p xtask -- lint [--allowlist lint.allow]");
        return ExitCode::from(2);
    }
    // CARGO_MANIFEST_DIR is crates/xtask; the workspace root is two up.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf();
    let allowlist = args
        .iter()
        .position(|a| a == "--allowlist")
        .and_then(|i| args.get(i + 1))
        .map_or_else(|| root.join("lint.allow"), PathBuf::from);

    match lint(&root, &allowlist) {
        Ok(findings) if findings.is_empty() => {
            println!("source lint: clean");
            ExitCode::SUCCESS
        }
        Ok(findings) => {
            for f in &findings {
                println!("{f}");
            }
            println!("{} finding(s)", findings.len());
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allowlist_requires_reasons() {
        assert!(parse_allowlist("X0103 risk/sweep.rs").is_err());
        assert!(parse_allowlist("X0103 risk/sweep.rs --   ").is_err());
        let ok = parse_allowlist("# comment\nX0103 risk/sweep.rs -- worker panics propagate\n");
        assert_eq!(ok.unwrap().len(), 1);
    }

    #[test]
    fn test_ranges_cover_cfg_test_modules() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn b() { x.unwrap(); }\n}\nfn c() {}\n";
        let lines: Vec<&str> = src.lines().collect();
        let ranges = test_ranges(&lines);
        assert_eq!(ranges, vec![(2, 5)]);
        assert!(in_ranges(&ranges, 4));
        assert!(!in_ranges(&ranges, 6));
    }

    #[test]
    fn comments_are_stripped() {
        assert_eq!(strip_comment("let x = 1; // x.unwrap()"), "let x = 1; ");
        assert_eq!(strip_comment("/// doc with .unwrap()"), "");
    }

    #[test]
    fn string_literals_are_blanked() {
        assert_eq!(strip_strings(r#"let m = "unsafe .unwrap()";"#), r#"let m = "";"#);
        assert_eq!(strip_strings(r#"f("a\"b unsafe"); g()"#), r#"f(""); g()"#);
        assert_eq!(strip_strings("no strings here"), "no strings here");
    }

    #[test]
    fn findings_fire_on_bad_sources() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .unwrap()
            .join("target/xtask-lint-selftest");
        let src = dir.join("crates/risk/src");
        std::fs::create_dir_all(&src).unwrap();
        std::fs::write(
            src.join("lib.rs"),
            "pub fn t() { let _ = std::time::Instant::now(); Some(1).unwrap(); \
             println!(\"t\"); }\n",
        )
        .unwrap();
        let findings = lint(&dir, &dir.join("lint.allow")).unwrap();
        let codes: Vec<&str> = findings.iter().map(|f| f.code).collect();
        assert!(codes.contains(&"X0101"), "{codes:?}");
        assert!(codes.contains(&"X0102"), "{codes:?}");
        assert!(codes.contains(&"X0104"), "{codes:?}");
        assert!(codes.contains(&"X0106"), "{codes:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn prints_are_allowed_in_binaries_tests_and_examples() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .unwrap()
            .join("target/xtask-lint-print-selftest");
        for sub in ["crates/demo/src/bin", "crates/demo/tests", "examples"] {
            let d = dir.join(sub);
            std::fs::create_dir_all(&d).unwrap();
            std::fs::write(d.join("p.rs"), "fn main() { println!(\"ok\"); }\n").unwrap();
        }
        let findings = lint(&dir, &dir.join("lint.allow")).unwrap();
        assert!(
            !findings.iter().any(|f| f.code == "X0106"),
            "{:?}",
            findings.iter().map(ToString::to_string).collect::<Vec<_>>()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn x02xx_fire_on_bad_sources() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .unwrap()
            .join("target/xtask-lint-x02-selftest");
        // A parallel-path + hot-path module with every violation.
        let fleet = dir.join("crates/enforcement/src");
        std::fs::create_dir_all(&fleet).unwrap();
        std::fs::write(
            fleet.join("fleet.rs"),
            "pub fn f(v: &[f64]) -> f64 { v.iter().map(|x| x * 2.0).sum() }\n\
             pub fn g(a: &std::sync::atomic::AtomicU64) { \
             a.fetch_add(1, std::sync::atomic::Ordering::Relaxed); }\n\
             pub fn h(m: &std::sync::Mutex<u64>) -> u64 { *m.lock().unwrap() }\n",
        )
        .unwrap();
        // The route plan's memo (pools and rows) is filled under a lock.
        let topology = dir.join("crates/topology/src");
        std::fs::create_dir_all(&topology).unwrap();
        std::fs::write(
            topology.join("plan.rs"),
            "pub fn p(m: &std::sync::Mutex<u64>) -> u64 { *m.lock().unwrap() }\n",
        )
        .unwrap();
        // A non-approved module spawning threads and holding a static.
        let other = dir.join("crates/demo/src");
        std::fs::create_dir_all(&other).unwrap();
        std::fs::write(
            other.join("worker.rs"),
            "static COUNT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);\n\
             pub fn s() { std::thread::spawn(|| {}); }\n\
             thread_local! { static LOCAL: std::cell::RefCell<u64> = \
             std::cell::RefCell::new(0); }\n",
        )
        .unwrap();
        let findings = lint(&dir, &dir.join("lint.allow")).unwrap();
        let codes: Vec<(&str, &str, usize)> = findings
            .iter()
            .map(|f| (f.code, f.path.as_str(), f.line))
            .collect();
        assert!(
            codes.contains(&("X0201", "crates/enforcement/src/fleet.rs", 1)),
            "{codes:?}"
        );
        assert!(
            codes.contains(&("X0202", "crates/enforcement/src/fleet.rs", 2)),
            "{codes:?}"
        );
        assert!(
            codes.contains(&("X0205", "crates/enforcement/src/fleet.rs", 3)),
            "{codes:?}"
        );
        assert!(
            codes.contains(&("X0205", "crates/topology/src/plan.rs", 1)),
            "{codes:?}"
        );
        assert!(
            codes.contains(&("X0204", "crates/demo/src/worker.rs", 1)),
            "{codes:?}"
        );
        assert!(
            codes.contains(&("X0203", "crates/demo/src/worker.rs", 2)),
            "{codes:?}"
        );
        // The thread_local! static must NOT fire X0204.
        assert!(
            !codes.iter().any(|&(c, _, l)| c == "X0204" && l == 3),
            "{codes:?}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn approved_modules_may_spawn() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .unwrap()
            .join("target/xtask-lint-x02-exempt-selftest");
        let fleet = dir.join("crates/enforcement/src/fleet");
        std::fs::create_dir_all(&fleet).unwrap();
        std::fs::write(
            fleet.join("engine.rs"),
            "pub fn s() { std::thread::scope(|_| {}); }\n",
        )
        .unwrap();
        let findings = lint(&dir, &dir.join("lint.allow")).unwrap();
        let codes: Vec<&str> = findings.iter().map(|f| f.code).collect();
        assert!(!codes.contains(&"X0203"), "{codes:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn the_workspace_passes_its_own_lint() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .unwrap();
        let findings = lint(root, &root.join("lint.allow")).expect("allowlist parses");
        assert!(
            findings.is_empty(),
            "source lint findings:\n{}",
            findings
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
