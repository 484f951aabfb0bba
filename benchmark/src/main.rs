//! The repo benchmark. See README.md beside this crate.
//!
//! ```text
//! benchmark [--seed N] [--seconds S] [--out FILE] [--trace-out PREFIX]
//!     All five workloads, untraced then traced, each run in a child
//!     process of its own; prints every metric, then one summary JSON.
//! benchmark --workload W [--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE]
//!     One run. The last line of stdout is the result JSON.
//! benchmark noise <set-A.json…> -- <set-B.json…>
//! benchmark compare <parent.json…> -- <change.json…>
//!     Judge `--out` summaries by the bounds in BENCHMARK.json.
//! benchmark spec
//!     Print BENCHMARK.json.
//! ```

mod harness;
mod probe;
mod report;
mod spec;
mod stats;
mod trace;
mod workloads;

use harness::{
    finish_traced, run_untraced, trace_pass, Metrics, RunResult, Scale, Shape, Workload,
};
use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};
use trace::Recorder;
use workloads::admit::{AdmitExhausted, AdmitTraced, AdmitWarm};
use workloads::approval::ApprovalRound;
use workloads::fleet::FleetCycle;

struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<String>,
    out: Option<String>,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: 1,
        seconds: 8.0,
        trace: false,
        trace_out: None,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: cannot read {value:?}");
        match flag.as_str() {
            "--workload" => {
                if !spec::WORKLOADS.iter().any(|w| w.name == value) {
                    return Err(format!("unknown workload {value:?}"));
                }
                o.workload = Some(value.clone());
            }
            "--seed" => o.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                o.seconds = value.parse().map_err(|_| bad())?;
                if !(o.seconds > 0.0 && o.seconds <= 170.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                o.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--trace-out" => o.trace_out = Some(value.clone()),
            "--out" => o.out = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(o)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("spec") => {
            print!("{}", spec::spec_json());
            0
        }
        Some("noise") => report::noise(&args[1..]),
        Some("compare") => report::compare(&args[1..]),
        _ => match parse(&args) {
            Ok(o) if o.workload.is_some() => single(&o),
            Ok(o) => all(&o),
            Err(e) => {
                eprintln!("benchmark: {e}");
                2
            }
        },
    };
    std::process::exit(code);
}

/// Run `$f::<W>(…)` for the workload called `$name`.
macro_rules! dispatch {
    ($name:expr, $f:ident ( $($arg:expr),* )) => {
        match $name {
            AdmitWarm::NAME => $f::<AdmitWarm>($($arg),*),
            AdmitExhausted::NAME => $f::<AdmitExhausted>($($arg),*),
            AdmitTraced::NAME => $f::<AdmitTraced>($($arg),*),
            FleetCycle::NAME => $f::<FleetCycle>($($arg),*),
            ApprovalRound::NAME => $f::<ApprovalRound>($($arg),*),
            other => unreachable!("{other} passed `parse`"),
        }
    };
}

fn single(o: &Options) -> i32 {
    let name = o.workload.as_deref().expect("checked by the caller");
    let result = if o.trace {
        traced(name, o.seed, o.trace_out.as_deref())
    } else {
        dispatch!(name, run_untraced(o.seed, Shape::full(o.seconds)))
    };
    print_result(&result);
    0
}

/// The traced run: the subject workload at `subject_scale`, the other
/// four at mini scale, so every per-layer metric is measured in every
/// run.
fn traced_at(
    name: &str,
    seed: u64,
    subject_scale: Scale,
) -> (RunResult, Vec<(&'static str, Recorder)>) {
    let mut out = Metrics::default();
    let mut recorders = Vec::new();
    let mut subject = None;
    for w in &spec::WORKLOADS {
        let is_subject = w.name == name;
        let scale = if is_subject {
            subject_scale
        } else {
            Scale::Mini
        };
        let (rec, s) = dispatch!(w.name, trace_pass(seed, scale, is_subject, &mut out));
        recorders.push((w.name, rec));
        subject = subject.or(s);
    }
    let (workload, _) = recorders
        .iter()
        .find(|(n, _)| *n == name)
        .expect("the subject ran");
    let result = finish_traced(
        workload,
        seed,
        subject.expect("the subject ran"),
        out,
        &recorders,
    );
    (result, recorders)
}

fn traced(name: &str, seed: u64, trace_out: Option<&str>) -> RunResult {
    let (result, recorders) = traced_at(name, seed, Scale::Full);
    if let Some(path) = trace_out {
        let write = || -> std::io::Result<()> {
            let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
            for (name, rec) in &recorders {
                rec.write_jsonl(&mut w, name)?;
            }
            w.flush()
        };
        if let Err(e) = write() {
            eprintln!("benchmark: cannot write {path}: {e}");
        }
    }
    result
}

fn print_result(r: &RunResult) {
    println!(
        "workload {} seed {} trace {} ({} repetitions, {} cores, {} build)",
        r.workload,
        r.seed,
        u8::from(r.trace),
        r.reps,
        harness::cores(),
        profile()
    );
    for (name, value, unit) in &r.metrics {
        println!("  {name} {value} {unit}");
    }
    for note in &r.notes {
        println!("  # {note}");
    }
    println!(
        "  attempted {} failed {} input digest {:016x} decision digest {:016x}",
        r.attempted, r.failed, r.input_digest, r.decision_digest
    );
    println!(
        "{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"reps\":{},\"ops_per_rep\":{},\"input_digest\":\"{:016x}\",\"decision_digest\":\"{:016x}\"}}",
        r.workload,
        r.seed,
        u8::from(r.trace),
        r.reps,
        r.ops_per_rep,
        r.input_digest,
        r.decision_digest
    );
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted,
        r.failed,
        metrics.join(", ")
    );
}

fn profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// Every workload, untraced then traced, each run a child process so
/// `peak_rss_mb` is per workload. Children inherit nothing but flags.
fn all(o: &Options) -> i32 {
    let exe = std::env::current_exe().expect("the benchmark knows its own path");
    let rustc = Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map_or("unknown".to_string(), |out| {
            String::from_utf8_lossy(&out.stdout).trim().to_string()
        });
    println!(
        "machine: {} cores, {rustc}, {} build; seed {}, {} s per run",
        harness::cores(),
        profile(),
        o.seed,
        o.seconds
    );
    let mut runs = Vec::new();
    let mut ok = true;
    for trace in [false, true] {
        for w in &spec::WORKLOADS {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name])
                .args(["--seed", &o.seed.to_string()])
                .args(["--seconds", &o.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .stdout(Stdio::piped());
            if let (true, Some(prefix)) = (trace, &o.trace_out) {
                cmd.args(["--trace-out", &format!("{prefix}.{}.jsonl", w.name)]);
            }
            let mut child = cmd.spawn().expect("the benchmark can start itself");
            let stdout = child.stdout.take().expect("stdout is piped");
            let mut tail = [String::new(), String::new()];
            for line in BufReader::new(stdout).lines() {
                let line = line.expect("the child writes UTF-8");
                println!("{line}");
                tail = [std::mem::take(&mut tail[1]), line];
            }
            let status = child.wait().expect("the child can be waited for");
            if status.success() && tail[1].starts_with("{\"correct\": true") {
                runs.push(format!("{{\"detail\":{},\"result\":{}}}", tail[0], tail[1]));
            } else {
                eprintln!(
                    "benchmark: {} (trace {}) failed: {status}",
                    w.name,
                    u8::from(trace)
                );
                ok = false;
            }
        }
    }
    let summary = format!(
        "{{\"benchmark\":\"network-entitlement\",\"seed\":{},\"seconds\":{},\"fingerprint\":{{\"cores\":{},\"rustc\":\"{rustc}\",\"profile\":\"{}\"}},\"runs\":[{}],\"claim\":null}}",
        o.seed,
        o.seconds,
        harness::cores(),
        profile(),
        runs.join(",")
    );
    println!("{summary}");
    if let Some(path) = &o.out {
        if let Err(e) = std::fs::write(path, format!("{summary}\n")) {
            eprintln!("benchmark: cannot write {path}: {e}");
            ok = false;
        }
    }
    i32::from(!ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use harness::{Mode, Rep};

    /// Set-up once, four repetitions: long enough to cross every path,
    /// short enough for a debug build.
    fn smoke() -> Shape {
        Shape {
            scale: Scale::Mini,
            seconds: 0.2,
            min_rebuilds: 1,
            min_rebuild_s: 0.0,
            min_reps: 4,
        }
    }

    #[test]
    fn every_workload_smokes_clean_and_emits_every_end_to_end_metric() {
        for w in &spec::WORKLOADS {
            let r = dispatch!(w.name, run_untraced(3, smoke()));
            assert!(r.correct, "{}", w.name);
            assert_eq!(r.failed, 0, "{}", w.name);
            assert!(r.attempted >= 4, "{}", w.name);
            assert!(r.reps >= 4, "{}", w.name);
            let names: Vec<&str> = r.metrics.iter().map(|m| m.0).collect();
            let spec_names: Vec<&str> = spec::END_TO_END.iter().map(|m| m.name).collect();
            assert_eq!(names, spec_names, "{}", w.name);
            for (name, value, _) in &r.metrics {
                assert!(
                    value.is_finite() && *value > 0.0,
                    "{}.{name} = {value}",
                    w.name
                );
            }
        }
    }

    #[test]
    fn a_traced_run_emits_every_per_layer_metric_and_keeps_the_digest() {
        let (r, _) = traced_at(AdmitExhausted::NAME, 3, Scale::Mini);
        assert!(
            r.correct,
            "the traced repetitions reproduce the untraced digest"
        );
        let names: Vec<&str> = r.metrics.iter().map(|m| m.0).collect();
        let spec_names: Vec<&str> = spec::PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(names, spec_names);
        let get = |n: &str| r.metrics.iter().find(|m| m.0 == n).unwrap().1;
        assert!((0.10..=0.25).contains(&get("market.sweep_share")));
        assert_eq!(get("market.sweep_zero_grant_share"), 1.0);
        for (name, value, _) in &r.metrics {
            assert!(value.is_finite(), "{name} = {value}");
        }
    }

    #[test]
    fn generators_are_pure_functions_of_the_seed() {
        fn digest<W: Workload>(seed: u64) -> u64 {
            W::build(seed, Scale::Mini, &mut Recorder::disabled()).input_digest()
        }
        for w in &spec::WORKLOADS {
            let a = dispatch!(w.name, digest(1));
            assert_eq!(a, dispatch!(w.name, digest(1)), "{}", w.name);
            // (A mini world has few orders to draw from: some seed differs.)
            assert!(
                (2..6).any(|seed| a != dispatch!(w.name, digest(seed))),
                "{}",
                w.name
            );
        }
        // The benchmark's own inputs, pinned for seed 1: a change here
        // changes what every later comparison measures.
        fn full<W: Workload>() -> u64 {
            W::build(1, Scale::Full, &mut Recorder::disabled()).input_digest()
        }
        assert_eq!(full::<AdmitWarm>(), 0xd4ea_0e0b_1a6a_a849);
        assert_eq!(full::<AdmitExhausted>(), 0x71e9_7b8f_214e_7de0);
        assert_eq!(full::<AdmitTraced>(), 0x2c3f_bd1c_87e1_9fbe);
        assert_eq!(full::<FleetCycle>(), 0x1cec_44ba_6bb6_14a0);
        assert_eq!(full::<ApprovalRound>(), 0xcf08_c8ad_7182_8648);
    }

    #[test]
    fn a_corrupted_decision_is_counted_as_failed() {
        struct Corrupt(AdmitWarm);
        impl Workload for Corrupt {
            const NAME: &'static str = "corrupt";
            const WORK_ITEM: &'static str = AdmitWarm::WORK_ITEM;
            const SEGMENT: usize = AdmitWarm::SEGMENT;
            fn build(seed: u64, scale: Scale, rec: &mut Recorder) -> Self {
                Corrupt(AdmitWarm::build(seed, scale, rec))
            }
            fn input_digest(&self) -> u64 {
                self.0.input_digest()
            }
            fn rep(&self, mode: Mode<'_, '_>) -> Rep {
                // Every second repetition grants differently.
                let latency = matches!(mode, Mode::Latency(_));
                let mut rep = self.0.rep(mode);
                if latency {
                    rep.digest ^= 1;
                }
                rep
            }
            fn layers(&self, _: &mut Recorder, _: &mut Metrics) {}
        }
        let r = run_untraced::<Corrupt>(3, smoke());
        assert!(!r.correct);
        assert_eq!(
            r.failed,
            r.attempted / 2,
            "every op of a diverging repetition fails"
        );
    }
}
