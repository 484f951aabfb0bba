//! The run shape and the estimators.
//!
//! One run of one workload = repetitions of the identical
//! seed-generated op sequence, each against a fresh copy of the set-up
//! world, until the run's seconds elapse; the world is rebuilt from the
//! seed before each of the first repetitions, and that is `setup_s`.
//!
//! Every timer reading is divided by the interference factor of its own
//! moment (see `probe.rs`), and every timing metric is a median of such
//! readings across repetitions: the time the work takes with the
//! neighbours quiet.

use crate::probe::{interference, Probe, Timers};
use crate::spec;
use crate::stats::{self, quantile, quantile_of};
use crate::trace::Recorder;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// `Full` is the benchmark; `Mini` is the same code on a reduced world,
/// used for the off-path survey of a traced run and by the unit tests.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    Full,
    Mini,
}

/// How one repetition is timed.
pub enum Mode<'a, 'p> {
    /// One timer around every segment of `Workload::SEGMENT` calls.
    Throughput(&'a mut Timers<'p>),
    /// One timer around every call.
    Latency(&'a mut Timers<'p>),
    /// A span around every call, plus shadow calls into the layer below.
    Traced(&'a mut Recorder),
}

/// What one repetition did.
#[derive(Clone, Copy, Default, Debug)]
pub struct Rep {
    /// Public calls attempted.
    pub ops: u64,
    /// Work items completed (admissions, host-cycles, hose decisions).
    pub work: u64,
    /// Calls that violated their invariant.
    pub failed: u64,
    /// Digest of every decision, in call order.
    pub digest: u64,
    pub yield_share: f64,
    /// Admissions that took the sweep path, and those of them that
    /// granted nothing (both 0 off the market).
    pub sweeps: u64,
    pub sweep_zero_grants: u64,
    /// Seconds inside the timers (probes and shadow calls excluded).
    pub timed_s: f64,
}

pub trait Workload: Sized {
    const NAME: &'static str;
    /// What a work item is, for the printed report.
    const WORK_ITEM: &'static str;
    /// Calls per throughput timer: hundreds where a call costs about
    /// what the timer does; 1 where a repetition is a handful of heavy
    /// calls with fixed, different costs. There the tail is the slowest
    /// call, elsewhere the 99th percentile.
    const SEGMENT: usize;

    /// Build the world and the op sequence from the seed. This is what
    /// `setup_s` times; `rec` gets a span per layer call.
    fn build(seed: u64, scale: Scale, rec: &mut Recorder) -> Self;

    /// Digest of the generated op sequence.
    fn input_digest(&self) -> u64;

    /// Run the op sequence once against a fresh copy of the world.
    fn rep(&self, mode: Mode<'_, '_>) -> Rep;

    /// Per-layer metrics of this workload's path: folds of `rec` (the
    /// set-up and the traced repetitions) plus standalone timed calls.
    fn layers(&self, rec: &mut Recorder, out: &mut Metrics);
}

/// Named metric values; a name may be set once and must be in the spec.
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            spec::PER_LAYER.iter().any(|m| m.name == name),
            "{name} is not a per-layer metric"
        );
        assert!(self.0.insert(name, value).is_none(), "{name} set twice");
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// One statistic read once per repetition (or rebuild): from the raw
/// readings, and from the readings over their interference factors.
#[derive(Default)]
struct Readings {
    raw: Vec<f64>,
    quiet: Vec<f64>,
}

impl Readings {
    fn push(&mut self, raw: f64, quiet: f64) {
        self.raw.push(raw);
        self.quiet.push(quiet);
    }

    /// The reported value: the median quiet-machine reading.
    fn quiet(&self) -> f64 {
        stats::median(&self.quiet)
    }

    /// How far the readings scatter before and after normalisation.
    fn describe(&self) -> String {
        let scatter = |v: &[f64]| {
            if v.len() < 2 {
                return 0.0;
            }
            let (q1, q3) = stats::quartiles(v);
            (q3 - q1) / stats::median(v)
        };
        format!(
            "raw wall-clock median {:.6} (quartile spread {:.3}), normalised {:.6} (spread {:.3})",
            stats::median(&self.raw),
            scatter(&self.raw),
            self.quiet(),
            scatter(&self.quiet)
        )
    }
}

/// The numbers that fix the run shape.
#[derive(Clone, Copy)]
pub struct Shape {
    pub scale: Scale,
    pub seconds: f64,
    pub min_rebuilds: usize,
    pub min_rebuild_s: f64,
    pub min_reps: usize,
}

impl Shape {
    pub fn full(seconds: f64) -> Shape {
        Shape {
            scale: Scale::Full,
            seconds,
            min_rebuilds: 12,
            min_rebuild_s: 0.5,
            min_reps: 12,
        }
    }
}

/// One finished run, ready to print.
pub struct RunResult {
    pub workload: &'static str,
    pub seed: u64,
    pub trace: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in spec order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Human-readable lines: sample counts, spreads, fold tables.
    pub notes: Vec<String>,
    pub input_digest: u64,
    pub decision_digest: u64,
    pub reps: usize,
    pub ops_per_rep: u64,
}

/// Repetitions folded into attempted/failed and the digest check.
struct Tally {
    attempted: u64,
    failed: u64,
    reference: Option<Rep>,
    digests_agree: bool,
}

impl Tally {
    fn new() -> Tally {
        Tally {
            attempted: 0,
            failed: 0,
            reference: None,
            digests_agree: true,
        }
    }

    /// Run one repetition; a panic or a digest that differs from the
    /// first repetition's fails every op of the repetition.
    fn run(&mut self, rep: impl FnOnce() -> Rep) -> Option<Rep> {
        match catch_unwind(AssertUnwindSafe(rep)) {
            Ok(r) => {
                let reference = *self.reference.get_or_insert(r);
                self.attempted += r.ops;
                if r.digest == reference.digest {
                    self.failed += r.failed;
                } else {
                    self.digests_agree = false;
                    self.failed += r.ops;
                }
                Some(r)
            }
            Err(_) => {
                let ops = self.reference.map_or(1, |r| r.ops);
                self.attempted += ops;
                self.failed += ops;
                None
            }
        }
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.digests_agree && self.reference.is_some()
    }
}

/// The untraced run: every end-to-end metric.
pub fn run_untraced<W: Workload>(seed: u64, shape: Shape) -> RunResult {
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(shape.seconds);
    let mut probe = Probe::new();

    // Per rebuild and per repetition: the raw reading and the reading
    // over that stretch's own interference factor.
    let mut setup = Readings::default();
    let mut rep_time = Readings::default();
    // Normalised readings of every segment timer, one per repetition:
    // timer `i` times the same calls in every repetition.
    let mut segments: Vec<Vec<f64>> = Vec::new();
    let mut p50 = Readings::default();
    let mut tail = Readings::default();
    let mut factors = Vec::new();
    let mut world: Option<W> = None;
    let mut tally = Tally::new();
    let mut buffer: Vec<u64> = Vec::new();
    let mut calls = 0;
    let heavy_calls = W::SEGMENT == 1;
    let (tail_q, tail_name) = if heavy_calls {
        (1.0, "slowest call")
    } else {
        (0.99, "p99")
    };
    let mut reps = 0;
    while reps < shape.min_reps || Instant::now() < deadline {
        // Set-up, interleaved with the first repetitions so its samples
        // spread over the run like theirs do. The old world is dropped
        // first: peak memory holds one world, not two.
        if setup.raw.len() < shape.min_rebuilds
            || setup.raw.iter().sum::<f64>() < shape.min_rebuild_s
        {
            drop(world.take());
            let before = probe.burst(16);
            let t = Instant::now();
            let w = W::build(seed, shape.scale, &mut Recorder::disabled());
            let s = t.elapsed().as_secs_f64();
            let after = probe.burst(16);
            setup.push(s, s / interference((before + after) / 2.0));
            world = Some(w);
        }
        let world = world.as_ref().expect("built before the first repetition");

        // With one call per segment a repetition serves both estimators;
        // otherwise segment-timed and call-timed repetitions alternate.
        let per_call = !heavy_calls && reps % 2 == 1;
        let mut timers = Timers::new(&mut probe, std::mem::take(&mut buffer));
        let done = if per_call {
            tally.run(|| world.rep(Mode::Latency(&mut timers)))
        } else {
            tally.run(|| world.rep(Mode::Throughput(&mut timers)))
        };
        if let Some(r) = done {
            let factor = timers.interference();
            factors.push(factor);
            let mut quiet = timers.quiet_ns();
            if !per_call {
                rep_time.push(r.timed_s, quiet.iter().sum::<f64>() / 1e9);
                segments.resize(quiet.len(), Vec::new());
                for (readings, &q) in segments.iter_mut().zip(&quiet) {
                    readings.push(q);
                }
            }
            if per_call || heavy_calls {
                calls = quiet.len();
                timers.ns.sort_unstable();
                quiet.sort_by(f64::total_cmp);
                let raw = |q| quantile_of(calls, |i| timers.ns[i] as f64, q) / 1e3;
                p50.push(raw(0.50), quantile(&quiet, 0.50) / 1e3);
                tail.push(raw(tail_q), quantile(&quiet, tail_q) / 1e3);
            }
        }
        buffer = timers.ns;
        reps += 1;
        // (The test harness runs tests on threads of its own.)
        #[cfg(not(test))]
        assert!(stats::thread_count() <= cores(), "more threads than cores");
    }

    let world = world.expect("at least one rebuild");
    let reference = tally.reference.unwrap_or_default();
    // Each segment at its median across repetitions: a repetition's
    // length is their sum, and where a segment is one call, a call's
    // latency is its own median, so noise cannot reorder the calls.
    let mut typical: Vec<f64> = segments
        .iter()
        .map(|readings| stats::median(readings))
        .collect();
    let typical_s = typical.iter().sum::<f64>() / 1e9;
    let (p50_us, tail_us) = if heavy_calls {
        typical.sort_by(f64::total_cmp);
        (
            quantile(&typical, 0.50) / 1e3,
            quantile(&typical, tail_q) / 1e3,
        )
    } else {
        (p50.quiet(), tail.quiet())
    };
    let metrics = spec::END_TO_END
        .iter()
        .map(|m| {
            let value = match m.name {
                "setup_s" => setup.quiet(),
                "work_per_s" => reference.work as f64 / typical_s,
                "call_p50_us" => p50_us,
                "call_tail_us" => tail_us,
                "peak_rss_mb" => stats::peak_rss_mb(),
                "yield_share" => reference.yield_share,
                other => unreachable!("{other} is not measured"),
            };
            (m.name, value, m.unit)
        })
        .collect();

    let notes = vec![
        format!(
            "interference factor (probe / quiet probe): median {:.3} over {} repetitions, range {:.3}..{:.3}; every timing above is built from raw readings / the factor of their own moment",
            stats::median(&factors),
            factors.len(),
            stats::min(&factors),
            factors.iter().copied().fold(0.0, f64::max)
        ),
        format!("setup_s: median of {} rebuilds; {}", setup.raw.len(), setup.describe()),
        format!(
            "work_per_s: {} {} / {:.6} s, the sum over {} segments of {} call(s) of each segment's median in {} repetitions; whole repetitions: {}",
            reference.work,
            W::WORK_ITEM,
            typical_s,
            segments.len(),
            W::SEGMENT,
            rep_time.raw.len(),
            rep_time.describe()
        ),
        format!(
            "repetitions, raw/normalised seconds: {}",
            rep_time.raw.iter().zip(&rep_time.quiet).map(|(r, q)| format!("{r:.4}/{q:.4}")).collect::<Vec<_>>().join(" ")
        ),
        format!(
            "call_p50_us: p50 of the {calls} calls of a repetition{}; per repetition: {}",
            if heavy_calls { ", each call at its median across repetitions" } else { ", median across repetitions" },
            p50.describe()
        ),
        format!(
            "call_tail_us: {tail_name} of the same calls ({} calls beyond it); {}",
            calls - (tail_q * calls as f64).ceil() as usize,
            tail.describe()
        ),
        format!(
            "sweep path: {} of {} calls, {} of them granted nothing",
            reference.sweeps, reference.ops, reference.sweep_zero_grants
        ),
    ];

    RunResult {
        workload: W::NAME,
        seed,
        trace: false,
        correct: tally.correct(),
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        notes,
        input_digest: world.input_digest(),
        decision_digest: reference.digest,
        reps,
        ops_per_rep: reference.ops,
    }
}

/// What the traced pass of the subject workload adds to the layer
/// metrics: the harness's own numbers.
pub struct Subject {
    tally: Tally,
    untraced_best_s: f64,
    traced_s: Vec<f64>,
    /// How loaded the box was around the traced repetitions. Layer
    /// metrics are raw wall-clock; this is what to divide them by.
    interference: f64,
    reps: usize,
    input_digest: u64,
}

/// One workload's traced pass. The subject of the run goes at full
/// scale (two untraced reference repetitions, then two traced ones
/// whose digest must match); the other workloads go once at mini scale
/// so every layer metric of the run is a real measurement.
pub fn trace_pass<W: Workload>(
    seed: u64,
    scale: Scale,
    is_subject: bool,
    out: &mut Metrics,
) -> (Recorder, Option<Subject>) {
    let mut rec = Recorder::new();
    let world = W::build(seed, scale, &mut rec);
    let mut tally = Tally::new();
    let mut probe = Probe::new();
    let mut untraced_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut probe_ns = Vec::new();
    if is_subject {
        for _ in 0..2 {
            let mut timers = Timers::new(&mut probe, Vec::new());
            if let Some(r) = tally.run(|| world.rep(Mode::Throughput(&mut timers))) {
                untraced_s.push(r.timed_s);
            }
        }
    }
    let traced_reps = if is_subject { 2 } else { 1 };
    for k in 1..=traced_reps {
        rec.set_rep(k);
        probe_ns.push(probe.burst(16));
        if let Some(r) = tally.run(|| world.rep(Mode::Traced(&mut rec))) {
            traced_s.push(r.timed_s);
        }
        probe_ns.push(probe.burst(16));
    }
    rec.set_rep(0);
    world.layers(&mut rec, out);
    let subject = is_subject.then(|| Subject {
        untraced_best_s: stats::min(&untraced_s),
        traced_s,
        interference: interference(stats::median(&probe_ns)),
        reps: 2 + traced_reps as usize,
        input_digest: world.input_digest(),
        tally,
    });
    (rec, subject)
}

/// Fold the subject's traced pass and the layer metrics into a result.
pub fn finish_traced(
    workload: &'static str,
    seed: u64,
    subject: Subject,
    mut out: Metrics,
    recorders: &[(&'static str, Recorder)],
) -> RunResult {
    let reference = subject.tally.reference.unwrap_or_default();
    let traced_best_s = stats::min(&subject.traced_s);
    let share = |n: u64, d: u64| if d == 0 { 0.0 } else { n as f64 / d as f64 };
    out.set("market.sweep_share", share(reference.sweeps, reference.ops));
    out.set(
        "market.sweep_zero_grant_share",
        share(reference.sweep_zero_grants, reference.sweeps),
    );
    out.set("bench.timer_ns", timer_ns());
    out.set(
        "bench.rep_spread",
        stats::median(&subject.traced_s) / traced_best_s - 1.0,
    );
    out.set("bench.interference_x", subject.interference);
    out.set("bench.reps", subject.reps as f64);
    out.set(
        "bench.spans",
        recorders.iter().map(|(_, r)| r.len()).sum::<usize>() as f64,
    );
    out.set(
        "bench.trace_overhead_x",
        traced_best_s / subject.untraced_best_s,
    );

    let mut notes = Vec::new();
    for (name, rec) in recorders {
        notes.push(format!(
            "spans of {name}{}: name count total_ms self_ms",
            if *name == workload {
                " (the subject, full scale)"
            } else {
                " (survey, mini scale)"
            }
        ));
        for (span, f) in rec.fold() {
            notes.push(format!(
                "  {span} {} {:.3} {:.3}",
                f.count,
                f.total_ns as f64 / 1e6,
                f.self_ns as f64 / 1e6
            ));
        }
    }
    let metrics = spec::PER_LAYER
        .iter()
        .map(|m| {
            let v = out
                .get(m.name)
                .unwrap_or_else(|| panic!("{} was not measured", m.name));
            (m.name, v, m.unit)
        })
        .collect();
    RunResult {
        workload,
        seed,
        trace: true,
        correct: subject.tally.correct(),
        attempted: subject.tally.attempted,
        failed: subject.tally.failed,
        metrics,
        notes,
        input_digest: subject.input_digest,
        decision_digest: reference.digest,
        reps: subject.reps,
        ops_per_rep: reference.ops,
    }
}

/// Cost of the harness's own `Instant` pair.
fn timer_ns() -> f64 {
    let n = 200_000;
    let t = Instant::now();
    for _ in 0..n {
        std::hint::black_box(Instant::now().elapsed());
    }
    t.elapsed().as_nanos() as f64 / f64::from(n)
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Mean seconds per iteration of `f`, best of `passes` passes of
/// `iters` iterations: the estimator of the standalone layer calls.
pub fn best_mean_s(passes: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..passes {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        best = best.min(t.elapsed().as_secs_f64() / iters as f64);
    }
    best
}
