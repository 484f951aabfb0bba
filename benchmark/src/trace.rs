//! The benchmark's own span recorder: outside-in tracing around every
//! call into a layer's public functions. Spans live in memory and are
//! written as JSONL only after all timing is done.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Id of the span that caused this one; 0 for a root.
    pub parent: u32,
    /// Repetition the span belongs to (0 = set-up and standalone calls).
    pub rep: u32,
    /// A standalone re-run of the layer below with the parent's
    /// arguments, executed after the parent returned: it counts as the
    /// parent's child for self time but lies outside its interval.
    pub shadow: bool,
}

/// Count, total and self time of every span name.
#[derive(Clone, Copy, Default)]
pub struct Fold {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Mean duration of the spans called `name`, in nanoseconds (0 when
/// there are none).
pub fn mean_ns(fold: &BTreeMap<&'static str, Fold>, name: &str) -> f64 {
    fold.get(name)
        .map_or(0.0, |f| f.total_ns as f64 / f.count as f64)
}

pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    rep: u32,
    shadow_ns: u64,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            enabled: true,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            rep: 0,
            shadow_ns: 0,
        }
    }

    /// Records nothing: `time` just runs the closure. Untraced runs pass
    /// this to the same set-up code a traced run records.
    pub fn disabled() -> Recorder {
        Recorder {
            enabled: false,
            ..Recorder::new()
        }
    }

    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Total time spent in shadow spans so far.
    pub fn shadow_ns(&self) -> u64 {
        self.shadow_ns
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one; ids start at 1.
    pub fn open(&mut self, name: &'static str) -> u32 {
        let parent = self.open.last().copied().unwrap_or(0);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            rep: self.rep,
            shadow: false,
        });
        let id = self.spans.len() as u32;
        self.open.push(id);
        id
    }

    pub fn close(&mut self, id: u32) {
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id as usize - 1].end_ns = end_ns;
    }

    /// Name a span after what its call turned out to do.
    pub fn rename(&mut self, id: u32, name: &'static str) {
        self.spans[id as usize - 1].name = name;
    }

    /// Run `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// Run `f` as a shadow child of the closed span `parent`.
    pub fn shadow<T>(&mut self, name: &'static str, parent: u32, f: impl FnOnce() -> T) -> T {
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.shadow_ns += end_ns - start_ns;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            rep: self.rep,
            shadow: true,
        });
        out
    }

    /// Per-name count, total, and self time (span minus its children).
    pub fn fold(&self) -> BTreeMap<&'static str, Fold> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != 0 {
                child_ns[s.parent as usize - 1] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Fold> = BTreeMap::new();
        for (s, &children) in self.spans.iter().zip(&child_ns) {
            let dur = s.end_ns - s.start_ns;
            let f = out.entry(s.name).or_default();
            f.count += 1;
            f.total_ns += dur;
            f.self_ns += dur.saturating_sub(children);
        }
        out
    }

    /// One JSON object per span, tagged with the workload whose pass
    /// recorded it (ids are per workload).
    pub fn write_jsonl(&self, w: &mut impl Write, workload: &str) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                w,
                "{{\"workload\":\"{workload}\",\"id\":{},\"parent\":{},\"rep\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"shadow\":{}}}",
                i + 1,
                s.parent,
                s.rep,
                s.name,
                s.start_ns,
                s.end_ns,
                s.shadow
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children_including_shadows() {
        let mut rec = Recorder::new();
        let outer = rec.open("outer");
        rec.time("inner", || std::hint::black_box(1 + 1));
        rec.close(outer);
        rec.shadow("below", outer, || std::hint::black_box(2 + 2));
        let fold = rec.fold();
        let (o, i, b) = (fold["outer"], fold["inner"], fold["below"]);
        assert_eq!((o.count, i.count, b.count), (1, 1, 1));
        assert_eq!(
            o.self_ns,
            o.total_ns.saturating_sub(i.total_ns + b.total_ns)
        );
        assert_eq!(rec.shadow_ns(), b.total_ns);
        assert_eq!(rec.spans[1].parent, outer);
        assert!(rec.spans[2].shadow);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::disabled();
        assert_eq!(rec.time("x", || 7), 7);
        assert_eq!(rec.len(), 0);
    }
}
