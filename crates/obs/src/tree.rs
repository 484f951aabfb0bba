//! Span-tree reconstruction and causal analysis over schema-v2 traces.
//!
//! Schema v2 ([`crate::trace`]) gives every event a `span_id` and a
//! `parent_id`; this module rebuilds the forest those ids describe and
//! derives the three artifacts `entitlectl` serves:
//!
//! * **self vs. total time** — a span's `dur_ms` covers its children;
//!   self-time subtracts them back out (clamped at zero, since point
//!   events inside a span legitimately carry zero duration while
//!   overlapping child spans would otherwise go negative);
//! * **critical path** — from any root, repeatedly descend into the
//!   child whose interval *ends last* (ties broken by longer duration,
//!   then smaller `span_id`, so the walk is deterministic);
//! * **folded stacks** — `span/phase;span/phase;...  <self-µs>` lines,
//!   one per distinct stack, sorted — the classic flamegraph input
//!   format, aggregated across the whole trace.
//!
//! Events appear in a JSONL trace in *close* order (children before
//! parents), so everything here is id-driven: no positional assumptions
//! beyond "ids are unique".

use crate::trace::TraceEvent;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One node of the reconstructed forest.
#[derive(Clone, Debug)]
pub struct SpanNode {
    /// Index of this node's event in the input slice.
    pub event: usize,
    /// Child node indices, sorted by (start ts, span id).
    pub children: Vec<usize>,
}

/// The reconstructed span forest: one node per event, in input order,
/// plus the root set.
#[derive(Clone, Debug)]
pub struct SpanForest {
    /// One node per input event (same indexing).
    pub nodes: Vec<SpanNode>,
    /// Indices of root nodes (parent_id 0 or 0-duration orphans),
    /// sorted by (start ts, span id).
    pub roots: Vec<usize>,
}

/// Rebuild the forest from a v2 event slice.
///
/// # Errors
///
/// Returns a message when ids are unusable as a forest: a duplicate
/// non-zero `span_id`, or a `parent_id` that resolves to no event in
/// the slice.
pub fn build_span_forest(events: &[TraceEvent]) -> Result<SpanForest, String> {
    let mut by_id: BTreeMap<u64, usize> = BTreeMap::new();
    for (i, e) in events.iter().enumerate() {
        if e.span_id == 0 {
            return Err(format!(
                "event {i} ({}/{}) has span_id 0 (unallocated)",
                e.span, e.phase
            ));
        }
        if by_id.insert(e.span_id, i).is_some() {
            return Err(format!("duplicate span_id {}", e.span_id));
        }
    }
    let mut nodes: Vec<SpanNode> = (0..events.len())
        .map(|i| SpanNode {
            event: i,
            children: Vec::new(),
        })
        .collect();
    let mut roots = Vec::new();
    for (i, e) in events.iter().enumerate() {
        if e.parent_id == 0 {
            roots.push(i);
        } else {
            match by_id.get(&e.parent_id) {
                Some(&p) => nodes[p].children.push(i),
                None => {
                    return Err(format!(
                        "event {i} ({}/{}) has unresolved parent_id {}",
                        e.span, e.phase, e.parent_id
                    ))
                }
            }
        }
    }
    let order = |&i: &usize| (events[i].ts_ms, events[i].span_id);
    roots.sort_by_key(order);
    for n in &mut nodes {
        n.children.sort_by_key(order);
    }
    Ok(SpanForest { nodes, roots })
}

/// Structural well-formedness violations beyond what
/// [`build_span_forest`] rejects: parents must open no later than their
/// children, child intervals must nest inside the parent's, and a
/// child's `trace_id` must match its parent's. Returns one message per
/// violation (empty = well-formed).
#[must_use]
pub fn check_well_formed(events: &[TraceEvent]) -> Vec<String> {
    let forest = match build_span_forest(events) {
        Ok(f) => f,
        Err(e) => return vec![e],
    };
    let mut out = Vec::new();
    for node in &forest.nodes {
        let p = &events[node.event];
        for &c in &node.children {
            let ch = &events[c];
            let what = format!(
                "{}/{} (span_id {}) under {}/{} (span_id {})",
                ch.span, ch.phase, ch.span_id, p.span, p.phase, p.span_id
            );
            if ch.ts_ms < p.ts_ms {
                out.push(format!("child opens before parent: {what}"));
            }
            if ch.end_ms() > p.end_ms() + 1e-9 {
                out.push(format!("child interval escapes parent: {what}"));
            }
            if ch.trace_id != p.trace_id {
                out.push(format!("trace_id mismatch: {what}"));
            }
        }
    }
    for &r in &forest.roots {
        let e = &events[r];
        if e.trace_id != e.span_id {
            out.push(format!(
                "root {}/{} (span_id {}) has trace_id {} != its own id",
                e.span, e.phase, e.span_id, e.trace_id
            ));
        }
    }
    out
}

/// A span's self-time: its duration minus its children's durations,
/// clamped at zero.
#[must_use]
pub fn self_time_ms(forest: &SpanForest, events: &[TraceEvent], node: usize) -> f64 {
    let child_sum: f64 = forest.nodes[node]
        .children
        .iter()
        .map(|&c| events[c].dur_ms)
        .sum();
    (events[node].dur_ms - child_sum).max(0.0)
}

/// The critical path from one root down: at every level, descend into
/// the child whose interval ends last (ties: longer duration, then
/// smaller span id). Returns node indices, root first. The path's total
/// duration never exceeds the root's.
#[must_use]
pub fn critical_path(forest: &SpanForest, events: &[TraceEvent], root: usize) -> Vec<usize> {
    let mut path = vec![root];
    let mut cur = root;
    loop {
        let next = forest.nodes[cur]
            .children
            .iter()
            .copied()
            .max_by(|&a, &b| {
                let (ea, eb) = (&events[a], &events[b]);
                ea.end_ms()
                    .total_cmp(&eb.end_ms())
                    .then(ea.dur_ms.total_cmp(&eb.dur_ms))
                    // max_by keeps the *last* max; invert the id order so
                    // the smaller span_id wins ties.
                    .then(eb.span_id.cmp(&ea.span_id))
            });
        match next {
            Some(n) => {
                path.push(n);
                cur = n;
            }
            None => return path,
        }
    }
}

/// Render the critical path of the longest root span as a table:
/// `depth, span/phase, ts, dur_ms, self_ms` per hop. Empty traces
/// render a placeholder line.
#[must_use]
pub fn render_critical_path(events: &[TraceEvent]) -> String {
    let forest = match build_span_forest(events) {
        Ok(f) => f,
        Err(e) => return format!("(no critical path: {e})\n"),
    };
    let Some(&root) = forest
        .roots
        .iter()
        .max_by(|&&a, &&b| {
            events[a]
                .dur_ms
                .total_cmp(&events[b].dur_ms)
                .then(events[b].span_id.cmp(&events[a].span_id))
        })
    else {
        return "(no events)\n".to_string();
    };
    let path = critical_path(&forest, events, root);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "critical path (root {}/{}, dur {} ms):",
        events[root].span, events[root].phase, events[root].dur_ms
    );
    for (depth, &n) in path.iter().enumerate() {
        let e = &events[n];
        let _ = writeln!(
            out,
            "{:indent$}{}/{}  ts={} dur={} self={}",
            "",
            e.span,
            e.phase,
            e.ts_ms,
            e.dur_ms,
            self_time_ms(&forest, events, n),
            indent = depth * 2
        );
    }
    out
}

/// The stack path (root-first `span/phase` frames) of every node.
fn stack_paths(forest: &SpanForest, events: &[TraceEvent]) -> Vec<String> {
    let mut paths = vec![String::new(); forest.nodes.len()];
    // Roots first, then children in forest order (DFS).
    let mut stack: Vec<usize> = forest.roots.iter().rev().copied().collect();
    let mut parent_of: Vec<Option<usize>> = vec![None; forest.nodes.len()];
    for (i, n) in forest.nodes.iter().enumerate() {
        for &c in &n.children {
            parent_of[c] = Some(i);
        }
    }
    while let Some(n) = stack.pop() {
        let e = &events[n];
        let frame = format!("{}/{}", e.span, e.phase);
        paths[n] = match parent_of[n] {
            Some(p) => format!("{};{}", paths[p], frame),
            None => frame,
        };
        for &c in forest.nodes[n].children.iter().rev() {
            stack.push(c);
        }
    }
    paths
}

/// Folded-stacks flamegraph export: one `stack value` line per distinct
/// stack, value = aggregate self-time in whole microseconds, sorted by
/// stack. Deterministic for a deterministic trace.
///
/// # Errors
///
/// Propagates [`build_span_forest`] failures.
pub fn flamegraph_folded(events: &[TraceEvent]) -> Result<String, String> {
    let forest = build_span_forest(events)?;
    let paths = stack_paths(&forest, events);
    let mut folded: BTreeMap<String, u64> = BTreeMap::new();
    for (n, path) in paths.iter().enumerate() {
        let self_us = (self_time_ms(&forest, events, n) * 1000.0).round() as u64;
        *folded.entry(path.clone()).or_insert(0) += self_us;
    }
    let mut out = String::new();
    for (path, us) in &folded {
        let _ = writeln!(out, "{path} {us}");
    }
    Ok(out)
}

/// Aggregated tree rendering: nodes merged by stack path, one row per
/// distinct path with count, total and self time, indented by depth and
/// sorted by path. This is the tree view `entitlectl obs summarize
/// --tree` prints; it stays readable even for storms with 10^4 spans.
///
/// # Errors
///
/// Propagates [`build_span_forest`] failures.
pub fn render_span_tree(events: &[TraceEvent]) -> Result<String, String> {
    let forest = build_span_forest(events)?;
    let paths = stack_paths(&forest, events);
    #[derive(Default)]
    struct Agg {
        count: u64,
        total_ms: f64,
        self_ms: f64,
    }
    let mut agg: BTreeMap<String, Agg> = BTreeMap::new();
    for (n, path) in paths.iter().enumerate() {
        let a = agg.entry(path.clone()).or_default();
        a.count += 1;
        a.total_ms += events[n].dur_ms;
        a.self_ms += self_time_ms(&forest, events, n);
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<56} {:>8} {:>12} {:>12}",
        "stack", "count", "total_ms", "self_ms"
    );
    if agg.is_empty() {
        let _ = writeln!(out, "(no events)");
        return Ok(out);
    }
    for (path, a) in &agg {
        let depth = path.matches(';').count();
        let leaf = path.rsplit(';').next().unwrap_or(path);
        let label = format!("{:indent$}{leaf}", "", indent = depth * 2);
        let _ = writeln!(
            out,
            "{label:<56} {:>8} {:>12.1} {:>12.1}",
            a.count, a.total_ms, a.self_ms
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Clock, Obs};

    /// A deterministic two-trace fixture:
    /// root(a/outer) -> [b/mid -> c/leaf, d/leaf2], plus a lone root.
    fn fixture() -> Vec<TraceEvent> {
        let obs = Obs::new(Clock::counting(1));
        {
            let outer = obs.span("a", "outer");
            {
                let _mid = obs.span("b", "mid");
                obs.point("c", "leaf").finish();
            }
            obs.point("d", "leaf2").finish();
            outer.finish();
        }
        obs.point("e", "lone").finish();
        obs.trace.events()
    }

    #[test]
    fn forest_reconstructs_parentage() {
        let events = fixture();
        let forest = build_span_forest(&events).unwrap();
        assert_eq!(forest.roots.len(), 2);
        let root = forest.roots[0];
        assert_eq!(events[root].phase, "outer");
        assert_eq!(forest.nodes[root].children.len(), 2);
        assert!(check_well_formed(&events).is_empty(), "{events:?}");
    }

    #[test]
    fn self_time_subtracts_children() {
        let events = fixture();
        let forest = build_span_forest(&events).unwrap();
        let root = forest.roots[0];
        let child_sum: f64 = forest.nodes[root]
            .children
            .iter()
            .map(|&c| events[c].dur_ms)
            .sum();
        let st = self_time_ms(&forest, &events, root);
        assert!((st - (events[root].dur_ms - child_sum)).abs() < 1e-9);
        assert!(st >= 0.0);
    }

    #[test]
    fn critical_path_is_bounded_by_root() {
        let events = fixture();
        let forest = build_span_forest(&events).unwrap();
        let root = forest.roots[0];
        let path = critical_path(&forest, &events, root);
        assert_eq!(path[0], root);
        assert!(path.len() >= 2);
        for w in path.windows(2) {
            assert!(forest.nodes[w[0]].children.contains(&w[1]));
            assert!(events[w[1]].dur_ms <= events[w[0]].dur_ms + 1e-9);
        }
    }

    #[test]
    fn unresolved_parent_is_an_error() {
        let mut events = fixture();
        events[0].parent_id = 9999;
        assert!(build_span_forest(&events).is_err());
        assert!(!check_well_formed(&events).is_empty());
    }

    #[test]
    fn duplicate_span_id_is_an_error() {
        let mut events = fixture();
        let id = events[1].span_id;
        events[0].span_id = id;
        assert!(build_span_forest(&events)
            .unwrap_err()
            .contains("duplicate"));
    }

    #[test]
    fn folded_stacks_are_sorted_and_deterministic() {
        let a = flamegraph_folded(&fixture()).unwrap();
        let b = flamegraph_folded(&fixture()).unwrap();
        assert_eq!(a, b, "same seed, same folded stacks");
        assert!(a.contains("a/outer;b/mid;c/leaf "), "{a}");
        assert!(a.contains("e/lone "), "{a}");
        let lines: Vec<&str> = a.lines().collect();
        let mut sorted = lines.clone();
        sorted.sort_unstable();
        assert_eq!(lines, sorted, "folded output sorted by stack");
    }

    #[test]
    fn tree_render_merges_by_stack() {
        let table = render_span_tree(&fixture()).unwrap();
        assert!(table.contains("a/outer"), "{table}");
        assert!(table.contains("  b/mid"), "indented child: {table}");
        assert!(table.contains("    c/leaf"), "{table}");
    }

    #[test]
    fn critical_path_render_names_the_root() {
        let text = render_critical_path(&fixture());
        assert!(text.starts_with("critical path (root a/outer"), "{text}");
    }

    #[test]
    fn empty_trace_renders_placeholders() {
        assert!(render_span_tree(&[]).unwrap().contains("(no events)"));
        assert_eq!(flamegraph_folded(&[]).unwrap(), "");
        assert!(render_critical_path(&[]).contains("(no events)"));
    }
}
