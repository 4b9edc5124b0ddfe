//! In-memory span recording and the arithmetic that turns spans into
//! per-layer self times.
//!
//! A span is one interval with a name and a parent. Every tree has one root
//! span around a public call the benchmark made (or around an out-of-band
//! replay of a plan-cache miss). A span's *self time* is its duration minus
//! the part of its interval its children cover; overlapping children are
//! counted once, and a child sticking out of its parent only counts inside
//! it. Spans stay in memory and are aggregated when the run ends.

use std::collections::BTreeMap;

/// Root name of the out-of-band replay trees; every other root is a request.
pub const REPLAY_ROOT: &str = "replay";

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The spans one client recorded; `parent` indexes into the same vector.
#[derive(Debug, Default)]
pub struct Trace {
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn push(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span { name, parent, start_ns, end_ns });
        self.spans.len() - 1
    }

    /// Lay `phases` (name, duration) end to end inside `parent`, starting at
    /// `start_ns`, each clipped to the parent's end. Used for phases the
    /// program reports as durations without timestamps.
    pub fn push_sequential(
        &mut self,
        parent: usize,
        start_ns: u64,
        phases: &[(&'static str, u64)],
    ) {
        let end = self.spans[parent].end_ns;
        let mut at = start_ns.min(end);
        for &(name, dur) in phases {
            let stop = at.saturating_add(dur).min(end);
            self.push(name, Some(parent), at, stop);
            at = stop;
        }
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn covered(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Self time of every span, in the order of `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| s.duration_ns() - covered(s.start_ns, s.end_ns, kids))
        .collect()
}

fn root_of(spans: &[Span], mut i: usize) -> usize {
    while let Some(p) = spans[i].parent {
        i = p;
    }
    i
}

/// Trees whose self times do not add up to their root's duration (a child
/// outside its parent, or overlapping siblings). Zero for well-formed trees.
pub fn unaccounted_trees(spans: &[Span]) -> usize {
    let selfs = self_times(spans);
    let mut sums: BTreeMap<usize, u64> = BTreeMap::new();
    for (i, s) in selfs.iter().enumerate() {
        *sums.entry(root_of(spans, i)).or_default() += s;
    }
    sums.iter().filter(|(&root, &sum)| sum != spans[root].duration_ns()).count()
}

/// Self-time samples and totals of one span name.
#[derive(Debug, Default, Clone)]
pub struct Layer {
    /// Self time of each span of this name, in microseconds.
    pub self_us: Vec<f64>,
    pub self_total_ns: u64,
    /// Total duration of the roots of the trees this name appears in (the
    /// request roots, or the replay roots).
    pub root_total_ns: u64,
}

impl Layer {
    pub fn share(&self) -> f64 {
        if self.root_total_ns == 0 {
            0.0
        } else {
            self.self_total_ns as f64 / self.root_total_ns as f64
        }
    }
}

/// Aggregate self times per span name. A name's share is its total self
/// time over the total duration of the roots of its family (request trees
/// or replay trees), so request-path shares sum to 1 over all names.
pub fn aggregate(spans: &[Span]) -> BTreeMap<&'static str, Layer> {
    let selfs = self_times(spans);
    let (mut request_total, mut replay_total) = (0u64, 0u64);
    for s in spans.iter().filter(|s| s.parent.is_none()) {
        if s.name == REPLAY_ROOT {
            replay_total += s.duration_ns();
        } else {
            request_total += s.duration_ns();
        }
    }
    let mut layers: BTreeMap<&'static str, Layer> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let layer = layers.entry(s.name).or_default();
        layer.self_us.push(selfs[i] as f64 / 1e3);
        layer.self_total_ns += selfs[i];
        layer.root_total_ns =
            if spans[root_of(spans, i)].name == REPLAY_ROOT { replay_total } else { request_total };
    }
    layers
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree(children: &[(u64, u64)]) -> Vec<Span> {
        let mut t = Trace::default();
        let root = t.push("root", None, 0, 100);
        for &(s, e) in children {
            t.push("child", Some(root), s, e);
        }
        t.spans
    }

    #[test]
    fn self_time_is_span_minus_covered_children() {
        let spans = tree(&[(10, 30), (50, 60)]);
        assert_eq!(self_times(&spans), vec![70, 20, 10]);
        assert_eq!(unaccounted_trees(&spans), 0);
    }

    #[test]
    fn overlapping_children_are_not_double_counted() {
        // [10, 40) and [30, 50) cover [10, 50): 40, not 50.
        let spans = tree(&[(10, 40), (30, 50), (35, 45)]);
        assert_eq!(self_times(&spans)[0], 60);
        // Overlapping siblings make the tree's self times overshoot the root.
        assert_eq!(unaccounted_trees(&spans), 1);
    }

    #[test]
    fn children_only_count_inside_their_parent() {
        let mut t = Trace::default();
        let root = t.push("root", None, 100, 200);
        t.push("child", Some(root), 50, 150);
        t.push("child", Some(root), 190, 300);
        assert_eq!(self_times(&t.spans)[0], 40);
    }

    #[test]
    fn grandchildren_reduce_only_their_own_parent() {
        let mut t = Trace::default();
        let root = t.push("root", None, 0, 100);
        let mid = t.push("mid", Some(root), 10, 90);
        t.push("leaf", Some(mid), 20, 50);
        assert_eq!(self_times(&t.spans), vec![20, 50, 30]);
        assert_eq!(unaccounted_trees(&t.spans), 0);
    }

    #[test]
    fn sequential_phases_are_clipped_and_account_for_the_root() {
        let mut t = Trace::default();
        let root = t.push("root", None, 0, 100);
        t.push_sequential(root, 0, &[("a", 30), ("b", 50), ("c", 40)]);
        let ends: Vec<_> = t.spans.iter().map(|s| (s.start_ns, s.end_ns)).collect();
        assert_eq!(ends, vec![(0, 100), (0, 30), (30, 80), (80, 100)]);
        assert_eq!(self_times(&t.spans)[0], 0);
        assert_eq!(unaccounted_trees(&t.spans), 0);
    }

    #[test]
    fn shares_are_per_family() {
        let mut t = Trace::default();
        let r = t.push("request", None, 0, 100);
        t.push("work", Some(r), 0, 75);
        let p = t.push(REPLAY_ROOT, None, 200, 240);
        t.push("step", Some(p), 200, 230);
        let layers = aggregate(&t.spans);
        assert_eq!(layers["work"].share(), 0.75);
        assert_eq!(layers["request"].share(), 0.25);
        assert_eq!(layers["step"].share(), 0.75);
        assert_eq!(layers["step"].self_us, vec![0.03]);
    }
}
