//! The benchmark's own span recorder.
//!
//! Spans are recorded from *outside* the program, around calls into each
//! layer's public functions. One [`Recorder`] per thread, no sharing: a span
//! is two `Instant::now()` calls and a `Vec` push. Everything stays in
//! memory until the run ends; [`chrome_json`] then writes the Chrome trace.

use std::collections::BTreeMap;
use std::time::Instant;

/// Name of the span that brackets one whole operation (a coupling step, a
/// PRMI call); every other span of that operation is its descendant.
pub const OP_SPAN: &str = "bench.op";

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `schedule.pack`.
    pub name: &'static str,
    /// Recording thread (rank, client connection, …).
    pub tid: u32,
    /// Nanoseconds since the run's common epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index (in the same recorder) of the span that caused this one.
    pub parent: Option<u32>,
    /// Operation id: spans of one step or call share it.
    pub op: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-thread span sink. A disabled recorder runs the wrapped calls and
/// records nothing, so traced and untraced passes share one code path.
pub struct Recorder {
    epoch: Instant,
    tid: u32,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Recorder {
    /// `epoch` must be the same `Instant` for every recorder of a run.
    pub fn new(epoch: Instant, tid: u32, enabled: bool) -> Self {
        Recorder { epoch, tid, enabled, spans: Vec::new(), open: Vec::new() }
    }

    /// Switches recording on or off between two operations.
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.open.is_empty(), "recording switched inside an open span");
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span that stays open (and parents later spans) until the
    /// matching [`Recorder::exit`].
    pub fn enter(&mut self, name: &'static str, op: u64) {
        if self.enabled {
            self.enter_at(name, op, self.now_ns());
        }
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if self.enabled {
            self.exit_at(self.now_ns());
        }
    }

    /// [`Recorder::enter`] for a span whose start was stamped elsewhere, on
    /// this run's epoch (another thread's half of the same operation).
    pub fn enter_at(&mut self, name: &'static str, op: u64, start_ns: u64) {
        if !self.enabled {
            return;
        }
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied();
        self.spans.push(Span { name, tid: self.tid, start_ns, end_ns: start_ns, parent, op });
        self.open.push(id);
    }

    /// [`Recorder::exit`] at a time stamped elsewhere.
    pub fn exit_at(&mut self, end_ns: u64) {
        if !self.enabled {
            return;
        }
        let id = self.open.pop().expect("exit without a matching enter");
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Runs `f` inside a span named `name`.
    pub fn scope<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        self.enter(name, op);
        let out = f();
        self.exit();
        out
    }

    /// The finished spans (all open spans must have been closed).
    pub fn finish(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "recorder finished with open spans");
        self.spans
    }
}

/// Self time of every span of one recorder: its duration minus the part of
/// its interval that its direct children cover. Children may overlap each
/// other or stick out of the parent; covered time is the union of their
/// intervals clipped to the parent's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if hi > lo {
                children[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Total self time and span count per span name over several recorders.
pub fn self_time_by_name(threads: &[Vec<Span>]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for spans in threads {
        for (s, self_ns) in spans.iter().zip(self_times(spans)) {
            let e = out.entry(s.name).or_default();
            e.0 += self_ns;
            e.1 += 1;
        }
    }
    out
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
/// ("X") event per span, the layer (text before the last dot) as category.
pub fn chrome_json(threads: &[Vec<Span>]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    for s in threads.iter().flatten() {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let cat = s.name.rsplit_once('.').map_or(s.name, |(layer, _)| layer);
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"op\":{}}}}}",
            s.name,
            cat,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.tid,
            s.op
        ));
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span { name, tid: 0, start_ns: start, end_ns: end, parent, op: 0 }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // op [0,100) ⊃ a [10,40) ⊃ a1 [15,25); op ⊃ b [50,90)
        let spans = vec![
            span(OP_SPAN, 0, 100, None),
            span("l.a", 10, 40, Some(0)),
            span("l.a1", 15, 25, Some(1)),
            span("l.b", 50, 90, Some(0)),
        ];
        // The grandchild is charged to its parent, not to the op again.
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
        let total: u64 = self_times(&spans).iter().sum();
        assert_eq!(total, 100, "self times partition the root span");
    }

    #[test]
    fn overlapping_and_overhanging_children_cover_their_union() {
        // Children [10,50) and [30,70) overlap; [90,130) overhangs the end.
        let spans = vec![
            span(OP_SPAN, 0, 100, None),
            span("l.x", 10, 50, Some(0)),
            span("l.y", 30, 70, Some(0)),
            span("l.z", 90, 130, Some(0)),
        ];
        // Union inside the parent: [10,70) ∪ [90,100) = 70.
        assert_eq!(self_times(&spans)[0], 30);
        // A child entirely inside an earlier sibling adds nothing.
        let spans = vec![
            span(OP_SPAN, 0, 100, None),
            span("l.x", 10, 80, Some(0)),
            span("l.y", 20, 30, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn recorder_nests_scopes_under_the_open_span() {
        let mut rec = Recorder::new(Instant::now(), 3, true);
        rec.enter(OP_SPAN, 7);
        let v = rec.scope("l.leaf", 7, || 42);
        rec.exit();
        assert_eq!(v, 42);
        let spans = rec.finish();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!((spans[1].tid, spans[1].op), (3, 7));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let by_name = self_time_by_name(&[spans]);
        assert_eq!(by_name[OP_SPAN].1, 1);
        assert_eq!(by_name["l.leaf"].1, 1);
    }

    #[test]
    fn spans_stamped_elsewhere_nest_under_the_open_span() {
        let mut rec = Recorder::new(Instant::now(), 0, true);
        rec.enter_at(OP_SPAN, 1, 0);
        rec.enter_at("l.outer", 1, 10);
        rec.enter_at("l.inner", 1, 30);
        rec.exit_at(70);
        rec.exit_at(90);
        rec.exit_at(100);
        let spans = rec.finish();
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!((spans[1].start_ns, spans[1].end_ns), (10, 90));
        // op 20 + outer 40 + inner 40 = the op's 100.
        assert_eq!(self_times(&spans), vec![20, 40, 40]);
    }

    #[test]
    fn disabled_recorder_records_nothing_but_runs_the_call() {
        let mut rec = Recorder::new(Instant::now(), 0, false);
        rec.enter(OP_SPAN, 0);
        assert_eq!(rec.scope("l.leaf", 0, || 5), 5);
        rec.exit();
        assert!(rec.finish().is_empty());
    }

    #[test]
    fn chrome_json_has_one_event_per_span() {
        let spans = vec![span(OP_SPAN, 0, 2000, None), span("wire.node.send", 500, 1500, Some(0))];
        let json = chrome_json(&[spans]);
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(json.contains("\"cat\":\"wire.node\""));
        assert!(json.contains("\"dur\":1.000"));
    }
}
