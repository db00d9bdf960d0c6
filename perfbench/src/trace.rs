//! The benchmark's in-memory span recorder.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions; nothing inside the program is instrumented.
//! A recorder is owned by one thread, so recording is a `Vec` push with
//! no lock. Recorders of several threads are merged at the end; span ids
//! carry the recorder's lane in their high bits so they stay unique.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id: recorder lane in the high 32 bits, sequence in the low.
    pub id: u64,
    /// The span that caused this one, if any.
    pub parent: Option<u64>,
    /// Layer-qualified name, e.g. `stream.sync`.
    pub name: &'static str,
    /// The workload operation this span belongs to.
    pub op: u64,
    /// Start, in nanoseconds since the run's clock origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the run's clock origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans when enabled; a disabled recorder drops every span, so
/// the same workload code serves traced and untraced runs.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    lane: u64,
    enabled: bool,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder whose times count from `origin`.
    pub fn new(origin: Instant, lane: u32, enabled: bool) -> Self {
        Recorder {
            origin,
            lane: u64::from(lane) << 32,
            enabled,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds from the origin to `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a finished span; returns its id (also when disabled, so
    /// callers can pass it on as a parent unconditionally).
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.lane | self.spans.len() as u64;
        if self.enabled {
            let span = Span {
                id,
                parent,
                name,
                op,
                start_ns: self.ns(start),
                end_ns: self.ns(end),
            };
            self.spans.push(span);
        }
        id
    }

    /// The id the next recorded span will get (for a parent span that
    /// is recorded after its children).
    pub fn next_id(&self) -> u64 {
        self.lane | self.spans.len() as u64
    }

    /// Time `f` as a span named `name`.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<u64>,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = Instant::now();
        let out = f();
        self.record(name, op, parent, start, Instant::now());
        out
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// A parent span whose id must be known before its children are timed:
/// reserve it, record the children with it as parent, then close it.
/// Children are pushed first, so reservation uses a placeholder that
/// [`close`] fills in.
pub fn open(rec: &mut Recorder, name: &'static str, op: u64, start: Instant) -> u64 {
    let id = rec.next_id();
    if rec.enabled {
        rec.spans.push(Span {
            id,
            parent: None,
            name,
            op,
            start_ns: rec.ns(start),
            end_ns: 0,
        });
    }
    id
}

/// Close a span reserved with [`open`].
pub fn close(rec: &mut Recorder, id: u64, end: Instant) {
    let end_ns = rec.ns(end);
    if rec.enabled {
        let idx = (id & 0xFFFF_FFFF) as usize;
        rec.spans[idx].end_ns = end_ns;
    }
}

/// Durations (ns) of every span called `name`.
pub fn durations_ns(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64)
        .collect()
}

/// Self time of every span: its duration minus the part of its interval
/// that its children's intervals cover (overlapping children counted
/// once). Returned in `spans` order.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    use std::collections::HashMap;
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let Some(kids) = children.get_mut(&s.id) else {
                return s.dur_ns();
            };
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cur: Option<(u64, u64)> = None;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                if a >= b {
                    continue;
                }
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// Write spans as tab-separated lines `id parent name op start_ns
/// end_ns self_ns` under a header.
pub fn dump(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let selfs = self_times_ns(spans);
    let mut out = String::from("id\tparent\tname\top\tstart_ns\tend_ns\tself_ns\n");
    for (s, own) in spans.iter().zip(selfs) {
        let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
        // invariant: writing to a String cannot fail.
        writeln!(
            out,
            "{}\t{parent}\t{}\t{}\t{}\t{}\t{own}",
            s.id, s.name, s.op, s.start_ns, s.end_ns
        )
        .expect("formatting into a String");
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "x",
            op: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30),
            span(2, Some(0), 20, 40),  // overlaps 1: union is 10..40
            span(3, Some(0), 90, 120), // clipped to the parent: 90..100
            span(4, Some(1), 10, 15),
        ];
        assert_eq!(self_times_ns(&spans), vec![100 - 30 - 10, 15, 20, 30, 5]);
    }

    #[test]
    fn disabled_recorder_keeps_nothing_but_still_hands_out_ids() {
        let origin = Instant::now();
        let mut rec = Recorder::new(origin, 1, false);
        assert_eq!(rec.time("a", 0, None, || 1 + 1), 2);
        assert_eq!(rec.record("b", 0, None, origin, origin), 1 << 32);
        assert!(rec.into_spans().is_empty());
    }

    #[test]
    fn open_close_brackets_children() {
        let origin = Instant::now();
        let mut rec = Recorder::new(origin, 3, true);
        let parent = open(&mut rec, "op", 7, Instant::now());
        rec.time("child", 7, Some(parent), || ());
        close(&mut rec, parent, Instant::now());
        let spans = rec.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].id >> 32, 3);
        assert_eq!(spans[1].parent, Some(spans[0].id));
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }
}
