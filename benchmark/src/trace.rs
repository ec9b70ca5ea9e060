//! The benchmark's own span recorder.
//!
//! Spans are recorded from the benchmark's side of each crate boundary —
//! around the public call into a layer — never inside the crates. A span
//! is `{id, parent, op, name, start_ns, end_ns}`: `id` is the span's own
//! index, `parent` the span that caused it, and `op` the identifier every
//! span of one benchmark operation shares. Spans stay in memory until the
//! run ends and are then written as one JSON object per line.
//!
//! A layer's **self time** is its span's duration minus the part of that
//! interval its child spans cover, so a parent that only dispatches costs
//! almost nothing and time is never counted twice.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// This span's index in the recorder.
    pub id: u32,
    /// The span that caused this one (`None` for an operation's root).
    pub parent: Option<u32>,
    /// Identifier shared by every span of one benchmark operation.
    pub op: u64,
    /// `layer.call`, e.g. `sim.simulate`; the part before the dot is the
    /// layer the time is attributed to.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
}

/// In-memory span store. Shared by reference; the lock is uncontended
/// except on `serve_mix`, where two client threads record concurrently.
pub struct Tracer {
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    #[must_use]
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
    }

    /// Opens a span and returns its id; pass the id as `parent` to nest.
    pub fn start(&self, parent: Option<u32>, op: u64, name: &'static str) -> u32 {
        let start_ns = self.now_ns();
        let mut spans = self.lock();
        let id = u32::try_from(spans.len()).expect("fewer than 2^32 spans");
        spans.push(Span {
            id,
            parent,
            op,
            name,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    /// Closes a span opened by [`Tracer::start`].
    pub fn end(&self, id: u32) {
        let end_ns = self.now_ns();
        self.lock()[id as usize].end_ns = end_ns;
    }

    /// Spans recorded so far: a watermark between a run's phases.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether nothing has been recorded yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Takes every recorded span out of the recorder.
    #[must_use]
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
            .into_inner()
            .expect("a thread panicked while recording a span")
    }
}

/// Runs `f` inside a span when a recorder is present, and plainly when it
/// is not — so the traced and untraced runs execute the same code. The
/// closure receives the span's id to hand to its own children.
pub fn span<R>(
    tracer: Option<&Tracer>,
    parent: Option<u32>,
    op: u64,
    name: &'static str,
    f: impl FnOnce(Option<u32>) -> R,
) -> R {
    match tracer {
        None => f(None),
        Some(t) => {
            let id = t.start(parent, op, name);
            let out = f(Some(id));
            t.end(id);
            out
        }
    }
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals (clipped to the span itself).
#[must_use]
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
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (lo, hi) in kids {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Totals for all spans of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// How many spans carried the name.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their self times.
    pub self_ns: u64,
}

/// Per-name totals over a finished trace.
#[must_use]
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.end_ns - s.start_ns;
        t.self_ns += self_ns;
    }
    out
}

/// Writes one JSON object per span.
///
/// # Errors
///
/// Returns the I/O error of creating or writing the file.
pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.op, s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u32, parent: Option<u32>, op: u64, name: &'static str, a: u64, b: u64) -> Span {
        Span {
            id,
            parent,
            op,
            name,
            start_ns: a,
            end_ns: b,
        }
    }

    #[test]
    fn self_time_is_span_minus_children_on_a_hand_built_tree() {
        // root 0..100
        //   a 10..40
        //     a1 15..25
        //   b 50..90   (two overlapping grandchildren, as with threads)
        //     b1 55..75
        //     b2 70..85
        let spans = vec![
            sp(0, None, 7, "bench.op", 0, 100),
            sp(1, Some(0), 7, "core.compile", 10, 40),
            sp(2, Some(1), 7, "transform.tile", 15, 25),
            sp(3, Some(0), 7, "dse.explore", 50, 90),
            sp(4, Some(3), 7, "sim.simulate", 55, 75),
            sp(5, Some(3), 7, "sim.simulate", 70, 85),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 10, 20, 15]);
        let totals = totals_by_name(&spans);
        assert_eq!(
            totals["sim.simulate"],
            NameTotals {
                count: 2,
                total_ns: 35,
                self_ns: 35
            }
        );
        assert_eq!(totals["core.compile"].self_ns, 20);
        // Self times of a tree without overlap add up to the root.
        let no_overlap: u64 = self_times(&spans[..3]).iter().sum();
        assert_eq!(no_overlap, 100);
    }

    #[test]
    fn a_child_reaching_past_its_parent_is_clipped() {
        let spans = vec![
            sp(0, None, 1, "bench.op", 10, 20),
            sp(1, Some(0), 1, "sim.simulate", 5, 15),
        ];
        assert_eq!(self_times(&spans)[0], 5);
    }

    #[test]
    fn spans_of_one_op_share_its_id_and_nest_by_parent() {
        let t = Tracer::new();
        for op in [3u64, 4] {
            span(Some(&t), None, op, "bench.op", |root| {
                span(Some(&t), root, op, "frontend.parse", |_| ());
                span(Some(&t), root, op, "core.compile", |c| {
                    span(Some(&t), c, op, "hw.generate", |_| ());
                });
            });
        }
        let spans = t.into_spans();
        assert_eq!(spans.len(), 8);
        for s in &spans {
            assert_eq!(s.id as usize, spans.iter().position(|x| x == s).unwrap());
            assert!(s.end_ns >= s.start_ns);
            match s.parent {
                None => assert_eq!(s.name, "bench.op"),
                Some(p) => {
                    let parent = &spans[p as usize];
                    assert_eq!(parent.op, s.op, "a child belongs to its parent's op");
                    assert!(parent.start_ns <= s.start_ns && s.end_ns <= parent.end_ns);
                }
            }
        }
        assert_eq!(spans.iter().filter(|s| s.op == 3).count(), 4);
        assert_eq!(spans.iter().filter(|s| s.op == 4).count(), 4);
        assert_eq!(
            spans[3].parent,
            Some(2),
            "hw.generate hangs off core.compile"
        );
    }

    #[test]
    fn untraced_spans_run_the_closure_and_record_nothing() {
        let got = span(None, None, 0, "bench.op", |id| {
            assert_eq!(id, None);
            41 + 1
        });
        assert_eq!(got, 42);
    }

    #[test]
    fn jsonl_has_one_line_per_span_with_every_field() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("out/test-trace-{}", std::process::id()));
        let path = dir.join("t.trace.jsonl");
        let spans = vec![
            sp(0, None, 9, "bench.op", 1, 5),
            sp(1, Some(0), 9, "sim.simulate", 2, 4),
        ];
        write_jsonl(&spans, &path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines,
            vec![
                "{\"id\":0,\"parent\":null,\"op\":9,\"name\":\"bench.op\",\"start_ns\":1,\"end_ns\":5}",
                "{\"id\":1,\"parent\":0,\"op\":9,\"name\":\"sim.simulate\",\"start_ns\":2,\"end_ns\":4}",
            ]
        );
    }
}
