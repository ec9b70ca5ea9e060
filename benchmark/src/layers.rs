//! Per-layer metrics of a traced run: the full metric set (a layer the
//! workload never calls reads 0) and the figures every workload derives
//! from its spans the same way.

use std::collections::BTreeMap;

use crate::harness::Timed;
use crate::spec::PER_LAYER;
use crate::trace::{totals_by_name, NameTotals, Span};

/// Per-layer metric values by name.
pub type Layers = BTreeMap<&'static str, f64>;

/// Span totals by span name.
pub type Totals = BTreeMap<&'static str, NameTotals>;

/// The layers time is attributed to; a span named `sim.simulate` belongs
/// to `sim`. `bench` is the benchmark's own loop around the calls.
pub const LAYERS: [&str; 9] = [
    "frontend",
    "transform",
    "hw",
    "verify",
    "core",
    "sim",
    "dse",
    "server",
    "bench",
];

/// Mean duration of the spans called `name`, or 0 when there are none.
#[must_use]
pub fn ns_per_op(totals: &Totals, name: &str) -> f64 {
    totals
        .get(name)
        .map_or(0.0, |t| t.total_ns as f64 / t.count.max(1) as f64)
}

/// Every per-layer metric at 0, then the ones all workloads share: each
/// layer's share of the traced ops' time (self time over the summed
/// duration of the root spans, so nothing is counted twice and two
/// connections' concurrent roots count as two), the span count and the
/// tracing overhead.
///
/// The first `unit_spans` spans are those of the traced units; what
/// follows them (replays, single-layer probes) counts toward per-call
/// means but not toward the shares. Returns the metrics, the totals over all
/// spans, and the summed root duration the shares are relative to.
#[must_use]
pub fn from_spans(
    spans: &[Span],
    unit_spans: usize,
    traced: &Timed,
    untraced: &Timed,
) -> (Layers, Totals, u64) {
    let mut out: Layers = PER_LAYER.iter().map(|m| (m.name, 0.0)).collect();
    let in_units = totals_by_name(&spans[..unit_spans]);
    let root_ns: u64 = spans[..unit_spans]
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    for layer in LAYERS {
        let self_ns: u64 = in_units
            .iter()
            .filter(|(name, _)| name.split('.').next() == Some(layer))
            .map(|(_, t)| t.self_ns)
            .sum();
        let key = PER_LAYER
            .iter()
            .map(|m| m.name)
            .find(|n| n.strip_suffix(".self_share") == Some(layer))
            .expect("every layer has a self_share metric");
        out.insert(key, self_ns as f64 / root_ns.max(1) as f64);
    }
    out.insert("trace.spans", spans.len() as f64);
    out.insert("trace_overhead", traced.slowdown_over(untraced));
    (out, totals_by_name(spans), root_ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_use_self_time_and_every_metric_is_present() {
        let s = |id, parent, name, a, b| Span {
            id,
            parent,
            op: 1,
            name,
            start_ns: a,
            end_ns: b,
        };
        let spans = vec![
            s(0, None, "bench.op", 0, 1_000_000),
            s(1, Some(0), "core.compile", 100_000, 700_000),
            s(2, Some(1), "transform.tile", 200_000, 500_000),
        ];
        let run = |secs| {
            let mut t = Timed::new(1, "op", 1.0);
            t.record(0, 1, secs, [0]);
            t
        };
        let (layers, totals, root_ns) = from_spans(&spans, 3, &run(1e-6), &run(1e-6));
        assert_eq!(root_ns, 1_000_000);
        assert_eq!(layers.len(), PER_LAYER.len());
        assert!((layers["bench.self_share"] - 0.4).abs() < 1e-5);
        assert!((layers["core.self_share"] - 0.3).abs() < 1e-5);
        assert!((layers["transform.self_share"] - 0.3).abs() < 1e-5);
        assert_eq!(layers["sim.self_share"], 0.0);
        assert_eq!(layers["trace.spans"], 3.0);
        assert_eq!(layers["trace_overhead"], 1.0, "two equal runs");
        assert_eq!(ns_per_op(&totals, "core.compile"), 600_000.0);
        assert_eq!(ns_per_op(&totals, "sim.simulate"), 0.0);
    }
}
