//! The metric catalogue and the record each run prints.
//!
//! The catalogue is the one list of metric names, units, directions and
//! bounds; `BENCHMARK.json` repeats it in JSON, and a test keeps
//! the two in agreement.

use crate::stats::Bound;

/// An end-to-end metric: what a user running the experiments sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the baseline median by which the median may worsen.
    pub bound: f64,
}

impl EndToEnd {
    pub fn bound(&self) -> Bound {
        Bound::Relative(self.bound)
    }
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "tasks_per_s",
        unit: "tasks/s",
        higher_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "jct_mean_ms",
        unit: "ms",
        higher_is_better: false,
        bound: 0.12,
    },
    EndToEnd {
        name: "jct_p50_ms",
        unit: "ms",
        higher_is_better: false,
        bound: 0.10,
    },
    EndToEnd {
        name: "jct_p95_ms",
        unit: "ms",
        higher_is_better: false,
        bound: 0.20,
    },
];

/// Per-layer metrics, `<layer>.<metric>`: name, unit, and whether higher
/// is better. Layers are named after the crates (`benchmark` is this
/// program's own span recorder). Counters come from the engines' outputs
/// and count work, so fewer is better unless they count useful outcomes;
/// `*_ns*` metrics come from the kernels; `*_share` multiply a kernel
/// cost by an engine counter and are estimates.
pub const PER_LAYER: &[(&str, &str, bool)] = &[
    ("experiment.build_ms", "ms", false),
    ("workload.gen_ms", "ms", false),
    ("workload.tasks", "count", false),
    ("workload.gen_ns_per_task", "ns", false),
    ("sim.events", "count", false),
    ("sim.events_per_s", "1/s", true),
    ("sim.ns_per_event", "ns", false),
    ("sim.queue_ns_per_op", "ns", false),
    ("sim.floor_ns_per_op", "ns", false),
    ("sim.engine_over_floor", "ratio", false),
    ("core.alloc_recomputes", "count", false),
    ("core.alloc_suffix_fills", "count", false),
    ("core.alloc_reuses", "count", true),
    ("core.alloc_stale_skips", "count", true),
    ("core.alloc_ns_per_call", "ns", false),
    ("core.alloc_share", "ratio", false),
    ("core.beta_ns_per_call", "ns", false),
    ("core.beta_share", "ratio", false),
    ("core.mailbox_ns_per_msg", "ns", false),
    ("core.barrier_ns_per_wait", "ns", false),
    ("cluster.live_high_water", "count", false),
    ("cluster.bind_ns_per_call", "ns", false),
    ("cluster.occupy_release_ns", "ns", false),
    ("spec.spec_launched", "count", false),
    ("spec.spec_won", "count", true),
    ("spec.spec_win_frac", "ratio", true),
    ("spec.spec_per_task", "ratio", false),
    ("central.killed", "count", false),
    ("central.spec_warm_frac", "ratio", true),
    ("central.constrained_frac", "ratio", false),
    ("decentral.reservations", "count", false),
    ("decentral.responses", "count", false),
    ("decentral.refusals", "count", false),
    ("decentral.guideline3_switches", "count", false),
    ("decentral.msgs_per_job", "ratio", false),
    ("decentral.launches_per_reservation", "ratio", true),
    ("decentral.msgs_lost", "count", false),
    ("decentral.msgs_duplicated", "count", false),
    ("decentral.msgs_retried", "count", false),
    ("decentral.timeouts_fired", "count", false),
    ("decentral.orphan_reclaimed", "count", false),
    ("decentral.shard_windows", "count", false),
    ("decentral.horizon_stalls", "count", false),
    ("decentral.cross_msgs", "count", false),
    ("decentral.local_msgs", "count", false),
    ("decentral.cross_frac", "ratio", false),
    ("decentral.events_per_window", "ratio", true),
    ("decentral.shard_overhead", "ratio", false),
    ("metrics.telemetry_windows", "count", false),
    ("metrics.telemetry_overhead", "ratio", false),
    ("metrics.sketch_ns_per_obs", "ns", false),
    ("benchmark.trace_overhead", "ratio", false),
];

/// The unit of a catalogued metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|&(n, u, _)| (n, u)))
        .find(|(n, _)| *n == name)
        .map(|(_, u)| u)
}

/// `a / b`, or 0 when `b` is 0 (an idle layer's ratio).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Metric values by catalogue name, in insertion order.
#[derive(Debug, Default)]
pub struct Record {
    values: Vec<(&'static str, f64)>,
}

impl Record {
    /// Set a catalogued metric. Panics on a name outside the catalogue or
    /// a non-finite value: both are bugs in this program.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(unit_of(name).is_some(), "metric `{name}` is not catalogued");
        assert!(value.is_finite(), "metric `{name}` is {value}");
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// Human-readable lines, one per metric: `<name> <value> <unit>`.
    pub fn lines(&self) -> impl Iterator<Item = String> + '_ {
        self.values.iter().map(|(n, v)| {
            let unit = unit_of(n).expect("set() admits catalogued names only");
            format!("  {n:<36} {v:>16} {unit}")
        })
    }

    /// The result line: `{"correct":..,"attempted":..,"failed":..,
    /// "metrics":{name:{"value":..,"unit":..},..}}` over `names`, each of
    /// which must have been set.
    pub fn json_line<'a>(
        &self,
        names: impl IntoIterator<Item = &'a str>,
        correct: bool,
        attempted: u64,
        failed: u64,
    ) -> String {
        let metrics: Vec<String> = names
            .into_iter()
            .map(|n| {
                let v = self
                    .get(n)
                    .unwrap_or_else(|| panic!("metric `{n}` was not measured"));
                let unit = unit_of(n).expect("measured metrics are catalogued");
                format!(
                    "\"{}\":{{\"value\":{v},\"unit\":\"{}\"}}",
                    escape(n),
                    escape(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
            metrics.join(",")
        )
    }
}

/// Escape `s` for use inside a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// FNV-1a over `text`: the run's simulation fingerprint is this hash of
/// the `Debug` form of its `CoreStats` and JCT digest.
pub fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_handles_quotes_backslashes_and_controls() {
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("a\"b"), "a\\\"b");
        assert_eq!(escape("a\\b"), "a\\\\b");
        assert_eq!(escape("l1\nl2\tx\r"), "l1\\nl2\\tx\\r");
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(escape("µs/β"), "µs/β");
    }

    #[test]
    fn json_line_has_the_result_schema() {
        let mut r = Record::default();
        r.set("tasks_per_s", 1234.5);
        r.set("setup_s", 0.25);
        r.set("sim.events", 42.0);
        let line = r.json_line(["tasks_per_s", "setup_s"], true, 10, 0);
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":10,\"failed\":0,\"metrics\":{\
             \"tasks_per_s\":{\"value\":1234.5,\"unit\":\"tasks/s\"},\
             \"setup_s\":{\"value\":0.25,\"unit\":\"s\"}}}"
        );
        // Per-layer names select per-layer metrics only.
        let line = r.json_line(["sim.events"], false, 10, 10);
        assert!(line.starts_with("{\"correct\":false,\"attempted\":10,\"failed\":10,"));
        assert!(line.ends_with("{\"sim.events\":{\"value\":42,\"unit\":\"count\"}}}"));
    }

    #[test]
    fn set_overwrites_and_keeps_order() {
        let mut r = Record::default();
        r.set("sim.events", 1.0);
        r.set("workload.tasks", 2.0);
        r.set("sim.events", 3.0);
        assert_eq!(r.get("sim.events"), Some(3.0));
        let lines: Vec<String> = r.lines().collect();
        assert!(lines[0].contains("sim.events") && lines[1].contains("workload.tasks"));
    }

    #[test]
    #[should_panic(expected = "not catalogued")]
    fn uncatalogued_metric_is_a_bug() {
        Record::default().set("no.such_metric", 1.0);
    }

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|(n, _, _)| *n))
            .collect();
        for (i, n) in names.iter().enumerate() {
            assert!(!names[..i].contains(n), "duplicate metric {n}");
            assert!(n.len() <= 64 && n.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(setup.unit == "s" && !setup.higher_is_better);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn fnv1a_is_the_reference_hash() {
        assert_eq!(fnv1a(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a("a"), 0xaf63_dc4c_8601_ec8c);
    }
}
