//! The metric table, the result line and the `BENCHMARK.json` rendering.
//! `BENCHMARK.json` is generated from the tables here and a test keeps
//! the committed file identical to that rendering, so the names the
//! command prints cannot drift from the file.

use std::collections::BTreeMap;

/// The workloads, with the reason each exists.
#[cfg_attr(not(test), allow(dead_code))]
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "durable_ingest",
        "served closed-loop durable ingest of 1024-row Zipf batches: loads serve request \
         handling, parse_row, per-row apply and WAL group fsync; the cache and intake stay idle",
    ),
    (
        "tenant_queries",
        "open-loop estimate and chain queries over 48 Zipf-popular tenants beside writes that \
         each publish a 1.4 MB snapshot: loads the snapshot read path, the cache and publish",
    ),
    (
        "bulk_recover",
        "offline: full-scan probe, intake of a dirty two-relation CSV into a durable registry, \
         crash, whole-WAL replay; serve does nothing here",
    ),
];

/// Whether a metric is gated end to end or reported per layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// Printed by untraced runs, gated by `bound`.
    EndToEnd(f64),
    /// Printed by traced runs, never gated.
    PerLayer,
}

/// One metric: name, unit, which direction is better, and its kind.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: &'static str,
    /// End-to-end (with its bound) or per-layer.
    pub kind: Kind,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        kind: Kind::EndToEnd(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        kind: Kind::PerLayer,
    }
}

/// Every metric, in print order. `perfbench/README.md` maps each
/// per-layer metric to the end-to-end metric and workload it should move.
pub const METRICS: &[Metric] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("ingest_rows_per_s", "rows/s", "higher", 0.24),
    e2e("ingest_p50_ms", "ms", "lower", 0.24),
    e2e("estimate_p50_ms", "ms", "lower", 0.24),
    e2e("chain_p50_ms", "ms", "lower", 0.24),
    e2e("recovery_s", "s", "lower", 0.24),
    e2e("rel_err_p50", "ratio", "lower", 0.1),
    e2e("disk_bytes_per_row", "B/row", "lower", 0.1),
    layer("core.apply_ns_per_row", "ns", "lower"),
    layer("core.batch_apply_ns_per_row", "ns", "lower"),
    layer("core.estimate_ns", "ns", "lower"),
    layer("core.chain_us", "us", "lower"),
    layer("stream.process_ns_per_row", "ns", "lower"),
    layer("stream.sync_us", "us", "lower"),
    layer("stream.fsyncs_per_request", "count", "lower"),
    layer("stream.wal_bytes_per_row", "count", "lower"),
    layer("stream.publish_us", "us", "lower"),
    layer("stream.publishes", "count", "lower"),
    layer("stream.snapshot_estimate_ns", "ns", "lower"),
    layer("stream.chain_estimate_us", "us", "lower"),
    layer("stream.open_s", "s", "lower"),
    layer("stream.replayed_records", "count", "lower"),
    layer("serve.ingest_self_us", "us", "lower"),
    layer("serve.estimate_self_us", "us", "lower"),
    layer("serve.chain_self_us", "us", "lower"),
    layer("serve.parse_ns_per_row", "ns", "lower"),
    layer("serve.cache_hit_ratio", "ratio", "higher"),
    layer("serve.cache_hits", "count", "higher"),
    layer("serve.cache_misses", "count", "lower"),
    layer("serve.pushback", "count", "lower"),
    layer("serve.requeues", "count", "lower"),
    layer("serve.ingest_p99_ms", "ms", "lower"),
    layer("serve.estimate_p99_ms", "ms", "lower"),
    layer("serve.chain_p99_ms", "ms", "lower"),
    layer("intake.ns_per_row", "ns", "lower"),
    layer("intake.probe_ms", "ms", "lower"),
    layer("intake.rows_rejected", "count", "lower"),
    layer("bench.gen_late_ms", "ms", "lower"),
    layer("bench.trace_overhead_pct", "%", "lower"),
    layer("bench.host_stall_ms_per_s", "ms/s", "lower"),
    layer("process.peak_rss_mb", "MB", "lower"),
];

/// Seconds one run measures.
pub const RUN_SECONDS: u32 = 30;

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (non-2xx, pushback, transport errors).
    pub failed: u64,
    /// Correctness-check failures.
    pub failures: Vec<String>,
    values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Set metric `name`.
    ///
    /// # Panics
    ///
    /// If `name` is not in [`METRICS`]: a typo in the benchmark.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            METRICS.iter().any(|m| m.name == name),
            "unknown metric {name}"
        );
        self.values.insert(name, value);
    }

    /// Record a correctness check's outcome.
    pub fn check(&mut self, result: Result<(), String>) {
        if let Err(e) = result {
            self.failures.push(e);
        }
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, the latter holding every end-to-end metric (untraced)
    /// or every per-layer metric (traced). A metric the run did not
    /// produce, or produced as a non-finite number, is a failure.
    pub fn result_line(&mut self, traced: bool) -> String {
        let mut parts = Vec::new();
        for m in METRICS {
            if matches!(m.kind, Kind::PerLayer) != traced {
                continue;
            }
            match self.values.get(m.name) {
                Some(v) if v.is_finite() => parts.push(format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )),
                other => self
                    .failures
                    .push(format!("metric {} not measured ({other:?})", m.name)),
            }
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            parts.join(", ")
        )
    }
}

/// `BENCHMARK.json` as generated from the tables above.
#[cfg_attr(not(test), allow(dead_code))]
pub fn benchmark_json() -> String {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "perfbench/Cargo.toml",
        "--",
    ];
    let quoted: Vec<String> = command.iter().map(|c| format!("\"{c}\"")).collect();
    let mut out = format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"perfbench\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n",
        quoted.join(", ")
    );
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect();
    out += &rows.join(",\n");
    out += "\n  ],\n  \"end_to_end\": [\n";
    let rows: Vec<String> = METRICS
        .iter()
        .filter_map(|m| match m.kind {
            Kind::EndToEnd(bound) => Some(format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {bound}}}",
                m.name, m.unit, m.better
            )),
            Kind::PerLayer => None,
        })
        .collect();
    out += &rows.join(",\n");
    out += "\n  ],\n  \"per_layer\": [\n";
    let rows: Vec<String> = METRICS
        .iter()
        .filter(|m| m.kind == Kind::PerLayer)
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            )
        })
        .collect();
    out += &rows.join(",\n");
    out += "\n  ]\n}\n";
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_benchmark_json_matches_the_metric_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(
            committed == benchmark_json(),
            "BENCHMARK.json is stale; it should read:\n{}",
            benchmark_json()
        );
    }

    /// The names a result line prints, in order.
    fn printed_names(line: &str) -> Vec<String> {
        let metrics = &line[line.find("\"metrics\"").expect("metrics key")..];
        // Every chunk but the last ends with `"NAME`.
        let chunks: Vec<&str> = metrics.split("\": {\"value\"").collect();
        chunks[..chunks.len() - 1]
            .iter()
            .filter_map(|chunk| chunk.rsplit('"').next())
            .map(str::to_string)
            .collect()
    }

    #[test]
    fn printed_metric_names_match_benchmark_json() {
        let json = benchmark_json();
        for traced in [false, true] {
            let mut o = Outcome::default();
            for m in METRICS {
                o.set(m.name, 1.5);
            }
            let line = o.result_line(traced);
            assert!(o.correct(), "{:?}", o.failures);
            let names = printed_names(&line);
            let expected: Vec<&str> = METRICS
                .iter()
                .filter(|m| matches!(m.kind, Kind::PerLayer) == traced)
                .map(|m| m.name)
                .collect();
            assert_eq!(names, expected);
            let section = if traced { "per_layer" } else { "end_to_end" };
            let listed = &json[json.find(section).expect("section")..];
            for name in names {
                assert!(listed.contains(&format!("\"name\": \"{name}\"")), "{name}");
            }
        }
    }

    #[test]
    fn a_missing_or_non_finite_metric_makes_the_run_incorrect() {
        let mut o = Outcome::default();
        o.set("setup_s", f64::NAN);
        o.result_line(false);
        assert!(!o.correct());
        assert!(o.failures.iter().any(|f| f.contains("setup_s")));
        assert!(o.failures.iter().any(|f| f.contains("recovery_s")));
    }

    #[test]
    fn benchmark_json_respects_the_format_limits() {
        for (name, why) in WORKLOADS {
            assert!(
                name.len() <= 64 && why.len() <= 200 && !why.contains('\n'),
                "{name}"
            );
        }
        for m in METRICS {
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
            if let Kind::EndToEnd(bound) = m.kind {
                assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
            }
        }
        let setup = METRICS
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        let Kind::EndToEnd(setup_bound) = setup.kind else {
            panic!("setup_s must be end to end")
        };
        assert!(METRICS
            .iter()
            .all(|m| !matches!(m.kind, Kind::EndToEnd(b) if b > setup_bound)));
    }
}
