//! Metric collection and the result block every run prints.
//!
//! Human-readable `metric` lines come first, one per metric with its
//! unit; the last line of standard output is the machine-readable JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. Its `metrics`
//! hold exactly the metrics `BENCHMARK.json` declares — [`END_TO_END`]
//! for untraced runs, [`PER_LAYER`] for traced ones — and every workload
//! reports every one of them. Metrics only one workload has (the sweep
//! and serve layers, `fail_frac`) are printed by name but stay out of
//! the JSON.

use std::fmt::Write as _;

/// The end-to-end metrics of `BENCHMARK.json`, in its order.
pub const END_TO_END: [&str; 6] =
    ["setup_s", "wall_s", "peak_rss_mb", "sim_rate", "latency_p50_ms", "latency_tail_ms"];

/// The per-layer metrics of `BENCHMARK.json`, in its order.
pub const PER_LAYER: [&str; 31] = [
    "world.generate_s",
    "world.lidar_scan_us",
    "world.camera_capture_us",
    "core.build_map_s",
    "core.checkpoint_bytes",
    "core.checkpoint_capture_ms",
    "core.checkpoint_decode_ms",
    "core.ckptstore.open_ms",
    "core.ckptstore.put_ms",
    "core.ckptstore.load_ms",
    "pointcloud.voxel_filter_us",
    "pointcloud.kdtree_build_us",
    "perception.ground_split_us",
    "perception.cluster_us",
    "perception.ndt_align_us",
    "perception.costmap_us",
    "perception.fusion_us",
    "vision.detect_us",
    "tracking.step_us",
    "ros.callbacks",
    "ros.delivered",
    "engine.kernel_s",
    "engine.residual_s",
    "engine.kernel_share",
    "engine.host_us_per_callback",
    "trace.record_overhead_s",
    "trace.events",
    "trace.export_chrome_ms",
    "trace.export_csv_ms",
    "trace.blame_ms",
    "bench.span_overhead_ms",
];

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured (never rounded).
    pub value: f64,
    /// Unit, e.g. `ms`.
    pub unit: &'static str,
}

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Every metric, printed by name; the declared ones also go into
    /// the JSON result.
    pub metrics: Vec<Metric>,
    /// Sample summaries and other human-only lines.
    pub notes: Vec<String>,
    /// Output checks by name and verdict.
    pub checks: Vec<(String, bool)>,
    /// Operations attempted (drives, sweeps, requests).
    pub attempted: u64,
    /// Operations that failed, were rejected, or mismatched a check.
    pub failed: u64,
    /// Provenance key/value pairs (values are JSON fragments).
    pub provenance: Vec<(String, String)>,
}

impl Report {
    /// Adds a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name: name.to_string(), value, unit });
    }

    /// Adds a human-only line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Records an output check; a failing check marks the run incorrect.
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push((name.into(), ok));
    }

    /// Adds a provenance entry whose value is a JSON string.
    pub fn prov_str(&mut self, key: &str, value: &str) {
        self.provenance.push((key.to_string(), format!("\"{}\"", json_escape(value))));
    }

    /// Adds a provenance entry whose value is already JSON.
    pub fn prov_json(&mut self, key: &str, json: String) {
        self.provenance.push((key.to_string(), json));
    }

    /// Whether every output check passed and every metric is a finite
    /// number. Operations that failed without a wrong output (a request
    /// rejected under overload) count in `failed` but do not make the
    /// outputs incorrect.
    pub fn correct(&self) -> bool {
        self.attempted > 0
            && self.checks.iter().all(|(_, ok)| *ok)
            && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// Renders the full output: notes, checks, metric lines, provenance
    /// and the final JSON line holding the `declared` metrics. Fails,
    /// without output, when a declared metric was not measured or was
    /// measured twice.
    pub fn render(&self, declared: &[&str]) -> Result<String, String> {
        let mut chosen = Vec::with_capacity(declared.len());
        for name in declared {
            match self.metrics.iter().filter(|m| m.name == *name).collect::<Vec<_>>()[..] {
                [m] => chosen.push(m),
                [] => return Err(format!("declared metric {name} was not measured")),
                _ => return Err(format!("metric {name} was measured more than once")),
            }
        }
        let mut out = String::new();
        for line in &self.notes {
            let _ = writeln!(out, "{line}");
        }
        for (name, ok) in &self.checks {
            let _ = writeln!(out, "check {name}: {}", if *ok { "ok" } else { "FAILED" });
        }
        for m in &self.metrics {
            let _ = writeln!(out, "metric {} = {} {}", m.name, m.value, m.unit);
        }
        let prov: Vec<String> =
            self.provenance.iter().map(|(k, v)| format!("\"{}\":{v}", json_escape(k))).collect();
        let _ = writeln!(out, "provenance {{{}}}", prov.join(","));
        let metrics: Vec<String> = chosen
            .iter()
            .map(|m| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    json_escape(&m.name),
                    json_f64(m.value),
                    m.unit
                )
            })
            .collect();
        let _ = writeln!(
            out,
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(",")
        );
        Ok(out)
    }
}

/// A float as JSON: every digit Rust's shortest round-trip form has;
/// non-finite values become `null` (and make the run incorrect).
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Minimal JSON string escaping.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}
