//! The three workloads and the helpers they share.

pub mod layers;
pub mod paper_drive;
pub mod serve_mix;
pub mod sweep_smoke;

use crate::report::Report;
use crate::spans::{span_cost_secs, Spans};
use crate::stats;
use av_core::stack::{run_drive_streamed, RunConfig, RunReport, StackConfig};
use std::time::Instant;

/// Virtual seconds between the pauses of a timed drive. The first pause
/// marks the end of set-up: everything before it is world generation,
/// HD-map build and session construction, plus at most this much
/// simulated time.
pub(crate) const SETUP_PROBE_SLICE_S: f64 = 0.01;

/// One drive through the public streamed seam (byte-identical to
/// `run_drive`), split into set-up and simulation host time.
pub struct TimedDrive {
    /// Host seconds from the call to the first pause.
    pub setup_s: f64,
    /// Host seconds from the first pause to the return.
    pub sim_s: f64,
    /// The drive's report.
    pub report: RunReport,
}

/// The `count` seeds a run cycles its operations through: `seed` itself
/// first, then seeds derived from it in [2^51, 2^52), which JSON numbers
/// carry exactly.
pub fn run_seeds(seed: u64, count: u64) -> Vec<u64> {
    (0..count)
        .map(|k| {
            if k == 0 {
                seed
            } else {
                (seed.wrapping_mul(count).wrapping_add(k) | 1 << 51) % (1 << 52)
            }
        })
        .collect()
}

/// Runs and times one drive.
pub fn timed_drive(config: &StackConfig, run: &RunConfig) -> TimedDrive {
    let started = Instant::now();
    let mut first_pause: Option<Instant> = None;
    let report = run_drive_streamed(config, run, SETUP_PROBE_SLICE_S, &mut |_| {
        first_pause.get_or_insert_with(Instant::now);
    });
    let done = Instant::now();
    let first_pause = first_pause.expect("a streamed drive pauses at least once");
    TimedDrive {
        setup_s: (first_pause - started).as_secs_f64(),
        sim_s: (done - first_pause).as_secs_f64(),
        report,
    }
}

/// Messages delivered to `node`'s subscription on `topic` — the exact
/// number of callbacks that ran the node's kernel on that topic.
pub fn delivered(report: &RunReport, topic: &str, node: &str) -> u64 {
    report.drops.iter().filter(|d| d.topic == topic && d.node == node).map(|d| d.delivered).sum()
}

/// Messages published towards `node` on `topic` (delivered + dropped).
pub fn offered(report: &RunReport, topic: &str, node: &str) -> u64 {
    report
        .drops
        .iter()
        .filter(|d| d.topic == topic && d.node == node)
        .map(|d| d.delivered + d.dropped)
        .sum()
}

/// Total node callbacks recorded by the latency recorder.
pub fn callbacks(report: &RunReport) -> u64 {
    report.recorder.nodes().iter().map(|n| report.node_summary(n).count as u64).sum()
}

/// The exact `ros.*` work counts of one drive.
pub fn ros_metrics(report: &RunReport, out: &mut Report) {
    let delivered: u64 = report.drops.iter().map(|d| d.delivered).sum();
    let dropped: u64 = report.drops.iter().map(|d| d.dropped).sum();
    out.metric("ros.callbacks", callbacks(report) as f64, "count");
    out.metric("ros.delivered", delivered as f64, "count");
    out.metric("ros.dropped", dropped as f64, "count");
    let ratio = dropped as f64 / (delivered + dropped).max(1) as f64;
    out.metric("ros.drop_ratio", ratio, "ratio");
    out.note(format!("ros.drop_ratio base: {dropped} dropped of {} offered", delivered + dropped));
}

/// Adds the process's peak RSS as `peak_rss_mb`.
pub fn rss_metric(out: &mut Report) -> Result<(), String> {
    let mb = crate::sys::peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
    out.metric("peak_rss_mb", mb, "MB");
    Ok(())
}

/// Median of `values`, or an error naming the empty metric.
pub fn median_of(values: &[f64], what: &str) -> Result<f64, String> {
    stats::median(values).ok_or_else(|| format!("no samples for {what}"))
}

/// Adds a per-call timing metric from the durations of every span named
/// `span`, scaled by `scale` (1e6 for µs, 1e3 for ms), and a summary
/// note. Returns the mean per call in seconds (0 without samples).
pub fn span_metric(
    spans: &Spans,
    out: &mut Report,
    span: &str,
    metric: &str,
    scale: f64,
    unit: &'static str,
) -> f64 {
    let secs = spans.durations(span);
    let scaled: Vec<f64> = secs.iter().map(|s| s * scale).collect();
    if let Some(med) = stats::median(&scaled) {
        out.metric(metric, med, unit);
        out.note(format!("{metric}: {}", stats::describe(&scaled, unit)));
    }
    stats::mean(&secs).unwrap_or(0.0)
}

/// Reports the benchmark's own span-recording overhead: spans recorded
/// × the calibrated cost of one span.
pub fn span_overhead(spans: &Spans, out: &mut Report) {
    let per_span = span_cost_secs();
    let n = spans.all().len();
    out.metric("bench.span_overhead_ms", n as f64 * per_span * 1e3, "ms");
    out.note(format!("bench.span_overhead_ms base: {n} spans x {:.1} ns per span", per_span * 1e9));
}

/// Writes the run's spans to `<out_dir>/spans_<workload>_seed<seed>.json`.
pub fn write_spans(ctx: &crate::Ctx, workload: &str, spans: &Spans, out: &mut Report) {
    let path = ctx.out_dir.join(format!("spans_{workload}_seed{}.json", ctx.seed));
    match spans.write_json(&path) {
        Ok(()) => out.note(format!("spans written to {}", path.display())),
        Err(e) => out.note(format!("could not write spans to {}: {e}", path.display())),
    }
}

/// The end-to-end metrics every workload reports besides `setup_s`:
/// `wall_s`, `peak_rss_mb`, `sim_rate` (virtual seconds answered per
/// host second) and the latency of one user operation — a drive, a
/// sweep or a served request — as `latency_p50_ms` and
/// `latency_tail_ms`. The tail is the highest percentile with at least
/// ten samples beyond it; with fewer than twenty operations no
/// percentile above the median has that support, and the median is
/// reported as the tail.
pub fn end_to_end(
    out: &mut Report,
    wall_s: f64,
    sim_rates: &[f64],
    latencies_ms: &[f64],
) -> Result<(), String> {
    out.metric("wall_s", wall_s, "s");
    rss_metric(out)?;
    out.metric("sim_rate", median_of(sim_rates, "sim_rate")?, "virtual_s/s");
    let p50 = median_of(latencies_ms, "latency_p50_ms")?;
    out.metric("latency_p50_ms", p50, "ms");
    let tail = match stats::tail(latencies_ms) {
        Some(t) => {
            out.note(format!(
                "latency_tail_ms is p{} over {} operations",
                t.pct,
                latencies_ms.len()
            ));
            t.value
        }
        None => {
            out.note(format!(
                "latency_tail_ms: {} operations support no percentile above the median; median reported",
                latencies_ms.len()
            ));
            p50
        }
    };
    out.metric("latency_tail_ms", tail, "ms");
    out.note(format!("sim_rate: {}", stats::describe(sim_rates, "virtual_s/s")));
    out.note(format!("latency: {}", stats::describe(latencies_ms, "ms")));
    out.metric("fail_frac", out.failed as f64 / out.attempted.max(1) as f64, "ratio");
    Ok(())
}
