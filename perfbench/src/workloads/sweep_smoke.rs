//! `sweep_smoke`: one sweep spec of many short smoke-world points.
//!
//! The grid crosses detector × camera rate × queue capacity with a
//! blackout axis whose only non-trivial window opens after a shared
//! prefix (so blackout variants fork from one checkpoint), plus one
//! explicit duplicate of a grid point (so dedup runs). All points of a
//! sweep share one seed, hence one world and one HD-map input. Per-point
//! world and map build is about half of each point; the kernels (tiny
//! LiDAR) do little.
//!
//! Successive sweeps of a run cycle through [`SWEEP_SEEDS`] seeds derived
//! from `--seed`, the first being `--seed` itself. One smoke world costs
//! up to ±12 % more or less than another to sweep, the same on every run
//! of its seed, so a run of one seed would carry that world's cost into
//! the run-to-run spread; the run's median over several worlds does not.

use super::layers::{self, Probe};
use super::{end_to_end, median_of, run_seeds, span_metric, span_overhead, write_spans};
use crate::report::Report;
use crate::spans::Spans;
use crate::{stats, Ctx, Size};
use av_core::stack::RunConfig;
use av_sweep::runner::effective_run;
use av_sweep::{aggregate, run_sweep_instrumented, EvalCache, PointResult, SweepSpec};
use std::hint::black_box;
use std::time::Instant;

const WORKLOAD: &str = "sweep_smoke";

/// Sweeps measured at least, whatever `--seconds` says.
const MIN_SWEEPS: usize = 3;

/// Seeds successive sweeps of a run cycle through.
const SWEEP_SEEDS: u64 = 8;

/// Set-up repetitions before each sweep (set-up is about a millisecond).
const SETUP_REPS_PER_SWEEP: usize = 10;

/// Paired repetitions behind the checkpoint capture/decode costs.
const CHECKPOINT_REPS: usize = 9;

/// Untraced/traced drive pairs of the traced run's layer probe.
const TRACE_PAIRS: usize = 3;

struct Shape {
    duration_s: f64,
    detectors: &'static str,
    cameras: &'static str,
    queue_capacities: &'static str,
    blackout: &'static str,
    /// Barrier the blackout variants share, seconds.
    barrier_s: f64,
}

fn shape(size: Size) -> Shape {
    match size {
        Size::Full => Shape {
            duration_s: 3.0,
            detectors: "\"SSD512\",\"SSD300\",\"YOLOv3\"",
            cameras: "10,15,20",
            queue_capacities: "1,2",
            blackout: "camera:2-2.5",
            barrier_s: 1.5,
        },
        Size::Tiny => Shape {
            duration_s: 1.5,
            detectors: "\"YOLOv3\"",
            cameras: "10",
            queue_capacities: "1",
            blackout: "camera:1.2-1.4",
            barrier_s: 1.0,
        },
    }
}

/// The sweep spec for `seed`, as the JSON text a user would submit.
pub fn spec_json(seed: u64, size: Size) -> String {
    let s = shape(size);
    let cam_dup = s.cameras.split(',').next_back().expect("at least one camera rate");
    let cap_dup = s.queue_capacities.split(',').next_back().expect("at least one capacity");
    format!(
        "{{\"name\":\"{WORKLOAD}\",\"world\":\"smoke\",\"duration_s\":{},\
         \"grid\":{{\"detector\":[{}],\"camera_rate_hz\":[{}],\"queue_capacity\":[{}],\
         \"seed\":[{seed}],\"blackouts\":[\"none\",\"{}\"]}},\
         \"points\":[{{\"detector\":\"YOLOv3\",\"camera_rate_hz\":{cam_dup},\
         \"queue_capacity\":{cap_dup},\"seed\":{seed},\"blackouts\":\"none\"}}]}}",
        s.duration_s, s.detectors, s.cameras, s.queue_capacities, s.blackout
    )
}

fn params(size: Size) -> String {
    let s = shape(size);
    format!(
        "smoke duration_s={} detectors=[{}] camera=[{}] qcap=[{}] blackouts=[none,{}] +1 duplicate",
        s.duration_s,
        s.detectors.replace('"', ""),
        s.cameras,
        s.queue_capacities,
        s.blackout
    )
}

/// Spec parse, grid expansion and the dedup/prefix-group keying the
/// runner does before its first simulation. Returns the point count.
fn setup(text: &str) -> Result<(SweepSpec, usize), String> {
    let spec = SweepSpec::from_json(text)?;
    let base = spec.base_config();
    let run = effective_run(&spec, &RunConfig::default());
    let points = spec.points();
    for point in &points {
        let mut config = point.apply(&base);
        black_box(EvalCache::spec_hash(&config, &run));
        config.blackouts.clear();
        black_box(EvalCache::spec_hash(&config, &run));
    }
    Ok((spec, points.len()))
}

/// [`setup`] timed [`SETUP_REPS_PER_SWEEP`] times. Sampled before every
/// sweep, not only at process start, so set-up sees the same host
/// conditions as the load.
fn timed_setup(text: &str, setups: &mut Vec<f64>) -> Result<(SweepSpec, usize), String> {
    let mut parsed = None;
    for _ in 0..SETUP_REPS_PER_SWEEP {
        let t = Instant::now();
        parsed = Some(setup(text)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    Ok(parsed.expect("SETUP_REPS_PER_SWEEP > 0"))
}

fn manifest(results: &[PointResult]) -> String {
    let parts: Vec<String> =
        results.iter().map(|r| format!("{}={:#018x}", r.point.id(), r.run_hash)).collect();
    parts.join(";")
}

/// Points with the same label must carry the same hash (the duplicate),
/// and at least one label must repeat.
fn duplicates_agree(results: &[PointResult]) -> bool {
    let mut repeated = false;
    for (i, a) in results.iter().enumerate() {
        for b in &results[i + 1..] {
            if a.point.label() == b.point.label() {
                repeated = true;
                if a.run_hash != b.run_hash {
                    return false;
                }
            }
        }
    }
    repeated
}

/// Runs the workload.
pub fn run(ctx: &Ctx, out: &mut Report) -> Result<(), String> {
    let texts: Vec<String> =
        run_seeds(ctx.seed, SWEEP_SEEDS).into_iter().map(|s| spec_json(s, ctx.size)).collect();
    let params = params(ctx.size);
    out.prov_str("params", &params);
    if ctx.trace {
        return traced(ctx, &texts[0], &params, out);
    }

    let mut setups = Vec::new();
    let run = RunConfig::default();
    let started = Instant::now();
    let (mut walls, mut latencies, mut manifests) = (Vec::new(), Vec::new(), Vec::new());
    let mut dup_ok = true;
    let mut points = 0;
    while walls.len() < MIN_SWEEPS || started.elapsed().as_secs_f64() < ctx.seconds {
        let text = &texts[walls.len() % texts.len()];
        let (spec, n) = timed_setup(text, &mut setups)?;
        points = n;
        let t = Instant::now();
        let (results, stats) = run_sweep_instrumented(&spec, &run, ctx.jobs);
        let wall = t.elapsed().as_secs_f64();
        walls.push(wall);
        latencies.push((setups.last().copied().unwrap_or(0.0) + wall) * 1e3);
        dup_ok &= duplicates_agree(&results) && stats.deduped >= 1 && stats.resumed_points >= 1;
        manifests.push(manifest(&results));
    }
    out.attempted = walls.len() as u64;
    let cycle = texts.len();
    let diverged =
        manifests.iter().enumerate().filter(|(i, m)| **m != manifests[i % cycle]).count() as u64;
    out.failed += diverged + u64::from(!dup_ok);
    out.check("every sweep reproduces the point hashes of its seed's first sweep", diverged == 0);
    out.check("duplicate point matches its twin; dedup and forks ran", dup_ok);
    ctx.pins.verify(out, WORKLOAD, &params, ctx.seed, &manifests[0]);

    let asked_s = points as f64 * shape(ctx.size).duration_s;
    let rates: Vec<f64> = walls.iter().map(|w| asked_s / w).collect();
    let points_per_s: Vec<f64> = walls.iter().map(|w| points as f64 / w).collect();
    out.metric("setup_s", median_of(&setups, "setup_s")?, "s");
    end_to_end(out, median_of(&walls, "wall_s")?, &rates, &latencies)?;
    out.metric("sweep_points_per_s", median_of(&points_per_s, "sweep_points_per_s")?, "points/s");
    out.note(format!(
        "{points} points per sweep, jobs {}, {} sweeps over {cycle} seeds",
        ctx.jobs,
        walls.len()
    ));
    out.note(format!("setup_s: {}", stats::describe(&setups, "s")));
    out.note(format!("wall_s per sweep: {}", stats::describe(&walls, "s")));
    Ok(())
}

fn traced(ctx: &Ctx, text: &str, params: &str, out: &mut Report) -> Result<(), String> {
    let mut spans = Spans::new(Instant::now(), true);
    let (spec, points) = spans.time("sweep.setup", |_| setup(text))?;
    let run = RunConfig::default();
    let (results, stats) =
        spans.time("sweep.run", |_| run_sweep_instrumented(&spec, &run, ctx.jobs));
    ctx.pins.verify(out, WORKLOAD, params, ctx.seed, &manifest(&results));
    out.check("duplicate point matches its twin", duplicates_agree(&results));
    for _ in 0..3 {
        spans.time("sweep.aggregate", |_| black_box(aggregate(&spec, &results).sweep_hash));
    }
    let s = shape(ctx.size);
    out.metric("sweep.points", points as f64, "count");
    out.metric("sweep.unique_points", stats.unique_points as f64, "count");
    out.metric("sweep.deduped", stats.deduped as f64, "count");
    out.metric("sweep.resumed_points", stats.resumed_points as f64, "count");
    let asked = points as f64 * s.duration_s;
    out.metric("sweep.useful_ratio", stats.simulated_s / asked, "ratio");
    out.note(format!(
        "sweep.useful_ratio base: {:.1} virtual s simulated for {points} points x {} s = {asked:.1} s",
        stats.simulated_s, s.duration_s
    ));
    span_metric(&spans, out, "sweep.aggregate", "sweep.aggregate_ms", 1e3, "ms");

    // The layer probe on the sweep's first point.
    let config = spec.points()[0].apply(&spec.base_config());
    let dir = ctx.out_dir.join(format!("{WORKLOAD}-{}", std::process::id()));
    let probe = Probe {
        label: WORKLOAD,
        config: &config,
        horizon_s: s.duration_s,
        trace_pairs: TRACE_PAIRS,
        barrier_s: s.barrier_s,
        checkpoint_reps: CHECKPOINT_REPS,
        dir: &dir,
    };
    layers::probe(&probe, &mut spans, out)?;

    out.attempted = 1;
    span_overhead(&spans, out);
    write_spans(ctx, WORKLOAD, &spans, out);
    Ok(())
}
