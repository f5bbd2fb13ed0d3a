//! `paper_drive`: repeated untraced full-stack drives on the paper world.
//!
//! Each drive is `StackConfig::paper_default(YOLOv3)` — FIFO policy, no
//! faults — at a fixed virtual horizon, seeded from `--seed`, on one
//! thread. Node kernels and the DES/bus engine are most of the host time;
//! serve, store and sweep code never runs.
//!
//! `jobs` (one per core) threads each drive repeatedly until the budget is
//! spent, as independent drives of `repro --jobs` do. On a shared host the
//! cores' speeds drift apart over tens of seconds; drives on every core
//! measure the box instead of whichever core one thread landed on (on the
//! 2-core reference VM this cut the run-to-run spread of `sim_rate` from
//! 0.24 to 0.09 in alternating runs). Successive drives cycle through
//! [`DRIVE_SEEDS`] seeds derived from `--seed`, the first being `--seed`
//! itself, so a run's median is taken over several inputs rather than
//! one seed's sensor noise.
//!
//! The traced run is the per-layer probe ([`layers`]) on this drive.

use super::layers::{self, Probe};
use super::{end_to_end, median_of, run_seeds, span_overhead, timed_drive, write_spans};
use crate::report::Report;
use crate::spans::Spans;
use crate::{stats, Ctx, Size};
use av_core::determinism::run_hash;
use av_core::stack::{RunConfig, StackConfig};
use av_vision::DetectorKind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

const WORKLOAD: &str = "paper_drive";

/// Drives measured at least per thread, whatever `--seconds` says.
const MIN_DRIVES: usize = 3;

/// Seeds successive drives of a run cycle through.
const DRIVE_SEEDS: u64 = 8;

/// Untraced/traced drive pairs of the traced run.
const TRACE_PAIRS: usize = 2;

/// Paired repetitions behind the checkpoint capture/decode costs.
const CHECKPOINT_REPS: usize = 3;

/// Virtual horizon of one drive, seconds.
fn horizon_s(size: Size) -> f64 {
    match size {
        Size::Full => 8.0,
        Size::Tiny => 1.0,
    }
}

/// The drive configuration for `seed`: the paper world and sensors with
/// the run-level randomness (sensor noise, clock jitter, map build)
/// drawn from the seed.
pub fn config(seed: u64) -> StackConfig {
    StackConfig { seed, ..StackConfig::paper_default(DetectorKind::YoloV3) }
}

fn params(size: Size) -> String {
    format!("paper_default YOLOv3 fifo no-faults horizon_s={}", horizon_s(size))
}

/// Runs the workload.
pub fn run(ctx: &Ctx, out: &mut Report) -> Result<(), String> {
    let horizon = horizon_s(ctx.size);
    let params = params(ctx.size);
    out.prov_str("params", &params);
    if ctx.trace {
        return traced(ctx, &config(ctx.seed), horizon, &params, out);
    }

    // Drive `i` of the run, on whichever thread takes it, uses seed
    // `i % DRIVE_SEEDS`.
    let configs: Vec<StackConfig> =
        run_seeds(ctx.seed, DRIVE_SEEDS).into_iter().map(config).collect();
    let run = RunConfig::seconds(horizon);
    let next = AtomicUsize::new(0);
    let started = Instant::now();
    let mut drives: Vec<(usize, f64, f64, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..ctx.jobs.max(1))
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    while mine.len() < MIN_DRIVES || started.elapsed().as_secs_f64() < ctx.seconds {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let drive = timed_drive(&configs[i % configs.len()], &run);
                        mine.push((i, drive.setup_s, drive.sim_s, run_hash(&drive.report)));
                    }
                    mine
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("drive thread panicked")).collect()
    });
    drives.sort_by_key(|d| d.0);
    let setups: Vec<f64> = drives.iter().map(|d| d.1).collect();
    let sims: Vec<f64> = drives.iter().map(|d| d.2).collect();
    let hashes: Vec<u64> = drives.iter().map(|d| d.3).collect();
    out.attempted = hashes.len() as u64;
    let cycle = configs.len();
    let diverged =
        hashes.iter().enumerate().filter(|(i, h)| **h != hashes[i % cycle]).count() as u64;
    out.failed += diverged;
    out.check("every drive reproduces the run hash of its seed's first drive", diverged == 0);
    let first = hashes[0];
    ctx.pins.verify(out, WORKLOAD, &params, ctx.seed, &format!("{first:#018x}"));

    let rates: Vec<f64> = sims.iter().map(|s| horizon / s).collect();
    let latencies: Vec<f64> = setups.iter().zip(&sims).map(|(a, b)| (a + b) * 1e3).collect();
    out.metric("setup_s", median_of(&setups, "setup_s")?, "s");
    end_to_end(out, median_of(&sims, "wall_s")?, &rates, &latencies)?;
    out.note(format!("setup_s per drive: {}", stats::describe(&setups, "s")));
    out.note(format!("wall_s per drive: {}", stats::describe(&sims, "s")));
    let per: Vec<String> =
        setups.iter().zip(&sims).map(|(a, b)| format!("{a:.3}+{b:.3}")).collect();
    out.note(format!("drives (setup+sim s): {}", per.join(" ")));
    Ok(())
}

fn traced(
    ctx: &Ctx,
    config: &StackConfig,
    horizon: f64,
    params: &str,
    out: &mut Report,
) -> Result<(), String> {
    let mut spans = Spans::new(Instant::now(), true);
    // The probe's first untraced drive is the pinned drive.
    let dir = ctx.out_dir.join(format!("{WORKLOAD}-{}", std::process::id()));
    let probe = Probe {
        label: WORKLOAD,
        config,
        horizon_s: horizon,
        trace_pairs: TRACE_PAIRS,
        barrier_s: horizon / 5.0,
        checkpoint_reps: CHECKPOINT_REPS,
        dir: &dir,
    };
    let hash = layers::probe(&probe, &mut spans, out)?;
    ctx.pins.verify(out, WORKLOAD, params, ctx.seed, &format!("{hash:#018x}"));
    out.attempted = 2 * TRACE_PAIRS as u64;
    span_overhead(&spans, out);
    write_spans(ctx, WORKLOAD, &spans, out);
    Ok(())
}
