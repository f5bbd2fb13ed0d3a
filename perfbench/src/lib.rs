//! Host-time benchmark of the AV simulator.
//!
//! Three workloads, each run in its own process by `main`:
//!
//! * [`workloads::paper_drive`] — untraced full-stack drives on the
//!   paper world, one thread per core, repeated for the run's duration;
//! * [`workloads::sweep_smoke`] — a grid of short smoke-world sweep
//!   points with prefix-sharing forks and a duplicate point;
//! * [`workloads::serve_mix`] — an open-loop, seeded request mix against
//!   an `av-serve` daemon over its TCP wire.
//!
//! End-to-end numbers are measured with span recording off. The traced
//! mode (`--trace 1`) records spans from this crate around calls into
//! each simulator crate's public functions ([`spans`]) and reports the
//! per-layer metrics, the same set on every workload
//! ([`workloads::layers`]). See `README.md` in this directory for the metric
//! table and the layer → end-to-end predictions.

pub mod pins;
pub mod report;
pub mod schedule;
pub mod spans;
pub mod stats;
pub mod sys;
pub mod wire;
pub mod workloads;

use std::path::PathBuf;

/// Input size of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark proper.
    Full,
    /// A seconds-long smoke version of every workload, for tests.
    Tiny,
}

impl Size {
    /// Parses `full` / `tiny`.
    pub fn parse(s: &str) -> Result<Size, String> {
        match s {
            "full" => Ok(Size::Full),
            "tiny" => Ok(Size::Tiny),
            other => Err(format!("unknown size {other:?} (expected full or tiny)")),
        }
    }
}

/// Everything a workload needs to know about its run.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Measurement budget, seconds.
    pub seconds: f64,
    /// Span-traced run (per-layer metrics) instead of end-to-end.
    pub trace: bool,
    /// Input size.
    pub size: Size,
    /// Pinned outputs.
    pub pins: pins::Pins,
    /// Parallelism: concurrent drives, sweep jobs, serve workers and load
    /// connections — the core count.
    pub jobs: usize,
    /// Scratch directory inside the checkout (stores, span files).
    pub out_dir: PathBuf,
}
