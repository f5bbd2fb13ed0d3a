//! The assembled autonomous-driving stack and its characterization
//! harness — the reproduction's equivalent of "Autoware + the paper's
//! profiling methodology".
//!
//! # What lives here
//!
//! * [`msg`] — the message payloads flowing between nodes.
//! * [`topics`] — topic names, matching the paper's Table IV spellings.
//! * [`calib`] — the calibrated per-node cost models mapping real
//!   algorithm work (points, iterations, candidates, objects) to modeled
//!   CPU/GPU service demands, plus the platform parameters.
//! * [`nodes`] — every Autoware node as an [`av_ros::Node`]: the real
//!   algorithm runs in the callback, its work profile feeds the cost
//!   model, its outputs are published with lineage.
//! * [`stack`] — scenario + sensors + node graph assembly; launch a full
//!   stack (or a single node in isolation, for Fig 8) and run a drive.
//! * [`experiments`] — one function per paper artifact (Fig 5–8,
//!   Tables III–VII), each returning the paper-style rows.
//! * [`findings`] — quantitative checks of the paper's Findings 1–5.
//! * [`metrics`] — scalar per-run facts (tail latency, deadline factor,
//!   drop rate) shared by the sweep aggregator and the search objective.
//! * [`durable`] — the verified on-disk entry framing, crash-safe
//!   write path, recovery scan and quarantine every durable store uses.
//! * [`ckptstore`] — the crash-safe on-disk checkpoint store: persist,
//!   verify, quarantine and resume drives across processes.
//! * [`fault`] — the deterministic fault plan: seeded crashes, stalls,
//!   slowdowns, edge drops/duplicates and timer skews, parsed from a
//!   compact DSL.
//! * [`supervision`] — the layer that reacts: heartbeat/liveness
//!   tracking, restart with exponential backoff, and graceful
//!   degradation (dead-reckoning localization, cheapest-detector
//!   fallback, planner safe-stop).
//!
//! # Quickstart
//!
//! ```no_run
//! use av_core::stack::{RunConfig, StackConfig};
//! use av_vision::DetectorKind;
//!
//! let config = StackConfig::smoke_test(DetectorKind::YoloV3);
//! let report = av_core::stack::run_drive(&config, &RunConfig::default());
//! println!("{}", report.node_table());
//! ```

#![warn(missing_docs)]

pub mod calib;
pub mod ckptstore;
pub mod determinism;
pub mod durable;
pub mod experiments;
pub mod fault;
pub mod findings;
pub mod metrics;
pub mod msg;
pub mod nodes;
pub mod parallel;
pub mod snapshot;
pub mod stack;
pub mod supervision;
pub mod topics;

pub use msg::Msg;
pub use stack::{RunConfig, RunReport, StackConfig};
