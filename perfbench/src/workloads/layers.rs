//! The per-layer probe every traced run makes on its own workload's
//! drive configuration.
//!
//! Each workload's traced run reports the same per-layer metrics, so the
//! probe runs on the configuration the workload itself simulates: the
//! paper world for `paper_drive`, the smoke world for `sweep_smoke` and
//! `serve_mix`. It reaches the program's internals from outside only:
//!
//! * untraced and traced drives of the configuration (the tracing
//!   overhead, the exact `ros.*` work counts, the measured simulation
//!   time the kernels must account for);
//! * a replay of the public kernel calls on the drive's own frames (same
//!   world, map, sensor configuration and noise streams, at the nominal
//!   frame times), whose mean cost per call is multiplied by the exact
//!   number of callbacks the drive's `RunReport` counted;
//! * checkpoint capture and decode at a barrier, and the durable
//!   checkpoint store's put, open and load of that checkpoint.

use super::{
    callbacks, delivered, median_of, offered, ros_metrics, span_metric, timed_drive, TimedDrive,
    SETUP_PROBE_SLICE_S,
};
use crate::report::Report;
use crate::spans::Spans;
use crate::stats;
use av_core::ckptstore::CkptStore;
use av_core::determinism::run_hash;
use av_core::metrics::blame_scalars;
use av_core::stack::{
    build_map, checkpoint_drive, resume_drive_streamed, run_drive, Checkpoint, RunConfig,
    RunReport, StackConfig,
};
use av_core::topics::{self, nodes};
use av_des::RngStreams;
use av_geom::{Pose, Vec3};
use av_perception::{
    fuse_objects, ClusterParams, CostmapGenerator, CostmapParams, DetectedObject, EuclideanCluster,
    FusionParams, NdtMatcher, NdtParams, RayGroundFilter, RayGroundParams,
};
use av_pointcloud::{KdTree, VoxelGrid};
use av_trace::export::{render_chrome_trace, render_metrics_csv};
use av_tracking::{ImmUkfPdaTracker, TrackerParams};
use av_vision::{DetectorParams, VisionDetector};
use av_world::{CameraModel, LidarModel, World};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// What the probe runs for one workload.
pub struct Probe<'a> {
    /// Workload name, for labels.
    pub label: &'a str,
    /// The drive configuration the workload simulates.
    pub config: &'a StackConfig,
    /// Virtual horizon of the probe's drives and replay, seconds.
    pub horizon_s: f64,
    /// Untraced/traced drive pairs.
    pub trace_pairs: usize,
    /// Barrier of the checkpoint probes, seconds.
    pub barrier_s: f64,
    /// Paired repetitions behind the checkpoint capture/decode costs,
    /// and repetitions of each checkpoint-store operation.
    pub checkpoint_reps: usize,
    /// Scratch directory for the probe's checkpoint store.
    pub dir: &'a Path,
}

/// Runs the probe and adds every per-layer metric to `out`. Returns the
/// run hash of the probe's first untraced drive.
pub fn probe(p: &Probe, spans: &mut Spans, out: &mut Report) -> Result<u64, String> {
    let run = RunConfig::seconds(p.horizon_s);
    let plain = trace_costs(p.label, p.config, &run, p.trace_pairs, spans, out)?;
    ros_metrics(&plain[0].report, out);
    let kernels = spans.time("replay", |s| replay_kernels(p.config, p.horizon_s, s));
    out.note(format!("replayed {} lidar and {} camera frames", kernels.0, kernels.1));
    span_metric(spans, out, "world.generate", "world.generate_s", 1.0, "s");
    span_metric(spans, out, "core.build_map", "core.build_map_s", 1.0, "s");
    engine_accounting(&plain, spans, out)?;
    let checkpoint = checkpoint_costs(p.config, p.barrier_s, p.checkpoint_reps, spans, out)?;
    ckptstore_costs(&checkpoint, p.checkpoint_reps, p.dir, spans, out)?;
    Ok(run_hash(&plain[0].report))
}

/// Σ calls × mean cost per call of every replayed kernel, with the calls
/// counted by the first untraced drive, against the drives' measured
/// simulation time: `engine.kernel_s` + `engine.residual_s` equals the
/// measured time, and the residual must not be negative.
fn engine_accounting(plain: &[TimedDrive], spans: &Spans, out: &mut Report) -> Result<(), String> {
    let report = &plain[0].report;
    let calls = |topic, node| delivered(report, topic, node);
    let table: [(&str, u64); 11] = [
        ("world.lidar_scan", offered(report, topics::POINTS_RAW, nodes::VOXEL_GRID_FILTER)),
        ("world.camera_capture", offered(report, topics::IMAGE_RAW, nodes::VISION_DETECTION)),
        ("pointcloud.voxel_filter", calls(topics::POINTS_RAW, nodes::VOXEL_GRID_FILTER)),
        // The drive's clusterer uses a voxel-hash grid, not the k-d
        // tree: zero calls, reported for the kernel table only.
        ("pointcloud.kdtree_build", 0),
        ("perception.ground_split", calls(topics::POINTS_RAW, nodes::RAY_GROUND_FILTER)),
        ("perception.cluster", calls(topics::POINTS_NO_GROUND, nodes::EUCLIDEAN_CLUSTER)),
        ("perception.ndt_align", calls(topics::FILTERED_POINTS, nodes::NDT_MATCHING)),
        ("perception.costmap", calls(topics::POINTS_NO_GROUND, nodes::COSTMAP_GENERATOR)),
        ("vision.detect", calls(topics::IMAGE_RAW, nodes::VISION_DETECTION)),
        ("perception.fusion", calls(topics::IMAGE_DETECTOR_OBJECTS, nodes::RANGE_VISION_FUSION)),
        ("tracking.step", calls(topics::FUSION_TOOLS_OBJECTS, nodes::IMM_UKF_PDA_TRACKER)),
    ];
    let mut kernel_s = 0.0;
    for (span, calls) in table {
        let metric = format!("{span}_us");
        let mean = span_metric(spans, out, span, &metric, 1e6, "us");
        kernel_s += mean * calls as f64;
        out.note(format!("{metric}: {calls} calls in the drive, mean {:.1} us", mean * 1e6));
    }
    let sims: Vec<f64> = plain.iter().map(|d| d.sim_s).collect();
    let measured = median_of(&sims, "untraced simulation")?;
    let residual = measured - kernel_s;
    out.metric("engine.kernel_s", kernel_s, "s");
    out.metric("engine.residual_s", residual, "s");
    out.metric("engine.kernel_share", kernel_s / measured, "ratio");
    out.note(format!(
        "engine.kernel_share base: {kernel_s:.4} s of kernels in {measured:.4} s of measured simulation"
    ));
    out.check("kernel_s + residual_s equals the measured simulation time", {
        (kernel_s + residual - measured).abs() <= 1e-9 * measured.max(1.0)
    });
    out.check("engine.residual_s >= 0", residual >= 0.0);
    let cbs = callbacks(report);
    out.metric("engine.host_us_per_callback", measured / cbs.max(1) as f64 * 1e6, "us");
    out.note(format!("engine.host_us_per_callback base: {measured:.4} s / {cbs} callbacks"));
    Ok(())
}

/// Replays the drive's public kernel calls on its own frames: the same
/// world, HD map, sensor models and noise streams, at the nominal frame
/// times of `horizon` virtual seconds. World generation and map build
/// are timed three times. Returns (lidar, camera) frames.
fn replay_kernels(config: &StackConfig, horizon: f64, spans: &mut Spans) -> (usize, usize) {
    let streams = RngStreams::new(config.seed);
    let mut world = None;
    let mut map = None;
    for _ in 0..3 {
        let w = spans.time("world.generate", |_| World::generate(&config.scenario));
        let lidar = LidarModel::new(config.lidar.clone());
        let mut rng = streams.stream("mapping");
        map = Some(
            spans.time("core.build_map", |_| build_map(&w, &lidar, config.map_cell_size, &mut rng)),
        );
        world = Some(w);
    }
    let (world, map) = (world.expect("generated"), map.expect("built"));
    let lidar = LidarModel::new(config.lidar.clone());
    let camera = CameraModel::new(config.camera.clone());
    let voxel = VoxelGrid::new(config.voxel_leaf);
    let ground = RayGroundFilter::new(RayGroundParams {
        sensor_height: config.lidar.mount_height,
        ..RayGroundParams::default()
    });
    let clusterer = EuclideanCluster::new(ClusterParams::default());
    let matcher = NdtMatcher::new(map, NdtParams::default());
    let costmap = CostmapGenerator::new(CostmapParams::default());
    let detector = VisionDetector::new(config.detector, DetectorParams::default());
    let fusion = FusionParams {
        image_width: config.camera.width,
        hfov_deg: config.camera.hfov_deg,
        ..FusionParams::default()
    };
    let mut tracker = ImmUkfPdaTracker::new(TrackerParams::default());
    let mut lidar_rng = streams.stream("lidar_noise");
    let mut vision_rng = streams.stream("vision");
    let lift = Pose::new(Vec3::new(0.0, 0.0, config.lidar.mount_height), Default::default());

    let lidar_dt = 1.0 / config.lidar.rate_hz;
    let camera_dt = 1.0 / config.camera.rate_hz;
    let (mut li, mut ci) = (0usize, 0usize);
    let mut latest: Vec<DetectedObject> = Vec::new();
    loop {
        let (tl, tc) = (li as f64 * lidar_dt, ci as f64 * camera_dt);
        if tl >= horizon && tc >= horizon {
            break;
        }
        if tl <= tc {
            let scene = world.snapshot(tl);
            let sweep =
                spans.time("world.lidar_scan", |_| lidar.scan(&world, &scene, &mut lidar_rng));
            let filtered = spans.time("pointcloud.voxel_filter", |_| voxel.filter(&sweep));
            let split = spans.time("perception.ground_split", |_| ground.split(&sweep));
            latest = spans.time("perception.cluster", |_| clusterer.detect(&split.no_ground));
            let positions: Vec<Vec3> = split.no_ground.positions().collect();
            spans.time("pointcloud.kdtree_build", |_| black_box(KdTree::build(&positions)));
            spans.time("perception.costmap", |_| black_box(costmap.from_points(&split.no_ground)));
            let lifted = filtered.transformed(&lift);
            let mut guess = scene.ego.pose;
            guess.translation.z = 0.0;
            spans.time("perception.ndt_align", |_| black_box(matcher.align(&lifted, &guess)));
            li += 1;
        } else {
            let scene = world.snapshot(tc);
            let frame = spans.time("world.camera_capture", |_| camera.capture(&world, &scene));
            let output = spans.time("vision.detect", |_| detector.detect(&frame, &mut vision_rng));
            let fused = spans
                .time("perception.fusion", |_| fuse_objects(&latest, &output.detections, &fusion));
            spans.time("tracking.step", |_| black_box(tracker.step(&fused, camera_dt)));
            ci += 1;
        }
    }
    (li, ci)
}

/// Host seconds from the call to the first pause of a streamed resume
/// from `checkpoint`: session construction plus checkpoint decode (the
/// pauses at or before the barrier are replayed without simulating).
fn resume_to_first_pause(config: &StackConfig, run: &RunConfig, checkpoint: &Checkpoint) -> f64 {
    let started = Instant::now();
    let mut first_pause: Option<Instant> = None;
    black_box(resume_drive_streamed(
        config,
        run,
        checkpoint,
        SETUP_PROBE_SLICE_S,
        false,
        &mut |_| {
            first_pause.get_or_insert_with(Instant::now);
        },
    ));
    (first_pause.expect("a streamed resume pauses at least once") - started).as_secs_f64()
}

/// Checkpoint capture and decode cost at `barrier_s`, from outside the
/// program: each is the median of `reps` paired differences — a drive
/// that captures minus the same drive without, and a resume's set-up
/// (build + decode) minus a fresh drive's set-up — plus the encoded
/// size. Paired differences of whole drives sit close to the host's
/// noise floor; their quartiles are printed beside them. Returns the
/// checkpoint.
fn checkpoint_costs(
    config: &StackConfig,
    barrier_s: f64,
    reps: usize,
    spans: &mut Spans,
    out: &mut Report,
) -> Result<Checkpoint, String> {
    let at_barrier = RunConfig::seconds(barrier_s);
    let past_barrier = RunConfig::seconds(barrier_s + 0.5);
    let (mut captures, mut decodes) = (Vec::new(), Vec::new());
    let mut checkpoint = None;
    for _ in 0..reps {
        let t = Instant::now();
        black_box(run_drive(config, &at_barrier));
        let plain = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let (_, ckpt) = spans
            .time("core.checkpoint_drive", |_| checkpoint_drive(config, &at_barrier, barrier_s));
        captures.push((t.elapsed().as_secs_f64() - plain) * 1e3);
        let fresh = timed_drive(config, &past_barrier).setup_s;
        let resumed = spans.time("core.checkpoint_resume", |_| {
            resume_to_first_pause(config, &past_barrier, &ckpt)
        });
        decodes.push((resumed - fresh) * 1e3);
        checkpoint = Some(ckpt);
    }
    let checkpoint = checkpoint.ok_or("no checkpoint repetitions")?;
    out.metric("core.checkpoint_bytes", checkpoint.size_bytes() as f64, "bytes");
    out.metric("core.checkpoint_capture_ms", median_of(&captures, "capture")?, "ms");
    out.metric("core.checkpoint_decode_ms", median_of(&decodes, "decode")?, "ms");
    out.note(format!(
        "core.checkpoint_capture_ms (checkpoint_drive - run_drive, paired, barrier {barrier_s} s): {}",
        stats::describe(&captures, "ms")
    ));
    out.note(format!(
        "core.checkpoint_decode_ms (resume set-up - fresh set-up, paired): {}",
        stats::describe(&decodes, "ms")
    ));
    Ok(checkpoint)
}

/// The durable checkpoint store on `checkpoint`, `reps` times each: put
/// (outbox write, fsync, rename), open (the recovery scan re-verifying
/// the entry) and load (read and re-verify), in a fresh store under
/// `dir`.
fn ckptstore_costs(
    checkpoint: &Checkpoint,
    reps: usize,
    dir: &Path,
    spans: &mut Spans,
    out: &mut Report,
) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    let (store, _) = CkptStore::open(dir).map_err(|e| format!("checkpoint store: {e}"))?;
    for _ in 0..reps {
        spans
            .time("core.ckptstore.put", |_| store.put(checkpoint))
            .map_err(|e| format!("put: {e}"))?;
    }
    drop(store);
    let header = checkpoint.header();
    for _ in 0..reps {
        let (store, _) = spans
            .time("core.ckptstore.open", |_| CkptStore::open(dir))
            .map_err(|e| format!("reopen checkpoint store: {e}"))?;
        let loaded = spans
            .time("core.ckptstore.load", |_| store.load(header.fingerprint, header.barrier_ns));
        if loaded.map(|c| c.as_bytes() == checkpoint.as_bytes()) != Some(true) {
            return Err("the checkpoint store did not return the checkpoint it stored".to_string());
        }
    }
    let _ = std::fs::remove_dir_all(dir);
    span_metric(spans, out, "core.ckptstore.put", "core.ckptstore.put_ms", 1e3, "ms");
    span_metric(spans, out, "core.ckptstore.open", "core.ckptstore.open_ms", 1e3, "ms");
    span_metric(spans, out, "core.ckptstore.load", "core.ckptstore.load_ms", 1e3, "ms");
    out.note(format!("core.ckptstore base: one {} byte checkpoint", checkpoint.size_bytes()));
    Ok(())
}

/// The program's own event trace, from outside: `pairs` drives of
/// `config` untraced and traced (`trace.record_overhead_s` is the median
/// traced − untraced simulation time), then the last trace's size, its
/// Chrome and CSV exports and its blame analysis, three times each.
/// Returns the untraced drives.
fn trace_costs(
    label: &str,
    config: &StackConfig,
    run: &RunConfig,
    pairs: usize,
    spans: &mut Spans,
    out: &mut Report,
) -> Result<Vec<TimedDrive>, String> {
    let mut plain = Vec::new();
    let mut overheads = Vec::new();
    let mut traced: Option<RunReport> = None;
    for _ in 0..pairs {
        let untraced = spans.time("drive.untraced", |_| timed_drive(config, run));
        let with = spans.time("drive.traced", |_| timed_drive(config, &run.clone().with_trace()));
        overheads.push(with.sim_s - untraced.sim_s);
        plain.push(untraced);
        traced = Some(with.report);
    }
    let traced = traced.ok_or("no trace repetitions")?;
    out.metric("trace.record_overhead_s", median_of(&overheads, "trace overhead")?, "s");
    out.note(format!(
        "trace.record_overhead_s (traced - untraced simulation, {label}): {}",
        stats::describe(&overheads, "s")
    ));
    let data = traced.trace.as_ref().ok_or("traced drive returned no trace")?;
    out.metric("trace.events", data.events.len() as f64, "count");
    for _ in 0..3 {
        spans.time("trace.export_chrome", |_| black_box(render_chrome_trace(label, data).len()));
        spans.time("trace.export_csv", |_| black_box(render_metrics_csv(data).len()));
        spans.time("trace.blame", |_| blame_scalars(&traced)).map_err(|e| format!("blame: {e}"))?;
    }
    span_metric(spans, out, "trace.export_chrome", "trace.export_chrome_ms", 1e3, "ms");
    span_metric(spans, out, "trace.export_csv", "trace.export_csv_ms", 1e3, "ms");
    span_metric(spans, out, "trace.blame", "trace.blame_ms", 1e3, "ms");
    Ok(plain)
}
