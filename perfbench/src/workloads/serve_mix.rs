//! `serve_mix`: an open-loop request mix against an `av-serve` daemon.
//!
//! The daemon runs in this process with `workers = jobs` and gets a
//! fresh, empty on-disk result spool and checkpoint store every run. The
//! load is one seeded arrival schedule ([`crate::schedule`]) at a fixed
//! offered rate, spread round-robin over `jobs` connections. It is the
//! only workload that runs the protocol, the pool, the result store and
//! the checkpoint store, and it puts store reads (hits) beside store
//! writes (cold answers, fsync) on the same stores.

use super::layers::{self, Probe};
use super::{end_to_end, median_of, span_metric, span_overhead, write_spans};
use crate::report::Report;
use crate::schedule::{schedule, Kind, MixParams, Planned};
use crate::spans::Spans;
use crate::wire::{drive_connection, Outcome, Status};
use crate::{stats, Ctx, Size};
use av_core::determinism::run_hash;
use av_core::stack::{run_drive, RunConfig};
use av_serve::{parse_request, Client, Request, ResultEntry, ResultStore, ServeConfig, Server};
use av_sweep::{SweepPoint, WorldKind};
use std::collections::HashMap;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

const WORKLOAD: &str = "serve_mix";

/// Server starts (empty stores, first `pong`) timed before the load, in a
/// fresh process as a real start would be; after the load the same start
/// reads about 1.5x slower, so those samples are not mixed in.
const SETUP_REPS: usize = 100;

/// Bounded queue of the daemon.
const QUEUE_CAPACITY: usize = 128;

/// Latency limit of `serve_slo_miss_frac`, ms.
pub const SLO_MS: f64 = 1000.0;

/// Paired repetitions behind the checkpoint capture/decode costs.
const CHECKPOINT_REPS: usize = 9;

/// Untraced/traced drive pairs of the traced run's layer probe.
const TRACE_PAIRS: usize = 3;

/// `extend` answers re-derived in-process per run.
const EXTEND_SPOT_CHECKS: usize = 3;

/// Extra time after the last scheduled send for answers to arrive.
const DRAIN_GRACE_S: f64 = 60.0;

/// The schedule shape for a run.
pub fn mix_params(size: Size, seconds: f64, connections: usize) -> MixParams {
    match size {
        Size::Full => {
            let rate_rps = 10.0;
            MixParams {
                requests: ((rate_rps * seconds).round() as usize).max(20),
                rate_rps,
                connections,
                drive_s: 2.0,
                extend_s: 4.0,
                origin_gap_s: 2.0,
            }
        }
        Size::Tiny => MixParams {
            requests: 20,
            rate_rps: 8.0,
            connections,
            drive_s: 1.0,
            extend_s: 2.0,
            origin_gap_s: 0.6,
        },
    }
}

fn fresh_dir(path: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(path);
    std::fs::create_dir_all(path).map_err(|e| format!("create {}: {e}", path.display()))
}

/// Starts a daemon on the stores under `dir` (created when missing) and
/// waits for its first `pong`.
fn start_server(dir: &Path, workers: usize) -> Result<Server, String> {
    let server = Server::start(ServeConfig {
        port: 0,
        workers,
        queue_capacity: QUEUE_CAPACITY,
        spool: Some(dir.join("spool")),
        event_log: None,
        ckpt_dir: Some(dir.join("ckpt")),
    })
    .map_err(|e| format!("start server: {e}"))?;
    let mut client = Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    client.ping("setup").map_err(|e| format!("ping: {e}"))?;
    Ok(server)
}

/// Starts a daemon on empty stores under `dir` and times it to the first
/// `pong`. The stores are provisioned first by an untimed start and stop
/// (as an operator creates a data directory before the first start), so
/// the timed start opens and recovers them instead of creating
/// directories — directory creation on this VM's disk swings with the
/// neighbours' I/O and would drown the daemon's own start-up.
fn timed_start(
    dir: &Path,
    workers: usize,
    spans: &mut Spans,
    setups: &mut Vec<f64>,
) -> Result<Server, String> {
    stop_server(start_server(dir, workers)?)?;
    let t = Instant::now();
    let server = spans.time("serve.setup", |_| start_server(dir, workers))?;
    setups.push(t.elapsed().as_secs_f64());
    Ok(server)
}

fn stop_server(server: Server) -> Result<(), String> {
    server.shutdown(true);
    server.wait().map_err(|e| format!("server shutdown: {e}"))
}

/// The `"run_hash":"0x…"` member of a drive body.
fn body_run_hash(body: &str) -> Option<&str> {
    let start = body.find("\"run_hash\":\"")? + "\"run_hash\":\"".len();
    body.get(start..start + 18)
}

/// Runs the workload.
pub fn run(ctx: &Ctx, out: &mut Report) -> Result<(), String> {
    let mix = mix_params(ctx.size, ctx.seconds, ctx.jobs);
    let plan = schedule(ctx.seed, &mix);
    out.prov_str(
        "params",
        &format!(
            "smoke drive_s={} extend_s={} requests={} connections={} workers={} queue={} \
             origin_gap_s={} slo_ms={SLO_MS}",
            mix.drive_s,
            mix.extend_s,
            mix.requests,
            mix.connections,
            ctx.jobs,
            QUEUE_CAPACITY,
            mix.origin_gap_s
        ),
    );
    out.prov_json("offered_rate_rps", format!("{}", mix.rate_rps));
    let dir = ctx.out_dir.join(format!("{WORKLOAD}-{}", std::process::id()));
    let result = measure(ctx, &mix, &plan, &dir, out);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn measure(
    ctx: &Ctx,
    mix: &MixParams,
    plan: &[Planned],
    dir: &Path,
    out: &mut Report,
) -> Result<(), String> {
    let epoch = Instant::now();
    let mut spans = Spans::new(epoch, ctx.trace);
    fresh_dir(dir)?;

    let mut setups = Vec::new();
    for rep in 0..SETUP_REPS {
        let server =
            timed_start(&dir.join(format!("setup{rep}")), ctx.jobs, &mut spans, &mut setups)?;
        stop_server(server)?;
    }
    let store_dir = dir.join("load");
    let server = timed_start(&store_dir, ctx.jobs, &mut spans, &mut setups)?;
    let addr = server.addr();

    // The load: one thread per connection, all on one clock.
    let t0 = Instant::now() + Duration::from_millis(50);
    let last_at = plan.last().map_or(0.0, |p| p.at_s);
    let give_up = t0 + Duration::from_secs_f64(last_at + DRAIN_GRACE_S);
    let shares: Vec<Vec<&Planned>> =
        (0..mix.connections).map(|c| plan.iter().filter(|p| p.conn == c).collect()).collect();
    let keep = ctx.trace;
    let per_conn: Vec<std::io::Result<Vec<Outcome>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = shares
            .iter()
            .map(|share| scope.spawn(move || drive_connection(addr, share, t0, keep, give_up)))
            .collect();
        handles.into_iter().map(|h| h.join().expect("load thread panicked")).collect()
    });
    stop_server(server)?;
    let mut outcomes: Vec<Outcome> = Vec::with_capacity(plan.len());
    for conn in per_conn {
        outcomes.extend(conn.map_err(|e| format!("load connection: {e}"))?);
    }
    outcomes.sort_by_key(|o| o.index);
    let end = outcomes.iter().filter_map(|o| o.done).max().unwrap_or(t0);
    let wall = end.saturating_duration_since(t0).as_secs_f64();

    out.attempted = plan.len() as u64;
    check_answers(mix, plan, &outcomes, out)?;

    let completed: Vec<&Outcome> =
        outcomes.iter().filter(|o| o.status == Status::Completed).collect();
    let latencies: Vec<f64> = completed.iter().filter_map(|o| o.latency_ms()).collect();
    let cold: Vec<f64> = completed
        .iter()
        .filter(|o| o.cached == Some(false))
        .filter_map(|o| o.latency_ms())
        .collect();
    let hits: Vec<f64> = completed
        .iter()
        .filter(|o| o.cached == Some(true))
        .filter_map(|o| o.latency_ms())
        .collect();
    let lags: Vec<f64> = outcomes.iter().map(|o| o.lag_ms).collect();
    let busy_ms: f64 =
        completed.iter().filter(|o| o.cached == Some(false)).filter_map(|o| o.exec_ms).sum();
    let busy_share = busy_ms / 1e3 / (ctx.jobs as f64 * wall);
    let misses = outcomes.len() - latencies.iter().filter(|&&l| l <= SLO_MS).count();
    let lag_p50 = stats::median(&lags).unwrap_or(0.0);
    let lag_max = lags.iter().copied().fold(0.0, f64::max);
    out.prov_json(
        "loadgen_lag_ms",
        format!("{{\"p50\":{lag_p50},\"max\":{lag_max},\"n\":{}}}", lags.len()),
    );
    out.note(format!(
        "{} requests at {} req/s over {} connections: {} cold, {} hits, {} not completed",
        plan.len(),
        mix.rate_rps,
        mix.connections,
        cold.len(),
        hits.len(),
        outcomes.len() - completed.len()
    ));
    out.note(format!(
        "worker busy share: {busy_share:.3} ({:.2} s of cold exec over {} workers x {wall:.2} s)",
        busy_ms / 1e3,
        ctx.jobs
    ));
    out.note(format!("latency all: {}", stats::describe(&latencies, "ms")));
    out.note(format!("latency cold: {}", stats::describe(&cold, "ms")));
    out.note(format!("latency hit: {}", stats::describe(&hits, "ms")));
    out.note(format!("setup_s: {}", stats::describe(&setups, "s")));
    out.note(format!("loadgen lag: {}", stats::describe(&lags, "ms")));

    if ctx.trace {
        traced_layers(mix, plan, &outcomes, &store_dir, wall, &mut spans, out)?;
        out.metric("serve.worker_busy_share", busy_share, "ratio");
        if let Some(m) = stats::median(&hits) {
            out.metric("serve.hit_ms.p50", m, "ms");
        }
        out.metric("loadgen.lag_ms.p50", lag_p50, "ms");
        out.metric("loadgen.lag_ms.max", lag_max, "ms");
        span_overhead(&spans, out);
        write_spans(ctx, WORKLOAD, &spans, out);
        return Ok(());
    }

    // Virtual seconds answered per second of worker execution, per
    // cold answer (store hits simulate nothing).
    let rates: Vec<f64> = completed
        .iter()
        .filter(|o| o.cached == Some(false))
        .filter_map(|o| {
            let horizon =
                if plan[o.index].kind == Kind::Extend { mix.extend_s } else { mix.drive_s };
            o.exec_ms.filter(|&x| x > 0.0).map(|x| horizon / (x / 1e3))
        })
        .collect();
    out.metric("setup_s", median_of(&setups, "setup_s")?, "s");
    end_to_end(out, wall, &rates, &latencies)?;
    out.metric("serve_cold_p50_ms", median_of(&cold, "serve_cold_p50_ms")?, "ms");
    // On the current server a store hit either streams at once (~0.4 ms)
    // or waits out a delayed ACK (~40 ms), so its median flips between
    // modes from seed to seed (README.md, "Findings").
    if let Some(m) = stats::median(&hits) {
        out.metric("serve_hit_p50_ms", m, "ms");
    }
    out.metric("serve_slo_miss_frac", misses as f64 / outcomes.len() as f64, "ratio");
    Ok(())
}

/// Output checks: every request answered; equal requests answered
/// byte-identically (so every store hit equals its cold answer); a few
/// `extend`s equal an in-process cold drive of the same horizon.
fn check_answers(
    mix: &MixParams,
    plan: &[Planned],
    outcomes: &[Outcome],
    out: &mut Report,
) -> Result<(), String> {
    let mut failed = vec![false; plan.len()];
    for o in outcomes {
        if o.status != Status::Completed {
            failed[o.index] = true;
            out.note(format!("request r{} did not complete: {:?}", o.index, o.status));
        }
    }
    // Group by request identity; the first completed answer is the
    // reference every other answer must equal.
    let mut reference: HashMap<&str, &Outcome> = HashMap::new();
    let mut mismatched = 0usize;
    for o in outcomes.iter().filter(|o| o.status == Status::Completed) {
        let key = plan[o.index].key.as_str();
        match reference.get(key) {
            None => {
                reference.insert(key, o);
            }
            Some(r) => {
                if r.body != o.body || r.events_hash != o.events_hash || r.events != o.events {
                    mismatched += 1;
                    failed[o.index] = true;
                    out.note(format!("r{} differs from r{} (same request)", o.index, r.index));
                }
            }
        }
    }
    out.check("repeated requests (store hits included) are byte-identical", mismatched == 0);

    let base = WorldKind::Smoke.base_config();
    let extends: Vec<&Outcome> = outcomes
        .iter()
        .filter(|o| plan[o.index].kind == Kind::Extend && o.status == Status::Completed)
        .take(EXTEND_SPOT_CHECKS)
        .collect();
    // An empty sample fails the check unless the schedule dealt no extend.
    let mut extend_ok = !extends.is_empty() || plan.iter().all(|p| p.kind != Kind::Extend);
    for o in &extends {
        let doc = av_trace::json::parse(&plan[o.index].point).map_err(|e| format!("point: {e}"))?;
        let config = SweepPoint::from_json_value(&doc)?.apply(&base);
        let cold =
            format!("{:#018x}", run_hash(&run_drive(&config, &RunConfig::seconds(mix.extend_s))));
        if body_run_hash(&o.body) != Some(cold.as_str()) {
            extend_ok = false;
            failed[o.index] = true;
            out.note(format!(
                "extend r{} does not match a cold {} s drive ({cold})",
                o.index, mix.extend_s
            ));
        }
    }
    out.check(
        format!("{} spot-checked extends match cold drives of the same horizon", extends.len()),
        extend_ok,
    );
    out.failed += failed.iter().filter(|&&f| f).count() as u64;
    Ok(())
}

fn traced_layers(
    mix: &MixParams,
    plan: &[Planned],
    outcomes: &[Outcome],
    store_dir: &Path,
    wall: f64,
    spans: &mut Spans,
    out: &mut Report,
) -> Result<(), String> {
    // Client-side request spans, with the server's own queue-wait and
    // exec (from `stats` frames) as children ending at the answer.
    let (mut waits, mut execs, mut wires) = (Vec::new(), Vec::new(), Vec::new());
    let mut accounting_ok = true;
    for o in outcomes.iter().filter(|o| o.status == Status::Completed) {
        let (Some(done), Some(latency)) = (o.done, o.latency_ms()) else { continue };
        let q = o.queue_wait_ms.unwrap_or(0.0);
        let x = o.exec_ms.unwrap_or(0.0);
        accounting_ok &= q + x <= latency + 1e-3;
        let id = Some(o.index as u64);
        let request = spans.record("serve.request", o.due, done, id, None);
        let exec_start = done.checked_sub(Duration::from_secs_f64(x / 1e3)).unwrap_or(o.due);
        let queue_start = exec_start.checked_sub(Duration::from_secs_f64(q / 1e3)).unwrap_or(o.due);
        spans.record("serve.queue_wait", queue_start, exec_start, id, Some(request));
        spans.record("serve.exec", exec_start, done, id, Some(request));
        if o.cached == Some(false) {
            waits.push(q);
            execs.push(x);
        }
        wires.push(latency - q - x);
    }
    out.check("queue wait + exec <= client latency for every request", accounting_ok);
    let mut timing = |name: &str, values: &[f64]| {
        if let Some(m) = stats::median(values) {
            out.metric(&format!("{name}.p50"), m, "ms");
        }
        if let Some(t) = stats::tail(values) {
            out.metric(&format!("{name}.tail"), t.value, "ms");
        }
        out.note(format!("{name}: {}", stats::describe(values, "ms")));
    };
    timing("serve.queue_wait_ms", &waits);
    timing("serve.exec_ms", &execs);
    if let Some(m) = stats::median(&wires) {
        out.metric("serve.wire_ms.p50", m, "ms");
        out.note(format!("serve.wire_ms: {}", stats::describe(&wires, "ms")));
    }

    // Counts.
    let completed: Vec<&Outcome> =
        outcomes.iter().filter(|o| o.status == Status::Completed).collect();
    let hits = completed.iter().filter(|o| o.cached == Some(true)).count();
    out.metric("serve.hit_ratio", hits as f64 / completed.len().max(1) as f64, "ratio");
    out.note(format!("serve.hit_ratio base: {hits} store hits of {} answers", completed.len()));
    let rejects = outcomes.iter().filter(|o| matches!(o.status, Status::Rejected(_))).count();
    out.metric("serve.rejects", rejects as f64, "count");
    let body_bytes: usize = completed.iter().map(|o| o.body.len()).sum();
    out.metric("serve.result_bytes", body_bytes as f64, "bytes");
    let events: u64 = completed.iter().map(|o| o.events).sum();
    out.metric("serve.events_per_request", events as f64 / completed.len().max(1) as f64, "count");
    out.note(format!("load wall {wall:.3} s"));

    // Protocol parse over the run's own lines.
    for p in plan {
        let line = p.line();
        spans.time("serve.parse_request", |_| black_box(parse_request(&line).is_ok()));
    }
    span_metric(spans, out, "serve.parse_request", "serve.parse_us", 1e6, "us");

    // Result store: put every cold answer into a fresh spool, then get it.
    let probe = ResultStore::with_spool(&store_dir.join("probe_spool"))
        .map_err(|e| format!("probe spool: {e}"))?;
    let mut fingerprints = Vec::new();
    for o in completed.iter().filter(|o| o.cached == Some(false)) {
        let Ok(Request::Work(work)) = parse_request(&plan[o.index].line()) else { continue };
        let entry = ResultEntry {
            fingerprint: work.fingerprint(),
            body: o.body.clone(),
            events: o.kept_events.clone(),
        };
        fingerprints.push(entry.fingerprint);
        spans.time("serve.store_put", |_| probe.put(entry)).map_err(|e| format!("put: {e}"))?;
    }
    for fp in &fingerprints {
        spans.time("serve.store_get", |_| black_box(probe.get(*fp).is_some()));
    }
    span_metric(spans, out, "serve.store_put", "serve.store_put_ms", 1e3, "ms");
    span_metric(spans, out, "serve.store_get", "serve.store_get_us", 1e6, "us");

    // The layer probe on the request-sized drive; its checkpoint is what
    // an extend stores and resumes from.
    let config = SweepPoint::default().apply(&WorldKind::Smoke.base_config());
    let dir = store_dir.join("probe_ckpt");
    let probe = Probe {
        label: WORKLOAD,
        config: &config,
        horizon_s: mix.drive_s,
        trace_pairs: TRACE_PAIRS,
        barrier_s: mix.drive_s,
        checkpoint_reps: CHECKPOINT_REPS,
        dir: &dir,
    };
    layers::probe(&probe, spans, out)?;
    Ok(())
}
