//! Tests of the benchmark itself: the arrival schedule, the percentile
//! helper, tiny runs of every workload, and the output pins.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use av_perfbench::schedule::{schedule, Kind, MixParams};
use av_perfbench::stats;
use av_trace::json::{self, JsonValue};
use std::path::PathBuf;
use std::process::{Command, Output};

fn mix() -> MixParams {
    MixParams {
        requests: 200,
        rate_rps: 20.0,
        connections: 2,
        drive_s: 2.0,
        extend_s: 4.0,
        origin_gap_s: 2.0,
    }
}

#[test]
fn arrival_schedule_is_a_pure_function_of_the_seed() {
    let a = schedule(7, &mix());
    assert_eq!(a, schedule(7, &mix()), "same seed, same schedule");
    assert_ne!(a, schedule(8, &mix()), "another seed, another schedule");
    assert_eq!(a.len(), 200);
    // Conditioned on its count: the span is (n - 1) / rate for every seed.
    for seed in [1, 2, 3] {
        let plan = schedule(seed, &mix());
        let span = plan.last().unwrap().at_s;
        assert!((span - 199.0 / 20.0).abs() < 1e-9, "span {span}");
        assert!(plan.windows(2).all(|w| w[0].at_s <= w[1].at_s), "times are sorted");
    }
    // Every kind is dealt, and repeats/extends point at eligible origins.
    for kind in [Kind::Cold, Kind::ColdTraced, Kind::Repeat, Kind::Extend, Kind::Blame] {
        assert!(a.iter().any(|p| p.kind == kind), "{kind:?} missing");
    }
    for p in &a {
        if let Some(o) = p.origin {
            assert!(a[o].at_s <= p.at_s - 2.0, "origin sent at least the gap earlier");
            if p.kind == Kind::Repeat {
                assert_eq!(a[o].key, p.key, "a repeat asks the same request");
            }
        }
    }
}

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
    let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
    let t = stats::tail(&hundred).unwrap();
    assert_eq!((t.pct, t.value, t.beyond), (90.0, 90.0, 10));

    let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
    let t = stats::tail(&thousand).unwrap();
    assert_eq!((t.pct, t.value, t.beyond), (99.0, 990.0, 10));

    let twenty: Vec<f64> = (1..=20).rev().map(f64::from).collect();
    let t = stats::tail(&twenty).unwrap();
    assert_eq!((t.pct, t.value, t.beyond), (50.0, 10.0, 10), "input order does not matter");
    assert!(stats::tail(&twenty[..19]).is_none(), "19 samples support no tail");
    assert!(stats::describe(&thousand, "ms").ends_with("n=1000"), "the count is reported");
}

fn bench(args: &[&str]) -> Output {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench_out");
    Command::new(env!("CARGO_BIN_EXE_av-perfbench"))
        .args(args)
        .args(["--size", "tiny", "--seconds", "1", "--out"])
        .arg(&out)
        .output()
        .expect("benchmark binary runs")
}

/// The final JSON line of a run.
fn result(output: &Output) -> JsonValue {
    let text = String::from_utf8_lossy(&output.stdout);
    let last = text.lines().last().expect("some output");
    json::parse(last).expect("last line is JSON")
}

/// `(name, unit)` of every metric `BENCHMARK.json` declares in `section`.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json next to the package");
    let doc = json::parse(&text).expect("valid JSON");
    doc.get(section)
        .and_then(JsonValue::as_array)
        .expect("section is a list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(JsonValue::as_str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// A tiny run of `workload` prints exactly the metrics `BENCHMARK.json`
/// declares in `section`, each with its declared unit, in the JSON result
/// and as a `metric` line; `also` names workload-only metrics that must
/// be printed by name.
fn assert_prints(workload: &str, trace: &str, section: &str, also: &[&str]) {
    let output = bench(&["--workload", workload, "--seed", "3", "--trace", trace]);
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "{workload} --trace {trace} failed:\n{stdout}");
    let doc = result(&output);
    assert_eq!(doc.get("correct"), Some(&JsonValue::Bool(true)));
    let JsonValue::Obj(members) = doc.get("metrics").expect("metrics member") else {
        panic!("metrics is an object")
    };
    let declared = declared(section);
    let reported: Vec<(String, String)> = members
        .iter()
        .map(|(name, value)| {
            assert!(value.get("value").and_then(JsonValue::as_f64).is_some_and(f64::is_finite));
            (name.clone(), value.get("unit").and_then(JsonValue::as_str).unwrap().to_string())
        })
        .collect();
    assert_eq!(reported, declared, "{workload} reports exactly the {section} metrics, in order");
    for (name, unit) in &declared {
        assert!(
            stdout
                .lines()
                .any(|l| l.starts_with(&format!("metric {name} = ")) && l.ends_with(unit)),
            "{name} printed with its unit {unit}"
        );
    }
    for name in also {
        assert!(stdout.contains(&format!("metric {name} = ")), "{workload} prints {name}");
    }
}

#[test]
fn the_declared_metric_lists_match_benchmark_json() {
    let names = |section| declared(section).into_iter().map(|(n, _)| n).collect::<Vec<_>>();
    assert_eq!(names("end_to_end"), av_perfbench::report::END_TO_END);
    assert_eq!(names("per_layer"), av_perfbench::report::PER_LAYER);
}

#[test]
fn tiny_paper_drive_prints_every_named_metric() {
    assert_prints("paper_drive", "0", "end_to_end", &["fail_frac"]);
    assert_prints("paper_drive", "1", "per_layer", &["ros.dropped", "ros.drop_ratio"]);
}

#[test]
fn tiny_sweep_smoke_prints_every_named_metric() {
    assert_prints("sweep_smoke", "0", "end_to_end", &["sweep_points_per_s", "fail_frac"]);
    assert_prints(
        "sweep_smoke",
        "1",
        "per_layer",
        &[
            "sweep.points",
            "sweep.unique_points",
            "sweep.deduped",
            "sweep.resumed_points",
            "sweep.useful_ratio",
            "sweep.aggregate_ms",
        ],
    );
}

#[test]
fn tiny_serve_mix_prints_every_named_metric() {
    assert_prints(
        "serve_mix",
        "0",
        "end_to_end",
        &["serve_cold_p50_ms", "serve_hit_p50_ms", "serve_slo_miss_frac", "fail_frac"],
    );
    assert_prints(
        "serve_mix",
        "1",
        "per_layer",
        &[
            "serve.queue_wait_ms.p50",
            "serve.exec_ms.p50",
            "serve.wire_ms.p50",
            "serve.hit_ms.p50",
            "serve.parse_us",
            "serve.store_get_us",
            "serve.store_put_ms",
            "serve.hit_ratio",
            "serve.rejects",
            "serve.result_bytes",
            "serve.events_per_request",
            "serve.worker_busy_share",
            "loadgen.lag_ms.p50",
            "loadgen.lag_ms.max",
        ],
    );
}

#[test]
fn a_wrong_pin_fails_the_run_and_the_right_pin_passes() {
    // The tiny run's own fingerprint, printed because it is unpinned.
    let first = bench(&["--workload", "paper_drive", "--seed", "5", "--trace", "0"]);
    let stdout = String::from_utf8_lossy(&first.stdout).to_string();
    let hash = stdout
        .lines()
        .find_map(|l| l.strip_prefix("output fingerprint (unpinned seed 5): "))
        .expect("unpinned fingerprint printed")
        .to_string();
    let params = "paper_default YOLOv3 fifo no-faults horizon_s=1";
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let pin = |value: &str, file: &str| {
        let path = dir.join(file);
        let text = format!(
            "{{\"paper_drive\":{{\"params\":\"{params}\",\"seeds\":{{\"5\":\"{value}\"}}}}}}"
        );
        std::fs::write(&path, text).unwrap();
        path.to_string_lossy().to_string()
    };

    let wrong = pin("0x0000000000000000", "wrong_pins.json");
    let run =
        bench(&["--workload", "paper_drive", "--seed", "5", "--trace", "0", "--pins", &wrong]);
    assert_eq!(run.status.code(), Some(1), "a wrong pin must fail the command");
    assert_eq!(result(&run).get("correct"), Some(&JsonValue::Bool(false)));
    assert!(result(&run).get("failed").and_then(JsonValue::as_u64).unwrap() >= 1);

    let right = pin(&hash, "right_pins.json");
    let run =
        bench(&["--workload", "paper_drive", "--seed", "5", "--trace", "0", "--pins", &right]);
    assert!(run.status.success(), "the right pin passes");
    assert!(String::from_utf8_lossy(&run.stdout).contains("check pinned output (seed 5): ok"));
}
