//! `perfbench` — runs one benchmark workload and prints its metrics.
//!
//! ```text
//! perfbench --workload paper_drive|sweep_smoke|serve_mix --seed N --seconds S --trace 0|1
//!           [--size full|tiny] [--pins FILE] [--out DIR]
//! ```
//!
//! Prints one `metric NAME = VALUE UNIT` line per metric, the run's
//! provenance, and as its last line the JSON result. Exits 1 when an
//! output check fails, 2 on a usage or set-up error.

use av_perfbench::pins::Pins;
use av_perfbench::report::{json_escape, Report, END_TO_END, PER_LAYER};
use av_perfbench::{sys, workloads, Ctx, Size};
use std::path::PathBuf;

/// Seed used when `--seed` is not given; its outputs are pinned.
const DEFAULT_SEED: u64 = 1;

fn usage() -> String {
    "usage: perfbench --workload paper_drive|sweep_smoke|serve_mix --seed N --seconds S \
     --trace 0|1 [--size full|tiny] [--pins FILE] [--out DIR]"
        .to_string()
}

fn parse_args() -> Result<(String, Ctx), String> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    let mut size = Size::Full;
    let mut pins = Pins::builtin();
    let mut out_dir = PathBuf::from(".perfbench_out");
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value\n{}", usage()));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--size" => size = Size::parse(&value()?)?,
            "--pins" => {
                let path = value()?;
                let text =
                    std::fs::read_to_string(&path).map_err(|e| format!("--pins {path}: {e}"))?;
                pins = Pins::parse(&text)?;
            }
            "--out" => out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    let workload = workload.ok_or_else(usage)?;
    Ok((workload, Ctx { seed, seconds, trace, size, pins, jobs: sys::nproc(), out_dir }))
}

fn main() {
    let (workload, ctx) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut report = Report::default();
    report.prov_str("workload", &workload);
    report.prov_json("seed", ctx.seed.to_string());
    report.prov_json("seconds", format!("{}", ctx.seconds));
    report.prov_json("trace", ctx.trace.to_string());
    report.prov_str("size", if ctx.size == Size::Full { "full" } else { "tiny" });
    report.prov_json("nproc", sys::nproc().to_string());
    report.prov_json("jobs", ctx.jobs.to_string());
    report.prov_str("profile", sys::profile());
    report.prov_str("commit", &sys::commit());
    report.prov_str("rustc", sys::rustc());
    let outcome = match workload.as_str() {
        "paper_drive" => workloads::paper_drive::run(&ctx, &mut report),
        "sweep_smoke" => workloads::sweep_smoke::run(&ctx, &mut report),
        "serve_mix" => workloads::serve_mix::run(&ctx, &mut report),
        other => Err(format!("unknown workload {other:?}\n{}", usage())),
    };
    let declared: &[&str] = if ctx.trace { &PER_LAYER } else { &END_TO_END };
    match outcome.and_then(|()| report.render(declared)) {
        Ok(text) => print!("{text}"),
        Err(e) => {
            eprintln!("perfbench: {}", json_escape(&e));
            std::process::exit(2);
        }
    }
    std::process::exit(if report.correct() { 0 } else { 1 });
}
