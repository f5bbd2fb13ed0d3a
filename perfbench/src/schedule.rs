//! The `serve_mix` arrival schedule: a pure function of the seed.
//!
//! Arrivals are a Poisson process at one fixed offered rate, conditioned
//! on its count (open loop: nothing about the server's progress changes
//! when a request is due).
//! Kinds are dealt from shuffled blocks of [`BLOCK`] so every run of a
//! given size carries the same mix:
//!
//! * cold smoke `drive`s, some with `trace` + `stream_trace`;
//! * repeats of an earlier untraced drive or blame (store hits once it
//!   has finished; traced-stream replays are left out so hit latency
//!   measures the read path, not a multi-thousand-frame replay);
//! * `extend`s of an earlier untraced drive to a longer horizon
//!   (checkpoint-store resume);
//! * `blame` requests.
//!
//! A repeat or extend needs an origin sent at least `origin_gap_s`
//! earlier; without one it is dealt as a cold drive instead.

use av_des::RngStreams;

/// Request kinds in the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    /// A new untraced drive.
    Cold,
    /// A new drive with `trace` and `stream_trace`.
    ColdTraced,
    /// An earlier request, asked again under a new id.
    Repeat,
    /// An earlier untraced drive, extended to a longer horizon.
    Extend,
    /// A new blame request.
    Blame,
}

/// One block of the deal: 20 requests.
pub const BLOCK: [Kind; 20] = {
    use Kind::*;
    [
        Cold, Cold, Cold, Cold, Cold, Cold, Cold, ColdTraced, ColdTraced, Repeat, Repeat, Repeat,
        Repeat, Repeat, Extend, Extend, Extend, Blame, Blame, Blame,
    ]
};

/// Requests at the start of a schedule that are always cold drives, so
/// repeats and extends have origins.
const WARMUP_COLD: usize = 3;

/// Schedule shape.
#[derive(Debug, Clone, PartialEq)]
pub struct MixParams {
    /// Requests in the schedule.
    pub requests: usize,
    /// Offered rate, requests per second.
    pub rate_rps: f64,
    /// Connections the requests are spread over (round robin).
    pub connections: usize,
    /// Virtual horizon of drives and blames, seconds.
    pub drive_s: f64,
    /// Horizon an `extend` asks for, seconds.
    pub extend_s: f64,
    /// Minimum send-time gap between a repeat or extend and its origin.
    pub origin_gap_s: f64,
}

/// One scheduled request.
#[derive(Debug, Clone, PartialEq)]
pub struct Planned {
    /// Position in the schedule; the wire id is `r<index>`.
    pub index: usize,
    /// Send time, seconds after the schedule starts.
    pub at_s: f64,
    /// Connection that sends it.
    pub conn: usize,
    /// Kind as dealt.
    pub kind: Kind,
    /// The request without its id: requests with equal keys must get
    /// byte-identical answers.
    pub key: String,
    /// The sweep-point overrides as JSON (for in-process spot checks).
    pub point: String,
    /// The request this one repeats or extends.
    pub origin: Option<usize>,
}

impl Planned {
    /// The wire line.
    pub fn line(&self) -> String {
        format!("{{\"id\":\"r{}\",{}}}", self.index, self.key)
    }
}

const DETECTORS: [&str; 3] = ["SSD512", "SSD300", "YOLOv3"];
const CAMERA_HZ: [u32; 3] = [10, 15, 20];

/// Deals the schedule for `seed`.
pub fn schedule(seed: u64, p: &MixParams) -> Vec<Planned> {
    let mut rng = RngStreams::new(seed).stream("serve_mix");
    // Exponential inter-arrival gaps, rescaled so the schedule spans
    // exactly (requests - 1) / rate seconds: a Poisson process
    // conditioned on its count, so every seed offers the same load over
    // the same time and only the arrival pattern differs.
    let gaps: Vec<f64> = (1..p.requests).map(|_| -(1.0 - rng.next_f64()).ln()).collect();
    let span = (p.requests.saturating_sub(1)) as f64 / p.rate_rps;
    let scale = span / gaps.iter().sum::<f64>().max(f64::MIN_POSITIVE);
    let mut deck: Vec<Kind> = Vec::new();
    let mut plan: Vec<Planned> = Vec::with_capacity(p.requests);
    let mut extended = vec![false; p.requests];
    let mut t = 0.0;
    for index in 0..p.requests {
        if index > 0 {
            t += gaps[index - 1] * scale;
        }
        if deck.is_empty() {
            deck = BLOCK.to_vec();
            for i in (1..deck.len()).rev() {
                deck.swap(i, rng.uniform_usize(i + 1));
            }
        }
        let dealt = deck.pop().expect("refilled above");
        let mut kind = if index < WARMUP_COLD { Kind::Cold } else { dealt };
        let eligible = |pl: &&Planned| pl.at_s <= t - p.origin_gap_s;
        let mut origin = None;
        match kind {
            Kind::Repeat => {
                let pool: Vec<usize> = plan
                    .iter()
                    .filter(eligible)
                    .filter(|pl| matches!(pl.kind, Kind::Cold | Kind::Blame))
                    .map(|pl| pl.index)
                    .collect();
                origin = (!pool.is_empty()).then(|| pool[rng.uniform_usize(pool.len())]);
            }
            Kind::Extend => {
                let pool: Vec<usize> = plan
                    .iter()
                    .filter(eligible)
                    .filter(|pl| pl.kind == Kind::Cold && !extended[pl.index])
                    .map(|pl| pl.index)
                    .collect();
                origin = (!pool.is_empty()).then(|| pool[rng.uniform_usize(pool.len())]);
            }
            _ => {}
        }
        if matches!(kind, Kind::Repeat | Kind::Extend) && origin.is_none() {
            kind = Kind::Cold;
        }
        let (key, point) = match (kind, origin) {
            (Kind::Repeat, Some(o)) => (plan[o].key.clone(), plan[o].point.clone()),
            (Kind::Extend, Some(o)) => {
                extended[o] = true;
                let point = plan[o].point.clone();
                let key = format!(
                    "\"kind\":\"extend\",\"world\":\"smoke\",\"duration_s\":{},\"point\":{point}",
                    p.extend_s
                );
                (key, point)
            }
            _ => {
                // A fresh scenario: a run seed no other request uses.
                let point = format!(
                    "{{\"seed\":{},\"detector\":\"{}\",\"camera_rate_hz\":{}}}",
                    seed.wrapping_mul(100_000).wrapping_add(index as u64) % (1 << 52),
                    DETECTORS[rng.uniform_usize(DETECTORS.len())],
                    CAMERA_HZ[rng.uniform_usize(CAMERA_HZ.len())]
                );
                let (verb, flags) = match kind {
                    Kind::Blame => ("blame", ""),
                    Kind::ColdTraced => ("drive", ",\"trace\":true,\"stream_trace\":true"),
                    _ => ("drive", ""),
                };
                let key = format!(
                    "\"kind\":\"{verb}\",\"world\":\"smoke\",\"duration_s\":{},\"point\":{point}{flags}",
                    p.drive_s
                );
                (key, point)
            }
        };
        plan.push(Planned {
            index,
            at_s: t,
            conn: index % p.connections.max(1),
            kind,
            key,
            point,
            origin,
        });
    }
    plan
}
