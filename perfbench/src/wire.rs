//! Open-loop load over the `av-serve` TCP wire.
//!
//! One thread per connection sends its share of the schedule at the
//! scheduled instants — whether or not earlier answers have arrived —
//! and reads frames in between with a read timeout that ends at the next
//! send. Latency runs from a request's *scheduled* send time to its
//! `result` frame, so a stall that delays later sends is charged to
//! them; how late each send actually went out is the generator's lag.

use crate::schedule::Planned;
use av_trace::json::{self, JsonValue};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// How a request ended.
#[derive(Debug, Clone, PartialEq)]
pub enum Status {
    /// No terminal frame (yet).
    Pending,
    /// A `result` frame arrived.
    Completed,
    /// The server refused it (`429` full / `503` draining).
    Rejected(u64),
    /// An `error` frame, or the connection ended first.
    Failed(String),
}

/// Everything observed for one request.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Schedule index.
    pub index: usize,
    /// When it was due.
    pub due: Instant,
    /// How late the send went out, ms.
    pub lag_ms: f64,
    /// When its terminal frame arrived.
    pub done: Option<Instant>,
    /// Terminal state.
    pub status: Status,
    /// `stats.cached`.
    pub cached: Option<bool>,
    /// `stats.queue_wait_ms`.
    pub queue_wait_ms: Option<f64>,
    /// `stats.exec_ms`.
    pub exec_ms: Option<f64>,
    /// Raw result body bytes.
    pub body: String,
    /// Event frames received.
    pub events: u64,
    /// FNV-1a-64 over every event payload (newline-separated).
    pub events_hash: u64,
    /// The raw event payloads, when asked to keep them.
    pub kept_events: Vec<String>,
}

impl Outcome {
    /// Client latency from the scheduled send to the terminal frame, ms.
    pub fn latency_ms(&self) -> Option<f64> {
        self.done.map(|d| d.saturating_duration_since(self.due).as_secs_f64() * 1e3)
    }
}

/// Time before a send at which the reader stops blocking and polls.
/// Socket read timeouts overshoot by up to two kernel ticks (4–8 ms
/// measured on the reference box), so the margin covers that.
const POLL_MARGIN: Duration = Duration::from_millis(10);

/// Sleep between polls in the last [`POLL_MARGIN`] before a send.
const POLL_SLEEP: Duration = Duration::from_micros(100);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Newline-delimited frames from a stream, read with deadlines.
struct Frames {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Frames {
    /// The next complete frame, or `None` once `deadline` passes first.
    fn next(&mut self, deadline: Instant) -> io::Result<Option<String>> {
        loop {
            if let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = self.buf.drain(..=pos).collect();
                let text = String::from_utf8_lossy(&line[..line.len() - 1]).into_owned();
                return Ok(Some(text));
            }
            let now = Instant::now();
            if now >= deadline {
                return Ok(None);
            }
            // Socket read timeouts expire on the kernel's coarse tick, so
            // block only until a margin before the deadline, then poll
            // with short sleeps: sends go out on time.
            let left = deadline - now;
            let blocking = left > POLL_MARGIN;
            if blocking {
                self.stream.set_nonblocking(false)?;
                self.stream.set_read_timeout(Some(left - POLL_MARGIN))?;
            } else {
                self.stream.set_nonblocking(true)?;
            }
            let mut chunk = [0u8; 64 * 1024];
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "server closed")),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) =>
                {
                    if !blocking {
                        std::thread::sleep(
                            POLL_SLEEP.min(deadline.saturating_duration_since(Instant::now())),
                        );
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// `(type, id)` of a server frame, read from its fixed prefix
/// `{"type":"…","id":"…"`.
fn frame_head(frame: &str) -> Option<(&str, Option<&str>)> {
    let rest = frame.strip_prefix("{\"type\":\"")?;
    let (kind, rest) = rest.split_once('"')?;
    let rest = rest.strip_prefix(",\"id\":")?;
    let id = rest.strip_prefix('"').and_then(|r| r.split_once('"')).map(|(id, _)| id);
    Some((kind, id))
}

/// The raw bytes of a frame's trailing member (`,"event":` / `,"body":`).
fn trailing<'a>(frame: &'a str, marker: &str) -> &'a str {
    match frame.find(marker) {
        Some(i) => frame.get(i + marker.len()..frame.len().saturating_sub(1)).unwrap_or(""),
        None => "",
    }
}

/// Sends `plan` (one connection's share, in time order) open-loop,
/// starting the clock at `t0`, and collects every answer. Requests still
/// unanswered at `give_up` are reported as failed.
pub fn drive_connection(
    addr: SocketAddr,
    plan: &[&Planned],
    t0: Instant,
    keep_events: bool,
    give_up: Instant,
) -> io::Result<Vec<Outcome>> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut writer = stream.try_clone()?;
    let mut frames = Frames { stream, buf: Vec::new() };
    let mut outcomes: Vec<Outcome> = plan
        .iter()
        .map(|p| Outcome {
            index: p.index,
            due: t0 + Duration::from_secs_f64(p.at_s),
            lag_ms: 0.0,
            done: None,
            status: Status::Pending,
            cached: None,
            queue_wait_ms: None,
            exec_ms: None,
            body: String::new(),
            events: 0,
            events_hash: FNV_OFFSET,
            kept_events: Vec::new(),
        })
        .collect();
    let slot: HashMap<String, usize> =
        plan.iter().enumerate().map(|(i, p)| (format!("r{}", p.index), i)).collect();
    let mut next = 0;
    let mut open = 0usize;
    loop {
        let now = Instant::now();
        if next < plan.len() && now >= outcomes[next].due {
            // The reader may have left the shared socket non-blocking.
            writer.set_nonblocking(false)?;
            writer.write_all(plan[next].line().as_bytes())?;
            writer.write_all(b"\n")?;
            outcomes[next].lag_ms = (Instant::now() - outcomes[next].due).as_secs_f64() * 1e3;
            next += 1;
            open += 1;
            continue;
        }
        if next == plan.len() && open == 0 {
            break;
        }
        if now >= give_up {
            break;
        }
        let deadline = if next < plan.len() { outcomes[next].due } else { give_up };
        let frame = match frames.next(deadline.min(give_up)) {
            Ok(Some(frame)) => frame,
            Ok(None) => continue,
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => break,
            Err(e) => return Err(e),
        };
        let arrived = Instant::now();
        let Some((kind, Some(id))) = frame_head(&frame) else { continue };
        let Some(&i) = slot.get(id) else { continue };
        let o = &mut outcomes[i];
        match kind {
            "event" => {
                let payload = trailing(&frame, ",\"event\":");
                o.events += 1;
                o.events_hash = fnv(fnv(o.events_hash, payload.as_bytes()), b"\n");
                if keep_events {
                    o.kept_events.push(payload.to_string());
                }
            }
            "stats" => {
                let doc = json::parse(&frame).unwrap_or(JsonValue::Null);
                o.cached = match doc.get("cached") {
                    Some(JsonValue::Bool(b)) => Some(*b),
                    _ => None,
                };
                o.queue_wait_ms = doc.get("queue_wait_ms").and_then(JsonValue::as_f64);
                o.exec_ms = doc.get("exec_ms").and_then(JsonValue::as_f64);
            }
            "result" | "reject" | "error" if o.status == Status::Pending => {
                o.done = Some(arrived);
                open -= 1;
                o.status = match kind {
                    "result" => {
                        o.body = trailing(&frame, ",\"body\":").to_string();
                        Status::Completed
                    }
                    "reject" => {
                        let doc = json::parse(&frame).unwrap_or(JsonValue::Null);
                        Status::Rejected(
                            doc.get("verdict").and_then(JsonValue::as_u64).unwrap_or(0),
                        )
                    }
                    _ => Status::Failed(frame.clone()),
                };
            }
            _ => {}
        }
    }
    for o in &mut outcomes {
        if o.status == Status::Pending {
            o.status = Status::Failed("no answer before the run's deadline".to_string());
        }
    }
    Ok(outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_head_reads_type_and_id() {
        let f = r#"{"type":"event","id":"r12","seq":3,"event":{"phase":"x"}}"#;
        assert_eq!(frame_head(f), Some(("event", Some("r12"))));
        assert_eq!(trailing(f, ",\"event\":"), r#"{"phase":"x"}"#);
        let e = r#"{"type":"error","id":null,"reason":"bad"}"#;
        assert_eq!(frame_head(e), Some(("error", None)));
    }
}
