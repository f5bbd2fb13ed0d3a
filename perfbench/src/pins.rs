//! Pinned simulated outputs.
//!
//! Host time may change from commit to commit; simulated output must
//! not. `pins.json` (next to this package's manifest) records, per
//! workload and per workload-parameter string, the expected output
//! fingerprint for each pinned seed: the drive's golden run hash for
//! `paper_drive`, the point-hash manifest for `sweep_smoke`. A run whose
//! parameters and seed have a pin must reproduce it exactly or it fails;
//! other runs print their fingerprint so two commits compare exactly.

use crate::report::Report;
use av_trace::json::{self, JsonValue};

/// A parsed pin table.
#[derive(Debug, Clone)]
pub struct Pins {
    doc: JsonValue,
}

impl Pins {
    /// The pins compiled into the benchmark.
    pub fn builtin() -> Pins {
        Pins::parse(include_str!("../pins.json")).expect("pins.json is valid JSON")
    }

    /// Parses a pin table (the `--pins FILE` override).
    pub fn parse(text: &str) -> Result<Pins, String> {
        let doc = json::parse(text).map_err(|e| format!("pins: {e}"))?;
        Ok(Pins { doc })
    }

    /// The pinned fingerprint for `(workload, params, seed)`, if any.
    pub fn lookup(&self, workload: &str, params: &str, seed: u64) -> Option<&str> {
        let entry = self.doc.get(workload)?;
        if entry.get("params")?.as_str()? != params {
            return None;
        }
        entry.get("seeds")?.get(&seed.to_string())?.as_str()
    }

    /// Checks `actual` against the pin for this run and records the
    /// verdict; a mismatch counts as one failed operation.
    pub fn verify(
        &self,
        report: &mut Report,
        workload: &str,
        params: &str,
        seed: u64,
        actual: &str,
    ) {
        match self.lookup(workload, params, seed) {
            Some(expected) => {
                let ok = expected == actual;
                if !ok {
                    report.failed += 1;
                    report.note(format!("pin mismatch: expected {expected}, got {actual}"));
                }
                report.check(format!("pinned output (seed {seed})"), ok);
                report.note(format!("output fingerprint (pinned): {actual}"));
            }
            None => report.note(format!("output fingerprint (unpinned seed {seed}): {actual}")),
        }
    }
}
