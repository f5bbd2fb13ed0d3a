//! Order statistics for timing samples.
//!
//! Every timing the benchmark reports is a median plus the highest
//! percentile that still has at least [`TAIL_MIN_BEYOND`] samples above
//! it, together with the sample count — a p99 over 40 samples is one
//! sample, not a tail.

/// Samples a tail percentile must leave above it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The percentile ladder a tail is chosen from, highest last.
const LADDER: [f64; 8] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.5, 99.9, 99.99];

/// A tail percentile with its support.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Percentile level, e.g. `95.0`.
    pub pct: f64,
    /// Sample value at that level (nearest rank).
    pub value: f64,
    /// Samples strictly above the chosen rank.
    pub beyond: usize,
}

/// Sorts a copy of `values` ascending (NaN-free input assumed).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank index of percentile `pct` in `n` sorted samples.
fn rank(pct: f64, n: usize) -> usize {
    let k = (pct / 100.0 * n as f64).ceil() as usize;
    k.clamp(1, n) - 1
}

/// Median (mean of the two middle samples for even counts).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let s = sorted(values);
    let n = s.len();
    Some(if n % 2 == 1 { s[n / 2] } else { (s[n / 2 - 1] + s[n / 2]) / 2.0 })
}

/// First and third quartile, interpolated the way Python's
/// `statistics.quantiles(values, n=4)` does (the "exclusive" method), so
/// spreads printed here match the ones a reader computes from the
/// per-run medians. `None` below two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(values);
    let n = s.len();
    if n < 2 {
        return None;
    }
    // CPython's algorithm verbatim: j = i*m // 4 clamped to 1..=n-1,
    // delta = i*m - 4j (may exceed 4 after clamping: extrapolation).
    let m = (n + 1) as i64;
    let at = |i: i64| -> f64 {
        let j = (i * m / 4).clamp(1, n as i64 - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((at(1), at(3)))
}

/// The highest ladder percentile with at least [`TAIL_MIN_BEYOND`]
/// samples strictly above its nearest rank; `None` when even the median
/// lacks that support.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let s = sorted(values);
    let n = s.len();
    if n == 0 {
        return None;
    }
    LADDER.iter().rev().find_map(|&pct| {
        let k = rank(pct, n);
        let beyond = n - 1 - k;
        (beyond >= TAIL_MIN_BEYOND).then_some(Tail { pct, value: s[k], beyond })
    })
}

/// Arithmetic mean; `None` when empty.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// A one-line human summary: `median … [q1 … q3] tail pNN … (n=…)`.
pub fn describe(values: &[f64], unit: &str) -> String {
    let Some(med) = median(values) else { return "no samples".to_string() };
    let mut out = format!("median {med:.4} {unit}");
    if let Some((q1, q3)) = quartiles(values) {
        out.push_str(&format!(" [q1 {q1:.4}, q3 {q3:.4}]"));
    }
    match tail(values) {
        Some(t) => out.push_str(&format!(" p{} {:.4} ({} beyond)", t.pct, t.value, t.beyond)),
        None => out.push_str(" no tail"),
    }
    out.push_str(&format!(" n={}", values.len()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        assert_eq!(median(&v), Some(5.5));
    }
}
