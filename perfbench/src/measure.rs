//! Measurement helpers: order statistics, process memory, the metric
//! list a run prints, and the output-check ledger.

use std::time::{Duration, Instant};

/// Samples that lie beyond the reported tail value.
const TAIL_BEYOND: usize = 10;

/// Median of `xs` (mean of the middle two for an even count); 0 when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Mean of `xs`; 0 when empty.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// The tail: the highest percentile with [`TAIL_BEYOND`] samples
/// beyond it, i.e. the `TAIL_BEYOND + 1`-th largest sample, but never
/// below the median (with fewer than `2 * TAIL_BEYOND + 1` samples).
/// Returns `(percentile, value)`.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = n.saturating_sub(TAIL_BEYOND + 1).max((n - 1) / 2);
    (100.0 * (at + 1) as f64 / n as f64, v[at])
}

/// Set-ups a run times: at least [`SETUP_MIN_REPS`] before its timed
/// loop, then more between its operations until they add up to
/// [`SETUP_SECS`] (at most [`SETUP_MAX_REPS`]). The machine's speed
/// drifts within seconds, so set-ups spread over the whole run sample
/// it as the operations do; and a sub-millisecond set-up is timed
/// hundreds of times, so that its median rises above timer noise.
const SETUP_MIN_REPS: usize = 5;
const SETUP_SECS: f64 = 1.0;
const SETUP_MAX_REPS: usize = 10_000;

/// The set-up times of one run; `setup_s` is their median.
#[derive(Debug, Default)]
pub struct Setups {
    secs: Vec<f64>,
    total: f64,
}

impl Setups {
    /// Whether another set-up is due now, `progress` (0 to 1) of the
    /// timed loop having passed.
    pub fn due(&self, progress: f64) -> bool {
        self.secs.len() < SETUP_MIN_REPS
            || (self.total < SETUP_SECS * progress.min(1.0) && self.secs.len() < SETUP_MAX_REPS)
    }

    pub fn push(&mut self, secs: f64) {
        self.secs.push(secs);
        self.total += secs;
    }

    pub fn is_empty(&self) -> bool {
        self.secs.is_empty()
    }

    pub fn median(&self) -> f64 {
        median(&self.secs)
    }
}

/// Time `f`, returning its result and the elapsed seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Median seconds of `f` over at least `min_reps` calls and at least
/// `min_time` of total calls (capped at 10,000 calls).
pub fn median_secs(min_reps: usize, min_time: Duration, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min_reps || (start.elapsed() < min_time && samples.len() < 10_000) {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64());
    }
    median(&samples)
}

/// A `kB` field of `/proc/<pid>/status`, in MiB; 0 where unreadable.
pub fn proc_status_mb(pid: &str, field: &str) -> f64 {
    let Ok(status) = std::fs::read_to_string(format!("/proc/{pid}/status")) else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resident set size of this process, MiB.
pub fn rss_mb() -> f64 {
    proc_status_mb("self", "VmRSS")
}

/// Peak resident set size (`VmHWM`) of this process, MiB.
pub fn peak_rss_mb() -> f64 {
    proc_status_mb("self", "VmHWM")
}

/// FNV-1a hash of a string: a compact fingerprint of a result TSV.
pub fn fingerprint(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// SplitMix64: derives independent seeds from the run seed.
pub fn mix(seed: u64, k: u64) -> u64 {
    let mut z = seed
        .wrapping_add(k.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The paper's numbers of one query (or one `service-mix` epoch): HITs
/// posted, dollars, virtual seconds, a fingerprint of the result TSV,
/// and the result's quality against ground truth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Paper {
    pub hits: usize,
    pub dollars: f64,
    pub virtual_s: f64,
    pub tsv: u64,
    pub quality: f64,
}

/// The metrics one run reports, by name, in insertion order. Units
/// come from the metric tables in `main.rs`, which also reject a name
/// they do not list.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64)>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        let value = if value.is_finite() { value } else { 0.0 };
        match self.0.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name.to_owned(), value)),
        }
    }
}

/// Output checks made outside the timed region. A failed check counts
/// toward the error rate and makes the run incorrect.
#[derive(Debug, Default)]
pub struct Checks {
    pub failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("check failed: {msg}");
            self.failures.push(msg);
        }
    }
}

/// What a workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct RunResult {
    pub metrics: Metrics,
    pub checks: Checks,
    /// Operations attempted in the timed loop.
    pub attempted: u64,
    /// Operations that returned an error.
    pub failed_ops: u64,
    /// Human-readable lines printed before the JSON result.
    pub notes: Vec<String>,
}

/// The end-to-end timing summary of one run's timed operations.
pub struct OpTimes<'a> {
    /// Latency samples, seconds.
    pub op_secs: &'a [f64],
    /// Operations completed (the numerator of throughput).
    pub ops: usize,
    /// Seconds the timed operations took in total (the denominator of
    /// throughput).
    pub busy_secs: f64,
    /// Median seconds of one set-up.
    pub setup_secs: f64,
}

/// Record `setup_s`, `op_s.p50`, `op_s.tail`, `ops_per_s` and
/// `peak_rss_mb` (taken from this process unless `peak_rss` is given).
pub fn record_timing(r: &mut RunResult, t: &OpTimes, peak_rss: Option<f64>) {
    let (tail_p, tail_v) = tail(t.op_secs);
    let p50 = median(t.op_secs);
    r.metrics.set("setup_s", t.setup_secs);
    r.metrics.set("op_s.p50", p50);
    r.metrics.set("op_s.tail", tail_v);
    r.metrics
        .set("ops_per_s", t.ops as f64 / t.busy_secs.max(1e-12));
    r.metrics
        .set("peak_rss_mb", peak_rss.unwrap_or_else(peak_rss_mb));
    r.notes.push(format!(
        "ops {} | op_s.p50 {p50:.6} | op_s.tail = p{tail_p:.1} {tail_v:.6} ({} latency samples)",
        t.ops,
        t.op_secs.len()
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(tail(&xs), (90.0, 90.0));
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&xs), (75.0, 30.0));
        assert_eq!(tail(&[3.0, 1.0, 2.0]), (200.0 / 3.0, 2.0));
        let xs: Vec<f64> = (1..=12).map(f64::from).collect();
        assert_eq!(tail(&xs).1, 6.0, "never below the median");
        assert_eq!(tail(&[]), (0.0, 0.0));
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[]), 0.0);
    }
}
