//! Metric collection, summary statistics and the result line.
//!
//! Every metric a run measures is pushed into a [`Report`] with its
//! unit and a short note. The report prints a human-readable table and
//! then, as the last line of standard output, one JSON object with
//! `correct`, `attempted`, `failed` and the declared metrics.

use nplus::sim::SweepStats;
use nplus_server::json::{self, Json};
use std::time::Instant;

/// The benchmark's declaration: which metrics a run reports, with
/// their units.
const DECLARATION: &str = include_str!("../../BENCHMARK.json");

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`
/// (`"end_to_end"` or `"per_layer"`).
pub fn declared(section: &str) -> Result<Vec<(String, String)>, String> {
    let doc = json::parse(DECLARATION).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let entries = doc
        .get(section)
        .and_then(Json::as_array)
        .ok_or_else(|| format!("BENCHMARK.json has no {section} list"))?;
    entries
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).map(str::to_string);
            field("name")
                .zip(field("unit"))
                .ok_or_else(|| format!("BENCHMARK.json: {section} entry without name or unit"))
        })
        .collect()
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    note: String,
}

/// Everything one run measured and checked.
#[derive(Default)]
pub struct Report {
    metrics: Vec<Metric>,
    /// Operations attempted (sweeps, requests, check legs).
    attempted: u64,
    /// Operations that failed or produced output that failed a check.
    failed: u64,
    /// One line per failed check, printed before the result line.
    failures: Vec<String>,
    /// Warnings that are not failures (e.g. low trace coverage).
    pub flags: Vec<String>,
}

impl Report {
    /// Records one metric. A later push of the same name replaces it.
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str, note: impl Into<String>) {
        let note = note.into();
        if let Some(m) = self.metrics.iter_mut().find(|m| m.name == name) {
            m.value = value;
            m.unit = unit;
            m.note = note;
        } else {
            self.metrics.push(Metric {
                name: name.to_string(),
                value,
                unit,
                note,
            });
        }
    }

    /// Counts one operation; `ok == false` counts it as failed and
    /// records `what` went wrong.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Prints the table and the result line, which carries the
    /// `declared` metrics. A declared metric the run did not measure,
    /// or measured in another unit, is a failed operation and reads 0.
    pub fn print(&mut self, declared: &[(String, String)]) {
        let measured = |r: &Report, name: &str, unit: &str| {
            r.metrics
                .iter()
                .find(|m| m.name == name && m.unit == unit && m.value.is_finite())
                .map(|m| m.value)
        };
        for (name, unit) in declared {
            if name != "fail_share" && measured(self, name, unit).is_none() {
                self.check(false, || format!("{name} not measured in {unit}"));
            }
        }
        let fail_share = self.failed as f64 / self.attempted.max(1) as f64;
        self.push(
            "fail_share",
            fail_share,
            "ratio",
            "failed or incorrect operations / attempted",
        );
        self.push(
            "attempted",
            self.attempted as f64,
            "count",
            "operations attempted",
        );
        let fields: Vec<String> = declared
            .iter()
            .map(|(name, unit)| {
                let value = measured(self, name, unit).unwrap_or(0.0);
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(value)
                )
            })
            .collect();
        for m in &self.metrics {
            println!(
                "{:<28} {:>16} {:<6} {}",
                m.name,
                fmt_value(m.value),
                m.unit,
                m.note
            );
        }
        for f in &self.flags {
            println!("FLAG: {f}");
        }
        for f in &self.failures {
            println!("FAILED: {f}");
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        );
    }
}

fn fmt_value(v: f64) -> String {
    if v != 0.0 && (v.abs() >= 1e6 || v.abs() < 1e-3) {
        format!("{v:.4e}")
    } else {
        format!("{v:.4}")
    }
}

/// A finite f64 as a JSON number with all its digits.
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}

/// Median of a sample (0 for an empty one).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` (0 for an empty sample).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median seconds per call of `f` over 9 batches, each sized to last at
/// least `batch_s`.
pub fn time_per_op(batch_s: f64, mut f: impl FnMut()) -> f64 {
    let mut iters = 1u64;
    loop {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        if since(t) >= batch_s {
            break;
        }
        iters *= 2;
    }
    let samples: Vec<f64> = (0..9)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            since(t) / iters as f64
        })
        .collect();
    median(&samples)
}

/// Seconds since `t`.
pub fn since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Canonical bytes of a statistics vector: every field, floats by bit
/// pattern, so two vectors compare equal exactly when they are
/// bit-identical (NaN fairness included).
pub fn stats_bytes(stats: &[SweepStats]) -> Vec<u8> {
    let mut out = Vec::new();
    for s in stats {
        out.extend_from_slice(s.policy.as_bytes());
        out.push(0);
        out.extend_from_slice(&(s.n_runs as u64).to_le_bytes());
        for v in [
            s.mean_total_mbps,
            s.ci95_total_mbps,
            s.mean_dof,
            s.mean_fairness,
        ] {
            out.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        out.extend_from_slice(&(s.mean_per_flow_mbps.len() as u64).to_le_bytes());
        for v in &s.mean_per_flow_mbps {
            out.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }
    out
}

/// 64-bit FNV-1a digest of `bytes`, as 16 hex digits.
pub fn digest(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// SplitMix64: the benchmark's own input generator, so inputs depend
/// on the workload seed alone.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Peak resident set of process `pid` (`"self"` for this one), in MB,
/// from the kernel's `VmHWM` line.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
