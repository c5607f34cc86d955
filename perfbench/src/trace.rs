//! Bench-side tracing: named spans on one timeline, and a
//! [`RoundObserver`] that splits each round into phases by reading the
//! clock when the engine's events arrive. The engine itself never reads
//! a clock; every timestamp here is taken in the benchmark.

use nplus::observer::{ContentionKind, ContentionRecord, JoinRecord, RoundObserver, RoundRecord};
use nplus::RunMeta;
use std::collections::BTreeMap;
use std::time::Instant;

/// Spans of one serial traced pass. Spans are laid end to end by the
/// caller; [`Timeline::largest_gap`] names what no span covers.
pub struct Timeline {
    origin: Instant,
    /// `(name, start_s, end_s)` relative to `origin`, in call order.
    spans: Vec<(&'static str, f64, f64)>,
}

impl Timeline {
    pub fn new() -> Self {
        Timeline {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Seconds on the timeline: the traced wall so far, probes excluded.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Records a span named `name` from `start` to now.
    pub fn close(&mut self, name: &'static str, start: f64) {
        self.spans.push((name, start, self.now()));
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = self.now();
        let out = f();
        self.close(name, start);
        out
    }

    /// Runs `f` as a probe: timed, but cut out of the traced wall.
    /// Returns the result and the probe's duration.
    pub fn probe<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64) {
        let start = self.now();
        let out = f();
        let d = self.now() - start;
        // Shift the origin so the probe takes no room on the timeline.
        self.origin += std::time::Duration::from_secs_f64(d);
        (out, d)
    }

    /// Total duration of the spans named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.0 == name)
            .map(|s| s.2 - s.1)
            .sum()
    }

    /// Sum of all span durations.
    pub fn covered(&self) -> f64 {
        self.spans.iter().map(|s| s.2 - s.1).sum()
    }

    /// The largest interval no span covers, named by the spans around
    /// it, with its total over the pass.
    pub fn largest_gap(&self) -> Option<(String, f64)> {
        let mut gaps: BTreeMap<String, f64> = BTreeMap::new();
        let mut prev_end = 0.0;
        let mut prev_name = "start";
        for &(name, start, end) in &self.spans {
            let gap = start - prev_end;
            if gap > 0.0 {
                *gaps.entry(format!("{prev_name} -> {name}")).or_default() += gap;
            }
            prev_end = end;
            prev_name = name;
        }
        let tail = self.now() - prev_end;
        if tail > 0.0 {
            *gaps.entry(format!("{prev_name} -> end")).or_default() += tail;
        }
        gaps.into_iter().max_by(|a, b| a.1.total_cmp(&b.1))
    }
}

/// Which phase of a round the clock is in.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    Contend,
    Primary,
    Join,
    /// Since the latest join resolved: join time if another join
    /// follows, settlement if the round ends.
    AfterJoin,
}

/// Per-phase totals plus the deterministic event counts.
#[derive(Default, Clone)]
pub struct PhaseTotals {
    pub contend_s: f64,
    pub primary_s: f64,
    pub join_s: f64,
    pub settle_s: f64,
    pub rounds: u64,
    pub join_attempts: u64,
    pub joins_accepted: u64,
    pub streams: u64,
}

impl PhaseTotals {
    /// Sum of the four phases.
    pub fn phases_s(&self) -> f64 {
        self.contend_s + self.primary_s + self.join_s + self.settle_s
    }
}

/// Splits each round by event arrival: contend = previous round end to
/// the primary (or scheduled) contention; primary = from there to the
/// next event, so it includes settlement in rounds without a join;
/// join = first join contention to the last join; settle = last join
/// to the round end.
pub struct PhaseObserver<'a> {
    totals: &'a mut PhaseTotals,
    phase: Phase,
    mark: Instant,
}

impl<'a> PhaseObserver<'a> {
    pub fn new(totals: &'a mut PhaseTotals) -> Self {
        PhaseObserver {
            totals,
            phase: Phase::Contend,
            mark: Instant::now(),
        }
    }

    /// Books the time since the last event to `booked` and enters `next`.
    fn advance(&mut self, booked: Phase, next: Phase) {
        let now = Instant::now();
        let d = (now - self.mark).as_secs_f64();
        match booked {
            Phase::Contend => self.totals.contend_s += d,
            Phase::Primary => self.totals.primary_s += d,
            Phase::Join => self.totals.join_s += d,
            Phase::AfterJoin => self.totals.settle_s += d,
        }
        self.phase = next;
        self.mark = now;
    }

    /// The phase the interval up to a join event belongs to.
    fn join_side(&self) -> Phase {
        match self.phase {
            Phase::AfterJoin => Phase::Join,
            p => p,
        }
    }
}

impl RoundObserver for PhaseObserver<'_> {
    fn on_run_start(&mut self, _meta: &RunMeta) {
        self.phase = Phase::Contend;
        self.mark = Instant::now();
    }

    fn on_contention(&mut self, ev: &ContentionRecord) {
        match ev.kind {
            ContentionKind::Primary | ContentionKind::Scheduled => {
                self.advance(self.phase, Phase::Primary)
            }
            ContentionKind::Join => self.advance(self.join_side(), Phase::Join),
        }
    }

    fn on_join(&mut self, ev: &JoinRecord) {
        self.totals.join_attempts += 1;
        self.totals.joins_accepted += u64::from(ev.accepted);
        self.advance(self.join_side(), Phase::AfterJoin);
    }

    fn on_round_end(&mut self, ev: &RoundRecord) {
        self.totals.rounds += 1;
        self.totals.streams += ev.streams.len() as u64;
        self.advance(self.phase, Phase::Contend);
    }
}
