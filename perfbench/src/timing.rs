//! A timing [`CrowdBackend`] decorator: forwards every trait method to
//! the wrapped backend and counts calls and nanoseconds per method.
//!
//! It only observes, so a wrapped run must post the same HITs, draw
//! the same random numbers and return the same answers as an unwrapped
//! one. `join-sort` checks exactly that for every seed it traces.
//! `service-mix` cannot: with its cache bounded, an epoch need not
//! repeat even untraced (see `service_mix.rs` and finding 2 in
//! `BASELINE.md`), so it only counts diverging epochs.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use qurk::CrowdBackend;
use qurk_crowd::market::{Assignment, HitGroupId, HitId, RunOutcome};
use qurk_crowd::sim::SimTime;
use qurk_crowd::{HitSpec, WorkerId};

/// The trait methods, in [`METHOD_NAMES`] order.
#[derive(Debug, Clone, Copy)]
pub enum Method {
    PostGroup,
    PostGroupWithAssignments,
    Post,
    Run,
    RunToCompletion,
    Assignments,
    GroupHits,
    GroupLatencies,
    GroupOutstanding,
    HitQuestionCount,
    BanWorkers,
    Now,
    HitsPosted,
    SpendDollars,
    AssignmentsCompleted,
    DefaultAssignments,
}

pub const METHOD_NAMES: [&str; 16] = [
    "post_group",
    "post_group_with_assignments",
    "post",
    "run",
    "run_to_completion",
    "assignments",
    "group_hits",
    "group_latencies",
    "group_outstanding",
    "hit_question_count",
    "ban_workers",
    "now",
    "hits_posted",
    "spend_dollars",
    "assignments_completed",
    "default_assignments",
];

/// Per-method call counts and busy nanoseconds. Shared through an
/// `Arc`, so it can be read while a service owns the backend.
/// Counters are statistics that publish no other data: `Relaxed`.
#[derive(Debug, Default)]
pub struct MethodTimes {
    calls: [AtomicU64; 16],
    nanos: [AtomicU64; 16],
}

/// A copy of [`MethodTimes`] at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Snapshot {
    pub calls: [u64; 16],
    pub nanos: [u64; 16],
}

impl MethodTimes {
    pub fn snapshot(&self) -> Snapshot {
        let mut s = Snapshot::default();
        for i in 0..16 {
            s.calls[i] = self.calls[i].load(Ordering::Relaxed);
            s.nanos[i] = self.nanos[i].load(Ordering::Relaxed);
        }
        s
    }

    fn add(&self, m: Method, start: Instant) {
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.calls[m as usize].fetch_add(1, Ordering::Relaxed);
        self.nanos[m as usize].fetch_add(ns, Ordering::Relaxed);
    }
}

impl Snapshot {
    /// The work of `self` and `other` together.
    pub fn plus(&self, other: &Snapshot) -> Snapshot {
        let mut d = *self;
        for i in 0..16 {
            d.calls[i] += other.calls[i];
            d.nanos[i] += other.nanos[i];
        }
        d
    }

    /// One line per method called: name, calls and busy milliseconds.
    pub fn describe(&self) -> Vec<String> {
        (0..16)
            .filter(|&i| self.calls[i] > 0)
            .map(|i| {
                format!(
                    "backend.{}: {} calls, {:.3} ms",
                    METHOD_NAMES[i],
                    self.calls[i],
                    self.nanos[i] as f64 * 1e-6
                )
            })
            .collect()
    }

    fn secs(&self, ms: &[Method]) -> f64 {
        ms.iter().map(|&m| self.nanos[m as usize]).sum::<u64>() as f64 * 1e-9
    }

    /// Seconds spent advancing the simulator.
    pub fn run_secs(&self) -> f64 {
        self.secs(&[Method::Run, Method::RunToCompletion])
    }

    /// Seconds spent posting HIT groups.
    pub fn post_secs(&self) -> f64 {
        self.secs(&[
            Method::PostGroup,
            Method::PostGroupWithAssignments,
            Method::Post,
        ])
    }

    /// Seconds spent collecting assignments.
    pub fn assignments_secs(&self) -> f64 {
        self.secs(&[Method::Assignments])
    }

    /// Seconds spent in any method of the backend.
    pub fn total_secs(&self) -> f64 {
        self.nanos.iter().sum::<u64>() as f64 * 1e-9
    }

    /// Calls to any method of the backend.
    pub fn total_calls(&self) -> u64 {
        self.calls.iter().sum()
    }
}

/// The decorator. `times` may be cloned out before the backend is
/// handed to a session or service.
pub struct TimingBackend<B> {
    inner: B,
    pub times: Arc<MethodTimes>,
}

impl<B> TimingBackend<B> {
    pub fn new(inner: B) -> Self {
        TimingBackend {
            inner,
            times: Arc::new(MethodTimes::default()),
        }
    }
}

macro_rules! timed {
    ($self:ident, $m:expr, $call:expr) => {{
        let start = Instant::now();
        let out = $call;
        $self.times.add($m, start);
        out
    }};
}

impl<B: CrowdBackend> CrowdBackend for TimingBackend<B> {
    fn post_group(&mut self, specs: Vec<HitSpec>) -> HitGroupId {
        timed!(self, Method::PostGroup, self.inner.post_group(specs))
    }

    fn post_group_with_assignments(&mut self, specs: Vec<HitSpec>, assignments: u32) -> HitGroupId {
        timed!(
            self,
            Method::PostGroupWithAssignments,
            self.inner.post_group_with_assignments(specs, assignments)
        )
    }

    fn post(&mut self, specs: Vec<HitSpec>, assignments: Option<u32>) -> HitGroupId {
        timed!(self, Method::Post, self.inner.post(specs, assignments))
    }

    fn run(&mut self, limit_secs: f64) -> RunOutcome {
        timed!(self, Method::Run, self.inner.run(limit_secs))
    }

    fn run_to_completion(&mut self) -> RunOutcome {
        timed!(
            self,
            Method::RunToCompletion,
            self.inner.run_to_completion()
        )
    }

    fn assignments(&mut self, group: HitGroupId) -> Vec<Assignment> {
        timed!(self, Method::Assignments, self.inner.assignments(group))
    }

    fn group_hits(&self, group: HitGroupId) -> Vec<HitId> {
        timed!(self, Method::GroupHits, self.inner.group_hits(group))
    }

    fn group_latencies(&self, group: HitGroupId) -> Vec<f64> {
        timed!(
            self,
            Method::GroupLatencies,
            self.inner.group_latencies(group)
        )
    }

    fn group_outstanding(&self, group: HitGroupId) -> u32 {
        timed!(
            self,
            Method::GroupOutstanding,
            self.inner.group_outstanding(group)
        )
    }

    fn hit_question_count(&self, hit: HitId) -> usize {
        timed!(
            self,
            Method::HitQuestionCount,
            self.inner.hit_question_count(hit)
        )
    }

    fn ban_workers(&mut self, workers: Vec<WorkerId>) {
        timed!(self, Method::BanWorkers, self.inner.ban_workers(workers))
    }

    fn now(&self) -> SimTime {
        timed!(self, Method::Now, self.inner.now())
    }

    fn hits_posted(&self) -> usize {
        timed!(self, Method::HitsPosted, self.inner.hits_posted())
    }

    fn spend_dollars(&self) -> f64 {
        timed!(self, Method::SpendDollars, self.inner.spend_dollars())
    }

    fn assignments_completed(&self) -> u64 {
        timed!(
            self,
            Method::AssignmentsCompleted,
            self.inner.assignments_completed()
        )
    }

    fn default_assignments(&self) -> u32 {
        timed!(
            self,
            Method::DefaultAssignments,
            self.inner.default_assignments()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qurk_crowd::{CrowdConfig, GroundTruth, Marketplace};

    #[test]
    fn counts_calls_per_method() {
        let market = Marketplace::new(&CrowdConfig::default().with_seed(3), GroundTruth::new());
        let mut b = TimingBackend::new(market);
        let times = Arc::clone(&b.times);
        b.run(10.0);
        let _ = b.now();
        let _ = b.now();
        let d = times.snapshot();
        assert_eq!(d.calls[Method::Run as usize], 1);
        assert_eq!(d.calls[Method::Now as usize], 2);
        assert_eq!(d.total_calls(), 3);
        assert_eq!(METHOD_NAMES[Method::Now as usize], "now");
        assert_eq!(d.plus(&d).calls[Method::Now as usize], 4);
    }
}
