//! Layer timing from outside the kernel: wrappers around the public
//! traits the kernel already calls. They delegate every call
//! unchanged, so a wrapped run is bit-identical to an unwrapped one
//! (pinned by the tests in `tests/transparency.rs`).

use astro_fleet::{
    ArrivalCursor, CheckpointError, ClusterState, CursorState, Dispatcher, JobEstimates, JobSpec,
};
use astro_workloads::Workload;
use std::time::Instant;

/// Wall nanoseconds since `t0`.
pub fn ns_since(t0: Instant) -> u64 {
    t0.elapsed().as_nanos().try_into().unwrap_or(u64::MAX)
}

/// An [`ArrivalCursor`] that times every `next_job` pull.
pub struct TimedCursor<C> {
    inner: C,
    /// Wall nanoseconds of each pull, in call order.
    pub pull_ns: Vec<u64>,
}

impl<C> TimedCursor<C> {
    /// Wraps `inner`.
    pub fn new(inner: C) -> Self {
        TimedCursor {
            inner,
            pull_ns: Vec::new(),
        }
    }
}

impl<C: ArrivalCursor> ArrivalCursor for TimedCursor<C> {
    fn next_job(&mut self) -> Option<JobSpec> {
        let t0 = Instant::now();
        let job = self.inner.next_job();
        self.pull_ns.push(ns_since(t0));
        job
    }

    fn total(&self) -> usize {
        self.inner.total()
    }

    fn position(&self) -> usize {
        self.inner.position()
    }

    fn workloads(&self) -> Vec<Workload> {
        self.inner.workloads()
    }

    fn save(&self) -> CursorState {
        self.inner.save()
    }

    fn load(&mut self, s: &CursorState) -> Result<(), CheckpointError> {
        self.inner.load(s)
    }
}

/// A [`Dispatcher`] that times every `pick`.
pub struct TimedDispatcher<D> {
    inner: D,
    /// Wall nanoseconds of each pick, in call order.
    pub pick_ns: Vec<u64>,
}

impl<D> TimedDispatcher<D> {
    /// Wraps `inner`.
    pub fn new(inner: D) -> Self {
        TimedDispatcher {
            inner,
            pick_ns: Vec::new(),
        }
    }
}

impl<D: Dispatcher> Dispatcher for TimedDispatcher<D> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn pick(&mut self, state: &ClusterState, job: &JobSpec, est: &JobEstimates) -> usize {
        let t0 = Instant::now();
        let board = self.inner.pick(state, job, est);
        self.pick_ns.push(ns_since(t0));
        board
    }
}
