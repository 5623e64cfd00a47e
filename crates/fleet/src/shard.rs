//! The sharded execution plane of the fleet kernel.
//!
//! PR 4's kernel funnelled every board's events through one binary
//! heap: a single sequential loop whose wall-clock grows with board
//! count. This module partitions the cluster into `K` contiguous
//! *shards*, each owning a slice of the [`BoardState`] vector and its
//! own [`EventQueue`] of completion events. Between two control
//! events (arrival, monitor tick, churn) every completion is purely
//! board-local — a board finishing a job only pops its own queue and
//! starts its own next job — so the shards advance *independently* to
//! the next control timestamp, one after another on the control
//! thread, and their results are folded back in shard order at a
//! **barrier merge**. The advance window between two control events
//! holds about one completion at fleet scale, far too little to pay
//! for handing shards to other threads, so the advance is serial.
//!
//! Control decisions that target a board — an arrival dispatched to
//! it, a preemptive migration landing on it, churn redistribution off
//! a dead neighbour — are expressed as typed [`ShardMsg`] values and
//! delivered to the owning shard at the barrier, never by reaching
//! into a shard mid-advance.
//!
//! **Why any shard count produces byte-identical results.** The
//! engine preserves the sequential kernel's semantics exactly:
//!
//! 1. Completions are only reordered *across* boards, and completions
//!    on different boards commute — each touches its own board's
//!    state, and the shared aggregates (outcome list, event counters,
//!    open-job count) are order-insensitive (outcomes are sorted by
//!    stream id before metrics are computed).
//! 2. Cross-board *observed-service* feedback updates are
//!    order-sensitive (an EWMA is not commutative), so the advance
//!    phase records observations instead of applying them; the
//!    barrier merge sorts them by (completion time, job id) and folds
//!    them sequentially.
//! 3. Control events always run on the control plane, sequentially,
//!    in the same (time, seed-order) sequence for every `K`, against
//!    board state that all completions before the control timestamp
//!    have already been folded into.
//!
//! The only events `K > 1` may legally reorder relative to `K = 1`
//! are same-timestamp completions on different boards — and those
//! commute by (1). See DESIGN.md "Sharded kernel" for the full
//! argument.

use crate::job::{JobOutcome, Taxon};
use crate::kernel::{Event, EventKind, EventQueue};
use crate::state::{BoardState, InFlight, QueuedJob};
use astro_exec::executor::{ExecPolicy, ExecRequest, Executor};
use astro_exec::program::CompiledProgram;
use astro_hw::boards::BoardSpec;
use astro_ir::Module;
use std::collections::BTreeMap;

/// Key of a compiled static-binary variant: (workload, architecture,
/// policy version), the name strings reduced to their [`sk`] addresses.
/// A workload maps to exactly one taxon, and versions are per (taxon,
/// architecture), so the key never aliases schedules.
///
/// [`sk`]: crate::sim::sk
pub(crate) type WarmKey = (usize, usize, u32);

/// The compiled-program memo the shards execute from, keyed by
/// [`sk`](crate::sim::sk) name addresses (probed per job start — the
/// compiled values are pure functions of the named module and
/// schedule, and the maps are never iterated). Populated by the
/// control plane *at dispatch/migration time* (compilation is
/// deterministic and memoised, so moving it off the start path changes
/// no result); the advance phase only reads it, which is what lets
/// shards run on plain shared references.
#[derive(Default)]
pub(crate) struct ProgramSet {
    /// Stock binaries, per workload (run under GTS).
    pub cold: BTreeMap<usize, CompiledProgram>,
    /// Astro static binaries, per (workload, architecture, version).
    pub warm: BTreeMap<WarmKey, CompiledProgram>,
}

/// A typed action the control plane routes to the shard owning the
/// target board, applied at the barrier between advances.
#[derive(Debug)]
pub enum ShardMsg {
    /// Queue a dispatched/migrated/redistributed job on a board
    /// (starting it immediately when the board is idle).
    Enqueue {
        /// Global board index.
        board: usize,
        /// The job, with schedule and estimates already resolved.
        job: QueuedJob,
    },
}

/// One observed completion, recorded during a shard advance and folded
/// into the feedback layer at the barrier merge in (time, id) order.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Observation {
    /// Completion timestamp (the merge sort key).
    pub finish_s: f64,
    /// Job stream id (the merge tie-breaker).
    pub id: u32,
    /// The job's taxonomy.
    pub taxon: Taxon,
    /// Architecture key of the board it ran on.
    pub arch: &'static str,
    /// Uncorrected profiled service estimate it was admitted with.
    pub profiled_s: f64,
    /// Service time actually observed (excluding migration penalties).
    pub observed_s: f64,
}

/// What one shard produced during one advance: folded into the global
/// run state at the barrier, in shard order.
#[derive(Default)]
pub(crate) struct AdvanceDelta {
    /// Completion events processed.
    pub completions: u64,
    /// Outcomes revealed (per-shard completion order; globally sorted
    /// by id before metrics).
    pub outcomes: Vec<JobOutcome>,
    /// Feedback observations (empty unless the scenario enables the
    /// feedback layer).
    pub observations: Vec<Observation>,
}

impl AdvanceDelta {
    fn fold(&mut self, other: AdvanceDelta) {
        self.completions += other.completions;
        self.outcomes.extend(other.outcomes);
        self.observations.extend(other.observations);
    }
}

/// Everything a shard needs to advance: the execution backend, the
/// compiled programs, source modules and board specs. All read-only.
pub(crate) struct AdvanceCtx<'a> {
    /// The execution backend (answers are a pure function of the
    /// request).
    pub exec: &'a dyn Executor,
    /// Compiled binaries, populated at dispatch time.
    pub progs: &'a ProgramSet,
    /// Source modules per workload.
    pub modules: &'a BTreeMap<&'static str, Module>,
    /// Board specs, global index order.
    pub specs: &'a [BoardSpec],
    /// Record [`Observation`]s for the feedback layer?
    pub collect_observations: bool,
}

/// Shard bookkeeping: the board partition, one completion
/// [`EventQueue`] per shard, and advance/message accounting.
pub struct ShardSet {
    /// Boards per shard (the last shard may own fewer).
    chunk: usize,
    /// Per-shard completion queues, shard order.
    queues: Vec<EventQueue>,
    /// Exact earliest pending completion time across every shard
    /// (`f64::INFINITY` when nothing is pending). The barrier's fast
    /// path: an advance whose horizon is at or before this bound has
    /// nothing to do on any shard, so the per-shard scan — K heap
    /// peeks per control event, the steady-state hot path at a
    /// million arrivals — is skipped outright.
    earliest_s: f64,
    /// Barrier advances performed.
    pub advances: u64,
    /// [`ShardMsg`]s delivered to shards.
    pub messages: u64,
}

impl ShardSet {
    /// Partition `n_boards` into `shards` contiguous chunks.
    pub fn new(n_boards: usize, shards: usize) -> Self {
        let shards = shards.clamp(1, n_boards.max(1));
        let chunk = n_boards.div_ceil(shards).max(1);
        let n_shards = n_boards.div_ceil(chunk).max(1);
        ShardSet {
            chunk,
            queues: (0..n_shards).map(|_| EventQueue::new()).collect(),
            earliest_s: f64::INFINITY,
            advances: 0,
            messages: 0,
        }
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        self.queues.len()
    }

    /// Is the partition trivial (it never is — at least one shard)?
    pub fn is_empty(&self) -> bool {
        self.queues.is_empty()
    }

    /// Which shard owns global board `b`.
    pub fn shard_of(&self, b: usize) -> usize {
        b / self.chunk
    }

    /// Completion events pending across all shards.
    pub fn pending(&self) -> usize {
        self.queues.iter().map(|q| q.len()).sum()
    }

    /// Deliver a control-plane action to the shard owning its target
    /// board: queue the job, starting it immediately when the board is
    /// idle (pushing the completion into that shard's queue).
    pub(crate) fn deliver(
        &mut self,
        boards: &mut [BoardState],
        msg: ShardMsg,
        now_s: f64,
        ctx: &AdvanceCtx<'_>,
    ) {
        self.messages += 1;
        match msg {
            ShardMsg::Enqueue { board, job } => {
                let shard = self.shard_of(board);
                if boards[board].in_flight.is_none() {
                    start_on(
                        board,
                        &mut boards[board],
                        &mut self.queues[shard],
                        now_s,
                        job,
                        ctx,
                    );
                    // The push can only tighten the earliest bound.
                    if let Some(ev) = self.queues[shard].peek() {
                        self.earliest_s = self.earliest_s.min(ev.time_s);
                    }
                } else {
                    boards[board].enqueue(job);
                }
            }
        }
    }

    /// Rebuild the per-shard completion queues after a checkpoint
    /// restore: exactly one completion event per busy board, at the
    /// in-flight job's already-resolved true finish time. Board order
    /// fixes the push sequence, but any order would do — the only
    /// events that can share a timestamp live on *different* boards
    /// (one in-flight per board), and same-time cross-board
    /// completions commute (see the module docs). Must be called on a
    /// freshly-partitioned set whose queues are empty.
    pub(crate) fn restore_completions(&mut self, boards: &[BoardState]) {
        debug_assert_eq!(self.pending(), 0, "restore into a fresh shard set");
        for (b, bs) in boards.iter().enumerate() {
            if let Some(f) = &bs.in_flight {
                let shard = self.shard_of(b);
                self.queues[shard].push(
                    f.outcome.finish_s,
                    EventKind::Completion { board: b as u32 },
                );
            }
        }
        self.earliest_s = self
            .queues
            .iter()
            .filter_map(|q| q.peek().map(|e| e.time_s))
            .fold(f64::INFINITY, f64::min);
    }

    /// Restore the advance/message accounting carried across a
    /// checkpoint (the queues themselves are rebuilt by
    /// [`ShardSet::restore_completions`]).
    pub(crate) fn restore_counters(&mut self, advances: u64, messages: u64) {
        self.advances = advances;
        self.messages = messages;
    }

    /// Advance every shard's completion chain to `to_s` (exclusive) and
    /// fold the per-shard deltas in shard order.
    pub(crate) fn advance_all(
        &mut self,
        boards: &mut [BoardState],
        to_s: f64,
        ctx: &AdvanceCtx<'_>,
    ) -> AdvanceDelta {
        self.advances += 1;
        // Fast path: nothing pending strictly before the horizon on
        // any shard — the common case between back-to-back arrivals.
        if self.earliest_s >= to_s {
            return AdvanceDelta::default();
        }
        let chunk = self.chunk;
        let mut merged = AdvanceDelta::default();
        for (s, (slice, queue)) in boards
            .chunks_mut(chunk)
            .zip(self.queues.iter_mut())
            .enumerate()
        {
            merged.fold(advance_shard(s * chunk, slice, queue, to_s, ctx));
        }
        // Re-establish the exact bound after pops and chained starts.
        self.earliest_s = self
            .queues
            .iter()
            .filter_map(|q| q.peek().map(|e| e.time_s))
            .fold(f64::INFINITY, f64::min);
        merged
    }
}

/// Advance one shard: process its completion events strictly before
/// `to_s`, starting each board's next queued job as the previous one
/// finishes. Touches only this shard's board slice and queue.
fn advance_shard(
    base: usize,
    boards: &mut [BoardState],
    queue: &mut EventQueue,
    to_s: f64,
    ctx: &AdvanceCtx<'_>,
) -> AdvanceDelta {
    let mut delta = AdvanceDelta::default();
    while let Some(ev) = queue.pop_before(to_s) {
        let Event { time_s, kind, .. } = ev;
        let EventKind::Completion { board } = kind else {
            unreachable!("shard queues hold only completion events");
        };
        let b = board as usize;
        debug_assert!(
            b >= base && b - base < boards.len(),
            "completion crossed shards"
        );
        let bs = &mut boards[b - base];
        let fin = bs
            .in_flight
            .take()
            .expect("completion event for an idle board");
        bs.completed += 1;
        delta.completions += 1;
        if ctx.collect_observations {
            delta.observations.push(Observation {
                finish_s: time_s,
                id: fin.outcome.id,
                taxon: fin.taxon,
                arch: ctx.specs[b].name,
                profiled_s: fin.profiled_s,
                observed_s: fin.raw_service_s,
            });
        }
        delta.outcomes.push(fin.outcome);
        if let Some(next) = bs.pop_next() {
            start_on(b, bs, queue, time_s, next, ctx);
        }
    }
    delta
}

/// Begin service of `job` on idle board `b` *now*: one executor run
/// fixes the true finish time, the completion event is pushed onto the
/// owning shard's queue, and dispatchers see only the estimate until
/// then.
pub(crate) fn start_on(
    b: usize,
    bs: &mut BoardState,
    queue: &mut EventQueue,
    now_s: f64,
    job: QueuedJob,
    ctx: &AdvanceCtx<'_>,
) {
    debug_assert!(bs.in_flight.is_none());
    let spec = &ctx.specs[b];
    let w = &job.job.workload;
    let module = &ctx.modules[w.name];
    let full = spec.config_space().full();
    // Only the run's (wall, energy) totals matter here, so the scalar
    // executor path is used: on the replay backend it skips the whole
    // checkpoint-vector assembly per job.
    let (wall_time_s, energy_j) = match &job.schedule {
        None => {
            // Stock binary under GTS (cold mode, cache misses awaiting
            // the async training, guard bypasses).
            let prog = ctx
                .progs
                .cold
                .get(&crate::sim::sk(w.name))
                .expect("stock binary compiled at dispatch");
            ctx.exec.execute_scalar(&ExecRequest {
                workload: w.name,
                module,
                program: prog,
                board: spec,
                config: full,
                policy: ExecPolicy::Gts,
                seed: job.job.seed,
            })
        }
        Some((st, version)) => {
            let prog = ctx
                .progs
                .warm
                .get(&(
                    crate::sim::sk(w.name),
                    crate::sim::sk(job.sched_arch),
                    *version,
                ))
                .expect("static binary compiled at dispatch");
            ctx.exec.execute_scalar(&ExecRequest {
                workload: w.name,
                module,
                program: prog,
                board: spec,
                config: full,
                policy: ExecPolicy::StaticTable(st.as_table()),
                seed: job.job.seed,
            })
        }
    };
    // A chaos throttle stretches real execution (DVFS-style: the work
    // takes longer at the capped clock) but not the migration penalty,
    // which models data movement off-board. slowdown is 1.0 outside
    // throttle windows, and `x * 1.0` is bitwise identity, so the
    // no-chaos path is unchanged to the last bit.
    if bs.slowdown > 1.0 {
        bs.throttled_starts += 1;
    }
    let service = wall_time_s * bs.slowdown + job.penalty_s;
    let finish = now_s + service;
    bs.busy_s += service;
    bs.in_flight = Some(InFlight {
        id: job.job.id,
        taxon: job.job.taxon,
        start_s: now_s,
        est_finish_s: now_s + job.est_total_s(),
        profiled_s: job.profiled_s,
        raw_service_s: wall_time_s * bs.slowdown,
        outcome: JobOutcome {
            id: job.job.id,
            workload: w.name,
            class: job.job.class(),
            board: b,
            arrival_s: job.job.arrival_s,
            start_s: now_s,
            finish_s: finish,
            service_s: service,
            energy_j,
            slo_s: job.slo_s,
            migrations: job.migrations,
        },
    });
    queue.push(finish, EventKind::Completion { board: b as u32 });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_covers_all_boards_exactly_once() {
        for n in [1usize, 2, 5, 16, 500] {
            for k in [1usize, 2, 4, 7, 64] {
                let set = ShardSet::new(n, k);
                assert!(set.len() >= 1 && set.len() <= k.min(n));
                let mut per_shard = vec![0usize; set.len()];
                for b in 0..n {
                    let s = set.shard_of(b);
                    assert!(s < set.len(), "board {b} of {n} landed in shard {s}");
                    per_shard[s] += 1;
                }
                assert_eq!(per_shard.iter().sum::<usize>(), n);
                // Contiguous chunks: every shard but the last is full.
                for (s, &count) in per_shard.iter().enumerate() {
                    if s + 1 < set.len() {
                        assert_eq!(count, n.div_ceil(set.len().max(1)).max(1));
                    } else {
                        assert!(count >= 1);
                    }
                }
            }
        }
    }

    #[test]
    fn oversized_shard_counts_clamp_to_boards() {
        let set = ShardSet::new(3, 64);
        assert_eq!(set.len(), 3);
        assert_eq!(set.pending(), 0);
        assert!(!set.is_empty());
    }
}
