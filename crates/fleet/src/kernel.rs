//! The discrete-event fleet kernel: a virtual-clock event loop driving
//! online dispatch, preemptive redispatch and board churn, executed
//! over a sharded state plane.
//!
//! Earlier revisions planned every placement in one sequential batch
//! pass and only then executed boards; PR 4 replaced that with a
//! single event loop over a monotone virtual clock, and this revision
//! splits that loop into two planes so board count stops being a
//! sequential bottleneck:
//!
//! * **The control plane** (this module) owns every decision that
//!   reads global state: [`EventKind::Arrival`] (dispatcher invoked
//!   *now* against the live [`ClusterState`]),
//!   [`EventKind::MonitorTick`] (preemptive redispatch of predicted
//!   SLO-missers), and [`EventKind::BoardDown`] /
//!   [`EventKind::BoardUp`] churn. It runs sequentially, in one
//!   deterministic (time, seed-order) sequence, because online
//!   dispatch observes every board at once.
//! * **The execution plane** ([`crate::shard`]) owns everything that
//!   is board-local: [`EventKind::Completion`] chains — a board
//!   finishing a job and starting its next — partitioned into
//!   [`crate::shard::ShardSet`] shards that advance independently
//!   between control timestamps and fold back at a barrier merge.
//!   Placements are routed to shards as typed
//!   [`crate::shard::ShardMsg`] values.
//!
//! Everything stays seed-deterministic *and shard-count-invariant*:
//! events at equal timestamps keep the sequential kernel's order
//! except same-time completions on different boards, which commute;
//! every service time is a pure function of the request; and
//! order-sensitive feedback observations are merged in (time, id)
//! order at the barrier. `shards = 1` *is* the PR 4 kernel,
//! byte-for-byte. [`DispatchMode::Oracle`] reproduces the original
//! batch planner's placements through this same loop, so historical
//! comparisons stay meaningful; [`DispatchMode::Online`] is the
//! live-feedback upgrade, and [`Scenario::with_feedback`] closes the
//! loop further by correcting profiled estimates with observed
//! service times.

use crate::arrival::{ArrivalCursor, SliceCursor};
use crate::cache::{CacheDecision, PolicyCache};
use crate::chaos::{ChaosSchedule, ChaosStats, CompiledChaos};
use crate::checkpoint::{self, CheckpointError, CursorState, Dec, Enc};
use crate::dispatch::{Dispatcher, JobEstimates};
use crate::feedback::ServiceFeedback;
use crate::job::{JobOutcome, JobSpec};
use crate::metrics::{FleetMetrics, FleetOutcome, StreamAgg};
use crate::shard::{AdvanceCtx, AdvanceDelta, ProgramSet, ShardMsg, ShardSet};
use crate::sim::{FleetSim, PolicyMode, ProfileTable};
use crate::state::{BoardState, ClusterState, DispatchMode, DropReason, DroppedJob, QueuedJob};
use crate::telemetry::{CompletionRecord, FlightRecorder, WindowSample};
use astro_core::pipeline::build_static;
use astro_core::replay::ReplaySession;
use astro_exec::executor::{Executor, MachineExecutor};
use astro_exec::program::compile;
use astro_ir::Module;
use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap};

/// What happens at an event's timestamp.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// Job `jobs[i]` enters the system.
    Arrival(u32),
    /// The board's in-flight job finishes.
    Completion {
        /// Board index.
        board: u32,
    },
    /// Periodic observation point (preemption scans run here).
    MonitorTick,
    /// Board churn: the board stops accepting work and its queue is
    /// redistributed (the in-flight job drains).
    BoardDown(u32),
    /// Board churn: the board is available again.
    BoardUp(u32),
    /// Chaos: a thermal-throttle window opens on the board. The clause
    /// index resolves the factor in the compiled schedule (kept out of
    /// the event so [`EventKind`] stays `Copy + Eq`).
    ThrottleStart {
        /// Board index.
        board: u32,
        /// Index into the scenario's chaos clauses.
        clause: u32,
    },
    /// Chaos: the matching throttle window closes.
    ThrottleEnd {
        /// Board index.
        board: u32,
        /// Index into the scenario's chaos clauses.
        clause: u32,
    },
    /// Chaos: a dispatch-blackout window opens on the board (it keeps
    /// executing but accepts no new placements).
    BlackoutStart {
        /// Board index.
        board: u32,
        /// Index into the scenario's chaos clauses.
        clause: u32,
    },
    /// Chaos: the matching blackout window closes.
    BlackoutEnd {
        /// Board index.
        board: u32,
        /// Index into the scenario's chaos clauses.
        clause: u32,
    },
}

impl EventKind {
    /// Is this a fleet *state change* (churn or chaos window edge)?
    /// State changes beat arrivals at equal timestamps — the pinned
    /// control tie order churn < chaos < arrival < monitor tick.
    fn is_state_change(self) -> bool {
        matches!(
            self,
            EventKind::BoardDown(_)
                | EventKind::BoardUp(_)
                | EventKind::ThrottleStart { .. }
                | EventKind::ThrottleEnd { .. }
                | EventKind::BlackoutStart { .. }
                | EventKind::BlackoutEnd { .. }
        )
    }
}

/// One scheduled event.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// Virtual timestamp, seconds.
    pub time_s: f64,
    /// Push order — the deterministic tie-breaker at equal timestamps.
    pub seq: u64,
    /// What to do.
    pub kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time_s.total_cmp(&other.time_s) == Ordering::Equal && self.seq == other.seq
    }
}

impl Eq for Event {}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Event {
    /// Min-first: earliest timestamp, then earliest push.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time_s
            .total_cmp(&self.time_s)
            .then(other.seq.cmp(&self.seq))
    }
}

/// A pending-event queue: a binary heap popping the earliest timestamp
/// first, ties broken by push order so processing is deterministic
/// whatever the float values. The control plane keeps one for churn
/// and monitor ticks; every shard keeps one for its boards'
/// completions.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Event>,
    next_seq: u64,
    /// Events ever pushed.
    pub pushed: u64,
    /// Events ever popped.
    pub popped: u64,
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// Schedule `kind` at `time_s`.
    pub fn push(&mut self, time_s: f64, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pushed += 1;
        self.heap.push(Event { time_s, seq, kind });
    }

    /// Earliest event, earliest push first at equal times.
    pub fn pop(&mut self) -> Option<Event> {
        let ev = self.heap.pop();
        if ev.is_some() {
            self.popped += 1;
        }
        ev
    }

    /// The earliest pending event, without popping it.
    pub fn peek(&self) -> Option<&Event> {
        self.heap.peek()
    }

    /// Pop the earliest event only if it is strictly before `to_s`.
    pub fn pop_before(&mut self, to_s: f64) -> Option<Event> {
        match self.heap.peek() {
            Some(ev) if ev.time_s < to_s => self.pop(),
            _ => None,
        }
    }

    /// Pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Is anything pending?
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl EventQueue {
    /// Serialises the queue for a checkpoint: `next_seq` (so pushes
    /// after a restore keep globally unique tie-breakers), the lifetime
    /// counters, and every pending event ordered by (time, seq) — the
    /// deterministic pop order itself, so the encoding is canonical
    /// whatever heap shape produced it.
    pub(crate) fn encode(&self, enc: &mut Enc) {
        enc.u64(self.next_seq);
        enc.u64(self.pushed);
        enc.u64(self.popped);
        let mut entries: Vec<Event> = self.heap.iter().copied().collect();
        entries.sort_by(|a, b| a.time_s.total_cmp(&b.time_s).then(a.seq.cmp(&b.seq)));
        enc.usize(entries.len());
        for ev in &entries {
            enc.f64(ev.time_s);
            enc.u64(ev.seq);
            match ev.kind {
                EventKind::MonitorTick => enc.u8(0),
                EventKind::BoardDown(b) => {
                    enc.u8(1);
                    enc.u32(b);
                }
                EventKind::BoardUp(b) => {
                    enc.u8(2);
                    enc.u32(b);
                }
                EventKind::ThrottleStart { board, clause } => {
                    enc.u8(3);
                    enc.u32(board);
                    enc.u32(clause);
                }
                EventKind::ThrottleEnd { board, clause } => {
                    enc.u8(4);
                    enc.u32(board);
                    enc.u32(clause);
                }
                EventKind::BlackoutStart { board, clause } => {
                    enc.u8(5);
                    enc.u32(board);
                    enc.u32(clause);
                }
                EventKind::BlackoutEnd { board, clause } => {
                    enc.u8(6);
                    enc.u32(board);
                    enc.u32(clause);
                }
                EventKind::Arrival(_) | EventKind::Completion { .. } => {
                    unreachable!("control queue never holds arrival/completion events")
                }
            }
        }
    }

    /// Rebuilds a control queue from [`EventQueue::encode`]d bytes.
    /// Every event is validated — finite non-negative timestamp, seq
    /// below `next_seq`, board and clause indices in range, and only
    /// control-plane kinds (arrivals stream through the cursor and
    /// completions live in shard queues, never here).
    pub(crate) fn decode(
        dec: &mut Dec<'_>,
        n_boards: usize,
        n_clauses: usize,
    ) -> Result<EventQueue, CheckpointError> {
        let next_seq = dec.u64()?;
        let pushed = dec.u64()?;
        let popped = dec.u64()?;
        let n = dec.count(17)?;
        let mut q = EventQueue {
            heap: BinaryHeap::with_capacity(n),
            next_seq,
            pushed,
            popped,
        };
        for _ in 0..n {
            let time_s = dec.f64()?;
            if !time_s.is_finite() || time_s < 0.0 {
                return Err(CheckpointError::Corrupt(
                    "event timestamp is not finite and non-negative",
                ));
            }
            let seq = dec.u64()?;
            if seq >= next_seq {
                return Err(CheckpointError::Corrupt(
                    "event seq at or past the queue's next_seq",
                ));
            }
            let tag = dec.u8()?;
            let kind = match tag {
                0 => EventKind::MonitorTick,
                1 | 2 => {
                    let b = dec.u32()?;
                    if b as usize >= n_boards {
                        return Err(CheckpointError::Corrupt(
                            "churn event board index out of range",
                        ));
                    }
                    if tag == 1 {
                        EventKind::BoardDown(b)
                    } else {
                        EventKind::BoardUp(b)
                    }
                }
                3..=6 => {
                    let board = dec.u32()?;
                    let clause = dec.u32()?;
                    if board as usize >= n_boards {
                        return Err(CheckpointError::Corrupt(
                            "chaos event board index out of range",
                        ));
                    }
                    if clause as usize >= n_clauses {
                        return Err(CheckpointError::Corrupt(
                            "chaos event clause index out of range",
                        ));
                    }
                    match tag {
                        3 => EventKind::ThrottleStart { board, clause },
                        4 => EventKind::ThrottleEnd { board, clause },
                        5 => EventKind::BlackoutStart { board, clause },
                        _ => EventKind::BlackoutEnd { board, clause },
                    }
                }
                _ => return Err(CheckpointError::Corrupt("control event tag out of range")),
            };
            q.heap.push(Event { time_s, seq, kind });
        }
        Ok(q)
    }
}

/// One board leaving or (re)joining the fleet mid-run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChurnEvent {
    /// When, seconds.
    pub time_s: f64,
    /// Which board.
    pub board: usize,
    /// `true` = joins, `false` = leaves.
    pub up: bool,
}

/// What one kernel run does beyond dispatching: mode, churn schedule,
/// preemptive redispatch, observed-service feedback.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Cold stock binaries vs warm cached Astro policies.
    pub policy: PolicyMode,
    /// Which backlog estimate dispatchers observe.
    pub dispatch: DispatchMode,
    /// Board up/down schedule (empty = stable fleet).
    pub churn: Vec<ChurnEvent>,
    /// Migrate queued jobs predicted to miss their SLO at monitor ticks.
    /// Requires [`DispatchMode::Online`] and a positive tick interval.
    pub preemption: bool,
    /// Monitor tick period, seconds (`0` = no ticks).
    pub monitor_interval_s: f64,
    /// Service-time penalty each migration/redistribution pays (state
    /// transfer), seconds.
    pub migration_cost_s: f64,
    /// Total migrations allowed per job before the preemption scan
    /// stops considering it. The counter it gates
    /// ([`QueuedJob::migrations`](crate::state::QueuedJob)) includes
    /// churn redistributions as well as preemptive moves — the PR 4
    /// semantics, preserved bit-for-bit.
    pub max_migrations: u32,
    /// Churn redistributions allowed per job before it is dropped with
    /// [`DropReason::MigrationCap`]. Counted by its own
    /// [`QueuedJob::redispatches`](crate::state::QueuedJob) counter,
    /// so preemptive migrations never consume this cap. The default
    /// (`u32::MAX`) reproduces the uncapped PR 4 behaviour: a down
    /// board's queue must go somewhere.
    pub max_redispatches: u32,
    /// Feed observed service times from completions back into
    /// dispatch-time estimates through the per-(taxon, architecture)
    /// EWMA layer ([`ServiceFeedback`]).
    pub feedback: bool,
    /// Adversarial chaos clauses compiled into the control-plane event
    /// stream (empty = no chaos; the no-chaos paths are bit-for-bit
    /// the PR 5 kernel — the golden tests pin this).
    pub chaos: ChaosSchedule,
}

impl Scenario {
    /// Batch-equivalent semantics: oracle estimates, stable fleet, no
    /// preemption — the configuration that reproduces the three-stage
    /// planner's placements through the event kernel.
    pub fn oracle(policy: PolicyMode) -> Self {
        Scenario {
            policy,
            dispatch: DispatchMode::Oracle,
            churn: Vec::new(),
            preemption: false,
            monitor_interval_s: 0.0,
            migration_cost_s: 0.0,
            max_migrations: 2,
            max_redispatches: u32::MAX,
            feedback: false,
            chaos: ChaosSchedule::default(),
        }
    }

    /// Live dispatch against observable cluster state.
    pub fn online(policy: PolicyMode) -> Self {
        Scenario {
            dispatch: DispatchMode::Online,
            ..Scenario::oracle(policy)
        }
    }

    /// Add a board churn schedule.
    pub fn with_churn(mut self, churn: Vec<ChurnEvent>) -> Self {
        self.churn = churn;
        self
    }

    /// Enable deadline-driven preemptive redispatch: scan every
    /// `interval_s`, migrate at cost `cost_s`, at most `max_migrations`
    /// times per job.
    pub fn with_preemption(mut self, interval_s: f64, cost_s: f64, max_migrations: u32) -> Self {
        assert!(
            interval_s > 0.0,
            "preemption needs a positive tick interval"
        );
        self.preemption = true;
        self.monitor_interval_s = interval_s;
        self.migration_cost_s = cost_s;
        self.max_migrations = max_migrations;
        self
    }

    /// Set the migration cost without enabling preemption (churn
    /// redistribution pays it too).
    pub fn with_migration_cost(mut self, cost_s: f64) -> Self {
        self.migration_cost_s = cost_s;
        self
    }

    /// Cap churn redistributions per job: a job orphaned by board
    /// churn more than `cap` times is dropped with
    /// [`DropReason::MigrationCap`] instead of bouncing forever.
    pub fn with_redispatch_cap(mut self, cap: u32) -> Self {
        self.max_redispatches = cap;
        self
    }

    /// Attach a chaos schedule: its clauses are validated against the
    /// churn schedule at run start and compiled into the control-plane
    /// event stream (see [`crate::chaos`]). Traffic clauses are *not*
    /// applied here — shape the job stream with
    /// [`ArrivalProcess::generate_shaped`](crate::arrival::ArrivalProcess::generate_shaped).
    pub fn with_chaos(mut self, chaos: ChaosSchedule) -> Self {
        self.chaos = chaos;
        self
    }

    /// Enable the observed-service feedback layer: completions teach a
    /// per-(taxon, architecture) EWMA correction that dispatch-time
    /// estimates — and therefore the phase-aware and energy-aware
    /// dispatchers, backlog predictions and preemption scans — consult
    /// on every subsequent decision.
    pub fn with_feedback(mut self) -> Self {
        self.feedback = true;
        self
    }

    /// `policy/dispatch` label for reports (`+fb` when the feedback
    /// layer is on).
    pub fn label(&self) -> String {
        format!(
            "{}/{}{}",
            self.policy.name(),
            self.dispatch.name(),
            if self.feedback { "+fb" } else { "" }
        )
    }
}

/// Event accounting for one kernel run. Invariant at exit:
/// `arrivals == completions + dropped` and
/// `dropped == dropped_no_board + dropped_migration_cap`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Events processed.
    pub events: u64,
    /// Arrival events.
    pub arrivals: u64,
    /// Completion events.
    pub completions: u64,
    /// Jobs dropped (all reasons).
    pub dropped: u64,
    /// Jobs dropped because no board was up to take them.
    pub dropped_no_board: u64,
    /// Jobs dropped because churn redistributed them past
    /// [`Scenario::max_redispatches`].
    pub dropped_migration_cap: u64,
    /// Preemptive (SLO-driven) migrations.
    pub migrations: u64,
    /// Churn-driven queue redistributions.
    pub redistributions: u64,
    /// Monitor ticks processed.
    pub ticks: u64,
    /// Boards taken down (scenario churn and chaos rack outages both
    /// land here — outages *are* churn events).
    pub board_downs: u64,
    /// Boards brought (back) up.
    pub board_ups: u64,
    /// Chaos throttle/blackout window-edge events processed (rack
    /// outages count as board downs/ups instead).
    pub chaos_events: u64,
    /// Shards the execution plane was partitioned into.
    pub shards: u32,
    /// Typed messages delivered to shards (placements, migrations,
    /// redistributions).
    pub messages: u64,
    /// Barrier advances of the execution plane.
    pub advances: u64,
    /// Always 0. Barrier advances are serial; the field is kept so
    /// existing readers of the counter still compile, and is slated for
    /// removal.
    pub par_advances: u64,
}

/// Board-architecture lookup tables, computed once per run.
struct ArchMap {
    /// Distinct architecture keys, first-appearance order.
    keys: Vec<&'static str>,
    /// Architecture index of every board.
    of_board: Vec<u32>,
    /// A representative board index per architecture.
    representative: Vec<usize>,
}

impl ArchMap {
    fn new(cluster: &crate::cluster::ClusterSpec) -> Self {
        let (keys, of_board) = cluster.arch_classes();
        let representative = keys
            .iter()
            .map(|k| cluster.representative_board_idx(k))
            .collect();
        ArchMap {
            keys,
            of_board,
            representative,
        }
    }

    fn len(&self) -> usize {
        self.keys.len()
    }

    /// Architecture index of board `b`.
    fn of(&self, b: usize) -> usize {
        self.of_board[b] as usize
    }
}

/// Per-run scratch for estimate construction, refilled in place per
/// arrival so estimating allocates nothing however many jobs stream
/// through. Both tables hold one slot per architecture, so an arrival
/// writes O(architectures) values however many boards there are.
struct EstScratch {
    /// Per-architecture estimates handed to dispatchers
    /// (feedback-corrected).
    est: JobEstimates,
    /// Uncorrected per-architecture profiled walls — what policy
    /// resolution and the admission guard reason about.
    base_s: Vec<f64>,
}

impl EstScratch {
    fn new(cluster: &crate::cluster::ClusterSpec) -> Self {
        let est = JobEstimates::per_arch(cluster);
        EstScratch {
            base_s: vec![0.0; est.n_classes()],
            est,
        }
    }
}

impl<'a> FleetSim<'a> {
    /// The batch event loop: a [`ResidentKernel`] driven off a
    /// [`SliceCursor`] over the materialised job stream with outcome
    /// retention on — byte-for-byte the semantics every earlier PR
    /// pinned. Public API is [`FleetSim::run`] /
    /// [`FleetSim::run_traced`]; the streaming entry point is
    /// [`FleetSim::resident`]. `telemetry` is the flight recorder:
    /// every hook reads kernel state and writes only recorder state, so
    /// the returned outcome is byte-identical whatever the trace level
    /// (including [`crate::telemetry::TraceLevel::Off`], where each
    /// hook is one predicted-false branch).
    pub(crate) fn run_kernel(
        &self,
        jobs: &[JobSpec],
        dispatcher: &mut dyn Dispatcher,
        cache: &mut PolicyCache,
        scenario: &Scenario,
        telemetry: &mut FlightRecorder,
    ) -> FleetOutcome {
        let mut cursor = SliceCursor::new(jobs);
        let mut kernel = ResidentKernel::new(
            self,
            &mut cursor,
            dispatcher,
            cache,
            scenario,
            telemetry,
            true,
        );
        kernel.run();
        kernel.finish()
    }

    /// A resident (streaming) kernel over this simulator: jobs are
    /// pulled lazily from `cursor` instead of a materialised slice,
    /// and with `retain = false` completed outcomes are folded into
    /// streaming aggregates at the barrier merge and discarded —
    /// O(boards) memory however many jobs flow through. The caller
    /// owns the loop: [`ResidentKernel::step`] advances one control
    /// event at a time (so a service can checkpoint between events),
    /// [`ResidentKernel::run`] drives it to completion and
    /// [`ResidentKernel::finish`] assembles the [`FleetOutcome`]. With
    /// `retain = true` and a [`SliceCursor`] this is exactly
    /// [`FleetSim::run`], byte-for-byte.
    pub fn resident<'r>(
        &'r self,
        cursor: &'r mut dyn ArrivalCursor,
        dispatcher: &'r mut dyn Dispatcher,
        cache: &'r mut PolicyCache,
        scenario: &'r Scenario,
        telemetry: &'r mut FlightRecorder,
        retain: bool,
    ) -> ResidentKernel<'a, 'r> {
        ResidentKernel::new(self, cursor, dispatcher, cache, scenario, telemetry, retain)
    }
}

/// The fleet kernel as a long-lived value instead of one closed loop:
/// the same control plane, execution plane and determinism contract as
/// the batch path (which is now a thin wrapper over this), but
/// arrivals stream in through an [`ArrivalCursor`], each
/// [`ResidentKernel::step`] processes exactly one control event, and
/// the caller decides when to pause, checkpoint or finish. With
/// retention off, completed outcomes are folded into streaming
/// quantile digests and counters at the barrier merge and discarded,
/// so a run's footprint is O(boards + architectures), independent of
/// how many jobs flow through.
pub struct ResidentKernel<'a, 'r> {
    sim: &'r FleetSim<'a>,
    cursor: &'r mut dyn ArrivalCursor,
    dispatcher: &'r mut dyn Dispatcher,
    cache: &'r mut PolicyCache,
    scenario: &'r Scenario,
    telemetry: &'r mut FlightRecorder,
    chaos: CompiledChaos,
    chaos_stats: ChaosStats,
    modules: BTreeMap<&'static str, Module>,
    machine_exec: MachineExecutor,
    session: Option<ReplaySession<'r>>,
    progs: ProgramSet,
    arches: ArchMap,
    profiles: ProfileTable,
    state: ClusterState<'a>,
    shards: ShardSet,
    stats: KernelStats,
    feedback: Option<ServiceFeedback>,
    train_time_s: f64,
    train_energy_j: f64,
    guard_bypasses: u64,
    outcomes: Vec<JobOutcome>,
    dropped: Vec<DroppedJob>,
    scratch: EstScratch,
    ctrl: EventQueue,
    open: usize,
    pending: Option<JobSpec>,
    retain: bool,
    stream: Option<StreamAgg>,
    wall_run: Option<std::time::Instant>,
    finished: bool,
}

/// What one [`ResidentKernel::step`] decided to do: pop a queued
/// control event, or admit the job the cursor has buffered.
enum ControlAction {
    Ctl(EventKind),
    Arrive(JobSpec),
}

impl<'a, 'r> ResidentKernel<'a, 'r> {
    /// Validates the scenario against `sim`'s cluster, compiles the
    /// chaos schedule, builds every per-run table and seeds the
    /// control queue — everything the old batch loop did before its
    /// first event. Executes nothing: drive with
    /// [`ResidentKernel::step`] or [`ResidentKernel::run`].
    pub(crate) fn new(
        sim: &'r FleetSim<'a>,
        cursor: &'r mut dyn ArrivalCursor,
        dispatcher: &'r mut dyn Dispatcher,
        cache: &'r mut PolicyCache,
        scenario: &'r Scenario,
        telemetry: &'r mut FlightRecorder,
        retain: bool,
    ) -> Self {
        let n_boards = sim.cluster.len();
        assert!(
            !scenario.preemption
                || (scenario.dispatch == DispatchMode::Online && scenario.monitor_interval_s > 0.0),
            "preemption requires online dispatch and a positive monitor interval"
        );
        for ev in &scenario.churn {
            assert!(
                ev.board < n_boards,
                "churn event names board {} of {n_boards}",
                ev.board
            );
            assert!(ev.time_s >= 0.0, "churn events cannot predate the run");
        }

        // Compile the chaos schedule (validating clause shapes), then
        // reject inconsistent liveness sequences outright: replaying
        // the merged churn + rack-outage events in their exact pop
        // order (time, then push order — churn before chaos), a
        // BoardUp for a board that is already up, or a BoardDown for
        // one already down, is a schedule bug, not a scenario. It used
        // to be silently absorbed (`up = true` is idempotent), which
        // let e.g. a mistyped board index skew every later decision
        // without a trace.
        let chaos = scenario.chaos.compile(n_boards);
        let chaos_stats = chaos.stats.clone();
        {
            let mut seq: Vec<(f64, bool, usize)> = scenario
                .churn
                .iter()
                .map(|ev| (ev.time_s, ev.up, ev.board))
                .collect();
            for (t, kind) in &chaos.events {
                match kind {
                    EventKind::BoardDown(b) => seq.push((*t, false, *b as usize)),
                    EventKind::BoardUp(b) => seq.push((*t, true, *b as usize)),
                    _ => {}
                }
            }
            // Stable sort: equal timestamps keep push order, exactly
            // as the control queue will pop them.
            seq.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut up = vec![true; n_boards];
            for (t, to_up, b) in seq {
                if to_up {
                    assert!(
                        !up[b],
                        "inconsistent churn/chaos schedule: board {b} is brought up at {t} s \
                         without a preceding BoardDown"
                    );
                } else {
                    assert!(
                        up[b],
                        "inconsistent churn/chaos schedule: board {b} is taken down at {t} s \
                         while already down"
                    );
                }
                up[b] = to_up;
            }
        }

        // Source modules, one per distinct workload the cursor can
        // yield (for generators, the whole pool).
        let mut modules: BTreeMap<&'static str, Module> = BTreeMap::new();
        for w in cursor.workloads() {
            modules
                .entry(w.name)
                .or_insert_with(|| (w.build)(sim.params.size));
        }

        // Calibration-then-replay: record every (workload, architecture)
        // trace set up front, in deterministic order (earlier runs of
        // this simulator are cache hits).
        if let Some(replay) = &sim.replay_exec {
            for key in sim.cluster.arch_keys() {
                let board = sim.cluster.representative_board(key);
                for (name, module) in &modules {
                    replay.calibrate(name, module, board);
                }
            }
        }

        // The execution backend every profile and job run goes through.
        // On the replay backend this is a calibration-cache *session*
        // snapshotted after the pre-pass above: one rwlock acquisition
        // for the whole run, answered lock-free per job thereafter.
        let machine_exec = MachineExecutor {
            params: sim.params.machine,
        };
        let session = sim.replay_exec.as_ref().map(|r| r.session());

        // Stock binaries compiled up front; static builds are compiled
        // by the control plane at dispatch/migration time. Either way
        // the shards only ever read the memo.
        let mut progs = ProgramSet::default();
        for (name, module) in &modules {
            progs.cold.insert(
                crate::sim::sk(name),
                compile(module).expect("workload compiles"),
            );
        }

        let arches = ArchMap::new(sim.cluster);
        let profiles = ProfileTable::new();
        let mut state = ClusterState::new(sim.cluster, scenario.dispatch);
        // Indexed argmin dispatch: the kernel maintains the index at
        // every board mutation below, so picks stop scanning O(boards).
        state.rebuild_dispatch_index();
        let shards = ShardSet::new(n_boards, sim.params.shards);
        let stats = KernelStats {
            shards: shards.len() as u32,
            ..KernelStats::default()
        };
        let feedback = scenario.feedback.then(ServiceFeedback::default);
        let outcomes: Vec<JobOutcome> = Vec::with_capacity(if retain { cursor.total() } else { 0 });
        // Per-arrival scratch, refilled in place (no per-event allocs).
        let scratch = EstScratch::new(sim.cluster);

        // The control queue: churn first (so a down-at-t beats an
        // arrival at the same t), then the compiled chaos events in
        // clause order, then the first monitor tick. Arrivals are
        // consumed from the (sorted) stream through a cursor, which
        // preserves the same tie order the sequential kernel's seeding
        // produced — pinned: churn < chaos < arrival < tick at equal
        // timestamps (within churn and within chaos, push order).
        let mut ctrl = EventQueue::new();
        for ev in &scenario.churn {
            ctrl.push(
                ev.time_s,
                if ev.up {
                    EventKind::BoardUp(ev.board as u32)
                } else {
                    EventKind::BoardDown(ev.board as u32)
                },
            );
        }
        for &(t, kind) in &chaos.events {
            ctrl.push(t, kind);
        }
        if scenario.monitor_interval_s > 0.0 {
            ctrl.push(scenario.monitor_interval_s, EventKind::MonitorTick);
        }
        // Jobs not yet completed or dropped. The cursor knows its
        // stream length up front even though specs materialise lazily.
        let open = cursor.total();

        // Wall-clock phase profiling (machine time, recorder-gated —
        // the off path never reads the OS clock).
        let wall_run = telemetry.stopwatch();

        ResidentKernel {
            sim,
            cursor,
            dispatcher,
            cache,
            scenario,
            telemetry,
            chaos,
            chaos_stats,
            modules,
            machine_exec,
            session,
            progs,
            arches,
            profiles,
            state,
            shards,
            stats,
            feedback,
            train_time_s: 0.0,
            train_energy_j: 0.0,
            guard_bypasses: 0,
            outcomes,
            dropped: Vec::new(),
            scratch,
            ctrl,
            open,
            pending: None,
            retain,
            stream: (!retain).then(StreamAgg::new),
            wall_run,
            finished: false,
        }
    }

    /// Advances the kernel by exactly one control event — an arrival,
    /// a churn/chaos edge or a monitor tick, each preceded by its
    /// barrier merge — or, when no control remains, by the final drain
    /// of every shard's completion chain. Returns `false` once the run
    /// is complete (after which [`ResidentKernel::finish`] assembles
    /// the outcome).
    pub fn step(&mut self) -> bool {
        if self.finished {
            return false;
        }
        let ResidentKernel {
            sim,
            cursor,
            dispatcher,
            cache,
            scenario,
            telemetry,
            chaos,
            chaos_stats,
            modules,
            machine_exec,
            session,
            progs,
            arches,
            profiles,
            state,
            shards,
            stats,
            feedback,
            train_time_s,
            train_energy_j,
            guard_bypasses,
            outcomes,
            dropped,
            scratch,
            ctrl,
            open,
            pending,
            retain,
            stream,
            finished,
            ..
        } = self;
        let n_boards = sim.cluster.len();
        // On the replay backend every profile and job run goes through
        // the calibration-cache session snapshotted in `new` — one
        // rwlock acquisition for the whole run, lock-free per job.
        let exec: &dyn Executor = match session.as_ref() {
            Some(s) => s,
            None => &*machine_exec,
        };

        // The next control event: the earlier of the arrival cursor
        // and the control queue, ties resolved churn < arrival < tick
        // (the order the sequential kernel's seeding produced). The
        // cursor is consuming, so the peeked job waits in a one-slot
        // buffer until the seam decides to admit it.
        if pending.is_none() {
            *pending = cursor.next_job();
        }
        let arrival_t = pending.as_ref().map(|j| j.arrival_s);
        let queued = ctrl.peek().copied();
        let take_ctrl = match (arrival_t, &queued) {
            (None, None) => false,
            (None, Some(_)) => true,
            (Some(_), None) => false,
            (Some(ta), Some(e)) => e.time_s < ta || (e.time_s == ta && e.kind.is_state_change()),
        };
        let ctl = if take_ctrl {
            ctrl.pop().map(|e| (e.time_s, ControlAction::Ctl(e.kind)))
        } else if let Some(job) = pending.take() {
            Some((job.arrival_s, ControlAction::Arrive(job)))
        } else {
            None
        };

        let Some((time_s, act)) = ctl else {
            // No control left: drain every shard's completion chain.
            let from_s = state.now_s;
            let wall = telemetry.stopwatch();
            let delta = shards.advance_all(
                &mut state.boards,
                f64::INFINITY,
                &AdvanceCtx {
                    exec,
                    progs: &*progs,
                    modules: &*modules,
                    specs: &sim.cluster.boards,
                    collect_observations: feedback.is_some(),
                },
            );
            telemetry.lap_advance(wall);
            let wall = telemetry.stopwatch();
            fold_delta(
                delta,
                &mut *state,
                &mut *stats,
                &mut *open,
                &mut *outcomes,
                &mut *feedback,
                &mut **telemetry,
                from_s,
                f64::INFINITY,
                *retain,
                &mut *stream,
            );
            telemetry.lap_merge(wall);
            *finished = true;
            return false;
        };

        // Barrier: every completion strictly before this control
        // event is folded in before the decision reads any state.
        let from_s = state.now_s;
        let wall = telemetry.stopwatch();
        let delta = shards.advance_all(
            &mut state.boards,
            time_s,
            &AdvanceCtx {
                exec,
                progs: &*progs,
                modules: &*modules,
                specs: &sim.cluster.boards,
                collect_observations: feedback.is_some(),
            },
        );
        telemetry.lap_advance(wall);
        let wall = telemetry.stopwatch();
        fold_delta(
            delta,
            &mut *state,
            &mut *stats,
            &mut *open,
            &mut *outcomes,
            &mut *feedback,
            &mut **telemetry,
            from_s,
            time_s,
            *retain,
            &mut *stream,
        );
        telemetry.lap_merge(wall);
        assert!(
            time_s >= state.now_s - 1e-9,
            "virtual clock ran backwards: {} -> {}",
            state.now_s,
            time_s
        );
        state.advance_now(time_s);
        stats.events += 1;

        let kind = match act {
            ControlAction::Arrive(job) => {
                stats.arrivals += 1;
                if !state.any_placeable() {
                    // Whole fleet down — or every up board under a
                    // dispatch blackout. Both route through the
                    // existing no-board-up drop path; the chaos
                    // accounting distinguishes them.
                    if state.any_up() {
                        chaos_stats.blackout_drops += 1;
                    }
                    dropped.push(DroppedJob {
                        id: job.id,
                        reason: DropReason::NoBoardUp,
                    });
                    stats.dropped += 1;
                    stats.dropped_no_board += 1;
                    *open -= 1;
                    telemetry.on_drop(time_s, job.id, DropReason::NoBoardUp.name());
                    return true;
                }
                let module = &modules[job.workload.name];
                let slo_s = sim.estimates_into(
                    exec,
                    &mut *profiles,
                    &**cache,
                    scenario.policy,
                    &job,
                    module,
                    &*arches,
                    feedback.as_ref(),
                    &mut *scratch,
                );
                // Mis-profiled taxa: corrupt what the dispatcher
                // and admission see (never the SLO — deadlines are
                // contracts, not estimates).
                let mf = chaos.misprofile_factor(job.class(), time_s, Some(&mut *chaos_stats));
                if mf != 1.0 {
                    scratch.est.scale_service(mf);
                }
                let b = dispatcher.pick(&*state, &job, &scratch.est);
                assert!(b < n_boards, "dispatcher picked board {b} of {n_boards}");
                assert!(
                    state.placeable(b),
                    "dispatcher picked down or blacked-out board {b}"
                );

                // Policy resolution (training on miss/staleness) and
                // admission latency guard.
                let (schedule, profiled_s) = sim.resolve_with_training(
                    exec,
                    &mut *profiles,
                    &mut **cache,
                    scenario.policy,
                    &job,
                    module,
                    b,
                    scratch.base_s[arches.of(b)],
                    &mut *train_time_s,
                    &mut *train_energy_j,
                    &mut *guard_bypasses,
                );
                ensure_static_build(&mut *progs, module, &job, &schedule, &*arches, b);
                // The corrupted profiled estimate is what the job
                // is admitted with — and what the feedback layer
                // later compares observed service against, which
                // is exactly how the EWMA learns the 1/mf repair.
                let profiled_s = profiled_s * mf;
                let svc_est = corrected(
                    profiled_s,
                    feedback.as_ref(),
                    &job,
                    arches.keys[arches.of(b)],
                );

                // Oracle accumulator: batch stage-1 semantics.
                let acc = &mut state.boards[b].oracle_busy_until_s;
                *acc = acc.max(job.arrival_s) + svc_est;
                state.boards[b].dispatched += 1;

                let qj = QueuedJob {
                    job,
                    slo_s,
                    schedule,
                    sched_arch: sim.cluster.arch_key(b),
                    est_service_s: svc_est,
                    profiled_s,
                    penalty_s: 0.0,
                    migrations: 0,
                    redispatches: 0,
                };
                shards.deliver(
                    &mut state.boards,
                    ShardMsg::Enqueue { board: b, job: qj },
                    state.now_s,
                    &AdvanceCtx {
                        exec,
                        progs: &*progs,
                        modules: &*modules,
                        specs: &sim.cluster.boards,
                        collect_observations: feedback.is_some(),
                    },
                );
                state.refresh_dispatch_index(b);
                telemetry.on_dispatch(time_s, job.id, job.workload.name, b, svc_est);
                return true;
            }
            ControlAction::Ctl(kind) => kind,
        };

        match kind {
            EventKind::MonitorTick => {
                stats.ticks += 1;
                if scenario.preemption {
                    let migrated_before = stats.migrations;
                    sim.preempt_scan(
                        exec,
                        &mut *profiles,
                        &mut **cache,
                        *scenario,
                        &mut *state,
                        &mut *shards,
                        &mut *progs,
                        &*modules,
                        &*arches,
                        feedback.as_ref(),
                        &*chaos,
                        &mut *stats,
                        &mut *guard_bypasses,
                    );
                    telemetry.on_preempt_scan(time_s, stats.migrations - migrated_before);
                }
                // Sample the fleet's gauges for the recorder. Gated
                // on the level so the gauge walk costs nothing when
                // telemetry is off; reads state only, so it cannot
                // perturb the run either way.
                if telemetry.wants_ticks() {
                    let nb = state.boards.len();
                    let mut mean_util = 0.0;
                    let mut queue_depth = 0u64;
                    let mut backlog_s = 0.0;
                    let mut boards_up = 0u32;
                    let mut boards_placeable = 0u32;
                    let mut throttled = 0u32;
                    let mut blacked_out = 0u32;
                    for b in 0..nb {
                        mean_util += state.utilisation(b);
                        queue_depth += state.queue_depth(b) as u64;
                        backlog_s += state.backlog_s(b);
                        if state.up(b) {
                            boards_up += 1;
                        }
                        if state.placeable(b) {
                            boards_placeable += 1;
                        }
                        if !state.boards[b].throttles.is_empty() {
                            throttled += 1;
                        }
                        if state.boards[b].blackouts > 0 {
                            blacked_out += 1;
                        }
                    }
                    let (p50_s, p95_s, p99_s) = telemetry.latency_so_far();
                    let (fb_err, fb_samples, fb_corr) = match &feedback {
                        Some(fb) => (
                            fb.stats.mean_abs_rel_err(),
                            fb.stats.samples,
                            fb.mean_correction(),
                        ),
                        None => (0.0, 0, 1.0),
                    };
                    telemetry.on_tick(WindowSample {
                        t_s: time_s,
                        completions: telemetry.completions(),
                        p50_s,
                        p95_s,
                        p99_s,
                        slo_miss_rate: telemetry.slo_miss_rate(),
                        mean_util: mean_util / nb as f64,
                        queue_depth,
                        backlog_s,
                        boards_up,
                        boards_placeable,
                        throttled,
                        blacked_out,
                        feedback_mean_abs_rel_err: fb_err,
                        feedback_samples: fb_samples,
                        feedback_mean_correction: fb_corr,
                    });
                }
                if *open > 0 {
                    ctrl.push(
                        state.now_s + scenario.monitor_interval_s,
                        EventKind::MonitorTick,
                    );
                }
            }

            EventKind::BoardDown(b) => {
                stats.board_downs += 1;
                let b = b as usize;
                telemetry.on_churn(time_s, b, false);
                state.set_up(b, false);
                // The in-flight job drains; queued work is
                // redistributed (or dropped when nowhere is up or
                // the redispatch cap is exhausted).
                let orphans = state.boards[b].take_queued();
                for qj in orphans {
                    if !state.any_placeable() {
                        if state.any_up() {
                            chaos_stats.blackout_drops += 1;
                        }
                        dropped.push(DroppedJob {
                            id: qj.job.id,
                            reason: DropReason::NoBoardUp,
                        });
                        stats.dropped += 1;
                        stats.dropped_no_board += 1;
                        *open -= 1;
                        telemetry.on_drop(time_s, qj.job.id, DropReason::NoBoardUp.name());
                        continue;
                    }
                    if qj.redispatches >= scenario.max_redispatches {
                        dropped.push(DroppedJob {
                            id: qj.job.id,
                            reason: DropReason::MigrationCap,
                        });
                        stats.dropped += 1;
                        stats.dropped_migration_cap += 1;
                        *open -= 1;
                        telemetry.on_drop(time_s, qj.job.id, DropReason::MigrationCap.name());
                        continue;
                    }
                    stats.redistributions += 1;
                    sim.redispatch(
                        exec,
                        &mut *profiles,
                        &mut **cache,
                        *scenario,
                        &mut **dispatcher,
                        &mut *state,
                        &mut *shards,
                        &mut *progs,
                        &*modules,
                        &*arches,
                        feedback.as_ref(),
                        &*chaos,
                        qj,
                        &mut *guard_bypasses,
                        &mut *scratch,
                        &mut *chaos_stats,
                    );
                }
            }

            EventKind::BoardUp(b) => {
                stats.board_ups += 1;
                telemetry.on_churn(time_s, b as usize, true);
                state.set_up(b as usize, true);
            }

            EventKind::ThrottleStart { board, clause } => {
                stats.chaos_events += 1;
                chaos_stats.clauses[clause as usize].events += 1;
                telemetry.on_chaos(
                    time_s,
                    "throttle start",
                    &chaos_stats.clauses[clause as usize].label,
                    board as usize,
                );
                let bs = &mut state.boards[board as usize];
                bs.throttles.push((clause, chaos.factors[clause as usize]));
                bs.recompute_slowdown();
                // Throttle windows apply whether or not the board
                // is up — a board going down mid-throttle comes
                // back at whatever speed its open windows dictate.
                chaos_stats.max_slowdown = chaos_stats.max_slowdown.max(bs.slowdown);
            }

            EventKind::ThrottleEnd { board, clause } => {
                stats.chaos_events += 1;
                chaos_stats.clauses[clause as usize].events += 1;
                telemetry.on_chaos(
                    time_s,
                    "throttle end",
                    &chaos_stats.clauses[clause as usize].label,
                    board as usize,
                );
                let bs = &mut state.boards[board as usize];
                bs.throttles.retain(|&(c, _)| c != clause);
                bs.recompute_slowdown();
            }

            EventKind::BlackoutStart { board, clause } => {
                stats.chaos_events += 1;
                chaos_stats.clauses[clause as usize].events += 1;
                telemetry.on_chaos(
                    time_s,
                    "blackout start",
                    &chaos_stats.clauses[clause as usize].label,
                    board as usize,
                );
                state.add_blackout(board as usize);
            }

            EventKind::BlackoutEnd { board, clause } => {
                stats.chaos_events += 1;
                chaos_stats.clauses[clause as usize].events += 1;
                telemetry.on_chaos(
                    time_s,
                    "blackout end",
                    &chaos_stats.clauses[clause as usize].label,
                    board as usize,
                );
                state.remove_blackout(board as usize);
            }

            EventKind::Arrival(_) => {
                unreachable!("arrivals come from the cursor, not the control queue")
            }

            EventKind::Completion { .. } => {
                unreachable!("completions live on shard queues, not the control queue")
            }
        }
        true
    }

    /// Drives [`ResidentKernel::step`] until the run completes.
    pub fn run(&mut self) {
        while self.step() {}
    }

    /// Has the final drain run (is the kernel ready to
    /// [`ResidentKernel::finish`])?
    pub fn done(&self) -> bool {
        self.finished
    }

    /// Jobs the arrival cursor has yielded so far (including one
    /// possibly buffered, not-yet-admitted peek).
    pub fn position(&self) -> usize {
        self.cursor.position()
    }

    /// Jobs completed so far.
    pub fn completions(&self) -> u64 {
        self.stats.completions
    }

    /// Jobs neither completed nor dropped yet (counts arrivals the
    /// cursor has not yielded yet).
    pub fn open(&self) -> usize {
        self.open
    }

    /// The virtual clock, seconds.
    pub fn now_s(&self) -> f64 {
        self.state.now_s
    }

    /// Consumes the drained kernel: exit invariants, final sorts and
    /// [`FleetOutcome`] assembly. Metrics come from the retained
    /// outcomes when retention is on, from the streaming aggregates
    /// otherwise (exact counters and sums, digest percentiles).
    pub fn finish(mut self) -> FleetOutcome {
        assert!(
            self.finished,
            "finish() called before the kernel drained; step() to completion first"
        );
        self.telemetry.lap_total(self.wall_run);
        self.stats.messages = self.shards.messages;
        self.stats.advances = self.shards.advances;
        assert_eq!(self.open, 0, "kernel exited with open jobs");
        assert_eq!(
            self.stats.arrivals,
            self.stats.completions + self.stats.dropped,
            "event accounting out of balance: {:?}",
            self.stats
        );
        assert_eq!(
            self.stats.dropped,
            self.stats.dropped_no_board + self.stats.dropped_migration_cap,
            "per-reason drop accounting out of balance: {:?}",
            self.stats
        );
        debug_assert!(self
            .state
            .boards
            .iter()
            .all(|s| s.queue_is_empty() && s.in_flight.is_none()));

        self.outcomes.sort_by_key(|o| o.id);
        self.dropped.sort_by_key(|d| d.id);
        self.chaos_stats.throttled_starts =
            self.state.boards.iter().map(|s| s.throttled_starts).sum();
        let mut metrics = match &self.stream {
            Some(agg) => agg.metrics(
                self.state.boards.iter().map(|s| s.busy_s),
                self.train_energy_j,
            ),
            None => FleetMetrics::from_outcomes(
                &self.outcomes,
                self.state.boards.iter().map(|s| s.busy_s),
                self.train_energy_j,
            ),
        };
        if let Some(fb) = &self.feedback {
            metrics.feedback = fb.stats;
        }
        FleetOutcome {
            metrics,
            outcomes: self.outcomes,
            cache: self.cache.stats,
            guard_bypasses: self.guard_bypasses,
            train_time_s: self.train_time_s,
            train_energy_j: self.train_energy_j,
            backend: self.sim.params.backend.name(),
            calibrations: self
                .sim
                .replay_exec
                .as_ref()
                .map(|r| r.stats().calibrations)
                .unwrap_or(0),
            dispatch: self.scenario.dispatch.name(),
            dropped: self.dropped,
            kernel: self.stats,
            chaos: self.chaos_stats,
            stream: self.stream.as_ref().map(StreamAgg::summary),
        }
    }
}

/// Kernel event counters, every field in declaration order.
fn enc_kernel_stats(enc: &mut Enc, s: &KernelStats) {
    enc.u64(s.events);
    enc.u64(s.arrivals);
    enc.u64(s.completions);
    enc.u64(s.dropped);
    enc.u64(s.dropped_no_board);
    enc.u64(s.dropped_migration_cap);
    enc.u64(s.migrations);
    enc.u64(s.redistributions);
    enc.u64(s.ticks);
    enc.u64(s.board_downs);
    enc.u64(s.board_ups);
    enc.u64(s.chaos_events);
    enc.u32(s.shards);
    enc.u64(s.messages);
    enc.u64(s.advances);
    // The retired fanned-out advance counter keeps its slot so the
    // image format stays at version 1; it is always 0.
    enc.u64(0);
}

fn dec_kernel_stats(dec: &mut Dec<'_>) -> Result<KernelStats, CheckpointError> {
    let stats = KernelStats {
        events: dec.u64()?,
        arrivals: dec.u64()?,
        completions: dec.u64()?,
        dropped: dec.u64()?,
        dropped_no_board: dec.u64()?,
        dropped_migration_cap: dec.u64()?,
        migrations: dec.u64()?,
        redistributions: dec.u64()?,
        ticks: dec.u64()?,
        board_downs: dec.u64()?,
        board_ups: dec.u64()?,
        chaos_events: dec.u64()?,
        shards: dec.u32()?,
        messages: dec.u64()?,
        advances: dec.u64()?,
        // Retired slot: images from kernels that fanned out may hold a
        // count here; it is read and discarded.
        par_advances: {
            dec.u64()?;
            0
        },
    };
    if stats.dropped != stats.dropped_no_board + stats.dropped_migration_cap {
        return Err(CheckpointError::Corrupt(
            "per-reason drop counters do not sum to the drop total",
        ));
    }
    Ok(stats)
}

/// Chaos accounting counters. Clause labels are *not* serialised — the
/// resuming kernel recompiles the same schedule and keeps its own
/// labels — so a checkpoint cannot inject arbitrary strings into
/// reports.
fn enc_chaos_stats(enc: &mut Enc, s: &ChaosStats) {
    enc.usize(s.clauses.len());
    for c in &s.clauses {
        enc.u64(c.events);
        enc.u64(c.affected_jobs);
    }
    enc.u64(s.throttled_starts);
    enc.f64(s.max_slowdown);
    enc.u64(s.misprofiled);
    enc.u64(s.blackout_drops);
}

/// `fresh` is the compiled schedule's zeroed accounting (labels filled
/// in): the clause count must match it exactly.
fn dec_chaos_stats(dec: &mut Dec<'_>, fresh: &ChaosStats) -> Result<ChaosStats, CheckpointError> {
    let n = dec.count(16)?;
    if n != fresh.clauses.len() {
        return Err(CheckpointError::Corrupt(
            "chaos clause count does not match the scenario",
        ));
    }
    let mut out = fresh.clone();
    for c in out.clauses.iter_mut() {
        c.events = dec.u64()?;
        c.affected_jobs = dec.u64()?;
    }
    out.throttled_starts = dec.u64()?;
    out.max_slowdown = dec.f64()?;
    if !out.max_slowdown.is_finite() || out.max_slowdown < 0.0 {
        return Err(CheckpointError::Corrupt(
            "chaos max_slowdown is not finite and non-negative",
        ));
    }
    out.misprofiled = dec.u64()?;
    out.blackout_drops = dec.u64()?;
    Ok(out)
}

impl<'a, 'r> ResidentKernel<'a, 'r> {
    /// Fingerprint of everything a checkpoint's bytes implicitly assume
    /// about the kernel resuming them: fleet size, stream length,
    /// scenario label and retention mode. Deliberately *excludes* the
    /// shard count — the determinism contract makes a checkpoint taken
    /// under K shards valid to resume under any K'.
    fn config_fp(&self) -> u64 {
        let mut enc = Enc::new();
        enc.usize(self.state.len());
        enc.usize(self.cursor.total());
        enc.str(&self.scenario.label());
        enc.bool(self.retain);
        checkpoint::fnv1a(&enc.finish())
    }

    /// Serialises the complete mid-run state to a versioned,
    /// checksummed byte buffer: cursor position, virtual clock, control
    /// queue, per-board queues and in-flight jobs, every counter, the
    /// policy cache, feedback EWMAs, chaos accounting and the streaming
    /// aggregates (or retained outcomes). A kernel built over the same
    /// configuration that [`ResidentKernel::restore`]s these bytes
    /// continues bit-identically to the uninterrupted run — under any
    /// shard count.
    ///
    /// What is *not* serialised is everything rebuildable: profile and
    /// calibration memos, compiled programs (warm static builds are
    /// recompiled on restore for every queued job that needs one), the
    /// dispatch index, and telemetry (the flight recorder's
    /// non-perturbation contract means it never affects results).
    pub fn checkpoint(&self) -> Vec<u8> {
        let mut enc = Enc::new();
        checkpoint::header(&mut enc, self.config_fp());
        self.cursor.save().encode(&mut enc);
        match &self.pending {
            None => enc.bool(false),
            Some(j) => {
                enc.bool(true);
                checkpoint::enc_job_spec(&mut enc, j);
            }
        }
        enc.f64(self.state.now_s);
        self.ctrl.encode(&mut enc);
        enc_kernel_stats(&mut enc, &self.stats);
        for b in &self.state.boards {
            b.encode(&mut enc);
        }
        enc.u64(self.shards.advances);
        // Retired fanned-out advance slot (see `enc_kernel_stats`).
        enc.u64(0);
        enc.u64(self.shards.messages);
        enc_chaos_stats(&mut enc, &self.chaos_stats);
        match &self.feedback {
            None => enc.bool(false),
            Some(fb) => {
                enc.bool(true);
                fb.encode(&mut enc);
            }
        }
        self.cache.encode(&mut enc);
        enc.f64(self.train_time_s);
        enc.f64(self.train_energy_j);
        enc.u64(self.guard_bypasses);
        enc.usize(self.open);
        if self.retain {
            enc.usize(self.outcomes.len());
            for o in &self.outcomes {
                checkpoint::enc_outcome(&mut enc, o);
            }
        }
        // The dropped list is small (drops are exceptional) and
        // reported in both modes, so it is serialised unconditionally.
        enc.usize(self.dropped.len());
        for d in &self.dropped {
            checkpoint::enc_dropped(&mut enc, d);
        }
        if let Some(s) = &self.stream {
            s.encode(&mut enc);
        }
        checkpoint::seal(enc.finish())
    }

    /// Restores a [`ResidentKernel::checkpoint`] into this kernel,
    /// which must have been built over the same configuration (cluster,
    /// cursor, scenario, retention — fingerprinted in the header; the
    /// shard count may differ freely). Every section is decoded and
    /// validated into temporaries before anything is applied, so a
    /// corrupted, truncated or mismatched checkpoint returns a
    /// [`CheckpointError`] and leaves the kernel exactly as it was.
    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), CheckpointError> {
        let payload = checkpoint::unseal(bytes)?;
        let mut dec = Dec::new(payload);
        checkpoint::check_header(&mut dec, self.config_fp())?;
        let n_boards = self.state.len();
        let n_clauses = self.chaos.factors.len();

        let cursor_state = CursorState::decode(&mut dec)?;
        let pending = if dec.bool()? {
            Some(checkpoint::dec_job_spec(&mut dec)?)
        } else {
            None
        };
        let now_s = dec.f64()?;
        if !now_s.is_finite() || now_s < 0.0 {
            return Err(CheckpointError::Corrupt(
                "virtual clock is not finite and non-negative",
            ));
        }
        let ctrl = EventQueue::decode(&mut dec, n_boards, n_clauses)?;
        let mut stats = dec_kernel_stats(&mut dec)?;
        let mut boards = Vec::with_capacity(n_boards);
        for _ in 0..n_boards {
            boards.push(BoardState::decode(
                &mut dec,
                &self.arches.keys,
                n_boards,
                n_clauses,
            )?);
        }
        // Queued jobs must name workloads this kernel compiled modules
        // for (the registry check in decode is necessary, not
        // sufficient: the cursor's pool can be narrower).
        for board in &boards {
            for q in board.queued() {
                if !self.modules.contains_key(q.job.workload.name) {
                    return Err(CheckpointError::UnknownWorkload(
                        q.job.workload.name.to_string(),
                    ));
                }
            }
        }
        if let Some(j) = &pending {
            if !self.modules.contains_key(j.workload.name) {
                return Err(CheckpointError::UnknownWorkload(
                    j.workload.name.to_string(),
                ));
            }
        }
        let advances = dec.u64()?;
        dec.u64()?; // retired fanned-out advance slot
        let messages = dec.u64()?;
        let chaos_stats = dec_chaos_stats(&mut dec, &self.chaos.stats)?;
        let feedback = if dec.bool()? {
            Some(ServiceFeedback::decode(&mut dec, &self.arches.keys)?)
        } else {
            None
        };
        if feedback.is_some() != self.scenario.feedback {
            return Err(CheckpointError::Corrupt(
                "feedback section does not match the scenario",
            ));
        }
        let cache = PolicyCache::decode(&mut dec, &self.arches.keys)?;
        let train_time_s = dec.f64()?;
        let train_energy_j = dec.f64()?;
        let guard_bypasses = dec.u64()?;
        let open = dec.usize()?;
        if self.cursor.total() as u64 != stats.completions + stats.dropped + open as u64 {
            return Err(CheckpointError::Corrupt(
                "open-job count inconsistent with completion/drop counters",
            ));
        }
        let outcomes = if self.retain {
            let n = dec.count(4)?;
            let mut outcomes = Vec::with_capacity(n);
            for _ in 0..n {
                outcomes.push(checkpoint::dec_outcome(&mut dec, n_boards)?);
            }
            outcomes
        } else {
            Vec::new()
        };
        let n = dec.count(5)?;
        let mut dropped = Vec::with_capacity(n);
        for _ in 0..n {
            dropped.push(checkpoint::dec_dropped(&mut dec)?);
        }
        let stream = if self.retain {
            None
        } else {
            Some(StreamAgg::decode(&mut dec)?)
        };
        dec.finish()?;

        // The cursor validates before it applies, so it is safe as the
        // first mutation: a rejected position leaves everything
        // untouched.
        self.cursor.load(&cursor_state)?;

        // ---- apply (infallible from here) ---------------------------
        self.pending = pending;
        self.state.now_s = now_s;
        self.state.restore_boards(boards);
        self.ctrl = ctrl;
        // The shard count is this kernel's, not the checkpoint's: the
        // execution plane is reconstructed, with one pending completion
        // per busy board (same-time cross-board completions commute, so
        // this is the only shard state the contract needs).
        stats.shards = self.shards.len() as u32;
        self.stats = stats;
        self.shards = ShardSet::new(n_boards, self.sim.params.shards);
        self.shards.restore_completions(&self.state.boards);
        self.shards.restore_counters(advances, messages);
        self.chaos_stats = chaos_stats;
        self.feedback = feedback;
        *self.cache = cache;
        self.train_time_s = train_time_s;
        self.train_energy_j = train_energy_j;
        self.guard_bypasses = guard_bypasses;
        self.open = open;
        self.outcomes = outcomes;
        self.dropped = dropped;
        self.stream = stream;
        self.finished = false;

        // Warm static builds are a pure memo keyed by (workload, arch,
        // policy version): recompile the entries every restored queued
        // job will read when it starts. In-flight jobs carry their
        // precomputed outcome and need no program.
        for b in 0..n_boards {
            for q in self.state.boards[b].queued() {
                let module = &self.modules[q.job.workload.name];
                ensure_static_build(
                    &mut self.progs,
                    module,
                    &q.job,
                    &q.schedule,
                    &self.arches,
                    b,
                );
            }
        }
        Ok(())
    }
}

impl FleetSim<'_> {
    // ---- admission ----------------------------------------------------------

    /// Refill `scratch` with per-architecture estimates for `job` (and
    /// the uncorrected profiled walls); returns the resolved SLO. An
    /// arrival costs O(architectures) profile lookups and writes
    /// however many boards the cluster has. Read-only on the cache
    /// (peeks, no accounting).
    #[allow(clippy::too_many_arguments)]
    fn estimates_into(
        &self,
        exec: &dyn Executor,
        profiles: &mut ProfileTable,
        cache: &PolicyCache,
        policy: PolicyMode,
        job: &JobSpec,
        module: &Module,
        arches: &ArchMap,
        feedback: Option<&ServiceFeedback>,
        scratch: &mut EstScratch,
    ) -> f64 {
        let slo_s = job.slo_tightness * self.best_cold_wall(exec, profiles, &job.workload, module);
        debug_assert_eq!(scratch.base_s.len(), arches.len());
        for a in 0..arches.len() {
            let arch = arches.keys[a];
            let (wall, energy, warm) = self.estimate_on(
                exec,
                profiles,
                cache,
                policy,
                job,
                module,
                arches.representative[a],
            );
            scratch.base_s[a] = wall;
            scratch
                .est
                .set_class(a, corrected(wall, feedback, job, arch), energy, warm);
        }
        slo_s
    }

    /// Arrival-path policy resolution: full cache lookup (training on
    /// miss, warm refresh on staleness — asynchronous, off the serving
    /// path, so the triggering job runs its stock binary), then the
    /// admission latency guard. Returns the schedule to run and the
    /// guarded *uncorrected* profiled service estimate on board `b`
    /// (the feedback correction, if any, is applied by the caller).
    #[allow(clippy::too_many_arguments)]
    fn resolve_with_training(
        &self,
        exec: &dyn Executor,
        profiles: &mut ProfileTable,
        cache: &mut PolicyCache,
        policy: PolicyMode,
        job: &JobSpec,
        module: &Module,
        b: usize,
        cold_est: f64,
        train_time_s: &mut f64,
        train_energy_j: &mut f64,
        guard_bypasses: &mut u64,
    ) -> (Option<(astro_core::schedule::StaticSchedule, u32)>, f64) {
        let schedule = match policy {
            PolicyMode::Cold => None,
            PolicyMode::Warm => {
                let arch = self.cluster.arch_key(b);
                match cache.lookup(job.taxon, arch) {
                    CacheDecision::Hit(s, v) => Some((s, v)),
                    CacheDecision::Stale(snap) => {
                        let (trained, t, e) =
                            self.train(job, b, Some(&snap), self.params.refresh_episodes);
                        *train_time_s += t;
                        *train_energy_j += e;
                        let snapshot = trained.hooks.agent.snapshot();
                        cache.refresh(job.taxon, arch, trained.static_schedule, snapshot);
                        None
                    }
                    CacheDecision::Miss => {
                        let (trained, t, e) = self.train(job, b, None, self.params.train.episodes);
                        *train_time_s += t;
                        *train_energy_j += e;
                        let snapshot = trained.hooks.agent.snapshot();
                        cache.insert(job.taxon, arch, trained.static_schedule, snapshot);
                        None
                    }
                }
            }
        };
        self.apply_guard(
            exec,
            profiles,
            job,
            module,
            b,
            schedule,
            cold_est,
            guard_bypasses,
        )
    }

    /// Admission latency guard: when the schedule's profiled service on
    /// board `b` regresses past the guard factor, the job runs its
    /// stock binary instead.
    #[allow(clippy::too_many_arguments)]
    fn apply_guard(
        &self,
        exec: &dyn Executor,
        profiles: &mut ProfileTable,
        job: &JobSpec,
        module: &Module,
        b: usize,
        schedule: Option<(astro_core::schedule::StaticSchedule, u32)>,
        cold_est: f64,
        guard_bypasses: &mut u64,
    ) -> (Option<(astro_core::schedule::StaticSchedule, u32)>, f64) {
        match schedule {
            None => (None, cold_est),
            Some((st, v)) => {
                // The verdict is a pure function of two memoised
                // profiles, so it is memoised per (workload, arch,
                // version) — the bypass counter still ticks per
                // arrival, exactly as the recomputing path did.
                let arch = self.cluster.arch_key(b);
                let key = (crate::sim::sk(job.workload.name), crate::sim::sk(arch), v);
                let (admit, wall) = match profiles.guard.get(&key) {
                    Some(&verdict) => verdict,
                    None => {
                        let (cold_wall, _) = self.profile(
                            exec,
                            profiles,
                            &job.workload,
                            module,
                            b,
                            ProfileTable::COLD,
                            None,
                        );
                        let (warm_wall, _) = self.profile(
                            exec,
                            profiles,
                            &job.workload,
                            module,
                            b,
                            v as u64,
                            Some(st),
                        );
                        let verdict = if warm_wall > cold_wall * self.params.latency_guard {
                            (false, cold_wall)
                        } else {
                            (true, warm_wall)
                        };
                        profiles.guard.insert(key, verdict);
                        verdict
                    }
                };
                if admit {
                    (Some((st, v)), wall)
                } else {
                    *guard_bypasses += 1;
                    (None, wall)
                }
            }
        }
    }

    // ---- migration ----------------------------------------------------------

    /// Re-resolve a migrating job's schedule for the target board
    /// without training (there is no time to train on the migration
    /// path): a fresh cache line for the target architecture applies
    /// (guard permitting), anything else runs the stock binary.
    /// `misprofile` is the chaos estimate-corruption factor active at
    /// migration time (1.0 when none): it scales the profiled estimate
    /// the same way it scaled the arrival-time estimate, so feedback
    /// sees a consistently corrupted signal it can learn to repair.
    #[allow(clippy::too_many_arguments)]
    fn migrate_onto(
        &self,
        exec: &dyn Executor,
        profiles: &mut ProfileTable,
        cache: &PolicyCache,
        scenario: &Scenario,
        mut qj: QueuedJob,
        target: usize,
        guard_bypasses: &mut u64,
        modules: &BTreeMap<&'static str, Module>,
        feedback: Option<&ServiceFeedback>,
        misprofile: f64,
    ) -> QueuedJob {
        let arch = self.cluster.arch_key(target);
        let module = &modules[qj.job.workload.name];
        let schedule = if scenario.policy == PolicyMode::Warm && qj.sched_arch == arch {
            qj.schedule
        } else if scenario.policy == PolicyMode::Warm && cache.is_warm(qj.job.taxon, arch) {
            let e = cache.peek(qj.job.taxon, arch).expect("warm entry exists");
            Some((e.schedule, e.version))
        } else {
            None
        };
        let (cold_wall, _) = self.profile(
            exec,
            profiles,
            &qj.job.workload,
            module,
            target,
            ProfileTable::COLD,
            None,
        );
        let (schedule, profiled_s) = self.apply_guard(
            exec,
            profiles,
            &qj.job,
            module,
            target,
            schedule,
            cold_wall,
            guard_bypasses,
        );
        qj.schedule = schedule;
        qj.sched_arch = arch;
        let profiled_s = profiled_s * misprofile;
        qj.profiled_s = profiled_s;
        qj.est_service_s = corrected(profiled_s, feedback, &qj.job, arch);
        qj.penalty_s += scenario.migration_cost_s;
        qj.migrations += 1;
        qj
    }

    /// Churn redistribution: place an orphaned queued job through the
    /// dispatcher (over the boards still up), paying the migration cost.
    #[allow(clippy::too_many_arguments)]
    fn redispatch(
        &self,
        exec: &dyn Executor,
        profiles: &mut ProfileTable,
        cache: &mut PolicyCache,
        scenario: &Scenario,
        dispatcher: &mut dyn Dispatcher,
        state: &mut ClusterState,
        shards: &mut ShardSet,
        progs: &mut ProgramSet,
        modules: &BTreeMap<&'static str, Module>,
        arches: &ArchMap,
        feedback: Option<&ServiceFeedback>,
        chaos: &CompiledChaos,
        qj: QueuedJob,
        guard_bypasses: &mut u64,
        scratch: &mut EstScratch,
        chaos_stats: &mut ChaosStats,
    ) -> usize {
        self.estimates_into(
            exec,
            profiles,
            cache,
            scenario.policy,
            &qj.job,
            &modules[qj.job.workload.name],
            arches,
            feedback,
            scratch,
        );
        // A redispatch is a fresh admission: an active misprofile
        // window corrupts its estimates exactly like an arrival's.
        let mf = chaos.misprofile_factor(qj.job.class(), state.now_s, Some(chaos_stats));
        if mf != 1.0 {
            scratch.est.scale_service(mf);
        }
        let b = dispatcher.pick(state, &qj.job, &scratch.est);
        assert!(
            state.placeable(b),
            "dispatcher picked down or blacked-out board {b}"
        );
        let mut qj = self.migrate_onto(
            exec,
            profiles,
            cache,
            scenario,
            qj,
            b,
            guard_bypasses,
            modules,
            feedback,
            mf,
        );
        // Churn redistributions are capped by their own counter —
        // preemptive migrations (max_migrations) do not consume it.
        qj.redispatches += 1;
        let module = &modules[qj.job.workload.name];
        ensure_static_build(progs, module, &qj.job, &qj.schedule, arches, b);
        // Oracle accumulators track redistributed work too (the oracle
        // still books what it re-plans, it just never observes reality).
        let acc = &mut state.boards[b].oracle_busy_until_s;
        *acc = acc.max(state.now_s) + qj.est_total_s();
        state.boards[b].dispatched += 1;
        shards.deliver(
            &mut state.boards,
            ShardMsg::Enqueue { board: b, job: qj },
            state.now_s,
            &AdvanceCtx {
                exec,
                progs,
                modules,
                specs: &self.cluster.boards,
                collect_observations: feedback.is_some(),
            },
        );
        state.refresh_dispatch_index(b);
        b
    }

    /// Preemptive redispatch scan: walk every live board's queue in
    /// order, predict each queued job's finish from observable state,
    /// and migrate predicted SLO-missers to a board predicted to *meet*
    /// the deadline (never a sideways bounce — a migration must turn a
    /// predicted miss into a predicted hit).
    #[allow(clippy::too_many_arguments)]
    fn preempt_scan(
        &self,
        exec: &dyn Executor,
        profiles: &mut ProfileTable,
        cache: &mut PolicyCache,
        scenario: &Scenario,
        state: &mut ClusterState,
        shards: &mut ShardSet,
        progs: &mut ProgramSet,
        modules: &BTreeMap<&'static str, Module>,
        arches: &ArchMap,
        feedback: Option<&ServiceFeedback>,
        chaos: &CompiledChaos,
        stats: &mut KernelStats,
        guard_bypasses: &mut u64,
    ) {
        let n_boards = self.cluster.len();
        for b in 0..n_boards {
            if !state.up(b) || state.boards[b].queue_is_empty() {
                continue;
            }
            let mut t_avail = match &state.boards[b].in_flight {
                Some(f) => f.est_finish_s.max(state.now_s),
                None => state.now_s,
            };
            let mut kept = std::collections::VecDeque::new();
            while let Some(qj) = state.boards[b].pop_next() {
                let pred_finish = t_avail + qj.est_total_s();
                let deadline = qj.job.arrival_s + qj.slo_s;
                // Any active misprofile window corrupts the scan's
                // predictions too (the scan sees the same lie arrivals
                // do); not charged to clause stats — predictions are
                // not admissions.
                let mf = chaos.misprofile_factor(qj.job.class(), state.now_s, None);
                let target = if pred_finish > deadline && qj.migrations < scenario.max_migrations {
                    // Best alternative: lowest predicted finish among
                    // the other placeable boards, by observable
                    // estimates.
                    let module = &modules[qj.job.workload.name];
                    let mut best: Option<(f64, usize)> = None;
                    for b2 in state.placeable_boards().filter(|&b2| b2 != b) {
                        let (wall, _, _) = self.estimate_on(
                            exec,
                            profiles,
                            cache,
                            scenario.policy,
                            &qj.job,
                            module,
                            b2,
                        );
                        let wall =
                            corrected(wall * mf, feedback, &qj.job, arches.keys[arches.of(b2)]);
                        // The job keeps its already-accumulated penalty
                        // on the target board, so the prediction must
                        // carry it — or a re-migration could be
                        // approved that is itself predicted to miss.
                        let alt = state.online_busy_until_s(b2).max(state.now_s)
                            + qj.penalty_s
                            + scenario.migration_cost_s
                            + wall;
                        if best.map(|(t, _)| alt < t).unwrap_or(true) {
                            best = Some((alt, b2));
                        }
                    }
                    best.filter(|&(alt_finish, _)| alt_finish <= deadline)
                } else {
                    None
                };
                match target {
                    Some((_, b2)) => {
                        let qj2 = self.migrate_onto(
                            exec,
                            profiles,
                            cache,
                            scenario,
                            qj,
                            b2,
                            guard_bypasses,
                            modules,
                            feedback,
                            mf,
                        );
                        let module = &modules[qj2.job.workload.name];
                        ensure_static_build(progs, module, &qj2.job, &qj2.schedule, arches, b2);
                        state.boards[b2].dispatched += 1;
                        shards.deliver(
                            &mut state.boards,
                            ShardMsg::Enqueue {
                                board: b2,
                                job: qj2,
                            },
                            state.now_s,
                            &AdvanceCtx {
                                exec,
                                progs,
                                modules,
                                specs: &self.cluster.boards,
                                collect_observations: feedback.is_some(),
                            },
                        );
                        state.refresh_dispatch_index(b2);
                        stats.migrations += 1;
                    }
                    None => {
                        t_avail = pred_finish;
                        kept.push_back(qj);
                    }
                }
            }
            state.boards[b].set_queued(kept);
            state.refresh_dispatch_index(b);
        }
    }

    /// Observable (wall, energy) estimate of `job` on board `b` under
    /// the schedule it would run there (fresh cache line or stock
    /// binary), *uncorrected* — callers fold the feedback correction
    /// in via [`corrected`]. The single source of the policy-estimate
    /// rule: both arrival-time dispatch estimates and preemption-scan
    /// predictions go through here, so they can never disagree.
    #[allow(clippy::too_many_arguments)]
    fn estimate_on(
        &self,
        exec: &dyn Executor,
        profiles: &mut ProfileTable,
        cache: &PolicyCache,
        policy: PolicyMode,
        job: &JobSpec,
        module: &Module,
        b: usize,
    ) -> (f64, f64, bool) {
        let arch = self.cluster.arch_key(b);
        // One probe answers both "is it warm?" and "which schedule?" —
        // the estimate loop runs this per architecture per arrival.
        let warm = match policy {
            PolicyMode::Warm => cache.warm_peek(job.taxon, arch),
            PolicyMode::Cold => None,
        };
        let (wall, energy) = match warm {
            Some(e) => self.profile(
                exec,
                profiles,
                &job.workload,
                module,
                b,
                e.version as u64,
                Some(e.schedule),
            ),
            None => self.profile(
                exec,
                profiles,
                &job.workload,
                module,
                b,
                ProfileTable::COLD,
                None,
            ),
        };
        (wall, energy, warm.is_some())
    }
}

/// Apply the feedback correction to an uncorrected estimate (identity
/// when the layer is disabled — bit-for-bit, not just numerically).
fn corrected(
    wall_s: f64,
    feedback: Option<&ServiceFeedback>,
    job: &JobSpec,
    arch: &'static str,
) -> f64 {
    match feedback {
        Some(fb) => wall_s * fb.correction(job.taxon, arch),
        None => wall_s,
    }
}

/// Make sure the static build a queued job will run is compiled into
/// the program memo before the job reaches a shard (shards only read).
fn ensure_static_build(
    progs: &mut ProgramSet,
    module: &Module,
    job: &JobSpec,
    schedule: &Option<(astro_core::schedule::StaticSchedule, u32)>,
    arches: &ArchMap,
    b: usize,
) {
    if let Some((st, version)) = schedule {
        let key = (
            crate::sim::sk(job.workload.name),
            crate::sim::sk(arches.keys[arches.of(b)]),
            *version,
        );
        progs
            .warm
            .entry(key)
            .or_insert_with(|| compile(&build_static(module, st)).expect("static build compiles"));
    }
}

/// Fold one barrier merge into the run accounting: completions become
/// events, outcomes accumulate (when retained) or fold into the
/// streaming aggregates, and feedback observations are applied in
/// (completion time, job id) order so the learned state is identical
/// for every shard count.
///
/// The flight recorder observes the merge here too — and *only* here
/// for completion-derived telemetry: its records are sorted by the same
/// (finish time, id) key before the hook fires, so the recorded stream
/// is pinned for every shard count, and successive advance windows
/// `[from_s, to_s)` are disjoint and increasing, making the whole trace
/// monotone in sim time.
#[allow(clippy::too_many_arguments)]
fn fold_delta(
    mut delta: AdvanceDelta,
    state: &mut ClusterState,
    stats: &mut KernelStats,
    open: &mut usize,
    outcomes: &mut Vec<JobOutcome>,
    feedback: &mut Option<ServiceFeedback>,
    telemetry: &mut FlightRecorder,
    from_s: f64,
    to_s: f64,
    retain: bool,
    stream: &mut Option<StreamAgg>,
) {
    // Shard advances mutate board state (completions pop queues and
    // start successors) outside the control plane's view; the boards
    // they touched are exactly the outcome boards, so the dispatch
    // index is repaired here, at the barrier, before any decision
    // reads it.
    for o in &delta.outcomes {
        state.refresh_dispatch_index(o.board);
    }
    stats.events += delta.completions;
    stats.completions += delta.completions;
    *open -= delta.completions as usize;
    if telemetry.enabled() && !delta.outcomes.is_empty() {
        let mut recs: Vec<CompletionRecord> = delta
            .outcomes
            .iter()
            .map(|o| CompletionRecord {
                finish_s: o.finish_s,
                latency_s: o.latency_s(),
                slo_s: o.slo_s,
                id: o.id,
                board: o.board,
                workload: o.workload,
            })
            .collect();
        recs.sort_by(|a, b| a.finish_s.total_cmp(&b.finish_s).then(a.id.cmp(&b.id)));
        telemetry.on_window(from_s, to_s, &recs);
    }
    if let Some(agg) = stream {
        // The shard fold concatenates per-shard outcome runs, whose
        // grouping depends on the shard count; pin the streaming fold
        // to (finish time, id) order so digest and float-sum state is
        // bit-identical for every shard count (barriers themselves sit
        // at control timestamps, which are shard-count-invariant).
        delta
            .outcomes
            .sort_by(|a, b| a.finish_s.total_cmp(&b.finish_s).then(a.id.cmp(&b.id)));
        for o in &delta.outcomes {
            agg.add(o);
        }
    }
    if retain {
        outcomes.extend(delta.outcomes);
    }
    if let Some(fb) = feedback {
        let mut obs = delta.observations;
        obs.sort_by(|x, y| x.finish_s.total_cmp(&y.finish_s).then(x.id.cmp(&y.id)));
        for o in obs {
            fb.observe(o.taxon, o.arch, o.profiled_s, o.observed_s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retired_par_advances_slot_is_read_and_discarded() {
        let stats = KernelStats {
            advances: 9,
            messages: 4,
            ..KernelStats::default()
        };
        let mut enc = Enc::new();
        enc_kernel_stats(&mut enc, &stats);
        let mut bytes = enc.finish();
        let n = bytes.len();
        assert_eq!(bytes[n - 8..], [0; 8], "new images write 0");
        // An image from a kernel that fanned out holds a count there.
        bytes[n - 8..].copy_from_slice(&9319u64.to_le_bytes());
        let back = dec_kernel_stats(&mut Dec::new(&bytes)).unwrap();
        assert_eq!(back.par_advances, 0);
        assert_eq!((back.advances, back.messages), (9, 4));
    }

    #[test]
    fn event_queue_orders_by_time_then_push() {
        let mut q = EventQueue::new();
        q.push(2.0, EventKind::MonitorTick);
        q.push(1.0, EventKind::Arrival(0));
        q.push(1.0, EventKind::Completion { board: 3 });
        q.push(0.5, EventKind::BoardDown(1));
        assert_eq!(q.len(), 4);
        assert_eq!(q.pop().unwrap().kind, EventKind::BoardDown(1));
        let a = q.pop().unwrap();
        let b = q.pop().unwrap();
        // Equal timestamps pop in push order.
        assert_eq!(a.kind, EventKind::Arrival(0));
        assert_eq!(b.kind, EventKind::Completion { board: 3 });
        assert!(a.seq < b.seq);
        assert_eq!(q.pop().unwrap().kind, EventKind::MonitorTick);
        assert!(q.pop().is_none());
        assert_eq!(q.pushed, 4);
        assert_eq!(q.popped, 4);
        assert!(q.is_empty());
    }

    #[test]
    fn pop_before_is_strict() {
        let mut q = EventQueue::new();
        q.push(1.0, EventKind::Completion { board: 0 });
        q.push(2.0, EventKind::Completion { board: 1 });
        assert!(q.pop_before(1.0).is_none(), "strictly-before must exclude");
        assert_eq!(
            q.pop_before(1.5).unwrap().kind,
            EventKind::Completion { board: 0 }
        );
        assert!(q.pop_before(1.5).is_none());
        assert_eq!(q.peek().unwrap().time_s, 2.0);
        assert_eq!(
            q.pop_before(f64::INFINITY).unwrap().kind,
            EventKind::Completion { board: 1 }
        );
        assert!(q.is_empty());
    }

    #[test]
    fn scenario_builders_compose() {
        let s = Scenario::online(PolicyMode::Warm)
            .with_churn(vec![ChurnEvent {
                time_s: 1.0,
                board: 0,
                up: false,
            }])
            .with_preemption(0.5, 0.01, 3);
        assert_eq!(s.dispatch, DispatchMode::Online);
        assert!(s.preemption);
        assert_eq!(s.max_migrations, 3);
        assert_eq!(s.max_redispatches, u32::MAX);
        assert!(!s.feedback);
        assert_eq!(s.churn.len(), 1);
        assert_eq!(s.label(), "warm/online");
        let o = Scenario::oracle(PolicyMode::Cold);
        assert_eq!(o.dispatch, DispatchMode::Oracle);
        assert!(!o.preemption);
        assert_eq!(o.label(), "cold/oracle");
        let f = Scenario::online(PolicyMode::Warm)
            .with_feedback()
            .with_redispatch_cap(3);
        assert!(f.feedback);
        assert_eq!(f.max_redispatches, 3);
        assert_eq!(f.label(), "warm/online+fb");
    }

    use crate::arrival::{ArrivalProcess, GenCursor};
    use crate::cluster::ClusterSpec;
    use crate::dispatch::PhaseAware;
    use crate::sim::{FleetParams, FleetSim};
    use crate::telemetry::FlightRecorder;
    use astro_exec::executor::BackendKind;
    use astro_workloads::InputSize;

    fn ckpt_pool() -> Vec<astro_workloads::Workload> {
        ["swaptions", "bfs"]
            .iter()
            .map(|n| astro_workloads::by_name(n).unwrap())
            .collect()
    }

    fn ckpt_scenario() -> Scenario {
        Scenario::online(PolicyMode::Warm)
            .with_feedback()
            .with_churn(vec![
                ChurnEvent {
                    time_s: 0.002,
                    board: 1,
                    up: false,
                },
                ChurnEvent {
                    time_s: 0.004,
                    board: 1,
                    up: true,
                },
            ])
            .with_chaos(
                ChaosSchedule::new()
                    .throttle(2, 2.0, 0.001, 0.006)
                    .blackout(vec![3], 0.002, 0.005),
            )
    }

    fn ckpt_cursor() -> GenCursor {
        GenCursor::new(
            ArrivalProcess::Poisson {
                rate_jobs_per_s: 9_000.0,
            },
            60,
            &ckpt_pool(),
            InputSize::Test,
            (4.0, 8.0),
            7,
            &[],
        )
    }

    fn ckpt_params(shards: usize) -> FleetParams {
        let mut p = FleetParams::new(7);
        p.backend = BackendKind::Replay;
        p.shards = shards;
        p
    }

    /// Everything the determinism contract pins across a
    /// checkpoint/restore cycle under the *same* shard count.
    fn ckpt_fingerprint(out: &FleetOutcome) -> String {
        format!(
            "{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{}|{}|{}",
            out.metrics,
            out.kernel,
            out.chaos,
            out.stream,
            out.cache,
            out.dropped,
            out.guard_bypasses,
            out.train_time_s.to_bits(),
            out.train_energy_j.to_bits(),
        )
    }

    /// The shard-count-agnostic slice of the fingerprint: everything
    /// except the execution-plane counters (messages/advances vary
    /// with K by design).
    fn ckpt_fingerprint_any_k(out: &FleetOutcome) -> String {
        let mut k = out.kernel;
        k.shards = 0;
        k.messages = 0;
        k.advances = 0;
        format!(
            "{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{}|{}|{}",
            out.metrics,
            k,
            out.chaos,
            out.stream,
            out.cache,
            out.dropped,
            out.guard_bypasses,
            out.train_time_s.to_bits(),
            out.train_energy_j.to_bits(),
        )
    }

    /// A stream that goes back in time stops the run in every build
    /// profile instead of being simulated as time travel.
    #[test]
    #[should_panic(expected = "virtual clock ran backwards")]
    fn stream_going_back_in_time_is_rejected() {
        let cluster = ClusterSpec::heterogeneous(2);
        let mut jobs = ArrivalProcess::Poisson {
            rate_jobs_per_s: 9_000.0,
        }
        .generate(4, &ckpt_pool(), InputSize::Test, (4.0, 8.0), 7);
        jobs.reverse();
        FleetSim::new(&cluster, ckpt_params(1)).run(
            &jobs,
            &mut PhaseAware::default(),
            &mut PolicyCache::new(8),
            &Scenario::online(PolicyMode::Cold),
        );
    }

    /// The arrival path writes one estimate slot per architecture: a
    /// 2000-board, two-architecture fleet's scratch holds 2 classes,
    /// not 2000 per-board slots, before and after arrivals refill it.
    #[test]
    fn estimate_scratch_is_per_architecture_not_per_board() {
        let cluster = ClusterSpec::heterogeneous(2000);
        let sim = FleetSim::new(&cluster, ckpt_params(1));
        let mut cursor = ckpt_cursor();
        let mut dispatcher = PhaseAware::default();
        let mut cache = PolicyCache::new(8);
        let scenario = Scenario::online(PolicyMode::Warm);
        let mut telemetry = FlightRecorder::off();
        let mut k = sim.resident(
            &mut cursor,
            &mut dispatcher,
            &mut cache,
            &scenario,
            &mut telemetry,
            false,
        );
        for _ in 0..3 {
            assert_eq!(k.scratch.est.n_classes(), 2);
            assert_eq!(k.scratch.base_s.len(), 2);
            for _ in 0..10 {
                k.step();
            }
        }
        assert!(k.stats.arrivals > 0, "no arrival refilled the scratch");
    }

    #[test]
    fn checkpoint_roundtrip_resumes_bit_identically() {
        let cluster = ClusterSpec::heterogeneous(6);
        let scenario = ckpt_scenario();

        // Uninterrupted streaming reference.
        let reference = {
            let sim = FleetSim::new(&cluster, ckpt_params(2));
            let mut cursor = ckpt_cursor();
            let mut dispatcher = PhaseAware::default();
            let mut cache = PolicyCache::new(8);
            let mut telemetry = FlightRecorder::off();
            let mut k = sim.resident(
                &mut cursor,
                &mut dispatcher,
                &mut cache,
                &scenario,
                &mut telemetry,
                false,
            );
            k.run();
            k.finish()
        };

        // Interrupted run: step partway, checkpoint, keep going —
        // taking the checkpoint must not perturb the run.
        let (bytes, undisturbed) = {
            let sim = FleetSim::new(&cluster, ckpt_params(2));
            let mut cursor = ckpt_cursor();
            let mut dispatcher = PhaseAware::default();
            let mut cache = PolicyCache::new(8);
            let mut telemetry = FlightRecorder::off();
            let mut k = sim.resident(
                &mut cursor,
                &mut dispatcher,
                &mut cache,
                &scenario,
                &mut telemetry,
                false,
            );
            for _ in 0..40 {
                assert!(k.step(), "fixture must checkpoint mid-run");
            }
            let bytes = k.checkpoint();
            k.run();
            (bytes, k.finish())
        };
        assert_eq!(ckpt_fingerprint(&reference), ckpt_fingerprint(&undisturbed));

        // Restore into a fresh kernel (same config, same K) and drain.
        let resumed = {
            let sim = FleetSim::new(&cluster, ckpt_params(2));
            let mut cursor = ckpt_cursor();
            let mut dispatcher = PhaseAware::default();
            let mut cache = PolicyCache::new(8);
            let mut telemetry = FlightRecorder::off();
            let mut k = sim.resident(
                &mut cursor,
                &mut dispatcher,
                &mut cache,
                &scenario,
                &mut telemetry,
                false,
            );
            k.restore(&bytes).expect("restore succeeds");
            k.run();
            k.finish()
        };
        assert_eq!(ckpt_fingerprint(&reference), ckpt_fingerprint(&resumed));

        // Resume under a different shard count: everything but the
        // execution-plane counters is still bit-identical.
        let resumed_k5 = {
            let sim = FleetSim::new(&cluster, ckpt_params(5));
            let mut cursor = ckpt_cursor();
            let mut dispatcher = PhaseAware::default();
            let mut cache = PolicyCache::new(8);
            let mut telemetry = FlightRecorder::off();
            let mut k = sim.resident(
                &mut cursor,
                &mut dispatcher,
                &mut cache,
                &scenario,
                &mut telemetry,
                false,
            );
            k.restore(&bytes).expect("restore under a new K succeeds");
            k.run();
            k.finish()
        };
        assert_eq!(
            ckpt_fingerprint_any_k(&reference),
            ckpt_fingerprint_any_k(&resumed_k5)
        );
    }

    #[test]
    fn checkpoint_rejects_malformed_bytes() {
        let cluster = ClusterSpec::heterogeneous(6);
        let scenario = ckpt_scenario();
        let sim = FleetSim::new(&cluster, ckpt_params(2));
        let mut cursor = ckpt_cursor();
        let mut dispatcher = PhaseAware::default();
        let mut cache = PolicyCache::new(8);
        let mut telemetry = FlightRecorder::off();
        let mut k = sim.resident(
            &mut cursor,
            &mut dispatcher,
            &mut cache,
            &scenario,
            &mut telemetry,
            false,
        );
        for _ in 0..40 {
            assert!(k.step());
        }
        let bytes = k.checkpoint();

        // Any single byte flip anywhere is caught by the checksum.
        for at in [0, 4, 12, bytes.len() / 2, bytes.len() - 9] {
            let mut bad = bytes.clone();
            bad[at] ^= 0x40;
            assert!(
                k.restore(&bad).is_err(),
                "byte flip at {at} must be rejected"
            );
        }
        // Truncation at any point is rejected.
        for cut in [0, 7, 8, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                k.restore(&bytes[..cut]).is_err(),
                "truncation to {cut} bytes must be rejected"
            );
        }
        // Bad magic and bad version (re-sealed so the checksum passes)
        // fail with their specific errors.
        let payload = &bytes[..bytes.len() - 8];
        let mut magic = payload.to_vec();
        magic[0] = b'X';
        assert_eq!(
            k.restore(&checkpoint::seal(magic)),
            Err(CheckpointError::BadMagic)
        );
        let mut version = payload.to_vec();
        version[4..8].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            k.restore(&checkpoint::seal(version)),
            Err(CheckpointError::BadVersion { found: 99, .. })
        ));
        // A checkpoint from a different configuration is refused.
        let other = {
            let sim2 = FleetSim::new(&cluster, ckpt_params(2));
            let mut c2 = ckpt_cursor();
            let mut d2 = PhaseAware::default();
            let mut cache2 = PolicyCache::new(8);
            let mut t2 = FlightRecorder::off();
            let s2 = Scenario::online(PolicyMode::Warm); // no feedback: different label
            let mut k2 = sim2.resident(&mut c2, &mut d2, &mut cache2, &s2, &mut t2, false);
            k2.step();
            k2.checkpoint()
        };
        assert!(matches!(
            k.restore(&other),
            Err(CheckpointError::ConfigMismatch { .. })
        ));

        // Every rejection above left the kernel untouched: the good
        // bytes still restore and the run still drains cleanly.
        k.restore(&bytes)
            .expect("good bytes restore after rejections");
        k.run();
        let out = k.finish();
        assert_eq!(
            out.kernel.arrivals,
            out.kernel.completions + out.kernel.dropped
        );
    }
}
