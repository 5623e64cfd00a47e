//! Live cluster state: what the event kernel maintains and what online
//! dispatchers observe.
//!
//! The batch simulator of earlier revisions handed dispatchers a
//! precomputed view (estimated backlogs accumulated during a single
//! sequential planning pass). The event kernel instead exposes *this*
//! structure — per-board queues, the in-flight job, liveness, and
//! utilisation so far — updated by arrival/completion/churn events as
//! they happen. [`DispatchMode`] selects which backlog estimate a
//! dispatcher sees:
//!
//! * [`DispatchMode::Oracle`] reproduces the batch semantics: each
//!   board's backlog is a write-only accumulator of profiled service
//!   estimates, never corrected by completions. Same cluster, params
//!   and stream ⇒ the same placements the three-stage batch produced.
//! * [`DispatchMode::Online`] derives the backlog from live state: the
//!   in-flight job's *profiled* remaining time (observable — the kernel
//!   never leaks the true completion instant it has already scheduled)
//!   plus the profiled service of everything queued. Completed work
//!   drops out immediately, so the estimate tracks reality through
//!   bursts, estimate error and board churn.

use crate::cluster::ClusterSpec;
use crate::index::{BoardClass, DispatchIndex};
use crate::job::{JobOutcome, JobSpec, Taxon};
use astro_core::schedule::StaticSchedule;
use std::cell::Cell;
use std::collections::VecDeque;

/// What backlog estimate dispatchers observe.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DispatchMode {
    /// Batch-equivalent: profiled-estimate accumulators, blind to
    /// completions and churn (the earlier three-stage semantics).
    Oracle,
    /// Live: backlog recomputed from the actual queue and in-flight
    /// state at every decision.
    Online,
}

impl DispatchMode {
    /// Label for reports.
    pub fn name(self) -> &'static str {
        match self {
            DispatchMode::Oracle => "oracle",
            DispatchMode::Online => "online",
        }
    }
}

/// Why the kernel dropped a job instead of completing it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum DropReason {
    /// No board was up to take the job (arrival or churn
    /// redistribution with the whole fleet down).
    NoBoardUp,
    /// The job exhausted the scenario's churn-redispatch cap
    /// ([`Scenario::max_redispatches`](crate::kernel::Scenario)) while
    /// its board was down.
    MigrationCap,
}

impl DropReason {
    /// Stable label for reports.
    pub fn name(self) -> &'static str {
        match self {
            DropReason::NoBoardUp => "no-board-up",
            DropReason::MigrationCap => "migration-cap",
        }
    }
}

/// One dropped job: which, and why. Dropped jobs have no
/// [`JobOutcome`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DroppedJob {
    /// The job's stream id.
    pub id: u32,
    /// Why it was dropped.
    pub reason: DropReason,
}

/// A job the kernel has dispatched to a board but not yet started.
#[derive(Clone, Debug)]
pub struct QueuedJob {
    /// The job.
    pub job: JobSpec,
    /// Resolved latency SLO, seconds.
    pub slo_s: f64,
    /// `Some((schedule, version))` when a cached Astro policy applies.
    pub schedule: Option<(StaticSchedule, u32)>,
    /// Architecture key the schedule was resolved for (a migration to a
    /// different architecture must re-resolve or run cold).
    pub sched_arch: &'static str,
    /// Service estimate on the board currently queuing it (excludes
    /// migration penalties). With observed-service feedback enabled
    /// this is the profiled estimate times the learned correction;
    /// otherwise it equals [`QueuedJob::profiled_s`].
    pub est_service_s: f64,
    /// Uncorrected profiled service estimate — the reference the
    /// feedback layer compares observed service against.
    pub profiled_s: f64,
    /// Accumulated migration cost, added to the real service time.
    pub penalty_s: f64,
    /// Times this job has been migrated (preemption + churn).
    pub migrations: u32,
    /// Times this job was redistributed by board *churn* specifically —
    /// the counter [`Scenario::max_redispatches`](crate::kernel::Scenario)
    /// caps. Preemptive migrations do not count here (though both
    /// kinds of move count towards the total in
    /// [`QueuedJob::migrations`], which is what `max_migrations`
    /// gates — the PR 4 semantics).
    pub redispatches: u32,
}

impl QueuedJob {
    /// Estimated service including accumulated migration penalties.
    #[inline]
    pub fn est_total_s(&self) -> f64 {
        self.est_service_s + self.penalty_s
    }
}

/// The job a board is currently executing. The true completion time is
/// kernel-private (a scheduled event); dispatchers only see the
/// profiled estimate.
#[derive(Clone, Debug)]
pub struct InFlight {
    /// Stream id.
    pub id: u32,
    /// Taxonomy of the running job (observable co-location signal).
    pub taxon: Taxon,
    /// When service began, seconds.
    pub start_s: f64,
    /// `start + estimate` — the observable finish prediction.
    pub est_finish_s: f64,
    /// Uncorrected profiled service estimate, carried so the
    /// completion event can feed the observed/profiled ratio to the
    /// feedback layer.
    pub profiled_s: f64,
    /// True service time of the run itself, excluding migration
    /// penalties — what the feedback layer observes.
    pub raw_service_s: f64,
    /// The resolved outcome, revealed at the completion event.
    pub(crate) outcome: JobOutcome,
}

/// One board's live state.
///
/// The dispatched-but-not-started queue is private: every mutation
/// goes through [`BoardState::enqueue`] / [`BoardState::pop_next`] /
/// `take_queued` / `set_queued` so the
/// board's queue revision counter stays honest — the busy-until memo
/// below is validated against it.
#[derive(Clone, Debug)]
pub struct BoardState {
    /// Is the board accepting and executing work? Writes go through
    /// [`ClusterState::set_up`], which keeps the dense placeability
    /// array in sync.
    pub(crate) up: bool,
    /// Dispatched-but-not-started jobs, FIFO.
    queue: VecDeque<QueuedJob>,
    /// Bumped on every queue mutation; the busy-until memo is valid
    /// only while its fill epoch equals this.
    queue_epoch: u64,
    /// Epoch `busy_until_from` last filled the memo at
    /// (starts behind `queue_epoch`, i.e. invalid).
    memo_epoch: Cell<u64>,
    /// Bit pattern of the fold base the memo was filled from. The
    /// base bakes in `now_s` and the in-flight estimate, so comparing
    /// bits catches both moving between queries.
    memo_base: Cell<u64>,
    /// The memoised fold result.
    memo_value: Cell<f64>,
    /// The job in service, if any.
    pub in_flight: Option<InFlight>,
    /// Jobs ever dispatched here (including later migrated away).
    pub dispatched: usize,
    /// Jobs completed here.
    pub completed: usize,
    /// Accumulated service seconds.
    pub busy_s: f64,
    /// Composed thermal-throttle slowdown applied to the service time
    /// of every job *started* while it holds (1.0 = full speed). Only
    /// control-plane chaos events change it, so it is constant between
    /// control timestamps — the shard-invariance requirement.
    pub slowdown: f64,
    /// Active throttle windows as `(clause index, factor)`, insertion
    /// order; [`BoardState::recompute_slowdown`] folds them.
    pub(crate) throttles: Vec<(u32, f64)>,
    /// Overlapping dispatch-blackout windows currently covering the
    /// board (0 = placeable whenever up).
    pub(crate) blackouts: u32,
    /// Jobs that began service here with `slowdown > 1` (chaos
    /// accounting, summed into
    /// [`ChaosStats`](crate::chaos::ChaosStats) at run end).
    pub(crate) throttled_starts: u64,
    /// Oracle-mode backlog accumulator (batch stage-1 semantics).
    pub(crate) oracle_busy_until_s: f64,
}

impl BoardState {
    fn new() -> Self {
        BoardState {
            up: true,
            queue: VecDeque::new(),
            queue_epoch: 1,
            memo_epoch: Cell::new(0),
            memo_base: Cell::new(0),
            memo_value: Cell::new(0.0),
            in_flight: None,
            dispatched: 0,
            completed: 0,
            busy_s: 0.0,
            slowdown: 1.0,
            throttles: Vec::new(),
            blackouts: 0,
            throttled_starts: 0,
            oracle_busy_until_s: 0.0,
        }
    }

    /// Dispatched-but-not-started jobs, queue order.
    pub fn queued(&self) -> impl Iterator<Item = &QueuedJob> {
        self.queue.iter()
    }

    /// Dispatched-but-not-started jobs on this board.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Is the dispatch queue empty?
    #[inline]
    pub fn queue_is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Append `job` to the queue. The busy-until memo extends in
    /// place when it is live: the fold is left-to-right, and
    /// appending one term to a left fold produces bitwise the fold
    /// over the longer queue — so back-to-back arrivals on a busy
    /// board never re-walk the queue. Public so harnesses (the
    /// `arena_enqueue_dequeue` micro-benchmark) can exercise the
    /// queue-arena hot path directly; both mutators keep the memo
    /// bookkeeping consistent, so outside use cannot corrupt state.
    pub fn enqueue(&mut self, job: QueuedJob) {
        let memo_live = self.memo_epoch.get() == self.queue_epoch;
        if memo_live {
            self.memo_value
                .set(self.memo_value.get() + job.est_total_s());
        }
        self.queue.push_back(job);
        self.queue_epoch += 1;
        if memo_live {
            self.memo_epoch.set(self.queue_epoch);
        }
    }

    /// Pop the next queued job (service order). Invalidates the
    /// busy-until memo: removing the *front* term changes the fold's
    /// shape, and re-associating floating-point sums is not bitwise
    /// stable — the next query re-folds.
    pub fn pop_next(&mut self) -> Option<QueuedJob> {
        self.queue_epoch += 1;
        self.queue.pop_front()
    }

    /// Take the whole queue (churn redispatch), leaving it empty.
    pub(crate) fn take_queued(&mut self) -> VecDeque<QueuedJob> {
        self.queue_epoch += 1;
        std::mem::take(&mut self.queue)
    }

    /// Replace the queue wholesale (preemption rebuild).
    pub(crate) fn set_queued(&mut self, queue: VecDeque<QueuedJob>) {
        self.queue_epoch += 1;
        self.queue = queue;
    }

    /// Left fold of the queued estimates from `base`, memoised per
    /// `(queue epoch, base bits)`. A hit returns bitwise what the
    /// re-fold would: the fold is a pure function of the base bits
    /// and the queue contents, both pinned by the key.
    #[inline]
    fn busy_until_from(&self, base: f64) -> f64 {
        if self.memo_epoch.get() == self.queue_epoch && self.memo_base.get() == base.to_bits() {
            return self.memo_value.get();
        }
        let mut t = base;
        for q in &self.queue {
            t += q.est_total_s();
        }
        self.memo_base.set(base.to_bits());
        self.memo_value.set(t);
        self.memo_epoch.set(self.queue_epoch);
        t
    }

    /// Serialise this board for a kernel checkpoint. The busy-until
    /// memo and queue epoch are *not* written: the memo is a pure cache
    /// (a fresh board refolds to bitwise the same value) and the epoch
    /// only orders memo validity.
    pub(crate) fn encode(&self, enc: &mut crate::checkpoint::Enc) {
        enc.bool(self.up);
        enc.usize(self.queue.len());
        for q in &self.queue {
            crate::checkpoint::enc_queued_job(enc, q);
        }
        match &self.in_flight {
            None => enc.bool(false),
            Some(f) => {
                enc.bool(true);
                enc.u32(f.id);
                crate::checkpoint::enc_taxon(enc, f.taxon);
                enc.f64(f.start_s);
                enc.f64(f.est_finish_s);
                enc.f64(f.profiled_s);
                enc.f64(f.raw_service_s);
                crate::checkpoint::enc_outcome(enc, &f.outcome);
            }
        }
        enc.usize(self.dispatched);
        enc.usize(self.completed);
        enc.f64(self.busy_s);
        enc.usize(self.throttles.len());
        for &(clause, factor) in &self.throttles {
            enc.u32(clause);
            enc.f64(factor);
        }
        enc.u32(self.blackouts);
        enc.u64(self.throttled_starts);
        enc.f64(self.oracle_busy_until_s);
    }

    /// Decode a board serialised by [`BoardState::encode`]. The
    /// slowdown is refolded from the restored throttle windows —
    /// bitwise what the uninterrupted run carries, since
    /// [`BoardState::recompute_slowdown`] is a pure fold of the list.
    pub(crate) fn decode(
        dec: &mut crate::checkpoint::Dec<'_>,
        arch_keys: &[&'static str],
        n_boards: usize,
        n_throttle_clauses: usize,
    ) -> Result<Self, crate::checkpoint::CheckpointError> {
        use crate::checkpoint::CheckpointError;
        let mut board = BoardState::new();
        board.up = dec.bool()?;
        let n = dec.count(8)?;
        for _ in 0..n {
            board
                .queue
                .push_back(crate::checkpoint::dec_queued_job(dec, arch_keys)?);
        }
        if dec.bool()? {
            let id = dec.u32()?;
            let taxon = crate::checkpoint::dec_taxon(dec)?;
            let start_s = dec.f64()?;
            let est_finish_s = dec.f64()?;
            let profiled_s = dec.f64()?;
            let raw_service_s = dec.f64()?;
            let outcome = crate::checkpoint::dec_outcome(dec, n_boards)?;
            if !outcome.finish_s.is_finite() {
                return Err(CheckpointError::Corrupt(
                    "in-flight completion time is not finite",
                ));
            }
            board.in_flight = Some(InFlight {
                id,
                taxon,
                start_s,
                est_finish_s,
                profiled_s,
                raw_service_s,
                outcome,
            });
        }
        board.dispatched = dec.usize()?;
        board.completed = dec.usize()?;
        board.busy_s = dec.f64()?;
        let n = dec.count(12)?;
        for _ in 0..n {
            let clause = dec.u32()?;
            if clause as usize >= n_throttle_clauses {
                return Err(CheckpointError::Corrupt(
                    "throttle window names an out-of-range chaos clause",
                ));
            }
            board.throttles.push((clause, dec.f64()?));
        }
        board.blackouts = dec.u32()?;
        board.throttled_starts = dec.u64()?;
        board.oracle_busy_until_s = dec.f64()?;
        board.recompute_slowdown();
        Ok(board)
    }

    /// Refold the composed slowdown from the active throttle windows:
    /// overlapping windows compose *multiplicatively* (two 2x
    /// throttles make a 4x slowdown), clamped to
    /// [`MAX_SLOWDOWN`](crate::chaos::MAX_SLOWDOWN). Recomputed from
    /// the window list on every change — never divided back out — so
    /// a window closing mid-overlap restores the exact product of
    /// what remains, bit-for-bit.
    pub(crate) fn recompute_slowdown(&mut self) {
        let mut s = 1.0;
        for &(_, f) in &self.throttles {
            s *= f;
        }
        self.slowdown = s.clamp(1.0, crate::chaos::MAX_SLOWDOWN);
    }
}

/// The cluster as the kernel and dispatchers see it at one instant.
///
/// Placeability — the one predicate every dispatcher scans per
/// arrival — is mirrored into a dense `Vec<bool>` maintained at
/// liveness/blackout edges, so the scan walks a flat byte array
/// instead of striding through [`BoardState`] structs; a live count
/// makes [`ClusterState::any_placeable`] O(1).
#[derive(Clone, Debug)]
pub struct ClusterState<'a> {
    /// The static board specs.
    pub spec: &'a ClusterSpec,
    /// Which backlog estimate [`ClusterState::est_busy_until_s`] serves.
    pub mode: DispatchMode,
    /// The virtual clock, seconds.
    pub now_s: f64,
    /// Per-board live state, dispatch index order.
    pub boards: Vec<BoardState>,
    /// Dense mirror of `up && blackouts == 0`, maintained by
    /// [`ClusterState::set_up`] / the blackout mutators.
    placeable: Vec<bool>,
    /// How many entries of `placeable` are true.
    n_placeable: usize,
    /// Incrementally maintained argmin index over placeable boards
    /// (see [`crate::index`]). Disabled unless the owner opts in with
    /// [`ClusterState::rebuild_dispatch_index`] and repairs it at every
    /// board mutation — the kernel does; hand-built states usually
    /// leave it off and dispatchers fall back to the reference scan.
    index: DispatchIndex,
}

impl<'a> ClusterState<'a> {
    /// Fresh state: every board up, idle and empty at time zero.
    pub fn new(spec: &'a ClusterSpec, mode: DispatchMode) -> Self {
        ClusterState {
            spec,
            mode,
            now_s: 0.0,
            boards: (0..spec.len()).map(|_| BoardState::new()).collect(),
            placeable: vec![true; spec.len()],
            n_placeable: spec.len(),
            index: DispatchIndex::default(),
        }
    }

    /// Enable the dispatch index and (re)build it from the current
    /// board state. After this, every board mutation made outside
    /// [`ClusterState`]'s own mutators must be followed by
    /// [`ClusterState::refresh_dispatch_index`] on the touched board,
    /// and every clock move must go through the kernel's advance path —
    /// the contract the event kernel upholds. Indexed picks also need
    /// the estimates handed to dispatchers to be per architecture class
    /// ([`JobEstimates::per_arch`](crate::dispatch::JobEstimates::per_arch),
    /// what the kernel hands out); they assert the class counts agree.
    ///
    /// Fleets smaller than `INDEX_MIN_BOARDS` (32, in `crate::index`)
    /// keep the index disabled — a linear scan over a few dozen boards
    /// is cheaper than maintaining the orderings, and both paths pick
    /// identically, so this is purely a performance threshold.
    pub fn rebuild_dispatch_index(&mut self) {
        if self.len() >= crate::index::INDEX_MIN_BOARDS {
            self.enable_dispatch_index();
        }
    }

    /// Unconditionally enable and (re)build the index, regardless of
    /// fleet size. Tests use this to exercise the indexed paths on
    /// small hand-built clusters.
    pub(crate) fn enable_dispatch_index(&mut self) {
        let (keys, arch_of) = self.spec.arch_classes();
        self.index.reset(arch_of, keys.len());
        for b in 0..self.len() {
            self.refresh_dispatch_index(b);
        }
    }

    /// Seed the oracle-mode busy-until accumulator for board `b` and
    /// repair its dispatch index entry. Support for benches and tests
    /// that need a loaded fleet without running the kernel (which
    /// maintains the accumulator itself as it dispatches); only
    /// meaningful in [`DispatchMode::Oracle`].
    pub fn seed_oracle_backlog(&mut self, b: usize, busy_until_s: f64) {
        self.boards[b].oracle_busy_until_s = busy_until_s;
        self.refresh_dispatch_index(b);
    }

    /// The dispatch index, when enabled (dispatchers consult this to
    /// choose the indexed pick path).
    #[inline]
    pub(crate) fn dispatch_index(&self) -> Option<&DispatchIndex> {
        if self.index.enabled {
            Some(&self.index)
        } else {
            None
        }
    }

    /// Classify board `b` for the dispatch index from its live state
    /// (see [`crate::index`] for the class invariants).
    fn classify_board(&self, b: usize) -> BoardClass {
        if !self.placeable[b] {
            return BoardClass::None;
        }
        let busy = self.est_busy_until_s(b);
        if busy <= self.now_s {
            // Backlog is exactly 0.0 and stays 0.0 as the clock moves:
            // in online mode `busy <= now` forces the fold base to be
            // `now` with a zero queue sum, in oracle mode the
            // accumulator only falls further behind.
            return BoardClass::Zero {
                disp_bits: (self.boards[b].dispatched as f64).to_bits(),
            };
        }
        match self.mode {
            DispatchMode::Oracle => BoardClass::Ordered {
                busy_bits: busy.to_bits(),
                ifl_bits: None,
            },
            DispatchMode::Online => match &self.boards[b].in_flight {
                Some(f) if f.est_finish_s >= self.now_s => BoardClass::Ordered {
                    busy_bits: busy.to_bits(),
                    ifl_bits: Some(f.est_finish_s.to_bits()),
                },
                // A lapsed in-flight estimate (or an idle board with
                // queued work) folds from `now`: clock-dependent.
                // Bucketed by lapse time (0 for idle-with-queue) so
                // the stale set keeps a deterministic order for the
                // cached view to rebuild from.
                Some(f) => BoardClass::Stale {
                    lapse_bits: f.est_finish_s.to_bits(),
                },
                None => BoardClass::Stale { lapse_bits: 0 },
            },
        }
    }

    /// Re-file board `b` in the dispatch index after any mutation that
    /// can move its busy-until estimate, dispatch count, in-flight
    /// state or placeability. No-op while the index is disabled.
    #[inline]
    pub fn refresh_dispatch_index(&mut self, b: usize) {
        if !self.index.enabled {
            return;
        }
        let class = self.classify_board(b);
        self.index.set_class(b, class);
    }

    /// Advance the virtual clock to at least `time_s`, sweeping the
    /// dispatch index: ordered boards the clock has caught up with
    /// reclassify (their backlog just hit zero), and online boards
    /// whose in-flight estimate has lapsed demote out of the ordered
    /// class (their busy-until is now clock-dependent). Each board is
    /// swept at most once per insertion.
    pub(crate) fn advance_now(&mut self, time_s: f64) {
        self.now_s = self.now_s.max(time_s);
        if !self.index.enabled {
            return;
        }
        let now_bits = self.now_s.to_bits();
        while let Some(b) = self.index.ordered_lapsed(now_bits) {
            self.refresh_dispatch_index(b);
        }
        while let Some(b) = self.index.inflight_lapsed(now_bits) {
            self.refresh_dispatch_index(b);
        }
    }

    /// Set board `b`'s liveness, keeping the placeability mirror in
    /// sync. The only sanctioned way to flip `up`.
    pub(crate) fn set_up(&mut self, b: usize, up: bool) {
        self.boards[b].up = up;
        self.refresh_placeable(b);
    }

    /// Open a dispatch-blackout window over board `b`.
    pub(crate) fn add_blackout(&mut self, b: usize) {
        self.boards[b].blackouts += 1;
        self.refresh_placeable(b);
    }

    /// Close one dispatch-blackout window over board `b`.
    pub(crate) fn remove_blackout(&mut self, b: usize) {
        debug_assert!(self.boards[b].blackouts > 0, "unbalanced blackout window");
        self.boards[b].blackouts -= 1;
        self.refresh_placeable(b);
    }

    fn refresh_placeable(&mut self, b: usize) {
        let s = &self.boards[b];
        let now = s.up && s.blackouts == 0;
        if now != self.placeable[b] {
            self.placeable[b] = now;
            if now {
                self.n_placeable += 1;
            } else {
                self.n_placeable -= 1;
            }
        }
        // Placeability edges move boards in and out of the dispatch
        // index (a board in no class is invisible to indexed picks).
        self.refresh_dispatch_index(b);
    }

    /// Replace every board with checkpoint-restored state, then rebuild
    /// the derived structures that are *not* serialised: the dense
    /// placeability mirror, its live count, and the dispatch index.
    /// The caller must have set `now_s` to the checkpoint's clock
    /// first — index classification is clock-dependent.
    pub(crate) fn restore_boards(&mut self, boards: Vec<BoardState>) {
        assert_eq!(boards.len(), self.len(), "restore with matching fleet size");
        self.boards = boards;
        self.n_placeable = 0;
        for b in 0..self.boards.len() {
            let s = &self.boards[b];
            self.placeable[b] = s.up && s.blackouts == 0;
            if self.placeable[b] {
                self.n_placeable += 1;
            }
        }
        if self.index.enabled {
            self.enable_dispatch_index();
        } else {
            self.rebuild_dispatch_index();
        }
    }

    /// Number of boards (up or down).
    pub fn len(&self) -> usize {
        self.boards.len()
    }

    /// Is the cluster empty of boards entirely?
    pub fn is_empty(&self) -> bool {
        self.boards.is_empty()
    }

    /// Is board `b` currently up?
    #[inline]
    pub fn up(&self, b: usize) -> bool {
        self.boards[b].up
    }

    /// Indices of the boards currently up, ascending.
    pub fn up_boards(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.len()).filter(|&b| self.boards[b].up)
    }

    /// Is any board up?
    pub fn any_up(&self) -> bool {
        self.boards.iter().any(|b| b.up)
    }

    /// May the dispatcher place new work on board `b`? Up *and* not
    /// under a chaos dispatch blackout. A blacked-out board keeps
    /// executing its queue — it is only closed to new placements.
    #[inline]
    pub fn placeable(&self, b: usize) -> bool {
        self.placeable[b]
    }

    /// Indices of the boards new work may be placed on, ascending —
    /// a dense flat-array scan, the shape dispatchers walk per pick.
    #[inline]
    pub fn placeable_boards(&self) -> impl Iterator<Item = usize> + '_ {
        self.placeable
            .iter()
            .enumerate()
            .filter_map(|(b, &p)| p.then_some(b))
    }

    /// Can new work be placed anywhere? O(1): a maintained count.
    pub fn any_placeable(&self) -> bool {
        self.n_placeable > 0
    }

    /// Dispatched-but-not-started jobs on board `b`.
    pub fn queue_depth(&self, b: usize) -> usize {
        self.boards[b].queue_len()
    }

    /// Taxonomy of the job board `b` is executing, if any.
    pub fn in_flight_taxon(&self, b: usize) -> Option<Taxon> {
        self.boards[b].in_flight.as_ref().map(|f| f.taxon)
    }

    /// Taxa queued on board `b`, queue order. Borrows instead of
    /// collecting — callers that need a `Vec` can `collect()`, hot
    /// paths iterate allocation-free.
    pub fn queued_taxa(&self, b: usize) -> impl Iterator<Item = Taxon> + '_ {
        self.boards[b].queued().map(|q| q.job.taxon)
    }

    /// Jobs ever dispatched to board `b`.
    pub fn dispatched(&self, b: usize) -> usize {
        self.boards[b].dispatched
    }

    /// Fraction of elapsed virtual time board `b` spent serving.
    pub fn utilisation(&self, b: usize) -> f64 {
        if self.now_s > 0.0 {
            self.boards[b].busy_s / self.now_s
        } else {
            0.0
        }
    }

    /// When board `b`'s backlog is estimated to drain, per the mode:
    /// oracle = the batch accumulator; online = observable in-flight
    /// remaining plus queued profiled service.
    #[inline]
    pub fn est_busy_until_s(&self, b: usize) -> f64 {
        match self.mode {
            DispatchMode::Oracle => self.boards[b].oracle_busy_until_s,
            DispatchMode::Online => self.online_busy_until_s(b),
        }
    }

    /// The live estimate, regardless of mode (what preemption scans and
    /// churn redistribution always use — they are online capabilities).
    ///
    /// Memoised per `(queue epoch, base bits)` on the board (see
    /// `BoardState::busy_until_from`): dispatchers query every
    /// board several times per pick against an unchanged clock and
    /// queue, and at high utilisation the fold base — the in-flight
    /// finish estimate — holds still across whole arrival bursts, so
    /// the common case is O(1) instead of a queue walk.
    #[inline]
    pub fn online_busy_until_s(&self, b: usize) -> f64 {
        let s = &self.boards[b];
        let base = match &s.in_flight {
            Some(f) => f.est_finish_s.max(self.now_s),
            None => self.now_s,
        };
        s.busy_until_from(base)
    }

    /// Queueing delay a job dispatched now would see on board `b`.
    #[inline]
    pub fn backlog_s(&self, b: usize) -> f64 {
        (self.est_busy_until_s(b) - self.now_s).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobClass;

    fn qj(est: f64, penalty: f64) -> QueuedJob {
        QueuedJob {
            job: JobSpec {
                id: 0,
                workload: astro_workloads::by_name("swaptions").unwrap(),
                taxon: Taxon {
                    class: JobClass::Mixed,
                    signature: 0,
                },
                arrival_s: 0.0,
                slo_tightness: 4.0,
                seed: 1,
            },
            slo_s: 1.0,
            schedule: None,
            sched_arch: "odroid-xu4",
            est_service_s: est,
            profiled_s: est,
            penalty_s: penalty,
            migrations: 0,
            redispatches: 0,
        }
    }

    #[test]
    fn online_backlog_tracks_queue_and_in_flight() {
        let spec = ClusterSpec::heterogeneous(2);
        let mut st = ClusterState::new(&spec, DispatchMode::Online);
        st.now_s = 10.0;
        assert_eq!(st.backlog_s(0), 0.0);
        st.boards[0].enqueue(qj(2.0, 0.5));
        st.boards[0].enqueue(qj(1.0, 0.0));
        // Idle board: backlog is the queued estimates (incl. penalties).
        assert!((st.backlog_s(0) - 3.5).abs() < 1e-12);
        assert_eq!(st.queue_depth(0), 2);
        assert_eq!(st.queued_taxa(0).count(), 2);
        // A stale in-flight estimate clamps to now.
        st.boards[0].in_flight = Some(InFlight {
            id: 9,
            taxon: qj(1.0, 0.0).job.taxon,
            start_s: 5.0,
            est_finish_s: 8.0, // already past
            profiled_s: 3.0,
            raw_service_s: 7.0,
            outcome: crate::job::JobOutcome {
                id: 9,
                workload: "w",
                class: JobClass::Mixed,
                board: 0,
                arrival_s: 0.0,
                start_s: 5.0,
                finish_s: 12.0,
                service_s: 7.0,
                energy_j: 1.0,
                slo_s: 1.0,
                migrations: 0,
            },
        });
        assert!((st.backlog_s(0) - 3.5).abs() < 1e-12);
        assert!(st.in_flight_taxon(0).is_some());
    }

    #[test]
    fn busy_until_memo_is_bit_identical_and_invalidates() {
        let spec = ClusterSpec::heterogeneous(1);
        let mut st = ClusterState::new(&spec, DispatchMode::Online);
        st.now_s = 3.0;
        let terms = [qj(2.0, 0.1), qj(1.5, 0.0), qj(0.7, 0.2)];
        let fold = |base: f64, jobs: &[QueuedJob]| {
            let mut t = base;
            for j in jobs {
                t += j.est_total_s();
            }
            t
        };
        st.boards[0].enqueue(terms[0].clone());
        st.boards[0].enqueue(terms[1].clone());
        let first = st.online_busy_until_s(0); // fills the memo
        assert_eq!(first.to_bits(), st.online_busy_until_s(0).to_bits());
        assert_eq!(first.to_bits(), fold(3.0, &terms[..2]).to_bits());
        // Appending extends the memo in place — bitwise the re-fold.
        st.boards[0].enqueue(terms[2].clone());
        assert_eq!(
            st.online_busy_until_s(0).to_bits(),
            fold(3.0, &terms).to_bits()
        );
        // A clock move changes the fold base: the memo must miss.
        st.now_s = 4.0;
        assert_eq!(
            st.online_busy_until_s(0).to_bits(),
            fold(4.0, &terms).to_bits()
        );
        // Popping the front re-shapes the fold: memo invalidated.
        let popped = st.boards[0].pop_next().expect("queued");
        assert_eq!(
            popped.est_total_s().to_bits(),
            terms[0].est_total_s().to_bits()
        );
        assert_eq!(
            st.online_busy_until_s(0).to_bits(),
            fold(4.0, &terms[1..]).to_bits()
        );
        assert_eq!(st.queue_depth(0), 2);
    }

    #[test]
    fn oracle_backlog_is_the_accumulator() {
        let spec = ClusterSpec::heterogeneous(2);
        let mut st = ClusterState::new(&spec, DispatchMode::Oracle);
        st.now_s = 4.0;
        st.boards[1].oracle_busy_until_s = 9.0;
        assert!((st.backlog_s(1) - 5.0).abs() < 1e-12);
        // Queue contents do not move the oracle estimate.
        st.boards[1].enqueue(qj(100.0, 0.0));
        assert!((st.backlog_s(1) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn slowdown_composes_multiplicatively_and_clamps() {
        let spec = ClusterSpec::heterogeneous(1);
        let mut st = ClusterState::new(&spec, DispatchMode::Online);
        let b = &mut st.boards[0];
        assert_eq!(b.slowdown, 1.0);
        b.throttles.push((0, 3.0));
        b.recompute_slowdown();
        assert_eq!(b.slowdown, 3.0);
        // Overlapping windows compose multiplicatively.
        b.throttles.push((1, 4.0));
        b.recompute_slowdown();
        assert_eq!(b.slowdown, 12.0);
        // A pathological stack clamps at MAX_SLOWDOWN.
        b.throttles.push((2, 100.0));
        b.recompute_slowdown();
        assert_eq!(b.slowdown, crate::chaos::MAX_SLOWDOWN);
        // Windows close in any order; the fold restores the exact
        // product of what remains.
        b.throttles.retain(|&(c, _)| c != 2);
        b.recompute_slowdown();
        assert_eq!(b.slowdown, 12.0);
        b.throttles.clear();
        b.recompute_slowdown();
        assert_eq!(b.slowdown, 1.0);
    }

    #[test]
    fn blackouts_gate_placement_but_not_liveness() {
        let spec = ClusterSpec::heterogeneous(3);
        let mut st = ClusterState::new(&spec, DispatchMode::Online);
        assert!(st.any_placeable());
        st.add_blackout(0);
        st.set_up(1, false);
        assert!(st.up(0), "blacked-out board stays up");
        assert!(!st.placeable(0));
        assert!(!st.placeable(1), "down board is never placeable");
        assert_eq!(st.placeable_boards().collect::<Vec<_>>(), vec![2]);
        // Overlapping blackouts: both must end before placement.
        st.add_blackout(2);
        st.add_blackout(2);
        assert!(!st.any_placeable());
        st.remove_blackout(2);
        assert!(!st.any_placeable());
        st.remove_blackout(2);
        assert!(st.any_placeable());
    }

    #[test]
    fn liveness_and_utilisation() {
        let spec = ClusterSpec::heterogeneous(3);
        let mut st = ClusterState::new(&spec, DispatchMode::Online);
        assert!(st.any_up());
        assert_eq!(st.up_boards().count(), 3);
        st.set_up(1, false);
        assert_eq!(st.up_boards().collect::<Vec<_>>(), vec![0, 2]);
        st.now_s = 10.0;
        st.boards[0].busy_s = 2.5;
        assert!((st.utilisation(0) - 0.25).abs() < 1e-12);
        assert_eq!(st.utilisation(2), 0.0);
    }
}
