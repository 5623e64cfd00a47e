//! Admission/dispatch: which board gets the next job.
//!
//! Dispatchers are invoked by the event kernel *at arrival time* with
//! the live [`ClusterState`] — per-board liveness, queue depth, backlog
//! estimate (oracle accumulator or online observation, per
//! [`DispatchMode`](crate::state::DispatchMode)), in-flight taxa and
//! utilisation — plus this job's profiled estimates ([`JobEstimates`],
//! held per architecture class and read per board). They never see the
//! future of the arrival stream, and they must place the job on a board
//! that is currently *placeable* — up and not blacked out by an active
//! chaos clause (see [`ClusterState::placeable`]).
//!
//! Every decision made here is observable after the fact: when a
//! [`FlightRecorder`](crate::telemetry::FlightRecorder) rides along at
//! [`TraceLevel::Full`](crate::telemetry::TraceLevel), the kernel
//! records each placement (job, workload, chosen board, corrected
//! service estimate) as a control-plane span — dispatchers themselves
//! stay telemetry-free, so a policy can never behave differently just
//! because someone is watching.

use crate::index::DispatchIndex;
use crate::job::JobSpec;
use crate::state::ClusterState;

/// Estimates for the job being placed, held once per *estimate class*
/// and read per board through a board→class map. The kernel profiles
/// per architecture, so its estimates ([`JobEstimates::per_arch`]) have
/// one class per architecture key and an arrival writes O(architectures)
/// values however many boards the cluster has. When the scenario
/// enables observed-service feedback
/// ([`Scenario::with_feedback`](crate::kernel::Scenario::with_feedback)),
/// service estimates already carry the learned per-(taxon,
/// architecture) correction, so every dispatcher prices decisions off
/// what the fleet has actually observed.
#[derive(Clone, Debug)]
pub struct JobEstimates {
    /// Estimate class of each board, fixed at construction.
    class_of: Vec<u32>,
    /// Estimated service time of *this* job per class, seconds.
    service_s: Vec<f64>,
    /// Estimated energy of *this* job per class, Joules.
    energy_j: Vec<f64>,
    /// Per class: does the policy cache hold a fresh entry for this
    /// job's taxon on the class's architecture?
    warm: Vec<bool>,
}

impl JobEstimates {
    /// All-zero estimates with one class per board, so every board can
    /// carry its own values (class `b` is board `b`). For the scan
    /// pick: an indexed pick asserts one class per architecture, so it
    /// rejects these unless every board has its own architecture.
    pub fn zeroed(n_boards: usize) -> Self {
        let class_of = (0..n_boards)
            .map(|b| u32::try_from(b).expect("board count fits in u32"))
            .collect();
        Self::with_classes(class_of, n_boards)
    }

    /// All-zero estimates with one class per architecture of `cluster`,
    /// numbered like [`ClusterSpec::arch_keys`](crate::cluster::ClusterSpec::arch_keys).
    /// The kernel allocates one per run and refills it in place per
    /// arrival, so estimating costs no allocation however many jobs
    /// stream through.
    pub fn per_arch(cluster: &crate::cluster::ClusterSpec) -> Self {
        let (keys, class_of) = cluster.arch_classes();
        Self::with_classes(class_of, keys.len())
    }

    fn with_classes(class_of: Vec<u32>, n_classes: usize) -> Self {
        JobEstimates {
            class_of,
            service_s: vec![0.0; n_classes],
            energy_j: vec![0.0; n_classes],
            warm: vec![false; n_classes],
        }
    }

    /// Number of estimate classes.
    pub fn n_classes(&self) -> usize {
        self.service_s.len()
    }

    /// Class `c`'s (service seconds, energy Joules, warm) — what an
    /// indexed pick reads for every board of architecture class `c`.
    #[inline]
    fn class(&self, c: usize) -> (f64, f64, bool) {
        (self.service_s[c], self.energy_j[c], self.warm[c])
    }

    /// Set class `c`'s service time (seconds), energy (Joules) and
    /// warm-cache bit.
    pub fn set_class(&mut self, c: usize, service_s: f64, energy_j: f64, warm: bool) {
        self.service_s[c] = service_s;
        self.energy_j[c] = energy_j;
        self.warm[c] = warm;
    }

    /// Multiply every class's service estimate by `factor` (a chaos
    /// misprofile window corrupting what dispatch sees).
    pub fn scale_service(&mut self, factor: f64) {
        for s in &mut self.service_s {
            *s *= factor;
        }
    }

    /// Estimated service time of this job on board `b`, seconds.
    #[inline]
    pub fn service(&self, b: usize) -> f64 {
        self.service_s[self.class_of[b] as usize]
    }

    /// Estimated energy of this job on board `b`, Joules.
    #[inline]
    pub fn energy(&self, b: usize) -> f64 {
        self.energy_j[self.class_of[b] as usize]
    }

    /// Is the policy cache warm for this job on board `b`'s
    /// architecture?
    #[inline]
    pub fn warm(&self, b: usize) -> bool {
        self.warm[self.class_of[b] as usize]
    }

    /// Estimated completion time of this job on board `b` given the
    /// state's backlog estimate.
    #[inline]
    pub fn est_finish_s(&self, state: &ClusterState, b: usize) -> f64 {
        state.now_s + state.backlog_s(b) + self.service(b)
    }
}

/// Placement policy over whole boards.
pub trait Dispatcher {
    /// Name for reports.
    fn name(&self) -> &'static str;

    /// Board index for `job`. Must be `< state.len()` and name a board
    /// that is placeable (the kernel asserts both).
    fn pick(&mut self, state: &ClusterState, job: &JobSpec, est: &JobEstimates) -> usize;
}

/// Smallest-key board among the placeable ones. Panics when no board is
/// placeable — the kernel drops jobs before consulting a dispatcher in
/// that case.
fn argmin_placeable(state: &ClusterState, key: impl Fn(usize) -> (f64, f64)) -> usize {
    state
        .placeable_boards()
        .min_by(|&a, &b| key(a).partial_cmp(&key(b)).expect("keys are finite"))
        .expect("at least one board is placeable")
}

/// The indexed picks take each architecture class's winner from its
/// ordered set, which is exact only when every board of a class shares
/// one estimate: per-board estimates here would silently mis-pick.
fn assert_per_arch(est: &JobEstimates, idx: &DispatchIndex) {
    assert!(
        est.n_classes() == idx.n_arch(),
        "indexed pick needs estimates per architecture class ({} classes for {} architectures)",
        est.n_classes(),
        idx.n_arch()
    );
}

/// Classic least-loaded: the live board whose backlog drains first,
/// blind to architecture and job class (queue length is all real
/// front-ends see).
#[derive(Clone, Copy, Debug, Default)]
pub struct LeastLoaded;

impl LeastLoaded {
    /// The reference linear scan (the pre-index pick, verbatim).
    fn pick_scan(&self, state: &ClusterState) -> usize {
        argmin_placeable(state, |b| (state.backlog_s(b), state.dispatched(b) as f64))
    }

    /// Indexed pick: the scan's effective key is `(backlog, dispatched,
    /// board)`, so the argmin is among (a) the zero-class champion —
    /// the `(dispatched, board)`-least among boards whose backlog is
    /// exactly zero, (b) the head equal-backlog group of the ordered
    /// class (backlog order is busy-until order; equal backlogs are
    /// contiguous because `x ↦ (x - now).max(0)` is monotone), and
    /// (c) the head equal-backlog group of the stale view (sorted by
    /// exact backlog bits at the current clock), or every stale board
    /// when the set is small. Candidates are then compared with the
    /// exact scan key.
    fn pick_indexed(&self, state: &ClusterState, idx: &DispatchIndex) -> usize {
        let mut best: Option<(f64, f64, usize)> = None;
        let consider = |best: &mut Option<(f64, f64, usize)>, b: usize| {
            let key = (state.backlog_s(b), state.dispatched(b) as f64, b);
            if best.map(|k| key < k).unwrap_or(true) {
                *best = Some(key);
            }
        };
        if let Some(b) = idx.zero_min() {
            consider(&mut best, b);
        }
        let mut it = idx.ordered_iter();
        if let Some(b0) = it.next() {
            let bl0 = state.backlog_s(b0);
            consider(&mut best, b0);
            for b in it {
                if state.backlog_s(b) != bl0 {
                    break;
                }
                consider(&mut best, b);
            }
        }
        match idx.stale_view(state.now_s.to_bits(), |b| state.backlog_s(b).to_bits()) {
            None => {
                for b in idx.stale_iter() {
                    consider(&mut best, b);
                }
            }
            Some(view) => {
                // Sorted by exact backlog bits: the argmin's backlog
                // is the head's, and equal backlogs are contiguous
                // (bit order is numeric order on non-negative values),
                // so the head group covers every dispatched/board
                // tie-break candidate.
                let mut it = view.all().iter();
                if let Some(&(bl0, b0)) = it.next() {
                    consider(&mut best, b0 as usize);
                    for &(bl, b) in it {
                        if bl != bl0 {
                            break;
                        }
                        consider(&mut best, b as usize);
                    }
                }
            }
        }
        best.expect("at least one board is placeable").2
    }
}

impl Dispatcher for LeastLoaded {
    fn name(&self) -> &'static str {
        "least-loaded"
    }

    fn pick(&mut self, state: &ClusterState, _job: &JobSpec, _est: &JobEstimates) -> usize {
        match state.dispatch_index() {
            Some(idx) => {
                let b = self.pick_indexed(state, idx);
                #[cfg(feature = "pick_crosscheck")]
                assert_eq!(
                    b,
                    self.pick_scan(state),
                    "least-loaded indexed pick diverged from the reference scan"
                );
                b
            }
            None => self.pick_scan(state),
        }
    }
}

/// Energy-aware: among live boards whose backlog is within one service
/// time of the emptiest, take the one with the lowest predicted energy
/// for this job. Trades a bounded amount of queueing for Joules.
///
/// Holds a reusable backlog scratch so a pick allocates nothing: the
/// first pass captures every placeable board's backlog (and the fleet
/// minimum), the second takes the argmin over the feasible set reading
/// the captured values back. Construct with [`EnergyAware::default`].
#[derive(Clone, Debug, Default)]
pub struct EnergyAware {
    /// Backlog estimate per board from the current pick's first pass.
    /// Entries for unplaceable boards are stale and never read.
    backlog: Vec<f64>,
}

impl EnergyAware {
    /// Indexed pick. The scan's key over the feasible set (boards
    /// within `min_backlog + service` of the fleet-minimum backlog) is
    /// `(energy, now + backlog + service, board)`; estimates are held
    /// per architecture class (asserted by the caller), so within a
    /// class the energy term is constant and the finish term is
    /// monotone in backlog — each class's winner is in the head
    /// equal-finish group of its ordered set (or its lowest-indexed
    /// zero-class board, which is always feasible since its backlog is
    /// zero). The fleet-minimum backlog itself is an order-independent
    /// `f64::min` fold, so it is reconstructed exactly from the class
    /// heads. Stale boards go
    /// through the per-clock view (per-architecture head equal-finish
    /// groups, with the same head-infeasibility cutoff as the ordered
    /// class) or, for small sets, an exact walk; candidates compare
    /// with the exact scan key.
    fn pick_indexed(&self, state: &ClusterState, est: &JobEstimates, idx: &DispatchIndex) -> usize {
        let stale_view = idx.stale_view(state.now_s.to_bits(), |b| state.backlog_s(b).to_bits());
        let mut min_backlog = if idx.has_zero() { 0.0 } else { f64::INFINITY };
        if let Some(b) = idx.ordered_iter().next() {
            min_backlog = min_backlog.min(state.backlog_s(b));
        }
        match &stale_view {
            None => {
                for b in idx.stale_iter() {
                    min_backlog = min_backlog.min(state.backlog_s(b));
                }
            }
            Some(view) => {
                // The min over the stale class is the view head's
                // exact value (an `f64::min` fold is order-free).
                if let Some(&(bl0, _)) = view.all().first() {
                    min_backlog = min_backlog.min(f64::from_bits(bl0));
                }
            }
        }
        // Boards reached through a per-architecture set take their
        // class's estimate directly; only the small-set stale walk
        // goes through the board→class map.
        let mut best: Option<(f64, f64, usize)> = None;
        let consider = |best: &mut Option<(f64, f64, usize)>, b: usize, svc: f64, energy: f64| {
            let bl = state.backlog_s(b);
            if bl <= min_backlog + svc {
                let key = (energy, state.now_s + bl + svc, b);
                if best.map(|k| key < k).unwrap_or(true) {
                    *best = Some(key);
                }
            }
        };
        for a in 0..idx.n_arch() {
            let (svc, energy, _) = est.class(a);
            if let Some(b) = idx.zero_min_arch(a) {
                consider(&mut best, b, svc, energy);
            }
            let mut it = idx.ordered_iter_arch(a);
            if let Some(b0) = it.next() {
                let bl0 = state.backlog_s(b0);
                // Backlog is non-decreasing along the class order:
                // when the head is infeasible, so is every later board.
                if bl0 <= min_backlog + svc {
                    let f0 = state.now_s + bl0 + svc;
                    consider(&mut best, b0, svc, energy);
                    for b in it {
                        if state.now_s + state.backlog_s(b) + svc != f0 {
                            break;
                        }
                        consider(&mut best, b, svc, energy);
                    }
                }
            }
        }
        match &stale_view {
            None => {
                for b in idx.stale_iter() {
                    consider(&mut best, b, est.service(b), est.energy(b));
                }
            }
            Some(view) => {
                for a in 0..idx.n_arch() {
                    let (svc, energy, _) = est.class(a);
                    let mut it = view.arch(a).iter();
                    if let Some(&(bl0, b0)) = it.next() {
                        let b0 = b0 as usize;
                        let bl0 = f64::from_bits(bl0);
                        // Backlog is non-decreasing along the view
                        // order and energy/service are per-class
                        // constants, so the class winner is in the
                        // head equal-finish group — and when the head
                        // is infeasible, so is every later board.
                        if bl0 <= min_backlog + svc {
                            let f0 = state.now_s + bl0 + svc;
                            consider(&mut best, b0, svc, energy);
                            for &(bl, b) in it {
                                let b = b as usize;
                                if state.now_s + f64::from_bits(bl) + svc != f0 {
                                    break;
                                }
                                consider(&mut best, b, svc, energy);
                            }
                        }
                    }
                }
            }
        }
        best.expect("some board is up").2
    }

    /// The reference linear scan (the pre-index pick, verbatim).
    fn pick_scan(&mut self, state: &ClusterState, est: &JobEstimates) -> usize {
        if self.backlog.len() != state.len() {
            self.backlog.resize(state.len(), 0.0);
        }
        let mut min_backlog = f64::INFINITY;
        for b in state.placeable_boards() {
            let bl = state.backlog_s(b);
            self.backlog[b] = bl;
            min_backlog = min_backlog.min(bl);
        }
        // Never empty: the minimum-backlog placeable board qualifies.
        // The key ends in `b`, so keys are unique and this argmin picks
        // the same board the old sort-free min-by did.
        let mut best: Option<(f64, f64, usize)> = None;
        for b in state.placeable_boards() {
            let bl = self.backlog[b];
            if bl <= min_backlog + est.service(b) {
                let key = (est.energy(b), state.now_s + bl + est.service(b), b);
                if best.map(|k| key < k).unwrap_or(true) {
                    best = Some(key);
                }
            }
        }
        best.expect("some board is up").2
    }
}

impl Dispatcher for EnergyAware {
    fn name(&self) -> &'static str {
        "energy-aware"
    }

    fn pick(&mut self, state: &ClusterState, _job: &JobSpec, est: &JobEstimates) -> usize {
        match state.dispatch_index() {
            Some(idx) => {
                assert_per_arch(est, idx);
                let b = self.pick_indexed(state, est, idx);
                #[cfg(feature = "pick_crosscheck")]
                assert_eq!(
                    b,
                    self.pick_scan(state, est),
                    "energy-aware indexed pick diverged from the reference scan"
                );
                b
            }
            None => self.pick_scan(state, est),
        }
    }
}

/// Phase-aware: estimated-finish-greedy (backlog + this job's profiled
/// service on each board, so workload↔architecture affinity is priced
/// in), with the job's class steering ties — CPU-heavy jobs break
/// towards big-rich boards, synchronisation/IO-dominated jobs towards
/// LITTLE-rich ones — and warm policy-cache lines preferred within a
/// tie. The class preference never buys real queueing: any board whose
/// estimated finish is more than 2% of a service time behind the global
/// best is out.
///
/// Holds a reusable finish-estimate scratch so a pick allocates
/// nothing: the first pass computes every placeable board's estimated
/// finish once (finding the global best as it goes), the tie pass
/// reads the captured values back instead of re-walking board queues.
/// Construct with [`PhaseAware::default`].
#[derive(Clone, Debug, Default)]
pub struct PhaseAware {
    /// Estimated finish per board from the current pick's first pass.
    /// Entries for unplaceable boards are stale and never read.
    finish: Vec<f64>,
    /// Per-architecture-class `(finish, board)` champions from the
    /// indexed pick's first pass, reused by its tie pass.
    champ: Vec<Option<(f64, usize)>>,
}

impl PhaseAware {
    fn prefers_big(job: &JobSpec) -> Option<bool> {
        use crate::job::JobClass::*;
        match job.class() {
            CpuHeavy => Some(true),
            MemIo | Synchronised => Some(false),
            Mixed => None,
        }
    }

    /// Indexed pick. Pass 1's effective key is `(finish, board)`;
    /// estimates are held per architecture class (asserted by the
    /// caller), so within a class the finish is monotone in backlog
    /// and the class champion is in the head equal-finish group of its
    /// ordered set (or its lowest-indexed zero-class board — zero
    /// backlogs tie on finish).
    /// Pass 2's key `(mismatch, cold, finish, board)` is constant per
    /// class in its first two terms, so each class's tie-band winner
    /// is its pass-1 champion when that champion makes the band — no
    /// other class member can. Stale boards join through the per-clock
    /// view: within a class their finish is monotone in backlog too,
    /// so each class's stale winner is in the head equal-finish group
    /// of its view ordering and folds into the class champion, which
    /// makes pass 2's champion argument cover them unchanged. Small
    /// stale sets are walked exactly in both passes instead. All
    /// comparisons use the exact scan expressions.
    fn pick_indexed(
        &mut self,
        state: &ClusterState,
        job: &JobSpec,
        est: &JobEstimates,
        idx: &DispatchIndex,
    ) -> usize {
        let stale_view = idx.stale_view(state.now_s.to_bits(), |b| state.backlog_s(b).to_bits());
        let na = idx.n_arch();
        if self.champ.len() != na {
            self.champ.resize(na, None);
        }
        let mut overall: Option<(f64, usize)> = None;
        for a in 0..na {
            // Boards from this class's sets share its estimate (the
            // same sum `JobEstimates::est_finish_s` forms).
            let (svc, _, _) = est.class(a);
            let finish = |b: usize| state.now_s + state.backlog_s(b) + svc;
            let mut c: Option<(f64, usize)> = None;
            let consider = |c: &mut Option<(f64, usize)>, b: usize| {
                let key = (finish(b), b);
                if c.map(|k| key < k).unwrap_or(true) {
                    *c = Some(key);
                }
            };
            if let Some(b) = idx.zero_min_arch(a) {
                consider(&mut c, b);
            }
            let mut it = idx.ordered_iter_arch(a);
            if let Some(b0) = it.next() {
                let f0 = finish(b0);
                consider(&mut c, b0);
                for b in it {
                    if finish(b) != f0 {
                        break;
                    }
                    consider(&mut c, b);
                }
            }
            if let Some(view) = &stale_view {
                // Fold the class's stale winner into its champion:
                // finish is monotone in backlog within the class, so
                // it lives in the head equal-finish group, and the
                // keys within the group share `f0` — the group min is
                // the lowest board index.
                let mut it = view.arch(a).iter();
                if let Some(&(_, b0)) = it.next() {
                    let b0 = b0 as usize;
                    let f0 = finish(b0);
                    let mut k = (f0, b0);
                    for &(_, b) in it {
                        let b = b as usize;
                        if finish(b) != f0 {
                            break;
                        }
                        if b < k.1 {
                            k = (f0, b);
                        }
                    }
                    if c.map(|o| k < o).unwrap_or(true) {
                        c = Some(k);
                    }
                }
            }
            self.champ[a] = c;
            if let Some(k) = c {
                if overall.map(|o| k < o).unwrap_or(true) {
                    overall = Some(k);
                }
            }
        }
        if stale_view.is_none() {
            for b in idx.stale_iter() {
                let k = (est.est_finish_s(state, b), b);
                if overall.map(|o| k < o).unwrap_or(true) {
                    overall = Some(k);
                }
            }
        }
        let (best_finish, overall_b) = overall.expect("at least one board is placeable");
        let tie_band = 0.02 * est.service(overall_b);
        let thresh = best_finish + tie_band;
        let prefers_big = Self::prefers_big(job);
        let full_key = |b: usize, f: f64, warm: bool| {
            let mismatch = match prefers_big {
                Some(big) => (state.spec.big_rich(b) != big) as u8 as f64,
                None => 0.0,
            };
            (mismatch, !warm as u8 as f64, f, b as f64)
        };
        let mut best: Option<((f64, f64, f64, f64), usize)> = None;
        for a in 0..na {
            if let Some((f, b)) = self.champ[a] {
                if f <= thresh {
                    let key = full_key(b, f, est.class(a).2);
                    if best.map(|(k, _)| key < k).unwrap_or(true) {
                        best = Some((key, b));
                    }
                }
            }
        }
        if stale_view.is_none() {
            // With the view active, stale candidates already folded
            // into the per-class champions above — pass 2's
            // constant-(mismatch, cold) argument covers them.
            for b in idx.stale_iter() {
                let f = est.est_finish_s(state, b);
                if f <= thresh {
                    let key = full_key(b, f, est.warm(b));
                    if best.map(|(k, _)| key < k).unwrap_or(true) {
                        best = Some((key, b));
                    }
                }
            }
        }
        best.expect("tie set contains the global best").1
    }

    /// The reference two-pass scan (the pre-index pick, verbatim).
    fn pick_scan(&mut self, state: &ClusterState, job: &JobSpec, est: &JobEstimates) -> usize {
        if self.finish.len() != state.len() {
            self.finish.resize(state.len(), 0.0);
        }
        // Pass 1: estimated finish per placeable board, captured once —
        // the tie pass reads these back instead of re-deriving backlog.
        // Strict `<` keeps the lowest-indexed board on equal finishes,
        // matching the old (finish, b) lexicographic argmin.
        let mut overall = usize::MAX;
        let mut best_finish = f64::INFINITY;
        for b in state.placeable_boards() {
            let f = est.est_finish_s(state, b);
            self.finish[b] = f;
            if f < best_finish {
                best_finish = f;
                overall = b;
            }
        }
        assert!(overall != usize::MAX, "at least one board is placeable");
        let tie_band = 0.02 * est.service(overall);
        let prefers_big = Self::prefers_big(job);
        // Pass 2: argmin over the tie band. The key ends in `b`, so
        // keys are unique and this matches the old min-by exactly.
        let mut best: Option<((f64, f64, f64, f64), usize)> = None;
        for b in state.placeable_boards() {
            let f = self.finish[b];
            if f <= best_finish + tie_band {
                let mismatch = match prefers_big {
                    Some(big) => (state.spec.big_rich(b) != big) as u8 as f64,
                    None => 0.0,
                };
                let key = (mismatch, !est.warm(b) as u8 as f64, f, b as f64);
                if best.map(|(k, _)| key < k).unwrap_or(true) {
                    best = Some((key, b));
                }
            }
        }
        best.expect("tie set contains the global best").1
    }
}

impl Dispatcher for PhaseAware {
    fn name(&self) -> &'static str {
        "phase-aware"
    }

    fn pick(&mut self, state: &ClusterState, job: &JobSpec, est: &JobEstimates) -> usize {
        match state.dispatch_index() {
            Some(idx) => {
                assert_per_arch(est, idx);
                let b = self.pick_indexed(state, job, est, idx);
                #[cfg(feature = "pick_crosscheck")]
                assert_eq!(
                    b,
                    self.pick_scan(state, job, est),
                    "phase-aware indexed pick diverged from the reference scan"
                );
                b
            }
            None => self.pick_scan(state, job, est),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterSpec;
    use crate::job::JobClass;
    use crate::state::DispatchMode;

    fn job(class: JobClass) -> JobSpec {
        JobSpec {
            id: 0,
            workload: astro_workloads::by_name("swaptions").unwrap(),
            taxon: crate::job::Taxon {
                class,
                signature: 2,
            },
            arrival_s: 10.0,
            slo_tightness: 4.0,
            seed: 1,
        }
    }

    /// A queued job for the index churn/flood sweeps.
    fn qj_for_churn(svc: f64) -> crate::state::QueuedJob {
        crate::state::QueuedJob {
            job: job(JobClass::CpuHeavy),
            slo_s: 100.0,
            schedule: None,
            sched_arch: "",
            est_service_s: svc,
            profiled_s: svc,
            penalty_s: 0.0,
            migrations: 0,
            redispatches: 0,
        }
    }

    /// An in-flight entry started at `now` for the index churn/flood
    /// sweeps (pass a past `now` for an already-lapsed estimate).
    fn ifl_for_churn(now: f64, svc: f64) -> crate::state::InFlight {
        crate::state::InFlight {
            id: 0,
            taxon: crate::job::Taxon {
                class: JobClass::CpuHeavy,
                signature: 2,
            },
            start_s: now,
            est_finish_s: now + svc,
            profiled_s: svc,
            raw_service_s: svc,
            outcome: crate::job::JobOutcome {
                id: 0,
                workload: "swaptions",
                class: JobClass::CpuHeavy,
                board: 0,
                arrival_s: 0.0,
                start_s: now,
                finish_s: now + svc,
                service_s: svc,
                energy_j: 1.0,
                slo_s: 100.0,
                migrations: 0,
            },
        }
    }

    /// One class per board, every class at 1 s / 1 J / cold.
    fn uniform_per_board(n: usize) -> JobEstimates {
        let mut est = JobEstimates::zeroed(n);
        for b in 0..n {
            est.set_class(b, 1.0, 1.0, false);
        }
        est
    }

    struct Fixture {
        cluster: ClusterSpec,
        busy: Vec<f64>,
        dispatched: Vec<usize>,
        down: Vec<usize>,
        blackout: Vec<usize>,
        est: JobEstimates,
    }

    impl Fixture {
        // Board 0: XU4 (big-rich), board 1: RK3399 (LITTLE-rich), ...
        fn new(n: usize) -> Self {
            Fixture {
                cluster: ClusterSpec::heterogeneous(n),
                busy: vec![0.0; n],
                dispatched: vec![0; n],
                down: Vec::new(),
                blackout: Vec::new(),
                est: uniform_per_board(n),
            }
        }

        fn state(&self) -> ClusterState<'_> {
            let mut st = ClusterState::new(&self.cluster, DispatchMode::Oracle);
            st.now_s = 10.0;
            for b in 0..self.cluster.len() {
                st.boards[b].oracle_busy_until_s = self.busy[b];
                st.boards[b].dispatched = self.dispatched[b];
            }
            for &b in &self.down {
                st.set_up(b, false);
            }
            for &b in &self.blackout {
                st.add_blackout(b);
            }
            st
        }
    }

    #[test]
    fn least_loaded_tracks_backlog_only() {
        let mut f = Fixture::new(4);
        f.busy = vec![20.0, 14.0, 11.0, 30.0];
        assert_eq!(
            LeastLoaded.pick(&f.state(), &job(JobClass::CpuHeavy), &f.est),
            2
        );
        // Past-empty boards tie at zero backlog; dispatch count breaks it.
        f.busy = vec![1.0, 2.0, 3.0, 4.0];
        f.dispatched = vec![5, 3, 9, 9];
        assert_eq!(
            LeastLoaded.pick(&f.state(), &job(JobClass::MemIo), &f.est),
            1
        );
    }

    #[test]
    fn down_boards_are_never_picked() {
        let mut f = Fixture::new(4);
        f.busy = vec![0.0, 50.0, 50.0, 50.0];
        f.down = vec![0]; // the obviously best board is down
        for d in [
            &mut LeastLoaded as &mut dyn Dispatcher,
            &mut EnergyAware::default(),
            &mut PhaseAware::default(),
        ] {
            let pick = d.pick(&f.state(), &job(JobClass::CpuHeavy), &f.est);
            assert_ne!(pick, 0, "{} picked a down board", d.name());
        }
    }

    #[test]
    fn blacked_out_boards_are_never_picked() {
        let mut f = Fixture::new(4);
        f.busy = vec![0.0, 50.0, 50.0, 50.0];
        f.blackout = vec![0]; // best board is up but unplaceable
        for d in [
            &mut LeastLoaded as &mut dyn Dispatcher,
            &mut EnergyAware::default(),
            &mut PhaseAware::default(),
        ] {
            let pick = d.pick(&f.state(), &job(JobClass::CpuHeavy), &f.est);
            assert_ne!(pick, 0, "{} picked a blacked-out board", d.name());
            assert!(f.state().placeable(pick));
        }
    }

    #[test]
    fn energy_aware_picks_cheapest_among_uncongested() {
        let mut f = Fixture::new(4);
        for (b, e) in [4.0, 1.5, 3.0, 2.0].into_iter().enumerate() {
            f.est.set_class(b, 1.0, e, false);
        }
        assert_eq!(
            EnergyAware::default().pick(&f.state(), &job(JobClass::Mixed), &f.est),
            1
        );
        // Congest the cheap board far beyond a service time: excluded.
        f.busy[1] = 25.0;
        assert_eq!(
            EnergyAware::default().pick(&f.state(), &job(JobClass::Mixed), &f.est),
            3
        );
    }

    #[test]
    fn phase_aware_matches_class_to_cluster_shape() {
        let mut f = Fixture::new(4);
        assert!(f.cluster.big_rich(PhaseAware::default().pick(
            &f.state(),
            &job(JobClass::CpuHeavy),
            &f.est
        )));
        assert!(!f.cluster.big_rich(PhaseAware::default().pick(
            &f.state(),
            &job(JobClass::Synchronised),
            &f.est
        )));
        // Warm boards win ties within the preferred side.
        f.est.set_class(2, 1.0, 1.0, true);
        assert_eq!(
            PhaseAware::default().pick(&f.state(), &job(JobClass::CpuHeavy), &f.est),
            2
        );
    }

    #[test]
    fn phase_aware_spills_under_congestion() {
        let mut f = Fixture::new(4);
        // Both big-rich boards (0, 2) deeply backlogged.
        f.busy = vec![30.0, 10.0, 30.0, 10.0];
        let pick = PhaseAware::default().pick(&f.state(), &job(JobClass::CpuHeavy), &f.est);
        assert!(!f.cluster.big_rich(pick), "should spill to LITTLE-rich");
    }

    /// The pre-scratch energy-aware pick, verbatim: collect the
    /// feasible set into a Vec, then min-by over it. Kept as the
    /// reference the allocation-free rewrite must match pick-for-pick.
    fn energy_aware_ref(state: &ClusterState, est: &JobEstimates) -> usize {
        let min_backlog = state
            .placeable_boards()
            .map(|b| state.backlog_s(b))
            .fold(f64::INFINITY, f64::min);
        let feasible: Vec<usize> = state
            .placeable_boards()
            .filter(|&b| state.backlog_s(b) <= min_backlog + est.service(b))
            .collect();
        *feasible
            .iter()
            .min_by(|&&a, &&b| {
                (est.energy(a), est.est_finish_s(state, a), a)
                    .partial_cmp(&(est.energy(b), est.est_finish_s(state, b), b))
                    .expect("estimates are finite")
            })
            .expect("some board is up")
    }

    /// The pre-scratch phase-aware pick, verbatim: argmin over an
    /// iterator min-by, then a collected tie Vec.
    fn phase_aware_ref(state: &ClusterState, job: &JobSpec, est: &JobEstimates) -> usize {
        let overall = argmin_placeable(state, |b| (est.est_finish_s(state, b), b as f64));
        let tie_band = 0.02 * est.service(overall);
        let best_finish = est.est_finish_s(state, overall);
        let ties: Vec<usize> = state
            .placeable_boards()
            .filter(|&b| est.est_finish_s(state, b) <= best_finish + tie_band)
            .collect();
        let prefers_big = PhaseAware::prefers_big(job);
        *ties
            .iter()
            .min_by(|&&a, &&b| {
                let mismatch = |c: usize| match prefers_big {
                    Some(big) => (state.spec.big_rich(c) != big) as u8 as f64,
                    None => 0.0,
                };
                let ka = (
                    mismatch(a),
                    !est.warm(a) as u8 as f64,
                    est.est_finish_s(state, a),
                    a as f64,
                );
                let kb = (
                    mismatch(b),
                    !est.warm(b) as u8 as f64,
                    est.est_finish_s(state, b),
                    b as f64,
                );
                ka.partial_cmp(&kb).expect("estimates are finite")
            })
            .expect("tie set contains the global best")
    }

    /// The allocation-free rewrites must agree with the old collecting
    /// implementations on every pick — including engineered exact
    /// finish-time ties, where only the board-index tail of the key
    /// separates candidates. Sweeps seeded pseudo-random fixtures with
    /// clustered values so ties and tie-band edges actually occur.
    #[test]
    fn scratch_dispatchers_match_reference_picks() {
        let mut lcg = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            // xorshift64*: deterministic, dependency-free.
            lcg ^= lcg >> 12;
            lcg ^= lcg << 25;
            lcg ^= lcg >> 27;
            lcg.wrapping_mul(0x2545_f491_4f6c_dd1d)
        };
        let mut checked = 0usize;
        for case in 0..400 {
            let n = 1 + (next() % 12) as usize;
            let mut f = Fixture::new(n);
            for b in 0..n {
                // Quantised so distinct boards often collide exactly.
                f.busy[b] = (next() % 4) as f64 * 5.0;
                f.dispatched[b] = (next() % 3) as usize;
                let service_s = 1.0 + (next() % 3) as f64;
                let energy_j = (next() % 4) as f64;
                f.est.set_class(b, service_s, energy_j, next() % 2 == 0);
                if next() % 5 == 0 {
                    f.down.push(b);
                } else if next() % 5 == 0 {
                    f.blackout.push(b);
                }
            }
            let st = f.state();
            if !st.any_placeable() {
                continue;
            }
            let mut energy = EnergyAware::default();
            let mut phase = PhaseAware::default();
            for class in JobClass::ALL {
                let j = job(class);
                assert_eq!(
                    energy.pick(&st, &j, &f.est),
                    energy_aware_ref(&st, &f.est),
                    "energy-aware diverged (case {case}, class {class:?})"
                );
                assert_eq!(
                    phase.pick(&st, &j, &f.est),
                    phase_aware_ref(&st, &j, &f.est),
                    "phase-aware diverged (case {case}, class {class:?})"
                );
                checked += 1;
            }
        }
        assert!(checked > 1000, "sweep degenerated: only {checked} picks");
    }

    /// Online-mode mutation churn against the maintained index: a long
    /// seeded stream of enqueues, starts, completions, dispatch-count
    /// bumps, liveness/blackout flips and clock advances — after every
    /// step the indexed pick of each dispatcher must equal its
    /// reference scan, bit for bit. Values are quantised to multiples
    /// of 0.5 so exact busy-until ties, tie-band edges and clock
    /// advances that land exactly on filed in-flight estimates all
    /// occur, and boards are deliberately driven through every index
    /// class (Zero, Ordered, Stale — an enqueue with no in-flight job
    /// makes the busy-until clock-dependent).
    #[test]
    fn indexed_picks_match_scan_under_mutation_churn() {
        let qj = qj_for_churn;
        let ifl = ifl_for_churn;
        let mut lcg = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            lcg ^= lcg >> 12;
            lcg ^= lcg << 25;
            lcg ^= lcg >> 27;
            lcg.wrapping_mul(0x2545_f491_4f6c_dd1d)
        };
        let mut checked = 0usize;
        for mode in [DispatchMode::Online, DispatchMode::Oracle] {
            for case in 0..8 {
                let n = 2 + (next() % 9) as usize;
                let cluster = ClusterSpec::heterogeneous(n);
                let mut st = ClusterState::new(&cluster, mode);
                st.now_s = 10.0;
                st.enable_dispatch_index();
                // Per-architecture estimates, as the kernel hands out:
                // heterogeneous clusters alternate XU4 (class 0) and
                // RK3399 (class 1) by board parity.
                let arch_svc = [1.0 + (next() % 3) as f64 * 0.5, 1.0 + (next() % 3) as f64];
                let arch_energy = [1.0 + (next() % 2) as f64, 1.0 + (next() % 2) as f64];
                let mut est = JobEstimates::per_arch(&cluster);
                est.set_class(0, arch_svc[0], arch_energy[0], case % 2 == 0);
                est.set_class(1, arch_svc[1], arch_energy[1], case % 2 == 1);
                let mut blk = vec![false; n];
                for _ in 0..250 {
                    let b = (next() % n as u64) as usize;
                    let svc = 0.5 + (next() % 4) as f64 * 0.5;
                    match next() % 8 {
                        0 => {
                            st.boards[b].enqueue(qj(svc));
                            st.refresh_dispatch_index(b);
                        }
                        1 => {
                            st.boards[b].pop_next();
                            st.refresh_dispatch_index(b);
                        }
                        2 if st.boards[b].in_flight.is_none() => {
                            st.boards[b].in_flight = Some(ifl(st.now_s, svc));
                            st.boards[b].dispatched += 1;
                            st.refresh_dispatch_index(b);
                        }
                        3 => {
                            // Completion: next queued job starts, as the
                            // shard advance loop does.
                            st.boards[b].in_flight = None;
                            if let Some(q) = st.boards[b].pop_next() {
                                let s = q.est_total_s();
                                st.boards[b].in_flight = Some(ifl(st.now_s, s));
                            }
                            st.refresh_dispatch_index(b);
                        }
                        4 => {
                            st.boards[b].dispatched += 1;
                            st.refresh_dispatch_index(b);
                        }
                        5 => {
                            let up = st.up(b);
                            st.set_up(b, !up);
                        }
                        6 => {
                            if blk[b] {
                                st.remove_blackout(b);
                            } else {
                                st.add_blackout(b);
                            }
                            blk[b] = !blk[b];
                        }
                        _ => {
                            if mode == DispatchMode::Oracle {
                                st.boards[b].oracle_busy_until_s =
                                    st.boards[b].oracle_busy_until_s.max(st.now_s) + svc;
                                st.refresh_dispatch_index(b);
                            }
                            // Advances by multiples of 0.5 land exactly
                            // on filed busy-until / in-flight values.
                            let dt = (next() % 4) as f64 * 0.5;
                            st.advance_now(st.now_s + dt);
                        }
                    }
                    assert_eq!(
                        st.dispatch_index().unwrap().filed(),
                        st.placeable_boards().count(),
                        "index filing out of sync with placeability ({mode:?}, case {case})"
                    );
                    if !st.any_placeable() {
                        continue;
                    }
                    let j = job(JobClass::ALL[(next() % JobClass::ALL.len() as u64) as usize]);
                    assert_eq!(
                        LeastLoaded.pick(&st, &j, &est),
                        LeastLoaded.pick_scan(&st),
                        "least-loaded diverged ({mode:?}, case {case})"
                    );
                    let mut energy = EnergyAware::default();
                    assert_eq!(
                        energy.pick(&st, &j, &est),
                        energy.pick_scan(&st, &est),
                        "energy-aware diverged ({mode:?}, case {case})"
                    );
                    let mut phase = PhaseAware::default();
                    assert_eq!(
                        phase.pick(&st, &j, &est),
                        phase.pick_scan(&st, &j, &est),
                        "phase-aware diverged ({mode:?}, case {case})"
                    );
                    checked += 3;
                }
            }
        }
        assert!(
            checked > 3000,
            "churn sweep degenerated: only {checked} picks"
        );
    }

    /// Floods the Stale class far past `STALE_SCAN_MAX` — the regime a
    /// systematic-underestimation chaos clause creates (every in-flight
    /// estimate lapsed with work still queued) — then churns queues,
    /// dispatch counts, liveness and the clock while checking every
    /// indexed pick against its reference scan, bit for bit. Back-to-
    /// back picks at an unchanged clock reuse the cached stale view;
    /// enqueues between picks invalidate it through the revision bump
    /// (backlog moves while the lapse key does not); clock advances
    /// rebuild it outright.
    #[test]
    fn indexed_picks_match_scan_with_flooded_stale_class() {
        let mut lcg = 0x6c62_272e_07bb_0142u64;
        let mut next = move || {
            lcg ^= lcg >> 12;
            lcg ^= lcg << 25;
            lcg ^= lcg >> 27;
            lcg.wrapping_mul(0x2545_f491_4f6c_dd1d)
        };
        let n = 48;
        let cluster = ClusterSpec::heterogeneous(n);
        let mut st = ClusterState::new(&cluster, DispatchMode::Online);
        st.now_s = 10.0;
        st.enable_dispatch_index();
        let lapsed = |now: f64, next: &mut dyn FnMut() -> u64| {
            // An in-flight whose estimate already lapsed: the board
            // files Stale keyed by the overrun estimate.
            let svc = 0.5 + (next() % 4) as f64 * 0.5;
            let mut f = ifl_for_churn(now - 2.0 * svc, svc);
            debug_assert!(f.est_finish_s < now);
            f.id = 1;
            f
        };
        // Seed: every board gets queued work; two thirds also carry a
        // lapsed in-flight (distinct lapse keys), the rest sit idle
        // with a queue (lapse key 0).
        for b in 0..n {
            for _ in 0..1 + next() % 3 {
                st.boards[b].enqueue(qj_for_churn(0.5 + (next() % 4) as f64 * 0.5));
            }
            if b % 3 != 0 {
                st.boards[b].in_flight = Some(lapsed(st.now_s, &mut next));
            }
            st.boards[b].dispatched = (next() % 4) as usize;
            st.refresh_dispatch_index(b);
        }
        let mut est = JobEstimates::per_arch(&cluster);
        est.set_class(0, 1.5, 1.0, true);
        est.set_class(1, 1.5, 2.0, false);
        let mut max_stale = 0usize;
        let mut checked = 0usize;
        for step in 0..400 {
            let b = (next() % n as u64) as usize;
            match next() % 6 {
                0 => {
                    st.boards[b].enqueue(qj_for_churn(0.5 + (next() % 4) as f64 * 0.5));
                    st.refresh_dispatch_index(b);
                }
                1 => {
                    st.boards[b].pop_next();
                    st.refresh_dispatch_index(b);
                }
                2 => {
                    st.boards[b].in_flight = Some(lapsed(st.now_s, &mut next));
                    st.boards[b].dispatched += 1;
                    st.refresh_dispatch_index(b);
                }
                3 => {
                    let up = st.up(b);
                    st.set_up(b, !up);
                }
                4 => {
                    // Quantised advances land exactly on filed values.
                    let dt = (next() % 3) as f64 * 0.5;
                    st.advance_now(st.now_s + dt);
                }
                _ => {
                    st.boards[b].dispatched += 1;
                    st.refresh_dispatch_index(b);
                }
            }
            max_stale = max_stale.max(st.dispatch_index().unwrap().stale_len());
            if !st.any_placeable() {
                continue;
            }
            let j = job(JobClass::ALL[(next() % JobClass::ALL.len() as u64) as usize]);
            // Two rounds per step: the second reuses the cached view.
            for _ in 0..2 {
                assert_eq!(
                    LeastLoaded.pick(&st, &j, &est),
                    LeastLoaded.pick_scan(&st),
                    "least-loaded diverged (step {step})"
                );
                let mut energy = EnergyAware::default();
                assert_eq!(
                    energy.pick(&st, &j, &est),
                    energy.pick_scan(&st, &est),
                    "energy-aware diverged (step {step})"
                );
                let mut phase = PhaseAware::default();
                assert_eq!(
                    phase.pick(&st, &j, &est),
                    phase.pick_scan(&st, &j, &est),
                    "phase-aware diverged (step {step})"
                );
                checked += 3;
            }
        }
        assert!(
            max_stale > 2 * crate::index::STALE_SCAN_MAX,
            "stale flood degenerated: peak {max_stale} boards"
        );
        assert!(checked > 2000, "flood sweep degenerated: {checked} picks");
    }

    /// Per-architecture estimates must pick exactly what the same
    /// values expanded into one class per board pick — the shape the
    /// kernel handed out when it copied estimates to every board. Each
    /// seeded fixture is checked on the scan path (index off, both
    /// shapes through `pick`) and on the indexed path (classed through
    /// the indexed `pick`, expanded through the reference scan).
    /// Backlogs and estimates are quantised so exact finish-time ties
    /// and tie-band edges occur. A misprofile factor, when drawn, is
    /// applied per class and must equal the per-board products bit for
    /// bit.
    #[test]
    fn per_arch_estimates_pick_like_per_board_expansion() {
        let mut lcg = 0xd1b5_4a32_d192_ed03u64;
        let mut next = move || {
            lcg ^= lcg >> 12;
            lcg ^= lcg << 25;
            lcg ^= lcg >> 27;
            lcg.wrapping_mul(0x2545_f491_4f6c_dd1d)
        };
        let mut checked = 0usize;
        let mut scaled = 0usize;
        for case in 0..300 {
            let n = 2 + (next() % 39) as usize;
            let mut f = Fixture::new(n);
            for b in 0..n {
                f.busy[b] = (next() % 4) as f64 * 5.0;
                f.dispatched[b] = (next() % 3) as usize;
                if next() % 6 == 0 {
                    f.down.push(b);
                } else if next() % 6 == 0 {
                    f.blackout.push(b);
                }
            }
            let mut classed = JobEstimates::per_arch(&f.cluster);
            let mut expanded = JobEstimates::zeroed(n);
            let arch: Vec<(f64, f64, bool)> = (0..classed.n_classes())
                .map(|_| {
                    let service_s = 0.5 + (next() % 4) as f64 * 0.5;
                    let energy_j = (next() % 3) as f64;
                    (service_s, energy_j, next() % 2 == 0)
                })
                .collect();
            for (a, &(s, e, w)) in arch.iter().enumerate() {
                classed.set_class(a, s, e, w);
            }
            for b in 0..n {
                let (s, e, w) = arch[b % 2];
                expanded.set_class(b, s, e, w);
            }
            if next() % 3 == 0 {
                let mf = 0.15 + (next() % 29) as f64 * 0.137;
                classed.scale_service(mf);
                expanded.scale_service(mf);
                for b in 0..n {
                    assert_eq!(
                        classed.service(b).to_bits(),
                        (arch[b % 2].0 * mf).to_bits(),
                        "per-class misprofile product diverged (case {case}, board {b})"
                    );
                    assert_eq!(classed.service(b).to_bits(), expanded.service(b).to_bits());
                }
                scaled += 1;
            }
            let mut st = f.state();
            if !st.any_placeable() {
                continue;
            }
            for indexed in [false, true] {
                if indexed {
                    st.enable_dispatch_index();
                }
                for class in JobClass::ALL {
                    let j = job(class);
                    let mut ea = EnergyAware::default();
                    let mut pa = PhaseAware::default();
                    let (ll, e, p) = if indexed {
                        (
                            LeastLoaded.pick_scan(&st),
                            ea.pick_scan(&st, &expanded),
                            pa.pick_scan(&st, &j, &expanded),
                        )
                    } else {
                        (
                            LeastLoaded.pick(&st, &j, &expanded),
                            ea.pick(&st, &j, &expanded),
                            pa.pick(&st, &j, &expanded),
                        )
                    };
                    let at = format!("case {case}, {n} boards, indexed {indexed}, {class:?}");
                    assert_eq!(
                        LeastLoaded.pick(&st, &j, &classed),
                        ll,
                        "least-loaded: {at}"
                    );
                    assert_eq!(ea.pick(&st, &j, &classed), e, "energy-aware: {at}");
                    assert_eq!(pa.pick(&st, &j, &classed), p, "phase-aware: {at}");
                    checked += 3;
                }
            }
        }
        assert!(
            checked >= 2000,
            "equivalence sweep degenerated: {checked} picks"
        );
        assert!(scaled >= 50, "misprofile leg degenerated: {scaled} cases");
    }

    /// Per-board estimates reaching an indexed pick would mis-pick
    /// silently (the index takes one winner per architecture class), so
    /// the pick refuses them.
    #[test]
    #[should_panic(expected = "indexed pick needs estimates per architecture class")]
    fn indexed_phase_aware_rejects_per_board_estimates() {
        let cluster = ClusterSpec::heterogeneous(4);
        let mut st = ClusterState::new(&cluster, DispatchMode::Oracle);
        st.enable_dispatch_index();
        PhaseAware::default().pick(&st, &job(JobClass::CpuHeavy), &uniform_per_board(4));
    }

    /// As above, for the energy-aware indexed pick.
    #[test]
    #[should_panic(expected = "indexed pick needs estimates per architecture class")]
    fn indexed_energy_aware_rejects_per_board_estimates() {
        let cluster = ClusterSpec::heterogeneous(4);
        let mut st = ClusterState::new(&cluster, DispatchMode::Oracle);
        st.enable_dispatch_index();
        EnergyAware::default().pick(&st, &job(JobClass::Mixed), &uniform_per_board(4));
    }

    #[test]
    fn picks_are_always_in_range_and_up() {
        let mut f = Fixture::new(5);
        f.down = vec![1, 3];
        for class in JobClass::ALL {
            for d in [
                &mut LeastLoaded as &mut dyn Dispatcher,
                &mut EnergyAware::default(),
                &mut PhaseAware::default(),
            ] {
                let pick = d.pick(&f.state(), &job(class), &f.est);
                assert!(pick < 5);
                assert!(f.state().up(pick));
            }
        }
    }
}
