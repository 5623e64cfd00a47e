//! Incrementally maintained argmin indexes over placeable boards.
//!
//! Every dispatcher key is a lexicographic tuple whose leading term
//! derives from [`est_busy_until_s`](crate::state::ClusterState::est_busy_until_s)
//! — an *absolute* sim-time value that changes only on board-local
//! events (enqueue, pop, in-flight estimate update, completion,
//! churn/outage/blackout edges). This module keeps each placeable
//! board filed under one of three classes so a pick touches O(log B)
//! state instead of scanning every board:
//!
//! * **Zero** — the board's busy-until is at or behind the clock, so
//!   its backlog is exactly `0.0` and *stays* `0.0` as the clock
//!   advances (an idle board, or one whose in-flight estimate has
//!   already lapsed with nothing queued). Filed globally by
//!   `(dispatched as f64, board)` — the `LeastLoaded` tie-break — and
//!   per architecture class by board index.
//! * **Ordered** — busy-until is strictly ahead of the clock and
//!   independent of it (oracle accumulator, or an online board whose
//!   in-flight finish estimate has not lapsed). Filed globally and per
//!   architecture class by `(busy_until bits, board)`; since busy and
//!   backlog are non-negative and `x ↦ (x - now).max(0)` is monotone,
//!   bit order on the stored busy value *is* backlog order.
//! * **Stale** — an online board whose in-flight finish estimate has
//!   lapsed while work is still queued (or, defensively, an idle board
//!   with queued work): its busy-until is genuinely clock-dependent
//!   (`now + Σ queued`), so no clock-free ordering over it can be
//!   maintained incrementally. Stale boards are bucketed in an ordered
//!   set keyed by lapse time, and picks are served from a cached
//!   [`StaleView`] — per-(clock, revision) global and per-architecture
//!   orderings by *exact* backlog bits — so the head equal-key groups
//!   dispatchers walk are the same ones they walk in the ordered
//!   class. The view is rebuilt lazily when the clock has moved or any
//!   stale board was refiled since the last pick; in steady state the
//!   class is near-empty (boards enter it only when a service estimate
//!   overran and feedback shrinks it again), and under a systematic-
//!   underestimation chaos clause — where most of the fleet goes stale
//!   — bursty arrivals at shared timestamps amortise one rebuild over
//!   many picks instead of degrading every pick to five linear scans.
//!   Small stale sets (≤ [`STALE_SCAN_MAX`]) skip the view and keep
//!   the exact per-pick walk: sorting a handful of boards costs more
//!   than scanning them.
//!
//! The classes are repaired *eagerly* at every mutation site (the
//! kernel calls [`refresh_dispatch_index`](crate::state::ClusterState::refresh_dispatch_index)
//! wherever it touches a board) plus two prefix sweeps when the clock
//! advances: ordered entries whose busy-until the clock has reached
//! reclassify to Zero/Stale, and in-flight estimates the clock has
//! passed (tracked in a third ordered set) demote their boards out of
//! Ordered. Each board is swept at most once per insertion, so the
//! sweeps are amortised O(log B) per event.
//!
//! The index never *computes* a key: dispatchers use it only to
//! enumerate a small candidate set that provably contains the argmin,
//! then compare candidates with the exact same floating-point
//! expressions the reference linear scan uses — which is how the
//! indexed picks reproduce the scan bit-for-bit (the `pick_crosscheck`
//! feature asserts this on every pick).

use std::cell::{Ref, RefCell};
use std::collections::BTreeSet;

/// Fleets below this size keep the index disabled and dispatch via
/// the reference scan: walking a couple dozen boards is cheaper than
/// maintaining the orderings on every board-local event, and the two
/// paths pick identically, so the threshold is a pure perf knob (the
/// `fleet_chaos` quick leg, 20 boards of heavy churn, regressed ~20%
/// paying repairs it could never amortise).
pub(crate) const INDEX_MIN_BOARDS: usize = 32;

/// Stale sets at or below this size are walked exactly per pick
/// instead of going through the cached [`StaleView`]: collecting and
/// sorting a handful of boards costs more than evaluating them
/// directly, and small sets are the steady state (boards only go
/// stale when a service estimate overran).
pub(crate) const STALE_SCAN_MAX: usize = 16;

/// Which class a board is filed under (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum BoardClass {
    /// Not placeable (down or blacked out): in no set.
    None,
    /// Backlog is exactly zero and stays zero as the clock advances.
    Zero {
        /// `(dispatched as f64).to_bits()` — the `LeastLoaded` tie key.
        disp_bits: u64,
    },
    /// Busy-until is ahead of the clock and independent of it.
    Ordered {
        /// Bit pattern of the absolute busy-until value.
        busy_bits: u64,
        /// Bit pattern of the in-flight finish estimate when the class
        /// must demote once the clock passes it (online mode only).
        ifl_bits: Option<u64>,
    },
    /// Busy-until depends on the clock: bucketed by lapse time and
    /// served through the cached [`StaleView`].
    Stale {
        /// Bit pattern of the in-flight finish estimate that lapsed
        /// (`0` for an idle board with queued work) — the bucket key.
        /// Identical keys still invalidate the view on refile: the
        /// board's backlog may have moved even though its lapse time
        /// did not.
        lapse_bits: u64,
    },
}

/// Cached orderings over the stale class, valid for one `(clock,
/// revision)` pair. Stale backlogs are clock-dependent (`fold(now) −
/// now` — the bits genuinely change as `now` moves), so the view is
/// rebuilt from exact per-board backlog bits whenever the clock has
/// advanced or any stale board was refiled, and reused verbatim across
/// the picks in between (bursty arrivals at one timestamp, the hot
/// adversarial pattern). Since backlogs are non-negative and finite,
/// bit order *is* numeric order, and dispatchers walk the same head
/// equal-key groups they walk in the ordered class.
#[derive(Clone, Debug, Default)]
pub(crate) struct StaleView {
    /// Clock bits the view was built at.
    now_bits: u64,
    /// `stale_rev` the view was built at.
    rev: u64,
    /// Every stale board by `(backlog bits, board)`, ascending.
    by_bl: Vec<(u64, u32)>,
    /// Stale boards per architecture class, same order.
    by_bl_arch: Vec<Vec<(u64, u32)>>,
}

impl StaleView {
    /// All stale boards, ascending `(backlog bits, board)`.
    #[inline]
    pub(crate) fn all(&self) -> &[(u64, u32)] {
        &self.by_bl
    }

    /// Stale boards of architecture class `a`, same order.
    #[inline]
    pub(crate) fn arch(&self, a: usize) -> &[(u64, u32)] {
        &self.by_bl_arch[a]
    }
}

/// The maintained index structure. Owned by
/// [`ClusterState`](crate::state::ClusterState); all classification
/// logic lives there (it needs the live board state), this type only
/// keeps the sets consistent and answers ordered queries.
#[derive(Clone, Debug, Default)]
pub(crate) struct DispatchIndex {
    /// Is the index live? Off by default: states built by tests and
    /// benches mutate boards directly, so dispatchers fall back to the
    /// reference scan unless the owner opts in and maintains it.
    pub(crate) enabled: bool,
    /// Current class of each board (`class[b]` mirrors set membership).
    class: Vec<BoardClass>,
    /// Architecture-class id per board, first-appearance order.
    arch_of: Vec<u32>,
    /// Distinct architecture classes.
    n_arch: usize,
    /// Zero-class boards by `(dispatched bits, board)`.
    zero: BTreeSet<(u64, u32)>,
    /// Zero-class boards per architecture class, by board index.
    zero_arch: Vec<BTreeSet<u32>>,
    /// Ordered-class boards by `(busy bits, board)`.
    ordered: BTreeSet<(u64, u32)>,
    /// Ordered-class boards per architecture class.
    ordered_arch: Vec<BTreeSet<(u64, u32)>>,
    /// Ordered-class boards whose class lapses when the clock passes
    /// their in-flight finish estimate, by `(estimate bits, board)`.
    inflight: BTreeSet<(u64, u32)>,
    /// Stale-class boards by `(lapse bits, board)` — ordered by when
    /// their in-flight estimate lapsed, so rebuild order (and the
    /// fallback exact walk) is deterministic.
    stale: BTreeSet<(u64, u32)>,
    /// Bumped whenever any board enters, leaves or refiles within the
    /// stale class; part of the [`StaleView`] cache key.
    stale_rev: u64,
    /// Cached per-(clock, revision) stale orderings, rebuilt lazily on
    /// first use after an invalidation (interior mutability: picks
    /// hold `&ClusterState`).
    stale_view: RefCell<StaleView>,
}

impl DispatchIndex {
    /// Reset to an empty, enabled index over `arch_of.len()` boards.
    pub(crate) fn reset(&mut self, arch_of: Vec<u32>, n_arch: usize) {
        let n = arch_of.len();
        self.enabled = true;
        self.class = vec![BoardClass::None; n];
        self.arch_of = arch_of;
        self.n_arch = n_arch;
        self.zero = BTreeSet::new();
        self.zero_arch = vec![BTreeSet::new(); n_arch];
        self.ordered = BTreeSet::new();
        self.ordered_arch = vec![BTreeSet::new(); n_arch];
        self.inflight = BTreeSet::new();
        self.stale = BTreeSet::new();
        // Keep the revision monotone across resets so a view cached
        // before a rebuild can never alias a fresh (clock, revision)
        // pair.
        self.stale_rev += 1;
    }

    /// Remove board `b` from whatever sets its current class filed it
    /// in, then file it under `class`.
    pub(crate) fn set_class(&mut self, b: usize, class: BoardClass) {
        // Any refile touching the stale class invalidates the cached
        // view — including an identical reclassification: a queue
        // mutation moves a stale board's backlog without moving its
        // lapse key, and the view orders by backlog.
        if matches!(class, BoardClass::Stale { .. })
            || matches!(self.class[b], BoardClass::Stale { .. })
        {
            self.stale_rev += 1;
        }
        if class == self.class[b] {
            // Identical classification files identically: skip the
            // remove + insert round trip.
            return;
        }
        let bu = b as u32;
        let a = self.arch_of[b] as usize;
        match self.class[b] {
            BoardClass::None => {}
            BoardClass::Zero { disp_bits } => {
                self.zero.remove(&(disp_bits, bu));
                self.zero_arch[a].remove(&bu);
            }
            BoardClass::Ordered {
                busy_bits,
                ifl_bits,
            } => {
                self.ordered.remove(&(busy_bits, bu));
                self.ordered_arch[a].remove(&(busy_bits, bu));
                if let Some(fb) = ifl_bits {
                    self.inflight.remove(&(fb, bu));
                }
            }
            BoardClass::Stale { lapse_bits } => {
                self.stale.remove(&(lapse_bits, bu));
            }
        }
        match class {
            BoardClass::None => {}
            BoardClass::Zero { disp_bits } => {
                self.zero.insert((disp_bits, bu));
                self.zero_arch[a].insert(bu);
            }
            BoardClass::Ordered {
                busy_bits,
                ifl_bits,
            } => {
                self.ordered.insert((busy_bits, bu));
                self.ordered_arch[a].insert((busy_bits, bu));
                if let Some(fb) = ifl_bits {
                    self.inflight.insert((fb, bu));
                }
            }
            BoardClass::Stale { lapse_bits } => {
                self.stale.insert((lapse_bits, bu));
            }
        }
        self.class[b] = class;
    }

    /// The earliest ordered entry at or behind `now_bits`, if any —
    /// the clock-advance sweep target.
    pub(crate) fn ordered_lapsed(&self, now_bits: u64) -> Option<usize> {
        match self.ordered.first() {
            Some(&(bits, b)) if bits <= now_bits => Some(b as usize),
            _ => None,
        }
    }

    /// The earliest filed in-flight estimate strictly behind
    /// `now_bits`, if any — the other clock-advance sweep target.
    pub(crate) fn inflight_lapsed(&self, now_bits: u64) -> Option<usize> {
        match self.inflight.first() {
            Some(&(bits, b)) if bits < now_bits => Some(b as usize),
            _ => None,
        }
    }

    /// Distinct architecture classes.
    #[inline]
    pub(crate) fn n_arch(&self) -> usize {
        self.n_arch
    }

    /// Any zero-class (backlog exactly zero) board?
    #[inline]
    pub(crate) fn has_zero(&self) -> bool {
        !self.zero.is_empty()
    }

    /// The zero-class board minimising `(dispatched, board)` — the
    /// `LeastLoaded` champion among idle boards.
    #[inline]
    pub(crate) fn zero_min(&self) -> Option<usize> {
        self.zero.first().map(|&(_, b)| b as usize)
    }

    /// The lowest-indexed zero-class board in architecture class `a` —
    /// the band champion where per-arch keys tie on everything but `b`.
    #[inline]
    pub(crate) fn zero_min_arch(&self, a: usize) -> Option<usize> {
        self.zero_arch[a].first().map(|&b| b as usize)
    }

    /// Ordered-class boards, ascending busy-until (then board index).
    #[inline]
    pub(crate) fn ordered_iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.ordered.iter().map(|&(_, b)| b as usize)
    }

    /// Ordered-class boards of architecture class `a`, ascending
    /// busy-until (then board index).
    #[inline]
    pub(crate) fn ordered_iter_arch(&self, a: usize) -> impl Iterator<Item = usize> + '_ {
        self.ordered_arch[a].iter().map(|&(_, b)| b as usize)
    }

    /// Stale-class boards, ascending `(lapse time, board)` — the exact
    /// per-pick walk for small sets (and the deterministic rebuild
    /// order for the view).
    #[inline]
    pub(crate) fn stale_iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.stale.iter().map(|&(_, b)| b as usize)
    }

    /// The cached stale orderings for the current clock, or `None`
    /// when the stale set is small enough (≤ [`STALE_SCAN_MAX`]) that
    /// the caller should walk [`stale_iter`](Self::stale_iter)
    /// exactly. `backlog_bits` must return board `b`'s exact current
    /// backlog bits (the same value the pick's key expressions read);
    /// it is only invoked on a rebuild — when the clock has moved or a
    /// stale board was refiled since the view was last built.
    pub(crate) fn stale_view(
        &self,
        now_bits: u64,
        backlog_bits: impl Fn(usize) -> u64,
    ) -> Option<Ref<'_, StaleView>> {
        if self.stale.len() <= STALE_SCAN_MAX {
            return None;
        }
        {
            let v = self.stale_view.borrow();
            if v.now_bits == now_bits && v.rev == self.stale_rev {
                return Some(v);
            }
        }
        let mut v = self.stale_view.borrow_mut();
        v.now_bits = now_bits;
        v.rev = self.stale_rev;
        v.by_bl.clear();
        if v.by_bl_arch.len() != self.n_arch {
            v.by_bl_arch.resize(self.n_arch, Vec::new());
        }
        for arch in &mut v.by_bl_arch {
            arch.clear();
        }
        for &(_, b) in &self.stale {
            v.by_bl.push((backlog_bits(b as usize), b));
        }
        v.by_bl.sort_unstable();
        for i in 0..v.by_bl.len() {
            let (bits, b) = v.by_bl[i];
            v.by_bl_arch[self.arch_of[b as usize] as usize].push((bits, b));
        }
        drop(v);
        Some(self.stale_view.borrow())
    }

    /// Filed entries across every class (diagnostics / tests).
    #[cfg(test)]
    pub(crate) fn filed(&self) -> usize {
        self.zero.len() + self.ordered.len() + self.stale.len()
    }

    /// Stale entries currently filed (diagnostics / tests).
    #[cfg(test)]
    pub(crate) fn stale_len(&self) -> usize {
        self.stale.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index(n: usize) -> DispatchIndex {
        let mut idx = DispatchIndex::default();
        // Two architecture classes, alternating by parity.
        idx.reset((0..n).map(|b| (b % 2) as u32).collect(), 2);
        idx
    }

    /// The view only engages past `STALE_SCAN_MAX`, orders by exact
    /// backlog bits globally and per class, and is reused verbatim
    /// while `(clock, revision)` is unchanged.
    #[test]
    fn stale_view_engages_sorts_and_caches() {
        let n = STALE_SCAN_MAX + 4;
        let mut idx = index(n);
        for b in 0..STALE_SCAN_MAX {
            idx.set_class(
                b,
                BoardClass::Stale {
                    lapse_bits: b as u64,
                },
            );
        }
        // At the threshold: callers must walk the exact iterator.
        assert!(idx.stale_view(1, |_| 0).is_none());
        for b in STALE_SCAN_MAX..n {
            idx.set_class(
                b,
                BoardClass::Stale {
                    lapse_bits: b as u64,
                },
            );
        }
        assert_eq!(idx.stale_len(), n);
        // Backlog descending in board index → the view must re-sort.
        let bl = |b: usize| (n - b) as u64;
        let view = idx.stale_view(1, bl).expect("past the threshold");
        let all: Vec<(u64, u32)> = view.all().to_vec();
        assert_eq!(all.len(), n);
        assert!(all.windows(2).all(|w| w[0] <= w[1]), "sorted by backlog");
        assert_eq!(all[0], (1, (n - 1) as u32), "deepest board files first");
        for a in 0..2 {
            assert!(view.arch(a).iter().all(|&(_, b)| b as usize % 2 == a));
            assert!(view.arch(a).windows(2).all(|w| w[0] <= w[1]));
        }
        drop(view);
        // Same clock, same revision: the rebuild closure must not run.
        let cached = idx
            .stale_view(1, |_| panic!("cache hit must not rebuild"))
            .expect("cached");
        assert_eq!(cached.all(), &all[..]);
        drop(cached);
        // A clock move alone invalidates (stale backlogs are
        // clock-dependent).
        let moved = idx.stale_view(2, |b| b as u64).expect("rebuilt");
        assert_eq!(moved.all()[0], (0, 0));
        drop(moved);
        // A refile under the *same* lapse key still invalidates: the
        // board's backlog may have moved even though its key did not.
        idx.set_class(3, BoardClass::Stale { lapse_bits: 3 });
        let rebuilt = idx.stale_view(2, |b| (n - b) as u64).expect("rebuilt");
        assert_eq!(rebuilt.all()[0], (1, (n - 1) as u32));
        drop(rebuilt);
        // Leaving the class shrinks the set below the threshold + 1;
        // dropping to the threshold disengages the view entirely.
        for b in 0..4 {
            idx.set_class(b, BoardClass::None);
        }
        assert_eq!(idx.stale_len(), n - 4);
        assert!(idx.stale_view(2, |_| 0).is_none());
    }

    /// The stale set itself stays ordered by `(lapse time, board)` so
    /// the fallback exact walk and rebuild order are deterministic.
    #[test]
    fn stale_set_orders_by_lapse_time() {
        let mut idx = index(6);
        for (b, lapse) in [(4usize, 7u64), (1, 3), (5, 3), (0, 9)] {
            idx.set_class(b, BoardClass::Stale { lapse_bits: lapse });
        }
        let walked: Vec<usize> = idx.stale_iter().collect();
        assert_eq!(walked, vec![1, 5, 4, 0]);
        assert_eq!(idx.filed(), 4);
    }
}
