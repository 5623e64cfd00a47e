//! The cluster model: N independent big.LITTLE boards.
//!
//! Boards do not share memory or caches — the fleet's unit of placement
//! is a whole job on a whole board, like a rack of single-board
//! computers behind a dispatcher. Heterogeneous clusters mix big-rich
//! (Odroid XU4) and LITTLE-rich (RK3399) architectures so placement
//! quality is observable.

use astro_hw::boards::BoardSpec;

/// A named fleet of boards.
#[derive(Clone, Debug)]
pub struct ClusterSpec {
    /// The boards, in dispatch index order.
    pub boards: Vec<BoardSpec>,
}

impl ClusterSpec {
    /// `n` identical boards.
    pub fn homogeneous(n: usize, board: BoardSpec) -> Self {
        ClusterSpec {
            boards: (0..n).map(|_| board.clone()).collect(),
        }
    }

    /// `n` boards alternating big-rich Odroid XU4 and LITTLE-rich
    /// RK3399 (even indices are XU4s, so any prefix is ~half and half).
    pub fn heterogeneous(n: usize) -> Self {
        ClusterSpec {
            boards: (0..n)
                .map(|i| {
                    if i % 2 == 0 {
                        BoardSpec::odroid_xu4()
                    } else {
                        BoardSpec::rk3399()
                    }
                })
                .collect(),
        }
    }

    /// Number of boards.
    pub fn len(&self) -> usize {
        self.boards.len()
    }

    /// Is the cluster empty?
    pub fn is_empty(&self) -> bool {
        self.boards.is_empty()
    }

    /// Stable architecture key of board `b` — policy-cache entries and
    /// service profiles are shared between boards with equal keys.
    pub fn arch_key(&self, b: usize) -> &'static str {
        self.boards[b].name
    }

    /// Is board `b` big-rich (at least as many big as LITTLE cores)?
    pub fn big_rich(&self, b: usize) -> bool {
        self.boards[b].num_big >= self.boards[b].num_little
    }

    /// Index of the first board with architecture key `key`. Panics on
    /// a key the cluster does not contain (keys come from
    /// [`ClusterSpec::arch_keys`]).
    pub fn representative_board_idx(&self, key: &str) -> usize {
        (0..self.len())
            .find(|&b| self.arch_key(b) == key)
            .expect("architecture key not present in this cluster")
    }

    /// The first board with architecture key `key` (see
    /// [`ClusterSpec::representative_board_idx`]).
    pub fn representative_board(&self, key: &str) -> &BoardSpec {
        &self.boards[self.representative_board_idx(key)]
    }

    /// The distinct architecture keys present, in first-appearance order.
    pub fn arch_keys(&self) -> Vec<&'static str> {
        self.arch_classes().0
    }

    /// The board→architecture-class map: the distinct keys in
    /// first-appearance order, and each board's index into them. The
    /// one derivation the kernel's estimate tables, per-architecture
    /// [`JobEstimates`](crate::dispatch::JobEstimates) and the dispatch
    /// index all share, so their class numbering always agrees.
    pub(crate) fn arch_classes(&self) -> (Vec<&'static str>, Vec<u32>) {
        let mut keys: Vec<&'static str> = Vec::new();
        let class_of = (0..self.len())
            .map(|b| {
                let k = self.arch_key(b);
                let c = keys.iter().position(|&x| x == k).unwrap_or_else(|| {
                    keys.push(k);
                    keys.len() - 1
                });
                u32::try_from(c).expect("architecture class count fits in u32")
            })
            .collect();
        (keys, class_of)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heterogeneous_mixes_architectures() {
        let c = ClusterSpec::heterogeneous(6);
        assert_eq!(c.len(), 6);
        assert_eq!(c.arch_keys().len(), 2);
        assert!(c.big_rich(0));
        assert!(!c.big_rich(1));
        // Boards sharing an arch share the key.
        assert_eq!(c.arch_key(0), c.arch_key(2));
        assert_ne!(c.arch_key(0), c.arch_key(1));
        let (keys, class_of) = c.arch_classes();
        assert_eq!(keys, c.arch_keys());
        assert_eq!(class_of, [0, 1, 0, 1, 0, 1]);
    }

    #[test]
    fn homogeneous_has_one_key() {
        let c = ClusterSpec::homogeneous(4, BoardSpec::odroid_xu4());
        assert_eq!(c.arch_keys().len(), 1);
        assert!(!c.is_empty());
    }
}
