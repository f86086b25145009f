//! A loser tree: the least of a fixed set of keys, kept up to date as the
//! least one changes, in exactly ⌈log₂ n⌉ comparisons and no data-dependent
//! branch.
//!
//! A link merges its attached arrival processes with one
//! ([`crate::link`]): each process is a leaf keyed by its packed
//! `(fire time, arming stamp)`, and only the process that just fired — the
//! winner — ever changes its key. A binary heap does the same job in
//! `O(log n)` too, but its sift stops at a data-dependent depth and
//! branches on every compare, which a CPU mispredicts about half the time
//! on random keys. Here the leaves are padded to a power of two with keys
//! that never win, so a replay climbs every level of the tree, and each
//! match is decided by selects.

use std::hint::select_unpredictable;

/// The key of a padding leaf: greater than any real key (a real key's low
/// half is an arming stamp, which never reaches `u64::MAX`).
const NEVER: u128 = u128::MAX;

/// A loser tree over `u128` keys; leaves are numbered in insertion order.
#[derive(Debug, Default)]
pub(crate) struct LoserTree {
    /// Leaf keys, padded with [`NEVER`] to a power-of-two length.
    keys: Vec<u128>,
    /// `nodes[0]` is the winning leaf. `nodes[i]` for `1 ≤ i < keys.len()`
    /// is the leaf that lost the match at internal node `i`, whose
    /// children are nodes `2i` and `2i + 1`; leaf `j` sits at node
    /// `keys.len() + j`.
    nodes: Vec<u32>,
    /// Real leaves (the rest of `keys` is padding).
    leaves: usize,
    /// Key comparisons made by replays, for the op-count gates.
    #[cfg(test)]
    pub(crate) compares: u64,
}

impl LoserTree {
    /// Whether the tree has no leaves.
    pub(crate) fn is_empty(&self) -> bool {
        self.leaves == 0
    }

    /// Add a leaf with `key` and rebuild the tree.
    pub(crate) fn push(&mut self, key: u128) {
        debug_assert!(key < NEVER, "a key that can never win");
        self.keys.truncate(self.leaves);
        self.keys.push(key);
        self.leaves += 1;
        let width = self.leaves.next_power_of_two();
        self.keys.resize(width, NEVER);
        // Play every match bottom-up: `won[i]` is the winner below node i.
        let mut won = vec![0u32; 2 * width];
        for (leaf, slot) in won[width..].iter_mut().enumerate() {
            *slot = leaf as u32;
        }
        self.nodes = vec![0; width];
        for node in (1..width).rev() {
            let (a, b) = (won[2 * node], won[2 * node + 1]);
            let b_wins = self.keys[b as usize] < self.keys[a as usize];
            won[node] = if b_wins { b } else { a };
            self.nodes[node] = if b_wins { a } else { b };
        }
        self.nodes[0] = if width == 1 { 0 } else { won[1] };
    }

    /// The winning leaf and its key. The tree must not be empty.
    #[inline]
    pub(crate) fn winner(&self) -> (u32, u128) {
        let leaf = self.nodes[0];
        (leaf, self.keys[leaf as usize])
    }

    /// Give the winning leaf a new key and replay its matches up to the
    /// root: one comparison per level, winner and loser chosen by selects.
    #[inline]
    pub(crate) fn replace_winner(&mut self, key: u128) {
        debug_assert!(key < NEVER, "a key that can never win");
        let leaf = self.nodes[0] as usize;
        self.keys[leaf] = key;
        // The climbing winner's key rides in a register: which nodes the
        // replay visits is fixed by the leaf, so only the selects wait on
        // the compares.
        let (mut winner, mut winner_key) = (leaf, key);
        let mut node = (self.keys.len() + leaf) >> 1;
        while node > 0 {
            let other = self.nodes[node] as usize;
            let other_key = self.keys[other];
            let other_wins = other_key < winner_key;
            self.nodes[node] = select_unpredictable(other_wins, winner, other) as u32;
            winner = select_unpredictable(other_wins, other, winner);
            winner_key = select_unpredictable(other_wins, other_key, winner_key);
            node >>= 1;
            #[cfg(test)]
            {
                self.compares += 1;
            }
        }
        self.nodes[0] = winner as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Prng;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// Against a binary heap of `(key, leaf)`: same winner after every
    /// push and every replay, whatever the leaf count, with keys drawn
    /// from a narrow range so equal high halves (same-instant ties) abound.
    #[test]
    fn pops_in_heap_order() {
        let mut rng = Prng::new(0x7EE);
        for n in 1..=40usize {
            let mut tree = LoserTree::default();
            let mut heap = BinaryHeap::new();
            let mut stamp = 0u64;
            // Due 0–7 ns after `at`, armed now: a fresh stamp.
            let mut key = |rng: &mut Prng, at: u128| {
                stamp += 1;
                ((at + rng.below(8) as u128) << 64) | stamp as u128
            };
            for leaf in 0..n as u32 {
                let k = key(&mut rng, 0);
                tree.push(k);
                heap.push(Reverse((k, leaf)));
                assert_eq!(Some(tree.winner()), heap.peek().map(|r| (r.0 .1, r.0 .0)));
            }
            for _ in 0..200 {
                let Reverse((k, leaf)) = heap.pop().unwrap();
                assert_eq!(tree.winner(), (leaf, k));
                let next = key(&mut rng, k >> 64);
                tree.replace_winner(next);
                heap.push(Reverse((next, leaf)));
            }
            let depth = n.next_power_of_two().trailing_zeros() as u64;
            assert_eq!(tree.compares, 200 * depth, "{n} leaves");
        }
    }
}
