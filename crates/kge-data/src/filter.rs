//! The all-known-triples index for filtered evaluation and true-negative
//! sampling.
//!
//! Both structures are built once by sorting: every triple is packed as
//! `[rel, head, tail]`, sorted and deduplicated, and the sorted run is
//! turned into
//! - a flat open-addressed membership table ([`FilterIndex::contains`],
//!   the negative sampler's per-draw probe), and
//! - CSR known-completion lists, one per query side
//!   ([`GroupedFilter`]): a sorted array of `(rel, anchor)` group keys,
//!   offsets, and the ascending, deduplicated completions of each group.
//!
//! Both are exact — a false positive in `contains` would change which
//! negatives are drawn.

use crate::dataset::Dataset;
use crate::triple::Triple;

/// Distinct triples packed as `[rel, head, tail]`, sorted ascending.
fn sorted_unique(triples: impl Iterator<Item = Triple>) -> Vec<[u32; 3]> {
    let mut keys: Vec<[u32; 3]> = triples.map(|t| [t.rel, t.head, t.tail]).collect();
    keys.sort_unstable();
    keys.dedup();
    // The CSR offsets are `u32`, and fewer keys than relation ids leaves
    // one id free for the membership table's free-slot marker.
    assert!(
        keys.len() < u32::MAX as usize,
        "filter indexes hold < 2^32 triples"
    );
    keys
}

/// Exact set of triples in one flat open-addressed table: linear probing
/// over `[rel, head, tail]` slots, a multiplicative integer hash, and a
/// load factor of at most ½. A slot is free when its relation word is
/// `empty`, a relation id no stored triple uses, so no key is ever
/// mistaken for a free slot or the other way round.
#[derive(Debug, Clone)]
struct TripleSet {
    slots: Vec<[u32; 3]>,
    /// `64 − log2(slots.len())`: the hash's top bits pick the home slot.
    shift: u32,
    empty: u32,
}

impl TripleSet {
    /// From distinct keys sorted ascending (the sort makes the unused
    /// relation id a single backwards scan).
    fn build(sorted: &[[u32; 3]]) -> Self {
        // The largest relation id no key uses.
        let mut empty = u32::MAX;
        for k in sorted.iter().rev() {
            if k[0] < empty {
                break;
            }
            if k[0] == empty {
                empty -= 1;
            }
        }
        let cap = (2 * sorted.len()).next_power_of_two().max(2);
        let mut set = TripleSet {
            slots: vec![[empty, 0, 0]; cap],
            shift: 64 - cap.trailing_zeros(),
            empty,
        };
        let mask = cap - 1;
        for k in sorted {
            let mut i = set.home(k);
            while set.slots[i][0] != empty {
                i = (i + 1) & mask;
            }
            set.slots[i] = *k;
        }
        set
    }

    /// Home slot: two multiply rounds of Fibonacci hashing, top bits.
    /// Measured on FB15K-like data, a stronger finalizer costs more per
    /// probe than the clustering it removes at this load factor.
    #[inline]
    fn home(&self, k: &[u32; 3]) -> usize {
        const M: u64 = 0x9E37_79B9_7F4A_7C15;
        let h = ((k[0] as u64) << 32 | k[1] as u64).wrapping_mul(M);
        let h = (h.rotate_left(29) ^ k[2] as u64).wrapping_mul(M);
        (h >> self.shift) as usize
    }

    #[inline]
    fn contains(&self, k: [u32; 3]) -> bool {
        let mask = self.slots.len() - 1;
        let mut i = self.home(&k);
        loop {
            let s = self.slots[i];
            // Free-slot test first: a probe whose relation word equals
            // `empty` can then never match a free slot's filler words.
            if s[0] == self.empty {
                return false;
            }
            if s == k {
                return true;
            }
            i = (i + 1) & mask;
        }
    }
}

impl Default for TripleSet {
    fn default() -> Self {
        TripleSet::build(&[])
    }
}

/// Known completions of one query side in CSR form: group `g` is the
/// `(rel, anchor)` pair `keys[g]` (packed `rel << 32 | anchor`, ascending)
/// and its completions are `items[offsets[g]..offsets[g + 1]]`, ascending
/// and deduplicated. Lookup is a binary search over `keys` — once per
/// query, never per candidate.
#[derive(Debug, Clone, Default)]
struct Adjacency {
    keys: Vec<u64>,
    offsets: Vec<u32>,
    items: Vec<u32>,
}

impl Adjacency {
    /// From distinct `[rel, anchor, completion]` keys sorted ascending.
    fn from_sorted(sorted: &[[u32; 3]]) -> Self {
        let mut adj = Adjacency {
            items: Vec::with_capacity(sorted.len()),
            ..Adjacency::default()
        };
        for k in sorted {
            let key = (k[0] as u64) << 32 | k[1] as u64;
            if adj.keys.last() != Some(&key) {
                adj.keys.push(key);
                adj.offsets.push(adj.items.len() as u32);
            }
            adj.items.push(k[2]);
        }
        adj.offsets.push(adj.items.len() as u32);
        adj.keys.shrink_to_fit();
        adj.offsets.shrink_to_fit();
        adj
    }

    #[inline]
    fn get(&self, rel: u32, anchor: u32) -> &[u32] {
        match self
            .keys
            .binary_search(&((rel as u64) << 32 | anchor as u64))
        {
            Ok(g) => &self.items[self.offsets[g] as usize..self.offsets[g + 1] as usize],
            Err(_) => &[],
        }
    }
}

/// Index over every triple of a dataset (train + valid + test).
///
/// Supports the two queries KGE evaluation needs:
/// - membership (`contains`), for filtered ranking and for rejecting
///   corrupted triples that are accidentally true;
/// - the known heads/tails of a `(rel, entity)` pair, ascending and
///   deduplicated, for filtered-rank computation without scanning.
///
/// Built once per training run and shared by every rank.
#[derive(Debug, Clone, Default)]
pub struct FilterIndex {
    all: TripleSet,
    lists: GroupedFilter,
}

impl FilterIndex {
    /// Build from every split of `ds`.
    pub fn build(ds: &Dataset) -> Self {
        Self::from_triples(ds.all_triples())
    }

    /// Build from an explicit triple stream (duplicates are ignored).
    pub fn from_triples(triples: impl Iterator<Item = Triple>) -> Self {
        let sorted = sorted_unique(triples);
        FilterIndex {
            all: TripleSet::build(&sorted),
            lists: GroupedFilter::from_sorted(sorted),
        }
    }

    /// Is `(h, r, t)` a known true triple?
    #[inline]
    pub fn contains(&self, t: Triple) -> bool {
        self.all.contains([t.rel, t.head, t.tail])
    }

    /// All known tails for `(rel, head)`, ascending.
    pub fn known_tails(&self, rel: u32, head: u32) -> &[u32] {
        self.lists.known_tails(head, rel)
    }

    /// All known heads for `(rel, tail)`, ascending.
    pub fn known_heads(&self, rel: u32, tail: u32) -> &[u32] {
        self.lists.known_heads(tail, rel)
    }

    /// Number of indexed triples.
    pub fn len(&self) -> usize {
        // Every distinct triple is exactly one tail-list entry.
        self.lists.tails.items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The filter inverted for blocked evaluation: for every `(entity, rel)`
/// query side, the **sorted, deduplicated** list of known completions.
///
/// `evaluate_ranking`'s scalar path probed `FilterIndex::contains` once per
/// candidate — a hash lookup inside the O(|queries| × |E|) inner loop. The
/// blocked path instead sweeps *all* candidates branch-free and then walks
/// these (short) lists once per query as a post-pass rank correction: one
/// lookup per query instead of one per candidate.
#[derive(Debug, Clone, Default)]
pub struct GroupedFilter {
    /// (rel, head) → sorted known tails.
    tails: Adjacency,
    /// (rel, tail) → sorted known heads.
    heads: Adjacency,
}

impl GroupedFilter {
    /// The lists of an existing [`FilterIndex`] (a copy; no rebuild).
    pub fn from_index(idx: &FilterIndex) -> Self {
        idx.lists.clone()
    }

    /// Build directly from a triple stream.
    pub fn from_triples(triples: impl Iterator<Item = Triple>) -> Self {
        Self::from_sorted(sorted_unique(triples))
    }

    /// From distinct `[rel, head, tail]` keys sorted ascending: the tail
    /// lists read the run as is; the head lists re-sort it as
    /// `[rel, tail, head]`.
    fn from_sorted(mut keys: Vec<[u32; 3]>) -> Self {
        let tails = Adjacency::from_sorted(&keys);
        for k in &mut keys {
            k.swap(1, 2);
        }
        keys.sort_unstable();
        GroupedFilter {
            tails,
            heads: Adjacency::from_sorted(&keys),
        }
    }

    /// Known true tails of `(head, rel, ?)`, ascending.
    #[inline]
    pub fn known_tails(&self, head: u32, rel: u32) -> &[u32] {
        self.tails.get(rel, head)
    }

    /// Known true heads of `(?, rel, tail)`, ascending.
    #[inline]
    pub fn known_heads(&self, tail: u32, rel: u32) -> &[u32] {
        self.heads.get(rel, tail)
    }

    /// Number of distinct `(head, rel)` groups (tail-side).
    pub fn n_tail_groups(&self) -> usize {
        self.tails.keys.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index() -> FilterIndex {
        FilterIndex::from_triples(
            [
                Triple::new(0, 0, 1),
                Triple::new(0, 0, 2),
                Triple::new(3, 0, 1),
                Triple::new(0, 1, 1),
            ]
            .into_iter(),
        )
    }

    #[test]
    fn membership() {
        let idx = index();
        assert!(idx.contains(Triple::new(0, 0, 1)));
        assert!(!idx.contains(Triple::new(1, 0, 0)));
        assert_eq!(idx.len(), 4);
    }

    #[test]
    fn known_tails_and_heads() {
        let idx = index();
        assert_eq!(idx.known_tails(0, 0), &[1, 2]);
        assert_eq!(idx.known_heads(0, 1), &[0, 3]);
        assert_eq!(idx.known_tails(9, 9), &[] as &[u32]);
    }

    #[test]
    fn duplicates_are_ignored() {
        let idx =
            FilterIndex::from_triples([Triple::new(0, 0, 1), Triple::new(0, 0, 1)].into_iter());
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.known_tails(0, 0), &[1]);
    }

    #[test]
    fn grouped_filter_lists_are_sorted_and_deduped() {
        let g = GroupedFilter::from_triples(
            [
                Triple::new(0, 0, 2),
                Triple::new(0, 0, 1),
                Triple::new(0, 0, 2), // duplicate
                Triple::new(3, 0, 1),
                Triple::new(0, 1, 1),
            ]
            .into_iter(),
        );
        assert_eq!(g.known_tails(0, 0), &[1, 2]);
        assert_eq!(g.known_heads(1, 0), &[0, 3]);
        assert_eq!(g.known_tails(0, 1), &[1]);
        assert_eq!(g.known_tails(9, 9), &[] as &[u32]);
        assert_eq!(g.n_tail_groups(), 3);
    }

    #[test]
    fn grouped_filter_agrees_with_index_membership() {
        let idx = index();
        let g = GroupedFilter::from_index(&idx);
        // Every candidate the scalar path would skip via `contains` appears
        // in the grouped list, and vice versa.
        for rel in 0..2u32 {
            for a in 0..4u32 {
                for b in 0..4u32 {
                    let t = Triple::new(a, rel, b);
                    assert_eq!(
                        idx.contains(t),
                        g.known_tails(a, rel).contains(&b),
                        "tail side {t:?}"
                    );
                    assert_eq!(
                        idx.contains(t),
                        g.known_heads(b, rel).contains(&a),
                        "head side {t:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn build_from_dataset_spans_splits() {
        let ds = Dataset {
            name: "t".into(),
            n_entities: 4,
            n_relations: 1,
            train: vec![Triple::new(0, 0, 1)],
            valid: vec![Triple::new(1, 0, 2)],
            test: vec![Triple::new(2, 0, 3)],
        };
        let idx = FilterIndex::build(&ds);
        assert_eq!(idx.len(), 3);
        assert!(idx.contains(Triple::new(2, 0, 3)));
    }
}
