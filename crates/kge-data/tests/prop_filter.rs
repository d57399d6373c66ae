//! Property test: `FilterIndex` (flat membership table + sort-built CSR
//! lists) and `GroupedFilter` agree exactly with `HashSet`/`BTreeMap`
//! references over random triples with duplicates — membership, the
//! known-head and known-tail lists (ascending, deduplicated), the length,
//! and the empty index.

use std::collections::{BTreeMap, BTreeSet, HashSet};

use kge_data::{FilterIndex, GroupedFilter, Triple};
use proptest::prelude::*;

/// Small id ranges make duplicates and shared groups common; ids near
/// `u32::MAX` exercise the membership table's free-slot marker.
fn id(small: u32, big: bool) -> u32 {
    if big {
        u32::MAX - small
    } else {
        small
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn filter_index_matches_reference(
        raw in proptest::collection::vec(
            ((0u32..12, 0u32..4, 0u32..12), (any::<bool>(), any::<bool>())),
            0..200,
        ),
        probes in proptest::collection::vec(
            ((0u32..13, 0u32..5, 0u32..13), (any::<bool>(), any::<bool>())),
            1..60,
        ),
    ) {
        let to_triple = |((h, r, t), (big_rel, big_ent)): ((u32, u32, u32), (bool, bool))| {
            Triple::new(id(h, big_ent), id(r, big_rel), id(t, big_ent))
        };
        let triples: Vec<Triple> = raw.into_iter().map(to_triple).collect();
        let idx = FilterIndex::from_triples(triples.iter().copied());
        let grouped = GroupedFilter::from_triples(triples.iter().copied());
        let from_index = GroupedFilter::from_index(&idx);

        let set: HashSet<Triple> = triples.iter().copied().collect();
        let mut tails: BTreeMap<(u32, u32), BTreeSet<u32>> = BTreeMap::new();
        let mut heads: BTreeMap<(u32, u32), BTreeSet<u32>> = BTreeMap::new();
        for t in &triples {
            tails.entry((t.rel, t.head)).or_default().insert(t.tail);
            heads.entry((t.rel, t.tail)).or_default().insert(t.head);
        }
        prop_assert_eq!(idx.len(), set.len());
        prop_assert_eq!(idx.is_empty(), set.is_empty());
        prop_assert_eq!(grouped.n_tail_groups(), tails.len());
        prop_assert_eq!(from_index.n_tail_groups(), tails.len());

        // Every stored triple plus random probes, hits and misses alike.
        let queries = triples.iter().copied().chain(probes.into_iter().map(to_triple));
        for q in queries {
            prop_assert_eq!(idx.contains(q), set.contains(&q), "contains {:?}", q);
            let want_tails: Vec<u32> = tails
                .get(&(q.rel, q.head))
                .map_or(Vec::new(), |s| s.iter().copied().collect());
            let want_heads: Vec<u32> = heads
                .get(&(q.rel, q.tail))
                .map_or(Vec::new(), |s| s.iter().copied().collect());
            prop_assert_eq!(idx.known_tails(q.rel, q.head), &want_tails[..]);
            prop_assert_eq!(idx.known_heads(q.rel, q.tail), &want_heads[..]);
            for g in [&grouped, &from_index] {
                prop_assert_eq!(g.known_tails(q.head, q.rel), &want_tails[..]);
                prop_assert_eq!(g.known_heads(q.tail, q.rel), &want_heads[..]);
            }
        }
    }
}

#[test]
fn empty_index_knows_nothing() {
    for idx in [
        FilterIndex::default(),
        FilterIndex::from_triples(std::iter::empty()),
    ] {
        assert_eq!(idx.len(), 0);
        assert!(idx.is_empty());
        for t in [
            Triple::new(0, 0, 0),
            Triple::new(u32::MAX, u32::MAX, u32::MAX),
        ] {
            assert!(!idx.contains(t));
            assert!(idx.known_tails(t.rel, t.head).is_empty());
            assert!(idx.known_heads(t.rel, t.tail).is_empty());
        }
        let g = GroupedFilter::from_index(&idx);
        assert_eq!(g.n_tail_groups(), 0);
        assert!(g.known_tails(0, 0).is_empty());
    }
}

#[test]
fn relation_ids_at_the_top_of_the_range_stay_exact() {
    // Every relation id from u32::MAX down is taken, so the free-slot
    // marker must come from below them.
    let triples: Vec<Triple> = (0..40u32)
        .map(|i| Triple::new(i % 7, u32::MAX - i, i % 5))
        .collect();
    let idx = FilterIndex::from_triples(triples.iter().copied());
    assert_eq!(idx.len(), 40);
    for t in &triples {
        assert!(idx.contains(*t));
        assert!(!idx.contains(t.with_tail(t.tail + 100)));
    }
    // A probe whose relation is the free-slot marker and whose other ids
    // match a free slot's filler words is still a miss.
    assert!(!idx.contains(Triple::new(0, u32::MAX - 40, 0)));
}
