//! Zero-allocation regression test for the steady-state serving path
//! (ISSUE: batched query admission + pooled top-k heaps).
//!
//! Installs the counting global allocator from `kge-core` and drives
//! submit/drain batches against one [`ServeEngine`]. After one warm-up
//! drain per admission shape (unfiltered batch, filtered batch, single
//! query), repeating the same shapes must perform **zero** heap
//! allocations: the pending queue, relation-sorted order, tile score
//! buffer, pooled per-query heaps, and flat result storage all keep
//! their capacity across drains.

#[global_allocator]
static ALLOC: kge_core::alloc_count::CountingAlloc = kge_core::alloc_count::CountingAlloc;

use std::sync::Arc;

use kge_core::{alloc_count, ComplEx, EmbeddingTable, KgeModel};
use kge_data::{GroupedFilter, Triple};
use kge_serve::{ModelSnapshot, Query, ServeEngine};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn steady_state_serve_batches_allocate_nothing() {
    let _exclusive = alloc_count::exclusive();
    let n_entities = 300usize;
    let n_relations = 6u32;
    let model: Arc<dyn KgeModel> = Arc::new(ComplEx::new(16));
    let dim = model.storage_dim();

    let mut rng = StdRng::seed_from_u64(17);
    let ent = EmbeddingTable::xavier(n_entities, dim, &mut rng);
    let rel = EmbeddingTable::xavier(n_relations as usize, dim, &mut rng);
    let snapshot = Arc::new(ModelSnapshot::build(model, &ent, &rel, 1));
    let triples: Vec<Triple> = (0..400)
        .map(|_| {
            Triple::new(
                rng.gen_range(0..n_entities as u32),
                rng.gen_range(0..n_relations),
                rng.gen_range(0..n_entities as u32),
            )
        })
        .collect();
    let filter = Arc::new(GroupedFilter::from_triples(triples.into_iter()));
    let mut engine = ServeEngine::with_filter(snapshot, Some(filter));

    // Fixed query mix: 64-query unfiltered batch, 64-query filtered
    // batch, and one lone query — the shapes replayed in steady state.
    let unfiltered: Vec<Query> = (0..64u32)
        .map(|i| Query {
            head: (i * 37) % n_entities as u32,
            rel: i % n_relations,
            k: 10,
            filtered: false,
        })
        .collect();
    let filtered: Vec<Query> = unfiltered
        .iter()
        .map(|q| Query { filtered: true, ..*q })
        .collect();
    let lone = Query { head: 11, rel: 2, k: 10, filtered: true };

    let run_shapes = |engine: &mut ServeEngine| {
        let mut sum = 0u64;
        for batch in [&unfiltered, &filtered] {
            for &q in batch.iter() {
                engine.submit(q);
            }
            engine.drain();
            for i in 0..batch.len() {
                sum += engine.results().get(i).iter().map(|h| h.entity as u64).sum::<u64>();
            }
        }
        engine.submit(lone);
        engine.drain();
        sum += engine.results().get(0).iter().map(|h| h.entity as u64).sum::<u64>();
        sum
    };

    // Warm-up: sizes every pooled buffer; allowed to allocate.
    let warm = run_shapes(&mut engine);

    // Steady state: replaying the same shapes must not touch the heap.
    let start = alloc_count::snapshot();
    let a = run_shapes(&mut engine);
    let b = run_shapes(&mut engine);
    let delta = alloc_count::since(start);

    assert_eq!(warm, a, "buffer reuse changed the results");
    assert_eq!(a, b, "steady-state drains diverged");
    assert_eq!(
        delta.allocs, 0,
        "steady-state serving allocated {} times ({} bytes)",
        delta.allocs, delta.bytes
    );
}
