//! Zero-allocation regression test for the steady-state evaluation path
//! (ISSUE: one-vs-all blocked evaluation kernels).
//!
//! Installs the counting global allocator from `kge-core` and drives
//! [`evaluate_ranking_with`] against a reused [`RankingWorkspace`] on a
//! single-thread worker pool. After one warm-up evaluation per protocol
//! variant (raw, filtered, and filtered-with-subsampling), repeating the
//! same evaluations must perform **zero** heap allocations: the tile
//! score buffers, counter arrays, subsample index buffers, and pooled
//! per-unit scratch are all checked out of the workspace and reused.
//!
//! Scope: the guarantee is single-thread, matching the trainer's
//! zero-alloc test — multi-thread pools spawn scoped workers and collect
//! per-unit scratch boxes, which allocate by construction (see DESIGN.md).

#[global_allocator]
static ALLOC: kge_core::alloc_count::CountingAlloc = kge_core::alloc_count::CountingAlloc;

use kge_core::{alloc_count, ComplEx, EmbeddingTable};
use kge_data::{GroupedFilter, Triple};
use kge_eval::{evaluate_ranking_with, RankingOptions, RankingWorkspace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn steady_state_ranking_eval_allocates_nothing() {
    let _exclusive = alloc_count::exclusive();
    let n_entities = 200usize;
    let n_relations = 8usize;
    let model = ComplEx::new(16);
    let dim = kge_core::KgeModel::storage_dim(&model);

    let mut rng = StdRng::seed_from_u64(41);
    let ent = EmbeddingTable::xavier(n_entities, dim, &mut rng);
    let rel = EmbeddingTable::xavier(n_relations, dim, &mut rng);
    let queries: Vec<Triple> = (0..150)
        .map(|_| {
            Triple::new(
                rng.gen_range(0..n_entities as u32),
                rng.gen_range(0..n_relations as u32),
                rng.gen_range(0..n_entities as u32),
            )
        })
        .collect();
    let grouped = GroupedFilter::from_triples(queries.iter().copied());

    let variants = [
        RankingOptions { filtered: false, max_queries: None, seed: 7 },
        RankingOptions { filtered: true, max_queries: None, seed: 7 },
        RankingOptions { filtered: true, max_queries: Some(60), seed: 7 },
    ];

    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("single-thread pool");
    let delta = pool.install(|| {
        let mut ws = RankingWorkspace::new();
        // Warm-up: sizes every buffer for the largest shapes each variant
        // touches; allowed (and expected) to allocate.
        let warm: Vec<_> = variants
            .iter()
            .map(|o| evaluate_ranking_with(&mut ws, &model, &ent, &rel, &queries, &grouped, o))
            .collect();

        // Steady state: no collects, no Vec growth — metrics are Copy.
        let start = alloc_count::snapshot();
        let a = evaluate_ranking_with(&mut ws, &model, &ent, &rel, &queries, &grouped, &variants[0]);
        let b = evaluate_ranking_with(&mut ws, &model, &ent, &rel, &queries, &grouped, &variants[1]);
        let c = evaluate_ranking_with(&mut ws, &model, &ent, &rel, &queries, &grouped, &variants[2]);
        let delta = alloc_count::since(start);

        // The reused workspace must not perturb results either.
        assert_eq!(warm, [a, b, c], "workspace reuse changed the metrics");
        delta
    });

    assert_eq!(
        delta.allocs, 0,
        "steady-state ranking eval allocated {} times ({} bytes)",
        delta.allocs, delta.bytes
    );
}
