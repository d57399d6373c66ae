//! Zero-allocation regression test for the **pipelined** exchange path.
//!
//! Companion to `zero_alloc.rs` (which covers the synchronous exchanges);
//! kept in its own binary so the counting global allocator only ever sees
//! one test's traffic. Drives the trainer's pipelined steady state — a
//! two-slot ring of [`PipelineSlot`]s where batch `b` first completes the
//! exchange staged at `b − window` and then stages its own payload, with
//! a fresh stage-keyed RNG per batch (the shim `StdRng` is a stack-only
//! splitmix64 counter, so per-batch construction is free). After a
//! warm-up epoch sizes every slot's wire buffers, a second epoch plus its
//! drain must perform **zero** heap allocations.

#[global_allocator]
static ALLOC: kge_core::alloc_count::CountingAlloc = kge_core::alloc_count::CountingAlloc;

use kge_compress::row_select::select_rows;
use kge_compress::QuantScheme;
use kge_core::alloc_count;
use kge_core::SparseGrad;
use kge_data::synth::{generate, SynthConfig};
use kge_data::FilterIndex;
use kge_train::exchange::{
    complete_allreduce_overlapped, complete_gather_exchange_overlapped, encode_gather_payload,
    stage_allreduce_payload, PipelineSlot,
};
use kge_train::{BatchWorkspace, StrategyConfig, TrainConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use simgrid::{Cluster, ClusterSpec};

const WINDOW: usize = 2;

#[test]
fn steady_state_pipelined_loop_allocates_nothing() {
    let _exclusive = alloc_count::exclusive();
    let ds = generate(&SynthConfig {
        name: "alloc-pipe".into(),
        n_entities: 300,
        n_relations: 12,
        n_triples: 3000,
        relation_zipf: 1.0,
        entity_zipf: 0.8,
        noise_frac: 0.05,
        valid_frac: 0.05,
        test_frac: 0.05,
        seed: 9,
    });
    let config = TrainConfig::new(4, 256, StrategyConfig::baseline_allgather(2));

    let deltas = Cluster::new(1, ClusterSpec::cray_xc40()).run(|ctx| {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .expect("single-thread pool");
        pool.install(|| {
            let model = config.model.build(config.rank);
            let model = model.as_ref();
            let dim = model.storage_dim();
            let filter = FilterIndex::build(&ds);
            let mut init_rng = StdRng::seed_from_u64(config.seed);
            let mut ent = kge_core::EmbeddingTable::xavier(ds.n_entities, dim, &mut init_rng);
            let mut rel = kge_core::EmbeddingTable::xavier(ds.n_relations, dim, &mut init_rng);
            let mut ent_opt = config.optimizer.build(config.base_lr, ds.n_entities, dim);
            let mut rel_opt = config.optimizer.build(config.base_lr, ds.n_relations, dim);
            let mut ws = BatchWorkspace::new(dim);
            let mut pipeline: Vec<PipelineSlot> =
                (0..WINDOW).map(|_| PipelineSlot::default()).collect();
            let mut agg = SparseGrad::new(dim);
            let batches = ds.train.len().div_ceil(config.batch_size);
            assert!(batches > WINDOW, "need a steady state deeper than the window");

            // One pipelined epoch: complete-then-launch per batch (both
            // the gather and the dense all-reduce flavors, like a DRS
            // run that alternates), then drain the last WINDOW slots.
            let epoch = |ent: &mut kge_core::EmbeddingTable,
                             rel: &mut kge_core::EmbeddingTable,
                             ws: &mut BatchWorkspace,
                             pipeline: &mut Vec<PipelineSlot>,
                             agg: &mut SparseGrad,
                             ent_opt: &mut dyn kge_core::RowOptimizer,
                             rel_opt: &mut dyn kge_core::RowOptimizer,
                             ctx: &mut simgrid::NodeCtx| {
                let complete = |slot: &mut PipelineSlot,
                                    agg: &mut SparseGrad,
                                    ent: &mut kge_core::EmbeddingTable,
                                    rel: &mut kge_core::EmbeddingTable,
                                    ent_opt: &mut dyn kge_core::RowOptimizer,
                                    rel_opt: &mut dyn kge_core::RowOptimizer,
                                    ctx: &mut simgrid::NodeCtx| {
                    complete_gather_exchange_overlapped(
                        ctx.comm_mut(),
                        dim,
                        &mut slot.ent_gather,
                        agg,
                        slot.anchor_s,
                    )
                    .expect("ent gather completion");
                    agg.ensure_sorted();
                    ent_opt.step_lazy(ent, agg, 1.0);
                    complete_allreduce_overlapped(ctx.comm_mut(), &mut slot.rel_dense, slot.anchor_s)
                        .expect("rel allreduce completion");
                    rel_opt.step_dense(rel, &slot.rel_dense, 1.0);
                };
                for b in 0..batches {
                    ws.batch_gradients_into(
                        model, ent, rel, &ds.train, b, &config, &filter, None, 0, 0,
                    );
                    if b >= WINDOW {
                        let slot = &mut pipeline[b % WINDOW];
                        complete(slot, agg, ent, rel, ent_opt, rel_opt, ctx);
                    }
                    // Launch: stage-keyed RNG, row selection, encode.
                    let slot = &mut pipeline[b % WINDOW];
                    slot.anchor_s = ctx.comm().clock().now_s();
                    let mut stage_rng = StdRng::seed_from_u64(config.seed ^ ((b as u64) << 1));
                    select_rows(config.strategy.row_select, ws.ent_grad_mut(), &mut stage_rng);
                    ws.ent_grad_mut().ensure_sorted();
                    slot.ent_stats = encode_gather_payload(
                        ws.ent_grad(),
                        dim,
                        QuantScheme::paper_one_bit(),
                        None,
                        &mut stage_rng,
                        &mut slot.ent_gather,
                    );
                    slot.rel_stats = stage_allreduce_payload(
                        ws.rel_grad(),
                        &mut slot.rel_dense,
                        ds.n_relations * dim,
                    );
                }
                for b in batches - WINDOW..batches {
                    let slot = &mut pipeline[b % WINDOW];
                    complete(slot, agg, ent, rel, ent_opt, rel_opt, ctx);
                }
            };

            // Warm-up pass: allowed (and expected) to allocate.
            epoch(
                &mut ent,
                &mut rel,
                &mut ws,
                &mut pipeline,
                &mut agg,
                ent_opt.as_mut(),
                rel_opt.as_mut(),
                ctx,
            );

            // Steady-state pass: every slot's buffers must be reused.
            let start = alloc_count::snapshot();
            epoch(
                &mut ent,
                &mut rel,
                &mut ws,
                &mut pipeline,
                &mut agg,
                ent_opt.as_mut(),
                rel_opt.as_mut(),
                ctx,
            );
            alloc_count::since(start)
        })
    });

    let delta = deltas[0];
    assert_eq!(
        delta.allocs, 0,
        "steady-state pipelined loop allocated {} times ({} bytes)",
        delta.allocs, delta.bytes
    );
}
