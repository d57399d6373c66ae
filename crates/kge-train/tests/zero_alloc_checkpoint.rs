//! Zero-allocation regression test for the periodic-checkpoint path.
//!
//! The trainer checkpoints through three pooled buffers (the byte sink,
//! the residual-id scratch, and the traffic export scratch) that live for
//! the whole run. After one warm-up encode has grown every pool to its
//! high-water mark, further checkpoints of evolving state — mutated model
//! rows, advanced optimizer clocks, new residuals of the same shape,
//! longer RNG streams — must perform **zero** heap allocations: a
//! steady-state epoch with `checkpoint_every` set pays serialization CPU
//! and the modeled clock charge, never allocator traffic. (Writing the
//! bytes to disk goes through `std::fs` and is outside the guarantee, as
//! is a checkpoint whose state outgrew the pools.)

#[global_allocator]
static ALLOC: kge_core::alloc_count::CountingAlloc = kge_core::alloc_count::CountingAlloc;

use kge_compress::ResidualStore;
use kge_core::{alloc_count, EmbeddingTable, OptimStateView};
use kge_train::checkpoint::{encode_into, CheckpointView, Tallies};
use kge_train::comm_select::{CommChoice, SelectorSnapshot};
use kge_train::lr::PlateauSnapshot;
use kge_train::report::EpochTrace;
use rand::rngs::StdRng;
use rand::SeedableRng;
use simgrid::{Collective, TimeBreakdown};

#[test]
fn steady_state_checkpoint_encoding_allocates_nothing() {
    let _exclusive = alloc_count::exclusive();
    let dim = 64usize;
    let n_ent = 300usize;
    let n_rel = 12usize;
    let mut rng = StdRng::seed_from_u64(17);
    let mut ent = EmbeddingTable::xavier(n_ent, dim, &mut rng);
    let rel = EmbeddingTable::xavier(n_rel, dim, &mut rng);
    let m = vec![0.25f32; n_ent * dim];
    let v = vec![0.5f32; n_ent * dim];
    let row_t = vec![7u32; n_ent];
    let accum = vec![1.5f32; n_rel * dim];
    let mut ent_residual = ResidualStore::new();
    let residual_row = vec![0.125f32; dim];
    for row in (0..n_ent).step_by(3) {
        ent_residual.set_row(row as u32, &residual_row);
    }
    let rel_residual = ResidualStore::new();
    let tallies = Tallies {
        allreduce_epochs: 9,
        allgather_epochs: 3,
        pipelined_epochs: 2,
        recoveries: 0,
        rejoins: 0,
        checkpoints_written: 4,
        crashed_ranks: Vec::new(),
    };
    let trace: Vec<EpochTrace> = (0..12)
        .map(|e| EpochTrace {
            epoch: e,
            sim_seconds: e as f64 * 1.5,
            comm: CommChoice::AllGather,
            valid_acc: 0.5,
            train_loss: 0.75,
            lr_scale: 2.0,
            mean_nonzero_rows: 80.0,
            mean_rows_sent: 60.0,
            rs_sparsity: 0.25,
            bytes_sent: 1 << 20,
            ranking: None,
        })
        .collect();
    let traffic = vec![
        (Collective::AllGatherV, [12, 4096, 8192, 2048, 2048, 2]),
        (Collective::Barrier, [24, 0, 0, 0, 0, 0]),
    ];
    let p2p_seq = vec![0u64; 4];

    // The trainer's pooled buffers.
    let mut buf: Vec<u8> = Vec::new();
    let mut ids: Vec<u32> = Vec::new();
    let mut traffic_scratch: Vec<(Collective, [u64; 6])> = Vec::new();

    let encode = |epoch: usize,
                      ent: &EmbeddingTable,
                      buf: &mut Vec<u8>,
                      ids: &mut Vec<u32>,
                      traffic_scratch: &mut Vec<(Collective, [u64; 6])>| {
        traffic_scratch.clear();
        traffic_scratch.extend_from_slice(&traffic);
        let view = CheckpointView {
            world_size: 4,
            rank: 1,
            next_epoch: epoch,
            seed: 42,
            ent,
            rel: &rel,
            ent_opt: OptimStateView::Adam {
                m: &m,
                v: &v,
                t: epoch as u64,
                row_t: &row_t,
            },
            rel_opt: OptimStateView::Adagrad { accum: &accum },
            ent_residual: &ent_residual,
            rel_residual: &rel_residual,
            rng_state: 0x9E37 ^ epoch as u64,
            schedule: PlateauSnapshot {
                node_scale: 4.0,
                decay_scale: 1.0,
                decay: 0.1,
                tolerance: 15,
                max_drops: 2,
                drops: 0,
                best: 0.5,
                since_best: epoch as u64 % 3,
                converged: false,
            },
            selector: Some(SelectorSnapshot {
                state: 0,
                arm: CommChoice::AllReduce,
                check_every: 10,
                epoch: epoch as u64,
                last_allreduce_time: Some(1.5),
                gather_time: 2.5,
            }),
            tallies: &tallies,
            trace: &trace,
            clock_now_s: epoch as f64 * 2.25,
            breakdown: TimeBreakdown::default(),
            traffic: &*traffic_scratch,
            coll_seq: epoch as u64 * 3,
            p2p_seq: &p2p_seq,
        };
        encode_into(&view, ids, buf);
    };

    // Warm-up: pools grow to their high-water marks.
    encode(1, &ent, &mut buf, &mut ids, &mut traffic_scratch);
    let warm_len = buf.len();
    assert!(warm_len > 0);

    // Steady state: evolving values, identical shapes — zero allocations.
    // The counters are process-global, so libtest's own helper threads can
    // inject a stray allocation; a real leak in the encode path would fire
    // on every pass, so one clean pass out of five proves the path clean.
    let mut last = alloc_count::AllocSnapshot {
        allocs: u64::MAX,
        deallocs: 0,
        bytes: 0,
    };
    let mut clean = false;
    for attempt in 0..5 {
        let start = alloc_count::snapshot();
        for epoch in 2..8 {
            ent.as_mut_slice()[attempt * 8 + epoch] += 0.0625;
            encode(epoch, &ent, &mut buf, &mut ids, &mut traffic_scratch);
            assert_eq!(buf.len(), warm_len, "same shapes must encode to same size");
        }
        last = alloc_count::since(start);
        if last.allocs == 0 {
            clean = true;
            break;
        }
    }
    assert!(
        clean,
        "steady-state checkpoint encode allocated {} times ({} bytes) on every attempt",
        last.allocs, last.bytes
    );
}
