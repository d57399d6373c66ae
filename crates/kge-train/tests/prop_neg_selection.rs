//! Property test: chunk-batched negative staging (`stage_negatives`, the
//! trainer's path, which scores every positive's sample-selection pool in
//! one block call) must reproduce the per-positive reference
//! `sample_negatives` exactly — the same `(label, triple)` sequence, the
//! same discarded count, and the same RNG draws consumed — for every
//! model, `select(m, n)` policy, chunk length and tie pattern.
//!
//! Run under both dispatch arms (`KGE_FORCE_SCALAR=1` pins the block
//! scorer to its scalar path; see `scripts/check.sh`).

use kge_core::{ComplEx, DistMult, EmbeddingTable, KgeModel, RotatE, SimplE, TransE};
use kge_data::{Dataset, FilterIndex, Triple};
use kge_train::neg::{sample_negatives, stage_negatives, CorruptionBias, SelectScratch};
use kge_train::NegSampling;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const N_ENT: usize = 40;
const N_REL: usize = 4;
/// Chunk lengths around one lane group (16) and at the trainer's chunk
/// size (256).
const CHUNK_LENS: [usize; 5] = [1, 15, 16, 17, 256];

fn model(kind: usize, rank: usize) -> Box<dyn KgeModel> {
    match kind {
        0 => Box::new(ComplEx::new(rank)),
        1 => Box::new(DistMult::new(rank)),
        2 => Box::new(TransE::new(rank)),
        3 => Box::new(RotatE::new(rank)),
        _ => Box::new(SimplE::new(rank)),
    }
}

fn random_triples(n: usize, rng: &mut StdRng) -> Vec<Triple> {
    (0..n)
        .map(|_| {
            Triple::new(
                rng.gen_range(0..N_ENT) as u32,
                rng.gen_range(0..N_REL) as u32,
                rng.gen_range(0..N_ENT) as u32,
            )
        })
        .collect()
}

/// The staged sequence and discarded count of one chunk, per positive
/// through the reference.
#[allow(clippy::too_many_arguments)]
fn reference(
    policy: NegSampling,
    positives: &[Triple],
    model: &dyn KgeModel,
    ent: &EmbeddingTable,
    rel: &EmbeddingTable,
    filter: &FilterIndex,
    bias: Option<&CorruptionBias>,
    rng: &mut StdRng,
) -> (Vec<(f32, Triple)>, usize) {
    let mut staged = Vec::new();
    let mut discarded = 0;
    for &pos in positives {
        staged.push((1.0, pos));
        let nb = sample_negatives(policy, pos, model, ent, rel, filter, bias, N_ENT, rng);
        staged.extend(nb.train.into_iter().map(|t| (-1.0, t)));
        discarded += nb.scored_discarded;
    }
    (staged, discarded)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn chunk_staging_matches_per_positive_reference(
        kind in 0usize..5,
        rank in 1usize..12,
        m in 1usize..4,
        extra in 0usize..6,
        len_idx in 0usize..5,
        tied in any::<bool>(),
        bern in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let model = model(kind, rank);
        let model = model.as_ref();
        let dim = model.storage_dim();
        let policy = NegSampling::select(m, m + extra);
        let mut data_rng = StdRng::seed_from_u64(seed);
        let mut ent = EmbeddingTable::xavier(N_ENT, dim, &mut data_rng);
        let rel = EmbeddingTable::xavier(N_REL, dim, &mut data_rng);
        if tied {
            // Three distinct entity rows: most pools hold equal scores,
            // so the kept order is decided by draw order alone.
            for e in 3..N_ENT {
                let src = ent.row(e % 3).to_vec();
                ent.row_mut(e).copy_from_slice(&src);
            }
        }
        let known = random_triples(150, &mut data_rng);
        let filter = FilterIndex::from_triples(known.iter().copied());
        let ds = Dataset {
            name: "prop".into(),
            n_entities: N_ENT,
            n_relations: N_REL,
            train: known,
            valid: vec![],
            test: vec![],
        };
        let bias = bern.then(|| CorruptionBias::fit(&ds));
        let len = CHUNK_LENS[len_idx];

        // Two chunks through one scratch: reuse must not leak state.
        let mut scratch = SelectScratch::default();
        let mut ref_rng = StdRng::seed_from_u64(seed ^ 1);
        let mut rng = StdRng::seed_from_u64(seed ^ 1);
        for _ in 0..2 {
            let positives = random_triples(len, &mut data_rng);
            let (want, want_discarded) = reference(
                policy, &positives, model, &ent, &rel, &filter, bias.as_ref(), &mut ref_rng,
            );
            let mut labels = Vec::new();
            let mut triples = Vec::new();
            let discarded = stage_negatives(
                policy,
                positives.iter().copied(),
                model,
                &ent,
                &rel,
                &filter,
                bias.as_ref(),
                N_ENT,
                &mut rng,
                &mut scratch,
                &mut labels,
                &mut triples,
            );
            let got: Vec<(f32, Triple)> = labels
                .into_iter()
                .zip(triples.into_iter().map(Triple::from))
                .collect();
            prop_assert_eq!(got, want);
            prop_assert_eq!(discarded, want_discarded);
            prop_assert_eq!(discarded, len * extra);
        }
        // Both paths consumed exactly the same draws.
        prop_assert_eq!(rng.gen::<u64>(), ref_rng.gen::<u64>());
    }
}
