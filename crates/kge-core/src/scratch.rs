//! Reusable scratch buffers for the allocation-free hot path.
//!
//! The shim rayon pool spawns scoped workers per parallel region, so
//! thread-locals cannot carry scratch across batches. Instead a
//! [`ScratchPool`] checks boxed scratch objects in and out: a chunk worker
//! acquires one (allocating only on pool miss, i.e. during warm-up),
//! fills it, and the driver releases it after the merge. After one epoch
//! the pool holds as many scratches as the peak concurrency and the
//! steady state recycles them with zero heap traffic.

use std::sync::Mutex;

/// A check-in/check-out pool of reusable scratch objects.
pub struct ScratchPool<T> {
    free: Mutex<Vec<Box<T>>>,
}

impl<T> Default for ScratchPool<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> ScratchPool<T> {
    pub fn new() -> Self {
        ScratchPool {
            free: Mutex::new(Vec::new()),
        }
    }

    /// Check out a scratch, building a fresh one with `init` on pool miss.
    pub fn acquire_with(&self, init: impl FnOnce() -> T) -> Box<T> {
        let pooled = self.free.lock().expect("scratch pool poisoned").pop();
        pooled.unwrap_or_else(|| Box::new(init()))
    }

    /// Return a scratch for reuse. The caller is responsible for leaving
    /// it in a reusable state (cleared, capacities intact).
    pub fn release(&self, item: Box<T>) {
        self.free.lock().expect("scratch pool poisoned").push(item);
    }

    /// Number of scratches currently checked in.
    pub fn idle(&self) -> usize {
        self.free.lock().expect("scratch pool poisoned").len()
    }
}

/// Arenas for block scoring ([`crate::model::KgeModel::score_triples`])
/// and the fused score+gradient block
/// ([`crate::model::KgeModel::score_grad_block`]). Both walk the block one
/// group of [`crate::model::BLOCK_T_LANES`] examples at a time, so only
/// the per-example scores and coefficients are block-sized; the gathered
/// rows, lane-major tiles and gradient arenas hold one group. All buffers
/// grow to their high-water mark during warm-up and are reused verbatim
/// afterwards.
#[derive(Debug, Default)]
pub struct BlockScratch {
    /// The group's gathered head rows, `len × dim`, contiguous.
    pub h: Vec<f32>,
    /// The group's gathered relation rows.
    pub r: Vec<f32>,
    /// The group's gathered tail rows.
    pub t: Vec<f32>,
    /// Per-example scores for the whole block.
    pub scores: Vec<f32>,
    /// Per-example upstream loss coefficients `∂L/∂φ` for the whole block.
    pub coeffs: Vec<f32>,
    /// Gradient arena for the group's head rows (written by the fused pass).
    pub gh: Vec<f32>,
    /// Gradient arena for the group's relation rows.
    pub gr: Vec<f32>,
    /// Gradient arena for the group's tail rows.
    pub gt: Vec<f32>,
    /// Lane-major head tile for the transposed forward kernel: element `k`
    /// of lane `j` at `ht[k * BLOCK_T_LANES + j]`.
    pub ht: Vec<f32>,
    /// Lane-major relation tile.
    pub rt: Vec<f32>,
    /// Lane-major tail tile.
    pub tt: Vec<f32>,
}

impl BlockScratch {
    pub fn new() -> Self {
        Self::default()
    }

    /// Size the arenas for a block of `n` examples of `dim` floats. Keeps
    /// existing capacity; only grows allocations past the high-water mark.
    /// The gradient arenas and tiles are *not* re-zeroed here — every
    /// group overwrites the part it reads.
    pub fn reserve(&mut self, n: usize, dim: usize) {
        let group = crate::model::BLOCK_T_LANES * dim;
        self.h.clear();
        self.r.clear();
        self.t.clear();
        self.h.reserve(group);
        self.r.reserve(group);
        self.t.reserve(group);
        self.scores.resize(n, 0.0);
        self.coeffs.resize(n, 0.0);
        for arena in [
            &mut self.gh,
            &mut self.gr,
            &mut self.gt,
            &mut self.ht,
            &mut self.rt,
            &mut self.tt,
        ] {
            arena.resize(group, 0.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_recycles_objects() {
        let pool: ScratchPool<Vec<u8>> = ScratchPool::new();
        assert_eq!(pool.idle(), 0);
        let mut a = pool.acquire_with(|| Vec::with_capacity(64));
        a.push(1);
        let cap = a.capacity();
        pool.release(a);
        assert_eq!(pool.idle(), 1);
        let b = pool.acquire_with(Vec::new);
        // Same object comes back, capacity intact.
        assert_eq!(b.capacity(), cap);
        assert_eq!(pool.idle(), 0);
    }

    #[test]
    fn block_scratch_reserve_grows_once() {
        let group = crate::model::BLOCK_T_LANES * 4;
        let mut s = BlockScratch::new();
        s.reserve(40, 4);
        // Row arenas hold one group; scores span the block.
        assert_eq!(s.h.capacity(), group);
        assert_eq!(s.scores.len(), 40);
        let caps = (s.h.capacity(), s.scores.capacity());
        s.reserve(4, 4); // smaller block: no shrink, no realloc
        assert_eq!((s.h.capacity(), s.scores.capacity()), caps);
        assert_eq!(s.scores.len(), 4);
        assert_eq!(s.gh.len(), group);
    }
}
