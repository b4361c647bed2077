//! Deterministic discrete-event simulation engine.
//!
//! Everything in the Hopper reproduction runs on top of this crate: a
//! virtual millisecond clock ([`SimTime`]), a stable priority event queue
//! ([`EventQueue`]) whose pop order is a *total* order (ties broken by
//! insertion sequence), and seeded randomness helpers ([`rng_from_seed`],
//! [`SeedSequence`]) so that every experiment is exactly reproducible from a
//! single `u64` seed.
//!
//! The engine is intentionally synchronous and single threaded, in the
//! spirit of event-driven network stacks (cf. smoltcp): simulation state
//! machines `poll` events, never block, and never perform hidden I/O.

pub mod queue;
pub mod time;

pub use queue::{EventQueue, QueueCounters};
pub use time::SimTime;

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Create a deterministic RNG from a `u64` seed.
///
/// All randomness in the workspace must flow through RNGs created here (or
/// split off a [`SeedSequence`]) so that a single seed reproduces an entire
/// experiment.
pub fn rng_from_seed(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Deterministically derives independent child seeds from a root seed.
///
/// Different simulation components (workload synthesis, task-duration draws,
/// probe placement, ...) each take their own child seed so that changing how
/// many random numbers one component consumes does not perturb the others.
/// Derivation uses the SplitMix64 finalizer, which is well distributed even
/// for sequential indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedSequence {
    root: u64,
}

impl SeedSequence {
    /// Create a sequence rooted at `seed`.
    pub fn new(seed: u64) -> Self {
        Self { root: seed }
    }

    /// The root seed this sequence was created from.
    pub fn root(&self) -> u64 {
        self.root
    }

    /// Derive the `index`-th child seed.
    pub fn child(&self, index: u64) -> u64 {
        splitmix64(self.root ^ splitmix64(index.wrapping_add(0x9E37_79B9_7F4A_7C15)))
    }

    /// Derive an RNG for the `index`-th child.
    pub fn child_rng(&self, index: u64) -> StdRng {
        rng_from_seed(self.child(index))
    }
}

/// SplitMix64 finalizer: a cheap, high-quality 64-bit mixing function.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn rng_is_deterministic() {
        let mut a = rng_from_seed(42);
        let mut b = rng_from_seed(42);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = rng_from_seed(1);
        let mut b = rng_from_seed(2);
        let va: Vec<u64> = (0..8).map(|_| a.gen()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.gen()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn seed_sequence_children_are_stable_and_distinct() {
        let seq = SeedSequence::new(7);
        let c0 = seq.child(0);
        let c1 = seq.child(1);
        assert_eq!(c0, SeedSequence::new(7).child(0));
        assert_ne!(c0, c1);
        assert_ne!(seq.child(100), seq.child(101));
    }

    #[test]
    fn seed_sequence_root_accessor() {
        assert_eq!(SeedSequence::new(99).root(), 99);
    }

    #[test]
    fn splitmix_spreads_sequential_inputs() {
        // Hamming-ish sanity: consecutive inputs should not produce
        // consecutive outputs.
        let a = splitmix64(1);
        let b = splitmix64(2);
        assert!(a.abs_diff(b) > 1 << 16);
    }
}
