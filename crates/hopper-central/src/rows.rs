//! The Hopper launch loop's row table, kept across dispatches.
//!
//! Each pass of `hopper_launch_loop` reads one row per active job in
//! allocation order: `(job, hold)`, the job's target, whether it is
//! eligible (headroom and runnable work), and the held total. Between two
//! passes only a few rows change, so the table is kept and patched: the
//! allocator's change feed replays its order edits
//! ([`hopper_core::OrderEdit`]) and names the jobs whose grant moved, the
//! driver marks jobs whose usage or runnable work moved, and each row
//! caches an [`Interval`] of the shared speculation multiplier on which
//! its hold — through the anticipation `⌈(m−1)·usage⌉` — provably keeps
//! its value. Only those rows are recomputed (see DESIGN.md,
//! "Incremental central allocation").

use hopper_core::{Interval, OrderEdit};

/// A bit per row, in row order, with insertion and removal at any
/// position (rows shift, bits follow).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct RowBits {
    words: Vec<u64>,
    len: usize,
}

impl RowBits {
    pub(crate) fn clear(&mut self) {
        self.words.clear();
        self.len = 0;
    }

    pub(crate) fn push(&mut self, bit: bool) {
        self.insert(self.len, bit);
    }

    pub(crate) fn set(&mut self, i: usize, bit: bool) {
        debug_assert!(i < self.len);
        let mask = 1u64 << (i % 64);
        if bit {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }

    /// Insert `bit` at `i`, shifting the bits at `i..` up by one.
    pub(crate) fn insert(&mut self, i: usize, bit: bool) {
        debug_assert!(i <= self.len);
        if self.len.is_multiple_of(64) {
            self.words.push(0);
        }
        let (wi, bi) = (i / 64, i % 64);
        for w in (wi + 1..self.words.len()).rev() {
            self.words[w] = (self.words[w] << 1) | (self.words[w - 1] >> 63);
        }
        let low = (1u64 << bi) - 1;
        let x = self.words[wi];
        self.words[wi] = (x & low) | ((x & !low) << 1) | (u64::from(bit) << bi);
        self.len += 1;
    }

    /// Remove the bit at `i`, shifting the bits above it down by one.
    pub(crate) fn remove(&mut self, i: usize) -> bool {
        debug_assert!(i < self.len);
        let (wi, bi) = (i / 64, i % 64);
        let x = self.words[wi];
        let bit = (x >> bi) & 1 == 1;
        let low = (1u64 << bi) - 1;
        self.words[wi] = (x & low) | ((x >> 1) & !low);
        for w in wi..self.words.len() - 1 {
            self.words[w] |= (self.words[w + 1] & 1) << 63;
            self.words[w + 1] >>= 1;
        }
        self.len -= 1;
        if self.len.is_multiple_of(64) {
            self.words.pop();
        }
        bit
    }

    /// First set bit at or after `i`.
    pub(crate) fn next_set(&self, i: usize) -> Option<usize> {
        let mut wi = i / 64;
        let mut w = *self.words.get(wi)? & (!0u64 << (i % 64));
        loop {
            if w != 0 {
                return Some(wi * 64 + w.trailing_zeros() as usize);
            }
            wi += 1;
            w = *self.words.get(wi)?;
        }
    }
}

/// Work counters of the row table, kept out of `RunReport.core` (which
/// the benchmark fingerprint hashes). Exact per seed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RowCounters {
    /// Rows recomputed at the start of a launch-loop pass (a rebuild
    /// counts every row). Per pass: divide by the pre-warm passes.
    pub refreshed: u64,
    /// Passes that rebuilt the whole table (the first, and after the
    /// allocator re-sorted its order).
    pub rebuilds: u64,
}

/// The persistent launch-loop state (Hopper only).
#[derive(Debug, Clone, Default)]
pub(crate) struct RowTable {
    /// `(job, hold)` in allocation order — what `bind_holds` reads.
    pub rows: Vec<(usize, usize)>,
    /// Each row's target (the job's grant).
    pub targets: Vec<usize>,
    /// Rows with headroom (`usage < target`) and runnable work.
    pub elig: RowBits,
    /// `Σ hold` over the rows.
    pub held: usize,
    /// Whether `rows` mirrors the allocator (false until the first build).
    pub built: bool,
    /// Jobs whose row must be recomputed before the next pass.
    dirty: Vec<usize>,
    marked: Vec<bool>,
    /// The queue as of the last [`Self::take_dirty`].
    pub taken: Vec<usize>,
    /// Per row, the shared multipliers on which its hold provably keeps
    /// its value ([`Interval::ALL`] without a learned β, and for rows
    /// without headroom or running copies, whose hold does not move
    /// with `m`).
    pub valid: Vec<Interval>,
    /// The multiplier the holds were last computed at.
    pub mult: Option<f64>,
    /// Scratch for the allocator's change feed.
    pub edits: Vec<OrderEdit>,
    pub moved: Vec<usize>,
    pub counters: RowCounters,
}

impl RowTable {
    pub(crate) fn new(jobs: usize) -> Self {
        RowTable {
            marked: vec![false; jobs],
            ..Default::default()
        }
    }

    /// Queue job `j`'s row for recomputation.
    pub(crate) fn touch(&mut self, j: usize) {
        if !self.marked[j] {
            self.marked[j] = true;
            self.dirty.push(j);
        }
    }

    /// Whether job `j`'s row is queued.
    pub(crate) fn is_touched(&self, j: usize) -> bool {
        self.marked[j]
    }

    /// Move the queued jobs into `taken` and clear their marks.
    pub(crate) fn take_dirty(&mut self) {
        self.taken.clear();
        std::mem::swap(&mut self.taken, &mut self.dirty);
        for &j in &self.taken {
            self.marked[j] = false;
        }
    }

    /// Replay one allocator order edit. An inserted row starts empty and
    /// is queued; a removed row's hold leaves the total.
    pub(crate) fn apply(&mut self, edit: OrderEdit) {
        match edit {
            OrderEdit::Insert { at, job } => {
                self.rows.insert(at, (job, 0));
                self.targets.insert(at, 0);
                self.valid.insert(at, Interval::ALL);
                self.elig.insert(at, false);
                self.touch(job);
            }
            OrderEdit::Remove { at } => {
                self.held -= self.rows.remove(at).1;
                self.targets.remove(at);
                self.valid.remove(at);
                self.elig.remove(at);
            }
            OrderEdit::Move { from, to } => {
                if to < from {
                    self.rows[to..=from].rotate_right(1);
                    self.targets[to..=from].rotate_right(1);
                    self.valid[to..=from].rotate_right(1);
                } else {
                    self.rows[from..=to].rotate_left(1);
                    self.targets[from..=to].rotate_left(1);
                    self.valid[from..=to].rotate_left(1);
                }
                let bit = self.elig.remove(from);
                self.elig.insert(to, bit);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_bits_follow_inserts_removes_and_moves() {
        // Against a Vec<bool> model, across word boundaries.
        let mut bits = RowBits::default();
        let mut model: Vec<bool> = vec![];
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for step in 0..20_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let len = model.len();
            match x % 5 {
                0 | 1 if len < 300 => {
                    let i = (x >> 8) as usize % (len + 1);
                    let b = (x >> 40) & 1 == 1;
                    bits.insert(i, b);
                    model.insert(i, b);
                }
                2 if len > 0 => {
                    let i = (x >> 8) as usize % len;
                    assert_eq!(bits.remove(i), model.remove(i), "step {step}");
                }
                3 if len > 0 => {
                    let i = (x >> 8) as usize % len;
                    let b = (x >> 40) & 1 == 1;
                    bits.set(i, b);
                    model[i] = b;
                }
                _ => {}
            }
            let from = (x >> 20) as usize % (model.len() + 1);
            let want = (from..model.len()).find(|&i| model[i]);
            assert_eq!(bits.next_set(from), want, "step {step}");
        }
    }
}
