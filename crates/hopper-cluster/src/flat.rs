//! [`TaskIndex`]: one flat index over a job's tasks, the pending and
//! locality half of `JobRun`'s incremental indices, and [`ReplicaSets`],
//! the job's task → replica-machine table it is built from.
//!
//! Tasks are numbered `g = first[phase] + task`, so ascending `g` is
//! exactly `(phase, task)` order, the order every replaced scan visited.
//! Bitsets over that numbering hold the pending and the running tasks,
//! plus the static set of tasks without a replica. The locality side is a
//! CSR over the job's distinct replica machines in ascending id order,
//! each machine's tasks sorted by `g`. The machines themselves are a
//! sparse machine bitset: one entry per 32-machine word that holds a
//! replica machine, with the word's replica machines, those of them with
//! pending work, and the CSR position of its first machine, so a
//! machine's position is its entry's plus a popcount. Every query
//! therefore iterates in the order the B-tree sets it replaced did, and a
//! job's index costs one `u32` per (task, replica) pair, one per replica
//! machine and four per replica word instead of one B-tree leaf per
//! replica machine, all in one block: building it allocates once.
//!
//! The replica sets themselves are the transpose of that CSR, by the same
//! task numbering: one offset per task into one machine array per job.

use crate::ids::{MachineId, TaskRef};
use crate::job::PhaseRun;

/// Each task's DFS replica machines (empty = no preference), as a CSR by
/// task number: task `g`'s set is `machines[starts[g]..starts[g + 1]]`.
/// Static job input, not a cache: only [`ReplicaSets::set`] rewrites it.
#[derive(Debug, Clone, Default)]
pub(crate) struct ReplicaSets {
    starts: Vec<u32>,
    machines: Vec<MachineId>,
}

impl ReplicaSets {
    /// An empty table with room for `tasks` tasks and `pairs` replicas.
    pub(crate) fn with_capacity(tasks: usize, pairs: usize) -> Self {
        let mut starts = Vec::with_capacity(tasks + 1);
        starts.push(0);
        ReplicaSets {
            starts,
            machines: Vec::with_capacity(pairs),
        }
    }

    /// Append the next task's set: `fill` pushes its machines onto the
    /// array and may read the ones it already pushed.
    pub(crate) fn push_task(&mut self, fill: impl FnOnce(&mut Vec<MachineId>)) {
        fill(&mut self.machines);
        let end = u32::try_from(self.machines.len()).expect("replica count fits u32");
        self.starts.push(end);
    }

    /// Task `g`'s replica set.
    pub(crate) fn get(&self, g: usize) -> &[MachineId] {
        &self.machines[self.starts[g] as usize..self.starts[g + 1] as usize]
    }

    /// Replace task `g`'s replica set with `new`.
    pub(crate) fn set(&mut self, g: usize, new: &[MachineId]) {
        let (lo, hi) = (self.starts[g] as usize, self.starts[g + 1] as usize);
        self.machines.splice(lo..hi, new.iter().copied());
        for s in &mut self.starts[g + 1..] {
            let moved = *s as usize - hi + lo + new.len();
            *s = u32::try_from(moved).expect("replica count fits u32");
        }
    }
}

/// Bit `i` of a bitset stored as 32-bit words.
fn bit(words: &[u32], i: usize) -> bool {
    words[i / 32] >> (i % 32) & 1 == 1
}

/// Set bit `i` to `on`; returns whether it changed.
fn put_bit(words: &mut [u32], i: usize, on: bool) -> bool {
    let (w, b) = (i / 32, 1u32 << (i % 32));
    let was = words[w] & b != 0;
    if on {
        words[w] |= b;
    } else {
        words[w] &= !b;
    }
    was != on
}

/// Index of the first non-zero word at or after `from` (the word count if
/// there is none).
fn first_word_from(words: &[u32], from: usize) -> usize {
    (from..words.len())
        .find(|&w| words[w] != 0)
        .unwrap_or(words.len())
}

/// Set bit positions of `x`, ascending.
fn bits(mut x: u32) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (x != 0).then(|| {
            let b = x.trailing_zeros() as usize;
            x &= x - 1;
            b
        })
    })
}

/// Set bit positions, ascending, of the words `word(w)` for `w` in `words`.
fn ones(words: std::ops::Range<usize>, word: impl Fn(usize) -> u32) -> impl Iterator<Item = usize> {
    words.flat_map(move |w| bits(word(w)).map(move |b| w * 32 + b))
}

/// The parts of a [`TaskIndex`] block, in block order.
#[derive(Debug, Clone, Copy)]
enum Part {
    /// `First[p]` numbers task 0 of phase `p`; one last entry holds the
    /// job's task count.
    First,
    /// CSR offsets over the distinct replica machines in ascending id
    /// order: the `k`-th one's tasks are `Tasks[Starts[k]..Starts[k + 1]]`.
    Starts,
    /// Tasks with a replica on each machine, ascending per machine.
    Tasks,
    /// Bitset of the tasks with an empty replica set (static).
    NoReplica,
    /// Bitset of the pending tasks: unlaunched (or requeued), unfinished,
    /// in an eligible phase.
    Pending,
    /// Bitset of the tasks with at least one running copy.
    Running,
    /// The machine words (`machine / 32`) holding a replica machine,
    /// ascending: one entry each in the three parts below, where bit `b`
    /// of a mask is machine `32 * word + b`.
    Words,
    /// Per entry, its replica machines (static).
    Replicas,
    /// Per entry, its replica machines with local pending work.
    Masks,
    /// Per entry, the CSR position of its first replica machine.
    Base,
}

const PARTS: usize = Part::Base as usize + 1;

/// Block range of part `p`, given each part's end.
fn range(ends: &[u32; PARTS], p: Part) -> std::ops::Range<usize> {
    let i = p as usize;
    let lo = if i == 0 { 0 } else { ends[i - 1] as usize };
    lo..ends[i] as usize
}

thread_local! {
    /// [`TaskIndex::scan`]'s `(machine, task)` pairs, kept between calls so
    /// that building a job's index allocates only its block.
    static PAIRS: std::cell::RefCell<Vec<u64>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// The flat pending/locality/running index of one job (see the module
/// docs). A pure cache: [`TaskIndex::scan`] derives it from the task
/// state, and `JobRun`'s transitions keep it equal to that scan. The
/// numbering, the CSR, the task bitsets and the machine masks share one
/// block of `u32`s, carved into the [`Part`]s.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct TaskIndex {
    block: Vec<u32>,
    /// Each part's end in `block`.
    ends: [u32; PARTS],
    /// First word of `Pending` with a set bit (its word count if none);
    /// every pending walk starts here.
    pending_lo: usize,
    /// Number of pending tasks.
    pending_len: usize,
    /// Number of pending tasks without a replica.
    pending_no_replica: usize,
}

impl TaskIndex {
    /// Ground truth by full scan of the task state (the oracle of the
    /// maintained index), given each task's running-copy count.
    pub(crate) fn scan(
        phases: &[PhaseRun],
        replicas: &ReplicaSets,
        running_copies: impl Fn(TaskRef) -> usize,
    ) -> TaskIndex {
        let n: usize = phases.iter().map(|p| p.tasks.len()).sum();
        let tasks = u32::try_from(n).expect("job task count fits u32");
        PAIRS.with_borrow_mut(|pairs| {
            // `(machine, task)` pairs, sorted: the CSR in machine order.
            pairs.clear();
            for g in 0..n {
                pairs.extend(replicas.get(g).iter().map(|m| {
                    let m = u32::try_from(m.0).expect("machine id fits u32");
                    u64::from(m) << 32 | g as u64
                }));
            }
            pairs.sort_unstable();
            pairs.dedup();
            let distinct = pairs.chunk_by(|a, b| a >> 32 == b >> 32).count();
            let entries = pairs.chunk_by(|a, b| a >> 37 == b >> 37).count();
            let words = n.div_ceil(32);
            // Part lengths, in `Part` order.
            let lens = [
                phases.len() + 1,
                distinct + 1,
                pairs.len(),
                words,
                words,
                words,
                entries,
                entries,
                entries,
                entries,
            ];
            let mut ends = [0u32; PARTS];
            let mut end = 0;
            for (e, len) in ends.iter_mut().zip(lens) {
                end += len;
                *e = u32::try_from(end).expect("job index fits u32 offsets");
            }
            let mut idx = TaskIndex {
                block: vec![0; end],
                ends,
                ..TaskIndex::default()
            };
            let mut g = 0;
            for (pi, p) in phases.iter().enumerate() {
                idx.part_mut(Part::First)[pi] = g as u32;
                for (ti, t) in p.tasks.iter().enumerate() {
                    let running_now = running_copies(TaskRef::new(pi, ti));
                    let pending = p.eligible && !t.is_finished() && running_now == 0;
                    put_bit(idx.part_mut(Part::NoReplica), g, replicas.get(g).is_empty());
                    put_bit(idx.part_mut(Part::Pending), g, pending);
                    put_bit(
                        idx.part_mut(Part::Running),
                        g,
                        p.eligible && running_now > 0,
                    );
                    g += 1;
                }
            }
            idx.part_mut(Part::First)[phases.len()] = tasks;
            let (mut k, mut e) = (0, 0);
            for (i, &pair) in pairs.iter().enumerate() {
                let (m, g) = ((pair >> 32) as u32, pair as u32);
                if i == 0 || pairs[i - 1] >> 37 != pair >> 37 {
                    idx.part_mut(Part::Words)[e] = m / 32;
                    idx.part_mut(Part::Base)[e] = k as u32;
                    e += 1;
                }
                if i == 0 || pairs[i - 1] >> 32 != pair >> 32 {
                    idx.part_mut(Part::Replicas)[e - 1] |= 1 << (m % 32);
                    idx.part_mut(Part::Starts)[k] = i as u32;
                    k += 1;
                }
                idx.part_mut(Part::Tasks)[i] = g;
                if bit(idx.part(Part::Pending), g as usize) {
                    idx.part_mut(Part::Masks)[e - 1] |= 1 << (m % 32);
                }
            }
            idx.part_mut(Part::Starts)[distinct] = pairs.len() as u32;
            let (pending, no_replica) = (idx.part(Part::Pending), idx.part(Part::NoReplica));
            let pending_lo = first_word_from(pending, 0);
            let pending_len = pending.iter().map(|w| w.count_ones() as usize).sum();
            let pending_no_replica = ones(0..words, |w| pending[w] & no_replica[w]).count();
            idx.pending_lo = pending_lo;
            idx.pending_len = pending_len;
            idx.pending_no_replica = pending_no_replica;
            idx
        })
    }

    /// Part `p` of the block.
    fn part(&self, p: Part) -> &[u32] {
        &self.block[range(&self.ends, p)]
    }

    /// Part `p` of the block, writable.
    fn part_mut(&mut self, p: Part) -> &mut [u32] {
        &mut self.block[range(&self.ends, p)]
    }

    /// The number `g` of `task`.
    pub(crate) fn number(&self, task: TaskRef) -> usize {
        self.part(Part::First)[task.phase] as usize + task.task
    }

    /// The task numbered `g`.
    fn task_ref(&self, g: usize) -> TaskRef {
        // The last phase starting at or before `g`: an empty phase shares
        // its start with the next one, which is the one holding `g`.
        let first = self.part(Part::First);
        let p = first.partition_point(|&f| f as usize <= g) - 1;
        TaskRef::new(p, g - first[p] as usize)
    }

    /// Entry of `m`'s word among the replica words.
    fn entry(&self, m: MachineId) -> Option<usize> {
        let w = u32::try_from(m.0 / 32).ok()?;
        self.part(Part::Words).binary_search(&w).ok()
    }

    /// The tasks, ascending, of replica machine `m`, whose word is entry
    /// `e`: its CSR position is the entry's base plus the entry's replica
    /// machines below it. Empty if `m` holds no replica.
    fn tasks_in(&self, e: usize, m: MachineId) -> &[u32] {
        let replicas = self.part(Part::Replicas)[e];
        let b = m.0 % 32;
        if replicas >> b & 1 == 0 {
            return &[];
        }
        let below = (replicas & ((1 << b) - 1)).count_ones();
        let k = (self.part(Part::Base)[e] + below) as usize;
        let starts = self.part(Part::Starts);
        &self.part(Part::Tasks)[starts[k] as usize..starts[k + 1] as usize]
    }

    /// Mark task `g` (replica set `replicas`) pending or not, updating the
    /// local-pending machine masks: a replica machine joins when one of
    /// its tasks turns pending and leaves when its last pending task does.
    /// A no-op when the bit already holds `on`.
    pub(crate) fn set_pending(&mut self, g: usize, replicas: &[MachineId], on: bool) {
        if !put_bit(self.part_mut(Part::Pending), g, on) {
            return;
        }
        let w = g / 32;
        if on {
            self.pending_len += 1;
            self.pending_lo = self.pending_lo.min(w);
        } else {
            self.pending_len -= 1;
            if w == self.pending_lo {
                self.pending_lo = first_word_from(self.part(Part::Pending), w);
            }
        }
        if bit(self.part(Part::NoReplica), g) {
            if on {
                self.pending_no_replica += 1;
            } else {
                self.pending_no_replica -= 1;
            }
        }
        for &m in replicas {
            let e = self.entry(m).expect("replica machine is indexed");
            let local = on || {
                let pending = self.part(Part::Pending);
                self.tasks_in(e, m)
                    .iter()
                    .any(|&t| bit(pending, t as usize))
            };
            let b = 1 << (m.0 % 32);
            let mask = &mut self.part_mut(Part::Masks)[e];
            if local {
                *mask |= b;
            } else {
                *mask &= !b;
            }
        }
    }

    /// Mark task `g` running (at least one running copy) or not.
    pub(crate) fn set_running(&mut self, g: usize, on: bool) {
        put_bit(self.part_mut(Part::Running), g, on);
    }

    /// Number of pending tasks.
    pub(crate) fn pending_len(&self) -> usize {
        self.pending_len
    }

    /// Whether some pending task has no replica.
    pub(crate) fn has_pending_no_replica(&self) -> bool {
        self.pending_no_replica > 0
    }

    /// Whether some pending task has a replica on `m`.
    pub(crate) fn has_local(&self, m: MachineId) -> bool {
        self.entry(m)
            .is_some_and(|e| self.part(Part::Masks)[e] >> (m.0 % 32) & 1 == 1)
    }

    /// Pending tasks, ascending.
    pub(crate) fn pending(&self) -> impl Iterator<Item = TaskRef> + '_ {
        let pending = self.part(Part::Pending);
        ones(self.pending_lo..pending.len(), |w| pending[w]).map(|g| self.task_ref(g))
    }

    /// Pending tasks without a replica, ascending.
    pub(crate) fn pending_no_replica(&self) -> impl Iterator<Item = TaskRef> + '_ {
        let (pending, no_replica) = (self.part(Part::Pending), self.part(Part::NoReplica));
        let words = if self.has_pending_no_replica() {
            self.pending_lo..pending.len()
        } else {
            0..0
        };
        ones(words, |w| pending[w] & no_replica[w]).map(|g| self.task_ref(g))
    }

    /// Pending tasks with a replica on `m`, ascending.
    pub(crate) fn pending_local(&self, m: MachineId) -> impl Iterator<Item = TaskRef> + '_ {
        let pending = self.part(Part::Pending);
        let tasks = self.entry(m).map_or(&[][..], |e| self.tasks_in(e, m));
        tasks
            .iter()
            .map(|&g| g as usize)
            .filter(|&g| bit(pending, g))
            .map(|g| self.task_ref(g))
    }

    /// The replica machines with local pending work as `(word, mask)`
    /// entries in ascending word order: bit `b` of `mask` is machine
    /// `32 * word + b`. One entry per word holding a replica machine,
    /// whether or not its mask is zero.
    pub(crate) fn local_masks(&self) -> impl Iterator<Item = (usize, u32)> + '_ {
        let (words, masks) = (self.part(Part::Words), self.part(Part::Masks));
        words
            .iter()
            .zip(masks)
            .map(|(&w, &mask)| (w as usize, mask))
    }

    /// Replica machines with local pending work, ascending.
    pub(crate) fn machines_with_local_pending(&self) -> impl Iterator<Item = MachineId> + '_ {
        self.local_masks()
            .flat_map(|(w, mask)| bits(mask).map(move |b| MachineId(w * 32 + b)))
    }

    /// Tasks with a running copy, ascending.
    pub(crate) fn running(&self) -> impl Iterator<Item = TaskRef> + '_ {
        let running = self.part(Part::Running);
        ones(0..running.len(), |w| running[w]).map(|g| self.task_ref(g))
    }
}
