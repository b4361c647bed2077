//! [`TaskIndex`]: one flat index over a job's tasks, the pending and
//! locality half of `JobRun`'s incremental indices, and [`ReplicaSets`],
//! the job's task → replica-machine table it is built from.
//!
//! Tasks are numbered `g = first[phase] + task`, so ascending `g` is
//! exactly `(phase, task)` order, the order every replaced scan visited.
//! Bitsets over that numbering hold the pending and the running tasks,
//! plus the static set of tasks without a replica. The locality side is a
//! CSR over the job's distinct replica machines in ascending id order:
//! each machine's tasks sorted by `g`, a count of those still pending, and
//! a bitset of the machines whose count is non-zero. Every query therefore
//! iterates in the order the B-tree sets it replaced did, and a job's
//! index costs one `u32` per (task, replica) pair and three per replica
//! machine instead of one B-tree leaf per replica machine.
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

/// A fixed-length bitset.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Bits(Vec<u64>);

impl Bits {
    fn new(n: usize) -> Self {
        Bits(vec![0; n.div_ceil(64)])
    }

    fn get(&self, i: usize) -> bool {
        self.0[i / 64] >> (i % 64) & 1 == 1
    }

    /// Set bit `i` to `on`; returns whether it changed.
    fn put(&mut self, i: usize, on: bool) -> bool {
        let (w, b) = (i / 64, 1u64 << (i % 64));
        let was = self.0[w] & b != 0;
        if on {
            self.0[w] |= b;
        } else {
            self.0[w] &= !b;
        }
        was != on
    }

    fn count(&self) -> usize {
        self.0.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Index of the first non-zero word at or after `from` (the word
    /// count if there is none).
    fn first_word_from(&self, from: usize) -> usize {
        (from..self.0.len())
            .find(|&w| self.0[w] != 0)
            .unwrap_or(self.0.len())
    }
}

/// Set bit positions, ascending, of the words `word(w)` for `w` in `words`.
fn ones(words: std::ops::Range<usize>, word: impl Fn(usize) -> u64) -> impl Iterator<Item = usize> {
    words.flat_map(move |w| {
        let mut x = word(w);
        std::iter::from_fn(move || {
            (x != 0).then(|| {
                let b = x.trailing_zeros() as usize;
                x &= x - 1;
                w * 64 + b
            })
        })
    })
}

/// The flat pending/locality/running index of one job (see the module
/// docs). A pure cache: [`TaskIndex::scan`] derives it from the task
/// state, and `JobRun`'s transitions keep it equal to that scan.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct TaskIndex {
    /// `first[p]` numbers task 0 of phase `p`; one last entry holds the
    /// job's task count.
    first: Vec<u32>,
    /// Tasks with an empty replica set (static).
    no_replica: Bits,
    /// Distinct replica machines, ascending.
    machines: Vec<u32>,
    /// CSR offsets: machine `k`'s tasks are `tasks[starts[k]..starts[k + 1]]`.
    starts: Vec<u32>,
    /// Tasks with a replica on each machine, ascending per machine.
    tasks: Vec<u32>,
    /// Pending tasks: unlaunched (or requeued), unfinished, in an eligible
    /// phase.
    pending: Bits,
    /// First word of `pending` with a set bit (its word count if none);
    /// every pending walk starts here.
    pending_lo: usize,
    /// Number of pending tasks.
    pending_len: usize,
    /// Number of pending tasks without a replica.
    pending_no_replica: usize,
    /// Pending tasks per replica machine (parallel to `machines`).
    local_pending: Vec<u32>,
    /// Replica machines (positions in `machines`) with local pending work.
    has_local: Bits,
    /// Tasks with at least one running copy.
    running: Bits,
}

impl TaskIndex {
    /// Ground truth by full scan of the task state (the oracle of the
    /// maintained index), given each task's running-copy count.
    pub(crate) fn scan(
        phases: &[PhaseRun],
        replicas: &ReplicaSets,
        running_copies: impl Fn(TaskRef) -> usize,
    ) -> TaskIndex {
        let mut first = Vec::with_capacity(phases.len() + 1);
        let mut n = 0usize;
        for p in phases {
            first.push(n as u32);
            n += p.tasks.len();
        }
        first.push(u32::try_from(n).expect("job task count fits u32"));
        let mut no_replica = Bits::new(n);
        let mut pending = Bits::new(n);
        let mut running = Bits::new(n);
        let mut pairs: Vec<(u32, u32)> = Vec::with_capacity(replicas.machines.len());
        let tasks = phases.iter().enumerate().flat_map(|(pi, p)| {
            let tasks = p.tasks.iter().enumerate();
            tasks.map(move |(ti, t)| (p.eligible, t, TaskRef::new(pi, ti)))
        });
        for (g, (eligible, t, tr)) in tasks.enumerate() {
            let replicas = replicas.get(g);
            let running_now = running_copies(tr);
            no_replica.put(g, replicas.is_empty());
            pending.put(g, eligible && !t.is_finished() && running_now == 0);
            running.put(g, eligible && running_now > 0);
            pairs.extend(replicas.iter().map(|m| {
                let m = u32::try_from(m.0).expect("machine id fits u32");
                (m, g as u32)
            }));
        }
        pairs.sort_unstable();
        pairs.dedup();
        let distinct = pairs.chunk_by(|a, b| a.0 == b.0).count();
        let mut machines: Vec<u32> = Vec::with_capacity(distinct);
        let mut starts: Vec<u32> = Vec::with_capacity(distinct + 1);
        let mut tasks: Vec<u32> = Vec::with_capacity(pairs.len());
        for (m, g) in pairs {
            if machines.last() != Some(&m) {
                machines.push(m);
                starts.push(tasks.len() as u32);
            }
            tasks.push(g);
        }
        starts.push(tasks.len() as u32);
        let local_pending: Vec<u32> = starts
            .windows(2)
            .map(|s| {
                let list = &tasks[s[0] as usize..s[1] as usize];
                list.iter().filter(|&&g| pending.get(g as usize)).count() as u32
            })
            .collect();
        let mut has_local = Bits::new(machines.len());
        for (k, &c) in local_pending.iter().enumerate() {
            has_local.put(k, c > 0);
        }
        let pending_no_replica =
            ones(0..pending.0.len(), |w| pending.0[w] & no_replica.0[w]).count();
        TaskIndex {
            first,
            no_replica,
            machines,
            starts,
            tasks,
            pending_lo: pending.first_word_from(0),
            pending_len: pending.count(),
            pending_no_replica,
            pending,
            local_pending,
            has_local,
            running,
        }
    }

    /// The number `g` of `task`.
    pub(crate) fn number(&self, task: TaskRef) -> usize {
        self.first[task.phase] as usize + task.task
    }

    /// The task numbered `g`.
    fn task_ref(&self, g: usize) -> TaskRef {
        // The last phase starting at or before `g`: an empty phase shares
        // its start with the next one, which is the one holding `g`.
        let p = self.first.partition_point(|&f| f as usize <= g) - 1;
        TaskRef::new(p, g - self.first[p] as usize)
    }

    /// Position of `m` among the replica machines.
    fn machine_pos(&self, m: MachineId) -> Option<usize> {
        let m = u32::try_from(m.0).ok()?;
        self.machines.binary_search(&m).ok()
    }

    /// Mark task `g` (replica set `replicas`) pending or not, updating the
    /// per-machine counts. A no-op when the bit already holds `on`.
    pub(crate) fn set_pending(&mut self, g: usize, replicas: &[MachineId], on: bool) {
        if !self.pending.put(g, on) {
            return;
        }
        let w = g / 64;
        if on {
            self.pending_len += 1;
            self.pending_lo = self.pending_lo.min(w);
        } else {
            self.pending_len -= 1;
            if w == self.pending_lo {
                self.pending_lo = self.pending.first_word_from(w);
            }
        }
        if self.no_replica.get(g) {
            if on {
                self.pending_no_replica += 1;
            } else {
                self.pending_no_replica -= 1;
            }
        }
        for (i, m) in replicas.iter().enumerate() {
            if replicas[..i].contains(m) {
                continue;
            }
            let k = self.machine_pos(*m).expect("replica machine is indexed");
            if on {
                self.local_pending[k] += 1;
            } else {
                self.local_pending[k] -= 1;
            }
            self.has_local.put(k, self.local_pending[k] > 0);
        }
    }

    /// Mark task `g` running (at least one running copy) or not.
    pub(crate) fn set_running(&mut self, g: usize, on: bool) {
        self.running.put(g, on);
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
        self.machine_pos(m)
            .is_some_and(|k| self.local_pending[k] > 0)
    }

    /// Pending tasks, ascending.
    pub(crate) fn pending(&self) -> impl Iterator<Item = TaskRef> + '_ {
        ones(self.pending_lo..self.pending.0.len(), |w| self.pending.0[w]).map(|g| self.task_ref(g))
    }

    /// Pending tasks without a replica, ascending.
    pub(crate) fn pending_no_replica(&self) -> impl Iterator<Item = TaskRef> + '_ {
        let words = if self.has_pending_no_replica() {
            self.pending_lo..self.pending.0.len()
        } else {
            0..0
        };
        ones(words, |w| self.pending.0[w] & self.no_replica.0[w]).map(|g| self.task_ref(g))
    }

    /// Pending tasks with a replica on `m`, ascending.
    pub(crate) fn pending_local(&self, m: MachineId) -> impl Iterator<Item = TaskRef> + '_ {
        let list = match self.machine_pos(m) {
            Some(k) if self.local_pending[k] > 0 => {
                &self.tasks[self.starts[k] as usize..self.starts[k + 1] as usize]
            }
            _ => &[],
        };
        list.iter()
            .map(|&g| g as usize)
            .filter(|&g| self.pending.get(g))
            .map(|g| self.task_ref(g))
    }

    /// Replica machines with local pending work, ascending.
    pub(crate) fn machines_with_local_pending(&self) -> impl Iterator<Item = MachineId> + '_ {
        ones(0..self.has_local.0.len(), |w| self.has_local.0[w])
            .map(|k| MachineId(self.machines[k] as usize))
    }

    /// Tasks with a running copy, ascending.
    pub(crate) fn running(&self) -> impl Iterator<Item = TaskRef> + '_ {
        ones(0..self.running.0.len(), |w| self.running.0[w]).map(|g| self.task_ref(g))
    }
}
