//! Strongly-typed identifiers for cluster entities.

/// A machine (worker host) in the cluster.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MachineId(pub usize);

/// A task within a job: `(phase index, task index)`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskRef {
    /// Index of the phase within the job DAG.
    pub phase: usize,
    /// Index of the task within the phase.
    pub task: usize,
}

/// One execution copy of a task (original or speculative).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CopyRef {
    /// The task this copy belongs to.
    pub task: TaskRef,
    /// Copy index within the task (0 = original).
    pub copy: usize,
}

impl TaskRef {
    /// Construct a task reference.
    pub fn new(phase: usize, task: usize) -> Self {
        TaskRef { phase, task }
    }
}

impl CopyRef {
    /// Construct a copy reference.
    pub fn new(phase: usize, task: usize, copy: usize) -> Self {
        CopyRef {
            task: TaskRef::new(phase, task),
            copy,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_ordering() {
        let a = CopyRef::new(0, 1, 0);
        let b = CopyRef::new(0, 1, 1);
        assert!(a < b);
        assert_eq!(a.task, TaskRef::new(0, 1));
        assert_eq!(MachineId(3), MachineId(3));
    }
}
