//! [`JobSlab`]: id-indexed storage of live [`JobRun`]s with retirement.
//!
//! The streaming pipeline's memory contract rests here: a driver inserts
//! a job's runtime state at its arrival and **retires** it the moment it
//! completes, so live memory is O(active jobs) instead of O(total jobs).
//! Retirement is observational, not just a `drop`: indexing a retired
//! (or not-yet-arrived) job id panics, which is how the invariant *"a
//! retired job is observationally gone — no index, estimator, or refusal
//! path may reference it"* (DESIGN.md, "Streaming pipeline") is enforced
//! rather than hoped for. Every access in both drivers goes through this
//! panic, in release builds too.
//!
//! The slab also keeps the run's *live high-water mark* — the scale
//! tests and the `fig_scale` bench assert it stays a small fraction of
//! total jobs on long streams.

use std::ops::{Index, IndexMut};

use crate::job::JobRun;

/// Storage for live jobs, indexed by trace job id.
///
/// Slots are boxed so an empty (never-arrived or retired) slot costs one
/// pointer, not `size_of::<JobRun>()` — a million-job stream keeps the
/// slot table at a few MB while only active jobs own real state.
#[derive(Debug)]
pub struct JobSlab {
    slots: Vec<Option<Box<JobRun>>>,
    live: usize,
    high_water: usize,
    retired: usize,
}

impl JobSlab {
    /// An all-empty slab with id capacity `total_jobs`.
    pub fn new(total_jobs: usize) -> Self {
        let mut slots = Vec::new();
        slots.resize_with(total_jobs, || None);
        JobSlab {
            slots,
            live: 0,
            high_water: 0,
            retired: 0,
        }
    }

    /// Insert job `j`'s runtime state (at its arrival). Panics if the
    /// slot is already occupied.
    pub fn insert(&mut self, j: usize, job: JobRun) {
        assert!(self.slots[j].is_none(), "job {j} inserted twice");
        self.slots[j] = Some(Box::new(job));
        self.live += 1;
        self.high_water = self.high_water.max(self.live);
    }

    /// Remove and return job `j`'s state (at its completion). After this
    /// call any indexed access to `j` panics. Panics if `j` is not live.
    pub fn retire(&mut self, j: usize) -> Box<JobRun> {
        let job = self.slots[j].take().unwrap_or_else(|| {
            panic!("retiring job {j}, which is not live");
        });
        self.live -= 1;
        self.retired += 1;
        job
    }

    /// Whether job `j` is currently live.
    pub fn is_live(&self, j: usize) -> bool {
        self.slots.get(j).is_some_and(|s| s.is_some())
    }

    /// Maximum simultaneous live jobs over the slab's lifetime.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Jobs retired so far.
    pub fn retired(&self) -> usize {
        self.retired
    }
}

impl Index<usize> for JobSlab {
    type Output = JobRun;

    #[inline]
    fn index(&self, j: usize) -> &JobRun {
        self.slots[j]
            .as_deref()
            .unwrap_or_else(|| panic!("job {j} referenced while not live (retirement invariant)"))
    }
}

impl IndexMut<usize> for JobSlab {
    #[inline]
    fn index_mut(&mut self, j: usize) -> &mut JobRun {
        self.slots[j]
            .as_deref_mut()
            .unwrap_or_else(|| panic!("job {j} referenced while not live (retirement invariant)"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::ClusterConfig;
    use hopper_sim::{rng_from_seed, SimTime};
    use hopper_workload::single_phase_job;

    fn job(id: usize) -> JobRun {
        let spec = single_phase_job(id, SimTime::ZERO, vec![SimTime::from_millis(100)], 1.5);
        JobRun::new(spec, &ClusterConfig::default(), &mut rng_from_seed(1))
    }

    #[test]
    fn insert_retire_tracks_live_and_high_water() {
        let mut s = JobSlab::new(4);
        assert_eq!((s.live, s.high_water(), s.slots.len()), (0, 0, 4));
        s.insert(0, job(0));
        s.insert(2, job(2));
        assert_eq!((s.live, s.high_water()), (2, 2));
        assert!(s.is_live(2) && !s.is_live(1));
        let retired = s.retire(0);
        assert_eq!(retired.id, 0);
        assert_eq!((s.live, s.high_water(), s.retired()), (1, 2, 1));
        s.insert(1, job(1));
        s.insert(3, job(3));
        assert_eq!((s.live, s.high_water()), (3, 3));
        assert_eq!(s[3].id, 3);
    }

    #[test]
    #[should_panic(expected = "retirement invariant")]
    fn indexing_a_retired_job_panics() {
        let mut s = JobSlab::new(1);
        s.insert(0, job(0));
        s.retire(0);
        let _ = &s[0];
    }

    #[test]
    #[should_panic(expected = "inserted twice")]
    fn double_insert_panics() {
        let mut s = JobSlab::new(1);
        s.insert(0, job(0));
        s.insert(0, job(0));
    }
}
