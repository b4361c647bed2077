//! [`ArrivalSource`]: one pop surface over materialized traces, lazy
//! streams, and replayed external traces.
//!
//! Every engine consumes job arrivals through this type: arrivals are
//! *delivered* into the event flow as simulation time advances, never
//! pre-loaded into the event queues. Every variant delivers jobs in id
//! order with nondecreasing arrival times. An engine keeps its next job
//! beside its event queue and queues a marker for it under
//! `hopper_sim::EventKey::arrival`, whose documentation states the one
//! ordering rule: an arrival precedes any other event at its instant.
//!
//! The source is `Clone` because the sharded decentralized engine
//! replicates it per shard (each shard replays the whole source and
//! keeps only its own entities' jobs).

use std::sync::Arc;

use crate::generator::TraceStream;
use crate::trace::{Trace, TraceJob};

/// A source of job arrivals: a borrowed, fully materialized [`Trace`]
/// (jobs are cloned out one at a time), a lazy [`TraceStream`] (jobs
/// are generated on demand — O(1) memory however many jobs the run
/// has), or a shared replayed trace ingested from CSV (owned via `Arc`
/// so the source is `'static` and cheap to clone per shard).
#[derive(Debug, Clone)]
pub enum ArrivalSource<'a> {
    /// Jobs come from a materialized trace, in order.
    Materialized {
        /// The backing trace.
        trace: &'a Trace,
        /// Index of the next job to deliver.
        next: usize,
    },
    /// Jobs are generated lazily from a seeded stream.
    Streaming {
        /// The backing stream (boxed: a stream carries its generator and
        /// RNG state, many times the size of the borrowed variant).
        stream: Box<TraceStream>,
    },
    /// Jobs come from a shared (typically CSV-replayed) trace, in
    /// order. Like `Materialized` but owning: the trace outlives any
    /// driver borrow, so replay runs flow through the same streaming
    /// entry points (`run_source`) on both engines.
    Replay {
        /// The shared backing trace.
        trace: Arc<Trace>,
        /// Index of the next job to deliver.
        next: usize,
    },
}

impl<'a> ArrivalSource<'a> {
    /// Source over a materialized trace.
    pub fn from_trace(trace: &'a Trace) -> Self {
        ArrivalSource::Materialized { trace, next: 0 }
    }

    /// Source over a lazy stream.
    pub fn from_stream(stream: TraceStream) -> ArrivalSource<'static> {
        ArrivalSource::Streaming {
            stream: Box::new(stream),
        }
    }

    /// Source over a shared (replayed) trace.
    pub fn from_shared(trace: Arc<Trace>) -> ArrivalSource<'static> {
        ArrivalSource::Replay { trace, next: 0 }
    }

    /// Total jobs this source will deliver over its lifetime (delivered
    /// and undelivered) — what drivers size their per-job id maps by.
    pub fn total_jobs(&self) -> usize {
        match self {
            ArrivalSource::Materialized { trace, .. } => trace.len(),
            ArrivalSource::Streaming { stream } => stream.total_jobs(),
            ArrivalSource::Replay { trace, .. } => trace.len(),
        }
    }

    /// Deliver the next job (id order; arrivals nondecreasing).
    pub fn pop(&mut self) -> Option<TraceJob> {
        match self {
            ArrivalSource::Materialized { trace, next } => {
                let job = trace.jobs.get(*next)?.clone();
                *next += 1;
                Some(job)
            }
            ArrivalSource::Streaming { stream } => stream.next(),
            ArrivalSource::Replay { trace, next } => {
                let job = trace.jobs.get(*next)?.clone();
                *next += 1;
                Some(job)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TraceGenerator, WorkloadProfile};

    #[test]
    fn both_sources_deliver_the_same_jobs() {
        let g = TraceGenerator::new(WorkloadProfile::facebook(), 30, 9);
        let trace = g.generate_with_utilization(100, 0.7);
        let mut mat = ArrivalSource::from_trace(&trace);
        let mut str = ArrivalSource::from_stream(g.stream_with_utilization(100, 0.7));
        assert_eq!(mat.total_jobs(), 30);
        assert_eq!(str.total_jobs(), 30);
        loop {
            let (a, b) = (mat.pop(), str.pop());
            match (&a, &b) {
                (None, None) => break,
                (Some(x), Some(y)) => {
                    assert_eq!(x.id, y.id);
                    assert_eq!(x.arrival, y.arrival);
                    assert_eq!(x.total_work_ms(), y.total_work_ms());
                }
                _ => panic!("sources disagree on length"),
            }
        }
    }

    #[test]
    fn replay_source_matches_materialized() {
        let g = TraceGenerator::new(WorkloadProfile::facebook(), 12, 4);
        let trace = g.generate_with_utilization(60, 0.7);
        let mut mat = ArrivalSource::from_trace(&trace);
        let mut rep = ArrivalSource::from_shared(Arc::new(trace.clone()));
        assert_eq!(rep.total_jobs(), 12);
        loop {
            match (mat.pop(), rep.pop()) {
                (None, None) => break,
                (Some(x), Some(y)) => {
                    assert_eq!(x.id, y.id);
                    assert_eq!(x.arrival, y.arrival);
                    assert_eq!(x.total_work_ms(), y.total_work_ms());
                }
                _ => panic!("sources disagree on length"),
            }
        }
        // Clones restart nothing: a clone taken mid-delivery resumes
        // from the same position (the sharded engine's contract is a
        // clone taken *before* delivery replays from the start).
        let mut a = ArrivalSource::from_shared(Arc::new(trace));
        a.pop();
        let mut b = a.clone();
        assert_eq!(a.pop().map(|j| j.id), b.pop().map(|j| j.id));
    }
}
