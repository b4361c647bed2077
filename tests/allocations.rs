//! Heap-allocation budget of the engines' event loops.
//!
//! A counting global allocator wraps `System` and tallies, per thread,
//! every call that asks it for memory (`alloc`, `alloc_zeroed` and
//! `realloc`), so tests running in parallel do not mix their counts.
//! Each test runs one engine's `run_source` over a trace built
//! beforehand, in streaming mode (no per-job results kept), and bounds
//! the allocator calls per job. With the cluster state allocation-free
//! per event (inline warm counts and finish outcomes, per-job copy and
//! replica arenas, borrowed straggler observations), what remains is a
//! small number of per-job allocations: the job's cloned description,
//! its runtime tables and its index. A per-task or per-event allocation
//! that comes back multiplies the count and breaks the bound.
//!
//! Each bound is the last measured count plus 25%: 16.6, 16.0 and 40.1
//! calls per job for central Hopper, central SRPT and the serial
//! decentralized engine, against 349.4, 98.4 and 227.5 before the
//! arenas (Hopper's proportional fill and per-task copy vectors, SRPT's
//! per-task vectors, the decentralized engines' per-finish and per-scan
//! vectors). The decentralized count was 65.3 until worker episodes
//! kept their probed-scheduler and refused-job sets inline: each of the
//! 2,000 workers grew both on its first episode. The counts were 25.6,
//! 25.0 and 49.1 until a job's task index became one block: its
//! numbering, CSR, counts and bitsets had been nine vectors, plus a
//! fresh pair list per job. Most of what is left per job is its
//! description and runtime tables, built once.
//!
//! The counts are exact per seed in release builds. The dev profile's
//! sampled index oracles allocate (and sample on a process-wide tick), so
//! there the tests are ignored; CI runs them with `--release`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hopper::central;
use hopper::decentral;
use hopper::experiment::ExperimentSpec;
use hopper::workload::ArrivalSource;

struct Counting;

thread_local! {
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: an allocation during thread teardown is not counted.
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// each call meets `System`'s contract exactly when the caller meets
// `GlobalAlloc`'s; the counter is a thread-local `Cell` with a const
// initializer and no destructor, so touching it never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Allocator calls this thread makes while running `f`.
fn calls_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = CALLS.with(Cell::get);
    let out = f();
    (out, CALLS.with(Cell::get) - before)
}

const JOBS: usize = 400;

/// A benchmark-shaped cell (interactive jobs at 70% utilization on
/// 2,000 machines, streaming) cut to `JOBS` jobs.
fn spec(lines: &str) -> ExperimentSpec {
    let text =
        format!("{lines}\ninteractive=true\nutil=0.7\nstream=on\njobs={JOBS}\nmachines=2000\n");
    ExperimentSpec::parse(&text).unwrap()
}

/// Allocator calls per job of one central run of `spec` at seed 1.
fn central_calls_per_job(spec: &ExperimentSpec) -> f64 {
    let trace = spec.trace(1);
    let (policy, cfg) = spec.central_config(1).unwrap();
    let (out, calls) = calls_during(|| {
        central::run_source(ArrivalSource::from_trace(&trace), &policy, &cfg, false)
    });
    assert_eq!(out.report.digest.count(), JOBS as u64);
    calls as f64 / JOBS as f64
}

fn check(name: &str, per_job: f64, bound: f64) {
    println!("{name}: {per_job:.1} allocator calls per job (bound {bound})");
    assert!(
        per_job <= bound,
        "{name}: {per_job:.1} allocator calls per job, over the bound of {bound}"
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "counts are pinned in release builds")]
fn central_hopper_allocations_per_job() {
    let s = spec("engine=central\npolicy=hopper\nlearn_beta=true\nsingle_phase=true\nslots=4");
    check("central hopper", central_calls_per_job(&s), 20.7);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "counts are pinned in release builds")]
fn central_srpt_allocations_per_job() {
    let s = spec("engine=central\npolicy=srpt\nsingle_phase=true\nslots=4");
    check("central srpt", central_calls_per_job(&s), 20.0);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "counts are pinned in release builds")]
fn serial_decentral_allocations_per_job() {
    let s = spec("engine=decentral\npolicy=hopper\nslots=2\nschedulers=20");
    let trace = s.trace(1);
    let (policy, cfg) = s.decentral_config(1).unwrap();
    assert_eq!(cfg.shards, 0, "the serial driver");
    let (out, calls) = calls_during(|| {
        decentral::run_source(ArrivalSource::from_trace(&trace), policy, &cfg, false)
    });
    assert_eq!(out.report.digest.count(), JOBS as u64);
    check("serial decentral", calls as f64 / JOBS as f64, 50.1);
}
