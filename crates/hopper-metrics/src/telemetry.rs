//! Windowed time-series telemetry: the run-dynamics plane.
//!
//! End-of-run aggregates (mean, p99, makespan) hide exactly the
//! transients the simulator exists to study — failure-recovery dips,
//! fault-storm degradation, shard-window stalls. This module adds a
//! fixed-width windowed collector that drivers *observe* into while the
//! simulation runs, producing per-window utilization, queue depth, live
//! jobs, launch/kill/completion rates, message counters, and a
//! per-window JCT [`JobDigest`] — in O(windows) memory, independent of
//! job count.
//!
//! Three contracts (see DESIGN.md, "Telemetry plane"):
//!
//! - **Observer invariant.** The collector never touches simulation
//!   state, RNG, or event ordering. A run with telemetry enabled
//!   produces bit-identical stats, digest, and job results to the same
//!   run with telemetry off; `window_ms = 0` (the default) constructs
//!   nothing and every method is a no-op.
//! - **Boundary sampling is exact.** Drivers call
//!   [`SeriesCollector::boundary_due`] with each event's timestamp
//!   *before* processing it. Because event times are non-decreasing,
//!   every event counted since the last close necessarily falls inside
//!   the still-open window — so per-window counter deltas attribute
//!   each event to exactly the window containing its timestamp. Gauges
//!   are sampled at the first event at-or-past a boundary; since state
//!   is frozen between events, that sample *is* the state at the
//!   boundary, and windows skipped without any event carry the same
//!   gauges forward with zero counters.
//! - **Shard-merge commutativity.** Counters and gauges are sums over
//!   disjoint entity sets (each scheduler, worker, and job is owned by
//!   exactly one shard) and the per-window digest merge is an exact
//!   multiset union, so [`TelemetrySeries::merge`] is independent of
//!   shard count and merge order: shards=1 and shards=N produce
//!   bit-identical merged series.

use crate::digest::JobDigest;
use crate::stats::CoreStats;

/// Point-in-time view a driver hands the collector at a window boundary
/// (and once more at the end of the run).
///
/// Gauges (`busy_slots`, `queue_depth`, `live_jobs`) are instantaneous
/// state; the rest are *cumulative* counters since the start of the run
/// — the collector differences consecutive snapshots to get per-window
/// deltas.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TelemetrySnapshot {
    /// Slots currently running a task copy.
    pub busy_slots: u64,
    /// Queued work not yet running (pending original tasks for the
    /// central driver; parked worker-queue reservations for the
    /// decentralized drivers).
    pub queue_depth: u64,
    /// Jobs arrived but not yet complete.
    pub live_jobs: u64,
    /// Cumulative jobs completed.
    pub completed: u64,
    /// Cumulative original copies launched.
    pub orig_launched: u64,
    /// Cumulative speculative copies launched.
    pub spec_launched: u64,
    /// Cumulative tasks won by a speculative copy.
    pub spec_won: u64,
    /// Cumulative copies killed (central: scheduler kills; decentral:
    /// kill RPCs sent).
    pub killed: u64,
    /// Cumulative protocol messages (reservations + responses +
    /// refusals; 0 for the central driver).
    pub messages: u64,
    /// Cumulative simulator events processed.
    pub events: u64,
}

/// One closed window of the series: gauges at the window-end boundary
/// plus counter deltas and the JCT digest of completions inside
/// `[index·window_ms, (index+1)·window_ms)`.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryWindow {
    /// Window index; the window covers
    /// `[index·window_ms, (index+1)·window_ms)` in simulation time.
    pub index: u64,
    /// Busy slots at the end-of-window boundary.
    pub busy_slots: u64,
    /// Queue depth at the end-of-window boundary.
    pub queue_depth: u64,
    /// Live jobs at the end-of-window boundary.
    pub live_jobs: u64,
    /// Jobs completed inside this window.
    pub completed: u64,
    /// Original copies launched inside this window.
    pub orig_launched: u64,
    /// Speculative copies launched inside this window.
    pub spec_launched: u64,
    /// Tasks won by a speculative copy inside this window.
    pub spec_won: u64,
    /// Copies killed inside this window.
    pub killed: u64,
    /// Protocol messages inside this window.
    pub messages: u64,
    /// Simulator events inside this window.
    pub events: u64,
    /// Digest of job completion times for jobs that finished inside
    /// this window.
    pub jct: JobDigest,
}

impl Default for TelemetryWindow {
    /// The all-zero window at index 0 (empty digest) — scaffolding for
    /// synthesizing series (detector tests build inputs from it).
    fn default() -> Self {
        TelemetryWindow::carried(0, 0, 0, 0)
    }
}

impl TelemetryWindow {
    /// An all-zero window at `index` carrying the given gauges — used
    /// for boundary crossings without events and for padding shorter
    /// shard series during a merge.
    fn carried(index: u64, busy_slots: u64, queue_depth: u64, live_jobs: u64) -> Self {
        TelemetryWindow {
            index,
            busy_slots,
            queue_depth,
            live_jobs,
            completed: 0,
            orig_launched: 0,
            spec_launched: 0,
            spec_won: 0,
            killed: 0,
            messages: 0,
            events: 0,
            jct: JobDigest::new(),
        }
    }

    /// Fold another shard's same-index window in: counters and gauges
    /// sum (disjoint entity ownership), digests merge exactly.
    fn absorb(&mut self, other: &TelemetryWindow) {
        debug_assert_eq!(self.index, other.index);
        self.busy_slots += other.busy_slots;
        self.queue_depth += other.queue_depth;
        self.live_jobs += other.live_jobs;
        self.completed += other.completed;
        self.orig_launched += other.orig_launched;
        self.spec_launched += other.spec_launched;
        self.spec_won += other.spec_won;
        self.killed += other.killed;
        self.messages += other.messages;
        self.events += other.events;
        self.jct.merge(&other.jct);
    }
}

/// A complete windowed time-series for one run (or one shard of one
/// run, before [`TelemetrySeries::merge`]).
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetrySeries {
    /// Window width in simulation milliseconds (always > 0 — a
    /// disabled collector produces no series at all).
    pub window_ms: u64,
    /// Total slot capacity behind `busy_slots` (for utilization).
    pub total_slots: u64,
    /// Closed windows in index order, contiguous from 0.
    pub windows: Vec<TelemetryWindow>,
}

impl TelemetrySeries {
    /// Merge another shard's series into this one, window by window.
    ///
    /// The shorter series is padded with its **last** gauges (frozen
    /// entity state — zero-padding would mis-report, e.g., unpurged
    /// worker queues) and zero counters; capacity sums because each
    /// shard owns a disjoint worker set. Sum + exact digest union make
    /// the result independent of shard count and merge order. Panics
    /// if the window widths differ.
    pub fn merge(&mut self, other: &TelemetrySeries) {
        assert_eq!(
            self.window_ms, other.window_ms,
            "merging series with different window widths"
        );
        self.total_slots += other.total_slots;
        let pad = |w: &[TelemetryWindow], i: u64| match w.last() {
            Some(last) => {
                TelemetryWindow::carried(i, last.busy_slots, last.queue_depth, last.live_jobs)
            }
            None => TelemetryWindow::carried(i, 0, 0, 0),
        };
        if other.windows.len() > self.windows.len() {
            for i in self.windows.len()..other.windows.len() {
                let w = pad(&self.windows, i as u64);
                self.windows.push(w);
            }
        }
        for (i, mine) in self.windows.iter_mut().enumerate() {
            if let Some(theirs) = other.windows.get(i) {
                mine.absorb(theirs);
            } else {
                mine.absorb(&pad(&other.windows, i as u64));
            }
        }
    }

    /// Sum of per-window completion counts — the conservation check:
    /// equals the run's total completed jobs.
    pub fn total_completed(&self) -> u64 {
        self.windows.iter().map(|w| w.completed).sum()
    }

    /// Sum of per-window event counts — equals the run's total events.
    pub fn total_events(&self) -> u64 {
        self.windows.iter().map(|w| w.events).sum()
    }

    /// Render as JSON lines: a `meta` line, then one object per window.
    ///
    /// The format is the repo's own stable contract (hand-rolled, no
    /// external deps) consumed by `hopper report` and the nightly diff:
    /// floats are fixed to 3 decimals, field order is fixed, and the
    /// `label` must not contain `"` (writers sanitize).
    pub fn to_jsonl(&self, label: &str, seed: u64) -> String {
        let mut out = String::with_capacity(128 * (self.windows.len() + 1));
        let label = label.replace('"', "'");
        out.push_str(&format!(
            "{{\"meta\":true,\"label\":\"{}\",\"seed\":{},\"window_ms\":{},\"total_slots\":{},\"windows\":{}}}\n",
            label,
            seed,
            self.window_ms,
            self.total_slots,
            self.windows.len()
        ));
        for w in &self.windows {
            out.push_str(&format!(
                "{{\"w\":{},\"busy\":{},\"queue\":{},\"live\":{},\"completed\":{},\"orig\":{},\"spec\":{},\"spec_won\":{},\"killed\":{},\"msgs\":{},\"events\":{},\"jct_count\":{},\"jct_mean_ms\":{:.3},\"jct_p50_ms\":{:.3},\"jct_p99_ms\":{:.3},\"jct_max_ms\":{}}}\n",
                w.index,
                w.busy_slots,
                w.queue_depth,
                w.live_jobs,
                w.completed,
                w.orig_launched,
                w.spec_launched,
                w.spec_won,
                w.killed,
                w.messages,
                w.events,
                w.jct.count(),
                w.jct.mean_ms(),
                w.jct.quantile_ms(0.5),
                w.jct.quantile_ms(0.99),
                w.jct.max_ms(),
            ));
        }
        out
    }

    /// Render as CSV with a fixed header (same fields and float
    /// formatting as [`to_jsonl`](Self::to_jsonl)).
    pub fn to_csv(&self) -> String {
        let mut out = String::with_capacity(64 * (self.windows.len() + 1));
        out.push_str(
            "window,busy_slots,queue_depth,live_jobs,completed,orig_launched,spec_launched,spec_won,killed,messages,events,jct_count,jct_mean_ms,jct_p50_ms,jct_p99_ms,jct_max_ms\n",
        );
        for w in &self.windows {
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{},{},{},{},{},{:.3},{:.3},{:.3},{}\n",
                w.index,
                w.busy_slots,
                w.queue_depth,
                w.live_jobs,
                w.completed,
                w.orig_launched,
                w.spec_launched,
                w.spec_won,
                w.killed,
                w.messages,
                w.events,
                w.jct.count(),
                w.jct.mean_ms(),
                w.jct.quantile_ms(0.5),
                w.jct.quantile_ms(0.99),
                w.jct.max_ms(),
            ));
        }
        out
    }
}

/// The windowed collector a driver embeds. `window_ms = 0` disables it:
/// construction allocates nothing and every method returns immediately,
/// which is what keeps the telemetry-off path bit-identical to the
/// pre-telemetry simulator.
#[derive(Debug, Clone)]
pub struct SeriesCollector {
    window_ms: u64,
    total_slots: u64,
    /// Index of the currently open window.
    cur: u64,
    /// Counter snapshot at the last close (deltas subtract this).
    last: TelemetrySnapshot,
    /// JCT digest accumulating into the open window.
    open_jct: JobDigest,
    windows: Vec<TelemetryWindow>,
}

impl SeriesCollector {
    /// A collector with the given window width (ms) and slot capacity.
    /// `window_ms = 0` yields a disabled, allocation-free collector.
    pub fn new(window_ms: u64, total_slots: u64) -> Self {
        SeriesCollector {
            window_ms,
            total_slots,
            cur: 0,
            last: TelemetrySnapshot::default(),
            open_jct: JobDigest::new(),
            windows: Vec::new(),
        }
    }

    /// Whether this collector records anything at all.
    pub fn enabled(&self) -> bool {
        self.window_ms != 0
    }

    /// Cheap per-event check: does processing an event at `now_ms`
    /// require closing one or more windows first? Drivers guard the
    /// (O(live-state)) snapshot construction behind this so the
    /// disabled path costs one branch per event.
    #[inline]
    pub fn boundary_due(&self, now_ms: u64) -> bool {
        self.window_ms != 0 && now_ms >= (self.cur + 1) * self.window_ms
    }

    /// Close every window strictly before the one containing `now_ms`,
    /// given the pre-event state `snap`. The first closed window takes
    /// the counter deltas and the open JCT digest (every uncounted
    /// event lies inside it — see the module docs); later skipped
    /// windows carry the gauges forward with zero counters.
    pub fn close_to(&mut self, now_ms: u64, snap: TelemetrySnapshot) {
        if self.window_ms == 0 {
            return;
        }
        let target = now_ms / self.window_ms;
        while self.cur < target {
            self.close_one(snap);
        }
    }

    /// Fold one completed job's duration into the open window's digest.
    #[inline]
    pub fn observe_jct(&mut self, duration_ms: u64) {
        if self.window_ms != 0 {
            self.open_jct.observe_ms(duration_ms);
        }
    }

    /// Close the final (partial) window from the end-of-run state and
    /// return the finished series; `None` when disabled.
    pub fn finish(&mut self, snap: TelemetrySnapshot) -> Option<TelemetrySeries> {
        if self.window_ms == 0 {
            return None;
        }
        self.close_one(snap);
        Some(TelemetrySeries {
            window_ms: self.window_ms,
            total_slots: self.total_slots,
            windows: std::mem::take(&mut self.windows),
        })
    }

    fn close_one(&mut self, snap: TelemetrySnapshot) {
        self.windows.push(TelemetryWindow {
            index: self.cur,
            busy_slots: snap.busy_slots,
            queue_depth: snap.queue_depth,
            live_jobs: snap.live_jobs,
            completed: snap.completed - self.last.completed,
            orig_launched: snap.orig_launched - self.last.orig_launched,
            spec_launched: snap.spec_launched - self.last.spec_launched,
            spec_won: snap.spec_won - self.last.spec_won,
            killed: snap.killed - self.last.killed,
            messages: snap.messages - self.last.messages,
            events: snap.events - self.last.events,
            jct: std::mem::take(&mut self.open_jct),
        });
        self.last = snap;
        self.cur += 1;
    }
}

/// The unified run-output surface: everything a caller needs from a
/// finished run without reaching into engine-specific stats structs.
///
/// Both `RunOutput` (central) and `DecOutput` (decentralized) embed one
/// of these, and the `RunSummary` trait exposes it directly — replacing
/// the former per-field `core()` / `digest()` / `live_high_water()`
/// accessors. The engine-specific `RunStats` / `DecStats` remain on the
/// outputs untouched, so golden files keyed to their `Debug` rendering
/// are unaffected.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Engine-independent counters (launches, events, messages,
    /// makespan).
    pub core: CoreStats,
    /// Streaming JCT digest over every completed job.
    pub digest: JobDigest,
    /// High-water mark of simultaneously live jobs (the streaming
    /// memory gate). The sharded decentralized engine reports the sum of
    /// its per-scheduler high-water marks instead: an upper bound on the
    /// simultaneous maximum, kept because it does not depend on the
    /// shard count.
    pub live_high_water: usize,
    /// Windowed time-series; `None` unless the run set
    /// `telemetry_window_ms > 0`.
    pub telemetry: Option<TelemetrySeries>,
}

impl Default for RunReport {
    /// The report of a run that did nothing: zero counters, empty
    /// digest, no telemetry.
    fn default() -> Self {
        RunReport {
            core: CoreStats::default(),
            digest: JobDigest::default(),
            live_high_water: 0,
            telemetry: None,
        }
    }
}

impl RunReport {
    /// Exact mean job duration (ms) from the digest.
    pub fn mean_duration_ms(&self) -> f64 {
        self.digest.mean_ms()
    }

    /// ε-approximate duration quantile (ms) at `p` from the digest.
    pub fn percentile_duration_ms(&self, p: f64) -> f64 {
        self.digest.quantile_ms(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(gauges: (u64, u64, u64), completed: u64, events: u64) -> TelemetrySnapshot {
        TelemetrySnapshot {
            busy_slots: gauges.0,
            queue_depth: gauges.1,
            live_jobs: gauges.2,
            completed,
            events,
            ..TelemetrySnapshot::default()
        }
    }

    #[test]
    fn disabled_collector_is_inert() {
        let mut c = SeriesCollector::new(0, 100);
        assert!(!c.enabled());
        assert!(!c.boundary_due(u64::MAX / 2));
        c.observe_jct(5);
        c.close_to(1_000_000, TelemetrySnapshot::default());
        assert_eq!(c.finish(TelemetrySnapshot::default()), None);
    }

    #[test]
    fn deltas_land_in_the_window_containing_their_events() {
        let mut c = SeriesCollector::new(100, 10);
        // Events at t=10, t=40 (window 0), then one at t=250 (window 2).
        assert!(!c.boundary_due(10));
        assert!(!c.boundary_due(40));
        c.observe_jct(40);
        assert!(c.boundary_due(250));
        c.close_to(250, snap((7, 3, 2), 1, 2));
        // Event at t=250 processes, run ends at t=260.
        let s = c.finish(snap((0, 0, 0), 2, 3)).unwrap();
        assert_eq!(s.windows.len(), 3);
        // Window 0 holds both early events and the JCT observation.
        assert_eq!(s.windows[0].events, 2);
        assert_eq!(s.windows[0].completed, 1);
        assert_eq!(s.windows[0].jct.count(), 1);
        assert_eq!(s.windows[0].busy_slots, 7);
        // Window 1 was skipped: carried gauges, zero counters.
        assert_eq!(s.windows[1].events, 0);
        assert_eq!(s.windows[1].busy_slots, 7);
        assert_eq!(s.windows[1].jct.count(), 0);
        // Window 2 holds the final event.
        assert_eq!(s.windows[2].events, 1);
        assert_eq!(s.windows[2].completed, 1);
        assert_eq!(s.total_events(), 3);
        assert_eq!(s.total_completed(), 2);
    }

    #[test]
    fn merge_is_commutative_and_pads_with_last_gauges() {
        let mk = |n: usize, busy: u64| {
            let mut c = SeriesCollector::new(50, 100);
            for i in 0..n as u64 {
                let t = (i + 1) * 50;
                if c.boundary_due(t) {
                    c.close_to(t, snap((busy, 1, 1), i, i));
                }
            }
            c.finish(snap((busy, 1, 1), n as u64, n as u64)).unwrap()
        };
        let (a, b) = (mk(5, 3), mk(2, 9));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        // Events at t=50..250 close windows 0..=4 on their boundaries;
        // finish() closes the final partial window 5.
        assert_eq!(ab.windows.len(), 6);
        assert_eq!(ab.total_slots, 200);
        // Padded tail windows carry b's last gauges (9), not zero.
        assert_eq!(ab.windows[5].busy_slots, 3 + 9);
        assert_eq!(
            ab.total_completed(),
            a.total_completed() + b.total_completed()
        );
    }

    #[test]
    fn jsonl_and_csv_roundtrip_shapes() {
        let mut c = SeriesCollector::new(100, 10);
        c.observe_jct(123);
        let s = c.finish(snap((4, 2, 1), 1, 5)).unwrap();
        let jsonl = s.to_jsonl("policy=hopper", 7);
        assert_eq!(jsonl.lines().count(), 2);
        assert!(jsonl.starts_with("{\"meta\":true,"));
        assert!(jsonl.contains("\"jct_count\":1"));
        let csv = s.to_csv();
        assert_eq!(csv.lines().count(), 2);
        assert!(csv.starts_with("window,busy_slots,"));
    }
}
