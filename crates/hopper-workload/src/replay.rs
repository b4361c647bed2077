//! CSV trace replay: ingest external job traces (Google/Alibaba-style
//! schemas reduced to their common columns) into a [`Trace`] both
//! engines consume through the [`ArrivalSource`](crate::ArrivalSource)
//! seam.
//!
//! ## Schema
//!
//! One job per row, comma-separated, with an optional header line and
//! `#` comments:
//!
//! ```csv
//! arrival_ms,tasks,work_ms,dag_len,beta
//! 0,20,5000,1,1.5
//! 1200,8,12000,3,1.4
//! ```
//!
//! - `arrival_ms` — job arrival time (u64 ms; rows may be unsorted,
//!   ingest sorts and re-ids exactly like generated traces);
//! - `tasks` — tasks **per phase** (≥ 1);
//! - `work_ms` — nominal work per task in ms (> 0; fractional values
//!   round to whole milliseconds, the simulator's clock resolution);
//! - `dag_len` — optional chain length (default 1): the job becomes
//!   `dag_len` equal phases, each feeding the next;
//! - `beta` — optional per-job Pareto tail index (default 1.5; must be
//!   > 1, the estimators' domain).
//!
//! Replayed phases carry no intermediate output volume (`α` has no
//! basis in the reduced schema, so transfers are free) and no recurring
//! template. Malformed rows are rejected with their 1-based line
//! number.
//!
//! [`export_replay_csv`] writes any trace back into the schema, one row
//! per job (mean work per task, tasks averaged per phase) — lossy for
//! general generated traces, exact for replay-shaped ones:
//! `export ∘ ingest` is the identity on exported text (pinned by
//! round-trip tests).

use hopper_sim::SimTime;

use crate::trace::{Trace, TraceJob, TracePhase};

/// The canonical header row [`export_replay_csv`] writes (ingest
/// accepts it, any prefix of it, or no header at all).
pub(crate) const REPLAY_HEADER: &str = "arrival_ms,tasks,work_ms,dag_len,beta";

/// A rejected replay row: 1-based line number plus what was wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayError {
    /// 1-based line number in the input text (0 for file-level errors).
    pub(crate) line: usize,
    /// What was wrong with the row.
    pub(crate) msg: String,
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line == 0 {
            write!(f, "replay CSV: {}", self.msg)
        } else {
            write!(f, "replay CSV line {}: {}", self.line, self.msg)
        }
    }
}

impl std::error::Error for ReplayError {}

fn rerr(line: usize, msg: impl Into<String>) -> ReplayError {
    ReplayError {
        line,
        msg: msg.into(),
    }
}

/// Parse replay-schema CSV text into a [`Trace`] (sorted by arrival,
/// ids re-assigned to positions — the invariant every driver assumes).
///
/// Blank lines and `#` comments are skipped; a first row starting with
/// `arrival_ms` is treated as the header. Any malformed row fails the
/// whole parse with its 1-based line number.
pub fn parse_replay_csv(text: &str) -> Result<Trace, ReplayError> {
    let mut jobs: Vec<TraceJob> = Vec::new();
    let mut saw_row = false;
    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if !saw_row && line.starts_with("arrival_ms") {
            continue; // header
        }
        saw_row = true;
        let fields: Vec<&str> = line.split(',').map(str::trim).collect();
        if !(3..=5).contains(&fields.len()) {
            return Err(rerr(
                line_no,
                format!(
                    "expected 3-5 fields ({REPLAY_HEADER}), got {}",
                    fields.len()
                ),
            ));
        }
        let arrival_ms: u64 = fields[0]
            .parse()
            .map_err(|_| rerr(line_no, format!("bad arrival_ms `{}`", fields[0])))?;
        let tasks: usize = fields[1]
            .parse()
            .map_err(|_| rerr(line_no, format!("bad tasks `{}`", fields[1])))?;
        if tasks == 0 {
            return Err(rerr(line_no, "tasks must be at least 1"));
        }
        let work_ms: f64 = fields[2]
            .parse()
            .map_err(|_| rerr(line_no, format!("bad work_ms `{}`", fields[2])))?;
        if !(work_ms.is_finite() && work_ms > 0.0) {
            return Err(rerr(line_no, format!("work_ms must be > 0, got {work_ms}")));
        }
        let dag_len: usize = match fields.get(3) {
            Some(s) => s
                .parse()
                .map_err(|_| rerr(line_no, format!("bad dag_len `{s}`")))?,
            None => 1,
        };
        if dag_len == 0 {
            return Err(rerr(line_no, "dag_len must be at least 1"));
        }
        let beta: f64 = match fields.get(4) {
            Some(s) => s
                .parse()
                .map_err(|_| rerr(line_no, format!("bad beta `{s}`")))?,
            None => 1.5,
        };
        if !(beta.is_finite() && beta > 1.0) {
            return Err(rerr(line_no, format!("beta must be > 1, got {beta}")));
        }
        let work = SimTime::from_millis((work_ms.round() as u64).max(1));
        let phases = (0..dag_len)
            .map(|d| TracePhase {
                task_works: vec![work; tasks],
                upstream: if d == 0 { vec![] } else { vec![d - 1] },
                output_mb_per_task: 0.0,
                reads_dfs_input: d == 0,
            })
            .collect();
        let job = TraceJob {
            id: jobs.len(),
            arrival: SimTime::from_millis(arrival_ms),
            phases,
            beta,
            template: None,
            weight: 1.0,
        };
        job.assert_well_formed();
        jobs.push(job);
    }
    if jobs.is_empty() {
        return Err(rerr(0, "no job rows"));
    }
    Ok(Trace::new(jobs))
}

/// Export any trace to the replay schema, one row per job: arrival,
/// tasks per phase (averaged, ≥ 1), mean work per task (rounded to
/// ms), DAG length, β. Exact for replay-shaped traces (equal phases,
/// uniform work), a uniform-work approximation otherwise.
pub fn export_replay_csv(trace: &Trace) -> String {
    let mut out = String::with_capacity(32 * (trace.len() + 1));
    out.push_str(REPLAY_HEADER);
    out.push('\n');
    for j in &trace.jobs {
        let tasks = j.num_tasks();
        let dag_len = j.dag_len();
        let per_phase = ((tasks as f64 / dag_len as f64).round() as usize).max(1);
        let mean_work = (j.total_work_ms() as f64 / tasks.max(1) as f64).round() as u64;
        out.push_str(&format!(
            "{},{},{},{},{}\n",
            j.arrival.as_millis(),
            per_phase,
            mean_work.max(1),
            dag_len,
            j.beta,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TraceGenerator, WorkloadProfile};

    #[test]
    fn parses_minimal_and_full_rows() {
        let t = parse_replay_csv("0,4,1000\n500,2,2000,3,1.4\n").unwrap();
        assert_eq!(t.len(), 2);
        let a = &t.jobs[0];
        assert_eq!(a.arrival, SimTime::ZERO);
        assert_eq!(a.dag_len(), 1);
        assert_eq!(a.num_tasks(), 4);
        assert_eq!(a.beta, 1.5, "default beta");
        let b = &t.jobs[1];
        assert_eq!(b.dag_len(), 3);
        assert_eq!(b.num_tasks(), 6, "2 tasks x 3 phases");
        assert_eq!(b.beta, 1.4);
        assert_eq!(b.phases[1].upstream, vec![0]);
        assert_eq!(b.phases[2].upstream, vec![1]);
        assert!(b.phases[0].reads_dfs_input && !b.phases[1].reads_dfs_input);
    }

    #[test]
    fn header_comments_and_blanks_are_skipped() {
        let t = parse_replay_csv(
            "arrival_ms,tasks,work_ms,dag_len,beta\n# a comment\n\n10,1,50 # trailing\n",
        )
        .unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.jobs[0].arrival.as_millis(), 10);
    }

    #[test]
    fn unsorted_rows_are_sorted_and_reidentified() {
        let t = parse_replay_csv("900,1,100\n0,2,100\n400,3,100\n").unwrap();
        let arrivals: Vec<u64> = t.jobs.iter().map(|j| j.arrival.as_millis()).collect();
        assert_eq!(arrivals, vec![0, 400, 900]);
        for (i, j) in t.jobs.iter().enumerate() {
            assert_eq!(j.id, i);
        }
    }

    #[test]
    fn malformed_rows_carry_line_numbers() {
        let cases = [
            ("0,4\n", 1, "expected 3-5"),
            ("0,4,100\nnope,1,100\n", 2, "arrival_ms"),
            ("0,0,100\n", 1, "tasks"),
            ("0,1,-5\n", 1, "work_ms"),
            ("0,1,100,0\n", 1, "dag_len"),
            ("0,1,100,1,0.9\n", 1, "beta"),
            ("# only comments\n", 0, "no job rows"),
        ];
        for (text, line, needle) in cases {
            let e = parse_replay_csv(text).unwrap_err();
            assert_eq!(e.line, line, "{text:?}: {e}");
            assert!(e.msg.contains(needle), "{text:?}: {e}");
        }
    }

    #[test]
    fn export_then_ingest_is_a_fixpoint() {
        // Export is lossy on arbitrary generated traces, but ingest
        // lands in the replay-shaped subspace where it is exact:
        // export(ingest(export(x))) == export(x) for any x, and
        // ingest(export(y)) == y for replay-shaped y.
        let g = TraceGenerator::new(WorkloadProfile::facebook(), 40, 17);
        let trace = g.generate_with_utilization(120, 0.7);
        let csv1 = export_replay_csv(&trace);
        let replayed = parse_replay_csv(&csv1).unwrap();
        let csv2 = export_replay_csv(&replayed);
        assert_eq!(csv1, csv2, "export/ingest must reach a fixpoint");
        let replayed2 = parse_replay_csv(&csv2).unwrap();
        assert_eq!(replayed.len(), replayed2.len());
        for (a, b) in replayed.jobs.iter().zip(&replayed2.jobs) {
            assert_eq!(a.arrival, b.arrival);
            assert_eq!(a.num_tasks(), b.num_tasks());
            assert_eq!(a.total_work_ms(), b.total_work_ms());
            assert_eq!(a.beta.to_bits(), b.beta.to_bits());
        }
    }

    #[test]
    fn export_preserves_totals_approximately() {
        let g = TraceGenerator::new(WorkloadProfile::facebook(), 30, 3);
        let trace = g.generate_with_utilization(100, 0.7);
        let replayed = parse_replay_csv(&export_replay_csv(&trace)).unwrap();
        assert_eq!(replayed.len(), trace.len());
        for (a, b) in trace.jobs.iter().zip(&replayed.jobs) {
            assert_eq!(a.arrival, b.arrival);
            assert_eq!(a.dag_len(), b.dag_len());
            // Mean-work uniformization keeps totals within rounding of
            // the per-phase task-count average.
            let rel = (a.total_work_ms() as f64 - b.total_work_ms() as f64).abs()
                / a.total_work_ms() as f64;
            assert!(rel < 0.6, "job {}: totals drifted {rel}", a.id);
        }
    }
}
