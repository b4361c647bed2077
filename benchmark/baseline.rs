//! The baseline measured when the benchmark was added (`baseline.tsv`):
//! per workload and metric, the median of two full-size sets at [`SEED`]
//! (and both values), and the pinned simulation fingerprint. The record compares itself
//! against it when run at that seed and size.

/// The seed the baseline was measured at.
pub const SEED: u64 = 1;

const TSV: &str = include_str!("baseline.tsv");

/// Data rows: `workload, metric, unit, median, set 1, set 2`.
fn rows() -> impl Iterator<Item = Vec<&'static str>> {
    TSV.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| l.split('\t').collect())
}

fn cell(workload: &str, metric: &str) -> Option<&'static str> {
    rows()
        .find(|r| r.len() >= 4 && r[0] == workload && r[1] == metric)
        .map(|r| r[3])
}

/// The pinned fingerprint of `workload`'s simulation.
pub fn fingerprint(workload: &str) -> Option<&'static str> {
    cell(workload, "sim_fingerprint")
}

/// The baseline median of `metric` on `workload`.
pub fn median(workload: &str, metric: &str) -> Option<f64> {
    cell(workload, metric)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{unit_of, END_TO_END};
    use crate::workload::WORKLOADS;

    #[test]
    fn every_row_names_a_known_workload_and_metric() {
        for r in rows() {
            assert!(r.len() >= 4, "short row {r:?}");
            assert!(WORKLOADS.iter().any(|(n, _)| *n == r[0]), "{r:?}");
            if r[1] == "sim_fingerprint" {
                assert!(r[3].len() == 16 && u64::from_str_radix(r[3], 16).is_ok());
            } else {
                assert_eq!(unit_of(r[1]), Some(r[2]), "{r:?}");
                assert!(r[3..].iter().all(|v| v.parse::<f64>().is_ok()), "{r:?}");
            }
        }
    }

    #[test]
    fn every_workload_has_a_pinned_fingerprint_and_end_to_end_baseline() {
        for (w, _) in WORKLOADS {
            assert!(fingerprint(w).is_some(), "{w}");
            for m in END_TO_END {
                assert!(median(w, m.name).is_some(), "{w} {}", m.name);
            }
        }
    }
}
