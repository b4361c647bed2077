//! Measurement utilities for the Hopper reproduction.
//!
//! Everything the paper's evaluation reports is computed here: average job
//! completion times and their reductions ("Reduction (%) in Average Job
//! Duration", the y-axis of most figures), per-job gain distributions
//! (Figure 8a), the job-size bins of Figure 7 (`<50`, `51–150`, `151–500`,
//! `>500` tasks), and simple ASCII tables/series so every bench target can
//! print paper-shaped output.

#![warn(missing_docs)]

pub mod digest;
pub mod report;
pub mod stats;
pub mod table;
pub mod telemetry;

pub use digest::{JobDigest, QuantileSketch, DIGEST_EPS};
pub use report::{parse_jsonl, render_html, render_svg, SeriesData, WindowRow};
pub use stats::{
    mean, mean_duration, mean_duration_for_dag, mean_duration_in_bin, percentile, reduction_pct,
    CoreStats, GainCdf, JobResult, SizeBin,
};
pub use table::Table;
pub use telemetry::{
    RunReport, RunSummary, SeriesCollector, TelemetrySeries, TelemetrySnapshot, TelemetryWindow,
};
