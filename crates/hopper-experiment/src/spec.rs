//! [`ExperimentSpec`]: one experiment cell as a serializable value.
//!
//! A spec names everything a trial needs — workload source, cluster
//! shape, engine + policy, utilization, seed list — and round-trips
//! through a plain `key=value` text form (one pair per line, `#`
//! comments). [`KEYS`] declares every key once; `set`, `render`, the
//! unknown-key diagnostic and the `hopper` CLI flags (`--probe-ratio` for
//! `probe_ratio`) are all derived from it, so a spec file and a command
//! line describe the same thing. [`ExperimentSpec::set`] is the single
//! dispatch both go through, and the sweep axis reuses it to vary one
//! key across a grid.
//!
//! Round-trip contract (pinned by tests): `parse(render(parse(text)))`
//! equals `parse(text)`, and unknown keys are rejected with an error
//! naming the key, the line, and the known-key list.

use hopper_central::{HopperConfig, Policy, SimConfig};
use hopper_cluster::{ClusterConfig, DynamicsConfig, HeteroProfile};
use hopper_core::AllocConfig;
use hopper_decentral::{DecConfig, DecPolicy, FaultConfig};
use hopper_metrics::RunSummary;
use hopper_sim::SimTime;
use hopper_spec::{SpecConfig, Speculator};
use hopper_workload::{
    parse_replay_csv, ArrivalSource, RateProfile, Trace, TraceGenerator, TraceStream,
    WorkloadProfile,
};
use std::fmt::Display;
use std::str::FromStr;
use std::sync::Arc;

/// Which simulator family runs the trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// `hopper-central`: one global scheduler.
    Central,
    /// `hopper-decentral`: autonomous schedulers + probes.
    Decentral,
}

impl EngineKind {
    /// The `engine=` key spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            EngineKind::Central => "central",
            EngineKind::Decentral => "decentral",
        }
    }
}

/// Error from parsing, validating, or building an experiment spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError(pub String);

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "experiment spec: {}", self.0)
    }
}

impl std::error::Error for SpecError {}

fn err(msg: impl Into<String>) -> SpecError {
    SpecError(msg.into())
}

/// One entry of [`KEYS`]: a spec key's name (its field's name), the
/// field's accessors, and its line in `hopper help`.
pub struct Key {
    /// The `key=value` spelling.
    pub name: &'static str,
    /// The value's placeholder in `hopper help` (`N`, `F`, `P`, ...).
    pub meta: &'static str,
    /// One-line meaning, for `hopper help`.
    pub help: &'static str,
    /// A boolean key's two spellings, true first; a bare CLI flag means
    /// the first. Empty for keys that always take a value.
    pub switch: &'static [&'static str],
    set: fn(&mut ExperimentSpec, &str) -> Result<(), SpecError>,
    get: fn(&ExperimentSpec) -> String,
}

impl Key {
    /// The key called `name`, if there is one.
    pub fn named(name: &str) -> Option<&'static Key> {
        KEYS.iter().find(|k| k.name == name)
    }

    /// The key's CLI flag: its name with dashes for underscores.
    pub fn flag(&self) -> String {
        format!("--{}", self.name.replace('_', "-"))
    }
}

/// Declares every spec key once, in canonical (`render`) order, as
/// `field: Kind "META" "help"`. The key is named after its field, and
/// the kind says how its value is parsed and rendered.
macro_rules! spec_keys {
    ($($field:ident: $kind:ident $meta:literal $help:literal,)*) => {
        /// Every spec key, in canonical order.
        pub const KEYS: &[Key] = &[$(Key {
            name: stringify!($field),
            meta: $meta,
            help: $help,
            switch: $kind::SWITCH,
            set: |spec, value| {
                spec.$field = $kind::parse(stringify!($field), value)?;
                Ok(())
            },
            get: |spec| $kind::render(&spec.$field),
        },)*];
    };
}

spec_keys! {
    engine: EngineName "central|decentral" "simulator family; picks the other keys' defaults",
    policy: Text "P" "central: fifo|fair|srpt|budgeted|hopper; decentral: sparrow|sparrow-srpt|hopper",
    workload: Text "facebook|bing" "workload profile",
    interactive: Bool "" "Spark-style interactive variant (sub-second tasks)",
    single_phase: Bool "" "force single-phase jobs",
    fixed_dag_len: Opt "N|none" "force every DAG to exactly N phases",
    fixed_beta: Opt "F|none" "pin every job's Pareto tail index beta",
    fixed_tasks: Opt "N|none" "pin every job's input-phase task count",
    learn_beta: Bool "true|false" "central Hopper learns beta online (default true)",
    realloc_drift: Num "F" "central Hopper: keep the allocation while virtual size drifts < F",
    jobs: Num "N" "jobs per trial",
    max_jobs: Opt "N|none" "stop consuming the arrival stream after N jobs",
    stream: OnOff "" "lazy arrivals + job retirement: O(active jobs) state, same results",
    rate_profile: Text "constant|diurnal" "arrival-rate shape; diurnal keeps the time-average at util",
    rate_period_ms: Num "N" "diurnal period (0 = derive from the arrival window)",
    burst_rate: Num "F" "seeded burst windows per hour on top of the base profile",
    burst_mult: Num "F" "rate multiplier inside bursts (off-burst normalized down)",
    burst_len_ms: Num "N" "burst window length",
    replay: Opt "FILE|none" "replay jobs from CSV: arrival_ms,tasks,work_ms[,dag_len[,beta]]",
    machines: Num "N" "cluster machines",
    slots: Num "N" "slots per machine",
    handoff_ms: Num "N" "slot hand-off cost (0 = long-lived executors)",
    util: Num "F" "target average cluster utilization",
    eps: Num "F" "fairness epsilon",
    scan_ms: Opt "N|none" "straggler-scan period (none = engine default)",
    spec_min_elapsed_ms: Opt "N|none" "LATE warm-up (none = engine default)",
    probe_ratio: Num "F" "decentral reservations per task",
    refusals: Num "N" "decentral refusal threshold",
    schedulers: Num "N" "decentral autonomous schedulers",
    hetero: Text "off|uniform|bimodal|lognormal" "machine speed heterogeneity",
    slow_frac: Num "F" "bimodal slow-node fraction",
    slow_factor: Num "F" "slow machine speed",
    hetero_sigma: Num "F" "lognormal sigma",
    slowdown_rate: Num "F" "transient slowdowns per machine-hour",
    fail_rate: Num "F" "machine failures per machine-hour",
    mttr_ms: Num "N" "mean machine recovery",
    msg_loss: Num "F" "decentral per-RPC loss probability [0,1]",
    msg_jitter_ms: Num "N" "decentral max extra message delay",
    msg_dup: Num "F" "decentral per-RPC duplication probability [0,1]",
    sched_fail_rate: Num "F" "decentral scheduler crashes per scheduler-hour",
    sched_mttr_ms: Num "N" "mean scheduler recovery",
    rpc_timeout_ms: Num "N" "watchdog/lease horizon (neutral while faults are off)",
    rpc_retries: Num "N" "watchdog retries before a fresh probe round",
    shards: Num "N" "decentral PDES shards; same results for any N >= 1 (0 = serial)",
    telemetry_window_ms: Num "N" "windowed time-series; never changes results (0 = off)",
    seeds: Seeds "N,N,..." "one trial per seed",
}

// The value kinds of the key table. Each parses one value, naming the
// key in its error, and renders it back in the same spelling.

/// A boolean spelled `true|false` ([`Bool`]) or `on|off` ([`OnOff`]).
struct Switch<const ON_OFF: bool>;
type Bool = Switch<false>;
type OnOff = Switch<true>;
/// A number or string in its `FromStr`/`Display` spelling.
struct Num;
type Text = Num;
/// `none` or a [`Num`].
struct Opt;
/// A comma-separated seed list.
struct Seeds;
/// `central|decentral`.
struct EngineName;

impl<const ON_OFF: bool> Switch<ON_OFF> {
    const SWITCH: &'static [&'static str] = if ON_OFF {
        &["on", "off"]
    } else {
        &["true", "false"]
    };
    fn parse(key: &str, value: &str) -> Result<bool, SpecError> {
        one_of(key, value, Self::SWITCH)?;
        Ok(value == Self::SWITCH[0])
    }
    fn render(value: &bool) -> String {
        Self::SWITCH[usize::from(!value)].to_string()
    }
}

impl Num {
    const SWITCH: &'static [&'static str] = &[];
    fn parse<T: FromStr>(key: &str, value: &str) -> Result<T, SpecError> {
        value
            .parse()
            .map_err(|_| err(format!("could not parse {key}=`{value}`")))
    }
    fn render<T: Display + ?Sized>(value: &T) -> String {
        value.to_string()
    }
}

impl Opt {
    const SWITCH: &'static [&'static str] = &[];
    fn parse<T: FromStr>(key: &str, value: &str) -> Result<Option<T>, SpecError> {
        match value {
            "none" => Ok(None),
            _ => Num::parse(key, value).map(Some),
        }
    }
    fn render<T: Display>(value: &Option<T>) -> String {
        value.as_ref().map_or("none".to_string(), T::to_string)
    }
}

impl Seeds {
    const SWITCH: &'static [&'static str] = &[];
    fn parse(key: &str, value: &str) -> Result<Vec<u64>, SpecError> {
        value
            .split(',')
            .map(|s| Num::parse(key, s.trim()))
            .collect()
    }
    fn render(value: &[u64]) -> String {
        let seeds: Vec<String> = value.iter().map(u64::to_string).collect();
        seeds.join(",")
    }
}

impl EngineName {
    const SWITCH: &'static [&'static str] = &[];
    fn parse(key: &str, value: &str) -> Result<EngineKind, SpecError> {
        [EngineKind::Central, EngineKind::Decentral]
            .into_iter()
            .find(|e| e.as_str() == value)
            .ok_or_else(|| err(format!("{key} must be central|decentral, got `{value}`")))
    }
    fn render(value: &EngineKind) -> String {
        value.as_str().to_string()
    }
}

/// A complete description of one experiment cell.
///
/// Every field is one entry of [`KEYS`]: a `key=value` pair and a CLI
/// flag. [`ExperimentSpec::central_config`] and
/// [`ExperimentSpec::decentral_config`] are the one mapping from a spec
/// to an engine's policy and configuration; [`ExperimentSpec::run_one`]
/// runs one of them on the spec's own arrivals. To run another trace,
/// or to vary a config field no key names, build the config and call
/// `hopper_central::run_source` / `hopper_decentral::run_source` on it.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentSpec {
    /// Simulator family (`engine=central|decentral`).
    pub engine: EngineKind,
    /// Policy name within the engine: `fifo|fair|srpt|budgeted|hopper`
    /// (central) or `sparrow|sparrow-srpt|hopper` (decentral).
    pub policy: String,
    /// Workload profile (`facebook|bing`).
    pub workload: String,
    /// Spark-style interactive variant (sub-second tasks).
    pub interactive: bool,
    /// Force single-phase jobs.
    pub single_phase: bool,
    /// Force every DAG to exactly this many phases.
    pub fixed_dag_len: Option<usize>,
    /// Pin every job's Pareto tail index β.
    pub fixed_beta: Option<f64>,
    /// Pin every job's input-phase task count, removing the heavy-tailed
    /// job-size dimension (`fixed_tasks=none|N`). With `single_phase`
    /// and `fixed_beta` this is the analytic stability-frontier
    /// reference workload (saturation at `util=1`).
    pub fixed_tasks: Option<usize>,
    /// Centralized Hopper: learn β online (vs per-job trace β).
    pub learn_beta: bool,
    /// Centralized Hopper: bounded-staleness reallocation threshold
    /// (`realloc_drift=0` — the default — is the exact eager schedule;
    /// a positive value keeps the previous allocation while the total
    /// virtual size stays within that relative drift). Sweepable.
    pub realloc_drift: f64,
    /// Jobs per trial.
    pub jobs: usize,
    /// Cap on jobs actually delivered (`max_jobs=none|N`): the arrival
    /// window is calibrated over all `jobs`, but the run stops consuming
    /// the stream after `N` — the knob for cutting a long calibrated
    /// stream short. `None` delivers everything.
    pub max_jobs: Option<usize>,
    /// Streaming pipeline (`stream=on|off`, default off): arrivals are
    /// generated lazily and injected as simulation time advances,
    /// completed jobs retire their state, and per-job results fold into
    /// a constant-memory digest — live job state is O(active jobs) (plus
    /// fixed-width per-id bookkeeping, tens of bytes per job).
    /// Simulation decisions (and `CoreStats`/means) are identical to a
    /// materialized run of the same seed; percentiles come from the
    /// digest's ε-approximate sketch instead of an exact sort.
    pub stream: bool,
    /// Arrival-rate shape (`rate_profile=constant|diurnal`, default
    /// `constant`). `constant` is the stationary Poisson process and is
    /// byte-identical to builds that predate the knob; `diurnal`
    /// modulates arrivals along a piecewise-linear day/night curve whose
    /// time-average is pinned to 1, so `util` stays the honest
    /// time-average target. Sweepable.
    pub rate_profile: String,
    /// Diurnal period in ms (`rate_period_ms=0` — the default — derives
    /// one from the calibrated arrival window so each run sees a few
    /// cycles).
    pub rate_period_ms: u64,
    /// Burst injections per hour layered on the base profile
    /// (`burst_rate=0` — the default — disables bursts entirely).
    /// Burst *placement* depends only on the seed, so sweeping
    /// `burst_mult` moves how hard bursts hit, never when. Sweepable.
    pub burst_rate: f64,
    /// Rate multiplier inside a burst window (≥ 1). Off-burst rate is
    /// normalized down so the time-average stays 1. Sweepable.
    pub burst_mult: f64,
    /// Burst window length in ms. `burst_rate × burst_len_ms` must stay
    /// below one hour (bursts must not tile the timeline).
    pub burst_len_ms: u64,
    /// External trace replay (`replay=none|<path.csv>`): ingest jobs
    /// from a CSV (`arrival_ms,tasks,work_ms[,dag_len[,beta]]`) instead
    /// of synthesizing them. Replay fixes the arrival process, so it
    /// requires `rate_profile=constant`, no bursts, and no `max_jobs`;
    /// `jobs`/`util`/`workload` shaping keys are ignored. (A file
    /// literally named `none` cannot be specified — rename it.)
    pub replay: Option<String>,
    /// Cluster machines.
    pub machines: usize,
    /// Slots per machine.
    pub slots: usize,
    /// Slot hand-off cost in ms (0 = long-lived executors).
    pub handoff_ms: u64,
    /// Target average cluster utilization the trace generator hits.
    pub util: f64,
    /// Fairness ε.
    pub eps: f64,
    /// Straggler-scan period override (ms); engine default when `None`.
    pub scan_ms: Option<u64>,
    /// LATE warm-up override (ms); engine default when `None`.
    pub spec_min_elapsed_ms: Option<u64>,
    /// Decentralized probe ratio (reservations per task).
    pub probe_ratio: f64,
    /// Decentralized refusal threshold.
    pub refusals: usize,
    /// Number of autonomous schedulers (decentralized).
    pub schedulers: usize,
    /// Machine-speed heterogeneity profile
    /// (`hetero=off|uniform|bimodal|lognormal`). `off` — the default —
    /// leaves every run bit-identical to a dynamics-free build.
    pub hetero: String,
    /// Bimodal profile: fraction of slow machines, in `[0, 1]`.
    pub slow_frac: f64,
    /// Slow-machine speed: the bimodal slow speed, and the floor of the
    /// uniform band (`uniform` draws speeds in `[slow_factor, 1]`).
    pub slow_factor: f64,
    /// Lognormal profile: σ of the underlying normal.
    pub hetero_sigma: f64,
    /// Transient machine slowdowns per machine per hour (0 disables).
    /// Degradation factor and interval use the fixed
    /// bands of `hopper_cluster::dynamics` (0.3–0.7× for 5–60 s).
    pub slowdown_rate: f64,
    /// Machine failures per machine per hour (0 disables). A failure
    /// kills every running copy on the machine for re-dispatch.
    pub fail_rate: f64,
    /// Mean time to recover a failed machine, ms (recovery times are
    /// uniform in `[0.5, 1.5] × mttr_ms`).
    pub mttr_ms: u64,
    /// Decentralized message-fault plane: per-RPC loss probability in
    /// `[0, 1]` (0 disables). Sweepable.
    pub msg_loss: f64,
    /// Max extra per-message delivery jitter, ms (uniform per-message
    /// draw, so deliveries reorder; 0 disables).
    pub msg_jitter_ms: u64,
    /// Per-RPC duplication probability in `[0, 1]` (0 disables).
    pub msg_dup: f64,
    /// Scheduler crashes per scheduler per hour (0 disables the chains).
    pub sched_fail_rate: f64,
    /// Mean scheduler recovery time, ms (uniform in
    /// `[0.5, 1.5] × sched_mttr_ms`).
    pub sched_mttr_ms: u64,
    /// RPC hardening: per-job watchdog / per-response lease horizon, ms.
    /// Must be positive. Hardening knobs alone never change a run.
    pub rpc_timeout_ms: u64,
    /// RPC hardening: watchdog retries before the capped exponential
    /// backoff wraps to a fresh probe round. Must be at least 1.
    pub rpc_retries: u32,
    /// Execution shards for the decentralized conservative-PDES engine
    /// (`shards=0` — the default — is the serial driver; any `N >= 1`
    /// runs the sharded engine, bit-identical for every such `N`).
    /// Decentralized-only: the central engine rejects `shards > 0`.
    pub shards: usize,
    /// Telemetry window width in ms (`telemetry_window_ms=0` — the
    /// default — disables collection entirely and is bit-identical to a
    /// telemetry-free build). Any positive width attaches a windowed
    /// time-series to the run's report without changing simulation
    /// results (observer invariant). Not sweepable — it is an
    /// observation knob, not an experiment variable.
    pub telemetry_window_ms: u64,
    /// Seed list — one trial per seed.
    pub seeds: Vec<u64>,
}

impl ExperimentSpec {
    /// Centralized defaults (the `hopper central` CLI defaults).
    pub fn central() -> Self {
        ExperimentSpec {
            engine: EngineKind::Central,
            policy: "hopper".into(),
            workload: "facebook".into(),
            interactive: false,
            single_phase: false,
            fixed_dag_len: None,
            fixed_beta: None,
            fixed_tasks: None,
            learn_beta: true,
            realloc_drift: 0.0,
            jobs: 100,
            max_jobs: None,
            stream: false,
            rate_profile: "constant".into(),
            rate_period_ms: 0,
            burst_rate: 0.0,
            burst_mult: 4.0,
            burst_len_ms: 60_000,
            replay: None,
            machines: 50,
            slots: 4,
            handoff_ms: ClusterConfig::default().handoff_ms,
            util: 0.7,
            eps: 0.1,
            scan_ms: None,
            spec_min_elapsed_ms: None,
            probe_ratio: 4.0,
            refusals: 2,
            schedulers: 1,
            hetero: "off".into(),
            slow_frac: 0.2,
            slow_factor: 0.4,
            hetero_sigma: 0.25,
            slowdown_rate: 0.0,
            fail_rate: 0.0,
            mttr_ms: 30_000,
            msg_loss: 0.0,
            msg_jitter_ms: 0,
            msg_dup: 0.0,
            sched_fail_rate: 0.0,
            sched_mttr_ms: 10_000,
            rpc_timeout_ms: 2_000,
            rpc_retries: 3,
            shards: 0,
            telemetry_window_ms: 0,
            seeds: vec![1],
        }
    }

    /// Decentralized defaults (the paper's deployment shape: long-lived
    /// executors, 10 schedulers, probe ratio 4, refusal threshold 2).
    pub fn decentral() -> Self {
        ExperimentSpec {
            engine: EngineKind::Decentral,
            policy: "hopper".into(),
            machines: 300,
            slots: 2,
            handoff_ms: 0,
            schedulers: 10,
            ..ExperimentSpec::central()
        }
    }

    /// Set one field by its `key=value` spelling. The single dispatch
    /// shared by the text parser, the CLI flags, and the sweep axis.
    ///
    /// Note that `set("engine", ..)` flips only the engine selector —
    /// it does not re-base the other fields onto that engine's
    /// defaults. [`ExperimentSpec::parse`] handles `engine=` specially
    /// (it picks the default set before applying the other pairs), and
    /// the sweep runner rejects `engine` as an axis for the same
    /// reason.
    pub fn set(&mut self, key: &str, value: &str) -> Result<(), SpecError> {
        let Some(k) = Key::named(key) else {
            let known: Vec<&str> = KEYS.iter().map(|k| k.name).collect();
            return Err(err(format!(
                "unknown key `{key}`; known keys: {}",
                known.join(", ")
            )));
        };
        (k.set)(self, value)
    }

    /// Parse the `key=value` text form (one pair per line; blank lines
    /// and `#` comments ignored). The `engine` key — wherever it appears
    /// — picks the defaults the remaining pairs refine, so a spec file
    /// only needs to name what deviates.
    pub fn parse(text: &str) -> Result<Self, SpecError> {
        let spec = Self::parse_unvalidated(text)?;
        spec.validate()?;
        Ok(spec)
    }

    /// [`ExperimentSpec::parse`] without the final
    /// [`ExperimentSpec::validate`], for a caller that still sets fields
    /// before validating.
    pub fn parse_unvalidated(text: &str) -> Result<Self, SpecError> {
        let pairs = pairs(text)?;
        let at = |line: usize| move |e: SpecError| err(format!("line {line}: {}", e.0));
        // `engine=` is applied first: it selects the default set.
        let mut spec = ExperimentSpec::central();
        for &(line, key, value) in pairs.iter().filter(|p| p.1 == "engine") {
            spec.set(key, value).map_err(at(line))?;
        }
        if spec.engine == EngineKind::Decentral {
            spec = ExperimentSpec::decentral();
        }
        for &(line, key, value) in pairs.iter().filter(|p| p.1 != "engine") {
            spec.set(key, value).map_err(at(line))?;
        }
        Ok(spec)
    }

    /// Render the canonical text form: every key, fixed order, one per
    /// line. `parse(render(spec))` reproduces `spec` exactly.
    pub fn render(&self) -> String {
        KEYS.iter()
            .map(|k| format!("{}={}\n", k.name, (k.get)(self)))
            .collect()
    }

    /// Check cross-field consistency (policy known to the engine,
    /// workload known, non-degenerate grid).
    pub fn validate(&self) -> Result<(), SpecError> {
        let policies: &[&str] = match self.engine {
            EngineKind::Central => &["fifo", "fair", "srpt", "budgeted", "hopper"],
            EngineKind::Decentral => &["sparrow", "sparrow-srpt", "hopper"],
        };
        let engine = self.engine.as_str();
        one_of(&format!("{engine} policy"), &self.policy, policies)?;
        one_of("workload", &self.workload, &["facebook", "bing"])?;
        if self.single_phase && self.fixed_dag_len.is_some() {
            return Err(err("single_phase and fixed_dag_len are mutually exclusive"));
        }
        if self.jobs == 0 {
            return Err(err("jobs must be positive"));
        }
        non_negative("realloc_drift", self.realloc_drift)?;
        if self.max_jobs == Some(0) {
            return Err(err("max_jobs must be positive (or none)"));
        }
        if self.fixed_tasks == Some(0) {
            return Err(err("fixed_tasks must be positive (or none)"));
        }
        if self.machines == 0 || self.slots == 0 {
            return Err(err("machines and slots must be positive"));
        }
        if self.schedulers == 0 {
            return Err(err("schedulers must be positive"));
        }
        if !(self.util > 0.0 && self.util <= 1.5) {
            return Err(err(format!("util must be in (0, 1.5], got {}", self.util)));
        }
        let hetero = ["off", "uniform", "bimodal", "lognormal"];
        one_of("hetero", &self.hetero, &hetero)?;
        unit_interval("slow_frac", self.slow_frac)?;
        if !(self.slow_factor > 0.0 && self.slow_factor <= 1.0) {
            return Err(err(format!(
                "slow_factor must be in (0, 1], got {}",
                self.slow_factor
            )));
        }
        non_negative("hetero_sigma", self.hetero_sigma)?;
        non_negative("slowdown_rate", self.slowdown_rate)?;
        non_negative("fail_rate", self.fail_rate)?;
        if self.fail_rate > 0.0 && self.mttr_ms == 0 {
            return Err(err("mttr_ms must be positive when fail_rate > 0"));
        }
        unit_interval("msg_loss", self.msg_loss)?;
        unit_interval("msg_dup", self.msg_dup)?;
        non_negative("sched_fail_rate", self.sched_fail_rate)?;
        if self.sched_fail_rate > 0.0 && self.sched_mttr_ms == 0 {
            return Err(err(
                "sched_mttr_ms must be positive when sched_fail_rate > 0",
            ));
        }
        if self.rpc_timeout_ms == 0 {
            return Err(err("rpc_timeout_ms must be positive"));
        }
        if self.rpc_retries == 0 {
            return Err(err("rpc_retries must be at least 1"));
        }
        if self.engine == EngineKind::Central && self.faults().enabled() {
            return Err(err(
                "message faults (msg_loss/msg_jitter_ms/msg_dup/sched_fail_rate) \
                 require engine=decentral — the central engine has no RPC plane",
            ));
        }
        if self.engine == EngineKind::Central && self.shards > 0 {
            return Err(err(
                "shards requires engine=decentral — the central engine has no sharded driver",
            ));
        }
        one_of("rate_profile", &self.rate_profile, &["constant", "diurnal"])?;
        non_negative("burst_rate", self.burst_rate)?;
        // The profile's own invariants (burst_mult >= 1, windows must not
        // tile the hour, ...) live with the profile.
        self.rate().check().map_err(err)?;
        if self.replay.is_some() {
            if self.rate_profile != "constant" || self.burst_rate > 0.0 {
                return Err(err("replay fixes the arrival process — it requires \
                     rate_profile=constant and burst_rate=0"));
            }
            if self.max_jobs.is_some() {
                return Err(err("replay and max_jobs are mutually exclusive"));
            }
        }
        if !(self.probe_ratio > 0.0 && self.probe_ratio.is_finite()) {
            return Err(err(format!(
                "probe_ratio must be finite and > 0, got {}",
                self.probe_ratio
            )));
        }
        unit_interval("eps", self.eps)?;
        if self.seeds.is_empty() {
            return Err(err("seeds must name at least one seed"));
        }
        Ok(())
    }

    /// The cluster-dynamics plane this spec describes.
    /// [`DynamicsConfig::off`] (bit-identical runs) unless a dynamics key
    /// was set.
    pub fn dynamics(&self) -> DynamicsConfig {
        let hetero = match self.hetero.as_str() {
            "uniform" => HeteroProfile::Uniform {
                lo: self.slow_factor,
                hi: 1.0,
            },
            "bimodal" => HeteroProfile::Bimodal {
                slow_frac: self.slow_frac,
                slow_factor: self.slow_factor,
            },
            "lognormal" => HeteroProfile::LogNormal {
                sigma: self.hetero_sigma,
            },
            _ => HeteroProfile::Off,
        };
        DynamicsConfig {
            hetero,
            slowdown_rate_per_hour: self.slowdown_rate,
            fail_rate_per_hour: self.fail_rate,
            recovery_ms: (self.mttr_ms / 2, self.mttr_ms + self.mttr_ms / 2),
        }
    }

    /// The message-fault plane this spec describes (decentralized only).
    /// [`FaultConfig::off`] — bit-identical runs — unless a fault key was
    /// set; hardening keys (`rpc_timeout_ms`, `rpc_retries`,
    /// `sched_mttr_ms`) alone do not enable it.
    pub fn faults(&self) -> FaultConfig {
        FaultConfig {
            msg_loss: self.msg_loss,
            msg_jitter_ms: self.msg_jitter_ms,
            msg_dup: self.msg_dup,
            sched_fail_rate_per_hour: self.sched_fail_rate,
            sched_mttr_ms: self.sched_mttr_ms,
            rpc_timeout_ms: self.rpc_timeout_ms,
            rpc_retries: self.rpc_retries,
        }
    }

    /// Total cluster slots (trace sizing input).
    pub fn total_slots(&self) -> usize {
        self.machines * self.slots
    }

    /// The arrival-rate profile this spec describes.
    /// [`RateProfile::Constant`] — bit-identical runs — unless a
    /// non-stationary key was set.
    pub fn rate(&self) -> RateProfile {
        let base = match self.rate_profile.as_str() {
            "diurnal" => RateProfile::diurnal(self.rate_period_ms),
            _ => RateProfile::constant(),
        };
        if self.burst_rate > 0.0 {
            base.with_bursts(self.burst_rate, self.burst_mult, self.burst_len_ms)
        } else {
            base
        }
    }

    /// Synthesize the trial's trace for `seed`. Identical (workload,
    /// jobs, cluster, util, seed) ⇒ identical trace, which is what lets
    /// reduction comparisons across policies share a trace by sharing a
    /// seed. Honors `max_jobs` (the materialized trace is then the
    /// stream's delivered prefix, so `stream=on` and `stream=off` trials
    /// always simulate the same jobs).
    pub fn trace(&self, seed: u64) -> Trace {
        Trace::new(self.stream(seed).collect())
    }

    /// The trial's lazy arrival stream for `seed` — the same jobs
    /// [`ExperimentSpec::trace`] materializes, yielded one at a time.
    pub fn stream(&self, seed: u64) -> TraceStream {
        let mut profile = match self.workload.as_str() {
            "bing" => WorkloadProfile::bing(),
            _ => WorkloadProfile::facebook(),
        };
        if self.interactive {
            profile = profile.interactive();
        }
        if self.single_phase {
            profile = profile.single_phase();
        }
        if let Some(len) = self.fixed_dag_len {
            profile = profile.fixed_dag_len(len);
        }
        if let Some(beta) = self.fixed_beta {
            profile = profile.fixed_beta(beta);
        }
        if let Some(tasks) = self.fixed_tasks {
            profile = profile.fixed_job_size(tasks);
        }
        let stream = TraceGenerator::new(profile, self.jobs, seed).stream_with_profile(
            self.total_slots(),
            self.util,
            &self.rate(),
        );
        match self.max_jobs {
            Some(m) => stream.truncated(m),
            None => stream,
        }
    }

    fn cluster(&self) -> ClusterConfig {
        ClusterConfig {
            machines: self.machines,
            slots_per_machine: self.slots,
            handoff_ms: self.handoff_ms,
            ..Default::default()
        }
    }

    /// Apply the `scan_ms` / `spec_min_elapsed_ms` overrides to an
    /// engine's straggler-scan period and speculator.
    fn speculation(&self, scan_interval: &mut SimTime, speculator: &mut Speculator) {
        if let Some(ms) = self.scan_ms {
            *scan_interval = SimTime::from_millis(ms);
        }
        if let Some(ms) = self.spec_min_elapsed_ms {
            *speculator = Speculator::Late(SpecConfig {
                min_elapsed: SimTime::from_millis(ms),
                ..Default::default()
            });
        }
    }

    /// The centralized policy and simulator configuration this spec
    /// describes for one trial seed. `Err` unless the spec validates and
    /// names `engine=central`.
    pub fn central_config(&self, seed: u64) -> Result<(Policy, SimConfig), SpecError> {
        self.validate_for(EngineKind::Central)?;
        let policy = match self.policy.as_str() {
            "fifo" => Policy::Fifo,
            "fair" => Policy::Fair,
            "srpt" => Policy::Srpt,
            "budgeted" => Policy::BudgetedSrpt {
                budget_fraction: 0.2,
            },
            _ => Policy::Hopper(HopperConfig {
                alloc: AllocConfig {
                    fairness_eps: self.eps,
                },
                learn_beta: self.learn_beta,
                realloc_drift: self.realloc_drift,
                ..Default::default()
            }),
        };
        let mut cfg = SimConfig {
            cluster: self.cluster(),
            dynamics: self.dynamics(),
            seed,
            telemetry_window_ms: self.telemetry_window_ms,
            ..Default::default()
        };
        self.speculation(&mut cfg.scan_interval, &mut cfg.speculator);
        Ok((policy, cfg))
    }

    /// The decentralized policy and simulator configuration this spec
    /// describes for one trial seed. `Err` unless the spec validates and
    /// names `engine=decentral`.
    pub fn decentral_config(&self, seed: u64) -> Result<(DecPolicy, DecConfig), SpecError> {
        self.validate_for(EngineKind::Decentral)?;
        let policy = match self.policy.as_str() {
            "sparrow" => DecPolicy::Sparrow,
            "sparrow-srpt" => DecPolicy::SparrowSrpt,
            _ => DecPolicy::Hopper,
        };
        let mut cfg = DecConfig {
            cluster: self.cluster(),
            num_schedulers: self.schedulers,
            probe_ratio: self.probe_ratio,
            refusal_threshold: self.refusals,
            fairness_eps: Some(self.eps),
            dynamics: self.dynamics(),
            faults: self.faults(),
            shards: self.shards,
            seed,
            telemetry_window_ms: self.telemetry_window_ms,
            ..Default::default()
        };
        self.speculation(&mut cfg.scan_interval, &mut cfg.speculator);
        Ok((policy, cfg))
    }

    /// [`ExperimentSpec::validate`], and the spec names `engine`.
    fn validate_for(&self, engine: EngineKind) -> Result<(), SpecError> {
        if self.engine != engine {
            let (want, have) = (engine.as_str(), self.engine.as_str());
            return Err(err(format!(
                "a {want} config needs engine={want}, the spec names engine={have}"
            )));
        }
        self.validate()
    }

    /// The seed's arrivals: the `replay=` CSV if set, else the
    /// synthesized workload, as a lazy stream when `stream=on` and as a
    /// trace materialized into `trace` otherwise.
    fn source<'a>(
        &self,
        seed: u64,
        trace: &'a mut Option<Trace>,
    ) -> Result<ArrivalSource<'a>, SpecError> {
        if let Some(path) = &self.replay {
            let text =
                std::fs::read_to_string(path).map_err(|e| err(format!("replay `{path}`: {e}")))?;
            let replayed =
                parse_replay_csv(&text).map_err(|e| err(format!("replay `{path}`: {e}")))?;
            Ok(ArrivalSource::from_shared(Arc::new(replayed)))
        } else if self.stream {
            Ok(ArrivalSource::from_stream(self.stream(seed)))
        } else {
            Ok(ArrivalSource::from_trace(trace.insert(self.trace(seed))))
        }
    }

    /// Run one trial on the seed's arrivals through the engine's
    /// `run_source`. `stream=on` retires completed jobs, so the summary
    /// then carries digest-only results.
    pub fn run_one(&self, seed: u64) -> Result<Box<dyn RunSummary>, SpecError> {
        let mut trace = None;
        let retain_jobs = !self.stream;
        Ok(match self.engine {
            EngineKind::Central => {
                let (policy, cfg) = self.central_config(seed)?;
                let source = self.source(seed, &mut trace)?;
                Box::new(hopper_central::run_source(
                    source,
                    &policy,
                    &cfg,
                    retain_jobs,
                ))
            }
            EngineKind::Decentral => {
                let (policy, cfg) = self.decentral_config(seed)?;
                let source = self.source(seed, &mut trace)?;
                Box::new(hopper_decentral::run_source(
                    source,
                    policy,
                    &cfg,
                    retain_jobs,
                ))
            }
        })
    }
}

/// `Err` naming `what` unless `value` is one of `choices`.
fn one_of(what: &str, value: &str, choices: &[&str]) -> Result<(), SpecError> {
    if choices.contains(&value) {
        return Ok(());
    }
    let choices = choices.join("|");
    Err(err(format!("{what} must be {choices}, got `{value}`")))
}

/// `Err` naming `key` unless `value` is finite and >= 0.
fn non_negative(key: &str, value: f64) -> Result<(), SpecError> {
    if value >= 0.0 && value.is_finite() {
        return Ok(());
    }
    Err(err(format!("{key} must be finite and >= 0, got {value}")))
}

/// `Err` naming `key` unless `value` is in [0, 1].
fn unit_interval(key: &str, value: f64) -> Result<(), SpecError> {
    if (0.0..=1.0).contains(&value) {
        return Ok(());
    }
    Err(err(format!("{key} must be in [0, 1], got {value}")))
}

/// Split the text form into `(line number, key, value)` pairs, skipping
/// blank lines and `#` comments.
pub fn pairs(text: &str) -> Result<Vec<(usize, &str, &str)>, SpecError> {
    let mut pairs = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(err(format!(
                "line {}: expected key=value, got `{line}`",
                i + 1
            )));
        };
        pairs.push((i + 1, key.trim(), value.trim()));
    }
    Ok(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        ExperimentSpec::central().validate().unwrap();
        ExperimentSpec::decentral().validate().unwrap();
    }

    /// The canonical text of both default specs, pinned literally: the
    /// key order and every value spelling are part of the file format.
    #[test]
    fn render_pins_the_default_specs() {
        const CENTRAL: &str = "\
engine=central
policy=hopper
workload=facebook
interactive=false
single_phase=false
fixed_dag_len=none
fixed_beta=none
fixed_tasks=none
learn_beta=true
realloc_drift=0
jobs=100
max_jobs=none
stream=off
rate_profile=constant
rate_period_ms=0
burst_rate=0
burst_mult=4
burst_len_ms=60000
replay=none
machines=50
slots=4
handoff_ms=1000
util=0.7
eps=0.1
scan_ms=none
spec_min_elapsed_ms=none
probe_ratio=4
refusals=2
schedulers=1
hetero=off
slow_frac=0.2
slow_factor=0.4
hetero_sigma=0.25
slowdown_rate=0
fail_rate=0
mttr_ms=30000
msg_loss=0
msg_jitter_ms=0
msg_dup=0
sched_fail_rate=0
sched_mttr_ms=10000
rpc_timeout_ms=2000
rpc_retries=3
shards=0
telemetry_window_ms=0
seeds=1
";
        const DECENTRAL: &str = "\
engine=decentral
policy=hopper
workload=facebook
interactive=false
single_phase=false
fixed_dag_len=none
fixed_beta=none
fixed_tasks=none
learn_beta=true
realloc_drift=0
jobs=100
max_jobs=none
stream=off
rate_profile=constant
rate_period_ms=0
burst_rate=0
burst_mult=4
burst_len_ms=60000
replay=none
machines=300
slots=2
handoff_ms=0
util=0.7
eps=0.1
scan_ms=none
spec_min_elapsed_ms=none
probe_ratio=4
refusals=2
schedulers=10
hetero=off
slow_frac=0.2
slow_factor=0.4
hetero_sigma=0.25
slowdown_rate=0
fail_rate=0
mttr_ms=30000
msg_loss=0
msg_jitter_ms=0
msg_dup=0
sched_fail_rate=0
sched_mttr_ms=10000
rpc_timeout_ms=2000
rpc_retries=3
shards=0
telemetry_window_ms=0
seeds=1
";
        assert_eq!(ExperimentSpec::central().render(), CENTRAL);
        assert_eq!(ExperimentSpec::decentral().render(), DECENTRAL);
        assert_eq!(CENTRAL.lines().count(), 46);
    }

    #[test]
    fn parse_render_parse_is_identity() {
        let text = "\
# decentralized cell of figure 6
engine=decentral
policy=sparrow-srpt
workload=bing
interactive=true
jobs=80
util=0.8
probe_ratio=2.5
seeds=0,1,2
";
        let once = ExperimentSpec::parse(text).unwrap();
        let twice = ExperimentSpec::parse(&once.render()).unwrap();
        assert_eq!(once, twice);
        assert_eq!(once.render(), twice.render());
        // Spot-check the refined fields landed.
        assert_eq!(once.engine, EngineKind::Decentral);
        assert_eq!(once.policy, "sparrow-srpt");
        assert_eq!(once.seeds, vec![0, 1, 2]);
        // Engine-specific defaults came from the decentral base.
        assert_eq!(once.machines, 300);
        assert_eq!(once.handoff_ms, 0);
    }

    #[test]
    fn engine_key_position_does_not_matter() {
        let a = ExperimentSpec::parse("engine=decentral\nmachines=100\n").unwrap();
        let b = ExperimentSpec::parse("machines=100\nengine=decentral\n").unwrap();
        assert_eq!(a, b);
        assert_eq!(a.slots, 2, "decentral default slots");
    }

    #[test]
    fn unknown_key_is_rejected_with_context() {
        let e = ExperimentSpec::parse("jobs=10\nprobe_ration=4\n").unwrap_err();
        assert!(e.0.contains("line 2"), "{e}");
        assert!(e.0.contains("unknown key `probe_ration`"), "{e}");
        assert!(e.0.contains("probe_ratio"), "should list known keys: {e}");
    }

    #[test]
    fn malformed_lines_and_values_are_rejected() {
        assert!(ExperimentSpec::parse("jobs 10\n").is_err());
        assert!(ExperimentSpec::parse("jobs=ten\n").is_err());
        assert!(ExperimentSpec::parse("interactive=yes\n").is_err());
        assert!(ExperimentSpec::parse("engine=federated\n").is_err());
        assert!(ExperimentSpec::parse("seeds=\n").is_err());
    }

    #[test]
    fn validation_catches_cross_field_errors() {
        let mut s = ExperimentSpec::central();
        s.policy = "sparrow".into();
        assert!(s.validate().is_err(), "sparrow is not a central policy");
        let mut s = ExperimentSpec::decentral();
        s.policy = "fifo".into();
        assert!(s.validate().is_err());
        let mut s = ExperimentSpec::central();
        s.single_phase = true;
        s.fixed_dag_len = Some(3);
        assert!(s.validate().is_err());
        let mut s = ExperimentSpec::central();
        s.seeds.clear();
        assert!(s.validate().is_err());
    }

    #[test]
    fn zero_schedulers_is_rejected() {
        let err = ExperimentSpec::parse("engine=decentral\nschedulers=0\n").unwrap_err();
        assert!(
            err.to_string().contains("schedulers must be positive"),
            "{err}"
        );
        assert!(ExperimentSpec::parse("engine=decentral\nschedulers=1\n").is_ok());
    }

    #[test]
    fn options_round_trip_through_none() {
        let mut s = ExperimentSpec::central();
        s.fixed_beta = Some(1.5);
        s.scan_ms = Some(200);
        let back = ExperimentSpec::parse(&s.render()).unwrap();
        assert_eq!(back.fixed_beta, Some(1.5));
        assert_eq!(back.scan_ms, Some(200));
        assert_eq!(back.spec_min_elapsed_ms, None);
        assert_eq!(s, back);
    }

    #[test]
    fn comments_and_blanks_are_ignored() {
        let s = ExperimentSpec::parse("\n# comment\njobs=7 # trailing\n\n").unwrap();
        assert_eq!(s.jobs, 7);
    }

    #[test]
    fn dynamics_keys_round_trip_and_map() {
        let text = "\
engine=decentral
hetero=bimodal
slow_frac=0.3
slow_factor=0.5
slowdown_rate=2
fail_rate=0.5
mttr_ms=20000
";
        let s = ExperimentSpec::parse(text).unwrap();
        let again = ExperimentSpec::parse(&s.render()).unwrap();
        assert_eq!(s, again);
        let d = s.dynamics();
        assert!(d.enabled());
        assert_eq!(
            d.hetero,
            HeteroProfile::Bimodal {
                slow_frac: 0.3,
                slow_factor: 0.5
            }
        );
        assert_eq!(d.slowdown_rate_per_hour, 2.0);
        assert_eq!(d.fail_rate_per_hour, 0.5);
        assert_eq!(d.recovery_ms, (10_000, 30_000));
        // The default spec carries a disabled plane.
        assert!(!ExperimentSpec::central().dynamics().enabled());
    }

    #[test]
    fn dynamics_values_are_validated() {
        let mut s = ExperimentSpec::central();
        s.hetero = "zipf".into();
        assert!(s.validate().is_err());
        let mut s = ExperimentSpec::central();
        s.slow_frac = 1.5;
        assert!(s.validate().is_err());
        let mut s = ExperimentSpec::central();
        s.slow_factor = 0.0;
        assert!(s.validate().is_err());
        let mut s = ExperimentSpec::central();
        s.fail_rate = -1.0;
        assert!(s.validate().is_err());
        let mut s = ExperimentSpec::central();
        s.fail_rate = 1.0;
        s.mttr_ms = 0;
        assert!(s.validate().is_err());
    }

    #[test]
    fn fault_keys_round_trip_and_map() {
        let text = "\
engine=decentral
msg_loss=0.05
msg_jitter_ms=5
msg_dup=0.02
sched_fail_rate=12
sched_mttr_ms=1500
rpc_timeout_ms=1000
rpc_retries=4
";
        let s = ExperimentSpec::parse(text).unwrap();
        let again = ExperimentSpec::parse(&s.render()).unwrap();
        assert_eq!(s, again);
        let f = s.faults();
        assert!(f.enabled());
        assert_eq!(f.msg_loss, 0.05);
        assert_eq!(f.msg_jitter_ms, 5);
        assert_eq!(f.msg_dup, 0.02);
        assert_eq!(f.sched_fail_rate_per_hour, 12.0);
        assert_eq!(f.sched_mttr_ms, 1_500);
        assert_eq!(f.rpc_timeout_ms, 1_000);
        assert_eq!(f.rpc_retries, 4);
        // The default spec carries a disabled plane.
        assert!(!ExperimentSpec::decentral().faults().enabled());
    }

    #[test]
    fn fault_values_are_validated() {
        // Probabilities outside [0, 1] / non-finite are rejected, and
        // the error names the key.
        for bad in ["msg_loss=1.5", "msg_loss=-0.1", "msg_loss=nan", "msg_dup=2"] {
            let e = ExperimentSpec::parse(&format!("engine=decentral\n{bad}\n")).unwrap_err();
            let key = bad.split('=').next().unwrap();
            assert!(e.0.contains(key), "error should name `{key}`: {e}");
        }
        let e = ExperimentSpec::parse("engine=decentral\nsched_fail_rate=-5\n").unwrap_err();
        assert!(e.0.contains("sched_fail_rate"), "{e}");
        // Hardening knobs have hard floors.
        let e = ExperimentSpec::parse("engine=decentral\nrpc_timeout_ms=0\n").unwrap_err();
        assert!(e.0.contains("rpc_timeout_ms"), "{e}");
        let e = ExperimentSpec::parse("engine=decentral\nrpc_retries=0\n").unwrap_err();
        assert!(e.0.contains("rpc_retries"), "{e}");
        let e = ExperimentSpec::parse("engine=decentral\nsched_fail_rate=1\nsched_mttr_ms=0\n")
            .unwrap_err();
        assert!(e.0.contains("sched_mttr_ms"), "{e}");
        // Fault injection is decentralized-only; neutral hardening keys
        // are fine on the central engine.
        assert!(ExperimentSpec::parse("engine=central\nmsg_loss=0.1\n").is_err());
        assert!(ExperimentSpec::parse("engine=central\nrpc_timeout_ms=500\n").is_ok());
    }

    #[test]
    fn probe_ratio_and_eps_are_validated() {
        for bad in ["probe_ratio=0", "probe_ratio=-1", "probe_ratio=inf"] {
            let e = ExperimentSpec::parse(&format!("engine=decentral\n{bad}\n")).unwrap_err();
            assert!(e.0.contains("probe_ratio"), "{e}");
        }
        for bad in ["eps=-0.1", "eps=1.5", "eps=nan"] {
            let e = ExperimentSpec::parse(&format!("{bad}\n")).unwrap_err();
            assert!(e.0.contains("eps"), "{e}");
        }
    }

    #[test]
    fn faulted_run_one_completes_every_job() {
        let mut s = ExperimentSpec::decentral();
        s.jobs = 8;
        s.machines = 30;
        s.util = 0.6;
        s.msg_loss = 0.05;
        s.msg_jitter_ms = 3;
        s.rpc_timeout_ms = 1_000;
        let out = s.run_one(4).unwrap();
        assert_eq!(out.jobs().len(), 8);
    }

    #[test]
    fn realloc_drift_round_trips_and_validates() {
        let s = ExperimentSpec::parse("realloc_drift=0.05\n").unwrap();
        assert_eq!(s.realloc_drift, 0.05);
        let again = ExperimentSpec::parse(&s.render()).unwrap();
        assert_eq!(s, again);
        // Default is the exact eager schedule.
        assert_eq!(ExperimentSpec::central().realloc_drift, 0.0);
        assert!(ExperimentSpec::central()
            .render()
            .contains("realloc_drift=0\n"));
        // Negative / non-finite values are rejected.
        assert!(ExperimentSpec::parse("realloc_drift=-0.1\n").is_err());
        assert!(ExperimentSpec::parse("realloc_drift=inf\n").is_err());
    }

    #[test]
    fn stream_and_max_jobs_keys_round_trip() {
        let s =
            ExperimentSpec::parse("engine=decentral\nstream=on\nmax_jobs=50\njobs=200\n").unwrap();
        assert!(s.stream);
        assert_eq!(s.max_jobs, Some(50));
        let again = ExperimentSpec::parse(&s.render()).unwrap();
        assert_eq!(s, again);
        // Defaults: off / none.
        let d = ExperimentSpec::central();
        assert!(!d.stream);
        assert_eq!(d.max_jobs, None);
        assert!(d.render().contains("stream=off\n"));
        assert!(d.render().contains("max_jobs=none\n"));
        // Value validation.
        assert!(ExperimentSpec::parse("stream=yes\n").is_err());
        assert!(ExperimentSpec::parse("max_jobs=0\n").is_err());
    }

    #[test]
    fn shards_key_round_trips_and_is_decentral_only() {
        let s = ExperimentSpec::parse("engine=decentral\nshards=4\n").unwrap();
        assert_eq!(s.shards, 4);
        let again = ExperimentSpec::parse(&s.render()).unwrap();
        assert_eq!(s, again);
        // Default: 0 — the serial driver.
        let d = ExperimentSpec::decentral();
        assert_eq!(d.shards, 0);
        assert!(d.render().contains("shards=0\n"));
        // The central engine has no sharded driver.
        let e = ExperimentSpec::parse("engine=central\nshards=2\n").unwrap_err();
        assert!(e.0.contains("engine=decentral"), "{e}");
        assert!(ExperimentSpec::parse("engine=central\nshards=0\n").is_ok());
    }

    #[test]
    fn sharded_run_one_matches_across_shard_counts() {
        let mut s = ExperimentSpec::decentral();
        s.jobs = 10;
        s.machines = 30;
        s.util = 0.6;
        s.shards = 1;
        let a = s.run_one(5).unwrap();
        s.shards = 3;
        let b = s.run_one(5).unwrap();
        assert_eq!(
            a.report().core,
            b.report().core,
            "shard count changed the run"
        );
        assert_eq!(a.jobs(), b.jobs());
    }

    #[test]
    fn max_jobs_truncates_both_trace_and_stream() {
        let mut s = ExperimentSpec::central();
        s.jobs = 40;
        s.max_jobs = Some(12);
        let t = s.trace(3);
        assert_eq!(t.len(), 12);
        assert_eq!(s.stream(3).count(), 12);
        // The truncated trace is a prefix of the full one.
        let mut full = s.clone();
        full.max_jobs = None;
        let ft = full.trace(3);
        for (a, b) in ft.jobs.iter().zip(&t.jobs) {
            assert_eq!(a.arrival, b.arrival);
            assert_eq!(a.total_work_ms(), b.total_work_ms());
        }
    }

    #[test]
    fn streaming_run_one_reports_through_the_digest() {
        let mut s = ExperimentSpec::decentral();
        s.jobs = 10;
        s.machines = 30;
        s.util = 0.6;
        s.stream = true;
        let out = s.run_one(2).unwrap();
        assert!(out.jobs().is_empty(), "streaming retires per-job results");
        assert_eq!(out.report().digest.count(), 10);
        assert!(out.mean_duration_ms() > 0.0);
        let hw = out.report().live_high_water;
        assert!((1..=10).contains(&hw));

        // Same seed, materialized: identical counters and mean.
        s.stream = false;
        let mat = s.run_one(2).unwrap();
        assert_eq!(mat.report().core, out.report().core);
        assert_eq!(
            mat.report().digest.mean_ms().to_bits(),
            out.report().digest.mean_ms().to_bits()
        );
    }

    #[test]
    fn rate_keys_round_trip_and_map() {
        let text = "\
rate_profile=diurnal
rate_period_ms=600000
burst_rate=6
burst_mult=3
burst_len_ms=30000
";
        let s = ExperimentSpec::parse(text).unwrap();
        let again = ExperimentSpec::parse(&s.render()).unwrap();
        assert_eq!(s, again);
        assert_eq!(
            s.rate(),
            RateProfile::diurnal(600_000).with_bursts(6.0, 3.0, 30_000)
        );
        // The default spec carries the stationary profile.
        let d = ExperimentSpec::central();
        assert_eq!(d.rate(), RateProfile::Constant);
        assert!(d.render().contains("rate_profile=constant\n"));
        assert!(d.render().contains("burst_rate=0\n"));
        // Bursts layer onto a constant base too.
        let s = ExperimentSpec::parse("burst_rate=2\n").unwrap();
        assert_eq!(
            s.rate(),
            RateProfile::constant().with_bursts(2.0, 4.0, 60_000)
        );
    }

    #[test]
    fn rate_values_are_validated() {
        let e = ExperimentSpec::parse("rate_profile=sinusoid\n").unwrap_err();
        assert!(e.0.contains("rate_profile"), "{e}");
        let e = ExperimentSpec::parse("burst_rate=-1\n").unwrap_err();
        assert!(e.0.contains("burst_rate"), "{e}");
        // Profile invariants surface through validate(): mult < 1 and
        // hour-tiling windows are rejected.
        let e = ExperimentSpec::parse("burst_rate=2\nburst_mult=0.5\n").unwrap_err();
        assert!(e.0.contains("mult"), "{e}");
        let e = ExperimentSpec::parse("burst_rate=60\nburst_len_ms=60000\n").unwrap_err();
        assert!(e.0.contains("hour"), "{e}");
        // burst_mult alone is inert (burst_rate=0 builds no burst layer).
        assert!(ExperimentSpec::parse("burst_mult=0.5\n").is_ok());
    }

    #[test]
    fn replay_key_round_trips_and_is_exclusive() {
        let s = ExperimentSpec::parse("replay=trace.csv\n").unwrap();
        assert_eq!(s.replay.as_deref(), Some("trace.csv"));
        let again = ExperimentSpec::parse(&s.render()).unwrap();
        assert_eq!(s, again);
        assert!(ExperimentSpec::central().render().contains("replay=none\n"));
        // Replay fixes the arrival process.
        let e = ExperimentSpec::parse("replay=t.csv\nrate_profile=diurnal\n").unwrap_err();
        assert!(e.0.contains("rate_profile=constant"), "{e}");
        let e = ExperimentSpec::parse("replay=t.csv\nburst_rate=2\n").unwrap_err();
        assert!(e.0.contains("burst_rate"), "{e}");
        let e = ExperimentSpec::parse("replay=t.csv\nmax_jobs=5\n").unwrap_err();
        assert!(e.0.contains("max_jobs"), "{e}");
        // A missing file errors at run time with the path in the message.
        let e = s.run_one(1).err().expect("missing replay file must error");
        assert!(e.0.contains("trace.csv"), "{e}");
    }

    #[test]
    fn diurnal_run_one_completes_and_differs_from_constant() {
        let mut s = ExperimentSpec::central();
        s.policy = "srpt".into();
        s.jobs = 20;
        s.machines = 10;
        s.util = 0.6;
        let stationary = s.run_one(7).unwrap();
        s.rate_profile = "diurnal".into();
        let diurnal = s.run_one(7).unwrap();
        assert_eq!(diurnal.jobs().len(), 20);
        // Same jobs, same total work — only the arrival spacing moved.
        let t_const = {
            s.rate_profile = "constant".into();
            s.trace(7)
        };
        s.rate_profile = "diurnal".into();
        let t_diur = s.trace(7);
        assert_eq!(t_const.len(), t_diur.len());
        for (a, b) in t_const.jobs.iter().zip(&t_diur.jobs) {
            assert_eq!(a.total_work_ms(), b.total_work_ms());
        }
        assert_ne!(
            stationary.report().core,
            diurnal.report().core,
            "a diurnal curve should actually change the run"
        );
    }

    /// `run_one` is the driver run on the spec's own config and trace, for
    /// both engines: identical jobs and report, with telemetry off unless
    /// the spec asks for a window.
    #[test]
    fn run_one_is_the_driver_run_on_the_built_config() {
        let mut c = ExperimentSpec::central();
        c.jobs = 12;
        c.machines = 10;
        c.util = 0.6;
        let (policy, cfg) = c.central_config(4).unwrap();
        let raw = hopper_central::run(&c.trace(4), &policy, &cfg);
        let out = c.run_one(4).unwrap();
        assert_eq!(out.jobs(), raw.jobs.as_slice());
        assert_eq!(out.report(), &raw.report);
        assert_eq!(raw.jobs.len(), 12);
        assert!(out.report().core.events > 0);
        assert!(
            raw.report.telemetry.is_none(),
            "telemetry is off by default"
        );
        assert!(out.mean_duration_ms() > 0.0);
        assert!(out.percentile_duration_ms(0.0) <= out.percentile_duration_ms(1.0));

        let mut d = ExperimentSpec::decentral();
        d.jobs = 12;
        d.machines = 30;
        d.util = 0.6;
        d.telemetry_window_ms = 500;
        let (policy, cfg) = d.decentral_config(4).unwrap();
        let raw = hopper_decentral::run(&d.trace(4), policy, &cfg);
        let out = d.run_one(4).unwrap();
        assert_eq!(out.jobs(), raw.jobs.as_slice());
        assert_eq!(out.report(), &raw.report);
        assert_eq!(raw.jobs.len(), 12);
        assert!(out.report().core.events > 0);
        assert!(raw.report.telemetry.is_some());
        assert!(out.mean_duration_ms() > 0.0);
        assert!(out.percentile_duration_ms(0.0) <= out.percentile_duration_ms(1.0));

        // Each builder serves only its own engine.
        let e = c.decentral_config(4).unwrap_err();
        assert!(e.0.contains("needs engine=decentral"), "{e}");
        assert!(d.central_config(4).is_err());
    }

    /// A run's report carries the driver's own counters: its core is the
    /// driver stats flattened, and its digest holds every job.
    #[test]
    fn run_one_report_matches_driver_stats() {
        let mut c = ExperimentSpec::central();
        c.policy = "srpt".into();
        c.jobs = 12;
        c.machines = 10;
        c.util = 0.6;
        let (policy, cfg) = c.central_config(9).unwrap();
        let raw = hopper_central::run(&c.trace(9), &policy, &cfg);
        let core = &raw.report.core;
        assert_eq!(*core, raw.stats.core());
        assert_eq!(core.events, raw.stats.events);
        assert_eq!(core.spec_launched, raw.stats.spec_launched);
        assert_eq!(core.makespan, raw.stats.makespan);
        assert_eq!(core.messages, 0, "central driver has no network");
        assert_eq!(raw.report.digest.count() as usize, 12);

        let mut d = ExperimentSpec::decentral();
        d.jobs = 12;
        d.machines = 30;
        d.util = 0.6;
        let (policy, cfg) = d.decentral_config(9).unwrap();
        let raw = hopper_decentral::run(&d.trace(9), policy, &cfg);
        assert_eq!(raw.report.core, raw.stats.core());
        assert_eq!(raw.report.digest.count() as usize, 12);
    }

    #[test]
    fn run_one_executes_both_engines() {
        let mut c = ExperimentSpec::central();
        c.jobs = 8;
        c.machines = 10;
        c.util = 0.6;
        let out = c.run_one(3).unwrap();
        assert_eq!(out.jobs().len(), 8);

        let mut d = ExperimentSpec::decentral();
        d.jobs = 8;
        d.machines = 30;
        d.util = 0.6;
        let out = d.run_one(3).unwrap();
        assert_eq!(out.jobs().len(), 8);
        assert!(
            out.report().core.messages > 0,
            "decentral runs send messages"
        );
    }
}
