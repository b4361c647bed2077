//! Centralized scheduling policies.
//!
//! The baselines mirror §3 and §7.4 of the paper:
//!
//! - [`Policy::Fifo`] — jobs served in arrival order;
//! - [`Policy::Fair`] — equal instantaneous shares (the "perfectly fair"
//!   reference of Figure 10);
//! - [`Policy::Srpt`] — fewest-remaining-tasks first, the paper's
//!   aggressive centralized baseline ("centralized SRPT + LATE");
//! - [`Policy::BudgetedSrpt`] — the §3 "budgeted speculation" strawman: a
//!   fixed pool of slots is reserved exclusively for speculative copies;
//! - [`Policy::Hopper`] — the paper's contribution: allocation by virtual
//!   sizes with the two-regime rule, slot-holding for anticipated
//!   speculation, ε-fairness, DAG weighting, and the k% locality
//!   relaxation.
//!
//! All policies run *best-effort speculation* (§3): a job uses a granted
//! slot for a pending original first and only then for a speculative copy
//! — except Hopper, whose virtual-size allocation is precisely what makes
//! room for prompt speculation, and BudgetedSrpt, whose reserved pool only
//! accepts speculative copies.

use hopper_core::AllocConfig;

/// Configuration of the centralized Hopper policy.
#[derive(Debug, Clone)]
pub struct HopperConfig {
    /// Allocation knobs (fairness ε, useful-slot cap).
    pub alloc: AllocConfig,
    /// Locality relaxation `k` in percent (§4.4): when the highest-priority
    /// job would launch non-locally, any of the smallest `k%` of jobs with
    /// a data-local task may take the slot instead. 0 disables.
    pub locality_relax_pct: f64,
    /// Use the online Pareto-MLE β estimate instead of per-job trace β.
    pub learn_beta: bool,
    /// Use the recurring-job α prediction instead of ground-truth
    /// intermediate data sizes.
    pub learn_alpha: bool,
    /// Apply the √α DAG weighting at all (ablation knob; §4.2).
    pub use_alpha: bool,
    /// Bounded-staleness reallocation threshold. `0.0` (the default) is
    /// the exact eager schedule: every demand change reallocates before
    /// the next dispatch. A positive value keeps the previous allocation
    /// while the approximate total virtual size stays within
    /// `realloc_drift` (relative) of its value at the last reallocation;
    /// arrivals and removals always force a fresh allocation, and
    /// same-instant events batch into one allocation pass. Dodoor-style
    /// stale load views: cheaper decisions, slightly stale targets.
    pub realloc_drift: f64,
}

impl Default for HopperConfig {
    fn default() -> Self {
        HopperConfig {
            alloc: AllocConfig::default(),
            locality_relax_pct: 3.0,
            learn_beta: true,
            learn_alpha: true,
            use_alpha: true,
            realloc_drift: 0.0,
        }
    }
}

impl HopperConfig {
    /// The paper's pure-guidelines configuration (no fairness floor),
    /// used by the §3 motivating example.
    pub fn pure() -> Self {
        HopperConfig {
            alloc: AllocConfig::no_fairness(),
            locality_relax_pct: 0.0,
            learn_beta: false,
            learn_alpha: false,
            use_alpha: true,
            realloc_drift: 0.0,
        }
    }
}

/// A centralized scheduling policy.
#[derive(Debug, Clone)]
pub enum Policy {
    /// Arrival order.
    Fifo,
    /// Equal instantaneous sharing.
    Fair,
    /// Shortest Remaining Processing Time (by remaining task count).
    Srpt,
    /// SRPT plus a fixed reserved pool for speculative copies (§3
    /// strawman). `budget_fraction` of total slots is speculation-only.
    BudgetedSrpt {
        /// Fraction of cluster slots reserved for speculation.
        budget_fraction: f64,
    },
    /// Speculation-aware scheduling (the paper's contribution).
    Hopper(HopperConfig),
}

impl Policy {
    /// Display name for experiment tables.
    pub fn name(&self) -> &'static str {
        match self {
            Policy::Fifo => "FIFO",
            Policy::Fair => "Fair",
            Policy::Srpt => "SRPT",
            Policy::BudgetedSrpt { .. } => "Budgeted-SRPT",
            Policy::Hopper(_) => "Hopper",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_holding() {
        assert_eq!(Policy::Fifo.name(), "FIFO");
        assert_eq!(Policy::Srpt.name(), "SRPT");
        assert_eq!(
            Policy::BudgetedSrpt {
                budget_fraction: 0.3
            }
            .name(),
            "Budgeted-SRPT"
        );
    }

    #[test]
    fn pure_config_disables_fairness_and_learning() {
        let c = HopperConfig::pure();
        assert_eq!(c.alloc.fairness_eps, 1.0);
        assert!(!c.learn_beta && !c.learn_alpha);
        assert_eq!(c.locality_relax_pct, 0.0);
    }
}
