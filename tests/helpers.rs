//! Shared helpers for integration tests.
//!
//! The scaffolding every suite kept re-declaring — paper-shaped fleet
//! configs, the default SpotVerse strategy, and the run-on-shared-market
//! harness — lives here once. Tests import it as `spotverse_integration`.

use std::sync::Arc;

use bio_workloads::{paper_fleet, WorkloadKind};
use chaos::ChaosScenario;
use cloud_market::{InstanceType, SpotMarket};
use sim_kernel::SimRng;
use spotverse::{
    run_experiment_on, ExperimentConfig, ExperimentReport, FleetConfig, FleetSweepCell,
    SpotVerseConfig, SpotVerseStrategy, Strategy, TraceConfig,
};

/// A paper-shaped fleet configuration: `n` workloads of `kind` at `seed`,
/// on the default market and instance type (m5.xlarge).
pub fn fleet_config(kind: WorkloadKind, n: usize, seed: u64) -> ExperimentConfig {
    let rng = SimRng::seed_from_u64(seed);
    ExperimentConfig::new(seed, InstanceType::M5Xlarge, paper_fleet(kind, n, &rng))
}

/// [`fleet_config`] with the decision-trace recorder switched on.
pub fn traced_config(kind: WorkloadKind, n: usize, seed: u64) -> ExperimentConfig {
    let mut config = fleet_config(kind, n, seed);
    config.trace = TraceConfig::enabled();
    config
}

/// A sweep cell running the experiment `config` as a fleet of one.
pub fn experiment_cell(
    label: impl Into<String>,
    strategy: impl Into<String>,
    config: &ExperimentConfig,
) -> FleetSweepCell {
    FleetSweepCell::new(label, strategy, FleetConfig::from_experiment(config))
}

/// The paper-default SpotVerse strategy (threshold 6, m5.xlarge).
pub fn spotverse_strategy() -> Box<dyn Strategy> {
    Box::new(SpotVerseStrategy::new(SpotVerseConfig::paper_default(
        InstanceType::M5Xlarge,
    )))
}

/// SpotVerse at an explicit Algorithm-1 threshold (the Table 3 tiers).
pub fn spotverse_with_threshold(threshold: u8) -> Box<dyn Strategy> {
    Box::new(SpotVerseStrategy::new(
        SpotVerseConfig::builder(InstanceType::M5Xlarge)
            .threshold(threshold)
            .build(),
    ))
}

/// Runs `base` on a shared `market` with an optional chaos scenario —
/// the harness for comparing faulted and fault-free runs of the same
/// market construction.
pub fn run_with(
    market: &Arc<SpotMarket>,
    base: &ExperimentConfig,
    scenario: Option<ChaosScenario>,
    strategy: Box<dyn Strategy>,
) -> ExperimentReport {
    let mut cfg = base.clone();
    cfg.chaos = scenario;
    run_experiment_on(Arc::clone(market), cfg, strategy)
}
