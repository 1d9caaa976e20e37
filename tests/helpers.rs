//! Shared helpers for integration tests.
//!
//! The scaffolding every suite kept re-declaring — paper-shaped fleet
//! configs, the default SpotVerse strategy, and the run-on-shared-market
//! harness — lives here once. Tests import it as `spotverse_integration`.

use std::sync::Arc;

use bio_workloads::{paper_fleet, WorkloadKind};
use chaos::ChaosScenario;
use cloud_market::{InstanceType, SpotMarket};
use sim_kernel::{SimDuration, SimRng};
use spotverse::{
    run_fleet_on, ExperimentReport, FleetConfig, SpotVerseConfig, SpotVerseStrategy, Strategy,
    TraceConfig,
};

/// A paper-shaped fleet configuration: `n` workloads of `kind` at `seed`,
/// all arriving at the start, on the default market and instance type
/// (m5.xlarge).
pub fn fleet_config(kind: WorkloadKind, n: usize, seed: u64) -> FleetConfig {
    let rng = SimRng::seed_from_u64(seed);
    let specs = paper_fleet(kind, n, &rng);
    FleetConfig::staggered(seed, InstanceType::M5Xlarge, specs, SimDuration::ZERO)
}

/// [`fleet_config`] with the decision-trace recorder switched on.
pub fn traced_config(kind: WorkloadKind, n: usize, seed: u64) -> FleetConfig {
    let mut config = fleet_config(kind, n, seed);
    config.trace = TraceConfig::enabled();
    config
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
    base: &FleetConfig,
    scenario: Option<ChaosScenario>,
    strategy: Box<dyn Strategy>,
) -> ExperimentReport {
    let mut cfg = base.clone();
    cfg.chaos = scenario;
    run_fleet_on(Arc::clone(market), cfg, strategy).aggregate
}
