//! Sweep-engine determinism: the concurrency machinery under the sweep
//! engine (lazy market materialization, the bounded worker pool, the
//! shared market cache) must be invisible in the output — bit-identical
//! reports for any worker count, faulted or fault-free.

use bio_workloads::WorkloadKind;
use chaos::ChaosScenario;
use cloud_market::{MarketConfig, MarketRegime, SpotMarket};
use spotverse::{run_fleet_matrix, FleetCellOutcome, FleetSweepCell, MarketCache};
use spotverse_integration::spotverse_strategy;

fn fleet_config(seed: u64, n: usize) -> spotverse::FleetConfig {
    spotverse_integration::fleet_config(WorkloadKind::NgsPreprocessing, n, seed)
}

#[test]
fn lazy_market_construction_matches_eager() {
    for seed in [1, 2024, 0xDEAD] {
        let config = MarketConfig {
            seed,
            horizon_days: 45,
            regime: MarketRegime::Baseline,
        };
        assert_eq!(
            SpotMarket::new(config),
            SpotMarket::new_eager(config),
            "seed {seed}: lazy build must be field-for-field identical"
        );
    }
}

#[test]
fn run_matrix_is_jobs_invariant() {
    // strategy × scenario matrix (incl. fault-free cells), all one seed.
    let base = fleet_config(404, 4);
    let scenarios: Vec<Option<ChaosScenario>> = std::iter::once(None)
        .chain(chaos::library().into_iter().map(Some))
        .collect();
    let cells: Vec<FleetSweepCell> = scenarios
        .iter()
        .enumerate()
        .map(|(i, scenario)| {
            let mut config = base.clone();
            config.chaos = scenario.clone();
            FleetSweepCell::new(format!("cell-{i}"), "spotverse", config)
        })
        .collect();
    let run = |jobs: usize| -> Vec<FleetCellOutcome> {
        let cache = MarketCache::new();
        let outcomes = run_fleet_matrix(&cells, jobs, &cache, |_| spotverse_strategy());
        // Chaos overlays live on the read path: every cell shares the one
        // clean base market, so the whole matrix builds exactly one.
        assert_eq!(cache.misses(), 1, "jobs={jobs}");
        assert_eq!(cache.hits(), cells.len() as u64 - 1, "jobs={jobs}");
        assert!(outcomes.iter().all(FleetCellOutcome::is_ok), "jobs={jobs}");
        outcomes
    };
    let serial = run(1);
    for jobs in [2, 4, 8] {
        assert_eq!(run(jobs), serial, "jobs={jobs} must match jobs=1 exactly");
    }
}

#[test]
fn distinct_seeds_build_distinct_markets() {
    let cells: Vec<FleetSweepCell> = (0..3)
        .map(|i| FleetSweepCell::new(format!("seed-{i}"), "spotverse", fleet_config(100 + i, 2)))
        .collect();
    let cache = MarketCache::new();
    let outcomes = run_fleet_matrix(&cells, 3, &cache, |_| spotverse_strategy());
    assert_eq!(outcomes.len(), 3);
    assert_eq!(cache.misses(), 3, "three seeds, three constructions");
    assert_eq!(cache.hits(), 0);
    let reports: Vec<_> = outcomes.iter().map(|o| &o.report().unwrap().aggregate).collect();
    assert!(
        reports[0] != reports[1] || reports[1] != reports[2],
        "different seeds should not all coincide"
    );
}
