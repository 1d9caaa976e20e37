//! Distributed sweep orchestration: fault-free equivalence with the
//! in-process sweep engine, and exactly-once-or-dead-lettered accounting
//! under the `sweep_shard_chaos` scenario.

use bio_workloads::{paper_fleet, WorkloadKind};
use cloud_market::InstanceType;
use sim_kernel::{SimDuration, SimRng};
use spotverse::{
    merged_fleet_trace_jsonl, run_fleet_matrix, run_matrix_orchestrated, FleetCellOutcome,
    FleetConfig, FleetSweepCell, LoadProfile, MarketCache, OrchestratorConfig, TraceConfig,
};
use spotverse_integration::{fleet_config, spotverse_strategy, traced_config};

fn cells(n: usize, traced: bool) -> Vec<FleetSweepCell> {
    (0..n)
        .map(|i| {
            let seed = 90 + i as u64;
            let config = if traced {
                traced_config(WorkloadKind::NgsPreprocessing, 2, seed)
            } else {
                fleet_config(WorkloadKind::NgsPreprocessing, 2, seed)
            };
            FleetSweepCell::new(format!("cell-{i}"), "spotverse", config)
        })
        .collect()
}

/// Fleet-shaped cells, both traced: four arrivals five minutes apart
/// contending for a one-instance-per-region cap, and a small generated
/// Poisson fleet.
fn fleet_cells() -> Vec<FleetSweepCell> {
    let rng = SimRng::seed_from_u64(96);
    let mut capped = FleetConfig::staggered(
        96,
        InstanceType::M5Xlarge,
        paper_fleet(WorkloadKind::NgsPreprocessing, 4, &rng),
        SimDuration::from_mins(5),
    );
    capped.region_capacity = Some(1);
    capped.trace = TraceConfig::enabled();
    let mut poisson = LoadProfile::poisson(30.0).generate(97, 4, InstanceType::M5Xlarge);
    poisson.trace = TraceConfig::enabled();
    vec![
        FleetSweepCell::new("fleet/capped", "spotverse", capped),
        FleetSweepCell::new("fleet/poisson", "spotverse", poisson),
    ]
}

/// Fault-free, the orchestrated sweep is byte-identical to
/// `run_fleet_matrix` — for experiment-shaped and fleet-shaped cells
/// alike: same outcomes, same merged trace, no re-drives or duplicates.
#[test]
fn fault_free_orchestration_is_byte_identical_to_in_process() {
    let mut cells = cells(4, true);
    cells.extend(fleet_cells());
    let cache = MarketCache::new();
    let inprocess = run_fleet_matrix(&cells, 2, &cache, |_| spotverse_strategy());
    assert!(inprocess.iter().all(FleetCellOutcome::is_ok), "every cell runs");
    let capped = inprocess[4].report().expect("capped fleet cell runs");
    assert!(capped.capacity_deferrals > 0, "the cap must bind on the staggered fleet");
    let merged = merged_fleet_trace_jsonl(&inprocess);
    for label in ["fleet/capped", "fleet/poisson"] {
        assert!(merged.contains(&format!("{{\"cell\":\"{label}\"")), "{label} traced");
    }
    for shard_size in [1, 2] {
        let config = OrchestratorConfig { shard_size, ..OrchestratorConfig::default() };
        let report = run_matrix_orchestrated(&cells, &config, &cache, |_| spotverse_strategy());
        assert_eq!(report.outcomes, inprocess, "shard_size {shard_size}: outcomes byte-identical");
        assert_eq!(
            merged_fleet_trace_jsonl(&report.outcomes),
            merged,
            "shard_size {shard_size}: merged JSONL traces must be byte-identical"
        );
        let shards = cells.len().div_ceil(shard_size);
        assert!(report.dead_letters.is_empty());
        assert_eq!(report.stats.shards, shards);
        assert_eq!(report.stats.completed_shards, shards);
        assert_eq!(report.stats.dispatches, shards as u64);
        assert_eq!(report.stats.redrives, 0);
        assert_eq!(report.stats.lease_expiries, 0);
        assert_eq!(report.stats.duplicate_executions, 0);
        assert_eq!(report.stats.bus_lost, 0);
        assert_eq!(report.stats.bus_duplicated, 0);
    }
}

/// Under `sweep_shard_chaos` (lost and duplicated dispatches, throttled
/// services) every cell is either completed exactly once or dead-lettered
/// with its full attempt history — no hangs, no duplicates, no silently
/// lost cells — and completed cells are byte-identical to the fault-free
/// run. Deterministic: the assertion sweep scans seeds and requires that
/// both fates actually occur.
#[test]
fn sweep_shard_chaos_completes_or_dead_letters_every_cell() {
    let cells = cells(6, false);
    let cache = MarketCache::new();
    let fault_free = run_fleet_matrix(&cells, 2, &cache, |_| spotverse_strategy());
    let mut saw_dead_letter = false;
    let mut saw_completion = false;
    for seed in 0..12u64 {
        let config = OrchestratorConfig {
            seed,
            max_attempts: 2,
            chaos: Some(chaos::sweep_shard_chaos()),
            trace: TraceConfig::enabled(),
            ..OrchestratorConfig::default()
        };
        let report = run_matrix_orchestrated(&cells, &config, &cache, |_| spotverse_strategy());

        // Every cell accounted for, in input order, exactly once.
        assert_eq!(report.outcomes.len(), cells.len(), "seed {seed}: no lost cells");
        for (outcome, cell) in report.outcomes.iter().zip(&cells) {
            assert_eq!(outcome.label, cell.label, "seed {seed}: cell order preserved");
        }
        let dead_labels: Vec<&str> = report
            .dead_letters
            .iter()
            .flat_map(|dl| dl.labels.iter().map(String::as_str))
            .collect();
        for (outcome, baseline) in report.outcomes.iter().zip(&fault_free) {
            if dead_labels.contains(&outcome.label.as_str()) {
                let err = outcome.result.as_ref().expect_err("dead-lettered cell fails");
                assert!(err.contains("dead-lettered"), "seed {seed}: {err}");
                saw_dead_letter = true;
            } else {
                assert_eq!(
                    outcome, baseline,
                    "seed {seed}: completed cells are byte-identical to fault-free"
                );
                saw_completion = true;
            }
        }

        // Dead letters carry the full attempt history.
        for dl in &report.dead_letters {
            assert_eq!(
                dl.attempts.len(),
                config.max_attempts as usize,
                "seed {seed}: every attempt recorded"
            );
            for (i, attempt) in dl.attempts.iter().enumerate() {
                assert_eq!(attempt.attempt, i as u32 + 1, "seed {seed}: attempts in order");
                assert!(!attempt.failure.is_empty());
            }
        }

        // Stats reconcile with the report and the orchestration trace.
        let s = &report.stats;
        assert_eq!(s.completed_shards + s.dead_lettered_shards, s.shards, "seed {seed}");
        assert_eq!(s.dead_lettered_shards, report.dead_letters.len(), "seed {seed}");
        assert!(s.dispatches >= s.shards as u64, "seed {seed}: every shard dispatched");
        let trace = report.trace.as_ref().expect("orchestration tracing enabled");
        let count = |label: &str| {
            trace.events.iter().filter(|r| r.event.label() == label).count() as u64
        };
        assert_eq!(count("shard_dispatched"), s.dispatches, "seed {seed}");
        assert_eq!(count("shard_redriven"), s.redrives, "seed {seed}");
        assert_eq!(count("lease_expired"), s.lease_expiries, "seed {seed}");
        assert_eq!(
            count("shard_dead_lettered"),
            s.dead_lettered_shards as u64,
            "seed {seed}"
        );
        assert_eq!(
            count("shard_completed"),
            s.completed_shards as u64 + s.duplicate_executions,
            "seed {seed}: one completion per shard plus idempotent duplicates"
        );
    }
    assert!(saw_dead_letter, "chaos sweep never produced a dead letter");
    assert!(saw_completion, "chaos sweep never completed a cell");
}

/// The orchestrated sweep is deterministic under chaos: same cells, same
/// config, byte-identical report.
#[test]
fn orchestrated_chaos_sweep_is_deterministic() {
    let cells = cells(3, false);
    let cache = MarketCache::new();
    let config = OrchestratorConfig {
        max_attempts: 2,
        chaos: Some(chaos::sweep_shard_chaos()),
        trace: TraceConfig::enabled(),
        ..OrchestratorConfig::default()
    };
    let a = run_matrix_orchestrated(&cells, &config, &cache, |_| spotverse_strategy());
    let b = run_matrix_orchestrated(&cells, &config, &cache, |_| spotverse_strategy());
    assert_eq!(a.outcomes, b.outcomes);
    assert_eq!(a.dead_letters, b.dead_letters);
    assert_eq!(a.stats, b.stats);
    let ta = a.trace.expect("traced");
    let tb = b.trace.expect("traced");
    assert_eq!(ta.events.len(), tb.events.len());
    for (ra, rb) in ta.events.iter().zip(tb.events.iter()) {
        assert_eq!(ra.at, rb.at);
        assert_eq!(ra.event.label(), rb.event.label());
    }
}
