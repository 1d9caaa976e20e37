//! Fault-injection integration: the chaos subsystem driving full
//! experiments, checking that the hardened SpotVerse controller rides
//! through every shipped scenario while naive baselines measurably
//! degrade, and that checkpoint recovery only ever resumes from durable
//! generations.

use std::sync::Arc;

use bio_workloads::WorkloadKind;
use chaos::{
    library, notice_loss, region_blackout, region_flap, telemetry_blackout, ChaosScenario,
    FaultDirective, RegionScope,
};
use cloud_market::{Region, SpotMarket};
use sim_kernel::SimDuration;
use spotverse::{
    resolve_jobs, run_fleet_matrix, FleetSweepCell, MarketCache, NaiveMultiRegionStrategy,
    OnDemandStrategy, ResilienceTelemetry, SingleRegionStrategy, SkyPilotStrategy, Strategy,
};
use spotverse_integration::{fleet_config as config, run_with, spotverse_strategy};

/// Satellite (c): an NGS shard fleet under lost notices *and* a flaky
/// checkpoint store. Zero-second notices tear in-flight checkpoint
/// uploads and corruption invalidates durable ones, yet every resume
/// comes from the newest surviving durable generation: the fleet still
/// completes, and lost progress only ever makes runs *slower* than the
/// fault-free run on the same market.
#[test]
fn ngs_fleet_survives_lost_notices_and_flaky_checkpoints() {
    let base = config(WorkloadKind::NgsPreprocessing, 8, 7);
    let market = Arc::new(SpotMarket::new(base.market));

    let storm = ChaosScenario::new("notice_loss+flaky_checkpoints")
        .with(FaultDirective::NoticeDisruption {
            scope: RegionScope::All,
            from: SimDuration::ZERO,
            until: SimDuration::from_days(60),
            probability: 0.9,
            max_notice: SimDuration::ZERO,
        })
        .with(FaultDirective::CheckpointCorruption {
            from: SimDuration::ZERO,
            until: SimDuration::from_days(60),
            probability: 0.6,
        });

    // Pin to the paper's single-region baseline region so interruptions —
    // and therefore checkpoint write/read traffic — are plentiful.
    let strategy = || Box::new(SingleRegionStrategy::new(Region::CaCentral1));
    let fault_free = run_with(&market, &base, None, strategy());
    let faulted = run_with(&market, &base, Some(storm), strategy());

    assert_eq!(fault_free.completed, 8);
    assert_eq!(faulted.completed, 8, "hardened controller must finish the fleet");

    let t = faulted.checkpoints;
    assert!(t.writes > 0, "interruptions should have triggered checkpoints");
    assert!(t.torn_writes > 0, "0 s notices must tear some uploads: {t:?}");
    assert!(t.corrupt_reads > 0, "corruption must invalidate some reads: {t:?}");
    assert!(t.torn_writes <= t.writes, "telemetry inconsistent: {t:?}");

    // Torn and corrupt checkpoints can only *lose* progress; resuming from
    // a stale-but-durable generation must never let a run finish earlier
    // than the fault-free execution of the identical market.
    assert!(
        faulted.mean_completion >= fault_free.mean_completion,
        "faulted runs finished earlier than fault-free: {:?} < {:?}",
        faulted.mean_completion,
        fault_free.mean_completion
    );
}

/// Acceptance: the hardened SpotVerse strategy completes every workload
/// under every shipped scenario.
#[test]
fn spotverse_completes_all_workloads_under_every_library_scenario() {
    let base = config(WorkloadKind::NgsPreprocessing, 8, 7);
    let market = Arc::new(SpotMarket::new(base.market));
    for scenario in library() {
        let name = scenario.name().to_owned();
        let report = run_with(&market, &base, Some(scenario), spotverse_strategy());
        assert_eq!(
            report.completed, 8,
            "spotverse left workloads unfinished under {name}"
        );
        assert_eq!(report.completion_rate(), 1.0, "{name}");
    }
}

/// Acceptance: at least one baseline measurably degrades where SpotVerse
/// does not. A region blackout in the single-region baseline's home
/// region stretches its makespan by tens of hours; lost notices tear far
/// more of its checkpoints than SpotVerse's.
#[test]
fn baselines_measurably_degrade_where_spotverse_does_not() {
    let base = config(WorkloadKind::NgsPreprocessing, 8, 7);
    let market = Arc::new(SpotMarket::new(base.market));
    let single = || Box::new(SingleRegionStrategy::new(Region::CaCentral1)) as Box<dyn Strategy>;

    // Region blackout: the pinned baseline stalls for the outage window.
    let sr_free = run_with(&market, &base, None, single());
    let sr_blackout = run_with(&market, &base, Some(region_blackout()), single());
    let added = sr_blackout.makespan.as_hours_f64() - sr_free.makespan.as_hours_f64();
    assert!(
        added > 5.0,
        "single-region should stall through the blackout, added only {added:.1} h"
    );

    let sv_free = run_with(&market, &base, None, spotverse_strategy());
    let sv_blackout = run_with(&market, &base, Some(region_blackout()), spotverse_strategy());
    let sv_added = sv_blackout.makespan.as_hours_f64() - sv_free.makespan.as_hours_f64();
    assert!(
        sv_added < added,
        "spotverse ({sv_added:.1} h added) should beat single-region ({added:.1} h added)"
    );

    // Lost notices: the baseline suffers many more torn checkpoints than
    // the multi-region controller, which is interrupted far less often.
    let sr_notice = run_with(&market, &base, Some(notice_loss()), single());
    let sv_notice = run_with(&market, &base, Some(notice_loss()), spotverse_strategy());
    assert_eq!(sr_notice.completed, 8);
    assert_eq!(sv_notice.completed, 8);
    assert!(
        sr_notice.checkpoints.torn_writes > sv_notice.checkpoints.torn_writes,
        "baseline torn={} should exceed spotverse torn={}",
        sr_notice.checkpoints.torn_writes,
        sv_notice.checkpoints.torn_writes
    );
}

/// Determinism contract: identical scenario + identical seed must yield a
/// bit-identical report — same makespan, cost, interruption trace, and
/// checkpoint telemetry.
#[test]
fn identical_scenario_and_seed_reproduce_identical_reports() {
    let base = config(WorkloadKind::NgsPreprocessing, 6, 7);
    let market = Arc::new(SpotMarket::new(base.market));
    for scenario in library() {
        let name = scenario.name().to_owned();
        let a = run_with(&market, &base, Some(scenario.clone()), spotverse_strategy());
        let b = run_with(&market, &base, Some(scenario), spotverse_strategy());
        assert_eq!(a.makespan, b.makespan, "{name}");
        assert_eq!(a.cost.total, b.cost.total, "{name}");
        assert_eq!(a.interruptions, b.interruptions, "{name}");
        assert_eq!(a.interruptions_by_region, b.interruptions_by_region, "{name}");
        assert_eq!(a.checkpoints, b.checkpoints, "{name}");
        assert_eq!(a.resilience, b.resilience, "{name}");
    }
}

/// A scenario attached to the config must not change fault-free substrate
/// behavior outside its windows: an empty scenario is a strict no-op.
#[test]
fn empty_scenario_is_a_no_op() {
    let base = config(WorkloadKind::GenomeReconstruction, 5, 11);
    let market = Arc::new(SpotMarket::new(base.market));
    let plain = run_with(&market, &base, None, spotverse_strategy());
    let empty = run_with(
        &market,
        &base,
        Some(ChaosScenario::new("empty")),
        spotverse_strategy(),
    );
    assert_eq!(plain.makespan, empty.makespan);
    assert_eq!(plain.cost.total, empty.cost.total);
    assert_eq!(plain.interruptions, empty.interruptions);
    assert_eq!(plain.checkpoints, empty.checkpoints);
    assert_eq!(plain.resilience, empty.resilience);
    assert_eq!(
        plain.resilience,
        ResilienceTelemetry::default(),
        "the control plane must stay silent without faults"
    );
}

/// Acceptance: every library scenario × every strategy completes with an
/// Ok report on the panic-isolated sweep engine — no cell may fail, panic,
/// or leave workloads behind.
#[test]
fn every_scenario_yields_ok_reports_for_every_strategy() {
    let base = config(WorkloadKind::NgsPreprocessing, 4, 7);
    let strategies = ["single-region", "naive-multi", "skypilot", "spotverse", "on-demand"];
    let mut cells = Vec::new();
    for name in strategies {
        for scenario in library() {
            let mut cfg = base.clone();
            cfg.chaos = Some(scenario.clone());
            cells.push(FleetSweepCell::new(format!("{name}/{}", scenario.name()), name, cfg));
        }
    }
    let cache = MarketCache::new();
    let jobs = resolve_jobs(None, cells.len());
    let outcomes = run_fleet_matrix(&cells, jobs, &cache, |cell| match cell.strategy.as_str() {
        "single-region" => Box::new(SingleRegionStrategy::new(Region::CaCentral1)),
        "naive-multi" => Box::new(NaiveMultiRegionStrategy::paper_motivational()),
        "skypilot" => Box::new(SkyPilotStrategy::new()),
        "spotverse" => spotverse_strategy(),
        "on-demand" => Box::new(OnDemandStrategy::new()),
        other => unreachable!("unknown strategy {other}"),
    });
    assert_eq!(outcomes.len(), strategies.len() * library().len());
    for outcome in &outcomes {
        let report = &outcome
            .report()
            .unwrap_or_else(|| panic!("cell {} failed: {:?}", outcome.label, outcome.result))
            .aggregate;
        assert_eq!(
            report.completed,
            base.workloads.len(),
            "cell {} left workloads unfinished",
            outcome.label
        );
    }
}

/// The `region_flap` scenario must actually engage the circuit breaker:
/// repeated blackout bursts in a top-tier region strike it into
/// quarantine, and the fleet still completes.
#[test]
fn region_flap_trips_the_circuit_breaker() {
    let base = config(WorkloadKind::GenomeReconstruction, 10, 7);
    let market = Arc::new(SpotMarket::new(base.market));
    let report = run_with(&market, &base, Some(region_flap()), spotverse_strategy());
    assert_eq!(report.completed, 10, "fleet must ride through the flaps");
    assert!(
        report.resilience.breaker_trips > 0,
        "flapping ap-northeast-3 should trip its breaker: {:?}",
        report.resilience
    );
}

/// The `telemetry_blackout` scenario must exercise the staleness path:
/// collections fail throughout the outage and decisions are served from
/// the last good snapshot (or degrade to on-demand past the TTL).
#[test]
fn telemetry_blackout_serves_stale_assessments() {
    let base = config(WorkloadKind::NgsPreprocessing, 8, 7);
    let market = Arc::new(SpotMarket::new(base.market));
    let strategy = Box::new(SingleRegionStrategy::new(Region::CaCentral1));
    let report = run_with(&market, &base, Some(telemetry_blackout()), strategy);
    assert_eq!(report.completed, 8, "fleet must finish despite the outage");
    let f = report.resilience.freshness;
    assert!(f.collection_failures > 0, "the outage must fail collections: {f:?}");
    assert!(
        f.stale_serves > 0 || f.degraded_decisions > 0,
        "decisions during the outage must ride the stale snapshot: {f:?}"
    );
}
