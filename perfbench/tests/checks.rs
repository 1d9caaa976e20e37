//! Every output check passes on a clean op and trips on corrupted input.

use std::sync::Arc;

use bio_workloads::{paper_fleet, WorkloadKind};
use cloud_market::{MarketRegime, SpotMarket, Usd};
use sim_kernel::{SimDuration, SimRng};
use spotverse::{run_fleet, FleetConfig, TournamentChaos, TournamentConfig};
use spotverse_perfbench::checks::{
    check_cells, check_fleet, check_same, check_tournament, fleet_digest, reconcile, Tally,
};
use spotverse_perfbench::spans::{Trace, OP};
use spotverse_perfbench::strategies::{self, INSTANCE_TYPE};
use spotverse_perfbench::workloads::{compose_tournament, Output, TournamentOutput};

fn small_fleet(seed: u64) -> FleetConfig {
    let rng = SimRng::seed_from_u64(seed);
    let specs = paper_fleet(WorkloadKind::NgsPreprocessing, 4, &rng);
    FleetConfig::staggered(seed, INSTANCE_TYPE, specs, SimDuration::from_hours(2))
}

/// A 2-strategy × 2-regime tournament run through the composed pipeline.
fn tournament() -> TournamentOutput {
    let mut config = TournamentConfig::new(
        vec!["spotverse".to_owned(), "skypilot".to_owned()],
        vec![MarketRegime::Baseline, MarketRegime::CapacityCrunch],
        1,
        small_fleet(7),
    );
    config.chaos = TournamentChaos::RegimeMatched;
    let trace = Arc::new(Trace::new());
    let root = trace.open(OP, None);
    compose_tournament(config, &trace, root.id())
}

#[test]
fn fleet_check_trips_when_workloads_go_missing() {
    let mut report = run_fleet(small_fleet(3), strategies::build("spotverse"));
    check_fleet(&report, 4).unwrap();
    assert!(check_fleet(&report, 5).is_err(), "wrong fleet size");
    report.aggregate.completed -= 1;
    assert!(
        check_fleet(&report, 4).is_err(),
        "a workload neither completed nor expired"
    );
}

#[test]
fn digest_check_trips_when_a_rerun_differs() {
    let report = run_fleet(small_fleet(3), strategies::build("spotverse"));
    let again = run_fleet(small_fleet(3), strategies::build("spotverse"));
    check_same(0, &fleet_digest(&report), &fleet_digest(&again)).unwrap();
    let mut cheaper = again.clone();
    cheaper.aggregate.cost.total = report.aggregate.cost.total.saturating_sub(Usd::new(0.01));
    assert!(
        check_same(0, &fleet_digest(&report), &fleet_digest(&cheaper)).is_err(),
        "a cent"
    );
    let mut busier = again;
    busier.events += 1;
    assert!(
        check_same(0, &fleet_digest(&report), &fleet_digest(&busier)).is_err(),
        "an event"
    );
}

#[test]
fn tournament_checks_pass_on_a_clean_run() {
    let out = tournament();
    let checked = check_tournament(&out).unwrap();
    assert_eq!(checked.finished, 4 * 4);
    assert_eq!(checked.counts["sweep.cells"], 4.0);
    assert_eq!(checked.counts["trace.dropped"], 0.0);
}

#[test]
fn tournament_check_trips_on_failed_cells_and_bad_ranks() {
    let mut out = tournament();
    out.report.failed.push("spotverse@baseline/s7".to_owned());
    assert!(check_tournament(&out).unwrap_err().contains("failed cells"));

    let mut out = tournament();
    out.report.standings[1].rows[0].rank = 2;
    assert!(check_tournament(&out).unwrap_err().contains("ranked"));

    let mut out = tournament();
    out.report.standings[0].rows.pop();
    assert!(check_tournament(&out).unwrap_err().contains("rows"));
}

#[test]
fn leaderboard_check_trips_when_the_rendering_differs() {
    let out = tournament();
    let again = tournament();
    check_same(0, &out.rendered, &again.rendered).unwrap();
    let altered = again.rendered.replacen("completed", "completed ", 1);
    assert!(check_same(0, &out.rendered, &altered).is_err());
}

#[test]
fn cell_check_trips_on_dropped_trace_records() {
    let mut out = tournament();
    let cells = out.cells.as_mut().unwrap();
    let report = cells.outcomes[2].result.as_mut().unwrap();
    report.aggregate.trace.as_mut().unwrap().dropped = 1;
    assert!(check_cells(cells, 2).unwrap_err().contains("dropped 1"));
}

#[test]
fn cell_check_trips_when_replay_disagrees_with_the_report() {
    let out = tournament();
    let cells = out.cells.as_ref().unwrap();
    let replayed = &cells.replays[0].cells[0].1;
    let live = cells.outcomes[0].report().unwrap();
    reconcile(replayed, live).unwrap();

    let mut report = live.clone();
    report.aggregate.interruptions += 1;
    assert!(reconcile(replayed, &report)
        .unwrap_err()
        .contains("interruptions"));
    let mut report = live.clone();
    report.aggregate.completed -= 1;
    assert!(reconcile(replayed, &report)
        .unwrap_err()
        .contains("completions"));
    let mut report = live.clone();
    report.expired += 1;
    assert!(reconcile(replayed, &report)
        .unwrap_err()
        .contains("expiries"));
    let mut report = live.clone();
    report.aggregate.resilience.breaker_trips += 1;
    assert!(reconcile(replayed, &report)
        .unwrap_err()
        .contains("breaker"));

    let mut out = tournament();
    let cells = out.cells.as_mut().unwrap();
    cells.replays[1].cells.clear();
    assert!(check_cells(cells, 2).unwrap_err().contains("missing"));
}

#[test]
fn tally_counts_panics_and_changed_reruns_as_failures() {
    let mut tally = Tally::default();
    let panicked = std::panic::catch_unwind(|| -> Output { panic!("beyond the market horizon") });
    assert!(tally.settle(0, panicked).unwrap_err().contains("horizon"));

    let run = |events: u64| {
        let mut report = run_fleet(small_fleet(3), strategies::build("spotverse"));
        report.events += events;
        let market = Arc::new(SpotMarket::new(small_fleet(3).market));
        Output::Fleets(vec![(report, market, 4)])
    };
    tally.settle(1, Ok(run(0))).unwrap();
    tally.settle(1, Ok(run(0))).unwrap();
    assert!(tally.settle(1, Ok(run(1))).unwrap_err().contains("differs"));
    assert_eq!((tally.attempted, tally.failed), (4, 2));
}
