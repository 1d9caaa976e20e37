//! Table 4: SpotVerse vs the SkyPilot-like cheapest-price baseline — 40
//! standard general workloads, 10–11 hours each.

use std::sync::Arc;

use bio_workloads::WorkloadKind;
use cloud_market::{InstanceType, SpotMarket};
use spotverse::{
    compare, run_fleet_on, SkyPilotStrategy, SpotVerseConfig, SpotVerseStrategy,
};
use spotverse_bench::{bench_config, bench_fleet, header, hours, paper_vs_measured, section, BENCH_SEED};

fn main() {
    header(
        "Table 4 — SpotVerse vs SkyPilot: interruptions, cost, completion time",
        "paper §5.2.5, Table 4",
    );
    let config = bench_config(
        BENCH_SEED,
        InstanceType::M5Xlarge,
        bench_fleet(WorkloadKind::StandardGeneral, 40, BENCH_SEED),
        1,
    );
    let market = Arc::new(SpotMarket::new(config.market));

    let spotverse = run_fleet_on(
        Arc::clone(&market),
        config.clone(),
        Box::new(SpotVerseStrategy::new(SpotVerseConfig::paper_default(
            InstanceType::M5Xlarge,
        ))),
    )
    .aggregate;
    let skypilot = run_fleet_on(
        Arc::clone(&market),
        config,
        Box::new(SkyPilotStrategy::new()),
    )
    .aggregate;

    section("table 4");
    paper_vs_measured("SpotVerse interruptions", "42", &spotverse.interruptions.to_string());
    paper_vs_measured("SkyPilot interruptions", "129", &skypilot.interruptions.to_string());
    paper_vs_measured("SpotVerse cost", "$36.73", &spotverse.cost.total.to_string());
    paper_vs_measured("SkyPilot cost", "$74.76", &skypilot.cost.total.to_string());
    paper_vs_measured(
        "SpotVerse completion time",
        "12.3 h",
        &hours(spotverse.makespan.as_hours_f64()),
    );
    paper_vs_measured(
        "SkyPilot completion time",
        "30.9 h",
        &hours(skypilot.makespan.as_hours_f64()),
    );

    let delta = compare(&skypilot, &spotverse);
    section("reductions (SpotVerse vs SkyPilot)");
    paper_vs_measured("cost reduction", "51%", &format!("{:.0}%", delta.cost_reduction_pct));
    paper_vs_measured(
        "completion-time reduction",
        "60%",
        &format!("{:.0}%", delta.time_reduction_pct),
    );
    paper_vs_measured(
        "interruption reduction",
        "67%",
        &format!("{:.0}%", delta.interruption_reduction_pct),
    );

    section("shape checks");
    let wins = spotverse.interruptions < skypilot.interruptions
        && spotverse.cost.total < skypilot.cost.total
        && spotverse.makespan < skypilot.makespan;
    println!("  SpotVerse beats SkyPilot on all three metrics: {wins}");
    println!(
        "  SkyPilot launch regions (price-chasing): {:?}",
        skypilot
            .launches_by_region
            .iter()
            .map(|(r, n)| format!("{}:{n}", r.name()))
            .collect::<Vec<_>>()
    );
    println!(
        "  SpotVerse launch regions (score-aware):  {:?}",
        spotverse
            .launches_by_region
            .iter()
            .map(|(r, n)| format!("{}:{n}", r.name()))
            .collect::<Vec<_>>()
    );
}
