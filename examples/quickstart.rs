//! Quickstart: run the paper's headline experiment (Figure 7) — 40
//! Galaxy-specific standard workloads on m5.xlarge, single-region
//! (ca-central-1) vs. SpotVerse vs. on-demand — and print the comparison.
//!
//! ```text
//! cargo run --release -p spotverse-examples --bin quickstart
//! ```

use std::sync::Arc;

use bio_workloads::{paper_fleet, WorkloadKind};
use cloud_market::{InstanceType, Region, SpotMarket};
use sim_kernel::{SimDuration, SimRng};
use spotverse::{
    compare, run_fleet_on, summary_line, FleetConfig, InitialPlacement,
    OnDemandStrategy, SingleRegionStrategy, SpotVerseConfig, SpotVerseStrategy, Strategy,
};

fn main() {
    let seed = 2024;
    let instance_type = InstanceType::M5Xlarge;
    let rng = SimRng::seed_from_u64(seed);
    let fleet = paper_fleet(WorkloadKind::GenomeReconstruction, 40, &rng);
    let config = FleetConfig::staggered(seed, instance_type, fleet, SimDuration::ZERO);

    // One shared market: every strategy sees the identical price and
    // interruption trajectory.
    let market = Arc::new(SpotMarket::new(config.market));

    let strategies: Vec<Box<dyn Strategy>> = vec![
        Box::new(SingleRegionStrategy::new(Region::CaCentral1)),
        Box::new(SpotVerseStrategy::new(
            SpotVerseConfig::builder(instance_type)
                .initial_placement(InitialPlacement::SingleRegion(Region::CaCentral1))
                .build(),
        )),
        Box::new(OnDemandStrategy::new()),
    ];

    println!("SpotVerse quickstart — 40 standard workloads, m5.xlarge, start ca-central-1\n");
    let mut reports = Vec::new();
    for strategy in strategies {
        let report = run_fleet_on(Arc::clone(&market), config.clone(), strategy).aggregate;
        println!("{}", summary_line(&report));
        reports.push(report);
    }

    let single = &reports[0];
    let spotverse = &reports[1];
    let on_demand = &reports[2];
    let vs_single = compare(single, spotverse);
    let vs_od = compare(on_demand, spotverse);
    println!();
    println!(
        "SpotVerse vs single-region: cost -{:.1}%  time -{:.1}%  interruptions -{:.1}%",
        vs_single.cost_reduction_pct,
        vs_single.time_reduction_pct,
        vs_single.interruption_reduction_pct
    );
    println!(
        "SpotVerse vs on-demand:     cost -{:.1}%  (paper: 46.7% at comparable duration)",
        vs_od.cost_reduction_pct
    );
    println!(
        "\ninterruption regions (SpotVerse): {:?}",
        spotverse.interruptions_by_region
    );
}
