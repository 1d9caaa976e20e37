//! Explore SpotVerse's threshold knob (paper §5.2.4): sweep the combined-
//! score threshold and watch the cost/reliability trade-off move, including
//! the on-demand fallback when the threshold is unreachable.
//!
//! ```text
//! cargo run --release -p spotverse-examples --bin threshold_tuning
//! ```

use std::sync::Arc;

use bio_workloads::{paper_fleet, WorkloadKind};
use cloud_market::{InstanceType, SpotMarket};
use sim_kernel::{SimDuration, SimRng, SimTime};
use spotverse::{
    normalized_cost, run_fleet_on, FleetConfig, OnDemandStrategy, SpotVerseConfig,
    SpotVerseStrategy,
};

fn main() {
    let seed = 7_777;
    let instance_type = InstanceType::M5Xlarge;
    let rng = SimRng::seed_from_u64(seed);
    let fleet = paper_fleet(WorkloadKind::StandardGeneral, 20, &rng);
    let mut config = FleetConfig::staggered(seed, instance_type, fleet, SimDuration::ZERO);
    config.start = SimTime::from_days(60);
    let market = Arc::new(SpotMarket::new(config.market));

    // The on-demand reference everything is normalized against.
    let od = run_fleet_on(
        Arc::clone(&market),
        config.clone(),
        Box::new(OnDemandStrategy::new()),
    )
    .aggregate;
    println!(
        "on-demand reference: {} for {} workloads\n",
        od.cost.total, od.workloads
    );
    println!(
        "{:<10} {:>14} {:>14} {:>12} {:>10} {:>18}",
        "threshold", "interruptions", "makespan (h)", "cost", "norm.", "placements"
    );

    for threshold in [2u8, 4, 5, 6, 8, 11, 13] {
        let strategy = SpotVerseStrategy::new(
            SpotVerseConfig::builder(instance_type)
                .threshold(threshold)
                .build(),
        );
        let report =
            run_fleet_on(Arc::clone(&market), config.clone(), Box::new(strategy)).aggregate;
        let on_demand_used = report.cost.on_demand_instances > cloud_market::Usd::ZERO;
        println!(
            "{:<10} {:>14} {:>14.1} {:>12} {:>10.2} {:>18}",
            threshold,
            report.interruptions,
            report.makespan.as_hours_f64(),
            report.cost.total.to_string(),
            normalized_cost(&report, od.cost.total),
            if on_demand_used {
                "on-demand fallback"
            } else {
                "spot"
            },
        );
    }

    println!("\nreading the sweep:");
    println!("  low thresholds chase the cheapest (least stable) regions — more interruptions;");
    println!("  mid thresholds (the paper's 5-6) balance price and stability;");
    println!("  unreachable thresholds trigger the cheapest-on-demand fallback (norm. ≈ 1).");
}
