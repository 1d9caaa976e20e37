//! The timing decorator must be invisible to the run it times: for every
//! built-in strategy, a small capped fleet under chaos gives the same
//! report (decision trace included) with and without it.

use std::sync::Arc;

use cloud_market::{MarketRegime, SpotMarket};
use spotverse::{run_fleet_on, FleetConfig, LoadProfile, TraceConfig};
use spotverse_perfbench::spans::{Trace, OP};
use spotverse_perfbench::strategies::{self, TimedStrategy, INSTANCE_TYPE, MODEL, PLACE};

fn capped_fleet_under_chaos(seed: u64) -> FleetConfig {
    let mut config = LoadProfile::poisson(40.0).generate(seed, 60, INSTANCE_TYPE);
    config.market = config.market.with_regime(MarketRegime::CapacityCrunch);
    config.chaos = chaos::for_regime(MarketRegime::CapacityCrunch);
    config.region_capacity = Some(3);
    // Tracing makes the run consult `explain_candidates`, so its
    // forwarding is covered too.
    config.trace = TraceConfig::enabled();
    config
}

#[test]
fn decorated_reports_equal_undecorated_for_every_strategy() {
    for (i, name) in strategies::ALL.iter().enumerate() {
        let config = capped_fleet_under_chaos(40 + i as u64);
        let market = Arc::new(SpotMarket::new(config.market));
        let plain = run_fleet_on(Arc::clone(&market), config.clone(), strategies::build(name));

        let trace = Arc::new(Trace::new());
        let root = trace.open(OP, None);
        let timed = TimedStrategy::new(strategies::build(name), Arc::clone(&trace), root.id());
        let decorated = run_fleet_on(market, config, Box::new(timed));
        trace.close(root);

        assert_eq!(plain, decorated, "{name}: the decorator changed the run");
        assert!(plain.capacity_deferrals > 0, "{name}: the cap never bound");
        let spans = trace.take();
        let models: Vec<_> = spans.iter().filter(|s| s.name == MODEL).collect();
        assert_eq!(models.len(), 1, "{name}: one fleet model span");
        assert!(
            matches!(models[0].folded, Some(("strategy", ns)) if ns > 0),
            "{name}: strategy time folded into the model span"
        );
        assert!(
            trace.take_counts()[PLACE] > 0,
            "{name}: placements were counted"
        );
    }
}
