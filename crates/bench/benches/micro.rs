//! Criterion micro-benchmarks for the hot paths: market construction
//! (lazy vs eager), Algorithm 1 region selection, interruption sampling,
//! sweep-engine market caching, memoized monitor collection, and
//! end-to-end experiment throughput.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use bio_workloads::{paper_fleet, WorkloadKind};
use cloud_compute::BillingLedger;
use cloud_market::{InstanceType, MarketConfig, Region, SpotMarket};
use aws_stack::{FunctionRuntime, KvStore, MetricsService};
use sim_kernel::{SimDuration, SimRng, SimTime};
use spotverse::{
    run_fleet_on, FleetConfig, MarketCache, MigrationPolicy, Monitor, Optimizer,
    SingleRegionStrategy, SnapshotMemo, SpotVerseConfig,
};

fn bench_market_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("market");
    group.sample_size(10);
    group.bench_function("spot_market_build_210_days", |b| {
        b.iter(|| SpotMarket::new(MarketConfig::with_seed(std::hint::black_box(7))));
    });
    group.bench_function("spot_market_build_210_days_eager", |b| {
        b.iter(|| SpotMarket::new_eager(MarketConfig::with_seed(std::hint::black_box(7))));
    });
    group.finish();
}

fn bench_market_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("market_cache");
    group.sample_size(10);
    // Miss: every iteration builds a fresh market through a cold cache.
    group.bench_function("miss_cold_cache", |b| {
        b.iter_batched(
            MarketCache::new,
            |cache| cache.get_or_build(MarketConfig::with_seed(std::hint::black_box(7))),
            BatchSize::SmallInput,
        );
    });
    // Hit: the steady state of a same-seed sweep — an Arc clone plus a
    // hash lookup.
    let warm = MarketCache::new();
    warm.get_or_build(MarketConfig::with_seed(7));
    group.bench_function("hit_warm_cache", |b| {
        b.iter(|| warm.get_or_build(MarketConfig::with_seed(std::hint::black_box(7))));
    });
    group.finish();
}

fn bench_monitor_memoization(c: &mut Criterion) {
    let market = SpotMarket::new(MarketConfig::with_seed(7));
    let monitor = Monitor::new(InstanceType::M5Xlarge, Region::UsEast1);
    let mut functions = FunctionRuntime::new();
    let mut kv = KvStore::new();
    monitor.provision(&mut functions, &mut kv);
    let mut metrics = MetricsService::new(Region::UsEast1);
    let mut ledger = BillingLedger::new();
    let at = SimTime::from_hours(30);
    c.bench_function("monitor_collect_unmemoized", |b| {
        b.iter(|| {
            monitor
                .collect(
                    &market,
                    std::hint::black_box(at),
                    &mut functions,
                    &mut kv,
                    &mut metrics,
                    &mut ledger,
                )
                .unwrap()
        });
    });
    // Same-epoch path: one collection primes the memo, the rest reuse it.
    let mut memo = SnapshotMemo::new();
    monitor
        .collect_memoized(
            &market, None, at, &mut memo, &mut functions, &mut kv, &mut metrics, &mut ledger,
        )
        .unwrap();
    c.bench_function("monitor_collect_memoized_same_epoch", |b| {
        b.iter(|| {
            monitor
                .collect_memoized(
                    &market,
                    None,
                    std::hint::black_box(at),
                    &mut memo,
                    &mut functions,
                    &mut kv,
                    &mut metrics,
                    &mut ledger,
                )
                .unwrap()
        });
    });
}

fn bench_optimizer(c: &mut Criterion) {
    let market = SpotMarket::new(MarketConfig::with_seed(7));
    let monitor = Monitor::new(InstanceType::M5Xlarge, Region::UsEast1);
    let assessments = monitor
        .fresh_assessments(&market, SimTime::from_days(10))
        .unwrap();
    let optimizer = Optimizer::new(SpotVerseConfig::paper_default(InstanceType::M5Xlarge));
    c.bench_function("algorithm1_select_regions", |b| {
        b.iter(|| optimizer.select_regions(std::hint::black_box(&assessments), &[]));
    });
    let mut rng = SimRng::seed_from_u64(3);
    c.bench_function("algorithm1_migration_target", |b| {
        b.iter(|| {
            optimizer.migration_target(
                std::hint::black_box(&assessments),
                Region::CaCentral1,
                MigrationPolicy::RandomTopR,
                &[],
                &mut rng,
            )
        });
    });
}

fn bench_interruption_sampling(c: &mut Criterion) {
    let market = SpotMarket::new(MarketConfig::with_seed(7));
    let mut rng = SimRng::seed_from_u64(5);
    c.bench_function("sample_interruption_delay", |b| {
        b.iter(|| {
            market
                .sample_interruption_delay(
                    Region::CaCentral1,
                    InstanceType::M5Xlarge,
                    SimTime::from_days(2),
                    &mut rng,
                )
                .unwrap()
        });
    });
}

fn bench_experiment(c: &mut Criterion) {
    let rng = SimRng::seed_from_u64(11);
    let fleet = paper_fleet(WorkloadKind::GenomeReconstruction, 8, &rng);
    let config = FleetConfig::staggered(11, InstanceType::M5Xlarge, fleet, SimDuration::ZERO);
    let market = Arc::new(SpotMarket::new(config.market));
    let mut group = c.benchmark_group("experiment");
    group.sample_size(10);
    group.bench_function("single_region_8_workloads", |b| {
        b.iter_batched(
            || (Arc::clone(&market), config.clone()),
            |(market, config)| {
                run_fleet_on(
                    market,
                    config,
                    Box::new(SingleRegionStrategy::new(Region::CaCentral1)),
                )
                .aggregate
            },
            BatchSize::SmallInput,
        );
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_market_build,
    bench_market_cache,
    bench_monitor_memoization,
    bench_optimizer,
    bench_interruption_sampling,
    bench_experiment
);
criterion_main!(benches);
