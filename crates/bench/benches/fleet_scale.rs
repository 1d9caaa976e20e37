//! Fleet-scale throughput: drives `run_fleet` over generated Poisson
//! fleets at 1k/5k/10k/25k workloads on one shared market, recording
//! workloads/sec, events/sec, and heap allocations per delivered event —
//! plus a per-phase breakdown and the trace replay rate (lines/sec,
//! allocations per line) of a traced 1k fleet — into `BENCH_fleet.json`
//! at the repo root for regression tracking.
//!
//! The per-event allocation count comes from a counting wrapper around
//! the system allocator installed for this whole binary; it is the
//! regression tripwire for the allocation-free dispatch work described
//! in docs/performance.md.

use std::sync::Arc;
use std::time::Instant;

use cloud_market::{InstanceType, MarketConfig, SpotMarket};
use spotverse::{
    replay_str, run_fleet_on, trace_to_jsonl, FleetReport, LoadProfile, SpotVerseConfig,
    SpotVerseStrategy, TimeWindow, TraceConfig,
};
use spotverse_bench::{header, section, CountingAlloc, BENCH_SEED};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn strategy() -> Box<SpotVerseStrategy> {
    Box::new(SpotVerseStrategy::new(SpotVerseConfig::paper_default(
        InstanceType::M5Xlarge,
    )))
}

/// Runs one generated fleet and returns (best wall secs, allocations
/// during the best-timed rep's run, report).
fn run_scale(market: &Arc<SpotMarket>, n: usize, reps: usize) -> (f64, u64, FleetReport) {
    // Arrival rate scales with fleet size so the arrival window stays a
    // ~12-hour working day at every scale; throughput then measures the
    // engine, not an ever-longer simulated horizon.
    let profile = LoadProfile::poisson(n as f64 / 12.0);
    let mut best = f64::INFINITY;
    let mut best_allocs = u64::MAX;
    let mut out = None;
    for _ in 0..reps {
        let config = profile.generate(BENCH_SEED, n, InstanceType::M5Xlarge);
        let allocs_before = CountingAlloc::allocations();
        let t = Instant::now();
        let report = run_fleet_on(Arc::clone(market), config, strategy());
        let secs = t.elapsed().as_secs_f64();
        let allocs = CountingAlloc::allocations() - allocs_before;
        if secs < best {
            best = secs;
            best_allocs = allocs;
        }
        out = Some(report);
    }
    (best, best_allocs, out.expect("reps >= 1"))
}

fn main() {
    header(
        "fleet-scale throughput",
        "this repo's fleet runtime at load-generator scale (no direct paper figure)",
    );
    let market = Arc::new(SpotMarket::new(MarketConfig::with_seed(BENCH_SEED)));
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    section("generated Poisson fleets (12-hour arrival window, shared market)");
    let mut rows = Vec::new();
    let mut allocs_per_event_10k = 0.0;
    for &(n, reps) in &[(1_000usize, 5usize), (5_000, 3), (10_000, 2), (25_000, 1)] {
        let (secs, allocs, report) = run_scale(&market, n, reps);
        let wps = n as f64 / secs;
        let eps = report.events as f64 / secs;
        let ape = allocs as f64 / report.events as f64;
        println!(
            "  {n:>6} workloads   {secs:>8.3} s   {wps:>9.0} workloads/s   {eps:>11.0} events/s   {ape:>6.2} allocs/event   ({}/{} completed)",
            report.aggregate.completed, n
        );
        assert!(
            report.aggregate.completed > 0,
            "a {n}-workload fleet must complete work"
        );
        if n == 10_000 {
            allocs_per_event_10k = ape;
        }
        rows.push((n, secs, wps, eps));
    }

    // -- per-phase breakdown -----------------------------------------------
    // Three separately-timed phases so a regression names its layer:
    // eager market construction, a 5k fleet run through the full
    // Monitor→KV pipeline, and trace export + replay fold of a traced 1k
    // fleet.
    section("per-phase breakdown (market build / monitor / replay-export)");
    let mut market_build_secs = f64::INFINITY;
    for _ in 0..2 {
        let t = Instant::now();
        let eager = SpotMarket::new_eager(MarketConfig::with_seed(BENCH_SEED + 1));
        market_build_secs = market_build_secs.min(t.elapsed().as_secs_f64());
        std::hint::black_box(&eager);
    }
    let (monitor_secs, _, _) = run_scale(&market, 5_000, 3);
    let traced_report = {
        let profile = LoadProfile::poisson(1_000.0 / 12.0);
        let mut config = profile.generate(BENCH_SEED, 1_000, InstanceType::M5Xlarge);
        config.trace = TraceConfig::enabled();
        run_fleet_on(Arc::clone(&market), config, strategy())
    };
    let run_trace = traced_report
        .aggregate
        .trace
        .as_ref()
        .expect("tracing was enabled for the replay-export phase");
    let mut replay_export_secs = f64::INFINITY;
    let mut replay_secs = f64::INFINITY;
    let mut replay_allocs = 0;
    let mut replay_lines = 0;
    for _ in 0..3 {
        let t = Instant::now();
        let jsonl = trace_to_jsonl(run_trace);
        let exported = Instant::now();
        let allocs_before = CountingAlloc::allocations();
        let state = replay_str(&jsonl, TimeWindow::ALL).expect("bench trace replays cleanly");
        replay_allocs = CountingAlloc::allocations() - allocs_before;
        replay_secs = replay_secs.min(exported.elapsed().as_secs_f64());
        replay_export_secs = replay_export_secs.min(t.elapsed().as_secs_f64());
        replay_lines = jsonl.lines().count();
        std::hint::black_box(&state);
    }
    // Replay alone: its allocation count per line is exact and
    // host-independent, so it is gated strictly.
    let replay_allocs_per_line = replay_allocs as f64 / replay_lines as f64;
    let replay_lines_per_sec = replay_lines as f64 / replay_secs;
    println!("  market build   {market_build_secs:>8.3} s   (eager 12-region construction)");
    println!("  monitor        {monitor_secs:>8.3} s   (5k fleet, full Monitor→KV pipeline)");
    println!("  replay-export  {replay_export_secs:>8.3} s   (1k traced fleet → JSONL → replay)");
    println!(
        "  replay         {replay_lines_per_sec:>8.0} lines/s   {replay_allocs_per_line:.3} allocs/line   ({replay_lines} lines)"
    );

    // -- record ------------------------------------------------------------
    let mut json = format!("{{\n  \"cpu_cores\": {cores},\n");
    for (n, secs, wps, eps) in &rows {
        json.push_str(&format!(
            "  \"fleet_{n}_secs\": {secs:.6},\n  \
             \"fleet_{n}_workloads_per_sec\": {wps:.3},\n  \
             \"fleet_{n}_events_per_sec\": {eps:.3},\n"
        ));
    }
    json.push_str(&format!(
        "  \"allocs_per_event\": {allocs_per_event_10k:.3},\n  \
         \"phase_market_build_secs\": {market_build_secs:.6},\n  \
         \"phase_monitor_secs\": {monitor_secs:.6},\n  \
         \"phase_replay_export_secs\": {replay_export_secs:.6},\n  \
         \"replay_allocs_per_line\": {replay_allocs_per_line:.3},\n  \
         \"replay_lines_per_sec\": {replay_lines_per_sec:.3}\n}}\n"
    ));
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fleet.json");
    std::fs::write(out, &json).expect("write BENCH_fleet.json");
    println!("\nwrote {out}");
}
