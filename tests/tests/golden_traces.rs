//! Golden-trace regression suite: paper-shaped SpotVerse runs at a fixed
//! seed must replay to byte-identical canonical JSONL, committed under
//! `tests/golden/`. Any drift — a reordered event, a changed field, a
//! float formatted differently — fails the suite.
//!
//! To bless an intentional change, regenerate with
//! `scripts/regen-golden.sh` (or `UPDATE_GOLDEN=1 cargo test -p
//! spotverse-integration --test golden_traces`) and review the diff.

use std::fs;
use std::path::PathBuf;

use bio_workloads::{paper_fleet, WorkloadKind};
use cloud_market::InstanceType;
use sim_kernel::{SimDuration, SimRng};
use spotverse::{run_fleet, trace_to_jsonl, FleetConfig, TraceConfig};
use spotverse_integration::{spotverse_with_threshold, traced_config};

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join(name)
}

/// The canonical trace of the paper-shaped scenario: an NGS shard fleet
/// of 3 at seed 2024 under SpotVerse at one of the Table 3 threshold
/// tiers.
fn trace_at_threshold(threshold: u8) -> String {
    let config = traced_config(WorkloadKind::NgsPreprocessing, 3, 2024);
    let report = run_fleet(config, spotverse_with_threshold(threshold)).aggregate;
    trace_to_jsonl(report.trace.as_ref().expect("tracing was enabled"))
}

fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        fs::create_dir_all(path.parent().unwrap()).expect("create tests/golden");
        fs::write(&path, actual).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        return;
    }
    let expected = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden trace {} ({e}); generate it with scripts/regen-golden.sh",
            path.display()
        )
    });
    if actual != expected {
        let line = actual
            .lines()
            .zip(expected.lines())
            .position(|(a, b)| a != b)
            .map_or_else(
                || actual.lines().count().min(expected.lines().count()) + 1,
                |i| i + 1,
            );
        panic!(
            "golden trace drift in {name} at line {line} \
             (actual {} lines, golden {} lines);\n  actual: {}\n  golden: {}\n\
             if the change is intentional, re-bless with scripts/regen-golden.sh",
            actual.lines().count(),
            expected.lines().count(),
            actual.lines().nth(line - 1).unwrap_or("<end of trace>"),
            expected.lines().nth(line - 1).unwrap_or("<end of golden>"),
        );
    }
}

#[test]
fn spotverse_threshold_6_matches_golden() {
    check_golden("spotverse_ngs3_seed2024_t6.jsonl", &trace_at_threshold(6));
}

#[test]
fn spotverse_threshold_5_matches_golden() {
    check_golden("spotverse_ngs3_seed2024_t5.jsonl", &trace_at_threshold(5));
}

#[test]
fn spotverse_threshold_4_matches_golden() {
    check_golden("spotverse_ngs3_seed2024_t4.jsonl", &trace_at_threshold(4));
}

/// A faulted golden: the `region_flap` scenario on a fleet big enough to
/// strike the breaker exercises the breaker and chaos-fault event
/// families the fault-free tiers never emit.
#[test]
fn spotverse_region_flap_matches_golden() {
    let mut config = traced_config(WorkloadKind::GenomeReconstruction, 10, 2024);
    config.chaos = Some(chaos::region_flap());
    let report = run_fleet(config, spotverse_with_threshold(6)).aggregate;
    let jsonl = trace_to_jsonl(report.trace.as_ref().expect("tracing was enabled"));
    assert!(jsonl.contains("\"event\":\"breaker\""), "flap golden must cover breaker events");
    assert!(jsonl.contains("\"event\":\"chaos_fault\""), "flap golden must cover chaos faults");
    check_golden("spotverse_genome10_seed2024_region_flap.jsonl", &jsonl);
}

/// The fleet golden: three NGS workloads arriving two hours apart at seed
/// 2024 under a per-region concurrency cap of one. Covers the fleet-only
/// event families (`workloads_arrived`, and `capacity_deferred` whenever
/// the cap bites) plus workload-id-tagged decisions the classic goldens
/// never emit.
#[test]
fn fleet_staggered_capped_matches_golden() {
    let rng = SimRng::seed_from_u64(2024);
    let specs = paper_fleet(WorkloadKind::NgsPreprocessing, 3, &rng);
    let mut config = FleetConfig::staggered(
        2024,
        InstanceType::M5Xlarge,
        specs,
        SimDuration::from_hours(2),
    );
    config.region_capacity = Some(1);
    config.trace = TraceConfig::enabled();
    let report = run_fleet(config, spotverse_with_threshold(6));
    let jsonl = trace_to_jsonl(report.aggregate.trace.as_ref().expect("tracing was enabled"));
    assert!(
        jsonl.contains("\"event\":\"workloads_arrived\""),
        "fleet golden must cover staggered arrivals"
    );
    check_golden("fleet_ngs3_seed2024_cap1.jsonl", &jsonl);
}

/// The replay property the goldens rest on: two independent runs of the
/// same configuration serialize to byte-identical JSONL.
#[test]
fn same_seed_replays_byte_identical() {
    assert_eq!(
        trace_at_threshold(6),
        trace_at_threshold(6),
        "same seed must replay to byte-identical canonical JSONL"
    );
}
