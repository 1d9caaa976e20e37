//! Shared helpers for the table/figure reproduction benches.
//!
//! Each bench target regenerates one table or figure from the paper's
//! evaluation, printing the paper's reported values next to our measured
//! ones. Absolute numbers come from a simulator rather than the authors'
//! AWS testbed, so the *shape* — who wins, by roughly what factor — is the
//! reproduction target (see EXPERIMENTS.md).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use bio_workloads::{paper_fleet, WorkloadKind, WorkloadSpec};
use cloud_market::InstanceType;
use sim_kernel::{SimDuration, SimRng, SimTime};
use spotverse::FleetConfig;

/// Heap allocations observed by [`CountingAlloc`] since process start.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Allocation-counting wrapper around the system allocator.
///
/// Install it in a bench binary with
/// `#[global_allocator] static A: CountingAlloc = CountingAlloc;` and
/// difference [`CountingAlloc::allocations`] around the measured region.
/// Counting is a relaxed atomic increment per `alloc`/`realloc` — cheap
/// enough that throughput numbers from the same binary stay comparable.
pub struct CountingAlloc;

impl CountingAlloc {
    /// Total allocation count so far (monotonic; difference across a
    /// region of interest).
    pub fn allocations() -> u64 {
        ALLOCATIONS.load(Ordering::Relaxed)
    }
}

// SAFETY: delegates every operation to `System`, which upholds the
// `GlobalAlloc` contract; the counter has no effect on the returned
// memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// The seed all bench experiments derive from (fixed for reproducible
/// tables).
pub const BENCH_SEED: u64 = 20_241_206; // the paper's presentation week

/// Prints a bench header.
pub fn header(title: &str, paper_ref: &str) {
    println!();
    println!("{}", "=".repeat(78));
    println!("{title}");
    println!("reproduces: {paper_ref}");
    println!("{}", "=".repeat(78));
}

/// Prints a `paper vs measured` row.
pub fn paper_vs_measured(metric: &str, paper: &str, measured: &str) {
    println!("  {metric:<44} paper: {paper:>12}   measured: {measured:>12}");
}

/// Prints a section divider.
pub fn section(name: &str) {
    println!("\n-- {name} --");
}

/// The standard paper fleet for a bench: `n` workloads of `kind`,
/// 10–11 hours each.
pub fn bench_fleet(kind: WorkloadKind, n: usize, seed: u64) -> Vec<WorkloadSpec> {
    paper_fleet(kind, n, &SimRng::seed_from_u64(seed))
}

/// A bench run config starting at `start_day` into the horizon, with the
/// whole fleet arriving at the start.
pub fn bench_config(
    seed: u64,
    instance_type: InstanceType,
    workloads: Vec<WorkloadSpec>,
    start_day: u64,
) -> FleetConfig {
    let mut config = FleetConfig::staggered(seed, instance_type, workloads, SimDuration::ZERO);
    config.start = SimTime::from_days(start_day);
    config
}

/// Formats hours with one decimal.
pub fn hours(h: f64) -> String {
    format!("{h:.1} h")
}

/// Formats a percentage delta.
pub fn pct(p: f64) -> String {
    format!("{p:+.1}%")
}
