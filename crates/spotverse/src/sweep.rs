//! The parallel sweep engine: deterministic concurrent execution of
//! (strategy × scenario × repetition) cell matrices.
//!
//! Every table and figure in the paper's evaluation is a *sweep* — the
//! same fleet run cell-by-cell under varying strategies, fault scenarios,
//! or repetition seeds. There is one cell type, [`FleetSweepCell`]: a
//! labelled [`FleetConfig`], so staggered, capacity-capped and generated
//! fleets sweep exactly like a classic experiment, which is the fleet
//! built by [`FleetConfig::staggered`] with zero spacing.
//!
//! Cells share nothing mutable, so they parallelize perfectly; what they
//! *can* share is the market: building a 12-region precomputed
//! trajectory dominates small-cell runtime, and every cell at the same
//! [`MarketConfig`] observes the identical market by construction. The
//! engine therefore couples a bounded worker pool ([`run_fleet_matrix`])
//! with a config-keyed [`MarketCache`] handing out `Arc<SpotMarket>`
//! clones, so a whole matrix at one seed performs exactly one market
//! construction.
//!
//! Determinism contract: the [`FleetCellOutcome`] vector is in cell order
//! and each cell is a pure function of its [`FleetConfig`] and strategy,
//! so the output is bit-identical for any `jobs` value (covered by
//! integration tests). Cells run under `catch_unwind` with one
//! deterministic retry, so one panicking cell degrades to a structured
//! failure instead of poisoning the whole matrix.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use cloud_market::{MarketConfig, SpotMarket};

use crate::fleet::{run_fleet_on, FleetConfig, FleetReport};
use crate::strategy::Strategy;

/// Environment variable overriding the default sweep parallelism (a
/// `--jobs` flag, when present, wins over it).
pub const JOBS_ENV: &str = "SPOTVERSE_JOBS";

/// A market cache shared across sweep cells: one [`SpotMarket`] per
/// distinct [`MarketConfig`], built at most once no matter how many cells
/// (or worker threads) ask for it concurrently.
///
/// Chaos cells layer their faults through `MarketOverlay`s on the *read*
/// path, so faulted and fault-free cells at the same seed share the same
/// clean base market.
#[derive(Debug, Default)]
pub struct MarketCache {
    markets: Mutex<HashMap<MarketConfig, Arc<OnceLock<Arc<SpotMarket>>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl MarketCache {
    /// An empty cache.
    pub fn new() -> Self {
        MarketCache::default()
    }

    /// The market for `config`, building it on first request. Concurrent
    /// same-config requests block on the single in-flight build instead of
    /// duplicating it; distinct configs build independently.
    pub fn get_or_build(&self, config: MarketConfig) -> Arc<SpotMarket> {
        let cell = {
            let mut markets = self.markets.lock().expect("market cache poisoned");
            Arc::clone(markets.entry(config).or_default())
        };
        let mut built = false;
        let market = cell.get_or_init(|| {
            built = true;
            Arc::new(SpotMarket::new(config))
        });
        if built {
            self.misses.fetch_add(1, Ordering::Relaxed);
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        Arc::clone(market)
    }

    /// Requests served from an already-built market.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Requests that performed a market construction.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of distinct markets held.
    pub fn len(&self) -> usize {
        self.markets.lock().expect("market cache poisoned").len()
    }

    /// Whether the cache holds no markets yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Resolves the worker count for a sweep of `cells` cells: an explicit
/// request (`--jobs`) wins, then the [`JOBS_ENV`] environment variable,
/// then `min(cells, available_parallelism)`. Always at least 1.
pub fn resolve_jobs(explicit: Option<usize>, cells: usize) -> usize {
    let env = std::env::var(JOBS_ENV)
        .ok()
        .and_then(|raw| raw.trim().parse::<usize>().ok());
    resolve_jobs_from(explicit, env, cells)
}

/// [`resolve_jobs`] with the environment pre-read (pure, for tests).
fn resolve_jobs_from(explicit: Option<usize>, env: Option<usize>, cells: usize) -> usize {
    let default = || {
        std::thread::available_parallelism()
            .map_or(1, std::num::NonZeroUsize::get)
            .min(cells.max(1))
    };
    explicit
        .filter(|&n| n > 0)
        .or(env.filter(|&n| n > 0))
        .unwrap_or_else(default)
}

/// One cell of a sweep matrix: a labelled [`FleetConfig`] and the
/// strategy selector the matrix's factory keys on. A classic experiment
/// is the fleet built by [`FleetConfig::staggered`] with zero spacing.
#[derive(Debug, Clone)]
pub struct FleetSweepCell {
    /// Display label (e.g. `"spotverse/region_blackout"`).
    pub label: String,
    /// Strategy selector the cell's strategy factory keys on.
    pub strategy: String,
    /// The full fleet configuration, chaos scenario included.
    pub config: FleetConfig,
}

impl FleetSweepCell {
    /// A cell running `strategy` under `config`, labelled `label`.
    pub fn new(
        label: impl Into<String>,
        strategy: impl Into<String>,
        config: FleetConfig,
    ) -> Self {
        FleetSweepCell {
            label: label.into(),
            strategy: strategy.into(),
            config,
        }
    }
}

/// The structured result of one matrix cell: either the report, or the
/// cell's failure message after the deterministic retry was exhausted.
/// One bad cell never poisons its matrix — neighbours complete and the
/// caller decides how to surface the failure.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetCellOutcome {
    /// The cell's display label.
    pub label: String,
    /// The cell's strategy selector.
    pub strategy: String,
    /// Retries taken after a panic (0 or 1 — each cell gets exactly one
    /// deterministic retry).
    pub retries: u32,
    /// The report, or the failure message of the final failed attempt.
    pub result: Result<FleetReport, String>,
}

impl FleetCellOutcome {
    /// A failed outcome for `cell` that never ran to a report.
    pub(crate) fn failed(cell: &FleetSweepCell, error: String) -> Self {
        FleetCellOutcome {
            label: cell.label.clone(),
            strategy: cell.strategy.clone(),
            retries: 0,
            result: Err(error),
        }
    }

    /// Whether the cell produced a report.
    pub fn is_ok(&self) -> bool {
        self.result.is_ok()
    }

    /// Whether the cell failed once and then succeeded on its retry.
    pub fn recovered(&self) -> bool {
        self.retries > 0 && self.result.is_ok()
    }

    /// The report, if the cell succeeded.
    pub fn report(&self) -> Option<&FleetReport> {
        self.result.as_ref().ok()
    }

    /// Unwraps the report for callers that treat any cell failure as
    /// fatal (e.g. repetition aggregation, where a missing cell would
    /// silently skew the statistics).
    ///
    /// # Panics
    ///
    /// Panics with the cell label and failure message if the cell failed.
    pub fn into_report(self) -> FleetReport {
        match self.result {
            Ok(report) => report,
            Err(e) => panic!("sweep cell {} failed: {e}", self.label),
        }
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "cell panicked".to_owned()
    }
}

/// Executes one cell exactly as [`run_fleet_matrix`] does — the shared
/// path the orchestrator's shard workers also take, so an orchestrated
/// sweep is byte-identical to the in-process pool cell for cell.
///
/// The cell runs under `catch_unwind` with exactly one deterministic
/// retry. Cells are pure functions of their config, so the retry only
/// rescues transient host-level failures; a deterministic panic fails
/// identically twice and is reported as the cell's error.
pub(crate) fn run_cell<F>(
    cell: &FleetSweepCell,
    cache: &MarketCache,
    strategy_for: &F,
) -> FleetCellOutcome
where
    F: Fn(&FleetSweepCell) -> Box<dyn Strategy> + Sync,
{
    let body = || {
        let market = cache.get_or_build(cell.config.market);
        run_fleet_on(market, cell.config.clone(), strategy_for(cell))
    };
    let mut outcome = FleetCellOutcome::failed(cell, String::new());
    for _ in 0..2 {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(&body)) {
            Ok(report) => {
                outcome.result = Ok(report);
                return outcome;
            }
            Err(payload) => {
                outcome.result = Err(panic_message(payload));
                outcome.retries = 1;
            }
        }
    }
    outcome
}

/// Runs every cell of a matrix on a bounded worker pool and returns one
/// [`FleetCellOutcome`] per cell **in cell order**, regardless of which
/// thread finished first: cells are claimed off an atomic counter and
/// results filed into index-addressed slots.
///
/// `strategy_for` builds a fresh strategy per cell (strategies may hold
/// state); it runs on the worker thread executing the cell. Markets are
/// shared through `cache`, so all cells at one market config reuse a
/// single construction.
///
/// Each cell is wrapped in `catch_unwind` with one deterministic retry:
/// a panicking cell becomes a failed outcome while its neighbours run to
/// completion. A worker that dies surfaces its claimed-but-unfiled cells
/// as failed outcomes instead of poisoning the matrix.
///
/// Output is bit-identical for any `jobs ≥ 1`: each cell derives every
/// random stream from its own config seed and shares nothing mutable
/// with its neighbours.
///
/// # Panics
///
/// Panics if `jobs` is zero.
pub fn run_fleet_matrix<F>(
    cells: &[FleetSweepCell],
    jobs: usize,
    cache: &MarketCache,
    strategy_for: F,
) -> Vec<FleetCellOutcome>
where
    F: Fn(&FleetSweepCell) -> Box<dyn Strategy> + Sync,
{
    assert!(jobs > 0, "run_fleet_matrix: need at least one worker");
    let run_one = |cell: &FleetSweepCell| run_cell(cell, cache, &strategy_for);
    if cells.is_empty() {
        return Vec::new();
    }
    let jobs = jobs.min(cells.len());
    if jobs == 1 {
        return cells.iter().map(run_one).collect();
    }
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<FleetCellOutcome>> = (0..cells.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        let run_one = &run_one;
        let handles: Vec<_> = (0..jobs)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(cell) = cells.get(i) else { break };
                        local.push((i, run_one(cell)));
                    }
                    local
                })
            })
            .collect();
        // run_cell never unwinds, so a join failure means the worker
        // itself died; its claimed-but-unfiled cells surface as
        // structured failures below instead of poisoning the matrix.
        for handle in handles {
            if let Ok(local) = handle.join() {
                for (i, outcome) in local {
                    slots[i] = Some(outcome);
                }
            }
        }
    });
    slots
        .into_iter()
        .zip(cells)
        .map(|(slot, cell)| {
            slot.unwrap_or_else(|| FleetCellOutcome::failed(cell, "sweep worker lost".to_owned()))
        })
        .collect()
}

/// Merges the traces of a sweep's outcomes into one canonical JSONL
/// document: cells in matrix order, each cell's records prefixed with its
/// label via the `"cell"` key. Failed cells and cells that ran with
/// tracing disabled contribute nothing. Because [`run_fleet_matrix`]
/// returns outcomes in cell order regardless of `jobs`, the merged
/// document is byte-identical for any parallelism — the property the
/// golden-trace suite pins down.
pub fn merged_fleet_trace_jsonl(outcomes: &[FleetCellOutcome]) -> String {
    let mut out = String::new();
    for outcome in outcomes {
        if let Some(trace) = outcome.report().and_then(|r| r.aggregate.trace.as_ref()) {
            crate::trace::append_trace_jsonl(&mut out, Some(&outcome.label), trace);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bio_workloads::{paper_fleet, WorkloadKind};
    use cloud_market::{InstanceType, Region};
    use sim_kernel::{SimDuration, SimRng};

    use crate::strategy::SingleRegionStrategy;

    fn config(seed: u64, n: usize) -> FleetConfig {
        let rng = SimRng::seed_from_u64(seed);
        FleetConfig::staggered(
            seed,
            InstanceType::M5Xlarge,
            paper_fleet(WorkloadKind::GenomeReconstruction, n, &rng),
            SimDuration::ZERO,
        )
    }

    #[test]
    fn cache_builds_each_config_once() {
        let cache = MarketCache::new();
        let a = cache.get_or_build(MarketConfig::with_seed(5));
        let b = cache.get_or_build(MarketConfig::with_seed(5));
        let c = cache.get_or_build(MarketConfig::with_seed(6));
        assert!(Arc::ptr_eq(&a, &b), "same config must share one market");
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!((cache.misses(), cache.hits()), (2, 1));
        assert_eq!(cache.len(), 2);
        assert!(!cache.is_empty());
    }

    #[test]
    fn concurrent_same_config_requests_share_one_build() {
        let cache = MarketCache::new();
        let markets: Vec<Arc<SpotMarket>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| s.spawn(|| cache.get_or_build(MarketConfig::with_seed(9))))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(cache.misses(), 1, "exactly one construction");
        assert_eq!(cache.hits(), 3);
        assert!(markets.windows(2).all(|w| Arc::ptr_eq(&w[0], &w[1])));
    }

    #[test]
    fn matrix_reports_come_back_in_cell_order() {
        let cache = MarketCache::new();
        let cells: Vec<FleetSweepCell> = (0..4)
            .map(|i| FleetSweepCell::new(format!("cell-{i}"), "single-region", config(40 + i, 2)))
            .collect();
        let outcomes = run_fleet_matrix(&cells, 4, &cache, |_| {
            Box::new(SingleRegionStrategy::new(Region::CaCentral1))
        });
        assert_eq!(outcomes.len(), 4);
        assert!(outcomes.iter().all(FleetCellOutcome::is_ok));
        // Distinct seeds give distinct outcomes; order must match cells.
        let serial = run_fleet_matrix(&cells, 1, &MarketCache::new(), |_| {
            Box::new(SingleRegionStrategy::new(Region::CaCentral1))
        });
        for (i, (p, s)) in outcomes.iter().zip(serial.iter()).enumerate() {
            assert_eq!(p.label, format!("cell-{i}"), "outcomes keep cell order");
            let (p, s) = (&p.report().unwrap().aggregate, &s.report().unwrap().aggregate);
            assert_eq!(p.makespan, s.makespan);
            assert_eq!(p.cost.total, s.cost.total);
        }
    }

    #[test]
    fn merged_trace_prefixes_cells_in_matrix_order() {
        use crate::trace::TraceConfig;
        let cache = MarketCache::new();
        let cells: Vec<FleetSweepCell> = (0..3)
            .map(|i| {
                let mut c = config(60 + i, 2);
                c.trace = TraceConfig::enabled();
                FleetSweepCell::new(format!("cell-{i}"), "single-region", c)
            })
            .collect();
        let outcomes = run_fleet_matrix(&cells, 2, &cache, |_| {
            Box::new(SingleRegionStrategy::new(Region::CaCentral1))
        });
        let merged = merged_fleet_trace_jsonl(&outcomes);
        assert!(!merged.is_empty());
        assert!(merged.ends_with('\n'));
        // Lines arrive grouped by cell, cells in matrix order.
        let firsts: Vec<usize> = (0..3)
            .map(|i| merged.find(&format!("{{\"cell\":\"cell-{i}\"")).expect("cell present"))
            .collect();
        assert!(firsts.windows(2).all(|w| w[0] < w[1]), "cell order preserved: {firsts:?}");
        // Untraced runs contribute nothing.
        let untraced = run_fleet_matrix(
            &[FleetSweepCell::new("plain", "single-region", config(99, 2))],
            1,
            &cache,
            |_| Box::new(SingleRegionStrategy::new(Region::CaCentral1)),
        );
        assert!(merged_fleet_trace_jsonl(&untraced).is_empty());
    }

    #[test]
    fn panicking_cell_is_isolated_and_reported() {
        let cache = MarketCache::new();
        let cells = vec![
            FleetSweepCell::new("good-0", "single-region", config(40, 2)),
            FleetSweepCell::new("bad", "single-region", config(41, 2)),
            FleetSweepCell::new("good-1", "single-region", config(42, 2)),
        ];
        let outcomes = run_fleet_matrix(&cells, 2, &cache, |cell| {
            if cell.label == "bad" {
                panic!("injected cell failure");
            }
            Box::new(SingleRegionStrategy::new(Region::CaCentral1))
        });
        assert_eq!(outcomes.len(), 3);
        assert!(outcomes[0].is_ok(), "neighbour cells complete");
        assert!(outcomes[2].is_ok());
        let bad = &outcomes[1];
        assert!(!bad.is_ok());
        assert_eq!(bad.retries, 1, "the deterministic retry was attempted");
        assert_eq!(bad.result.as_ref().unwrap_err(), "injected cell failure");
        assert!(!bad.recovered());
    }

    #[test]
    fn transient_cell_failure_recovers_on_retry() {
        use std::sync::atomic::AtomicBool;
        let cache = MarketCache::new();
        let cells = vec![FleetSweepCell::new("flaky", "single-region", config(43, 2))];
        let failed_once = AtomicBool::new(false);
        let outcomes = run_fleet_matrix(&cells, 1, &cache, |_| {
            if !failed_once.swap(true, Ordering::Relaxed) {
                panic!("transient failure");
            }
            Box::new(SingleRegionStrategy::new(Region::CaCentral1))
        });
        assert!(outcomes[0].is_ok());
        assert!(outcomes[0].recovered());
        assert_eq!(outcomes[0].retries, 1);
    }

    #[test]
    fn same_seed_cells_share_one_market() {
        let cache = MarketCache::new();
        let cells: Vec<FleetSweepCell> = (0..6)
            .map(|i| FleetSweepCell::new(format!("rep-{i}"), "single-region", config(7, 2)))
            .collect();
        let _ = run_fleet_matrix(&cells, 3, &cache, |_| {
            Box::new(SingleRegionStrategy::new(Region::ApNortheast3))
        });
        assert_eq!(cache.misses(), 1, "one construction for the whole sweep");
        assert_eq!(cache.hits(), 5);
    }

    #[test]
    fn empty_matrix_is_a_no_op() {
        let cache = MarketCache::new();
        assert!(run_fleet_matrix(&[], 4, &cache, |_| -> Box<dyn Strategy> {
            unreachable!("no cells to build for")
        })
        .is_empty());
        assert!(cache.is_empty());
    }

    #[test]
    fn jobs_resolution_precedence() {
        // Explicit flag beats env beats default.
        assert_eq!(resolve_jobs_from(Some(3), Some(8), 16), 3);
        assert_eq!(resolve_jobs_from(None, Some(8), 16), 8);
        let auto = resolve_jobs_from(None, None, 16);
        assert!(auto >= 1);
        // Default is bounded by the cell count.
        assert_eq!(resolve_jobs_from(None, None, 1), 1);
        // Zero requests are corrected to a sane floor.
        assert_eq!(resolve_jobs_from(Some(0), None, 4), resolve_jobs_from(None, None, 4));
    }
}
