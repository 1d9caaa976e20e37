//! The three workloads: how an op's inputs are built, how the op runs
//! (untraced through the public entry points, traced as the same
//! pipeline composed from the layers' public calls), and what it counts.

use std::sync::Arc;

use bio_workloads::{paper_fleet, WorkloadKind};
use cloud_market::{MarketConfig, MarketRegime, SpotMarket};
use sim_kernel::{SimDuration, SimRng};
use spotverse::replay::win_matrix;
use spotverse::{
    merged_fleet_trace_jsonl, render_tournament, replay_str, run_fleet_matrix, run_fleet_on,
    run_tournament, FleetCellOutcome, FleetConfig, FleetReport, FleetSweepCell, LoadProfile,
    MarketCache, RegimeStanding, ReplayState, TimeWindow, TournamentChaos, TournamentConfig,
    TournamentReport, TournamentRow, TraceConfig,
};
use spotverse_bench::CountingAlloc;

use crate::spans::{SpanId, Trace};
use crate::strategies::{self, TimedStrategy, INSTANCE_TYPE};

/// Span name of a `run_fleet_on` call the benchmark makes itself.
const FLEET: &str = "fleet.run_fleet_on";

/// `fleet_poisson`: workloads per op.
const POISSON_WORKLOADS: usize = 25_000;
/// `fleet_poisson`: arrivals per hour (the CLI's default `--rate`).
const POISSON_RATE: f64 = 12.0;
/// `fleet_contended`: workloads per op.
const CONTENDED_WORKLOADS: usize = 5_000;
/// `fleet_contended`: arrivals per hour.
const CONTENDED_RATE: f64 = 120.0;
/// `fleet_contended`: per-region cap on running instances.
const CONTENDED_CAP: u32 = 50;
/// `fleet_contended`: the strategies every op runs, in this order.
const ROTATION: [&str; 4] = ["spotverse", "skypilot", "bid-price", "checkpoint-adaptive"];
/// `tournament`: paper-fleet size of every cell.
const TOURNAMENT_FLEET: usize = 100;
/// `tournament`: minutes between arrivals.
const TOURNAMENT_SPACING_MINS: u64 = 60;
/// `tournament`: sweep workers.
const TOURNAMENT_JOBS: usize = 2;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One large Poisson fleet per op on the calm market.
    FleetPoisson,
    /// Four capped fleets per op under a capacity crunch with chaos, one
    /// per strategy of the rotation, each on its own seed.
    FleetContended,
    /// One strategy × regime tournament per op.
    Tournament,
}

impl Workload {
    /// Every workload, in the order `all` runs them.
    pub const ALL: [Workload; 3] = [
        Workload::FleetPoisson,
        Workload::FleetContended,
        Workload::Tournament,
    ];

    /// The name the benchmark's `--workload` flag takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetPoisson => "fleet_poisson",
            Workload::FleetContended => "fleet_contended",
            Workload::Tournament => "tournament",
        }
    }

    /// The workload named `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The seed of op `op` in a run with workload seed `seed`.
pub fn op_seed(seed: u64, op: u64) -> u64 {
    seed.wrapping_mul(100_000).wrapping_add(op)
}

/// One fleet run of an op.
#[derive(Debug)]
pub struct FleetRun {
    /// The fleet configuration.
    pub config: FleetConfig,
    /// The freshly built market `config.market` describes.
    pub market: Arc<SpotMarket>,
    /// Strategy name, see [`strategies::build`].
    pub strategy: &'static str,
}

/// The inputs of one op, built in set-up.
#[derive(Debug)]
pub enum Input {
    /// Fleets run one after another.
    Fleets(Vec<FleetRun>),
    /// A tournament; its markets are built inside the op.
    Tournament(Box<TournamentConfig>),
}

fn span<R>(trace: Option<&Trace>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match trace {
        Some(trace) => trace.record(name, None, |_| f()),
        None => f(),
    }
}

/// Generates a fleet from `profile`, lets `adjust` set it up, and builds
/// its market.
fn fleet_run(
    profile: LoadProfile,
    workloads: usize,
    seed: u64,
    trace: Option<&Trace>,
    adjust: impl FnOnce(&mut FleetConfig),
    strategy: &'static str,
) -> FleetRun {
    let mut config = span(trace, "loadgen.generate", || {
        profile.generate(seed, workloads, INSTANCE_TYPE)
    });
    adjust(&mut config);
    let market = span(trace, "cloud-market.build", || {
        SpotMarket::new(config.market)
    });
    FleetRun {
        config,
        market: Arc::new(market),
        strategy,
    }
}

/// Builds op `op`'s inputs. With a trace, load generation and market
/// construction are recorded as root-level spans (set-up is not part of
/// the op).
pub fn setup(workload: Workload, seed: u64, op: u64, trace: Option<&Trace>) -> Input {
    let seed = op_seed(seed, op);
    match workload {
        Workload::FleetPoisson => Input::Fleets(vec![fleet_run(
            LoadProfile::poisson(POISSON_RATE),
            POISSON_WORKLOADS,
            seed,
            trace,
            |_| {},
            "spotverse",
        )]),
        // Each strategy gets a fleet and market of its own: a shared seed
        // would make the ~1 in 5 seeds whose crunch lands in the arrival
        // window slow every run of the op at once, and the op times
        // bimodal.
        Workload::FleetContended => Input::Fleets(
            ROTATION
                .iter()
                .zip(0..)
                .map(|(&strategy, k)| {
                    fleet_run(
                        LoadProfile::poisson(CONTENDED_RATE),
                        CONTENDED_WORKLOADS,
                        seed.wrapping_mul(ROTATION.len() as u64).wrapping_add(k),
                        trace,
                        |config| {
                            config.market = config.market.with_regime(MarketRegime::CapacityCrunch);
                            config.chaos = chaos::for_regime(MarketRegime::CapacityCrunch);
                            config.region_capacity = Some(CONTENDED_CAP);
                        },
                        strategy,
                    )
                })
                .collect(),
        ),
        Workload::Tournament => {
            let rng = SimRng::seed_from_u64(seed);
            let fleet = FleetConfig::staggered(
                seed,
                INSTANCE_TYPE,
                paper_fleet(WorkloadKind::GenomeReconstruction, TOURNAMENT_FLEET, &rng),
                SimDuration::from_mins(TOURNAMENT_SPACING_MINS),
            );
            let mut config = TournamentConfig::new(
                strategies::ALL.iter().map(|s| (*s).to_owned()).collect(),
                MarketRegime::ALL.to_vec(),
                1,
                fleet,
            );
            config.chaos = TournamentChaos::RegimeMatched;
            Input::Tournament(Box::new(config))
        }
    }
}

/// What an op produced, kept until it has been checked.
#[derive(Debug)]
pub enum Output {
    /// Each fleet run's report, market and number of workloads entered.
    Fleets(Vec<(FleetReport, Arc<SpotMarket>, usize)>),
    /// A tournament.
    Tournament(Box<TournamentOutput>),
}

/// What a tournament op produced.
#[derive(Debug)]
pub struct TournamentOutput {
    /// The configuration it ran.
    pub config: TournamentConfig,
    /// The report.
    pub report: TournamentReport,
    /// The rendered leaderboard.
    pub rendered: String,
    /// The market cache the op used.
    pub cache: MarketCache,
    /// The composed pipeline's view of the cells, absent when the op ran
    /// through `run_tournament`.
    pub cells: Option<TournamentCells>,
}

/// Each cell of a composed tournament, with the replay of its regime's
/// merged trace and what the pipeline measured.
#[derive(Debug)]
pub struct TournamentCells {
    /// Cell outcomes in matrix order.
    pub outcomes: Vec<FleetCellOutcome>,
    /// One replay per regime, in regime order.
    pub replays: Vec<ReplayState>,
    /// Bytes of merged trace JSONL exported.
    pub trace_bytes: usize,
    /// JSONL lines replayed.
    pub replay_lines: usize,
    /// Heap allocations made while replaying.
    pub replay_allocs: u64,
    /// Heap allocations made while the matrix ran.
    pub matrix_allocs: u64,
}

/// Runs each fleet through `run_fleet_on`. With a trace, each call is a
/// span under the given root and its strategy is a [`TimedStrategy`].
fn run_fleets(runs: Vec<FleetRun>, trace: Option<(&Arc<Trace>, SpanId)>) -> Output {
    let mut outcomes = Vec::with_capacity(runs.len());
    for FleetRun {
        config,
        market,
        strategy,
    } in runs
    {
        let workloads = config.workloads.len();
        let strategy = strategies::build(strategy);
        let on = Arc::clone(&market);
        let report = match trace {
            None => run_fleet_on(on, config, strategy),
            Some((trace, root)) => trace.record(FLEET, Some(root), |fleet| {
                let timed = TimedStrategy::new(strategy, Arc::clone(trace), fleet);
                run_fleet_on(on, config, Box::new(timed))
            }),
        };
        outcomes.push((report, market, workloads));
    }
    Output::Fleets(outcomes)
}

/// Runs an op through the public entry points, as a user would:
/// `run_fleet_on`, or `run_tournament` then `render_tournament`.
pub fn execute(input: Input) -> Output {
    match input {
        Input::Fleets(runs) => run_fleets(runs, None),
        Input::Tournament(config) => {
            let config = *config;
            let cache = MarketCache::new();
            let report = run_tournament(&config, TOURNAMENT_JOBS, &cache, strategies::build);
            let rendered = render_tournament(&report);
            Output::Tournament(Box::new(TournamentOutput {
                config,
                report,
                rendered,
                cache,
                cells: None,
            }))
        }
    }
}

/// Runs an op with a span around each call into a layer, as children of
/// `root`: fleets through `run_fleet_on` with a [`TimedStrategy`],
/// tournaments through [`compose_tournament`].
pub fn execute_traced(input: Input, trace: &Arc<Trace>, root: SpanId) -> Output {
    match input {
        Input::Fleets(runs) => run_fleets(runs, Some((trace, root))),
        Input::Tournament(config) => {
            Output::Tournament(Box::new(compose_tournament(*config, trace, root)))
        }
    }
}

/// The chaos scenario a cell under `regime` runs with, as
/// `TournamentConfig` chooses it.
fn scenario_for(config: &TournamentConfig, regime: MarketRegime) -> Option<chaos::ChaosScenario> {
    match &config.chaos {
        TournamentChaos::Off => None,
        TournamentChaos::RegimeMatched => chaos::for_regime(regime),
        TournamentChaos::Fixed(scenario) => Some(scenario.clone()),
    }
}

/// The tournament's cells, built as `TournamentConfig` builds them:
/// regime-major, then strategy, then seed, every cell traced.
fn tournament_cells(config: &TournamentConfig) -> Vec<FleetSweepCell> {
    let mut cells = Vec::with_capacity(config.cells());
    for &regime in &config.regimes {
        let scenario = scenario_for(config, regime);
        for strategy in &config.strategies {
            for rep in 0..config.reps {
                let seed = config.base_seed + rep;
                let mut fleet = config.fleet.clone();
                fleet.seed = seed;
                fleet.market.seed = seed;
                fleet.market = fleet.market.with_regime(regime);
                fleet.chaos = scenario.clone();
                fleet.trace = TraceConfig::enabled();
                let label = format!("{strategy}@{}/s{seed}", regime.name());
                cells.push(FleetSweepCell::new(label, strategy.clone(), fleet));
            }
        }
    }
    cells
}

/// The distinct markets a tournament's cells run on, in cell order.
pub fn tournament_markets(config: &TournamentConfig) -> Vec<MarketConfig> {
    let mut markets = Vec::new();
    for &regime in &config.regimes {
        for rep in 0..config.reps {
            let mut market = config.fleet.market;
            market.seed = config.base_seed + rep;
            let market = market.with_regime(regime);
            if !markets.contains(&market) {
                markets.push(market);
            }
        }
    }
    markets
}

/// One regime's leaderboard rows, ranked as `run_tournament` ranks them:
/// completions, then cost, then mean makespan, then name.
fn rank_rows(strategies: &[String], slice: &[FleetCellOutcome]) -> Vec<TournamentRow> {
    let mut rows: Vec<TournamentRow> = strategies
        .iter()
        .map(|strategy| {
            let mut row = TournamentRow {
                rank: 0,
                strategy: strategy.clone(),
                cells: 0,
                completed: 0,
                workloads: 0,
                cost: 0.0,
                mean_makespan_hours: 0.0,
                interruptions: 0,
            };
            let mut makespan_hours = 0.0;
            for outcome in slice.iter().filter(|o| &o.strategy == strategy) {
                let Some(report) = outcome.report() else {
                    continue;
                };
                let agg = &report.aggregate;
                row.cells += 1;
                row.completed += agg.completed;
                row.workloads += agg.workloads;
                row.cost += agg.cost.total.amount();
                row.interruptions += agg.interruptions;
                makespan_hours += agg.makespan.as_hours_f64();
            }
            if row.cells > 0 {
                row.mean_makespan_hours = makespan_hours / row.cells as f64;
            }
            row
        })
        .collect();
    rows.sort_by(|a, b| {
        b.completed
            .cmp(&a.completed)
            .then_with(|| a.cost.total_cmp(&b.cost))
            .then_with(|| a.mean_makespan_hours.total_cmp(&b.mean_makespan_hours))
            .then_with(|| a.strategy.cmp(&b.strategy))
    });
    for (i, row) in rows.iter_mut().enumerate() {
        row.rank = i + 1;
    }
    rows
}

/// `run_tournament` + `render_tournament`, composed from the layers'
/// public calls so each can be timed: market builds, `run_fleet_matrix`
/// (with timed strategies), per regime `merged_fleet_trace_jsonl`,
/// `replay_str`, `win_matrix` and the ranking fold, then
/// `render_tournament`.
///
/// `run_tournament` builds its markets on the sweep workers, out of the
/// caller's sight; here each distinct market is built through the same
/// cache before the matrix, so the build shows as its own span and every
/// lookup inside the matrix hits. Markets are a pure function of their
/// configuration, so the report is the same.
pub fn compose_tournament(
    config: TournamentConfig,
    trace: &Arc<Trace>,
    root: SpanId,
) -> TournamentOutput {
    let root = Some(root);
    let cells = tournament_cells(&config);
    let cache = MarketCache::new();
    for market in tournament_markets(&config) {
        trace.record("cloud-market.build", root, |_| cache.get_or_build(market));
    }

    let allocs = CountingAlloc::allocations();
    let outcomes = trace.record("sweep.run_fleet_matrix", root, |matrix| {
        run_fleet_matrix(&cells, TOURNAMENT_JOBS, &cache, |cell| {
            let inner = strategies::build(&cell.strategy);
            Box::new(TimedStrategy::new(inner, Arc::clone(trace), matrix))
        })
    });
    let matrix_allocs = CountingAlloc::allocations() - allocs;

    let block = config.strategies.len() * config.reps as usize;
    let mut failed = Vec::new();
    let mut standings = Vec::with_capacity(config.regimes.len());
    let mut replays = Vec::with_capacity(config.regimes.len());
    let (mut trace_bytes, mut replay_lines, mut replay_allocs) = (0, 0, 0);
    for (r, &regime) in config.regimes.iter().enumerate() {
        let slice = &outcomes[r * block..(r + 1) * block];
        failed.extend(slice.iter().filter(|o| !o.is_ok()).map(|o| o.label.clone()));
        let rows = trace.record("tournament.rank", root, |_| {
            rank_rows(&config.strategies, slice)
        });
        let merged = trace.record("trace.merged_fleet_trace_jsonl", root, |_| {
            merged_fleet_trace_jsonl(slice)
        });
        trace_bytes += merged.len();
        replay_lines += merged.lines().count();
        let allocs = CountingAlloc::allocations();
        let state = trace.record("replay.replay_str", root, |_| {
            replay_str(&merged, TimeWindow::ALL).expect("tournament traces replay cleanly")
        });
        replay_allocs += CountingAlloc::allocations() - allocs;
        let wins = trace.record("tournament.win_matrix", root, |_| win_matrix(&state));
        standings.push(RegimeStanding {
            regime,
            chaos: scenario_for(&config, regime).map(|s| s.name().to_owned()),
            rows,
            wins,
        });
        replays.push(state);
    }
    let report = TournamentReport {
        standings,
        reps: config.reps,
        failed,
    };
    let rendered = trace.record("tournament.render_tournament", root, |_| {
        render_tournament(&report)
    });
    TournamentOutput {
        config,
        report,
        rendered,
        cache,
        cells: Some(TournamentCells {
            outcomes,
            replays,
            trace_bytes,
            replay_lines,
            replay_allocs,
            matrix_allocs,
        }),
    }
}
