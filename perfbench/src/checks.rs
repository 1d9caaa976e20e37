//! Output checks. Each op's output is checked after its timer stops; a
//! check that fails makes the op count as failed.

use std::collections::BTreeMap;

use spotverse::{CellState, FleetReport, ReplayState};

use crate::workloads::{tournament_markets, Output, TournamentCells, TournamentOutput};

/// Additive per-op counts behind the per-layer metrics, by metric name.
pub type Counts = BTreeMap<&'static str, f64>;

/// What a checked op contributes to the run.
#[derive(Debug, Clone, PartialEq)]
pub struct Checked {
    /// Simulated workloads the op finished (completed or expired). For a
    /// tournament run through `run_tournament`, whose report has no
    /// expiry count, the workloads entered.
    pub finished: usize,
    /// Exact outcome digest; two runs of one op seed must agree on it.
    pub digest: String,
    /// Additive counts for the per-layer metrics.
    pub counts: Counts,
}

macro_rules! ensure {
    ($cond:expr, $($msg:tt)+) => {
        if let false = $cond {
            return Err(format!($($msg)+));
        }
    };
}

/// A fleet op's outcome digest: completions, expiries, events,
/// interruptions and billed cost to the cent.
pub fn fleet_digest(report: &FleetReport) -> String {
    let agg = &report.aggregate;
    format!(
        "completed={} expired={} events={} interruptions={} cost_cents={}",
        agg.completed,
        report.expired,
        report.events,
        agg.interruptions,
        (agg.cost.total.amount() * 100.0).round() as i64,
    )
}

/// Every workload entered either completed or expired.
pub fn check_fleet(report: &FleetReport, workloads: usize) -> Result<(), String> {
    let agg = &report.aggregate;
    ensure!(
        agg.workloads == workloads,
        "report covers {} of {workloads} workloads",
        agg.workloads
    );
    ensure!(
        agg.completed + report.expired == workloads,
        "completed {} + expired {} != {workloads} workloads",
        agg.completed,
        report.expired
    );
    Ok(())
}

/// A fleet report's figures as they appear in [`Counts`].
fn add_fleet(counts: &mut Counts, report: &FleetReport) {
    let agg = &report.aggregate;
    let figures = [
        ("fleet.events", report.events),
        ("fleet.workloads", agg.workloads as u64),
        ("fleet.capacity_deferrals", report.capacity_deferrals),
        (
            "cloud-compute.launches",
            agg.launches_by_region.values().sum(),
        ),
        ("cloud-compute.spot_attempts", agg.spot_attempts),
        ("cloud-compute.spot_fulfilments", agg.spot_fulfillments),
        ("cloud-compute.interruptions", agg.interruptions),
        ("aws-stack.checkpoint_writes", agg.checkpoints.writes),
        (
            "aws-stack.throttled_retries",
            agg.checkpoints.throttled_retries,
        ),
        ("health.breaker_trips", agg.resilience.breaker_trips),
        (
            "health.quarantined_decisions",
            agg.resilience.quarantined_decisions,
        ),
        ("health.stale_serves", agg.resilience.freshness.stale_serves),
    ];
    for (name, value) in figures {
        *counts.entry(name).or_default() += value as f64;
    }
    if let Some(trace) = &agg.trace {
        *counts.entry("trace.records").or_default() += trace.events.len() as f64;
        *counts.entry("trace.dropped").or_default() += trace.dropped as f64;
    }
}

/// Checks an op's output and derives its digest and counts.
pub fn check(output: &Output) -> Result<Checked, String> {
    match output {
        Output::Fleets(runs) => {
            let mut counts = Counts::new();
            let mut digests = Vec::with_capacity(runs.len());
            for (report, market, workloads) in runs {
                let strategy = &report.aggregate.strategy;
                check_fleet(report, *workloads).map_err(|e| format!("{strategy}: {e}"))?;
                add_fleet(&mut counts, report);
                let segments = market.materialized_segments().0 as f64;
                *counts.entry("cloud-market.builds").or_default() += 1.0;
                *counts.entry("cloud-market.segments").or_default() += segments;
                digests.push(format!("{strategy}: {}", fleet_digest(report)));
            }
            let finished = runs.iter().map(|(_, _, workloads)| workloads).sum();
            Ok(Checked {
                finished,
                digest: digests.join("\n"),
                counts,
            })
        }
        Output::Tournament(out) => check_tournament(out),
    }
}

/// Checks a tournament: no failed cell and a complete, ranked
/// leaderboard; for a composed run, also every cell (see [`check_cells`]).
pub fn check_tournament(out: &TournamentOutput) -> Result<Checked, String> {
    let TournamentOutput {
        config,
        report,
        rendered,
        cache,
        cells,
    } = out;
    ensure!(
        report.failed.is_empty(),
        "failed cells: {}",
        report.failed.join(", ")
    );
    ensure!(
        report.standings.len() == config.regimes.len(),
        "{} standings for {} regimes",
        report.standings.len(),
        config.regimes.len()
    );
    let fleet = config.fleet.workloads.len();
    let mut entered = 0;
    for standing in &report.standings {
        let name = standing.regime.name();
        ensure!(
            standing.rows.len() == config.strategies.len(),
            "{name}: {} rows for {} strategies",
            standing.rows.len(),
            config.strategies.len()
        );
        for (i, row) in standing.rows.iter().enumerate() {
            ensure!(row.rank == i + 1, "{name}: row {i} ranked {}", row.rank);
            ensure!(
                row.cells as u64 == config.reps && row.workloads == fleet * row.cells,
                "{name}/{}: {} cells with {} workloads",
                row.strategy,
                row.cells,
                row.workloads
            );
            ensure!(
                row.completed <= row.workloads,
                "{name}/{}: completed {} of {}",
                row.strategy,
                row.completed,
                row.workloads
            );
            entered += row.workloads;
        }
    }

    let mut counts = Counts::new();
    let requests = cache.hits() + cache.misses();
    counts.insert("cloud-market.builds", cache.misses() as f64);
    counts.insert("cloud-market.cache_hits", cache.hits() as f64);
    counts.insert("cloud-market.cache_requests", requests as f64);
    let mut finished = entered;
    if let Some(cells) = cells {
        finished = check_cells(cells, config.regimes.len())?;
        for outcome in &cells.outcomes {
            add_fleet(&mut counts, outcome.report().expect("checked above"));
        }
        let recovered = cells.outcomes.iter().filter(|o| o.recovered()).count();
        counts.insert("sweep.cells", cells.outcomes.len() as f64);
        counts.insert("sweep.failed_cells", report.failed.len() as f64);
        counts.insert("sweep.recovered_cells", recovered as f64);
        counts.insert("trace.bytes", cells.trace_bytes as f64);
        counts.insert("replay.lines", cells.replay_lines as f64);
        counts.insert("replay.allocs", cells.replay_allocs as f64);
        counts.insert("fleet.allocs", cells.matrix_allocs as f64);
    }
    let segments: usize = tournament_markets(config)
        .into_iter()
        .map(|market| cache.get_or_build(market).materialized_segments().0)
        .sum();
    counts.insert("cloud-market.segments", segments as f64);
    Ok(Checked {
        finished,
        digest: rendered.clone(),
        counts,
    })
}

/// Checks every cell of a composed tournament: it produced a report in
/// which every workload completed or expired, its trace dropped nothing,
/// and the replay of its regime's merged trace reproduces the report's
/// figures ([`reconcile`]). Returns the workloads finished.
pub fn check_cells(cells: &TournamentCells, regimes: usize) -> Result<usize, String> {
    ensure!(
        cells.replays.len() == regimes,
        "{} replays for {regimes} regimes",
        cells.replays.len()
    );
    let block = cells.outcomes.len() / regimes;
    let mut finished = 0;
    for (i, outcome) in cells.outcomes.iter().enumerate() {
        let label = &outcome.label;
        let report = outcome
            .result
            .as_ref()
            .map_err(|e| format!("{label}: {e}"))?;
        let workloads = report.aggregate.workloads;
        check_fleet(report, workloads).map_err(|e| format!("{label}: {e}"))?;
        let trace = report
            .aggregate
            .trace
            .as_ref()
            .ok_or(format!("{label}: no trace"))?;
        ensure!(
            trace.dropped == 0,
            "{label}: trace dropped {} records",
            trace.dropped
        );
        let cell = replayed_cell(&cells.replays[i / block], label)?;
        reconcile(cell, report).map_err(|e| format!("{label}: {e}"))?;
        finished += workloads;
    }
    Ok(finished)
}

fn replayed_cell<'a>(state: &'a ReplayState, label: &str) -> Result<&'a CellState, String> {
    state
        .cells
        .iter()
        .find(|(key, _)| key == label)
        .map(|(_, cell)| cell)
        .ok_or(format!("{label}: missing from its regime's replay"))
}

/// The figures a cell's replayed trace must reproduce from its live
/// report: the ones the repository's replay reconciliation tests pin.
pub fn reconcile(cell: &CellState, report: &FleetReport) -> Result<(), String> {
    let agg = &report.aggregate;
    let s = &cell.summary;
    ensure!(
        s.strategy.as_deref() == Some(agg.strategy.as_str()),
        "strategy {:?}",
        s.strategy
    );
    ensure!(
        s.workloads == Some(agg.workloads),
        "fleet size {:?}",
        s.workloads
    );
    ensure!(
        s.completed == agg.completed,
        "completions {} != {}",
        s.completed,
        agg.completed
    );
    if agg.completed > 0 {
        ensure!(
            s.makespan_secs() == Some(agg.makespan.as_secs()),
            "makespan {:?} != {}",
            s.makespan_secs(),
            agg.makespan.as_secs()
        );
    }

    let launches: u64 = cell
        .ledger
        .active()
        .map(|(_, l)| l.spot_launches + l.on_demand_launches)
        .sum();
    ensure!(
        launches == agg.launches_by_region.values().sum::<u64>(),
        "launches {launches} != {}",
        agg.launches_by_region.values().sum::<u64>()
    );
    for (region, l) in cell.ledger.active() {
        let live = agg.launches_by_region.get(&region).copied().unwrap_or(0);
        ensure!(
            l.spot_launches + l.on_demand_launches == live,
            "launches in {region}"
        );
        let live = agg
            .interruptions_by_region
            .get(&region)
            .copied()
            .unwrap_or(0);
        ensure!(l.interruptions == live, "interruptions in {region}");
    }
    let interruptions: u64 = cell.ledger.active().map(|(_, l)| l.interruptions).sum();
    ensure!(
        interruptions == agg.interruptions,
        "interruptions {interruptions} != {}",
        agg.interruptions
    );
    if agg.completed == agg.workloads {
        let billed = (agg.cost.spot_instances + agg.cost.on_demand_instances).amount();
        ensure!(
            (cell.ledger.billed_total() - billed).abs() < 1e-6,
            "billed {} != {billed}",
            cell.ledger.billed_total()
        );
    }

    ensure!(
        cell.breakers.total_trips() == agg.resilience.breaker_trips,
        "breaker trips"
    );
    let rs = &cell.resilience;
    let fresh = &agg.resilience.freshness;
    ensure!(rs.stale_serves == fresh.stale_serves, "stale serves");
    ensure!(
        rs.degraded_seconds == fresh.degraded_time.as_secs(),
        "degraded seconds"
    );
    ensure!(
        cell.checkpoints.saves == agg.checkpoints.writes,
        "checkpoint writes"
    );
    ensure!(
        cell.checkpoints.torn == agg.checkpoints.torn_writes,
        "torn writes"
    );
    ensure!(
        cell.checkpoints.scratch_restores == agg.checkpoints.scratch_restarts,
        "scratch restarts"
    );

    let occ = &cell.occupancy;
    ensure!(
        occ.arrived as usize == agg.workloads,
        "arrivals {} != {}",
        occ.arrived,
        agg.workloads
    );
    ensure!(
        occ.expired as usize == report.expired,
        "expiries {} != {}",
        occ.expired,
        report.expired
    );
    ensure!(
        occ.deferred == report.capacity_deferrals,
        "deferrals {} != {}",
        occ.deferred,
        report.capacity_deferrals
    );
    Ok(())
}

/// Two runs of one op seed must produce the same digest.
pub fn check_same(op: u64, first: &str, again: &str) -> Result<(), String> {
    ensure!(
        first == again,
        "op {op} differs between runs of its seed:\n{first}\n---\n{again}"
    );
    Ok(())
}

/// Ops attempted and failed in one run, and the digest each op index
/// first produced.
#[derive(Debug, Default)]
pub struct Tally {
    /// Ops run.
    pub attempted: u64,
    /// Ops that panicked or failed a check.
    pub failed: u64,
    digests: BTreeMap<u64, String>,
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => payload
            .downcast_ref::<&str>()
            .map_or("op panicked", |s| s)
            .to_owned(),
    }
}

impl Tally {
    /// Settles op `op` from its output or panic. A panic, a failed
    /// [`check`], or a digest other than the one an earlier run of the
    /// same op produced counts the op as failed.
    pub fn settle(
        &mut self,
        op: u64,
        output: std::thread::Result<Output>,
    ) -> Result<Checked, String> {
        self.attempted += 1;
        let checked = output
            .map_err(panic_message)
            .and_then(|out| check(&out))
            .and_then(|c| self.same_digest(op, &c.digest).map(|()| c));
        if checked.is_err() {
            self.failed += 1;
        }
        checked
    }

    /// Keeps `digest` as op `op`'s, or checks it against the one kept.
    pub fn same_digest(&mut self, op: u64, digest: &str) -> Result<(), String> {
        match self.digests.get(&op) {
            Some(first) => check_same(op, first, digest),
            None => {
                self.digests.insert(op, digest.to_owned());
                Ok(())
            }
        }
    }

    /// The digest op `op` first produced.
    pub fn digest(&self, op: u64) -> Option<&str> {
        self.digests.get(&op).map(String::as_str)
    }

    /// Every op's first digest, by op index.
    pub fn digests(&self) -> impl Iterator<Item = (u64, &str)> {
        self.digests.iter().map(|(op, d)| (*op, d.as_str()))
    }
}
