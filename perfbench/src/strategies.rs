//! The built-in strategies as the CLI builds them, and the timing
//! decorator that times every strategy call.

use std::cell::Cell;
use std::sync::Arc;

use cloud_market::{InstanceType, Region};
use sim_kernel::SimDuration;
use spotverse::{
    BidPriceAwareStrategy, CandidateVerdict, CheckpointAdaptiveStrategy, NaiveMultiRegionStrategy,
    OnDemandStrategy, Placement, RegionAssessment, SingleRegionStrategy, SkyPilotStrategy,
    SpotVerseConfig, SpotVerseStrategy, Strategy, StrategyContext,
};

use crate::spans::{Open, SpanId, Trace};

/// The instance type every benchmark fleet runs on (the CLI default).
pub const INSTANCE_TYPE: InstanceType = InstanceType::M5Xlarge;

/// `spotverse tournament`'s default strategy list, in its order.
pub const ALL: [&str; 7] = [
    "single-region",
    "naive-multi",
    "skypilot",
    "spotverse",
    "on-demand",
    "bid-price",
    "checkpoint-adaptive",
];

/// A fresh strategy for `name`, with the CLI's defaults (threshold 6,
/// home region ca-central-1).
///
/// # Panics
///
/// Panics on a name outside [`ALL`]; the benchmark only passes its own
/// constants.
pub fn build(name: &str) -> Box<dyn Strategy> {
    match name {
        "spotverse" => Box::new(SpotVerseStrategy::new(
            SpotVerseConfig::builder(INSTANCE_TYPE).threshold(6).build(),
        )),
        "single-region" => Box::new(SingleRegionStrategy::new(Region::CaCentral1)),
        "on-demand" => Box::new(OnDemandStrategy::new()),
        "skypilot" => Box::new(SkyPilotStrategy::new()),
        "naive-multi" => Box::new(NaiveMultiRegionStrategy::paper_motivational()),
        "bid-price" => Box::new(BidPriceAwareStrategy::new()),
        "checkpoint-adaptive" => Box::new(CheckpointAdaptiveStrategy::new()),
        other => panic!("unknown strategy `{other}`"),
    }
}

/// Call name of `initial_placements_into`.
pub const PLACE: &str = "strategy.initial_placements";
/// Call name of `relocate`.
pub const RELOCATE: &str = "strategy.relocate";
/// Call name of `explain_candidates`.
const EXPLAIN: &str = "strategy.explain_candidates";
/// Call name of `checkpoint_interval`.
const CHECKPOINT: &str = "strategy.checkpoint_interval";
/// Span name of a fleet model's life, from its decorated strategy's
/// construction to its drop.
pub const MODEL: &str = "fleet.model";

/// A strategy that forwards every trait method to `inner` and times each
/// call.
///
/// The decorator records the [`MODEL`] span: it opens when the decorator
/// is built and closes when it is dropped. Built as `run_fleet_on`'s
/// argument and dropped with the fleet model near the call's end, it
/// brackets the run even where the call is made inside the library (the
/// sweep workers of `run_fleet_matrix`). A fleet run makes up to
/// millions of strategy calls, so they are folded into that span (total
/// time, charged to the `strategy` layer) and counted by name instead of
/// kept one by one; a call costs two clock reads.
#[derive(Debug)]
pub struct TimedStrategy {
    inner: Box<dyn Strategy>,
    trace: Arc<Trace>,
    model: Option<Open>,
    calls: Calls,
}

/// Strategy calls made so far: total time and count per method.
#[derive(Debug, Default)]
struct Calls {
    ns: Cell<u64>,
    counts: [Cell<u64>; 4],
}

impl Calls {
    /// Runs `call` as the `kind`-th method (an index into [`METHODS`]),
    /// adding its time and count.
    fn time<R>(&self, trace: &Trace, kind: usize, call: impl FnOnce() -> R) -> R {
        let start = trace.now_ns();
        let out = call();
        self.ns.set(self.ns.get() + (trace.now_ns() - start));
        self.counts[kind].set(self.counts[kind].get() + 1);
        out
    }
}

/// The decorated methods, in [`Calls::counts`] order.
const METHODS: [&str; 4] = [PLACE, RELOCATE, EXPLAIN, CHECKPOINT];

impl TimedStrategy {
    /// Decorates `inner`; its fleet model span is a child of `parent`.
    pub fn new(inner: Box<dyn Strategy>, trace: Arc<Trace>, parent: SpanId) -> Self {
        let model = Some(trace.open(MODEL, Some(parent)));
        TimedStrategy {
            inner,
            trace,
            model,
            calls: Calls::default(),
        }
    }
}

impl Drop for TimedStrategy {
    fn drop(&mut self) {
        if let Some(model) = self.model.take() {
            let mut span = model.end(self.trace.now_ns());
            span.folded = Some(("strategy", self.calls.ns.get()));
            self.trace.keep(span);
            for (name, count) in METHODS.iter().zip(&self.calls.counts) {
                self.trace.count(name, count.get());
            }
        }
    }
}

impl Strategy for TimedStrategy {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn initial_placements_into(
        &mut self,
        ctx: &mut StrategyContext<'_>,
        n: usize,
        out: &mut Vec<Placement>,
    ) {
        let TimedStrategy {
            inner,
            trace,
            calls,
            ..
        } = self;
        calls.time(trace, 0, || inner.initial_placements_into(ctx, n, out));
    }

    fn relocate(&mut self, ctx: &mut StrategyContext<'_>, previous_region: Region) -> Placement {
        let TimedStrategy {
            inner,
            trace,
            calls,
            ..
        } = self;
        calls.time(trace, 1, || inner.relocate(ctx, previous_region))
    }

    fn explain_candidates(
        &self,
        assessments: &[RegionAssessment],
        quarantined: &[Region],
        previous: Option<Region>,
    ) -> Option<Vec<CandidateVerdict>> {
        self.calls.time(&self.trace, 2, || {
            self.inner
                .explain_candidates(assessments, quarantined, previous)
        })
    }

    fn checkpoint_interval(&self, ctx: &StrategyContext<'_>) -> Option<SimDuration> {
        self.calls
            .time(&self.trace, 3, || self.inner.checkpoint_interval(ctx))
    }
}
