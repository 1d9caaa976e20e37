//! `spotverse analyse` after truncation. A cell whose trace ring dropped
//! records cannot know its completions or makespan, and has seen only
//! part of its spend: the analysis prints `unknown` and a `≥` lower bound,
//! marks the cell `lower_bound` in JSON, and leaves it out of the
//! strategy distributions and the win matrix. Complete cells beside it
//! are reported as before.

use bio_workloads::WorkloadKind;
use spotverse::replay::{strategy_distributions, win_matrix};
use spotverse::{
    merged_fleet_trace_jsonl, render_analysis, render_analysis_json, replay_str, run_fleet_matrix,
    FleetSweepCell, MarketCache, OnDemandStrategy, Strategy, TimeWindow, TraceConfig,
};
use spotverse_integration::{fleet_config, spotverse_strategy};

/// Records the capped cell keeps: far fewer than its run emits.
const CAPACITY: usize = 12;

#[test]
fn truncated_cells_report_unknowns_and_lower_bounds() {
    let mut full = fleet_config(WorkloadKind::NgsPreprocessing, 6, 41);
    full.trace = TraceConfig::enabled();
    let mut capped = full.clone();
    capped.trace = TraceConfig { enabled: true, capacity: CAPACITY };
    let cells = [
        FleetSweepCell::new("on-demand/s41", "on-demand", full.clone()),
        FleetSweepCell::new("spotverse/capped", "spotverse", capped),
        FleetSweepCell::new("spotverse/s41", "spotverse", full),
    ];
    let outcomes = run_fleet_matrix(&cells, 1, &MarketCache::new(), |cell| -> Box<dyn Strategy> {
        match cell.strategy.as_str() {
            "on-demand" => Box::new(OnDemandStrategy::new()),
            _ => spotverse_strategy(),
        }
    });
    let state = replay_str(&merged_fleet_trace_jsonl(&outcomes), TimeWindow::ALL).unwrap();

    let capped = state.cell("spotverse/capped").expect("capped cell replayed");
    let complete = state.cell("spotverse/s41").expect("complete cell replayed");
    assert!(capped.dropped.is_some_and(|d| d > 0), "the cap must drop records");
    assert!(complete.dropped.is_none());
    // Tracing is observational, so both spotverse cells ran the same fleet:
    // the capped cell's spend is a floor under the complete cell's.
    assert!(capped.ledger.billed_total() < complete.ledger.billed_total());

    let text = render_analysis(&state);
    let block = |key: &str| {
        let start = text.find(&format!("cell {key}\n")).expect("cell rendered");
        let end = text[start + 1..].find("\ncell ").map_or(text.len(), |e| start + 1 + e);
        text[start..end].to_owned()
    };
    let capped_block = block("spotverse/capped");
    assert!(capped_block.contains(" completed=unknown "), "{capped_block}");
    assert!(
        capped_block.contains(&format!("billed=≥${:.2} ", capped.ledger.billed_total())),
        "{capped_block}"
    );
    assert!(capped_block.contains(" makespan=unknown "), "{capped_block}");
    // The per-region ledger lines are floors as well: every figure on
    // them carries the marker.
    let region_lines: Vec<&str> =
        capped_block.lines().filter(|l| l.starts_with("  region ")).collect();
    assert!(!region_lines.is_empty(), "{capped_block}");
    for line in &region_lines {
        for field in ["spot=≥", "od=≥", "intr=≥", "done=≥", "exp=≥", "billed=≥$"] {
            assert!(line.contains(field), "{field} missing on {line:?}");
        }
    }
    for key in ["spotverse/s41", "on-demand/s41"] {
        let complete_block = block(key);
        assert!(!complete_block.contains("unknown") && !complete_block.contains('≥'));
        assert!(complete_block.contains(" completed=6 "), "{complete_block}");
    }
    assert!(text.contains("distributions (3 cells, 1 truncated left out)"), "{text}");

    let json = render_analysis_json(&state);
    assert_eq!(json.matches("\"lower_bound\":true").count(), 1, "{json}");
    assert_eq!(json.matches("\"makespan_s\":").count(), 2, "only complete cells: {json}");

    let dists = strategy_distributions(&state);
    let spotverse = dists.iter().find(|d| d.strategy == "spotverse").unwrap();
    assert_eq!(spotverse.cells, 1, "the capped cell is left out");
    let wins = win_matrix(&state);
    assert_eq!(wins.strategies, ["on-demand", "spotverse"]);
    assert_eq!(wins.contested_seeds, 1);
    let compared: u64 = wins.wins.iter().flatten().sum();
    assert!(compared <= 1, "one complete pair on the one seed: {:?}", wins.wins);
}
