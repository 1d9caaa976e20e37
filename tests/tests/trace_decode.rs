//! The trace-line decoder against the writer, beyond the goldens.
//!
//! - A generative round trip over every `TraceEvent` variant: optional
//!   fields present and absent, tenant and priority arrays, cell prefixes
//!   that need escaping (quotes, backslashes, control and multi-byte
//!   characters), and awkward floats. Every rendered line must decode to
//!   the record that was rendered and re-render byte-identically.
//! - A corruption sweep over two goldens: every truncated prefix and a
//!   fixed set of byte substitutions of every line must come back `Ok` or
//!   as an error naming that line, and never panic.

use std::collections::BTreeSet;
use std::fs;
use std::path::PathBuf;

use cloud_compute::InstanceId;
use cloud_market::Region;
use sim_kernel::{SimDuration, SimRng, SimTime};
use spotverse::replay::parse_trace_line;
use spotverse::trace::append_truncation_json;
use spotverse::{
    append_record_json, parse_trace_jsonl, trace_lines_to_jsonl, BreakerState, CandidateOutcome,
    CandidateVerdict, DecisionKind, Placement, TraceEvent, TraceLine, TraceRecord,
};

/// Number of `TraceEvent` variants; the round trip must reach them all.
const VARIANTS: usize = 25;

/// Records generated per variant.
const PER_VARIANT: usize = 120;

/// Floats whose shortest round-trip text is awkward: long mantissas,
/// exponent forms at both ends, the smallest subnormal, negative zero.
const AWKWARD_FLOATS: [f64; 9] =
    [0.1 + 0.2, 1e-7, 1e21, 5e-324, -0.0, f64::MAX, f64::MIN_POSITIVE, 123_456_789.123_456_78, 2.0];

/// Pieces cell labels and free-text fields are built from: plain text,
/// characters the writer must escape, and multi-byte characters.
const LABEL_PIECES: [&str; 12] =
    ["spotverse", "@baseline/s7", "\"", "\\", "\n", "\t", "\u{1}", "/", " ", "é", "€", "🚀"];

struct Gen(SimRng);

impl Gen {
    fn below(&mut self, n: u64) -> u64 {
        self.0.uniform_u64(n)
    }

    fn flip(&mut self) -> bool {
        self.0.chance(0.5)
    }

    fn u64(&mut self) -> u64 {
        match self.below(4) {
            0 => self.below(10),
            1 => self.below(1 << 20),
            2 => self.0.next_u64(),
            _ => u64::MAX - self.below(3),
        }
    }

    fn usize(&mut self) -> usize {
        self.u64() as usize
    }

    fn u32(&mut self) -> u32 {
        self.u64() as u32
    }

    fn f64(&mut self) -> f64 {
        if self.flip() {
            AWKWARD_FLOATS[self.0.pick_index(AWKWARD_FLOATS.len())]
        } else {
            self.0.uniform_range(0.0, 1e4)
        }
    }

    fn opt<T>(&mut self, make: impl FnOnce(&mut Self) -> T) -> Option<T> {
        self.flip().then(|| make(self))
    }

    fn region(&mut self) -> Region {
        Region::ALL[self.0.pick_index(Region::ALL.len())]
    }

    fn regions(&mut self) -> Vec<Region> {
        let n = self.below(4);
        (0..n).map(|_| self.region()).collect()
    }

    fn label(&mut self) -> String {
        let n = 1 + self.below(5);
        (0..n).map(|_| LABEL_PIECES[self.0.pick_index(LABEL_PIECES.len())]).collect()
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.0.pick_index(items.len())]
    }

    fn breaker(&mut self) -> BreakerState {
        self.pick(&[BreakerState::Closed, BreakerState::Open, BreakerState::HalfOpen])
    }

    fn placement(&mut self) -> Placement {
        let region = self.region();
        if self.flip() {
            Placement::Spot(region)
        } else {
            Placement::OnDemand(region)
        }
    }

    fn candidate(&mut self) -> CandidateVerdict {
        let outcome = match self.below(6) {
            0 => CandidateOutcome::Selected { rank: self.usize() },
            1 => CandidateOutcome::Quarantined,
            2 => CandidateOutcome::NotPreferred,
            3 => CandidateOutcome::BelowThreshold,
            4 => CandidateOutcome::OverCap,
            _ => CandidateOutcome::InterruptedHere,
        };
        CandidateVerdict {
            region: self.region(),
            combined: self.below(256) as u8,
            spot_price: self.f64(),
            outcome,
        }
    }

    /// One event of variant number `variant` (declaration order).
    fn event(&mut self, variant: usize) -> TraceEvent {
        match variant {
            0 => TraceEvent::RunStarted {
                strategy: self.label(),
                seed: self.u64(),
                workloads: self.usize(),
                chaos: self.opt(Self::label),
                regime: self.opt(Self::label),
            },
            1 => TraceEvent::CollectionFailed { retryable: self.flip() },
            2 => TraceEvent::StaleServe { age: SimDuration::from_secs(self.u64()) },
            3 => TraceEvent::DegradedDecision { age: SimDuration::from_secs(self.u64()) },
            4 => TraceEvent::DegradedInterval { duration: SimDuration::from_secs(self.u64()) },
            5 => TraceEvent::Decision {
                kind: self.pick(&[DecisionKind::Initial, DecisionKind::Migration]),
                workload: self.opt(Self::usize),
                previous: self.opt(Self::region),
                degraded: self.flip(),
                quarantined: self.regions(),
                candidates: self.opt(|g| (0..g.below(13)).map(|_| g.candidate()).collect()),
                placements: (0..self.below(5)).map(|_| self.placement()).collect(),
            },
            6 => TraceEvent::Launched {
                workload: self.usize(),
                region: self.region(),
                spot: self.flip(),
                instance: InstanceId::from_raw(self.u64()),
            },
            7 => TraceEvent::RequestOpen {
                workload: self.usize(),
                region: self.region(),
                blackout: self.flip(),
            },
            8 => TraceEvent::RequestFailed { workload: self.usize(), region: self.region() },
            9 => TraceEvent::Interrupted {
                workload: self.usize(),
                region: self.region(),
                instance: InstanceId::from_raw(self.u64()),
                billed: self.f64(),
            },
            10 => TraceEvent::CheckpointSave {
                workload: self.usize(),
                generation: self.u64(),
                units: self.usize(),
                recorded: self.flip(),
            },
            11 => TraceEvent::CheckpointTorn { workload: self.usize(), generation: self.u64() },
            12 => TraceEvent::CheckpointRestore {
                workload: self.usize(),
                units: self.usize(),
                corrupt_dropped: self.u64(),
                scratch: self.flip(),
            },
            13 => TraceEvent::Completed {
                workload: self.usize(),
                region: self.region(),
                instance: InstanceId::from_raw(self.u64()),
                billed: self.f64(),
            },
            14 => TraceEvent::Breaker {
                region: self.region(),
                from: self.breaker(),
                to: self.breaker(),
            },
            15 => TraceEvent::ChaosFault {
                kind: self.pick(&[
                    "spot_blackout",
                    "chaos_interruption",
                    "notice_shortened",
                    "checkpoint_corruption",
                ]),
                region: self.opt(Self::region),
            },
            16 => {
                let n = self.below(4) as usize;
                TraceEvent::WorkloadsArrived {
                    batch: (0..n).map(|_| self.usize()).collect(),
                    // The writer omits empty arrays, so a batch with
                    // labels has one per entry and none otherwise.
                    tenants: if n > 0 && self.flip() {
                        (0..n).map(|_| self.label()).collect()
                    } else {
                        Vec::new()
                    },
                    priorities: if n > 0 && self.flip() {
                        (0..n).map(|_| self.pick(&["batch", "standard", "interactive"])).collect()
                    } else {
                        Vec::new()
                    },
                }
            }
            17 => TraceEvent::CapacityDeferred { workload: self.usize(), region: self.region() },
            18 => TraceEvent::WorkloadExpired {
                workload: self.usize(),
                region: self.opt(Self::region),
                billed: self.opt(Self::f64),
            },
            19 => TraceEvent::ShardDispatched {
                shard: self.usize(),
                attempt: self.u32(),
                cells: self.usize(),
            },
            20 => TraceEvent::LeaseExpired { shard: self.usize(), attempt: self.u32() },
            21 => TraceEvent::ShardRedriven {
                shard: self.usize(),
                attempt: self.u32(),
                backoff_s: self.u64(),
            },
            22 => TraceEvent::ShardDeadLettered { shard: self.usize(), attempts: self.u32() },
            23 => TraceEvent::ShardCompleted {
                shard: self.usize(),
                attempt: self.u32(),
                duplicate: self.flip(),
            },
            24 => TraceEvent::RunEnded { completed: self.usize(), aborted: self.flip() },
            _ => unreachable!("{VARIANTS} variants"),
        }
    }
}

/// Renders one line, checks it decodes to `expected` and re-renders to
/// the same bytes.
fn assert_round_trip(rendered: &str, expected: &TraceLine) {
    let parsed =
        parse_trace_line(rendered).unwrap_or_else(|e| panic!("`{rendered}` must decode, got {e}"));
    assert_eq!(&parsed, expected, "`{rendered}` decoded to a different line");
    assert_eq!(
        trace_lines_to_jsonl(std::slice::from_ref(&parsed)),
        format!("{rendered}\n"),
        "re-rendering must be byte-identical"
    );
}

#[test]
fn every_variant_round_trips() {
    let mut g = Gen(SimRng::seed_from_u64(13));
    let mut labels = BTreeSet::new();
    for variant in 0..VARIANTS {
        for _ in 0..PER_VARIANT {
            let record = TraceRecord {
                seq: g.u64(),
                at: SimTime::from_secs(g.u64()),
                event: g.event(variant),
            };
            labels.insert(record.event.label());
            let cell = g.opt(Gen::label);
            let mut rendered = String::new();
            append_record_json(&mut rendered, cell.as_deref(), &record);
            assert_round_trip(&rendered, &TraceLine::Record { cell, record });
        }
    }
    assert_eq!(labels.len(), VARIANTS, "every variant was generated: {labels:?}");

    for _ in 0..PER_VARIANT {
        let (cell, dropped) = (g.opt(Gen::label), g.u64());
        let mut rendered = String::new();
        append_truncation_json(&mut rendered, cell.as_deref(), dropped);
        assert_round_trip(&rendered, &TraceLine::Truncated { cell, dropped });
    }
}

fn golden(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden").join(name);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("missing golden {} ({e})", path.display()))
}

/// Parses `line` as the second line of a document and checks the result
/// is `Ok` or an error naming line 2. Returns whether it parsed.
fn parses_as_line_two(line: &str) -> bool {
    const FIRST: &str = "{\"seq\":0,\"t\":0,\"event\":\"stale_serve\",\"age_s\":1}";
    match parse_trace_jsonl(&format!("{FIRST}\n{line}\n")) {
        Ok(_) => true,
        Err(e) => {
            assert_eq!(e.line, 2, "`{line}`: error names the wrong line: {e}");
            false
        }
    }
}

/// Sweeps the lines of golden `name` whose index is `part` modulo
/// `parts` (the sweep is split so its tests run in parallel).
fn corruption_sweep(name: &str, part: usize, parts: usize) {
    // Bytes that break structure, escapes, numbers and UTF-8 expectations
    // (the last replaces one byte with the two of `é`, 0xC3 0xA9).
    const SUBSTITUTES: [&str; 8] = ["\"", "\\", "}", ",", ":", "7", " ", "é"];
    let doc = golden(name);
    assert!(doc.is_ascii(), "{name}: byte offsets below are char boundaries");
    let (mut accepted, mut rejected) = (0, 0);
    for line in doc.lines().skip(part).step_by(parts) {
        for cut in 0..line.len() {
            assert!(!parses_as_line_two(&line[..cut]), "`{}` is a strict prefix", &line[..cut]);
            rejected += 1;
        }
        for at in 0..line.len() {
            for sub in SUBSTITUTES {
                let corrupted = format!("{}{sub}{}", &line[..at], &line[at + 1..]);
                if parses_as_line_two(&corrupted) {
                    accepted += 1;
                } else {
                    rejected += 1;
                }
            }
        }
    }
    assert!(accepted > 0 && rejected > 0, "{name}: the sweep exercised both outcomes");
}

#[test]
fn corrupted_flap_golden_even_lines() {
    corruption_sweep("spotverse_genome10_seed2024_region_flap.jsonl", 0, 2);
}

#[test]
fn corrupted_flap_golden_odd_lines() {
    corruption_sweep("spotverse_genome10_seed2024_region_flap.jsonl", 1, 2);
}

#[test]
fn corrupted_fleet_golden() {
    corruption_sweep("fleet_ngs3_seed2024_cap1.jsonl", 0, 1);
}
