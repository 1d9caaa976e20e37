//! Read-side decoding of the canonical trace JSONL.
//!
//! [`parse_trace_line`] inverts `trace::append_record_json` exactly: every
//! event variant, every optional field, the merged-sweep `cell` prefix,
//! and the truncation marker line all decode back into typed values, so
//! `parse → re-serialize` is byte-identical for canonical input. Corrupt
//! input — truncated lines, bad JSON, unknown events or labels, wrong
//! field types, unexpected fields — fails with a structured error naming
//! the 1-based line number instead of panicking.
//!
//! The decoder is schema-directed and borrows from the line; no JSON tree
//! is built. One pass of the shared lexer (`json.rs`) records the line's
//! top-level fields in a fixed-size table: keys and strings as slices of
//! the line (unescaped only when they hold a `\`), numbers as their
//! source text, arrays as their bracket-matched source span. The `event`
//! label then picks its variant's fixed field list, each field is bound
//! to its entry and decoded straight into the [`TraceEvent`], and array
//! spans are walked once more, with their full grammar checked, to fill
//! the variant's vectors (sized up front). The only allocations are the ones a
//! [`TraceLine`] owns: the cell label, `run_started` strings, and the
//! vectors of `decision` and `workloads_arrived`. The replay cursor goes
//! through `decode_line`, which leaves the label borrowed, so folding a
//! trace allocates only those vectors.

use std::borrow::Cow;
use std::cell::Cell;
use std::fmt;
use std::str::FromStr;

use cloud_compute::InstanceId;
use cloud_market::Region;
use sim_kernel::{SimDuration, SimTime};

use crate::health::BreakerState;
use crate::optimizer::{CandidateOutcome, CandidateVerdict, Placement};
use crate::trace::{
    append_record_json, append_truncation_json, DecisionKind, TraceEvent, TraceRecord,
};

use super::json::{Lexer, RawStr, Scalar};

/// A structured parse failure: which line, and what was wrong with it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceParseError {
    /// 1-based line number in the JSONL document.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for TraceParseError {}

/// One parsed JSONL line: a trace record or the truncation marker, each
/// with the optional merged-sweep cell label.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceLine {
    /// A regular record.
    Record {
        /// The `"cell"` prefix of merged sweep traces, if present.
        cell: Option<String>,
        /// The typed record.
        record: TraceRecord,
    },
    /// The `{"truncated":true,...}` marker a capacity-capped trace ends
    /// with.
    Truncated {
        /// The `"cell"` prefix, if present.
        cell: Option<String>,
        /// Records dropped once the ring buffer filled.
        dropped: u64,
    },
}

impl TraceLine {
    /// The cell label, if any.
    pub fn cell(&self) -> Option<&str> {
        match self {
            TraceLine::Record { cell, .. } | TraceLine::Truncated { cell, .. } => cell.as_deref(),
        }
    }
}

/// Parses one canonical JSONL line. The error is a bare message; callers
/// that know the line number wrap it in [`TraceParseError`].
pub fn parse_trace_line(line: &str) -> Result<TraceLine, String> {
    let (label, mut parsed) = decode_line(line)?;
    match &mut parsed {
        TraceLine::Record { cell, .. } | TraceLine::Truncated { cell, .. } => {
            *cell = label.map(Cow::into_owned);
        }
    }
    Ok(parsed)
}

/// Decodes one line with its `cell` label split off and still borrowed
/// from the line (the returned [`TraceLine`] carries no cell), so the
/// replay cursor can fold the line under its label without allocating.
pub(crate) fn decode_line(line: &str) -> Result<(Option<Cow<'_, str>>, TraceLine), String> {
    let mut lx = Lexer::new(line);
    if lx.peek_token() != Some(b'{') {
        // Syntax errors outrank the type error, as for any other line.
        let other = value(&mut lx)?;
        lx.end()?;
        return Err(format!("expected an object, found {}", other.type_name()));
    }
    let mut f = Object::default();
    f.scan(&mut lx)?;
    lx.end()?;
    let [cell, truncated] = f.bind(["cell", "truncated"]);
    let label = cell.opt(Val::as_str)?;
    if let Some(truncated) = truncated.val {
        if !truncated.as_bool()? {
            return Err("`truncated` must be true".to_owned());
        }
        let dropped = f.field("dropped").req(Val::as_u64)?;
        f.finish()?;
        return Ok((label, TraceLine::Truncated { cell: None, dropped }));
    }
    let [seq, t, event] = f.bind(["seq", "t", "event"]);
    let seq = seq.req(Val::as_u64)?;
    let at = SimTime::from_secs(t.req(Val::as_u64)?);
    let event = decode_event(&event.req(Val::as_str)?, &f)?;
    f.finish()?;
    Ok((label, TraceLine::Record { cell: None, record: TraceRecord { seq, at, event } }))
}

/// Parses a whole canonical JSONL document.
///
/// # Errors
///
/// Returns a [`TraceParseError`] naming the first offending line.
pub fn parse_trace_jsonl(input: &str) -> Result<Vec<TraceLine>, TraceParseError> {
    input
        .lines()
        .enumerate()
        .map(|(i, line)| {
            parse_trace_line(line).map_err(|message| TraceParseError { line: i + 1, message })
        })
        .collect()
}

/// Re-serializes parsed lines to canonical JSONL (each line
/// newline-terminated). `trace_lines_to_jsonl(parse_trace_jsonl(doc))`
/// is byte-identical to `doc` for canonical input.
#[must_use]
pub fn trace_lines_to_jsonl(lines: &[TraceLine]) -> String {
    let mut out = String::new();
    for line in lines {
        match line {
            TraceLine::Record { cell, record } => {
                append_record_json(&mut out, cell.as_deref(), record);
            }
            TraceLine::Truncated { cell, dropped } => {
                append_truncation_json(&mut out, cell.as_deref(), *dropped);
            }
        }
        out.push('\n');
    }
    out
}

// ---------------------------------------------------------------------------
// Borrowed values and field tables.
// ---------------------------------------------------------------------------

/// Most fields one object may carry. The widest canonical line (a
/// `decision` with every optional field and a cell prefix) has 11.
const MAX_FIELDS: usize = 16;

/// A JSON value borrowed from the line: a scalar, an array kept as its
/// source span until a decoder walks it, or an object (which only
/// [`Val::objects`] decodes, as an array element).
#[derive(Debug, Clone, Copy)]
enum Val<'a> {
    Scalar(Scalar<'a>),
    /// An array's source text (brackets included) and element count.
    Arr {
        src: &'a str,
        len: usize,
    },
    /// An object outside an array.
    Obj,
}

impl Default for Val<'_> {
    fn default() -> Self {
        Val::Scalar(Scalar::Null)
    }
}

/// Scans one value. Arrays and objects are only skipped here, brackets
/// matched and strings scanned: the decoder that reads an array checks
/// its grammar as it walks it, and a value no decoder reads is an
/// unexpected field or a type error anyway.
fn value<'a>(lx: &mut Lexer<'a>) -> Result<Val<'a>, String> {
    match lx.peek_token() {
        Some(b'{') => {
            lx.skip_container()?;
            Ok(Val::Obj)
        }
        Some(b'[') => {
            let start = lx.pos();
            let len = lx.skip_container()?;
            Ok(Val::Arr { src: lx.since(start), len })
        }
        _ => lx.scalar().map(Val::Scalar),
    }
}

impl<'a> Val<'a> {
    fn type_name(&self) -> &'static str {
        match self {
            Val::Scalar(s) => s.type_name(),
            Val::Arr { .. } => "array",
            Val::Obj => "object",
        }
    }

    fn as_u64(&self) -> Result<u64, String> {
        match self {
            Val::Scalar(Scalar::Num(raw)) => {
                raw.parse::<u64>().map_err(|_| format!("`{raw}` is not an unsigned integer"))
            }
            other => Err(format!("expected an integer, found {}", other.type_name())),
        }
    }

    fn as_usize(&self) -> Result<usize, String> {
        let n = self.as_u64()?;
        usize::try_from(n).map_err(|_| format!("`{n}` exceeds usize"))
    }

    fn as_u32(&self) -> Result<u32, String> {
        let n = self.as_u64()?;
        u32::try_from(n).map_err(|_| format!("`{n}` exceeds u32"))
    }

    fn as_f64(&self) -> Result<f64, String> {
        match self {
            Val::Scalar(Scalar::Num(raw)) => {
                raw.parse::<f64>().map_err(|_| format!("`{raw}` is not a number"))
            }
            other => Err(format!("expected a number, found {}", other.type_name())),
        }
    }

    fn as_bool(&self) -> Result<bool, String> {
        match self {
            Val::Scalar(Scalar::Bool(b)) => Ok(*b),
            other => Err(format!("expected a bool, found {}", other.type_name())),
        }
    }

    fn as_str(&self) -> Result<Cow<'a, str>, String> {
        match self {
            Val::Scalar(Scalar::Str(s)) => Ok(s.text()),
            other => Err(format!("expected a string, found {}", other.type_name())),
        }
    }

    fn owned_str(&self) -> Result<String, String> {
        self.as_str().map(Cow::into_owned)
    }

    /// Decodes every element of an array into a vector sized up front;
    /// `decode` reads one element from the lexer.
    fn list<T>(
        &self,
        mut decode: impl FnMut(&mut Lexer<'a>) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        let Val::Arr { src, len } = self else {
            return Err(format!("expected an array, found {}", self.type_name()));
        };
        let mut out = Vec::with_capacity(*len);
        let mut lx = Lexer::new(src);
        if lx.open(b'[', b']')? {
            loop {
                out.push(decode(&mut lx)?);
                if !lx.more(b']')? {
                    break;
                }
            }
        }
        Ok(out)
    }

    /// [`Val::list`] of scalars.
    fn scalars<T>(
        &self,
        mut decode: impl FnMut(&Val<'a>) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.list(|lx| decode(&value(lx)?))
    }

    /// [`Val::list`] of objects, each scanned straight into one reused
    /// field table.
    fn objects<T>(
        &self,
        mut decode: impl FnMut(&Object<'a>) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        let mut table = Object::default();
        self.list(|lx| match lx.peek_token() {
            Some(b'{') => {
                table.scan(lx)?;
                decode(&table)
            }
            _ => Err(format!("expected an object, found {}", value(lx)?.type_name())),
        })
    }
}

/// One object's fields in source order, with the set a decoder has
/// bound so far: a field nobody binds is an unexpected field.
#[derive(Default)]
struct Object<'a> {
    keys: [RawStr<'a>; MAX_FIELDS],
    vals: [Val<'a>; MAX_FIELDS],
    len: usize,
    /// Bit `i` set once field `i` is bound.
    bound: Cell<u32>,
}

impl<'a> Object<'a> {
    /// Scans an object into this table, replacing what it held. A
    /// repeated key is left unbound by [`Object::bind`] and named by
    /// [`Object::finish`].
    fn scan(&mut self, lx: &mut Lexer<'a>) -> Result<(), String> {
        self.len = 0;
        self.bound.set(0);
        if !lx.open(b'{', b'}')? {
            return Ok(());
        }
        loop {
            let key = lx.key()?;
            if self.len == MAX_FIELDS {
                return lx
                    .err(format!("unexpected field `{}` (more than {MAX_FIELDS})", key.text()));
            }
            lx.colon()?;
            self.vals[self.len] = value(lx)?;
            self.keys[self.len] = key;
            self.len += 1;
            if !lx.more(b'}')? {
                return Ok(());
            }
        }
    }

    /// Binds each name of a fixed field list to the first unbound field
    /// of that name, if present.
    fn bind<const K: usize>(&self, names: [&'static str; K]) -> [Field<'_, 'a>; K] {
        let mut vals = [None; K];
        let mut bound = self.bound.get();
        for i in 0..self.len {
            if bound & (1 << i) != 0 {
                continue;
            }
            if let Some(j) = names.iter().position(|name| self.keys[i].is(name)) {
                if vals[j].is_none() {
                    vals[j] = Some(&self.vals[i]);
                    bound |= 1 << i;
                }
            }
        }
        self.bound.set(bound);
        std::array::from_fn(|j| Field { name: names[j], val: vals[j] })
    }

    fn field(&self, name: &'static str) -> Field<'_, 'a> {
        let [field] = self.bind([name]);
        field
    }

    /// Rejects the first field no decoder bound.
    fn finish(&self) -> Result<(), String> {
        let bound = self.bound.get();
        let Some(i) = (0..self.len).find(|i| bound & (1 << i) == 0) else {
            return Ok(());
        };
        let key = self.keys[i];
        if self.keys[..i].iter().any(|k| k.same(key)) {
            Err(format!("duplicate key `{}`", key.text()))
        } else {
            Err(format!("unexpected field `{}`", key.text()))
        }
    }
}

/// A schema field bound to its value, if the line carried it.
#[derive(Clone, Copy)]
struct Field<'o, 'a> {
    name: &'static str,
    val: Option<&'o Val<'a>>,
}

impl<'o, 'a> Field<'o, 'a> {
    /// Decodes a required field.
    fn req<T>(self, decode: impl FnOnce(&'o Val<'a>) -> Result<T, String>) -> Result<T, String> {
        decode(self.val.ok_or_else(|| format!("missing field `{}`", self.name))?)
    }

    /// Decodes an optional field.
    fn opt<T>(
        self,
        decode: impl FnOnce(&'o Val<'a>) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        self.val.map(decode).transpose()
    }
}

// ---------------------------------------------------------------------------
// Field decoders.
// ---------------------------------------------------------------------------

fn decode_region(v: &Val<'_>) -> Result<Region, String> {
    region_named(&v.as_str()?)
}

fn region_named(name: &str) -> Result<Region, String> {
    Region::from_str(name).map_err(|_| format!("unknown region `{name}`"))
}

fn decode_duration(v: &Val<'_>) -> Result<SimDuration, String> {
    v.as_u64().map(SimDuration::from_secs)
}

fn decode_instance(v: &Val<'_>) -> Result<InstanceId, String> {
    let s = v.as_str()?;
    let hex = s
        .strip_prefix("i-")
        .ok_or_else(|| format!("instance id `{s}` does not start with `i-`"))?;
    u64::from_str_radix(hex, 16)
        .map(InstanceId::from_raw)
        .map_err(|_| format!("instance id `{s}` is not hex"))
}

fn decode_breaker_state(v: &Val<'_>) -> Result<BreakerState, String> {
    match &*v.as_str()? {
        "closed" => Ok(BreakerState::Closed),
        "open" => Ok(BreakerState::Open),
        "half-open" => Ok(BreakerState::HalfOpen),
        other => Err(format!("unknown breaker state `{other}`")),
    }
}

fn decode_decision_kind(v: &Val<'_>) -> Result<DecisionKind, String> {
    match &*v.as_str()? {
        "initial" => Ok(DecisionKind::Initial),
        "migration" => Ok(DecisionKind::Migration),
        other => Err(format!("unknown decision kind `{other}`")),
    }
}

fn decode_placement(v: &Val<'_>) -> Result<Placement, String> {
    let s = v.as_str()?;
    if let Some(region) = s.strip_prefix("spot:") {
        return region_named(region).map(Placement::Spot);
    }
    if let Some(region) = s.strip_prefix("od:") {
        return region_named(region).map(Placement::OnDemand);
    }
    Err(format!("placement `{s}` is neither `spot:<region>` nor `od:<region>`"))
}

fn decode_candidate_outcome(v: &Val<'_>) -> Result<CandidateOutcome, String> {
    let s = v.as_str()?;
    if let Some(rank) = s.strip_prefix("selected:") {
        let rank = rank
            .parse::<usize>()
            .map_err(|_| format!("selected rank `{rank}` is not an integer"))?;
        return Ok(CandidateOutcome::Selected { rank });
    }
    match &*s {
        "quarantined" => Ok(CandidateOutcome::Quarantined),
        "not-preferred" => Ok(CandidateOutcome::NotPreferred),
        "below-threshold" => Ok(CandidateOutcome::BelowThreshold),
        "over-cap" => Ok(CandidateOutcome::OverCap),
        "interrupted-here" => Ok(CandidateOutcome::InterruptedHere),
        other => Err(format!("unknown candidate outcome `{other}`")),
    }
}

fn decode_candidate(f: &Object<'_>) -> Result<CandidateVerdict, String> {
    let [region, combined, price, outcome] = f.bind(["region", "combined", "price", "outcome"]);
    let verdict = CandidateVerdict {
        region: region.req(decode_region)?,
        combined: combined.req(|v| {
            let n = v.as_u64()?;
            u8::try_from(n).map_err(|_| format!("combined score {n} exceeds u8"))
        })?,
        spot_price: price.req(Val::as_f64)?,
        outcome: outcome.req(decode_candidate_outcome)?,
    };
    f.finish()?;
    Ok(verdict)
}

/// The four fault labels the controller emits today. Parsing maps back to
/// the `&'static str` the event carries; an unknown label is a corrupt
/// (or newer-schema) trace.
const CHAOS_FAULT_KINDS: [&str; 4] =
    ["spot_blackout", "chaos_interruption", "notice_shortened", "checkpoint_corruption"];

const PRIORITY_LABELS: [&str; 3] = ["batch", "standard", "interactive"];

/// Maps a label onto the `&'static str` of a closed vocabulary.
fn decode_label(
    v: &Val<'_>,
    vocabulary: &[&'static str],
    what: &str,
) -> Result<&'static str, String> {
    let s = v.as_str()?;
    vocabulary.iter().find(|k| **k == s).copied().ok_or_else(|| format!("unknown {what} `{s}`"))
}

/// Decodes the variant named by `label` from its fixed field list.
fn decode_event(label: &str, f: &Object<'_>) -> Result<TraceEvent, String> {
    Ok(match label {
        "run_started" => {
            let [strategy, seed, workloads, chaos, regime] =
                f.bind(["strategy", "seed", "workloads", "chaos", "regime"]);
            TraceEvent::RunStarted {
                strategy: strategy.req(Val::owned_str)?,
                seed: seed.req(Val::as_u64)?,
                workloads: workloads.req(Val::as_usize)?,
                chaos: chaos.opt(Val::owned_str)?,
                regime: regime.opt(Val::owned_str)?,
            }
        }
        "collection_failed" => {
            TraceEvent::CollectionFailed { retryable: f.field("retryable").req(Val::as_bool)? }
        }
        "stale_serve" => TraceEvent::StaleServe { age: f.field("age_s").req(decode_duration)? },
        "degraded_decision" => {
            TraceEvent::DegradedDecision { age: f.field("age_s").req(decode_duration)? }
        }
        "degraded_interval" => {
            TraceEvent::DegradedInterval { duration: f.field("duration_s").req(decode_duration)? }
        }
        "decision" => {
            let [kind, workload, previous, degraded, quarantined, candidates, placements] =
                f.bind([
                    "kind",
                    "workload",
                    "previous",
                    "degraded",
                    "quarantined",
                    "candidates",
                    "placements",
                ]);
            TraceEvent::Decision {
                kind: kind.req(decode_decision_kind)?,
                workload: workload.opt(Val::as_usize)?,
                previous: previous.opt(decode_region)?,
                degraded: degraded.req(Val::as_bool)?,
                quarantined: quarantined.req(|v| v.scalars(decode_region))?,
                candidates: candidates.opt(|v| v.objects(decode_candidate))?,
                placements: placements.req(|v| v.scalars(decode_placement))?,
            }
        }
        "launched" => {
            let [workload, region, spot, instance] =
                f.bind(["workload", "region", "spot", "instance"]);
            TraceEvent::Launched {
                workload: workload.req(Val::as_usize)?,
                region: region.req(decode_region)?,
                spot: spot.req(Val::as_bool)?,
                instance: instance.req(decode_instance)?,
            }
        }
        "request_open" => {
            let [workload, region, blackout] = f.bind(["workload", "region", "blackout"]);
            TraceEvent::RequestOpen {
                workload: workload.req(Val::as_usize)?,
                region: region.req(decode_region)?,
                blackout: blackout.req(Val::as_bool)?,
            }
        }
        "request_failed" => {
            let [workload, region] = f.bind(["workload", "region"]);
            TraceEvent::RequestFailed {
                workload: workload.req(Val::as_usize)?,
                region: region.req(decode_region)?,
            }
        }
        "interrupted" | "completed" => {
            let [workload, region, instance, billed] =
                f.bind(["workload", "region", "instance", "billed"]);
            let (workload, region, instance, billed) = (
                workload.req(Val::as_usize)?,
                region.req(decode_region)?,
                instance.req(decode_instance)?,
                billed.req(Val::as_f64)?,
            );
            if label == "interrupted" {
                TraceEvent::Interrupted { workload, region, instance, billed }
            } else {
                TraceEvent::Completed { workload, region, instance, billed }
            }
        }
        "checkpoint_save" => {
            let [workload, generation, units, recorded] =
                f.bind(["workload", "generation", "units", "recorded"]);
            TraceEvent::CheckpointSave {
                workload: workload.req(Val::as_usize)?,
                generation: generation.req(Val::as_u64)?,
                units: units.req(Val::as_usize)?,
                recorded: recorded.req(Val::as_bool)?,
            }
        }
        "checkpoint_torn" => {
            let [workload, generation] = f.bind(["workload", "generation"]);
            TraceEvent::CheckpointTorn {
                workload: workload.req(Val::as_usize)?,
                generation: generation.req(Val::as_u64)?,
            }
        }
        "checkpoint_restore" => {
            let [workload, units, corrupt_dropped, scratch] =
                f.bind(["workload", "units", "corrupt_dropped", "scratch"]);
            TraceEvent::CheckpointRestore {
                workload: workload.req(Val::as_usize)?,
                units: units.req(Val::as_usize)?,
                corrupt_dropped: corrupt_dropped.req(Val::as_u64)?,
                scratch: scratch.req(Val::as_bool)?,
            }
        }
        "breaker" => {
            let [region, from, to] = f.bind(["region", "from", "to"]);
            TraceEvent::Breaker {
                region: region.req(decode_region)?,
                from: from.req(decode_breaker_state)?,
                to: to.req(decode_breaker_state)?,
            }
        }
        "chaos_fault" => {
            let [kind, region] = f.bind(["kind", "region"]);
            TraceEvent::ChaosFault {
                kind: kind.req(|v| decode_label(v, &CHAOS_FAULT_KINDS, "chaos fault kind"))?,
                region: region.opt(decode_region)?,
            }
        }
        "workloads_arrived" => {
            let [batch, tenant, priority] = f.bind(["batch", "tenant", "priority"]);
            TraceEvent::WorkloadsArrived {
                batch: batch.req(|v| v.scalars(Val::as_usize))?,
                tenants: tenant.opt(|v| v.scalars(Val::owned_str))?.unwrap_or_default(),
                priorities: priority
                    .opt(|v| v.scalars(|p| decode_label(p, &PRIORITY_LABELS, "priority")))?
                    .unwrap_or_default(),
            }
        }
        "capacity_deferred" => {
            let [workload, region] = f.bind(["workload", "region"]);
            TraceEvent::CapacityDeferred {
                workload: workload.req(Val::as_usize)?,
                region: region.req(decode_region)?,
            }
        }
        "workload_expired" => {
            let [workload, region, billed] = f.bind(["workload", "region", "billed"]);
            TraceEvent::WorkloadExpired {
                workload: workload.req(Val::as_usize)?,
                region: region.opt(decode_region)?,
                billed: billed.opt(Val::as_f64)?,
            }
        }
        "shard_dispatched" => {
            let [shard, attempt, cells] = f.bind(["shard", "attempt", "cells"]);
            TraceEvent::ShardDispatched {
                shard: shard.req(Val::as_usize)?,
                attempt: attempt.req(Val::as_u32)?,
                cells: cells.req(Val::as_usize)?,
            }
        }
        "lease_expired" => {
            let [shard, attempt] = f.bind(["shard", "attempt"]);
            TraceEvent::LeaseExpired {
                shard: shard.req(Val::as_usize)?,
                attempt: attempt.req(Val::as_u32)?,
            }
        }
        "shard_redriven" => {
            let [shard, attempt, backoff_s] = f.bind(["shard", "attempt", "backoff_s"]);
            TraceEvent::ShardRedriven {
                shard: shard.req(Val::as_usize)?,
                attempt: attempt.req(Val::as_u32)?,
                backoff_s: backoff_s.req(Val::as_u64)?,
            }
        }
        "shard_dead_lettered" => {
            let [shard, attempts] = f.bind(["shard", "attempts"]);
            TraceEvent::ShardDeadLettered {
                shard: shard.req(Val::as_usize)?,
                attempts: attempts.req(Val::as_u32)?,
            }
        }
        "shard_completed" => {
            let [shard, attempt, duplicate] = f.bind(["shard", "attempt", "duplicate"]);
            TraceEvent::ShardCompleted {
                shard: shard.req(Val::as_usize)?,
                attempt: attempt.req(Val::as_u32)?,
                duplicate: duplicate.req(Val::as_bool)?,
            }
        }
        "run_ended" => {
            let [completed, aborted] = f.bind(["completed", "aborted"]);
            TraceEvent::RunEnded {
                completed: completed.req(Val::as_usize)?,
                aborted: aborted.req(Val::as_bool)?,
            }
        }
        other => return Err(format!("unknown event `{other}`")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_line_round_trips() {
        let line = "{\"cell\":\"spotverse/s7\",\"seq\":3,\"t\":86400,\"event\":\"launched\",\
                    \"workload\":0,\"region\":\"ap-northeast-3\",\"spot\":true,\
                    \"instance\":\"i-00000001\"}";
        let parsed = parse_trace_line(line).unwrap();
        assert_eq!(parsed.cell(), Some("spotverse/s7"));
        assert_eq!(trace_lines_to_jsonl(&[parsed]), format!("{line}\n"));
    }

    #[test]
    fn truncation_marker_round_trips() {
        let line = "{\"truncated\":true,\"dropped\":12}";
        let parsed = parse_trace_line(line).unwrap();
        assert_eq!(parsed, TraceLine::Truncated { cell: None, dropped: 12 });
        assert_eq!(trace_lines_to_jsonl(std::slice::from_ref(&parsed)), format!("{line}\n"));
    }

    #[test]
    fn corrupt_lines_name_the_line_number() {
        let doc = "{\"seq\":0,\"t\":0,\"event\":\"run_ended\",\"completed\":1,\"aborted\":false}\n\
                   {\"seq\":1,\"t\":5,\"event\":\"laun";
        let err = parse_trace_jsonl(doc).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().starts_with("trace line 2:"), "{err}");
    }

    #[test]
    fn unexpected_fields_and_labels_are_rejected() {
        assert!(parse_trace_line(
            "{\"seq\":0,\"t\":0,\"event\":\"run_ended\",\"completed\":1,\"aborted\":false,\"x\":1}"
        )
        .unwrap_err()
        .contains("unexpected field `x`"));
        assert!(parse_trace_line("{\"seq\":0,\"t\":0,\"event\":\"warp\"}")
            .unwrap_err()
            .contains("unknown event"));
        assert!(parse_trace_line(
            "{\"seq\":0,\"t\":0,\"event\":\"breaker\",\"region\":\"mars-1\",\"from\":\"closed\",\"to\":\"open\"}"
        )
        .unwrap_err()
        .contains("unknown region"));
        assert!(parse_trace_line("{\"seq\":0,\"t\":0,\"event\":\"run_ended\",\"completed\":1}")
            .unwrap_err()
            .contains("missing field `aborted`"));
    }
}
