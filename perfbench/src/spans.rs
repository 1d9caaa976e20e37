//! In-memory spans recorded around calls into each layer, and the
//! attribution of an op's wall time to layers.
//!
//! A span name is `<layer>.<call>`; the op's root span is named `op` and
//! its self time is the op's `other_s`. Spans are kept in memory while
//! the op runs and handed out with [`Trace::take`] afterwards.
//!
//! Calls too frequent to keep one by one (up to millions of strategy
//! calls per fleet run) are folded into the span that made them: the
//! span carries their total time and the layer it is charged to, and
//! the trace keeps their count.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifies a span within one [`Trace`].
pub type SpanId = u32;

/// Name of the root span of every op.
pub const OP: &str = "op";

/// One closed span. Times are nanoseconds since the trace's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// This span's id, unique within its trace.
    pub id: SpanId,
    /// The span that made the call, if any.
    pub parent: Option<SpanId>,
    /// `<layer>.<call>`, or [`OP`].
    pub name: &'static str,
    /// Start, ns since the trace epoch.
    pub start_ns: u64,
    /// End, ns since the trace epoch.
    pub end_ns: u64,
    /// Calls folded into this span: the layer they belong to and their
    /// total time in ns.
    pub folded: Option<(&'static str, u64)>,
}

impl Span {
    /// The layer this span's self time is charged to: the part of the
    /// name before the first `.`, or `other` for the op's root span.
    pub fn layer(&self) -> &'static str {
        match self.name.split_once('.') {
            Some((layer, _)) => layer,
            None => "other",
        }
    }

    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// A span that has been opened but not yet closed.
#[derive(Debug)]
pub struct Open {
    id: SpanId,
    parent: Option<SpanId>,
    name: &'static str,
    start_ns: u64,
}

impl Open {
    /// The id children of this span record as their parent.
    pub fn id(&self) -> SpanId {
        self.id
    }

    /// Closes the span at `end_ns`.
    pub fn end(self, end_ns: u64) -> Span {
        Span {
            id: self.id,
            parent: self.parent,
            name: self.name,
            start_ns: self.start_ns,
            end_ns,
            folded: None,
        }
    }
}

/// A span and call-count recorder shared by every thread of one run.
#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
    counts: Mutex<BTreeMap<&'static str, u64>>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace::new()
    }
}

impl Trace {
    /// An empty trace whose epoch is now.
    pub fn new() -> Self {
        Trace {
            epoch: Instant::now(),
            next_id: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
            counts: Mutex::new(BTreeMap::new()),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Opens a span named `name` under `parent`.
    pub fn open(&self, name: &'static str, parent: Option<SpanId>) -> Open {
        Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            start_ns: self.now_ns(),
        }
    }

    /// Closes `open` now and keeps it.
    pub fn close(&self, open: Open) -> Span {
        let span = open.end(self.now_ns());
        self.keep(span);
        span
    }

    /// Keeps a span closed elsewhere.
    pub fn keep(&self, span: Span) {
        self.spans.lock().expect("span buffer poisoned").push(span);
    }

    /// Runs `f` inside a span named `name` under `parent`; `f` receives
    /// the span's id so its own calls can be recorded as children.
    pub fn record<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce(SpanId) -> R,
    ) -> R {
        let open = self.open(name, parent);
        let out = f(open.id());
        self.close(open);
        out
    }

    /// Adds `n` calls of `name`.
    pub fn count(&self, name: &'static str, n: u64) {
        *self
            .counts
            .lock()
            .expect("count buffer poisoned")
            .entry(name)
            .or_default() += n;
    }

    /// Hands out every span kept so far and empties the buffer.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span buffer poisoned"))
    }

    /// Hands out every call count so far and resets them.
    pub fn take_counts(&self) -> BTreeMap<&'static str, u64> {
        std::mem::take(&mut *self.counts.lock().expect("count buffer poisoned"))
    }
}

/// Wall time of one op split by layer. The values add up to the root
/// span's duration; `other` is the root's own share.
pub type LayerTimes = BTreeMap<&'static str, f64>;

/// Splits the wall time of the op rooted at `root` among the layers.
///
/// Each instant of the op is charged to the spans running their own
/// code then, i.e. not covered by one of their children. When spans on
/// several threads do so at once (the tournament's sweep workers), they
/// share the instant equally, so the layer times add up to the op's
/// wall time, not to its CPU time. A span's share is then split between
/// its own layer and the layer of its folded calls in proportion to the
/// folded calls' time, which is exact when the span had no concurrent
/// company.
///
/// This is also the layer-sum check: it fails if a span names a parent
/// that is not part of the op, if a child runs outside its parent, if
/// folded calls took longer than their span's own time, or if the layer
/// times do not add up to the op's wall time within 1 µs.
pub fn attribute(spans: &[Span], root: SpanId) -> Result<LayerTimes, String> {
    let index: HashMap<SpanId, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let root_index = *index.get(&root).ok_or("root span missing")?;
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, span) in spans.iter().enumerate().filter(|&(i, _)| i != root_index) {
        let p = span
            .parent
            .and_then(|p| index.get(&p).copied())
            .ok_or_else(|| format!("span {} ({}) has no parent in the op", span.id, span.name))?;
        let parent = &spans[p];
        if span.start_ns < parent.start_ns || span.end_ns > parent.end_ns {
            return Err(format!(
                "span {} ({}) runs outside its parent {} ({})",
                span.id, span.name, parent.id, parent.name
            ));
        }
        children[p].push(i);
    }

    // Self intervals: each span's interval minus the union of its
    // children's, as (time, +1/-1, span) edges.
    let mut own_ns = vec![0u64; spans.len()];
    let mut edges: Vec<(u64, i32, usize)> = Vec::new();
    let mut reached = 0usize;
    let mut stack = vec![root_index];
    while let Some(i) = stack.pop() {
        reached += 1;
        let span = &spans[i];
        let mut kids = std::mem::take(&mut children[i]);
        kids.sort_by_key(|&c| spans[c].start_ns);
        let mut cursor = span.start_ns;
        for &kid in &kids {
            let kid = &spans[kid];
            if kid.start_ns > cursor {
                edges.push((cursor, 1, i));
                edges.push((kid.start_ns, -1, i));
                own_ns[i] += kid.start_ns - cursor;
            }
            cursor = cursor.max(kid.end_ns);
        }
        if span.end_ns > cursor {
            edges.push((cursor, 1, i));
            edges.push((span.end_ns, -1, i));
            own_ns[i] += span.end_ns - cursor;
        }
        if let Some((layer, ns)) = span.folded {
            if ns > own_ns[i] {
                return Err(format!(
                    "span {} ({}) folds {ns} ns of {layer} calls into {} ns of its own time",
                    span.id, span.name, own_ns[i]
                ));
            }
        }
        stack.extend(kids);
    }
    if reached != spans.len() {
        return Err(format!(
            "{} spans are not reachable from the root",
            spans.len() - reached
        ));
    }

    // Sweep: between consecutive edges, each span running its own code
    // gets an equal share of the elapsed time.
    edges.sort_unstable_by_key(|&(t, delta, _)| (t, delta));
    let mut active: Vec<usize> = Vec::new();
    let mut share_ns = vec![0f64; spans.len()];
    let mut last = spans[root_index].start_ns;
    for (t, delta, i) in edges {
        if !active.is_empty() && t > last {
            let dt = (t - last) as f64 / active.len() as f64;
            for &a in &active {
                share_ns[a] += dt;
            }
        }
        last = t;
        if delta > 0 {
            active.push(i);
        } else if let Some(pos) = active.iter().position(|&a| a == i) {
            active.swap_remove(pos);
        }
    }

    let mut times = LayerTimes::new();
    for (i, span) in spans.iter().enumerate() {
        let folded = match span.folded {
            Some((layer, ns)) if own_ns[i] > 0 => {
                let part = share_ns[i] * ns as f64 / own_ns[i] as f64;
                *times.entry(layer).or_default() += part * 1e-9;
                part
            }
            _ => 0.0,
        };
        *times.entry(span.layer()).or_default() += (share_ns[i] - folded) * 1e-9;
    }
    let sum: f64 = times.values().sum();
    let wall = spans[root_index].secs();
    if (sum - wall).abs() > 1e-6 {
        return Err(format!(
            "layer times add up to {sum:.9} s, the op took {wall:.9} s"
        ));
    }
    Ok(times)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: Option<SpanId>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns: start,
            end_ns: end,
            folded: None,
        }
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-15
    }

    #[test]
    fn nested_spans_charge_self_time() {
        let mut model = span(2, Some(1), "fleet.model", 200, 800);
        model.folded = Some(("strategy", 150));
        let spans = [
            span(0, None, OP, 0, 1_000),
            span(1, Some(0), "fleet.run_fleet_on", 100, 900),
            model,
        ];
        let t = attribute(&spans, 0).unwrap();
        assert!(close(t["other"], 200e-9));
        assert!(close(t["fleet"], 650e-9));
        assert!(close(t["strategy"], 150e-9));
    }

    #[test]
    fn concurrent_spans_share_the_wall_time() {
        // Two workers under one matrix span, overlapping for 400 ns.
        let mut second = span(3, Some(1), "fleet.model", 200, 1_000);
        second.folded = Some(("strategy", 80));
        let spans = [
            span(0, None, OP, 0, 1_000),
            span(1, Some(0), "sweep.matrix", 0, 1_000),
            span(2, Some(1), "fleet.model", 0, 600),
            second,
        ];
        let t = attribute(&spans, 0).unwrap();
        // The second model ran its own code for 800 ns, 400 of them
        // shared: a 600 ns share, a tenth of it (80 of 800) strategy's.
        assert!(close(t["strategy"], 60e-9));
        assert!(close(t["fleet"], 940e-9));
        assert!(close(t["sweep"], 0.0));
        let sum: f64 = t.values().sum();
        assert!(close(sum, 1_000e-9));
    }

    #[test]
    fn malformed_trees_fail_the_layer_sum_check() {
        let outside = [
            span(0, None, OP, 0, 1_000),
            span(1, Some(0), "fleet.run", 500, 1_500),
        ];
        assert!(attribute(&outside, 0)
            .unwrap_err()
            .contains("outside its parent"));
        let orphan = [
            span(0, None, OP, 0, 1_000),
            span(1, Some(7), "fleet.run", 100, 200),
        ];
        assert!(attribute(&orphan, 0).unwrap_err().contains("no parent"));
        let cycle = [
            span(0, None, OP, 0, 1_000),
            span(1, Some(2), "fleet.run", 100, 200),
            span(2, Some(1), "sweep.matrix", 100, 200),
        ];
        assert!(attribute(&cycle, 0).unwrap_err().contains("not reachable"));
        let mut overfull = span(1, Some(0), "fleet.model", 100, 200);
        overfull.folded = Some(("strategy", 101));
        let overfolded = [span(0, None, OP, 0, 1_000), overfull];
        assert!(attribute(&overfolded, 0).unwrap_err().contains("folds"));
    }
}
