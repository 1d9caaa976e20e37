//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]`
//!
//! Runs one workload as a closed loop (one client; an op starts when the
//! previous one has returned and been checked) for `--seconds`, then
//! prints the metrics, as its last line one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones, measured untraced. With `--trace 1`
//! every op runs untraced and then traced, and the metrics are the
//! per-layer ones. `--out` names a directory for the run's record (host
//! fingerprint, exact counts and digests apart from seconds) and, for
//! traced runs, its spans.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::Command;
use std::sync::Arc;
use std::time::{Duration, Instant};

use spotverse_bench::CountingAlloc;
use spotverse_perfbench::checks::{check, check_same, Checked, Counts, Tally};
use spotverse_perfbench::spans::{attribute, LayerTimes, Span, Trace, OP};
use spotverse_perfbench::strategies::{PLACE, RELOCATE};
use spotverse_perfbench::workloads::{execute, execute_traced, op_seed, setup, Output, Workload};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The exact `allocs_per_workload` is taken over ops `0..ALLOC_OPS`,
/// which an untraced run always makes, whatever `--seconds` says.
const ALLOC_OPS: u64 = 24;

/// `peak_rss_mb` is the median peak of ops `0..ALONE_OPS`, each run again
/// alone in a fresh process, so no op inherits another's heap.
const ALONE_OPS: u64 = 11;

struct Args {
    workload: Workload,
    seed: u64,
    mode: Mode,
}

enum Mode {
    /// The closed loop, for `--seconds`.
    Run {
        seconds: f64,
        trace: bool,
        out: Option<PathBuf>,
    },
    /// `--alone <op>`: op `op` alone, printing its digest and peak RSS.
    Alone(u64),
}

fn parse_args() -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or(format!("unexpected argument `{flag}`"))?;
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        flags.insert(name.to_owned(), value);
    }
    let mut take = |name: &str| flags.remove(name).ok_or(format!("--{name} is required"));
    let workload = take("workload")?;
    let seed = take("seed")?;
    let alone = take("alone").ok();
    let workload = Workload::parse(&workload).ok_or(format!(
        "unknown workload `{workload}` (expected {})",
        Workload::ALL.map(Workload::name).join(" | ")
    ))?;
    let seed = seed.parse().map_err(|e| format!("--seed: {e}"))?;
    if let Some(op) = alone {
        let op = op.parse().map_err(|e| format!("--alone: {e}"))?;
        return Ok(Args {
            workload,
            seed,
            mode: Mode::Alone(op),
        });
    }
    let seconds: f64 = take("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".to_owned());
    }
    let trace = match take("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace: `{other}` is not 0 or 1")),
    };
    let out = take("out").ok().map(PathBuf::from);
    if let Some(unknown) = flags.keys().next() {
        return Err(format!("unknown flag --{unknown}"));
    }
    Ok(Args {
        workload,
        seed,
        mode: Mode::Run {
            seconds,
            trace,
            out,
        },
    })
}

/// The host a result was measured on.
struct Host {
    nproc: usize,
    cpu: String,
    rustc: &'static str,
}

impl Host {
    fn probe() -> Host {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines().find_map(|l| {
                    l.strip_prefix("model name")
                        .map(|v| v.trim_start_matches([' ', '\t', ':']).to_owned())
                })
            })
            .unwrap_or_else(|| "unknown".to_owned());
        Host {
            nproc: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            cpu,
            rustc: env!("PERFBENCH_RUSTC"),
        }
    }
}

/// One run of one workload.
struct Run {
    workload: Workload,
    seed: u64,
    tally: Tally,
}

impl Run {
    /// Settles op `op` (see [`Tally::settle`]), reporting a failure.
    fn settle(&mut self, op: u64, output: std::thread::Result<Output>) -> Option<Checked> {
        match self.tally.settle(op, output) {
            Ok(c) => Some(c),
            Err(e) => {
                self.report_failure(op, &e);
                None
            }
        }
    }

    fn report_failure(&self, op: u64, error: &str) {
        let seed = op_seed(self.seed, op);
        eprintln!(
            "{} op {op} (op seed {seed}) failed: {error}",
            self.workload.name()
        );
    }

    /// Runs op 0 once, untimed, so lazy state fills; the timed run of
    /// op 0 must reproduce its digest.
    fn warm_up(&mut self) {
        let input = setup(self.workload, self.seed, 0, None);
        let output = catch_unwind(AssertUnwindSafe(|| execute(input)));
        self.settle(0, output);
    }

    /// Runs op 0 of a tournament again through the composed pipeline,
    /// which gives the per-cell checks (dropped records, replay
    /// reconciliation) that `run_tournament`'s report has no room for;
    /// its leaderboard must match the timed run's.
    fn verify_cells(&mut self) {
        let input = setup(self.workload, self.seed, 0, None);
        let output = catch_unwind(AssertUnwindSafe(|| {
            let trace = Arc::new(Trace::new());
            let root = trace.open(OP, None);
            execute_traced(input, &trace, root.id())
        }));
        self.settle(0, output);
    }

    /// Sets up and runs op `op` untraced, adding it to `u`; returns its
    /// time unless it failed.
    fn untraced_op(&mut self, op: u64, u: &mut Untraced) -> Option<f64> {
        let t = Instant::now();
        let input = setup(self.workload, self.seed, op, None);
        let setup_s = t.elapsed().as_secs_f64();
        let allocs = CountingAlloc::allocations();
        let t = Instant::now();
        let output = catch_unwind(AssertUnwindSafe(|| execute(input)));
        let op_s = t.elapsed().as_secs_f64();
        let allocs = CountingAlloc::allocations() - allocs;
        let c = self.settle(op, output)?;
        u.setup_s.push(setup_s);
        u.op_s.push(op_s);
        u.finished += c.finished;
        if op < ALLOC_OPS {
            u.alloc_ops += 1;
            u.allocs += allocs;
            u.alloc_workloads += c.finished;
        }
        u.counts.push(c.counts);
        Some(op_s)
    }

    /// The untraced closed loop: ops until `budget` is spent, and at
    /// least `min_ops`.
    fn untraced(&mut self, budget: Duration, min_ops: u64) -> Untraced {
        let mut u = Untraced::default();
        let start = Instant::now();
        let mut op = 0;
        while op < min_ops || start.elapsed() < budget {
            self.untraced_op(op, &mut u);
            op += 1;
        }
        u
    }

    /// Runs ops `0..n` again, each alone in a fresh process, and returns
    /// their peak resident memory. Each must reproduce the digest the
    /// timed run of the same op gave.
    fn alone(&mut self, n: u64) -> Vec<f64> {
        let exe = std::env::current_exe().expect("the benchmark's own executable");
        let mut rss = Vec::new();
        for op in 0..n {
            self.tally.attempted += 1;
            let child = Command::new(&exe)
                .args([
                    "--workload",
                    self.workload.name(),
                    "--seed",
                    &self.seed.to_string(),
                ])
                .args(["--alone", &op.to_string()])
                .output()
                .map_err(|e| e.to_string())
                .and_then(|out| {
                    let text = String::from_utf8_lossy(&out.stdout);
                    let line = text.lines().last().unwrap_or("").to_owned();
                    match line.split_once(' ') {
                        Some((digest, mb)) if out.status.success() => Ok((
                            digest.to_owned(),
                            mb.parse::<f64>().map_err(|e| e.to_string())?,
                        )),
                        _ => Err(format!("exited with {}", out.status)),
                    }
                })
                .and_then(|(digest, mb)| {
                    let first = self.tally.digest(op).map(|d| format!("{:016x}", fnv64(d)));
                    check_same(op, first.as_deref().unwrap_or(&digest), &digest).map(|()| mb)
                });
            match child {
                Ok(mb) => rss.push(mb),
                Err(e) => {
                    self.tally.failed += 1;
                    self.report_failure(op, &format!("alone: {e}"));
                }
            }
        }
        rss
    }

    /// The traced closed loop: every op runs untraced, then again with a
    /// span around each call into a layer, so both see the same host
    /// conditions and their difference is the tracing overhead.
    fn traced(
        &mut self,
        budget: Duration,
        spans_out: &mut Vec<String>,
    ) -> (Untraced, Vec<TracedOp>) {
        let mut u = Untraced::default();
        let mut ops = Vec::new();
        let trace = Arc::new(Trace::new());
        let start = Instant::now();
        let mut op = 0;
        while op < 1 || start.elapsed() < budget {
            let untraced_s = self.untraced_op(op, &mut u);
            if let Some(mut t) = self.traced_op(op, &trace, spans_out) {
                t.overhead_s = untraced_s.map(|s| t.op_s - s);
                ops.push(t);
            }
            op += 1;
        }
        (u, ops)
    }

    /// Sets up and runs op `op` traced; `None` if it failed a check or
    /// the layer-sum check.
    fn traced_op(
        &mut self,
        op: u64,
        trace: &Arc<Trace>,
        spans_out: &mut Vec<String>,
    ) -> Option<TracedOp> {
        let input = setup(self.workload, self.seed, op, Some(trace));
        let setup_spans = trace.take();
        trace.take_counts();
        let root = trace.open(OP, None);
        let root_id = root.id();
        let allocs = CountingAlloc::allocations();
        let output = catch_unwind(AssertUnwindSafe(|| execute_traced(input, trace, root_id)));
        let allocs = CountingAlloc::allocations() - allocs;
        let root = trace.close(root);
        let spans = trace.take();
        let calls = trace.take_counts();
        let fleet_op = matches!(output, Ok(Output::Fleets(_)));
        let mut c = self.settle(op, output)?;
        let layers = match attribute(&spans, root_id) {
            Ok(layers) => layers,
            Err(e) => {
                self.tally.failed += 1;
                self.report_failure(op, &format!("layer-sum check: {e}"));
                return None;
            }
        };
        if fleet_op {
            c.counts.insert("fleet.allocs", allocs as f64);
        }
        span_counts(&mut c.counts, &setup_spans, &spans);
        for (name, count) in [
            (PLACE, "strategy.place_calls"),
            (RELOCATE, "strategy.relocate_calls"),
        ] {
            c.counts
                .insert(count, calls.get(name).copied().unwrap_or(0) as f64);
        }
        spans_out.extend(span_lines(op, &setup_spans, &spans, &calls));
        Some(TracedOp {
            op_s: root.secs(),
            overhead_s: None,
            layers,
            counts: c.counts,
        })
    }
}

#[derive(Default)]
struct Untraced {
    setup_s: Vec<f64>,
    op_s: Vec<f64>,
    finished: usize,
    alloc_ops: u64,
    allocs: u64,
    alloc_workloads: usize,
    counts: Vec<Counts>,
}

struct TracedOp {
    op_s: f64,
    /// This op's traced minus untraced time.
    overhead_s: Option<f64>,
    layers: LayerTimes,
    counts: Counts,
}

/// Times read off an op's spans: load generation, market builds (in
/// set-up or in the op), trace export and the sweep matrix.
fn span_counts(counts: &mut Counts, setup: &[Span], op: &[Span]) {
    for span in setup.iter().chain(op) {
        let (name, value) = match span.layer() {
            "loadgen" => ("loadgen.generate_s", span.secs()),
            "cloud-market" => ("cloud-market.build_s", span.secs()),
            "trace" => ("trace.export_s", span.secs()),
            "sweep" => ("sweep.matrix_s", span.secs()),
            _ => continue,
        };
        *counts.entry(name).or_default() += value;
    }
}

/// An op's spans and call counts as JSON lines.
fn span_lines(op: u64, setup: &[Span], spans: &[Span], calls: &BTreeMap<&str, u64>) -> Vec<String> {
    let mut lines: Vec<String> = setup
        .iter()
        .chain(spans)
        .map(|s| {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let folded = s.folded.map_or("null".to_owned(), |(layer, ns)| {
                format!("{{\"layer\":\"{layer}\",\"s\":{}}}", ns as f64 * 1e-9)
            });
            format!(
                "{{\"op\":{op},\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_s\":{},\"end_s\":{},\"folded\":{folded}}}",
                s.id,
                s.name,
                s.start_ns as f64 * 1e-9,
                s.end_ns as f64 * 1e-9,
            )
        })
        .collect();
    for (name, n) in calls {
        lines.push(format!(
            "{{\"op\":{op},\"calls\":\"{name}\",\"count\":{n}}}"
        ));
    }
    lines
}

fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The value at the highest percentile that has at least ten samples
/// beyond it, with that percentile. Fewer than eleven samples give the
/// maximum, at the 100th percentile.
fn tail(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => (0.0, 100.0),
        n if n < 11 => (v[n - 1], 100.0),
        n => (v[n - 11], 100.0 * (n - 10) as f64 / n as f64),
    }
}

/// The process's peak resident set size so far.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|l| {
                l.strip_prefix("VmHWM:")?
                    .trim()
                    .strip_suffix("kB")?
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn sum(counts: &[Counts], name: &str) -> f64 {
    counts.iter().filter_map(|c| c.get(name)).sum()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    note: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    // `+ 0.0` turns the -0.0 of an empty sum into 0.
    let value = if value.is_finite() { value + 0.0 } else { 0.0 };
    Metric {
        name,
        value,
        unit,
        note: String::new(),
    }
}

fn end_to_end(u: &Untraced, rss_mb: &[f64]) -> Vec<Metric> {
    let (tail_s, pct) = tail(&u.op_s);
    let mut tail_metric = metric("op_tail_s", tail_s, "s");
    tail_metric.note = format!("p{pct:.1} of {} ops", u.op_s.len());
    let mut allocs = metric(
        "allocs_per_workload",
        ratio(u.allocs as f64, u.alloc_workloads as f64),
        "count",
    );
    allocs.note = format!("exact, over the first {} ops", u.alloc_ops);
    let mut rss = metric("peak_rss_mb", median(rss_mb), "MB");
    rss.note = format!(
        "median of {} ops, each alone in a fresh process",
        rss_mb.len()
    );
    let mut setup = metric("setup_s", median(&u.setup_s), "s");
    setup.note = format!("median of {} set-ups", u.setup_s.len());
    vec![
        setup,
        metric(
            "workloads_per_s",
            ratio(u.finished as f64, u.op_s.iter().sum()),
            "1/s",
        ),
        metric("op_p50_s", median(&u.op_s), "s"),
        tail_metric,
        rss,
        allocs,
    ]
}

fn per_layer(untraced: &Untraced, traced: &[TracedOp]) -> Vec<Metric> {
    let n = traced.len().max(1) as f64;
    let counts: Vec<Counts> = traced.iter().map(|t| t.counts.clone()).collect();
    let layer = |name: &str| {
        traced
            .iter()
            .filter_map(|t| t.layers.get(name))
            .sum::<f64>()
    };
    let mean = |name: &str| sum(&counts, name) / n;
    let op_s: f64 = traced.iter().map(|t| t.op_s).sum();
    let overheads: Vec<f64> = traced.iter().filter_map(|t| t.overhead_s).collect();
    // Market builds and cache hits as the untraced ops made them: the
    // traced tournament builds its markets ahead of the matrix.
    let builds = ratio(
        sum(&untraced.counts, "cloud-market.builds"),
        untraced.counts.len() as f64,
    );
    let hit_ratio = ratio(
        sum(&untraced.counts, "cloud-market.cache_hits"),
        sum(&untraced.counts, "cloud-market.cache_requests"),
    );
    let events = sum(&counts, "fleet.events");
    let lines = sum(&counts, "replay.lines");
    vec![
        metric("loadgen.generate_s", mean("loadgen.generate_s"), "s"),
        metric("cloud-market.build_s", mean("cloud-market.build_s"), "s"),
        metric("cloud-market.builds", builds, "count"),
        metric("cloud-market.cache_hit_ratio", hit_ratio, "ratio"),
        metric(
            "cloud-market.segments",
            mean("cloud-market.segments"),
            "count",
        ),
        metric("fleet.self_s", layer("fleet") / n, "s"),
        metric("fleet.events", events / n, "count"),
        metric(
            "fleet.events_per_s",
            ratio(events, layer("fleet") + layer("strategy")),
            "1/s",
        ),
        metric(
            "fleet.allocs_per_event",
            ratio(sum(&counts, "fleet.allocs"), events),
            "count",
        ),
        metric(
            "fleet.events_per_workload",
            ratio(events, sum(&counts, "fleet.workloads")),
            "count",
        ),
        metric(
            "fleet.capacity_deferrals",
            mean("fleet.capacity_deferrals"),
            "count",
        ),
        metric(
            "fleet.deferrals_per_launch",
            ratio(
                sum(&counts, "fleet.capacity_deferrals"),
                sum(&counts, "cloud-compute.launches"),
            ),
            "ratio",
        ),
        metric(
            "cloud-compute.spot_attempts",
            mean("cloud-compute.spot_attempts"),
            "count",
        ),
        metric(
            "cloud-compute.fulfil_ratio",
            ratio(
                sum(&counts, "cloud-compute.spot_fulfilments"),
                sum(&counts, "cloud-compute.spot_attempts"),
            ),
            "ratio",
        ),
        metric(
            "cloud-compute.launches",
            mean("cloud-compute.launches"),
            "count",
        ),
        metric(
            "cloud-compute.interruptions",
            mean("cloud-compute.interruptions"),
            "count",
        ),
        metric(
            "aws-stack.checkpoint_writes",
            mean("aws-stack.checkpoint_writes"),
            "count",
        ),
        metric(
            "aws-stack.throttled_retries",
            mean("aws-stack.throttled_retries"),
            "count",
        ),
        metric(
            "health.breaker_trips",
            mean("health.breaker_trips"),
            "count",
        ),
        metric(
            "health.quarantined_decisions",
            mean("health.quarantined_decisions"),
            "count",
        ),
        metric("health.stale_serves", mean("health.stale_serves"), "count"),
        metric(
            "strategy.place_calls",
            mean("strategy.place_calls"),
            "count",
        ),
        metric(
            "strategy.relocate_calls",
            mean("strategy.relocate_calls"),
            "count",
        ),
        metric("strategy.self_s", layer("strategy") / n, "s"),
        metric("strategy.share", ratio(layer("strategy"), op_s), "ratio"),
        metric("trace.records", mean("trace.records"), "count"),
        metric("trace.dropped", mean("trace.dropped"), "count"),
        metric("trace.bytes", mean("trace.bytes"), "B"),
        metric("trace.export_s", mean("trace.export_s"), "s"),
        metric("replay.lines", lines / n, "count"),
        metric("replay.self_s", layer("replay") / n, "s"),
        metric("replay.lines_per_s", ratio(lines, layer("replay")), "1/s"),
        metric(
            "replay.allocs_per_line",
            ratio(sum(&counts, "replay.allocs"), lines),
            "count",
        ),
        metric("replay.share", ratio(layer("replay"), op_s), "ratio"),
        metric("sweep.cells", mean("sweep.cells"), "count"),
        metric("sweep.matrix_s", mean("sweep.matrix_s"), "s"),
        metric("sweep.self_s", layer("sweep") / n, "s"),
        metric("sweep.failed_cells", mean("sweep.failed_cells"), "count"),
        metric(
            "sweep.recovered_cells",
            mean("sweep.recovered_cells"),
            "count",
        ),
        metric("tournament.rank_s", layer("tournament") / n, "s"),
        metric("other_s", layer("other") / n, "s"),
        metric("traced_op_s", op_s / n, "s"),
        metric("trace_overhead_s", median(&overheads), "s"),
    ]
}

/// FNV-1a, to print long digests (rendered leaderboards) compactly.
fn fnv64(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn json_str(text: &str) -> String {
    let mut out = String::from("\"");
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn metrics_json<M: std::borrow::Borrow<Metric>>(metrics: &[M]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            let m = m.borrow();
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let (seconds, trace, out) = match args.mode {
        Mode::Run {
            seconds,
            trace,
            out,
        } => (seconds, trace, out),
        Mode::Alone(op) => {
            let output = execute(setup(args.workload, args.seed, op, None));
            match check(&output) {
                Ok(c) => println!("{:016x} {}", fnv64(&c.digest), peak_rss_mb()),
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    std::process::exit(1);
                }
            }
            return;
        }
    };
    let host = Host::probe();
    let name = args.workload.name();
    println!(
        "perfbench {name}  seed {}  {} s  trace {}",
        args.seed,
        seconds,
        u8::from(trace)
    );
    println!(
        "host: nproc {}  cpu {}  {}",
        host.nproc, host.cpu, host.rustc
    );

    let mut run = Run {
        workload: args.workload,
        seed: args.seed,
        tally: Tally::default(),
    };
    run.warm_up();
    let mut spans_out = Vec::new();
    let budget = Duration::from_secs_f64(seconds);
    let (metrics, layer_sum) = if trace {
        let (untraced, traced) = run.traced(budget, &mut spans_out);
        let mut layers: BTreeMap<&str, f64> = BTreeMap::new();
        for t in &traced {
            for (layer, secs) in &t.layers {
                *layers.entry(layer).or_default() += secs / traced.len() as f64;
            }
        }
        (per_layer(&untraced, &traced), Some(layers))
    } else {
        let untraced = run.untraced(budget, ALLOC_OPS);
        if args.workload == Workload::Tournament {
            run.verify_cells();
        }
        let rss_mb = run.alone(ALONE_OPS);
        (end_to_end(&untraced, &rss_mb), None)
    };

    let tally = &run.tally;
    let failed_frac = ratio(tally.failed as f64, tally.attempted as f64);
    for m in &metrics {
        println!(
            "  {:<30} {:>16.6} {:<6} {}",
            m.name, m.value, m.unit, m.note
        );
    }
    // Not a metric of the final line: it is 0 on a healthy run, and that
    // line carries `attempted` and `failed` instead.
    println!(
        "  {:<30} {:>16.6} {:<6} {} of {} ops failed",
        "failed_frac", failed_frac, "ratio", tally.failed, tally.attempted
    );
    if let Some(layers) = &layer_sum {
        let total: f64 = layers.values().sum();
        let shares: Vec<String> = layers.iter().map(|(l, s)| format!("{l} {s:.6}")).collect();
        println!(
            "layer sum (mean s per traced op): {} = {total:.6}",
            shares.join(" + ")
        );
    }
    if let Some(first) = tally.digest(0) {
        println!("op 0 digest: {}", first.lines().next().unwrap_or(""));
    }
    if let Some(dir) = &out {
        let stem = format!("{name}-seed{}-trace{}", args.seed, u8::from(trace));
        let record = record_json(&run, seconds, trace, &host, &metrics);
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(dir.join(format!("{stem}.json")), record))
            .and_then(|()| {
                if spans_out.is_empty() {
                    return Ok(());
                }
                let spans = spans_out.join("\n") + "\n";
                std::fs::write(dir.join(format!("{stem}.spans.jsonl")), spans)
            });
        if let Err(e) = written {
            eprintln!(
                "perfbench: cannot write the run record to {}: {e}",
                dir.display()
            );
        }
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        metrics_json(&metrics)
    );
}

/// The run's record: the host and seed, the exact figures (op digests,
/// `allocs_per_workload`) apart from the host-dependent ones.
fn record_json(run: &Run, seconds: f64, trace: bool, host: &Host, metrics: &[Metric]) -> String {
    let tally = &run.tally;
    let ops: Vec<String> = tally
        .digests()
        .map(|(op, d)| {
            let seed = op_seed(run.seed, op);
            format!(
                "{{\"op\": {op}, \"op_seed\": {seed}, \"digest_fnv64\": \"{:016x}\"}}",
                fnv64(d)
            )
        })
        .collect();
    let (exact, measured): (Vec<&Metric>, Vec<&Metric>) =
        metrics.iter().partition(|m| m.note.starts_with("exact"));
    format!(
        "{{\n  \"workload\": {}, \"seed\": {}, \"seconds\": {seconds}, \"trace\": {},\n  \
         \"host\": {{\"nproc\": {}, \"cpu\": {}, \"rustc\": {}}},\n  \
         \"attempted\": {}, \"failed\": {},\n  \
         \"exact\": {{\"metrics\": {}, \"op0_digest\": {}, \"ops\": [{}]}},\n  \
         \"measured\": {}\n}}\n",
        json_str(run.workload.name()),
        run.seed,
        u8::from(trace),
        host.nproc,
        json_str(&host.cpu),
        json_str(host.rustc),
        tally.attempted,
        tally.failed,
        metrics_json(&exact),
        tally.digest(0).map_or("null".to_owned(), json_str),
        ops.join(", "),
        metrics_json(&measured),
    )
}
