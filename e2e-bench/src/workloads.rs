//! The four workloads, their measured loops, and their metric reports.
//!
//! Every workload is a closed loop with one client: the next op starts
//! only after the previous result came back and was checked. Inputs come
//! from [`Rng`] seeded with the run's seed and are generated outside the
//! timed region.

use crate::edits::{structural_pool, ConstEdits, StructEdits};
use crate::oracle::{self, BlockKind, Finding, GridModel};
use crate::stats::{median, summarize};
use crate::trace::Tracer;
use crate::Rng;
use asr::block::{Block, BlockError, BlockState};
use asr::fixpoint::FixpointStats;
use asr::prelude::*;
use asr::trace::InstantRecord;
use jpegsys::image::GrayImage;
use jtanalysis::db::{AnalysisDb, RunStats};
use jtanalysis::{alloc, blocking, callgraph, loops, threads, visibility, MethodRef};
use jtlang::corpus::GenConfig;
use jtlang::resolve::ClassTable;
use jtlang::Program;
use jtvm::engine::Engine;
use jtvm::io::PortDatum;
use jtvm::native::NativeVm;
use jtvm::value::RtValue;
use jtvm::vm::CompiledVm;
use sfr::embed::JtBlock;
use sfr::policy::{AnalysisContext, Policy};
use sfr::session::RefinementSession;
use sfr::violation::Violation;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 2 loop, constant edits (points-to rebase path).
    RecheckConst,
    /// Fig. 2 loop, structural edits (points-to delta path).
    RecheckStruct,
    /// Table 1 path: refine, lower, react on the JPEG design.
    JpegTable1,
    /// 32 embedded corpus blocks in one ASR system.
    BlockGrid,
}

impl Workload {
    /// Every workload, in the order the all-workloads run uses.
    pub const ALL: [Workload; 4] = [
        Workload::RecheckConst,
        Workload::RecheckStruct,
        Workload::JpegTable1,
        Workload::BlockGrid,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::RecheckConst => "recheck-const",
            Workload::RecheckStruct => "recheck-struct",
            Workload::JpegTable1 => "jpeg-table1",
            Workload::BlockGrid => "block-grid",
        }
    }

    /// The workload called `name`.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes and minimum op counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// The generated corpus of the re-check workloads.
    pub corpus: GenConfig,
    /// Structural mutations in the pool.
    pub pool: usize,
    /// Minimum edits per untraced re-check run.
    pub min_edits: usize,
    /// Minimum reactions per untraced JPEG run.
    pub min_reactions: usize,
    /// Minimum instants per untraced block-grid run.
    pub min_instants: usize,
    /// JPEG image width and height.
    pub image: (usize, usize),
    /// Block-grid lanes.
    pub lanes: usize,
    /// Blocks per block-grid lane.
    pub depth: usize,
    /// Set-up time per run: the workload sets up at least
    /// [`MIN_SETUPS`] times and then again until its set-ups have taken
    /// this long.
    pub setup_span: Duration,
}

impl Sizes {
    /// The benchmark's sizes.
    pub fn full() -> Sizes {
        Sizes {
            corpus: GenConfig {
                classes: 32,
                methods_per_class: 32,
                ..GenConfig::default()
            },
            pool: 64,
            min_edits: 200,
            min_reactions: 200,
            min_instants: 200_000,
            image: (
                jpegsys::testimage::PAPER_WIDTH,
                jpegsys::testimage::PAPER_HEIGHT,
            ),
            lanes: 8,
            depth: 4,
            setup_span: Duration::from_secs(2),
        }
    }

    /// Sizes small enough for `cargo test`.
    pub fn tiny() -> Sizes {
        Sizes {
            corpus: GenConfig {
                classes: 8,
                methods_per_class: 8,
                ..GenConfig::default()
            },
            pool: 16,
            min_edits: 10,
            min_reactions: 3,
            min_instants: 100,
            image: (24, 16),
            setup_span: Duration::ZERO,
            ..Sizes::full()
        }
    }
}

/// The answer the re-check oracle expects for a revision's source.
pub type RecheckOracle = fn(&str) -> Result<Vec<Finding>, String>;

/// One run of one workload.
#[derive(Debug, Clone)]
pub struct Spec {
    /// The workload.
    pub workload: Workload,
    /// Seed of every edit sequence, image and input stream.
    pub seed: u64,
    /// Wall time the measured loop runs; it also runs the size's minimum
    /// ops.
    pub seconds: f64,
    /// Per-layer run instead of the end-to-end run.
    pub trace: bool,
    /// Input sizes.
    pub sizes: Sizes,
    /// The re-check oracle ([`oracle::cold_findings`]; tests swap in a
    /// wrong one to check that mismatches fail the run).
    pub recheck_oracle: RecheckOracle,
}

impl Spec {
    /// A run with the stock oracles.
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool, sizes: Sizes) -> Spec {
        Spec {
            workload,
            seed,
            seconds,
            trace,
            sizes,
            recheck_oracle: oracle::cold_findings,
        }
    }
}

/// `(name, unit, better)` of every end-to-end metric, as in
/// `BENCHMARK.json`. The fail ratio is printed too but is not a metric
/// there, since it reads 0 on every healthy run; a failed op fails the
/// run instead.
pub const END_TO_END: &[(&str, &str, &str)] = &[
    ("op_p50_us", "us", "lower"),
    ("op_p95_us", "us", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
];

/// `(name, unit, better)` of every per-layer metric, as in
/// `BENCHMARK.json`. A workload that does not exercise a layer reports
/// it as 0.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("jtlang.parse_us", "us", "lower"),
    ("jtlang.resolve_us", "us", "lower"),
    ("jtlang.typecheck_us", "us", "lower"),
    ("jtanalysis.callgraph_us", "us", "lower"),
    ("jtanalysis.syntactic_us", "us", "lower"),
    ("jtanalysis.db.head_us", "us", "lower"),
    ("jtanalysis.db.tail_us", "us", "lower"),
    ("jtanalysis.db.recomputed", "count", "lower"),
    ("jtanalysis.db.scc_misses", "count", "lower"),
    ("jtanalysis.db.pt_retracted", "count", "lower"),
    ("jtanalysis.db.pt_added", "count", "lower"),
    ("jtanalysis.db.pointsto_misses", "count", "lower"),
    ("jtanalysis.db.retracting_edits", "ratio", "lower"),
    ("jtanalysis.db.demand_misses", "count", "lower"),
    ("jtanalysis.db.demand_hit_ratio", "ratio", "higher"),
    ("sfr.rules_us", "us", "lower"),
    ("sfr.refine_ms", "ms", "lower"),
    ("sfr.embed_ms", "ms", "lower"),
    ("sfr.policy_check_ms", "ms", "lower"),
    ("jtanalysis.bounds_ms", "ms", "lower"),
    ("jtvm.native.lower_ms", "ms", "lower"),
    ("jtvm.native.code_bytes", "bytes", "lower"),
    ("jtvm.native.react_us", "us", "lower"),
    ("jtvm.native.ops_per_react", "count", "lower"),
    ("jtvm.vm.react_us", "us", "lower"),
    ("jtvm.native.breakeven_reactions", "count", "lower"),
    ("sfr.native_blocks", "count", "higher"),
    ("sfr.marshal_us", "us", "lower"),
    ("sfr.native_ratio", "ratio", "higher"),
    ("asr.self_us", "us", "lower"),
    ("asr.block_evals", "count", "lower"),
    ("asr.build_us", "us", "lower"),
    ("trace.layer_sum_ratio", "ratio", "higher"),
    ("trace.embed_sum_ratio", "ratio", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
];

/// One reported number.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Name from [`END_TO_END`] or [`PER_LAYER`].
    pub name: &'static str,
    /// Value; not finite when it could not be measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The result of one run.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Ops started.
    pub attempted: u64,
    /// Ops that returned an error.
    pub errored: u64,
    /// Ops whose output disagreed with the oracle.
    pub mismatched: u64,
    /// End-to-end metrics, or per-layer metrics in a traced run.
    pub metrics: Vec<Metric>,
    /// Human-readable lines: sample counts and the workload's claims.
    pub notes: Vec<String>,
    /// The traced run's spans as JSON.
    pub trace_json: Option<String>,
}

impl Outcome {
    /// Errored plus mismatched ops.
    pub fn failed(&self) -> u64 {
        self.errored + self.mismatched
    }

    /// [`Self::failed`] ÷ [`Self::attempted`].
    pub fn fail_ratio(&self) -> f64 {
        self.failed() as f64 / self.attempted.max(1) as f64
    }

    /// The process exit code: nonzero when any op failed.
    pub fn exit_code(&self) -> i32 {
        i32::from(self.failed() > 0 || self.attempted == 0)
    }

    /// The one-line JSON result: `correct`, `attempted`, `failed`, and
    /// every metric with its unit.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() {
                    format!("{}", m.value)
                } else {
                    "null".to_string()
                };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.exit_code() == 0,
            self.attempted,
            self.failed(),
            metrics.join(", ")
        )
    }
}

/// Runs `spec`.
///
/// # Errors
///
/// A set-up step failed, so nothing was measured.
pub fn run(spec: &Spec) -> Result<Outcome, String> {
    match spec.workload {
        Workload::RecheckConst => recheck(spec, false),
        Workload::RecheckStruct => recheck(spec, true),
        Workload::JpegTable1 => jpeg(spec),
        Workload::BlockGrid => grid(spec),
    }
}

/// Spans stored per traced run; later spans are timed but not stored.
const TRACE_CAPACITY: usize = 200_000;

/// A measured loop never runs longer than this, whatever the machine.
const WALL_CAP: Duration = Duration::from_secs(100);

/// Op latencies kept per run: a uniform sample beyond this, so a run's
/// memory (and `peak_rss_mb`) does not grow with its op count.
const KEEP: usize = 1 << 18;

/// The measured loop: when it stops (after `seconds` of wall time and at
/// least `min_ops` ops, or at [`WALL_CAP`]) and the op latencies so far.
struct Measured {
    ops: usize,
    seconds: Duration,
    min_ops: usize,
    started: Instant,
    /// Wall time of the loop, as of the last [`Self::more`].
    wall: Duration,
    /// Algorithm R reservoir of at most [`KEEP`] latencies, allocated
    /// and touched up front.
    kept: Vec<u64>,
    rng: Rng,
}

impl Measured {
    fn new(spec: &Spec, min_ops: usize) -> Measured {
        // The traced run does several times the work per op; a quarter
        // of the ops still gives stable per-layer medians.
        let min_ops = if spec.trace { min_ops / 4 } else { min_ops };
        let mut kept = vec![u64::MAX; KEEP];
        kept.clear();
        Measured {
            ops: 0,
            seconds: Duration::from_secs_f64(spec.seconds.max(0.0)),
            min_ops: min_ops.max(1),
            started: Instant::now(),
            wall: Duration::ZERO,
            kept,
            rng: Rng::new(!spec.seed),
        }
    }

    fn more(&mut self) -> bool {
        self.wall = self.started.elapsed();
        (self.ops < self.min_ops || self.wall < self.seconds) && self.wall < WALL_CAP
    }

    fn record(&mut self, ns: u64) {
        self.ops += 1;
        if self.kept.len() < KEEP {
            self.kept.push(ns);
        } else {
            let j = self.rng.below(self.ops);
            if j < KEEP {
                self.kept[j] = ns;
            }
        }
    }
}

/// Set-ups every run makes; `setup_s` is the median of all of them.
pub const MIN_SETUPS: usize = 3;

/// Whether a run that has timed `setup_ns` sets up again. Cheap set-ups
/// repeat for [`Sizes::setup_span`], so their median is not decided by
/// the first set-ups of a process, which are slower than later ones, or
/// by a short stall of the host. A traced run sets up an even number of
/// times, since its embed replica alternates between running before and
/// after the real set-up.
fn more_setups(setup_ns: &[u64], spec: &Spec) -> bool {
    let spent = Duration::from_nanos(setup_ns.iter().sum());
    setup_ns.len() < MIN_SETUPS
        || spent < spec.sizes.setup_span
        || (spec.trace && setup_ns.len() % 2 == 1)
}

fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Median of nanosecond samples, in microseconds.
fn p50_us(ns: &[u64]) -> f64 {
    median(&ns.iter().map(|&n| us(n)).collect::<Vec<_>>())
}

fn mean(xs: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = xs
        .into_iter()
        .fold((0.0, 0usize), |(s, n), x| (s + x, n + 1));
    sum / n as f64
}

/// Peak resident set size of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb * 1024.0 / 1e6)
}

/// The end-to-end metrics of a run's op latencies and set-up times.
fn end_to_end(m: &Measured, setup_ns: &[u64], out: &mut Outcome) {
    let op_us: Vec<f64> = m.kept.iter().map(|&n| us(n)).collect();
    let s = summarize(&op_us, 0.95);
    let setup_s: Vec<f64> = setup_ns.iter().map(|&n| n as f64 / 1e9).collect();
    // With fewer than 200 latencies the tail is not reported (NaN, which
    // the JSON result writes as null).
    let values = [
        s.median,
        s.tail.unwrap_or(f64::NAN),
        m.ops as f64 / m.wall.as_secs_f64(),
        median(&setup_s),
        peak_rss_mb(),
    ];
    for (&(name, unit, _), value) in END_TO_END.iter().zip(values) {
        out.metrics.push(Metric { name, value, unit });
    }
    out.notes.push(format!(
        "ops: {} in {:.3} s ({} latencies kept); set-ups: {}",
        m.ops,
        m.wall.as_secs_f64(),
        s.n,
        setup_ns.len()
    ));
    out.notes
        .push(format!("fail_ratio = {} ratio", out.fail_ratio()));
}

/// Fills `out.metrics` with every per-layer metric, taking values from
/// `values` and 0 for layers the workload does not exercise.
fn per_layer(values: &BTreeMap<&'static str, f64>, out: &mut Outcome) {
    for &(name, unit, _) in PER_LAYER {
        let value = values.get(name).copied().unwrap_or(0.0);
        out.metrics.push(Metric { name, value, unit });
    }
    debug_assert!(
        values
            .keys()
            .all(|k| PER_LAYER.iter().any(|(n, _, _)| n == k)),
        "unlisted per-layer metric in {:?}",
        values.keys()
    );
}

// ---------------------------------------------------------------- re-check

enum Edits {
    Const(ConstEdits),
    Struct(StructEdits),
}

impl Edits {
    fn base(&self) -> String {
        match self {
            Edits::Const(e) => e.base(),
            Edits::Struct(e) => e.base().to_string(),
        }
    }

    fn next_revision(&mut self, rng: &mut Rng) -> String {
        match self {
            Edits::Const(e) => e.next_revision(rng),
            Edits::Struct(e) => e.next_revision(rng),
        }
    }
}

/// Nanoseconds per layer of one replayed re-check.
#[derive(Debug, Clone, Copy, Default)]
struct RecheckLayers {
    parse: u64,
    resolve: u64,
    typecheck: u64,
    callgraph: u64,
    db: u64,
    tail: u64,
    syntactic: u64,
    rules: u64,
    total: u64,
}

impl RecheckLayers {
    fn sum(&self) -> u64 {
        self.parse
            + self.resolve
            + self.typecheck
            + self.callgraph
            + self.db
            + self.syntactic
            + self.rules
    }
}

/// Replays the public calls `RefinementSession::replace_source` and
/// `check` make, each inside its own span, on a database of its own that
/// sees the same revisions as the session's.
struct Replica {
    db: AnalysisDb,
    program: Program,
    table: ClassTable,
    policy: Policy,
}

impl Replica {
    fn new(source: &str) -> Result<Replica, String> {
        let (program, table) = jtanalysis::frontend(source)?;
        let mut replica = Replica {
            db: AnalysisDb::new(),
            program,
            table,
            policy: Policy::asr(),
        };
        // The session's set-up ends with one cold check; so does this.
        replica.op(source, &mut Tracer::new(0), 0)?;
        Ok(replica)
    }

    fn op(
        &mut self,
        text: &str,
        tr: &mut Tracer,
        op: u64,
    ) -> Result<(Vec<Violation>, RecheckLayers), String> {
        let mut l = RecheckLayers::default();
        let root = tr.open("recheck", op, None);
        // replace_source: jtlang::check_source, then a second resolve.
        let s = tr.open("jtlang.parse", op, Some(&root));
        let program = jtlang::parse(text);
        l.parse = tr.close(s);
        let program = program.map_err(|e| e.to_string())?;
        let s = tr.open("jtlang.resolve", op, Some(&root));
        let table = jtlang::resolve::resolve(&program);
        l.resolve = tr.close(s);
        let table = table.map_err(|e| e.to_string())?;
        let s = tr.open("jtlang.typecheck", op, Some(&root));
        let typed = jtlang::types::check(&program, &table);
        drop(table);
        l.typecheck = tr.close(s);
        typed.map_err(|e| e.to_string())?;
        let s = tr.open("jtlang.resolve", op, Some(&root));
        let table = jtlang::resolve::resolve(&program);
        let replaced = table.map(|table| {
            self.table = table;
            self.program = program;
        });
        l.resolve += tr.close(s);
        replaced.map_err(|e| e.to_string())?;
        // check: AnalysisContext::with_db, then the policy's rules.
        let s = tr.open("jtanalysis.callgraph", op, Some(&root));
        let graph = callgraph::build(&self.program, &self.table);
        l.callgraph = tr.close(s);
        let s = tr.open("jtanalysis.db", op, Some(&root));
        let flow = self.db.analyze(&self.program, &self.table, &graph);
        l.db = tr.close(s);
        l.tail = self.db.last_run().tail_ns;
        let s = tr.open("jtanalysis.syntactic", op, Some(&root));
        let alloc = alloc::analyze_with_graph(&self.program, &self.table, &graph);
        let loops = loops::analyze(&self.program);
        let exposed = visibility::analyze(&self.program);
        let threads = threads::analyze(&self.program, &self.table);
        let blocking = blocking::analyze(&self.program, &self.table);
        l.syntactic = tr.close(s);
        let s = tr.open("sfr.rules", op, Some(&root));
        let cx = AnalysisContext {
            program: &self.program,
            table: &self.table,
            callgraph: graph,
            loops,
            alloc,
            exposed,
            threads,
            blocking,
            flow,
        };
        let violations = self.policy.check_with_context(&cx);
        drop(cx);
        l.rules = tr.close(s);
        l.total = tr.close(root);
        Ok((violations, l))
    }
}

/// The run's edit stream and the generator that drives it; the same
/// seed gives the same revisions, so the oracle can replay them.
fn edit_stream(spec: &Spec, structural: bool) -> (Edits, Rng) {
    let sizes = &spec.sizes;
    let mut rng = Rng::new(spec.seed);
    let edits = if structural {
        let pool = structural_pool(&sizes.corpus, sizes.pool, &mut rng);
        Edits::Struct(StructEdits::new(&sizes.corpus, pool))
    } else {
        Edits::Const(ConstEdits::new(sizes.corpus))
    };
    (edits, rng)
}

fn recheck(spec: &Spec, structural: bool) -> Result<Outcome, String> {
    let sizes = &spec.sizes;
    let (mut edits, mut rng) = edit_stream(spec, structural);
    let base = edits.base();

    // Set-up: a session over the base corpus and its first, cold check.
    let mut setup_ns = Vec::new();
    let mut session = None;
    while more_setups(&setup_ns, spec) {
        drop(session.take());
        let t = Instant::now();
        let s = RefinementSession::from_source(&base, Policy::asr()).map_err(|e| e.to_string())?;
        black_box(s.check());
        setup_ns.push(elapsed_ns(t));
        session = Some(s);
    }
    let mut session = session.expect("at least one set-up");
    let mut replica = if spec.trace {
        Some(Replica::new(&base)?)
    } else {
        None
    };
    let mut tracer = Tracer::new(if spec.trace { TRACE_CAPACITY } else { 0 });

    let mut out = Outcome::default();
    let mut counts: Vec<RunStats> = Vec::new();
    let mut layers: Vec<(u64, RecheckLayers)> = Vec::new();
    // The session's findings on the revisions the oracle checks once the
    // loop is over, so that its cold checks do not disturb the timed ops.
    let mut to_check: BTreeMap<u64, Vec<Finding>> = BTreeMap::new();
    let mut m = Measured::new(spec, sizes.min_edits);
    while m.more() {
        let text = edits.next_revision(&mut rng);
        let t = Instant::now();
        let result = session.replace_source(&text).map(|()| session.check());
        let ns = elapsed_ns(t);
        m.record(ns);
        let op = m.ops as u64;
        let violations = match result {
            Ok(v) => v,
            Err(e) => {
                out.errored += 1;
                out.notes.push(format!("revision {op} errored: {e}"));
                continue;
            }
        };
        counts.push(session.db_stats().0);
        let found = oracle::findings(&violations);
        if let Some(replica) = replica.as_mut() {
            let (replayed, l) = replica.op(&text, &mut tracer, op)?;
            if oracle::findings(&replayed) != found {
                out.mismatched += 1;
                out.notes.push(format!(
                    "revision {op}: replayed check disagrees with the session"
                ));
            }
            layers.push((ns, l));
        }
        // Every RECHECK_EVERY-th revision is kept; of the others only the
        // latest, in case it is the last.
        if to_check
            .last_key_value()
            .is_some_and(|(&k, _)| !k.is_multiple_of(oracle::RECHECK_EVERY))
        {
            to_check.pop_last();
        }
        to_check.insert(op, found);
    }
    out.attempted = m.ops as u64;
    recheck_oracle(spec, structural, m.ops, &to_check, &mut out);

    let retracting = counts
        .iter()
        .filter(|s| s.pt_constraints_retracted > 0)
        .count();
    let retracting_share = retracting as f64 / counts.len().max(1) as f64;
    out.notes.push(format!(
        "edits retracting points-to constraints: {retracting} of {} ({})",
        counts.len(),
        if structural {
            "the delta path needs >= 90%"
        } else {
            "the rebase path needs 0"
        }
    ));
    if (structural && retracting_share < 0.9) || (!structural && retracting > 0) {
        out.notes
            .push("WARNING: the edits no longer take the path this workload is named for".into());
    }

    if !spec.trace {
        end_to_end(&m, &setup_ns, &mut out);
        return Ok(out);
    }
    let per_op = |f: fn(&RunStats) -> u64| mean(counts.iter().map(|s| f(s) as f64));
    let layer = |f: fn(&RecheckLayers) -> u64| {
        p50_us(&layers.iter().map(|(_, l)| f(l)).collect::<Vec<_>>())
    };
    let ratio = |f: fn(u64, &RecheckLayers) -> (u64, u64)| {
        median(
            &layers
                .iter()
                .map(|(ns, l)| {
                    let (num, den) = f(*ns, l);
                    num as f64 / den as f64
                })
                .collect::<Vec<_>>(),
        )
    };
    let (hits, misses) = counts.iter().fold((0u64, 0u64), |(h, m), s| {
        (h + s.demand_hits, m + s.demand_misses)
    });
    let values = BTreeMap::from([
        ("jtlang.parse_us", layer(|l| l.parse)),
        ("jtlang.resolve_us", layer(|l| l.resolve)),
        ("jtlang.typecheck_us", layer(|l| l.typecheck)),
        ("jtanalysis.callgraph_us", layer(|l| l.callgraph)),
        ("jtanalysis.syntactic_us", layer(|l| l.syntactic)),
        (
            "jtanalysis.db.head_us",
            layer(|l| l.db.saturating_sub(l.tail)),
        ),
        ("jtanalysis.db.tail_us", layer(|l| l.tail)),
        ("jtanalysis.db.recomputed", per_op(|s| s.recomputed)),
        ("jtanalysis.db.scc_misses", per_op(|s| s.scc_misses)),
        (
            "jtanalysis.db.pt_retracted",
            per_op(|s| s.pt_constraints_retracted),
        ),
        ("jtanalysis.db.pt_added", per_op(|s| s.pt_constraints_added)),
        (
            "jtanalysis.db.pointsto_misses",
            per_op(|s| s.pointsto_misses),
        ),
        ("jtanalysis.db.retracting_edits", retracting_share),
        ("jtanalysis.db.demand_misses", per_op(|s| s.demand_misses)),
        (
            "jtanalysis.db.demand_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        ),
        ("sfr.rules_us", layer(|l| l.rules)),
        // The layers against the traced (replayed) op they make up; the
        // traced op against the session's own, untraced one.
        ("trace.layer_sum_ratio", ratio(|_, l| (l.sum(), l.total))),
        ("trace.overhead_ratio", ratio(|ns, l| (l.total, ns))),
    ]);
    per_layer(&values, &mut out);
    out.notes.push(format!("traced edits: {}", layers.len()));
    out.trace_json = Some(tracer.to_json(spec.workload.name(), spec.seed));
    Ok(out)
}

/// Regenerates the run's `ops` revisions and compares the session's
/// findings on each revision in `found` with the oracle's answer.
fn recheck_oracle(
    spec: &Spec,
    structural: bool,
    ops: usize,
    found: &BTreeMap<u64, Vec<Finding>>,
    out: &mut Outcome,
) {
    let (mut edits, mut rng) = edit_stream(spec, structural);
    for op in 1..=ops as u64 {
        let text = edits.next_revision(&mut rng);
        let Some(found) = found.get(&op) else {
            continue;
        };
        if !(spec.recheck_oracle)(&text).is_ok_and(|want| &want == found) {
            out.mismatched += 1;
            out.notes.push(format!(
                "revision {op}: session disagrees with the cold check"
            ));
        }
    }
}

// --------------------------------------------------------------- execution

/// Time spent inside one embedded block, filled by [`Timed`].
#[derive(Debug, Default)]
struct Probe {
    busy_ns: AtomicU64,
    evals: AtomicU64,
    /// The block's last integer input, for replaying it on a standalone
    /// engine.
    last_input: AtomicI64,
}

/// An embedded block that times its `eval` and `tick` while `on` is
/// set. Every other trait method delegates unchanged. The counters are
/// statistics that publish nothing else, so `Relaxed` suffices.
struct Timed {
    inner: JtBlock,
    probe: Arc<Probe>,
    on: Arc<AtomicBool>,
}

/// Runs `f`, adding its duration to `probe` when `on` is set.
fn probed<R>(probe: &Probe, on: &AtomicBool, f: impl FnOnce() -> R) -> R {
    if !on.load(Ordering::Relaxed) {
        return f();
    }
    let t = Instant::now();
    let r = f();
    probe.busy_ns.fetch_add(elapsed_ns(t), Ordering::Relaxed);
    r
}

impl Block for Timed {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn input_arity(&self) -> usize {
        self.inner.input_arity()
    }

    fn output_arity(&self) -> usize {
        self.inner.output_arity()
    }

    fn eval(&self, inputs: &[Value], outputs: &mut [Value]) -> Result<(), BlockError> {
        if self.on.load(Ordering::Relaxed) {
            self.probe.evals.fetch_add(1, Ordering::Relaxed);
        }
        probed(&self.probe, &self.on, || self.inner.eval(inputs, outputs))
    }

    fn tick(&mut self, inputs: &[Value]) -> Result<(), BlockError> {
        if let Some(x) = inputs.first().and_then(Value::as_int) {
            self.probe.last_input.store(x, Ordering::Relaxed);
        }
        let inner = &mut self.inner;
        probed(&self.probe, &self.on, || inner.tick(inputs))
    }

    fn save_state(&self) -> BlockState {
        self.inner.save_state()
    }

    fn restore_state(&mut self, state: &BlockState) -> Result<(), BlockError> {
        self.inner.restore_state(state)
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn take_subtrace(&mut self) -> Vec<InstantRecord> {
        self.inner.take_subtrace()
    }

    fn take_nested_stats(&self) -> FixpointStats {
        self.inner.take_nested_stats()
    }

    fn take_inner_system(&mut self) -> Option<System> {
        self.inner.take_inner_system()
    }
}

/// The probes of one system's embedded blocks (none when untimed).
struct Probes {
    probes: Vec<Arc<Probe>>,
    on: Arc<AtomicBool>,
    /// Blocks on the native tier.
    native: usize,
}

/// Boxes `blocks` for a system, wrapped in [`Timed`] when `timed`.
fn embedded(blocks: Vec<JtBlock>, timed: bool) -> (Vec<Box<dyn Block>>, Probes) {
    let native = blocks
        .iter()
        .filter(|b| b.engine_tier() == "native")
        .count();
    let on = Arc::new(AtomicBool::new(false));
    let mut probes = Vec::new();
    let blocks = blocks
        .into_iter()
        .map(|inner| -> Box<dyn Block> {
            if !timed {
                return Box::new(inner);
            }
            let probe = Arc::new(Probe::default());
            probes.push(Arc::clone(&probe));
            Box::new(Timed {
                inner,
                probe,
                on: Arc::clone(&on),
            })
        })
        .collect();
    (blocks, Probes { probes, on, native })
}

impl Probes {
    /// Starts or stops timing.
    fn set(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    /// Drains `(busy ns, evals)` summed over every block.
    fn drain(&self) -> (u64, u64) {
        self.probes.iter().fold((0, 0), |(ns, n), p| {
            (
                ns + p.busy_ns.swap(0, Ordering::Relaxed),
                n + p.evals.swap(0, Ordering::Relaxed),
            )
        })
    }
}

/// Nanoseconds per layer of one replayed `sfr::embed`.
#[derive(Debug, Clone, Copy, Default)]
struct EmbedLayers {
    frontend: u64,
    policy: u64,
    verify: u64,
    bounds: u64,
    lower: u64,
    arm: u64,
}

impl EmbedLayers {
    fn sum(&self) -> u64 {
        self.frontend + self.policy + self.verify + self.bounds + self.lower + self.arm
    }

    fn add(&mut self, o: &EmbedLayers) {
        self.frontend += o.frontend;
        self.policy += o.policy;
        self.verify += o.verify;
        self.bounds += o.bounds;
        self.lower += o.lower;
        self.arm += o.arm;
    }
}

/// Replays the public calls `sfr::embed` makes, each inside its own
/// span, and returns the standalone native engine it builds.
fn embed_replica(
    source: &str,
    class: &str,
    args: &[i64],
    tr: &mut Tracer,
) -> Result<(NativeVm, EmbedLayers), String> {
    let mut l = EmbedLayers::default();
    let root = tr.open("sfr.embed", 0, None);
    let s = tr.open("jtlang.frontend", 0, Some(&root));
    let front = jtlang::check_source(source).and_then(|p| {
        let t = jtlang::resolve::resolve(&p).map_err(|e| e.to_string())?;
        Ok((p, t))
    });
    l.frontend = tr.close(s);
    let (program, table) = front?;
    let s = tr.open("sfr.policy_check", 0, Some(&root));
    let violations = Policy::asr().check(&program, &table);
    l.policy = tr.close(s);
    if !violations.is_empty() {
        return Err(format!(
            "{class} violates the policy: {}",
            violations[0].message
        ));
    }
    let s = tr.open("sfr.extension", 0, Some(&root));
    let verified = sfr::extension::verify(&program, &table, class);
    l.verify = tr.close(s);
    verified.map_err(|e| e.to_string())?;
    let s = tr.open("jtanalysis.bounds", 0, Some(&root));
    let bound = jtanalysis::bounds::instruction_bounds(&program, &table)
        .get(&MethodRef::method(class, "run"))
        .copied()
        .flatten();
    l.bounds = tr.close(s);
    let s = tr.open("jtvm.native.lower", 0, Some(&root));
    let rt_args: Vec<RtValue> = args.iter().map(|&v| RtValue::Int(v)).collect();
    let native = NativeVm::new(program.clone(), class)
        .map_err(|e| e.to_string())
        .and_then(|mut vm| {
            vm.initialize(&rt_args)
                .map(|()| vm)
                .map_err(|e| e.to_string())
        });
    l.lower = tr.close(s);
    let mut native = native?;
    let s = tr.open("jtvm.native.arm", 0, Some(&root));
    native.set_step_bound(bound);
    native.freeze_heap();
    drop((program, table));
    l.arm = tr.close(s);
    tr.close(root);
    if let Some(reject) = native.reject_reason() {
        return Err(format!(
            "{class} did not lower to the native tier: {reject}"
        ));
    }
    Ok((native, l))
}

/// Per-op samples of a traced execution run.
#[derive(Debug, Default)]
struct ExecSamples {
    /// Untraced ops (probes off).
    plain: Vec<u64>,
    /// Traced ops (probes on).
    traced: Vec<u64>,
    /// Time inside the embedded blocks during traced ops.
    blocks: Vec<u64>,
    /// Standalone native reactions on the same inputs.
    engine: Vec<u64>,
    /// Native ops retired per standalone reaction.
    engine_ops: Vec<u64>,
    /// Embedded-block evaluations per traced op.
    evals: Vec<u64>,
}

/// Set-up numbers of a traced execution run, one entry per set-up.
#[derive(Debug, Default)]
struct SetupSamples {
    refine: Vec<u64>,
    embed: Vec<u64>,
    build: Vec<u64>,
    replica: Vec<EmbedLayers>,
}

fn exec_per_layer(
    setup: &SetupSamples,
    ops: &ExecSamples,
    standalone: &[NativeVm],
    native_blocks: usize,
    vm_react_us: f64,
    out: &mut Outcome,
) {
    let ms = |ns: &[u64]| p50_us(ns) / 1e3;
    let replica = |f: fn(&EmbedLayers) -> u64| ms(&setup.replica.iter().map(f).collect::<Vec<_>>());
    let zipped = |f: &dyn Fn(u64, u64) -> f64| {
        ops.blocks
            .iter()
            .zip(&ops.engine)
            .map(|(&w, &n)| f(w, n))
            .collect::<Vec<f64>>()
    };
    let native_us = p50_us(&ops.engine);
    let marshal_us = median(&zipped(&|w, n| us(w) - us(n)));
    let self_us = median(
        &ops.traced
            .iter()
            .zip(&ops.blocks)
            .map(|(&t, &w)| us(t) - us(w))
            .collect::<Vec<_>>(),
    );
    let traced_us = p50_us(&ops.traced);
    let lower_ms = replica(|l| l.lower);
    let embed_ratio = median(
        &setup
            .replica
            .iter()
            .zip(&setup.embed)
            .map(|(l, &e)| l.sum() as f64 / e as f64)
            .collect::<Vec<_>>(),
    );
    let mut values = BTreeMap::from([
        ("sfr.embed_ms", ms(&setup.embed)),
        ("sfr.policy_check_ms", replica(|l| l.policy)),
        ("jtanalysis.bounds_ms", replica(|l| l.bounds)),
        ("jtvm.native.lower_ms", lower_ms),
        (
            "jtvm.native.code_bytes",
            standalone
                .iter()
                .map(|vm| vm.native_code().map_or(0, |c| c.encoded_size()) as f64)
                .sum(),
        ),
        ("jtvm.native.react_us", native_us),
        (
            "jtvm.native.ops_per_react",
            median(&ops.engine_ops.iter().map(|&n| n as f64).collect::<Vec<_>>()),
        ),
        ("sfr.native_blocks", native_blocks as f64),
        ("sfr.marshal_us", marshal_us),
        (
            "sfr.native_ratio",
            median(&zipped(&|w, n| n as f64 / w as f64)),
        ),
        ("asr.self_us", self_us),
        ("asr.block_evals", mean(ops.evals.iter().map(|&n| n as f64))),
        ("asr.build_us", p50_us(&setup.build)),
        (
            "trace.layer_sum_ratio",
            (self_us + marshal_us + native_us) / traced_us,
        ),
        ("trace.embed_sum_ratio", embed_ratio),
        ("trace.overhead_ratio", traced_us / p50_us(&ops.plain)),
    ]);
    if !setup.refine.is_empty() {
        values.insert("sfr.refine_ms", ms(&setup.refine));
    }
    if vm_react_us.is_finite() {
        values.insert("jtvm.vm.react_us", vm_react_us);
        values.insert(
            "jtvm.native.breakeven_reactions",
            lower_ms * 1e3 / (vm_react_us - native_us),
        );
    }
    per_layer(&values, out);
    out.notes.push(format!(
        "traced ops: {}, untraced ops: {}",
        ops.traced.len(),
        ops.plain.len()
    ));
}

fn native_note(native: usize, total: usize, out: &mut Outcome) {
    out.notes
        .push(format!("blocks on the native tier: {native} of {total}"));
    if native < total {
        out.notes
            .push("WARNING: not every embedded block runs on the native tier".into());
    }
}

// -------------------------------------------------------------------- JPEG

const JPEG_CLASS: &str = "JpegRestricted";

fn noise_image(rng: &mut Rng, (w, h): (usize, usize)) -> GrayImage {
    GrayImage::from_samples(w, h, (0..w * h).map(|_| rng.range(0, 255)).collect())
}

fn jpeg_inputs(img: &GrayImage) -> Vec<Value> {
    vec![
        Value::vec(img.samples().to_vec()),
        Value::int(img.width() as i64),
        Value::int(img.height() as i64),
    ]
}

fn jpeg_system(block: Box<dyn Block>) -> Result<System, BuildSystemError> {
    let mut b = SystemBuilder::new("jpeg");
    let jpeg = b.add_boxed_block(block);
    for (port, name) in ["pixels", "width", "height"].into_iter().enumerate() {
        let input = b.add_input(name);
        b.connect(Source::ext(input), Sink::block(jpeg, port))?;
    }
    for (port, name) in ["plane", "error"].into_iter().enumerate() {
        let output = b.add_output(name);
        b.connect(Source::block(jpeg, port), Sink::ext(output))?;
    }
    let mut system = b.build()?;
    system.set_strategy(Strategy::Staged);
    Ok(system)
}

fn jpeg(spec: &Spec) -> Result<Outcome, String> {
    let sizes = &spec.sizes;
    let mut rng = Rng::new(spec.seed);
    let unrestricted = jpegsys::jtgen::unrestricted_source();
    let restricted = jpegsys::jtgen::restricted_source();
    let mut tracer = Tracer::new(if spec.trace { TRACE_CAPACITY } else { 0 });

    // Set-up: the Table 1 path from the unrestricted draft to a running
    // system — automated refinement, the manual step, embedding (which
    // lowers the reaction to the native tier), and the system build.
    let mut setup_ns = Vec::new();
    let mut setup = SetupSamples::default();
    let mut system = None;
    let mut standalone = None;
    let mut refined = String::new();
    while more_setups(&setup_ns, spec) {
        drop(system.take());
        drop(standalone.take());
        // A traced run replays the embedding just after the real one on
        // even set-ups and just before it on odd ones (on the source the
        // previous set-up refined), so neither side always finds the
        // caches warm.
        let early = spec.trace && setup_ns.len() % 2 == 1;
        if early {
            let (vm, l) = embed_replica(&refined, JPEG_CLASS, &[], &mut tracer)?;
            setup.replica.push(l);
            standalone = Some(vm);
        }
        let t = Instant::now();
        let mut session = RefinementSession::from_source(&unrestricted, Policy::asr())
            .map_err(|e| e.to_string())?;
        let tr = Instant::now();
        session
            .refine_automatically(10)
            .map_err(|e| e.to_string())?;
        setup.refine.push(elapsed_ns(tr));
        session
            .replace_source(&restricted)
            .map_err(|e| e.to_string())?;
        refined = session.source();
        let te = Instant::now();
        let block = sfr::embed::embed(&refined, JPEG_CLASS, &[]).map_err(|e| e.to_string())?;
        setup.embed.push(elapsed_ns(te));
        let (blocks, probes) = embedded(vec![block], spec.trace);
        let tb = Instant::now();
        let built = jpeg_system(blocks.into_iter().next().expect("one block"))
            .map_err(|e| e.to_string())?;
        setup.build.push(elapsed_ns(tb));
        setup_ns.push(elapsed_ns(t));
        system = Some((built, probes));
        if spec.trace && !early {
            let (vm, l) = embed_replica(&refined, JPEG_CLASS, &[], &mut tracer)?;
            setup.replica.push(l);
            standalone = Some(vm);
        }
    }
    let (mut system, probes) = system.expect("at least one set-up");

    let mut out = Outcome::default();
    native_note(probes.native, 1, &mut out);
    let mut ops = ExecSamples::default();
    let mut m = Measured::new(spec, sizes.min_reactions);
    while m.more() {
        let img = noise_image(&mut rng, sizes.image);
        let inputs = jpeg_inputs(&img);
        // A traced run alternates untraced and traced reactions; the
        // standalone engine needs no history (each reaction overwrites
        // the image's whole plane), so it replays traced ones only.
        let traced = spec.trace && m.ops % 2 == 1;
        probes.set(traced);
        let t = Instant::now();
        let result = system.react(&inputs);
        let ns = elapsed_ns(t);
        m.record(ns);
        let outputs = match result {
            Ok(o) => o,
            Err(e) => {
                out.errored += 1;
                out.notes.push(format!("reaction {} errored: {e}", m.ops));
                continue;
            }
        };
        if !oracle::jpeg_matches(&img, &outputs) {
            out.mismatched += 1;
            out.notes.push(format!(
                "reaction {}: output differs from the native reference",
                m.ops
            ));
        }
        if !spec.trace {
            continue;
        }
        if !traced {
            ops.plain.push(ns);
            continue;
        }
        let (busy, evals) = probes.drain();
        let vm = standalone
            .as_mut()
            .expect("traced runs keep the replica's engine");
        let port = [
            PortDatum::Vec(img.samples().to_vec()),
            PortDatum::Int(img.width() as i64),
            PortDatum::Int(img.height() as i64),
        ];
        let t = Instant::now();
        let replayed = vm.react(&port);
        ops.engine.push(elapsed_ns(t));
        ops.engine_ops.push(vm.last_cost().steps);
        if replayed.is_err() {
            out.mismatched += 1;
            out.notes.push("standalone native reaction errored".into());
        }
        ops.traced.push(ns);
        ops.blocks.push(busy);
        ops.evals.push(evals);
    }

    out.attempted = m.ops as u64;
    if !spec.trace {
        end_to_end(&m, &setup_ns, &mut out);
        return Ok(out);
    }
    // The stack VM's reaction time, for the native tier's break-even.
    let mut vm = CompiledVm::new(
        jtlang::parse(&refined).map_err(|e| e.to_string())?,
        JPEG_CLASS,
    )
    .map_err(|e| e.to_string())?;
    vm.initialize(&[]).map_err(|e| e.to_string())?;
    let mut vm_ns = Vec::new();
    for _ in 0..5 {
        let img = noise_image(&mut rng, sizes.image);
        let t = Instant::now();
        let result = jpegsys::jtgen::run_roundtrip(&mut vm, &img);
        vm_ns.push(elapsed_ns(t));
        if !result.is_ok_and(|got| got == jpegsys::jtgen::native_reference(&img)) {
            out.mismatched += 1;
            out.notes
                .push("stack VM reaction differs from the native reference".into());
        }
    }
    let standalone: Vec<NativeVm> = standalone.into_iter().collect();
    exec_per_layer(
        &setup,
        &ops,
        &standalone,
        probes.native,
        p50_us(&vm_ns),
        &mut out,
    );
    out.trace_json = Some(tracer.to_json(spec.workload.name(), spec.seed));
    Ok(out)
}

// -------------------------------------------------------------- block grid

/// `lanes` chains of `depth` blocks fed by one input each; the lane
/// outputs are external outputs and are summed by a tree of
/// `lanes - 1` [`asr::stock::add`] blocks into a last output.
fn grid_system(
    blocks: Vec<Box<dyn Block>>,
    lanes: usize,
    depth: usize,
) -> Result<System, BuildSystemError> {
    let mut b = SystemBuilder::new("grid");
    let mut blocks = blocks.into_iter();
    let mut level = Vec::new();
    for l in 0..lanes {
        let mut prev = Source::ext(b.add_input(format!("x{l}")));
        for _ in 0..depth {
            let id = b.add_boxed_block(blocks.next().expect("lanes × depth blocks"));
            b.connect(prev, Sink::block(id, 0))?;
            prev = Source::block(id, 0);
        }
        let o = b.add_output(format!("lane{l}"));
        b.connect(prev, Sink::ext(o))?;
        level.push(prev);
    }
    let mut adds = 0;
    while level.len() > 1 {
        let mut next = Vec::new();
        for pair in level.chunks(2) {
            if let [a, c] = pair {
                let add = b.add_block(asr::stock::add(format!("add{adds}")));
                adds += 1;
                b.connect(*a, Sink::block(add, 0))?;
                b.connect(*c, Sink::block(add, 1))?;
                next.push(Source::block(add, 0));
            } else {
                next.push(pair[0]);
            }
        }
        level = next;
    }
    let o = b.add_output("sum");
    b.connect(level[0], Sink::ext(o))?;
    let mut system = b.build()?;
    system.set_strategy(Strategy::Staged);
    Ok(system)
}

fn grid(spec: &Spec) -> Result<Outcome, String> {
    let sizes = &spec.sizes;
    let n_blocks = sizes.lanes * sizes.depth;
    let mut rng = Rng::new(spec.seed);
    let mut tracer = Tracer::new(if spec.trace { TRACE_CAPACITY } else { 0 });

    // Set-up: embed every block (each lowers to the native tier), then
    // build the system.
    let mut setup_ns = Vec::new();
    let mut setup = SetupSamples::default();
    let mut system = None;
    let mut standalone = Vec::new();
    while more_setups(&setup_ns, spec) {
        drop(system.take());
        standalone.clear();
        let mut embed_ns = 0;
        let mut replica = EmbedLayers::default();
        let t = Instant::now();
        let mut blocks = Vec::with_capacity(n_blocks);
        for b in 0..n_blocks {
            let kind = BlockKind::of(b);
            let args = kind.ctor_args(b);
            // A traced run replays the embedding just before the real
            // one on odd blocks and just after it on even ones, so
            // neither side always finds the caches warm.
            let replay =
                |tracer: &mut Tracer| embed_replica(kind.source(), kind.class(), &args, tracer);
            let early = if spec.trace && b % 2 == 1 {
                Some(replay(&mut tracer)?)
            } else {
                None
            };
            let te = Instant::now();
            let block =
                sfr::embed::embed(kind.source(), kind.class(), &args).map_err(|e| e.to_string())?;
            embed_ns += elapsed_ns(te);
            blocks.push(block);
            let late = if spec.trace && b % 2 == 0 {
                Some(replay(&mut tracer)?)
            } else {
                None
            };
            if let Some((vm, l)) = early.or(late) {
                replica.add(&l);
                standalone.push(vm);
            }
        }
        let (blocks, probes) = embedded(blocks, spec.trace);
        let tb = Instant::now();
        let built = grid_system(blocks, sizes.lanes, sizes.depth).map_err(|e| e.to_string())?;
        setup.build.push(elapsed_ns(tb));
        setup_ns.push(elapsed_ns(t));
        setup.embed.push(embed_ns);
        setup.replica.push(replica);
        system = Some((built, probes));
    }
    let (mut system, probes) = system.expect("at least one set-up");

    let mut out = Outcome::default();
    native_note(probes.native, n_blocks, &mut out);
    let mut model = GridModel::new(sizes.lanes, sizes.depth);
    let mut ops = ExecSamples::default();
    let mut m = Measured::new(spec, sizes.min_instants);
    let mut x = vec![0i64; sizes.lanes];
    let mut port = vec![[PortDatum::Int(0)]; n_blocks];
    while m.more() {
        for v in &mut x {
            *v = rng.range(-3, 3);
        }
        let inputs: Vec<Value> = x.iter().map(|&v| Value::int(v)).collect();
        let traced = spec.trace && m.ops % 2 == 1;
        probes.set(traced);
        let t = Instant::now();
        let result = system.react(&inputs);
        let ns = elapsed_ns(t);
        m.record(ns);
        let want = model.react(&x);
        match result {
            Ok(outputs) if oracle::ints_match(&outputs, &want) => {}
            Ok(_) => {
                out.mismatched += 1;
                if out.mismatched <= 3 {
                    out.notes
                        .push(format!("instant {}: outputs differ from the model", m.ops));
                }
            }
            Err(e) => {
                out.errored += 1;
                if out.errored <= 3 {
                    out.notes.push(format!("instant {} errored: {e}", m.ops));
                }
            }
        }
        if !spec.trace {
            continue;
        }
        // The standalone engines replay every instant, so they stay in
        // the embedded blocks' state; only traced instants are recorded.
        for (p, probe) in port.iter_mut().zip(&probes.probes) {
            p[0] = PortDatum::Int(probe.last_input.load(Ordering::Relaxed));
        }
        let t = Instant::now();
        let replayed = standalone
            .iter_mut()
            .zip(&port)
            .try_for_each(|(vm, p)| vm.react(p).map(drop));
        let engine_ns = elapsed_ns(t);
        if replayed.is_err() {
            out.mismatched += 1;
        }
        if !traced {
            ops.plain.push(ns);
            continue;
        }
        let (busy, evals) = probes.drain();
        ops.traced.push(ns);
        ops.blocks.push(busy);
        ops.evals.push(evals);
        ops.engine.push(engine_ns);
        ops.engine_ops
            .push(standalone.iter().map(|vm| vm.last_cost().steps).sum());
    }

    out.attempted = m.ops as u64;
    if !spec.trace {
        end_to_end(&m, &setup_ns, &mut out);
        return Ok(out);
    }
    exec_per_layer(&setup, &ops, &standalone, probes.native, f64::NAN, &mut out);
    out.trace_json = Some(tracer.to_json(spec.workload.name(), spec.seed));
    Ok(out)
}
