//! The incremental analysis database: memoized, demand-driven queries
//! over the flow-sensitive suite.
//!
//! [`AnalysisDb`] replaces the batch drivers with a salsa-style (but
//! hand-rolled, std-only) query engine. Every *method-level query* —
//! CFG size, definite assignment, constant propagation, intervals with
//! loop bounds — is keyed by a structural fingerprint of the method and
//! its class context ([`crate::fingerprint`]); every *SCC-level query*
//! (the purity/escape summaries of one call-graph component) is keyed
//! by its member fingerprints plus the summary hashes of its external
//! callees. Cached results store method-local pre-order indices instead
//! of spans or node ids, and are rebased onto the current parse at
//! materialization time, so a re-parse that renumbers every node still
//! hits.
//!
//! Invalidation is therefore purely key-driven: an edit to one method
//! changes that method's fingerprint (new keys, old entries orphaned)
//! and can only propagate *upward* through the condensation DAG via
//! changed summary hashes. Early cutoff falls out of the keying: if a
//! recomputed SCC produces summaries with the same hash, its callers'
//! keys are unchanged and the dirty cone stops there.
//!
//! The whole-program points-to relation is maintained *differentially*
//! across revisions by the delta points-to cache (`ptdelta`): each method's
//! constraint contribution is keyed by a constant-blind shape
//! fingerprint, an edit retracts only the tainted frontier's derived
//! facts and re-propagates from there, and a span-only edit rebases
//! the solved relation outright without touching the solver.
//!
//! The analysis *tail* — race verdicts, R13 ownership, R14 alias
//! leaks, call-site loop proofs, R2 loop evidence, and per-method WCET
//! folds — is carried from revision to revision per method by the
//! demand layer (`crate::demand`): each method's span-free cores stay
//! beside the inputs they were computed from, and only the edit's
//! changed set re-runs — a changed method key, summary hash, thread or
//! init reach, or points-to slice, each re-run counted by its
//! [`TailCause`]. Every other method is materialized from its cores
//! through the revision's node maps — see DESIGN §8/§9 for the
//! boundary.
//!
//! Stale entries leave the method, SCC and revision caches
//! `KEEP_REVISIONS` revisions after the last revision that cited them;
//! eviction visits only the entries a revision stopped citing.
//!
//! Metrics (with a registry attached): `jtanalysis.db.hits`, `.misses`,
//! `.recomputed`, `.invalidated`, `.scc_hits`, `.scc_misses`,
//! `.pointsto_hits`, `.pointsto_misses` (one per reset to the empty
//! relation, also counted by cause as `.pointsto_reset.<cause>`),
//! `.pt_constraints_retracted`, `.pt_constraints_added`,
//! `.demand_hits`, `.demand_misses`, `.tail_visited`,
//! `.tail_rerun.<cause>`, and the `jtanalysis.db.revision` gauge,
//! alongside the same suite metrics the batch driver exported.

use crate::callgraph::CallGraph;
use crate::constprop::{self, ConstpropCore};
use crate::definite::{self, DefiniteCore};
use crate::demand::TailState;
use crate::escape::EscapeSummary;
use crate::fingerprint::{combine, field_lens_fp, Fp, NodeMap, ProgramIndex, StructHasher};
use crate::interval::{self, IntervalCore};
use crate::pointsto;
use crate::ptdelta::{DeltaPath, PtCache};
use crate::purity::PuritySummary;
use crate::races;
use crate::summary::{self, MethodSummary, SummaryReport};
use crate::{cfg, each_method, flow::FlowReport, MethodRef};
use jtlang::ast::{NodeId, Program};
use jtlang::reparse::MemberPos;
use jtlang::resolve::ClassTable;
use std::collections::{btree_map::Entry, BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;
use std::time::Instant;

/// Revisions an entry survives without being used before eviction.
const KEEP_REVISIONS: u64 = 4;

/// Why a carried tail result re-ran, gravest first: a result re-run for
/// several reasons counts under the first of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TailCause {
    /// The class signature table changed (or the tail has no carried
    /// state): every result re-runs.
    Signature,
    /// The method's own key changed — its body or its class context —
    /// or the method is new.
    MethodKey,
    /// A summary the result reads changed: the method's purity/escape
    /// summary, a callee's WCET bound, the call-site-proved trips of its
    /// loops, or the candidate table its call sites fold against.
    Summary,
    /// The set of thread classes reaching the method, or whether the
    /// init phase reaches it, changed.
    Reach,
    /// The part of the points-to relation the result read changed.
    PtSlice,
}

impl TailCause {
    /// Every cause, gravest first.
    pub const ALL: [TailCause; 5] = [
        TailCause::Signature,
        TailCause::MethodKey,
        TailCause::Summary,
        TailCause::Reach,
        TailCause::PtSlice,
    ];

    /// The cause's name in the `jtanalysis.db.tail_rerun.<name>` metric.
    pub fn name(self) -> &'static str {
        match self {
            TailCause::Signature => "signature",
            TailCause::MethodKey => "method_key",
            TailCause::Summary => "summary",
            TailCause::Reach => "reach",
            TailCause::PtSlice => "pt_slice",
        }
    }
}

/// Tail re-runs counted by [`TailCause`]: one per method with a re-run
/// result (under its gravest cause), plus one per re-run field verdict
/// or block verdict no method re-run accounts for.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TailReruns {
    counts: [u64; 5],
}

impl TailReruns {
    /// Re-runs counted under `cause`.
    pub fn get(&self, cause: TailCause) -> u64 {
        self.counts[cause as usize]
    }

    pub(crate) fn add(&mut self, cause: TailCause) {
        self.counts[cause as usize] += 1;
    }

    fn absorb(&mut self, other: &TailReruns) {
        for (a, b) in self.counts.iter_mut().zip(other.counts) {
            *a += b;
        }
    }

    /// The non-zero counts, gravest cause first, as `cause=n` pairs
    /// (`none` without re-runs).
    pub fn render(&self) -> String {
        let parts: Vec<String> = TailCause::ALL
            .iter()
            .filter(|c| self.get(**c) > 0)
            .map(|c| format!("{}={}", c.name(), self.get(*c)))
            .collect();
        if parts.is_empty() {
            "none".to_string()
        } else {
            parts.join(", ")
        }
    }
}

/// Per-run (and accumulated) cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Method-level query lookups served from cache.
    pub hits: u64,
    /// Method-level query lookups that found no entry.
    pub misses: u64,
    /// Method-level queries actually recomputed (= misses; kept as its
    /// own counter because the metric contract names both).
    pub recomputed: u64,
    /// Method-level queries whose key changed relative to the previous
    /// revision (the direct dirty set of the edit).
    pub invalidated: u64,
    /// SCC summary lookups served from cache.
    pub scc_hits: u64,
    /// SCC summaries recomputed.
    pub scc_misses: u64,
    /// Points-to relations served warm — rebased or delta-solved from
    /// the previous revision's constraint graph.
    pub pointsto_hits: u64,
    /// Points-to relations solved from scratch: resets to the empty
    /// relation.
    pub pointsto_misses: u64,
    /// Points-to constraint-set members retracted by the delta solver.
    pub pt_constraints_retracted: u64,
    /// Points-to constraint-set members derived this run (all facts on
    /// a cold solve, the re-derived frontier on a delta).
    pub pt_constraints_added: u64,
    /// Methods the points-to update re-derived: the delta's taint
    /// closure, every method of a cold solve, none for a rebase.
    pub pt_tainted: u64,
    /// Heap keys whose slots the points-to delta cleared.
    pub pt_taint_fields: u64,
    /// Tail results (race, R13/R14, loop-proof, WCET cores) served
    /// without recompute.
    pub demand_hits: u64,
    /// Tail results computed.
    pub demand_misses: u64,
    /// Methods with a tail result re-evaluated this run: the size of
    /// the edit's changed set (0 when nothing the tail reads changed).
    pub tail_visited: u64,
    /// Why the tail re-ran what it re-ran, by cause.
    pub tail_rerun: TailReruns,
    /// Wall-clock nanoseconds spent in the analysis tail (points-to
    /// update plus demand-driven products).
    pub tail_ns: u64,
    /// Wall-clock nanoseconds spent bringing the carried fingerprint
    /// index up to date, keying the revision and the method queries.
    pub index_ns: u64,
    /// Wall-clock nanoseconds spent in the method-level queries (CFG,
    /// definite assignment, constants, intervals) and materializing
    /// them.
    pub method_ns: u64,
    /// Wall-clock nanoseconds spent on the SCC summaries.
    pub summary_ns: u64,
    /// Wall-clock nanoseconds spent storing the report in the revision
    /// replay cache and evicting stale entries (on a replay: handing
    /// out the stored report).
    pub cache_ns: u64,
    /// Wall-clock nanoseconds of the whole analysis: exactly
    /// `index_ns + method_ns + summary_ns + tail_ns + cache_ns`, laps of
    /// one clock.
    pub analyze_ns: u64,
}

impl RunStats {
    fn absorb(&mut self, other: &RunStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.recomputed += other.recomputed;
        self.invalidated += other.invalidated;
        self.scc_hits += other.scc_hits;
        self.scc_misses += other.scc_misses;
        self.pointsto_hits += other.pointsto_hits;
        self.pointsto_misses += other.pointsto_misses;
        self.pt_constraints_retracted += other.pt_constraints_retracted;
        self.pt_constraints_added += other.pt_constraints_added;
        self.pt_tainted += other.pt_tainted;
        self.pt_taint_fields += other.pt_taint_fields;
        self.demand_hits += other.demand_hits;
        self.demand_misses += other.demand_misses;
        self.tail_visited += other.tail_visited;
        self.tail_rerun.absorb(&other.tail_rerun);
        self.tail_ns += other.tail_ns;
        self.index_ns += other.index_ns;
        self.method_ns += other.method_ns;
        self.summary_ns += other.summary_ns;
        self.cache_ns += other.cache_ns;
        self.analyze_ns += other.analyze_ns;
    }

    /// Total method-level query lookups this run.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }
}

/// Consecutive laps of one clock: the laps of a run sum exactly to the
/// run's total.
struct Laps {
    start: Instant,
    last: Instant,
}

impl Laps {
    fn start() -> Laps {
        let now = Instant::now();
        Laps {
            start: now,
            last: now,
        }
    }

    /// Nanoseconds since the previous lap.
    fn lap(&mut self) -> u64 {
        let now = Instant::now();
        let ns = nanos(now - self.last);
        self.last = now;
        ns
    }

    /// Nanoseconds from the start to the last lap.
    fn total(&self) -> u64 {
        nanos(self.last - self.start)
    }
}

fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[derive(Debug, Clone)]
struct CacheSlot<T> {
    value: T,
    last_used: u64,
}

/// An [`EscapeSummary`] in cacheable form: allocation sites stored as
/// expression pre-order indices instead of node ids.
#[derive(Debug, Clone, PartialEq, Eq)]
struct EscapeCore {
    param_escapes: Vec<bool>,
    this_escapes: bool,
    returns_this: bool,
    returns_this_field: BTreeSet<String>,
    leaked_this_fields: BTreeSet<String>,
    returns_fresh: bool,
    escaping_allocs: Vec<u32>,
}

impl EscapeCore {
    fn from_summary(es: &EscapeSummary, map: Option<&NodeMap>) -> EscapeCore {
        let mut escaping_allocs: Vec<u32> = es
            .escaping_allocs
            .iter()
            .filter_map(|id| map.and_then(|m| m.expr_index(*id)))
            .filter_map(|i| u32::try_from(i).ok())
            .collect();
        escaping_allocs.sort_unstable();
        EscapeCore {
            param_escapes: es.param_escapes.clone(),
            this_escapes: es.this_escapes,
            returns_this: es.returns_this,
            returns_this_field: es.returns_this_field.clone(),
            leaked_this_fields: es.leaked_this_fields.clone(),
            returns_fresh: es.returns_fresh,
            escaping_allocs,
        }
    }

    fn to_summary(&self, map: Option<&NodeMap>) -> EscapeSummary {
        let escaping_allocs: BTreeSet<NodeId> = self
            .escaping_allocs
            .iter()
            .filter_map(|&i| map.map(|m| m.expr(i as usize).0))
            .collect();
        EscapeSummary {
            param_escapes: self.param_escapes.clone(),
            this_escapes: self.this_escapes,
            returns_this: self.returns_this,
            returns_this_field: self.returns_this_field.clone(),
            leaked_this_fields: self.leaked_this_fields.clone(),
            returns_fresh: self.returns_fresh,
            escaping_allocs,
        }
    }
}

/// Stable hash of one member's (purity, escape) summary pair, used for
/// early cutoff in caller SCC keys.
fn summary_hash(p: &PuritySummary, e: &EscapeCore) -> Fp {
    let mut h = StructHasher::new();
    for set in [&p.reads, &p.writes] {
        h.u64(set.len() as u64);
        for f in set {
            h.str(&f.to_string());
        }
    }
    for b in [
        p.port_read,
        p.port_write,
        p.blocking,
        p.starts_threads,
        p.allocates,
        p.diverged,
        e.this_escapes,
        e.returns_this,
        e.returns_fresh,
    ] {
        h.bool(b);
    }
    h.u64(e.param_escapes.len() as u64);
    for b in &e.param_escapes {
        h.bool(*b);
    }
    for set in [&e.returns_this_field, &e.leaked_this_fields] {
        h.u64(set.len() as u64);
        for f in set {
            h.str(f);
        }
    }
    h.u64(e.escaping_allocs.len() as u64);
    for i in &e.escaping_allocs {
        h.u64(u64::from(*i));
    }
    h.finish()
}

/// A cache entry the last analyzed revision stopped citing, queued for
/// eviction.
#[derive(Debug, Clone, Copy)]
enum Stale {
    /// A method key: the CFG-size, definite and constant entries.
    Method(Fp),
    /// An interval key.
    Interval(Fp),
    /// An SCC summary key.
    Scc(Fp),
    /// A revision replay key.
    Revision(Fp),
}

#[derive(Debug, Clone)]
struct SccEntry {
    members: Vec<(MethodRef, PuritySummary, EscapeCore)>,
    passes: u64,
    diverged: bool,
    last_used: u64,
}

/// The memoized query engine. Hold one across re-parses ("revisions")
/// of an evolving program and call [`AnalysisDb::analyze`] after each
/// edit; unchanged methods and call-graph components are served from
/// cache.
#[derive(Debug, Default)]
pub struct AnalysisDb {
    revision: u64,
    /// The fingerprint index of the program analyzed last, carried to
    /// the next revision: a splice re-fingerprints only the members it
    /// re-parsed.
    index: ProgramIndex,
    /// Whole-revision replay cache, keyed by the span-inclusive
    /// [`ProgramIndex::revision_fp`]: re-analyzing a byte-
    /// equivalent parse returns the previous report wholesale,
    /// including the per-revision products (points-to, races, WCET)
    /// that are too id-entangled for per-method caching.
    revisions: BTreeMap<Fp, CacheSlot<Arc<FlowReport>>>,
    cfg_sizes: BTreeMap<Fp, CacheSlot<usize>>,
    definite: BTreeMap<Fp, CacheSlot<DefiniteCore>>,
    constprop: BTreeMap<Fp, CacheSlot<ConstpropCore>>,
    interval: BTreeMap<Fp, CacheSlot<IntervalCore>>,
    sccs: BTreeMap<Fp, SccEntry>,
    /// Cross-revision delta points-to solver: caches the previous
    /// revision's constraint shapes and solved relation, retracting and
    /// re-deriving only the tainted frontier of an edit
    /// ([`crate::ptdelta`]).
    ptcache: PtCache,
    /// The analysis tail's results, carried per method from the last
    /// analyzed revision ([`crate::demand`]).
    tail: TailState,
    /// The replay key of the revision the tail was last brought to: a
    /// replay of an older revision leaves the tail where it was.
    tail_rkey: Fp,
    /// `(method key, interval key)` per method at the previous revision,
    /// for the `invalidated` statistic.
    prev_keys: BTreeMap<MethodRef, (Fp, Fp)>,
    /// The SCC keys the previous revision cited, sorted.
    prev_sccs: Vec<Fp>,
    /// Entries no longer cited, with the last revision that cited them,
    /// oldest first.
    stale: VecDeque<(u64, Stale)>,
    last: RunStats,
    total: RunStats,
}

fn lookup<T: Clone>(
    map: &mut BTreeMap<Fp, CacheSlot<T>>,
    key: Fp,
    revision: u64,
    stats: &mut RunStats,
    compute: impl FnOnce() -> T,
) -> T {
    match map.entry(key) {
        Entry::Occupied(mut e) => {
            e.get_mut().last_used = revision;
            stats.hits += 1;
            e.get().value.clone()
        }
        Entry::Vacant(v) => {
            stats.misses += 1;
            stats.recomputed += 1;
            let value = compute();
            v.insert(CacheSlot {
                value: value.clone(),
                last_used: revision,
            });
            value
        }
    }
}

impl AnalysisDb {
    /// An empty database at revision 0.
    pub fn new() -> AnalysisDb {
        AnalysisDb::default()
    }

    /// Statistics of the most recent [`AnalysisDb::analyze`] call.
    pub fn last_run(&self) -> RunStats {
        self.last
    }

    /// Statistics accumulated over the database's lifetime.
    pub fn totals(&self) -> RunStats {
        self.total
    }

    /// Number of *distinct* revisions fully analyzed so far. Replays of
    /// a byte-equivalent parse are served from the revision cache and
    /// do not advance this counter (or age any cache entry).
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// Analyzes one revision of the program, reusing every cache entry
    /// whose key is unchanged. The returned report is identical to what
    /// the batch `flow::analyze` produces on the same input; it is
    /// shared with the revision replay cache, not copied into it.
    ///
    /// Every method is fingerprinted afresh: the program may differ
    /// from the last one in any way.
    pub fn analyze(
        &mut self,
        program: &Program,
        table: &ClassTable,
        graph: &CallGraph,
    ) -> Arc<FlowReport> {
        self.run(program, table, graph, None, None)
    }

    /// [`AnalysisDb::analyze`], additionally exporting `jtobs` metrics.
    pub fn analyze_with_registry(
        &mut self,
        program: &Program,
        table: &ClassTable,
        graph: &CallGraph,
        registry: &jtobs::Registry,
    ) -> Arc<FlowReport> {
        self.run(program, table, graph, None, Some(registry))
    }

    /// [`AnalysisDb::analyze`] for a program that differs from the one
    /// this database analyzed last only by the members in `spliced`,
    /// re-parsed by [`jtlang::reparse()`] with their signatures unchanged
    /// (an empty list: the same program). Only those members are
    /// fingerprinted again; the carried index moves every other method
    /// to its place in the new parse. The report is the one
    /// [`AnalysisDb::analyze`] would give.
    pub fn analyze_spliced(
        &mut self,
        program: &Program,
        table: &ClassTable,
        graph: &CallGraph,
        spliced: &[MemberPos],
        registry: Option<&jtobs::Registry>,
    ) -> Arc<FlowReport> {
        self.run(program, table, graph, Some(spliced), registry)
    }

    /// The carried fingerprint index, as of the last analysis.
    pub fn index(&self) -> &ProgramIndex {
        &self.index
    }

    fn run(
        &mut self,
        program: &Program,
        table: &ClassTable,
        graph: &CallGraph,
        spliced: Option<&[MemberPos]>,
        registry: Option<&jtobs::Registry>,
    ) -> Arc<FlowReport> {
        let _suite_span = registry.map(|r| r.span("jtanalysis.flow"));
        let mut laps = Laps::start();

        // The index goes out of `self` for the run, so the queries can
        // borrow it beside the caches.
        let mut ix = std::mem::take(&mut self.index);
        let rkey = timed(registry, "fingerprint", || {
            ix.update(program, table, spliced);
            ix.revision_fp(program)
        });
        // Replay path: a byte-equivalent parse of an already analyzed
        // revision returns the whole prior report — every query warm.
        if let Some(slot) = self.revisions.get_mut(&rkey) {
            self.index = ix;
            let index_ns = laps.lap();
            slot.last_used = self.revision;
            let report = Arc::clone(&slot.value);
            let mut stats = RunStats {
                hits: 4 * each_method(program).count() as u64,
                scc_hits: report.summary.sccs as u64,
                pointsto_hits: 1,
                demand_hits: each_method(program).count() as u64,
                index_ns,
                cache_ns: laps.lap(),
                ..RunStats::default()
            };
            stats.analyze_ns = laps.total();
            self.last = stats;
            self.total.absorb(&stats);
            if let Some(r) = registry {
                export_metrics(r, &report, &stats, self.revision);
            }
            return report;
        }

        self.revision += 1;
        let revision = self.revision;
        let mut stats = RunStats::default();
        let mut report = FlowReport::default();

        // Per-class field lengths from the index's merged writes.
        let mut class_lens: BTreeMap<&str, (BTreeMap<String, i64>, Fp)> = BTreeMap::new();
        for class in &program.classes {
            let lens = ix.field_lens.lengths_for(class);
            let fp = field_lens_fp(&lens);
            class_lens.insert(class.name.as_str(), (lens, fp));
        }
        let keys: BTreeMap<MethodRef, (Fp, Fp)> = each_method(program)
            .map(|(class, _, mref)| {
                let mkey = ix.method_key(&mref).expect("indexed method");
                let lens_fp = class_lens
                    .get(class.name.as_str())
                    .map(|(_, fp)| *fp)
                    .unwrap_or_default();
                (mref, (mkey, combine(&[mkey, lens_fp])))
            })
            .collect();
        // The previous revision's keys this one no longer cites go
        // stale.
        let last_cited = revision - 1;
        let mut kept = 0;
        for (mref, (mkey, ikey)) in &keys {
            if let Some((pm, pi)) = self.prev_keys.get(mref) {
                kept += 1;
                if pm != mkey {
                    // cfg + definite + constprop share the method key.
                    stats.invalidated += 3;
                    self.stale.push_back((last_cited, Stale::Method(*pm)));
                }
                if pi != ikey {
                    stats.invalidated += 1;
                    self.stale.push_back((last_cited, Stale::Interval(*pi)));
                }
            }
        }
        if kept < self.prev_keys.len() {
            for (mref, (pm, pi)) in &self.prev_keys {
                if !keys.contains_key(mref) {
                    self.stale.push_back((last_cited, Stale::Method(*pm)));
                    self.stale.push_back((last_cited, Stale::Interval(*pi)));
                }
            }
        }

        stats.index_ns = laps.lap();

        // Method-level queries, keyed and materialized per method.
        for (class, decl, mref) in each_method(program) {
            let (mkey, _) = keys[&mref];
            let blocks = lookup(&mut self.cfg_sizes, mkey, revision, &mut stats, || {
                cfg::build(class, decl, mref.clone()).blocks.len()
            });
            report.cfg_blocks += blocks;
            report.cfg_methods += 1;
        }

        report.definite = timed(registry, "definite", || {
            let mut out = crate::definite::DefiniteReport::default();
            for (class, decl, mref) in each_method(program) {
                let (mkey, _) = keys[&mref];
                let map = ix.node_map(&mref).expect("indexed method");
                let core = lookup(&mut self.definite, mkey, revision, &mut stats, || {
                    definite::analyze_method(program, table, class, decl, mref.clone(), map)
                });
                out.solver_iterations += core.iterations;
                definite::materialize(&core, map, &mref, &mut out.unassigned_reads);
            }
            definite::finish(&mut out);
            out
        });

        report.constprop = timed(registry, "constprop", || {
            let mut out = crate::constprop::ConstpropReport::default();
            for (class, decl, mref) in each_method(program) {
                let (mkey, _) = keys[&mref];
                let map = ix.node_map(&mref).expect("indexed method");
                let core = lookup(&mut self.constprop, mkey, revision, &mut stats, || {
                    constprop::analyze_method(program, table, class, decl, mref.clone(), map)
                });
                out.solver_iterations += core.iterations;
                constprop::materialize(&core, map, &mref, &mut out.constant_conds);
            }
            constprop::finish(&mut out);
            out
        });

        report.interval = timed(registry, "interval", || {
            let mut out = crate::interval::IntervalReport::default();
            for (class, decl, mref) in each_method(program) {
                let (_, ikey) = keys[&mref];
                let map = ix.node_map(&mref).expect("indexed method");
                let lens = class_lens
                    .get(class.name.as_str())
                    .map(|(l, _)| l)
                    .cloned()
                    .unwrap_or_default();
                let core = lookup(&mut self.interval, ikey, revision, &mut stats, || {
                    interval::analyze_method(
                        program,
                        table,
                        class,
                        decl,
                        mref.clone(),
                        &lens,
                        map,
                    )
                });
                out.solver_iterations += core.iterations;
                interval::materialize(&core, map, &mref, &mut out);
            }
            interval::finish(&mut out);
            out
        });

        stats.method_ns = laps.lap();

        let cond = graph.condensation();
        let (summary, hashes) = timed(registry, "summary", || {
            self.summaries(program, table, graph, &cond, &ix, &keys, &mut stats)
        });
        report.summary = summary;
        stats.summary_ns = laps.lap();

        // The analysis tail: delta-update the points-to relation, then
        // bring every downstream product to this revision from the
        // carried tail, re-running the changed set only. The race tiers
        // share the same relation.
        timed(registry, "tail", || {
            let (pt, outcome, change) = self
                .ptcache
                .update(program, table, pointsto::DEFAULT_K, &ix);
            match outcome.path {
                DeltaPath::Cold(cause) => {
                    stats.pointsto_misses += 1;
                    if let Some(r) = registry {
                        r.counter(&format!("jtanalysis.db.pointsto_reset.{}", cause.name()))
                            .inc();
                    }
                }
                DeltaPath::Rebase | DeltaPath::Delta => stats.pointsto_hits += 1,
            }
            stats.pt_constraints_retracted += outcome.retracted;
            stats.pt_constraints_added += outcome.added;
            stats.pt_tainted += outcome.tainted;
            stats.pt_taint_fields += outcome.taint_fields;
            let mut pass = self.tail.begin(program, &ix, &keys, &hashes, &change);
            summary::derive_products_carried(
                program,
                table,
                graph,
                &report.interval.proved_loop_bounds,
                pt,
                &mut report.summary,
                &mut self.tail,
                &mut pass,
            );
            report.races = races::analyze_carried(
                program,
                table,
                graph,
                &report.summary.pointsto,
                &mut self.tail,
                &mut pass,
            );
            let counts = pass.finish();
            stats.demand_hits += counts.hits;
            stats.demand_misses += counts.misses;
            stats.tail_visited += counts.visited;
            stats.tail_rerun.absorb(&counts.reruns);
        });
        stats.tail_ns = laps.lap();

        let report = Arc::new(report);
        self.revisions.insert(
            rkey,
            CacheSlot {
                value: Arc::clone(&report),
                last_used: revision,
            },
        );
        self.stale.push_back((revision, Stale::Revision(rkey)));
        self.evict(revision);
        self.prev_keys = keys;
        self.index = ix;
        self.tail_rkey = rkey;
        stats.cache_ns = laps.lap();
        stats.analyze_ns = laps.total();
        self.last = stats;
        self.total.absorb(&stats);

        if let Some(r) = registry {
            export_metrics(r, &report, &stats, revision);
        }
        report
    }

    /// Recomputes every tail result the database carries for the revision
    /// it analyzed last — `program` with `report`, the report that
    /// analysis returned — from scratch, and names the first carried
    /// result that differs. A check of the changed set: a result it
    /// skipped must still be the one a cold run computes. When `program`
    /// is a replayed revision other than the one the tail was last
    /// brought to, the tail carries nothing of it and the check passes
    /// without comparing.
    ///
    /// # Errors
    ///
    /// The first method (or block) whose carried result differs from
    /// its cold recompute, and which result it is.
    pub fn check_tail_against_cold(
        &self,
        program: &Program,
        table: &ClassTable,
        graph: &CallGraph,
        report: &FlowReport,
    ) -> Result<(), String> {
        if self.index.revision_fp(program) != self.tail_rkey {
            return Ok(());
        }
        self.tail
            .check_against_cold(program, table, graph, &self.index, report)
    }

    /// The SCC-level summary layer: walk the condensation bottom-up,
    /// serving each component from cache when its key — member
    /// fingerprints plus external callee summary hashes — is unchanged.
    /// Returns the summaries with each method's summary hash.
    #[allow(clippy::too_many_arguments)]
    fn summaries(
        &mut self,
        program: &Program,
        table: &ClassTable,
        graph: &CallGraph,
        cond: &[Vec<MethodRef>],
        ix: &ProgramIndex,
        keys: &BTreeMap<MethodRef, (Fp, Fp)>,
        stats: &mut RunStats,
    ) -> (SummaryReport, BTreeMap<MethodRef, Fp>) {
        let revision = self.revision;
        let mut cited: Vec<Fp> = Vec::with_capacity(cond.len());
        let mut out = SummaryReport::default();
        let mut purities: BTreeMap<MethodRef, PuritySummary> = BTreeMap::new();
        let mut escapes: BTreeMap<MethodRef, EscapeSummary> = BTreeMap::new();
        let mut hashes: BTreeMap<MethodRef, Fp> = BTreeMap::new();

        for scc in cond {
            out.sccs += 1;
            out.largest_scc = out.largest_scc.max(scc.len());

            let mut h = StructHasher::new();
            h.u64(ix.sig.0);
            let in_scc: BTreeSet<&MethodRef> = scc.iter().collect();
            for m in scc {
                h.member(m);
                h.u64(keys.get(m).map(|(k, _)| k.0).unwrap_or_default());
            }
            let mut ext: BTreeMap<&MethodRef, Fp> = BTreeMap::new();
            for m in scc {
                for c in graph.callees(m) {
                    if !in_scc.contains(c) {
                        ext.insert(c, hashes.get(c).copied().unwrap_or_default());
                    }
                }
            }
            for (c, fp) in &ext {
                h.member(c);
                h.u64(fp.0);
            }
            let skey = h.finish();
            cited.push(skey);

            match self.sccs.entry(skey) {
                Entry::Occupied(mut e) => {
                    stats.scc_hits += 1;
                    e.get_mut().last_used = revision;
                    let entry = e.get();
                    for (mref, purity, ecore) in &entry.members {
                        hashes.insert(mref.clone(), summary_hash(purity, ecore));
                        purities.insert(mref.clone(), purity.clone());
                        escapes.insert(mref.clone(), ecore.to_summary(ix.node_map(mref)));
                    }
                    out.fixpoint_iterations += entry.passes;
                    out.divergent_sccs += u64::from(entry.diverged);
                }
                Entry::Vacant(v) => {
                    stats.scc_misses += 1;
                    let st = summary::compute_scc(
                        program,
                        table,
                        graph,
                        scc,
                        &mut purities,
                        &mut escapes,
                    );
                    let members: Vec<(MethodRef, PuritySummary, EscapeCore)> = scc
                        .iter()
                        .map(|m| {
                            let p = purities.get(m).cloned().unwrap_or_default();
                            let es = escapes.get(m).cloned().unwrap_or_default();
                            let ecore = EscapeCore::from_summary(&es, ix.node_map(m));
                            hashes.insert(m.clone(), summary_hash(&p, &ecore));
                            (m.clone(), p, ecore)
                        })
                        .collect();
                    v.insert(SccEntry {
                        members,
                        passes: st.passes,
                        diverged: st.diverged,
                        last_used: revision,
                    });
                    out.fixpoint_iterations += st.passes;
                    out.divergent_sccs += u64::from(st.diverged);
                }
            }
        }

        for (mref, purity) in purities {
            let escape = escapes.remove(&mref).unwrap_or_default();
            out.methods.insert(mref, MethodSummary { purity, escape });
        }
        // The previous revision's SCC keys this one no longer cites go
        // stale (one merged pass over the two sorted key lists).
        cited.sort_unstable();
        cited.dedup();
        let mut now = cited.iter().peekable();
        for &old in &self.prev_sccs {
            while now.next_if(|k| **k < old).is_some() {}
            if now.peek() != Some(&&old) {
                self.stale.push_back((revision - 1, Stale::Scc(old)));
            }
        }
        self.prev_sccs = cited;
        (out, hashes)
    }

    /// Drops the entries no revision cited in the last
    /// [`KEEP_REVISIONS`] revisions. Visits only the queued entries
    /// that are due; one cited again since it was queued stays (and is
    /// queued again when it stops being cited). A replayed revision is
    /// cited without being analyzed, so its entry is queued anew.
    fn evict(&mut self, revision: u64) {
        let due = |last: u64| last + KEEP_REVISIONS < revision;
        while let Some(&(last, stale)) = self.stale.front() {
            if !due(last) {
                break;
            }
            self.stale.pop_front();
            let used = |slot: Option<u64>| slot.filter(|&u| !due(u));
            match stale {
                Stale::Method(k) => {
                    if used(self.cfg_sizes.get(&k).map(|s| s.last_used)).is_none() {
                        self.cfg_sizes.remove(&k);
                        self.definite.remove(&k);
                        self.constprop.remove(&k);
                    }
                }
                Stale::Interval(k) => {
                    if used(self.interval.get(&k).map(|s| s.last_used)).is_none() {
                        self.interval.remove(&k);
                    }
                }
                Stale::Scc(k) => {
                    if used(self.sccs.get(&k).map(|s| s.last_used)).is_none() {
                        self.sccs.remove(&k);
                    }
                }
                Stale::Revision(k) => match used(self.revisions.get(&k).map(|s| s.last_used)) {
                    None => {
                        self.revisions.remove(&k);
                    }
                    Some(u) => self.stale.push_back((u, Stale::Revision(k))),
                },
            }
        }
    }
}

/// Renders [`RunStats`] (accumulated or per-run) as the two-line
/// rollup printed by `jtlint --stats`: a cache line splitting
/// method-core from points-to traffic, and a tail-traffic line with
/// constraint retraction/derivation counts and demand-query totals.
/// The format is pinned by a unit test here and consumed verbatim by
/// the CLI, so the two can't drift apart.
pub fn render_rollup(stats: &RunStats, revision: u64) -> String {
    format!(
        "db cache: {} method-core hits, {} misses, {} recomputed, {} invalidated; \
         scc summaries: {} hits, {} misses; points-to: {} hits, {} misses; \
         revisions analyzed: {}\n\
         tail traffic: {} constraints retracted, {} added; \
         demand queries: {} hits, {} misses; {} methods re-run ({})",
        stats.hits,
        stats.misses,
        stats.recomputed,
        stats.invalidated,
        stats.scc_hits,
        stats.scc_misses,
        stats.pointsto_hits,
        stats.pointsto_misses,
        revision,
        stats.pt_constraints_retracted,
        stats.pt_constraints_added,
        stats.demand_hits,
        stats.demand_misses,
        stats.tail_visited,
        stats.tail_rerun.render(),
    )
}

fn export_metrics(r: &jtobs::Registry, report: &FlowReport, stats: &RunStats, revision: u64) {
    r.gauge("jtanalysis.cfg.blocks").set(report.cfg_blocks as i64);
    r.gauge("jtanalysis.cfg.methods").set(report.cfg_methods as i64);
    r.counter("jtanalysis.solver.iterations.definite")
        .add(report.definite.solver_iterations);
    r.counter("jtanalysis.solver.iterations.constprop")
        .add(report.constprop.solver_iterations);
    r.counter("jtanalysis.solver.iterations.interval")
        .add(report.interval.solver_iterations);
    r.gauge("jtanalysis.summary.sccs").set(report.summary.sccs as i64);
    r.gauge("jtanalysis.summary.methods")
        .set(report.summary.methods.len() as i64);
    r.gauge("jtanalysis.summary.objects")
        .set(report.summary.pointsto.object_count() as i64);
    r.counter("jtanalysis.summary.fixpoint_iterations")
        .add(report.summary.fixpoint_iterations);
    r.counter("jtanalysis.summary.pointsto_passes")
        .add(report.summary.pointsto.passes() as u64);
    r.counter("jtanalysis.summary.divergent_sccs")
        .add(report.summary.divergent_sccs);
    let footprints = r.histogram("jtanalysis.summary.footprint_fields");
    for m in report.summary.methods.values() {
        footprints.record((m.purity.reads.len() + m.purity.writes.len()) as u64);
    }
    r.counter("jtanalysis.db.hits").add(stats.hits);
    r.counter("jtanalysis.db.misses").add(stats.misses);
    r.counter("jtanalysis.db.recomputed").add(stats.recomputed);
    r.counter("jtanalysis.db.invalidated").add(stats.invalidated);
    r.counter("jtanalysis.db.scc_hits").add(stats.scc_hits);
    r.counter("jtanalysis.db.scc_misses").add(stats.scc_misses);
    r.counter("jtanalysis.db.pointsto_hits").add(stats.pointsto_hits);
    r.counter("jtanalysis.db.pointsto_misses")
        .add(stats.pointsto_misses);
    r.counter("jtanalysis.db.pt_constraints_retracted")
        .add(stats.pt_constraints_retracted);
    r.counter("jtanalysis.db.pt_constraints_added")
        .add(stats.pt_constraints_added);
    r.counter("jtanalysis.db.pt_tainted").add(stats.pt_tainted);
    r.counter("jtanalysis.db.pt_taint_fields")
        .add(stats.pt_taint_fields);
    r.counter("jtanalysis.db.demand_hits").add(stats.demand_hits);
    r.counter("jtanalysis.db.demand_misses").add(stats.demand_misses);
    r.counter("jtanalysis.db.tail_visited").add(stats.tail_visited);
    for cause in TailCause::ALL {
        let n = stats.tail_rerun.get(cause);
        if n > 0 {
            r.counter(&format!("jtanalysis.db.tail_rerun.{}", cause.name()))
                .add(n);
        }
    }
    r.histogram("jtanalysis.time_us.tail_demand")
        .record(stats.tail_ns / 1_000);
    r.gauge("jtanalysis.db.revision").set(revision as i64);
}

fn timed<T>(registry: Option<&jtobs::Registry>, name: &str, f: impl FnOnce() -> T) -> T {
    if let Some(r) = registry {
        if jtobs::ENABLED {
            let start = std::time::Instant::now();
            let out = f();
            let us = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
            r.histogram(&format!("jtanalysis.time_us.{name}")).record(us);
            return out;
        }
    }
    f()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{callgraph, flow, frontend};

    fn setup(src: &str) -> (Program, ClassTable, CallGraph) {
        let (p, t) = frontend(src).unwrap();
        let g = callgraph::build(&p, &t);
        (p, t, g)
    }

    fn reports_equal(a: &FlowReport, b: &FlowReport) -> bool {
        let findings = |r: &FlowReport| {
            (
                r.definite.unassigned_reads.clone(),
                r.constprop.constant_conds.clone(),
                r.interval.oob.clone(),
                r.interval.proved_loop_bounds.clone(),
                r.summary.wcet.clone(),
                r.cfg_blocks,
                r.cfg_methods,
            )
        };
        findings(a) == findings(b)
    }

    #[test]
    fn warm_rerun_of_identical_source_recomputes_nothing() {
        for s in jtlang::corpus::samples() {
            let (p, t, g) = setup(s.source);
            let mut db = AnalysisDb::new();
            let cold = db.analyze(&p, &t, &g);
            assert_eq!(db.last_run().hits, 0, "{}", s.name);
            // Re-parse: every node id and span is re-assigned, but the
            // structure is identical.
            let (p2, t2, g2) = setup(s.source);
            let warm = db.analyze(&p2, &t2, &g2);
            let stats = db.last_run();
            assert_eq!(stats.recomputed, 0, "{}: {:?}", s.name, stats);
            assert_eq!(stats.misses, 0, "{}", s.name);
            assert_eq!(stats.scc_misses, 0, "{}", s.name);
            assert!(stats.hits > 0, "{}", s.name);
            assert!(reports_equal(&cold, &warm), "{}", s.name);
        }
    }

    #[test]
    fn db_report_matches_batch_report() {
        for s in jtlang::corpus::samples() {
            let (p, t, g) = setup(s.source);
            let batch = flow::analyze_batch(&p, &t, &g);
            let mut db = AnalysisDb::new();
            let inc = db.analyze(&p, &t, &g);
            assert!(reports_equal(&batch, &inc), "{}", s.name);
            assert_eq!(
                batch.definite.solver_iterations, inc.definite.solver_iterations,
                "{}",
                s.name
            );
            assert_eq!(batch.summary.methods, inc.summary.methods, "{}", s.name);
        }
    }

    #[test]
    fn one_method_edit_invalidates_only_its_cone() {
        let base = "class A { int f() { return 1; } int g() { return f(); } int h() { return 2; } }";
        let edit = "class A { int f() { return 9; } int g() { return f(); } int h() { return 2; } }";
        let (p, t, g) = setup(base);
        let mut db = AnalysisDb::new();
        db.analyze(&p, &t, &g);
        let (p2, t2, g2) = setup(edit);
        db.analyze(&p2, &t2, &g2);
        let stats = db.last_run();
        // Only `f` changed: cfg + definite + constprop + interval for it.
        assert_eq!(stats.recomputed, 4, "{stats:?}");
        // `f`'s summary hash is unchanged (same purity/escape), so `g`'s
        // SCC key is stable: early cutoff keeps the cone at one SCC.
        assert_eq!(stats.scc_misses, 1, "{stats:?}");
    }

    #[test]
    fn summary_changing_edit_propagates_to_callers() {
        let base = "class A { private int s; A() { s = 0; } int f() { return 1; } int g() { return f(); } }";
        let edit = "class A { private int s; A() { s = 0; } int f() { s = 2; return 1; } int g() { return f(); } }";
        let (p, t, g) = setup(base);
        let mut db = AnalysisDb::new();
        db.analyze(&p, &t, &g);
        let (p2, t2, g2) = setup(edit);
        let report = db.analyze(&p2, &t2, &g2);
        let stats = db.last_run();
        // `f` now writes a field: its summary hash changes, so `g`'s SCC
        // must recompute too (f, g — the ctor's SCC is unaffected).
        assert_eq!(stats.scc_misses, 2, "{stats:?}");
        let f = &report.summary.methods[&MethodRef::method("A", "f")];
        assert!(!f.purity.writes.is_empty());
    }

    #[test]
    fn whitespace_edit_is_free() {
        let base = "class A { int f(int n) { int s = 0; for (int i = 0; i < n; i++) { s += i; } return s; } }";
        let spaced = "class A {\n  // comment\n  int f(int n) {\n    int s = 0;\n    for (int i = 0; i < n; i++) { s += i; }\n    return s;\n  }\n}\n";
        let (p, t, g) = setup(base);
        let mut db = AnalysisDb::new();
        db.analyze(&p, &t, &g);
        let (p2, t2, g2) = setup(spaced);
        db.analyze(&p2, &t2, &g2);
        let stats = db.last_run();
        assert_eq!(stats.recomputed, 0, "{stats:?}");
        assert_eq!(stats.scc_misses, 0, "{stats:?}");
        assert_eq!(stats.invalidated, 0, "{stats:?}");
    }

    #[test]
    fn materialized_findings_carry_current_revision_spans() {
        let base = "class A { int m() { int x; return x; } }";
        // Same method, shifted by a comment: the finding's span must
        // point into the *new* source even though the core was cached.
        let shifted = "class A { /* pad pad pad */ int m() { int x; return x; } }";
        let (p, t, g) = setup(base);
        let mut db = AnalysisDb::new();
        let r1 = db.analyze(&p, &t, &g);
        let (p2, t2, g2) = setup(shifted);
        let r2 = db.analyze(&p2, &t2, &g2);
        assert_eq!(db.last_run().recomputed, 0);
        assert_eq!(r1.definite.unassigned_reads.len(), 1);
        assert_eq!(r2.definite.unassigned_reads.len(), 1);
        let (s1, s2) = (
            r1.definite.unassigned_reads[0].span,
            r2.definite.unassigned_reads[0].span,
        );
        assert_eq!(s2.start, s1.start + "/* pad pad pad */ ".len());
    }

    /// A session's revisions: the first solves cold, two constant edits
    /// rebase, two structural edits delta-solve.
    fn pointsto_session() -> Vec<String> {
        let base = "class Item { public int v; Item() { v = 0; } }
             class Box {
                 private Item slot;
                 Box() { slot = new Item(); }
                 Item get() { return slot; }
             }
             class Main {
                 public int demo() {
                     Box b = new Box();
                     Item i = b.get();
                     Item keep = i;
                     return 0;
                 }
             }";
        let s1 = base.replace("v = 0;", "v = 1;");
        let s2 = base.replace("v = 0;", "v = 2;");
        let s3 = s2.replace("Item keep = i;", "Item keep = b.get();");
        let s4 = s3.replace("Item keep = b.get();", "Item keep = new Item();");
        vec![base.to_string(), s1, s2, s3, s4]
    }

    #[test]
    fn pointsto_passes_count_the_revision_not_the_session() {
        let registry = jtobs::Registry::new();
        let mut db = AnalysisDb::new();
        let mut exported = 0;
        for (i, src) in pointsto_session().iter().enumerate() {
            let (p, t, g) = setup(src);
            let report = db.analyze_with_registry(&p, &t, &g, &registry);
            let (warm, cold) = (
                report.summary.pointsto.passes(),
                pointsto::analyze(&p, &t).passes(),
            );
            exported += warm as u64;
            let stats = db.last_run();
            match i {
                0 => assert_eq!(warm, cold),
                1 | 2 => assert_eq!(warm, 0, "a rebase runs no pass"),
                _ => {
                    assert_eq!(
                        stats.pointsto_hits, 1,
                        "revision {i} must take the delta path"
                    );
                    assert!(
                        (1..=cold).contains(&warm),
                        "revision {i}: {warm} passes, cold {cold}"
                    );
                }
            }
        }
        if jtobs::ENABLED {
            assert_eq!(
                registry.counter_value("jtanalysis.summary.pointsto_passes"),
                exported
            );
        }
    }

    #[test]
    fn pointsto_resets_are_counted_by_cause() {
        let registry = jtobs::Registry::new();
        let mut db = AnalysisDb::new();
        let session = pointsto_session();
        let other = "class Solo { public int v; Solo() { v = 0; } int get() { return v; } }";
        for src in [session[0].as_str(), session[1].as_str(), other] {
            let (p, t, g) = setup(src);
            db.analyze_with_registry(&p, &t, &g, &registry);
        }
        assert_eq!(db.totals().pointsto_misses, 2);
        assert_eq!(db.totals().pointsto_hits, 1);
        if jtobs::ENABLED {
            let reset = |cause: &str| {
                registry.counter_value(&format!("jtanalysis.db.pointsto_reset.{cause}"))
            };
            assert_eq!(reset("no_state"), 1);
            assert_eq!(reset("signature_changed"), 1);
            assert_eq!(registry.counter_value("jtanalysis.db.pointsto_misses"), 2);
        }
    }

    #[test]
    fn span_only_edit_reuses_the_pointsto_relation() {
        // A comment shifts every span and node id, but the span-free
        // program fingerprint is unchanged: the cached relation must be
        // rebased, not re-solved — and the rebased findings must carry
        // the *new* spans.
        let base = "class Acc { public int total; Acc() { total = 0; } }
             class Tap extends ASR {
                 private Acc acc;
                 Tap(Acc shared) { acc = shared; }
                 public void run() { acc.total = acc.total + read(0); }
             }
             class TapB extends ASR {
                 private Acc acc;
                 TapB(Acc shared) { acc = shared; }
                 public void run() { acc.total = acc.total + read(1); }
             }
             class Wiring {
                 Wiring() {
                     Acc shared = new Acc();
                     Tap t = new Tap(shared);
                     TapB b = new TapB(shared);
                 }
             }";
        let shifted = format!("/* pad pad pad */ {base}");
        let (p, t, g) = setup(base);
        let mut db = AnalysisDb::new();
        let r1 = db.analyze(&p, &t, &g);
        assert_eq!(db.last_run().pointsto_misses, 1);
        assert_eq!(db.last_run().pointsto_hits, 0);
        let (p2, t2, g2) = setup(&shifted);
        let r2 = db.analyze(&p2, &t2, &g2);
        let stats = db.last_run();
        assert_eq!(stats.pointsto_hits, 1, "{stats:?}");
        assert_eq!(stats.pointsto_misses, 0, "{stats:?}");
        // The rebased relation must produce the same findings as a
        // fresh solve on the shifted source, with shifted spans.
        let fresh = flow::analyze_batch(&p2, &t2, &g2);
        assert_eq!(r1.summary.impure_blocks.len(), 2);
        assert_eq!(r2.summary.impure_blocks.len(), 2);
        for (a, b) in r2
            .summary
            .impure_blocks
            .iter()
            .zip(fresh.summary.impure_blocks.iter())
        {
            assert_eq!(a.block, b.block);
            assert_eq!(a.span, b.span);
        }
        assert_eq!(
            r2.summary.impure_blocks[0].span.start,
            r1.summary.impure_blocks[0].span.start + "/* pad pad pad */ ".len()
        );
    }

    #[test]
    fn entries_are_evicted_after_keep_revisions() {
        let a = "class A { int f() { return 1; } }";
        let mut db = AnalysisDb::new();
        let (p, t, g) = setup(a);
        db.analyze(&p, &t, &g);
        assert!(!db.definite.is_empty());
        // Analyze enough *distinct* revisions that `a`'s entries age out
        // (replays of a seen revision deliberately don't age anything).
        for i in 0..=KEEP_REVISIONS {
            let src = format!("class A {{ int f() {{ return {}; }} }}", i + 2);
            let (p2, t2, g2) = setup(&src);
            db.analyze(&p2, &t2, &g2);
        }
        let (p3, t3, g3) = setup(a);
        db.analyze(&p3, &t3, &g3);
        assert!(db.last_run().recomputed > 0, "a's entries must have aged out");
    }

    #[test]
    fn rollup_format_is_pinned() {
        let stats = RunStats {
            hits: 40,
            misses: 4,
            recomputed: 4,
            invalidated: 3,
            scc_hits: 5,
            scc_misses: 1,
            pointsto_hits: 1,
            pointsto_misses: 0,
            pt_constraints_retracted: 7,
            pt_constraints_added: 9,
            pt_tainted: 3,
            pt_taint_fields: 1,
            demand_hits: 21,
            demand_misses: 2,
            tail_visited: 2,
            tail_rerun: {
                let mut r = TailReruns::default();
                r.add(TailCause::MethodKey);
                r.add(TailCause::Summary);
                r
            },
            tail_ns: 123_456,
            index_ns: 1_000,
            method_ns: 2_000,
            summary_ns: 3_000,
            cache_ns: 4_000,
            analyze_ns: 133_456,
        };
        assert_eq!(
            render_rollup(&stats, 2),
            "db cache: 40 method-core hits, 4 misses, 4 recomputed, 3 invalidated; \
             scc summaries: 5 hits, 1 misses; points-to: 1 hits, 0 misses; \
             revisions analyzed: 2\n\
             tail traffic: 7 constraints retracted, 9 added; \
             demand queries: 21 hits, 2 misses; 2 methods re-run (method_key=1, summary=1)"
        );
    }

    #[test]
    fn span_only_edit_serves_the_tail_from_the_demand_memo() {
        // A comment shifts every span, so the revision replay cache
        // misses — but the relation rebases and every tail demand query
        // must hit: nothing about the cited facts changed.
        let base = "class A { private int s; A() { s = 0; } int f() { return s; } }";
        let shifted = format!("/* pad */ {base}");
        let (p, t, g) = setup(base);
        let mut db = AnalysisDb::new();
        db.analyze(&p, &t, &g);
        assert!(db.last_run().demand_misses > 0);
        assert_eq!(db.last_run().demand_hits, 0);
        let (p2, t2, g2) = setup(&shifted);
        db.analyze(&p2, &t2, &g2);
        let stats = db.last_run();
        assert_eq!(stats.demand_misses, 0, "{stats:?}");
        assert!(stats.demand_hits > 0, "{stats:?}");
        assert_eq!(stats.pt_constraints_retracted, 0, "{stats:?}");
        assert_eq!(stats.pt_constraints_added, 0, "{stats:?}");
    }

    #[test]
    fn one_method_edit_keeps_unrelated_demand_queries_warm() {
        // Editing a constant in `h` must not recompute the race/R13
        // tail of the untouched ASR block wiring; with constant-blind
        // constraint shapes the relation delta is empty too.
        let base = "class Acc { public int total; Acc() { total = 0; } }
             class Tap extends ASR {
                 private Acc acc;
                 Tap(Acc shared) { acc = shared; }
                 public void run() { acc.total = acc.total + read(0); }
                 int h() { return 1; }
             }";
        let edit = base.replace("return 1;", "return 2;");
        let (p, t, g) = setup(base);
        let mut db = AnalysisDb::new();
        let r1 = db.analyze(&p, &t, &g);
        let (p2, t2, g2) = setup(&edit);
        let r2 = db.analyze(&p2, &t2, &g2);
        let stats = db.last_run();
        assert_eq!(stats.pointsto_hits, 1, "{stats:?}");
        assert!(stats.demand_hits > 0, "{stats:?}");
        // Only `h`-scoped queries may miss — its method key changed, so
        // each per-method family (access list, trip candidates, call
        // folds, loop evidence, leak cores, WCET fold) re-runs for `h`
        // alone. Every other method's queries and all field verdicts
        // stay warm.
        assert!(stats.demand_misses <= 6, "{stats:?}");
        assert!(stats.demand_hits > stats.demand_misses, "{stats:?}");
        assert_eq!(r1.races.alias_aware.len(), r2.races.alias_aware.len());
        assert_eq!(r1.summary.impure_blocks, r2.summary.impure_blocks);
    }

    #[test]
    fn head_laps_sum_to_the_whole_analysis() {
        let src = jtlang::corpus::generate(&jtlang::corpus::GenConfig::default());
        let edit = src.replacen("return s;", "return s + 1;", 1);
        let mut db = AnalysisDb::new();
        // A cold run, a warm edit, and a replay of the first revision.
        for text in [&src, &edit, &src] {
            let (p, t, g) = setup(text);
            db.analyze(&p, &t, &g);
            let s = db.last_run();
            assert_eq!(
                s.index_ns + s.method_ns + s.summary_ns + s.tail_ns + s.cache_ns,
                s.analyze_ns,
                "{s:?}"
            );
            assert!(s.analyze_ns > 0, "{s:?}");
        }
        let totals = db.totals();
        assert_eq!(
            totals.index_ns
                + totals.method_ns
                + totals.summary_ns
                + totals.tail_ns
                + totals.cache_ns,
            totals.analyze_ns
        );
    }

    #[test]
    fn spliced_revisions_carry_the_index_and_match_a_cold_analysis() {
        let cfg = jtlang::corpus::GenConfig::default();
        let mut text = jtlang::corpus::generate(&cfg);
        let (mut program, table, graph) = setup(&text);
        let mut db = AnalysisDb::new();
        db.analyze(&program, &table, &graph);
        let mut tweaks = BTreeMap::new();
        for (g, k) in [(3usize, 500i64), (40, 7), (3, 12_345), (63, 0), (0, 99)] {
            tweaks.insert(g, k);
            let new = jtlang::corpus::generate_with_tweaks(&cfg, &tweaks);
            let Ok(jtlang::reparse::Reparse::Spliced(splice)) =
                jtlang::reparse(&mut program, &text, &new)
            else {
                panic!("a constant edit splices");
            };
            text = new;
            let spliced: Vec<MemberPos> = splice.iter().map(|s| s.pos).collect();
            let graph = crate::callgraph::build(&program, &table);
            let warm = db.analyze_spliced(&program, &table, &graph, &spliced, None);
            assert_eq!(db.index(), &ProgramIndex::build(&program, &table));
            let cold = AnalysisDb::new().analyze(&program, &table, &graph);
            assert!(reports_equal(&warm, &cold));
            assert_eq!(warm.summary.methods, cold.summary.methods);
        }
    }

    /// Analyzes `base` then `edit` on one database and returns the
    /// warm report of `edit`, its stats, and a cold analysis of it.
    fn warm_then_cold(base: &str, edit: &str) -> (Arc<FlowReport>, RunStats, FlowReport) {
        let mut db = AnalysisDb::new();
        let (p, t, g) = setup(base);
        db.analyze(&p, &t, &g);
        let (p2, t2, g2) = setup(edit);
        let warm = db.analyze(&p2, &t2, &g2);
        db.check_tail_against_cold(&p2, &t2, &g2, &warm)
            .unwrap_or_else(|e| panic!("{e}"));
        (warm, db.last_run(), flow::analyze_batch(&p2, &t2, &g2))
    }

    #[test]
    fn a_call_added_in_a_constructor_re_attributes_its_callee() {
        // `bump` is reached from two threads' `run`; a call from a
        // constructor puts it in the init phase too. Its own key does
        // not change, but its accesses' attribution does, and with it
        // the race verdict on `Cell.v`.
        let base = "class Cell { public int v; Cell() { v = 0; } void bump() { v = v + 1; } }
             class W1 extends Thread { private Cell c; W1(Cell x) { c = x; } public void run() { c.bump(); } }
             class W2 extends Thread { private Cell c; W2(Cell x) { c = x; } public void run() { c.bump(); } }
             class Main { Main() { Cell s = new Cell(); W1 a = new W1(s); W2 b = new W2(s); } }";
        let edit = base.replace("W2 b = new W2(s); }", "W2 b = new W2(s); s.bump(); }");
        let (warm, stats, cold) = warm_then_cold(base, &edit);
        assert!(stats.tail_rerun.get(TailCause::Reach) >= 1, "{stats:?}");
        assert_eq!(warm.races, cold.races);
        let bump = MethodRef::method("Cell", "bump");
        assert!(warm.races.accesses.iter().any(|a| a.method == bump && a.in_init_phase));
    }

    #[test]
    fn a_new_thread_instance_re_runs_a_field_verdict() {
        // Only `Main`'s constructor changes: a second `W1` shares the
        // `Cell`. No access list changes, but the thread instances do,
        // and with them the alias verdict on `Cell.v`.
        let base = "class Cell { public int v; Cell() { v = 0; } void bump() { v = v + 1; } }
             class W1 extends Thread { private Cell c; W1(Cell x) { c = x; } public void run() { c.bump(); } }
             class Main { Main() { Cell s = new Cell(); W1 a = new W1(s); } }";
        let edit = base.replace("W1 a = new W1(s); }", "W1 a = new W1(s); W1 b = new W1(s); }");
        let (warm, stats, cold) = warm_then_cold(base, &edit);
        assert!(stats.tail_rerun.get(TailCause::PtSlice) >= 1, "{stats:?}");
        assert_eq!(warm.races, cold.races);
        assert!(!warm.races.alias_aware.is_empty(), "{:?}", warm.races);
    }

    #[test]
    fn replaying_an_older_revision_leaves_the_tail_where_it_was() {
        // A, B, A again, then C: the replay of A returns A's report while
        // the tail stays at B (where `bump` is in the init phase), and C
        // is brought forward from B.
        let a = "class Cell { public int v; Cell() { v = 0; } void bump() { v = v + 1; } }
             class W1 extends Thread { private Cell c; W1(Cell x) { c = x; } public void run() { c.bump(); } }
             class W2 extends Thread { private Cell c; W2(Cell x) { c = x; } public void run() { c.bump(); } }
             class Main { Main() { Cell s = new Cell(); W1 a = new W1(s); W2 b = new W2(s); } }";
        let b = a.replace("W2 b = new W2(s); }", "W2 b = new W2(s); s.bump(); }");
        let c = a.replace("v = v + 1;", "v = v + 2;");
        let mut db = AnalysisDb::new();
        for text in [a, &b, a, &c] {
            let (p, t, g) = setup(text);
            let warm = db.analyze(&p, &t, &g);
            db.check_tail_against_cold(&p, &t, &g, &warm)
                .unwrap_or_else(|e| panic!("{e}"));
            let cold = flow::analyze_batch(&p, &t, &g);
            assert!(reports_equal(&warm, &cold));
            assert_eq!(warm.races, cold.races);
        }
        assert_eq!(db.revision(), 3, "the second A is a replay");
    }

    #[test]
    fn a_callee_escape_change_re_runs_its_callers_leak_verdict() {
        // Only `raw` is edited; `get`'s body is unchanged, but it now
        // returns the alias `raw` hands out, so its escape summary — and
        // its R14 verdict — change.
        let base = "class Shared { public int v; Shared() { v = 0; } }
             class Reg {
                 private Shared slot;
                 Reg() { slot = new Shared(); }
                 Shared raw() { return new Shared(); }
                 Shared get() { return raw(); }
             }";
        let edit = base.replace("return new Shared(); }", "return slot; }");
        let (warm, stats, cold) = warm_then_cold(base, &edit);
        assert!(stats.tail_rerun.get(TailCause::Summary) >= 1, "{stats:?}");
        assert_eq!(warm.summary.alias_leaks, cold.summary.alias_leaks);
        assert_eq!(warm.summary.evidence, cold.summary.evidence);
        assert!(
            warm.summary.alias_leaks.iter().any(|l| l.method == "get"),
            "{:?}",
            warm.summary.alias_leaks
        );
    }

    #[test]
    fn a_no_op_revision_visits_no_tail_result() {
        let base = jtlang::corpus::generate(&jtlang::corpus::GenConfig::default());
        let shifted = format!("// pad\n{base}");
        let (_, stats, _) = warm_then_cold(&base, &shifted);
        assert_eq!(stats.tail_visited, 0, "{stats:?}");
        assert_eq!(stats.demand_misses, 0, "{stats:?}");
        assert_eq!(stats.tail_rerun, TailReruns::default(), "{stats:?}");
    }

    #[test]
    fn stale_entries_leave_and_cited_ones_stay() {
        // `g` changes every revision; `f` never does. After many
        // revisions `f`'s entries are still cited and cached, while the
        // caches hold no more than the live entries plus `g`'s last
        // KEEP_REVISIONS + 1 versions.
        let mut db = AnalysisDb::new();
        for i in 0..4 * KEEP_REVISIONS {
            let src = format!("class A {{ int f() {{ return 1; }} int g() {{ return {i}; }} }}");
            let (p, t, g) = setup(&src);
            db.analyze(&p, &t, &g);
        }
        assert!(db.definite.len() as u64 <= 2 + KEEP_REVISIONS + 1, "{}", db.definite.len());
        assert!(db.revisions.len() as u64 <= KEEP_REVISIONS + 1, "{}", db.revisions.len());
        let (p, t, g) = setup("class A { int f() { return 1; } int g() { return -1; } }");
        db.analyze(&p, &t, &g);
        assert_eq!(db.last_run().recomputed, 4, "{:?}", db.last_run());
    }

    #[test]
    fn replaying_a_seen_revision_does_not_age_the_cache() {
        let a = "class A { int f() { return 1; } int g() { return 2; } }";
        let b = "class A { int f() { return 1; } int g() { return 9; } }";
        let mut db = AnalysisDb::new();
        let (p, t, g) = setup(a);
        db.analyze(&p, &t, &g);
        // Many replays of the same revision are free and keep `a` fresh.
        for _ in 0..3 * KEEP_REVISIONS {
            let (p2, t2, g2) = setup(a);
            db.analyze(&p2, &t2, &g2);
            assert_eq!(db.last_run().recomputed, 0);
            assert!(db.last_run().hits > 0);
        }
        assert_eq!(db.revision(), 1, "replays are not new revisions");
        // `f` is still cached: the edit to `g` only recomputes `g`.
        let (p3, t3, g3) = setup(b);
        db.analyze(&p3, &t3, &g3);
        assert_eq!(db.last_run().recomputed, 4, "{:?}", db.last_run());
    }
}
