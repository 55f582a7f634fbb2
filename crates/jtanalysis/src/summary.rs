//! Interprocedural summary engine.
//!
//! [`analyze`] drives the bottom-up, summary-based interprocedural
//! layer: it walks the call graph's SCC condensation
//! ([`crate::callgraph::CallGraph::condensation`]) from callees to
//! callers, computing each method's purity/effect summary
//! ([`crate::purity`]) and escape summary ([`crate::escape`]). Acyclic
//! components converge in one evaluation; cyclic (recursive) components
//! are iterated until their summaries stop changing or
//! [`MAX_SCC_PASSES`] is reached, in which case the affected purity
//! summaries are flagged diverged (never pure — the safe direction).
//!
//! On top of the summaries and the shared points-to relation
//! ([`crate::pointsto`]) the engine derives three policy-facing
//! products:
//!
//! * [`SummaryReport::impure_blocks`] (rule R13) — an ASR block whose
//!   run phase writes state it does not own. Ownership is structural:
//!   every abstract object holding a written field must be the block
//!   instance itself, an object allocated by the block's own methods, or
//!   (transitively) owned by owned objects only.
//! * [`SummaryReport::alias_leaks`] (rule R14) — a method hands out an
//!   alias of its receiver's mutable state: its escape summary returns
//!   or leaks a `this`-held reference-typed field whose target carries
//!   mutable state. Shared through such an alias, "state fixed at
//!   initialization" (paper §4.3) becomes concurrently mutable.
//! * [`SummaryReport::call_proved_bounds`] — trip counts for loops whose
//!   limit is an integer parameter, proved by folding the arguments of
//!   every (closed-world) call site and taking the worst case. These
//!   merge with the interval tier's proofs to sharpen the WCET
//!   instruction bounds ([`SummaryReport::wcet`]) across calls.

use crate::callgraph::CallGraph;
use crate::db::TailCause;
use crate::demand::{idx32, BlockTail, Maps, Pass, TailState, IKEY, SUMMARY, TRIPS};
use crate::escape::{self, EscapeSummary};
use crate::evidence::{AccessRef, BoundDerivation, ChainLink, Evidence, SiteRef, Verdict};
use crate::fingerprint::{Fp, NodeMap, StructHasher};
use crate::loops::{self, fold_const, BoundStatus};
use crate::pointsto::{self, resolve_call, CallTarget, ObjId, PointsTo, PtChange};
use crate::purity::{self, PuritySummary};
use crate::races::{field_events, FieldId, HolderRef};
use crate::{bounds, decl_of, MethodRef};
use jtlang::ast::{
    walk_exprs, walk_stmts, BinOp, ClassDecl, ExprKind, MethodDecl, NodeId, Program, Stmt,
    StmtKind,
};
use jtlang::resolve::ClassTable;
use jtlang::token::Span;
use jtlang::ast::{AssignOp, Type};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Cap on fixpoint iterations over one cyclic SCC.
pub const MAX_SCC_PASSES: usize = 8;

/// The pair of summaries computed per method.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MethodSummary {
    /// Transitive effect footprint.
    pub purity: PuritySummary,
    /// Escape facts.
    pub escape: EscapeSummary,
}

/// An R13 finding: a block's run phase writes state it does not own.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockImpurity {
    /// The ASR block class.
    pub block: String,
    /// Method performing the write (reachable from the block's `run`).
    pub method: MethodRef,
    /// The field written.
    pub field: FieldId,
    /// Span of the writing expression.
    pub span: Span,
}

/// An R14 finding: a method hands out an alias of `this`-held mutable
/// state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AliasLeak {
    /// Declaring class.
    pub class: String,
    /// Method name.
    pub method: String,
    /// The leaked field.
    pub field: String,
    /// Span of the method signature.
    pub span: Span,
    /// True when the alias escapes by being returned (vs. stored into
    /// external state or leaked by a callee).
    pub via_return: bool,
}

/// Result of [`analyze`].
#[derive(Debug, Clone, Default)]
pub struct SummaryReport {
    /// Per-method summaries.
    pub methods: BTreeMap<MethodRef, MethodSummary>,
    /// The shared whole-program points-to relation (shared with the
    /// incremental database's delta cache, not copied into the report).
    pub pointsto: Arc<PointsTo>,
    /// Number of call-graph SCCs processed.
    pub sccs: usize,
    /// Size of the largest SCC.
    pub largest_scc: usize,
    /// Total summary evaluation passes across all SCCs.
    pub fixpoint_iterations: u64,
    /// SCCs that hit [`MAX_SCC_PASSES`] without converging; their
    /// members carry the deterministic never-pure/everything-escapes
    /// summary instead of a partial fixpoint iterate.
    pub divergent_sccs: u64,
    /// R13 findings, one per (block, field) pair.
    pub impure_blocks: Vec<BlockImpurity>,
    /// R14 findings, one per leaking method and field.
    pub alias_leaks: Vec<AliasLeak>,
    /// Loop trip counts proved from call-site arguments, keyed by the
    /// `for` statement's node id.
    pub call_proved_bounds: BTreeMap<NodeId, u64>,
    /// WCET instruction bounds sharpened with the merged loop proofs.
    pub wcet: BTreeMap<MethodRef, Option<u64>>,
    /// Proof-carrying evidence for every R2/R13/R14 verdict derived by
    /// this engine — findings *and* cleared candidates (R12 evidence is
    /// assembled by [`crate::races`], which owns the alias tier).
    pub evidence: Vec<Evidence>,
}

/// Runs the summary engine without interval-tier loop proofs.
pub fn analyze(program: &Program, table: &ClassTable, graph: &CallGraph) -> SummaryReport {
    analyze_with_bounds(program, table, graph, &BTreeMap::new())
}

/// Runs the summary engine, merging `interval_proved` loop bounds (from
/// `interval::IntervalReport::proved_loop_bounds`) with the call-site
/// proofs before computing WCET bounds. Interval proofs win on overlap:
/// they are flow-sensitive and at least as precise.
pub fn analyze_with_bounds(
    program: &Program,
    table: &ClassTable,
    graph: &CallGraph,
    interval_proved: &BTreeMap<NodeId, u64>,
) -> SummaryReport {
    analyze_with_bounds_k(program, table, graph, interval_proved, pointsto::DEFAULT_K)
}

/// [`analyze_with_bounds`] at an explicit context depth `k` for the
/// points-to tier (`k = 0` reproduces the context-insensitive
/// analysis).
pub fn analyze_with_bounds_k(
    program: &Program,
    table: &ClassTable,
    graph: &CallGraph,
    interval_proved: &BTreeMap<NodeId, u64>,
    k: usize,
) -> SummaryReport {
    let mut report = SummaryReport::default();

    // Bottom-up summary computation over the condensation.
    let mut purities: BTreeMap<MethodRef, PuritySummary> = BTreeMap::new();
    let mut escapes: BTreeMap<MethodRef, EscapeSummary> = BTreeMap::new();
    for scc in graph.condensation() {
        let stats = compute_scc(program, table, graph, &scc, &mut purities, &mut escapes);
        report.sccs += 1;
        report.largest_scc = report.largest_scc.max(scc.len());
        report.fixpoint_iterations += stats.passes;
        report.divergent_sccs += u64::from(stats.diverged);
    }
    for (mref, purity) in purities {
        let escape = escapes.remove(&mref).unwrap_or_default();
        report.methods.insert(mref, MethodSummary { purity, escape });
    }

    let pt = Arc::new(pointsto::analyze_k(program, table, k));
    derive_products(program, table, graph, interval_proved, pt, &mut report);
    report
}

/// Fixpoint statistics of one SCC evaluation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct SccStats {
    /// Summary evaluation passes spent.
    pub(crate) passes: u64,
    /// True when the pass cap was hit while summaries still changed.
    pub(crate) diverged: bool,
}

/// Evaluates one SCC of the condensation to a (bounded) fixpoint,
/// reading callee summaries from — and writing member summaries into —
/// the accumulating maps. This is the unit the incremental database
/// ([`crate::db`]) caches: its result depends only on the member
/// bodies, the global signature table, and the callee summaries.
///
/// An SCC that hits [`MAX_SCC_PASSES`] while still changing does *not*
/// keep the partial fixpoint iterate (which would depend on iteration
/// order and pass count): every member gets `diverged = true` on its
/// purity summary (never pure) and the deterministic
/// [`escape::divergent_top`] escape summary (everything escapes), so a
/// divergent component always caches the same conservative value.
pub(crate) fn compute_scc(
    program: &Program,
    table: &ClassTable,
    graph: &CallGraph,
    scc: &[MethodRef],
    purities: &mut BTreeMap<MethodRef, PuritySummary>,
    escapes: &mut BTreeMap<MethodRef, EscapeSummary>,
) -> SccStats {
    let mut stats = SccStats::default();
    let cyclic = scc.len() > 1 || graph.callees(&scc[0]).any(|c| c == &scc[0]);
    // An acyclic component sees only final callee summaries: one
    // evaluation is exact. Cycles iterate to a bounded fixpoint.
    let max_passes = if cyclic { MAX_SCC_PASSES } else { 1 };
    for pass in 1..=max_passes {
        stats.passes += 1;
        let mut changed = false;
        for mref in scc {
            let Some((class, decl)) = decl_of(program, mref) else {
                continue;
            };
            let p = purity::summarize_method(program, table, class, decl, mref, purities);
            let e = escape::summarize_method(program, table, class, decl, mref, escapes);
            changed |= purities.get(mref) != Some(&p);
            changed |= escapes.get(mref) != Some(&e);
            purities.insert(mref.clone(), p);
            escapes.insert(mref.clone(), e);
        }
        if !changed {
            break;
        }
        stats.diverged = cyclic && pass == max_passes;
    }
    if stats.diverged {
        for mref in scc {
            if let Some(p) = purities.get_mut(mref) {
                p.diverged = true;
            }
            if let Some((class, decl)) = decl_of(program, mref) {
                escapes.insert(mref.clone(), escape::divergent_top(table, class, decl));
            }
        }
    }
    stats
}

/// Derives the per-revision products from finished summaries and the
/// supplied points-to relation: R13/R14 findings, call-site loop
/// proofs, WCET bounds, and the proof-carrying evidence behind each
/// verdict. `report.methods` must already be populated. The batch
/// driver above computes every core; the incremental database runs
/// [`derive_products_carried`], which computes the same cores for the
/// edit's changed set only. Both materialize through the same code, so
/// batch ≡ incremental holds whenever the carried cores are the ones a
/// cold run computes.
pub(crate) fn derive_products(
    program: &Program,
    table: &ClassTable,
    graph: &CallGraph,
    interval_proved: &BTreeMap<NodeId, u64>,
    pt: Arc<PointsTo>,
    report: &mut SummaryReport,
) {
    find_impure_blocks(program, table, graph, &pt, report);
    report.pointsto = pt;
    find_alias_leaks(program, table, report);
    prove_call_bounds(program, table, report);
    loop_bound_evidence(program, interval_proved, report);
    let merged = merged_bounds(interval_proved, &report.call_proved_bounds);
    report.wcet = bounds::instruction_bounds_with_flow(program, table, &merged);
}

/// [`derive_products`] over the carried tail `state`: each product's
/// cores re-run for the methods (and blocks) whose inputs the `pass`
/// flags as changed, and are served from `state` for every other one.
#[allow(clippy::too_many_arguments)]
pub(crate) fn derive_products_carried(
    program: &Program,
    table: &ClassTable,
    graph: &CallGraph,
    interval_proved: &BTreeMap<NodeId, u64>,
    pt: Arc<PointsTo>,
    report: &mut SummaryReport,
    state: &mut TailState,
    pass: &mut Pass,
) {
    impure_blocks_carried(program, table, graph, &pt, report, state, pass);
    report.pointsto = pt;
    alias_leaks_carried(table, report, state, pass);
    call_bounds_carried(program, table, report, state, pass);
    loop_evidence_carried(interval_proved, report, state, pass);
    let merged = merged_bounds(interval_proved, &report.call_proved_bounds);
    report.wcet = wcet_carried(program, table, graph, &merged, state, pass);
}

/// The interval proofs with the call-site proofs added where the
/// interval tier has none (it is flow-sensitive and at least as
/// precise).
pub(crate) fn merged_bounds<'a>(
    interval_proved: &'a BTreeMap<NodeId, u64>,
    call_proved: &BTreeMap<NodeId, u64>,
) -> std::borrow::Cow<'a, BTreeMap<NodeId, u64>> {
    if call_proved.is_empty() {
        return std::borrow::Cow::Borrowed(interval_proved);
    }
    let mut merged = interval_proved.clone();
    for (&id, &trips) in call_proved {
        merged.entry(id).or_insert(trips);
    }
    std::borrow::Cow::Owned(merged)
}

/// Checks that `o` is owned by `block` — it is a block instance itself,
/// a never-stored object allocated by the block's own code, or held
/// only by owned objects — and on failure returns the owner chain from
/// `o` up to the non-owned terminal object as the R13 witness. Heap
/// cycles resolve optimistically (a cycle member is owned iff its
/// external owners are).
fn owned_witness(
    pt: &PointsTo,
    table: &ClassTable,
    o: ObjId,
    block: &str,
    visiting: &mut BTreeSet<ObjId>,
) -> Result<(), Vec<ObjId>> {
    let info = pt.object(o);
    if table.is_subclass_of(&info.class, block) {
        return Ok(());
    }
    if !visiting.insert(o) {
        return Ok(());
    }
    let owners = pt.owners_of(o);
    let result = if owners.is_empty() {
        // A fresh value never stored anywhere: owned iff the block's own
        // code (or an ancestor's, which the block inherits) allocates it.
        if info
            .method
            .as_ref()
            .is_some_and(|m| m.class == block || table.is_subclass_of(block, &m.class))
        {
            Ok(())
        } else {
            Err(vec![o])
        }
    } else {
        owners
            .iter()
            .try_for_each(|&p| match owned_witness(pt, table, p, block, visiting) {
                Ok(()) => Ok(()),
                Err(mut chain) => {
                    chain.insert(0, o);
                    Err(chain)
                }
            })
    };
    visiting.remove(&o);
    result
}

/// Renders an owner chain of abstract objects as evidence links: the
/// first link is the written holder, each subsequent link holds its
/// predecessor via `via_field`.
fn owner_chain_links(pt: &PointsTo, chain: &[ObjId]) -> Vec<ChainLink> {
    chain
        .iter()
        .enumerate()
        .map(|(i, &o)| {
            let info = pt.object(o);
            let via_field = (i > 0).then(|| {
                // The owner edge is direct, so the shortest witness
                // path from owner to held is the single labeled step.
                pt.witness_path(o, chain[i - 1])
                    .and_then(|p| p.first().map(|(f, _)| f.clone()))
                    .unwrap_or_default()
            });
            ChainLink {
                object: SiteRef {
                    class: info.class.clone(),
                    span: info.span.into(),
                },
                via_field,
            }
        })
        .collect()
}

/// R13: for every ASR block, check each field write reachable from its
/// `run` against the ownership discipline.
///
/// Two precision refinements over the naive check:
/// * **Purity pruning** — a reachable method whose (transitive) purity
///   footprint writes nothing is skipped without re-walking its body.
/// * **Block-reach restriction** — candidate holders are intersected
///   with the heap reachable from the block's own instances, so that at
///   `k ≥ 1` per-context allocations made *for other blocks* by a
///   shared factory no longer pollute this block's verdict. When the
///   intersection is empty the unrestricted set is kept (the
///   conservative direction).
fn find_impure_blocks(
    program: &Program,
    table: &ClassTable,
    graph: &CallGraph,
    pt: &PointsTo,
    report: &mut SummaryReport,
) {
    let mut maps = Maps::new(None);
    let mut cores: Vec<(&str, OwnershipCore)> = Vec::new();
    for block in asr_blocks(program, table) {
        let run = MethodRef::method(&block.name, "run");
        let reach = graph.reachable_from([&run]);
        let core =
            compute_ownership_core(program, table, pt, &report.methods, block, &reach, &mut maps);
        cores.push((&block.name, core));
    }
    let cores = cores.iter().map(|(b, c)| (*b, c));
    materialize_ownership(program, pt, cores, &mut maps, report);
}

/// The ASR blocks of `program`: subclasses of `ASR` that declare `run`.
pub(crate) fn asr_blocks<'p>(
    program: &'p Program,
    table: &'p ClassTable,
) -> impl Iterator<Item = &'p ClassDecl> {
    program
        .classes
        .iter()
        .filter(move |c| table.is_subclass_of(&c.name, "ASR") && c.method("run").is_some())
}

/// [`find_impure_blocks`] over the carried verdicts: a block re-runs
/// when a method its `run` reaches changed its key (its reach is walked
/// again) or its summary, or when the points-to relation changed.
fn impure_blocks_carried(
    program: &Program,
    table: &ClassTable,
    graph: &CallGraph,
    pt: &PointsTo,
    report: &mut SummaryReport,
    state: &mut TailState,
    pass: &mut Pass,
) {
    let mut maps = Maps::new(Some(pass.ix));
    let pt_changed = !matches!(pass.pt, PtChange::Unchanged);
    let mut old = std::mem::take(&mut state.blocks);
    for block in asr_blocks(program, table) {
        let run = MethodRef::method(&block.name, "run");
        let carried = old.remove(&block.name).filter(|_| pass.all.is_none());
        let cause = match &carried {
            None => Some(pass.all.unwrap_or(TailCause::MethodKey)),
            Some(b) if state.touches(&pass.edited, &b.reach) => Some(TailCause::MethodKey),
            Some(b) if state.touches(&pass.resummarized, &b.reach) => Some(TailCause::Summary),
            Some(_) if pt_changed => Some(TailCause::PtSlice),
            Some(_) => None,
        };
        let slot = state.slot_of(&run).expect("`run` is a declared method");
        let entry = match carried {
            Some(b) if !pass.note(slot, cause) => b,
            carried => {
                let reach = match carried {
                    Some(b) if cause != Some(TailCause::MethodKey) => b.reach,
                    _ => graph.reachable_from([&run]),
                };
                let core = compute_ownership_core(
                    program,
                    table,
                    pt,
                    &report.methods,
                    block,
                    &reach,
                    &mut maps,
                );
                BlockTail { reach, core }
            }
        };
        state.blocks.insert(block.name.clone(), entry);
    }
    let cores = state.blocks.iter().map(|(b, t)| (b.as_str(), &t.core));
    materialize_ownership(program, pt, cores, &mut maps, report);
}

/// Renders the R13 cores of every block into findings and evidence.
fn materialize_ownership<'c>(
    program: &Program,
    pt: &PointsTo,
    cores: impl Iterator<Item = (&'c str, &'c OwnershipCore)>,
    maps: &mut Maps,
    report: &mut SummaryReport,
) {
    let mut findings: BTreeMap<(&str, &FieldId), &OwnershipDraft> = BTreeMap::new();
    let mut cleared: BTreeMap<(&str, &FieldId), &(MethodRef, u32)> = BTreeMap::new();
    for (block, core) in cores {
        for (field, draft) in &core.findings {
            findings.insert((block, field), draft);
        }
        for (field, rec) in &core.cleared {
            cleared.insert((block, field), rec);
        }
    }
    for key in findings.keys() {
        cleared.remove(key);
    }
    for ((block, field), (method, expr_index)) in cleared {
        let span = span_of_expr(program, maps, method, *expr_index);
        report.evidence.push(Evidence::Ownership {
            verdict: Verdict::Cleared,
            block: block.to_string(),
            field: field.to_string(),
            write: AccessRef {
                method: method.to_string(),
                span: span.into(),
                is_write: true,
            },
            chain: Vec::new(),
            reason: "every holder of the written field is owned by the block".to_string(),
        });
    }
    let mut impure: Vec<BlockImpurity> = Vec::new();
    for ((block, field), draft) in findings {
        let span = span_of_expr(program, maps, &draft.method, draft.expr_index);
        report.evidence.push(Evidence::Ownership {
            verdict: Verdict::Finding,
            block: block.to_string(),
            field: field.to_string(),
            write: AccessRef {
                method: draft.method.to_string(),
                span: span.into(),
                is_write: true,
            },
            chain: owner_chain_links(pt, &draft.chain),
            reason: draft.reason.clone(),
        });
        impure.push(BlockImpurity {
            block: block.to_string(),
            method: draft.method.clone(),
            field: field.clone(),
            span,
        });
    }
    report.impure_blocks = impure;
}

/// Span-free R13 verdicts for one block: per written field (first draft
/// wins, matching the cold `or_insert`), either an ownership-violation
/// draft or a cleared record `(method, expr index)`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct OwnershipCore {
    pub(crate) findings: BTreeMap<FieldId, OwnershipDraft>,
    pub(crate) cleared: BTreeMap<FieldId, (MethodRef, u32)>,
}

/// A finding in the making: the writing method, the pre-order index of
/// the writing expression, the owner-chain witness as canonical object
/// ids, and the terminal judgment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct OwnershipDraft {
    pub(crate) method: MethodRef,
    pub(crate) expr_index: u32,
    pub(crate) chain: Vec<ObjId>,
    pub(crate) reason: String,
}

/// Runs the R13 ownership discipline over one block's reachable
/// methods: pure in the relation, the class table, and the reachable
/// methods' bodies and purity summaries.
pub(crate) fn compute_ownership_core(
    program: &Program,
    table: &ClassTable,
    pt: &PointsTo,
    methods: &BTreeMap<MethodRef, MethodSummary>,
    block: &ClassDecl,
    reach: &BTreeSet<MethodRef>,
    maps: &mut Maps,
) -> OwnershipCore {
    let mut core = OwnershipCore::default();
    let block_reach: BTreeSet<ObjId> = pt
        .instances_of(&block.name)
        .into_iter()
        .flat_map(|b| pt.reachable(b))
        .collect();
    for mref in reach {
        if methods
            .get(mref)
            .is_some_and(|s| s.purity.writes.is_empty() && !s.purity.diverged)
        {
            continue;
        }
        let Some((class, decl)) = decl_of(program, mref) else {
            continue;
        };
        let Some(map) = maps.get(program, mref) else {
            continue;
        };
        for ev in field_events(table, class, decl) {
            if !ev.is_write {
                continue;
            }
            let expr_index = idx32(map.expr_index(ev.id).expect("event expr in body"));
            let holders = match &ev.holder {
                HolderRef::ImplicitThis => pt.instances_of(&mref.class),
                HolderRef::Object(e) => pt.eval(program, table, mref, e),
            };
            let restricted: BTreeSet<ObjId> = holders
                .iter()
                .copied()
                .filter(|o| block_reach.contains(o))
                .collect();
            let holders = if restricted.is_empty() {
                holders
            } else {
                restricted
            };
            if holders.is_empty() {
                core.findings
                    .entry(ev.field.clone())
                    .or_insert_with(|| OwnershipDraft {
                        method: mref.clone(),
                        expr_index,
                        chain: Vec::new(),
                        reason: "no abstract object could be attributed to the written holder"
                            .to_string(),
                    });
                continue;
            }
            let witness = holders.iter().find_map(|&o| {
                owned_witness(pt, table, o, &block.name, &mut BTreeSet::new()).err()
            });
            match witness {
                Some(chain) => {
                    let terminal = pt.object(*chain.last().unwrap());
                    let reason = format!(
                        "terminal `{}` is neither a `{}` instance nor allocated \
                         by the block's own code",
                        terminal.class, block.name
                    );
                    core.findings
                        .entry(ev.field.clone())
                        .or_insert_with(|| OwnershipDraft {
                            method: mref.clone(),
                            expr_index,
                            chain,
                            reason,
                        });
                }
                None => {
                    core.cleared
                        .entry(ev.field.clone())
                        .or_insert_with(|| (mref.clone(), expr_index));
                }
            }
        }
    }
    core
}

/// Span of the expression at `expr_index` in `mref`'s body, in the
/// current parse.
fn span_of_expr(program: &Program, maps: &mut Maps, mref: &MethodRef, expr_index: u32) -> Span {
    maps.get(program, mref)
        .map(|m| m.expr(expr_index as usize).1)
        .unwrap_or_default()
}

/// True when `ty` names mutable state: an array, or a class whose chain
/// declares at least one field.
fn is_mutable_target(table: &ClassTable, ty: &Type) -> bool {
    match ty {
        Type::Array(_) => true,
        Type::Class(cn) => {
            let mut current = Some(cn.clone());
            while let Some(name) = current {
                let Some(info) = table.class(&name) else { break };
                if !info.fields.is_empty() {
                    return true;
                }
                current = info.superclass.clone();
            }
            false
        }
        _ => false,
    }
}

/// R14: methods whose escape summary returns or leaks a `this`-held
/// reference field with mutable target state. Escape candidates whose
/// target carries no mutable state are recorded as cleared evidence.
fn find_alias_leaks(program: &Program, table: &ClassTable, report: &mut SummaryReport) {
    let mut maps = Maps::new(None);
    let mut leaks: Vec<AliasLeak> = Vec::new();
    for (_, decl, mref) in crate::each_method(program) {
        if mref.is_ctor {
            continue;
        }
        let Some(summary) = report.methods.get(&mref) else {
            continue;
        };
        let Some(map) = maps.get(program, &mref) else {
            continue;
        };
        let cores = compute_leak_cores(table, decl, &mref, &summary.escape, map);
        materialize_leaks(&mref, decl, map, &cores, &mut report.evidence, &mut leaks);
    }
    report.alias_leaks = leaks;
}

/// [`find_alias_leaks`] over the carried cores: a method re-runs when
/// its key or its summary changed.
fn alias_leaks_carried(
    table: &ClassTable,
    report: &mut SummaryReport,
    state: &mut TailState,
    pass: &mut Pass,
) {
    let mut leaks: Vec<AliasLeak> = Vec::new();
    for &i in &state.order {
        let slot = &mut state.slots[i];
        if slot.mref.is_ctor {
            continue;
        }
        let ((_, decl), map) = (pass.decls[i], pass.maps[i]);
        let cause = pass
            .key_cause(i)
            .or_else(|| (pass.own[i] & SUMMARY != 0).then_some(TailCause::Summary));
        if pass.note(i, cause) {
            slot.leaks = match report.methods.get(&slot.mref) {
                Some(s) => compute_leak_cores(table, decl, &slot.mref, &s.escape, map),
                None => Vec::new(),
            };
        }
        materialize_leaks(&slot.mref, decl, map, &slot.leaks, &mut report.evidence, &mut leaks);
    }
    report.alias_leaks = leaks;
}

/// Renders one method's R14 cores into findings and evidence.
fn materialize_leaks(
    mref: &MethodRef,
    decl: &MethodDecl,
    map: &NodeMap,
    cores: &[LeakCore],
    evidence: &mut Vec<Evidence>,
    leaks: &mut Vec<AliasLeak>,
) {
    for core in cores {
        let decl_span: crate::evidence::SpanRef = decl.span.into();
        if core.mutable {
            let witness_span = core
                .witness_stmt
                .map_or(decl_span, |i| map.stmt(i as usize).1.into());
            evidence.push(Evidence::AliasLeak {
                verdict: Verdict::Finding,
                class: mref.class.clone(),
                method: mref.method.clone(),
                field: core.field.clone(),
                via_return: core.via_return,
                decl_span,
                witness_span,
                mutable_because: core.because.clone(),
            });
            leaks.push(AliasLeak {
                class: mref.class.clone(),
                method: mref.method.clone(),
                field: core.field.clone(),
                span: decl.span,
                via_return: core.via_return,
            });
        } else {
            evidence.push(Evidence::AliasLeak {
                verdict: Verdict::Cleared,
                class: mref.class.clone(),
                method: mref.method.clone(),
                field: core.field.clone(),
                via_return: core.via_return,
                decl_span,
                witness_span: decl_span,
                mutable_because: core.because.clone(),
            });
        }
    }
}

/// Span-free R14 verdict for one escape-candidate field of a method.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct LeakCore {
    pub(crate) field: String,
    pub(crate) via_return: bool,
    /// True when the target type carries mutable state (a finding);
    /// false records a cleared candidate.
    pub(crate) mutable: bool,
    pub(crate) because: String,
    /// Pre-order index of the first value-returning statement (the
    /// witness for `via_return` findings).
    pub(crate) witness_stmt: Option<u32>,
}

/// Runs the R14 mutable-target check for one method's escape
/// candidates: pure in its body, the class table, and its escape sets.
pub(crate) fn compute_leak_cores(
    table: &ClassTable,
    decl: &MethodDecl,
    mref: &MethodRef,
    es: &EscapeSummary,
    map: &NodeMap,
) -> Vec<LeakCore> {
    let mut fields: BTreeSet<(&String, bool)> = BTreeSet::new();
    for f in &es.returns_this_field {
        fields.insert((f, true));
    }
    for f in &es.leaked_this_fields {
        if !es.returns_this_field.contains(f) {
            fields.insert((f, false));
        }
    }
    let mut out: Vec<LeakCore> = Vec::new();
    for (f, via_return) in fields {
        let Some((_, sig)) = table.field_of(&mref.class, f) else {
            continue;
        };
        if sig.ty.is_reference() && is_mutable_target(table, &sig.ty) {
            // Witness: the first value-returning statement (the escape
            // summary guarantees one exists for `via_return` leaks).
            let mut witness_stmt: Option<u32> = None;
            if via_return {
                let mut first: Option<NodeId> = None;
                walk_stmts(&decl.body, &mut |s: &Stmt| {
                    if first.is_none() && matches!(s.kind, StmtKind::Return(Some(_))) {
                        first = Some(s.id);
                    }
                });
                witness_stmt = first.and_then(|id| map.stmt_index(id)).map(idx32);
            }
            out.push(LeakCore {
                field: f.clone(),
                via_return,
                mutable: true,
                because: format!(
                    "target type `{}` is an array or transitively declares fields",
                    sig.ty
                ),
                witness_stmt,
            });
        } else {
            out.push(LeakCore {
                field: f.clone(),
                via_return,
                mutable: false,
                because: format!("target type `{}` carries no mutable state", sig.ty),
                witness_stmt: None,
            });
        }
    }
    out
}

/// One parameter-limited loop: `for (iv = c0; iv < p; iv += step)`.
pub(crate) struct TripCandidate {
    pub(crate) stmt_id: NodeId,
    pub(crate) c0: i64,
    pub(crate) inclusive: bool,
    pub(crate) step: i64,
    pub(crate) param_index: usize,
}

/// Matches `stmt` against the parameter-bounded loop frame
/// `for (iv = c0; iv < p; iv += step)` (with `<=` and both `i += s` /
/// `i = i + s` update spellings), requiring a constant start, a
/// constant positive step, `p` an `int` parameter of `decl`, and
/// neither `iv` nor `p` assigned anywhere else in the method. Shared
/// between the call-site bound prover and [`crate::evidence::verify`],
/// which re-derives the frame independently of the solver run.
pub(crate) fn trip_frame(decl: &MethodDecl, stmt: &Stmt) -> Option<TripCandidate> {
    let StmtKind::For {
        init: Some(init),
        cond: Some(cond),
        update: Some(update),
        ..
    } = &stmt.kind
    else {
        return None;
    };
    // Induction variable and constant start.
    let (iv, c0) = match &init.kind {
        StmtKind::VarDecl {
            name,
            init: Some(e),
            ..
        } => (name.as_str(), fold_const(e)),
        StmtKind::Assign {
            target,
            op: AssignOp::Set,
            value,
        } => match &target.kind {
            ExprKind::Var(n) => (n.as_str(), fold_const(value)),
            _ => return None,
        },
        _ => return None,
    };
    let c0 = c0?;
    // `iv < p` / `iv <= p` with `p` an int parameter.
    let ExprKind::Binary { op, lhs, rhs } = &cond.kind else {
        return None;
    };
    let inclusive = match op {
        BinOp::Lt => false,
        BinOp::Le => true,
        _ => return None,
    };
    let (ExprKind::Var(l), ExprKind::Var(r)) = (&lhs.kind, &rhs.kind) else {
        return None;
    };
    if l != iv {
        return None;
    }
    let param_index = decl
        .params
        .iter()
        .position(|p| &p.name == r && p.ty == Type::Int)?;
    // Constant positive step on the induction variable.
    let step = match &update.kind {
        StmtKind::Assign { target, op, value } => {
            let ExprKind::Var(n) = &target.kind else {
                return None;
            };
            if n != iv {
                return None;
            }
            match op {
                AssignOp::Add => fold_const(value),
                AssignOp::Set => match &value.kind {
                    ExprKind::Binary {
                        op: BinOp::Add,
                        lhs,
                        rhs,
                    } => match (&lhs.kind, &rhs.kind) {
                        (ExprKind::Var(v), _) if v == iv => fold_const(rhs),
                        (_, ExprKind::Var(v)) if v == iv => fold_const(lhs),
                        _ => None,
                    },
                    _ => None,
                },
                _ => None,
            }
        }
        _ => return None,
    };
    let step = step?;
    if step <= 0 {
        return None;
    }
    // Neither the limit parameter nor the induction variable may be
    // assigned elsewhere in the method.
    let mut disqualified = false;
    walk_stmts(&decl.body, &mut |s| {
        if let StmtKind::Assign { target, .. } = &s.kind {
            if let ExprKind::Var(n) = &target.kind {
                if n == r || (n == iv && s.id != update.id && s.id != init.id) {
                    disqualified = true;
                }
            }
        }
    });
    if disqualified {
        return None;
    }
    Some(TripCandidate {
        stmt_id: stmt.id,
        c0,
        inclusive,
        step,
        param_index,
    })
}

/// Computes a worst-case trip count from the frame constants and the
/// maximum limit observed across call sites.
pub(crate) fn trips_for(c: &TripCandidate, limit: i64) -> u64 {
    let trips = if c.inclusive {
        if limit < c.c0 {
            0
        } else {
            (limit - c.c0) / c.step + 1
        }
    } else if limit <= c.c0 {
        0
    } else {
        (limit - c.c0 + c.step - 1) / c.step
    };
    u64::try_from(trips).unwrap_or(0)
}

/// Proves trip counts for loops bounded by an integer parameter, using
/// the fold-constant arguments of every static call site (closed-world:
/// methods with no analyzable site, or any non-constant site, stay
/// unproved). Each proof is recorded as call-site evidence carrying the
/// full site list.
fn prove_call_bounds(program: &Program, table: &ClassTable, report: &mut SummaryReport) {
    let mut maps = Maps::new(None);
    // Candidate loops per method.
    let mut candidates: BTreeMap<MethodRef, Vec<TripCandidate>> = BTreeMap::new();
    for (_, decl, mref) in crate::each_method(program) {
        let Some(map) = maps.get(program, &mref) else {
            continue;
        };
        let cores = compute_trip_cands(decl, map);
        if !cores.is_empty() {
            candidates.insert(mref, candidates_of(&cores, map));
        }
    }
    if candidates.is_empty() {
        return;
    }
    let mut sites: BTreeMap<MethodRef, Option<SiteList>> = BTreeMap::new();
    for (_, decl, caller) in crate::each_method(program) {
        let Some(map) = maps.get(program, &caller) else {
            continue;
        };
        let contribs = compute_contributions(program, table, decl, &caller, &candidates, map);
        fold_sites(&contribs, map, &candidates, &mut sites);
    }
    prove_from_sites(program, &candidates, &sites, report);
}

/// [`prove_call_bounds`] over the carried cores: a method's loop frames
/// re-run when its key changed, and its call-site folds when its key or
/// the shape of the candidate table changed. Records, per method, the
/// call-site-proved trips of its loops, which its WCET bound reads.
fn call_bounds_carried(
    program: &Program,
    table: &ClassTable,
    report: &mut SummaryReport,
    state: &mut TailState,
    pass: &mut Pass,
) {
    let mut candidates: BTreeMap<MethodRef, Vec<TripCandidate>> = BTreeMap::new();
    for (i, slot) in state.slots.iter_mut().enumerate() {
        let ((_, decl), map) = (pass.decls[i], pass.maps[i]);
        if pass.note(i, pass.key_cause(i)) {
            slot.trips = compute_trip_cands(decl, map);
        }
        if !slot.trips.is_empty() {
            candidates.insert(slot.mref.clone(), candidates_of(&slot.trips, map));
        }
    }
    if !candidates.is_empty() {
        let shape = candidate_shape(&candidates);
        let mut sites: BTreeMap<MethodRef, Option<SiteList>> = BTreeMap::new();
        for &i in &state.order {
            let slot = &mut state.slots[i];
            let ((_, decl), map) = (pass.decls[i], pass.maps[i]);
            let folded_against = slot.calls.as_ref().map(|(s, _)| *s);
            let cause = pass
                .key_cause(i)
                .or_else(|| (folded_against != Some(shape)).then_some(TailCause::Summary));
            if pass.note(i, cause) {
                let contribs =
                    compute_contributions(program, table, decl, &slot.mref, &candidates, map);
                slot.calls = Some((shape, contribs));
            }
            if let Some((_, contribs)) = &slot.calls {
                fold_sites(contribs, map, &candidates, &mut sites);
            }
        }
        prove_from_sites(program, &candidates, &sites, report);
    }
    for (i, slot) in state.slots.iter_mut().enumerate() {
        let trips: Vec<(u32, u64)> = slot
            .trips
            .iter()
            .filter_map(|t| {
                let id = pass.maps[i].stmt(t.stmt_index as usize).0;
                Some((t.stmt_index, *report.call_proved_bounds.get(&id)?))
            })
            .collect();
        if trips != slot.call_trips {
            pass.own[i] |= TRIPS;
            slot.call_trips = trips;
        }
    }
}

/// One method's candidate loops, with the statements of this parse.
pub(crate) fn candidates_of(cores: &[TripCandCore], map: &NodeMap) -> Vec<TripCandidate> {
    cores
        .iter()
        .map(|t| TripCandidate {
            stmt_id: map.stmt(t.stmt_index as usize).0,
            c0: t.c0,
            inclusive: t.inclusive,
            step: t.step,
            param_index: t.param_index,
        })
        .collect()
}

/// The shape of the candidate table — which targets have candidate
/// loops, and at which parameter positions — which is all a caller's
/// folded contributions depend on; the frame constants only matter to
/// the final proof.
pub(crate) fn candidate_shape(candidates: &BTreeMap<MethodRef, Vec<TripCandidate>>) -> Fp {
    let mut h = StructHasher::new();
    h.tag(0x53);
    h.u64(candidates.len() as u64);
    for (target, cands) in candidates {
        h.member(target);
        h.u64(cands.len() as u64);
        for cand in cands {
            h.u64(cand.param_index as u64);
        }
    }
    h.finish()
}

/// Per candidate method, per candidate loop, the folded argument of
/// every call site with its span; `None` poisons the method (a
/// non-constant site leaves the limit open).
type SiteList = Vec<Vec<(Span, i64)>>;

/// Folds one caller's call-site contributions into `sites`.
fn fold_sites(
    contribs: &[CallContribution],
    map: &NodeMap,
    candidates: &BTreeMap<MethodRef, Vec<TripCandidate>>,
    sites: &mut BTreeMap<MethodRef, Option<SiteList>>,
) {
    for contrib in contribs {
        let n_cands = candidates[&contrib.target].len();
        let span = map.expr(contrib.expr_index as usize).1;
        let entry = sites
            .entry(contrib.target.clone())
            .or_insert_with(|| Some(vec![Vec::new(); n_cands]));
        match (entry.as_mut(), &contrib.folded) {
            (Some(acc), Some(vals)) => {
                for (slot, v) in acc.iter_mut().zip(vals) {
                    slot.push((span, *v));
                }
            }
            // A non-constant site (or an already-poisoned method)
            // leaves the limit open.
            _ => *entry = None,
        }
    }
}

/// Turns the folded call sites into trip proofs and their evidence.
fn prove_from_sites(
    program: &Program,
    candidates: &BTreeMap<MethodRef, Vec<TripCandidate>>,
    sites: &BTreeMap<MethodRef, Option<SiteList>>,
    report: &mut SummaryReport,
) {
    for (mref, cands) in candidates {
        let Some(Some(per_cand)) = sites.get(mref) else {
            continue;
        };
        for (c, site_list) in cands.iter().zip(per_cand) {
            let Some(limit) = site_list.iter().map(|&(_, v)| v).max() else {
                continue;
            };
            let trips = trips_for(c, limit);
            report.call_proved_bounds.insert(c.stmt_id, trips);
            let loop_span = loop_span_of(program, mref, c.stmt_id);
            report.evidence.push(Evidence::LoopBound {
                verdict: Verdict::Cleared,
                method: mref.to_string(),
                loop_span,
                derivation: BoundDerivation::CallSites {
                    c0: c.c0,
                    step: c.step,
                    inclusive: c.inclusive,
                    param: c.param_index,
                    sites: site_list.iter().map(|&(sp, v)| (sp.into(), v)).collect(),
                    trips,
                },
            });
        }
    }
}

/// Span-free parameter-bounded loop frame: [`TripCandidate`] with the
/// statement identified by pre-order index instead of node id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct TripCandCore {
    pub(crate) stmt_index: u32,
    pub(crate) c0: i64,
    pub(crate) inclusive: bool,
    pub(crate) step: i64,
    pub(crate) param_index: usize,
}

/// Matches every statement of one method against the parameter-bounded
/// loop frame — pure in the method body (keyed by method fingerprint).
pub(crate) fn compute_trip_cands(decl: &MethodDecl, map: &NodeMap) -> Vec<TripCandCore> {
    let mut found: Vec<TripCandCore> = Vec::new();
    walk_stmts(&decl.body, &mut |stmt| {
        if let Some(c) = trip_frame(decl, stmt) {
            found.push(TripCandCore {
                stmt_index: idx32(map.stmt_index(c.stmt_id).expect("loop stmt in body")),
                c0: c.c0,
                inclusive: c.inclusive,
                step: c.step,
                param_index: c.param_index,
            });
        }
    });
    found
}

/// One resolved call site of a caller: the target method, the call
/// expression's pre-order index, and the folded constant argument per
/// candidate loop of the target (`None` when some argument did not
/// fold — the target's limit stays open).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CallContribution {
    pub(crate) target: MethodRef,
    pub(crate) expr_index: u32,
    pub(crate) folded: Option<Vec<i64>>,
}

/// Folds one caller's static call sites against the candidate table —
/// pure in the caller body, the signature table (dispatch), and the
/// candidate shape.
pub(crate) fn compute_contributions(
    program: &Program,
    table: &ClassTable,
    decl: &MethodDecl,
    caller: &MethodRef,
    candidates: &BTreeMap<MethodRef, Vec<TripCandidate>>,
    map: &NodeMap,
) -> Vec<CallContribution> {
    let mut out: Vec<CallContribution> = Vec::new();
    walk_exprs(&decl.body, &mut |e| {
        let (target, args) = match &e.kind {
            ExprKind::Call {
                receiver,
                method,
                args,
            } => match resolve_call(
                program,
                table,
                caller,
                Some(decl),
                receiver.as_deref(),
                method,
            ) {
                Some(CallTarget::User(m)) => (m, args),
                _ => return,
            },
            ExprKind::NewObject { class, args } => (MethodRef::ctor(class, args.len()), args),
            _ => return,
        };
        let Some(cands) = candidates.get(&target) else {
            return;
        };
        let folded: Option<Vec<i64>> = cands
            .iter()
            .map(|c| args.get(c.param_index).and_then(fold_const))
            .collect();
        out.push(CallContribution {
            target,
            expr_index: idx32(map.expr_index(e.id).expect("call expr in body")),
            folded,
        });
    });
    out
}

/// Finds the source span of a loop statement by node id.
fn loop_span_of(
    program: &Program,
    mref: &MethodRef,
    stmt_id: NodeId,
) -> crate::evidence::SpanRef {
    let mut span = Span::default();
    if let Some((_, decl)) = decl_of(program, mref) {
        walk_stmts(&decl.body, &mut |s: &Stmt| {
            if s.id == stmt_id {
                span = s.span;
            }
        });
    }
    span.into()
}

/// Emits R2 loop-bound evidence: an interval-cleared entry per
/// flow-proved loop and an unproved finding per remaining incalculable
/// `for` loop — exactly the set the R2 rule reports.
fn loop_bound_evidence(
    program: &Program,
    interval_proved: &BTreeMap<NodeId, u64>,
    report: &mut SummaryReport,
) {
    let mut maps = Maps::new(None);
    for (_, decl, mref) in crate::each_method(program) {
        let Some(map) = maps.get(program, &mref) else {
            continue;
        };
        let cores = compute_loop_ev(decl, &mref, interval_proved, map);
        if !cores.is_empty() {
            materialize_loop_ev(&mref.to_string(), map, &cores, &mut report.evidence);
        }
    }
}

/// [`loop_bound_evidence`] over the carried cores: a method re-runs
/// when its interval key changed (its body, or its class's field
/// lengths, from which the interval proofs inside it follow).
fn loop_evidence_carried(
    interval_proved: &BTreeMap<NodeId, u64>,
    report: &mut SummaryReport,
    state: &mut TailState,
    pass: &mut Pass,
) {
    for &i in &state.order {
        let slot = &mut state.slots[i];
        let ((_, decl), map) = (pass.decls[i], pass.maps[i]);
        let cause = pass
            .key_cause(i)
            .or_else(|| (pass.own[i] & IKEY != 0).then_some(TailCause::MethodKey));
        if pass.note(i, cause) {
            slot.loop_ev = compute_loop_ev(decl, &slot.mref, interval_proved, map);
        }
        materialize_loop_ev(&slot.label, map, &slot.loop_ev, &mut report.evidence);
    }
}

/// Renders one method's R2 cores as evidence.
fn materialize_loop_ev(
    method: &str,
    map: &NodeMap,
    cores: &[LoopEvCore],
    evidence: &mut Vec<Evidence>,
) {
    for core in cores {
        let loop_span = map.stmt(core.stmt_index as usize).1.into();
        evidence.push(Evidence::LoopBound {
            verdict: if core.proved.is_some() {
                Verdict::Cleared
            } else {
                Verdict::Finding
            },
            method: method.to_string(),
            loop_span,
            derivation: match core.proved {
                Some(trips) => BoundDerivation::Interval { trips },
                None => BoundDerivation::Unproved {
                    obstruction: core.obstruction.clone().unwrap_or_default(),
                },
            },
        });
    }
}

/// Span-free R2 evidence for one loop: interval-proved trips or the
/// obstruction keeping the bound incalculable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct LoopEvCore {
    pub(crate) stmt_index: u32,
    pub(crate) proved: Option<u64>,
    pub(crate) obstruction: Option<String>,
}

/// Classifies one method's loops against the interval proofs: pure in
/// its body and the proofs inside it.
pub(crate) fn compute_loop_ev(
    decl: &MethodDecl,
    mref: &MethodRef,
    interval_proved: &BTreeMap<NodeId, u64>,
    map: &NodeMap,
) -> Vec<LoopEvCore> {
    let mut out: Vec<LoopEvCore> = Vec::new();
    for info in loops::analyze_method(decl, mref) {
        if let Some(&trips) = interval_proved.get(&info.id) {
            out.push(LoopEvCore {
                stmt_index: idx32(map.stmt_index(info.id).expect("loop stmt in body")),
                proved: Some(trips),
                obstruction: None,
            });
        } else if let Some(BoundStatus::NotCalculable { reason }) = info.bound {
            out.push(LoopEvCore {
                stmt_index: idx32(map.stmt_index(info.id).expect("loop stmt in body")),
                proved: None,
                obstruction: Some(reason),
            });
        }
    }
    out
}

/// The methods a WCET bound of `mref` (declared by `decl` in `class`)
/// reads: its call-graph callees, and for a constructor the calls of
/// the field initializers it pays for.
pub(crate) fn wcet_callees(
    graph: &CallGraph,
    table: &ClassTable,
    class: &ClassDecl,
    decl: &MethodDecl,
    mref: &MethodRef,
) -> Vec<MethodRef> {
    let mut callees: BTreeSet<MethodRef> = graph.callees(mref).cloned().collect();
    if mref.is_ctor {
        callees.extend(crate::callgraph::init_callees(table, class, decl));
    }
    callees.into_iter().collect()
}

/// Per-method WCET bounds over the carried ones: the methods whose own
/// inputs changed (key, interval key, call-site-proved trips) and the
/// methods that read their bounds, transitively, form a cone; its
/// call-graph components are recomputed bottom-up, each only when it
/// holds a changed method or a callee whose bound came out different —
/// the early cutoff. Every other bound is carried.
fn wcet_carried(
    program: &Program,
    table: &ClassTable,
    graph: &CallGraph,
    merged: &BTreeMap<NodeId, u64>,
    state: &mut TailState,
    pass: &mut Pass,
) -> BTreeMap<MethodRef, Option<u64>> {
    // Only a method whose key changed can read other methods now.
    if pass.all.is_some() {
        state.callers.clear();
    }
    for &i in &pass.edited {
        let (class, decl) = pass.decls[i];
        let slot = &mut state.slots[i];
        let callees = wcet_callees(graph, table, class, decl, &slot.mref);
        for c in &slot.callees {
            if let Some(set) = state.callers.get_mut(c) {
                set.remove(&slot.mref);
                if set.is_empty() {
                    state.callers.remove(c);
                }
            }
        }
        for c in &callees {
            state
                .callers
                .entry(c.clone())
                .or_default()
                .insert(slot.mref.clone());
        }
        slot.callees = callees;
    }
    let n = state.slots.len();
    let own_cause = |pass: &Pass, i: usize| {
        pass.key_cause(i)
            .or_else(|| (pass.own[i] & IKEY != 0).then_some(TailCause::MethodKey))
            .or_else(|| (pass.own[i] & TRIPS != 0).then_some(TailCause::Summary))
    };
    let mut dirty = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    for (i, d) in dirty.iter_mut().enumerate() {
        if own_cause(pass, i).is_some() {
            *d = true;
            stack.push(i);
        }
    }
    // The cone: the changed methods and every transitive reader.
    let mut in_cone = vec![false; n];
    let mut cone: Vec<usize> = Vec::new();
    while let Some(i) = stack.pop() {
        if std::mem::replace(&mut in_cone[i], true) {
            continue;
        }
        cone.push(i);
        for c in state.callers.get(&state.slots[i].mref).into_iter().flatten() {
            stack.extend(state.slot_of(c).filter(|&j| !in_cone[j]));
        }
    }
    cone.sort_unstable();
    let succ: Vec<Vec<usize>> = cone
        .iter()
        .map(|&i| {
            state.slots[i]
                .callees
                .iter()
                .filter_map(|c| cone.binary_search(&state.slot_of(c)?).ok())
                .collect()
        })
        .collect();
    let mut changed = vec![false; n];
    let mut rerun = 0u64;
    // Components come callees first.
    for scc in crate::callgraph::tarjan(cone.len(), &succ) {
        let needed = scc
            .iter()
            .any(|&p| dirty[cone[p]] || succ[p].iter().any(|&q| changed[cone[q]]));
        if !needed {
            continue;
        }
        let targets: Vec<MethodRef> = scc.iter().map(|&p| state.slots[cone[p]].mref.clone()).collect();
        let slots = &state.slots;
        let seed = |m: &MethodRef| -> Option<Option<u64>> {
            if targets.contains(m) {
                return None;
            }
            let j = slots.binary_search_by(|s| s.mref.cmp(m)).ok()?;
            Some(slots[j].wcet)
        };
        let values = bounds::bounds_of(program, table, merged, &targets, &seed);
        for (&p, value) in scc.iter().zip(values) {
            let i = cone[p];
            let cause = own_cause(pass, i).unwrap_or(TailCause::Summary);
            pass.note(i, Some(cause));
            rerun += 1;
            if state.slots[i].wcet != value {
                changed[i] = true;
                state.slots[i].wcet = value;
            }
        }
    }
    pass.hit(n as u64 - rerun);
    state.slots.iter().map(|s| (s.mref.clone(), s.wcet)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{callgraph, frontend};

    fn run(src: &str) -> SummaryReport {
        let (p, t) = frontend(src).unwrap();
        let g = callgraph::build(&p, &t);
        analyze(&p, &t, &g)
    }

    #[test]
    fn summaries_exist_for_every_method() {
        let r = run("class A { A() {} void m() { n(); } void n() {} }");
        assert_eq!(r.methods.len(), 3);
        assert!(r.sccs >= 3);
        assert!(r.fixpoint_iterations >= 3);
    }

    #[test]
    fn call_site_arguments_prove_parameter_bounded_loops() {
        let r = run(
            "class M {
                 int sumTo(int n) {
                     int s = 0;
                     for (int i = 0; i < n; i = i + 1) { s = s + 1; }
                     return s;
                 }
                 int a() { return sumTo(10); }
                 int b() { return sumTo(20); }
             }",
        );
        // The syntactic/interval tiers cannot bound `sumTo` (open
        // parameter limit); the call-site proof can, at the worst case
        // over both sites.
        assert_eq!(
            r.call_proved_bounds.values().copied().collect::<Vec<_>>(),
            [20]
        );
        let wcet = r.wcet[&MethodRef::method("M", "sumTo")];
        assert!(wcet.is_some(), "summary-proved bound must yield a WCET");
        let plain = crate::bounds::instruction_bounds(
            &frontend("class M { int sumTo(int n) { int s = 0; for (int i = 0; i < n; i = i + 1) { s = s + 1; } return s; } int a() { return sumTo(10); } int b() { return sumTo(20); } }").unwrap().0,
            &frontend("class M { int sumTo(int n) { int s = 0; for (int i = 0; i < n; i = i + 1) { s = s + 1; } return s; } int a() { return sumTo(10); } int b() { return sumTo(20); } }").unwrap().1,
        );
        assert_eq!(plain[&MethodRef::method("M", "sumTo")], None);
    }

    #[test]
    fn non_constant_call_site_leaves_the_loop_unproved() {
        let r = run(
            "class M {
                 int sumTo(int n) {
                     int s = 0;
                     for (int i = 0; i < n; i = i + 1) { s = s + 1; }
                     return s;
                 }
                 int a() { return sumTo(10); }
                 int b(int k) { return sumTo(k); }
             }",
        );
        assert!(r.call_proved_bounds.is_empty());
    }

    #[test]
    fn block_writing_shared_state_is_impure() {
        let r = run(
            "class Acc { public int total; Acc() { total = 0; } }
             class TapA extends ASR {
                 private Acc acc;
                 TapA(Acc shared) { acc = shared; }
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
                     TapA a = new TapA(shared);
                     TapB b = new TapB(shared);
                 }
             }",
        );
        let found: Vec<(&str, String)> = r
            .impure_blocks
            .iter()
            .map(|f| (f.block.as_str(), f.field.to_string()))
            .collect();
        assert_eq!(
            found,
            [
                ("TapA", "Acc.total".to_string()),
                ("TapB", "Acc.total".to_string())
            ]
        );
    }

    #[test]
    fn block_exclusively_owning_injected_state_is_pure() {
        // One block holds the accumulator alone: it is effectively a
        // delay element, even though a constructor elsewhere created it.
        let r = run(
            "class Acc { public int total; Acc() { total = 0; } }
             class Tap extends ASR {
                 private Acc acc;
                 Tap(Acc shared) { acc = shared; }
                 public void run() { acc.total = acc.total + read(0); }
             }
             class Wiring {
                 Wiring() {
                     Acc one = new Acc();
                     Tap t = new Tap(one);
                 }
             }",
        );
        assert!(r.impure_blocks.is_empty(), "{:?}", r.impure_blocks);
    }

    #[test]
    fn block_writing_its_own_state_is_not_flagged() {
        let r = run(
            "class Filter extends ASR {
                 private int prev;
                 private int[] scratch;
                 Filter() { prev = 0; scratch = new int[4]; }
                 public void run() {
                     int v = read(0);
                     scratch[0] = v;
                     write(0, v + prev);
                     prev = v;
                 }
             }",
        );
        assert!(
            r.impure_blocks.is_empty(),
            "own delay elements are owned: {:?}",
            r.impure_blocks
        );
    }

    #[test]
    fn getter_of_mutable_field_is_an_alias_leak() {
        let r = run(
            "class Shared { public int v; Shared() { v = 0; } }
             class Registry {
                 private Shared slot;
                 Registry() { slot = new Shared(); }
                 Shared lookup() { return slot; }
                 int peek() { return slot.v; }
             }",
        );
        assert_eq!(r.alias_leaks.len(), 1);
        let l = &r.alias_leaks[0];
        assert_eq!((l.class.as_str(), l.method.as_str()), ("Registry", "lookup"));
        assert_eq!(l.field, "slot");
        assert!(l.via_return);
    }

    #[test]
    fn returning_a_fresh_copy_is_not_a_leak() {
        let r = run(
            "class Maker {
                 private int seed;
                 Maker() { seed = 3; }
                 int[] make() {
                     int[] out = new int[4];
                     out[0] = seed;
                     return out;
                 }
             }",
        );
        assert!(r.alias_leaks.is_empty(), "{:?}", r.alias_leaks);
    }
}
