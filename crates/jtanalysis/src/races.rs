//! Shared-state race candidates, refined by execution phase and by
//! alias analysis.
//!
//! The original `threads` pass flags thread *constructs*; it has no
//! notion of which state is actually contested. This module builds the
//! missing picture in three precision tiers so each improvement is
//! measurable:
//!
//! * [`RaceReport::syntactic`] — the heuristic tier: any field written
//!   by code reachable from some `Thread` subclass `run` and also
//!   accessed anywhere else. This is what a single-walk checker can do,
//!   and it over-reports.
//! * [`RaceReport::refined`] — the lockset-style tier: a field is a
//!   race candidate only if, *excluding accesses that execute during
//!   the single-threaded initialization phase* (constructors, field
//!   initializers, and methods reachable only from them), it is
//!   accessed from the `run` phase of **two or more distinct** thread
//!   classes with at least one write. Accesses dominated by the init
//!   phase — e.g. a constructor zeroing a field later read by one
//!   thread — cannot race, because `start()` establishes a
//!   happens-before edge from everything the constructing thread did.
//! * [`RaceReport::alias_aware`] — the points-to tier: the refined tier
//!   still names fields by *declaring class*, conflating every instance
//!   of that class. Using [`crate::pointsto`], each thread-phase access
//!   is attributed to the concrete abstract object(s) holding the
//!   field, and a race exists only when **two or more thread
//!   instances** can reach the *same* object with at least one write.
//!   This clears refined candidates whose objects never escape their
//!   constructing thread ([`RaceReport::alias_cleared`]) and keeps races
//!   on objects shared through aliases (getters, registries) that the
//!   name-based tier attributes to the wrong granularity. Accesses the
//!   points-to analysis cannot resolve fall back to the refined verdict
//!   — the tier only ever *refines* with proof in hand.

use crate::callgraph::CallGraph;
use crate::db::TailCause;
use crate::demand::{idx32, Maps, Pass, TailState, GONE, REACH};
use crate::evidence::{AccessRef, ChainLink, Evidence, SiteRef, ThreadWitness, Verdict};
use crate::fingerprint::NodeMap;
use crate::pointsto::{self, resolve_call, CallTarget, ObjId, PointsTo, PtChange, PtDelta};
use crate::MethodRef;
use jtlang::ast::{
    walk_expr, walk_stmts, ClassDecl, Expr, ExprKind, MethodDecl, NodeId, Program, StmtKind, Type,
};
use jtlang::resolve::ClassTable;
use jtlang::token::Span;
use jtlang::types::type_of_expr;
use std::collections::{BTreeMap, BTreeSet};

/// A field, identified by the class that *declares* it.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct FieldId {
    /// Declaring class.
    pub class: String,
    /// Field name.
    pub field: String,
}

impl std::fmt::Display for FieldId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}.{}", self.class, self.field)
    }
}

/// One field access with its execution-phase attribution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Access {
    /// The field accessed.
    pub field: FieldId,
    /// Span of the accessing expression.
    pub span: Span,
    /// Method performing the access.
    pub method: MethodRef,
    /// True for assignment targets.
    pub is_write: bool,
    /// Thread classes whose `run` can reach this access (empty = not
    /// reachable from any thread).
    pub thread_roots: BTreeSet<String>,
    /// True when the access is reachable from a constructor or field
    /// initializer (the single-threaded init phase).
    pub in_init_phase: bool,
}

/// A confirmed (refined) race candidate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Race {
    /// The contested field.
    pub field: FieldId,
    /// Distinct thread classes accessing it outside the init phase.
    pub thread_classes: BTreeSet<String>,
    /// Spans of the thread-phase accesses, in source order.
    pub access_spans: Vec<Span>,
    /// True when at least one thread-phase access is a write (always
    /// true for reported races).
    pub has_write: bool,
}

/// An alias-aware race: a concrete contested object, not just a field
/// name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AliasRace {
    /// The contested field.
    pub field: FieldId,
    /// `(allocation span, class)` of the contested object; `None` when
    /// the points-to analysis could not resolve every access and the
    /// refined verdict was kept conservatively.
    pub object: Option<(Span, String)>,
    /// Thread classes whose instances reach the object.
    pub thread_classes: BTreeSet<String>,
    /// Number of distinct thread instances that can reach the object.
    pub instances: usize,
    /// Spans of the contending accesses, in source order.
    pub access_spans: Vec<Span>,
    /// True when at least one contending access is a write.
    pub has_write: bool,
}

/// Result of [`analyze`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RaceReport {
    /// Heuristic-tier candidates (over-approximate).
    pub syntactic: Vec<FieldId>,
    /// Phase-refined candidates.
    pub refined: Vec<Race>,
    /// Heuristic candidates discharged by the refinement — cleared
    /// false positives.
    pub cleared: Vec<FieldId>,
    /// Alias-aware candidates (the real findings): per contested
    /// object, with unresolvable fields inheriting the refined verdict.
    pub alias_aware: Vec<AliasRace>,
    /// Refined candidates discharged by the alias tier: the field's
    /// objects are each reachable from at most one thread instance.
    pub alias_cleared: Vec<FieldId>,
    /// Every attributed field access (for `jtlint -v` style dumps).
    pub accesses: Vec<Access>,
    /// Proof-carrying evidence for every alias-tier verdict: a finding
    /// entry (with thread witnesses and heap paths) per alias race and
    /// a cleared entry per candidate the tier discharged.
    pub evidence: Vec<Evidence>,
}

/// Builds all three candidate tiers, computing the points-to relation
/// internally.
pub fn analyze(program: &Program, table: &ClassTable, graph: &CallGraph) -> RaceReport {
    let pt = pointsto::analyze(program, table);
    analyze_with_pointsto(program, table, graph, &pt)
}

/// Builds all three candidate tiers against an already-computed
/// points-to relation (the summary engine shares one).
pub fn analyze_with_pointsto(
    program: &Program,
    table: &ClassTable,
    graph: &CallGraph,
    pt: &PointsTo,
) -> RaceReport {
    analyze_cold(program, table, graph, pt).0
}

/// [`analyze_with_pointsto`], also returning every field's alias-tier
/// core.
pub(crate) fn analyze_cold(
    program: &Program,
    table: &ClassTable,
    graph: &CallGraph,
    pt: &PointsTo,
) -> (RaceReport, BTreeMap<FieldId, FieldCore>) {
    // Thread roots: the `run` methods of Thread subclasses. Each root
    // taints the methods its run can reach.
    let reach_by_root: BTreeMap<String, BTreeSet<MethodRef>> = thread_classes(program, table)
        .map(|c| {
            let root = MethodRef::method(&c.name, "run");
            (c.name.clone(), graph.reachable_from([&root]))
        })
        .collect();
    // Init phase: everything reachable from constructors.
    let init_reach = graph.reachable_from(ctor_roots(program).iter());

    // Per access: the abstract objects holding the accessed field
    // (`None` = unresolvable), beside the access.
    let mut maps = Maps::new(None);
    let mut accesses: Vec<Access> = Vec::new();
    let mut holders: Vec<Option<BTreeSet<ObjId>>> = Vec::new();
    for (class, decl, mref) in crate::each_method(program) {
        let thread_roots = attribution(&reach_by_root, &mref);
        let in_init_phase = mref.is_ctor || init_reach.contains(&mref);
        let Some(map) = maps.get(program, &mref) else {
            continue;
        };
        for core in compute_access_cores(program, table, class, decl, &mref, pt, map, None) {
            let (_, span) = map.expr(core.expr_index as usize);
            accesses.push(Access {
                field: core.field,
                span,
                method: mref.clone(),
                is_write: core.is_write,
                thread_roots: thread_roots.clone(),
                in_init_phase,
            });
            holders.push(core.holders);
        }
    }
    let pairs = accesses.into_iter().zip(holders.iter().map(Option::as_ref)).collect();
    field_verdicts(pairs, reach_by_root.keys(), pt, |_, _, _, cold| cold())
}

/// The half of the race pass the batch and carried drivers share: sorts
/// the access pairs into source order, takes each field's alias-tier
/// core from `core_of` — handed the field, its group, the sorted
/// accesses and the cold computation of the core — and materializes it.
/// Returns the report and the core of every field.
#[allow(clippy::type_complexity)]
fn field_verdicts<'r>(
    pairs: Vec<(Access, Option<&BTreeSet<ObjId>>)>,
    roots: impl Iterator<Item = &'r String>,
    pt: &PointsTo,
    mut core_of: impl FnMut(
        &FieldId,
        &[usize],
        &[Access],
        &mut dyn FnMut() -> FieldCore,
    ) -> FieldCore,
) -> (RaceReport, BTreeMap<FieldId, FieldCore>) {
    let (accesses, holders, by_field) = sorted_groups(pairs);
    let thread_sites = thread_sites(roots, pt);
    let mut reach_cache: BTreeMap<ObjId, BTreeSet<ObjId>> = BTreeMap::new();
    let mut reaches = |tau: ObjId, o: ObjId| -> bool {
        reach_cache
            .entry(tau)
            .or_insert_with(|| pt.reachable(tau))
            .contains(&o)
    };
    let mut report = RaceReport::default();
    let mut cores = Vec::with_capacity(by_field.len());
    for (field, idxs) in by_field {
        let core = core_of(&field, &idxs, &accesses, &mut || {
            field_verdict_core(&idxs, &accesses, &holders, &thread_sites, &mut reaches)
        });
        materialize_field(&field, &idxs, &core, &accesses, pt, &mut report);
        cores.push((field, core));
    }
    (finish(report, accesses), cores.into_iter().collect())
}

/// [`analyze_with_pointsto`] over the carried tail `state`: the thread
/// and init reach are walked again only when a method they hold changed
/// its key; a method's access list re-runs when its key, its thread or
/// init attribution, or the points-to slice it read
/// ([`AccessReads`]) changed; a field's alias verdict re-runs when an
/// access of its group re-ran, or — for a group with a thread-phase
/// access — when the relation changed.
pub(crate) fn analyze_carried(
    program: &Program,
    table: &ClassTable,
    graph: &CallGraph,
    pt: &PointsTo,
    state: &mut TailState,
    pass: &mut Pass,
) -> RaceReport {
    attribute(program, table, graph, state, pass);
    if let PtChange::Delta(PtDelta {
        remap: Some(remap), ..
    }) = pass.pt
    {
        state.remap_objects(remap, pass);
    }
    let mut dirty: BTreeSet<FieldId> = BTreeSet::new();
    for (i, slot) in state.slots.iter_mut().enumerate() {
        let cause = pass
            .key_cause(i)
            .or_else(|| (pass.own[i] & REACH != 0).then_some(TailCause::Reach))
            .or_else(|| {
                let stale = match pass.pt {
                    PtChange::All => true,
                    PtChange::Unchanged => false,
                    PtChange::Delta(d) => pass.own[i] & GONE != 0 || slot.reads.stale(&slot.mref, d),
                };
                stale.then_some(TailCause::PtSlice)
            });
        if pass.note(i, cause) {
            let (class, decl) = pass.decls[i];
            let mut reads = AccessReads::default();
            let cores = compute_access_cores(
                program,
                table,
                class,
                decl,
                &slot.mref,
                pt,
                pass.maps[i],
                Some(&mut reads),
            );
            dirty.extend(slot.access.iter().chain(&cores).map(|c| c.field.clone()));
            (slot.access, slot.reads) = (cores, reads);
        }
    }
    let mut pairs: Vec<(Access, Option<&BTreeSet<ObjId>>)> = Vec::new();
    for &i in &state.order {
        let (slot, map) = (&state.slots[i], pass.maps[i]);
        for core in &slot.access {
            let access = Access {
                field: core.field.clone(),
                span: map.expr(core.expr_index as usize).1,
                method: slot.mref.clone(),
                is_write: core.is_write,
                thread_roots: slot.thread_roots.clone(),
                in_init_phase: slot.in_init,
            };
            pairs.push((access, core.holders.as_ref()));
        }
    }
    let pt_changed = !matches!(pass.pt, PtChange::Unchanged);
    let mut old = std::mem::take(&mut state.fields);
    let roots = state.thread_reach.keys();
    let (report, fields) = field_verdicts(pairs, roots, pt, |field, idxs, accesses, cold| {
        let threaded = idxs.iter().any(|&i| {
            let a = &accesses[i];
            !a.thread_roots.is_empty() && !a.in_init_phase
        });
        let own = pass.all.is_some() || dirty.contains(field);
        let rerun = own || threaded && pt_changed;
        match old.remove(field) {
            Some(core) if !rerun => {
                pass.hit(1);
                core
            }
            carried => {
                if carried.is_some() && !own {
                    pass.note_other(Some(TailCause::PtSlice));
                } else {
                    pass.miss();
                }
                cold()
            }
        }
    });
    state.fields = fields;
    report
}

/// Brings the carried thread and init reach to this revision and
/// re-attributes the methods whose membership changed, flagging
/// `REACH` on those whose attribution did.
fn attribute(
    program: &Program,
    table: &ClassTable,
    graph: &CallGraph,
    state: &mut TailState,
    pass: &mut Pass,
) {
    let all = pass.all.is_some();
    let mut moved: BTreeSet<MethodRef> = BTreeSet::new();
    let mut old = std::mem::take(&mut state.thread_reach);
    for class in thread_classes(program, table) {
        let reach = match old.remove(&class.name) {
            Some(r) if !all && !state.touches(&pass.edited, &r) => r,
            prev => {
                let root = MethodRef::method(&class.name, "run");
                let r = graph.reachable_from([&root]);
                match prev {
                    Some(p) => moved.extend(p.symmetric_difference(&r).cloned()),
                    None => moved.extend(r.iter().cloned()),
                }
                r
            }
        };
        state.thread_reach.insert(class.name.clone(), reach);
    }
    moved.extend(old.into_values().flatten());
    if all || state.touches(&pass.edited, &state.init_reach) {
        let r = graph.reachable_from(ctor_roots(program).iter());
        moved.extend(state.init_reach.symmetric_difference(&r).cloned());
        state.init_reach = r;
    }
    let slots: Vec<usize> = if all {
        (0..state.slots.len()).collect()
    } else {
        moved.iter().filter_map(|m| state.slot_of(m)).collect()
    };
    for i in slots {
        let m = &state.slots[i].mref;
        let roots = attribution(&state.thread_reach, m);
        let in_init = m.is_ctor || state.init_reach.contains(m);
        let slot = &mut state.slots[i];
        if roots != slot.thread_roots || in_init != slot.in_init {
            pass.own[i] |= REACH;
            (slot.thread_roots, slot.in_init) = (roots, in_init);
        }
    }
}

/// The thread classes: subclasses of `Thread` that declare `run`.
pub(crate) fn thread_classes<'p>(
    program: &'p Program,
    table: &'p ClassTable,
) -> impl Iterator<Item = &'p ClassDecl> {
    program
        .classes
        .iter()
        .filter(move |c| table.is_subclass_of(&c.name, "Thread") && c.method("run").is_some())
}

/// Every declared constructor: the roots of the init phase.
pub(crate) fn ctor_roots(program: &Program) -> Vec<MethodRef> {
    program
        .classes
        .iter()
        .flat_map(|c| {
            c.ctors
                .iter()
                .map(|d| MethodRef::ctor(&c.name, d.params.len()))
        })
        .collect()
}

/// The thread classes whose `run` reaches `m`.
pub(crate) fn attribution(reach_by_root: &BTreeMap<String, BTreeSet<MethodRef>>, m: &MethodRef) -> BTreeSet<String> {
    reach_by_root
        .iter()
        .filter(|(_, reach)| reach.contains(m))
        .map(|(root, _)| root.clone())
        .collect()
}

/// Thread instances per thread class: the points-to objects of the
/// class (or a subclass).
fn thread_sites<'r>(
    roots: impl Iterator<Item = &'r String>,
    pt: &PointsTo,
) -> BTreeMap<&'r String, BTreeSet<ObjId>> {
    roots.map(|root| (root, pt.instances_of(root))).collect()
}

/// Sorts the accesses into stable source order (moving, not cloning,
/// their holder sets along) and groups them by field (indices into the
/// sorted vectors).
#[allow(clippy::type_complexity)]
fn sorted_groups<H>(
    mut pairs: Vec<(Access, H)>,
) -> (Vec<Access>, Vec<H>, BTreeMap<FieldId, Vec<usize>>) {
    pairs.sort_by(|(a, _), (b, _)| {
        (&a.field, a.span.start, a.span.end).cmp(&(&b.field, b.span.start, b.span.end))
    });
    let (accesses, holders): (Vec<Access>, Vec<H>) = pairs.into_iter().unzip();
    let mut by_field: BTreeMap<FieldId, Vec<usize>> = BTreeMap::new();
    for (i, a) in accesses.iter().enumerate() {
        match by_field.get_mut(&a.field) {
            Some(idxs) => idxs.push(i),
            None => {
                by_field.insert(a.field.clone(), vec![i]);
            }
        }
    }
    (accesses, holders, by_field)
}

/// Fills the heuristic tier's cleared list and hands the report the
/// access list.
fn finish(mut report: RaceReport, accesses: Vec<Access>) -> RaceReport {
    report.cleared = report
        .syntactic
        .iter()
        .filter(|f| report.refined.iter().all(|r| &r.field != *f))
        .cloned()
        .collect();
    report.accesses = accesses;
    report
}

/// Span-free core of one attributed field access: the race tiers'
/// phase-1 unit, carried per method by the analysis tail
/// ([`crate::demand`]). The expression is identified by its pre-order
/// index, the holders by canonical points-to object ids — both stable
/// across re-parses while the method, the signature table and the
/// points-to slice it read ([`AccessReads`]) stand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct AccessCore {
    pub(crate) field: FieldId,
    pub(crate) expr_index: u32,
    pub(crate) is_write: bool,
    /// Canonical object ids holding the field; `None` = unresolvable.
    pub(crate) holders: Option<BTreeSet<ObjId>>,
}

/// The part of the points-to relation one method's access list reads
/// beyond the method's own variables and its class's instance set: the
/// return sets of the methods its holder expressions call (with their
/// classes' instance sets) and the heap fields they load. The tail
/// re-runs the list when a [`PtDelta`] names any of them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct AccessReads {
    callees: Vec<MethodRef>,
    fields: Vec<String>,
}

impl AccessReads {
    /// Records what evaluating `e` in `mref` (declared by `decl`) reads.
    fn note(
        &mut self,
        program: &Program,
        table: &ClassTable,
        mref: &MethodRef,
        decl: &MethodDecl,
        e: &Expr,
    ) {
        walk_expr(e, &mut |x| match &x.kind {
            ExprKind::Var(name) | ExprKind::Field { name, .. } => self.fields.push(name.clone()),
            ExprKind::Index { .. } => self.fields.push(pointsto::ELEMS.to_string()),
            ExprKind::Call {
                receiver, method, ..
            } => {
                let target = resolve_call(program, table, mref, Some(decl), receiver.as_deref(), method);
                if let Some(CallTarget::User(c)) = target {
                    self.callees.push(c);
                }
            }
            _ => {}
        });
    }

    /// True when `d` changed a fact the access list of `mref` read.
    pub(crate) fn stale(&self, mref: &MethodRef, d: &PtDelta) -> bool {
        let method = |m: &MethodRef| d.methods.contains(m) || d.classes.contains(&m.class);
        method(mref)
            || self.callees.iter().any(method)
            || self.fields.iter().any(|f| d.fields.contains(f))
    }
}

/// Computes one method's attributed access list against `pt`, and with
/// `reads` the slice of `pt` it read.
#[allow(clippy::too_many_arguments)]
pub(crate) fn compute_access_cores(
    program: &Program,
    table: &ClassTable,
    class: &ClassDecl,
    decl: &MethodDecl,
    mref: &MethodRef,
    pt: &PointsTo,
    map: &NodeMap,
    mut reads: Option<&mut AccessReads>,
) -> Vec<AccessCore> {
    let cores = field_events(table, class, decl)
        .into_iter()
        .map(|ev| {
            let holders = match &ev.holder {
                HolderRef::ImplicitThis => pt.instances_of(&mref.class),
                HolderRef::Object(e) => {
                    if let Some(r) = reads.as_deref_mut() {
                        r.note(program, table, mref, decl, e);
                    }
                    pt.eval(program, table, mref, e)
                }
            };
            AccessCore {
                field: ev.field,
                expr_index: idx32(map.expr_index(ev.id).expect("event expr in body")),
                is_write: ev.is_write,
                holders: (!holders.is_empty()).then_some(holders),
            }
        })
        .collect();
    if let Some(r) = reads {
        r.fields.sort_unstable();
        r.fields.dedup();
        r.callees.sort_unstable();
        r.callees.dedup();
    }
    cores
}

/// The alias-tier verdict for one field, in span-free core form. The
/// cheap syntactic and refined tiers are recomputed at materialization
/// (they are trivial filters over the access group); only the
/// expensive object-attribution decisions are carried.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct FieldCore {
    /// False when some thread-phase access could not be attributed to
    /// an object every relevant root reaches — the refined verdict is
    /// then kept conservatively.
    pub(crate) resolved: bool,
    /// Contested objects (two or more reaching thread instances with a
    /// write), in ascending canonical object-id order.
    pub(crate) racy: Vec<ObjVerdictCore>,
}

/// One contested abstract object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ObjVerdictCore {
    pub(crate) object: ObjId,
    pub(crate) instances: BTreeSet<ObjId>,
    pub(crate) classes: BTreeSet<String>,
    /// Positions (into the field's span-ordered access group) of the
    /// contending accesses, in attribution order.
    pub(crate) positions: Vec<u32>,
}

/// Computes the alias-tier attribution for one field's access group:
/// pure in the group's accesses (method, attribution, kind, holders in
/// group order), the thread classes' instances and the heap, so a
/// carried core is exactly what a fresh computation produces while
/// those stand.
pub(crate) fn field_verdict_core(
    idxs: &[usize],
    accesses: &[Access],
    holder_sets: &[Option<&BTreeSet<ObjId>>],
    thread_sites: &BTreeMap<&String, BTreeSet<ObjId>>,
    reaches: &mut impl FnMut(ObjId, ObjId) -> bool,
) -> FieldCore {
    let pos_of: BTreeMap<usize, u32> = idxs
        .iter()
        .enumerate()
        .map(|(p, &i)| (i, idx32(p)))
        .collect();
    struct ObjStats {
        instances: BTreeSet<ObjId>,
        classes: BTreeSet<String>,
        positions: Vec<u32>,
        has_write: bool,
    }
    let mut per_obj: BTreeMap<ObjId, ObjStats> = BTreeMap::new();
    let mut resolved = true;
    for &i in idxs {
        let a = &accesses[i];
        if a.thread_roots.is_empty() || a.in_init_phase {
            continue;
        }
        let Some(holders) = holder_sets[i] else {
            resolved = false;
            break;
        };
        for &o in holders {
            // Which instances of the accessing thread classes can
            // reach this object? A class none of whose instances
            // reach it contributes nothing — its accesses happen on
            // other instances of the field's class. If *no* root
            // reaches the object at all (e.g. a fresh allocation in
            // the run phase, which the heap-only reachability walk
            // cannot attribute), the field is unresolvable and the
            // refined verdict is kept.
            let mut insts: BTreeSet<ObjId> = BTreeSet::new();
            let mut inst_classes: BTreeSet<String> = BTreeSet::new();
            for root in &a.thread_roots {
                let reaching: BTreeSet<ObjId> = thread_sites[root]
                    .iter()
                    .copied()
                    .filter(|&tau| reaches(tau, o))
                    .collect();
                if !reaching.is_empty() {
                    inst_classes.insert(root.clone());
                }
                insts.extend(reaching);
            }
            if insts.is_empty() {
                resolved = false;
                break;
            }
            let st = per_obj.entry(o).or_insert_with(|| ObjStats {
                instances: BTreeSet::new(),
                classes: BTreeSet::new(),
                positions: Vec::new(),
                has_write: false,
            });
            st.instances.extend(insts);
            st.classes.extend(inst_classes);
            st.positions.push(pos_of[&i]);
            st.has_write |= a.is_write;
        }
        if !resolved {
            break;
        }
    }
    let racy = if resolved {
        per_obj
            .into_iter()
            .filter(|(_, st)| st.instances.len() >= 2 && st.has_write)
            .map(|(object, st)| ObjVerdictCore {
                object,
                instances: st.instances,
                classes: st.classes,
                positions: st.positions,
            })
            .collect()
    } else {
        Vec::new()
    };
    FieldCore { resolved, racy }
}

/// Renders one field's verdicts into the report: recomputes the cheap
/// syntactic and refined tiers over current spans and expands the
/// (possibly cached) alias-tier core into findings, witnesses, and
/// evidence. Shared verbatim by the batch and demand paths.
fn materialize_field(
    field: &FieldId,
    idxs: &[usize],
    core: &FieldCore,
    accesses: &[Access],
    pt: &PointsTo,
    report: &mut RaceReport,
) {
    let site_of = |o: ObjId| -> SiteRef {
        let info = pt.object(o);
        SiteRef {
            class: info.class.clone(),
            span: info.span.into(),
        }
    };
    let access_refs = |idxs: &[usize]| -> Vec<AccessRef> {
        let mut out: Vec<AccessRef> = idxs
            .iter()
            .map(|&i| {
                let a = &accesses[i];
                AccessRef {
                    method: a.method.to_string(),
                    span: a.span.into(),
                    is_write: a.is_write,
                }
            })
            .collect();
        out.sort_by(|a, b| {
            (a.span.start, a.span.end, a.is_write).cmp(&(b.span.start, b.span.end, b.is_write))
        });
        out.dedup();
        out
    };
    let accs = || idxs.iter().map(|&i| &accesses[i]);
    // Heuristic tier: written from any thread-reachable code and
    // also touched by a different method.
    let thread_writes: Vec<&Access> = accs()
        .filter(|a| a.is_write && !a.thread_roots.is_empty())
        .collect();
    let other_touch = accs().any(|a| thread_writes.iter().all(|w| w.method != a.method));
    if !thread_writes.is_empty() && other_touch {
        report.syntactic.push(field.clone());
    }

    // Refined tier: thread-phase accesses only (init-dominated
    // accesses dropped), ≥2 distinct thread classes, ≥1 write.
    let thread_phase: Vec<usize> = idxs
        .iter()
        .copied()
        .filter(|&i| {
            let a = &accesses[i];
            !a.thread_roots.is_empty() && !a.in_init_phase
        })
        .collect();
    let mut classes: BTreeSet<String> = BTreeSet::new();
    for &i in &thread_phase {
        classes.extend(accesses[i].thread_roots.iter().cloned());
    }
    let has_write = thread_phase.iter().any(|&i| accesses[i].is_write);
    let refined_race = if classes.len() >= 2 && has_write {
        let mut access_spans: Vec<Span> = thread_phase.iter().map(|&i| accesses[i].span).collect();
        access_spans.sort_by_key(|s| (s.start, s.end));
        Some(Race {
            field: field.clone(),
            thread_classes: classes,
            access_spans,
            has_write,
        })
    } else {
        None
    };

    // Alias tier: expand the core's contested objects with current
    // spans, allocation sites, and witness heap paths.
    if core.resolved {
        for v in &core.racy {
            let info = pt.object(v.object);
            let g_idxs: Vec<usize> = v.positions.iter().map(|&p| idxs[p as usize]).collect();
            let mut spans: Vec<Span> = g_idxs.iter().map(|&i| accesses[i].span).collect();
            spans.sort_by_key(|s| (s.start, s.end));
            spans.dedup();
            // One witness per thread instance: its class and the
            // labeled heap path to the contested object.
            let witnesses: Vec<ThreadWitness> = v
                .instances
                .iter()
                .map(|&tau| ThreadWitness {
                    thread_class: pt.object(tau).class.clone(),
                    instance: site_of(tau),
                    path: pt
                        .witness_path(tau, v.object)
                        .unwrap_or_default()
                        .into_iter()
                        .map(|(f, step)| ChainLink {
                            object: site_of(step),
                            via_field: Some(f),
                        })
                        .collect(),
                })
                .collect();
            report.evidence.push(Evidence::AliasRace {
                verdict: Verdict::Finding,
                field: field.to_string(),
                object: Some(site_of(v.object)),
                witnesses,
                accesses: access_refs(&g_idxs),
            });
            report.alias_aware.push(AliasRace {
                field: field.clone(),
                object: Some((info.span, info.class.clone())),
                thread_classes: v.classes.clone(),
                instances: v.instances.len(),
                access_spans: spans,
                has_write: true,
            });
        }
        if core.racy.is_empty() {
            if let Some(race) = &refined_race {
                report.alias_cleared.push(race.field.clone());
                report.evidence.push(Evidence::AliasRace {
                    verdict: Verdict::Cleared,
                    field: race.field.to_string(),
                    object: None,
                    witnesses: Vec::new(),
                    accesses: access_refs(&thread_phase),
                });
            }
        }
    } else if let Some(race) = &refined_race {
        // Unresolvable: keep the refined verdict unchanged. The
        // evidence records the contending accesses but no witness
        // chains — `object: null` marks the conservative fallback.
        report.evidence.push(Evidence::AliasRace {
            verdict: Verdict::Finding,
            field: race.field.to_string(),
            object: None,
            witnesses: Vec::new(),
            accesses: access_refs(&thread_phase),
        });
        report.alias_aware.push(AliasRace {
            field: race.field.clone(),
            object: None,
            thread_classes: race.thread_classes.clone(),
            instances: race.thread_classes.len(),
            access_spans: race.access_spans.clone(),
            has_write: race.has_write,
        });
    }

    if let Some(race) = refined_race {
        report.refined.push(race);
    }
}

/// How a field event reaches its holding object.
#[derive(Debug)]
pub(crate) enum HolderRef<'p> {
    /// Access through the implicit `this` (`x = …` / bare `x`).
    ImplicitThis,
    /// Access through an explicit receiver expression (`o.x = …`).
    Object(&'p Expr),
}

/// One field read or write with enough context to attribute it to an
/// abstract object — the shared collection underlying the race tiers,
/// the purity footprints, and the R13 ownership check.
#[derive(Debug)]
pub(crate) struct FieldEvent<'p> {
    /// Field accessed (by declaring class).
    pub field: FieldId,
    /// Node id of the accessing expression (for pre-order indexing).
    pub id: NodeId,
    /// Span of the accessing expression.
    pub span: Span,
    /// True for assignment targets. An array-element write `a[i] = …`
    /// where `a` denotes a field counts as a write *to that field*:
    /// the element store mutates state reachable through it.
    pub is_write: bool,
    /// The expression evaluating to the holding object.
    pub holder: HolderRef<'p>,
}

/// Collects every field read/write event in one method body.
pub(crate) fn field_events<'p>(
    table: &ClassTable,
    class: &'p ClassDecl,
    decl: &'p MethodDecl,
) -> Vec<FieldEvent<'p>> {
    let mut locals: BTreeSet<&str> = decl.params.iter().map(|p| p.name.as_str()).collect();
    walk_stmts(&decl.body, &mut |stmt| {
        if let StmtKind::VarDecl { name, .. } = &stmt.kind {
            locals.insert(name.as_str());
        }
    });

    // Resolves an lvalue/rvalue expression to the field it denotes and
    // its holder.
    let resolve = |e: &'p Expr| -> Option<(FieldId, HolderRef<'p>)> {
        match &e.kind {
            ExprKind::Var(name) => {
                if locals.contains(name.as_str()) {
                    return None;
                }
                let (owner, _) = table.field_of(&class.name, name)?;
                Some((
                    FieldId {
                        class: owner.to_string(),
                        field: name.clone(),
                    },
                    HolderRef::ImplicitThis,
                ))
            }
            ExprKind::Field { object, name } => {
                let ty = type_of_expr(table, class, Some(decl), object).ok()?;
                let Type::Class(cn) = ty else { return None };
                let (owner, _) = table.field_of(&cn, name)?;
                Some((
                    FieldId {
                        class: owner.to_string(),
                        field: name.clone(),
                    },
                    HolderRef::Object(object),
                ))
            }
            _ => None,
        }
    };

    let mut out: Vec<FieldEvent<'p>> = Vec::new();
    let mut push = |e: &'p Expr, is_write: bool| {
        if let Some((field, holder)) = resolve(e) {
            out.push(FieldEvent {
                field,
                id: e.id,
                span: e.span,
                is_write,
                holder,
            });
        }
    };

    // Reads: every field-denoting expression that is not an assignment
    // target. Writes: assignment targets (compound ops also read).
    walk_stmts(&decl.body, &mut |stmt| {
        let (write_target, reads): (Option<&Expr>, Vec<&Expr>) = match &stmt.kind {
            StmtKind::Assign { target, op, value } => {
                let mut reads = vec![value];
                if *op != jtlang::ast::AssignOp::Set {
                    reads.push(target);
                }
                // An element store writes the field holding the array:
                // peel nested indexing to the underlying array
                // expression, reading the index expressions.
                match &target.kind {
                    ExprKind::Index { .. } => {
                        let mut base: &Expr = target;
                        while let ExprKind::Index { array, index } = &base.kind {
                            reads.push(index);
                            base = array;
                        }
                        (Some(base), reads)
                    }
                    _ => (Some(target), reads),
                }
            }
            _ => (None, jtlang::ast::stmt_exprs(stmt)),
        };
        if let Some(t) = write_target {
            push(t, true);
            // `o.f = …` also reads `o`.
            if let ExprKind::Field { object, .. } = &t.kind {
                read_fields(object, &mut push);
            }
        }
        for r in reads {
            read_fields(r, &mut push);
        }
    });
    out
}

/// Pushes a read access for every field-denoting node inside `expr`.
fn read_fields<'p>(expr: &'p Expr, push: &mut impl FnMut(&'p Expr, bool)) {
    jtlang::ast::walk_expr(expr, &mut |e| {
        if matches!(e.kind, ExprKind::Var(_) | ExprKind::Field { .. }) {
            push(e, false);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{callgraph, frontend};

    fn run(src: &str) -> RaceReport {
        let (p, t) = frontend(src).unwrap();
        let g = callgraph::build(&p, &t);
        analyze(&p, &t, &g)
    }

    #[test]
    fn fig8_shared_x_is_a_refined_race() {
        let r = run(jtlang::corpus::RACY_THREADS);
        let fields: Vec<String> = r.refined.iter().map(|x| x.field.to_string()).collect();
        assert_eq!(fields, ["Shared.x"]);
        let race = &r.refined[0];
        assert!(race.thread_classes.contains("WriterA"));
        assert!(race.thread_classes.contains("WriterB"));
        assert!(race.has_write);
    }

    #[test]
    fn fig8_reader_seen_is_cleared_by_refinement() {
        // `ReaderC.seen` is written by only one thread class; the
        // heuristic tier flags it, the refined tier clears it.
        let r = run(jtlang::corpus::RACY_THREADS);
        let cleared: Vec<String> = r.cleared.iter().map(|f| f.to_string()).collect();
        assert!(
            cleared.contains(&"ReaderC.seen".to_string()),
            "expected seen cleared, got {cleared:?}"
        );
        assert!(r.syntactic.iter().any(|f| f.to_string() == "ReaderC.seen"));
    }

    #[test]
    fn init_phase_writes_do_not_race() {
        // The constructor zeroes the field; only one thread later
        // writes it. Not a race.
        let r = run("class Worker extends Thread {
            private int ticks;
            Worker() { ticks = 0; }
            public void run() { ticks = ticks + 1; }
        }");
        assert!(r.refined.is_empty());
    }

    #[test]
    fn two_threads_one_field_is_a_race() {
        let r = run("class Cell { public int v; Cell() { v = 0; } }
        class W1 extends Thread {
            private Cell c;
            W1(Cell x) { c = x; }
            public void run() { c.v = 1; }
        }
        class W2 extends Thread {
            private Cell c;
            W2(Cell x) { c = x; }
            public void run() { c.v = 2; }
        }");
        assert_eq!(r.refined.len(), 1);
        assert_eq!(r.refined[0].field.to_string(), "Cell.v");
    }

    #[test]
    fn reads_only_from_threads_do_not_race() {
        let r = run("class Cell { public int v; Cell() { v = 7; } }
        class R1 extends Thread {
            private Cell c;
            public int got;
            R1(Cell x) { c = x; got = 0; }
            public void run() { got = c.v; }
        }
        class R2 extends Thread {
            private Cell c;
            public int got;
            R2(Cell x) { c = x; got = 0; }
            public void run() { got = c.v; }
        }");
        assert!(r.refined.iter().all(|race| race.field.to_string() != "Cell.v"));
    }

    #[test]
    fn no_threads_means_no_candidates() {
        let r = run(jtlang::corpus::ELEVATOR);
        assert!(r.syntactic.is_empty());
        assert!(r.refined.is_empty());
    }

    #[test]
    fn array_element_writes_count_as_field_writes() {
        // `b.data[i] = …` must register as a write to `Buf.data` in
        // every tier — the element store mutates state reachable
        // through the field.
        let r = run("class Buf { public int[] data; Buf() { data = new int[8]; } }
        class WA extends Thread {
            private Buf b;
            WA(Buf x) { b = x; }
            public void run() { b.data[0] = 1; }
        }
        class WB extends Thread {
            private Buf b;
            WB(Buf x) { b = x; }
            public void run() { b.data[1] = 2; }
        }
        class Main {
            public void demo() {
                Buf shared = new Buf();
                WA a = new WA(shared);
                WB w = new WB(shared);
                a.start();
                w.start();
            }
        }");
        assert!(r.syntactic.iter().any(|f| f.to_string() == "Buf.data"));
        assert_eq!(r.refined.len(), 1);
        assert_eq!(r.refined[0].field.to_string(), "Buf.data");
        assert!(r.refined[0].has_write);
        let alias: Vec<&AliasRace> = r
            .alias_aware
            .iter()
            .filter(|a| a.field.to_string() == "Buf.data")
            .collect();
        assert_eq!(alias.len(), 1);
        assert!(alias[0].instances >= 2);
    }

    #[test]
    fn alias_tier_finds_the_getter_escape_race() {
        // One `Shared` instance handed to both workers through a
        // registry getter: a single contested object the alias tier
        // pins to its allocation site.
        let r = run("class Shared {
            private int val;
            Shared() { val = 0; }
            public void put(int v) { val = v; }
            public int get() { return val; }
        }
        class Registry {
            private Shared slot;
            Registry() { slot = new Shared(); }
            Shared lookup() { return slot; }
        }
        class Worker extends Thread {
            private Shared s;
            Worker(Shared sh) { s = sh; }
            public void run() { s.put(1); }
        }
        class Buddy extends Thread {
            private Shared s;
            Buddy(Shared sh) { s = sh; }
            public void run() { s.put(2); }
        }
        class Main {
            public void demo() {
                Registry r = new Registry();
                Worker w1 = new Worker(r.lookup());
                Buddy w2 = new Buddy(r.lookup());
                w1.start();
                w2.start();
            }
        }");
        let alias: Vec<&AliasRace> = r
            .alias_aware
            .iter()
            .filter(|a| a.field.to_string() == "Shared.val")
            .collect();
        assert_eq!(alias.len(), 1, "{:?}", r.alias_aware);
        let a = alias[0];
        let (_, class) = a.object.as_ref().expect("resolved to a concrete object");
        assert_eq!(class, "Shared");
        assert_eq!(a.instances, 2);
        assert!(a.has_write);
    }

    #[test]
    fn per_instance_state_is_cleared_by_the_alias_tier() {
        // Two thread classes each bump their *own* Cell; the refined
        // tier (name-based) flags `Cell.n`, the alias tier clears it.
        let r = run("class Cell { public int n; Cell() { n = 0; } }
        class LocalA extends Thread {
            private Cell own;
            LocalA() { own = new Cell(); }
            public void run() { own.n = own.n + 1; }
        }
        class LocalB extends Thread {
            private Cell own;
            LocalB() { own = new Cell(); }
            public void run() { own.n = own.n + 1; }
        }
        class Main {
            public void demo() {
                LocalA a = new LocalA();
                LocalB b = new LocalB();
                a.start();
                b.start();
            }
        }");
        assert_eq!(r.refined.len(), 1);
        assert_eq!(r.refined[0].field.to_string(), "Cell.n");
        assert!(
            r.alias_cleared.iter().any(|f| f.to_string() == "Cell.n"),
            "cleared: {:?}, alias: {:?}",
            r.alias_cleared,
            r.alias_aware
        );
        assert!(r
            .alias_aware
            .iter()
            .all(|a| a.field.to_string() != "Cell.n"));
    }
}
