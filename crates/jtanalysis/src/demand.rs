//! The analysis tail that follows the edit.
//!
//! The method-core and SCC layers of [`crate::db`] cache *upstream*
//! facts; this module carries the *downstream* products from one
//! revision to the next — race access lists and field verdicts, R13
//! ownership, R14 alias leaks, call-site loop proofs, R2 loop evidence
//! and per-method WCET folds. [`TailState`] keeps, per method, the
//! span-free cores of every product (computed by the owning modules,
//! [`crate::races`] and [`crate::summary`]) beside the inputs they were
//! computed from: the method key, the interval key, the summary hash,
//! the thread/init attribution, and the points-to slice its access list
//! read ([`crate::races::AccessReads`]).
//!
//! Each revision starts with [`TailState::begin`], which aligns the
//! carried methods with the revision's and compares their own inputs —
//! a few fingerprint comparisons per method, no hashing. Only the
//! *changed set* re-runs: a method whose key changed, whose summary
//! hash changed, whose thread or init reach changed, or whose read
//! slice of the points-to relation changed ([`PtChange`]); a WCET bound
//! also re-runs when a callee's bound changed, component by component
//! bottom-up, stopping where a bound comes out equal. Every other
//! method is materialized from its carried cores through the revision's
//! [`NodeMap`], which moved with the parse. Each re-run records its
//! [`TailCause`].
//!
//! The batch drivers run the *same* core computations and the same
//! materialization with no state attached, so batch ≡ incremental
//! holds as long as the changed set covers every result whose inputs
//! changed — the `incremental_properties` tests compare the carried
//! cores with a cold recompute after every revision
//! ([`TailState::check_against_cold`]).

use crate::callgraph::CallGraph;
use crate::db::{TailCause, TailReruns};
use crate::fingerprint::{Fp, NodeMap, ProgramIndex};
use crate::flow::FlowReport;
use crate::pointsto::{ObjId, PtChange};
use crate::races::{AccessCore, AccessReads, FieldCore, FieldId};
use crate::summary::{CallContribution, LeakCore, LoopEvCore, OwnershipCore, TripCandCore};
use crate::MethodRef;
use crate::{bounds, races, summary};
use jtlang::ast::{ClassDecl, MethodDecl, Program};
use jtlang::resolve::ClassTable;
use std::collections::{BTreeMap, BTreeSet};

/// Own-input flags of one method in one revision ([`Pass::own`]).
pub(crate) const KEY: u8 = 1;
/// The interval key changed (field lengths, or the method key).
pub(crate) const IKEY: u8 = 2;
/// The purity/escape summary hash changed.
pub(crate) const SUMMARY: u8 = 4;
/// The thread or init attribution changed.
pub(crate) const REACH: u8 = 8;
/// The call-site-proved trip counts of its loops changed.
pub(crate) const TRIPS: u8 = 16;
/// An object its access list holds is gone from the relation.
pub(crate) const GONE: u8 = 32;

/// One method's carried tail results and the inputs they hold for.
#[derive(Debug, Clone)]
pub(crate) struct MethodTail {
    pub(crate) mref: MethodRef,
    /// `mref` rendered, as evidence names the method.
    pub(crate) label: String,
    pub(crate) mkey: Fp,
    pub(crate) ikey: Fp,
    pub(crate) summary: Fp,
    /// Thread classes whose `run` reaches the method.
    pub(crate) thread_roots: BTreeSet<String>,
    /// The method runs in the init phase.
    pub(crate) in_init: bool,
    pub(crate) access: Vec<AccessCore>,
    /// The points-to slice `access` read.
    pub(crate) reads: AccessReads,
    pub(crate) leaks: Vec<LeakCore>,
    pub(crate) trips: Vec<TripCandCore>,
    /// Call-site folds with the candidate-table shape they were folded
    /// against; `None` once the method changed without a fold.
    pub(crate) calls: Option<(Fp, Vec<CallContribution>)>,
    /// Call-site-proved trips of its loops, by statement index.
    pub(crate) call_trips: Vec<(u32, u64)>,
    pub(crate) loop_ev: Vec<LoopEvCore>,
    /// The methods its WCET bound reads.
    pub(crate) callees: Vec<MethodRef>,
    pub(crate) wcet: Option<u64>,
}

impl MethodTail {
    /// A method with nothing carried yet.
    fn new(mref: &MethodRef) -> MethodTail {
        MethodTail {
            mref: mref.clone(),
            label: mref.to_string(),
            mkey: Fp::default(),
            ikey: Fp::default(),
            summary: Fp::default(),
            thread_roots: BTreeSet::new(),
            in_init: false,
            access: Vec::new(),
            reads: AccessReads::default(),
            leaks: Vec::new(),
            trips: Vec::new(),
            calls: None,
            call_trips: Vec::new(),
            loop_ev: Vec::new(),
            callees: Vec::new(),
            wcet: None,
        }
    }
}

/// One ASR block's carried R13 verdict and the methods its `run`
/// reaches.
#[derive(Debug, Clone)]
pub(crate) struct BlockTail {
    pub(crate) reach: BTreeSet<MethodRef>,
    pub(crate) core: OwnershipCore,
}

/// The tail results of the last analyzed revision, carried to the next.
#[derive(Debug, Default)]
pub(crate) struct TailState {
    /// Per method, in `MethodRef` order — the order of the revision's
    /// key maps, so they zip without lookups.
    pub(crate) slots: Vec<MethodTail>,
    /// Program order (constructors, then methods, class by class) →
    /// slot.
    pub(crate) order: Vec<usize>,
    /// The signature fingerprint the results hold under.
    sig: Option<Fp>,
    /// Callee → the methods whose WCET bound reads it.
    pub(crate) callers: BTreeMap<MethodRef, BTreeSet<MethodRef>>,
    /// Thread class → the methods its `run` reaches.
    pub(crate) thread_reach: BTreeMap<String, BTreeSet<MethodRef>>,
    /// The methods the constructors reach.
    pub(crate) init_reach: BTreeSet<MethodRef>,
    /// Alias-tier verdict per field.
    pub(crate) fields: BTreeMap<FieldId, FieldCore>,
    /// R13 verdict per ASR block.
    pub(crate) blocks: BTreeMap<String, BlockTail>,
}

/// One revision's pass over the tail: the revision's declarations and
/// node maps per slot, what changed, and the traffic.
pub(crate) struct Pass<'p> {
    pub(crate) ix: &'p ProgramIndex,
    pub(crate) pt: &'p PtChange,
    /// Per slot: its declaration in this revision.
    pub(crate) decls: Vec<(&'p ClassDecl, &'p MethodDecl)>,
    /// Per slot: its node map in this revision.
    pub(crate) maps: Vec<&'p NodeMap>,
    /// Per slot: which of its own inputs changed (`KEY`, `IKEY`, …).
    pub(crate) own: Vec<u8>,
    /// Set when every carried result is void: the first revision, a
    /// changed signature table, or a changed method list.
    pub(crate) all: Option<TailCause>,
    /// Slots whose key changed (or all of them): the only methods whose
    /// call edges can differ.
    pub(crate) edited: Vec<usize>,
    /// Slots whose summary hash changed.
    pub(crate) resummarized: Vec<usize>,
    /// Per slot: why one of its results re-ran, the gravest cause.
    rerun: Vec<Option<TailCause>>,
    /// Re-runs of results that are not a method's (field verdicts,
    /// blocks), by cause.
    extra: TailReruns,
    pub(crate) hits: u64,
    pub(crate) misses: u64,
}

/// What one pass re-ran.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct TailCounts {
    pub(crate) hits: u64,
    pub(crate) misses: u64,
    /// Methods with a re-run result.
    pub(crate) visited: u64,
    pub(crate) reruns: TailReruns,
}

impl TailState {
    /// Aligns the carried slots with `program`, whose method keys
    /// `(method key, interval key)` and summary hashes are `keys` and
    /// `hashes` (both over the program's methods, in `MethodRef` order),
    /// and flags each method's changed inputs.
    pub(crate) fn begin<'p>(
        &mut self,
        program: &'p Program,
        ix: &'p ProgramIndex,
        keys: &BTreeMap<MethodRef, (Fp, Fp)>,
        hashes: &BTreeMap<MethodRef, Fp>,
        pt: &'p PtChange,
    ) -> Pass<'p> {
        let mut all = match self.sig {
            None => Some(TailCause::MethodKey),
            Some(sig) if sig != ix.sig => Some(TailCause::Signature),
            Some(_) => None,
        };
        let decls = match self.aligned(program) {
            Some(decls) if keys.len() == self.slots.len() => decls,
            _ => {
                *self = TailState::default();
                self.slots = keys.keys().map(MethodTail::new).collect();
                self.order = crate::each_method(program)
                    .map(|(_, _, m)| {
                        self.slots
                            .binary_search_by(|s| s.mref.cmp(&m))
                            .expect("every method is keyed")
                    })
                    .collect();
                all.get_or_insert(TailCause::MethodKey);
                self.aligned(program).expect("slots just aligned")
            }
        };
        self.sig = Some(ix.sig);
        let maps: Vec<&NodeMap> = ix.methods.values().map(|(_, m)| m).collect();
        assert!(
            maps.len() == self.slots.len() && hashes.len() == self.slots.len(),
            "the index, the keys and the summaries cover the same methods"
        );
        let mut own = vec![0u8; self.slots.len()];
        let (mut edited, mut resummarized) = (Vec::new(), Vec::new());
        for (i, (slot, ((mkey, ikey), hash))) in self
            .slots
            .iter_mut()
            .zip(keys.values().zip(hashes.values()))
            .enumerate()
        {
            let f = &mut own[i];
            if all.is_some() || slot.mkey != *mkey {
                *f |= KEY | IKEY | SUMMARY;
                edited.push(i);
                // Call-site folds re-run only while some loop has a
                // parameter limit: until then the old ones are void.
                slot.calls = None;
            }
            if slot.ikey != *ikey {
                *f |= IKEY;
            }
            if slot.summary != *hash {
                *f |= SUMMARY;
            }
            if *f & SUMMARY != 0 {
                resummarized.push(i);
            }
            (slot.mkey, slot.ikey, slot.summary) = (*mkey, *ikey, *hash);
        }
        Pass {
            ix,
            pt,
            rerun: vec![None; self.slots.len()],
            decls,
            maps,
            own,
            all,
            edited,
            resummarized,
            extra: TailReruns::default(),
            hits: 0,
            misses: 0,
        }
    }

    /// The declaration of every slot, when the program declares exactly
    /// the carried methods in the carried order.
    fn aligned<'p>(&self, program: &'p Program) -> Option<Vec<(&'p ClassDecl, &'p MethodDecl)>> {
        let mut decls: Vec<Option<(&ClassDecl, &MethodDecl)>> = vec![None; self.slots.len()];
        let mut order = self.order.iter();
        for class in &program.classes {
            let ctors = class.ctors.iter().map(|d| (true, d));
            for (is_ctor, decl) in ctors.chain(class.methods.iter().map(|d| (false, d))) {
                let &i = order.next()?;
                let m = &self.slots[i].mref;
                let same = m.class == class.name
                    && m.is_ctor == is_ctor
                    && if is_ctor {
                        m.arity as usize == decl.params.len()
                    } else {
                        m.method == decl.name
                    };
                if !same || decls[i].is_some() {
                    return None;
                }
                decls[i] = Some((class, decl));
            }
        }
        if order.next().is_some() {
            return None;
        }
        decls.into_iter().collect()
    }

    /// The slot of `m`, if it is a declared method.
    pub(crate) fn slot_of(&self, m: &MethodRef) -> Option<usize> {
        self.slots.binary_search_by(|s| s.mref.cmp(m)).ok()
    }

    /// True when `reach` holds one of the methods of `slots`.
    pub(crate) fn touches(&self, slots: &[usize], reach: &BTreeSet<MethodRef>) -> bool {
        slots.iter().any(|&i| reach.contains(&self.slots[i].mref))
    }

    /// Remaps the object ids the carried cores hold after the relation
    /// renumbered its objects; a core naming an object that is gone is
    /// cleared and its method flagged for a re-run.
    pub(crate) fn remap_objects(&mut self, remap: &[Option<ObjId>], pass: &mut Pass) {
        let map = |o: &ObjId| remap.get(o.0).copied().flatten();
        for (i, slot) in self.slots.iter_mut().enumerate() {
            for core in &mut slot.access {
                if let Some(holders) = &mut core.holders {
                    let mapped: Option<BTreeSet<ObjId>> = holders.iter().map(map).collect();
                    match mapped {
                        Some(set) => *holders = set,
                        None => pass.own[i] |= GONE,
                    }
                }
            }
        }
        // Field verdicts and block verdicts that name objects re-run
        // whenever the relation changed; the rest name none.
    }
}

impl Pass<'_> {
    /// The cause for re-running a result that depends on the method's
    /// own body and the signature table.
    pub(crate) fn key_cause(&self, i: usize) -> Option<TailCause> {
        self.all
            .or_else(|| (self.own[i] & KEY != 0).then_some(TailCause::MethodKey))
    }

    /// Counts a result of slot `i`: a hit without `cause`, a re-run
    /// with one. True when it must re-run.
    pub(crate) fn note(&mut self, i: usize, cause: Option<TailCause>) -> bool {
        match cause {
            None => {
                self.hits += 1;
                false
            }
            Some(c) => {
                self.misses += 1;
                let r = &mut self.rerun[i];
                *r = Some(r.map_or(c, |old| old.min(c)));
                true
            }
        }
    }

    /// Counts a result that belongs to no method: a hit without
    /// `cause`, a re-run with one.
    pub(crate) fn note_other(&mut self, cause: Option<TailCause>) -> bool {
        match cause {
            None => {
                self.hits += 1;
                false
            }
            Some(c) => {
                self.misses += 1;
                self.extra.add(c);
                true
            }
        }
    }

    /// Counts `n` results served as carried.
    pub(crate) fn hit(&mut self, n: u64) {
        self.hits += n;
    }

    /// Counts a result re-run for a cause already counted on a method.
    pub(crate) fn miss(&mut self) {
        self.misses += 1;
    }

    /// The traffic of the pass.
    pub(crate) fn finish(self) -> TailCounts {
        let mut reruns = self.extra;
        let mut visited = 0;
        for c in self.rerun.into_iter().flatten() {
            visited += 1;
            reruns.add(c);
        }
        TailCounts {
            hits: self.hits,
            misses: self.misses,
            visited,
            reruns,
        }
    }
}

impl TailState {
    /// Recomputes every carried result cold for `program`, the revision
    /// the state was last brought to, whose index is `ix` and whose
    /// report is `report`, and names the first that differs.
    pub(crate) fn check_against_cold(
        &self,
        program: &Program,
        table: &ClassTable,
        graph: &CallGraph,
        ix: &ProgramIndex,
        report: &FlowReport,
    ) -> Result<(), String> {
        let pt = &report.summary.pointsto;
        let reach: BTreeMap<String, BTreeSet<MethodRef>> = races::thread_classes(program, table)
            .map(|c| {
                let run = MethodRef::method(&c.name, "run");
                (c.name.clone(), graph.reachable_from([&run]))
            })
            .collect();
        let init = graph.reachable_from(races::ctor_roots(program).iter());
        let proved = &report.interval.proved_loop_bounds;
        let merged = summary::merged_bounds(proved, &report.summary.call_proved_bounds);
        let wcet = bounds::instruction_bounds_with_flow(program, table, &merged);
        let mut candidates = BTreeMap::new();
        for (class, decl, mref) in crate::each_method(program) {
            let differs = |what: &str| {
                Err(format!(
                    "{mref}: the carried {what} differs from a cold recompute"
                ))
            };
            let (Some(i), Some(map)) = (self.slot_of(&mref), ix.node_map(&mref)) else {
                return differs("method");
            };
            let slot = &self.slots[i];
            let roots = races::attribution(&reach, &mref);
            if slot.thread_roots != roots || slot.in_init != (mref.is_ctor || init.contains(&mref))
            {
                return differs("thread/init attribution");
            }
            let access =
                races::compute_access_cores(program, table, class, decl, &mref, pt, map, None);
            if slot.access != access {
                return differs("access list");
            }
            let es = report.summary.methods.get(&mref).map(|s| &s.escape);
            let leaks = match es {
                Some(es) if !mref.is_ctor => {
                    summary::compute_leak_cores(table, decl, &mref, es, map)
                }
                _ => Vec::new(),
            };
            if !mref.is_ctor && slot.leaks != leaks {
                return differs("R14 verdict");
            }
            let trips = summary::compute_trip_cands(decl, map);
            if slot.trips != trips {
                return differs("loop frames");
            }
            if !trips.is_empty() {
                candidates.insert(mref.clone(), summary::candidates_of(&trips, map));
            }
            if slot.loop_ev != summary::compute_loop_ev(decl, &mref, proved, map) {
                return differs("R2 evidence");
            }
            if wcet.get(&mref) != Some(&slot.wcet) {
                return differs("WCET bound");
            }
        }
        if !candidates.is_empty() {
            let shape = summary::candidate_shape(&candidates);
            for (_, decl, mref) in crate::each_method(program) {
                let (Some(i), Some(map)) = (self.slot_of(&mref), ix.node_map(&mref)) else {
                    continue;
                };
                let cold =
                    summary::compute_contributions(program, table, decl, &mref, &candidates, map);
                if self.slots[i].calls != Some((shape, cold)) {
                    return Err(format!(
                        "{mref}: the carried call-site folds differ from a cold recompute"
                    ));
                }
            }
        }
        if self.fields != races::analyze_cold(program, table, graph, pt).1 {
            return Err("the carried field race verdicts differ from a cold recompute".into());
        }
        let mut maps = Maps::new(Some(ix));
        for block in summary::asr_blocks(program, table) {
            let run = MethodRef::method(&block.name, "run");
            let reach = graph.reachable_from([&run]);
            let methods = &report.summary.methods;
            let core = summary::compute_ownership_core(
                program, table, pt, methods, block, &reach, &mut maps,
            );
            match self.blocks.get(&block.name) {
                Some(b) if b.reach == reach && b.core == core => {}
                _ => {
                    return Err(format!(
                        "block {}: the carried R13 verdict differs from a cold recompute",
                        block.name
                    ))
                }
            }
        }
        Ok(())
    }
}

/// Node-map provider shared by the tail and the batch paths: serves the
/// prebuilt [`ProgramIndex`] maps when one is attached, and lazily
/// builds per-method maps otherwise (the batch drivers have no index).
pub(crate) struct Maps<'a> {
    ix: Option<&'a ProgramIndex>,
    local: BTreeMap<MethodRef, NodeMap>,
}

impl<'a> Maps<'a> {
    pub(crate) fn new(ix: Option<&'a ProgramIndex>) -> Maps<'a> {
        Maps {
            ix,
            local: BTreeMap::new(),
        }
    }

    /// The node map of `mref` in the current parse.
    pub(crate) fn get(&mut self, program: &Program, mref: &MethodRef) -> Option<&NodeMap> {
        if let Some(ix) = self.ix {
            return ix.node_map(mref);
        }
        if !self.local.contains_key(mref) {
            let (_, decl) = crate::decl_of(program, mref)?;
            self.local.insert(mref.clone(), NodeMap::build(decl));
        }
        self.local.get(mref)
    }
}

/// Converts a pre-order index to the `u32` stored in cores. Method
/// bodies are far below `u32::MAX` nodes; the parser would exhaust
/// memory long before this could truncate.
pub(crate) fn idx32(i: usize) -> u32 {
    u32::try_from(i).expect("pre-order index fits u32")
}
