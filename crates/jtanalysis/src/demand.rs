//! Demand-query memoization for the analysis tail.
//!
//! The method-core and SCC layers of [`crate::db`] cache *upstream*
//! facts; this module holds the caches for the *downstream* products —
//! race verdicts, R13 ownership, R14 alias leaks, call-site loop
//! proofs, R2 loop evidence, and per-method WCET folds. Each product is
//! restructured (in [`crate::races`] / [`crate::summary`]) as a set of
//! per-unit *demand queries*: a span-free core value computed from the
//! facts the query cites, keyed by a fingerprint of exactly those facts
//! — the method key, the global signature fingerprint, and the
//! points-to relation fingerprint ([`crate::pointsto`]'s canonical
//! `relation_fp`) or a digest of the relevant slice of it.
//!
//! Early cutoff falls out of the keying: an edit that leaves the
//! points-to relation and a field's attributed access list unchanged
//! re-serves that field's race verdict from cache, even though the
//! relation was delta-solved in between.
//!
//! The batch drivers run the *same* core-compute/materialize pipeline
//! with no [`DemandCtx`] attached, so batch ≡ incremental holds by
//! construction: a demand hit replays a value the cold path would have
//! recomputed bit-for-bit.

use crate::fingerprint::{Fp, NodeMap, ProgramIndex};
use crate::{races, summary, MethodRef};
use jtlang::ast::Program;
use std::collections::BTreeMap;

/// One cached demand-query result.
#[derive(Debug, Clone)]
pub(crate) struct MemoSlot<T> {
    pub(crate) value: T,
    pub(crate) last_used: u64,
}

/// The tail-product caches, one map per query family. Values are
/// span-free cores; see the owning modules for their encodings.
#[derive(Debug, Default)]
pub(crate) struct TailMemo {
    /// Per-method attributed field-access lists (race phase 1).
    pub(crate) access: BTreeMap<Fp, MemoSlot<Vec<races::AccessCore>>>,
    /// Per-field alias-tier verdicts (race phase 2).
    pub(crate) fields: BTreeMap<Fp, MemoSlot<races::FieldCore>>,
    /// Per-block R13 ownership verdicts.
    pub(crate) ownership: BTreeMap<Fp, MemoSlot<summary::OwnershipCore>>,
    /// Per-method R14 alias-leak verdicts.
    pub(crate) leaks: BTreeMap<Fp, MemoSlot<Vec<summary::LeakCore>>>,
    /// Per-method parameter-bounded loop frames.
    pub(crate) trip_cands: BTreeMap<Fp, MemoSlot<Vec<summary::TripCandCore>>>,
    /// Per-caller call-site argument folds.
    pub(crate) call_sites: BTreeMap<Fp, MemoSlot<Vec<summary::CallContribution>>>,
    /// Per-method R2 loop-bound evidence.
    pub(crate) loop_ev: BTreeMap<Fp, MemoSlot<Vec<summary::LoopEvCore>>>,
    /// Per-method WCET bounds, keyed bottom-up over the condensation.
    pub(crate) wcet: BTreeMap<Fp, MemoSlot<Option<u64>>>,
}

impl TailMemo {
    /// Drops every entry not used since `revision - keep`.
    pub(crate) fn evict(&mut self, revision: u64, keep: u64) {
        let alive = |last_used: u64| last_used + keep >= revision;
        self.access.retain(|_, s| alive(s.last_used));
        self.fields.retain(|_, s| alive(s.last_used));
        self.ownership.retain(|_, s| alive(s.last_used));
        self.leaks.retain(|_, s| alive(s.last_used));
        self.trip_cands.retain(|_, s| alive(s.last_used));
        self.call_sites.retain(|_, s| alive(s.last_used));
        self.loop_ev.retain(|_, s| alive(s.last_used));
        self.wcet.retain(|_, s| alive(s.last_used));
    }
}

/// Everything a demand-enabled tail pass needs: the current revision's
/// fingerprints, the canonical points-to relation fingerprint, and the
/// memo tables with hit/miss counters.
pub(crate) struct DemandCtx<'a> {
    /// Revision-wide fingerprints and node maps.
    pub(crate) ix: &'a ProgramIndex,
    /// The call graph's SCC condensation, computed once per revision
    /// and shared by every tail pass that folds over it.
    pub(crate) cond: &'a [Vec<MethodRef>],
    /// Canonical fingerprint of the current points-to relation.
    pub(crate) relation_fp: Fp,
    /// Current revision (for LRU bookkeeping).
    pub(crate) revision: u64,
    /// The persistent caches.
    pub(crate) memo: &'a mut TailMemo,
    /// Demand queries served from cache this run.
    pub(crate) hits: u64,
    /// Demand queries computed this run.
    pub(crate) misses: u64,
}

/// Looks `key` up in `map`, counting a hit or computing-and-inserting
/// on a miss.
pub(crate) fn demand<T: Clone>(
    map: &mut BTreeMap<Fp, MemoSlot<T>>,
    key: Fp,
    revision: u64,
    hits: &mut u64,
    misses: &mut u64,
    compute: impl FnOnce() -> T,
) -> T {
    use std::collections::btree_map::Entry;
    match map.entry(key) {
        Entry::Occupied(mut e) => {
            e.get_mut().last_used = revision;
            *hits += 1;
            e.get().value.clone()
        }
        Entry::Vacant(v) => {
            *misses += 1;
            let value = compute();
            v.insert(MemoSlot {
                value: value.clone(),
                last_used: revision,
            });
            value
        }
    }
}

/// Node-map provider shared by the demand and batch paths: serves the
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
