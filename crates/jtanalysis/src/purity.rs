//! Purity and effect summaries for user methods.
//!
//! The paper's policy of use asks ASR blocks to behave as *functions* of
//! their inputs within an instant (§4.3). Checking that requires knowing
//! each method's *effect footprint*: the fields it may read or write —
//! transitively, through every call — and the builtin effects it may
//! trigger. This module computes a [`PuritySummary`] per method; the
//! interprocedural driver ([`crate::summary`]) evaluates methods
//! bottom-up over the call-graph condensation so callee summaries are
//! available (and iterates cyclic components to a bounded fixpoint).
//!
//! Builtins are classified by the small [`BUILTIN_EFFECTS`] table rather
//! than analyzed: `ASR.read` is a port read, `Object.wait` blocks, and
//! so on. A builtin absent from the table is treated as effect-free
//! (e.g. `Math.min`).

use crate::pointsto::{resolve_call, CallTarget};
use crate::races::{field_events, FieldId};
use crate::MethodRef;
use jtlang::ast::{walk_exprs, ClassDecl, ExprKind, MethodDecl, Program};
use jtlang::resolve::ClassTable;
use std::collections::{BTreeMap, BTreeSet};

/// Classification of a builtin call's effect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuiltinEffect {
    /// Reads an input port (`ASR.read`/`readVec`).
    PortRead,
    /// Writes an output port (`ASR.write`/`writeVec`).
    PortWrite,
    /// May suspend the caller indefinitely (`wait`, `join`, `sleep`).
    Blocking,
    /// Thread-management effect (`start`, `notify`, `notifyAll`).
    Thread,
}

/// The effect table: builtin `Owner.method` → its classification.
/// Builtins not listed are effect-free.
pub const BUILTIN_EFFECTS: &[(&str, BuiltinEffect)] = &[
    ("ASR.read", BuiltinEffect::PortRead),
    ("ASR.readVec", BuiltinEffect::PortRead),
    ("ASR.write", BuiltinEffect::PortWrite),
    ("ASR.writeVec", BuiltinEffect::PortWrite),
    ("Object.wait", BuiltinEffect::Blocking),
    ("Thread.join", BuiltinEffect::Blocking),
    ("Thread.sleep", BuiltinEffect::Blocking),
    ("Thread.start", BuiltinEffect::Thread),
    ("Object.notify", BuiltinEffect::Thread),
    ("Object.notifyAll", BuiltinEffect::Thread),
];

/// Looks up a builtin's effect in [`BUILTIN_EFFECTS`].
pub fn builtin_effect(qualified: &str) -> Option<BuiltinEffect> {
    BUILTIN_EFFECTS
        .iter()
        .find(|(name, _)| *name == qualified)
        .map(|(_, eff)| *eff)
}

/// The transitive effect footprint of one method.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PuritySummary {
    /// Fields the method (or a callee) may read.
    pub reads: BTreeSet<FieldId>,
    /// Fields the method (or a callee) may write.
    pub writes: BTreeSet<FieldId>,
    /// May read an input port.
    pub port_read: bool,
    /// May write an output port.
    pub port_write: bool,
    /// May block indefinitely.
    pub blocking: bool,
    /// May start or signal threads.
    pub starts_threads: bool,
    /// May allocate (a `new` expression, directly or in a callee).
    pub allocates: bool,
    /// True when the summary engine's fixpoint cap was reached while
    /// this method's component was still changing — the footprint is an
    /// under-approximation and the method must not be treated as pure.
    pub diverged: bool,
}

impl PuritySummary {
    /// A method is *pure* (in the functional-block sense) when it writes
    /// no field, no port, never blocks, and never manages threads.
    /// Reads, port reads, and allocation of fresh objects are allowed:
    /// they cannot make the block's output depend on hidden mutable
    /// state. A diverged summary is never pure.
    pub fn is_pure(&self) -> bool {
        self.writes.is_empty()
            && !self.port_write
            && !self.blocking
            && !self.starts_threads
            && !self.diverged
    }
}

/// Computes one method's summary given the current summaries of its
/// callees (missing callees contribute the empty default — sound only
/// inside the bottom-up driver, which iterates cycles).
pub fn summarize_method(
    program: &Program,
    table: &ClassTable,
    class: &ClassDecl,
    decl: &MethodDecl,
    mref: &MethodRef,
    summaries: &BTreeMap<MethodRef, PuritySummary>,
) -> PuritySummary {
    let mut s = PuritySummary::default();
    // Direct field footprint, from the same event stream the race tiers
    // use (so the array-element-write rule is shared).
    for ev in field_events(table, class, decl) {
        if ev.is_write {
            s.writes.insert(ev.field);
        } else {
            s.reads.insert(ev.field);
        }
    }
    let merge = |s: &mut PuritySummary, callee: &MethodRef| {
        if let Some(cs) = summaries.get(callee) {
            s.reads.extend(cs.reads.iter().cloned());
            s.writes.extend(cs.writes.iter().cloned());
            s.port_read |= cs.port_read;
            s.port_write |= cs.port_write;
            s.blocking |= cs.blocking;
            s.starts_threads |= cs.starts_threads;
            s.allocates |= cs.allocates;
            s.diverged |= cs.diverged;
        }
    };
    walk_exprs(&decl.body, &mut |e| match &e.kind {
        ExprKind::Call {
            receiver, method, ..
        } => match resolve_call(
            program,
            table,
            mref,
            Some(decl),
            receiver.as_deref(),
            method,
        ) {
            Some(CallTarget::User(callee)) => merge(&mut s, &callee),
            Some(CallTarget::Builtin(name, _)) => match builtin_effect(&name) {
                Some(BuiltinEffect::PortRead) => s.port_read = true,
                Some(BuiltinEffect::PortWrite) => s.port_write = true,
                Some(BuiltinEffect::Blocking) => s.blocking = true,
                Some(BuiltinEffect::Thread) => s.starts_threads = true,
                None => {}
            },
            None => {}
        },
        ExprKind::NewObject { class: c, args } => {
            s.allocates = true;
            if table
                .class(c)
                .is_some_and(|info| !info.is_builtin && !info.ctors.is_empty())
            {
                merge(&mut s, &MethodRef::ctor(c, args.len()));
            }
        }
        ExprKind::NewArray { .. } => s.allocates = true,
        _ => {}
    });
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{frontend, summary};

    fn summaries(src: &str) -> BTreeMap<MethodRef, PuritySummary> {
        let (p, t) = frontend(src).unwrap();
        let g = crate::callgraph::build(&p, &t);
        summary::analyze(&p, &t, &g)
            .methods
            .into_iter()
            .map(|(m, s)| (m, s.purity))
            .collect()
    }

    #[test]
    fn direct_write_is_impure_read_is_pure() {
        let s = summaries(
            "class A { private int x;
                 A() { x = 0; }
                 int get() { return x; }
                 void set(int v) { x = v; } }",
        );
        let get = &s[&MethodRef::method("A", "get")];
        assert!(get.is_pure());
        assert!(get.reads.iter().any(|f| f.to_string() == "A.x"));
        let set = &s[&MethodRef::method("A", "set")];
        assert!(!set.is_pure());
        assert!(set.writes.iter().any(|f| f.to_string() == "A.x"));
    }

    #[test]
    fn writes_propagate_through_calls() {
        let s = summaries(
            "class A { private int x;
                 A() { x = 0; }
                 void leaf(int v) { x = v; }
                 void mid(int v) { leaf(v); }
                 void top(int v) { mid(v); } }",
        );
        let top = &s[&MethodRef::method("A", "top")];
        assert!(!top.is_pure());
        assert!(top.writes.iter().any(|f| f.to_string() == "A.x"));
    }

    #[test]
    fn builtin_effects_are_classified() {
        let s = summaries(
            "class F extends ASR {
                 public void run() { write(0, read(0)); }
                 int peek() { return read(1); } }",
        );
        let run = &s[&MethodRef::method("F", "run")];
        assert!(run.port_read && run.port_write && !run.is_pure());
        let peek = &s[&MethodRef::method("F", "peek")];
        assert!(peek.port_read && !peek.port_write && peek.is_pure());
    }

    #[test]
    fn recursive_component_converges() {
        let s = summaries(
            "class A { private int x;
                 A() { x = 0; }
                 int even(int n) { if (n == 0) { return x; } return odd(n - 1); }
                 int odd(int n) { if (n == 0) { x = 1; return 0; } return even(n - 1); } }",
        );
        let even = &s[&MethodRef::method("A", "even")];
        assert!(!even.diverged);
        assert!(!even.is_pure(), "write in odd must reach even");
        assert!(even.writes.iter().any(|f| f.to_string() == "A.x"));
    }

    #[test]
    fn constructor_effects_flow_into_allocating_method() {
        let s = summaries(
            "class Counter { public int n; Counter() { n = 0; } }
             class M { int fresh() { Counter c = new Counter(); return c.n; } }",
        );
        let fresh = &s[&MethodRef::method("M", "fresh")];
        assert!(fresh.allocates);
        assert!(fresh.writes.iter().any(|f| f.to_string() == "Counter.n"));
    }
}
