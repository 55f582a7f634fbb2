//! # `jtanalysis` — static analyses over JT programs
//!
//! The SFR methodology verifies a program's compliance with a policy of
//! use "through static analyses of source code" (paper §4.1). This crate
//! provides those analyses, each in its own module, over the ASTs produced
//! by [`jtlang`]:
//!
//! * [`callgraph`] — method-level call graph and recursion (circular
//!   method invocation) detection,
//! * [`loops`] — loop classification and calculable-bound analysis for
//!   `for` loops (including the induction-variable-unmodified check),
//! * [`alloc`] — allocation-site inventory with initialization-phase vs.
//!   run-phase classification and the linked-structure heuristic,
//! * [`visibility`] — externally accessible state detection,
//! * [`threads`] — thread-construct usage and shared-variable race
//!   candidates,
//! * [`blocking`] — calls that may suspend execution indefinitely,
//! * [`bounds`] — WCET-style instruction-count and memory upper bounds
//!   for programs that satisfy the structural restrictions
//!   (flow-sensitive via [`bounds::instruction_bounds_with_flow`]).
//!
//! On top of the syntactic tier sits a flow-sensitive suite built on a
//! shared control-flow-graph + lattice-dataflow framework:
//!
//! * [`cfg`](mod@cfg) — per-method control-flow graphs with explicit terminators,
//!   loop shapes, and widening points,
//! * [`dataflow`] — a lattice-generic forward/backward worklist solver
//!   ([`dataflow::Analysis`] trait) with edge-sensitive transfer and
//!   widening,
//! * [`definite`] — definite assignment: reads of possibly-unassigned
//!   locals (rule R10),
//! * [`constprop`] — conditional constant propagation with branch
//!   refinement,
//! * [`interval`] — interval analysis: proved loop trip counts (feeding
//!   flow-sensitive R2 and WCET) and definite array out-of-bounds
//!   findings (rule R11),
//! * [`races`] — shared-state races in three precision tiers:
//!   syntactic, phase-refined, and alias-aware (rule R12),
//! * [`flow`] — umbrella driver producing a [`flow::FlowReport`] and
//!   exporting solver metrics via `jtobs`.
//!
//! The interprocedural layer computes whole-program facts bottom-up
//! over the call graph:
//!
//! * [`pointsto`] — flow-insensitive, field-sensitive Andersen-style
//!   points-to analysis over abstract allocation sites,
//! * [`purity`] — per-method effect footprints (field reads/writes,
//!   port and thread effects) transitively closed through calls,
//! * [`escape`] — per-method escape summaries: which parameters,
//!   receiver fields, and fresh allocations leave their frame,
//! * [`summary`] — the SCC-condensation driver combining the above
//!   into [`summary::SummaryReport`]: impure-block findings (rule
//!   R13), alias-leak findings (rule R14), and call-site-proved WCET
//!   sharpening.
//!
//! Each analysis is pure: it takes `(&Program, &ClassTable)` and returns a
//! report value. The `sfr` crate turns these reports into policy-rule
//! violations with suggested fixes.

pub mod alloc;
pub mod blocking;
pub mod bounds;
pub mod callgraph;
pub mod cfg;
pub mod constprop;
pub mod dataflow;
pub mod db;
pub mod definite;
pub(crate) mod demand;
pub mod evidence;
pub mod fingerprint;
pub mod flow;
pub mod escape;
pub mod interval;
pub mod loops;
pub mod pointsto;
pub(crate) mod ptdelta;
pub mod purity;
pub mod races;
pub mod summary;
pub mod threads;
pub mod visibility;

use jtlang::ast::{ClassDecl, MethodDecl, Program};
use jtlang::resolve::ClassTable;
use std::fmt;

/// Identifies a method or constructor within a program. A constructor
/// is named by its class and arity — the resolver rejects two
/// constructors of one arity, and `new` selects by argument count — so
/// every reference names exactly one declaration, except the arity-0
/// constructor of a class that declares none: the synthetic one its
/// field initializers run in.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MethodRef {
    /// Owning class.
    pub class: String,
    /// Method name; constructors use the class name.
    pub method: String,
    /// True for constructors.
    pub is_ctor: bool,
    /// A constructor's parameter count; 0 for methods. A `u32` fits in
    /// the padding after `is_ctor`, so the key is no larger for it.
    pub arity: u32,
}

impl MethodRef {
    /// A reference to an ordinary method.
    pub fn method(class: impl Into<String>, method: impl Into<String>) -> Self {
        MethodRef {
            class: class.into(),
            method: method.into(),
            is_ctor: false,
            arity: 0,
        }
    }

    /// A reference to the constructor of `class` taking `arity`
    /// parameters.
    pub fn ctor(class: impl Into<String>, arity: usize) -> Self {
        let class = class.into();
        MethodRef {
            method: class.clone(),
            class,
            is_ctor: true,
            arity: u32::try_from(arity).unwrap_or(u32::MAX),
        }
    }
}

impl fmt::Display for MethodRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_ctor {
            write!(f, "{}.<init>/{}", self.class, self.arity)
        } else {
            write!(f, "{}.{}", self.class, self.method)
        }
    }
}

/// Iterates every constructor and method of a program with its owning
/// class and [`MethodRef`], in declaration order — the shared driver of
/// the per-method dataflow analyses.
pub fn each_method(program: &Program) -> impl Iterator<Item = (&ClassDecl, &MethodDecl, MethodRef)> {
    program.classes.iter().flat_map(|class| {
        class
            .ctors
            .iter()
            .map(move |c| (class, c, MethodRef::ctor(&class.name, c.params.len())))
            .chain(
                class
                    .methods
                    .iter()
                    .map(move |m| (class, m, MethodRef::method(&class.name, &m.name))),
            )
    })
}

/// The declaration `mref` names, with its class: the constructor of
/// that arity or the method of that name. `None` for a builtin, and for
/// the synthetic constructor of a class that declares none.
pub fn decl_of<'p>(
    program: &'p Program,
    mref: &MethodRef,
) -> Option<(&'p ClassDecl, &'p MethodDecl)> {
    let class = program.class(&mref.class)?;
    let decl = if mref.is_ctor {
        class
            .ctors
            .iter()
            .find(|c| u32::try_from(c.params.len()) == Ok(mref.arity))
    } else {
        class.method(&mref.method)
    }?;
    Some((class, decl))
}

/// Parses, resolves, and returns `(program, table)` — a convenience used
/// pervasively by tests and by the `sfr` crate.
///
/// # Errors
///
/// Returns the first front-end error as a string.
pub fn frontend(source: &str) -> Result<(Program, ClassTable), String> {
    let program = jtlang::parse(source).map_err(|e| e.to_string())?;
    let table = jtlang::resolve::resolve(&program).map_err(|e| e.to_string())?;
    jtlang::types::check(&program, &table).map_err(|e| e.to_string())?;
    Ok((program, table))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn method_ref_display() {
        assert_eq!(MethodRef::method("A", "m").to_string(), "A.m");
        assert_eq!(MethodRef::ctor("A", 2).to_string(), "A.<init>/2");
        assert!(MethodRef::ctor("A", 0).is_ctor);
    }

    #[test]
    fn decl_of_names_one_constructor_per_arity() {
        let (p, _) = frontend(
            "class A { int v; A() { v = 1; } A(int x) { v = x; } int get() { return v; } }",
        )
        .unwrap();
        let a = &p.classes[0];
        let ctor = |n| decl_of(&p, &MethodRef::ctor("A", n)).map(|(_, d)| d);
        assert!(std::ptr::eq(ctor(0).unwrap(), &a.ctors[0]));
        assert!(std::ptr::eq(ctor(1).unwrap(), &a.ctors[1]));
        assert!(ctor(2).is_none());
        let get = decl_of(&p, &MethodRef::method("A", "get")).unwrap().1;
        assert!(std::ptr::eq(get, &a.methods[0]));
        assert!(decl_of(&p, &MethodRef::method("B", "get")).is_none());
        for (_, decl, mref) in each_method(&p) {
            assert!(std::ptr::eq(decl_of(&p, &mref).unwrap().1, decl), "{mref}");
        }
    }

    #[test]
    fn frontend_runs_full_pipeline() {
        assert!(frontend("class A { int x; }").is_ok());
        assert!(frontend("class A { int x = true; }").is_err());
        assert!(frontend("class A {").is_err());
    }
}
