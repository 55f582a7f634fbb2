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

/// Identifies a method or constructor within a program.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MethodRef {
    /// Owning class.
    pub class: String,
    /// Method name; constructors use the class name.
    pub method: String,
    /// True for constructors.
    pub is_ctor: bool,
}

impl MethodRef {
    /// A reference to an ordinary method.
    pub fn method(class: impl Into<String>, method: impl Into<String>) -> Self {
        MethodRef {
            class: class.into(),
            method: method.into(),
            is_ctor: false,
        }
    }

    /// A reference to a constructor.
    pub fn ctor(class: impl Into<String>) -> Self {
        let class = class.into();
        MethodRef {
            method: class.clone(),
            class,
            is_ctor: true,
        }
    }
}

impl fmt::Display for MethodRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_ctor {
            write!(f, "{}.<init>", self.class)
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
            .map(move |c| (class, c, MethodRef::ctor(&class.name)))
            .chain(
                class
                    .methods
                    .iter()
                    .map(move |m| (class, m, MethodRef::method(&class.name, &m.name))),
            )
    })
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
        assert_eq!(MethodRef::ctor("A").to_string(), "A.<init>");
        assert!(MethodRef::ctor("A").is_ctor);
    }

    #[test]
    fn frontend_runs_full_pipeline() {
        assert!(frontend("class A { int x; }").is_ok());
        assert!(frontend("class A { int x = true; }").is_err());
        assert!(frontend("class A {").is_err());
    }
}
