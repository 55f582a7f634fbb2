//! Allocation-site inventory and phase classification.
//!
//! The ASR model fixes a system's memory at initialization, so the policy
//! of use restricts `new` to the initialization phase (paper §4.3):
//! constructors, field initializers, and everything they call. This
//! module finds every allocation, decides which phase(s) can reach it,
//! and applies the paper's "linked structures … should be checked for"
//! heuristic by detecting reference cycles in the field-type graph.

use crate::callgraph::{self, CallGraph};
use crate::MethodRef;
use jtlang::ast::*;
use jtlang::resolve::ClassTable;
use jtlang::token::Span;
use std::collections::BTreeSet;

/// What an allocation site allocates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AllocKind {
    /// `new C(…)`
    Object {
        /// Class being instantiated.
        class: String,
    },
    /// `new T[len]`
    Array {
        /// Element type.
        elem: Type,
        /// Constant length, if the length expression folds.
        const_len: Option<i64>,
    },
}

/// One `new` expression in the program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllocSite {
    /// Node id of the `new` expression.
    pub expr_id: NodeId,
    /// Source span.
    pub span: Span,
    /// What is allocated.
    pub kind: AllocKind,
    /// Method containing the site (field initializers are attributed to
    /// their class's arity-0 constructor, declared or synthetic).
    pub method: MethodRef,
    /// True when the site is reachable from a constructor or field
    /// initializer.
    pub in_init_phase: bool,
    /// True when the site is reachable from the `run` behaviour of an
    /// ASR subclass.
    pub in_run_phase: bool,
}

/// The allocation report of a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllocReport {
    /// All allocation sites.
    pub sites: Vec<AllocSite>,
    /// User classes participating in a reference cycle of the field-type
    /// graph (the linked-structure heuristic).
    pub linked_classes: Vec<String>,
}

impl AllocReport {
    /// Sites that violate the allocation rule: reachable from the run
    /// phase.
    pub fn run_phase_sites(&self) -> impl Iterator<Item = &AllocSite> {
        self.sites.iter().filter(|s| s.in_run_phase)
    }
}

/// Analyzes allocations in `program`.
pub fn analyze(program: &Program, table: &ClassTable) -> AllocReport {
    let graph = callgraph::build(program, table);
    analyze_with_graph(program, table, &graph)
}

/// Like [`analyze`] but reuses an existing call graph.
pub fn analyze_with_graph(
    program: &Program,
    table: &ClassTable,
    graph: &CallGraph,
) -> AllocReport {
    // Initialization phase: all constructors (and, for classes without an
    // explicit one, nothing to chase) plus what they reach.
    let ctor_roots: Vec<MethodRef> = program
        .classes
        .iter()
        .flat_map(|c| {
            c.ctors
                .iter()
                .map(|d| MethodRef::ctor(&c.name, d.params.len()))
        })
        .collect();
    let init_methods = graph.reachable_from(ctor_roots.iter());

    // Run phase: the `run` behaviour of every ASR subclass and what it
    // reaches.
    let run_roots: Vec<MethodRef> = program
        .classes
        .iter()
        .filter(|c| table.is_subclass_of(&c.name, "ASR"))
        .filter(|c| c.method("run").is_some())
        .map(|c| MethodRef::method(&c.name, "run"))
        .collect();
    let run_methods = graph.reachable_from(run_roots.iter());

    let mut sites = Vec::new();
    for class in &program.classes {
        // Field initializers belong to the initialization phase.
        for field in &class.fields {
            if let Some(init) = &field.init {
                collect_sites(
                    init,
                    &MethodRef::ctor(&class.name, 0),
                    true,
                    false,
                    &mut sites,
                );
            }
        }
        for (decl, mref) in class
            .ctors
            .iter()
            .map(|c| (c, MethodRef::ctor(&class.name, c.params.len())))
            .chain(
                class
                    .methods
                    .iter()
                    .map(|m| (m, MethodRef::method(&class.name, &m.name))),
            )
        {
            let in_init = init_methods.contains(&mref);
            let in_run = run_methods.contains(&mref);
            walk_exprs(&decl.body, &mut |e| {
                collect_site(e, &mref, in_init, in_run, &mut sites);
            });
        }
    }

    AllocReport {
        sites,
        linked_classes: linked_classes(program),
    }
}

fn collect_sites(
    expr: &Expr,
    method: &MethodRef,
    in_init: bool,
    in_run: bool,
    sites: &mut Vec<AllocSite>,
) {
    walk_expr(expr, &mut |e| collect_site(e, method, in_init, in_run, sites));
}

fn collect_site(
    e: &Expr,
    method: &MethodRef,
    in_init: bool,
    in_run: bool,
    sites: &mut Vec<AllocSite>,
) {
    let kind = match &e.kind {
        ExprKind::NewObject { class, .. } => AllocKind::Object {
            class: class.clone(),
        },
        ExprKind::NewArray { elem, len } => AllocKind::Array {
            elem: elem.clone(),
            const_len: crate::loops::fold_const(len),
        },
        _ => return,
    };
    sites.push(AllocSite {
        expr_id: e.id,
        span: e.span,
        kind,
        method: method.clone(),
        in_init_phase: in_init,
        in_run_phase: in_run,
    });
}

/// Classes on a cycle of the field-type reference graph.
fn linked_classes(program: &Program) -> Vec<String> {
    let names: Vec<&str> = program.classes.iter().map(|c| c.name.as_str()).collect();
    let index = |n: &str| names.iter().position(|x| *x == n);
    let mut successors: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); names.len()];
    for (i, class) in program.classes.iter().enumerate() {
        for field in &class.fields {
            let mut base = &field.ty;
            while let Type::Array(inner) = base {
                base = inner;
            }
            if let Type::Class(target) = base {
                if let Some(j) = index(target) {
                    successors[i].insert(j);
                }
            }
        }
    }
    // A class is "linked" if it can reach itself through field references.
    let mut linked = Vec::new();
    for start in 0..names.len() {
        let mut seen = BTreeSet::new();
        let mut stack: Vec<usize> = successors[start].iter().copied().collect();
        while let Some(n) = stack.pop() {
            if n == start {
                linked.push(names[start].to_string());
                break;
            }
            if seen.insert(n) {
                stack.extend(successors[n].iter().copied());
            }
        }
    }
    linked
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend;

    fn report(src: &str) -> AllocReport {
        let (p, t) = frontend(src).unwrap();
        analyze(&p, &t)
    }

    #[test]
    fn ctor_allocation_is_init_phase() {
        let r = report(
            "class A extends ASR {
                 private int[] buf;
                 A() { buf = new int[16]; }
                 public void run() { write(0, buf[0]); }
             }",
        );
        assert_eq!(r.sites.len(), 1);
        assert!(r.sites[0].in_init_phase);
        assert!(!r.sites[0].in_run_phase);
        assert_eq!(r.run_phase_sites().count(), 0);
        assert!(matches!(
            &r.sites[0].kind,
            AllocKind::Array {
                const_len: Some(16),
                ..
            }
        ));
    }

    #[test]
    fn run_allocation_is_flagged() {
        let r = report(
            "class A extends ASR {
                 A() {}
                 public void run() { int[] scratch = new int[read(0)]; write(0, scratch.length); }
             }",
        );
        assert_eq!(r.run_phase_sites().count(), 1);
        let site = r.run_phase_sites().next().unwrap();
        assert!(matches!(
            &site.kind,
            AllocKind::Array {
                const_len: None,
                ..
            }
        ));
    }

    #[test]
    fn helper_called_from_both_phases_is_both() {
        let r = report(
            "class A extends ASR {
                 private int[] buf;
                 A() { buf = fill(); }
                 int[] fill() { return new int[4]; }
                 public void run() { int[] x = fill(); write(0, x[0] + buf[0]); }
             }",
        );
        assert_eq!(r.sites.len(), 1);
        assert!(r.sites[0].in_init_phase);
        assert!(r.sites[0].in_run_phase);
    }

    #[test]
    fn field_initializer_allocation_is_init() {
        let r = report("class A { private int[] buf = new int[8]; }");
        assert_eq!(r.sites.len(), 1);
        assert!(r.sites[0].in_init_phase);
        assert!(r.sites[0].method.is_ctor);
    }

    #[test]
    fn linked_structure_heuristic() {
        let r = report(
            "class Node { public int v; public Node next; }
             class Tree { public Pair left; }
             class Pair { public Tree owner; }
             class Plain { public int x; }",
        );
        assert!(r.linked_classes.contains(&"Node".to_string()));
        assert!(r.linked_classes.contains(&"Tree".to_string()));
        assert!(r.linked_classes.contains(&"Pair".to_string()));
        assert!(!r.linked_classes.contains(&"Plain".to_string()));
    }

    #[test]
    fn corpus_linked_queue_is_linked_and_allocates_in_run() {
        let r = report(jtlang::corpus::LINKED_QUEUE);
        assert!(r.linked_classes.contains(&"Node".to_string()));
        assert!(r.run_phase_sites().count() >= 1);
    }

    #[test]
    fn corpus_fir_is_clean() {
        let r = report(jtlang::corpus::FIR_FILTER);
        assert_eq!(r.run_phase_sites().count(), 0);
        assert!(r.linked_classes.is_empty());
        assert_eq!(r.sites.len(), 2);
    }

    #[test]
    fn object_allocation_inside_run_transitively() {
        let r = report(
            "class Helper { Helper() {} }
             class A extends ASR {
                 A() {}
                 void make() { Helper h = new Helper(); }
                 public void run() { make(); }
             }",
        );
        let flagged: Vec<_> = r.run_phase_sites().collect();
        assert_eq!(flagged.len(), 1);
        assert!(matches!(&flagged[0].kind, AllocKind::Object { class } if class == "Helper"));
    }
}
