//! Method-level call graph and recursion detection.
//!
//! The ASR policy of use forbids "circular method invocations" (paper
//! §4.3): any cycle in the call graph could defeat the bounded-execution
//! guarantee. We build one node per user method/constructor and resolve
//! call sites by the *static* type of the receiver — consistent with the
//! compile-time binding assumption of §4. Calls into the builtin library
//! are recorded as leaf edges.

use crate::MethodRef;
use jtlang::ast::*;
use jtlang::resolve::ClassTable;
use jtlang::types::type_of_expr;
use std::collections::{BTreeMap, BTreeSet};

/// The call graph of a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallGraph {
    /// All user-defined methods and constructors.
    pub nodes: Vec<MethodRef>,
    /// Edges caller → callees (user methods only).
    pub edges: BTreeMap<MethodRef, BTreeSet<MethodRef>>,
    /// Calls from a user method into the builtin library (receiver-owner
    /// class and method name).
    pub builtin_calls: BTreeMap<MethodRef, BTreeSet<String>>,
}

impl CallGraph {
    /// The user methods directly called by `caller`.
    pub fn callees(&self, caller: &MethodRef) -> impl Iterator<Item = &MethodRef> {
        self.edges.get(caller).into_iter().flatten()
    }

    /// All methods reachable from `roots` (inclusive), following user
    /// edges.
    pub fn reachable_from<'a>(
        &self,
        roots: impl IntoIterator<Item = &'a MethodRef>,
    ) -> BTreeSet<MethodRef> {
        let mut seen: BTreeSet<MethodRef> = BTreeSet::new();
        let mut stack: Vec<MethodRef> = roots.into_iter().cloned().collect();
        while let Some(m) = stack.pop() {
            if !seen.insert(m.clone()) {
                continue;
            }
            for c in self.callees(&m) {
                if !seen.contains(c) {
                    stack.push(c.clone());
                }
            }
        }
        seen
    }

    /// Strongly connected components that form call cycles (size > 1, or
    /// a self-recursive method).
    pub fn recursive_cycles(&self) -> Vec<Vec<MethodRef>> {
        let (sccs, succ) = self.sccs();
        sccs.into_iter()
            .filter(|scc| scc.len() > 1 || succ[scc[0]].contains(&scc[0]))
            .map(|scc| scc.into_iter().map(|i| self.nodes[i].clone()).collect())
            .collect()
    }

    /// The SCC condensation of the call graph, in *bottom-up* order:
    /// every callee's component appears before its callers' (Tarjan
    /// emits components in reverse topological order). This is the
    /// evaluation order of the interprocedural summary engine
    /// ([`crate::summary`]): when a component is processed, all
    /// summaries it depends on are already final, except for edges
    /// inside the component itself, which the engine iterates.
    pub fn condensation(&self) -> Vec<Vec<MethodRef>> {
        let (sccs, _) = self.sccs();
        sccs.into_iter()
            .map(|scc| scc.into_iter().map(|i| self.nodes[i].clone()).collect())
            .collect()
    }

    /// Runs Tarjan over the user-call edges, returning the components
    /// (callees first) plus the successor lists used to build them.
    fn sccs(&self) -> (Vec<Vec<usize>>, Vec<Vec<usize>>) {
        let index: BTreeMap<&MethodRef, usize> =
            self.nodes.iter().enumerate().map(|(i, m)| (m, i)).collect();
        let succ: Vec<Vec<usize>> = self
            .nodes
            .iter()
            .map(|m| {
                self.callees(m)
                    .filter_map(|c| index.get(c).copied())
                    .collect()
            })
            .collect();
        (tarjan(self.nodes.len(), &succ), succ)
    }
}

/// Builds the call graph of `program`.
pub fn build(program: &Program, table: &ClassTable) -> CallGraph {
    let mut nodes = Vec::new();
    let mut edges: BTreeMap<MethodRef, BTreeSet<MethodRef>> = BTreeMap::new();
    let mut builtin_calls: BTreeMap<MethodRef, BTreeSet<String>> = BTreeMap::new();

    for (class, decl, mref) in crate::each_method(program) {
        nodes.push(mref.clone());
        let mut user_callees = BTreeSet::new();
        let mut builtins = BTreeSet::new();
        collect_calls(table, class, decl, &mut user_callees, &mut builtins);
        edges.insert(mref.clone(), user_callees);
        if !builtins.is_empty() {
            builtin_calls.insert(mref, builtins);
        }
    }
    CallGraph {
        nodes,
        edges,
        builtin_calls,
    }
}

fn collect_calls(
    table: &ClassTable,
    class: &ClassDecl,
    decl: &MethodDecl,
    user_callees: &mut BTreeSet<MethodRef>,
    builtins: &mut BTreeSet<String>,
) {
    walk_exprs(&decl.body, &mut |e| {
        note_call(table, class, decl, e, user_callees, builtins)
    });
}

/// The user methods the field initializers of `class` call, typed in
/// its constructor `ctor` as the WCET fold evaluates them: a
/// constructor's bound includes them, though its call-graph edges do
/// not.
pub(crate) fn init_callees(
    table: &ClassTable,
    class: &ClassDecl,
    ctor: &MethodDecl,
) -> BTreeSet<MethodRef> {
    let (mut user_callees, mut builtins) = (BTreeSet::new(), BTreeSet::new());
    for init in class.fields.iter().filter_map(|f| f.init.as_ref()) {
        walk_expr(init, &mut |e| {
            note_call(table, class, ctor, e, &mut user_callees, &mut builtins)
        });
    }
    user_callees
}

/// Records the call `e` makes, if it is one, typed in `decl`.
fn note_call(
    table: &ClassTable,
    class: &ClassDecl,
    decl: &MethodDecl,
    e: &Expr,
    user_callees: &mut BTreeSet<MethodRef>,
    builtins: &mut BTreeSet<String>,
) {
    match &e.kind {
        ExprKind::Call {
            receiver, method, ..
        } => {
            let recv_class = match receiver {
                None => Some(class.name.clone()),
                Some(r) => match type_of_expr(table, class, Some(decl), r) {
                    Ok(Type::Class(c)) => Some(c),
                    _ => None,
                },
            };
            let Some(recv_class) = recv_class else { return };
            if let Some((owner, sig)) = table.method_of(&recv_class, method) {
                if sig.is_builtin {
                    builtins.insert(format!("{owner}.{method}"));
                } else {
                    // Virtual dispatch could land in any override; the
                    // static owner is the conservative target under the
                    // compile-time binding assumption. Overrides in the
                    // receiver's own class take precedence.
                    user_callees.insert(MethodRef::method(owner, method));
                }
            }
        }
        ExprKind::NewObject { class: c, args }
            if table
                .class(c)
                .is_some_and(|info| !info.is_builtin && !info.ctors.is_empty()) =>
        {
            user_callees.insert(MethodRef::ctor(c, args.len()));
        }
        _ => {}
    }
}

/// Iterative Tarjan SCC (same shape as the one in `asr::causality`, over
/// plain indices).
pub(crate) fn tarjan(n: usize, successors: &[Vec<usize>]) -> Vec<Vec<usize>> {
    #[derive(Clone, Copy)]
    struct NodeData {
        index: usize,
        lowlink: usize,
        on_stack: bool,
        visited: bool,
    }
    let mut data = vec![
        NodeData {
            index: 0,
            lowlink: 0,
            on_stack: false,
            visited: false,
        };
        n
    ];
    let mut next_index = 0usize;
    let mut stack: Vec<usize> = Vec::new();
    let mut sccs: Vec<Vec<usize>> = Vec::new();
    for root in 0..n {
        if data[root].visited {
            continue;
        }
        let mut dfs: Vec<(usize, usize)> = vec![(root, 0)];
        while let Some(&(v, pos)) = dfs.last() {
            if pos == 0 {
                data[v].visited = true;
                data[v].index = next_index;
                data[v].lowlink = next_index;
                next_index += 1;
                stack.push(v);
                data[v].on_stack = true;
            }
            if let Some(&w) = successors[v].get(pos) {
                dfs.last_mut().expect("non-empty").1 += 1;
                if !data[w].visited {
                    dfs.push((w, 0));
                } else if data[w].on_stack {
                    data[v].lowlink = data[v].lowlink.min(data[w].index);
                }
            } else {
                dfs.pop();
                if let Some(&(parent, _)) = dfs.last() {
                    data[parent].lowlink = data[parent].lowlink.min(data[v].lowlink);
                }
                if data[v].lowlink == data[v].index {
                    let mut scc = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        data[w].on_stack = false;
                        scc.push(w);
                        if w == v {
                            break;
                        }
                    }
                    scc.sort_unstable();
                    sccs.push(scc);
                }
            }
        }
    }
    sccs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend;

    fn graph(src: &str) -> CallGraph {
        let (p, t) = frontend(src).unwrap();
        build(&p, &t)
    }

    #[test]
    fn direct_and_receiver_calls_resolve() {
        let g = graph(
            "class A { void m() { n(); } void n() {} }
             class B { void k(A a) { a.m(); } }",
        );
        let am = MethodRef::method("A", "m");
        assert!(g.callees(&am).any(|c| c == &MethodRef::method("A", "n")));
        let bk = MethodRef::method("B", "k");
        assert!(g.callees(&bk).any(|c| c == &am));
    }

    #[test]
    fn constructor_edges_from_new() {
        let g = graph("class A { A() {} } class B { void m() { A a = new A(); } }");
        let bm = MethodRef::method("B", "m");
        assert!(g.callees(&bm).any(|c| c == &MethodRef::ctor("A", 0)));
    }

    #[test]
    fn self_recursion_is_a_cycle() {
        let g = graph("class A { int f(int n) { if (n < 1) { return 0; } return f(n - 1); } }");
        let cycles = g.recursive_cycles();
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0], vec![MethodRef::method("A", "f")]);
    }

    #[test]
    fn mutual_recursion_is_a_cycle() {
        let g = graph(
            "class A {
                 int even(int n) { if (n == 0) { return 1; } return odd(n - 1); }
                 int odd(int n) { if (n == 0) { return 0; } return even(n - 1); }
             }",
        );
        let cycles = g.recursive_cycles();
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].len(), 2);
    }

    #[test]
    fn acyclic_graph_has_no_cycles() {
        let g = graph("class A { void a() { b(); } void b() { c(); } void c() {} }");
        assert!(g.recursive_cycles().is_empty());
    }

    #[test]
    fn builtin_calls_are_separated() {
        let g = graph(
            "class F extends ASR { public void run() { int v = read(0); write(0, v); } }",
        );
        let run = MethodRef::method("F", "run");
        let b = g.builtin_calls.get(&run).unwrap();
        assert!(b.contains("ASR.read"));
        assert!(b.contains("ASR.write"));
        assert!(g.callees(&run).next().is_none());
    }

    #[test]
    fn reachable_from_walks_transitively() {
        let g = graph(
            "class A { A() { init(); } void init() { helper(); } void helper() {}
                       void run() { helper(); } void unused() {} }",
        );
        let from_ctor = g.reachable_from([&MethodRef::ctor("A", 0)]);
        assert!(from_ctor.contains(&MethodRef::method("A", "init")));
        assert!(from_ctor.contains(&MethodRef::method("A", "helper")));
        assert!(!from_ctor.contains(&MethodRef::method("A", "run")));
        assert!(!from_ctor.contains(&MethodRef::method("A", "unused")));
    }

    #[test]
    fn condensation_is_bottom_up() {
        let g = graph(
            "class A {
                 void top() { mid(); }
                 void mid() { leaf(); peer(); }
                 void peer() { mid(); }
                 void leaf() {}
             }",
        );
        let sccs = g.condensation();
        let pos = |name: &str| {
            sccs.iter()
                .position(|scc| scc.iter().any(|m| m.method == name))
                .unwrap_or_else(|| panic!("{name} missing from condensation"))
        };
        // Callees strictly before callers; the mid/peer cycle is one
        // component.
        assert!(pos("leaf") < pos("mid"));
        assert!(pos("mid") < pos("top"));
        assert_eq!(pos("mid"), pos("peer"));
        let total: usize = sccs.iter().map(Vec::len).sum();
        assert_eq!(total, g.nodes.len());
    }

    #[test]
    fn corpus_recursive_sample_detected() {
        let (p, t) = frontend(jtlang::corpus::RECURSIVE_BLOCKING).unwrap();
        let g = build(&p, &t);
        assert_eq!(g.recursive_cycles().len(), 1);
    }
}
