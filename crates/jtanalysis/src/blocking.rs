//! Detection of calls that may suspend execution indefinitely.
//!
//! Bounded reaction time forbids "use of methods that may halt or
//! indefinitely suspend thread execution" (paper §4.3). In the JT builtin
//! library those are `Object.wait`, `Thread.join`, and `Thread.sleep`.

use crate::MethodRef;
use jtlang::ast::*;
use jtlang::resolve::ClassTable;
use jtlang::token::Span;
use jtlang::types::type_of_expr;

/// The method names that may suspend execution indefinitely.
pub const BLOCKING_METHODS: [&str; 3] = ["wait", "join", "sleep"];

/// One call to a potentially blocking builtin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockingCall {
    /// The calling method.
    pub method: MethodRef,
    /// Qualified callee (`Object.wait`, `Thread.join`, …).
    pub callee: String,
    /// Source span of the call.
    pub span: Span,
}

/// Finds every blocking call in `program`.
pub fn analyze(program: &Program, table: &ClassTable) -> Vec<BlockingCall> {
    let mut calls = Vec::new();
    for (class, decl, mref) in crate::each_method(program) {
        walk_exprs(&decl.body, &mut |e| {
            let ExprKind::Call {
                receiver, method, ..
            } = &e.kind
            else {
                return;
            };
            if !BLOCKING_METHODS.contains(&method.as_str()) {
                return;
            }
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
                    calls.push(BlockingCall {
                        method: mref.clone(),
                        callee: format!("{owner}.{method}"),
                        span: e.span,
                    });
                }
            }
        });
    }
    calls
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend;

    fn calls(src: &str) -> Vec<BlockingCall> {
        let (p, t) = frontend(src).unwrap();
        analyze(&p, &t)
    }

    #[test]
    fn wait_join_sleep_detected() {
        let c = calls(
            "class W extends Thread { public void run() { sleep(5); } }
             class M { void m(W w) { w.join(); w.wait(); } }",
        );
        let callees: Vec<&str> = c.iter().map(|c| c.callee.as_str()).collect();
        assert!(callees.contains(&"Thread.sleep"));
        assert!(callees.contains(&"Thread.join"));
        assert!(callees.contains(&"Object.wait"));
    }

    #[test]
    fn user_methods_with_blocking_names_are_not_flagged() {
        let c = calls("class A { void sleep(int x) {} void m() { sleep(1); } }");
        assert!(c.is_empty());
    }

    #[test]
    fn wait_on_plain_object_is_blocking() {
        // Every class inherits Object.wait.
        let c = calls("class A { void m(A o) { o.wait(); } }");
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].callee, "Object.wait");
        assert_eq!(c[0].method, MethodRef::method("A", "m"));
    }

    #[test]
    fn corpus_recursive_blocking_has_a_wait() {
        let c = calls(jtlang::corpus::RECURSIVE_BLOCKING);
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].callee, "Object.wait");
    }

    #[test]
    fn clean_samples_have_none() {
        assert!(calls(jtlang::corpus::COUNTER).is_empty());
        assert!(calls(jtlang::corpus::FIR_FILTER).is_empty());
    }
}
