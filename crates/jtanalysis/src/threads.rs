//! Thread-construct usage detection.
//!
//! The paper could not "guarantee deterministic behavior in multithreaded
//! programs without severely limiting … Java's threads package", so the
//! ASR policy of use prohibits direct thread use outright (§4.3, Fig. 8);
//! concurrency is expressed as separate functional blocks instead. This
//! module finds every way a program touches threads: subclassing
//! `Thread`, instantiating thread classes, and calling the thread
//! lifecycle methods.

use crate::MethodRef;
use jtlang::ast::*;
use jtlang::resolve::ClassTable;
use jtlang::token::Span;
use jtlang::types::type_of_expr;

/// How threads are used at one site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ThreadUseKind {
    /// A user class extends `Thread` (directly or transitively).
    ExtendsThread {
        /// The subclassing class.
        class: String,
    },
    /// `new C(…)` where `C` is a `Thread` subtype.
    NewThread {
        /// Instantiated class.
        class: String,
    },
    /// A call to a thread lifecycle method (`start`, `join`, `sleep`).
    LifecycleCall {
        /// Which method.
        method: String,
    },
}

/// One detected thread use.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadUse {
    /// What was used.
    pub kind: ThreadUseKind,
    /// Where (class declaration span or call span).
    pub span: Span,
    /// The method containing the use, when it is a use site (not a
    /// declaration).
    pub method: Option<MethodRef>,
}

/// Finds every thread use in `program`.
pub fn analyze(program: &Program, table: &ClassTable) -> Vec<ThreadUse> {
    let mut uses = Vec::new();
    for class in &program.classes {
        if table.is_subclass_of(&class.name, "Thread") {
            uses.push(ThreadUse {
                kind: ThreadUseKind::ExtendsThread {
                    class: class.name.clone(),
                },
                span: class.span,
                method: None,
            });
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
            walk_exprs(&decl.body, &mut |e| match &e.kind {
                ExprKind::NewObject { class: c, .. }
                    if table.is_subclass_of(c, "Thread") =>
                {
                    uses.push(ThreadUse {
                        kind: ThreadUseKind::NewThread { class: c.clone() },
                        span: e.span,
                        method: Some(mref.clone()),
                    });
                }
                ExprKind::Call {
                    receiver: Some(r),
                    method,
                    ..
                } if matches!(method.as_str(), "start" | "join" | "sleep") => {
                    if let Ok(Type::Class(c)) = type_of_expr(table, class, Some(decl), r) {
                        if table.is_subclass_of(&c, "Thread") {
                            uses.push(ThreadUse {
                                kind: ThreadUseKind::LifecycleCall {
                                    method: method.clone(),
                                },
                                span: e.span,
                                method: Some(mref.clone()),
                            });
                        }
                    }
                }
                _ => {}
            });
        }
    }
    uses
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend;

    fn uses(src: &str) -> Vec<ThreadUse> {
        let (p, t) = frontend(src).unwrap();
        analyze(&p, &t)
    }

    #[test]
    fn plain_classes_use_no_threads() {
        assert!(uses("class A { void m() {} }").is_empty());
        assert!(uses(jtlang::corpus::COUNTER).is_empty());
    }

    #[test]
    fn extends_thread_detected_transitively() {
        let u = uses("class W extends Thread { public void run() {} } class V extends W {}");
        let classes: Vec<_> = u
            .iter()
            .filter_map(|u| match &u.kind {
                ThreadUseKind::ExtendsThread { class } => Some(class.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(classes, vec!["W", "V"]);
    }

    #[test]
    fn new_and_lifecycle_calls_detected() {
        let u = uses(
            "class W extends Thread { public void run() {} }
             class M {
                 void go() {
                     W w = new W();
                     w.start();
                     w.join();
                 }
             }",
        );
        assert!(u
            .iter()
            .any(|x| matches!(&x.kind, ThreadUseKind::NewThread { class } if class == "W")));
        assert!(u
            .iter()
            .any(|x| matches!(&x.kind, ThreadUseKind::LifecycleCall { method } if method == "start")));
        assert!(u
            .iter()
            .any(|x| matches!(&x.kind, ThreadUseKind::LifecycleCall { method } if method == "join")));
        let go_uses = u.iter().filter(|x| x.method.is_some()).count();
        assert_eq!(go_uses, 3);
    }

    #[test]
    fn corpus_racy_threads_is_saturated_with_uses() {
        let u = uses(jtlang::corpus::RACY_THREADS);
        let extends = u
            .iter()
            .filter(|x| matches!(x.kind, ThreadUseKind::ExtendsThread { .. }))
            .count();
        let news = u
            .iter()
            .filter(|x| matches!(x.kind, ThreadUseKind::NewThread { .. }))
            .count();
        let calls = u
            .iter()
            .filter(|x| matches!(x.kind, ThreadUseKind::LifecycleCall { .. }))
            .count();
        assert_eq!(extends, 3, "WriterA, WriterB, ReaderC");
        assert_eq!(news, 3);
        assert_eq!(calls, 6, "three starts and three joins");
    }

    #[test]
    fn start_on_non_thread_is_not_flagged() {
        let u = uses("class A { void start() {} void m(A o) { o.start(); } }");
        assert!(u.is_empty());
    }
}
