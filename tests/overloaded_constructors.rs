//! Overloaded constructors: one member identity per declaration.
//!
//! JT selects a constructor by argument count, so a class may declare
//! several of different arities and the resolver rejects two of one
//! arity. Every analysis keys a constructor by its class and arity;
//! these regressions pin the failures a class-keyed constructor caused:
//! a panic in the policy check, a loop finding reported against the
//! wrong constructor, and engines that ran different constructors.

use jtanalysis::evidence::{self, Evidence};
use jtlang::resolve::ResolveError;
use sfr::policy::{evidence_for, AnalysisContext, Policy};
use sfr::session::RefinementSession;

/// `P` allocates through the zero-argument constructor of a class that
/// also declares a one-argument one.
const OVERLOADED: &str = "class C {
         public int v;
         C() { v = 1; }
         C(int a) { v = a; }
     }
     class P extends ASR {
         private C c;
         P() { c = new C(); }
         public void run() { write(0, c.v); }
     }";

#[test]
fn policy_check_of_overloaded_constructors_does_not_panic() {
    let (program, table) = jtanalysis::frontend(OVERLOADED).unwrap();
    let violations = Policy::asr().check(&program, &table);
    assert!(violations.iter().all(|v| v.rule != "R2"), "{violations:?}");
}

#[test]
fn session_check_of_overloaded_constructors_does_not_panic() {
    let (program, table) = jtanalysis::frontend(OVERLOADED).unwrap();
    let session = RefinementSession::from_source(OVERLOADED, Policy::asr()).unwrap();
    assert_eq!(session.check(), Policy::asr().check(&program, &table));
    // A warm re-check after an edit of the second constructor.
    let mut session = session;
    session
        .replace_source(&OVERLOADED.replace("v = a;", "v = a + 1;"))
        .unwrap();
    let edited = OVERLOADED.replace("v = a;", "v = a + 1;");
    let (program, table) = jtanalysis::frontend(&edited).unwrap();
    assert_eq!(session.check(), Policy::asr().check(&program, &table));
}

#[test]
fn unbounded_loop_in_the_second_constructor_is_reported_against_it() {
    let src = "class C {
             public int s;
             C() { s = 0; }
             C(int n) { s = 0; for (int i = 0; i < n; i = i + s) { s = s + 1; } }
         }
         class P extends ASR {
             private C c;
             private C d;
             P() { c = new C(); d = new C(3); }
             public void run() { write(0, c.s + d.s); }
         }";
    let (program, table) = jtanalysis::frontend(src).unwrap();
    let second = &program.classes[0].ctors[1];
    let cx = AnalysisContext::new(&program, &table);
    let violations = Policy::asr().check_with_context(&cx);
    let r2: Vec<_> = violations.iter().filter(|v| v.rule == "R2").collect();
    assert_eq!(r2.len(), 1, "{violations:?}");
    let v = r2[0];
    assert!(v.message.contains("C.<init>/1"), "{}", v.message);
    assert!(
        second.span.start <= v.span.start && v.span.end <= second.body.span.end,
        "{:?} lies outside the second constructor",
        v.span
    );
    let ev = evidence_for(&cx.flow, v).expect("R2 finding carries evidence");
    let Evidence::LoopBound { method, .. } = ev else {
        panic!("not loop-bound evidence: {ev:?}");
    };
    assert_eq!(method, "C.<init>/1");
    evidence::verify(&program, &table, ev).unwrap();
}

#[test]
fn constructors_of_one_arity_are_rejected() {
    // The interpreter ran the first of these and the VM the last.
    let src = "class C {
             public int v;
             C(int a) { v = a; }
             C(int b) { v = b + 100; }
         }
         class P extends ASR {
             private C c;
             P() { c = new C(6); }
             public void run() { write(0, c.v); }
         }";
    let program = jtlang::parse(src).unwrap();
    assert_eq!(
        jtlang::resolve::resolve(&program),
        Err(ResolveError::DuplicateConstructor {
            class: "C".to_string(),
            arity: 1,
        })
    );
    assert!(RefinementSession::from_source(src, Policy::asr()).is_err());
}
