//! Property-based differential testing of the three execution engines.
//!
//! Random (but type-correct by construction) JT programs are generated
//! and executed on the tree-walking interpreter, the bytecode VM, and —
//! when the reaction is in the compilable subset — the native tier; all
//! must produce the same outputs, or fail with the same runtime error.
//! Programs outside the subset (run-phase allocation, data-dependent
//! loops) must be *cleanly rejected* by the lowerer, never miscompiled.
//! This is the strongest evidence that the "jdk" vs "JIT" comparison of
//! Table 1 measures *performance*, not semantics.

use jtvm::engine::Engine;
use jtvm::interp::Interpreter;
use jtvm::io::PortDatum;
use jtvm::native::NativeVm;
use jtvm::vm::CompiledVm;
use proptest::prelude::*;

const VARS: [&str; 4] = ["x", "y", "z", "w"];

/// A random integer expression over the fixed variables. Division and
/// remainder are generated with a `+1`-guarded denominator magnitude so
/// most runs avoid division by zero (both engines must agree when it
/// does happen anyway).
fn arb_expr(depth: u32) -> BoxedStrategy<String> {
    let leaf = prop_oneof![
        (-20i64..=20).prop_map(|v| v.to_string()),
        (0usize..VARS.len()).prop_map(|i| VARS[i].to_string()),
    ];
    leaf.prop_recursive(depth, 16, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone(), 0usize..5).prop_map(|(a, b, op)| {
                let op = ["+", "-", "*", "/", "%"][op];
                if op == "/" || op == "%" {
                    // Guarded denominator: 1 + |b| % 7, never zero.
                    format!("({a}) {op} (1 + (({b}) % 7) * (({b}) % 7))")
                } else {
                    format!("({a}) {op} ({b})")
                }
            }),
            inner.prop_map(|a| format!("-({a})")),
        ]
    })
    .boxed()
}

/// A random statement: assignment, compound assignment, `if`, or a
/// constant-bounded `for` accumulation.
fn arb_stmt(depth: u32) -> BoxedStrategy<String> {
    let assign = (0usize..VARS.len(), arb_expr(depth))
        .prop_map(|(v, e)| format!("{} = ({e}) % 100000;", VARS[v]));
    let compound = (0usize..VARS.len(), arb_expr(depth), 0usize..5).prop_map(|(v, e, op)| {
        // All compound operators, `%=` and `/=` included; a zero
        // right-hand side is allowed — both engines must then fail with
        // the same DivisionByZero.
        format!("{} {}= ({e}) % 1000;", VARS[v], ["+", "-", "*", "/", "%"][op])
    });
    let leaf = prop_oneof![assign, compound];
    leaf.prop_recursive(2, 8, 2, move |inner| {
        prop_oneof![
            (arb_expr(1), arb_expr(1), inner.clone(), inner.clone()).prop_map(
                |(a, b, then_s, else_s)| {
                    format!("if (({a}) < ({b})) {{ {then_s} }} else {{ {else_s} }}")
                }
            ),
            (1i64..6, inner.clone(), 0usize..VARS.len()).prop_map(|(n, body, v)| {
                format!("for (int i9 = 0; i9 < {n}; i9++) {{ {body} {} += i9; }}", VARS[v])
            }),
        ]
    })
    .boxed()
}

fn program_of(stmts: &[String], result: &str) -> String {
    format!(
        "class P extends ASR {{
             P() {{}}
             public void run() {{
                 int x = read(0);
                 int y = read(1);
                 int z = read(2);
                 int w = 1;
                 {}
                 write(0, {result});
             }}
         }}",
        stmts.join("\n                 ")
    )
}

type ReactResult = Result<Vec<Option<PortDatum>>, jtvm::error::RuntimeError>;

/// Reaction outcome on all three engines. The native tier additionally
/// reports whether the lowerer accepted the reaction: `native` is `Ok`
/// with the react result when it lowered, or `Err(reject)` when the
/// program is outside the compilable subset (which must be a *clean*
/// rejection — rejected programs must never produce a wrong answer).
struct AllEngines {
    interp: ReactResult,
    vm: ReactResult,
    native: Result<ReactResult, String>,
}

fn run_all(source: &str, inputs: &[i64]) -> AllEngines {
    let ports: Vec<PortDatum> = inputs.iter().map(|&v| PortDatum::Int(v)).collect();
    let program = jtlang::parse(source).expect("generated program parses");
    let mut interp = Interpreter::new(program.clone(), "P").expect("interp builds");
    let mut vm = CompiledVm::new(program.clone(), "P").expect("vm builds");
    let mut native = NativeVm::new(program, "P").expect("native builds");
    interp.set_step_limit(5_000_000);
    vm.set_step_limit(5_000_000);
    native.set_step_limit(5_000_000);
    interp.initialize(&[]).expect("init");
    vm.initialize(&[]).expect("init");
    native.initialize(&[]).expect("init");
    let native = match native.reject_reason() {
        Some(reject) => Err(reject.to_string()),
        None => Ok(native.react(&ports)),
    };
    AllEngines { interp: interp.react(&ports), vm: vm.react(&ports), native }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn engines_agree_on_random_programs(
        stmts in proptest::collection::vec(arb_stmt(2), 1..5),
        result in arb_expr(2),
        a in -100i64..100,
        b in -100i64..100,
        c in -100i64..100,
    ) {
        let source = program_of(&stmts, &result);
        // The generated program must pass the front end…
        prop_assert!(jtlang::check_source(&source).is_ok(), "front end rejected:\n{source}");
        // …the pretty-printer must be round-trip stable on it…
        let parsed = jtlang::parse(&source).expect("parses");
        let printed = jtlang::pretty::print_program(&parsed);
        let reparsed = jtlang::parse(&printed).expect("printed output parses");
        prop_assert_eq!(
            jtlang::pretty::print_program(&reparsed),
            printed.clone(),
            "printer not stable on:\n{}",
            source
        );
        // …and all three engines must agree, success or failure. The
        // generated subset never allocates in `run` and only uses
        // constant-bounded loops, so the native lowerer must accept it.
        let r = run_all(&source, &[a, b, c]);
        prop_assert_eq!(&r.interp, &r.vm, "interp/vm disagree on:\n{}", source);
        match &r.native {
            Ok(n) => prop_assert_eq!(n, &r.vm, "native disagrees on:\n{}", source),
            Err(reject) => prop_assert!(
                false,
                "lowerer rejected an in-subset program ({}):\n{}",
                reject,
                source
            ),
        }
        // The printed form must also behave identically (the refinement
        // session executes re-parsed printed programs).
        let p = run_all(&printed, &[a, b, c]);
        prop_assert_eq!(&p.interp, &p.vm);
        prop_assert_eq!(p.native.as_ref().expect("printed form lowers"), &p.vm);
    }

    #[test]
    fn engines_agree_on_random_array_programs(
        len in 1i64..20,
        fill in arb_expr(1),
        idx in arb_expr(1),
    ) {
        // Arrays with possibly-out-of-bounds accesses: the *error* must
        // match too.
        let source = format!(
            "class P extends ASR {{
                 P() {{}}
                 public void run() {{
                     int x = read(0);
                     int y = read(1);
                     int z = 0;
                     int w = 1;
                     int[] buf = new int[{len}];
                     for (int i9 = 0; i9 < buf.length; i9++) {{
                         buf[i9] = ({fill}) % 1000;
                     }}
                     write(0, buf[{idx}]);
                 }}
             }}"
        );
        prop_assert!(jtlang::check_source(&source).is_ok(), "front end rejected:\n{source}");
        let r = run_all(&source, &[7, -3, 0]);
        prop_assert_eq!(&r.interp, &r.vm, "engines disagree on:\n{}", source);
        // These programs allocate the buffer *inside* `run`, which is
        // exactly what the SFR policy (and hence the native lowerer)
        // forbids: the native tier must reject them cleanly rather than
        // miscompile — the tier selection then falls back to the VM.
        match &r.native {
            Err(reject) => prop_assert!(
                reject.contains("alloc"),
                "expected an allocation reject, got: {}",
                reject
            ),
            Ok(n) => prop_assert!(false, "lowerer accepted a react-allocating program: {:?}", n),
        }
    }
}

#[test]
fn rem_assign_edge_cases_agree_across_engines() {
    // `%=` must fail like `%`: division by zero and the i64::MIN % -1
    // overflow are runtime errors, identical across engines.
    let cases = [
        // (body, expect_ok)
        ("x = 17; x %= 5; write(0, x);", true),
        ("x = -17; x %= 5; write(0, x);", true),
        ("x = 17; x %= y - y; write(0, x);", false), // DivisionByZero
        (
            "x = -9223372036854775807 - 1; x %= -1; write(0, x);",
            false, // Overflow, matching BinOp::Rem
        ),
    ];
    for (body, expect_ok) in cases {
        let source = format!(
            "class P extends ASR {{
                 P() {{}}
                 public void run() {{
                     int x = read(0);
                     int y = read(1);
                     int z = 0;
                     int w = 1;
                     {body}
                 }}
             }}"
        );
        // `%=` must survive the pretty-printer round trip.
        let parsed = jtlang::parse(&source).expect("parses");
        let printed = jtlang::pretty::print_program(&parsed);
        assert!(printed.contains("%="), "printer dropped %= in:\n{printed}");
        jtlang::parse(&printed).expect("printed output parses");
        let r = run_all(&source, &[7, 3, 0]);
        assert_eq!(r.interp.is_ok(), expect_ok, "unexpected outcome for `{body}`: {:?}", r.interp);
        assert_eq!(r.interp, r.vm, "engines disagree on `{body}`");
        // Constant-foldable error cases: the lowerer must keep the error
        // on its path rather than fold it away or reject the program.
        assert_eq!(
            r.native.expect("edge-case programs are in the native subset"),
            r.vm,
            "native disagrees on `{body}`"
        );
    }
}

#[test]
fn engines_agree_on_overloaded_constructors() {
    // `new` selects a constructor by argument count on every engine.
    let source = "class C {
             public int v;
             C() { v = 1; }
             C(int a) { v = a + 100; }
         }
         class P extends ASR {
             private C c0;
             private C c1;
             P() { c0 = new C(); c1 = new C(5); }
             public void run() { write(0, c0.v * 1000 + c1.v + read(0)); }
         }";
    let r = run_all(source, &[7]);
    assert_eq!(r.interp, Ok(vec![Some(PortDatum::Int(1112))]));
    assert_eq!(r.interp, r.vm);
    if let Ok(native) = r.native {
        assert_eq!(native, r.vm);
    }
    // So does initializing the block itself, which the native tier
    // lowers.
    let source = "class P extends ASR {
             private int v;
             P() { v = 1; }
             P(int a) { v = a + 100; }
             public void run() { write(0, v + read(0)); }
         }";
    for (args, expect) in [(vec![], 8), (vec![5], 112)] {
        let args: Vec<jtvm::value::RtValue> =
            args.into_iter().map(jtvm::value::RtValue::Int).collect();
        let program = jtlang::parse(source).unwrap();
        let mut interp = Interpreter::new(program.clone(), "P").unwrap();
        let mut vm = CompiledVm::new(program.clone(), "P").unwrap();
        let mut native = NativeVm::new(program, "P").unwrap();
        interp.initialize(&args).unwrap();
        vm.initialize(&args).unwrap();
        native.initialize(&args).unwrap();
        assert_eq!(native.reject_reason(), None);
        let ports = [PortDatum::Int(7)];
        let out = interp.react(&ports).unwrap();
        assert_eq!(out, vec![Some(PortDatum::Int(expect))]);
        assert_eq!(out, vm.react(&ports).unwrap());
        assert_eq!(out, native.react(&ports).unwrap());
    }
}

#[test]
fn engines_agree_on_all_corpus_reactive_samples() {
    for (source, class, ctor, inputs) in [
        (jtlang::corpus::COUNTER.to_string(), "Counter", vec![9i64], vec![4i64]),
        (jtlang::corpus::FIR_FILTER.to_string(), "Fir", vec![], vec![3]),
        (jtlang::corpus::TRAFFIC_LIGHT.to_string(), "TrafficLight", vec![], vec![1]),
    ] {
        let ports: Vec<PortDatum> = inputs.iter().map(|&v| PortDatum::Int(v)).collect();
        let args: Vec<jtvm::value::RtValue> =
            ctor.iter().map(|&v| jtvm::value::RtValue::Int(v)).collect();
        let program = jtlang::parse(&source).unwrap();
        let mut interp = Interpreter::new(program.clone(), class).unwrap();
        let mut vm = CompiledVm::new(program.clone(), class).unwrap();
        let mut native = NativeVm::new(program, class).unwrap();
        interp.initialize(&args).unwrap();
        vm.initialize(&args).unwrap();
        native.initialize(&args).unwrap();
        assert!(
            native.reject_reason().is_none(),
            "{class} should be native-compilable: {:?}",
            native.reject_reason()
        );
        for _ in 0..10 {
            let out = interp.react(&ports).unwrap();
            assert_eq!(out, vm.react(&ports).unwrap());
            assert_eq!(out, native.react(&ports).unwrap());
        }
    }
}
