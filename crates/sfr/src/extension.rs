//! The class-library extension: the `ASR` base-class contract.
//!
//! Extensions "introduce semantics present in T that have no equivalent
//! in S" (paper §2); in the ASR policy the extension is the `ASR` base
//! class of §4.2 (Fig. 7): input and output ports plus the `run` method
//! whose invocation delimits an instant. This module verifies that a
//! class uses the extension correctly and infers its port interface —
//! the information the embedding step needs to wire the class into a
//! block diagram.

use jtanalysis::callgraph;
use jtanalysis::loops::fold_const;
use jtanalysis::MethodRef;
use jtlang::ast::*;
use jtlang::resolve::ClassTable;
use jtlang::token::Span;
use std::fmt;

/// The inferred port interface of an ASR class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AsrInterface {
    /// Number of input ports (`1 + max` constant index passed to
    /// `read`/`readVec`).
    pub inputs: usize,
    /// Number of output ports (`1 + max` constant index passed to
    /// `write`/`writeVec`).
    pub outputs: usize,
}

/// Ways a class can violate the ASR contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ContractError {
    /// The class does not extend `ASR`.
    NotAsrSubclass,
    /// No `run` method is defined anywhere in the user class chain.
    NoRunMethod,
    /// `run` must take no parameters.
    RunHasParams,
    /// `run` must be void.
    RunReturnsValue,
    /// A port index passed to `read`/`write`/… is not a compile-time
    /// constant, so the interface cannot be determined.
    NonConstantPort {
        /// Where the offending call is.
        span: Span,
    },
}

impl fmt::Display for ContractError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ContractError::NotAsrSubclass => write!(f, "class does not extend ASR"),
            ContractError::NoRunMethod => write!(f, "no run() method defined"),
            ContractError::RunHasParams => write!(f, "run() must take no parameters"),
            ContractError::RunReturnsValue => write!(f, "run() must be void"),
            ContractError::NonConstantPort { span } => {
                write!(f, "port index at {span} is not a compile-time constant")
            }
        }
    }
}

impl std::error::Error for ContractError {}

/// Verifies the ASR contract for `class` and infers its port interface.
///
/// # Errors
///
/// See [`ContractError`].
pub fn verify(
    program: &Program,
    table: &ClassTable,
    class: &str,
) -> Result<AsrInterface, ContractError> {
    if !table.is_subclass_of(class, "ASR") {
        return Err(ContractError::NotAsrSubclass);
    }
    // Find the user-defined run() walking the chain.
    let mut run_owner: Option<&ClassDecl> = None;
    let mut cur = Some(class.to_string());
    while let Some(cname) = cur {
        if let Some(decl) = program.class(&cname) {
            if decl.method("run").is_some() {
                run_owner = Some(decl);
                break;
            }
        }
        cur = table.class(&cname).and_then(|c| c.superclass.clone());
    }
    let Some(owner) = run_owner else {
        return Err(ContractError::NoRunMethod);
    };
    let run = owner.method("run").expect("checked above");
    if !run.params.is_empty() {
        return Err(ContractError::RunHasParams);
    }
    if run.return_type.is_some() {
        return Err(ContractError::RunReturnsValue);
    }

    // Infer ports from every method reachable from run.
    let graph = callgraph::build(program, table);
    let root = MethodRef::method(&owner.name, "run");
    let reachable = graph.reachable_from([&root]);
    let mut max_in: Option<usize> = None;
    let mut max_out: Option<usize> = None;
    let mut error: Option<ContractError> = None;

    for mref in &reachable {
        let Some((_, decl)) = jtanalysis::decl_of(program, mref) else {
            continue;
        };
        walk_exprs(&decl.body, &mut |e| {
            if error.is_some() {
                return;
            }
            let ExprKind::Call {
                receiver,
                method,
                args,
            } = &e.kind
            else {
                return;
            };
            let is_port_call = matches!(
                method.as_str(),
                "read" | "readVec" | "write" | "writeVec"
            );
            if !is_port_call || args.is_empty() {
                return;
            }
            // Only count calls that resolve to the builtin (a user method
            // named `read` shadows it).
            let recv_ok = match receiver {
                None => true,
                Some(r) => matches!(r.kind, ExprKind::This),
            };
            if !recv_ok {
                return;
            }
            let resolves_builtin = table
                .method_of(&mref.class, method)
                .is_some_and(|(_, sig)| sig.is_builtin);
            if !resolves_builtin {
                return;
            }
            match fold_const(&args[0]) {
                Some(port) if port >= 0 => {
                    let port = port as usize;
                    let slot = if method.starts_with("read") {
                        &mut max_in
                    } else {
                        &mut max_out
                    };
                    *slot = Some(slot.map_or(port, |m: usize| m.max(port)));
                }
                _ => error = Some(ContractError::NonConstantPort { span: e.span }),
            }
        });
    }
    if let Some(e) = error {
        return Err(e);
    }
    Ok(AsrInterface {
        inputs: max_in.map_or(0, |m| m + 1),
        outputs: max_out.map_or(0, |m| m + 1),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use jtanalysis::frontend;

    fn verify_src(src: &str, class: &str) -> Result<AsrInterface, ContractError> {
        let (p, t) = frontend(src).unwrap();
        verify(&p, &t, class)
    }

    #[test]
    fn counter_has_one_in_one_out() {
        let i = verify_src(jtlang::corpus::COUNTER, "Counter").unwrap();
        assert_eq!(i, AsrInterface { inputs: 1, outputs: 1 });
    }

    #[test]
    fn multi_port_interfaces_are_inferred() {
        let i = verify_src(
            "class Mix extends ASR {
                 Mix() {}
                 public void run() {
                     int a = read(0);
                     int b = read(2);
                     write(1, a + b);
                     helper();
                 }
                 void helper() { write(3, read(1)); }
             }",
            "Mix",
        )
        .unwrap();
        assert_eq!(i, AsrInterface { inputs: 3, outputs: 4 });
    }

    #[test]
    fn contract_errors() {
        assert_eq!(
            verify_src("class A { void run() {} }", "A").unwrap_err(),
            ContractError::NotAsrSubclass
        );
        assert_eq!(
            verify_src("class A extends ASR { A() {} }", "A").unwrap_err(),
            ContractError::NoRunMethod
        );
        assert_eq!(
            verify_src(
                "class A extends ASR { A() {} public void run(int x) {} }",
                "A"
            )
            .unwrap_err(),
            ContractError::RunHasParams
        );
        assert_eq!(
            verify_src(
                "class A extends ASR { A() {} public int run() { return 0; } }",
                "A"
            )
            .unwrap_err(),
            ContractError::RunReturnsValue
        );
        assert!(matches!(
            verify_src(
                "class A extends ASR {
                     A() {}
                     public void run() { write(read(0), 1); }
                 }",
                "A"
            )
            .unwrap_err(),
            ContractError::NonConstantPort { .. }
        ));
    }

    #[test]
    fn inherited_run_satisfies_the_contract() {
        let i = verify_src(
            "class Base extends ASR { Base() {} public void run() { write(0, read(0)); } }
             class Derived extends Base { Derived() {} }",
            "Derived",
        )
        .unwrap();
        assert_eq!(i, AsrInterface { inputs: 1, outputs: 1 });
    }

    #[test]
    fn portless_block_is_legal() {
        let i = verify_src(
            "class Silent extends ASR { Silent() {} public void run() { int x = 1; } }",
            "Silent",
        )
        .unwrap();
        assert_eq!(i, AsrInterface { inputs: 0, outputs: 0 });
    }
}
