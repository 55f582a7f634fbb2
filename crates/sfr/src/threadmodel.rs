//! Extraction of a shared-variable thread model from JT source.
//!
//! The paper's Fig. 6/8 argument starts from Java code: threads that
//! communicate "by modifying and reading shared variables" describe a
//! partial order of events whose linearisations may produce different
//! behaviours. This module closes the loop between the JT front end and
//! the `sched` interleaving simulator: it takes a JT program containing
//! `Thread` subclasses and mechanically extracts a
//! [`sched::program::Program`], so the nondeterminism a design would
//! exhibit can be *measured* before the R6 rule bans the threads.
//!
//! The extractor supports the shared-variable fragment the paper's
//! figures use (and that `jtlang::corpus::RACY_THREADS` exercises):
//!
//! * shared state: fields of non-`Thread` classes, addressed as
//!   `Class.field` — the extraction assumes one instance per shared
//!   class, which is exactly the Fig. 8 shape;
//! * each `Thread` subclass's `run` body is a straight-line sequence of
//!   - `shared.f = <const>` (write),
//!   - `reg = shared.f` (read into a thread-local register: a local
//!     variable or a field of the thread itself),
//!   - `shared.f = reg` / `shared.f = reg + <const>` (write-back),
//!   - `reg = reg + <const>` / `reg = shared.f + <const>` (local
//!     arithmetic / read-modify);
//! * anything else is reported as [`ExtractError::Unsupported`] — the
//!   designer's cue that the program is beyond the analysable fragment
//!   and must be refined to blocks anyway.

use jtlang::ast::*;
use jtlang::resolve::ClassTable;
use jtlang::token::Span;
use sched::program::{Instr, Program as SchedProgram, Source as SchedSource};
use std::fmt;

/// Errors from thread-model extraction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExtractError {
    /// No class extends `Thread`; there is nothing to extract.
    NoThreads,
    /// A `run` body statement lies outside the supported fragment.
    Unsupported {
        /// The thread class.
        class: String,
        /// Where.
        span: Span,
        /// What the extractor saw.
        what: String,
    },
    /// A thread class has no `run` method.
    NoRunMethod(String),
}

impl fmt::Display for ExtractError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExtractError::NoThreads => write!(f, "no class extends Thread"),
            ExtractError::Unsupported { class, span, what } => write!(
                f,
                "`{class}.run` at {span}: {what} is outside the extractable \
                 shared-variable fragment"
            ),
            ExtractError::NoRunMethod(c) => write!(f, "thread class `{c}` has no run()"),
        }
    }
}

impl std::error::Error for ExtractError {}

/// Extracts the shared-variable thread model of `program`.
///
/// Shared variables are initialized from constant field initializers (or
/// constant assignments in the owning class's constructors), defaulting
/// to 0. Every shared variable is observed, as is every thread register
/// that is a field of its thread (locals are scratch).
///
/// # Errors
///
/// See [`ExtractError`].
pub fn extract(program: &Program, table: &ClassTable) -> Result<SchedProgram, ExtractError> {
    let thread_classes: Vec<&ClassDecl> = program
        .classes
        .iter()
        .filter(|c| table.is_subclass_of(&c.name, "Thread"))
        .collect();
    if thread_classes.is_empty() {
        return Err(ExtractError::NoThreads);
    }

    let mut sched = SchedProgram::new();

    // Shared variables: every field of every non-thread user class.
    for class in &program.classes {
        if table.is_subclass_of(&class.name, "Thread") {
            continue;
        }
        for field in &class.fields {
            if field.ty != Type::Int {
                continue;
            }
            let initial = field
                .init
                .as_ref()
                .and_then(jtanalysis::loops::fold_const)
                .or_else(|| ctor_const_assignment(class, &field.name))
                .unwrap_or(0);
            sched = sched.var(shared_name(&class.name, &field.name), initial);
            sched = sched.observe_var(shared_name(&class.name, &field.name));
        }
    }

    for class in thread_classes {
        let run = class
            .method("run")
            .ok_or_else(|| ExtractError::NoRunMethod(class.name.clone()))?;
        let mut instrs = Vec::new();
        let mut observed_regs = Vec::new();
        for stmt in &run.body.stmts {
            translate_stmt(table, class, stmt, &mut instrs, &mut observed_regs)?;
        }
        sched = sched.thread(class.name.clone(), instrs);
        for reg in observed_regs {
            sched = sched.observe_reg(class.name.clone(), reg);
        }
    }
    Ok(sched)
}

fn shared_name(class: &str, field: &str) -> String {
    format!("{class}.{field}")
}

/// Finds `field = <const>;` in any constructor of `class`.
fn ctor_const_assignment(class: &ClassDecl, field: &str) -> Option<i64> {
    for ctor in &class.ctors {
        for stmt in &ctor.body.stmts {
            if let StmtKind::Assign {
                target:
                    Expr {
                        kind: ExprKind::Var(name),
                        ..
                    },
                op: AssignOp::Set,
                value,
            } = &stmt.kind
            {
                if name == field {
                    if let Some(v) = jtanalysis::loops::fold_const(value) {
                        return Some(v);
                    }
                }
            }
        }
    }
    None
}

/// Classifies an lvalue/rvalue name inside a thread's `run` body.
enum Place {
    /// `obj.f` where `obj`'s static type is a non-thread class.
    Shared(String),
    /// A local variable or a field of the thread itself.
    Reg(String),
}

fn classify_expr(table: &ClassTable, class: &ClassDecl, e: &Expr) -> Option<Place> {
    match &e.kind {
        ExprKind::Var(name) => Some(Place::Reg(name.clone())),
        ExprKind::Field { object, name } => {
            let run = class.method("run")?;
            let ty = jtlang::types::type_of_expr(table, class, Some(run), object).ok()?;
            match ty {
                Type::Class(c) if !table.is_subclass_of(&c, "Thread") => {
                    Some(Place::Shared(shared_name(&c, name)))
                }
                _ => None,
            }
        }
        _ => None,
    }
}

/// Translates an operand expression into a (prelude, source) pair: reads
/// of shared variables are hoisted into fresh register reads.
fn translate_source(
    table: &ClassTable,
    class: &ClassDecl,
    e: &Expr,
    instrs: &mut Vec<Instr>,
    scratch: &mut usize,
) -> Option<SchedSource> {
    if let Some(v) = jtanalysis::loops::fold_const(e) {
        return Some(SchedSource::Const(v));
    }
    match classify_expr(table, class, e)? {
        Place::Reg(r) => Some(SchedSource::Reg(r)),
        Place::Shared(var) => {
            let reg = format!("__t{}", *scratch);
            *scratch += 1;
            instrs.push(Instr::Read {
                var,
                reg: reg.clone(),
            });
            Some(SchedSource::Reg(reg))
        }
    }
}

fn translate_stmt(
    table: &ClassTable,
    class: &ClassDecl,
    stmt: &Stmt,
    instrs: &mut Vec<Instr>,
    observed_regs: &mut Vec<String>,
) -> Result<(), ExtractError> {
    let unsupported = |what: &str| ExtractError::Unsupported {
        class: class.name.clone(),
        span: stmt.span,
        what: what.to_string(),
    };
    let mut scratch = instrs.len();
    match &stmt.kind {
        StmtKind::VarDecl {
            ty: Type::Int,
            name,
            init,
        } => {
            let src = match init {
                Some(e) => translate_source(table, class, e, instrs, &mut scratch)
                    .ok_or_else(|| unsupported("a non-analysable initializer"))?,
                None => SchedSource::Const(0),
            };
            instrs.push(Instr::Add {
                reg: name.clone(),
                a: src,
                b: SchedSource::Const(0),
            });
            Ok(())
        }
        StmtKind::Assign { target, op, value } => {
            let place = classify_expr(table, class, target)
                .ok_or_else(|| unsupported("an unrecognised assignment target"))?;
            // Right-hand side: const, register, shared read, or a single
            // addition/subtraction of such.
            let src = match &value.kind {
                ExprKind::Binary {
                    op: bin_op @ (BinOp::Add | BinOp::Sub),
                    lhs,
                    rhs,
                } => {
                    let a = translate_source(table, class, lhs, instrs, &mut scratch)
                        .ok_or_else(|| unsupported("a non-analysable operand"))?;
                    let b = translate_source(table, class, rhs, instrs, &mut scratch)
                        .ok_or_else(|| unsupported("a non-analysable operand"))?;
                    let b = match (bin_op, b) {
                        (BinOp::Sub, SchedSource::Const(c)) => SchedSource::Const(-c),
                        (BinOp::Sub, _) => return Err(unsupported("subtraction of a register")),
                        (_, b) => b,
                    };
                    let reg = format!("__t{scratch}");
                    instrs.push(Instr::Add { reg: reg.clone(), a, b });
                    SchedSource::Reg(reg)
                }
                _ => translate_source(table, class, value, instrs, &mut scratch)
                    .ok_or_else(|| unsupported("a non-analysable right-hand side"))?,
            };
            match (place, op) {
                (Place::Shared(var), AssignOp::Set) => {
                    instrs.push(Instr::Write { var, src });
                }
                (Place::Shared(var), AssignOp::Add | AssignOp::Sub) => {
                    // Read-modify-write: exactly the racy pattern.
                    let reg = format!("__t{scratch}");
                    instrs.push(Instr::Read {
                        var: var.clone(),
                        reg: reg.clone(),
                    });
                    let src = match (op, src) {
                        (AssignOp::Sub, SchedSource::Const(c)) => SchedSource::Const(-c),
                        (AssignOp::Sub, _) => {
                            return Err(unsupported("compound subtraction of a register"))
                        }
                        (_, s) => s,
                    };
                    instrs.push(Instr::Add {
                        reg: reg.clone(),
                        a: SchedSource::Reg(reg.clone()),
                        b: src,
                    });
                    instrs.push(Instr::Write {
                        var,
                        src: SchedSource::Reg(reg),
                    });
                }
                (Place::Reg(reg), AssignOp::Set) => {
                    instrs.push(Instr::Add {
                        reg: reg.clone(),
                        a: src,
                        b: SchedSource::Const(0),
                    });
                    if class.field(&reg).is_some() && !observed_regs.contains(&reg) {
                        observed_regs.push(reg);
                    }
                }
                (Place::Reg(reg), AssignOp::Add | AssignOp::Sub) => {
                    let src = match (op, src) {
                        (AssignOp::Sub, SchedSource::Const(c)) => SchedSource::Const(-c),
                        (AssignOp::Sub, _) => {
                            return Err(unsupported("compound subtraction of a register"))
                        }
                        (_, s) => s,
                    };
                    instrs.push(Instr::Add {
                        reg: reg.clone(),
                        a: SchedSource::Reg(reg.clone()),
                        b: src,
                    });
                    if class.field(&reg).is_some() && !observed_regs.contains(&reg) {
                        observed_regs.push(reg);
                    }
                }
                _ => return Err(unsupported("a multiplicative compound assignment")),
            }
            Ok(())
        }
        other => Err(unsupported(&format!(
            "statement kind {}",
            match other {
                StmtKind::If { .. } => "`if`",
                StmtKind::While { .. } => "`while`",
                StmtKind::For { .. } => "`for`",
                StmtKind::Expr(_) => "a call",
                StmtKind::Return(_) => "`return`",
                _ => "this construct",
            }
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sched::interleave::{explore, Explore};

    fn extract_src(src: &str) -> Result<SchedProgram, ExtractError> {
        let program = jtlang::check_source(src).unwrap();
        let table = jtlang::resolve::resolve(&program).unwrap();
        extract(&program, &table)
    }

    #[test]
    fn corpus_racy_threads_extracts_to_fig8_behaviour() {
        let model = extract_src(jtlang::corpus::RACY_THREADS).unwrap();
        assert_eq!(model.threads.len(), 3, "WriterA, WriterB, ReaderC");
        let outcomes = explore(&model, Explore::exhaustive());
        assert!(!outcomes.is_deterministic());
        // C's `seen` register takes 0, 1, or 2 across schedules.
        let seen: std::collections::BTreeSet<i64> = outcomes
            .distinct
            .iter()
            .flat_map(|o| {
                o.values
                    .iter()
                    .filter(|(k, _)| k == "ReaderC.seen")
                    .map(|(_, v)| *v)
            })
            .collect();
        assert_eq!(seen.into_iter().collect::<Vec<_>>(), vec![0, 1, 2]);
    }

    #[test]
    fn lost_update_in_jt_extracts_and_races() {
        let model = extract_src(
            "class Counter { public int n; Counter() { n = 0; } }
             class Bump extends Thread {
                 private Counter c;
                 Bump(Counter shared) { c = shared; }
                 public void run() { c.n += 1; }
             }
             class Bump2 extends Thread {
                 private Counter c;
                 Bump2(Counter shared) { c = shared; }
                 public void run() { c.n += 1; }
             }",
        )
        .unwrap();
        let outcomes = explore(&model, Explore::exhaustive());
        let ns: std::collections::BTreeSet<i64> = outcomes
            .distinct
            .iter()
            .flat_map(|o| {
                o.values
                    .iter()
                    .filter(|(k, _)| k == "Counter.n")
                    .map(|(_, v)| *v)
            })
            .collect();
        assert_eq!(ns.into_iter().collect::<Vec<_>>(), vec![1, 2], "lost update");
    }

    #[test]
    fn initial_values_come_from_initializers_and_ctors() {
        let model = extract_src(
            "class S { public int a = 7; public int b; S() { b = 9; } }
             class T extends Thread {
                 private S s;
                 T(S sh) { s = sh; }
                 public void run() { int x = s.a; }
             }",
        )
        .unwrap();
        assert_eq!(model.initial["S.a"], 7);
        assert_eq!(model.initial["S.b"], 9);
    }

    #[test]
    fn unsupported_constructs_are_reported() {
        let err = extract_src(
            "class S { public int x; }
             class T extends Thread {
                 private S s;
                 T(S sh) { s = sh; }
                 public void run() { while (true) { s.x = 1; } }
             }",
        )
        .unwrap_err();
        assert!(matches!(err, ExtractError::Unsupported { .. }));
        assert!(err.to_string().contains("while"));

        assert_eq!(
            extract_src("class A { void m() {} }").unwrap_err(),
            ExtractError::NoThreads
        );
    }

    #[test]
    fn single_writer_is_deterministic() {
        let model = extract_src(
            "class S { public int x; }
             class W extends Thread {
                 private S s;
                 W(S sh) { s = sh; }
                 public void run() { s.x = 5; }
             }",
        )
        .unwrap();
        let outcomes = explore(&model, Explore::exhaustive());
        assert!(outcomes.is_deterministic());
    }
}
