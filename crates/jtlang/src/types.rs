//! The JT type checker.
//!
//! A conventional bidirectional walk over the AST: locals are tracked in
//! lexical scopes, `this` is the enclosing class, and assignability is
//! nominal (`null` to any reference type, subclasses to superclasses).
//! The checker is deliberately lenient about definite-return analysis —
//! the policy-of-use rules in the `sfr` crate handle the properties the
//! paper actually cares about.

use crate::ast::*;
use crate::resolve::ClassTable;
use crate::token::Span;
use std::collections::HashMap;
use std::fmt;

/// A type error, with its source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TypeError {
    /// Explanation.
    pub message: String,
    /// Source position.
    pub span: Span,
}

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "type error at {}: {}", self.span, self.message)
    }
}

impl std::error::Error for TypeError {}

/// Type-checks a resolved program.
///
/// # Errors
///
/// Returns the first [`TypeError`] found.
pub fn check(program: &Program, table: &ClassTable) -> Result<(), TypeError> {
    for class in &program.classes {
        for member in class.ctors.iter().chain(&class.methods) {
            check_member(table, class, member)?;
        }
        for field in &class.fields {
            if let Some(init) = &field.init {
                let mut chk = Checker::new(table, class, None);
                let ty = chk.expr(init)?;
                chk.require_assignable(&field.ty, &ty, init.span)?;
            }
        }
    }
    Ok(())
}

/// Type-checks one constructor or method of `class`. A member's check
/// reads only the class table and its class's name, so after an edit
/// that changes one member body and no signature, checking that member
/// alone gives what [`check`] gives on the whole program.
///
/// # Errors
///
/// Returns the first [`TypeError`] in the member.
pub fn check_member(
    table: &ClassTable,
    class: &ClassDecl,
    member: &MethodDecl,
) -> Result<(), TypeError> {
    Checker::new(table, class, member.return_type.clone()).check_method(member)
}

/// Computes the type of `expr` inside `member` of `class` — a utility
/// for the analysis crates, which need expression types outside a full
/// check. `None` is a field initializer, which sees only fields.
///
/// # Errors
///
/// Returns a [`TypeError`] if the expression is ill-typed in that context.
pub fn type_of_expr(
    table: &ClassTable,
    class: &ClassDecl,
    member: Option<&MethodDecl>,
    expr: &Expr,
) -> Result<Type, TypeError> {
    let mut chk = Checker::new(table, class, member.and_then(|m| m.return_type.clone()));
    chk.push_scope();
    if let Some(member) = member {
        for p in &member.params {
            chk.declare(&p.name, p.ty.clone());
        }
        // Bring every local declared anywhere in the body into scope — a
        // flow-insensitive approximation that suffices for analysis
        // queries.
        walk_stmts(&member.body, &mut |s| {
            if let StmtKind::VarDecl { ty, name, .. } = &s.kind {
                chk.declare(name, ty.clone());
            }
        });
    }
    chk.expr(expr)
}

struct Checker<'a> {
    table: &'a ClassTable,
    class: &'a ClassDecl,
    return_type: Option<Type>,
    scopes: Vec<HashMap<String, Type>>,
}

impl<'a> Checker<'a> {
    fn new(table: &'a ClassTable, class: &'a ClassDecl, return_type: Option<Type>) -> Self {
        Checker {
            table,
            class,
            return_type,
            scopes: Vec::new(),
        }
    }

    fn push_scope(&mut self) {
        self.scopes.push(HashMap::new());
    }

    fn pop_scope(&mut self) {
        self.scopes.pop();
    }

    fn declare(&mut self, name: &str, ty: Type) {
        if let Some(scope) = self.scopes.last_mut() {
            scope.insert(name.to_string(), ty);
        }
    }

    fn lookup_local(&self, name: &str) -> Option<&Type> {
        self.scopes.iter().rev().find_map(|s| s.get(name))
    }

    fn err<T>(&self, span: Span, message: impl Into<String>) -> Result<T, TypeError> {
        Err(TypeError {
            message: message.into(),
            span,
        })
    }

    fn assignable(&self, target: &Type, value: &Type) -> bool {
        if target == value {
            return true;
        }
        match (target, value) {
            // `null` is typed as `Class("null")` internally.
            (t, Type::Class(v)) if v == "null" => t.is_reference(),
            (Type::Class(t), Type::Class(v)) => self.table.is_subclass_of(v, t),
            _ => false,
        }
    }

    fn require_assignable(&self, target: &Type, value: &Type, span: Span) -> Result<(), TypeError> {
        if self.assignable(target, value) {
            Ok(())
        } else {
            self.err(span, format!("expected `{target}`, found `{value}`"))
        }
    }

    fn check_method(&mut self, method: &MethodDecl) -> Result<(), TypeError> {
        self.push_scope();
        for p in &method.params {
            self.declare(&p.name, p.ty.clone());
        }
        self.block(&method.body)?;
        self.pop_scope();
        Ok(())
    }

    fn block(&mut self, block: &Block) -> Result<(), TypeError> {
        self.push_scope();
        for stmt in &block.stmts {
            self.stmt(stmt)?;
        }
        self.pop_scope();
        Ok(())
    }

    fn stmt(&mut self, stmt: &Stmt) -> Result<(), TypeError> {
        match &stmt.kind {
            StmtKind::VarDecl { ty, name, init } => {
                if let Some(e) = init {
                    let et = self.expr(e)?;
                    self.require_assignable(ty, &et, e.span)?;
                }
                self.declare(name, ty.clone());
                Ok(())
            }
            StmtKind::Assign { target, op, value } => {
                let tt = self.lvalue(target)?;
                let vt = self.expr(value)?;
                match op {
                    AssignOp::Set => self.require_assignable(&tt, &vt, value.span),
                    _ => {
                        if tt != Type::Int {
                            return self.err(
                                target.span,
                                format!("compound assignment needs `int` target, found `{tt}`"),
                            );
                        }
                        self.require_assignable(&Type::Int, &vt, value.span)
                    }
                }
            }
            StmtKind::Expr(e) => {
                if !matches!(e.kind, ExprKind::Call { .. } | ExprKind::NewObject { .. }) {
                    return self.err(e.span, "only calls may be used as statements");
                }
                self.expr_allow_void(e).map(|_| ())
            }
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let ct = self.expr(cond)?;
                self.require_assignable(&Type::Boolean, &ct, cond.span)?;
                self.stmt(then_branch)?;
                if let Some(e) = else_branch {
                    self.stmt(e)?;
                }
                Ok(())
            }
            StmtKind::While { cond, body } | StmtKind::DoWhile { body, cond } => {
                let ct = self.expr(cond)?;
                self.require_assignable(&Type::Boolean, &ct, cond.span)?;
                self.stmt(body)
            }
            StmtKind::For {
                init,
                cond,
                update,
                body,
            } => {
                self.push_scope();
                if let Some(i) = init {
                    self.stmt(i)?;
                }
                if let Some(c) = cond {
                    let ct = self.expr(c)?;
                    self.require_assignable(&Type::Boolean, &ct, c.span)?;
                }
                if let Some(u) = update {
                    self.stmt(u)?;
                }
                self.stmt(body)?;
                self.pop_scope();
                Ok(())
            }
            StmtKind::Return(value) => match (&self.return_type.clone(), value) {
                (None, None) => Ok(()),
                (None, Some(e)) => self.err(e.span, "void method returns a value"),
                (Some(t), Some(e)) => {
                    let et = self.expr(e)?;
                    self.require_assignable(t, &et, e.span)
                }
                (Some(t), None) => {
                    self.err(stmt.span, format!("method must return `{t}`"))
                }
            },
            StmtKind::Break | StmtKind::Continue => Ok(()),
            StmtKind::Block(b) => self.block(b),
        }
    }

    /// Types an assignment target, rejecting non-lvalues.
    fn lvalue(&mut self, expr: &Expr) -> Result<Type, TypeError> {
        match &expr.kind {
            ExprKind::Var(_) | ExprKind::Field { .. } | ExprKind::Index { .. } => self.expr(expr),
            _ => self.err(expr.span, "not an assignable location"),
        }
    }

    fn expr(&mut self, expr: &Expr) -> Result<Type, TypeError> {
        match self.expr_allow_void(expr)? {
            Some(t) => Ok(t),
            None => self.err(expr.span, "void value used in an expression"),
        }
    }

    fn expr_allow_void(&mut self, expr: &Expr) -> Result<Option<Type>, TypeError> {
        let ty = match &expr.kind {
            ExprKind::Int(_) => Some(Type::Int),
            ExprKind::Bool(_) => Some(Type::Boolean),
            ExprKind::Null => Some(Type::Class("null".to_string())),
            ExprKind::This => Some(Type::Class(self.class.name.clone())),
            ExprKind::Var(name) => {
                if let Some(t) = self.lookup_local(name) {
                    Some(t.clone())
                } else if let Some((_, f)) = self.table.field_of(&self.class.name, name) {
                    Some(f.ty.clone())
                } else {
                    return self.err(expr.span, format!("unknown variable `{name}`"));
                }
            }
            ExprKind::Field { object, name } => {
                let ot = self.expr(object)?;
                let Type::Class(cname) = &ot else {
                    return self.err(expr.span, format!("`{ot}` has no fields"));
                };
                match self.table.field_of(cname, name) {
                    Some((_, f)) => Some(f.ty.clone()),
                    None => {
                        return self.err(
                            expr.span,
                            format!("class `{cname}` has no field `{name}`"),
                        )
                    }
                }
            }
            ExprKind::Index { array, index } => {
                let at = self.expr(array)?;
                let it = self.expr(index)?;
                self.require_assignable(&Type::Int, &it, index.span)?;
                match at {
                    Type::Array(elem) => Some(*elem),
                    other => return self.err(array.span, format!("`{other}` is not an array")),
                }
            }
            ExprKind::Length { array } => {
                let at = self.expr(array)?;
                if !matches!(at, Type::Array(_)) {
                    return self.err(array.span, format!("`{at}` has no length"));
                }
                Some(Type::Int)
            }
            ExprKind::Unary { op, expr: inner } => {
                let it = self.expr(inner)?;
                let want = match op {
                    UnOp::Neg => Type::Int,
                    UnOp::Not => Type::Boolean,
                };
                self.require_assignable(&want, &it, inner.span)?;
                Some(want)
            }
            ExprKind::Binary { op, lhs, rhs } => {
                let lt = self.expr(lhs)?;
                let rt = self.expr(rhs)?;
                if op.is_arithmetic() || op.is_comparison() {
                    self.require_assignable(&Type::Int, &lt, lhs.span)?;
                    self.require_assignable(&Type::Int, &rt, rhs.span)?;
                    Some(if op.is_arithmetic() {
                        Type::Int
                    } else {
                        Type::Boolean
                    })
                } else if op.is_logical() {
                    self.require_assignable(&Type::Boolean, &lt, lhs.span)?;
                    self.require_assignable(&Type::Boolean, &rt, rhs.span)?;
                    Some(Type::Boolean)
                } else {
                    // Equality: both sides must be mutually assignable.
                    if !(self.assignable(&lt, &rt) || self.assignable(&rt, &lt)) {
                        return self.err(
                            expr.span,
                            format!("cannot compare `{lt}` with `{rt}`"),
                        );
                    }
                    Some(Type::Boolean)
                }
            }
            ExprKind::Call {
                receiver,
                method,
                args,
            } => {
                let recv_class = match receiver {
                    Some(r) => {
                        let rt = self.expr(r)?;
                        match rt {
                            Type::Class(c) => c,
                            other => {
                                return self.err(
                                    r.span,
                                    format!("`{other}` has no methods"),
                                )
                            }
                        }
                    }
                    None => self.class.name.clone(),
                };
                let Some((_, sig)) = self.table.method_of(&recv_class, method) else {
                    return self.err(
                        expr.span,
                        format!("class `{recv_class}` has no method `{method}`"),
                    );
                };
                let sig = sig.clone();
                if sig.params.len() != args.len() {
                    return self.err(
                        expr.span,
                        format!(
                            "method `{method}` takes {} arguments, got {}",
                            sig.params.len(),
                            args.len()
                        ),
                    );
                }
                for (p, a) in sig.params.iter().zip(args) {
                    let at = self.expr(a)?;
                    self.require_assignable(p, &at, a.span)?;
                }
                sig.ret.clone()
            }
            ExprKind::NewObject { class, args } => {
                let Some(info) = self.table.class(class) else {
                    return self.err(expr.span, format!("unknown class `{class}`"));
                };
                if info.is_builtin && class != "Thread" {
                    // `new Thread()` is allowed so unrefined designs run;
                    // instantiating ASR/Object directly is meaningless.
                    return self.err(expr.span, format!("cannot instantiate builtin `{class}`"));
                }
                let ctors = self.table.ctors_of(class).to_vec();
                if ctors.is_empty() {
                    if !args.is_empty() {
                        return self.err(
                            expr.span,
                            format!("class `{class}` only has the default constructor"),
                        );
                    }
                } else {
                    let matching = ctors.iter().find(|c| c.params.len() == args.len());
                    let Some(ctor) = matching else {
                        return self.err(
                            expr.span,
                            format!("no constructor of `{class}` takes {} arguments", args.len()),
                        );
                    };
                    for (p, a) in ctor.params.iter().zip(args) {
                        let at = self.expr(a)?;
                        self.require_assignable(p, &at, a.span)?;
                    }
                }
                Some(Type::Class(class.clone()))
            }
            ExprKind::NewArray { elem, len } => {
                let lt = self.expr(len)?;
                self.require_assignable(&Type::Int, &lt, len.span)?;
                Some(elem.clone().array_of())
            }
        };
        Ok(ty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;
    use crate::resolve::resolve;

    fn check_src(src: &str) -> Result<(), TypeError> {
        let p = parse(src).unwrap();
        let t = resolve(&p).unwrap();
        check(&p, &t)
    }

    #[test]
    fn well_typed_program_passes() {
        check_src(
            "class Point {
                 private int x;
                 private int y;
                 Point(int x0, int y0) { x = x0; y = y0; }
                 int dist2(Point o) {
                     int dx = x - o.x;
                     int dy = y - o.y;
                     return dx * dx + dy * dy;
                 }
             }
             class Main {
                 int run() {
                     Point a = new Point(0, 0);
                     Point b = new Point(3, 4);
                     int[] scratch = new int[4];
                     scratch[0] = a.dist2(b);
                     return scratch[0] + scratch.length;
                 }
             }",
        )
        .unwrap();
    }

    #[test]
    fn asr_subclass_typechecks() {
        check_src(
            "class Doubler extends ASR {
                 public void run() {
                     int v = read(0);
                     write(0, v * 2);
                 }
             }",
        )
        .unwrap();
    }

    #[test]
    fn rejects_type_mismatches() {
        assert!(check_src("class A { void m() { int x = true; } }").is_err());
        assert!(check_src("class A { void m() { boolean b = 1; } }").is_err());
        assert!(check_src("class A { void m() { if (1) {} } }").is_err());
        assert!(check_src("class A { void m() { while (0) {} } }").is_err());
        assert!(check_src("class A { int m() { return true; } }").is_err());
        assert!(check_src("class A { void m() { return 1; } }").is_err());
        assert!(check_src("class A { int m() { return; } }").is_err());
    }

    #[test]
    fn rejects_unknown_names() {
        assert!(check_src("class A { void m() { x = 1; } }").is_err());
        assert!(check_src("class A { void m() { int y = zzz(); } }").is_err());
        assert!(check_src("class A { int f; void m(A o) { int y = o.g; } }").is_err());
        assert!(check_src("class A { void m() { A o = new B(); } }")
            .unwrap_err()
            .to_string()
            .contains("unknown"));
    }

    #[test]
    fn rejects_bad_operations() {
        assert!(check_src("class A { void m() { int x = 1 && 2; } }").is_err());
        assert!(check_src("class A { void m() { boolean b = true < false; } }").is_err());
        assert!(check_src("class A { void m(A o) { int x = o[0]; } }").is_err());
        assert!(check_src("class A { void m(int x) { int y = x.length; } }").is_err());
        assert!(check_src("class A { void m(A o) { o += 1; } }").is_err());
        assert!(check_src("class A { void m() { 1 + 2; } }").is_err());
        assert!(check_src("class A { void m() { (1 + 2) = 3; } }").is_err());
    }

    #[test]
    fn call_arity_and_argument_types() {
        assert!(check_src("class A { void m(int x) {} void n() { m(); } }").is_err());
        assert!(check_src("class A { void m(int x) {} void n() { m(true); } }").is_err());
        assert!(check_src("class A { void m(int x) {} void n() { m(1); } }").is_ok());
    }

    #[test]
    fn null_and_subtyping() {
        check_src(
            "class A {}
             class B extends A {
                 A up() { return new B(); }
                 A none() { return null; }
             }",
        )
        .unwrap();
        assert!(check_src("class A { int m() { return null; } }").is_err());
        assert!(
            check_src("class A {} class B extends A { B down() { return new A(); } }").is_err()
        );
    }

    #[test]
    fn ctor_selection_by_arity() {
        assert!(check_src("class A { A(int x) {} } class B { void m() { A a = new A(); } }")
            .is_err());
        assert!(check_src("class A { void m() { Object o = new ASR(); } }").is_err());
        assert!(check_src(
            "class T extends Thread { public void run() {} }
             class M { void m() { Thread t = new Thread(); t.start(); } }"
        )
        .is_ok());
    }

    #[test]
    fn type_of_expr_utility() {
        let p = parse("class A { int f; int m(int x) { return x + f; } }").unwrap();
        let t = resolve(&p).unwrap();
        let StmtKind::Return(Some(e)) = &p.classes[0].methods[0].body.stmts[0].kind else {
            panic!();
        };
        let a = &p.classes[0];
        assert_eq!(
            type_of_expr(&t, a, Some(&a.methods[0]), e).unwrap(),
            Type::Int
        );
        // A field initializer sees the fields but no parameter.
        assert!(type_of_expr(&t, a, None, e).is_err());
    }

    #[test]
    fn type_of_expr_uses_the_given_constructor_scope() {
        // Each constructor types its own locals: `v` is an `int` in the
        // first and a `boolean` in the second.
        let p = parse("class A { A() { int v = 1; } A(int x) { boolean v = x > 0; } }").unwrap();
        let t = resolve(&p).unwrap();
        let a = &p.classes[0];
        let var = Expr {
            id: NodeId(u32::MAX),
            span: Span::default(),
            kind: ExprKind::Var("v".to_string()),
        };
        assert_eq!(
            type_of_expr(&t, a, Some(&a.ctors[0]), &var).unwrap(),
            Type::Int
        );
        assert_eq!(
            type_of_expr(&t, a, Some(&a.ctors[1]), &var).unwrap(),
            Type::Boolean
        );
    }

    #[test]
    fn field_initializers_are_checked() {
        assert!(check_src("class A { int x = true; }").is_err());
        assert!(check_src("class A { int x = 1 + 2; }").is_ok());
    }
}
