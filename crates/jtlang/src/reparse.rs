//! Incremental re-parsing: splice one re-parsed member into a live AST.
//!
//! The refinement loop of the paper's Fig. 2 re-checks the program after
//! every edit, and most edits stay inside one method body. [`reparse`]
//! turns the program parsed from `old_text` into the program of
//! `new_text` by re-lexing and re-parsing only the constructor or method
//! the edit lies in, then shifting the [`NodeId`]s and [`Span`]s of
//! every later node. The result equals [`parse`]`(new_text)` under
//! `PartialEq`, ids and spans included.
//!
//! Two facts of the parser make the splice exact. It numbers nodes in
//! post-order while it walks the text left to right, so a member's
//! nodes take one contiguous stretch of ids ending with the member's
//! own id, and every node after the member (in the text) has a larger
//! id. Only the enclosing class's id is larger while its span lies
//! before the member. And a member begins and ends at a token boundary
//! (`{`, `}` or `;` precede it, its body's `}` ends it), so lexing the
//! stretch alone gives the same tokens as lexing the whole text.
//!
//! Any other edit parses the whole text again: one outside every member
//! (a field, a class header, a comment between members), a member
//! re-parse that ends anywhere but the shifted old end or turns into a
//! different kind of member, and any lexical or syntactic error.

use crate::ast::*;
use crate::parser::{parse, parse_member, ParseError};
use crate::token::Span;

/// Where a constructor or method sits in a [`Program`]. Splices keep
/// positions: a re-parsed member replaces the old one in place.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MemberPos {
    /// Index into [`Program::classes`].
    pub class: usize,
    /// True for an entry of [`ClassDecl::ctors`], false for one of
    /// [`ClassDecl::methods`].
    pub ctor: bool,
    /// Index into that list.
    pub index: usize,
}

impl MemberPos {
    /// The declaration at this position.
    ///
    /// # Panics
    ///
    /// When `program` has no member here.
    pub fn decl<'p>(&self, program: &'p Program) -> &'p MethodDecl {
        let class = &program.classes[self.class];
        if self.ctor {
            &class.ctors[self.index]
        } else {
            &class.methods[self.index]
        }
    }

    fn decl_mut<'p>(&self, program: &'p mut Program) -> &'p mut MethodDecl {
        let class = &mut program.classes[self.class];
        if self.ctor {
            &mut class.ctors[self.index]
        } else {
            &mut class.methods[self.index]
        }
    }
}

/// The member one [`reparse`] replaced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Splice {
    /// Where the member sits (before and after the splice).
    pub pos: MemberPos,
    /// The declaration it replaced.
    pub old: MethodDecl,
}

/// Why [`reparse`] parsed the whole text instead of one member.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Fallback {
    /// The edit touches text outside every constructor and method.
    OutsideMember,
    /// The re-parsed member did not end exactly at the old member's
    /// shifted end, or is no longer a member of the same kind.
    MemberEndMoved,
    /// Re-lexing or re-parsing the member failed.
    ParseError,
}

/// How [`reparse`] produced the new program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reparse {
    /// The edit lay inside one member, which was re-parsed alone and
    /// spliced in; `None` when the two texts are equal.
    Spliced(Option<Splice>),
    /// The whole text was parsed again.
    Full(Fallback),
}

/// Turns `program`, parsed from `old_text`, into the program of
/// `new_text`: by splicing one re-parsed member when the edit lies
/// inside a constructor or method, by a full [`parse`] otherwise.
/// Either way the result equals `parse(new_text)`.
///
/// `program` must equal `parse(old_text)`; nothing checks this.
///
/// # Errors
///
/// Exactly [`parse`]'s error on `new_text`; `program` is then left as
/// it was.
pub fn reparse(
    program: &mut Program,
    old_text: &str,
    new_text: &str,
) -> Result<Reparse, ParseError> {
    match splice(program, old_text, new_text) {
        Ok(splice) => Ok(Reparse::Spliced(splice)),
        Err(cause) => {
            *program = parse(new_text)?;
            Ok(Reparse::Full(cause))
        }
    }
}

/// The splice attempt; `Err` names the reason to parse the whole text.
/// Leaves `program` untouched unless it succeeds.
fn splice(program: &mut Program, old: &str, new: &str) -> Result<Option<Splice>, Fallback> {
    let (a, b) = (old.as_bytes(), new.as_bytes());
    let prefix = common_prefix(a, b);
    if prefix == a.len() && prefix == b.len() {
        return Ok(None);
    }
    let suffix = common_suffix(&a[prefix..], &b[prefix..]);
    // The edit replaces `old[prefix..old_end]` by `new[prefix..new_end]`.
    let (old_end, new_end) = (a.len() - suffix, b.len() - suffix);
    let pos = enclosing_member(program, prefix, old_end).ok_or(Fallback::OutsideMember)?;
    let class = &program.classes[pos.class];
    let old_decl = pos.decl(program);
    let start = old_decl.span.start;
    let end = old_decl.body.span.end + new_end - old_end;
    let (member_ctor, decl) = parse_member(
        new,
        (start, end),
        (old_decl.span.line, old_decl.span.col),
        first_id(program, pos),
        &class.name,
    )
    .map_err(|_| Fallback::ParseError)?
    .ok_or(Fallback::MemberEndMoved)?;
    if member_ctor != pos.ctor {
        return Err(Fallback::MemberEndMoved);
    }

    // Every node after the member moves by the edit's size in ids,
    // bytes and lines; the ones on the line the edit ends on also move
    // sideways.
    let col = |text: &[u8], at: usize| {
        at - text[..at]
            .iter()
            .rposition(|&c| c == b'\n')
            .map_or(0, |nl| nl + 1)
    };
    let newlines = |text: &[u8]| i64::from(count_newlines(text));
    let shift = Shift {
        ids: i64::from(decl.id.0) - i64::from(old_decl.id.0),
        bytes: b.len() as i64 - a.len() as i64,
        lines: newlines(&b[prefix..new_end]) - newlines(&a[prefix..old_end]),
        line: old_decl.span.line + count_newlines(&a[start..old_end]),
        cols: col(b, new_end) as i64 - col(a, old_end) as i64,
    };
    // Shift while the old member is still in place: it is the one
    // member of its class that starts at `start` (the new one may start
    // later, after inserted trivia).
    if !shift.is_identity() {
        for (ci, class) in program.classes.iter_mut().enumerate().skip(pos.class) {
            shift.id(&mut class.id);
            if ci > pos.class {
                shift.span(&mut class.span);
            }
            let later = |span: Span| ci > pos.class || span.start > start;
            for f in class.fields.iter_mut().filter(|f| later(f.span)) {
                shift.field(f);
            }
            for m in class.ctors.iter_mut().chain(&mut class.methods) {
                if later(m.span) {
                    shift.method(m);
                }
            }
        }
    }
    let old = std::mem::replace(pos.decl_mut(program), decl);
    Ok(Some(Splice { pos, old }))
}

fn count_newlines(text: &[u8]) -> u32 {
    u32::try_from(text.iter().filter(|&&c| c == b'\n').count()).unwrap_or(u32::MAX)
}

/// Length of the longest common prefix of `a` and `b`.
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    const CHUNK: usize = 64;
    let n = a.len().min(b.len());
    let mut i = 0;
    while i + CHUNK <= n && a[i..i + CHUNK] == b[i..i + CHUNK] {
        i += CHUNK;
    }
    while i < n && a[i] == b[i] {
        i += 1;
    }
    i
}

/// Length of the longest common suffix of `a` and `b`.
fn common_suffix(a: &[u8], b: &[u8]) -> usize {
    const CHUNK: usize = 64;
    let n = a.len().min(b.len());
    let (ea, eb) = (a.len(), b.len());
    let mut i = 0;
    while i + CHUNK <= n && a[ea - i - CHUNK..ea - i] == b[eb - i - CHUNK..eb - i] {
        i += CHUNK;
    }
    while i < n && a[ea - i - 1] == b[eb - i - 1] {
        i += 1;
    }
    i
}

/// The constructor or method whose text (first token to closing brace)
/// contains the byte range `from..to`.
fn enclosing_member(program: &Program, from: usize, to: usize) -> Option<MemberPos> {
    program.classes.iter().enumerate().find_map(|(class, c)| {
        let lists = [(true, &c.ctors), (false, &c.methods)];
        lists.into_iter().find_map(|(ctor, list)| {
            list.iter()
                .position(|m| m.span.start <= from && to <= m.body.span.end)
                .map(|index| MemberPos { class, ctor, index })
        })
    })
}

/// The first node id of the member at `pos`: one past the last id of
/// the member before it in its class, or past the previous class.
fn first_id(program: &Program, pos: MemberPos) -> u32 {
    let class = &program.classes[pos.class];
    let own = pos.decl(program).id;
    let before = class
        .fields
        .iter()
        .map(|f| f.id)
        .chain(class.ctors.iter().chain(&class.methods).map(|m| m.id))
        .filter(|&id| id < own)
        .max()
        .or_else(|| pos.class.checked_sub(1).map(|c| program.classes[c].id));
    before.map_or(0, |id| id.0 + 1)
}

/// How far the nodes after a spliced member move.
struct Shift {
    ids: i64,
    bytes: i64,
    lines: i64,
    /// The line (before the edit) the edit ends on; nodes starting on it
    /// also move by `cols` columns.
    line: u32,
    cols: i64,
}

impl Shift {
    fn is_identity(&self) -> bool {
        self.ids == 0 && self.bytes == 0 && self.lines == 0 && self.cols == 0
    }

    // The wrapping casts are two's-complement additions of a signed
    // delta; the shifted values are ids and offsets of the new text.
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    fn id(&self, id: &mut NodeId) {
        id.0 = id.0.wrapping_add(self.ids as u32);
    }

    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    fn span(&self, span: &mut Span) {
        if span.line == self.line {
            span.col = span.col.wrapping_add(self.cols as u32);
        }
        span.line = span.line.wrapping_add(self.lines as u32);
        span.start = span.start.wrapping_add(self.bytes as usize);
        span.end = span.end.wrapping_add(self.bytes as usize);
    }

    fn field(&self, f: &mut FieldDecl) {
        self.id(&mut f.id);
        self.span(&mut f.span);
        if let Some(init) = &mut f.init {
            self.expr(init);
        }
    }

    fn method(&self, m: &mut MethodDecl) {
        self.id(&mut m.id);
        self.span(&mut m.span);
        for p in &mut m.params {
            self.id(&mut p.id);
            self.span(&mut p.span);
        }
        self.block(&mut m.body);
    }

    fn block(&self, b: &mut Block) {
        self.id(&mut b.id);
        self.span(&mut b.span);
        for s in &mut b.stmts {
            self.stmt(s);
        }
    }

    fn stmt(&self, s: &mut Stmt) {
        self.id(&mut s.id);
        self.span(&mut s.span);
        match &mut s.kind {
            StmtKind::VarDecl { init, .. } => {
                if let Some(e) = init {
                    self.expr(e);
                }
            }
            StmtKind::Assign { target, value, .. } => {
                self.expr(target);
                self.expr(value);
            }
            StmtKind::Expr(e) => self.expr(e),
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            } => {
                self.expr(cond);
                self.stmt(then_branch);
                if let Some(e) = else_branch {
                    self.stmt(e);
                }
            }
            StmtKind::While { cond, body } | StmtKind::DoWhile { body, cond } => {
                self.expr(cond);
                self.stmt(body);
            }
            StmtKind::For {
                init,
                cond,
                update,
                body,
            } => {
                for s in [init, update].into_iter().flatten() {
                    self.stmt(s);
                }
                if let Some(c) = cond {
                    self.expr(c);
                }
                self.stmt(body);
            }
            StmtKind::Return(e) => {
                if let Some(e) = e {
                    self.expr(e);
                }
            }
            StmtKind::Break | StmtKind::Continue => {}
            StmtKind::Block(b) => self.block(b),
        }
    }

    fn expr(&self, e: &mut Expr) {
        self.id(&mut e.id);
        self.span(&mut e.span);
        match &mut e.kind {
            ExprKind::Field { object: x, .. }
            | ExprKind::Length { array: x }
            | ExprKind::Unary { expr: x, .. }
            | ExprKind::NewArray { len: x, .. } => self.expr(x),
            ExprKind::Index { array, index } => {
                self.expr(array);
                self.expr(index);
            }
            ExprKind::Binary { lhs, rhs, .. } => {
                self.expr(lhs);
                self.expr(rhs);
            }
            ExprKind::Call { receiver, args, .. } => {
                if let Some(r) = receiver {
                    self.expr(r);
                }
                for a in args {
                    self.expr(a);
                }
            }
            ExprKind::NewObject { args, .. } => {
                for a in args {
                    self.expr(a);
                }
            }
            ExprKind::Int(_)
            | ExprKind::Bool(_)
            | ExprKind::Null
            | ExprKind::This
            | ExprKind::Var(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Re-parses `old` into `new` and checks the result against a full
    /// parse of `new`: the same program, or the same error with the
    /// program left as it was.
    fn agree(old: &str, new: &str) -> Result<Reparse, ParseError> {
        let mut program = parse(old).unwrap();
        let result = reparse(&mut program, old, new);
        match parse(new) {
            Ok(want) => assert_eq!(program, want, "{old:?} -> {new:?}"),
            Err(e) => {
                assert_eq!(result.as_ref().unwrap_err(), &e, "{old:?} -> {new:?}");
                assert_eq!(program, parse(old).unwrap());
            }
        }
        result
    }

    const BASE: &str = "class A {
    private int x;
    A() { x = 1; }
    int f(int n) { return n + 7; } int g() { return f(2); }
    void h() { x = 3; }
}
class B extends A {
    int k() { int s = 0; for (int i = 0; i < 4; i++) { s += i; } return s; }
}
";

    fn spliced(r: &Result<Reparse, ParseError>) -> Option<MemberPos> {
        match r {
            Ok(Reparse::Spliced(Some(s))) => Some(s.pos),
            _ => None,
        }
    }

    #[test]
    fn literal_edits_splice_and_shift_later_members() {
        // Longer literal: `g` on the same line moves sideways, `h` and
        // class `B` move down in bytes only.
        let r = agree(BASE, &BASE.replace("n + 7", "n + 7000"));
        let pos = MemberPos {
            class: 0,
            ctor: false,
            index: 0,
        };
        assert_eq!(spliced(&r), Some(pos));
        // The replaced declaration comes back.
        let Ok(Reparse::Spliced(Some(s))) = r else {
            unreachable!()
        };
        assert_eq!(s.old, parse(BASE).unwrap().classes[0].methods[0]);
        // Shorter, and in the last member.
        let r = agree(BASE, &BASE.replace("i < 4", "i < 3"));
        assert_eq!(
            spliced(&r),
            Some(MemberPos {
                class: 1,
                ctor: false,
                index: 0
            })
        );
        // A constructor.
        let r = agree(BASE, &BASE.replace("x = 1;", "x = 12;"));
        assert_eq!(
            spliced(&r),
            Some(MemberPos {
                class: 0,
                ctor: true,
                index: 0
            })
        );
    }

    #[test]
    fn statement_and_line_edits_shift_ids_lines_and_columns() {
        for new in [
            BASE.replace("x = 3;", "x = 3; x = x + 1;"),
            BASE.replace("x = 3;", "x = 3;\n        x = x + 1;\n"),
            BASE.replace("{ return n + 7; }", "{\n return n + 7;\n }"),
            BASE.replace("int s = 0; ", ""),
            BASE.replace("{ x = 1; }", "{ }"),
            BASE.replace(
                "int g() { return f(2); }",
                "int g() { return f(2) + f(3); }",
            ),
            // Signature edits stay inside the member too.
            BASE.replace("int f(int n)", "int f(int n, int m)"),
            BASE.replace("void h()", "public void h()"),
            // Trivia inserted right before a member counts as its own.
            BASE.replace("} int g()", "}  int g()"),
        ] {
            assert!(spliced(&agree(BASE, &new)).is_some(), "{new}");
        }
    }

    #[test]
    fn equal_texts_splice_nothing() {
        assert_eq!(agree(BASE, BASE), Ok(Reparse::Spliced(None)));
    }

    #[test]
    fn edits_outside_members_parse_everything() {
        for new in [
            BASE.replace("private int x;", "private int x = 4;"),
            format!("// pad\n{BASE}"),
            BASE.replace("class B extends A", "class B"),
            format!("{BASE}class C {{ }}"),
        ] {
            assert_eq!(
                agree(BASE, &new),
                Ok(Reparse::Full(Fallback::OutsideMember)),
                "{new}"
            );
        }
    }

    #[test]
    fn members_that_end_elsewhere_or_fail_parse_everything() {
        // Closing the body early makes `f` end before the old end.
        let early = BASE.replace("return n + 7; }", "return n + 7; } int z() { }");
        assert_eq!(
            agree(BASE, &early),
            Ok(Reparse::Full(Fallback::MemberEndMoved))
        );
        // A comment that swallows what looks like `f`'s end and the start
        // of a `g` stays inside `f`.
        let swallow = BASE
            .replace("return n + 7; }", "return n + 7; /* }")
            .replace(
                "int g() { return f(2); }",
                "int g() { */ } int g() { return f(2); }",
            );
        assert!(spliced(&agree(BASE, &swallow)).is_some());
        // Errors in the whole text come back exactly as `parse` gives them.
        for bad in [
            BASE.replace("return n + 7;", "return n + ;"),
            BASE.replace("return n + 7;", "return n + 7; /*"),
            BASE.replace("return n + 7;", "return { n + 7;"),
            BASE.replace("x = 3;", "x = 3; }"),
            BASE.replace("x = 3;", "x = 3 @;"),
        ] {
            assert!(agree(BASE, &bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn a_method_turned_field_is_not_spliced() {
        let old = "class A { int f() {} }";
        let new = "class A { int f   ;} }";
        assert!(agree(old, new).is_err());
        let new = "class A { int f   ; }";
        assert!(matches!(agree(old, new), Ok(Reparse::Full(_))));
    }
}
