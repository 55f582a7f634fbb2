//! Structural fingerprints and span rebasing for the incremental
//! analysis database ([`crate::db`]).
//!
//! A *fingerprint* is a 64-bit structural hash of an AST fragment that
//! deliberately ignores [`NodeId`]s and [`Span`]s, so two parses of the
//! same method — before and after a whitespace or comment edit, or
//! after a `parse ∘ pretty` round-trip — produce the same value. The
//! database keys every per-method query on fingerprints; formatting
//! edits therefore invalidate nothing.
//!
//! Because cached per-method results must survive re-parses that
//! renumber every node, they never store `NodeId`s or `Span`s directly.
//! Instead they store *pre-order indices* into the method body, and a
//! [`NodeMap`] built against the current parse rebases those indices
//! back to concrete ids and spans at materialization time. Equal
//! fingerprints imply structurally identical trees, which imply
//! identical pre-order shapes, so the rebase is exact.
//!
//! The hash is FNV-1a over a canonical byte serialization; we roll our
//! own rather than use [`std::collections::hash_map::DefaultHasher`]
//! because cached fingerprints must be stable across processes and
//! toolchain versions.

use crate::interval::{FieldLenIndex, LenWrites};
use jtlang::ast::{
    stmt_exprs, walk_expr, Block, ClassDecl, Expr, ExprKind, MethodDecl, Modifiers, NodeId,
    Program, Stmt, StmtKind, Type, Visibility,
};
use jtlang::reparse::MemberPos;
use jtlang::resolve::ClassTable;
use jtlang::token::Span;
use std::collections::BTreeMap;

/// A structural fingerprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Fp(pub u64);

impl std::fmt::Display for Fp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// FNV-1a hasher with explicitly framed primitives, so that adjacent
/// fields can never alias (`("ab", "c")` vs `("a", "bc")`).
#[derive(Debug, Clone)]
pub struct StructHasher {
    state: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl StructHasher {
    /// Fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        StructHasher { state: FNV_OFFSET }
    }

    fn byte(&mut self, b: u8) {
        self.state ^= u64::from(b);
        self.state = self.state.wrapping_mul(FNV_PRIME);
    }

    /// Hashes a discriminant tag.
    pub fn tag(&mut self, t: u8) {
        self.byte(t);
    }

    /// Hashes a `u64` as eight framed bytes.
    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.byte(b);
        }
    }

    /// Hashes an `i64`.
    pub fn i64(&mut self, v: i64) {
        self.u64(v as u64);
    }

    /// Hashes a bool.
    pub fn bool(&mut self, v: bool) {
        self.byte(u8::from(v));
    }

    /// Hashes a string with a length frame.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        for b in s.as_bytes() {
            self.byte(*b);
        }
    }

    /// Hashes a member's identity: class, name, and constructor arity.
    pub fn member(&mut self, m: &crate::MethodRef) {
        self.str(&m.class);
        self.str(&m.method);
        self.bool(m.is_ctor);
        self.u64(u64::from(m.arity));
    }

    /// Final digest.
    pub fn finish(&self) -> Fp {
        Fp(self.state)
    }
}

impl Default for StructHasher {
    fn default() -> Self {
        Self::new()
    }
}

/// Combines fingerprints into a derived key.
pub fn combine(parts: &[Fp]) -> Fp {
    let mut h = StructHasher::new();
    for p in parts {
        h.u64(p.0);
    }
    h.finish()
}

fn hash_type(h: &mut StructHasher, ty: &Type) {
    match ty {
        Type::Int => h.tag(1),
        Type::Boolean => h.tag(2),
        Type::Class(n) => {
            h.tag(3);
            h.str(n);
        }
        Type::Array(t) => {
            h.tag(4);
            hash_type(h, t);
        }
    }
}

fn hash_modifiers(h: &mut StructHasher, m: &Modifiers) {
    h.tag(match m.visibility {
        Visibility::Public => 1,
        Visibility::Protected => 2,
        Visibility::Package => 3,
        Visibility::Private => 4,
    });
    h.bool(m.is_static);
    h.bool(m.is_final);
}

fn hash_expr(h: &mut StructHasher, e: &Expr) {
    match &e.kind {
        ExprKind::Int(v) => {
            h.tag(1);
            h.i64(*v);
        }
        ExprKind::Bool(v) => {
            h.tag(2);
            h.bool(*v);
        }
        ExprKind::Null => h.tag(3),
        ExprKind::This => h.tag(4),
        ExprKind::Var(n) => {
            h.tag(5);
            h.str(n);
        }
        ExprKind::Field { object, name } => {
            h.tag(6);
            hash_expr(h, object);
            h.str(name);
        }
        ExprKind::Index { array, index } => {
            h.tag(7);
            hash_expr(h, array);
            hash_expr(h, index);
        }
        ExprKind::Length { array } => {
            h.tag(8);
            hash_expr(h, array);
        }
        ExprKind::Unary { op, expr } => {
            h.tag(9);
            h.tag(*op as u8);
            hash_expr(h, expr);
        }
        ExprKind::Binary { op, lhs, rhs } => {
            h.tag(10);
            h.tag(*op as u8);
            hash_expr(h, lhs);
            hash_expr(h, rhs);
        }
        ExprKind::Call {
            receiver,
            method,
            args,
        } => {
            h.tag(11);
            h.bool(receiver.is_some());
            if let Some(r) = receiver {
                hash_expr(h, r);
            }
            h.str(method);
            h.u64(args.len() as u64);
            for a in args {
                hash_expr(h, a);
            }
        }
        ExprKind::NewObject { class, args } => {
            h.tag(12);
            h.str(class);
            h.u64(args.len() as u64);
            for a in args {
                hash_expr(h, a);
            }
        }
        ExprKind::NewArray { elem, len } => {
            h.tag(13);
            hash_type(h, elem);
            hash_expr(h, len);
        }
    }
}

fn hash_opt_expr(h: &mut StructHasher, e: &Option<Expr>) {
    h.bool(e.is_some());
    if let Some(e) = e {
        hash_expr(h, e);
    }
}

fn hash_stmt(h: &mut StructHasher, s: &Stmt) {
    match &s.kind {
        StmtKind::VarDecl { ty, name, init } => {
            h.tag(1);
            hash_type(h, ty);
            h.str(name);
            hash_opt_expr(h, init);
        }
        StmtKind::Assign { target, op, value } => {
            h.tag(2);
            hash_expr(h, target);
            h.tag(*op as u8);
            hash_expr(h, value);
        }
        StmtKind::Expr(e) => {
            h.tag(3);
            hash_expr(h, e);
        }
        StmtKind::If {
            cond,
            then_branch,
            else_branch,
        } => {
            h.tag(4);
            hash_expr(h, cond);
            hash_stmt(h, then_branch);
            h.bool(else_branch.is_some());
            if let Some(e) = else_branch {
                hash_stmt(h, e);
            }
        }
        StmtKind::While { cond, body } => {
            h.tag(5);
            hash_expr(h, cond);
            hash_stmt(h, body);
        }
        StmtKind::DoWhile { body, cond } => {
            h.tag(6);
            hash_stmt(h, body);
            hash_expr(h, cond);
        }
        StmtKind::For {
            init,
            cond,
            update,
            body,
        } => {
            h.tag(7);
            h.bool(init.is_some());
            if let Some(i) = init {
                hash_stmt(h, i);
            }
            hash_opt_expr(h, cond);
            h.bool(update.is_some());
            if let Some(u) = update {
                hash_stmt(h, u);
            }
            hash_stmt(h, body);
        }
        StmtKind::Return(e) => {
            h.tag(8);
            hash_opt_expr(h, e);
        }
        StmtKind::Break => h.tag(9),
        StmtKind::Continue => h.tag(10),
        StmtKind::Block(b) => {
            h.tag(11);
            hash_block(h, b);
        }
    }
}

fn hash_block(h: &mut StructHasher, b: &Block) {
    h.u64(b.stmts.len() as u64);
    for s in &b.stmts {
        hash_stmt(h, s);
    }
}

/// Structural fingerprint of one method or constructor declaration:
/// modifiers, return type, name, parameters, and body — never ids or
/// spans.
pub fn method_fp(decl: &MethodDecl) -> Fp {
    let mut h = StructHasher::new();
    hash_modifiers(&mut h, &decl.modifiers);
    h.bool(decl.return_type.is_some());
    if let Some(t) = &decl.return_type {
        hash_type(&mut h, t);
    }
    h.str(&decl.name);
    h.u64(decl.params.len() as u64);
    for p in &decl.params {
        hash_type(&mut h, &p.ty);
        h.str(&p.name);
    }
    hash_block(&mut h, &decl.body);
    h.finish()
}

/// Fingerprint of the class context an intraprocedural query can
/// observe: the superclass chain's names and field declarations
/// (modifiers, type, name, initializer). The per-method dataflow
/// queries consult the enclosing class only through field visibility
/// and field types, so this — combined with [`method_fp`] — keys them
/// completely.
pub fn class_ctx_fp(program: &Program, table: &ClassTable, class: &str) -> Fp {
    let mut h = StructHasher::new();
    let mut current = Some(class.to_string());
    let mut hops = 0usize;
    while let Some(name) = current {
        // Cycle guard: the resolver rejects cyclic hierarchies, but a
        // fingerprint must never loop on adversarial input.
        hops += 1;
        if hops > 64 {
            break;
        }
        h.str(&name);
        if let Some(cd) = program.class(&name) {
            h.u64(cd.fields.len() as u64);
            for f in &cd.fields {
                hash_modifiers(&mut h, &f.modifiers);
                hash_type(&mut h, &f.ty);
                h.str(&f.name);
                hash_opt_expr(&mut h, &f.init);
            }
        } else if let Some(info) = table.class(&name) {
            // Built-in classes have signatures but no source decl.
            h.u64(info.fields.len() as u64);
            for f in &info.fields {
                hash_modifiers(&mut h, &f.modifiers);
                hash_type(&mut h, &f.ty);
                h.str(&f.name);
            }
        }
        current = table.class(&name).and_then(|i| i.superclass.clone());
    }
    h.finish()
}

/// Global signature fingerprint: every class's name, superclass,
/// builtin-ness, field signatures, and method/constructor signatures.
/// The interprocedural summaries resolve calls and expression types
/// against the whole [`ClassTable`], so their cache keys include this.
pub fn sig_fp(table: &ClassTable) -> Fp {
    let mut infos: Vec<_> = table.iter().collect();
    infos.sort_by(|a, b| a.name.cmp(&b.name));
    let mut h = StructHasher::new();
    h.u64(infos.len() as u64);
    for info in infos {
        h.str(&info.name);
        h.bool(info.superclass.is_some());
        if let Some(s) = &info.superclass {
            h.str(s);
        }
        h.bool(info.is_builtin);
        h.u64(info.fields.len() as u64);
        for f in &info.fields {
            h.str(&f.name);
            hash_type(&mut h, &f.ty);
            hash_modifiers(&mut h, &f.modifiers);
        }
        for (tag, sigs) in [(1u8, &info.ctors), (2u8, &info.methods)] {
            h.tag(tag);
            h.u64(sigs.len() as u64);
            for m in sigs {
                h.str(&m.name);
                h.u64(m.params.len() as u64);
                for p in &m.params {
                    hash_type(&mut h, p);
                }
                h.bool(m.ret.is_some());
                if let Some(r) = &m.ret {
                    hash_type(&mut h, r);
                }
                hash_modifiers(&mut h, &m.modifiers);
                h.bool(m.is_builtin);
            }
        }
    }
    h.finish()
}

/// Fingerprint of a resolved `field name → constant array length` map
/// (the interval analysis's one whole-program input).
pub fn field_lens_fp(lens: &BTreeMap<String, i64>) -> Fp {
    let mut h = StructHasher::new();
    h.u64(lens.len() as u64);
    for (name, len) in lens {
        h.str(name);
        h.i64(*len);
    }
    h.finish()
}

/// Where a method sits in the current parse: its own node id (the
/// last of the contiguous stretch its nodes take), and the offset, line
/// and column of its first token.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Base {
    id: u32,
    start: usize,
    line: u32,
    col: u32,
}

impl Base {
    fn of(decl: &MethodDecl) -> Base {
        Base {
            id: decl.id.0,
            start: decl.span.start,
            line: decl.span.line,
            col: decl.span.col,
        }
    }
}

/// One node relative to its method's [`Base`]: the id counts down from
/// the base id, offset and line count up from the base. The column is
/// relative on the base's line and absolute below it, because an edit
/// before the method moves columns on exactly the line it ends on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RelNode {
    id: u32,
    start: u32,
    len: u32,
    line: u32,
    col: u32,
}

impl RelNode {
    fn new(base: &Base, id: NodeId, span: Span) -> RelNode {
        let line = span.line.wrapping_sub(base.line);
        let offset = |n: usize| u32::try_from(n).expect("method text fits u32");
        RelNode {
            id: base.id.wrapping_sub(id.0),
            start: offset(span.start.wrapping_sub(base.start)),
            len: offset(span.end.saturating_sub(span.start)),
            line,
            col: if line == 0 {
                span.col.wrapping_sub(base.col)
            } else {
                span.col
            },
        }
    }

    fn at(&self, base: &Base) -> (NodeId, Span) {
        let start = base.start + self.start as usize;
        let col = if self.line == 0 {
            base.col.wrapping_add(self.col)
        } else {
            self.col
        };
        let line = base.line.wrapping_add(self.line);
        let span = Span::new(start, start + self.len as usize, line, col);
        (NodeId(base.id.wrapping_sub(self.id)), span)
    }
}

/// In [`NodeMap`]'s index by relative id: a relative id that names no
/// statement or expression, and the bit that marks an expression's
/// pre-order index (a statement's has it clear).
const NO_INDEX: u32 = u32::MAX;
const EXPR: u32 = 1 << 31;

/// Pre-order id/span tables for one method body, used to rebase cached
/// index-based results onto the current parse.
///
/// Statement indices follow [`jtlang::ast::walk_stmts`] pre-order;
/// expression indices follow [`jtlang::ast::walk_exprs`] order (the
/// statement pre-order crossed with each statement's directly-owned
/// expressions in [`jtlang::ast::walk_expr`] pre-order). Both walkers
/// are deterministic functions of tree shape, so methods with equal
/// [`method_fp`] have identical index assignments.
///
/// Entries are stored relative to the method's own id and first token,
/// in dense vectors indexed by pre-order index and by relative id. An
/// edit elsewhere that moves the method shifts every node of it alike,
/// so [`NodeMap::rebase`] carries the map to the new parse in O(1).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeMap {
    base: Base,
    stmts: Vec<RelNode>,
    exprs: Vec<RelNode>,
    /// Pre-order index by relative id (see [`EXPR`]).
    at: Vec<u32>,
}

impl NodeMap {
    /// Builds the map for one method declaration.
    pub fn build(decl: &MethodDecl) -> NodeMap {
        let base = Base::of(decl);
        let mut map = NodeMap {
            base,
            ..NodeMap::default()
        };
        jtlang::ast::walk_stmts(&decl.body, &mut |s| {
            map.stmts.push(RelNode::new(&base, s.id, s.span));
        });
        jtlang::ast::walk_stmts(&decl.body, &mut |s| {
            for e in stmt_exprs(s) {
                walk_expr(e, &mut |e| {
                    map.exprs.push(RelNode::new(&base, e.id, e.span))
                });
            }
        });
        // The index lives as long as the database: keep no spare room.
        map.stmts.shrink_to_fit();
        map.exprs.shrink_to_fit();
        let len = map
            .stmts
            .iter()
            .chain(&map.exprs)
            .map(|n| n.id as usize + 1)
            .max();
        map.at = vec![NO_INDEX; len.unwrap_or(0)];
        for (tag, nodes) in [(0, &map.stmts), (EXPR, &map.exprs)] {
            for (i, n) in nodes.iter().enumerate() {
                map.at[n.id as usize] = tag | u32::try_from(i).expect("node count fits u32");
            }
        }
        map
    }

    /// Moves the map to `decl`'s place in the current parse: `decl`
    /// must be the method the map was built from, or a copy of it that
    /// an edit elsewhere moved (equal up to ids and spans).
    pub fn rebase(&mut self, decl: &MethodDecl) {
        self.base = Base::of(decl);
    }

    /// `(id, span)` of the statement at pre-order index `idx`.
    pub fn stmt(&self, idx: usize) -> (NodeId, Span) {
        self.stmts[idx].at(&self.base)
    }

    /// `(id, span)` of the expression at pre-order index `idx`.
    pub fn expr(&self, idx: usize) -> (NodeId, Span) {
        self.exprs[idx].at(&self.base)
    }

    /// Pre-order index of a statement id from this method body.
    pub fn stmt_index(&self, id: NodeId) -> Option<usize> {
        self.lookup(id, 0)
    }

    /// Pre-order index of an expression id from this method body.
    pub fn expr_index(&self, id: NodeId) -> Option<usize> {
        self.lookup(id, EXPR)
    }

    fn lookup(&self, id: NodeId, tag: u32) -> Option<usize> {
        let rel = self.base.id.checked_sub(id.0)?;
        let i = *self.at.get(rel as usize)?;
        (i != NO_INDEX && i & EXPR == tag).then_some((i & !EXPR) as usize)
    }

    /// Number of statements in the method body.
    pub fn stmt_count(&self) -> usize {
        self.stmts.len()
    }

    /// Number of expressions in the method body.
    pub fn expr_count(&self) -> usize {
        self.exprs.len()
    }
}

/// What the index keeps of one constructor or method by position: its
/// part of [`ProgramIndex::revision_fp`] and its field-length writes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct MemberPart {
    layout: Fp,
    len_writes: LenWrites,
}

/// Per-method fingerprints for a whole program, carried from revision
/// to revision.
///
/// [`ProgramIndex::update`] re-fingerprints only the members a splice
/// re-parsed ([`jtlang::reparse()`]); every other method keeps its
/// fingerprint and node map, and only moves to its place in the new
/// parse. A build from scratch is the same update with every member
/// re-parsed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProgramIndex {
    /// Global signature fingerprint.
    pub sig: Fp,
    /// Per-class context fingerprints.
    pub class_ctx: BTreeMap<String, Fp>,
    /// Per-method `(fingerprint, node map)` keyed by method reference.
    pub methods: BTreeMap<crate::MethodRef, (Fp, NodeMap)>,
    /// Per class, its constructors then its methods, in declaration
    /// order.
    members: Vec<Vec<MemberPart>>,
    /// Every member's field-length writes, merged.
    pub(crate) field_lens: FieldLenIndex,
}

impl ProgramIndex {
    /// Fingerprints every method of `program`.
    pub fn build(program: &Program, table: &ClassTable) -> ProgramIndex {
        let mut ix = ProgramIndex::default();
        ix.update(program, table, None);
        ix
    }

    /// Brings the index from the program it last saw to `program`.
    ///
    /// `spliced` names the members re-parsed since then, all with their
    /// signatures unchanged, while the rest of the program moved at
    /// most (what [`jtlang::reparse()`] splices do). `None`, or a program
    /// whose classes and member counts differ from the last one,
    /// re-fingerprints every member.
    pub fn update(&mut self, program: &Program, table: &ClassTable, spliced: Option<&[MemberPos]>) {
        let same_shape = self.members.len() == program.classes.len()
            && self
                .members
                .iter()
                .zip(&program.classes)
                .all(|(parts, c)| parts.len() == c.ctors.len() + c.methods.len());
        match spliced {
            Some(spliced) if same_shape => {
                for pos in spliced {
                    self.reindex(program, *pos);
                }
            }
            _ => {
                *self = ProgramIndex {
                    sig: sig_fp(table),
                    class_ctx: program
                        .classes
                        .iter()
                        .map(|c| (c.name.clone(), class_ctx_fp(program, table, &c.name)))
                        .collect(),
                    members: program
                        .classes
                        .iter()
                        .map(|c| vec![MemberPart::default(); c.ctors.len() + c.methods.len()])
                        .collect(),
                    ..ProgramIndex::default()
                };
                for (class, c) in program.classes.iter().enumerate() {
                    let ctors = (0..c.ctors.len()).map(|index| (true, index));
                    let methods = (0..c.methods.len()).map(|index| (false, index));
                    for (ctor, index) in ctors.chain(methods) {
                        self.reindex(program, MemberPos { class, ctor, index });
                    }
                }
            }
        }
        for (_, decl, mref) in crate::each_method(program) {
            if let Some((_, map)) = self.methods.get_mut(&mref) {
                map.rebase(decl);
            }
        }
    }

    /// Re-fingerprints the member at `pos`.
    fn reindex(&mut self, program: &Program, pos: MemberPos) {
        let class = &program.classes[pos.class];
        let decl = pos.decl(program);
        let fp = method_fp(decl);
        let part = MemberPart {
            layout: layout_fp(decl, fp),
            len_writes: LenWrites::of(class, decl),
        };
        let slot = if pos.ctor {
            pos.index
        } else {
            class.ctors.len() + pos.index
        };
        self.field_lens.add(&part.len_writes);
        let old = std::mem::replace(&mut self.members[pos.class][slot], part);
        self.field_lens.remove(&old.len_writes);
        let mref = if pos.ctor {
            crate::MethodRef::ctor(&class.name, decl.params.len())
        } else {
            crate::MethodRef::method(&class.name, &decl.name)
        };
        self.methods.insert(mref, (fp, NodeMap::build(decl)));
    }

    /// The cache key of a method-level query: method fingerprint
    /// combined with its class context.
    pub fn method_key(&self, mref: &crate::MethodRef) -> Option<Fp> {
        let (fp, _) = self.methods.get(mref)?;
        let ctx = self.class_ctx.get(&mref.class).copied().unwrap_or_default();
        Some(combine(&[*fp, ctx]))
    }

    /// Node map of a method in the current parse.
    pub fn node_map(&self, mref: &crate::MethodRef) -> Option<&NodeMap> {
        self.methods.get(mref).map(|(_, m)| m)
    }

    /// A fingerprint pinning the *exact parse* of `program`, the program
    /// the index was last brought to: the full structural hash plus
    /// every source span. Two programs share this value only when no
    /// analysis can distinguish them at all — identical structure
    /// (hence identical node-id assignment, which the parser derives
    /// from structure alone) and identical source positions.
    ///
    /// [`crate::db`] uses it to key whole-revision caches of derived
    /// products (points-to, races, WCET) whose results embed node ids
    /// and spans and therefore cannot be rebased the way per-method
    /// cores are. Unlike [`method_fp`], a whitespace-only edit *does*
    /// change this fingerprint — that is the point: span-bearing
    /// products are only replayed for byte-equivalent parses.
    ///
    /// Composed from each member's cached layout (its structure and
    /// spans relative to its first token) and where that token now is,
    /// so it costs one hash per member plus the class headers.
    pub fn revision_fp(&self, program: &Program) -> Fp {
        let mut h = StructHasher::new();
        h.u64(program.classes.len() as u64);
        for (class, parts) in program.classes.iter().zip(&self.members) {
            h.str(&class.name);
            h.bool(class.superclass.is_some());
            if let Some(s) = &class.superclass {
                h.str(s);
            }
            span(&mut h, class.span);
            h.u64(class.fields.len() as u64);
            for f in &class.fields {
                hash_modifiers(&mut h, &f.modifiers);
                hash_type(&mut h, &f.ty);
                h.str(&f.name);
                hash_opt_expr(&mut h, &f.init);
                span(&mut h, f.span);
                if let Some(init) = &f.init {
                    walk_expr(init, &mut |e| span(&mut h, e.span));
                }
            }
            h.u64(class.ctors.len() as u64);
            for (decl, part) in class.ctors.iter().chain(&class.methods).zip(parts) {
                h.u64(part.layout.0);
                h.u64(decl.span.start as u64);
            }
        }
        h.finish()
    }
}

fn span(h: &mut StructHasher, s: Span) {
    h.u64(s.start as u64);
    h.u64(s.end as u64);
}

/// A member's structure and its spans relative to its first token.
fn layout_fp(decl: &MethodDecl, fp: Fp) -> Fp {
    let base = decl.span.start;
    let mut h = StructHasher::new();
    let rel = |h: &mut StructHasher, s: Span| {
        h.u64(s.start.wrapping_sub(base) as u64);
        h.u64(s.end.wrapping_sub(base) as u64);
    };
    h.u64(fp.0);
    rel(&mut h, decl.span);
    for p in &decl.params {
        rel(&mut h, p.span);
    }
    rel(&mut h, decl.body.span);
    jtlang::ast::walk_stmts(&decl.body, &mut |s| {
        rel(&mut h, s.span);
        if let StmtKind::Block(b) = &s.kind {
            rel(&mut h, b.span);
        }
        for e in stmt_exprs(s) {
            walk_expr(e, &mut |e2| rel(&mut h, e2.span));
        }
    });
    h.finish()
}

/// Fingerprint of one class declaration's full contents (used by tests
/// and debugging; method bodies included).
pub fn class_fp(class: &ClassDecl) -> Fp {
    let mut h = StructHasher::new();
    h.str(&class.name);
    h.bool(class.superclass.is_some());
    if let Some(s) = &class.superclass {
        h.str(s);
    }
    h.u64(class.fields.len() as u64);
    for f in &class.fields {
        hash_modifiers(&mut h, &f.modifiers);
        hash_type(&mut h, &f.ty);
        h.str(&f.name);
        hash_opt_expr(&mut h, &f.init);
    }
    for m in class.ctors.iter().chain(&class.methods) {
        h.u64(method_fp(m).0);
    }
    h.finish()
}

/// Fingerprint-stable allocation-site id: the owning member (class,
/// name, and a constructor's arity) plus the site's body-walk-order
/// ordinal. Deliberately span- and node-id-free, so a points-to object
/// keyed by it can be rebased onto any structurally identical revision
/// (the ordinal is a function of tree shape alone). Field-initializer
/// sites pass the pseudo-method name `"<field-init>"` to keep their
/// ordinal namespace separate from the explicit constructor's.
pub fn site_fp(member: &crate::MethodRef, method: &str, ordinal: u64) -> Fp {
    let mut h = StructHasher::new();
    h.tag(0x51);
    h.str(&member.class);
    h.str(method);
    h.bool(member.is_ctor);
    h.u64(u64::from(member.arity));
    h.u64(ordinal);
    h.finish()
}

/// Site id of the per-class summary object (externally created
/// instances); disjoint from every [`site_fp`] by tag.
pub fn summary_site_fp(class: &str) -> Fp {
    let mut h = StructHasher::new();
    h.tag(0x52);
    h.str(class);
    h.finish()
}

/// Span-free whole-program fingerprint: the class signature table plus
/// every class's structural hash (field initializers and method bodies
/// included). Two revisions sharing it produce identical points-to
/// relations up to spans/node ids — [`crate::db`] uses it to key the
/// points-to cache, rebasing the hit onto the revision's spans.
pub fn program_fp(program: &Program, table: &ClassTable) -> Fp {
    let mut parts = vec![sig_fp(table)];
    parts.extend(program.classes.iter().map(class_fp));
    combine(&parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend;

    #[test]
    fn whitespace_and_comments_do_not_change_fingerprints() {
        let a = "class C { private int x; int get() { return x + 1; } }";
        let b = "class C {\n  // a comment\n  private int x;\n\n  int get() {\n    return x + 1; // trailing\n  }\n}\n";
        let (pa, ta) = frontend(a).unwrap();
        let (pb, tb) = frontend(b).unwrap();
        let ia = ProgramIndex::build(&pa, &ta);
        let ib = ProgramIndex::build(&pb, &tb);
        assert_eq!(ia.sig, ib.sig);
        for (mref, (fp, _)) in &ia.methods {
            assert_eq!(Some(*fp), ib.methods.get(mref).map(|(f, _)| *f), "{mref:?}");
            assert_eq!(ia.method_key(mref), ib.method_key(mref));
        }
    }

    #[test]
    fn pretty_round_trip_preserves_fingerprints() {
        for s in jtlang::corpus::samples() {
            let (p1, t1) = frontend(s.source).unwrap();
            let printed = jtlang::pretty::print_program(&p1);
            let (p2, t2) = frontend(&printed).unwrap();
            let i1 = ProgramIndex::build(&p1, &t1);
            let i2 = ProgramIndex::build(&p2, &t2);
            assert_eq!(i1.sig, i2.sig, "{}", s.name);
            assert_eq!(
                i1.methods.keys().collect::<Vec<_>>(),
                i2.methods.keys().collect::<Vec<_>>(),
                "{}",
                s.name
            );
            for (mref, (fp, _)) in &i1.methods {
                assert_eq!(
                    Some(*fp),
                    i2.methods.get(mref).map(|(f, _)| *f),
                    "{} {mref:?}",
                    s.name
                );
            }
        }
    }

    #[test]
    fn semantic_edits_change_the_fingerprint() {
        let base = "class C { int f(int x) { return x + 1; } }";
        let edits = [
            "class C { int f(int x) { return x + 2; } }",
            "class C { int f(int y) { return y + 1; } }",
            "class C { int f(int x) { return x - 1; } }",
            "class C { int g(int x) { return x + 1; } }",
        ];
        let (p, _) = frontend(base).unwrap();
        let fp0 = method_fp(&p.classes[0].methods[0]);
        for e in edits {
            let (pe, _) = frontend(e).unwrap();
            assert_ne!(fp0, method_fp(&pe.classes[0].methods[0]), "{e}");
        }
    }

    #[test]
    fn node_map_indices_are_dense_and_rebase_spans() {
        for s in jtlang::corpus::samples() {
            let (p, _) = frontend(s.source).unwrap();
            for class in &p.classes {
                for decl in class.ctors.iter().chain(&class.methods) {
                    let map = NodeMap::build(decl);
                    for i in 0..map.expr_count() {
                        let (id, span) = map.expr(i);
                        assert_eq!(map.expr_index(id), Some(i));
                        assert!(span.end >= span.start);
                    }
                    for i in 0..map.stmts.len() {
                        let (id, _) = map.stmt(i);
                        assert_eq!(map.stmt_index(id), Some(i));
                    }
                }
            }
        }
    }

    #[test]
    fn class_context_tracks_superclass_fields() {
        let a = "class A { protected int buf; } class B extends A { int get() { return buf; } }";
        let b = "class A { protected int cnt; } class B extends A { int get() { return cnt; } }";
        let (pa, ta) = frontend(a).unwrap();
        let (pb, tb) = frontend(b).unwrap();
        assert_ne!(
            class_ctx_fp(&pa, &ta, "B"),
            class_ctx_fp(&pb, &tb, "B"),
            "inherited field rename must invalidate the subclass context"
        );
    }
}
