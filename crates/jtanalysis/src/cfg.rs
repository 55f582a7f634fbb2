//! Per-method control-flow graphs over the JT AST.
//!
//! The policy checks of the `sfr` crate were originally single-walk AST
//! heuristics; sound flow-sensitive verdicts need an explicit control-flow
//! graph. [`build`] lowers one method body into basic blocks of
//! [`Instr`]s joined by [`Terminator`]s, with edges for `if` / `while` /
//! `do-while` / `for` / `break` / `continue` / `return`. The graph
//! borrows the AST (`Cfg<'p>`), so construction allocates only the block
//! vectors.
//!
//! Structure invariants, relied on by [`crate::dataflow`]:
//!
//! * block 0 is the entry, block 1 the exit; the exit has no successors
//!   and no instructions,
//! * every `return` lowers to an [`Instr::Return`] followed by a jump to
//!   the exit, and the body's fall-through end jumps to the exit too,
//! * loop heads are marked ([`BasicBlock::loop_head`]) so solvers know
//!   where to apply widening,
//! * every `for` statement is recorded in [`Cfg::loops`] with its
//!   preheader (the block that ran the init statement), head, and exit
//!   blocks, so value analyses can read the environment at loop entry.

use crate::MethodRef;
use jtlang::ast::*;
use jtlang::token::Span;

/// Index of a basic block within its [`Cfg`].
pub type BlockId = usize;

/// One straight-line instruction: a statement with no internal control
/// flow, borrowing the AST.
#[derive(Debug, Clone)]
pub enum Instr<'p> {
    /// `T name = init;` / `T name;`
    Decl {
        /// Declared variable name.
        name: &'p str,
        /// Declared type.
        ty: &'p Type,
        /// Optional initializer.
        init: Option<&'p Expr>,
        /// Source span of the declaration.
        span: Span,
    },
    /// `target op= value;`
    Assign {
        /// Assignment target (variable, field access, or array index).
        target: &'p Expr,
        /// Plain or compound operator.
        op: AssignOp,
        /// Right-hand side.
        value: &'p Expr,
        /// Source span of the assignment.
        span: Span,
    },
    /// An expression evaluated for effect.
    Eval(&'p Expr),
    /// `return value?;` — always followed by a jump to the exit block.
    Return {
        /// Returned expression, if any.
        value: Option<&'p Expr>,
        /// Source span of the return statement.
        span: Span,
    },
}

impl<'p> Instr<'p> {
    /// The expressions read by this instruction, in evaluation order. For
    /// compound assignments the target is read as well as written.
    pub fn reads(&self) -> Vec<&'p Expr> {
        match self {
            Instr::Decl { init, .. } => init.iter().copied().collect(),
            Instr::Assign { target, op, value, .. } => {
                let mut r = Vec::new();
                if *op != AssignOp::Set {
                    r.push(*target);
                }
                // Index/field targets read their subexpressions even on
                // plain assignment; the analyses walk those via `target`.
                r.push(*value);
                r
            }
            Instr::Eval(e) => vec![e],
            Instr::Return { value, .. } => value.iter().copied().collect(),
        }
    }
}

/// How a basic block transfers control.
#[derive(Debug, Clone)]
pub enum Terminator<'p> {
    /// Unconditional jump.
    Goto(BlockId),
    /// Two-way branch on a condition: successor 0 when true, 1 when
    /// false.
    Branch {
        /// Branch condition.
        cond: &'p Expr,
        /// Block taken when the condition is true.
        then_bb: BlockId,
        /// Block taken when the condition is false.
        else_bb: BlockId,
    },
    /// End of the method (exit block only).
    Halt,
}

impl Terminator<'_> {
    /// Successor block ids, in edge order (`then` before `else`).
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            Terminator::Goto(t) => vec![*t],
            Terminator::Branch { then_bb, else_bb, .. } => vec![*then_bb, *else_bb],
            Terminator::Halt => Vec::new(),
        }
    }
}

/// A basic block: straight-line instructions plus one terminator.
#[derive(Debug, Clone)]
pub struct BasicBlock<'p> {
    /// Block id (== index in [`Cfg::blocks`]).
    pub id: BlockId,
    /// Straight-line instructions.
    pub instrs: Vec<Instr<'p>>,
    /// Control transfer out of the block.
    pub term: Terminator<'p>,
    /// Predecessor blocks (computed by [`build`]).
    pub preds: Vec<BlockId>,
    /// True when the block is the head of a loop (join point of a back
    /// edge) — the place solvers apply widening.
    pub loop_head: bool,
}

/// Shape of one lowered `for` loop, kept so value analyses can relate
/// dataflow facts back to the original statement.
#[derive(Debug, Clone)]
pub struct LoopShape<'p> {
    /// The original `for` statement.
    pub stmt: &'p Stmt,
    /// Block whose exit environment is the loop-entry state (the init
    /// statement runs at the end of this block).
    pub preheader: BlockId,
    /// Loop head (condition test).
    pub head: BlockId,
    /// Block control reaches after the loop.
    pub after: BlockId,
}

/// A per-method control-flow graph borrowing the AST.
#[derive(Debug, Clone)]
pub struct Cfg<'p> {
    /// Method this graph was built from.
    pub method: MethodRef,
    /// Parameters of the method (definitely assigned at entry).
    pub params: &'p [Param],
    /// Basic blocks; index == [`BasicBlock::id`].
    pub blocks: Vec<BasicBlock<'p>>,
    /// Entry block id (always 0).
    pub entry: BlockId,
    /// Exit block id (always 1).
    pub exit: BlockId,
    /// Lowered `for` loops, in source order.
    pub loops: Vec<LoopShape<'p>>,
}

impl<'p> Cfg<'p> {
    /// Reverse-postorder over forward edges from the entry — the
    /// canonical iteration order for forward dataflow.
    pub fn reverse_postorder(&self) -> Vec<BlockId> {
        let mut visited = vec![false; self.blocks.len()];
        let mut post = Vec::with_capacity(self.blocks.len());
        // Iterative DFS with an explicit phase marker.
        let mut stack = vec![(self.entry, false)];
        while let Some((b, expanded)) = stack.pop() {
            if expanded {
                post.push(b);
                continue;
            }
            if visited[b] {
                continue;
            }
            visited[b] = true;
            stack.push((b, true));
            for s in self.blocks[b].term.successors() {
                if !visited[s] {
                    stack.push((s, false));
                }
            }
        }
        post.reverse();
        post
    }
}

/// Builds the CFG of one method or constructor.
pub fn build<'p>(class: &'p ClassDecl, decl: &'p MethodDecl, mref: MethodRef) -> Cfg<'p> {
    let mut b = Builder {
        blocks: vec![
            BasicBlock {
                id: 0,
                instrs: Vec::new(),
                term: Terminator::Halt, // patched below
                preds: Vec::new(),
                loop_head: false,
            },
            BasicBlock {
                id: 1,
                instrs: Vec::new(),
                term: Terminator::Halt,
                preds: Vec::new(),
                loop_head: false,
            },
        ],
        loop_stack: Vec::new(),
        loops: Vec::new(),
    };
    let mut cur = 0;
    for stmt in &decl.body.stmts {
        cur = b.lower_stmt(stmt, cur);
    }
    b.set_term(cur, Terminator::Goto(1));
    let mut cfg = Cfg {
        method: mref,
        params: &decl.params,
        blocks: b.blocks,
        entry: 0,
        exit: 1,
        loops: b.loops,
    };
    let _ = class; // class context reserved for future field-sensitive builds
    // Predecessors and loop-head marking (any target of a back edge in a
    // DFS sense is conservatively found via the explicit loop lowering;
    // `mark_loop_head` already set the structural heads).
    let edges: Vec<(BlockId, BlockId)> = cfg
        .blocks
        .iter()
        .flat_map(|blk| blk.term.successors().into_iter().map(move |s| (blk.id, s)))
        .collect();
    for (from, to) in edges {
        cfg.blocks[to].preds.push(from);
    }
    cfg
}

/// Builds CFGs for every constructor and method of every class of a
/// program, in declaration order.
pub fn build_all(program: &Program) -> Vec<Cfg<'_>> {
    let mut cfgs = Vec::new();
    for class in &program.classes {
        for ctor in &class.ctors {
            cfgs.push(build(
                class,
                ctor,
                MethodRef::ctor(&class.name, ctor.params.len()),
            ));
        }
        for method in &class.methods {
            cfgs.push(build(class, method, MethodRef::method(&class.name, &method.name)));
        }
    }
    cfgs
}

struct Builder<'p> {
    blocks: Vec<BasicBlock<'p>>,
    /// (continue target, break target) per enclosing loop.
    loop_stack: Vec<(BlockId, BlockId)>,
    loops: Vec<LoopShape<'p>>,
}

impl<'p> Builder<'p> {
    fn new_block(&mut self) -> BlockId {
        let id = self.blocks.len();
        self.blocks.push(BasicBlock {
            id,
            instrs: Vec::new(),
            term: Terminator::Halt,
            preds: Vec::new(),
            loop_head: false,
        });
        id
    }

    fn set_term(&mut self, b: BlockId, term: Terminator<'p>) {
        self.blocks[b].term = term;
    }

    fn push(&mut self, b: BlockId, instr: Instr<'p>) {
        self.blocks[b].instrs.push(instr);
    }

    /// Lowers one statement starting in `cur`; returns the block where
    /// control continues.
    fn lower_stmt(&mut self, stmt: &'p Stmt, cur: BlockId) -> BlockId {
        match &stmt.kind {
            StmtKind::VarDecl { ty, name, init } => {
                self.push(
                    cur,
                    Instr::Decl {
                        name: name.as_str(),
                        ty,
                        init: init.as_ref(),
                        span: stmt.span,
                    },
                );
                cur
            }
            StmtKind::Assign { target, op, value } => {
                self.push(
                    cur,
                    Instr::Assign {
                        target,
                        op: *op,
                        value,
                        span: stmt.span,
                    },
                );
                cur
            }
            StmtKind::Expr(e) => {
                self.push(cur, Instr::Eval(e));
                cur
            }
            StmtKind::Return(value) => {
                self.push(
                    cur,
                    Instr::Return {
                        value: value.as_ref(),
                        span: stmt.span,
                    },
                );
                self.set_term(cur, Terminator::Goto(1));
                self.new_block() // unreachable continuation
            }
            StmtKind::Break => {
                let (_, brk) = *self.loop_stack.last().expect("break outside loop");
                self.set_term(cur, Terminator::Goto(brk));
                self.new_block()
            }
            StmtKind::Continue => {
                let (cont, _) = *self.loop_stack.last().expect("continue outside loop");
                self.set_term(cur, Terminator::Goto(cont));
                self.new_block()
            }
            StmtKind::Block(block) => {
                let mut c = cur;
                for s in &block.stmts {
                    c = self.lower_stmt(s, c);
                }
                c
            }
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let then_b = self.new_block();
                let join = self.new_block();
                let else_b = match else_branch {
                    Some(_) => self.new_block(),
                    None => join,
                };
                self.set_term(
                    cur,
                    Terminator::Branch {
                        cond,
                        then_bb: then_b,
                        else_bb: else_b,
                    },
                );
                let then_end = self.lower_stmt(then_branch, then_b);
                self.set_term(then_end, Terminator::Goto(join));
                if let Some(e) = else_branch {
                    let else_end = self.lower_stmt(e, else_b);
                    self.set_term(else_end, Terminator::Goto(join));
                }
                join
            }
            StmtKind::While { cond, body } => {
                let head = self.new_block();
                let body_b = self.new_block();
                let after = self.new_block();
                self.blocks[head].loop_head = true;
                self.set_term(cur, Terminator::Goto(head));
                self.set_term(
                    head,
                    Terminator::Branch {
                        cond,
                        then_bb: body_b,
                        else_bb: after,
                    },
                );
                self.loop_stack.push((head, after));
                let body_end = self.lower_stmt(body, body_b);
                self.loop_stack.pop();
                self.set_term(body_end, Terminator::Goto(head));
                after
            }
            StmtKind::DoWhile { body, cond } => {
                let body_b = self.new_block();
                let cond_b = self.new_block();
                let after = self.new_block();
                self.blocks[body_b].loop_head = true;
                self.set_term(cur, Terminator::Goto(body_b));
                self.loop_stack.push((cond_b, after));
                let body_end = self.lower_stmt(body, body_b);
                self.loop_stack.pop();
                self.set_term(body_end, Terminator::Goto(cond_b));
                self.set_term(
                    cond_b,
                    Terminator::Branch {
                        cond,
                        then_bb: body_b,
                        else_bb: after,
                    },
                );
                after
            }
            StmtKind::For {
                init,
                cond,
                update,
                body,
            } => {
                let mut pre = cur;
                if let Some(i) = init {
                    pre = self.lower_stmt(i, pre);
                }
                let head = self.new_block();
                let body_b = self.new_block();
                let update_b = self.new_block();
                let after = self.new_block();
                self.blocks[head].loop_head = true;
                self.set_term(pre, Terminator::Goto(head));
                match cond {
                    Some(c) => self.set_term(
                        head,
                        Terminator::Branch {
                            cond: c,
                            then_bb: body_b,
                            else_bb: after,
                        },
                    ),
                    None => self.set_term(head, Terminator::Goto(body_b)),
                }
                self.loop_stack.push((update_b, after));
                let body_end = self.lower_stmt(body, body_b);
                self.loop_stack.pop();
                self.set_term(body_end, Terminator::Goto(update_b));
                if let Some(u) = update {
                    let u_end = self.lower_stmt(u, update_b);
                    self.set_term(u_end, Terminator::Goto(head));
                } else {
                    self.set_term(update_b, Terminator::Goto(head));
                }
                self.loops.push(LoopShape {
                    stmt,
                    preheader: pre,
                    head,
                    after,
                });
                after
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend;

    fn cfg_of(body: &str) -> (jtlang::ast::Program, usize) {
        let src = format!("class A {{ void m(int n, int[] buf) {{ {body} }} }}");
        let (p, _) = frontend(&src).unwrap();
        let n = {
            let class = &p.classes[0];
            let cfg = build(class, &class.methods[0], MethodRef::method("A", "m"));
            check_invariants(&cfg);
            cfg.blocks.len()
        };
        (p, n)
    }

    fn build_only(src: &str) -> jtlang::ast::Program {
        let (p, _) = frontend(src).unwrap();
        p
    }

    fn check_invariants(cfg: &Cfg<'_>) {
        assert_eq!(cfg.entry, 0);
        assert_eq!(cfg.exit, 1);
        assert!(cfg.blocks[cfg.exit].instrs.is_empty());
        assert!(matches!(cfg.blocks[cfg.exit].term, Terminator::Halt));
        // Every successor edge has a matching predecessor entry.
        for blk in &cfg.blocks {
            for s in blk.term.successors() {
                assert!(
                    cfg.blocks[s].preds.contains(&blk.id),
                    "edge {} -> {s} missing pred",
                    blk.id
                );
            }
        }
        // The exit is reachable from the entry.
        assert!(cfg.reverse_postorder().contains(&cfg.exit));
    }

    #[test]
    fn straight_line_is_one_block_plus_exit() {
        let src = "class A { void m() { int x = 1; x = x + 1; } }";
        let p = build_only(src);
        let class = &p.classes[0];
        let cfg = build(class, &class.methods[0], MethodRef::method("A", "m"));
        check_invariants(&cfg);
        assert_eq!(cfg.blocks[0].instrs.len(), 2);
        assert!(matches!(cfg.blocks[0].term, Terminator::Goto(1)));
    }

    #[test]
    fn if_without_else_branches_to_join() {
        let p = build_only("class A { void m(int n) { if (n > 0) { n = 1; } n = 2; } }");
        let class = &p.classes[0];
        let cfg = build(class, &class.methods[0], MethodRef::method("A", "m"));
        check_invariants(&cfg);
        let Terminator::Branch { then_bb, else_bb, .. } = cfg.blocks[0].term else {
            panic!("entry must branch");
        };
        assert_ne!(then_bb, else_bb);
        // Else edge goes straight to the join block, which holds `n = 2`.
        assert_eq!(cfg.blocks[else_bb].instrs.len(), 1);
    }

    #[test]
    fn if_else_has_two_armed_branch() {
        let p = build_only(
            "class A { int m(int n) { int r; if (n > 0) { r = 1; } else { r = 2; } return r; } }",
        );
        let class = &p.classes[0];
        let cfg = build(class, &class.methods[0], MethodRef::method("A", "m"));
        check_invariants(&cfg);
        let Terminator::Branch { then_bb, else_bb, .. } = cfg.blocks[0].term else {
            panic!("entry must branch");
        };
        assert_eq!(cfg.blocks[then_bb].instrs.len(), 1);
        assert_eq!(cfg.blocks[else_bb].instrs.len(), 1);
    }

    #[test]
    fn while_loop_has_marked_head_and_back_edge() {
        let p = build_only("class A { void m(int n) { while (n > 0) { n -= 1; } } }");
        let class = &p.classes[0];
        let cfg = build(class, &class.methods[0], MethodRef::method("A", "m"));
        check_invariants(&cfg);
        let head = cfg.blocks.iter().find(|b| b.loop_head).expect("loop head");
        // The head has two predecessors: the entry and the body.
        assert_eq!(head.preds.len(), 2);
        assert!(matches!(head.term, Terminator::Branch { .. }));
    }

    #[test]
    fn do_while_executes_body_first() {
        let p = build_only("class A { void m(int n) { do { n -= 1; } while (n > 0); } }");
        let class = &p.classes[0];
        let cfg = build(class, &class.methods[0], MethodRef::method("A", "m"));
        check_invariants(&cfg);
        // Entry jumps unconditionally into the body (the loop head).
        let Terminator::Goto(body) = cfg.blocks[0].term else {
            panic!("entry must fall into the body");
        };
        assert!(cfg.blocks[body].loop_head);
        assert_eq!(cfg.blocks[body].instrs.len(), 1);
    }

    #[test]
    fn for_loop_records_shape() {
        let p = build_only("class A { void m() { for (int i = 0; i < 4; i++) { } } }");
        let class = &p.classes[0];
        let cfg = build(class, &class.methods[0], MethodRef::method("A", "m"));
        check_invariants(&cfg);
        assert_eq!(cfg.loops.len(), 1);
        let shape = &cfg.loops[0];
        assert!(cfg.blocks[shape.head].loop_head);
        // The preheader ran the init declaration.
        assert!(matches!(
            cfg.blocks[shape.preheader].instrs.last(),
            Some(Instr::Decl { name: "i", .. })
        ));
        assert!(matches!(cfg.blocks[shape.head].term, Terminator::Branch { .. }));
    }

    #[test]
    fn return_jumps_to_exit_and_starts_dead_block() {
        let p = build_only("class A { int m() { return 1; } }");
        let class = &p.classes[0];
        let cfg = build(class, &class.methods[0], MethodRef::method("A", "m"));
        check_invariants(&cfg);
        assert!(matches!(cfg.blocks[0].instrs[0], Instr::Return { .. }));
        assert!(matches!(cfg.blocks[0].term, Terminator::Goto(1)));
        // A trailing block exists but is unreachable (no preds).
        assert!(cfg.blocks.iter().any(|b| b.id > 1 && b.preds.is_empty()));
    }

    #[test]
    fn break_in_nested_loops_targets_inner_after() {
        let p = build_only(
            "class A { void m() {
                 for (int i = 0; i < 4; i++) {
                     for (int j = 0; j < 4; j++) {
                         if (j == 2) { break; }
                     }
                     if (i == 1) { continue; }
                 }
             } }",
        );
        let class = &p.classes[0];
        let cfg = build(class, &class.methods[0], MethodRef::method("A", "m"));
        check_invariants(&cfg);
        assert_eq!(cfg.loops.len(), 2);
        // Outer loop is pushed second in lowering order but listed after
        // the inner loop completes; find both by trip count of heads.
        let heads: Vec<_> = cfg.blocks.iter().filter(|b| b.loop_head).collect();
        assert_eq!(heads.len(), 2);
        // The inner `after` block must be a branch target of the
        // `break`'s goto; just confirm both `after` blocks are reachable.
        let rpo = cfg.reverse_postorder();
        for shape in &cfg.loops {
            assert!(rpo.contains(&shape.after), "after block unreachable");
        }
    }

    #[test]
    fn continue_in_for_targets_update_block() {
        let p = build_only(
            "class A { void m(int n) {
                 for (int i = 0; i < 9; i++) {
                     if (i == 3) { continue; }
                     n += i;
                 }
             } }",
        );
        let class = &p.classes[0];
        let cfg = build(class, &class.methods[0], MethodRef::method("A", "m"));
        check_invariants(&cfg);
        // The head must still receive the update block's back edge plus
        // the preheader edge.
        let shape = &cfg.loops[0];
        assert_eq!(cfg.blocks[shape.head].preds.len(), 2);
    }

    #[test]
    fn build_all_covers_ctors_and_methods() {
        let (p, _) = frontend(jtlang::corpus::ELEVATOR).unwrap();
        let cfgs = build_all(&p);
        // Elevator: 1 ctor + 7 methods.
        assert_eq!(cfgs.len(), 8);
        for cfg in &cfgs {
            check_invariants(cfg);
        }
    }

    #[test]
    fn block_counts_scale_with_control_flow() {
        let (_, straight) = cfg_of("n = 1;");
        let (_, branchy) = cfg_of("if (n > 0) { n = 1; } else { n = 2; } while (n > 0) { n -= 1; }");
        assert!(branchy > straight);
    }

    #[test]
    fn instr_reads_include_compound_target() {
        let p = build_only("class A { void m(int n) { n += 1; n = 2; } }");
        let class = &p.classes[0];
        let cfg = build(class, &class.methods[0], MethodRef::method("A", "m"));
        let reads0 = cfg.blocks[0].instrs[0].reads();
        assert_eq!(reads0.len(), 2, "compound assign reads its target");
        let reads1 = cfg.blocks[0].instrs[1].reads();
        assert_eq!(reads1.len(), 1, "plain assign reads only the value");
    }
}
