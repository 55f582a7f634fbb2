//! Recursive-descent parser for JT.

use crate::ast::*;
use crate::lexer::{lex, lex_range, LexError};
use crate::token::{Span, Token, TokenKind};
use std::fmt;

/// Error produced by [`parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The scanner failed first.
    Lex(LexError),
    /// The token stream does not match the grammar.
    Unexpected {
        /// What the parser needed.
        expected: String,
        /// What it found.
        found: String,
        /// Where.
        span: Span,
    },
    /// Expressions, types or statements nest deeper than [`MAX_NESTING`].
    TooDeep {
        /// Where the first level past the limit starts.
        span: Span,
    },
}

/// How deep expressions, types and statements may nest: parentheses,
/// unary operators, operands of binary operators, postfix accesses,
/// `[]` suffixes and statement bodies each add a level. The parser and
/// every later pass over the tree recurse once per level, so the limit
/// bounds their stack use. A level of parentheses or blocks takes about
/// 10 KiB of parser stack in a debug build, so input at the limit still
/// parses, resolves and passes the policy check on the 2 MiB stack of a
/// test thread.
pub const MAX_NESTING: usize = 128;

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Lex(e) => write!(f, "{e}"),
            ParseError::Unexpected {
                expected,
                found,
                span,
            } => write!(f, "parse error at {span}: expected {expected}, found `{found}`"),
            ParseError::TooDeep { span } => write!(
                f,
                "parse error at {span}: nesting deeper than {MAX_NESTING} levels"
            ),
        }
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError::Lex(e)
    }
}

/// Parses a JT compilation unit.
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first lexical or syntactic
/// problem.
///
/// ```
/// let p = jtlang::parse("class A { int x; void m() { x = 1; } }").unwrap();
/// assert_eq!(p.classes[0].name, "A");
/// ```
pub fn parse(source: &str) -> Result<Program, ParseError> {
    let tokens = lex(source)?;
    Parser {
        tokens,
        pos: 0,
        next_id: 0,
        depth: 0,
    }
    .program()
}

/// Re-parses one constructor or method on its own: the member spans
/// `start..end` of `source`, begins on `line`, column `col`, belongs to
/// class `class_name` and numbers its nodes from `first_id`, exactly as
/// [`parse`] would inside the whole text (see [`crate::reparse`]).
///
/// Returns `Ok(None)` unless the tokens make exactly one constructor or
/// method that ends at `end`.
///
/// # Errors
///
/// The first lexical or syntactic error inside the stretch.
pub(crate) fn parse_member(
    source: &str,
    (start, end): (usize, usize),
    (line, col): (u32, u32),
    first_id: u32,
    class_name: &str,
) -> Result<Option<(bool, MethodDecl)>, ParseError> {
    let mut parser = Parser {
        tokens: lex_range(source, start, end, line, col)?,
        pos: 0,
        next_id: first_id,
        depth: 0,
    };
    let (mut fields, mut ctors, mut methods) = (Vec::new(), Vec::new(), Vec::new());
    parser.member(class_name, &mut fields, &mut ctors, &mut methods)?;
    if !parser.at(&TokenKind::Eof) || !fields.is_empty() {
        return Ok(None);
    }
    let member = match (ctors.pop(), methods.pop()) {
        (Some(ctor), None) => (true, ctor),
        (None, Some(method)) => (false, method),
        _ => return Ok(None),
    };
    Ok((member.1.body.span.end == end).then_some(member))
}

/// The binary operator `kind` denotes, with its precedence level (0
/// binds loosest), if any.
fn binary_op(kind: &TokenKind) -> Option<(BinOp, usize)> {
    Some(match kind {
        TokenKind::OrOr => (BinOp::Or, 0),
        TokenKind::AndAnd => (BinOp::And, 1),
        TokenKind::EqEq => (BinOp::Eq, 2),
        TokenKind::NotEq => (BinOp::Ne, 2),
        TokenKind::Lt => (BinOp::Lt, 3),
        TokenKind::Le => (BinOp::Le, 3),
        TokenKind::Gt => (BinOp::Gt, 3),
        TokenKind::Ge => (BinOp::Ge, 3),
        TokenKind::Plus => (BinOp::Add, 4),
        TokenKind::Minus => (BinOp::Sub, 4),
        TokenKind::Star => (BinOp::Mul, 5),
        TokenKind::Slash => (BinOp::Div, 5),
        TokenKind::Percent => (BinOp::Rem, 5),
        _ => return None,
    })
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    next_id: u32,
    /// Current nesting level (see [`MAX_NESTING`]).
    depth: usize,
}

impl Parser {
    fn id(&mut self) -> NodeId {
        let id = NodeId(self.next_id);
        self.next_id += 1;
        id
    }

    fn peek(&self) -> &Token {
        &self.tokens[self.pos]
    }

    fn peek_kind(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn peek2_kind(&self) -> &TokenKind {
        &self.tokens[(self.pos + 1).min(self.tokens.len() - 1)].kind
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos].clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    /// Span of the most recently consumed token — the natural end point
    /// of a construct the parser just finished.
    fn prev_span(&self) -> Span {
        self.tokens[self.pos.saturating_sub(1)].span
    }

    fn at(&self, kind: &TokenKind) -> bool {
        self.peek_kind() == kind
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.at(kind) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<Token, ParseError> {
        if self.at(kind) {
            Ok(self.bump())
        } else {
            Err(self.unexpected(&format!("`{kind}`")))
        }
    }

    fn expect_ident(&mut self, what: &str) -> Result<(String, Span), ParseError> {
        match self.peek_kind().clone() {
            TokenKind::Ident(name) => {
                let t = self.bump();
                Ok((name, t.span))
            }
            _ => Err(self.unexpected(what)),
        }
    }

    fn unexpected(&self, expected: &str) -> ParseError {
        ParseError::Unexpected {
            expected: expected.to_string(),
            found: self.peek_kind().to_string(),
            span: self.peek().span,
        }
    }

    /// Enters one more nesting level, failing past [`MAX_NESTING`].
    /// Loops that build a left-deep tree (binary operator chains,
    /// postfix chains, `[]` suffixes) call it once per node and restore
    /// `depth` when the tree is done.
    fn deeper(&mut self) -> Result<(), ParseError> {
        if self.depth == MAX_NESTING {
            return Err(ParseError::TooDeep {
                span: self.peek().span,
            });
        }
        self.depth += 1;
        Ok(())
    }

    /// Runs `f` one nesting level deeper.
    fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        self.deeper()?;
        let result = f(self);
        self.depth -= 1;
        result
    }

    fn program(mut self) -> Result<Program, ParseError> {
        let mut classes = Vec::new();
        while !self.at(&TokenKind::Eof) {
            classes.push(self.class_decl()?);
        }
        Ok(Program { classes })
    }

    fn class_decl(&mut self) -> Result<ClassDecl, ParseError> {
        let start = self.expect(&TokenKind::Class)?.span;
        let (name, name_span) = self.expect_ident("a class name")?;
        let superclass = if self.eat(&TokenKind::Extends) {
            Some(self.expect_ident("a superclass name")?.0)
        } else {
            None
        };
        self.expect(&TokenKind::LBrace)?;
        let mut fields = Vec::new();
        let mut ctors = Vec::new();
        let mut methods = Vec::new();
        while !self.at(&TokenKind::RBrace) {
            self.member(&name, &mut fields, &mut ctors, &mut methods)?;
        }
        self.expect(&TokenKind::RBrace)?;
        Ok(ClassDecl {
            id: self.id(),
            span: start.to(name_span),
            name,
            superclass,
            fields,
            ctors,
            methods,
        })
    }

    fn modifiers(&mut self) -> Modifiers {
        let mut m = Modifiers::default();
        loop {
            match self.peek_kind() {
                TokenKind::Public => {
                    self.bump();
                    m.visibility = Visibility::Public;
                }
                TokenKind::Private => {
                    self.bump();
                    m.visibility = Visibility::Private;
                }
                TokenKind::Protected => {
                    self.bump();
                    m.visibility = Visibility::Protected;
                }
                TokenKind::Static => {
                    self.bump();
                    m.is_static = true;
                }
                TokenKind::Final => {
                    self.bump();
                    m.is_final = true;
                }
                _ => return m,
            }
        }
    }

    fn member(
        &mut self,
        class_name: &str,
        fields: &mut Vec<FieldDecl>,
        ctors: &mut Vec<MethodDecl>,
        methods: &mut Vec<MethodDecl>,
    ) -> Result<(), ParseError> {
        let start = self.peek().span;
        let modifiers = self.modifiers();

        // Constructor: `Name (` where Name == class name.
        if let TokenKind::Ident(n) = self.peek_kind() {
            if n == class_name && matches!(self.peek2_kind(), TokenKind::LParen) {
                let (name, _) = self.expect_ident("a constructor name")?;
                let params = self.params()?;
                let body = self.block()?;
                ctors.push(MethodDecl {
                    id: self.id(),
                    span: start,
                    modifiers,
                    return_type: None,
                    name,
                    params,
                    body,
                });
                return Ok(());
            }
        }

        // `void m(...)` method.
        if self.eat(&TokenKind::Void) {
            let (name, _) = self.expect_ident("a method name")?;
            let params = self.params()?;
            let body = self.block()?;
            methods.push(MethodDecl {
                id: self.id(),
                span: start,
                modifiers,
                return_type: None,
                name,
                params,
                body,
            });
            return Ok(());
        }

        // Typed member: field or method.
        let ty = self.ty()?;
        let (name, _) = self.expect_ident("a member name")?;
        if self.at(&TokenKind::LParen) {
            let params = self.params()?;
            let body = self.block()?;
            methods.push(MethodDecl {
                id: self.id(),
                span: start,
                modifiers,
                return_type: Some(ty),
                name,
                params,
                body,
            });
        } else {
            let init = if self.eat(&TokenKind::Assign) {
                Some(self.expr()?)
            } else {
                None
            };
            self.expect(&TokenKind::Semi)?;
            fields.push(FieldDecl {
                id: self.id(),
                span: start,
                modifiers,
                ty,
                name,
                init,
            });
        }
        Ok(())
    }

    fn params(&mut self) -> Result<Vec<Param>, ParseError> {
        self.expect(&TokenKind::LParen)?;
        let mut params = Vec::new();
        if !self.at(&TokenKind::RParen) {
            loop {
                let start = self.peek().span;
                let ty = self.ty()?;
                let (name, _) = self.expect_ident("a parameter name")?;
                params.push(Param {
                    id: self.id(),
                    span: start,
                    ty,
                    name,
                });
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        self.expect(&TokenKind::RParen)?;
        Ok(params)
    }

    fn ty(&mut self) -> Result<Type, ParseError> {
        let base = match self.peek_kind().clone() {
            TokenKind::IntTy => {
                self.bump();
                Type::Int
            }
            TokenKind::BooleanTy => {
                self.bump();
                Type::Boolean
            }
            TokenKind::Ident(n) => {
                self.bump();
                Type::Class(n)
            }
            _ => return Err(self.unexpected("a type")),
        };
        self.array_suffixes(base)
    }

    /// Wraps `ty` in one array level per trailing `[]`.
    fn array_suffixes(&mut self, mut ty: Type) -> Result<Type, ParseError> {
        let outer = self.depth;
        while self.at(&TokenKind::LBracket) && matches!(self.peek2_kind(), TokenKind::RBracket) {
            self.deeper()?;
            self.bump();
            self.bump();
            ty = ty.array_of();
        }
        self.depth = outer;
        Ok(ty)
    }

    fn block(&mut self) -> Result<Block, ParseError> {
        let start = self.expect(&TokenKind::LBrace)?.span;
        let mut stmts = Vec::new();
        while !self.at(&TokenKind::RBrace) {
            stmts.push(self.stmt()?);
        }
        let end = self.expect(&TokenKind::RBrace)?.span;
        Ok(Block {
            id: self.id(),
            span: start.to(end),
            stmts,
        })
    }

    /// True when the upcoming tokens start a local variable declaration.
    fn at_var_decl(&self) -> bool {
        match self.peek_kind() {
            TokenKind::IntTy | TokenKind::BooleanTy => true,
            TokenKind::Ident(_) => {
                // `Name x` or `Name[] x` — identifier followed by another
                // identifier or by `[]`.
                match self.peek2_kind() {
                    TokenKind::Ident(_) => true,
                    TokenKind::LBracket => {
                        matches!(
                            self.tokens
                                .get(self.pos + 2)
                                .map(|t| &t.kind),
                            Some(TokenKind::RBracket)
                        )
                    }
                    _ => false,
                }
            }
            _ => false,
        }
    }

    fn stmt(&mut self) -> Result<Stmt, ParseError> {
        self.nested(Self::stmt_inner)
    }

    /// Dispatches on the statement's first token. The larger forms have
    /// functions of their own, which keeps this frame, and so the stack
    /// used per nesting level, small.
    fn stmt_inner(&mut self) -> Result<Stmt, ParseError> {
        let start = self.peek().span;
        match self.peek_kind() {
            TokenKind::LBrace => {
                let b = self.block()?;
                Ok(Stmt {
                    id: self.id(),
                    span: b.span,
                    kind: StmtKind::Block(b),
                })
            }
            TokenKind::If => self.if_stmt(start),
            TokenKind::While => self.while_stmt(start),
            TokenKind::Do => self.do_while_stmt(start),
            TokenKind::For => self.for_stmt(start),
            TokenKind::Return => {
                self.bump();
                let value = if self.at(&TokenKind::Semi) {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(&TokenKind::Semi)?;
                Ok(Stmt {
                    id: self.id(),
                    span: start,
                    kind: StmtKind::Return(value),
                })
            }
            TokenKind::Break => {
                self.bump();
                self.expect(&TokenKind::Semi)?;
                Ok(Stmt {
                    id: self.id(),
                    span: start,
                    kind: StmtKind::Break,
                })
            }
            TokenKind::Continue => {
                self.bump();
                self.expect(&TokenKind::Semi)?;
                Ok(Stmt {
                    id: self.id(),
                    span: start,
                    kind: StmtKind::Continue,
                })
            }
            _ => {
                let s = self.simple_stmt_no_semi()?;
                self.expect(&TokenKind::Semi)?;
                Ok(s)
            }
        }
    }

    fn if_stmt(&mut self, start: Span) -> Result<Stmt, ParseError> {
        self.bump();
        self.expect(&TokenKind::LParen)?;
        let cond = self.expr()?;
        self.expect(&TokenKind::RParen)?;
        let then_branch = Box::new(self.stmt()?);
        let else_branch = if self.eat(&TokenKind::Else) {
            Some(Box::new(self.stmt()?))
        } else {
            None
        };
        Ok(Stmt {
            id: self.id(),
            span: start,
            kind: StmtKind::If {
                cond,
                then_branch,
                else_branch,
            },
        })
    }

    fn while_stmt(&mut self, start: Span) -> Result<Stmt, ParseError> {
        self.bump();
        self.expect(&TokenKind::LParen)?;
        let cond = self.expr()?;
        self.expect(&TokenKind::RParen)?;
        let body = Box::new(self.stmt()?);
        Ok(Stmt {
            id: self.id(),
            span: start,
            kind: StmtKind::While { cond, body },
        })
    }

    fn do_while_stmt(&mut self, start: Span) -> Result<Stmt, ParseError> {
        self.bump();
        let body = Box::new(self.stmt()?);
        self.expect(&TokenKind::While)?;
        self.expect(&TokenKind::LParen)?;
        let cond = self.expr()?;
        self.expect(&TokenKind::RParen)?;
        self.expect(&TokenKind::Semi)?;
        Ok(Stmt {
            id: self.id(),
            span: start,
            kind: StmtKind::DoWhile { body, cond },
        })
    }

    fn for_stmt(&mut self, start: Span) -> Result<Stmt, ParseError> {
        self.bump();
        self.expect(&TokenKind::LParen)?;
        let init = if self.at(&TokenKind::Semi) {
            None
        } else {
            Some(Box::new(self.simple_stmt_no_semi()?))
        };
        self.expect(&TokenKind::Semi)?;
        let cond = if self.at(&TokenKind::Semi) {
            None
        } else {
            Some(self.expr()?)
        };
        self.expect(&TokenKind::Semi)?;
        let update = if self.at(&TokenKind::RParen) {
            None
        } else {
            Some(Box::new(self.simple_stmt_no_semi()?))
        };
        self.expect(&TokenKind::RParen)?;
        let body = Box::new(self.stmt()?);
        Ok(Stmt {
            id: self.id(),
            span: start,
            kind: StmtKind::For {
                init,
                cond,
                update,
                body,
            },
        })
    }

    /// A declaration, assignment, increment, or expression statement
    /// without its trailing semicolon (shared by `for` headers and
    /// ordinary statements).
    fn simple_stmt_no_semi(&mut self) -> Result<Stmt, ParseError> {
        let start = self.peek().span;
        if self.at_var_decl() {
            let ty = self.ty()?;
            let (name, _) = self.expect_ident("a variable name")?;
            let init = if self.eat(&TokenKind::Assign) {
                Some(self.expr()?)
            } else {
                None
            };
            return Ok(Stmt {
                id: self.id(),
                span: start.to(self.prev_span()),
                kind: StmtKind::VarDecl { ty, name, init },
            });
        }

        let target = self.expr()?;
        let op = match self.peek_kind() {
            TokenKind::Assign => Some(AssignOp::Set),
            TokenKind::PlusAssign => Some(AssignOp::Add),
            TokenKind::MinusAssign => Some(AssignOp::Sub),
            TokenKind::StarAssign => Some(AssignOp::Mul),
            TokenKind::SlashAssign => Some(AssignOp::Div),
            TokenKind::PercentAssign => Some(AssignOp::Rem),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let value = self.expr()?;
            return Ok(Stmt {
                id: self.id(),
                span: start.to(value.span),
                kind: StmtKind::Assign { target, op, value },
            });
        }
        // `x++` / `x--` desugar to `x += 1` / `x -= 1`.
        if self.at(&TokenKind::PlusPlus) || self.at(&TokenKind::MinusMinus) {
            let op = if self.bump().kind == TokenKind::PlusPlus {
                AssignOp::Add
            } else {
                AssignOp::Sub
            };
            let one = Expr {
                id: self.id(),
                span: start,
                kind: ExprKind::Int(1),
            };
            return Ok(Stmt {
                id: self.id(),
                span: start.to(self.prev_span()),
                kind: StmtKind::Assign {
                    target,
                    op,
                    value: one,
                },
            });
        }
        Ok(Stmt {
            id: self.id(),
            span: start,
            kind: StmtKind::Expr(target),
        })
    }

    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.nested(|p| p.binary_expr(0))
    }

    /// A chain of left-associative binary operators of precedence
    /// `min_level` or tighter (see [`binary_op`]), by precedence
    /// climbing: one stack frame per operand, not per level.
    fn binary_expr(&mut self, min_level: usize) -> Result<Expr, ParseError> {
        let outer = self.depth;
        let mut lhs = self.unary_expr()?;
        while let Some((op, level)) = binary_op(self.peek_kind()).filter(|&(_, l)| l >= min_level) {
            self.bump();
            self.deeper()?;
            let rhs = self.binary_expr(level + 1)?;
            lhs = self.binary(op, lhs, rhs);
        }
        self.depth = outer;
        Ok(lhs)
    }

    fn binary(&mut self, op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        let span = lhs.span.to(rhs.span);
        Expr {
            id: self.id(),
            span,
            kind: ExprKind::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            },
        }
    }

    fn unary_expr(&mut self) -> Result<Expr, ParseError> {
        let start = self.peek().span;
        let op = match self.peek_kind() {
            TokenKind::Minus => Some(UnOp::Neg),
            TokenKind::Not => Some(UnOp::Not),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let expr = self.nested(Self::unary_expr)?;
            let span = start.to(expr.span);
            return Ok(Expr {
                id: self.id(),
                span,
                kind: ExprKind::Unary {
                    op,
                    expr: Box::new(expr),
                },
            });
        }
        self.postfix_expr()
    }

    fn postfix_expr(&mut self) -> Result<Expr, ParseError> {
        let outer = self.depth;
        let mut expr = self.primary_expr()?;
        loop {
            if self.at(&TokenKind::Dot) || self.at(&TokenKind::LBracket) {
                self.deeper()?;
            }
            if self.eat(&TokenKind::Dot) {
                let (name, name_span) = self.expect_ident("a member name")?;
                if self.at(&TokenKind::LParen) {
                    let args = self.args()?;
                    let span = expr.span.to(self.prev_span());
                    expr = Expr {
                        id: self.id(),
                        span,
                        kind: ExprKind::Call {
                            receiver: Some(Box::new(expr)),
                            method: name,
                            args,
                        },
                    };
                } else if name == "length" {
                    let span = expr.span.to(name_span);
                    expr = Expr {
                        id: self.id(),
                        span,
                        kind: ExprKind::Length {
                            array: Box::new(expr),
                        },
                    };
                } else {
                    let span = expr.span.to(name_span);
                    expr = Expr {
                        id: self.id(),
                        span,
                        kind: ExprKind::Field {
                            object: Box::new(expr),
                            name,
                        },
                    };
                }
            } else if self.at(&TokenKind::LBracket) {
                self.bump();
                let index = self.expr()?;
                let end = self.expect(&TokenKind::RBracket)?.span;
                let span = expr.span.to(end);
                expr = Expr {
                    id: self.id(),
                    span,
                    kind: ExprKind::Index {
                        array: Box::new(expr),
                        index: Box::new(index),
                    },
                };
            } else {
                self.depth = outer;
                return Ok(expr);
            }
        }
    }

    fn args(&mut self) -> Result<Vec<Expr>, ParseError> {
        self.expect(&TokenKind::LParen)?;
        let mut args = Vec::new();
        if !self.at(&TokenKind::RParen) {
            loop {
                args.push(self.expr()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        self.expect(&TokenKind::RParen)?;
        Ok(args)
    }

    /// A literal, `this`, a parenthesized expression, or (through
    /// functions of their own, to keep this frame small) an allocation,
    /// a variable or a call.
    fn primary_expr(&mut self) -> Result<Expr, ParseError> {
        let start = self.peek().span;
        match self.peek_kind().clone() {
            TokenKind::Int(v) => {
                self.bump();
                Ok(Expr {
                    id: self.id(),
                    span: start,
                    kind: ExprKind::Int(v),
                })
            }
            TokenKind::True => {
                self.bump();
                Ok(Expr {
                    id: self.id(),
                    span: start,
                    kind: ExprKind::Bool(true),
                })
            }
            TokenKind::False => {
                self.bump();
                Ok(Expr {
                    id: self.id(),
                    span: start,
                    kind: ExprKind::Bool(false),
                })
            }
            TokenKind::Null => {
                self.bump();
                Ok(Expr {
                    id: self.id(),
                    span: start,
                    kind: ExprKind::Null,
                })
            }
            TokenKind::This => {
                self.bump();
                Ok(Expr {
                    id: self.id(),
                    span: start,
                    kind: ExprKind::This,
                })
            }
            TokenKind::New => self.new_expr(start),
            TokenKind::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(&TokenKind::RParen)?;
                Ok(e)
            }
            TokenKind::Ident(name) => self.name_expr(start, name),
            _ => Err(self.unexpected("an expression")),
        }
    }

    /// `new T(args)` or `new T[len]…`, with `new` next.
    fn new_expr(&mut self, start: Span) -> Result<Expr, ParseError> {
        self.bump();
        match self.peek_kind().clone() {
            TokenKind::IntTy | TokenKind::BooleanTy => {
                let elem = if self.bump().kind == TokenKind::IntTy {
                    Type::Int
                } else {
                    Type::Boolean
                };
                self.new_array(start, elem)
            }
            TokenKind::Ident(class) => {
                self.bump();
                if self.at(&TokenKind::LBracket) {
                    self.new_array(start, Type::Class(class))
                } else {
                    let args = self.args()?;
                    Ok(Expr {
                        id: self.id(),
                        span: start.to(self.prev_span()),
                        kind: ExprKind::NewObject { class, args },
                    })
                }
            }
            _ => Err(self.unexpected("a type after `new`")),
        }
    }

    /// A variable or an unqualified call, with its name next.
    fn name_expr(&mut self, start: Span, name: String) -> Result<Expr, ParseError> {
        self.bump();
        if self.at(&TokenKind::LParen) {
            let args = self.args()?;
            Ok(Expr {
                id: self.id(),
                span: start.to(self.prev_span()),
                kind: ExprKind::Call {
                    receiver: None,
                    method: name,
                    args,
                },
            })
        } else {
            Ok(Expr {
                id: self.id(),
                span: start,
                kind: ExprKind::Var(name),
            })
        }
    }

    /// `new T[len]` with optional further empty dimensions `[]` giving a
    /// nested array element type (only the first dimension is sized, as
    /// in Java's `new int[n][]`).
    fn new_array(&mut self, start: Span, elem: Type) -> Result<Expr, ParseError> {
        self.expect(&TokenKind::LBracket)?;
        let len = self.expr()?;
        self.expect(&TokenKind::RBracket)?;
        let elem = self.array_suffixes(elem)?;
        Ok(Expr {
            id: self.id(),
            span: start.to(self.prev_span()),
            kind: ExprKind::NewArray {
                elem,
                len: Box::new(len),
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_class_with_members() {
        let p = parse(
            "class A extends B {
                 private int x = 3;
                 public static final boolean FLAG = true;
                 A(int seed) { x = seed; }
                 int get() { return x; }
                 void set(int v) { x = v; }
             }",
        )
        .unwrap();
        let c = &p.classes[0];
        assert_eq!(c.name, "A");
        assert_eq!(c.superclass.as_deref(), Some("B"));
        assert_eq!(c.fields.len(), 2);
        assert_eq!(c.ctors.len(), 1);
        assert_eq!(c.methods.len(), 2);
        assert_eq!(c.fields[0].modifiers.visibility, Visibility::Private);
        assert!(c.fields[1].modifiers.is_static && c.fields[1].modifiers.is_final);
    }

    #[test]
    fn parses_control_flow() {
        let p = parse(
            "class A { void m(int n) {
                 int s = 0;
                 for (int i = 0; i < n; i++) { s += i; }
                 while (s > 100) { s -= 10; }
                 do { s = s * 2; } while (s < 5);
                 if (s == 7) { return; } else { s = 0; }
                 break;
                 continue;
             } }",
        );
        assert!(p.is_ok(), "{p:?}");
    }

    #[test]
    fn operator_precedence() {
        let p = parse("class A { int m() { return 1 + 2 * 3 - 4 / 2; } }").unwrap();
        let body = &p.classes[0].methods[0].body;
        let StmtKind::Return(Some(e)) = &body.stmts[0].kind else {
            panic!("expected return");
        };
        // ((1 + (2*3)) - (4/2))
        let ExprKind::Binary { op: BinOp::Sub, lhs, rhs } = &e.kind else {
            panic!("expected top-level -: {e:?}");
        };
        assert!(matches!(lhs.kind, ExprKind::Binary { op: BinOp::Add, .. }));
        assert!(matches!(rhs.kind, ExprKind::Binary { op: BinOp::Div, .. }));
    }

    #[test]
    fn parses_allocation_and_access() {
        let p = parse(
            "class A { void m() {
                 int[] a = new int[10];
                 int[][] b = new int[4][];
                 A other = new A();
                 a[0] = a.length + other.f(a[1], 2).g();
             } }",
        );
        assert!(p.is_ok(), "{p:?}");
    }

    #[test]
    fn field_vs_length() {
        let p = parse("class A { int m(A o) { return o.x + o.arr.length; } }").unwrap();
        let mut saw_field = false;
        let mut saw_length = false;
        crate::ast::walk_exprs(&p.classes[0].methods[0].body, &mut |e| match &e.kind {
            ExprKind::Field { name, .. } if name == "x" => saw_field = true,
            ExprKind::Length { .. } => saw_length = true,
            _ => {}
        });
        assert!(saw_field && saw_length);
    }

    #[test]
    fn parse_errors_are_reported_with_position() {
        let err = parse("class A { int }").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("expected"), "{msg}");
        assert!(msg.contains("1:"), "{msg}");
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("class").is_err());
        assert!(parse("class A {").is_err());
        assert!(parse("class A { void m() { x = ; } }").is_err());
        assert!(parse("class A { void m() { new ; } }").is_err());
        assert!(parse("int x;").is_err());
    }

    #[test]
    fn node_ids_are_unique() {
        let p = parse("class A { int f; void m() { int x = 1; x = x + 1; } }").unwrap();
        let mut ids = Vec::new();
        let body = &p.classes[0].methods[0].body;
        crate::ast::walk_stmts(body, &mut |s| ids.push(s.id));
        crate::ast::walk_exprs(body, &mut |e| ids.push(e.id));
        let mut dedup = ids.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(ids.len(), dedup.len());
    }

    #[test]
    fn this_and_calls_without_receiver() {
        let p = parse("class A { int x; void m() { this.x = 1; helper(); this.helper(); } }");
        assert!(p.is_ok(), "{p:?}");
    }

    #[test]
    fn statement_and_call_spans_cover_their_full_extent() {
        // Diagnostics underline `span.start..span.end`; these nodes used
        // to carry first-token-only spans.
        let src = "class A { void m(A o) { int x = 1 + 2; x = o.f(3, 4); o = new A(); int[] b = new int[8]; } }";
        let p = parse(src).unwrap();
        let body = &p.classes[0].methods[0].body;

        let snippet = |sp: Span| &src[sp.start..sp.end];
        let StmtKind::VarDecl { init: Some(_), .. } = &body.stmts[0].kind else {
            panic!()
        };
        assert_eq!(snippet(body.stmts[0].span), "int x = 1 + 2");
        let StmtKind::Assign { value, .. } = &body.stmts[1].kind else {
            panic!()
        };
        assert_eq!(snippet(body.stmts[1].span), "x = o.f(3, 4)");
        assert_eq!(snippet(value.span), "o.f(3, 4)");
        let StmtKind::Assign { value, .. } = &body.stmts[2].kind else {
            panic!()
        };
        assert_eq!(snippet(value.span), "new A()");
        let StmtKind::VarDecl { init: Some(init), .. } = &body.stmts[3].kind else {
            panic!()
        };
        assert_eq!(snippet(init.span), "new int[8]");

        let bare = parse("class A { void m() { go(1); } }").unwrap();
        let StmtKind::Expr(call) = &bare.classes[0].methods[0].body.stmts[0].kind else {
            panic!()
        };
        assert_eq!(call.span.end - call.span.start, "go(1)".len());
    }

    /// `class A { int[] a; int m() { body } }`.
    fn method(body: &str) -> String {
        format!("class A {{ int[] a; int m() {{ {body} }} }}")
    }

    #[test]
    fn nesting_up_to_the_limit_parses_and_past_it_is_an_error() {
        type Shape = (&'static str, fn(usize) -> String);
        let shapes: [Shape; 6] = [
            ("parentheses", |n| {
                method(&format!("return {}1{};", "(".repeat(n), ")".repeat(n)))
            }),
            ("unary operators", |n| {
                method(&format!("return {}1;", "- ".repeat(n)))
            }),
            ("binary operators", |n| {
                method(&format!("return 1{};", "+1".repeat(n)))
            }),
            ("postfix chains", |n| {
                method(&format!("return a{}.length;", "[0]".repeat(n)))
            }),
            ("array types", |n| {
                method(&format!("int{} b; return 0;", "[]".repeat(n)))
            }),
            ("blocks", |n| {
                method(&format!("{}{}", "{".repeat(n), "}".repeat(n)))
            }),
        ];
        for (what, src) in shapes {
            // The method body and the enclosing statement take a level
            // or two, so the deepest accepted input sits just below the
            // limit.
            let deepest = (0..=MAX_NESTING)
                .rev()
                .find(|&n| parse(&src(n)).is_ok())
                .unwrap_or_else(|| panic!("{what}: nothing parses"));
            assert!(
                deepest + 3 >= MAX_NESTING,
                "{what}: only {deepest} levels parse"
            );
            assert!(
                matches!(parse(&src(deepest + 1)), Err(ParseError::TooDeep { .. })),
                "{what}: one level deeper must be rejected"
            );
            let err = parse(&src(10_000)).unwrap_err();
            assert!(
                err.to_string().contains("nesting deeper than"),
                "{what}: {err}"
            );
        }
    }
}
