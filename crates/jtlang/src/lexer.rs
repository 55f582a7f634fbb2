//! The hand-written JT scanner.

use crate::token::{Span, Token, TokenKind};
use std::fmt;

/// Error produced when the scanner meets a character or literal it cannot
/// tokenize.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    /// Explanation of what went wrong.
    pub message: String,
    /// Where it went wrong.
    pub span: Span,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error at {}: {}", self.span, self.message)
    }
}

impl std::error::Error for LexError {}

/// Tokenizes `source`, ending the stream with a [`TokenKind::Eof`] token.
///
/// Line comments (`// …`) and block comments (`/* … */`) are skipped.
///
/// # Errors
///
/// Returns a [`LexError`] on unknown characters, unterminated block
/// comments, or integer literals that overflow `i64`.
pub fn lex(source: &str) -> Result<Vec<Token>, LexError> {
    Lexer::new(source).run()
}

/// Tokenizes the stretch `start..end` of `source`, which begins at a
/// token boundary on `line`, column `col`. Spans are offsets into the
/// whole of `source`; the [`TokenKind::Eof`] token sits at `end`. Bytes
/// from `end` on are never read, so a token or comment that would run
/// past `end` is cut off there.
pub(crate) fn lex_range(
    source: &str,
    start: usize,
    end: usize,
    line: u32,
    col: u32,
) -> Result<Vec<Token>, LexError> {
    Lexer {
        src: &source.as_bytes()[..end],
        pos: start,
        line,
        col,
        tokens: Vec::new(),
    }
    .run()
}

struct Lexer<'src> {
    src: &'src [u8],
    pos: usize,
    line: u32,
    col: u32,
    tokens: Vec<Token>,
}

impl<'src> Lexer<'src> {
    fn new(source: &'src str) -> Self {
        Lexer {
            src: source.as_bytes(),
            pos: 0,
            line: 1,
            col: 1,
            tokens: Vec::new(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.get(self.pos + 1).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn span_from(&self, start: usize, line: u32, col: u32) -> Span {
        Span::new(start, self.pos, line, col)
    }

    fn error(&self, start: usize, line: u32, col: u32, message: impl Into<String>) -> LexError {
        LexError {
            message: message.into(),
            span: self.span_from(start, line, col),
        }
    }

    fn run(mut self) -> Result<Vec<Token>, LexError> {
        loop {
            self.skip_trivia()?;
            let (start, line, col) = (self.pos, self.line, self.col);
            let Some(c) = self.bump() else {
                self.tokens.push(Token {
                    kind: TokenKind::Eof,
                    span: self.span_from(start, line, col),
                });
                return Ok(self.tokens);
            };
            let kind = match c {
                b'{' => TokenKind::LBrace,
                b'}' => TokenKind::RBrace,
                b'(' => TokenKind::LParen,
                b')' => TokenKind::RParen,
                b'[' => TokenKind::LBracket,
                b']' => TokenKind::RBracket,
                b';' => TokenKind::Semi,
                b',' => TokenKind::Comma,
                b'.' => TokenKind::Dot,
                b'%' => {
                    if self.peek() == Some(b'=') {
                        self.bump();
                        TokenKind::PercentAssign
                    } else {
                        TokenKind::Percent
                    }
                }
                b'+' => match self.peek() {
                    Some(b'+') => {
                        self.bump();
                        TokenKind::PlusPlus
                    }
                    Some(b'=') => {
                        self.bump();
                        TokenKind::PlusAssign
                    }
                    _ => TokenKind::Plus,
                },
                b'-' => match self.peek() {
                    Some(b'-') => {
                        self.bump();
                        TokenKind::MinusMinus
                    }
                    Some(b'=') => {
                        self.bump();
                        TokenKind::MinusAssign
                    }
                    _ => TokenKind::Minus,
                },
                b'*' => {
                    if self.peek() == Some(b'=') {
                        self.bump();
                        TokenKind::StarAssign
                    } else {
                        TokenKind::Star
                    }
                }
                b'/' => {
                    if self.peek() == Some(b'=') {
                        self.bump();
                        TokenKind::SlashAssign
                    } else {
                        TokenKind::Slash
                    }
                }
                b'!' => {
                    if self.peek() == Some(b'=') {
                        self.bump();
                        TokenKind::NotEq
                    } else {
                        TokenKind::Not
                    }
                }
                b'=' => {
                    if self.peek() == Some(b'=') {
                        self.bump();
                        TokenKind::EqEq
                    } else {
                        TokenKind::Assign
                    }
                }
                b'<' => {
                    if self.peek() == Some(b'=') {
                        self.bump();
                        TokenKind::Le
                    } else {
                        TokenKind::Lt
                    }
                }
                b'>' => {
                    if self.peek() == Some(b'=') {
                        self.bump();
                        TokenKind::Ge
                    } else {
                        TokenKind::Gt
                    }
                }
                b'&' => {
                    if self.peek() == Some(b'&') {
                        self.bump();
                        TokenKind::AndAnd
                    } else {
                        return Err(self.error(start, line, col, "expected `&&`"));
                    }
                }
                b'|' => {
                    if self.peek() == Some(b'|') {
                        self.bump();
                        TokenKind::OrOr
                    } else {
                        return Err(self.error(start, line, col, "expected `||`"));
                    }
                }
                b'0'..=b'9' => {
                    while matches!(self.peek(), Some(b'0'..=b'9')) {
                        self.bump();
                    }
                    let text = std::str::from_utf8(&self.src[start..self.pos])
                        .expect("digits are valid UTF-8");
                    match text.parse::<i64>() {
                        Ok(v) => TokenKind::Int(v),
                        Err(_) => {
                            return Err(self.error(
                                start,
                                line,
                                col,
                                format!("integer literal `{text}` overflows i64"),
                            ))
                        }
                    }
                }
                c if c == b'_' || c.is_ascii_alphabetic() => {
                    while matches!(self.peek(), Some(b'_') | Some(b'0'..=b'9'))
                        || self.peek().is_some_and(|c| c.is_ascii_alphabetic())
                    {
                        self.bump();
                    }
                    let text = std::str::from_utf8(&self.src[start..self.pos])
                        .expect("identifier bytes are valid UTF-8");
                    keyword(text).unwrap_or_else(|| TokenKind::Ident(text.to_string()))
                }
                other => {
                    return Err(self.error(
                        start,
                        line,
                        col,
                        format!("unexpected character `{}`", other as char),
                    ))
                }
            };
            self.tokens.push(Token {
                kind,
                span: self.span_from(start, line, col),
            });
        }
    }

    fn skip_trivia(&mut self) -> Result<(), LexError> {
        loop {
            match self.peek() {
                Some(c) if c.is_ascii_whitespace() => {
                    self.bump();
                }
                Some(b'/') if self.peek2() == Some(b'/') => {
                    while self.peek().is_some_and(|c| c != b'\n') {
                        self.bump();
                    }
                }
                Some(b'/') if self.peek2() == Some(b'*') => {
                    let (start, line, col) = (self.pos, self.line, self.col);
                    self.bump();
                    self.bump();
                    loop {
                        match self.bump() {
                            Some(b'*') if self.peek() == Some(b'/') => {
                                self.bump();
                                break;
                            }
                            Some(_) => {}
                            None => {
                                return Err(self.error(
                                    start,
                                    line,
                                    col,
                                    "unterminated block comment",
                                ))
                            }
                        }
                    }
                }
                _ => return Ok(()),
            }
        }
    }
}

fn keyword(text: &str) -> Option<TokenKind> {
    Some(match text {
        "class" => TokenKind::Class,
        "extends" => TokenKind::Extends,
        "public" => TokenKind::Public,
        "private" => TokenKind::Private,
        "protected" => TokenKind::Protected,
        "static" => TokenKind::Static,
        "final" => TokenKind::Final,
        "void" => TokenKind::Void,
        "int" => TokenKind::IntTy,
        "boolean" => TokenKind::BooleanTy,
        "if" => TokenKind::If,
        "else" => TokenKind::Else,
        "while" => TokenKind::While,
        "do" => TokenKind::Do,
        "for" => TokenKind::For,
        "return" => TokenKind::Return,
        "break" => TokenKind::Break,
        "continue" => TokenKind::Continue,
        "new" => TokenKind::New,
        "this" => TokenKind::This,
        "null" => TokenKind::Null,
        "true" => TokenKind::True,
        "false" => TokenKind::False,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_a_small_class() {
        let ks = kinds("class A { int x; }");
        assert_eq!(
            ks,
            vec![
                TokenKind::Class,
                TokenKind::Ident("A".into()),
                TokenKind::LBrace,
                TokenKind::IntTy,
                TokenKind::Ident("x".into()),
                TokenKind::Semi,
                TokenKind::RBrace,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn lexes_operators_greedily() {
        let ks = kinds("+ ++ += - -- -= * *= / /= ! != = == < <= > >= && || % %=");
        assert_eq!(
            ks[..ks.len() - 1],
            vec![
                TokenKind::Plus,
                TokenKind::PlusPlus,
                TokenKind::PlusAssign,
                TokenKind::Minus,
                TokenKind::MinusMinus,
                TokenKind::MinusAssign,
                TokenKind::Star,
                TokenKind::StarAssign,
                TokenKind::Slash,
                TokenKind::SlashAssign,
                TokenKind::Not,
                TokenKind::NotEq,
                TokenKind::Assign,
                TokenKind::EqEq,
                TokenKind::Lt,
                TokenKind::Le,
                TokenKind::Gt,
                TokenKind::Ge,
                TokenKind::AndAnd,
                TokenKind::OrOr,
                TokenKind::Percent,
                TokenKind::PercentAssign,
            ]
        );
    }

    #[test]
    fn skips_comments() {
        let ks = kinds("a // comment\n b /* multi\nline */ c");
        assert_eq!(
            ks,
            vec![
                TokenKind::Ident("a".into()),
                TokenKind::Ident("b".into()),
                TokenKind::Ident("c".into()),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn tracks_line_and_column() {
        let toks = lex("a\n  b").unwrap();
        assert_eq!((toks[0].span.line, toks[0].span.col), (1, 1));
        assert_eq!((toks[1].span.line, toks[1].span.col), (2, 3));
    }

    #[test]
    fn rejects_bad_input() {
        assert!(lex("@").is_err());
        assert!(lex("&").is_err());
        assert!(lex("|").is_err());
        assert!(lex("/* unterminated").is_err());
        assert!(lex("99999999999999999999999").is_err());
    }

    #[test]
    fn identifiers_may_contain_digits_and_underscores() {
        assert_eq!(
            kinds("foo_1 _bar")[..2],
            vec![
                TokenKind::Ident("foo_1".into()),
                TokenKind::Ident("_bar".into())
            ]
        );
    }

    #[test]
    fn keywords_are_not_identifiers() {
        assert_eq!(kinds("while")[0], TokenKind::While);
        assert_eq!(kinds("whilex")[0], TokenKind::Ident("whilex".into()));
    }
}
