//! Recursive-descent parser for mini-SCOPE scripts.
//!
//! Grammar (keywords case-insensitive, statements `;`-terminated):
//!
//! ```text
//! script    := statement*
//! statement := OUTPUT ident TO str [SINGLE] ';'
//!            | ident '=' op ';'
//! op        := EXTRACT FROM str PARTITIONS int [COST num]
//!            | SELECT FROM ident [WHERE str] [COST num]
//!            | PROJECT ident [COST num]
//!            | (REDUCE | AGGREGATE) ident ON str PARTITIONS int [COST num]
//!            | DISTINCT ident ON str PARTITIONS int [COST num]
//!            | SORT ident BY str PARTITIONS int [COST num]
//!            | PROCESS ident USING str [COST num]
//!            | JOIN ident ',' ident ON str PARTITIONS int [COST num]
//!            | UNION ident ',' ident [PARTITIONS int] [COST num]
//! ```

use crate::ast::{OutputMode, Script, Statement};
use crate::lexer::{tokenize, LexError, Token, TokenKind};
use std::fmt;

/// Errors produced while parsing.
#[derive(Clone, Debug, PartialEq)]
pub enum ParseError {
    /// Tokenization failed.
    Lex(LexError),
    /// A token other than the expected one appeared.
    Unexpected {
        /// What the parser wanted.
        expected: String,
        /// What it found (rendered), or "end of input".
        found: String,
        /// 1-based line of the found token (0 at end of input).
        line: u32,
    },
    /// A number is well-formed but out of range for its keyword.
    OutOfRange {
        /// The keyword the number follows (`PARTITIONS` or `COST`).
        keyword: &'static str,
        /// The number as written.
        value: String,
        /// The accepted range, in words.
        expected: &'static str,
        /// 1-based line of the number.
        line: u32,
    },
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Lex(e) => write!(f, "{e}"),
            ParseError::Unexpected {
                expected,
                found,
                line,
            } => {
                write!(f, "line {line}: expected {expected}, found {found}")
            }
            ParseError::OutOfRange {
                keyword,
                value,
                expected,
                line,
            } => write!(
                f,
                "line {line}: {keyword} {value} is out of range: expected {expected}"
            ),
        }
    }
}

impl std::error::Error for ParseError {}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn err<T>(&self, expected: &str) -> Result<T, ParseError> {
        let (found, line) = match self.peek() {
            Some(t) => (t.kind.to_string(), t.line),
            None => ("end of input".to_string(), 0),
        };
        Err(ParseError::Unexpected {
            expected: expected.to_string(),
            found,
            line,
        })
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        match self.peek() {
            Some(Token {
                kind: TokenKind::Keyword(k),
                ..
            }) if k == kw => {
                self.pos += 1;
                Ok(())
            }
            _ => self.err(&format!("keyword {kw}")),
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        matches!(
            self.peek(),
            Some(Token { kind: TokenKind::Keyword(k), .. }) if k == kw
        ) && {
            self.pos += 1;
            true
        }
    }

    fn expect_ident(&mut self) -> Result<String, ParseError> {
        match self.peek() {
            Some(Token {
                kind: TokenKind::Ident(_),
                ..
            }) => {
                let Some(Token {
                    kind: TokenKind::Ident(name),
                    ..
                }) = self.next()
                else {
                    unreachable!("peeked an identifier")
                };
                Ok(name)
            }
            _ => self.err("identifier"),
        }
    }

    fn expect_str(&mut self) -> Result<String, ParseError> {
        match self.peek() {
            Some(Token {
                kind: TokenKind::Str(_),
                ..
            }) => {
                let Some(Token {
                    kind: TokenKind::Str(s),
                    ..
                }) = self.next()
                else {
                    unreachable!("peeked a string")
                };
                Ok(s)
            }
            _ => self.err("string literal"),
        }
    }

    fn expect_int(&mut self) -> Result<u64, ParseError> {
        match self.peek() {
            Some(Token {
                kind: TokenKind::Int(v),
                ..
            }) => {
                let v = *v;
                self.pos += 1;
                Ok(v)
            }
            _ => self.err("integer"),
        }
    }

    fn expect_number(&mut self) -> Result<f64, ParseError> {
        match self.peek() {
            Some(Token {
                kind: TokenKind::Int(v),
                ..
            }) => {
                let v = *v as f64;
                self.pos += 1;
                Ok(v)
            }
            Some(Token {
                kind: TokenKind::Float(v),
                ..
            }) => {
                let v = *v;
                self.pos += 1;
                Ok(v)
            }
            _ => self.err("number"),
        }
    }

    fn expect(&mut self, kind: &TokenKind, what: &str) -> Result<(), ParseError> {
        match self.peek() {
            Some(t) if &t.kind == kind => {
                self.pos += 1;
                Ok(())
            }
            _ => self.err(what),
        }
    }

    /// The line of the next token (0 at end of input).
    fn line(&self) -> u32 {
        self.peek().map_or(0, |t| t.line)
    }

    /// Parses the partition count after a `PARTITIONS` keyword.
    fn partitions(&mut self) -> Result<u32, ParseError> {
        let line = self.line();
        let v = self.expect_int()?;
        u32::try_from(v).map_err(|_| ParseError::OutOfRange {
            keyword: "PARTITIONS",
            value: v.to_string(),
            expected: "at most 4294967295",
            line,
        })
    }

    /// Parses the optional trailing `COST num`, defaulting to 1.0. A
    /// cost must be finite and positive: it scales the stage's runtime
    /// distribution, whose median must be positive.
    fn optional_cost(&mut self) -> Result<f64, ParseError> {
        if !self.eat_keyword("COST") {
            return Ok(1.0);
        }
        let line = self.line();
        let cost = self.expect_number()?;
        if cost.is_finite() && cost > 0.0 {
            Ok(cost)
        } else {
            Err(ParseError::OutOfRange {
                keyword: "COST",
                value: cost.to_string(),
                expected: "a finite number above 0",
                line,
            })
        }
    }

    fn statement(&mut self) -> Result<Statement, ParseError> {
        if self.eat_keyword("OUTPUT") {
            let src = self.expect_ident()?;
            self.expect_keyword("TO")?;
            let path = self.expect_str()?;
            let mode = if self.eat_keyword("SINGLE") {
                OutputMode::Single
            } else {
                OutputMode::Partitioned
            };
            self.expect(&TokenKind::Semi, "';'")?;
            return Ok(Statement::Output { src, path, mode });
        }

        let name = self.expect_ident()?;
        self.expect(&TokenKind::Equals, "'='")?;
        let stmt = if self.eat_keyword("EXTRACT") {
            self.expect_keyword("FROM")?;
            let input = self.expect_str()?;
            self.expect_keyword("PARTITIONS")?;
            let partitions = self.partitions()?;
            let cost = self.optional_cost()?;
            Statement::Extract {
                name,
                input,
                partitions,
                cost,
            }
        } else if self.eat_keyword("SELECT") {
            self.expect_keyword("FROM")?;
            let src = self.expect_ident()?;
            let predicate = if self.eat_keyword("WHERE") {
                Some(self.expect_str()?)
            } else {
                None
            };
            let cost = self.optional_cost()?;
            Statement::Select {
                name,
                src,
                predicate,
                cost,
            }
        } else if self.eat_keyword("PROJECT") {
            let src = self.expect_ident()?;
            let cost = self.optional_cost()?;
            Statement::Project { name, src, cost }
        } else if self.eat_keyword("REDUCE") || self.eat_keyword("AGGREGATE") {
            let src = self.expect_ident()?;
            self.expect_keyword("ON")?;
            let key = self.expect_str()?;
            self.expect_keyword("PARTITIONS")?;
            let partitions = self.partitions()?;
            let cost = self.optional_cost()?;
            Statement::Reduce {
                name,
                src,
                key,
                partitions,
                cost,
            }
        } else if self.eat_keyword("JOIN") {
            let left = self.expect_ident()?;
            self.expect(&TokenKind::Comma, "','")?;
            let right = self.expect_ident()?;
            self.expect_keyword("ON")?;
            let key = self.expect_str()?;
            self.expect_keyword("PARTITIONS")?;
            let partitions = self.partitions()?;
            let cost = self.optional_cost()?;
            Statement::Join {
                name,
                left,
                right,
                key,
                partitions,
                cost,
            }
        } else if self.eat_keyword("SORT") {
            let src = self.expect_ident()?;
            self.expect_keyword("BY")?;
            let key = self.expect_str()?;
            self.expect_keyword("PARTITIONS")?;
            let partitions = self.partitions()?;
            let cost = self.optional_cost()?;
            Statement::Sort {
                name,
                src,
                key,
                partitions,
                cost,
            }
        } else if self.eat_keyword("DISTINCT") {
            let src = self.expect_ident()?;
            self.expect_keyword("ON")?;
            let key = self.expect_str()?;
            self.expect_keyword("PARTITIONS")?;
            let partitions = self.partitions()?;
            let cost = self.optional_cost()?;
            Statement::Distinct {
                name,
                src,
                key,
                partitions,
                cost,
            }
        } else if self.eat_keyword("PROCESS") {
            let src = self.expect_ident()?;
            self.expect_keyword("USING")?;
            let udo = self.expect_str()?;
            let cost = self.optional_cost()?;
            Statement::Process {
                name,
                src,
                udo,
                cost,
            }
        } else if self.eat_keyword("UNION") {
            let left = self.expect_ident()?;
            self.expect(&TokenKind::Comma, "','")?;
            let right = self.expect_ident()?;
            let partitions = if self.eat_keyword("PARTITIONS") {
                Some(self.partitions()?)
            } else {
                None
            };
            let cost = self.optional_cost()?;
            Statement::Union {
                name,
                left,
                right,
                partitions,
                cost,
            }
        } else {
            return self.err(
                "an operator (EXTRACT/SELECT/PROJECT/PROCESS/REDUCE/DISTINCT/SORT/JOIN/UNION)",
            );
        };
        self.expect(&TokenKind::Semi, "';'")?;
        Ok(stmt)
    }
}

/// Parses a script.
///
/// # Errors
///
/// Returns a [`ParseError`] for lexical errors or any grammar violation.
///
/// # Examples
///
/// ```
/// use jockey_scope::parser::parse;
///
/// let s = parse("a = EXTRACT FROM \"x\" PARTITIONS 2; OUTPUT a TO \"y\";").unwrap();
/// assert_eq!(s.statements.len(), 2);
/// ```
pub fn parse(src: &str) -> Result<Script, ParseError> {
    let tokens = tokenize(src).map_err(ParseError::Lex)?;
    let mut p = Parser { tokens, pos: 0 };
    let mut statements = Vec::new();
    while p.peek().is_some() {
        statements.push(p.statement()?);
    }
    Ok(Script {
        name: "scope-job".to_string(),
        statements,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_example() {
        let src = r#"
            // Clickstream pipeline.
            clicks = EXTRACT FROM "clicks.log" PARTITIONS 100 COST 2.0;
            good   = SELECT FROM clicks WHERE "spam = false" COST 0.5;
            byuser = REDUCE good ON "user" PARTITIONS 20;
            both   = JOIN good, byuser ON "user" PARTITIONS 50 COST 3;
            all    = UNION both, byuser PARTITIONS 50;
            OUTPUT all TO "result.tsv" SINGLE;
        "#;
        let s = parse(src).unwrap();
        assert_eq!(s.statements.len(), 6);
        assert!(matches!(
            &s.statements[0],
            Statement::Extract { partitions: 100, cost, .. } if *cost == 2.0
        ));
        assert!(matches!(
            &s.statements[1],
            Statement::Select { predicate: Some(p), .. } if p == "spam = false"
        ));
        assert!(matches!(
            &s.statements[3],
            Statement::Join { partitions: 50, .. }
        ));
        assert!(matches!(
            &s.statements[5],
            Statement::Output {
                mode: OutputMode::Single,
                ..
            }
        ));
    }

    #[test]
    fn aggregate_is_reduce() {
        let s = parse("r = AGGREGATE x ON \"k\" PARTITIONS 2;").unwrap();
        assert!(matches!(&s.statements[0], Statement::Reduce { .. }));
    }

    #[test]
    fn cost_defaults_to_one() {
        let s = parse("a = EXTRACT FROM \"f\" PARTITIONS 1;").unwrap();
        assert!(matches!(
            &s.statements[0],
            Statement::Extract { cost, .. } if *cost == 1.0
        ));
    }

    #[test]
    fn union_partitions_optional() {
        let s = parse("u = UNION a, b;").unwrap();
        assert!(matches!(
            &s.statements[0],
            Statement::Union {
                partitions: None,
                ..
            }
        ));
    }

    #[test]
    fn reports_missing_semicolon() {
        let err = parse("a = EXTRACT FROM \"f\" PARTITIONS 1").unwrap_err();
        assert!(matches!(err, ParseError::Unexpected { ref expected, .. } if expected == "';'"));
    }

    #[test]
    fn reports_bad_operator() {
        let err = parse("a = FROB x;").unwrap_err();
        let text = err.to_string();
        assert!(text.contains("operator"), "got {text}");
    }

    #[test]
    fn reports_lex_errors() {
        assert!(matches!(parse("a = @"), Err(ParseError::Lex(_))));
    }

    #[test]
    fn partitions_beyond_u32_are_rejected_not_wrapped() {
        let max = parse("a = EXTRACT FROM \"f\" PARTITIONS 4294967295;").unwrap();
        assert!(matches!(
            &max.statements[0],
            Statement::Extract {
                partitions: u32::MAX,
                ..
            }
        ));
        let err = parse("a = EXTRACT FROM \"f\"\nPARTITIONS 4294967300;").unwrap_err();
        assert!(
            matches!(
                err,
                ParseError::OutOfRange {
                    keyword: "PARTITIONS",
                    line: 2,
                    ..
                }
            ),
            "got {err}"
        );
        assert!(err.to_string().contains("4294967300"), "got {err}");
    }

    #[test]
    fn cost_must_be_finite_and_positive() {
        let huge = format!("{}.0", "9".repeat(400));
        for cost in ["0", "0.0", huge.as_str()] {
            let err =
                parse(&format!("a = EXTRACT FROM \"f\" PARTITIONS 1 COST {cost};")).unwrap_err();
            assert!(
                matches!(
                    err,
                    ParseError::OutOfRange {
                        keyword: "COST",
                        ..
                    }
                ),
                "COST {cost}: got {err}"
            );
        }
        let s = parse("a = EXTRACT FROM \"f\" PARTITIONS 1 COST 0.5;").unwrap();
        assert!(matches!(
            &s.statements[0],
            Statement::Extract { cost, .. } if *cost == 0.5
        ));
    }

    #[test]
    fn line_numbers_in_errors() {
        let err = parse("a = EXTRACT FROM \"f\"\nPARTITIONS \"oops\";").unwrap_err();
        assert!(
            matches!(err, ParseError::Unexpected { line: 2, .. }),
            "got {err}"
        );
    }

    #[test]
    fn empty_script_is_fine() {
        assert!(parse("").unwrap().statements.is_empty());
        assert!(parse("// nothing\n").unwrap().statements.is_empty());
    }
}
