//! Recursive-descent parser.
//!
//! Keywords are matched case-insensitively against identifier tokens.
//! Errors report the offending token and its byte offset.

use crate::ast::*;
use crate::lexer::{Lexer, Token, TokenKind};
use insightnotes_common::{Error, Result};
use std::ops::Range;

/// Parses a string of `;`-separated statements.
pub fn parse(src: &str) -> Result<Vec<Statement>> {
    Ok(parse_spanned(src)?.into_iter().map(|(s, _)| s).collect())
}

/// [`parse`], with each statement's byte span in `src`: from its first
/// token up to the `;` or end of input that closes it. A slice from one
/// statement's span start to a later one's span end is itself a valid
/// script of the statements in between.
pub fn parse_spanned(src: &str) -> Result<Vec<(Statement, Range<usize>)>> {
    let tokens = Lexer::new(src).tokenize()?;
    let mut p = Parser { tokens, pos: 0 };
    let mut out = Vec::new();
    loop {
        while p.eat(&TokenKind::Semicolon) {}
        if p.at_eof() {
            return Ok(out);
        }
        let start = p.peek().offset;
        let stmt = p.statement()?;
        if !p.at_eof() && !p.check(&TokenKind::Semicolon) {
            return Err(p.unexpected("`;` or end of input"));
        }
        out.push((stmt, start..p.peek().offset));
    }
}

/// Parses exactly one statement.
pub fn parse_one(src: &str) -> Result<Statement> {
    let stmts = parse(src)?;
    match stmts.len() {
        1 => Ok(stmts.into_iter().next().expect("len checked")),
        n => Err(Error::Parse(format!("expected one statement, found {n}"))),
    }
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn at_eof(&self) -> bool {
        self.peek().kind == TokenKind::Eof
    }

    fn advance(&mut self) -> Token {
        let t = self.peek().clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn check(&self, kind: &TokenKind) -> bool {
        &self.peek().kind == kind
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.check(kind) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<()> {
        if self.eat(kind) {
            Ok(())
        } else {
            Err(self.unexpected(&kind.to_string()))
        }
    }

    fn unexpected(&self, wanted: &str) -> Error {
        let t = self.peek();
        Error::Parse(format!(
            "expected {wanted}, found {} at offset {}",
            t.kind, t.offset
        ))
    }

    fn peek_kw(&self, kw: &str) -> bool {
        matches!(&self.peek().kind, TokenKind::Ident(s) if s.eq_ignore_ascii_case(kw))
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek_kw(kw) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.unexpected(&format!("`{kw}`")))
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.peek().kind.clone() {
            TokenKind::Ident(s) => {
                self.advance();
                Ok(s)
            }
            _ => Err(self.unexpected("an identifier")),
        }
    }

    fn string(&mut self) -> Result<String> {
        match self.peek().kind.clone() {
            TokenKind::Str(s) => {
                self.advance();
                Ok(s)
            }
            _ => Err(self.unexpected("a string literal")),
        }
    }

    fn uint(&mut self) -> Result<u64> {
        match self.peek().kind {
            TokenKind::Int(v) if v >= 0 => {
                self.advance();
                Ok(v as u64)
            }
            _ => Err(self.unexpected("a non-negative integer")),
        }
    }

    fn number_f64(&mut self) -> Result<f64> {
        match self.peek().kind {
            TokenKind::Int(v) => {
                self.advance();
                Ok(v as f64)
            }
            TokenKind::Float(v) => {
                self.advance();
                Ok(v)
            }
            _ => Err(self.unexpected("a number")),
        }
    }

    // -- statements ------------------------------------------------------

    fn statement(&mut self) -> Result<Statement> {
        if self.peek_kw("select") {
            return Ok(Statement::Select(self.select()?));
        }
        if self.eat_kw("create") {
            if self.eat_kw("table") {
                return self.create_table();
            }
            if self.eat_kw("summary") {
                self.expect_kw("instance")?;
                return Ok(Statement::CreateInstance(self.create_instance()?));
            }
            if self.eat_kw("index") {
                let (table, column) = self.index_target()?;
                return Ok(Statement::CreateIndex { table, column });
            }
            return Err(self.unexpected("`TABLE`, `INDEX`, or `SUMMARY INSTANCE`"));
        }
        if self.eat_kw("drop") {
            if self.eat_kw("table") {
                return Ok(Statement::DropTable {
                    name: self.ident()?,
                });
            }
            if self.eat_kw("summary") {
                self.expect_kw("instance")?;
                return Ok(Statement::DropInstance {
                    name: self.ident()?,
                });
            }
            if self.eat_kw("index") {
                let (table, column) = self.index_target()?;
                return Ok(Statement::DropIndex { table, column });
            }
            return Err(self.unexpected("`TABLE`, `INDEX`, or `SUMMARY INSTANCE`"));
        }
        if self.eat_kw("insert") {
            return self.insert();
        }
        if self.eat_kw("add") {
            self.expect_kw("annotation")?;
            return self.add_annotation();
        }
        if self.eat_kw("link") {
            self.expect_kw("summary")?;
            let instance = self.ident()?;
            self.expect_kw("to")?;
            let table = self.ident()?;
            return Ok(Statement::LinkSummary { instance, table });
        }
        if self.eat_kw("unlink") {
            self.expect_kw("summary")?;
            let instance = self.ident()?;
            self.expect_kw("from")?;
            let table = self.ident()?;
            return Ok(Statement::UnlinkSummary { instance, table });
        }
        if self.eat_kw("zoomin") {
            return self.zoomin();
        }
        if self.eat_kw("explain") {
            return Ok(Statement::Explain(self.select()?));
        }
        if self.eat_kw("delete") {
            if self.eat_kw("from") {
                let table = self.ident()?;
                let where_clause = if self.eat_kw("where") {
                    Some(self.expr()?)
                } else {
                    None
                };
                return Ok(Statement::DeleteRows {
                    table,
                    where_clause,
                });
            }
            if self.eat_kw("annotation") {
                return Ok(Statement::DeleteAnnotation { id: self.uint()? });
            }
            return Err(self.unexpected("`FROM` or `ANNOTATION`"));
        }
        if self.eat_kw("retract") {
            self.expect_kw("annotation")?;
            return Ok(Statement::RetractAnnotation { id: self.uint()? });
        }
        if self.eat_kw("correct") {
            self.expect_kw("annotation")?;
            return self.correct_annotation_stmt();
        }
        if self.eat_kw("flag") {
            self.expect_kw("annotation")?;
            let id = self.uint()?;
            let note = if matches!(self.peek().kind, TokenKind::Str(_)) {
                Some(self.string()?)
            } else {
                None
            };
            return Ok(Statement::FlagAnnotation { id, note });
        }
        if self.eat_kw("history") {
            // The `ANNOTATION` keyword is optional: `HISTORY 7` works.
            self.eat_kw("annotation");
            return Ok(Statement::HistoryAnnotation { id: self.uint()? });
        }
        Err(self.unexpected("a statement keyword"))
    }

    fn correct_annotation_stmt(&mut self) -> Result<Statement> {
        let id = self.uint()?;
        let text = self.string()?;
        let document = if self.eat_kw("document") {
            Some(self.string()?)
        } else {
            None
        };
        let author = if self.eat_kw("author") {
            Some(self.string()?)
        } else {
            None
        };
        Ok(Statement::CorrectAnnotation {
            id,
            text,
            document,
            author,
        })
    }

    /// Parses `ON table (column)` of CREATE/DROP INDEX.
    fn index_target(&mut self) -> Result<(String, String)> {
        self.expect_kw("on")?;
        let table = self.ident()?;
        self.expect(&TokenKind::LParen)?;
        let column = self.ident()?;
        self.expect(&TokenKind::RParen)?;
        Ok((table, column))
    }

    fn create_table(&mut self) -> Result<Statement> {
        let name = self.ident()?;
        self.expect(&TokenKind::LParen)?;
        let mut columns = Vec::new();
        loop {
            let col = self.ident()?;
            let ty = self.ident()?;
            columns.push((col, ty));
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        self.expect(&TokenKind::RParen)?;
        Ok(Statement::CreateTable { name, columns })
    }

    fn insert(&mut self) -> Result<Statement> {
        self.expect_kw("into")?;
        let table = self.ident()?;
        self.expect_kw("values")?;
        let mut rows = Vec::new();
        loop {
            self.expect(&TokenKind::LParen)?;
            let mut row = Vec::new();
            loop {
                row.push(self.literal()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect(&TokenKind::RParen)?;
            rows.push(row);
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        Ok(Statement::Insert { table, rows })
    }

    fn literal(&mut self) -> Result<Literal> {
        let negate = self.eat(&TokenKind::Minus);
        let lit = match self.peek().kind.clone() {
            TokenKind::Int(v) => {
                self.advance();
                Literal::Int(v)
            }
            TokenKind::Float(v) => {
                self.advance();
                Literal::Float(v)
            }
            TokenKind::Str(s) => {
                self.advance();
                Literal::Str(s)
            }
            TokenKind::Ident(s) if s.eq_ignore_ascii_case("null") => {
                self.advance();
                Literal::Null
            }
            TokenKind::Ident(s) if s.eq_ignore_ascii_case("true") => {
                self.advance();
                Literal::Bool(true)
            }
            TokenKind::Ident(s) if s.eq_ignore_ascii_case("false") => {
                self.advance();
                Literal::Bool(false)
            }
            _ => return Err(self.unexpected("a literal")),
        };
        if negate {
            match lit {
                Literal::Int(v) => Ok(Literal::Int(-v)),
                Literal::Float(v) => Ok(Literal::Float(-v)),
                _ => Err(self.unexpected("a numeric literal after `-`")),
            }
        } else {
            Ok(lit)
        }
    }

    fn add_annotation(&mut self) -> Result<Statement> {
        let text = self.string()?;
        let document = if self.eat_kw("document") {
            Some(self.string()?)
        } else {
            None
        };
        let author = if self.eat_kw("author") {
            Some(self.string()?)
        } else {
            None
        };
        self.expect_kw("on")?;
        let table = self.ident()?;
        let mut columns = Vec::new();
        if self.eat_kw("columns") {
            self.expect(&TokenKind::LParen)?;
            loop {
                columns.push(self.ident()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect(&TokenKind::RParen)?;
        }
        let where_clause = if self.eat_kw("where") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::AddAnnotation {
            text,
            document,
            author,
            table,
            columns,
            where_clause,
        })
    }

    fn create_instance(&mut self) -> Result<CreateInstanceStmt> {
        let name = self.ident()?;
        self.expect_kw("type")?;
        let kind = self.ident()?;
        match kind.to_ascii_lowercase().as_str() {
            "classifier" => {
                self.expect_kw("labels")?;
                self.expect(&TokenKind::LParen)?;
                let mut labels = Vec::new();
                loop {
                    labels.push(self.string()?);
                    if !self.eat(&TokenKind::Comma) {
                        break;
                    }
                }
                self.expect(&TokenKind::RParen)?;
                let mut training = Vec::new();
                if self.eat_kw("train") {
                    self.expect(&TokenKind::LParen)?;
                    loop {
                        let label = self.string()?;
                        self.expect(&TokenKind::Colon)?;
                        let text = self.string()?;
                        training.push((label, text));
                        if !self.eat(&TokenKind::Comma) {
                            break;
                        }
                    }
                    self.expect(&TokenKind::RParen)?;
                }
                let mut annotation_invariant = true;
                let mut data_invariant = true;
                if self.eat_kw("properties") {
                    self.expect(&TokenKind::LParen)?;
                    loop {
                        let prop = self.ident()?;
                        let value = match self.ident()?.to_ascii_lowercase().as_str() {
                            "true" => true,
                            "false" => false,
                            _ => return Err(self.unexpected("`true` or `false`")),
                        };
                        match prop.to_ascii_lowercase().as_str() {
                            "annotation_invariant" => annotation_invariant = value,
                            "data_invariant" => data_invariant = value,
                            other => {
                                return Err(Error::Parse(format!("unknown property `{other}`")))
                            }
                        }
                        if !self.eat(&TokenKind::Comma) {
                            break;
                        }
                    }
                    self.expect(&TokenKind::RParen)?;
                }
                Ok(CreateInstanceStmt::Classifier {
                    name,
                    labels,
                    training,
                    annotation_invariant,
                    data_invariant,
                })
            }
            "cluster" => {
                let threshold = if self.eat_kw("threshold") {
                    self.number_f64()?
                } else {
                    0.4
                };
                Ok(CreateInstanceStmt::Cluster { name, threshold })
            }
            "snippet" => {
                let mut max_sentences = 3;
                let mut max_chars = 280;
                let mut min_source = 512;
                loop {
                    if self.eat_kw("max_sentences") {
                        max_sentences = self.uint()?;
                    } else if self.eat_kw("max_chars") {
                        max_chars = self.uint()?;
                    } else if self.eat_kw("min_source") {
                        min_source = self.uint()?;
                    } else {
                        break;
                    }
                }
                Ok(CreateInstanceStmt::Snippet {
                    name,
                    max_sentences,
                    max_chars,
                    min_source,
                })
            }
            other => Err(Error::Parse(format!(
                "unknown summary type `{other}` (expected CLASSIFIER, CLUSTER, or SNIPPET)"
            ))),
        }
    }

    fn zoomin(&mut self) -> Result<Statement> {
        self.expect_kw("reference")?;
        self.expect_kw("qid")?;
        let qid = self.uint()?;
        let where_clause = if self.eat_kw("where") {
            Some(self.expr()?)
        } else {
            None
        };
        self.expect_kw("on")?;
        let instance = self.ident()?;
        let component = if self.eat_kw("index") {
            ZoomComponent::Index(self.uint()?)
        } else if self.eat_kw("label") {
            ZoomComponent::Label(self.string()?)
        } else {
            return Err(self.unexpected("`INDEX n` or `LABEL 'name'`"));
        };
        Ok(Statement::ZoomIn(ZoomInStmt {
            qid,
            where_clause,
            instance,
            component,
        }))
    }

    // -- SELECT ------------------------------------------------------------

    fn select(&mut self) -> Result<SelectStmt> {
        self.expect_kw("select")?;
        let distinct = self.eat_kw("distinct");
        let mut items = vec![self.select_item()?];
        while self.eat(&TokenKind::Comma) {
            items.push(self.select_item()?);
        }
        self.expect_kw("from")?;
        let mut from = vec![self.table_ref()?];
        let mut join_on = Vec::new();
        loop {
            if self.eat(&TokenKind::Comma) {
                from.push(self.table_ref()?);
            } else if self.eat_kw("join") {
                from.push(self.table_ref()?);
                self.expect_kw("on")?;
                join_on.push(self.expr()?);
            } else if self.peek_kw("inner") {
                self.advance();
                self.expect_kw("join")?;
                from.push(self.table_ref()?);
                self.expect_kw("on")?;
                join_on.push(self.expr()?);
            } else {
                break;
            }
        }
        let where_clause = if self.eat_kw("where") {
            Some(self.expr()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.eat_kw("group") {
            self.expect_kw("by")?;
            loop {
                group_by.push(self.column_ref()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        let having = if self.eat_kw("having") {
            Some(self.expr()?)
        } else {
            None
        };
        let mut order_by = Vec::new();
        if self.eat_kw("order") {
            self.expect_kw("by")?;
            loop {
                let expr = self.expr()?;
                let desc = if self.eat_kw("desc") {
                    true
                } else {
                    self.eat_kw("asc");
                    false
                };
                order_by.push(OrderKey { expr, desc });
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        let limit = if self.eat_kw("limit") {
            Some(self.uint()?)
        } else {
            None
        };
        let as_of = if self.eat_kw("as") {
            self.expect_kw("of")?;
            Some(self.uint()?)
        } else {
            None
        };
        Ok(SelectStmt {
            distinct,
            items,
            from,
            join_on,
            where_clause,
            group_by,
            having,
            order_by,
            limit,
            as_of,
        })
    }

    fn select_item(&mut self) -> Result<SelectItem> {
        if self.eat(&TokenKind::Star) {
            return Ok(SelectItem::Wildcard);
        }
        // Aggregate call?
        if let TokenKind::Ident(name) = &self.peek().kind {
            let func = match name.to_ascii_lowercase().as_str() {
                "count" => Some(AggFunc::Count),
                "sum" => Some(AggFunc::Sum),
                "avg" => Some(AggFunc::Avg),
                "min" => Some(AggFunc::Min),
                "max" => Some(AggFunc::Max),
                _ => None,
            };
            if let Some(func) = func {
                if self.tokens.get(self.pos + 1).map(|t| &t.kind) == Some(&TokenKind::LParen) {
                    self.advance(); // function name
                    self.advance(); // (
                    let arg = if self.eat(&TokenKind::Star) {
                        if func != AggFunc::Count {
                            return Err(self.unexpected("an expression (only COUNT takes `*`)"));
                        }
                        None
                    } else {
                        Some(self.expr()?)
                    };
                    self.expect(&TokenKind::RParen)?;
                    let alias = self.alias()?;
                    return Ok(SelectItem::Aggregate { func, arg, alias });
                }
            }
        }
        let expr = self.expr()?;
        let alias = self.alias()?;
        Ok(SelectItem::Expr { expr, alias })
    }

    fn alias(&mut self) -> Result<Option<String>> {
        if self.eat_kw("as") {
            Ok(Some(self.ident()?))
        } else {
            Ok(None)
        }
    }

    fn table_ref(&mut self) -> Result<TableRef> {
        let table = self.ident()?;
        // A bare identifier that is not a clause keyword is an alias.
        let alias = match &self.peek().kind {
            TokenKind::Ident(s) if !is_clause_keyword(s) => Some(self.ident()?),
            _ => None,
        };
        Ok(TableRef { table, alias })
    }

    fn column_ref(&mut self) -> Result<ColumnRef> {
        let first = self.ident()?;
        if self.eat(&TokenKind::Dot) {
            let name = self.ident()?;
            Ok(ColumnRef {
                qualifier: Some(first),
                name,
            })
        } else {
            Ok(ColumnRef {
                qualifier: None,
                name: first,
            })
        }
    }

    // -- expressions -------------------------------------------------------

    fn expr(&mut self) -> Result<Expr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr> {
        let mut lhs = self.and_expr()?;
        while self.eat_kw("or") {
            let rhs = self.and_expr()?;
            lhs = Expr::Or(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr> {
        let mut lhs = self.not_expr()?;
        while self.eat_kw("and") {
            let rhs = self.not_expr()?;
            lhs = Expr::And(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn not_expr(&mut self) -> Result<Expr> {
        if self.eat_kw("not") {
            Ok(Expr::Not(Box::new(self.not_expr()?)))
        } else {
            self.cmp_expr()
        }
    }

    fn cmp_expr(&mut self) -> Result<Expr> {
        let lhs = self.add_expr()?;
        if self.eat_kw("is") {
            let negated = self.eat_kw("not");
            self.expect_kw("null")?;
            return Ok(Expr::IsNull(Box::new(lhs), negated));
        }
        let op = match self.peek().kind {
            TokenKind::Eq => Some(BinCmp::Eq),
            TokenKind::Ne => Some(BinCmp::Ne),
            TokenKind::Lt => Some(BinCmp::Lt),
            TokenKind::Le => Some(BinCmp::Le),
            TokenKind::Gt => Some(BinCmp::Gt),
            TokenKind::Ge => Some(BinCmp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.advance();
            let rhs = self.add_expr()?;
            Ok(Expr::Cmp(op, Box::new(lhs), Box::new(rhs)))
        } else {
            Ok(lhs)
        }
    }

    fn add_expr(&mut self) -> Result<Expr> {
        let mut lhs = self.mul_expr()?;
        loop {
            let op = match self.peek().kind {
                TokenKind::Plus => BinArith::Add,
                TokenKind::Minus => BinArith::Sub,
                _ => return Ok(lhs),
            };
            self.advance();
            let rhs = self.mul_expr()?;
            lhs = Expr::Arith(op, Box::new(lhs), Box::new(rhs));
        }
    }

    fn mul_expr(&mut self) -> Result<Expr> {
        let mut lhs = self.unary_expr()?;
        loop {
            let op = match self.peek().kind {
                TokenKind::Star => BinArith::Mul,
                TokenKind::Slash => BinArith::Div,
                _ => return Ok(lhs),
            };
            self.advance();
            let rhs = self.unary_expr()?;
            lhs = Expr::Arith(op, Box::new(lhs), Box::new(rhs));
        }
    }

    fn unary_expr(&mut self) -> Result<Expr> {
        if self.eat(&TokenKind::Minus) {
            let inner = self.unary_expr()?;
            return Ok(match inner {
                Expr::Literal(Literal::Int(v)) => Expr::Literal(Literal::Int(-v)),
                Expr::Literal(Literal::Float(v)) => Expr::Literal(Literal::Float(-v)),
                other => Expr::Arith(
                    BinArith::Sub,
                    Box::new(Expr::Literal(Literal::Int(0))),
                    Box::new(other),
                ),
            });
        }
        self.primary_expr()
    }

    fn primary_expr(&mut self) -> Result<Expr> {
        if self.eat(&TokenKind::LParen) {
            let e = self.expr()?;
            self.expect(&TokenKind::RParen)?;
            return Ok(e);
        }
        match self.peek().kind.clone() {
            TokenKind::Int(_) | TokenKind::Float(_) | TokenKind::Str(_) => {
                Ok(Expr::Literal(self.literal()?))
            }
            TokenKind::Ident(name) => {
                let lower = name.to_ascii_lowercase();
                match lower.as_str() {
                    "null" => {
                        self.advance();
                        Ok(Expr::Literal(Literal::Null))
                    }
                    "true" => {
                        self.advance();
                        Ok(Expr::Literal(Literal::Bool(true)))
                    }
                    "false" => {
                        self.advance();
                        Ok(Expr::Literal(Literal::Bool(false)))
                    }
                    "contains"
                        if self.tokens.get(self.pos + 1).map(|t| &t.kind)
                            == Some(&TokenKind::LParen) =>
                    {
                        self.advance();
                        self.advance();
                        let arg = self.expr()?;
                        self.expect(&TokenKind::Comma)?;
                        let needle = self.string()?;
                        self.expect(&TokenKind::RParen)?;
                        Ok(Expr::Contains(Box::new(arg), needle))
                    }
                    "summary_count"
                        if self.tokens.get(self.pos + 1).map(|t| &t.kind)
                            == Some(&TokenKind::LParen) =>
                    {
                        self.advance();
                        self.advance();
                        let instance = self.ident()?;
                        self.expect(&TokenKind::Comma)?;
                        let component = match self.peek().kind.clone() {
                            TokenKind::Str(s) => {
                                self.advance();
                                s
                            }
                            TokenKind::Int(v) if v >= 0 => {
                                self.advance();
                                v.to_string()
                            }
                            _ => return Err(self.unexpected("a label string or group index")),
                        };
                        self.expect(&TokenKind::RParen)?;
                        Ok(Expr::SummaryCount {
                            instance,
                            component,
                        })
                    }
                    _ => Ok(Expr::Column(self.column_ref()?)),
                }
            }
            _ => Err(self.unexpected("an expression")),
        }
    }
}

/// Identifiers that terminate a table alias position.
fn is_clause_keyword(s: &str) -> bool {
    matches!(
        s.to_ascii_lowercase().as_str(),
        "where"
            | "having"
            | "join"
            | "inner"
            | "on"
            | "group"
            | "order"
            | "limit"
            | "select"
            | "from"
            | "and"
            | "or"
            | "as"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_figure2_query() {
        // The demo paper's running example.
        let stmt =
            parse_one("Select r.a, r.b, s.z From R r, S s Where r.a = s.x And r.b = 2;").unwrap();
        let Statement::Select(sel) = stmt else {
            panic!("expected select");
        };
        assert_eq!(sel.items.len(), 3);
        assert_eq!(sel.from.len(), 2);
        assert_eq!(sel.from[0].binding(), "r");
        assert!(sel.where_clause.is_some());
        assert!(!sel.distinct);
    }

    #[test]
    fn parses_explicit_join_and_group_order_limit() {
        let stmt = parse_one(
            "SELECT DISTINCT b.name, COUNT(*) AS n FROM birds b JOIN sightings s ON b.id = s.bird \
             WHERE s.year >= 2000 GROUP BY b.name ORDER BY n DESC, b.name LIMIT 10",
        )
        .unwrap();
        let Statement::Select(sel) = stmt else {
            panic!()
        };
        assert!(sel.distinct);
        assert_eq!(sel.from.len(), 2);
        assert_eq!(sel.join_on.len(), 1);
        assert_eq!(sel.group_by.len(), 1);
        assert_eq!(sel.order_by.len(), 2);
        assert!(sel.order_by[0].desc);
        assert_eq!(sel.limit, Some(10));
        assert!(matches!(
            sel.items[1],
            SelectItem::Aggregate {
                func: AggFunc::Count,
                arg: None,
                ..
            }
        ));
    }

    #[test]
    fn parses_zoomin_per_figure3() {
        let stmt = parse_one("ZoomIn Reference QID 101 Where c1 = 'x' On NaiveBayesClass Index 1;")
            .unwrap();
        let Statement::ZoomIn(z) = stmt else { panic!() };
        assert_eq!(z.qid, 101);
        assert!(z.where_clause.is_some());
        assert_eq!(z.instance, "NaiveBayesClass");
        assert_eq!(z.component, ZoomComponent::Index(1));

        let stmt = parse_one("ZOOMIN REFERENCE QID 7 ON ClassBird1 LABEL 'Disease'").unwrap();
        let Statement::ZoomIn(z) = stmt else { panic!() };
        assert_eq!(z.component, ZoomComponent::Label("Disease".into()));
        assert!(z.where_clause.is_none());
    }

    #[test]
    fn parses_add_annotation_variants() {
        let stmt = parse_one(
            "ADD ANNOTATION 'size seems wrong' AUTHOR 'alice' ON birds \
             COLUMNS (weight, wingspan) WHERE name = 'Swan Goose'",
        )
        .unwrap();
        let Statement::AddAnnotation {
            text,
            document,
            author,
            table,
            columns,
            where_clause,
        } = stmt
        else {
            panic!()
        };
        assert_eq!(text, "size seems wrong");
        assert_eq!(document, None);
        assert_eq!(author.as_deref(), Some("alice"));
        assert_eq!(table, "birds");
        assert_eq!(columns, vec!["weight", "wingspan"]);
        assert!(where_clause.is_some());

        let stmt = parse_one("ADD ANNOTATION 'ref' DOCUMENT 'full article text' ON birds").unwrap();
        let Statement::AddAnnotation {
            document,
            columns,
            where_clause,
            ..
        } = stmt
        else {
            panic!()
        };
        assert_eq!(document.as_deref(), Some("full article text"));
        assert!(columns.is_empty());
        assert!(where_clause.is_none());
    }

    #[test]
    fn parses_create_instance_classifier() {
        let stmt = parse_one(
            "CREATE SUMMARY INSTANCE ClassBird1 TYPE CLASSIFIER \
             LABELS ('Behavior', 'Disease', 'Other') \
             TRAIN ('Behavior': 'eating stonewort', 'Disease': 'wing lesions') \
             PROPERTIES (ANNOTATION_INVARIANT true, DATA_INVARIANT false)",
        )
        .unwrap();
        let Statement::CreateInstance(CreateInstanceStmt::Classifier {
            name,
            labels,
            training,
            annotation_invariant,
            data_invariant,
        }) = stmt
        else {
            panic!()
        };
        assert_eq!(name, "ClassBird1");
        assert_eq!(labels.len(), 3);
        assert_eq!(training.len(), 2);
        assert!(annotation_invariant);
        assert!(!data_invariant);
    }

    #[test]
    fn parses_create_instance_cluster_and_snippet() {
        let stmt =
            parse_one("CREATE SUMMARY INSTANCE SimCluster TYPE CLUSTER THRESHOLD 0.5").unwrap();
        assert!(matches!(
            stmt,
            Statement::CreateInstance(CreateInstanceStmt::Cluster { threshold, .. })
            if (threshold - 0.5).abs() < 1e-9
        ));
        let stmt = parse_one(
            "CREATE SUMMARY INSTANCE TextSummary1 TYPE SNIPPET MAX_SENTENCES 2 MIN_SOURCE 100",
        )
        .unwrap();
        assert!(matches!(
            stmt,
            Statement::CreateInstance(CreateInstanceStmt::Snippet {
                max_sentences: 2,
                max_chars: 280,
                min_source: 100,
                ..
            })
        ));
    }

    #[test]
    fn parses_link_unlink_and_ddl() {
        assert!(matches!(
            parse_one("LINK SUMMARY ClassBird1 TO birds").unwrap(),
            Statement::LinkSummary { .. }
        ));
        assert!(matches!(
            parse_one("UNLINK SUMMARY ClassBird1 FROM birds").unwrap(),
            Statement::UnlinkSummary { .. }
        ));
        let stmt = parse_one("CREATE TABLE birds (name TEXT, weight FLOAT)").unwrap();
        assert!(matches!(stmt, Statement::CreateTable { ref columns, .. } if columns.len() == 2));
        assert!(matches!(
            parse_one("DROP TABLE birds").unwrap(),
            Statement::DropTable { .. }
        ));
        assert!(matches!(
            parse_one("DROP SUMMARY INSTANCE x").unwrap(),
            Statement::DropInstance { .. }
        ));
    }

    #[test]
    fn parses_insert_with_negatives_and_nulls() {
        let stmt =
            parse_one("INSERT INTO t VALUES (1, -2.5, 'x', NULL, true), (2, 3.0, 'y', 'z', false)")
                .unwrap();
        let Statement::Insert { rows, .. } = stmt else {
            panic!()
        };
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0][1], Literal::Float(-2.5));
        assert_eq!(rows[0][3], Literal::Null);
    }

    #[test]
    fn expression_precedence() {
        let Statement::Select(sel) =
            parse_one("SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3").unwrap()
        else {
            panic!()
        };
        // AND binds tighter than OR.
        assert!(matches!(sel.where_clause, Some(Expr::Or(_, _))));

        let Statement::Select(sel) = parse_one("SELECT a + b * c FROM t").unwrap() else {
            panic!()
        };
        let SelectItem::Expr { expr, .. } = &sel.items[0] else {
            panic!()
        };
        // * binds tighter than +.
        assert!(matches!(expr, Expr::Arith(BinArith::Add, _, _)));
    }

    #[test]
    fn parses_summary_count_and_contains() {
        let Statement::Select(sel) = parse_one(
            "SELECT name, SUMMARY_COUNT(ClassBird1, 'Disease') FROM birds \
             WHERE SUMMARY_COUNT(ClassBird1, 'Disease') > 0 AND CONTAINS(name, 'goose') \
             ORDER BY SUMMARY_COUNT(ClassBird1, 'Disease') DESC",
        )
        .unwrap() else {
            panic!()
        };
        assert!(matches!(
            &sel.items[1],
            SelectItem::Expr {
                expr: Expr::SummaryCount { .. },
                ..
            }
        ));
        assert!(sel.where_clause.is_some());
        assert!(matches!(&sel.order_by[0].expr, Expr::SummaryCount { .. }));
    }

    #[test]
    fn is_null_and_not() {
        let Statement::Select(sel) =
            parse_one("SELECT * FROM t WHERE a IS NULL AND b IS NOT NULL AND NOT c = 1").unwrap()
        else {
            panic!()
        };
        let mut found_is_null = 0;
        fn walk(e: &Expr, found: &mut i32) {
            match e {
                Expr::IsNull(_, _) => *found += 1,
                Expr::And(l, r) | Expr::Or(l, r) => {
                    walk(l, found);
                    walk(r, found);
                }
                Expr::Not(i) => walk(i, found),
                _ => {}
            }
        }
        walk(sel.where_clause.as_ref().unwrap(), &mut found_is_null);
        assert_eq!(found_is_null, 2);
    }

    #[test]
    fn parses_explain_and_deletes() {
        assert!(matches!(
            parse_one("EXPLAIN SELECT * FROM t WHERE a = 1").unwrap(),
            Statement::Explain(_)
        ));
        let stmt = parse_one("DELETE FROM birds WHERE id = 3").unwrap();
        assert!(matches!(
            stmt,
            Statement::DeleteRows {
                ref table,
                where_clause: Some(_)
            } if table == "birds"
        ));
        assert!(matches!(
            parse_one("DELETE FROM birds").unwrap(),
            Statement::DeleteRows {
                where_clause: None,
                ..
            }
        ));
        assert!(matches!(
            parse_one("DELETE ANNOTATION 42").unwrap(),
            Statement::DeleteAnnotation { id: 42 }
        ));
        assert!(parse_one("DELETE birds").is_err());
    }

    #[test]
    fn parses_lifecycle_statements() {
        assert!(matches!(
            parse_one("RETRACT ANNOTATION 7").unwrap(),
            Statement::RetractAnnotation { id: 7 }
        ));
        assert!(matches!(
            parse_one("FLAG ANNOTATION 3").unwrap(),
            Statement::FlagAnnotation { id: 3, note: None }
        ));
        let stmt = parse_one("FLAG ANNOTATION 3 'dubious source'").unwrap();
        let Statement::FlagAnnotation { id, note } = stmt else {
            panic!()
        };
        assert_eq!(id, 3);
        assert_eq!(note.as_deref(), Some("dubious source"));
        assert!(matches!(
            parse_one("HISTORY 9").unwrap(),
            Statement::HistoryAnnotation { id: 9 }
        ));
        assert!(matches!(
            parse_one("HISTORY ANNOTATION 9").unwrap(),
            Statement::HistoryAnnotation { id: 9 }
        ));
        assert!(parse_one("RETRACT 7").is_err());
        assert!(parse_one("FLAG ANNOTATION").is_err());
    }

    /// Event stamps are allocated by the engine, never read from a
    /// client: a statement that tries to carry one does not parse.
    #[test]
    fn lifecycle_statements_reject_stamp_suffixes() {
        for sql in [
            "RETRACT ANNOTATION 3 AT 1",
            "FLAG ANNOTATION 3 'x' AT 1",
            "FLAG ANNOTATION 3 AT 1",
            "CORRECT ANNOTATION 1 'x' WITH ID 5 AT 2",
            "CORRECT ANNOTATION 1 'x' AUTHOR 'a' WITH ID 5 AT 2",
        ] {
            assert!(parse_one(sql).is_err(), "{sql} parsed");
        }
    }

    #[test]
    fn parses_correct_annotation() {
        let stmt =
            parse_one("CORRECT ANNOTATION 4 'fixed text' DOCUMENT 'doc' AUTHOR 'bob'").unwrap();
        let Statement::CorrectAnnotation {
            id,
            text,
            document,
            author,
        } = stmt
        else {
            panic!()
        };
        assert_eq!(id, 4);
        assert_eq!(text, "fixed text");
        assert_eq!(document.as_deref(), Some("doc"));
        assert_eq!(author.as_deref(), Some("bob"));
        assert!(parse_one("CORRECT ANNOTATION 4").is_err());
    }

    #[test]
    fn parses_select_as_of() {
        let Statement::Select(sel) = parse_one("SELECT * FROM birds AS OF 41").unwrap() else {
            panic!()
        };
        assert_eq!(sel.as_of, Some(41));
        assert!(sel.from[0].alias.is_none());

        let Statement::Select(sel) =
            parse_one("SELECT name FROM birds WHERE id = 1 ORDER BY name LIMIT 5 AS OF 2").unwrap()
        else {
            panic!()
        };
        assert_eq!(sel.as_of, Some(2));
        assert_eq!(sel.limit, Some(5));

        let Statement::Select(sel) = parse_one("SELECT * FROM birds").unwrap() else {
            panic!()
        };
        assert_eq!(sel.as_of, None);
        assert!(parse_one("SELECT * FROM birds AS OF").is_err());
    }

    #[test]
    fn statement_spans_slice_the_source() {
        let src = "INSERT INTO t VALUES (1);  SELECT a FROM t ;; DELETE FROM t";
        let spans: Vec<&str> = parse_spanned(src)
            .unwrap()
            .into_iter()
            .map(|(_, span)| src[span].trim_end())
            .collect();
        assert_eq!(
            spans,
            [
                "INSERT INTO t VALUES (1)",
                "SELECT a FROM t",
                "DELETE FROM t"
            ]
        );
    }

    #[test]
    fn multiple_statements_and_errors() {
        let stmts = parse("SELECT * FROM a; SELECT * FROM b;").unwrap();
        assert_eq!(stmts.len(), 2);
        assert!(parse_one("SELECT * FROM a; SELECT * FROM b").is_err());
        assert!(parse("SELECT FROM").is_err());
        assert!(parse("FLY me TO the moon").is_err());
        assert!(parse("SELECT * FROM t WHERE SUM(a) = 1").is_err());
        assert!(parse("").unwrap().is_empty());
    }
}
