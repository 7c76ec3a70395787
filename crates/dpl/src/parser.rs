//! Recursive-descent parser for DPL.
//!
//! Grammar (EBNF, `;`-terminated statements, C-like precedence):
//!
//! ```text
//! program   := (global | fndef)*
//! global    := "var" IDENT "=" expr ";"
//! fndef     := "fn" IDENT "(" params? ")" block
//! block     := "{" stmt* "}"
//! stmt      := "var" IDENT "=" expr ";"
//!            | IDENT "=" expr ";"
//!            | postfix "[" expr "]" "=" expr ";"
//!            | "if" "(" expr ")" block ("else" (block | ifstmt))?
//!            | "while" "(" expr ")" block
//!            | "for" "(" IDENT "in" expr ")" block
//!            | "return" expr? ";" | "break" ";" | "continue" ";"
//!            | expr ";"
//! expr      := or
//! or        := and ("||" and)*
//! and       := equality ("&&" equality)*
//! equality  := relational (("=="|"!=") relational)*
//! relational:= additive (("<"|"<="|">"|">=") additive)*
//! additive  := multiplicative (("+"|"-") multiplicative)*
//! multiplicative := unary (("*"|"/"|"%") unary)*
//! unary     := ("-"|"!") unary | postfix
//! postfix   := primary ("[" expr "]")*
//! primary   := INT | FLOAT | STRING | "true" | "false" | "nil"
//!            | IDENT | IDENT "(" args? ")" | "(" expr ")"
//!            | "[" args? "]" | "{" (expr ":" expr),* "}"
//! ```
//!
//! The AST may nest at most [`MAX_NESTING`] levels. Each expression,
//! block, `if` and unary operand parsed inside another counts one level,
//! and each binary, unary, index, call, list and map node counts one
//! level above its tallest child — so an operator chain, which this
//! parser builds in a loop, counts one level per operator. Past the
//! bound the source is refused with a [`ParseError`]: the parser, the
//! checker, the compiler, the oracle interpreter and the AST's drop all
//! recurse once per level, and a delegated program must not be able to
//! exhaust the stack of the thread that translates it.

use crate::ast::*;
use crate::lexer::{lex, Tok, Token};
use crate::{DplError, ParseError};

/// Parses DPL source into an AST.
///
/// # Errors
///
/// Returns [`DplError::Lex`] or [`DplError::Parse`] with line information.
pub fn parse(source: &str) -> Result<ProgramAst, DplError> {
    let tokens = lex(source)?;
    let mut p = Parser { tokens, pos: 0, depth: 0, height: 0 };
    let ast = p.program()?;
    Ok(ast)
}

/// How deep a program's AST may nest (see the module docs). Parsing,
/// checking, compiling and interpreting a program at this bound fit a
/// 256 KiB stack in a debug build.
pub const MAX_NESTING: usize = 32;

/// The binary operators by precedence, loosest first.
const BINARY: [&[(Tok, BinOp)]; 6] = [
    &[(Tok::OrOr, BinOp::Or)],
    &[(Tok::AndAnd, BinOp::And)],
    &[(Tok::Eq, BinOp::Eq), (Tok::Ne, BinOp::Ne)],
    &[(Tok::Lt, BinOp::Lt), (Tok::Le, BinOp::Le), (Tok::Gt, BinOp::Gt), (Tok::Ge, BinOp::Ge)],
    &[(Tok::Plus, BinOp::Add), (Tok::Minus, BinOp::Sub)],
    &[(Tok::Star, BinOp::Mul), (Tok::Slash, BinOp::Div), (Tok::Percent, BinOp::Mod)],
];

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Levels enclosing the construct being parsed.
    depth: usize,
    /// Height of the expression the last expression parse returned
    /// (0 for a leaf).
    height: usize,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.tokens[self.pos].tok
    }

    fn peek2(&self) -> &Tok {
        &self.tokens[(self.pos + 1).min(self.tokens.len() - 1)].tok
    }

    fn line(&self) -> u32 {
        self.tokens[self.pos].line
    }

    fn bump(&mut self) -> Tok {
        let t = self.tokens[self.pos].tok.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, want: &Tok) -> Result<(), ParseError> {
        if self.peek() == want {
            self.bump();
            Ok(())
        } else {
            Err(self.err(format!("expected `{want}`, found `{}`", self.peek())))
        }
    }

    fn err(&self, message: String) -> ParseError {
        ParseError { line: self.line(), message }
    }

    fn too_deep(&self) -> ParseError {
        self.err(format!("nesting deeper than {MAX_NESTING} levels"))
    }

    /// Runs `parse` one level further in.
    fn nested<T>(
        &mut self,
        parse: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        self.depth += 1;
        let parsed = if self.depth > MAX_NESTING { Err(self.too_deep()) } else { parse(self) };
        self.depth -= 1;
        parsed
    }

    /// An expression node one level above children at most `below` high.
    fn node(&mut self, kind: ExprKind, line: u32, below: usize) -> Result<Expr, ParseError> {
        self.height = below + 1;
        if self.depth + self.height > MAX_NESTING {
            return Err(self.too_deep());
        }
        Ok(Expr { kind, line })
    }

    /// A comma-separated list of expressions up to `close`, with the
    /// tallest one's height.
    fn exprs_until(&mut self, close: &Tok) -> Result<(Vec<Expr>, usize), ParseError> {
        let (mut items, mut tallest) = (Vec::new(), 0);
        if self.peek() != close {
            loop {
                items.push(self.expr()?);
                tallest = tallest.max(self.height);
                if self.peek() == &Tok::Comma {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.eat(close)?;
        Ok((items, tallest))
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.peek().clone() {
            Tok::Ident(name) => {
                self.bump();
                Ok(name)
            }
            other => Err(self.err(format!("expected identifier, found `{other}`"))),
        }
    }

    fn program(&mut self) -> Result<ProgramAst, ParseError> {
        let mut ast = ProgramAst::default();
        loop {
            match self.peek() {
                Tok::Eof => return Ok(ast),
                Tok::Var => {
                    let line = self.line();
                    self.bump();
                    let name = self.ident()?;
                    self.eat(&Tok::Assign)?;
                    let init = self.expr()?;
                    self.eat(&Tok::Semicolon)?;
                    ast.globals.push(GlobalDef { name, init, line });
                }
                Tok::Fn => {
                    let line = self.line();
                    self.bump();
                    let name = self.ident()?;
                    self.eat(&Tok::LParen)?;
                    let mut params = Vec::new();
                    if self.peek() != &Tok::RParen {
                        loop {
                            params.push(self.ident()?);
                            if self.peek() == &Tok::Comma {
                                self.bump();
                            } else {
                                break;
                            }
                        }
                    }
                    self.eat(&Tok::RParen)?;
                    let body = self.block()?;
                    ast.functions.push(FnDef { name, params, body, line });
                }
                other => {
                    return Err(
                        self.err(format!("expected `var` or `fn` at top level, found `{other}`"))
                    )
                }
            }
        }
    }

    fn block(&mut self) -> Result<Vec<Stmt>, ParseError> {
        self.nested(Self::block_body)
    }

    fn block_body(&mut self) -> Result<Vec<Stmt>, ParseError> {
        self.eat(&Tok::LBrace)?;
        let mut stmts = Vec::new();
        while self.peek() != &Tok::RBrace {
            if self.peek() == &Tok::Eof {
                return Err(self.err("unterminated block".to_string()));
            }
            stmts.push(self.stmt()?);
        }
        self.bump(); // consume `}`
        Ok(stmts)
    }

    fn stmt(&mut self) -> Result<Stmt, ParseError> {
        let line = self.line();
        let kind = match self.peek().clone() {
            Tok::Var => {
                self.bump();
                let name = self.ident()?;
                self.eat(&Tok::Assign)?;
                let init = self.expr()?;
                self.eat(&Tok::Semicolon)?;
                StmtKind::VarDecl { name, init }
            }
            Tok::If => {
                self.bump();
                return self.nested(|p| p.if_stmt(line));
            }
            Tok::While => {
                self.bump();
                self.eat(&Tok::LParen)?;
                let cond = self.expr()?;
                self.eat(&Tok::RParen)?;
                let body = self.block()?;
                StmtKind::While { cond, body }
            }
            Tok::For => {
                self.bump();
                self.eat(&Tok::LParen)?;
                let name = self.ident()?;
                self.eat(&Tok::In)?;
                let iterable = self.expr()?;
                self.eat(&Tok::RParen)?;
                let body = self.block()?;
                StmtKind::ForIn { name, iterable, body }
            }
            Tok::Return => {
                self.bump();
                let value = if self.peek() == &Tok::Semicolon { None } else { Some(self.expr()?) };
                self.eat(&Tok::Semicolon)?;
                StmtKind::Return { value }
            }
            Tok::Break => {
                self.bump();
                self.eat(&Tok::Semicolon)?;
                StmtKind::Break
            }
            Tok::Continue => {
                self.bump();
                self.eat(&Tok::Semicolon)?;
                StmtKind::Continue
            }
            Tok::Ident(name) if self.peek2() == &Tok::Assign => {
                self.bump();
                self.bump();
                let value = self.expr()?;
                self.eat(&Tok::Semicolon)?;
                StmtKind::Assign { name, value }
            }
            _ => {
                // Expression statement, or an index assignment
                // `postfix[expr] = value;`.
                let e = self.expr()?;
                if self.peek() == &Tok::Assign {
                    self.bump();
                    let value = self.expr()?;
                    self.eat(&Tok::Semicolon)?;
                    match e.kind {
                        ExprKind::Index { base, index } => {
                            StmtKind::IndexAssign { base: *base, index: *index, value }
                        }
                        _ => {
                            return Err(ParseError {
                                line,
                                message: "invalid assignment target".to_string(),
                            })
                        }
                    }
                } else {
                    self.eat(&Tok::Semicolon)?;
                    StmtKind::Expr(e)
                }
            }
        };
        Ok(Stmt { kind, line })
    }

    fn if_stmt(&mut self, line: u32) -> Result<Stmt, ParseError> {
        self.eat(&Tok::LParen)?;
        let cond = self.expr()?;
        self.eat(&Tok::RParen)?;
        let then_block = self.block()?;
        let else_block = if self.peek() == &Tok::Else {
            self.bump();
            if self.peek() == &Tok::If {
                let line2 = self.line();
                self.bump();
                vec![self.nested(|p| p.if_stmt(line2))?]
            } else {
                self.block()?
            }
        } else {
            Vec::new()
        };
        Ok(Stmt { kind: StmtKind::If { cond, then_block, else_block }, line })
    }

    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.nested(|p| p.binary(0))
    }

    /// Binary operators of precedence `min` and tighter ([`BINARY`]),
    /// by precedence climbing: left-associative, and a chain at one
    /// level is a loop, not a recursion.
    fn binary(&mut self, min: usize) -> Result<Expr, ParseError> {
        let mut lhs = self.unary()?;
        loop {
            let found = BINARY.iter().enumerate().skip(min).find_map(|(level, ops)| {
                ops.iter().find(|(tok, _)| tok == self.peek()).map(|&(_, op)| (level, op))
            });
            let Some((level, op)) = found else { return Ok(lhs) };
            let line = self.line();
            self.bump();
            let below = self.height;
            let rhs = self.binary(level + 1)?;
            let kind = ExprKind::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs) };
            lhs = self.node(kind, line, below.max(self.height))?;
        }
    }

    fn unary(&mut self) -> Result<Expr, ParseError> {
        let line = self.line();
        let op = match self.peek() {
            Tok::Minus => UnOp::Neg,
            Tok::Bang => UnOp::Not,
            _ => return self.postfix(),
        };
        self.bump();
        let operand = self.nested(Self::unary)?;
        self.node(ExprKind::Unary { op, operand: Box::new(operand) }, line, self.height)
    }

    fn postfix(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.primary()?;
        while self.peek() == &Tok::LBracket {
            let line = self.line();
            self.bump();
            let below = self.height;
            let index = self.expr()?;
            self.eat(&Tok::RBracket)?;
            let kind = ExprKind::Index { base: Box::new(e), index: Box::new(index) };
            e = self.node(kind, line, below.max(self.height))?;
        }
        Ok(e)
    }

    fn primary(&mut self) -> Result<Expr, ParseError> {
        let line = self.line();
        self.height = 0;
        let kind = match self.bump() {
            Tok::Int(v) => ExprKind::Int(v),
            Tok::Float(v) => ExprKind::Float(v),
            Tok::Str(s) => ExprKind::Str(s),
            Tok::True => ExprKind::Bool(true),
            Tok::False => ExprKind::Bool(false),
            Tok::Nil => ExprKind::Nil,
            Tok::LParen => {
                let e = self.expr()?;
                self.eat(&Tok::RParen)?;
                return Ok(e);
            }
            Tok::LBracket => {
                let (items, tallest) = self.exprs_until(&Tok::RBracket)?;
                return self.node(ExprKind::List(items), line, tallest);
            }
            Tok::LBrace => {
                let (mut pairs, mut tallest) = (Vec::new(), 0);
                if self.peek() != &Tok::RBrace {
                    loop {
                        let k = self.expr()?;
                        tallest = tallest.max(self.height);
                        self.eat(&Tok::Colon)?;
                        let v = self.expr()?;
                        pairs.push((k, v));
                        tallest = tallest.max(self.height);
                        if self.peek() == &Tok::Comma {
                            self.bump();
                        } else {
                            break;
                        }
                    }
                }
                self.eat(&Tok::RBrace)?;
                return self.node(ExprKind::Map(pairs), line, tallest);
            }
            Tok::Ident(name) if self.peek() == &Tok::LParen => {
                self.bump();
                let (args, tallest) = self.exprs_until(&Tok::RParen)?;
                return self.node(ExprKind::Call { name, args }, line, tallest);
            }
            Tok::Ident(name) => ExprKind::Var(name),
            other => {
                return Err(ParseError {
                    line,
                    message: format!("unexpected token `{other}` in expression"),
                })
            }
        };
        Ok(Expr { kind, line })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(src: &str) -> ProgramAst {
        parse(src).unwrap()
    }

    #[test]
    fn parses_globals_and_functions() {
        let ast = parse_ok("var n = 0;\nfn main(a, b) { return a; }");
        assert_eq!(ast.globals.len(), 1);
        assert_eq!(ast.globals[0].name, "n");
        assert_eq!(ast.functions.len(), 1);
        assert_eq!(ast.functions[0].params, vec!["a", "b"]);
    }

    #[test]
    fn precedence_is_c_like() {
        let ast = parse_ok("fn f() { return 1 + 2 * 3 < 7 && true; }");
        let body = &ast.functions[0].body[0];
        // Root should be `&&`.
        match &body.kind {
            StmtKind::Return { value: Some(e) } => match &e.kind {
                ExprKind::Binary { op: BinOp::And, lhs, .. } => match &lhs.kind {
                    ExprKind::Binary { op: BinOp::Lt, lhs, .. } => match &lhs.kind {
                        ExprKind::Binary { op: BinOp::Add, rhs, .. } => {
                            assert!(matches!(rhs.kind, ExprKind::Binary { op: BinOp::Mul, .. }));
                        }
                        other => panic!("expected +, got {other:?}"),
                    },
                    other => panic!("expected <, got {other:?}"),
                },
                other => panic!("expected &&, got {other:?}"),
            },
            other => panic!("expected return, got {other:?}"),
        }
    }

    #[test]
    fn parens_override_precedence() {
        let ast = parse_ok("fn f() { return (1 + 2) * 3; }");
        match &ast.functions[0].body[0].kind {
            StmtKind::Return { value: Some(e) } => {
                assert!(matches!(e.kind, ExprKind::Binary { op: BinOp::Mul, .. }));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn if_else_if_chains() {
        let ast = parse_ok(
            "fn f(x) { if (x > 2) { return 2; } else if (x > 1) { return 1; } else { return 0; } }",
        );
        match &ast.functions[0].body[0].kind {
            StmtKind::If { else_block, .. } => {
                assert_eq!(else_block.len(), 1);
                assert!(matches!(else_block[0].kind, StmtKind::If { .. }));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn loops_and_control() {
        let ast = parse_ok(
            "fn f(xs) { var t = 0; for (x in xs) { if (x == 0) { continue; } t = t + x; } \
             while (t > 100) { t = t - 1; break; } return t; }",
        );
        assert_eq!(ast.functions[0].body.len(), 4);
    }

    #[test]
    fn list_and_map_literals() {
        let ast = parse_ok(r#"fn f() { return [1, 2.0, "x", [nil]]; }"#);
        match &ast.functions[0].body[0].kind {
            StmtKind::Return { value: Some(e) } => match &e.kind {
                ExprKind::List(items) => assert_eq!(items.len(), 4),
                _ => panic!(),
            },
            _ => panic!(),
        }
        let ast = parse_ok(r#"fn f() { return {"a": 1, "b": 2}; }"#);
        match &ast.functions[0].body[0].kind {
            StmtKind::Return { value: Some(e) } => match &e.kind {
                ExprKind::Map(pairs) => assert_eq!(pairs.len(), 2),
                _ => panic!(),
            },
            _ => panic!(),
        }
    }

    #[test]
    fn index_assignment_parses() {
        let ast = parse_ok(r#"fn f(m) { m["k"] = 5; m["a"]["b"] = 1; }"#);
        assert!(matches!(ast.functions[0].body[0].kind, StmtKind::IndexAssign { .. }));
        match &ast.functions[0].body[1].kind {
            StmtKind::IndexAssign { base, .. } => {
                assert!(matches!(base.kind, ExprKind::Index { .. }));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn invalid_assignment_target_rejected() {
        let err = parse("fn f() { 1 + 2 = 3; }").unwrap_err();
        match err {
            DplError::Parse(p) => assert!(p.message.contains("assignment target")),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn error_messages_have_lines() {
        let err = parse("fn f() {\n  var = 3;\n}").unwrap_err();
        match err {
            DplError::Parse(p) => assert_eq!(p.line, 2),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn top_level_garbage_rejected() {
        assert!(parse("return 1;").is_err());
        assert!(parse("fn f() {").is_err());
        assert!(parse("fn f(a,) {}").is_err());
    }

    #[test]
    fn nested_calls_and_indexing() {
        let ast = parse_ok("fn f(a) { return g(h(a)[0], [1,2][1]); }");
        match &ast.functions[0].body[0].kind {
            StmtKind::Return { value: Some(e) } => match &e.kind {
                ExprKind::Call { name, args } => {
                    assert_eq!(name, "g");
                    assert_eq!(args.len(), 2);
                    assert!(matches!(args[0].kind, ExprKind::Index { .. }));
                }
                _ => panic!(),
            },
            _ => panic!(),
        }
    }

    #[test]
    fn unary_chains() {
        let ast = parse_ok("fn f(x) { return --x + !!true; }");
        assert_eq!(ast.functions.len(), 1);
    }

    #[test]
    fn operators_associate_left_within_a_level() {
        let ast = parse_ok("fn f() { return 8 - 2 - 1 == 5 == true; }");
        let StmtKind::Return { value: Some(e) } = &ast.functions[0].body[0].kind else { panic!() };
        let ExprKind::Binary { op: BinOp::Eq, lhs, .. } = &e.kind else { panic!("{e:?}") };
        let ExprKind::Binary { op: BinOp::Eq, lhs, .. } = &lhs.kind else { panic!("{lhs:?}") };
        let ExprKind::Binary { op: BinOp::Sub, lhs, .. } = &lhs.kind else { panic!("{lhs:?}") };
        assert!(matches!(lhs.kind, ExprKind::Binary { op: BinOp::Sub, .. }), "{lhs:?}");
    }

    /// `fn main()` whose body nests `construct` `n` levels deep.
    fn nested(construct: &str, n: usize) -> String {
        let wrap = |open: &str, inner: &str, close: &str| {
            format!("{}{inner}{}", open.repeat(n), close.repeat(n))
        };
        let expr = match construct {
            "paren" => wrap("(", "1", ")"),
            "unary" => wrap("-", "1", ""),
            "chain" => wrap("1 + ", "1", ""),
            "index" => format!("[1]{}", "[0]".repeat(n)),
            "call" => wrap("abs(", "1", ")"),
            "list" => wrap("[", "1", "]"),
            "map" => wrap("{\"k\": ", "1", "}"),
            "if" => return format!("fn main() {{ {} return 0; }}", wrap("if (true) { ", "", "}")),
            "while" => {
                return format!("fn main() {{ {} return 0; }}", wrap("while (false) { ", "", "}"))
            }
            other => panic!("{other}"),
        };
        format!("fn main() {{ return {expr}; }}")
    }

    const CONSTRUCTS: [&str; 9] =
        ["paren", "unary", "chain", "index", "call", "list", "map", "if", "while"];

    /// The deepest nesting of `construct` that still parses.
    fn bound(construct: &str) -> usize {
        (1..).find(|&n| parse(&nested(construct, n + 1)).is_err()).unwrap()
    }

    #[test]
    fn every_construct_parses_to_its_bound_and_is_refused_one_past_it() {
        for construct in CONSTRUCTS {
            let n = bound(construct);
            assert!(n >= MAX_NESTING / 3, "{construct}: only {n} levels");
            match parse(&nested(construct, n + 1)).unwrap_err() {
                DplError::Parse(p) => assert!(p.message.contains("nesting deeper"), "{p:?}"),
                other => panic!("{construct}: {other:?}"),
            }
        }
        // Hostile sizes fail fast, without building the deep tree.
        for construct in ["paren", "chain", "unary", "list"] {
            assert!(parse(&nested(construct, 50_000)).is_err(), "{construct}");
        }
    }

    #[test]
    fn programs_at_the_bound_translate_run_and_drop_on_a_256_kib_stack() {
        let run = || {
            let registry: crate::HostRegistry<()> = crate::HostRegistry::with_stdlib();
            for construct in CONSTRUCTS {
                let source = nested(construct, bound(construct));
                let program = crate::compile_program(&source, &registry).expect(construct);
                let mut vm = crate::Instance::new(std::sync::Arc::new(program));
                let budget = crate::Budget::default();
                let compiled = vm.invoke("main", &[], &mut (), &registry, budget);
                let mut oracle = crate::interp::AstInstance::new(&source, &registry).unwrap();
                let interpreted = oracle.invoke("main", &[], &mut (), &registry, budget);
                assert_eq!(compiled, interpreted, "{construct}");
            }
        };
        let small = std::thread::Builder::new().stack_size(256 * 1024).spawn(run).unwrap();
        small.join().expect("translation at the bound fits the stack");
    }

    #[test]
    fn empty_return_is_nil() {
        let ast = parse_ok("fn f() { return; }");
        assert!(matches!(ast.functions[0].body[0].kind, StmtKind::Return { value: None }));
    }
}
