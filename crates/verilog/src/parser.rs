//! Recursive-descent parser for the synthesizable Verilog-2005 subset.
//!
//! Supported constructs (see crate docs for the full subset contract):
//! ANSI-style module headers with `parameter` lists, `wire`/`reg`
//! declarations with ranges, memory declarations, `localparam`,
//! continuous `assign`, `always @(posedge/negedge clk)` and
//! `always @(*)` (or `@(a or b)`) processes with `begin/end`, `if`,
//! `case` and both assignment flavors, and named-port module
//! instantiation.
//!
//! Restrictions (documented, checked with clear diagnostics):
//! declare-before-use; vector ranges must end at bit 0 (`[msb:0]`);
//! memory ranges must start at word 0; no 4-state literals, `initial`
//! blocks, `generate`, delays, or signed arithmetic; `/` and `%` only in
//! constant expressions.

use crate::token::{lex, Pos, Spanned, Tok};
use crate::VerilogError;
use hardsnap_rtl::{
    eval_binary, eval_unary, BinaryOp, CaseArm, ContAssign, Design, EdgeKind, Expr, Instance,
    LValue, Module, NetKind, PortDir, Process, ProcessKind, Stmt, UnaryOp, Value,
};
use std::collections::HashMap;

const KEYWORDS: &[&str] = &[
    "module",
    "endmodule",
    "input",
    "output",
    "inout",
    "wire",
    "reg",
    "assign",
    "always",
    "begin",
    "end",
    "if",
    "else",
    "case",
    "endcase",
    "default",
    "posedge",
    "negedge",
    "parameter",
    "localparam",
    "or",
    "integer",
    "initial",
    "generate",
    "endgenerate",
    "genvar",
    "function",
    "endfunction",
    "signed",
];

/// Parses one or more `module` definitions into a [`Design`].
///
/// # Errors
///
/// Returns a [`VerilogError`] with source position on any lexical,
/// syntactic or subset violation.
///
/// # Examples
///
/// ```
/// let d = hardsnap_verilog::parse_design(r#"
///     module blinky (input wire clk, output reg led);
///         always @(posedge clk) led <= ~led;
///     endmodule
/// "#)?;
/// assert!(d.module("blinky").is_some());
/// # Ok::<(), hardsnap_verilog::VerilogError>(())
/// ```
pub fn parse_design(src: &str) -> Result<Design, VerilogError> {
    let tokens = lex(src)?;
    let mut p = Parser { tokens, pos: 0 };
    let mut design = Design::new();
    while !p.at_eof() {
        let module = p.parse_module()?;
        design
            .add_module(module)
            .map_err(|e| VerilogError::new(e.to_string(), p.here()))?;
    }
    Ok(design)
}

struct Parser {
    tokens: Vec<Spanned>,
    pos: usize,
}

/// Per-module parsing context.
struct ModCtx {
    module: Module,
    params: HashMap<String, u64>,
}

impl Parser {
    fn here(&self) -> Pos {
        self.tokens[self.pos.min(self.tokens.len() - 1)].pos
    }

    fn peek(&self) -> &Tok {
        &self.tokens[self.pos].tok
    }

    fn at_eof(&self) -> bool {
        matches!(self.peek(), Tok::Eof)
    }

    fn bump(&mut self) -> Tok {
        let t = self.tokens[self.pos].tok.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T, VerilogError> {
        Err(VerilogError::new(msg.into(), self.here()))
    }

    fn expect(&mut self, tok: Tok) -> Result<(), VerilogError> {
        if *self.peek() == tok {
            self.bump();
            Ok(())
        } else {
            self.err(format!("expected {tok}, found {}", self.peek()))
        }
    }

    fn eat(&mut self, tok: Tok) -> bool {
        if *self.peek() == tok {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), VerilogError> {
        match self.peek() {
            Tok::Ident(s) if s == kw => {
                self.bump();
                Ok(())
            }
            other => self.err(format!("expected keyword '{kw}', found {other}")),
        }
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Tok::Ident(s) if s == kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn peek_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Tok::Ident(s) if s == kw)
    }

    fn expect_ident(&mut self) -> Result<String, VerilogError> {
        match self.peek().clone() {
            Tok::Ident(s) => {
                if KEYWORDS.contains(&s.as_str()) {
                    self.err(format!("keyword '{s}' used as identifier"))
                } else {
                    self.bump();
                    Ok(s)
                }
            }
            other => self.err(format!("expected identifier, found {other}")),
        }
    }

    // ---------------------------------------------------------------- module

    fn parse_module(&mut self) -> Result<Module, VerilogError> {
        self.expect_kw("module")?;
        let name = self.expect_ident()?;
        let mut ctx = ModCtx {
            module: Module::new(name),
            params: HashMap::new(),
        };

        // Optional parameter header: #(parameter A = 1, parameter B = 2)
        if self.eat(Tok::Hash) {
            self.expect(Tok::LParen)?;
            loop {
                self.expect_kw("parameter")?;
                self.parse_param_binding(&mut ctx)?;
                if !self.eat(Tok::Comma) {
                    break;
                }
            }
            self.expect(Tok::RParen)?;
        }

        // ANSI port list.
        self.expect(Tok::LParen)?;
        if !self.eat(Tok::RParen) {
            let mut dir = None;
            let mut kind = NetKind::Wire;
            let mut width = 1u32;
            loop {
                if self.peek_kw("input") {
                    self.bump();
                    dir = Some(PortDir::Input);
                    kind = NetKind::Wire;
                    width = 1;
                } else if self.peek_kw("output") {
                    self.bump();
                    dir = Some(PortDir::Output);
                    kind = NetKind::Wire;
                    width = 1;
                } else if self.peek_kw("inout") {
                    return self.err("inout ports are not supported by the subset");
                }
                if self.peek_kw("wire") {
                    self.bump();
                    kind = NetKind::Wire;
                } else if self.peek_kw("reg") {
                    self.bump();
                    kind = NetKind::Reg;
                }
                if matches!(self.peek(), Tok::LBracket) {
                    width = self.parse_range(&ctx)?;
                }
                let dir = match dir {
                    Some(d) => d,
                    None => return self.err("port is missing a direction (input/output)"),
                };
                let pname = self.expect_ident()?;
                ctx.module
                    .add_net(pname, width, kind, Some(dir))
                    .map_err(|e| VerilogError::new(e.to_string(), self.here()))?;
                if !self.eat(Tok::Comma) {
                    break;
                }
            }
            self.expect(Tok::RParen)?;
        }
        self.expect(Tok::Semi)?;

        // Body items.
        while !self.eat_kw("endmodule") {
            if self.at_eof() {
                return self.err("unexpected end of input inside module body");
            }
            self.parse_item(&mut ctx)?;
        }
        ctx.module.params = {
            let mut v: Vec<_> = ctx.params.into_iter().collect();
            v.sort();
            v
        };
        Ok(ctx.module)
    }

    fn parse_param_binding(&mut self, ctx: &mut ModCtx) -> Result<(), VerilogError> {
        let name = self.expect_ident()?;
        self.expect(Tok::Assign)?;
        let value = self.parse_const_expr(ctx)?;
        if ctx.params.insert(name.clone(), value.bits()).is_some() {
            return self.err(format!("duplicate parameter '{name}'"));
        }
        Ok(())
    }

    /// Parses `[msb:lsb]`; requires `lsb == 0`; returns the width.
    fn parse_range(&mut self, ctx: &ModCtx) -> Result<u32, VerilogError> {
        self.expect(Tok::LBracket)?;
        let msb = self.parse_const_expr(ctx)?.bits();
        self.expect(Tok::Colon)?;
        let lsb = self.parse_const_expr(ctx)?.bits();
        self.expect(Tok::RBracket)?;
        if lsb != 0 {
            return self.err(format!("vector range must end at 0, found [{msb}:{lsb}]"));
        }
        if msb >= 64 {
            return self.err(format!("vector msb {msb} exceeds the 63 limit"));
        }
        Ok(msb as u32 + 1)
    }

    // ----------------------------------------------------------------- items

    fn parse_item(&mut self, ctx: &mut ModCtx) -> Result<(), VerilogError> {
        if self.eat_kw("parameter") || self.eat_kw("localparam") {
            loop {
                self.parse_param_binding(ctx)?;
                if !self.eat(Tok::Comma) {
                    break;
                }
            }
            self.expect(Tok::Semi)?;
        } else if self.peek_kw("wire") || self.peek_kw("reg") {
            self.parse_net_decl(ctx)?;
        } else if self.eat_kw("assign") {
            let lv = self.parse_lvalue(ctx)?;
            self.expect(Tok::Assign)?;
            let rhs = self.parse_expr(ctx)?;
            self.expect(Tok::Semi)?;
            ctx.module.assigns.push(ContAssign { lv, rhs });
        } else if self.eat_kw("always") {
            self.parse_always(ctx)?;
        } else if self.peek_kw("initial")
            || self.peek_kw("generate")
            || self.peek_kw("genvar")
            || self.peek_kw("integer")
            || self.peek_kw("function")
        {
            return self.err(format!(
                "{} is outside the supported synthesizable subset",
                self.peek()
            ));
        } else if matches!(self.peek(), Tok::Ident(_)) {
            self.parse_instance(ctx)?;
        } else {
            return self.err(format!("unexpected {} in module body", self.peek()));
        }
        Ok(())
    }

    fn parse_net_decl(&mut self, ctx: &mut ModCtx) -> Result<(), VerilogError> {
        let kind = if self.eat_kw("wire") {
            NetKind::Wire
        } else {
            self.expect_kw("reg")?;
            NetKind::Reg
        };
        if self.peek_kw("signed") {
            return self.err("signed nets are not supported by the subset");
        }
        let width = if matches!(self.peek(), Tok::LBracket) {
            self.parse_range(ctx)?
        } else {
            1
        };
        loop {
            let name = self.expect_ident()?;
            if matches!(self.peek(), Tok::LBracket) {
                // Memory: reg [W-1:0] name [0:D-1];
                if kind != NetKind::Reg {
                    return self.err("memories must be declared 'reg'");
                }
                self.expect(Tok::LBracket)?;
                let lo = self.parse_const_expr(ctx)?.bits();
                self.expect(Tok::Colon)?;
                let hi = self.parse_const_expr(ctx)?.bits();
                self.expect(Tok::RBracket)?;
                if lo != 0 {
                    return self.err("memory range must start at word 0");
                }
                if hi >= u32::MAX as u64 {
                    return self.err("memory depth out of range");
                }
                ctx.module
                    .add_memory(name, width, hi as u32 + 1)
                    .map_err(|e| VerilogError::new(e.to_string(), self.here()))?;
            } else {
                let id = ctx
                    .module
                    .add_net(name, width, kind, None)
                    .map_err(|e| VerilogError::new(e.to_string(), self.here()))?;
                // `wire x = expr;` initializer sugar.
                if self.eat(Tok::Assign) {
                    if kind != NetKind::Wire {
                        return self.err("reg initializers are not supported (no initial blocks)");
                    }
                    let rhs = self.parse_expr(ctx)?;
                    ctx.module.assigns.push(ContAssign {
                        lv: LValue::Net(id),
                        rhs,
                    });
                }
            }
            if !self.eat(Tok::Comma) {
                break;
            }
        }
        self.expect(Tok::Semi)?;
        Ok(())
    }

    fn parse_always(&mut self, ctx: &mut ModCtx) -> Result<(), VerilogError> {
        self.expect(Tok::At)?;
        let kind = if self.eat(Tok::Star) {
            ProcessKind::Comb
        } else {
            self.expect(Tok::LParen)?;
            if self.eat(Tok::Star) {
                self.expect(Tok::RParen)?;
                ProcessKind::Comb
            } else if self.peek_kw("posedge") || self.peek_kw("negedge") {
                let edge = if self.eat_kw("posedge") {
                    EdgeKind::Pos
                } else {
                    self.expect_kw("negedge")?;
                    EdgeKind::Neg
                };
                let clk_name = self.expect_ident()?;
                let clock = ctx.module.find_net(&clk_name).ok_or_else(|| {
                    VerilogError::new(format!("undeclared clock '{clk_name}'"), self.here())
                })?;
                if self.eat_kw("or") {
                    return self.err(
                        "multi-edge sensitivity (async reset) is not supported; \
                         use synchronous reset",
                    );
                }
                self.expect(Tok::RParen)?;
                ProcessKind::Clocked { clock, edge }
            } else {
                // Old-style explicit comb sensitivity list: @(a or b or c).
                loop {
                    let n = self.expect_ident()?;
                    if ctx.module.find_net(&n).is_none() {
                        return self.err(format!("undeclared net '{n}' in sensitivity list"));
                    }
                    if !self.eat_kw("or") && !self.eat(Tok::Comma) {
                        break;
                    }
                }
                self.expect(Tok::RParen)?;
                ProcessKind::Comb
            }
        };
        let body = self.parse_stmt_block(ctx)?;
        ctx.module.processes.push(Process { kind, body });
        Ok(())
    }

    /// Parses a statement and normalizes it to a Vec (begin/end unwrap).
    fn parse_stmt_block(&mut self, ctx: &mut ModCtx) -> Result<Vec<Stmt>, VerilogError> {
        if self.eat_kw("begin") {
            let mut out = Vec::new();
            while !self.eat_kw("end") {
                if self.at_eof() {
                    return self.err("unexpected end of input inside begin/end block");
                }
                out.extend(self.parse_stmt(ctx)?);
            }
            Ok(out)
        } else {
            self.parse_stmt(ctx)
        }
    }

    fn parse_stmt(&mut self, ctx: &mut ModCtx) -> Result<Vec<Stmt>, VerilogError> {
        if self.peek_kw("begin") {
            return self.parse_stmt_block(ctx);
        }
        if self.eat_kw("if") {
            self.expect(Tok::LParen)?;
            let cond = self.parse_expr(ctx)?;
            self.expect(Tok::RParen)?;
            let then_s = self.parse_stmt_block(ctx)?;
            let else_s = if self.eat_kw("else") {
                self.parse_stmt_block(ctx)?
            } else {
                Vec::new()
            };
            return Ok(vec![Stmt::If {
                cond,
                then_s,
                else_s,
            }]);
        }
        if self.eat_kw("case") {
            self.expect(Tok::LParen)?;
            let sel = self.parse_expr(ctx)?;
            self.expect(Tok::RParen)?;
            let sel_width = sel
                .width(&ctx.module)
                .map_err(|e| VerilogError::new(e.to_string(), self.here()))?;
            let mut arms = Vec::new();
            let mut default = Vec::new();
            let mut saw_default = false;
            while !self.eat_kw("endcase") {
                if self.at_eof() {
                    return self.err("unexpected end of input inside case");
                }
                if self.eat_kw("default") {
                    if saw_default {
                        return self.err("duplicate default arm in case");
                    }
                    saw_default = true;
                    self.eat(Tok::Colon);
                    default = self.parse_stmt_block(ctx)?;
                } else {
                    let mut labels = Vec::new();
                    loop {
                        let v = self.parse_const_expr(ctx)?;
                        if v.width() > sel_width && v.bits() >> sel_width != 0 {
                            return self.err(format!(
                                "case label {v} does not fit {sel_width}-bit selector"
                            ));
                        }
                        labels.push(v.resize(sel_width));
                        if !self.eat(Tok::Comma) {
                            break;
                        }
                    }
                    self.expect(Tok::Colon)?;
                    let body = self.parse_stmt_block(ctx)?;
                    arms.push(CaseArm { labels, body });
                }
            }
            return Ok(vec![Stmt::Case { sel, arms, default }]);
        }
        // Assignment.
        let lv = self.parse_lvalue(ctx)?;
        let blocking = if self.eat(Tok::LtEq) {
            false
        } else if self.eat(Tok::Assign) {
            true
        } else {
            return self.err(format!(
                "expected '<=' or '=' after lvalue, found {}",
                self.peek()
            ));
        };
        let rhs = self.parse_expr(ctx)?;
        self.expect(Tok::Semi)?;
        Ok(vec![Stmt::Assign { lv, rhs, blocking }])
    }

    fn parse_lvalue(&mut self, ctx: &mut ModCtx) -> Result<LValue, VerilogError> {
        if matches!(self.peek(), Tok::LBrace) {
            return self.err("concatenation lvalues are not supported; split the assignment");
        }
        let name = self.expect_ident()?;
        if let Some(mem) = ctx.module.find_mem(&name) {
            self.expect(Tok::LBracket)?;
            let addr = self.parse_expr(ctx)?;
            self.expect(Tok::RBracket)?;
            return Ok(LValue::Mem { mem, addr });
        }
        let base = ctx.module.find_net(&name).ok_or_else(|| {
            VerilogError::new(format!("undeclared net '{name}' in lvalue"), self.here())
        })?;
        if self.eat(Tok::LBracket) {
            let first = self.parse_expr(ctx)?;
            if self.eat(Tok::Colon) {
                let hi = self.as_const(&first)?;
                let lo = self.parse_const_expr(ctx)?;
                self.expect(Tok::RBracket)?;
                return Ok(LValue::Slice {
                    base,
                    hi: hi.bits() as u32,
                    lo: lo.bits() as u32,
                });
            }
            self.expect(Tok::RBracket)?;
            return match &first {
                Expr::Const(v) => Ok(LValue::Slice {
                    base,
                    hi: v.bits() as u32,
                    lo: v.bits() as u32,
                }),
                _ => Ok(LValue::Index { base, index: first }),
            };
        }
        Ok(LValue::Net(base))
    }

    fn parse_instance(&mut self, ctx: &mut ModCtx) -> Result<(), VerilogError> {
        let module = self.expect_ident()?;
        if self.eat(Tok::Hash) {
            return self.err(format!(
                "parameter overrides on instance of '{module}' are not supported; \
                 specialize the module instead"
            ));
        }
        let name = self.expect_ident()?;
        self.expect(Tok::LParen)?;
        let mut conns = Vec::new();
        if !self.eat(Tok::RParen) {
            loop {
                self.expect(Tok::Dot)?;
                let port = self.expect_ident()?;
                self.expect(Tok::LParen)?;
                // Unconnected `.port()` is allowed for outputs only; the
                // elaborator rejects unconnected inputs.
                if !matches!(self.peek(), Tok::RParen) {
                    let e = self.parse_expr(ctx)?;
                    conns.push((port, e));
                }
                self.expect(Tok::RParen)?;
                if !self.eat(Tok::Comma) {
                    break;
                }
            }
            self.expect(Tok::RParen)?;
        }
        self.expect(Tok::Semi)?;
        ctx.module.instances.push(Instance {
            name,
            module,
            conns,
            params: vec![],
        });
        Ok(())
    }

    // ----------------------------------------------------------- expressions

    fn parse_const_expr(&mut self, ctx: &ModCtx) -> Result<Value, VerilogError> {
        let e = self.parse_expr_prec(ctx, 0)?;
        self.as_const(&e)
    }

    fn as_const(&self, e: &Expr) -> Result<Value, VerilogError> {
        match e {
            Expr::Const(v) => Ok(*v),
            _ => Err(VerilogError::new(
                "expected a constant expression".to_string(),
                self.here(),
            )),
        }
    }

    fn parse_expr(&mut self, ctx: &ModCtx) -> Result<Expr, VerilogError> {
        self.parse_expr_prec(ctx, 0)
    }

    /// Precedence-climbing core. Level 0 includes `?:`.
    fn parse_expr_prec(&mut self, ctx: &ModCtx, min_prec: u8) -> Result<Expr, VerilogError> {
        let mut lhs = self.parse_unary(ctx)?;
        loop {
            // Ternary, lowest precedence, right-associative.
            if min_prec == 0 && matches!(self.peek(), Tok::Question) {
                self.bump();
                let then_e = self.parse_expr_prec(ctx, 0)?;
                self.expect(Tok::Colon)?;
                let else_e = self.parse_expr_prec(ctx, 0)?;
                lhs = fold_cond(&ctx.module, lhs, then_e, else_e);
                continue;
            }
            let (op, prec, divmod) = match self.peek() {
                Tok::PipePipe => (BinaryOp::LogicOr, 1, false),
                Tok::AmpAmp => (BinaryOp::LogicAnd, 2, false),
                Tok::Pipe => (BinaryOp::Or, 3, false),
                Tok::Caret => (BinaryOp::Xor, 4, false),
                Tok::Amp => (BinaryOp::And, 5, false),
                Tok::EqEq => (BinaryOp::Eq, 6, false),
                Tok::BangEq => (BinaryOp::Ne, 6, false),
                Tok::Lt => (BinaryOp::Lt, 7, false),
                Tok::LtEq => (BinaryOp::Le, 7, false),
                Tok::Gt => (BinaryOp::Gt, 7, false),
                Tok::GtEq => (BinaryOp::Ge, 7, false),
                Tok::Shl => (BinaryOp::Shl, 8, false),
                Tok::Shr => (BinaryOp::Shr, 8, false),
                Tok::Plus => (BinaryOp::Add, 9, false),
                Tok::Minus => (BinaryOp::Sub, 9, false),
                Tok::Star => (BinaryOp::Mul, 10, false),
                Tok::Slash => (BinaryOp::Mul, 10, true), // placeholder op
                Tok::Percent => (BinaryOp::Mul, 10, true),
                _ => break,
            };
            if prec < min_prec {
                break;
            }
            let tok = self.bump();
            let rhs = self.parse_expr_prec(ctx, prec + 1)?;
            if divmod {
                // Division/modulo: constant expressions only.
                let a = self.as_const(&lhs)?;
                let b = self.as_const(&rhs)?;
                if b.bits() == 0 {
                    return self.err("division by zero in constant expression");
                }
                let v = if matches!(tok, Tok::Slash) {
                    a.bits() / b.bits()
                } else {
                    a.bits() % b.bits()
                };
                lhs = Expr::Const(Value::new(v, a.width().max(b.width())));
            } else {
                lhs = fold_binary(op, lhs, rhs);
            }
        }
        Ok(lhs)
    }

    fn parse_unary(&mut self, ctx: &ModCtx) -> Result<Expr, VerilogError> {
        let op = match self.peek() {
            Tok::Tilde => Some(UnaryOp::Not),
            Tok::Bang => Some(UnaryOp::LogicNot),
            Tok::Minus => Some(UnaryOp::Neg),
            Tok::Amp => Some(UnaryOp::RedAnd),
            Tok::Pipe => Some(UnaryOp::RedOr),
            Tok::Caret => Some(UnaryOp::RedXor),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let arg = self.parse_unary(ctx)?;
            return Ok(fold_unary(op, arg));
        }
        self.parse_primary(ctx)
    }

    fn parse_primary(&mut self, ctx: &ModCtx) -> Result<Expr, VerilogError> {
        match self.peek().clone() {
            Tok::Number { width, value } => {
                self.bump();
                let w = width.unwrap_or(if value >> 32 == 0 { 32 } else { 64 });
                Ok(Expr::Const(Value::new(value, w)))
            }
            Tok::LParen => {
                self.bump();
                let e = self.parse_expr(ctx)?;
                self.expect(Tok::RParen)?;
                Ok(e)
            }
            Tok::LBrace => {
                self.bump();
                let first = self.parse_expr(ctx)?;
                if matches!(self.peek(), Tok::LBrace) {
                    // Replication {N{expr}}.
                    let count = self.as_const(&first)?.bits();
                    self.expect(Tok::LBrace)?;
                    let inner = self.parse_expr(ctx)?;
                    self.expect(Tok::RBrace)?;
                    self.expect(Tok::RBrace)?;
                    if count == 0 || count > 64 {
                        return self.err(format!("replication count {count} out of range"));
                    }
                    return Ok(fold_concat(vec![Expr::Repeat {
                        count: count as u32,
                        arg: Box::new(inner),
                    }]));
                }
                let mut parts = vec![first];
                while self.eat(Tok::Comma) {
                    parts.push(self.parse_expr(ctx)?);
                }
                self.expect(Tok::RBrace)?;
                Ok(fold_concat(parts))
            }
            Tok::Ident(name) => {
                if KEYWORDS.contains(&name.as_str()) {
                    return self.err(format!("keyword '{name}' in expression"));
                }
                self.bump();
                if let Some(&v) = ctx.params.get(&name) {
                    let w = if v >> 32 == 0 { 32 } else { 64 };
                    return Ok(Expr::Const(Value::new(v, w)));
                }
                if let Some(mem) = ctx.module.find_mem(&name) {
                    self.expect(Tok::LBracket)?;
                    let addr = self.parse_expr(ctx)?;
                    self.expect(Tok::RBracket)?;
                    return Ok(Expr::MemRead {
                        mem,
                        addr: Box::new(addr),
                    });
                }
                let base = ctx.module.find_net(&name).ok_or_else(|| {
                    VerilogError::new(format!("undeclared identifier '{name}'"), self.here())
                })?;
                if self.eat(Tok::LBracket) {
                    let first = self.parse_expr(ctx)?;
                    if self.eat(Tok::Colon) {
                        let hi = self.as_const(&first)?.bits() as u32;
                        let lo = self.parse_const_expr(ctx)?.bits() as u32;
                        self.expect(Tok::RBracket)?;
                        return Ok(Expr::Slice { base, hi, lo });
                    }
                    self.expect(Tok::RBracket)?;
                    return match &first {
                        Expr::Const(v) => {
                            let b = v.bits() as u32;
                            Ok(Expr::Slice { base, hi: b, lo: b })
                        }
                        _ => Ok(Expr::Index {
                            base,
                            index: Box::new(first),
                        }),
                    };
                }
                Ok(Expr::Net(base))
            }
            other => self.err(format!("expected expression, found {other}")),
        }
    }
}

// ---------------------------------------------------------- constant folding

/// Builds a binary expression, folding when both sides are constant
/// (using the exact simulator semantics, so folding never changes
/// behaviour).
fn fold_binary(op: BinaryOp, lhs: Expr, rhs: Expr) -> Expr {
    if let (Expr::Const(a), Expr::Const(b)) = (&lhs, &rhs) {
        return Expr::Const(eval_binary(op, *a, *b));
    }
    Expr::Binary {
        op,
        lhs: Box::new(lhs),
        rhs: Box::new(rhs),
    }
}

fn fold_unary(op: UnaryOp, arg: Expr) -> Expr {
    if let Expr::Const(a) = &arg {
        return Expr::Const(eval_unary(op, *a));
    }
    Expr::Unary {
        op,
        arg: Box::new(arg),
    }
}

/// Builds `cond ? then_e : else_e`, folding a constant condition only
/// where that keeps the expression's width: the width of `?:` is the
/// wider arm's, and the taken arm alone may be narrower (which would
/// change a case selector's width or the mask of a sum around it).
fn fold_cond(module: &Module, cond: Expr, then_e: Expr, else_e: Expr) -> Expr {
    if let Expr::Const(c) = &cond {
        if let (Expr::Const(t), Expr::Const(f)) = (&then_e, &else_e) {
            let taken = if c.is_true() { t } else { f };
            return Expr::Const(Value::new(taken.bits(), t.width().max(f.width())));
        }
        if let (Ok(wt), Ok(wf)) = (then_e.width(module), else_e.width(module)) {
            if wt == wf {
                return if c.is_true() { then_e } else { else_e };
            }
        }
    }
    Expr::Cond {
        cond: Box::new(cond),
        then_e: Box::new(then_e),
        else_e: Box::new(else_e),
    }
}

fn fold_concat(parts: Vec<Expr>) -> Expr {
    if parts.len() == 1 {
        if let Expr::Repeat { count, arg } = &parts[0] {
            if let Expr::Const(v) = arg.as_ref() {
                let mut acc = *v;
                for _ in 1..*count {
                    acc = acc.concat(*v);
                }
                return Expr::Const(acc);
            }
        }
        if matches!(parts[0], Expr::Const(_)) {
            return parts.into_iter().next().unwrap();
        }
    }
    if parts.iter().all(|p| matches!(p, Expr::Const(_))) {
        let mut it = parts.iter();
        let mut acc = match it.next().unwrap() {
            Expr::Const(v) => *v,
            _ => unreachable!(),
        };
        for p in it {
            if let Expr::Const(v) = p {
                acc = acc.concat(*v);
            }
        }
        return Expr::Const(acc);
    }
    Expr::Concat(parts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_one(src: &str) -> Module {
        let d = parse_design(src).expect("parse failed");
        let m = d.iter().next().unwrap().clone();
        m
    }

    #[test]
    fn parses_counter() {
        let m = parse_one(
            r#"
            module counter (input wire clk, input wire rst, output reg [7:0] q);
                always @(posedge clk) begin
                    if (rst) q <= 8'd0;
                    else q <= q + 8'd1;
                end
            endmodule
            "#,
        );
        assert_eq!(m.name, "counter");
        assert_eq!(m.ports().count(), 3);
        assert_eq!(m.processes.len(), 1);
        assert_eq!(m.state_bits(), 8);
        hardsnap_rtl::check_module(&m).unwrap();
    }

    #[test]
    fn parses_parameters_and_folds() {
        let m = parse_one(
            r#"
            module p #(parameter WIDTH = 8, parameter DEPTH = 4) (input wire clk);
                localparam TOP = WIDTH * DEPTH - 1;
                wire [WIDTH-1:0] a;
                reg [31:0] mem [0:DEPTH-1];
                assign a = TOP;
            endmodule
            "#,
        );
        let a = m.find_net("a").unwrap();
        assert_eq!(m.net(a).width, 8);
        let mem = m.find_mem("mem").unwrap();
        assert_eq!(m.memory(mem).depth, 4);
        // TOP folded: 8*4-1 = 31.
        assert!(matches!(&m.assigns[0].rhs, Expr::Const(v) if v.bits() == 31));
    }

    #[test]
    fn parses_case_with_multi_labels_and_default() {
        let m = parse_one(
            r#"
            module c (input wire clk, input wire [1:0] s, output reg [3:0] y);
                always @(*) begin
                    case (s)
                        2'd0, 2'd1: y = 4'h1;
                        2'd2: y = 4'h2;
                        default: y = 4'hf;
                    endcase
                end
            endmodule
            "#,
        );
        match &m.processes[0].body[0] {
            Stmt::Case { arms, default, .. } => {
                assert_eq!(arms.len(), 2);
                assert_eq!(arms[0].labels.len(), 2);
                assert_eq!(default.len(), 1);
            }
            other => panic!("expected case, got {other:?}"),
        }
    }

    #[test]
    fn precedence_matches_verilog() {
        // a | b & c parses as a | (b & c).
        let m = parse_one(
            r#"
            module e (input wire [3:0] a, input wire [3:0] b, input wire [3:0] c,
                      output wire [3:0] y);
                assign y = a | b & c;
            endmodule
            "#,
        );
        match &m.assigns[0].rhs {
            Expr::Binary {
                op: BinaryOp::Or,
                rhs,
                ..
            } => {
                assert!(matches!(
                    rhs.as_ref(),
                    Expr::Binary {
                        op: BinaryOp::And,
                        ..
                    }
                ));
            }
            other => panic!("wrong tree: {other:?}"),
        }
    }

    #[test]
    fn ternary_and_comparisons() {
        let m = parse_one(
            r#"
            module t (input wire [7:0] a, output wire [7:0] y);
                assign y = (a >= 8'd10) ? a - 8'd10 : a;
            endmodule
            "#,
        );
        assert!(matches!(&m.assigns[0].rhs, Expr::Cond { .. }));
    }

    #[test]
    fn constant_ternary_keeps_the_wider_arm_width() {
        // `?:` is as wide as its wider arm; folding the constant
        // condition to the 8-bit arm would make the sum 8 bits wide.
        let m = parse_one(
            r#"
            module t (input wire [7:0] a, input wire [15:0] b,
                      output wire [15:0] y, output wire [15:0] z);
                assign y = (1'b1 ? a : b) + 8'hff;
                assign z = 1'b0 ? 16'h1234 : 4'h3;
            endmodule
            "#,
        );
        assert_eq!(m.assigns[0].rhs.width(&m).unwrap(), 16);
        match &m.assigns[1].rhs {
            Expr::Const(v) => assert_eq!((v.bits(), v.width()), (3, 16)),
            other => panic!("wrong tree: {other:?}"),
        }
    }

    #[test]
    fn replication_and_concat() {
        let m = parse_one(
            r#"
            module r (input wire [3:0] a, output wire [15:0] y);
                assign y = {4'hf, {2{a}}, 4'h0};
            endmodule
            "#,
        );
        let w = m.assigns[0].rhs.width(&m).unwrap();
        assert_eq!(w, 16);
    }

    #[test]
    fn constant_replication_folds() {
        let m = parse_one(
            r#"
            module r (output wire [7:0] y);
                assign y = {8{1'b1}};
            endmodule
            "#,
        );
        assert!(matches!(&m.assigns[0].rhs, Expr::Const(v) if v.bits() == 0xff && v.width() == 8));
    }

    #[test]
    fn memory_read_write() {
        let m = parse_one(
            r#"
            module m (input wire clk, input wire [3:0] addr, input wire [7:0] din,
                      input wire we, output wire [7:0] dout);
                reg [7:0] ram [0:15];
                assign dout = ram[addr];
                always @(posedge clk) if (we) ram[addr] <= din;
            endmodule
            "#,
        );
        assert!(matches!(&m.assigns[0].rhs, Expr::MemRead { .. }));
        assert_eq!(m.state_bits(), 128);
        hardsnap_rtl::check_module(&m).unwrap();
    }

    #[test]
    fn instance_with_named_ports() {
        let d = parse_design(
            r#"
            module leaf (input wire clk, input wire d, output reg q);
                always @(posedge clk) q <= d;
            endmodule
            module top (input wire clk, input wire d, output wire q);
                leaf u0 (.clk(clk), .d(d), .q(q));
            endmodule
            "#,
        )
        .unwrap();
        let flat = hardsnap_rtl::elaborate(&d, "top").unwrap();
        assert!(flat.find_net("u0.q").is_some());
    }

    #[test]
    fn undeclared_identifier_is_error_with_position() {
        let err = parse_design("module m (input wire clk);\n  assign nope = clk;\nendmodule")
            .unwrap_err();
        assert!(err.to_string().contains("undeclared"));
        assert!(err.to_string().contains("2:"), "position missing: {err}");
    }

    #[test]
    fn async_reset_is_rejected_with_guidance() {
        let err = parse_design(
            r#"
            module m (input wire clk, input wire rst, output reg q);
                always @(posedge clk or posedge rst) q <= 1'b0;
            endmodule
            "#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("synchronous reset"));
    }

    #[test]
    fn division_only_in_const_exprs() {
        assert!(parse_design(
            "module m (input wire [7:0] a, output wire [7:0] y); assign y = a / 8'd2; endmodule",
        )
        .is_err());
        let m = parse_one("module m (output wire [7:0] y); assign y = 8'd6 / 8'd2; endmodule");
        assert!(matches!(&m.assigns[0].rhs, Expr::Const(v) if v.bits() == 3));
    }

    #[test]
    fn dynamic_bit_select() {
        let m = parse_one(
            r#"
            module b (input wire [7:0] a, input wire [2:0] i, output wire y);
                assign y = a[i];
            endmodule
            "#,
        );
        assert!(matches!(&m.assigns[0].rhs, Expr::Index { .. }));
    }

    #[test]
    fn old_style_sensitivity_list_is_comb() {
        let m = parse_one(
            r#"
            module s (input wire a, input wire b, output reg y);
                always @(a or b) y = a & b;
            endmodule
            "#,
        );
        assert!(matches!(m.processes[0].kind, ProcessKind::Comb));
    }

    #[test]
    fn keyword_as_identifier_is_error() {
        assert!(parse_design("module module (input wire clk); endmodule").is_err());
    }

    #[test]
    fn two_modules_in_one_source() {
        let d = parse_design(
            "module a (input wire clk); endmodule module b (input wire clk); endmodule",
        )
        .unwrap();
        assert_eq!(d.len(), 2);
    }
}
