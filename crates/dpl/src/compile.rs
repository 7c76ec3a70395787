//! AST → bytecode compiler.
//!
//! Assumes the program already passed [`check`](crate::check): name
//! resolution failures here are internal errors, not user errors. The
//! design choice of compiling to bytecode (rather than walking the tree)
//! mirrors the paper's Translator, which compiles delegated programs on
//! receipt; the `dpi_compiled_vs_interpreted` ablation bench quantifies
//! the payoff.

use crate::ast::*;
use crate::bytecode::{Function, Op, Program};
use crate::host::HostRegistry;
use crate::value::ops;
use crate::Value;
use std::collections::HashMap;

/// Compiles a checked AST against the host registry.
///
/// # Panics
///
/// Panics if the AST references unknown names (i.e. was not checked).
pub fn compile<C>(ast: &ProgramAst, registry: &HostRegistry<C>) -> Program {
    let mut fn_by_name = HashMap::new();
    for (i, f) in ast.functions.iter().enumerate() {
        fn_by_name.insert(f.name.clone(), i);
    }
    let global_slots: HashMap<&str, u16> =
        ast.globals.iter().enumerate().map(|(i, g)| (g.name.as_str(), i as u16)).collect();

    let registry_has = |name: &str| registry.signature(name).is_some();
    let mut shared = Shared {
        consts: Vec::new(),
        host_names: Vec::new(),
        host_slots: HashMap::new(),
        fn_by_name: &fn_by_name,
        global_slots: &global_slots,
        registry_has: &registry_has,
    };

    let mut functions = Vec::with_capacity(ast.functions.len() + 1);
    for f in &ast.functions {
        functions.push(compile_fn(&mut shared, f));
    }

    // Synthetic #init: evaluate global initializers in order.
    let mut init = FnCompiler::new(&mut shared, &[]);
    for (i, g) in ast.globals.iter().enumerate() {
        init.expr(&g.init);
        init.emit(Op::StoreGlobal(i as u16));
    }
    init.emit(Op::Nil);
    init.emit(Op::Return);
    let init_fn = functions.len();
    let (init_code, init_slots) = (init.code, init.max_slots);
    functions.push(Function::new("#init".to_string(), 0, init_slots, init_code));

    let Shared { consts, host_names, .. } = shared;
    Program {
        consts,
        functions,
        fn_by_name,
        global_names: ast.globals.iter().map(|g| g.name.clone()).collect(),
        host_names,
        init_fn,
    }
}

struct Shared<'a> {
    consts: Vec<Value>,
    host_names: Vec<String>,
    host_slots: HashMap<String, u16>,
    fn_by_name: &'a HashMap<String, usize>,
    global_slots: &'a HashMap<&'a str, u16>,
    registry_has: &'a dyn Fn(&str) -> bool,
}

impl Shared<'_> {
    fn const_slot(&mut self, v: Value) -> u16 {
        if let Some(i) =
            self.consts.iter().position(|c| ops::eq(c, &v) && c.type_name() == v.type_name())
        {
            return i as u16;
        }
        self.consts.push(v);
        (self.consts.len() - 1) as u16
    }

    fn host_slot(&mut self, name: &str) -> u16 {
        if let Some(&i) = self.host_slots.get(name) {
            return i;
        }
        assert!((self.registry_has)(name), "unchecked host function `{name}`");
        let i = self.host_names.len() as u16;
        self.host_names.push(name.to_string());
        self.host_slots.insert(name.to_string(), i);
        i
    }
}

fn compile_fn(shared: &mut Shared<'_>, f: &FnDef) -> Function {
    let mut c = FnCompiler::new(shared, &f.params);
    c.block(&f.body);
    // Implicit `return nil;`.
    c.emit(Op::Nil);
    c.emit(Op::Return);
    Function::new(f.name.clone(), f.params.len(), c.max_slots, c.code)
}

struct LoopCtx {
    /// Jump sites to patch to the loop's continue target.
    continue_sites: Vec<usize>,
    /// Jump sites to patch to just past the loop.
    break_sites: Vec<usize>,
}

struct FnCompiler<'a, 'b> {
    shared: &'a mut Shared<'b>,
    code: Vec<Op>,
    scopes: Vec<HashMap<String, u16>>,
    next_slot: u16,
    max_slots: usize,
    loops: Vec<LoopCtx>,
}

impl<'a, 'b> FnCompiler<'a, 'b> {
    fn new(shared: &'a mut Shared<'b>, params: &[String]) -> FnCompiler<'a, 'b> {
        let mut scope = HashMap::new();
        for (i, p) in params.iter().enumerate() {
            scope.insert(p.clone(), i as u16);
        }
        let next_slot = params.len() as u16;
        FnCompiler {
            shared,
            code: Vec::new(),
            scopes: vec![scope],
            next_slot,
            max_slots: params.len(),
            loops: Vec::new(),
        }
    }

    fn emit(&mut self, op: Op) -> usize {
        self.code.push(op);
        self.code.len() - 1
    }

    fn here(&self) -> u32 {
        self.code.len() as u32
    }

    fn patch(&mut self, site: usize, target: u32) {
        match &mut self.code[site] {
            Op::Jump(t) | Op::JumpIfFalse(t) | Op::AndJump(t) | Op::OrJump(t) => *t = target,
            other => panic!("patching non-jump {other:?}"),
        }
    }

    fn alloc_slot(&mut self) -> u16 {
        let slot = self.next_slot;
        self.next_slot += 1;
        self.max_slots = self.max_slots.max(self.next_slot as usize);
        slot
    }

    fn declare(&mut self, name: &str) -> u16 {
        let slot = self.alloc_slot();
        self.scopes.last_mut().expect("scope").insert(name.to_string(), slot);
        slot
    }

    fn lookup_local(&self, name: &str) -> Option<u16> {
        self.scopes.iter().rev().find_map(|s| s.get(name)).copied()
    }

    fn push_scope(&mut self) {
        self.scopes.push(HashMap::new());
    }

    fn pop_scope(&mut self) {
        let scope = self.scopes.pop().expect("scope");
        // Slots are reusable once their scope ends.
        self.next_slot -= scope.len() as u16;
    }

    fn block(&mut self, stmts: &[Stmt]) {
        self.push_scope();
        for s in stmts {
            self.stmt(s);
        }
        self.pop_scope();
    }

    fn stmt(&mut self, s: &Stmt) {
        match &s.kind {
            StmtKind::VarDecl { name, init } => {
                self.expr(init);
                let slot = self.declare(name);
                self.emit(Op::StoreLocal(slot));
            }
            StmtKind::Assign { name, value } => match self.lookup_local(name) {
                Some(slot) => {
                    if takes(name, value) {
                        self.expr_taking(value, slot);
                    } else {
                        self.expr(value);
                    }
                    self.emit(Op::StoreLocal(slot));
                }
                None => {
                    // Globals are never taken: a faulted invocation must
                    // leave them as it found them.
                    self.expr(value);
                    let slot = self.shared.global_slots[name.as_str()];
                    self.emit(Op::StoreGlobal(slot));
                }
            },
            StmtKind::IndexAssign { base, index, value } => {
                // Flatten the place chain: root variable + index path.
                let mut indices = Vec::new();
                let mut cur = base;
                loop {
                    match &cur.kind {
                        ExprKind::Index { base: b, index: i } => {
                            indices.push(i.as_ref());
                            cur = b;
                        }
                        ExprKind::Var(_) => break,
                        other => panic!("unchecked index-assign base {other:?}"),
                    }
                }
                indices.reverse();
                indices.push(index);
                let root = match &cur.kind {
                    ExprKind::Var(name) => name,
                    _ => unreachable!(),
                };
                for idx in &indices {
                    self.expr(idx);
                }
                self.expr(value);
                let depth = u8::try_from(indices.len()).expect("index chain too deep");
                match self.lookup_local(root) {
                    Some(slot) => self.emit(Op::IndexSetLocal { slot, depth }),
                    None => {
                        let slot = self.shared.global_slots[root.as_str()];
                        self.emit(Op::IndexSetGlobal { slot, depth })
                    }
                };
            }
            StmtKind::If { cond, then_block, else_block } => {
                self.expr(cond);
                let jf = self.emit(Op::JumpIfFalse(0));
                self.block(then_block);
                if else_block.is_empty() {
                    let end = self.here();
                    self.patch(jf, end);
                } else {
                    let jend = self.emit(Op::Jump(0));
                    let else_start = self.here();
                    self.patch(jf, else_start);
                    self.block(else_block);
                    let end = self.here();
                    self.patch(jend, end);
                }
            }
            StmtKind::While { cond, body } => {
                let start = self.here();
                self.expr(cond);
                let jf = self.emit(Op::JumpIfFalse(0));
                self.loops.push(LoopCtx { continue_sites: Vec::new(), break_sites: Vec::new() });
                self.block(body);
                self.emit(Op::Jump(start));
                let end = self.here();
                self.patch(jf, end);
                let ctx = self.loops.pop().expect("loop");
                for site in ctx.continue_sites {
                    self.patch(site, start);
                }
                for site in ctx.break_sites {
                    self.patch(site, end);
                }
            }
            StmtKind::ForIn { name, iterable, body } => {
                self.expr(iterable);
                self.emit(Op::IterList);
                self.push_scope();
                let it_slot = self.alloc_slot();
                let idx_slot = self.alloc_slot();
                self.emit(Op::StoreLocal(it_slot));
                let zero = self.shared.const_slot(Value::Int(0));
                self.emit(Op::Const(zero));
                self.emit(Op::StoreLocal(idx_slot));
                let start = self.here();
                self.emit(Op::LoadLocal(idx_slot));
                self.emit(Op::LoadLocal(it_slot));
                self.emit(Op::Len);
                self.emit(Op::Lt);
                let jf = self.emit(Op::JumpIfFalse(0));
                let var_slot = self.declare(name);
                self.emit(Op::LoadLocal(it_slot));
                self.emit(Op::LoadLocal(idx_slot));
                self.emit(Op::Index);
                self.emit(Op::StoreLocal(var_slot));
                self.loops.push(LoopCtx { continue_sites: Vec::new(), break_sites: Vec::new() });
                for st in body {
                    self.stmt(st);
                }
                let ctx = self.loops.pop().expect("loop");
                let incr = self.here();
                self.emit(Op::LoadLocal(idx_slot));
                let one = self.shared.const_slot(Value::Int(1));
                self.emit(Op::Const(one));
                self.emit(Op::Add);
                self.emit(Op::StoreLocal(idx_slot));
                self.emit(Op::Jump(start));
                let end = self.here();
                self.patch(jf, end);
                for site in ctx.continue_sites {
                    self.patch(site, incr);
                }
                for site in ctx.break_sites {
                    self.patch(site, end);
                }
                // Loop variable scope also frees the two hidden slots.
                self.pop_scope();
                self.next_slot -= 2;
            }
            StmtKind::Return { value } => {
                match value {
                    Some(e) => self.expr(e),
                    None => {
                        self.emit(Op::Nil);
                    }
                }
                self.emit(Op::Return);
            }
            StmtKind::Break => {
                let site = self.emit(Op::Jump(0));
                self.loops.last_mut().expect("checked loop depth").break_sites.push(site);
            }
            StmtKind::Continue => {
                let site = self.emit(Op::Jump(0));
                self.loops.last_mut().expect("checked loop depth").continue_sites.push(site);
            }
            StmtKind::Expr(e) => {
                self.expr(e);
                self.emit(Op::Pop);
            }
        }
    }

    fn expr(&mut self, e: &Expr) {
        match &e.kind {
            ExprKind::Int(v) => {
                let slot = self.shared.const_slot(Value::Int(*v));
                self.emit(Op::Const(slot));
            }
            ExprKind::Float(v) => {
                let slot = self.shared.const_slot(Value::Float(*v));
                self.emit(Op::Const(slot));
            }
            ExprKind::Str(s) => {
                let slot = self.shared.const_slot(Value::Str(s.clone()));
                self.emit(Op::Const(slot));
            }
            ExprKind::Bool(b) => {
                self.emit(Op::Bool(*b));
            }
            ExprKind::Nil => {
                self.emit(Op::Nil);
            }
            ExprKind::Var(name) => {
                match self.lookup_local(name) {
                    Some(slot) => self.emit(Op::LoadLocal(slot)),
                    None => {
                        let slot = self.shared.global_slots[name.as_str()];
                        self.emit(Op::LoadGlobal(slot))
                    }
                };
            }
            ExprKind::List(items) => {
                for item in items {
                    self.expr(item);
                }
                self.emit(Op::MakeList(items.len() as u16));
            }
            ExprKind::Map(pairs) => {
                for (k, v) in pairs {
                    self.expr(k);
                    self.expr(v);
                }
                self.emit(Op::MakeMap(pairs.len() as u16));
            }
            ExprKind::Index { base, index } => {
                self.expr(base);
                self.expr(index);
                self.emit(Op::Index);
            }
            ExprKind::Unary { op, operand } => {
                self.expr(operand);
                self.emit(match op {
                    UnOp::Neg => Op::Neg,
                    UnOp::Not => Op::Not,
                });
            }
            ExprKind::Binary { op: BinOp::And, lhs, rhs } => {
                self.expr(lhs);
                let site = self.emit(Op::AndJump(0));
                self.expr(rhs);
                let end = self.here();
                self.patch(site, end);
            }
            ExprKind::Binary { op: BinOp::Or, lhs, rhs } => {
                self.expr(lhs);
                let site = self.emit(Op::OrJump(0));
                self.expr(rhs);
                let end = self.here();
                self.patch(site, end);
            }
            ExprKind::Binary { op, lhs, rhs } => {
                self.expr(lhs);
                self.expr(rhs);
                self.emit(match op {
                    BinOp::Add => Op::Add,
                    BinOp::Sub => Op::Sub,
                    BinOp::Mul => Op::Mul,
                    BinOp::Div => Op::Div,
                    BinOp::Mod => Op::Mod,
                    BinOp::Eq => Op::Eq,
                    BinOp::Ne => Op::Ne,
                    BinOp::Lt => Op::Lt,
                    BinOp::Le => Op::Le,
                    BinOp::Gt => Op::Gt,
                    BinOp::Ge => Op::Ge,
                    BinOp::And | BinOp::Or => unreachable!("handled above"),
                });
            }
            ExprKind::Call { name, args } => {
                for a in args {
                    self.expr(a);
                }
                self.call(name, args.len());
            }
        }
    }

    /// Compiles `value`, for which [`takes`] holds, moving its first
    /// operand out of local `slot` instead of copying it. Nothing can
    /// observe the emptied slot: the rest of `value` does not name it,
    /// the assignment refills it, and a fault in between aborts the
    /// whole invocation (DPL has no exception handling).
    fn expr_taking(&mut self, value: &Expr, slot: u16) {
        self.emit(Op::TakeLocal(slot));
        match &value.kind {
            ExprKind::Call { name, args } => {
                for a in &args[1..] {
                    self.expr(a);
                }
                self.call(name, args.len());
            }
            ExprKind::Binary { op: BinOp::Add, rhs, .. } => {
                self.expr(rhs);
                self.emit(Op::Add);
            }
            other => unreachable!("`takes` admits no {other:?}"),
        }
    }

    /// Emits the call of `name` over the `argc` values on the stack.
    fn call(&mut self, name: &str, argc: usize) {
        let argc = u8::try_from(argc).expect("too many arguments");
        if let Some(&func) = self.shared.fn_by_name.get(name) {
            self.emit(Op::Call { func: func as u16, argc });
        } else {
            let host = self.shared.host_slot(name);
            self.emit(Op::CallHost { host, argc });
        }
    }
}

/// Whether `name = value` may move `name` out of its slot: `value` is
/// `f(name, rest…)` or `name + rhs`, and `name` occurs nowhere in
/// `rest`/`rhs`. A syntactic check, and a sound one because expressions
/// open no scopes: every `name` inside `value` is the assigned variable.
fn takes(name: &str, value: &Expr) -> bool {
    let (first, rest): (&Expr, &[Expr]) = match &value.kind {
        ExprKind::Call { args, .. } => match args.split_first() {
            Some(split) => split,
            None => return false,
        },
        ExprKind::Binary { op: BinOp::Add, lhs, rhs } => (lhs, std::slice::from_ref(&**rhs)),
        _ => return false,
    };
    matches!(&first.kind, ExprKind::Var(v) if v == name) && !rest.iter().any(|e| mentions(e, name))
}

/// Whether variable `name` occurs anywhere in `e`.
fn mentions(e: &Expr, name: &str) -> bool {
    match &e.kind {
        ExprKind::Var(v) => v == name,
        ExprKind::Int(_)
        | ExprKind::Float(_)
        | ExprKind::Str(_)
        | ExprKind::Bool(_)
        | ExprKind::Nil => false,
        ExprKind::List(items) | ExprKind::Call { args: items, .. } => {
            items.iter().any(|i| mentions(i, name))
        }
        ExprKind::Map(pairs) => pairs.iter().any(|(k, v)| mentions(k, name) || mentions(v, name)),
        ExprKind::Index { base: a, index: b } | ExprKind::Binary { lhs: a, rhs: b, .. } => {
            mentions(a, name) || mentions(b, name)
        }
        ExprKind::Unary { operand, .. } => mentions(operand, name),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn compile_src(src: &str) -> Program {
        let reg: HostRegistry<()> = HostRegistry::with_stdlib();
        let ast = parse(src).unwrap();
        crate::check::check(&ast, &reg.signatures()).unwrap();
        compile(&ast, &reg)
    }

    #[test]
    fn program_metadata() {
        let p = compile_src("var g = 1;\nfn main(a) { return a + g; }");
        assert!(p.has_function("main"));
        assert!(!p.has_function("#init")); // synthetic, not addressable
        assert_eq!(p.global_names(), &["g".to_string()]);
        let infos = p.functions();
        assert_eq!(infos[0].name, "main");
        assert_eq!(infos[0].arity, 1);
        assert!(p.code_size() > 0);
        assert!(p.to_string().contains("function"));
    }

    #[test]
    fn host_bindings_are_collected_once() {
        let p = compile_src("fn f(x) { return len(x) + len(x); }");
        assert_eq!(p.host_bindings(), &["len".to_string()]);
    }

    #[test]
    fn constants_are_deduplicated() {
        let p = compile_src("fn f() { return 5 + 5 + 5; }");
        let fives = p.consts.iter().filter(|c| **c == Value::Int(5)).count();
        assert_eq!(fives, 1);
    }

    #[test]
    fn int_and_float_constants_are_distinct() {
        let p = compile_src("fn f() { return 1 + 1.0; }");
        assert!(p.consts.contains(&Value::Int(1)));
        assert!(p.consts.contains(&Value::Float(1.0)));
    }

    #[test]
    fn scope_exit_reuses_slots() {
        let p = compile_src(
            "fn f(c) { if (c) { var a = 1; var b = 2; b = a; } \
             if (c) { var d = 3; d = d; } return 0; }",
        );
        // a/b and d share slots: max is params(1) + 2.
        assert_eq!(p.functions[0].n_locals, 3);
    }

    #[test]
    fn accumulating_into_a_local_moves_it() {
        let loads = |src: &str| -> Vec<Op> {
            let p = compile_src(src);
            p.functions[p.fn_by_name["f"]]
                .code
                .iter()
                .copied()
                .filter(|op| matches!(op, Op::LoadLocal(_) | Op::TakeLocal(_) | Op::LoadGlobal(_)))
                .collect()
        };
        // Slots: `x` is 0, `out` is 1.
        assert_eq!(
            loads("fn f(x) { var out = []; out = push(out, x); return 0; }"),
            [Op::TakeLocal(1), Op::LoadLocal(0)]
        );
        assert_eq!(
            loads("fn f(x) { var out = []; out = out + [x]; return 0; }"),
            [Op::TakeLocal(1), Op::LoadLocal(0)]
        );
        // A global is loaded, never taken.
        assert_eq!(
            loads("var out = []; fn f(x) { out = push(out, x); return 0; }"),
            [Op::LoadGlobal(0), Op::LoadLocal(0)]
        );
        // Mentioned on the right: copied.
        assert_eq!(
            loads("fn f(x) { var out = []; out = push(out, len(out)); return 0; }"),
            [Op::LoadLocal(1), Op::LoadLocal(1)]
        );
        assert_eq!(
            loads("fn f(x) { var s = \"a\"; s = s + s; return 0; }"),
            [Op::LoadLocal(1), Op::LoadLocal(1)]
        );
        // Not the first operand, or not an assignment back: copied.
        assert_eq!(
            loads("fn f(x) { var out = []; out = push(x, out); return 0; }"),
            [Op::LoadLocal(0), Op::LoadLocal(1)]
        );
        assert_eq!(
            loads("fn f(x) { var out = []; x = push(out, 1); return 0; }"),
            [Op::LoadLocal(1)]
        );
    }

    #[test]
    fn jumps_are_patched_in_range() {
        let p = compile_src(
            "fn f(n) { var t = 0; while (n > 0) { if (n % 2 == 0) { n = n - 1; continue; } \
             t = t + n; n = n - 1; if (t > 100) { break; } } \
             for (x in [1,2,3]) { t = t + x; } return t; }",
        );
        for func in &p.functions {
            for op in &func.code {
                if let Op::Jump(t) | Op::JumpIfFalse(t) | Op::AndJump(t) | Op::OrJump(t) = op {
                    assert!(
                        (*t as usize) <= func.code.len(),
                        "jump to {t} beyond {} in {}",
                        func.code.len(),
                        func.name
                    );
                    assert_ne!(*t, 0, "unpatched jump in {}", func.name);
                }
            }
        }
    }
}
