//! A tree-walking interpreter: the ablation baseline for the bytecode VM.
//!
//! The paper's Translator *compiles* delegated programs on receipt; the
//! obvious cheaper-to-build alternative is to interpret the AST directly.
//! This module implements that alternative with identical semantics (same
//! values, same host interface, same fuel accounting granularity) so the
//! `dpi_compiled_vs_interpreted` bench can quantify the design choice.
//!
//! It is intentionally *not* used by the elastic process runtime.

use crate::ast::{BinOp, Expr, ExprKind, FnDef, ProgramAst, Stmt, StmtKind, UnOp};
use crate::host::HostRegistry;
use crate::value::ops;
use crate::{Budget, DplError, RuntimeError, Value};
use std::collections::HashMap;

/// A delegated program held as a checked AST plus its persistent globals.
#[derive(Debug, Clone)]
pub struct AstInstance {
    ast: ProgramAst,
    globals: HashMap<String, Value>,
    initialized: bool,
}

impl AstInstance {
    /// Parses and checks `source` against `registry`, like
    /// [`compile_program`](crate::compile_program) but without compiling.
    ///
    /// # Errors
    ///
    /// The same translation errors as the compiling path.
    pub fn new<C>(source: &str, registry: &HostRegistry<C>) -> Result<AstInstance, DplError> {
        let ast = crate::parser::parse(source)?;
        crate::check::check(&ast, &registry.signatures())?;
        Ok(AstInstance { ast, globals: HashMap::new(), initialized: false })
    }

    /// Invokes `entry` with `args`, interpreting the AST directly.
    ///
    /// # Errors
    ///
    /// The same runtime errors as the VM.
    pub fn invoke<C>(
        &mut self,
        entry: &str,
        args: &[Value],
        ctx: &mut C,
        registry: &HostRegistry<C>,
        budget: Budget,
    ) -> Result<Value, RuntimeError> {
        // `ast` and `globals` are disjoint fields, so the interpreter can
        // borrow the AST in place — no per-invocation deep clone.
        let mut interp = Interp {
            ast: &self.ast,
            registry,
            globals: &mut self.globals,
            fuel_left: budget.fuel,
            depth_left: budget.call_depth,
        };
        if !self.initialized {
            for g in &self.ast.globals {
                let mut locals = HashMap::new();
                let v = interp.expr(&g.init, &mut locals, ctx)?;
                interp.globals.insert(g.name.clone(), v);
            }
            self.initialized = true;
        }
        let f = self
            .ast
            .functions
            .iter()
            .find(|f| f.name == entry)
            .ok_or_else(|| RuntimeError::NoSuchFunction { name: entry.to_string() })?;
        if f.params.len() != args.len() {
            return Err(RuntimeError::BadInvocation {
                expected: f.params.len(),
                found: args.len(),
            });
        }
        interp.call(f, args.to_vec(), ctx)
    }

    /// Reads a persistent global.
    pub fn global(&self, name: &str) -> Option<&Value> {
        self.globals.get(name)
    }
}

enum Flow {
    Normal,
    Break,
    Continue,
    Return(Value),
}

struct Interp<'a, C> {
    ast: &'a ProgramAst,
    registry: &'a HostRegistry<C>,
    globals: &'a mut HashMap<String, Value>,
    fuel_left: u64,
    depth_left: u32,
}

impl<'a, C> Interp<'a, C> {
    fn burn(&mut self) -> Result<(), RuntimeError> {
        match self.fuel_left.checked_sub(1) {
            Some(left) => {
                self.fuel_left = left;
                Ok(())
            }
            None => Err(RuntimeError::OutOfFuel),
        }
    }

    fn call(&mut self, f: &'a FnDef, args: Vec<Value>, ctx: &mut C) -> Result<Value, RuntimeError> {
        self.depth_left = self.depth_left.checked_sub(1).ok_or(RuntimeError::StackOverflow)?;
        let mut locals: HashMap<String, Value> = f.params.iter().cloned().zip(args).collect();
        let flow = self.block(&f.body, &mut locals, ctx)?;
        self.depth_left += 1;
        Ok(match flow {
            Flow::Return(v) => v,
            _ => Value::Nil,
        })
    }

    fn block(
        &mut self,
        stmts: &'a [Stmt],
        locals: &mut HashMap<String, Value>,
        ctx: &mut C,
    ) -> Result<Flow, RuntimeError> {
        for s in stmts {
            match self.stmt(s, locals, ctx)? {
                Flow::Normal => {}
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    fn stmt(
        &mut self,
        s: &'a Stmt,
        locals: &mut HashMap<String, Value>,
        ctx: &mut C,
    ) -> Result<Flow, RuntimeError> {
        self.burn()?;
        match &s.kind {
            StmtKind::VarDecl { name, init } => {
                let v = self.expr(init, locals, ctx)?;
                locals.insert(name.clone(), v);
                Ok(Flow::Normal)
            }
            StmtKind::Assign { name, value } => {
                let v = self.expr(value, locals, ctx)?;
                if let Some(slot) = locals.get_mut(name) {
                    *slot = v;
                } else {
                    self.globals.insert(name.clone(), v);
                }
                Ok(Flow::Normal)
            }
            StmtKind::IndexAssign { base, index, value } => {
                // Collect the index path down to the root variable.
                let mut indices = Vec::new();
                let mut cur = base;
                loop {
                    match &cur.kind {
                        ExprKind::Index { base: b, index: i } => {
                            indices.push(i.as_ref());
                            cur = b;
                        }
                        ExprKind::Var(_) => break,
                        other => panic!("unchecked place {other:?}"),
                    }
                }
                indices.reverse();
                indices.push(index);
                let mut idx_values = Vec::with_capacity(indices.len());
                for i in indices {
                    idx_values.push(self.expr(i, locals, ctx)?);
                }
                let v = self.expr(value, locals, ctx)?;
                let root_name = match &cur.kind {
                    ExprKind::Var(n) => n,
                    _ => unreachable!(),
                };
                let root = match locals.get_mut(root_name) {
                    Some(r) => r,
                    None => self.globals.get_mut(root_name).expect("checked name"),
                };
                let (last, path) = idx_values.split_last().expect("depth >= 1");
                let mut cursor = root;
                for i in path {
                    cursor = index_get_mut(cursor, i)?;
                }
                ops::index_set(cursor, last.clone(), v)?;
                Ok(Flow::Normal)
            }
            StmtKind::If { cond, then_block, else_block } => {
                if self.expr(cond, locals, ctx)?.as_condition()? {
                    self.block(then_block, locals, ctx)
                } else {
                    self.block(else_block, locals, ctx)
                }
            }
            StmtKind::While { cond, body } => {
                loop {
                    self.burn()?;
                    if !self.expr(cond, locals, ctx)?.as_condition()? {
                        break;
                    }
                    match self.block(body, locals, ctx)? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        Flow::Normal | Flow::Continue => {}
                    }
                }
                Ok(Flow::Normal)
            }
            StmtKind::ForIn { name, iterable, body } => {
                let iter = self.expr(iterable, locals, ctx)?;
                let items: Vec<Value> = match iter {
                    Value::List(v) => v.as_ref().clone(),
                    Value::Map(m) => m.keys().cloned().map(Value::Str).collect(),
                    Value::Str(s) => s.chars().map(|c| Value::Str(c.to_string())).collect(),
                    other => {
                        return Err(RuntimeError::TypeError {
                            message: format!("cannot iterate over {}", other.type_name()),
                        })
                    }
                };
                for item in items {
                    self.burn()?;
                    locals.insert(name.clone(), item);
                    match self.block(body, locals, ctx)? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        Flow::Normal | Flow::Continue => {}
                    }
                }
                locals.remove(name);
                Ok(Flow::Normal)
            }
            StmtKind::Return { value } => {
                let v = match value {
                    Some(e) => self.expr(e, locals, ctx)?,
                    None => Value::Nil,
                };
                Ok(Flow::Return(v))
            }
            StmtKind::Break => Ok(Flow::Break),
            StmtKind::Continue => Ok(Flow::Continue),
            StmtKind::Expr(e) => {
                self.expr(e, locals, ctx)?;
                Ok(Flow::Normal)
            }
        }
    }

    fn expr(
        &mut self,
        e: &'a Expr,
        locals: &mut HashMap<String, Value>,
        ctx: &mut C,
    ) -> Result<Value, RuntimeError> {
        self.burn()?;
        match &e.kind {
            ExprKind::Int(v) => Ok(Value::Int(*v)),
            ExprKind::Float(v) => Ok(Value::Float(*v)),
            ExprKind::Str(s) => Ok(Value::Str(s.clone())),
            ExprKind::Bool(b) => Ok(Value::Bool(*b)),
            ExprKind::Nil => Ok(Value::Nil),
            ExprKind::Var(name) => Ok(locals
                .get(name)
                .or_else(|| self.globals.get(name))
                .cloned()
                .unwrap_or(Value::Nil)),
            ExprKind::List(items) => {
                let mut out = Vec::with_capacity(items.len());
                for i in items {
                    out.push(self.expr(i, locals, ctx)?);
                }
                Ok(Value::list(out))
            }
            ExprKind::Map(pairs) => {
                let mut map = std::collections::BTreeMap::new();
                for (k, v) in pairs {
                    let key = match self.expr(k, locals, ctx)? {
                        Value::Str(s) => s,
                        other => {
                            return Err(RuntimeError::TypeError {
                                message: format!("map keys must be str, got {}", other.type_name()),
                            })
                        }
                    };
                    let value = self.expr(v, locals, ctx)?;
                    map.insert(key, value);
                }
                Ok(Value::map(map))
            }
            ExprKind::Index { base, index } => {
                let b = self.expr(base, locals, ctx)?;
                let i = self.expr(index, locals, ctx)?;
                ops::index(&b, &i)
            }
            ExprKind::Unary { op, operand } => {
                let v = self.expr(operand, locals, ctx)?;
                match op {
                    UnOp::Neg => ops::neg(v),
                    UnOp::Not => ops::not(v),
                }
            }
            ExprKind::Binary { op: BinOp::And, lhs, rhs } => {
                if self.expr(lhs, locals, ctx)?.as_condition()? {
                    self.expr(rhs, locals, ctx)
                } else {
                    Ok(Value::Bool(false))
                }
            }
            ExprKind::Binary { op: BinOp::Or, lhs, rhs } => {
                if self.expr(lhs, locals, ctx)?.as_condition()? {
                    Ok(Value::Bool(true))
                } else {
                    self.expr(rhs, locals, ctx)
                }
            }
            ExprKind::Binary { op, lhs, rhs } => {
                let l = self.expr(lhs, locals, ctx)?;
                let r = self.expr(rhs, locals, ctx)?;
                match op {
                    BinOp::Add => ops::add(l, r),
                    BinOp::Sub => ops::sub(l, r),
                    BinOp::Mul => ops::mul(l, r),
                    BinOp::Div => ops::div(l, r),
                    BinOp::Mod => ops::rem(l, r),
                    BinOp::Eq => Ok(Value::Bool(ops::eq(&l, &r))),
                    BinOp::Ne => Ok(Value::Bool(!ops::eq(&l, &r))),
                    BinOp::Lt => Ok(Value::Bool(ops::cmp(&l, &r)? == std::cmp::Ordering::Less)),
                    BinOp::Le => Ok(Value::Bool(ops::cmp(&l, &r)? != std::cmp::Ordering::Greater)),
                    BinOp::Gt => Ok(Value::Bool(ops::cmp(&l, &r)? == std::cmp::Ordering::Greater)),
                    BinOp::Ge => Ok(Value::Bool(ops::cmp(&l, &r)? != std::cmp::Ordering::Less)),
                    BinOp::And | BinOp::Or => unreachable!("handled above"),
                }
            }
            ExprKind::Call { name, args } => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.expr(a, locals, ctx)?);
                }
                if let Some(f) = self.ast.functions.iter().find(|f| &f.name == name) {
                    self.call(f, vals, ctx)
                } else {
                    let idx = self.registry.index_of(name).ok_or_else(|| RuntimeError::Host {
                        name: name.clone(),
                        message: "not registered on this server".to_string(),
                    })?;
                    self.registry.call(idx, ctx, &mut vals)
                }
            }
        }
    }
}

fn index_get_mut<'v>(base: &'v mut Value, index: &Value) -> Result<&'v mut Value, RuntimeError> {
    match (base, index) {
        (Value::List(items), Value::Int(i)) => {
            let len = items.len();
            let idx = usize::try_from(*i).map_err(|_| RuntimeError::BadIndex {
                message: format!("negative list index {i}"),
            })?;
            std::sync::Arc::make_mut(items).get_mut(idx).ok_or(RuntimeError::BadIndex {
                message: format!("list index {i} out of bounds (len {len})"),
            })
        }
        (Value::Map(map), Value::Str(k)) => {
            std::sync::Arc::make_mut(map).get_mut(k).ok_or_else(|| RuntimeError::BadIndex {
                message: format!("no key {k:?} on assignment path"),
            })
        }
        (b, i) => Err(RuntimeError::TypeError {
            message: format!("cannot index {} with {}", b.type_name(), i.type_name()),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Instance;

    /// Invokes `calls` in order, each with `args`, on one VM instance and
    /// one tree-walking instance of `src`. Every pair of outcomes must
    /// agree: values exactly, errors by class. Returns the VM's outcomes.
    fn agree(src: &str, calls: &[&str], args: &[Value]) -> Vec<Result<Value, RuntimeError>> {
        let reg: HostRegistry<()> = HostRegistry::with_stdlib();
        let program = crate::compile_program(src, &reg).expect("compiles");
        let mut vm = Instance::new(std::sync::Arc::new(program));
        let mut tree = AstInstance::new(src, &reg).expect("parses");
        let mut outcomes = Vec::new();
        for entry in calls {
            let v = vm.invoke(entry, args, &mut (), &reg, Budget::default());
            let t = tree.invoke(entry, args, &mut (), &reg, Budget::default());
            match (&v, &t) {
                (Ok(a), Ok(b)) => assert_eq!(a, b, "{entry} on {src}"),
                (Err(a), Err(b)) => assert_eq!(
                    std::mem::discriminant(a),
                    std::mem::discriminant(b),
                    "{entry} on {src}: {a:?} vs {b:?}"
                ),
                _ => panic!("{entry} on {src}: vm {v:?}, interpreter {t:?}"),
            }
            outcomes.push(v);
        }
        outcomes
    }

    #[test]
    fn interpreter_agrees_with_vm_on_programs() {
        let cases: Vec<(&str, &[&str], Vec<Value>)> = vec![
            ("fn main() { return 2 + 3 * 4; }", &["main"], vec![]),
            (
                "fn fact(n) { if (n <= 1) { return 1; } return n * fact(n - 1); } \
                 fn main() { return fact(10); }",
                &["main"],
                vec![],
            ),
            (
                "fn main() { var t = 0; for (x in [1,2,3,4,5]) { if (x == 3) { continue; } \
                 if (x == 5) { break; } t = t + x; } return t; }",
                &["main"],
                vec![],
            ),
            (
                "fn main() { var m = {\"a\": [1,2]}; m[\"a\"][1] = 9; return m[\"a\"][1]; }",
                &["main"],
                vec![],
            ),
            (
                "fn main(s) { return join(sort(split(s, \",\")), \"-\"); }",
                &["main"],
                vec![Value::from("c,a,b")],
            ),
            ("var g = 10; fn main() { g = g + 5; return g; }", &["main"], vec![]),
            ("fn main() { return false && (1 / 0 == 1) || true; }", &["main"], vec![]),
            // Move on last use: the VM moves `x` out of its slot for
            // `x = f(x, …)` and `x = x + …`, the interpreter copies.
            // Aliasing: `b` keeps the list `a` had.
            (
                "fn main() { var a = [0]; var b = a; a = push(a, 1); return [a, b]; }",
                &["main"],
                vec![],
            ),
            (
                "fn main() { var a = [0]; var b = a; a = a + [1]; return [a, b]; }",
                &["main"],
                vec![],
            ),
            // The variable also appears on the right: copied, not taken.
            ("fn main() { var a = [7]; a = push(a, len(a)); return a; }", &["main"], vec![]),
            ("fn main() { var s = \"ab\"; s = s + s; return s; }", &["main"], vec![]),
            // A program-function callee.
            (
                "fn f(x) { return push(x, 2); } \
                 fn main() { var a = [1]; var b = a; a = f(a); a = f(a); return [a, b]; }",
                &["main"],
                vec![],
            ),
            // A global accumulator, across invocations.
            (
                "var acc = []; fn main() { acc = push(acc, len(acc)); acc = acc + [9]; \
                 return acc; }",
                &["main", "main"],
                vec![],
            ),
            // A loop variable, rebound each iteration.
            (
                "fn main() { var out = []; for (x in [[1], [2]]) { x = push(x, 0); \
                 out = push(out, x); } return out; }",
                &["main"],
                vec![],
            ),
        ];
        for (src, calls, args) in &cases {
            for outcome in agree(src, calls, args) {
                assert!(outcome.is_ok(), "{src}: {outcome:?}");
            }
        }

        // Faults under move on last use: the same error class either way.
        for src in [
            "fn main() { var a = 3; a = push(a, 1); return a; }",
            "fn main() { var a = [1]; a = push(a, [1][5]); return a; }",
            "fn main() { var s = \"x\"; s = s + 1; return s; }",
        ] {
            assert!(agree(src, &["main"], &[])[0].is_err(), "{src}");
        }
        // A global is intact after a fault between its load and its store.
        let src = "var acc = [1]; fn bad() { acc = push(acc, 1 / 0); return acc; } \
                   fn main() { return acc; }";
        let outcomes = agree(src, &["bad", "main"], &[]);
        assert_eq!(outcomes[0], Err(RuntimeError::DivisionByZero));
        assert_eq!(outcomes[1], Ok(Value::from(vec![1i64])));
    }

    #[test]
    fn interpreter_enforces_fuel() {
        let reg: HostRegistry<()> = HostRegistry::with_stdlib();
        let mut inst = AstInstance::new("fn main() { while (true) { } return 0; }", &reg).unwrap();
        let budget = Budget { fuel: 10_000, ..Budget::default() };
        let err = inst.invoke("main", &[], &mut (), &reg, budget).unwrap_err();
        assert_eq!(err, RuntimeError::OutOfFuel);
    }

    #[test]
    fn interpreter_enforces_call_depth() {
        let reg: HostRegistry<()> = HostRegistry::with_stdlib();
        let mut inst =
            AstInstance::new("fn f(n) { return f(n + 1); } fn main() { return f(0); }", &reg)
                .unwrap();
        let err = inst.invoke("main", &[], &mut (), &reg, Budget::default()).unwrap_err();
        assert_eq!(err, RuntimeError::StackOverflow);
    }

    #[test]
    fn interpreter_state_persists() {
        let reg: HostRegistry<()> = HostRegistry::with_stdlib();
        let mut inst =
            AstInstance::new("var n = 0; fn bump() { n = n + 1; return n; }", &reg).unwrap();
        inst.invoke("bump", &[], &mut (), &reg, Budget::default()).unwrap();
        let v = inst.invoke("bump", &[], &mut (), &reg, Budget::default()).unwrap();
        assert_eq!(v, Value::Int(2));
        assert_eq!(inst.global("n"), Some(&Value::Int(2)));
    }

    #[test]
    fn interpreter_rejects_bad_programs_like_the_translator() {
        let reg: HostRegistry<()> = HostRegistry::with_stdlib();
        assert!(AstInstance::new("fn main() { return evil(); }", &reg).is_err());
        assert!(AstInstance::new("fn main() { return x; }", &reg).is_err());
    }

    #[test]
    fn vm_is_faster_than_tree_walking_on_hot_loops() {
        // Not a benchmark, just a sanity check of the ablation's premise:
        // on a compute-heavy loop the VM should never lose.
        let src = "fn main(n) { var t = 0; var i = 0; while (i < n) { t = t + i; i = i + 1; } \
                   return t; }";
        let reg: HostRegistry<()> = HostRegistry::with_stdlib();
        let program = crate::compile_program(src, &reg).unwrap();
        let mut vm = Instance::new(std::sync::Arc::new(program));
        let mut tree = AstInstance::new(src, &reg).unwrap();
        let big = Budget { fuel: u64::MAX / 2, memory: u64::MAX / 2, call_depth: 64 };

        let n = Value::Int(50_000);
        let t0 = std::time::Instant::now();
        let vm_v = vm.invoke("main", std::slice::from_ref(&n), &mut (), &reg, big).unwrap();
        let vm_t = t0.elapsed();
        let t0 = std::time::Instant::now();
        let tree_v = tree.invoke("main", std::slice::from_ref(&n), &mut (), &reg, big).unwrap();
        let tree_t = t0.elapsed();
        assert_eq!(vm_v, tree_v);
        assert!(
            vm_t <= tree_t * 2,
            "vm {vm_t:?} should not be dramatically slower than tree {tree_t:?}"
        );
    }
}
