//! The host-function interface: the "predefined set of allowed functions"
//! a server exposes to delegated programs.
//!
//! An elastic process builds a [`HostRegistry`] over its own context type
//! `C` (holding its MIB store, mailboxes, clock, ...) and registers each
//! service it is willing to let agents call. The translator checks every
//! call site against the registry's [`Signature`]s — a program that binds
//! to anything else is rejected, which is exactly the paper's rule for
//! delegated-program safety.

use crate::{RuntimeError, Value};
use std::collections::BTreeMap;
use std::collections::HashMap;
use std::fmt;

/// The statically checkable part of a host function: its name and arity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Signature {
    /// Callable name.
    pub name: String,
    /// Exact number of parameters.
    pub arity: usize,
}

/// Host functions receive their arguments mutably so that an owning
/// function (see [`HostRegistry::register_owned`]) can move them out
/// instead of cloning; callers never read the argument slice again.
type HostFn<C> =
    std::sync::Arc<dyn Fn(&mut C, &mut [Value]) -> Result<Value, String> + Send + Sync>;

/// Source of globally unique registry generations: every construction
/// and every mutation stamps the registry with a fresh value, so two
/// registries (or two revisions of one) never share a generation and a
/// cached resolution can be validated with a single integer compare.
static NEXT_GENERATION: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

fn fresh_generation() -> u64 {
    NEXT_GENERATION.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
}

/// The set of host functions available to delegated programs on one
/// server, over an embedder-chosen context type `C`.
///
/// Cloning is cheap (the function objects are `Arc`-shared) and the
/// clone keeps the original's [`generation`](HostRegistry::generation):
/// a clone is the same function set, so resolution caches keyed on the
/// generation stay valid across it. Registering into either copy stamps
/// that copy with a fresh generation.
///
/// # Examples
///
/// ```
/// use dpl::{HostRegistry, Value};
///
/// struct Ctx { reads: u32 }
/// let mut reg: HostRegistry<Ctx> = HostRegistry::with_stdlib();
/// reg.register("read_sensor", 1, |ctx, args| {
///     ctx.reads += 1;
///     let id = args[0].as_int().ok_or("sensor id must be int")?;
///     Ok(Value::Int(id * 100))
/// });
/// assert!(reg.signature("read_sensor").is_some());
/// ```
pub struct HostRegistry<C> {
    fns: Vec<(Signature, HostFn<C>)>,
    by_name: HashMap<String, usize>,
    generation: u64,
}

impl<C> fmt::Debug for HostRegistry<C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HostRegistry")
            .field("functions", &self.fns.len())
            .field("generation", &self.generation)
            .finish()
    }
}

impl<C> Clone for HostRegistry<C> {
    fn clone(&self) -> HostRegistry<C> {
        HostRegistry {
            fns: self.fns.clone(),
            by_name: self.by_name.clone(),
            generation: self.generation,
        }
    }
}

impl<C> Default for HostRegistry<C> {
    fn default() -> HostRegistry<C> {
        HostRegistry { fns: Vec::new(), by_name: HashMap::new(), generation: fresh_generation() }
    }
}

impl<C> HostRegistry<C> {
    /// An empty registry (agents can call nothing but their own functions).
    pub fn new() -> HostRegistry<C> {
        HostRegistry::default()
    }

    /// A registry pre-populated with the pure standard library
    /// (`len`, `push`, `str`, `split`, `sort`, ... — see [`stdlib`]).
    pub fn with_stdlib() -> HostRegistry<C> {
        let mut reg = HostRegistry::new();
        stdlib::install(&mut reg);
        reg
    }

    /// Registers a host function. Re-registering a name replaces it.
    pub fn register<F>(&mut self, name: &str, arity: usize, f: F)
    where
        F: Fn(&mut C, &[Value]) -> Result<Value, String> + Send + Sync + 'static,
    {
        self.register_owned(name, arity, move |ctx, args| f(ctx, args));
    }

    /// Registers a host function that may take ownership of its
    /// arguments (`std::mem::take`) instead of cloning them.
    pub(crate) fn register_owned<F>(&mut self, name: &str, arity: usize, f: F)
    where
        F: Fn(&mut C, &mut [Value]) -> Result<Value, String> + Send + Sync + 'static,
    {
        let sig = Signature { name: name.to_string(), arity };
        let f: HostFn<C> = std::sync::Arc::new(f);
        if let Some(&idx) = self.by_name.get(name) {
            self.fns[idx] = (sig, f);
        } else {
            self.by_name.insert(name.to_string(), self.fns.len());
            self.fns.push((sig, f));
        }
        self.generation = fresh_generation();
    }

    /// An opaque stamp identifying this exact function set. Changes on
    /// every [`register`](HostRegistry::register); equal stamps mean the
    /// same names at the same indices, so cached name→index resolutions
    /// (see [`Instance`](crate::Instance)) remain valid.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// All signatures, for the static checker.
    pub fn signatures(&self) -> Vec<Signature> {
        self.fns.iter().map(|(s, _)| s.clone()).collect()
    }

    /// The signature of `name`, if registered.
    pub fn signature(&self, name: &str) -> Option<&Signature> {
        self.by_name.get(name).map(|&i| &self.fns[i].0)
    }

    /// The registry index of `name`, if registered.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.by_name.get(name).copied()
    }

    /// Number of registered functions.
    pub fn len(&self) -> usize {
        self.fns.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.fns.is_empty()
    }

    /// Invokes function `idx` (from [`HostRegistry::index_of`]). The
    /// function may move values out of `args`, leaving `nil` behind.
    ///
    /// # Errors
    ///
    /// Maps the host's string error into [`RuntimeError::Host`].
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn call(&self, idx: usize, ctx: &mut C, args: &mut [Value]) -> Result<Value, RuntimeError> {
        let (sig, f) = &self.fns[idx];
        f(ctx, args).map_err(|message| RuntimeError::Host { name: sig.name.clone(), message })
    }
}

/// The pure standard library available to every delegated program.
///
/// These functions need no server context, so they are generic over `C`.
pub mod stdlib {
    use super::*;

    fn err(msg: impl Into<String>) -> String {
        msg.into()
    }

    /// Installs the standard library into `reg`.
    #[allow(clippy::too_many_lines)]
    pub fn install<C>(reg: &mut HostRegistry<C>) {
        reg.register("len", 1, |_, args| match &args[0] {
            Value::Str(s) => Ok(Value::Int(s.chars().count() as i64)),
            Value::List(v) => Ok(Value::Int(v.len() as i64)),
            Value::Map(m) => Ok(Value::Int(m.len() as i64)),
            other => Err(err(format!("len: unsupported type {}", other.type_name()))),
        });
        // Owns its arguments: when the compiler moved the list out of its
        // local (`out = push(out, x)`), `make_mut` finds it unshared and
        // appends in place instead of copying it.
        reg.register_owned("push", 2, |_, args| match std::mem::take(&mut args[0]) {
            Value::List(mut v) => {
                std::sync::Arc::make_mut(&mut v).push(std::mem::take(&mut args[1]));
                Ok(Value::List(v))
            }
            other => Err(err(format!("push: expected list, got {}", other.type_name()))),
        });
        reg.register("keys", 1, |_, args| match &args[0] {
            Value::Map(m) => Ok(Value::list(m.keys().map(|k| Value::Str(k.clone())).collect())),
            other => Err(err(format!("keys: expected map, got {}", other.type_name()))),
        });
        reg.register("values", 1, |_, args| match &args[0] {
            Value::Map(m) => Ok(Value::list(m.values().cloned().collect())),
            other => Err(err(format!("values: expected map, got {}", other.type_name()))),
        });
        reg.register("has", 2, |_, args| match (&args[0], &args[1]) {
            (Value::Map(m), Value::Str(k)) => Ok(Value::Bool(m.contains_key(k))),
            (a, b) => Err(err(format!(
                "has: expected (map, str), got ({}, {})",
                a.type_name(),
                b.type_name()
            ))),
        });
        reg.register("remove_key", 2, |_, args| match (&args[0], &args[1]) {
            (Value::Map(m), Value::Str(k)) => {
                let mut m = m.clone();
                std::sync::Arc::make_mut(&mut m).remove(k);
                Ok(Value::Map(m))
            }
            (a, b) => Err(err(format!(
                "remove_key: expected (map, str), got ({}, {})",
                a.type_name(),
                b.type_name()
            ))),
        });
        reg.register("str", 1, |_, args| Ok(Value::Str(args[0].to_string())));
        reg.register("int", 1, |_, args| match &args[0] {
            Value::Int(v) => Ok(Value::Int(*v)),
            Value::Float(v) => Ok(Value::Int(*v as i64)),
            Value::Bool(b) => Ok(Value::Int(i64::from(*b))),
            Value::Str(s) => s
                .trim()
                .parse::<i64>()
                .map(Value::Int)
                .map_err(|_| err(format!("int: cannot parse `{s}`"))),
            other => Err(err(format!("int: unsupported type {}", other.type_name()))),
        });
        reg.register("float", 1, |_, args| match &args[0] {
            Value::Int(v) => Ok(Value::Float(*v as f64)),
            Value::Float(v) => Ok(Value::Float(*v)),
            Value::Str(s) => s
                .trim()
                .parse::<f64>()
                .map(Value::Float)
                .map_err(|_| err(format!("float: cannot parse `{s}`"))),
            other => Err(err(format!("float: unsupported type {}", other.type_name()))),
        });
        reg.register("type", 1, |_, args| Ok(Value::Str(args[0].type_name().to_string())));
        reg.register("abs", 1, |_, args| match &args[0] {
            Value::Int(v) => Ok(Value::Int(v.wrapping_abs())),
            Value::Float(v) => Ok(Value::Float(v.abs())),
            other => Err(err(format!("abs: unsupported type {}", other.type_name()))),
        });
        reg.register("min", 2, |_, args| {
            match crate::value::ops::cmp(&args[0], &args[1]).map_err(|e| e.to_string())? {
                std::cmp::Ordering::Greater => Ok(args[1].clone()),
                _ => Ok(args[0].clone()),
            }
        });
        reg.register("max", 2, |_, args| {
            match crate::value::ops::cmp(&args[0], &args[1]).map_err(|e| e.to_string())? {
                std::cmp::Ordering::Less => Ok(args[1].clone()),
                _ => Ok(args[0].clone()),
            }
        });
        reg.register("floor", 1, |_, args| {
            let v = args[0].as_f64().ok_or_else(|| err("floor: expected number"))?;
            Ok(Value::Int(v.floor() as i64))
        });
        reg.register("ceil", 1, |_, args| {
            let v = args[0].as_f64().ok_or_else(|| err("ceil: expected number"))?;
            Ok(Value::Int(v.ceil() as i64))
        });
        reg.register("sqrt", 1, |_, args| {
            let v = args[0].as_f64().ok_or_else(|| err("sqrt: expected number"))?;
            if v < 0.0 {
                return Err(err("sqrt: negative argument"));
            }
            Ok(Value::Float(v.sqrt()))
        });
        reg.register("pow", 2, |_, args| {
            let b = args[0].as_f64().ok_or_else(|| err("pow: expected number"))?;
            let e = args[1].as_f64().ok_or_else(|| err("pow: expected number"))?;
            Ok(Value::Float(b.powf(e)))
        });
        reg.register("contains", 2, |_, args| match (&args[0], &args[1]) {
            (Value::Str(s), Value::Str(sub)) => Ok(Value::Bool(s.contains(sub.as_str()))),
            (Value::List(v), x) => {
                Ok(Value::Bool(v.iter().any(|item| crate::value::ops::eq(item, x))))
            }
            (a, _) => Err(err(format!("contains: unsupported base {}", a.type_name()))),
        });
        reg.register("substr", 3, |_, args| {
            let s = args[0].as_str().ok_or_else(|| err("substr: expected str"))?;
            let start = args[1].as_int().ok_or_else(|| err("substr: start must be int"))?;
            let count = args[2].as_int().ok_or_else(|| err("substr: len must be int"))?;
            let start = usize::try_from(start).map_err(|_| err("substr: negative start"))?;
            let count = usize::try_from(count).map_err(|_| err("substr: negative len"))?;
            Ok(Value::Str(s.chars().skip(start).take(count).collect()))
        });
        reg.register("find", 2, |_, args| match (&args[0], &args[1]) {
            (Value::Str(s), Value::Str(sub)) => Ok(Value::Int(match s.find(sub.as_str()) {
                Some(byte_idx) => s[..byte_idx].chars().count() as i64,
                None => -1,
            })),
            (Value::List(v), x) => Ok(Value::Int(
                v.iter().position(|item| crate::value::ops::eq(item, x)).map_or(-1, |i| i as i64),
            )),
            (a, _) => Err(err(format!("find: unsupported base {}", a.type_name()))),
        });
        reg.register("upper", 1, |_, args| {
            let s = args[0].as_str().ok_or_else(|| err("upper: expected str"))?;
            Ok(Value::Str(s.to_uppercase()))
        });
        reg.register("lower", 1, |_, args| {
            let s = args[0].as_str().ok_or_else(|| err("lower: expected str"))?;
            Ok(Value::Str(s.to_lowercase()))
        });
        reg.register("split", 2, |_, args| {
            let s = args[0].as_str().ok_or_else(|| err("split: expected str"))?;
            let sep = args[1].as_str().ok_or_else(|| err("split: separator must be str"))?;
            if sep.is_empty() {
                return Err(err("split: empty separator"));
            }
            Ok(Value::list(s.split(sep).map(|p| Value::Str(p.to_string())).collect()))
        });
        reg.register("join", 2, |_, args| {
            let list = args[0].as_list().ok_or_else(|| err("join: expected list"))?;
            let sep = args[1].as_str().ok_or_else(|| err("join: separator must be str"))?;
            let parts: Vec<String> = list.iter().map(Value::to_string).collect();
            Ok(Value::Str(parts.join(sep)))
        });
        reg.register("range", 1, |_, args| {
            let n = args[0].as_int().ok_or_else(|| err("range: expected int"))?;
            if n < 0 {
                return Err(err("range: negative length"));
            }
            if n > 1_000_000 {
                return Err(err("range: too large"));
            }
            Ok(Value::list((0..n).map(Value::Int).collect()))
        });
        reg.register("sort", 1, |_, args| {
            let list = args[0].as_list().ok_or_else(|| err("sort: expected list"))?;
            let mut v = list.to_vec();
            let mut fail = None;
            v.sort_by(|a, b| match crate::value::ops::cmp(a, b) {
                Ok(o) => o,
                Err(e) => {
                    fail.get_or_insert(e.to_string());
                    std::cmp::Ordering::Equal
                }
            });
            match fail {
                Some(e) => Err(err(format!("sort: {e}"))),
                None => Ok(Value::list(v)),
            }
        });
        reg.register("sum", 1, |_, args| {
            let list = args[0].as_list().ok_or_else(|| err("sum: expected list"))?;
            let mut acc = Value::Int(0);
            for item in list {
                acc = crate::value::ops::add(acc, item.clone()).map_err(|e| e.to_string())?;
            }
            Ok(acc)
        });
        reg.register("map_new", 0, |_, _| Ok(Value::map(BTreeMap::new())));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reg() -> HostRegistry<()> {
        HostRegistry::with_stdlib()
    }

    fn call(name: &str, args: &[Value]) -> Result<Value, RuntimeError> {
        let r = reg();
        let idx = r.index_of(name).unwrap();
        r.call(idx, &mut (), &mut args.to_vec())
    }

    #[test]
    fn stdlib_has_expected_functions() {
        let r = reg();
        for name in ["len", "push", "str", "int", "split", "join", "sort", "range", "sum"] {
            assert!(r.signature(name).is_some(), "missing {name}");
        }
        assert!(r.len() > 20);
    }

    #[test]
    fn len_works_across_types() {
        assert_eq!(call("len", &[Value::from("héllo")]).unwrap(), Value::Int(5));
        assert_eq!(call("len", &[Value::from(vec![1i64, 2])]).unwrap(), Value::Int(2));
        assert!(call("len", &[Value::Int(5)]).is_err());
    }

    #[test]
    fn push_returns_new_list() {
        let out = call("push", &[Value::from(vec![1i64]), Value::Int(2)]).unwrap();
        assert_eq!(out, Value::from(vec![1i64, 2]));
    }

    #[test]
    fn conversions() {
        assert_eq!(call("int", &[Value::from("42")]).unwrap(), Value::Int(42));
        assert_eq!(call("int", &[Value::Float(2.9)]).unwrap(), Value::Int(2));
        assert!(call("int", &[Value::from("x")]).is_err());
        assert_eq!(call("float", &[Value::from("2.5")]).unwrap(), Value::Float(2.5));
        assert_eq!(call("str", &[Value::Int(7)]).unwrap(), Value::from("7"));
        assert_eq!(call("type", &[Value::Nil]).unwrap(), Value::from("nil"));
    }

    #[test]
    fn string_functions() {
        assert_eq!(
            call("split", &[Value::from("a,b,c"), Value::from(",")]).unwrap(),
            Value::list(vec![Value::from("a"), Value::from("b"), Value::from("c")])
        );
        assert_eq!(
            call("join", &[Value::from(vec![1i64, 2]), Value::from("-")]).unwrap(),
            Value::from("1-2")
        );
        assert_eq!(
            call("substr", &[Value::from("hello"), Value::Int(1), Value::Int(3)]).unwrap(),
            Value::from("ell")
        );
        assert_eq!(
            call("find", &[Value::from("hello"), Value::from("llo")]).unwrap(),
            Value::Int(2)
        );
        assert_eq!(
            call("find", &[Value::from("hello"), Value::from("zz")]).unwrap(),
            Value::Int(-1)
        );
        assert_eq!(call("upper", &[Value::from("ab")]).unwrap(), Value::from("AB"));
    }

    #[test]
    fn numeric_functions() {
        assert_eq!(call("abs", &[Value::Int(-5)]).unwrap(), Value::Int(5));
        assert_eq!(call("min", &[Value::Int(3), Value::Int(1)]).unwrap(), Value::Int(1));
        assert_eq!(call("max", &[Value::Float(0.5), Value::Int(1)]).unwrap(), Value::Int(1));
        assert_eq!(call("floor", &[Value::Float(2.7)]).unwrap(), Value::Int(2));
        assert_eq!(call("ceil", &[Value::Float(2.1)]).unwrap(), Value::Int(3));
        assert_eq!(call("sqrt", &[Value::Int(9)]).unwrap(), Value::Float(3.0));
        assert!(call("sqrt", &[Value::Int(-1)]).is_err());
    }

    #[test]
    fn list_functions() {
        assert_eq!(
            call("sort", &[Value::from(vec![3i64, 1, 2])]).unwrap(),
            Value::from(vec![1i64, 2, 3])
        );
        assert!(call("sort", &[Value::list(vec![Value::Int(1), Value::from("a")])]).is_err());
        assert_eq!(call("sum", &[Value::from(vec![1i64, 2, 3])]).unwrap(), Value::Int(6));
        assert_eq!(call("range", &[Value::Int(3)]).unwrap(), Value::from(vec![0i64, 1, 2]));
        assert!(call("range", &[Value::Int(-1)]).is_err());
        assert_eq!(
            call("contains", &[Value::from(vec![1i64, 2]), Value::Int(2)]).unwrap(),
            Value::Bool(true)
        );
    }

    #[test]
    fn map_functions() {
        let m = call("map_new", &[]).unwrap();
        assert_eq!(m, Value::map(BTreeMap::new()));
        let mut bt = BTreeMap::new();
        bt.insert("a".to_string(), Value::Int(1));
        let m = Value::map(bt);
        assert_eq!(
            call("keys", std::slice::from_ref(&m)).unwrap(),
            Value::list(vec![Value::from("a")])
        );
        assert_eq!(call("values", std::slice::from_ref(&m)).unwrap(), Value::from(vec![1i64]));
        assert_eq!(call("has", &[m.clone(), Value::from("a")]).unwrap(), Value::Bool(true));
        let removed = call("remove_key", &[m, Value::from("a")]).unwrap();
        assert_eq!(removed, Value::map(BTreeMap::new()));
    }

    #[test]
    fn registration_replaces_by_name() {
        let mut r: HostRegistry<()> = HostRegistry::new();
        r.register("f", 1, |_, _| Ok(Value::Int(1)));
        r.register("f", 2, |_, _| Ok(Value::Int(2)));
        assert_eq!(r.len(), 1);
        assert_eq!(r.signature("f").unwrap().arity, 2);
    }

    #[test]
    fn host_error_carries_function_name() {
        let r = reg();
        let idx = r.index_of("sqrt").unwrap();
        let e = r.call(idx, &mut (), &mut [Value::Int(-4)]).unwrap_err();
        match e {
            RuntimeError::Host { name, .. } => assert_eq!(name, "sqrt"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn context_is_threaded_through() {
        struct Ctx {
            calls: u32,
        }
        let mut r: HostRegistry<Ctx> = HostRegistry::new();
        r.register("tick", 0, |ctx, _| {
            ctx.calls += 1;
            Ok(Value::Int(i64::from(ctx.calls)))
        });
        let mut ctx = Ctx { calls: 0 };
        let idx = r.index_of("tick").unwrap();
        r.call(idx, &mut ctx, &mut []).unwrap();
        let v = r.call(idx, &mut ctx, &mut []).unwrap();
        assert_eq!(v, Value::Int(2));
        assert_eq!(ctx.calls, 2);
    }
}
