//! The sandboxed stack VM that executes delegated-program instances.
//!
//! Every invocation runs under a [`Budget`]: an instruction (fuel) limit,
//! a cumulative allocation limit, and a call-depth limit. Exceeding any of
//! them aborts the invocation with a [`RuntimeError`] — the embedding
//! elastic process terminates the offending dpi and keeps running, which
//! is the MbD safety property that lets a server accept code from
//! less-than-fully-trusted managers.

use crate::bytecode::{Op, Program};
use crate::host::HostRegistry;
use crate::profile::{BlockProfile, Profile};
use crate::value::ops;
use crate::{RuntimeError, Value};
use std::sync::Arc;

/// Resource limits for one invocation.
///
/// # Examples
///
/// ```
/// use dpl::Budget;
/// let tight = Budget { fuel: 1_000, ..Budget::default() };
/// assert!(tight.fuel < Budget::default().fuel);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budget {
    /// Maximum instructions executed (host calls cost extra).
    pub fuel: u64,
    /// Maximum cumulative allocation, in value cells (see
    /// [`Value::cost`]).
    pub memory: u64,
    /// Maximum call-stack depth.
    pub call_depth: u32,
}

impl Default for Budget {
    /// 1M instructions, 1M cells, depth 64 — generous for management
    /// agents, tiny for runaways.
    fn default() -> Budget {
        Budget { fuel: 1_000_000, memory: 1_000_000, call_depth: 64 }
    }
}

/// Execution counters from the most recent invocation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VmStats {
    /// Instructions executed.
    pub fuel_used: u64,
    /// Cells allocated.
    pub memory_used: u64,
    /// Deepest call stack reached.
    pub max_depth: u32,
    /// Host functions invoked.
    pub host_calls: u64,
}

/// A pre-resolved entry point: the function's index and arity, looked up
/// once (via [`Instance::entry`]) and reusable across invocations without
/// any per-call string hashing.
///
/// A handle is tied to the [`Program`] it was resolved against; instances
/// sharing one `Arc<Program>` can share handles. [`Instance::invoke_entry`]
/// re-validates the index bounds, but a handle resolved against an
/// unrelated program of the same shape is the caller's bug.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Entry {
    index: u32,
    arity: u32,
}

/// A delegated program *instance* (dpi): shared compiled code plus
/// persistent private global state.
///
/// Instances of the same [`Program`] share one code object (the `Arc`
/// passed to [`Instance::new`]) but have independent state, exactly like
/// the paper's dpis instantiated from one dp. Global initializers run
/// lazily on the first invocation (they may call host functions, which
/// need a context).
///
/// Name resolution is cached per instance: the program's host-function
/// table is mapped to registry indices once and re-validated only when
/// the registry's generation changes, and the most recent entry-point
/// lookup is memoized ([`Instance::entry`] /
/// [`Instance::invoke_entry`] skip the string lookup entirely).
#[derive(Debug, Clone)]
pub struct Instance {
    program: Arc<Program>,
    globals: Vec<Value>,
    initialized: bool,
    last_stats: VmStats,
    /// Program host-table index → registry index, valid while the
    /// registry generation equals `host_map_generation`.
    host_map: Vec<usize>,
    host_map_generation: Option<u64>,
    /// Memo of the most recent string entry-point resolution.
    last_entry: Option<(Box<str>, Entry)>,
    /// Sampling profiler state, if enabled for this instance.
    profile: Option<Box<Profile>>,
}

impl Instance {
    /// Creates a fresh instance sharing `program`'s compiled code.
    ///
    /// N instances of one dp hold N `Arc` references to a single code
    /// object; instantiation allocates only the per-dpi global slots.
    pub fn new(program: Arc<Program>) -> Instance {
        let globals = vec![Value::Nil; program.global_names.len()];
        Instance {
            program,
            globals,
            initialized: false,
            last_stats: VmStats::default(),
            host_map: Vec::new(),
            host_map_generation: None,
            last_entry: None,
            profile: None,
        }
    }

    /// The program this instance runs.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The shared compiled-code object. Two instances of the same dp
    /// satisfy `Arc::ptr_eq(a.program_shared(), b.program_shared())`.
    pub fn program_shared(&self) -> &Arc<Program> {
        &self.program
    }

    /// Counters from the most recent invocation.
    pub fn last_stats(&self) -> VmStats {
        self.last_stats
    }

    /// Turns on (or re-arms, discarding prior samples) the sampling
    /// profiler at one sample per `sample_every` basic-block entries;
    /// `0` turns profiling off.
    pub fn enable_profiling(&mut self, sample_every: u32) {
        self.profile =
            if sample_every == 0 { None } else { Some(Box::new(Profile::new(sample_every))) };
    }

    /// Whether this instance is being profiled.
    pub fn profiling_enabled(&self) -> bool {
        self.profile.is_some()
    }

    /// Total profile samples recorded (0 when profiling is off).
    pub fn profile_samples(&self) -> u64 {
        self.profile.as_ref().map(|p| p.samples()).unwrap_or(0)
    }

    /// The aggregated profile, hottest block first (empty when
    /// profiling is off).
    pub fn profile_rows(&self) -> Vec<BlockProfile> {
        self.profile.as_ref().map(|p| p.rows(&self.program)).unwrap_or_default()
    }

    /// The profile as folded-stack lines for flamegraph tooling.
    pub fn profile_folded(&self) -> Vec<String> {
        self.profile.as_ref().map(|p| p.folded(&self.program)).unwrap_or_default()
    }

    /// Reads a persistent global by name (dpi state inspection).
    pub fn global(&self, name: &str) -> Option<&Value> {
        let idx = self.program.global_names.iter().position(|n| n == name)?;
        self.globals.get(idx)
    }

    /// Resolves `name` to a reusable [`Entry`] handle, or `None` if the
    /// program does not define it.
    pub fn entry(&self, name: &str) -> Option<Entry> {
        let &idx = self.program.fn_by_name.get(name)?;
        Some(Entry { index: idx as u32, arity: self.program.functions[idx].arity as u32 })
    }

    /// A copy of every persistent global, in declaration order
    /// (matching [`Program::global_names`]). Together with
    /// [`Instance::initialized`] this is the instance's complete
    /// serializable state: DPL values hold no foreign pointers, so a
    /// checkpoint of `(globals, initialized)` plus the program source
    /// reconstructs the dpi exactly.
    pub fn globals_snapshot(&self) -> Vec<Value> {
        self.globals.clone()
    }

    /// Whether the lazy global initializers have already run. Part of
    /// the serializable state: a restored instance must not re-run its
    /// initializers and clobber the restored globals.
    pub fn initialized(&self) -> bool {
        self.initialized
    }

    /// Replaces this instance's persistent state with a previously
    /// captured `(globals, initialized)` pair — the restore half of
    /// checkpoint/migration and of crash recovery.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::BadInvocation`] if `globals` does not match the
    /// program's global count (the checkpoint came from a different
    /// program shape).
    pub fn restore_state(
        &mut self,
        globals: Vec<Value>,
        initialized: bool,
    ) -> Result<(), RuntimeError> {
        let expected = self.program.global_names.len();
        if globals.len() != expected {
            return Err(RuntimeError::BadInvocation { expected, found: globals.len() });
        }
        self.globals = globals;
        self.initialized = initialized;
        Ok(())
    }

    /// Drops the cached host map and entry memo so the next invocation
    /// re-resolves everything from scratch. Exists for the `e10_vm`
    /// bench, which uses it to reconstruct the pre-cache per-invocation
    /// cost as a baseline series; correctness never requires calling it
    /// (generation tracking invalidates the cache automatically).
    pub fn clear_resolution_caches(&mut self) {
        self.host_map = Vec::new();
        self.host_map_generation = None;
        self.last_entry = None;
    }

    /// Invokes `entry` with `args` under `budget`, using `registry` for
    /// host calls with context `ctx`.
    ///
    /// # Errors
    ///
    /// - [`RuntimeError::NoSuchFunction`] / [`RuntimeError::BadInvocation`]
    ///   for a bad entry point;
    /// - any fault or budget exhaustion during execution. A failed
    ///   invocation leaves global state as the failure left it (the paper's
    ///   dpis are likewise not transactional).
    pub fn invoke<C>(
        &mut self,
        entry: &str,
        args: &[Value],
        ctx: &mut C,
        registry: &HostRegistry<C>,
        budget: Budget,
    ) -> Result<Value, RuntimeError> {
        let handle = match &self.last_entry {
            Some((name, h)) if &**name == entry => *h,
            _ => {
                let h = self
                    .entry(entry)
                    .ok_or_else(|| RuntimeError::NoSuchFunction { name: entry.to_string() })?;
                self.last_entry = Some((entry.into(), h));
                h
            }
        };
        self.invoke_entry(handle, args, ctx, registry, budget)
    }

    /// Invokes a pre-resolved entry point, skipping the name lookup. This
    /// is the hot path for callers that invoke the same function
    /// repeatedly (the RDS `Invoke` verb, the health observer).
    ///
    /// Entry resolution and arity validation happen before the lazy
    /// global-initializer run, so a bad invocation fails without
    /// executing any program code.
    pub fn invoke_entry<C>(
        &mut self,
        entry: Entry,
        args: &[Value],
        ctx: &mut C,
        registry: &HostRegistry<C>,
        budget: Budget,
    ) -> Result<Value, RuntimeError> {
        let fn_idx = entry.index as usize;
        let arity = match self.program.functions.get(fn_idx) {
            Some(f) => f.arity,
            None => return Err(RuntimeError::NoSuchFunction { name: format!("#fn{fn_idx}") }),
        };
        if arity != args.len() {
            return Err(RuntimeError::BadInvocation { expected: arity, found: args.len() });
        }
        self.ensure_host_map(registry)?;
        if let Some(p) = self.profile.as_deref_mut() {
            p.begin_invocation();
        }
        let program = Arc::clone(&self.program);
        // The sampling countdown lives in a plain Vm field while the VM
        // runs (one memory decrement per block, profiled or not) and
        // syncs back to the profiler at invocation boundaries so the
        // 1-in-N phase carries across invocations.
        let sample_countdown = self.profile.as_deref().map(|p| p.countdown()).unwrap_or(u32::MAX);
        let mut vm = Vm {
            program: &program,
            globals: &mut self.globals,
            registry,
            host_map: &self.host_map,
            budget,
            stats: VmStats::default(),
            profiler: self.profile.as_deref_mut(),
            sample_countdown,
        };
        let result = (|| {
            if !self.initialized {
                vm.run(program.init_fn, Vec::new(), ctx)?;
                self.initialized = true;
            }
            vm.run(fn_idx, args.to_vec(), ctx)
        })();
        self.last_stats = vm.stats;
        let sample_countdown = vm.sample_countdown;
        if let Some(p) = self.profile.as_deref_mut() {
            p.set_countdown(sample_countdown);
        }
        result
    }

    /// Maps the program's host-function table to registry indices,
    /// reusing the cached map while the registry generation is unchanged.
    fn ensure_host_map<C>(&mut self, registry: &HostRegistry<C>) -> Result<(), RuntimeError> {
        if self.host_map_generation == Some(registry.generation()) {
            return Ok(());
        }
        self.host_map.clear();
        self.host_map.reserve(self.program.host_names.len());
        for name in &self.program.host_names {
            match registry.index_of(name) {
                Some(i) => self.host_map.push(i),
                None => {
                    self.host_map_generation = None;
                    return Err(RuntimeError::Host {
                        name: name.clone(),
                        message: "not registered on this server".to_string(),
                    });
                }
            }
        }
        self.host_map_generation = Some(registry.generation());
        Ok(())
    }
}

/// Caller-saved state parked while a callee runs: the caller's function
/// index, resume ip, and locals. The *current* frame lives in `run`'s
/// locals, not in this vector.
struct Frame {
    func: usize,
    ret_ip: usize,
    locals: Vec<Value>,
}

struct Vm<'a, C> {
    program: &'a Program,
    globals: &'a mut Vec<Value>,
    registry: &'a HostRegistry<C>,
    host_map: &'a [usize],
    budget: Budget,
    stats: VmStats,
    /// Sampling profiler hook, consulted only when `sample_countdown`
    /// fires.
    profiler: Option<&'a mut Profile>,
    /// Blocks until the next profile sample; `u32::MAX` when profiling
    /// is off, so the per-block cost is one decrement either way.
    sample_countdown: u32,
}

impl<'a, C> Vm<'a, C> {
    /// The sampled-block slow path: reloads the countdown and, when a
    /// profiler is attached, records the sample. (Without one, this
    /// fires at most once per ~4 billion blocks — the `u32::MAX`
    /// sentinel wrapping around — and just re-arms the sentinel.)
    #[cold]
    fn record_sample(&mut self, stack: Vec<u32>, leader_ip: u32) {
        match self.profiler.as_deref_mut() {
            Some(p) => {
                self.sample_countdown = p.sample_every();
                p.record(stack, leader_ip, self.stats.fuel_used);
            }
            None => self.sample_countdown = u32::MAX,
        }
    }

    fn charge_fuel(&mut self, amount: u64) -> Result<(), RuntimeError> {
        self.stats.fuel_used += amount;
        if self.stats.fuel_used > self.budget.fuel {
            Err(RuntimeError::OutOfFuel)
        } else {
            Ok(())
        }
    }

    /// Charges the full (deep) cost of a freshly built value.
    fn charge_alloc(&mut self, v: &Value) -> Result<(), RuntimeError> {
        self.charge_cells(v.cost().saturating_sub(1))
    }

    /// Charges only what a clone of `v` actually allocates (containers
    /// are `Arc`-shared, so loads of large tables are O(1)).
    fn charge_clone(&mut self, v: &Value) -> Result<(), RuntimeError> {
        self.charge_cells(v.clone_cost().saturating_sub(1))
    }

    fn charge_cells(&mut self, cost: u64) -> Result<(), RuntimeError> {
        if cost > 0 {
            self.stats.memory_used += cost;
            if self.stats.memory_used > self.budget.memory {
                return Err(RuntimeError::OutOfMemory);
            }
        }
        Ok(())
    }

    /// Executes `entry` to completion.
    ///
    /// The dispatch loop keeps the current function's code, charge table,
    /// instruction cursor and locals in machine-register-friendly locals
    /// (not behind `frames.last_mut()`), fetches each `Op` by value
    /// (`Op: Copy` — no per-instruction clone), and charges fuel once per
    /// basic block from the precomputed [`Function::charge`] table: at
    /// function entry, at every branch target or fall-through, on call
    /// entry, and on return/host-call resume. Completed runs charge
    /// exactly what per-instruction accounting charged; aborts move only
    /// within one basic block (see `docs/DPL.md`).
    fn run(&mut self, entry: usize, args: Vec<Value>, ctx: &mut C) -> Result<Value, RuntimeError> {
        let program = self.program;
        let mut stack: Vec<Value> = Vec::with_capacity(32);
        let mut frames: Vec<Frame> = Vec::with_capacity(8);
        let entry_fn = &program.functions[entry];
        let mut locals = args;
        locals.resize(entry_fn.n_locals, Value::Nil);
        let mut func = entry;
        let mut code: &[Op] = &entry_fn.code;
        let mut charge: &[u32] = &entry_fn.charge;
        let mut ip = 0usize;
        self.stats.max_depth = self.stats.max_depth.max(1);
        debug_assert!(!code.is_empty(), "compiler emits an epilogue");
        self.charge_fuel(u64::from(charge[0]))?;

        macro_rules! pop {
            () => {
                stack.pop().expect("compiler guarantees stack discipline")
            };
        }

        // Profiler hook, invoked at every block-entry charge site. One
        // plain countdown decrement per block — identical whether
        // profiling is on (counts down from `sample_every`) or off
        // (counts down from `u32::MAX`, i.e. never fires in practice) —
        // with the profiler lookup, stack allocation and clock read
        // confined to the sampled 1-in-N entries.
        macro_rules! sample {
            ($leader:expr) => {
                self.sample_countdown -= 1;
                if self.sample_countdown == 0 {
                    let mut s: Vec<u32> = frames.iter().map(|f| f.func as u32).collect();
                    s.push(func as u32);
                    self.record_sample(s, $leader as u32);
                }
            };
        }
        sample!(0usize);

        loop {
            debug_assert!(ip < code.len(), "fell off function end");
            let op = code[ip];
            ip += 1;
            match op {
                Op::Const(i) => {
                    let v = program.consts[i as usize].clone();
                    self.charge_clone(&v)?;
                    stack.push(v);
                }
                Op::Nil => stack.push(Value::Nil),
                Op::Bool(b) => stack.push(Value::Bool(b)),
                Op::LoadLocal(i) => {
                    let v = locals[i as usize].clone();
                    self.charge_clone(&v)?;
                    stack.push(v);
                }
                Op::TakeLocal(i) => {
                    // Charged as the `LoadLocal` it replaces, although
                    // the move allocates nothing: accounting stays blind
                    // to the optimisation.
                    let v = std::mem::take(&mut locals[i as usize]);
                    self.charge_clone(&v)?;
                    stack.push(v);
                }
                Op::StoreLocal(i) => {
                    locals[i as usize] = pop!();
                }
                Op::LoadGlobal(i) => {
                    let v = self.globals[i as usize].clone();
                    self.charge_clone(&v)?;
                    stack.push(v);
                }
                Op::StoreGlobal(i) => {
                    self.globals[i as usize] = pop!();
                }
                Op::Add => {
                    let b = pop!();
                    let a = pop!();
                    let v = ops::add(a, b)?;
                    self.charge_alloc(&v)?;
                    stack.push(v);
                }
                Op::Sub => {
                    let b = pop!();
                    let a = pop!();
                    stack.push(ops::sub(a, b)?);
                }
                Op::Mul => {
                    let b = pop!();
                    let a = pop!();
                    stack.push(ops::mul(a, b)?);
                }
                Op::Div => {
                    let b = pop!();
                    let a = pop!();
                    stack.push(ops::div(a, b)?);
                }
                Op::Mod => {
                    let b = pop!();
                    let a = pop!();
                    stack.push(ops::rem(a, b)?);
                }
                Op::Neg => {
                    let a = pop!();
                    stack.push(ops::neg(a)?);
                }
                Op::Not => {
                    let a = pop!();
                    stack.push(ops::not(a)?);
                }
                Op::Eq => {
                    let b = pop!();
                    let a = pop!();
                    stack.push(Value::Bool(ops::eq(&a, &b)));
                }
                Op::Ne => {
                    let b = pop!();
                    let a = pop!();
                    stack.push(Value::Bool(!ops::eq(&a, &b)));
                }
                Op::Lt => {
                    let b = pop!();
                    let a = pop!();
                    stack.push(Value::Bool(ops::cmp(&a, &b)? == std::cmp::Ordering::Less));
                }
                Op::Le => {
                    let b = pop!();
                    let a = pop!();
                    stack.push(Value::Bool(ops::cmp(&a, &b)? != std::cmp::Ordering::Greater));
                }
                Op::Gt => {
                    let b = pop!();
                    let a = pop!();
                    stack.push(Value::Bool(ops::cmp(&a, &b)? == std::cmp::Ordering::Greater));
                }
                Op::Ge => {
                    let b = pop!();
                    let a = pop!();
                    stack.push(Value::Bool(ops::cmp(&a, &b)? != std::cmp::Ordering::Less));
                }
                Op::Jump(t) => {
                    ip = t as usize;
                    self.charge_fuel(u64::from(charge[ip]))?;
                    sample!(ip);
                }
                Op::JumpIfFalse(t) => {
                    let cond = pop!().as_condition()?;
                    if !cond {
                        ip = t as usize;
                    }
                    self.charge_fuel(u64::from(charge[ip]))?;
                    sample!(ip);
                }
                Op::AndJump(t) => {
                    if !stack.last().expect("stack").as_condition()? {
                        ip = t as usize;
                    } else {
                        stack.pop();
                    }
                    self.charge_fuel(u64::from(charge[ip]))?;
                    sample!(ip);
                }
                Op::OrJump(t) => {
                    if stack.last().expect("stack").as_condition()? {
                        ip = t as usize;
                    } else {
                        stack.pop();
                    }
                    self.charge_fuel(u64::from(charge[ip]))?;
                    sample!(ip);
                }
                Op::Call { func: callee, argc } => {
                    // The current frame is not in `frames`, so the depth
                    // about to be reached is `frames.len() + 2`; this is
                    // the same limit the seed enforced.
                    if frames.len() as u32 + 1 >= self.budget.call_depth {
                        return Err(RuntimeError::StackOverflow);
                    }
                    let f = &program.functions[callee as usize];
                    let split = stack.len() - argc as usize;
                    let mut callee_locals: Vec<Value> = stack.split_off(split);
                    callee_locals.resize(f.n_locals, Value::Nil);
                    frames.push(Frame {
                        func,
                        ret_ip: ip,
                        locals: std::mem::replace(&mut locals, callee_locals),
                    });
                    func = callee as usize;
                    code = &f.code;
                    charge = &f.charge;
                    ip = 0;
                    self.stats.max_depth = self.stats.max_depth.max(frames.len() as u32 + 1);
                    self.charge_fuel(u64::from(charge[0]))?;
                    sample!(0usize);
                }
                Op::CallHost { host, argc } => {
                    self.stats.host_calls += 1;
                    let split = stack.len() - argc as usize;
                    let idx = self.host_map[host as usize];
                    let v = self.registry.call(idx, ctx, &mut stack[split..])?;
                    stack.truncate(split);
                    self.charge_alloc(&v)?;
                    stack.push(v);
                    // A host call ends its basic block; charge the
                    // resumption block.
                    self.charge_fuel(u64::from(charge[ip]))?;
                    sample!(ip);
                }
                Op::Return => {
                    let v = pop!();
                    match frames.pop() {
                        None => return Ok(v),
                        Some(caller) => {
                            func = caller.func;
                            ip = caller.ret_ip;
                            locals = caller.locals;
                            let f = &program.functions[func];
                            code = &f.code;
                            charge = &f.charge;
                            stack.push(v);
                            self.charge_fuel(u64::from(charge[ip]))?;
                            sample!(ip);
                        }
                    }
                }
                Op::Pop => {
                    let _ = pop!();
                }
                Op::MakeList(n) => {
                    let split = stack.len() - n as usize;
                    let items: Vec<Value> = stack.split_off(split);
                    let v = Value::list(items);
                    self.charge_alloc(&v)?;
                    stack.push(v);
                }
                Op::MakeMap(n) => {
                    let split = stack.len() - 2 * n as usize;
                    let mut items = stack.split_off(split);
                    let mut map = std::collections::BTreeMap::new();
                    // Pairs were pushed key, value, key, value, ...
                    for _ in 0..n {
                        let v = items.pop().expect("pair");
                        let k = items.pop().expect("pair");
                        let key = match k {
                            Value::Str(s) => s,
                            other => {
                                return Err(RuntimeError::TypeError {
                                    message: format!(
                                        "map keys must be str, got {}",
                                        other.type_name()
                                    ),
                                })
                            }
                        };
                        map.insert(key, v);
                    }
                    let v = Value::map(map);
                    self.charge_alloc(&v)?;
                    stack.push(v);
                }
                Op::Index => {
                    let idx = pop!();
                    let base = pop!();
                    let v = ops::index(&base, &idx)?;
                    self.charge_clone(&v)?;
                    stack.push(v);
                }
                Op::IndexSetLocal { slot, depth } => {
                    let value = pop!();
                    let split = stack.len() - depth as usize;
                    let indices: Vec<Value> = stack.split_off(split);
                    let root = &mut locals[slot as usize];
                    index_set_path(root, &indices, value)?;
                }
                Op::IndexSetGlobal { slot, depth } => {
                    let value = pop!();
                    let split = stack.len() - depth as usize;
                    let indices: Vec<Value> = stack.split_off(split);
                    let root = &mut self.globals[slot as usize];
                    index_set_path(root, &indices, value)?;
                }
                Op::IterList => {
                    let v = pop!();
                    let list = match v {
                        Value::List(items) => {
                            let v = Value::List(items);
                            self.charge_clone(&v)?;
                            v
                        }
                        Value::Map(map) => {
                            let v = Value::list(map.keys().cloned().map(Value::Str).collect());
                            self.charge_alloc(&v)?;
                            v
                        }
                        Value::Str(s) => {
                            let v =
                                Value::list(s.chars().map(|c| Value::Str(c.to_string())).collect());
                            self.charge_alloc(&v)?;
                            v
                        }
                        other => {
                            return Err(RuntimeError::TypeError {
                                message: format!("cannot iterate over {}", other.type_name()),
                            })
                        }
                    };
                    stack.push(list);
                }
                Op::Len => {
                    let v = pop!();
                    let n = match v {
                        Value::List(items) => items.len(),
                        Value::Str(s) => s.chars().count(),
                        Value::Map(m) => m.len(),
                        other => {
                            return Err(RuntimeError::TypeError {
                                message: format!("no length for {}", other.type_name()),
                            })
                        }
                    };
                    stack.push(Value::Int(n as i64));
                }
            }
        }
    }
}

/// Navigates `root` through all but the last index, then assigns at the
/// last index.
fn index_set_path(root: &mut Value, indices: &[Value], value: Value) -> Result<(), RuntimeError> {
    let (last, path) = indices.split_last().expect("depth >= 1");
    let mut cur = root;
    for idx in path {
        cur = index_get_mut(cur, idx)?;
    }
    ops::index_set(cur, last.clone(), value)
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
    use crate::compile_program;

    fn run(src: &str, entry: &str, args: &[Value]) -> Result<Value, RuntimeError> {
        let reg: HostRegistry<()> = HostRegistry::with_stdlib();
        let program = compile_program(src, &reg).expect("program compiles");
        let mut inst = Instance::new(Arc::new(program));
        inst.invoke(entry, args, &mut (), &reg, Budget::default())
    }

    fn run_main(src: &str) -> Result<Value, RuntimeError> {
        run(src, "main", &[])
    }

    #[test]
    fn arithmetic_and_return() {
        assert_eq!(run_main("fn main() { return 2 + 3 * 4; }").unwrap(), Value::Int(14));
        assert_eq!(run_main("fn main() { return (2 + 3) * 4; }").unwrap(), Value::Int(20));
        assert_eq!(run_main("fn main() { return 7.0 / 2; }").unwrap(), Value::Float(3.5));
        assert_eq!(run_main("fn main() { return -3 % 2; }").unwrap(), Value::Int(-1));
    }

    #[test]
    fn implicit_nil_return() {
        assert_eq!(run_main("fn main() { var x = 1; x = x; }").unwrap(), Value::Nil);
        assert_eq!(run_main("fn main() { return; }").unwrap(), Value::Nil);
    }

    #[test]
    fn conditionals() {
        let src = "fn main(x) { if (x > 10) { return \"big\"; } else if (x > 5) { \
                   return \"mid\"; } else { return \"small\"; } }";
        assert_eq!(run(src, "main", &[Value::Int(20)]).unwrap(), Value::from("big"));
        assert_eq!(run(src, "main", &[Value::Int(7)]).unwrap(), Value::from("mid"));
        assert_eq!(run(src, "main", &[Value::Int(1)]).unwrap(), Value::from("small"));
    }

    #[test]
    fn while_loop_with_break_continue() {
        let src = "fn main() { var t = 0; var i = 0; while (true) { i = i + 1; \
                   if (i > 10) { break; } if (i % 2 == 0) { continue; } t = t + i; } return t; }";
        assert_eq!(run_main(src).unwrap(), Value::Int(25)); // 1+3+5+7+9
    }

    #[test]
    fn for_in_over_list_map_str() {
        assert_eq!(
            run_main("fn main() { var t = 0; for (x in [1,2,3,4]) { t = t + x; } return t; }")
                .unwrap(),
            Value::Int(10)
        );
        assert_eq!(
            run_main(
                "fn main() { var ks = \"\"; for (k in {\"b\": 1, \"a\": 2}) { ks = ks + k; } \
                 return ks; }"
            )
            .unwrap(),
            Value::from("ab") // map iteration is ordered
        );
        assert_eq!(
            run_main("fn main() { var n = 0; for (c in \"héllo\") { n = n + 1; } return n; }")
                .unwrap(),
            Value::Int(5)
        );
    }

    #[test]
    fn nested_loops_with_break() {
        let src = "fn main() { var hits = 0; for (i in [1,2,3]) { for (j in [1,2,3]) { \
                   if (j == i) { break; } hits = hits + 1; } } return hits; }";
        assert_eq!(run_main(src).unwrap(), Value::Int(3)); // 0+1+2
    }

    #[test]
    fn function_calls_and_recursion() {
        assert_eq!(
            run_main(
                "fn fact(n) { if (n <= 1) { return 1; } return n * fact(n - 1); } \
                 fn main() { return fact(10); }"
            )
            .unwrap(),
            Value::Int(3_628_800)
        );
        assert_eq!(
            run_main(
                "fn even(n) { if (n == 0) { return true; } return odd(n - 1); } \
                 fn odd(n) { if (n == 0) { return false; } return even(n - 1); } \
                 fn main() { return even(20); }"
            )
            .unwrap(),
            Value::Bool(true)
        );
    }

    #[test]
    fn globals_persist_across_invocations() {
        let reg: HostRegistry<()> = HostRegistry::with_stdlib();
        let program =
            compile_program("var hits = 0; fn bump() { hits = hits + 1; return hits; }", &reg)
                .unwrap();
        let program = Arc::new(program);
        let mut a = Instance::new(Arc::clone(&program));
        let mut b = Instance::new(program);
        for _ in 0..3 {
            a.invoke("bump", &[], &mut (), &reg, Budget::default()).unwrap();
        }
        let vb = b.invoke("bump", &[], &mut (), &reg, Budget::default()).unwrap();
        assert_eq!(a.global("hits"), Some(&Value::Int(3)));
        assert_eq!(vb, Value::Int(1)); // instances are independent
    }

    #[test]
    fn global_initializers_can_compute() {
        let v = run(
            "var table = [1, 2, 3]; var total = sum(table); fn main() { return total; }",
            "main",
            &[],
        )
        .unwrap();
        assert_eq!(v, Value::Int(6));
    }

    #[test]
    fn short_circuit_evaluation() {
        // The RHS would divide by zero if evaluated.
        assert_eq!(
            run_main("fn main() { return false && (1 / 0 == 1); }").unwrap(),
            Value::Bool(false)
        );
        assert_eq!(
            run_main("fn main() { return true || (1 / 0 == 1); }").unwrap(),
            Value::Bool(true)
        );
        assert_eq!(run_main("fn main() { return true && false; }").unwrap(), Value::Bool(false));
    }

    #[test]
    fn lists_and_maps() {
        assert_eq!(
            run_main("fn main() { var xs = [1,2,3]; xs[1] = 9; return xs[1] + xs[2]; }").unwrap(),
            Value::Int(12)
        );
        assert_eq!(
            run_main("fn main() { var m = {\"a\": 1}; m[\"b\"] = 2; return m[\"a\"] + m[\"b\"]; }")
                .unwrap(),
            Value::Int(3)
        );
        assert_eq!(
            run_main(
                "fn main() { var m = {\"in\": {\"x\": 1}}; m[\"in\"][\"x\"] = 5; \
                 return m[\"in\"][\"x\"]; }"
            )
            .unwrap(),
            Value::Int(5)
        );
        assert_eq!(
            run_main(
                "fn main() { var g = [[1,2],[3,4]]; g[1][0] = 30; return g[1][0] + g[0][1]; }"
            )
            .unwrap(),
            Value::Int(32)
        );
    }

    #[test]
    fn runtime_faults_are_reported() {
        assert_eq!(
            run_main("fn main() { return 1 / 0; }").unwrap_err(),
            RuntimeError::DivisionByZero
        );
        assert!(matches!(
            run_main("fn main() { return [1][5]; }").unwrap_err(),
            RuntimeError::BadIndex { .. }
        ));
        assert!(matches!(
            run_main("fn main() { return 1 + \"x\"; }").unwrap_err(),
            RuntimeError::TypeError { .. }
        ));
        assert!(matches!(
            run_main("fn main() { if (1) { } return 0; }").unwrap_err(),
            RuntimeError::TypeError { .. }
        ));
    }

    #[test]
    fn fuel_budget_stops_infinite_loops() {
        let reg: HostRegistry<()> = HostRegistry::with_stdlib();
        let program = compile_program("fn main() { while (true) { } return 0; }", &reg).unwrap();
        let mut inst = Instance::new(Arc::new(program));
        let budget = Budget { fuel: 10_000, ..Budget::default() };
        let err = inst.invoke("main", &[], &mut (), &reg, budget).unwrap_err();
        assert_eq!(err, RuntimeError::OutOfFuel);
        assert!(inst.last_stats().fuel_used >= 10_000);
    }

    #[test]
    fn memory_budget_stops_hoarders() {
        let reg: HostRegistry<()> = HostRegistry::with_stdlib();
        let program = compile_program(
            "fn main() { var s = \"x\"; while (true) { s = s + s; } return 0; }",
            &reg,
        )
        .unwrap();
        let mut inst = Instance::new(Arc::new(program));
        let budget = Budget { memory: 100_000, ..Budget::default() };
        let err = inst.invoke("main", &[], &mut (), &reg, budget).unwrap_err();
        assert_eq!(err, RuntimeError::OutOfMemory);
    }

    #[test]
    fn call_depth_budget_stops_runaway_recursion() {
        let reg: HostRegistry<()> = HostRegistry::with_stdlib();
        let program =
            compile_program("fn f(n) { return f(n + 1); } fn main() { return f(0); }", &reg)
                .unwrap();
        let mut inst = Instance::new(Arc::new(program));
        let err = inst.invoke("main", &[], &mut (), &reg, Budget::default()).unwrap_err();
        assert_eq!(err, RuntimeError::StackOverflow);
        assert!(inst.last_stats().max_depth <= Budget::default().call_depth);
    }

    #[test]
    fn bad_entry_points() {
        assert!(matches!(
            run("fn main() { return 0; }", "absent", &[]).unwrap_err(),
            RuntimeError::NoSuchFunction { .. }
        ));
        assert!(matches!(
            run("fn main(a) { return a; }", "main", &[]).unwrap_err(),
            RuntimeError::BadInvocation { expected: 1, found: 0 }
        ));
    }

    #[test]
    fn host_stdlib_integration() {
        assert_eq!(
            run_main("fn main() { var parts = split(\"10.0.0.1\", \".\"); return len(parts); }")
                .unwrap(),
            Value::Int(4)
        );
        assert_eq!(
            run_main("fn main() { return join(sort([3,1,2]), \"<\"); }").unwrap(),
            Value::from("1<2<3")
        );
    }

    #[test]
    fn host_context_side_effects() {
        struct Ctx {
            log: Vec<String>,
        }
        let mut reg: HostRegistry<Ctx> = HostRegistry::with_stdlib();
        reg.register("log", 1, |ctx, args| {
            ctx.log.push(args[0].to_string());
            Ok(Value::Nil)
        });
        let program = compile_program(
            "fn main() { for (i in range(3)) { log(\"tick \" + str(i)); } return 0; }",
            &reg,
        )
        .unwrap();
        let mut ctx = Ctx { log: Vec::new() };
        let mut inst = Instance::new(Arc::new(program));
        inst.invoke("main", &[], &mut ctx, &reg, Budget::default()).unwrap();
        assert_eq!(ctx.log, vec!["tick 0", "tick 1", "tick 2"]);
        assert!(inst.last_stats().host_calls >= 6); // range + str*3 + log*3
    }

    #[test]
    fn missing_host_binding_detected_at_invoke() {
        let mut reg_full: HostRegistry<()> = HostRegistry::with_stdlib();
        reg_full.register("extra", 0, |_, _| Ok(Value::Int(1)));
        let program = compile_program("fn main() { return extra(); }", &reg_full).unwrap();
        let reg_bare: HostRegistry<()> = HostRegistry::with_stdlib();
        let mut inst = Instance::new(Arc::new(program));
        let err = inst.invoke("main", &[], &mut (), &reg_bare, Budget::default()).unwrap_err();
        assert!(matches!(err, RuntimeError::Host { name, .. } if name == "extra"));
    }

    #[test]
    fn stats_are_recorded() {
        let reg: HostRegistry<()> = HostRegistry::with_stdlib();
        let program = compile_program(
            "fn main() { var t = 0; for (i in range(100)) { t = t + i; } return t; }",
            &reg,
        )
        .unwrap();
        let mut inst = Instance::new(Arc::new(program));
        let v = inst.invoke("main", &[], &mut (), &reg, Budget::default()).unwrap();
        assert_eq!(v, Value::Int(4950));
        let stats = inst.last_stats();
        assert!(stats.fuel_used > 100);
        assert!(stats.memory_used > 0);
        assert_eq!(stats.max_depth, 1);
    }

    /// A string accumulator the compiler moves instead of copying is
    /// charged its bytes on every load, exactly as the copying code was
    /// (fuel and memory measured before the move existed).
    #[test]
    fn moved_accumulators_are_charged_as_copies() {
        let reg: HostRegistry<()> = HostRegistry::with_stdlib();
        let program = compile_program(
            "fn main() { var s = \"0123456789abcdef\"; for (i in range(20)) { s = s + \"x\"; } \
             return len(s); }",
            &reg,
        )
        .unwrap();
        let mut inst = Instance::new(Arc::new(program));
        let v = inst.invoke("main", &[], &mut (), &reg, Budget::default()).unwrap();
        assert_eq!(v, Value::Int(36));
        let stats = inst.last_stats();
        assert_eq!((stats.fuel_used, stats.memory_used), (381, 140));
    }

    #[test]
    fn deep_but_legal_recursion_succeeds() {
        let reg: HostRegistry<()> = HostRegistry::with_stdlib();
        let program = compile_program(
            "fn down(n) { if (n == 0) { return 0; } return down(n - 1); } \
             fn main() { return down(50); }",
            &reg,
        )
        .unwrap();
        let mut inst = Instance::new(Arc::new(program));
        let v = inst.invoke("main", &[], &mut (), &reg, Budget::default()).unwrap();
        assert_eq!(v, Value::Int(0));
        // main + down(50), down(49), ..., down(0) = 52 frames.
        assert_eq!(inst.last_stats().max_depth, 52);
    }
}
