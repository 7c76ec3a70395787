use crate::Value;
use std::collections::HashMap;
use std::fmt;

/// One VM instruction. Jump targets are absolute indices within the
/// enclosing function's code.
///
/// `Op` is deliberately `Copy` (every payload is a small scalar): the
/// dispatch loop reads instructions by value, so fetching the next op is
/// a plain load instead of a `clone()` call per instruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Op {
    /// Push constant `consts[i]`.
    Const(u16),
    /// Push `nil`.
    Nil,
    /// Push `true`/`false`.
    Bool(bool),
    /// Push a copy of local slot `i`.
    LoadLocal(u16),
    /// Move local slot `i` onto the stack, leaving `nil` behind. Emitted
    /// only where the slot is overwritten before anything can read it
    /// again (see `compile::takes`); costs and charges as `LoadLocal`.
    TakeLocal(u16),
    /// Pop into local slot `i`.
    StoreLocal(u16),
    /// Push a copy of global slot `i`.
    LoadGlobal(u16),
    /// Pop into global slot `i`.
    StoreGlobal(u16),
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Neg,
    Not,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    /// Unconditional jump.
    Jump(u32),
    /// Pop a bool; jump if false.
    JumpIfFalse(u32),
    /// Short-circuit `&&`: if top is false, leave it and jump; else pop.
    AndJump(u32),
    /// Short-circuit `||`: if top is true, leave it and jump; else pop.
    OrJump(u32),
    /// Call program function `func` with `argc` arguments on the stack.
    Call {
        func: u16,
        argc: u8,
    },
    /// Call host function `host` (program-level host table index).
    CallHost {
        host: u16,
        argc: u8,
    },
    /// Return with the top of stack as the value.
    Return,
    /// Discard the top of stack.
    Pop,
    /// Pop `n` items into a new list (first pushed = first element).
    MakeList(u16),
    /// Pop `2n` items (key/value pairs) into a new map.
    MakeMap(u16),
    /// Pop index then base; push `base[index]`.
    Index,
    /// Pop value and `depth` indices; mutate through local slot `slot`.
    IndexSetLocal {
        slot: u16,
        depth: u8,
    },
    /// As above, through global slot `slot`.
    IndexSetGlobal {
        slot: u16,
        depth: u8,
    },
    /// Pop a value; push its iteration list (list as-is, map keys,
    /// str chars).
    IterList,
    /// Pop a value; push its length as Int (lists only; used by for-in).
    Len,
}

/// Metadata about one compiled function, exposed for introspection and
/// for the RDS `listDPs` operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunctionInfo {
    /// Function name.
    pub name: String,
    /// Number of parameters.
    pub arity: usize,
    /// Number of bytecode instructions.
    pub code_len: usize,
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Function {
    pub name: String,
    pub arity: usize,
    pub n_locals: usize,
    pub code: Vec<Op>,
    /// `charge[pc]` — total fuel cost of the straight-line run starting
    /// at `pc` and ending at (and including) the end of its basic block.
    /// The VM charges this once per block entry instead of doing a
    /// checked add + branch per instruction; see
    /// [`compute_charge_table`].
    pub charge: Vec<u32>,
}

impl Function {
    /// Builds a function, deriving the per-block fuel charge table from
    /// the code.
    pub fn new(name: String, arity: usize, n_locals: usize, code: Vec<Op>) -> Function {
        let charge = compute_charge_table(&code);
        Function { name, arity, n_locals, code, charge }
    }
}

/// The fuel price of one instruction — the unit established by the seed
/// VM (one per instruction, plus two extra for a program call and four
/// extra for a host call).
pub(crate) fn op_fuel(op: Op) -> u32 {
    match op {
        Op::Call { .. } => 3,
        Op::CallHost { .. } => 5,
        _ => 1,
    }
}

/// Computes, for every pc, the summed fuel cost of the instructions from
/// `pc` through the end of the basic block containing it.
///
/// Block boundaries are the classic leaders: the function entry, every
/// jump target, and the instruction after any control transfer (jumps,
/// branches, calls — a call resumes there, so it must start a block —
/// and returns). Because the VM only ever *enters* code at a leader
/// (function entry, taken branch, branch fall-through, call return), it
/// can charge `charge[entry_pc]` once and then execute the whole block
/// without per-instruction fuel checks; every executed instruction is
/// charged exactly once, so total fuel on a completed run is identical
/// to per-instruction charging. Abort points move only within a basic
/// block (documented in `docs/DPL.md`).
pub(crate) fn compute_charge_table(code: &[Op]) -> Vec<u32> {
    let mut leader = vec![false; code.len() + 1];
    if !code.is_empty() {
        leader[0] = true;
    }
    for (pc, op) in code.iter().enumerate() {
        match op {
            Op::Jump(t) | Op::JumpIfFalse(t) | Op::AndJump(t) | Op::OrJump(t) => {
                leader[*t as usize] = true;
                leader[pc + 1] = true;
            }
            Op::Call { .. } | Op::CallHost { .. } | Op::Return => {
                leader[pc + 1] = true;
            }
            _ => {}
        }
    }
    let mut charge = vec![0u32; code.len()];
    for pc in (0..code.len()).rev() {
        let rest = if pc + 1 < code.len() && !leader[pc + 1] { charge[pc + 1] } else { 0 };
        charge[pc] = op_fuel(code[pc]).saturating_add(rest);
    }
    charge
}

/// A compiled delegated program: constants, functions, global slots and
/// the host-function names it binds to.
///
/// Programs are immutable and cheaply cloneable; every
/// [`Instance`](crate::Instance) shares the same compiled code.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    pub(crate) consts: Vec<Value>,
    pub(crate) functions: Vec<Function>,
    pub(crate) fn_by_name: HashMap<String, usize>,
    pub(crate) global_names: Vec<String>,
    /// Host functions referenced by the program, by name; `CallHost`
    /// indexes into this table, which is re-resolved against the registry
    /// at invocation time.
    pub(crate) host_names: Vec<String>,
    /// Index of the synthetic `#init` function that evaluates global
    /// initializers (run once, lazily, per instance).
    pub(crate) init_fn: usize,
}

impl Program {
    /// Per-function metadata, in definition order.
    pub fn functions(&self) -> Vec<FunctionInfo> {
        self.functions
            .iter()
            .map(|f| FunctionInfo { name: f.name.clone(), arity: f.arity, code_len: f.code.len() })
            .collect()
    }

    /// Whether the program defines `name`.
    pub fn has_function(&self, name: &str) -> bool {
        self.fn_by_name.contains_key(name)
    }

    /// Names of the persistent globals (dpi state variables).
    pub fn global_names(&self) -> &[String] {
        &self.global_names
    }

    /// Host functions this program binds to.
    pub fn host_bindings(&self) -> &[String] {
        &self.host_names
    }

    /// Total instruction count across all functions (a proxy for dp size
    /// used in the delegation-cost experiments).
    pub fn code_size(&self) -> usize {
        self.functions.iter().map(|f| f.code.len()).sum::<usize>()
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "program: {} function(s), {} global(s), {} instruction(s)",
            self.functions.len(),
            self.global_names.len(),
            self.code_size()
        )
    }
}
