//! DPL — the Delegated Program Language.
//!
//! The MbD prototype delegated agents written in a *restricted subset of
//! ANSI C*: the server-side **Translator** compiled each delegated program
//! (dp), rejected programs that violated binding rules ("this subset
//! language restricts dps on their ability to bind to external functions —
//! the runtime maintains a predefined set of allowed functions"), and the
//! runtime executed instances (dpis) under resource control. DPL plays the
//! same role here: a small imperative language with
//!
//! - a lexer, recursive-descent [`parser`], and AST;
//! - a static [`checker`](check) enforcing the paper's translator rules:
//!   every called function must be a program function or one of the host
//!   functions the receiving server registered, with the right arity;
//!   undefined variables and duplicate definitions are rejected;
//! - a bytecode [`compiler`](compile) and a stack VM ([`Instance`]) with hard
//!   *instruction*, *memory*, and *call-depth* budgets, so a delegated
//!   agent cannot monopolize its elastic process;
//! - a [`HostRegistry`] through which the embedding server exposes its
//!   service functions (MIB access, messaging, timers) to agents.
//!
//! Program state (top-level `var`s) persists across invocations of an
//! [`Instance`], which is what lets a dpi accumulate observations between
//! management polls.
//!
//! # Examples
//!
//! ```
//! use dpl::{compile_program, HostRegistry, Instance, Budget, Value};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let registry: HostRegistry<()> = HostRegistry::with_stdlib();
//! let program = compile_program(
//!     r#"
//!     var total = 0;
//!     fn add(x) { total = total + x; return total; }
//!     "#,
//!     &registry,
//! )?;
//! let mut dpi = Instance::new(std::sync::Arc::new(program));
//! dpi.invoke("add", &[Value::Int(2)], &mut (), &registry, Budget::default())?;
//! let v = dpi.invoke("add", &[Value::Int(3)], &mut (), &registry, Budget::default())?;
//! assert_eq!(v, Value::Int(5)); // state persisted across invocations
//! # Ok(())
//! # }
//! ```

pub mod check;
pub mod compile;
pub mod host;
pub mod interp;
pub mod parser;

mod ast;
mod bytecode;
mod error;
mod lexer;
mod profile;
mod value;
mod vm;

pub use bytecode::{FunctionInfo, Program};
pub use error::{CheckError, DplError, LexError, ParseError, RuntimeError};
pub use host::{HostRegistry, Signature};
pub use parser::MAX_NESTING;
pub use profile::{BlockProfile, Profile};
pub use value::Value;
pub use vm::{Budget, Entry, Instance, VmStats};

/// Front-to-back translation: parse, check against `registry`, compile.
///
/// This is the entry point the elastic process's Translator uses; a
/// rejected program never reaches the runtime.
///
/// # Errors
///
/// Returns [`DplError`] for lexical, syntactic, or binding-rule errors.
///
/// # Examples
///
/// ```
/// use dpl::{compile_program, HostRegistry};
/// let reg: HostRegistry<()> = HostRegistry::with_stdlib();
/// assert!(compile_program("fn main() { return no_such_fn(); }", &reg).is_err());
/// ```
pub fn compile_program<C>(source: &str, registry: &HostRegistry<C>) -> Result<Program, DplError> {
    let ast = parser::parse(source)?;
    check::check(&ast, &registry.signatures())?;
    Ok(compile::compile(&ast, registry))
}
