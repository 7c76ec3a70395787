//! Property tests for the shared-code dp→dpi pipeline.
//!
//! Instances created from one `Arc<Program>` must share code (pointer
//! identity) but never state, resolution caches must track registry
//! generations rather than leak across registries, and the batched fuel
//! accounting must preserve the seed's abort semantics *exactly*: a
//! budget one unit below a run's full cost aborts, the exact cost
//! succeeds and reports the same `fuel_used`.

use dpl::{Budget, HostRegistry, Instance, RuntimeError, Value};
use proptest::prelude::*;
use std::sync::Arc;

const COUNTER_SRC: &str = "var n = 0; fn bump(by) { n = n + by; return n; }";

fn compile(src: &str) -> Arc<dpl::Program> {
    let reg: HostRegistry<()> = HostRegistry::with_stdlib();
    Arc::new(dpl::compile_program(src, &reg).expect("compiles"))
}

fn stdlib() -> HostRegistry<()> {
    HostRegistry::with_stdlib()
}

proptest! {
    #[test]
    fn shared_code_instances_have_independent_globals(
        bumps_a in proptest::collection::vec(1i64..100, 0..12),
        bumps_b in proptest::collection::vec(1i64..100, 0..12),
    ) {
        let reg = stdlib();
        let program = compile(COUNTER_SRC);
        let mut a = Instance::new(Arc::clone(&program));
        let mut b = Instance::new(Arc::clone(&program));
        prop_assert!(Arc::ptr_eq(a.program_shared(), b.program_shared()));

        // Interleave invocations; each instance's counter must follow its
        // own bump sequence, never the other's.
        let (mut sum_a, mut sum_b) = (0i64, 0i64);
        for i in 0..bumps_a.len().max(bumps_b.len()) {
            if let Some(&by) = bumps_a.get(i) {
                sum_a += by;
                let v = a
                    .invoke("bump", &[Value::Int(by)], &mut (), &reg, Budget::default())
                    .expect("bump runs");
                prop_assert_eq!(v, Value::Int(sum_a));
            }
            if let Some(&by) = bumps_b.get(i) {
                sum_b += by;
                let v = b
                    .invoke("bump", &[Value::Int(by)], &mut (), &reg, Budget::default())
                    .expect("bump runs");
                prop_assert_eq!(v, Value::Int(sum_b));
            }
        }
        // Globals initialize lazily, so an instance that was never
        // invoked still reads Nil.
        let expect_a = if bumps_a.is_empty() { Value::Nil } else { Value::Int(sum_a) };
        let expect_b = if bumps_b.is_empty() { Value::Nil } else { Value::Int(sum_b) };
        prop_assert_eq!(a.global("n"), Some(&expect_a));
        prop_assert_eq!(b.global("n"), Some(&expect_b));
    }

    #[test]
    fn fuel_abort_boundary_is_exact(iters in 0i64..60) {
        // The block-batched accounting must charge a completed run
        // exactly what per-instruction accounting charged: the measured
        // full cost succeeds (with identical `fuel_used`), one unit less
        // aborts with OutOfFuel.
        let src = "var base = 1; \
                   fn main(k) { var t = base; var i = 0; \
                   while (i < k) { t = t + step(i); i = i + 1; } return t; } \
                   fn step(i) { if (i % 2 == 0) { return i; } return len([i]); }";
        let reg = stdlib();
        let program = compile(src);
        let args = [Value::Int(iters)];

        let mut probe = Instance::new(Arc::clone(&program));
        probe.invoke("main", &args, &mut (), &reg, Budget::default()).expect("fits default");
        let full = probe.last_stats().fuel_used;

        // Fresh instances per probe so each run pays the same lazy-init
        // cost the measurement run paid.
        let mut exact = Instance::new(Arc::clone(&program));
        let budget = Budget { fuel: full, ..Budget::default() };
        exact.invoke("main", &args, &mut (), &reg, budget).expect("exact budget suffices");
        prop_assert_eq!(exact.last_stats().fuel_used, full);

        let mut starved = Instance::new(Arc::clone(&program));
        let budget = Budget { fuel: full - 1, ..Budget::default() };
        let err = starved.invoke("main", &args, &mut (), &reg, budget).unwrap_err();
        prop_assert_eq!(err, RuntimeError::OutOfFuel);
        prop_assert!(starved.last_stats().fuel_used > full - 1);
    }

    #[test]
    fn call_depth_boundary_is_exact(depth in 0u32..40) {
        // down(k) needs k + 2 frames (main, down(k) ... down(0)); the
        // budget admitting exactly that depth succeeds, one less aborts.
        let src = "fn down(n) { if (n == 0) { return 0; } return down(n - 1); } \
                   fn main(k) { return down(k); }";
        let reg = stdlib();
        let program = compile(src);
        let args = [Value::Int(i64::from(depth))];
        let needed = depth + 2;

        let mut inst = Instance::new(Arc::clone(&program));
        let budget = Budget { call_depth: needed, ..Budget::default() };
        inst.invoke("main", &args, &mut (), &reg, budget).expect("exact depth suffices");
        prop_assert_eq!(inst.last_stats().max_depth, needed);

        let mut inst = Instance::new(Arc::clone(&program));
        let budget = Budget { call_depth: needed - 1, ..Budget::default() };
        let err = inst.invoke("main", &args, &mut (), &reg, budget).unwrap_err();
        prop_assert_eq!(err, RuntimeError::StackOverflow);
    }

    #[test]
    fn stats_are_identical_across_shared_instances(x in -50i64..50, n in 0i64..30) {
        // Same code, same inputs → byte-identical VmStats, whichever
        // Arc-sharing instance runs it.
        let src = "fn main(x, k) { var t = 0; var i = 0; \
                   while (i < k) { t = t + x * i; i = i + 1; } return [t, str(t)]; }";
        let reg = stdlib();
        let program = compile(src);
        let args = [Value::Int(x), Value::Int(n)];
        let mut a = Instance::new(Arc::clone(&program));
        let mut b = Instance::new(Arc::clone(&program));
        let va = a.invoke("main", &args, &mut (), &reg, Budget::default()).expect("runs");
        let vb = b.invoke("main", &args, &mut (), &reg, Budget::default()).expect("runs");
        prop_assert_eq!(va, vb);
        prop_assert_eq!(a.last_stats(), b.last_stats());
    }
}

#[test]
fn entry_handles_agree_with_string_invocation() {
    let reg = stdlib();
    let program = compile(COUNTER_SRC);
    let mut by_name = Instance::new(Arc::clone(&program));
    let mut by_handle = Instance::new(Arc::clone(&program));
    assert!(by_handle.entry("absent").is_none());
    let bump = by_handle.entry("bump").expect("defined");
    for i in 1..=5 {
        let a = by_name
            .invoke("bump", &[Value::Int(i)], &mut (), &reg, Budget::default())
            .expect("runs");
        let b = by_handle
            .invoke_entry(bump, &[Value::Int(i)], &mut (), &reg, Budget::default())
            .expect("runs");
        assert_eq!(a, b);
    }
    // Handles are per-program, so sibling instances can share them.
    let mut sibling = Instance::new(program);
    let v = sibling
        .invoke_entry(bump, &[Value::Int(7)], &mut (), &reg, Budget::default())
        .expect("runs");
    assert_eq!(v, Value::Int(7));
    // Arity mismatch is still caught on the handle path.
    let err = sibling.invoke_entry(bump, &[], &mut (), &reg, Budget::default()).unwrap_err();
    assert!(matches!(err, RuntimeError::BadInvocation { expected: 1, found: 0 }));
}

#[test]
fn host_resolution_cache_tracks_registry_generation() {
    let mut reg1: HostRegistry<()> = HostRegistry::with_stdlib();
    reg1.register("probe", 0, |_, _| Ok(Value::Int(1)));
    let program = {
        let src = "fn main() { return probe(); }";
        Arc::new(dpl::compile_program(src, &reg1).expect("compiles"))
    };
    let mut inst = Instance::new(program);

    // Warm the cache against reg1.
    assert_eq!(inst.invoke("main", &[], &mut (), &reg1, Budget::default()).unwrap(), Value::Int(1));
    // A clone keeps the generation (identical contents), so the cache
    // stays warm and keeps resolving correctly.
    let reg1_alias = reg1.clone();
    assert_eq!(
        inst.invoke("main", &[], &mut (), &reg1_alias, Budget::default()).unwrap(),
        Value::Int(1)
    );
    // Extending a clone (the elastic process's clone-modify-swap path)
    // bumps the generation; the instance transparently re-resolves.
    let mut reg2 = reg1.clone();
    reg2.register("later", 0, |_, _| Ok(Value::Nil));
    assert_eq!(inst.invoke("main", &[], &mut (), &reg2, Budget::default()).unwrap(), Value::Int(1));
    // An unrelated registry binding the same name differently must not
    // get a stale cache hit: generations are globally unique.
    let mut reg3: HostRegistry<()> = HostRegistry::with_stdlib();
    reg3.register("probe", 0, |_, _| Ok(Value::Int(2)));
    assert_eq!(inst.invoke("main", &[], &mut (), &reg3, Budget::default()).unwrap(), Value::Int(2));
    // And a registry lacking the binding errors, cache or no cache.
    let bare: HostRegistry<()> = HostRegistry::with_stdlib();
    let err = inst.invoke("main", &[], &mut (), &bare, Budget::default()).unwrap_err();
    assert!(matches!(err, RuntimeError::Host { name, .. } if name == "probe"));
    // The failure left the cache invalid, not poisoned: reg1 still works.
    assert_eq!(inst.invoke("main", &[], &mut (), &reg1, Budget::default()).unwrap(), Value::Int(1));
}
