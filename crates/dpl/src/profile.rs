//! A sampling profiler for delegated-program instances.
//!
//! The VM already charges fuel once per basic-block *entry* (function
//! entry, branch target, fall-through, call entry, call/return resume —
//! see [`compute_charge_table`](crate::bytecode::compute_charge_table)).
//! A [`Profile`] piggybacks on exactly those sites: every block entry
//! decrements a countdown, and every `sample_every`-th entry records one
//! **sample** — the current call stack (function indices), the entered
//! block's leader ip, and the fuel and wall-time accrued since the
//! previous sample. Attribution is the classic sampling approximation:
//! the whole delta is credited to the block being entered, which
//! converges on the true distribution as samples accumulate.
//!
//! Sampling keeps the profiler off the dispatch hot path: the VM pays
//! one plain countdown decrement per block whether profiling is on or
//! off (off counts down from a `u32::MAX` sentinel), with the clock
//! read and stack walk confined to the sampled 1-in-N entries
//! (the decrement is inside E10's dispatch ns/op budgets).
//!
//! Aggregated samples export two ways: [`Profile::rows`] for tables
//! (the `mbdProfile` OCP subtree) and [`Profile::folded`] for
//! `flamegraph.pl`-style folded stacks (`main;worker@12 340`).

use crate::bytecode::Program;
use std::collections::BTreeMap;
use std::time::Instant;

/// Aggregate for one (call stack, basic block) pair.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct BlockStat {
    samples: u64,
    fuel: u64,
    wall_ns: u64,
}

/// One exported profile row: a resolved call stack, the sampled block's
/// leader ip, and what was attributed to it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockProfile {
    /// Function names, outermost first; the last entry owns `leader_ip`.
    pub stack: Vec<String>,
    /// Instruction index of the sampled basic block's first op.
    pub leader_ip: u32,
    /// Samples that landed on this (stack, block).
    pub samples: u64,
    /// Fuel attributed to this (stack, block).
    pub fuel: u64,
    /// Wall time attributed to this (stack, block).
    pub wall_ns: u64,
}

impl BlockProfile {
    /// This row as one folded-stack line:
    /// `outer;inner@LEADER_IP SAMPLES` (flamegraph.pl input format,
    /// with samples as the weight).
    pub fn folded_line(&self) -> String {
        format!("{}@{} {}", self.stack.join(";"), self.leader_ip, self.samples)
    }
}

/// Sampling state for one [`Instance`](crate::Instance).
#[derive(Debug, Clone)]
pub struct Profile {
    sample_every: u32,
    countdown: u32,
    total_samples: u64,
    /// Fuel counter value at the previous sample (per invocation).
    last_fuel: u64,
    /// Wall clock at the previous sample (cleared between invocations
    /// so idle time between polls is never attributed to code).
    last_instant: Option<Instant>,
    /// (stack of function indices, leader ip) → aggregate.
    blocks: BTreeMap<(Vec<u32>, u32), BlockStat>,
}

impl Profile {
    /// A profiler sampling one block entry in `sample_every` (clamped
    /// to at least 1 = every block).
    pub fn new(sample_every: u32) -> Profile {
        let sample_every = sample_every.max(1);
        Profile {
            sample_every,
            countdown: sample_every,
            total_samples: 0,
            last_fuel: 0,
            last_instant: None,
            blocks: BTreeMap::new(),
        }
    }

    /// The configured 1-in-N rate.
    pub fn sample_every(&self) -> u32 {
        self.sample_every
    }

    /// Total samples recorded so far.
    pub fn samples(&self) -> u64 {
        self.total_samples
    }

    /// Resets the per-invocation deltas (the fuel counter restarts at
    /// zero each invocation, and inter-invocation idle time must not be
    /// charged to the first sampled block).
    pub(crate) fn begin_invocation(&mut self) {
        self.last_fuel = 0;
        self.last_instant = None;
    }

    /// Blocks left until the next sample. The VM copies this into a
    /// plain field for the dispatch loop (one decrement per block) and
    /// writes it back via [`Profile::set_countdown`] when the
    /// invocation ends, so the 1-in-N phase spans invocations.
    pub(crate) fn countdown(&self) -> u32 {
        self.countdown
    }

    /// Restores the countdown after a VM run (clamped to a sane
    /// 1..=`sample_every` so a stale or foreign value cannot stall
    /// sampling).
    pub(crate) fn set_countdown(&mut self, countdown: u32) {
        self.countdown = countdown.clamp(1, self.sample_every);
    }

    /// Records one sample: `stack` is the live call stack as function
    /// indices (outermost first, current function last), `leader_ip`
    /// the entered block's first instruction, `fuel_used` the VM's
    /// running fuel counter.
    pub(crate) fn record(&mut self, stack: Vec<u32>, leader_ip: u32, fuel_used: u64) {
        let now = Instant::now();
        let wall_ns = match self.last_instant {
            Some(prev) => u64::try_from(now.duration_since(prev).as_nanos()).unwrap_or(u64::MAX),
            None => 0,
        };
        let fuel = fuel_used.saturating_sub(self.last_fuel);
        self.last_instant = Some(now);
        self.last_fuel = fuel_used;
        self.total_samples += 1;
        let stat = self.blocks.entry((stack, leader_ip)).or_default();
        stat.samples += 1;
        stat.fuel += fuel;
        stat.wall_ns += wall_ns;
    }

    /// The aggregated profile with stacks resolved to function names
    /// against `program`, hottest (most samples) first.
    pub fn rows(&self, program: &Program) -> Vec<BlockProfile> {
        let name = |i: &u32| {
            program
                .functions
                .get(*i as usize)
                .map(|f| f.name.clone())
                .unwrap_or_else(|| format!("#fn{i}"))
        };
        let mut rows: Vec<BlockProfile> = self
            .blocks
            .iter()
            .map(|((stack, leader_ip), stat)| BlockProfile {
                stack: stack.iter().map(name).collect(),
                leader_ip: *leader_ip,
                samples: stat.samples,
                fuel: stat.fuel,
                wall_ns: stat.wall_ns,
            })
            .collect();
        rows.sort_by(|a, b| b.samples.cmp(&a.samples).then(a.leader_ip.cmp(&b.leader_ip)));
        rows
    }

    /// The profile as folded-stack lines (hottest first), ready for
    /// flamegraph tooling.
    pub fn folded(&self, program: &Program) -> Vec<String> {
        self.rows(program).iter().map(BlockProfile::folded_line).collect()
    }
}

#[cfg(test)]
mod tests {
    use crate::{compile_program, Budget, HostRegistry, Instance, Value};
    use std::sync::Arc;

    fn profiled_instance(src: &str, sample_every: u32) -> (Instance, HostRegistry<()>) {
        let reg: HostRegistry<()> = HostRegistry::with_stdlib();
        let program = compile_program(src, &reg).expect("compiles");
        let mut inst = Instance::new(Arc::new(program));
        inst.enable_profiling(sample_every);
        (inst, reg)
    }

    #[test]
    fn a_looping_dp_attributes_most_samples_to_the_loop_blocks() {
        let src = "fn main(n) { var i = 0; var t = 0; \
                   while (i < n) { i = i + 1; t = t + i; } return t; }";
        let (mut inst, reg) = profiled_instance(src, 1);
        let v =
            inst.invoke("main", &[Value::Int(5_000)], &mut (), &reg, Budget::default()).unwrap();
        assert_eq!(v, Value::Int(12_502_500));
        let rows = inst.profile_rows();
        let total: u64 = rows.iter().map(|r| r.samples).sum();
        assert!(total > 5_000, "every block entry sampled at 1-in-1");
        // The loop alternates between its condition and body blocks;
        // together they dominate the one-shot entry/exit blocks.
        let loop_samples: u64 = rows.iter().take(2).map(|r| r.samples).sum();
        assert!(
            loop_samples * 10 >= total * 8,
            "loop blocks hold {loop_samples}/{total} samples, want >= 80%"
        );
        for r in rows.iter().take(2) {
            assert_eq!(r.stack, vec!["main".to_string()]);
        }
    }

    #[test]
    fn sampling_thins_by_the_configured_rate() {
        let src = "fn main(n) { var i = 0; while (i < n) { i = i + 1; } return i; }";
        let (mut dense, reg) = profiled_instance(src, 1);
        dense.invoke("main", &[Value::Int(1_000)], &mut (), &reg, Budget::default()).unwrap();
        let (mut sparse, reg2) = profiled_instance(src, 16);
        sparse.invoke("main", &[Value::Int(1_000)], &mut (), &reg2, Budget::default()).unwrap();
        let d = dense.profile_samples();
        let s = sparse.profile_samples();
        assert!(d >= 2_000, "dense saw {d}");
        assert!(s * 8 <= d, "1-in-16 sampling should record far fewer ({s} vs {d})");
        assert!(s > 0, "but still something");
    }

    #[test]
    fn sampled_fuel_accounts_for_the_whole_run() {
        let src = "fn main(n) { var i = 0; while (i < n) { i = i + 1; } return i; }";
        let (mut inst, reg) = profiled_instance(src, 1);
        inst.invoke("main", &[Value::Int(500)], &mut (), &reg, Budget::default()).unwrap();
        let rows = inst.profile_rows();
        let fuel: u64 = rows.iter().map(|r| r.fuel).sum();
        let used = inst.last_stats().fuel_used;
        // At 1-in-1 every charged block is sampled, so attributed fuel
        // equals the meter.
        assert_eq!(fuel, used);
    }

    #[test]
    fn stacks_resolve_through_calls() {
        let src = "fn leaf(n) { var i = 0; while (i < n) { i = i + 1; } return i; } \
                   fn main() { return leaf(2000); }";
        let (mut inst, reg) = profiled_instance(src, 1);
        inst.invoke("main", &[], &mut (), &reg, Budget::default()).unwrap();
        let folded = inst.profile_folded();
        assert!(!folded.is_empty());
        let hot = &folded[0];
        assert!(hot.starts_with("main;leaf@"), "hottest stack is the loop in leaf: {hot}");
        let weight: u64 = hot.rsplit(' ').next().unwrap().parse().unwrap();
        assert!(weight >= 1_000);
    }

    #[test]
    fn profiling_disabled_records_nothing() {
        let reg: HostRegistry<()> = HostRegistry::with_stdlib();
        let program = compile_program("fn main() { return 1; }", &reg).unwrap();
        let mut inst = Instance::new(Arc::new(program));
        inst.invoke("main", &[], &mut (), &reg, Budget::default()).unwrap();
        assert_eq!(inst.profile_samples(), 0);
        assert!(inst.profile_rows().is_empty());
        assert!(!inst.profiling_enabled());
    }

    #[test]
    fn idle_time_between_invocations_is_not_attributed() {
        let src = "fn main() { var i = 0; while (i < 50) { i = i + 1; } return i; }";
        let (mut inst, reg) = profiled_instance(src, 1);
        inst.invoke("main", &[], &mut (), &reg, Budget::default()).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        inst.invoke("main", &[], &mut (), &reg, Budget::default()).unwrap();
        let wall: u64 = inst.profile_rows().iter().map(|r| r.wall_ns).sum();
        assert!(wall < 10_000_000, "20 ms of idle must not appear in the profile (saw {wall} ns)");
    }
}
