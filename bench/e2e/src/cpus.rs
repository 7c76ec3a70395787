//! CPU placement for a run: which CPUs the load generator and the
//! server may use, and keeping those CPUs from idling.
//!
//! The reference host is a 2-vCPU microVM, and measured there (README,
//! "Host placement") a run left to the kernel does not measure the
//! program:
//!
//! * a thread handoff *across* vCPUs costs an inter-processor interrupt,
//!   which is a trip through the hypervisor, where one on the same vCPU
//!   costs a context switch — the serial round trip reads 35 µs when the
//!   kernel happens to put both sides on one CPU and 200 µs when it does
//!   not, and it changes its mind within a run;
//! * an idle vCPU halts, and waking it goes through the hypervisor too.
//!
//! So the gated figures are taken with everything on one CPU
//! ([`pin_to`]) that is never allowed to idle ([`KeepAwake`]), and the
//! all-CPU figures are reported beside them, ungated. A `SCHED_IDLE`
//! spinner runs only when its CPU would otherwise idle and is preempted
//! at once by any waking normal thread; it belongs to the benchmark
//! process, so it appears in no server metric.
//!
//! The three `sched_*` calls are declared here because the workspace is
//! offline and vendors no `libc` crate.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// `struct sched_param` of `<sched.h>`.
#[repr(C)]
struct SchedParam {
    sched_priority: i32,
}

/// `SCHED_IDLE` of `<sched.h>` (Linux).
const SCHED_IDLE: i32 = 5;

/// Bytes in the CPU masks passed to the affinity calls (1 024 CPUs).
const MASK_BYTES: usize = 128;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u8) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u8) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
}

/// CPUs the calling thread may run on (empty if the kernel will not say).
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u8; MASK_BYTES];
    // SAFETY: `mask` is a live, writable buffer of exactly the length
    // passed; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, MASK_BYTES, mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..MASK_BYTES * 8).filter(|cpu| mask[cpu / 8] & (1 << (cpu % 8)) != 0).collect()
}

/// Restricts the calling thread, and every thread and process it starts
/// from now on, to `cpus`. `false` if the kernel refused (the run then
/// goes unplaced, and the `host` block says so).
pub fn pin_to(cpus: &[usize]) -> bool {
    let mut mask = [0u8; MASK_BYTES];
    for &cpu in cpus.iter().filter(|&&cpu| cpu < MASK_BYTES * 8) {
        mask[cpu / 8] |= 1 << (cpu % 8);
    }
    // SAFETY: `mask` is a live buffer of exactly the length passed; pid 0
    // names the calling thread, so no other thread is touched.
    !cpus.is_empty() && unsafe { sched_setaffinity(0, MASK_BYTES, mask.as_ptr()) == 0 }
}

/// One idle-priority spinner per CPU; dropping the guard stops and
/// joins them.
pub struct KeepAwake {
    stop: Arc<AtomicBool>,
    spinning: Arc<AtomicBool>,
    spinners: Vec<JoinHandle<()>>,
}

impl KeepAwake {
    /// Starts a spinner on each of `cpus`. A spinner the kernel will not
    /// pin or demote to `SCHED_IDLE` exits at once rather than compete
    /// with the system under test at normal priority.
    pub fn start(cpus: &[usize]) -> KeepAwake {
        let stop = Arc::new(AtomicBool::new(false));
        let spinning = Arc::new(AtomicBool::new(false));
        let spinners = cpus
            .iter()
            .map(|&cpu| {
                let (stop, spinning) = (Arc::clone(&stop), Arc::clone(&spinning));
                std::thread::spawn(move || {
                    let param = SchedParam { sched_priority: 0 };
                    // SAFETY: `param` is a live `sched_param`; pid 0 names
                    // the calling thread.
                    if !pin_to(&[cpu]) || unsafe { sched_setscheduler(0, SCHED_IDLE, &param) } != 0
                    {
                        return;
                    }
                    // Both atomics are plain signals; neither publishes
                    // data. The `spin_loop()` hint (PAUSE) leaves the
                    // core's issue slots to a hyperthread sibling, should
                    // the host have put another vCPU there.
                    spinning.store(true, Ordering::Relaxed);
                    while !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        KeepAwake { stop, spinning, spinners }
    }

    /// Whether any spinner is running (`false` when the kernel refused).
    pub fn is_spinning(&self) -> bool {
        self.spinning.load(Ordering::Relaxed)
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for spinner in self.spinners.drain(..) {
            let _ = spinner.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_narrows_and_widens_again_and_children_inherit_it() {
        // On a thread of its own: pinning must not leak into other tests.
        std::thread::spawn(|| {
            let before = allowed_cpus();
            assert!(pin_to(&before[..1]), "the kernel reports and accepts an affinity mask");
            assert_eq!(allowed_cpus(), before[..1]);
            let child = std::thread::spawn(allowed_cpus).join().unwrap();
            assert_eq!(child, before[..1]);
            assert!(pin_to(&before));
            assert_eq!(allowed_cpus(), before);
            assert!(!pin_to(&[]), "an empty mask is refused, not passed on");
        })
        .join()
        .unwrap();
    }

    #[test]
    fn the_spinners_start_and_stop_on_drop() {
        let awake = KeepAwake::start(&allowed_cpus());
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while !awake.is_spinning() && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert!(awake.is_spinning());
        drop(awake); // joins; a spinner that ignored `stop` would hang here
    }
}
