//! The execution tier: the bounded worker pool, demoted.
//!
//! Workers no longer own sockets. The reactor hands them complete
//! request frames through a bounded queue (the old accept backlog,
//! reinterpreted: the bound now counts *requests*, not connections);
//! each worker stamps the frame's [`Arrival`], runs [`Serve::serve`]
//! under `catch_unwind` and pushes the encoded response — or a panic
//! marker — onto a completion queue,
//! then wakes the reactor to deliver it. A full queue makes
//! [`Executor::submit`] fail fast so the reactor can shed that one
//! request with an explicit `Busy` frame instead of stalling every
//! connection behind it.

use super::sys::Waker;
use super::Metrics;
use crate::tcp::{Arrival, Serve};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar};
use std::time::Instant;

/// One request frame bound for a worker.
pub(crate) struct Job {
    /// The reactor token of the connection that sent the frame.
    pub token: usize,
    pub frame: Vec<u8>,
    /// Stamped by the reactor up to `enqueued`; the worker adds
    /// `dequeued`.
    pub arrival: Arrival,
}

/// A finished job on its way back to the reactor.
pub(crate) struct Completion {
    pub token: usize,
    /// `None`: the handler panicked — the reactor closes the
    /// connection (panic poisons the connection, never a worker).
    pub response: Option<Vec<u8>>,
}

struct ExecShared {
    queue: Mutex<VecDeque<Job>>,
    ready: Condvar,
    capacity: usize,
    stop: AtomicBool,
    completions: Mutex<Vec<Completion>>,
    waker: Arc<Waker>,
    metrics: Arc<Metrics>,
    server: Arc<dyn Serve>,
}

/// Handle owned by the reactor.
pub(crate) struct Executor {
    shared: Arc<ExecShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Executor {
    pub(crate) fn spawn(
        workers: usize,
        capacity: usize,
        server: Arc<dyn Serve>,
        waker: Arc<Waker>,
        metrics: Arc<Metrics>,
    ) -> Executor {
        let shared = Arc::new(ExecShared {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            capacity: capacity.max(1),
            stop: AtomicBool::new(false),
            completions: Mutex::new(Vec::new()),
            waker,
            metrics,
            server,
        });
        let workers = (0..workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Executor { shared, workers }
    }

    /// Queues a job, or hands it back when the tier is saturated (the
    /// caller sheds it).
    pub(crate) fn submit(&self, job: Job) -> Result<(), Job> {
        let mut queue = self.shared.queue.lock();
        if queue.len() >= self.shared.capacity {
            return Err(job);
        }
        queue.push_back(job);
        drop(queue);
        self.shared.ready.notify_one();
        Ok(())
    }

    /// Requests queued but not yet picked up (drives the health gauge).
    pub(crate) fn queue_depth(&self) -> usize {
        self.shared.queue.lock().len()
    }

    /// Moves all pending completions into `out`.
    pub(crate) fn take_completions(&self, out: &mut Vec<Completion>) {
        let mut pending = self.shared.completions.lock();
        out.append(&mut pending);
    }

    /// Stops the workers and joins them; each finishes its current job
    /// first. Queued-but-unstarted jobs are dropped (their connections
    /// are being closed anyway).
    pub(crate) fn shutdown(&mut self) {
        {
            // Flip the flag under the queue lock: a worker between its
            // stop check and its wait holds this mutex, so it either
            // sees the flag or is already parked when the notify fires.
            let _queue = self.shared.queue.lock();
            self.shared.stop.store(true, Ordering::Relaxed);
        }
        self.shared.ready.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &ExecShared) {
    loop {
        let mut job = {
            let mut queue = shared.queue.lock();
            loop {
                if shared.stop.load(Ordering::Relaxed) {
                    return;
                }
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                queue = shared.ready.wait(queue).expect("queue mutex cannot be poisoned");
            }
        };
        job.arrival.dequeued = Instant::now();
        let outcome =
            catch_unwind(AssertUnwindSafe(|| shared.server.serve(&job.frame, job.arrival)));
        let response = match outcome {
            Ok(bytes) => Some(bytes),
            Err(_) => {
                shared.metrics.panics.inc();
                shared.server.panicked();
                None
            }
        };
        shared.completions.lock().push(Completion { token: job.token, response });
        shared.waker.wake();
    }
}
