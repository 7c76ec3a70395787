use crate::{CoreError, ElasticProcess};
use rds::DpiId;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Drives a dpi autonomously on a fixed period — the execution mode in
/// which a delegated health function samples local MIB counters every
/// second while the manager only hears about threshold crossings.
///
/// Each driver owns a thread that invokes `entry()` on the dpi every
/// `period` until stopped, the dpi is terminated, or the invocation
/// faults. This realizes the paper's "dpi as a thread of the elastic
/// process": the agent runs *inside* the server, on server time, with no
/// network round trips.
///
/// # Examples
///
/// ```
/// use mbd_core::{ElasticConfig, ElasticProcess, PeriodicDriver};
/// use std::time::Duration;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let p = ElasticProcess::new(ElasticConfig::default());
/// p.delegate("sampler", "var n = 0; fn tick() { n = n + 1; return n; }")?;
/// let dpi = p.instantiate("sampler")?;
/// let driver = PeriodicDriver::start(p.clone(), dpi, "tick", Duration::from_millis(1));
/// while driver.runs() < 3 { std::thread::yield_now(); }
/// driver.stop();
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct PeriodicDriver {
    stop: Arc<AtomicBool>,
    runs: Arc<AtomicU64>,
    faults: Arc<AtomicU64>,
    handle: Option<std::thread::JoinHandle<Result<(), CoreError>>>,
}

impl PeriodicDriver {
    /// Starts driving `entry()` on `dpi` every `period`.
    pub fn start(
        process: ElasticProcess,
        dpi: DpiId,
        entry: &str,
        period: Duration,
    ) -> PeriodicDriver {
        let stop = Arc::new(AtomicBool::new(false));
        let runs = Arc::new(AtomicU64::new(0));
        let faults = Arc::new(AtomicU64::new(0));
        let entry = entry.to_string();
        let (stop2, runs2, faults2) = (Arc::clone(&stop), Arc::clone(&runs), Arc::clone(&faults));
        let handle = std::thread::spawn(move || {
            while !stop2.load(Ordering::Relaxed) {
                match process.invoke(dpi, &entry, &[]) {
                    Ok(_) => {
                        runs2.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(e @ CoreError::Runtime(_)) => {
                        // The dpi faulted and was terminated: stop driving.
                        faults2.fetch_add(1, Ordering::Relaxed);
                        return Err(e);
                    }
                    Err(CoreError::BadState { .. }) => {
                        // Suspended: skip this period, keep trying.
                        runs2.load(Ordering::Relaxed);
                    }
                    Err(e) => return Err(e),
                }
                std::thread::sleep(period);
            }
            Ok(())
        });
        PeriodicDriver { stop, runs, faults, handle: Some(handle) }
    }

    /// Successful invocations so far.
    pub fn runs(&self) -> u64 {
        self.runs.load(Ordering::Relaxed)
    }

    /// Faulted invocations so far (0 or 1: a fault stops the driver).
    pub fn faults(&self) -> u64 {
        self.faults.load(Ordering::Relaxed)
    }

    /// Whether the driving thread has exited (fault or stop).
    pub fn is_finished(&self) -> bool {
        self.handle.as_ref().is_none_or(|h| h.is_finished())
    }

    /// Stops the driver and returns the thread's final result.
    ///
    /// # Errors
    ///
    /// Returns the [`CoreError`] that stopped the loop, if any.
    pub fn stop(mut self) -> Result<(), CoreError> {
        self.stop.store(true, Ordering::Relaxed);
        match self.handle.take() {
            Some(h) => h.join().unwrap_or(Ok(())),
            None => Ok(()),
        }
    }
}

impl Drop for PeriodicDriver {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ElasticConfig;
    use dpl::Value;

    #[test]
    fn periodic_sampling_accumulates_locally() {
        let p = ElasticProcess::new(ElasticConfig::default());
        snmp::mib2::install_concentrator(p.mib()).unwrap();
        p.delegate(
            "sampler",
            "var samples = 0; var total = 0; \
             fn tick() { samples = samples + 1; \
             total = total + mib_get(\"1.3.6.1.4.1.45.1.3.2.1.0\"); return samples; }",
        )
        .unwrap();
        let dpi = p.instantiate("sampler").unwrap();
        let driver = PeriodicDriver::start(p.clone(), dpi, "tick", Duration::from_micros(100));
        while driver.runs() < 5 {
            std::thread::yield_now();
        }
        driver.stop().unwrap();
        let samples = p.dpi_global(dpi, "samples").unwrap();
        assert!(matches!(samples, Value::Int(n) if n >= 5));
    }

    #[test]
    fn faulting_agent_stops_its_driver() {
        let p = ElasticProcess::new(ElasticConfig::default());
        p.delegate(
            "doomed",
            "var n = 0; fn tick() { n = n + 1; if (n == 3) { return 1 / 0; } return n; }",
        )
        .unwrap();
        let dpi = p.instantiate("doomed").unwrap();
        let driver = PeriodicDriver::start(p.clone(), dpi, "tick", Duration::from_micros(10));
        while !driver.is_finished() {
            std::thread::yield_now();
        }
        let err = driver.stop().unwrap_err();
        assert!(matches!(err, CoreError::Runtime(dpl::RuntimeError::DivisionByZero)));
        assert!(p.list_instances().is_empty(), "the faulted dpi left the table");
    }

    #[test]
    fn suspended_dpi_pauses_driving_and_resumes() {
        let p = ElasticProcess::new(ElasticConfig::default());
        p.delegate("t", "var n = 0; fn tick() { n = n + 1; return n; }").unwrap();
        let dpi = p.instantiate("t").unwrap();
        let driver = PeriodicDriver::start(p.clone(), dpi, "tick", Duration::from_micros(50));
        while driver.runs() < 2 {
            std::thread::yield_now();
        }
        p.suspend(dpi).unwrap();
        let at_suspend = driver.runs();
        std::thread::sleep(Duration::from_millis(5));
        // May have one in-flight completion, but no sustained progress.
        assert!(driver.runs() <= at_suspend + 1);
        p.resume(dpi).unwrap();
        while driver.runs() <= at_suspend + 1 {
            std::thread::yield_now();
        }
        driver.stop().unwrap();
    }

    #[test]
    fn drop_stops_the_thread() {
        let p = ElasticProcess::new(ElasticConfig::default());
        p.delegate("t", "fn tick() { return 0; }").unwrap();
        let dpi = p.instantiate("t").unwrap();
        let driver = PeriodicDriver::start(p.clone(), dpi, "tick", Duration::from_micros(10));
        drop(driver); // must not hang
    }
}
