//! Instance lifecycle: instantiate, suspend/resume, terminate,
//! messaging and introspection.
//!
//! All state transitions are CAS operations on the slot's atomic state —
//! no table-wide write lock is taken after insertion, so administrative
//! operations on one dpi never stall invocations of others.

use super::table::DpiSlot;
use super::{stats, DpiInfo, ElasticProcess};
use crate::CoreError;
use dpl::Value;
use rds::{DpiId, DpiState, DpiSummary};
use std::sync::Arc;

impl ElasticProcess {
    /// **Instantiate**: create a dpi from a stored dp.
    ///
    /// # Errors
    ///
    /// [`CoreError::NoSuchProgram`] or [`CoreError::TooManyInstances`].
    pub fn instantiate(&self, dp_name: &str) -> Result<DpiId, CoreError> {
        let _span = self.inner.metrics.instantiate.start();
        let dp = self
            .inner
            .repository
            .lookup(dp_name)
            .ok_or_else(|| CoreError::NoSuchProgram { name: dp_name.to_string() })?;
        let limit = self.inner.config.max_instances;
        if !self.inner.dpis.try_reserve_live(limit) {
            return Err(CoreError::TooManyInstances { limit });
        }
        let id = DpiId(self.inner.next_dpi.fetch_add(1, std::sync::atomic::Ordering::Relaxed));
        // Shared-code instantiation: the dpi holds an `Arc` to the stored
        // dp's compiled program — no per-instance deep clone of the code.
        let mut instance = dpl::Instance::new(Arc::clone(&dp.program));
        if self.inner.config.profile_sample > 0 {
            instance.enable_profiling(self.inner.config.profile_sample);
        }
        let slot = self.new_slot(id, dp_name, instance, DpiState::Ready);
        slot.set_quota(self.inner.config.quota);
        self.inner.dpis.insert(id, Arc::new(slot));
        stats::bump(&self.inner.stats.instantiations);
        self.journal_event("lifecycle.instantiate", id, true, dp_name);
        self.durable_append(crate::durable::WalRecord::Instantiate {
            dpi: id.0,
            dp_name: dp_name.to_string(),
        });
        Ok(id)
    }

    /// **Suspend** a dpi: invocations are refused until resume. A dpi
    /// that is mid-invocation (`Running`) suspends once the current
    /// invocation returns; new invocations are refused immediately.
    ///
    /// # Errors
    ///
    /// [`CoreError::NoSuchInstance`] / [`CoreError::BadState`].
    pub fn suspend(&self, dpi: DpiId) -> Result<(), CoreError> {
        let _span = self.inner.metrics.suspend.start();
        let slot = self.slot(dpi)?;
        let mut observed = slot.state();
        loop {
            if !matches!(observed, DpiState::Ready | DpiState::Running) {
                return Err(CoreError::BadState { dpi, state: observed, operation: "suspend" });
            }
            match slot.try_transition(observed, DpiState::Suspended) {
                Ok(()) => {
                    self.journal_event("lifecycle.suspend", dpi, true, "");
                    self.durable_append(crate::durable::WalRecord::Suspend { dpi: dpi.0 });
                    return Ok(());
                }
                Err(now) => {
                    // Lost the CAS to a concurrent transition; count the
                    // retry so contention is visible in telemetry.
                    self.inner.metrics.state_retries.inc();
                    observed = now;
                }
            }
        }
    }

    /// **Resume** a suspended dpi.
    ///
    /// # Errors
    ///
    /// [`CoreError::NoSuchInstance`] / [`CoreError::BadState`].
    pub fn resume(&self, dpi: DpiId) -> Result<(), CoreError> {
        let _span = self.inner.metrics.resume.start();
        let slot = self.slot(dpi)?;
        slot.try_transition(DpiState::Suspended, DpiState::Ready)
            .map(|()| {
                self.journal_event("lifecycle.resume", dpi, true, "");
                self.durable_append(crate::durable::WalRecord::Resume { dpi: dpi.0 });
            })
            .map_err(|state| CoreError::BadState { dpi, state, operation: "resume" })
    }

    /// **Terminate** a dpi (any non-terminated state). Its slot leaves
    /// the table, so every later verb on the id is
    /// [`CoreError::NoSuchInstance`]; the `lifecycle.terminate` journal
    /// record, carrying the dpi's final account totals, is what remains.
    ///
    /// # Errors
    ///
    /// [`CoreError::NoSuchInstance`]; a caller that looked the slot up
    /// before a racing terminate removed it sees [`CoreError::BadState`].
    pub fn terminate(&self, dpi: DpiId) -> Result<(), CoreError> {
        let _span = self.inner.metrics.terminate.start();
        let slot = self.slot(dpi)?;
        if slot.force_terminate().is_none() {
            return Err(CoreError::BadState {
                dpi,
                state: DpiState::Terminated,
                operation: "terminate",
            });
        }
        self.retire(dpi);
        self.journal_event("lifecycle.terminate", dpi, true, &final_bill(&slot));
        self.durable_append(crate::durable::WalRecord::Terminate { dpi: dpi.0 });
        Ok(())
    }

    /// Bookkeeping after a slot reaches `Terminated`: drop it from the
    /// table and return its live-instance reservation. Idempotent, so
    /// WAL replay may retire an id that already left the table.
    pub(super) fn retire(&self, dpi: DpiId) {
        if self.inner.dpis.remove(dpi) {
            self.inner.dpis.release_live();
        }
    }

    /// Posts a message to `dpi`'s mailbox (read by its `recv()` service).
    ///
    /// Messages to a *suspended* dpi queue until resume (it cannot run,
    /// but its mailbox stays open); only terminated dpis refuse them.
    ///
    /// # Errors
    ///
    /// [`CoreError::NoSuchInstance`], or [`CoreError::BadState`] if the
    /// dpi is terminated.
    pub fn send_message(&self, dpi: DpiId, payload: &[u8]) -> Result<(), CoreError> {
        let slot = self.slot(dpi)?;
        let state = slot.state();
        if state == DpiState::Terminated {
            return Err(CoreError::BadState { dpi, state, operation: "message" });
        }
        slot.mailbox.lock().push_back(payload.to_vec());
        Ok(())
    }

    /// Summaries of all instances, sorted by id.
    pub fn list_instances(&self) -> Vec<DpiSummary> {
        let (slots, len) = self.inner.dpis.snapshot_with_len();
        let mut out = Vec::with_capacity(len);
        out.extend(slots.into_iter().map(|(id, slot)| DpiSummary {
            id,
            dp_name: slot.dp_name.clone(),
            state: slot.state(),
        }));
        out.sort_by_key(|s| s.id);
        out
    }

    /// Detailed snapshot of one dpi.
    pub fn dpi_info(&self, dpi: DpiId) -> Option<DpiInfo> {
        let slot = self.inner.dpis.get(dpi)?;
        let queued_messages = slot.mailbox.lock().len();
        Some(DpiInfo {
            id: dpi,
            dp_name: slot.dp_name.clone(),
            state: slot.state(),
            queued_messages,
        })
    }

    /// Reads a persistent global of a dpi (state inspection for tests
    /// and diagnostics).
    pub fn dpi_global(&self, dpi: DpiId, name: &str) -> Option<Value> {
        let slot = self.inner.dpis.get(dpi)?;
        let cell = slot.cell.lock();
        cell.vm.global(name).cloned()
    }

    /// Live (non-terminated) instance count.
    pub fn live_instances(&self) -> usize {
        self.inner.dpis.live()
    }

    pub(super) fn slot(&self, dpi: DpiId) -> Result<Arc<DpiSlot>, CoreError> {
        self.inner.dpis.get(dpi).ok_or(CoreError::NoSuchInstance(dpi))
    }
}

/// A terminated dpi's final account totals, the `detail` of its
/// `lifecycle.terminate` / `lifecycle.fault` journal record: the slot
/// leaves the table, so the journal is where its bill stays readable.
pub(super) fn final_bill(slot: &DpiSlot) -> String {
    let a = slot.account.snapshot();
    format!(
        "ok={} failed={} busy_us={} fuel={} bytes_in={} bytes_out={} notifications={} \
         log_lines={}",
        a.invocations_ok,
        a.invocations_failed,
        a.busy_ns / 1_000,
        a.vm_fuel,
        a.bytes_in,
        a.bytes_out,
        a.notifications,
        a.log_lines
    )
}
