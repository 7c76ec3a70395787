//! Running entry points and applying agent-queued actions.
//!
//! [`ElasticProcess::invoke`] is the one dispatch path: lookup, state
//! gate, the dpi's instance lock, then [`ElasticProcess::invoke_in_cell`]
//! runs the entry under that lock. Every caller — an RDS worker, the
//! periodic driver, an in-process manager — runs the VM on its own
//! thread; a dpi's invocations serialize on its cell lock.

use super::table::{DpiSlot, InstanceCell};
use super::{stats, ElasticProcess};
use crate::services::{Notification, PendingAction};
use crate::CoreError;
use dpl::Value;
use rds::{DpiId, DpiState};
use std::sync::atomic::Ordering;
use std::time::Instant;

impl ElasticProcess {
    /// **Invoke**: run `entry(args)` on `dpi` under the configured budget.
    ///
    /// Concurrent invocations of *different* dpis proceed in parallel;
    /// invocations of the same dpi serialize on its instance lock. While
    /// an invocation executes the dpi reports [`DpiState::Running`].
    ///
    /// # Errors
    ///
    /// [`CoreError::NoSuchInstance`] (never instantiated, or already
    /// terminated), [`CoreError::BadState`] (suspended, or terminated
    /// while this call held the slot), or [`CoreError::Runtime`] if the
    /// program faults — in which case the dpi is terminated, the paper's
    /// fault-isolation rule: a faulty agent dies, the server survives.
    pub fn invoke(&self, dpi: DpiId, entry: &str, args: &[Value]) -> Result<Value, CoreError> {
        let _span = self.inner.metrics.invoke.start();
        let slot = self.slot(dpi)?;
        // Refuse early without queueing on the instance lock; `Running`
        // falls through and waits its turn behind the current holder.
        match slot.state() {
            state @ (DpiState::Suspended | DpiState::Terminated) => {
                return Err(CoreError::BadState { dpi, state, operation: "invoke" });
            }
            DpiState::Ready | DpiState::Running => {}
        }
        slot.account.touch_trace(mbd_telemetry::current_trace_id());
        let (outcome, pending) = {
            // The per-slot instance mutex serializes this dpi; no table
            // lock is held, so other dpis stay fully available.
            let mut cell = slot.cell.lock();
            self.invoke_in_cell(dpi, &slot, &mut cell, entry, args)
        };
        // Apply actions the agent queued (delegation by agents): the
        // invocation has returned and the cell lock is released, so the
        // actions may freely instantiate, delegate or message.
        for action in pending {
            self.apply_pending(dpi, action);
        }
        outcome
    }

    /// Runs one entry on an already-locked instance cell: the Running
    /// claim, the VM run, accounting, quota enforcement, fault
    /// isolation and the WAL append (staging only — safe under the
    /// cell lock, see the `durability` module docs on lock ordering).
    ///
    /// Returns the outcome and any actions the agent queued (the caller
    /// applies those *after* releasing the cell lock).
    fn invoke_in_cell(
        &self,
        dpi: DpiId,
        slot: &DpiSlot,
        cell: &mut InstanceCell,
        entry: &str,
        args: &[Value],
    ) -> (Result<Value, CoreError>, Vec<PendingAction>) {
        let started = Instant::now();
        // Claim the Running window. A suspend/terminate that landed
        // while we waited for the lock is honored here.
        if let Err(state) = slot.try_transition(DpiState::Ready, DpiState::Running) {
            return (Err(CoreError::BadState { dpi, state, operation: "invoke" }), Vec::new());
        }
        // Re-validate the cached registry snapshot with one relaxed
        // load; `register_service` is rare, so this almost never takes
        // the registry read lock.
        if cell.registry.generation() != self.inner.registry_gen.load(Ordering::Acquire) {
            cell.registry = self.registry_snapshot();
        }
        let InstanceCell { vm, ctx, registry } = cell;
        let result = vm.invoke(entry, args, ctx, registry, self.inner.config.budget);
        let vm_done = Instant::now();
        // `ep.vm_run` as a retroactive child of `ep.invoke`: the VM
        // portion of the invocation, excluding dispatch and lock wait.
        self.inner.metrics.vm_run.record_interval(started, vm_done);
        let busy_ns = vm_done.duration_since(started).as_nanos() as u64;
        let fuel = vm.last_stats().fuel_used;
        // Return to Ready unless an admin retargeted the state
        // (e.g. suspended us mid-run) — their transition wins.
        let _ = slot.try_transition(DpiState::Running, DpiState::Ready);
        slot.account.record_invocation(result.is_ok(), busy_ns, fuel);
        let outcome = match result {
            Ok(v) => {
                stats::bump(&self.inner.stats.invocations_ok);
                // The account may have crossed its quota during this
                // invocation (time, fuel, notify/log emissions).
                self.enforce_quota(dpi, slot);
                Ok(v)
            }
            Err(e) => {
                stats::bump(&self.inner.stats.invocations_failed);
                // Fault isolation: a faulting dpi is terminated.
                if slot.force_terminate().is_some() {
                    self.retire(dpi);
                }
                let detail = format!("{e}; {}", super::lifecycle::final_bill(slot));
                self.journal_event("lifecycle.fault", dpi, false, &detail);
                Err(CoreError::Runtime(e))
            }
        };
        // WAL the invocation as its *post-state* (globals, account,
        // lifecycle) so replay is pure state application. Appending only
        // *stages* the record (one mutex, one memcpy) — the WAL lock is
        // never taken here, so holding the cell lock is safe.
        if self.inner.durable.get().is_some() {
            self.durable_append(crate::durable::WalRecord::Invoke {
                dpi: dpi.0,
                state: slot.state(),
                initialized: cell.vm.initialized(),
                globals: cell.vm.globals_snapshot(),
                account: slot.account.snapshot(),
            });
        }
        (outcome, std::mem::take(&mut cell.ctx.pending))
    }

    /// Suspends `dpi` if its account has crossed the armed quota,
    /// journaling the breach and notifying the manager with the trace id
    /// of the request that tripped it. Lock-free when no quota is armed.
    fn enforce_quota(&self, dpi: DpiId, slot: &DpiSlot) {
        let Some(quota) = slot.quota() else { return };
        let Some((dimension, limit, actual)) = quota.breached(&slot.account) else { return };
        // Only a Ready dpi is suspended here; if an admin already moved
        // the state (or the dpi terminated), their transition stands.
        if slot.try_transition(DpiState::Ready, DpiState::Suspended).is_err() {
            return;
        }
        self.inner.metrics.quota_breaches.inc();
        let detail = format!("{dimension}: {actual} > {limit}");
        self.journal_event("quota.breach", dpi, false, &detail);
        // Flight recorder: freeze the recent span stream under the
        // tripping request's trace id (no-op unless a trace store is
        // armed).
        self.inner.telemetry.flight_freeze(
            mbd_telemetry::current_trace_id(),
            &format!("quota breach dpi-{}: {detail}", dpi.0),
        );
        let note = Notification {
            dpi,
            value: Value::list(vec![
                Value::Str("quota-breach".to_string()),
                Value::Str(dimension.to_string()),
                Value::Int(limit as i64),
                Value::Int(actual as i64),
            ]),
            trace_id: mbd_telemetry::current_trace_id(),
        };
        if self.inner.outbox.push(note).is_some() {
            slot.account.queue_drops.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
    }

    /// Applies one agent-queued action, reporting the outcome as a
    /// notification from the requesting dpi.
    fn apply_pending(&self, requester: DpiId, action: PendingAction) {
        let value = match action {
            PendingAction::Delegate { name, source } => {
                match self.delegate_as(&name, &source, &format!("{requester}")) {
                    Ok(()) => {
                        Value::list(vec![Value::Str("delegated".to_string()), Value::Str(name)])
                    }
                    Err(e) => Value::list(vec![
                        Value::Str("delegate-failed".to_string()),
                        Value::Str(name),
                        Value::Str(e.to_string()),
                    ]),
                }
            }
            PendingAction::Message { target, payload } => {
                let target = DpiId(target);
                match self.send_message(target, &payload) {
                    Ok(()) => return, // silent on success, like any send
                    Err(e) => Value::list(vec![
                        Value::Str("message-failed".to_string()),
                        Value::Int(target.0 as i64),
                        Value::Str(e.to_string()),
                    ]),
                }
            }
            PendingAction::Instantiate { name } => match self.instantiate(&name) {
                Ok(child) => Value::list(vec![
                    Value::Str("instantiated".to_string()),
                    Value::Str(name),
                    Value::Int(child.0 as i64),
                ]),
                Err(e) => Value::list(vec![
                    Value::Str("instantiate-failed".to_string()),
                    Value::Str(name),
                    Value::Str(e.to_string()),
                ]),
            },
        };
        let trace_id = mbd_telemetry::current_trace_id();
        self.inner.outbox.push(Notification { dpi: requester, value, trace_id });
    }
}
