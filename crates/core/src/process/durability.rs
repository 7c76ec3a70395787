//! Runtime glue for durable delegation: WAL hooks, boot recovery, the
//! periodic snapshot, and the checkpoint/restore migration verbs.
//!
//! The storage formats live in [`crate::durable`]; this module owns the
//! policy — *which* operations are logged, *how* replay rebuilds the
//! dpi table, and the single-use-nonce discipline that makes a
//! checkpoint blob installable exactly once per server.
//!
//! Lock ordering: the snapshotter collects state *under* the WAL mutex
//! (so no concurrent append can fall between the collected state and
//! the log truncation), taking instance locks inside. Every other path
//! must therefore release any instance lock *before* taking the WAL
//! lock. *Staging* a record ([`Durability::stage`] via
//! [`ElasticProcess::durable_append`]) takes only the staging mutex —
//! never the WAL lock — so the invoke path may append while still
//! holding an instance cell lock.

use super::table::DpiSlot;
use super::ElasticProcess;
use crate::durable::{
    snapshot::{self, DpiRecord, SnapshotData},
    wal::{self, WalEntry, WalRecord},
    CheckpointBlob, DpiImage, Durability, ProgramRecord, RecoveryReport,
};
use crate::process::DpiQuota;
use crate::repository::StoredDp;
use crate::CoreError;
use rds::{DpiId, DpiState};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

fn io_err(e: std::io::Error) -> CoreError {
    CoreError::Durability { message: e.to_string() }
}

fn already_attached() -> CoreError {
    CoreError::Durability { message: "durability is already attached".to_string() }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A fresh 16-byte nonce: time-seeded splitmix, salted with a process
/// counter so two mints in the same nanosecond still differ.
fn mint_nonce() -> [u8; 16] {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let t = SystemTime::now().duration_since(UNIX_EPOCH).unwrap_or_default().as_nanos() as u64;
    let c = COUNTER.fetch_add(1, Ordering::Relaxed);
    let hi = splitmix64(t ^ c.rotate_left(17));
    let lo = splitmix64(hi ^ c);
    let mut out = [0u8; 16];
    out[..8].copy_from_slice(&hi.to_be_bytes());
    out[8..].copy_from_slice(&lo.to_be_bytes());
    out
}

/// The one capture of a dpi's image. Callers hold the dpi's cell lock
/// (`vm` is borrowed from it), so the globals and the account totals
/// describe the same moment.
pub(super) fn capture_image(slot: &DpiSlot, vm: &dpl::Instance) -> DpiImage {
    DpiImage {
        initialized: vm.initialized(),
        globals: vm.globals_snapshot(),
        account: slot.account.snapshot(),
    }
}

fn program_record(dp: &StoredDp) -> ProgramRecord {
    ProgramRecord {
        name: dp.name.clone(),
        source: dp.source.clone(),
        delegated_by: dp.delegated_by.clone(),
    }
}

/// A minted trace id for server-originated work (recovery); never 0.
fn mint_trace_id() -> u64 {
    let t = SystemTime::now().duration_since(UNIX_EPOCH).unwrap_or_default().as_nanos() as u64;
    splitmix64(t) | 1
}

impl ElasticProcess {
    /// Arms durability: opens (or creates) the state directory, replays
    /// the snapshot and the WAL tail into this process, truncates any
    /// torn WAL suffix, and starts write-ahead logging every
    /// delegation-mutating operation from here on.
    ///
    /// Call once, on an otherwise-empty process, before serving
    /// requests. The recovery is journaled as a `recovery` record under
    /// a minted trace id.
    ///
    /// # Errors
    ///
    /// [`CoreError::Durability`] on state-directory I/O failures, or
    /// when durability is already attached. A dpi whose dp no longer
    /// compiles or whose state no longer applies is *abandoned*
    /// (counted in the report), not an error.
    pub fn attach_durability(
        &self,
        dir: &Path,
        fsync_every: usize,
    ) -> Result<RecoveryReport, CoreError> {
        if self.inner.durable.get().is_some() {
            return Err(already_attached());
        }
        let started = Instant::now();
        let durable = Durability::open(dir, fsync_every).map_err(io_err)?;
        let mut report = RecoveryReport::default();

        if let Some(data) = snapshot::read_file(&durable.snapshot_path()).map_err(io_err)? {
            self.inner.next_dpi.fetch_max(data.next_dpi, Ordering::Relaxed);
            for p in &data.programs {
                match self.install_program(p) {
                    Ok(()) => report.restored_programs += 1,
                    Err(e) => self.journal_event(
                        "recovery.abandon_program",
                        DpiId(0),
                        false,
                        &format!("{}: {e}", p.name),
                    ),
                }
            }
            // A `Terminated` record is a dead dpi (earlier builds kept
            // them, and a slot caught mid-terminate reads that way): it
            // stays out of the table, like any other terminated id.
            let live = data.dpis.into_iter().filter(|d| d.state != DpiState::Terminated);
            for DpiRecord { id, dp_name, state, image, quota } in live {
                if let Err(e) = self.install_slot(id, &dp_name, state, Some(image), quota) {
                    report.abandoned_dpis += 1;
                    self.journal_event("recovery.abandon_dpi", DpiId(id), false, &e.to_string());
                }
            }
            self.inner.nonces.lock().extend(data.nonces);
        }

        let scan = wal::scan_file(&durable.wal_path()).map_err(io_err)?;
        report.wal_records = scan.entries.len() as u64;
        report.torn_bytes = scan.torn_bytes;
        for entry in scan.entries {
            if entry.trace_id != 0 {
                self.inner.cold_traces.lock().insert(entry.trace_id);
            }
            let dpi = DpiId(entry.record.dpi().unwrap_or(0));
            if let Err(e) = self.apply_wal_record(entry.record) {
                report.abandoned_dpis += 1;
                self.journal_event("recovery.abandon_record", dpi, false, &e.to_string());
            }
        }
        // Cut the torn tail so new appends extend the clean prefix, and
        // make whatever the log holds durable (a replayed record may
        // never have been synced). A zero-byte log — every first boot —
        // has nothing to cut and nothing to sync.
        if scan.clean_len > 0 || scan.torn_bytes > 0 {
            durable.with_wal_locked(|w| w.truncate_to(scan.clean_len)).map_err(io_err)?;
        }

        report.restored_dpis = self.inner.dpis.len() as u64;
        // Arm logging only now — replay above must not re-log itself.
        let durable = Arc::new(durable);
        self.inner.durable.set(Arc::clone(&durable)).map_err(|_| already_attached())?;
        self.spawn_wal_flusher(&durable);

        report.recovery_ms = started.elapsed().as_millis() as u64;
        report.trace_id = mint_trace_id();
        self.inner.metrics.recovery_ms.set(report.recovery_ms);
        {
            let _scope = mbd_telemetry::enter_trace_with_parent(report.trace_id, 0);
            self.journal_event(
                "recovery",
                DpiId(0),
                true,
                &format!(
                    "restored={} abandoned={} programs={} wal_records={} torn_bytes={} ms={}",
                    report.restored_dpis,
                    report.abandoned_dpis,
                    report.restored_programs,
                    report.wal_records,
                    report.torn_bytes,
                    report.recovery_ms
                ),
            );
        }
        Ok(report)
    }

    /// The armed durability store, if any.
    pub fn durability(&self) -> Option<&Arc<Durability>> {
        self.inner.durable.get()
    }

    /// Spawns the group-commit flusher: appenders never fsync inline,
    /// they wake this thread when a batch is due, and it syncs the WAL's
    /// dup'ed file description without holding the WAL lock (so appends
    /// keep flowing behind the disk). The thread holds only a weak
    /// reference and exits once the process (and with it the store) is
    /// dropped.
    fn spawn_wal_flusher(&self, durable: &Arc<Durability>) {
        let weak = Arc::downgrade(durable);
        let fsyncs = self.inner.metrics.wal_fsyncs.clone();
        let latency = self.inner.metrics.wal_fsync.clone();
        let spawned =
            std::thread::Builder::new().name("mbd-wal-flush".to_string()).spawn(move || loop {
                let Some(durable) = weak.upgrade() else { break };
                durable.wait_flush(crate::durable::FLUSH_PERIOD);
                if let Ok(Some((start, end))) = durable.flush() {
                    fsyncs.inc();
                    latency.record_interval(start, end);
                }
            });
        if let Err(e) = spawned {
            self.journal_event("wal.error", DpiId(0), false, &format!("flusher spawn: {e}"));
        }
    }

    /// Appends one record to the WAL, stamped with the ambient trace id.
    /// A no-op until durability is armed; append failures are journaled
    /// (`wal.error`) rather than failing the operation that already
    /// happened in memory.
    pub(in crate::process) fn durable_append(&self, record: WalRecord) {
        let Some(durable) = self.durability() else { return };
        let entry = WalEntry { trace_id: mbd_telemetry::current_trace_id(), record };
        // The operation path only encodes and stages (a lock + memcpy);
        // the flusher thread owns every write and fsync (group commit).
        let framed = wal::frame(&wal::encode_entry(&entry));
        self.inner.metrics.wal_records.inc();
        self.inner.metrics.wal_bytes.add(framed.len() as u64);
        if durable.stage(&framed) {
            durable.request_flush();
        }
    }

    /// Synchronously group-commits everything staged or unsynced (the
    /// embedding server's 1 Hz loop calls this to bound the loss
    /// window; tests call it to make the WAL file catch up with memory
    /// before simulating a crash). A no-op when durability is off or
    /// nothing is pending.
    pub fn durable_sync(&self) {
        let Some(durable) = self.durability() else { return };
        match durable.flush() {
            Ok(Some((start, end))) => {
                self.inner.metrics.wal_fsyncs.inc();
                self.inner.metrics.wal_fsync.record_interval(start, end);
            }
            Ok(None) => {}
            Err(e) => self.journal_event("wal.error", DpiId(0), false, &e.to_string()),
        }
    }

    /// Takes a snapshot of the whole delegation state and truncates the
    /// WAL it absorbs, atomically with respect to concurrent appends.
    /// A no-op when durability is off.
    ///
    /// # Errors
    ///
    /// [`CoreError::Durability`] on snapshot-write or truncation I/O
    /// failures (the WAL is left intact on failure).
    pub fn snapshot_now(&self) -> Result<(), CoreError> {
        let Some(durable) = self.durability() else { return Ok(()) };
        let (programs, dpis) = durable
            .with_wal_locked(|w| {
                // Staged-but-unwritten records describe mutations that
                // are already visible in memory, so the snapshot below
                // absorbs them; discarding first keeps the truncated
                // log from replaying them on top of it.
                durable.discard_staged();
                let data = self.collect_snapshot_data();
                let counts = (data.programs.len(), data.dpis.len());
                durable.install_snapshot(w, &data).map(|()| counts)
            })
            .map_err(io_err)?;
        self.journal_event(
            "durability.snapshot",
            DpiId(0),
            true,
            &format!("programs={programs} dpis={dpis}"),
        );
        Ok(())
    }

    /// Serializes the repository, the dpi table and the burned nonces.
    fn collect_snapshot_data(&self) -> SnapshotData {
        let programs = self
            .inner
            .repository
            .names()
            .into_iter()
            .filter_map(|name| self.inner.repository.lookup(&name))
            .map(|dp| program_record(&dp))
            .collect();
        let mut slots = self.inner.dpis.snapshot();
        slots.sort_by_key(|(id, _)| *id);
        let dpis = slots
            .into_iter()
            .map(|(id, slot)| DpiRecord {
                id: id.0,
                dp_name: slot.dp_name.clone(),
                state: slot.state(),
                image: capture_image(&slot, &slot.cell.lock().vm),
                quota: slot.quota(),
            })
            .collect();
        let mut nonces: Vec<[u8; 16]> = self.inner.nonces.lock().iter().copied().collect();
        nonces.sort_unstable();
        SnapshotData {
            next_dpi: self.inner.next_dpi.load(Ordering::Relaxed),
            programs,
            dpis,
            nonces,
        }
    }

    /// Compiles a persisted program and stores it in the repository —
    /// recovery, replay, restore and live delegation all come through
    /// here.
    pub(super) fn install_program(&self, p: &ProgramRecord) -> Result<(), dpl::DplError> {
        let program = dpl::compile_program(&p.source, &self.registry_snapshot())?;
        self.inner.repository.store(&p.name, &p.source, program, &p.delegated_by);
        Ok(())
    }

    /// Installs a dpi slot from persisted state (recovery, WAL replay,
    /// checkpoint restore). `image` is `None` for a fresh
    /// instantiation replay (VM defaults, config quota applies via
    /// `quota`).
    fn install_slot(
        &self,
        id: u64,
        dp_name: &str,
        state: DpiState,
        image: Option<DpiImage>,
        quota: Option<DpiQuota>,
    ) -> Result<(), CoreError> {
        let dp = self
            .inner
            .repository
            .lookup(dp_name)
            .ok_or_else(|| CoreError::NoSuchProgram { name: dp_name.to_string() })?;
        let mut instance = dpl::Instance::new(Arc::clone(&dp.program));
        if self.inner.config.profile_sample > 0 {
            instance.enable_profiling(self.inner.config.profile_sample);
        }
        let account = image.as_ref().map(|i| i.account);
        if let Some(image) = image {
            instance.restore_state(image.globals, image.initialized)?;
        }
        if !self.inner.dpis.try_reserve_live(self.inner.config.max_instances) {
            return Err(CoreError::TooManyInstances { limit: self.inner.config.max_instances });
        }
        let slot = self.new_slot(DpiId(id), dp_name, instance, state);
        if let Some(a) = account {
            slot.account.restore(&a);
        }
        slot.set_quota(quota);
        self.inner.dpis.insert(DpiId(id), Arc::new(slot));
        self.inner.next_dpi.fetch_max(id + 1, Ordering::Relaxed);
        Ok(())
    }

    /// Installs a checkpoint blob as a suspended dpi: (re)delegates its
    /// program under the original name and principal, and installs its
    /// image. The live `restore` and op-8 replay call it once each has
    /// checked the id and burned the nonce by its own rule.
    fn install_blob(&self, blob: &CheckpointBlob) -> Result<(), CoreError> {
        self.install_program(&blob.program)
            .map_err(|e| CoreError::BadCheckpoint { message: format!("recompile: {e}") })?;
        let image = Some(blob.image.clone());
        self.install_slot(blob.dpi, &blob.program.name, DpiState::Suspended, image, blob.quota)
    }

    /// Applies one replayed WAL record. Replay is single-threaded and the
    /// recorded transition already happened, so states are stored
    /// unconditionally.
    ///
    /// A record whose post-state is `Terminated` retires its id, and is
    /// a no-op on an id already out of the table: a terminate racing a
    /// `Running` invoke stages `Terminate` before the invoke's
    /// `Invoke { state: Terminated }`, and a snapshot taken mid-terminate
    /// leaves out a dpi whose `Terminate` lands in the WAL tail.
    fn apply_wal_record(&self, record: WalRecord) -> Result<(), CoreError> {
        match record {
            WalRecord::Delegate(program) => Ok(self.install_program(&program)?),
            WalRecord::DeleteProgram { name } => self.inner.repository.delete(&name).map(|_| ()),
            WalRecord::Instantiate { dpi, dp_name } => {
                self.install_slot(dpi, &dp_name, DpiState::Ready, None, self.inner.config.quota)
            }
            WalRecord::Suspend { dpi } => {
                self.slot(DpiId(dpi))?.set_state(DpiState::Suspended);
                Ok(())
            }
            WalRecord::Resume { dpi } => {
                self.slot(DpiId(dpi))?.set_state(DpiState::Ready);
                Ok(())
            }
            WalRecord::Terminate { dpi }
            | WalRecord::Invoke { dpi, state: DpiState::Terminated, .. } => {
                self.retire(DpiId(dpi));
                Ok(())
            }
            WalRecord::SetQuota { dpi, quota } => {
                self.slot(DpiId(dpi))?.set_quota(quota);
                Ok(())
            }
            WalRecord::Invoke { dpi, state, image } => {
                let slot = self.slot(DpiId(dpi))?;
                slot.cell.lock().vm.restore_state(image.globals, image.initialized)?;
                slot.account.restore(&image.account);
                slot.set_state(state);
                Ok(())
            }
            WalRecord::Restore(blob) => {
                // The nonce stays burned whatever replay makes of the
                // record, and a burned one does not refuse it: a snapshot
                // taken between a live restore's burn and its append
                // holds the nonce but not the dpi.
                self.inner.nonces.lock().insert(blob.nonce);
                let id = DpiId(blob.dpi);
                if self.inner.dpis.get(id).is_some() {
                    return Err(CoreError::InstanceExists { dpi: id });
                }
                self.install_blob(&blob)
            }
        }
    }

    /// **Checkpoint**: serializes a *suspended* dpi — dp source, VM
    /// globals, account totals, quota — into a transferable blob with a
    /// fresh single-use nonce. Non-destructive: the dpi stays suspended
    /// here (terminate it once the blob is installed elsewhere).
    ///
    /// # Errors
    ///
    /// [`CoreError::NoSuchInstance`], [`CoreError::BadState`] unless
    /// the dpi is `Suspended`, or [`CoreError::NoSuchProgram`] if its dp
    /// has left the repository.
    pub fn checkpoint(&self, dpi: DpiId) -> Result<Vec<u8>, CoreError> {
        let slot = self.slot(dpi)?;
        let image = {
            let cell = slot.cell.lock();
            // Checked under the instance lock: no invocation is in
            // flight, and a Running dpi can't slip in behind the check.
            let state = slot.state();
            if state != DpiState::Suspended {
                return Err(CoreError::BadState { dpi, state, operation: "checkpoint" });
            }
            capture_image(&slot, &cell.vm)
        };
        let dp = self
            .inner
            .repository
            .lookup(&slot.dp_name)
            .ok_or_else(|| CoreError::NoSuchProgram { name: slot.dp_name.clone() })?;
        let blob = CheckpointBlob {
            nonce: mint_nonce(),
            dpi: dpi.0,
            program: program_record(&dp),
            image,
            quota: slot.quota(),
        };
        self.journal_event("lifecycle.checkpoint", dpi, true, &slot.dp_name);
        Ok(blob.encode())
    }

    /// **Restore**: installs a checkpoint blob as a suspended dpi,
    /// burning its nonce so the same blob can never be installed here
    /// twice. The blob's dp source is (re)delegated into the repository
    /// under its original name and principal; `resume` then continues
    /// the agent exactly where the source server suspended it.
    ///
    /// # Errors
    ///
    /// [`CoreError::BadCheckpoint`] for an undecodable or uncompilable
    /// blob, [`CoreError::NonceReused`] on a double install,
    /// [`CoreError::InstanceExists`] if the blob's dpi id is still in
    /// the table, or [`CoreError::TooManyInstances`].
    pub fn restore(&self, bytes: &[u8]) -> Result<DpiId, CoreError> {
        let blob = CheckpointBlob::decode(bytes)
            .map_err(|e| CoreError::BadCheckpoint { message: e.to_string() })?;
        let id = DpiId(blob.dpi);
        if self.inner.dpis.get(id).is_some() {
            return Err(CoreError::InstanceExists { dpi: id });
        }
        if !self.inner.nonces.lock().insert(blob.nonce) {
            return Err(CoreError::NonceReused);
        }
        // Un-burn the nonce if the install fails: the blob was not
        // applied, so a corrected retry must stay possible.
        if let Err(e) = self.install_blob(&blob) {
            self.inner.nonces.lock().remove(&blob.nonce);
            return Err(e);
        }
        self.journal_event("lifecycle.restore", id, true, &blob.program.name);
        self.durable_append(WalRecord::Restore(blob));
        Ok(id)
    }

    /// Whether `trace_id` was replayed from the WAL at boot — and if so,
    /// forgets it (each cold trace fires the dedup-cold-miss path at
    /// most once).
    pub(crate) fn was_cold_trace(&self, trace_id: u64) -> bool {
        trace_id != 0 && self.inner.cold_traces.lock().remove(&trace_id)
    }
}
