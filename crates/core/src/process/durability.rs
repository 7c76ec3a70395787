//! Runtime glue for durable delegation: the one commit path, boot
//! recovery, the periodic snapshot, and the checkpoint/restore
//! migration verbs.
//!
//! The storage formats live in [`crate::durable`]; this module owns the
//! policy — *which* operations are logged, *how* replay rebuilds the
//! dpi table, and the single-use-nonce discipline that makes a
//! checkpoint blob installable exactly once per server.
//!
//! Every mutating verb goes through [`ElasticProcess::commit`], which
//! applies the effect, journals it and stages its WAL record inside one
//! critical section of the object it changes: a dpi's slot section
//! ([`DpiSlot::section`]), or the repository's write lock for program
//! verbs and restores (`instantiate` holds the repository's read lock
//! around its slot section). The WAL's order is therefore the order of
//! effects on each object.
//!
//! Lock order: WAL lock, then the repository, then a dpi's cell lock,
//! then its section, then a shard lock or the nonces, then the staging
//! mutex. A snapshot holds the WAL lock throughout (no flush runs during
//! it) and the repository's read lock while it lists the table and
//! copies the repository, then reads each dpi inside its cell lock and
//! section. Staging takes only the
//! staging mutex, so a verb may stage inside any of the locks above it.

use super::table::DpiSlot;
use super::ElasticProcess;
use crate::durable::{
    snapshot::{self, DpiRecord, SnapshotData},
    wal::{self, WalEntry, WalRecord},
    CheckpointBlob, DpiImage, Durability, ProgramRecord, RecoveryReport,
};
use crate::process::DpiQuota;
use crate::repository::{self, StoredDp};
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

fn recompile(e: dpl::DplError) -> CoreError {
    CoreError::BadCheckpoint { message: format!("recompile: {e}") }
}

/// What a verb's effect hands [`ElasticProcess::commit`]: its reply
/// value, the journal line (verb, dpi, ok, detail), the WAL record, and
/// a dpi it terminated.
pub(super) struct Effect<T> {
    pub(super) value: T,
    pub(super) journal: Option<(&'static str, DpiId, bool, String)>,
    pub(super) record: Option<WalRecord>,
    pub(super) retire: Option<DpiId>,
}

impl<T> Effect<T> {
    /// An effect that stages `record`.
    pub(super) fn logged(value: T, record: WalRecord) -> Effect<T> {
        Effect { value, journal: None, record: Some(record), retire: None }
    }

    /// Adds a successful journal line.
    pub(super) fn journaled(self, verb: &'static str, dpi: DpiId, detail: String) -> Effect<T> {
        Effect { journal: Some((verb, dpi, true, detail)), ..self }
    }
}

/// Where a snapshot cut each object's records: the staging count noted
/// while it read the repository, each dpi it listed (by id, ascending),
/// and each shard (for the dpis absent from its listing). A staged
/// record below its object's count is absorbed by the snapshot.
#[derive(Default)]
struct Cut {
    repository: u64,
    shards: [u64; super::table::SHARDS],
    dpis: Vec<(u64, u64)>,
}

impl Cut {
    fn count(&self, dpi: Option<u64>) -> u64 {
        let Some(id) = dpi else { return self.repository };
        match self.dpis.binary_search_by_key(&id, |&(listed, _)| listed) {
            Ok(at) => self.dpis[at].1,
            Err(_) => self.shards[super::table::shard_of(DpiId(id))],
        }
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
            // A `Terminated` record is a dead dpi (earlier builds wrote
            // them for kept and mid-terminate slots): it stays out of
            // the table, like any other terminated id.
            let live = data.dpis.into_iter().filter(|d| d.state != DpiState::Terminated);
            for DpiRecord { id, dp_name, state, image, quota, program } in live {
                // A dpi whose version the program list lacks carries its
                // own, installed without entering the repository.
                let installed = match program {
                    Some(p) => self.compile(&p.source).map_err(CoreError::Translation).map(|dp| {
                        let own = repository::Programs::new();
                        repository::next_version(&own, &p.name, &p.source, dp, &p.delegated_by)
                    }),
                    None => self.lookup(&dp_name),
                };
                let installed =
                    installed.and_then(|dp| self.install_slot(id, &dp, state, Some(image), quota));
                if let Err(e) = installed {
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
    /// keep flowing behind the disk). Each commit is a
    /// [`durable_sync`](ElasticProcess::durable_sync), so a failed one
    /// is journaled. The thread holds only weak references and exits
    /// once the process (and with it the store) is dropped.
    fn spawn_wal_flusher(&self, durable: &Arc<Durability>) {
        let weak = Arc::downgrade(durable);
        let process = Arc::downgrade(&self.inner);
        let spawned =
            std::thread::Builder::new().name("mbd-wal-flush".to_string()).spawn(move || loop {
                let Some(durable) = weak.upgrade() else { break };
                durable.wait_flush(crate::durable::FLUSH_PERIOD);
                drop(durable);
                let Some(inner) = process.upgrade() else { break };
                ElasticProcess { inner }.durable_sync();
            });
        if let Err(e) = spawned {
            self.journal_event("wal.error", DpiId(0), false, &format!("flusher spawn: {e}"));
        }
    }

    /// The one commit path. `section` is the held critical section of
    /// the object the verb changes (see the module docs); `effect`
    /// checks and applies the verb inside it. Still inside it, the
    /// journal line is written, the WAL record staged, and a dpi the
    /// effect terminated leaves the table — after its record, so a
    /// snapshot that misses the slot has already seen the record
    /// staged. An `Err` from `effect` commits nothing.
    pub(super) fn commit<G, T>(
        &self,
        mut section: G,
        effect: impl FnOnce(&mut G) -> Result<Effect<T>, CoreError>,
    ) -> Result<T, CoreError> {
        let Effect { value, journal, record, retire } = effect(&mut section)?;
        if let Some((verb, dpi, ok, detail)) = journal {
            self.journal_event(verb, dpi, ok, &detail);
        }
        if let Some(record) = record {
            self.durable_append(record);
        }
        if let Some(dpi) = retire {
            self.retire(dpi);
        }
        Ok(value) // `section` is released here
    }

    /// Stages one record, stamped with the ambient trace id and tagged
    /// with the dpi it touches. A no-op until durability is armed;
    /// [`ElasticProcess::commit`] is its only caller.
    fn durable_append(&self, record: WalRecord) {
        let Some(durable) = self.durability() else { return };
        let dpi = record.dpi();
        let entry = WalEntry { trace_id: mbd_telemetry::current_trace_id(), record };
        // The operation path only encodes and stages (a lock + memcpy);
        // the flusher thread owns every write and fsync (group commit).
        let framed = wal::frame(&wal::encode_entry(&entry));
        self.inner.metrics.wal_records.inc();
        self.inner.metrics.wal_bytes.add(framed.len() as u64);
        if durable.stage(&framed, dpi) {
            durable.request_flush();
        }
    }

    /// Synchronously group-commits everything staged or unsynced (the
    /// flusher thread calls this each time it wakes, the embedding
    /// server's 1 Hz loop as a fallback, tests to make the WAL file
    /// catch up with memory before simulating a crash). A failure keeps
    /// the records staged for the next commit. The first failure of an
    /// episode is journaled as `wal.error`, and the next commit that
    /// succeeds as `wal.recovered` with the number of failed attempts,
    /// so a disk that refuses writes for minutes costs the journal two
    /// records. A no-op when durability is off or nothing is pending.
    pub fn durable_sync(&self) {
        let Some(durable) = self.durability() else { return };
        let flushed = durable.flush(|episode| match episode {
            Err(e) => self.journal_event("wal.error", DpiId(0), false, &e.to_string()),
            Ok(failed) => {
                let detail = format!("after {failed} failed flush attempt(s)");
                self.journal_event("wal.recovered", DpiId(0), true, &detail);
            }
        });
        if let Ok(Some((start, end))) = flushed {
            self.inner.metrics.wal_fsyncs.inc();
            self.inner.metrics.wal_fsync.record_interval(start, end);
        }
    }

    /// Takes a snapshot of the whole delegation state and truncates the
    /// WAL it absorbs. The staging buffer then keeps exactly the records
    /// the snapshot did not absorb, which go to the fresh log. A no-op
    /// when durability is off.
    ///
    /// # Errors
    ///
    /// [`CoreError::Durability`] on snapshot-write or truncation I/O
    /// failures (the WAL and the staged records are left intact on a
    /// failed write).
    pub fn snapshot_now(&self) -> Result<(), CoreError> {
        let Some(durable) = self.durability() else { return Ok(()) };
        let (programs, dpis) = durable
            .with_wal_locked(|w| {
                let (data, cut) = self.collect_snapshot_data(durable);
                snapshot::write_file(&durable.snapshot_path(), &data)?;
                w.reset()?;
                durable.retain_staged(|dpi, seq| seq >= cut.count(dpi));
                Ok((data.programs.len(), data.dpis.len()))
            })
            .map_err(io_err)?;
        let detail = format!("programs={programs} dpis={dpis}");
        self.journal_event("durability.snapshot", DpiId(0), true, &detail);
        Ok(())
    }

    /// Serializes the dpi table, the repository and the burned nonces,
    /// noting for each object the staging count at the moment it was
    /// read. The repository's read lock is held while the table is
    /// listed and the repository copied, so program verbs and restores
    /// land wholly before that or after it: a dpi restored afterwards is
    /// absent from the listing, its shard's count keeps its record, and
    /// a listed dpi found terminated takes that count too, in case its
    /// id was restored since. The dpis are then read one at a time.
    fn collect_snapshot_data(&self, durable: &Durability) -> (SnapshotData, Cut) {
        let repository = self.inner.repository.read();
        let mut cut = Cut { repository: durable.staged_count(), ..Cut::default() };
        let (mut slots, shards) = self.inner.dpis.snapshot_noting(|| durable.staged_count());
        let stored = repository.clone();
        drop(repository);
        cut.shards = shards;
        slots.sort_by_key(|(id, _)| *id);
        let mut dpis = Vec::with_capacity(slots.len());
        for (id, slot) in slots {
            let cell = slot.cell.lock();
            let quota = slot.section();
            let state = slot.state();
            if state == DpiState::Terminated {
                continue;
            }
            cut.dpis.push((id.0, durable.staged_count()));
            let image = capture_image(&slot, &cell.vm);
            let (dp_name, quota) = (slot.dp.name.clone(), *quota);
            // Every dpi must be installable from the snapshot alone.
            let in_list = stored.get(&dp_name).is_some_and(|dp| Arc::ptr_eq(dp, &slot.dp));
            let program = (!in_list).then(|| program_record(&slot.dp));
            dpis.push(DpiRecord { id: id.0, dp_name, state, image, quota, program });
        }
        let programs = stored.values().map(|dp| program_record(dp)).collect();
        let mut nonces: Vec<[u8; 16]> = self.inner.nonces.lock().iter().copied().collect();
        nonces.sort_unstable();
        let next_dpi = self.inner.next_dpi.load(Ordering::Relaxed);
        (SnapshotData { next_dpi, programs, dpis, nonces }, cut)
    }

    pub(super) fn compile(&self, source: &str) -> Result<dpl::Program, dpl::DplError> {
        dpl::compile_program(source, &self.registry_snapshot())
    }

    /// Compiles a persisted program and stores it in the repository —
    /// snapshot recovery and op-0 replay.
    fn install_program(&self, p: &ProgramRecord) -> Result<(), dpl::DplError> {
        let program = self.compile(&p.source)?;
        self.inner.repository.store(&p.name, &p.source, program, &p.delegated_by);
        Ok(())
    }

    /// Installs a dpi slot from persisted state (recovery, WAL replay,
    /// checkpoint restore); `image` is `None` for a fresh instantiation.
    fn install_slot(
        &self,
        id: u64,
        dp: &Arc<StoredDp>,
        state: DpiState,
        image: Option<DpiImage>,
        quota: Option<DpiQuota>,
    ) -> Result<(), CoreError> {
        let slot = self.new_slot(DpiId(id), dp, state);
        if let Some(image) = image {
            slot.cell.lock().vm.restore_state(image.globals, image.initialized)?;
            slot.account.restore(&image.account);
        }
        if !self.inner.dpis.try_reserve_live(self.inner.config.max_instances) {
            return Err(CoreError::TooManyInstances { limit: self.inner.config.max_instances });
        }
        slot.set_quota(&mut slot.section(), quota);
        self.inner.dpis.insert(DpiId(id), Arc::new(slot));
        self.inner.next_dpi.fetch_max(id + 1, Ordering::Relaxed);
        Ok(())
    }

    fn lookup(&self, name: &str) -> Result<Arc<StoredDp>, CoreError> {
        let dp = self.inner.repository.lookup(name);
        dp.ok_or_else(|| CoreError::NoSuchProgram { name: name.to_string() })
    }

    /// Installs a checkpoint blob, compiled as `program`, as a suspended
    /// dpi and stores its program under the original name and principal
    /// in `map` (the held repository write lock). The live `restore` and
    /// op-8 replay call it once each has checked the id and the nonce by
    /// its own rule; nothing changes unless it returns `Ok`.
    fn install_blob(
        &self,
        map: &mut repository::Programs,
        blob: &CheckpointBlob,
        program: dpl::Program,
    ) -> Result<(), CoreError> {
        let ProgramRecord { name, source, delegated_by } = &blob.program;
        let dp = repository::next_version(map, name, source, program, delegated_by);
        let image = Some(blob.image.clone());
        self.install_slot(blob.dpi, &dp, DpiState::Suspended, image, blob.quota)?;
        map.insert(name.clone(), dp);
        Ok(())
    }

    /// Applies one replayed WAL record by one rule, whichever log wrote
    /// it:
    /// - a creating record (`Instantiate`, `Restore`) installs only onto
    ///   an absent id, and `Restore` always burns its nonce;
    /// - any other record on an absent dpi or program is skipped;
    /// - a record on a present object assigns what it carries (a
    ///   `Terminated` post-state retires the dpi).
    ///
    /// An install that fails is the caller's to abandon and journal.
    fn apply_wal_record(&self, record: WalRecord) -> Result<(), CoreError> {
        let slot = record.dpi().and_then(|id| self.inner.dpis.get(DpiId(id)));
        match (record, slot) {
            (WalRecord::Delegate(program), _) => self.install_program(&program)?,
            (WalRecord::DeleteProgram { name }, _) => {
                self.inner.repository.write().remove(&name);
            }
            (WalRecord::Restore(blob), slot) => {
                self.inner.nonces.lock().insert(blob.nonce);
                if slot.is_none() {
                    let program = self.compile(&blob.program.source).map_err(recompile)?;
                    self.install_blob(&mut self.inner.repository.write(), &blob, program)?;
                }
            }
            (WalRecord::Instantiate { dpi, dp_name }, None) => {
                let dp = self.lookup(&dp_name)?;
                self.install_slot(dpi, &dp, DpiState::Ready, None, self.inner.config.quota)?;
            }
            (_, None) | (WalRecord::Instantiate { .. }, Some(_)) => {}
            (WalRecord::Suspend { .. }, Some(slot)) => slot.set_state(DpiState::Suspended),
            (WalRecord::Resume { .. }, Some(slot)) => slot.set_state(DpiState::Ready),
            (
                WalRecord::Terminate { dpi }
                | WalRecord::Invoke { dpi, state: DpiState::Terminated, .. },
                Some(_),
            ) => self.retire(DpiId(dpi)),
            (WalRecord::SetQuota { quota, .. }, Some(slot)) => {
                slot.set_quota(&mut slot.section(), quota);
            }
            (WalRecord::Invoke { state, image, .. }, Some(slot)) => {
                slot.cell.lock().vm.restore_state(image.globals, image.initialized)?;
                slot.account.restore(&image.account);
                slot.set_state(state);
            }
        }
        Ok(())
    }

    /// **Checkpoint**: serializes a *suspended* dpi — dp source, VM
    /// globals, account totals, quota — into a transferable blob with a
    /// fresh single-use nonce. Non-destructive: the dpi stays suspended
    /// here (terminate it once the blob is installed elsewhere).
    ///
    /// # Errors
    ///
    /// [`CoreError::NoSuchInstance`], or [`CoreError::BadState`] unless
    /// the dpi is `Suspended`. The blob carries the dp version the dpi
    /// runs, even if the repository has moved on or deleted it.
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
        let blob = CheckpointBlob {
            nonce: mint_nonce(),
            dpi: dpi.0,
            program: program_record(&slot.dp),
            image,
            quota: slot.quota(),
        };
        self.journal_event("lifecycle.checkpoint", dpi, true, &slot.dp.name);
        Ok(blob.encode())
    }

    /// **Restore**: installs a checkpoint blob as a suspended dpi,
    /// burning its nonce so the same blob can never be installed here
    /// twice. The blob's dp source is (re)delegated into the repository
    /// under its original name and principal; `resume` then continues
    /// the agent exactly where the source server suspended it. The
    /// source compiles first; the program, the nonce and the slot then
    /// commit as one step under the repository's write lock.
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
        // Checked before the compile, and again inside the commit.
        let nonce = blob.nonce;
        let refused = move || {
            if self.inner.dpis.get(id).is_some() {
                Err(CoreError::InstanceExists { dpi: id })
            } else if self.inner.nonces.lock().contains(&nonce) {
                Err(CoreError::NonceReused)
            } else {
                Ok(())
            }
        };
        refused()?;
        let program = self.compile(&blob.program.source).map_err(recompile)?;
        self.commit(self.inner.repository.write(), |map| {
            refused()?;
            self.install_blob(map, &blob, program)?;
            self.inner.nonces.lock().insert(nonce);
            let detail = blob.program.name.clone();
            Ok(Effect::logged(id, WalRecord::Restore(blob)).journaled(
                "lifecycle.restore",
                id,
                detail,
            ))
        })
    }

    /// Whether `trace_id` was replayed from the WAL at boot — and if so,
    /// forgets it (each cold trace fires the dedup-cold-miss path at
    /// most once).
    pub(crate) fn was_cold_trace(&self, trace_id: u64) -> bool {
        trace_id != 0 && self.inner.cold_traces.lock().remove(&trace_id)
    }
}
