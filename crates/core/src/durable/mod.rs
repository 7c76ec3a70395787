//! Durable delegation: write-ahead logging, snapshots and transferable
//! dpi checkpoints (docs/DURABILITY.md).
//!
//! The paper's elastic server owns long-lived delegated agents, so the
//! delegation population must survive the server process itself. This
//! module provides the storage layer:
//!
//! - [`wal`] — length-prefixed, checksummed BER records of every
//!   delegation-mutating operation, appended with batched fsync;
//! - [`snapshot`] — atomic point-in-time serialization of the whole
//!   dpi table, after which the WAL is truncated;
//! - [`blob`] — single-dpi checkpoints with single-use nonces, the
//!   agent-migration primitive behind the RDS `Checkpoint`/`Restore`
//!   verbs.
//!
//! The runtime glue — WAL hooks on the mutation paths, boot recovery,
//! the `checkpoint`/`restore` verbs — lives on
//! [`ElasticProcess`](crate::ElasticProcess) in `process::durability`.

pub mod blob;
pub mod snapshot;
pub mod wal;

pub use blob::CheckpointBlob;
pub use snapshot::{DpiRecord, ProgramRecord, SnapshotData};
pub use wal::{Wal, WalEntry, WalRecord, WalScan};

mod codec;

use parking_lot::Mutex;
use std::fs::File;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// File name of the WAL inside a state directory.
pub const WAL_FILE: &str = "wal.log";
/// File name of the snapshot inside a state directory.
pub const SNAPSHOT_FILE: &str = "snapshot.ber";

/// Default staged-record threshold that wakes the flusher eagerly.
/// Group commit is primarily *time*-based (the flusher parks for
/// [`FLUSH_PERIOD`] between commits); this size valve only matters
/// under bursts, bounding staged memory and the loss window in records.
pub const DEFAULT_FSYNC_EVERY: usize = 256;

/// How long the flusher parks between group commits — the time bound on
/// the crash-loss window while below [`DEFAULT_FSYNC_EVERY`].
pub const FLUSH_PERIOD: Duration = Duration::from_millis(10);

/// An armed durability store: the state directory plus the open WAL.
///
/// The WAL mutex also serializes snapshots against appends: a snapshot
/// collects state and truncates the log under the same lock, so no
/// record written concurrently can fall between the snapshot and the
/// truncation.
///
/// Writing is *group commit*, fully off the operation path: appenders
/// only [`Durability::stage`] an encoded frame into an in-memory
/// buffer (a lock, a memcpy) and, when a batch is due, wake the
/// embedding process's flusher thread via [`Durability::request_flush`].
/// The flusher parks in [`Durability::wait_flush`] and calls
/// [`Durability::flush`]: drain the staging buffer into the file as one
/// bulk write, then fsync through a dup'ed handle *without* the WAL
/// lock, so staging never queues behind the disk. The loss window on a
/// crash is therefore the staged-but-unflushed tail — bounded by the
/// batch threshold and the flusher's park timeout — and recovery's
/// consistent-prefix contract (scan stops at the first torn frame)
/// makes any such tail loss indistinguishable from crashing slightly
/// earlier.
#[derive(Debug)]
pub struct Durability {
    dir: PathBuf,
    wal: Mutex<Wal>,
    /// Encoded frames accepted but not yet written: `(bytes, records)`.
    staged: Mutex<(Vec<u8>, usize)>,
    /// Staged records that trigger an eager flush wake-up.
    fsync_every: usize,
    /// A second handle to the WAL's open file description, so fsync
    /// runs without the WAL lock.
    sync_handle: File,
    /// std (not parking_lot) because the flusher needs a condvar wait
    /// with timeout.
    flush_requested: std::sync::Mutex<bool>,
    flush_signal: std::sync::Condvar,
}

impl Durability {
    /// Opens (creating the directory if needed) the store at `dir`.
    ///
    /// # Errors
    ///
    /// I/O errors from directory creation or WAL open.
    pub fn open(dir: &Path, fsync_every: usize) -> io::Result<Durability> {
        std::fs::create_dir_all(dir)?;
        let wal = Wal::open(&dir.join(WAL_FILE))?;
        let sync_handle = wal.try_clone_file()?;
        Ok(Durability {
            dir: dir.to_path_buf(),
            wal: Mutex::new(wal),
            staged: Mutex::new((Vec::new(), 0)),
            fsync_every: fsync_every.max(1),
            sync_handle,
            flush_requested: std::sync::Mutex::new(false),
            flush_signal: std::sync::Condvar::new(),
        })
    }

    /// Accepts one encoded frame into the staging buffer. Returns true
    /// when the batch threshold is reached and the caller should
    /// [`Durability::request_flush`].
    pub fn stage(&self, framed: &[u8]) -> bool {
        let mut staged = self.staged.lock();
        staged.0.extend_from_slice(framed);
        staged.1 += 1;
        staged.1 >= self.fsync_every
    }

    /// Drops everything in the staging buffer — the snapshot path calls
    /// this (under the WAL lock) once the in-memory state those records
    /// describe has been absorbed into the snapshot.
    pub fn discard_staged(&self) {
        let mut staged = self.staged.lock();
        staged.0.clear();
        staged.1 = 0;
    }

    /// Group commit: drains the staging buffer into the WAL file (one
    /// bulk write, under the WAL lock) and fsyncs through the dup'ed
    /// handle (outside it). Returns the fsync interval, or `None` when
    /// there was nothing to commit. Safe to call concurrently — the
    /// drain happens under the WAL lock, so batches land in staging
    /// order.
    ///
    /// # Errors
    ///
    /// I/O errors from the write or the fsync.
    pub fn flush(&self) -> io::Result<Option<(Instant, Instant)>> {
        let pending = self.with_wal_locked(|w| -> io::Result<usize> {
            let (bytes, records) = {
                let mut staged = self.staged.lock();
                let records = staged.1;
                staged.1 = 0;
                (std::mem::take(&mut staged.0), records)
            };
            if records > 0 {
                w.append_batch(&bytes, records)?;
            }
            Ok(w.unsynced())
        })?;
        if pending == 0 {
            return Ok(None);
        }
        let start = Instant::now();
        self.sync_data()?;
        self.with_wal_locked(|w| w.mark_synced(pending));
        Ok(Some((start, Instant::now())))
    }

    /// Wakes the flusher thread: a group commit is due.
    pub fn request_flush(&self) {
        *self.flush_requested.lock().unwrap_or_else(|e| e.into_inner()) = true;
        self.flush_signal.notify_one();
    }

    /// Parks the flusher until [`Durability::request_flush`] or
    /// `timeout`, whichever comes first; consumes the pending request.
    pub fn wait_flush(&self, timeout: Duration) {
        let mut requested = self.flush_requested.lock().unwrap_or_else(|e| e.into_inner());
        if !*requested {
            requested = self
                .flush_signal
                .wait_timeout(requested, timeout)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
        *requested = false;
    }

    /// fsyncs the WAL file through the dup'ed handle — safe to call
    /// without (and deliberately outside) the WAL lock.
    ///
    /// # Errors
    ///
    /// I/O errors from fsync.
    pub fn sync_data(&self) -> io::Result<()> {
        self.sync_handle.sync_data()
    }

    /// The state directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The snapshot file path.
    pub fn snapshot_path(&self) -> PathBuf {
        self.dir.join(SNAPSHOT_FILE)
    }

    /// The WAL file path.
    pub fn wal_path(&self) -> PathBuf {
        self.dir.join(WAL_FILE)
    }

    /// The WAL, for appends and maintenance.
    pub fn wal(&self) -> &Mutex<Wal> {
        &self.wal
    }

    /// Writes `data` as the new snapshot and truncates the WAL, all
    /// under the WAL lock (the caller collects `data` via
    /// [`Durability::with_wal_locked`] to close the race against
    /// concurrent appends).
    ///
    /// # Errors
    ///
    /// I/O errors from the snapshot write or the truncation.
    pub fn install_snapshot(&self, wal: &mut Wal, data: &snapshot::SnapshotData) -> io::Result<()> {
        snapshot::write_file(&self.snapshot_path(), data)?;
        wal.reset()
    }

    /// Runs `f` with the WAL locked — the snapshot path uses this to
    /// collect process state and truncate atomically with respect to
    /// appends.
    pub fn with_wal_locked<T>(&self, f: impl FnOnce(&mut Wal) -> T) -> T {
        f(&mut self.wal.lock())
    }
}

/// What boot recovery found and did — journaled as the `recovery`
/// record and surfaced by `mbd-server --state-dir`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Dpis live (or kept-terminated) again after replay.
    pub restored_dpis: u64,
    /// Dpis abandoned because their dp no longer compiles or their
    /// state no longer applies.
    pub abandoned_dpis: u64,
    /// Programs back in the repository.
    pub restored_programs: u64,
    /// WAL entries replayed on top of the snapshot.
    pub wal_records: u64,
    /// Torn trailing bytes discarded from the WAL.
    pub torn_bytes: u64,
    /// Wall-clock recovery time, milliseconds.
    pub recovery_ms: u64,
    /// The minted trace id the recovery journal record carries.
    pub trace_id: u64,
}
