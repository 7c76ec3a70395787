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
//! All three build on two shared pieces, [`ProgramRecord`] (a stored
//! dp) and [`DpiImage`] (a dpi's globals and account totals).
//!
//! The runtime glue — WAL hooks on the mutation paths, boot recovery,
//! the `checkpoint`/`restore` verbs — lives on
//! [`ElasticProcess`](crate::ElasticProcess) in `process::durability`.

pub mod blob;
pub mod snapshot;
pub mod wal;

pub use blob::CheckpointBlob;
pub use image::{DpiImage, ProgramRecord};
pub use snapshot::{DpiRecord, SnapshotData};
pub use wal::{Wal, WalEntry, WalRecord, WalScan};

mod codec;
mod image;

use parking_lot::Mutex;
use std::fs::File;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
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
/// The WAL mutex also serializes snapshots against flushes: a snapshot
/// collects state, truncates the log and trims the staging buffer under
/// the same lock, so no record is written between the cut and the
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
    /// Encoded frames accepted but not yet written.
    staged: Mutex<Staged>,
    /// Records ever staged: each record's place in the staging order,
    /// taken under the staging mutex.
    staged_count: AtomicU64,
    /// Staged records that trigger an eager flush wake-up.
    fsync_every: usize,
    /// Flushes failed since the last one that succeeded, changed only
    /// under the WAL lock, so concurrent flushes open and close failure
    /// episodes in the order their writes happened.
    failed_flushes: AtomicU64,
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
            staged: Mutex::new(Staged::default()),
            staged_count: AtomicU64::new(0),
            fsync_every: fsync_every.max(1),
            failed_flushes: AtomicU64::new(0),
            sync_handle,
            flush_requested: std::sync::Mutex::new(false),
            flush_signal: std::sync::Condvar::new(),
        })
    }

    /// Accepts one encoded frame into the staging buffer, tagged with
    /// the dpi its record touched (`None`: the repository). Returns true
    /// when the batch threshold is reached and the caller should
    /// [`Durability::request_flush`].
    pub fn stage(&self, framed: &[u8], dpi: Option<u64>) -> bool {
        let mut staged = self.staged.lock();
        let seq = self.staged_count.fetch_add(1, Ordering::AcqRel);
        staged.bytes.extend_from_slice(framed);
        staged.tags.push((dpi, seq, framed.len()));
        staged.tags.len() >= self.fsync_every
    }

    /// How many records have been staged so far. A reader inside an
    /// object's critical section learns that every record staged on
    /// that object before it sits below this count, and every later
    /// one at or above it.
    pub(crate) fn staged_count(&self) -> u64 {
        self.staged_count.load(Ordering::Acquire)
    }

    /// Keeps only the staged records for which `keep(dpi, seq)` holds —
    /// the snapshot path drops, under the WAL lock, exactly the records
    /// whose effects it absorbed. The filtering runs outside the staging
    /// mutex, so stagers wait only for two buffer swaps; what they stage
    /// meanwhile stays behind the kept records.
    pub(crate) fn retain_staged(&self, mut keep: impl FnMut(Option<u64>, u64) -> bool) {
        let Staged { bytes, tags } = std::mem::take(&mut *self.staged.lock());
        let mut kept = Staged::default();
        let mut at = 0;
        for (dpi, seq, len) in tags {
            if keep(dpi, seq) {
                kept.bytes.extend_from_slice(&bytes[at..at + len]);
                kept.tags.push((dpi, seq, len));
            }
            at += len;
        }
        self.put_back(kept);
    }

    /// Puts `front` back ahead of whatever was staged since it was taken.
    fn put_back(&self, mut front: Staged) {
        let mut staged = self.staged.lock();
        front.bytes.append(&mut staged.bytes);
        front.tags.append(&mut staged.tags);
        *staged = front;
    }

    /// Group commit: drains the staging buffer into the WAL file (one
    /// bulk write, under the WAL lock) and fsyncs through the dup'ed
    /// handle (outside it). Returns the fsync interval, or `None` when
    /// there was nothing to commit. Safe to call concurrently — the
    /// drain happens under the WAL lock, so batches land in staging
    /// order.
    ///
    /// `episode` is called, still under the WAL lock, when this flush
    /// opens a failure episode (`Err`: the first failure since the last
    /// success) or closes one (`Ok`: the number of failed attempts this
    /// success ends); a caller that reports from it reports episodes in
    /// the order they happened, once each.
    ///
    /// # Errors
    ///
    /// I/O errors from the write or the fsync. A batch whose write
    /// failed goes back to the front of the staging buffer, tags and
    /// all, so the next flush writes it ahead of what was staged since,
    /// and a snapshot's cut still applies to it.
    pub fn flush(
        &self,
        episode: impl FnOnce(Result<u64, &io::Error>),
    ) -> io::Result<Option<(Instant, Instant)>> {
        let mut wal = self.wal.lock();
        let batch = std::mem::take(&mut *self.staged.lock());
        if !batch.tags.is_empty() {
            if let Err(e) = wal.append_batch(&batch.bytes, batch.tags.len()) {
                self.put_back(batch);
                if self.failed_flushes.fetch_add(1, Ordering::Relaxed) == 0 {
                    episode(Err(&e));
                }
                return Err(e);
            }
        }
        let pending = wal.unsynced();
        drop(wal);
        if pending == 0 {
            return Ok(None);
        }
        let start = Instant::now();
        let synced = self.sync_handle.sync_data();
        let mut wal = self.wal.lock();
        match synced {
            Ok(()) => {
                wal.mark_synced(pending);
                let failed = self.failed_flushes.swap(0, Ordering::Relaxed);
                if failed > 0 {
                    episode(Ok(failed));
                }
                Ok(Some((start, Instant::now())))
            }
            Err(e) => {
                if self.failed_flushes.fetch_add(1, Ordering::Relaxed) == 0 {
                    episode(Err(&e));
                }
                Err(e)
            }
        }
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

    /// The snapshot file path.
    pub fn snapshot_path(&self) -> PathBuf {
        self.dir.join(SNAPSHOT_FILE)
    }

    /// The WAL file path.
    pub fn wal_path(&self) -> PathBuf {
        self.dir.join(WAL_FILE)
    }

    /// Runs `f` with the WAL locked — the snapshot path uses this to
    /// collect process state and truncate atomically with respect to
    /// appends.
    pub fn with_wal_locked<T>(&self, f: impl FnOnce(&mut Wal) -> T) -> T {
        f(&mut self.wal.lock())
    }
}

/// The staging buffer: concatenated frames, and per record the dpi it
/// touched (`None`: the repository), its place in the staging order and
/// its frame length.
#[derive(Debug, Default)]
struct Staged {
    bytes: Vec<u8>,
    tags: Vec<(Option<u64>, u64, usize)>,
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
