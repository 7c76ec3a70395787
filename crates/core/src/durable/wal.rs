//! The write-ahead log: every delegation-mutating operation, framed as
//! `length ‖ checksum ‖ BER payload` and appended with batched fsync.
//!
//! Frame layout (all integers big-endian):
//!
//! ```text
//! +----------+------------------+------------------+
//! | len: u32 | fnv1a64(payload) | payload (len B)  |
//! +----------+------------------+------------------+
//! ```
//!
//! The payload is a BER `SEQUENCE { op INTEGER, trace-id INTEGER,
//! fields… }`. Each batch of records is written with a single
//! `write_all`, so an in-process crash can only lose a suffix of the
//! file, never interleave two records. The reader stops at the first
//! short or checksum-failing frame: a torn tail is *detected and
//! discarded*, never half-applied, and recovery truncates the file back
//! to the clean prefix before appending again.
//!
//! fsync is batched *and off the request path* (group commit): the
//! operation path only stages encoded frames in memory
//! ([`Durability::stage`]), and [`Durability::flush`] — run by the
//! process's flusher thread, and by the embedding server's 1 Hz loop
//! through `ElasticProcess::durable_sync` so an idle log never leaves
//! records pending for longer than about a second — drains the staged
//! batch into the file with [`Wal::append_batch`], fsyncs without
//! holding the WAL lock and retires the covered appends via
//! [`Wal::mark_synced`].
//!
//! [`Durability::stage`]: super::Durability::stage
//! [`Durability::flush`]: super::Durability::flush

use super::codec;
use crate::process::{DpiAccountSnapshot, DpiQuota};
use ber::{BerError, BerReader, BerWriter};
use dpl::Value;
use rds::DpiState;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

/// Sanity bound on one record's payload — a torn length field must not
/// make the reader attempt a multi-gigabyte allocation.
const MAX_RECORD_LEN: usize = 64 * 1024 * 1024;

/// FNV-1a 64-bit over `bytes` — the per-record checksum. Not
/// cryptographic; it guards against torn writes, not adversaries.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// One delegation-mutating operation, as persisted in the WAL.
///
/// `Invoke` logs the *post-state* of the invocation (globals, account,
/// lifecycle state) rather than its inputs: replay is then pure state
/// application and never re-runs nondeterministic host calls, and it
/// covers fault-termination and quota-breach suspension uniformly.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A dp entered the repository.
    Delegate {
        /// Repository name.
        name: String,
        /// DPL source (recovery recompiles it).
        source: String,
        /// Delegating principal.
        principal: String,
    },
    /// A dp left the repository.
    DeleteProgram {
        /// Repository name.
        name: String,
    },
    /// A dpi was created (fresh state; globals are the VM defaults).
    Instantiate {
        /// Assigned instance id.
        dpi: u64,
        /// Program it instantiates.
        dp_name: String,
    },
    /// A dpi was suspended.
    Suspend {
        /// Instance id.
        dpi: u64,
    },
    /// A dpi was resumed.
    Resume {
        /// Instance id.
        dpi: u64,
    },
    /// A dpi was terminated.
    Terminate {
        /// Instance id.
        dpi: u64,
    },
    /// A dpi's quota was armed, changed or cleared.
    SetQuota {
        /// Instance id.
        dpi: u64,
        /// The new quota (`None` clears it).
        quota: Option<DpiQuota>,
    },
    /// An invocation finished; the record carries the dpi's complete
    /// post-invocation state.
    Invoke {
        /// Instance id.
        dpi: u64,
        /// Lifecycle state after the invocation (quota breaches suspend,
        /// faults terminate).
        state: DpiState,
        /// Whether global initializers have run.
        initialized: bool,
        /// Post-invocation globals.
        globals: Vec<Value>,
        /// Post-invocation account totals.
        account: DpiAccountSnapshot,
    },
    /// A checkpoint blob was installed on this server.
    Restore {
        /// The blob's single-use nonce (now burned on this server).
        nonce: [u8; 16],
        /// Restored instance id (preserved from the source server).
        dpi: u64,
        /// Program name.
        dp_name: String,
        /// DPL source carried by the blob.
        source: String,
        /// Original delegating principal.
        principal: String,
        /// Whether global initializers have run.
        initialized: bool,
        /// Restored globals.
        globals: Vec<Value>,
        /// Restored account totals.
        account: DpiAccountSnapshot,
        /// Restored quota.
        quota: Option<DpiQuota>,
    },
}

/// A [`WalRecord`] plus the trace id of the request that caused it —
/// recovery collects these ids so a post-restart duplicate of an
/// already-applied request can be recognized (`rds.dedup_cold_misses`).
#[derive(Debug, Clone, PartialEq)]
pub struct WalEntry {
    /// Trace id of the causing request (0 = untraced).
    pub trace_id: u64,
    /// The operation.
    pub record: WalRecord,
}

impl WalRecord {
    /// The dpi this record targets, if any.
    pub fn dpi(&self) -> Option<u64> {
        match self {
            WalRecord::Delegate { .. } | WalRecord::DeleteProgram { .. } => None,
            WalRecord::Instantiate { dpi, .. }
            | WalRecord::Suspend { dpi }
            | WalRecord::Resume { dpi }
            | WalRecord::Terminate { dpi }
            | WalRecord::SetQuota { dpi, .. }
            | WalRecord::Invoke { dpi, .. }
            | WalRecord::Restore { dpi, .. } => Some(*dpi),
        }
    }
}

fn op_code(record: &WalRecord) -> i64 {
    match record {
        WalRecord::Delegate { .. } => 0,
        WalRecord::DeleteProgram { .. } => 1,
        WalRecord::Instantiate { .. } => 2,
        WalRecord::Suspend { .. } => 3,
        WalRecord::Resume { .. } => 4,
        WalRecord::Terminate { .. } => 5,
        WalRecord::SetQuota { .. } => 6,
        WalRecord::Invoke { .. } => 7,
        WalRecord::Restore { .. } => 8,
    }
}

/// Encodes one entry's BER payload (without the frame header).
pub fn encode_entry(entry: &WalEntry) -> Vec<u8> {
    let mut w = BerWriter::new();
    w.write_sequence(|w| {
        w.write_i64(op_code(&entry.record));
        w.write_i64(entry.trace_id as i64);
        match &entry.record {
            WalRecord::Delegate { name, source, principal } => {
                w.write_octet_string(name.as_bytes());
                w.write_octet_string(source.as_bytes());
                w.write_octet_string(principal.as_bytes());
            }
            WalRecord::DeleteProgram { name } => w.write_octet_string(name.as_bytes()),
            WalRecord::Instantiate { dpi, dp_name } => {
                w.write_i64(*dpi as i64);
                w.write_octet_string(dp_name.as_bytes());
            }
            WalRecord::Suspend { dpi }
            | WalRecord::Resume { dpi }
            | WalRecord::Terminate { dpi } => w.write_i64(*dpi as i64),
            WalRecord::SetQuota { dpi, quota } => {
                w.write_i64(*dpi as i64);
                codec::write_quota(w, quota);
            }
            WalRecord::Invoke { dpi, state, initialized, globals, account } => {
                w.write_i64(*dpi as i64);
                w.write_i64(state.code());
                w.write_i64(i64::from(*initialized));
                codec::write_globals(w, globals);
                codec::write_account(w, account);
            }
            WalRecord::Restore {
                nonce,
                dpi,
                dp_name,
                source,
                principal,
                initialized,
                globals,
                account,
                quota,
            } => {
                w.write_octet_string(nonce);
                w.write_i64(*dpi as i64);
                w.write_octet_string(dp_name.as_bytes());
                w.write_octet_string(source.as_bytes());
                w.write_octet_string(principal.as_bytes());
                w.write_i64(i64::from(*initialized));
                codec::write_globals(w, globals);
                codec::write_account(w, account);
                codec::write_quota(w, quota);
            }
        }
    });
    w.into_bytes()
}

/// Decodes a payload produced by [`encode_entry`].
///
/// # Errors
///
/// [`BerError`] on malformed input or an unknown op code.
pub fn decode_entry(payload: &[u8]) -> Result<WalEntry, BerError> {
    let mut r = BerReader::new(payload);
    let entry = r.read_sequence(|r| {
        let op = r.read_i64()?;
        let trace_id = r.read_i64()? as u64;
        let record = match op {
            0 => WalRecord::Delegate {
                name: codec::read_string(r)?,
                source: codec::read_string(r)?,
                principal: codec::read_string(r)?,
            },
            1 => WalRecord::DeleteProgram { name: codec::read_string(r)? },
            2 => WalRecord::Instantiate {
                dpi: r.read_i64()? as u64,
                dp_name: codec::read_string(r)?,
            },
            3 => WalRecord::Suspend { dpi: r.read_i64()? as u64 },
            4 => WalRecord::Resume { dpi: r.read_i64()? as u64 },
            5 => WalRecord::Terminate { dpi: r.read_i64()? as u64 },
            6 => WalRecord::SetQuota { dpi: r.read_i64()? as u64, quota: codec::read_quota(r)? },
            7 => WalRecord::Invoke {
                dpi: r.read_i64()? as u64,
                state: read_state(r)?,
                initialized: r.read_i64()? != 0,
                globals: codec::read_globals(r)?,
                account: codec::read_account(r)?,
            },
            8 => WalRecord::Restore {
                nonce: read_nonce(r)?,
                dpi: r.read_i64()? as u64,
                dp_name: codec::read_string(r)?,
                source: codec::read_string(r)?,
                principal: codec::read_string(r)?,
                initialized: r.read_i64()? != 0,
                globals: codec::read_globals(r)?,
                account: codec::read_account(r)?,
                quota: codec::read_quota(r)?,
            },
            _ => return Err(BerError::BadInteger),
        };
        Ok(WalEntry { trace_id, record })
    })?;
    r.expect_end()?;
    Ok(entry)
}

fn read_state(r: &mut BerReader<'_>) -> Result<DpiState, BerError> {
    DpiState::from_code(r.read_i64()?).ok_or(BerError::BadInteger)
}

pub(super) fn read_nonce(r: &mut BerReader<'_>) -> Result<[u8; 16], BerError> {
    r.read_octet_string()?.try_into().map_err(|_| BerError::BadLength)
}

/// Frames a payload as `len ‖ fnv1a64 ‖ payload`.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(12 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(&fnv1a64(payload).to_be_bytes());
    out.extend_from_slice(payload);
    out
}

/// The result of scanning a WAL file: the clean prefix of decoded
/// entries, the byte length of that prefix, and how many trailing bytes
/// were torn (short frame, checksum mismatch, or undecodable payload).
#[derive(Debug, Clone, PartialEq)]
pub struct WalScan {
    /// Entries in append order.
    pub entries: Vec<WalEntry>,
    /// File offset where the clean prefix ends.
    pub clean_len: u64,
    /// Bytes after the clean prefix that were discarded.
    pub torn_bytes: u64,
}

/// Parses `bytes` as a WAL, stopping at the first damaged frame.
pub fn scan(bytes: &[u8]) -> WalScan {
    let mut entries = Vec::new();
    let mut pos = 0usize;
    loop {
        let rest = &bytes[pos..];
        if rest.len() < 12 {
            break;
        }
        let len = u32::from_be_bytes(rest[..4].try_into().unwrap()) as usize;
        if len > MAX_RECORD_LEN || rest.len() < 12 + len {
            break;
        }
        let want = u64::from_be_bytes(rest[4..12].try_into().unwrap());
        let payload = &rest[12..12 + len];
        if fnv1a64(payload) != want {
            break;
        }
        let Ok(entry) = decode_entry(payload) else {
            break;
        };
        entries.push(entry);
        pos += 12 + len;
    }
    WalScan { entries, clean_len: pos as u64, torn_bytes: (bytes.len() - pos) as u64 }
}

/// Reads and scans the WAL at `path` (an absent file is an empty log).
///
/// # Errors
///
/// I/O errors other than the file being absent.
pub fn scan_file(path: &Path) -> io::Result<WalScan> {
    let mut bytes = Vec::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut bytes)?;
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }
    Ok(scan(&bytes))
}

/// The append half of the WAL: an open file plus its unsynced count.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    unsynced: usize,
}

impl Wal {
    /// Opens (creating if needed) the log at `path` for appending.
    ///
    /// # Errors
    ///
    /// I/O errors from open.
    pub fn open(path: &Path) -> io::Result<Wal> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(Wal { file, path: path.to_path_buf(), unsynced: 0 })
    }

    /// A second handle to the same open file description, for fsyncing
    /// outside the WAL lock (see [`super::Durability::sync_data`]).
    ///
    /// # Errors
    ///
    /// I/O errors from dup.
    pub fn try_clone_file(&self) -> io::Result<File> {
        self.file.try_clone()
    }

    /// The log file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Truncates the file to `len` bytes — recovery cutting a torn tail
    /// back to the clean prefix.
    ///
    /// # Errors
    ///
    /// I/O errors from truncate.
    pub fn truncate_to(&mut self, len: u64) -> io::Result<()> {
        self.file.set_len(len)?;
        self.file.sync_data()
    }

    /// Writes a drained staging batch (concatenated frames) as one
    /// `write_all` — the flusher's bulk path.
    ///
    /// # Errors
    ///
    /// I/O errors from write.
    pub fn append_batch(&mut self, bytes: &[u8], records: usize) -> io::Result<()> {
        self.file.write_all(bytes)?;
        self.unsynced += records;
        Ok(())
    }

    /// Appends not yet covered by an fsync.
    pub fn unsynced(&self) -> usize {
        self.unsynced
    }

    /// Retires `n` appends after an out-of-lock fsync covered them (the
    /// flusher observed `n` pending, synced the shared file description,
    /// and only those `n` are known durable — appends racing the fsync
    /// stay counted).
    pub fn mark_synced(&mut self, n: usize) {
        self.unsynced = self.unsynced.saturating_sub(n);
    }

    /// Empties the log (after a snapshot has absorbed its records) and
    /// syncs the truncation.
    ///
    /// # Errors
    ///
    /// I/O errors from truncate.
    pub fn reset(&mut self) -> io::Result<()> {
        self.unsynced = 0;
        self.truncate_to(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_entries() -> Vec<WalEntry> {
        vec![
            WalEntry {
                trace_id: 0xAA,
                record: WalRecord::Delegate {
                    name: "counter".to_string(),
                    source: "var n = 0; fn bump() { n = n + 1; return n; }".to_string(),
                    principal: "mgr".to_string(),
                },
            },
            WalEntry {
                trace_id: 0xBB,
                record: WalRecord::Instantiate { dpi: 1, dp_name: "counter".to_string() },
            },
            WalEntry {
                trace_id: 0xCC,
                record: WalRecord::Invoke {
                    dpi: 1,
                    state: DpiState::Ready,
                    initialized: true,
                    globals: vec![Value::Int(1)],
                    account: DpiAccountSnapshot {
                        invocations_ok: 1,
                        busy_ns: 999,
                        vm_fuel: 55,
                        last_trace_id: 0xCC,
                        ..DpiAccountSnapshot::default()
                    },
                },
            },
            WalEntry { trace_id: 0xDD, record: WalRecord::Suspend { dpi: 1 } },
            WalEntry {
                trace_id: 0xEE,
                record: WalRecord::SetQuota {
                    dpi: 1,
                    quota: Some(DpiQuota { max_invocations: Some(10), ..DpiQuota::default() }),
                },
            },
        ]
    }

    #[test]
    fn entries_round_trip_through_the_payload_codec() {
        for entry in sample_entries() {
            let payload = encode_entry(&entry);
            assert_eq!(decode_entry(&payload).unwrap(), entry);
        }
    }

    #[test]
    fn restore_record_round_trips() {
        let entry = WalEntry {
            trace_id: 7,
            record: WalRecord::Restore {
                nonce: [9; 16],
                dpi: 3,
                dp_name: "agent".to_string(),
                source: "var t = 0;".to_string(),
                principal: "mgr".to_string(),
                initialized: true,
                globals: vec![Value::Str("s".to_string()), Value::Nil],
                account: DpiAccountSnapshot::default(),
                quota: None,
            },
        };
        assert_eq!(decode_entry(&encode_entry(&entry)).unwrap(), entry);
    }

    #[test]
    fn scan_reads_a_whole_log() {
        let mut bytes = Vec::new();
        for entry in sample_entries() {
            bytes.extend_from_slice(&frame(&encode_entry(&entry)));
        }
        let scan = scan(&bytes);
        assert_eq!(scan.entries, sample_entries());
        assert_eq!(scan.clean_len, bytes.len() as u64);
        assert_eq!(scan.torn_bytes, 0);
    }

    #[test]
    fn any_truncation_yields_a_clean_prefix() {
        let entries = sample_entries();
        let mut bytes = Vec::new();
        let mut boundaries = vec![0usize];
        for entry in &entries {
            bytes.extend_from_slice(&frame(&encode_entry(entry)));
            boundaries.push(bytes.len());
        }
        for cut in 0..=bytes.len() {
            let scan = scan(&bytes[..cut]);
            // The number of whole frames before the cut.
            let complete = boundaries.iter().filter(|&&b| b > 0 && b <= cut).count();
            assert_eq!(scan.entries.len(), complete, "cut at {cut}");
            assert_eq!(scan.entries[..], entries[..complete], "cut at {cut}");
            assert_eq!(scan.clean_len as usize, boundaries[complete]);
            assert_eq!(scan.torn_bytes as usize, cut - boundaries[complete]);
        }
    }

    #[test]
    fn corrupted_byte_stops_the_scan_at_the_previous_record() {
        let entries = sample_entries();
        let mut bytes = Vec::new();
        for entry in &entries {
            bytes.extend_from_slice(&frame(&encode_entry(entry)));
        }
        let first_len = frame(&encode_entry(&entries[0])).len();
        // Flip a payload byte inside the second record.
        bytes[first_len + 13] ^= 0xFF;
        let scan = scan(&bytes);
        assert_eq!(scan.entries.len(), 1, "checksum catches the damage");
        assert_eq!(scan.clean_len as usize, first_len);
    }

    #[test]
    fn absurd_length_field_is_treated_as_torn() {
        let mut bytes = frame(&encode_entry(&sample_entries()[0]));
        let good = bytes.clone();
        bytes.extend_from_slice(&u32::MAX.to_be_bytes());
        bytes.extend_from_slice(&[0; 20]);
        let scan = scan(&bytes);
        assert_eq!(scan.entries.len(), 1);
        assert_eq!(scan.clean_len as usize, good.len());
    }

    #[test]
    fn wal_file_appends_and_rescans() {
        let dir = std::env::temp_dir().join(format!("mbd-wal-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let durable = crate::durable::Durability::open(&dir, 2).unwrap();
        for entry in sample_entries() {
            durable.stage(&frame(&encode_entry(&entry)));
        }
        // One bulk `append_batch` of the staged frames, then the fsync.
        assert!(durable.flush().unwrap().is_some(), "the staged batch is written and synced");
        assert_eq!(durable.with_wal_locked(|w| w.unsynced()), 0);
        let scan = scan_file(&durable.wal_path()).unwrap();
        assert_eq!(scan.entries, sample_entries());
        durable.with_wal_locked(Wal::reset).unwrap();
        assert_eq!(scan_file(&durable.wal_path()).unwrap().entries.len(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_file_scans_empty() {
        let scan = scan_file(Path::new("/nonexistent/mbd-wal-nope.log")).unwrap();
        assert!(scan.entries.is_empty());
        assert_eq!(scan.torn_bytes, 0);
    }
}
