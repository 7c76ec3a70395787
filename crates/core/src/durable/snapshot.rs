//! Point-in-time snapshots of the delegation state.
//!
//! A snapshot absorbs the WAL: it serializes the repository (as
//! source — recovery recompiles, which also revalidates host bindings),
//! the dpi table (lifecycle state, VM globals, account totals, quotas)
//! and the burned restore nonces into one BER file, written atomically
//! (`snapshot.tmp` → fsync → rename), after which the WAL is truncated.
//! Boot recovery applies the newest snapshot, then replays the WAL
//! tail on top.

use super::codec;
use super::wal::read_nonce;
use crate::process::{DpiAccountSnapshot, DpiQuota};
use ber::{BerError, BerReader, BerWriter};
use dpl::Value;
use rds::DpiState;
use std::fs::File;
use std::io::{self, Read, Write};
use std::path::Path;

/// Snapshot format version.
const VERSION: i64 = 1;

/// One stored dp, as persisted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgramRecord {
    /// Repository name.
    pub name: String,
    /// DPL source.
    pub source: String,
    /// Delegating principal.
    pub delegated_by: String,
}

/// One dpi, as persisted.
#[derive(Debug, Clone, PartialEq)]
pub struct DpiRecord {
    /// Instance id.
    pub id: u64,
    /// Program it instantiates.
    pub dp_name: String,
    /// Lifecycle state.
    pub state: DpiState,
    /// Whether global initializers have run.
    pub initialized: bool,
    /// Persistent globals.
    pub globals: Vec<Value>,
    /// Account totals.
    pub account: DpiAccountSnapshot,
    /// Armed quota.
    pub quota: Option<DpiQuota>,
}

/// Everything a snapshot persists.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SnapshotData {
    /// The id the next instantiation would take.
    pub next_dpi: u64,
    /// Stored dps.
    pub programs: Vec<ProgramRecord>,
    /// The dpi table: live dpis, plus any slot caught mid-terminate.
    /// Recovery skips a `Terminated` record (earlier builds also wrote
    /// one for every terminated dpi they kept).
    pub dpis: Vec<DpiRecord>,
    /// Restore nonces already burned on this server.
    pub nonces: Vec<[u8; 16]>,
}

/// Encodes a snapshot to bytes.
pub fn encode(data: &SnapshotData) -> Vec<u8> {
    let mut w = BerWriter::new();
    w.write_sequence(|w| {
        w.write_i64(VERSION);
        w.write_i64(data.next_dpi as i64);
        w.write_sequence(|w| {
            for p in &data.programs {
                w.write_sequence(|w| {
                    w.write_octet_string(p.name.as_bytes());
                    w.write_octet_string(p.source.as_bytes());
                    w.write_octet_string(p.delegated_by.as_bytes());
                });
            }
        });
        w.write_sequence(|w| {
            for d in &data.dpis {
                w.write_sequence(|w| {
                    w.write_i64(d.id as i64);
                    w.write_octet_string(d.dp_name.as_bytes());
                    w.write_i64(d.state.code());
                    w.write_i64(i64::from(d.initialized));
                    codec::write_globals(w, &d.globals);
                    codec::write_account(w, &d.account);
                    codec::write_quota(w, &d.quota);
                });
            }
        });
        w.write_sequence(|w| {
            for nonce in &data.nonces {
                w.write_octet_string(nonce);
            }
        });
    });
    w.into_bytes()
}

/// Decodes a snapshot produced by [`encode`].
///
/// # Errors
///
/// [`BerError`] on malformed input or an unsupported version.
pub fn decode(bytes: &[u8]) -> Result<SnapshotData, BerError> {
    let mut r = BerReader::new(bytes);
    let data = r.read_sequence(|r| {
        if r.read_i64()? != VERSION {
            return Err(BerError::BadInteger);
        }
        let next_dpi = r.read_i64()? as u64;
        let programs = r.read_sequence(|r| {
            let mut out = Vec::new();
            while !r.at_end() {
                out.push(r.read_sequence(|r| {
                    Ok(ProgramRecord {
                        name: codec::read_string(r)?,
                        source: codec::read_string(r)?,
                        delegated_by: codec::read_string(r)?,
                    })
                })?);
            }
            Ok(out)
        })?;
        let dpis = r.read_sequence(|r| {
            let mut out = Vec::new();
            while !r.at_end() {
                out.push(r.read_sequence(|r| {
                    Ok(DpiRecord {
                        id: r.read_i64()? as u64,
                        dp_name: codec::read_string(r)?,
                        state: DpiState::from_code(r.read_i64()?).ok_or(BerError::BadInteger)?,
                        initialized: r.read_i64()? != 0,
                        globals: codec::read_globals(r)?,
                        account: codec::read_account(r)?,
                        quota: codec::read_quota(r)?,
                    })
                })?);
            }
            Ok(out)
        })?;
        let nonces = r.read_sequence(|r| {
            let mut out = Vec::new();
            while !r.at_end() {
                out.push(read_nonce(r)?);
            }
            Ok(out)
        })?;
        Ok(SnapshotData { next_dpi, programs, dpis, nonces })
    })?;
    r.expect_end()?;
    Ok(data)
}

/// Writes a snapshot atomically: `<path>.tmp`, fsync, rename over
/// `path`.
///
/// # Errors
///
/// I/O errors from write, fsync or rename.
pub fn write_file(path: &Path, data: &SnapshotData) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    let bytes = encode(data);
    {
        let mut f = File::create(&tmp)?;
        f.write_all(&bytes)?;
        f.sync_data()?;
    }
    std::fs::rename(&tmp, path)
}

/// Reads the snapshot at `path`; an absent file is `None`, a damaged
/// one an error.
///
/// # Errors
///
/// I/O errors, or [`io::ErrorKind::InvalidData`] for undecodable bytes.
pub fn read_file(path: &Path) -> io::Result<Option<SnapshotData>> {
    let mut bytes = Vec::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut bytes)?;
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    }
    decode(&bytes)
        .map(Some)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("snapshot: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SnapshotData {
        SnapshotData {
            next_dpi: 42,
            programs: vec![ProgramRecord {
                name: "counter".to_string(),
                source: "var n = 0;".to_string(),
                delegated_by: "mgr".to_string(),
            }],
            dpis: vec![DpiRecord {
                id: 7,
                dp_name: "counter".to_string(),
                state: DpiState::Suspended,
                initialized: true,
                globals: vec![Value::Int(12), Value::Str("x".to_string())],
                account: DpiAccountSnapshot { invocations_ok: 12, ..Default::default() },
                quota: Some(DpiQuota { max_vm_fuel: Some(1000), ..Default::default() }),
            }],
            nonces: vec![[1; 16], [2; 16]],
        }
    }

    #[test]
    fn snapshot_round_trips() {
        let data = sample();
        assert_eq!(decode(&encode(&data)).unwrap(), data);
        assert_eq!(decode(&encode(&SnapshotData::default())).unwrap(), SnapshotData::default());
    }

    #[test]
    fn file_round_trip_and_absence() {
        let dir = std::env::temp_dir().join(format!("mbd-snap-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snapshot.ber");
        let _ = std::fs::remove_file(&path);
        assert_eq!(read_file(&path).unwrap(), None);
        write_file(&path, &sample()).unwrap();
        assert_eq!(read_file(&path).unwrap(), Some(sample()));
        std::fs::write(&path, b"garbage").unwrap();
        assert!(read_file(&path).is_err());
        let _ = std::fs::remove_file(&path);
    }
}
