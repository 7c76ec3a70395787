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
use super::wal::{read_nonce, read_state};
use super::{DpiImage, ProgramRecord};
use crate::process::DpiQuota;
use ber::{BerError, BerReader, BerWriter};
use rds::DpiState;
use std::fs::File;
use std::io::{self, Read, Write};
use std::path::Path;

/// Snapshot format version.
const VERSION: i64 = 1;

/// One dpi, as persisted.
#[derive(Debug, Clone, PartialEq)]
pub struct DpiRecord {
    /// Instance id.
    pub id: u64,
    /// Program it instantiates.
    pub dp_name: String,
    /// Lifecycle state.
    pub state: DpiState,
    /// Globals and account totals.
    pub image: DpiImage,
    /// Armed quota.
    pub quota: Option<DpiQuota>,
    /// The dp this dpi runs, when the snapshot's program list does not
    /// hold that exact version (re-delegated or deleted since it was
    /// instantiated); recovery installs the dpi from it without storing
    /// it. Written after the quota only when present, so a record
    /// without it has the original bytes.
    pub program: Option<ProgramRecord>,
}

/// Everything a snapshot persists.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SnapshotData {
    /// The id the next instantiation would take.
    pub next_dpi: u64,
    /// Stored dps.
    pub programs: Vec<ProgramRecord>,
    /// The dpi table: its live dpis. Recovery skips a `Terminated`
    /// record (earlier builds wrote one for a slot caught mid-terminate
    /// and for every terminated dpi they kept).
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
                w.write_sequence(|w| p.write(w));
            }
        });
        w.write_sequence(|w| {
            for d in &data.dpis {
                w.write_sequence(|w| {
                    w.write_i64(d.id as i64);
                    w.write_octet_string(d.dp_name.as_bytes());
                    w.write_i64(d.state.code());
                    d.image.write(w);
                    codec::write_quota(w, &d.quota);
                    if let Some(program) = &d.program {
                        program.write(w);
                    }
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
                out.push(r.read_sequence(ProgramRecord::read)?);
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
                        state: read_state(r)?,
                        image: DpiImage::read(r)?,
                        quota: codec::read_quota(r)?,
                        program: if r.at_end() { None } else { Some(ProgramRecord::read(r)?) },
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
    use crate::process::DpiAccountSnapshot;
    use dpl::Value;

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
                image: DpiImage {
                    initialized: true,
                    globals: vec![Value::Int(12), Value::Str("x".to_string())],
                    account: DpiAccountSnapshot { invocations_ok: 12, ..Default::default() },
                },
                quota: Some(DpiQuota { max_vm_fuel: Some(1000), ..Default::default() }),
                program: Some(ProgramRecord {
                    name: "counter".to_string(),
                    source: "var n = 1;".to_string(),
                    delegated_by: "mgr".to_string(),
                }),
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
        let _ = std::fs::remove_dir_all(&dir);
    }
}
