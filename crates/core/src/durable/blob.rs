//! Transferable dpi checkpoints — the agent-migration primitive.
//!
//! A checkpoint serializes a *suspended* dpi completely: the dp source
//! (the receiving server recompiles it, so the blob is self-contained
//! and survives repository divergence), the VM globals under the
//! faithful codec, the account totals and the quota. A 16-byte
//! single-use nonce rides along; the restoring server burns it, so the
//! same blob can never be installed twice there, and persists the burn
//! in its WAL and snapshots so the guarantee survives restarts.

use super::codec;
use super::wal::read_nonce;
use super::{DpiImage, ProgramRecord};
use crate::process::DpiQuota;
use ber::{BerError, BerReader, BerWriter};

/// Blob format version.
const VERSION: i64 = 1;

/// A serialized suspended dpi, ready to move between servers.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointBlob {
    /// Single-use install nonce.
    pub nonce: [u8; 16],
    /// The dpi's id on the source server (preserved on restore).
    pub dpi: u64,
    /// The dp it instantiates, source and original principal included.
    pub program: ProgramRecord,
    /// Globals and account totals at checkpoint time.
    pub image: DpiImage,
    /// Armed quota, if any.
    pub quota: Option<DpiQuota>,
}

impl CheckpointBlob {
    /// Encodes the blob to wire bytes: the format version, then its
    /// fields.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = BerWriter::new();
        w.write_sequence(|w| {
            w.write_i64(VERSION);
            self.write_fields(w);
        });
        w.into_bytes()
    }

    /// Decodes a blob produced by [`CheckpointBlob::encode`].
    ///
    /// # Errors
    ///
    /// [`BerError`] on malformed input or an unsupported version.
    pub fn decode(bytes: &[u8]) -> Result<CheckpointBlob, BerError> {
        let mut r = BerReader::new(bytes);
        let blob = r.read_sequence(|r| {
            if r.read_i64()? != VERSION {
                return Err(BerError::BadInteger);
            }
            CheckpointBlob::read_fields(r)
        })?;
        r.expect_end()?;
        Ok(blob)
    }

    /// Writes the fields inline — the blob after its version, and the
    /// whole of the WAL's `Restore` record after its op and trace id.
    pub(super) fn write_fields(&self, w: &mut BerWriter) {
        w.write_octet_string(&self.nonce);
        w.write_i64(self.dpi as i64);
        self.program.write(w);
        self.image.write(w);
        codec::write_quota(w, &self.quota);
    }

    /// Reads the fields written by [`CheckpointBlob::write_fields`].
    pub(super) fn read_fields(r: &mut BerReader<'_>) -> Result<CheckpointBlob, BerError> {
        Ok(CheckpointBlob {
            nonce: read_nonce(r)?,
            dpi: r.read_i64()? as u64,
            program: ProgramRecord::read(r)?,
            image: DpiImage::read(r)?,
            quota: codec::read_quota(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::DpiAccountSnapshot;
    use dpl::Value;

    fn sample() -> CheckpointBlob {
        CheckpointBlob {
            nonce: [7; 16],
            dpi: 3,
            program: ProgramRecord {
                name: "counter".to_string(),
                source: "var n = 0; fn bump() { n = n + 1; return n; }".to_string(),
                delegated_by: "mgr".to_string(),
            },
            image: DpiImage {
                initialized: true,
                globals: vec![Value::Int(5)],
                account: DpiAccountSnapshot {
                    invocations_ok: 5,
                    vm_fuel: 77,
                    ..Default::default()
                },
            },
            quota: None,
        }
    }

    #[test]
    fn blob_round_trips() {
        let blob = sample();
        assert_eq!(CheckpointBlob::decode(&blob.encode()).unwrap(), blob);
    }

    #[test]
    fn damaged_blob_is_rejected() {
        let mut bytes = sample().encode();
        bytes.truncate(bytes.len() - 3);
        assert!(CheckpointBlob::decode(&bytes).is_err());
        assert!(CheckpointBlob::decode(b"junk").is_err());
    }
}
