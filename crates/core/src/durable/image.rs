//! The two pieces every persisted shape is built from: a stored dp
//! ([`ProgramRecord`]) and a dpi's runtime state ([`DpiImage`]).
//!
//! The snapshot's [`DpiRecord`](super::DpiRecord), the
//! [`CheckpointBlob`](super::CheckpointBlob) and the WAL's `Delegate`,
//! `Invoke` and `Restore` records all embed these. Each codec writes
//! its fields inline, with no wrapper of its own, so the embedding
//! layout decides the framing and the bytes on disk stay those of the
//! original hand-written layouts.

use super::codec;
use crate::process::DpiAccountSnapshot;
use ber::{BerError, BerReader, BerWriter};
use dpl::Value;

/// One stored dp, as persisted: recovery and restore recompile the
/// source, which also revalidates its host bindings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgramRecord {
    /// Repository name.
    pub name: String,
    /// DPL source.
    pub source: String,
    /// Delegating principal.
    pub delegated_by: String,
}

impl ProgramRecord {
    pub(super) fn write(&self, w: &mut BerWriter) {
        w.write_octet_string(self.name.as_bytes());
        w.write_octet_string(self.source.as_bytes());
        w.write_octet_string(self.delegated_by.as_bytes());
    }

    pub(super) fn read(r: &mut BerReader<'_>) -> Result<ProgramRecord, BerError> {
        Ok(ProgramRecord {
            name: codec::read_string(r)?,
            source: codec::read_string(r)?,
            delegated_by: codec::read_string(r)?,
        })
    }
}

/// A dpi's runtime state, as persisted: what an invocation changes.
///
/// The quota is not part of the image, so the `Invoke` record carries
/// none; the snapshot record and the checkpoint blob carry it beside
/// the image.
#[derive(Debug, Clone, PartialEq)]
pub struct DpiImage {
    /// Whether global initializers have run.
    pub initialized: bool,
    /// VM globals, in declaration order.
    pub globals: Vec<Value>,
    /// Account totals.
    pub account: DpiAccountSnapshot,
}

impl DpiImage {
    pub(super) fn write(&self, w: &mut BerWriter) {
        w.write_i64(i64::from(self.initialized));
        codec::write_globals(w, &self.globals);
        codec::write_account(w, &self.account);
    }

    pub(super) fn read(r: &mut BerReader<'_>) -> Result<DpiImage, BerError> {
        Ok(DpiImage {
            initialized: r.read_i64()? != 0,
            globals: codec::read_globals(r)?,
            account: codec::read_account(r)?,
        })
    }
}
