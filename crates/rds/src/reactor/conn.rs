//! Per-connection state machine: incremental frame reassembly and
//! buffered, vectored writes.
//!
//! The reactor thread owns every [`Connection`]. A readiness event
//! never blocks: reads pull whatever the kernel has buffered (up to a
//! fairness budget) into the [`FrameAssembler`], writes drain the
//! response queue until the socket would block, and everything else —
//! submission to the execution tier, interest recomputation, the
//! frame-deadline sweep — happens on the reactor's clock.

use crate::tcp::{Arrival, MAX_FRAME};
use crate::RdsError;
use std::collections::VecDeque;
use std::io::{self, IoSlice, Read, Write};
use std::net::TcpStream;
use std::time::Instant;

/// Bytes read from one connection per readiness event before the
/// reactor moves on — fairness toward the other connections. Leftover
/// kernel-buffered bytes re-trigger the (level-triggered) poller.
const READ_BUDGET: usize = 256 * 1024;

/// Read chunk size: memory grows only as payload bytes arrive, never
/// from a hostile length prefix.
const READ_CHUNK: usize = 64 * 1024;

/// At most this many queued responses are stitched into one vectored
/// write.
const WRITE_BATCH: usize = 64;

/// Incremental length-prefixed frame reassembly.
///
/// Feed raw bytes with [`FrameAssembler::push`]; complete frames come
/// out as they close. Partial frames persist across calls, so the
/// blocking `read_exact` loops of the old transport become a pure
/// state machine the reactor can drive from readiness events. The
/// buffer holds only bytes actually received — a length prefix
/// claiming [`MAX_FRAME`] allocates nothing up front.
#[derive(Debug, Default)]
pub struct FrameAssembler {
    buf: Vec<u8>,
}

impl FrameAssembler {
    pub fn new() -> FrameAssembler {
        FrameAssembler::default()
    }

    /// True while a frame has started but not yet closed (drives the
    /// frame timeout).
    pub fn mid_frame(&self) -> bool {
        !self.buf.is_empty()
    }

    /// Bytes buffered toward the next frame.
    pub fn pending_bytes(&self) -> usize {
        self.buf.len()
    }

    /// Appends received bytes and extracts every frame they complete.
    ///
    /// # Errors
    ///
    /// A length prefix exceeding [`MAX_FRAME`] poisons the stream
    /// (framing can no longer be trusted) and the connection must be
    /// dropped.
    pub fn push(&mut self, data: &[u8]) -> Result<Vec<Vec<u8>>, RdsError> {
        self.buf.extend_from_slice(data);
        let mut frames = Vec::new();
        loop {
            if self.buf.len() < 4 {
                break;
            }
            let len = u32::from_be_bytes(self.buf[..4].try_into().expect("4 bytes")) as usize;
            if len > MAX_FRAME as usize {
                return Err(RdsError::Transport {
                    message: format!("oversized frame ({len} bytes)"),
                });
            }
            if self.buf.len() < 4 + len {
                break;
            }
            frames.push(self.buf[4..4 + len].to_vec());
            self.buf.drain(..4 + len);
        }
        // A connection that once carried a large frame should not pin
        // its high-water capacity forever.
        if self.buf.is_empty() && self.buf.capacity() > READ_CHUNK {
            self.buf.shrink_to(READ_CHUNK);
        }
        Ok(frames)
    }
}

/// What a read pass produced.
pub(crate) struct ReadOutcome {
    pub frames: Vec<Vec<u8>>,
    pub eof: bool,
}

/// A complete frame waiting for a free in-flight slot, carrying its
/// arrival stamps so far: the read interval is set, `enqueued` and
/// `dequeued` hold `recv_done` until the frame is queued and taken up.
pub(crate) struct ParkedFrame {
    pub bytes: Vec<u8>,
    pub arrival: Arrival,
}

/// One live connection owned by the reactor.
pub(crate) struct Connection {
    pub stream: TcpStream,
    pub assembler: FrameAssembler,
    /// Complete frames waiting for a free in-flight slot.
    pub parked_frames: VecDeque<ParkedFrame>,
    /// Queued wire bytes (each entry is one length-prefixed response);
    /// the front entry may be partially written.
    write_queue: VecDeque<Vec<u8>>,
    write_offset: usize,
    /// Requests submitted to the execution tier, not yet answered.
    pub in_flight: usize,
    /// Set while the assembler is mid-frame; drives the frame timeout.
    pub frame_started: Option<Instant>,
    /// Peer sent EOF: read no more, but finish in-flight work and
    /// flush replies before closing (pipelined peers half-close).
    pub peer_closed: bool,
    /// The interest set currently registered with the poller.
    pub registered: super::sys::Interest,
}

impl Connection {
    pub(crate) fn new(stream: TcpStream) -> Connection {
        Connection {
            stream,
            assembler: FrameAssembler::new(),
            parked_frames: VecDeque::new(),
            write_queue: VecDeque::new(),
            write_offset: 0,
            in_flight: 0,
            frame_started: None,
            peer_closed: false,
            registered: super::sys::Interest::READ,
        }
    }

    /// Drains readable bytes into the assembler (bounded by the
    /// fairness budget) and returns the frames they completed.
    ///
    /// # Errors
    ///
    /// Socket errors or a poisoned framing stream; either way the
    /// caller drops the connection.
    pub(crate) fn read_ready(&mut self) -> Result<ReadOutcome, RdsError> {
        let mut out = ReadOutcome { frames: Vec::new(), eof: false };
        let mut chunk = [0u8; READ_CHUNK];
        let mut budget = READ_BUDGET;
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    out.eof = true;
                    break;
                }
                Ok(n) => {
                    out.frames.append(&mut self.assembler.push(&chunk[..n])?);
                    budget = budget.saturating_sub(n);
                    if budget == 0 {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    return Err(RdsError::Transport { message: e.to_string() });
                }
            }
        }
        self.frame_started = if self.assembler.mid_frame() {
            Some(self.frame_started.unwrap_or_else(Instant::now))
        } else {
            None
        };
        Ok(out)
    }

    /// Queues one response (adding the length prefix) for writing.
    pub(crate) fn queue_response(&mut self, payload: &[u8]) {
        let mut framed = Vec::with_capacity(4 + payload.len());
        framed.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        framed.extend_from_slice(payload);
        self.write_queue.push_back(framed);
    }

    pub(crate) fn wants_write(&self) -> bool {
        !self.write_queue.is_empty()
    }

    /// Writes as much of the queue as the socket accepts, batching
    /// queued responses into vectored writes. Returns `true` when the
    /// queue is empty.
    ///
    /// # Errors
    ///
    /// Socket errors; the caller drops the connection.
    pub(crate) fn flush(&mut self) -> Result<bool, RdsError> {
        while !self.write_queue.is_empty() {
            let slices: Vec<IoSlice<'_>> = self
                .write_queue
                .iter()
                .take(WRITE_BATCH)
                .enumerate()
                .map(|(i, entry)| {
                    if i == 0 {
                        IoSlice::new(&entry[self.write_offset..])
                    } else {
                        IoSlice::new(entry)
                    }
                })
                .collect();
            let written = match self.stream.write_vectored(&slices) {
                Ok(0) => {
                    return Err(RdsError::Transport { message: "peer stopped reading".to_string() })
                }
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(RdsError::Transport { message: e.to_string() }),
            };
            let mut remaining = written;
            while remaining > 0 {
                let front_left = self.write_queue[0].len() - self.write_offset;
                if remaining >= front_left {
                    self.write_queue.pop_front();
                    self.write_offset = 0;
                    remaining -= front_left;
                } else {
                    self.write_offset += remaining;
                    remaining = 0;
                }
            }
        }
        Ok(true)
    }

    /// The interest set this connection's state calls for.
    pub(crate) fn desired_interest(
        &self,
        max_in_flight: usize,
        draining: bool,
    ) -> super::sys::Interest {
        super::sys::Interest {
            // Backpressure: stop reading while the peer's pipelining
            // window is saturated or we are shutting down.
            readable: !self.peer_closed
                && !draining
                && self.parked_frames.is_empty()
                && self.in_flight < max_in_flight,
            writable: self.wants_write(),
        }
    }

    /// True when nothing remains to do for this connection.
    pub(crate) fn idle_complete(&self) -> bool {
        self.in_flight == 0 && self.parked_frames.is_empty() && !self.wants_write()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut f = (payload.len() as u32).to_be_bytes().to_vec();
        f.extend_from_slice(payload);
        f
    }

    #[test]
    fn assembler_reassembles_across_arbitrary_splits() {
        let wire: Vec<u8> = [framed(b"alpha"), framed(b"bee"), framed(&[7u8; 300])].concat();
        // Feed every split position byte-by-byte-ish: 1, 2, 3… chunks.
        for step in 1..=7usize {
            let mut asm = FrameAssembler::new();
            let mut got = Vec::new();
            for chunk in wire.chunks(step) {
                got.extend(asm.push(chunk).unwrap());
            }
            assert_eq!(got.len(), 3, "step {step}");
            assert_eq!(got[0], b"alpha");
            assert_eq!(got[1], b"bee");
            assert_eq!(got[2], vec![7u8; 300]);
            assert!(!asm.mid_frame());
        }
    }

    #[test]
    fn assembler_extracts_multiple_frames_from_one_push() {
        let mut asm = FrameAssembler::new();
        let wire: Vec<u8> = [framed(b"a"), framed(b"b"), framed(b"c")].concat();
        let frames = asm.push(&wire).unwrap();
        assert_eq!(frames, vec![b"a".to_vec(), b"b".to_vec(), b"c".to_vec()]);
    }

    #[test]
    fn assembler_reports_mid_frame_state() {
        let mut asm = FrameAssembler::new();
        let wire = framed(b"hello world");
        assert!(asm.push(&wire[..7]).unwrap().is_empty());
        assert!(asm.mid_frame());
        assert_eq!(asm.pending_bytes(), 7);
        let frames = asm.push(&wire[7..]).unwrap();
        assert_eq!(frames, vec![b"hello world".to_vec()]);
        assert!(!asm.mid_frame());
    }

    #[test]
    fn assembler_rejects_hostile_length_prefix_without_allocating() {
        let mut asm = FrameAssembler::new();
        let mut wire = (MAX_FRAME + 1).to_be_bytes().to_vec();
        wire.extend_from_slice(b"abc");
        assert!(asm.push(&wire).is_err());
        // Nothing near the claimed 16 MiB was ever buffered.
        assert!(asm.buf.capacity() < 1024);
    }

    #[test]
    fn assembler_handles_empty_frames() {
        let mut asm = FrameAssembler::new();
        let frames = asm.push(&framed(b"")).unwrap();
        assert_eq!(frames, vec![Vec::<u8>::new()]);
    }
}
