//! Frame channels: the one abstraction every RDS client talks through.
//!
//! A [`FrameDuplex`] sends encoded frames and receives replies with its
//! halves decoupled, so the same [`RdsPipeline`](crate::RdsPipeline)
//! (and [`RdsClient`](crate::RdsClient), its window-1 shell) runs over
//! a real socket ([`TcpDuplex`]), an in-process server
//! ([`LoopbackDuplex`]) or a fault injector
//! ([`FaultDuplex`](crate::FaultDuplex)) wrapped around either.

use crate::reactor::FrameAssembler;
use crate::tcp::write_frame;
use crate::RdsError;
use std::collections::VecDeque;
use std::io::Read;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

fn io_err(e: std::io::Error) -> RdsError {
    RdsError::Transport { message: e.to_string() }
}

/// A bidirectional frame channel with decoupled halves: frames are sent
/// without awaiting a reply, and received in whatever order the peer
/// produces them.
pub trait FrameDuplex {
    /// Queues/writes one frame toward the peer.
    ///
    /// # Errors
    ///
    /// Connection failures as [`RdsError::Transport`].
    fn send_frame(&mut self, bytes: &[u8]) -> Result<(), RdsError>;

    /// Waits up to `timeout` for one frame; `Ok(None)` when none
    /// arrived in time (the connection is still fine). A zero timeout
    /// is a pure poll: return whatever is already available without
    /// waiting at all.
    ///
    /// # Errors
    ///
    /// A broken or closed connection — after which [`reconnect`]
    /// (if supported) must be called before further use.
    ///
    /// [`reconnect`]: FrameDuplex::reconnect
    fn recv_frame(&mut self, timeout: Duration) -> Result<Option<Vec<u8>>, RdsError>;

    /// Re-establishes the channel after an error. Implementations that
    /// cannot (e.g. an accepted socket) keep the default.
    ///
    /// # Errors
    ///
    /// [`RdsError::Transport`] when unsupported or the peer is gone.
    fn reconnect(&mut self) -> Result<(), RdsError> {
        Err(RdsError::Transport { message: "this duplex cannot reconnect".to_string() })
    }
}

/// [`FrameDuplex`] over TCP: blocking writes, timeout-bounded reads
/// through a [`FrameAssembler`] (a read deadline may split a frame; the
/// assembler keeps the partial bytes), and re-dialing of the original
/// peer on demand.
#[derive(Debug)]
pub struct TcpDuplex {
    stream: Option<TcpStream>,
    peer: SocketAddr,
    assembler: FrameAssembler,
    /// Complete frames read but not yet handed out.
    ready: VecDeque<Vec<u8>>,
    reconnects: u64,
}

impl TcpDuplex {
    /// Connects to an RDS server.
    ///
    /// # Errors
    ///
    /// Connection failures as [`RdsError::Transport`].
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<TcpDuplex, RdsError> {
        let stream = TcpStream::connect(addr).map_err(io_err)?;
        stream.set_nodelay(true).map_err(io_err)?;
        let peer = stream.peer_addr().map_err(io_err)?;
        Ok(TcpDuplex {
            stream: Some(stream),
            peer,
            assembler: FrameAssembler::new(),
            ready: VecDeque::new(),
            reconnects: 0,
        })
    }

    /// The server's address.
    pub fn peer_addr(&self) -> SocketAddr {
        self.peer
    }

    /// Successful re-dials after the initial connection.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }
}

impl FrameDuplex for TcpDuplex {
    fn send_frame(&mut self, bytes: &[u8]) -> Result<(), RdsError> {
        let stream = self
            .stream
            .as_mut()
            .ok_or_else(|| RdsError::Transport { message: "not connected".to_string() })?;
        write_frame(stream, bytes).inspect_err(|_| self.stream = None)
    }

    fn recv_frame(&mut self, timeout: Duration) -> Result<Option<Vec<u8>>, RdsError> {
        if let Some(frame) = self.ready.pop_front() {
            return Ok(Some(frame));
        }
        // A zero timeout is a pure poll: read in nonblocking mode so a
        // quiet socket costs nothing (a 1 ms "short" read timeout per
        // poll would dominate a pipelined submit loop).
        let nonblocking = timeout.is_zero();
        let deadline = Instant::now() + timeout;
        loop {
            let Some(stream) = self.stream.as_mut() else {
                return Err(RdsError::Transport { message: "not connected".to_string() });
            };
            if nonblocking {
                stream.set_nonblocking(true).map_err(io_err)?;
            } else {
                let remaining = deadline.saturating_duration_since(Instant::now());
                if remaining.is_zero() {
                    return Ok(None);
                }
                // set_read_timeout rejects zero; 1 ms is the floor.
                stream
                    .set_read_timeout(Some(remaining.max(Duration::from_millis(1))))
                    .map_err(io_err)?;
            }
            let mut chunk = [0u8; 64 * 1024];
            let read = stream.read(&mut chunk);
            if nonblocking {
                // Leave the socket blocking for send_frame and for any
                // later timed receive.
                stream.set_nonblocking(false).map_err(io_err)?;
            }
            match read {
                Ok(0) => {
                    self.stream = None;
                    return Err(RdsError::Transport {
                        message: "server closed the connection".to_string(),
                    });
                }
                Ok(n) => match self.assembler.push(&chunk[..n]) {
                    Ok(frames) => {
                        self.ready.extend(frames);
                        if let Some(frame) = self.ready.pop_front() {
                            return Ok(Some(frame));
                        }
                        // Partial frame — keep reading until the deadline.
                    }
                    Err(e) => {
                        self.stream = None;
                        return Err(e);
                    }
                },
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return Ok(None);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => {
                    self.stream = None;
                    return Err(io_err(e));
                }
            }
        }
    }

    fn reconnect(&mut self) -> Result<(), RdsError> {
        self.stream = None;
        // Any partial frame belonged to the dead connection; complete
        // frames already assembled are still valid responses.
        self.assembler = FrameAssembler::new();
        let stream = TcpStream::connect(self.peer).map_err(io_err)?;
        stream.set_nodelay(true).map_err(io_err)?;
        self.stream = Some(stream);
        self.reconnects += 1;
        Ok(())
    }
}

type Responder = Box<dyn FnMut(&[u8]) -> Vec<u8> + Send>;

/// In-process [`FrameDuplex`]: the "remote" server is a closure called
/// inline at send time; its replies queue until received. Receiving
/// never waits — an empty queue is an immediate `Ok(None)` — and
/// reconnecting always succeeds (there is no connection to lose).
///
/// # Examples
///
/// ```
/// use rds::{FrameDuplex, LoopbackDuplex};
/// use std::time::Duration;
///
/// let mut echo = LoopbackDuplex::new(|req: &[u8]| req.to_vec());
/// echo.send_frame(&[1, 2]).unwrap();
/// assert_eq!(echo.recv_frame(Duration::ZERO).unwrap(), Some(vec![1, 2]));
/// assert_eq!(echo.recv_frame(Duration::ZERO).unwrap(), None);
/// ```
pub struct LoopbackDuplex {
    respond: Responder,
    replies: VecDeque<Vec<u8>>,
}

impl std::fmt::Debug for LoopbackDuplex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LoopbackDuplex").field("queued", &self.replies.len()).finish()
    }
}

impl LoopbackDuplex {
    /// Wraps a responder function (request frame → reply frame).
    pub fn new<F>(respond: F) -> LoopbackDuplex
    where
        F: FnMut(&[u8]) -> Vec<u8> + Send + 'static,
    {
        LoopbackDuplex { respond: Box::new(respond), replies: VecDeque::new() }
    }
}

impl FrameDuplex for LoopbackDuplex {
    fn send_frame(&mut self, bytes: &[u8]) -> Result<(), RdsError> {
        let reply = (self.respond)(bytes);
        self.replies.push_back(reply);
        Ok(())
    }

    fn recv_frame(&mut self, _timeout: Duration) -> Result<Option<Vec<u8>>, RdsError> {
        Ok(self.replies.pop_front())
    }

    fn reconnect(&mut self) -> Result<(), RdsError> {
        Ok(())
    }
}
