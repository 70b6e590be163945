//! Shared interceptor plumbing: staged streams and timer-token namespaces.
//!
//! The interceptor sits between the kernel and the application process the
//! way the paper's `LD_PRELOAD` library sits between libc and the ORB: it
//! sees every read and write first. Incoming bytes are drained from the
//! real connection into a per-stream [`giop::FrameSplitter`]; control
//! frames are consumed, application frames are re-staged byte-identically
//! for the application's own `read()` to pick up.

use bytes::Bytes;
use giop::{Frame, FrameSplitter, GiopError};
use simnet::{ConnId, ReadOutcome, RecvQueue};

/// Timer tokens at or above this value belong to the interceptor (and its
/// embedded GCS client); application code must keep its tokens below.
pub const TOKEN_BASE: u64 = 1 << 62;
/// GCS client retry timer.
pub const TOKEN_GCS: u64 = TOKEN_BASE;
/// Memory-leak step timer (150 ms).
pub const TOKEN_LEAK: u64 = TOKEN_BASE + 1;
/// Post-migration drain timer.
pub const TOKEN_DRAIN: u64 = TOKEN_BASE + 2;
/// Warm-passive checkpoint timer.
pub const TOKEN_CHECKPOINT: u64 = TOKEN_BASE + 3;
/// Address-query timeout timer (client side, 10 ms).
pub const TOKEN_QUERY_TIMEOUT: u64 = TOKEN_BASE + 4;
/// Resource-pressure activation timer (fires once at `activate_at`).
pub const TOKEN_PRESSURE_ARM: u64 = TOKEN_BASE + 5;
/// CPU-exhaustion ramp tick timer.
pub const TOKEN_PRESSURE_TICK: u64 = TOKEN_BASE + 6;
/// Base for redirect-completion timers (client side); offsets index the
/// interceptor's `finishing` table.
pub const TOKEN_REDIRECT_DONE_BASE: u64 = TOKEN_BASE + 1000;

/// `true` when a timer token belongs to interceptor infrastructure.
pub fn is_intercept_token(token: u64) -> bool {
    token >= TOKEN_BASE
}

/// One intercepted byte stream, identified to the application by its
/// original connection id even if the interceptor has since redirected it
/// (`dup2()`-style) to a different real connection.
#[derive(Debug)]
pub struct Stream {
    /// The application-visible connection id (the original one).
    pub app: ConnId,
    /// The real connection currently carrying the stream.
    pub real: ConnId,
    /// Splitter over incoming real bytes.
    pub read_split: FrameSplitter,
    /// Splitter over outgoing application bytes.
    pub write_split: FrameSplitter,
    /// Bytes staged for the application to read. Segmented so staging a
    /// frame is a zero-copy enqueue of its refcounted bytes.
    stage: RecvQueue,
    /// EOF reached (after `stage` drains).
    pub stage_eof: bool,
    /// Writes buffered while a redirect is in flight.
    pub pending_writes: Vec<Vec<u8>>,
    /// Inbound frames held while a redirect is in flight (the paper's
    /// interceptor redirects synchronously inside `read()` before passing
    /// the accompanying reply up to the application).
    pub held_frames: Vec<giop::Frame>,
    /// A redirect is in flight; application writes are buffered.
    pub redirecting: bool,
}

impl Stream {
    /// Creates a stream whose app-visible and real ids coincide (the
    /// initial state of every connection).
    pub fn new(conn: ConnId) -> Self {
        Stream {
            app: conn,
            real: conn,
            read_split: FrameSplitter::new(),
            write_split: FrameSplitter::new(),
            stage: RecvQueue::new(),
            stage_eof: false,
            pending_writes: Vec::new(),
            held_frames: Vec::new(),
            redirecting: false,
        }
    }

    /// Feeds incoming real bytes (without copying them) and appends the
    /// complete frames now available to `frames`; the caller decides which
    /// to consume and which to [`stage`](Self::stage_frame).
    ///
    /// # Errors
    ///
    /// Propagates [`GiopError::BadMagic`] on stream desynchronisation.
    pub fn push_incoming(&mut self, data: Bytes, frames: &mut Vec<Frame>) -> Result<(), GiopError> {
        self.read_split.push_bytes(data);
        self.read_split.drain_frames(frames)
    }

    /// Feeds outgoing application bytes and appends the complete frames to
    /// `frames`. The bytes are copied once, here, where they enter the
    /// wire: the frames are views of that copy, ready for
    /// [`SysApi::write_bytes`](simnet::SysApi::write_bytes).
    ///
    /// # Errors
    ///
    /// Propagates [`GiopError::BadMagic`] on malformed application output.
    pub fn push_outgoing(&mut self, data: &[u8], frames: &mut Vec<Frame>) -> Result<(), GiopError> {
        self.write_split.push_bytes(Bytes::copy_from_slice(data));
        self.write_split.drain_frames(frames)
    }

    /// Re-stages a frame byte-identically for the application to read.
    /// Zero-copy: the frame's refcounted bytes are enqueued as a segment.
    pub fn stage_frame(&mut self, frame: &Frame) {
        self.stage.push(frame.bytes.clone());
    }

    /// Stages fabricated bytes (a reply the interceptor made up).
    pub fn stage_bytes(&mut self, bytes: Vec<u8>) {
        self.stage.push(Bytes::from(bytes));
    }

    /// Bytes currently staged.
    pub fn staged_len(&self) -> usize {
        self.stage.len()
    }

    /// Serves the application's `read()` from the stage.
    pub fn read(&mut self, max: usize) -> ReadOutcome {
        let data = self.stage.read(max);
        ReadOutcome {
            data,
            eof: self.stage.is_empty() && self.stage_eof,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use giop::{Endian, Message};

    #[test]
    fn token_namespace() {
        assert!(is_intercept_token(TOKEN_GCS));
        assert!(is_intercept_token(TOKEN_QUERY_TIMEOUT));
        assert!(!is_intercept_token(0));
        assert!(!is_intercept_token(TOKEN_BASE - 1));
    }

    #[test]
    fn stage_and_read_roundtrip() {
        let mut s = Stream::new(ConnId::default_for_tests());
        let wire = Message::CloseConnection.encode(Endian::Big);
        let mut frames = Vec::new();
        s.push_incoming(Bytes::from(wire.clone()), &mut frames)
            .unwrap();
        assert_eq!(frames.len(), 1);
        s.stage_frame(&frames[0]);
        assert_eq!(s.staged_len(), wire.len());
        let out = s.read(usize::MAX);
        assert_eq!(&out.data[..], &wire[..]);
        assert!(!out.eof);
        s.stage_eof = true;
        assert!(s.read(usize::MAX).eof);
    }

    #[test]
    fn partial_reads_respect_max() {
        let mut s = Stream::new(ConnId::default_for_tests());
        s.stage_bytes(vec![1, 2, 3, 4, 5]);
        let first = s.read(2);
        assert_eq!(&first.data[..], &[1, 2]);
        let rest = s.read(usize::MAX);
        assert_eq!(&rest.data[..], &[3, 4, 5]);
    }

    /// Test-only ConnId constructor (streams don't dereference the id).
    trait ConnIdTestExt {
        fn default_for_tests() -> ConnId;
    }
    impl ConnIdTestExt for ConnId {
        fn default_for_tests() -> ConnId {
            // Any ConnId works for Stream bookkeeping; obtain one via a
            // throwaway simulation.
            use simnet::*;
            use std::cell::RefCell;
            use std::rc::Rc;
            struct Grab(Rc<RefCell<Option<ConnId>>>);
            impl Process for Grab {
                fn on_start(&mut self, sys: &mut dyn SysApi) {
                    *self.0.borrow_mut() = Some(sys.connect(Addr::new(sys.my_node(), Port(1))));
                }
                fn on_event(&mut self, _: &mut dyn SysApi, _: Event) {}
            }
            let cell = Rc::new(RefCell::new(None));
            let mut sim = Simulation::new(SimConfig::default());
            let n = sim.add_node("t");
            sim.spawn(n, "grab", Box::new(Grab(cell.clone())));
            sim.run_until(SimTime::from_millis(50));
            let got = *cell.borrow();
            got.expect("connect allocates an id")
        }
    }
}
