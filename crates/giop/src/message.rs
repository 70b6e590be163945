//! GIOP message types, encoding and decoding.
//!
//! The General Inter-ORB Protocol rides on a connection-oriented transport
//! and frames every message with a fixed 12-byte header: the magic
//! `"GIOP"`, a protocol version, a flags octet (bit 0 = little-endian), a
//! message type and the body length. We implement GIOP 1.0 framing with
//! the 1.2 `NEEDS_ADDRESSING_MODE` reply status, which the paper's second
//! scheme fabricates at the client-side interceptor.
//!
//! MEAD's own proactive fail-over messages (crate `mead`) reuse the same
//! 12-byte header layout with the magic `"MEAD"`, so one stream splitter
//! ([`FrameSplitter`]) can carve both kinds of frame out of an intercepted
//! byte stream — that is exactly what the paper's interceptor does when it
//! filters "custom MEAD messages that we piggyback onto regular GIOP
//! messages" (section 3.1).

use bytes::{Bytes, BytesMut};
use core::fmt;

use crate::cdr::{CdrError, CdrReader, CdrWriter, Endian};
use crate::ior::Ior;
use crate::key::ObjectKey;

/// Magic bytes opening every GIOP message.
pub const GIOP_MAGIC: [u8; 4] = *b"GIOP";
/// Magic bytes opening every MEAD control message (see crate `mead`).
pub const MEAD_MAGIC: [u8; 4] = *b"MEAD";
/// Fixed header length shared by GIOP and MEAD frames.
pub const HEADER_LEN: usize = 12;

/// Bounds-checked 4-byte read at `at` (frames are untrusted wire bytes;
/// the decode paths are a detlint R3 no-panic zone).
fn read4(bytes: &[u8], at: usize) -> Result<[u8; 4], GiopError> {
    bytes
        .get(at..at.saturating_add(4))
        .and_then(|s| <[u8; 4]>::try_from(s).ok())
        .ok_or(GiopError::Truncated)
}

/// Bounds-checked single-byte read at `at`.
fn read_u8_at(bytes: &[u8], at: usize) -> Result<u8, GiopError> {
    bytes.get(at).copied().ok_or(GiopError::Truncated)
}

/// Decodes the 4-byte body length at header offset 8 in `endian` order.
fn read_len(bytes: &[u8], little: bool) -> Result<usize, GiopError> {
    let raw = read4(bytes, 8)?;
    let len = if little {
        u32::from_le_bytes(raw)
    } else {
        u32::from_be_bytes(raw)
    };
    Ok(len as usize)
}

/// GIOP message type octet.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum MsgType {
    /// Client request.
    Request = 0,
    /// Server reply.
    Reply = 1,
    /// Cancels an outstanding request.
    CancelRequest = 2,
    /// Object-location query.
    LocateRequest = 3,
    /// Object-location answer.
    LocateReply = 4,
    /// Orderly connection shutdown.
    CloseConnection = 5,
    /// Protocol error notification.
    MessageError = 6,
}

impl MsgType {
    /// The wire octet for this message type (inverse of `from_u8`).
    pub fn code(self) -> u8 {
        match self {
            MsgType::Request => 0,
            MsgType::Reply => 1,
            MsgType::CancelRequest => 2,
            MsgType::LocateRequest => 3,
            MsgType::LocateReply => 4,
            MsgType::CloseConnection => 5,
            MsgType::MessageError => 6,
        }
    }

    fn from_u8(v: u8) -> Result<Self, GiopError> {
        Ok(match v {
            0 => MsgType::Request,
            1 => MsgType::Reply,
            2 => MsgType::CancelRequest,
            3 => MsgType::LocateRequest,
            4 => MsgType::LocateReply,
            5 => MsgType::CloseConnection,
            6 => MsgType::MessageError,
            other => return Err(GiopError::UnknownMsgType(other)),
        })
    }
}

/// GIOP reply status, including the two statuses the paper's proactive
/// schemes hinge on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u32)]
pub enum ReplyStatus {
    /// Normal completion; body holds results.
    NoException = 0,
    /// Application-defined exception.
    UserException = 1,
    /// ORB/system exception (`COMM_FAILURE`, `TRANSIENT`, ...).
    SystemException = 2,
    /// "Retry this request at the object denoted by the enclosed IOR" —
    /// scheme 4.1.
    LocationForward = 3,
    /// "Supply more addressing information and resend" — scheme 4.2.
    NeedsAddressingMode = 5,
}

impl ReplyStatus {
    /// The wire discriminant for this status (inverse of `from_u32`).
    pub fn code(self) -> u32 {
        match self {
            ReplyStatus::NoException => 0,
            ReplyStatus::UserException => 1,
            ReplyStatus::SystemException => 2,
            ReplyStatus::LocationForward => 3,
            ReplyStatus::NeedsAddressingMode => 5,
        }
    }

    fn from_u32(v: u32) -> Result<Self, GiopError> {
        Ok(match v {
            0 => ReplyStatus::NoException,
            1 => ReplyStatus::UserException,
            2 => ReplyStatus::SystemException,
            3 => ReplyStatus::LocationForward,
            5 => ReplyStatus::NeedsAddressingMode,
            other => {
                return Err(GiopError::Cdr(CdrError::InvalidEnum {
                    what: "ReplyStatus",
                    value: other,
                }))
            }
        })
    }
}

/// Errors raised while decoding GIOP frames.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GiopError {
    /// The frame does not start with a known magic.
    BadMagic([u8; 4]),
    /// Unsupported protocol version.
    BadVersion(u8, u8),
    /// Unknown message-type octet.
    UnknownMsgType(u8),
    /// Marshalling error in header or body.
    Cdr(CdrError),
    /// Frame is shorter than its header claims.
    Truncated,
}

impl fmt::Display for GiopError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GiopError::BadMagic(m) => write!(f, "bad frame magic {m:?}"),
            GiopError::BadVersion(ma, mi) => write!(f, "unsupported GIOP version {ma}.{mi}"),
            GiopError::UnknownMsgType(t) => write!(f, "unknown GIOP message type {t}"),
            GiopError::Cdr(e) => write!(f, "marshalling error: {e}"),
            GiopError::Truncated => write!(f, "truncated frame"),
        }
    }
}

impl std::error::Error for GiopError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GiopError::Cdr(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CdrError> for GiopError {
    fn from(e: CdrError) -> Self {
        GiopError::Cdr(e)
    }
}

/// A client request message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RequestMessage {
    /// Matches the reply to the request on this connection.
    pub request_id: u32,
    /// `false` for oneway operations.
    pub response_expected: bool,
    /// Target object's persistent key.
    pub object_key: ObjectKey,
    /// Operation name, e.g. `"time_of_day"`.
    pub operation: String,
    /// CDR-encoded in-parameters.
    pub body: Vec<u8>,
}

/// The payload of a reply, by status.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReplyBody {
    /// Results (CDR-encoded out-parameters).
    NoException(Vec<u8>),
    /// Application exception (repository id).
    UserException(String),
    /// System exception.
    SystemException {
        /// Exception repository id, e.g. `"IDL:omg.org/CORBA/COMM_FAILURE:1.0"`.
        repo_id: String,
        /// Vendor minor code.
        minor: u32,
        /// Completion status (0 = YES, 1 = NO, 2 = MAYBE).
        completed: u32,
    },
    /// Redirect: retry at the object named by this IOR.
    LocationForward(Ior),
    /// Resend with more addressing information (addressing disposition).
    NeedsAddressingMode(u16),
}

impl ReplyBody {
    /// The wire status corresponding to this body.
    pub fn status(&self) -> ReplyStatus {
        match self {
            ReplyBody::NoException(_) => ReplyStatus::NoException,
            ReplyBody::UserException(_) => ReplyStatus::UserException,
            ReplyBody::SystemException { .. } => ReplyStatus::SystemException,
            ReplyBody::LocationForward(_) => ReplyStatus::LocationForward,
            ReplyBody::NeedsAddressingMode(_) => ReplyStatus::NeedsAddressingMode,
        }
    }
}

/// A server reply message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplyMessage {
    /// Matches [`RequestMessage::request_id`].
    pub request_id: u32,
    /// Status-discriminated payload.
    pub body: ReplyBody,
}

/// Any GIOP message we produce or consume.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Message {
    /// Client request.
    Request(RequestMessage),
    /// Server reply.
    Reply(ReplyMessage),
    /// Orderly shutdown notice.
    CloseConnection,
    /// Protocol error notice.
    MessageError,
}

impl Message {
    /// Encodes the message as a complete wire frame (header + body) in
    /// `endian` byte order, built in one buffer.
    pub fn encode(&self, endian: Endian) -> Vec<u8> {
        match self {
            Message::Request(req) => encode_request(
                endian,
                req.request_id,
                req.response_expected,
                &req.object_key,
                &req.operation,
                &req.body,
            ),
            Message::Reply(rep) => encode_frame(GIOP_MAGIC, MsgType::Reply.code(), endian, |w| {
                w.write_u32(0); // empty service context sequence
                w.write_u32(rep.request_id);
                w.write_u32(rep.body.status().code());
                match &rep.body {
                    ReplyBody::NoException(out) => w.write_raw(out),
                    ReplyBody::UserException(repo_id) => w.write_string(repo_id),
                    ReplyBody::SystemException {
                        repo_id,
                        minor,
                        completed,
                    } => {
                        w.write_string(repo_id);
                        w.write_u32(*minor);
                        w.write_u32(*completed);
                    }
                    ReplyBody::LocationForward(ior) => ior.write_into(w),
                    ReplyBody::NeedsAddressingMode(disposition) => w.write_u16(*disposition),
                }
            }),
            Message::CloseConnection => {
                encode_frame(GIOP_MAGIC, MsgType::CloseConnection.code(), endian, |_| {})
            }
            Message::MessageError => {
                encode_frame(GIOP_MAGIC, MsgType::MessageError.code(), endian, |_| {})
            }
        }
    }

    /// Decodes a complete frame previously produced by a [`FrameSplitter`].
    /// The body is read in place; only the decoded fields are copied out.
    ///
    /// # Errors
    ///
    /// Any [`GiopError`] on malformed input; never panics on hostile bytes.
    pub fn decode(frame: &[u8]) -> Result<Message, GiopError> {
        let magic = read4(frame, 0)?;
        if magic != GIOP_MAGIC {
            return Err(GiopError::BadMagic(magic));
        }
        let (major, minor) = (read_u8_at(frame, 4)?, read_u8_at(frame, 5)?);
        if major != 1 {
            return Err(GiopError::BadVersion(major, minor));
        }
        let little = read_u8_at(frame, 6)? & 1 == 1;
        let endian = if little { Endian::Little } else { Endian::Big };
        let msg_type = MsgType::from_u8(read_u8_at(frame, 7)?)?;
        let declared = read_len(frame, little)?;
        let body = frame.get(HEADER_LEN..).unwrap_or(&[]);
        let body = body.get(..declared).ok_or(GiopError::Truncated)?;
        match msg_type {
            MsgType::Request => {
                let mut r = CdrReader::new(body, endian);
                let _svc = r.read_u32()?;
                let request_id = r.read_u32()?;
                let response_expected = r.read_bool()?;
                let object_key = ObjectKey::from_bytes(r.read_octets()?.to_vec());
                let operation = r.read_string()?;
                let _principal = r.read_octets()?;
                Ok(Message::Request(RequestMessage {
                    request_id,
                    response_expected,
                    object_key,
                    operation,
                    body: r.rest().to_vec(),
                }))
            }
            MsgType::Reply => {
                let mut r = CdrReader::new(body, endian);
                let _svc = r.read_u32()?;
                let request_id = r.read_u32()?;
                let status = ReplyStatus::from_u32(r.read_u32()?)?;
                let reply_body = match status {
                    ReplyStatus::NoException => ReplyBody::NoException(r.rest().to_vec()),
                    ReplyStatus::UserException => ReplyBody::UserException(r.read_string()?),
                    ReplyStatus::SystemException => ReplyBody::SystemException {
                        repo_id: r.read_string()?,
                        minor: r.read_u32()?,
                        completed: r.read_u32()?,
                    },
                    ReplyStatus::LocationForward => {
                        ReplyBody::LocationForward(Ior::read_from(&mut r)?)
                    }
                    ReplyStatus::NeedsAddressingMode => {
                        ReplyBody::NeedsAddressingMode(r.read_u16()?)
                    }
                };
                Ok(Message::Reply(ReplyMessage {
                    request_id,
                    body: reply_body,
                }))
            }
            MsgType::CloseConnection => Ok(Message::CloseConnection),
            MsgType::MessageError => Ok(Message::MessageError),
            other => Err(GiopError::UnknownMsgType(other.code())),
        }
    }
}

/// Encodes a GIOP Request frame from borrowed parts: the bytes
/// `Message::Request(..).encode(endian)` produces, without first cloning
/// the parts into a [`RequestMessage`].
pub fn encode_request(
    endian: Endian,
    request_id: u32,
    response_expected: bool,
    object_key: &ObjectKey,
    operation: &str,
    body: &[u8],
) -> Vec<u8> {
    encode_frame(GIOP_MAGIC, MsgType::Request.code(), endian, |w| {
        w.write_u32(0); // empty service context sequence
        w.write_u32(request_id);
        w.write_bool(response_expected);
        w.write_octets(object_key.as_bytes());
        w.write_string(operation);
        w.write_octets(&[]); // principal (deprecated)
        w.write_raw(body);
    })
}

/// Builds a 12-byte-header frame (shared by GIOP and MEAD messages) in
/// one buffer: `body` marshals the body into a writer whose alignment
/// counts from the body start, then the header is filled in.
pub fn encode_frame(
    magic: [u8; 4],
    msg_type: u8,
    endian: Endian,
    body: impl FnOnce(&mut CdrWriter),
) -> Vec<u8> {
    let mut w = CdrWriter::framed(endian, HEADER_LEN);
    body(&mut w);
    let [l0, l1, l2, l3] = match endian {
        Endian::Big => crate::cdr::wire_len(w.len()).to_be_bytes(),
        Endian::Little => crate::cdr::wire_len(w.len()).to_le_bytes(),
    };
    let flags = match endian {
        Endian::Big => 0,
        Endian::Little => 1,
    };
    let [m0, m1, m2, m3] = magic;
    // magic, version 1.0, flags, message type, body length
    let header = [m0, m1, m2, m3, 1, 0, flags, msg_type, l0, l1, l2, l3];
    let mut out = w.finish();
    if let Some(slot) = out.get_mut(..HEADER_LEN) {
        slot.copy_from_slice(&header);
    }
    out
}

/// Which protocol a split frame belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameKind {
    /// Ordinary GIOP traffic.
    Giop,
    /// MEAD control traffic piggybacked on the same stream.
    Mead,
}

impl FrameKind {
    fn of(magic: [u8; 4]) -> Result<FrameKind, GiopError> {
        match magic {
            GIOP_MAGIC => Ok(FrameKind::Giop),
            MEAD_MAGIC => Ok(FrameKind::Mead),
            other => Err(GiopError::BadMagic(other)),
        }
    }
}

/// A complete frame carved from a byte stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// Protocol discriminator (by magic).
    pub kind: FrameKind,
    /// The full frame bytes, header included.
    pub bytes: Bytes,
}

impl Frame {
    /// The frame's message-type octet (header byte 7). Frames produced by
    /// [`FrameSplitter`] always carry a full header; a hand-built short
    /// `Frame` reads as [`MsgType::MessageError`] rather than panicking.
    pub fn msg_type(&self) -> u8 {
        self.bytes
            .get(7)
            .copied()
            .unwrap_or(MsgType::MessageError.code())
    }

    /// The frame's body (everything after the fixed header).
    pub fn body(&self) -> &[u8] {
        self.bytes.get(HEADER_LEN..).unwrap_or(&[])
    }
}

/// Reassembles length-framed messages from a byte stream delivered in
/// arbitrary segments; shared by [`FrameSplitter`] and groupcomm's
/// `GcsSplitter`.
///
/// The stream is `partial ++ head`. A segment pushed as [`Bytes`] becomes
/// `head`, and every whole frame in it is carved out as a zero-copy view
/// of that segment. Only a frame that spans segments is copied, into
/// `partial`, and only as many bytes as it needs. Bytes pushed as a slice
/// are copied into `partial`; frames then come out of that buffer.
#[derive(Debug, Default)]
pub struct Reassembler {
    /// The front of the stream: a frame begun in an earlier segment, or
    /// everything pushed by copy.
    partial: BytesMut,
    /// The uncarved rest of the latest zero-copy segment.
    head: Bytes,
}

impl Reassembler {
    /// Appends a copy of `data` to the stream.
    pub fn push(&mut self, data: &[u8]) {
        self.stash_head();
        self.partial.extend_from_slice(data);
    }

    /// Appends `data` to the stream without copying it.
    pub fn push_bytes(&mut self, data: Bytes) {
        if data.is_empty() {
            return;
        }
        self.stash_head();
        self.head = data;
    }

    /// Bytes buffered but not yet framed.
    pub fn buffered(&self) -> usize {
        self.partial.len().saturating_add(self.head.len())
    }

    /// Moves the uncarved rest of `head` behind `partial` (a copy), so a
    /// later segment can follow it.
    fn stash_head(&mut self) {
        if !self.head.is_empty() {
            self.partial.extend_from_slice(&self.head);
        }
        self.head = Bytes::new();
    }

    /// Carves the next complete frame. Once `header` bytes are buffered,
    /// `frame_len` reads them and returns the whole frame's length
    /// (header included) or rejects the stream; its error is returned
    /// and the stream is left as it was.
    ///
    /// # Errors
    ///
    /// Whatever `frame_len` returns.
    pub fn next_frame<E>(
        &mut self,
        header: usize,
        frame_len: impl Fn(&[u8]) -> Result<usize, E>,
    ) -> Result<Option<Bytes>, E> {
        // A frame begun in an earlier segment: top it up from `head`.
        // Each pass either returns or moves at least one byte of `head`
        // into `partial`, so the loop is bounded by `head.len()`.
        while !self.partial.is_empty() {
            let want = if self.partial.len() < header {
                header
            } else {
                frame_len(&self.partial)?.max(header)
            };
            if want <= self.partial.len() {
                return Ok(Some(self.partial.split_to(want).freeze()));
            }
            if self.head.is_empty() {
                return Ok(None);
            }
            let n = (want - self.partial.len()).min(self.head.len());
            self.partial.extend_from_slice(&self.head.split_to(n));
        }
        // Frame boundary at the front of `head`: carve in place.
        if self.head.len() < header {
            self.stash_head();
            return Ok(None);
        }
        let total = frame_len(&self.head)?.max(header);
        if total > self.head.len() {
            self.stash_head();
            return Ok(None);
        }
        Ok(Some(self.head.split_to(total)))
    }
}

/// The length of the GIOP/MEAD frame whose 12-byte header starts `buf`.
fn giop_frame_len(buf: &[u8]) -> Result<usize, GiopError> {
    FrameKind::of(read4(buf, 0)?)?;
    let little = read_u8_at(buf, 6)? & 1 == 1;
    Ok(HEADER_LEN.saturating_add(read_len(buf, little)?))
}

/// Incremental stream splitter: feed it raw bytes as they arrive, pull out
/// complete GIOP/MEAD frames.
///
/// ```
/// use giop::{Endian, FrameKind, FrameSplitter, Message};
///
/// let frame = Message::CloseConnection.encode(Endian::Big);
/// let mut s = FrameSplitter::new();
/// s.push(&frame[..5]); // partial delivery
/// assert!(s.next_frame().unwrap().is_none());
/// s.push(&frame[5..]);
/// let got = s.next_frame().unwrap().unwrap();
/// assert_eq!(got.kind, FrameKind::Giop);
/// ```
#[derive(Debug, Default)]
pub struct FrameSplitter {
    stream: Reassembler,
}

impl FrameSplitter {
    /// Creates an empty splitter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a copy of newly received bytes.
    pub fn push(&mut self, data: &[u8]) {
        self.stream.push(data);
    }

    /// Appends newly received bytes without copying them: whole frames
    /// come out as views of `data` (see [`Reassembler`]).
    pub fn push_bytes(&mut self, data: Bytes) {
        self.stream.push_bytes(data);
    }

    /// Bytes buffered but not yet framed.
    pub fn buffered(&self) -> usize {
        self.stream.buffered()
    }

    /// Extracts the next complete frame, if one is buffered.
    ///
    /// # Errors
    ///
    /// [`GiopError::BadMagic`] if the stream is out of sync (the connection
    /// should be torn down, as a real ORB would).
    pub fn next_frame(&mut self) -> Result<Option<Frame>, GiopError> {
        let Some(bytes) = self.stream.next_frame(HEADER_LEN, giop_frame_len)? else {
            return Ok(None);
        };
        let kind = FrameKind::of(read4(&bytes, 0)?)?;
        Ok(Some(Frame { kind, bytes }))
    }

    /// Appends every complete frame currently buffered to `out` (a list
    /// the caller can reuse across reads).
    ///
    /// # Errors
    ///
    /// Propagates the first [`GiopError::BadMagic`] encountered.
    pub fn drain_frames(&mut self, out: &mut Vec<Frame>) -> Result<(), GiopError> {
        while let Some(f) = self.next_frame()? {
            out.push(f);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_request() -> RequestMessage {
        RequestMessage {
            request_id: 42,
            response_expected: true,
            object_key: ObjectKey::persistent("TimePOA", "TimeOfDay"),
            operation: "time_of_day".into(),
            body: vec![1, 2, 3, 4],
        }
    }

    #[test]
    fn request_roundtrip_both_endians() {
        for endian in [Endian::Big, Endian::Little] {
            let msg = Message::Request(sample_request());
            let wire = msg.encode(endian);
            assert_eq!(Message::decode(&wire).unwrap(), msg);
        }
    }

    #[test]
    fn reply_bodies_roundtrip() {
        let bodies = vec![
            ReplyBody::NoException(vec![9, 9, 9]),
            ReplyBody::UserException("IDL:App/Oops:1.0".into()),
            ReplyBody::SystemException {
                repo_id: "IDL:omg.org/CORBA/COMM_FAILURE:1.0".into(),
                minor: 2,
                completed: 1,
            },
            ReplyBody::LocationForward(Ior::singleton(
                "IDL:TimeOfDay:1.0",
                "node2",
                2810,
                ObjectKey::persistent("TimePOA", "TimeOfDay"),
            )),
            ReplyBody::NeedsAddressingMode(2),
        ];
        for body in bodies {
            let msg = Message::Reply(ReplyMessage {
                request_id: 7,
                body,
            });
            let wire = msg.encode(Endian::Big);
            assert_eq!(Message::decode(&wire).unwrap(), msg);
        }
    }

    #[test]
    fn control_messages_roundtrip() {
        for msg in [Message::CloseConnection, Message::MessageError] {
            let wire = msg.encode(Endian::Big);
            assert_eq!(Message::decode(&wire).unwrap(), msg);
        }
    }

    #[test]
    fn splitter_handles_partial_and_coalesced_delivery() {
        let m1 = Message::Request(sample_request()).encode(Endian::Big);
        let m2 = Message::Reply(ReplyMessage {
            request_id: 42,
            body: ReplyBody::NoException(vec![5]),
        })
        .encode(Endian::Big);
        let mut all = m1.to_vec();
        all.extend_from_slice(&m2);
        // Feed one byte at a time.
        let mut s = FrameSplitter::new();
        let mut frames = Vec::new();
        for b in &all {
            s.push(std::slice::from_ref(b));
            while let Some(f) = s.next_frame().unwrap() {
                frames.push(f);
            }
        }
        assert_eq!(frames.len(), 2);
        assert_eq!(
            Message::decode(&frames[0].bytes).unwrap(),
            Message::Request(sample_request())
        );
        assert_eq!(s.buffered(), 0);
    }

    #[test]
    fn splitter_distinguishes_mead_frames() {
        let giop = Message::CloseConnection.encode(Endian::Big);
        let mead = encode_frame(MEAD_MAGIC, 1, Endian::Big, |w| w.write_raw(&[0xAA; 20]));
        let mut s = FrameSplitter::new();
        s.push(&mead);
        s.push(&giop);
        let mut frames = Vec::new();
        s.drain_frames(&mut frames).unwrap();
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0].kind, FrameKind::Mead);
        assert_eq!(frames[0].body().len(), 20);
        assert_eq!(frames[1].kind, FrameKind::Giop);
    }

    #[test]
    fn whole_frames_are_views_of_the_pushed_segment() {
        let close = Message::CloseConnection.encode(Endian::Big);
        let error = Message::MessageError.encode(Endian::Little);
        let mut seg = close.clone();
        seg.extend_from_slice(&error);
        seg.extend_from_slice(&close[..5]);
        let seg = Bytes::from(seg);
        let mut s = FrameSplitter::new();
        s.push_bytes(seg.clone());
        let first = s.next_frame().unwrap().unwrap();
        let second = s.next_frame().unwrap().unwrap();
        assert_eq!(first.bytes.as_ptr(), seg.as_ptr());
        assert_eq!(second.bytes.as_ptr(), seg.as_ptr().wrapping_add(HEADER_LEN));
        assert_eq!(second.bytes, error);
        // Only the trailing partial frame is copied; the next segment
        // completes it.
        assert!(s.next_frame().unwrap().is_none());
        assert_eq!(s.buffered(), 5);
        s.push_bytes(Bytes::copy_from_slice(&close[5..]));
        assert_eq!(s.next_frame().unwrap().unwrap().bytes, close);
        assert_eq!(s.buffered(), 0);
    }

    #[test]
    fn splitter_rejects_garbage() {
        let mut s = FrameSplitter::new();
        s.push(b"NOTAPROTOCOLFRAME");
        assert!(matches!(s.next_frame(), Err(GiopError::BadMagic(_))));
    }

    #[test]
    fn decode_rejects_bad_version_and_type() {
        let mut wire = Message::CloseConnection.encode(Endian::Big).to_vec();
        wire[4] = 9;
        assert!(matches!(
            Message::decode(&wire),
            Err(GiopError::BadVersion(9, 0))
        ));
        let mut wire = Message::CloseConnection.encode(Endian::Big).to_vec();
        wire[7] = 99;
        assert!(matches!(
            Message::decode(&wire),
            Err(GiopError::UnknownMsgType(99))
        ));
    }

    #[test]
    fn decode_never_panics_on_truncation() {
        let wire = Message::Request(sample_request()).encode(Endian::Big);
        for cut in 0..wire.len() {
            let _ = Message::decode(&wire[..cut]);
        }
    }

    #[test]
    fn oneway_request_flag_survives() {
        let mut req = sample_request();
        req.response_expected = false;
        let wire = Message::Request(req.clone()).encode(Endian::Big);
        match Message::decode(&wire).unwrap() {
            Message::Request(r) => assert!(!r.response_expected),
            other => panic!("expected request, got {other:?}"),
        }
    }

    #[test]
    fn frame_header_size_matches_spec() {
        let wire = Message::CloseConnection.encode(Endian::Big);
        assert_eq!(wire.len(), HEADER_LEN);
        assert_eq!(&wire[0..4], b"GIOP");
    }
}
