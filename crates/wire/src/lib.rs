//! # txboost-wire — the transactional-object service protocol
//!
//! A compact, length-prefixed binary protocol between `txboost-client`
//! and `txboost-server`. The unit of work is a **transaction script**:
//! an ordered list of method calls over named boosted-object instances
//! that the server executes atomically as one boosted transaction. The
//! reply carries either every op's result (the transaction committed)
//! or a single abort code (no partial effects are ever visible).
//!
//! ## Framing
//!
//! Every message is one frame: a little-endian `u32` payload length
//! followed by that many payload bytes. Receivers enforce a maximum
//! frame size ([`MAX_FRAME_LEN`] by default) and treat violations as
//! protocol errors, never panics — a malformed peer costs one
//! connection, not the process.
//!
//! ## Requests
//!
//! | kind byte | message | payload |
//! |---|---|---|
//! | `0x01` | [`Request::Script`] | `req_id: u64`, `n_ops: u16`, ops |
//! | `0x02` | [`Request::Stats`] | `req_id: u64` |
//! | `0x03` | [`Request::Ping`] | `req_id: u64` |
//! | `0x04` | [`Request::ReadOnlyScript`] | same payload as `Script` |
//! | `0x7F` | [`Request::Shutdown`] | `req_id: u64` |
//!
//! Each op is `opcode: u8`, `guard: u8`, then its operands (object
//! names are `u8`-length-prefixed UTF-8, keys/values/deltas are
//! little-endian 64-bit integers). A [`Guard`] makes a script
//! conditional: after the op executes, its result is checked against
//! the guard, and a mismatch aborts the whole transaction (undoing
//! every earlier op) with [`ScriptStatus::GuardFailed`].
//!
//! ## Responses
//!
//! | kind byte | message |
//! |---|---|
//! | `0x81` | [`Response::Script`] — status, attempt count, per-op results |
//! | `0x82` | [`Response::Stats`] — a UTF-8 JSON document |
//! | `0x83` | [`Response::Pong`] |
//! | `0x84` | [`Response::ShutdownAck`] |
//! | `0xFF` | [`Response::Error`] — protocol error; the server closes the connection after sending it |
//!
//! Pipelining: a client may send any number of request frames before
//! reading replies; the server answers each connection's requests in
//! order, so `req_id`s come back in the order they were sent.

#![warn(missing_docs)]

use std::fmt;
use std::io::{self, Read, Write};

/// Default maximum frame payload size (1 MiB). Large enough for a
/// maximal script, small enough that a hostile length prefix cannot
/// make a receiver allocate unbounded memory.
pub const MAX_FRAME_LEN: u32 = 1 << 20;

/// Maximum number of ops in one script.
pub const MAX_OPS_PER_SCRIPT: u16 = 1024;

/// Maximum byte length of an object name.
pub const MAX_NAME_LEN: usize = 64;

/// Everything that can go wrong encoding, decoding, or transporting a
/// frame.
#[derive(Debug)]
pub enum WireError {
    /// Underlying transport error.
    Io(io::Error),
    /// A length prefix exceeded the receiver's maximum frame size.
    FrameTooLarge {
        /// The advertised payload length.
        len: u32,
        /// The receiver's limit.
        max: u32,
    },
    /// The payload ended before the fields it promised.
    Truncated,
    /// The payload contained bytes past the last field.
    TrailingBytes,
    /// An object name was empty, over [`MAX_NAME_LEN`], or not UTF-8.
    BadName,
    /// Unknown message kind byte.
    UnknownKind(u8),
    /// Unknown opcode byte.
    UnknownOpcode(u8),
    /// Unknown guard byte.
    UnknownGuard(u8),
    /// Unknown script status byte.
    UnknownStatus(u8),
    /// Unknown op-result tag byte.
    UnknownResultTag(u8),
    /// A script declared more than [`MAX_OPS_PER_SCRIPT`] ops.
    TooManyOps(u16),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "i/o error: {e}"),
            WireError::FrameTooLarge { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte limit")
            }
            WireError::Truncated => f.write_str("payload truncated"),
            WireError::TrailingBytes => f.write_str("payload has trailing bytes"),
            WireError::BadName => f.write_str("bad object name"),
            WireError::UnknownKind(b) => write!(f, "unknown message kind 0x{b:02X}"),
            WireError::UnknownOpcode(b) => write!(f, "unknown opcode 0x{b:02X}"),
            WireError::UnknownGuard(b) => write!(f, "unknown guard 0x{b:02X}"),
            WireError::UnknownStatus(b) => write!(f, "unknown status 0x{b:02X}"),
            WireError::UnknownResultTag(b) => write!(f, "unknown result tag 0x{b:02X}"),
            WireError::TooManyOps(n) => {
                write!(f, "script declares {n} ops (limit {MAX_OPS_PER_SCRIPT})")
            }
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

/// One method call over a named object instance.
///
/// Keys, values and deltas are `i64`; IDs are `u64`. Object namespaces
/// are per-type: the map named `"x"` and the counter named `"x"` are
/// different objects. Objects are created on first reference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// `map[key] = val`; result: previous binding as [`OpResult::Value`].
    MapInsert {
        /// Map instance name.
        obj: String,
        /// Key.
        key: i64,
        /// Value to bind.
        val: i64,
    },
    /// Remove `key`; result: removed binding as [`OpResult::Value`].
    MapRemove {
        /// Map instance name.
        obj: String,
        /// Key.
        key: i64,
    },
    /// Membership test; result: [`OpResult::Bool`].
    MapContains {
        /// Map instance name.
        obj: String,
        /// Key.
        key: i64,
    },
    /// Add `delta` to a counter; result: [`OpResult::Unit`].
    CounterAdd {
        /// Counter instance name.
        obj: String,
        /// Signed increment.
        delta: i64,
    },
    /// Read a counter; result: [`OpResult::Value`] (always `Some`).
    CounterGet {
        /// Counter instance name.
        obj: String,
    },
    /// Take a semaphore permit; result: [`OpResult::Unit`].
    SemAcquire {
        /// Semaphore instance name.
        obj: String,
    },
    /// Return a semaphore permit (disposable, applied at commit);
    /// result: [`OpResult::Unit`].
    SemRelease {
        /// Semaphore instance name.
        obj: String,
    },
    /// Draw a unique ID; result: [`OpResult::Id`].
    IdGen {
        /// Generator instance name.
        obj: String,
    },
    /// Add a key to a priority queue; result: [`OpResult::Unit`].
    PqAdd {
        /// Priority-queue instance name.
        obj: String,
        /// Key.
        key: i64,
    },
    /// Remove the minimum; result: [`OpResult::Value`].
    PqRemoveMin {
        /// Priority-queue instance name.
        obj: String,
    },
    /// Abort the transaction on purpose (test/debug hook): every
    /// preceding op in the script is rolled back and the reply status
    /// is [`ScriptStatus::DebugAborted`].
    DebugAbort,
}

impl Op {
    /// Stable opcode, used on the wire and as the server's per-op-type
    /// histogram index.
    pub fn opcode(&self) -> u8 {
        match self {
            Op::MapInsert { .. } => 0x01,
            Op::MapRemove { .. } => 0x02,
            Op::MapContains { .. } => 0x03,
            Op::CounterAdd { .. } => 0x04,
            Op::CounterGet { .. } => 0x05,
            Op::SemAcquire { .. } => 0x06,
            Op::SemRelease { .. } => 0x07,
            Op::IdGen { .. } => 0x08,
            Op::PqAdd { .. } => 0x09,
            Op::PqRemoveMin { .. } => 0x0A,
            Op::DebugAbort => 0x0B,
        }
    }

    /// Human-readable op-type name (stats keys, logs).
    pub fn name(&self) -> &'static str {
        op_name(self.opcode()).expect("own opcode is known")
    }
}

/// Number of distinct opcodes (histogram array size).
pub const NUM_OPCODES: usize = 11;

/// Op-type name for an opcode (`0x01..=0x0B`), or `None`.
pub fn op_name(opcode: u8) -> Option<&'static str> {
    Some(match opcode {
        0x01 => "map_insert",
        0x02 => "map_remove",
        0x03 => "map_contains",
        0x04 => "counter_add",
        0x05 => "counter_get",
        0x06 => "sem_acquire",
        0x07 => "sem_release",
        0x08 => "id_gen",
        0x09 => "pq_add",
        0x0A => "pq_remove_min",
        0x0B => "debug_abort",
        _ => return None,
    })
}

/// A post-condition on one op's result. Evaluated server-side after
/// the op runs; a mismatch aborts the whole transaction, so scripts
/// can express conditional atomic updates ("move the value at `k1` to
/// `k2` only if `k1` is bound and `k2` is free") without a round trip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Guard {
    /// Accept any result.
    #[default]
    None,
    /// Result must be `Value(Some(_))`.
    ExpectSome,
    /// Result must be `Value(None)`.
    ExpectNone,
    /// Result must be `Bool(true)`.
    ExpectTrue,
    /// Result must be `Bool(false)`.
    ExpectFalse,
}

impl Guard {
    fn to_byte(self) -> u8 {
        match self {
            Guard::None => 0,
            Guard::ExpectSome => 1,
            Guard::ExpectNone => 2,
            Guard::ExpectTrue => 3,
            Guard::ExpectFalse => 4,
        }
    }

    fn from_byte(b: u8) -> Result<Self, WireError> {
        Ok(match b {
            0 => Guard::None,
            1 => Guard::ExpectSome,
            2 => Guard::ExpectNone,
            3 => Guard::ExpectTrue,
            4 => Guard::ExpectFalse,
            other => return Err(WireError::UnknownGuard(other)),
        })
    }

    /// Whether `result` satisfies this guard. A guard applied to a
    /// result shape it cannot describe (e.g. `ExpectTrue` on `Unit`)
    /// is unsatisfied — the transaction aborts rather than guessing.
    pub fn admits(&self, result: &OpResult) -> bool {
        match self {
            Guard::None => true,
            Guard::ExpectSome => matches!(result, OpResult::Value(Some(_))),
            Guard::ExpectNone => matches!(result, OpResult::Value(None)),
            Guard::ExpectTrue => matches!(result, OpResult::Bool(true)),
            Guard::ExpectFalse => matches!(result, OpResult::Bool(false)),
        }
    }
}

/// One guarded op in a script.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScriptOp {
    /// The method call.
    pub op: Op,
    /// Post-condition on its result.
    pub guard: Guard,
}

impl ScriptOp {
    /// An unguarded op.
    pub fn new(op: Op) -> Self {
        ScriptOp {
            op,
            guard: Guard::None,
        }
    }

    /// A guarded op.
    pub fn guarded(op: Op, guard: Guard) -> Self {
        ScriptOp { op, guard }
    }
}

/// A client→server message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Execute `ops` atomically as one boosted transaction.
    Script {
        /// Client-chosen correlation id, echoed in the reply.
        req_id: u64,
        /// The transaction script.
        ops: Vec<ScriptOp>,
    },
    /// Fetch the server's stats document (JSON).
    Stats {
        /// Correlation id.
        req_id: u64,
    },
    /// Liveness probe.
    Ping {
        /// Correlation id.
        req_id: u64,
    },
    /// Execute `ops` as one **read-only snapshot transaction**: the
    /// server takes no abstract locks, writes no undo log, and never
    /// aborts or retries — every read observes one consistent committed
    /// snapshot. Only `map_contains` is served: a map key is the one
    /// thing with committed versions to read. Any other op, a mutation
    /// or `counter_get`, fails the whole script with
    /// [`ScriptStatus::ReadOnlyViolation`] (nothing to roll back).
    ReadOnlyScript {
        /// Client-chosen correlation id, echoed in the reply.
        req_id: u64,
        /// The transaction script (read ops only).
        ops: Vec<ScriptOp>,
    },
    /// Ask the server to drain gracefully: in-flight transactions
    /// finish and get replies, then every connection closes.
    Shutdown {
        /// Correlation id.
        req_id: u64,
    },
}

/// Why a script's transaction did not commit (or that it did). The
/// discriminant is the wire status byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ScriptStatus {
    /// The transaction committed; per-op results follow.
    Committed = 0,
    /// Abstract-lock acquisition kept timing out. `txboost-server` no
    /// longer answers it: its scripts cannot deadlock, so their lock
    /// waits have no timeout. The byte stays reserved.
    LockTimeout = 1,
    /// An op could not proceed now: `SemAcquire` found its semaphore
    /// empty. Answered at once; `failed_op` names the op.
    WouldBlock = 2,
    /// A [`Guard`] rejected an op's result; the whole transaction was
    /// rolled back. `failed_op` in the reply names the op.
    GuardFailed = 3,
    /// The script contained [`Op::DebugAbort`].
    DebugAborted = 4,
    /// Retries exhausted for some other reason. `txboost-server` no
    /// longer answers it: a script runs once. The byte stays reserved.
    RetriesExhausted = 5,
    /// A [`Request::ReadOnlyScript`] contained an op other than
    /// `map_contains`. Read-only transactions cannot abort, so this is
    /// a rejection, not a rollback; `failed_op` names the offending op.
    ReadOnlyViolation = 6,
}

impl ScriptStatus {
    /// Every status in wire-byte order (`ALL[s.index()] == s`): the one
    /// list that per-status counters and stats keys derive from.
    pub const ALL: [ScriptStatus; 7] = [
        ScriptStatus::Committed,
        ScriptStatus::LockTimeout,
        ScriptStatus::WouldBlock,
        ScriptStatus::GuardFailed,
        ScriptStatus::DebugAborted,
        ScriptStatus::RetriesExhausted,
        ScriptStatus::ReadOnlyViolation,
    ];

    /// Position in [`ScriptStatus::ALL`] (equal to the wire byte).
    pub fn index(self) -> usize {
        self as usize
    }

    fn to_byte(self) -> u8 {
        self as u8
    }

    fn from_byte(b: u8) -> Result<Self, WireError> {
        Self::ALL
            .get(b as usize)
            .copied()
            .ok_or(WireError::UnknownStatus(b))
    }

    /// Stable lower-snake name (stats keys, load-generator reports).
    pub fn name(&self) -> &'static str {
        match self {
            ScriptStatus::Committed => "committed",
            ScriptStatus::LockTimeout => "lock_timeout",
            ScriptStatus::WouldBlock => "would_block",
            ScriptStatus::GuardFailed => "guard_failed",
            ScriptStatus::DebugAborted => "debug_aborted",
            ScriptStatus::RetriesExhausted => "retries_exhausted",
            ScriptStatus::ReadOnlyViolation => "read_only_violation",
        }
    }
}

/// The result of one committed op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpResult {
    /// The op returns nothing.
    Unit,
    /// A boolean (membership tests).
    Bool(bool),
    /// An optional value (previous/removed bindings, queue minima,
    /// counter reads).
    Value(Option<i64>),
    /// A freshly assigned unique ID.
    Id(u64),
}

/// Protocol-error codes carried by [`Response::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtoErrorCode {
    /// Frame length prefix exceeded the server's limit.
    FrameTooLarge,
    /// The payload could not be decoded.
    Malformed,
    /// Unknown message kind.
    UnknownKind,
    /// Script op budget exceeded.
    TooManyOps,
}

impl ProtoErrorCode {
    fn to_u16(self) -> u16 {
        match self {
            ProtoErrorCode::FrameTooLarge => 1,
            ProtoErrorCode::Malformed => 2,
            ProtoErrorCode::UnknownKind => 3,
            ProtoErrorCode::TooManyOps => 4,
        }
    }

    fn from_u16(v: u16) -> Result<Self, WireError> {
        Ok(match v {
            1 => ProtoErrorCode::FrameTooLarge,
            2 => ProtoErrorCode::Malformed,
            3 => ProtoErrorCode::UnknownKind,
            4 => ProtoErrorCode::TooManyOps,
            other => return Err(WireError::UnknownStatus(other as u8)),
        })
    }
}

/// A server→client message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Outcome of one script.
    Script {
        /// Echoed correlation id.
        req_id: u64,
        /// Commit/abort outcome.
        status: ScriptStatus,
        /// Transaction attempts (1 = committed first try).
        attempts: u32,
        /// Index of the op that failed a guard / raised the debug
        /// abort, when the status identifies one.
        failed_op: Option<u16>,
        /// Per-op results; empty unless `status` is `Committed`.
        results: Vec<OpResult>,
    },
    /// The server's stats document.
    Stats {
        /// Echoed correlation id.
        req_id: u64,
        /// UTF-8 JSON.
        json: String,
    },
    /// Reply to [`Request::Ping`].
    Pong {
        /// Echoed correlation id.
        req_id: u64,
    },
    /// Drain acknowledged; the connection closes after this frame.
    ShutdownAck {
        /// Echoed correlation id.
        req_id: u64,
    },
    /// The peer broke the protocol. The server closes the connection
    /// after sending this (framing may be unrecoverable).
    Error {
        /// Echoed correlation id when one could be parsed, else 0.
        req_id: u64,
        /// What kind of violation.
        code: ProtoErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Write `payload` as one frame.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), WireError> {
    let len = u32::try_from(payload.len()).map_err(|_| WireError::FrameTooLarge {
        len: u32::MAX,
        max: MAX_FRAME_LEN,
    })?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)?;
    Ok(())
}

/// Read one frame, or `Ok(None)` on clean EOF (connection closed
/// between frames). A length prefix above `max_len` is rejected
/// *before* any allocation.
pub fn read_frame(r: &mut impl Read, max_len: u32) -> Result<Option<Vec<u8>>, WireError> {
    let mut len_buf = [0u8; 4];
    // Distinguish EOF-at-frame-boundary (clean close) from EOF inside
    // a frame (truncation).
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len_buf[filled..])? {
            0 if filled == 0 => return Ok(None),
            0 => return Err(WireError::Truncated),
            n => filled += n,
        }
    }
    let len = u32::from_le_bytes(len_buf);
    if len > max_len {
        return Err(WireError::FrameTooLarge { len, max: max_len });
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            WireError::Truncated
        } else {
            WireError::Io(e)
        }
    })?;
    Ok(Some(payload))
}

/// Resumable frame decoder for nonblocking sockets.
///
/// [`read_frame`] assumes a blocking reader that can be parked until a
/// whole frame arrives. A readiness-driven event loop cannot block: a
/// read returns whatever bytes the kernel has, which may be half a
/// length prefix, three frames and a fragment, or one byte. The
/// decoder accumulates those bytes per connection and yields complete
/// frames as they form; any suffix stays buffered for the next
/// readiness event.
///
/// An oversized length prefix is rejected as soon as the 4 header
/// bytes are present — before the payload arrives and before any
/// payload-sized allocation, preserving [`read_frame`]'s hostile-peer
/// guarantee.
#[derive(Debug)]
pub struct FrameDecoder {
    max_len: u32,
    buf: Vec<u8>,
    pos: usize,
}

impl FrameDecoder {
    /// New decoder enforcing `max_len` as the maximum payload size.
    #[must_use]
    pub fn new(max_len: u32) -> Self {
        FrameDecoder {
            max_len,
            buf: Vec::new(),
            pos: 0,
        }
    }

    /// Append freshly-read socket bytes to the decode buffer.
    pub fn feed(&mut self, bytes: &[u8]) {
        // Drop the consumed prefix before growing, so a long-lived
        // connection's buffer stays proportional to its unparsed tail.
        if self.pos > 0 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Pop the next complete frame, `Ok(None)` if more bytes are
    /// needed, or an error for an oversized length prefix. After an
    /// error the connection should be closed; the decoder makes no
    /// attempt to resynchronise.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, WireError> {
        let avail = self.buf.len() - self.pos;
        if avail < 4 {
            return Ok(None);
        }
        let header: [u8; 4] = self.buf[self.pos..self.pos + 4]
            .try_into()
            .expect("slice of length 4");
        let len = u32::from_le_bytes(header);
        if len > self.max_len {
            return Err(WireError::FrameTooLarge {
                len,
                max: self.max_len,
            });
        }
        let total = 4 + len as usize;
        if avail < total {
            return Ok(None);
        }
        let payload = self.buf[self.pos + 4..self.pos + total].to_vec();
        self.pos += total;
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        }
        Ok(Some(payload))
    }

    /// Number of buffered, not-yet-decoded bytes.
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True if the peer closed mid-frame: bytes are buffered but no
    /// complete frame can ever form from them. Used to distinguish a
    /// clean close (EOF at a frame boundary) from truncation.
    #[must_use]
    pub fn mid_frame(&self) -> bool {
        self.buffered() > 0
    }

    /// True if a complete, well-sized frame is buffered — the next
    /// [`FrameDecoder::next_frame`] call would yield `Ok(Some(_))`.
    /// Non-mutating: lets an event loop ask "is decoded work still
    /// pending on this connection?" without popping the frame.
    #[must_use]
    pub fn has_frame(&self) -> bool {
        let avail = self.buffered();
        if avail < 4 {
            return false;
        }
        let Ok(header) = <[u8; 4]>::try_from(&self.buf[self.pos..self.pos + 4]) else {
            return false;
        };
        let len = u32::from_le_bytes(header);
        len <= self.max_len && avail >= 4 + len as usize
    }
}

// ---------------------------------------------------------------------------
// Payload encoding
// ---------------------------------------------------------------------------

fn put_name(out: &mut Vec<u8>, name: &str) {
    debug_assert!(!name.is_empty() && name.len() <= MAX_NAME_LEN);
    out.push(name.len() as u8);
    out.extend_from_slice(name.as_bytes());
}

fn put_op(out: &mut Vec<u8>, sop: &ScriptOp) {
    out.push(sop.op.opcode());
    out.push(sop.guard.to_byte());
    match &sop.op {
        Op::MapInsert { obj, key, val } => {
            put_name(out, obj);
            out.extend_from_slice(&key.to_le_bytes());
            out.extend_from_slice(&val.to_le_bytes());
        }
        Op::MapRemove { obj, key } | Op::MapContains { obj, key } | Op::PqAdd { obj, key } => {
            put_name(out, obj);
            out.extend_from_slice(&key.to_le_bytes());
        }
        Op::CounterAdd { obj, delta } => {
            put_name(out, obj);
            out.extend_from_slice(&delta.to_le_bytes());
        }
        Op::CounterGet { obj }
        | Op::SemAcquire { obj }
        | Op::SemRelease { obj }
        | Op::IdGen { obj }
        | Op::PqRemoveMin { obj } => put_name(out, obj),
        Op::DebugAbort => {}
    }
}

/// Append an op list (`n_ops: u16` prefix, then each op) to `out` —
/// the same encoding a [`Request::Script`] payload carries after its
/// `req_id`. Public so other layers (the server's write-ahead log)
/// can persist scripts in the wire format instead of inventing a
/// second serialization.
pub fn encode_ops(out: &mut Vec<u8>, ops: &[ScriptOp]) {
    debug_assert!(ops.len() <= MAX_OPS_PER_SCRIPT as usize);
    out.extend_from_slice(&(ops.len() as u16).to_le_bytes());
    for sop in ops {
        put_op(out, sop);
    }
}

/// Decode a standalone op list produced by [`encode_ops`]. Enforces
/// the [`MAX_OPS_PER_SCRIPT`] budget and rejects trailing bytes, so a
/// corrupted record can never decode into something a valid encoder
/// would not have produced.
pub fn decode_ops(payload: &[u8]) -> Result<Vec<ScriptOp>, WireError> {
    let mut r = Reader::new(payload);
    let ops = read_ops(&mut r)?;
    r.finish()?;
    Ok(ops)
}

fn read_ops(r: &mut Reader<'_>) -> Result<Vec<ScriptOp>, WireError> {
    let n = r.u16()?;
    if n > MAX_OPS_PER_SCRIPT {
        return Err(WireError::TooManyOps(n));
    }
    let mut ops = Vec::with_capacity(n as usize);
    for _ in 0..n {
        ops.push(read_op(r)?);
    }
    Ok(ops)
}

/// Encode a request into a frame payload.
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    match req {
        Request::Script { req_id, ops } => {
            out.push(0x01);
            out.extend_from_slice(&req_id.to_le_bytes());
            encode_ops(&mut out, ops);
        }
        Request::Stats { req_id } => {
            out.push(0x02);
            out.extend_from_slice(&req_id.to_le_bytes());
        }
        Request::Ping { req_id } => {
            out.push(0x03);
            out.extend_from_slice(&req_id.to_le_bytes());
        }
        Request::ReadOnlyScript { req_id, ops } => {
            out.push(0x04);
            out.extend_from_slice(&req_id.to_le_bytes());
            encode_ops(&mut out, ops);
        }
        Request::Shutdown { req_id } => {
            out.push(0x7F);
            out.extend_from_slice(&req_id.to_le_bytes());
        }
    }
    out
}

/// Encode a response into a frame payload.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    match resp {
        Response::Script {
            req_id,
            status,
            attempts,
            failed_op,
            results,
        } => {
            out.push(0x81);
            out.extend_from_slice(&req_id.to_le_bytes());
            out.push(status.to_byte());
            out.extend_from_slice(&attempts.to_le_bytes());
            out.extend_from_slice(&failed_op.unwrap_or(u16::MAX).to_le_bytes());
            out.extend_from_slice(&(results.len() as u16).to_le_bytes());
            for r in results {
                match r {
                    OpResult::Unit => out.push(0),
                    OpResult::Bool(b) => {
                        out.push(1);
                        out.push(*b as u8);
                    }
                    OpResult::Value(None) => out.push(2),
                    OpResult::Value(Some(v)) => {
                        out.push(3);
                        out.extend_from_slice(&v.to_le_bytes());
                    }
                    OpResult::Id(id) => {
                        out.push(4);
                        out.extend_from_slice(&id.to_le_bytes());
                    }
                }
            }
        }
        Response::Stats { req_id, json } => {
            out.push(0x82);
            out.extend_from_slice(&req_id.to_le_bytes());
            out.extend_from_slice(&(json.len() as u32).to_le_bytes());
            out.extend_from_slice(json.as_bytes());
        }
        Response::Pong { req_id } => {
            out.push(0x83);
            out.extend_from_slice(&req_id.to_le_bytes());
        }
        Response::ShutdownAck { req_id } => {
            out.push(0x84);
            out.extend_from_slice(&req_id.to_le_bytes());
        }
        Response::Error {
            req_id,
            code,
            message,
        } => {
            out.push(0xFF);
            out.extend_from_slice(&req_id.to_le_bytes());
            out.extend_from_slice(&code.to_u16().to_le_bytes());
            let msg = &message.as_bytes()[..message.len().min(u16::MAX as usize)];
            out.extend_from_slice(&(msg.len() as u16).to_le_bytes());
            out.extend_from_slice(msg);
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Payload decoding
// ---------------------------------------------------------------------------

/// Bounds-checked little-endian reader over a payload.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        if end > self.buf.len() {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn i64(&mut self) -> Result<i64, WireError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn name(&mut self) -> Result<String, WireError> {
        let len = self.u8()? as usize;
        if len == 0 || len > MAX_NAME_LEN {
            return Err(WireError::BadName);
        }
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadName)
    }

    fn finish(&self) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::TrailingBytes)
        }
    }
}

fn read_op(r: &mut Reader<'_>) -> Result<ScriptOp, WireError> {
    let opcode = r.u8()?;
    let guard = Guard::from_byte(r.u8()?)?;
    let op = match opcode {
        0x01 => Op::MapInsert {
            obj: r.name()?,
            key: r.i64()?,
            val: r.i64()?,
        },
        0x02 => Op::MapRemove {
            obj: r.name()?,
            key: r.i64()?,
        },
        0x03 => Op::MapContains {
            obj: r.name()?,
            key: r.i64()?,
        },
        0x04 => Op::CounterAdd {
            obj: r.name()?,
            delta: r.i64()?,
        },
        0x05 => Op::CounterGet { obj: r.name()? },
        0x06 => Op::SemAcquire { obj: r.name()? },
        0x07 => Op::SemRelease { obj: r.name()? },
        0x08 => Op::IdGen { obj: r.name()? },
        0x09 => Op::PqAdd {
            obj: r.name()?,
            key: r.i64()?,
        },
        0x0A => Op::PqRemoveMin { obj: r.name()? },
        0x0B => Op::DebugAbort,
        other => return Err(WireError::UnknownOpcode(other)),
    };
    Ok(ScriptOp { op, guard })
}

/// Decode a request frame payload.
pub fn decode_request(payload: &[u8]) -> Result<Request, WireError> {
    let mut r = Reader::new(payload);
    let kind = r.u8()?;
    let req = match kind {
        0x01 => {
            let req_id = r.u64()?;
            let ops = read_ops(&mut r)?;
            Request::Script { req_id, ops }
        }
        0x02 => Request::Stats { req_id: r.u64()? },
        0x03 => Request::Ping { req_id: r.u64()? },
        0x04 => {
            let req_id = r.u64()?;
            let ops = read_ops(&mut r)?;
            Request::ReadOnlyScript { req_id, ops }
        }
        0x7F => Request::Shutdown { req_id: r.u64()? },
        other => return Err(WireError::UnknownKind(other)),
    };
    r.finish()?;
    Ok(req)
}

/// Decode a response frame payload.
pub fn decode_response(payload: &[u8]) -> Result<Response, WireError> {
    let mut r = Reader::new(payload);
    let kind = r.u8()?;
    let resp = match kind {
        0x81 => {
            let req_id = r.u64()?;
            let status = ScriptStatus::from_byte(r.u8()?)?;
            let attempts = r.u32()?;
            let failed_raw = r.u16()?;
            let failed_op = (failed_raw != u16::MAX).then_some(failed_raw);
            let n = r.u16()?;
            let mut results = Vec::with_capacity(n as usize);
            for _ in 0..n {
                let tag = r.u8()?;
                results.push(match tag {
                    0 => OpResult::Unit,
                    1 => OpResult::Bool(r.u8()? != 0),
                    2 => OpResult::Value(None),
                    3 => OpResult::Value(Some(r.i64()?)),
                    4 => OpResult::Id(r.u64()?),
                    other => return Err(WireError::UnknownResultTag(other)),
                });
            }
            Response::Script {
                req_id,
                status,
                attempts,
                failed_op,
                results,
            }
        }
        0x82 => {
            let req_id = r.u64()?;
            let len = r.u32()? as usize;
            let bytes = r.take(len)?;
            let json = String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Truncated)?;
            Response::Stats { req_id, json }
        }
        0x83 => Response::Pong { req_id: r.u64()? },
        0x84 => Response::ShutdownAck { req_id: r.u64()? },
        0xFF => {
            let req_id = r.u64()?;
            let code = ProtoErrorCode::from_u16(r.u16()?)?;
            let len = r.u16()? as usize;
            let bytes = r.take(len)?;
            let message = String::from_utf8_lossy(bytes).into_owned();
            Response::Error {
                req_id,
                code,
                message,
            }
        }
        other => return Err(WireError::UnknownKind(other)),
    };
    r.finish()?;
    Ok(resp)
}

// ---------------------------------------------------------------------------
// Convenience: frame + payload in one call
// ---------------------------------------------------------------------------

/// Write one request as a frame.
pub fn send_request(w: &mut impl Write, req: &Request) -> Result<(), WireError> {
    write_frame(w, &encode_request(req))
}

/// Write one response as a frame.
pub fn send_response(w: &mut impl Write, resp: &Response) -> Result<(), WireError> {
    write_frame(w, &encode_response(resp))
}

/// Read and decode one response frame; `Ok(None)` on clean EOF.
pub fn recv_response(r: &mut impl Read, max_len: u32) -> Result<Option<Response>, WireError> {
    match read_frame(r, max_len)? {
        None => Ok(None),
        Some(payload) => Ok(Some(decode_response(&payload)?)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_list_is_in_wire_byte_order_and_rejects_the_next_byte() {
        for (i, status) in ScriptStatus::ALL.iter().enumerate() {
            assert_eq!(status.index(), i);
            assert_eq!(ScriptStatus::from_byte(status.to_byte()).unwrap(), *status);
        }
        let past = ScriptStatus::ALL.len() as u8;
        assert!(matches!(
            ScriptStatus::from_byte(past),
            Err(WireError::UnknownStatus(b)) if b == past
        ));
    }

    fn sample_ops() -> Vec<ScriptOp> {
        vec![
            ScriptOp::guarded(
                Op::MapRemove {
                    obj: "accounts".into(),
                    key: -7,
                },
                Guard::ExpectSome,
            ),
            ScriptOp::guarded(
                Op::MapInsert {
                    obj: "accounts".into(),
                    key: 9,
                    val: i64::MIN,
                },
                Guard::ExpectNone,
            ),
            ScriptOp::new(Op::MapContains {
                obj: "accounts".into(),
                key: 0,
            }),
            ScriptOp::new(Op::CounterAdd {
                obj: "hits".into(),
                delta: -3,
            }),
            ScriptOp::new(Op::CounterGet { obj: "hits".into() }),
            ScriptOp::new(Op::SemAcquire { obj: "gate".into() }),
            ScriptOp::new(Op::SemRelease { obj: "gate".into() }),
            ScriptOp::new(Op::IdGen { obj: "ids".into() }),
            ScriptOp::new(Op::PqAdd {
                obj: "work".into(),
                key: 42,
            }),
            ScriptOp::new(Op::PqRemoveMin { obj: "work".into() }),
            ScriptOp::new(Op::DebugAbort),
        ]
    }

    #[test]
    fn request_round_trips() {
        for req in [
            Request::Script {
                req_id: 0xDEAD_BEEF_0BAD_F00D,
                ops: sample_ops(),
            },
            Request::Script {
                req_id: 1,
                ops: vec![],
            },
            Request::Stats { req_id: 2 },
            Request::Ping { req_id: u64::MAX },
            Request::ReadOnlyScript {
                req_id: 4,
                ops: vec![
                    ScriptOp::guarded(
                        Op::MapContains {
                            obj: "accounts".into(),
                            key: 12,
                        },
                        Guard::ExpectTrue,
                    ),
                    ScriptOp::new(Op::CounterGet { obj: "hits".into() }),
                ],
            },
            Request::Shutdown { req_id: 3 },
        ] {
            let enc = encode_request(&req);
            assert_eq!(decode_request(&enc).unwrap(), req);
        }
    }

    #[test]
    fn response_round_trips() {
        for resp in [
            Response::Script {
                req_id: 7,
                status: ScriptStatus::Committed,
                attempts: 1,
                failed_op: None,
                results: vec![
                    OpResult::Unit,
                    OpResult::Bool(true),
                    OpResult::Bool(false),
                    OpResult::Value(None),
                    OpResult::Value(Some(-1)),
                    OpResult::Id(u64::MAX),
                ],
            },
            Response::Script {
                req_id: 8,
                status: ScriptStatus::GuardFailed,
                attempts: 3,
                failed_op: Some(1),
                results: vec![],
            },
            Response::Script {
                req_id: 12,
                status: ScriptStatus::ReadOnlyViolation,
                attempts: 1,
                failed_op: Some(0),
                results: vec![],
            },
            Response::Stats {
                req_id: 9,
                json: "{\"ok\":true}".into(),
            },
            Response::Pong { req_id: 10 },
            Response::ShutdownAck { req_id: 11 },
            Response::Error {
                req_id: 0,
                code: ProtoErrorCode::Malformed,
                message: "unknown opcode 0x99".into(),
            },
        ] {
            let enc = encode_response(&resp);
            assert_eq!(decode_response(&enc).unwrap(), resp);
        }
    }

    #[test]
    fn frames_round_trip_over_a_buffer() {
        let req = Request::Script {
            req_id: 5,
            ops: sample_ops(),
        };
        let mut buf = Vec::new();
        send_request(&mut buf, &req).unwrap();
        send_request(&mut buf, &Request::Ping { req_id: 6 }).unwrap();
        let mut cur = &buf[..];
        let p1 = read_frame(&mut cur, MAX_FRAME_LEN).unwrap().unwrap();
        assert_eq!(decode_request(&p1).unwrap(), req);
        let p2 = read_frame(&mut cur, MAX_FRAME_LEN).unwrap().unwrap();
        assert_eq!(decode_request(&p2).unwrap(), Request::Ping { req_id: 6 });
        assert!(read_frame(&mut cur, MAX_FRAME_LEN).unwrap().is_none());
    }

    #[test]
    fn oversized_length_prefix_is_rejected_without_allocating() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(b"junk");
        match read_frame(&mut &buf[..], MAX_FRAME_LEN) {
            Err(WireError::FrameTooLarge { len, max }) => {
                assert_eq!(len, u32::MAX);
                assert_eq!(max, MAX_FRAME_LEN);
            }
            other => panic!("expected FrameTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn truncated_frames_are_truncation_errors_not_panics() {
        // Header cut short.
        let full = encode_request(&Request::Stats { req_id: 1 });
        let mut framed = Vec::new();
        write_frame(&mut framed, &full).unwrap();
        for cut in 1..framed.len() {
            let r = read_frame(&mut &framed[..cut], MAX_FRAME_LEN);
            assert!(
                matches!(r, Err(WireError::Truncated)),
                "cut at {cut}: {r:?}"
            );
        }
    }

    #[test]
    fn every_payload_prefix_fails_cleanly() {
        // Decoding any strict prefix of a valid payload must error,
        // never panic or succeed.
        for req in [
            Request::Script {
                req_id: 3,
                ops: sample_ops(),
            },
            Request::ReadOnlyScript {
                req_id: 3,
                ops: sample_ops(),
            },
        ] {
            let full = encode_request(&req);
            for cut in 0..full.len() {
                assert!(decode_request(&full[..cut]).is_err(), "prefix {cut} passed");
            }
        }
    }

    #[test]
    fn garbage_bytes_fail_cleanly() {
        // Deterministic pseudo-random garbage: every byte string must
        // produce an error or a valid request, never a panic.
        let mut x: u64 = 0x9E3779B97F4A7C15;
        for len in 0..256usize {
            let mut buf = vec![0u8; len];
            for b in &mut buf {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                *b = x as u8;
            }
            let _ = decode_request(&buf);
            let _ = decode_response(&buf);
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut enc = encode_request(&Request::Ping { req_id: 1 });
        enc.push(0);
        assert!(matches!(
            decode_request(&enc),
            Err(WireError::TrailingBytes)
        ));
    }

    #[test]
    fn bad_names_are_rejected() {
        // Zero-length name.
        let mut buf = vec![0x01];
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf.extend_from_slice(&1u16.to_le_bytes());
        buf.push(0x05); // CounterGet
        buf.push(0); // guard None
        buf.push(0); // name len 0
        assert!(matches!(decode_request(&buf), Err(WireError::BadName)));

        // Non-UTF-8 name.
        let mut buf = vec![0x01];
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf.extend_from_slice(&1u16.to_le_bytes());
        buf.push(0x05);
        buf.push(0);
        buf.push(2);
        buf.extend_from_slice(&[0xFF, 0xFE]);
        assert!(matches!(decode_request(&buf), Err(WireError::BadName)));
    }

    #[test]
    fn standalone_op_lists_round_trip() {
        let ops = sample_ops();
        let mut enc = Vec::new();
        encode_ops(&mut enc, &ops);
        assert_eq!(decode_ops(&enc).unwrap(), ops);
        // Every strict prefix fails cleanly, trailing bytes are
        // rejected, and the op budget holds — the same hardening the
        // request decoder has, since WAL records reuse this path.
        for cut in 0..enc.len() {
            assert!(decode_ops(&enc[..cut]).is_err(), "prefix {cut} passed");
        }
        enc.push(0);
        assert!(matches!(decode_ops(&enc), Err(WireError::TrailingBytes)));
        let mut over = Vec::new();
        over.extend_from_slice(&u16::MAX.to_le_bytes());
        assert!(matches!(
            decode_ops(&over),
            Err(WireError::TooManyOps(n)) if n == u16::MAX
        ));
    }

    #[test]
    fn op_budget_is_enforced() {
        // Both script kinds share the op-list decoder and its budget.
        for kind in [0x01u8, 0x04] {
            let mut buf = vec![kind];
            buf.extend_from_slice(&1u64.to_le_bytes());
            buf.extend_from_slice(&u16::MAX.to_le_bytes());
            assert!(matches!(
                decode_request(&buf),
                Err(WireError::TooManyOps(n)) if n == u16::MAX
            ));
        }
    }

    #[test]
    fn guards_admit_matching_results() {
        use Guard::*;
        assert!(None.admits(&OpResult::Unit));
        assert!(ExpectSome.admits(&OpResult::Value(Some(1))));
        assert!(!ExpectSome.admits(&OpResult::Value(Option::None)));
        assert!(!ExpectSome.admits(&OpResult::Unit));
        assert!(ExpectNone.admits(&OpResult::Value(Option::None)));
        assert!(!ExpectNone.admits(&OpResult::Value(Some(0))));
        assert!(ExpectTrue.admits(&OpResult::Bool(true)));
        assert!(!ExpectTrue.admits(&OpResult::Bool(false)));
        assert!(ExpectFalse.admits(&OpResult::Bool(false)));
        assert!(!ExpectFalse.admits(&OpResult::Id(0)));
    }

    #[test]
    fn opcode_names_cover_all_opcodes() {
        for op in sample_ops() {
            assert!(op_name(op.op.opcode()).is_some());
        }
        assert_eq!(op_name(0x0B), Some("debug_abort"));
        assert_eq!(op_name(0x0C), None);
        assert_eq!(op_name(0), None);
    }

    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        write_frame(&mut out, payload).unwrap();
        out
    }

    #[test]
    fn decoder_reassembles_one_byte_at_a_time() {
        let stream = framed(b"hello");
        let mut dec = FrameDecoder::new(MAX_FRAME_LEN);
        for (i, b) in stream.iter().enumerate() {
            assert_eq!(dec.next_frame().unwrap(), None, "frame early at byte {i}");
            dec.feed(std::slice::from_ref(b));
        }
        assert_eq!(dec.next_frame().unwrap().as_deref(), Some(&b"hello"[..]));
        assert_eq!(dec.next_frame().unwrap(), None);
        assert!(!dec.mid_frame());
    }

    #[test]
    fn decoder_yields_multiple_frames_from_one_feed() {
        let mut stream = framed(b"a");
        stream.extend_from_slice(&framed(b""));
        stream.extend_from_slice(&framed(b"three"));
        // Trailing fragment: half a header.
        stream.extend_from_slice(&[9, 0]);
        let mut dec = FrameDecoder::new(MAX_FRAME_LEN);
        dec.feed(&stream);
        assert_eq!(dec.next_frame().unwrap().as_deref(), Some(&b"a"[..]));
        assert_eq!(dec.next_frame().unwrap().as_deref(), Some(&b""[..]));
        assert_eq!(dec.next_frame().unwrap().as_deref(), Some(&b"three"[..]));
        assert_eq!(dec.next_frame().unwrap(), None);
        assert!(dec.mid_frame());
        assert_eq!(dec.buffered(), 2);
    }

    #[test]
    fn decoder_rejects_oversized_header_before_payload() {
        let mut dec = FrameDecoder::new(64);
        dec.feed(&1000u32.to_le_bytes());
        assert!(matches!(
            dec.next_frame(),
            Err(WireError::FrameTooLarge { len: 1000, max: 64 })
        ));
    }

    #[test]
    fn decoder_interleaves_feed_and_decode() {
        let mut dec = FrameDecoder::new(MAX_FRAME_LEN);
        let a = framed(&[1; 10]);
        let b = framed(&[2; 20]);
        dec.feed(&a);
        dec.feed(&b[..3]);
        assert_eq!(dec.next_frame().unwrap().as_deref(), Some(&[1u8; 10][..]));
        assert!(dec.mid_frame());
        dec.feed(&b[3..]);
        assert_eq!(dec.next_frame().unwrap().as_deref(), Some(&[2u8; 20][..]));
        assert!(!dec.mid_frame());
        assert_eq!(dec.buffered(), 0);
    }
}
