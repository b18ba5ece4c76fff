//! # txboost-client — blocking client for `txboost-server`
//!
//! A [`Connection`] is one TCP connection speaking the `txboost-wire`
//! protocol: build a script with [`ScriptBuilder`], [`Connection::execute`]
//! it atomically, or pipeline with [`Connection::send_script`] /
//! [`Connection::recv_script`].
//!
//! ```no_run
//! use txboost_client::{Connection, ScriptBuilder};
//! use txboost_wire::Guard;
//!
//! let mut conn = Connection::connect("127.0.0.1:7411").unwrap();
//! let outcome = conn
//!     .execute(
//!         ScriptBuilder::new()
//!             .map_remove_guarded("accounts", 1, Guard::ExpectSome)
//!             .map_insert_guarded("accounts", 2, 100, Guard::ExpectNone)
//!             .build(),
//!     )
//!     .unwrap();
//! assert!(outcome.committed() || outcome.aborted());
//! ```

#![warn(missing_docs)]

use std::fmt;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;
use txboost_wire::{
    self as wire, Guard, Op, OpResult, ProtoErrorCode, Request, Response, ScriptOp, ScriptStatus,
    WireError, MAX_FRAME_LEN,
};

/// Client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Transport or encoding failure.
    Wire(WireError),
    /// The server reported a protocol error (and closed the
    /// connection).
    Protocol {
        /// Violation class.
        code: ProtoErrorCode,
        /// Server-provided detail.
        message: String,
    },
    /// The server closed the connection where a reply was expected.
    ConnectionClosed,
    /// The server answered with a different message kind or id than
    /// the request outstanding at the head of the pipeline.
    UnexpectedReply,
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Wire(e) => write!(f, "wire error: {e}"),
            ClientError::Protocol { code, message } => {
                write!(f, "server protocol error {code:?}: {message}")
            }
            ClientError::ConnectionClosed => f.write_str("connection closed by server"),
            ClientError::UnexpectedReply => f.write_str("out-of-order or mismatched reply"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Wire(WireError::Io(e))
    }
}

/// Outcome of one executed script.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Commit/abort status.
    pub status: ScriptStatus,
    /// Transaction attempts the server made: 1, since `txboost-server`
    /// runs every script once.
    pub attempts: u32,
    /// Index of the op that failed its guard / raised the debug abort.
    pub failed_op: Option<u16>,
    /// Per-op results (empty unless committed).
    pub results: Vec<OpResult>,
}

impl Outcome {
    /// Did the transaction commit?
    pub fn committed(&self) -> bool {
        self.status == ScriptStatus::Committed
    }

    /// Did the transaction abort (any status except committed)?
    pub fn aborted(&self) -> bool {
        !self.committed()
    }
}

/// Fluent builder for transaction scripts.
#[derive(Debug, Default, Clone)]
pub struct ScriptBuilder {
    ops: Vec<ScriptOp>,
    read_only: bool,
}

impl ScriptBuilder {
    /// An empty script.
    pub fn new() -> Self {
        ScriptBuilder::default()
    }

    /// Mark the script **read-only**: [`Connection::run`] sends it as a
    /// [`Request::ReadOnlyScript`], which the server executes as an
    /// abort-free snapshot transaction — no abstract locks, no undo
    /// log, no retries. It serves `map_contains` only: any other op,
    /// a mutation or `counter_get`, is rejected with
    /// [`ScriptStatus::ReadOnlyViolation`].
    pub fn read_only(mut self) -> Self {
        self.read_only = true;
        self
    }

    /// Whether [`ScriptBuilder::read_only`] was called.
    pub fn is_read_only(&self) -> bool {
        self.read_only
    }

    /// Append an arbitrary (guarded) op.
    pub fn push(mut self, op: ScriptOp) -> Self {
        self.ops.push(op);
        self
    }

    /// `map[key] = val`.
    pub fn map_insert(self, obj: &str, key: i64, val: i64) -> Self {
        self.map_insert_guarded(obj, key, val, Guard::None)
    }

    /// `map[key] = val` with a post-condition on the previous binding.
    pub fn map_insert_guarded(self, obj: &str, key: i64, val: i64, guard: Guard) -> Self {
        self.push(ScriptOp::guarded(
            Op::MapInsert {
                obj: obj.to_string(),
                key,
                val,
            },
            guard,
        ))
    }

    /// Remove `key` from a map.
    pub fn map_remove(self, obj: &str, key: i64) -> Self {
        self.map_remove_guarded(obj, key, Guard::None)
    }

    /// Remove `key` with a post-condition on the removed binding.
    pub fn map_remove_guarded(self, obj: &str, key: i64, guard: Guard) -> Self {
        self.push(ScriptOp::guarded(
            Op::MapRemove {
                obj: obj.to_string(),
                key,
            },
            guard,
        ))
    }

    /// Membership test.
    pub fn map_contains(self, obj: &str, key: i64) -> Self {
        self.push(ScriptOp::new(Op::MapContains {
            obj: obj.to_string(),
            key,
        }))
    }

    /// Add `delta` to a counter.
    pub fn counter_add(self, obj: &str, delta: i64) -> Self {
        self.push(ScriptOp::new(Op::CounterAdd {
            obj: obj.to_string(),
            delta,
        }))
    }

    /// Read a counter.
    pub fn counter_get(self, obj: &str) -> Self {
        self.push(ScriptOp::new(Op::CounterGet {
            obj: obj.to_string(),
        }))
    }

    /// Take a semaphore permit.
    pub fn sem_acquire(self, obj: &str) -> Self {
        self.push(ScriptOp::new(Op::SemAcquire {
            obj: obj.to_string(),
        }))
    }

    /// Return a semaphore permit (takes effect at commit).
    pub fn sem_release(self, obj: &str) -> Self {
        self.push(ScriptOp::new(Op::SemRelease {
            obj: obj.to_string(),
        }))
    }

    /// Draw a unique ID.
    pub fn id_gen(self, obj: &str) -> Self {
        self.push(ScriptOp::new(Op::IdGen {
            obj: obj.to_string(),
        }))
    }

    /// Add a key to a priority queue.
    pub fn pq_add(self, obj: &str, key: i64) -> Self {
        self.push(ScriptOp::new(Op::PqAdd {
            obj: obj.to_string(),
            key,
        }))
    }

    /// Remove a priority queue's minimum.
    pub fn pq_remove_min(self, obj: &str) -> Self {
        self.push(ScriptOp::new(Op::PqRemoveMin {
            obj: obj.to_string(),
        }))
    }

    /// Force the transaction to abort (test hook).
    pub fn debug_abort(self) -> Self {
        self.push(ScriptOp::new(Op::DebugAbort))
    }

    /// The finished script.
    pub fn build(self) -> Vec<ScriptOp> {
        self.ops
    }
}

/// One blocking connection to a txboost server.
#[derive(Debug)]
pub struct Connection {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    next_req_id: u64,
    max_frame: u32,
}

impl Connection {
    /// Connect (with `TCP_NODELAY`, no timeouts).
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Connection> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let read_half = stream.try_clone()?;
        Ok(Connection {
            reader: BufReader::new(read_half),
            writer: BufWriter::new(stream),
            next_req_id: 1,
            max_frame: MAX_FRAME_LEN,
        })
    }

    /// Set a read timeout for replies (`None` = block forever).
    pub fn set_read_timeout(&mut self, t: Option<Duration>) -> io::Result<()> {
        self.reader.get_ref().set_read_timeout(t)
    }

    fn send(&mut self, req: &Request) -> Result<(), ClientError> {
        wire::send_request(&mut self.writer, req)?;
        self.writer.flush()?;
        Ok(())
    }

    fn recv(&mut self) -> Result<Response, ClientError> {
        match wire::recv_response(&mut self.reader, self.max_frame)? {
            None => Err(ClientError::ConnectionClosed),
            Some(Response::Error { code, message, .. }) => {
                Err(ClientError::Protocol { code, message })
            }
            Some(resp) => Ok(resp),
        }
    }

    /// Send a script without waiting for its reply (pipelining).
    /// Returns the request id; replies come back in send order via
    /// [`Connection::recv_script`].
    pub fn send_script(&mut self, ops: Vec<ScriptOp>) -> Result<u64, ClientError> {
        let req_id = self.next_req_id;
        self.next_req_id += 1;
        self.send(&Request::Script { req_id, ops })?;
        Ok(req_id)
    }

    /// Receive the next pipelined script reply.
    pub fn recv_script(&mut self) -> Result<(u64, Outcome), ClientError> {
        match self.recv()? {
            Response::Script {
                req_id,
                status,
                attempts,
                failed_op,
                results,
            } => Ok((
                req_id,
                Outcome {
                    status,
                    attempts,
                    failed_op,
                    results,
                },
            )),
            _ => Err(ClientError::UnexpectedReply),
        }
    }

    /// Execute one script atomically and wait for its outcome.
    pub fn execute(&mut self, ops: Vec<ScriptOp>) -> Result<Outcome, ClientError> {
        let sent = self.send_script(ops)?;
        let (req_id, outcome) = self.recv_script()?;
        if req_id != sent {
            return Err(ClientError::UnexpectedReply);
        }
        Ok(outcome)
    }

    /// Send a **read-only snapshot script** without waiting for its
    /// reply (pipelining counterpart of
    /// [`Connection::execute_read_only`]).
    pub fn send_read_only_script(&mut self, ops: Vec<ScriptOp>) -> Result<u64, ClientError> {
        let req_id = self.next_req_id;
        self.next_req_id += 1;
        self.send(&Request::ReadOnlyScript { req_id, ops })?;
        Ok(req_id)
    }

    /// Execute `ops` as one read-only snapshot transaction: the server
    /// takes no abstract locks and never aborts or retries, so the
    /// reply always comes back after exactly one attempt.
    pub fn execute_read_only(&mut self, ops: Vec<ScriptOp>) -> Result<Outcome, ClientError> {
        let sent = self.send_read_only_script(ops)?;
        let (req_id, outcome) = self.recv_script()?;
        if req_id != sent {
            return Err(ClientError::UnexpectedReply);
        }
        Ok(outcome)
    }

    /// Execute a built script, routing on [`ScriptBuilder::read_only`]:
    /// read-only scripts take the lock-free snapshot path, everything
    /// else the classic boosted-transaction path.
    pub fn run(&mut self, script: ScriptBuilder) -> Result<Outcome, ClientError> {
        if script.read_only {
            self.execute_read_only(script.ops)
        } else {
            self.execute(script.ops)
        }
    }

    /// Fetch the server's stats document (JSON).
    pub fn stats_json(&mut self) -> Result<String, ClientError> {
        let req_id = self.next_req_id;
        self.next_req_id += 1;
        self.send(&Request::Stats { req_id })?;
        match self.recv()? {
            Response::Stats { req_id: got, json } if got == req_id => Ok(json),
            _ => Err(ClientError::UnexpectedReply),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        let req_id = self.next_req_id;
        self.next_req_id += 1;
        self.send(&Request::Ping { req_id })?;
        match self.recv()? {
            Response::Pong { req_id: got } if got == req_id => Ok(()),
            _ => Err(ClientError::UnexpectedReply),
        }
    }

    /// Ask the server to drain gracefully. The ack is the last frame
    /// on this connection.
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        let req_id = self.next_req_id;
        self.next_req_id += 1;
        self.send(&Request::Shutdown { req_id })?;
        match self.recv()? {
            Response::ShutdownAck { req_id: got } if got == req_id => Ok(()),
            _ => Err(ClientError::UnexpectedReply),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_produces_the_expected_ops() {
        let ops = ScriptBuilder::new()
            .map_insert("m", 1, 2)
            .map_remove_guarded("m", 1, Guard::ExpectSome)
            .counter_add("c", -1)
            .id_gen("g")
            .debug_abort()
            .build();
        assert_eq!(ops.len(), 5);
        assert_eq!(ops[1].guard, Guard::ExpectSome);
        assert_eq!(ops[4].op, Op::DebugAbort);
        assert_eq!(
            ops[0].op,
            Op::MapInsert {
                obj: "m".into(),
                key: 1,
                val: 2
            }
        );
    }

    #[test]
    fn builder_read_only_flag_defaults_off_and_sticks() {
        let plain = ScriptBuilder::new().map_contains("m", 1);
        assert!(!plain.is_read_only());
        let ro = ScriptBuilder::new()
            .read_only()
            .map_contains("m", 1)
            .counter_get("c");
        assert!(ro.is_read_only());
        assert_eq!(ro.build().len(), 2);
    }
}
