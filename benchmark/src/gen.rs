//! Seeded workload generators.
//!
//! The seed is the only input: each client stream is a pure function
//! of `(workload, seed, client index, client count)`, and the system
//! under test sees nothing but the scripts. Every generator keeps a
//! model of the state its own scripts produce, so each script carries
//! the reply a correct server must give ([`Expect`]). To keep that
//! model exact under concurrency, mutable keys are partitioned between
//! the streams (key or pair index modulo the stream count); only
//! `exec_contended`, whose point is real conflicts, shares keys and
//! checks reply shapes instead of exact values.

use txboost_wire::{Guard, Op, OpResult, ScriptOp};

/// Counters `c0..c63` of the wire workloads.
pub const COUNTERS: usize = 64;
/// Keys of `wire_small`'s map — small enough to stay in cache.
pub const SMALL_KEYS: u64 = 1024;
/// `wire_durable`'s accounts: 512 pairs, 1,024 keys.
pub const ACCOUNT_PAIRS: u64 = 512;
/// `wire_readmostly`'s map: 131,072 pairs, 262,144 keys — at ~100 B a
/// key (entry, lock-table slot, version chain) larger than the L2.
pub const READMOSTLY_PAIRS: u64 = 131_072;
/// `exec_contended`: keys, the hot subset, and how often a key is
/// drawn from it.
pub const CONTENDED_KEYS: u64 = 1024;
pub const HOT_KEYS: u64 = 16;
pub const HOT_PERCENT: u64 = 90;
/// Keys the priority queue is seeded with, so `remove_min` always
/// finds one.
pub const PQ_SEED_KEYS: u64 = 1024;

/// The benchmark's four traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    WireSmall,
    WireDurable,
    WireReadmostly,
    ExecContended,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::WireSmall,
        Workload::WireDurable,
        Workload::WireReadmostly,
        Workload::ExecContended,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WireSmall => "wire_small",
            Workload::WireDurable => "wire_durable",
            Workload::WireReadmostly => "wire_readmostly",
            Workload::ExecContended => "exec_contended",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload drives a server child over TCP.
    pub fn is_wire(self) -> bool {
        self != Workload::ExecContended
    }

    /// Whether the server runs with a write-ahead log.
    pub fn durable(self) -> bool {
        self == Workload::WireDurable
    }
}

/// SplitMix64: tiny, seedable, and good enough to pick keys.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Stream `stream` of `seed`; distinct streams are unrelated.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// What a correct server must answer to one generated script.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// `[Unit]`: one `counter_add(c<i>, 1)`.
    CounterAdd(u16),
    /// `[Value(prev)]`: a `map_insert` over a key this client owns.
    Insert(Option<i64>),
    /// `[Bool(present)]`: a `map_contains` of a key this client owns.
    Contains(bool),
    /// `[Value(Some(val)), Value(None)]`: the present key of an owned
    /// pair moved to its twin; followed by `Unit` when the script also
    /// bumps the `moves` counter.
    Move { val: i64, counted: bool },
    /// Four `Bool`s over two pairs, exactly one `true` per pair — the
    /// snapshot must never see a move half done.
    PairScan,
    /// `[Value(_), Value(_), Unit]`: a transfer over shared keys.
    TransferShape,
    /// `[Value(Some(_)), Unit]`: the seeded queue never runs dry, since
    /// every script that takes a key puts one back.
    PqCycle,
    /// `[Id(_)]`.
    Id,
}

impl Expect {
    pub fn admits(&self, results: &[OpResult]) -> bool {
        use OpResult::{Bool, Id, Unit, Value};
        match (*self, results) {
            (Expect::CounterAdd(_), [Unit]) | (Expect::Id, [Id(_)]) => true,
            (Expect::Insert(prev), [Value(got)]) => *got == prev,
            (Expect::Contains(present), [Bool(got)]) => *got == present,
            (
                Expect::Move {
                    val,
                    counted: false,
                },
                [Value(Some(got)), Value(None)],
            )
            | (Expect::Move { val, counted: true }, [Value(Some(got)), Value(None), Unit]) => {
                *got == val
            }
            (Expect::PairScan, [Bool(a), Bool(b), Bool(c), Bool(d)]) => a != b && c != d,
            (Expect::TransferShape, [Value(_), Value(_), Unit]) => true,
            (Expect::PqCycle, [Value(Some(_)), Unit]) => true,
            _ => false,
        }
    }
}

/// One generated script and the reply it must get.
#[derive(Debug, Clone)]
pub struct Script {
    /// Sent as `ReadOnlyScript` (snapshot path) instead of `Script`.
    pub read_only: bool,
    pub ops: Vec<ScriptOp>,
    pub expect: Expect,
}

/// `op`, unguarded — no script of the benchmark uses guards: a guard
/// makes a script ineligible for batching, and the replies are checked
/// on the client instead.
pub fn op(op: Op) -> ScriptOp {
    ScriptOp {
        op,
        guard: Guard::None,
    }
}

const MAP_SMALL: &str = "m";
const MAP_ACCOUNTS: &str = "accounts";
const MAP_PAIRS: &str = "pairs";
pub const COUNTER_MOVES: &str = "moves";
pub const PQ: &str = "q";
const IDS: &str = "ids";

pub fn counter_name(i: usize) -> String {
    format!("c{i}")
}

/// The pairs one client owns (`pair % clients == client`) and, for
/// each, which key holds the value. Pair `p` is keys `2p` and `2p+1`;
/// `2p` starts present, bound to itself.
#[derive(Debug, Clone)]
struct PairModel {
    client: u64,
    clients: u64,
    /// Per owned pair: is the odd key the present one?
    odd: Vec<bool>,
    val: Vec<i64>,
}

impl PairModel {
    fn new(pairs: u64, client: u64, clients: u64) -> PairModel {
        let owned = (pairs - client).div_ceil(clients) as usize;
        PairModel {
            client,
            clients,
            odd: vec![false; owned],
            val: (0..owned as u64)
                .map(|i| 2 * (i * clients + client) as i64)
                .collect(),
        }
    }

    /// Move a random owned pair's value to the twin key. Returns
    /// `(from, to, value that was bound)`.
    fn flip(&mut self, rng: &mut Rng) -> (i64, i64, i64) {
        let i = rng.below(self.odd.len() as u64) as usize;
        let base = 2 * (i as u64 * self.clients + self.client) as i64;
        let (from, to) = if self.odd[i] {
            (base + 1, base)
        } else {
            (base, base + 1)
        };
        let was = self.val[i];
        self.odd[i] = !self.odd[i];
        self.val[i] = from;
        (from, to, was)
    }

    /// The present key of every owned pair.
    fn present_keys(&self) -> impl Iterator<Item = i64> + '_ {
        self.odd
            .iter()
            .enumerate()
            .map(|(i, odd)| 2 * (i as u64 * self.clients + self.client) as i64 + i64::from(*odd))
    }
}

/// One client's script stream.
#[derive(Debug, Clone)]
pub struct Gen {
    workload: Workload,
    rng: Rng,
    client: u64,
    clients: u64,
    counter_names: Vec<String>,
    /// `wire_small`: bindings of the keys this client owns, indexed by
    /// `key / clients`.
    small: Vec<Option<i64>>,
    pairs: PairModel,
    /// `counter_add`s generated so far, per counter.
    pub sent_adds: [u64; COUNTERS],
    /// Scripts generated so far that bump `moves`.
    pub sent_moves: u64,
}

impl Gen {
    pub fn new(workload: Workload, seed: u64, client: usize, clients: usize) -> Gen {
        let (client, clients) = (client as u64, clients as u64);
        let pair_count = match workload {
            Workload::WireReadmostly => READMOSTLY_PAIRS,
            _ => ACCOUNT_PAIRS,
        };
        let owned_small = (SMALL_KEYS - client).div_ceil(clients);
        Gen {
            workload,
            // Stream 0 is reserved for harness-side choices.
            rng: Rng::new(seed, client + 1),
            client,
            clients,
            counter_names: (0..COUNTERS).map(counter_name).collect(),
            small: (0..owned_small)
                .map(|i| Some((i * clients + client) as i64))
                .collect(),
            pairs: PairModel::new(pair_count, client, clients),
            sent_adds: [0; COUNTERS],
            sent_moves: 0,
        }
    }

    /// The next script of the stream.
    pub fn next_script(&mut self) -> Script {
        // Shares are in hundred-thousandths.
        let roll = self.rng.below(100_000);
        match self.workload {
            Workload::WireSmall => match roll {
                0..60_000 => self.counter_add(),
                60_000..80_000 => {
                    let i = self.rng.below(self.small.len() as u64);
                    let val = self.rng.below(1 << 20) as i64;
                    let prev = self.small[i as usize].replace(val);
                    Script {
                        read_only: false,
                        ops: vec![op(Op::MapInsert {
                            obj: MAP_SMALL.into(),
                            key: (i * self.clients + self.client) as i64,
                            val,
                        })],
                        expect: Expect::Insert(prev),
                    }
                }
                _ => {
                    let i = self.rng.below(self.small.len() as u64);
                    Script {
                        read_only: false,
                        ops: vec![op(Op::MapContains {
                            obj: MAP_SMALL.into(),
                            key: (i * self.clients + self.client) as i64,
                        })],
                        expect: Expect::Contains(self.small[i as usize].is_some()),
                    }
                }
            },
            Workload::WireDurable => match roll {
                0..75_000 => self.counter_add(),
                _ => self.move_pair(MAP_ACCOUNTS, true),
            },
            Workload::WireReadmostly => match roll {
                0..90_000 => {
                    let mut ops = Vec::with_capacity(4);
                    for _ in 0..2 {
                        let pair = self.rng.below(READMOSTLY_PAIRS) as i64;
                        for key in [2 * pair, 2 * pair + 1] {
                            ops.push(op(Op::MapContains {
                                obj: MAP_PAIRS.into(),
                                key,
                            }));
                        }
                    }
                    Script {
                        read_only: true,
                        ops,
                        expect: Expect::PairScan,
                    }
                }
                _ => self.move_pair(MAP_PAIRS, false),
            },
            Workload::ExecContended => match roll {
                0..70_000 => {
                    let from = self.contended_key();
                    let mut to = self.contended_key();
                    while to == from {
                        to = self.contended_key();
                    }
                    self.sent_moves += 1;
                    Script {
                        read_only: false,
                        ops: transfer_ops(MAP_ACCOUNTS, from, to, true),
                        expect: Expect::TransferShape,
                    }
                }
                // `remove_min` first: it takes the queue's lock
                // exclusively, and the `add` then runs under it. The
                // other order upgrades shared to exclusive, which
                // deadlocks (10 ms) every time two such scripts overlap
                // and made runs bimodal, 5k to 170k scripts/s.
                70_000..90_000 => Script {
                    read_only: false,
                    ops: vec![
                        op(Op::PqRemoveMin { obj: PQ.into() }),
                        op(Op::PqAdd {
                            obj: PQ.into(),
                            key: self.rng.below(1 << 30) as i64,
                        }),
                    ],
                    expect: Expect::PqCycle,
                },
                _ => Script {
                    read_only: false,
                    ops: vec![op(Op::IdGen { obj: IDS.into() })],
                    expect: Expect::Id,
                },
            },
        }
    }

    fn counter_add(&mut self) -> Script {
        let i = self.rng.below(COUNTERS as u64) as usize;
        self.sent_adds[i] += 1;
        Script {
            read_only: false,
            ops: vec![op(Op::CounterAdd {
                obj: self.counter_names[i].clone(),
                delta: 1,
            })],
            expect: Expect::CounterAdd(i as u16),
        }
    }

    fn move_pair(&mut self, map: &str, counted: bool) -> Script {
        let (from, to, val) = self.pairs.flip(&mut self.rng);
        if counted {
            self.sent_moves += 1;
        }
        Script {
            read_only: false,
            ops: transfer_ops(map, from, to, counted),
            expect: Expect::Move { val, counted },
        }
    }

    fn contended_key(&mut self) -> i64 {
        let range = if self.rng.below(100) < HOT_PERCENT {
            HOT_KEYS
        } else {
            CONTENDED_KEYS
        };
        self.rng.below(range) as i64
    }

    /// Keys of this client's partition that the model says are bound
    /// now, with their values: `wire_small`'s map.
    pub fn small_bindings(&self) -> impl Iterator<Item = (i64, Option<i64>)> + '_ {
        self.small
            .iter()
            .enumerate()
            .map(|(i, v)| ((i as u64 * self.clients + self.client) as i64, *v))
    }

    /// The present key of every pair this client owns.
    pub fn present_pair_keys(&self) -> impl Iterator<Item = i64> + '_ {
        self.pairs.present_keys()
    }
}

/// `map_remove(from)`, `map_insert(to, from)`, and optionally
/// `counter_add("moves", 1)` — with the counter, two objects, so the
/// script is not batch-eligible.
fn transfer_ops(map: &str, from: i64, to: i64, counted: bool) -> Vec<ScriptOp> {
    let mut ops = vec![
        op(Op::MapRemove {
            obj: map.into(),
            key: from,
        }),
        op(Op::MapInsert {
            obj: map.into(),
            key: to,
            val: from,
        }),
    ];
    if counted {
        ops.push(op(Op::CounterAdd {
            obj: COUNTER_MOVES.into(),
            delta: 1,
        }));
    }
    ops
}

/// Scripts that build the state every stream's model starts from:
/// counters exist at 0, `wire_small`'s keys are bound to themselves,
/// every pair has its even key bound to itself, the queue is seeded.
/// Each script holds at most `MAX_OPS_PER_SCRIPT` ops.
pub fn populate(workload: Workload) -> Vec<Vec<ScriptOp>> {
    let insert_all = |map: &str, keys: &mut dyn Iterator<Item = i64>| -> Vec<Vec<ScriptOp>> {
        let ops: Vec<ScriptOp> = keys
            .map(|key| {
                op(Op::MapInsert {
                    obj: map.into(),
                    key,
                    val: key,
                })
            })
            .collect();
        ops.chunks(txboost_wire::MAX_OPS_PER_SCRIPT as usize)
            .map(<[ScriptOp]>::to_vec)
            .collect()
    };
    let zero_counters = |names: &mut dyn Iterator<Item = String>| -> Vec<ScriptOp> {
        names
            .map(|obj| op(Op::CounterAdd { obj, delta: 0 }))
            .collect()
    };
    let mut counters = (0..COUNTERS).map(counter_name);
    let mut moves = std::iter::once(COUNTER_MOVES.to_string());
    match workload {
        Workload::WireSmall => {
            let mut scripts = vec![zero_counters(&mut counters)];
            scripts.extend(insert_all(MAP_SMALL, &mut (0..SMALL_KEYS as i64)));
            scripts
        }
        Workload::WireDurable => {
            let mut scripts = vec![zero_counters(&mut counters.chain(moves))];
            scripts.extend(insert_all(
                MAP_ACCOUNTS,
                &mut (0..ACCOUNT_PAIRS as i64).map(|p| 2 * p),
            ));
            scripts
        }
        Workload::WireReadmostly => {
            insert_all(MAP_PAIRS, &mut (0..READMOSTLY_PAIRS as i64).map(|p| 2 * p))
        }
        Workload::ExecContended => {
            let mut scripts = vec![zero_counters(&mut moves)];
            scripts.extend(insert_all(MAP_ACCOUNTS, &mut (0..CONTENDED_KEYS as i64)));
            scripts.push(
                (0..PQ_SEED_KEYS as i64)
                    .map(|key| {
                        op(Op::PqAdd {
                            obj: PQ.into(),
                            key,
                        })
                    })
                    .collect(),
            );
            scripts
        }
    }
}

/// Scripts that change nothing `populate` built but make the server
/// allocate, before the window, what the workload would otherwise make
/// it allocate during it: `wire_readmostly` binds the absent twin of
/// every pair once and removes it again, so every key has its entry,
/// lock slot and version chain when the window opens. Without this
/// `peak_rss_mb` also grew with the number of twins first touched in
/// the window (60-82 MiB between runs). What is left is what the server
/// keeps per flip, ~9 MiB per million scripts, which is the server's to
/// explain. The in-process replicas of the per-layer run have no RSS to
/// report and skip it.
pub fn pretouch(workload: Workload) -> Vec<Vec<ScriptOp>> {
    if workload != Workload::WireReadmostly {
        return Vec::new();
    }
    let twins = (0..READMOSTLY_PAIRS as i64).map(|p| 2 * p + 1);
    let insert = twins.clone().map(|key| {
        op(Op::MapInsert {
            obj: MAP_PAIRS.into(),
            key,
            val: key,
        })
    });
    let remove = twins.map(|key| {
        op(Op::MapRemove {
            obj: MAP_PAIRS.into(),
            key,
        })
    });
    let ops: Vec<ScriptOp> = insert.chain(remove).collect();
    ops.chunks(txboost_wire::MAX_OPS_PER_SCRIPT as usize)
        .map(<[ScriptOp]>::to_vec)
        .collect()
}

/// Whether an op changes object state (the server's rule for which
/// scripts earn a WAL record).
pub fn mutates(op: &Op) -> bool {
    !matches!(
        op,
        Op::MapContains { .. } | Op::CounterGet { .. } | Op::DebugAbort
    )
}

/// Bytes one script request occupies on the wire, frame header
/// included, computed without encoding it (the load generator counts
/// bytes sent on its hot path).
pub fn request_frame_len(ops: &[ScriptOp]) -> usize {
    // frame length prefix + kind + req_id + n_ops
    let mut len = 4 + 1 + 8 + 2;
    for sop in ops {
        // opcode + guard, then the operands
        len += 2 + match &sop.op {
            Op::MapInsert { obj, .. } => 1 + obj.len() + 16,
            Op::MapRemove { obj, .. }
            | Op::MapContains { obj, .. }
            | Op::PqAdd { obj, .. }
            | Op::CounterAdd { obj, .. } => 1 + obj.len() + 8,
            Op::CounterGet { obj }
            | Op::SemAcquire { obj }
            | Op::SemRelease { obj }
            | Op::IdGen { obj }
            | Op::PqRemoveMin { obj } => 1 + obj.len(),
            Op::DebugAbort => 0,
        };
    }
    len
}

#[cfg(test)]
mod tests {
    use super::*;
    use txboost_wire::{encode_request, Request};

    /// The first `n` scripts of every client stream, encoded.
    fn encoded_streams(workload: Workload, seed: u64, n: usize) -> Vec<u8> {
        let mut bytes = Vec::new();
        for client in 0..2 {
            let mut gen = Gen::new(workload, seed, client, 2);
            for req_id in 0..n as u64 {
                let s = gen.next_script();
                let req = if s.read_only {
                    Request::ReadOnlyScript { req_id, ops: s.ops }
                } else {
                    Request::Script { req_id, ops: s.ops }
                };
                bytes.extend_from_slice(&encode_request(&req));
            }
        }
        bytes
    }

    #[test]
    fn same_seed_gives_byte_identical_streams_and_another_seed_differs() {
        for w in Workload::ALL {
            let a = encoded_streams(w, 7, 2000);
            assert_eq!(a, encoded_streams(w, 7, 2000), "{}", w.name());
            assert_ne!(a, encoded_streams(w, 8, 2000), "{}", w.name());
        }
    }

    #[test]
    fn client_streams_of_one_seed_differ_from_each_other() {
        let mut a = Gen::new(Workload::WireSmall, 1, 0, 2);
        let mut b = Gen::new(Workload::WireSmall, 1, 1, 2);
        let same = (0..200)
            .filter(|_| a.next_script().ops == b.next_script().ops)
            .count();
        assert!(same < 100, "{same} of 200 scripts coincide");
    }

    #[test]
    fn frame_len_matches_the_encoder() {
        for w in Workload::ALL {
            let mut gen = Gen::new(w, 3, 0, 2);
            for _ in 0..500 {
                let s = gen.next_script();
                let encoded = encode_request(&Request::Script {
                    req_id: 1,
                    ops: s.ops.clone(),
                });
                assert_eq!(request_frame_len(&s.ops), 4 + encoded.len());
            }
        }
    }

    #[test]
    fn mutable_keys_are_partitioned_between_clients() {
        for w in [
            Workload::WireSmall,
            Workload::WireDurable,
            Workload::WireReadmostly,
        ] {
            for client in 0..2usize {
                let mut gen = Gen::new(w, 11, client, 2);
                for _ in 0..2000 {
                    let s = gen.next_script();
                    for sop in &s.ops {
                        let owner = match &sop.op {
                            Op::MapInsert { key, .. } | Op::MapRemove { key, .. } => {
                                // Pair workloads partition by pair, the
                                // small map by key.
                                let unit = if w == Workload::WireSmall {
                                    *key
                                } else {
                                    key / 2
                                };
                                Some(unit as usize % 2)
                            }
                            _ => None,
                        };
                        assert!(owner.is_none_or(|o| o == client), "{sop:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn the_model_tracks_moves() {
        let mut gen = Gen::new(Workload::WireDurable, 5, 1, 2);
        let before: Vec<i64> = gen.present_pair_keys().collect();
        assert!(before.iter().all(|k| k % 2 == 0 && (k / 2) % 2 == 1));
        let moved = (0..400)
            .filter(|_| matches!(gen.next_script().expect, Expect::Move { .. }))
            .count() as u64;
        assert_eq!(gen.sent_moves, moved);
        assert_eq!(gen.present_pair_keys().count(), before.len());
    }

    #[test]
    fn expectations_admit_only_the_right_replies() {
        use OpResult::{Bool, Id, Unit, Value};
        assert!(Expect::CounterAdd(3).admits(&[Unit]));
        assert!(!Expect::CounterAdd(3).admits(&[]));
        assert!(Expect::Insert(Some(4)).admits(&[Value(Some(4))]));
        assert!(!Expect::Insert(Some(4)).admits(&[Value(None)]));
        assert!(Expect::Contains(true).admits(&[Bool(true)]));
        let mv = Expect::Move {
            val: 9,
            counted: true,
        };
        assert!(mv.admits(&[Value(Some(9)), Value(None), Unit]));
        assert!(!mv.admits(&[Value(Some(9)), Value(None)]));
        assert!(!mv.admits(&[Value(Some(8)), Value(None), Unit]));
        assert!(Expect::PairScan.admits(&[Bool(true), Bool(false), Bool(false), Bool(true)]));
        assert!(!Expect::PairScan.admits(&[Bool(true), Bool(true), Bool(false), Bool(true)]));
        assert!(!Expect::PairScan.admits(&[Bool(false), Bool(false), Bool(false), Bool(true)]));
        assert!(Expect::PqCycle.admits(&[Value(Some(5)), Unit]));
        assert!(!Expect::PqCycle.admits(&[Value(None), Unit]));
        assert!(Expect::Id.admits(&[Id(1)]));
        assert!(Expect::TransferShape.admits(&[Value(None), Value(Some(1)), Unit]));
    }

    #[test]
    fn populate_respects_the_op_limit_and_covers_the_models() {
        for w in Workload::ALL {
            let scripts = populate(w);
            assert!(scripts
                .iter()
                .all(|s| !s.is_empty() && s.len() <= txboost_wire::MAX_OPS_PER_SCRIPT as usize));
        }
        let inserts: usize = populate(Workload::WireReadmostly)
            .iter()
            .map(Vec::len)
            .sum();
        assert_eq!(inserts as u64, READMOSTLY_PAIRS);
        // Every twin bound once and removed again, in that order.
        let touch: Vec<ScriptOp> = pretouch(Workload::WireReadmostly).concat();
        assert_eq!(touch.len() as u64, 2 * READMOSTLY_PAIRS);
        assert!(matches!(touch[0].op, Op::MapInsert { key: 1, .. }));
        assert!(matches!(
            touch[READMOSTLY_PAIRS as usize].op,
            Op::MapRemove { key: 1, .. }
        ));
        assert!(pretouch(Workload::WireSmall).is_empty());
    }
}
