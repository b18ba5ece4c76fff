//! Cross-backend conformance: the arena's two [`Backend`] adapters
//! must *mean the same thing*. Any drift between an adapter and the
//! abstract op semantics (a transposed transfer, a lost pqueue pop, a
//! map delete that misses its bucket) would silently invalidate every
//! cross-backend throughput comparison, so this suite replays one
//! seeded op script through both backends single-threaded and requires
//! bit-identical final [`ArenaState`]s.

use rand::prelude::*;
use std::time::Duration;
use txboost_bench::arena::{
    build_backend, ArenaOp, ArenaParams, ArenaWorkload, Backend, BackendKind,
};

/// Generate `txns` transaction scripts mixing every workload, all from
/// one seed — the common input each backend replays.
fn seeded_scripts(seed: u64, txns: usize, params: &ArenaParams) -> Vec<Vec<ArenaOp>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..txns)
        .map(|i| vec![ArenaWorkload::ALL[i % ArenaWorkload::ALL.len()].next_op(&mut rng, params)])
        .collect()
}

fn replay(kind: BackendKind, scripts: &[Vec<ArenaOp>], params: &ArenaParams) -> Box<dyn Backend> {
    let backend = build_backend(kind, params, Duration::ZERO);
    for script in scripts {
        backend.exec(script, Duration::ZERO);
    }
    backend
}

#[test]
fn identical_scripts_produce_identical_states() {
    for seed in [1, 7, 0xC0FFEE] {
        let params = ArenaParams::for_key_range(64);
        let scripts = seeded_scripts(seed, 600, &params);
        let boosted = replay(BackendKind::Boosted, &scripts, &params).state();
        let rwstm = replay(BackendKind::RwStm, &scripts, &params).state();
        assert_eq!(boosted, rwstm, "seed {seed}: boosted and rwstm diverged");
    }
}

#[test]
fn replayed_state_respects_object_invariants() {
    let params = ArenaParams::for_key_range(32);
    let scripts = seeded_scripts(99, 500, &params);
    for kind in BackendKind::ALL {
        let state = replay(kind, &scripts, &params).state();
        // Transfers conserve money: every account was prefilled with
        // `initial_balance` and the workload only moves units around.
        let total: i64 = state.accounts.iter().sum();
        let expected = params.initial_balance * i64::try_from(params.accounts).unwrap();
        assert_eq!(
            total,
            expected,
            "{}: money created or destroyed",
            kind.name()
        );
        // Counter equals the number of CounterAdd(1) ops in the input.
        let adds: i64 = scripts
            .iter()
            .flatten()
            .filter(|op| matches!(op, ArenaOp::CounterAdd(1)))
            .count()
            .try_into()
            .unwrap();
        assert_eq!(state.counter, adds, "{}: counter drifted", kind.name());
        // Map keys stay inside the key range, sorted and unique.
        assert!(state.map.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(state
            .map
            .iter()
            .all(|&(k, _)| (0..params.key_range).contains(&k)));
        // Pqueue pops come back in ascending order.
        assert!(state.pq.windows(2).all(|w| w[0] <= w[1]));
    }
}

#[test]
fn stats_count_single_threaded_commits_exactly() {
    // Single-threaded replay has no contention: every script commits
    // on its first attempt, so the commit counter equals the script
    // count plus the prefill transactions, with zero aborts.
    let params = ArenaParams::for_key_range(32);
    let scripts = seeded_scripts(5, 200, &params);
    for kind in BackendKind::ALL {
        let backend = replay(kind, &scripts, &params);
        let snap = backend.stats().snapshot();
        assert_eq!(snap.aborted, 0, "{}: single-threaded abort", kind.name());
        assert!(
            snap.committed >= 200,
            "{}: committed {} < 200 scripts",
            kind.name(),
            snap.committed
        );
    }
}
