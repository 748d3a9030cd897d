//! Property suite for the flat group index behind the sealed accessor
//! surface (`gid_of` / `members_of` / `min_member` / `successor_member`
//! / `member_count`): under random delta churn — including emptied
//! classes whose member storage is released and later refilled by a
//! retire/relaunch cycle, and classes large enough to span many member
//! runs — every query must agree with a scratch `BTreeSet` oracle
//! rebuilt from the tracker's observable state.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;

use goc_game::{CoinId, Configuration, Delta, Game, MassTracker, MinerId};

/// A random small game plus a random configuration.
fn game_and_config() -> impl Strategy<Value = (Game, Configuration)> {
    (3usize..8, 2usize..5).prop_flat_map(|(n, k)| {
        let powers = proptest::collection::vec(1u64..10, n);
        let rewards = proptest::collection::vec(1u64..200, k);
        let assignment = proptest::collection::vec(0usize..k, n);
        (powers, rewards, assignment).prop_map(|(p, r, a)| {
            let game = Game::build(&p, &r).expect("valid parameters");
            let config = Configuration::new(a.into_iter().map(CoinId).collect(), game.system())
                .expect("valid assignment");
            (game, config)
        })
    })
}

/// Chooses the next delta from three raw random draws, keeping the
/// population non-degenerate (≥ 1 active miner, ≥ 1 live coin). The
/// launch/retire arms empty and refill classes: retiring a coin empties
/// its groups (releasing their storage), relaunching refills them.
fn choose_delta(tracker: &MassTracker<'_>, op: usize, a: usize, b: usize) -> Option<Delta> {
    let system = tracker.game().system();
    let active_miners: Vec<MinerId> = system
        .miner_ids()
        .filter(|&p| tracker.is_miner_active(p))
        .collect();
    let dormant_miners: Vec<MinerId> = system
        .miner_ids()
        .filter(|&p| !tracker.is_miner_active(p))
        .collect();
    let live_coins: Vec<CoinId> = system
        .coin_ids()
        .filter(|&c| tracker.is_coin_active(c))
        .collect();
    let dormant_coins: Vec<CoinId> = system
        .coin_ids()
        .filter(|&c| !tracker.is_coin_active(c))
        .collect();
    match op % 5 {
        0 if !active_miners.is_empty() => Some(Delta::Move {
            miner: active_miners[a % active_miners.len()],
            to: live_coins[b % live_coins.len()],
        }),
        1 if !dormant_miners.is_empty() => Some(Delta::InsertMiner {
            miner: dormant_miners[a % dormant_miners.len()],
            coin: if b.is_multiple_of(2) {
                None
            } else {
                Some(live_coins[b % live_coins.len()])
            },
        }),
        2 if active_miners.len() >= 2 => Some(Delta::RemoveMiner {
            miner: active_miners[a % active_miners.len()],
        }),
        3 if !dormant_coins.is_empty() => Some(Delta::LaunchCoin {
            coin: dormant_coins[a % dormant_coins.len()],
        }),
        4 if live_coins.len() >= 2 => Some(Delta::RetireCoin {
            coin: live_coins[a % live_coins.len()],
        }),
        _ => None,
    }
}

/// Rebuilds the group partition from scratch as ordered sets keyed by
/// the tracker's own group ids, then checks every sealed accessor
/// against it.
fn assert_matches_oracle(tracker: &MassTracker<'_>) -> Result<(), TestCaseError> {
    let system = tracker.game().system();
    let mut oracle: BTreeMap<u32, BTreeSet<MinerId>> = BTreeMap::new();
    for p in system.miner_ids() {
        if tracker.is_miner_active(p) {
            oracle.entry(tracker.gid_of(p)).or_default().insert(p);
        }
    }

    for gid in 0..tracker.group_count() as u32 {
        let members: Vec<MinerId> = tracker.members_of(gid).collect();
        prop_assert!(
            members.windows(2).all(|w| w[0] < w[1]),
            "group {} iterates out of order: {:?}",
            gid,
            members
        );
        let expected = oracle.get(&gid).cloned().unwrap_or_default();
        prop_assert_eq!(
            members.iter().copied().collect::<BTreeSet<_>>(),
            expected.clone(),
            "group {} members diverged",
            gid
        );
        prop_assert_eq!(tracker.member_count(gid), expected.len());
        prop_assert_eq!(tracker.min_member(gid), expected.first().copied());

        // Successor queries from every interesting start point.
        let n = system.num_miners();
        for start in 0..=n {
            let start = MinerId(start);
            prop_assert_eq!(
                tracker.successor_member(gid, start),
                expected.range(start..).next().copied(),
                "group {} successor from {} diverged",
                gid,
                start
            );
        }
    }

    // Members of one group share a strategic class: same coin, same
    // power (and in unrestricted games, nothing else splits a class).
    for (gid, members) in &oracle {
        let rep = *members.first().expect("oracle groups are nonempty");
        for &p in members {
            prop_assert_eq!(tracker.coin_of(p), tracker.coin_of(rep));
            prop_assert_eq!(system.power_of(p), system.power_of(rep));
            prop_assert_eq!(tracker.gid_of(p), *gid);
        }
    }
    Ok(())
}

/// A population whose classes each span many member runs: 3072–4095
/// miners with 1–3 distinct powers dealt round-robin, all on coin 0 of a
/// 3-coin game, so every class starts with at least 1024 members (8× the
/// 128-id run cap).
fn multi_run_game() -> impl Strategy<Value = (Game, Configuration)> {
    (
        3072usize..4096,
        1u64..4,
        1u64..50,
        proptest::collection::vec(1u64..200, 3),
    )
        .prop_map(|(n, distinct, base, rewards)| {
            let powers: Vec<u64> = (0..n as u64).map(|i| base + i % distinct).collect();
            let game = Game::build(&powers, &rewards).expect("valid parameters");
            let config = Configuration::uniform(CoinId(0), game.system()).expect("valid start");
            (game, config)
        })
}

/// Moves the active miners among `first .. first + len` to `to` one by
/// one: consecutive ids leave one run of their old class and land in one
/// run of the new, so blocks force mid-group splits and thin-run merges.
fn move_block(tracker: &mut MassTracker<'_>, first: usize, len: usize, to: CoinId) -> usize {
    let n = tracker.game().system().num_miners();
    let mut applied = 0;
    for p in (first..n).take(len).map(MinerId) {
        if tracker.is_miner_active(p) {
            tracker
                .apply_delta(Delta::Move { miner: p, to })
                .expect("move of an active miner onto a live coin");
            applied += 1;
        }
    }
    applied
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Arena accessors agree with the scratch oracle after every delta
    /// of a random churn sequence, and after the full rewind.
    #[test]
    fn arena_index_matches_btree_oracle(
        (game, start) in game_and_config(),
        ops in proptest::collection::vec((0usize..64, 0usize..64, 0usize..64), 1..40),
    ) {
        let mut tracker = MassTracker::new(&game, &start).expect("valid start");
        assert_matches_oracle(&tracker)?;
        let mut applied = 0usize;
        for &(op, a, b) in &ops {
            let Some(delta) = choose_delta(&tracker, op, a, b) else {
                continue;
            };
            if tracker.apply_delta(delta).is_ok() {
                applied += 1;
            }
            assert_matches_oracle(&tracker)?;
        }
        for _ in 0..applied {
            prop_assert!(tracker.undo_delta().is_some());
            assert_matches_oracle(&tracker)?;
        }
    }

    /// Emptied-then-refilled classes stay exact: drain a coin's groups
    /// via retirement (their storage is released), relaunch, and move
    /// miners back onto the coin (storage is reacquired) — the accessors
    /// must stay oracle-exact throughout.
    #[test]
    fn retire_relaunch_reuses_slabs_exactly(
        (game, start) in game_and_config(),
        coin in 0usize..4,
        movers in proptest::collection::vec(0usize..64, 1..8),
    ) {
        let k = game.system().num_coins();
        let target = CoinId(coin % k);
        let mut tracker = MassTracker::new(&game, &start).expect("valid start");
        if k < 2 {
            return Ok(());
        }
        tracker
            .apply_delta(Delta::RetireCoin { coin: target })
            .expect("unrestricted retirement relocates");
        assert_matches_oracle(&tracker)?;
        tracker
            .apply_delta(Delta::LaunchCoin { coin: target })
            .expect("relaunch of a retired coin");
        assert_matches_oracle(&tracker)?;
        let n = game.system().num_miners();
        for &m in &movers {
            tracker
                .apply_delta(Delta::Move { miner: MinerId(m % n), to: target })
                .expect("move onto the relaunched coin");
            assert_matches_oracle(&tracker)?;
        }
        while tracker.undo_delta().is_some() {}
        assert_matches_oracle(&tracker)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The same oracle at multi-run scale: random single deltas and
    /// block moves through the middle of 1000-member classes, then a
    /// retire/relaunch cycle of one coin (its residents leave in id
    /// order, draining head runs; they land on the other coins in id
    /// order, filling tail runs) and the full rewind.
    #[test]
    fn multi_run_groups_match_btree_oracle(
        (game, start) in multi_run_game(),
        ops in proptest::collection::vec((0usize..64, 0usize..1 << 16, 0usize..1 << 16), 4..12),
        retire in 0usize..3,
    ) {
        let n = game.system().num_miners();
        let mut tracker = MassTracker::new(&game, &start).expect("valid start");
        let mut applied = 0usize;
        for &(op, a, b) in &ops {
            if op % 2 == 0 {
                let Some(delta) = choose_delta(&tracker, op / 2, a, b) else {
                    continue;
                };
                if tracker.apply_delta(delta).is_ok() {
                    applied += 1;
                }
            } else {
                let live: Vec<CoinId> = game
                    .system()
                    .coin_ids()
                    .filter(|&c| tracker.is_coin_active(c))
                    .collect();
                applied += move_block(&mut tracker, a % n, 1 + b % 256, live[op % live.len()]);
            }
            assert_matches_oracle(&tracker)?;
        }
        let coin = CoinId(retire);
        let live = game.system().coin_ids().filter(|&c| tracker.is_coin_active(c)).count();
        if tracker.is_coin_active(coin) && live >= 2 {
            tracker
                .apply_delta(Delta::RetireCoin { coin })
                .expect("unrestricted retirement relocates");
            assert_matches_oracle(&tracker)?;
            tracker
                .apply_delta(Delta::LaunchCoin { coin })
                .expect("relaunch of a retired coin");
            applied += 2 + move_block(&mut tracker, 0, n / 2, coin);
            assert_matches_oracle(&tracker)?;
        }
        for _ in 0..applied {
            prop_assert!(tracker.undo_delta().is_some());
        }
        prop_assert_eq!(tracker.config(), &start);
        assert_matches_oracle(&tracker)?;
    }
}
