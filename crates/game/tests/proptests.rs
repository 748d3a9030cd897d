//! Property-based tests for the core model: ratio arithmetic axioms and
//! the paper's Observations 1–2 plus Theorem 1's potential monotonicity on
//! arbitrary generated games and better-response steps.

use proptest::prelude::*;

use goc_game::potential;
use goc_game::{CoinId, Configuration, Game, MassTracker, Masses, MinerId, Ratio};

fn ratio_strategy() -> impl Strategy<Value = Ratio> {
    (-1_000_000i128..1_000_000, 1i128..1_000_000)
        .prop_map(|(n, d)| Ratio::new(n, d).expect("denominator is positive"))
}

proptest! {
    #[test]
    fn ratio_add_commutes(a in ratio_strategy(), b in ratio_strategy()) {
        prop_assert_eq!(a + b, b + a);
    }

    #[test]
    fn ratio_add_associates(a in ratio_strategy(), b in ratio_strategy(), c in ratio_strategy()) {
        prop_assert_eq!((a + b) + c, a + (b + c));
    }

    #[test]
    fn ratio_mul_distributes(a in ratio_strategy(), b in ratio_strategy(), c in ratio_strategy()) {
        prop_assert_eq!(a * (b + c), a * b + a * c);
    }

    #[test]
    fn ratio_order_is_total_and_consistent(a in ratio_strategy(), b in ratio_strategy()) {
        // Exactly one of <, ==, > holds, and subtraction agrees with it.
        let ord = a.cmp(&b);
        let diff = a - b;
        match ord {
            std::cmp::Ordering::Less => prop_assert!(diff.is_negative()),
            std::cmp::Ordering::Equal => prop_assert!(diff.is_zero()),
            std::cmp::Ordering::Greater => prop_assert!(diff.is_positive()),
        }
    }

    #[test]
    fn ratio_recip_roundtrip(a in ratio_strategy()) {
        prop_assume!(!a.is_zero());
        prop_assert_eq!(a.recip().unwrap() * a, Ratio::ONE);
    }

    #[test]
    fn ratio_div_inverts_mul(a in ratio_strategy(), b in ratio_strategy()) {
        prop_assume!(!b.is_zero());
        prop_assert_eq!((a * b) / b, a);
    }
}

/// A random small game plus a random configuration.
fn game_and_config() -> impl Strategy<Value = (Game, Configuration)> {
    (2usize..7, 2usize..4).prop_flat_map(|(n, k)| {
        let powers = proptest::collection::vec(1u64..200, n);
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

proptest! {
    /// Theorem 1: every better-response step strictly increases the
    /// ordinal potential (list order).
    #[test]
    fn potential_strictly_increases_on_every_better_response((game, s) in game_and_config()) {
        let masses = s.masses(game.system());
        for p in game.system().miner_ids() {
            for c in game.better_responses(p, &s, &masses) {
                let next = s.with_move(p, c);
                prop_assert!(
                    potential::strictly_increases(&game, &s, &next),
                    "step {p}->{c} did not increase the potential"
                );
            }
        }
    }

    /// Observation 1: a better response always moves to a coin placed
    /// strictly later in list(s).
    #[test]
    fn observation1_moves_up_the_list((game, s) in game_and_config()) {
        let masses = s.masses(game.system());
        let list = potential::rpu_list(&game, &s);
        let pos = |c: CoinId| list.iter().position(|&(_, x)| x == c).unwrap();
        for p in game.system().miner_ids() {
            let from = s.coin_of(p);
            for c in game.better_responses(p, &s, &masses) {
                prop_assert!(pos(c) > pos(from), "{p}: {from}->{c} not upward");
            }
        }
    }

    /// Observation 2: after a step from c to c', the source coin's old RPU
    /// is strictly below both new RPUs.
    #[test]
    fn observation2_rpu_bounds((game, s) in game_and_config()) {
        let masses = s.masses(game.system());
        for p in game.system().miner_ids() {
            let from = s.coin_of(p);
            for c in game.better_responses(p, &s, &masses) {
                let next = s.with_move(p, c);
                let next_masses = next.masses(game.system());
                let old = game.rpu(from, &masses);
                let new_from = game.rpu(from, &next_masses);
                let new_to = game.rpu(c, &next_masses);
                prop_assert!(old < new_from.min(new_to));
            }
        }
    }

    /// Payoffs always sum to the total reward of occupied coins.
    #[test]
    fn payoffs_sum_to_occupied_rewards((game, s) in game_and_config()) {
        let total: Ratio = game.payoffs(&s).into_iter().sum();
        prop_assert_eq!(total, game.welfare(&s));
    }

    /// A best response, when it exists, is one of the better responses and
    /// maximizes the post-move payoff among them.
    #[test]
    fn best_response_is_argmax((game, s) in game_and_config()) {
        let masses = s.masses(game.system());
        for p in game.system().miner_ids() {
            let brs = game.better_responses(p, &s, &masses);
            match game.best_response(p, &s, &masses) {
                None => prop_assert!(brs.is_empty()),
                Some(best) => {
                    prop_assert!(brs.contains(&best));
                    let best_payoff = game.payoff(p, &s.with_move(p, best));
                    for c in brs {
                        prop_assert!(game.payoff(p, &s.with_move(p, c)) <= best_payoff);
                    }
                }
            }
        }
    }

    /// The greedy Appendix A construction always yields an equilibrium.
    #[test]
    fn greedy_equilibrium_always_stable((game, _) in game_and_config()) {
        let eq = goc_game::equilibrium::greedy_equilibrium(&game);
        prop_assert!(game.is_stable(&eq));
    }

    /// Incremental mass bookkeeping agrees with recomputation after any
    /// sequence of moves.
    #[test]
    fn masses_incremental_agrees(
        (game, s) in game_and_config(),
        moves in proptest::collection::vec((0usize..6, 0usize..3), 0..12),
    ) {
        let system = game.system();
        let mut config = s.clone();
        let mut masses = config.masses(system);
        for (pi, ci) in moves {
            let p = MinerId(pi % system.num_miners());
            let c = CoinId(ci % system.num_coins());
            masses.apply_move(system.power_of(p), config.coin_of(p), c);
            config.apply_move(p, c);
            prop_assert_eq!(&masses, &config.masses(system));
        }
    }
}

/// A game at the magnitudes `churn_universe(.., 1e-4)` quantizes to:
/// rewards near 10⁴, powers 294–10⁴, a few hundred miners. Large coprime
/// masses are what make a reduced RPU's Euclid runs long.
///
/// Coin 0 stands alone; coins `2j+1` and `2j+2` share a reward. Miners
/// come in equal-power pairs, and in a *mirrored* start the second of
/// each pair sits on the partner coin of the first, so paired coins carry
/// equal masses and every miner on coin 0 faces exact ties between them.
fn quantized_game_and_config() -> impl Strategy<Value = (Game, Configuration)> {
    (100usize..200, 1usize..3).prop_flat_map(|(half, pairs)| {
        let k = 2 * pairs + 1;
        let powers = proptest::collection::vec(294u64..=10_000, half);
        let rewards = proptest::collection::vec(9_000u64..=10_000, pairs + 1);
        let first = proptest::collection::vec(0usize..k, half);
        let second = proptest::collection::vec(0usize..k, half);
        let mirrored = prop_oneof![Just(true), Just(false)];
        (powers, rewards, first, second, mirrored).prop_map(
            move |(half_powers, pair_rewards, first, second, mirrored)| {
                let partner = |c: usize| match c {
                    0 => 0,
                    c if c % 2 == 1 => c + 1,
                    c => c - 1,
                };
                let powers: Vec<u64> = [half_powers.as_slice(); 2].concat();
                let rewards: Vec<u64> = (0..k).map(|c| pair_rewards[c.div_ceil(2)]).collect();
                let second: Vec<usize> = if mirrored {
                    first.iter().map(|&c| partner(c)).collect()
                } else {
                    second
                };
                let game = Game::build(&powers, &rewards).expect("valid parameters");
                let coins = first.into_iter().chain(second).map(CoinId).collect();
                let config = Configuration::new(coins, game.system()).expect("valid assignment");
                (game, config)
            },
        )
    })
}

/// The naive best response: reduce every post-join RPU to a [`Ratio`]
/// and keep the strict maximum over strict improvements (lowest coin on
/// ties).
fn naive_best_response(
    game: &Game,
    p: MinerId,
    s: &Configuration,
    masses: &Masses,
) -> Option<CoinId> {
    let from = s.coin_of(p);
    let current = game.rpu_after_join(p, from, from, masses);
    let mut best: Option<(Ratio, CoinId)> = None;
    for c in game.system().coin_ids().filter(|&c| c != from) {
        let v = game.rpu_after_join(p, c, from, masses);
        if v > current && best.is_none_or(|(b, _)| v > b) {
            best = Some((v, c));
        }
    }
    best.map(|(_, c)| c)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every best-response query path agrees with the naive reduced-ratio
    /// scan at quantized magnitudes, along a random move sequence.
    #[test]
    fn best_response_paths_match_naive_scan_at_quantized_magnitudes(
        (game, s) in quantized_game_and_config(),
        moves in proptest::collection::vec((0usize..400, 0usize..5), 1..6),
    ) {
        let system = game.system();
        let mut tracker = MassTracker::new(&game, &s).expect("valid start");
        let mut config = s;
        for (pi, ci) in moves {
            let masses = config.masses(system);
            for p in system.miner_ids() {
                let expected = naive_best_response(&game, p, &config, &masses);
                prop_assert_eq!(game.best_response(p, &config, &masses), expected, "{}", p);
                prop_assert_eq!(tracker.best_response(p), expected, "{}", p);
                let from = config.coin_of(p);
                let current = game.rpu_after_join(p, from, from, &masses);
                for c in system.coin_ids() {
                    let naive = c != from && game.rpu_after_join(p, c, from, &masses) > current;
                    prop_assert_eq!(game.is_better_response(p, c, &config, &masses), naive);
                    prop_assert_eq!(tracker.is_better_response(p, c), naive);
                }
            }
            let (p, c) = (MinerId(pi % system.num_miners()), CoinId(ci % system.num_coins()));
            tracker.apply(p, c);
            config.apply_move(p, c);
        }
    }
}
