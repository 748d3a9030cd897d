//! Bridge between the mechanistic simulator and the static game.
//!
//! The paper's reward function `F(c)` abstracts "transaction rate,
//! transaction fees, and fiat exchange rate" (§1). For a simulated chain
//! those quantities are concrete: at difficulty-adjusted steady state a
//! chain pays `reward_per_block × price / target_spacing` fiat per
//! second, *independent of hashrate* — exactly a coin weight. This module
//! snapshots a running simulation into a `goc_game::Game`, letting the
//! cross-validation experiment compare mechanistic steady states with
//! game-theoretic equilibria.

use std::collections::BTreeSet;
use std::ops::Range;

use goc_game::{CoinId, Configuration, Delta, Game, GameError, MinerId, Rewards, System};

use crate::engine::Simulation;
use crate::spec::{MinerSpec, ScenarioSpec, SimChurn, SpecError};

/// Fiat value per second each chain pays at steady state, given current
/// prices and next-block rewards.
pub fn coin_weights(sim: &Simulation, at: f64) -> Vec<f64> {
    sim.chains()
        .iter()
        .enumerate()
        .map(|(c, chain)| {
            let price = sim.market().price_of(c);
            chain.next_block_reward(at) as f64 * price / chain.params().target_spacing
        })
        .collect()
}

/// Snapshots the simulation into a static game plus the current
/// configuration of agents.
///
/// Hashrates and fiat weights are quantized to integers with `resolution`
/// relative precision (e.g. `1e-4` keeps four significant digits), as the
/// exact game requires integer units.
///
/// # Errors
///
/// Propagates validation errors if quantization degenerates (e.g. a zero
/// hashrate agent).
pub fn snapshot_game(
    sim: &Simulation,
    at: f64,
    resolution: f64,
) -> Result<(Game, Configuration), GameError> {
    let weights = coin_weights(sim, at);
    let max_weight = weights.iter().cloned().fold(f64::MIN, f64::max);
    let reward_scale = 1.0 / (max_weight * resolution);
    let rewards: Vec<u64> = weights
        .iter()
        .map(|w| ((w * reward_scale).round() as u64).max(1))
        .collect();

    let max_hash = sim
        .agents()
        .iter()
        .map(|a| a.hashrate)
        .fold(f64::MIN, f64::max);
    let power_scale = 1.0 / (max_hash * resolution);
    let powers: Vec<u64> = sim
        .agents()
        .iter()
        .map(|a| ((a.hashrate * power_scale).round() as u64).max(1))
        .collect();

    let system = System::new(&powers, rewards.len())?;
    let game = Game::new(system, Rewards::from_integers(&rewards)?)?;
    let assignment = sim.agents().iter().map(|a| CoinId(a.coin)).collect();
    let config = Configuration::new(assignment, game.system())?;
    Ok((game, config))
}

/// The game-side view of a churning scenario: the pre-declared
/// miner/coin **universe** (initial rigs plus each cohort's dormant
/// reserve), the time-zero activity masks, and the scenario's churn
/// timeline lowered to `goc_game` tracker [`Delta`]s.
///
/// This is the bridge the ISSUE's delta pipeline rides: the engine
/// executes the same timeline mechanistically
/// ([`Simulation::with_churn`](crate::Simulation)), while the learning
/// layer replays `deltas` through `MassTracker::apply_delta` /
/// a churny `goc_learning::Dynamics` run with **no rebuild per
/// population change**.
#[derive(Debug, Clone)]
pub struct ChurnUniverse {
    /// The static game over the full universe (dormant rigs and
    /// pre-launch coins included).
    pub game: Game,
    /// Time-zero configuration over the universe (dormant rigs point at
    /// their cohort's coin; their mass is not counted).
    pub start: Configuration,
    /// `miner_active[p]` at time zero.
    pub miner_active: Vec<bool>,
    /// `coin_active[c]` at time zero.
    pub coin_active: Vec<bool>,
    /// The churn timeline as `(seconds, delta)` pairs, time-ordered.
    /// Arrivals use best-response placement (`coin: None`); departures
    /// remove the youngest active rig of the cohort.
    pub deltas: Vec<(f64, Delta)>,
    /// Head-count of the initially active population.
    pub initial_miners: usize,
}

impl ChurnUniverse {
    /// Spreads the time-keyed deltas across the expected number of
    /// better-response steps: delta `i` fires after `(i + 1) × stride`
    /// steps with `stride = max(1, expected_steps / (deltas + 1))`,
    /// preserving timeline order. This is the **single** stride policy
    /// the `churn` experiment, churny ensembles, and the `perfbench`
    /// benchmark all share — change it here, not at a call site.
    pub fn step_deltas(&self, expected_steps: usize) -> Vec<(usize, Delta)> {
        stride_deltas(&self.deltas, expected_steps)
    }
}

/// The stride policy of [`ChurnUniverse::step_deltas`], usable on a
/// timeline lowered separately (see [`churn_timeline`]): delta `i`
/// fires after `(i + 1) × stride` steps with
/// `stride = max(1, expected_steps / (deltas + 1))`.
pub fn stride_deltas(deltas: &[(f64, Delta)], expected_steps: usize) -> Vec<(usize, Delta)> {
    let stride = (expected_steps / (deltas.len() + 1)).max(1);
    deltas
        .iter()
        .enumerate()
        .map(|(i, (_, delta))| ((i + 1) * stride, *delta))
        .collect()
}

/// Per-cohort universe id ranges: initial rigs first (in cohort order,
/// matching [`ScenarioSpec::expanded`]), then each churn entry's
/// dormant reserve appended after **all** initial rigs. Both
/// [`churn_universe`] and [`churn_timeline`] derive ids from this one
/// layout, so a timeline lowered standalone addresses exactly the
/// universe's miners.
fn universe_ranges(spec: &ScenarioSpec) -> (Vec<Range<usize>>, Vec<Range<usize>>) {
    let cohorts = match &spec.miners {
        MinerSpec::Cohorts(c) => c.as_slice(),
        _ => &[],
    };
    let mut initial_range = Vec::with_capacity(cohorts.len());
    let mut next = 0usize;
    for c in cohorts {
        initial_range.push(next..next + c.count);
        next += c.count;
    }
    let churn_cohorts = spec
        .churn
        .as_ref()
        .map(|c| c.cohorts.as_slice())
        .unwrap_or(&[]);
    let mut reserve_range = vec![0..0; cohorts.len()];
    for entry in churn_cohorts {
        reserve_range[entry.cohort] = next..next + entry.max_extra;
        next += entry.max_extra;
    }
    (initial_range, reserve_range)
}

/// Lowers **only** the scenario's churn timeline to tracker [`Delta`]s
/// over the universe id layout of [`churn_universe`] — the seed-varying
/// slice of a scenario. The universe itself (game, start, masks) does
/// not depend on the scenario seed, so a replica ensemble can share one
/// [`ChurnUniverse`] and re-lower just the timeline per seed.
///
/// # Errors
///
/// Propagates [`ScenarioSpec::validate`] failures.
pub fn churn_timeline(spec: &ScenarioSpec) -> Result<Vec<(f64, Delta)>, SpecError> {
    spec.validate()?;
    let (initial_range, reserve_range) = universe_ranges(spec);
    Ok(lower_timeline(spec, &initial_range, &reserve_range))
}

/// The timeline-lowering core shared by [`churn_universe`] and
/// [`churn_timeline`]: walks the effectiveness-filtered event stream,
/// mapping arrivals to the smallest dormant id of the cohort (departed
/// initial rigs are reused before the reserve) and departures to the
/// youngest active rig.
fn lower_timeline(
    spec: &ScenarioSpec,
    initial_range: &[Range<usize>],
    reserve_range: &[Range<usize>],
) -> Vec<(f64, Delta)> {
    let mut active_ids: Vec<BTreeSet<usize>> =
        initial_range.iter().map(|r| r.clone().collect()).collect();
    let mut dormant_ids: Vec<BTreeSet<usize>> =
        reserve_range.iter().map(|r| r.clone().collect()).collect();
    let timeline = spec
        .churn
        .as_ref()
        .map(|c| c.timeline(spec))
        .unwrap_or_default();
    let mut deltas = Vec::with_capacity(timeline.len());
    for (t, event) in timeline {
        match event {
            SimChurn::RigJoin { agent, .. } => {
                let Some(&id) = dormant_ids[agent].iter().next() else {
                    continue; // cannot happen: the timeline is effective
                };
                dormant_ids[agent].remove(&id);
                active_ids[agent].insert(id);
                deltas.push((
                    t,
                    Delta::InsertMiner {
                        miner: MinerId(id),
                        coin: None,
                    },
                ));
            }
            SimChurn::RigLeave { agent, .. } => {
                let Some(&id) = active_ids[agent].iter().next_back() else {
                    continue;
                };
                active_ids[agent].remove(&id);
                dormant_ids[agent].insert(id);
                deltas.push((t, Delta::RemoveMiner { miner: MinerId(id) }));
            }
            SimChurn::Coin { coin, live } => {
                let coin = CoinId(coin);
                deltas.push((
                    t,
                    if live {
                        Delta::LaunchCoin { coin }
                    } else {
                        Delta::RetireCoin { coin }
                    },
                ));
            }
        }
    }
    deltas
}

/// Lowers a scenario (churn and all) to the game-side universe view.
///
/// Hashrates and fiat weights are quantized to integers with
/// `resolution` relative precision, exactly like [`snapshot_game`]; the
/// reserve rigs share their cohort's hashrate class, so the universe
/// stays cohort-structured and the tracker's group index stays small.
///
/// # Errors
///
/// Propagates [`ScenarioSpec::validate`] failures and quantization
/// degeneracies.
pub fn churn_universe(spec: &ScenarioSpec, resolution: f64) -> Result<ChurnUniverse, SpecError> {
    spec.validate()?;
    // Initial rigs: the expanded per-rig population with its assignment.
    let expanded = spec.expanded();
    let mut rigs = expanded.miners.agents();
    expanded.assign(&mut rigs);
    let initial_miners = rigs.len();
    let k = spec.chains.len();

    // Per-cohort universe id ranges (see `universe_ranges` — the layout
    // `churn_timeline` also addresses).
    let cohorts = match &spec.miners {
        MinerSpec::Cohorts(c) => c.as_slice(),
        _ => &[],
    };
    let (initial_range, reserve_range) = universe_ranges(spec);
    let churn_cohorts = spec
        .churn
        .as_ref()
        .map(|c| c.cohorts.as_slice())
        .unwrap_or(&[]);
    let mut universe = rigs.clone();
    for entry in churn_cohorts {
        let cohort = &cohorts[entry.cohort];
        debug_assert_eq!(reserve_range[entry.cohort].start, universe.len());
        // Reserve rigs share the cohort's class and point at its coin;
        // they are dormant until an arrival activates them.
        let template = crate::agent::MinerAgent {
            hashrate: cohort.hashrate,
            coin: cohort.coin,
            eval_interval: cohort.eval_hours * 3600.0,
            inertia: cohort.inertia,
            cost_per_hash: cohort.cost_per_hash,
            active: false,
        };
        universe.extend(std::iter::repeat_n(template, entry.max_extra));
    }

    // Quantize the whole universe with one scale, as snapshot_game does.
    let weights: Vec<f64> = spec
        .chains
        .iter()
        .map(crate::spec::ChainSpec::weight)
        .collect();
    let max_weight = weights.iter().cloned().fold(f64::MIN, f64::max);
    let reward_scale = 1.0 / (max_weight * resolution);
    let rewards: Vec<u64> = weights
        .iter()
        .map(|w| ((w * reward_scale).round() as u64).max(1))
        .collect();
    let max_hash = universe.iter().map(|a| a.hashrate).fold(f64::MIN, f64::max);
    let power_scale = 1.0 / (max_hash * resolution);
    let powers: Vec<u64> = universe
        .iter()
        .map(|a| ((a.hashrate * power_scale).round() as u64).max(1))
        .collect();
    let system = System::new(&powers, k).map_err(|e| SpecError::Game(e.to_string()))?;
    let game = Game::new(
        system,
        Rewards::from_integers(&rewards).map_err(|e| SpecError::Game(e.to_string()))?,
    )
    .map_err(|e| SpecError::Game(e.to_string()))?;
    let start = Configuration::new(
        universe.iter().map(|a| CoinId(a.coin)).collect(),
        game.system(),
    )
    .map_err(|e| SpecError::Game(e.to_string()))?;

    let mut miner_active = vec![true; initial_miners];
    miner_active.resize(universe.len(), false);
    let coin_active = match &spec.churn {
        Some(churn) => churn.initial_live(k),
        None => vec![true; k],
    };

    // Lower the (effectiveness-filtered) timeline to tracker deltas —
    // the only seed-dependent piece of the universe.
    let deltas = lower_timeline(spec, &initial_range, &reserve_range);

    Ok(ChurnUniverse {
        game,
        start,
        miner_active,
        coin_active,
        deltas,
        initial_miners,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{btc_bch, BtcBchParams};

    #[test]
    fn weights_reflect_price_ratio() {
        let sim = btc_bch(BtcBchParams {
            num_miners: 20,
            ..BtcBchParams::default()
        });
        let w = coin_weights(&sim, 0.0);
        // Equal subsidies, prices 6000 vs 600: weight ratio 10:1.
        let ratio = w[0] / w[1];
        assert!((ratio - 10.0).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn churn_universe_replays_through_the_tracker() {
        use goc_game::MassTracker;
        let spec = crate::fixtures::scale_churn_scenario(80, 30.0, 11, 20);
        let universe = churn_universe(&spec, 1e-4).expect("universe builds");
        assert_eq!(universe.initial_miners, 80);
        assert_eq!(universe.game.system().num_coins(), 3);
        // Reserve rigs exist and start dormant.
        assert!(universe.game.system().num_miners() > 80);
        assert_eq!(
            universe.miner_active.iter().filter(|&&a| a).count(),
            universe.initial_miners
        );
        assert_eq!(universe.coin_active, vec![true, true, false]);
        // The whole delta stream applies cleanly — churn needs no
        // rebuild — and stays in lockstep with an undo rewind.
        let mut tracker = MassTracker::with_activity(
            &universe.game,
            &universe.start,
            &universe.miner_active,
            &universe.coin_active,
        )
        .expect("universe state is coherent");
        let mut times = Vec::new();
        for (t, delta) in &universe.deltas {
            tracker
                .apply_delta(*delta)
                .unwrap_or_else(|e| panic!("delta {delta} at {t}: {e}"));
            times.push(*t);
        }
        assert!(times.windows(2).all(|w| w[0] <= w[1]), "time-ordered");
        // After the full timeline: upstart live, minor retired & empty.
        assert!(tracker.is_coin_active(goc_game::CoinId(2)));
        assert!(!tracker.is_coin_active(goc_game::CoinId(1)));
        assert_eq!(tracker.mass_of(goc_game::CoinId(1)), 0);
        while tracker.undo_delta().is_some() {}
        assert_eq!(tracker.config(), &universe.start);
        assert_eq!(tracker.active_miner_count(), universe.initial_miners);
    }

    #[test]
    fn standalone_timeline_matches_the_universe_lowering() {
        let spec = crate::fixtures::scale_churn_scenario(80, 30.0, 11, 20);
        let universe = churn_universe(&spec, 1e-4).expect("universe builds");
        let timeline = churn_timeline(&spec).expect("timeline lowers");
        assert_eq!(timeline, universe.deltas);
        assert_eq!(
            stride_deltas(&timeline, 400),
            universe.step_deltas(400),
            "stride policy agrees"
        );
        // Re-lowering under a different seed changes the timeline but
        // not the universe (the shared-snapshot contract of the replica
        // ensemble).
        let other = crate::fixtures::scale_churn_scenario(80, 30.0, 12, 20);
        let reuniverse = churn_universe(&other, 1e-4).expect("universe builds");
        assert_eq!(universe.start, reuniverse.start);
        assert_eq!(universe.miner_active, reuniverse.miner_active);
        assert_eq!(universe.coin_active, reuniverse.coin_active);
        assert_eq!(churn_timeline(&other).expect("lowers"), reuniverse.deltas);
    }

    #[test]
    fn churn_universe_without_churn_is_the_plain_population() {
        let spec = crate::fixtures::scale_cohort_scenario(40, 5.0, 1);
        let universe = churn_universe(&spec, 1e-4).expect("builds");
        assert_eq!(universe.game.system().num_miners(), 40);
        assert!(universe.deltas.is_empty());
        assert!(universe.miner_active.iter().all(|&a| a));
        assert!(universe.coin_active.iter().all(|&a| a));
    }

    #[test]
    fn snapshot_matches_agent_configuration() {
        let sim = btc_bch(BtcBchParams {
            num_miners: 25,
            ..BtcBchParams::default()
        });
        let (game, config) = snapshot_game(&sim, 0.0, 1e-4).unwrap();
        assert_eq!(game.system().num_miners(), 25);
        assert_eq!(game.system().num_coins(), 2);
        for (i, a) in sim.agents().iter().enumerate() {
            assert_eq!(config.coin_of(goc_game::MinerId(i)).index(), a.coin);
        }
        // Quantization preserves the 10:1 weight ratio.
        let f0 = game.reward_of(CoinId(0)).to_f64();
        let f1 = game.reward_of(CoinId(1)).to_f64();
        assert!((f0 / f1 - 10.0).abs() < 0.1);
    }
}
