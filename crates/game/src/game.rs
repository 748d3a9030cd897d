//! The game `G_{Π,C,F}` (paper §2): payoffs, revenue per unit, better
//! responses, and stability.

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::config::{Configuration, Masses};
use crate::error::GameError;
use crate::ids::{CoinId, MinerId};
use crate::ratio::{Extended, Ratio};
use crate::system::{System, MAX_UNIT};

/// A reward function `F : C → R₊` (non-negative exact rationals).
///
/// Organic rewards (the market-given `F` of §2) are positive integers in
/// `[1, 2^40]`; *designed* rewards produced by Algorithm 2 are arbitrary
/// non-negative rationals (Eq. 4 assigns reward `0` to unoccupied coins —
/// see `DESIGN.md`, deviation 2).
///
/// # Examples
///
/// ```
/// use goc_game::{CoinId, Rewards};
///
/// let f = Rewards::from_integers(&[10, 5])?;
/// assert_eq!(f.of(CoinId(1)).to_f64(), 5.0);
/// # Ok::<(), goc_game::GameError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Rewards {
    values: Vec<Ratio>,
}

impl Rewards {
    /// Builds a reward function from positive integer weights.
    ///
    /// # Errors
    ///
    /// Returns [`GameError::RewardOutOfRange`] if any weight is `0` or
    /// exceeds [`MAX_UNIT`].
    pub fn from_integers(values: &[u64]) -> Result<Self, GameError> {
        let mut out = Vec::with_capacity(values.len());
        for (i, &v) in values.iter().enumerate() {
            if v == 0 || v > MAX_UNIT {
                return Err(GameError::RewardOutOfRange {
                    coin: CoinId(i),
                    reward: v,
                });
            }
            out.push(Ratio::from_int(v as i128));
        }
        Ok(Rewards { values: out })
    }

    /// Builds a reward function from exact non-negative rationals (used by
    /// the reward designer).
    ///
    /// # Errors
    ///
    /// Returns [`GameError::NegativeReward`] if any value is negative.
    pub fn from_ratios(values: Vec<Ratio>) -> Result<Self, GameError> {
        for (i, v) in values.iter().enumerate() {
            if v.is_negative() {
                return Err(GameError::NegativeReward { coin: CoinId(i) });
            }
        }
        Ok(Rewards { values })
    }

    /// The reward of coin `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range.
    pub fn of(&self, c: CoinId) -> Ratio {
        self.values[c.index()]
    }

    /// Number of coins covered.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the reward vector is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The largest reward (`max F`), used by Eq. 5.
    pub fn max(&self) -> Ratio {
        self.values.iter().copied().fold(Ratio::ZERO, Ratio::max)
    }

    /// Sum of all rewards `Σ_c F(c)`.
    pub fn total(&self) -> Ratio {
        self.values.iter().copied().sum()
    }

    /// Iterates over `(coin, reward)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (CoinId, Ratio)> + '_ {
        self.values.iter().enumerate().map(|(i, &r)| (CoinId(i), r))
    }
}

/// A single better-response step: miner `miner` moves `from → to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Move {
    /// The deviating miner.
    pub miner: MinerId,
    /// The coin the miner leaves (`s.p`).
    pub from: CoinId,
    /// The coin the miner joins.
    pub to: CoinId,
}

impl fmt::Display for Move {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {} → {}", self.miner, self.from, self.to)
    }
}

/// A post-join RPU `F(c) / mass`, held **unreduced** for comparison.
///
/// Every better-response query compares values of this shape. Reducing
/// each one to a [`Ratio`] (what [`Game::rpu_after_join`] returns) costs
/// two `u128` Euclid gcds; comparing two of them only needs a cross
/// product. [`Ord`] cross-multiplies `num_a·den_b·mass_b` against
/// `num_b·den_a·mass_a` in `u128` — rewards are non-negative, so every
/// factor fits — and, should a product overflow, compares the reduced
/// ratios instead. The order, ties included, is therefore exactly the
/// [`Ratio`] order of the reduced values.
#[derive(Debug, Clone, Copy)]
pub(crate) struct JoinRpu {
    reward: Ratio,
    mass: u128,
}

impl JoinRpu {
    /// `reward / mass` for a non-negative reward and a positive mass.
    pub(crate) fn new(reward: Ratio, mass: u128) -> Self {
        debug_assert!(!reward.is_negative() && mass > 0);
        JoinRpu { reward, mass }
    }

    /// The reduced value.
    fn reduced(self) -> Ratio {
        self.reward
            .checked_div_int(self.mass as i128)
            .expect("mass fits i128 by construction")
    }

    /// `num_self · den_other · mass_other`, or `None` on `u128` overflow.
    fn cross(self, other: Self) -> Option<u128> {
        (self.reward.numerator() as u128)
            .checked_mul(other.reward.denominator() as u128)?
            .checked_mul(other.mass)
    }
}

impl Ord for JoinRpu {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self.cross(*other), other.cross(*self)) {
            (Some(lhs), Some(rhs)) => lhs.cmp(&rhs),
            _ => self.reduced().cmp(&other.reduced()),
        }
    }
}

impl PartialOrd for JoinRpu {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for JoinRpu {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for JoinRpu {}

/// The game `G_{Π,C,F}`: a shared [`System`] plus a reward function, with
/// optional per-miner coin restrictions (the "asymmetric case" of §6).
///
/// All payoff comparisons are exact (see [`crate::ratio`]).
///
/// # Examples
///
/// ```
/// use goc_game::{CoinId, Configuration, Game, MinerId};
///
/// // The paper's Proposition 1 system: powers (2, 1), rewards (1, 1).
/// let game = Game::build(&[2, 1], &[1, 1])?;
/// let s = Configuration::uniform(CoinId(0), game.system())?;
/// // u_{p0}(⟨c0,c0⟩) = 2/3, and p1 has a better response to c1.
/// assert_eq!(game.payoff(MinerId(1), &s).to_f64(), 1.0 / 3.0);
/// assert!(!game.is_stable(&s));
/// # Ok::<(), goc_game::GameError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Game {
    system: Arc<System>,
    rewards: Rewards,
    restrictions: Option<Vec<Vec<bool>>>,
}

impl Game {
    /// Creates a game from a system and reward function.
    ///
    /// # Errors
    ///
    /// Returns [`GameError::RewardLengthMismatch`] if the reward vector does
    /// not cover exactly the system's coins.
    pub fn new(system: Arc<System>, rewards: Rewards) -> Result<Self, GameError> {
        if rewards.len() != system.num_coins() {
            return Err(GameError::RewardLengthMismatch {
                rewards: rewards.len(),
                coins: system.num_coins(),
            });
        }
        Ok(Game {
            system,
            rewards,
            restrictions: None,
        })
    }

    /// One-shot constructor from integer powers and rewards.
    ///
    /// # Errors
    ///
    /// Propagates system and reward validation errors.
    pub fn build(powers: &[u64], rewards: &[u64]) -> Result<Self, GameError> {
        let system = System::new(powers, rewards.len())?;
        Game::new(system, Rewards::from_integers(rewards)?)
    }

    /// The same system with a different reward function (the reward
    /// designer's primitive: games differing only in `F`).
    ///
    /// # Errors
    ///
    /// Returns [`GameError::RewardLengthMismatch`] on a length mismatch.
    pub fn with_rewards(&self, rewards: Rewards) -> Result<Self, GameError> {
        if rewards.len() != self.system.num_coins() {
            return Err(GameError::RewardLengthMismatch {
                rewards: rewards.len(),
                coins: self.system.num_coins(),
            });
        }
        Ok(Game {
            system: Arc::clone(&self.system),
            rewards,
            restrictions: self.restrictions.clone(),
        })
    }

    /// Restricts each miner to a permitted coin subset (`restrictions[p][c]`)
    /// — the asymmetric extension discussed in §6.
    ///
    /// # Errors
    ///
    /// * [`GameError::ConfigLengthMismatch`] if the matrix shape is wrong.
    /// * [`GameError::NoPermittedCoin`] if some miner has no permitted coin.
    pub fn with_restrictions(&self, restrictions: Vec<Vec<bool>>) -> Result<Self, GameError> {
        if restrictions.len() != self.system.num_miners() {
            return Err(GameError::ConfigLengthMismatch {
                config: restrictions.len(),
                miners: self.system.num_miners(),
            });
        }
        for (i, row) in restrictions.iter().enumerate() {
            if row.len() != self.system.num_coins() {
                return Err(GameError::RewardLengthMismatch {
                    rewards: row.len(),
                    coins: self.system.num_coins(),
                });
            }
            if !row.iter().any(|&b| b) {
                return Err(GameError::NoPermittedCoin { miner: MinerId(i) });
            }
        }
        Ok(Game {
            system: Arc::clone(&self.system),
            rewards: self.rewards.clone(),
            restrictions: Some(restrictions),
        })
    }

    /// The underlying system.
    pub fn system(&self) -> &Arc<System> {
        &self.system
    }

    /// The reward function.
    pub fn rewards(&self) -> &Rewards {
        &self.rewards
    }

    /// Shorthand for `rewards().of(c)`.
    pub fn reward_of(&self, c: CoinId) -> Ratio {
        self.rewards.of(c)
    }

    /// Whether miner `p` may mine coin `c` (always true without
    /// restrictions).
    pub fn allowed(&self, p: MinerId, c: CoinId) -> bool {
        match &self.restrictions {
            Some(r) => r[p.index()][c.index()],
            None => true,
        }
    }

    /// Whether this game carries coin restrictions.
    pub fn is_restricted(&self) -> bool {
        self.restrictions.is_some()
    }

    /// Revenue per unit of coin `c`: `RPU_c(s) = F(c) / M_c(s)`, with the
    /// convention that an unoccupied coin has RPU `+∞` (it sorts last in
    /// the potential list and never attracts a move by itself — moving
    /// *to* it is evaluated with the mover's own mass included).
    pub fn rpu(&self, c: CoinId, masses: &Masses) -> Extended {
        let m = masses.mass_of(c);
        if m == 0 {
            Extended::Infinite
        } else {
            Extended::Finite(
                self.rewards
                    .of(c)
                    .checked_div_int(m as i128)
                    .expect("mass fits i128 by construction"),
            )
        }
    }

    /// The RPU miner `p` would experience after moving to `c`:
    /// `F(c) / (M_c(s) + m_p)` if `p` is not on `c`, otherwise `RPU_c(s)`.
    pub fn rpu_after_join(&self, p: MinerId, c: CoinId, current: CoinId, masses: &Masses) -> Ratio {
        self.join_rpu(p, c, current, masses).reduced()
    }

    /// [`Game::rpu_after_join`] left unreduced: the form every payoff
    /// *comparison* uses (see [`JoinRpu`]).
    pub(crate) fn join_rpu(
        &self,
        p: MinerId,
        c: CoinId,
        current: CoinId,
        masses: &Masses,
    ) -> JoinRpu {
        let mass = if current == c {
            masses.mass_of(c)
        } else {
            masses.mass_of(c) + u128::from(self.system.power_of(p))
        };
        JoinRpu::new(self.rewards.of(c), mass)
    }

    /// Miner `p`'s payoff `u_p(s) = m_p · RPU_{s.p}(s)`.
    ///
    /// # Panics
    ///
    /// Panics if `s` is inconsistent with the system (debug builds).
    pub fn payoff(&self, p: MinerId, s: &Configuration) -> Ratio {
        let masses = s.masses(&self.system);
        self.payoff_with(p, s.coin_of(p), &masses)
    }

    /// [`Game::payoff`] with precomputed masses.
    pub fn payoff_with(&self, p: MinerId, coin: CoinId, masses: &Masses) -> Ratio {
        let m_p = self.system.power_of(p);
        let rpu = self.rpu_after_join(p, coin, coin, masses);
        rpu.checked_mul_int(m_p as i128)
            .expect("payoff fits i128 by construction")
    }

    /// Whether moving `p` to `to` is a better response step in `s`
    /// (strict payoff improvement, permitted coin, actual move).
    pub fn is_better_response(
        &self,
        p: MinerId,
        to: CoinId,
        s: &Configuration,
        masses: &Masses,
    ) -> bool {
        let from = s.coin_of(p);
        if to == from || !self.allowed(p, to) {
            return false;
        }
        self.join_rpu(p, to, from, masses) > self.join_rpu(p, from, from, masses)
    }

    /// The payoff gain for `p` of moving to `to` (may be negative).
    pub fn gain(&self, p: MinerId, to: CoinId, s: &Configuration, masses: &Masses) -> Ratio {
        let from = s.coin_of(p);
        let m_p = self.system.power_of(p) as i128;
        let current = self.rpu_after_join(p, from, from, masses);
        let target = self.rpu_after_join(p, to, from, masses);
        (target - current)
            .checked_mul_int(m_p)
            .expect("gain fits i128 by construction")
    }

    /// All better-response steps available to `p` in `s`, in coin order.
    pub fn better_responses(&self, p: MinerId, s: &Configuration, masses: &Masses) -> Vec<CoinId> {
        self.system
            .coin_ids()
            .filter(|&c| self.is_better_response(p, c, s, masses))
            .collect()
    }

    /// `p`'s best response in `s`: the better-response step with maximal
    /// post-move RPU (ties broken towards the smallest coin id), or `None`
    /// if `p` is stable.
    pub fn best_response(&self, p: MinerId, s: &Configuration, masses: &Masses) -> Option<CoinId> {
        let from = s.coin_of(p);
        let current = self.join_rpu(p, from, from, masses);
        let mut best: Option<(JoinRpu, CoinId)> = None;
        for c in self.system.coin_ids() {
            if c == from || !self.allowed(p, c) {
                continue;
            }
            let target = self.join_rpu(p, c, from, masses);
            if target > current && best.is_none_or(|(b, _)| target > b) {
                best = Some((target, c));
            }
        }
        best.map(|(_, c)| c)
    }

    /// Whether miner `p` is stable in `s` (no better response step).
    pub fn is_miner_stable(&self, p: MinerId, s: &Configuration, masses: &Masses) -> bool {
        self.best_response(p, s, masses).is_none()
    }

    /// Whether `s` is an **ε-equilibrium**: no miner can improve its
    /// payoff by more than the *relative* factor `epsilon` (a [`Ratio`],
    /// e.g. `1/20` for 5%). `epsilon = 0` coincides with [`Game::is_stable`].
    ///
    /// This is the game-side counterpart of the simulator's switching
    /// *inertia*: agents that only move for a >ε relative gain settle in
    /// exactly the ε-equilibria of the snapshot game.
    ///
    /// # Panics
    ///
    /// Panics if `epsilon` is negative.
    pub fn is_epsilon_stable(&self, s: &Configuration, epsilon: Ratio) -> bool {
        assert!(!epsilon.is_negative(), "epsilon must be non-negative");
        let masses = s.masses(&self.system);
        let one_plus = Ratio::ONE + epsilon;
        self.system.miner_ids().all(|p| {
            let from = s.coin_of(p);
            let current = self.rpu_after_join(p, from, from, &masses);
            let threshold = current
                .checked_mul(one_plus)
                .expect("bounded inputs keep this in i128");
            self.system
                .coin_ids()
                .filter(|&c| c != from && self.allowed(p, c))
                .all(|c| self.rpu_after_join(p, c, from, &masses) <= threshold)
        })
    }

    /// Whether `s` is a stable configuration (pure equilibrium).
    pub fn is_stable(&self, s: &Configuration) -> bool {
        let masses = s.masses(&self.system);
        self.system
            .miner_ids()
            .all(|p| self.is_miner_stable(p, s, &masses))
    }

    /// The miners that are unstable in `s`, in id order.
    pub fn unstable_miners(&self, s: &Configuration) -> Vec<MinerId> {
        let masses = s.masses(&self.system);
        self.system
            .miner_ids()
            .filter(|&p| !self.is_miner_stable(p, s, &masses))
            .collect()
    }

    /// All better-response steps available in `s`, over all miners.
    pub fn improving_moves(&self, s: &Configuration) -> Vec<Move> {
        let masses = s.masses(&self.system);
        let mut out = Vec::new();
        for p in self.system.miner_ids() {
            let from = s.coin_of(p);
            for to in self.better_responses(p, s, &masses) {
                out.push(Move { miner: p, from, to });
            }
        }
        out
    }

    /// Social welfare `Σ_p u_p(s)`; by Observation 3 this equals
    /// `Σ_{c occupied} F(c)`.
    pub fn welfare(&self, s: &Configuration) -> Ratio {
        let masses = s.masses(&self.system);
        self.system
            .coin_ids()
            .filter(|&c| !masses.is_empty_coin(c))
            .map(|c| self.rewards.of(c))
            .sum()
    }

    /// The payoff vector of all miners in `s`.
    pub fn payoffs(&self, s: &Configuration) -> Vec<Ratio> {
        let masses = s.masses(&self.system);
        self.system
            .miner_ids()
            .map(|p| self.payoff_with(p, s.coin_of(p), &masses))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::config::Configuration;

    fn prop1_game() -> Game {
        Game::build(&[2, 1], &[1, 1]).unwrap()
    }

    fn cfg(game: &Game, coins: &[usize]) -> Configuration {
        Configuration::new(coins.iter().map(|&c| CoinId(c)).collect(), game.system()).unwrap()
    }

    #[test]
    fn rewards_validation() {
        assert!(Rewards::from_integers(&[0]).is_err());
        assert!(Rewards::from_integers(&[MAX_UNIT + 1]).is_err());
        assert!(Rewards::from_ratios(vec![Ratio::from_int(-1)]).is_err());
        assert!(Rewards::from_ratios(vec![Ratio::ZERO]).is_ok());
        let f = Rewards::from_integers(&[3, 9, 1]).unwrap();
        assert_eq!(f.max(), Ratio::from_int(9));
        assert_eq!(f.total(), Ratio::from_int(13));
        assert_eq!(f.iter().count(), 3);
    }

    #[test]
    fn reward_length_checked() {
        let system = System::new(&[1], 2).unwrap();
        let rewards = Rewards::from_integers(&[1]).unwrap();
        assert!(matches!(
            Game::new(system, rewards),
            Err(GameError::RewardLengthMismatch { .. })
        ));
    }

    #[test]
    fn paper_prop1_payoffs() {
        // Matches the four configurations in the proof of Proposition 1.
        let g = prop1_game();
        let s1 = cfg(&g, &[0, 0]);
        let s2 = cfg(&g, &[0, 1]);
        let s3 = cfg(&g, &[1, 1]);
        let s4 = cfg(&g, &[1, 0]);
        let r = |n, d| Ratio::new(n, d).unwrap();
        assert_eq!(g.payoff(MinerId(0), &s1), r(2, 3));
        assert_eq!(g.payoff(MinerId(1), &s1), r(1, 3));
        assert_eq!(g.payoff(MinerId(0), &s2), r(1, 1));
        assert_eq!(g.payoff(MinerId(1), &s2), r(1, 1));
        assert_eq!(g.payoff(MinerId(0), &s3), r(2, 3));
        assert_eq!(g.payoff(MinerId(1), &s3), r(1, 3));
        assert_eq!(g.payoff(MinerId(0), &s4), r(1, 1));
        assert_eq!(g.payoff(MinerId(1), &s4), r(1, 1));
        assert!(g.is_stable(&s2));
        assert!(g.is_stable(&s4));
        assert!(!g.is_stable(&s1));
        assert!(!g.is_stable(&s3));
    }

    #[test]
    fn rpu_of_empty_coin_is_infinite() {
        let g = prop1_game();
        let s = cfg(&g, &[0, 0]);
        let m = s.masses(g.system());
        assert_eq!(g.rpu(CoinId(1), &m), Extended::Infinite);
        assert_eq!(
            g.rpu(CoinId(0), &m),
            Extended::Finite(Ratio::new(1, 3).unwrap())
        );
    }

    #[test]
    fn better_response_identification() {
        let g = prop1_game();
        let s = cfg(&g, &[0, 0]);
        let m = s.masses(g.system());
        // p1 (power 1): current RPU 1/3, moving to c1 yields 1/1 > 1/3.
        assert!(g.is_better_response(MinerId(1), CoinId(1), &s, &m));
        // p0 (power 2): moving yields 1/2 > 1/3 as well.
        assert!(g.is_better_response(MinerId(0), CoinId(1), &s, &m));
        // Staying put is never a better response.
        assert!(!g.is_better_response(MinerId(1), CoinId(0), &s, &m));
        assert_eq!(g.best_response(MinerId(1), &s, &m), Some(CoinId(1)));
        assert_eq!(
            g.gain(MinerId(1), CoinId(1), &s, &m),
            Ratio::new(2, 3).unwrap()
        );
        assert_eq!(g.unstable_miners(&s), vec![MinerId(0), MinerId(1)]);
        assert_eq!(g.improving_moves(&s).len(), 2);
    }

    #[test]
    fn best_response_prefers_highest_rpu_then_lowest_id() {
        // Coin rewards 6, 6, 3; p of power 1 alone: joining c0 or c1 both
        // give 6/(3+1); the tie must resolve to c0.
        let g = Game::build(&[3, 3, 1], &[6, 6, 3]).unwrap();
        let s = cfg(&g, &[0, 1, 2]);
        let m = s.masses(g.system());
        assert_eq!(g.best_response(MinerId(2), &s, &m), None); // 3/1 beats 6/4
        let g2 = Game::build(&[3, 3, 1], &[6, 6, 1]).unwrap();
        let s2 = cfg(&g2, &[0, 1, 2]);
        let m2 = s2.masses(g2.system());
        assert_eq!(g2.best_response(MinerId(2), &s2, &m2), Some(CoinId(0)));
    }

    #[test]
    fn restrictions_are_enforced() {
        let g = prop1_game()
            .with_restrictions(vec![vec![true, false], vec![true, true]])
            .unwrap();
        let s = cfg(&g, &[0, 0]);
        let m = s.masses(g.system());
        // p0 may not move to c1 even though it would gain.
        assert!(!g.is_better_response(MinerId(0), CoinId(1), &s, &m));
        assert!(g.is_better_response(MinerId(1), CoinId(1), &s, &m));
        assert!(g.is_restricted());
        assert!(g.allowed(MinerId(1), CoinId(1)));
        assert!(!g.allowed(MinerId(0), CoinId(1)));
    }

    #[test]
    fn restrictions_validation() {
        let g = prop1_game();
        assert!(matches!(
            g.with_restrictions(vec![vec![true, true]]),
            Err(GameError::ConfigLengthMismatch { .. })
        ));
        assert!(matches!(
            g.with_restrictions(vec![vec![true], vec![true, true]]),
            Err(GameError::RewardLengthMismatch { .. })
        ));
        assert!(matches!(
            g.with_restrictions(vec![vec![false, false], vec![true, true]]),
            Err(GameError::NoPermittedCoin { miner: MinerId(0) })
        ));
    }

    #[test]
    fn epsilon_stability_relaxes_exact_stability() {
        let g = prop1_game();
        let clumped = cfg(&g, &[0, 0]);
        let split = cfg(&g, &[0, 1]);
        // Exact equilibria are ε-stable for every ε.
        assert!(g.is_epsilon_stable(&split, Ratio::ZERO));
        assert!(g.is_epsilon_stable(&split, Ratio::new(1, 10).unwrap()));
        // The clumped start: p1's best deviation multiplies its RPU by 3
        // (1/3 -> 1), so ε = 2 (i.e. 200%) makes it ε-stable but ε = 1.9
        // does not.
        assert!(!g.is_epsilon_stable(&clumped, Ratio::ZERO));
        assert!(!g.is_epsilon_stable(&clumped, Ratio::new(19, 10).unwrap()));
        assert!(g.is_epsilon_stable(&clumped, Ratio::from_int(2)));
        // ε = 0 coincides with exact stability on all configurations.
        for s in crate::config::ConfigurationIter::bounded(g.system(), 1 << 16).unwrap() {
            assert_eq!(g.is_stable(&s), g.is_epsilon_stable(&s, Ratio::ZERO));
        }
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn epsilon_stability_rejects_negative_epsilon() {
        let g = prop1_game();
        let s = cfg(&g, &[0, 1]);
        g.is_epsilon_stable(&s, Ratio::from_int(-1));
    }

    #[test]
    fn welfare_matches_observation_3() {
        let g = prop1_game();
        // Both coins occupied: welfare = F(c0) + F(c1) = 2.
        assert_eq!(g.welfare(&cfg(&g, &[0, 1])), Ratio::from_int(2));
        // One coin empty: only the occupied coin's reward is divided.
        assert_eq!(g.welfare(&cfg(&g, &[0, 0])), Ratio::from_int(1));
        let payoffs = g.payoffs(&cfg(&g, &[0, 1]));
        let total: Ratio = payoffs.into_iter().sum();
        assert_eq!(total, g.welfare(&cfg(&g, &[0, 1])));
    }

    #[test]
    fn with_rewards_keeps_system() {
        let g = prop1_game();
        let g2 = g
            .with_rewards(Rewards::from_integers(&[5, 1]).unwrap())
            .unwrap();
        assert!(Arc::ptr_eq(g.system(), g2.system()));
        assert_eq!(g2.reward_of(CoinId(0)), Ratio::from_int(5));
        assert!(g
            .with_rewards(Rewards::from_integers(&[1]).unwrap())
            .is_err());
    }

    /// The three values a two-miner, two-coin game compares (`p0` on
    /// `c0`, `p1` on `c1`): both current RPUs and `p0`'s post-join RPU
    /// on `c1`, each as the kernel holds it and as `rpu_after_join`
    /// reduces it.
    fn join_values(rewards: [Ratio; 2], powers: [u64; 2]) -> [(JoinRpu, Ratio); 3] {
        let g = Game::new(
            System::new(&powers, 2).unwrap(),
            Rewards::from_ratios(rewards.to_vec()).unwrap(),
        )
        .unwrap();
        let s = cfg(&g, &[0, 1]);
        let m = s.masses(g.system());
        [
            (MinerId(0), CoinId(0), CoinId(0)),
            (MinerId(1), CoinId(1), CoinId(1)),
            (MinerId(0), CoinId(1), CoinId(0)),
        ]
        .map(|(p, c, from)| (g.join_rpu(p, c, from, &m), g.rpu_after_join(p, c, from, &m)))
    }

    /// Every pairwise kernel comparison (`Equal` included) agrees with
    /// the reduced-`Ratio` comparison.
    fn kernel_orders_like_ratio(
        rewards: [Ratio; 2],
        powers: [u64; 2],
    ) -> Result<(), TestCaseError> {
        let values = join_values(rewards, powers);
        for (a, ra) in values {
            for (b, rb) in values {
                prop_assert_eq!(a.cmp(&b), ra.cmp(&rb), "{a:?} vs {b:?}");
                prop_assert_eq!(a == b, ra == rb, "{a:?} vs {b:?}");
            }
        }
        Ok(())
    }

    /// Powers: mostly tiny (so ties are common), otherwise anywhere in
    /// the validated range.
    fn power() -> impl Strategy<Value = u64> {
        prop_oneof![1u64..8, 1u64..=MAX_UNIT]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn kernel_orders_integer_rewards(
            r0 in prop_oneof![0i128..4, 0i128..=MAX_UNIT as i128],
            r1 in prop_oneof![0i128..4, 0i128..=MAX_UNIT as i128],
            m0 in power(),
            m1 in power(),
        ) {
            kernel_orders_like_ratio([Ratio::from_int(r0), Ratio::from_int(r1)], [m0, m1])?;
        }

        #[test]
        fn kernel_orders_fractional_rewards(
            (n0, d0) in (0i128..1 << 60, 1i128..=MAX_UNIT as i128),
            (n1, d1) in (0i128..1 << 60, 1i128..=MAX_UNIT as i128),
            m0 in power(),
            m1 in power(),
        ) {
            let r = |n, d| Ratio::new(n, d).unwrap();
            kernel_orders_like_ratio([r(n0, d0), r(n1, d1)], [m0, m1])?;
        }

        #[test]
        fn kernel_orders_rewards_near_i128_max(
            (n0, d0) in (i128::MAX - (1 << 40)..=i128::MAX, 1i128..1 << 10),
            (n1, d1) in (i128::MAX - (1 << 40)..=i128::MAX, 1i128..1 << 10),
            m0 in power(),
            m1 in power(),
        ) {
            let r = |n, d| Ratio::new(n, d).unwrap();
            kernel_orders_like_ratio([r(n0, d0), r(n1, d1)], [m0, m1])?;
        }
    }

    #[test]
    fn kernel_overflow_falls_back_to_reduced_order() {
        // 6k/6 and 3k/3 are both k, but the cross products 6k·3 and 3k·6
        // exceed u128: the tie must come from the reduced fallback.
        let k = i128::MAX / 6;
        let [(a, ra), (b, rb), _] =
            join_values([Ratio::from_int(6 * k), Ratio::from_int(3 * k)], [6, 3]);
        assert!(a.cross(b).is_none() && b.cross(a).is_none());
        assert_eq!(ra, rb);
        assert_eq!(a.cmp(&b), Ordering::Equal);
        // One unit less on c1 breaks the tie, still through the fallback.
        let [(a, _), (b, _), _] =
            join_values([Ratio::from_int(6 * k), Ratio::from_int(3 * k - 1)], [6, 3]);
        assert!(a.cross(b).is_none());
        assert_eq!(a.cmp(&b), Ordering::Greater);
        assert_eq!(b.cmp(&a), Ordering::Less);
    }

    #[test]
    fn move_display() {
        let m = Move {
            miner: MinerId(1),
            from: CoinId(0),
            to: CoinId(1),
        };
        assert_eq!(m.to_string(), "p1: c0 → c1");
    }
}
