//! Lazy move discovery for the incremental scheduler protocol.
//!
//! The eager learning engine hands every scheduler the complete
//! improving-move list each step, which costs `O(miners × coins)` to
//! materialize no matter how cheap the scheduler's own rule is. That is
//! what capped the scheduler spectrum at toy populations while the
//! round-robin [`MassTracker::find_improving_move`] path scaled to 250k
//! miners.
//!
//! [`MoveSource`] closes the gap: a view over [`MassTracker`] that
//! answers *move selection* queries from maintained state instead of a
//! rescan. It keeps, per strategic group (same coin, same power, same
//! restriction row — see the [tracker docs](crate::tracker)), a cached
//! best-response **decision**, maintained under [`MoveSource::apply`] /
//! [`MoveSource::undo`] with a dirty-group queue:
//!
//! * groups keyed to the two coins a move touches are queued for a full
//!   `O(coins)` re-probe (found by a key-range scan, not a group sweep);
//! * every other group gets an `O(1)` touch-up — the vacated coin is the
//!   only coin that became *more* attractive, so a cached-stable group
//!   can only turn unstable towards it, and a cached best response can
//!   only be displaced by it (or invalidated when the joined coin *was*
//!   the cached best).
//!
//! On top of the cache the source exposes the scheduler protocol —
//! [`MoveSource::improving_move_for`], [`MoveSource::extremal_gain_move`],
//! [`MoveSource::extremal_power_move`], [`MoveSource::sample_improving`],
//! [`MoveSource::next_unstable`], [`MoveSource::unstable_miners`] — each
//! in `O(groups × coins)` or better, never materializing the per-miner
//! move list. With cohort-structured populations (`groups ≪ miners`)
//! every bundled scheduler's step cost becomes head-count-free; in
//! restricted games groups degenerate to singletons and the bounds fall
//! back to the eager path's envelope.
//!
//! Selection semantics are **canonical**: class enumeration is ordered
//! by `(coin, power, restriction)` key and member tie-breaks use the
//! minimum id, so an eager implementation working from the flat
//! improving-move list can reproduce every pick exactly. The property
//! suite in `crates/learning/tests` pins that equivalence per scheduler.
//!
//! # Examples
//!
//! ```
//! use goc_game::{CoinId, Configuration, Game, MinerId, MoveSource};
//!
//! let game = Game::build(&[2, 1], &[1, 1])?;
//! let start = Configuration::uniform(CoinId(0), game.system())?;
//! let mut src = MoveSource::new(&game, &start)?;
//!
//! // p1 (and p0) want to leave the crowded coin; the largest gain is p1's.
//! let mv = src.improving_move_for(MinerId(1)).expect("p1 is unstable");
//! assert_eq!(mv.to, CoinId(1));
//! src.apply(mv.miner, mv.to);
//! assert!(src.is_stable());
//! # Ok::<(), goc_game::GameError>(())
//! ```

use std::collections::VecDeque;

use rand::Rng;

use crate::config::{Configuration, Masses};
use crate::delta::{AppliedDelta, Delta};
use crate::error::GameError;
use crate::game::{Game, Move};
use crate::ids::{CoinId, MinerId};
use crate::ratio::{Extended, Ratio};
use crate::tracker::MassTracker;

/// Which end of a gain or power ordering an extremal query selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Extremum {
    /// The largest value (ties to the smallest miner id).
    Max,
    /// The smallest value (ties to the smallest miner id).
    Min,
}

/// A group's cached scheduling decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cached {
    /// Queued in the dirty-group queue; must be re-probed before use.
    Stale,
    /// The group's best response (`None` = stable or empty group).
    Decision(Option<CoinId>),
}

/// Lazy, incrementally-maintained move discovery over a [`MassTracker`]
/// (see the [module docs](self) for the protocol and its cost model).
#[derive(Debug, Clone)]
pub struct MoveSource<'g> {
    tracker: MassTracker<'g>,
    /// Per-group cached decision, parallel to the tracker's group list.
    cache: Vec<Cached>,
    /// Groups whose cache entry is [`Cached::Stale`], pending re-probe.
    dirty: VecDeque<u32>,
    /// Number of groups currently cached as unstable.
    unstable: usize,
}

impl<'g> MoveSource<'g> {
    /// Builds a source over `start` in `game`. Costs `O(miners log miners)`
    /// (tracker construction); all decisions start dirty and are probed
    /// lazily.
    ///
    /// # Errors
    ///
    /// Propagates [`MassTracker::new`] validation errors.
    pub fn new(game: &'g Game, start: &Configuration) -> Result<Self, GameError> {
        Ok(Self::over(MassTracker::new(game, start)?))
    }

    /// Wraps an existing tracker.
    pub fn over(tracker: MassTracker<'g>) -> Self {
        let groups = tracker.group_count();
        MoveSource {
            tracker,
            cache: vec![Cached::Stale; groups],
            dirty: (0..groups as u32).collect(),
            unstable: 0,
        }
    }

    /// The underlying tracker (read-only; mutate through
    /// [`MoveSource::apply`] / [`MoveSource::undo`] so the decision cache
    /// stays sound).
    pub fn tracker(&self) -> &MassTracker<'g> {
        &self.tracker
    }

    /// The game this source evaluates.
    pub fn game(&self) -> &Game {
        self.tracker.game()
    }

    /// The current configuration.
    pub fn config(&self) -> &Configuration {
        self.tracker.config()
    }

    /// The maintained per-coin mass table.
    pub fn masses(&self) -> &Masses {
        self.tracker.masses()
    }

    /// Consumes the source, returning the final configuration.
    pub fn into_config(self) -> Configuration {
        self.tracker.into_config()
    }

    /// Enables or disables the tracker's undo recording (see
    /// [`MassTracker::set_undo_recording`]).
    pub fn set_undo_recording(&mut self, record: bool) {
        self.tracker.set_undo_recording(record);
    }

    /// Whether moving `p` to `to` is a better-response step, `O(1)`.
    pub fn is_better_response(&self, p: MinerId, to: CoinId) -> bool {
        self.tracker.is_better_response(p, to)
    }

    /// The payoff gain of moving `p` to `to`, `O(1)`.
    pub fn gain(&self, p: MinerId, to: CoinId) -> Ratio {
        self.tracker.gain(p, to)
    }

    /// The sorted RPU list of Theorem 1's ordinal potential,
    /// `O(coins log coins)`.
    pub fn rpu_list(&self) -> Vec<(Extended, CoinId)> {
        self.tracker.rpu_list()
    }

    /// Materializes the full improving-move list (`O(groups × coins)`
    /// plus output size). Compatibility path for schedulers that have not
    /// adopted the incremental protocol; the bundled schedulers never
    /// call it.
    pub fn improving_moves(&self) -> Vec<Move> {
        self.tracker.improving_moves()
    }

    // ------------------------------------------------------------------
    // Decision cache
    // ------------------------------------------------------------------

    fn set_decision(&mut self, gid: u32, dec: Option<CoinId>) {
        let old = std::mem::replace(&mut self.cache[gid as usize], Cached::Decision(dec));
        if matches!(old, Cached::Decision(Some(_))) {
            self.unstable -= 1;
        }
        if dec.is_some() {
            self.unstable += 1;
        }
    }

    fn mark_stale(&mut self, gid: u32) {
        let old = std::mem::replace(&mut self.cache[gid as usize], Cached::Stale);
        match old {
            Cached::Stale => return, // already queued
            Cached::Decision(Some(_)) => self.unstable -= 1,
            Cached::Decision(None) => {}
        }
        self.dirty.push_back(gid);
    }

    /// Re-probes group `gid` from scratch: `O(coins)`.
    fn recompute(&mut self, gid: u32) {
        let dec = self
            .tracker
            .min_member(gid)
            .and_then(|rep| self.tracker.best_response(rep));
        self.set_decision(gid, dec);
    }

    /// Drains the dirty-group queue so every cached decision is current.
    fn revalidate(&mut self) {
        while let Some(gid) = self.dirty.pop_front() {
            if self.cache[gid as usize] == Cached::Stale {
                self.recompute(gid);
            }
        }
    }

    /// The cached best response of group `gid`, probing if stale.
    fn decision(&mut self, gid: u32) -> Option<CoinId> {
        if self.cache[gid as usize] == Cached::Stale {
            self.recompute(gid);
        }
        match self.cache[gid as usize] {
            Cached::Decision(dec) => dec,
            Cached::Stale => unreachable!("recompute resolves staleness"),
        }
    }

    // ------------------------------------------------------------------
    // The scheduler protocol
    // ------------------------------------------------------------------

    /// Whether the configuration is stable. Amortized by the decision
    /// cache: only dirty groups are re-probed.
    pub fn is_stable(&mut self) -> bool {
        self.revalidate();
        self.unstable == 0
    }

    /// Miner `p`'s best-response move, or `None` if `p` is stable (a
    /// dormant miner is always stable). `O(coins)` on a dirty group,
    /// `O(1)` on a warm one.
    pub fn improving_move_for(&mut self, p: MinerId) -> Option<Move> {
        if !self.tracker.is_miner_active(p) {
            return None;
        }
        let gid = self.tracker.gid_of(p);
        let to = self.decision(gid)?;
        Some(Move {
            miner: p,
            from: self.tracker.coin_of(p),
            to,
        })
    }

    /// The smallest unstable miner id `≥ start`, or `None`. Cost
    /// `O(groups × log miners)` after revalidation — the round-robin
    /// successor query.
    pub fn next_unstable(&mut self, start: MinerId) -> Option<MinerId> {
        self.revalidate();
        let mut best: Option<MinerId> = None;
        for gid in 0..self.cache.len() {
            if !matches!(self.cache[gid], Cached::Decision(Some(_))) {
                continue;
            }
            if let Some(p) = self.tracker.successor_member(gid as u32, start) {
                if best.is_none_or(|b| p < b) {
                    best = Some(p);
                }
            }
        }
        best
    }

    /// The unstable miners in id order (exactly
    /// [`Game::unstable_miners`]). `O(miners)` output scan over cached
    /// group decisions.
    pub fn unstable_miners(&mut self) -> Vec<MinerId> {
        self.revalidate();
        let mut out = Vec::new();
        for p in self.tracker.game().system().miner_ids() {
            if !self.tracker.is_miner_active(p) {
                continue;
            }
            let gid = self.tracker.gid_of(p);
            if matches!(self.cache[gid as usize], Cached::Decision(Some(_))) {
                out.push(p);
            }
        }
        out
    }

    /// The improving move with the extremal payoff gain — ties to the
    /// smallest miner id, then the smallest coin id, matching an eager
    /// first-strict-winner scan of the miner-major move list.
    /// `O(groups × coins)` after revalidation.
    pub fn extremal_gain_move(&mut self, extremum: Extremum) -> Option<Move> {
        self.revalidate();
        let mut best: Option<(Ratio, MinerId, CoinId, CoinId)> = None;
        for gid in 0..self.cache.len() as u32 {
            let Cached::Decision(Some(br)) = self.cache[gid as usize] else {
                continue;
            };
            let rep = self
                .tracker
                .min_member(gid)
                .expect("unstable groups are nonempty");
            let from = self.tracker.coin_of(rep);
            let to = match extremum {
                // The max-gain target IS the best response (gain is a
                // positive multiple of the post-move RPU; same argmax,
                // same lowest-coin tie-break).
                Extremum::Max => br,
                // The min-gain target needs its own O(coins) scan.
                Extremum::Min => self.min_gain_target(rep, from),
            };
            let gain = self.tracker.gain(rep, to);
            let wins = match &best {
                None => true,
                Some((g, p, _, _)) => {
                    let strictly = match extremum {
                        Extremum::Max => gain > *g,
                        Extremum::Min => gain < *g,
                    };
                    strictly || (gain == *g && rep < *p)
                }
            };
            if wins {
                best = Some((gain, rep, from, to));
            }
        }
        best.map(|(_, miner, from, to)| Move { miner, from, to })
    }

    /// The smallest-RPU improving target of `p` (lowest coin id on ties).
    fn min_gain_target(&self, p: MinerId, from: CoinId) -> CoinId {
        let game = self.tracker.game();
        let masses = self.tracker.masses();
        let current = game.rpu_after_join(p, from, from, masses);
        let mut best: Option<(Ratio, CoinId)> = None;
        for c in game.system().coin_ids() {
            if c == from || !self.tracker.is_coin_active(c) || !game.allowed(p, c) {
                continue;
            }
            let v = game.rpu_after_join(p, c, from, masses);
            if v > current && best.is_none_or(|(b, _)| v < b) {
                best = Some((v, c));
            }
        }
        best.expect("caller established the group is unstable").1
    }

    /// The best response of the extremal-power unstable miner — ties to
    /// the smallest miner id. `O(groups × log miners)` after
    /// revalidation.
    pub fn extremal_power_move(&mut self, extremum: Extremum) -> Option<Move> {
        self.revalidate();
        let mut best: Option<(u64, MinerId, CoinId)> = None;
        for gid in 0..self.cache.len() as u32 {
            let Cached::Decision(Some(br)) = self.cache[gid as usize] else {
                continue;
            };
            let rep = self
                .tracker
                .min_member(gid)
                .expect("unstable groups are nonempty");
            let power = self.tracker.game().system().power_of(rep);
            let wins = match &best {
                None => true,
                Some((w, p, _)) => {
                    let strictly = match extremum {
                        Extremum::Max => power > *w,
                        Extremum::Min => power < *w,
                    };
                    strictly || (power == *w && rep < *p)
                }
            };
            if wins {
                best = Some((power, rep, br));
            }
        }
        best.map(|(_, miner, to)| Move {
            miner,
            from: self.tracker.coin_of(miner),
            to,
        })
    }

    /// Draws one improving move uniformly at random (one `gen_range` call
    /// over the exact improving-move count), executed by the smallest-id
    /// member of the drawn strategic class. Classes are enumerated in
    /// canonical `(coin, power, restriction)` key order so an eager
    /// implementation can reproduce the draw from the flat move list.
    /// Returns `None` — consuming no randomness — when stable.
    /// `O(groups × coins)` after revalidation.
    pub fn sample_improving<R: Rng>(&mut self, rng: &mut R) -> Option<Move> {
        self.revalidate();
        let mut scratch: Vec<(MinerId, CoinId, usize, Vec<CoinId>)> = Vec::new();
        let mut total = 0usize;
        let classes: Vec<(u32, u32)> = self
            .tracker
            .classes()
            .map(|((coin, _, _), gid)| (coin, gid))
            .collect();
        for (coin, gid) in classes {
            if !matches!(self.cache[gid as usize], Cached::Decision(Some(_))) {
                continue;
            }
            let rep = self
                .tracker
                .min_member(gid)
                .expect("unstable groups are nonempty");
            let count = self.tracker.member_count(gid);
            let targets = self.tracker.better_responses(rep);
            total += count * targets.len();
            scratch.push((rep, CoinId(coin as usize), count * targets.len(), targets));
        }
        if total == 0 {
            return None;
        }
        let mut r = rng.gen_range(0..total);
        for (miner, from, weight, targets) in scratch {
            if r < weight {
                return Some(Move {
                    miner,
                    from,
                    to: targets[r % targets.len()],
                });
            }
            r -= weight;
        }
        unreachable!("r < total by construction")
    }

    // ------------------------------------------------------------------
    // Mutation
    // ------------------------------------------------------------------

    /// Moves `p` to `to` through the tracker and repairs the decision
    /// cache: a full re-probe is queued only for the groups keyed to the
    /// two touched coins; every other group gets an `O(1)` touch-up.
    ///
    /// # Panics
    ///
    /// Panics if `p` or `to` is out of range for the game's system, or
    /// illegal under the current activity state (see
    /// [`MassTracker::apply`]).
    pub fn apply(&mut self, p: MinerId, to: CoinId) -> Move {
        let mv = self.tracker.apply(p, to);
        if mv.from != mv.to {
            self.after_shift(Some(mv.from), Some(mv.to));
        }
        mv
    }

    /// Applies one churn [`Delta`] through the tracker (see
    /// [`MassTracker::apply_delta`]) and repairs the decision cache:
    ///
    /// * **move**: re-probe queued for the groups keyed to the two
    ///   touched coins, `O(1)` touch-up elsewhere;
    /// * **insert/remove**: re-probe keyed to the single touched coin
    ///   (membership and payoff changed there); the one-sided touch-up
    ///   elsewhere — an insertion only made its coin *less* attractive, a
    ///   removal only made its coin *more* attractive;
    /// * **launch**: the new coin is the only thing that became
    ///   attractive, so the vacated-style `O(1)` touch-up suffices;
    /// * **retire**: decisions pointing at the dead coin are invalidated,
    ///   groups keyed to it are re-probed, and each forced relocation is
    ///   repaired like a move.
    ///
    /// # Errors
    ///
    /// Propagates [`MassTracker::apply_delta`] errors (the cache is
    /// untouched on failure).
    pub fn apply_delta(&mut self, delta: Delta) -> Result<AppliedDelta, GameError> {
        let applied = self.tracker.apply_delta(delta)?;
        self.repair(&applied, false);
        Ok(applied)
    }

    /// Reverts the most recent un-undone [`MoveSource::apply`] (see
    /// [`MassTracker::undo`]), repairing the cache symmetrically.
    ///
    /// # Panics
    ///
    /// Panics if the most recent delta is not a move — mixed histories
    /// rewind through [`MoveSource::undo_delta`].
    pub fn undo(&mut self) -> Option<Move> {
        let mv = self.tracker.undo()?;
        if mv.from != mv.to {
            // In reverse, the mover vacates `to` and rejoins `from`.
            self.after_shift(Some(mv.to), Some(mv.from));
        }
        Some(mv)
    }

    /// Reverts the most recent un-undone [`MoveSource::apply_delta`] (see
    /// [`MassTracker::undo_delta`]), repairing the cache symmetrically.
    pub fn undo_delta(&mut self) -> Option<AppliedDelta> {
        let applied = self.tracker.undo_delta()?;
        self.repair(&applied, true);
        Some(applied)
    }

    /// Repairs the cache after `applied` ran forwards (`reverse = false`)
    /// or was undone (`reverse = true`). The tracker has already
    /// transitioned; repair reads its *current* state.
    fn repair(&mut self, applied: &AppliedDelta, reverse: bool) {
        match applied {
            AppliedDelta::Move(mv) => {
                if mv.from != mv.to {
                    if reverse {
                        self.after_shift(Some(mv.to), Some(mv.from));
                    } else {
                        self.after_shift(Some(mv.from), Some(mv.to));
                    }
                }
            }
            AppliedDelta::InsertMiner { coin, .. } => {
                if reverse {
                    // Undoing an insertion is a removal: `coin` lost mass.
                    self.after_shift(Some(*coin), None);
                } else {
                    self.after_shift(None, Some(*coin));
                }
            }
            AppliedDelta::RemoveMiner { coin, .. } => {
                if reverse {
                    self.after_shift(None, Some(*coin));
                } else {
                    self.after_shift(Some(*coin), None);
                }
            }
            AppliedDelta::LaunchCoin { coin } => {
                if reverse {
                    // The coin vanished again: nothing elsewhere changed
                    // mass, but any decision pointing at it is dead.
                    self.invalidate_decisions_to(*coin);
                    self.mark_coin_groups_stale(*coin);
                } else {
                    // A fresh empty coin is the only thing that became
                    // attractive — exactly the vacated-coin touch-up.
                    self.after_shift(Some(*coin), None);
                }
            }
            AppliedDelta::RetireCoin { coin, relocations } => {
                if reverse {
                    // The coin is live again and every relocation was
                    // walked back: repair each reversed move, then treat
                    // the re-launched coin as newly attractive.
                    for mv in relocations.iter().rev() {
                        self.after_shift(Some(mv.to), Some(mv.from));
                    }
                    self.after_shift(Some(*coin), None);
                } else {
                    // Decisions pointing at the dead coin are invalid no
                    // matter what the touch-up logic thinks of its mass.
                    self.invalidate_decisions_to(*coin);
                    for mv in relocations {
                        self.after_shift(Some(mv.from), Some(mv.to));
                    }
                    self.mark_coin_groups_stale(*coin);
                }
            }
        }
    }

    /// Grows the cache to cover groups minted by the latest transition
    /// (born dirty).
    fn grow_cache(&mut self) {
        while self.cache.len() < self.tracker.group_count() {
            self.cache.push(Cached::Stale);
            self.dirty.push_back(self.cache.len() as u32 - 1);
        }
    }

    /// Queues a re-probe for every class keyed to `c`.
    fn mark_coin_groups_stale(&mut self, c: CoinId) {
        let touched: Vec<u32> = self.tracker.gids_on(c).collect();
        for gid in touched {
            self.mark_stale(gid);
        }
    }

    /// Queues a re-probe for every group whose cached best response is
    /// `c` (used when `c` stops being a legal target).
    fn invalidate_decisions_to(&mut self, c: CoinId) {
        for gid in 0..self.cache.len() as u32 {
            if self.cache[gid as usize] == Cached::Decision(Some(c)) {
                self.mark_stale(gid);
            }
        }
    }

    /// Cache repair after mass left `vacated` and/or joined `joined`
    /// (population deltas touch a single coin, so either side may be
    /// absent).
    fn after_shift(&mut self, vacated: Option<CoinId>, joined: Option<CoinId>) {
        // The transition may have minted a brand-new group (first visit
        // to a (coin, power) class): grow the cache, born dirty.
        self.grow_cache();
        // Full re-probe for the classes keyed to the touched coins (their
        // own payoff changed; membership of the mover's groups changed).
        for c in [vacated, joined].into_iter().flatten() {
            self.mark_coin_groups_stale(c);
        }
        // O(1) touch-up for every other group: `vacated` lost mass (or
        // newly launched), so it is the only coin that became more
        // attractive; `joined` got strictly worse, which only matters
        // where it was the cached best.
        for gid in 0..self.cache.len() {
            let Cached::Decision(dec) = self.cache[gid] else {
                continue;
            };
            let Some(rep) = self.tracker.min_member(gid as u32) else {
                continue;
            };
            let game = self.tracker.game();
            let own = self.tracker.coin_of(rep);
            debug_assert!(
                Some(own) != vacated && Some(own) != joined,
                "touched groups are stale"
            );
            if let Some(joined) = joined {
                if dec == Some(joined) {
                    // The cached best got worse; nothing cheaper than a
                    // re-probe decides what replaces it.
                    self.mark_stale(gid as u32);
                    continue;
                }
            }
            let Some(vacated) = vacated else { continue };
            if !self.tracker.is_coin_active(vacated) || !game.allowed(rep, vacated) {
                continue;
            }
            let masses = self.tracker.masses();
            match dec {
                None => {
                    // Stable: only `vacated` can now beat the (unchanged)
                    // current payoff — and then it is the unique best.
                    let current = game.rpu_after_join(rep, own, own, masses);
                    if game.rpu_after_join(rep, vacated, own, masses) > current {
                        self.set_decision(gid as u32, Some(vacated));
                    }
                }
                Some(b) if b == vacated => {
                    // The cached best only improved; still the unique max.
                }
                Some(b) => {
                    // Unchanged best unless `vacated` now beats it (or
                    // ties with a smaller coin id).
                    let v = game.rpu_after_join(rep, vacated, own, masses);
                    let v_b = game.rpu_after_join(rep, b, own, masses);
                    if v > v_b || (v == v_b && vacated < b) {
                        self.set_decision(gid as u32, Some(vacated));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(game: &Game, coins: &[usize]) -> Configuration {
        Configuration::new(coins.iter().map(|&c| CoinId(c)).collect(), game.system()).unwrap()
    }

    /// Naive oracle for every protocol query, recomputed from scratch.
    fn assert_matches_oracle(src: &mut MoveSource<'_>) {
        let game = src.game().clone();
        let s = src.config().clone();
        let masses = s.masses(game.system());
        assert_eq!(src.is_stable(), game.is_stable(&s));
        assert_eq!(src.unstable_miners(), game.unstable_miners(&s));
        for p in game.system().miner_ids() {
            let expected = game.best_response(p, &s, &masses).map(|to| Move {
                miner: p,
                from: s.coin_of(p),
                to,
            });
            assert_eq!(src.improving_move_for(p), expected, "{p} in {s}");
        }
    }

    #[test]
    fn decisions_track_arbitrary_move_sequences() {
        let game = Game::build(&[5, 3, 3, 2, 1], &[9, 4, 2]).unwrap();
        let start = cfg(&game, &[0, 0, 1, 2, 0]);
        let mut src = MoveSource::new(&game, &start).unwrap();
        assert_matches_oracle(&mut src);
        let moves = [
            (MinerId(0), CoinId(1)),
            (MinerId(4), CoinId(2)),
            (MinerId(2), CoinId(0)),
            (MinerId(2), CoinId(0)), // same-coin no-op
            (MinerId(0), CoinId(0)),
        ];
        for (p, c) in moves {
            src.apply(p, c);
            assert_matches_oracle(&mut src);
        }
        while src.undo().is_some() {
            assert_matches_oracle(&mut src);
        }
        assert_eq!(src.config(), &start);
    }

    #[test]
    fn extremal_gain_matches_eager_scan() {
        let game = Game::build(&[8, 5, 3, 2, 1, 1], &[9, 6, 2]).unwrap();
        let mut s = Configuration::uniform(CoinId(0), game.system()).unwrap();
        let mut src = MoveSource::new(&game, &s).unwrap();
        for _ in 0..64 {
            let moves = game.improving_moves(&s);
            if moves.is_empty() {
                assert!(src.is_stable());
                break;
            }
            let masses = s.masses(game.system());
            // Eager first-strict-winner scans of the miner-major list.
            let eager = |max: bool| {
                let mut best: Option<(Ratio, Move)> = None;
                for &mv in &moves {
                    let g = game.gain(mv.miner, mv.to, &s, &masses);
                    let wins = match &best {
                        None => true,
                        Some((b, _)) => {
                            if max {
                                g > *b
                            } else {
                                g < *b
                            }
                        }
                    };
                    if wins {
                        best = Some((g, mv));
                    }
                }
                best.unwrap().1
            };
            assert_eq!(src.extremal_gain_move(Extremum::Max), Some(eager(true)));
            assert_eq!(src.extremal_gain_move(Extremum::Min), Some(eager(false)));
            let mv = src.extremal_gain_move(Extremum::Min).unwrap();
            src.apply(mv.miner, mv.to);
            s.apply_move(mv.miner, mv.to);
        }
    }

    #[test]
    fn next_unstable_wraps_the_population() {
        let game = Game::build(&[1; 6], &[3, 3]).unwrap();
        let start = Configuration::uniform(CoinId(0), game.system()).unwrap();
        let mut src = MoveSource::new(&game, &start).unwrap();
        // Everyone is unstable at the clumped start.
        assert_eq!(src.next_unstable(MinerId(0)), Some(MinerId(0)));
        assert_eq!(src.next_unstable(MinerId(4)), Some(MinerId(4)));
        assert_eq!(src.next_unstable(MinerId(6)), None);
        let mv = src.improving_move_for(MinerId(3)).unwrap();
        src.apply(mv.miner, mv.to);
        // 3 on 3 is an equilibrium split for 6 unit miners… not yet: one
        // mover leaves 5 vs 1; the 5-side miners still want to move.
        assert!(src.next_unstable(MinerId(0)).is_some());
    }

    #[test]
    fn sampling_is_uniform_over_class_weights() {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        // Two classes: five unit miners on c0 (each with 1 target) and
        // one power-2 miner on c0 (1 target) — weights 5 and 1.
        let game = Game::build(&[1, 1, 1, 1, 1, 2], &[4, 4]).unwrap();
        let start = Configuration::uniform(CoinId(0), game.system()).unwrap();
        let mut src = MoveSource::new(&game, &start).unwrap();
        let mut rng = SmallRng::seed_from_u64(17);
        let mut unit = 0usize;
        let mut heavy = 0usize;
        for _ in 0..600 {
            let mv = src.sample_improving(&mut rng).unwrap();
            assert!(src.is_better_response(mv.miner, mv.to));
            if mv.miner == MinerId(5) {
                heavy += 1;
            } else {
                assert_eq!(mv.miner, MinerId(0), "min-id member executes the draw");
                unit += 1;
            }
        }
        // Expected 5:1 split; allow generous slack.
        assert!(unit > 400 && heavy > 40, "unit={unit} heavy={heavy}");
    }

    #[test]
    fn stable_source_yields_no_moves_and_no_draws() {
        struct CountingRng(u64, usize);
        impl rand::RngCore for CountingRng {
            fn next_u32(&mut self) -> u32 {
                self.next_u64() as u32
            }
            fn next_u64(&mut self) -> u64 {
                self.1 += 1;
                self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1);
                self.0
            }
        }
        let game = Game::build(&[2, 1], &[1, 1]).unwrap();
        let stable = cfg(&game, &[0, 1]);
        let mut src = MoveSource::new(&game, &stable).unwrap();
        assert!(src.is_stable());
        assert_eq!(src.extremal_gain_move(Extremum::Max), None);
        assert_eq!(src.extremal_power_move(Extremum::Min), None);
        let mut rng = CountingRng(9, 0);
        assert_eq!(src.sample_improving(&mut rng), None);
        assert_eq!(rng.1, 0, "a stable source must not consume randomness");
    }

    /// Naive oracle for a churned source: project the active subgame and
    /// recompute every decision from scratch.
    fn assert_matches_subgame_oracle(src: &mut MoveSource<'_>) {
        let sub = src.tracker().active_subgame().expect("active population");
        let masses = sub.config.masses(sub.game.system());
        assert_eq!(src.is_stable(), sub.game.is_stable(&sub.config));
        // Map the dense oracle's unstable set back into universe ids.
        let expected_unstable: Vec<MinerId> = sub
            .game
            .unstable_miners(&sub.config)
            .into_iter()
            .map(|p| sub.miners[p.index()])
            .collect();
        assert_eq!(src.unstable_miners(), expected_unstable);
        for (dense, &p) in sub.miners.iter().enumerate() {
            let expected = sub
                .game
                .best_response(MinerId(dense), &sub.config, &masses)
                .map(|to| Move {
                    miner: p,
                    from: sub.coins[sub.config.coin_of(MinerId(dense)).index()],
                    to: sub.coins[to.index()],
                });
            assert_eq!(src.improving_move_for(p), expected, "{p}");
        }
    }

    #[test]
    fn decision_cache_survives_population_deltas() {
        use crate::delta::Delta;
        let game = Game::build(&[5, 3, 3, 2, 1], &[9, 4, 2]).unwrap();
        let start = cfg(&game, &[0, 0, 1, 2, 0]);
        let mut src = MoveSource::new(&game, &start).unwrap();
        assert_matches_subgame_oracle(&mut src);
        let deltas = [
            Delta::RemoveMiner { miner: MinerId(3) },
            Delta::Move {
                miner: MinerId(4),
                to: CoinId(2),
            },
            Delta::RetireCoin { coin: CoinId(1) },
            Delta::InsertMiner {
                miner: MinerId(3),
                coin: None,
            },
            Delta::LaunchCoin { coin: CoinId(1) },
            Delta::Move {
                miner: MinerId(0),
                to: CoinId(1),
            },
            Delta::RemoveMiner { miner: MinerId(0) },
        ];
        for delta in deltas {
            src.apply_delta(delta)
                .unwrap_or_else(|e| panic!("{delta}: {e}"));
            assert_matches_subgame_oracle(&mut src);
        }
        while src.undo_delta().is_some() {
            assert_matches_subgame_oracle(&mut src);
        }
        assert_eq!(src.config(), &start);
        assert_eq!(src.tracker().active_miner_count(), 5);
    }

    #[test]
    fn launch_attracts_and_retire_repels_cached_decisions() {
        use crate::delta::Delta;
        // Two heavy miners split over two coins; a dormant high-reward
        // coin launches and must displace cached stable decisions.
        let game = Game::build(&[4, 4], &[4, 4, 9]).unwrap();
        let start = cfg(&game, &[0, 1]);
        let mut src = MoveSource::over(
            MassTracker::with_activity(&game, &start, &[true, true], &[true, true, false]).unwrap(),
        );
        assert!(src.is_stable());
        src.apply_delta(Delta::LaunchCoin { coin: CoinId(2) })
            .unwrap();
        // 9/(4+4) > 4/4: both groups now want the fresh coin.
        assert!(!src.is_stable());
        let mv = src.improving_move_for(MinerId(0)).unwrap();
        assert_eq!(mv.to, CoinId(2));
        src.apply(mv.miner, mv.to);
        // Retiring the new coin forces p0 home and must clear every
        // cached decision that pointed at it.
        src.apply_delta(Delta::RetireCoin { coin: CoinId(2) })
            .unwrap();
        assert!(src.is_stable());
        assert_eq!(src.config().coin_of(MinerId(0)), CoinId(0));
        assert_matches_subgame_oracle(&mut src);
    }

    #[test]
    fn restricted_games_degenerate_to_singleton_groups() {
        let game = Game::build(&[1, 1], &[2, 2])
            .unwrap()
            .with_restrictions(vec![vec![true, false], vec![true, true]])
            .unwrap();
        let start = Configuration::uniform(CoinId(0), game.system()).unwrap();
        let mut src = MoveSource::new(&game, &start).unwrap();
        assert_eq!(src.improving_move_for(MinerId(0)), None);
        let mv = src.improving_move_for(MinerId(1)).unwrap();
        assert_eq!(mv.to, CoinId(1));
        src.apply(mv.miner, mv.to);
        assert!(src.is_stable());
    }
}
