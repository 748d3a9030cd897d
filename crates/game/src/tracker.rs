//! Incremental game state for large populations.
//!
//! Every query on [`Game`] ([`Game::better_responses`],
//! [`crate::potential::rpu_list`], [`crate::potential::symmetric_potential`],
//! …) recomputes the per-coin mass table from the full miner vector, which
//! costs `O(miners)` before the `O(coins)` question is even asked. That is
//! fine for the paper's toy games and hopeless for 100k-miner populations.
//!
//! [`MassTracker`] is the incremental counterpart: it owns a configuration
//! and maintains, under single-delta transitions
//! ([`MassTracker::apply_delta`] / [`MassTracker::undo_delta`], with the
//! classic [`MassTracker::apply`] / [`MassTracker::undo`] as the move-only
//! shorthand),
//!
//! * the per-coin mass table `M_c(s)` — `O(1)` per move,
//! * a **group index** partitioning the *active* miners into strategic
//!   equivalence classes (same coin, same power, same coin restrictions).
//!   All members of a group share payoff, better-response set, and
//!   stability, so whole-population questions ([`MassTracker::is_stable`],
//!   [`MassTracker::find_improving_move`]) cost `O(groups × coins)`
//!   instead of `O(miners × coins)`. With cohort-structured populations
//!   (few distinct hashrate classes) `groups ≪ miners`.
//! * an **activity mask** over the declared miner/coin universe (the
//!   [`crate::delta`] churn device): dormant miners carry no mass and
//!   belong to no group; retired or unlaunched coins are not legal
//!   targets and drop out of every potential. The four population deltas
//!   ([`crate::Delta::InsertMiner`], [`crate::Delta::RemoveMiner`],
//!   [`crate::Delta::LaunchCoin`], [`crate::Delta::RetireCoin`]) splice
//!   the group index and patch masses/payoffs in an `O(log groups)` key
//!   lookup plus an `O(log runs + RUN_CAP)` run edit — plus
//!   `O(residents × coins)` for a retirement's forced relocations —
//!   with **no rebuild**.
//!
//! The group index is flat, not a tree: each class's members live in
//! bounded sorted runs of `u32` ids (fewer than `RUN_CAP = 128` each),
//! kept in fixed blocks of one slab per class behind a directory of run
//! maxima, and class keys sit in a single sorted vec resolved by binary
//! search. Every step of the dynamics inserts the
//! mover into the middle of its new class and removes it from the middle
//! of its old one; in runs each edit shifts one run, `O(log runs +
//! RUN_CAP)`, where one sorted vector per class cost an `O(members)`
//! memmove (about 25 KB per step on a 100k-miner, 24-class population).
//! The minimum member is the first run's head, `O(1)`. The layout is
//! deliberately *not* part of the API: accessors expose iterators
//! ([`MassTracker::members_of`]), `Option<MinerId>`
//! ([`MassTracker::min_member`], [`MassTracker::successor_member`]) and
//! counts ([`MassTracker::member_count`]) — never a collection type — so
//! the layout can change again without touching a caller, and CI greps
//! this file to keep std collections out of the hot path.
//!
//! Per-miner queries ([`MassTracker::payoff`],
//! [`MassTracker::better_responses`], [`MassTracker::rpu_list`],
//! [`MassTracker::symmetric_potential`]) therefore evaluate in `O(coins)`
//! (or `O(coins log coins)` for the sorted list) per step.
//!
//! The unit of that `O(coins)` is one exact payoff comparison. Best
//! responses, better-response tests and forced placements never reduce
//! a post-join RPU `F(c) / (M_c + m_p)` to a [`Ratio`] (two `u128` gcds);
//! they compare the unreduced values by cross-multiplication, falling
//! back to the reduced order only on `u128` overflow, so order and ties
//! are exactly those of the reduced values [`Game`] still hands out for
//! gains and audits. CI rejects a reduced-RPU call in this file unless it
//! carries an `// allow-reduced:` note.
//!
//! The naive recompute-from-scratch path on [`Game`] remains the **test
//! oracle**: with the whole universe active it is consulted directly, and
//! under churn [`MassTracker::active_subgame`] projects the active
//! population into a dense game the naive path evaluates. The property
//! suites in `crates/game/tests` assert exact agreement on random games,
//! random interleaved delta sequences, and apply/undo round-trips.
//!
//! # Examples
//!
//! ```
//! use goc_game::{CoinId, Configuration, Delta, Game, MassTracker, MinerId};
//!
//! let game = Game::build(&[2, 1], &[1, 1])?;
//! let start = Configuration::uniform(CoinId(0), game.system())?;
//! let mut tracker = MassTracker::new(&game, &start)?;
//! assert_eq!(tracker.best_response(MinerId(1)), Some(CoinId(1)));
//!
//! let mv = tracker.apply(MinerId(1), CoinId(1));
//! assert!(tracker.is_stable());
//! tracker.undo();
//! assert_eq!(tracker.config(), &start);
//! assert_eq!(mv.from, CoinId(0));
//!
//! // Population churn is a first-class delta: p1 goes offline …
//! tracker.apply_delta(Delta::RemoveMiner { miner: MinerId(1) })?;
//! assert_eq!(tracker.active_miner_count(), 1);
//! // … and comes back, placed by best response onto the empty coin.
//! tracker.apply_delta(Delta::InsertMiner { miner: MinerId(1), coin: None })?;
//! assert_eq!(tracker.coin_of(MinerId(1)), CoinId(1));
//! # Ok::<(), goc_game::GameError>(())
//! ```

use std::collections::BTreeMap; // allow-collection: build-local key probe in `with_activity`

use crate::config::{Configuration, Masses};
use crate::delta::{AppliedDelta, Delta};
use crate::error::GameError;
use crate::game::{Game, JoinRpu, Move, Rewards};
use crate::ids::{CoinId, MinerId};
use crate::ratio::{Extended, Ratio};
use crate::system::System;

/// Slots per run block; a run that fills its block splits in half.
/// Every membership edit shifts at most one run, so an edit costs
/// `O(log runs + RUN_CAP)` however large the group is; the directory
/// itself shifts only when a run splits or merges.
const RUN_CAP: usize = 128;

/// Ids per run of a bulk-loaded group: one short of the cap, the
/// densest load that does not split at once. A group then splits only
/// the runs its edits reach.
const LOAD_FILL: usize = RUN_CAP - 1;

/// A run shorter than this after a removal merges with a neighbour (or,
/// when the two do not fit one block, rebalances with it), so a group of
/// `m` members never spreads over more than about `4m / RUN_CAP + 1`
/// runs.
const RUN_MIN: usize = RUN_CAP / 4;

/// The miner id as stored in a run. Miner counts are bounded far below
/// `u32::MAX` by the per-miner tables every tracker allocates.
fn id32(p: MinerId) -> u32 {
    u32::try_from(p.index()).expect("miner ids fit in u32")
}

/// A run's directory entry: its largest id, its block, its length.
#[derive(Debug, Clone, Copy)]
struct Run {
    max: u32,
    block: u32,
    len: u32,
}

impl Run {
    /// Slab index of the run's first slot.
    fn base(self) -> usize {
        self.block as usize * RUN_CAP
    }
}

/// One group's member storage: the members in ascending id order, cut
/// into bounded sorted runs of `u32` ids. Runs live in fixed blocks of
/// [`RUN_CAP`] slots of one slab, and a directory lists them in id order
/// with each run's maximum for binary search. The minimum is the first
/// run's head, `O(1)`; a successor query is a binary search over the
/// run maxima and then one inside a run; an insert or remove shifts the
/// tail of one run. A single sorted vector would make the two mid-group
/// edits the dynamics perform every step — inserting a mover into its
/// new group and removing the round-robin pick from its old one — an
/// `O(members)` memmove. One slab per group keeps a group to a handful
/// of allocations however many runs it has.
#[derive(Debug, Clone, Default)]
struct MemberRuns {
    /// Run storage, `RUN_CAP` slots per block. Every block but the last
    /// is whole; the last holds only the slots written so far, so a small
    /// group holds no unused block tail.
    slab: Vec<u32>,
    /// The non-empty runs, ascending by id.
    dir: Vec<Run>,
    /// Blocks that hold no run.
    free: Vec<u32>,
    len: usize,
}

impl MemberRuns {
    /// Appends `p`, which must exceed every member, during a bulk load
    /// into a fresh group: blocks are handed out in order, each filled to
    /// [`LOAD_FILL`] ids. [`MemberRuns::seal`] then writes the directory.
    fn push_max(&mut self, p: MinerId) {
        let q = id32(p);
        debug_assert!(
            self.free.is_empty() && self.slab.last().is_none_or(|&last| last < q),
            "bulk loads append ascending ids to a fresh group"
        );
        if self.slab.len() % RUN_CAP == LOAD_FILL {
            self.slab
                .resize(self.slab.len().next_multiple_of(RUN_CAP), 0);
        }
        self.slab.push(q);
        self.len += 1;
    }

    /// Ends a bulk load: one directory entry per loaded block.
    fn seal(&mut self) {
        self.dir = (0..self.len.div_ceil(LOAD_FILL))
            .map(|block| {
                let len = LOAD_FILL.min(self.len - block * LOAD_FILL);
                Run {
                    max: self.slab[block * RUN_CAP + len - 1],
                    block: block as u32,
                    len: len as u32,
                }
            })
            .collect();
    }

    /// A block for a new run: a free one, or a new one past the end of
    /// the slab (whose short last block is filled out first).
    fn alloc_block(&mut self) -> u32 {
        self.free.pop().unwrap_or_else(|| {
            let blocks = self.slab.len().div_ceil(RUN_CAP);
            self.slab.resize(blocks * RUN_CAP, 0);
            blocks as u32
        })
    }

    /// Grows the slab's short last block so that slots `..end` exist.
    fn reach(slab: &mut Vec<u32>, end: usize) {
        if slab.len() < end {
            slab.resize(end, 0);
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn run(&self, run: Run) -> &[u32] {
        &self.slab[run.base()..run.base() + run.len as usize]
    }

    /// The members, ascending by id.
    fn iter(&self) -> impl Iterator<Item = MinerId> + '_ {
        self.dir
            .iter()
            .flat_map(|&run| self.run(run))
            .map(|&q| MinerId(q as usize))
    }

    fn first(&self) -> Option<MinerId> {
        self.dir
            .first()
            .map(|run| MinerId(self.slab[run.base()] as usize))
    }

    /// Index of the first run whose maximum is `≥ q` (`dir.len()` when
    /// `q` exceeds every member).
    fn run_at(&self, q: u32) -> usize {
        self.dir.partition_point(|run| run.max < q)
    }

    /// Inserts `p` (not already present).
    fn insert(&mut self, p: MinerId) {
        let q = id32(p);
        self.len += 1;
        // An id above every member extends the last run.
        let r = match self.dir.len() {
            0 => {
                let block = self.alloc_block();
                self.dir.push(Run {
                    max: q,
                    block,
                    len: 0,
                });
                0
            }
            runs => self.run_at(q).min(runs - 1),
        };
        let run = self.dir[r];
        let at = self.run(run).partition_point(|&x| x < q);
        debug_assert!(self.run(run).get(at) != Some(&q), "{p} already a member");
        let (base, end) = (run.base(), run.base() + run.len as usize);
        Self::reach(&mut self.slab, end + 1);
        self.slab.copy_within(base + at..end, base + at + 1);
        self.slab[base + at] = q;
        let run = &mut self.dir[r];
        run.len += 1;
        run.max = run.max.max(q);
        if run.len as usize == RUN_CAP {
            self.split(r);
        }
    }

    /// Removes member `p`.
    fn remove(&mut self, p: MinerId) {
        let q = id32(p);
        let r = self.run_at(q);
        debug_assert!(r < self.dir.len(), "{p} is not a member");
        let run = self.dir[r];
        let at = self.run(run).partition_point(|&x| x < q);
        debug_assert_eq!(self.run(run).get(at), Some(&q), "{p} is not a member");
        let (base, end) = (run.base(), run.base() + run.len as usize);
        self.slab.copy_within(base + at + 1..end, base + at);
        self.len -= 1;
        if self.len == 0 {
            // An emptied group keeps at most one block of storage: classes
            // that empty and refill on every move (a restricted game's
            // single-miner classes) do not reallocate, and a drained large
            // class does not pin its slab.
            if self.slab.capacity() > RUN_CAP {
                *self = MemberRuns::default();
            } else {
                self.slab.clear();
                self.dir.clear();
                self.free.clear();
            }
            return;
        }
        let run = &mut self.dir[r];
        run.len -= 1;
        if run.len == 0 {
            self.free.push(run.block);
            self.dir.remove(r);
            return;
        }
        run.max = self.slab[end - 2];
        if (run.len as usize) < RUN_MIN && self.dir.len() > 1 {
            self.rebalance(r.min(self.dir.len() - 2));
        }
    }

    /// Moves the upper half of full run `r` into a new run right after it.
    fn split(&mut self, r: usize) {
        let full = self.dir[r];
        let mid = full.len as usize / 2;
        let tail = Run {
            max: full.max,
            block: self.alloc_block(),
            len: full.len - mid as u32,
        };
        let (from, to) = (full.base(), tail.base());
        Self::reach(&mut self.slab, to + tail.len as usize);
        self.slab
            .copy_within(from + mid..from + full.len as usize, to);
        self.dir[r].len = mid as u32;
        self.dir[r].max = self.slab[from + mid - 1];
        self.dir.insert(r + 1, tail);
    }

    /// Runs `r` and `r + 1`, one of them thin, become one run when they
    /// fit a block below the cap, or else two runs of about half their
    /// total each.
    fn rebalance(&mut self, r: usize) {
        let (left, right) = (self.dir[r], self.dir[r + 1]);
        let (lb, rb) = (left.base(), right.base());
        let (ll, rl) = (left.len as usize, right.len as usize);
        let total = ll + rl;
        if total < RUN_CAP {
            Self::reach(&mut self.slab, lb + total);
            self.slab.copy_within(rb..rb + rl, lb + ll);
            self.dir[r].len = total as u32;
            self.dir[r].max = right.max;
            self.free.push(right.block);
            self.dir.remove(r + 1);
            return;
        }
        let half = total / 2;
        if ll < half {
            // The head of the right run moves to the left run's end.
            let moved = half - ll;
            Self::reach(&mut self.slab, lb + half);
            self.slab.copy_within(rb..rb + moved, lb + ll);
            self.slab.copy_within(rb + moved..rb + rl, rb);
        } else {
            // The tail of the left run moves to the right run's head.
            let moved = ll - half;
            Self::reach(&mut self.slab, rb + rl + moved);
            self.slab.copy_within(rb..rb + rl, rb + moved);
            self.slab.copy_within(lb + half..lb + ll, rb);
        }
        self.dir[r].len = half as u32;
        self.dir[r].max = self.slab[lb + half - 1];
        self.dir[r + 1].len = (total - half) as u32;
    }

    /// The smallest member `≥ start`.
    fn successor(&self, start: MinerId) -> Option<MinerId> {
        let q = u32::try_from(start.index()).ok()?;
        let run = *self.dir.get(self.run_at(q))?;
        let run = self.run(run);
        Some(MinerId(run[run.partition_point(|&x| x < q)] as usize))
    }
}

/// `(coin, power, restriction discriminator)` — the discriminator is `0`
/// for unrestricted games and `miner index + 1` in restricted games (each
/// miner its own class). The key order (coin first) is part of the
/// [`crate::source::MoveSource`] contract: class enumeration is
/// coin-major, so the eager scheduler oracle can reproduce it from a
/// flat move list.
pub(crate) type GroupKey = (u32, u64, u32);

/// Partition of the **active** miners into strategic equivalence classes,
/// maintained under deltas (dormant miners belong to no group). The
/// layout is flat: one [`MemberRuns`] per group id, and a sorted key map
/// probed by binary search — no tree nodes anywhere on the apply/undo hot
/// path.
#[derive(Debug, Clone)]
pub(crate) struct GroupIndex {
    /// Group id of each miner (stale while a miner is dormant).
    of: Vec<u32>,
    /// gid → member runs (empty, holding no run, while the group is).
    members: Vec<MemberRuns>,
    /// Key → group id, sorted by key so class-major enumeration and
    /// per-coin range scans stay canonical (coin-major).
    by_key: Vec<(GroupKey, u32)>,
    /// Round-robin cursor for [`MassTracker::find_improving_move`]
    /// (captured and restored by [`crate::snapshot`] — forks must resume
    /// the round-robin exactly where the original stood to replay
    /// identical trajectories).
    pub(crate) cursor: usize,
}

impl GroupIndex {
    /// Loads an index in one ascending pass over the miners active under
    /// `miner_active`: `class(p)` names miner `p`'s group id (ids are
    /// dense from 0, and the callback may mint them as it goes), and `p`
    /// lands at the end of that group's last run. [`GroupIndex::keyed`]
    /// completes the index. Both builds load this way:
    /// [`MassTracker::with_activity`] (first-encounter ids, cursor 0) and
    /// the [`crate::snapshot`] restore (captured ids and cursor).
    pub(crate) fn load<E>(
        miner_active: &[bool],
        mut class: impl FnMut(MinerId) -> Result<u32, E>,
        cursor: usize,
    ) -> Result<Self, E> {
        let mut of = vec![0u32; miner_active.len()];
        let mut members: Vec<MemberRuns> = Vec::new();
        for (p, &active) in miner_active.iter().enumerate() {
            if !active {
                continue;
            }
            let gid = class(MinerId(p))?;
            let g = gid as usize;
            if g >= members.len() {
                members.resize_with(g + 1, MemberRuns::default);
            }
            of[p] = gid;
            members[g].push_max(MinerId(p));
        }
        members.iter_mut().for_each(MemberRuns::seal);
        Ok(GroupIndex {
            of,
            members,
            by_key: Vec::new(),
            cursor,
        })
    }

    /// Completes a [`GroupIndex::load`]: `keys[gid]` is every group's key
    /// in historical group-id order (groups no miner joined stay empty).
    pub(crate) fn keyed(mut self, keys: &[GroupKey]) -> Self {
        debug_assert!(
            self.members.len() <= keys.len(),
            "a loaded group has no key"
        );
        self.members.resize_with(keys.len(), MemberRuns::default);
        self.by_key = keys
            .iter()
            .enumerate()
            .map(|(gid, &key)| (key, gid as u32))
            .collect();
        self.by_key.sort_unstable();
        self
    }

    pub(crate) fn rkey(game: &Game, p: MinerId) -> u32 {
        if game.is_restricted() {
            p.index() as u32 + 1
        } else {
            0
        }
    }

    /// Number of classes ever minted (group ids are historical: emptied
    /// classes keep their id so the cursor and snapshots stay stable).
    pub(crate) fn group_count(&self) -> usize {
        self.members.len()
    }

    /// The class keys in historical group-id order — the
    /// [`crate::snapshot`] capture order.
    pub(crate) fn class_keys(&self) -> Vec<GroupKey> {
        let mut keys = vec![(0, 0, 0); self.members.len()];
        for &(key, gid) in &self.by_key {
            keys[gid as usize] = key;
        }
        keys
    }

    /// `(key, gid)` pairs in canonical class order (coin, power, rkey).
    pub(crate) fn classes(&self) -> impl Iterator<Item = (GroupKey, u32)> + '_ {
        self.by_key.iter().copied()
    }

    /// The live members of group `gid`, ascending by id (none for
    /// emptied classes).
    fn members(&self, gid: u32) -> impl Iterator<Item = MinerId> + '_ {
        self.members[gid as usize].iter()
    }

    /// The smallest member of group `gid`, `O(1)`.
    fn min(&self, gid: u32) -> Option<MinerId> {
        self.members[gid as usize].first()
    }

    /// The smallest member of group `gid` that is `≥ start`,
    /// `O(log runs)` plus one in-run search.
    fn successor(&self, gid: u32, start: MinerId) -> Option<MinerId> {
        self.members[gid as usize].successor(start)
    }

    /// Number of live members of group `gid`, `O(1)`.
    fn member_count(&self, gid: u32) -> usize {
        self.members[gid as usize].len()
    }

    fn insert(&mut self, game: &Game, p: MinerId, coin: CoinId) {
        let power = game.system().power_of(p);
        let key = (coin.index() as u32, power, Self::rkey(game, p));
        let gid = match self.by_key.binary_search_by_key(&key, |&(k, _)| k) {
            Ok(at) => self.by_key[at].1,
            Err(at) => {
                // A fresh class: minting is rare (bounded by distinct
                // keys ever seen), so the sorted-vec insert stays cold.
                let gid = self.members.len() as u32;
                self.members.push(MemberRuns::default());
                self.by_key.insert(at, (key, gid));
                gid
            }
        };
        self.of[p.index()] = gid;
        self.members[gid as usize].insert(p);
    }

    fn remove(&mut self, p: MinerId) {
        let gid = self.of[p.index()] as usize;
        self.members[gid].remove(p);
    }

    fn move_miner(&mut self, game: &Game, p: MinerId, to: CoinId) {
        self.remove(p);
        self.insert(game, p, to);
    }

    /// Group ids of every class currently keyed to coin `c` (some may be
    /// empty). `O(log groups + output)` via a partition-point range scan.
    pub(crate) fn groups_on(&self, c: CoinId) -> impl Iterator<Item = u32> + '_ {
        let c = c.index() as u32;
        let lo = self.by_key.partition_point(|&((coin, _, _), _)| coin < c);
        let hi = self.by_key.partition_point(|&((coin, _, _), _)| coin <= c);
        self.by_key[lo..hi].iter().map(|&(_, gid)| gid)
    }
}

/// The dense projection of a (possibly churned) tracker state: a fresh
/// [`Game`] over exactly the active miners and coins, plus the id maps
/// back into the universe. This is the **naive oracle** of every churn
/// equivalence test: build the subgame, recompute from scratch, compare.
#[derive(Debug, Clone)]
pub struct ActiveSubgame {
    /// The dense game over the active population.
    pub game: Game,
    /// The active miners' configuration, in dense ids.
    pub config: Configuration,
    /// `miners[dense] = universe id` (ascending).
    pub miners: Vec<MinerId>,
    /// `coins[dense] = universe id` (ascending).
    pub coins: Vec<CoinId>,
}

/// Incrementally-maintained view of a configuration inside a game: masses,
/// the Appendix-B potential, a miner group index, and the activity masks
/// of the churn vocabulary, all updated in `O(1)`–`O(log)` per delta. See
/// the [module docs](self) for the cost model.
#[derive(Debug, Clone)]
pub struct MassTracker<'g> {
    game: &'g Game,
    config: Configuration,
    masses: Masses,
    groups: GroupIndex,
    miner_active: Vec<bool>,
    coin_active: Vec<bool>,
    active_miners: usize,
    active_coins: usize,
    undo: Vec<AppliedDelta>,
    record_undo: bool,
}

impl<'g> MassTracker<'g> {
    /// Builds a tracker over `start` in `game`, with the whole universe
    /// active (see [`MassTracker::with_activity`]).
    ///
    /// # Errors
    ///
    /// Returns [`GameError::ConfigLengthMismatch`] /
    /// [`GameError::CoinOutOfRange`] if `start` does not fit the game's
    /// system.
    pub fn new(game: &'g Game, start: &Configuration) -> Result<Self, GameError> {
        let n = game.system().num_miners();
        let k = game.system().num_coins();
        Self::with_activity(game, start, &vec![true; n], &vec![true; k])
    }

    /// Builds a tracker with an explicit activity state: `miner_active[p]`
    /// / `coin_active[c]` declare who is online and which coins are live
    /// at time zero — dormant entries are the churn reserve that
    /// [`Delta::InsertMiner`] / [`Delta::LaunchCoin`] later activate.
    /// This is the one construction of a fresh group index: a single
    /// ascending pass over the miners, `O(miners · log classes)`.
    ///
    /// # Errors
    ///
    /// * Shape errors as in [`MassTracker::new`].
    /// * [`GameError::CoinInactive`] if an active miner starts on a
    ///   dormant coin.
    ///
    /// # Panics
    ///
    /// Panics if a mask length does not match the system.
    pub fn with_activity(
        game: &'g Game,
        start: &Configuration,
        miner_active: &[bool],
        coin_active: &[bool],
    ) -> Result<Self, GameError> {
        let system = game.system();
        assert_eq!(
            miner_active.len(),
            system.num_miners(),
            "miner activity mask must cover the universe"
        );
        assert_eq!(
            coin_active.len(),
            system.num_coins(),
            "coin activity mask must cover the universe"
        );
        // Re-validate the shape so a tracker can never silently index out
        // of range (Configurations from a different system are accepted by
        // the type system).
        let config = Configuration::new(start.as_slice().to_vec(), system)?;
        // One ascending pass fills masses and loads the group index:
        // class ids are minted in first-encounter order and members
        // arrive sorted, so each lands at its group's end.
        let mut masses = Masses::zero(system.num_coins());
        let mut gid_of_key: BTreeMap<GroupKey, u32> = BTreeMap::new(); // allow-collection: build-local key probe, dropped before the first step
        let mut keys: Vec<GroupKey> = Vec::new();
        let groups = GroupIndex::load(
            miner_active,
            |p| {
                let coin = config.coin_of(p);
                if !coin_active[coin.index()] {
                    return Err(GameError::CoinInactive { coin });
                }
                let power = system.power_of(p);
                masses.add(coin, power);
                let key = (coin.index() as u32, power, GroupIndex::rkey(game, p));
                let next = keys.len() as u32;
                let gid = *gid_of_key.entry(key).or_insert(next);
                if gid == next {
                    keys.push(key);
                }
                Ok(gid)
            },
            0,
        )?;
        Ok(MassTracker {
            groups: groups.keyed(&keys),
            game,
            config,
            masses,
            active_miners: miner_active.iter().filter(|&&a| a).count(),
            active_coins: coin_active.iter().filter(|&&a| a).count(),
            miner_active: miner_active.to_vec(),
            coin_active: coin_active.to_vec(),
            undo: Vec::new(),
            record_undo: true,
        })
    }

    /// Assembles a tracker directly from validated parts — the
    /// [`crate::snapshot`] fork path, which bulk-builds the group index
    /// instead of inserting miner by miner. Callers guarantee the parts
    /// are mutually consistent (masses match the active configuration,
    /// groups partition the active miners); decoded snapshots re-verify
    /// this before reaching here.
    pub(crate) fn from_parts(
        game: &'g Game,
        config: Configuration,
        masses: Masses,
        groups: GroupIndex,
        miner_active: Vec<bool>,
        coin_active: Vec<bool>,
    ) -> Self {
        MassTracker {
            game,
            config,
            masses,
            groups,
            active_miners: miner_active.iter().filter(|&&a| a).count(),
            active_coins: coin_active.iter().filter(|&&a| a).count(),
            miner_active,
            coin_active,
            undo: Vec::new(),
            record_undo: true,
        }
    }

    /// The group index, for [`crate::snapshot`] capture.
    pub(crate) fn group_index(&self) -> &GroupIndex {
        &self.groups
    }

    /// Enables or disables undo recording (on by default). Long-running
    /// dynamics loops that never rewind disable it so a million-step
    /// convergence does not retain a million-entry history; while
    /// disabled, [`MassTracker::apply_delta`] pushes nothing and
    /// [`MassTracker::undo_delta`] can only rewind deltas recorded
    /// earlier.
    pub fn set_undo_recording(&mut self, record: bool) {
        self.record_undo = record;
    }

    /// The game this tracker evaluates (borrowed for the tracker's full
    /// lifetime, so callers may outlive the tracker itself).
    pub fn game(&self) -> &'g Game {
        self.game
    }

    /// The current configuration (entries of dormant miners are their
    /// last coin and carry no mass).
    pub fn config(&self) -> &Configuration {
        &self.config
    }

    /// Consumes the tracker, returning the final configuration.
    pub fn into_config(self) -> Configuration {
        self.config
    }

    /// The maintained per-coin mass table (active miners only).
    pub fn masses(&self) -> &Masses {
        &self.masses
    }

    /// Mass of coin `c` (`M_c(s)`), `O(1)`.
    pub fn mass_of(&self, c: CoinId) -> u128 {
        self.masses.mass_of(c)
    }

    /// The coin currently mined by `p` (last mined, for dormant miners).
    pub fn coin_of(&self, p: MinerId) -> CoinId {
        self.config.coin_of(p)
    }

    /// Whether miner `p` is currently online.
    pub fn is_miner_active(&self, p: MinerId) -> bool {
        self.miner_active[p.index()]
    }

    /// Whether coin `c` is currently live.
    pub fn is_coin_active(&self, c: CoinId) -> bool {
        self.coin_active[c.index()]
    }

    /// The miner activity mask over the universe.
    pub fn miner_activity(&self) -> &[bool] {
        &self.miner_active
    }

    /// The coin activity mask over the universe.
    pub fn coin_activity(&self) -> &[bool] {
        &self.coin_active
    }

    /// Number of currently active miners.
    pub fn active_miner_count(&self) -> usize {
        self.active_miners
    }

    /// Number of currently live coins.
    pub fn active_coin_count(&self) -> usize {
        self.active_coins
    }

    /// Number of strategic equivalence classes currently present
    /// (including classes emptied by moves or departures).
    pub fn group_count(&self) -> usize {
        self.groups.group_count()
    }

    /// Depth of the undo stack (number of un-undone applied deltas).
    pub fn depth(&self) -> usize {
        self.undo.len()
    }

    // ------------------------------------------------------------------
    // O(coins) queries
    // ------------------------------------------------------------------

    /// `RPU_c(s)`, `O(1)`.
    pub fn rpu(&self, c: CoinId) -> Extended {
        self.game.rpu(c, &self.masses)
    }

    /// Miner `p`'s payoff `u_p(s)`, `O(1)`. A dormant miner earns zero.
    pub fn payoff(&self, p: MinerId) -> Ratio {
        if !self.miner_active[p.index()] {
            return Ratio::ZERO;
        }
        self.game
            .payoff_with(p, self.config.coin_of(p), &self.masses)
    }

    /// Whether moving `p` to `to` is a better-response step, `O(1)`.
    /// Always false for dormant miners and retired target coins.
    pub fn is_better_response(&self, p: MinerId, to: CoinId) -> bool {
        self.miner_active[p.index()]
            && self.coin_active[to.index()]
            && self
                .game
                .is_better_response(p, to, &self.config, &self.masses)
    }

    /// The payoff gain of moving `p` to `to`, `O(1)`.
    pub fn gain(&self, p: MinerId, to: CoinId) -> Ratio {
        self.game.gain(p, to, &self.config, &self.masses)
    }

    /// All better-response steps of `p` over the live coins, `O(coins)`.
    pub fn better_responses(&self, p: MinerId) -> Vec<CoinId> {
        self.game
            .system()
            .coin_ids()
            .filter(|&c| self.is_better_response(p, c))
            .collect()
    }

    /// `p`'s best response over the live coins (or `None` if stable),
    /// `O(coins)`. Identical to [`Game::best_response`] when the whole
    /// universe is active.
    pub fn best_response(&self, p: MinerId) -> Option<CoinId> {
        if !self.miner_active[p.index()] {
            return None;
        }
        let from = self.config.coin_of(p);
        let current = self.game.join_rpu(p, from, from, &self.masses);
        let mut best: Option<(JoinRpu, CoinId)> = None;
        for c in self.game.system().coin_ids() {
            if c == from || !self.coin_active[c.index()] || !self.game.allowed(p, c) {
                continue;
            }
            let target = self.game.join_rpu(p, c, from, &self.masses);
            if target > current && best.is_none_or(|(b, _)| target > b) {
                best = Some((target, c));
            }
        }
        best.map(|(_, c)| c)
    }

    /// Whether `p` has no better response, `O(coins)`.
    pub fn is_miner_stable(&self, p: MinerId) -> bool {
        self.best_response(p).is_none()
    }

    /// The sorted `⟨RPU_c(s), c⟩` list of Theorem 1's ordinal potential
    /// over the **live** coins, `O(coins log coins)` — no population
    /// rescan.
    pub fn rpu_list(&self) -> Vec<(Extended, CoinId)> {
        let mut list: Vec<(Extended, CoinId)> = self
            .game
            .system()
            .coin_ids()
            .filter(|&c| self.coin_active[c.index()])
            .map(|c| (self.rpu(c), c))
            .collect();
        list.sort();
        list
    }

    /// Appendix B's potential `H(s) = Σ_c 1/M_c(s)` over the live coins
    /// (infinite when some live coin is unoccupied), `O(coins)` over the
    /// maintained masses — no population rescan. (A running accumulator
    /// would be `O(1)` but overflows `i128` on many-coin games whose
    /// masses are coprime; summing on demand keeps exactly the naive
    /// path's envelope.)
    pub fn symmetric_potential(&self) -> Extended {
        let mut total = Ratio::ZERO;
        for c in self.game.system().coin_ids() {
            if !self.coin_active[c.index()] {
                continue;
            }
            match self.masses.mass_of(c) {
                0 => return Extended::Infinite,
                m => {
                    total = total
                        .checked_add(inv(m))
                        .expect("potential sum fits i128 for supported systems");
                }
            }
        }
        Extended::Finite(total)
    }

    // ------------------------------------------------------------------
    // O(groups × coins) whole-population queries
    // ------------------------------------------------------------------

    /// Whether the configuration is stable, `O(groups × coins)`.
    pub fn is_stable(&self) -> bool {
        (0..self.groups.group_count() as u32)
            .filter_map(|gid| self.groups.min(gid))
            .all(|rep| self.best_response(rep).is_none())
    }

    /// The unstable miners, in id order. Costs `O(groups × coins)` plus
    /// the output size (stability is decided once per group).
    pub fn unstable_miners(&self) -> Vec<MinerId> {
        let unstable = self.unstable_group_mask();
        self.game
            .system()
            .miner_ids()
            .filter(|p| self.miner_active[p.index()] && unstable[self.gid_of(*p) as usize])
            .collect()
    }

    /// All better-response steps over all active miners, in miner-id then
    /// coin order — exactly [`Game::improving_moves`] on the active
    /// subgame, but better responses are computed once per group
    /// (`O(groups × coins)` plus output).
    pub fn improving_moves(&self) -> Vec<Move> {
        let mut per_group: Vec<Option<Vec<CoinId>>> = vec![None; self.groups.group_count()];
        for (gid, slot) in per_group.iter_mut().enumerate() {
            if let Some(rep) = self.groups.min(gid as u32) {
                *slot = Some(self.better_responses(rep));
            }
        }
        let mut out = Vec::new();
        for p in self.game.system().miner_ids() {
            if !self.miner_active[p.index()] {
                continue;
            }
            let gid = self.gid_of(p) as usize;
            let from = self.config.coin_of(p);
            if let Some(targets) = &per_group[gid] {
                out.extend(targets.iter().map(|&to| Move { miner: p, from, to }));
            }
        }
        out
    }

    fn unstable_group_mask(&self) -> Vec<bool> {
        (0..self.groups.group_count() as u32)
            .map(|gid| {
                self.groups
                    .min(gid)
                    .is_some_and(|rep| self.best_response(rep).is_some())
            })
            .collect()
    }

    /// Finds one better-response step by round-robin over the strategic
    /// groups, or `None` if the configuration is stable. Amortized
    /// `O(coins)` per returned move while the dynamics make progress;
    /// a full stability sweep (`O(groups × coins)`) only when converged.
    ///
    /// The cursor persists across calls, so repeated
    /// `find_improving_move` / [`MassTracker::apply`] loops cycle fairly
    /// over the groups — a population-free round-robin best-response
    /// dynamics.
    pub fn find_improving_move(&mut self) -> Option<Move> {
        let count = self.groups.group_count();
        for offset in 0..count {
            let gid = (self.groups.cursor + offset) % count;
            let Some(rep) = self.groups.min(gid as u32) else {
                continue;
            };
            if let Some(to) = self.best_response(rep) {
                // Advance past this group so its remaining members do not
                // starve the others.
                self.groups.cursor = (gid + 1) % count;
                return Some(Move {
                    miner: rep,
                    from: self.config.coin_of(rep),
                    to,
                });
            }
        }
        None
    }

    // ------------------------------------------------------------------
    // The naive oracle under churn
    // ------------------------------------------------------------------

    /// Projects the active population into a dense [`Game`] plus the
    /// matching configuration — the state a from-scratch rebuild would
    /// see. With the whole universe active the projection is the
    /// identity on ids. `O(miners + coins)`; this is the oracle path,
    /// not a production query.
    ///
    /// # Errors
    ///
    /// [`GameError::NoMiners`] / [`GameError::NoCoins`] when the active
    /// population or coin set is empty.
    pub fn active_subgame(&self) -> Result<ActiveSubgame, GameError> {
        let system = self.game.system();
        let coins: Vec<CoinId> = system
            .coin_ids()
            .filter(|&c| self.coin_active[c.index()])
            .collect();
        let miners: Vec<MinerId> = system
            .miner_ids()
            .filter(|&p| self.miner_active[p.index()])
            .collect();
        if miners.is_empty() {
            return Err(GameError::NoMiners);
        }
        if coins.is_empty() {
            return Err(GameError::NoCoins);
        }
        let powers: Vec<u64> = miners.iter().map(|&p| system.power_of(p)).collect();
        let dense_system = System::new(&powers, coins.len())?;
        let rewards =
            Rewards::from_ratios(coins.iter().map(|&c| self.game.reward_of(c)).collect())?;
        let mut game = Game::new(dense_system, rewards)?;
        if self.game.is_restricted() {
            let rows: Vec<Vec<bool>> = miners
                .iter()
                .map(|&p| coins.iter().map(|&c| self.game.allowed(p, c)).collect())
                .collect();
            game = game.with_restrictions(rows)?;
        }
        let mut dense_coin = vec![usize::MAX; system.num_coins()];
        for (dense, &c) in coins.iter().enumerate() {
            dense_coin[c.index()] = dense;
        }
        let assignment: Vec<CoinId> = miners
            .iter()
            .map(|&p| CoinId(dense_coin[self.config.coin_of(p).index()]))
            .collect();
        let config = Configuration::new(assignment, game.system())?;
        Ok(ActiveSubgame {
            game,
            config,
            miners,
            coins,
        })
    }

    // ------------------------------------------------------------------
    // Group-index queries (the scheduler-protocol surface)
    // ------------------------------------------------------------------
    //
    // These are the *only* windows into the group partition: they expose
    // queries (iterators, options, counts), never the storage, so the index
    // layout can keep evolving without touching a caller. No method here
    // names a collection type.

    /// The group id of miner `p` — the strategic equivalence class `p`
    /// currently belongs to (stale for dormant miners). Group ids are
    /// historical: a class keeps its id even while emptied.
    pub fn gid_of(&self, p: MinerId) -> u32 {
        self.groups.of[p.index()]
    }

    /// The live members of group `gid` in ascending id order (none for
    /// emptied classes), `O(1)` per member.
    pub fn members_of(&self, gid: u32) -> impl Iterator<Item = MinerId> + '_ {
        self.groups.members(gid)
    }

    /// The smallest member of group `gid` — its canonical representative
    /// under the scheduler tie-break — or `None` while the class is
    /// empty. `O(1)`.
    pub fn min_member(&self, gid: u32) -> Option<MinerId> {
        self.groups.min(gid)
    }

    /// The smallest member of group `gid` with id `≥ start`, or `None`.
    /// `O(log members)` — the round-robin successor query.
    pub fn successor_member(&self, gid: u32, start: MinerId) -> Option<MinerId> {
        self.groups.successor(gid, start)
    }

    /// Number of live members of group `gid`, `O(1)`.
    pub fn member_count(&self, gid: u32) -> usize {
        self.groups.member_count(gid)
    }

    /// `(key, gid)` pairs in canonical class order (coin, power, rkey).
    pub(crate) fn classes(&self) -> impl Iterator<Item = (GroupKey, u32)> + '_ {
        self.groups.classes()
    }

    /// Group ids keyed to coin `c` (see [`GroupIndex::groups_on`]).
    pub(crate) fn gids_on(&self, c: CoinId) -> impl Iterator<Item = u32> + '_ {
        self.groups.groups_on(c)
    }

    // ------------------------------------------------------------------
    // Mutation
    // ------------------------------------------------------------------

    /// Moves `p` to `to`, updating masses and the group index in an
    /// `O(log groups)` key lookup plus two `O(log runs + RUN_CAP)` run
    /// edits, and pushes the move onto the undo stack. Returns the
    /// applied move (with its `from` coin). Shorthand for a
    /// [`Delta::Move`] through [`MassTracker::apply_delta`].
    ///
    /// The move need not be a better response — the tracker follows any
    /// move sequence exactly (that is what the equivalence suite
    /// exercises).
    ///
    /// # Panics
    ///
    /// Panics if `p` or `to` is out of range for the game's system, or if
    /// the move is illegal under the current activity state (dormant
    /// miner, retired coin) — population-aware callers use
    /// [`MassTracker::apply_delta`] and handle the error.
    pub fn apply(&mut self, p: MinerId, to: CoinId) -> Move {
        assert!(
            to.index() < self.game.system().num_coins(),
            "{to} out of range"
        );
        match self.apply_delta(Delta::Move { miner: p, to }) {
            Ok(AppliedDelta::Move(mv)) => mv,
            Ok(_) => unreachable!("a move delta applies as a move"),
            Err(e) => panic!("illegal move: {e}"),
        }
    }

    /// Applies one churn [`Delta`], validating it against the current
    /// activity state, and pushes the resolved [`AppliedDelta`] onto the
    /// undo stack. An `O(log groups)` key lookup plus `O(log runs +
    /// RUN_CAP)` run edits for moves, insertions, removals, and launches;
    /// `O(residents × coins)` for a retirement (the forced relocations).
    ///
    /// # Errors
    ///
    /// * [`GameError::MinerInactive`] / [`GameError::MinerActive`] on a
    ///   move/removal of a dormant miner or an insertion of an active one.
    /// * [`GameError::CoinInactive`] / [`GameError::CoinActive`] on a
    ///   retired move target, retirement of a dormant coin, or launch of
    ///   a live one.
    /// * [`GameError::CoinOutOfRange`] if a referenced coin is outside
    ///   the universe.
    /// * [`GameError::NoPlacement`] if an arrival or a forced relocation
    ///   has no active permitted coin (the delta fails atomically: no
    ///   state changes).
    ///
    /// # Panics
    ///
    /// Panics if a miner id is outside the universe.
    pub fn apply_delta(&mut self, delta: Delta) -> Result<AppliedDelta, GameError> {
        let applied = self.apply_delta_inner(delta)?;
        if self.record_undo {
            self.undo.push(applied.clone());
        }
        Ok(applied)
    }

    fn check_coin(&self, coin: CoinId) -> Result<(), GameError> {
        if coin.index() >= self.game.system().num_coins() {
            return Err(GameError::CoinOutOfRange {
                coin,
                coins: self.game.system().num_coins(),
            });
        }
        Ok(())
    }

    fn apply_delta_inner(&mut self, delta: Delta) -> Result<AppliedDelta, GameError> {
        match delta {
            Delta::Move { miner, to } => {
                self.check_coin(to)?;
                if !self.miner_active[miner.index()] {
                    return Err(GameError::MinerInactive { miner });
                }
                if !self.coin_active[to.index()] {
                    return Err(GameError::CoinInactive { coin: to });
                }
                let from = self.config.coin_of(miner);
                if from != to {
                    self.shift(miner, from, to);
                }
                Ok(AppliedDelta::Move(Move { miner, from, to }))
            }
            Delta::InsertMiner { miner, coin } => {
                if self.miner_active[miner.index()] {
                    return Err(GameError::MinerActive { miner });
                }
                let coin = match coin {
                    Some(c) => {
                        self.check_coin(c)?;
                        if !self.coin_active[c.index()] {
                            return Err(GameError::CoinInactive { coin: c });
                        }
                        if !self.game.allowed(miner, c) {
                            return Err(GameError::NoPlacement { miner });
                        }
                        c
                    }
                    None => self
                        .forced_placement(miner)
                        .ok_or(GameError::NoPlacement { miner })?,
                };
                let previous = self.config.coin_of(miner);
                self.miner_active[miner.index()] = true;
                self.active_miners += 1;
                self.masses.add(coin, self.game.system().power_of(miner));
                self.config.apply_move(miner, coin);
                self.groups.insert(self.game, miner, coin);
                Ok(AppliedDelta::InsertMiner {
                    miner,
                    coin,
                    previous,
                })
            }
            Delta::RemoveMiner { miner } => {
                if !self.miner_active[miner.index()] {
                    return Err(GameError::MinerInactive { miner });
                }
                let coin = self.config.coin_of(miner);
                self.deactivate_miner(miner, coin);
                Ok(AppliedDelta::RemoveMiner { miner, coin })
            }
            Delta::LaunchCoin { coin } => {
                self.check_coin(coin)?;
                if self.coin_active[coin.index()] {
                    return Err(GameError::CoinActive { coin });
                }
                debug_assert_eq!(self.masses.mass_of(coin), 0, "dormant coins carry no mass");
                self.coin_active[coin.index()] = true;
                self.active_coins += 1;
                Ok(AppliedDelta::LaunchCoin { coin })
            }
            Delta::RetireCoin { coin } => {
                self.check_coin(coin)?;
                if !self.coin_active[coin.index()] {
                    return Err(GameError::CoinInactive { coin });
                }
                let mut residents: Vec<MinerId> = Vec::new();
                for gid in self.groups.groups_on(coin) {
                    residents.extend(self.groups.members(gid));
                }
                residents.sort_unstable();
                // Atomicity precheck: every resident must have somewhere
                // legal to go (existence depends only on activity and
                // restrictions, not on masses, so checking up front is
                // exact).
                for &p in &residents {
                    let placeable = self.game.system().coin_ids().any(|c| {
                        c != coin && self.coin_active[c.index()] && self.game.allowed(p, c)
                    });
                    if !placeable {
                        return Err(GameError::NoPlacement { miner: p });
                    }
                }
                self.coin_active[coin.index()] = false;
                self.active_coins -= 1;
                // Forced relocation by best response, in miner-id order,
                // each against the masses its predecessors left.
                let mut relocations = Vec::with_capacity(residents.len());
                for p in residents {
                    let to = self
                        .forced_placement(p)
                        .expect("prechecked: a permitted active coin exists");
                    self.shift(p, coin, to);
                    relocations.push(Move {
                        miner: p,
                        from: coin,
                        to,
                    });
                }
                Ok(AppliedDelta::RetireCoin { coin, relocations })
            }
        }
    }

    /// Reverts the most recent un-undone [`MassTracker::apply`], returning
    /// the move that was undone (`None` on an empty stack).
    ///
    /// # Panics
    ///
    /// Panics if the top of the stack is a population delta — mixed
    /// histories rewind through [`MassTracker::undo_delta`].
    pub fn undo(&mut self) -> Option<Move> {
        match self.undo.last()? {
            AppliedDelta::Move(_) => match self.undo_delta() {
                Some(AppliedDelta::Move(mv)) => Some(mv),
                _ => unreachable!("the top of the stack was a move"),
            },
            other => panic!("undo() reached a population delta ({other}); use undo_delta()"),
        }
    }

    /// Reverts the most recent un-undone [`MassTracker::apply_delta`],
    /// returning the delta that was undone (`None` on an empty stack).
    /// Every variant rewinds exactly: a retirement re-launches the coin
    /// and walks the forced relocations backwards.
    pub fn undo_delta(&mut self) -> Option<AppliedDelta> {
        let applied = self.undo.pop()?;
        match &applied {
            AppliedDelta::Move(mv) => {
                if mv.from != mv.to {
                    self.shift(mv.miner, mv.to, mv.from);
                }
            }
            AppliedDelta::InsertMiner {
                miner,
                coin,
                previous,
            } => {
                self.deactivate_miner(*miner, *coin);
                self.config.apply_move(*miner, *previous);
            }
            AppliedDelta::RemoveMiner { miner, coin } => {
                self.miner_active[miner.index()] = true;
                self.active_miners += 1;
                self.masses.add(*coin, self.game.system().power_of(*miner));
                self.config.apply_move(*miner, *coin);
                self.groups.insert(self.game, *miner, *coin);
            }
            AppliedDelta::LaunchCoin { coin } => {
                debug_assert_eq!(self.masses.mass_of(*coin), 0, "launch undone after moves");
                self.coin_active[coin.index()] = false;
                self.active_coins -= 1;
            }
            AppliedDelta::RetireCoin { coin, relocations } => {
                self.coin_active[coin.index()] = true;
                self.active_coins += 1;
                for mv in relocations.iter().rev() {
                    self.shift(mv.miner, mv.to, mv.from);
                }
            }
        }
        Some(applied)
    }

    fn deactivate_miner(&mut self, p: MinerId, coin: CoinId) {
        self.miner_active[p.index()] = false;
        self.active_miners -= 1;
        self.masses.remove(coin, self.game.system().power_of(p));
        self.groups.remove(p);
    }

    /// The best active permitted coin to place `p` on (highest RPU after
    /// joining from nowhere, `F(c) / (M_c + m_p)`; ties to the lowest coin
    /// id), or `None` if no active coin is permitted. Placement is
    /// *forced*: unlike a better response it needs no current payoff to
    /// beat.
    fn forced_placement(&self, p: MinerId) -> Option<CoinId> {
        let m_p = u128::from(self.game.system().power_of(p));
        let mut best: Option<(JoinRpu, CoinId)> = None;
        for c in self.game.system().coin_ids() {
            if !self.coin_active[c.index()] || !self.game.allowed(p, c) {
                continue;
            }
            let v = JoinRpu::new(self.game.reward_of(c), self.masses.mass_of(c) + m_p);
            if best.is_none_or(|(b, _)| v > b) {
                best = Some((v, c));
            }
        }
        best.map(|(_, c)| c)
    }

    fn shift(&mut self, p: MinerId, from: CoinId, to: CoinId) {
        let power = self.game.system().power_of(p);
        self.masses.apply_move(power, from, to);
        self.config.apply_move(p, to);
        self.groups.move_miner(self.game, p, to);
    }
}

fn inv(mass: u128) -> Ratio {
    Ratio::new(1, mass as i128).expect("mass is positive")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::potential;

    fn cfg(game: &Game, coins: &[usize]) -> Configuration {
        Configuration::new(coins.iter().map(|&c| CoinId(c)).collect(), game.system()).unwrap()
    }

    // ------------------------------------------------------------------
    // Member runs
    // ------------------------------------------------------------------

    /// Hand-built runs (states the edits themselves may never produce),
    /// stored in reverse block order so the directory's indirection is
    /// exercised.
    fn runs_of(runs: &[&[u32]]) -> MemberRuns {
        let mut members = MemberRuns {
            slab: vec![0; runs.len() * RUN_CAP],
            ..MemberRuns::default()
        };
        for (i, run) in runs.iter().enumerate() {
            let block = (runs.len() - 1 - i) as u32;
            let base = block as usize * RUN_CAP;
            members.slab[base..base + run.len()].copy_from_slice(run);
            members.dir.push(Run {
                max: *run.last().unwrap(),
                block,
                len: run.len() as u32,
            });
            members.len += run.len();
        }
        members
    }

    fn maxes(members: &MemberRuns) -> Vec<u32> {
        members.dir.iter().map(|run| run.max).collect()
    }

    /// Checks the run invariants and that the members are exactly
    /// `expected` (ascending).
    fn assert_runs(members: &MemberRuns, expected: &[u32]) {
        let ids: Vec<u32> = members.iter().map(|p| p.index() as u32).collect();
        assert_eq!(ids, expected);
        assert_eq!(members.len(), expected.len());
        let mut blocks: Vec<u32> = members.free.clone();
        for &run in &members.dir {
            let slots = members.run(run);
            let len = slots.len();
            assert!(len > 0 && len < RUN_CAP, "run of {len}");
            assert_eq!(slots.last(), Some(&run.max));
            blocks.push(run.block);
        }
        blocks.sort_unstable();
        blocks.dedup();
        assert_eq!(
            blocks.len(),
            members.dir.len() + members.free.len(),
            "a block is shared"
        );
        assert_eq!(
            blocks.len(),
            members.slab.len().div_ceil(RUN_CAP),
            "a block is leaked"
        );
        assert_eq!(
            members.first(),
            expected.first().map(|&q| MinerId(q as usize))
        );
    }

    /// Bulk-loads ascending `ids` the way a tracker build does.
    fn loaded(ids: impl IntoIterator<Item = u32>) -> MemberRuns {
        let mut members = MemberRuns::default();
        for q in ids {
            members.push_max(MinerId(q as usize));
        }
        members.seal();
        members
    }

    #[test]
    fn member_runs_split_at_the_cap() {
        let cap = RUN_CAP as u32;
        let mut members = MemberRuns::default();
        for q in 0..cap - 1 {
            members.insert(MinerId(q as usize));
        }
        assert_eq!(members.dir.len(), 1);
        members.insert(MinerId(cap as usize - 1));
        assert_runs(&members, &(0..cap).collect::<Vec<_>>());
        assert_eq!(maxes(&members), vec![cap / 2 - 1, cap - 1]);
        // A mid-run insert that fills a run splits it the same way.
        let gapped: Vec<u32> = (0..cap).filter(|&q| q != 7).collect();
        let mut members = runs_of(&[&gapped]);
        members.insert(MinerId(7));
        assert_runs(&members, &(0..cap).collect::<Vec<_>>());
        assert_eq!(maxes(&members), vec![cap / 2 - 1, cap - 1]);
    }

    #[test]
    fn member_runs_merge_a_thin_run() {
        let cap = RUN_CAP as u32;
        let halves = |lo: u32| {
            let (left, right): (Vec<u32>, Vec<u32>) = (lo..cap).partition(|&q| q < cap / 2);
            runs_of(&[&left, &right])
        };
        let mut members = halves(0);
        let mut expected: Vec<u32> = (0..cap).collect();
        // Thin the second run to just below RUN_MIN: it merges left.
        let keep = RUN_MIN as u32 - 1;
        for q in cap / 2..cap - keep {
            members.remove(MinerId(q as usize));
            expected.retain(|&x| x != q);
            assert_runs(&members, &expected);
        }
        assert_eq!(members.dir.len(), 1);
        // A thin head run merges right.
        let mut members = halves(0);
        for q in 0..cap / 2 - keep {
            members.remove(MinerId(q as usize));
        }
        assert_runs(&members, &(cap / 2 - keep..cap).collect::<Vec<_>>());
        assert_eq!(members.dir.len(), 1);
        // A thin run beside one too full to absorb it takes half of both,
        // on either side.
        let big: Vec<u32> = (0..100).collect();
        let small: Vec<u32> = (100..134).collect();
        let mut members = runs_of(&[&big, &small]);
        for q in 100..103 {
            members.remove(MinerId(q));
        }
        assert_runs(&members, &(0..100).chain(103..134).collect::<Vec<_>>());
        assert_eq!(maxes(&members), vec![64, 133]);
        let mut members = runs_of(&[&big[..34], &(34..134).collect::<Vec<_>>()]);
        for q in 0..3 {
            members.remove(MinerId(q));
        }
        assert_runs(&members, &(3..134).collect::<Vec<_>>());
        assert_eq!(maxes(&members), vec![67, 133]);
    }

    #[test]
    fn member_runs_empty_a_middle_run() {
        // Draining a middle run's ids in any order keeps the rest exact.
        let fill = LOAD_FILL as u32;
        let mut members = loaded(0..3 * fill);
        assert_eq!(maxes(&members), vec![fill - 1, 2 * fill - 1, 3 * fill - 1]);
        let mut expected: Vec<u32> = (0..3 * fill).collect();
        let middle = fill..2 * fill;
        let (odd, even): (Vec<u32>, Vec<u32>) = middle.partition(|q| q % 2 == 1);
        for q in odd.into_iter().rev().chain(even) {
            members.remove(MinerId(q as usize));
            expected.retain(|&x| x != q);
            assert_runs(&members, &expected);
        }
        assert_eq!(
            members.successor(MinerId(fill as usize)),
            Some(MinerId(2 * fill as usize))
        );
        // A singleton middle run is dropped from the directory outright.
        let mut members = runs_of(&[&[1, 2, 3], &[5], &[8, 9]]);
        members.remove(MinerId(5));
        assert_runs(&members, &[1, 2, 3, 8, 9]);
        assert_eq!(maxes(&members), vec![3, 9]);
        assert_eq!(members.successor(MinerId(4)), Some(MinerId(8)));
    }

    #[test]
    fn member_runs_successor_crosses_runs_and_stops_at_the_end() {
        // Even ids, so every run boundary has a gap to land in.
        let fill = LOAD_FILL;
        let members = loaded((0..3 * fill as u32).map(|q| 2 * q));
        let last = |run: usize| 2 * (run * fill - 1);
        assert_eq!(maxes(&members), [1, 2, 3].map(|r| last(r) as u32));
        let succ = |q: usize| members.successor(MinerId(q));
        assert_eq!(succ(last(1)), Some(MinerId(last(1))));
        assert_eq!(succ(last(1) + 1), Some(MinerId(last(1) + 2)));
        assert_eq!(succ(last(2) + 1), Some(MinerId(last(2) + 2)));
        assert_eq!(succ(last(3)), Some(MinerId(last(3))));
        assert_eq!(succ(last(3) + 1), None);
        assert_eq!(members.successor(MinerId(usize::MAX)), None);
        assert_eq!(MemberRuns::default().successor(MinerId(0)), None);
    }

    #[test]
    fn member_runs_min_after_the_head_run_empties() {
        let fill = LOAD_FILL as u32;
        let mut members = loaded(0..3 * fill);
        for q in 0..fill {
            assert_eq!(members.first(), Some(MinerId(q as usize)));
            members.remove(MinerId(q as usize));
        }
        assert_runs(&members, &(fill..3 * fill).collect::<Vec<_>>());
        let mut members = runs_of(&[&[4], &[10, 11], &[20]]);
        members.remove(MinerId(4));
        assert_runs(&members, &[10, 11, 20]);
        // The last member out leaves an empty group.
        let mut members = runs_of(&[&[4]]);
        members.remove(MinerId(4));
        assert_runs(&members, &[]);
        assert_eq!(members.successor(MinerId(0)), None);
    }

    #[test]
    fn validates_start_shape() {
        let game = Game::build(&[2, 1], &[1, 1]).unwrap();
        let other = Game::build(&[1, 1, 1], &[1, 1]).unwrap();
        let foreign = Configuration::uniform(CoinId(0), other.system()).unwrap();
        assert!(matches!(
            MassTracker::new(&game, &foreign),
            Err(GameError::ConfigLengthMismatch { .. })
        ));
    }

    #[test]
    fn matches_naive_queries_after_moves() {
        let game = Game::build(&[5, 3, 3, 2, 1], &[9, 4, 2]).unwrap();
        let start = cfg(&game, &[0, 0, 1, 2, 0]);
        let mut t = MassTracker::new(&game, &start).unwrap();
        let moves = [
            (MinerId(0), CoinId(1)),
            (MinerId(4), CoinId(2)),
            (MinerId(2), CoinId(0)),
            (MinerId(0), CoinId(0)),
        ];
        for (p, c) in moves {
            t.apply(p, c);
            let s = t.config().clone();
            let masses = s.masses(game.system());
            assert_eq!(t.masses(), &masses);
            assert_eq!(t.rpu_list(), potential::rpu_list(&game, &s));
            assert_eq!(
                t.symmetric_potential(),
                potential::symmetric_potential(&game, &s)
            );
            assert_eq!(t.improving_moves(), game.improving_moves(&s));
            assert_eq!(t.unstable_miners(), game.unstable_miners(&s));
            assert_eq!(t.is_stable(), game.is_stable(&s));
            for p in game.system().miner_ids() {
                assert_eq!(t.payoff(p), game.payoff(p, &s));
                assert_eq!(t.best_response(p), game.best_response(p, &s, &masses));
            }
        }
    }

    #[test]
    fn undo_round_trips() {
        let game = Game::build(&[4, 2, 1], &[6, 3]).unwrap();
        let start = Configuration::uniform(CoinId(0), game.system()).unwrap();
        let mut t = MassTracker::new(&game, &start).unwrap();
        let baseline = t.symmetric_potential();
        t.apply(MinerId(1), CoinId(1));
        t.apply(MinerId(2), CoinId(1));
        t.apply(MinerId(2), CoinId(1)); // same-coin no-op still undoes
        assert_eq!(t.depth(), 3);
        while t.undo().is_some() {}
        assert_eq!(t.config(), &start);
        assert_eq!(t.masses(), &start.masses(game.system()));
        assert_eq!(t.symmetric_potential(), baseline);
        assert_eq!(t.depth(), 0);
        assert_eq!(t.undo(), None);
    }

    #[test]
    fn groups_collapse_equal_powers() {
        // 6 unit miners on one coin: one group; splitting creates a second.
        let game = Game::build(&[1; 6], &[3, 3]).unwrap();
        let start = Configuration::uniform(CoinId(0), game.system()).unwrap();
        let mut t = MassTracker::new(&game, &start).unwrap();
        assert_eq!(t.group_count(), 1);
        t.apply(MinerId(3), CoinId(1));
        assert_eq!(t.group_count(), 2);
        // All members of a group report identical stability.
        let masses = t.config().masses(game.system());
        for p in game.system().miner_ids() {
            assert_eq!(
                t.best_response(p),
                game.best_response(p, t.config(), &masses)
            );
        }
    }

    #[test]
    fn restricted_games_split_groups_per_miner() {
        let game = Game::build(&[1, 1], &[2, 2])
            .unwrap()
            .with_restrictions(vec![vec![true, false], vec![true, true]])
            .unwrap();
        let start = Configuration::uniform(CoinId(0), game.system()).unwrap();
        let t = MassTracker::new(&game, &start).unwrap();
        assert_eq!(t.group_count(), 2);
        // p0 may not leave c0; p1 may.
        assert_eq!(t.best_response(MinerId(0)), None);
        assert_eq!(t.best_response(MinerId(1)), Some(CoinId(1)));
        assert_eq!(t.improving_moves(), game.improving_moves(t.config()));
    }

    #[test]
    fn find_improving_move_drives_convergence() {
        let game = Game::build(&[8, 5, 3, 2, 1, 1], &[9, 6, 2]).unwrap();
        let start = Configuration::uniform(CoinId(0), game.system()).unwrap();
        let mut t = MassTracker::new(&game, &start).unwrap();
        let mut steps = 0;
        while let Some(mv) = t.find_improving_move() {
            assert!(t.is_better_response(mv.miner, mv.to), "{mv} not improving");
            t.apply(mv.miner, mv.to);
            steps += 1;
            assert!(steps < 10_000, "did not converge");
        }
        assert!(t.is_stable());
        assert!(game.is_stable(t.config()));
        assert!(steps >= 2);
    }

    #[test]
    fn potential_accumulator_tracks_occupancy() {
        let game = Game::build(&[2, 1], &[5, 5]).unwrap();
        let start = Configuration::uniform(CoinId(0), game.system()).unwrap();
        let mut t = MassTracker::new(&game, &start).unwrap();
        assert_eq!(t.symmetric_potential(), Extended::Infinite);
        t.apply(MinerId(1), CoinId(1));
        assert_eq!(
            t.symmetric_potential(),
            Extended::Finite(Ratio::new(3, 2).unwrap())
        );
        t.undo();
        assert_eq!(t.symmetric_potential(), Extended::Infinite);
    }

    #[test]
    fn undo_recording_can_be_disabled() {
        let game = Game::build(&[4, 2, 1], &[6, 3]).unwrap();
        let start = Configuration::uniform(CoinId(0), game.system()).unwrap();
        let mut t = MassTracker::new(&game, &start).unwrap();
        t.apply(MinerId(0), CoinId(1));
        t.set_undo_recording(false);
        t.apply(MinerId(1), CoinId(1));
        t.apply(MinerId(2), CoinId(1));
        // Only the recorded move is on the stack; state is still exact.
        assert_eq!(t.depth(), 1);
        assert_eq!(t.masses(), &t.config().masses(game.system()));
        let undone = t.undo().unwrap();
        assert_eq!(undone.miner, MinerId(0));
        assert_eq!(t.undo(), None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn apply_rejects_unknown_coins() {
        let game = Game::build(&[2, 1], &[1, 1]).unwrap();
        let start = Configuration::uniform(CoinId(0), game.system()).unwrap();
        let mut t = MassTracker::new(&game, &start).unwrap();
        t.apply(MinerId(0), CoinId(7));
    }

    #[test]
    fn into_config_returns_current_state() {
        let game = Game::build(&[2, 1], &[1, 1]).unwrap();
        let start = Configuration::uniform(CoinId(0), game.system()).unwrap();
        let mut t = MassTracker::new(&game, &start).unwrap();
        t.apply(MinerId(1), CoinId(1));
        let final_config = t.into_config();
        assert_eq!(final_config.coin_of(MinerId(1)), CoinId(1));
    }

    // ------------------------------------------------------------------
    // Churn deltas
    // ------------------------------------------------------------------

    #[test]
    fn insert_and_remove_patch_masses_and_groups() {
        let game = Game::build(&[4, 2, 1], &[6, 3]).unwrap();
        let start = Configuration::uniform(CoinId(0), game.system()).unwrap();
        let mut t =
            MassTracker::with_activity(&game, &start, &[true, true, false], &[true, true]).unwrap();
        assert_eq!(t.active_miner_count(), 2);
        assert_eq!(t.mass_of(CoinId(0)), 6);
        assert_eq!(t.payoff(MinerId(2)), Ratio::ZERO);

        // p2 arrives by best response: the empty coin 1 pays 3/1 > 6/7.
        let applied = t
            .apply_delta(Delta::InsertMiner {
                miner: MinerId(2),
                coin: None,
            })
            .unwrap();
        assert_eq!(
            applied,
            AppliedDelta::InsertMiner {
                miner: MinerId(2),
                coin: CoinId(1),
                previous: CoinId(0)
            }
        );
        assert_eq!(t.mass_of(CoinId(1)), 1);
        assert_eq!(t.active_miner_count(), 3);

        // Departures free the mass again.
        t.apply_delta(Delta::RemoveMiner { miner: MinerId(0) })
            .unwrap();
        assert_eq!(t.mass_of(CoinId(0)), 2);
        assert_eq!(t.active_miner_count(), 2);
        assert!(!t.is_miner_active(MinerId(0)));

        // Deltas are rejected with named errors, not silent corruption.
        assert_eq!(
            t.apply_delta(Delta::RemoveMiner { miner: MinerId(0) }),
            Err(GameError::MinerInactive { miner: MinerId(0) })
        );
        assert_eq!(
            t.apply_delta(Delta::InsertMiner {
                miner: MinerId(2),
                coin: None
            }),
            Err(GameError::MinerActive { miner: MinerId(2) })
        );
        assert_eq!(
            t.apply_delta(Delta::Move {
                miner: MinerId(0),
                to: CoinId(1)
            }),
            Err(GameError::MinerInactive { miner: MinerId(0) })
        );

        // Full rewind restores the initial activity state exactly.
        while t.undo_delta().is_some() {}
        assert_eq!(t.active_miner_count(), 2);
        assert_eq!(t.mass_of(CoinId(0)), 6);
        assert_eq!(t.mass_of(CoinId(1)), 0);
        assert!(!t.is_miner_active(MinerId(2)));
    }

    #[test]
    fn launch_and_retire_toggle_the_coin_universe() {
        // Coin 2 starts dormant; after launch it attracts a mover; the
        // retirement of coin 1 forcibly relocates its residents.
        let game = Game::build(&[3, 2, 1], &[6, 3, 4]).unwrap();
        let start = cfg(&game, &[0, 1, 1]);
        let mut t =
            MassTracker::with_activity(&game, &start, &[true; 3], &[true, true, false]).unwrap();
        assert_eq!(t.active_coin_count(), 2);
        // The dormant coin is invisible to every query.
        assert_eq!(t.rpu_list().len(), 2);
        assert!(t
            .better_responses(MinerId(2))
            .iter()
            .all(|&c| c != CoinId(2)));
        assert_eq!(
            t.apply_delta(Delta::Move {
                miner: MinerId(2),
                to: CoinId(2)
            }),
            Err(GameError::CoinInactive { coin: CoinId(2) })
        );

        t.apply_delta(Delta::LaunchCoin { coin: CoinId(2) })
            .unwrap();
        assert_eq!(t.active_coin_count(), 3);
        assert_eq!(
            t.apply_delta(Delta::LaunchCoin { coin: CoinId(2) }),
            Err(GameError::CoinActive { coin: CoinId(2) })
        );
        // The fresh coin pays 4/(1+1) = 2 to p2 vs 3/3 = 1 staying: a
        // better response the launch made legal.
        assert!(t.is_better_response(MinerId(2), CoinId(2)));
        t.apply(MinerId(2), CoinId(2));

        // Retiring coin 1 relocates p1 (power 2): targets pay 6/5 (c0)
        // vs 4/3 (c2) — forced best response picks c2.
        let applied = t
            .apply_delta(Delta::RetireCoin { coin: CoinId(1) })
            .unwrap();
        let AppliedDelta::RetireCoin { coin, relocations } = &applied else {
            panic!("expected a retirement, got {applied}");
        };
        assert_eq!(*coin, CoinId(1));
        assert_eq!(
            relocations.as_slice(),
            &[Move {
                miner: MinerId(1),
                from: CoinId(1),
                to: CoinId(2)
            }]
        );
        assert_eq!(t.mass_of(CoinId(1)), 0);
        assert!(!t.is_coin_active(CoinId(1)));
        // The whole history unwinds exactly.
        while t.undo_delta().is_some() {}
        assert_eq!(t.config(), &start);
        assert_eq!(t.masses(), &start.masses(game.system()));
        assert!(!t.is_coin_active(CoinId(2)));
        assert!(t.is_coin_active(CoinId(1)));
    }

    #[test]
    fn retirement_is_atomic_when_a_restricted_miner_is_stranded() {
        // p0 may only mine c0: retiring c0 must fail atomically.
        let game = Game::build(&[2, 1], &[1, 1])
            .unwrap()
            .with_restrictions(vec![vec![true, false], vec![true, true]])
            .unwrap();
        let start = Configuration::uniform(CoinId(0), game.system()).unwrap();
        let mut t = MassTracker::new(&game, &start).unwrap();
        let before = t.clone();
        assert_eq!(
            t.apply_delta(Delta::RetireCoin { coin: CoinId(0) }),
            Err(GameError::NoPlacement { miner: MinerId(0) })
        );
        assert_eq!(t.config(), before.config());
        assert_eq!(t.masses(), before.masses());
        assert_eq!(t.active_coin_count(), 2);
        assert_eq!(t.depth(), 0);
        // Retiring c1 instead relocates p1 back onto its permitted coin.
        let applied = t.apply_delta(Delta::RetireCoin { coin: CoinId(1) });
        assert!(applied.is_ok());
        assert_eq!(t.coin_of(MinerId(1)), CoinId(0));
    }

    #[test]
    fn active_subgame_projects_the_churned_state() {
        let game = Game::build(&[5, 3, 2, 1], &[9, 4, 2]).unwrap();
        let start = cfg(&game, &[0, 1, 1, 2]);
        let mut t = MassTracker::new(&game, &start).unwrap();
        // All-active: the projection is the identity on ids.
        let sub = t.active_subgame().unwrap();
        assert_eq!(sub.game.system().num_miners(), 4);
        assert_eq!(sub.config, start);

        t.apply_delta(Delta::RemoveMiner { miner: MinerId(1) })
            .unwrap();
        t.apply_delta(Delta::RetireCoin { coin: CoinId(2) })
            .unwrap();
        let sub = t.active_subgame().unwrap();
        assert_eq!(sub.miners, vec![MinerId(0), MinerId(2), MinerId(3)]);
        assert_eq!(sub.coins, vec![CoinId(0), CoinId(1)]);
        assert_eq!(sub.game.system().num_miners(), 3);
        assert_eq!(sub.game.system().num_coins(), 2);
        // Dense masses equal the tracker's masses on the live coins.
        let dense_masses = sub.config.masses(sub.game.system());
        for (dense, &c) in sub.coins.iter().enumerate() {
            assert_eq!(dense_masses.mass_of(CoinId(dense)), t.mass_of(c));
        }
        // Tracker stability answers exactly as the naive dense oracle.
        assert_eq!(t.is_stable(), sub.game.is_stable(&sub.config));
    }

    #[test]
    #[should_panic(expected = "population delta")]
    fn move_only_undo_rejects_population_deltas() {
        let game = Game::build(&[2, 1], &[1, 1]).unwrap();
        let start = Configuration::uniform(CoinId(0), game.system()).unwrap();
        let mut t = MassTracker::new(&game, &start).unwrap();
        t.apply_delta(Delta::RemoveMiner { miner: MinerId(1) })
            .unwrap();
        t.undo();
    }

    #[test]
    fn with_activity_rejects_active_miners_on_dormant_coins() {
        let game = Game::build(&[2, 1], &[1, 1]).unwrap();
        let start = cfg(&game, &[0, 1]);
        assert_eq!(
            MassTracker::with_activity(&game, &start, &[true, true], &[true, false]).err(),
            Some(GameError::CoinInactive { coin: CoinId(1) })
        );
        // A dormant miner may point at a dormant coin.
        let t = MassTracker::with_activity(&game, &start, &[true, false], &[true, false]).unwrap();
        assert_eq!(t.active_miner_count(), 1);
        assert_eq!(t.active_coin_count(), 1);
    }
}
