//! The better-response learning engine.
//!
//! A *better-response learning* from `s` (paper §2) is a sequence of
//! individual improvement steps that either is infinite or ends in a
//! stable configuration. Theorem 1 shows the infinite case cannot happen;
//! [`Dynamics`] executes the sequence for any [`Scheduler`] and reports
//! the convergence point, step count, and (optionally) the full improving
//! path with a potential-monotonicity audit.
//!
//! The engine rides on `goc_game`'s incremental layers: [`MassTracker`]
//! maintains masses, payoffs, and the potential audit under single-move
//! deltas, and a scheduled run hands its scheduler a [`MoveSource`] —
//! lazy move discovery over the tracker's strategic groups — through
//! [`Scheduler::pick_incremental`]. No step materializes the per-miner
//! improving-move list, so **every** bundled [`SchedulerKind`] converges
//! 100k–250k-miner games, not just the scheduler-free group round-robin.
//! The eager [`Scheduler::pick_with`] path survives as the oracle the
//! equivalence suite pins the lazy picks to.
//!
//! [`SchedulerKind`]: crate::scheduler::SchedulerKind

use std::fmt;

use goc_game::{Configuration, Delta, Game, GameError, MassTracker, Move, MoveSource, Snapshot};

use crate::instrument::{Instrument, NoInstrument};
use crate::scheduler::{Scheduler, SchedulerError};

/// One scheduled churn delta of a learning run: `delta` arrives once the
/// dynamics have taken `at_step` better-response steps (churn "time" is
/// step count — the paper's dynamics are sequential, so interleaving by
/// step index is the natural clock).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnEvent {
    /// Number of better-response steps after which the delta fires.
    pub at_step: usize,
    /// The population / coin-lifecycle transition.
    pub delta: Delta,
}

/// A churn schedule threaded through a learning run: the initial activity
/// state of the universe plus an interleaved delta stream. The engine
/// applies every event whose `at_step` has been reached *before* the next
/// scheduler pick; when the population is stable but events remain, time
/// fast-forwards to the next arrival (an equilibrium only lasts until the
/// market changes under it).
///
/// `None` activity masks mean "everything active" — the default plan is
/// a plain fixed-population run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChurnPlan {
    /// Initial miner activity (`None` = all active).
    pub miner_active: Option<Vec<bool>>,
    /// Initial coin activity (`None` = all live).
    pub coin_active: Option<Vec<bool>>,
    /// The delta stream (applied in `at_step` order, ties in list order).
    pub events: Vec<ChurnEvent>,
}

impl ChurnPlan {
    /// Builds a plan from activity masks and `(at_step, delta)` pairs
    /// (the shape `goc_sim`'s `ChurnUniverse::step_deltas` produces).
    pub fn with_events(
        miner_active: Option<Vec<bool>>,
        coin_active: Option<Vec<bool>>,
        events: impl IntoIterator<Item = (usize, Delta)>,
    ) -> Self {
        ChurnPlan {
            miner_active,
            coin_active,
            events: events
                .into_iter()
                .map(|(at_step, delta)| ChurnEvent { at_step, delta })
                .collect(),
        }
    }

    /// Whether the plan changes anything relative to a plain run.
    pub fn is_trivial(&self) -> bool {
        self.miner_active.is_none() && self.coin_active.is_none() && self.events.is_empty()
    }

    /// Event indices in application order (`at_step`, ties by position).
    fn order(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.events.len()).collect();
        order.sort_by_key(|&i| self.events[i].at_step);
        order
    }
}

/// Options controlling a learning run.
#[derive(Debug, Clone, Copy)]
pub struct LearningOptions {
    /// Hard cap on steps. Theorem 1 guarantees termination, so hitting the
    /// cap signals either an enormous game or a bug; the outcome then has
    /// `converged == false`.
    pub max_steps: usize,
    /// Record the full improving path in the outcome.
    pub record_path: bool,
    /// After every step, assert that the ordinal potential strictly
    /// increased (expensive: `O(|C| log |C|)` per step). Intended for
    /// tests and the Theorem 1 experiment.
    pub audit_potential: bool,
}

impl Default for LearningOptions {
    fn default() -> Self {
        LearningOptions {
            max_steps: 1_000_000,
            record_path: false,
            audit_potential: false,
        }
    }
}

/// Result of a learning run.
#[derive(Debug, Clone)]
pub struct LearningOutcome {
    /// The final configuration (stable iff `converged`).
    pub final_config: Configuration,
    /// Number of better-response steps taken.
    pub steps: usize,
    /// Whether a stable configuration was reached within `max_steps`.
    pub converged: bool,
    /// The improving path, if requested.
    pub path: Vec<Move>,
    /// `Some(true)` if auditing was enabled and every step strictly
    /// increased the ordinal potential (`Some(false)` is impossible —
    /// a violation aborts the run with an error).
    pub potential_audit: Option<bool>,
    /// Number of churn deltas applied during the run (0 without a plan).
    pub churn_applied: usize,
    /// Lifetime count of `O(coins)` group-decision cache re-probes the
    /// run's [`MoveSource`] performed (0 for the scheduler-free
    /// incremental engine, which rides the tracker directly). The
    /// telemetry layer surfaces this as
    /// `goc_dynamics_cache_reprobes_total`.
    pub cache_reprobes: u64,
    /// Final `(miner, coin)` activity masks, when the run had a
    /// non-trivial [`ChurnPlan`] (`None` for fixed-population runs —
    /// everything stayed active).
    pub final_activity: Option<(Vec<bool>, Vec<bool>)>,
}

/// Errors produced by the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum LearningError {
    /// The scheduler returned a move that is not a legal better response —
    /// failure injection for buggy schedulers.
    NotABetterResponse {
        /// The offending move.
        mv: Move,
    },
    /// Potential auditing found a step that did not increase the ordinal
    /// potential (would falsify Theorem 1; indicates an engine bug).
    PotentialViolation {
        /// The offending move.
        mv: Move,
        /// Step index at which the violation occurred.
        step: usize,
    },
    /// The scheduler reported an internal inconsistency instead of a
    /// pick (see [`SchedulerError`]).
    SchedulerFailed(SchedulerError),
    /// A scheduled churn delta was illegal in the state it arrived in
    /// (e.g. removing an already-removed miner, retiring a coin whose
    /// restricted residents have nowhere to go).
    ChurnRejected {
        /// Step count at which the delta fired.
        step: usize,
        /// The underlying delta validation error.
        error: GameError,
    },
    /// [`Dynamics::from_snapshot`] was given a snapshot whose game does
    /// not equal the builder's game — the fork would evaluate the wrong
    /// payoffs.
    SnapshotMismatch,
    /// [`Dynamics::run`] was called without a starting state: none of
    /// [`Dynamics::start`], [`Dynamics::from_snapshot`], or
    /// [`Dynamics::from_tracker`] was provided.
    MissingStart,
}

impl fmt::Display for LearningError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LearningError::NotABetterResponse { mv } => {
                write!(f, "scheduler returned a non-improving move ({mv})")
            }
            LearningError::PotentialViolation { mv, step } => write!(
                f,
                "ordinal potential failed to increase at step {step} ({mv})"
            ),
            LearningError::SchedulerFailed(err) => write!(f, "{err}"),
            LearningError::ChurnRejected { step, error } => {
                write!(f, "churn delta rejected at step {step}: {error}")
            }
            LearningError::SnapshotMismatch => {
                write!(
                    f,
                    "snapshot captures a different game than the dynamics run"
                )
            }
            LearningError::MissingStart => {
                write!(
                    f,
                    "dynamics need a starting state (start, from_snapshot, or from_tracker)"
                )
            }
        }
    }
}

impl std::error::Error for LearningError {}

impl From<SchedulerError> for LearningError {
    fn from(err: SchedulerError) -> Self {
        LearningError::SchedulerFailed(err)
    }
}

/// Builds the tracker for a plan's initial activity state.
fn churn_tracker<'g>(
    game: &'g Game,
    start: &Configuration,
    plan: &ChurnPlan,
) -> Result<MassTracker<'g>, LearningError> {
    if plan.miner_active.is_none() && plan.coin_active.is_none() {
        return Ok(MassTracker::new(game, start)
            .expect("start configuration belongs to the game's system"));
    }
    let n = game.system().num_miners();
    let k = game.system().num_coins();
    let miner_active = plan.miner_active.clone().unwrap_or_else(|| vec![true; n]);
    let coin_active = plan.coin_active.clone().unwrap_or_else(|| vec![true; k]);
    MassTracker::with_activity(game, start, &miner_active, &coin_active)
        .map_err(|error| LearningError::ChurnRejected { step: 0, error })
}

/// The scheduled engine: churn interleaving and scheduler picks over a
/// [`MoveSource`] built on `tracker`. The plan's activity masks are not
/// consulted — the tracker already carries its activity state.
fn scheduled_engine(
    tracker: MassTracker<'_>,
    scheduler: &mut dyn Scheduler,
    options: LearningOptions,
    plan: &ChurnPlan,
    instrument: &mut dyn Instrument,
) -> Result<LearningOutcome, LearningError> {
    let mut source = MoveSource::over(tracker);
    // The run never rewinds; don't retain an O(steps) undo history.
    source.set_undo_recording(false);
    let order = plan.order();
    let every = instrument.checkpoint_every();
    let mut next = 0usize;
    let mut churn_applied = 0usize;
    let mut path = Vec::new();
    let mut steps = 0usize;

    let finish = |source: MoveSource<'_>, steps, converged, path, churn_applied| {
        let final_activity = (!plan.is_trivial()).then(|| {
            (
                source.tracker().miner_activity().to_vec(),
                source.tracker().coin_activity().to_vec(),
            )
        });
        let cache_reprobes = source.reprobe_count();
        LearningOutcome {
            final_config: source.into_config(),
            steps,
            converged,
            path,
            potential_audit: options.audit_potential.then_some(true),
            churn_applied,
            cache_reprobes,
            final_activity,
        }
    };

    loop {
        if steps >= options.max_steps {
            return Ok(finish(source, steps, false, path, churn_applied));
        }
        // Churn due at this step count arrives before the next pick; the
        // cache repair is incremental, so the stability sweep after it
        // only re-probes the dirtied groups.
        while next < order.len() && plan.events[order[next]].at_step <= steps {
            let event = &plan.events[order[next]];
            source
                .apply_delta(event.delta)
                .map_err(|error| LearningError::ChurnRejected { step: steps, error })?;
            churn_applied += 1;
            next += 1;
            instrument.on_delta(steps, event.delta);
        }
        // The stability sweep warms the source's group-decision cache;
        // the scheduler's pick right after reuses it.
        if source.is_stable() {
            if next < order.len() {
                // Stable, but more churn is scheduled: fast-forward to
                // the next arrival (equilibria only last until the
                // market changes under them).
                let event = &plan.events[order[next]];
                source
                    .apply_delta(event.delta)
                    .map_err(|error| LearningError::ChurnRejected { step: steps, error })?;
                churn_applied += 1;
                next += 1;
                instrument.on_delta(steps, event.delta);
                continue;
            }
            return Ok(finish(source, steps, true, path, churn_applied));
        }
        let mv = scheduler.pick_incremental(&mut source)?;
        if !source.is_better_response(mv.miner, mv.to) {
            return Err(LearningError::NotABetterResponse { mv });
        }
        let before = options.audit_potential.then(|| source.rpu_list());
        source.apply(mv.miner, mv.to);
        if let Some(before) = before {
            // Theorem 1's ordinal potential is the sorted RPU list; the
            // tracker yields it in O(coins log coins) with no rescan.
            // (Churn re-shapes the list, so the audit is per-move: the
            // `before` snapshot is taken after any churn this round.)
            if source.rpu_list() <= before {
                return Err(LearningError::PotentialViolation { mv, step: steps });
            }
        }
        if options.record_path {
            path.push(mv);
        }
        instrument.on_step(source.config(), mv);
        steps += 1;
        if every > 0 && steps.is_multiple_of(every) {
            instrument.on_checkpoint(steps, &Snapshot::of(source.tracker()));
        }
    }
}

/// A periodic checkpoint sink for long churny runs: every `every`
/// better-response steps the engine captures the tracker as a
/// [`Snapshot`] and hands it (with the step count) to `sink`. Attach it
/// with [`Dynamics::instrument`]. Encode the snapshot to persist it;
/// decode + [`Dynamics::from_snapshot`] warm-starts the run from where
/// the checkpoint left off.
pub struct CheckpointHook<'a> {
    /// Steps between checkpoints (values below 1 behave as 1).
    pub every: usize,
    /// Receives `(steps_so_far, snapshot)` at each checkpoint.
    pub sink: &'a mut dyn FnMut(usize, Snapshot),
}

/// A checkpoint hook is an [`Instrument`] that only listens for
/// checkpoints.
impl Instrument for CheckpointHook<'_> {
    fn checkpoint_every(&self) -> usize {
        self.every.max(1)
    }

    fn on_checkpoint(&mut self, step: usize, snapshot: &Snapshot) {
        (self.sink)(step, snapshot.clone());
    }
}

/// The scheduler-free engine: churn interleaving and the tracker's own
/// group round-robin ([`MassTracker::find_improving_move`]) — the
/// leanest loop, and the recorded `BENCH_*.json` dynamics workload.
fn incremental_engine(
    mut tracker: MassTracker<'_>,
    options: LearningOptions,
    plan: &ChurnPlan,
    instrument: &mut dyn Instrument,
) -> Result<LearningOutcome, LearningError> {
    // The run never rewinds; don't retain an O(steps) undo history.
    tracker.set_undo_recording(false);
    let order = plan.order();
    let every = instrument.checkpoint_every();
    let mut next = 0usize;
    let mut churn_applied = 0usize;
    let mut path = Vec::new();
    let mut steps = 0usize;

    let finish = |tracker: MassTracker<'_>, steps, converged, path, churn_applied| {
        let final_activity = (!plan.is_trivial()).then(|| {
            (
                tracker.miner_activity().to_vec(),
                tracker.coin_activity().to_vec(),
            )
        });
        LearningOutcome {
            final_config: tracker.into_config(),
            steps,
            converged,
            path,
            potential_audit: options.audit_potential.then_some(true),
            churn_applied,
            // The incremental engine rides the tracker directly; there
            // is no MoveSource decision cache to re-probe.
            cache_reprobes: 0,
            final_activity,
        }
    };

    loop {
        if steps >= options.max_steps {
            return Ok(finish(tracker, steps, false, path, churn_applied));
        }
        while next < order.len() && plan.events[order[next]].at_step <= steps {
            let event = &plan.events[order[next]];
            tracker
                .apply_delta(event.delta)
                .map_err(|error| LearningError::ChurnRejected { step: steps, error })?;
            churn_applied += 1;
            next += 1;
            instrument.on_delta(steps, event.delta);
        }
        let Some(mv) = tracker.find_improving_move() else {
            if next < order.len() {
                // Stable, but more churn is scheduled: fast-forward.
                let event = &plan.events[order[next]];
                tracker
                    .apply_delta(event.delta)
                    .map_err(|error| LearningError::ChurnRejected { step: steps, error })?;
                churn_applied += 1;
                next += 1;
                instrument.on_delta(steps, event.delta);
                continue;
            }
            return Ok(finish(tracker, steps, true, path, churn_applied));
        };
        let before = options.audit_potential.then(|| tracker.rpu_list());
        tracker.apply(mv.miner, mv.to);
        if let Some(before) = before {
            if tracker.rpu_list() <= before {
                return Err(LearningError::PotentialViolation { mv, step: steps });
            }
        }
        if options.record_path {
            path.push(mv);
        }
        instrument.on_step(tracker.config(), mv);
        steps += 1;
        if every > 0 && steps.is_multiple_of(every) {
            instrument.on_checkpoint(steps, &Snapshot::of(&tracker));
        }
    }
}

/// The **single entry point** of the learning engine: a builder that
/// assembles a better-response run from its independent ingredients —
/// where to start (a configuration, a [`Snapshot`], or a live
/// [`MassTracker`]), who picks the moves (a [`Scheduler`], or the
/// tracker's own group round-robin when none is given), what churns
/// (a [`ChurnPlan`]), and what watches (an [`Instrument`] — per-step,
/// per-delta, and periodic-checkpoint callbacks in one trait).
///
/// Starting-state precedence when several are set:
/// [`Dynamics::from_tracker`] > [`Dynamics::from_snapshot`] >
/// [`Dynamics::start`]. With a tracker or snapshot start, the churn
/// plan's activity *masks* are ignored (the forked state already
/// carries its activity); only the delta stream is consulted.
///
/// # Examples
///
/// The scheduler-free incremental engine (the `BENCH_*.json` dynamics
/// workload):
///
/// ```
/// use goc_game::{CoinId, Configuration, Game};
/// use goc_learning::Dynamics;
///
/// let game = Game::build(&[3, 3, 1, 1], &[6, 2])?;
/// let start = Configuration::uniform(CoinId(0), game.system())?;
/// let outcome = Dynamics::new(&game).start(&start).run()?;
/// assert!(outcome.converged);
/// assert!(game.is_stable(&outcome.final_config));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// A scheduled run with a step observer (any
/// `FnMut(&Configuration, Move)` closure is an [`Instrument`]):
///
/// ```
/// use goc_game::{CoinId, Configuration, Game, Move};
/// use goc_learning::{Dynamics, RoundRobin};
///
/// let game = Game::build(&[2, 1], &[1, 1])?;
/// let start = Configuration::uniform(CoinId(0), game.system())?;
/// let mut trace = Vec::new();
/// let outcome = Dynamics::new(&game)
///     .start(&start)
///     .scheduler(&mut RoundRobin::new())
///     .instrument(&mut |_: &Configuration, mv: Move| trace.push(mv))
///     .run()?;
/// assert_eq!(trace.len(), outcome.steps);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Dynamics<'g, 'a> {
    game: &'g Game,
    start: Option<Configuration>,
    snapshot: Option<&'a Snapshot>,
    tracker: Option<MassTracker<'g>>,
    scheduler: Option<&'a mut dyn Scheduler>,
    options: LearningOptions,
    plan: Option<&'a ChurnPlan>,
    instrument: Option<&'a mut dyn Instrument>,
}

impl<'g, 'a> Dynamics<'g, 'a> {
    /// Starts assembling a run over `game` with default options, no
    /// churn, and the scheduler-free incremental engine.
    pub fn new(game: &'g Game) -> Self {
        Dynamics {
            game,
            start: None,
            snapshot: None,
            tracker: None,
            scheduler: None,
            options: LearningOptions::default(),
            plan: None,
            instrument: None,
        }
    }

    /// Starts from `start` (validated against the game's system when the
    /// run launches; the churn plan's activity masks, if any, set the
    /// time-zero universe state).
    pub fn start(mut self, start: &Configuration) -> Self {
        self.start = Some(start.clone());
        self
    }

    /// Warm-starts from a [`Snapshot`]: the run forks the captured
    /// state onto the builder's game ([`LearningError::SnapshotMismatch`]
    /// if they differ), resuming the round-robin exactly where the
    /// original stood.
    pub fn from_snapshot(mut self, snapshot: &'a Snapshot) -> Self {
        self.snapshot = Some(snapshot);
        self
    }

    /// Warm-starts from a live tracker — a [`Snapshot::fork`], a
    /// checkpoint restore, or any tracker mid-dynamics.
    pub fn from_tracker(mut self, tracker: MassTracker<'g>) -> Self {
        self.tracker = Some(tracker);
        self
    }

    /// Lets `scheduler` pick the moves (through the incremental
    /// [`MoveSource`] protocol). Without a scheduler the run uses the
    /// tracker's own group round-robin — the leanest loop.
    pub fn scheduler(mut self, scheduler: &'a mut dyn Scheduler) -> Self {
        self.scheduler = Some(scheduler);
        self
    }

    /// Sets the run options (step cap, path recording, potential audit).
    pub fn options(mut self, options: LearningOptions) -> Self {
        self.options = options;
        self
    }

    /// Interleaves `plan`'s delta stream with the dynamics (see
    /// [`ChurnPlan`]).
    pub fn churn(mut self, plan: &'a ChurnPlan) -> Self {
        self.plan = Some(plan);
        self
    }

    /// Threads `instrument` through the run — the single watching
    /// seam: per-step, per-delta, and periodic-checkpoint callbacks in
    /// one trait (see [`Instrument`]). Step-observer closures
    /// `FnMut(&Configuration, Move)` are instruments via the blanket
    /// impl, as is [`CheckpointHook`]; telemetry attaches the same way
    /// ([`DynamicsTelemetry`]).
    ///
    /// [`DynamicsTelemetry`]: crate::instrument::DynamicsTelemetry
    pub fn instrument(mut self, instrument: &'a mut dyn Instrument) -> Self {
        self.instrument = Some(instrument);
        self
    }

    /// Launches the run.
    ///
    /// # Errors
    ///
    /// * [`LearningError::MissingStart`] without a starting state.
    /// * [`LearningError::SnapshotMismatch`] if a snapshot start
    ///   captures a different game.
    /// * The engine errors:
    ///   [`LearningError::NotABetterResponse`],
    ///   [`LearningError::PotentialViolation`],
    ///   [`LearningError::SchedulerFailed`],
    ///   [`LearningError::ChurnRejected`].
    pub fn run(self) -> Result<LearningOutcome, LearningError> {
        let default_plan = ChurnPlan::default();
        let plan = self.plan.unwrap_or(&default_plan);
        let tracker = if let Some(tracker) = self.tracker {
            tracker
        } else if let Some(snapshot) = self.snapshot {
            snapshot
                .fork_into(self.game)
                .map_err(|_| LearningError::SnapshotMismatch)?
        } else if let Some(start) = &self.start {
            churn_tracker(self.game, start, plan)?
        } else {
            return Err(LearningError::MissingStart);
        };
        let mut noop = NoInstrument;
        let instrument: &mut dyn Instrument = match self.instrument {
            Some(instrument) => instrument,
            None => &mut noop,
        };
        match self.scheduler {
            Some(scheduler) => scheduled_engine(tracker, scheduler, self.options, plan, instrument),
            None => incremental_engine(tracker, self.options, plan, instrument),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{MinGain, RoundRobin, SchedulerKind, UniformRandom};
    use goc_game::gen::{GameSpec, PowerDist, RewardDist};
    use goc_game::{CoinId, Configuration, Game};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn converges_on_prop1_game() {
        let game = goc_game::paper::prop1_game();
        let start = Configuration::uniform(CoinId(0), game.system()).unwrap();
        let outcome = Dynamics::new(&game)
            .start(&start)
            .scheduler(&mut RoundRobin::new())
            .run()
            .unwrap();
        assert!(outcome.converged);
        assert!(game.is_stable(&outcome.final_config));
        assert!(outcome.steps >= 1);
    }

    #[test]
    fn all_schedulers_converge_on_random_games_with_audit() {
        let spec = GameSpec {
            miners: 8,
            coins: 3,
            powers: PowerDist::Uniform { lo: 1, hi: 500 },
            rewards: RewardDist::Uniform { lo: 1, hi: 500 },
        };
        let mut rng = SmallRng::seed_from_u64(21);
        for trial in 0..10 {
            let game = spec.sample(&mut rng).unwrap();
            let start = goc_game::gen::random_config(&mut rng, game.system());
            for kind in SchedulerKind::ALL {
                let mut sched = kind.build(trial);
                let outcome = Dynamics::new(&game)
                    .start(&start)
                    .scheduler(sched.as_mut())
                    .options(LearningOptions {
                        audit_potential: true,
                        record_path: true,
                        ..LearningOptions::default()
                    })
                    .run()
                    .unwrap();
                assert!(outcome.converged, "{kind} failed to converge");
                assert!(game.is_stable(&outcome.final_config));
                assert_eq!(outcome.path.len(), outcome.steps);
                assert_eq!(outcome.potential_audit, Some(true));
            }
        }
    }

    #[test]
    fn path_replay_reaches_final_config() {
        let game = goc_game::paper::btc_bch_toy();
        let start = Configuration::uniform(CoinId(1), game.system()).unwrap();
        let outcome = Dynamics::new(&game)
            .start(&start)
            .scheduler(&mut UniformRandom::seeded(5))
            .options(LearningOptions {
                record_path: true,
                ..LearningOptions::default()
            })
            .run()
            .unwrap();
        let mut replay = start.clone();
        for mv in &outcome.path {
            assert_eq!(replay.coin_of(mv.miner), mv.from);
            replay.apply_move(mv.miner, mv.to);
        }
        assert_eq!(replay, outcome.final_config);
    }

    #[test]
    fn step_cap_reports_non_convergence() {
        let game = goc_game::paper::btc_bch_toy();
        let start = Configuration::uniform(CoinId(1), game.system()).unwrap();
        let outcome = Dynamics::new(&game)
            .start(&start)
            .scheduler(&mut MinGain)
            .options(LearningOptions {
                max_steps: 1,
                ..LearningOptions::default()
            })
            .run()
            .unwrap();
        assert!(!outcome.converged);
        assert_eq!(outcome.steps, 1);
    }

    #[test]
    fn rogue_scheduler_is_rejected() {
        struct Rogue;
        impl Scheduler for Rogue {
            // Implements only the eager contract: the engine reaches it
            // through the default (materializing) `pick_incremental`.
            fn pick_with(
                &mut self,
                _game: &Game,
                s: &Configuration,
                _masses: &goc_game::Masses,
                _moves: &[Move],
            ) -> Result<Move, SchedulerError> {
                // Propose a no-op "move" that is never a better response.
                let p = goc_game::MinerId(0);
                Ok(Move {
                    miner: p,
                    from: s.coin_of(p),
                    to: s.coin_of(p),
                })
            }
            fn name(&self) -> &'static str {
                "rogue"
            }
        }
        let game = goc_game::paper::prop1_game();
        let start = Configuration::uniform(CoinId(0), game.system()).unwrap();
        let err = Dynamics::new(&game)
            .start(&start)
            .scheduler(&mut Rogue)
            .run()
            .unwrap_err();
        assert!(matches!(err, LearningError::NotABetterResponse { .. }));
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn observer_sees_every_step() {
        let game = goc_game::paper::btc_bch_toy();
        let start = Configuration::uniform(CoinId(0), game.system()).unwrap();
        let mut observed = 0usize;
        let outcome = Dynamics::new(&game)
            .start(&start)
            .scheduler(&mut RoundRobin::new())
            .instrument(&mut |_: &Configuration, _: Move| observed += 1)
            .run()
            .unwrap();
        assert_eq!(observed, outcome.steps);
    }

    #[test]
    fn stable_start_is_zero_steps() {
        let game = goc_game::paper::prop1_game();
        let eq = goc_game::equilibrium::greedy_equilibrium(&game);
        let outcome = Dynamics::new(&game)
            .start(&eq)
            .scheduler(&mut RoundRobin::new())
            .run()
            .unwrap();
        assert!(outcome.converged);
        assert_eq!(outcome.steps, 0);
        assert_eq!(outcome.final_config, eq);
    }

    #[test]
    fn incremental_path_converges_with_audit_on_random_games() {
        let spec = GameSpec {
            miners: 24,
            coins: 4,
            powers: PowerDist::Uniform { lo: 1, hi: 9 },
            rewards: RewardDist::Uniform { lo: 1, hi: 500 },
        };
        let mut rng = SmallRng::seed_from_u64(77);
        for _ in 0..10 {
            let game = spec.sample(&mut rng).unwrap();
            let start = goc_game::gen::random_config(&mut rng, game.system());
            let outcome = Dynamics::new(&game)
                .start(&start)
                .options(LearningOptions {
                    audit_potential: true,
                    record_path: true,
                    ..LearningOptions::default()
                })
                .run()
                .unwrap();
            assert!(outcome.converged);
            assert!(game.is_stable(&outcome.final_config));
            assert_eq!(outcome.path.len(), outcome.steps);
            assert_eq!(outcome.potential_audit, Some(true));
            // The recorded path replays to the final configuration and
            // every step was an individual better response.
            let mut replay = start.clone();
            for mv in &outcome.path {
                let masses = replay.masses(game.system());
                assert!(game.is_better_response(mv.miner, mv.to, &replay, &masses));
                assert_eq!(replay.coin_of(mv.miner), mv.from);
                replay.apply_move(mv.miner, mv.to);
            }
            assert_eq!(replay, outcome.final_config);
        }
    }

    #[test]
    fn incremental_path_respects_step_cap() {
        let game = goc_game::paper::btc_bch_toy();
        let start = Configuration::uniform(CoinId(1), game.system()).unwrap();
        let outcome = Dynamics::new(&game)
            .start(&start)
            .options(LearningOptions {
                max_steps: 1,
                ..LearningOptions::default()
            })
            .run()
            .unwrap();
        assert!(!outcome.converged);
        assert_eq!(outcome.steps, 1);
    }

    #[test]
    fn incremental_path_handles_restrictions_and_stable_starts() {
        let game = Game::build(&[5, 3, 2, 1], &[4, 4, 4])
            .unwrap()
            .with_restrictions(vec![
                vec![true, true, false],
                vec![true, true, true],
                vec![false, true, true],
                vec![true, false, true],
            ])
            .unwrap();
        let start = Configuration::uniform(CoinId(1), game.system()).unwrap();
        let outcome = Dynamics::new(&game).start(&start).run().unwrap();
        assert!(outcome.converged);
        assert!(game.is_stable(&outcome.final_config));

        let prop1 = goc_game::paper::prop1_game();
        let eq = goc_game::equilibrium::greedy_equilibrium(&prop1);
        let outcome = Dynamics::new(&prop1).start(&eq).run().unwrap();
        assert!(outcome.converged);
        assert_eq!(outcome.steps, 0);
        assert_eq!(outcome.final_config, eq);
    }

    #[test]
    fn incremental_scales_past_population_rescans() {
        // 3k miners in 6 power classes over 3 coins: convergence must
        // take a number of steps linear-ish in the population and stay
        // well under a second (the 100k case is exercised by the `scale`
        // experiment and the benches).
        let classes: [u64; 6] = [1, 2, 3, 5, 8, 13];
        let powers: Vec<u64> = (0..3_000).map(|i| classes[i % classes.len()]).collect();
        let game = Game::build(&powers, &[60, 30, 10]).unwrap();
        let start = Configuration::uniform(CoinId(0), game.system()).unwrap();
        let outcome = Dynamics::new(&game).start(&start).run().unwrap();
        assert!(outcome.converged);
        assert!(outcome.steps >= 1_000, "suspiciously few steps");
        let tracker = goc_game::MassTracker::new(&game, &outcome.final_config).unwrap();
        assert!(tracker.is_stable());
    }

    #[test]
    fn all_schedulers_converge_under_churn() {
        use goc_game::Delta;
        // 12 miners in 3 power classes over 3 coins; coin 2 starts
        // dormant, a third of the population starts offline, and the run
        // interleaves arrivals, departures, one launch, and one
        // retirement with the better-response steps.
        let powers: Vec<u64> = (0..12).map(|i| [5u64, 2, 1][i % 3]).collect();
        let game = Game::build(&powers, &[9, 6, 4]).unwrap();
        let start = Configuration::uniform(CoinId(0), game.system()).unwrap();
        let miner_active: Vec<bool> = (0..12).map(|i| i % 3 != 2).collect();
        let plan = ChurnPlan {
            miner_active: Some(miner_active),
            coin_active: Some(vec![true, true, false]),
            events: vec![
                ChurnEvent {
                    at_step: 1,
                    delta: Delta::InsertMiner {
                        miner: goc_game::MinerId(2),
                        coin: None,
                    },
                },
                ChurnEvent {
                    at_step: 2,
                    delta: Delta::LaunchCoin { coin: CoinId(2) },
                },
                ChurnEvent {
                    at_step: 3,
                    delta: Delta::RemoveMiner {
                        miner: goc_game::MinerId(0),
                    },
                },
                ChurnEvent {
                    at_step: 4,
                    delta: Delta::RetireCoin { coin: CoinId(1) },
                },
                ChurnEvent {
                    at_step: 5,
                    delta: Delta::InsertMiner {
                        miner: goc_game::MinerId(5),
                        coin: Some(CoinId(0)),
                    },
                },
            ],
        };
        for kind in SchedulerKind::ALL {
            let mut sched = kind.build(7);
            let outcome = Dynamics::new(&game)
                .start(&start)
                .scheduler(sched.as_mut())
                .options(LearningOptions {
                    audit_potential: true,
                    ..LearningOptions::default()
                })
                .churn(&plan)
                .run()
                .unwrap_or_else(|e| panic!("{kind}: {e}"));
            assert!(outcome.converged, "{kind} did not converge under churn");
            assert_eq!(outcome.churn_applied, plan.events.len(), "{kind}");
            // The final state is stable by the naive dense oracle.
            let (miner_active, coin_active) = outcome.final_activity.as_ref().expect("churn run");
            let tracker = goc_game::MassTracker::with_activity(
                &game,
                &outcome.final_config,
                miner_active,
                coin_active,
            )
            .unwrap();
            let sub = tracker.active_subgame().unwrap();
            assert!(sub.game.is_stable(&sub.config), "{kind} not stable");
            assert!(!coin_active[1] && coin_active[2], "{kind} coin masks");
        }
    }

    #[test]
    fn incremental_churn_engine_agrees_with_scheduled_one() {
        use goc_game::Delta;
        let game = Game::build(&[4, 4, 2, 2, 1, 1], &[8, 4]).unwrap();
        let start = Configuration::uniform(CoinId(0), game.system()).unwrap();
        let plan = ChurnPlan {
            miner_active: None,
            coin_active: None,
            events: vec![
                ChurnEvent {
                    at_step: 2,
                    delta: Delta::RemoveMiner {
                        miner: goc_game::MinerId(1),
                    },
                },
                ChurnEvent {
                    at_step: 4,
                    delta: Delta::InsertMiner {
                        miner: goc_game::MinerId(1),
                        coin: None,
                    },
                },
            ],
        };
        let incremental = Dynamics::new(&game)
            .start(&start)
            .churn(&plan)
            .run()
            .unwrap();
        assert!(incremental.converged);
        assert_eq!(incremental.churn_applied, 2);
        let scheduled = Dynamics::new(&game)
            .start(&start)
            .scheduler(&mut RoundRobin::new())
            .churn(&plan)
            .run()
            .unwrap();
        assert!(scheduled.converged);
        assert_eq!(scheduled.churn_applied, 2);
        // Both engines end fully repopulated and stable under the naive
        // oracle (the interleavings differ, so the equilibria may too).
        for outcome in [&incremental, &scheduled] {
            let (miner_active, coin_active) = outcome.final_activity.as_ref().unwrap();
            assert!(miner_active.iter().all(|&a| a));
            let tracker = goc_game::MassTracker::with_activity(
                &game,
                &outcome.final_config,
                miner_active,
                coin_active,
            )
            .unwrap();
            assert!(tracker.is_stable());
        }
    }

    #[test]
    fn illegal_churn_is_a_named_error() {
        use goc_game::Delta;
        let game = goc_game::paper::prop1_game();
        let start = Configuration::uniform(CoinId(0), game.system()).unwrap();
        let plan = ChurnPlan {
            events: vec![
                ChurnEvent {
                    at_step: 0,
                    delta: Delta::RemoveMiner {
                        miner: goc_game::MinerId(1),
                    },
                },
                ChurnEvent {
                    at_step: 0,
                    delta: Delta::RemoveMiner {
                        miner: goc_game::MinerId(1),
                    },
                },
            ],
            ..ChurnPlan::default()
        };
        let err = Dynamics::new(&game)
            .start(&start)
            .scheduler(&mut RoundRobin::new())
            .churn(&plan)
            .run()
            .unwrap_err();
        assert!(matches!(err, LearningError::ChurnRejected { step: 0, .. }));
        assert!(err.to_string().contains("churn delta rejected"));
    }

    #[test]
    fn churn_fast_forwards_through_stable_states() {
        use goc_game::Delta;
        // The game is already stable; the only scheduled event sits far
        // beyond any step the dynamics will take. It must still fire.
        let game = goc_game::paper::prop1_game();
        let eq = goc_game::equilibrium::greedy_equilibrium(&game);
        let plan = ChurnPlan {
            events: vec![ChurnEvent {
                at_step: 1_000,
                delta: Delta::RemoveMiner {
                    miner: goc_game::MinerId(1),
                },
            }],
            ..ChurnPlan::default()
        };
        let outcome = Dynamics::new(&game)
            .start(&eq)
            .scheduler(&mut RoundRobin::new())
            .churn(&plan)
            .run()
            .unwrap();
        assert!(outcome.converged);
        assert_eq!(outcome.churn_applied, 1);
        let (miner_active, _) = outcome.final_activity.unwrap();
        assert!(!miner_active[1]);
    }

    #[test]
    fn warm_start_from_a_fork_matches_the_cold_run() {
        let game = Game::build(&[8, 5, 3, 2, 1, 1], &[7, 4, 2]).unwrap();
        let start = Configuration::uniform(CoinId(0), game.system()).unwrap();
        let cold = Dynamics::new(&game).start(&start).run().unwrap();
        // Fork the *starting* state through a snapshot round-trip and
        // continue from it: the trajectory (and thus the equilibrium and
        // step count) must be identical.
        let tracker = goc_game::MassTracker::new(&game, &start).unwrap();
        let bytes = Snapshot::of(&tracker).encode();
        let snap = Snapshot::try_from(bytes.as_slice()).unwrap();
        let warm = Dynamics::new(&game)
            .from_tracker(snap.fork_into(&game).unwrap())
            .run()
            .unwrap();
        assert!(warm.converged);
        assert_eq!(warm.steps, cold.steps);
        assert_eq!(warm.final_config, cold.final_config);
    }

    #[test]
    fn checkpoints_fire_and_resume_exactly() {
        use goc_game::Delta;
        let game = Game::build(&[4, 4, 2, 2, 1, 1], &[8, 4]).unwrap();
        let start = Configuration::uniform(CoinId(0), game.system()).unwrap();
        let plan = ChurnPlan::with_events(
            None,
            None,
            [
                (
                    2,
                    Delta::RemoveMiner {
                        miner: goc_game::MinerId(5),
                    },
                ),
                (
                    4,
                    Delta::InsertMiner {
                        miner: goc_game::MinerId(5),
                        coin: None,
                    },
                ),
            ],
        );
        let mut checkpoints: Vec<(usize, Vec<u8>)> = Vec::new();
        let mut sink = |steps: usize, snap: Snapshot| {
            checkpoints.push((steps, snap.encode()));
        };
        let mut hook = CheckpointHook {
            every: 1,
            sink: &mut sink,
        };
        let full = Dynamics::new(&game)
            .start(&start)
            .churn(&plan)
            .instrument(&mut hook)
            .run()
            .unwrap();
        assert!(full.converged);
        assert_eq!(checkpoints.len(), full.steps, "one checkpoint per step");
        // Resume from the first checkpoint: replay only the not-yet-due
        // churn (every checkpoint step count keys the remaining stream)
        // and land on the same equilibrium.
        let (at, bytes) = checkpoints.first().unwrap();
        let snap = Snapshot::try_from(bytes.as_slice()).unwrap();
        let remaining = ChurnPlan {
            miner_active: None,
            coin_active: None,
            events: plan
                .events
                .iter()
                .filter(|e| e.at_step > *at)
                .map(|e| ChurnEvent {
                    at_step: e.at_step - at,
                    delta: e.delta,
                })
                .collect(),
        };
        let resumed = Dynamics::new(&game)
            .from_snapshot(&snap)
            .churn(&remaining)
            .run()
            .unwrap();
        assert!(resumed.converged);
        assert_eq!(resumed.final_config, full.final_config);
        assert_eq!(resumed.steps + at, full.steps);
    }

    #[test]
    fn builder_without_a_start_is_rejected() {
        let game = goc_game::paper::btc_bch_toy();
        assert_eq!(
            Dynamics::new(&game).run().err(),
            Some(LearningError::MissingStart)
        );
    }

    #[test]
    fn builder_rejects_a_foreign_snapshot() {
        let game = Game::build(&[2, 1], &[1, 1]).unwrap();
        let other = Game::build(&[3, 1], &[1, 1]).unwrap();
        let start = Configuration::uniform(CoinId(0), other.system()).unwrap();
        let tracker = goc_game::MassTracker::new(&other, &start).unwrap();
        let snap = Snapshot::of(&tracker);
        assert_eq!(
            Dynamics::new(&game).from_snapshot(&snap).run().err(),
            Some(LearningError::SnapshotMismatch)
        );
    }

    #[test]
    fn builder_snapshot_start_matches_the_cold_run() {
        let game = Game::build(&[8, 5, 3, 2, 1, 1], &[7, 4, 2]).unwrap();
        let start = Configuration::uniform(CoinId(0), game.system()).unwrap();
        let cold = Dynamics::new(&game).start(&start).run().unwrap();
        let tracker = goc_game::MassTracker::new(&game, &start).unwrap();
        let snap = Snapshot::of(&tracker);
        let warm = Dynamics::new(&game).from_snapshot(&snap).run().unwrap();
        assert!(warm.converged);
        assert_eq!(warm.steps, cold.steps);
        assert_eq!(warm.final_config, cold.final_config);
    }

    #[test]
    fn builder_observes_the_incremental_engine() {
        // The observer hook now also covers the scheduler-free loop; it
        // must see every applied move in order.
        let game = Game::build(&[8, 5, 3, 2, 1, 1], &[9, 6, 2]).unwrap();
        let start = Configuration::uniform(CoinId(0), game.system()).unwrap();
        let mut trace = Vec::new();
        let outcome = Dynamics::new(&game)
            .start(&start)
            .options(LearningOptions {
                record_path: true,
                ..LearningOptions::default()
            })
            .instrument(&mut |_: &Configuration, mv: Move| trace.push(mv))
            .run()
            .unwrap();
        assert!(outcome.converged);
        assert_eq!(trace, outcome.path);
    }

    #[test]
    fn restricted_games_converge_empirically() {
        // The theorem is stated for unrestricted games; the asymmetric
        // variant is exercised empirically (Discussion §6).
        let game = Game::build(&[5, 3, 2, 1], &[4, 4, 4])
            .unwrap()
            .with_restrictions(vec![
                vec![true, true, false],
                vec![true, true, true],
                vec![false, true, true],
                vec![true, false, true],
            ])
            .unwrap();
        let mut rng = SmallRng::seed_from_u64(3);
        for seed in 0..10 {
            let start = goc_game::gen::random_config_restricted(&mut rng, &game);
            let outcome = Dynamics::new(&game)
                .start(&start)
                .scheduler(&mut UniformRandom::seeded(seed))
                .run()
                .unwrap();
            assert!(outcome.converged);
        }
    }
}
