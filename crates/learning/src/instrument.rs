//! [`Instrument`]: the one observation API of the learning engine, a
//! single surface with default no-ops:
//!
//! * [`Instrument::on_step`] — after every applied better-response
//!   move, with the new configuration;
//! * [`Instrument::on_delta`] — after every applied churn delta;
//! * [`Instrument::on_checkpoint`] — every
//!   [`Instrument::checkpoint_every`] steps, with a [`Snapshot`] of the
//!   tracker.
//!
//! A blanket impl makes every `FnMut(&Configuration, Move)` closure an
//! `Instrument`, so a step observer attaches through
//! [`Dynamics::instrument`]; [`CheckpointHook`] implements the trait
//! too: the engine has exactly one watching seam.
//!
//! [`CheckpointHook`]: crate::dynamics::CheckpointHook
//! [`Dynamics::instrument`]: crate::dynamics::Dynamics::instrument

use goc_game::{Configuration, Delta, Move, Snapshot};

/// A watcher threaded through a learning run. All methods default to
/// no-ops, so an instrument implements only what it cares about; the
/// engine pays one virtual call per event either way.
pub trait Instrument {
    /// Called after every applied better-response move, with the
    /// configuration *after* the move.
    fn on_step(&mut self, config: &Configuration, mv: Move) {
        let _ = (config, mv);
    }

    /// Called after every churn delta the engine applies, with the step
    /// count at which it fired.
    fn on_delta(&mut self, step: usize, delta: Delta) {
        let _ = (step, delta);
    }

    /// Checkpoint cadence in steps; `0` (the default) disables
    /// checkpointing, so the engine never pays for a [`Snapshot`] it
    /// would not deliver.
    fn checkpoint_every(&self) -> usize {
        0
    }

    /// Called every [`Instrument::checkpoint_every`] steps with a
    /// snapshot of the tracker.
    fn on_checkpoint(&mut self, step: usize, snapshot: &Snapshot) {
        let _ = (step, snapshot);
    }
}

/// Every step-observer closure is an instrument.
impl<F: FnMut(&Configuration, Move)> Instrument for F {
    fn on_step(&mut self, config: &Configuration, mv: Move) {
        self(config, mv)
    }
}

/// The do-nothing instrument (what an unobserved run uses).
#[derive(Debug, Default, Clone, Copy)]
pub struct NoInstrument;

impl Instrument for NoInstrument {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamics::{CheckpointHook, Dynamics};
    use goc_game::{CoinId, Game};

    fn toy() -> (Game, Configuration) {
        let game = Game::build(&[8, 5, 3, 2, 1, 1], &[7, 4, 2]).unwrap();
        let start = Configuration::uniform(CoinId(0), game.system()).unwrap();
        (game, start)
    }

    #[test]
    fn closures_are_instruments_via_the_blanket_impl() {
        let (game, start) = toy();
        let mut seen = 0usize;
        let mut closure = |_: &Configuration, _: Move| seen += 1;
        let outcome = Dynamics::new(&game)
            .start(&start)
            .instrument(&mut closure)
            .run()
            .unwrap();
        assert!(outcome.converged);
        assert_eq!(seen, outcome.steps);
    }

    #[test]
    fn checkpoint_hooks_fire_on_their_cadence() {
        let (game, start) = toy();
        let mut steps = Vec::new();
        let mut sink = |step: usize, _snap: Snapshot| steps.push(step);
        let mut hook = CheckpointHook {
            every: 3,
            sink: &mut sink,
        };
        // Min-gain takes the longest path, so the run spans checkpoints.
        let outcome = Dynamics::new(&game)
            .start(&start)
            .scheduler(&mut crate::scheduler::MinGain)
            .instrument(&mut hook)
            .run()
            .unwrap();
        assert!(outcome.converged);
        assert!(outcome.steps >= 3, "the toy run must reach a checkpoint");
        assert!(steps.iter().all(|s| s % 3 == 0));
        assert_eq!(steps.len(), outcome.steps / 3);
    }
}
