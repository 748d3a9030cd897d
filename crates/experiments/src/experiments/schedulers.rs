//! **schedulers** — the incremental scheduler protocol at scale.
//!
//! Theorem 1 quantifies over *arbitrary* better-response schedules, so
//! the scheduler spectrum — not just the dedicated group round-robin —
//! must survive contact with large populations for the "for all" claim
//! to be exercised where it matters. This experiment sweeps **every**
//! bundled [`SchedulerKind`] (or the one pinned by
//! [`RunContext::scheduler`](crate::RunContext)) across population
//! sizes, driving each through
//! [`Scheduler::pick_incremental`](goc_learning::Scheduler) over a
//! [`goc_game::MoveSource`] — lazy move discovery with no per-step
//! move-list materialization — and checks:
//!
//! * **convergence**: each kind reaches a configuration the tracker's
//!   group scan certifies stable, at every population size;
//! * **oracle equivalence**: on a mid-size instance, the incremental
//!   pick equals the eager [`pick_with`](goc_learning::Scheduler)
//!   pick at *every step* of the trajectory (the property suite pins
//!   the same on random games);
//! * **cross-engine agreement**: `Dynamics` under round-robin and the
//!   scheduler-free `Dynamics` loop land on configurations with
//!   identical coin masses;
//! * **wall clock**: the heaviest kind stays within budget at the
//!   largest population.
//!
//! Timing convention: wall-clock only ever appears in `secs`/`per_sec`
//! params, tables titled `timing`, and checks named `wall` — the golden
//! comparator strips exactly those, so results are regression-locked
//! while throughput floats with the hardware.

use std::time::Instant;

use goc_analysis::{RunReport, Table};
use goc_game::{CoinId, Configuration, MassTracker, MoveSource};
use goc_learning::{Dynamics, SchedulerKind};
use goc_sim::fixtures::{scale_class_game, SCALE_CLASSES};

use crate::{Experiment, RunContext};

/// The schedulers experiment.
pub struct Schedulers;

impl Experiment for Schedulers {
    fn name(&self) -> &'static str {
        "schedulers"
    }

    fn describe(&self) -> &'static str {
        "Incremental scheduler protocol: all SchedulerKinds at 100k+ miners"
    }

    fn run(&self, ctx: &RunContext) -> RunReport {
        let mut report = RunReport::new(
            self.name(),
            "scheduler spectrum × population size over the incremental move source",
        );
        let populations: &[usize] = if ctx.quick {
            &[1_000, 10_000]
        } else {
            &[1_000, 10_000, 100_000, 250_000]
        };
        let kinds = ctx.scheduler_kinds();
        report
            .param("populations", format!("{populations:?}"))
            .param(
                "schedulers",
                kinds.iter().map(|k| k.name()).collect::<Vec<_>>().join(","),
            )
            .param("classes", SCALE_CLASSES.len().to_string())
            .param("seed", ctx.seed.to_string());
        report.note(format!(
            "{} hashrate classes, 3-coin game (rewards 55/30/15), all-on-c0 start; every \
             scheduler picks through MoveSource (group-decision cache + dirty-group queue), \
             never materializing the improving-move list",
            SCALE_CLASSES.len()
        ));

        // -------------------------------------------------------------
        // Convergence sweep: kind × population
        // -------------------------------------------------------------
        let mut table = Table::new(vec!["scheduler", "miners", "steps", "converged", "stable"]);
        let mut timing = Table::new(vec!["scheduler", "miners", "wall_ms", "steps_per_sec"]);
        let top = *populations.last().expect("populations are nonempty");
        let mut slowest_top_secs = 0.0f64;
        for &kind in &kinds {
            for &n in populations {
                let game = scale_class_game(n);
                let start = Configuration::uniform(CoinId(0), game.system())
                    .expect("uniform start is valid");
                let mut sched = kind.build(ctx.seed);
                let clock = Instant::now();
                let outcome = Dynamics::new(&game)
                    .start(&start)
                    .scheduler(sched.as_mut())
                    .run()
                    .expect("bundled schedulers only return legal moves");
                let wall = clock.elapsed().as_secs_f64();
                if n == top {
                    slowest_top_secs = slowest_top_secs.max(wall);
                }
                let tracker =
                    MassTracker::new(&game, &outcome.final_config).expect("final config is valid");
                let stable = tracker.is_stable();
                table.row(vec![
                    kind.name().to_string(),
                    n.to_string(),
                    outcome.steps.to_string(),
                    outcome.converged.to_string(),
                    stable.to_string(),
                ]);
                timing.row(vec![
                    kind.name().to_string(),
                    n.to_string(),
                    format!("{:.1}", wall * 1e3),
                    format!("{:.0}", outcome.steps as f64 / wall.max(1e-9)),
                ]);
                if n == top {
                    report.check(
                        format!("{}_{n}_converges_to_equilibrium", kind.name()),
                        outcome.converged && stable,
                        format!("{} steps, naive-tracker stability recheck", outcome.steps),
                    );
                }
            }
        }
        report.table("incremental scheduler convergence (uniform start)", &table);
        report.table(
            "scheduler timing (ignored by the golden comparator)",
            &timing,
        );
        report.check(
            format!("slowest_scheduler_{top}_wall_clock_within_budget"),
            slowest_top_secs < 60.0,
            format!("slowest kind took {slowest_top_secs:.2} s at {top} miners (budget 60 s)"),
        );
        report.param("slowest_top_secs", format!("{slowest_top_secs:.3}"));

        // -------------------------------------------------------------
        // Oracle equivalence: incremental pick == eager pick, stepwise
        // -------------------------------------------------------------
        let m = ctx.scale(512, 192);
        let game = scale_class_game(m);
        let start =
            Configuration::uniform(CoinId(0), game.system()).expect("uniform start is valid");
        let mut equiv = Table::new(vec!["scheduler", "steps", "picks_agree", "stable"]);
        for &kind in &kinds {
            let mut eager = kind.build(ctx.seed);
            let mut incremental = kind.build(ctx.seed);
            let mut s = start.clone();
            let mut src = MoveSource::new(&game, &start).expect("valid start");
            let mut steps = 0usize;
            let mut agree = true;
            loop {
                let moves = game.improving_moves(&s);
                if moves.is_empty() {
                    break;
                }
                let masses = s.masses(game.system());
                let mv_eager = eager
                    .pick_with(&game, &s, &masses, &moves)
                    .expect("legal eager pick");
                let Ok(mv_incremental) = incremental.pick_incremental(&mut src) else {
                    agree = false;
                    break;
                };
                if mv_eager != mv_incremental {
                    agree = false;
                    break;
                }
                s.apply_move(mv_eager.miner, mv_eager.to);
                src.apply(mv_eager.miner, mv_eager.to);
                steps += 1;
                if steps > 1_000_000 {
                    agree = false;
                    break;
                }
            }
            let stable = agree && game.is_stable(&s) && src.is_stable();
            equiv.row(vec![
                kind.name().to_string(),
                steps.to_string(),
                agree.to_string(),
                stable.to_string(),
            ]);
            report.check(
                format!("{}_incremental_matches_eager_oracle", kind.name()),
                agree && stable,
                format!("{steps} lockstep picks on a {m}-miner game"),
            );
        }
        report.table(
            format!("stepwise eager-oracle equivalence ({m} miners)"),
            &equiv,
        );

        // -------------------------------------------------------------
        // Cross-engine agreement: round-robin vs the scheduler-free loop
        // -------------------------------------------------------------
        let n = ctx.scale(100_000, 10_000);
        let game = scale_class_game(n);
        let start =
            Configuration::uniform(CoinId(0), game.system()).expect("uniform start is valid");
        let mut rr = SchedulerKind::RoundRobin.build(ctx.seed);
        let via_scheduler = Dynamics::new(&game)
            .start(&start)
            .scheduler(rr.as_mut())
            .run()
            .expect("round-robin converges");
        let via_incremental = Dynamics::new(&game)
            .start(&start)
            .run()
            .expect("incremental dynamics converge");
        let masses_a = via_scheduler.final_config.masses(game.system());
        let masses_b = via_incremental.final_config.masses(game.system());
        report.check(
            "scheduler_and_incremental_engines_agree_on_masses",
            via_scheduler.converged && via_incremental.converged && masses_a == masses_b,
            format!(
                "{n}-miner equilibria share the coin-mass profile ({} vs {} steps)",
                via_scheduler.steps, via_incremental.steps
            ),
        );

        report.artifact("schedulers.csv", {
            let mut csv = String::from("scheduler,miners,steps,converged\n");
            for row in table.rows() {
                csv.push_str(&format!("{},{},{},{}\n", row[0], row[1], row[2], row[3]));
            }
            csv
        });
        report
    }
}
