//! **scale** — the large-population engine at work.
//!
//! Sweeps population size across the two scalability devices this repo
//! adds on top of the paper's machinery:
//!
//! * **incremental best-response dynamics** (a scheduler-free
//!   [`goc_learning::Dynamics`] run over `goc_game::MassTracker`): convergence of 100k+ miner games
//!   without ever rescanning the miner vector, plus an exact-oracle
//!   equivalence check on a small instance;
//! * **miner cohorts** (`goc_sim::CohortSpec`): event-driven simulation
//!   whose event volume scales with distinct behaviours, not head-count.
//!
//! Timing convention: wall-clock measurements only ever appear in report
//! params whose key contains `secs`/`per_sec`, in tables and artifacts
//! whose title/name contains `timing`, and in checks whose name contains
//! `wall`. The golden-file comparator (`tests/golden.rs`) strips exactly
//! those, so the *results* of this experiment are regression-locked while
//! its throughput numbers float with the hardware.

use std::time::Instant;

use goc_analysis::{RunReport, Table};
use goc_game::{CoinId, Configuration, Game, MassTracker};
use goc_learning::{Dynamics, LearningOptions};
use goc_sim::fixtures::{scale_class_game, scale_cohort_scenario, SCALE_CLASSES};
use goc_sim::spec::{ScenarioSpec, ShockSpec};

use crate::{Experiment, RunContext};

/// The scale experiment.
pub struct Scale;

/// The shared fixture game (`goc_sim::fixtures`), so the experiment
/// and the `perfbench` benchmark measure one workload.
fn class_game(n: usize) -> Game {
    scale_class_game(n)
}

/// The shared fixture scenario plus this experiment's mid-run pump on
/// the minority chain.
fn cohort_scenario(n: usize, horizon_days: f64, seed: u64) -> ScenarioSpec {
    let mut spec = scale_cohort_scenario(n, horizon_days, seed);
    spec.shocks = vec![ShockSpec {
        day: horizon_days * 0.3,
        coin: 1,
        factor: 2.5,
    }];
    spec
}

impl Experiment for Scale {
    fn name(&self) -> &'static str {
        "scale"
    }

    fn describe(&self) -> &'static str {
        "Large-population engine: incremental dynamics + cohort sim at 100k miners"
    }

    fn run(&self, ctx: &RunContext) -> RunReport {
        let mut report = RunReport::new(
            self.name(),
            "population sweep over incremental dynamics and miner cohorts",
        );
        let populations: &[usize] = if ctx.quick {
            &[1_000, 10_000, 100_000]
        } else {
            &[1_000, 10_000, 100_000, 250_000]
        };
        report
            .param("populations", format!("{populations:?}"))
            .param("classes", SCALE_CLASSES.len().to_string())
            .param("seed", ctx.seed.to_string());
        report.note(format!(
            "{} hashrate classes shared by both layers; dynamics: 3-coin game, rewards 55/30/15, \
             all-on-c0 start; sim: two-chain market, minority pump ×2.5 mid-run",
            SCALE_CLASSES.len()
        ));

        // -------------------------------------------------------------
        // Incremental dynamics sweep
        // -------------------------------------------------------------
        let mut dynamics = Table::new(vec!["miners", "groups", "steps", "converged", "stable"]);
        let mut timing = Table::new(vec!["miners", "wall_ms", "steps_per_sec"]);
        let mut hundred_k_secs = f64::NAN;
        for &n in populations {
            let game = class_game(n);
            let start =
                Configuration::uniform(CoinId(0), game.system()).expect("uniform start is valid");
            let clock = Instant::now();
            let outcome = Dynamics::new(&game)
                .start(&start)
                .run()
                .expect("incremental dynamics cannot reject its own moves");
            let wall = clock.elapsed().as_secs_f64();
            if n == 100_000 {
                hundred_k_secs = wall;
            }
            // Stability is re-checked through the tracker's group scan —
            // O(groups × coins), so even the 250k case is instant.
            let tracker =
                MassTracker::new(&game, &outcome.final_config).expect("final config is valid");
            dynamics.row(vec![
                n.to_string(),
                tracker.group_count().to_string(),
                outcome.steps.to_string(),
                outcome.converged.to_string(),
                tracker.is_stable().to_string(),
            ]);
            timing.row(vec![
                n.to_string(),
                format!("{:.1}", wall * 1e3),
                format!("{:.0}", outcome.steps as f64 / wall.max(1e-9)),
            ]);
            report.check(
                format!("dynamics_{n}_converges_to_equilibrium"),
                outcome.converged && tracker.is_stable(),
                format!(
                    "{} steps over {} strategic groups",
                    outcome.steps,
                    tracker.group_count()
                ),
            );
        }
        report.table(
            "incremental best-response dynamics (uniform start, round-robin groups)",
            &dynamics,
        );
        report.table(
            "dynamics timing (ignored by the golden comparator)",
            &timing,
        );
        report.check(
            "dynamics_100k_wall_clock_within_budget",
            hundred_k_secs < 30.0,
            format!("100k-miner convergence took {hundred_k_secs:.2} s (budget 30 s)"),
        );
        report.param("dynamics_100k_secs", format!("{hundred_k_secs:.3}"));

        // Oracle equivalence on a small instance: the incremental path
        // must land on a configuration the naive recomputation path
        // certifies stable, with the Theorem 1 audit green.
        let small = class_game(ctx.scale(512, 128));
        let start =
            Configuration::uniform(CoinId(0), small.system()).expect("uniform start is valid");
        let audited = Dynamics::new(&small)
            .start(&start)
            .options(LearningOptions {
                audit_potential: true,
                ..LearningOptions::default()
            })
            .run()
            .expect("audited incremental run");
        report.check(
            "incremental_agrees_with_naive_oracle",
            audited.converged
                && small.is_stable(&audited.final_config)
                && audited.potential_audit == Some(true),
            format!(
                "naive is_stable on the incremental fixed point after {} audited steps",
                audited.steps
            ),
        );

        // -------------------------------------------------------------
        // Cohort simulation sweep
        // -------------------------------------------------------------
        let horizon = if ctx.quick { 10.0 } else { 30.0 };
        let mut sim_table = Table::new(vec![
            "miners",
            "agents",
            "blocks",
            "switches",
            "events",
            "minor_share_end",
        ]);
        let mut sim_timing = Table::new(vec!["miners", "wall_ms", "events_per_sec"]);
        let mut hundred_k_sim_secs = f64::NAN;
        for &n in populations {
            let spec = cohort_scenario(n, horizon, 4242 + ctx.seed);
            let mut sim = spec.build().expect("cohort scenario builds");
            let clock = Instant::now();
            let metrics = sim.run().clone();
            let wall = clock.elapsed().as_secs_f64();
            if n == 100_000 {
                hundred_k_sim_secs = wall;
            }
            let blocks: u64 = sim.chains().iter().map(|c| c.height()).sum();
            let last = metrics.len() - 1;
            let share = metrics.hashrate_share(1, last);
            sim_table.row(vec![
                n.to_string(),
                sim.agents().len().to_string(),
                blocks.to_string(),
                metrics.total_switches.to_string(),
                metrics.total_events.to_string(),
                format!("{share:.3}"),
            ]);
            sim_timing.row(vec![
                n.to_string(),
                format!("{:.1}", wall * 1e3),
                format!("{:.0}", metrics.total_events as f64 / wall.max(1e-9)),
            ]);
            report.check(
                format!("sim_{n}_event_volume_tracks_behaviours"),
                sim.agents().len() == SCALE_CLASSES.len() && metrics.total_events > blocks,
                format!(
                    "{} aggregated agents drove {} events / {} blocks",
                    sim.agents().len(),
                    metrics.total_events,
                    blocks
                ),
            );
        }
        report.table(
            format!("cohort simulation ({horizon} days, pump on `minor` at 30%)"),
            &sim_table,
        );
        report.table("sim timing (ignored by the golden comparator)", &sim_timing);
        report.check(
            "sim_100k_wall_clock_within_budget",
            hundred_k_sim_secs < 30.0,
            format!("100k-miner cohort run took {hundred_k_sim_secs:.2} s (budget 30 s)"),
        );
        report.param("sim_100k_secs", format!("{hundred_k_sim_secs:.3}"));

        // Cohort-vs-individual ground truth: the spec's static game
        // snapshot is the same whether the population is written as
        // cohorts or as its expanded individual rigs.
        let spec = cohort_scenario(ctx.scale(800, 400), horizon, 4242 + ctx.seed);
        let (game_a, config_a) = spec.game().expect("cohort spec snapshots");
        let (game_b, config_b) = spec.expanded().game().expect("expanded spec snapshots");
        report.check(
            "cohort_snapshot_equals_expanded_individuals",
            game_a.system() == game_b.system()
                && game_a.rewards() == game_b.rewards()
                && config_a == config_b,
            format!(
                "{} rigs expand to identical static games",
                spec.miners.count()
            ),
        );

        report.artifact("scale.csv", {
            let mut csv = String::from("layer,miners,steps_or_events,converged\n");
            for row in dynamics.rows() {
                csv.push_str(&format!("dynamics,{},{},{}\n", row[0], row[2], row[3]));
            }
            for row in sim_table.rows() {
                csv.push_str(&format!("sim,{},{},true\n", row[0], row[4]));
            }
            csv
        });
        report
    }
}
