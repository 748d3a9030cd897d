//! The two ensemble workloads, `ensemble-free` and
//! `ensemble-sched-churn`: closed loop, one caller, consecutive
//! `ensemble::run` calls on two executor threads.
//!
//! The traced run replays each ensemble through the public calls of
//! every layer it crosses — fixture, tracker, snapshot, fork, dynamics,
//! executor and fold — timing each call from here, and then demands
//! that the replay's fold equal `ensemble::run`'s aggregate for the
//! same seed. Per-layer numbers from a program that differs from the
//! measured one are worthless, so a mismatch fails the run by name.

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

use goc_analysis::ensemble::aggregate::{
    EquilibriumKey, FingerprintIndex, QuantileSketch, Welford,
};
use goc_analysis::ensemble::executor::{replica_seed, run_indexed_recorded, ExecutorMetrics};
use goc_analysis::ensemble::{
    self, EnsembleAggregate, EnsembleReport, EnsembleSpec, StepPercentiles,
};
use goc_game::gen::random_config;
use goc_game::{CoinId, Configuration, Game, MassTracker, Snapshot};
use goc_learning::{ChurnPlan, Dynamics, LearningOptions, SchedulerKind};
use goc_sim::churn_universe;
use goc_sim::fixtures::{scale_churn_base, scale_class_game};
use goc_telemetry::trace::{TraceRecorder, DEFAULT_LANE_CAPACITY};
use goc_telemetry::Registry;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::stats::{median, median_and_iqr};
use crate::{out_dir, Args, Outcome};

/// Population of every ensemble.
const MINERS: usize = 100_000;
/// Executor threads per ensemble.
const THREADS: usize = 2;
/// Set-up rounds (each a warm-up ensemble); `setup_s` is their median.
const SETUP_ROUNDS: usize = 3;
/// Ensembles the traced run replays: a fixed count, so its counts
/// repeat exactly for a seed.
const TRACED_FREE: usize = 8;
const TRACED_SCHED_CHURN: usize = 3;
/// Interleaved bare/recorded pairs behind `telemetry.recorder_overhead`.
const RECORDER_PAIRS: usize = 6;
/// Census rows `ensemble::run` lists (the fold must reproduce them).
const CENSUS_ROWS: usize = 12;
/// Quantization `ensemble::run` lowers churn scenarios at.
const CHURN_RESOLUTION: f64 = 1e-4;

/// Seed streams: set-up, timed (shared by the traced replay, so both
/// runs of a seed see the same inputs) and the recorder pairs.
const SETUP_STREAM: usize = 1;
const TIMED_STREAM: usize = 2;
const RECORDER_STREAM: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Shape {
    /// 100k miners × 8 replicas, scheduler-free, no churn.
    Free,
    /// 100k miners × 4 replicas, round-robin scheduler, 10% churn.
    SchedChurn,
}

impl Shape {
    fn of(workload: &str) -> Shape {
        match workload {
            "ensemble-free" => Shape::Free,
            "ensemble-sched-churn" => Shape::SchedChurn,
            other => unreachable!("not an ensemble workload: {other}"),
        }
    }

    fn spec(self, root: u64) -> EnsembleSpec {
        match self {
            Shape::Free => EnsembleSpec::new(MINERS, 8, root),
            Shape::SchedChurn => EnsembleSpec::new(MINERS, 4, root)
                .with_scheduler(SchedulerKind::RoundRobin)
                .with_churn(10),
        }
    }
}

/// Root seed of the `index`-th ensemble of `stream`, derived from the
/// workload seed with the engine's own SplitMix64 hop.
fn root_seed(seed: u64, stream: usize, index: usize) -> u64 {
    replica_seed(replica_seed(seed, stream), index)
}

/// Runs the workload; `args.trace` picks the traced replay.
pub fn run(args: &Args, workload: &str) -> Outcome {
    let shape = Shape::of(workload);
    let mut out = Outcome::default();
    if args.trace {
        traced(args, shape, &mut out);
    } else {
        untraced(args, shape, &mut out);
    }
    out
}

/// The output checks every ensemble must pass; returns the failed
/// (non-converged) replica count.
fn check_report(
    out: &mut Outcome,
    shape: Shape,
    spec: &EnsembleSpec,
    report: &EnsembleReport,
) -> u64 {
    let agg = &report.aggregate;
    out.check(agg.replicas == spec.replicas, || {
        format!(
            "seed {:#x}: {} replicas reported, {} asked",
            spec.seed, agg.replicas, spec.replicas
        )
    });
    out.check(agg.converged == agg.replicas, || {
        format!(
            "seed {:#x}: {} of {} replicas converged",
            spec.seed, agg.converged, agg.replicas
        )
    });
    if shape == Shape::SchedChurn {
        out.check(agg.churn_deltas > 0, || {
            format!("seed {:#x}: no churn delta was applied", spec.seed)
        });
    }
    spec.replicas.saturating_sub(agg.converged) as u64
}

/// Times one `ensemble::run` call and checks its output; `None` when
/// the call itself failed.
fn timed_run(
    out: &mut Outcome,
    shape: Shape,
    spec: &EnsembleSpec,
) -> Option<(f64, EnsembleReport)> {
    let clock = Instant::now();
    match ensemble::run(spec, THREADS) {
        Ok(report) => {
            let wall = clock.elapsed().as_secs_f64();
            let failed = check_report(out, shape, spec, &report);
            out.failed += failed;
            Some((wall, report))
        }
        Err(e) => {
            out.failed += spec.replicas as u64;
            out.problems
                .push(format!("seed {:#x}: ensemble failed: {e}", spec.seed));
            None
        }
    }
}

fn untraced(args: &Args, shape: Shape, out: &mut Outcome) {
    let mut setup = Vec::new();
    for round in 0..SETUP_ROUNDS {
        let spec = shape.spec(root_seed(args.seed, SETUP_STREAM, round));
        let before = out.failed;
        if let Some((wall, _)) = timed_run(out, shape, &spec) {
            setup.push(wall);
        }
        if round == 0 {
            crate::record_first_peak(out);
        }
        // Set-up ensembles are checked but are not the measured work.
        out.failed = before;
    }

    let window = Instant::now();
    let mut walls = Vec::new();
    let mut replicas = 0usize;
    let mut index = 0;
    while window.elapsed().as_secs_f64() < args.seconds {
        let spec = shape.spec(root_seed(args.seed, TIMED_STREAM, index));
        index += 1;
        out.attempted += spec.replicas as u64;
        if let Some((wall, _)) = timed_run(out, shape, &spec) {
            walls.push(wall);
            replicas += spec.replicas;
        }
    }

    if let Ok(p) = median(&setup) {
        out.set("setup_s", p.value, Some(p.samples));
    }
    // Both figures rest on the median call, so one call slowed by
    // outside load does not move them.
    let per_call = shape.spec(0).replicas as f64;
    if let Ok(p) = median(&walls) {
        out.set("throughput_per_s", per_call / p.value, Some(replicas));
        out.set("lat_ms_p50", p.value * 1e3, Some(p.samples));
    }
    out.notes.push(format!(
        "{} ensembles of {MINERS} miners × {per_call} replicas in {:.3} s; throughput_per_s = replicas/s of the median call, lat_ms_p50 = median ensemble::run call",
        walls.len(),
        walls.iter().sum::<f64>()
    ));
}

/// One timed public call of the replay.
#[derive(Debug, Clone)]
struct Span {
    layer: &'static str,
    ensemble: usize,
    replica: Option<usize>,
    thread: String,
    start: f64,
    end: f64,
}

/// Spans go to memory and are written out when the run ends.
struct SpanLog {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl SpanLog {
    fn new() -> Self {
        SpanLog {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `call`, recording its span; returns its value and duration.
    fn time<R>(
        &self,
        layer: &'static str,
        ensemble: usize,
        replica: Option<usize>,
        call: impl FnOnce() -> R,
    ) -> (R, f64) {
        let start = self.epoch.elapsed().as_secs_f64();
        let value = call();
        let end = self.epoch.elapsed().as_secs_f64();
        self.spans.lock().expect("span log poisoned").push(Span {
            layer,
            ensemble,
            replica,
            thread: format!("{:?}", std::thread::current().id()),
            start,
            end,
        });
        (value, end - start)
    }

    fn durations(&self, layer: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span log poisoned")
            .iter()
            .filter(|s| s.layer == layer)
            .map(|s| s.end - s.start)
            .collect()
    }

    fn write_jsonl(&self, name: &str) -> std::io::Result<std::path::PathBuf> {
        let path = out_dir()?.join(name);
        let mut text = String::new();
        for s in self.spans.lock().expect("span log poisoned").iter() {
            let replica = s.replica.map_or("null".to_string(), |r| r.to_string());
            let _ = writeln!(
                text,
                "{{\"layer\": \"{}\", \"ensemble\": {}, \"replica\": {replica}, \"thread\": \"{}\", \"start_s\": {}, \"end_s\": {}}}",
                s.layer, s.ensemble, s.thread, s.start, s.end
            );
        }
        std::fs::write(&path, text)?;
        Ok(path)
    }
}

/// A replica's reduced outcome plus its attribution.
struct ReplicaOut {
    steps: usize,
    converged: bool,
    churn_applied: usize,
    key: EquilibriumKey,
    potential: f64,
    welfare: f64,
    /// Seconds inside timed calls.
    timed: f64,
    /// Seconds the whole task ran.
    busy: f64,
}

/// One replayed ensemble.
struct Replay {
    aggregate: EnsembleAggregate,
    wall: f64,
    /// Serial coordinator phase, and the part of it inside timed calls.
    serial: f64,
    serial_timed: f64,
    /// Executor phase wall, its worker count, and task seconds.
    parallel: f64,
    workers: usize,
    task_timed: f64,
    task_busy: f64,
    fold: f64,
    steps: u64,
    steals: u64,
    snapshot_bytes: usize,
}

impl Replay {
    /// Share of the replay's wall time no timed call covers.
    fn unattributed_share(&self) -> f64 {
        let attributed = self.serial_timed + self.task_timed / self.workers as f64 + self.fold;
        (1.0 - attributed / self.wall).max(0.0)
    }

    fn busy_share(&self) -> f64 {
        self.task_busy / (self.workers as f64 * self.parallel)
    }
}

/// A final state's equilibrium identity, potential and welfare, reduced
/// exactly as `ensemble::run` reduces it (coin-order summation, so the
/// floats are bit-identical).
fn reduce(
    game: &Game,
    config: &Configuration,
    activity: Option<(&[bool], &[bool])>,
) -> (EquilibriumKey, f64, f64) {
    let system = game.system();
    let k = system.num_coins();
    let live = activity.map_or_else(|| vec![true; k], |(_, coins)| coins.to_vec());
    let mut masses = vec![0u128; k];
    match activity {
        None => {
            let table = config.masses(system);
            for (c, mass) in masses.iter_mut().enumerate() {
                *mass = table.mass_of(CoinId(c));
            }
        }
        Some((miners, _)) => {
            for p in system.miner_ids() {
                if miners[p.index()] {
                    masses[config.coin_of(p).index()] += u128::from(system.power_of(p));
                }
            }
        }
    }
    let mut potential = 0.0f64;
    let mut welfare = 0.0f64;
    for c in 0..k {
        if !live[c] {
            continue;
        }
        if masses[c] == 0 {
            potential = f64::INFINITY;
        } else {
            potential += 1.0 / masses[c] as f64;
            welfare += game.rewards().of(CoinId(c)).to_f64();
        }
    }
    (EquilibriumKey { masses, live }, potential, welfare)
}

/// The fold, in replica order, with the accumulators `ensemble::run`
/// uses.
fn fold(spec: &EnsembleSpec, records: Vec<ReplicaOut>) -> EnsembleAggregate {
    let mut steps = Welford::new();
    let mut sketch = QuantileSketch::new();
    let mut index = FingerprintIndex::new();
    let mut converged = 0;
    let mut churn_deltas = 0u64;
    for r in records {
        steps.push(r.steps as f64);
        sketch.push(r.steps as f64);
        churn_deltas += r.churn_applied as u64;
        if r.converged {
            converged += 1;
            index.record(r.key, r.potential, r.welfare);
        }
    }
    EnsembleAggregate {
        replicas: spec.replicas,
        converged,
        churn_deltas,
        steps: steps.summary(),
        step_percentiles: StepPercentiles {
            p50: sketch.quantile(0.5),
            p90: sketch.quantile(0.9),
            p99: sketch.quantile(0.99),
        },
        equilibria: index.census(CENSUS_ROWS),
    }
}

/// What the serial coordinator phase of a replay did.
struct Coordinator {
    clock: Instant,
    serial_timed: f64,
    snapshot_bytes: usize,
}

/// The executor phase and the fold, shared by both replays.
fn execute_and_fold(
    spec: &EnsembleSpec,
    log: &SpanLog,
    ensemble: usize,
    coordinator: Coordinator,
    task: impl Fn(usize) -> Result<ReplicaOut, String> + Sync,
) -> Result<Replay, String> {
    let serial = coordinator.clock.elapsed().as_secs_f64();
    let registry = Registry::new();
    let metrics = ExecutorMetrics::register(&registry);
    let clock = Instant::now();
    let results = run_indexed_recorded(
        spec.replicas,
        THREADS,
        |i| {
            let clock = Instant::now();
            task(i).map(|mut r| {
                r.busy = clock.elapsed().as_secs_f64();
                r
            })
        },
        Some(&metrics),
    )
    .map_err(|p| p.to_string())?;
    let parallel = clock.elapsed().as_secs_f64();
    let records = results.into_iter().collect::<Result<Vec<_>, _>>()?;
    let task_timed = records.iter().map(|r| r.timed).sum();
    let task_busy = records.iter().map(|r| r.busy).sum();
    let steps = records.iter().map(|r| r.steps as u64).sum();
    let (aggregate, fold_secs) = log.time("ensemble.fold", ensemble, None, || fold(spec, records));
    Ok(Replay {
        aggregate,
        wall: coordinator.clock.elapsed().as_secs_f64(),
        serial,
        serial_timed: coordinator.serial_timed,
        parallel,
        workers: THREADS.min(spec.replicas),
        task_timed,
        task_busy,
        fold: fold_secs,
        steps,
        steals: metrics.stolen.get(),
        snapshot_bytes: coordinator.snapshot_bytes,
    })
}

/// `ensemble-free`: the serial coordinator (fixture, tracker, snapshot
/// encode and revalidating decode), then per replica a random start,
/// `fork_at` and scheduler-free dynamics, then the fold.
fn replay_free(spec: &EnsembleSpec, log: &SpanLog, ensemble: usize) -> Result<Replay, String> {
    let clock = Instant::now();
    let (game, t_fixture) = log.time("fixture.build", ensemble, None, || {
        scale_class_game(spec.miners)
    });
    let start = Configuration::uniform(CoinId(0), game.system()).map_err(|e| e.to_string())?;
    let (tracker, t_tracker) = log.time("tracker.build", ensemble, None, || {
        MassTracker::new(&game, &start)
    });
    let tracker = tracker.map_err(|e| e.to_string())?;
    let (bytes, t_encode) = log.time("snapshot.encode", ensemble, None, || {
        Snapshot::of(&tracker).encode()
    });
    let (snapshot, t_decode) = log.time("snapshot.decode", ensemble, None, || {
        Snapshot::try_from(bytes.as_slice())
    });
    let snapshot = snapshot.map_err(|e| e.to_string())?;
    drop(tracker);
    let coordinator = Coordinator {
        clock,
        serial_timed: t_fixture + t_tracker + t_encode + t_decode,
        snapshot_bytes: bytes.len(),
    };

    let task = |i: usize| -> Result<ReplicaOut, String> {
        let seed = replica_seed(spec.seed, i);
        let game = snapshot.game();
        let (start, t_start) = log.time("replica.start", ensemble, Some(i), || {
            random_config(&mut SmallRng::seed_from_u64(seed), game.system())
        });
        let (tracker, t_fork) = log.time("snapshot.fork", ensemble, Some(i), || {
            snapshot.fork_at(&start)
        });
        let tracker = tracker.map_err(|e| e.to_string())?;
        let (outcome, t_run) = log.time("dynamics.run", ensemble, Some(i), || {
            Dynamics::new(game)
                .from_tracker(tracker)
                .options(LearningOptions::default())
                .run()
        });
        let outcome = outcome.map_err(|e| e.to_string())?;
        let ((key, potential, welfare), t_reduce) =
            log.time("replica.reduce", ensemble, Some(i), || {
                reduce(game, &outcome.final_config, None)
            });
        Ok(ReplicaOut {
            steps: outcome.steps,
            converged: outcome.converged,
            churn_applied: outcome.churn_applied,
            key,
            potential,
            welfare,
            timed: t_start + t_fork + t_run + t_reduce,
            busy: 0.0,
        })
    };
    execute_and_fold(spec, log, ensemble, coordinator, task)
}

/// `ensemble-sched-churn`: no shared snapshot; per replica the churn
/// fixture, its lowering to a universe and delta plan, the activity
/// tracker, and round-robin dynamics over the `MoveSource` cache with
/// the churn plan interleaved.
fn replay_sched_churn(
    spec: &EnsembleSpec,
    log: &SpanLog,
    ensemble: usize,
) -> Result<Replay, String> {
    let clock = Instant::now();
    let churn = spec.churn.clone().ok_or("the spec carries no churn plan")?;
    let kind = spec.scheduler.ok_or("the spec carries no scheduler")?;
    let coordinator = Coordinator {
        clock,
        serial_timed: 0.0,
        snapshot_bytes: 0,
    };

    let task = |i: usize| -> Result<ReplicaOut, String> {
        let seed = replica_seed(spec.seed, i);
        let (scenario, t_fixture) = log.time("fixture.build", ensemble, Some(i), || {
            let mut scenario = scale_churn_base(spec.miners, spec.horizon_days, seed);
            scenario.name = format!("{}_r{seed:x}", spec.name);
            scenario.churn = Some(churn.clone());
            scenario
        });
        let (lowered, t_lower) = log.time("churn.lower", ensemble, Some(i), || {
            churn_universe(&scenario, CHURN_RESOLUTION).map(|universe| {
                let plan = ChurnPlan::with_events(
                    Some(universe.miner_active.clone()),
                    Some(universe.coin_active.clone()),
                    universe.step_deltas(spec.miners),
                );
                (universe, plan)
            })
        });
        let (universe, plan) = lowered.map_err(|e| e.to_string())?;
        let (tracker, t_tracker) = log.time("tracker.build", ensemble, Some(i), || {
            MassTracker::with_activity(
                &universe.game,
                &universe.start,
                &universe.miner_active,
                &universe.coin_active,
            )
        });
        let tracker = tracker.map_err(|e| e.to_string())?;
        let mut scheduler = kind.build(seed);
        let (outcome, t_run) = log.time("sched.run", ensemble, Some(i), || {
            Dynamics::new(&universe.game)
                .from_tracker(tracker)
                .scheduler(scheduler.as_mut())
                .options(LearningOptions::default())
                .churn(&plan)
                .run()
        });
        let outcome = outcome.map_err(|e| e.to_string())?;
        let (miners, coins) = outcome
            .final_activity
            .clone()
            .ok_or("a churny run reported no final activity")?;
        let ((key, potential, welfare), t_reduce) =
            log.time("replica.reduce", ensemble, Some(i), || {
                reduce(
                    &universe.game,
                    &outcome.final_config,
                    Some((&miners, &coins)),
                )
            });
        Ok(ReplicaOut {
            steps: outcome.steps,
            converged: outcome.converged,
            churn_applied: outcome.churn_applied,
            key,
            potential,
            welfare,
            timed: t_fixture + t_lower + t_tracker + t_run + t_reduce,
            busy: 0.0,
        })
    };
    execute_and_fold(spec, log, ensemble, coordinator, task)
}

/// The replay fidelity check: the replay must reproduce the measured
/// program's aggregate exactly.
fn check_fidelity(
    out: &mut Outcome,
    seed: u64,
    run: &EnsembleAggregate,
    replay: &EnsembleAggregate,
) {
    let fields = [
        ("replicas", run.replicas == replay.replicas),
        ("converged", run.converged == replay.converged),
        ("churn_deltas", run.churn_deltas == replay.churn_deltas),
        ("steps", run.steps == replay.steps),
        (
            "step_percentiles",
            run.step_percentiles == replay.step_percentiles,
        ),
        (
            "equilibria.distinct",
            run.equilibria.distinct == replay.equilibria.distinct,
        ),
        (
            "equilibria.total_hits",
            run.equilibria.total_hits == replay.equilibria.total_hits,
        ),
        ("equilibria", run.equilibria == replay.equilibria),
    ];
    for (field, same) in fields {
        out.check(same, || {
            format!("replay fidelity: seed {seed:#x}: replay {field} differs from ensemble::run")
        });
    }
}

fn traced(args: &Args, shape: Shape, out: &mut Outcome) {
    let log = SpanLog::new();
    let mut replays = Vec::new();
    let mut overhead = Vec::new();
    let count = match shape {
        Shape::Free => TRACED_FREE,
        Shape::SchedChurn => TRACED_SCHED_CHURN,
    };
    for index in 0..count {
        let spec = shape.spec(root_seed(args.seed, TIMED_STREAM, index));
        out.attempted += spec.replicas as u64;
        let Some((run_wall, report)) = timed_run(out, shape, &spec) else {
            continue;
        };
        let replayed = match shape {
            Shape::Free => replay_free(&spec, &log, index),
            Shape::SchedChurn => replay_sched_churn(&spec, &log, index),
        };
        match replayed {
            Ok(replay) => {
                check_fidelity(out, spec.seed, &report.aggregate, &replay.aggregate);
                overhead.push(replay.wall / run_wall);
                replays.push(replay);
            }
            Err(e) => out
                .problems
                .push(format!("replay of seed {:#x} failed: {e}", spec.seed)),
        }
    }
    if shape == Shape::Free {
        recorder_overhead(args, shape, out);
    }

    let ms = |layer: &str| median(&log.durations(layer)).map_or(0.0, |p| p.value * 1e3);
    let per = |f: fn(&Replay) -> f64| {
        median(&replays.iter().map(f).collect::<Vec<_>>()).map_or(0.0, |p| p.value)
    };
    let total = |f: fn(&Replay) -> u64| replays.iter().map(f).sum::<u64>() as f64;
    let run_secs = |layer: &str| log.durations(layer).iter().sum::<f64>();
    let steps = total(|r| r.steps);

    out.set("fixture.build_ms", ms("fixture.build"), None);
    out.set("tracker.build_ms", ms("tracker.build"), None);
    out.set(
        "ensemble.serial_ms",
        per(|r| r.serial * 1e3),
        Some(replays.len()),
    );
    out.set(
        "ensemble.fold_us",
        per(|r| r.fold * 1e6),
        Some(replays.len()),
    );
    out.set(
        "ensemble.unattributed_share",
        per(Replay::unattributed_share),
        Some(replays.len()),
    );
    out.set(
        "executor.busy_share",
        per(Replay::busy_share),
        Some(replays.len()),
    );
    out.set("executor.steals", total(|r| r.steals), None);
    out.set(
        "bench.trace_overhead",
        median(&overhead).map_or(0.0, |p| p.value),
        Some(overhead.len()),
    );
    match shape {
        Shape::Free => {
            out.set("snapshot.encode_ms", ms("snapshot.encode"), None);
            out.set("snapshot.decode_ms", ms("snapshot.decode"), None);
            out.set("snapshot.fork_ms", ms("snapshot.fork"), None);
            out.set("snapshot.bytes", per(|r| r.snapshot_bytes as f64), None);
            out.set("dynamics.steps", steps, None);
            out.set("dynamics.run_ms", ms("dynamics.run"), None);
            out.set(
                "dynamics.steps_per_s",
                steps / run_secs("dynamics.run"),
                None,
            );
        }
        Shape::SchedChurn => {
            out.set("sched.steps", steps, None);
            out.set("sched.run_ms", ms("sched.run"), None);
            out.set("sched.steps_per_s", steps / run_secs("sched.run"), None);
            out.set("churn.lower_ms", ms("churn.lower"), None);
            out.set(
                "churn.deltas",
                replays
                    .iter()
                    .map(|r| r.aggregate.churn_deltas)
                    .sum::<u64>() as f64,
                None,
            );
        }
    }
    out.notes.push(format!(
        "{} ensembles replayed, each checked against ensemble::run",
        replays.len()
    ));
    match log.write_jsonl(&format!("{}-seed{}-spans.jsonl", args.workload, args.seed)) {
        Ok(path) => out
            .notes
            .push(format!("spans written to {}", path.display())),
        Err(e) => out.problems.push(format!("cannot write spans: {e}")),
    }
}

/// `telemetry.recorder_overhead`: wall time of `run_traced` with an
/// enabled flight recorder over wall time of plain `run`, on the same
/// spec, as interleaved pairs whose order alternates; reported as the
/// median ratio with its interquartile distance.
fn recorder_overhead(args: &Args, shape: Shape, out: &mut Outcome) {
    let mut ratios = Vec::new();
    for pair in 0..RECORDER_PAIRS {
        let spec = shape.spec(root_seed(args.seed, RECORDER_STREAM, pair));
        let bare = || {
            let clock = Instant::now();
            ensemble::run(&spec, THREADS).map(|r| (clock.elapsed().as_secs_f64(), r))
        };
        let recorded = || {
            let recorder = TraceRecorder::new(DEFAULT_LANE_CAPACITY);
            let clock = Instant::now();
            ensemble::run_traced(&spec, THREADS, &Registry::disabled(), &recorder)
                .map(|r| (clock.elapsed().as_secs_f64(), r))
        };
        let (b, r) = if pair % 2 == 0 {
            let b = bare();
            (b, recorded())
        } else {
            let r = recorded();
            (bare(), r)
        };
        match (b, r) {
            (Ok((tb, rb)), Ok((tr, rr))) => {
                out.check(rb.aggregate == rr.aggregate, || {
                    format!("seed {:#x}: recording changed the aggregate", spec.seed)
                });
                ratios.push(tr / tb);
            }
            (Err(e), _) | (_, Err(e)) => out
                .problems
                .push(format!("recorder pair {pair} failed: {e}")),
        }
    }
    if let Some((ratio, iqr)) = median_and_iqr(&ratios) {
        out.set("telemetry.recorder_overhead", ratio, Some(ratios.len()));
        out.set("telemetry.recorder_overhead_iqr", iqr, Some(ratios.len()));
    }
}
