//! The Game-of-Coins benchmark: one command that drives a named
//! workload through the public APIs of the engine and the service,
//! checks every output, and prints each metric by name with its unit.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload ensemble-free --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no tracing at all;
//! `--trace 1` replays the same inputs layer by layer, timing every
//! public call from this crate, and reports the per-layer metrics. The
//! last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. Why each workload
//! exists, and which layer metric should move which end-to-end metric,
//! is written down in `perfbench/NOTES.md`.

mod awake;
mod ensembles;
mod openloop;
mod serve;
mod stats;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// A run that has not finished by then is wedged: it exits non-zero
/// rather than hang its caller.
const WATCHDOG: Duration = Duration::from_secs(170);

/// Where results and span dumps are written, relative to the checkout.
const OUT_DIR: &str = ".bench_out";

/// The end-to-end metrics every workload reports with `--trace 0`.
/// Each workload gives them its own reading (see `NOTES.md`).
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("lat_ms_p50", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every workload reports with `--trace 1`; a
/// layer the workload never calls reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("fixture.build_ms", "ms"),
    ("tracker.build_ms", "ms"),
    ("snapshot.encode_ms", "ms"),
    ("snapshot.decode_ms", "ms"),
    ("snapshot.fork_ms", "ms"),
    ("snapshot.bytes", "bytes"),
    ("dynamics.steps", "count"),
    ("dynamics.run_ms", "ms"),
    ("dynamics.steps_per_s", "1/s"),
    ("sched.steps", "count"),
    ("sched.run_ms", "ms"),
    ("sched.steps_per_s", "1/s"),
    ("churn.lower_ms", "ms"),
    ("churn.deltas", "count"),
    ("ensemble.serial_ms", "ms"),
    ("ensemble.fold_us", "us"),
    ("ensemble.unattributed_share", "share"),
    ("executor.busy_share", "share"),
    ("executor.steals", "count"),
    ("bench.trace_overhead", "ratio"),
    ("proto.status_rtt_us", "us"),
    ("proto.request_bytes", "bytes"),
    ("proto.response_bytes", "bytes"),
    ("server.send_lag_ms_p99", "ms"),
    ("server.compute_ms_p50", "ms"),
    ("server.wire_ms_p50", "ms"),
    ("server.rejected", "count"),
    ("server.sessions", "count"),
    ("telemetry.scrape_ms", "ms"),
    ("telemetry.recorder_overhead", "ratio"),
    ("telemetry.recorder_overhead_iqr", "ratio"),
];

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: &[&str] = &["ensemble-free", "ensemble-sched-churn", "serve-open"];

/// One measured value, with the count of observations behind it when
/// it is an order statistic or a rate.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub value: f64,
    pub samples: Option<usize>,
}

/// What one run found: the metrics, the operations it attempted and
/// failed, and every output check that did not hold.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: BTreeMap<&'static str, Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    /// Extra human-readable lines (per-phase figures, breakdowns).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64, samples: Option<usize>) {
        self.metrics.insert(name, Metric { value, samples });
    }

    /// Records a failed output check by name.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }
}

/// The parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 60.0) {
                    return Err(format!("--seconds must be in (0, 60], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Peak resident set of this process, MiB (`VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Records `peak_rss_mb` once the first set-up round is done: the peak
/// resident set of a fresh process that has run one unit of the
/// workload. Later growth is the allocator keeping freed memory across
/// repeated calls; it swings by a third from run to run on the same
/// inputs, so it is printed at the end but does not gate.
pub fn record_first_peak(out: &mut Outcome) {
    match peak_rss_mb() {
        Some(mb) => out.set("peak_rss_mb", mb, None),
        None => out.problems.push("peak RSS unreadable".into()),
    }
}

/// The machine and build a result was measured on.
fn fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = std::process::Command::new(std::env::var("RUSTC").unwrap_or("rustc".into()))
        .arg("--version")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": {}, \"rustc\": {}, \"commit\": {}}}",
        json_str(&cpu),
        json_str(&rustc),
        json_str(&git_commit(Path::new(".")).unwrap_or_else(|| "unknown".into()))
    )
}

/// The checked-out commit, read from `.git` without running git (a
/// checkout without history has none).
fn git_commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (id, name) = line.split_once(' ')?;
        (name == reference).then(|| id.to_string())
    })
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The output directory, created on first use.
pub fn out_dir() -> std::io::Result<PathBuf> {
    let dir = PathBuf::from(OUT_DIR);
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("perfbench: still running after {WATCHDOG:?}; giving up");
        std::process::exit(3);
    });
    let machine = fingerprint();
    println!("machine: {machine}");
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );

    let mut outcome = match args.workload.as_str() {
        "serve-open" => serve::run(&args),
        workload => ensembles::run(&args, workload),
    };

    let names = if args.trace { PER_LAYER } else { END_TO_END };
    if let Some(peak) = peak_rss_mb() {
        outcome.notes.push(format!(
            "peak resident set at the end of the run = {peak} MB"
        ));
    }
    for name in outcome.metrics.keys() {
        if !names.iter().any(|(n, _)| n == name) {
            outcome.problems.push(format!("unlisted metric {name}"));
        }
    }

    for note in &outcome.notes {
        println!("  {note}");
    }
    let mut metrics = String::new();
    for (i, (name, unit)) in names.iter().enumerate() {
        let metric = outcome.metrics.get(name).copied().unwrap_or(Metric {
            value: 0.0,
            samples: None,
        });
        if !metric.value.is_finite() || (!args.trace && metric.value <= 0.0) {
            outcome.problems.push(format!(
                "{name} is not a positive finite number: {}",
                metric.value
            ));
        }
        let value = if metric.value.is_finite() {
            metric.value
        } else {
            0.0
        };
        match metric.samples {
            Some(n) => println!("{name} = {value} {unit} (n={n})"),
            None => println!("{name} = {value} {unit}"),
        }
        let _ = write!(
            metrics,
            "{}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
            if i == 0 { "" } else { ", " }
        );
    }
    if outcome.attempted == 0 {
        outcome.problems.push("no operation was attempted".into());
    }
    for problem in &outcome.problems {
        println!("CHECK FAILED: {problem}");
    }
    let correct = outcome.problems.is_empty();
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.attempted.max(1),
        outcome.failed
    );
    match out_dir() {
        Ok(dir) => {
            let file = dir.join(format!(
                "{}-seed{}-trace{}.json",
                args.workload, args.seed, args.trace as u8
            ));
            let stamped = format!("{{\"machine\": {machine}, \"result\": {result}}}\n");
            if let Err(e) = std::fs::write(&file, stamped) {
                eprintln!("perfbench: cannot write {}: {e}", file.display());
            }
        }
        Err(e) => eprintln!("perfbench: cannot create {OUT_DIR}: {e}"),
    }
    println!("{result}");
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric and workload names printed here are the ones
    /// `BENCHMARK.json` declares, with the same units.
    #[test]
    fn names_match_the_benchmark_manifest() {
        let manifest = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(manifest.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for workload in WORKLOADS {
            assert!(manifest.contains(&format!("\"name\": \"{workload}\"")));
        }
        let declared = manifest.matches("\"name\":").count();
        assert_eq!(
            declared,
            END_TO_END.len() + PER_LAYER.len() + WORKLOADS.len()
        );
    }
}
