//! The `serve-open` workload: an open loop against an in-process
//! `registry_server` (stock `ServerConfig` but two compute threads),
//! driven from two generator threads over two connections at seeded
//! Poisson arrivals of 200, 400 and 800 requests per second. The mix is
//! 80% `RunEnsemble` (1000 miners × 2 replicas), 10% `Status` and 10%
//! `Metrics`. Every request is timed from when it was due; each one
//! carries a client deadline, so a dead or wedged server ends the run
//! with counted failures instead of a hang.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use goc_analysis::ensemble::executor::replica_seed;
use goc_analysis::ensemble::{self, EnsembleReport, EnsembleSpec};
use goc_experiments::service::{registry_server, registry_server_traced};
use goc_proto::{Connection, ReportPayload, Request, RequestEnvelope, Response};
use goc_server::{Server, ServerConfig, ServerError, ServerSummary};
use goc_telemetry::trace::{TraceEventKind, TracePhase, TraceRecorder};
use goc_telemetry::{with_label, Registry};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::awake::KeepAwake;
use crate::openloop::{drive, poisson_schedule, Timed};
use crate::stats::{median, percentile, Percentile, PercentileError};
use crate::{out_dir, Args, Outcome};

/// Offered rates, one phase each, with the same request count per
/// phase.
const RATES: [f64; 3] = [200.0, 400.0, 800.0];
/// The window is cut into rounds that each run every rate phase once;
/// a phase's median and goodput are medians over its rounds, so a burst
/// of outside load spoils one round rather than the run.
const ROUNDS: usize = 10;
/// The rate whose median latency is `lat_ms_p50` and whose goodput is
/// `throughput_per_s`: the lightest load, where framing and compute
/// dominate. At 400 and 800 req/s queueing on a 2-core Xeon VM follows
/// the hypervisor's steal from run to run (goodput at 800 swung between
/// 66 and 716 req/s on the same code), so those figures are printed but
/// do not gate.
const GATE_RATE: f64 = 200.0;
/// Generator threads, one connection each.
const CONNECTIONS: usize = 2;
/// Compute threads per request on the server.
const SERVER_THREADS: usize = 2;
/// Compute requests a session sends before the generator reopens it,
/// safely below the server's default budget of 256.
const REOPEN_AFTER: u64 = 250;
/// Per-request client deadline.
const DEADLINE: Duration = Duration::from_secs(2);
/// Expired deadlines after which the server is taken for wedged: the
/// requests still due fail at once, so the run ends with counted
/// failures instead of waiting out every deadline.
const WEDGED_AFTER: u64 = 3;
/// The latency limit behind the goodput figure.
const GOOD_WITHIN: Duration = Duration::from_millis(5);
/// Population and replicas of every served ensemble.
const MINERS: usize = 1000;
const REPLICAS: usize = 2;
/// Set-up rounds: bind, connect and warm up; `setup_s` is their median.
const SETUP_ROUNDS: usize = 9;
/// Closed-loop warm-up requests per connection in each set-up round.
const WARMUP: usize = 50;
/// Served ensembles kept per phase round for the after-window
/// comparison with a local run (fewer when the pick is not an ensemble).
const SAMPLES_PER_PHASE: usize = 2;
/// Ring capacity of the server's flight recorder in the traced run.
const TRACE_CAPACITY: usize = 1 << 16;

/// What a scheduled request asks for.
#[derive(Debug, Clone)]
enum Kind {
    Ensemble(EnsembleSpec),
    Status,
    Metrics,
}

impl Kind {
    fn draw(rng: &mut SmallRng) -> Kind {
        let u: f64 = rng.gen();
        if u < 0.8 {
            Kind::Ensemble(EnsembleSpec::new(MINERS, REPLICAS, rng.gen()))
        } else if u < 0.9 {
            Kind::Status
        } else {
            Kind::Metrics
        }
    }

    fn request(&self) -> Request {
        match self {
            Kind::Ensemble(spec) => Request::RunEnsemble { spec: spec.clone() },
            Kind::Status => Request::Status,
            Kind::Metrics => Request::Metrics,
        }
    }
}

/// Bytes the client moved, both ways.
#[derive(Debug, Default)]
struct Bytes {
    read: AtomicU64,
    written: AtomicU64,
}

/// A TCP stream that counts the bytes crossing it.
struct Counted {
    stream: TcpStream,
    bytes: Arc<Bytes>,
}

impl Read for Counted {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.stream.read(buf)?;
        self.bytes.read.fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }
}

impl Write for Counted {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.stream.write(buf)?;
        self.bytes.written.fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.stream.flush()
    }
}

/// The generator's own account of what the server did, compared with
/// the server's drain summary at shutdown.
#[derive(Debug, Default)]
struct Ledger {
    served: AtomicU64,
    rejected: AtomicU64,
}

/// Shared by every connection of one server: its address, the ledger,
/// globally unique envelope ids (the server's spans are keyed by them)
/// and the byte counters.
struct Target {
    addr: SocketAddr,
    ledger: Ledger,
    next_id: AtomicU64,
    bytes: Arc<Bytes>,
    expired: AtomicU64,
}

/// One client session with a deadline on every read and write.
struct Session {
    conn: Connection<Counted>,
    compute: u64,
}

/// What became of one request.
#[derive(Debug)]
struct Reply {
    id: u64,
    kind: &'static str,
    /// Time from send to the `Accepted` frame, for admitted compute.
    accepted_after: Option<Duration>,
    ok: bool,
    /// The served report, kept for the after-window comparison.
    report: Option<EnsembleReport>,
    failure: Option<String>,
}

impl Session {
    fn open(target: &Target) -> io::Result<Session> {
        let stream = TcpStream::connect_timeout(&target.addr, DEADLINE)?;
        stream.set_read_timeout(Some(DEADLINE))?;
        stream.set_write_timeout(Some(DEADLINE))?;
        stream.set_nodelay(true)?;
        Ok(Session {
            conn: Connection::new(Counted {
                stream,
                bytes: Arc::clone(&target.bytes),
            }),
            compute: 0,
        })
    }

    /// Sends `request` as envelope `id` and reads to its terminal
    /// frame, within [`DEADLINE`].
    fn call(&mut self, id: u64, request: Request) -> Result<(Response, Option<Duration>), String> {
        let clock = Instant::now();
        self.conn
            .send_request(&RequestEnvelope::new(id, request))
            .map_err(|e| format!("send: {e}"))?;
        let mut accepted = None;
        loop {
            let envelope = self
                .conn
                .recv_response()
                .map_err(|e| format!("receive: {e}"))?;
            if envelope.id != id {
                return Err(format!(
                    "reply for envelope {} to request {id}",
                    envelope.id
                ));
            }
            if matches!(envelope.response, Response::Accepted) {
                accepted = Some(clock.elapsed());
            }
            if envelope.response.is_terminal() {
                return Ok((envelope.response, accepted));
            }
            if clock.elapsed() > DEADLINE {
                return Err(format!("no terminal frame within {DEADLINE:?}"));
            }
        }
    }
}

/// Sends one scheduled request on `session` (opening or reopening it as
/// needed), checks the reply, and keeps the ledger.
fn exchange(target: &Target, session: &mut Option<Session>, kind: &Kind, keep: bool) -> Reply {
    let id = target.next_id.fetch_add(1, Ordering::Relaxed);
    let request = kind.request();
    let mut reply = Reply {
        id,
        kind: request.kind(),
        accepted_after: None,
        ok: false,
        report: None,
        failure: None,
    };
    if target.expired.load(Ordering::Relaxed) >= WEDGED_AFTER {
        reply.failure = Some(format!("not sent: {WEDGED_AFTER} deadlines expired"));
        return reply;
    }
    let compute = matches!(kind, Kind::Ensemble(_));
    if session
        .as_ref()
        .is_some_and(|s| compute && s.compute >= REOPEN_AFTER)
    {
        *session = None;
    }
    if session.is_none() {
        match Session::open(target) {
            Ok(s) => *session = Some(s),
            Err(e) => {
                reply.failure = Some(format!("connect: {e}"));
                return reply;
            }
        }
    }
    let s = session.as_mut().expect("opened above");
    if compute {
        s.compute += 1;
    }
    let clock = Instant::now();
    let response = match s.call(id, request) {
        Ok((response, accepted)) => {
            reply.accepted_after = accepted;
            response
        }
        Err(e) => {
            if clock.elapsed() >= DEADLINE {
                target.expired.fetch_add(1, Ordering::Relaxed);
            }
            // The stream may hold a late frame: start the next request
            // on a fresh connection.
            *session = None;
            reply.failure = Some(e);
            return reply;
        }
    };
    match (kind, response) {
        (Kind::Ensemble(spec), Response::Report(ReportPayload::Ensemble(report))) => {
            target.ledger.served.fetch_add(1, Ordering::Relaxed);
            let agg = &report.aggregate;
            reply.ok =
                report.spec == *spec && agg.replicas == REPLICAS && agg.converged == REPLICAS;
            if !reply.ok {
                reply.failure = Some(format!(
                    "ensemble {:#x}: {} of {} replicas converged",
                    spec.seed, agg.converged, agg.replicas
                ));
            }
            if keep {
                reply.report = Some(report);
            }
        }
        (Kind::Status, Response::Report(ReportPayload::Status(_)))
        | (Kind::Metrics, Response::Report(ReportPayload::Metrics { .. })) => reply.ok = true,
        (_, Response::Rejected { reason, detail }) => {
            target.ledger.rejected.fetch_add(1, Ordering::Relaxed);
            reply.failure = Some(format!("rejected ({}): {detail}", reason.name()));
        }
        (_, other) => reply.failure = Some(format!("unexpected terminal frame {other:?}")),
    }
    reply
}

/// A server running on its own thread.
struct Running {
    target: Target,
    registry: Registry,
    tracer: TraceRecorder,
    handle: JoinHandle<Result<ServerSummary, ServerError>>,
}

fn start(traced: bool) -> Result<Running, String> {
    let config = ServerConfig {
        threads: SERVER_THREADS,
        ..ServerConfig::default()
    };
    let server: Server = if traced {
        registry_server_traced(config, TraceRecorder::new(TRACE_CAPACITY))
    } else {
        registry_server(config)
    }
    .map_err(|e| e.to_string())?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    let registry = server.registry();
    let tracer = server.tracer();
    Ok(Running {
        target: Target {
            addr,
            ledger: Ledger::default(),
            next_id: AtomicU64::new(1),
            expired: AtomicU64::new(0),
            bytes: Arc::new(Bytes::default()),
        },
        registry,
        tracer,
        handle: std::thread::spawn(move || server.run()),
    })
}

/// Drains the server with `Shutdown`, joins it, and checks its summary
/// against the generator's ledger.
fn stop(running: Running, out: &mut Outcome) {
    let target = &running.target;
    let mut session = None;
    let id = target.next_id.fetch_add(1, Ordering::Relaxed);
    match Session::open(target).and_then(|mut s| {
        let reply = s.call(id, Request::Shutdown).map_err(io::Error::other);
        session = Some(s);
        reply
    }) {
        Ok((Response::Report(ReportPayload::ShutdownAck), _)) => {}
        Ok((other, _)) => out.problems.push(format!("Shutdown answered {other:?}")),
        Err(e) => {
            // Without an acknowledged drain the server thread would
            // never end; leave it to the watchdog rather than hang.
            out.problems.push(format!("Shutdown failed: {e}"));
            return;
        }
    }
    drop(session);
    match running.handle.join() {
        Ok(Ok(summary)) => {
            let served = target.ledger.served.load(Ordering::Relaxed);
            let rejected = target.ledger.rejected.load(Ordering::Relaxed);
            out.check(summary.served == served && summary.rejected == rejected, || {
                format!(
                    "server summary served {} rejected {}, generator ledger served {served} rejected {rejected}",
                    summary.served, summary.rejected
                )
            });
        }
        Ok(Err(e)) => out.problems.push(format!("server failed: {e}")),
        Err(_) => out.problems.push("server thread panicked".into()),
    }
}

/// One set-up round: bind, connect both connections and warm up closed
/// loop with the workload's mix.
fn setup_round(traced: bool, seed: u64, out: &mut Outcome) -> Result<Running, String> {
    let running = start(traced)?;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut sessions: Vec<Option<Session>> = (0..CONNECTIONS).map(|_| None).collect();
    for k in 0..WARMUP * CONNECTIONS {
        let reply = exchange(
            &running.target,
            &mut sessions[k % CONNECTIONS],
            &Kind::draw(&mut rng),
            false,
        );
        if let Some(failure) = reply.failure {
            out.problems
                .push(format!("warm-up request failed: {failure}"));
        }
    }
    Ok(running)
}

/// One rate phase's requests, timed from their due times.
struct Phase {
    rate: f64,
    requests: Vec<Timed<Reply>>,
}

impl Phase {
    fn latencies_ms(&self) -> Vec<f64> {
        self.requests
            .iter()
            .filter(|t| t.outcome.ok)
            .map(|t| t.latency().as_secs_f64() * 1e3)
            .collect()
    }

    /// Requests per second that completed correctly within
    /// [`GOOD_WITHIN`], over the phase's nominal length (so the
    /// realized Poisson count does not move it); a failed request misses
    /// the limit.
    fn goodput(&self) -> f64 {
        let good = self
            .requests
            .iter()
            .filter(|t| t.outcome.ok && t.latency() <= GOOD_WITHIN)
            .count();
        good as f64 * self.rate / self.requests.len().max(1) as f64
    }
}

fn run_phase(target: &Target, seed: u64, rate: f64, count: usize, keep_every: usize) -> Phase {
    let mut rng = SmallRng::seed_from_u64(seed);
    let due = poisson_schedule(&mut rng, rate, count);
    let kinds: Vec<Kind> = (0..count).map(|_| Kind::draw(&mut rng)).collect();
    let requests = drive(&due, CONNECTIONS, |_| {
        let mut session = None;
        let kinds = &kinds;
        move |i: usize| {
            exchange(
                target,
                &mut session,
                &kinds[i],
                i.is_multiple_of(keep_every),
            )
        }
    });
    Phase { rate, requests }
}

/// Runs the workload; with `args.trace` the server's flight recorder is
/// on and every request's spans are written out. The processors are kept
/// awake from set-up to shutdown, so a request's latency does not
/// include waking an idle CPU on the host (see `awake`).
pub fn run(args: &Args) -> Outcome {
    let awake = KeepAwake::start();
    let mut out = measure(args);
    let spinners = awake.stop();
    out.notes.push(format!(
        "{spinners} idle-policy spinners kept the processors awake"
    ));
    out
}

fn measure(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut setup = Vec::new();
    let mut running = None;
    for round in 0..SETUP_ROUNDS {
        let clock = Instant::now();
        match setup_round(args.trace, replica_seed(args.seed, 100 + round), &mut out) {
            Ok(server) => {
                setup.push(clock.elapsed().as_secs_f64());
                if round == 0 && !args.trace {
                    crate::record_first_peak(&mut out);
                }
                if round + 1 < SETUP_ROUNDS {
                    stop(server, &mut out);
                } else {
                    running = Some(server);
                }
            }
            Err(e) => out.problems.push(format!("server set-up failed: {e}")),
        }
    }
    let Some(running) = running else {
        out.attempted = 1;
        out.failed = 1;
        return out;
    };

    // Equal request counts per phase, so each rate's p99 rests on the
    // same number of samples.
    let count =
        (args.seconds / ROUNDS as f64 / RATES.iter().map(|r| 1.0 / r).sum::<f64>()) as usize;
    let keep_every = count / SAMPLES_PER_PHASE + 1;
    let mut phases = Vec::new();
    for round in 0..ROUNDS {
        for (p, &rate) in RATES.iter().enumerate() {
            let seed = replica_seed(args.seed, 200 + round * RATES.len() + p);
            phases.push(run_phase(&running.target, seed, rate, count, keep_every));
        }
    }

    for phase in &phases {
        for t in &phase.requests {
            out.attempted += 1;
            if !t.outcome.ok {
                out.failed += 1;
                if out.failed <= 5 {
                    let why = t.outcome.failure.as_deref().unwrap_or("unknown");
                    out.problems
                        .push(format!("r{} request {}: {why}", phase.rate, t.index));
                }
            }
        }
    }
    if out.failed > 5 {
        out.problems
            .push(format!("{} requests failed in all", out.failed));
    }
    compare_sample(&phases, &mut out);

    let traced = args.trace.then(|| Traced::capture(&running));
    stop(running, &mut out);

    let figures: Vec<RateFigures> = RATES
        .iter()
        .map(|&rate| RateFigures::of(&phases, rate))
        .collect();
    for f in &figures {
        f.note(&mut out);
    }
    match traced {
        Some(traced) => traced.report(args, &phases, &mut out),
        None => {
            if let Ok(p) = median(&setup) {
                out.set("setup_s", p.value, Some(p.samples));
            }
            for f in figures.iter().filter(|f| f.rate == GATE_RATE) {
                out.set("lat_ms_p50", f.p50_ms, Some(f.samples));
                out.set("throughput_per_s", f.goodput, Some(f.requests));
            }
            out.notes.push(format!(
                "lat_ms_p50 and throughput_per_s are the p50 and goodput at {GATE_RATE} req/s offered"
            ));
        }
    }
    out
}

/// After the window: served ensembles must equal a local
/// `ensemble::run` of the same spec, byte for byte.
fn compare_sample(phases: &[Phase], out: &mut Outcome) {
    let mut compared = 0;
    for report in phases
        .iter()
        .flat_map(|p| &p.requests)
        .filter_map(|t| t.outcome.report.as_ref())
    {
        compared += 1;
        match ensemble::run(&report.spec, SERVER_THREADS) {
            Ok(local) => out.check(
                local.deterministic_json() == report.deterministic_json(),
                || {
                    format!(
                        "served ensemble {:#x} differs from a local run",
                        report.spec.seed
                    )
                },
            ),
            Err(e) => out.problems.push(format!(
                "local ensemble {:#x} failed: {e}",
                report.spec.seed
            )),
        }
    }
    out.check(compared > 0, || "no served ensemble was sampled".into());
    out.notes.push(format!(
        "{compared} served ensembles compared with local runs byte for byte"
    ));
}

/// One offered rate's figures over all of its rounds.
struct RateFigures {
    rate: f64,
    /// Median over rounds of each round's median latency.
    p50_ms: f64,
    /// Latencies pooled over rounds; `samples` completed correctly.
    p99: Result<Percentile, PercentileError>,
    samples: usize,
    /// Median over rounds of each round's goodput.
    goodput: f64,
    requests: usize,
}

impl RateFigures {
    fn of(phases: &[Phase], rate: f64) -> RateFigures {
        let rounds: Vec<&Phase> = phases.iter().filter(|p| p.rate == rate).collect();
        let round_median = |p: &&Phase| median(&p.latencies_ms()).map_or(f64::NAN, |m| m.value);
        let pooled: Vec<f64> = rounds.iter().flat_map(|p| p.latencies_ms()).collect();
        let of_rounds = |v: Vec<f64>| median(&v).map_or(f64::NAN, |m| m.value);
        RateFigures {
            rate,
            p50_ms: of_rounds(rounds.iter().map(round_median).collect()),
            p99: percentile(&pooled, 0.99),
            samples: pooled.len(),
            goodput: of_rounds(rounds.iter().map(|p| p.goodput()).collect()),
            requests: rounds.iter().map(|p| p.requests.len()).sum(),
        }
    }

    fn note(&self, out: &mut Outcome) {
        let tag = format!("r{}", self.rate);
        out.notes.push(format!(
            "lat_ms_p50.{tag} = {} ms (n={})",
            self.p50_ms, self.samples
        ));
        match self.p99 {
            Ok(p) => out.notes.push(format!(
                "lat_ms_p99.{tag} = {} ms (n={})",
                p.value, p.samples
            )),
            Err(e) => out
                .notes
                .push(format!("lat_ms_p99.{tag} not reported: {e}")),
        }
        out.notes.push(format!(
            "goodput_rps.{tag} = {} 1/s within {GOOD_WITHIN:?} (n={})",
            self.goodput, self.requests
        ));
    }
}

/// The server-side view the traced run reads after the window.
struct Traced {
    registry: Registry,
    tracer: TraceRecorder,
    bytes: (u64, u64),
}

impl Traced {
    fn capture(running: &Running) -> Traced {
        let bytes = &running.target.bytes;
        Traced {
            registry: running.registry.clone(),
            tracer: running.tracer.clone(),
            bytes: (
                bytes.written.load(Ordering::Relaxed),
                bytes.read.load(Ordering::Relaxed),
            ),
        }
    }

    /// Per-layer metrics of the served path, and the per-request spans
    /// (due, send, accepted, terminal; plus the server's own serve span
    /// when its recorder kept it) written to a JSON-lines file.
    fn report(self, args: &Args, phases: &[Phase], out: &mut Outcome) {
        let snapshot = self.tracer.snapshot();
        let mut opened = BTreeMap::new();
        let mut serve = BTreeMap::new();
        for event in snapshot
            .events
            .iter()
            .filter(|e| e.kind == TraceEventKind::RequestServe)
        {
            match event.phase {
                TracePhase::Begin => {
                    opened.insert(event.correlation, event.nanos);
                }
                TracePhase::End => {
                    if let Some(begin) = opened.remove(&event.correlation) {
                        serve.insert(event.correlation, Duration::from_nanos(event.nanos - begin));
                    }
                }
                TracePhase::Instant => {}
            }
        }

        let all = || phases.iter().flat_map(|p| &p.requests);
        let rtt = |kind: &str, scale: f64| {
            let v: Vec<f64> = all()
                .filter(|t| t.outcome.ok && t.outcome.kind == kind)
                .map(|t| (t.done - t.sent).as_secs_f64() * scale)
                .collect();
            median(&v).map_or(0.0, |p| p.value)
        };
        let wire: Vec<f64> = all()
            .filter(|t| t.outcome.ok)
            .filter_map(|t| {
                let server = serve.get(&t.outcome.id)?;
                Some(((t.done - t.sent).saturating_sub(*server)).as_secs_f64() * 1e3)
            })
            .collect();
        let top = RATES[RATES.len() - 1];
        let lag: Vec<f64> = phases
            .iter()
            .filter(|p| p.rate == top)
            .flat_map(|p| &p.requests)
            .map(|t| t.send_lag().as_secs_f64() * 1e3)
            .collect();
        let metrics = self.registry.snapshot();
        let compute = metrics
            .histogram(&with_label(
                "goc_server_request_secs",
                "kind",
                "run_ensemble",
            ))
            .map_or(0.0, |h| h.quantile(0.5) * 1e3);

        out.set("proto.status_rtt_us", rtt("status", 1e6), None);
        out.set("telemetry.scrape_ms", rtt("metrics", 1e3), None);
        out.set("proto.request_bytes", self.bytes.0 as f64, None);
        out.set("proto.response_bytes", self.bytes.1 as f64, None);
        out.set("server.compute_ms_p50", compute, None);
        out.set(
            "server.wire_ms_p50",
            median(&wire).map_or(0.0, |p| p.value),
            Some(wire.len()),
        );
        match percentile(&lag, 0.99) {
            Ok(p) => out.set("server.send_lag_ms_p99", p.value, Some(p.samples)),
            Err(e) => out
                .notes
                .push(format!("server.send_lag_ms_p99 not reported: {e}")),
        }
        out.set(
            "server.rejected",
            metrics.counter_family_total("goc_server_rejected_total") as f64,
            None,
        );
        for counter in &metrics.counters {
            if counter.name.starts_with("goc_server_rejected_total{") {
                out.notes.push(format!(
                    "server.rejected {} = {}",
                    counter.name, counter.value
                ));
            }
        }
        out.set(
            "server.sessions",
            metrics.counter("goc_server_sessions_total").unwrap_or(0) as f64,
            None,
        );
        out.notes.push(format!(
            "server recorder kept {} serve spans ({} records dropped)",
            serve.len(),
            snapshot.dropped
        ));

        let mut text = String::new();
        for phase in phases {
            for t in &phase.requests {
                let ms = |d: Duration| d.as_secs_f64() * 1e3;
                let accepted = t
                    .outcome
                    .accepted_after
                    .map_or("null".into(), |a| ms(t.sent + a).to_string());
                let server = serve
                    .get(&t.outcome.id)
                    .map_or("null".into(), |d| ms(*d).to_string());
                let _ = writeln!(
                    text,
                    "{{\"rate\": {}, \"index\": {}, \"id\": {}, \"kind\": \"{}\", \"ok\": {}, \"due_ms\": {}, \"send_ms\": {}, \"accepted_ms\": {accepted}, \"done_ms\": {}, \"server_serve_ms\": {server}}}",
                    phase.rate,
                    t.index,
                    t.outcome.id,
                    t.outcome.kind,
                    t.outcome.ok,
                    ms(t.due),
                    ms(t.sent),
                    ms(t.done)
                );
            }
        }
        let written = out_dir().and_then(|dir| {
            let path = dir.join(format!("{}-seed{}-spans.jsonl", args.workload, args.seed));
            std::fs::write(&path, text).map(|()| path)
        });
        match written {
            Ok(path) => out
                .notes
                .push(format!("request spans written to {}", path.display())),
            Err(e) => out
                .problems
                .push(format!("cannot write request spans: {e}")),
        }
    }
}
