//! The open-loop generator: requests are due on a fixed schedule,
//! whether or not earlier ones have completed, and every request is
//! timed from when it was **due**. A stall anywhere — in the program or
//! in the generator — is therefore charged to every request that came
//! due while it lasted, not silently absorbed by sending later.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::Rng;

/// Due offsets of `count` Poisson arrivals at `rate` per second.
pub fn poisson_schedule(rng: &mut SmallRng, rate: f64, count: usize) -> Vec<Duration> {
    let mut at = 0.0f64;
    (0..count)
        .map(|_| {
            // Exponential gap by inversion; `1 - u` keeps the log finite.
            let u: f64 = rng.gen();
            at += -(1.0 - u).ln() / rate;
            Duration::from_secs_f64(at)
        })
        .collect()
}

/// One request's timeline, as offsets from the phase start.
#[derive(Debug, Clone)]
pub struct Timed<O> {
    /// Position in the schedule.
    pub index: usize,
    /// When it was due.
    pub due: Duration,
    /// When the generator sent it (never before `due`).
    pub sent: Duration,
    /// When its reply completed (or it failed).
    pub done: Duration,
    /// What the transport made of it.
    pub outcome: O,
}

impl<O> Timed<O> {
    /// Latency charged from the due time.
    pub fn latency(&self) -> Duration {
        self.done - self.due
    }

    /// How late the generator sent it.
    pub fn send_lag(&self) -> Duration {
        self.sent - self.due
    }
}

/// Drives `due` open-loop on `workers` threads. Each worker owns one
/// transport (built by `transport` with the worker's index) and claims
/// the next due request from a shared cursor: it waits until the
/// request is due, sends it, and blocks for the reply. When every
/// worker is busy, later requests go out late and their lateness counts
/// in their latency. Returns the timelines in schedule order.
pub fn drive<T, O, B>(due: &[Duration], workers: usize, transport: B) -> Vec<Timed<O>>
where
    B: Fn(usize) -> T + Sync,
    T: FnMut(usize) -> O,
    O: Send,
{
    let cursor = AtomicUsize::new(0);
    let done: Mutex<Vec<Timed<O>>> = Mutex::new(Vec::with_capacity(due.len()));
    let start = Instant::now();
    std::thread::scope(|scope| {
        for worker in 0..workers.max(1) {
            let (cursor, done, transport) = (&cursor, &done, &transport);
            scope.spawn(move || {
                let mut send = transport(worker);
                let mut mine = Vec::new();
                loop {
                    let index = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(&at) = due.get(index) else { break };
                    let wait = at.saturating_sub(start.elapsed());
                    if !wait.is_zero() {
                        std::thread::sleep(wait);
                    }
                    let sent = start.elapsed();
                    let outcome = send(index);
                    mine.push(Timed {
                        index,
                        due: at,
                        sent,
                        done: start.elapsed(),
                        outcome,
                    });
                }
                done.lock()
                    .expect("a worker panicked holding the results")
                    .extend(mine);
            });
        }
    });
    let mut all = done
        .into_inner()
        .expect("a worker panicked holding the results");
    all.sort_by_key(|t| t.index);
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn a_stall_is_charged_to_the_requests_due_after_it() {
        const STALL: Duration = Duration::from_millis(40);
        const STALLED: usize = 3;
        let due: Vec<Duration> = (0..12).map(|i| Duration::from_millis(2 * i)).collect();
        let runs = drive(&due, 1, |_| {
            |index| {
                if index == STALLED {
                    std::thread::sleep(STALL);
                }
            }
        });
        assert_eq!(runs.len(), due.len());
        let stalled = &runs[STALLED];
        assert!(stalled.latency() >= STALL);
        let stall_end = stalled.done;
        for run in &runs[STALLED + 1..] {
            if run.due < stall_end {
                // Sent only once the stall cleared, yet charged from
                // its due time: the whole wait shows in its latency.
                assert!(
                    run.sent >= stall_end,
                    "request {} jumped the stall",
                    run.index
                );
                assert!(
                    run.latency() >= stall_end - run.due,
                    "request {} hid {:?} of queueing",
                    run.index,
                    stall_end - run.due
                );
                assert!(run.send_lag() > Duration::ZERO);
            }
        }
        // The request due right after the stall began waited most of it.
        assert!(runs[STALLED + 1].latency() >= STALL - Duration::from_millis(2));
    }

    #[test]
    fn requests_never_go_out_early_and_keep_schedule_order() {
        let due: Vec<Duration> = (0..20).map(|i| Duration::from_micros(300 * i)).collect();
        let runs = drive(&due, 2, |_| |index| index * 2);
        for (i, run) in runs.iter().enumerate() {
            assert_eq!(run.index, i);
            assert_eq!(run.outcome, 2 * i);
            assert!(run.sent >= run.due);
            assert!(run.done >= run.sent);
        }
    }

    #[test]
    fn poisson_schedules_repeat_per_seed_and_hold_the_rate() {
        let a = poisson_schedule(&mut SmallRng::seed_from_u64(5), 400.0, 4000);
        let b = poisson_schedule(&mut SmallRng::seed_from_u64(5), 400.0, 4000);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        let span = a.last().unwrap().as_secs_f64();
        assert!(
            (span - 10.0).abs() < 1.0,
            "4000 arrivals at 400/s span {span}s"
        );
    }
}
