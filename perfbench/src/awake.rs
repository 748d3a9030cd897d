//! Keeps the processors from going idle while an open loop is measured.
//!
//! At light load a virtual CPU halts between requests, and waking it
//! again waits on the host: every request then pays a wake-up whose cost
//! follows how busy the other tenants of the host are, not the program.
//! On a 2-core VM that made the median latency at 200 req/s swing by a
//! quarter between runs of the same code. One spinner per processor, at
//! the `SCHED_IDLE` policy, keeps each processor running without taking
//! time from any other thread: the kernel runs an idle-policy thread only
//! when nothing else is runnable, and preempts it as soon as something
//! is. The program's threads therefore see a processor that is awake,
//! the way a busy server's are.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Spinners running until [`KeepAwake::stop`] (or drop).
pub struct KeepAwake {
    stop: Arc<AtomicBool>,
    spinners: Vec<JoinHandle<bool>>,
}

impl KeepAwake {
    /// Starts one idle-policy spinner per available processor. A
    /// spinner that cannot take the idle policy ends at once instead of
    /// competing with the program.
    pub fn start() -> KeepAwake {
        let count = std::thread::available_parallelism().map_or(1, |n| n.get());
        let stop = Arc::new(AtomicBool::new(false));
        let spinners = (0..count)
            .map(|_| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    if !demote_to_idle_policy() {
                        return false;
                    }
                    while !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                    true
                })
            })
            .collect();
        KeepAwake { stop, spinners }
    }

    /// Stops and joins every spinner; returns how many ran at the idle
    /// policy.
    pub fn stop(mut self) -> usize {
        self.join()
    }

    fn join(&mut self) -> usize {
        self.stop.store(true, Ordering::Relaxed);
        self.spinners
            .drain(..)
            .filter_map(|spinner| spinner.join().ok())
            .filter(|&spun| spun)
            .count()
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.join();
    }
}

/// Moves the calling thread to `SCHED_IDLE`.
#[cfg(target_os = "linux")]
fn demote_to_idle_policy() -> bool {
    #[repr(C)]
    struct SchedParam {
        sched_priority: i32,
    }
    extern "C" {
        fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    }
    const SCHED_IDLE: i32 = 5;
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: pid 0 names the calling thread, and `param` is a valid
    // `struct sched_param` that outlives the call.
    unsafe { sched_setscheduler(0, SCHED_IDLE, &param) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn demote_to_idle_policy() -> bool {
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spinners_take_the_idle_policy_and_stop_when_asked() {
        let awake = KeepAwake::start();
        let started = awake.spinners.len();
        assert!(started >= 1);
        let spun = awake.stop();
        if cfg!(target_os = "linux") {
            assert_eq!(spun, started, "a spinner could not take SCHED_IDLE");
        }
    }
}
