//! The `core` layer, timed from outside: the Tetrium scheduler handed to
//! `Engine::new`, wrapped so that every `schedule()` call the engine makes
//! is bracketed by two clock reads. After the second read the wrapper asks
//! the scheduler whether the call planned a stage through the template
//! path (a cache hit, or a warm or cold LP solve; a field read), so
//! decision latency can be reported for the calls that made a decision.

use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;
use tetrium::core::TetriumScheduler;
use tetrium::obs::Obs;
use tetrium::sim::{Scheduler, Snapshot, StagePlan};

/// The benchmark's one clock read: every interval it measures starts and
/// ends here. Wall time is what the benchmark measures; no reading reaches
/// a simulation's input or output.
pub fn now() -> Instant {
    // lint:allow(L3) -- benchmark timing, outside every simulation
    Instant::now()
}

/// Seconds from the first instant to the second.
pub fn secs((start, end): (Instant, Instant)) -> f64 {
    (end - start).as_secs_f64()
}

/// One `schedule()` call: start, end, and whether it planned a stage
/// through the template path rather than replaying a stage's cached plan or
/// placing nothing.
#[derive(Debug, Clone, Copy)]
pub struct Call {
    /// Clock read before the call.
    pub start: Instant,
    /// Clock read after the call.
    pub end: Instant,
    /// The call planned a stage: a template-cache hit or an LP solve.
    pub planned: bool,
}

impl Call {
    /// Wall seconds inside `schedule()`.
    pub fn secs(&self) -> f64 {
        secs((self.start, self.end))
    }
}

/// Where a [`Timed`] scheduler leaves its calls once the engine drops it.
#[derive(Clone, Default)]
pub struct CallLog(Arc<Mutex<Vec<Call>>>);

impl CallLog {
    /// The calls of the finished run, in call order.
    pub fn take(&self) -> Vec<Call> {
        std::mem::take(&mut *self.0.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

/// Wraps the scheduler handed to `Engine::new`.
pub struct Timed {
    inner: TetriumScheduler,
    calls: Vec<Call>,
    log: CallLog,
}

impl Timed {
    /// Wraps `inner`; the returned log receives the calls when the engine
    /// drops the wrapper at the end of its run.
    pub fn wrap(inner: TetriumScheduler) -> (Box<dyn Scheduler>, CallLog) {
        let log = CallLog::default();
        let timed = Timed {
            inner,
            calls: Vec::with_capacity(4096),
            log: log.clone(),
        };
        (Box::new(timed), log)
    }
}

impl Scheduler for Timed {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn schedule(&mut self, snapshot: &Snapshot) -> Vec<StagePlan> {
        let start = now();
        let plans = self.inner.schedule(snapshot);
        let end = now();
        let t = self.inner.last_template_stats();
        self.calls.push(Call {
            start,
            end,
            planned: t.exact + t.patched + t.warm + t.miss > 0,
        });
        plans
    }

    fn attach_obs(&mut self, obs: Obs) {
        self.inner.attach_obs(obs);
    }
}

impl Drop for Timed {
    fn drop(&mut self) {
        // A poisoned log only means another run panicked; keep the calls.
        let mut log = self.log.0.lock().unwrap_or_else(PoisonError::into_inner);
        *log = std::mem::take(&mut self.calls);
    }
}
