//! Engine configuration knobs.

/// How slot releases are batched into scheduling instances (§5 of the paper:
/// "we batch the slots according to the average duration of the recently
/// finished tasks").
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BatchPolicy {
    /// Every slot release triggers an immediate scheduling instance.
    None,
    /// Slot releases within a fixed window coalesce into one instance.
    Fixed(f64),
    /// The window adapts to `factor` × (mean duration of the most recently
    /// finished tasks), clamped to `[0, max_secs]` — the paper's policy.
    Adaptive {
        /// Multiplier on the recent mean task duration.
        factor: f64,
        /// Upper bound on the window in seconds.
        max_secs: f64,
    },
}

/// Speculative-execution settings (§8's orthogonal straggler mitigation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpeculationConfig {
    /// A running task becomes a speculation candidate once its compute time
    /// exceeds `threshold` × the stage's estimated task duration.
    pub threshold: f64,
    /// Maximum fraction of a stage's tasks that may have live copies.
    pub max_copies_frac: f64,
}

impl Default for SpeculationConfig {
    fn default() -> Self {
        Self {
            threshold: 2.0,
            max_copies_frac: 0.1,
        }
    }
}

/// Configuration of an engine run.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Slot-release batching policy.
    pub batch: BatchPolicy,
    /// Lognormal coefficient of variation of actual task durations around
    /// their mean (ordinary runtime variance). Zero disables noise.
    pub duration_cv: f64,
    /// Probability that a task is a straggler.
    pub straggler_prob: f64,
    /// Multiplier applied to a straggler's duration, sampled uniformly from
    /// this range (the trace's stragglers, §6.1).
    pub straggler_mult: (f64, f64),
    /// Relative error bound of the per-stage duration estimates shown to the
    /// scheduler: the estimate is `true_mean * (1 + e)`, `e ~ U(-x, x)`
    /// (Fig 12d studies sensitivity to this error).
    pub estimation_error: f64,
    /// Maximum concurrent input fetches per task (a shuffle client opens a
    /// bounded number of connections; further sources queue behind them).
    pub max_fetch_concurrency: usize,
    /// Speculative straggler mitigation (the mainstream approach the paper
    /// treats as orthogonal, §8): when a task computes for longer than
    /// `threshold` × the stage's mean task estimate and free slots exist, a
    /// copy is launched at the least-loaded site; the first finisher wins.
    /// `None` disables speculation (the paper's configuration).
    pub speculation: Option<SpeculationConfig>,
    /// Probability that a task fails mid-compute and must re-run (the
    /// production trace's fail-over events, §6.1). A failed task returns to
    /// the unlaunched pool and is re-placed at the next scheduling instance;
    /// each attempt re-fails independently.
    pub failure_prob: f64,
    /// How many attempts of one task may be lost (to failure injection or
    /// to a site outage) before the run aborts with
    /// [`crate::SimError::RetriesExhausted`]. The generous default never
    /// triggers under realistic failure probabilities (p ≤ 0.5 over 32
    /// consecutive attempts is below 1e-9) but bounds the outage
    /// retry-with-re-placement loop.
    pub max_task_retries: usize,
    /// Record an [`tetrium_obs::ObsReport`] of the run: task lifecycle
    /// events (the one per-task record; `ObsReport::task_records` derives
    /// each task's winning attempt from them), slot/link step-timelines, scheduling-instance records, WAN
    /// bytes by site pair and speculation/failure counters. Off by default;
    /// the disabled sink costs one branch per emission point.
    pub record_obs: bool,
    /// RNG seed; identical seeds give byte-identical runs.
    pub seed: u64,
}

impl Default for EngineConfig {
    /// Noise-free, unbatched, deterministic configuration — the right
    /// default for tests and for reproducing the paper's analytic examples.
    fn default() -> Self {
        Self {
            batch: BatchPolicy::None,
            duration_cv: 0.0,
            straggler_prob: 0.0,
            straggler_mult: (2.0, 6.0),
            estimation_error: 0.0,
            max_fetch_concurrency: 8,
            speculation: None,
            failure_prob: 0.0,
            max_task_retries: 32,
            record_obs: false,
            seed: 0,
        }
    }
}

impl EngineConfig {
    /// Production-trace-like noise: modest duration variance, occasional
    /// stragglers, adaptive slot batching — mirrors the simulation settings
    /// of §6.1/§6.3.
    pub fn trace_like(seed: u64) -> Self {
        Self {
            batch: BatchPolicy::Adaptive {
                factor: 0.5,
                max_secs: 5.0,
            },
            duration_cv: 0.2,
            straggler_prob: 0.03,
            straggler_mult: (2.0, 6.0),
            estimation_error: 0.1,
            max_fetch_concurrency: 8,
            speculation: None,
            // Fail-over injection is available (`failure_prob`) but defaults
            // off here so the shipped EXPERIMENTS.md numbers regenerate
            // exactly from this configuration.
            failure_prob: 0.0,
            max_task_retries: 32,
            record_obs: false,
            seed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_noise_free() {
        let c = EngineConfig::default();
        assert_eq!(c.duration_cv, 0.0);
        assert_eq!(c.straggler_prob, 0.0);
        assert_eq!(c.estimation_error, 0.0);
        assert_eq!(c.batch, BatchPolicy::None);
    }

    #[test]
    fn speculation_defaults() {
        let s = SpeculationConfig::default();
        assert!(s.threshold > 1.0);
        assert!(s.max_copies_frac > 0.0 && s.max_copies_frac <= 1.0);
        assert!(EngineConfig::default().speculation.is_none());
    }

    #[test]
    fn trace_like_has_noise() {
        let c = EngineConfig::trace_like(1);
        assert!(c.duration_cv > 0.0);
        assert!(c.straggler_prob > 0.0);
        assert!(matches!(c.batch, BatchPolicy::Adaptive { .. }));
    }
}
