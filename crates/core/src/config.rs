//! Per-job engine configuration.
//!
//! The DSE engine historically read its tuning knobs straight from the
//! environment (`AUTOPILOT_THREADS`, `AUTOPILOT_LAYER_MEMO`,
//! `AUTOPILOT_SWAP`) at whatever moment the knob was first needed. A
//! multi-tenant server cannot work that way: two jobs in one process
//! need *different* knobs, and mutating the process environment
//! mid-flight is a race. [`JobConfig`] inverts the
//! flow — the environment is captured **once at startup** (via
//! [`autopilot_obs::env_once`], which warns if the live environment
//! later diverges) into the [`JobConfig::from_env`] defaults, and every
//! job carries its own explicit copy from there.

use crate::phase2::Phase2;
use crate::pipeline::AutopilotConfig;
use crate::swap::SwapMode;
use systolic_sim::LayerMemo;

/// Explicit per-job engine knobs: thread count, layer-memo gating, and
/// SWaP mode.
///
/// Construct with [`JobConfig::from_env`] (startup-captured environment
/// defaults) and override per job with the builder methods. Results are
/// bit-identical across `threads` and `layer_memo` values; the SWaP mode
/// legitimately changes the objectives and is part of a job's identity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobConfig {
    /// Optimizer worker-pool size. `None` = the engine-wide default
    /// (startup `AUTOPILOT_THREADS`, else hardware parallelism).
    pub threads: Option<usize>,
    /// Whether layer simulations go through the layer memo.
    pub layer_memo: bool,
    /// Whether compute weight is enforced as an airframe SWaP constraint
    /// ([`SwapMode::Constraint`]) or ignored (legacy scalar-payload
    /// mode, the default).
    pub swap: SwapMode,
}

impl JobConfig {
    /// The startup-environment defaults: `AUTOPILOT_THREADS`,
    /// `AUTOPILOT_LAYER_MEMO`, and `AUTOPILOT_SWAP` as captured on first
    /// read (later mutations of the live environment warn once and are
    /// ignored).
    pub fn from_env() -> JobConfig {
        JobConfig {
            // `None` defers to `dse_opt::par::worker_count()`, which
            // caches the startup environment through `env_once` itself.
            threads: None,
            layer_memo: LayerMemo::env_default_enabled(),
            swap: SwapMode::from_env(),
        }
    }

    /// Pins the optimizer worker count (bit-identical results at any
    /// value).
    pub fn with_threads(mut self, n: usize) -> JobConfig {
        self.threads = Some(n.max(1));
        self
    }

    /// Switches the layer memo on or off for this job.
    pub fn with_layer_memo(mut self, enabled: bool) -> JobConfig {
        self.layer_memo = enabled;
        self
    }

    /// Sets the SWaP-constraint mode, overriding the startup
    /// `AUTOPILOT_SWAP` default.
    pub fn with_swap(mut self, mode: SwapMode) -> JobConfig {
        self.swap = mode;
        self
    }

    /// The effective worker count this job runs with.
    pub fn effective_threads(&self) -> usize {
        self.threads.unwrap_or_else(dse_opt::par::worker_count)
    }

    /// Applies this job's knobs to a [`Phase2`] runner.
    pub fn apply_to_phase2(&self, phase2: Phase2) -> Phase2 {
        match self.threads {
            Some(t) => phase2.with_threads(t),
            None => phase2,
        }
    }

    /// A [`Phase2`] runner for `config`, with this job's knobs applied.
    pub fn phase2(&self, config: &AutopilotConfig) -> Phase2 {
        self.apply_to_phase2(Phase2::new(config.optimizer, config.phase2_budget, config.seed))
    }
}

impl Default for JobConfig {
    /// Same as [`JobConfig::from_env`].
    fn default() -> JobConfig {
        JobConfig::from_env()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_override_env_defaults() {
        let cfg = JobConfig::from_env()
            .with_threads(3)
            .with_layer_memo(false)
            .with_swap(SwapMode::Constraint);
        assert_eq!(cfg.threads, Some(3));
        assert_eq!(cfg.effective_threads(), 3);
        assert!(!cfg.layer_memo);
        assert_eq!(cfg.swap, SwapMode::Constraint);
    }

    #[test]
    fn thread_count_is_floored_at_one() {
        assert_eq!(JobConfig::from_env().with_threads(0).threads, Some(1));
        assert!(JobConfig::from_env().effective_threads() >= 1);
    }

    #[test]
    fn default_is_from_env() {
        assert_eq!(JobConfig::default(), JobConfig::from_env());
    }
}
