//! Per-job engine configuration.
//!
//! The DSE engine historically read its tuning knobs straight from the
//! environment (`AUTOPILOT_THREADS`, `AUTOPILOT_GP_SPARSE`,
//! `AUTOPILOT_LAYER_MEMO`, `AUTOPILOT_TRACE`) at whatever moment the
//! knob was first needed. A multi-tenant server cannot work that way:
//! two jobs in one process need *different* knobs, and mutating the
//! process environment mid-flight is a race. [`JobConfig`] inverts the
//! flow — the environment is captured **once at startup** (via
//! [`autopilot_obs::env_once`], which warns if the live environment
//! later diverges) into the [`JobConfig::from_env`] defaults, and every
//! job carries its own explicit copy from there.

use crate::phase2::Phase2;
use crate::pipeline::AutopilotConfig;
use crate::swap::SwapMode;
use autopilot_obs as obs;
use dse_opt::SurrogateMode;
use systolic_sim::LayerMemo;

/// Explicit per-job engine knobs: thread count, GP history window,
/// surrogate mode, layer-memo gating, and trace gating.
///
/// Construct with [`JobConfig::from_env`] (startup-captured environment
/// defaults) and override per job with the builder methods. Results are
/// bit-identical across `threads` values; the other knobs legitimately
/// change the search trajectory and are part of a job's identity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobConfig {
    /// Optimizer worker-pool size. `None` = the engine-wide default
    /// (startup `AUTOPILOT_THREADS`, else hardware parallelism).
    pub threads: Option<usize>,
    /// Exact-GP history window cap for GP-based optimizers; `None` =
    /// the optimizer's built-in default.
    pub gp_window: Option<usize>,
    /// Surrogate mode for GP-based optimizers; `None` = the startup
    /// `AUTOPILOT_GP_SPARSE` default resolved at build time.
    pub surrogate: Option<SurrogateMode>,
    /// Whether layer simulations go through the layer memo.
    pub layer_memo: bool,
    /// Whether this job asks for per-event tracing. Tracing is a
    /// process-global facility (`AUTOPILOT_TRACE`); this flag records
    /// the job's request so the server can refuse or gate trace
    /// export per job, but it cannot turn tracing on for one job and
    /// off for a concurrent one within the same process.
    pub trace: bool,
    /// Whether compute weight is enforced as an airframe SWaP constraint
    /// ([`SwapMode::Constraint`]) or ignored (legacy scalar-payload
    /// mode, the default).
    pub swap: SwapMode,
}

impl JobConfig {
    /// The startup-environment defaults: `AUTOPILOT_THREADS`,
    /// `AUTOPILOT_GP_SPARSE`, `AUTOPILOT_LAYER_MEMO`, and
    /// `AUTOPILOT_TRACE` as captured on first read (later mutations of
    /// the live environment warn once and are ignored).
    pub fn from_env() -> JobConfig {
        JobConfig {
            // `None` defers to `dse_opt::par::worker_count()` /
            // `SurrogateMode::from_env()`, both of which cache the
            // startup environment through `env_once` themselves.
            threads: None,
            gp_window: None,
            surrogate: None,
            layer_memo: LayerMemo::env_default_enabled(),
            trace: obs::trace::enabled(),
            swap: SwapMode::from_env(),
        }
    }

    /// Pins the optimizer worker count (bit-identical results at any
    /// value).
    pub fn with_threads(mut self, n: usize) -> JobConfig {
        self.threads = Some(n.max(1));
        self
    }

    /// Caps the exact-GP history window.
    pub fn with_gp_window(mut self, n: usize) -> JobConfig {
        self.gp_window = Some(n);
        self
    }

    /// Pins the surrogate mode.
    pub fn with_surrogate(mut self, mode: SurrogateMode) -> JobConfig {
        self.surrogate = Some(mode);
        self
    }

    /// Switches the layer memo on or off for this job.
    pub fn with_layer_memo(mut self, enabled: bool) -> JobConfig {
        self.layer_memo = enabled;
        self
    }

    /// Records whether this job wants per-event tracing.
    pub fn with_trace(mut self, enabled: bool) -> JobConfig {
        self.trace = enabled;
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
    pub fn apply_to_phase2(&self, mut phase2: Phase2) -> Phase2 {
        if let Some(t) = self.threads {
            phase2 = phase2.with_threads(t);
        }
        if let Some(w) = self.gp_window {
            phase2 = phase2.with_gp_window(w);
        }
        if let Some(mode) = self.surrogate {
            phase2 = phase2.with_surrogate_mode(mode);
        }
        phase2
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
            .with_gp_window(128)
            .with_surrogate(SurrogateMode::Exact)
            .with_layer_memo(false)
            .with_trace(false)
            .with_swap(SwapMode::Constraint);
        assert_eq!(cfg.threads, Some(3));
        assert_eq!(cfg.effective_threads(), 3);
        assert_eq!(cfg.gp_window, Some(128));
        assert_eq!(cfg.surrogate, Some(SurrogateMode::Exact));
        assert!(!cfg.layer_memo);
        assert!(!cfg.trace);
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
