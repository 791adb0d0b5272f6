//! The two co-design workloads: `paper-codesign` (the paper
//! configuration, SMS-EGO at budget 200) and `dse-scale` (SMS-EGO at
//! budget 1000, the sparse-surrogate path). One caller, closed loop: an
//! op is one fresh `AutoPilot::run` with [`ENGINE_THREADS`] engine
//! threads and no `PipelineCache`, so every op starts from a cold layer
//! memo.
//!
//! The traced run composes the same pipeline from the phases' public
//! functions, timing each, and then replays every op's evaluated points
//! through a fresh `DssocEvaluator::evaluate_design` and its history
//! through `OptimizationResult::from_history` to split Phase 2 into
//! evaluation, result assembly, and the optimizer's own work.

use crate::stats::{cpu_seconds, SplitMix};
use crate::trace::Tracer;
use crate::{Layers, RunResult, DENSITIES, UAV_CLASSES};
use air_sim::AirLearningDatabase;
use autopilot::{
    AutoPilot, AutopilotConfig, AutopilotResult, DssocEvaluator, Phase1, Phase2, Phase3,
    RunSummary, SwapMode, TaskSpec,
};
use autopilot_obs as obs;
use autopilot_serve::jobs::uav_spec;
use dse_opt::OptimizationResult;
use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};
use uav_dynamics::Airframe;

/// Engine threads per op. On the 2-vCPU VM this benchmark was sized on,
/// ops forking across both vCPUs swung 2.8× between runs of the same
/// seed (p50 0.37–1.03 s) while single-threaded ops stayed within ±6%,
/// so the CLI workloads run one engine thread and `dse_opt::par` stays
/// on its inline path.
const ENGINE_THREADS: usize = 1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Paper,
    Scale,
}

impl Kind {
    /// The (UAV, scenario) pairs one cycle of ops visits, by index into
    /// [`UAV_CLASSES`] and [`DENSITIES`].
    fn pairs(self) -> Vec<(usize, usize)> {
        match self {
            // The nine Table-V pairs.
            Kind::Paper => (0..3).flat_map(|d| (0..3).map(move |u| (u, d))).collect(),
            // One UAV per scenario, so every UAV and scenario is seen.
            Kind::Scale => vec![(0, 0), (1, 1), (2, 2)],
        }
    }

    fn config(self, seed: u64) -> AutopilotConfig {
        match self {
            Kind::Paper => AutopilotConfig::paper(seed),
            Kind::Scale => AutopilotConfig::paper(seed).with_budget(1000),
        }
    }
}

#[derive(Debug, Clone)]
struct OpSpec {
    uav: usize,
    density: usize,
    seed: u64,
    /// The earlier op this one repeats exactly, when it is a repeat.
    repeat_of: Option<usize>,
}

/// The op sequence: cycles over the workload's pairs with a fresh
/// optimizer seed per op, each cycle followed by an exact repeat of one
/// of its ops (which must reproduce that op's result).
fn schedule(kind: Kind, seed: u64, len: usize) -> Vec<OpSpec> {
    let pairs = kind.pairs();
    let mut rng = SplitMix::new(seed);
    let mut ops: Vec<OpSpec> = Vec::with_capacity(len + pairs.len() + 1);
    while ops.len() < len {
        let cycle = ops.len();
        for &(uav, density) in &pairs {
            let seed = rng.next_u64() >> 32;
            ops.push(OpSpec { uav, density, seed, repeat_of: None });
        }
        let k = cycle + rng.below(pairs.len());
        ops.push(OpSpec { repeat_of: Some(k), ..ops[k].clone() });
    }
    ops
}

/// What one op produced, for the output checks and the quality metrics.
struct OpOutput {
    json: String,
    hypervolume: f64,
    reference_volume: f64,
    front_size: usize,
    missions: Option<f64>,
}

impl OpOutput {
    fn of(result: &AutopilotResult, json: String) -> OpOutput {
        let r = &result.phase2.result;
        OpOutput {
            json,
            hypervolume: r.final_hypervolume(),
            reference_volume: r.reference_point.iter().product(),
            front_size: result.phase2.pareto_indices.len(),
            missions: result.selection.as_ref().map(|s| s.missions.missions),
        }
    }

    /// The per-op output contract: a selection, a positive hypervolume,
    /// and a non-empty front.
    fn check(&self) -> Result<(), String> {
        if !self.missions.is_some_and(|m| m > 0.0) {
            return Err(format!("no selection with positive missions ({:?})", self.missions));
        }
        if self.hypervolume.is_nan() || self.hypervolume <= 0.0 {
            return Err(format!("hypervolume {} is not positive", self.hypervolume));
        }
        if self.front_size == 0 {
            return Err("empty Pareto front".into());
        }
        Ok(())
    }
}

fn summary_json(result: &AutopilotResult) -> Result<String, String> {
    RunSummary::from_result(result).to_json().map_err(|e| e.to_string())
}

/// One untraced op: `AutoPilot::run`, timed as a whole.
fn run_plain(kind: Kind, spec: &OpSpec) -> Result<(f64, OpOutput), String> {
    let uav = uav_spec(UAV_CLASSES[spec.uav]).ok_or("unknown UAV class")?;
    let task = TaskSpec::navigation(DENSITIES[spec.density]);
    let pilot = AutoPilot::new(kind.config(spec.seed)).with_threads(ENGINE_THREADS);
    let started = Instant::now();
    let result = pilot.run(&uav, &task).map_err(|e| e.to_string())?;
    let op_s = started.elapsed().as_secs_f64();
    let json = summary_json(&result)?;
    Ok((op_s, OpOutput::of(&result, json)))
}

/// One traced op: the `AutoPilot::run` pipeline composed from the
/// phases' public functions, each timed, followed (outside the op span)
/// by the evaluation and result-assembly replays.
fn run_traced(
    kind: Kind,
    spec: &OpSpec,
    op: u64,
    tracer: &Tracer,
    layers: &mut Layers,
) -> Result<(f64, OpOutput), String> {
    let config = kind.config(spec.seed);
    let uav = uav_spec(UAV_CLASSES[spec.uav]).ok_or("unknown UAV class")?;
    let density = DENSITIES[spec.density];
    let task = TaskSpec::navigation(density);

    let root = tracer.open("op", op, None);
    let parent = Some(root);
    let db = tracer.time("phase1.populate", op, parent, || {
        let mut db = AirLearningDatabase::new();
        Phase1::new(config.success_model, config.seed).populate(density, &mut db);
        db
    });
    let mut evaluator = DssocEvaluator::new(db.clone(), density);
    let swap = SwapMode::from_env();
    if swap.is_on() {
        let airframe = uav.airframe.clone().unwrap_or_else(|| Airframe::default_for(uav.class));
        evaluator = evaluator.with_swap(swap, airframe);
    }
    let phase2 = tracer.time("phase2.run", op, parent, || {
        Phase2::new(config.optimizer, config.phase2_budget, config.seed)
            .with_threads(ENGINE_THREADS)
            .run(&evaluator)
    });
    let phase2 = match phase2 {
        Ok(p) => p,
        Err(e) => {
            tracer.close(root);
            return Err(e.to_string());
        }
    };
    let phase3 = if config.fine_tuning { Phase3::new() } else { Phase3::without_fine_tuning() };
    let selection = tracer
        .time("phase3.select", op, parent, || phase3.select(&uav, &task, &phase2, &evaluator));
    let result = AutopilotResult {
        uav,
        task,
        database: db,
        phase2,
        selection_error: selection.as_ref().err().map(|e| e.to_string()),
        selection: selection.ok(),
    };
    let json = tracer.time("report.to_json", op, parent, || summary_json(&result));
    tracer.close(root);
    let op_s = tracer.duration_s(root);

    let memo = evaluator.layer_memo_stats();
    layers.memo_hits += memo.hits as f64;
    layers.memo_lookups += (memo.hits + memo.misses) as f64;
    replay(&result, op, tracer, layers)?;
    Ok((op_s, OpOutput::of(&result, json?)))
}

/// Replays a finished op's Phase 2 through the public layer functions:
/// every distinct evaluated point through a fresh evaluator (cold layer
/// memo, as the op's own evaluator started), and the history through
/// `OptimizationResult::from_history`. Both must reproduce the op's own
/// outputs.
pub fn replay(
    result: &AutopilotResult,
    op: u64,
    tracer: &Tracer,
    layers: &mut Layers,
) -> Result<(), String> {
    let phase2 = &result.phase2;
    let mut seen = HashSet::new();
    let distinct: Vec<usize> = (0..phase2.candidates.len())
        .filter(|&i| seen.insert(phase2.candidates[i].point.clone()))
        .collect();
    let fresh = DssocEvaluator::new(result.database.clone(), result.task.density);
    let root = tracer.open("replay", op, None);
    let replayed = tracer.time("eval.replay", op, Some(root), || {
        distinct
            .iter()
            .map(|&i| fresh.evaluate_design(&phase2.candidates[i].point))
            .collect::<Vec<_>>()
    });
    let history = phase2.result.evaluations.clone();
    let reference = phase2.result.reference_point.clone();
    let assembled = tracer.time("result.from_history", op, Some(root), || {
        OptimizationResult::from_history(phase2.result.algorithm.clone(), history, reference)
    });
    tracer.close(root);

    layers.evals += distinct.len() as f64;
    layers.front_sizes.push(phase2.pareto_indices.len() as f64);
    for (&i, c) in distinct.iter().zip(replayed) {
        if c.map_err(|e| e.to_string())? != phase2.candidates[i] {
            return Err(format!("replayed evaluation of point {i} differs from the run's"));
        }
    }
    if assembled != phase2.result {
        return Err("replayed result assembly differs from the run's".into());
    }
    Ok(())
}

/// Counters the program already keeps (`dse.gp.full_refit`, ...),
/// read in the traced run only.
pub const OBS_COUNTERS: [(&str, &str); 5] = [
    ("gp.full_refits", "dse.gp.full_refit"),
    ("gp.sparse_fits", "bo.gp.sparse.fit"),
    ("hv.incremental_scores", "bo.hv.incremental"),
    ("par.calls", "par.calls"),
    ("par.items", "par.items"),
];

pub fn obs_counts() -> HashMap<&'static str, u64> {
    let snap = obs::snapshot();
    OBS_COUNTERS.iter().map(|&(_, name)| (name, snap.counter(name))).collect()
}

pub fn run(kind: Kind, seed: u64, seconds: u64, tracer: Option<&Tracer>) -> RunResult {
    // The obs counters feed the traced run only.
    obs::force_metrics(tracer.is_some());
    // An op takes under a second at budget 200, so this never runs out;
    // dse-scale needs far fewer.
    let ops = schedule(kind, seed, 16 + 4 * seconds as usize);

    // One untimed paper-budget op settles lazy process-wide state
    // (registry, allocator, thread-local scratch) before timing.
    let warm = OpSpec { uav: 1, density: 1, seed: seed ^ 0x5eed, repeat_of: None };
    let _ = run_plain(Kind::Paper, &warm);

    let mut res = RunResult::default();
    let mut outputs: Vec<Option<OpOutput>> = Vec::new();
    let counts_before = obs_counts();
    let cpu_before = cpu_seconds();
    let started = Instant::now();
    let deadline = Duration::from_secs(seconds);
    while started.elapsed() < deadline && outputs.len() < ops.len() {
        let i = outputs.len();
        let spec = &ops[i];
        res.attempted += 1;
        let outcome = match tracer {
            // Repeats go through `AutoPilot::run` itself, so the check
            // against their first occurrence also pins the composed
            // pipeline to the real one.
            Some(t) if spec.repeat_of.is_none() => {
                run_traced(kind, spec, i as u64, t, &mut res.layers)
            }
            Some(t) => {
                let root = t.open("op", i as u64, None);
                let out = t.time("autopilot.run", i as u64, Some(root), || run_plain(kind, spec));
                t.close(root);
                out
            }
            None => run_plain(kind, spec),
        };
        let checked = outcome.and_then(|(op_s, out)| {
            out.check()?;
            if let Some(first) = spec.repeat_of.and_then(|k| outputs[k].as_ref()) {
                if first.json != out.json
                    || first.hypervolume.to_bits() != out.hypervolume.to_bits()
                {
                    return Err(format!(
                        "repeat of op {:?} gave a different result",
                        spec.repeat_of
                    ));
                }
            }
            Ok((op_s, out))
        });
        match checked {
            Ok((op_s, out)) => {
                let pair = format!("{}/{}", UAV_CLASSES[spec.uav], DENSITIES[spec.density].id());
                res.op_s.push(op_s);
                res.hv.push((
                    DENSITIES[spec.density].id().to_owned(),
                    out.hypervolume / out.reference_volume,
                ));
                res.missions.push((pair, out.missions.unwrap_or(0.0)));
                outputs.push(Some(out));
            }
            Err(e) => {
                res.fail(format!("op {i} ({spec:?}): {e}"));
                outputs.push(None);
            }
        }
    }
    res.wall_s = started.elapsed().as_secs_f64();
    res.cpu_s = cpu_seconds() - cpu_before;
    if tracer.is_some() {
        let after = obs_counts();
        for (metric, name) in OBS_COUNTERS {
            res.layers.counters.insert(metric, (after[name] - counts_before[name]) as f64);
        }
    }
    res
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_seeded_and_repeats_within_each_cycle() {
        let a = schedule(Kind::Paper, 7, 40);
        let b = schedule(Kind::Paper, 7, 40);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_ne!(format!("{a:?}"), format!("{:?}", schedule(Kind::Paper, 8, 40)));
        for (i, op) in a.iter().enumerate() {
            if let Some(k) = op.repeat_of {
                assert!(k < i && i - k <= 9);
                assert_eq!((a[k].uav, a[k].density, a[k].seed), (op.uav, op.density, op.seed));
            }
        }
        // Every cycle covers all nine pairs once before its repeat.
        let mut pairs: Vec<_> = a[..9].iter().map(|o| (o.uav, o.density)).collect();
        pairs.sort_unstable();
        pairs.dedup();
        assert_eq!(pairs.len(), 9);
    }
}
