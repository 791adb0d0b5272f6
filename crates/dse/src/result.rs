//! Optimization histories and results.

use autopilot_obs as obs;

use crate::pareto::{hypervolume_trace, pareto_indices};

/// One evaluated design point.
#[derive(Debug, Clone, PartialEq)]
pub struct EvaluationRecord {
    /// Evaluation index (0-based order of evaluation).
    pub iteration: usize,
    /// Design-space index vector.
    pub point: Vec<usize>,
    /// Objective values (minimized).
    pub objectives: Vec<f64>,
}

/// The outcome of one optimizer run.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizationResult {
    /// Algorithm name.
    pub algorithm: String,
    /// Every evaluation in order.
    pub evaluations: Vec<EvaluationRecord>,
    /// Reference point used for the hypervolume trace.
    pub reference_point: Vec<f64>,
    /// Hypervolume of the archive after each evaluation.
    pub hypervolume_trace: Vec<f64>,
}

impl OptimizationResult {
    /// Builds a result from an evaluation history, computing the
    /// hypervolume trace.
    pub fn from_history(
        algorithm: impl Into<String>,
        evaluations: Vec<EvaluationRecord>,
        reference_point: Vec<f64>,
    ) -> OptimizationResult {
        let trace = {
            let _span = obs::span("dse.result.assemble");
            hypervolume_trace(evaluations.iter().map(|e| e.objectives.as_slice()), &reference_point)
        };
        let result = OptimizationResult {
            algorithm: algorithm.into(),
            evaluations,
            reference_point,
            hypervolume_trace: trace,
        };
        if obs::metrics_enabled() {
            obs::add("dse.evaluations", result.evaluations.len() as u64);
            obs::gauge_set("dse.final_hypervolume", result.final_hypervolume());
        }
        result
    }

    /// The non-dominated subset of all evaluations.
    pub fn pareto_front(&self) -> Vec<&EvaluationRecord> {
        let objs: Vec<Vec<f64>> = self.evaluations.iter().map(|e| e.objectives.clone()).collect();
        pareto_indices(&objs).into_iter().map(|i| &self.evaluations[i]).collect()
    }

    /// Final hypervolume of the archive.
    pub fn final_hypervolume(&self) -> f64 {
        self.hypervolume_trace.last().copied().unwrap_or(0.0)
    }

    /// Number of evaluations consumed.
    pub fn evaluation_count(&self) -> usize {
        self.evaluations.len()
    }

    /// Evaluations needed to first reach `fraction` of the final
    /// hypervolume (a convergence-speed metric), or `None` if never.
    pub fn evaluations_to_fraction(&self, fraction: f64) -> Option<usize> {
        let target = self.final_hypervolume() * fraction;
        if target <= 0.0 {
            return Some(0);
        }
        self.hypervolume_trace.iter().position(|&h| h >= target).map(|i| i + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(i: usize, objs: Vec<f64>) -> EvaluationRecord {
        EvaluationRecord { iteration: i, point: vec![i], objectives: objs }
    }

    fn result() -> OptimizationResult {
        OptimizationResult::from_history(
            "test",
            vec![
                record(0, vec![3.0, 3.0]),
                record(1, vec![1.0, 4.0]),
                record(2, vec![2.0, 2.0]),
                record(3, vec![5.0, 5.0]),
            ],
            vec![6.0, 6.0],
        )
    }

    #[test]
    fn hypervolume_trace_is_monotone() {
        let r = result();
        for w in r.hypervolume_trace.windows(2) {
            assert!(w[1] >= w[0]);
        }
        assert_eq!(r.hypervolume_trace.len(), 4);
    }

    #[test]
    fn pareto_front_excludes_dominated() {
        let r = result();
        let front: Vec<usize> = r.pareto_front().iter().map(|e| e.iteration).collect();
        assert_eq!(front, vec![1, 2]);
    }

    #[test]
    fn convergence_metric() {
        let r = result();
        let n = r.evaluations_to_fraction(0.99).unwrap();
        assert!(n <= 3, "converged after {n}");
        assert_eq!(r.evaluation_count(), 4);
    }

    #[test]
    fn empty_history_is_safe() {
        let r = OptimizationResult::from_history("empty", vec![], vec![1.0]);
        assert_eq!(r.final_hypervolume(), 0.0);
        assert!(r.pareto_front().is_empty());
        assert_eq!(r.evaluations_to_fraction(0.9), Some(0));
    }

    #[test]
    #[should_panic(expected = "objective dimension mismatch")]
    fn mismatched_objective_dimension_panics() {
        OptimizationResult::from_history(
            "bad",
            vec![record(0, vec![1.0, 1.0]), record(1, vec![1.0, 1.0, 1.0])],
            vec![6.0, 6.0],
        );
    }

    #[test]
    #[should_panic(expected = "1-3 objectives")]
    fn four_objectives_panic() {
        OptimizationResult::from_history("bad", vec![record(0, vec![1.0; 4])], vec![6.0; 4]);
    }
}
