//! perfbench: the end-to-end and per-layer benchmark of the AutoPilot
//! co-design pipeline (`AutoPilot::run`) and the co-design server
//! (`POST /jobs` → result). See `README.md` in this directory.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --steady <k> --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! perfbench --report <name>
//! ```
//!
//! A run prints its metrics as a table and, as the last line of standard
//! output, one JSON object `{"correct", "attempted", "failed",
//! "metrics"}`: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`.

mod codesign;
mod served;
mod setup;
mod stats;
mod steady;
mod trace;

use air_sim::ObstacleDensity;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

pub const WORKLOADS: [&str; 3] = ["paper-codesign", "dse-scale", "served-mix"];
pub const UAV_CLASSES: [&str; 3] = ["nano", "micro", "mini"];
pub const DENSITIES: [ObstacleDensity; 3] =
    [ObstacleDensity::Low, ObstacleDensity::Medium, ObstacleDensity::Dense];

/// A metric's name and unit.
pub type MetricDef = (&'static str, &'static str);

/// End-to-end metrics (untraced runs).
pub const END_TO_END: [MetricDef; 9] = [
    ("setup_s", "s"),
    ("op_s_p50", "s"),
    ("op_s_p90", "s"),
    ("ops_per_s", "1/s"),
    ("cpu_s_per_op", "s"),
    ("peak_rss_mb", "MiB"),
    ("search_hv", "frac"),
    ("missions_per_charge", "missions"),
    ("ok_frac", "frac"),
];

/// Per-layer metrics (traced runs).
pub const PER_LAYER: [MetricDef; 23] = [
    ("traced.op_s_p50", "s"),
    ("phase1.populate_s", "s"),
    ("phase2.run_s", "s"),
    ("phase2.optimizer_self_s", "s"),
    ("eval.count", "count/op"),
    ("eval.busy_s", "s"),
    ("eval.us_per_eval", "us"),
    ("systolic.memo_hit_frac", "frac"),
    ("result.from_history_s", "s"),
    ("result.front_size", "count"),
    ("phase3.select_s", "s"),
    ("report.to_json_s", "s"),
    ("serve.post_s", "s"),
    ("serve.result_get_s", "s"),
    ("serve.polls_per_job", "count/op"),
    ("serve.keepalive_rtt_s", "s"),
    ("serve.candidate_hit_frac", "frac"),
    ("serve.candidate_cross_run_hit_frac", "frac"),
    ("gp.full_refits", "count/op"),
    ("gp.sparse_fits", "count/op"),
    ("hv.incremental_scores", "count/op"),
    ("par.calls", "count/op"),
    ("par.items", "count/op"),
];

/// Layer counts a workload gathers besides its spans.
#[derive(Debug, Default)]
pub struct Layers {
    pub memo_hits: f64,
    pub memo_lookups: f64,
    /// Evaluations replayed, summed over replayed ops.
    pub evals: f64,
    pub front_sizes: Vec<f64>,
    pub candidate_hits: f64,
    pub candidate_lookups: f64,
    pub candidate_cross_run_hits: f64,
    /// Whether the replayed Phase-2 runs found every candidate already
    /// cached (the served replays), so no evaluation time sits in them.
    pub warm_phase2: bool,
    /// Median `GET /healthz` round trip on a keep-alive connection.
    pub keepalive_rtt_s: f64,
    /// Per-layer metric name → total over the timed phase.
    pub counters: BTreeMap<&'static str, f64>,
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct RunResult {
    pub attempted: usize,
    pub failed: usize,
    pub problems: Vec<String>,
    /// Wall time of every completed op, seconds.
    pub op_s: Vec<f64>,
    /// Wall and CPU seconds of the timed phase.
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Normalized final hypervolume per op, keyed by stratum.
    pub hv: Vec<(String, f64)>,
    /// Missions per charge of the selection per op, keyed by (UAV, scenario).
    pub missions: Vec<(String, f64)>,
    pub layers: Layers,
}

impl RunResult {
    /// Records one failed op.
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        self.problems.push(problem);
    }
}

/// Available parallelism, reported with every run.
fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Where runs leave spans and their last untraced result, inside the
/// checkout the benchmark runs from.
pub fn out_dir() -> PathBuf {
    PathBuf::from(".bench_out")
}

fn untraced_path(workload: &str) -> PathBuf {
    out_dir().join(format!("untraced-{workload}.json"))
}

/// `op_s_p50` of the last untraced run of `workload`, when recorded.
pub fn last_untraced_op_p50(workload: &str) -> Option<f64> {
    let text = std::fs::read_to_string(untraced_path(workload)).ok()?;
    let doc = autopilot_obs::json::Value::parse(&text).ok()?;
    doc.get("metrics")?.get("op_s_p50")?.get("value")?.as_f64()
}

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    steady: Option<usize>,
    report: Option<String>,
    setup_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 30,
        trace: false,
        steady: None,
        report: None,
        setup_probe: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--setup-probe" {
            args.setup_probe = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|e| format!("{flag} {value}: {e}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value.clone()),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => args.trace = number()? != 0,
            "--steady" => args.steady = Some(number()?.max(2) as usize),
            "--report" => args.report = Some(value.clone()),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    for w in args.workload.iter().chain(&args.report) {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!("unknown workload {w:?}; expected one of {WORKLOADS:?}"));
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(workload) = &args.report {
        return match trace::print_report(workload) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let Some(workload) = args.workload.clone() else {
        eprintln!("perfbench: --workload is required");
        return ExitCode::from(2);
    };
    if args.setup_probe {
        return setup::probe_child(&workload);
    }
    if let Some(k) = args.steady {
        return steady::run(&workload, args.seed, args.seconds, args.trace, k);
    }
    run_workload(&workload, &args)
}

fn run_workload(workload: &str, args: &Args) -> ExitCode {
    let setup_s = match setup::measure(workload, args.seed) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: setup probe failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let tracer = args.trace.then(trace::Tracer::default);
    let res = match workload {
        "paper-codesign" => {
            codesign::run(codesign::Kind::Paper, args.seed, args.seconds, tracer.as_ref())
        }
        "dse-scale" => {
            codesign::run(codesign::Kind::Scale, args.seed, args.seconds, tracer.as_ref())
        }
        _ => match served::run(args.seed, args.seconds, tracer.as_ref()) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("perfbench: served-mix: {e}");
                return ExitCode::FAILURE;
            }
        },
    };
    for p in &res.problems {
        eprintln!("perfbench: check failed: {p}");
    }

    let completed = res.op_s.len() as f64;
    let (metrics, units): (Vec<(&str, f64)>, &[MetricDef]) = match &tracer {
        None => (
            vec![
                ("setup_s", setup_s),
                ("op_s_p50", stats::median(&res.op_s)),
                ("op_s_p90", stats::percentile(&res.op_s, 0.9)),
                ("ops_per_s", completed / res.wall_s),
                ("cpu_s_per_op", res.cpu_s / completed),
                ("peak_rss_mb", stats::peak_rss_mb()),
                ("search_hv", stats::stratified_mean(&res.hv)),
                ("missions_per_charge", stats::stratified_mean(&res.missions)),
                ("ok_frac", 1.0 - res.failed as f64 / res.attempted.max(1) as f64),
            ],
            &END_TO_END,
        ),
        Some(t) => {
            let spans = t.spans();
            if let Err(e) = trace::write(&trace::spans_path(workload), workload, args.seed, &spans)
            {
                eprintln!("perfbench: could not write spans: {e}");
            }
            (per_layer(&res, &spans), &PER_LAYER)
        }
    };

    println!(
        "perfbench {workload}: seed {} seconds {} trace {} nproc {} ops {} failed {} ({:.4} failed_frac)",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc(),
        res.attempted,
        res.failed,
        res.failed as f64 / res.attempted.max(1) as f64
    );
    if workload == "served-mix" && !args.trace && res.op_s.len() < 100 {
        eprintln!("perfbench: only {} jobs; fewer than ten lie above p90", res.op_s.len());
    }
    let mut correct = res.failed == 0 && res.attempted > 0;
    let mut fields = Vec::new();
    for (name, unit) in units {
        let value = metrics.iter().find(|(n, _)| n == name).map_or(f64::NAN, |m| m.1);
        println!("  {name:<36} {value:>16.6} {unit}");
        let value = if value.is_finite() {
            value
        } else {
            correct = false;
            0.0
        };
        fields.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
    }
    if tracer.is_some() {
        if let Err(e) = trace::print_report(workload) {
            eprintln!("perfbench: {e}");
        }
    }
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        res.attempted.max(1),
        res.failed,
        fields.join(", ")
    );
    if tracer.is_none() {
        let _ = std::fs::create_dir_all(out_dir());
        let _ = std::fs::write(untraced_path(workload), &line);
    }
    println!("{line}");
    ExitCode::SUCCESS
}

/// The per-layer metrics of a traced run: span-derived per-op medians
/// plus the counts the workload gathered.
fn per_layer(res: &RunResult, spans: &[trace::Span]) -> Vec<(&'static str, f64)> {
    let layers = trace::layers(spans);
    let per_op = |name: &str| -> BTreeMap<u64, f64> {
        layers.get(name).map(|l| l.per_op_s.clone()).unwrap_or_default()
    };
    let median_of = |name: &str| -> f64 {
        let v: Vec<f64> = per_op(name).into_values().collect();
        if v.is_empty() {
            0.0
        } else {
            stats::median(&v)
        }
    };
    let (run, evals, assembly) =
        (per_op("phase2.run"), per_op("eval.replay"), per_op("result.from_history"));
    // Optimizer self time: Phase 2 minus result assembly and minus the
    // evaluation it did (none when every candidate was already cached).
    let warm = res.layers.warm_phase2;
    let self_s: Vec<f64> = run
        .iter()
        .filter_map(|(op, r)| {
            let evaluating = if warm { 0.0 } else { *evals.get(op)? };
            Some(r - evaluating - assembly.get(op)?)
        })
        .collect();
    let replayed = evals.len().max(1) as f64;
    let polls = layers.get("serve.poll").map_or(0, |l| l.count) as f64;
    let frac = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let l = &res.layers;
    let ops = res.op_s.len().max(1) as f64;
    let mut out = vec![
        ("traced.op_s_p50", stats::median(&res.op_s)),
        ("phase1.populate_s", median_of("phase1.populate")),
        ("phase2.run_s", median_of("phase2.run")),
        ("phase2.optimizer_self_s", if self_s.is_empty() { 0.0 } else { stats::median(&self_s) }),
        ("eval.count", l.evals / replayed),
        ("eval.busy_s", median_of("eval.replay")),
        ("eval.us_per_eval", 1e6 * frac(evals.values().sum(), l.evals)),
        ("systolic.memo_hit_frac", frac(l.memo_hits, l.memo_lookups)),
        ("result.from_history_s", median_of("result.from_history")),
        (
            "result.front_size",
            if l.front_sizes.is_empty() { 0.0 } else { stats::mean(&l.front_sizes) },
        ),
        ("phase3.select_s", median_of("phase3.select")),
        ("report.to_json_s", median_of("report.to_json")),
        ("serve.post_s", median_of("serve.post")),
        ("serve.result_get_s", median_of("serve.result_get")),
        ("serve.polls_per_job", polls / ops),
        ("serve.keepalive_rtt_s", l.keepalive_rtt_s),
        ("serve.candidate_hit_frac", frac(l.candidate_hits, l.candidate_lookups)),
        (
            "serve.candidate_cross_run_hit_frac",
            frac(l.candidate_cross_run_hits, l.candidate_lookups),
        ),
    ];
    for (metric, _) in codesign::OBS_COUNTERS {
        out.push((metric, l.counters.get(metric).copied().unwrap_or(0.0) / ops));
    }
    out
}
