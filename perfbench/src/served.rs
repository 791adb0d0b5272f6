//! `served-mix`: two closed-loop clients drive an in-process
//! `autopilot_serve::Server` (2 job workers, `"threads": 1` per job) on
//! loopback. One op is one job: `POST /jobs` → poll `GET /jobs/:id` →
//! `GET /jobs/:id/result`, each request on its own connection.
//!
//! The job stream is dealt from shuffled decks of 24 specs with fixed
//! class proportions (see [`deck`]), so every run holds the same mix and
//! the median job falls inside the middle class. UAV and optimizer seed
//! are drawn per job, and the first job of each class in a deck repeats
//! the same slot of the previous deck exactly, so repeated specs hit the
//! candidate cache another job filled.

use crate::codesign::{obs_counts, replay, OBS_COUNTERS};
use crate::stats::{cpu_seconds, SplitMix};
use crate::trace::Tracer;
use crate::{RunResult, DENSITIES, UAV_CLASSES};
use air_sim::AirLearningDatabase;
use autopilot::{
    AutoPilot, AutopilotConfig, AutopilotResult, DssocEvaluator, JobConfig, OptimizerChoice,
    Phase1, Phase2, Phase3, RunSummary, SuccessModel, TaskSpec,
};
use autopilot_obs::json::Value;
use autopilot_serve::{JobManager, Server};
use dse_opt::RunControl;
use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use uav_dynamics::Airframe;

/// Job workers in the server, and closed-loop clients driving it.
const WORKERS: usize = 2;
const CLIENTS: usize = 2;
/// Pause between status polls of a running job.
const POLL: Duration = Duration::from_millis(5);
/// Jobs run before timing starts, so the first jobs' cold caches and
/// lazy process set-up do not land in the timed phase.
const WARMUP_JOBS: usize = 4;

/// One deck slot: optimizer, budget, scenario index, and class.
#[derive(Debug, Clone, Copy)]
struct Slot {
    optimizer: OptimizerChoice,
    budget: usize,
    scenario: usize,
    class: &'static str,
}

/// The 24-spec deck, with every slot at each of the three scenarios: a
/// quarter fast SMS-EGO jobs (budgets 60 and 100), a half random-search
/// jobs (budgets 450 and 500, twice each), and a quarter slow NSGA-II
/// jobs (budgets 500 and 600). A quarter of the jobs run faster than the
/// middle class and a quarter slower, so the median job lies in the
/// middle of the middle class.
fn deck() -> Vec<Slot> {
    let classes: [(&str, OptimizerChoice, &[usize]); 3] = [
        ("fast", OptimizerChoice::SmsEgo, &[60, 100]),
        ("middle", OptimizerChoice::Random, &[450, 450, 500, 500]),
        ("slow", OptimizerChoice::Nsga2, &[500, 600]),
    ];
    let mut slots = Vec::new();
    for (class, optimizer, budgets) in classes {
        for &budget in budgets {
            for scenario in 0..DENSITIES.len() {
                slots.push(Slot { optimizer, budget, scenario, class });
            }
        }
    }
    slots
}

/// One job of the stream.
#[derive(Debug, Clone)]
struct JobSpec {
    slot: Slot,
    uav: usize,
    seed: u64,
}

impl JobSpec {
    /// The `POST /jobs` body; also the job's identity for repeat checks.
    fn body(&self) -> String {
        format!(
            "{{\"uav_class\": \"{}\", \"scenario\": \"{}\", \"budget\": {}, \"optimizer\": \"{}\", \"seed\": {}, \"threads\": 1}}",
            UAV_CLASSES[self.uav],
            DENSITIES[self.slot.scenario].id(),
            self.slot.budget,
            self.slot.optimizer.name(),
            self.seed
        )
    }

    fn stratum(&self) -> String {
        format!("{}/{}", self.slot.class, DENSITIES[self.slot.scenario].id())
    }
}

/// The seeded job stream: deck after shuffled deck, with a fresh UAV and
/// optimizer seed per job. Each seed's Pareto front sets how long result
/// assembly takes, so a run must average over many seeds to be steady.
/// From the second deck on, the first slot of each class copies the UAV
/// and seed of the same slot one deck earlier, so the spec repeats
/// exactly.
fn stream(seed: u64, len: usize) -> Vec<JobSpec> {
    let mut rng = SplitMix::new(seed);
    let slots = deck();
    let mut jobs = Vec::with_capacity(len + slots.len());
    let mut previous: Vec<JobSpec> = Vec::new();
    while jobs.len() < len {
        let mut dealt: Vec<JobSpec> = slots
            .iter()
            .enumerate()
            .map(|(i, &slot)| {
                let fresh =
                    JobSpec { slot, uav: rng.below(UAV_CLASSES.len()), seed: rng.next_u64() >> 40 };
                let first_of_class = i == 0 || slots[i - 1].class != slot.class;
                match previous.get(i) {
                    Some(p) if first_of_class => JobSpec { slot, uav: p.uav, seed: p.seed },
                    _ => fresh,
                }
            })
            .collect();
        previous = dealt.clone();
        rng.shuffle(&mut dealt);
        jobs.extend(dealt);
    }
    jobs
}

/// Sends one HTTP/1.1 request and reads the reply's status and body.
fn exchange(
    stream: &TcpStream,
    reader: &mut impl BufRead,
    method: &str,
    path: &str,
    body: &str,
    keep_alive: bool,
) -> Result<(u16, String), String> {
    let fail = |e: std::io::Error| format!("{method} {path}: {e}");
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nConnection: {connection}\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    (&*stream).write_all(request.as_bytes()).map_err(fail)?;
    let mut line = String::new();
    let mut status = None;
    let mut length = 0usize;
    loop {
        line.clear();
        if reader.read_line(&mut line).map_err(fail)? == 0 {
            return Err(format!("{method} {path}: connection closed mid-reply"));
        }
        let l = line.trim_end();
        if l.is_empty() {
            break;
        }
        if status.is_none() {
            status = l.split_whitespace().nth(1).and_then(|s| s.parse::<u16>().ok());
        } else if let Some((k, v)) = l.split_once(':') {
            if k.eq_ignore_ascii_case("content-length") {
                length = v.trim().parse().map_err(|_| format!("bad content-length {v:?}"))?;
            }
        }
    }
    let mut reply = vec![0u8; length];
    reader.read_exact(&mut reply).map_err(fail)?;
    let status = status.ok_or(format!("{method} {path}: no status line"))?;
    Ok((status, String::from_utf8_lossy(&reply).into_owned()))
}

fn connect(addr: SocketAddr) -> Result<TcpStream, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream.set_read_timeout(Some(Duration::from_secs(60))).map_err(|e| e.to_string())?;
    Ok(stream)
}

/// One request on its own connection (`Connection: close`), as the
/// workload's clients send every request.
fn one_shot(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> Result<(u16, String), String> {
    let stream = connect(addr)?;
    let mut reader = BufReader::new(&stream);
    exchange(&stream, &mut reader, method, path, body, false)
}

/// Median round trip of `GET /healthz` on one keep-alive connection.
fn keepalive_rtt_s(addr: SocketAddr, requests: usize) -> Result<f64, String> {
    let stream = connect(addr)?;
    let mut reader = BufReader::new(&stream);
    let mut times = Vec::with_capacity(requests);
    for _ in 0..requests {
        let started = Instant::now();
        match exchange(&stream, &mut reader, "GET", "/healthz", "", true)? {
            (200, _) => times.push(started.elapsed().as_secs_f64()),
            (status, reply) => return Err(format!("healthz answered {status}: {reply}")),
        }
    }
    Ok(crate::stats::median(&times))
}

/// A running in-process server.
pub struct Booted {
    pub addr: SocketAddr,
    pub manager: Arc<JobManager>,
    shutdown: Arc<AtomicBool>,
    thread: JoinHandle<std::io::Result<()>>,
}

impl Booted {
    /// Per-job defaults: the startup environment with one engine thread.
    pub fn defaults() -> JobConfig {
        JobConfig::from_env().with_threads(1)
    }

    /// Binds an ephemeral loopback port, starts the server with its job
    /// workers, and waits for the first `/healthz`.
    pub fn boot() -> Result<Booted, String> {
        let manager = Arc::new(JobManager::new(64, Booted::defaults()));
        let server = Server::bind("127.0.0.1:0", Arc::clone(&manager), WORKERS)
            .map_err(|e| e.to_string())?;
        let addr = server.local_addr().map_err(|e| e.to_string())?;
        let shutdown = server.shutdown_handle();
        let thread = std::thread::spawn(move || server.run());
        let booted = Booted { addr, manager, shutdown, thread };
        let health = one_shot(addr, "GET", "/healthz", "");
        match health {
            Ok((200, _)) => Ok(booted),
            other => {
                let _ = booted.stop();
                Err(format!("healthz answered {other:?}"))
            }
        }
    }

    /// Stops the server and joins it (workers and connections included).
    pub fn stop(self) -> Result<(), String> {
        self.shutdown.store(true, Ordering::Relaxed);
        match self.thread.join() {
            Ok(r) => r.map_err(|e| e.to_string()),
            Err(_) => Err("server thread panicked".into()),
        }
    }
}

/// One finished job as the client saw it.
struct Done {
    index: usize,
    id: u64,
    op_s: f64,
    outcome: Result<String, String>,
}

/// Runs one job through the HTTP API.
fn one_job(addr: SocketAddr, spec: &JobSpec, index: usize, tracer: Option<&Tracer>) -> Done {
    let op = index as u64;
    let root = tracer.map(|t| t.open("op", op, None));
    let request = |name: &str, method: &str, path: &str, body: &str| match tracer {
        Some(t) => t.time(name, op, root, || one_shot(addr, method, path, body)),
        None => one_shot(addr, method, path, body),
    };
    let started = Instant::now();
    let mut id = 0;
    let outcome = (|| {
        let (status, reply) = request("serve.post", "POST", "/jobs", &spec.body())?;
        if status != 202 {
            return Err(format!("POST /jobs answered {status}: {reply}"));
        }
        id = Value::parse(&reply).ok().and_then(|v| v.get("id")?.as_u64()).ok_or("no job id")?;
        let path = format!("/jobs/{id}");
        loop {
            std::thread::sleep(POLL);
            let (status, reply) = request("serve.poll", "GET", &path, "")?;
            let state =
                Value::parse(&reply).ok().and_then(|v| Some(v.get("state")?.as_str()?.to_owned()));
            match (status, state.as_deref()) {
                (200, Some("completed")) => break,
                (200, Some("queued" | "running")) => {}
                _ => return Err(format!("job {id}: status {status}: {reply}")),
            }
        }
        let (status, reply) = request("serve.result_get", "GET", &format!("{path}/result"), "")?;
        if status != 200 {
            return Err(format!("GET {path}/result answered {status}: {reply}"));
        }
        Ok(reply)
    })();
    let op_s = started.elapsed().as_secs_f64();
    if let (Some(t), Some(r)) = (tracer, root) {
        t.close(r);
    }
    Done { index, id, op_s, outcome }
}

/// Drives the closed loop: every client takes the next job of the
/// stream as soon as its previous one finishes, until `stop` says so.
fn drive(
    addr: SocketAddr,
    jobs: &[JobSpec],
    next: &AtomicUsize,
    stop: &(dyn Fn(usize) -> bool + Sync),
    tracer: Option<&Tracer>,
) -> Vec<Done> {
    let done = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                if stop(index) || index >= jobs.len() {
                    break;
                }
                let d = one_job(addr, &jobs[index], index, tracer);
                done.lock().expect("no client panics holding the lock").push(d);
            });
        }
    });
    let mut done = done.into_inner().expect("no client panics holding the lock");
    done.sort_by_key(|d| d.index);
    done
}

/// Candidate-cache totals over the (scenario, seed) keys of `jobs`:
/// (hits, lookups, cross-run hits).
fn candidate_totals(manager: &JobManager, jobs: &[JobSpec]) -> (f64, f64, f64) {
    let keys: std::collections::BTreeSet<(usize, u64)> =
        jobs.iter().map(|j| (j.slot.scenario, j.seed)).collect();
    let mut t = (0.0, 0.0, 0.0);
    for (scenario, seed) in keys {
        let cache =
            manager.caches().candidate_cache(DENSITIES[scenario], SuccessModel::Surrogate, seed);
        let s = cache.stats();
        t.0 += s.hits as f64;
        t.1 += (s.hits + s.misses) as f64;
        t.2 += cache.cross_run_hits() as f64;
    }
    t
}

/// The job's pipeline through `AutoPilot::run`, as the CLI runs it.
fn via_cli(spec: &JobSpec) -> Result<AutopilotResult, String> {
    let uav = autopilot_serve::jobs::uav_spec(UAV_CLASSES[spec.uav]).ok_or("unknown UAV")?;
    let config = AutopilotConfig::fast(spec.seed)
        .with_optimizer(spec.slot.optimizer)
        .with_budget(spec.slot.budget);
    AutoPilot::new(config)
        .with_job_config(Booted::defaults())
        .run(&uav, &TaskSpec::navigation(DENSITIES[spec.slot.scenario]))
        .map_err(|e| e.to_string())
}

/// The server's job pipeline composed from the phases' public functions
/// against the server's own shared caches, each phase timed, then
/// replayed through a fresh evaluator and `from_history`.
fn traced_replay(
    manager: &JobManager,
    spec: &JobSpec,
    done: &Done,
    tracer: &Tracer,
    res: &mut RunResult,
) -> Result<String, String> {
    let op = done.index as u64;
    let density = DENSITIES[spec.slot.scenario];
    let defaults = Booted::defaults();
    let uav = autopilot_serve::jobs::uav_spec(UAV_CLASSES[spec.uav]).ok_or("unknown UAV")?;
    let task = TaskSpec::navigation(density);
    let root = tracer.open("served.replay", op, None);
    let parent = Some(root);
    let db = tracer.time("phase1.populate", op, parent, || {
        let mut db = AirLearningDatabase::new();
        Phase1::new(SuccessModel::Surrogate, spec.seed).populate(density, &mut db);
        db
    });
    let mut evaluator = DssocEvaluator::new(db.clone(), density)
        .with_shared_layer_memo(manager.caches().layer_memo(), done.id);
    if defaults.swap.is_on() {
        let airframe = uav.airframe.clone().unwrap_or_else(|| Airframe::default_for(uav.class));
        evaluator = evaluator.with_swap(defaults.swap, airframe);
    }
    let cache = manager.caches().candidate_cache(density, SuccessModel::Surrogate, spec.seed);
    let phase2 = tracer.time("phase2.run", op, parent, || {
        defaults
            .apply_to_phase2(Phase2::new(spec.slot.optimizer, spec.slot.budget, spec.seed))
            .run_with_cache_controlled(&evaluator, &cache, &RunControl::none())
    });
    let phase2 = match phase2 {
        Ok(p) => p,
        Err(e) => {
            tracer.close(root);
            return Err(e.to_string());
        }
    };
    let selection = tracer.time("phase3.select", op, parent, || {
        Phase3::new().select(&uav, &task, &phase2, &evaluator)
    });
    let result = AutopilotResult {
        uav,
        task,
        database: db,
        phase2,
        selection_error: selection.as_ref().err().map(|e| e.to_string()),
        selection: selection.ok(),
    };
    let json =
        tracer.time("report.to_json", op, parent, || RunSummary::from_result(&result).to_json());
    tracer.close(root);
    replay(&result, op, tracer, &mut res.layers)?;
    json.map_err(|e| e.to_string())
}

/// Checks one served result: a selection with positive missions, a
/// non-empty front, and the full budget evaluated.
fn check_summary(spec: &JobSpec, json: &str) -> Result<RunSummary, String> {
    let s = RunSummary::from_json(json)?;
    if !s.missions.is_some_and(|m| m > 0.0) || s.selection.is_none() {
        return Err(format!("no selection with positive missions: {:?}", s.error));
    }
    if s.pareto_size == 0 {
        return Err("empty Pareto front".into());
    }
    if s.evaluations != spec.slot.budget {
        return Err(format!("{} evaluations for budget {}", s.evaluations, spec.slot.budget));
    }
    Ok(s)
}

pub fn run(seed: u64, seconds: u64, tracer: Option<&Tracer>) -> Result<RunResult, String> {
    // Far more jobs than a run can finish (about ten per second).
    let jobs = stream(seed, 64 + 40 * seconds as usize);
    let server = Booted::boot()?;
    let next = AtomicUsize::new(0);
    drive(server.addr, &jobs, &next, &|i| i >= WARMUP_JOBS, None);
    next.store(WARMUP_JOBS, Ordering::Relaxed);

    let memo = server.manager.caches().layer_memo();
    let memo_before = memo.stats();
    let candidates_before = candidate_totals(&server.manager, &jobs[..WARMUP_JOBS]);
    let counts_before = obs_counts();
    let cpu_before = cpu_seconds();
    let started = Instant::now();
    let deadline = Duration::from_secs(seconds);
    let done = drive(server.addr, &jobs, &next, &|_| started.elapsed() >= deadline, tracer);
    let wall_s = started.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds() - cpu_before;
    let memo_after = memo.stats();
    let attempted = done.last().map_or(WARMUP_JOBS, |d| d.index + 1);
    let candidates_after = candidate_totals(&server.manager, &jobs[..attempted]);
    let counts_after = obs_counts();
    let keepalive = if tracer.is_some() { Some(keepalive_rtt_s(server.addr, 9)) } else { None };
    let manager = Arc::clone(&server.manager);
    server.stop()?;

    let mut res = RunResult { wall_s, cpu_s, ..RunResult::default() };
    let mut first_result: HashMap<String, String> = HashMap::new();
    let mut samples: BTreeMap<String, usize> = BTreeMap::new();
    let mut ok: Vec<bool> = Vec::with_capacity(done.len());
    for (k, d) in done.iter().enumerate() {
        let spec = &jobs[d.index];
        res.attempted += 1;
        let checked = d.outcome.clone().and_then(|json| {
            let summary = check_summary(spec, &json)?;
            match first_result.get(&spec.body()) {
                Some(first) if *first != json => {
                    Err("repeated spec gave a different result".into())
                }
                Some(_) => Ok(summary),
                None => {
                    first_result.insert(spec.body(), json);
                    Ok(summary)
                }
            }
        });
        match checked {
            Ok(summary) => {
                ok.push(true);
                let pair =
                    format!("{}/{}", UAV_CLASSES[spec.uav], DENSITIES[spec.slot.scenario].id());
                res.missions.push((pair, summary.missions.unwrap_or(0.0)));
                samples.entry(spec.stratum()).or_insert(k);
            }
            Err(e) => {
                ok.push(false);
                res.fail(format!("job {} ({}): {e}", d.id, spec.body()));
            }
        }
    }

    // The sampled byte-identity check against the CLI path: the first
    // completed job of every (class, scenario) stratum. Its hypervolume
    // (the served summary carries none) is the run's search quality.
    for (stratum, &k) in &samples {
        let d = &done[k];
        let spec = &jobs[d.index];
        let served_json = d.outcome.as_ref().map_or("", String::as_str);
        let cli = via_cli(spec).and_then(|r| {
            let json = RunSummary::from_result(&r).to_json().map_err(|e| e.to_string())?;
            Ok((r.phase2.result, json))
        });
        let mut verdict = match cli {
            Ok((result, json)) if json == served_json => {
                let volume: f64 = result.reference_point.iter().product();
                res.hv.push((stratum.clone(), result.final_hypervolume() / volume));
                Ok(())
            }
            Ok(_) => Err("served result differs from the CLI path".to_owned()),
            Err(e) => Err(e),
        };
        if let (Some(t), Ok(())) = (tracer, &verdict) {
            verdict = traced_replay(&manager, spec, d, t, &mut res).and_then(|json| {
                (json == served_json)
                    .then_some(())
                    .ok_or("composed pipeline differs from the server".into())
            });
        }
        if let Err(e) = verdict {
            if ok[k] {
                ok[k] = false;
                res.fail(format!("job {} ({}): {e}", d.id, spec.body()));
            }
        }
    }
    res.op_s = done.iter().zip(&ok).filter(|(_, &ok)| ok).map(|(d, _)| d.op_s).collect();

    let l = &mut res.layers;
    l.warm_phase2 = true;
    l.memo_hits = (memo_after.hits - memo_before.hits) as f64;
    l.memo_lookups = l.memo_hits + (memo_after.misses - memo_before.misses) as f64;
    l.candidate_hits = candidates_after.0 - candidates_before.0;
    l.candidate_lookups = candidates_after.1 - candidates_before.1;
    l.candidate_cross_run_hits = candidates_after.2 - candidates_before.2;
    for (metric, name) in OBS_COUNTERS {
        l.counters.insert(metric, (counts_after[name] - counts_before[name]) as f64);
    }
    if let Some(rtt) = keepalive {
        l.keepalive_rtt_s = rtt?;
    }
    Ok(res)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_deck_holds_the_class_proportions_and_repeats() {
        let jobs = stream(11, 72);
        for deck in jobs.chunks(24) {
            let count = |c: &str| deck.iter().filter(|j| j.slot.class == c).count();
            assert_eq!((count("fast"), count("middle"), count("slow")), (6, 12, 6));
        }
        let bodies: Vec<String> = jobs[24..48].iter().map(JobSpec::body).collect();
        let earlier: Vec<String> = jobs[..24].iter().map(JobSpec::body).collect();
        let repeats = bodies.iter().filter(|b| earlier.contains(b)).count();
        assert!(repeats >= 3, "{repeats} repeats");
        assert_eq!(format!("{:?}", stream(11, 72)), format!("{jobs:?}"));
    }
}
