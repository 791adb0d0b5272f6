//! `setup_s`: time from process start until the first op can be issued.
//!
//! The benchmark starts itself as a child process in probe mode several
//! times; each child does the workload's set-up (registry and obs
//! initialisation, and for `served-mix` the server bind, worker spawn
//! and first `/healthz`), prints `ready`, tears down and exits. The parent times spawn → `ready` and reports the median.

use crate::served;
use std::io::{BufRead, BufReader, Write};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// Set-ups measured per run; the median is reported.
const PROBES: usize = 41;

/// Median set-up time over [`PROBES`] child processes, seconds.
pub fn measure(workload: &str, seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut times = Vec::with_capacity(PROBES);
    for _ in 0..PROBES {
        let started = Instant::now();
        let mut child = Command::new(&exe)
            .args(["--setup-probe", "--workload", workload, "--seed", &seed.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
        let mut line = String::new();
        if let Some(out) = child.stdout.take() {
            let _ = BufReader::new(out).read_line(&mut line);
        }
        let elapsed = started.elapsed().as_secs_f64();
        let status = child.wait().map_err(|e| e.to_string())?;
        if line.trim() != "ready" || !status.success() {
            return Err(format!("probe child answered {line:?} and exited with {status}"));
        }
        times.push(elapsed);
    }
    Ok(crate::stats::median(&times))
}

/// The probe child: set up, report readiness, tear down.
pub fn probe_child(workload: &str) -> ExitCode {
    let _ = autopilot::registered_optimizers();
    let _ = autopilot_obs::metrics_enabled();
    let ready = || {
        let mut out = std::io::stdout().lock();
        let _ = writeln!(out, "ready");
        let _ = out.flush();
    };
    if workload == "served-mix" {
        match served::Booted::boot() {
            Ok(server) => {
                ready();
                match server.stop() {
                    Ok(()) => ExitCode::SUCCESS,
                    Err(e) => {
                        eprintln!("perfbench: {e}");
                        ExitCode::FAILURE
                    }
                }
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        }
    } else {
        ready();
        ExitCode::SUCCESS
    }
}
