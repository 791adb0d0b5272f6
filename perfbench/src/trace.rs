//! The traced run's span recorder and the report built from its spans.
//!
//! Spans are recorded by the benchmark around calls into each layer's
//! public functions; the program itself is not instrumented. A span has
//! a name, a start, an end, a parent, and the id of the op it belongs
//! to. Spans stay in memory and are written as JSON when the run ends;
//! the report reads them back. A span's self time is its duration minus
//! the part of it that its child spans cover.

use autopilot_obs::json::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the recorder started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_s(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// In-memory span store shared by the benchmark's client threads.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer { origin: Instant::now(), spans: Mutex::new(Vec::new()) }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans.lock().expect("no benchmark thread panics while recording a span")
    }

    /// Opens a span and returns its handle for [`Tracer::close`] and for
    /// use as a parent.
    pub fn open(&self, name: &str, op: u64, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        let mut spans = self.lock();
        spans.push(Span { name: name.to_owned(), op, start_ns, end_ns: start_ns, parent });
        spans.len() - 1
    }

    pub fn close(&self, handle: usize) {
        let end_ns = self.now_ns();
        if let Some(span) = self.lock().get_mut(handle) {
            span.end_ns = end_ns;
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&self, name: &str, op: u64, parent: Option<usize>, f: impl FnOnce() -> T) -> T {
        let handle = self.open(name, op, parent);
        let out = f();
        self.close(handle);
        out
    }

    /// Duration of a closed span, seconds.
    pub fn duration_s(&self, handle: usize) -> f64 {
        self.lock().get(handle).map_or(f64::NAN, Span::duration_s)
    }

    pub fn spans(&self) -> Vec<Span> {
        self.lock().clone()
    }
}

/// Renders spans as the JSON document [`write`] stores.
fn render(workload: &str, seed: u64, spans: &[Span]) -> String {
    let rows = spans
        .iter()
        .map(|s| {
            Value::Obj(vec![
                ("name".into(), Value::Str(s.name.clone())),
                ("op".into(), Value::Num(s.op as f64)),
                ("start_ns".into(), Value::Num(s.start_ns as f64)),
                ("end_ns".into(), Value::Num(s.end_ns as f64)),
                ("parent".into(), s.parent.map_or(Value::Null, |p| Value::Num(p as f64))),
            ])
        })
        .collect();
    let doc = Value::Obj(vec![
        ("workload".into(), Value::Str(workload.to_owned())),
        ("seed".into(), Value::Num(seed as f64)),
        ("spans".into(), Value::Arr(rows)),
    ]);
    doc.to_json()
}

/// Writes spans as JSON to `path`.
pub fn write(path: &Path, workload: &str, seed: u64, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, render(workload, seed, spans))
}

/// Reads spans written by [`write`].
pub fn read(path: &Path) -> Result<Vec<Span>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn parse(text: &str) -> Result<Vec<Span>, String> {
    let doc = Value::parse(text).map_err(|e| e.to_string())?;
    let rows = doc.get("spans").and_then(Value::as_arr).ok_or("no `spans` array")?;
    rows.iter()
        .map(|r| {
            let num =
                |k: &str| r.get(k).and_then(Value::as_u64).ok_or(format!("span without `{k}`"));
            Ok(Span {
                name: r
                    .get("name")
                    .and_then(Value::as_str)
                    .ok_or("span without `name`")?
                    .to_owned(),
                op: num("op")?,
                start_ns: num("start_ns")?,
                end_ns: num("end_ns")?,
                parent: r.get("parent").and_then(Value::as_u64).map(|p| p as usize),
            })
        })
        .collect()
}

/// Where a workload's spans are written.
pub fn spans_path(workload: &str) -> PathBuf {
    crate::out_dir().join(format!("trace-{workload}.json"))
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals clipped to it.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent.filter(|&p| p < spans.len()) {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.end_ns.saturating_sub(s.start_ns).saturating_sub(covered) as f64 * 1e-9
        })
        .collect()
}

/// Per-name aggregate of a span set.
#[derive(Debug, Default, Clone)]
pub struct Layer {
    pub count: usize,
    pub total_s: f64,
    pub self_s: f64,
    /// Summed duration per op id, for per-op medians.
    pub per_op_s: BTreeMap<u64, f64>,
}

pub fn layers(spans: &[Span]) -> BTreeMap<String, Layer> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<String, Layer> = BTreeMap::new();
    for (s, self_s) in spans.iter().zip(selfs) {
        let layer = out.entry(s.name.clone()).or_default();
        layer.count += 1;
        layer.total_s += s.duration_s();
        layer.self_s += self_s;
        *layer.per_op_s.entry(s.op).or_default() += s.duration_s();
    }
    out
}

/// Prints per-layer self time and counts, and the tracing overhead
/// against the last untraced run of the workload when one is recorded.
pub fn print_report(workload: &str) -> Result<(), String> {
    let spans = read(&spans_path(workload))?;
    let layers = layers(&spans);
    let ops = layers.get("op").map_or(0, |l| l.per_op_s.len());
    println!("trace report: {workload}, {} spans over {ops} ops", spans.len());
    println!(
        "{:<24} {:>8} {:>12} {:>12} {:>14}",
        "layer", "count", "total_s", "self_s", "self_ms/op"
    );
    let mut rows: Vec<(&String, &Layer)> = layers.iter().collect();
    rows.sort_by(|a, b| b.1.self_s.total_cmp(&a.1.self_s));
    for (name, l) in rows {
        println!(
            "{name:<24} {:>8} {:>12.4} {:>12.4} {:>14.3}",
            l.count,
            l.total_s,
            l.self_s,
            1e3 * l.self_s / ops.max(1) as f64
        );
    }
    let traced = layers
        .get("op")
        .map(|l| crate::stats::median(&l.per_op_s.values().copied().collect::<Vec<_>>()));
    match (traced, crate::last_untraced_op_p50(workload)) {
        (Some(t), Some(u)) => println!(
            "tracing overhead: op_s_p50 traced {t:.6} s vs untraced {u:.6} s ({:+.2}%)",
            100.0 * (t / u - 1.0)
        ),
        (Some(t), None) => {
            println!("tracing overhead: op_s_p50 traced {t:.6} s; no untraced run recorded yet")
        }
        _ => println!("tracing overhead: no op spans recorded"),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name: name.into(), op: 0, start_ns, end_ns, parent }
    }

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        let spans = vec![
            span("op", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)),  // overlaps a by 10
            span("c", 90, 120, Some(0)), // runs past the parent's end
        ];
        let selfs = self_times(&spans);
        assert!((selfs[0] - 40e-9).abs() < 1e-15, "{selfs:?}");
        assert!((selfs[1] - 30e-9).abs() < 1e-15);
    }

    #[test]
    fn spans_round_trip_through_json() {
        let spans = vec![span("op", 5, 100, None), span("a", 10, 40, Some(0))];
        let back = parse(&render("w", 3, &spans)).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!((back[1].start_ns, back[1].end_ns, back[1].parent), (10, 40, Some(0)));
    }
}
