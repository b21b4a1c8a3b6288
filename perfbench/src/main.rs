//! The repository's benchmark: four workloads, each timed end to end with
//! tracing off, and split by layer in a separate traced run.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones, with `--trace 1` the per-layer ones;
//! both lists, with units, are in `BENCHMARK.json` and in [`END_TO_END`]
//! and [`PER_LAYER`]. Lines before it describe the host and the samples.
//! See `README.md` beside this crate for what each workload loads and why.

mod collectives;
mod fig7a;
mod meter;
mod reference;
mod replay;
mod stats;
mod trace;

use stats::{median, tail, Ledger};
use std::time::Duration;

/// End-to-end metrics and their units, reported by every workload.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("op_p50_ms", "ms"),
];

/// Per-layer metrics and their units, reported by every workload's traced
/// run. A layer the workload never calls reads 0.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("host.nproc", "count"),
    ("host.solver_threads", "count"),
    ("trace.overhead_frac", "ratio"),
    ("world.setup_s", "s"),
    ("fabric.sends", "count"),
    ("fabric.bytes_sent", "bytes"),
    ("fabric.send_s", "s"),
    ("fabric.recv_wait_s", "s"),
    ("fabric.wire_amplification", "ratio"),
    ("comm.calls", "count"),
    ("comm.busy_s", "s"),
    ("comm.self_s", "s"),
    ("kernels.reduce_gbps", "GB/s"),
    ("dtypes.bf16_widen_gbps", "GB/s"),
    ("dtypes.bf16_narrow_gbps", "GB/s"),
    ("allreduce_p99_us", "us"),
    ("cluster.build_s", "s"),
    ("model.simulate_s", "s"),
    ("fluid.events", "count"),
    ("fluid.recomputes", "count"),
    ("fluid.components", "count"),
    ("fluid.fill_rounds", "count"),
    ("fluid.events_per_s", "1/s"),
    ("fluid.empty_component_ratio", "ratio"),
    ("platform.build_s", "s"),
    ("platform.submit_s", "s"),
    ("platform.plan_s", "s"),
    ("platform.tick_s", "s"),
    ("platform.tick_p50_ms", "ms"),
    ("platform.tick_max_ms", "ms"),
    ("platform.failures", "count"),
    ("platform.preemptions", "count"),
    ("platform.detector_quarantines", "count"),
    ("platform.lost_work_s", "s"),
    ("platform.utilization", "ratio"),
    ("serving.completed", "count"),
    ("serving.attainment", "ratio"),
    ("obs.events", "count"),
    ("obs.digest_s", "s"),
    ("obs.chrome_export_s", "s"),
];

/// A workload: measures one run and reports it.
type Workload = fn(&Args) -> Report;

/// The workloads by name.
const WORKLOADS: [(&str, Workload); 4] = [
    ("grad-sync", collectives::grad_sync),
    ("allreduce-latency", collectives::allreduce_latency),
    ("fig7a-sweep", fig7a::fig7a_sweep),
    ("cluster-replay", replay::cluster_replay),
];

/// Parsed command line.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Measuring time of the run, seconds.
    pub seconds: u64,
    /// Whether this is the traced run.
    pub trace: bool,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |_| format!("bad value for {flag}: {value}");
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse().map_err(bad)?),
                "--seconds" => seconds = Some(value.parse().map_err(bad)?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                    })
                }
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        let seconds: u64 = seconds.ok_or("--seconds is required")?;
        if !(1..=600).contains(&seconds) {
            return Err(format!("--seconds must be 1..=600, not {seconds}"));
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.ok_or("--trace is required")?,
        })
    }

    /// Time one untraced phase may measure: the whole run, or half of it
    /// when the traced phase follows.
    pub fn budget(&self) -> Duration {
        let whole = Duration::from_secs(self.seconds);
        if self.trace {
            whole / 2
        } else {
            whole
        }
    }
}

/// What a workload measured.
pub struct Report {
    /// Operations and checks.
    pub ledger: Ledger,
    /// Median seconds of the workload's set-up; the simulations give it
    /// at the reference host speed (see `reference.rs`).
    pub setup_s: f64,
    /// Median seconds of the workload's unit operation, untraced; the
    /// simulations give it at the reference host speed.
    pub op_p50_s: f64,
    /// Peak resident memory once the first unit of work is done, MiB:
    /// later repeats only let allocator fragmentation creep in, and their
    /// number depends on the host's speed.
    pub peak_rss_mb: f64,
    /// Per-layer metrics set by the traced run.
    pub layers: Vec<(&'static str, f64)>,
    /// Fluid-solver worker lanes the workload used (0: no solver).
    pub solver_threads: usize,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    /// A report whose set-up took `setup_s` (median).
    pub fn new(setup_s: f64) -> Report {
        Report {
            ledger: Ledger::default(),
            setup_s,
            op_p50_s: f64::NAN,
            peak_rss_mb: f64::NAN,
            layers: Vec::new(),
            solver_threads: 0,
            notes: Vec::new(),
        }
    }

    /// Record the untraced operation samples, named `what`.
    pub fn op(&mut self, what: &str, samples: &[f64]) {
        self.op_p50_s = median(samples);
        let tail = tail(samples).map_or(String::new(), |(label, v)| {
            format!(", {label} {:.6} ms", v * 1e3)
        });
        self.notes.push(format!(
            "op: {what}: {} samples, p50 {:.6} ms{tail}",
            samples.len(),
            self.op_p50_s * 1e3
        ));
    }

    /// Record an untraced operation made of fixed parts, repeated:
    /// `repeats[r][part]` seconds at the reference host speed, `raw` the
    /// same as measured.
    pub fn op_parts(&mut self, what: &str, repeats: &[Vec<f64>], raw: &[Vec<f64>]) {
        self.op_p50_s = stats::median_of_parts(repeats);
        let totals: Vec<f64> = repeats
            .iter()
            .map(|r| r.iter().sum::<f64>() * 1e3)
            .collect();
        self.notes.push(format!(
            "op: {what}: {} repeats of {} parts, median of parts {:.6} ms at the reference speed \
             ({:.6} ms as measured), totals {totals:.3?} ms",
            repeats.len(),
            repeats[0].len(),
            self.op_p50_s * 1e3,
            stats::median_of_parts(raw) * 1e3
        ));
    }

    /// Add a human-readable line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Set one per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.push((name, value));
    }

    /// Set several per-layer metrics.
    pub fn layers(&mut self, values: Vec<(&'static str, f64)>) {
        self.layers.extend(values);
    }
}

/// Write a traced run's spans to `out/<workload>.trace.json` beside this
/// crate.
pub fn write_spans(workload: &str, spans: &[trace::Span]) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{workload}.trace.json"));
    if let Err(e) = trace::write_chrome(&path, spans, 50_000) {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
}

/// The metrics of this run, in the order of their table, as `(name,
/// value, unit)`. Fails if one is missing or not a finite number.
fn metrics(args: &Args, report: &Report) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut values: Vec<(&'static str, f64)> = if args.trace {
        let mut v = vec![
            ("host.nproc", nproc as f64),
            ("host.solver_threads", report.solver_threads as f64),
        ];
        v.extend(report.layers.iter().copied());
        v
    } else {
        vec![
            ("setup_s", report.setup_s),
            ("peak_rss_mb", report.peak_rss_mb),
            ("op_p50_ms", report.op_p50_s * 1e3),
        ]
    };
    let table: &[(&'static str, &'static str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut out = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        let hits: Vec<f64> = values
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|&(_, v)| v)
            .collect();
        let value = match hits.as_slice() {
            [] if args.trace => 0.0,
            [] => return Err(format!("{name} was not measured")),
            [v] => *v,
            _ => return Err(format!("{name} was reported twice")),
        };
        if !value.is_finite() {
            return Err(format!("{name} is not a finite number: {value}"));
        }
        out.push((name, value, unit));
    }
    values.retain(|(n, _)| !table.iter().any(|(t, _)| t == n));
    if let Some((name, _)) = values.first() {
        return Err(format!("{name} is not in the metric table"));
    }
    Ok(out)
}

fn result_json(ledger: Ledger, metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ledger.failed == 0 && ledger.attempted > 0,
        ledger.attempted,
        ledger.failed,
        body.join(", ")
    )
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.map(|w| w.0).join("|")
            );
            std::process::exit(2);
        }
    };
    let Some(&(_, run)) = WORKLOADS.iter().find(|w| w.0 == args.workload) else {
        eprintln!("perfbench: unknown workload {}", args.workload);
        std::process::exit(2);
    };
    let report = run(&args);
    println!(
        "host: nproc {} | {} | fluid solver threads {}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        env!("PERFBENCH_RUSTC"),
        report.solver_threads
    );
    println!(
        "run: workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    for line in &report.notes {
        println!("{line}");
    }
    match metrics(&args, &report) {
        Ok(m) => println!("{}", result_json(report.ledger, &m)),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and the tables above must name the same metrics
    /// with the same units, and the same workloads.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let doc = include_str!("../../BENCHMARK.json");
        // The quoted values following `"key":` inside the list `section`.
        let values = |section: &str, key: &str| -> Vec<String> {
            let start = doc.find(&format!("\"{section}\"")).expect("section");
            let list = &doc[start..start + doc[start..].find(']').expect("list end")];
            list.split(&format!("\"{key}\":"))
                .skip(1)
                .map(|v| v.trim_start()[1..].split('"').next().unwrap().to_string())
                .collect()
        };
        for (section, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let names: Vec<&str> = table.iter().map(|t| t.0).collect();
            let units: Vec<&str> = table.iter().map(|t| t.1).collect();
            assert_eq!(values(section, "name"), names);
            assert_eq!(values(section, "unit"), units);
        }
        assert_eq!(values("workloads", "name"), WORKLOADS.map(|w| w.0).to_vec());
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |s: &str| Args::parse(&s.split(' ').map(String::from).collect::<Vec<_>>());
        let a = parse("--workload grad-sync --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10, true));
        assert_eq!(a.budget(), Duration::from_secs(5));
        assert!(parse("--workload x --seed 7 --seconds 10 --trace 2").is_err());
        assert!(parse("--workload x --seed 7 --seconds 0 --trace 0").is_err());
        assert!(parse("--workload x --seed 7 --trace 0").is_err());
        assert!(parse("--workload x --seed -1 --seconds 3 --trace 0").is_err());
    }
}
