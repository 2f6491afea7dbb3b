//! The repository's benchmark: one command that runs a named workload,
//! checks its outputs, and prints every end-to-end metric (or, with
//! `--trace 1`, every per-layer metric) as the last line of stdout:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload gmres-cheb --seed 1 --seconds 36 --trace 0
//! ```
//!
//! Workloads, metrics and their meaning are listed in `perfbench/README.md`
//! and `BENCHMARK.json`.

mod campaign;
mod host;
mod layers;
mod pace;
mod served;
mod solve;
mod stats;

use std::process::ExitCode;
use std::time::Duration;

/// End-to-end metrics, in `BENCHMARK.json` order. Every workload reports
/// each of them (see README.md for what each means per workload).
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("iters_to_tol", "count"),
    ("units_per_s", "1/s"),
    ("lat_p50_ms.low", "ms"),
    ("lat_p50_ms.high", "ms"),
    ("max_rate_rps", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, in `BENCHMARK.json` order. A layer a workload does
/// not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("sparse.spmv_calls", "count"),
    ("sparse.spmv_s", "s"),
    ("sparse.spmv_gbps", "GB/s"),
    ("precond.apply_calls", "count"),
    ("precond.apply_s", "s"),
    ("precond.build_s", "s"),
    ("ortho.coeffs", "count"),
    ("ortho.s", "s"),
    ("ortho.gbps", "GB/s"),
    ("ortho.bw_frac", "frac"),
    ("krylov.solve_s", "s"),
    ("krylov.self_s", "s"),
    ("ftgmres.inner_solves", "count"),
    ("ftgmres.useful_inner_frac", "frac"),
    ("detector.events", "count"),
    ("detector.restarts", "count"),
    ("faults.injected", "count"),
    ("campaign.unit_s.p50", "s"),
    ("campaign.unit_s.max", "s"),
    ("campaign.busy_frac", "frac"),
    ("campaign.overhead_s", "s"),
    ("campaign.baseline_s", "s"),
    ("server.exec_us", "us"),
    ("server.parse_us", "us"),
    ("server.encode_us", "us"),
    ("server.transport_us", "us"),
    ("sched.batches", "count"),
    ("sched.batched_solves", "count"),
    ("sched.queue_depth_peak", "count"),
    ("sched.busy_rejects", "count"),
    ("netpoll.wakeups_per_req", "count"),
    ("gen.late_ms", "ms"),
    ("obs.trace_overhead_frac", "frac"),
    ("host.nproc", "count"),
    ("host.llc_mib", "MiB"),
    ("host.triad_gbps", "GB/s"),
    ("host.working_set_llc", "frac"),
];

const WORKLOADS: [&str; 3] = ["gmres-cheb", "campaign-p100", "served-mix"];

/// Command-line arguments (all four are required).
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(val),
                "--seed" => seed = Some(val.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s = val.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err("--seconds must be in (0, 600]".into());
                    }
                    seconds = Some(s)
                }
                "--trace" => {
                    trace = Some(match val.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    })
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
        }
        Ok(Args {
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }

    /// The measurement budget.
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// What a workload measured and checked.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
    /// Human-readable context printed before the result line.
    pub notes: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Counts one checked operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 5 {
                self.notes.push(format!("FAILED: {}", what()));
            }
        }
    }

    pub fn note(&mut self, s: String) {
        self.notes.push(s);
    }

    /// A result printed for people but kept out of the result line, so no
    /// bound gates it: tail latencies on a shared two-core host swing
    /// several-fold between runs of the same code (see README.md).
    pub fn ungated(&mut self, name: &str, value: f64, unit: &str) {
        self.notes.push(format!("ungated {name} = {value} {unit}"));
    }
}

/// SplitMix64: the benchmark's only source of input randomness, so one
/// seed always yields the same inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5dc0_2014_0000_0000)
    }
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Runs `setup` `reps` times and returns the median paced and raw wall
/// times and the last result: set-up time is reported as a median so
/// that one slow repetition cannot move it.
pub fn timed_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (f64, f64, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let (t, v) = pace::timed(&mut setup);
        times.push(t);
        last = Some(v);
    }
    let last = last.expect("at least one repetition");
    (stats::median(&pace::paced(&times)), stats::median(&pace::raw(&times)), last)
}

/// The result line. With `absent_is_zero`, a metric the workload did not
/// report is 0 (a layer it does not exercise); otherwise it is an error.
fn render(
    report: &Report,
    names: &[(&'static str, &'static str)],
    absent_is_zero: bool,
) -> Result<String, String> {
    let mut fields = Vec::new();
    for &(name, unit) in names {
        let value = match report.metrics.iter().find(|(n, _)| *n == name) {
            Some(&(_, v)) => v,
            None if absent_is_zero => 0.0,
            None => return Err(format!("workload did not report {name}")),
        };
        if !value.is_finite() {
            return Err(format!("{name} is not finite: {value}"));
        }
        fields.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0 && report.attempted > 0,
        report.attempted,
        report.failed,
        fields.join(", ")
    ))
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let host = host::Host::detect();
    println!(
        "host nproc={} isa={} llc={:.1} MiB workload={} seed={} seconds={} trace={}",
        host.nproc,
        host.isa,
        host.llc_mib(),
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8
    );
    let mut report = match args.workload.as_str() {
        "gmres-cheb" => solve::run(&args, &host),
        "campaign-p100" => campaign::run(&args, &host),
        "served-mix" => served::run(&args, &host),
        _ => unreachable!("validated by Args::parse"),
    };
    if args.trace {
        let (gbps, bytes) = host::triad_gbps(host.llc_bytes);
        report.note(format!(
            "triad: 3 arrays x {:.0} MiB (LLC {:.1} MiB), {gbps:.2} GB/s single-thread",
            bytes as f64 / (1u64 << 20) as f64,
            host.llc_mib()
        ));
        report.metric("host.triad_gbps", gbps);
        report.metric("host.nproc", host.nproc as f64);
        report.metric("host.llc_mib", host.llc_mib());
        // Bandwidth shares against the roofline measured in this run.
        let find = |r: &Report, n: &str| r.metrics.iter().find(|(m, _)| *m == n).map(|m| m.1);
        if let Some(o) = find(&report, "ortho.gbps") {
            report.metric("ortho.bw_frac", o / gbps);
        }
    } else {
        report.metric("peak_rss_mb", host::peak_rss_mb());
    }
    report.note(format!(
        "failed_frac={} ({} of {} operations)",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    ));
    for n in &report.notes {
        println!("{n}");
    }
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    match render(&report, names, args.trace) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Result<Args, String> {
        Args::parse(v.iter().map(|s| s.to_string()))
    }

    #[test]
    fn args_parse_and_reject() {
        let a =
            args(&["--workload", "gmres-cheb", "--seed", "7", "--seconds", "3", "--trace", "1"])
                .expect("valid");
        assert_eq!((a.workload.as_str(), a.seed, a.seconds, a.trace), ("gmres-cheb", 7, 3.0, true));
        assert!(
            args(&["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"]).is_err()
        );
        assert!(args(&["--workload", "gmres-cheb", "--seed", "1", "--seconds", "1"]).is_err());
        assert!(args(&[
            "--workload",
            "gmres-cheb",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0"
        ])
        .is_err());
    }

    /// The metric lists here and in BENCHMARK.json must not drift apart.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let v = sdc_campaigns::json::Json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            v.field(key)
                .and_then(|a| a.as_arr().map(|a| a.to_vec()))
                .expect("metric array")
                .iter()
                .map(|m| {
                    let s = |k: &str| m.field(k).and_then(|x| x.as_str().map(str::to_string));
                    (s("name").expect("name"), s("unit").expect("unit"))
                })
                .collect()
        };
        let want = |l: &[(&str, &str)]| -> Vec<(String, String)> {
            l.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(names("end_to_end"), want(&END_TO_END));
        assert_eq!(names("per_layer"), want(&PER_LAYER));
        let workloads: Vec<String> = v
            .field("workloads")
            .and_then(|a| a.as_arr().map(|a| a.to_vec()))
            .expect("workloads")
            .iter()
            .map(|w| w.field("name").and_then(|n| n.as_str().map(str::to_string)).expect("name"))
            .collect();
        assert_eq!(workloads, WORKLOADS.map(String::from).to_vec());
    }

    #[test]
    fn render_fills_absent_layers_and_rejects_missing_end_to_end() {
        let mut r = Report::default();
        r.check(true, String::new);
        r.metric("sparse.spmv_calls", 3.0);
        let line = render(&r, &PER_LAYER, true).expect("per-layer renders");
        assert!(line.contains("\"sparse.spmv_calls\": {\"value\": 3, \"unit\": \"count\"}"));
        assert!(line.contains("\"ortho.s\": {\"value\": 0, \"unit\": \"s\"}"));
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        assert!(render(&r, &END_TO_END, false).is_err());
    }

    #[test]
    fn rng_is_seeded() {
        let (mut a, mut b, mut c) = (Rng::new(1), Rng::new(1), Rng::new(2));
        let (x, y, z) = (a.next_u64(), b.next_u64(), c.next_u64());
        assert_eq!(x, y);
        assert_ne!(x, z);
        assert!((0..1000).all(|_| a.unit() < 1.0));
    }
}
