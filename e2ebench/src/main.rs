//! End-to-end benchmark of the MPC k-center / diversity pipelines and the
//! serving index. See README.md in this directory for the workloads.
//!
//! ```text
//! e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1> --repeat <runs>
//! ```
//!
//! A run prints a configuration stamp and, as its last line, one JSON
//! object: `correct`, `attempted`, `failed`, and the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`). `--repeat N`
//! re-runs the workload N times as child processes with seeds
//! `seed, seed+1, …` and prints each metric's median, quartiles and
//! spread.

mod batch;
mod calibrate;
mod report;
mod serving;
mod trace;

use std::process::{Command, ExitCode};

use report::{median, parse_result, quartiles, END_TO_END, PER_LAYER};

enum Workload {
    Batch(batch::Shape),
    Serving(serving::Shape),
}

/// The benchmark's workloads, by name. README.md says why each exists.
fn workload(name: &str) -> Option<Workload> {
    use batch::{Algo, Shape};
    Some(match name {
        "kcenter-allpairs-d32" => Workload::Batch(Shape {
            algo: Algo::KCenter,
            n: 10_000,
            dim: 32,
            k: 32,
            m: 8,
            clusters: 32,
            sigma: 0.03,
            drift: 1e-3,
            instances: 3,
        }),
        "kcenter-grid-d4" => Workload::Batch(Shape {
            algo: Algo::KCenterGrid,
            n: 250_000,
            dim: 4,
            k: 64,
            m: 32,
            clusters: 64,
            sigma: 0.02,
            drift: 1e-4,
            instances: 4,
        }),
        "diversity-loopback-d16" => Workload::Batch(Shape {
            algo: Algo::Diversity,
            n: 10_000,
            dim: 16,
            k: 16,
            m: 8,
            clusters: 16,
            sigma: 0.03,
            drift: 1e-3,
            instances: 4,
        }),
        "serving-replay-d16" => Workload::Serving(serving::Shape {
            dim: 16,
            shards: 8,
            coreset_k: 16,
            n: 24_000,
            burst: 2_000,
            clusters: 12,
            sigma: 0.02,
            drift: 1e-4,
            instances: 4,
        }),
        _ => return None,
    })
}

const WORKLOADS: &[&str] = &[
    "kcenter-allpairs-d32",
    "kcenter-grid-d4",
    "diversity-loopback-d16",
    "serving-replay-d16",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut repeat) =
        (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--repeat" => repeat = Some(value.parse().map_err(|_| bad())?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|s| *s > 0.0)
            .ok_or("--seconds must be positive")?,
        trace: trace.ok_or("--trace is required")?,
        repeat,
    })
}

/// The library reads `KCENTER_*` variables to pick tiers, engines,
/// transports and thread counts; the benchmark selects every non-default
/// path explicitly instead, so any such variable is refused.
fn refuse_env_knobs() -> Result<(), String> {
    let set: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("KCENTER_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "unset {} first: the benchmark runs the library defaults",
            set.join(", ")
        ))
    }
}

fn stamp(name: &str, w: &Workload, args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = rayon::with_threads(1, rayon::current_num_threads);
    let tier = mpc_metric::SpeedTier::from_env().name();
    let shape = match w {
        Workload::Batch(s) => format!(
            "n={} dim={} k={} m={} epsilon={} engine={} transport={}",
            s.n,
            s.dim,
            s.k,
            s.m,
            batch::EPSILON,
            s.engine(),
            s.transport().name()
        ),
        Workload::Serving(s) => format!(
            "stream={} burst={} dim={} shards={} coreset_k={} engine={} transport=sim",
            s.n,
            s.burst,
            s.dim,
            s.shards,
            s.coreset_k,
            mpc_core::KCenterEngine::from_env(s.dim).name()
        ),
    };
    format!(
        "# config workload={name} seed={} seconds={} trace={} tier={tier} threads={threads} nproc={nproc} {shape}",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    )
}

fn run_once(args: &Args, w: &Workload) {
    println!("{}", stamp(&args.workload, w, args));
    let report = rayon::with_threads(1, || match w {
        Workload::Batch(s) => batch::run(s, args.seed, args.seconds, args.trace),
        Workload::Serving(s) => serving::run(s, args.seed, args.seconds, args.trace),
    });
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    println!("{}", report.json(table));
}

/// Runs the workload `runs` times in child processes and prints each
/// metric's median, quartiles and spread ((q3 − q1) / median).
fn repeat(args: &Args, runs: usize) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut samples: Vec<(String, Vec<f64>)> = Vec::new();
    let mut failed = 0;
    for i in 0..runs {
        let seed = args.seed + i as u64;
        let out = Command::new(&exe)
            .args(["--workload", &args.workload])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output()
            .map_err(|e| e.to_string())?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().last().unwrap_or_default();
        let (correct, f, metrics) =
            parse_result(last).ok_or(format!("run {i} (seed {seed}) printed no result"))?;
        if !correct {
            eprintln!("run {i} (seed {seed}) was incorrect");
        }
        failed += f;
        println!("seed {seed}: {last}");
        for (name, v) in metrics {
            match samples.iter_mut().find(|(n, _)| *n == name) {
                Some((_, xs)) => xs.push(v),
                None => samples.push((name, vec![v])),
            }
        }
    }
    println!(
        "{:<36} {:>14} {:>14} {:>14} {:>8}",
        "metric", "median", "q1", "q3", "spread"
    );
    for (name, xs) in &samples {
        let med = median(xs);
        let (q1, q3) = if xs.len() >= 2 {
            quartiles(xs)
        } else {
            (med, med)
        };
        let spread = if med != 0.0 {
            (q3 - q1) / med.abs()
        } else {
            0.0
        };
        println!("{name:<36} {med:>14.6} {q1:>14.6} {q3:>14.6} {spread:>8.4}");
    }
    println!("failed operations across runs: {failed}");
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args().and_then(|a| refuse_env_knobs().map(|()| a)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!("usage: e2ebench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--repeat <runs>]", WORKLOADS.join("|"));
            return ExitCode::from(2);
        }
    };
    let Some(w) = workload(&args.workload) else {
        eprintln!(
            "e2ebench: unknown workload {:?}; expected one of {}",
            args.workload,
            WORKLOADS.join(", ")
        );
        return ExitCode::from(2);
    };
    match args.repeat {
        Some(runs) => match repeat(&args, runs) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("e2ebench: {e}");
                ExitCode::FAILURE
            }
        },
        None => {
            run_once(&args, &w);
            ExitCode::SUCCESS
        }
    }
}
