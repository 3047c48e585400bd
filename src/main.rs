//! `mpc-clustering` — run the SPAA 2023 MPC clustering algorithms on CSV
//! point files from the command line.
//!
//! ```text
//! mpc-clustering gen       --n 1000 --clusters 8 --out points.csv
//! mpc-clustering kcenter   --input points.csv --k 8 [--m 8] [--epsilon 0.1] [--seed 0] [--out centers.csv]
//! mpc-clustering diversity --input points.csv --k 8 [...]
//! mpc-clustering ksupplier --input points.csv --suppliers-from 800 --k 8 [...]
//! ```
//!
//! `KCENTER_SPEED=exact|soa` picks the speed tier of the Euclidean
//! kernels and `KCENTER_TRANSPORT=sim|loopback` the cluster transport;
//! both are read once at start, and the output is byte-identical under
//! every combination.

use std::process::ExitCode;

use mpc_clustering::cli::{
    parse_args, parse_points_csv, points_to_csv, pointset_to_csv, CliCommand,
};
use mpc_clustering::core::{diversity, kcenter, ksupplier, Params};
use mpc_clustering::metric::{datasets, EuclideanSpace, PointId, PointSet, SpeedTier};
use mpc_clustering::sim::{Cluster, TransportKind};

const HELP: &str = "\
mpc-clustering — (2+eps) k-center / k-diversity and (3+eps) k-supplier in the MPC model

USAGE:
  mpc-clustering <command> [--flag value]...

COMMANDS:
  gen        generate a synthetic CSV dataset
             --n <int> [--dim 2] [--clusters 1] [--sigma 0.02] [--seed 0] [--out FILE]
  kcenter    (2+eps)-approximate k-center
             --input FILE --k <int> [--m 8] [--epsilon 0.1] [--seed 0] [--out FILE]
  diversity  (2+eps)-approximate k-diversity maximization
             (same flags as kcenter)
  ksupplier  (3+eps)-approximate k-supplier; rows from --suppliers-from on are suppliers
             --input FILE --k <int> --suppliers-from <row> [--m 8] [--epsilon 0.1] [--seed 0]

ENVIRONMENT:
  KCENTER_SPEED      exact|soa: distance-kernel speed tier (default soa)
  KCENTER_TRANSPORT  sim|loopback: how collectives move data (default sim)
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args[0] == "--help" || args[0] == "help" {
        print!("{HELP}");
        return ExitCode::SUCCESS;
    }
    match run(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The speed tier and transport the environment selects. The retired
/// `KCENTER_ENGINE` is refused rather than ignored, so a script that
/// still sets it learns that it no longer picks anything.
///
/// # Panics
/// On a `KCENTER_SPEED` or `KCENTER_TRANSPORT` value outside the ones
/// their parsers accept.
fn read_env() -> Result<(SpeedTier, TransportKind), Box<dyn std::error::Error>> {
    if std::env::var_os("KCENTER_ENGINE").is_some() {
        return Err("KCENTER_ENGINE is retired and selects nothing; unset it. \
                    Library callers choose the k-center engine by entry point: \
                    mpc_kcenter (all-pairs) or mpc_kcenter_grid (grid)"
            .into());
    }
    Ok((SpeedTier::from_env(), TransportKind::from_env()))
}

fn load_points(cmd: &CliCommand) -> Result<PointSet, Box<dyn std::error::Error>> {
    let path: String = cmd.required("input", "path")?;
    let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Ok(parse_points_csv(&text)?)
}

fn params_from(cmd: &CliCommand) -> Result<Params, Box<dyn std::error::Error>> {
    let m: usize = cmd.optional("m", 8, "integer")?;
    let epsilon: f64 = cmd.optional("epsilon", 0.1, "number")?;
    let seed: u64 = cmd.optional("seed", 0, "integer")?;
    Ok(Params::practical(m.max(1), epsilon, seed))
}

fn emit(
    cmd: &CliCommand,
    points: &PointSet,
    ids: &[PointId],
) -> Result<(), Box<dyn std::error::Error>> {
    let csv = points_to_csv(points, ids);
    match cmd.options.get("out") {
        Some(path) => {
            std::fs::write(path, csv)?;
            println!("wrote {} rows to {path}", ids.len());
        }
        None => print!("{csv}"),
    }
    Ok(())
}

fn run(args: Vec<String>) -> Result<(), Box<dyn std::error::Error>> {
    let (tier, transport) = read_env()?;
    let cmd = parse_args(args)?;
    match cmd.command.as_str() {
        "gen" => {
            let n: usize = cmd.required("n", "integer")?;
            let dim: usize = cmd.optional("dim", 2, "integer")?;
            let clusters: usize = cmd.optional("clusters", 1, "integer")?;
            let sigma: f64 = cmd.optional("sigma", 0.02, "number")?;
            let seed: u64 = cmd.optional("seed", 0, "integer")?;
            let ps = if clusters <= 1 {
                datasets::uniform_cube(n, dim, seed)
            } else {
                datasets::gaussian_clusters(n, dim, clusters, sigma, seed)
            };
            let csv = pointset_to_csv(&ps);
            match cmd.options.get("out") {
                Some(path) => {
                    std::fs::write(path, csv)?;
                    println!("wrote {n} points to {path}");
                }
                None => print!("{csv}"),
            }
        }
        "kcenter" => {
            let points = load_points(&cmd)?;
            let k: usize = cmd.required("k", "integer")?;
            let params = params_from(&cmd)?;
            let metric = EuclideanSpace::new(points).with_speed_tier(tier);
            let mut cluster = Cluster::with_transport(params.m, params.seed, transport);
            let res = kcenter::mpc_kcenter_on(&mut cluster, &metric, k, &params);
            eprintln!(
                "k-center radius {:.6} | {} rounds | {} words max/machine",
                res.radius, res.telemetry.rounds, res.telemetry.max_machine_words
            );
            emit(&cmd, metric.points(), &res.centers)?;
        }
        "diversity" => {
            let points = load_points(&cmd)?;
            let k: usize = cmd.required("k", "integer")?;
            let params = params_from(&cmd)?;
            let metric = EuclideanSpace::new(points).with_speed_tier(tier);
            let mut cluster = Cluster::with_transport(params.m, params.seed, transport);
            let res = diversity::mpc_diversity_on(&mut cluster, &metric, k, &params);
            eprintln!(
                "k-diversity {:.6} | {} rounds | {} words max/machine",
                res.diversity, res.telemetry.rounds, res.telemetry.max_machine_words
            );
            emit(&cmd, metric.points(), &res.subset)?;
        }
        "ksupplier" => {
            let points = load_points(&cmd)?;
            let k: usize = cmd.required("k", "integer")?;
            let split: usize = cmd.required("suppliers-from", "row index")?;
            if split == 0 || split >= points.len() {
                return Err(format!(
                    "--suppliers-from must split the {} rows into non-empty halves",
                    points.len()
                )
                .into());
            }
            let params = params_from(&cmd)?;
            let customers: Vec<u32> = (0..split as u32).collect();
            let suppliers: Vec<u32> = (split as u32..points.len() as u32).collect();
            let metric = EuclideanSpace::new(points).with_speed_tier(tier);
            let mut cluster = Cluster::with_transport(params.m, params.seed, transport);
            let res = ksupplier::mpc_ksupplier_on(
                &mut cluster,
                &metric,
                &customers,
                &suppliers,
                k,
                &params,
            );
            eprintln!(
                "k-supplier radius {:.6} | {} rounds | {} words max/machine",
                res.radius, res.telemetry.rounds, res.telemetry.max_machine_words
            );
            emit(&cmd, metric.points(), &res.suppliers)?;
        }
        other => return Err(format!("unknown command {other:?}; try --help").into()),
    }
    Ok(())
}
