//! End-to-end tests of the `mpc-clustering` CLI binary: generate a
//! dataset, run each subcommand, and check outputs and exit codes.

use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mpc-clustering"))
}

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("mpc-clustering-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn gen_then_kcenter_round_trip() {
    let pts = tmp("kc-points.csv");
    let out = bin()
        .args([
            "gen",
            "--n",
            "120",
            "--clusters",
            "4",
            "--seed",
            "3",
            "--out",
        ])
        .arg(&pts)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&pts).unwrap();
    assert_eq!(text.lines().count(), 120);

    let out = bin()
        .args(["kcenter", "--k", "4", "--m", "4", "--input"])
        .arg(&pts)
        .output()
        .unwrap();
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("k-center radius"),
        "missing summary: {stderr}"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.lines().count(), 5, "header + 4 centers: {stdout}");
    assert!(stdout.starts_with("id,x0,x1"));
}

#[test]
fn diversity_and_ksupplier_run() {
    let pts = tmp("div-points.csv");
    bin()
        .args(["gen", "--n", "80", "--seed", "5", "--out"])
        .arg(&pts)
        .status()
        .unwrap();

    let out = bin()
        .args(["diversity", "--k", "5", "--m", "2", "--input"])
        .arg(&pts)
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("k-diversity"));

    let out = bin()
        .args([
            "ksupplier",
            "--k",
            "3",
            "--m",
            "2",
            "--suppliers-from",
            "60",
            "--input",
        ])
        .arg(&pts)
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    // Every returned supplier id must come from the supplier range.
    for line in stdout.lines().skip(1) {
        let id: u32 = line.split(',').next().unwrap().parse().unwrap();
        assert!((60..80).contains(&id), "id {id} is not a supplier");
    }
}

#[test]
fn bad_invocations_fail_cleanly() {
    let out = bin().args(["kcenter", "--k", "4"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--input"));

    let out = bin().args(["frobnicate"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));

    let out = bin()
        .args(["kcenter", "--input", "/nonexistent.csv", "--k", "2"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

/// A `KCENTER_SPEED` typo — or a retired tier name from an old script —
/// must abort the run naming the accepted values, never quietly run the
/// default tier.
#[test]
fn unknown_speed_tier_fails_loudly() {
    let pts = tmp("speed-points.csv");
    bin()
        .args(["gen", "--n", "60", "--seed", "8", "--out"])
        .arg(&pts)
        .status()
        .unwrap();
    for bad in ["soa+sketch", "sketch", "fast"] {
        let out = bin()
            .args(["kcenter", "--k", "3", "--m", "2", "--input"])
            .arg(&pts)
            .env("KCENTER_SPEED", bad)
            .output()
            .unwrap();
        assert!(!out.status.success(), "KCENTER_SPEED={bad} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("KCENTER_SPEED") && stderr.contains("exact|soa"),
            "KCENTER_SPEED={bad}: {stderr}"
        );
    }
    for good in ["exact", "soa"] {
        let out = bin()
            .args(["kcenter", "--k", "3", "--m", "2", "--input"])
            .arg(&pts)
            .env("KCENTER_SPEED", good)
            .output()
            .unwrap();
        assert!(out.status.success(), "KCENTER_SPEED={good} must run");
    }
}

#[test]
fn help_prints_usage() {
    let out = bin().arg("--help").output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("USAGE"));
    assert!(stdout.contains("kcenter"));
    assert!(stdout.contains("ksupplier"));
}

#[test]
fn deterministic_across_invocations() {
    let pts = tmp("det-points.csv");
    bin()
        .args(["gen", "--n", "100", "--clusters", "3", "--out"])
        .arg(&pts)
        .status()
        .unwrap();
    let run = || {
        bin()
            .args(["kcenter", "--k", "3", "--seed", "9", "--input"])
            .arg(&pts)
            .output()
            .unwrap()
            .stdout
    };
    assert_eq!(run(), run());
}
