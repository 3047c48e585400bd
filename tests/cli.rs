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

    for unknown in ["frobnicate", "transport-worker"] {
        let out = bin().args([unknown]).output().unwrap();
        assert!(!out.status.success(), "`{unknown}` must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown command"), "`{unknown}`: {stderr}");
    }

    let out = bin()
        .args(["kcenter", "--input", "/nonexistent.csv", "--k", "2"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

/// Runs a small k-center job with `var` set to each of `bad` (must abort
/// with stderr naming `var` and the `accepted` values) and each of `good`
/// (must run).
fn env_value_check(var: &str, bad: &[&str], good: &[&str], accepted: &str) {
    let pts = tmp(&format!("{var}-points.csv"));
    bin()
        .args(["gen", "--n", "60", "--seed", "8", "--out"])
        .arg(&pts)
        .status()
        .unwrap();
    let run = |value: &str| {
        bin()
            .args(["kcenter", "--k", "3", "--m", "2", "--input"])
            .arg(&pts)
            .env(var, value)
            .output()
            .unwrap()
    };
    for value in bad {
        let out = run(value);
        assert!(!out.status.success(), "{var}={value} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(var) && stderr.contains(accepted),
            "{var}={value}: {stderr}"
        );
    }
    for value in good {
        assert!(run(value).status.success(), "{var}={value} must run");
    }
}

/// A `KCENTER_SPEED` typo — or a retired tier name from an old script —
/// must abort the run naming the accepted values, never quietly run the
/// default tier.
#[test]
fn unknown_speed_tier_fails_loudly() {
    let bad = ["soa+sketch", "sketch", "fast"];
    env_value_check("KCENTER_SPEED", &bad, &["exact", "soa"], "exact|soa");
}

/// Likewise for `KCENTER_TRANSPORT`: the retired `process` backend and
/// one never built (`tcp`) must abort, never fall back to `sim`.
#[test]
fn unknown_transport_fails_loudly() {
    let (bad, good) = (["process", "tcp"], ["sim", "loopback"]);
    env_value_check("KCENTER_TRANSPORT", &bad, &good, "sim|loopback");
}

/// The engine knob is retired: any value, even a formerly valid one,
/// must abort the run naming the variable and the entry points that
/// choose an engine now, never be ignored.
#[test]
fn retired_engine_knob_fails_loudly() {
    let pts = tmp("engine-points.csv");
    bin()
        .args(["gen", "--n", "60", "--seed", "8", "--out"])
        .arg(&pts)
        .status()
        .unwrap();
    for value in ["allpairs", "grid", "auto", ""] {
        let out = bin()
            .args(["kcenter", "--k", "3", "--m", "2", "--input"])
            .arg(&pts)
            .env("KCENTER_ENGINE", value)
            .output()
            .unwrap();
        assert!(!out.status.success(), "KCENTER_ENGINE={value:?} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        for needle in [
            "KCENTER_ENGINE",
            "retired",
            "mpc_kcenter ",
            "mpc_kcenter_grid",
        ] {
            assert!(stderr.contains(needle), "{value:?}: {needle:?} in {stderr}");
        }
    }
}

/// The CLI's tier and transport settings move cycles and bytes, never
/// answers: every command's CSV output is byte-identical at every
/// `KCENTER_SPEED` × `KCENTER_TRANSPORT` combination. The points have 16
/// dimensions, so the `soa` tier runs its f32 kernels.
#[test]
fn outputs_match_across_tiers_and_transports() {
    let pts = tmp("knob-points.csv");
    let gen = bin()
        .args(["gen", "--n", "300", "--dim", "16", "--clusters", "6"])
        .args(["--sigma", "0.1", "--seed", "4", "--out"])
        .arg(&pts)
        .status()
        .unwrap();
    assert!(gen.success());
    let commands: [&[&str]; 3] = [
        &["kcenter", "--k", "6", "--m", "4"],
        &["diversity", "--k", "6", "--m", "4"],
        &[
            "ksupplier",
            "--k",
            "4",
            "--m",
            "4",
            "--suppliers-from",
            "200",
        ],
    ];
    for args in commands {
        let run = |speed: &str, transport: &str| {
            let out = bin()
                .args(args)
                .arg("--input")
                .arg(&pts)
                .env("KCENTER_SPEED", speed)
                .env("KCENTER_TRANSPORT", transport)
                .output()
                .unwrap();
            assert!(
                out.status.success(),
                "{args:?} at {speed}/{transport}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            out.stdout
        };
        let reference = run("soa", "sim");
        assert!(reference.starts_with(b"id,x0,"), "{args:?}: no CSV output");
        for (speed, transport) in [("exact", "sim"), ("soa", "loopback"), ("exact", "loopback")] {
            assert!(
                run(speed, transport) == reference,
                "{args:?}: output at {speed}/{transport} differs from soa/sim"
            );
        }
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
