//! The `experiments` binary's argument parser: a flag value that would
//! run nothing, and an experiment or flag the binary does not have,
//! exit with code 2 and a message instead of a vacuous success.

use std::process::{Command, Output};

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("the experiments binary runs")
}

fn assert_usage_error(args: &[&str], message: &str) {
    let out = experiments(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2; stderr: {stderr}");
    assert!(stderr.contains(message), "{args:?}: stderr lacks `{message}`: {stderr}");
}

#[test]
fn zero_cases_is_rejected() {
    assert_usage_error(&["--exp", "validate", "--cases", "0"], "--cases must be >= 1");
}

#[test]
fn zero_reps_is_rejected() {
    assert_usage_error(&["--exp", "tab1", "--reps", "0"], "--reps must be >= 1");
}

#[test]
fn shards_takes_one_integer() {
    assert_usage_error(&["--exp", "tab1", "--shards", "1,4"], "invalid --shards value `1,4`");
    assert_usage_error(&["--exp", "tab1", "--shards", "0"], "--shards must be >= 1");
}

#[test]
fn retired_experiment_and_flag_are_unknown() {
    assert_usage_error(&["--exp", "throughput"], "unknown experiment `throughput`");
    assert_usage_error(&["--exp", "tab1", "--baseline", "x"], "unknown argument `--baseline`");
}

#[test]
fn valid_arguments_run() {
    let out = experiments(&["--exp", "tab1", "--reps", "1", "--shards", "2"]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("== tab1"));
}

#[test]
fn list_names_no_retired_experiment() {
    let out = experiments(&["--list"]);
    assert!(out.status.success());
    let listed = String::from_utf8_lossy(&out.stdout);
    assert!(listed.lines().any(|name| name == "planet"), "{listed}");
    for retired in ["throughput", "trajectory"] {
        assert!(!listed.contains(retired), "--list still names {retired}");
    }
}
