//! Usage errors of the `jockey-cli` binary: a bad flag value is
//! reported as `error: ...` with exit code 1, never as a panic.

use std::process::Command;

/// Runs `jockey-cli <args>` and asserts a clean usage error that names
/// `flag`. Flag values are checked before any file is read, so the
/// bundle and script paths need not exist.
fn assert_usage_error(args: &[&str], flag: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_jockey-cli"))
        .args(args)
        .output()
        .expect("jockey-cli starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(1),
        "{args:?}: expected a usage error; stderr:\n{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    // The usage text that follows names every flag; the error line
    // itself must name the bad one, and not as a missing flag.
    let error = stderr.lines().next().unwrap_or_default();
    assert!(error.starts_with("error: "), "{args:?}: {stderr}");
    assert!(
        error.contains(&format!("flag {flag} ")),
        "{args:?}: {error}"
    );
    assert!(!error.contains("missing"), "{args:?}: {error}");
}

/// Runs `jockey-cli service --speculation 2 --tail-factor <value>` and
/// asserts a clean usage error.
fn assert_tail_factor_rejected(value: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_jockey-cli"))
        .args(["service", "--speculation", "2", "--tail-factor", value])
        .output()
        .expect("jockey-cli starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(1),
        "--tail-factor {value}: expected a usage error; stderr:\n{stderr}"
    );
    assert!(stderr.contains("tail-factor"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn service_rejects_a_negative_tail_factor() {
    assert_tail_factor_rejected("-1");
}

#[test]
fn service_rejects_a_nan_tail_factor() {
    assert_tail_factor_rejected("nan");
}

#[test]
fn run_rejects_a_nan_deadline() {
    assert_usage_error(&["run", "none.job", "--deadline", "nan"], "--deadline");
}

#[test]
fn run_rejects_a_negative_deadline() {
    assert_usage_error(&["run", "none.job", "--deadline", "-3"], "--deadline");
}

#[test]
fn run_rejects_a_nan_util() {
    assert_usage_error(
        &["run", "none.job", "--deadline", "10", "--util", "nan"],
        "--util",
    );
}

#[test]
fn run_rejects_a_util_above_one() {
    assert_usage_error(
        &["run", "none.job", "--deadline", "10", "--util", "1.5"],
        "--util",
    );
}

#[test]
fn profile_rejects_zero_tokens() {
    assert_usage_error(
        &["profile", "none.scope", "-o", "none.job", "--tokens", "0"],
        "--tokens",
    );
}

#[test]
fn feasible_rejects_a_nan_deadline() {
    assert_usage_error(&["feasible", "none.job", "--deadline", "nan"], "--deadline");
}

#[test]
fn predict_rejects_progress_above_one() {
    assert_usage_error(&["predict", "none.job", "-a", "4", "-p", "2"], "-p");
}

#[test]
fn predict_rejects_a_nan_progress() {
    assert_usage_error(&["predict", "none.job", "-a", "4", "-p", "nan"], "-p");
}

#[test]
fn predict_rejects_zero_tokens() {
    assert_usage_error(&["predict", "none.job", "-a", "0"], "-a");
}

/// Writes `script` to a file, runs `jockey-cli <command> <file> <rest>`
/// and asserts a clean error that names `keyword`.
fn assert_script_rejected(command: &str, rest: &[&str], script: &str, keyword: &str) {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let path = dir.join(format!("cli-errors-{keyword}.scope"));
    std::fs::write(&path, script).expect("script written");
    let out = Command::new(env!("CARGO_BIN_EXE_jockey-cli"))
        .arg(command)
        .arg(&path)
        .args(rest)
        .output()
        .expect("jockey-cli starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(1),
        "{command} {script:?}: expected an error; stderr:\n{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
    let error = stderr.lines().next().unwrap_or_default();
    assert!(error.starts_with("error: "), "{stderr}");
    assert!(error.contains(keyword), "{error}");
}

#[test]
fn compile_rejects_partitions_beyond_u32() {
    assert_script_rejected(
        "compile",
        &[],
        "a = EXTRACT FROM \"f\" PARTITIONS 4294967300;\nOUTPUT a TO \"o\";\n",
        "PARTITIONS",
    );
}

#[test]
fn profile_rejects_a_zero_cost() {
    let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli-errors-cost.job");
    assert_script_rejected(
        "profile",
        &["-o", out.to_str().expect("utf-8 path"), "--tokens", "4"],
        "a = EXTRACT FROM \"f\" PARTITIONS 4 COST 0;\nOUTPUT a TO \"o\";\n",
        "COST",
    );
    assert!(!out.exists(), "a rejected script must not write a bundle");
}

/// Runs `jockey-cli profile` on a one-stage script whose `COST` is
/// `10^exponent` written out in full (the parser takes no exponent
/// form) and asserts a clean error naming `keyword`.
fn assert_huge_cost_rejected(exponent: usize, keyword: &str) {
    let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("cli-errors-cost-1e{exponent}.job"));
    let cost = format!("1{}.0", "0".repeat(exponent));
    assert_script_rejected(
        "profile",
        &["-o", out.to_str().expect("utf-8 path"), "--tokens", "4"],
        &format!("a = EXTRACT FROM \"f\" PARTITIONS 4 COST {cost};\nOUTPUT a TO \"o\";\n"),
        keyword,
    );
    assert!(!out.exists(), "a rejected script must not write a bundle");
}

#[test]
fn profile_rejects_a_cost_that_overflows_the_runtime_model() {
    assert_huge_cost_rejected(308, "overflows");
}

#[test]
fn profile_rejects_a_cost_whose_training_run_cannot_finish() {
    assert_huge_cost_rejected(279, "did not finish");
}
