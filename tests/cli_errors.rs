//! Usage errors of the `jockey-cli` binary: a bad flag value, script
//! or bundle is reported as `error: ...` with exit code 1, never as a
//! panic.

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

/// Profiles a small script into a bundle, sets the bundle's `key` line
/// to `value`, and asserts that `train` and `run` both refuse the
/// bundle with a clean error naming its profile section.
fn assert_bundle_rejected(name: &str, key: &str, value: &str) {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let script = dir.join(format!("cli-errors-bundle-{name}.scope"));
    let bundle = dir.join(format!("cli-errors-bundle-{name}.job"));
    std::fs::write(
        &script,
        "a = EXTRACT FROM \"f\" PARTITIONS 4;\nr = REDUCE a ON \"k\" PARTITIONS 2;\nOUTPUT r TO \"o\";\n",
    )
    .expect("script written");
    let profiled = Command::new(env!("CARGO_BIN_EXE_jockey-cli"))
        .arg("profile")
        .arg(&script)
        .arg("-o")
        .arg(&bundle)
        .args(["--tokens", "4"])
        .output()
        .expect("jockey-cli starts");
    assert!(profiled.status.success(), "profile failed: {profiled:?}");
    let text = std::fs::read_to_string(&bundle).expect("bundle written");
    let prefix = format!("{key}=");
    assert!(
        text.lines().any(|l| l.starts_with(&prefix)),
        "no {key} line"
    );
    let edited: String = text
        .lines()
        .map(|l| {
            if l.starts_with(&prefix) {
                format!("{prefix}{value}\n")
            } else {
                format!("{l}\n")
            }
        })
        .collect();
    std::fs::write(&bundle, edited).expect("bundle edited");
    for (command, rest) in [("train", &[][..]), ("run", &["--deadline", "10"][..])] {
        let out = Command::new(env!("CARGO_BIN_EXE_jockey-cli"))
            .arg(command)
            .arg(&bundle)
            .args(rest)
            .output()
            .expect("jockey-cli starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(1),
            "{command} with {key}={value}: expected an error; stderr:\n{stderr}"
        );
        assert!(!stderr.contains("panicked"), "{stderr}");
        let error = stderr.lines().next().unwrap_or_default();
        assert!(error.starts_with("error: "), "{stderr}");
        assert!(error.contains("profile section"), "{error}");
    }
}

#[test]
fn bundle_rejects_a_stage_count_mismatch() {
    assert_bundle_rejected("stage-count", "profile.stages", "1");
}

#[test]
fn bundle_rejects_a_nan_runtime() {
    assert_bundle_rejected("nan-runtime", "profile.stage.0.runtimes", "NaN,1");
}

#[test]
fn bundle_rejects_a_negative_runtime() {
    assert_bundle_rejected("negative-runtime", "profile.stage.0.runtimes", "-5,1");
}

#[test]
fn bundle_rejects_an_infinite_queue_time() {
    assert_bundle_rejected("inf-queue", "profile.stage.1.queue_times", "inf,1");
}

#[test]
fn bundle_rejects_an_empty_runtimes_list() {
    assert_bundle_rejected("empty-runtimes", "profile.stage.0.runtimes", "");
}

#[test]
fn bundle_rejects_a_failure_probability_above_one() {
    assert_bundle_rejected("failure-prob", "profile.task_failure_prob", "2");
}
