//! Usage errors of the `jockey-cli` binary: a bad flag value is
//! reported as `error: ...` with exit code 1, never as a panic.

use std::process::Command;

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
