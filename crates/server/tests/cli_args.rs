//! `kdtune`'s classic subcommands reject an option they do not read:
//! the usage goes to stderr and the exit status is 2, as for an option
//! missing its value.

use std::process::{Command, Output};

fn kdtune(args: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_kdtune"))
        .args(args.split_whitespace())
        .output()
        .expect("spawn kdtune")
}

/// Asserts `kdtune args` exits 2 with the usage, having rendered
/// nothing: a regression writes its frame to the temp dir, not here.
fn assert_usage_error(args: &str) {
    let frame = std::env::temp_dir().join(format!("kdtune-cli-args-{}.ppm", std::process::id()));
    let args = format!("--out {} {args}", frame.display());
    let out = kdtune(&args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "kdtune {args}: {stderr}");
    assert!(stderr.contains("USAGE:"), "kdtune {args}: {stderr}");
    assert!(out.stdout.is_empty(), "kdtune {args} rendered anyway");
}

#[test]
fn misspelled_option_is_a_usage_error() {
    assert_usage_error("render bunny --scale tiny --res 8 --pakcet-width 8");
}

#[test]
fn retired_bare_flag_does_not_swallow_the_next_option() {
    assert_usage_error("render bunny --packets --scale tiny --res 8");
}

#[test]
fn option_without_value_is_a_usage_error() {
    assert_usage_error("render bunny --res");
}
