//! `kdtune` output to a closed stdout: a reader that goes away early
//! (`kdtune render bunny | head -1`) must end every subcommand with
//! status 0 and no panic.
//!
//! Each child gets the write end of a pipe whose read end is already
//! closed, so its first write to stdout fails with a broken pipe however
//! fast or slow the child starts.

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

fn work_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kdtune-cli-stdout-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `kdtune` with the whitespace-separated `args`.
fn kdtune(args: &str, stdout: Stdio) -> Output {
    Command::new(env!("CARGO_BIN_EXE_kdtune"))
        .args(args.split_whitespace())
        .stdout(stdout)
        .stderr(Stdio::piped())
        .output()
        .expect("spawn kdtune")
}

/// Runs `kdtune args` with a stdout nobody reads.
fn with_closed_stdout(args: &str) -> Output {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    kdtune(args, writer.into())
}

#[test]
fn closed_stdout_ends_every_subcommand_quietly() {
    let dir = work_dir();
    let file = |name: &str| dir.join(name).display().to_string();
    let trace = file("tune.jsonl");
    let tune = "tune wood_doll --scale tiny --res 8 --frames 2";
    let made_trace = kdtune(&format!("{tune} --trace {trace}"), Stdio::null());
    assert!(made_trace.status.success(), "{made_trace:?}");

    let runs = [
        String::new(),
        "scenes --scale tiny".into(),
        format!(
            "render wood_doll --scale tiny --res 8 --out {}",
            file("frame.ppm")
        ),
        "stats wood_doll --scale tiny".into(),
        tune.into(),
        format!("report {trace}"),
        "select wood_doll --scale tiny --res 8 --frames 1".into(),
        format!("export wood_doll {} --scale tiny", file("mesh.obj")),
        format!("cache wood_doll {} --scale tiny", file("tree.kdt")),
        "serve --help".into(),
        "route --help".into(),
        "loadgen --help".into(),
        "top --help".into(),
        "metrics --help".into(),
    ];
    for args in &runs {
        let out = with_closed_stdout(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            out.status.success() && !stderr.contains("panicked"),
            "kdtune {args}: {:?}\n{stderr}",
            out.status
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
