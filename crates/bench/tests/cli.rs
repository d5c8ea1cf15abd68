//! The bench binaries' command line: a reader that goes away early
//! (`traversal_bench --smoke | head -1`) must end them with status 0 and
//! no panic, and a bare flag a binary does not read must stop it with
//! status 2 instead of being ignored.
//!
//! A closed stdout is the write end of a pipe whose read end is already
//! closed, so the first write fails with a broken pipe however fast or
//! slow the child starts.

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

fn work_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kdtune-bench-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run(bin: &str, args: &[&str], stdout: Stdio) -> Output {
    Command::new(bin)
        .args(args)
        .stdout(stdout)
        .stderr(Stdio::piped())
        .output()
        .expect("spawn bench binary")
}

#[test]
fn closed_stdout_ends_bench_binaries_quietly() {
    let dir = work_dir("stdout");
    let out = dir.display().to_string();
    let runs = [
        (
            env!("CARGO_BIN_EXE_traversal_bench"),
            vec!["--smoke", "--out", &out],
        ),
        (env!("CARGO_BIN_EXE_scene_gallery"), vec!["--out", &out]),
    ];
    for (bin, args) in &runs {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let done = run(bin, args, writer.into());
        let stderr = String::from_utf8_lossy(&done.stderr);
        assert!(
            done.status.success() && !stderr.contains("panicked"),
            "{bin} {args:?}: {:?}\n{stderr}",
            done.status
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_bare_flag_exits_with_usage() {
    let done = run(
        env!("CARGO_BIN_EXE_scene_gallery"),
        &["--packets"],
        Stdio::null(),
    );
    let stderr = String::from_utf8_lossy(&done.stderr);
    assert_eq!(done.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("unknown flag --packets"), "{stderr}");
    assert!(stderr.contains("options:"), "{stderr}");
}
