//! `repro` argument handling, driven through the real binary.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().expect("repro runs")
}

#[test]
fn unknown_options_and_stray_arguments_exit_2_with_usage() {
    for args in [
        &["limits", "--no-such-flag"][..],
        &["limits", "--progress"],
        &["limits", "--metrics-out", "x"],
        &["limits", "extra"],
        &["fig17", "200", "--iters"],
        &["--no-such-flag"],
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "repro {args:?} must exit 2");
        assert!(out.stdout.is_empty(), "repro {args:?} must not run a report");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("Usage: repro"), "repro {args:?} prints the usage: {stderr}");
    }
}

#[test]
fn missing_flag_values_exit_2() {
    for args in [&["limits", "--manifest"][..], &["limits", "--iters", "--full"]] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "repro {args:?} must exit 2");
        assert!(out.stdout.is_empty(), "repro {args:?} must not run a report");
    }
}

#[test]
fn known_flags_still_run_the_command() {
    let out = repro(&["limits", "--jobs", "1"]);
    assert!(out.status.success(), "repro limits --jobs 1 exits 0");
    assert!(!out.stdout.is_empty(), "the report is printed");
    assert!(out.stderr.is_empty(), "a plain run writes nothing to stderr");
    let help = repro(&["--help"]);
    assert!(help.status.success());
    assert!(String::from_utf8_lossy(&help.stdout).contains("Usage: repro"));
}
