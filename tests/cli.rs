//! The `hopper` binary's argument surface: every spec key is a flag,
//! the flag and `key=value` forms of a run agree byte for byte, the two
//! aliases work, and bad command lines exit with code 2.

use hopper::experiment::{ExperimentSpec, KEYS};
use std::process::{Command, Output};

fn hopper(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hopper"))
        .args(args)
        .output()
        .expect("run the hopper binary")
}

/// Stdout of a run that must succeed.
fn stdout(args: &[&str]) -> String {
    let out = hopper(args);
    assert!(
        out.status.success(),
        "hopper {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

/// A small decentral run, so each test runs in well under a second.
const SMALL: [&str; 3] = ["jobs=6", "machines=20", "util=0.6"];

/// Every key of the table, given as its derived `--key-name V` flag with
/// the decentral default value, is accepted and changes nothing.
#[test]
fn every_key_is_accepted_as_a_derived_flag() {
    let defaults = ExperimentSpec::decentral().render();
    let mut args: Vec<String> = vec!["decentral".into()];
    for line in defaults.lines() {
        let (key, value) = line.split_once('=').unwrap();
        args.push(format!("--{}", key.replace('_', "-")));
        args.push(value.into());
    }
    assert_eq!(args.len(), 1 + 2 * KEYS.len());
    args.extend(SMALL.map(String::from));
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let plain = [&["decentral"][..], &SMALL].concat();
    assert_eq!(stdout(&args), stdout(&plain));
}

#[test]
fn flag_and_key_value_forms_print_identical_stdout() {
    let flags = stdout(&[
        "decentral",
        "--policy",
        "hopper",
        "--jobs",
        "12",
        "--machines",
        "30",
        "--util",
        "0.7",
        "--seeds",
        "7",
        "--interactive",
        "--stream",
        "--schedulers",
        "4",
        "--msg-loss",
        "0.05",
        "--msg-jitter-ms",
        "5",
        "--msg-dup",
        "0.02",
        "--rpc-timeout-ms",
        "1000",
    ]);
    let pairs = stdout(&[
        "decentral",
        "policy=hopper",
        "jobs=12",
        "machines=30",
        "util=0.7",
        "seeds=7",
        "interactive=true",
        "stream=on",
        "schedulers=4",
        "msg_loss=0.05",
        "msg_jitter_ms=5",
        "msg_dup=0.02",
        "rpc_timeout_ms=1000",
    ]);
    assert_eq!(flags, pairs);
    assert!(flags.contains("streaming:"), "{flags}");
}

/// A switch key takes an explicit value too, and `--spec FILE` reads
/// the same pairs the command line gives.
#[test]
fn switch_values_and_spec_files_match_the_pair_form() {
    let pairs = stdout(
        &[
            &["decentral", "interactive=false", "stream=off"][..],
            &SMALL,
        ]
        .concat(),
    );
    let flags = stdout(
        &[
            &["decentral", "--interactive", "false", "--stream", "off"][..],
            &SMALL,
        ]
        .concat(),
    );
    assert_eq!(pairs, flags);
    let path = format!("{}/cli-spec.txt", env!("CARGO_TARGET_TMPDIR"));
    std::fs::write(
        &path,
        "engine=decentral\ninteractive=false\n# comment\nstream=off",
    )
    .unwrap();
    let file = stdout(&[&["decentral", "--spec", &path][..], &SMALL].concat());
    assert_eq!(pairs, file);
}

#[test]
fn workers_and_seed_aliases() {
    let alias = stdout(&["decentral", "--workers", "20", "--seed", "3", "jobs=6"]);
    let keys = stdout(&["decentral", "machines=20", "seeds=3", "jobs=6"]);
    assert_eq!(alias, keys);
    assert!(alias.contains("seed 3"), "{alias}");
}

#[test]
fn bad_command_lines_exit_with_code_2() {
    for args in [
        &["central", "--no-such-flag", "1"][..],
        &["decentral", "--seed", "1,2"],
        &["central", "seeds=1,2"],
        &["central", "engine=decentral"],
        &["stability", "engine=central", "--policies", "hopper"],
        &["sweep", "--axis", "util=0.5", "--bogus"],
    ] {
        let out = hopper(args);
        assert_eq!(out.status.code(), Some(2), "hopper {args:?}");
        assert!(out.stdout.is_empty(), "hopper {args:?} ran anyway");
    }
}

/// A reader that stops early (`hopper example | head -0`) ends the run
/// normally: `EPIPE` on stdout exits with code 0, and nothing panics.
#[test]
fn closed_stdout_is_a_normal_exit() {
    use std::process::Stdio;
    let mut child = Command::new(env!("CARGO_BIN_EXE_hopper"))
        .arg("example")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn the hopper binary");
    // Close the only read end before the run prints anything.
    drop(child.stdout.take());
    let out = child
        .wait_with_output()
        .expect("wait for the hopper binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "exit {:?}: {stderr}", out.status);
    assert!(stderr.is_empty(), "stderr: {stderr}");
}
