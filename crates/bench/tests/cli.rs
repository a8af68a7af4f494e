//! Bin-level input and output handling: a malformed flag, an output file
//! that cannot be written and a damaged metrics document each exit 2
//! naming the cause, never a panic (exit 101).

use std::process::Command;

fn stderr_of(bin: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(bin).args(args).output().expect("spawn bin");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn a_flag_missing_its_value_exits_2_naming_it() {
    for (bin, flag) in [
        (env!("CARGO_BIN_EXE_fig8"), "--nodes"),
        (env!("CARGO_BIN_EXE_fig9"), "--seed"),
        (env!("CARGO_BIN_EXE_table1"), "--elections"),
        (env!("CARGO_BIN_EXE_ablations"), "--size"),
        (env!("CARGO_BIN_EXE_chaos"), "--seeds"),
        (env!("CARGO_BIN_EXE_trace-report"), "--top"),
    ] {
        let (code, err) = stderr_of(bin, &[flag]);
        assert_eq!(code, Some(2), "{bin} {flag}: {err}");
        assert!(err.contains(&format!("{flag} needs a ")), "{bin}: {err}");
    }
}

#[test]
fn an_unparsable_value_exits_2_naming_the_flag() {
    for (bin, flag) in [
        (env!("CARGO_BIN_EXE_fig8"), "--seed"),
        (env!("CARGO_BIN_EXE_table1"), "--seed"),
        (env!("CARGO_BIN_EXE_ablations"), "--nodes"),
        (env!("CARGO_BIN_EXE_suite"), "--seed"),
    ] {
        let (code, err) = stderr_of(bin, &[flag, "x"]);
        assert_eq!(code, Some(2), "{bin} {flag} x: {err}");
        assert!(err.contains(&format!("{flag} needs a ")), "{bin}: {err}");
    }
}

#[test]
fn dissemination_is_parsed_the_same_way_by_every_bin() {
    // (bin, value, accepted): `both` only where the bin has a row per
    // topology. An accepted value is followed by `--help`, so nothing runs.
    for (bin, v, accepted) in [
        (env!("CARGO_BIN_EXE_suite"), "ring", true),
        (env!("CARGO_BIN_EXE_suite"), "both", false),
        (env!("CARGO_BIN_EXE_suite"), "mesh", false),
        (env!("CARGO_BIN_EXE_scale"), "star", true),
        (env!("CARGO_BIN_EXE_scale"), "both", true),
        (env!("CARGO_BIN_EXE_scale"), "mesh", false),
        (env!("CARGO_BIN_EXE_chaos"), "ring", true),
        (env!("CARGO_BIN_EXE_chaos"), "both", false),
        (env!("CARGO_BIN_EXE_chaos"), "mesh", false),
    ] {
        let (code, err) = stderr_of(bin, &["--dissemination", v, "--help"]);
        if accepted {
            assert_eq!(code, Some(0), "{bin} --dissemination {v}: {err}");
        } else {
            assert_eq!(code, Some(2), "{bin} --dissemination {v}: {err}");
            assert!(err.contains("--dissemination needs a mode (star"), "{err}");
        }
    }
    let (code, err) = stderr_of(env!("CARGO_BIN_EXE_scale"), &["--dissemination"]);
    assert_eq!(code, Some(2), "{err}");
    assert!(err.contains("--dissemination needs a mode"), "{err}");
}

#[test]
fn an_output_that_cannot_be_written_exits_2_naming_the_path() {
    let path = "/nonexistent/dir/m.json";
    let args = ["--elections", "1", "--metrics-out", path];
    let (code, err) = stderr_of(env!("CARGO_BIN_EXE_table1"), &args);
    assert_eq!(code, Some(2), "{err}");
    assert!(err.contains(&format!("cannot write {path}: ")), "{err}");
}

#[test]
fn trace_report_exits_2_on_a_damaged_record_and_1_on_an_older_document() {
    let dir = std::env::temp_dir().join(format!("bench-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let report = |text: &str| {
        let path = dir.join("doc.json");
        std::fs::write(&path, text).unwrap();
        let file = path.to_str().unwrap();
        stderr_of(env!("CARGO_BIN_EXE_trace-report"), &["--bottleneck", file])
    };
    let (code, err) = report(r#"{"runs":[{"label":"x","nodes":3,"util":{}}]}"#);
    assert_eq!(code, Some(2), "{err}");
    assert!(err.contains("doc.json: runs[x].system: missing"), "{err}");
    let (code, err) = report(r#"{"runs":[{"label":"x","forensics":{}}]}"#);
    assert_eq!(code, Some(1), "{err}");
    assert!(
        err.contains("document predates the resource-utilization layer"),
        "{err}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
