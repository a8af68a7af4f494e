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
        (env!("CARGO_BIN_EXE_paper"), "--seed"),
        (env!("CARGO_BIN_EXE_paper"), "--out"),
        (env!("CARGO_BIN_EXE_paper"), "--trace-out"),
        (env!("CARGO_BIN_EXE_paper"), "--only"),
        (env!("CARGO_BIN_EXE_paper"), "--sched"),
        (env!("CARGO_BIN_EXE_chaos"), "--seeds"),
    ] {
        let (code, err) = stderr_of(bin, &[flag]);
        assert_eq!(code, Some(2), "{bin} {flag}: {err}");
        assert!(err.contains(&format!("{flag} needs a ")), "{bin}: {err}");
    }
}

#[test]
fn an_unparsable_value_exits_2_naming_the_flag() {
    for (bin, flag, v) in [
        (env!("CARGO_BIN_EXE_paper"), "--seed", "x"),
        (env!("CARGO_BIN_EXE_paper"), "--only", "fig10"),
        (env!("CARGO_BIN_EXE_paper"), "--sched", "fifo"),
        (env!("CARGO_BIN_EXE_chaos"), "--sched", "fifo"),
        (env!("CARGO_BIN_EXE_chaos"), "--seed", "x"),
    ] {
        let (code, err) = stderr_of(bin, &[flag, v]);
        assert_eq!(code, Some(2), "{bin} {flag} {v}: {err}");
        assert!(err.contains(&format!("{flag} needs a ")), "{bin}: {err}");
    }
}

#[test]
fn the_flags_the_paper_run_dropped_are_unknown() {
    // The document is the machine-readable output, `--only` selects what
    // `--nodes`/`--size` used to, and the quick and scale sections run the
    // pinned matrices the folded bins' knobs used to vary.
    for flag in [
        "--csv",
        "--elections",
        "--metrics-out",
        "--nodes",
        "--size",
        "--slow",
        "--dissemination",
        "--label",
        "--sizes",
        "--systems",
        "--interventions",
    ] {
        let (code, err) = stderr_of(env!("CARGO_BIN_EXE_paper"), &[flag, "1"]);
        assert_eq!(code, Some(2), "paper {flag}: {err}");
        assert!(err.contains(&format!("unknown flag {flag}")), "{err}");
    }
    let (code, err) = stderr_of(env!("CARGO_BIN_EXE_figures"), &["--full"]);
    assert_eq!(code, Some(2), "{err}");
    assert!(err.contains("unknown flag --full"), "{err}");
}

#[test]
fn chaos_refuses_a_run_that_cannot_support_a_verdict() {
    // Each value would run nothing, panic, or print a verdict over no runs.
    for (flag, v, why) in [
        ("--nodes", "2", "a cluster of at least 3"),
        ("--seeds", "0", "a count of at least 1"),
        ("--max-time-ms", "0", "a horizon of at least 1 ms"),
    ] {
        let (code, err) = stderr_of(env!("CARGO_BIN_EXE_chaos"), &[flag, v]);
        assert_eq!(code, Some(2), "chaos {flag} {v}: {err}");
        assert!(err.contains(&format!("{flag} needs {why}")), "{err}");
    }
}

#[test]
fn chaos_takes_one_dissemination_mode() {
    // An accepted value is followed by `--help`, so nothing runs.
    for (v, accepted) in [
        ("star", true),
        ("ring", true),
        ("both", false),
        ("mesh", false),
    ] {
        let (code, err) = stderr_of(
            env!("CARGO_BIN_EXE_chaos"),
            &["--dissemination", v, "--help"],
        );
        if accepted {
            assert_eq!(code, Some(0), "--dissemination {v}: {err}");
        } else {
            assert_eq!(code, Some(2), "--dissemination {v}: {err}");
            assert!(
                err.contains("--dissemination needs a mode (star or ring)"),
                "{err}"
            );
        }
    }
}

#[test]
fn an_output_that_cannot_be_written_exits_2_naming_the_path() {
    let args = ["--only", "related", "--out", "/nonexistent/dir"];
    let (code, err) = stderr_of(env!("CARGO_BIN_EXE_paper"), &args);
    assert_eq!(code, Some(2), "{err}");
    let path = "/nonexistent/dir/BENCH_paper-related.json";
    assert!(err.contains(&format!("cannot write {path}: ")), "{err}");
}

#[test]
fn figures_exit_2_naming_a_member_the_document_lacks() {
    let dir = std::env::temp_dir().join(format!("bench-figures-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // The committed document with the third Figure 9 record's throughput
    // cut out.
    let baseline = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../baselines/BENCH_paper.json"
    );
    let text = std::fs::read_to_string(baseline).unwrap();
    let fig9 = text.find("\"fig9\":").unwrap();
    let mut at = fig9;
    for _ in 0..3 {
        at += text[at..].find(",\"msgs_per_sec\":").unwrap() + 1;
    }
    let end = at + text[at..].find(',').unwrap();
    let damaged = format!("{}{}", &text[..at], &text[end + 1..]);
    let doc = dir.join("doc.json");
    std::fs::write(&doc, damaged).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .arg(&doc)
        .current_dir(&dir)
        .output()
        .expect("spawn figures");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(
        err.contains("doc.json: fig9.records[2].msgs_per_sec: missing"),
        "{err}"
    );
    // Nothing is drawn from a document that cannot support every figure.
    assert!(!dir.join("figures").exists());
    std::fs::remove_dir_all(&dir).unwrap();
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
    let (code, err) = report(r#"{"records":[{"label":"x","nodes":3,"util":{}}]}"#);
    assert_eq!(code, Some(2), "{err}");
    assert!(
        err.contains("doc.json: records[x].system: missing"),
        "{err}"
    );
    let (code, err) = report(r#"{"records":[{"label":"x","forensics":{}}]}"#);
    assert_eq!(code, Some(1), "{err}");
    assert!(
        err.contains("document predates the resource-utilization layer"),
        "{err}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
