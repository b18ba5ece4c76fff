//! The `figures` binary's command line: a mistyped figure name must
//! fail the run, not run nothing and pass.

use std::process::Command;

#[test]
fn an_unknown_figure_name_exits_nonzero_and_names_it() {
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["--fig", "nope", "--no-csv"])
        .output()
        .expect("spawn figures");
    assert!(!out.status.success(), "exit status {:?}", out.status);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown figure: nope"), "{stderr}");
}
