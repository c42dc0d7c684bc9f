//! `ablations` prints the A1/A2 floorplan-model ablations of scenario
//! (a); its whole stdout is pinned by `golden/ablations.txt`.

use std::process::Command;

#[test]
fn ablations_stdout_matches_the_golden() {
    let output = Command::new(env!("CARGO_BIN_EXE_ablations"))
        .output()
        .expect("spawn ablations");
    assert!(output.status.success(), "ablations exits 0");
    assert_eq!(
        String::from_utf8(output.stdout).expect("utf-8 stdout"),
        include_str!("golden/ablations.txt")
    );
}
