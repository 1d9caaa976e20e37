//! A reader that stops early (`spotverse … | head`) must not make the CLI
//! panic: the run ends quietly with success once the pipe closes.

use std::io::{BufRead, BufReader, Read};
use std::process::{Command, Stdio};

#[test]
fn closed_stdout_pipe_exits_quietly() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_spotverse"))
        .args(["fleet", "--loadgen", "poisson", "--workloads", "500", "--output", "trace"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn spotverse");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut first = String::new();
    stdout.read_line(&mut first).expect("read the first line");
    assert!(first.starts_with('{'), "first trace line: {first:?}");
    // The trace is far larger than a pipe buffer (64 KiB), so the writer
    // is still blocked on the pipe when it closes here.
    drop(stdout);

    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut stderr)
        .expect("read stderr");
    let status = child.wait().expect("wait for spotverse");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(status.success(), "status {status}, stderr: {stderr}");
}
