//! The `spotverse` binary: parse argv, dispatch, print.

use std::io::{self, Write};
use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match spotverse_cli::run(argv) {
        Ok(output) => write_stdout(&output),
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("run `spotverse help` for usage");
            ExitCode::FAILURE
        }
    }
}

/// Writes the report to stdout. A reader that closes the pipe early (as
/// `spotverse … | head` does) has taken all it wants, so that ends the
/// run quietly with success; any other write error is a failure.
fn write_stdout(output: &str) -> ExitCode {
    let mut stdout = io::stdout().lock();
    match stdout.write_all(output.as_bytes()).and_then(|()| stdout.flush()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: writing output: {e}");
            ExitCode::FAILURE
        }
    }
}
