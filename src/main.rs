//! The `rejecto` CLI entry point; see [`rejecto::cli`] for the commands.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{}", rejecto::cli::USAGE);
        return ExitCode::FAILURE;
    };
    if command == "--help" || command == "-h" || command == "help" {
        println!("{}", rejecto::cli::USAGE);
        return ExitCode::SUCCESS;
    }
    let mut stdout = std::io::stdout().lock();
    match rejecto::cli::run(command, rest, &mut stdout) {
        Ok(()) => ExitCode::SUCCESS,
        // A closed pipe (e.g. piping into `head`) is a normal exit.
        Err(e) if e.0.contains("Broken pipe") => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
