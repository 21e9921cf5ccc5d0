//! `treadmill-serve` — the load-testing service daemon.
//!
//! ```text
//! treadmill-serve --state-dir DIR [--addr HOST:PORT] [--queue-cap N]
//! ```
//!
//! Binds the HTTP service, prints the bound address (also written to
//! `DIR/addr.txt`), and runs until SIGTERM/SIGINT, at which point it
//! drains gracefully: stops accepting, seals the in-flight sweep's
//! checkpoint, exits 0 (journal appends are fsynced one by one). Every
//! start replays `DIR/jobs.jsonl` and re-admits the jobs it left
//! pending, so restarting a drained or SIGKILL'd instance on the same
//! `DIR` finishes them; an empty `DIR` starts from scratch.

use std::process::ExitCode;
use std::thread;
use std::time::Duration;

use treadmill_server::service::{start, ServeOptions};
use treadmill_server::shutdown;

fn usage() -> &'static str {
    "usage: treadmill-serve --state-dir DIR [--addr HOST:PORT] [--queue-cap N]\n"
}

fn parse_args() -> Result<ServeOptions, String> {
    let mut state_dir: Option<String> = None;
    let mut addr = "127.0.0.1:0".to_string();
    let mut queue_cap: Option<usize> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |name: &str| {
            args.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--state-dir" => state_dir = Some(take("--state-dir")?),
            "--addr" => addr = take("--addr")?,
            "--queue-cap" => {
                queue_cap = Some(parse_count(&take("--queue-cap")?)?);
            }
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    let state_dir = state_dir.ok_or("missing --state-dir")?;

    let mut opts = ServeOptions::new(state_dir);
    opts.addr = addr;
    if let Some(cap) = queue_cap {
        opts.queue_cap = cap;
    }
    Ok(opts)
}

fn parse_count(text: &str) -> Result<usize, String> {
    match text.parse::<usize>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(format!("expected a positive integer, got {text:?}")),
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(message) => {
            eprintln!("treadmill-serve: {message}\n{}", usage());
            return ExitCode::from(2);
        }
    };

    shutdown::install();
    let handle = match start(opts) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("treadmill-serve: cannot start service: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("treadmill-serve listening on {}", handle.addr());

    while !shutdown::requested() {
        thread::sleep(Duration::from_millis(50));
    }
    eprintln!("treadmill-serve: shutdown requested; draining");
    handle.drain();
    match handle.join() {
        Ok(()) => {
            eprintln!("treadmill-serve: drained cleanly");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("treadmill-serve: {message}");
            ExitCode::FAILURE
        }
    }
}
