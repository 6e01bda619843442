//! The `cologne-serve` server binary: serves the stock ACloud demo program
//! (or a Colog program from a file) to many concurrent tenants.
//!
//! ```text
//! cologne-serve [--addr HOST:PORT] [--program FILE] [--max-sessions N] [--workers N]
//! ```
//!
//! `COLOGNE_SERVE_ADDR` is the fallback for `--addr` (default
//! `127.0.0.1:7171`). Prints `listening on <addr>` once ready and serves
//! until killed.

use std::process::ExitCode;

use cologne_serve::{demo_config, Server, ServerConfig};

fn usage() -> ! {
    eprintln!(
        "usage: cologne-serve [--addr HOST:PORT] [--program FILE] \
         [--max-sessions N] [--workers N]"
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let mut addr =
        std::env::var("COLOGNE_SERVE_ADDR").unwrap_or_else(|_| "127.0.0.1:7171".to_string());
    let mut cfg: ServerConfig = demo_config();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().unwrap_or_else(|| usage_missing(name));
        match arg.as_str() {
            "--addr" => addr = value("--addr"),
            "--program" => {
                let path = value("--program");
                match std::fs::read_to_string(&path) {
                    Ok(src) => cfg.program = src,
                    Err(e) => {
                        eprintln!("cologne-serve: cannot read {path}: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--max-sessions" => cfg.max_sessions = parse(&value("--max-sessions")),
            "--workers" => cfg.workers = parse(&value("--workers")),
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    let server = match Server::bind(addr.as_str(), cfg) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("cologne-serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("listening on {}", server.local_addr());
    loop {
        std::thread::park();
    }
}

fn usage_missing(name: &str) -> ! {
    eprintln!("cologne-serve: {name} needs a value");
    std::process::exit(2);
}

fn parse(s: &str) -> usize {
    s.parse().unwrap_or_else(|_| {
        eprintln!("cologne-serve: not a number: {s}");
        std::process::exit(2);
    })
}
