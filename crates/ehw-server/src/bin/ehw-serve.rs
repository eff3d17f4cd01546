//! Runs the job server on a real port.
//!
//! ```text
//! EHW_PLATFORMS=2 EHW_WORKERS=4 ehw-serve 127.0.0.1:8080 \
//!     --registry=faults.json
//! ```
//!
//! The bind address defaults to `127.0.0.1:8080`; `EHW_PLATFORMS` sizes the
//! shard pool (default 1) and `EHW_WORKERS` sets each shard's worker
//! threads.  A malformed variable exits with status 2.  `--registry=FILE`
//! overlays a JSON scenario/policy registry (the `GET /registry` document
//! shape) on the built-in entries; without it the server runs on the
//! built-ins alone.
//! Any other argument starting with `--` is refused with exit status 2.

use ehw_server::{json, wire, EhwServer, DEFAULT_JOB_TTL};
use ehw_service::{EhwService, ScenarioRegistry, ServiceConfig};

fn main() {
    let mut addr = "127.0.0.1:8080".to_string();
    let mut registry = ScenarioRegistry::builtin();
    for arg in std::env::args().skip(1) {
        if let Some(path) = arg.strip_prefix("--registry=") {
            registry = match load_registry(path) {
                Ok(registry) => registry,
                Err(error) => {
                    eprintln!("ehw-serve: registry file {path}: {error}");
                    std::process::exit(2);
                }
            };
        } else if arg.starts_with("--") {
            eprintln!("ehw-serve: unknown flag {arg}");
            std::process::exit(2);
        } else {
            addr = arg;
        }
    }
    let config = match ServiceConfig::from_env() {
        Ok(config) => config,
        Err(error) => {
            eprintln!("ehw-serve: {error}");
            std::process::exit(2);
        }
    };
    let service = match EhwService::new(config) {
        Ok(service) => service,
        Err(error) => {
            eprintln!("ehw-serve: {error}");
            std::process::exit(2);
        }
    };
    let server = match EhwServer::serve_with(service, &addr, DEFAULT_JOB_TTL, registry) {
        Ok(server) => server,
        Err(error) => {
            eprintln!("ehw-serve: cannot start on {addr}: {error}");
            std::process::exit(2);
        }
    };
    println!("ehw-serve: listening on http://{}", server.local_addr());
    // Serve until the process is killed.
    loop {
        std::thread::park();
    }
}

/// Reads and parses a JSON registry file as an overlay on the built-ins.
fn load_registry(path: &str) -> Result<ScenarioRegistry, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let doc = json::parse(&text).map_err(|e| e.to_string())?;
    wire::parse_registry(&doc).map_err(|e| e.to_string())
}
