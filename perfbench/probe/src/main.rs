//! `dircc-probe`: the compiled half of the dircc benchmark.
//!
//! `perfbench/run.py` drives the `dircc` binary untraced for the
//! end-to-end numbers and calls this program for the rest:
//!
//! ```text
//! dircc-probe loadgen --url U --rate R --schedule F --hot F --expect F --misses F
//!                     --miss-out F [--scrape]
//! dircc-probe paper --seed S --out-dir D        # traced `dircc all`
//! dircc-probe record-replay --seed S --out-dir D  # traced record → replay
//! dircc-probe check                              # traced model check
//! dircc-probe handler --misses F --out F         # in-process /run handler
//! ```
//!
//! Every subcommand prints one JSON object on stdout. The traced probes
//! time calls into the public API of the `trace`, `sim`, `serve` and
//! `check` crates from outside, one phase at a time, so the phase times
//! add up to the probe's own wall clock.

mod layers;
mod loadgen;
mod stats;

use std::collections::HashMap;
use std::process::ExitCode;

/// `--key value` flags (a bare `--key` reads as `"1"`).
struct Flags(HashMap<String, String>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut map = HashMap::new();
        let mut i = 0;
        while i < args.len() {
            let key =
                args[i].strip_prefix("--").ok_or_else(|| format!("unexpected {}", args[i]))?;
            match args.get(i + 1) {
                Some(v) if !v.starts_with("--") => {
                    map.insert(key.to_string(), v.clone());
                    i += 2;
                }
                _ => {
                    map.insert(key.to_string(), "1".to_string());
                    i += 1;
                }
            }
        }
        Ok(Flags(map))
    }

    fn str(&self, key: &str) -> Result<&str, String> {
        self.0.get(key).map(String::as_str).ok_or_else(|| format!("missing --{key}"))
    }

    fn num<T: std::str::FromStr>(&self, key: &str, default: Option<T>) -> Result<T, String> {
        match self.0.get(key) {
            Some(v) => v.parse().map_err(|_| format!("--{key}: not a number: {v}")),
            None => default.ok_or_else(|| format!("missing --{key}")),
        }
    }

    fn has(&self, key: &str) -> bool {
        self.0.contains_key(key)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("usage: dircc-probe loadgen|paper|record-replay|check|handler [--flags]");
        return ExitCode::from(2);
    };
    let result = Flags::parse(rest).and_then(|flags| match command.as_str() {
        "loadgen" => loadgen::command(&flags),
        "paper" => layers::paper(&flags),
        "record-replay" => layers::record_replay(&flags),
        "check" => layers::check(&flags),
        "handler" => layers::handler(&flags),
        other => Err(format!("unknown command {other}")),
    });
    match result {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("dircc-probe {command}: {e}");
            ExitCode::FAILURE
        }
    }
}
