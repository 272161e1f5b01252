//! `pathbench`: one ledger for the whole AutoView path — workload in,
//! views selected and published, queries served — end to end and per layer.
//!
//! ```text
//! pathbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--trace-out <file>] [--out <file>]
//! pathbench --selfcheck [--seed <n>] [--seconds <s>]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; see `README.md` beside
//! this package's manifest and `BENCHMARK.json` at the repository root.

mod layers;
mod report;
mod run;
mod selfcheck;
mod serve;
mod setup;
mod stats;
mod trace;

use setup::Workload;
use std::process::ExitCode;

/// Parsed command line.
pub struct Args {
    pub workload: Option<Workload>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub trace_out: Option<String>,
    pub out: Option<String>,
    pub selfcheck: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: 10.0,
        trace: false,
        trace_out: None,
        out: None,
        selfcheck: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--selfcheck" {
            args.selfcheck = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                args.workload = Some(Workload::parse(value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?}; one of {}", names.join(", "))
                })?)
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--trace-out" => args.trace_out = Some(value.clone()),
            "--out" => args.out = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.trace_out.is_some() && !args.trace {
        return Err("--trace-out needs --trace 1".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    // Sizes are the benchmark's constants: no environment knob of the
    // program may change what a workload means. Cleared before any thread
    // starts and before the libraries read them.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("AV_") {
            std::env::remove_var(&key);
        }
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("pathbench: {msg}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.selfcheck {
        selfcheck::run(&args)
    } else {
        match args.workload {
            Some(workload) => {
                run::run(workload, &args).and_then(|result| report::emit(&result, &args))
            }
            None => Err("--workload is required (or --selfcheck)".to_string()),
        }
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("pathbench: {msg}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<Args, String> {
        parse_args(&words.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn driver_command_line_parses() {
        let args = parse(&[
            "--workload",
            "serve_miss",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .expect("parses");
        assert_eq!(args.workload, Some(Workload::ServeMiss));
        assert_eq!((args.seed, args.seconds, args.trace), (7, 3.0, true));
    }

    #[test]
    fn bad_command_lines_are_refused() {
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--seconds", "0"]).is_err());
        assert!(parse(&["--trace", "2"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--trace-out", "t.json"]).is_err());
        assert!(parse(&["--frobnicate", "1"]).is_err());
    }
}
