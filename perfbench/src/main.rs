//! `jl-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a run manifest, one `metric <name> <value> <unit>` line per
//! metric, and as its last line a JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. Exits non-zero when a
//! correctness check fails.

use std::process::ExitCode;

use jl_perfbench::gen::Workload;
use jl_perfbench::report::{json_num, result_line};
use jl_perfbench::run::{run, Opts};

fn usage(msg: &str) -> ExitCode {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!("error: {msg}");
    eprintln!(
        "usage: jl-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10u64, false);
    let mut references = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => match Workload::parse(value) {
                Some(w) => workload = Some(w),
                None => return usage(&format!("unknown workload {value:?}")),
            },
            "--seed" => match value.parse() {
                Ok(v) => seed = v,
                Err(_) => return usage(&format!("bad seed {value:?}")),
            },
            "--seconds" => match value.parse::<u64>() {
                Ok(v) if v >= 1 => seconds = v,
                _ => return usage(&format!("bad seconds {value:?}")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = false,
                "1" => trace = true,
                _ => return usage(&format!("bad trace {value:?}")),
            },
            // Internal: set on the process an end-to-end run spawns for
            // its timed runs.
            "--references" => {
                match value
                    .split(',')
                    .map(|r| u64::from_str_radix(r, 16))
                    .collect()
                {
                    Ok(v) => references = Some(v),
                    Err(_) => return usage(&format!("bad references {value:?}")),
                }
            }
            other => return usage(&format!("unknown flag {other:?}")),
        }
    }
    let Some(workload) = workload else {
        return usage("--workload is required");
    };

    let out = run(Opts {
        workload,
        seed,
        seconds,
        trace,
        references,
    });
    println!("manifest {}", out.manifest.json());
    for m in out.metrics.0.iter().chain(out.extra.0.iter()) {
        println!("metric {} {} {}", m.name, json_num(m.value), m.unit);
    }
    for f in &out.checks.failures {
        eprintln!("check failed: {f}");
    }
    println!("{}", result_line(&out.checks, &out.metrics));
    if out.checks.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
