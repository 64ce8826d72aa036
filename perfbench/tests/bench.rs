//! The benchmark's own tests: the layer wrappers are inert, the metric
//! names printed are the names `BENCHMARK.json` lists, and inputs are a
//! function of the seed. Run with `cargo test --release` from this
//! directory: the name checks run real (one-second) benchmark runs.

use std::process::Command;

use jl_engine::{reference_run, run_job, JobPlan};
use jl_perfbench::gen::{self, SimInputs, Workload, LADDER, UDF};
use jl_perfbench::layers::host;
use jl_perfbench::report::repo_root;
use jl_perfbench::run::{max_rate, parse_result};
use jl_workloads::SyntheticSpec;

/// A small synthetic job: `tuples` Zipf 1.0 lookups over 500 rows.
fn tiny(mut spec: SyntheticSpec, tuples: u64) -> SimInputs {
    spec.n_keys = 500;
    spec.n_tuples = tuples;
    gen::synthetic(spec, 7)
}

fn assert_inert(inputs: &SimInputs) {
    let reference = reference_run(
        &inputs.store(),
        &inputs.udfs(|u| u),
        &JobPlan::single(0, UDF),
        &inputs.tuples,
    );
    let plain = run_job(
        &inputs.job(None, None),
        inputs.store(),
        inputs.udfs(|u| u),
        inputs.tuples.clone(),
        inputs.timed_updates(),
    );
    let traced = host(inputs, inputs.store(), true);
    assert_eq!(plain.fingerprint, reference.fingerprint);
    assert_eq!(plain.completed, inputs.tuples.len() as u64);
    assert_eq!(traced.report.fingerprint, plain.fingerprint);
    assert_eq!(traced.report.sim_events, plain.sim_events);
    assert_eq!(traced.report.duration, plain.duration);
    assert!(traced.acc.decide > 0 && traced.acc.udf_calls > 0);
    assert!(!traced.grants.is_empty());
}

#[test]
fn wrappers_are_inert_on_tiny_inputs() {
    assert_inert(&tiny(SyntheticSpec::dh(), 2_000));
    assert_inert(&tiny(SyntheticSpec::ch(), 1_000));
    // A stream with updates and the serve shape's retry, overload and
    // membership planes armed.
    let mut stream = tiny(SyntheticSpec::dh(), 2_000).at_rate(16_000, 2_000);
    stream.updates = (0..20)
        .map(|i| {
            let (k, v) = &stream.rows[i];
            let mut v = v.clone();
            v.version += 1;
            (i * 50, k.clone(), v)
        })
        .collect();
    assert_inert(&stream);
    let mut serve = gen::sim_inputs(Workload::ServeOpen, 7);
    serve.tuples.truncate(2_000);
    assert_inert(&serve);
}

fn listed_names(section: &str) -> Vec<String> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    // The file is flat enough to read without a JSON parser: every metric
    // is one `{"name": ...}` object inside its section's array.
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} section"));
    let body = &text[start..];
    let end = body.find(']').expect("section array ends");
    body[..end]
        .split("\"name\":")
        .skip(1)
        .map(|s| {
            s.trim_start()
                .trim_start_matches('"')
                .split('"')
                .next()
                .expect("quoted name")
                .to_string()
        })
        .collect()
}

/// Names in the result line of a one-second run of the benchmark binary.
fn printed_names(workload: Workload, trace: bool) -> Vec<String> {
    let out = Command::new(env!("CARGO_BIN_EXE_jl-perfbench"))
        .args([
            "--workload",
            workload.name(),
            "--seed",
            "3",
            "--seconds",
            "1",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let result = stdout
        .lines()
        .last()
        .and_then(parse_result)
        .expect("a result line with finite values");
    assert_eq!(result.failed, 0);
    result.metrics.into_iter().map(|(name, _)| name).collect()
}

fn sorted(mut v: Vec<String>) -> Vec<String> {
    v.sort();
    v
}

#[test]
fn printed_metric_names_match_benchmark_json() {
    let e2e = sorted(listed_names("end_to_end"));
    let layers = sorted(listed_names("per_layer"));
    assert!(e2e.iter().any(|n| n == "setup_s"));
    for w in [Workload::ChBatch, Workload::ServeOpen] {
        assert_eq!(sorted(printed_names(w, false)), e2e, "{w:?} end to end");
        assert_eq!(sorted(printed_names(w, true)), layers, "{w:?} per layer");
    }
}

#[test]
fn workload_names_match_benchmark_json() {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("read");
    for w in Workload::ALL {
        assert!(text.contains(&format!("\"name\": \"{}\"", w.name())));
        assert_eq!(Workload::parse(w.name()), Some(w));
    }
}

#[test]
fn inputs_are_a_function_of_the_seed() {
    for w in Workload::ALL {
        let a = gen::sim_inputs(w, 5).digest();
        assert_eq!(a, gen::sim_inputs(w, 5).digest(), "{w:?} same seed");
        assert_ne!(a, gen::sim_inputs(w, 6).digest(), "{w:?} other seed");
    }
    let cfg = jl_bench::serve::ServeConfig::default();
    assert_eq!(
        gen::serve_keys(&cfg, 5, 0, 1000),
        gen::serve_keys(&cfg, 5, 0, 1000)
    );
    assert_ne!(
        gen::serve_keys(&cfg, 5, 0, 1000),
        gen::serve_keys(&cfg, 6, 0, 1000)
    );
}

#[test]
fn modeled_ladders_scale_the_front_door_ladder() {
    assert_eq!(Workload::ServeOpen.ladder()[..], LADDER[..4]);
    for w in Workload::ALL {
        let l = w.ladder();
        assert!(l.windows(2).all(|p| p[0] < p[1]), "{w:?} {l:?}");
        // The third step is below the workload's capacity, the fourth
        // beyond it.
        assert!(
            l[2] < w.capacity_rps() && l[3] > w.capacity_rps(),
            "{w:?} {l:?}"
        );
    }
}

#[test]
fn max_rate_interpolates_across_the_limits() {
    // Every step passes: the top rate.
    assert_eq!(
        max_rate(&[(4_000, 2.0, 0.0), (16_000, 5.0, 0.0)], 10.0),
        16_000.0
    );
    // p99 crosses 10 ms halfway between 16k (6 ms) and 32k (14 ms).
    let r = max_rate(
        &[(4_000, 2.0, 0.0), (16_000, 6.0, 0.0), (32_000, 14.0, 0.0)],
        10.0,
    );
    assert!((r - 24_000.0).abs() < 1e-6, "{r}");
    // More than 1% failed: p99 is infinite, so the last passing step.
    let r = max_rate(&[(16_000, 6.0, 0.0), (32_000, f64::INFINITY, 0.05)], 10.0);
    assert_eq!(r, 16_000.0);
    // The failed share crosses 0.1% a quarter of the way.
    let r = max_rate(&[(16_000, 6.0, 0.0), (32_000, 8.0, 0.004)], 10.0);
    assert!((r - 20_000.0).abs() < 1e-6, "{r}");
    // Even the first step fails: interpolate up from the ladder's foot.
    let r = max_rate(&[(4_000, 20.0, 0.0)], 10.0);
    assert!((r - 2_000.0).abs() < 1e-6, "{r}");
}
