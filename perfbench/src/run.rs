//! The measured runs behind each workload, and the metrics they report.

use std::collections::HashSet;
use std::process::Command;
use std::time::{Duration, Instant};

use jl_engine::{reference_run, run_job, run_job_traced, JobPlan, JobTuple, RunReport};
use jl_telemetry::TelemetryConfig;

use crate::gen::{self, SimInputs, Workload, LADDER, UDF};
use crate::host;
use crate::layers::{self, Hosted, Role};
use crate::report::{median, peak_rss_mb, Checks, Manifest, Metrics};
use crate::serve_load::{self, Step};

/// Latency limit of `serve.wall_max_rate_rps` and of `serve_open`'s modeled
/// `max_rate_rps`, ms.
pub const P99_LIMIT_MS: f64 = 10.0;
/// Largest share of failed requests a passing ladder step may have.
pub const FAIL_LIMIT: f64 = 0.001;
/// Passes of the wall-clock ladder in a traced `serve_open` run; each
/// latency is the median over the passes.
pub const WALL_PASSES: usize = 2;

/// One run's command-line options.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measurement budget, seconds.
    pub seconds: u64,
    /// Per-layer (traced) metrics instead of end-to-end ones.
    pub trace: bool,
    /// Set in the process an end-to-end run spawns for its timed runs
    /// (see [`timed_child`]): the reference fingerprint of every input
    /// set, as the spawning run computed them.
    pub references: Option<Vec<u64>>,
}

/// Everything one run prints.
pub struct Outcome {
    /// Reproducibility stamp.
    pub manifest: Manifest,
    /// Metrics in print order.
    pub metrics: Metrics,
    /// Metrics printed for reading but not listed in `BENCHMARK.json`.
    pub extra: Metrics,
    /// Correctness accounting.
    pub checks: Checks,
}

/// One input set of a run: its seed and its reference join fingerprint.
#[derive(Debug, Clone, Copy)]
struct Set {
    seed: u64,
    reference: u64,
}

/// Run the benchmark once.
pub fn run(o: Opts) -> Outcome {
    let mut manifest = Manifest::new(o.workload.name(), o.seed, o.seconds, o.trace);
    let mut metrics = Metrics::default();
    let mut extra = Metrics::default();
    let mut checks = Checks::default();
    let budget = Duration::from_secs(o.seconds.max(1));

    let serve = o.workload == Workload::ServeOpen;
    let ladder_rps = o.workload.ladder();
    let mut digests = Vec::new();
    let mut tuples = Vec::new();
    let mut updates = Vec::new();
    let mut sets = Vec::new();
    let mut prefixes = Vec::new();
    // The reference join runs once per set: here in the run that
    // reports, for the sets it measures, and never in the timing child,
    // which is handed the results. Only the reporting end-to-end run
    // climbs the ladder.
    let child = o.references.is_some();
    let ladder_sets = if !child && !o.trace {
        o.workload.ladder_sets()
    } else {
        0
    };
    for i in 0..o.workload.sets() {
        let seed = gen::set_seed(o.seed, i);
        let inputs = gen::sim_inputs(o.workload, seed);
        if i < ladder_sets {
            prefixes.push(Prefix::new(o.workload, &inputs, &mut checks));
        }
        digests.push(format!("\"{:016x}\"", inputs.digest()));
        tuples.push(inputs.tuples.len().to_string());
        updates.push(inputs.updates.len().to_string());
        let reference = if let Some(references) = &o.references {
            match references.get(i) {
                Some(&r) => r,
                None => {
                    checks.record("reference", vec![format!("no reference for set {i}")]);
                    0
                }
            }
        } else if !o.trace || i == 0 {
            reference_check(&inputs, &inputs.store(), &mut checks)
        } else {
            0
        };
        sets.push(Set { seed, reference });
    }
    let list = |v: &[String]| format!("[{}]", v.join(", "));
    let seeds: Vec<String> = sets.iter().map(|s| s.seed.to_string()).collect();
    manifest.param("set_seeds", list(&seeds));
    manifest.param("inputs_digest", list(&digests));
    manifest.param("tuples", list(&tuples));
    manifest.param("updates", list(&updates));
    manifest.param("update_share", gen::UPDATE_SHARE.to_string());
    manifest.param("ladder_rps", format!("{ladder_rps:?}"));
    manifest.param("ladder_capacity_rps", o.workload.capacity_rps().to_string());
    manifest.param("ladder_p99_limit_ms", o.workload.p99_limit_ms().to_string());
    manifest.param("ladder_tuples", o.workload.ladder_tuples().to_string());
    manifest.param("ladder_sets", o.workload.ladder_sets().to_string());
    if serve && o.trace {
        manifest.param("wall_ladder_rps", format!("{LADDER:?}"));
    }

    if o.trace {
        // serve_open spends most of its budget on the wall-clock ladder.
        let sim_budget = if serve { budget.mul_f64(0.4) } else { budget };
        traced(o.workload, sets[0], sim_budget, &mut metrics, &mut checks);
        let ladder = if serve {
            let step_s = budget.as_secs_f64() * 0.6 / (WALL_PASSES * LADDER.len()) as f64;
            serve_ladder(o.seed, step_s.max(0.2), &mut checks)
        } else {
            Vec::new()
        };
        serve_layers(&ladder, &mut metrics);
    } else if child {
        let sim = timed_reps(o.workload, &sets, budget, &mut checks);
        metrics.put("setup_s", median(&sim.setup_s), "s");
        let joined: u64 = sim.reports.iter().map(|r| r.completed).sum();
        let run_s: f64 = sim.run_s.iter().map(|v| median(v)).sum();
        metrics.put("tuples_per_s", joined as f64 / run_s, "tuples/s");
        let modeled_s: f64 = sim.reports.iter().map(|r| r.duration.as_secs_f64()).sum();
        metrics.put("sim_tuples_per_s", joined as f64 / modeled_s, "tuples/s");
        let p99: Vec<f64> = sim
            .reports
            .iter()
            .map(|r| r.p99_latency.as_secs_f64() * 1e3)
            .collect();
        metrics.put("sim_p99_ms", median(&p99), "ms");
        metrics.put("peak_rss_mb", sim.peak_rss_mb, "MB");
        metrics.put("wall_setup_s", median(&sim.wall_setup_s), "s");
        let wall_s: f64 = sim.wall_run_s.iter().map(|v| median(v)).sum();
        metrics.put("wall_tuples_per_s", joined as f64 / wall_s, "tuples/s");
        metrics.put("probe_ms", median(&sim.probe_s) * 1e3, "ms");
    } else {
        let references: Vec<u64> = sets.iter().map(|s| s.reference).collect();
        let timed = timed_child(&o, &references, budget, &mut checks);
        let of = |name: &str| {
            timed
                .iter()
                .find(|(n, _)| n == name)
                .map_or(f64::NAN, |&(_, v)| v)
        };
        for (name, unit) in [
            ("setup_s", "s"),
            ("tuples_per_s", "tuples/s"),
            ("sim_tuples_per_s", "tuples/s"),
            ("sim_p99_ms", "ms"),
        ] {
            metrics.put(name, of(name), unit);
        }
        modeled_ladder(o.workload, &prefixes, &mut metrics, &mut extra, &mut checks);
        metrics.put("peak_rss_mb", of("peak_rss_mb"), "MB");
        extra.put("wall_setup_s", of("wall_setup_s"), "s");
        extra.put("wall_tuples_per_s", of("wall_tuples_per_s"), "tuples/s");
        extra.put("probe_ms", of("probe_ms"), "ms");
    }
    Outcome {
        manifest,
        metrics,
        extra,
        checks,
    }
}

/// Run the timed runs of an end-to-end run in a fresh process of this
/// benchmark, over the whole `budget`; returns its metrics and records
/// its checks. The process holds nothing but the runs it times, so its
/// peak resident memory is theirs.
fn timed_child(
    o: &Opts,
    references: &[u64],
    budget: Duration,
    checks: &mut Checks,
) -> Vec<(String, f64)> {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            checks.record("timing", vec![format!("cannot locate own executable: {e}")]);
            return Vec::new();
        }
    };
    let references: Vec<String> = references.iter().map(|r| format!("{r:016x}")).collect();
    let out = Command::new(&exe)
        .args([
            "--workload",
            o.workload.name(),
            "--seed",
            &o.seed.to_string(),
        ])
        .args(["--seconds", &budget.as_secs().to_string(), "--trace", "0"])
        .args(["--references", &references.join(",")])
        .output();
    let out = match out {
        Ok(out) => out,
        Err(e) => {
            checks.record("timing", vec![format!("cannot run: {e}")]);
            return Vec::new();
        }
    };
    let stdout = String::from_utf8_lossy(&out.stdout);
    let Some(result) = stdout.lines().last().and_then(parse_result) else {
        checks.record("timing", vec![format!("no result ({})", out.status)]);
        return Vec::new();
    };
    checks.attempted += result.attempted;
    checks.failed += result.failed;
    if !out.status.success() || result.failed > 0 {
        let stderr = String::from_utf8_lossy(&out.stderr);
        checks.failures.push(format!("timing: {}", stderr.trim()));
    }
    result.metrics
}

/// A result line, read back.
pub struct PartResult {
    /// Operations checked.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// Metric names and values, in print order.
    pub metrics: Vec<(String, f64)>,
}

/// Read a result line as `report::result_line` writes it.
pub fn parse_result(line: &str) -> Option<PartResult> {
    let count = |key: &str| -> Option<u64> {
        let at = line.find(&format!("\"{key}\": "))? + key.len() + 4;
        line[at..].split([',', '}']).next()?.trim().parse().ok()
    };
    let mut metrics = Vec::new();
    let body = &line[line.find("\"metrics\": {")? + 12..];
    for entry in body.split("}, ") {
        let (name, rest) = entry.split_once("\": {\"value\": ")?;
        let name = name.trim_start_matches(['{', '"']);
        let value = rest.split(',').next()?.trim().parse().ok()?;
        metrics.push((name.to_string(), value));
    }
    Some(PartResult {
        attempted: count("attempted")?,
        failed: count("failed")?,
        metrics,
    })
}

/// The reference join over `inputs`: its fingerprint, after checking
/// that it covers every tuple.
fn reference_check(inputs: &SimInputs, store: &jl_store::StoreCluster, checks: &mut Checks) -> u64 {
    let udfs = inputs.udfs(|u| u);
    let r = reference_run(store, &udfs, &JobPlan::single(0, UDF), &inputs.tuples);
    let mut f = Vec::new();
    if r.completed != inputs.tuples.len() as u64 {
        f.push(format!(
            "reference covered {} of {} tuples",
            r.completed,
            inputs.tuples.len()
        ));
    }
    checks.record("reference", f);
    r.fingerprint
}

/// Checks every measured sim run must pass: each tuple completed, shed
/// or given up, and the completed ones joined exactly as the reference
/// join over the same inputs (`reference` covers all of them).
fn check_run(r: &RunReport, inputs: &SimInputs, reference: u64) -> Vec<String> {
    let n = inputs.tuples.len() as u64;
    let lost = r.shed + r.gave_up;
    let mut f = Vec::new();
    if r.completed + lost != n {
        f.push(format!(
            "{} completed + {} shed + {} gave up != {n} tuples",
            r.completed, r.shed, r.gave_up
        ));
    }
    let expected = if lost == 0 {
        reference
    } else if r.outcomes.len() as u64 != lost {
        f.push(format!("{lost} tuples lost, {} recorded", r.outcomes.len()));
        return f;
    } else {
        // Overload protection may shed tuples; the engine records which,
        // so the reference join runs over the rest.
        let gone: HashSet<u64> = r.outcomes.iter().map(|&(seq, _)| seq).collect();
        let kept: Vec<JobTuple> = inputs
            .tuples
            .iter()
            .filter(|t| !gone.contains(&t.seq))
            .cloned()
            .collect();
        let plan = JobPlan::single(0, UDF);
        reference_run(&inputs.store(), &inputs.udfs(|u| u), &plan, &kept).fingerprint
    };
    if r.fingerprint != expected {
        f.push(format!(
            "fingerprint {:016x} != reference {expected:016x}",
            r.fingerprint
        ));
    }
    f
}

/// One untraced `run_job` over freshly set-up inputs of `set`.
fn one_rep(w: Workload, set: Set, checks: &mut Checks) -> (gen::SetupTimes, f64, RunReport) {
    let (inputs, store, setup) = gen::setup(w, set.seed);
    let job = inputs.job(None, None);
    let udfs = inputs.udfs(|u| u);
    let updates = inputs.timed_updates();
    let tuples = inputs.tuples.clone();
    let t = Instant::now();
    let report = run_job(&job, store, udfs, tuples, updates);
    let run_s = t.elapsed().as_secs_f64();
    checks.record("sim run", check_run(&report, &inputs, set.reference));
    (setup, run_s, report)
}

/// The timed, untraced sim runs. Times are scaled to the host's nominal
/// speed (see [`host`]) unless named `wall_`.
struct SimReps {
    /// Set-up seconds of every timed run.
    setup_s: Vec<f64>,
    wall_setup_s: Vec<f64>,
    /// `run_job` seconds of the timed runs, per set.
    run_s: Vec<Vec<f64>>,
    wall_run_s: Vec<Vec<f64>>,
    /// Every probe's seconds.
    probe_s: Vec<f64>,
    /// The first timed run of each set (modeled metrics are the same on
    /// every run of a set).
    reports: Vec<RunReport>,
    /// Peak resident memory after one set-up and run, MB.
    peak_rss_mb: f64,
}

/// One untimed run of the first set (it faults the heap in), then timed
/// runs round-robin over the sets until `budget` is spent, at least one
/// of each set. A host probe runs between every two runs; each
/// run is scaled by the mean of the probes on either side of it.
fn timed_reps(w: Workload, sets: &[Set], budget: Duration, checks: &mut Checks) -> SimReps {
    let mut reps = SimReps {
        setup_s: Vec::new(),
        wall_setup_s: Vec::new(),
        run_s: vec![Vec::new(); sets.len()],
        wall_run_s: vec![Vec::new(); sets.len()],
        probe_s: Vec::new(),
        reports: Vec::new(),
        peak_rss_mb: 0.0,
    };
    host::settle_allocator();
    one_rep(w, sets[0], checks);
    reps.peak_rss_mb = peak_rss_mb();
    reps.probe_s.push(host::probe());
    let start = Instant::now();
    let mut k = 0;
    while k < sets.len() || start.elapsed() < budget {
        let i = k % sets.len();
        let (setup, run_s, report) = one_rep(w, sets[i], checks);
        reps.probe_s.push(host::probe());
        let scale = host::PROBE_NOMINAL_S / median(&reps.probe_s[k..k + 2]);
        match reps.reports.get(i) {
            None => reps.reports.push(report),
            Some(first) if first.sim_events != report.sim_events => checks.record(
                "determinism",
                vec![format!(
                    "sim_events {} != {} on identical inputs",
                    report.sim_events, first.sim_events
                )],
            ),
            Some(_) => {}
        }
        reps.setup_s.push(setup.total() * scale);
        reps.wall_setup_s.push(setup.total());
        reps.run_s[i].push(run_s * scale);
        reps.wall_run_s[i].push(run_s);
        k += 1;
    }
    reps
}

/// One set's ladder input: its first [`Workload::ladder_tuples`] tuples
/// and the reference fingerprint over them. The reference join ignores
/// arrival times, so one fingerprint serves every rate.
struct Prefix {
    inputs: SimInputs,
    reference: u64,
}

impl Prefix {
    fn new(w: Workload, inputs: &SimInputs, checks: &mut Checks) -> Prefix {
        let inputs = inputs.at_rate(w.ladder()[0], w.ladder_tuples());
        let reference = reference_check(&inputs, &inputs.store(), checks);
        Prefix { inputs, reference }
    }
}

/// The open-loop ladder in modeled time: the prefix of each of the
/// workload's [`Workload::ladder_sets`] re-fed at each of its ladder rates
/// ([`Workload::ladder`]). Each latency is the mean over the sets of that
/// quantile of the set's completed tuples' modeled latency. A stall in one
/// set so moves it in proportion to how often sets stall: pooled over
/// sets, one stalled `ch_batch` set of eight set the whole p99 at r16k
/// (306 ms or 323–378 ms by seed), and a median over sets would flip
/// between the two levels a stream set's p99 falls on near the knee.
/// `max_rate_rps` is the highest offered rate whose p99 stays
/// within [`Workload::p99_limit_ms`] with at most [`FAIL_LIMIT`] of the
/// tuples lost, interpolated between steps ([`max_rate`]).
fn modeled_ladder(
    w: Workload,
    prefixes: &[Prefix],
    metrics: &mut Metrics,
    extra: &mut Metrics,
    checks: &mut Checks,
) {
    let mut curve = Vec::new();
    let (mut lost, mut sent) = (0u64, 0u64);
    for (&rate, name) in w.ladder().iter().zip(LADDER) {
        let (mut p50s, mut p99s) = (Vec::new(), Vec::new());
        let mut done = Vec::new();
        let (mut step_lost, mut step_sent) = (0u64, 0u64);
        for prefix in prefixes {
            let inputs = prefix.inputs.at_rate(rate, w.ladder_tuples());
            let run = layers::host(&inputs, inputs.store(), false);
            checks.record(
                &format!("ladder {rate}"),
                check_run(&run.report, &inputs, prefix.reference),
            );
            step_lost += run.report.shed + run.report.gave_up;
            step_sent += inputs.tuples.len() as u64;
            done.push(run.report.throughput());
            let ms = |q: f64| run.latency.quantile(q).as_secs_f64() * 1e3;
            p50s.push(ms(0.50));
            p99s.push(ms(0.99));
        }
        let k = name / 1000;
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        let (p50, p99) = (mean(&p50s), mean(&p99s));
        eprintln!(
            "ladder step r{k}k: offered {rate}/s, completed {:.0}/s (median over sets), \
             p50 {p50:.3} ms, p99 {p99:.3} ms, lost {step_lost} of {step_sent} (modeled)",
            median(&done)
        );
        if name <= 32_000 {
            metrics.put(format!("p50_ms.r{k}k"), p50, "ms");
            metrics.put(format!("p99_ms.r{k}k"), p99, "ms");
            lost += step_lost;
            sent += step_sent;
        } else {
            extra.put(format!("p99_ms.r{k}k"), p99, "ms");
        }
        curve.push((rate, p99, step_lost as f64 / step_sent.max(1) as f64));
    }
    metrics.put("max_rate_rps", max_rate(&curve, w.p99_limit_ms()), "req/s");
    extra.put("fail_ratio", lost as f64 / sent.max(1) as f64, "share");
}

/// [`WALL_PASSES`] runs of the wall-clock ladder through the `jl-serve`
/// front door, `step_s` seconds per step, steps in ladder order.
fn serve_ladder(seed: u64, step_s: f64, checks: &mut Checks) -> Vec<Step> {
    let mut steps: Vec<Step> = Vec::new();
    for pass in 0..WALL_PASSES {
        for (i, &rate) in LADDER.iter().enumerate() {
            let n = (rate as f64 * step_s) as usize;
            let s = serve_load::run_step(seed ^ ((pass as u64) << 32), i, rate, n.max(1));
            checks.record(&format!("serve {rate} pass {pass}"), s.failures.clone());
            eprintln!(
                "serve step {rate}/s pass {pass}: sent {} ok {} shed {} gave_up {} missing {} \
                 p50 {:.3} ms p99 {:.3} ms (all {:.3}) lag {:.3} ms wall {:.3} s events {}",
                s.sent,
                s.ok,
                s.shed,
                s.gave_up,
                s.missing,
                s.p50_ms,
                s.p99_ms,
                s.p99_all_ms,
                s.lag_ms,
                s.wall_s,
                s.events
            );
            steps.push(s);
        }
    }
    steps
}

fn steps_at(steps: &[Step], rate: u64) -> impl Iterator<Item = &Step> {
    steps.iter().filter(move |s| s.rate == rate)
}

/// The highest offered rate with a p99 of at most `p99_limit` ms and at
/// most [`FAIL_LIMIT`] failed, from `(rate, p99 over all requests, failed
/// share)` per ladder step: the last passing step, moved toward the first
/// failing one by linear interpolation of whichever criterion crosses its
/// limit first. The ladder's foot is `(0 req/s, 0 ms, 0 failed)`.
pub fn max_rate(steps: &[(u64, f64, f64)], p99_limit: f64) -> f64 {
    let mut prev = (0.0, 0.0, 0.0);
    for &(rate, p99, fail) in steps {
        let rate = rate as f64;
        if p99 > p99_limit || fail > FAIL_LIMIT {
            let along = |lo: f64, hi: f64, limit: f64| {
                if hi <= limit {
                    1.0
                } else if !hi.is_finite() {
                    0.0
                } else {
                    ((limit - lo) / (hi - lo)).clamp(0.0, 1.0)
                }
            };
            let frac = along(prev.1, p99, p99_limit).min(along(prev.2, fail, FAIL_LIMIT));
            return prev.0 + (rate - prev.0) * frac;
        }
        prev = (rate, p99, fail);
    }
    prev.0
}

/// Per-layer metrics of the wall-clock ladder (zero on sim workloads,
/// which dispatch nothing on the wall-clock runtime).
fn serve_layers(steps: &[Step], metrics: &mut Metrics) {
    let events: u64 = steps.iter().map(|s| s.events).sum();
    let wall: f64 = steps.iter().map(|s| s.wall_s).sum();
    metrics.put("runtime.events", events as f64, "count");
    metrics.put(
        "runtime.events_per_s",
        if wall > 0.0 {
            events as f64 / wall
        } else {
            0.0
        },
        "1/s",
    );
    for rate in LADDER {
        let k = rate / 1000;
        let shed: u64 = steps_at(steps, rate).map(|s| s.shed).sum();
        let gave_up: u64 = steps_at(steps, rate).map(|s| s.gave_up).sum();
        metrics.put(format!("serve.shed.r{k}k"), shed as f64, "count");
        metrics.put(format!("serve.gave_up.r{k}k"), gave_up as f64, "count");
    }
    // Wall-clock latency from each request's due time: the median over
    // passes of each step's quantile.
    let med = |rate: u64, f: fn(&Step) -> f64| {
        let v: Vec<f64> = steps_at(steps, rate).map(f).collect();
        if v.is_empty() {
            0.0
        } else {
            median(&v)
        }
    };
    let mut ladder = Vec::new();
    for rate in LADDER {
        let k = rate / 1000;
        if rate <= 32_000 {
            metrics.put(
                format!("serve.wall_p50_ms.r{k}k"),
                med(rate, |s| s.p50_ms),
                "ms",
            );
            metrics.put(
                format!("serve.wall_p99_ms.r{k}k"),
                med(rate, |s| s.p99_ms),
                "ms",
            );
        }
        if steps_at(steps, rate).next().is_some() {
            ladder.push((
                rate,
                med(rate, |s| s.p99_all_ms),
                med(rate, Step::failed_share),
            ));
        }
    }
    metrics.put(
        "serve.wall_max_rate_rps",
        max_rate(&ladder, P99_LIMIT_MS),
        "req/s",
    );
    let lag = steps.iter().map(|s| s.lag_ms).fold(0.0, f64::max);
    metrics.put("bench.gen_lag_ms", lag, "ms");
}

/// The traced run, on `set`: untraced/traced pairs until `budget` is
/// spent (at least two), then one run recorded by `jl-telemetry`.
fn traced(w: Workload, set: Set, budget: Duration, metrics: &mut Metrics, checks: &mut Checks) {
    host::settle_allocator();
    let start = Instant::now();
    let mut gen_s = Vec::new();
    let mut build_s = Vec::new();
    let mut untraced_s = Vec::new();
    let mut runs: Vec<Hosted> = Vec::new();
    while runs.len() < 2 || start.elapsed() < budget {
        let (setup, run_s, plain) = one_rep(w, set, checks);
        gen_s.push(setup.gen_s);
        build_s.push(setup.build_s);
        untraced_s.push(run_s);

        let (inputs, store, _) = gen::setup(w, set.seed);
        let t = layers::host(&inputs, store, true);
        let mut f = check_run(&t.report, &inputs, set.reference);
        if t.report.fingerprint != plain.fingerprint || t.report.sim_events != plain.sim_events {
            f.push(format!(
                "traced run differs from untraced: fingerprint {:016x}/{:016x}, sim_events {}/{}",
                t.report.fingerprint, plain.fingerprint, t.report.sim_events, plain.sim_events
            ));
        }
        checks.record("traced run", f);
        runs.push(t);
    }
    runs.sort_by(|a, b| a.wall_s.total_cmp(&b.wall_s));
    let t = &runs[runs.len() / 2];
    let untraced = median(&untraced_s);

    // One run recorded by the program's own telemetry, against the
    // untraced wall.
    let (inputs, store, _) = gen::setup(w, set.seed);
    let job = inputs.job(None, Some(TelemetryConfig::default()));
    let udfs = inputs.udfs(|u| u);
    let updates = inputs.timed_updates();
    let tuples = inputs.tuples.clone();
    let clock = Instant::now();
    let (report, tel) = run_job_traced(&job, store, udfs, tuples, updates);
    let tel_s = clock.elapsed().as_secs_f64();
    checks.record("telemetry run", check_run(&report, &inputs, set.reference));
    let tel_events = tel.map(|t| t.events.len()).unwrap_or(0);

    layer_metrics(t, &gen_s, &build_s, untraced, metrics);
    metrics.put("telemetry.overhead_ratio", tel_s / untraced, "ratio");
    metrics.put("telemetry.events", tel_events as f64, "count");
}

fn layer_metrics(t: &Hosted, gen_s: &[f64], build_s: &[f64], untraced: f64, m: &mut Metrics) {
    let r = &t.report;
    let a = &t.acc;
    let s = |ns: u64| ns as f64 * 1e-9;
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };

    // jl-simkit: the event loop outside every node dispatch.
    let simkit_self = (t.loop_s - s(a.total_dispatch_ns())).max(0.0);
    m.put("simkit.events", r.sim_events as f64, "count");
    m.put("simkit.self_s", simkit_self, "s");
    m.put(
        "simkit.ns_per_event",
        simkit_self * 1e9 / r.sim_events.max(1) as f64,
        "ns",
    );
    let grants: u64 = t.grants.values().map(|g| g.grants).sum();
    m.put("simkit.grants", grants as f64, "count");
    m.put("simkit.net_messages", r.net_messages as f64, "count");
    m.put(
        "simkit.net_bytes_per_tuple",
        ratio(r.net_bytes, r.completed),
        "B/tuple",
    );
    let (comp, data) = (&t.compute_ids, &t.data_ids);
    let cluster = &t.grants;
    let busy = |ids: &[usize], kinds: &[usize]| -> f64 {
        ids.iter()
            .map(|&id| {
                kinds
                    .iter()
                    .map(|&k| cluster.get(&(id, k)).map_or(0.0, |g| g.busy_s))
                    .fold(0.0, f64::max)
            })
            .fold(0.0, f64::max)
    };
    let wait = |ids: &[usize], kinds: &[usize]| -> f64 {
        ids.iter()
            .flat_map(|&id| kinds.iter().map(move |&k| (id, k)))
            .map(|key| cluster.get(&key).map_or(0.0, |g| g.wait_s))
            .sum()
    };
    const CPU: usize = 0;
    const DISK: usize = 1;
    const NET: [usize; 2] = [2, 3];
    m.put("simkit.busy_s.comp_cpu", busy(comp, &[CPU]), "s");
    m.put("simkit.busy_s.comp_net", busy(comp, &NET), "s");
    m.put("simkit.busy_s.data_cpu", busy(data, &[CPU]), "s");
    m.put("simkit.busy_s.data_net", busy(data, &NET), "s");
    m.put("simkit.busy_s.data_disk", busy(data, &[DISK]), "s");
    m.put("simkit.wait_s.data_cpu", wait(data, &[CPU]), "s");
    m.put("simkit.wait_s.data_net", wait(data, &NET), "s");
    m.put("simkit.wait_s.data_disk", wait(data, &[DISK]), "s");

    // jl-engine: node dispatch self time, by role.
    let c = Role::Compute as usize;
    let d = Role::Data as usize;
    m.put("engine.compute.self_s", s(a.self_ns(Role::Compute)), "s");
    m.put("engine.compute.calls", a.messages[c] as f64, "count");
    m.put("engine.compute.timers", a.timers[c] as f64, "count");
    m.put("engine.data.self_s", s(a.self_ns(Role::Data)), "s");
    m.put(
        "engine.data.calls",
        (a.messages[d] + a.timers[d]) as f64,
        "count",
    );
    m.put(
        "engine.controller.self_s",
        s(a.self_ns(Role::Controller)),
        "s",
    );
    m.put("engine.build_s", t.build_s, "s");
    m.put("engine.gather_s", t.gather_s, "s");
    m.put("engine.data_cpu_skew", r.data_cpu_skew(), "ratio");

    // Decision plane.
    let policy_ns: u64 = a.policy_ns.iter().sum();
    m.put("core.policy_s", s(policy_ns), "s");
    m.put("core.decide_calls", a.decide as f64, "count");
    m.put("core.feedback_calls", a.feedback as f64, "count");
    m.put("core.hit_calls", a.hit as f64, "count");
    m.put("core.invalidate_calls", a.invalidate as f64, "count");
    m.put("core.rent_share", ratio(a.rent, a.decide), "ratio");
    m.put(
        "core.bounced_local",
        r.decisions.bounced_local as f64,
        "count",
    );

    // jl-cache.
    let cs = &r.cache;
    m.put(
        "cache.hit_ratio",
        ratio(
            cs.mem_hits + cs.disk_hits,
            cs.mem_hits + cs.disk_hits + cs.misses,
        ),
        "ratio",
    );
    m.put("cache.mem_hits", cs.mem_hits as f64, "count");
    m.put("cache.disk_hits", cs.disk_hits as f64, "count");
    m.put("cache.misses", cs.misses as f64, "count");
    m.put("cache.demotions", cs.demotions as f64, "count");
    m.put("cache.promotions", cs.promotions as f64, "count");
    m.put("cache.invalidations", cs.invalidations as f64, "count");

    // jl-store.
    m.put("store.build_s", median(build_s), "s");
    m.put("store.udf_s.compute", s(a.udf_ns[c]), "s");
    m.put("store.udf_s.data", s(a.udf_ns[d]), "s");
    m.put("store.udf_calls", a.udf_calls as f64, "count");

    // jl-loadbalance.
    m.put("loadbalance.batches", r.data.batches as f64, "count");
    m.put(
        "loadbalance.executed_here",
        r.data.executed_here as f64,
        "count",
    );
    m.put(
        "loadbalance.bounce_ratio",
        ratio(r.data.bounced, r.data.compute_requests),
        "ratio",
    );

    // jl-workloads.
    m.put("workloads.gen_s", median(gen_s), "s");

    // The benchmark itself: the traced wall against the untraced one, and
    // the part of it no layer above accounts for.
    let self_times = s(a.self_ns(Role::Compute))
        + s(a.self_ns(Role::Data))
        + s(a.self_ns(Role::Controller))
        + s(policy_ns)
        + s(a.udf_ns.iter().sum())
        + simkit_self;
    let attributed = t.build_s + self_times + t.gather_s;
    m.put("bench.trace_overhead", t.wall_s / untraced, "ratio");
    m.put("bench.unattributed_s", t.wall_s - attributed, "s");
}
