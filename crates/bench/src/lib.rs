//! # jl-bench — figure regeneration and ablations
//!
//! One binary per figure of the paper's evaluation (`fig5_clueweb`,
//! `fig6_twitter`, `fig7_tpcds`, `fig8_synthetic`, `fig9_adaptive`,
//! `fig11_muppet`, plus `figs_all`), ablation binaries, and Criterion
//! micro-benchmarks over the core data structures. See EXPERIMENTS.md for
//! paper-vs-measured tables.
//!
//! Also home of the [`serve`] layer and its `jl-serve` binary: the same
//! engine on the wall-clock backend, answering a live request stream.

#![warn(missing_docs)]

pub mod experiments;
pub mod observe;
pub mod output;
pub mod serve;

pub use experiments::{
    bench_threads, chaos_fault_plan, chaos_retry, check_elastic_invariants, fig11, fig5, fig6,
    fig7, fig8, fig9, fig_chaos, fig_elastic, fig_overload, overload_bounded_config,
    run_chaos_churn_report, run_chaos_report, run_elastic_stream, run_grid, run_overload_stream,
    traced_chaos_run, traced_chaos_run_with, ElasticCell, OverloadCell, CHAOS_STRATEGIES,
    ELASTIC_PEAK_LOAD, ELASTIC_TROUGH_LOAD, SKEWS,
};
pub use observe::{ObserveConfig, ServeLive, ServeShared};
pub use output::FigTable;
pub use serve::{serve, serve_observed, ServeConfig, ServeStats};

/// Arguments shared by the figure binaries.
pub struct BenchArgs {
    /// Input-volume scale (1.0 = figure scale).
    pub scale: f64,
    /// Base seed for every per-cell RNG stream.
    pub seed: u64,
    /// Where to write the Chrome trace-event JSON of the canonical traced
    /// run ([`traced_chaos_run`]), from `--trace <path>` or the `JL_TRACE`
    /// environment variable. `None` disables telemetry entirely.
    pub trace: Option<std::path::PathBuf>,
}

/// Parse a `--scale X` style argument list: returns (scale, seed).
///
/// Also honours `--threads N`, which pins the experiment grid's thread
/// count by exporting `JL_BENCH_THREADS` (the variable
/// [`bench_threads`] reads). Thread count never changes results — cells
/// are independent seeded simulations collected in input order — so this
/// is purely a resource-control knob.
pub fn parse_args(default_scale: f64) -> (f64, u64) {
    let a = parse_args_full(default_scale);
    (a.scale, a.seed)
}

/// [`parse_args`] plus the tracing flags: `--trace <path>` (or the
/// `JL_TRACE` environment variable, the flag winning when both are set)
/// selects a Chrome trace-event output file; the metrics snapshot lands
/// next to it with a `.metrics.json` extension.
pub fn parse_args_full(default_scale: f64) -> BenchArgs {
    let mut scale = default_scale;
    let mut seed = 42u64;
    let mut trace: Option<std::path::PathBuf> = std::env::var_os("JL_TRACE")
        .filter(|v| !v.is_empty())
        .map(Into::into);
    let args: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" if i + 1 < args.len() => {
                scale = args[i + 1].parse().unwrap_or(default_scale);
                i += 2;
            }
            "--seed" if i + 1 < args.len() => {
                seed = args[i + 1].parse().unwrap_or(42);
                i += 2;
            }
            "--trace" if i + 1 < args.len() => {
                trace = Some(args[i + 1].clone().into());
                i += 2;
            }
            "--threads" if i + 1 < args.len() => {
                if let Ok(n) = args[i + 1].parse::<usize>() {
                    if n >= 1 {
                        std::env::set_var("JL_BENCH_THREADS", n.to_string());
                    }
                }
                i += 2;
            }
            _ => i += 1,
        }
    }
    BenchArgs { scale, seed, trace }
}

/// Run the canonical traced chaos cell and write its Chrome trace-event
/// JSON to `path` and the metrics snapshot to `path` with a
/// `.metrics.json` extension. Figure binaries call this when `--trace` /
/// `JL_TRACE` is set; load the trace in Perfetto (ui.perfetto.dev) or
/// `chrome://tracing`.
pub fn write_trace(path: &std::path::Path, scale: f64, seed: u64) {
    let (report, tel) = traced_chaos_run(scale, seed);
    std::fs::write(path, tel.to_chrome_json())
        .unwrap_or_else(|e| panic!("cannot write trace {}: {e}", path.display()));
    let metrics_path = path.with_extension("metrics.json");
    std::fs::write(&metrics_path, tel.metrics_json())
        .unwrap_or_else(|e| panic!("cannot write metrics {}: {e}", metrics_path.display()));
    eprintln!(
        "trace: {} events -> {} (metrics -> {}); chaos run: retries={} failovers={} dropped={}",
        tel.events.len(),
        path.display(),
        metrics_path.display(),
        report.retries,
        report.failovers,
        report.dropped_messages,
    );
}

/// End-of-run trace hook for binaries that still use the two-value
/// [`parse_args`]: re-reads the process arguments and writes the canonical
/// trace if `--trace <path>` / `JL_TRACE` was given, otherwise does
/// nothing.
pub fn write_trace_if_requested(scale: f64, seed: u64) {
    let args = parse_args_full(scale);
    if let Some(path) = args.trace {
        write_trace(&path, scale, seed);
    }
}
