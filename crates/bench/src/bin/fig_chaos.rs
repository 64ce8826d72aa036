//! Regenerates the chaos figure: throughput and tail latency under a
//! crash-and-recover scenario (plus a straggler and a lossy link) for the
//! NO / FC / FO strategies, with timeout/retry/failover enabled.
//!
//! Usage: `fig_chaos [--scale F] [--seed N] [--threads N] [--trace PATH]`
//!
//! `--trace <path>` (or `JL_TRACE=<path>`) re-runs the full-optimizer cell
//! with telemetry recording and writes a Perfetto-loadable Chrome trace
//! plus a `.metrics.json` snapshot next to it.

use jl_bench::{fig_chaos, parse_args_full, write_trace};

fn main() {
    let args = parse_args_full(1.0);
    println!("{}", fig_chaos(args.scale, args.seed).render());
    if let Some(path) = args.trace {
        write_trace(&path, args.scale, args.seed);
    }
}
