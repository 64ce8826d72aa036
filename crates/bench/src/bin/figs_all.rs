//! Regenerates every figure of the paper in one run. `--faults` appends
//! the chaos figure (crash + straggler + lossy link), which is not part
//! of the paper's evaluation and therefore opt-in.
//!
//! `--trace <path>` (or `JL_TRACE=<path>`) additionally runs the canonical
//! traced chaos cell and writes a Perfetto-loadable Chrome trace plus a
//! metrics snapshot; the figure runs themselves stay telemetry-free.

use jl_bench::{fig11, fig5, fig6, fig7, fig8, fig9, fig_chaos, parse_args_full, write_trace};
use jl_workloads::SyntheticSpec;

fn main() {
    let args = parse_args_full(1.0);
    let (scale, seed) = (args.scale, args.seed);
    let faults = std::env::args().any(|a| a == "--faults");
    println!("{}", fig5(scale, seed).render());
    println!("{}", fig6(scale, seed).render());
    println!("{}", fig7(scale, seed).render());
    for spec in SyntheticSpec::all() {
        println!("{}", fig8(&spec, scale, seed).render());
    }
    println!("{}", fig9(scale, seed).render());
    for spec in SyntheticSpec::all() {
        println!("{}", fig11(&spec, scale, seed).render());
    }
    if faults {
        println!("{}", fig_chaos(scale, seed).render());
    }
    if let Some(path) = args.trace {
        write_trace(&path, scale, seed);
    }
}
