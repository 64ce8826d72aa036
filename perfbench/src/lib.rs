//! The repository benchmark: four seeded workloads driven through the
//! program's public functions, end-to-end metrics measured with tracing
//! off, and a separate traced run that times every layer at its public
//! boundary. See `README.md` in this directory.

pub mod gen;
pub mod host;
pub mod layers;
pub mod report;
pub mod run;
pub mod serve_load;
