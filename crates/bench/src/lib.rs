//! # mpa-bench — reproduction and benchmark harness
//!
//! * [`fixtures`] — cached dataset + inference fixtures at several scales
//!   (generation and inference are deterministic, so caching is sound).
//! * [`experiments`] — one regenerator per table/figure of the paper; each
//!   returns the printable artifact, so the `repro` binary and the criterion
//!   benches share the exact same code paths.
//! * [`pipeline_bench`] — wall-clock benchmark of the generate → infer →
//!   MI pipeline across thread counts (`repro --bench-out`), with a
//!   built-in determinism cross-check.
//! * [`serve_load`] — closed-loop HTTP load generator for the `mpa-serve`
//!   daemon (`mpa-loadgen`), producing the `BENCH_serve.json` artifact.

pub mod experiments;
pub mod fixtures;
pub mod pipeline_bench;
pub mod serve_load;

pub use fixtures::{Fixture, FixtureScale};
pub use pipeline_bench::{
    assemble_pipeline_bench, run_pipeline_bench, run_pipeline_single, PipelineBench, PipelineRun,
    SingleRun,
};
pub use serve_load::{run_load, LoadConfig, ServeBench};
