//! The benchmark of record for the VQ-LLM reproduction.
//!
//! Four seeded workloads drive the repository's serving stack from the
//! outside — straight into [`vq_llm::Engine`], through an in-process
//! [`vq_llm::Client`], or over loopback TCP — and report end-to-end
//! metrics from an untraced measured phase plus per-layer metrics from a
//! separate traced run. `BENCHMARK.json` at the repository root is the
//! contract; `README.md` beside this crate is the glossary.
//!
//! Everything here times **public** calls of the repository's crates; it
//! edits nothing under `src/` or `crates/`.

pub mod check;
pub mod compare;
pub mod direct;
pub mod gen;
pub mod inproc;
pub mod load;
pub mod probe;
pub mod report;
pub mod run;
pub mod setup;
pub mod spec;
pub mod speed;
pub mod stats;
pub mod tcp;
pub mod trace;
