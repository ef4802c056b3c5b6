//! One module per group of layers; each is a set of functions that call the
//! crates' public API inside spans. Workload passes are built from them at
//! full size, and a traced run calls the groups a workload bypasses at a
//! small fixed size, so every per-layer metric is measured on every run.

pub mod analyzer;
pub mod fleet;
pub mod lab;
pub mod ladder;
pub mod serve;
pub mod store;
