//! The lab: every experiment of the paper, exactly as `stlab all` runs them.

use st_lab::{run_experiment, LabConfig, ALL_EXPERIMENTS};

use crate::trace::Tracer;
use crate::util::Digest;

pub struct LabResult {
    /// Experiments whose verdict was not `PASS`.
    pub failed: u64,
    /// Fingerprint of every rendered table, note and verdict.
    pub digest: u64,
}

/// Runs e1…e9 under `cfg`, one `lab.<id>` piece each.
pub fn lab_pass(tracer: &Tracer, cfg: &LabConfig) -> LabResult {
    let mut digest = Digest::new();
    let mut failed = 0;
    for id in ALL_EXPERIMENTS {
        let result = tracer
            .piece(&format!("lab.{id}"), id, || (run_experiment(id, cfg), 1))
            .expect("ALL_EXPERIMENTS names known experiments");
        if !result.pass {
            eprintln!("{id}: verdict FAIL\n{}", result.render());
            failed += 1;
        }
        digest.bytes(result.render().as_bytes());
    }
    LabResult {
        failed,
        digest: digest.finish(),
    }
}
