//! End-to-end and per-layer benchmark of the d2net workspace. See
//! `README.md` in this directory for the workloads and how to read the
//! output.

pub mod digest;
pub mod json;
pub mod record;
pub mod spans;
pub mod workloads;

use record::{Fingerprint, Record};
use std::path::Path;
use workloads::{Sizes, Workload, DEFAULT_SEED};

/// Pins the thread budget: every thread the run uses comes from one
/// budget of the machine's parallelism (`D2NET_THREADS`), shard counts
/// come from the library's own auto policy, and no fault injection is
/// armed. Call before any thread is spawned.
pub fn pin_environment() {
    std::env::remove_var("D2NET_SHARDS");
    std::env::remove_var("D2NET_CHAOS");
    std::env::set_var("D2NET_THREADS", workloads::threads().to_string());
}

/// Runs one workload and returns its record; `out_dir` receives the
/// served request's manifest and journal, and `exe` is the benchmark's
/// binary, which the untraced run starts once to measure memory.
pub fn run(
    w: Workload,
    sizes: &Sizes,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
    out_dir: &Path,
    exe: &Path,
) -> Record {
    let s = seed.unwrap_or(DEFAULT_SEED);
    let result = if trace {
        workloads::run_traced(w, sizes, s, out_dir)
    } else {
        workloads::run_untraced(w, sizes, s, seconds, out_dir, exe)
    };
    let mut notes = result.notes;
    if let Some(spans) = result.spans {
        notes.push(("spans".to_string(), spans));
    }
    Record {
        workload: w.name().to_string(),
        seed: s,
        seed_given: seed.is_some(),
        default_seed: DEFAULT_SEED,
        trace,
        smoke: sizes.smoke,
        seconds,
        fingerprint: Fingerprint::of_this_host(),
        attempted: result.verdicts.attempted,
        failed: result.verdicts.failed,
        metrics: result.metrics,
        checks: result.verdicts.checks,
        notes,
    }
}
