//! Parallel sweeps: independent simulation points (and whole curves)
//! fanned across a std-only scoped worker pool.
//!
//! # Determinism
//!
//! Every sweep runs through the one sweep driver in [`crate::supervise`];
//! the functions here are that driver with `threads` workers, no retries
//! and no chaos, and [`crate::sweep::load_sweep_collect`] is the same
//! driver with one worker on the caller's thread. Every sweep point is
//! seeded by [`crate::sweep::point_seed`] from `(cfg.seed, index)`
//! alone, so a point's simulated schedule is a pure function of the
//! request — not of thread interleaving. The early-abort optimization is
//! made order-independent too: workers publish wedged indices into an
//! atomic low-watermark and skip indices strictly above it, and a final
//! pass stubs **every** index above the *minimum* simulated wedged
//! index. Any index below that minimum was necessarily simulated (it
//! could never have been above the watermark), so the minimum equals
//! the first wedge in index order and the output is `==` at every
//! thread count, point for point, regardless of completion order.
//! `tests/determinism.rs` asserts this end to end, including under
//! random permutations of the work order.
//!
//! # Pool
//!
//! `std::thread::scope` + an atomic cursor over the job list: no
//! channels, no new crates, workers borrow the network/policy directly.
//! Each sweep worker keeps one reusable [`crate::Engine`] (via
//! `PointRunner`), so per-point allocation cost is paid once per worker.
//! A pool that resolves to one worker runs inline on the caller's thread.

use crate::config::SimConfig;
use crate::ledger::{LedgerConfig, PointLedger};
use crate::observer::Observers;
use crate::supervise::{SuperviseConfig, SuperviseHooks, Swept};
use crate::sweep::SweepOutcome;
use crate::telemetry::ProbeConfig;
use crate::trace::{PointTrace, TraceConfig};
use d2net_routing::RoutePolicy;
use d2net_topo::Network;
use d2net_traffic::SyntheticPattern;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Resolves a thread-count request: `0` means "auto" — the
/// `D2NET_THREADS` environment variable if set (invalid values emit one
/// coded `ENV_INVALID` WARN and fall back, see [`crate::envcfg`]),
/// otherwise [`std::thread::available_parallelism`].
pub fn resolve_threads(threads: usize) -> usize {
    if threads > 0 {
        return threads;
    }
    if let Some(n) = crate::envcfg::env_positive("D2NET_THREADS") {
        return n as usize;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Workers for a pool whose every run occupies `shards` threads of its
/// own (see [`crate::plan_shards`]): the resolved budget `threads`
/// (`0` = auto) divided between run- and shard-level parallelism instead
/// of oversubscribing the machine, and never less than one.
pub fn pool_workers(threads: usize, shards: usize) -> usize {
    (resolve_threads(threads) / shards.max(1)).max(1)
}

/// Runs `jobs` on a scoped pool of `threads` workers (`0` = auto) and
/// returns their results in job order. The combinator the bench harness
/// uses to fan out whole curves (each job simulating one
/// topology × policy × pattern curve). With one worker the jobs run in
/// order on the caller's thread.
pub fn par_curves<T, F>(jobs: Vec<F>, threads: usize) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let n = jobs.len();
    let threads = resolve_threads(threads).min(n.max(1));
    if threads == 1 {
        return jobs.into_iter().map(|job| job()).collect();
    }
    let jobs: Vec<Mutex<Option<F>>> = jobs.into_iter().map(|f| Mutex::new(Some(f))).collect();
    let results: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let job = jobs[i].lock().unwrap().take().expect("job taken once");
                let result = job();
                *results[i].lock().unwrap() = Some(result);
            });
        }
    });
    results
        .into_iter()
        .map(|m| m.into_inner().unwrap().expect("worker completed this job"))
        .collect()
}

/// The sweep driver as a plain sweep: `threads` workers, no retries, no
/// chaos, no hooks.
#[allow(clippy::too_many_arguments)]
fn plain_sweep(
    net: &Network,
    policy: &RoutePolicy,
    pattern: &SyntheticPattern,
    loads: &[f64],
    duration_ns: u64,
    warmup_ns: u64,
    cfg: SimConfig,
    threads: usize,
    order: Option<&[usize]>,
    observers: Observers,
) -> Swept {
    let sup = SuperviseConfig {
        max_retries: 0,
        chaos: None,
        threads,
        ..SuperviseConfig::default()
    };
    crate::supervise::sweep(
        net,
        policy,
        pattern,
        loads,
        duration_ns,
        warmup_ns,
        cfg,
        &sup,
        &SuperviseHooks::default(),
        order,
        observers,
    )
}

/// [`crate::load_sweep_collect`] fanned across `threads` workers
/// (`0` = auto). Output is `==` to the serial sweep's, point for point;
/// the notices are returned, never printed (callers route them into the
/// report layer).
#[allow(clippy::too_many_arguments)]
pub fn par_load_sweep_collect(
    net: &Network,
    policy: &RoutePolicy,
    pattern: &SyntheticPattern,
    loads: &[f64],
    duration_ns: u64,
    warmup_ns: u64,
    cfg: SimConfig,
    threads: usize,
) -> SweepOutcome {
    let observers = Observers::default();
    plain_sweep(net, policy, pattern, loads, duration_ns, warmup_ns, cfg, threads, None, observers)
        .outcome
}

/// [`par_load_sweep_collect`] with an observability probe attached to
/// every simulated point; each [`crate::SweepPoint`] carries its
/// telemetry summary.
#[allow(clippy::too_many_arguments)]
pub fn par_load_sweep_probed_collect(
    net: &Network,
    policy: &RoutePolicy,
    pattern: &SyntheticPattern,
    loads: &[f64],
    duration_ns: u64,
    warmup_ns: u64,
    cfg: SimConfig,
    probe: ProbeConfig,
    threads: usize,
) -> SweepOutcome {
    let observers = Observers {
        probe: Some(probe),
        ..Observers::default()
    };
    plain_sweep(net, policy, pattern, loads, duration_ns, warmup_ns, cfg, threads, None, observers)
        .outcome
}

/// [`par_load_sweep_collect`] with a [`TraceConfig`] attached to every
/// simulated point. Returns one [`PointTrace`] per surviving simulated
/// point, merged by point index — wedge-stubbed and panicked points have
/// none — so the traces, and any file exported from them, are
/// byte-identical at every thread count and completion order.
#[allow(clippy::too_many_arguments)]
pub fn par_load_sweep_traced_collect(
    net: &Network,
    policy: &RoutePolicy,
    pattern: &SyntheticPattern,
    loads: &[f64],
    duration_ns: u64,
    warmup_ns: u64,
    cfg: SimConfig,
    trace: TraceConfig,
    threads: usize,
) -> (SweepOutcome, Vec<PointTrace>) {
    let observers = Observers {
        trace: Some(trace),
        ..Observers::default()
    };
    let out = plain_sweep(
        net, policy, pattern, loads, duration_ns, warmup_ns, cfg, threads, None, observers,
    );
    (out.outcome, out.traces)
}

/// [`par_load_sweep_collect`] with a [`LedgerConfig`] attached to every
/// simulated point. Ledgers are merged by point index like traces, so
/// they — and any manifest serialized from them — are byte-identical at
/// every thread count and completion order.
#[allow(clippy::too_many_arguments)]
pub fn par_load_sweep_ledgered_collect(
    net: &Network,
    policy: &RoutePolicy,
    pattern: &SyntheticPattern,
    loads: &[f64],
    duration_ns: u64,
    warmup_ns: u64,
    cfg: SimConfig,
    ledger: LedgerConfig,
    threads: usize,
) -> (SweepOutcome, Vec<PointLedger>) {
    let observers = Observers {
        ledger: Some(ledger),
        ..Observers::default()
    };
    let out = plain_sweep(
        net, policy, pattern, loads, duration_ns, warmup_ns, cfg, threads, None, observers,
    );
    (out.outcome, out.ledgers)
}

/// [`par_load_sweep_collect`] with an explicit work order — the audit
/// hook for the scheduling-independence property test: `order` is the
/// sequence in which the pool hands out point indices, and the result
/// must be identical for every permutation.
///
/// # Panics
///
/// If `order` is not a permutation of the point indices.
#[allow(clippy::too_many_arguments)]
pub fn par_load_sweep_with_order(
    net: &Network,
    policy: &RoutePolicy,
    pattern: &SyntheticPattern,
    loads: &[f64],
    duration_ns: u64,
    warmup_ns: u64,
    cfg: SimConfig,
    threads: usize,
    order: &[usize],
) -> SweepOutcome {
    let observers = Observers::default();
    let order = Some(order);
    plain_sweep(net, policy, pattern, loads, duration_ns, warmup_ns, cfg, threads, order, observers)
        .outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_curves_preserves_job_order() {
        let jobs: Vec<_> = (0..37)
            .map(|i| move || i * i)
            .collect();
        let out = par_curves(jobs, 4);
        assert_eq!(out, (0..37).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn par_curves_runs_with_single_thread_and_empty_input() {
        assert_eq!(par_curves(Vec::<fn() -> u8>::new(), 3), Vec::<u8>::new());
        let jobs = vec![|| "a", || "b"];
        assert_eq!(par_curves(jobs, 1), vec!["a", "b"]);
    }

    #[test]
    fn resolve_threads_prefers_explicit_request() {
        assert_eq!(resolve_threads(7), 7);
        assert!(resolve_threads(0) >= 1);
    }

    #[test]
    fn pool_workers_divide_the_budget_by_the_shard_count() {
        assert_eq!(pool_workers(8, 1), 8);
        assert_eq!(pool_workers(8, 4), 2);
        assert_eq!(pool_workers(8, 3), 2, "rounds down");
        assert_eq!(pool_workers(2, 8), 1, "never below one worker");
        assert_eq!(pool_workers(6, 0), 6, "a zero shard count reads as serial");
        assert_eq!(pool_workers(0, 1), resolve_threads(0));
    }
}
