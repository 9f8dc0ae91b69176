//! The sweep driver, and the supervision it offers.
//!
//! Every load sweep — serial, parallel or supervised — runs through the
//! one driver here: a scoped worker pool with an atomic claim cursor,
//! the wedge low-watermark, and one final pass that assembles points,
//! notices, observer outputs and accounting in index order. The
//! executors are settings of that driver:
//!
//! - a **serial** sweep ([`crate::load_sweep_collect`]) runs one worker,
//!   inline on the caller's thread;
//! - a **parallel** sweep ([`crate::par`]) runs `threads` workers;
//! - a **plain** sweep (either of the above) runs with `max_retries: 0`
//!   and no chaos, so a panicking point is isolated into a coded stub
//!   and a budget-exhausted point keeps its partial stats, once.
//!
//! A supervised sweep adds deterministic seeded **retries** for points
//! that fail (panic or budget exhaustion), a seeded **chaos registry**
//! that injects panics and stalls inside the engine so the supervisor
//! is itself testable, per-point **completion hooks** (the durable
//! journal in `d2net-core` appends from them), **resume** from
//! previously completed points, and a cooperative **stop** signal for
//! graceful drains (the batch service's SIGTERM path).
//!
//! # Determinism contract
//!
//! With chaos disabled and no budget configured, a supervised sweep is
//! `==` to a plain sweep at any thread count — points, notices,
//! everything. Every point retries from the *same* index-derived seed,
//! so a point that succeeds on a retry is byte-identical to one that
//! never failed; chaos decisions are a pure function of `(chaos seed,
//! point seed, attempt)`, so a chaos run is reproducible end to end.

use crate::config::{ChaosKind, EngineChaos, SimConfig};
use crate::ledger::{EngineLedger, PointLedger};
use crate::shard::{Observers, RunOutput};
use crate::stats::SyntheticStats;
use crate::sweep::{point_seed, PointRunner, SweepNotice, SweepOutcome, SweepPoint};
use crate::trace::{EngineTrace, PointTrace};
use d2net_routing::RoutePolicy;
use d2net_topo::Network;
use d2net_traffic::SyntheticPattern;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// SplitMix64-style mix of three words — the one hash behind chaos
/// decisions and backoff jitter, so both are pure functions of their
/// inputs.
fn mix3(a: u64, b: u64, c: u64) -> u64 {
    let mut z = a
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(b.rotate_left(17))
        .wrapping_add(c.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The fault-injection registry: seeded, deterministic probabilities of
/// an injected panic or stall per `(point, attempt)`. Parsed from the
/// `D2NET_CHAOS` environment variable (`panic=0.05,stall=0.02,seed=7`)
/// or built directly in tests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosConfig {
    /// Probability an attempt panics mid-run.
    pub panic_p: f64,
    /// Probability an attempt stalls (stops making event progress until
    /// its wall budget trips — see [`crate::config::ChaosKind::Stall`]).
    pub stall_p: f64,
    /// Registry seed; decisions are pure in `(seed, point seed, attempt)`.
    pub seed: u64,
}

impl ChaosConfig {
    /// Parses the `D2NET_CHAOS` grammar: comma-separated `key=value`
    /// pairs with keys `panic`, `stall` (probabilities in `[0, 1]`) and
    /// `seed` (u64). Unmentioned keys default to zero.
    pub fn parse(raw: &str) -> Result<Self, String> {
        let mut out = ChaosConfig {
            panic_p: 0.0,
            stall_p: 0.0,
            seed: 0,
        };
        for part in raw.split(',').filter(|p| !p.trim().is_empty()) {
            let (key, val) = part
                .split_once('=')
                .ok_or_else(|| format!("expected key=value, got '{part}'"))?;
            match key.trim() {
                "panic" | "stall" => {
                    let p: f64 = val
                        .trim()
                        .parse()
                        .map_err(|_| format!("'{val}' is not a probability"))?;
                    if !(0.0..=1.0).contains(&p) {
                        return Err(format!("probability {p} outside [0, 1]"));
                    }
                    if key.trim() == "panic" {
                        out.panic_p = p;
                    } else {
                        out.stall_p = p;
                    }
                }
                "seed" => {
                    out.seed = val
                        .trim()
                        .parse()
                        .map_err(|_| format!("'{val}' is not a u64 seed"))?;
                }
                other => return Err(format!("unknown chaos key '{other}'")),
            }
        }
        Ok(out)
    }

    /// Reads `D2NET_CHAOS`. Unset (or set to a registry with zero
    /// probabilities) means no chaos; an unparsable value emits one
    /// coded `ENV_INVALID` WARN and disables chaos rather than guessing.
    pub fn from_env() -> Option<Self> {
        let raw = std::env::var("D2NET_CHAOS").ok()?;
        match Self::parse(&raw) {
            Ok(c) if c.panic_p > 0.0 || c.stall_p > 0.0 => Some(c),
            Ok(_) => None,
            Err(e) => {
                crate::obs::warn_line(
                    "env_invalid",
                    &format!("d2net: WARN ENV_INVALID D2NET_CHAOS='{raw}' ({e}); chaos disabled"),
                );
                None
            }
        }
    }

    /// The registry's verdict for one `(point, attempt)`: `None` (run
    /// clean) or an armed [`EngineChaos`] with a derived fire point.
    /// Pure, so the same sweep under the same registry always fails at
    /// the same points — and a retry (higher `attempt`) re-rolls.
    pub fn decide(&self, pseed: u64, attempt: u32) -> Option<EngineChaos> {
        let r = mix3(self.seed, pseed, attempt as u64);
        let u = (r >> 11) as f64 / (1u64 << 53) as f64;
        let kind = if u < self.panic_p {
            ChaosKind::Panic
        } else if u < self.panic_p + self.stall_p {
            ChaosKind::Stall
        } else {
            return None;
        };
        let after_events = 50 + mix3(self.seed ^ 0xA5A5, pseed, attempt as u64) % 4_000;
        Some(EngineChaos { kind, after_events })
    }
}

/// Supervisor policy: how many retries a failing point gets and how the
/// deterministic backoff between attempts is sized.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SuperviseConfig {
    /// Retries per point after the first attempt (so a point runs at
    /// most `1 + max_retries` times).
    pub max_retries: u32,
    /// Base backoff in milliseconds; attempt `k` sleeps
    /// `base << k` plus a seeded jitter in `[0, base)`.
    pub backoff_base_ms: u64,
    /// Fault-injection registry; `None` runs clean.
    pub chaos: Option<ChaosConfig>,
    /// Worker threads (`0` = auto, same resolution as
    /// [`crate::par::resolve_threads`]).
    pub threads: usize,
}

impl Default for SuperviseConfig {
    fn default() -> Self {
        SuperviseConfig {
            max_retries: 2,
            backoff_base_ms: 5,
            chaos: None,
            threads: 0,
        }
    }
}

/// Deterministic backoff for retry `attempt` of the point seeded
/// `pseed`: exponential in the attempt with a seeded jitter, no global
/// RNG — two runs of the same sweep sleep identically.
pub fn backoff_ms(cfg: &SuperviseConfig, pseed: u64, attempt: u32) -> u64 {
    let base = cfg.backoff_base_ms.max(1);
    (base << attempt.min(6)) + mix3(0xB0FF, pseed, attempt as u64) % base
}

/// Per-category point counts for the run's `"supervision"` report
/// section. `completed` counts points simulated to a real result this
/// run (wedges included — a wedge is a result); the other counters are
/// the exceptional paths. Counters need not sum to the point count:
/// early-abort stubs are in no category.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SupervisionSummary {
    pub completed: usize,
    /// Points that succeeded only after at least one retry.
    pub retried: usize,
    /// Points whose final outcome (after retries) was budget exhaustion.
    pub exhausted: usize,
    /// Points whose final outcome (after retries) was an isolated panic.
    pub panicked: usize,
    /// Points prefilled from a resume journal instead of simulated.
    pub skipped_by_resume: usize,
    /// Points never started because the stop signal fired first.
    pub not_run: usize,
}

impl SupervisionSummary {
    /// True when the run had nothing to report beyond plain completions
    /// — the condition under which the manifest omits the section
    /// entirely, keeping supervised output byte-identical to
    /// unsupervised output.
    pub fn is_trivial(&self) -> bool {
        self.retried == 0
            && self.exhausted == 0
            && self.panicked == 0
            && self.skipped_by_resume == 0
            && self.not_run == 0
    }
}

/// A supervised sweep's outcome plus its supervision accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct SupervisedSweep {
    pub outcome: SweepOutcome,
    pub summary: SupervisionSummary,
}

/// A completion-hook borrow: `(point index, its stats)`, callable from
/// worker threads.
pub type OnPointHook<'h> = &'h (dyn Fn(usize, &SyntheticStats) + Sync);

/// Caller hooks threaded through a supervised sweep. All default to
/// inert; every field is optional so plain callers pass
/// `SuperviseHooks::default()`.
#[derive(Default)]
pub struct SuperviseHooks<'h> {
    /// Resume prefill: `Some(stats)` at index `i` replays a previously
    /// journaled result for point `i` instead of simulating it. Length
    /// must equal the load grid's when present.
    pub prefilled: Option<&'h [Option<SyntheticStats>]>,
    /// Cooperative stop: polled before each point is claimed. Once it
    /// returns true, no new points start; in-flight points finish.
    pub stop: Option<&'h (dyn Fn() -> bool + Sync)>,
    /// Completion hook, called from worker threads for every point that
    /// reached a real simulated result this run (the journal's append
    /// point). Not called for resumed, exhausted, panicked, or stubbed
    /// points.
    pub on_point: Option<OnPointHook<'h>>,
}

/// [`crate::par_load_sweep_collect`] under supervision: panics
/// isolated, budgets enforced, failing points retried with seeded
/// backoff, and the outcome annotated with a [`SupervisionSummary`].
#[allow(clippy::too_many_arguments)]
pub fn supervised_load_sweep_collect(
    net: &Network,
    policy: &RoutePolicy,
    pattern: &SyntheticPattern,
    loads: &[f64],
    duration_ns: u64,
    warmup_ns: u64,
    cfg: SimConfig,
    sup: &SuperviseConfig,
) -> SupervisedSweep {
    supervised_load_sweep_hooked(
        net,
        policy,
        pattern,
        loads,
        duration_ns,
        warmup_ns,
        cfg,
        sup,
        &SuperviseHooks::default(),
    )
}

/// The full supervised sweep: [`supervised_load_sweep_collect`] plus
/// resume prefill, a cooperative stop signal, and a per-point
/// completion hook (see [`SuperviseHooks`]).
#[allow(clippy::too_many_arguments)]
pub fn supervised_load_sweep_hooked(
    net: &Network,
    policy: &RoutePolicy,
    pattern: &SyntheticPattern,
    loads: &[f64],
    duration_ns: u64,
    warmup_ns: u64,
    cfg: SimConfig,
    sup: &SuperviseConfig,
    hooks: &SuperviseHooks<'_>,
) -> SupervisedSweep {
    let out = sweep(
        net,
        policy,
        pattern,
        loads,
        duration_ns,
        warmup_ns,
        cfg,
        sup,
        hooks,
        None,
        Observers::default(),
    );
    SupervisedSweep {
        outcome: out.outcome,
        summary: out.summary,
    }
}

/// What the sweep driver hands back: the outcome, its supervision
/// accounting, and the observers' per-point outputs in index order.
pub(crate) struct Swept {
    pub(crate) outcome: SweepOutcome,
    pub(crate) summary: SupervisionSummary,
    pub(crate) traces: Vec<PointTrace>,
    pub(crate) ledgers: Vec<PointLedger>,
}

/// The one sweep driver. `sup.threads` workers (`0` = auto, divided by
/// the points' shard count) claim points in `order` (index order when
/// `None`), each on its own reusable point engine with `observers`
/// attached; one worker runs inline on the caller's thread. `sup` sets
/// retries and chaos, `hooks` the resume prefill, stop signal and
/// completion hook. A rejected configuration comes back as stubs plus
/// one `rejected` notice.
///
/// # Panics
///
/// If `order` is not a permutation of the point indices, or a prefill
/// does not cover every point.
#[allow(clippy::too_many_arguments)]
pub(crate) fn sweep(
    net: &Network,
    policy: &RoutePolicy,
    pattern: &SyntheticPattern,
    loads: &[f64],
    duration_ns: u64,
    warmup_ns: u64,
    cfg: SimConfig,
    sup: &SuperviseConfig,
    hooks: &SuperviseHooks<'_>,
    order: Option<&[usize]>,
    observers: Observers,
) -> Swept {
    let n = loads.len();
    if let Some(pre) = hooks.prefilled {
        assert_eq!(pre.len(), n, "prefill must cover every point");
    }
    if let Some(order) = order {
        let mut seen = vec![false; n];
        assert!(
            order.len() == n
                && order.iter().all(|&i| i < n && !std::mem::replace(&mut seen[i], true)),
            "work order must be a permutation of the point indices"
        );
    }
    // One static pass covers every load point: verification is
    // load-independent, so the per-point configs run with it disabled.
    let rejected = |reason| Swept {
        outcome: crate::sweep::rejected_outcome(loads, reason),
        summary: SupervisionSummary::default(),
        traces: Vec::new(),
        ledgers: Vec::new(),
    };
    let cfg = match crate::engine::try_preflight_once(net, policy, cfg) {
        Ok(cfg) => cfg,
        Err(e) => return rejected(e),
    };
    if let Err(e) = PointRunner::try_new(net, policy, pattern, cfg, duration_ns, warmup_ns) {
        return rejected(e);
    }
    // Each point of a sharded sweep occupies `shards` worker threads of
    // its own (see `crate::shard`); divide the one budget between
    // point- and shard-level parallelism instead of oversubscribing.
    let shards = crate::shard::plan_shards(net, policy, &cfg);
    let threads = (crate::par::resolve_threads(sup.threads) / shards)
        .max(1)
        .min(n.max(1));
    let point = || {
        let mut runner = PointRunner::try_new(net, policy, pattern, cfg, duration_ns, warmup_ns)
            .expect("validated before spawning workers");
        move |idx: usize, load: f64, chaos: Option<EngineChaos>| {
            runner.set_chaos(chaos);
            runner.run_point_isolated(idx, load, observers)
        }
    };
    drive(loads, cfg.seed, threads, sup, hooks, order, point)
}

/// How one slot ended — drives notices and accounting in the final pass.
enum SlotFate {
    /// Simulated to a real result this run, after `retries` retries.
    Fresh { retries: u32 },
    /// Prefilled from the resume journal.
    Resumed,
    /// Final outcome was budget exhaustion (the slot holds the last
    /// attempt's partial measurements).
    Exhausted,
    /// Final outcome was an isolated panic (the point is a panicked stub).
    Panicked { msg: String },
}

/// One finished point: its curve entry, its observers' outputs and how
/// it ended.
struct Slot {
    point: SweepPoint,
    trace: Option<EngineTrace>,
    ledger: Option<EngineLedger>,
    fate: SlotFate,
}

impl Slot {
    fn ran(load: f64, out: RunOutput, fate: SlotFate) -> Self {
        Slot {
            point: SweepPoint {
                load,
                stats: out.stats,
                telemetry: out.telemetry.map(|r| r.summary()),
            },
            trace: out.trace,
            ledger: out.ledger,
            fate,
        }
    }

    fn bare(load: f64, stats: SyntheticStats, fate: SlotFate) -> Self {
        Slot {
            point: SweepPoint {
                load,
                stats,
                telemetry: None,
            },
            trace: None,
            ledger: None,
            fate,
        }
    }

    /// A genuine wedge, which arms the early abort. A panicked point's
    /// stub also reads `deadlocked`, but a panic is an isolated fault,
    /// not evidence the network deadlocks at every higher load.
    /// (`deadlocked` and `exhausted` are mutually exclusive: a budget
    /// abort returns before the wedge check runs.)
    fn wedged(&self) -> bool {
        self.point.stats.deadlocked && !matches!(self.fate, SlotFate::Panicked { .. })
    }
}

/// The driver's worker loop and final pass. `point` builds one worker's
/// point function, `(index, load, chaos) → run or panic message` — a
/// parameter so the unit tests can drive the loop with synthetic points;
/// the loop seeds chaos and backoff from `point_seed(seed, index)`.
fn drive<P>(
    loads: &[f64],
    seed: u64,
    threads: usize,
    sup: &SuperviseConfig,
    hooks: &SuperviseHooks<'_>,
    order: Option<&[usize]>,
    point: impl Fn() -> P + Sync,
) -> Swept
where
    P: FnMut(usize, f64, Option<EngineChaos>) -> Result<RunOutput, String>,
{
    let n = loads.len();
    crate::obs::sweep_started(n);
    let results: Vec<Mutex<Option<Slot>>> = (0..n).map(|_| Mutex::new(None)).collect();
    // Low-watermark of wedged point indices: workers skip indices
    // strictly above it instead of burning a full simulated horizon on a
    // point the final pass will stub.
    let watermark = AtomicUsize::new(usize::MAX);
    // Replay the prefill before any worker starts: resumed wedges arm
    // the watermark exactly like freshly simulated ones.
    if let Some(pre) = hooks.prefilled {
        for (idx, stats) in pre.iter().enumerate() {
            if let Some(stats) = stats {
                let slot = Slot::bare(loads[idx], stats.clone(), SlotFate::Resumed);
                if slot.wedged() {
                    watermark.fetch_min(idx, Ordering::Relaxed);
                }
                *results[idx].lock().unwrap() = Some(slot);
            }
        }
    }
    let cursor = AtomicUsize::new(0);
    let worker = || {
        let mut run = point();
        loop {
            if hooks.stop.is_some_and(|stop| stop()) {
                break;
            }
            let k = cursor.fetch_add(1, Ordering::Relaxed);
            if k >= n {
                break;
            }
            let idx = order.map_or(k, |order| order[k]);
            if results[idx].lock().unwrap().is_some() {
                continue; // prefilled by the resume journal
            }
            if idx > watermark.load(Ordering::Relaxed) {
                continue; // will be stubbed by the final pass
            }
            let slot = run_supervised_point(&mut run, idx, loads[idx], point_seed(seed, idx), sup);
            if slot.wedged() {
                watermark.fetch_min(idx, Ordering::Relaxed);
            }
            if let (Some(hook), SlotFate::Fresh { .. }) = (hooks.on_point, &slot.fate) {
                hook(idx, &slot.point.stats);
            }
            *results[idx].lock().unwrap() = Some(slot);
        }
    };
    if threads == 1 {
        worker();
    } else {
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(worker);
            }
        });
    }
    let slots = results.into_iter().map(|m| m.into_inner().unwrap());
    finish(loads, slots.collect())
}

/// The final pass: stubs every point above the first wedge, builds the
/// notices and accounting, and merges observer outputs by index.
fn finish(loads: &[f64], slots: Vec<Option<Slot>>) -> Swept {
    // The minimum genuinely wedged index (fresh or resumed): every lower
    // index was claimed (a skip requires idx > watermark ≥ this
    // minimum), so it is the first wedge in index order whatever the
    // thread count or completion order.
    let first_wedge = slots.iter().position(|s| s.as_ref().is_some_and(Slot::wedged));
    let mut points = Vec::with_capacity(slots.len());
    let mut notices = Vec::new();
    let mut traces = Vec::new();
    let mut ledgers = Vec::new();
    let mut summary = SupervisionSummary::default();
    let mut stubbed: u64 = 0;
    for (idx, slot) in slots.into_iter().enumerate() {
        let load = loads[idx];
        let beyond_wedge = first_wedge.is_some_and(|w| idx > w);
        let Some(slot) = slot.filter(|_| !beyond_wedge) else {
            if beyond_wedge {
                stubbed += 1;
            } else {
                // Never claimed: the stop signal fired first. The stub
                // keeps the curve one-entry-per-load; resume
                // re-simulates it.
                if summary.not_run == 0 {
                    notices.push(SweepNotice::deadline(idx, load));
                }
                summary.not_run += 1;
            }
            points.push(SweepPoint {
                load,
                stats: SyntheticStats::deadlocked_stub(load),
                telemetry: None,
            });
            continue;
        };
        match slot.fate {
            SlotFate::Fresh { retries } => {
                summary.completed += 1;
                if retries > 0 {
                    summary.retried += 1;
                }
            }
            SlotFate::Resumed => summary.skipped_by_resume += 1,
            SlotFate::Exhausted => {
                summary.exhausted += 1;
                notices.push(SweepNotice::exhausted(idx, load));
            }
            SlotFate::Panicked { msg } => {
                summary.panicked += 1;
                notices.push(SweepNotice::panicked(idx, load, &msg));
            }
        }
        if first_wedge == Some(idx) {
            notices.push(SweepNotice::wedged(idx, load));
        }
        // Outputs of points stubbed above (simulated only by racing
        // ahead of the watermark) were dropped with their stats; the
        // survivors are pushed in index order, so merged trace files and
        // ledger manifests are the same at every thread count.
        traces.extend(slot.trace.map(|trace| PointTrace {
            index: idx,
            load,
            trace,
        }));
        ledgers.extend(slot.ledger.map(|ledger| PointLedger {
            index: idx,
            load,
            ledger,
        }));
        points.push(slot.point);
    }
    for notice in &notices {
        crate::obs::notice(notice);
    }
    crate::obs::sweep_finished(&crate::obs::SweepAccounting {
        completed: summary.completed as u64,
        retried: summary.retried as u64,
        panicked: summary.panicked as u64,
        exhausted: summary.exhausted as u64,
        resumed: summary.skipped_by_resume as u64,
        not_run: summary.not_run as u64,
        stubbed,
    });
    Swept {
        outcome: SweepOutcome { points, notices },
        summary,
        traces,
        ledgers,
    }
}

/// One point's retry loop: decide chaos for the attempt, run isolated,
/// retry panics and exhaustions with deterministic backoff, give up
/// into a coded fate after `max_retries`.
fn run_supervised_point<P>(
    point: &mut P,
    idx: usize,
    load: f64,
    pseed: u64,
    sup: &SuperviseConfig,
) -> Slot
where
    P: FnMut(usize, f64, Option<EngineChaos>) -> Result<RunOutput, String>,
{
    let mut attempt: u32 = 0;
    loop {
        let chaos = sup.chaos.as_ref().and_then(|c| c.decide(pseed, attempt));
        if let Some(c) = &chaos {
            let kind = match c.kind {
                ChaosKind::Panic => "panic",
                ChaosKind::Stall => "stall",
            };
            crate::obs::chaos_armed(idx, attempt, kind, c.after_events);
        }
        let reason = match point(idx, load, chaos) {
            Ok(out) if !out.stats.exhausted => {
                return Slot::ran(load, out, SlotFate::Fresh { retries: attempt });
            }
            Ok(out) => {
                if attempt >= sup.max_retries {
                    return Slot::ran(load, out, SlotFate::Exhausted);
                }
                "exhausted"
            }
            Err(msg) => {
                if attempt >= sup.max_retries {
                    let stub = SyntheticStats::panicked_stub(load);
                    return Slot::bare(load, stub, SlotFate::Panicked { msg });
                }
                "panic"
            }
        };
        crate::obs::retry(idx, load, attempt + 1, reason);
        std::thread::sleep(std::time::Duration::from_millis(backoff_ms(
            sup, pseed, attempt,
        )));
        attempt += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RunBudget;
    use crate::par::par_load_sweep_collect;
    use crate::sweep::load_grid;
    use d2net_routing::Algorithm;
    use d2net_topo::{slim_fly, SlimFlyP};

    fn fixture() -> (Network, RoutePolicy, SyntheticPattern) {
        let net = slim_fly(5, SlimFlyP::Floor);
        let policy = RoutePolicy::new(&net, Algorithm::Minimal);
        (net, policy, SyntheticPattern::Uniform)
    }

    /// A plain sweep's settings: no retries, no chaos.
    fn plain() -> SuperviseConfig {
        SuperviseConfig {
            max_retries: 0,
            threads: 1,
            ..SuperviseConfig::default()
        }
    }

    fn ran(stats: SyntheticStats) -> Result<RunOutput, String> {
        Ok(RunOutput {
            stats,
            telemetry: None,
            trace: None,
            ledger: None,
        })
    }

    #[test]
    fn early_abort_stubs_higher_loads_and_raises_one_notice() {
        // Drive the sweep loop with a synthetic "wedges at 0.5" run.
        let simulated = Mutex::new(Vec::new());
        let loads = [0.25, 0.5, 0.75, 1.0];
        let hooks = SuperviseHooks::default();
        let out = drive(&loads, 0, 1, &plain(), &hooks, None, || {
            |_: usize, load: f64, _: Option<EngineChaos>| {
                simulated.lock().unwrap().push(load);
                let mut stats = SyntheticStats::deadlocked_stub(load);
                stats.deadlocked = load >= 0.5;
                stats.throughput = load;
                ran(stats)
            }
        })
        .outcome;
        assert_eq!(simulated.into_inner().unwrap(), vec![0.25, 0.5]);
        let points = &out.points;
        assert_eq!(points.len(), 4);
        assert!(!points[0].stats.deadlocked);
        assert!(points[1].stats.deadlocked);
        assert!(points[2].stats.deadlocked && points[2].stats.throughput == 0.0);
        assert!(points[3].stats.deadlocked && points[3].stats.delivered_packets == 0);
        assert_eq!(out.notices.len(), 1);
        assert_eq!(out.notices[0].code, "wedged");
        assert_eq!(out.notices[0].index, 1);
        assert!((out.notices[0].load - 0.5).abs() < 1e-12);
        assert!(out.notices[0].render().contains("wedged at offered load 0.500"));
    }

    #[test]
    fn panicked_point_raises_coded_notice_without_aborting_the_sweep() {
        let simulated = Mutex::new(Vec::new());
        let hooks = SuperviseHooks::default();
        let out = drive(&[0.25, 0.5, 0.75], 0, 1, &plain(), &hooks, None, || {
            |_: usize, load: f64, _: Option<EngineChaos>| {
                simulated.lock().unwrap().push(load);
                if (load - 0.5).abs() < 1e-12 {
                    return Err("boom".to_string());
                }
                let mut stats = SyntheticStats::deadlocked_stub(load);
                stats.deadlocked = false;
                ran(stats)
            }
        })
        .outcome;
        // Every load simulated: the panic at 0.5 did not stub 0.75.
        assert_eq!(simulated.into_inner().unwrap(), vec![0.25, 0.5, 0.75]);
        assert!(out.points[1].stats.deadlocked, "panicked stub is unusable");
        assert!(!out.points[2].stats.deadlocked);
        assert_eq!(out.notices.len(), 1);
        assert_eq!(out.notices[0].code, "panicked");
        assert_eq!(out.notices[0].index, 1);
        assert!(out.notices[0].message.contains("boom"));
    }

    #[test]
    fn exhausted_point_keeps_partial_stats_and_raises_coded_notice() {
        let hooks = SuperviseHooks::default();
        let out = drive(&[0.25, 0.5], 0, 1, &plain(), &hooks, None, || {
            |_: usize, load: f64, _: Option<EngineChaos>| {
                let mut stats = SyntheticStats::deadlocked_stub(load);
                stats.deadlocked = false;
                stats.exhausted = (load - 0.5).abs() < 1e-12;
                stats.throughput = load * 0.9;
                ran(stats)
            }
        })
        .outcome;
        assert!(out.points[1].stats.exhausted);
        assert!(out.points[1].stats.throughput > 0.0, "partial stats kept");
        assert_eq!(out.notices.len(), 1);
        assert_eq!(out.notices[0].code, "exhausted");
        assert_eq!(out.notices[0].index, 1);
    }

    #[test]
    fn chaos_parse_grammar() {
        let c = ChaosConfig::parse("panic=0.05,stall=0.02,seed=7").unwrap();
        assert_eq!(c.panic_p, 0.05);
        assert_eq!(c.stall_p, 0.02);
        assert_eq!(c.seed, 7);
        assert_eq!(
            ChaosConfig::parse("panic=0.5").unwrap(),
            ChaosConfig {
                panic_p: 0.5,
                stall_p: 0.0,
                seed: 0
            }
        );
        assert!(ChaosConfig::parse("panic=2.0").is_err());
        assert!(ChaosConfig::parse("frob=1").is_err());
        assert!(ChaosConfig::parse("panic").is_err());
    }

    #[test]
    fn chaos_decisions_are_pure_and_roughly_calibrated() {
        let c = ChaosConfig {
            panic_p: 0.2,
            stall_p: 0.1,
            seed: 42,
        };
        let mut fired = 0;
        for i in 0..1_000u64 {
            let d0 = c.decide(i, 0);
            assert_eq!(d0, c.decide(i, 0), "decision must be pure");
            if d0.is_some() {
                fired += 1;
            }
        }
        // 30 % nominal; allow a generous band.
        assert!((200..=400).contains(&fired), "fired {fired}/1000");
        // Attempts re-roll: some point that fails at attempt 0 must run
        // clean at attempt 1.
        assert!(
            (0..1_000u64).any(|i| c.decide(i, 0).is_some() && c.decide(i, 1).is_none()),
            "retries must be able to clear chaos"
        );
    }

    #[test]
    fn backoff_is_deterministic_and_grows() {
        let sup = SuperviseConfig::default();
        let a = backoff_ms(&sup, 123, 0);
        assert_eq!(a, backoff_ms(&sup, 123, 0));
        assert!(backoff_ms(&sup, 123, 3) >= backoff_ms(&sup, 123, 0));
    }

    #[test]
    fn clean_supervised_sweep_equals_parallel_sweep() {
        let (net, policy, pattern) = fixture();
        let loads = load_grid(4);
        let cfg = SimConfig::default();
        let plain = par_load_sweep_collect(&net, &policy, &pattern, &loads, 6_000, 1_000, cfg, 2);
        let sup = supervised_load_sweep_collect(
            &net,
            &policy,
            &pattern,
            &loads,
            6_000,
            1_000,
            cfg,
            &SuperviseConfig {
                threads: 2,
                ..SuperviseConfig::default()
            },
        );
        assert_eq!(sup.outcome, plain, "supervision must be invisible when clean");
        assert!(sup.summary.is_trivial());
        assert_eq!(sup.summary.completed, loads.len());
    }

    #[test]
    fn chaos_panics_are_retried_to_byte_identical_results() {
        let (net, policy, pattern) = fixture();
        let loads = load_grid(4);
        let cfg = SimConfig::default();
        let clean = supervised_load_sweep_collect(
            &net,
            &policy,
            &pattern,
            &loads,
            6_000,
            1_000,
            cfg,
            &SuperviseConfig::default(),
        );
        // Heavy panic chaos, plenty of retries: every point must still
        // come back identical to the clean run because retries reuse the
        // point seed.
        let chaotic = supervised_load_sweep_collect(
            &net,
            &policy,
            &pattern,
            &loads,
            6_000,
            1_000,
            cfg,
            &SuperviseConfig {
                max_retries: 8,
                backoff_base_ms: 1,
                chaos: Some(ChaosConfig {
                    panic_p: 0.5,
                    stall_p: 0.0,
                    seed: 3,
                }),
                threads: 2,
            },
        );
        assert_eq!(chaotic.outcome, clean.outcome);
        assert!(chaotic.summary.retried > 0, "chaos at 50 % must have fired");
        assert_eq!(chaotic.summary.panicked, 0);
    }

    #[test]
    fn exhausted_retries_give_up_into_coded_notice() {
        let (net, policy, pattern) = fixture();
        let loads = [0.3, 0.6];
        // A budget so small every point exhausts, with no chaos: the
        // supervisor must retry, give up, and keep the partial stats.
        let cfg = SimConfig {
            budget: RunBudget::events(200),
            ..SimConfig::default()
        };
        let sup = supervised_load_sweep_collect(
            &net,
            &policy,
            &pattern,
            &loads,
            6_000,
            1_000,
            cfg,
            &SuperviseConfig {
                max_retries: 1,
                backoff_base_ms: 1,
                ..SuperviseConfig::default()
            },
        );
        assert_eq!(sup.summary.exhausted, 2);
        assert_eq!(sup.summary.completed, 0);
        assert!(sup.outcome.points.iter().all(|p| p.stats.exhausted));
        assert!(!sup.outcome.points.iter().any(|p| p.stats.deadlocked));
        assert_eq!(sup.outcome.notices.len(), 2);
        assert!(sup.outcome.notices.iter().all(|n| n.code == "exhausted"));
    }

    #[test]
    fn resume_prefill_skips_points_and_reproduces_the_full_run() {
        let (net, policy, pattern) = fixture();
        let loads = load_grid(4);
        let cfg = SimConfig::default();
        let full = supervised_load_sweep_collect(
            &net,
            &policy,
            &pattern,
            &loads,
            6_000,
            1_000,
            cfg,
            &SuperviseConfig::default(),
        );
        // Prefill the first half from the "journal" and resume.
        let prefilled: Vec<Option<SyntheticStats>> = full
            .outcome
            .points
            .iter()
            .enumerate()
            .map(|(i, p)| (i < 2).then(|| p.stats.clone()))
            .collect();
        let resumed_points = Mutex::new(Vec::new());
        let on_point = |idx: usize, _: &SyntheticStats| {
            resumed_points.lock().unwrap().push(idx);
        };
        let resumed = supervised_load_sweep_hooked(
            &net,
            &policy,
            &pattern,
            &loads,
            6_000,
            1_000,
            cfg,
            &SuperviseConfig::default(),
            &SuperviseHooks {
                prefilled: Some(&prefilled),
                stop: None,
                on_point: Some(&on_point),
            },
        );
        assert_eq!(resumed.outcome, full.outcome, "resume must be invisible");
        assert_eq!(resumed.summary.skipped_by_resume, 2);
        assert_eq!(resumed.summary.completed, 2);
        let mut sim_idxs = resumed_points.into_inner().unwrap();
        sim_idxs.sort_unstable();
        assert_eq!(sim_idxs, vec![2, 3], "only the missing points re-simulate");
    }

    #[test]
    fn stop_signal_drains_gracefully_with_deadline_notice() {
        let (net, policy, pattern) = fixture();
        let loads = load_grid(4);
        let cfg = SimConfig::default();
        let stop = || true; // stop before anything starts
        let out = supervised_load_sweep_hooked(
            &net,
            &policy,
            &pattern,
            &loads,
            6_000,
            1_000,
            cfg,
            &SuperviseConfig {
                threads: 2,
                ..SuperviseConfig::default()
            },
            &SuperviseHooks {
                prefilled: None,
                stop: Some(&stop),
                on_point: None,
            },
        );
        assert_eq!(out.summary.not_run, loads.len());
        assert_eq!(out.summary.completed, 0);
        assert_eq!(out.outcome.notices.len(), 1);
        assert_eq!(out.outcome.notices[0].code, "deadline");
        assert_eq!(out.outcome.points.len(), loads.len());
    }
}
