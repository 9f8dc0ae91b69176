//! Intra-run sharded simulation: conservative time-window engine
//! parallelism, for synthetic runs and exchanges alike.
//!
//! Routers are partitioned into `k` contiguous shards, each a full
//! [`Engine`] restricted to its own router range
//! (`Engine::build_shard`). A coordinator thread runs the shards in
//! lock-step **conservative windows**: every cross-router interaction
//! (a packet's link traversal, a credit's return trip) takes at least
//! one link latency `L`, so if `T` is the global minimum timestamp over
//! all shard queues and undelivered mailbox items, nothing a sibling
//! emits at `t ≥ T` can influence another shard before `T + L` — every
//! shard may drain events with `t < T + L` without synchronizing.
//!
//! Cross-shard transfers are staged into per-shard outboxes during a
//! window, sorted by destination shard by the sending worker, and
//! appended to the owning shards' inboxes at the barrier. The sender
//! assigns each staged event the exact `(time, key)` it would have
//! carried serially; keys are globally unique (per-router lanes, see
//! `Engine::next_key`), so each receiving queue's `(time, key)` order
//! reproduces the serial schedule byte-for-byte — the same total-order
//! argument that lets the calendar and heap queues cross-check today.
//! Mid-run faults ([`crate::EngineFault`]) are applied at barriers; the
//! coordinator never opens a window across a fault time.
//!
//! One coordinator (`run_windows`) serves both workloads: a synthetic
//! run stops at its horizon, an exchange has none and ends when every
//! queue and mailbox has drained. An event budget is checked between
//! windows over every shard's pops; the serial engine checks it at the
//! same window boundaries, so a budget trips after the same event at
//! every shard count.
//!
//! Every observable output — [`SyntheticStats`](crate::SyntheticStats),
//! [`ExchangeStats`], telemetry reports, traces, ledgers, and the
//! manifests derived from them — is byte-identical to the serial
//! engine's for every shard count. The window protocol, the mailbox
//! merge-ordering proof sketch, and the shard-layout decisions are
//! documented in DESIGN.md §14.

use crate::config::{EventQueueKind, SimConfig};
use crate::engine::{
    engine_faults, finish_run, resolve_fault_policies, synthetic_sources, try_preflight_once,
    Engine, OutEv,
};
use crate::fault::FaultSchedule;
use crate::injector::NodeSource;
use crate::observer::{Observers, RunOutput};
use crate::stats::ExchangeStats;
use d2net_routing::{Algorithm, RoutePolicy};
use d2net_topo::{Network, RouterId};
use d2net_verify::invariant;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::mpsc;

/// Below this router count the auto heuristic stays serial: window
/// barriers cost more than they save on paper-scale instances, while
/// CORAL-scale networks (hundreds to thousands of routers) are where
/// sharding pays.
const AUTO_MIN_ROUTERS: u32 = 128;

/// Ceiling on the auto-selected shard count; barrier traffic grows with
/// the shard count while per-shard work shrinks, and engine
/// measurements show diminishing returns past this point.
const AUTO_MAX_SHARDS: usize = 8;

/// The requested shard count before correctness clamps: an explicit
/// [`SimConfig::shards`] wins, then the `D2NET_SHARDS` environment
/// variable, then the machine's parallelism (capped). The flag says
/// whether the count was an explicit request (which skips the
/// small-network heuristic) or auto.
fn requested_shards(cfg: &SimConfig) -> (usize, bool) {
    if cfg.shards > 0 {
        return (cfg.shards as usize, true);
    }
    if let Some(n) = crate::envcfg::env_positive("D2NET_SHARDS") {
        return (n as usize, true);
    }
    let auto = std::thread::available_parallelism()
        .map(|n| n.get().min(AUTO_MAX_SHARDS))
        .unwrap_or(1);
    (auto, false)
}

/// The shard count a run over `net` under `policy`/`cfg` — synthetic or
/// exchange — will actually use (`1` = serial). The parallel sweeps call
/// this to split one thread budget between point-level and shard-level
/// parallelism.
pub fn plan_shards(net: &Network, policy: &RoutePolicy, cfg: &SimConfig) -> usize {
    effective_shards(net, policy, cfg, false)
}

fn effective_shards(
    net: &Network,
    policy: &RoutePolicy,
    cfg: &SimConfig,
    fault_at_zero: bool,
) -> usize {
    let (k, explicit) = requested_shards(cfg);
    let mut k = k.min(net.num_routers() as usize).max(1);
    if !explicit && net.num_routers() < AUTO_MIN_ROUTERS {
        k = 1;
    }
    // The heap queue stays the unsharded reference implementation the
    // determinism suite cross-checks against.
    if cfg.event_queue == EventQueueKind::Heap {
        k = 1;
    }
    // Global UGAL reads *remote* output occupancies at injection time;
    // a shard only maintains its own routers' buffers, so the remote
    // view would be stale and diverge from serial. (Local UGAL — the
    // paper's variant — reads only the injection router's buffers.)
    if matches!(policy.algorithm(), Algorithm::UgalG { .. }) {
        k = 1;
    }
    // A fault at t = 0 shares its timestamp with the build-time
    // NodeWake events, which serial orders *before* it by formula key;
    // the barrier protocol applies faults before a window, so it
    // cannot reproduce that interleaving. Faults at any t > 0 only
    // ever share a timestamp with runtime-keyed events, which sort
    // after the fault exactly as the barrier applies them.
    if fault_at_zero {
        k = 1;
    }
    k
}

/// Contiguous router ranges `[lo, hi)` per shard, sizes differing by at
/// most one. Requires `1 ≤ k ≤ num_routers`; every range is non-empty.
fn shard_bounds(num_routers: u32, k: usize) -> Vec<(u32, u32)> {
    let k32 = k as u32;
    let base = num_routers / k32;
    let rem = num_routers % k32;
    let mut bounds = Vec::with_capacity(k);
    let mut lo = 0u32;
    for i in 0..k32 {
        let size = base + u32::from(i < rem);
        bounds.push((lo, lo + size));
        lo += size;
    }
    debug_assert_eq!(lo, num_routers);
    bounds
}

/// Index of the shard whose range holds router `r`.
fn owner_shard(bounds: &[(u32, u32)], r: RouterId) -> usize {
    bounds.partition_point(|&(_, hi)| hi <= r)
}

/// End of the conservative window opening at the global minimum `m`:
/// one link latency ahead (nothing a sibling shard emits at `t ≥ m`
/// lands sooner), clamped to the horizon (serial handles `t == end_ps`
/// and stops beyond) and to the next pending fault. Under a run budget
/// the serial engine tracks the same windows, which is what makes an
/// event budget trip after the same event at every shard count.
pub(crate) fn window_until(
    m: u64,
    link_ps: u64,
    end_ps: Option<u64>,
    next_fault: Option<u64>,
) -> u64 {
    let mut until = m + link_ps;
    if let Some(end) = end_ps {
        until = until.min(end + 1);
    }
    if let Some(f) = next_fault {
        until = until.min(f);
    }
    until
}

/// A mailbox item: a cross-shard event under its sender-assigned
/// `(time, key)`.
type Mail = (u64, u64, OutEv);

/// Coordinator → shard commands. Each of the first two is answered by
/// exactly one [`Reply`].
enum Cmd {
    /// Deliver `inbox` into the shard's queue, then drain every event
    /// with `t < until`.
    Window { until: u64, inbox: Vec<Mail> },
    /// Apply fault-schedule entry `i` at this barrier — the sharded
    /// equivalent of popping the serial `Ev::LinkFail`.
    Fault(usize),
    /// Final bookkeeping, after which the worker returns its engine.
    /// `inbox` holds mailbox items still undelivered when the run
    /// stopped — arrivals beyond the horizon, or past a budget trip.
    /// Serial keeps the matching events (and their trace flight records)
    /// queued, so they are delivered rather than dropped: a migrant
    /// flight's record travels inside its `OutEv::Arrive` and would
    /// otherwise vanish from the merged trace. `force_now` is the
    /// horizon when the run stopped at it (serial sets its clock there).
    Finish {
        force_now: Option<u64>,
        inbox: Vec<Mail>,
    },
}

/// Shard → coordinator barrier reply.
struct Reply {
    /// The cross-shard events staged during the window, one mailbox per
    /// destination shard.
    outbox: Vec<Vec<Mail>>,
    /// The shard's next queued timestamp.
    min_peek: Option<u64>,
    /// Events the shard has popped under a budget guard, for the
    /// coordinator's event budget.
    popped: u64,
    /// The shard's wall-clock budget (or a chaos stall) tripped inside
    /// the window: the coordinator stops opening windows and finalizes
    /// the partial run as exhausted.
    exhausted: bool,
}

fn shard_worker<'a>(
    mut eng: Engine<'a>,
    bounds: &[(u32, u32)],
    rx: mpsc::Receiver<Cmd>,
    tx: mpsc::Sender<Reply>,
) -> Engine<'a> {
    for cmd in rx {
        match cmd {
            Cmd::Window { until, inbox } => {
                for (t, key, ev) in inbox {
                    eng.deliver(t, key, ev);
                }
                eng.run_window(until);
            }
            Cmd::Fault(i) => eng.apply_fault(i),
            Cmd::Finish { force_now, inbox } => {
                for (t, key, ev) in inbox {
                    eng.deliver(t, key, ev);
                }
                if let Some(t) = force_now {
                    eng.force_now(t);
                }
                return eng;
            }
        }
        let reply = Reply {
            outbox: eng.route_outbox(bounds.len(), |r| owner_shard(bounds, r)),
            min_peek: eng.min_peek(),
            popped: eng.popped(),
            exhausted: eng.budget_exhausted(),
        };
        if tx.send(reply).is_err() {
            break;
        }
    }
    eng
}

/// The coordinator's view of the shards between two windows.
struct Barrier {
    min_peeks: Vec<Option<u64>>,
    popped: Vec<u64>,
    /// Mailbox items waiting for the next window, per destination shard.
    inboxes: Vec<Vec<Mail>>,
}

impl Barrier {
    /// Waits for every shard's reply, in shard order, refreshing its
    /// queue minimum and pop count and appending its mailboxes to
    /// the destination inboxes. Returns whether a shard's budget tripped
    /// inside the window.
    fn collect(&mut self, rxs: &[mpsc::Receiver<Reply>]) -> bool {
        let mut exhausted = false;
        for (i, rx) in rxs.iter().enumerate() {
            let r = rx.recv().expect("shard worker alive");
            self.min_peeks[i] = r.min_peek;
            self.popped[i] = r.popped;
            exhausted |= r.exhausted;
            for (inbox, mut mail) in self.inboxes.iter_mut().zip(r.outbox) {
                inbox.append(&mut mail);
            }
        }
        exhausted
    }

    /// Global minimum over every shard queue and undelivered mailbox item.
    fn global_min(&self) -> Option<u64> {
        let queue_min = self.min_peeks.iter().flatten().copied().min();
        let inbox_min = self.inboxes.iter().flatten().map(|&(t, _, _)| t).min();
        match (queue_min, inbox_min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }
}

/// The conservative-window coordinator shared by synthetic runs and
/// exchanges. Builds one engine per shard with `build(lo, hi, cfg,
/// first)` (`first` marks shard 0, which carries the fault-event
/// accounting), then runs the shards in lock-step windows until the
/// horizon `end_ps` — an exchange has none — every queue and mailbox
/// drains, or a budget trips. The shards then close through the one run
/// tail, [`finish_run`], as a serial engine does.
fn run_windows<'a, S>(
    net: &Network,
    cfg: SimConfig,
    k: usize,
    end_ps: Option<u64>,
    fault_times: &[u64],
    mut build: impl FnMut(u32, u32, SimConfig, bool) -> Result<Engine<'a>, String>,
    stats: impl FnOnce(&Engine, bool) -> S,
) -> Result<RunOutput<S>, String> {
    let bounds = shard_bounds(net.num_routers(), k);
    let mut engines: Vec<Engine> = Vec::with_capacity(k);
    for (i, &(lo, hi)) in bounds.iter().enumerate() {
        // An armed chaos fault fires once per run, not once per shard:
        // only shard 0 carries it (its fire point counts that shard's
        // own pops, so sharded chaos timing differs from serial — chaos
        // runs never claim byte-identity, see DESIGN.md §15).
        let mut scfg = cfg;
        if i != 0 {
            scfg.chaos = None;
        }
        engines.push(build(lo, hi, scfg, i == 0)?);
    }

    let link_ps = cfg.link_ps();
    let max_events = cfg.budget.max_events;
    let mut barrier = Barrier {
        min_peeks: engines.iter_mut().map(|e| e.min_peek()).collect(),
        popped: vec![0; k],
        inboxes: (0..k).map(|_| Vec::new()).collect(),
    };
    let mut at_horizon = false;
    let mut drained = false;
    let mut budget_tripped = false;

    let mut engines: Vec<Engine> = std::thread::scope(|s| {
        let bounds = &bounds;
        let mut cmd_txs = Vec::with_capacity(k);
        let mut reply_rxs = Vec::with_capacity(k);
        let mut handles = Vec::with_capacity(k);
        for eng in engines {
            let (cmd_tx, cmd_rx) = mpsc::channel::<Cmd>();
            let (reply_tx, reply_rx) = mpsc::channel::<Reply>();
            cmd_txs.push(cmd_tx);
            reply_rxs.push(reply_rx);
            handles.push(s.spawn(move || shard_worker(eng, bounds, cmd_rx, reply_tx)));
        }
        let mut next_fault = 0usize;
        loop {
            let global_min = barrier.global_min();
            // A fault is due when it falls at or before the next event
            // and inside the horizon. Faults beyond the horizon stay
            // pending, exactly as their serial `Ev::LinkFail` would stay
            // queued.
            let fault_due = fault_times.get(next_fault).copied().filter(|&f| {
                end_ps.is_none_or(|end| f <= end) && global_min.is_none_or(|m| f <= m)
            });
            let Some(next) = fault_due.or(global_min) else {
                // All queues and mailboxes are empty. Serial would
                // still hold any beyond-horizon LinkFail events, so it
                // only counts as drained when none are pending.
                if next_fault < fault_times.len() {
                    at_horizon = true;
                } else {
                    drained = true;
                }
                break;
            };
            if end_ps.is_some_and(|end| next > end) {
                at_horizon = true;
                break;
            }
            // The event budget counts every shard's pops and is checked
            // where the serial loop checks it: before each window.
            if max_events > 0 && barrier.popped.iter().sum::<u64>() >= max_events {
                budget_tripped = true;
                break;
            }
            if fault_due.is_some() {
                for tx in &cmd_txs {
                    tx.send(Cmd::Fault(next_fault)).expect("shard worker alive");
                }
                barrier.collect(&reply_rxs);
                next_fault += 1;
                continue;
            }
            let until = window_until(next, link_ps, end_ps, fault_times.get(next_fault).copied());
            for (tx, inbox) in cmd_txs.iter().zip(barrier.inboxes.iter_mut()) {
                tx.send(Cmd::Window {
                    until,
                    inbox: std::mem::take(inbox),
                })
                .expect("shard worker alive");
            }
            if barrier.collect(&reply_rxs) {
                // A shard's wall-clock budget tripped mid-window: stop
                // opening windows and finalize the partial run — the
                // absorbed engine's `exhausted` flag marks the stats.
                break;
            }
        }
        let force_now = end_ps.filter(|_| at_horizon);
        for (tx, inbox) in cmd_txs.iter().zip(barrier.inboxes.iter_mut()) {
            tx.send(Cmd::Finish {
                force_now,
                inbox: std::mem::take(inbox),
            })
            .expect("shard worker alive");
        }
        drop(cmd_txs);
        handles
            .into_iter()
            .map(|h| h.join().expect("shard worker panicked"))
            .collect()
    });

    if budget_tripped {
        engines[0].mark_exhausted();
    }
    Ok(finish_run(&mut engines, end_ps, drained, stats))
}

/// The one synthetic-run path behind every `run_synthetic*` entry point
/// and the sweeps' `PointRunner`: validates the measurement window,
/// resolves the shard count, runs the serial engine at `k = 1` and the
/// window coordinator otherwise.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_sharded_inner(
    net: &Network,
    policy: &RoutePolicy,
    pattern: &d2net_traffic::SyntheticPattern,
    schedule: Option<&FaultSchedule>,
    load: f64,
    duration_ns: u64,
    warmup_ns: u64,
    cfg: SimConfig,
    observers: Observers,
) -> Result<RunOutput, String> {
    invariant::warmup_within(warmup_ns, duration_ns)?;
    let (end_ps, warmup_ps) = (duration_ns * 1_000, warmup_ns * 1_000);
    let policies = schedule
        .map(|s| resolve_fault_policies(net, policy, s))
        .unwrap_or_default();
    let fault_at_zero = schedule.is_some_and(|s| s.events().iter().any(|e| e.t_ns == 0));
    let k = effective_shards(net, policy, &cfg, fault_at_zero);
    // Every shard derives the run's randomness from an identically
    // seeded master RNG and an identical source vector, so a node's
    // stochastic stream is the same no matter which shard owns it (see
    // `derive_node_rngs`).
    let build = |lo: u32, hi: u32, cfg: SimConfig, first: bool| {
        let faults = schedule
            .map(|s| engine_faults(net, s, &policies))
            .unwrap_or_default();
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let sources = synthetic_sources(net, pattern, load, end_ps, &cfg, &mut rng);
        let mut eng =
            Engine::build_shard(net, policy, cfg, sources, warmup_ps, rng, faults, lo, hi, first)?;
        eng.observe(observers);
        Ok(eng)
    };
    let stats = |e: &Engine, wedged| e.synthetic_stats(load, end_ps, wedged);

    if k <= 1 {
        return Ok(build(0, net.num_routers(), cfg, true)?.run_serial(Some(end_ps), stats));
    }
    // The static preflight pass is shard-independent; run it once here
    // rather than once per shard build.
    let cfg = try_preflight_once(net, policy, cfg)?;
    let fault_times: Vec<u64> = schedule
        .map(|s| s.events().iter().map(|e| e.t_ns * 1_000).collect())
        .unwrap_or_default();
    run_windows(net, cfg, k, Some(end_ps), &fault_times, build, stats)
}

/// The shared exchange core behind [`crate::run_exchange`] and its
/// probed and traced forms. Each node gets its exchange source (a shard
/// holds an idle one for nodes it does not own); the serial engine runs
/// at `k = 1` and the window coordinator otherwise, with no horizon.
pub(crate) fn run_exchange_inner(
    net: &Network,
    policy: &RoutePolicy,
    exchange: &d2net_traffic::Exchange,
    window: usize,
    cfg: SimConfig,
    observers: Observers,
) -> RunOutput<ExchangeStats> {
    invariant!(
        exchange.sends.len() == net.num_nodes() as usize,
        "exchange pattern must cover every node ({} send lists, {} nodes)",
        exchange.sends.len(),
        net.num_nodes()
    );
    let total_bytes = exchange.total_bytes();
    let build = |lo: u32, hi: u32, cfg: SimConfig, first: bool| {
        let sources = (0..net.num_nodes())
            .map(|n| {
                let r = net.node_router(n);
                if r >= lo && r < hi {
                    NodeSource::exchange(exchange, n, window, cfg.packet_bytes)
                } else {
                    NodeSource::idle_exchange(cfg.packet_bytes)
                }
            })
            .collect();
        let rng = SmallRng::seed_from_u64(cfg.seed);
        let mut eng =
            Engine::build_shard(net, policy, cfg, sources, 0, rng, Vec::new(), lo, hi, first)?;
        eng.observe(observers);
        Ok(eng)
    };
    let stats = |e: &Engine, wedged| e.exchange_stats(total_bytes, wedged);

    let k = effective_shards(net, policy, &cfg, false);
    let run = if k <= 1 {
        build(0, net.num_routers(), cfg, true).map(|mut eng| eng.run_serial(None, stats))
    } else {
        try_preflight_once(net, policy, cfg)
            .and_then(|cfg| run_windows(net, cfg, k, None, &[], build, stats))
    };
    run.unwrap_or_else(|e| panic!("{e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_synthetic;
    use d2net_topo::slim_fly;
    use d2net_traffic::SyntheticPattern;

    fn cfg_with(shards: u32) -> SimConfig {
        SimConfig {
            shards,
            ..SimConfig::default()
        }
    }

    #[test]
    fn bounds_cover_router_range_evenly() {
        assert_eq!(shard_bounds(10, 1), vec![(0, 10)]);
        assert_eq!(shard_bounds(10, 3), vec![(0, 4), (4, 7), (7, 10)]);
        assert_eq!(shard_bounds(4, 4), vec![(0, 1), (1, 2), (2, 3), (3, 4)]);
        for (n, k) in [(50u32, 7usize), (338, 8), (3, 2)] {
            let b = shard_bounds(n, k);
            assert_eq!(b.len(), k);
            assert_eq!(b[0].0, 0);
            assert_eq!(b.last().unwrap().1, n);
            assert!(b.iter().all(|&(lo, hi)| lo < hi));
            assert!(b.windows(2).all(|w| w[0].1 == w[1].0));
        }
    }

    #[test]
    fn sharded_matches_serial_stats() {
        let net = slim_fly(5, d2net_topo::SlimFlyP::Floor);
        let policy = RoutePolicy::new(&net, Algorithm::Minimal);
        let pattern = SyntheticPattern::Uniform;
        let serial = run_synthetic(&net, &policy, &pattern, 0.3, 6_000, 1_000, cfg_with(1));
        for k in [2u32, 3, 5] {
            let sharded = run_synthetic(&net, &policy, &pattern, 0.3, 6_000, 1_000, cfg_with(k));
            assert_eq!(sharded, serial, "shard count {k} diverged");
        }
    }

    #[test]
    fn explicit_shards_override_heuristics_but_not_correctness_clamps() {
        let net = slim_fly(5, d2net_topo::SlimFlyP::Floor); // 50 routers
        let policy = RoutePolicy::new(&net, Algorithm::Minimal);
        // Explicit request beats the small-network heuristic.
        assert_eq!(plan_shards(&net, &policy, &cfg_with(4)), 4);
        // Requests beyond the router count clamp down.
        assert_eq!(plan_shards(&net, &policy, &cfg_with(999)), 50);
        // The heap queue stays serial regardless.
        let heap = SimConfig {
            event_queue: EventQueueKind::Heap,
            ..cfg_with(4)
        };
        assert_eq!(plan_shards(&net, &policy, &heap), 1);
    }
}
