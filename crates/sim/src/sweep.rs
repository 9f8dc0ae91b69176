//! Load sweeps and saturation search — the X axes of the paper's
//! throughput/delay figures (Figs. 6–12).
//!
//! Every sweep runs through one driver (see [`crate::supervise`]); the
//! serial [`load_sweep_collect`] is that driver on one thread. Every
//! sweep point runs from an **index-derived seed** ([`point_seed`]), so
//! a point's simulated schedule depends only on `(base seed, index)` —
//! never on which points ran before it or on which thread. That is what
//! makes a sweep byte-identical at every thread count.

use crate::config::{EngineChaos, SimConfig};
use crate::engine::{synthetic_sources, Engine};
use crate::observer::{Observers, RunOutput};
use crate::stats::SyntheticStats;
use crate::telemetry::TelemetrySummary;
use d2net_routing::RoutePolicy;
use d2net_topo::Network;
use d2net_traffic::SyntheticPattern;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::io::Write;

/// One point of a throughput/delay curve.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    pub load: f64,
    pub stats: SyntheticStats,
    /// Present when the sweep ran with a probe attached
    /// ([`crate::par_load_sweep_probed_collect`]); plain [`load_sweep`]
    /// leaves it `None`.
    pub telemetry: Option<TelemetrySummary>,
}

/// A structured event a sweep wants the caller to know about — an
/// early-abort on a wedged point, a rejected configuration, a point
/// isolated after a panic, or a point aborted by its run budget. Routed
/// through the report layer (it lands in `RunManifest`) instead of
/// being `eprintln!`ed from inside the sweep, so parallel workers never
/// interleave on stderr. `code` is the machine-readable discriminator
/// (`"wedged"`, `"rejected"`, `"panicked"`, `"exhausted"`, …);
/// `message` is the human-readable rendering.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepNotice {
    /// Machine-readable notice code.
    pub code: &'static str,
    /// Index of the point that triggered the notice.
    pub index: usize,
    /// Offered load of that point.
    pub load: f64,
    pub message: String,
}

impl SweepNotice {
    /// A notice with a caller-chosen code — the hook for layers above
    /// `sim` (the journal replay, the batch service) to speak the same
    /// notice dialect as the sweeps.
    pub fn new(code: &'static str, index: usize, load: f64, message: String) -> Self {
        SweepNotice {
            code,
            index,
            load,
            message,
        }
    }

    pub(crate) fn wedged(index: usize, load: f64) -> Self {
        SweepNotice {
            code: "wedged",
            index,
            load,
            message: format!(
                "network wedged at offered load {load:.3}; \
                 marking remaining loads deadlocked without simulating them"
            ),
        }
    }

    /// A sweep whose configuration was rejected before any point could
    /// run (failed preflight, undersized buffers, warm-up ≥ duration).
    pub(crate) fn rejected(load: f64, reason: String) -> Self {
        SweepNotice {
            code: "rejected",
            index: 0,
            load,
            message: format!("configuration rejected before simulating any point: {reason}"),
        }
    }

    /// A point whose simulation panicked; `catch_unwind` isolated it
    /// into a [`SyntheticStats::panicked_stub`] instead of killing the
    /// process.
    pub(crate) fn panicked(index: usize, load: f64, panic_msg: &str) -> Self {
        SweepNotice {
            code: "panicked",
            index,
            load,
            message: format!(
                "point at offered load {load:.3} panicked and was stubbed: {panic_msg}"
            ),
        }
    }

    /// A point aborted by its [`crate::RunBudget`]; the point keeps its
    /// partial measurements with [`SyntheticStats::exhausted`] set.
    pub(crate) fn exhausted(index: usize, load: f64) -> Self {
        SweepNotice {
            code: "exhausted",
            index,
            load,
            message: format!(
                "run budget exhausted at offered load {load:.3}; \
                 partial measurements kept"
            ),
        }
    }

    /// A supervised sweep stopped by its stop signal before point `index`
    /// was claimed; that point and the other unclaimed ones are left for
    /// resume.
    pub(crate) fn deadline(index: usize, load: f64) -> Self {
        SweepNotice {
            code: "deadline",
            index,
            load,
            message: format!(
                "sweep stopped before offered load {load:.3}; \
                 remaining points left for resume"
            ),
        }
    }

    /// One-line rendering, as the legacy stderr message.
    pub fn render(&self) -> String {
        format!("load_sweep: {}", self.message)
    }
}

/// The outcome of a sweep whose configuration was rejected up front:
/// every load carries a [`SyntheticStats::rejected_stub`] and a single
/// notice carries the reason — the same shape serial and parallel.
pub(crate) fn rejected_outcome(loads: &[f64], reason: String) -> SweepOutcome {
    let notice = SweepNotice::rejected(loads.first().copied().unwrap_or(0.0), reason);
    crate::obs::notice(&notice);
    SweepOutcome {
        points: loads
            .iter()
            .map(|&load| SweepPoint {
                load,
                stats: SyntheticStats::rejected_stub(load),
                telemetry: None,
            })
            .collect(),
        notices: vec![notice],
    }
}

/// A sweep's points plus any notices it raised.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOutcome {
    pub points: Vec<SweepPoint>,
    pub notices: Vec<SweepNotice>,
}

impl SweepOutcome {
    /// Renders all notices to stderr in a single locked write (safe to
    /// call from concurrent sweeps without interleaving garbage). With
    /// observability enabled ([`crate::obs::enabled`]) this is a no-op:
    /// every notice already reached the event stream, coded string
    /// intact, when the sweep assembled it.
    pub fn print_notices(&self) {
        if self.notices.is_empty() || crate::obs::enabled() {
            return;
        }
        let mut text = String::new();
        for n in &self.notices {
            text.push_str(&n.render());
            text.push('\n');
        }
        let _ = std::io::stderr().lock().write_all(text.as_bytes());
    }
}

/// Extracts a human-readable message from a `catch_unwind` payload.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

thread_local! {
    /// True while this thread runs an isolated point — consulted by the
    /// wrapper panic hook below.
    static QUIET_PANICS: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

static QUIET_HOOK: std::sync::Once = std::sync::Once::new();

/// Runs `f` with the default panic printout suppressed on this thread.
/// Installed process-wide exactly once as a wrapper that delegates to
/// the previous hook for every panic *not* raised under this guard, so
/// unrelated panics (test harness assertions, other threads) keep their
/// normal backtrace output.
pub(crate) fn with_quiet_panics<R>(f: impl FnOnce() -> R) -> R {
    QUIET_HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !QUIET_PANICS.with(|q| q.get()) {
                prev(info);
            }
        }));
    });
    QUIET_PANICS.with(|q| q.set(true));
    let out = f();
    QUIET_PANICS.with(|q| q.set(false));
    out
}

/// Derives the RNG seed for sweep point `idx` from the config's base
/// seed: a SplitMix64-style finalizer over `base ⊕ golden·(idx+1)`.
/// Deterministic, order-free, and well-spread even for adjacent indices
/// — every sweep point, at every thread and shard count, is seeded
/// through here. (Single runs via [`crate::run_synthetic`] keep the raw
/// `cfg.seed`.)
pub fn point_seed(base: u64, idx: usize) -> u64 {
    let mut z = base ^ (idx as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Simulates successive points of one sweep on a single reusable
/// [`Engine`]: the first point builds it, later points [`Engine::reset`]
/// it, so the flat per-port state is allocated once per sweep worker
/// instead of once per point.
pub(crate) struct PointRunner<'a> {
    net: &'a Network,
    policy: &'a RoutePolicy,
    pattern: &'a SyntheticPattern,
    cfg: SimConfig,
    duration_ns: u64,
    warmup_ns: u64,
    /// Intra-run shard count every point uses (see
    /// [`crate::shard::plan_shards`]); at `1` points run on the
    /// reusable serial engine below, otherwise each point runs the
    /// window-barrier protocol (whose output is byte-identical).
    shards: usize,
    engine: Option<Engine<'a>>,
    /// Per-point chaos override armed by the supervisor (see
    /// [`crate::supervise`]); `None` falls back to `cfg.chaos`, which
    /// applies the same fault to every point.
    chaos: Option<EngineChaos>,
}

impl<'a> PointRunner<'a> {
    /// `cfg` must already have preflight resolved (see
    /// [`crate::engine::try_preflight_once`]); the runner never
    /// re-verifies. Inconsistent parameters (warm-up ≥ duration, buffers
    /// too small for the policy's VCs) come back as a coded `Err` for the
    /// sweep to surface as a [`SweepNotice`] — after this succeeds,
    /// building the engine per point cannot fail.
    pub(crate) fn try_new(
        net: &'a Network,
        policy: &'a RoutePolicy,
        pattern: &'a SyntheticPattern,
        cfg: SimConfig,
        duration_ns: u64,
        warmup_ns: u64,
    ) -> Result<Self, String> {
        d2net_verify::invariant::warmup_within(warmup_ns, duration_ns)?;
        d2net_verify::invariant::vc_buffer_sufficient(
            cfg.buffer_bytes,
            policy.num_vcs(),
            cfg.packet_bytes,
        )?;
        Ok(PointRunner {
            net,
            policy,
            pattern,
            cfg,
            duration_ns,
            warmup_ns,
            shards: crate::shard::plan_shards(net, policy, &cfg),
            engine: None,
            chaos: None,
        })
    }

    /// Arms (or clears) a chaos fault for the *next* point only — the
    /// supervisor re-decides per (point, attempt).
    pub(crate) fn set_chaos(&mut self, chaos: Option<EngineChaos>) {
        self.chaos = chaos;
    }

    /// Runs point `idx` at `load`; the result depends only on
    /// `(cfg, idx, load)`, never on previously run points.
    pub(crate) fn run_point(&mut self, idx: usize, load: f64, observers: Observers) -> RunOutput {
        let seed = point_seed(self.cfg.seed, idx);
        if self.shards > 1 {
            // The sharded runner re-derives the run's randomness from
            // `cfg.seed`; substituting the point seed reproduces
            // exactly the stream the serial branch below would use.
            let mut pcfg = self.cfg;
            pcfg.seed = seed;
            if self.chaos.is_some() {
                pcfg.chaos = self.chaos;
            }
            return crate::shard::run_sharded_inner(
                self.net,
                self.policy,
                self.pattern,
                None,
                load,
                self.duration_ns,
                self.warmup_ns,
                pcfg,
                observers,
            )
            .expect("point parameters were validated in try_new");
        }
        let end_ps = self.duration_ns * 1_000;
        let warmup_ps = self.warmup_ns * 1_000;
        let mut rng = SmallRng::seed_from_u64(seed);
        let sources = synthetic_sources(self.net, self.pattern, load, end_ps, &self.cfg, &mut rng);
        let engine = match &mut self.engine {
            Some(e) => {
                e.reset(sources, warmup_ps, rng);
                e
            }
            None => self.engine.insert(Engine::new(
                self.net,
                self.policy,
                self.cfg,
                sources,
                warmup_ps,
                rng,
            )),
        };
        engine.set_chaos(self.chaos.or(self.cfg.chaos));
        engine.observe(observers);
        engine.run_serial(Some(end_ps), |e, wedged| {
            e.synthetic_stats(load, end_ps, wedged)
        })
    }

    /// [`PointRunner::run_point`] behind `catch_unwind`: a panicking
    /// point comes back as `Err(panic message)` instead of unwinding
    /// into (and killing) the sweep. The reusable engine is dropped on
    /// the way out — it may hold arbitrary torn state — so the next
    /// point rebuilds from scratch.
    pub(crate) fn run_point_isolated(
        &mut self,
        idx: usize,
        load: f64,
        observers: Observers,
    ) -> Result<RunOutput, String> {
        let obs_t0 = crate::obs::enabled().then(std::time::Instant::now);
        let result = with_quiet_panics(|| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.run_point(idx, load, observers)
            }))
        });
        let result = result.map_err(|payload| {
            self.engine = None;
            panic_message(payload.as_ref())
        });
        // Observer-only: live progress for every attempt, after the
        // result is fully formed — nothing here can influence it.
        if let Some(t0) = obs_t0 {
            let wall_ms = t0.elapsed().as_secs_f64() * 1_000.0;
            match &result {
                Ok(RunOutput { stats, events, .. }) => crate::obs::point_run(
                    idx,
                    load,
                    wall_ms,
                    *events,
                    stats.throughput,
                    stats.deadlocked,
                    stats.exhausted,
                ),
                Err(msg) => crate::obs::point_panic(idx, load, wall_ms, msg),
            }
        }
        result
    }
}

/// Simulates `net` at each offered load in `loads`, returning one curve
/// point per load plus any [`SweepNotice`]s raised — the sweep driver on
/// the caller's thread.
///
/// If a point wedges, the remaining (higher) loads are not simulated: a
/// deadlocked network stays deadlocked under more pressure, and each
/// wedged point would otherwise burn a full simulated horizon. Skipped
/// points carry [`SyntheticStats::deadlocked_stub`] so curves keep one
/// entry per requested load.
pub fn load_sweep_collect(
    net: &Network,
    policy: &RoutePolicy,
    pattern: &SyntheticPattern,
    loads: &[f64],
    duration_ns: u64,
    warmup_ns: u64,
    cfg: SimConfig,
) -> SweepOutcome {
    crate::par::par_load_sweep_collect(net, policy, pattern, loads, duration_ns, warmup_ns, cfg, 1)
}

/// [`load_sweep_collect`], printing notices to stderr and returning the
/// bare points — the convenient form for interactive callers.
pub fn load_sweep(
    net: &Network,
    policy: &RoutePolicy,
    pattern: &SyntheticPattern,
    loads: &[f64],
    duration_ns: u64,
    warmup_ns: u64,
    cfg: SimConfig,
) -> Vec<SweepPoint> {
    let out = load_sweep_collect(net, policy, pattern, loads, duration_ns, warmup_ns, cfg);
    out.print_notices();
    out.points
}

/// The standard load grid used by the figure harness: `steps` evenly
/// spaced points from `1/steps` to 100 % of link bandwidth (so
/// `load_grid(20)` is the paper's 5 %–100 % axis, while `load_grid(10)`
/// starts at 10 %). For a grid whose floor is decoupled from its
/// resolution, use [`load_grid_from`].
pub fn load_grid(steps: usize) -> Vec<f64> {
    assert!(steps >= 2);
    (1..=steps)
        .map(|i| i as f64 / steps as f64)
        .collect()
}

/// `steps` evenly spaced offered loads from `start` to 100 % inclusive —
/// a sweep axis whose floor does not move when the resolution changes.
pub fn load_grid_from(start: f64, steps: usize) -> Vec<f64> {
    assert!(steps >= 2);
    assert!(
        start > 0.0 && start < 1.0,
        "start must be in (0, 1), got {start}"
    );
    (0..steps)
        .map(|i| start + (1.0 - start) * i as f64 / (steps - 1) as f64)
        .collect()
}

/// Estimates the saturation throughput: the accepted throughput when
/// offering full load (the plateau of the throughput curve).
pub fn saturation_throughput(
    net: &Network,
    policy: &RoutePolicy,
    pattern: &SyntheticPattern,
    duration_ns: u64,
    warmup_ns: u64,
    cfg: SimConfig,
) -> f64 {
    crate::engine::run_synthetic(net, policy, pattern, 1.0, duration_ns, warmup_ns, cfg).throughput
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_shape() {
        let g = load_grid(10);
        assert_eq!(g.len(), 10);
        assert!((g[0] - 0.1).abs() < 1e-12);
        assert!((g[9] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn grid_from_pins_both_ends() {
        let g = load_grid_from(0.05, 20);
        assert_eq!(g.len(), 20);
        assert!((g[0] - 0.05).abs() < 1e-12);
        assert!((g[19] - 1.0).abs() < 1e-12);
        // Doubling the resolution keeps the floor (unlike load_grid).
        let fine = load_grid_from(0.05, 39);
        assert!((fine[0] - 0.05).abs() < 1e-12);
        assert!((fine[38] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn point_seeds_spread_and_are_index_pure() {
        let base = SimConfig::default().seed;
        let seeds: Vec<u64> = (0..64).map(|i| point_seed(base, i)).collect();
        for (i, &a) in seeds.iter().enumerate() {
            assert_eq!(a, point_seed(base, i), "pure function of (base, idx)");
            for &b in &seeds[i + 1..] {
                assert_ne!(a, b, "adjacent indices must not collide");
            }
        }
        assert_ne!(point_seed(1, 0), point_seed(2, 0), "base seed must matter");
    }

    #[test]
    fn run_point_isolated_catches_chaos_panics_and_recovers() {
        use crate::config::{ChaosKind, EngineChaos};
        use d2net_routing::Algorithm;
        use d2net_topo::slim_fly;
        use d2net_topo::SlimFlyP;

        let net = slim_fly(5, SlimFlyP::Floor);
        let policy = RoutePolicy::new(&net, Algorithm::Minimal);
        let pattern = SyntheticPattern::Uniform;
        let cfg = SimConfig::default();
        let mut runner =
            PointRunner::try_new(&net, &policy, &pattern, cfg, 2_000, 200).unwrap();

        // Arm a panic a few hundred events in; the point must come back
        // as Err, not kill the process.
        runner.set_chaos(Some(EngineChaos {
            kind: ChaosKind::Panic,
            after_events: 300,
        }));
        let err = runner
            .run_point_isolated(0, 0.3, Observers::default())
            .unwrap_err();
        assert!(err.contains("chaos: injected panic"), "{err}");

        // Disarm: the very next point on the same runner must simulate
        // normally (the torn engine was dropped and rebuilt).
        runner.set_chaos(None);
        let stats = runner.run_point_isolated(1, 0.3, Observers::default()).unwrap().stats;
        assert!(!stats.deadlocked);
        assert!(stats.delivered_packets > 0);

        // And it must be byte-identical to a fresh runner that never
        // saw the panic — isolation cannot leak into later points.
        let mut clean = PointRunner::try_new(&net, &policy, &pattern, cfg, 2_000, 200).unwrap();
        let clean_stats = clean.run_point_isolated(1, 0.3, Observers::default()).unwrap().stats;
        assert_eq!(stats, clean_stats);
    }
}
