//! The three workloads, each run through the crates' public entry
//! points. An untraced run measures the end-to-end metrics; a traced
//! run records spans around the calls into each layer and derives the
//! per-layer metrics from them and from the engine's own counters.

use crate::digest::{exchange_digest, stats_digest, sweep_digest, Digest};
use crate::json::Json;
use crate::record::{Check, Measurement, PER_LAYER};
use crate::spans::Tracer;
use d2net_core::analysis::{analyze_policy, LatencyModel, TrafficMatrix};
use d2net_core::divergence::{divergence_gate, measured_saturation, DivergenceGateConfig};
use d2net_core::journal::{replay_file, write_atomic, JournalReplay, PointJournal};
use d2net_core::routing::{Algorithm, RoutePolicy};
use d2net_core::sim::injector::NodeSource;
use d2net_core::sim::{
    load_sweep_collect, par_load_sweep_collect, par_load_sweep_ledgered_collect,
    par_load_sweep_traced_collect, plan_shards, run_exchange, run_synthetic_sharded,
    run_synthetic_sharded_probed, run_synthetic_sharded_traced, supervised_load_sweep_hooked,
    Engine, ExchangeStats, HotCounters, LedgerConfig, ProbeConfig, SimConfig, SuperviseHooks,
    SweepOutcome, SyntheticStats, TraceConfig,
};
use d2net_core::supervise::{parse_pattern, run_supervised, SupervisedRequest};
use d2net_core::topo::{mlfm, slim_fly, Network, SlimFlyP};
use d2net_core::traffic::{
    nearest_neighbor, torus_dims_for, worst_case, Exchange, SyntheticPattern,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Seed used when `--seed` is not given; the recorded reference digests
/// are taken at this seed.
pub const DEFAULT_SEED: u64 = 1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CoralUniformMin,
    ServeSf7UgalWc,
    CoralNnExchange,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::CoralUniformMin,
        Workload::ServeSf7UgalWc,
        Workload::CoralNnExchange,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CoralUniformMin => "coral_uniform_min",
            Workload::ServeSf7UgalWc => "serve_sf7_ugal_wc",
            Workload::CoralNnExchange => "coral_nn_exchange",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Instance sizes. `full` is the benchmark proper; `smoke` runs every
/// code path on tiny instances in seconds.
#[derive(Debug, Clone)]
pub struct Sizes {
    pub smoke: bool,
    /// MLFM half-size `h` of the two CORAL workloads.
    pub coral_h: u64,
    pub coral_load: f64,
    pub coral_duration_ns: u64,
    pub coral_warmup_ns: u64,
    /// Slim Fly `q` of the served request.
    pub serve_q: u64,
    pub serve_loads: Vec<f64>,
    pub serve_duration_ns: u64,
    pub serve_warmup_ns: u64,
    pub nn_bytes_per_pair: u64,
    pub nn_window: usize,
    /// Set-ups per batch at the least, and the host seconds a batch fills
    /// at the least. A batch runs before the timed loop and after each
    /// timed operation; `setup_s` is the median over all batches.
    pub setup_batch_reps: usize,
    pub setup_batch_s: f64,
    /// Timed operations per run at the least, however short `--seconds`.
    pub min_ops: usize,
}

impl Sizes {
    pub fn full() -> Sizes {
        Sizes {
            smoke: false,
            coral_h: 15,
            coral_load: 0.5,
            coral_duration_ns: 8_000,
            coral_warmup_ns: 2_000,
            serve_q: 7,
            serve_loads: vec![0.15, 0.3, 0.45, 0.6, 0.75, 0.9],
            serve_duration_ns: 16_000,
            serve_warmup_ns: 4_000,
            nn_bytes_per_pair: 8_192,
            nn_window: 6,
            setup_batch_reps: 5,
            setup_batch_s: 0.1,
            min_ops: 3,
        }
    }

    pub fn smoke() -> Sizes {
        Sizes {
            smoke: true,
            coral_h: 4,
            coral_load: 0.5,
            coral_duration_ns: 4_000,
            coral_warmup_ns: 1_000,
            serve_q: 5,
            serve_loads: vec![0.2, 0.5, 0.9],
            serve_duration_ns: 4_000,
            serve_warmup_ns: 1_000,
            nn_bytes_per_pair: 1_024,
            nn_window: 6,
            setup_batch_reps: 2,
            setup_batch_s: 0.0,
            min_ops: 1,
        }
    }
}

/// The simulator seed derived from the benchmark seed (SplitMix64, cut
/// to 53 bits so it survives the request parser's JSON numbers).
pub fn sim_seed(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) >> 11
}

/// Worker threads for the run: the machine's parallelism, shared by
/// point-level and shard-level parallelism.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn counters_only() -> TraceConfig {
    TraceConfig {
        sample_rate: 0,
        phase_only: true,
        ..TraceConfig::default()
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Accumulates checks and the operation tally of one run.
#[derive(Default)]
pub(crate) struct Verdicts {
    pub checks: Vec<Check>,
    pub attempted: u64,
    pub failed: u64,
}

impl Verdicts {
    /// Records `ops` operations whose outcome `passed` decides.
    fn ops(&mut self, ops: u64, passed: bool, name: &str, detail: String) {
        self.attempted += ops;
        if !passed {
            self.failed += ops.max(1);
        }
        self.checks.push(Check {
            name: name.to_string(),
            passed,
            detail,
        });
    }

    /// A check on outputs already counted as operations: a failure
    /// counts one more failed operation.
    fn check(&mut self, name: &str, passed: bool, detail: String) {
        if !passed {
            self.failed += 1;
        }
        self.checks.push(Check {
            name: name.to_string(),
            passed,
            detail,
        });
    }
}

/// Checks a synthetic run reached the horizon cleanly and carried its
/// offered load (all loads here are below saturation).
fn synthetic_sane(s: &SyntheticStats) -> Result<(), String> {
    if s.deadlocked || s.exhausted {
        return Err(format!(
            "deadlocked={} exhausted={}",
            s.deadlocked, s.exhausted
        ));
    }
    if s.dropped_packets != 0 || s.delivered_packets == 0 {
        return Err(format!(
            "dropped {} delivered {}",
            s.dropped_packets, s.delivered_packets
        ));
    }
    if (s.throughput - s.offered_load).abs() > 0.1 * s.offered_load {
        return Err(format!(
            "accepted {:.4} vs offered {:.4}",
            s.throughput, s.offered_load
        ));
    }
    Ok(())
}

fn exchange_sane(s: &ExchangeStats, ex: &Exchange) -> Result<(), String> {
    if s.deadlocked {
        return Err("exchange wedged".into());
    }
    if s.delivered_bytes != ex.total_bytes() {
        return Err(format!(
            "delivered {} of {} bytes",
            s.delivered_bytes,
            ex.total_bytes()
        ));
    }
    Ok(())
}

/// Checks no point of a served sweep wedged or ran out of budget.
fn sweep_sane(o: &SweepOutcome) -> Result<(), String> {
    match o
        .points
        .iter()
        .find(|p| p.stats.deadlocked || p.stats.exhausted)
    {
        Some(p) => Err(format!("point at load {} deadlocked or exhausted", p.load)),
        None => Ok(()),
    }
}

/// A point's stats at the precision the journal keeps (six decimals
/// for reals), which is what a resumed request sees.
fn journal_view(s: &SyntheticStats) -> String {
    format!(
        "{:.6} {:.6} {:.6} {} {} {} {:.6} {} {:.6} {} {} {} {}",
        s.offered_load,
        s.throughput,
        s.avg_delay_ns,
        s.max_delay_ns,
        s.delivered_packets,
        s.indirect_packets,
        s.avg_hops,
        s.p99_delay_ns,
        s.max_link_utilization,
        s.dropped_packets,
        s.retried_packets,
        s.deadlocked,
        s.exhausted
    )
}

/// One engine's worth of synthetic sources, built the way the library's
/// synthetic runners build them: one RNG seeded from the config, drawn
/// in node order.
#[allow(clippy::too_many_arguments)]
fn synthetic_engine<'a>(
    net: &'a Network,
    policy: &'a RoutePolicy,
    pattern: &SyntheticPattern,
    load: f64,
    duration_ns: u64,
    warmup_ns: u64,
    cfg: SimConfig,
    tr: &mut Tracer,
) -> Engine<'a> {
    let end_ps = duration_ns * 1_000;
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let sources: Vec<NodeSource> = tr.span("traffic.gen", |_| {
        let interval = cfg.interval_ps(load);
        (0..net.num_nodes())
            .map(|_| {
                NodeSource::synthetic_with(
                    pattern.clone(),
                    interval,
                    cfg.packet_bytes,
                    end_ps,
                    cfg.arrival,
                    &mut rng,
                )
            })
            .collect()
    });
    tr.span("sim.engine.build", |_| {
        Engine::new(net, policy, cfg, sources, warmup_ns * 1_000, rng)
    })
}

fn exchange_engine<'a>(
    net: &'a Network,
    policy: &'a RoutePolicy,
    ex: &Exchange,
    window: usize,
    cfg: SimConfig,
    tr: &mut Tracer,
) -> Engine<'a> {
    tr.span("sim.engine.build", |_| {
        let sources = (0..net.num_nodes())
            .map(|n| NodeSource::exchange(ex, n, window, cfg.packet_bytes))
            .collect();
        Engine::new(
            net,
            policy,
            cfg,
            sources,
            0,
            SmallRng::seed_from_u64(cfg.seed),
        )
    })
}

fn nn_exchange(net: &Network, bytes_per_pair: u64) -> Exchange {
    let mut ex = nearest_neighbor(torus_dims_for(net), bytes_per_pair);
    // Ranks beyond the torus stay silent, as in `experiment::fig14`.
    ex.sends.resize(net.num_nodes() as usize, Vec::new());
    ex
}

/// The served request document: what a client would spool for
/// `d2net-serve`.
pub fn serve_request_json(sizes: &Sizes, seed: u64) -> String {
    let loads: Vec<String> = sizes.serve_loads.iter().map(|l| format!("{l}")).collect();
    format!(
        "{{\"id\": \"perfbench-serve\", \"topology\": \"slim_fly:{}\", \"algorithm\": \"ugal\", \
         \"pattern\": \"worst_case\", \"loads\": [{}], \"duration_ns\": {}, \"warmup_ns\": {}, \
         \"seed\": {}, \"max_retries\": 2}}",
        sizes.serve_q,
        loads.join(", "),
        sizes.serve_duration_ns,
        sizes.serve_warmup_ns,
        sim_seed(seed)
    )
}

// ---------------------------------------------------------------------
// One operation per workload: workload start to verified output
// ---------------------------------------------------------------------

/// What one end-to-end operation produced.
pub(crate) struct Op {
    pub wall_s: f64,
    /// Host seconds inside the simulation entry point.
    pub sim_s: f64,
    pub digest: Digest,
    /// Simulated operations in this op (runs, sweep points, exchanges).
    pub units: u64,
    pub sane: Result<(), String>,
    /// Engine counters when the op ran a counters-only trace.
    pub counters: Option<HotCounters>,
    /// Fig. 14 effective throughput (exchange only).
    pub effective_throughput: Option<f64>,
    /// Measured vs predicted saturation (serve only).
    pub serve: Option<ServeOutput>,
}

pub(crate) struct ServeOutput {
    pub outcome: SweepOutcome,
    pub manifest_bytes: String,
    /// The journal as a resumed request would replay it (traced runs).
    pub replay: Option<JournalReplay>,
    pub retried: u32,
    pub panicked: u32,
    pub exhausted: u32,
}

fn coral_op(sizes: &Sizes, seed: u64, counters: bool, tr: &mut Tracer) -> Op {
    let t0 = Instant::now();
    tr.span("workload", |tr| {
        let net = tr.span("topo.build", |_| mlfm(sizes.coral_h));
        let policy = tr.span("routing.tables", |_| {
            RoutePolicy::new(&net, Algorithm::Minimal)
        });
        let pattern = SyntheticPattern::Uniform;
        let cfg = SimConfig {
            seed: sim_seed(seed),
            ..SimConfig::default()
        };
        let t_sim = Instant::now();
        let (load, dur, warm) = (
            sizes.coral_load,
            sizes.coral_duration_ns,
            sizes.coral_warmup_ns,
        );
        let (stats, hot) = tr.span("sim.run", |_| {
            if counters {
                let (s, t) = run_synthetic_sharded_traced(
                    &net,
                    &policy,
                    &pattern,
                    load,
                    dur,
                    warm,
                    cfg,
                    counters_only(),
                );
                (s, Some(t.counters))
            } else {
                let s = run_synthetic_sharded(&net, &policy, &pattern, load, dur, warm, cfg);
                (s, None)
            }
        });
        let sim_s = secs(t_sim.elapsed());
        let (digest, sane) = tr.span("verify", |_| (stats_digest(&stats), synthetic_sane(&stats)));
        Op {
            wall_s: secs(t0.elapsed()),
            sim_s,
            digest,
            units: 1,
            sane,
            counters: hot,
            effective_throughput: None,
            serve: None,
        }
    })
}

fn nn_op(sizes: &Sizes, seed: u64, counters: bool, tr: &mut Tracer) -> Op {
    let t0 = Instant::now();
    tr.span("workload", |tr| {
        let net = tr.span("topo.build", |_| mlfm(sizes.coral_h));
        let policy = tr.span("routing.tables", |_| {
            RoutePolicy::new(&net, Algorithm::Minimal)
        });
        let ex = tr.span("traffic.gen", |_| {
            nn_exchange(&net, sizes.nn_bytes_per_pair)
        });
        let cfg = SimConfig {
            seed: sim_seed(seed),
            ..SimConfig::default()
        };
        let t_sim = Instant::now();
        let (stats, hot) = if counters {
            // The library's `run_exchange_traced`, split at the public
            // engine boundary so the engine build is its own span.
            let mut engine = exchange_engine(&net, &policy, &ex, sizes.nn_window, cfg, tr);
            tr.span("sim.run", |_| {
                engine.attach_trace(counters_only());
                let (s, _, t) = engine.finish_exchange_traced(ex.total_bytes());
                (s, t.map(|t| t.counters))
            })
        } else {
            let s = tr.span("sim.run", |_| {
                run_exchange(&net, &policy, &ex, sizes.nn_window, cfg)
            });
            (s, None)
        };
        let sim_s = secs(t_sim.elapsed());
        let (digest, sane) = tr.span("verify", |_| {
            (exchange_digest(&stats), exchange_sane(&stats, &ex))
        });
        Op {
            wall_s: secs(t0.elapsed()),
            sim_s,
            digest,
            units: 1,
            sane,
            counters: hot,
            effective_throughput: Some(stats.effective_throughput),
            serve: None,
        }
    })
}

fn serve_op(sizes: &Sizes, seed: u64, out_dir: &Path, tr: &mut Tracer) -> Op {
    let text = serve_request_json(sizes, seed);
    let journal = out_dir.join("serve.journal");
    let manifest_path = out_dir.join("serve.manifest.json");
    let _ = std::fs::remove_file(&journal);
    let t0 = Instant::now();
    tr.span("workload", |tr| {
        let req = tr.span("request.parse", |_| {
            SupervisedRequest::from_json(&text).expect("the generated request parses")
        });
        let t_sim = Instant::now();
        let run = tr.span("core.supervise", |_| {
            run_supervised(&req, Some(&journal), None).expect("journal I/O inside the checkout")
        });
        let sim_s = secs(t_sim.elapsed());
        let bytes = tr.span("core.report.manifest", |_| {
            let bytes = run.manifest.to_json();
            write_atomic(&manifest_path, &bytes).expect("manifest write inside the checkout");
            bytes
        });
        // Traced: replay the journal the run left behind, as a resumed
        // request would, before it is removed.
        let replay = tr.enabled().then(|| {
            tr.span("core.journal.replay", |_| {
                replay_file(&journal, req.run_key(), req.loads.len())
            })
        });
        let outcome = SweepOutcome {
            points: run.manifest.curves[0].points.clone(),
            notices: run.manifest.notices.clone(),
        };
        let (digest, sane) = tr.span("verify", |_| {
            let on_disk = std::fs::read_to_string(&manifest_path).unwrap_or_default();
            let sane = if on_disk != bytes {
                Err("manifest on disk differs from the rendered manifest".to_string())
            } else if !run.finished {
                Err("supervised run did not finish".to_string())
            } else {
                sweep_sane(&outcome)
            };
            (sweep_digest(&outcome), sane)
        });
        let _ = std::fs::remove_file(&journal);
        Op {
            wall_s: secs(t0.elapsed()),
            sim_s,
            digest,
            units: req.loads.len() as u64,
            sane,
            counters: None,
            effective_throughput: None,
            serve: Some(ServeOutput {
                outcome,
                manifest_bytes: bytes,
                replay,
                retried: run.summary.retried,
                panicked: run.summary.panicked,
                exhausted: run.summary.exhausted,
            }),
        }
    })
}

fn run_op(w: Workload, sizes: &Sizes, seed: u64, out_dir: &Path, tr: &mut Tracer) -> Op {
    match w {
        Workload::CoralUniformMin => coral_op(sizes, seed, false, tr),
        Workload::ServeSf7UgalWc => serve_op(sizes, seed, out_dir, tr),
        Workload::CoralNnExchange => nn_op(sizes, seed, false, tr),
    }
}

/// One set-up: workload start to an engine ready for its first event
/// (topology, route tables, traffic, engine build). Returns seconds.
fn setup_once(w: Workload, sizes: &Sizes, seed: u64, tr: &mut Tracer) -> f64 {
    let t0 = Instant::now();
    let cfg = SimConfig {
        seed: sim_seed(seed),
        ..SimConfig::default()
    };
    match w {
        Workload::CoralUniformMin => {
            let net = tr.span("topo.build", |_| mlfm(sizes.coral_h));
            let policy = tr.span("routing.tables", |_| {
                RoutePolicy::new(&net, Algorithm::Minimal)
            });
            let engine = synthetic_engine(
                &net,
                &policy,
                &SyntheticPattern::Uniform,
                sizes.coral_load,
                sizes.coral_duration_ns,
                sizes.coral_warmup_ns,
                cfg,
                tr,
            );
            let s = secs(t0.elapsed());
            drop(engine);
            s
        }
        Workload::ServeSf7UgalWc => {
            let req = SupervisedRequest::from_json(&serve_request_json(sizes, seed))
                .expect("the generated request parses");
            let policy = tr.span("routing.tables", |_| {
                RoutePolicy::new(&req.net, req.algorithm)
            });
            let pattern = parse_pattern(&req.pattern_spec, &req.net).expect("validated pattern");
            let engine = synthetic_engine(
                &req.net,
                &policy,
                &pattern,
                req.loads[0],
                req.duration_ns,
                req.warmup_ns,
                req.cfg,
                tr,
            );
            let s = secs(t0.elapsed());
            drop(engine);
            s
        }
        Workload::CoralNnExchange => {
            let net = tr.span("topo.build", |_| mlfm(sizes.coral_h));
            let policy = tr.span("routing.tables", |_| {
                RoutePolicy::new(&net, Algorithm::Minimal)
            });
            let ex = tr.span("traffic.gen", |_| {
                nn_exchange(&net, sizes.nn_bytes_per_pair)
            });
            let engine = exchange_engine(&net, &policy, &ex, sizes.nn_window, cfg, tr);
            let s = secs(t0.elapsed());
            drop(engine);
            s
        }
    }
}

/// Counters-only twin of one op, untimed: gives the exact engine event
/// count of the op's inputs (the count is a pure function of them) and
/// its digest, which the untraced ops must reproduce.
fn counted_op(w: Workload, sizes: &Sizes, seed: u64) -> Op {
    let mut off = Tracer::new(false);
    match w {
        Workload::CoralUniformMin => coral_op(sizes, seed, true, &mut off),
        Workload::CoralNnExchange => nn_op(sizes, seed, true, &mut off),
        Workload::ServeSf7UgalWc => {
            let t0 = Instant::now();
            let req = SupervisedRequest::from_json(&serve_request_json(sizes, seed))
                .expect("the generated request parses");
            let policy = RoutePolicy::new(&req.net, req.algorithm);
            let pattern = parse_pattern(&req.pattern_spec, &req.net).expect("validated pattern");
            let (outcome, traces) = par_load_sweep_traced_collect(
                &req.net,
                &policy,
                &pattern,
                &req.loads,
                req.duration_ns,
                req.warmup_ns,
                req.cfg,
                counters_only(),
                threads(),
            );
            Op {
                wall_s: secs(t0.elapsed()),
                sim_s: secs(t0.elapsed()),
                digest: sweep_digest(&outcome),
                units: req.loads.len() as u64,
                sane: sweep_sane(&outcome),
                counters: Some(merge_counters(traces.iter().map(|t| t.trace.counters))),
                effective_throughput: None,
                serve: None,
            }
        }
    }
}

fn events(op: &Op) -> u64 {
    op.counters.map_or(0, |c| c.events_popped)
}

// ---------------------------------------------------------------------
// Runs
// ---------------------------------------------------------------------

/// Everything a run reports.
pub(crate) struct RunResult {
    pub metrics: Vec<Measurement>,
    pub verdicts: Verdicts,
    /// Extra record sections (validation statements, gate summaries).
    pub notes: Vec<(String, Json)>,
    pub spans: Option<Json>,
}

fn m(name: &str, value: f64) -> Measurement {
    Measurement {
        name: name.to_string(),
        value,
    }
}

/// The counters-only op at the default seed, checked for sanity and
/// against the digest recorded from the code the benchmark was defined
/// on.
fn reference_op(w: Workload, sizes: &Sizes, v: &mut Verdicts) -> Op {
    let op = counted_op(w, sizes, DEFAULT_SEED);
    v.ops(
        op.units,
        op.sane.is_ok(),
        "reference_op_sane",
        format!("{:?}", op.sane),
    );
    let got = op.digest;
    match crate::digest::reference(w, sizes.smoke) {
        Some(want) => v.check(
            "digest_matches_reference",
            got == want,
            format!("default-seed digest {got:016x}, reference {want:016x}"),
        ),
        None => v.check(
            "digest_matches_reference",
            false,
            format!("no reference recorded; default-seed digest is {got:016x}"),
        ),
    }
    op
}

fn validation_note(w: Workload, eff: Option<f64>) -> (String, Json) {
    let mut pairs = vec![
        ("model_validated", Json::Bool(false)),
        (
            "statement",
            Json::str(
                "Speed figures are host-time measurements of the simulator. The simulated \
                 results they come from are checked for determinism and against reference \
                 digests of this code, not validated against the paper's numbers.",
            ),
        ),
    ];
    if w == Workload::CoralNnExchange {
        pairs.push((
            "fig14_min_effective_throughput",
            eff.map_or(Json::Null, Json::Num),
        ));
        pairs.push((
            "fig14_paper_value",
            Json::str(
                "not given as a number: the paper reports MIN as the worst scheme on the \
                 nearest-neighbour exchange, with INR near 0.70 and MLFM adaptive near 1.00",
            ),
        ));
    }
    ("validation".to_string(), Json::obj(pairs))
}

/// The untraced run: set-up timing, a reference op at the default seed,
/// a counters-only op at the run seed, one op in a child process for the
/// memory figure (`exe` is this benchmark's binary), then timed ops for
/// `seconds`.
pub(crate) fn run_untraced(
    w: Workload,
    sizes: &Sizes,
    seed: u64,
    seconds: f64,
    out_dir: &Path,
    exe: &Path,
) -> RunResult {
    let mut v = Verdicts::default();
    let mut off = Tracer::new(false);

    // Set-ups run in batches spread over the whole run, so their median
    // samples the same stretch of host time as the timed operations.
    let mut setups = Vec::new();
    let setup_batch = |setups: &mut Vec<f64>| {
        let start = Instant::now();
        for rep in 0.. {
            if rep >= sizes.setup_batch_reps && secs(start.elapsed()) >= sizes.setup_batch_s {
                break;
            }
            setups.push(setup_once(w, sizes, seed, &mut Tracer::new(false)));
        }
    };
    setup_batch(&mut setups);

    let reference = reference_op(w, sizes, &mut v);
    let counted = if seed == DEFAULT_SEED {
        reference
    } else {
        let op = counted_op(w, sizes, seed);
        v.ops(
            op.units,
            op.sane.is_ok(),
            "counted_op_sane",
            format!("{:?}", op.sane),
        );
        op
    };
    let events = events(&counted);

    let rss = probe_in_child(exe, w, sizes, seed);
    v.ops(1, rss.is_ok(), "memory_probe_ran", format!("{rss:?}"));

    let mut ops = Vec::new();
    let start = Instant::now();
    while ops.len() < sizes.min_ops.max(1) || secs(start.elapsed()) < seconds {
        ops.push(run_op(w, sizes, seed, out_dir, &mut off));
        setup_batch(&mut setups);
    }
    let sane = ops.iter().all(|o| o.sane.is_ok());
    let units: u64 = ops.iter().map(|o| o.units).sum();
    v.ops(
        units,
        sane,
        "timed_ops_sane",
        ops.iter()
            .find_map(|o| o.sane.clone().err())
            .unwrap_or_else(|| "ok".into()),
    );
    let same = ops.iter().all(|o| o.digest == counted.digest);
    v.check(
        "timed_ops_match_counted_op",
        same,
        format!(
            "{} timed ops against digest {:016x}",
            ops.len(),
            counted.digest
        ),
    );
    if let Some(first) = ops.first().and_then(|o| o.serve.as_ref()) {
        let bytes_equal = ops
            .iter()
            .all(|o| o.serve.as_ref().map(|s| &s.manifest_bytes) == Some(&first.manifest_bytes));
        v.check(
            "manifests_byte_identical",
            bytes_equal,
            format!("{} manifests", ops.len()),
        );
        divergence_check(sizes, seed, &first.outcome, &mut v);
    }

    let walls: Vec<f64> = ops.iter().map(|o| o.wall_s).collect();
    let sims: Vec<f64> = ops.iter().map(|o| o.sim_s).collect();
    let success = if v.attempted == 0 {
        0.0
    } else {
        (v.attempted - v.failed.min(v.attempted)) as f64 / v.attempted as f64
    };
    let metrics = vec![
        m("setup_s", median(&setups)),
        m("wall_s", median(&walls)),
        m("events_per_s", events as f64 / median(&sims)),
        m("peak_rss_mb", rss.unwrap_or_else(|_| peak_rss_mb())),
        m("success_rate", success),
    ];
    let eff = ops.first().and_then(|o| o.effective_throughput);
    let list = |xs: &[f64]| Json::Arr(xs.iter().map(|&x| Json::Num(x)).collect());
    let samples = Json::obj(vec![
        ("events_per_op", Json::Num(events as f64)),
        ("setup_s", list(&setups)),
        ("wall_s", list(&walls)),
        ("sim_s", list(&sims)),
    ]);
    let notes = vec![validation_note(w, eff), ("samples".to_string(), samples)];
    RunResult {
        metrics,
        verdicts: v,
        notes,
        spans: None,
    }
}

/// The served sweep's measured saturation must lie inside the analytic
/// oracle's envelope for its policy and traffic.
fn divergence_check(sizes: &Sizes, seed: u64, outcome: &SweepOutcome, v: &mut Verdicts) {
    let req = SupervisedRequest::from_json(&serve_request_json(sizes, seed))
        .expect("the generated request parses");
    let policy = RoutePolicy::new(&req.net, req.algorithm);
    let pattern = parse_pattern(&req.pattern_spec, &req.net).expect("validated pattern");
    let perm = match &pattern {
        SyntheticPattern::Permutation(p) => p.clone(),
        _ => unreachable!("worst_case is a permutation"),
    };
    let verdict = TrafficMatrix::permutation(&req.net, &perm)
        .and_then(|tm| analyze_policy(&req.net, &policy, &tm, &LatencyModel::paper_default()));
    match verdict {
        Ok(pa) => {
            let measured = measured_saturation(outcome);
            let (summary, _) = divergence_gate(
                "worst_case",
                &pa,
                measured,
                None,
                &DivergenceGateConfig::default(),
            );
            v.check(
                "saturation_inside_oracle_envelope",
                summary.passed,
                format!(
                    "measured {:.4} against [{:.4}, {:.4}] ± {:.2}",
                    measured, pa.saturation_lo, pa.saturation_hi, summary.tolerance
                ),
            );
        }
        Err(e) => v.check(
            "saturation_inside_oracle_envelope",
            false,
            format!("oracle: {e:?}"),
        ),
    }
}

/// One bare operation, for the `memory-probe` child: returns the peak
/// resident memory of the process that ran it.
pub fn memory_probe(w: Workload, sizes: &Sizes, seed: u64, out_dir: &Path) -> f64 {
    run_op(w, sizes, seed, out_dir, &mut Tracer::new(false));
    peak_rss_mb()
}

/// Peak resident memory of one operation in a fresh process: `exe`, this
/// benchmark's binary, runs `memory-probe` and prints its peak. A fresh
/// process keeps memory the allocator retained from earlier operations
/// out of the figure. `output` waits for the child to exit.
fn probe_in_child(exe: &Path, w: Workload, sizes: &Sizes, seed: u64) -> Result<f64, String> {
    let mut cmd = std::process::Command::new(exe);
    cmd.args([
        "memory-probe",
        "--workload",
        w.name(),
        "--seed",
        &seed.to_string(),
    ]);
    if sizes.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
    if !out.status.success() {
        return Err(format!("memory probe exited with {}", out.status));
    }
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .last()
        .and_then(|l| l.trim().parse::<f64>().ok())
        .filter(|mb| *mb > 0.0)
        .ok_or_else(|| "memory probe printed no figure".to_string())
}

/// Resident-memory high-water mark of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The per-layer metrics of one traced run, in the order the record
/// lists them. Every metric starts at 0, which is what a layer the
/// workload bypasses reports.
struct Layers(Vec<Measurement>);

impl Layers {
    fn new() -> Self {
        Layers(PER_LAYER.iter().map(|d| m(d.name, 0.0)).collect())
    }

    fn set(&mut self, name: &str, value: f64) {
        self.0
            .iter_mut()
            .find(|x| x.name == name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"))
            .value = value;
    }

    /// The layer times every workload reports, from the tracer's spans.
    fn set_setup_times(&mut self, tr: &Tracer) {
        for (metric, span) in [
            ("topo.build_ms", "topo.build"),
            ("routing.tables_ms", "routing.tables"),
            ("traffic.gen_ms", "traffic.gen"),
            ("sim.engine.build_ms", "sim.engine.build"),
        ] {
            self.set(metric, tr.self_ms(span));
        }
    }

    fn set_counters(&mut self, c: &HotCounters) {
        let cal = c.calendar.unwrap_or_default();
        let total = cal.total_pushes();
        for (name, value) in [
            ("sim.engine.events", c.events_popped),
            ("sim.engine.in_q_pushes", c.in_q_pushes),
            ("sim.engine.out_q_pushes", c.out_q_pushes),
            ("sim.engine.blocked_entries", c.blocked_entries),
            ("sim.equeue.ring_pushes", cal.ring_pushes),
            ("sim.equeue.drain_pushes", cal.drain_pushes),
            ("sim.equeue.overflow_pushes", cal.overflow_pushes),
            ("sim.equeue.ring_highwater", cal.ring_highwater),
            ("sim.equeue.days_collected", cal.days_collected),
        ] {
            self.set(name, value as f64);
        }
        if total > 0 {
            self.set(
                "sim.equeue.ring_share",
                cal.ring_pushes as f64 / total as f64,
            );
        }
    }
}

/// Counters of several runs as one: sums, with maxima for high-water
/// marks.
fn merge_counters(all: impl Iterator<Item = HotCounters>) -> HotCounters {
    all.fold(HotCounters::default(), |acc, c| HotCounters {
        events_popped: acc.events_popped + c.events_popped,
        events_scheduled: acc.events_scheduled + c.events_scheduled,
        in_q_pushes: acc.in_q_pushes + c.in_q_pushes,
        out_q_pushes: acc.out_q_pushes + c.out_q_pushes,
        blocked_entries: acc.blocked_entries + c.blocked_entries,
        calendar: Some(
            acc.calendar
                .unwrap_or_default()
                .merged(&c.calendar.unwrap_or_default()),
        ),
    })
}

/// The traced run: a bare op and a traced op of the same inputs (their
/// ratio is the tracing overhead), then the layer probes each workload
/// exercises. Layers a workload bypasses report 0.
pub(crate) fn run_traced(w: Workload, sizes: &Sizes, seed: u64, out_dir: &Path) -> RunResult {
    let mut v = Verdicts::default();
    let mut off = Tracer::new(false);
    let mut tr = Tracer::new(true);

    reference_op(w, sizes, &mut v);

    // Bare and traced operations alternate twice, so neither side always
    // runs first; only the first traced op's spans are kept.
    let traced_op = |tr: &mut Tracer| match w {
        Workload::CoralUniformMin => coral_op(sizes, seed, true, tr),
        Workload::CoralNnExchange => nn_op(sizes, seed, true, tr),
        Workload::ServeSf7UgalWc => serve_op(sizes, seed, out_dir, tr),
    };
    let bare = run_op(w, sizes, seed, out_dir, &mut off);
    let traced = traced_op(&mut tr);
    let bare2 = run_op(w, sizes, seed, out_dir, &mut off);
    let traced2 = traced_op(&mut Tracer::new(true));
    for (op, name) in [(&bare, "bare_ops_sane"), (&traced, "traced_ops_sane")] {
        v.ops(
            2 * op.units,
            op.sane.is_ok(),
            name,
            format!("{:?}", op.sane),
        );
    }
    v.check(
        "traced_matches_untraced",
        [&traced, &bare2, &traced2]
            .iter()
            .all(|o| o.digest == bare.digest && o.sane.is_ok()),
        format!("{:016x} vs {:016x}", traced.digest, bare.digest),
    );
    let trace_overhead = (traced.wall_s + traced2.wall_s) / (bare.wall_s + bare2.wall_s);

    let mut layers = Layers::new();
    let mut notes = Vec::new();
    let cfg = SimConfig {
        seed: sim_seed(seed),
        ..SimConfig::default()
    };
    match w {
        Workload::CoralUniformMin => {
            // Serial engine over public sources: the engine build and the
            // serial event rate, plus the serial ≡ sharded gate.
            let net = mlfm(sizes.coral_h);
            let policy = RoutePolicy::new(&net, Algorithm::Minimal);
            let pattern = SyntheticPattern::Uniform;
            let mut engine = tr.span("layers", |tr| {
                synthetic_engine(
                    &net,
                    &policy,
                    &pattern,
                    sizes.coral_load,
                    sizes.coral_duration_ns,
                    sizes.coral_warmup_ns,
                    cfg,
                    tr,
                )
            });
            let t = Instant::now();
            let (serial_stats, serial_ctr) = tr.span("sim.run.serial", |_| {
                engine.attach_trace(counters_only());
                let (s, _) =
                    engine.run_synthetic_to(sizes.coral_load, sizes.coral_duration_ns * 1_000);
                (s, engine.take_trace().expect("trace attached").counters)
            });
            let serial_s = secs(t.elapsed());
            drop(engine);
            let sharded_ctr = traced.counters.expect("counters-only op");
            v.ops(
                1,
                synthetic_sane(&serial_stats).is_ok(),
                "serial_run_sane",
                format!("{:?}", synthetic_sane(&serial_stats)),
            );
            v.check(
                "serial_equals_sharded",
                stats_digest(&serial_stats) == traced.digest
                    && serial_ctr.events_popped == sharded_ctr.events_popped,
                format!(
                    "stats {:016x} vs {:016x}, events {} vs {}",
                    stats_digest(&serial_stats),
                    traced.digest,
                    serial_ctr.events_popped,
                    sharded_ctr.events_popped
                ),
            );
            let (load, dur, warm) = (
                sizes.coral_load,
                sizes.coral_duration_ns,
                sizes.coral_warmup_ns,
            );
            let t = Instant::now();
            let (full_trace_stats, _) = tr.span("obs.trace", |_| {
                let full = TraceConfig::default();
                run_synthetic_sharded_traced(&net, &policy, &pattern, load, dur, warm, cfg, full)
            });
            let trace_s = secs(t.elapsed());
            let t = Instant::now();
            let (probed_stats, _) = tr.span("obs.probe", |_| {
                let probe = ProbeConfig::default();
                run_synthetic_sharded_probed(&net, &policy, &pattern, load, dur, warm, cfg, probe)
            });
            let probe_s = secs(t.elapsed());
            v.ops(
                2,
                stats_digest(&full_trace_stats) == bare.digest
                    && stats_digest(&probed_stats) == bare.digest,
                "observers_leave_stats_unchanged",
                "full trace and probe runs against the bare run".into(),
            );
            layers.set_setup_times(&tr);
            layers.set_counters(&sharded_ctr);
            let serial_events = serial_ctr.events_popped as f64;
            layers.set("sim.engine.serial_events_per_s", serial_events / serial_s);
            layers.set("sim.shard.count", plan_shards(&net, &policy, &cfg) as f64);
            let sharded_events = sharded_ctr.events_popped as f64;
            layers.set("sim.shard.events_per_s", sharded_events / traced.sim_s);
            layers.set("sim.shard.speedup", serial_s / traced.sim_s);
            layers.set("obs.trace_ratio", trace_s / bare.sim_s);
            layers.set("obs.probe_ratio", probe_s / bare.sim_s);
        }
        Workload::CoralNnExchange => {
            let ctr = traced.counters.expect("counters-only op");
            layers.set_setup_times(&tr);
            layers.set_counters(&ctr);
            let events = ctr.events_popped as f64;
            layers.set(
                "sim.engine.serial_events_per_s",
                events / tr.total_s("sim.run"),
            );
            // No sharded exchange path: one serial engine.
            layers.set("sim.shard.count", 1.0);
            notes.push(validation_note(w, traced.effective_throughput));
        }
        Workload::ServeSf7UgalWc => {
            let served = traced.serve.as_ref().expect("serve op");
            divergence_check(sizes, seed, &served.outcome, &mut v);
            let replay = served
                .replay
                .as_ref()
                .expect("traced serve op replays its journal");
            let replay_ok = replay.matched
                && replay.prefilled.len() == served.outcome.points.len()
                && replay
                    .prefilled
                    .iter()
                    .zip(&served.outcome.points)
                    .all(|(r, p)| r.as_ref().map(journal_view) == Some(journal_view(&p.stats)));
            v.check(
                "journal_replays_every_point",
                replay_ok,
                format!("{} journaled points", replay.prefilled.len()),
            );

            // Journal appends, timed one by one into a fresh journal.
            let req = SupervisedRequest::from_json(&serve_request_json(sizes, seed))
                .expect("the generated request parses");
            let scratch = out_dir.join("append.journal");
            let _ = std::fs::remove_file(&scratch);
            let (journal, _) = PointJournal::open(&scratch, req.run_key(), req.loads.len())
                .expect("journal inside the checkout");
            let appends: Vec<f64> = served
                .outcome
                .points
                .iter()
                .enumerate()
                .map(|(i, p)| {
                    let t = Instant::now();
                    tr.span("core.journal.append", |_| journal.append(i, &p.stats))
                        .expect("journal append inside the checkout");
                    secs(t.elapsed()) * 1e6
                })
                .collect();
            drop(journal);
            let _ = std::fs::remove_file(&scratch);

            // Layer set-up probes on the served instance.
            let net = tr.span("topo.build", |_| slim_fly(sizes.serve_q, SlimFlyP::Floor));
            let policy = tr.span("routing.tables", |_| RoutePolicy::new(&net, req.algorithm));
            let pattern = tr.span("traffic.gen", |_| worst_case(&net));
            drop(synthetic_engine(
                &net,
                &policy,
                &pattern,
                req.loads[0],
                req.duration_ns,
                req.warmup_ns,
                req.cfg,
                &mut tr,
            ));
            let sweep = |tr: &mut Tracer,
                         name: &str,
                         f: &dyn Fn() -> SweepOutcome|
             -> (SweepOutcome, f64) {
                let t = Instant::now();
                let out = tr.span(name, |_| f());
                (out, secs(t.elapsed()))
            };
            let (l, n, p, d, wu, c) = (
                &req.loads,
                &net,
                &policy,
                req.duration_ns,
                req.warmup_ns,
                req.cfg,
            );

            // Per-point host time through the supervisor's completion
            // hook: each worker runs its points back to back, so the gap
            // since that worker's previous completion is one point.
            let last: Mutex<Vec<(std::thread::ThreadId, Instant)>> = Mutex::new(Vec::new());
            let point_s: Mutex<Vec<f64>> = Mutex::new(Vec::new());
            let hook_start = Instant::now();
            let on_point = |_idx: usize, _s: &SyntheticStats| {
                let now = Instant::now();
                let id = std::thread::current().id();
                let mut last = last.lock().expect("hook state is never poisoned");
                let prev = match last.iter_mut().find(|(t, _)| *t == id) {
                    Some((_, at)) => std::mem::replace(at, now),
                    None => {
                        last.push((id, now));
                        hook_start
                    }
                };
                point_s
                    .lock()
                    .expect("hook state is never poisoned")
                    .push(secs(now - prev));
            };
            let hooks = SuperviseHooks {
                on_point: Some(&on_point),
                ..SuperviseHooks::default()
            };
            let (hooked, _) = sweep(&mut tr, "sim.supervise", &|| {
                supervised_load_sweep_hooked(n, p, &pattern, l, d, wu, c, &req.sup, &hooks).outcome
            });
            let point_s = point_s.into_inner().expect("hook state is never poisoned");

            let (par, par_s) = sweep(&mut tr, "sim.par", &|| {
                par_load_sweep_collect(n, p, &pattern, l, d, wu, c, threads())
            });
            let (serial, serial_s) = sweep(&mut tr, "sim.serial", &|| {
                load_sweep_collect(n, p, &pattern, l, d, wu, c)
            });
            let (counted, traces) = tr.span("sim.counters", |_| {
                par_load_sweep_traced_collect(
                    n,
                    p,
                    &pattern,
                    l,
                    d,
                    wu,
                    c,
                    counters_only(),
                    threads(),
                )
            });
            let (ledgered, ledger_s) = sweep(&mut tr, "obs.ledger", &|| {
                par_load_sweep_ledgered_collect(
                    n,
                    p,
                    &pattern,
                    l,
                    d,
                    wu,
                    c,
                    LedgerConfig::default(),
                    threads(),
                )
                .0
            });
            let all_equal = [&hooked, &par, &serial, &counted, &ledgered]
                .iter()
                .all(|o| sweep_digest(o) == traced.digest);
            v.ops(
                5 * l.len() as u64,
                all_equal,
                "serial_parallel_supervised_ledgered_agree",
                format!("against served digest {:016x}", traced.digest),
            );
            let ctr = merge_counters(traces.iter().map(|t| t.trace.counters));

            layers.set_setup_times(&tr);
            layers.set_counters(&ctr);
            let events = ctr.events_popped as f64;
            layers.set("sim.engine.serial_events_per_s", events / serial_s);
            layers.set("sim.shard.count", plan_shards(n, p, &c) as f64);
            layers.set("sim.par.speedup", serial_s / par_s);
            layers.set("sim.sweep.point_s_p50", median(&point_s));
            let slowest = point_s.iter().copied().fold(0.0, f64::max);
            layers.set("sim.sweep.point_s_max", slowest);
            layers.set("sim.supervise.retried", served.retried as f64);
            layers.set("sim.supervise.panicked", served.panicked as f64);
            layers.set("sim.supervise.exhausted", served.exhausted as f64);
            layers.set("core.journal.append_us", median(&appends));
            layers.set("core.journal.replay_ms", tr.self_ms("core.journal.replay"));
            layers.set(
                "core.report.manifest_ms",
                tr.self_ms("core.report.manifest"),
            );
            layers.set("obs.ledger_ratio", ledger_s / par_s);
        }
    }
    layers.set("bench.trace_overhead", trace_overhead);
    if w != Workload::CoralNnExchange {
        notes.push(validation_note(w, None));
    }
    RunResult {
        metrics: layers.0,
        verdicts: v,
        notes,
        spans: Some(tr.to_json()),
    }
}

/// Output directory for the run's record, spans and served files.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Digest of a workload's simulated output at the default seed.
pub fn reference_digest(w: Workload, sizes: &Sizes) -> Digest {
    counted_op(w, sizes, DEFAULT_SEED).digest
}
