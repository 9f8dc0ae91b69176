//! The PR's determinism gates, end to end:
//!
//! 1. the parallel sweep harness (`par_load_sweep*`) must reproduce the
//!    serial sweep **exactly** — full `SweepPoint` equality, notices
//!    included — on every evaluation family, pattern, and probe mode;
//! 2. the result must be invariant under the order in which the worker
//!    pool completes points (property-tested over random permutations),
//!    including through the early-abort watermark on a wedging config;
//! 3. the calendar event queue must schedule byte-identically to the
//!    reference binary heap on full simulations, not just unit streams;
//! 4. sweep points must equal standalone runs with the derived per-point
//!    seeds — the guard that engine reuse (`Engine::reset`) leaks no
//!    state between points;
//! 5. the sharded runner (`run_synthetic*`, and `run_exchange*` on the
//!    same window coordinator) must be byte-identical to serial at
//!    every shard count — stats, telemetry, traces (modulo the
//!    queue-internal calendar counters, which are shard-local by
//!    construction), ledgers, faulted runs and budget trips alike — and
//!    sharded sweeps must equal serial sweeps point for point.

use d2net::prelude::*;
use d2net::routing::{IntermediateSet, VcScheme};
use d2net::topo::TopologyKind;
use d2net::traffic::{all_to_all_shuffled, nearest_neighbor, torus_dims_for, Exchange};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

fn families() -> Vec<Network> {
    vec![slim_fly(5, SlimFlyP::Floor), mlfm(4), oft(4)]
}

fn assert_outcomes_equal(serial: &SweepOutcome, par: &SweepOutcome, label: &str) {
    assert_eq!(par.points, serial.points, "{label}: points diverged");
    assert_eq!(par.notices, serial.notices, "{label}: notices diverged");
}

#[test]
fn par_sweep_matches_serial_for_all_families_and_patterns() {
    let loads = load_grid(4);
    let cfg = SimConfig::default();
    for net in families() {
        let policy = RoutePolicy::new(&net, Algorithm::Minimal);
        for (pattern, tag) in [
            (SyntheticPattern::Uniform, "UNI"),
            (worst_case(&net), "WC"),
        ] {
            let serial =
                load_sweep_collect(&net, &policy, &pattern, &loads, 20_000, 4_000, cfg);
            let par = par_load_sweep_collect(
                &net, &policy, &pattern, &loads, 20_000, 4_000, cfg, 3,
            );
            assert_outcomes_equal(&serial, &par, &format!("{} {tag}", net.name()));
            // These configs are certified: nothing may wedge, so the
            // parity above covers fully simulated sweeps.
            assert!(serial.notices.is_empty(), "{} {tag}", net.name());
        }
    }
}

#[test]
fn par_probed_sweep_matches_serial_with_telemetry() {
    let loads = load_grid(3);
    let cfg = SimConfig::default();
    let probe = ProbeConfig::default();
    for (net, pattern) in [
        (mlfm(4), SyntheticPattern::Uniform),
        (slim_fly(5, SlimFlyP::Floor), worst_case(&slim_fly(5, SlimFlyP::Floor))),
    ] {
        let policy = RoutePolicy::new(&net, Algorithm::Minimal);
        let serial = par_load_sweep_probed_collect(
            &net, &policy, &pattern, &loads, 20_000, 4_000, cfg, probe, 1,
        );
        let par = par_load_sweep_probed_collect(
            &net, &policy, &pattern, &loads, 20_000, 4_000, cfg, probe, 3,
        );
        assert_outcomes_equal(&serial, &par, &net.name());
        // Probed points must actually carry telemetry on both sides.
        assert!(serial.points.iter().all(|p| p.telemetry.is_some()));
    }
}

#[test]
fn calendar_queue_matches_heap_on_synthetic_runs() {
    for net in families() {
        let policy = RoutePolicy::new(&net, Algorithm::Minimal);
        for (pattern, load, tag) in [
            (SyntheticPattern::Uniform, 0.9, "UNI"),
            (worst_case(&net), 1.0, "WC"),
        ] {
            let run = |queue: EventQueueKind| {
                let cfg = SimConfig {
                    event_queue: queue,
                    ..Default::default()
                };
                run_synthetic(&net, &policy, &pattern, load, 30_000, 6_000, cfg)
            };
            let cal = run(EventQueueKind::Calendar);
            let heap = run(EventQueueKind::Heap);
            assert_eq!(cal, heap, "{} {tag}: queues disagree", net.name());
            assert!(cal.delivered_packets > 0, "{} {tag}", net.name());
        }
    }
}

/// The Figs. 13/14 collectives at test scale: the nearest-neighbour
/// exchange (window 6) and the shuffled all-to-all (window 1).
fn exchanges(net: &Network) -> Vec<(Exchange, usize, &'static str)> {
    let mut nn = nearest_neighbor(torus_dims_for(net), 2_048);
    // Ranks beyond the torus stay silent, as in `experiment::fig14`.
    nn.sends.resize(net.num_nodes() as usize, Vec::new());
    let a2a = all_to_all_shuffled(net.num_nodes(), 512, 7);
    vec![(nn, 6, "NN"), (a2a, 1, "A2A")]
}

fn exchange_algorithms(net: &Network) -> [Algorithm; 3] {
    [Algorithm::Minimal, Algorithm::Valiant, best_adaptive(net).1]
}

/// The heap queue is the unsharded reference: the calendar queue must
/// reproduce it on exchanges run serially and through the shard
/// coordinator at every explicit shard count.
#[test]
fn calendar_queue_matches_heap_on_exchanges() {
    for net in [mlfm(4), slim_fly(5, SlimFlyP::Floor)] {
        for (ex, window, tag) in exchanges(&net) {
            for alg in exchange_algorithms(&net) {
                let policy = RoutePolicy::new(&net, alg);
                let run = |queue: EventQueueKind, shards: u32| {
                    let cfg = SimConfig {
                        event_queue: queue,
                        shards,
                        ..Default::default()
                    };
                    run_exchange(&net, &policy, &ex, window, cfg)
                };
                let heap = run(EventQueueKind::Heap, 1);
                assert!(!heap.deadlocked, "{} {tag} {alg:?}", net.name());
                assert_eq!(heap.delivered_bytes, ex.total_bytes());
                for k in [1u32, 2, 3, 5] {
                    assert_eq!(
                        run(EventQueueKind::Calendar, k),
                        heap,
                        "{} {tag} {alg:?}: calendar queue at {k} shards disagrees with the heap",
                        net.name()
                    );
                }
            }
        }
    }
}

/// The canonical wedging config (single-VC 5-ring, tiny buffers): the
/// early-abort path must agree between serial and parallel, notice and
/// stubbed tail included, for any completion order.
fn wedging_ring() -> (Network, RoutePolicy, SyntheticPattern, SimConfig) {
    let net = Network::from_parts(
        TopologyKind::Custom {
            label: "ring5".into(),
        },
        vec![vec![1, 4], vec![0, 2], vec![1, 3], vec![2, 4], vec![0, 3]],
        vec![1; 5],
    );
    let policy = RoutePolicy::with_overrides(
        &net,
        Algorithm::Minimal,
        VcScheme::SingleVc,
        IntermediateSet::EndpointRouters,
        false,
    );
    let cfg = SimConfig {
        buffer_bytes: 256,
        preflight: Preflight::Off, // the wedge is the point here
        ..Default::default()
    };
    (net, policy, SyntheticPattern::Permutation(vec![2, 3, 4, 0, 1]), cfg)
}

#[test]
fn early_abort_parity_on_wedging_ring() {
    let (net, policy, pattern, cfg) = wedging_ring();
    let loads = [0.25, 0.5, 0.75, 1.0];
    let serial = load_sweep_collect(&net, &policy, &pattern, &loads, 50_000, 0, cfg);
    assert_eq!(serial.notices.len(), 1, "the ring must wedge exactly once");
    let w = serial.notices[0].index;
    assert!(serial.points[w].stats.deadlocked);
    assert!(serial.points[w..].iter().all(|p| p.stats.deadlocked));

    let par = par_load_sweep_collect(&net, &policy, &pattern, &loads, 50_000, 0, cfg, 3);
    assert_outcomes_equal(&serial, &par, "wedging ring");

    // Adversarial completion orders around the watermark: highest-first
    // (workers hit wedged points before the low ones), and interleaved.
    for order in [vec![3usize, 2, 1, 0], vec![1, 3, 0, 2]] {
        let out = par_load_sweep_with_order(
            &net, &policy, &pattern, &loads, 50_000, 0, cfg, 2, &order,
        );
        assert_outcomes_equal(&serial, &out, &format!("order {order:?}"));
    }

    // The supervisor with retries off and no chaos is one more harness.
    let sup = supervised_load_sweep_collect(
        &net, &policy, &pattern, &loads, 50_000, 0, cfg, &no_retries(3),
    );
    assert_outcomes_equal(&serial, &sup.outcome, "supervised wedging ring");
}

/// Supervision with retries off and no chaos: a plain sweep's settings.
fn no_retries(threads: usize) -> SuperviseConfig {
    SuperviseConfig {
        max_retries: 0,
        chaos: None,
        threads,
        ..SuperviseConfig::default()
    }
}

/// Budget exhaustion and isolated panics produce the same outcome —
/// points, notice codes and messages — in the serial, parallel and
/// supervised (retries off, no chaos) harnesses.
#[test]
fn exceptional_path_parity_between_plain_and_supervised_sweeps() {
    let net = slim_fly(5, SlimFlyP::Floor);
    let policy = RoutePolicy::new(&net, Algorithm::Minimal);
    let pattern = SyntheticPattern::Uniform;
    let loads = load_grid(4);
    // Both trip on the higher loads only; the lowest load finishes.
    let budgeted = SimConfig {
        budget: RunBudget::events(320_000),
        ..SimConfig::default()
    };
    let chaotic = SimConfig {
        chaos: Some(EngineChaos {
            kind: ChaosKind::Panic,
            after_events: 320_000,
        }),
        ..SimConfig::default()
    };
    for (cfg, code) in [(budgeted, "exhausted"), (chaotic, "panicked")] {
        let serial = load_sweep_collect(&net, &policy, &pattern, &loads, 6_000, 1_000, cfg);
        let codes: Vec<&str> = serial.notices.iter().map(|n| n.code).collect();
        assert!(
            codes.contains(&code) && codes.len() < loads.len(),
            "{code}: {codes:?}"
        );
        let par = par_load_sweep_collect(&net, &policy, &pattern, &loads, 6_000, 1_000, cfg, 3);
        assert_eq!(par, serial, "{code}: parallel sweep diverged");
        for threads in [1, 3] {
            let sup = supervised_load_sweep_collect(
                &net, &policy, &pattern, &loads, 6_000, 1_000, cfg, &no_retries(threads),
            );
            assert_eq!(sup.outcome, serial, "{code}: supervised sweep on {threads} threads");
        }
    }
}

/// A work order that is not a permutation would leave a point unrun and
/// silently stub it; the driver refuses it in every build profile.
#[test]
#[should_panic(expected = "work order must be a permutation")]
fn non_permutation_work_order_panics() {
    let (net, policy, pattern, cfg) = wedging_ring();
    let loads = [0.25, 0.5, 0.75, 1.0];
    par_load_sweep_with_order(
        &net, &policy, &pattern, &loads, 50_000, 0, cfg, 2, &[0, 0, 2, 3],
    );
}

#[test]
fn sweep_points_equal_standalone_runs_with_derived_seeds() {
    let net = mlfm(4);
    let policy = RoutePolicy::new(&net, Algorithm::Minimal);
    let loads = [0.3, 0.7, 1.0];
    let base = SimConfig::default();
    let swept = load_sweep(
        &net, &policy, &SyntheticPattern::Uniform, &loads, 20_000, 4_000, base,
    );
    for (i, (point, &load)) in swept.iter().zip(&loads).enumerate() {
        let cfg = SimConfig {
            seed: point_seed(base.seed, i),
            ..base
        };
        let standalone = run_synthetic(
            &net, &policy, &SyntheticPattern::Uniform, load, 20_000, 4_000, cfg,
        );
        assert_eq!(
            point.stats, standalone,
            "point {i}: engine reuse leaked state between sweep points"
        );
    }
}

/// The resilience sweep (fault sampling + table repair + degraded
/// simulation per point) must be byte-identical between the serial and
/// parallel harness on every evaluation family.
#[test]
fn resilience_sweep_serial_matches_parallel_across_families() {
    let fractions = failure_fractions(0.10, 3);
    let cfg = SimConfig::default();
    for net in families() {
        let serial = resilience_sweep(
            &net, Algorithm::Minimal, &SyntheticPattern::Uniform, 0.3, &fractions,
            20_000, 4_000, cfg,
        );
        let par = resilience_sweep_par(
            &net, Algorithm::Minimal, &SyntheticPattern::Uniform, 0.3, &fractions,
            20_000, 4_000, cfg, 3,
        );
        assert_eq!(serial, par, "{}: resilience sweeps diverged", net.name());
        assert!(
            serial.points.iter().all(|p| !p.stats.deadlocked),
            "{}: a repaired point wedged",
            net.name()
        );
    }
}

/// The traced engine exposes the calendar queue's internals read-only,
/// which lets the cross-check go one level deeper than stats equality:
/// under both queue implementations the *hot-loop counters* must agree
/// (same events popped and scheduled, same FIFO traffic, same blocking),
/// and the calendar's own push accounting must tie out exactly against
/// the engine's monotonic event counter.
#[test]
fn calendar_queue_counters_cross_check_against_heap() {
    for net in families() {
        let policy = RoutePolicy::new(&net, Algorithm::Minimal);
        let run = |queue: EventQueueKind| {
            let cfg = SimConfig {
                event_queue: queue,
                ..Default::default()
            };
            run_synthetic_traced(
                &net,
                &policy,
                &SyntheticPattern::Uniform,
                0.7,
                30_000,
                6_000,
                cfg,
                TraceConfig::default(),
            )
        };
        let (cal_stats, cal_trace) = run(EventQueueKind::Calendar);
        let (heap_stats, heap_trace) = run(EventQueueKind::Heap);
        assert_eq!(cal_stats, heap_stats, "{}: stats diverged", net.name());

        let cal = cal_trace.counters;
        let heap = heap_trace.counters;
        assert_eq!(cal.events_popped, heap.events_popped, "{}", net.name());
        assert_eq!(cal.events_scheduled, heap.events_scheduled, "{}", net.name());
        assert_eq!(cal.in_q_pushes, heap.in_q_pushes, "{}", net.name());
        assert_eq!(cal.out_q_pushes, heap.out_q_pushes, "{}", net.name());
        assert_eq!(cal.blocked_entries, heap.blocked_entries, "{}", net.name());

        // The queue-internal stats are implementation-specific: present
        // and self-consistent on the calendar, absent on the heap.
        assert!(heap.calendar.is_none(), "{}", net.name());
        let cq = cal.calendar.expect("calendar stats present");
        assert_eq!(
            cq.total_pushes(),
            cal.events_scheduled,
            "{}: calendar lost or double-counted a push",
            net.name()
        );
        assert!(cq.ring_highwater > 0, "{}", net.name());
    }
}

/// Mid-run fault injection must not break queue-implementation parity:
/// a faulted run schedules byte-identically on the calendar queue and
/// the reference binary heap.
#[test]
fn calendar_queue_matches_heap_on_faulted_runs() {
    for net in families() {
        let victim = net.neighbors(0)[0];
        let schedule = FaultSchedule::new()
            .at(8_000, FaultSet::new().fail_link(0, victim).clone())
            .at(16_000, FaultSet::new().fail_router(net.endpoint_routers()[0]).clone());
        let policy = RoutePolicy::new(&net, Algorithm::Minimal);
        let run = |queue: EventQueueKind| {
            let cfg = SimConfig {
                event_queue: queue,
                ..Default::default()
            };
            run_synthetic_faulted(
                &net, &policy, &SyntheticPattern::Uniform, &schedule, 0.5, 40_000, 8_000, cfg,
            )
            .expect("faulted run constructs")
        };
        let cal = run(EventQueueKind::Calendar);
        let heap = run(EventQueueKind::Heap);
        assert_eq!(cal, heap, "{}: queues disagree under faults", net.name());
        assert!(!cal.deadlocked, "{}: faulted run wedged", net.name());
        assert!(cal.delivered_packets > 0, "{}", net.name());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Scheduling independence: for a random permutation of the work
    /// order and a random worker count, the parallel sweep returns the
    /// same outcome as the serial sweep — on both a clean config and the
    /// early-aborting wedged ring.
    #[test]
    fn completion_order_never_changes_the_outcome(
        shuffle_seed in 0u64..1000,
        threads in 1usize..5,
    ) {
        let mut rng = SmallRng::seed_from_u64(shuffle_seed);

        // Clean config: everything simulates.
        let net = mlfm(4);
        let policy = RoutePolicy::new(&net, Algorithm::Minimal);
        let loads = load_grid(4);
        let cfg = SimConfig::default();
        let mut order: Vec<usize> = (0..loads.len()).collect();
        order.shuffle(&mut rng);
        let serial = load_sweep_collect(
            &net, &policy, &SyntheticPattern::Uniform, &loads, 10_000, 2_000, cfg,
        );
        let shuffled = par_load_sweep_with_order(
            &net, &policy, &SyntheticPattern::Uniform, &loads, 10_000, 2_000, cfg,
            threads, &order,
        );
        prop_assert_eq!(&serial.points, &shuffled.points);
        prop_assert_eq!(&serial.notices, &shuffled.notices);

        // Wedging config: the watermark path must be order-blind too.
        let (net, policy, pattern, cfg) = wedging_ring();
        let loads = [0.25, 0.5, 0.75, 1.0];
        let mut order: Vec<usize> = (0..loads.len()).collect();
        order.shuffle(&mut rng);
        let serial = load_sweep_collect(&net, &policy, &pattern, &loads, 50_000, 0, cfg);
        let shuffled = par_load_sweep_with_order(
            &net, &policy, &pattern, &loads, 50_000, 0, cfg, threads, &order,
        );
        prop_assert_eq!(&serial.points, &shuffled.points);
        prop_assert_eq!(&serial.notices, &shuffled.notices);
    }
}

// ---------------------------------------------------------------------
// Sharded-vs-serial gates: the window-barrier runner must reproduce the
// serial engine byte for byte at every shard count (see
// `d2net_sim::shard` and DESIGN.md §14).
// ---------------------------------------------------------------------

fn sharded_cfg(shards: u32) -> SimConfig {
    SimConfig {
        shards,
        ..SimConfig::default()
    }
}

#[test]
fn sharded_run_matches_serial_across_families_patterns_and_algorithms() {
    for net in families() {
        for alg in [Algorithm::Minimal, Algorithm::Valiant] {
            let policy = RoutePolicy::new(&net, alg);
            for (pattern, load, tag) in [
                (SyntheticPattern::Uniform, 0.6, "UNI"),
                (worst_case(&net), 0.9, "WC"),
            ] {
                let serial = run_synthetic(
                    &net, &policy, &pattern, load, 20_000, 4_000, sharded_cfg(1),
                );
                for k in [2u32, 4, 7] {
                    let sharded = run_synthetic(
                        &net, &policy, &pattern, load, 20_000, 4_000, sharded_cfg(k),
                    );
                    assert_eq!(
                        sharded, serial,
                        "{} {alg:?} {tag}: {k} shards diverged from serial",
                        net.name()
                    );
                }
            }
        }
    }
}

/// Adaptive (UGAL) routing consults buffer occupancies and the per-node
/// RNG on every injection — the strongest exercise of the claim that
/// shard-local state reproduces the serial decision stream.
#[test]
fn sharded_run_matches_serial_under_adaptive_routing() {
    let net = slim_fly(5, SlimFlyP::Floor);
    let policy = RoutePolicy::new(&net, best_adaptive(&net).1);
    let pattern = worst_case(&net);
    let serial = run_synthetic(&net, &policy, &pattern, 0.8, 20_000, 4_000, sharded_cfg(1));
    for k in [2u32, 5] {
        let sharded =
            run_synthetic(&net, &policy, &pattern, 0.8, 20_000, 4_000, sharded_cfg(k));
        assert_eq!(sharded, serial, "{k} shards diverged under UGAL");
    }
}

#[test]
fn sharded_probed_run_matches_serial_telemetry_exactly() {
    let probe = ProbeConfig::default();
    for net in [mlfm(4), oft(4)] {
        let policy = RoutePolicy::new(&net, Algorithm::Minimal);
        let (serial_stats, serial_tel) = run_synthetic_probed(
            &net, &policy, &SyntheticPattern::Uniform, 0.7, 20_000, 4_000,
            sharded_cfg(1), probe,
        );
        for k in [2u32, 4] {
            let (stats, tel) = run_synthetic_probed(
                &net, &policy, &SyntheticPattern::Uniform, 0.7, 20_000, 4_000,
                sharded_cfg(k), probe,
            );
            assert_eq!(stats, serial_stats, "{}: {k}-shard stats", net.name());
            assert_eq!(tel, serial_tel, "{}: {k}-shard telemetry", net.name());
        }
        assert!(serial_tel.num_samples > 0);
    }
}

#[test]
fn sharded_traced_run_matches_serial_modulo_calendar_internals() {
    for net in families() {
        let policy = RoutePolicy::new(&net, Algorithm::Minimal);
        let (serial_stats, mut serial_trace) = run_synthetic_traced(
            &net, &policy, &SyntheticPattern::Uniform, 0.7, 20_000, 4_000,
            sharded_cfg(1), TraceConfig::default(),
        );
        for k in [2u32, 4] {
            let (stats, mut trace) = run_synthetic_traced(
                &net, &policy, &SyntheticPattern::Uniform, 0.7, 20_000, 4_000,
                sharded_cfg(k), TraceConfig::default(),
            );
            assert_eq!(stats, serial_stats, "{}: {k}-shard stats", net.name());
            // The calendar's ring/drain/overflow split and day-jump
            // count depend on each queue's local contents, so they are
            // the one legitimately shard-dependent diagnostic; every
            // engine-level counter and the full flight log must agree.
            let cal = trace.counters.calendar.take();
            serial_trace.counters.calendar = None;
            assert!(cal.is_some(), "{}: calendar stats missing", net.name());
            assert_eq!(trace, serial_trace, "{}: {k}-shard trace", net.name());
        }
    }
}

#[test]
fn sharded_ledgered_run_matches_serial_ledger_exactly() {
    let net = slim_fly(5, SlimFlyP::Floor);
    let policy = RoutePolicy::new(&net, best_adaptive(&net).1);
    let pattern = worst_case(&net);
    let (serial_stats, serial_led) = run_synthetic_ledgered(
        &net, &policy, &pattern, 0.8, 20_000, 4_000, sharded_cfg(1),
        LedgerConfig::default(),
    );
    assert!(serial_led.decisions > 0, "ledger must see decisions");
    for k in [2u32, 5] {
        let (stats, led) = run_synthetic_ledgered(
            &net, &policy, &pattern, 0.8, 20_000, 4_000, sharded_cfg(k),
            LedgerConfig::default(),
        );
        assert_eq!(stats, serial_stats, "{k}-shard stats");
        assert_eq!(led, serial_led, "{k}-shard ledger");
    }
}

#[test]
fn sharded_faulted_run_matches_serial_through_window_barriers() {
    for net in families() {
        let victim = net.neighbors(0)[0];
        let schedule = FaultSchedule::new()
            .at(8_000, FaultSet::new().fail_link(0, victim).clone())
            .at(16_000, FaultSet::new().fail_router(net.endpoint_routers()[0]).clone());
        let policy = RoutePolicy::new(&net, Algorithm::Minimal);
        let serial = run_synthetic_faulted(
            &net, &policy, &SyntheticPattern::Uniform, &schedule, 0.5, 40_000, 8_000,
            sharded_cfg(1),
        )
        .expect("faulted run constructs");
        for k in [2u32, 4] {
            let sharded = run_synthetic_faulted(
                &net, &policy, &SyntheticPattern::Uniform, &schedule, 0.5, 40_000, 8_000,
                sharded_cfg(k),
            )
            .expect("sharded faulted run constructs");
            assert_eq!(sharded, serial, "{}: {k} shards under faults", net.name());
        }
        assert!(serial.dropped_packets > 0 || serial.retried_packets > 0);
    }
}

#[test]
fn sharded_faulted_probed_run_matches_serial_link_down_accounting() {
    let net = mlfm(4);
    let victim = net.neighbors(0)[0];
    let schedule =
        FaultSchedule::new().at(8_000, FaultSet::new().fail_link(0, victim).clone());
    let policy = RoutePolicy::new(&net, Algorithm::Minimal);
    let probe = ProbeConfig::default();
    let (serial_stats, serial_tel) = run_synthetic_faulted_probed(
        &net, &policy, &SyntheticPattern::Uniform, &schedule, 0.5, 30_000, 6_000,
        sharded_cfg(1), probe,
    )
    .expect("faulted probed run constructs");
    assert!(serial_tel.total_link_down_events > 0);
    for k in [2u32, 4] {
        let (stats, tel) = run_synthetic_faulted_probed(
            &net, &policy, &SyntheticPattern::Uniform, &schedule, 0.5, 30_000, 6_000,
            sharded_cfg(k), probe,
        )
        .expect("sharded faulted probed run constructs");
        assert_eq!(stats, serial_stats, "{k}-shard stats");
        assert_eq!(tel, serial_tel, "{k}-shard telemetry under faults");
    }
}

/// Sweeps pass the shard count through `PointRunner`: a sweep whose
/// points run sharded must equal the serial sweep point for point (the
/// sharded point substitutes the derived per-point seed, see
/// `PointRunner::run_point`), in both the serial and parallel harness.
#[test]
fn sharded_sweep_matches_serial_sweep_point_for_point() {
    let loads = load_grid(4);
    let net = slim_fly(5, SlimFlyP::Floor);
    let policy = RoutePolicy::new(&net, Algorithm::Minimal);
    let serial = load_sweep_collect(
        &net, &policy, &SyntheticPattern::Uniform, &loads, 20_000, 4_000, sharded_cfg(1),
    );
    for k in [3u32, 4] {
        let sharded = load_sweep_collect(
            &net, &policy, &SyntheticPattern::Uniform, &loads, 20_000, 4_000, sharded_cfg(k),
        );
        assert_eq!(sharded.points, serial.points, "{k}-shard serial-harness sweep");
        let par = par_load_sweep_collect(
            &net, &policy, &SyntheticPattern::Uniform, &loads, 20_000, 4_000,
            sharded_cfg(k), 4,
        );
        assert_eq!(par.points, serial.points, "{k}-shard parallel-harness sweep");
    }
}

/// A wedging configuration must wedge identically sharded: same
/// deadlock verdict, same stranded-packet forensics in the probe.
#[test]
fn sharded_wedge_detection_matches_serial() {
    let (net, policy, pattern, cfg) = wedging_ring();
    let probe = ProbeConfig::default();
    let sharded_wedge_cfg = |k: u32| SimConfig { shards: k, ..cfg };
    let (serial_stats, serial_tel) = run_synthetic_probed(
        &net, &policy, &pattern, 1.0, 50_000, 0, sharded_wedge_cfg(1), probe,
    );
    assert!(serial_stats.deadlocked, "the ring must wedge");
    for k in [2u32, 5] {
        let (stats, tel) = run_synthetic_probed(
            &net, &policy, &pattern, 1.0, 50_000, 0, sharded_wedge_cfg(k), probe,
        );
        assert_eq!(stats, serial_stats, "{k}-shard wedge stats");
        assert_eq!(tel, serial_tel, "{k}-shard wedge forensics");
    }
}

/// Sharded exchanges carry the observers through the coordinator: the
/// probe report and the trace (modulo the calendar's shard-local
/// counters) equal serial's at every shard count.
#[test]
fn sharded_exchange_probes_and_traces_match_serial() {
    let probe = ProbeConfig::default();
    for net in [mlfm(4), slim_fly(5, SlimFlyP::Floor)] {
        for (ex, window, tag) in exchanges(&net) {
            for alg in exchange_algorithms(&net) {
                let policy = RoutePolicy::new(&net, alg);
                let label = format!("{} {tag} {alg:?}", net.name());
                let (stats, tel) =
                    run_exchange_probed(&net, &policy, &ex, window, sharded_cfg(1), probe);
                let (traced_stats, mut trace) = run_exchange_traced(
                    &net, &policy, &ex, window, sharded_cfg(1), TraceConfig::default(),
                );
                assert_eq!(traced_stats, stats, "{label}: observers perturbed the run");
                assert!(tel.num_samples > 0 && !trace.flights.is_empty(), "{label}");
                trace.counters.calendar = None;
                for k in [2u32, 3, 5] {
                    let (s, t) =
                        run_exchange_probed(&net, &policy, &ex, window, sharded_cfg(k), probe);
                    assert_eq!(s, stats, "{label}: {k}-shard probed stats");
                    assert_eq!(t, tel, "{label}: {k}-shard telemetry");
                    let (s, mut tr) = run_exchange_traced(
                        &net, &policy, &ex, window, sharded_cfg(k), TraceConfig::default(),
                    );
                    assert_eq!(s, stats, "{label}: {k}-shard traced stats");
                    assert!(tr.counters.calendar.take().is_some(), "{label}: calendar stats");
                    assert_eq!(tr, trace, "{label}: {k}-shard trace");
                }
            }
        }
    }
}

/// An event budget is checked where conservative windows end, in the
/// serial loop and the shard coordinator alike, so a budget-exhausted
/// run stops after the same event at every shard count: an exchange
/// reports the same partial stats, a synthetic run the same exhausted
/// stats.
#[test]
fn sharded_budget_trips_after_the_same_event_as_serial() {
    let net = mlfm(4);
    let policy = RoutePolicy::new(&net, Algorithm::Minimal);
    let (ex, window, _) = exchanges(&net).swap_remove(0);
    let (complete, trace) = run_exchange_traced(
        &net, &policy, &ex, window, sharded_cfg(1), TraceConfig::default(),
    );
    let budgeted = |shards: u32, max_events: u64| SimConfig {
        shards,
        budget: RunBudget::events(max_events),
        ..SimConfig::default()
    };
    let half = trace.counters.events_popped / 2;
    let serial = run_exchange(&net, &policy, &ex, window, budgeted(1, half));
    assert!(serial.deadlocked, "a half-spent budget must stop the exchange early");
    assert!(serial.delivered_bytes > 0 && serial.delivered_bytes < complete.delivered_bytes);
    for k in [2u32, 3] {
        let sharded = run_exchange(&net, &policy, &ex, window, budgeted(k, half));
        assert_eq!(sharded, serial, "{k}-shard budget-exhausted exchange");
    }

    let pattern = SyntheticPattern::Uniform;
    let serial = run_synthetic(&net, &policy, &pattern, 0.6, 20_000, 4_000, budgeted(1, 5_000));
    assert!(serial.exhausted && !serial.deadlocked);
    for k in [2u32, 5] {
        let sharded =
            run_synthetic(&net, &policy, &pattern, 0.6, 20_000, 4_000, budgeted(k, 5_000));
        assert_eq!(sharded, serial, "{k}-shard budget-exhausted synthetic run");
    }
}

/// Satellite regression: `Engine::reset` must rewind the calendar
/// queue's diagnostic counters along with its contents — a traced sweep
/// point's calendar stats must equal a standalone traced run's.
#[test]
fn calendar_stats_reset_between_sweep_points() {
    let net = mlfm(4);
    let policy = RoutePolicy::new(&net, Algorithm::Minimal);
    let loads = [0.3, 0.7];
    let base = SimConfig::default();
    let (outcome, traces) = par_load_sweep_traced_collect(
        &net, &policy, &SyntheticPattern::Uniform, &loads, 20_000, 4_000, base,
        TraceConfig::default(), 1,
    );
    assert_eq!(traces.len(), loads.len());
    for (i, (pt, &load)) in traces.iter().zip(&loads).enumerate() {
        let cfg = SimConfig {
            seed: point_seed(base.seed, i),
            ..base
        };
        let (_, standalone) = run_synthetic_traced(
            &net, &policy, &SyntheticPattern::Uniform, load, 20_000, 4_000, cfg,
            TraceConfig::default(),
        );
        assert_eq!(
            pt.trace.counters.calendar, standalone.counters.calendar,
            "point {i}: calendar stats leaked across Engine::reset"
        );
        assert_eq!(pt.trace, standalone, "point {i}: trace diverged");
    }
    assert!(outcome.notices.is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Shard-count independence: a random shard count (including counts
    /// that don't divide the router count, and 1) never changes the
    /// simulated statistics.
    #[test]
    fn random_shard_counts_never_change_stats(
        k in 1u32..10,
        load_idx in 0usize..3,
    ) {
        let net = mlfm(4);
        let policy = RoutePolicy::new(&net, Algorithm::Minimal);
        let load = [0.3, 0.6, 1.0][load_idx];
        let serial = run_synthetic(
            &net, &policy, &SyntheticPattern::Uniform, load, 10_000, 2_000, sharded_cfg(1),
        );
        let sharded = run_synthetic(
            &net, &policy, &SyntheticPattern::Uniform, load, 10_000, 2_000, sharded_cfg(k),
        );
        prop_assert_eq!(sharded, serial);
    }
}
