//! Routing-decision ledger: per-injection forensics for the adaptive
//! algorithms (paper §3.3).
//!
//! The engine can attach a [`DecisionLedger`] that captures, for every
//! non-trivial injection-time routing decision, the
//! [`DecisionRecord`] produced by
//! [`RoutePolicy::try_choose_recorded`](d2net_routing::RoutePolicy::try_choose_recorded):
//! the occupancies consulted, every indirect candidate costed, and the
//! verdict. Aggregates (per-source-router misroute counts, divergence
//! margin histograms, a per-port congestion heatmap at decision time)
//! are **exact** — every decision feeds them — while full records are
//! retained only for a deterministic 1-in-N sample of flights, keyed by
//! the same hashed flight id the flight recorder samples with, so a
//! sampled packet's timeline links back to the exact decision that
//! routed it.
//!
//! Like the telemetry probe and the tracer, the ledger follows the
//! observer rules: recorded state never feeds back into simulation, the
//! ledger is a pure function of the (seeded) run, and a run without a
//! ledger is byte-identical to one that never heard of it.

use crate::trace::{flight_sampled, MetricsRegistry};
use d2net_routing::{DecisionRecord, DecisionVerdict};
use std::collections::BTreeMap;

/// Configuration for the decision ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LedgerConfig {
    /// Keep the full [`DecisionRecord`] for 1 in `sample_rate` flights
    /// (hashed flight id, matching the flight recorder's sample); 0
    /// keeps aggregates only.
    pub sample_rate: u32,
    /// Hard cap on retained full records per run.
    pub max_samples: usize,
}

impl Default for LedgerConfig {
    fn default() -> Self {
        LedgerConfig {
            sample_rate: 16,
            max_samples: 512,
        }
    }
}

/// Exact per-source-router decision aggregates.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RouterDecisionStats {
    /// Decisions taken at this source router.
    pub decisions: u64,
    /// Decisions routed indirectly (misroutes, in the paper's sense).
    pub indirect: u64,
    /// Threshold short-circuits ([`DecisionVerdict::ForcedMinimal`]).
    pub forced_minimal: u64,
    /// Degraded-network minimal fallbacks
    /// ([`DecisionVerdict::FallbackMinimal`]).
    pub fallback_minimal: u64,
    /// Sum of signed divergence margins (`c_m −` best candidate cost).
    pub margin_sum: f64,
    /// Sum of minimal-route occupancy costs `qM` consulted here.
    pub q_m_sum: u64,
}

/// Occupancy observations for one source output port, accumulated over
/// every time any decision consulted it (minimal first hop or indirect
/// candidate). Under UGAL-G the observed value is the candidate's
/// whole-path sum attributed to its first hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortHeat {
    /// Source router of the port.
    pub router: u32,
    /// Neighbor the port points at.
    pub next: u32,
    /// Number of times a decision consulted this port.
    pub observations: u64,
    /// Sum of observed occupancies in bytes.
    pub sum_bytes: u64,
    /// Maximum observed occupancy in bytes.
    pub max_bytes: u64,
}

/// One retained full decision, linked to its flight.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionSample {
    /// Composite injection id (`src_node << 32 | per-source ordinal`) —
    /// the same id the flight recorder uses, so sampled flights and
    /// sampled decisions join on it.
    pub flight_id: u64,
    /// Simulation time of the decision (injection commit).
    pub t_ps: u64,
    /// Cumulative indirect decisions up to and including this one — a
    /// ready-made counter track for the Perfetto export.
    pub indirect_so_far: u64,
    /// The full record behind the choice.
    pub record: DecisionRecord,
}

/// Divergence-margin histogram bounds in **bytes** (|margin| buckets;
/// one implicit overflow bucket past the last bound).
pub const MARGIN_BOUNDS_BYTES: [u64; 5] = [256, 1_024, 4_096, 16_384, 65_536];

/// The finished, immutable ledger of one run. Everything in here is a
/// pure function of the seeded run, so serial and parallel sweeps
/// produce identical ledgers.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineLedger {
    /// The configuration the ledger ran with.
    pub cfg: LedgerConfig,
    /// Total decisions recorded (non-trivial injections only: packets
    /// whose source and destination share a router never enter the
    /// network and take no routing decision).
    pub decisions: u64,
    /// Decisions routed indirectly.
    pub indirect: u64,
    /// Threshold-forced minimal decisions.
    pub forced_minimal: u64,
    /// Degraded-network minimal fallbacks.
    pub fallback_minimal: u64,
    /// Per-source-router aggregates, ascending router id; routers that
    /// took no decision are absent.
    pub routers: Vec<(u32, RouterDecisionStats)>,
    /// |margin| histogram over [`MARGIN_BOUNDS_BYTES`] for decisions
    /// that diverted (verdict `Indirect`).
    pub margin_diverted: Vec<u64>,
    /// |margin| histogram for adaptive decisions that held minimal
    /// (verdict `Minimal`).
    pub margin_held: Vec<u64>,
    /// Per-port occupancy-at-decision heatmap, ascending (router, next).
    pub heat: Vec<PortHeat>,
    /// Retained full records, in decision order.
    pub samples: Vec<DecisionSample>,
    /// True if `max_samples` truncated the sample set.
    pub samples_truncated: bool,
}

impl EngineLedger {
    /// Exact misroute (indirect) fraction over all recorded decisions.
    pub fn misroute_rate(&self) -> f64 {
        if self.decisions == 0 {
            0.0
        } else {
            self.indirect as f64 / self.decisions as f64
        }
    }
}

/// The live recorder the engine feeds during a run.
#[derive(Debug)]
pub struct DecisionLedger {
    cfg: LedgerConfig,
    decisions: u64,
    indirect: u64,
    forced_minimal: u64,
    fallback_minimal: u64,
    routers: BTreeMap<u32, RouterDecisionStats>,
    margin_diverted: Vec<u64>,
    margin_held: Vec<u64>,
    heat: BTreeMap<(u32, u32), (u64, u64, u64)>,
    /// `(t_ps, key)` schedule keys of every indirect decision, in local
    /// decision order. [`DecisionLedger::finish`] recomputes each
    /// sample's `indirect_so_far` from this list, which makes the value
    /// exact even after shards are merged out of time order.
    indirect_keys: Vec<(u64, u64)>,
    /// Retained samples with their decision's `(t_ps, key)` sort key.
    samples: Vec<((u64, u64), DecisionSample)>,
    samples_truncated: bool,
}

fn margin_bucket(margin_bytes: f64) -> usize {
    let m = margin_bytes.abs() as u64;
    MARGIN_BOUNDS_BYTES
        .iter()
        .position(|&b| m <= b)
        .unwrap_or(MARGIN_BOUNDS_BYTES.len())
}

impl DecisionLedger {
    pub fn new(cfg: LedgerConfig) -> Self {
        DecisionLedger {
            cfg,
            decisions: 0,
            indirect: 0,
            forced_minimal: 0,
            fallback_minimal: 0,
            routers: BTreeMap::new(),
            margin_diverted: vec![0; MARGIN_BOUNDS_BYTES.len() + 1],
            margin_held: vec![0; MARGIN_BOUNDS_BYTES.len() + 1],
            heat: BTreeMap::new(),
            indirect_keys: Vec::new(),
            samples: Vec::new(),
            samples_truncated: false,
        }
    }

    /// Accounts one routing decision taken at simulation time `t_ps`
    /// under the schedule key `key` (the handling event's unique key)
    /// for the flight with composite injection id `flight_id`.
    pub fn on_decision(&mut self, t_ps: u64, key: u64, flight_id: u64, rec: &DecisionRecord) {
        self.decisions += 1;
        let indirect = rec.verdict.is_indirect();
        if indirect {
            self.indirect += 1;
            self.indirect_keys.push((t_ps, key));
        }
        match rec.verdict {
            DecisionVerdict::ForcedMinimal => self.forced_minimal += 1,
            DecisionVerdict::FallbackMinimal => self.fallback_minimal += 1,
            DecisionVerdict::Indirect => self.margin_diverted[margin_bucket(rec.margin)] += 1,
            DecisionVerdict::Minimal => self.margin_held[margin_bucket(rec.margin)] += 1,
            DecisionVerdict::ForcedIndirect => {}
        }

        let r = self.routers.entry(rec.src).or_default();
        r.decisions += 1;
        r.indirect += indirect as u64;
        r.forced_minimal += (rec.verdict == DecisionVerdict::ForcedMinimal) as u64;
        r.fallback_minimal += (rec.verdict == DecisionVerdict::FallbackMinimal) as u64;
        r.margin_sum += rec.margin;
        r.q_m_sum += rec.q_m;

        let mut observe = |next: u32, bytes: u64| {
            let h = self.heat.entry((rec.src, next)).or_insert((0, 0, 0));
            h.0 += 1;
            h.1 += bytes;
            h.2 = h.2.max(bytes);
        };
        observe(rec.min_first_hop, rec.q_m);
        for c in &rec.candidates {
            observe(c.first_hop, c.occupancy_bytes);
        }

        if flight_sampled(self.cfg.sample_rate, flight_id) {
            if self.samples.len() < self.cfg.max_samples {
                self.samples.push((
                    (t_ps, key),
                    DecisionSample {
                        flight_id,
                        t_ps,
                        indirect_so_far: 0, // recomputed in finish()
                        record: rec.clone(),
                    },
                ));
            } else {
                self.samples_truncated = true;
            }
        }
    }

    /// Folds another shard's ledger in after a sharded run. Decisions
    /// happen at the source router, and each router is owned by exactly
    /// one shard, so per-router aggregates (including the f64
    /// `margin_sum`) never interleave across shards — the merge is a
    /// disjoint union plus integer sums, and the result is exactly the
    /// serial ledger once [`DecisionLedger::finish`] re-sorts samples.
    pub(crate) fn absorb(&mut self, other: DecisionLedger) {
        self.decisions += other.decisions;
        self.indirect += other.indirect;
        self.forced_minimal += other.forced_minimal;
        self.fallback_minimal += other.fallback_minimal;
        for (r, s) in other.routers {
            let e = self.routers.entry(r).or_default();
            e.decisions += s.decisions;
            e.indirect += s.indirect;
            e.forced_minimal += s.forced_minimal;
            e.fallback_minimal += s.fallback_minimal;
            e.margin_sum += s.margin_sum;
            e.q_m_sum += s.q_m_sum;
        }
        for (a, b) in self.margin_diverted.iter_mut().zip(&other.margin_diverted) {
            *a += *b;
        }
        for (a, b) in self.margin_held.iter_mut().zip(&other.margin_held) {
            *a += *b;
        }
        for (k, v) in other.heat {
            let e = self.heat.entry(k).or_insert((0, 0, 0));
            e.0 += v.0;
            e.1 += v.1;
            e.2 = e.2.max(v.2);
        }
        self.indirect_keys.extend(other.indirect_keys);
        self.samples.extend(other.samples);
        self.samples_truncated |= other.samples_truncated;
    }

    /// Freezes the recorder into its immutable result. Samples are
    /// emitted in global decision order (sorted by `(t_ps, key)`),
    /// truncated to the cap, with `indirect_so_far` recomputed from the
    /// merged indirect-decision key list — in a serial run all three
    /// steps are the identity of what the live recorder built.
    pub fn finish(mut self) -> EngineLedger {
        self.indirect_keys.sort_unstable();
        let mut keyed = self.samples;
        keyed.sort_unstable_by_key(|e| e.0);
        let samples_truncated = self.samples_truncated || keyed.len() > self.cfg.max_samples;
        keyed.truncate(self.cfg.max_samples);
        let indirect_keys = self.indirect_keys;
        let samples = keyed
            .into_iter()
            .map(|(k, mut s)| {
                s.indirect_so_far = indirect_keys.partition_point(|&ik| ik <= k) as u64;
                s
            })
            .collect();
        EngineLedger {
            cfg: self.cfg,
            decisions: self.decisions,
            indirect: self.indirect,
            forced_minimal: self.forced_minimal,
            fallback_minimal: self.fallback_minimal,
            routers: self.routers.into_iter().collect(),
            margin_diverted: self.margin_diverted,
            margin_held: self.margin_held,
            heat: self
                .heat
                .into_iter()
                .map(|((router, next), (observations, sum_bytes, max_bytes))| PortHeat {
                    router,
                    next,
                    observations,
                    sum_bytes,
                    max_bytes,
                })
                .collect(),
            samples,
            samples_truncated,
        }
    }
}

/// One sweep point's ledger, tagged with its position so sparse
/// collections (parallel sweeps with early aborts) stay unambiguous.
#[derive(Debug, Clone, PartialEq)]
pub struct PointLedger {
    /// Index into the requested load grid.
    pub index: usize,
    /// Offered load at this point.
    pub load: f64,
    /// The point's finished ledger.
    pub ledger: EngineLedger,
}

/// At most this many per-router misroute series and hot ports are
/// emitted by [`ledger_metrics`] (the manifest keeps the full tables;
/// the registry is a summary).
pub const LEDGER_TOP_N: usize = 8;

/// Aggregates the ledgers of a sweep into a metrics registry for the
/// RunManifest's `"decisions"` section. Purely derived from the
/// ledgers, so it inherits their determinism. Per-router and per-port
/// series are capped at the [`LEDGER_TOP_N`] heaviest entries
/// (deterministic tie-break on id).
pub fn ledger_metrics(points: &[PointLedger]) -> MetricsRegistry {
    let mut reg = MetricsRegistry::new();
    let mut decisions = 0u64;
    let mut indirect = 0u64;
    let mut forced = 0u64;
    let mut fallback = 0u64;
    let mut samples = 0u64;
    let mut diverted = vec![0u64; MARGIN_BOUNDS_BYTES.len() + 1];
    let mut held = vec![0u64; MARGIN_BOUNDS_BYTES.len() + 1];
    let mut routers: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
    let mut heat: BTreeMap<(u32, u32), (u64, u64)> = BTreeMap::new();
    for p in points {
        let l = &p.ledger;
        decisions += l.decisions;
        indirect += l.indirect;
        forced += l.forced_minimal;
        fallback += l.fallback_minimal;
        samples += l.samples.len() as u64;
        for (acc, src) in [(&mut diverted, &l.margin_diverted), (&mut held, &l.margin_held)] {
            for (a, b) in acc.iter_mut().zip(src) {
                *a += b;
            }
        }
        for &(r, s) in &l.routers {
            let e = routers.entry(r).or_default();
            e.0 += s.decisions;
            e.1 += s.indirect;
        }
        for h in &l.heat {
            let e = heat.entry((h.router, h.next)).or_default();
            e.0 += h.observations;
            e.1 += h.sum_bytes;
        }
    }
    reg.counter("decisions_total", &[], decisions);
    reg.counter("misroutes_total", &[], indirect);
    reg.counter("forced_minimal_total", &[], forced);
    reg.counter("fallback_minimal_total", &[], fallback);
    reg.counter("decision_samples", &[], samples);
    reg.gauge(
        "misroute_rate",
        &[],
        if decisions == 0 {
            0.0
        } else {
            indirect as f64 / decisions as f64
        },
    );
    reg.histogram(
        "decision_margin_bytes",
        &[("outcome", "diverted")],
        MARGIN_BOUNDS_BYTES.to_vec(),
        diverted,
    );
    reg.histogram(
        "decision_margin_bytes",
        &[("outcome", "held")],
        MARGIN_BOUNDS_BYTES.to_vec(),
        held,
    );

    let mut by_misroutes: Vec<(u32, (u64, u64))> = routers.into_iter().collect();
    by_misroutes.sort_by(|a, b| b.1 .1.cmp(&a.1 .1).then(a.0.cmp(&b.0)));
    for &(r, (dec, ind)) in by_misroutes.iter().take(LEDGER_TOP_N) {
        let label = r.to_string();
        reg.counter("router_misroutes", &[("router", &label)], ind);
        reg.gauge(
            "router_misroute_rate",
            &[("router", &label)],
            if dec == 0 { 0.0 } else { ind as f64 / dec as f64 },
        );
    }

    let mut by_heat: Vec<((u32, u32), (u64, u64))> = heat.into_iter().collect();
    by_heat.sort_by(|a, b| b.1 .1.cmp(&a.1 .1).then(a.0.cmp(&b.0)));
    for &((r, n), (obs, sum)) in by_heat.iter().take(LEDGER_TOP_N) {
        let rl = r.to_string();
        let nl = n.to_string();
        reg.gauge(
            "port_occupancy_at_decision_mean_bytes",
            &[("router", &rl), ("next", &nl)],
            if obs == 0 { 0.0 } else { sum as f64 / obs as f64 },
        );
    }
    reg
}

#[cfg(test)]
mod tests {
    use super::*;
    use d2net_routing::DecisionCandidate;

    fn rec(src: u32, verdict: DecisionVerdict, margin: f64) -> DecisionRecord {
        DecisionRecord {
            src,
            dst: 9,
            capacity_bytes: 100_000,
            min_first_hop: 1,
            q_m: 500,
            c_m: 500.0,
            threshold_margin: None,
            candidates: vec![DecisionCandidate {
                intermediate: 3,
                first_hop: 2,
                occupancy_bytes: 100,
                penalty: 1.0,
                cost: 100.0,
            }],
            verdict,
            chosen_cost: 100.0,
            margin,
        }
    }

    #[test]
    fn aggregates_are_exact_and_samples_capped() {
        let mut led = DecisionLedger::new(LedgerConfig {
            sample_rate: 1,
            max_samples: 3,
        });
        for i in 0..10u64 {
            led.on_decision(i * 1_000, i, i, &rec(4, DecisionVerdict::Indirect, 400.0));
        }
        led.on_decision(99, 99, 99, &rec(5, DecisionVerdict::ForcedMinimal, 0.0));
        let l = led.finish();
        assert_eq!(l.decisions, 11);
        assert_eq!(l.indirect, 10);
        assert_eq!(l.forced_minimal, 1);
        assert_eq!(l.samples.len(), 3, "rate 1 samples every flight, cap holds");
        assert!(l.samples_truncated);
        assert_eq!(l.routers.len(), 2);
        assert_eq!(l.routers[0].0, 4);
        assert_eq!(l.routers[0].1.indirect, 10);
        // margin 400 → second bucket (256 < 400 ≤ 1024).
        assert_eq!(l.margin_diverted[1], 10);
        // Port (4,1) consulted as minimal hop 10 times at 500 bytes each;
        // port (4,2) as candidate at 100 bytes.
        let h = l.heat.iter().find(|h| h.router == 4 && h.next == 1).unwrap();
        assert_eq!((h.observations, h.sum_bytes, h.max_bytes), (10, 5_000, 500));
        assert!((l.misroute_rate() - 10.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn zero_rate_keeps_aggregates_only() {
        let mut led = DecisionLedger::new(LedgerConfig {
            sample_rate: 0,
            max_samples: 16,
        });
        for i in 0..50u64 {
            led.on_decision(i, i, i, &rec(1, DecisionVerdict::Minimal, -32.0));
        }
        let l = led.finish();
        assert_eq!(l.decisions, 50);
        assert!(l.samples.is_empty());
        assert!(!l.samples_truncated);
        assert_eq!(l.margin_held[0], 50);
    }

    #[test]
    fn absorb_reproduces_the_serial_ledger() {
        let cfg = LedgerConfig {
            sample_rate: 1,
            max_samples: 64,
        };
        // Decisions interleaved in time across two source routers; the
        // sharded run sees them split by router, out of global order.
        let all: Vec<(u64, u64, u32, DecisionVerdict)> = vec![
            (100, 1, 0, DecisionVerdict::Indirect),
            (200, 2, 7, DecisionVerdict::Minimal),
            (300, 3, 0, DecisionVerdict::Minimal),
            (400, 4, 7, DecisionVerdict::Indirect),
            (500, 5, 0, DecisionVerdict::Indirect),
        ];
        let mut serial = DecisionLedger::new(cfg);
        for &(t, k, src, v) in &all {
            serial.on_decision(t, k, k, &rec(src, v, 64.0));
        }
        let mut a = DecisionLedger::new(cfg);
        let mut b = DecisionLedger::new(cfg);
        for &(t, k, src, v) in &all {
            let shard = if src == 0 { &mut a } else { &mut b };
            shard.on_decision(t, k, k, &rec(src, v, 64.0));
        }
        a.absorb(b);
        let merged = a.finish();
        let serial = serial.finish();
        assert_eq!(merged, serial);
        // indirect_so_far is the global cumulative count at each sample.
        let so_far: Vec<u64> = serial.samples.iter().map(|s| s.indirect_so_far).collect();
        assert_eq!(so_far, vec![1, 1, 1, 2, 3]);
    }

    #[test]
    fn ledger_metrics_summarize_and_cap() {
        let mut pts = Vec::new();
        for index in 0..2usize {
            let mut led = DecisionLedger::new(LedgerConfig::default());
            for i in 0..20u64 {
                let src = (i % 12) as u32;
                led.on_decision(i, i, i, &rec(src, DecisionVerdict::Indirect, 300.0));
            }
            pts.push(PointLedger {
                index,
                load: 0.5,
                ledger: led.finish(),
            });
        }
        let reg = ledger_metrics(&pts);
        let get = |name: &str| reg.metrics.iter().filter(|m| m.name == name).count();
        assert_eq!(get("decisions_total"), 1);
        assert_eq!(get("decision_margin_bytes"), 2);
        assert_eq!(get("router_misroutes"), LEDGER_TOP_N, "per-router series capped");
        let total = reg
            .metrics
            .iter()
            .find(|m| m.name == "decisions_total")
            .unwrap();
        assert_eq!(total.value, crate::trace::MetricValue::Counter(40));
    }
}
