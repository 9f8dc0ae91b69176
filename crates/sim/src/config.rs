//! Simulation parameters.
//!
//! Defaults reproduce the paper's setup (§4.1): virtual-channel
//! input-output-buffered switches with 100 KB of buffer per port per
//! direction, 100 ns switch traversal, 100 Gb/s links with 50 ns latency,
//! credit-based flow control, and 256-byte packets.
//!
//! Time is measured in integer **picoseconds**: one 256 B packet at
//! 100 Gb/s serializes in exactly 20 480 ps, so no floating-point time
//! drift can accumulate.

/// Picoseconds per nanosecond.
pub const PS_PER_NS: u64 = 1_000;

/// Packet inter-arrival process for synthetic sources.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Arrival {
    /// Constant spacing at the configured load (the paper's "generated
    /// continuously at link rate" methodology).
    #[default]
    Deterministic,
    /// Exponential inter-arrivals with the same mean (Poisson process);
    /// burstier, raising queueing delay at equal load.
    Exponential,
}

/// Whether (and how strictly) the static preflight verifier runs before
/// a simulation is constructed. See `d2net_verify` for what is checked.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Preflight {
    /// No static verification (the historical behavior, and the default:
    /// the exhaustive route-space pass is meant for small instances).
    #[default]
    Off,
    /// Verify; on a rejected config print the diagnostic report to stderr
    /// and simulate anyway (the wedge will demonstrate the prediction).
    Warn,
    /// Verify; on a rejected config refuse to simulate, panicking with
    /// the rendered diagnostic report.
    Enforce,
}

/// Which priority-queue structure drives the engine's event loop. Both
/// produce byte-identical schedules (the `(time, seq)` order is total);
/// the calendar queue is the fast path, the heap the reference
/// implementation retained for cross-check tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EventQueueKind {
    /// Hierarchical calendar/bucket queue sized from the config's
    /// serialization/link/switch delays (see `sim::equeue`).
    #[default]
    Calendar,
    /// Plain `BinaryHeap<Reverse<(time, seq, Ev)>>` — the seed
    /// implementation.
    Heap,
}

/// Per-point run budget, enforced inside the engine's event loop. A
/// field of `0` means unlimited; the default is fully unlimited, so a
/// budget-free config simulates exactly as before. When a limit trips,
/// the engine stops popping events and reports the run as **exhausted**
/// ([`crate::SyntheticStats::exhausted`]) with the measurements
/// accumulated so far — a structured abort instead of a hang.
///
/// The event-count limit is deterministic (the schedule is a pure
/// function of the config, so the abort point is too); the wall-clock
/// limit is inherently not, and is meant as a supervisor's last line of
/// defense against runs that stall without making event progress.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunBudget {
    /// Maximum events popped per run (`0` = unlimited). Deterministic:
    /// checked where a conservative time window ends (one link latency
    /// after the window's first event, see [`crate::shard`]), so a run
    /// may pop up to one window's events past the limit, and it trips
    /// after the same event at every shard count.
    pub max_events: u64,
    /// Maximum wall-clock milliseconds per run (`0` = unlimited).
    /// Checked every 1024 pops; not deterministic across machines.
    pub max_wall_ms: u64,
}

impl RunBudget {
    /// True when no limit is set — the engine loop skips all budget
    /// bookkeeping in that case.
    pub fn is_unlimited(&self) -> bool {
        self.max_events == 0 && self.max_wall_ms == 0
    }

    /// An event-count-only budget.
    pub fn events(max_events: u64) -> Self {
        RunBudget {
            max_events,
            max_wall_ms: 0,
        }
    }

    /// A wall-clock-only budget.
    pub fn wall_ms(max_wall_ms: u64) -> Self {
        RunBudget {
            max_events: 0,
            max_wall_ms,
        }
    }
}

/// What an injected chaos fault does when it fires (see
/// [`crate::supervise::ChaosConfig`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosKind {
    /// `panic!` inside the event loop — exercises `catch_unwind`
    /// isolation in the sweep harnesses.
    Panic,
    /// Stop making event progress (sleep) until the wall-clock budget
    /// trips (or a 2 s failsafe, so an unbudgeted run cannot hang
    /// forever) — exercises the budget abort path.
    Stall,
}

/// One armed chaos fault: fire `kind` after `after_events` event pops.
/// Decided per (point, attempt) by the supervisor
/// ([`crate::supervise::ChaosConfig::decide`]); `SimConfig::chaos` is
/// `None` everywhere outside supervised chaos runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineChaos {
    pub kind: ChaosKind,
    pub after_events: u64,
}

/// Simulation configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Link bandwidth in Gb/s (default 100).
    pub link_bandwidth_gbps: f64,
    /// Link propagation latency in ns (default 50).
    pub link_latency_ns: u64,
    /// Switch traversal latency in ns (default 100).
    pub switch_latency_ns: u64,
    /// Buffer space per port per direction in bytes (default 100 KB).
    pub buffer_bytes: u64,
    /// Packet size in bytes (default 256).
    pub packet_bytes: u32,
    /// RNG seed for all stochastic components (traffic, route sampling).
    pub seed: u64,
    /// Synthetic-source inter-arrival process.
    pub arrival: Arrival,
    /// Static verification before simulating (default [`Preflight::Off`]).
    pub preflight: Preflight,
    /// Event-queue structure for the engine's hot loop (default
    /// [`EventQueueKind::Calendar`]; results are identical either way).
    pub event_queue: EventQueueKind,
    /// Intra-run shard count for single runs ([`crate::run_synthetic`],
    /// [`crate::run_exchange`] and their forms) and sweep points: routers
    /// are partitioned into this many per-thread engine shards running in
    /// conservative time windows. `0` (the default) means auto — the `D2NET_SHARDS` environment variable if
    /// set, otherwise a size-based heuristic; `1` forces serial. Results
    /// are byte-identical for every value (see `sim::shard`).
    pub shards: u32,
    /// Per-point run budget (default unlimited — see [`RunBudget`]).
    /// Not part of a point's content hash: a tripped budget yields an
    /// exhausted partial result, never a journaled completed point.
    pub budget: RunBudget,
    /// Armed chaos fault for this run (default `None`). Set only by the
    /// supervisor's chaos registry; never by ordinary configs.
    pub chaos: Option<EngineChaos>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            link_bandwidth_gbps: 100.0,
            link_latency_ns: 50,
            switch_latency_ns: 100,
            buffer_bytes: 100_000,
            packet_bytes: 256,
            seed: 0xD2_4E7,
            arrival: Arrival::Deterministic,
            preflight: Preflight::Off,
            event_queue: EventQueueKind::Calendar,
            shards: 0,
            budget: RunBudget::default(),
            chaos: None,
        }
    }
}

impl SimConfig {
    /// Picoseconds needed to serialize one byte at link rate
    /// (80 ps at 100 Gb/s).
    pub fn ps_per_byte(&self) -> u64 {
        d2net_verify::invariant::exact_ps_per_byte(self.link_bandwidth_gbps)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// The subset of this config the static preflight verifier consults.
    pub fn verify_params(&self) -> d2net_verify::VerifyParams {
        d2net_verify::VerifyParams {
            buffer_bytes: self.buffer_bytes,
            packet_bytes: self.packet_bytes,
            link_bandwidth_gbps: self.link_bandwidth_gbps,
            ..d2net_verify::VerifyParams::default()
        }
    }

    /// Serialization time of `bytes` in ps.
    #[inline]
    pub fn ser_ps(&self, bytes: u32) -> u64 {
        bytes as u64 * self.ps_per_byte()
    }

    /// Link latency in ps.
    #[inline]
    pub fn link_ps(&self) -> u64 {
        self.link_latency_ns * PS_PER_NS
    }

    /// Switch traversal latency in ps.
    #[inline]
    pub fn switch_ps(&self) -> u64 {
        self.switch_latency_ns * PS_PER_NS
    }

    /// Mean packet inter-arrival time (ps) at a node injecting at
    /// `load` ∈ (0, 1] of link bandwidth.
    pub fn interval_ps(&self, load: f64) -> u64 {
        assert!(load > 0.0 && load <= 1.0, "load must be in (0, 1], got {load}");
        (self.ser_ps(self.packet_bytes) as f64 / load).round() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let c = SimConfig::default();
        assert_eq!(c.ps_per_byte(), 80);
        assert_eq!(c.ser_ps(256), 20_480);
        assert_eq!(c.link_ps(), 50_000);
        assert_eq!(c.switch_ps(), 100_000);
        assert_eq!(c.buffer_bytes, 100_000);
    }

    #[test]
    fn interval_scales_inversely_with_load() {
        let c = SimConfig::default();
        assert_eq!(c.interval_ps(1.0), 20_480);
        assert_eq!(c.interval_ps(0.5), 40_960);
        assert_eq!(c.interval_ps(0.1), 204_800);
    }

    #[test]
    #[should_panic(expected = "load must be in")]
    fn rejects_zero_load() {
        SimConfig::default().interval_ps(0.0);
    }

    #[test]
    #[should_panic(expected = "divide 8000")]
    fn rejects_inexact_bandwidth() {
        SimConfig {
            link_bandwidth_gbps: 3.0, // 2666.67 ps/byte
            ..Default::default()
        }
        .ps_per_byte();
    }
}
