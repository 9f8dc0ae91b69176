//! The engine's one observer slot and the output every run hands back.
//!
//! An [`crate::Engine`] carries a single [`ObserverSlot`] holding the
//! optional probe ([`crate::telemetry`]), trace recorder
//! ([`crate::trace`]) and decision ledger ([`crate::ledger`]). Each hook
//! site in the event loop is one call on the slot, which forwards to
//! whichever observers are attached; with none attached a hook is a
//! couple of predictable branches and the simulated schedule is
//! byte-identical to an unobserved run. The slot also owns the per-pop
//! flush, the merge of sibling shards' observers and the finalization
//! into a [`RunOutput`], so serial and sharded runs, synthetic and
//! exchange alike, close through the same code.
//!
//! The slot is a concrete struct rather than a trait: there are exactly
//! three observers, all known to the crate, and a trait object or a
//! generic engine parameter would add dispatch or monomorphized copies
//! of the engine without removing a single hook site.

use crate::engine::MigrantFlight;
use crate::equeue::CalendarStats;
use crate::ledger::{DecisionLedger, EngineLedger, LedgerConfig};
use crate::stats::SyntheticStats;
use crate::telemetry::{DeadlockReport, ProbeConfig, Telemetry, TelemetryReport};
use crate::trace::{EngineTrace, TraceConfig, TraceRecorder};
use d2net_routing::DecisionRecord;

/// The observers a run attaches to every engine it builds — the one
/// value threaded through single runs, exchanges, sweep points and the
/// sweep driver.
#[derive(Clone, Copy, Default)]
pub(crate) struct Observers {
    pub(crate) probe: Option<ProbeConfig>,
    pub(crate) trace: Option<TraceConfig>,
    pub(crate) ledger: Option<LedgerConfig>,
}

/// What one run hands back: its stats ([`SyntheticStats`] or
/// [`crate::ExchangeStats`]), the output of each attached observer, and
/// the run's engine-event count (summed over shards), which feeds the
/// live progress counters.
#[derive(Debug)]
pub(crate) struct RunOutput<S = SyntheticStats> {
    pub(crate) stats: S,
    pub(crate) telemetry: Option<TelemetryReport>,
    pub(crate) trace: Option<EngineTrace>,
    pub(crate) ledger: Option<EngineLedger>,
    pub(crate) events: u64,
}

/// The finished run's facts the observers close over, read from the
/// engine every shard was absorbed into.
pub(crate) struct RunEnd {
    /// The run's horizon; `None` for an exchange, whose measure phase
    /// ends at its last injection or its last delivery, whichever is
    /// earlier.
    pub(crate) horizon_ps: Option<u64>,
    pub(crate) warmup_ps: u64,
    pub(crate) last_delivery_ps: u64,
    /// The engine clock when the event loop stopped.
    pub(crate) final_ps: u64,
    pub(crate) events_scheduled: u64,
    pub(crate) calendar: Option<CalendarStats>,
    /// Packets dropped in flight or at the source, and packets injected
    /// after a retry: the probe has no hooks of its own for these.
    pub(crate) dropped_packets: u64,
    pub(crate) retried_packets: u64,
}

/// The live observers of one engine. Every hook is observer-only: it
/// reads what the engine hands it and never feeds state back.
#[derive(Default)]
pub(crate) struct ObserverSlot {
    probe: Option<Telemetry>,
    trace: Option<TraceRecorder>,
    ledger: Option<DecisionLedger>,
}

impl ObserverSlot {
    /// Attaches the observers `cfg` asks for; `probe` builds the probe
    /// for the engine's geometry.
    pub(crate) fn attach(cfg: Observers, probe: impl FnOnce(ProbeConfig) -> Telemetry) -> Self {
        ObserverSlot {
            probe: cfg.probe.map(probe),
            trace: cfg.trace.map(TraceRecorder::new),
            ledger: cfg.ledger.map(DecisionLedger::new),
        }
    }

    /// Whether a probe is attached (forensics feed only its report).
    pub(crate) fn probing(&self) -> bool {
        self.probe.is_some()
    }

    /// Whether injections must route through the recorded (rng-neutral)
    /// entry point for the ledger.
    #[inline]
    pub(crate) fn records_decisions(&self) -> bool {
        self.ledger.is_some()
    }

    /// Flushes the probe's sample windows up to simulated time `t`.
    #[inline]
    pub(crate) fn flush(&mut self, t: u64, in_occ: &[u64], out_occ: &[u64]) {
        if let Some(p) = self.probe.as_mut() {
            p.sample_to(t, in_occ, out_occ);
        }
    }

    /// The event loop popped an event at `t`.
    #[inline]
    pub(crate) fn on_pop(&mut self, t: u64, in_occ: &[u64], out_occ: &[u64]) {
        self.flush(t, in_occ, out_occ);
        if let Some(tr) = self.trace.as_mut() {
            tr.counters.events_popped += 1;
        }
    }

    /// A packet entered the slab at simulated time `at.0` under schedule
    /// key `at` (see [`TraceRecorder::on_alloc`]).
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_alloc(
        &mut self,
        pkt: u32,
        flight_id: u64,
        at: (u64, u64),
        router: u32,
        src: u32,
        dst: u32,
        bytes: u32,
        birth_ps: u64,
    ) {
        if let Some(tr) = self.trace.as_mut() {
            tr.on_alloc(pkt, flight_id, at, at.0, router, src, dst, bytes, birth_ps);
        }
    }

    /// An injection-time routing decision, recorded by the ledger.
    #[inline]
    pub(crate) fn on_decision(&mut self, t: u64, key: u64, flight_id: u64, rec: &DecisionRecord) {
        if let Some(led) = self.ledger.as_mut() {
            led.on_decision(t, key, flight_id, rec);
        }
    }

    /// A packet was routed at its source router.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_route(
        &mut self,
        t: u64,
        pkt: u32,
        router: u32,
        src: u32,
        dst: u32,
        bytes: u32,
        indirect: bool,
    ) {
        if let Some(p) = self.probe.as_mut() {
            p.on_inject(t, router, src, dst, bytes, indirect);
        }
        if let Some(tr) = self.trace.as_mut() {
            tr.on_route(pkt, indirect);
        }
    }

    /// A packet entered a router's input FIFO.
    #[inline]
    pub(crate) fn on_arrive_router(&mut self, pkt: u32, t: u64, router: u32, hop: u8) {
        if let Some(tr) = self.trace.as_mut() {
            tr.counters.in_q_pushes += 1;
            tr.on_arrive_router(pkt, t, router, hop);
        }
    }

    /// A packet was dropped at `router`.
    #[inline]
    pub(crate) fn on_drop(&mut self, pkt: u32, t: u64, router: u32) {
        if let Some(tr) = self.trace.as_mut() {
            tr.on_drop(pkt, t, router);
        }
    }

    /// An input `(port, VC)` blocked on a full output buffer.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_blocked(
        &mut self,
        t: u64,
        pkt: u32,
        router: u32,
        in_port: u32,
        in_vc: u8,
        out_port: u32,
        out_vc: u8,
    ) {
        if let Some(p) = self.probe.as_mut() {
            p.on_blocked(t, in_port, in_vc, out_port, out_vc);
        }
        if let Some(tr) = self.trace.as_mut() {
            tr.counters.blocked_entries += 1;
            tr.on_blocked(pkt, t, router, out_port, out_vc);
        }
    }

    /// A packet crossed the switch into an output FIFO.
    #[inline]
    pub(crate) fn on_switch_alloc(&mut self, pkt: u32, t: u64, router: u32, port: u32, vc: u8) {
        if let Some(tr) = self.trace.as_mut() {
            tr.counters.out_q_pushes += 1;
            tr.on_switch_alloc(pkt, t, router, port, vc);
        }
    }

    /// An output port started serializing a packet.
    #[inline]
    pub(crate) fn on_send(&mut self, t: u64, pkt: u32, port: u32, bytes: u32) {
        if let Some(p) = self.probe.as_mut() {
            p.on_send(t, port, bytes);
        }
        if let Some(tr) = self.trace.as_mut() {
            tr.on_serialize(pkt, t, port);
        }
    }

    /// A packet reached its destination node.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_eject(
        &mut self,
        t: u64,
        pkt: u32,
        router: u32,
        dst: u32,
        src: u32,
        bytes: u32,
        delay_ps: u64,
    ) {
        if let Some(p) = self.probe.as_mut() {
            p.on_eject(t, router, dst, src, bytes, delay_ps);
        }
        if let Some(tr) = self.trace.as_mut() {
            tr.on_eject(pkt, t, router);
        }
    }

    /// A link from `router` to `peer` died, flushing `flushed` packets.
    pub(crate) fn on_link_down(&mut self, t: u64, router: u32, peer: u32, flushed: u32) {
        if let Some(p) = self.probe.as_mut() {
            p.on_link_down(t, router, peer, flushed);
        }
    }

    /// Detaches slab slot `pkt`'s flight record (if sampled) so it can
    /// travel with its packet to another shard.
    #[inline]
    pub(crate) fn extract_flight(&mut self, pkt: u32) -> Option<Box<MigrantFlight>> {
        self.trace
            .as_mut()
            .and_then(|tr| tr.extract_flight(pkt))
            .map(Box::new)
    }

    /// Binds a migrant packet's flight record to its new slab slot `pkt`.
    /// An unsampled migrant still resets the slot's mapping so id
    /// recycling cannot splice timelines.
    pub(crate) fn implant_flight(&mut self, pkt: u32, flight: Option<Box<MigrantFlight>>) {
        if let Some(tr) = self.trace.as_mut() {
            match flight {
                Some(m) => {
                    let (key, f) = *m;
                    tr.implant_flight(pkt, key, f)
                }
                None => tr.clear_slot(pkt),
            }
        }
    }

    /// Folds a sibling shard's observers into this slot after a sharded
    /// run, so finalization emits merged, serial-identical output.
    pub(crate) fn absorb(&mut self, other: ObserverSlot) {
        if let (Some(p), Some(o)) = (self.probe.as_mut(), other.probe) {
            p.absorb(o);
        }
        if let (Some(tr), Some(o)) = (self.trace.as_mut(), other.trace) {
            tr.absorb(o);
        }
        if let (Some(led), Some(o)) = (self.ledger.as_mut(), other.ledger) {
            led.absorb(o);
        }
    }

    /// Finalizes every attached observer into the run's output: the
    /// probe into its report (with `forensics` when the run wedged), the
    /// recorder into its trace with the phase spans closed, the ledger
    /// into its record.
    pub(crate) fn finish<S>(
        self,
        stats: S,
        forensics: Option<DeadlockReport>,
        end: RunEnd,
    ) -> RunOutput<S> {
        let telemetry = self.probe.map(|p| {
            let mut report = p.into_report(forensics);
            report.total_dropped_packets = end.dropped_packets;
            report.total_retried_packets = end.retried_packets;
            report
        });
        let trace = self.trace.map(|tr| {
            let measure_end_ps = end
                .horizon_ps
                .unwrap_or(tr.last_alloc_ps.min(end.last_delivery_ps));
            tr.finish(
                end.warmup_ps,
                measure_end_ps,
                end.final_ps,
                end.events_scheduled,
                end.calendar,
            )
        });
        RunOutput {
            stats,
            telemetry,
            trace,
            ledger: self.ledger.map(DecisionLedger::finish),
            events: end.events_scheduled,
        }
    }
}
