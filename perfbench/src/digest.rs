//! Digests of simulated results, and the reference digests recorded at
//! the default seed.

use crate::workloads::Workload;
use d2net_core::sim::{ExchangeStats, SweepOutcome, SyntheticStats};

pub type Digest = u64;

/// FNV-1a over a sequence of 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) -> &mut Self {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    fn f(&mut self, x: f64) -> &mut Self {
        self.word(x.to_bits())
    }
}

fn add_stats(h: &mut Fnv, s: &SyntheticStats) {
    h.f(s.offered_load)
        .f(s.throughput)
        .f(s.avg_delay_ns)
        .word(s.max_delay_ns)
        .word(s.delivered_packets)
        .word(s.indirect_packets)
        .f(s.avg_hops)
        .word(s.p99_delay_ns)
        .f(s.max_link_utilization)
        .word(s.dropped_packets)
        .word(s.retried_packets)
        .word(s.deadlocked as u64)
        .word(s.exhausted as u64);
}

/// Every field of one synthetic run's stats, bit for bit.
pub fn stats_digest(s: &SyntheticStats) -> Digest {
    let mut h = Fnv::new();
    add_stats(&mut h, s);
    h.0
}

/// Every point of a sweep, in load order.
pub fn sweep_digest(o: &SweepOutcome) -> Digest {
    let mut h = Fnv::new();
    h.word(o.points.len() as u64);
    for p in &o.points {
        h.f(p.load);
        add_stats(&mut h, &p.stats);
    }
    h.0
}

pub fn exchange_digest(s: &ExchangeStats) -> Digest {
    let mut h = Fnv::new();
    h.word(s.delivered_bytes)
        .word(s.completion_ns)
        .f(s.effective_throughput)
        .f(s.avg_delay_ns)
        .word(s.p99_delay_ns)
        .word(s.delivered_packets)
        .word(s.indirect_packets)
        .word(s.deadlocked as u64);
    h.0
}

/// Digest of each workload's simulated output at the default seed,
/// recorded from the code the benchmark was defined on
/// (`d2net-perfbench reference` prints them). A later change that moves
/// one has changed simulated results, not just speed.
/// The digests depend on [`crate::workloads::Sizes`]; changing a size
/// means recording them again.
const REFERENCES: &[(&str, bool, Digest)] = &[
    ("coral_uniform_min", true, 0x1021_0789_49d5_0e50),
    ("serve_sf7_ugal_wc", true, 0x9dd5_bcde_177d_cccb),
    ("coral_nn_exchange", true, 0xfdd5_10de_6673_ec44),
    ("coral_uniform_min", false, 0x540a_465b_789f_3190),
    ("serve_sf7_ugal_wc", false, 0x8ae7_5d57_1945_583c),
    ("coral_nn_exchange", false, 0x0a36_b2aa_f1dc_1164),
];

pub fn reference(w: Workload, smoke: bool) -> Option<Digest> {
    REFERENCES
        .iter()
        .find(|(name, s, _)| *name == w.name() && *s == smoke)
        .map(|(_, _, d)| *d)
}
