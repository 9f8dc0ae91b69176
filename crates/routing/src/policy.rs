//! Route selection policies: oblivious minimal (§3.1), oblivious indirect
//! random / Valiant (§3.2), and the local UGAL adaptive variants (§3.3),
//! together with the VC assignment rules that make each deadlock-free
//! (§3.4).
//!
//! All decisions are taken once, at packet injection, using only state
//! local to the source router (the occupancies of its own output ports) —
//! the paper's "local variant of UGAL".

use crate::path::{RoutePath, MAX_PATH_ROUTERS};
use crate::tables::MinimalTables;
use d2net_topo::{Network, RouterId, TopologyKind};
use rand::Rng;

/// The routing algorithm to apply at injection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Algorithm {
    /// Oblivious minimal routing (MIN).
    Minimal,
    /// Oblivious indirect random routing (INR): always route via a
    /// uniformly random intermediate router.
    Valiant,
    /// Global UGAL (UGAL-G): like [`Algorithm::Ugal`], but costs each
    /// candidate by the *sum of output occupancies along its whole path*
    /// rather than the first port only. The paper (§3.3) notes this
    /// variant "requires knowledge of the buffers' state for the whole
    /// topology at the point of injection, which is hard to implement in
    /// practice" — included here as the idealized upper baseline.
    UgalG {
        /// Number of indirect candidates considered per packet.
        n_i: usize,
        /// Penalty constant applied to indirect path costs.
        c: f64,
    },
    /// Local UGAL: choose between the minimal path and `n_i` random
    /// indirect candidates by comparing first-output-port occupancies.
    Ugal {
        /// Number of indirect candidates considered per packet.
        n_i: usize,
        /// Penalty constant `c` (`cSF` for the Slim Fly's scaled variant).
        c: f64,
        /// `Some(T)` enables the thresholded variant (SF-ATh/MLFM-ATh/
        /// OFT-ATh): route minimally outright while the minimal output
        /// buffer is below fraction `T` of its capacity.
        threshold: Option<f64>,
    },
}

/// How VCs are assigned along a route (paper §3.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VcScheme {
    /// VC = hop index. Used by the Slim Fly: 2 VCs suffice for minimal
    /// routing, 4 for indirect — the VC strictly increases along any path,
    /// so the channel dependency graph is a DAG by construction.
    HopIndex,
    /// VC = 0 while heading toward the Valiant intermediate, 1 afterwards.
    /// Used by the MLFM and OFT: each phase is a *towards*/*away* pair
    /// that is inherently cycle-free, so minimal routing needs 1 VC and
    /// indirect routing 2.
    PhaseBased,
    /// Every hop on VC 0. **Deliberately unsafe** under indirect routing —
    /// kept as the negative control for the deadlock-avoidance ablation
    /// (§3.4 shows the resulting CDG cycles; the simulator shows the
    /// wedge).
    SingleVc,
}

/// VC for the `hop`-th link (0-based) of `choice` under `scheme` — the
/// free-function form of [`RoutePolicy::vc_for_hop`]. Simulators stamp
/// each packet with the scheme of the policy that routed it, so packets
/// routed before and after a mid-run table repair (which may switch a
/// phase-based family to hop-indexed VCs) coexist in flight with
/// consistent labels.
#[inline]
pub fn vc_for_hop(scheme: VcScheme, choice: &RouteChoice, hop: usize) -> u8 {
    vc_for_phase(scheme, choice.indirect, choice.phase_hops, hop)
}

/// [`vc_for_hop`] from a route's phase label alone (`indirect`,
/// `phase_hops`), for simulators that store routes in their own packed
/// form rather than as a [`RouteChoice`].
#[inline]
pub fn vc_for_phase(scheme: VcScheme, indirect: bool, phase_hops: u8, hop: usize) -> u8 {
    match scheme {
        VcScheme::HopIndex => hop as u8,
        VcScheme::PhaseBased => {
            if indirect && hop >= phase_hops as usize {
                1
            } else {
                0
            }
        }
        VcScheme::SingleVc => 0,
    }
}

/// Which routers may serve as Valiant intermediates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntermediateSet {
    /// Any router (the Slim Fly rule; paths of 2–4 hops).
    AllRouters,
    /// Only routers with end-nodes attached (the MLFM/OFT rule; paths of
    /// exactly 4 hops). Avoids both under-balancing 2-hop and high-latency
    /// 6-hop indirect routes (§3.2).
    EndpointRouters,
}

/// A fully resolved route for one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteChoice {
    /// The router sequence, source to destination.
    pub path: RoutePath,
    /// Hops belonging to the first phase (toward the intermediate);
    /// equal to `path.num_hops()` for minimal routes.
    pub phase_hops: u8,
    /// True if this is an indirect (Valiant) route.
    pub indirect: bool,
}

/// Read-only view of the injection router's output-port occupancies, the
/// only network state local UGAL is allowed to consult.
pub trait OccupancyView {
    /// Bytes currently queued at `router`'s output port toward `next`.
    fn occupancy_bytes(&self, router: RouterId, next: RouterId) -> u64;
    /// Capacity of one output buffer in bytes (for threshold tests).
    fn capacity_bytes(&self) -> u64;
}

/// An [`OccupancyView`] reporting empty buffers everywhere; useful for
/// oblivious policies and tests.
pub struct ZeroOccupancy;

impl OccupancyView for ZeroOccupancy {
    fn occupancy_bytes(&self, _: RouterId, _: RouterId) -> u64 {
        0
    }
    fn capacity_bytes(&self) -> u64 {
        1
    }
}

/// How a routing decision was settled (decision-ledger taxonomy).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionVerdict {
    /// Adaptive comparison ran and the minimal path won (or no indirect
    /// candidate beat it).
    Minimal,
    /// Adaptive comparison ran and an indirect candidate won.
    Indirect,
    /// Threshold short-circuit: `qM < T · capacity`, minimal forced
    /// without costing any candidate.
    ForcedMinimal,
    /// Oblivious indirect (Valiant): no cost comparison took place.
    ForcedIndirect,
    /// Indirect algorithm with no surviving intermediate (degraded
    /// networks): minimal fallback.
    FallbackMinimal,
}

impl DecisionVerdict {
    /// True for verdicts that route the packet indirectly.
    #[inline]
    pub fn is_indirect(self) -> bool {
        matches!(self, DecisionVerdict::Indirect | DecisionVerdict::ForcedIndirect)
    }

    /// Stable lower-snake label for manifests and tables.
    pub fn name(self) -> &'static str {
        match self {
            DecisionVerdict::Minimal => "minimal",
            DecisionVerdict::Indirect => "indirect",
            DecisionVerdict::ForcedMinimal => "forced_minimal",
            DecisionVerdict::ForcedIndirect => "forced_indirect",
            DecisionVerdict::FallbackMinimal => "fallback_minimal",
        }
    }
}

/// One indirect candidate considered during an adaptive decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecisionCandidate {
    /// The Valiant intermediate sampled for this candidate.
    pub intermediate: RouterId,
    /// First hop the candidate would take out of the source router.
    pub first_hop: RouterId,
    /// Occupancy consulted for this candidate: the first output port's
    /// bytes under UGAL-L, the whole-path sum under UGAL-G.
    pub occupancy_bytes: u64,
    /// Penalty multiplier applied (`c`, or `L_I/L_M · c` when scaled).
    pub penalty: f64,
    /// Final cost `penalty · occupancy` the comparison used.
    pub cost: f64,
}

/// A full account of one injection-time routing decision: the state
/// consulted, every candidate costed, and the verdict. Emitted by
/// [`RoutePolicy::try_choose_recorded`]; byte-for-byte rng-neutral with
/// respect to [`RoutePolicy::try_choose`].
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionRecord {
    /// Source router of the decision.
    pub src: RouterId,
    /// Destination router.
    pub dst: RouterId,
    /// Output-buffer capacity the occupancy view reported (threshold base).
    pub capacity_bytes: u64,
    /// First hop of the minimal route that was costed (for oblivious
    /// verdicts: the first hop of the chosen route).
    pub min_first_hop: RouterId,
    /// Occupancy cost of the minimal route: best first-port bytes under
    /// UGAL-L, whole-path sum under UGAL-G, 0 for oblivious verdicts.
    pub q_m: u64,
    /// Minimal-route cost as the comparison saw it (`qM` as f64).
    pub c_m: f64,
    /// `T · capacity − qM` when a threshold is configured (positive means
    /// the threshold forced the minimal route).
    pub threshold_margin: Option<f64>,
    /// Every indirect candidate costed, in sampling order.
    pub candidates: Vec<DecisionCandidate>,
    /// How the decision was settled.
    pub verdict: DecisionVerdict,
    /// Cost of the route actually taken.
    pub chosen_cost: f64,
    /// Divergence margin `c_m − best candidate cost`: positive when the
    /// best indirect candidate undercut the minimal route (diverted),
    /// non-positive when minimal held; 0 when no candidate was costed.
    pub margin: f64,
}

/// Compile-time tap on the decision internals of the `*_choice` methods.
/// [`NoSink`] (the `try_choose` path) has `ENABLED = false`, so every
/// recording block folds away and the adaptive algorithms run exactly the
/// instructions — and exactly the rng draws — they ran before the ledger
/// existed.
trait DecisionSink {
    const ENABLED: bool;
    fn begin(&mut self, src: RouterId, dst: RouterId, capacity_bytes: u64);
    fn minimal_cost(&mut self, first_hop: RouterId, q_m: u64, c_m: f64);
    fn threshold_margin(&mut self, margin: f64);
    fn candidate(&mut self, cand: DecisionCandidate);
    fn verdict(&mut self, verdict: DecisionVerdict, chosen_cost: f64, margin: f64);
}

/// The no-op sink behind [`RoutePolicy::try_choose`].
struct NoSink;

impl DecisionSink for NoSink {
    const ENABLED: bool = false;
    #[inline(always)]
    fn begin(&mut self, _: RouterId, _: RouterId, _: u64) {}
    #[inline(always)]
    fn minimal_cost(&mut self, _: RouterId, _: u64, _: f64) {}
    #[inline(always)]
    fn threshold_margin(&mut self, _: f64) {}
    #[inline(always)]
    fn candidate(&mut self, _: DecisionCandidate) {}
    #[inline(always)]
    fn verdict(&mut self, _: DecisionVerdict, _: f64, _: f64) {}
}

/// Builds a [`DecisionRecord`] in place as the choice methods report in.
struct RecordSink {
    rec: DecisionRecord,
}

impl RecordSink {
    fn new() -> Self {
        RecordSink {
            rec: DecisionRecord {
                src: 0,
                dst: 0,
                capacity_bytes: 0,
                min_first_hop: 0,
                q_m: 0,
                c_m: 0.0,
                threshold_margin: None,
                candidates: Vec::new(),
                verdict: DecisionVerdict::Minimal,
                chosen_cost: 0.0,
                margin: 0.0,
            },
        }
    }
}

impl DecisionSink for RecordSink {
    const ENABLED: bool = true;
    fn begin(&mut self, src: RouterId, dst: RouterId, capacity_bytes: u64) {
        self.rec.src = src;
        self.rec.dst = dst;
        self.rec.capacity_bytes = capacity_bytes;
    }
    fn minimal_cost(&mut self, first_hop: RouterId, q_m: u64, c_m: f64) {
        self.rec.min_first_hop = first_hop;
        self.rec.q_m = q_m;
        self.rec.c_m = c_m;
    }
    fn threshold_margin(&mut self, margin: f64) {
        self.rec.threshold_margin = Some(margin);
    }
    fn candidate(&mut self, cand: DecisionCandidate) {
        self.rec.candidates.push(cand);
    }
    fn verdict(&mut self, verdict: DecisionVerdict, chosen_cost: f64, margin: f64) {
        self.rec.verdict = verdict;
        self.rec.chosen_cost = chosen_cost;
        self.rec.margin = margin;
    }
}

/// A route policy bound to one network.
pub struct RoutePolicy {
    tables: MinimalTables,
    algorithm: Algorithm,
    vc_scheme: VcScheme,
    intermediates: Vec<RouterId>,
    /// Scale the indirect penalty by path-length ratio `L_I / L_M`
    /// (the Slim Fly cost rule; constant-`c` otherwise).
    scaled_penalty: bool,
    /// Router-graph diameter, bounding minimal path length.
    diameter: u8,
}

impl RoutePolicy {
    /// Builds a policy for `net`, deriving the VC scheme, intermediate set
    /// and penalty rule from the topology family as prescribed in §3.
    pub fn new(net: &Network, algorithm: Algorithm) -> Self {
        let (vc_scheme, intermediate_set, scaled) = match net.kind() {
            TopologyKind::SlimFly(_) => (VcScheme::HopIndex, IntermediateSet::AllRouters, true),
            TopologyKind::Mlfm(_)
            | TopologyKind::Oft(_)
            | TopologyKind::Sspt(_)
            | TopologyKind::FatTree2(_) => {
                (VcScheme::PhaseBased, IntermediateSet::EndpointRouters, false)
            }
            // HyperX and custom networks get the always-safe hop-indexed
            // scheme and unrestricted intermediates.
            _ => (VcScheme::HopIndex, IntermediateSet::AllRouters, false),
        };
        Self::with_overrides(net, algorithm, vc_scheme, intermediate_set, scaled)
    }

    /// Builds a fault-aware policy for a possibly degraded network: the
    /// tables are recomputed around the failures (so minimal routes are
    /// repaired wherever a path survives), and the VC scheme falls back
    /// to hop-indexed VCs over the *repaired* diameter — the VC label
    /// strictly increases along every route, so the repaired CDG stays
    /// acyclic regardless of how the failures warped the structure the
    /// family's phase-based scheme relied on. Unreachable pairs are data
    /// (see [`MinimalTables::unreachable_pairs`]), not panics.
    ///
    /// On a pristine network this is identical to [`RoutePolicy::new`].
    pub fn repair(net: &Network, algorithm: Algorithm) -> Self {
        if !net.is_degraded() {
            return Self::new(net, algorithm);
        }
        let (intermediate_set, scaled) = match net.kind() {
            TopologyKind::SlimFly(_) => (IntermediateSet::AllRouters, true),
            TopologyKind::Mlfm(_)
            | TopologyKind::Oft(_)
            | TopologyKind::Sspt(_)
            | TopologyKind::FatTree2(_) => (IntermediateSet::EndpointRouters, false),
            _ => (IntermediateSet::AllRouters, false),
        };
        Self::with_overrides(net, algorithm, VcScheme::HopIndex, intermediate_set, scaled)
    }

    /// Builds a policy with explicit scheme choices (ablations and tests).
    pub fn with_overrides(
        net: &Network,
        algorithm: Algorithm,
        vc_scheme: VcScheme,
        intermediate_set: IntermediateSet,
        scaled_penalty: bool,
    ) -> Self {
        let tables = MinimalTables::build_partial(net);
        let intermediates = match intermediate_set {
            IntermediateSet::AllRouters => (0..net.num_routers()).collect(),
            IntermediateSet::EndpointRouters => net.endpoint_routers(),
        };
        let diameter = tables.max_finite_dist();
        RoutePolicy {
            tables,
            algorithm,
            vc_scheme,
            intermediates,
            scaled_penalty,
            diameter,
        }
    }

    /// The minimal-route tables (shared with analysis code).
    pub fn tables(&self) -> &MinimalTables {
        &self.tables
    }

    /// The configured algorithm.
    pub fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// The VC scheme in force.
    pub fn vc_scheme(&self) -> VcScheme {
        self.vc_scheme
    }

    /// The routers eligible as Valiant intermediates.
    pub fn intermediates(&self) -> &[RouterId] {
        &self.intermediates
    }

    /// Router-graph diameter of the bound network (bounds minimal path
    /// length; indirect paths are at most twice this). On a degraded
    /// network this is the repaired diameter — the maximum over the
    /// *surviving* pairs.
    pub fn diameter(&self) -> u8 {
        self.diameter
    }

    /// True if the policy can deliver a packet from router `s` to router
    /// `d`: some minimal route survives (indirect routes compose two
    /// minimal segments, so they cannot rescue a pair with no minimal
    /// path). Always true on a connected network.
    #[inline]
    pub fn is_routable(&self, s: RouterId, d: RouterId) -> bool {
        s == d || self.tables.is_reachable(s, d)
    }

    /// Number of virtual channels the simulator must provision:
    /// SF needs 2 (minimal) / 4 (indirect-capable); MLFM and OFT need
    /// 1 / 2 (§3.4).
    pub fn num_vcs(&self) -> u8 {
        let indirect_capable = !matches!(self.algorithm, Algorithm::Minimal);
        match self.vc_scheme {
            VcScheme::HopIndex => {
                // `max(1)` guards the fully partitioned degenerate case
                // (repaired diameter 0), which preflight rejects anyway.
                if indirect_capable {
                    2 * self.diameter.max(1)
                } else {
                    self.diameter.max(1)
                }
            }
            VcScheme::PhaseBased => {
                if indirect_capable {
                    2
                } else {
                    1
                }
            }
            VcScheme::SingleVc => 1,
        }
    }

    /// VC for the `hop`-th link (0-based) of `choice`.
    #[inline]
    pub fn vc_for_hop(&self, choice: &RouteChoice, hop: usize) -> u8 {
        vc_for_hop(self.vc_scheme, choice, hop)
    }

    /// Chooses the route for a packet from router `src` to router `dst`
    /// (`src != dst`), consulting `occ` for adaptive decisions. Panics if
    /// no surviving route exists — use [`RoutePolicy::try_choose`] on
    /// degraded networks.
    pub fn choose<R: Rng>(
        &self,
        src: RouterId,
        dst: RouterId,
        occ: &impl OccupancyView,
        rng: &mut R,
    ) -> RouteChoice {
        self.try_choose(src, dst, occ, rng)
            .unwrap_or_else(|| panic!("no surviving route from router {src} to router {dst}"))
    }

    /// Fault-tolerant route selection: `None` when no route from `src` to
    /// `dst` survives the failures the tables were built around (the
    /// caller accounts the packet as unroutable instead of panicking).
    /// Indirect algorithms fall back to the repaired minimal route when
    /// no eligible intermediate survives.
    pub fn try_choose<R: Rng>(
        &self,
        src: RouterId,
        dst: RouterId,
        occ: &impl OccupancyView,
        rng: &mut R,
    ) -> Option<RouteChoice> {
        self.try_choose_with(src, dst, occ, rng, &mut NoSink)
    }

    /// Like [`RoutePolicy::try_choose`], but also returns the full
    /// [`DecisionRecord`] behind the choice. Both entry points run the
    /// same generic implementation — the recorder differs only in a sink
    /// whose disabled form compiles to nothing — so the rng stream, and
    /// therefore every seeded simulation, is identical with recording on
    /// or off (pinned by tests in `d2net-sim`).
    pub fn try_choose_recorded<R: Rng>(
        &self,
        src: RouterId,
        dst: RouterId,
        occ: &impl OccupancyView,
        rng: &mut R,
    ) -> Option<(RouteChoice, DecisionRecord)> {
        let mut sink = RecordSink::new();
        let choice = self.try_choose_with(src, dst, occ, rng, &mut sink)?;
        Some((choice, sink.rec))
    }

    fn try_choose_with<R: Rng, S: DecisionSink>(
        &self,
        src: RouterId,
        dst: RouterId,
        occ: &impl OccupancyView,
        rng: &mut R,
        sink: &mut S,
    ) -> Option<RouteChoice> {
        assert_ne!(src, dst, "intra-router traffic never enters the network");
        if !self.tables.is_reachable(src, dst) {
            return None;
        }
        if S::ENABLED {
            sink.begin(src, dst, occ.capacity_bytes());
        }
        Some(match self.algorithm {
            Algorithm::Minimal => {
                let ch = self.minimal_choice(src, dst, rng);
                if S::ENABLED {
                    sink.minimal_cost(ch.path.routers()[1], 0, 0.0);
                    sink.verdict(DecisionVerdict::ForcedMinimal, 0.0, 0.0);
                }
                ch
            }
            Algorithm::Valiant => {
                let ch = self.valiant_choice(src, dst, rng);
                if S::ENABLED {
                    sink.minimal_cost(ch.path.routers()[1], 0, 0.0);
                    if ch.indirect {
                        sink.candidate(DecisionCandidate {
                            intermediate: ch.path.routers()[ch.phase_hops as usize],
                            first_hop: ch.path.routers()[1],
                            occupancy_bytes: 0,
                            penalty: 0.0,
                            cost: 0.0,
                        });
                        sink.verdict(DecisionVerdict::ForcedIndirect, 0.0, 0.0);
                    } else {
                        sink.verdict(DecisionVerdict::FallbackMinimal, 0.0, 0.0);
                    }
                }
                ch
            }
            Algorithm::Ugal { n_i, c, threshold } => {
                self.ugal_choice(src, dst, n_i, c, threshold, occ, rng, sink)
            }
            Algorithm::UgalG { n_i, c } => self.ugal_g_choice(src, dst, n_i, c, occ, rng, sink),
        })
    }

    /// Sum of output-port occupancies along every link of `path`.
    fn path_cost(&self, path: &RoutePath, occ: &impl OccupancyView) -> u64 {
        path.links().map(|(a, b)| occ.occupancy_bytes(a, b)).sum()
    }

    /// The idealized global UGAL decision: whole-path congestion sums.
    #[allow(clippy::too_many_arguments)]
    fn ugal_g_choice<R: Rng, S: DecisionSink>(
        &self,
        src: RouterId,
        dst: RouterId,
        n_i: usize,
        c: f64,
        occ: &impl OccupancyView,
        rng: &mut R,
        sink: &mut S,
    ) -> RouteChoice {
        let min_path = self.tables.sample_min_path(src, dst, rng);
        let q_m = self.path_cost(&min_path, occ);
        let c_m = q_m as f64;
        if S::ENABLED {
            sink.minimal_cost(min_path.routers()[1], q_m, c_m);
        }
        let mut best: Option<(f64, RouteChoice)> = None;
        for _ in 0..n_i {
            let Some(mid) = self.sample_intermediate(src, dst, rng) else {
                break;
            };
            let cand = self.indirect_path(src, mid, dst, rng);
            let q_i = self.path_cost(&cand.path, occ);
            let cost = c * q_i as f64;
            if S::ENABLED {
                sink.candidate(DecisionCandidate {
                    intermediate: mid,
                    first_hop: cand.path.routers()[1],
                    occupancy_bytes: q_i,
                    penalty: c,
                    cost,
                });
            }
            if best.as_ref().is_none_or(|(b, _)| cost < *b) {
                best = Some((cost, cand));
            }
        }
        let best_cost = best.as_ref().map(|(b, _)| *b);
        match best {
            Some((cost, cand)) if cost < c_m => {
                if S::ENABLED {
                    sink.verdict(DecisionVerdict::Indirect, cost, c_m - cost);
                }
                cand
            }
            _ => {
                if S::ENABLED {
                    sink.verdict(
                        DecisionVerdict::Minimal,
                        c_m,
                        best_cost.map_or(0.0, |b| c_m - b),
                    );
                }
                RouteChoice {
                    phase_hops: min_path.num_hops() as u8,
                    path: min_path,
                    indirect: false,
                }
            }
        }
    }

    fn minimal_choice<R: Rng>(&self, src: RouterId, dst: RouterId, rng: &mut R) -> RouteChoice {
        let path = self.tables.sample_min_path(src, dst, rng);
        RouteChoice {
            phase_hops: path.num_hops() as u8,
            path,
            indirect: false,
        }
    }

    /// Samples an intermediate router distinct from both endpoints that
    /// can actually carry an indirect route: both minimal segments must
    /// survive and the composed path must fit a [`RoutePath`]. On a
    /// pristine network the validity filter accepts every `m != src, dst`,
    /// so the rejection-sampling draw sequence — and with it every seeded
    /// simulation — is identical to the pre-fault behavior. `None` when no
    /// eligible intermediate exists (degraded networks only).
    fn sample_intermediate<R: Rng>(
        &self,
        src: RouterId,
        dst: RouterId,
        rng: &mut R,
    ) -> Option<RouterId> {
        let valid = |m: RouterId| {
            m != src
                && m != dst
                && self.tables.is_reachable(src, m)
                && self.tables.is_reachable(m, dst)
                && (self.tables.dist(src, m) as usize + self.tables.dist(m, dst) as usize)
                    < MAX_PATH_ROUTERS
        };
        for _ in 0..4 * self.intermediates.len() {
            let i = self.intermediates[rng.gen_range(0..self.intermediates.len())];
            if valid(i) {
                return Some(i);
            }
        }
        // Heavily degraded networks can leave few (or no) valid
        // intermediates; fall back to a deterministic scan in id order.
        self.intermediates.iter().copied().find(|&m| valid(m))
    }

    fn indirect_path<R: Rng>(
        &self,
        src: RouterId,
        mid: RouterId,
        dst: RouterId,
        rng: &mut R,
    ) -> RouteChoice {
        let head = self.tables.sample_min_path(src, mid, rng);
        let tail = self.tables.sample_min_path(mid, dst, rng);
        RouteChoice {
            phase_hops: head.num_hops() as u8,
            path: head.join(&tail),
            indirect: true,
        }
    }

    fn valiant_choice<R: Rng>(&self, src: RouterId, dst: RouterId, rng: &mut R) -> RouteChoice {
        match self.sample_intermediate(src, dst, rng) {
            Some(mid) => self.indirect_path(src, mid, dst, rng),
            // No surviving intermediate (degraded network): the repaired
            // minimal route is the only way through.
            None => self.minimal_choice(src, dst, rng),
        }
    }

    /// The UGAL-L decision (§3.3): cost the minimal path as `CM = qM`, and
    /// each indirect candidate as `CI = penalty · qI`, where the penalty is
    /// `(L_I / L_M) · c` for the Slim Fly and the constant `c` otherwise;
    /// ties favor the minimal path. With a threshold `T`, the packet is
    /// routed minimally outright while `qM < T · capacity`.
    #[allow(clippy::too_many_arguments)]
    fn ugal_choice<R: Rng, S: DecisionSink>(
        &self,
        src: RouterId,
        dst: RouterId,
        n_i: usize,
        c: f64,
        threshold: Option<f64>,
        occ: &impl OccupancyView,
        rng: &mut R,
        sink: &mut S,
    ) -> RouteChoice {
        // Among equal-length minimal paths, take the least-occupied first
        // hop (footnote 1 in the paper).
        let first_hops = self.tables.first_hops(src, dst);
        let (&best_first, q_m) = first_hops
            .iter()
            .map(|n| (n, occ.occupancy_bytes(src, *n)))
            .min_by_key(|&(_, q)| q)
            .expect("reachable pair implies at least one first hop");
        if S::ENABLED {
            sink.minimal_cost(best_first, q_m, q_m as f64);
        }

        let min_choice = |rng: &mut R| {
            let mut path = RoutePath::new(src);
            path.push(best_first);
            if best_first != dst {
                let rest = self.tables.sample_min_path(best_first, dst, rng);
                path = path.join(&rest);
            }
            RouteChoice {
                phase_hops: path.num_hops() as u8,
                path,
                indirect: false,
            }
        };

        if let Some(t) = threshold {
            let limit = t * occ.capacity_bytes() as f64;
            if S::ENABLED {
                sink.threshold_margin(limit - q_m as f64);
            }
            if (q_m as f64) < limit {
                if S::ENABLED {
                    sink.verdict(DecisionVerdict::ForcedMinimal, q_m as f64, 0.0);
                }
                return min_choice(rng);
            }
        }

        let l_m = self.tables.dist(src, dst) as f64;
        let c_m = q_m as f64;
        let mut best: Option<(f64, RouterId)> = None;
        for _ in 0..n_i {
            let Some(mid) = self.sample_intermediate(src, dst, rng) else {
                break;
            };
            let l_i = (self.tables.dist(src, mid) + self.tables.dist(mid, dst)) as f64;
            let penalty = if self.scaled_penalty { l_i / l_m * c } else { c };
            let first = {
                let hops = self.tables.first_hops(src, mid);
                hops[rng.gen_range(0..hops.len())]
            };
            let q_i = occ.occupancy_bytes(src, first);
            let cost = penalty * q_i as f64;
            if S::ENABLED {
                sink.candidate(DecisionCandidate {
                    intermediate: mid,
                    first_hop: first,
                    occupancy_bytes: q_i,
                    penalty,
                    cost,
                });
            }
            if best.is_none_or(|(b, _)| cost < b) {
                best = Some((cost, mid));
            }
        }
        match best {
            // Strict inequality: ties go to the shorter minimal route.
            Some((cost, mid)) if cost < c_m => {
                if S::ENABLED {
                    sink.verdict(DecisionVerdict::Indirect, cost, c_m - cost);
                }
                self.indirect_path(src, mid, dst, rng)
            }
            _ => {
                if S::ENABLED {
                    sink.verdict(
                        DecisionVerdict::Minimal,
                        c_m,
                        best.map_or(0.0, |(b, _)| c_m - b),
                    );
                }
                min_choice(rng)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use d2net_topo::{mlfm, oft, slim_fly, SlimFlyP};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::collections::HashMap;

    struct MapOccupancy {
        map: HashMap<(RouterId, RouterId), u64>,
        cap: u64,
    }

    impl OccupancyView for MapOccupancy {
        fn occupancy_bytes(&self, r: RouterId, n: RouterId) -> u64 {
            *self.map.get(&(r, n)).unwrap_or(&0)
        }
        fn capacity_bytes(&self) -> u64 {
            self.cap
        }
    }

    #[test]
    fn minimal_routes_have_minimal_length() {
        let net = slim_fly(5, SlimFlyP::Floor);
        let policy = RoutePolicy::new(&net, Algorithm::Minimal);
        let mut rng = SmallRng::seed_from_u64(1);
        for s in 0..net.num_routers() {
            for d in 0..net.num_routers() {
                if s == d {
                    continue;
                }
                let c = policy.choose(s, d, &ZeroOccupancy, &mut rng);
                assert!(!c.indirect);
                assert_eq!(c.path.num_hops(), policy.tables().dist(s, d) as usize);
            }
        }
    }

    #[test]
    fn valiant_on_sspt_is_exactly_four_hops() {
        // §3.2: restricting intermediates to endpoint routers pins MLFM and
        // OFT indirect paths at 4 hops.
        for net in [mlfm(3), oft(3)] {
            let policy = RoutePolicy::new(&net, Algorithm::Valiant);
            let mut rng = SmallRng::seed_from_u64(2);
            let eps = net.endpoint_routers();
            for &s in eps.iter().take(6) {
                for &d in eps.iter().rev().take(6) {
                    if s == d {
                        continue;
                    }
                    for _ in 0..8 {
                        let c = policy.choose(s, d, &ZeroOccupancy, &mut rng);
                        assert!(c.indirect);
                        assert_eq!(c.path.num_hops(), 4, "{}", net.name());
                        assert_eq!(c.phase_hops, 2);
                        // Intermediate must carry endpoints.
                        let mid = c.path.routers()[2];
                        assert!(net.nodes_at(mid) > 0);
                    }
                }
            }
        }
    }

    #[test]
    fn valiant_on_sf_is_two_to_four_hops() {
        let net = slim_fly(5, SlimFlyP::Floor);
        let policy = RoutePolicy::new(&net, Algorithm::Valiant);
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..500 {
            let s = rng.gen_range(0..net.num_routers());
            let d = rng.gen_range(0..net.num_routers());
            if s == d {
                continue;
            }
            let c = policy.choose(s, d, &ZeroOccupancy, &mut rng);
            assert!((2..=4).contains(&c.path.num_hops()));
        }
    }

    #[test]
    fn vc_budgets_match_section_3_4() {
        let sf = slim_fly(5, SlimFlyP::Floor);
        assert_eq!(RoutePolicy::new(&sf, Algorithm::Minimal).num_vcs(), 2);
        assert_eq!(RoutePolicy::new(&sf, Algorithm::Valiant).num_vcs(), 4);
        for net in [mlfm(3), oft(3)] {
            assert_eq!(RoutePolicy::new(&net, Algorithm::Minimal).num_vcs(), 1);
            assert_eq!(RoutePolicy::new(&net, Algorithm::Valiant).num_vcs(), 2);
            assert_eq!(
                RoutePolicy::new(
                    &net,
                    Algorithm::Ugal {
                        n_i: 4,
                        c: 2.0,
                        threshold: None
                    }
                )
                .num_vcs(),
                2
            );
        }
    }

    #[test]
    fn vc_assignment_follows_scheme() {
        let sf = slim_fly(5, SlimFlyP::Floor);
        let policy = RoutePolicy::new(&sf, Algorithm::Valiant);
        let mut rng = SmallRng::seed_from_u64(4);
        let c = policy.choose(0, 30, &ZeroOccupancy, &mut rng);
        for hop in 0..c.path.num_hops() {
            assert_eq!(policy.vc_for_hop(&c, hop), hop as u8);
        }

        let net = mlfm(3);
        let policy = RoutePolicy::new(&net, Algorithm::Valiant);
        let c = policy.choose(0, 5, &ZeroOccupancy, &mut rng);
        assert_eq!(c.path.num_hops(), 4);
        assert_eq!(policy.vc_for_hop(&c, 0), 0);
        assert_eq!(policy.vc_for_hop(&c, 1), 0);
        assert_eq!(policy.vc_for_hop(&c, 2), 1);
        assert_eq!(policy.vc_for_hop(&c, 3), 1);
    }

    #[test]
    fn ugal_prefers_minimal_when_uncongested() {
        let net = mlfm(4);
        let policy = RoutePolicy::new(
            &net,
            Algorithm::Ugal {
                n_i: 4,
                c: 2.0,
                threshold: None,
            },
        );
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..100 {
            let c = policy.choose(0, 6, &ZeroOccupancy, &mut rng);
            assert!(!c.indirect, "zero occupancy must keep traffic minimal");
            assert_eq!(c.path.num_hops(), 2);
        }
    }

    #[test]
    fn ugal_diverts_when_minimal_is_congested() {
        let net = mlfm(4);
        let policy = RoutePolicy::new(
            &net,
            Algorithm::Ugal {
                n_i: 4,
                c: 1.0,
                threshold: None,
            },
        );
        // LR 0 and LR 6 (different columns): single minimal path via one GR.
        let the_gr = net.common_neighbors(0, 6)[0];
        let occ = MapOccupancy {
            map: HashMap::from([((0, the_gr), 100_000u64)]),
            cap: 100_000,
        };
        let mut rng = SmallRng::seed_from_u64(6);
        let diverted = (0..200)
            .filter(|_| policy.choose(0, 6, &occ, &mut rng).indirect)
            .count();
        assert!(
            diverted > 150,
            "congested minimal port must push traffic indirect, got {diverted}/200"
        );
    }

    #[test]
    fn threshold_forces_minimal_below_t() {
        let net = mlfm(4);
        let policy = RoutePolicy::new(
            &net,
            Algorithm::Ugal {
                n_i: 4,
                c: 0.0, // free indirect paths: generic UGAL would always divert
                threshold: Some(0.10),
            },
        );
        let the_gr = net.common_neighbors(0, 6)[0];
        // Occupancy just below 10% of capacity: stay minimal.
        let occ = MapOccupancy {
            map: HashMap::from([((0, the_gr), 9_999u64)]),
            cap: 100_000,
        };
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..50 {
            assert!(!policy.choose(0, 6, &occ, &mut rng).indirect);
        }
        // Above the threshold with c = 0, indirect becomes free and wins.
        let occ = MapOccupancy {
            map: HashMap::from([((0, the_gr), 10_001u64)]),
            cap: 100_000,
        };
        let diverted = (0..50)
            .filter(|_| policy.choose(0, 6, &occ, &mut rng).indirect)
            .count();
        assert!(diverted == 50);
    }

    #[test]
    fn ugal_g_sees_downstream_congestion_that_ugal_l_misses() {
        // Congest only the SECOND hop of the minimal route: local UGAL
        // (first-port cost) keeps routing into the jam, global UGAL
        // detects it and diverts.
        let net = mlfm(4);
        let the_gr = net.common_neighbors(0, 6)[0];
        let occ = MapOccupancy {
            map: HashMap::from([((the_gr, 6u32), 90_000u64)]),
            cap: 100_000,
        };
        let mut rng = SmallRng::seed_from_u64(11);
        let local = RoutePolicy::new(
            &net,
            Algorithm::Ugal {
                n_i: 4,
                c: 1.0,
                threshold: None,
            },
        );
        let global = RoutePolicy::new(&net, Algorithm::UgalG { n_i: 4, c: 1.0 });
        let local_diverted = (0..100)
            .filter(|_| local.choose(0, 6, &occ, &mut rng).indirect)
            .count();
        let global_diverted = (0..100)
            .filter(|_| global.choose(0, 6, &occ, &mut rng).indirect)
            .count();
        assert!(local_diverted < 10, "UGAL-L cannot see hop 2: {local_diverted}/100");
        assert!(global_diverted > 90, "UGAL-G must divert: {global_diverted}/100");
    }

    #[test]
    fn ugal_g_stays_minimal_when_clear() {
        let net = oft(3);
        let policy = RoutePolicy::new(&net, Algorithm::UgalG { n_i: 4, c: 2.0 });
        let mut rng = SmallRng::seed_from_u64(12);
        let eps = net.endpoint_routers();
        for _ in 0..50 {
            let c = policy.choose(eps[0], eps[5], &ZeroOccupancy, &mut rng);
            assert!(!c.indirect);
        }
    }

    #[test]
    fn generic_ugal_diverts_on_empty_indirect_buffers() {
        // The drawback the paper calls out for generic UGAL: if some
        // indirect candidate's first buffer is empty, qI = 0 makes its cost
        // zero regardless of c, and the (longer) indirect route is taken
        // even though the minimal buffer is barely occupied.
        let net = slim_fly(5, SlimFlyP::Floor);
        let policy = RoutePolicy::new(
            &net,
            Algorithm::Ugal {
                n_i: 8,
                c: 1000.0,
                threshold: None,
            },
        );
        let mut rng = SmallRng::seed_from_u64(8);
        let (s, d) = (0u32, {
            (1..net.num_routers())
                .find(|&d| !net.are_adjacent(0, d))
                .unwrap()
        });
        let mut map = HashMap::new();
        for &n in policy.tables().first_hops(s, d) {
            map.insert((s, n), 10u64);
        }
        let occ = MapOccupancy { map, cap: 100_000 };
        let diverted = (0..100)
            .filter(|_| policy.choose(s, d, &occ, &mut rng).indirect)
            .count();
        assert!(diverted > 80, "generic UGAL should divert here, got {diverted}/100");
    }

    #[test]
    fn sf_penalty_scales_with_path_length_ratio() {
        // With every port equally occupied, the scaled penalty
        // (L_I/L_M)·cSF decides: a large cSF keeps traffic minimal, a tiny
        // one lets the indirect candidates win on cost.
        let net = slim_fly(5, SlimFlyP::Floor);
        let mut rng = SmallRng::seed_from_u64(9);
        let (s, d) = (0u32, {
            (1..net.num_routers())
                .find(|&d| !net.are_adjacent(0, d))
                .unwrap()
        });
        let mut map = HashMap::new();
        for &n in net.neighbors(s) {
            map.insert((s, n), 10u64);
        }
        let occ = MapOccupancy { map, cap: 100_000 };
        for (c_sf, expect_indirect) in [(4.0, false), (0.001, true)] {
            let policy = RoutePolicy::new(
                &net,
                Algorithm::Ugal {
                    n_i: 8,
                    c: c_sf,
                    threshold: None,
                },
            );
            for _ in 0..50 {
                assert_eq!(
                    policy.choose(s, d, &occ, &mut rng).indirect,
                    expect_indirect,
                    "cSF = {c_sf}"
                );
            }
        }
    }

    #[test]
    fn repair_on_pristine_network_matches_new() {
        let net = slim_fly(5, SlimFlyP::Floor);
        for algo in [
            Algorithm::Minimal,
            Algorithm::Valiant,
            Algorithm::Ugal {
                n_i: 4,
                c: 2.0,
                threshold: None,
            },
        ] {
            let a = RoutePolicy::new(&net, algo);
            let b = RoutePolicy::repair(&net, algo);
            assert_eq!(a.vc_scheme(), b.vc_scheme());
            assert_eq!(a.num_vcs(), b.num_vcs());
            assert_eq!(a.diameter(), b.diameter());
            let mut ra = SmallRng::seed_from_u64(33);
            let mut rb = SmallRng::seed_from_u64(33);
            for _ in 0..100 {
                let s = ra.gen_range(0..net.num_routers());
                let d = ra.gen_range(0..net.num_routers());
                let _ = rb.gen_range(0..net.num_routers());
                let _ = rb.gen_range(0..net.num_routers());
                if s == d {
                    continue;
                }
                assert_eq!(
                    a.choose(s, d, &ZeroOccupancy, &mut ra),
                    b.choose(s, d, &ZeroOccupancy, &mut rb),
                    "pristine repair must not perturb seeded routing"
                );
            }
        }
    }

    #[test]
    fn repaired_routes_avoid_failed_links() {
        for (net, algo) in [
            (slim_fly(5, SlimFlyP::Floor), Algorithm::Valiant),
            (mlfm(4), Algorithm::Valiant),
            (
                oft(4),
                Algorithm::Ugal {
                    n_i: 4,
                    c: 2.0,
                    threshold: None,
                },
            ),
        ] {
            let faults = d2net_topo::FaultSet::sample_links(&net, 0.08, 9);
            let deg = net.degrade(&faults);
            let policy = RoutePolicy::repair(&deg, algo);
            assert_eq!(policy.vc_scheme(), VcScheme::HopIndex);
            let mut rng = SmallRng::seed_from_u64(10);
            let mut routed = 0u32;
            for _ in 0..300 {
                let s = rng.gen_range(0..deg.num_routers());
                let d = rng.gen_range(0..deg.num_routers());
                if s == d {
                    continue;
                }
                match policy.try_choose(s, d, &ZeroOccupancy, &mut rng) {
                    Some(c) => {
                        routed += 1;
                        assert_eq!(c.path.src(), s);
                        assert_eq!(c.path.dst(), d);
                        for (a, b) in c.path.links() {
                            assert!(deg.are_adjacent(a, b), "route crosses a failed link");
                        }
                        for h in 0..c.path.num_hops() {
                            assert!(policy.vc_for_hop(&c, h) < policy.num_vcs());
                        }
                    }
                    None => assert!(!policy.is_routable(s, d)),
                }
            }
            assert!(routed > 200, "{}: most pairs must survive 8% faults", net.name());
        }
    }

    #[test]
    fn router_failure_makes_pairs_unroutable_not_panic() {
        let net = mlfm(3);
        let mut faults = d2net_topo::FaultSet::new();
        faults.fail_router(0);
        let deg = net.degrade(&faults);
        let policy = RoutePolicy::repair(&deg, Algorithm::Minimal);
        let mut rng = SmallRng::seed_from_u64(5);
        // Router 0 is isolated: nothing in, nothing out.
        for d in 1..deg.num_routers() {
            assert!(!policy.is_routable(0, d));
            assert!(policy.try_choose(0, d, &ZeroOccupancy, &mut rng).is_none());
            assert!(policy.try_choose(d, 0, &ZeroOccupancy, &mut rng).is_none());
        }
        // Everyone else still reaches everyone else (MLFM survives one
        // router loss).
        for s in 1..deg.num_routers() {
            for d in 1..deg.num_routers() {
                if s != d {
                    assert!(policy.is_routable(s, d));
                }
            }
        }
        assert_eq!(policy.tables().unreachable_pairs(), 2 * (net.num_routers() as u64 - 1));
    }

    #[test]
    fn recorded_choice_is_rng_neutral_and_identical() {
        // The ledger's core guarantee: try_choose_recorded makes the same
        // choice AND leaves the rng in the same state as try_choose.
        let net = mlfm(4);
        let the_gr = net.common_neighbors(0, 6)[0];
        let occ = MapOccupancy {
            map: HashMap::from([((0, the_gr), 80_000u64), ((the_gr, 6u32), 90_000u64)]),
            cap: 100_000,
        };
        for algo in [
            Algorithm::Minimal,
            Algorithm::Valiant,
            Algorithm::Ugal { n_i: 4, c: 1.0, threshold: None },
            Algorithm::Ugal { n_i: 4, c: 1.0, threshold: Some(0.25) },
            Algorithm::UgalG { n_i: 4, c: 1.0 },
        ] {
            let policy = RoutePolicy::new(&net, algo);
            let mut ra = SmallRng::seed_from_u64(77);
            let mut rb = SmallRng::seed_from_u64(77);
            for _ in 0..100 {
                let plain = policy.choose(0, 6, &occ, &mut ra);
                let (recorded, rec) = policy
                    .try_choose_recorded(0, 6, &occ, &mut rb)
                    .expect("pristine network routes every pair");
                assert_eq!(plain, recorded, "{algo:?}");
                assert_eq!(rec.src, 0);
                assert_eq!(rec.dst, 6);
                assert_eq!(rec.verdict.is_indirect(), recorded.indirect, "{algo:?}");
            }
            // Post-decision draws must coincide: no extra rng consumption.
            for _ in 0..8 {
                assert_eq!(
                    ra.gen_range(0..u64::MAX),
                    rb.gen_range(0..u64::MAX),
                    "{algo:?}"
                );
            }
        }
    }

    #[test]
    fn decision_records_expose_hop2_blindness() {
        // The forensic version of `ugal_g_sees_downstream_congestion...`:
        // the records themselves show WHY the variants diverge — UGAL-L
        // costs the minimal route at its empty first port (q_m = 0) and
        // stays, UGAL-G sums the jammed second hop into q_m and diverts.
        let net = mlfm(4);
        let the_gr = net.common_neighbors(0, 6)[0];
        let occ = MapOccupancy {
            map: HashMap::from([((the_gr, 6u32), 90_000u64)]),
            cap: 100_000,
        };
        let local = RoutePolicy::new(&net, Algorithm::Ugal { n_i: 4, c: 1.0, threshold: None });
        let global = RoutePolicy::new(&net, Algorithm::UgalG { n_i: 4, c: 1.0 });
        let mut rng = SmallRng::seed_from_u64(11);
        let (_, lrec) = local.try_choose_recorded(0, 6, &occ, &mut rng).unwrap();
        let (_, grec) = global.try_choose_recorded(0, 6, &occ, &mut rng).unwrap();
        assert_eq!(lrec.q_m, 0, "UGAL-L sees only the empty first port");
        assert_eq!(lrec.verdict, DecisionVerdict::Minimal);
        assert_eq!(lrec.candidates.len(), 4);
        assert_eq!(grec.q_m, 90_000, "UGAL-G sums the jammed second hop");
        assert_eq!(grec.verdict, DecisionVerdict::Indirect);
        assert!(grec.margin > 0.0, "divergence margin must be positive: {}", grec.margin);
        assert!(grec.chosen_cost < grec.c_m);
    }

    #[test]
    fn threshold_decisions_record_their_margin() {
        let net = mlfm(4);
        let policy = RoutePolicy::new(
            &net,
            Algorithm::Ugal { n_i: 4, c: 0.0, threshold: Some(0.10) },
        );
        let the_gr = net.common_neighbors(0, 6)[0];
        let occ = MapOccupancy {
            map: HashMap::from([((0, the_gr), 9_000u64)]),
            cap: 100_000,
        };
        let mut rng = SmallRng::seed_from_u64(13);
        let (ch, rec) = policy.try_choose_recorded(0, 6, &occ, &mut rng).unwrap();
        assert!(!ch.indirect);
        assert_eq!(rec.verdict, DecisionVerdict::ForcedMinimal);
        assert_eq!(rec.threshold_margin, Some(10_000.0 - 9_000.0));
        assert!(rec.candidates.is_empty(), "threshold short-circuits before sampling");
    }

    #[test]
    #[should_panic(expected = "no surviving route")]
    fn choose_panics_only_when_unroutable() {
        let net = mlfm(3);
        let mut faults = d2net_topo::FaultSet::new();
        faults.fail_router(0);
        let deg = net.degrade(&faults);
        let policy = RoutePolicy::repair(&deg, Algorithm::Minimal);
        let mut rng = SmallRng::seed_from_u64(5);
        let _ = policy.choose(0, 1, &ZeroOccupancy, &mut rng);
    }
}
