//! # d2net-topo
//!
//! Constructors, layout helpers and validators for the cost-effective
//! diameter-two topologies of Kathareios et al. (SC '15):
//!
//! - [`slimfly`]: the direct Slim Fly over McKay–Miller–Širáň graphs;
//! - [`mlfm`](mod@mlfm): the Multi-Layer Full-Mesh (SSPT with `r2 = 2`);
//! - [`oft`](mod@oft): the two-level Orthogonal Fat-Tree (SSPT with `r2 = r1`),
//!   built from the `k`-ML3B / projective-plane incidence;
//! - [`spt`]: the Stacked Single-Path Tree class laws and validators;
//! - [`fattree`], [`hyperx`]: the reference designs of the paper's
//!   scalability comparison (Fig. 3).
//!
//! All topologies produce a flat, index-based [`Network`] consumed by the
//! routing, traffic and simulation crates.

pub mod fattree;
pub mod fault;
pub mod graph;
pub mod hyperx;
pub mod io;
pub mod mlfm;
pub mod oft;
pub mod random;
pub mod slimfly;
pub mod spt;

pub use fattree::{fat_tree2, FatTree2Params};
pub use fault::FaultSet;
pub use graph::{Network, NodeId, RouterId};
pub use io::{from_edge_list, to_dot, to_edge_list};
pub use hyperx::{hyperx2, hyperx2_balanced, HyperX2Params};
pub use mlfm::{mlfm, mlfm_general, MlfmLayout, MlfmParams};
pub use oft::{ml3b, oft, oft_general, try_oft, try_oft_general, OftParams};
pub use random::random_connected;
pub use slimfly::{slim_fly, try_slim_fly, SlimFlyP, SlimFlyParams};
pub use spt::{
    stacked_sspt, try_stacked_sspt, try_validate_sspt, validate_sspt, SsptParams, SsptReport,
};

/// The topology family and parameters a [`Network`] was built from.
/// Routing and traffic generators dispatch on this to apply
/// topology-specific policies (e.g. eligible Valiant intermediates,
/// worst-case patterns, VC budgets).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyKind {
    /// Diameter-two Slim Fly (§2.1.2).
    SlimFly(SlimFlyParams),
    /// Multi-Layer Full-Mesh (§2.2.3).
    Mlfm(MlfmParams),
    /// Two-level Orthogonal Fat-Tree (§2.2.4).
    Oft(OftParams),
    /// A generic Stacked Single-Path Tree built by [`spt::stacked_sspt`]
    /// (§2.2.2) — the class containing the MLFM (`r2 = 2`) and the OFT
    /// (`r2 = r1`).
    Sspt(spt::SsptParams),
    /// Full-bisection two-level Fat-Tree (§2.2.1).
    FatTree2(FatTree2Params),
    /// Two-dimensional HyperX (§2.1.1).
    HyperX2(HyperX2Params),
    /// Hand-built network (tests, custom studies).
    Custom { label: String },
}

impl TopologyKind {
    /// Short human-readable name, e.g. `SF(q=13,p=9)`.
    pub fn name(&self) -> String {
        match self {
            TopologyKind::SlimFly(p) => format!("SF(q={},p={})", p.q, p.p),
            TopologyKind::Mlfm(p) => {
                if p.l == p.h && p.p as u64 == p.h {
                    format!("MLFM(h={})", p.h)
                } else {
                    format!("MLFM(h={},l={},p={})", p.h, p.l, p.p)
                }
            }
            TopologyKind::Oft(p) => {
                if p.p as u64 == p.k {
                    format!("OFT(k={})", p.k)
                } else {
                    format!("OFT(k={},p={})", p.k, p.p)
                }
            }
            TopologyKind::Sspt(p) => format!("SSPT(r1={},r2={},p={})", p.r1, p.r2, p.p),
            TopologyKind::FatTree2(p) => format!("FT2(r={})", p.radix),
            TopologyKind::HyperX2(p) => format!("HX2({}x{},p={})", p.s1, p.s2, p.p),
            TopologyKind::Custom { label } => label.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names() {
        assert_eq!(slim_fly(5, SlimFlyP::Floor).name(), "SF(q=5,p=3)");
        assert_eq!(mlfm(4).name(), "MLFM(h=4)");
        assert_eq!(oft(4).name(), "OFT(k=4)");
        assert_eq!(fat_tree2(8).name(), "FT2(r=8)");
        assert_eq!(hyperx2(3, 4, 2).name(), "HX2(3x4,p=2)");
    }

    #[test]
    fn all_paper_topologies_have_cost_3_ports_2_links() {
        // The headline claim of the paper's Fig. 3 table: all diameter-two
        // designs cost ~3 router ports and ~2 links per end-node.
        for net in [
            slim_fly(5, SlimFlyP::Floor),
            mlfm(4),
            oft(4),
            fat_tree2(8),
            hyperx2_balanced(9),
        ] {
            let n = net.num_nodes() as f64;
            let ports = net.total_ports() as f64 / n;
            let links = net.total_links() as f64 / n;
            assert!(
                (ports - 3.0).abs() < 0.35,
                "{}: {ports:.2} ports/node",
                net.name()
            );
            assert!(
                (links - 2.0).abs() < 0.25,
                "{}: {links:.2} links/node",
                net.name()
            );
        }
    }

    #[test]
    fn endpoint_diameters_are_two() {
        for net in [
            slim_fly(5, SlimFlyP::Floor),
            mlfm(4),
            oft(4),
            fat_tree2(8),
            hyperx2_balanced(9),
        ] {
            assert_eq!(net.endpoint_diameter(), 2, "{}", net.name());
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn slim_fly_structure(q in prop::sample::select(vec![3u64, 4, 5, 7, 8, 9, 11, 13])) {
            let net = slim_fly(q, SlimFlyP::Floor);
            let (delta, _) = slimfly::slim_fly_form(q).unwrap();
            let rprime = ((3 * q as i64 - delta) / 2) as u32;
            prop_assert_eq!(net.num_routers() as u64, 2 * q * q);
            for r in 0..net.num_routers() {
                prop_assert_eq!(net.degree(r), rprime);
            }
            prop_assert_eq!(net.diameter(), 2);
        }

        #[test]
        fn mlfm_structure(h in 2u64..8) {
            let net = mlfm(h);
            prop_assert_eq!(net.num_nodes() as u64, h * h * h + h * h);
            prop_assert_eq!(net.endpoint_diameter(), 2);
            spt::validate_sspt(&net);
        }

        #[test]
        fn oft_structure(k in prop::sample::select(vec![3u64, 4, 6, 8])) {
            let net = oft(k);
            prop_assert_eq!(net.num_nodes() as u64, 2 * k * k * k - 2 * k * k + 2 * k);
            prop_assert_eq!(net.endpoint_diameter(), 2);
            spt::validate_sspt(&net);
        }
    }
}
