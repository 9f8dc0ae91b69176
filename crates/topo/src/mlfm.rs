//! The Multi-Layer Full-Mesh (paper §2.2.3; Fujitsu \[9\]).
//!
//! An `(h, l, p)`-MLFM stacks `l` layers of `h + 1` local routers (LRs).
//! Each pair of LR *positions* `{a, b}` in the underlying full mesh is
//! served by one global router (GR) that links to position `a` and
//! position `b` in every layer. This is the SSPT obtained by stacking
//! `l` Single-Path Trees with `r2 = 2`.
//!
//! The single-radix instance used throughout the paper is the `h`-MLFM
//! (`h = l = p`): all routers then have radix `r = 2h`, with
//! `R = 3h(h+1)/2` routers and `N = h³ + h²` end-nodes.

use crate::graph::Network;
use crate::TopologyKind;

/// Parameters of an MLFM instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MlfmParams {
    /// Full-mesh degree: `h + 1` LR positions per layer.
    pub h: u64,
    /// Number of layers.
    pub l: u64,
    /// End-nodes per local router.
    pub p: u32,
}

/// Router-id layout helpers for an MLFM network.
///
/// LRs come first, ordered layer-major (`layer · (h+1) + position`), so
/// contiguous node ids advance intra-router → intra-layer → inter-layer,
/// matching the paper's mapping (§4.4). GRs follow, indexed by the
/// lexicographic rank of their position pair `{a, b}`, `a < b`.
#[derive(Debug, Clone, Copy)]
pub struct MlfmLayout {
    pub h: u64,
    pub l: u64,
}

impl MlfmLayout {
    pub fn num_lrs(&self) -> u32 {
        (self.l * (self.h + 1)) as u32
    }

    pub fn num_grs(&self) -> u32 {
        (self.h * (self.h + 1) / 2) as u32
    }

    /// Local router id for `(layer, position)`.
    pub fn lr(&self, layer: u64, pos: u64) -> u32 {
        debug_assert!(layer < self.l && pos <= self.h);
        (layer * (self.h + 1) + pos) as u32
    }

    /// `(layer, position)` of an LR id.
    pub fn lr_coords(&self, lr: u32) -> (u64, u64) {
        debug_assert!((lr as u64) < self.l * (self.h + 1));
        ((lr as u64) / (self.h + 1), (lr as u64) % (self.h + 1))
    }

    /// Global router id serving position pair `{a, b}` (`a != b`).
    pub fn gr(&self, a: u64, b: u64) -> u32 {
        let (a, b) = if a < b { (a, b) } else { (b, a) };
        debug_assert!(b <= self.h && a < b);
        // Rank of (a, b) in lexicographic order over pairs from h+1 items.
        let rank: u64 = a * (2 * self.h + 1 - a) / 2 + (b - a - 1);
        self.num_lrs() + rank as u32
    }

    /// The position pair `{a, b}` served by a GR id.
    pub fn gr_pair(&self, gr: u32) -> (u64, u64) {
        let mut rank = (gr - self.num_lrs()) as u64;
        let mut a = 0u64;
        loop {
            let row = self.h - a; // number of pairs (a, b) with this a
            if rank < row {
                return (a, a + rank + 1);
            }
            rank -= row;
            a += 1;
        }
    }

    /// True if `r` is a local router (has end-nodes).
    pub fn is_lr(&self, r: u32) -> bool {
        r < self.num_lrs()
    }
}

/// Builds the general `(h, l, p)`-MLFM.
pub fn mlfm_general(h: u64, l: u64, p: u32) -> Network {
    assert!(h >= 1 && l >= 1);
    let layout = MlfmLayout { h, l };
    let total = (layout.num_lrs() + layout.num_grs()) as usize;
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); total];

    for layer in 0..l {
        for a in 0..=h {
            for b in a + 1..=h {
                let g = layout.gr(a, b);
                for pos in [a, b] {
                    let lr = layout.lr(layer, pos);
                    adj[lr as usize].push(g);
                    adj[g as usize].push(lr);
                }
            }
        }
    }

    let mut nodes_at = vec![p; layout.num_lrs() as usize];
    nodes_at.extend(std::iter::repeat_n(0, layout.num_grs() as usize));
    Network::from_parts(TopologyKind::Mlfm(MlfmParams { h, l, p }), adj, nodes_at)
}

/// Builds the single-radix `h`-MLFM (`l = p = h`), the configuration used
/// in the paper's evaluation.
pub fn mlfm(h: u64) -> Network {
    mlfm_general(h, h, h as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_h15() {
        // §4.1: MLFM with h = 15 → N = 3600, R = 360, r = 30.
        let n = mlfm(15);
        assert_eq!(n.num_routers(), 360);
        assert_eq!(n.num_nodes(), 3600);
        for r in 0..n.num_routers() {
            assert_eq!(n.radix(r), 30);
        }
    }

    #[test]
    fn counts_follow_formulas() {
        for h in [2u64, 3, 4, 7] {
            let n = mlfm(h);
            assert_eq!(n.num_nodes() as u64, h * h * h + h * h);
            assert_eq!(n.num_routers() as u64, 3 * h * (h + 1) / 2);
            // Cost per endpoint: 3 ports, 2 links (paper §2.2.3).
            assert_eq!(n.total_ports(), 3 * n.num_nodes() as u64);
            assert_eq!(n.total_links(), 2 * n.num_nodes() as u64);
        }
    }

    #[test]
    fn radix_split() {
        let h = 4;
        let n = mlfm(h);
        let layout = MlfmLayout { h, l: h };
        for r in 0..n.num_routers() {
            if layout.is_lr(r) {
                assert_eq!(n.degree(r), h as u32); // h GR links
                assert_eq!(n.nodes_at(r), h as u32); // p = h endpoints
            } else {
                assert_eq!(n.degree(r), 2 * h as u32); // 2 links per layer × h layers
                assert_eq!(n.nodes_at(r), 0);
            }
        }
    }

    #[test]
    fn endpoint_diameter_is_two() {
        // Any two LRs are 2 hops apart (via a GR); the router-graph
        // diameter counting GR-GR pairs may be larger but is irrelevant:
        // traffic originates/terminates only at LRs.
        let n = mlfm(4);
        assert_eq!(n.endpoint_diameter(), 2);
    }

    #[test]
    fn path_diversity_matches_section_2_3_3() {
        // Same-column LR pairs (same position, different layer) have h
        // minimal routes; any other LR pair has exactly one.
        let h = 4;
        let n = mlfm(h);
        let layout = MlfmLayout { h, l: h };
        for l1 in 0..h {
            for p1 in 0..=h {
                for l2 in 0..h {
                    for p2 in 0..=h {
                        let (a, b) = (layout.lr(l1, p1), layout.lr(l2, p2));
                        if a >= b {
                            continue;
                        }
                        let expected = if p1 == p2 { h as usize } else { 1 };
                        assert_eq!(
                            n.common_neighbors(a, b).len(),
                            expected,
                            "({l1},{p1}) vs ({l2},{p2})"
                        );
                        assert!(!n.are_adjacent(a, b)); // LRs never link directly
                    }
                }
            }
        }
    }

    #[test]
    fn gr_pair_roundtrip() {
        let layout = MlfmLayout { h: 6, l: 6 };
        for a in 0..=5u64 {
            for b in a + 1..=6 {
                let g = layout.gr(a, b);
                assert!(g >= layout.num_lrs());
                assert_eq!(layout.gr_pair(g), (a, b));
                assert_eq!(layout.gr(b, a), g); // unordered
            }
        }
    }

    #[test]
    fn lr_coords_roundtrip() {
        let layout = MlfmLayout { h: 5, l: 3 };
        for layer in 0..3 {
            for pos in 0..=5 {
                let id = layout.lr(layer, pos);
                assert_eq!(layout.lr_coords(id), (layer, pos));
            }
        }
    }

    #[test]
    fn general_form_rectangular() {
        // (h=3, l=2, p=4): 2 layers × 4 LRs, 6 GRs of radix 2·2 = 4.
        let n = mlfm_general(3, 2, 4);
        assert_eq!(n.num_routers(), 8 + 6);
        assert_eq!(n.num_nodes(), 8 * 4);
        for g in 8..14 {
            assert_eq!(n.degree(g), 4);
        }
    }
}
