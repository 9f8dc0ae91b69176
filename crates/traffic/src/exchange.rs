//! Collective exchange workloads (paper §4.4): the All-to-All (A2A) and
//! the 3-D-torus Nearest-Neighbor (NN) exchange, with the paper's
//! contiguous process-to-node mapping (one process per node, ranks in
//! node-id order).

use d2net_topo::{Network, NodeId, TopologyKind};
use rand::seq::SliceRandom;
use rand::{rngs::SmallRng, SeedableRng};

/// One point-to-point message of an exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Message {
    /// Destination node (process rank = node id under contiguous mapping).
    pub dst: NodeId,
    /// Payload size in bytes.
    pub bytes: u64,
}

/// An exchange: for every source node, the ordered list of messages it
/// sends. The order is the injection order (subject to the simulator's
/// send window).
#[derive(Debug, Clone)]
pub struct Exchange {
    /// `sends[src]` = messages originated by `src`.
    pub sends: Vec<Vec<Message>>,
    /// Human-readable label.
    pub label: String,
}

impl Exchange {
    /// Total payload bytes across all messages.
    pub fn total_bytes(&self) -> u64 {
        self.sends
            .iter()
            .flat_map(|v| v.iter().map(|m| m.bytes))
            .sum()
    }

    /// Total number of messages.
    pub fn total_messages(&self) -> usize {
        self.sends.iter().map(|v| v.len()).sum()
    }
}

/// Builds an all-to-all exchange over `n` ranks: each rank sends
/// `bytes_per_pair` to every other rank. Messages are staged in the
/// classic phase order `dst = (src + phase) mod n`, `phase = 1..n`
/// (after Kumar et al. \[12\]), which spreads simultaneous traffic across
/// destinations instead of convoying on rank 0.
pub fn all_to_all(n: u32, bytes_per_pair: u64) -> Exchange {
    assert!(n >= 2);
    let sends = (0..n)
        .map(|src| {
            (1..n)
                .map(|phase| Message {
                    dst: (src + phase) % n,
                    bytes: bytes_per_pair,
                })
                .collect()
        })
        .collect();
    Exchange {
        sends,
        label: format!("A2A(n={n},{bytes_per_pair}B)"),
    }
}

/// Builds an all-to-all exchange with each node's destination order
/// independently randomized (seeded). This models the de-synchronized
/// pairwise scheduling of optimized A2A implementations (Kumar et al.
/// \[12\]): at any instant the aggregate traffic resembles global uniform
/// traffic instead of a synchronized shift permutation, avoiding
/// transient single-path hotspots.
pub fn all_to_all_shuffled(n: u32, bytes_per_pair: u64, seed: u64) -> Exchange {
    let mut ex = all_to_all(n, bytes_per_pair);
    let mut rng = SmallRng::seed_from_u64(seed);
    for sends in ex.sends.iter_mut() {
        sends.shuffle(&mut rng);
    }
    ex.label = format!("A2A-shuffled(n={n},{bytes_per_pair}B)");
    ex
}

/// Builds a nearest-neighbor exchange on an `x × y × z` torus of
/// processes mapped contiguously onto nodes `0 .. x·y·z` (rank =
/// `i + x·(j + y·k)`, dimension order). Every process sends
/// `bytes_per_pair` to each of its 6 torus neighbors (±1 per dimension,
/// wrapping). Dimensions of size ≤ 2 deduplicate the ± neighbors.
pub fn nearest_neighbor(dims: [u32; 3], bytes_per_pair: u64) -> Exchange {
    let [x, y, z] = dims;
    assert!(x >= 1 && y >= 1 && z >= 1);
    let n = x * y * z;
    let rank = |i: u32, j: u32, k: u32| i + x * (j + y * k);
    let mut sends = vec![Vec::new(); n as usize];
    for k in 0..z {
        for j in 0..y {
            for i in 0..x {
                let src = rank(i, j, k);
                let mut dsts = Vec::with_capacity(6);
                if x > 1 {
                    dsts.push(rank((i + 1) % x, j, k));
                    dsts.push(rank((i + x - 1) % x, j, k));
                }
                if y > 1 {
                    dsts.push(rank(i, (j + 1) % y, k));
                    dsts.push(rank(i, (j + y - 1) % y, k));
                }
                if z > 1 {
                    dsts.push(rank(i, j, (k + 1) % z));
                    dsts.push(rank(i, j, (k + z - 1) % z));
                }
                dsts.sort_unstable();
                dsts.dedup();
                sends[src as usize] = dsts
                    .into_iter()
                    .map(|dst| Message {
                        dst,
                        bytes: bytes_per_pair,
                    })
                    .collect();
            }
        }
    }
    Exchange {
        sends,
        label: format!("NN({x}x{y}x{z},{bytes_per_pair}B)"),
    }
}

/// The torus dimensions the paper uses for each evaluation topology
/// (§4.4), falling back to [`fit_torus`] for other sizes.
pub fn torus_dims_for(net: &Network) -> [u32; 3] {
    let n = net.num_nodes();
    match net.kind() {
        TopologyKind::Oft(p) if p.k == 12 => [12, 14, 19],
        TopologyKind::Mlfm(p) if p.h == 15 => [15, 16, 15],
        TopologyKind::SlimFly(p) if p.q == 13 && p.p == 9 => [13, 13, 18],
        TopologyKind::SlimFly(p) if p.q == 13 && p.p == 10 => [13, 13, 20],
        _ => fit_torus(n),
    }
}

/// Finds near-cubic torus dimensions `a ≤ b ≤ c` maximizing `a·b·c ≤ n`
/// ("the largest 3-D torus that fits", §4.4), breaking product ties in
/// favor of the most balanced aspect ratio.
pub fn fit_torus(n: u32) -> [u32; 3] {
    assert!(n >= 1);
    let mut best = [1, 1, n];
    let mut best_product = n as u64;
    let mut best_spread = n - 1;
    let cbrt = (n as f64).cbrt() as u32 + 1;
    for a in 1..=cbrt {
        let rem = n / a;
        let sq = (rem as f64).sqrt() as u32 + 1;
        for b in a..=sq.max(a) {
            let c = n / (a * b);
            if c < b {
                continue;
            }
            let product = (a * b * c) as u64;
            let spread = c - a;
            if product > best_product || (product == best_product && spread < best_spread) {
                best = [a, b, c];
                best_product = product;
                best_spread = spread;
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use d2net_topo::{mlfm, oft, slim_fly, SlimFlyP};

    #[test]
    fn a2a_counts_and_staging() {
        let e = all_to_all(5, 100);
        assert_eq!(e.total_messages(), 5 * 4);
        assert_eq!(e.total_bytes(), 5 * 4 * 100);
        // Rank 2's phases: 3, 4, 0, 1.
        let dsts: Vec<u32> = e.sends[2].iter().map(|m| m.dst).collect();
        assert_eq!(dsts, vec![3, 4, 0, 1]);
        // Every rank receives exactly one message per peer.
        let mut recv = [0u32; 5];
        for (s, msgs) in e.sends.iter().enumerate() {
            for m in msgs {
                assert_ne!(m.dst as usize, s);
                recv[m.dst as usize] += 1;
            }
        }
        assert!(recv.iter().all(|&c| c == 4));
    }

    #[test]
    fn shuffled_a2a_preserves_multiset() {
        let base = all_to_all(9, 64);
        let shuf = all_to_all_shuffled(9, 64, 7);
        for (a, b) in base.sends.iter().zip(&shuf.sends) {
            let mut a = a.clone();
            let mut b = b.clone();
            a.sort_by_key(|m| m.dst);
            b.sort_by_key(|m| m.dst);
            assert_eq!(a, b);
        }
        // And at least one node's order actually changed.
        assert!(base.sends.iter().zip(&shuf.sends).any(|(a, b)| a != b));
    }

    #[test]
    fn nn_has_six_neighbors_in_big_torus() {
        let e = nearest_neighbor([4, 5, 6], 512 * 1024);
        assert_eq!(e.sends.len(), 120);
        for msgs in &e.sends {
            assert_eq!(msgs.len(), 6);
        }
        // Symmetry: every send has a reverse send.
        for (s, msgs) in e.sends.iter().enumerate() {
            for m in msgs {
                assert!(e.sends[m.dst as usize].iter().any(|r| r.dst as usize == s));
            }
        }
    }

    #[test]
    fn nn_deduplicates_small_dims() {
        // Size-2 dimension: +1 and −1 are the same neighbor.
        let e = nearest_neighbor([2, 3, 3], 10);
        for msgs in &e.sends {
            assert_eq!(msgs.len(), 5);
        }
        // Size-1 dimension contributes no neighbor.
        let e = nearest_neighbor([1, 3, 3], 10);
        for msgs in &e.sends {
            assert_eq!(msgs.len(), 4);
        }
    }

    #[test]
    fn paper_torus_dims() {
        assert_eq!(torus_dims_for(&oft(12)), [12, 14, 19]);
        assert_eq!(torus_dims_for(&mlfm(15)), [15, 16, 15]);
        assert_eq!(torus_dims_for(&slim_fly(13, SlimFlyP::Floor)), [13, 13, 18]);
        assert_eq!(torus_dims_for(&slim_fly(13, SlimFlyP::Ceil)), [13, 13, 20]);
        // The paper's dims indeed fit their networks.
        for (dims, n) in [
            ([12u32, 14, 19], 3192u32),
            ([15, 16, 15], 3600),
            ([13, 13, 18], 3042),
            ([13, 13, 20], 3380),
        ] {
            assert!(dims.iter().product::<u32>() <= n);
        }
    }

    #[test]
    fn fit_torus_is_valid_and_tight() {
        for n in [8u32, 27, 100, 570, 3042, 3600] {
            let [a, b, c] = fit_torus(n);
            assert!(a <= b && b <= c);
            assert!(a * b * c <= n);
            // Must fill at least 85% of the nodes for realistic sizes.
            assert!(
                (a * b * c) as f64 >= 0.85 * n as f64,
                "n={n}: {a}x{b}x{c} wastes too much"
            );
        }
        assert_eq!(fit_torus(27), [3, 3, 3]);
        assert_eq!(fit_torus(8), [2, 2, 2]);
    }
}
