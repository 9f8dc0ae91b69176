//! The evaluation configurations of paper §4.1, plus reduced-scale
//! counterparts for laptop-speed regeneration of every figure.
//!
//! The paper's configs approximate CORAL Summit (~3.0-3.6 K nodes):
//!
//! | Topology | Params | N | R | radix |
//! |----------|--------|---|---|-------|
//! | SF       | q=13, p=9  | 3042 | 338 | 28 |
//! | SF       | q=13, p=10 | 3380 | 338 | 29 |
//! | MLFM     | h=15       | 3600 | 360 | 30 |
//! | OFT      | k=12       | 3192 | 399 | 24 |
//!
//! The reduced set keeps the same four-way comparison at ~400-600 nodes,
//! where every figure regenerates in minutes. All saturation points are
//! per-node normalized (1/2p, 1/h, 1/k, ~0.5 for INR …), so the *shape*
//! of every curve is scale-invariant.

use d2net_sim::envcfg::env_positive;
use d2net_sim::SimConfig;
use d2net_topo::{mlfm, oft, slim_fly, Network, SlimFlyP};

/// Which scale to evaluate at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// ~400-600 nodes per topology; minutes per figure.
    Reduced,
    /// The paper's §4.1 configurations (~3.0-3.6 K nodes).
    Full,
}

/// The four §4.1 evaluation topologies at the requested scale, in the
/// paper's presentation order: SF(p=⌊r'/2⌋), SF(p=⌈r'/2⌉), MLFM, OFT.
pub fn eval_topologies(scale: Scale) -> Vec<Network> {
    match scale {
        Scale::Full => vec![
            slim_fly(13, SlimFlyP::Floor),
            slim_fly(13, SlimFlyP::Ceil),
            mlfm(15),
            oft(12),
        ],
        Scale::Reduced => vec![
            slim_fly(7, SlimFlyP::Floor),
            slim_fly(7, SlimFlyP::Ceil),
            mlfm(8),
            oft(6),
        ],
    }
}

/// Steady-state run parameters (duration/warm-up, load grid, switch
/// configuration).
#[derive(Debug, Clone)]
pub struct RunParams {
    /// Simulated time (paper: 200 µs).
    pub duration_ns: u64,
    /// Warm-up excluded from statistics (paper: 20 µs).
    pub warmup_ns: u64,
    /// Offered-load grid for sweeps.
    pub loads: Vec<f64>,
    /// Switch/link parameters.
    pub sim: SimConfig,
}

impl RunParams {
    /// The paper's synthetic-traffic methodology (§4.1).
    pub fn paper() -> Self {
        RunParams {
            duration_ns: 200_000,
            warmup_ns: 20_000,
            loads: d2net_sim::load_grid(20),
            sim: SimConfig::default(),
        }
    }

    /// Shorter runs and a coarser grid for the reduced scale; saturation
    /// plateaus stabilize well before 60 µs at these sizes.
    pub fn reduced() -> Self {
        RunParams {
            duration_ns: 60_000,
            warmup_ns: 12_000,
            loads: d2net_sim::load_grid(10),
            sim: SimConfig::default(),
        }
    }

    /// Parameters matched to `scale`, honoring the `D2NET_DURATION_NS`
    /// and `D2NET_LOAD_STEPS` environment overrides (useful to trade
    /// statistical smoothness for turnaround when regenerating many
    /// panels). An override that is not a positive integer emits the
    /// coded `ENV_INVALID` WARN (see [`d2net_sim::envcfg`]) and leaves
    /// the scale's default in place.
    pub fn for_scale(scale: Scale) -> Self {
        let mut params = match scale {
            Scale::Full => Self::paper(),
            Scale::Reduced => Self::reduced(),
        };
        if let Some(d) = env_positive("D2NET_DURATION_NS") {
            params.duration_ns = d;
            params.warmup_ns = d / 5;
        }
        if let Some(s) = env_positive("D2NET_LOAD_STEPS") {
            params.loads = d2net_sim::load_grid((s as usize).max(2));
        }
        params
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_scale_matches_section_4_1() {
        let nets = eval_topologies(Scale::Full);
        let expect = [
            ("SF(q=13,p=9)", 3042u32, 338u32, 28u32),
            ("SF(q=13,p=10)", 3380, 338, 29),
            ("MLFM(h=15)", 3600, 360, 30),
            ("OFT(k=12)", 3192, 399, 24),
        ];
        for (net, (name, n, r, radix)) in nets.iter().zip(expect) {
            assert_eq!(net.name(), name);
            assert_eq!(net.num_nodes(), n, "{name}");
            assert_eq!(net.num_routers(), r, "{name}");
            assert_eq!(net.radix(0), radix, "{name}");
        }
    }

    #[test]
    fn reduced_scale_is_comparable() {
        let nets = eval_topologies(Scale::Reduced);
        for net in &nets {
            let n = net.num_nodes();
            assert!(
                (300..=700).contains(&n),
                "{}: {n} nodes out of the comparable band",
                net.name()
            );
        }
    }

    #[test]
    fn params_match_methodology() {
        let p = RunParams::paper();
        assert_eq!(p.duration_ns, 200_000);
        assert_eq!(p.warmup_ns, 20_000);
        assert_eq!(p.sim.buffer_bytes, 100_000);
    }

    /// `D2NET_DURATION_NS=0` used to zero the duration and warm-up (so
    /// every sweep failed `warmup_within`) and garbage was dropped
    /// silently. The test re-runs itself in a child process with both
    /// overrides invalid, so the shared test environment stays untouched:
    /// the child checks the scale defaults hold, the parent checks the
    /// child warned about each variable.
    #[test]
    fn invalid_duration_and_step_overrides_warn_and_keep_defaults() {
        const GARBAGE_STEPS: &str = "twenty";
        if std::env::var("D2NET_LOAD_STEPS").as_deref() == Ok(GARBAGE_STEPS) {
            let (got, want) = (RunParams::for_scale(Scale::Reduced), RunParams::reduced());
            assert_eq!(got.duration_ns, want.duration_ns);
            assert_eq!(got.warmup_ns, want.warmup_ns);
            assert_eq!(got.loads, want.loads);
            return;
        }
        let out = std::process::Command::new(std::env::current_exe().unwrap())
            .args([
                "--exact",
                "configs::tests::invalid_duration_and_step_overrides_warn_and_keep_defaults",
                "--nocapture",
                "--test-threads=1",
            ])
            .env("D2NET_DURATION_NS", "0")
            .env("D2NET_LOAD_STEPS", GARBAGE_STEPS)
            .output()
            .expect("re-run the test binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "child failed:\n{stdout}\n{stderr}");
        assert!(stdout.contains("1 passed"), "child ran no test:\n{stdout}");
        for var in ["D2NET_DURATION_NS='0'", "D2NET_LOAD_STEPS='twenty'"] {
            assert!(
                stderr.contains(&format!("WARN ENV_INVALID {var}")),
                "no coded warning for {var}:\n{stderr}"
            );
        }
    }
}
