//! Shard-smoke gate: intra-run sharded sweeps and exchanges must be
//! byte-identical to the serial engine, manifests and all.
//!
//! ```text
//! cargo run --release --example d2net-shard [-- --out FILE]
//! ```
//!
//! Runs one load sweep on a Slim Fly under Valiant routing four ways —
//! the serial engine, the 2-shard and 3-shard engines through the
//! serial sweep harness, and the 2-shard engine fanned across the
//! worker pool at two different thread budgets (which `par_load_sweep*`
//! splits between point workers and shards, DESIGN.md §14) — builds the
//! same run manifest from each, and asserts every manifest is
//! byte-identical to the serial one. The written file (default
//! `SHARD_smoke.json`) additionally carries the `"sharding"` section
//! recording how the thread budget was split; the byte comparison runs
//! before that section is attached, since it is the one part of the
//! manifest that legitimately differs from an unsharded run.
//!
//! It then runs one Fig. 14 nearest-neighbour exchange on MLFM(h=4) at
//! 1, 2 and 3 shards through the same window coordinator, asserts the
//! three `ExchangeStats` are equal, and records them as the file's
//! `"exchange"` entry.

use d2net::prelude::*;
use d2net::traffic::{nearest_neighbor, torus_dims_for};

fn main() {
    let out = parse_out();
    let net = slim_fly(5, SlimFlyP::Floor);
    let policy = RoutePolicy::new(&net, Algorithm::Valiant);
    let pattern = SyntheticPattern::Uniform;
    let params = RunParams {
        duration_ns: 30_000,
        warmup_ns: 6_000,
        loads: vec![0.2, 0.5, 0.8],
        sim: SimConfig::default(),
    };
    let label = format!("{} INR uniform", net.name());

    let manifest_of = |sweep: &SweepOutcome| -> RunManifest {
        let mut m = RunManifest::new(
            format!("shard smoke: {label}"),
            &net,
            "INR",
            "uniform",
            params.duration_ns,
            params.warmup_ns,
            params.sim,
        );
        m.push_curve(Curve {
            label: label.clone(),
            points: sweep.points.clone(),
        });
        m.push_notices(&sweep.notices);
        m
    };

    let mut cfg = params.sim;
    cfg.shards = 1;
    let serial = load_sweep_collect(
        &net,
        &policy,
        &pattern,
        &params.loads,
        params.duration_ns,
        params.warmup_ns,
        cfg,
    );
    let serial_json = manifest_of(&serial).to_json();

    // Sharded engines through the serial sweep harness: two shard
    // counts, so a layout-dependent bug cannot hide behind one split.
    for shards in [2u32, 3] {
        let mut cfg = params.sim;
        cfg.shards = shards;
        let sharded = load_sweep_collect(
            &net,
            &policy,
            &pattern,
            &params.loads,
            params.duration_ns,
            params.warmup_ns,
            cfg,
        );
        let json = manifest_of(&sharded).to_json();
        assert_eq!(
            json, serial_json,
            "{shards}-shard sweep manifest diverged from serial"
        );
        println!(
            "{shards}-shard manifest == serial manifest ({} bytes)",
            json.len()
        );
    }

    // Sharded engines under the parallel harness at two thread budgets:
    // the budget is split between point workers and shards, and neither
    // split may change a byte of output.
    let mut cfg = params.sim;
    cfg.shards = 2;
    let mut final_manifest = None;
    for threads in [2usize, 6] {
        let par = par_load_sweep_collect(
            &net,
            &policy,
            &pattern,
            &params.loads,
            params.duration_ns,
            params.warmup_ns,
            cfg,
            threads,
        );
        let json = manifest_of(&par).to_json();
        assert_eq!(
            json, serial_json,
            "2-shard parallel sweep manifest diverged from serial at {threads} threads"
        );
        println!("2-shard x {threads}-thread manifest == serial manifest");
        final_manifest = Some((manifest_of(&par), threads));
    }

    let (mut manifest, threads) = final_manifest.expect("two budgets ran");
    manifest.set_sharding(ShardingManifest {
        shards: cfg.shards,
        point_workers: (threads as u32 / cfg.shards).max(1),
        thread_budget: threads as u32,
    });
    // The exchange record rides along as one more top-level key.
    let manifest_json = manifest.to_json();
    let body = manifest_json
        .strip_suffix('}')
        .expect("a manifest is a JSON object");
    let json = format!("{body},\"exchange\":{}}}", exchange_smoke());
    write_atomic(&out, &json).unwrap_or_else(|e| panic!("writing {out}: {e}"));
    println!("wrote {out} ({} bytes)", json.len());
}

/// The Fig. 14 exchange at three shard counts (1 = the serial engine):
/// asserts equal stats and returns them as a JSON object.
fn exchange_smoke() -> String {
    let net = mlfm(4);
    let policy = RoutePolicy::new(&net, Algorithm::Minimal);
    let dims = torus_dims_for(&net);
    let bytes_per_pair = 4_096;
    let window = 6;
    let mut ex = nearest_neighbor(dims, bytes_per_pair);
    // Ranks beyond the torus stay silent, as in `experiment::fig14`.
    ex.sends.resize(net.num_nodes() as usize, Vec::new());
    let shard_counts = [1u32, 2, 3];
    let runs: Vec<ExchangeStats> = shard_counts
        .iter()
        .map(|&shards| {
            let cfg = SimConfig {
                shards,
                ..SimConfig::default()
            };
            run_exchange(&net, &policy, &ex, window, cfg)
        })
        .collect();
    let stats = &runs[0];
    assert!(!stats.deadlocked, "the NN exchange must complete");
    for (k, run) in shard_counts.iter().zip(&runs) {
        assert_eq!(run, stats, "{k}-shard NN exchange diverged from serial");
    }
    println!(
        "NN exchange on {} at {shard_counts:?} shards: equal stats, completion {} ns",
        net.name(),
        stats.completion_ns
    );

    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("topology").string(&net.name());
    w.key("routing").string("MIN");
    w.key("pattern").string(&format!(
        "NN {}x{}x{}, {bytes_per_pair} B per pair",
        dims[0], dims[1], dims[2]
    ));
    w.key("window").u64(window as u64);
    w.key("shard_counts").begin_array();
    for &k in &shard_counts {
        w.u64(k as u64);
    }
    w.end_array();
    w.key("stats").begin_object();
    w.key("delivered_bytes").u64(stats.delivered_bytes);
    w.key("completion_ns").u64(stats.completion_ns);
    w.key("effective_throughput").f64(stats.effective_throughput);
    w.key("avg_delay_ns").f64(stats.avg_delay_ns);
    w.key("p99_delay_ns").u64(stats.p99_delay_ns);
    w.key("delivered_packets").u64(stats.delivered_packets);
    w.key("indirect_packets").u64(stats.indirect_packets);
    w.key("deadlocked").bool(stats.deadlocked);
    w.end_object();
    w.end_object();
    w.finish()
}

fn parse_out() -> String {
    let mut args = std::env::args().skip(1);
    let mut out = "SHARD_smoke.json".to_string();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out = args.next().expect("--out needs a value"),
            other => panic!("unknown argument '{other}'"),
        }
    }
    out
}
