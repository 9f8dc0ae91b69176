//! Smoke mode: every workload's untraced and traced path on tiny
//! instances, plus the record writer and reader, in seconds.

use d2net_perfbench::json::Json;
use d2net_perfbench::record::{Record, END_TO_END, PER_LAYER};
use d2net_perfbench::workloads::{Sizes, Workload};
use std::path::PathBuf;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-{tag}"));
    std::fs::create_dir_all(&dir).expect("test scratch directory");
    dir
}

fn names(r: &Record) -> Vec<&str> {
    r.metrics.iter().map(|m| m.name.as_str()).collect()
}

/// Runs every workload in smoke mode, untraced and traced, checks each
/// reports exactly its metric set with every check passing, and round
/// trips each record through its JSON form.
#[test]
fn every_workload_runs_correctly_in_smoke_mode() {
    let sizes = Sizes::smoke();
    for w in Workload::ALL {
        for trace in [false, true] {
            let dir = scratch_dir(&format!("{}-{}", w.name(), trace as u8));
            let exe = std::path::Path::new(env!("CARGO_BIN_EXE_d2net-perfbench"));
            let r = d2net_perfbench::run(w, &sizes, Some(5), 0.0, trace, &dir, exe);
            let failed: Vec<_> = r.checks.iter().filter(|c| !c.passed).collect();
            assert!(r.correct(), "{} trace={trace}: {failed:?}", w.name());
            assert!(r.attempted >= 1 && r.failed == 0);
            let want: Vec<&str> = if trace { PER_LAYER } else { END_TO_END }
                .iter()
                .map(|d| d.name)
                .collect();
            let mut got = names(&r);
            got.sort_unstable();
            let mut want_sorted = want.clone();
            want_sorted.sort_unstable();
            assert_eq!(got, want_sorted, "{} trace={trace}", w.name());
            assert!(r
                .metrics
                .iter()
                .all(|m| m.value.is_finite() && m.value >= 0.0));
            if !trace {
                assert!(
                    r.metrics.iter().all(|m| m.value > 0.0),
                    "end-to-end metrics are never 0"
                );
            }

            let back = Record::from_json(&Json::parse(&r.to_json().render()).unwrap()).unwrap();
            assert_eq!(back, r, "{} record round trip", w.name());
            let line = Json::parse(&r.result_line()).unwrap();
            assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true));
        }
    }
}

/// BENCHMARK.json at the repository root names exactly the metrics this
/// package reports, with the same units.
#[test]
fn benchmark_definition_matches_the_metric_tables() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the package");
    let def = Json::parse(&text).expect("BENCHMARK.json parses");
    let listed = |key: &str| -> Vec<(String, String)> {
        def.get(key)
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(Json::as_str).unwrap().to_string(),
                    m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                )
            })
            .collect()
    };
    let table = |t: &[d2net_perfbench::record::MetricDef]| -> Vec<(String, String)> {
        t.iter()
            .map(|d| (d.name.to_string(), d.unit.to_string()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), table(END_TO_END));
    assert_eq!(listed("per_layer"), table(PER_LAYER));
    let workloads: Vec<&str> = def
        .get("workloads")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
    for (m, d) in def
        .get("end_to_end")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .zip(END_TO_END)
    {
        let better = m.get("better").and_then(Json::as_str).unwrap();
        assert_eq!(better == "higher", d.higher_is_better, "{}", d.name);
    }
}
