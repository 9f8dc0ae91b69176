//! Integration tests for the supervised sweep stack (DESIGN.md §15):
//! chaos-driven fault injection retried to byte-identical results,
//! supervised/unsupervised manifest identity, budget exhaustion without
//! aborts, and kill-and-resume reproducing the uninterrupted manifest
//! byte-for-byte through the journal. The JSON reader behind spooled
//! requests, journals and manifests is fed hostile input here too:
//! absurd nesting and arbitrary truncation are errors, never aborts.

use d2net::journal::replay_file;
use d2net::prelude::*;
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

fn fixture() -> (Network, SyntheticPattern, Vec<f64>, u64, u64) {
    let net = slim_fly(5, SlimFlyP::Floor);
    let loads = load_grid(6);
    (net, SyntheticPattern::Uniform, loads, 6_000, 1_000)
}

/// The acceptance gate: with seeded chaos arming ~5% panics and ~5%
/// stalls, a full supervised sweep completes — every chaos point either
/// retried to success or left behind as a coded stub — and the process
/// never aborts.
#[test]
fn chaos_sweep_completes_with_retries_or_coded_stubs() {
    let (net, pattern, _, duration, warmup) = fixture();
    let policy = RoutePolicy::new(&net, Algorithm::Minimal);
    let loads = load_grid(20);
    // No wall budget: results must stay machine-independent. A stalled
    // point still trips the engine's built-in 2 s stall failsafe into
    // exhaustion, which the supervisor then retries.
    let cfg = SimConfig::default();
    let chaos = ChaosConfig {
        panic_p: 0.05,
        stall_p: 0.05,
        seed: 0xC0FFEE,
    };
    // Count how many points chaos actually arms on their first attempt,
    // so the test is meaningful (the registry is pure, so this is
    // deterministic).
    let armed: Vec<usize> = (0..loads.len())
        .filter(|&i| chaos.decide(point_seed(cfg.seed, i), 0).is_some())
        .collect();
    assert!(
        !armed.is_empty(),
        "seed must arm at least one chaos point for this test to bite"
    );

    let sup = SuperviseConfig {
        max_retries: 4,
        backoff_base_ms: 1,
        chaos: Some(chaos),
        threads: 0,
    };
    let run = supervised_load_sweep_collect(
        &net, &policy, &pattern, &loads, duration, warmup, cfg, &sup,
    );
    assert_eq!(run.outcome.points.len(), loads.len());
    assert_eq!(
        run.summary.completed + run.summary.exhausted + run.summary.panicked,
        loads.len()
    );
    assert!(run.summary.retried >= 1, "armed points must have retried");
    // Every point that did not retry to success carries a coded notice.
    let coded: Vec<&str> = run.outcome.notices.iter().map(|n| n.code).collect();
    assert_eq!(
        run.summary.exhausted + run.summary.panicked,
        coded
            .iter()
            .filter(|c| **c == "exhausted" || **c == "panicked")
            .count()
    );

    // If every armed point recovered, the sweep must be byte-identical
    // to a clean unsupervised run.
    if run.summary.exhausted == 0 && run.summary.panicked == 0 {
        let clean = par_load_sweep_collect(
            &net, &policy, &pattern, &loads, duration, warmup, SimConfig::default(), 0,
        );
        assert_eq!(run.outcome.points, clean.points);
        assert_eq!(run.outcome.notices, clean.notices);
    }
}

/// Chaos disabled: the supervised harness must be a byte-level no-op
/// relative to the serial, parallel, and sharded engines.
#[test]
fn supervised_manifests_match_serial_parallel_and_sharded() {
    let (net, pattern, loads, duration, warmup) = fixture();
    let policy = RoutePolicy::new(&net, Algorithm::Valiant);
    let cfg = SimConfig::default();

    let manifest_of = |outcome: &SweepOutcome| {
        let mut m = RunManifest::new(
            "supervise parity",
            &net,
            "INR",
            "uniform",
            duration,
            warmup,
            cfg,
        );
        m.push_curve(Curve {
            label: "INR uniform".into(),
            points: outcome.points.clone(),
        });
        m.push_notices(&outcome.notices);
        m.to_json()
    };

    let serial =
        load_sweep_collect(&net, &policy, &pattern, &loads, duration, warmup, cfg);
    let par =
        par_load_sweep_collect(&net, &policy, &pattern, &loads, duration, warmup, cfg, 0);
    let mut sharded_cfg = cfg;
    sharded_cfg.shards = 2;
    let sharded = load_sweep_collect(
        &net, &policy, &pattern, &loads, duration, warmup, sharded_cfg,
    );
    let supervised = supervised_load_sweep_collect(
        &net,
        &policy,
        &pattern,
        &loads,
        duration,
        warmup,
        cfg,
        &SuperviseConfig::default(),
    );

    assert!(supervised.summary.is_trivial());
    let baseline = manifest_of(&serial);
    assert_eq!(manifest_of(&par), baseline);
    assert_eq!(manifest_of(&sharded), baseline);
    assert_eq!(manifest_of(&supervised.outcome), baseline);
    // A trivial supervision summary must keep the manifest free of the
    // supervision section entirely.
    let mut m = RunManifest::new(
        "supervise parity", &net, "INR", "uniform", duration, warmup, cfg,
    );
    m.push_curve(Curve {
        label: "INR uniform".into(),
        points: supervised.outcome.points.clone(),
    });
    m.push_notices(&supervised.outcome.notices);
    m.set_supervision(supervision_manifest(&supervised.summary, 0));
    assert!(!m.to_json().contains("supervision"));
}

/// A starved event budget exhausts every point into coded notices and
/// partial stats — never a crash, never a wedge-abort cascade.
#[test]
fn event_budget_exhaustion_is_coded_not_fatal() {
    let (net, pattern, loads, duration, warmup) = fixture();
    let policy = RoutePolicy::new(&net, Algorithm::Minimal);
    let cfg = SimConfig {
        budget: RunBudget::events(500),
        ..SimConfig::default()
    };
    let run = supervised_load_sweep_collect(
        &net,
        &policy,
        &pattern,
        &loads,
        duration,
        warmup,
        cfg,
        &SuperviseConfig {
            max_retries: 1,
            backoff_base_ms: 1,
            ..SuperviseConfig::default()
        },
    );
    assert_eq!(run.summary.exhausted, loads.len());
    assert_eq!(run.summary.completed, 0);
    for (i, n) in run.outcome.notices.iter().enumerate() {
        assert_eq!(n.code, "exhausted");
        assert_eq!(n.index, i);
    }
    for p in &run.outcome.points {
        assert!(p.stats.exhausted);
        assert!(!p.stats.deadlocked, "exhaustion must not read as a wedge");
    }
}

fn request_json(steps: usize, seed: u64) -> String {
    format!(
        "{{\"id\":\"resume-prop\",\"topology\":\"slim_fly:5\",\"algorithm\":\"minimal\",\
         \"pattern\":\"uniform\",\"steps\":{steps},\"duration_ns\":4000,\
         \"warmup_ns\":800,\"seed\":{seed}}}"
    )
}

fn strip_supervision(s: &str) -> String {
    match s.find("\"supervision\":{") {
        None => s.to_string(),
        Some(start) => {
            let mut end = s[start..].find('}').unwrap() + start + 1;
            if s.as_bytes().get(end) == Some(&b',') {
                end += 1;
            }
            let mut out = s.to_string();
            out.replace_range(start..end, "");
            out
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Kill-and-resume at an arbitrary point boundary: stop a journaled
    /// supervised run after `kill_after` completed points (the in-process
    /// equivalent of SIGKILL between journal appends), rerun against the
    /// same journal, and require the final manifest to be byte-identical
    /// to an uninterrupted run's once the supervision section — the one
    /// legitimate difference — is stripped.
    #[test]
    fn resume_after_kill_reproduces_the_uninterrupted_manifest(
        kill_after in 1usize..5,
        seed in 0u64..500,
    ) {
        let dir = std::env::temp_dir().join(format!(
            "d2net_resume_prop_{kill_after}_{seed}"
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let journal = dir.join("resume-prop.journal");
        let _ = std::fs::remove_file(&journal);

        let req = SupervisedRequest::from_json(&request_json(5, seed)).unwrap();
        let clean = run_supervised(&req, None, None).unwrap();
        prop_assert!(clean.finished);

        // First run: single worker, stop after `kill_after` completions.
        let mut req1 = SupervisedRequest::from_json(&request_json(5, seed)).unwrap();
        req1.sup.threads = 1;
        let done = AtomicUsize::new(0);
        let journal_probe = journal.clone();
        let stop = move || {
            // The journal line count is the durable ground truth of
            // progress — exactly what a killed process leaves behind.
            let lines = std::fs::read_to_string(&journal_probe)
                .map(|t| t.lines().count())
                .unwrap_or(0);
            done.store(lines, Ordering::Relaxed);
            lines > kill_after // header line + kill_after points
        };
        let partial = run_supervised(&req1, Some(&journal), Some(&stop)).unwrap();
        prop_assert!(!partial.finished);
        prop_assert!(partial.summary.not_run > 0);

        // Second run resumes the journal to completion.
        let resumed = run_supervised(&req, Some(&journal), None).unwrap();
        prop_assert!(resumed.finished);
        prop_assert!(resumed.summary.skipped_by_resume >= kill_after as u32);

        let resumed_json = resumed.manifest.to_json();
        let clean_json = clean.manifest.to_json();
        prop_assert!(resumed_json.contains("\"supervision\""));
        prop_assert!(!clean_json.contains("\"supervision\""));
        prop_assert_eq!(strip_supervision(&resumed_json), clean_json);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// A journal with a torn tail (the half-written line a kill leaves
/// behind) plus stray garbage resumes cleanly: damaged lines are
/// skipped and counted, the missing points re-simulate, and the final
/// manifest still matches the uninterrupted run.
#[test]
fn torn_journal_tail_is_skipped_and_resimulated() {
    let dir = std::env::temp_dir().join("d2net_torn_journal_test");
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("resume-prop.journal");
    let _ = std::fs::remove_file(&journal);

    let req = SupervisedRequest::from_json(&request_json(4, 77)).unwrap();
    let clean = run_supervised(&req, None, None).unwrap();

    // Produce a complete journal, then damage it: truncate the last
    // line mid-record and append garbage.
    let full = run_supervised(&req, Some(&journal), None).unwrap();
    assert!(full.finished);
    let text = std::fs::read_to_string(&journal).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    let keep = lines.len() - 1;
    let mut damaged: String = lines[..keep]
        .iter()
        .map(|l| format!("{l}\n"))
        .collect();
    damaged.push_str(&lines[keep][..lines[keep].len() / 2]); // torn tail
    damaged.push_str("\nnot json at all\n");
    std::fs::write(&journal, &damaged).unwrap();

    let resumed = run_supervised(&req, Some(&journal), None).unwrap();
    assert!(resumed.finished);
    assert!(resumed.summary.journal_lines_skipped >= 1);
    assert!(resumed.summary.completed >= 1, "damaged points re-simulate");
    assert_eq!(
        strip_supervision(&resumed.manifest.to_json()),
        clean.manifest.to_json()
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A 200,000-deep document is a coded error, not a stack overflow: the
/// service reads spooled requests and event logs from outside the
/// process, and an abort there is beyond `catch_unwind`.
#[test]
fn deeply_nested_json_is_an_error_not_an_abort() {
    let deep = "[".repeat(200_000);
    let err = Json::parse(&deep).unwrap_err();
    assert!(err.starts_with("JSON_TOO_DEEP"), "{err}");
    assert!(SupervisedRequest::from_json(&deep).is_err());
    let nested_field = format!("{{\"id\":\"deep\",\"loads\":{deep}");
    assert!(SupervisedRequest::from_json(&nested_field).is_err());
    assert!(parse_event_line(&deep).is_err());
}

/// A finished supervised run's manifest and journal text: real inputs
/// for the truncation property below.
fn parser_fixture() -> &'static (String, String) {
    static FIXTURE: OnceLock<(String, String)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let dir = std::env::temp_dir().join("d2net_parser_fixture");
        std::fs::create_dir_all(&dir).unwrap();
        let journal = dir.join("fixture.journal");
        let _ = std::fs::remove_file(&journal);
        let req = SupervisedRequest::from_json(&request_json(3, 5)).unwrap();
        let run = run_supervised(&req, Some(&journal), None).unwrap();
        assert!(run.finished);
        let text = std::fs::read_to_string(&journal).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let manifest = run.manifest.to_json();
        assert!(
            manifest.is_ascii() && text.is_ascii(),
            "byte cuts need ASCII"
        );
        (manifest, text)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Cutting a real manifest, or the last line of a real journal, at
    /// any byte gives an error or a counted skip, never a panic.
    #[test]
    fn truncated_manifests_and_journal_lines_never_panic(per_mille in 0usize..1000) {
        let (manifest, journal) = parser_fixture();
        let torn = &manifest[..manifest.len() * per_mille / 1000];
        prop_assert!(Json::parse(torn).is_err());
        prop_assert!(compare_manifests(torn, manifest).is_err());
        prop_assert!(SupervisedRequest::from_json(torn).is_err());
        prop_assert!(parse_event_line(torn).is_err());

        let lines: Vec<&str> = journal.lines().collect();
        let (last, kept) = lines.split_last().unwrap();
        let cut = last.len() * per_mille / 1000;
        let header = Json::parse(kept[0]).unwrap();
        let run_key = u64::from_str_radix(header.get("run_key").unwrap().as_str().unwrap(), 16)
            .unwrap();
        let points = header.get("points").unwrap().as_u64().unwrap() as usize;
        let path = std::env::temp_dir().join(format!("d2net_torn_line_{per_mille}.journal"));
        std::fs::write(&path, format!("{}\n{}", kept.join("\n"), &last[..cut])).unwrap();
        let replay = replay_file(&path, run_key, points);
        std::fs::remove_file(&path).unwrap();
        prop_assert!(replay.matched);
        prop_assert_eq!(replay.replayed(), kept.len() - 1);
        prop_assert_eq!(replay.lines_skipped, u32::from(cut > 0));
    }
}
