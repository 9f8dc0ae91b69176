//! The benchmark's record: metrics by name with units, the checks that
//! fed `correct`/`failed`, and a host fingerprint. Records from hosts
//! with different fingerprints are never compared.

use crate::json::Json;

/// A metric the benchmark defines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

const fn def(name: &'static str, unit: &'static str, higher_is_better: bool) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better,
    }
}

/// Untraced metrics, reported by every workload.
pub const END_TO_END: &[MetricDef] = &[
    def("setup_s", "s", false),
    def("wall_s", "s", false),
    def("events_per_s", "1/s", true),
    def("peak_rss_mb", "MB", false),
    def("success_rate", "ratio", true),
];

/// Traced metrics, reported by every workload; a layer the workload
/// bypasses reports 0.
pub const PER_LAYER: &[MetricDef] = &[
    def("topo.build_ms", "ms", false),
    def("routing.tables_ms", "ms", false),
    def("traffic.gen_ms", "ms", false),
    def("sim.engine.build_ms", "ms", false),
    def("sim.engine.events", "count", false),
    def("sim.engine.serial_events_per_s", "1/s", true),
    def("sim.engine.in_q_pushes", "count", false),
    def("sim.engine.out_q_pushes", "count", false),
    def("sim.engine.blocked_entries", "count", false),
    def("sim.equeue.ring_pushes", "count", true),
    def("sim.equeue.drain_pushes", "count", false),
    def("sim.equeue.overflow_pushes", "count", false),
    def("sim.equeue.ring_highwater", "count", false),
    def("sim.equeue.days_collected", "count", false),
    def("sim.equeue.ring_share", "ratio", true),
    def("sim.shard.count", "count", true),
    def("sim.shard.events_per_s", "1/s", true),
    def("sim.shard.speedup", "x", true),
    def("sim.par.speedup", "x", true),
    def("sim.sweep.point_s_p50", "s", false),
    def("sim.sweep.point_s_max", "s", false),
    def("sim.supervise.retried", "count", false),
    def("sim.supervise.panicked", "count", false),
    def("sim.supervise.exhausted", "count", false),
    def("core.journal.append_us", "us", false),
    def("core.journal.replay_ms", "ms", false),
    def("core.report.manifest_ms", "ms", false),
    def("obs.trace_ratio", "x", false),
    def("obs.probe_ratio", "x", false),
    def("obs.ledger_ratio", "x", false),
    def("bench.trace_overhead", "x", false),
];

pub fn metric_def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    pub name: String,
    pub value: f64,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    pub name: String,
    pub passed: bool,
    pub detail: String,
}

/// Where a record was measured. Only `nproc`, `cpu_model` and `rustc`
/// decide comparability; the commit says what was measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    pub nproc: u64,
    pub cpu_model: String,
    pub rustc: String,
    /// `git rev-parse HEAD`, or `"none"` outside a git checkout.
    pub git_commit: String,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

impl Fingerprint {
    pub fn of_this_host() -> Fingerprint {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Fingerprint {
            nproc: crate::workloads::threads() as u64,
            cpu_model,
            rustc: command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
            git_commit: command_line("git", &["rev-parse", "HEAD"])
                .unwrap_or_else(|| "none".into()),
        }
    }

    pub fn comparable(&self, other: &Fingerprint) -> bool {
        self.nproc == other.nproc && self.cpu_model == other.cpu_model && self.rustc == other.rustc
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("nproc", Json::Num(self.nproc as f64)),
            ("cpu_model", Json::str(self.cpu_model.as_str())),
            ("rustc", Json::str(self.rustc.as_str())),
            ("git_commit", Json::str(self.git_commit.as_str())),
        ])
    }

    fn from_json(j: &Json) -> Result<Fingerprint, String> {
        let s = |k: &str| {
            j.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("fingerprint is missing '{k}'"))
        };
        Ok(Fingerprint {
            nproc: j
                .get("nproc")
                .and_then(Json::as_f64)
                .ok_or("fingerprint is missing 'nproc'")? as u64,
            cpu_model: s("cpu_model")?,
            rustc: s("rustc")?,
            git_commit: s("git_commit")?,
        })
    }
}

pub const SCHEMA: &str = "d2net.perfbench/v1";

/// One run's record, written next to the benchmark as JSON.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    pub workload: String,
    pub seed: u64,
    /// Whether `seed` came from `--seed` or is the default.
    pub seed_given: bool,
    pub default_seed: u64,
    pub trace: bool,
    pub smoke: bool,
    pub seconds: f64,
    pub fingerprint: Fingerprint,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Measurement>,
    pub checks: Vec<Check>,
    /// Workload-specific sections: validation statements and the like.
    pub notes: Vec<(String, Json)>,
}

impl Record {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.passed)
    }

    fn metrics_json(&self) -> Json {
        Json::Obj(
            self.metrics
                .iter()
                .map(|m| {
                    let unit = metric_def(&m.name).map_or("", |d| d.unit);
                    (
                        m.name.clone(),
                        Json::obj(vec![
                            ("value", Json::Num(m.value)),
                            ("unit", Json::str(unit)),
                        ]),
                    )
                })
                .collect(),
        )
    }

    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema", Json::str(SCHEMA)),
            ("workload", Json::str(self.workload.as_str())),
            ("seed", Json::Num(self.seed as f64)),
            ("seed_given", Json::Bool(self.seed_given)),
            ("default_seed", Json::Num(self.default_seed as f64)),
            ("trace", Json::Bool(self.trace)),
            ("smoke", Json::Bool(self.smoke)),
            ("seconds", Json::Num(self.seconds)),
            ("fingerprint", self.fingerprint.to_json()),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", self.metrics_json()),
            (
                "checks",
                Json::Arr(
                    self.checks
                        .iter()
                        .map(|c| {
                            Json::obj(vec![
                                ("name", Json::str(c.name.as_str())),
                                ("passed", Json::Bool(c.passed)),
                                ("detail", Json::str(c.detail.as_str())),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("notes", Json::Obj(self.notes.clone())),
        ])
    }

    pub fn from_json(j: &Json) -> Result<Record, String> {
        if j.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
            return Err(format!("not a {SCHEMA} record"));
        }
        let num = |k: &str| {
            j.get(k)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("record is missing number '{k}'"))
        };
        let flag = |k: &str| {
            j.get(k)
                .and_then(Json::as_bool)
                .ok_or_else(|| format!("record is missing flag '{k}'"))
        };
        let metrics = j
            .get("metrics")
            .and_then(Json::as_object)
            .ok_or("record is missing 'metrics'")?
            .iter()
            .map(|(name, v)| {
                v.get("value")
                    .and_then(Json::as_f64)
                    .map(|value| Measurement {
                        name: name.clone(),
                        value,
                    })
                    .ok_or_else(|| format!("metric '{name}' has no value"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let checks = j
            .get("checks")
            .and_then(Json::as_array)
            .ok_or("record is missing 'checks'")?
            .iter()
            .map(|c| {
                let check = || {
                    Some(Check {
                        name: c.get("name")?.as_str()?.to_string(),
                        passed: c.get("passed")?.as_bool()?,
                        detail: c.get("detail")?.as_str()?.to_string(),
                    })
                };
                check().ok_or_else(|| "malformed check".to_string())
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Record {
            workload: j
                .get("workload")
                .and_then(Json::as_str)
                .ok_or("record is missing 'workload'")?
                .to_string(),
            seed: num("seed")? as u64,
            seed_given: flag("seed_given")?,
            default_seed: num("default_seed")? as u64,
            trace: flag("trace")?,
            smoke: flag("smoke")?,
            seconds: num("seconds")?,
            fingerprint: Fingerprint::from_json(
                j.get("fingerprint")
                    .ok_or("record is missing 'fingerprint'")?,
            )?,
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            metrics,
            checks,
            notes: j
                .get("notes")
                .and_then(Json::as_object)
                .map(<[_]>::to_vec)
                .unwrap_or_default(),
        })
    }

    /// The line the benchmark prints last: exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        Json::obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", self.metrics_json()),
        ])
        .render()
    }
}

/// Per-metric comparison of two records of one workload, `after`
/// against `before`. Refuses records from different hosts, workloads,
/// modes or seeds.
pub fn compare(before: &Record, after: &Record) -> Result<Vec<(String, f64, f64, f64)>, String> {
    if !before.fingerprint.comparable(&after.fingerprint) {
        return Err(format!(
            "host fingerprints differ ({} CPUs '{}' {} vs {} CPUs '{}' {}); \
             records from different hosts are not compared",
            before.fingerprint.nproc,
            before.fingerprint.cpu_model,
            before.fingerprint.rustc,
            after.fingerprint.nproc,
            after.fingerprint.cpu_model,
            after.fingerprint.rustc
        ));
    }
    if (
        before.workload.as_str(),
        before.trace,
        before.smoke,
        before.seed,
    ) != (
        after.workload.as_str(),
        after.trace,
        after.smoke,
        after.seed,
    ) {
        return Err("records measure different workloads, modes or seeds".into());
    }
    Ok(before
        .metrics
        .iter()
        .filter_map(|b| {
            let a = after.metrics.iter().find(|a| a.name == b.name)?;
            let ratio = if b.value == 0.0 {
                f64::NAN
            } else {
                a.value / b.value
            };
            Some((b.name.clone(), b.value, a.value, ratio))
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Record {
        Record {
            workload: "coral_uniform_min".into(),
            seed: 7,
            seed_given: true,
            default_seed: 1,
            trace: false,
            smoke: true,
            seconds: 1.5,
            fingerprint: Fingerprint {
                nproc: 2,
                cpu_model: "Test CPU \"quoted\"".into(),
                rustc: "rustc 1.0.0".into(),
                git_commit: "none".into(),
            },
            attempted: 12,
            failed: 0,
            metrics: vec![
                Measurement {
                    name: "wall_s".into(),
                    value: 1.0 / 3.0,
                },
                Measurement {
                    name: "events_per_s".into(),
                    value: 2.5e6,
                },
            ],
            checks: vec![Check {
                name: "digest_matches_reference".into(),
                passed: true,
                detail: "ok".into(),
            }],
            notes: vec![(
                "validation".into(),
                Json::obj(vec![("model_validated", Json::Bool(false))]),
            )],
        }
    }

    #[test]
    fn record_round_trips() {
        let r = sample();
        let text = r.to_json().render();
        assert_eq!(Record::from_json(&Json::parse(&text).unwrap()).unwrap(), r);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = Json::parse(&sample().result_line()).unwrap();
        let keys: Vec<&str> = line
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let wall = line.get("metrics").unwrap().get("wall_s").unwrap();
        assert_eq!(wall.get("unit").unwrap().as_str(), Some("s"));
    }

    #[test]
    fn different_hosts_are_refused() {
        let a = sample();
        let mut b = sample();
        assert!(compare(&a, &b).is_ok());
        b.fingerprint.nproc = 1;
        assert!(compare(&a, &b).unwrap_err().contains("fingerprints differ"));
        let mut c = sample();
        c.fingerprint.git_commit = "abc".into();
        assert!(
            compare(&a, &c).is_ok(),
            "the commit is what a comparison varies"
        );
    }

    #[test]
    fn a_failed_check_makes_the_record_incorrect() {
        let mut r = sample();
        assert!(r.correct());
        r.checks[0].passed = false;
        assert!(!r.correct());
    }
}
