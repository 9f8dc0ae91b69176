//! Command line of the benchmark:
//!
//! ```text
//! d2net-perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! d2net-perfbench compare BEFORE.json AFTER.json
//! d2net-perfbench reference [--smoke]
//! d2net-perfbench memory-probe --workload NAME [--seed N] [--smoke]
//! ```
//!
//! `memory-probe` runs one bare operation and prints the process's peak
//! resident memory in MB; an untraced run starts it as a child.
//!
//! A run prints a readable report, writes its record to
//! `out/<workload>.trace<0|1>.json` beside this package, and prints the
//! result object as its last line of standard output.

use d2net_perfbench::json::Json;
use d2net_perfbench::record::{compare, metric_def, Record};
use d2net_perfbench::workloads::{self, Sizes, Workload};
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut smoke = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::parse(v).ok_or_else(|| format!("unknown workload '{v}'"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                seconds = value()?
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds takes a non-negative number")?
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        smoke,
    })
}

fn read_record(path: &str) -> Result<Record, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Record::from_json(&Json::parse(&text).map_err(|e| format!("{path}: {e}"))?)
        .map_err(|e| format!("{path}: {e}"))
}

fn cmd_compare(before: &str, after: &str) -> Result<(), String> {
    let rows = compare(&read_record(before)?, &read_record(after)?)?;
    println!(
        "{:<34} {:>14} {:>14} {:>8}",
        "metric", "before", "after", "ratio"
    );
    for (name, b, a, ratio) in rows {
        let unit = metric_def(&name).map_or("", |d| d.unit);
        println!("{name:<34} {b:>14.6} {a:>14.6} {ratio:>8.3}  {unit}");
    }
    Ok(())
}

fn cmd_reference(smoke: bool) {
    let sizes = if smoke { Sizes::smoke() } else { Sizes::full() };
    for w in Workload::ALL {
        let d = workloads::reference_digest(w, &sizes);
        println!("    (\"{}\", {smoke}, 0x{d:016x}),", w.name());
    }
}

fn print_report(r: &Record) {
    println!(
        "workload {} seed {} ({}), trace {}, {} CPUs, {}",
        r.workload,
        r.seed,
        if r.seed_given { "given" } else { "default" },
        r.trace as u8,
        r.fingerprint.nproc,
        r.fingerprint.cpu_model
    );
    for m in &r.metrics {
        let unit = metric_def(&m.name).map_or("", |d| d.unit);
        println!("  {:<34} {:>16.6} {unit}", m.name, m.value);
    }
    for c in &r.checks {
        println!(
            "  check {:<38} {}  {}",
            c.name,
            if c.passed { "ok  " } else { "FAIL" },
            c.detail
        );
    }
    if let Some(v) = r
        .notes
        .iter()
        .find(|(k, _)| k == "validation")
        .map(|(_, v)| v)
    {
        if let Some(s) = v.get("statement").and_then(Json::as_str) {
            println!("  model validated against the paper: no. {s}");
        }
        if let Some(eff) = v
            .get("fig14_min_effective_throughput")
            .and_then(Json::as_f64)
        {
            let paper = v
                .get("fig14_paper_value")
                .and_then(Json::as_str)
                .unwrap_or("");
            println!("  Fig. 14 MIN effective throughput {eff:.4}; paper: {paper}");
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") if args.len() == 3 => {
            return match cmd_compare(&args[1], &args[2]) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("d2net-perfbench: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        Some("memory-probe") => {
            let a = match parse_args(&args[1..]) {
                Ok(a) => a,
                Err(e) => {
                    eprintln!("d2net-perfbench: {e}");
                    return ExitCode::from(2);
                }
            };
            d2net_perfbench::pin_environment();
            let sizes = if a.smoke {
                Sizes::smoke()
            } else {
                Sizes::full()
            };
            let seed = a.seed.unwrap_or(workloads::DEFAULT_SEED);
            println!(
                "{}",
                workloads::memory_probe(a.workload, &sizes, seed, &workloads::out_dir())
            );
            return ExitCode::SUCCESS;
        }
        Some("reference") => {
            d2net_perfbench::pin_environment();
            cmd_reference(args.iter().any(|a| a == "--smoke"));
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    let a = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("d2net-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    d2net_perfbench::pin_environment();
    let out_dir = workloads::out_dir();
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("d2net-perfbench: cannot create {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }
    let sizes = if a.smoke {
        Sizes::smoke()
    } else {
        Sizes::full()
    };
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("d2net-perfbench: cannot locate its own binary: {e}");
            return ExitCode::FAILURE;
        }
    };
    let record = d2net_perfbench::run(
        a.workload, &sizes, a.seed, a.seconds, a.trace, &out_dir, &exe,
    );
    let path = out_dir.join(format!("{}.trace{}.json", record.workload, a.trace as u8));
    if let Err(e) = std::fs::write(&path, record.to_json().render() + "\n") {
        eprintln!("d2net-perfbench: cannot write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    print_report(&record);
    println!("{}", record.result_line());
    ExitCode::SUCCESS
}
