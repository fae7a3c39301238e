//! The Kairos benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <crisp-churn|mesh-fill|sharded-serve|catalog|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. With `--trace 0` it prints the end-to-end
//! metrics of the workload; with `--trace 1` the per-layer metrics of a
//! traced replay of every workload's stream through successively deeper
//! stacks. The log goes to standard error; the last line of standard
//! output is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. Any failed check makes the exit code 1.

mod checks;
mod e2e;
mod inputs;
mod layers;
mod pass;
mod stack;
mod stats;
mod trace;

use std::path::Path;
use std::process::{Command, ExitCode};

use checks::Checks;
use stats::{json_number, Metrics};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <crisp-churn|mesh-fill|sharded-serve|catalog|all> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(format!("--seconds {value}: expected 0 < s <= 600"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.workload != "all" && !e2e::WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload '{}'", args.workload));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // The benchmark reads the workspace it measures from the current
    // directory: refuse to run anywhere else.
    if !Path::new("crates/core/Cargo.toml").is_file() {
        eprintln!("run from the repository root (crates/core is missing)");
        return ExitCode::from(2);
    }
    header();
    let mut checks = Checks::default();
    let mut metrics = Metrics::default();
    if args.trace {
        layers::run(&args.workload, args.seed, &mut checks, &mut metrics);
    } else {
        let workloads: Vec<&str> = if args.workload == "all" {
            e2e::WORKLOADS.to_vec()
        } else {
            vec![args.workload.as_str()]
        };
        let mut rows = Vec::new();
        for workload in &workloads {
            let mut m = Metrics::default();
            let mut info = Metrics::default();
            let before = (checks.attempted, checks.failed);
            let digest =
                e2e::run(workload, args.seed, args.seconds, &mut checks, &mut m, &mut info);
            info.put("peak_rss_mb", stats::memory_mb("VmHWM"), "MiB");
            let (attempted, failed) = (checks.attempted - before.0, checks.failed - before.1);
            info.put("error_ratio", failed as f64 / attempted.max(1) as f64, "ratio");
            eprintln!("{workload}: decision digest {digest:016x}, {attempted} operations, {failed} failed");
            for (name, value, unit) in info.iter() {
                eprintln!("  {name} = {} {unit}", json_number(*value));
            }
            for (name, value, unit) in m.iter() {
                let name =
                    if workloads.len() > 1 { format!("{workload}.{name}") } else { name.clone() };
                metrics.put(name, *value, unit);
            }
            rows.push((workload.to_string(), m, info));
        }
        print_table(&rows);
    }
    for note in &checks.notes {
        eprintln!("violation: {note}");
    }
    let correct = checks.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        checks.attempted.max(1),
        checks.failed,
        metrics.to_json()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// One row per workload with every end-to-end figure, units in the header.
fn print_table(rows: &[(String, Metrics, Metrics)]) {
    const COLUMNS: [(&str, &str); 12] = [
        ("setup_s", "s"),
        ("decisions_per_s", "1/s"),
        ("latency_p50_us", "us"),
        ("latency_p99_us", "us"),
        ("catalog_s", "s"),
        ("accept_ratio", "ratio"),
        ("mean_hops", "hops"),
        ("fragmentation", "ratio"),
        ("error_ratio", "ratio"),
        ("rss_mb", "MiB"),
        ("peak_rss_mb", "MiB"),
        ("gen.lag_p99_us", "us"),
    ];
    let mut header = format!("{:<14}", "workload");
    for (name, unit) in COLUMNS {
        header += &format!(" {:>16}", format!("{name}[{unit}]"));
    }
    eprintln!("{header}");
    for (workload, metrics, info) in rows {
        let mut line = format!("{workload:<14}");
        for (name, _) in COLUMNS {
            let cell = metrics
                .get(name)
                .or_else(|| info.get(name))
                .map_or("-".to_owned(), |v| format!("{v:.4}"));
            line += &format!(" {cell:>16}");
        }
        eprintln!("{line}");
    }
}

/// Host and build facts printed with every run (for the log, not compared).
fn header() {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let output = |cmd: &str, args: &[&str]| {
        // GIT_DIR keeps git from searching above the checkout.
        Command::new(cmd)
            .args(args)
            .env("GIT_DIR", ".git")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
            .unwrap_or_else(|| "unknown".to_owned())
    };
    eprintln!(
        "host cores {cores} | {} | commit {} | workspace rust loc {}",
        output("rustc", &["--version"]),
        output("git", &["rev-parse", "--short", "HEAD"]),
        rust_loc(Path::new("."))
    );
}

/// Lines of Rust in the workspace: every `.rs` file outside build output
/// and this benchmark.
fn rust_loc(dir: &Path) -> usize {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    let mut lines = 0;
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !(name.starts_with('.') || name == "target" || name == "perfbench") {
                lines += rust_loc(&path);
            }
        } else if name.ends_with(".rs") {
            lines += std::fs::read_to_string(&path).map_or(0, |s| s.lines().count());
        }
    }
    lines
}
