//! The dark/lit overhead gate shared by the `telemetry`, `trace` and
//! `watch` benches: each drives deterministic catalog scenarios with one
//! observer layer off (dark) and on (lit) and asserts the layer never
//! multiplies the cost of a run.

use std::time::Instant;

use kairos_bench::{paired_trials, print_table};
use kairos_sim::{Scenario, Simulator};

/// Paired trials per scenario; even and odd trials swap which side runs
/// first.
const TRIALS: usize = 12;

fn timed_run(scenario: &Scenario) -> (f64, u64) {
    let start = Instant::now();
    let report = Simulator::new(scenario.clone()).expect("catalog scenario is valid").run();
    (start.elapsed().as_secs_f64(), report.totals.arrivals)
}

/// Runs each of `scenarios` dark and lit — `variants` derives the pair
/// from the catalog entry — over [`TRIALS`] paired trials after one
/// warm-up run of each, prints median wall times and the median lit/dark
/// ratio with its IQR, and gates the worst median ratio.
pub fn gate(
    layer: &str,
    title: &str,
    scenarios: &[&str],
    variants: impl Fn(Scenario) -> (Scenario, Scenario),
) {
    let mut rows = Vec::new();
    let mut worst_ratio = 0.0f64;
    for name in scenarios {
        let (dark, lit) = variants(Scenario::by_name(name).expect("catalog scenario"));
        let (_, arrivals) = timed_run(&dark);
        timed_run(&lit);
        let trials = paired_trials(TRIALS, || timed_run(&dark).0, || timed_run(&lit).0);
        worst_ratio = worst_ratio.max(trials.ratio);
        rows.push(vec![
            (*name).to_string(),
            arrivals.to_string(),
            format!("{:.2}", trials.dark * 1e3),
            format!("{:.2}", trials.lit * 1e3),
            format!("{:.2}x", trials.ratio),
            format!("{:.2}", trials.ratio_iqr),
        ]);
    }
    print_table(
        &format!("{title}, {TRIALS} paired trials"),
        &["scenario", "arrivals", "dark median (ms)", "lit median (ms)", "median slowdown", "IQR"],
        &rows,
    );
    println!("\nworst median slowdown {worst_ratio:.2}x (1.00x = free)");

    // Smoke gate: an observer layer must never multiply the cost of a
    // run. The bound is deliberately loose — CI machines are noisy and
    // the runs are short — but a 3x regression means an instrumentation
    // site started doing real work per event (or a disabled site stopped
    // being a pointer test) and must fail the build.
    assert!(worst_ratio < 3.0, "{layer} slowdown {worst_ratio:.2}x exceeds the 3x smoke budget");
    println!("smoke gate: worst median slowdown within the 3x budget");
}
