//! Telemetry overhead — wall-clock cost of running the stack with the
//! observability layer on versus off.
//!
//! Instrumentation sits on the admission hot path (pipeline phase spans,
//! txn lifecycle counters, probe histograms), so its cost budget is a
//! design constraint: a *disabled* handle must be one pointer test per
//! site, and an *enabled* one a handful of relaxed atomic increments.
//! This bench drives the same deterministic scenarios dark and lit over
//! paired trials that alternate which side runs first; CI runs it in
//! smoke mode and gates the median slowdown with a generous budget, so
//! regressions that make telemetry expensive fail loudly.

mod overhead;

fn main() {
    // One queued monolithic regime, one sharded probe-heavy regime, and
    // the catalog's own telemetry scenario.
    overhead::gate(
        "telemetry",
        "Telemetry overhead: identical runs, registry off vs on",
        &["overload-backpressure", "sharded-arrival-storm", "telemetry-probe-latency"],
        |mut dark| {
            dark.telemetry = false;
            let mut lit = dark.clone();
            lit.telemetry = true;
            (dark, lit)
        },
    );
}
