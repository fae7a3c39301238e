//! Tracing overhead — wall-clock cost of running the stack with causal
//! tracing on versus off.
//!
//! Tracing sits on the same admission hot path as the metric layer, but
//! unlike counters it allocates: every root, queue residency, probe and
//! phase span becomes a `SpanRecord` behind the sink mutex. The design
//! budget is still "a disabled handle is one pointer test per site", and
//! an enabled one a short critical section appending to a `Vec`. This
//! bench drives deterministic scenarios dark and lit over paired trials
//! that alternate which side runs first, and gates the median slowdown
//! with the same generous budget as the telemetry bench, so a regression
//! that makes span recording expensive fails the build.

mod overhead;

fn main() {
    // One queued monolithic regime, one sharded probe-heavy regime, and
    // the catalog's own traced preemption storm.
    overhead::gate(
        "tracing",
        "Tracing overhead: identical runs, span recording off vs on",
        &["overload-backpressure", "sharded-arrival-storm", "traced-preemption-storm"],
        |mut dark| {
            dark.telemetry = false;
            dark.trace = false;
            let mut lit = dark.clone();
            lit.trace = true;
            (dark, lit)
        },
    );
}
