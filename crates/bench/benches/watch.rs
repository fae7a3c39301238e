//! Watch overhead — wall-clock cost of running the stack with the
//! energy/health layer on versus off.
//!
//! The watcher and energy meter only run at sample ticks (activity scan,
//! integer integration, rule evaluation) and observe the event stream
//! read-only, so their cost budget is a design constraint: an unwatched
//! run must pay nothing, and a watched one a bounded per-sample sweep.
//! This bench drives the same deterministic scenarios dark (no `watch`,
//! no `power`) and lit (default watch policy, which implies energy
//! metering) over paired trials that alternate which side runs first;
//! CI runs it in smoke mode and gates the median slowdown with a
//! generous budget, so regressions that make monitoring expensive fail
//! loudly.

use kairos_sim::WatchSpec;

mod overhead;

fn main() {
    // One queued monolithic regime, one sharded probe-heavy regime, and
    // the catalog's own SLO-burn scenario.
    overhead::gate(
        "watch",
        "Watch overhead: identical runs, energy/health layer off vs on",
        &["overload-backpressure", "sharded-arrival-storm", "slo-burn-storm"],
        |mut dark| {
            dark.watch = None;
            dark.power = None;
            let mut lit = dark.clone();
            lit.watch = Some(WatchSpec::default());
            (dark, lit)
        },
    );
}
