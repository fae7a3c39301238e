//! The untraced run: the end-to-end metrics of one workload.

use std::time::{Duration, Instant};

use kairos_platform::topology;
use kairos_sim::{SimReport, Simulator};

use crate::checks::Checks;
use crate::inputs::{self, MESH_SIDE, SERVE_REQUESTS, SERVE_SHARDS};
use crate::pass::Pass;
use crate::stack::{churn_pass, fill_pass, release_rest, serve_pass, Depth, Stack};
use crate::stats::{median, memory_mb, micros, percentile, Metrics, Slowdown};

/// Set-up repeats per run; `setup_s` is their median.
const SETUPS: usize = 15;
/// Decisions of the short prefix every run decides twice, untimed, to
/// check that the same input gets the same decisions.
const PREFIX: usize = 300;

pub const WORKLOADS: [&str; 4] = ["crisp-churn", "mesh-fill", "sharded-serve", "catalog"];

/// Runs `setup` [`SETUPS`] times, returning the last result, the median
/// duration and the host's slowdown around them.
pub fn setup<T>(mut setup: impl FnMut() -> T) -> (T, f64, Slowdown) {
    let mut times = Vec::new();
    let mut slowdown = Slowdown::default();
    let mut last = None;
    for _ in 0..SETUPS {
        // Dropped first, so two set-ups never hold memory at once.
        drop(last.take());
        let start = Instant::now();
        last = Some(std::hint::black_box(setup()));
        times.push(start.elapsed().as_secs_f64());
        slowdown.sample();
    }
    (last.expect("at least one set-up"), median(&times), slowdown)
}

/// Puts a time, or with `per_second` a rate, into `metrics` at the
/// reference host's speed (see [`Slowdown`]) and into `info` as measured.
fn put_timing(
    (metrics, info): (&mut Metrics, &mut Metrics),
    (name, unit): (&str, &'static str),
    measured: f64,
    slowdown: &Slowdown,
    per_second: bool,
) {
    let factor = slowdown.factor();
    metrics.put(name, if per_second { measured * factor } else { measured / factor }, unit);
    info.put(format!("measured.{name}"), measured, unit);
}

/// Runs `pass` at least `min` times, and again while another pass of the
/// same length still fits in `seconds`.
fn repeat(seconds: f64, min: usize, mut pass: impl FnMut()) {
    let start = Instant::now();
    let mut passes = 0;
    loop {
        let before = start.elapsed();
        pass();
        passes += 1;
        let now = start.elapsed();
        if passes >= min && (now + (now - before)).as_secs_f64() > seconds {
            break;
        }
    }
}

/// Runs `pass` twice and requires the same decisions.
fn twice(checks: &mut Checks, mut pass: impl FnMut(&mut Checks) -> Pass) {
    let (a, b) = (pass(checks), pass(checks));
    checks.require(a.digest == b.digest, || "the same input was decided differently".to_owned());
}

/// Accumulates passes over one input: window statistics from every pass,
/// decisions from the first, which every later pass must repeat.
#[derive(Default)]
struct Passes {
    first: Option<Pass>,
    windows: Vec<[f64; 3]>,
    rss_mb: Vec<f64>,
    slowdown: Slowdown,
}

impl Passes {
    fn add(&mut self, pass: Pass, checks: &mut Checks) {
        self.windows.extend(pass.windows());
        self.rss_mb.extend_from_slice(&pass.rss_mb);
        self.slowdown.extend(&pass.slowdown);
        match &self.first {
            None => self.first = Some(pass),
            Some(first) => checks.require(first.digest == pass.digest, || {
                format!(
                    "a pass decided differently: digest {:016x} vs {:016x}",
                    pass.digest.value(),
                    first.digest.value()
                )
            }),
        }
    }

    fn first(&self) -> &Pass {
        self.first.as_ref().expect("at least one pass")
    }

    fn median(&self, column: usize) -> f64 {
        median(&self.windows.iter().map(|w| w[column]).collect::<Vec<_>>())
    }

    fn quality(&self, metrics: &mut Metrics) {
        let first = self.first();
        metrics.put("accept_ratio", first.accept_ratio(), "ratio");
        metrics.put("mean_hops", first.mean_hops(), "hops");
        metrics.put("fragmentation", first.mean_fragmentation(), "ratio");
    }

    fn memory(&self, info: &mut Metrics) {
        info.put("rss_mb", median(&self.rss_mb), "MiB");
        info.put("host.slowdown", self.slowdown.factor(), "ratio");
    }

    fn rate(&self, out: (&mut Metrics, &mut Metrics)) {
        put_timing(out, ("decisions_per_s", "1/s"), self.median(0), &self.slowdown, true);
    }

    fn latency(&self, (metrics, info): (&mut Metrics, &mut Metrics)) {
        let slowdown = &self.slowdown;
        put_timing((metrics, info), ("latency_p50_us", "us"), self.median(1), slowdown, false);
        put_timing((metrics, info), ("latency_p99_us", "us"), self.median(2), slowdown, false);
    }
}

/// Runs `workload`, putting its end-to-end metrics in `metrics` and
/// figures shown only in the log in `info`. Returns the decision digest.
pub fn run(
    workload: &str,
    seed: u64,
    seconds: f64,
    checks: &mut Checks,
    metrics: &mut Metrics,
    info: &mut Metrics,
) -> u64 {
    match workload {
        "crisp-churn" => crisp_churn(seed, seconds, checks, metrics, info),
        "mesh-fill" => mesh_fill(seed, seconds, checks, metrics, info),
        "sharded-serve" => sharded_serve(seed, seconds, checks, metrics, info),
        "catalog" => catalog(seed, seconds, checks, metrics, info),
        _ => unreachable!("workload names are checked when parsing arguments"),
    }
}

fn crisp_churn(
    seed: u64,
    seconds: f64,
    checks: &mut Checks,
    metrics: &mut Metrics,
    info: &mut Metrics,
) -> u64 {
    let (stream, setup_s, slowdown) = setup(|| inputs::crisp_churn(seed));
    put_timing((metrics, info), ("setup_s", "s"), setup_s, &slowdown, false);
    let pass = |stream: &inputs::ChurnStream, checks: &mut Checks| {
        let stack = Stack::new(Depth::Service, topology::crisp(), false);
        let (mut stack, mut pass, live) = churn_pass(stack, stream, checks, None);
        release_rest(&mut stack, stream.len() as u64, live, &mut pass, checks);
        pass
    };
    let prefix = stream.prefix(PREFIX);
    twice(checks, |checks| pass(&prefix, checks));
    let mut passes = Passes::default();
    repeat(seconds, 1, || passes.add(pass(&stream, checks), checks));
    passes.rate((metrics, info));
    passes.latency((metrics, info));
    passes.quality(metrics);
    passes.memory(info);
    passes.first().digest.value()
}

fn mesh_fill(
    seed: u64,
    seconds: f64,
    checks: &mut Checks,
    metrics: &mut Metrics,
    info: &mut Metrics,
) -> u64 {
    let ((apps, mesh), setup_s, slowdown) =
        setup(|| (inputs::mesh_fill(seed), topology::heterogeneous_mesh(MESH_SIDE, MESH_SIDE)));
    put_timing((metrics, info), ("setup_s", "s"), setup_s, &slowdown, false);
    let pass = |apps: &inputs::Requests, checks: &mut Checks| {
        fill_pass(Stack::new(Depth::Bare, mesh.clone(), false), apps, checks, None)
    };
    let prefix = apps.prefix(PREFIX / 3);
    twice(checks, |checks| pass(&prefix, checks));
    let mut passes = Passes::default();
    repeat(seconds, 1, || passes.add(pass(&apps, checks), checks));
    passes.rate((metrics, info));
    passes.latency((metrics, info));
    passes.quality(metrics);
    passes.memory(info);
    passes.first().digest.value()
}

/// Open loop at the fixed rate, then the same stream flat out. Both must
/// decide alike, every round.
fn sharded_serve(
    seed: u64,
    seconds: f64,
    checks: &mut Checks,
    metrics: &mut Metrics,
    info: &mut Metrics,
) -> u64 {
    let (stream, setup_s, slowdown) = setup(|| inputs::sharded_serve(seed, SERVE_REQUESTS));
    put_timing((metrics, info), ("setup_s", "s"), setup_s, &slowdown, false);
    let depth = Depth::Gateway(SERVE_SHARDS);
    let mut paced = Passes::default();
    let mut flat = Passes::default();
    let mut lags = Vec::new();
    repeat(seconds, 1, || {
        let (_, pass, lag) =
            serve_pass(Stack::new(depth, topology::crisp(), false), &stream, true, checks, None);
        lags.extend(lag.lags_us);
        paced.add(pass, checks);
        let (_, pass, _) =
            serve_pass(Stack::new(depth, topology::crisp(), false), &stream, false, checks, None);
        flat.add(pass, checks);
    });
    checks.require(paced.first().digest == flat.first().digest, || {
        "the open-loop and flat-out passes decided differently".to_owned()
    });
    flat.rate((metrics, info));
    paced.latency((metrics, info));
    flat.quality(metrics);
    flat.memory(info);
    info.put("gen.lag_p50_us", median(&lags), "us");
    info.put("gen.lag_p99_us", percentile(&lags, 99.0), "us");
    info.put("gen.late_share", late_share(&lags), "ratio");
    flat.first().digest.value()
}

/// Share of operations the open-loop generator started more than a
/// millisecond after they were due.
pub fn late_share(lags_us: &[f64]) -> f64 {
    lags_us.iter().filter(|&&lag| lag > 1_000.0).count() as f64 / lags_us.len().max(1) as f64
}

/// One scenario run and its wall time.
pub fn run_scenario(scenario: &kairos_sim::Scenario) -> (SimReport, Duration, Simulator) {
    let mut sim = Simulator::new(scenario.clone()).expect("catalog scenarios validate");
    let start = Instant::now();
    let report = sim.run();
    (report, start.elapsed(), sim)
}

/// Every catalog scenario through `Simulator::run`, pass after pass. Each
/// report must satisfy its identities and repeat byte for byte.
fn catalog(
    seed: u64,
    seconds: f64,
    checks: &mut Checks,
    metrics: &mut Metrics,
    info: &mut Metrics,
) -> u64 {
    let (scenarios, setup_s, slowdown) = setup(|| {
        let scenarios = inputs::catalog(seed);
        for scenario in &scenarios {
            Simulator::new(scenario.clone()).expect("catalog scenarios validate");
        }
        scenarios
    });
    put_timing((metrics, info), ("setup_s", "s"), setup_s, &slowdown, false);
    let mut slowdown = Slowdown::default();
    let mut first: Vec<String> = Vec::new();
    let mut scenario_us = Vec::new();
    let mut rss_mb = Vec::new();
    let mut pass_s = Vec::new();
    let mut quality = (0u64, 0u64, 0u64, 0u64, 0.0f64, 0u64);
    // Two passes at least: every report must repeat byte for byte.
    repeat(seconds, 2, || {
        let mut pass = Duration::ZERO;
        for (i, scenario) in scenarios.iter().enumerate() {
            checks.op();
            let (report, spent, sim) = run_scenario(scenario);
            pass += spent;
            scenario_us.push(micros(spent));
            rss_mb.push(memory_mb("VmRSS"));
            slowdown.sample();
            checks.report(&report);
            let json = report.to_json_string();
            if first.len() < scenarios.len() {
                let t = &report.totals;
                let kairos = sim.manager();
                for id in kairos.admitted_ids() {
                    let layout = kairos.layout(id).expect("admitted ids have layouts");
                    quality.2 += layout.total_hops() as u64;
                    quality.3 += layout.routes.len() as u64;
                }
                quality.0 += t.arrivals;
                quality.1 += t.admissions;
                for sample in &report.samples {
                    quality.4 += sample.occupancy.external_fragmentation;
                    quality.5 += 1;
                }
                first.push(json);
            } else {
                checks.require(first[i] == json, || {
                    format!("{}: the report changed between passes", scenario.name)
                });
            }
        }
        pass_s.push(pass.as_secs_f64());
    });
    let catalog_s = median(&pass_s);
    let timings = [
        (("decisions_per_s", "1/s"), quality.0 as f64 / catalog_s, true),
        (("latency_p50_us", "us"), median(&scenario_us), false),
        (("latency_p99_us", "us"), percentile(&scenario_us, 99.0), false),
    ];
    for (name, measured, per_second) in timings {
        put_timing((metrics, info), name, measured, &slowdown, per_second);
    }
    metrics.put("accept_ratio", quality.1 as f64 / quality.0 as f64, "ratio");
    metrics.put("mean_hops", quality.2 as f64 / quality.3.max(1) as f64, "hops");
    metrics.put("fragmentation", quality.4 / quality.5.max(1) as f64, "ratio");
    info.put("rss_mb", median(&rss_mb), "MiB");
    info.put("host.slowdown", slowdown.factor(), "ratio");
    info.put("catalog_s", catalog_s, "s");
    let mut digest = crate::stats::Digest::default();
    for json in &first {
        digest.add_str(json);
    }
    digest.value()
}
