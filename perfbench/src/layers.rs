//! The traced run: per-layer metrics.
//!
//! Each workload's stream is replayed through successively deeper stacks
//! on the wall phase clock, with a span around every call the benchmark
//! makes into a layer; a layer's own cost is the difference between two
//! depths on the same stream. The catalog is run scenario by scenario,
//! and the scenarios that switch an observer or the cache on are run
//! again with that knob cleared. The same replay runs whatever the
//! workload; the workload picks which pass the tracing overhead is
//! measured on.

use std::time::{Duration, Instant};

use kairos_appgen::{WorkloadMix, WorkloadSampler};
use kairos_cluster::{ClusterBuilder, LeastLoaded};
use kairos_opcache::{shape_of, stamp_of};
use kairos_platform::{topology, AppId, Platform};
use kairos_sim::{Scenario, SimReport};
use kairos_telemetry::{Telemetry, TelemetryConfig};

use crate::checks::Checks;
use crate::e2e::{late_share, run_scenario, setup};
use crate::inputs::{self, ChurnStream, Requests, ServeStream, MESH_SIDE, SERVE_SHARDS};
use crate::pass::Pass;
use crate::stack::{
    churn_lockstep, fill_lockstep, fill_pass, release_rest, serve_lockstep, serve_pass, Depth,
    Lane, Stack,
};
use crate::stats::{median, micros, percentile, Metrics};
use crate::trace::{json_parses, SpanTotals, Tracer};

const PHASES: [&str; 4] = ["binding", "mapping", "routing", "validation"];
/// Leading part of each workload's stream the layers are replayed on.
const CRISP_REPLAY: usize = 5_000;
const MESH_REPLAY: usize = 300;
const SERVE_REPLAY: usize = 1_500;
/// Refused `crisp-churn` requests the victim planner is timed on.
const PLANNED: usize = 100;
/// Repeats of each knob-cleared twin; the metric is the difference of
/// the medians.
const TWIN_RUNS: usize = 5;
/// Where the traced run writes its spans, relative to the repository root.
const SPAN_DIR: &str = "perfbench/out";

pub fn run(workload: &str, seed: u64, checks: &mut Checks, metrics: &mut Metrics) {
    let mut tracer = Tracer::new();
    let crisp = inputs::crisp_churn(seed).prefix(CRISP_REPLAY);
    let mesh_apps = &inputs::mesh_fill(seed).prefix(MESH_REPLAY);
    let serve = inputs::sharded_serve(seed, SERVE_REPLAY);
    let scenarios = inputs::catalog(seed);

    model(seed, &crisp, metrics);
    overhead(workload, &crisp, mesh_apps, &serve, &scenarios, checks, metrics);
    crisp_layers(&crisp, checks, metrics, &mut tracer);
    mesh_layers(mesh_apps, checks, metrics, &mut tracer);
    serve_layers(&serve, checks, metrics, &mut tracer);
    catalog_layers(&scenarios, checks, metrics, &mut tracer);

    let totals = tracer.totals();
    eprintln!("self time per span (replay, span: calls, mean total us, mean self us)");
    for ((replay, name), t) in &totals {
        eprintln!(
            "  {replay:<22} {name:<20} {:>8} {:>12.2} {:>12.2}",
            t.count,
            mean_us(t),
            t.mean_self_us()
        );
    }
    let path = format!("{SPAN_DIR}/spans-{workload}.json");
    let chrome = tracer.chrome();
    let written = std::fs::create_dir_all(SPAN_DIR).and_then(|()| std::fs::write(&path, &chrome));
    let parses = written.is_ok() && std::fs::read_to_string(&path).is_ok_and(|s| json_parses(&s));
    checks.require(parses, || format!("span file {path} was not written as JSON ({written:?})"));
    eprintln!("{} spans written to {path}", tracer.len());
}

fn mean_us(t: &SpanTotals) -> f64 {
    t.total_ns as f64 / t.count.max(1) as f64 / 1e3
}

/// Mean duration of the spans `name` of `replay`.
fn span_us(tracer: &Tracer, replay: &'static str, name: &'static str) -> f64 {
    tracer.totals().get(&(replay, name)).map_or(0.0, mean_us)
}

/// `platform` and `appgen`: building the two platforms and drawing an
/// application.
fn model(seed: u64, crisp: &ChurnStream, metrics: &mut Metrics) {
    let (_, crisp_s, _) = setup(topology::crisp);
    let (mesh, mesh_s, _) = setup(|| topology::heterogeneous_mesh(MESH_SIDE, MESH_SIDE));
    metrics.put("platform.crisp_build_ms", crisp_s * 1e3, "ms");
    metrics.put("platform.mesh_build_ms", mesh_s * 1e3, "ms");
    let mut sampler = WorkloadSampler::new("model", WorkloadMix::all_datasets(), seed);
    let draws = 500;
    let start = Instant::now();
    for _ in 0..draws {
        std::hint::black_box(sampler.next_app());
    }
    metrics.put("appgen.next_app_us", micros(start.elapsed()) / f64::from(draws), "us");
    let pool = crisp.requests.pool();
    let shape = timed_mean(pool.len(), |i| {
        std::hint::black_box(shape_of(&pool[i]));
    });
    metrics.put("opcache.shape_us", shape, "us");
    let stamp = |platform: &Platform| {
        timed_mean(1_000, |_| {
            std::hint::black_box(stamp_of(platform));
        })
    };
    metrics.put("opcache.crisp_stamp_us", stamp(&topology::crisp()), "us");
    metrics.put("opcache.mesh_stamp_us", stamp(&mesh), "us");
}

/// Mean microseconds of `f(i)` over `n` calls.
fn timed_mean(n: usize, mut f: impl FnMut(usize)) -> f64 {
    let start = Instant::now();
    for i in 0..n {
        f(i);
    }
    micros(start.elapsed()) / n.max(1) as f64
}

/// The workload's own stack twice, in lockstep, one copy traced: the ratio
/// of the time the two spent in the program is the tracing overhead.
fn overhead(
    workload: &str,
    crisp: &ChurnStream,
    mesh_apps: &Requests,
    serve: &ServeStream,
    scenarios: &[Scenario],
    checks: &mut Checks,
    metrics: &mut Metrics,
) {
    let mut tracer = Tracer::new();
    let mut t = Some(&mut tracer);
    let pair = |depth: Depth, platform: Platform, t: &mut Option<&mut Tracer>| {
        [
            Lane::untraced(Stack::new(depth, platform.clone(), false)),
            Lane::new(Stack::new(depth, platform, false), "traced", t),
        ]
    };
    let [untraced, traced] = match workload {
        "crisp-churn" => {
            let mut lanes = pair(Depth::Service, topology::crisp(), &mut t);
            let live = churn_lockstep(&mut lanes, crisp, checks, t);
            for (lane, live) in lanes.iter_mut().zip(live) {
                release_rest(&mut lane.stack, crisp.len() as u64, live, &mut lane.pass, checks);
            }
            lanes.map(|lane| lane.pass.busy)
        }
        "mesh-fill" => {
            let mut lanes =
                pair(Depth::Bare, topology::heterogeneous_mesh(MESH_SIDE, MESH_SIDE), &mut t);
            fill_lockstep(&mut lanes, mesh_apps, checks, t);
            lanes.map(|lane| lane.pass.busy)
        }
        "sharded-serve" => {
            let mut lanes = pair(Depth::Gateway(SERVE_SHARDS), topology::crisp(), &mut t);
            serve_lockstep(&mut lanes, serve, false, checks, t);
            lanes.map(|lane| lane.pass.busy)
        }
        _ => {
            let mut busy = [Duration::ZERO; 2];
            for (i, scenario) in scenarios.iter().enumerate() {
                busy[0] += run_scenario(scenario).1;
                let span = tracer.open(i as u64, None, "sim.run");
                busy[1] += run_scenario(scenario).1;
                tracer.close(span);
            }
            busy
        }
    };
    let ratio = traced.as_secs_f64() / untraced.as_secs_f64();
    eprintln!(
        "tracing overhead on {workload}: {ratio:.4}x ({traced:?} traced, {untraced:?} untraced)"
    );
    metrics.put("trace.overhead_ratio", ratio, "ratio");
}

/// The `core` figures of a bare-manager replay: each phase per admitted
/// decision (what an admission costs, phase by phase), the pipeline time
/// of a refusal, and the refusals per phase.
fn core_metrics(stream: &str, pass: &Pass, release_us: f64, metrics: &mut Metrics) {
    let admitted = pass.admitted.max(1) as f64;
    for (i, phase) in PHASES.iter().enumerate() {
        metrics.put(
            format!("core.{stream}.{phase}_us"),
            pass.phase_ns[i] as f64 / admitted / 1e3,
            "us",
        );
    }
    let refused = (pass.decisions - pass.admitted).max(1) as f64;
    metrics.put(format!("core.{stream}.refused_us"), pass.refused_ns as f64 / refused / 1e3, "us");
    metrics.put(format!("core.{stream}.admit_p50_us"), median(&pass.latencies_us), "us");
    metrics.put(format!("core.{stream}.release_us"), release_us, "us");
    for (i, phase) in PHASES.iter().enumerate() {
        metrics.put(format!("core.{stream}.reject.{phase}"), pass.refused[i] as f64, "count");
    }
}

/// `crisp-churn`'s stream through the bare manager and the service in
/// lockstep; the relocation planners on the bare replay's end state.
fn crisp_layers(
    stream: &ChurnStream,
    checks: &mut Checks,
    metrics: &mut Metrics,
    tracer: &mut Tracer,
) {
    let mut t = Some(&mut *tracer);
    let mut lanes = [
        Lane::new(Stack::new(Depth::Bare, topology::crisp(), true), "crisp/kairos", &mut t),
        Lane::new(Stack::new(Depth::Service, topology::crisp(), true), "crisp/service", &mut t),
    ];
    let live = churn_lockstep(&mut lanes, stream, checks, t);
    if let Stack::Bare(kairos) = &lanes[0].stack {
        relocation(kairos, stream, &lanes[0].pass, &live[0], metrics);
    }
    let end = stream.len() as u64;
    for (lane, live) in lanes.iter_mut().zip(live) {
        release_rest(&mut lane.stack, end, live, &mut lane.pass, checks);
    }
    let [bare, service] = &lanes;
    checks.require(service.pass.digest == bare.pass.digest, || {
        "the service decided unlike the bare manager".into()
    });
    core_metrics("crisp", &bare.pass, span_us(tracer, "crisp/kairos", "core.release"), metrics);
    metrics.put("svc.submit_p50_us", median(&service.pass.latencies_us), "us");
    metrics.put("svc.self_us", service.pass.overhead_us() - bare.pass.overhead_us(), "us");
}

/// `reloc`: one compaction sweep on a copy of the end state, and victim
/// plans for refused requests with every live application a candidate.
fn relocation(
    kairos: &kairos_core::Kairos,
    stream: &ChurnStream,
    pass: &Pass,
    live: &[AppId],
    metrics: &mut Metrics,
) {
    let mut copy = kairos.clone();
    let start = Instant::now();
    let report = kairos_reloc::compact(&mut copy, live.len());
    metrics.put("reloc.compact_us", micros(start.elapsed()), "us");
    eprintln!("compaction of the crisp-churn end state moved {} applications", report.move_count());
    let mut candidates = live.to_vec();
    candidates.sort_unstable();
    let mut copy = kairos.clone();
    let refused: Vec<usize> = pass.refused_at.iter().take(PLANNED).map(|&i| i as usize).collect();
    let plan = timed_mean(refused.len(), |i| {
        std::hint::black_box(kairos_reloc::select_victims(
            &mut copy,
            stream.requests.app(refused[i]),
            &candidates,
            4,
        ));
    });
    metrics.put("reloc.plan_us", plan, "us");
}

/// `mesh-fill`'s stream through the bare manager.
fn mesh_layers(apps: &Requests, checks: &mut Checks, metrics: &mut Metrics, tracer: &mut Tracer) {
    let mesh = topology::heterogeneous_mesh(MESH_SIDE, MESH_SIDE);
    let pass = fill_pass(Stack::new(Depth::Bare, mesh, true), apps, checks, Some(&mut *tracer));
    core_metrics("mesh", &pass, span_us(tracer, "mesh", "core.release_all"), metrics);
}

/// `sharded-serve`'s stream flat out through every depth in lockstep,
/// then once at the offered rate for the generator's lag.
fn serve_layers(
    stream: &ServeStream,
    checks: &mut Checks,
    metrics: &mut Metrics,
    tracer: &mut Tracer,
) {
    const DEPTHS: [(Depth, &str); 5] = [
        (Depth::Bare, "serve/kairos"),
        (Depth::Service, "serve/service"),
        (Depth::Cluster(1), "serve/cluster1"),
        (Depth::Cluster(SERVE_SHARDS), "serve/cluster2"),
        (Depth::Gateway(SERVE_SHARDS), "serve/gateway"),
    ];
    let mut t = Some(&mut *tracer);
    let mut lanes: Vec<Lane> = DEPTHS
        .iter()
        .map(|&(depth, label)| Lane::new(Stack::new(depth, topology::crisp(), true), label, &mut t))
        .collect();
    serve_lockstep(&mut lanes, stream, false, checks, t);
    for (lane, (depth, _)) in lanes.iter().zip(DEPTHS) {
        eprintln!(
            "  {:<18} decisions {} digest {:016x}",
            depth.name(),
            lane.pass.decisions,
            lane.pass.digest.value()
        );
    }
    if let Stack::Gateway(gateway) = &lanes[4].stack {
        let stats = gateway.stats();
        metrics.put("gateway.parked", stats.parked as f64, "count");
        metrics.put("gateway.peak_inflight", stats.peak_inflight as f64, "count");
        checks.require(stats.submitted == stats.completions, || {
            format!("gateway: {} submitted, {} completed", stats.submitted, stats.completions)
        });
    }
    let [bare, service, cluster1, cluster2, gateway] = &lanes[..] else {
        unreachable!("five depths")
    };
    let (bare, service, cluster1, cluster2, gateway) =
        (&bare.pass, &service.pass, &cluster1.pass, &cluster2.pass, &gateway.pass);
    checks.require(bare.digest == service.digest && service.digest == cluster1.digest, || {
        "the one-shard stack decided unlike the bare manager".into()
    });
    checks.require(cluster2.digest == gateway.digest, || {
        "the gateway decided unlike its cluster".into()
    });
    metrics.put("svc.serve_self_us", service.overhead_us() - bare.overhead_us(), "us");
    metrics.put("cluster1.submit_p50_us", median(&cluster1.latencies_us), "us");
    metrics.put("cluster2.submit_p50_us", median(&cluster2.latencies_us), "us");
    metrics.put("cluster.self_us", cluster1.overhead_us() - service.overhead_us(), "us");
    metrics.put("cluster.fanout_us", cluster2.overhead_us() - cluster1.overhead_us(), "us");
    metrics.put("gateway.enqueue_us", span_us(tracer, "serve/gateway", "gateway.enqueue"), "us");
    metrics.put("gateway.drive_us", span_us(tracer, "serve/gateway", "gateway.drive"), "us");
    metrics.put("gateway.self_us", gateway.overhead_us() - cluster2.overhead_us(), "us");

    // Pipeline runs per decision, from the cluster's own registry.
    let telemetry = Telemetry::new(TelemetryConfig::default());
    let cluster = ClusterBuilder::new(topology::crisp(), SERVE_SHARDS)
        .deterministic(true)
        .placement(Box::new(LeastLoaded))
        .telemetry(telemetry.clone())
        .build()
        .expect("two shards fit CRISP");
    let (_, pass, _) = serve_pass(Stack::Cluster(cluster), stream, false, checks, None);
    let count = |name: &str| telemetry.counter(name).map_or(0, |c| c.get());
    let runs = count("kairos.core.probes")
        + count("kairos.core.admit.ok")
        + count("kairos.core.admit.fail");
    metrics.put(
        "cluster.pipeline_runs_per_admit",
        runs as f64 / pass.decisions.max(1) as f64,
        "runs",
    );

    let stack = Stack::new(Depth::Gateway(SERVE_SHARDS), topology::crisp(), false);
    let (_, _, lag) = serve_pass(stack, stream, true, checks, None);
    metrics.put("gen.lag_p50_us", median(&lag.lags_us), "us");
    metrics.put("gen.lag_p99_us", percentile(&lag.lags_us, 99.0), "us");
    metrics.put("gen.late_share", late_share(&lag.lags_us), "ratio");
}

/// One pass over the catalog: each report and the time in `run`.
fn catalog_pass(
    scenarios: &[Scenario],
    checks: &mut Checks,
    mut tracer: Option<&mut Tracer>,
) -> (Vec<(SimReport, Duration)>, Duration) {
    let mut busy = Duration::ZERO;
    let runs = scenarios
        .iter()
        .enumerate()
        .map(|(i, scenario)| {
            checks.op();
            let span = tracer.as_mut().map(|t| t.open(i as u64, None, "sim.run"));
            let (report, spent, _) = run_scenario(scenario);
            if let (Some(t), Some(span)) = (tracer.as_mut(), span) {
                t.close(span);
            }
            checks.report(&report);
            busy += spent;
            (report, spent)
        })
        .collect();
    (runs, busy)
}

/// `sim`, `admitd`, `reloc` and `opcache` from the catalog reports; the
/// observers and the cache from their knob-cleared twins.
fn catalog_layers(
    scenarios: &[Scenario],
    checks: &mut Checks,
    metrics: &mut Metrics,
    tracer: &mut Tracer,
) {
    tracer.replay("catalog");
    let (runs, _) = catalog_pass(scenarios, checks, Some(tracer));
    let (mut events, mut after_wait, mut max_depth, mut timeouts) = (0, 0, 0, 0);
    let (mut preemptions, mut migrations, mut defrag_moves) = (0, 0, 0);
    let (mut hits, mut lookups, mut invalidations) = (0, 0, 0);
    for (report, spent) in &runs {
        metrics.put(format!("sim.{}_ms", report.scenario), spent.as_secs_f64() * 1e3, "ms");
        let t = &report.totals;
        events +=
            t.arrivals + t.departures + t.faults_injected + t.repairs + report.samples.len() as u64;
        after_wait += report.queue.admitted_after_wait;
        max_depth = max_depth.max(report.queue.max_depth);
        timeouts += report.queue.dropped_timeout;
        preemptions += t.preemptions;
        migrations += t.migrations;
        defrag_moves += t.defrag_moves;
        if let Some(cache) = &report.cache {
            hits += cache.hits;
            lookups += cache.hits + cache.misses;
            invalidations += cache.invalidations;
        }
    }
    metrics.put("sim.events", events as f64, "count");
    metrics.put("admitd.admitted_after_wait", after_wait as f64, "count");
    metrics.put("admitd.max_depth", max_depth as f64, "count");
    metrics.put("admitd.timeouts", timeouts as f64, "count");
    metrics.put("reloc.preemptions", preemptions as f64, "count");
    metrics.put("reloc.migrations", migrations as f64, "count");
    metrics.put("reloc.defrag_moves", defrag_moves as f64, "count");
    metrics.put("opcache.hit_ratio", hits as f64 / lookups.max(1) as f64, "ratio");
    metrics.put("opcache.invalidations", invalidations as f64, "count");

    let twin = |name: &str, clear: fn(&mut Scenario), checks: &mut Checks| -> f64 {
        let on = scenarios.iter().find(|s| s.name == name).expect("catalog scenario").clone();
        let mut off = on.clone();
        clear(&mut off);
        let (mut on_ms, mut off_ms) = (Vec::new(), Vec::new());
        for _ in 0..TWIN_RUNS {
            let (with, with_spent, _) = run_scenario(&on);
            let (without, without_spent, _) = run_scenario(&off);
            checks.op();
            checks.require(
                with.totals == without.totals
                    && with.rejections_by_phase == without.rejections_by_phase,
                || format!("{name}: clearing the knob changed the decisions"),
            );
            on_ms.push(with_spent.as_secs_f64() * 1e3);
            off_ms.push(without_spent.as_secs_f64() * 1e3);
        }
        median(&on_ms) - median(&off_ms)
    };
    let telemetry = twin("telemetry-probe-latency", |s| s.telemetry = false, checks);
    metrics.put("telemetry.self_ms", telemetry, "ms");
    let trace = twin("traced-preemption-storm", |s| s.trace = false, checks);
    metrics.put("trace.self_ms", trace, "ms");
    let watch = twin("slo-burn-storm", |s| s.watch = None, checks);
    metrics.put("watch.self_ms", watch, "ms");
    let gateway = twin("gateway-arrival-storm", |s| s.gateway = None, checks);
    metrics.put("gateway.catalog_self_ms", gateway, "ms");
    let cache = twin("cache-warm-storm", |s| s.cache = false, checks);
    metrics.put("opcache.saved_ms", -cache, "ms");
}
