//! Gateway serving throughput — monolithic versus sync-cluster versus
//! gateway-wave cluster admission.
//!
//! The `kairos-gateway` front-end accepts admissions into bounded lanes
//! and forwards them from its ticket-ordered scheduler, so a storm
//! streamed through it flushes in *waves*: each enqueue-then-drive pass
//! coalesces its contiguous single admissions into one batched
//! submission, and the cluster underneath places that wave with one
//! parallel per-shard probe fan-out — one fan-out coordination per wave
//! instead of one per request. That is the serving claim this bench
//! pins, twice:
//!
//! * **Work** (deterministic): the coalesced path makes one
//!   `kairos.cluster.probe.waves` fan-out per wave, the synchronous path
//!   one per request.
//! * **Wall clock**: over paired trials that alternate which path runs
//!   first, the median gateway-wave rate must be at least the median
//!   synchronous rate (multi-core hosts must pass it strictly, a
//!   single-core host gets a scheduling-noise tolerance). The IQR of
//!   every path is printed alongside.

use std::time::Instant;

use kairos_admitd::PriorityClass;
use kairos_app::Application;
use kairos_appgen::{DatasetSpec, MixEntry, Orientation, SizeClass, WorkloadMix, WorkloadSampler};
use kairos_bench::{median_iqr, print_table};
use kairos_cluster::{ClusterBuilder, ClusterService, LeastLoaded};
use kairos_gateway::{Gateway, GatewayConfig};
use kairos_platform::topology;
use kairos_svc::{Request, ResourceService, ServiceBuilder};
use kairos_telemetry::{Telemetry, TelemetryConfig};

const APPS: usize = 48;
const SHARDS: usize = 3;
const WAVE: usize = 8;
/// Paired trials; even and odd trials swap which gated path runs first.
const TRIALS: usize = 12;

/// Mostly small applications with a medium tail — the storm fits tens of
/// admissions onto CRISP, so every path does real placement work.
fn storm_mix() -> WorkloadMix {
    let spec = |orientation, size| DatasetSpec { orientation, size };
    WorkloadMix::new(vec![
        MixEntry::new(spec(Orientation::Computation, SizeClass::Small), 4),
        MixEntry::new(spec(Orientation::Communication, SizeClass::Small), 3),
        MixEntry::new(spec(Orientation::Computation, SizeClass::Medium), 1),
    ])
}

fn storm(n: usize, seed: u64) -> Vec<Application> {
    let mut sampler = WorkloadSampler::new("gateway-bench", storm_mix(), seed);
    (0..n).map(|_| sampler.next_app()).collect()
}

fn cluster(telemetry: Telemetry) -> ClusterService {
    ClusterBuilder::new(topology::crisp(), SHARDS)
        .deterministic(true)
        .placement(Box::new(LeastLoaded))
        .telemetry(telemetry)
        .build()
        .expect("shard counts fit CRISP")
}

fn requests(apps: &[Application]) -> Vec<Request> {
    apps.iter()
        .enumerate()
        .map(|(i, app)| Request::admit(i as u64, app.clone(), PriorityClass::Normal))
        .collect()
}

/// Synchronous baseline: one `submit` per request, sequential probes all
/// the way down. Returns the wall time in µs and the admitted count.
fn sync_run(mut service: Box<dyn ResourceService + Send>, apps: &[Application]) -> (f64, usize) {
    let wave = requests(apps);
    let start = Instant::now();
    for request in wave {
        service.submit(request);
    }
    let micros = start.elapsed().as_secs_f64() * 1e6;
    (micros, service.occupancy().admitted_apps)
}

/// Gateway path: the storm streamed through the lanes in waves of
/// [`WAVE`] — enqueue a wave, `drive` once — with coalescing merging
/// each wave into one batched submission the cluster places with a
/// single parallel per-shard probe fan-out.
fn gateway_run(mut gateway: Gateway, apps: &[Application]) -> (f64, usize) {
    let mut waves = requests(apps).into_iter().peekable();
    let start = Instant::now();
    while waves.peek().is_some() {
        for request in waves.by_ref().take(WAVE) {
            gateway.enqueue(request);
        }
        gateway.drive();
    }
    let micros = start.elapsed().as_secs_f64() * 1e6;
    (micros, gateway.occupancy().admitted_apps)
}

fn coalescing(inner: ClusterService) -> Gateway {
    Gateway::new(Box::new(inner), GatewayConfig { coalesce: true, ..GatewayConfig::default() })
}

/// `kairos.cluster.probe.waves` after a lit run of each gated path.
fn probe_waves(apps: &[Application]) -> (u64, u64) {
    let waves = |telemetry: &Telemetry| {
        telemetry.counter("kairos.cluster.probe.waves").map_or(0, |c| c.get())
    };
    let lit = || Telemetry::new(TelemetryConfig::default());
    let (sync_hub, wave_hub) = (lit(), lit());
    sync_run(Box::new(cluster(sync_hub.clone())), apps);
    gateway_run(coalescing(cluster(wave_hub.clone())), apps);
    (waves(&sync_hub), waves(&wave_hub))
}

fn main() {
    let apps = storm(APPS, 0x6A7E);

    let (sync_waves, gateway_waves) = probe_waves(&apps);
    let expected = APPS.div_ceil(WAVE) as u64;
    assert_eq!(sync_waves, APPS as u64, "the sync cluster probes once per request");
    assert_eq!(
        gateway_waves, expected,
        "the coalesced gateway must probe once per {WAVE}-request wave"
    );

    let rate = |(micros, admitted): (f64, usize)| admitted as f64 / (micros / 1e6);
    let (mut mono, mut sync, mut gateway) = (Vec::new(), Vec::new(), Vec::new());
    let mut admitted = [0usize; 3];
    for trial in 0..TRIALS {
        let monolith = ServiceBuilder::new(topology::crisp()).deterministic(true).build().unwrap();
        let run = sync_run(Box::new(monolith), &apps);
        admitted[0] = run.1;
        mono.push(rate(run));
        let sync_service = Box::new(cluster(Telemetry::disabled()));
        let gateway_service = coalescing(cluster(Telemetry::disabled()));
        let (s, g) = if trial % 2 == 0 {
            let s = sync_run(sync_service, &apps);
            (s, gateway_run(gateway_service, &apps))
        } else {
            let g = gateway_run(gateway_service, &apps);
            (sync_run(sync_service, &apps), g)
        };
        (admitted[1], admitted[2]) = (s.1, g.1);
        sync.push(rate(s));
        gateway.push(rate(g));
    }

    let paths = [
        ("monolith (sync)".to_owned(), median_iqr(mono), admitted[0]),
        (format!("cluster x{SHARDS} (sync)"), median_iqr(sync), admitted[1]),
        (format!("cluster x{SHARDS} (gateway, waves of {WAVE})"), median_iqr(gateway), admitted[2]),
    ];
    let rows: Vec<Vec<String>> = paths
        .iter()
        .map(|(path, (median, iqr), admitted)| {
            vec![path.clone(), format!("{median:.0}"), format!("{iqr:.0}"), admitted.to_string()]
        })
        .collect();
    print_table(
        &format!("storm of {APPS} admissions, {TRIALS} paired trials: serving throughput"),
        &["path", "median admissions/s", "IQR", "admitted"],
        &rows,
    );

    // With ≥2 cores the coalesced wave's parallel probe fan-out must beat
    // sequential per-request probing outright; a single-core host
    // serialises the shard workers, so only a noise tolerance applies.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let tolerance = if cores > 1 { 1.0 } else { 1.15 };
    let (sync_rate, gateway_rate) = (paths[1].1 .0, paths[2].1 .0);
    assert!(
        gateway_rate * tolerance >= sync_rate,
        "the gateway wave path must not admit slower than the sync cluster \
         (median {gateway_rate:.0}/s vs {sync_rate:.0}/s on {cores} core(s))"
    );
    println!(
        "OK ({cores} core(s)): {gateway_waves} probe waves vs {sync_waves}; gateway median \
         {gateway_rate:.0} admissions/s vs sync cluster {sync_rate:.0}/s ({:.2}x)",
        gateway_rate / sync_rate
    );
}
