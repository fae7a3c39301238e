//! Seeded inputs. Everything a workload feeds the program is generated
//! here, before any timing starts, from the run seed alone: the program
//! only ever receives these `Application`s and the requests built from
//! them.

use std::sync::Arc;

use kairos_app::Application;
use kairos_appgen::{DatasetSpec, MixEntry, Orientation, SizeClass, WorkloadMix, WorkloadSampler};
use kairos_sim::Scenario;

use crate::stats::stream_seed;

// Each stream is long enough that its statistics barely depend on the
// seed: the benchmark's spread is measured across seeds.

/// Decisions in one `crisp-churn` pass.
pub const CRISP_DECISIONS: usize = 30_000;
/// Mean lifetime of a `crisp-churn` admission, in decisions. Long enough
/// that the platform stays saturated and most requests are refused.
pub const CRISP_MEAN_LIFE: u64 = 25;
/// Decisions in one `mesh-fill` pass.
pub const MESH_DECISIONS: usize = 6_000;
/// Consecutive refusals after which `mesh-fill` empties the mesh.
pub const MESH_REFUSAL_RUN: usize = 8;
/// Side of the `mesh-fill` heterogeneous mesh.
pub const MESH_SIDE: usize = 16;
/// Admission requests in one `sharded-serve` pass.
pub const SERVE_REQUESTS: usize = 6_000;
/// Offered `sharded-serve` rate, requests per second (about a quarter of
/// the flat-out rate of the two-shard gateway stack on a 2-core host).
pub const SERVE_RATE: u64 = 500;
/// Mean `sharded-serve` lifetime, in microseconds of schedule time.
pub const SERVE_MEAN_LIFE_US: u64 = 40_000;
/// Shards behind the `sharded-serve` gateway.
pub const SERVE_SHARDS: usize = 2;
/// Distinct applications a stream's requests draw from; reusing them
/// keeps the inputs' memory small.
pub const POOL: usize = 4_000;

/// A sequence of admission requests over a pool of applications.
#[derive(Debug, Clone)]
pub struct Requests {
    pool: Arc<[Application]>,
    /// The application of each request, as an index into `pool`.
    picks: Vec<u32>,
}

impl Requests {
    fn draw(label: &str, mix: WorkloadMix, seed: u64, requests: usize) -> Requests {
        let mut sampler = WorkloadSampler::new(label, mix, stream_seed(seed, 1));
        let pool: Arc<[Application]> =
            (0..POOL.min(requests)).map(|_| sampler.next_app()).collect();
        let picks_seed = stream_seed(seed, 2);
        let picks = (0..requests)
            .map(|i| (stream_seed(picks_seed, i as u64) % pool.len() as u64) as u32)
            .collect();
        Requests { pool, picks }
    }

    pub fn len(&self) -> usize {
        self.picks.len()
    }

    pub fn app(&self, request: usize) -> &Application {
        &self.pool[self.picks[request] as usize]
    }

    pub fn pool(&self) -> &[Application] {
        &self.pool
    }

    /// The first `n` requests.
    pub fn prefix(&self, n: usize) -> Requests {
        Requests { pool: Arc::clone(&self.pool), picks: self.picks[..n.min(self.len())].to_vec() }
    }
}

/// A closed-loop admission stream with lifetimes counted in decisions.
#[derive(Debug, Clone)]
pub struct ChurnStream {
    pub requests: Requests,
    /// Decisions an admitted application stays for.
    pub lifetimes: Vec<usize>,
}

impl ChurnStream {
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// The first `n` decisions.
    pub fn prefix(&self, n: usize) -> ChurnStream {
        let requests = self.requests.prefix(n);
        let lifetimes = self.lifetimes[..requests.len()].to_vec();
        ChurnStream { requests, lifetimes }
    }
}

/// One scheduled operation of the open-loop stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ServeOp {
    /// Release of request `app` (skipped when it was refused).
    Release {
        at: u64,
        app: usize,
    },
    Admit {
        at: u64,
        app: usize,
    },
}

impl ServeOp {
    pub fn at(self) -> u64 {
        match self {
            ServeOp::Release { at, .. } | ServeOp::Admit { at, .. } => at,
        }
    }
}

/// The open-loop stream: requests plus a time-ordered schedule of their
/// admissions and releases, in microseconds from the start of a pass.
#[derive(Debug, Clone)]
pub struct ServeStream {
    pub requests: Requests,
    pub ops: Vec<ServeOp>,
}

fn spec(orientation: Orientation, size: SizeClass) -> DatasetSpec {
    DatasetSpec { orientation, size }
}

/// All six Table I dataset classes, uniformly, lifetimes in decisions.
pub fn crisp_churn(seed: u64) -> ChurnStream {
    let seed = stream_seed(seed, 10);
    let requests =
        Requests::draw("crisp-churn", WorkloadMix::all_datasets(), seed, CRISP_DECISIONS);
    let mut lifetimes =
        WorkloadSampler::new("lifetimes", WorkloadMix::all_datasets(), stream_seed(seed, 3));
    let lifetimes =
        (0..CRISP_DECISIONS).map(|_| lifetimes.next_delay(CRISP_MEAN_LIFE) as usize).collect();
    ChurnStream { requests, lifetimes }
}

/// The small and medium dataset classes for the cold fill of the mesh:
/// large applications would make the mesh's latency tail, and so the
/// run-to-run spread, depend on the few of them a seed draws.
pub fn mesh_fill(seed: u64) -> Requests {
    let mix =
        WorkloadMix::uniform(DatasetSpec::all().into_iter().filter(|s| s.size != SizeClass::Large));
    Requests::draw("mesh-fill", mix, stream_seed(seed, 20), MESH_DECISIONS)
}

/// Mostly small applications with a medium tail (the storm mix of the
/// gateway bench), Poisson arrivals at [`SERVE_RATE`] and exponential
/// lifetimes.
pub fn sharded_serve(seed: u64, count: usize) -> ServeStream {
    let mix = WorkloadMix::new(vec![
        MixEntry::new(spec(Orientation::Computation, SizeClass::Small), 4),
        MixEntry::new(spec(Orientation::Communication, SizeClass::Small), 3),
        MixEntry::new(spec(Orientation::Computation, SizeClass::Medium), 1),
    ]);
    let seed = stream_seed(seed, 30);
    let requests = Requests::draw("sharded-serve", mix.clone(), seed, count);
    let mut times = WorkloadSampler::new("schedule", mix, stream_seed(seed, 3));
    let gap = 1_000_000 / SERVE_RATE;
    let mut ops = Vec::with_capacity(2 * count);
    let mut at = 0;
    for app in 0..count {
        at += times.next_delay(gap);
        ops.push(ServeOp::Admit { at, app });
        ops.push(ServeOp::Release { at: at + times.next_delay(SERVE_MEAN_LIFE_US), app });
    }
    // By time; at equal times releases first, then by request.
    ops.sort_by_key(|&op| (op.at(), op));
    ServeStream { requests, ops }
}

/// The scenario catalog in an order drawn from the run seed. The
/// scenarios keep their own seeds: their reports are the behaviour oracle,
/// and re-seeding them moves a scenario's cost by up to half between run
/// seeds.
pub fn catalog(seed: u64) -> Vec<Scenario> {
    let mut scenarios = Scenario::catalog();
    let mut state = stream_seed(seed, 4);
    for i in (1..scenarios.len()).rev() {
        state = stream_seed(state, i as u64);
        scenarios.swap(i, (state % (i as u64 + 1)) as usize);
    }
    scenarios
}
