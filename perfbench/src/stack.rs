//! The stacks a request stream can be replayed through, from the bare
//! pipeline to the gateway, and the passes that drive them.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use kairos_admitd::PriorityClass;
use kairos_app::Application;
use kairos_cluster::{ClusterBuilder, ClusterService, LeastLoaded, ProbeExecutor};
use kairos_core::{Kairos, KairosConfig, OccupancySnapshot};
use kairos_gateway::{Gateway, GatewayConfig};
use kairos_platform::{AppId, Platform};
use kairos_svc::{KairosService, Request, ResourceService, ServiceBuilder};

use crate::checks::Checks;
use crate::inputs::{ChurnStream, Requests, ServeOp, ServeStream, MESH_REFUSAL_RUN};
use crate::pass::{call, end, outcome, phase_spans, root, Outcome, Pass};
use crate::stats::micros;
use crate::trace::{SpanId, Tracer};

/// Span request ids of releases start here, apart from admissions'.
const RELEASES: u64 = 1 << 32;

/// How deep a stream enters the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Depth {
    /// `Kairos` itself.
    Bare,
    /// `KairosService` over a direct manager.
    Service,
    /// `ClusterService` with this many shards (least-loaded placement,
    /// pooled probes).
    Cluster(usize),
    /// The default-configured `Gateway` over a cluster of this many shards.
    Gateway(usize),
}

impl Depth {
    pub fn name(self) -> String {
        match self {
            Depth::Bare => "kairos".into(),
            Depth::Service => "service".into(),
            Depth::Cluster(s) => format!("cluster{s}"),
            Depth::Gateway(s) => format!("gateway/cluster{s}"),
        }
    }
}

/// A handful of stacks live per run, so the variant size difference is
/// irrelevant.
#[allow(clippy::large_enum_variant)]
pub enum Stack {
    Bare(Kairos),
    Service(KairosService),
    Cluster(ClusterService),
    Gateway(Gateway),
}

fn cluster(platform: Platform, shards: usize, wall_clock: bool) -> ClusterService {
    ClusterBuilder::new(platform, shards)
        .deterministic(!wall_clock)
        .placement(Box::new(LeastLoaded))
        .probe_executor(ProbeExecutor::Pooled)
        .build()
        .expect("the shard count fits the platform")
}

impl Stack {
    /// A fresh stack over `platform`. `wall_clock` runs the pipeline on the
    /// wall phase clock, so admission reports carry real phase timings;
    /// it changes no decision.
    pub fn new(depth: Depth, platform: Platform, wall_clock: bool) -> Stack {
        match depth {
            Depth::Bare => Stack::Bare(Kairos::new(
                platform,
                KairosConfig { deterministic: !wall_clock, ..KairosConfig::default() },
            )),
            Depth::Service => Stack::Service(
                ServiceBuilder::new(platform)
                    .deterministic(!wall_clock)
                    .build()
                    .expect("default service configuration"),
            ),
            Depth::Cluster(shards) => Stack::Cluster(cluster(platform, shards, wall_clock)),
            Depth::Gateway(shards) => Stack::Gateway(Gateway::new(
                Box::new(cluster(platform, shards, wall_clock)),
                GatewayConfig::default(),
            )),
        }
    }

    /// Decides one admission, recording it in `pass`. Returns the admitted
    /// id and the time spent in calls into the program. When tracing, the
    /// pipeline's phase timings become child spans of the call that ran
    /// the pipeline.
    pub fn admit(
        &mut self,
        at: u64,
        app: &Application,
        pass: &mut Pass,
        checks: &mut Checks,
        tracer: &mut Option<&mut Tracer>,
    ) -> (Option<AppId>, Duration) {
        checks.op();
        let request_id = pass.decisions;
        let span = root(tracer, request_id);
        let (decided, spent, work) = match self {
            Stack::Bare(kairos) => {
                let (result, spent, work) =
                    call(&mut pass.busy, tracer, request_id, span, "core.admit", || {
                        kairos.admit(app)
                    });
                let decided = match result {
                    Ok(report) => Outcome::Admitted(Box::new(report)),
                    Err(failure) => {
                        phase_spans(tracer, work, &failure.timings);
                        pass.refused_ns += failure.timings.total().as_nanos() as u64;
                        Outcome::Refused(failure.phase())
                    }
                };
                (Some(decided), spent, work)
            }
            Stack::Service(service) => {
                let names = ("svc.submit", "svc.take_events");
                serve_admit(
                    service,
                    names,
                    at,
                    app,
                    &mut pass.busy,
                    checks,
                    tracer,
                    request_id,
                    span,
                )
            }
            Stack::Cluster(service) => {
                let names = ("cluster.submit", "cluster.take_events");
                serve_admit(
                    service,
                    names,
                    at,
                    app,
                    &mut pass.busy,
                    checks,
                    tracer,
                    request_id,
                    span,
                )
            }
            Stack::Gateway(gateway) => {
                let busy = &mut pass.busy;
                let request = Request::admit(at, app.clone(), PriorityClass::Normal);
                let (ticket, a, _) =
                    call(busy, tracer, request_id, span, "gateway.enqueue", || {
                        gateway.enqueue(request)
                    });
                let ((), b, work) =
                    call(busy, tracer, request_id, span, "gateway.drive", || gateway.drive());
                let (events, c, _) =
                    call(busy, tracer, request_id, span, "gateway.take_events", || {
                        gateway.take_events()
                    });
                (outcome(events, ticket, checks), a + b + c, work)
            }
        };
        end(tracer, span);
        let id = match decided {
            Some(Outcome::Admitted(report)) => {
                phase_spans(tracer, work, &report.timings);
                pass.admitted_timings(&report.timings, spent);
                pass.admitted(&report);
                Some(report.app_id)
            }
            Some(Outcome::Refused(phase)) => {
                pass.refused(phase);
                None
            }
            None => None,
        };
        (id, spent)
    }

    /// Releases `id`, checking that it was admitted.
    pub fn release(
        &mut self,
        at: u64,
        id: AppId,
        busy: &mut Duration,
        checks: &mut Checks,
        tracer: &mut Option<&mut Tracer>,
        request_id: u64,
    ) -> Duration {
        checks.op();
        let span = root(tracer, request_id);
        let (found, spent) = match self {
            Stack::Bare(kairos) => {
                let (found, spent, _) =
                    call(busy, tracer, request_id, span, "core.release", || kairos.release(id));
                (found, spent)
            }
            Stack::Service(s) => {
                serve_release(s, "svc.submit", at, id, busy, tracer, request_id, span)
            }
            Stack::Cluster(s) => {
                serve_release(s, "cluster.submit", at, id, busy, tracer, request_id, span)
            }
            Stack::Gateway(gateway) => {
                let request = Request::release(at, id);
                let (ticket, a, _) =
                    call(busy, tracer, request_id, span, "gateway.enqueue", || {
                        gateway.enqueue(request)
                    });
                let ((), b, _) =
                    call(busy, tracer, request_id, span, "gateway.drive", || gateway.drive());
                let events = gateway.take_events();
                let found = events.iter().any(
                    |e| matches!(e, kairos_svc::Event::Released { ticket: t, found: true, .. } if *t == ticket),
                );
                (found, a + b)
            }
        };
        end(tracer, span);
        checks.require(found, || format!("release of {id} found nothing"));
        spent
    }

    pub fn occupancy(&self) -> OccupancySnapshot {
        match self {
            Stack::Bare(kairos) => kairos.occupancy(),
            Stack::Service(s) => s.occupancy(),
            Stack::Cluster(s) => s.occupancy(),
            Stack::Gateway(g) => g.occupancy(),
        }
    }

    /// Checks every ledger the stack exposes, plus the utilisation shares.
    pub fn check_state(&self, checks: &mut Checks) {
        match self {
            Stack::Bare(kairos) => checks.ledger(kairos.platform()),
            Stack::Service(s) => checks.ledger(s.kairos().platform()),
            Stack::Cluster(c) => {
                for shard in 0..c.shard_count() {
                    checks.ledger(c.shard(shard).kairos().platform());
                }
            }
            // The gateway owns its cluster; only the aggregate is visible.
            Stack::Gateway(_) => {}
        }
        let o = self.occupancy();
        checks.utilisation(o.element_utilisation, o.resource_utilisation);
    }

    /// Checks that nothing is left on the platform.
    pub fn check_empty(&self, checks: &mut Checks, what: &str) {
        let o = self.occupancy();
        checks.require(o.admitted_apps == 0 && o.resource_utilisation == 0.0, || {
            format!(
                "{what}: {} applications left, {} of the resources claimed",
                o.admitted_apps, o.resource_utilisation
            )
        });
        self.check_state(checks);
    }
}

#[allow(clippy::too_many_arguments)]
fn serve_admit(
    service: &mut dyn ResourceService,
    (submit, take): (&'static str, &'static str),
    at: u64,
    app: &Application,
    busy: &mut Duration,
    checks: &mut Checks,
    tracer: &mut Option<&mut Tracer>,
    request_id: u64,
    span: Option<SpanId>,
) -> (Option<Outcome>, Duration, Option<SpanId>) {
    let request = Request::admit(at, app.clone(), PriorityClass::Normal);
    let (ticket, a, work) =
        call(busy, tracer, request_id, span, submit, || service.submit(request));
    let (events, b, _) = call(busy, tracer, request_id, span, take, || service.take_events());
    (outcome(events, ticket, checks), a + b, work)
}

#[allow(clippy::too_many_arguments)]
fn serve_release(
    service: &mut dyn ResourceService,
    submit: &'static str,
    at: u64,
    id: AppId,
    busy: &mut Duration,
    tracer: &mut Option<&mut Tracer>,
    request_id: u64,
    span: Option<SpanId>,
) -> (bool, Duration) {
    let request = Request::release(at, id);
    let (ticket, spent, _) =
        call(busy, tracer, request_id, span, submit, || service.submit(request));
    let found = service.take_events().iter().any(
        |e| matches!(e, kairos_svc::Event::Released { ticket: t, found: true, .. } if *t == ticket),
    );
    (found, spent)
}

/// One stack of a lockstep replay and what it measured.
pub struct Lane {
    pub stack: Stack,
    pub pass: Pass,
    /// The tracer replay its spans go to; `None` leaves the lane untraced.
    replay: Option<u64>,
    releases: u64,
}

impl Lane {
    /// A lane traced under `label` when there is a tracer.
    pub fn new(stack: Stack, label: &'static str, tracer: &mut Option<&mut Tracer>) -> Lane {
        let replay = tracer.as_mut().map(|t| t.replay(label));
        Lane { stack, pass: Pass::default(), replay, releases: 0 }
    }

    /// A lane that records no spans even beside traced ones.
    pub fn untraced(stack: Stack) -> Lane {
        Lane { stack, pass: Pass::default(), replay: None, releases: 0 }
    }

    /// The tracer for this lane's calls, entered in its replay.
    fn tracer<'a>(&self, tracer: &'a mut Option<&mut Tracer>) -> Option<&'a mut Tracer> {
        let replay = self.replay?;
        let t = tracer.as_deref_mut()?;
        t.enter(replay);
        Some(t)
    }

    fn admit(
        &mut self,
        at: u64,
        app: &Application,
        checks: &mut Checks,
        tracer: &mut Option<&mut Tracer>,
    ) -> Option<AppId> {
        let mut tracer = self.tracer(tracer);
        let (id, spent) = self.stack.admit(at, app, &mut self.pass, checks, &mut tracer);
        self.pass.latency(spent);
        id
    }

    fn release(
        &mut self,
        at: u64,
        id: AppId,
        checks: &mut Checks,
        tracer: &mut Option<&mut Tracer>,
    ) {
        let mut tracer = self.tracer(tracer);
        self.releases += 1;
        self.stack.release(
            at,
            id,
            &mut self.pass.busy,
            checks,
            &mut tracer,
            RELEASES + self.releases,
        );
    }

    /// Fragmentation after a decision, and the ledger checks.
    fn observe(&mut self, checks: &mut Checks) {
        self.pass.fragmentation(self.stack.occupancy().external_fragmentation);
        self.stack.check_state(checks);
    }
}

/// The lane order for step `i`: each step starts one lane later, so no
/// lane always runs on caches its predecessor warmed with the same input.
fn rotation(i: usize, lanes: usize) -> impl Iterator<Item = usize> {
    (0..lanes).map(move |k| (i + k) % lanes)
}

/// Replays a churn stream through every lane in lockstep, decision by
/// decision, so a slow spell of the host hits every depth alike. Before
/// decision `i`, every admission whose lifetime ends at `i` is released.
/// Returns the applications each lane still holds at the end.
pub fn churn_lockstep(
    lanes: &mut [Lane],
    stream: &ChurnStream,
    checks: &mut Checks,
    mut tracer: Option<&mut Tracer>,
) -> Vec<Vec<AppId>> {
    let mut expiry: Vec<BTreeMap<usize, Vec<AppId>>> = vec![BTreeMap::new(); lanes.len()];
    for i in 0..stream.len() {
        for j in rotation(i, lanes.len()) {
            let (lane, expiry) = (&mut lanes[j], &mut expiry[j]);
            for id in expiry.remove(&i).unwrap_or_default() {
                lane.release(i as u64, id, checks, &mut tracer);
            }
            if let Some(id) = lane.admit(i as u64, stream.requests.app(i), checks, &mut tracer) {
                expiry.entry(i + stream.lifetimes[i].max(1)).or_default().push(id);
            }
            lane.observe(checks);
        }
    }
    expiry.into_iter().map(|e| e.into_values().flatten().collect()).collect()
}

/// [`churn_lockstep`] on a single stack.
pub fn churn_pass(
    stack: Stack,
    stream: &ChurnStream,
    checks: &mut Checks,
    mut tracer: Option<&mut Tracer>,
) -> (Stack, Pass, Vec<AppId>) {
    let mut lanes = [Lane::new(stack, "pass", &mut tracer)];
    let live = churn_lockstep(&mut lanes, stream, checks, tracer).pop().expect("one lane");
    let [lane] = lanes;
    (lane.stack, lane.pass, live)
}

/// Releases `live`, which must leave the platform empty.
pub fn release_rest(
    stack: &mut Stack,
    at: u64,
    live: Vec<AppId>,
    pass: &mut Pass,
    checks: &mut Checks,
) {
    let mut tracer = None;
    for (n, id) in live.into_iter().enumerate() {
        stack.release(at, id, &mut pass.busy, checks, &mut tracer, RELEASES + n as u64);
    }
    stack.check_empty(checks, "after releasing everything");
}

/// The mesh cold fill through every lane in lockstep: admit until
/// [`MESH_REFUSAL_RUN`] consecutive refusals, then `release_all`. The lanes
/// decide alike, so they empty the mesh together.
pub fn fill_lockstep(
    lanes: &mut [Lane],
    apps: &Requests,
    checks: &mut Checks,
    mut tracer: Option<&mut Tracer>,
) {
    let mut runs = vec![0; lanes.len()];
    for i in 0..apps.len() {
        let app = apps.app(i);
        for j in rotation(i, lanes.len()) {
            let (lane, run) = (&mut lanes[j], &mut runs[j]);
            let admitted = lane.admit(i as u64, app, checks, &mut tracer).is_some();
            *run = if admitted { 0 } else { *run + 1 };
            lane.observe(checks);
            if *run == MESH_REFUSAL_RUN || i + 1 == apps.len() {
                *run = 0;
                let mut tracer = lane.tracer(&mut tracer);
                release_all(&mut lane.stack, &mut lane.pass, checks, &mut tracer);
            }
        }
    }
}

/// [`fill_lockstep`] on a single stack.
pub fn fill_pass(
    stack: Stack,
    apps: &Requests,
    checks: &mut Checks,
    mut tracer: Option<&mut Tracer>,
) -> Pass {
    let mut lanes = [Lane::new(stack, "mesh", &mut tracer)];
    fill_lockstep(&mut lanes, apps, checks, tracer);
    let [lane] = lanes;
    lane.pass
}

fn release_all(
    stack: &mut Stack,
    pass: &mut Pass,
    checks: &mut Checks,
    tracer: &mut Option<&mut Tracer>,
) {
    let Stack::Bare(kairos) = stack else { unreachable!("the mesh fill runs on the bare manager") };
    checks.op();
    let span = root(tracer, RELEASES + pass.decisions);
    call(&mut pass.busy, tracer, RELEASES + pass.decisions, span, "core.release_all", || {
        kairos.release_all()
    });
    end(tracer, span);
    stack.check_empty(checks, "after release_all");
}

/// What an open-loop pass adds to a [`Pass`]: how late each request
/// started against its due time.
#[derive(Debug, Default)]
pub struct Lag {
    pub lags_us: Vec<f64>,
}

/// Replays the scheduled stream. With one lane and `paced`, each operation
/// waits for its due time (open loop, latency counted from the due time);
/// otherwise the operations run back to back through every lane in
/// lockstep (closed loop, latency is the call time). Virtual time is the
/// schedule, never the wall clock, so the decisions are the same either
/// way.
pub fn serve_lockstep(
    lanes: &mut [Lane],
    stream: &ServeStream,
    paced: bool,
    checks: &mut Checks,
    mut tracer: Option<&mut Tracer>,
) -> Lag {
    assert!(!paced || lanes.len() == 1, "an open loop drives one stack");
    let mut lag = Lag::default();
    let mut admitted: Vec<Vec<Option<AppId>>> =
        vec![vec![None; stream.requests.len()]; lanes.len()];
    let start = Instant::now();
    for (i, &op) in stream.ops.iter().enumerate() {
        let due = Duration::from_micros(op.at());
        if paced {
            wait_until(start, due);
            lag.lags_us.push(micros(start.elapsed().saturating_sub(due)));
        }
        for j in rotation(i, lanes.len()) {
            let (lane, admitted) = (&mut lanes[j], &mut admitted[j]);
            match op {
                ServeOp::Admit { at, app } => {
                    let mut traced = lane.tracer(&mut tracer);
                    let (id, spent) = lane.stack.admit(
                        at,
                        stream.requests.app(app),
                        &mut lane.pass,
                        checks,
                        &mut traced,
                    );
                    admitted[app] = id;
                    lane.pass.latency(if paced {
                        start.elapsed().saturating_sub(due)
                    } else {
                        spent
                    });
                    if !paced {
                        lane.observe(checks);
                    }
                }
                ServeOp::Release { at, app } => {
                    if let Some(id) = admitted[app].take() {
                        lane.release(at, id, checks, &mut tracer);
                    }
                }
            }
        }
    }
    for lane in lanes.iter() {
        lane.stack.check_empty(checks, "after every lifetime ended");
    }
    lag
}

/// [`serve_lockstep`] on a single stack.
pub fn serve_pass(
    stack: Stack,
    stream: &ServeStream,
    paced: bool,
    checks: &mut Checks,
    mut tracer: Option<&mut Tracer>,
) -> (Stack, Pass, Lag) {
    let mut lanes = [Lane::new(stack, "pass", &mut tracer)];
    let lag = serve_lockstep(&mut lanes, stream, paced, checks, tracer);
    let [lane] = lanes;
    (lane.stack, lane.pass, lag)
}

/// Spins until `due` after `start`. Sleeping would hand the core back to
/// the host, and on a virtual machine waking up again can take
/// milliseconds, which would show as generator lag.
fn wait_until(start: Instant, due: Duration) {
    while start.elapsed() < due {
        std::hint::spin_loop();
    }
}
