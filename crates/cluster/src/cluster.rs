//! The sharded [`ResourceService`]: one `Kairos` manager per platform
//! region, parallel admission probes, and cross-shard rebalancing.

use std::collections::BTreeMap;
use std::sync::Arc;

use kairos_admitd::{AdmitPolicy, PriorityClass};
use kairos_app::Application;
use kairos_core::{
    CacheStats, ElementActivity, Kairos, KairosConfig, OccupancySnapshot, DURATION_NS_BOUNDS,
};
use kairos_platform::{adjacent_pairs, AppId, ElementId, Platform, RegionMap};
use kairos_svc::{
    CapacityEvent, Command, Event, KairosService, Request, ResourceService, ServiceBuilder, Ticket,
};
use kairos_telemetry::{Counter, Histogram, Level, Telemetry, TraceContext};

use crate::policy::{FirstFit, PlacementPolicy, ShardFit, ShardLoad, ShardProbe};
use crate::pool::{ProbeExecutor, ProbePool};

/// Size of each shard's [`AppId`] namespace: shard `i` mints ids from
/// `i * APP_ID_STRIDE`, so an id alone identifies its home shard and ids
/// stay globally unique across the cluster (shard 0 of a one-shard
/// cluster numbers from 0 — exactly the single-manager behaviour).
pub const APP_ID_STRIDE: u32 = 1 << 24;

/// Shards a load may lag the most-loaded shard by before a
/// [`Command::Rebalance`] sweep moves work across the boundary.
const REBALANCE_GAP: f64 = 0.05;

/// One region shard: its service, its slice of the global element id
/// space, and the translation of its service tickets into the cluster's.
#[derive(Debug)]
struct Shard {
    /// The shard's manager. `None` only *during* a pooled probe wave,
    /// while the manager is lent to the shard's worker thread
    /// ([`ProbePool`]); every fan-out checks it back in before
    /// returning, so the accessors below never observe the gap.
    service: Option<KairosService>,
    /// Local element index → global element id.
    globals: Vec<ElementId>,
    /// Shard-service ticket → cluster ticket, for requests not yet at
    /// their terminal event. An admission's mapping (a shard-minted
    /// requeue ticket's too) is dropped at its `Admitted`/`Rejected`;
    /// every other command resolves inside its own shard submission, so
    /// its mapping is dropped once that submission's events are drained.
    tickets: BTreeMap<u64, Ticket>,
}

impl Shard {
    fn svc(&self) -> &KairosService {
        self.service.as_ref().expect("shard manager is checked in")
    }

    fn svc_mut(&mut self) -> &mut KairosService {
        self.service.as_mut().expect("shard manager is checked in")
    }
}

/// Translates one shard's event batch into the cluster's id spaces:
/// tickets through the shard's translation map, element ids from the
/// shard's local space back to the global platform. App ids pass through
/// untouched — they are globally unique by construction (the per-shard
/// [`APP_ID_STRIDE`] namespace). Admission-report layouts stay in
/// shard-local element coordinates; translate them through
/// [`ClusterService::regions`] when needed.
fn translate_events(next: &mut u64, shard: &mut Shard, events: Vec<Event>) -> Vec<Event> {
    let Shard { globals, tickets, .. } = shard;
    // The cluster ticket of a shard-service ticket, minted on first sight
    // (shards mint tickets of their own for preemption requeues; they
    // join the cluster's uniform ticket space here, in event order).
    let mut t = |ticket: Ticket| -> Ticket {
        if let Some(&t) = tickets.get(&ticket.0) {
            return t;
        }
        let minted = Ticket(*next);
        *next += 1;
        tickets.insert(ticket.0, minted);
        minted
    };
    // An admission outcome is its ticket's last event (a requeue
    // ticket's too), so the mapping ends there.
    let outcomes: Vec<u64> = events
        .iter()
        .filter(|event| matches!(event, Event::Admitted { .. } | Event::Rejected { .. }))
        .map(|event| event.ticket().0)
        .collect();
    let translated = events
        .into_iter()
        .map(|event| match event {
            Event::Queued { ticket, class, depth } => {
                Event::Queued { ticket: t(ticket), class, depth }
            }
            Event::Admitted { ticket, class, app, report, waited, attempts } => {
                Event::Admitted { ticket: t(ticket), class, app, report, waited, attempts }
            }
            Event::AttemptFailed { ticket, class, attempt, phase } => {
                Event::AttemptFailed { ticket: t(ticket), class, attempt, phase }
            }
            Event::Rejected { ticket, class, cause, waited } => {
                Event::Rejected { ticket: t(ticket), class, cause, waited }
            }
            Event::Preempted { victim, class, requeued_as, by } => {
                Event::Preempted { victim, class, by: t(by), requeued_as: t(requeued_as) }
            }
            Event::Migrated { ticket, app, moved_tasks } => {
                Event::Migrated { ticket: t(ticket), app, moved_tasks }
            }
            Event::MigrationFailed { ticket, app, error } => {
                Event::MigrationFailed { ticket: t(ticket), app, error }
            }
            Event::Released { ticket, app, found } => {
                Event::Released { ticket: t(ticket), app, found }
            }
            Event::ElementFailed { ticket, element, evicted } => Event::ElementFailed {
                ticket: t(ticket),
                element: globals[element.index()],
                evicted,
            },
            Event::ElementRepaired { ticket, element } => {
                Event::ElementRepaired { ticket: t(ticket), element: globals[element.index()] }
            }
            Event::Defragged { ticket, moves } => Event::Defragged { ticket: t(ticket), moves },
            Event::Rebalanced { ticket, moves } => Event::Rebalanced { ticket: t(ticket), moves },
        })
        .collect();
    for ticket in outcomes {
        tickets.remove(&ticket);
    }
    translated
}

/// Builds a [`ClusterService`]: the platform, the shard count, and the
/// same policy knobs as [`ServiceBuilder`] — every shard gets an
/// identical configuration (admission queue included), plus the
/// cluster-level [`PlacementPolicy`] deciding which shard each admission
/// is routed to.
///
/// # Examples
///
/// ```
/// use kairos_cluster::{ClusterBuilder, LeastLoaded};
/// use kairos_platform::topology;
///
/// let cluster = ClusterBuilder::new(topology::crisp(), 4)
///     .deterministic(true)
///     .placement(Box::new(LeastLoaded))
///     .build()?;
/// assert_eq!(cluster.shard_count(), 4);
/// # Ok::<(), String>(())
/// ```
#[derive(Debug)]
pub struct ClusterBuilder {
    platform: Platform,
    shards: usize,
    config: KairosConfig,
    admission: Option<AdmitPolicy>,
    policy: Box<dyn PlacementPolicy>,
    telemetry: Telemetry,
}

impl ClusterBuilder {
    /// A builder for a cluster of `shards` region managers over
    /// `platform`, with the default manager configuration, no admission
    /// queue, [`FirstFit`] placement and telemetry disabled.
    pub fn new(platform: Platform, shards: usize) -> Self {
        ClusterBuilder {
            platform,
            shards,
            config: KairosConfig::default(),
            admission: None,
            policy: Box::new(FirstFit),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Selects the probe fan-out executor. [`ProbeExecutor::Pooled`] —
    /// one persistent worker thread per shard — is the only one.
    pub fn probe_executor(self, executor: ProbeExecutor) -> Self {
        match executor {
            ProbeExecutor::Pooled => self,
        }
    }

    /// Replaces the per-shard manager configuration (each shard's
    /// [`KairosConfig::app_id_base`] is still overridden to its own
    /// [`APP_ID_STRIDE`] slot).
    pub fn config(mut self, config: KairosConfig) -> Self {
        self.config = config;
        self
    }

    /// Runs every shard's pipeline on the zero phase clock, making
    /// cluster output a pure function of its inputs.
    pub fn deterministic(mut self, deterministic: bool) -> Self {
        self.config.deterministic = deterministic;
        self
    }

    /// Fronts every shard manager with a `kairos-admitd` priority queue
    /// under `policy` (class capacities apply per shard).
    pub fn admission(mut self, policy: AdmitPolicy) -> Self {
        self.admission = Some(policy);
        self
    }

    /// Injects the shard-placement policy (default: [`FirstFit`]).
    pub fn placement(mut self, policy: Box<dyn PlacementPolicy>) -> Self {
        self.policy = policy;
        self
    }

    /// Attaches an observability hub to the whole cluster: the
    /// cluster-level `kairos.cluster.*` metrics (probe fan-out latency
    /// per shard, placement-score distributions, rebalance accounting)
    /// land in its registry, and every shard gets a
    /// [`Telemetry::child`] handle labelled `shard{i}` — sharing the
    /// registry, but recording its spans and events into a flight
    /// recorder of its own (each shard is driven by exactly one thread,
    /// so per-shard rings stay deterministically ordered even under the
    /// parallel probe fan-out).
    pub fn telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Builds the cluster: partitions the platform into contiguous
    /// capacity-balanced regions ([`RegionMap::new`]) and starts one
    /// [`KairosService`] per region.
    ///
    /// # Errors
    ///
    /// The partitioner's error (zero shards, more shards than elements,
    /// or more shards than [`APP_ID_STRIDE`] namespaces), or the
    /// admission policy's validation error.
    pub fn build(self) -> Result<ClusterService, String> {
        if self.shards > (u32::MAX / APP_ID_STRIDE) as usize {
            return Err(format!("at most {} shards are addressable", u32::MAX / APP_ID_STRIDE));
        }
        let region = RegionMap::new(&self.platform, self.shards)?;
        let mut shards = Vec::with_capacity(region.region_count());
        for r in 0..region.region_count() {
            let config = KairosConfig { app_id_base: r as u32 * APP_ID_STRIDE, ..self.config };
            let mut builder = ServiceBuilder::new(region.extract(&self.platform, r))
                .config(config)
                .telemetry(self.telemetry.child(&format!("shard{r}")));
            if let Some(policy) = self.admission {
                builder = builder.admission(policy);
            }
            shards.push(Shard {
                service: Some(builder.build()?),
                globals: region.elements(r).to_vec(),
                tickets: BTreeMap::new(),
            });
        }
        let metrics = ClusterMetrics::new(&self.telemetry, region.region_count());
        // One-shard clusters probe inline (monolithic byte-identity), so
        // the pool only exists where a fan-out actually happens.
        let pool = (region.region_count() > 1).then(|| {
            ProbePool::new(region.region_count(), metrics.as_ref().map(|m| m.probe_ns.as_slice()))
        });
        Ok(ClusterService {
            shards,
            region,
            policy: self.policy,
            next_ticket: 0,
            events: Vec::new(),
            telemetry: self.telemetry,
            metrics,
            pool,
        })
    }
}

/// A fleet of shard managers behind one [`ResourceService`] surface.
///
/// The platform is partitioned into contiguous, capacity-balanced
/// regions; each region is owned by its own [`KairosService`] (direct or
/// queued, exactly as a monolithic service would be). Traffic flows:
///
/// * **Admissions** fan out as parallel what-if probes across all shards
///   (a persistent worker-pool probe executor — one long-lived thread
///   per shard fed through job channels, see [`ProbeExecutor`]; each
///   probe runs in a claim-journal transaction that is always rolled
///   back, so losing probes cost nothing). Probe results are merged in
///   shard-id order and the
///   injected [`PlacementPolicy`] picks the winning shard — making the
///   outcome independent of thread scheduling. The admission is then
///   submitted to that shard's service, queueing semantics and all. When
///   no shard fits, the policy's fallback shard takes the request (to
///   queue or reject it).
/// * **Releases, migrations, faults and repairs** route to the owning
///   shard: app ids encode their home shard ([`APP_ID_STRIDE`]), element
///   ids translate through the [`RegionMap`].
/// * **[`Command::Defrag`]** compacts every shard in shard-id order
///   (`kairos-reloc` migration stays shard-local) and reports one sweep.
/// * **[`Command::Rebalance`]** moves running applications from the
///   most- to the least-loaded shard by evict-and-readmit across the
///   boundary — two-phase (claim the new home, then free the old; any
///   failure rolls the move back) — reporting each move's id change in
///   [`Event::Rebalanced`].
///
/// A one-shard cluster is byte-for-byte the monolithic service: identity
/// partition, identity id maps, probes skipped.
///
/// # Examples
///
/// ```
/// use kairos_cluster::ClusterBuilder;
/// use kairos_svc::{Request, ResourceService, Event};
/// use kairos_admitd::PriorityClass;
/// use kairos_appgen::{AppGenerator, GeneratorConfig};
/// use kairos_platform::topology;
///
/// let mut cluster = ClusterBuilder::new(topology::crisp(), 3).deterministic(true).build()?;
/// let mut generator = AppGenerator::new(GeneratorConfig::default(), 7);
/// let ticket = cluster.submit(Request::admit(0, generator.generate("app"), PriorityClass::Normal));
/// let events = cluster.take_events();
/// assert!(matches!(&events[..], [Event::Admitted { ticket: t, .. }] if *t == ticket));
/// # Ok::<(), String>(())
/// ```
#[derive(Debug)]
pub struct ClusterService {
    shards: Vec<Shard>,
    region: RegionMap,
    policy: Box<dyn PlacementPolicy>,
    /// Next cluster ticket; allocation order is submission order, with
    /// shard-minted tickets (preemption requeues) numbered at the instant
    /// their first event is translated.
    next_ticket: u64,
    /// Events accumulated since the last [`ResourceService::take_events`].
    events: Vec<Event>,
    telemetry: Telemetry,
    metrics: Option<ClusterMetrics>,
    /// The persistent probe workers; `None` on one-shard clusters.
    pool: Option<ProbePool>,
}

/// Bucket bounds for the placement-score histograms: scores are fractions
/// in `[0, 1]` scaled by `1e6` to integers, so the buckets cut at 10%,
/// 25%, 50%, 75%, 90% and 100%.
pub const SCORE_E6_BOUNDS: &[u64] = &[100_000, 250_000, 500_000, 750_000, 900_000, 1_000_000];

/// Pre-resolved registry handles for the cluster layer, built once at
/// construction. The per-shard probe histograms are recorded from inside
/// the pool's worker threads; that stays deterministic under the zero
/// phase clock because every recorded duration is `0` and atomic increments
/// commute, so the snapshot is a pure function of the probe count —
/// independent of thread scheduling and of whether telemetry is lit.
#[derive(Debug, Clone)]
struct ClusterMetrics {
    probe_waves: Arc<Counter>,
    probes: Arc<Counter>,
    /// Per-shard probe pipeline time (each probe's phase-timing total),
    /// indexed by shard id.
    probe_ns: Vec<Arc<Histogram>>,
    /// Fragmentation score of every fitting probe, scaled by `1e6`.
    score_fragmentation: Arc<Histogram>,
    /// Resource-utilisation score of every fitting probe, scaled by `1e6`.
    score_utilisation: Arc<Histogram>,
    placements: Arc<Counter>,
    fallbacks: Arc<Counter>,
    rebalance_sweeps: Arc<Counter>,
    rebalance_moves: Arc<Counter>,
    rebalance_aborts: Arc<Counter>,
}

impl ClusterMetrics {
    fn new(telemetry: &Telemetry, shards: usize) -> Option<Self> {
        let registry = telemetry.registry()?;
        Some(ClusterMetrics {
            probe_waves: registry.counter("kairos.cluster.probe.waves"),
            probes: registry.counter("kairos.cluster.probes"),
            probe_ns: (0..shards)
                .map(|i| {
                    registry
                        .histogram(&format!("kairos.cluster.shard{i}.probe.ns"), DURATION_NS_BOUNDS)
                })
                .collect(),
            score_fragmentation: registry
                .histogram("kairos.cluster.placement.score.fragmentation_e6", SCORE_E6_BOUNDS),
            score_utilisation: registry
                .histogram("kairos.cluster.placement.score.utilisation_e6", SCORE_E6_BOUNDS),
            placements: registry.counter("kairos.cluster.placements"),
            fallbacks: registry.counter("kairos.cluster.placement.fallbacks"),
            rebalance_sweeps: registry.counter("kairos.cluster.rebalance.sweeps"),
            rebalance_moves: registry.counter("kairos.cluster.rebalance.moves"),
            rebalance_aborts: registry.counter("kairos.cluster.rebalance.aborts"),
        })
    }

    /// Folds one shard-id-ordered probe row onto the score histograms.
    fn note_fits(&self, row: &[ShardProbe]) {
        for probe in row {
            if let Some(fit) = &probe.fit {
                self.score_fragmentation.record(score_e6(fit.fragmentation));
                self.score_utilisation.record(score_e6(fit.resource_utilisation));
            }
        }
    }
}

/// A `[0, 1]` score as an integer in parts-per-million (clamped), so the
/// distribution can live in an integer histogram without breaking the
/// byte-stable snapshot rendering.
fn score_e6(score: f64) -> u64 {
    (score.clamp(0.0, 1.0) * 1e6) as u64
}

impl ClusterService {
    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The region partition the cluster runs on (element id translation
    /// between the global platform and each shard's local space).
    pub fn regions(&self) -> &RegionMap {
        &self.region
    }

    /// Read access to one shard's service, for inspection.
    ///
    /// # Panics
    ///
    /// Panics when `shard` is out of range.
    pub fn shard(&self, shard: usize) -> &KairosService {
        self.shards[shard].svc()
    }

    /// The injected placement policy's name.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// The attached observability hub (disabled by default). This is the
    /// cluster-level handle; each shard records through its own
    /// `shard{i}`-labelled child sharing the same registry.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The shard that minted `app` (ids encode their home shard).
    pub fn shard_of_app(&self, app: AppId) -> usize {
        ((app.0 / APP_ID_STRIDE) as usize).min(self.shards.len() - 1)
    }

    /// Probes every shard with a state-neutral what-if admission of
    /// `app` — in parallel on a multi-shard cluster — and returns the
    /// results merged in shard-id order. Nothing changes anywhere: each
    /// probe runs in a claim-journal transaction its shard always rolls
    /// back.
    pub fn probe_admit(&mut self, app: &Application) -> Vec<ShardProbe> {
        let _span = self.telemetry.span("kairos_cluster", "probe_admit");
        self.probe_rows(&[app]).pop().expect("one row per application")
    }

    /// Probes every shard with a state-neutral what-if admission of a
    /// whole arrival wave: each shard's worker probes *all* of `apps`
    /// against its region, so the fan-out cost is one hand-off per shard
    /// per wave instead of per application. Returns one shard-id-
    /// ordered probe row per application, identical to calling
    /// [`ClusterService::probe_admit`] per app (probes are state-neutral,
    /// so the rows are independent) — this is what batched submission
    /// places its admissions with, and the workload the `cluster_probe`
    /// bench measures against the monolithic sequential baseline.
    pub fn probe_admit_wave(&mut self, apps: &[Application]) -> Vec<Vec<ShardProbe>> {
        let refs: Vec<&Application> = apps.iter().collect();
        self.probe_wave(&refs)
    }

    /// [`Self::probe_admit_wave`] over borrowed applications (what the
    /// batched submission path calls — the wave is still owned by the
    /// requests being placed).
    fn probe_wave(&mut self, apps: &[&Application]) -> Vec<Vec<ShardProbe>> {
        let _span = self.telemetry.span("kairos_cluster", "probe_wave");
        self.probe_rows(apps)
    }

    /// The probe fan-out behind [`Self::probe_admit`] and
    /// [`Self::probe_wave`]: a one-shard cluster probes inline, a
    /// multi-shard one on its [`ProbePool`]. Returns one shard-id-ordered
    /// row per application.
    fn probe_rows(&mut self, apps: &[&Application]) -> Vec<Vec<ShardProbe>> {
        if let Some(m) = &self.metrics {
            m.probe_waves.inc();
            m.probes.add((self.shards.len() * apps.len()) as u64);
        }
        let per_shard = if self.shards.len() == 1 {
            let probe_ns = self.metrics.as_ref().map(|m| m.probe_ns[0].as_ref());
            let service = self.shards[0].svc_mut();
            vec![apps.iter().map(|app| probe_shard(service, app, probe_ns)).collect()]
        } else {
            self.fan_out(apps)
        };
        let rows: Vec<Vec<ShardProbe>> = (0..apps.len())
            .map(|a| {
                per_shard
                    .iter()
                    .enumerate()
                    .map(|(shard, fits)| ShardProbe { shard, fit: fits[a] })
                    .collect()
            })
            .collect();
        if let Some(m) = &self.metrics {
            for row in &rows {
                m.note_fits(row);
            }
        }
        rows
    }

    /// The multi-shard half of [`Self::probe_rows`]: every shard probes
    /// the whole wave on its [`ProbePool`] worker, timings recorded inside
    /// the workers, fit rows merged in shard-id order (outer index =
    /// shard).
    fn fan_out(&mut self, apps: &[&Application]) -> Vec<Vec<Option<ShardFit>>> {
        let pool = self.pool.as_ref().expect("multi-shard clusters own a probe pool");
        // Ownership transfer: lend each shard's manager to its persistent
        // worker together with one shared copy of the wave, then take
        // managers and fit rows back in shard-id order.
        let wave: Arc<Vec<Application>> = Arc::new(apps.iter().map(|&app| app.clone()).collect());
        for (i, shard) in self.shards.iter_mut().enumerate() {
            let service = shard.service.take().expect("shard manager is checked in");
            pool.submit(i, service, wave.clone());
        }
        self.shards
            .iter_mut()
            .enumerate()
            .map(|(i, shard)| {
                let (service, fits) = pool.collect(i);
                shard.service = Some(service);
                fits
            })
            .collect()
    }

    /// Current per-shard loads, in shard-id order.
    pub fn loads(&self) -> Vec<ShardLoad> {
        self.shards
            .iter()
            .enumerate()
            .map(|(shard, s)| ShardLoad {
                shard,
                resource_utilisation: s.svc().occupancy().resource_utilisation,
                queue_depth: s.svc().queue_depth(),
            })
            .collect()
    }

    fn alloc_ticket(&mut self) -> Ticket {
        let ticket = Ticket(self.next_ticket);
        self.next_ticket += 1;
        ticket
    }

    /// Probes, asks the policy, falls back: the shard this admission is
    /// routed to. A set `ctx` gets one coordinator-side `probe.shard{i}`
    /// span per probed shard.
    fn place(&mut self, app: &Application, ctx: TraceContext, at: u64) -> usize {
        if self.shards.len() == 1 {
            return 0;
        }
        let probes = self.probe_admit(app);
        let shard = self.choose(&probes);
        self.trace_probes(ctx, at, &probes, shard);
        shard
    }

    /// The policy's pick for one probe row, or its fallback shard when
    /// no shard fits; counted as one placement (and one fallback).
    fn choose(&self, probes: &[ShardProbe]) -> usize {
        let (shard, fell_back) = match self.policy.choose(probes) {
            Some(shard) => (shard, false),
            None => (self.policy.fallback(&self.loads()), true),
        };
        if let Some(m) = &self.metrics {
            m.placements.inc();
            if fell_back {
                m.fallbacks.inc();
            }
        }
        shard
    }

    /// Records the fan-out's probe spans under `ctx`, one per shard in
    /// shard-id order. Always coordinator-side, after the probe threads
    /// have joined — the threads themselves never touch the trace sink,
    /// so trace ids stay allocation-ordered regardless of scheduling.
    fn trace_probes(&self, ctx: TraceContext, at: u64, probes: &[ShardProbe], chosen: usize) {
        if ctx.is_none() {
            return;
        }
        for probe in probes {
            let fit = if probe.fit.is_some() { "yes" } else { "no" };
            let mut args = vec![("fit", fit.to_owned())];
            if probe.shard == chosen {
                args.push(("chosen", "yes".to_owned()));
            }
            self.telemetry.trace_child(ctx, &format!("probe.shard{}", probe.shard), at, at, &args);
        }
    }

    /// Drains one shard's buffered events into the cluster's, translated.
    fn drain_shard(&mut self, shard: usize) {
        let s = &mut self.shards[shard];
        let events = s.svc_mut().take_events();
        let translated = translate_events(&mut self.next_ticket, s, events);
        self.events.extend(translated);
    }

    /// Submits `request` to `shard` under the cluster ticket `ticket` and
    /// drains the fallout. A non-admission command's terminal event is
    /// part of that fallout, so its ticket mapping ends with the drain.
    fn forward(&mut self, shard: usize, ticket: Ticket, request: Request) {
        let admission = matches!(request.command, Command::Admit { .. });
        let s = &mut self.shards[shard];
        let shard_ticket = s.svc_mut().submit(request);
        s.tickets.insert(shard_ticket.0, ticket);
        self.drain_shard(shard);
        if !admission {
            self.shards[shard].tickets.remove(&shard_ticket.0);
        }
    }

    /// Performs one command under an already-allocated cluster ticket.
    /// For admissions the cluster is the outermost service: it mints the
    /// request's trace root when `trace` is still unset and stamps the
    /// context onto the request it forwards, so the shard continues the
    /// same trace instead of minting its own.
    fn dispatch(&mut self, ticket: Ticket, at: u64, command: Command, trace: TraceContext) {
        match command {
            Command::Admit { app, class } => {
                let ctx = if trace.is_some() {
                    trace
                } else {
                    self.telemetry.trace_root(
                        "request",
                        at,
                        &[("class", class.to_string()), ("origin", "request".to_owned())],
                    )
                };
                let target = self.place(&app, ctx, at);
                self.forward(target, ticket, Request::admit(at, app, class).with_trace(ctx));
            }
            Command::Release { app } => {
                let target = self.shard_of_app(app);
                self.forward(target, ticket, Request::new(at, Command::Release { app }));
            }
            Command::Migrate { app, avoid } => {
                let target = self.shard_of_app(app);
                // Only elements of the owning shard can host the app;
                // avoided elements elsewhere are unreachable anyway.
                let avoid: Vec<ElementId> = avoid
                    .into_iter()
                    .filter(|&e| self.region.region_of(e) == target)
                    .map(|e| self.region.to_local(e))
                    .collect();
                self.forward(target, ticket, Request::new(at, Command::Migrate { app, avoid }));
            }
            Command::InjectFault { element } => {
                let target = self.region.region_of(element);
                let element = self.region.to_local(element);
                self.forward(target, ticket, Request::new(at, Command::InjectFault { element }));
            }
            Command::Repair { element } => {
                let target = self.region.region_of(element);
                let element = self.region.to_local(element);
                self.forward(target, ticket, Request::new(at, Command::Repair { element }));
            }
            Command::Defrag { max_moves } => self.run_defrag(at, ticket, max_moves),
            Command::Rebalance { max_moves } => self.run_rebalance(at, ticket, max_moves),
        }
    }

    /// One cluster-wide defrag sweep: every shard compacts itself (up to
    /// `max_moves` each, in shard-id order), reported as one
    /// [`Event::Defragged`] with the summed move count, followed by
    /// whatever the freed room drained out of the shard queues.
    fn run_defrag(&mut self, at: u64, ticket: Ticket, max_moves: usize) {
        let mut moves = 0;
        let mut tail = Vec::new();
        for i in 0..self.shards.len() {
            let s = &mut self.shards[i];
            let shard_ticket = s.svc_mut().submit(Request::new(at, Command::Defrag { max_moves }));
            s.tickets.insert(shard_ticket.0, ticket);
            let events = s.svc_mut().take_events();
            for event in translate_events(&mut self.next_ticket, s, events) {
                match event {
                    Event::Defragged { moves: m, .. } => moves += m,
                    other => tail.push(other),
                }
            }
            s.tickets.remove(&shard_ticket.0);
        }
        self.events.push(Event::Defragged { ticket, moves });
        self.events.extend(tail);
    }

    /// One cross-shard rebalance sweep (the real implementation behind
    /// [`Command::Rebalance`]).
    ///
    /// Repeatedly pairs the most- with the least-loaded shard (by
    /// resource utilisation; ties break toward the lower id) while their
    /// gap exceeds the rebalance threshold, and moves the first
    /// probe-fitting application across the boundary — evict-and-readmit,
    /// two-phase:
    ///
    /// 1. **make** — the destination shard admits the application
    ///    directly (bypassing its queue: the application already waited
    ///    its wait), minting a fresh id in its own namespace;
    /// 2. **break** — the source shard releases the old claims; the
    ///    freed room is a capacity event, so source-shard waiters drain.
    ///
    /// A failure in phase 1 skips the candidate with nothing to undo; a
    /// failure in phase 2 (the app vanished) rolls phase 1 back by
    /// releasing the fresh claims, so no move is ever half-made.
    fn run_rebalance(&mut self, at: u64, ticket: Ticket, max_moves: usize) {
        let _span = self.telemetry.span("kairos_cluster", "rebalance");
        if let Some(m) = &self.metrics {
            m.rebalance_sweeps.inc();
        }
        let mut moves: Vec<(AppId, AppId)> = Vec::new();
        let mut tail: Vec<Event> = Vec::new();
        'sweep: while moves.len() < max_moves && self.shards.len() > 1 {
            let loads = self.loads();
            let src = loads
                .iter()
                .max_by(|a, b| {
                    a.resource_utilisation.total_cmp(&b.resource_utilisation).then(
                        b.shard.cmp(&a.shard), // ties -> lower id wins the max
                    )
                })
                .expect("at least one shard")
                .shard;
            let dst = loads
                .iter()
                .min_by(|a, b| {
                    a.resource_utilisation.total_cmp(&b.resource_utilisation).then(
                        a.shard.cmp(&b.shard), // ties -> lower id wins the min
                    )
                })
                .expect("at least one shard")
                .shard;
            if src == dst
                || loads[src].resource_utilisation - loads[dst].resource_utilisation < REBALANCE_GAP
            {
                break;
            }
            for id in self.shards[src].svc().kairos().admitted_ids() {
                let app = self.shards[src]
                    .svc()
                    .kairos()
                    .application(id)
                    .expect("admitted ids resolve")
                    .clone();
                let Ok(probe) = self.shards[dst].svc_mut().probe_admit(&app) else {
                    continue;
                };
                // Convergence guard: the move must leave the destination
                // strictly below the source's current load, or the next
                // iteration would just ship work back (ping-pong).
                if probe.after.resource_utilisation + f64::EPSILON
                    >= loads[src].resource_utilisation
                {
                    continue;
                }
                let class = self.shards[src]
                    .svc()
                    .admitd()
                    .and_then(|a| a.admitted_class(id))
                    .unwrap_or(PriorityClass::Normal);
                // Captured before the release erases the layout: the
                // source-side elements the move frees, for cache
                // invalidation once the move is final.
                let src_elements: Vec<ElementId> = self.shards[src]
                    .svc()
                    .kairos()
                    .layout(id)
                    .map(|l| {
                        let mut es: Vec<ElementId> = l.placement.iter().map(|(_, e)| e).collect();
                        es.sort_unstable();
                        es.dedup();
                        es
                    })
                    .unwrap_or_default();
                // Phase 1 (make): claim the new home across the boundary.
                let Ok(report) = self.shards[dst].svc_mut().admit_now(&app, class) else {
                    continue;
                };
                // Phase 2 (break): free the old home, draining waiters.
                let (found, drained) = self.shards[src].svc_mut().release_now(id, at);
                if !found {
                    self.shards[dst].svc_mut().release_now(report.app_id, at);
                    if let Some(m) = &self.metrics {
                        m.rebalance_aborts.inc();
                        self.telemetry.event(
                            Level::WARN,
                            "kairos_cluster",
                            format!(
                                "rebalance move of {id} aborted: source claims vanished, \
                                 {} rolled back on shard {dst}",
                                report.app_id
                            ),
                        );
                    }
                    continue;
                }
                // Cache hygiene on both sides of the boundary: the move
                // changed occupancy on the source's freed elements and
                // the destination's fresh ones, so cached points touching
                // either are superseded.
                self.shards[src].svc_mut().invalidate_cached_points(&src_elements);
                let mut dst_elements: Vec<ElementId> =
                    report.layout.placement.iter().map(|(_, e)| e).collect();
                dst_elements.sort_unstable();
                dst_elements.dedup();
                self.shards[dst].svc_mut().invalidate_cached_points(&dst_elements);
                let s = &mut self.shards[src];
                tail.extend(translate_events(&mut self.next_ticket, s, drained));
                moves.push((id, report.app_id));
                continue 'sweep;
            }
            break; // nothing on the loaded shard fits anywhere lighter
        }
        // Drain fallout first, the sweep summary last: a later iteration
        // may move an application a drain admitted moments earlier, and
        // its `Admitted` must reach the caller before the `Rebalanced`
        // that renames it (the sim's live-app accounting relies on it).
        if let Some(m) = &self.metrics {
            m.rebalance_moves.add(moves.len() as u64);
            self.telemetry.event(
                Level::INFO,
                "kairos_cluster",
                format!("rebalance sweep moved {} application(s)", moves.len()),
            );
        }
        self.events.extend(tail);
        self.events.push(Event::Rebalanced { ticket, moves });
    }
}

/// One shard's what-if admission of `app`: the probe-and-time step of
/// every fan-out, inline or on a pool worker. The probe's own pipeline
/// time ([`kairos_core::PhaseTimings::total`], measured on the shard's phase clock and
/// so zero under [`KairosConfig::deterministic`]) lands in the shard's
/// `probe_ns` histogram when telemetry is lit.
pub(crate) fn probe_shard(
    service: &mut KairosService,
    app: &Application,
    probe_ns: Option<&Histogram>,
) -> Option<ShardFit> {
    let (fit, timings) = match service.probe_admit(app) {
        Ok(probe) => (
            Some(ShardFit {
                fragmentation: probe.after.external_fragmentation,
                resource_utilisation: probe.after.resource_utilisation,
                free_islands: probe.after.free_islands,
            }),
            probe.timings,
        ),
        Err(failure) => (None, failure.timings),
    };
    if let Some(hist) = probe_ns {
        hist.record(u64::try_from(timings.total().as_nanos()).unwrap_or(u64::MAX));
    }
    fit
}

impl ResourceService for ClusterService {
    fn submit(&mut self, request: Request) -> Ticket {
        let Request { at, command, trace } = request;
        let ticket = self.alloc_ticket();
        self.dispatch(ticket, at, command, trace);
        ticket
    }

    fn submit_batch(&mut self, requests: Vec<Request>) -> Vec<Ticket> {
        // Cluster tickets are allocated up front in submission order —
        // batching changes how work is performed, never how it is
        // identified (mirroring the monolithic service).
        let requests: Vec<(Ticket, Request)> =
            requests.into_iter().map(|r| (self.alloc_ticket(), r)).collect();
        let tickets: Vec<Ticket> = requests.iter().map(|(t, _)| *t).collect();

        // Place every admission against the pre-wave state — probes are
        // state-neutral, so the whole wave is probed in one per-shard
        // parallel fan-out ([`Self::probe_admit_wave`]) — group the wave
        // by winning shard, and hand each shard its sub-wave as one
        // batched submission (one platform transaction, one drain pass —
        // per shard). Non-admission commands run after the wave, in
        // submission order, exactly as the monolithic service does.
        let mut admissions: Vec<(Ticket, u64, Application, PriorityClass, TraceContext)> =
            Vec::new();
        let mut rest: Vec<(Ticket, u64, Command, TraceContext)> = Vec::new();
        for (ticket, Request { at, command, trace }) in requests {
            match command {
                Command::Admit { app, class } => {
                    // Roots are minted here, in submission order, so trace
                    // id allocation never depends on where the wave's rows
                    // end up being placed.
                    let ctx = if trace.is_some() {
                        trace
                    } else {
                        self.telemetry.trace_root(
                            "request",
                            at,
                            &[("class", class.to_string()), ("origin", "request".to_owned())],
                        )
                    };
                    admissions.push((ticket, at, app, class, ctx));
                }
                other => rest.push((ticket, at, other, trace)),
            }
        }
        let mut waves: Vec<Vec<(Ticket, Request)>> =
            (0..self.shards.len()).map(|_| Vec::new()).collect();
        if self.shards.len() == 1 {
            for (ticket, at, app, class, ctx) in admissions {
                waves[0].push((ticket, Request::admit(at, app, class).with_trace(ctx)));
            }
        } else {
            let apps: Vec<&Application> = admissions.iter().map(|(_, _, app, _, _)| app).collect();
            let probes = self.probe_wave(&apps);
            drop(apps);
            for ((ticket, at, app, class, ctx), row) in admissions.into_iter().zip(probes) {
                let target = self.choose(&row);
                self.trace_probes(ctx, at, &row, target);
                waves[target].push((ticket, Request::admit(at, app, class).with_trace(ctx)));
            }
        }
        for (i, wave) in waves.into_iter().enumerate() {
            if wave.is_empty() {
                continue;
            }
            let (cluster_tickets, shard_requests): (Vec<Ticket>, Vec<Request>) =
                wave.into_iter().unzip();
            let s = &mut self.shards[i];
            let shard_tickets = s.svc_mut().submit_batch(shard_requests);
            for (cluster_ticket, shard_ticket) in cluster_tickets.into_iter().zip(shard_tickets) {
                s.tickets.insert(shard_ticket.0, cluster_ticket);
            }
            self.drain_shard(i);
        }
        for (ticket, at, command, trace) in rest {
            self.dispatch(ticket, at, command, trace);
        }
        tickets
    }

    fn pump(&mut self, event: CapacityEvent) -> Vec<Event> {
        let mut out = Vec::new();
        for i in 0..self.shards.len() {
            let s = &mut self.shards[i];
            let events = s.svc_mut().pump(event);
            out.extend(translate_events(&mut self.next_ticket, s, events));
        }
        out
    }

    fn take_events(&mut self) -> Vec<Event> {
        std::mem::take(&mut self.events)
    }

    fn kairos(&self) -> &Kairos {
        self.shards[0].svc().kairos()
    }

    fn queue_depth(&self) -> usize {
        self.shards.iter().map(|s| s.svc().queue_depth()).sum()
    }

    fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Whole-cluster cache counters: the field-wise sum over every shard
    /// manager's operating-point cache ([`CacheStats::merge`]); `None`
    /// when no shard has a cache (all shards share one configuration, so
    /// it is all or none).
    fn cache_stats(&self) -> Option<CacheStats> {
        self.shards.iter().filter_map(|s| s.svc().cache_stats()).reduce(CacheStats::merge)
    }

    /// Whole-cluster occupancy, aggregated exactly: utilisations from the
    /// summed counts, fragmentation over the union of all intra-shard
    /// adjacent pairs (cross-shard pairs are invisible to the shard
    /// managers and excluded — a one-shard cluster therefore matches the
    /// monolithic snapshot bit for bit), islands and failures summed.
    fn occupancy(&self) -> OccupancySnapshot {
        let mut admitted_apps = 0;
        let mut used = 0usize;
        let mut elements = 0usize;
        let (mut free, mut capacity) = (0u64, 0u64);
        let (mut mixed, mut pairs) = (0usize, 0usize);
        let mut free_islands = 0;
        let mut failed_elements = 0;
        for s in &self.shards {
            let kairos = s.svc().kairos();
            let p = kairos.platform();
            admitted_apps += kairos.admitted_count();
            used += p.element_ids().filter(|&e| p.is_used(e)).count();
            elements += p.element_count();
            free += p.total_free().as_array().iter().sum::<u64>();
            capacity += p.total_capacity().as_array().iter().sum::<u64>();
            let shard_pairs = adjacent_pairs(p);
            mixed += shard_pairs.iter().filter(|&&(a, b)| p.is_used(a) != p.is_used(b)).count();
            pairs += shard_pairs.len();
            free_islands += kairos_platform::free_island_count(p);
            failed_elements += p.failed_elements().len();
        }
        OccupancySnapshot {
            admitted_apps,
            element_utilisation: if elements == 0 { 0.0 } else { used as f64 / elements as f64 },
            resource_utilisation: if capacity == 0 {
                0.0
            } else {
                1.0 - free as f64 / capacity as f64
            },
            external_fragmentation: if pairs == 0 { 0.0 } else { mixed as f64 / pairs as f64 },
            free_islands,
            failed_elements,
        }
    }

    /// Per-element activity over every shard, with shard-local element ids
    /// translated back to the global platform through each shard's region
    /// slice and each entry tagged with its owning shard — ordered by shard
    /// then local id, which for contiguous region slices is global-id
    /// order (matching the monolithic service on a one-shard cluster).
    fn element_activity(&self) -> Vec<ElementActivity> {
        let mut out = Vec::new();
        for (shard_index, s) in self.shards.iter().enumerate() {
            for mut activity in s.svc().kairos().element_activity() {
                activity.element = s.globals[activity.element.index()];
                activity.shard = shard_index;
                out.push(activity);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{BestFitFragmentation, LeastLoaded};
    use kairos_app::{ApplicationBuilder, Implementation, TaskRole};
    use kairos_platform::{topology, ElementKind, ResourceVector};
    use kairos_telemetry::TelemetryConfig;

    fn chain(name: &str, tasks: usize, cpu: u64) -> Application {
        let imp = Implementation::new(ElementKind::Dsp, ResourceVector::new(cpu, 8, 0, 0), 50, 1);
        let mut b = ApplicationBuilder::new(name);
        let mut prev = None;
        for i in 0..tasks {
            let t = b.add_task(format!("t{i}"), TaskRole::Internal, vec![imp]);
            if let Some(p) = prev {
                b.add_channel(p, t, 10, 1);
            }
            prev = Some(t);
        }
        b.build().unwrap()
    }

    fn cluster(shards: usize) -> ClusterService {
        ClusterBuilder::new(topology::crisp(), shards).deterministic(true).build().unwrap()
    }

    #[test]
    fn builder_rejects_degenerate_shard_counts() {
        assert!(ClusterBuilder::new(topology::crisp(), 0).build().is_err());
        assert!(ClusterBuilder::new(topology::dsp_line(3), 4).build().is_err());
        assert!(ClusterBuilder::new(topology::crisp(), 1_000_000).build().is_err());
    }

    #[test]
    fn one_shard_cluster_reproduces_the_monolithic_event_stream() {
        let mut mono = ServiceBuilder::new(topology::crisp()).deterministic(true).build().unwrap();
        let mut one = cluster(1);
        let traffic: Vec<Request> = vec![
            Request::admit(0, chain("a", 3, 700), PriorityClass::Normal),
            Request::admit(1, chain("b", 2, 500), PriorityClass::Critical),
            Request::admit(2, chain("hopeless", 70, 990), PriorityClass::Low),
            Request::new(3, Command::InjectFault { element: ElementId(5) }),
            Request::new(4, Command::Repair { element: ElementId(5) }),
            Request::new(5, Command::Defrag { max_moves: 4 }),
            Request::new(6, Command::Rebalance { max_moves: 4 }),
        ];
        let mono_tickets: Vec<Ticket> = traffic.iter().cloned().map(|r| mono.submit(r)).collect();
        let one_tickets: Vec<Ticket> = traffic.into_iter().map(|r| one.submit(r)).collect();
        assert_eq!(mono_tickets, one_tickets);
        let (a, b) = (mono.take_events(), one.take_events());
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "event streams must match byte-for-byte");
        assert_eq!(mono.occupancy(), one.occupancy());
        assert_eq!(mono.queue_depth(), one.queue_depth());
    }

    #[test]
    fn one_shard_batches_match_the_monolithic_batch_path() {
        let mut mono = ServiceBuilder::new(topology::crisp()).deterministic(true).build().unwrap();
        let mut one = cluster(1);
        let wave = |i: u64| -> Vec<Request> {
            vec![
                Request::admit(i, chain("w0", 2, 600), PriorityClass::Low),
                Request::admit(i, chain("w1", 1, 400), PriorityClass::Critical),
                Request::admit(i, chain("w2", 2, 500), PriorityClass::Normal),
            ]
        };
        assert_eq!(mono.submit_batch(wave(0)), one.submit_batch(wave(0)));
        let (a, b) = (mono.take_events(), one.take_events());
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_eq!(
            mono.kairos().platform().txn_count(),
            one.shard(0).kairos().platform().txn_count(),
            "one batch transaction either way"
        );
    }

    #[test]
    fn app_ids_encode_their_home_shard_and_releases_route_back() {
        let mut cluster = ClusterBuilder::new(topology::crisp(), 3)
            .deterministic(true)
            .placement(Box::new(LeastLoaded))
            .build()
            .unwrap();
        let mut homes = Vec::new();
        for i in 0..6 {
            cluster.submit(Request::admit(
                i,
                chain(&format!("a{i}"), 2, 600),
                PriorityClass::Normal,
            ));
        }
        for event in cluster.take_events() {
            let Event::Admitted { report, .. } = event else {
                panic!("uncontended admissions admit: {event:?}")
            };
            let home = cluster.shard_of_app(report.app_id);
            assert!(
                cluster.shard(home).kairos().admitted_ids().contains(&report.app_id),
                "the id's encoded shard actually owns it"
            );
            homes.push((report.app_id, home));
        }
        assert!(
            homes.iter().map(|&(_, h)| h).collect::<std::collections::BTreeSet<_>>().len() > 1,
            "least-loaded placement spreads the apps: {homes:?}"
        );
        // Releases route home: every shard drains back to idle.
        for (i, &(id, _)) in homes.iter().enumerate() {
            cluster.submit(Request::release(10 + i as u64, id));
        }
        let releases = cluster.take_events();
        assert!(releases.iter().all(|e| matches!(e, Event::Released { found: true, .. })));
        for s in 0..cluster.shard_count() {
            assert!(cluster.shard(s).kairos().platform().is_idle(), "shard {s} leaked claims");
        }
    }

    #[test]
    fn faults_translate_between_global_and_shard_local_element_ids() {
        let mut cluster = cluster(4);
        // Fill broadly so some shard hosts work on the target element.
        for i in 0..10 {
            cluster.submit(Request::admit(
                i,
                chain(&format!("f{i}"), 2, 600),
                PriorityClass::Normal,
            ));
        }
        let admitted = cluster.take_events().len();
        assert!(admitted > 0);
        // Pick a used global element from some shard's residents.
        let (global, victim_shard) = (0..cluster.shard_count())
            .find_map(|s| {
                let p = cluster.shard(s).kairos().platform();
                p.element_ids()
                    .find(|&e| p.is_used(e))
                    .map(|local| (cluster.regions().to_global(s, local), s))
            })
            .expect("something was admitted somewhere");
        let before = cluster.shard(victim_shard).kairos().admitted_count();
        cluster.submit(Request::new(20, Command::InjectFault { element: global }));
        let events = cluster.take_events();
        let Some(Event::ElementFailed { element, evicted, .. }) =
            events.iter().find(|e| matches!(e, Event::ElementFailed { .. }))
        else {
            panic!("fault must report: {events:?}")
        };
        assert_eq!(*element, global, "the event reports the global id back");
        assert!(!evicted.is_empty(), "the used element evicts its apps");
        assert!(evicted.iter().all(|&id| cluster.shard_of_app(id) == victim_shard));
        assert_eq!(cluster.shard(victim_shard).kairos().admitted_count(), before - evicted.len());
        cluster.submit(Request::new(21, Command::Repair { element: global }));
        let events = cluster.take_events();
        assert!(matches!(
            events.as_slice(),
            [Event::ElementRepaired { element, .. }] if *element == global
        ));
        assert_eq!(cluster.occupancy().failed_elements, 0);
    }

    #[test]
    fn parallel_probes_are_deterministic_and_state_neutral() {
        let mut cluster = ClusterBuilder::new(topology::crisp(), 4)
            .deterministic(true)
            .placement(Box::new(BestFitFragmentation))
            .build()
            .unwrap();
        for i in 0..5 {
            cluster.submit(Request::admit(
                i,
                chain(&format!("r{i}"), 2, 700),
                PriorityClass::Normal,
            ));
        }
        cluster.take_events();
        let app = chain("probe", 3, 600);
        let checkpoints: Vec<_> = (0..cluster.shard_count())
            .map(|s| cluster.shard(s).kairos().platform().checkpoint())
            .collect();
        let first = cluster.probe_admit(&app);
        for _ in 0..10 {
            assert_eq!(cluster.probe_admit(&app), first, "probe results replay identically");
        }
        assert!(first.iter().enumerate().all(|(i, p)| p.shard == i), "shard-id order");
        for (s, checkpoint) in checkpoints.into_iter().enumerate() {
            assert_eq!(
                cluster.shard(s).kairos().platform().checkpoint(),
                checkpoint,
                "probing left shard {s} untouched"
            );
        }
        assert!(cluster.take_events().is_empty(), "probes emit nothing");
    }

    #[test]
    fn rebalance_moves_work_from_loaded_to_idle_shards() {
        // FirstFit concentrates everything on shard 0; the sweep then
        // spreads it across the boundary.
        let mut cluster =
            ClusterBuilder::new(topology::dsp_mesh(4, 2), 2).deterministic(true).build().unwrap();
        for i in 0..3 {
            cluster.submit(Request::admit(
                i,
                chain(&format!("m{i}"), 1, 600),
                PriorityClass::Normal,
            ));
        }
        let admitted = cluster.take_events().len();
        assert_eq!(admitted, 3);
        assert_eq!(cluster.shard(0).kairos().admitted_count(), 3, "first-fit piles on shard 0");
        assert_eq!(cluster.shard(1).kairos().admitted_count(), 0);

        let ticket = cluster.submit(Request::new(10, Command::Rebalance { max_moves: 8 }));
        let events = cluster.take_events();
        let Some(Event::Rebalanced { ticket: t, moves }) =
            events.iter().find(|e| matches!(e, Event::Rebalanced { .. }))
        else {
            panic!("rebalance must report: {events:?}")
        };
        assert_eq!(*t, ticket);
        assert!(!moves.is_empty(), "the imbalance must trigger moves");
        for &(from, to) in moves {
            assert_eq!(cluster.shard_of_app(from), 0);
            assert_eq!(cluster.shard_of_app(to), 1, "moves cross the boundary");
            assert!(cluster.shard(1).kairos().admitted_ids().contains(&to));
            assert!(!cluster.shard(0).kairos().admitted_ids().contains(&from));
        }
        assert_eq!(cluster.shard_count_admitted(), 3, "rebalance moves apps, it never loses them");
        let loads = cluster.loads();
        assert!(
            (loads[0].resource_utilisation - loads[1].resource_utilisation).abs()
                < REBALANCE_GAP + 0.35,
            "the sweep narrows the gap: {loads:?}"
        );
        // A balanced cluster's follow-up sweep is a no-op.
        cluster.submit(Request::new(11, Command::Rebalance { max_moves: 8 }));
        let events = cluster.take_events();
        assert!(matches!(
            events.as_slice(),
            [Event::Rebalanced { moves, .. }] if moves.is_empty()
        ));
        // Ledger balance: releasing everything restores both shards.
        for s in 0..2 {
            for id in cluster.shard(s).kairos().admitted_ids() {
                cluster.submit(Request::release(20, id));
            }
        }
        cluster.take_events();
        for s in 0..2 {
            assert!(cluster.shard(s).kairos().platform().is_idle(), "shard {s} leaked claims");
        }
    }

    #[test]
    fn queued_cluster_rebalance_keeps_the_victim_registry_whole() {
        let policy =
            AdmitPolicy { class_capacity: [8, 8, 8, 8], max_wait: None, ..AdmitPolicy::default() };
        let mut cluster = ClusterBuilder::new(topology::dsp_mesh(4, 2), 2)
            .deterministic(true)
            .admission(policy)
            .build()
            .unwrap();
        for i in 0..3 {
            cluster.submit(Request::admit(i, chain(&format!("q{i}"), 1, 600), PriorityClass::Low));
        }
        cluster.take_events();
        cluster.submit(Request::new(5, Command::Rebalance { max_moves: 4 }));
        let events = cluster.take_events();
        let Some(Event::Rebalanced { moves, .. }) =
            events.iter().find(|e| matches!(e, Event::Rebalanced { .. }))
        else {
            panic!("rebalance must report: {events:?}")
        };
        assert!(!moves.is_empty());
        // The moved app keeps its admission class on its new shard.
        for &(_, to) in moves {
            let home = cluster.shard_of_app(to);
            assert_eq!(
                cluster.shard(home).admitd().unwrap().admitted_class(to),
                Some(PriorityClass::Low),
                "the import registered in the destination victim registry"
            );
        }
    }

    /// Regression test for the rebalance event order: a sweep's source
    /// releases drain source-shard waiters, and a later iteration may
    /// move an application a drain admitted moments earlier — so every
    /// drain `Admitted` must be emitted *before* the `Rebalanced` that
    /// may rename its application. A driver folding the stream in order
    /// (the sim engine's live-app accounting) would otherwise see a move
    /// of an application it has never heard of.
    #[test]
    fn rebalance_emits_drain_admissions_before_the_sweep_summary() {
        let policy =
            AdmitPolicy { class_capacity: [4, 4, 4, 4], max_wait: None, ..AdmitPolicy::default() };
        let mut cluster = ClusterBuilder::new(topology::dsp_mesh(8, 2), 2)
            .deterministic(true)
            .admission(policy)
            .build()
            .unwrap();
        // Fill both shards completely, then queue a waiter that fits
        // nowhere (it lands on the fallback shard 0), then empty most of
        // shard 1 so the sweep pulls work across the boundary.
        for i in 0..8 {
            cluster.submit(Request::admit(i, chain(&format!("f{i}"), 2, 990), PriorityClass::Low));
        }
        let waiter =
            cluster.submit(Request::admit(8, chain("waiter", 1, 500), PriorityClass::Normal));
        let setup = cluster.take_events();
        assert!(
            setup.iter().any(|e| matches!(e, Event::Queued { ticket, .. } if *ticket == waiter)),
            "the waiter must queue: {setup:?}"
        );
        let shard1_apps = cluster.shard(1).kairos().admitted_ids();
        for id in shard1_apps.iter().take(3) {
            cluster.submit(Request::release(9, *id));
        }
        cluster.take_events();

        cluster.submit(Request::new(10, Command::Rebalance { max_moves: 8 }));
        let events = cluster.take_events();
        let rebalance_at = events
            .iter()
            .position(|e| matches!(e, Event::Rebalanced { .. }))
            .expect("the sweep reports");
        assert_eq!(rebalance_at, events.len() - 1, "sweep summary comes last: {events:?}");
        let Event::Rebalanced { moves, .. } = &events[rebalance_at] else { unreachable!() };
        assert!(!moves.is_empty(), "the skew must trigger moves: {events:?}");
        // The first cross-shard release freed room for the waiter.
        let drained = events
            .iter()
            .position(|e| matches!(e, Event::Admitted { ticket, .. } if *ticket == waiter));
        assert!(drained.is_some_and(|i| i < rebalance_at), "drain precedes summary: {events:?}");
        // An in-order fold (the sim's) only ever sees moves of known apps.
        let mut live: Vec<AppId> = Vec::new();
        for s in 0..2 {
            live.extend(cluster.shard(s).kairos().admitted_ids());
        }
        let mut known: Vec<AppId> = setup
            .iter()
            .filter_map(|e| match e {
                Event::Admitted { report, .. } => Some(report.app_id),
                _ => None,
            })
            .collect();
        for event in &events {
            match event {
                Event::Admitted { report, .. } => known.push(report.app_id),
                Event::Rebalanced { moves, .. } => {
                    for &(from, to) in moves {
                        assert!(known.contains(&from), "move of an unknown app {from}");
                        known.retain(|&id| id != from);
                        known.push(to);
                    }
                }
                _ => {}
            }
        }
    }

    #[test]
    fn cluster_occupancy_aggregates_across_shards() {
        let mut cluster = cluster(3);
        assert_eq!(cluster.occupancy().admitted_apps, 0);
        assert_eq!(cluster.occupancy().free_islands, 3, "each shard is one idle island");
        for i in 0..4 {
            cluster.submit(Request::admit(
                i,
                chain(&format!("o{i}"), 2, 600),
                PriorityClass::Normal,
            ));
        }
        cluster.take_events();
        let occ = cluster.occupancy();
        assert_eq!(occ.admitted_apps, 4);
        assert!(occ.element_utilisation > 0.0 && occ.element_utilisation < 1.0);
        assert!(occ.resource_utilisation > 0.0);
        assert_eq!(cluster.shard_count_admitted(), 4);
    }

    /// Batched waves count their placements exactly like single
    /// submissions: one per admission, plus a fallback when no shard fits.
    #[test]
    fn batched_placements_are_counted() {
        let telemetry = Telemetry::new(TelemetryConfig::default());
        let mut cluster = ClusterBuilder::new(topology::crisp(), 2)
            .deterministic(true)
            .telemetry(telemetry.clone())
            .build()
            .unwrap();
        let mut wave: Vec<Request> = (0..6)
            .map(|i| Request::admit(i, chain(&format!("b{i}"), 2, 600), PriorityClass::Normal))
            .collect();
        wave.push(Request::admit(6, chain("hopeless", 1, 100_000), PriorityClass::Normal));
        cluster.submit_batch(wave);
        let count = |name: &str| telemetry.counter(name).unwrap().get();
        assert_eq!(count("kairos.cluster.placements"), 7);
        assert_eq!(count("kairos.cluster.placement.fallbacks"), 1);
    }

    /// Every probe records its own pipeline time into its shard's
    /// `probe.ns` histogram, inline (one shard) and on the pool (two):
    /// nonzero on the wall phase clock, zero on the deterministic one,
    /// with the same sample counts either way.
    #[test]
    fn probe_histograms_record_each_probes_pipeline_time() {
        let apps: Vec<Application> = (0..4)
            .map(|i| chain(&format!("p{i}"), 2, 600))
            .chain([chain("hopeless", 1, 100_000)])
            .collect();
        let samples = |shards: usize, deterministic: bool| {
            let telemetry = Telemetry::new(TelemetryConfig::default());
            let mut cluster = ClusterBuilder::new(topology::crisp(), shards)
                .deterministic(deterministic)
                .telemetry(telemetry.clone())
                .build()
                .unwrap();
            cluster.probe_admit_wave(&apps);
            cluster.probe_admit(&apps[0]);
            (0..shards)
                .map(|i| {
                    let name = format!("kairos.cluster.shard{i}.probe.ns");
                    telemetry.histogram(&name, DURATION_NS_BOUNDS).unwrap().snapshot()
                })
                .collect::<Vec<_>>()
        };
        for shards in [1, 2] {
            let (wall, zero) = (samples(shards, false), samples(shards, true));
            for (wall, zero) in wall.iter().zip(&zero) {
                assert_eq!(wall.count, apps.len() as u64 + 1, "one sample per probe");
                assert!(wall.min > 0, "every wall-clock probe took time: {wall:?}");
                assert_eq!(zero.count, wall.count);
                assert_eq!((zero.sum, zero.max), (0, 0), "the zero clock records zeros");
            }
        }
    }

    /// A request at its terminal event leaves no ticket mapping behind:
    /// thousands of admit/release/preempt cycles — single and batched,
    /// with migrations, defrags, faults and repairs in between — through
    /// `Shutdown` leave every shard's map empty.
    #[test]
    fn retired_requests_leave_no_per_request_state() {
        let policy = AdmitPolicy {
            class_capacity: [4, 4, 4, 4],
            preemption: kairos_admitd::PreemptionPolicy::Evict,
            ..AdmitPolicy::default()
        };
        let mut cluster = ClusterBuilder::new(topology::crisp(), 2)
            .deterministic(true)
            .admission(policy)
            .build()
            .unwrap();
        let mut live: Vec<AppId> = Vec::new();
        let mut preempted = 0;
        for i in 0..2_000u64 {
            let class = if i % 5 == 4 { PriorityClass::Critical } else { PriorityClass::Low };
            let tasks = 1 + i as usize % 3;
            let admit = || Request::admit(i, chain(&format!("a{i}"), tasks, 600), class);
            if i % 3 == 0 {
                cluster.submit_batch(vec![admit(), admit()]);
            } else {
                cluster.submit(admit());
            }
            if i % 2 == 1 && !live.is_empty() {
                let app = live.remove(0);
                cluster.submit(Request::new(i, Command::Release { app }));
            }
            if i % 40 == 0 {
                if let Some(&app) = live.last() {
                    cluster.submit(Request::new(i, Command::Migrate { app, avoid: Vec::new() }));
                }
                cluster.submit(Request::new(i, Command::Defrag { max_moves: 2 }));
                let element = ElementId((i / 40 % 40) as u32);
                cluster.submit(Request::new(i, Command::InjectFault { element }));
                cluster.submit(Request::new(i, Command::Repair { element }));
            }
            for event in cluster.take_events() {
                match event {
                    Event::Admitted { report, .. } => live.push(report.app_id),
                    Event::Preempted { victim, .. } => {
                        preempted += 1;
                        live.retain(|&app| app != victim);
                    }
                    _ => {}
                }
            }
        }
        cluster.pump(CapacityEvent::Shutdown { now: 2_000 });
        assert!(preempted > 0, "the run must exercise preemption requeues");
        for shard in &cluster.shards {
            assert!(shard.tickets.is_empty(), "{} mappings left", shard.tickets.len());
        }
    }
}
