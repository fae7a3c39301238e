//! # kairos-gateway
//!
//! A serving front-end over the [`ResourceService`] surface: it accepts
//! requests ahead of the service, holds them in bounded per-shard lanes
//! and forwards them in a deterministic order.
//!
//! The paper's run-time manager answers one admission at a time; a
//! deployment accepts many requests before any of them is decided. The
//! gateway bridges the two without giving up byte-determinism:
//!
//! * **Ticket-ordered scheduling** — every accepted `enqueue` or
//!   `enqueue_batch` becomes one *unit*: its member tickets, each
//!   member's lane and a stage (acquiring member *i*'s lane slot, or
//!   awaiting member *i*'s terminal event). A [`Gateway::drive`] pass
//!   always steps the lowest ready unit first, so concurrency never
//!   reorders decisions: a double run is byte-identical, tens of
//!   thousands of admissions in flight or not.
//! * **Per-shard bounded lanes** — requests are striped over one bounded
//!   lane per shard of the inner service
//!   ([`ResourceService::shard_count`]). A full lane parks the unit
//!   (counted in [`GatewayCounters::parked`]) until a completion frees a
//!   slot; parked units resume lowest-ticket-first.
//! * **One service surface** — [`Gateway`] itself implements
//!   [`ResourceService`], driving each submission as far as it goes
//!   before returning. In that lockstep mode the gateway mints the same
//!   ticket numbers as the wrapped service and reproduces its event
//!   stream byte for byte (the `gateway_equivalence` suite pins this
//!   across queued, clustered, preempting and cached regimes). The
//!   deferred API ([`Gateway::enqueue`] + [`Gateway::drive`]) relaxes
//!   only *when* work happens, never what is decided. A ticket's events
//!   are the delivered events whose [`Event::ticket`] names it.
//! * **Optional admit coalescing** — [`GatewayConfig::coalesce`] merges
//!   contiguous single admissions flushed in one drive pass into one
//!   [`ResourceService::submit_batch`] wave (one platform transaction,
//!   one drain pass). That changes how the inner service is driven, so
//!   it is off by default and excluded from the sync-equivalence
//!   guarantee; the `gateway` bench uses it for the wave-throughput
//!   comparison.
//!
//! Telemetry: when constructed over a lit hub
//! ([`Gateway::with_telemetry`]) the gateway registers
//! `kairos.gateway.submitted` / `.forwarded` / `.batches` counters, a
//! `kairos.gateway.inflight` gauge, per-lane `kairos.gateway.lane{i}.depth`
//! gauges and a `kairos.gateway.completion.ticks` histogram of
//! virtual-tick completion latency. All values derive from the virtual
//! clock and per-ticket bookkeeping, so a lit run stays byte-identical
//! to a dark one apart from the report's telemetry section.
//!
//! ## Example
//!
//! ```
//! use kairos_gateway::{Gateway, GatewayConfig};
//! use kairos_svc::{Request, ResourceService, ServiceBuilder, PriorityClass};
//! use kairos_appgen::{AppGenerator, GeneratorConfig};
//! use kairos_platform::topology;
//!
//! let inner = ServiceBuilder::new(topology::crisp()).deterministic(true).build()?;
//! let mut gateway = Gateway::new(Box::new(inner), GatewayConfig::default());
//! let mut generator = AppGenerator::new(GeneratorConfig::default(), 7);
//!
//! // Deferred serving: accept a burst, then drive it to completion.
//! for i in 0..16 {
//!     gateway.enqueue(Request::admit(i, generator.generate(format!("app-{i}")), PriorityClass::Normal));
//! }
//! gateway.drive();
//! assert_eq!(gateway.stats().completions, 16);
//! assert_eq!(gateway.take_events().len(), 16);
//! # Ok::<(), String>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex, PoisonError};

use kairos_core::{CacheStats, ElementActivity, Kairos, OccupancySnapshot};
use kairos_svc::{CapacityEvent, Command, Event, Request, ResourceService, Ticket};
use kairos_telemetry::{Counter, Gauge, Histogram, Telemetry};

/// Power-of-two bucket bounds for the completion-latency histogram
/// (virtual ticks from acceptance to terminal event).
pub const COMPLETION_BOUNDS: [u64; 13] = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096];

/// Gateway tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GatewayConfig {
    /// Bound of each per-shard request lane: how many accepted requests
    /// may be in flight per lane before further requests park. The
    /// default is large enough that the synchronous lockstep path never
    /// parks (preserving sync equivalence); serving benchmarks shrink it
    /// to exercise backpressure.
    pub channel_capacity: usize,
    /// Merge contiguous single admissions flushed in one drive pass into
    /// one batched wave. Off by default: coalescing changes how the
    /// inner service is driven (batched drains), so it is excluded from
    /// the sync-equivalence guarantee.
    pub coalesce: bool,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig { channel_capacity: 65_536, coalesce: false }
    }
}

/// Lifetime counters of one gateway.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GatewayCounters {
    /// Requests accepted (`enqueue`, and each batch member).
    pub submitted: u64,
    /// Requests forwarded into the inner service.
    pub forwarded: u64,
    /// Forwards that went through `ResourceService::submit`.
    pub singles: u64,
    /// Forwards that went through `ResourceService::submit_batch`
    /// (enqueued batches plus coalesced waves).
    pub batches: u64,
    /// Single admissions absorbed into coalesced waves.
    pub coalesced: u64,
    /// Requests driven to their terminal event.
    pub completions: u64,
    /// Most accepted units (an `enqueue`, or a whole `enqueue_batch`)
    /// in flight at once.
    pub peak_inflight: u64,
    /// Times a request parked on a full lane.
    pub parked: u64,
}

/// A cloneable read handle on a gateway's counters, for reporting after
/// the gateway itself (or the service stack owning it) is consumed.
#[derive(Debug, Clone)]
pub struct GatewayStats {
    counters: Arc<Mutex<GatewayCounters>>,
}

impl GatewayStats {
    /// The counters as of now.
    pub fn snapshot(&self) -> GatewayCounters {
        *self.counters.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Every update is a plain counter bump that cannot panic half-way,
    /// so a poisoned lock still guards valid counters.
    fn update(&self, f: impl FnOnce(&mut GatewayCounters)) {
        f(&mut self.counters.lock().unwrap_or_else(PoisonError::into_inner));
    }
}

/// Pre-resolved registry handles, present only over a lit hub.
#[derive(Debug, Clone)]
struct GatewayMetrics {
    submitted: Arc<Counter>,
    forwarded: Arc<Counter>,
    batches: Arc<Counter>,
    inflight: Arc<Gauge>,
    completion: Arc<Histogram>,
}

impl GatewayMetrics {
    fn new(telemetry: &Telemetry) -> Option<Self> {
        let registry = telemetry.registry()?;
        Some(GatewayMetrics {
            submitted: registry.counter("kairos.gateway.submitted"),
            forwarded: registry.counter("kairos.gateway.forwarded"),
            batches: registry.counter("kairos.gateway.batches"),
            inflight: registry.gauge("kairos.gateway.inflight"),
            completion: registry.histogram("kairos.gateway.completion.ticks", &COMPLETION_BOUNDS),
        })
    }
}

/// The terminal event kind a ticket's command resolves with. `Migrated`
/// events can name tickets that merely *caused* a move (a preemption's
/// make-before-break detour), so completion matches the expected kind,
/// never just the ticket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Expect {
    Admit,
    Release,
    Migrate,
    Defrag,
    Fault,
    Repair,
    Rebalance,
}

impl Expect {
    fn of(command: &Command) -> Expect {
        match command {
            Command::Admit { .. } => Expect::Admit,
            Command::Release { .. } => Expect::Release,
            Command::Migrate { .. } => Expect::Migrate,
            Command::Defrag { .. } => Expect::Defrag,
            Command::InjectFault { .. } => Expect::Fault,
            Command::Repair { .. } => Expect::Repair,
            Command::Rebalance { .. } => Expect::Rebalance,
        }
    }

    fn is_terminal(self, event: &Event) -> bool {
        matches!(
            (self, event),
            (Expect::Admit, Event::Admitted { .. } | Event::Rejected { .. })
                | (Expect::Release, Event::Released { .. })
                | (Expect::Migrate, Event::Migrated { .. } | Event::MigrationFailed { .. })
                | (Expect::Defrag, Event::Defragged { .. })
                | (Expect::Fault, Event::ElementFailed { .. })
                | (Expect::Repair, Event::ElementRepaired { .. })
                | (Expect::Rebalance, Event::Rebalanced { .. })
        )
    }
}

/// A unit's requests, held until every member has its lane slot; the
/// flush after a stepping pass forwards them in stepping order.
#[derive(Debug)]
enum Forward {
    Single(u64, Request),
    Batch(Vec<u64>, Vec<Request>),
}

/// Where a unit stands: acquiring member *i*'s lane slot, or awaiting
/// member *i*'s terminal event.
#[derive(Debug, Clone, Copy)]
enum Stage {
    Acquire(usize),
    Await(usize),
}

/// One accepted `enqueue` (one member) or `enqueue_batch` (one member
/// per request). A batch claims every member's slot, in ticket order,
/// before it forwards, and frees them in the same order as its members
/// finish.
#[derive(Debug)]
struct Unit {
    /// Each member's gateway ticket and lane.
    members: Vec<(u64, usize)>,
    /// The requests, until forwarded.
    forward: Option<Forward>,
    stage: Stage,
}

/// One accepted request not yet at its terminal event.
#[derive(Debug)]
struct Pending {
    unit: u64,
    expect: Expect,
    accepted_at: u64,
}

/// One bounded per-shard request lane.
#[derive(Debug)]
struct Lane {
    inflight: usize,
    /// Parked units, keyed by the ticket of the member waiting for a
    /// slot; a freed slot readies the lowest, so lane handoff order is
    /// deterministic.
    parked: BTreeMap<u64, u64>,
    depth: Option<Arc<Gauge>>,
}

impl Lane {
    fn set_inflight(&mut self, inflight: usize) {
        self.inflight = inflight;
        if let Some(depth) = &self.depth {
            depth.set(inflight as i64);
        }
    }
}

/// The serving front-end. See the crate docs for the model.
#[derive(Debug)]
pub struct Gateway {
    inner: Box<dyn ResourceService + Send>,
    lanes: Vec<Lane>,
    /// Set at shutdown: lanes stop bounding so every parked request
    /// flushes into the inner service before its final drain.
    draining: bool,
    /// Accepted units by acceptance order.
    units: BTreeMap<u64, Unit>,
    next_unit: u64,
    /// Units that can make progress; stepped lowest key first.
    ready: BTreeSet<u64>,
    /// Requests stepped past their lane, awaiting the next flush.
    forwards: Vec<Forward>,
    /// Accepted requests by gateway ticket, until their terminal event.
    pending: BTreeMap<u64, Pending>,
    /// Gateway ticket mint; tracks the inner service numerically in
    /// lockstep mode.
    next_ticket: u64,
    /// inner ticket → gateway ticket, minted on first sight in event
    /// order (covers preemption requeues the inner service mints) and
    /// dropped at the ticket's terminal event.
    tickets: BTreeMap<u64, Ticket>,
    outbox: Vec<Event>,
    now: u64,
    config: GatewayConfig,
    stats: GatewayStats,
    metrics: Option<GatewayMetrics>,
}

impl Gateway {
    /// Wraps `inner` with a dark telemetry hub.
    pub fn new(inner: Box<dyn ResourceService + Send>, config: GatewayConfig) -> Self {
        Gateway::with_telemetry(inner, config, Telemetry::disabled())
    }

    /// Wraps `inner`, registering the `kairos.gateway.*` instruments on
    /// `telemetry` when it is lit. One bounded lane is created per inner
    /// shard ([`ResourceService::shard_count`]); a zero
    /// [`GatewayConfig::channel_capacity`] is clamped to one.
    pub fn with_telemetry(
        inner: Box<dyn ResourceService + Send>,
        config: GatewayConfig,
        telemetry: Telemetry,
    ) -> Self {
        let lanes = (0..inner.shard_count().max(1))
            .map(|i| Lane {
                inflight: 0,
                parked: BTreeMap::new(),
                depth: telemetry.gauge(&format!("kairos.gateway.lane{i}.depth")),
            })
            .collect();
        Gateway {
            inner,
            lanes,
            draining: false,
            units: BTreeMap::new(),
            next_unit: 0,
            ready: BTreeSet::new(),
            forwards: Vec::new(),
            pending: BTreeMap::new(),
            next_ticket: 0,
            tickets: BTreeMap::new(),
            outbox: Vec::new(),
            now: 0,
            config: GatewayConfig { channel_capacity: config.channel_capacity.max(1), ..config },
            stats: GatewayStats { counters: Arc::default() },
            metrics: GatewayMetrics::new(&telemetry),
        }
    }

    /// The configuration the gateway runs with.
    pub fn config(&self) -> GatewayConfig {
        self.config
    }

    /// Number of per-shard request lanes (the inner service's shard
    /// count).
    pub fn lane_count(&self) -> usize {
        self.lanes.len()
    }

    /// Accepted units (an `enqueue`, or a whole `enqueue_batch`) not yet
    /// retired: some member is still short of its terminal event.
    pub fn inflight(&self) -> usize {
        self.units.len()
    }

    /// The counters as of now.
    pub fn stats(&self) -> GatewayCounters {
        self.stats.snapshot()
    }

    /// A cloneable counter handle that outlives the gateway's ownership
    /// (drivers embed it in their final report).
    pub fn stats_handle(&self) -> GatewayStats {
        self.stats.clone()
    }

    fn mint(&mut self) -> Ticket {
        let ticket = Ticket(self.next_ticket);
        self.next_ticket += 1;
        ticket
    }

    /// The gateway ticket of an inner ticket, minting one on first sight
    /// (the inner service mints fresh tickets for preemption requeues;
    /// they join the gateway's ticket space here, in event order).
    fn map(&mut self, inner: Ticket) -> Ticket {
        if let Some(&ticket) = self.tickets.get(&inner.0) {
            return ticket;
        }
        let ticket = self.mint();
        self.tickets.insert(inner.0, ticket);
        ticket
    }

    /// Accepts one request without driving it: its unit takes a lane
    /// slot and forwards on the next [`Gateway::drive`] pass, and
    /// retires at the request's terminal event.
    pub fn enqueue(&mut self, request: Request) -> Ticket {
        let ticket = self.mint();
        let lane = self.accept(ticket, &request);
        self.push_unit(vec![(ticket.0, lane)], Forward::Single(ticket.0, request));
        ticket
    }

    /// Accepts a whole arrival wave as one batched operation (one ticket
    /// per request, forwarded through [`ResourceService::submit_batch`]).
    pub fn enqueue_batch(&mut self, requests: Vec<Request>) -> Vec<Ticket> {
        let tickets: Vec<Ticket> = requests.iter().map(|_| self.mint()).collect();
        let members =
            tickets.iter().zip(&requests).map(|(&t, r)| (t.0, self.accept(t, r))).collect();
        let ids = tickets.iter().map(|t| t.0).collect();
        self.push_unit(members, Forward::Batch(ids, requests));
        tickets
    }

    /// Books `request` as pending under `ticket` in the next unit and
    /// returns its lane.
    fn accept(&mut self, ticket: Ticket, request: &Request) -> usize {
        self.now = self.now.max(request.at);
        let pending = Pending {
            unit: self.next_unit,
            expect: Expect::of(&request.command),
            accepted_at: request.at,
        };
        self.pending.insert(ticket.0, pending);
        self.stats.update(|s| s.submitted += 1);
        if let Some(metrics) = &self.metrics {
            metrics.submitted.add(1);
        }
        (ticket.0 as usize) % self.lanes.len()
    }

    fn push_unit(&mut self, members: Vec<(u64, usize)>, forward: Forward) {
        let key = self.next_unit;
        self.next_unit += 1;
        self.units.insert(key, Unit { members, forward: Some(forward), stage: Stage::Acquire(0) });
        self.ready.insert(key);
        let inflight = self.units.len() as u64;
        self.stats.update(|s| s.peak_inflight = s.peak_inflight.max(inflight));
    }

    /// Advances unit `key` until it blocks on a full lane or an
    /// unfinished member, or retires.
    fn step(&mut self, key: u64) {
        let Some(unit) = self.units.get_mut(&key) else { return };
        loop {
            match unit.stage {
                Stage::Acquire(i) => {
                    let Some(&(ticket, lane)) = unit.members.get(i) else {
                        self.forwards.extend(unit.forward.take());
                        unit.stage = Stage::Await(0);
                        continue;
                    };
                    let lane = &mut self.lanes[lane];
                    if !self.draining && lane.inflight >= self.config.channel_capacity {
                        if lane.parked.insert(ticket, key).is_none() {
                            self.stats.update(|s| s.parked += 1);
                        }
                        return;
                    }
                    lane.set_inflight(lane.inflight + 1);
                    unit.stage = Stage::Acquire(i + 1);
                }
                Stage::Await(i) => {
                    let Some(&(ticket, lane)) = unit.members.get(i) else {
                        self.units.remove(&key);
                        return;
                    };
                    if self.pending.contains_key(&ticket) {
                        return;
                    }
                    let lane = &mut self.lanes[lane];
                    lane.set_inflight(lane.inflight.saturating_sub(1));
                    if let Some((_, waiter)) = lane.parked.pop_first() {
                        self.ready.insert(waiter);
                    }
                    unit.stage = Stage::Await(i + 1);
                }
            }
        }
    }

    /// Runs the scheduler until no unit can make progress: steps every
    /// ready unit (lowest key first), flushes the requests they forwarded
    /// into the inner service, delivers the resulting events (readying
    /// the units whose members finished), and repeats until a pass
    /// forwards nothing.
    pub fn drive(&mut self) {
        loop {
            while let Some(key) = self.ready.pop_first() {
                self.step(key);
            }
            if !self.flush_forwards() {
                break;
            }
        }
        if let Some(metrics) = &self.metrics {
            metrics.inflight.set(self.units.len() as i64);
        }
    }

    /// Pushes every forward of the last stepping pass into the inner
    /// service, delivering the inner events after each push. Returns
    /// whether anything was forwarded.
    fn flush_forwards(&mut self) -> bool {
        let forwards = std::mem::take(&mut self.forwards);
        if forwards.is_empty() {
            return false;
        }
        let forwards = if self.config.coalesce { self.coalesce(forwards) } else { forwards };
        for forward in forwards {
            let (ids, inners, batch) = match forward {
                Forward::Single(id, request) => (vec![id], vec![self.inner.submit(request)], false),
                Forward::Batch(ids, requests) => (ids, self.inner.submit_batch(requests), true),
            };
            let count = ids.len() as u64;
            for (inner, id) in inners.iter().zip(ids) {
                self.tickets.insert(inner.0, Ticket(id));
            }
            self.stats.update(|s| {
                s.forwarded += count;
                if batch {
                    s.batches += 1;
                } else {
                    s.singles += 1;
                }
            });
            if let Some(metrics) = &self.metrics {
                metrics.forwarded.add(count);
                if batch {
                    metrics.batches.add(1);
                }
            }
            let events = self.inner.take_events();
            self.deliver(events, true);
        }
        true
    }

    /// Merges contiguous runs of single admissions into one batched
    /// wave each; other commands keep their position and break runs.
    fn coalesce(&mut self, forwards: Vec<Forward>) -> Vec<Forward> {
        let mut out = Vec::with_capacity(forwards.len());
        let mut run: Vec<(u64, Request)> = Vec::new();
        let flush = |run: &mut Vec<(u64, Request)>, out: &mut Vec<Forward>| match run.len() {
            0 => {}
            1 => out.extend(run.drain(..).map(|(id, request)| Forward::Single(id, request))),
            n => {
                self.stats.update(|s| s.coalesced += n as u64);
                let (ids, requests) = run.drain(..).unzip();
                out.push(Forward::Batch(ids, requests));
            }
        };
        for forward in forwards {
            match forward {
                Forward::Single(id, request)
                    if matches!(request.command, Command::Admit { .. }) =>
                {
                    run.push((id, request));
                }
                other => {
                    flush(&mut run, &mut out);
                    out.push(other);
                }
            }
        }
        flush(&mut run, &mut out);
        out
    }

    /// Translates inner events into the gateway ticket space, retires
    /// tickets reaching their expected terminal event (readying their
    /// units), and either buffers the events for
    /// [`ResourceService::take_events`] (`to_outbox`) or returns them
    /// (the pump path).
    fn deliver(&mut self, events: Vec<Event>, to_outbox: bool) -> Vec<Event> {
        let mut out = Vec::with_capacity(events.len());
        for event in events {
            let inner_subject = event.ticket();
            let event = self.translate(event);
            let subject = event.ticket();
            let terminal =
                self.pending.get(&subject.0).is_some_and(|p| p.expect.is_terminal(&event));
            if terminal {
                self.finish(subject);
            }
            // A ticket's mapping retires with it; requeue tickets the
            // inner service minted have no pending entry and retire at
            // their admission outcome.
            if terminal || matches!(event, Event::Admitted { .. } | Event::Rejected { .. }) {
                self.tickets.remove(&inner_subject.0);
            }
            out.push(event);
        }
        if to_outbox {
            self.outbox.append(&mut out);
        }
        out
    }

    fn finish(&mut self, ticket: Ticket) {
        let Some(pending) = self.pending.remove(&ticket.0) else { return };
        if let Some(metrics) = &self.metrics {
            metrics.completion.record(self.now.saturating_sub(pending.accepted_at));
        }
        self.stats.update(|s| s.completions += 1);
        self.ready.insert(pending.unit);
    }

    /// Unbounds the lanes and readies every parked unit, so the next
    /// drive flushes them all.
    fn drain(&mut self) {
        self.draining = true;
        for lane in &mut self.lanes {
            self.ready.extend(std::mem::take(&mut lane.parked).into_values());
        }
    }

    /// Rewrites every ticket field of `event` into the gateway ticket
    /// space. Field order mirrors the inner service's own front-end
    /// translation (`by` before `requeued_as`) so mint-on-first-sight
    /// produces the same numbering.
    fn translate(&mut self, event: Event) -> Event {
        match event {
            Event::Queued { ticket, class, depth } => {
                Event::Queued { ticket: self.map(ticket), class, depth }
            }
            Event::Admitted { ticket, class, app, report, waited, attempts } => {
                Event::Admitted { ticket: self.map(ticket), class, app, report, waited, attempts }
            }
            Event::AttemptFailed { ticket, class, attempt, phase } => {
                Event::AttemptFailed { ticket: self.map(ticket), class, attempt, phase }
            }
            Event::Rejected { ticket, class, cause, waited } => {
                Event::Rejected { ticket: self.map(ticket), class, cause, waited }
            }
            Event::Preempted { victim, class, requeued_as, by } => {
                let by = self.map(by);
                let requeued_as = self.map(requeued_as);
                Event::Preempted { victim, class, requeued_as, by }
            }
            Event::Migrated { ticket, app, moved_tasks } => {
                Event::Migrated { ticket: self.map(ticket), app, moved_tasks }
            }
            Event::MigrationFailed { ticket, app, error } => {
                Event::MigrationFailed { ticket: self.map(ticket), app, error }
            }
            Event::Released { ticket, app, found } => {
                Event::Released { ticket: self.map(ticket), app, found }
            }
            Event::ElementFailed { ticket, element, evicted } => {
                Event::ElementFailed { ticket: self.map(ticket), element, evicted }
            }
            Event::ElementRepaired { ticket, element } => {
                Event::ElementRepaired { ticket: self.map(ticket), element }
            }
            Event::Defragged { ticket, moves } => {
                Event::Defragged { ticket: self.map(ticket), moves }
            }
            Event::Rebalanced { ticket, moves } => {
                Event::Rebalanced { ticket: self.map(ticket), moves }
            }
        }
    }
}

impl ResourceService for Gateway {
    /// Accepts the request and drives it as far as the inner service
    /// allows before returning — the synchronous lockstep mode, byte-
    /// identical to driving the inner service directly (under a default
    /// config).
    fn submit(&mut self, request: Request) -> Ticket {
        let ticket = self.enqueue(request);
        self.drive();
        ticket
    }

    fn submit_batch(&mut self, requests: Vec<Request>) -> Vec<Ticket> {
        let tickets = self.enqueue_batch(requests);
        self.drive();
        tickets
    }

    fn pump(&mut self, event: CapacityEvent) -> Vec<Event> {
        match event {
            CapacityEvent::Tick { now } => {
                self.now = self.now.max(now);
                let events = self.inner.pump(event);
                let mut out = self.deliver(events, false);
                // Completions may have freed lane slots: let parked
                // requests forward, and hand their events back with the
                // pump's (in lockstep mode nothing is ever parked, so
                // this adds nothing and sync equivalence holds).
                let flushed = self.outbox.len();
                self.drive();
                out.extend(self.outbox.split_off(flushed));
                out
            }
            CapacityEvent::Shutdown { now } => {
                self.now = self.now.max(now);
                // Unbound the lanes and flush every parked request into
                // the inner service so its shutdown drain sees them;
                // their events precede the drain's chronologically.
                self.drain();
                let flushed = self.outbox.len();
                self.drive();
                let mut out = self.outbox.split_off(flushed);
                let events = self.inner.pump(event);
                out.extend(self.deliver(events, false));
                // Retire the units those completions readied (everything
                // is already flushed, so this forwards nothing new).
                self.drive();
                out
            }
        }
    }

    fn take_events(&mut self) -> Vec<Event> {
        std::mem::take(&mut self.outbox)
    }

    fn kairos(&self) -> &Kairos {
        self.inner.kairos()
    }

    fn queue_depth(&self) -> usize {
        self.inner.queue_depth()
    }

    fn occupancy(&self) -> OccupancySnapshot {
        self.inner.occupancy()
    }

    fn cache_stats(&self) -> Option<CacheStats> {
        self.inner.cache_stats()
    }

    fn shard_count(&self) -> usize {
        self.inner.shard_count()
    }

    fn element_activity(&self) -> Vec<ElementActivity> {
        self.inner.element_activity()
    }
}

// Compile-time thread-safety pin: the gateway is handed across threads
// by serving drivers (and the sim's report finalizer holds its stats
// handle); if any layer silently stopped being `Send`, that would
// regress. Fail the build here instead.
const fn _assert_send<T: Send>() {}
const _: () = _assert_send::<Gateway>();
const _: () = _assert_send::<GatewayStats>();

#[cfg(test)]
mod tests {
    use super::*;

    use kairos_admitd::AdmitPolicy;
    use kairos_appgen::{AppGenerator, GeneratorConfig};
    use kairos_cluster::ClusterBuilder;
    use kairos_platform::{topology, AppId};
    use kairos_svc::{PriorityClass, ServiceBuilder};
    use proptest::prelude::*;

    fn direct_service() -> Box<dyn ResourceService + Send> {
        Box::new(ServiceBuilder::new(topology::crisp()).deterministic(true).build().unwrap())
    }

    fn queued_service(class_capacity: [usize; 4]) -> Box<dyn ResourceService + Send> {
        Box::new(
            ServiceBuilder::new(topology::crisp())
                .deterministic(true)
                .admission(AdmitPolicy {
                    class_capacity,
                    max_wait: Some(400),
                    max_attempts: 5,
                    backoff_base: 1,
                    backoff_cap: 4,
                    ..AdmitPolicy::default()
                })
                .build()
                .unwrap(),
        )
    }

    fn admits(count: usize, seed: u64) -> Vec<Request> {
        let mut generator = AppGenerator::new(GeneratorConfig::default(), seed);
        (0..count)
            .map(|i| {
                Request::admit(
                    i as u64,
                    generator.generate(format!("app-{i}")),
                    PriorityClass::Normal,
                )
            })
            .collect()
    }

    /// Lockstep mode reproduces the sync service byte for byte: same
    /// tickets, same event stream, same occupancy.
    #[test]
    fn lockstep_matches_sync_service_byte_for_byte() {
        let mut sync = direct_service();
        let mut gateway = Gateway::new(direct_service(), GatewayConfig::default());
        for request in admits(24, 11) {
            let a = sync.submit(request.clone());
            let b = gateway.submit(request);
            assert_eq!(a, b);
        }
        let sync_events = sync.pump(CapacityEvent::Shutdown { now: 100 });
        let gate_events = gateway.pump(CapacityEvent::Shutdown { now: 100 });
        assert_eq!(format!("{sync_events:?}"), format!("{gate_events:?}"));
        assert_eq!(format!("{:?}", sync.take_events()), format!("{:?}", gateway.take_events()));
        assert_eq!(sync.occupancy(), gateway.occupancy());
        assert_eq!(sync.queue_depth(), gateway.queue_depth());
    }

    /// Two identical deferred runs produce identical event streams and
    /// counters — the scheduler's ticket-order ready set at work.
    #[test]
    fn double_runs_are_byte_identical() {
        let run = || {
            let mut gateway = Gateway::new(queued_service([8, 8, 16, 8]), GatewayConfig::default());
            for request in admits(40, 3) {
                gateway.enqueue(request);
            }
            gateway.drive();
            gateway.pump(CapacityEvent::Tick { now: 50 });
            let shutdown = gateway.pump(CapacityEvent::Shutdown { now: 200 });
            (format!("{:?}{:?}", gateway.take_events(), shutdown), gateway.stats())
        };
        assert_eq!(run(), run());
    }

    /// Full lanes park requests; the shutdown drain unbounds the
    /// lanes and flushes every parked request into the inner service.
    #[test]
    fn full_lanes_park_requests_until_drain() {
        use kairos_appgen::{generate_dataset, DatasetSpec, Orientation, SizeClass};
        let config = GatewayConfig { channel_capacity: 2, ..GatewayConfig::default() };
        let mut gateway = Gateway::new(queued_service([64, 64, 64, 64]), config);
        // Large applications saturate the platform after a handful of
        // admissions; the rest stay queued (non-terminal), holding their
        // lane slots so later requests park.
        let spec = DatasetSpec { orientation: Orientation::Computation, size: SizeClass::Large };
        for (i, app) in generate_dataset(spec, 40, 7).into_iter().enumerate() {
            gateway.enqueue(Request::admit(i as u64, app, PriorityClass::Normal));
        }
        gateway.drive();
        let mid = gateway.stats();
        assert_eq!(mid.submitted, 40);
        assert!(mid.forwarded < 40, "a full lane must hold requests back");
        assert!(mid.parked > 0);
        gateway.pump(CapacityEvent::Shutdown { now: 500 });
        let done = gateway.stats();
        assert_eq!(done.forwarded, 40, "draining flushes every parked request");
        assert_eq!(done.completions, 40);
        assert_eq!(gateway.inflight(), 0);
    }

    /// Tens of thousands of admissions can sit in flight before a single
    /// drive pass resolves them all — deterministically.
    #[test]
    fn tens_of_thousands_in_flight() {
        let run = || {
            let mut gateway = Gateway::new(direct_service(), GatewayConfig::default());
            for request in admits(20_000, 42) {
                gateway.enqueue(request);
            }
            assert_eq!(gateway.inflight(), 20_000);
            gateway.drive();
            let stats = gateway.stats();
            assert_eq!(stats.peak_inflight, 20_000);
            assert_eq!(stats.completions, 20_000);
            assert_eq!(gateway.inflight(), 0);
            let events = gateway.take_events();
            assert_eq!(events.len(), 20_000);
            format!("{events:?}")
        };
        assert_eq!(run(), run());
    }

    /// A retired request leaves nothing behind: after shutdown no unit,
    /// pending entry or inner-ticket mapping outlives its terminal event.
    #[test]
    fn retired_requests_leave_no_per_request_state() {
        let mut gateway = Gateway::new(direct_service(), GatewayConfig::default());
        for request in admits(20_000, 42) {
            gateway.enqueue(request);
        }
        gateway.drive();
        gateway.pump(CapacityEvent::Shutdown { now: 20_000 });
        assert_eq!(gateway.stats().completions, 20_000);
        assert!(gateway.units.is_empty());
        assert!(gateway.ready.is_empty());
        assert!(gateway.pending.is_empty());
        assert!(gateway.tickets.is_empty());
    }

    /// Preemption requeue tickets the inner service mints retire at their
    /// admission outcome, like accepted tickets at theirs.
    #[test]
    fn requeue_ticket_mappings_retire_with_their_outcome() {
        let inner = ServiceBuilder::new(topology::crisp())
            .deterministic(true)
            .admission(AdmitPolicy {
                class_capacity: [64, 64, 64, 64],
                preemption: kairos_admitd::PreemptionPolicy::Evict,
                ..AdmitPolicy::default()
            })
            .build()
            .unwrap();
        let mut gateway = Gateway::new(Box::new(inner), GatewayConfig::default());
        let mut generator = AppGenerator::new(GeneratorConfig::default(), 21);
        for i in 0..60u64 {
            let class = if i % 4 == 3 { PriorityClass::Critical } else { PriorityClass::Low };
            gateway.submit(Request::admit(i, generator.generate(format!("p{i}")), class));
        }
        gateway.pump(CapacityEvent::Shutdown { now: 1_000 });
        let events = gateway.take_events();
        assert!(events.iter().any(|e| matches!(e, Event::Preempted { .. })), "{events:?}");
        assert!(gateway.pending.is_empty());
        assert!(gateway.tickets.is_empty());
    }

    /// Lanes stripe one-per-shard over a clustered inner service.
    #[test]
    fn lanes_stripe_per_cluster_shard() {
        let cluster =
            ClusterBuilder::new(topology::crisp(), 3).deterministic(true).build().unwrap();
        let gateway = Gateway::new(Box::new(cluster), GatewayConfig::default());
        assert_eq!(gateway.lane_count(), 3);
        assert_eq!(gateway.shard_count(), 3);
    }

    /// Coalescing merges a drive pass's contiguous single admissions
    /// into batched waves without losing completions.
    #[test]
    fn coalescing_batches_contiguous_admits() {
        let config = GatewayConfig { coalesce: true, ..GatewayConfig::default() };
        let mut gateway = Gateway::new(direct_service(), config);
        for request in admits(12, 5) {
            gateway.enqueue(request);
        }
        gateway.drive();
        let stats = gateway.stats();
        assert_eq!(stats.submitted, 12);
        assert_eq!(stats.forwarded, 12);
        assert_eq!(stats.coalesced, 12, "one pass coalesces the whole run");
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.completions, 12);
    }

    /// What reached the inner service, as seen by [`Recorder`]: every
    /// forward's request tags (`Request::at`, unique per accepted
    /// request) in order, and after each forward the tags of requests
    /// forwarded but not yet at their terminal event.
    #[derive(Debug, Default)]
    struct Log {
        forwarded: Vec<u64>,
        open_after_forward: Vec<Vec<u64>>,
        open: BTreeMap<u64, u64>,
        draining: bool,
    }

    /// A pass-through [`ResourceService`] that logs forwards and
    /// terminal events into a shared [`Log`].
    #[derive(Debug)]
    struct Recorder {
        inner: Box<dyn ResourceService + Send>,
        log: Arc<Mutex<Log>>,
    }

    impl Recorder {
        fn note_forward(&mut self, tickets: &[Ticket], tags: Vec<u64>) {
            let mut log = self.log.lock().unwrap();
            log.forwarded.extend(&tags);
            log.open.extend(tickets.iter().map(|t| t.0).zip(tags));
            if !log.draining {
                let open = log.open.values().copied().collect();
                log.open_after_forward.push(open);
            }
        }

        fn note_events(&self, events: Vec<Event>) -> Vec<Event> {
            let mut log = self.log.lock().unwrap();
            for event in &events {
                if matches!(
                    event,
                    Event::Admitted { .. } | Event::Rejected { .. } | Event::Released { .. }
                ) {
                    log.open.remove(&event.ticket().0);
                }
            }
            events
        }
    }

    impl ResourceService for Recorder {
        fn submit(&mut self, request: Request) -> Ticket {
            let tag = request.at;
            let ticket = self.inner.submit(request);
            self.note_forward(&[ticket], vec![tag]);
            ticket
        }

        fn submit_batch(&mut self, requests: Vec<Request>) -> Vec<Ticket> {
            let tags = requests.iter().map(|r| r.at).collect();
            let tickets = self.inner.submit_batch(requests);
            self.note_forward(&tickets, tags);
            tickets
        }

        fn pump(&mut self, event: CapacityEvent) -> Vec<Event> {
            let events = self.inner.pump(event);
            self.note_events(events)
        }

        fn take_events(&mut self) -> Vec<Event> {
            let events = self.inner.take_events();
            self.note_events(events)
        }

        fn kairos(&self) -> &Kairos {
            self.inner.kairos()
        }

        fn queue_depth(&self) -> usize {
            self.inner.queue_depth()
        }

        fn shard_count(&self) -> usize {
            self.inner.shard_count()
        }
    }

    /// Runs `ops` — `(kind, n)`: admit, release, a batch of `n`, drive or
    /// tick — through a gateway over a recorded `shards`-shard cluster,
    /// ends with `Shutdown`, and checks the lane model: singles
    /// on one lane forward in ticket order, no lane holds more than
    /// `capacity` unfinished forwards before draining, every accepted
    /// ticket sees exactly one terminal event, and the counters balance.
    fn check_lane_model(
        seed: u64,
        shards: usize,
        capacity: usize,
        coalesce: bool,
        queued: bool,
        ops: &[(u8, usize)],
    ) -> Result<(), String> {
        let mut builder = ClusterBuilder::new(topology::crisp(), shards).deterministic(true);
        if queued {
            builder = builder.admission(AdmitPolicy {
                class_capacity: [4, 4, 4, 4],
                max_wait: Some(30),
                max_attempts: 3,
                backoff_base: 1,
                backoff_cap: 4,
                ..AdmitPolicy::default()
            });
        }
        let log = Arc::new(Mutex::new(Log::default()));
        let recorder = Recorder { inner: Box::new(builder.build()?), log: Arc::clone(&log) };
        let config = GatewayConfig { channel_capacity: capacity, coalesce };
        let mut gateway = Gateway::new(Box::new(recorder), config);
        let lanes = gateway.lane_count() as u64;
        let mut generator = AppGenerator::new(GeneratorConfig::default(), seed);

        // tag → (gateway ticket, accepted as a single, expects a release)
        let mut accepted: BTreeMap<u64, (u64, bool, bool)> = BTreeMap::new();
        let mut events = Vec::new();
        let mut admitted_apps = Vec::new();
        let mut now = 0u64;
        for &(kind, n) in ops {
            match kind {
                0 | 1 => {
                    now += 1;
                    let app = generator.generate(format!("a{now}"));
                    let ticket = gateway.enqueue(Request::admit(now, app, PriorityClass::Normal));
                    accepted.insert(now, (ticket.0, true, false));
                }
                2 => {
                    now += 1;
                    let app = admitted_apps.pop().unwrap_or(AppId(999_999));
                    let ticket = gateway.enqueue(Request::release(now, app));
                    accepted.insert(now, (ticket.0, true, true));
                }
                3 => {
                    let requests: Vec<Request> = (1..=n as u64)
                        .map(|i| {
                            let app = generator.generate(format!("b{}", now + i));
                            Request::admit(now + i, app, PriorityClass::Normal)
                        })
                        .collect();
                    for (i, ticket) in gateway.enqueue_batch(requests).into_iter().enumerate() {
                        accepted.insert(now + 1 + i as u64, (ticket.0, false, false));
                    }
                    now += n as u64;
                }
                4 => gateway.drive(),
                _ => {
                    now += 5;
                    events.extend(gateway.pump(CapacityEvent::Tick { now }));
                }
            }
            let fresh = gateway.take_events();
            for event in &fresh {
                if let Event::Admitted { report, .. } = event {
                    admitted_apps.push(report.app_id);
                }
            }
            events.extend(fresh);
        }
        log.lock().unwrap().draining = true;
        events.extend(gateway.pump(CapacityEvent::Shutdown { now: now + 1_000 }));
        events.extend(gateway.take_events());

        let log = log.lock().unwrap();
        let lane_of = |tag: &u64| accepted[tag].0 % lanes;
        for lane in 0..lanes {
            let singles: Vec<u64> = log
                .forwarded
                .iter()
                .filter(|tag| accepted[tag].1 && lane_of(tag) == lane)
                .map(|tag| accepted[tag].0)
                .collect();
            prop_assert!(
                singles.windows(2).all(|w| w[0] < w[1]),
                "lane {lane} forwarded singles out of ticket order: {singles:?}"
            );
            for open in &log.open_after_forward {
                let held = open.iter().filter(|tag| lane_of(tag) == lane).count();
                prop_assert!(held <= capacity, "lane {lane} held {held} > {capacity}");
            }
        }
        for (tag, &(ticket, _, release)) in &accepted {
            let terminals = events
                .iter()
                .filter(|event| event.ticket().0 == ticket)
                .filter(|event| match event {
                    Event::Released { .. } => release,
                    Event::Admitted { .. } | Event::Rejected { .. } => !release,
                    _ => false,
                })
                .count();
            prop_assert_eq!(terminals, 1, "request tagged {} (ticket {})", tag, ticket);
        }
        let stats = gateway.stats();
        prop_assert_eq!(stats.submitted, accepted.len() as u64);
        prop_assert_eq!(stats.forwarded, stats.submitted);
        prop_assert_eq!(stats.completions, stats.submitted);
        prop_assert_eq!(gateway.inflight(), 0);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random enqueue / batch / drive / tick interleavings over small
        /// lanes agree with the independent lane model.
        #[test]
        fn random_interleavings_respect_the_lane_model(
            seed in any::<u64>(),
            shards in 1usize..4,
            capacity in 1usize..5,
            coalesce in any::<bool>(),
            queued in any::<bool>(),
            ops in proptest::collection::vec((0u8..6, 1usize..5), 1..40),
        ) {
            check_lane_model(seed, shards, capacity, coalesce, queued, &ops)?;
        }
    }

    /// The stats handle reads counters after the gateway is gone.
    #[test]
    fn stats_handle_outlives_the_gateway() {
        let mut gateway = Gateway::new(direct_service(), GatewayConfig::default());
        let handle = gateway.stats_handle();
        for request in admits(4, 13) {
            gateway.enqueue(request);
        }
        gateway.drive();
        drop(gateway);
        assert_eq!(handle.snapshot().completions, 4);
    }
}
