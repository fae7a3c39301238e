//! What one pass over a workload's input measured and decided, and the
//! helpers every pass uses to time (and optionally trace) its calls.

use std::time::{Duration, Instant};

use kairos_core::{AdmissionReport, Phase, PhaseTimings};
use kairos_svc::{Event, Ticket};

use crate::checks::Checks;
use crate::stats::{memory_mb, micros, percentile, Digest, Slowdown};
use crate::trace::{SpanId, Tracer};

/// Decisions per statistics window: enough for ten samples beyond the
/// 99th percentile.
pub const WINDOW: usize = 1_000;
/// Decisions between samples of the host's slowdown.
const SLOWDOWN_EVERY: usize = 100;

#[derive(Debug, Default)]
pub struct Pass {
    /// Per admission decision, in microseconds: the call's duration in a
    /// closed loop, the time since the request was due in an open loop.
    pub latencies_us: Vec<f64>,
    /// Sum of the timed calls into the program.
    pub busy: Duration,
    /// `busy` after each decision.
    pub busy_at: Vec<Duration>,
    /// Resident memory at the end of each window, in MiB.
    pub rss_mb: Vec<f64>,
    /// The host's slowdown, sampled between decisions.
    pub slowdown: Slowdown,
    pub decisions: u64,
    pub admitted: u64,
    pub hops: u64,
    pub routes: u64,
    pub frag_sum: f64,
    pub frag_samples: u64,
    pub digest: Digest,
    /// Refusals per pipeline phase, in `Phase` order.
    pub refused: [u64; 4],
    /// Indices of the refused decisions.
    pub refused_at: Vec<u64>,
    /// Nanoseconds per pipeline phase over the admitted decisions, in
    /// `Phase` order. Like the two sums below, zero on the zero phase clock.
    pub phase_ns: [u64; 4],
    /// Pipeline nanoseconds over the refused decisions that reported them.
    pub refused_ns: u64,
    /// Over the admitted decisions: time in the calls minus the pipeline
    /// time the report gives, i.e. what the layers above the pipeline add.
    pub overhead_ns: u64,
}

impl Pass {
    /// Records one decision's latency.
    pub fn latency(&mut self, latency: Duration) {
        self.latencies_us.push(micros(latency));
        self.busy_at.push(self.busy);
        if self.latencies_us.len().is_multiple_of(WINDOW) {
            self.rss_mb.push(memory_mb("VmRSS"));
        }
        if self.latencies_us.len().is_multiple_of(SLOWDOWN_EVERY) {
            self.slowdown.sample();
        }
    }

    /// Per window of [`WINDOW`] consecutive decisions: decisions per second
    /// of busy time, and the 50th and 99th latency percentiles. Medians
    /// over windows are what a run reports, so that a slow spell of the
    /// host moves a few windows rather than the result.
    pub fn windows(&self) -> Vec<[f64; 3]> {
        let mut start = Duration::ZERO;
        self.latencies_us
            .chunks_exact(WINDOW)
            .zip(self.busy_at.chunks_exact(WINDOW))
            .map(|(latencies, busy)| {
                let end = *busy.last().expect("windows are not empty");
                let rate = WINDOW as f64 / (end - start).as_secs_f64();
                start = end;
                [rate, percentile(latencies, 50.0), percentile(latencies, 99.0)]
            })
            .collect()
    }

    pub fn admitted(&mut self, report: &AdmissionReport) {
        self.decisions += 1;
        self.admitted += 1;
        self.hops += report.layout.total_hops() as u64;
        self.routes += report.layout.routes.len() as u64;
        self.digest.add(1);
        self.digest.add(u64::from(report.app_id.0));
        for (_, element) in report.layout.placement.iter() {
            self.digest.add(u64::from(element.0));
        }
    }

    pub fn refused(&mut self, phase: Phase) {
        self.refused_at.push(self.decisions);
        self.decisions += 1;
        self.refused[phase as usize] += 1;
        self.digest.add(2);
        self.digest.add(phase as u64);
    }

    /// Accounts the phase timings of an admitted decision that took
    /// `spent` in calls.
    pub fn admitted_timings(&mut self, t: &PhaseTimings, spent: Duration) {
        for (sum, d) in
            self.phase_ns.iter_mut().zip([t.binding, t.mapping, t.routing, t.validation])
        {
            *sum += d.as_nanos() as u64;
        }
        self.overhead_ns += spent.saturating_sub(t.total()).as_nanos() as u64;
    }

    /// Mean microseconds the layers above the pipeline add to an admission.
    pub fn overhead_us(&self) -> f64 {
        self.overhead_ns as f64 / self.admitted.max(1) as f64 / 1e3
    }

    pub fn fragmentation(&mut self, value: f64) {
        self.frag_sum += value;
        self.frag_samples += 1;
    }

    pub fn accept_ratio(&self) -> f64 {
        self.admitted as f64 / self.decisions.max(1) as f64
    }

    pub fn mean_hops(&self) -> f64 {
        self.hops as f64 / self.routes.max(1) as f64
    }

    pub fn mean_fragmentation(&self) -> f64 {
        self.frag_sum / self.frag_samples.max(1) as f64
    }
}

/// Times `f`, adding it to `busy`, inside a span when tracing.
pub fn call<R>(
    busy: &mut Duration,
    tracer: &mut Option<&mut Tracer>,
    request: u64,
    parent: Option<SpanId>,
    name: &'static str,
    f: impl FnOnce() -> R,
) -> (R, Duration, Option<SpanId>) {
    let span = tracer.as_mut().map(|t| t.open(request, parent, name));
    let start = Instant::now();
    let result = f();
    let elapsed = start.elapsed();
    if let (Some(t), Some(span)) = (tracer.as_mut(), span) {
        t.close(span);
    }
    *busy += elapsed;
    (result, elapsed, span)
}

/// Opens the root span of one request when tracing.
pub fn root(tracer: &mut Option<&mut Tracer>, request: u64) -> Option<SpanId> {
    tracer.as_mut().map(|t| t.open(request, None, "request"))
}

pub fn end(tracer: &mut Option<&mut Tracer>, span: Option<SpanId>) {
    if let (Some(t), Some(span)) = (tracer.as_mut(), span) {
        t.close(span);
    }
}

/// The phase timings of an admission as child spans of `parent`.
pub fn phase_spans(tracer: &mut Option<&mut Tracer>, parent: Option<SpanId>, t: &PhaseTimings) {
    if let (Some(tracer), Some(parent)) = (tracer.as_mut(), parent) {
        tracer.children(
            parent,
            &[
                ("core.binding", t.binding.as_nanos() as u64),
                ("core.mapping", t.mapping.as_nanos() as u64),
                ("core.routing", t.routing.as_nanos() as u64),
                ("core.validation", t.validation.as_nanos() as u64),
            ],
        );
    }
}

/// The outcome of admission `ticket` among `events`: the admission report,
/// or the refusing phase. Exactly one terminal event per ticket is
/// required; anything else is a violation.
pub enum Outcome {
    Admitted(Box<AdmissionReport>),
    Refused(Phase),
}

pub fn outcome(events: Vec<Event>, ticket: Ticket, checks: &mut Checks) -> Option<Outcome> {
    let mut found = None;
    let mut terminals = 0;
    for event in events {
        match event {
            Event::Admitted { ticket: t, report, .. } if t == ticket => {
                terminals += 1;
                found = Some(Outcome::Admitted(report));
            }
            Event::Rejected { ticket: t, cause, .. } if t == ticket => {
                terminals += 1;
                match cause.phase() {
                    Some(phase) => found = Some(Outcome::Refused(phase)),
                    None => checks.require(false, || {
                        format!("{ticket}: refused without a phase ({cause:?})")
                    }),
                }
            }
            Event::Admitted { ticket: t, .. } | Event::Rejected { ticket: t, .. } => {
                checks.require(false, || format!("terminal event for {t} while deciding {ticket}"));
            }
            _ => {}
        }
    }
    checks.require(terminals == 1, || format!("{ticket}: {terminals} terminal events"));
    if terminals == 1 {
        found
    } else {
        None
    }
}
