//! Output checks. A pipeline refusal is a decision, not a failure; a
//! failure is a broken operation: a request without exactly one outcome, a
//! ledger over capacity, a platform not empty after everything left, a
//! report breaking its identities, or two passes over the same input
//! deciding differently.

use kairos_platform::{Platform, ResourceVector};
use kairos_sim::SimReport;

#[derive(Debug, Default)]
pub struct Checks {
    /// Operations attempted: admissions, releases and scenario runs.
    pub attempted: u64,
    /// Operations that broke at least one check, including checks made
    /// after them.
    pub failed: u64,
    /// Whether the latest operation is already counted in `failed`.
    latest_failed: bool,
    /// The first few violations, for the log.
    pub notes: Vec<String>,
}

impl Checks {
    /// Starts the next operation.
    pub fn op(&mut self) {
        self.attempted += 1;
        self.latest_failed = false;
    }

    /// Records a violation unless `ok`.
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if ok {
            return;
        }
        if !self.latest_failed {
            self.failed += 1;
            self.latest_failed = true;
        }
        if self.notes.len() < 20 {
            self.notes.push(what());
        }
    }

    /// No element holds claims beyond its capacity, and each element's
    /// free vector is its capacity minus what its residents claimed.
    pub fn ledger(&mut self, platform: &Platform) {
        for element in platform.elements() {
            let id = element.id();
            let claimed = platform
                .residents(id)
                .iter()
                .fold(ResourceVector::default(), |sum, o| sum.saturating_add(&o.claimed));
            let within = element.capacity().fits(&claimed);
            let consistent =
                within && element.capacity().saturating_sub(&claimed) == platform.free(id);
            self.require(within && consistent, || {
                format!(
                    "element {} of {}: claims {claimed:?} vs free {:?}",
                    id.0,
                    platform.name(),
                    platform.free(id)
                )
            });
        }
    }

    /// Utilisation shares stay within `[0, 1]`.
    pub fn utilisation(&mut self, element: f64, resource: f64) {
        self.require((0.0..=1.0).contains(&element) && (0.0..=1.0).contains(&resource), || {
            format!("utilisation out of range: elements {element}, resources {resource}")
        });
    }

    /// The identities every scenario report satisfies.
    pub fn report(&mut self, report: &SimReport) {
        let t = &report.totals;
        let name = &report.scenario;
        self.require(t.arrivals == t.admissions + t.rejections, || {
            format!(
                "{name}: arrivals {} != admissions {} + rejections {}",
                t.arrivals, t.admissions, t.rejections
            )
        });
        self.require(t.evictions == t.readmissions + t.lost_to_faults, || {
            format!("{name}: evictions {} != readmissions + lost", t.evictions)
        });
        self.require(t.preemptions == t.preempt_readmissions + t.lost_to_preemption, || {
            format!("{name}: preemptions {} != readmissions + lost", t.preemptions)
        });
        if let Some(energy) = &report.energy {
            let kinds: u64 = energy.by_kind.iter().map(|k| k.mw_ticks).sum();
            let packages: u64 = energy.packages.iter().map(|p| p.mw_ticks).sum();
            self.require(
                energy.total_mw_ticks == energy.busy_mw_ticks + energy.idle_mw_ticks
                    && kinds == energy.total_mw_ticks
                    && packages == energy.total_mw_ticks,
                || format!("{name}: energy breakdowns do not sum to {}", energy.total_mw_ticks),
            );
        }
    }
}
