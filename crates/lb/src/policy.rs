//! The load-balancer interface and policy registry.

use hrv_trace::faas::FunctionId;
use hrv_trace::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

use crate::jsq::{Jsq, JsqMetric};
use crate::mws::Mws;
use crate::vanilla::VanillaOpenWhisk;
use crate::view::{ClusterView, InvokerId, LoadWeights};

/// A placement policy: given the controller's fleet view, picks the invoker
/// that should run an invocation.
///
/// Implementations are fed the controller's observation stream —
/// arrivals, completions, and invoker churn — and must never inspect
/// anything beyond the [`ClusterView`] (no oracle access to ground truth).
pub trait LoadBalancer: std::fmt::Debug + Send {
    /// Short policy name for reports.
    fn name(&self) -> &'static str;

    /// Chooses an invoker for one invocation of `function` needing
    /// `memory_mb` of container memory. Returns `None` when no invoker can
    /// accept work (the caller queues or rejects).
    fn place(
        &mut self,
        now: SimTime,
        function: FunctionId,
        memory_mb: u64,
        view: &ClusterView,
        rng: &mut dyn rand::Rng,
    ) -> Option<InvokerId>;

    /// Observes an invocation arrival (before placement).
    fn on_arrival(&mut self, _function: FunctionId, _now: SimTime) {}

    /// Observes a completed invocation's measured duration and CPU usage.
    fn on_completion(&mut self, _function: FunctionId, _duration: SimDuration, _cpu_cores: f64) {}

    /// Observes an invoker joining the fleet.
    fn on_invoker_join(&mut self, _id: InvokerId) {}

    /// Observes an invoker leaving the fleet (eviction, crash, scale-in).
    fn on_invoker_leave(&mut self, _id: InvokerId) {}

    /// Builds a fresh instance of the same policy with empty learned
    /// state — used to stamp out controller replicas, each of which
    /// observes only its own functions.
    fn fresh(&self) -> Box<dyn LoadBalancer>;
}

/// Declarative policy selection, used by experiment configurations.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PolicyKind {
    /// Min-worker-set — the paper's contribution (Section 5.2).
    Mws,
    /// Join-the-shortest-queue on weighted CPU+memory utilization
    /// (Section 5.1).
    Jsq,
    /// JSQ using raw queue length (ablation; Section 5.1 argues it is
    /// worse).
    JsqQueueLength,
    /// JSQ using expected-demand-weighted queue length (ablation).
    JsqWeightedQueueLength,
    /// JSQ sampling `d` random invokers instead of scanning all
    /// (power-of-d-choices; Section 5.1's overhead reduction). `d = 1`
    /// places uniformly at random over the placeable invokers.
    JsqSampled(usize),
    /// Vanilla OpenWhisk memory bin-packing (Section 6.1), quota = full
    /// VM memory.
    Vanilla,
    /// Vanilla OpenWhisk with an explicit per-invoker user-memory quota
    /// in MiB (deployed OpenWhisk's `userMemory`).
    VanillaQuota(u64),
}

impl PolicyKind {
    /// Builds a fresh policy instance.
    pub fn build(self) -> Box<dyn LoadBalancer> {
        match self {
            PolicyKind::Mws => Box::new(Mws::new(LoadWeights::default(), 1)),
            PolicyKind::Jsq => Box::new(Jsq::new(JsqMetric::WeightedUtilization, None)),
            PolicyKind::JsqQueueLength => Box::new(Jsq::new(JsqMetric::QueueLength, None)),
            PolicyKind::JsqWeightedQueueLength => {
                Box::new(Jsq::new(JsqMetric::WeightedQueueLength, None))
            }
            PolicyKind::JsqSampled(d) => {
                Box::new(Jsq::new(JsqMetric::WeightedUtilization, Some(d)))
            }
            PolicyKind::Vanilla => Box::new(VanillaOpenWhisk::new()),
            PolicyKind::VanillaQuota(mb) => Box::new(VanillaOpenWhisk::with_quota(mb)),
        }
    }

    /// Stable label for reports.
    pub fn label(self) -> String {
        match self {
            PolicyKind::Mws => "MWS".into(),
            PolicyKind::Jsq => "JSQ".into(),
            PolicyKind::JsqQueueLength => "JSQ-qlen".into(),
            PolicyKind::JsqWeightedQueueLength => "JSQ-wqlen".into(),
            PolicyKind::JsqSampled(d) => format!("JSQ-d{d}"),
            PolicyKind::Vanilla => "Vanilla".into(),
            PolicyKind::VanillaQuota(mb) => format!("Vanilla-q{mb}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_builds() {
        let kinds = [
            PolicyKind::Mws,
            PolicyKind::Jsq,
            PolicyKind::JsqQueueLength,
            PolicyKind::JsqWeightedQueueLength,
            PolicyKind::JsqSampled(2),
            PolicyKind::Vanilla,
            PolicyKind::VanillaQuota(2_048),
        ];
        for kind in kinds {
            let lb = kind.build();
            assert!(!lb.name().is_empty());
            assert!(!kind.label().is_empty());
        }
    }
}
