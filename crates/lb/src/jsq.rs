//! Join-the-shortest-queue load balancing (Section 5.1).
//!
//! JSQ sends each invocation to the backend with the least pending work.
//! The paper argues the right "pending work" proxy on Harvest VMs is the
//! weighted CPU+memory *utilization* — it tracks the varying CPU
//! allocation and avoids starving shrunken VMs — and shows queue-length
//! proxies are worse. All three variants are implemented for the ablation,
//! plus power-of-`d` sampling to cut the `O(N)` scan.

use hrv_trace::faas::FunctionId;
use hrv_trace::time::SimTime;
use rand::RngExt;
use serde::{Deserialize, Serialize};

use crate::policy::LoadBalancer;
use crate::view::{ClusterView, InvokerId, InvokerView, LoadWeights};

/// Which pending-work proxy JSQ minimizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JsqMetric {
    /// `w_c · cpu_util + w_m · mem_util` — the paper's choice.
    WeightedUtilization,
    /// Number of in-flight invocations on the invoker.
    QueueLength,
    /// In-flight invocations weighted by their expected demand
    /// (CPU-seconds), normalized by the invoker's current CPUs.
    WeightedQueueLength,
}

/// The JSQ policy.
#[derive(Debug)]
pub struct Jsq {
    metric: JsqMetric,
    /// When `Some(d)`, score only `d` randomly sampled candidates
    /// (power-of-d-choices) instead of the whole fleet.
    sample_d: Option<usize>,
    weights: LoadWeights,
    /// Reused index buffer for Floyd's sampling (placement is the hot
    /// path: one call per arrival).
    scratch: Vec<usize>,
}

impl Jsq {
    /// Creates a JSQ balancer with the given metric and optional
    /// power-of-`d` sampling.
    ///
    /// # Panics
    ///
    /// Panics if `sample_d` is `Some(0)`.
    pub fn new(metric: JsqMetric, sample_d: Option<usize>) -> Self {
        if let Some(d) = sample_d {
            assert!(d >= 1, "power-of-d needs d >= 1");
        }
        Jsq {
            metric,
            sample_d,
            weights: LoadWeights::default(),
            scratch: Vec::new(),
        }
    }

    fn score(&self, v: &InvokerView) -> f64 {
        match self.metric {
            JsqMetric::WeightedUtilization => v.weighted_load(self.weights),
            JsqMetric::QueueLength => f64::from(v.inflight),
            JsqMetric::WeightedQueueLength => {
                if v.total_cpus == 0 {
                    f64::INFINITY
                } else {
                    v.inflight_demand_secs / f64::from(v.total_cpus)
                }
            }
        }
    }
}

impl LoadBalancer for Jsq {
    fn name(&self) -> &'static str {
        match (self.metric, self.sample_d) {
            (JsqMetric::WeightedUtilization, None) => "JSQ",
            (JsqMetric::WeightedUtilization, Some(_)) => "JSQ-sampled",
            (JsqMetric::QueueLength, _) => "JSQ-qlen",
            (JsqMetric::WeightedQueueLength, _) => "JSQ-wqlen",
        }
    }

    fn fresh(&self) -> Box<dyn LoadBalancer> {
        Box::new(Jsq::new(self.metric, self.sample_d))
    }

    fn place(
        &mut self,
        _now: SimTime,
        _function: FunctionId,
        _memory_mb: u64,
        view: &ClusterView,
        rng: &mut dyn rand::Rng,
    ) -> Option<InvokerId> {
        // Each candidate is scored once; ties go to the lowest id.
        let full_scan = |jsq: &Jsq| {
            view.placeable()
                .map(|v| (jsq.score(v), v.id))
                .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
                .map(|(_, id)| id)
        };
        match self.sample_d {
            Some(d) => {
                // Candidates are the placeable invokers in id order. The
                // view's maintained index gives indexed access with no
                // allocation; a dirty view (raw get_mut happened) falls
                // back to collecting positions once.
                let all = view.all();
                let fallback: Vec<u32>;
                let positions: &[u32] = match view.placeable_positions() {
                    Some(p) => p,
                    None => {
                        fallback = all
                            .iter()
                            .enumerate()
                            .filter(|(_, v)| v.placeable())
                            .map(|(i, _)| i as u32)
                            .collect();
                        &fallback
                    }
                };
                let n = positions.len();
                if n == 0 {
                    return None;
                }
                if d >= n {
                    return full_scan(self);
                }
                // Sample d distinct indices (Floyd's algorithm keeps the
                // draw count at exactly d) and fold the minimum inline —
                // no second candidate list is materialized.
                let mut chosen = std::mem::take(&mut self.scratch);
                chosen.clear();
                let mut best: Option<(f64, &InvokerView)> = None;
                for j in (n - d)..n {
                    let t = rng.random_range(0..=j);
                    let idx = if chosen.contains(&t) { j } else { t };
                    chosen.push(idx);
                    let v = &all[positions[idx] as usize];
                    let s = self.score(v);
                    best = Some(match best {
                        Some((bs, bv)) if bs.total_cmp(&s).then(bv.id.cmp(&v.id)).is_le() => {
                            (bs, bv)
                        }
                        _ => (s, v),
                    });
                }
                self.scratch = chosen;
                best.map(|(_, v)| v.id)
            }
            None => full_scan(self),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrv_trace::faas::AppId;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn f() -> FunctionId {
        FunctionId {
            app: AppId(0),
            func: 0,
        }
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(3)
    }

    fn view_of(loads: &[(u32, u32, f64)]) -> ClusterView {
        let mut view = ClusterView::new();
        for &(id, cpus, in_use) in loads {
            let mut v = InvokerView::register(InvokerId(id), cpus, 64 * 1024, SimTime::ZERO);
            v.cpu_in_use = in_use;
            view.add(v);
        }
        view
    }

    #[test]
    fn picks_least_utilized() {
        let view = view_of(&[(0, 8, 6.0), (1, 8, 2.0), (2, 8, 7.0)]);
        let mut jsq = Jsq::new(JsqMetric::WeightedUtilization, None);
        let placed = jsq
            .place(SimTime::ZERO, f(), 256, &view, &mut rng())
            .unwrap();
        assert_eq!(placed, InvokerId(1));
    }

    #[test]
    fn utilization_metric_respects_shrunken_vms() {
        // Invoker 0 has more free *cores* in absolute terms but higher
        // utilization; the utilization metric avoids piling more work on
        // the shrunken invoker 1 only when its relative load is higher.
        let view = view_of(&[(0, 32, 24.0), (1, 4, 3.5)]);
        let mut jsq = Jsq::new(JsqMetric::WeightedUtilization, None);
        let placed = jsq
            .place(SimTime::ZERO, f(), 256, &view, &mut rng())
            .unwrap();
        assert_eq!(placed, InvokerId(0), "0 is 75% utilized, 1 is 87.5%");
    }

    #[test]
    fn queue_length_metric_ignores_capacity() {
        let mut view = view_of(&[(0, 32, 10.0), (1, 2, 0.5)]);
        view.get_mut(InvokerId(0)).unwrap().inflight = 10;
        view.get_mut(InvokerId(1)).unwrap().inflight = 3;
        let mut jsq = Jsq::new(JsqMetric::QueueLength, None);
        // Queue length sends work to the tiny VM — exactly the failure
        // mode the paper calls out.
        let placed = jsq
            .place(SimTime::ZERO, f(), 256, &view, &mut rng())
            .unwrap();
        assert_eq!(placed, InvokerId(1));
    }

    #[test]
    fn weighted_queue_length_normalizes_by_cpus() {
        let mut view = view_of(&[(0, 32, 0.0), (1, 2, 0.0)]);
        view.get_mut(InvokerId(0)).unwrap().inflight_demand_secs = 16.0; // 0.5 s/cpu
        view.get_mut(InvokerId(1)).unwrap().inflight_demand_secs = 4.0; // 2.0 s/cpu
        let mut jsq = Jsq::new(JsqMetric::WeightedQueueLength, None);
        let placed = jsq
            .place(SimTime::ZERO, f(), 256, &view, &mut rng())
            .unwrap();
        assert_eq!(placed, InvokerId(0));
    }

    #[test]
    fn skips_unplaceable_invokers() {
        let mut view = view_of(&[(0, 8, 0.0), (1, 8, 5.0)]);
        view.get_mut(InvokerId(0)).unwrap().eviction_pending = true;
        let mut jsq = Jsq::new(JsqMetric::WeightedUtilization, None);
        let placed = jsq
            .place(SimTime::ZERO, f(), 256, &view, &mut rng())
            .unwrap();
        assert_eq!(placed, InvokerId(1));
    }

    #[test]
    fn full_scan_picks_what_the_pairwise_comparator_picks_under_ties() {
        // Ids out of order, several sharing the lowest score on each
        // metric, and an unplaceable one among them.
        let mut view = view_of(&[
            (7, 8, 2.0),
            (3, 8, 2.0),
            (9, 4, 1.0),
            (1, 8, 2.0),
            (4, 8, 6.0),
        ]);
        view.get_mut(InvokerId(1)).unwrap().eviction_pending = true;
        for (id, inflight) in [(7, 2), (3, 2), (9, 3), (4, 2), (1, 0)] {
            let v = view.get_mut(InvokerId(id)).unwrap();
            v.inflight = inflight;
            v.inflight_demand_secs = f64::from(inflight * v.total_cpus);
        }
        for metric in [
            JsqMetric::WeightedUtilization,
            JsqMetric::QueueLength,
            JsqMetric::WeightedQueueLength,
        ] {
            let mut jsq = Jsq::new(metric, None);
            let scores: Vec<f64> = view.placeable().map(|v| jsq.score(v)).collect();
            let low = scores.iter().copied().fold(f64::INFINITY, f64::min);
            let tied = scores.iter().filter(|&&s| s == low).count();
            assert!(tied >= 2, "{metric:?}: no tie at the minimum in {scores:?}");
            let pairwise = view
                .placeable()
                .min_by(|a, b| jsq.score(a).total_cmp(&jsq.score(b)).then(a.id.cmp(&b.id)))
                .map(|v| v.id);
            let placed = jsq.place(SimTime::ZERO, f(), 256, &view, &mut rng());
            assert_eq!(placed, pairwise, "{metric:?}");
        }
    }

    #[test]
    fn empty_fleet_returns_none() {
        let view = ClusterView::new();
        let mut jsq = Jsq::new(JsqMetric::WeightedUtilization, None);
        assert!(jsq
            .place(SimTime::ZERO, f(), 256, &view, &mut rng())
            .is_none());
    }

    #[test]
    fn sampled_variant_places_on_a_candidate() {
        let view = view_of(&[(0, 8, 1.0), (1, 8, 2.0), (2, 8, 3.0), (3, 8, 4.0)]);
        let mut jsq = Jsq::new(JsqMetric::WeightedUtilization, Some(2));
        let mut r = rng();
        for _ in 0..50 {
            let placed = jsq.place(SimTime::ZERO, f(), 256, &view, &mut r).unwrap();
            assert!(placed.0 < 4);
        }
    }

    #[test]
    fn sampled_d_larger_than_fleet_degenerates_to_full_scan() {
        let view = view_of(&[(0, 8, 6.0), (1, 8, 1.0)]);
        let mut jsq = Jsq::new(JsqMetric::WeightedUtilization, Some(10));
        let placed = jsq
            .place(SimTime::ZERO, f(), 256, &view, &mut rng())
            .unwrap();
        assert_eq!(placed, InvokerId(1));
    }

    #[test]
    fn sampling_quality_degrades_gracefully() {
        // With d=1 (random placement) the least-loaded invoker is picked
        // far less often than with a full scan — the paper's "expense of
        // scheduling quality" trade-off.
        let view = view_of(&[(0, 8, 7.0), (1, 8, 7.0), (2, 8, 7.0), (3, 8, 0.0)]);
        let mut full = Jsq::new(JsqMetric::WeightedUtilization, None);
        let mut d1 = Jsq::new(JsqMetric::WeightedUtilization, Some(1));
        let mut r = rng();
        let mut full_best = 0;
        let mut d1_best = 0;
        for _ in 0..200 {
            if full.place(SimTime::ZERO, f(), 256, &view, &mut r) == Some(InvokerId(3)) {
                full_best += 1;
            }
            if d1.place(SimTime::ZERO, f(), 256, &view, &mut r) == Some(InvokerId(3)) {
                d1_best += 1;
            }
        }
        assert_eq!(full_best, 200);
        assert!(d1_best < 150, "d=1 hit the best invoker {d1_best}/200");
    }
}
