//! Processor-sharing service model.
//!
//! An invoker runs many single-threaded function invocations on a pool of
//! CPUs whose size changes over time (harvested cores come and go). When
//! runnable work exceeds the CPU count, the OS scheduler time-slices —
//! modelled here as generalized processor sharing: each job has a service
//! demand in CPU-seconds and a per-job core cap (1.0 for single-threaded
//! functions), and jobs drain at a rate proportional to their cap, scaled
//! down when the pool is oversubscribed.
//!
//! The queue is piecewise-linear between *mutations* (job add/remove,
//! capacity resize): callers must `advance` the queue to the current time
//! before mutating, and re-arm their completion timer from
//! [`PsQueue::next_completion`] after every mutation.
//!
//! # Virtual-time formulation
//!
//! Internally the queue uses the classic GPS *virtual time* `V(t)`: the
//! cumulative service received per unit of cap. `V` grows at rate 1 while
//! the pool is undersubscribed and at `capacity / Σcaps` while
//! oversubscribed — capacity resizes and job churn change only `dV/dt`.
//! A job admitted at virtual time `V₀` with demand `d` and cap `c`
//! finishes exactly when `V` reaches `V₀ + d/c`, a constant computed once
//! at admission. Remaining work is recovered on demand as
//! `(vfinish − V) · c`.
//!
//! That constant is what makes the hot paths cheap: jobs complete in
//! `vfinish` order, so the active jobs are kept in one sequence sorted by
//! `(vfinish, id)`. `next_completion` reads its front, and `advance` steps
//! from completion to completion by popping it — O(1) per *completion*
//! instead of O(jobs) per *event* as in the reference formulation
//! (`ps_reference`, kept as an executable specification for tests). An
//! invoker's queue is short (in the claim benchmark's workloads at most 5
//! jobs are active when another is added), so the sorted insert and the
//! scans in `remove` and `remaining` touch a cache line or two.

use std::collections::VecDeque;

use hrv_trace::time::{SimDuration, SimTime};

/// Remaining demand below this is considered complete (guards float dust).
pub const COMPLETION_EPS: f64 = 1e-9;

/// Job identifier, unique within one queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

/// A job still consuming CPU: its constant virtual finish, id and cap.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ActiveJob {
    /// The virtual time at which its demand reaches zero.
    vfinish: f64,
    id: JobId,
    /// Max cores this job can use at once.
    cap: f64,
}

/// A processor-sharing queue over a resizable CPU pool.
///
/// # Examples
///
/// ```
/// use hrv_sim::ps::{JobId, PsQueue};
/// use hrv_trace::time::SimTime;
///
/// // Two 1-second jobs on one core: processor sharing finishes both at
/// // t = 2 s.
/// let mut q = PsQueue::new(1.0);
/// q.add(JobId(0), 1.0, 1.0);
/// q.add(JobId(1), 1.0, 1.0);
/// let (when, _) = q.next_completion().unwrap();
/// assert_eq!(when, SimTime::from_secs(2));
/// q.advance(when);
/// assert_eq!(q.take_completed(1e-6).len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct PsQueue {
    capacity: f64,
    /// GPS virtual time: cumulative per-cap service delivered so far.
    vtime: f64,
    /// Jobs still consuming CPU, in completion order: by `vfinish`
    /// (always finite and non-negative, where `total_cmp` equals `<`),
    /// ties toward the smaller id.
    active: VecDeque<ActiveJob>,
    /// Jobs drained to zero, in id order, awaiting
    /// [`take_completed`](Self::take_completed).
    completed: Vec<JobId>,
    /// Σ caps of *active* jobs.
    total_cap: f64,
    last: SimTime,
    /// Integral of occupied cores over time, for utilization accounting.
    busy_core_seconds: f64,
}

impl PsQueue {
    /// Creates an empty queue with `capacity` CPU cores at time zero.
    pub fn new(capacity: f64) -> Self {
        assert!(capacity >= 0.0 && capacity.is_finite());
        PsQueue {
            capacity,
            vtime: 0.0,
            active: VecDeque::new(),
            completed: Vec::new(),
            total_cap: 0.0,
            last: SimTime::ZERO,
            busy_core_seconds: 0.0,
        }
    }

    /// Current CPU capacity in cores.
    pub fn capacity(&self) -> f64 {
        self.capacity
    }

    /// Number of jobs in service.
    pub fn len(&self) -> usize {
        self.active.len() + self.completed.len()
    }

    /// True if no jobs are in service.
    pub fn is_empty(&self) -> bool {
        self.active.is_empty() && self.completed.is_empty()
    }

    /// Cores currently occupied: `min(capacity, Σ active caps)`. Jobs
    /// whose demand already reached zero (awaiting harvest via
    /// [`take_completed`](Self::take_completed)) consume nothing.
    pub fn cores_in_use(&self) -> f64 {
        self.total_cap.min(self.capacity)
    }

    /// Instantaneous utilization in `[0, 1]` (0 when capacity is 0).
    pub fn utilization(&self) -> f64 {
        if self.capacity <= 0.0 {
            if self.is_empty() {
                0.0
            } else {
                1.0
            }
        } else {
            (self.total_cap / self.capacity).min(1.0)
        }
    }

    /// Demand pressure: `Σ caps / capacity`, may exceed 1 when
    /// oversubscribed; `∞` when jobs are stuck on a zero-capacity pool.
    pub fn pressure(&self) -> f64 {
        if self.capacity <= 0.0 {
            if self.is_empty() {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            self.total_cap / self.capacity
        }
    }

    /// Integrated busy core-seconds since construction (advance-to time).
    pub fn busy_core_seconds(&self) -> f64 {
        self.busy_core_seconds
    }

    /// The service rate every unit of cap receives right now — also
    /// `dV/dt`.
    fn rate_per_cap(&self) -> f64 {
        if self.total_cap <= 0.0 {
            return 0.0;
        }
        if self.total_cap <= self.capacity {
            1.0
        } else {
            self.capacity / self.total_cap
        }
    }

    /// Remaining demand of an active job at the current virtual time.
    fn active_remaining(&self, job: &ActiveJob) -> f64 {
        ((job.vfinish - self.vtime) * job.cap).max(0.0)
    }

    /// Moves the job at the front of the finish order into the completed
    /// set.
    fn complete_front(&mut self) {
        let job = self.active.pop_front().expect("a front job to complete");
        self.total_cap = (self.total_cap - job.cap).max(0.0);
        let at = self.completed.partition_point(|&id| id < job.id);
        self.completed.insert(at, job.id);
        if self.active.is_empty() {
            // Absorb float drift and rebase virtual time.
            self.total_cap = 0.0;
            self.vtime = 0.0;
        }
    }

    /// Integrates service up to `now` by stepping virtual time from
    /// completion to completion: each step advances `V` at the current
    /// `dV/dt`, harvests every job whose `vfinish` has been reached, and
    /// re-evaluates the rate. Cost is O(1) per completion — advancing
    /// over a quiet interval is O(1) regardless of queue length, and
    /// busy-time accounting stays exact even when the caller strides past
    /// completions.
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes the last update.
    pub fn advance(&mut self, now: SimTime) {
        let mut dt = now.since(self.last).as_secs_f64();
        self.last = now;
        while dt > 0.0 && self.total_cap > 0.0 {
            let rate = self.rate_per_cap();
            if rate <= 0.0 {
                break;
            }
            // Earliest internal completion among active jobs.
            let eta = match self.active.front() {
                Some(job) => (job.vfinish - self.vtime) / rate,
                None => break,
            };
            let step = eta.max(0.0).min(dt);
            self.busy_core_seconds += self.cores_in_use() * step;
            self.vtime += rate * step;
            dt -= step;
            // Harvest everything whose virtual finish has been reached.
            let mut harvested = false;
            while self
                .active
                .front()
                .is_some_and(|job| self.active_remaining(job) <= COMPLETION_EPS)
            {
                self.complete_front();
                harvested = true;
            }
            if step <= 0.0 && !harvested {
                break; // float-dust guard; cannot regress further
            }
        }
    }

    /// Adds a job with `demand` CPU-seconds of work and a `cap`-core limit.
    /// Call [`advance`](Self::advance) to `now` first.
    ///
    /// # Panics
    ///
    /// Panics on duplicate id or non-positive demand/cap.
    pub fn add(&mut self, id: JobId, demand: f64, cap: f64) {
        assert!(demand > 0.0 && demand.is_finite(), "bad demand {demand}");
        assert!(cap > 0.0 && cap.is_finite(), "bad cap {cap}");
        assert!(
            self.completed.binary_search(&id).is_err() && self.position(id).is_none(),
            "duplicate job {id:?}"
        );
        let vfinish = self.vtime + demand / cap;
        let at = self.active.partition_point(|job| {
            job.vfinish
                .total_cmp(&vfinish)
                .then(job.id.cmp(&id))
                .is_lt()
        });
        self.active.insert(at, ActiveJob { vfinish, id, cap });
        self.total_cap += cap;
    }

    /// Where an active job sits in the finish order.
    fn position(&self, id: JobId) -> Option<usize> {
        self.active.iter().position(|job| job.id == id)
    }

    /// Removes a job (kill/eviction), returning its remaining demand.
    /// Returns `None` if the job is not present.
    pub fn remove(&mut self, id: JobId) -> Option<f64> {
        if let Ok(at) = self.completed.binary_search(&id) {
            self.completed.remove(at);
            return Some(0.0);
        }
        let job = self.active.remove(self.position(id)?)?;
        let left = self.active_remaining(&job);
        self.total_cap -= job.cap;
        if self.active.is_empty() {
            self.total_cap = 0.0; // absorb float drift
            self.vtime = 0.0;
        }
        Some(left)
    }

    /// Resizes the CPU pool. Call [`advance`](Self::advance) first.
    ///
    /// Resizes change only the rate at which virtual time advances —
    /// every stored `vfinish` stays valid, which is why this is O(1).
    pub fn set_capacity(&mut self, capacity: f64) {
        assert!(capacity >= 0.0 && capacity.is_finite());
        self.capacity = capacity;
    }

    /// Remaining demand of a job, if present.
    pub fn remaining(&self, id: JobId) -> Option<f64> {
        if self.completed.binary_search(&id).is_ok() {
            return Some(0.0);
        }
        self.active
            .iter()
            .find(|job| job.id == id)
            .map(|job| self.active_remaining(job))
    }

    /// When the next job will complete if nothing changes, with its id.
    /// Ties break toward the smallest `JobId`. Returns `None` when idle or
    /// completely starved (zero capacity). O(1).
    pub fn next_completion(&self) -> Option<(SimTime, JobId)> {
        // A job already drained to zero completes "now".
        if let Some(&id) = self.completed.first() {
            return Some((self.last, id));
        }
        let rate = self.rate_per_cap();
        if rate <= 0.0 {
            return None;
        }
        let job = self.active.front()?;
        let eta = (job.vfinish - self.vtime).max(0.0) / rate;
        // Round up so the completion event never fires early.
        let d = SimDuration::from_micros((eta * 1e6).ceil().max(0.0).min(u64::MAX as f64) as u64);
        Some((self.last.saturating_add(d), job.id))
    }

    /// Removes and returns all jobs whose remaining demand is ≤ `eps`
    /// (typically [`COMPLETION_EPS`] scaled by rounding slack), in id
    /// order. Call [`advance`](Self::advance) first.
    ///
    /// A job qualifies only when `(vfinish − V)·cap ≤ eps`, so every
    /// qualifier satisfies `vfinish ≤ V + eps / min_cap` and lies in a
    /// prefix of the finish order; only that prefix is tested.
    pub fn take_completed(&mut self, eps: f64) -> Vec<JobId> {
        let mut done = std::mem::take(&mut self.completed);
        if let Some(min_cap) = self.active.iter().map(|job| job.cap).reduce(f64::min) {
            let vlimit = self.vtime + eps.max(0.0) / min_cap;
            let mut drained: Vec<JobId> = self
                .active
                .iter()
                .take_while(|job| job.vfinish <= vlimit)
                .filter(|job| self.active_remaining(job) <= eps)
                .map(|job| job.id)
                .collect();
            // Removal in id order keeps `total_cap`'s float subtractions
            // in a fixed order.
            drained.sort_unstable();
            for &id in &drained {
                self.remove(id);
            }
            done.extend(drained);
            done.sort_unstable();
        }
        done
    }

    /// Ids of all jobs currently in service, in id order.
    pub fn job_ids(&self) -> Vec<JobId> {
        let mut ids: Vec<JobId> = self
            .active
            .iter()
            .map(|job| job.id)
            .chain(self.completed.iter().copied())
            .collect();
        ids.sort_unstable();
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const US: f64 = 1e-6;

    fn t(secs_f: f64) -> SimTime {
        SimTime::from_micros((secs_f * 1e6).round() as u64)
    }

    #[test]
    fn single_job_runs_at_its_cap() {
        let mut q = PsQueue::new(4.0);
        q.add(JobId(1), 2.0, 1.0);
        let (when, id) = q.next_completion().unwrap();
        assert_eq!(id, JobId(1));
        assert_eq!(when, t(2.0));
        q.advance(when);
        assert_eq!(q.take_completed(US), vec![JobId(1)]);
        assert!(q.is_empty());
    }

    #[test]
    fn oversubscription_slows_everyone() {
        // 2 cores, 4 single-core jobs of 1 cpu-second each → each runs at
        // 0.5 cores → all complete at t=2.
        let mut q = PsQueue::new(2.0);
        for i in 0..4 {
            q.add(JobId(i), 1.0, 1.0);
        }
        let (when, _) = q.next_completion().unwrap();
        assert_eq!(when, t(2.0));
        q.advance(when);
        assert_eq!(q.take_completed(US).len(), 4);
    }

    #[test]
    fn undersubscription_leaves_rate_at_cap() {
        let mut q = PsQueue::new(8.0);
        q.add(JobId(0), 3.0, 1.0);
        q.add(JobId(1), 5.0, 1.0);
        let (when, id) = q.next_completion().unwrap();
        assert_eq!((when, id), (t(3.0), JobId(0)));
        q.advance(when);
        assert_eq!(q.take_completed(US), vec![JobId(0)]);
        let (when, id) = q.next_completion().unwrap();
        assert_eq!((when, id), (t(5.0), JobId(1)));
    }

    #[test]
    fn capacity_shrink_replans_completions() {
        let mut q = PsQueue::new(4.0);
        q.add(JobId(0), 4.0, 1.0);
        // After 1 s at full speed, 3 cpu-seconds remain.
        q.advance(t(1.0));
        // Capacity collapses to 0.5 cores → rate 0.5 → 6 more seconds.
        q.set_capacity(0.5);
        let (when, _) = q.next_completion().unwrap();
        assert_eq!(when, t(7.0));
    }

    #[test]
    fn capacity_growth_speeds_up() {
        let mut q = PsQueue::new(1.0);
        q.add(JobId(0), 2.0, 1.0);
        q.add(JobId(1), 2.0, 1.0);
        // Each at 0.5 cores; after 2 s, 1 cpu-second left each.
        q.advance(t(2.0));
        q.set_capacity(2.0);
        let (when, _) = q.next_completion().unwrap();
        assert_eq!(when, t(3.0));
    }

    #[test]
    fn zero_capacity_starves() {
        let mut q = PsQueue::new(0.0);
        q.add(JobId(0), 1.0, 1.0);
        assert!(q.next_completion().is_none());
        assert_eq!(q.utilization(), 1.0);
        assert_eq!(q.pressure(), f64::INFINITY);
        q.advance(t(100.0));
        assert_eq!(q.remaining(JobId(0)), Some(1.0));
    }

    #[test]
    fn remove_returns_remaining_work() {
        let mut q = PsQueue::new(1.0);
        q.add(JobId(0), 5.0, 1.0);
        q.advance(t(2.0));
        let left = q.remove(JobId(0)).unwrap();
        assert!((left - 3.0).abs() < 1e-9);
        assert!(q.remove(JobId(0)).is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn utilization_and_busy_accounting() {
        let mut q = PsQueue::new(4.0);
        q.add(JobId(0), 10.0, 1.0);
        q.add(JobId(1), 10.0, 1.0);
        assert!((q.utilization() - 0.5).abs() < 1e-12);
        assert_eq!(q.cores_in_use(), 2.0);
        q.advance(t(3.0));
        assert!((q.busy_core_seconds() - 6.0).abs() < 1e-9);
    }

    #[test]
    fn completion_never_fires_early() {
        // 3 jobs on 2 cores with awkward demands: the scheduled completion
        // time must be >= the true completion time.
        let mut q = PsQueue::new(2.0);
        q.add(JobId(0), 0.333_333, 1.0);
        q.add(JobId(1), 1.0, 1.0);
        q.add(JobId(2), 2.5, 1.0);
        let (when, id) = q.next_completion().unwrap();
        q.advance(when);
        let done = q.take_completed(1e-6);
        assert!(done.contains(&id), "job not complete at its own eta");
    }

    #[test]
    fn multicore_job_uses_its_cap() {
        let mut q = PsQueue::new(8.0);
        q.add(JobId(0), 8.0, 4.0);
        let (when, _) = q.next_completion().unwrap();
        assert_eq!(when, t(2.0));
        assert_eq!(q.cores_in_use(), 4.0);
    }

    #[test]
    #[should_panic(expected = "duplicate job")]
    fn duplicate_add_panics() {
        let mut q = PsQueue::new(1.0);
        q.add(JobId(0), 1.0, 1.0);
        q.add(JobId(0), 1.0, 1.0);
    }

    #[test]
    fn conservation_under_resizes() {
        // Work completed must equal integral of min(capacity, demand).
        let mut q = PsQueue::new(3.0);
        q.add(JobId(0), 100.0, 1.0);
        q.add(JobId(1), 100.0, 1.0);
        let schedule = [(1.0, 5.0), (2.5, 0.5), (4.0, 2.0), (6.0, 1.0)];
        let mut expected_busy = 0.0;
        let mut prev = 0.0;
        let mut cap: f64 = 3.0;
        for &(at, new_cap) in &schedule {
            expected_busy += (at - prev) * cap.min(2.0);
            q.advance(t(at));
            q.set_capacity(new_cap);
            prev = at;
            cap = new_cap;
        }
        let done = 200.0 - q.remaining(JobId(0)).unwrap() - q.remaining(JobId(1)).unwrap();
        assert!(
            (done - expected_busy).abs() < 1e-6,
            "{done} vs {expected_busy}"
        );
        assert!((q.busy_core_seconds() - expected_busy).abs() < 1e-6);
    }

    #[test]
    fn removed_job_heap_entry_is_skipped() {
        // Remove the would-be-next job; the following completion must
        // come from the surviving job, not the removed one.
        let mut q = PsQueue::new(2.0);
        q.add(JobId(0), 1.0, 1.0);
        q.add(JobId(1), 4.0, 1.0);
        q.advance(t(0.5));
        assert!(q.remove(JobId(0)).is_some());
        let (when, id) = q.next_completion().unwrap();
        assert_eq!(id, JobId(1));
        assert_eq!(when, t(4.0)); // 3.5 left at full speed from t=0.5
    }

    #[test]
    fn readded_id_gets_fresh_finish_time() {
        // Same id re-added after removal must be tracked by its new
        // vfinish, not the old one.
        let mut q = PsQueue::new(1.0);
        q.add(JobId(7), 10.0, 1.0);
        q.advance(t(1.0));
        q.remove(JobId(7));
        q.add(JobId(7), 2.0, 1.0);
        let (when, id) = q.next_completion().unwrap();
        assert_eq!((when, id), (t(3.0), JobId(7)));
        q.advance(when);
        assert_eq!(q.take_completed(US), vec![JobId(7)]);
    }

    #[test]
    fn advance_across_many_completions_in_one_call() {
        // Striding past several staggered completions in a single advance
        // must harvest all of them with exact busy accounting.
        let mut q = PsQueue::new(4.0);
        for i in 0..4u64 {
            q.add(JobId(i), (i + 1) as f64, 1.0);
        }
        q.advance(t(10.0));
        assert_eq!(q.take_completed(US).len(), 4);
        // 4 jobs of 1..4 cpu-seconds on 4 cores: they run at cap, so
        // busy time equals total demand, 1+2+3+4.
        assert!((q.busy_core_seconds() - 10.0).abs() < 1e-9);
        assert!(q.is_empty());
    }

    #[test]
    fn vtime_rebases_when_queue_drains() {
        // After the queue fully empties, a long quiet gap and a new job
        // must behave exactly like a fresh queue (no float-drift leak).
        let mut q = PsQueue::new(1.0);
        q.add(JobId(0), 1.0, 1.0);
        q.advance(t(1.0));
        assert_eq!(q.take_completed(US), vec![JobId(0)]);
        q.advance(t(1_000_000.0));
        q.add(JobId(1), 0.25, 1.0);
        let (when, id) = q.next_completion().unwrap();
        assert_eq!((when, id), (t(1_000_000.25), JobId(1)));
    }

    #[test]
    fn equal_virtual_finish_completes_smallest_id_first() {
        // Both jobs finish at V = 1 (2 cpu-s at 2 cores, 1 cpu-s at 1
        // core), added largest id first.
        let mut q = PsQueue::new(8.0);
        q.add(JobId(5), 2.0, 2.0);
        q.add(JobId(2), 1.0, 1.0);
        q.add(JobId(9), 3.0, 1.0);
        assert_eq!(q.next_completion(), Some((t(1.0), JobId(2))));
        q.remove(JobId(2));
        assert_eq!(q.next_completion(), Some((t(1.0), JobId(5))));
        q.add(JobId(2), 1.0, 1.0);
        q.advance(t(1.0));
        assert_eq!(q.next_completion(), Some((t(1.0), JobId(2))));
        assert_eq!(q.take_completed(US), vec![JobId(2), JobId(5)]);
        assert_eq!(q.job_ids(), vec![JobId(9)]);
    }

    #[test]
    fn take_completed_with_mixed_caps_returns_ids_sorted() {
        // Undersubscribed, so V = t. Jobs 3 and 9 drain exactly at V = 1
        // and `advance` harvests them; 1 (cap 2) and 4 (cap 0.5) are
        // within `eps` of done; 7 (cap 2) is inside the `eps / min_cap`
        // window but 2e-6 cpu-s short; 6 is far off.
        let mut q = PsQueue::new(16.0);
        q.add(JobId(9), 2.0, 2.0);
        q.add(JobId(3), 0.5, 0.5);
        q.add(JobId(4), 0.500_000_4, 0.5);
        q.add(JobId(1), 2.000_000_2, 2.0);
        q.add(JobId(7), 2.000_002, 2.0);
        q.add(JobId(6), 1.0, 0.5);
        q.advance(t(1.0));
        assert_eq!(
            q.take_completed(1e-6),
            vec![JobId(1), JobId(3), JobId(4), JobId(9)]
        );
        assert_eq!(q.job_ids(), vec![JobId(6), JobId(7)]);
        assert!((q.cores_in_use() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn drained_id_is_readded_after_remove() {
        // An id drained to zero but not yet taken can be removed (nothing
        // left to run) and then re-added as a fresh job.
        let mut q = PsQueue::new(1.0);
        q.add(JobId(4), 1.0, 1.0);
        q.add(JobId(8), 5.0, 1.0);
        q.advance(t(2.0));
        assert_eq!(q.remaining(JobId(4)), Some(0.0));
        assert_eq!(q.remove(JobId(4)), Some(0.0));
        assert_eq!(q.remaining(JobId(4)), None);
        q.add(JobId(4), 1.5, 1.0);
        // Two jobs share one core: 4 needs 3 s, 8 has 4 cpu-s left.
        assert_eq!(q.next_completion(), Some((t(5.0), JobId(4))));
        q.advance(t(5.0));
        assert_eq!(q.take_completed(US), vec![JobId(4)]);
        assert_eq!(q.job_ids(), vec![JobId(8)]);
    }
}
