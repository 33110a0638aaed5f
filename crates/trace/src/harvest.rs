//! Harvest VM trace model.
//!
//! The paper characterizes Azure Harvest VMs along three axes (Section 3.1):
//!
//! * **Lifetimes** (Figure 1): mean 61.5 days, more than 90 % of VMs live
//!   longer than one day, more than 60 % longer than one month.
//! * **CPU-change intervals** (Figure 2): expected interval 17.8 hours,
//!   ~70 % longer than 10 minutes, ~35 % longer than 1 hour; 35.1 % of VMs
//!   never change.
//! * **CPU-change sizes** (Figure 3): roughly symmetric, mostly within ±20
//!   CPUs, average magnitude 12, maximum 30.
//!
//! The production traces are proprietary, so this module provides synthetic
//! generators calibrated to those published statistics, plus a fleet-level
//! generator reproducing the deployment/eviction timeline of Figure 8
//! (including correlated eviction storms — "VM evictions ... frequently
//! happen in bursts").

use rand::RngExt;
use serde::{Deserialize, Serialize};

use crate::dist::{bernoulli, LogUniform, Mixture, Sampler, UniformDist};
use crate::rng::SeedFactory;
use crate::time::{SimDuration, SimTime};

/// The eviction grace period: a Harvest VM receives a 30-second notice
/// before it is evicted (Section 2).
pub const EVICTION_GRACE: SimDuration = SimDuration::from_secs(30);

/// Time to install the FaaS platform and dependencies on a fresh VM
/// (Section 3.1 removes these 10 minutes from usable lifetime).
pub const INSTALL_TIME: SimDuration = SimDuration::from_mins(10);

/// A step change in the number of physical CPUs assigned to a Harvest VM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CpuChange {
    /// When the change takes effect.
    pub at: SimTime,
    /// The new CPU count (absolute, not a delta).
    pub cpus: u32,
}

/// How a VM's tenure in a trace ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum VmEnd {
    /// Evicted by the IaaS provider (after the 30-second grace period).
    Evicted,
    /// Removed for a non-eviction reason (user delete, migration, ...).
    Removed,
    /// Still alive when the trace window closed (censored).
    Censored,
}

/// The recorded life of one VM: deployment, CPU resizes, and end.
///
/// Regular and Spot VMs are represented with the same type (no CPU changes;
/// Spot VMs can still be evicted), so the platform layer treats every VM
/// kind uniformly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VmTrace {
    /// Deployment time.
    pub deploy: SimTime,
    /// End of life (eviction/removal time, or trace end if censored).
    pub end: SimTime,
    /// Why the VM's record ends.
    pub ended: VmEnd,
    /// Minimum (paid-for) CPU count; the VM never shrinks below this.
    pub base_cpus: u32,
    /// Maximum CPU count this VM can harvest up to.
    pub max_cpus: u32,
    /// CPUs assigned at deployment.
    pub initial_cpus: u32,
    /// Fixed memory size in MiB (memory does not vary on Harvest VMs).
    pub memory_mb: u64,
    /// CPU resize events, strictly ordered, within `(deploy, end)`.
    pub cpu_changes: Vec<CpuChange>,
}

impl VmTrace {
    /// Builds a constant-size VM trace (a regular or Spot VM).
    pub fn constant(
        deploy: SimTime,
        end: SimTime,
        ended: VmEnd,
        cpus: u32,
        memory_mb: u64,
    ) -> Self {
        VmTrace {
            deploy,
            end,
            ended,
            base_cpus: cpus,
            max_cpus: cpus,
            initial_cpus: cpus,
            memory_mb,
            cpu_changes: Vec::new(),
        }
    }

    /// Lifetime from deployment to end.
    pub fn lifetime(&self) -> SimDuration {
        self.end.since(self.deploy)
    }

    /// True if this VM was evicted (rather than removed or censored).
    pub fn evicted(&self) -> bool {
        self.ended == VmEnd::Evicted
    }

    /// The instant the 30-second eviction warning fires, if this VM is
    /// evicted.
    pub fn warning_time(&self) -> Option<SimTime> {
        if self.evicted() {
            Some(SimTime::from_micros(
                self.end
                    .as_micros()
                    .saturating_sub(EVICTION_GRACE.as_micros()),
            ))
        } else {
            None
        }
    }

    /// CPUs assigned at time `t`.
    ///
    /// Returns 0 outside `[deploy, end)`.
    pub fn cpus_at(&self, t: SimTime) -> u32 {
        if t < self.deploy || t >= self.end {
            return 0;
        }
        let idx = self.cpu_changes.partition_point(|c| c.at <= t);
        if idx == 0 {
            self.initial_cpus
        } else {
            self.cpu_changes[idx - 1].cpus
        }
    }

    /// Integrated capacity over the VM's life, in CPU-seconds.
    pub fn cpu_seconds(&self) -> f64 {
        let mut total = 0.0;
        let mut cur_t = self.deploy;
        let mut cur_c = self.initial_cpus;
        for ch in &self.cpu_changes {
            total += ch.at.since(cur_t).as_secs_f64() * cur_c as f64;
            cur_t = ch.at;
            cur_c = ch.cpus;
        }
        total += self.end.since(cur_t).as_secs_f64() * cur_c as f64;
        total
    }

    /// Clips this trace to the window `[start, start + len)` and re-bases
    /// times so the window begins at `SimTime::ZERO`. Returns `None` if the
    /// VM does not overlap the window.
    pub fn clip_to_window(&self, start: SimTime, len: SimDuration) -> Option<VmTrace> {
        let w_end = start + len;
        if self.end <= start || self.deploy >= w_end {
            return None;
        }
        let deploy = self.deploy.max(start);
        let end = self.end.min(w_end);
        let ended = if self.end > w_end {
            VmEnd::Censored
        } else {
            self.ended
        };
        let initial_cpus = self
            .cpus_at(deploy)
            .max(self.base_cpus.min(self.initial_cpus));
        let rebased = |t: SimTime| SimTime::ZERO + t.since(start);
        let cpu_changes = self
            .cpu_changes
            .iter()
            .filter(|c| c.at > deploy && c.at < end)
            .map(|c| CpuChange {
                at: rebased(c.at),
                cpus: c.cpus,
            })
            .collect();
        Some(VmTrace {
            deploy: rebased(deploy),
            end: rebased(end),
            ended,
            base_cpus: self.base_cpus,
            max_cpus: self.max_cpus,
            initial_cpus,
            memory_mb: self.memory_mb,
            cpu_changes,
        })
    }

    /// Asserts internal ordering invariants (used by tests and generators).
    pub fn validate(&self) {
        assert!(self.deploy < self.end, "empty VM life");
        assert!(self.base_cpus >= 1 && self.base_cpus <= self.max_cpus);
        assert!(self.initial_cpus >= self.base_cpus && self.initial_cpus <= self.max_cpus);
        let mut prev = self.deploy;
        for c in &self.cpu_changes {
            assert!(c.at > prev, "cpu changes out of order");
            assert!(c.cpus >= self.base_cpus && c.cpus <= self.max_cpus);
            prev = c.at;
        }
        assert!(prev < self.end, "cpu change after end");
    }
}

/// Lifetime distribution calibrated to Figure 1.
#[derive(Debug)]
pub struct LifetimeModel {
    mix: Mixture,
}

impl Default for LifetimeModel {
    fn default() -> Self {
        Self::paper_calibrated()
    }
}

impl LifetimeModel {
    /// The calibration used throughout the reproduction:
    /// 7 % of VMs live between 1 minute and 1 day (log-uniform),
    /// 31 % between 1 day and 1 month, and 62 % between 1 month and the
    /// 173-day trace horizon (half log-uniform, half uniform, which bends
    /// the log-x CDF the way Figure 1 does). Mean ≈ 60 days.
    pub fn paper_calibrated() -> Self {
        const DAY: f64 = 86_400.0;
        let mix = Mixture::new(vec![
            (
                0.07,
                Box::new(LogUniform::new(60.0, DAY)) as Box<dyn Sampler>,
            ),
            (0.31, Box::new(LogUniform::new(DAY, 30.0 * DAY))),
            (0.31, Box::new(LogUniform::new(30.0 * DAY, 173.0 * DAY))),
            (0.31, Box::new(UniformDist::new(30.0 * DAY, 173.0 * DAY))),
        ]);
        LifetimeModel { mix }
    }

    /// Draws one VM lifetime.
    pub fn sample(&self, rng: &mut dyn rand::Rng) -> SimDuration {
        SimDuration::from_secs_f64(self.mix.sample(rng)).max(SimDuration::from_secs(60))
    }

    /// Analytic mean of the model.
    pub fn mean(&self) -> SimDuration {
        SimDuration::from_secs_f64(self.mix.mean().expect("components have means"))
    }
}

/// CPU-change process calibrated to Figures 2 and 3.
#[derive(Debug)]
pub struct CpuChangeModel {
    /// Probability that a VM never changes size (Figure 3's mass at 0).
    pub never_changes: f64,
    interval: Mixture,
    /// Mean of the geometric-like change magnitude before truncation.
    magnitude_mean: f64,
    /// Hard cap on a single change (the paper observes max 30).
    magnitude_cap: u32,
}

impl Default for CpuChangeModel {
    fn default() -> Self {
        Self::paper_calibrated()
    }
}

impl CpuChangeModel {
    /// Calibration: 30 % of intervals in (1 s, 10 min), 35 % in
    /// (10 min, 1 h), 35 % in (1 h, 12 d) — all log-uniform — giving a mean
    /// of ≈ 17.8 h. Change magnitudes are exponential with mean 12, capped
    /// at 30; 35.1 % of VMs never change.
    pub fn paper_calibrated() -> Self {
        let interval = Mixture::new(vec![
            (
                0.30,
                Box::new(LogUniform::new(1.0, 600.0)) as Box<dyn Sampler>,
            ),
            (0.35, Box::new(LogUniform::new(600.0, 3_600.0))),
            (0.35, Box::new(LogUniform::new(3_600.0, 1_036_800.0))),
        ]);
        CpuChangeModel {
            never_changes: 0.351,
            interval,
            magnitude_mean: 12.0,
            magnitude_cap: 30,
        }
    }

    /// A high-churn variant used for the worst-case variability experiment
    /// (Section 7.3): mean change interval ≈ 3.6 minutes with large sizes.
    pub fn active() -> Self {
        let interval = Mixture::new(vec![
            (
                0.5,
                Box::new(LogUniform::new(30.0, 240.0)) as Box<dyn Sampler>,
            ),
            (0.5, Box::new(LogUniform::new(120.0, 900.0))),
        ]);
        CpuChangeModel {
            never_changes: 0.0,
            interval,
            magnitude_mean: 14.0,
            magnitude_cap: 26,
        }
    }

    /// Draws the time until the next CPU change.
    pub fn sample_interval(&self, rng: &mut dyn rand::Rng) -> SimDuration {
        SimDuration::from_secs_f64(self.interval.sample(rng)).max(SimDuration::from_secs(1))
    }

    /// Draws a change magnitude in CPUs (>= 1).
    pub fn sample_magnitude(&self, rng: &mut dyn rand::Rng) -> u32 {
        let x = -self.magnitude_mean * (1.0 - rng.random_range(0.0..1.0f64)).ln();
        (x.round() as u32).clamp(1, self.magnitude_cap)
    }

    /// Generates the resize events for one VM living on `[deploy, end)`.
    ///
    /// The returned events respect `[base_cpus, max_cpus]` bounds; a drawn
    /// change that cannot be applied in its drawn direction is applied in
    /// the other direction, and skipped entirely when the VM is pinned
    /// (`base_cpus == max_cpus`).
    pub fn generate(
        &self,
        rng: &mut dyn rand::Rng,
        deploy: SimTime,
        end: SimTime,
        base_cpus: u32,
        max_cpus: u32,
        initial_cpus: u32,
    ) -> Vec<CpuChange> {
        assert!(base_cpus <= initial_cpus && initial_cpus <= max_cpus);
        if base_cpus == max_cpus || bernoulli(rng, self.never_changes) {
            return Vec::new();
        }
        let mut events = Vec::new();
        let mut t = deploy;
        let mut cpus = initial_cpus;
        loop {
            let next = t.saturating_add(self.sample_interval(rng));
            if next >= end || next == SimTime::MAX {
                break;
            }
            let mag = self.sample_magnitude(rng);
            let grow = bernoulli(rng, 0.5);
            let new = if grow {
                let grown = (cpus + mag).min(max_cpus);
                if grown == cpus {
                    cpus.saturating_sub(mag).max(base_cpus)
                } else {
                    grown
                }
            } else {
                let shrunk = cpus.saturating_sub(mag).max(base_cpus);
                if shrunk == cpus {
                    (cpus + mag).min(max_cpus)
                } else {
                    shrunk
                }
            };
            t = next;
            if new != cpus {
                cpus = new;
                events.push(CpuChange { at: t, cpus });
            }
        }
        events
    }
}

/// One correlated eviction burst: at `at`, each alive Harvest VM is evicted
/// independently with probability `fraction`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Storm {
    /// When the burst hits.
    pub at: SimTime,
    /// Fraction of the alive fleet taken down.
    pub fraction: f64,
}

/// Configuration for the fleet-level Harvest VM trace generator (Figure 8).
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Total trace horizon (the paper's trace spans 173 days).
    pub horizon: SimDuration,
    /// Fleet size at the start of the trace.
    pub initial_population: u32,
    /// Fleet size targeted at the end (Figure 8a shows growth ~400 → ~650).
    pub final_population: u32,
    /// Probability that a natural (non-storm) death counts as an eviction
    /// rather than a planned removal.
    pub natural_eviction_prob: f64,
    /// Mean time between random eviction storms.
    pub storm_every: SimDuration,
    /// Deterministic storms injected on top of the random ones; the default
    /// config plants one large storm so a "Worst" 14-day window with an
    /// eviction rate near the paper's 86.4 % always exists.
    pub forced_storms: Vec<Storm>,
    /// Base (minimum) CPUs of each Harvest VM.
    pub base_cpus: u32,
    /// Maximum CPUs a Harvest VM can harvest up to (paper profiles cap 32).
    pub max_cpus: u32,
    /// Fixed memory per VM in MiB.
    pub memory_mb: u64,
    /// How often the generator tops the fleet back up to its target size.
    pub redeploy_check_every: SimDuration,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            horizon: SimDuration::from_days(173),
            initial_population: 430,
            final_population: 640,
            natural_eviction_prob: 0.35,
            storm_every: SimDuration::from_days(45),
            forced_storms: vec![Storm {
                at: SimTime::ZERO + SimDuration::from_days(101),
                fraction: 0.85,
            }],
            base_cpus: 2,
            max_cpus: 32,
            memory_mb: 16 * 1024,
            redeploy_check_every: SimDuration::from_hours(1),
        }
    }
}

/// Per-window eviction statistics, the metric of Section 4.1.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WindowStats {
    /// Window start.
    pub start: SimTime,
    /// VMs alive at any point in the window.
    pub existing: u32,
    /// Evictions within the window.
    pub evictions: u32,
    /// Deployments within the window.
    pub deployments: u32,
    /// `evictions / existing`.
    pub eviction_rate: f64,
}

/// A generated fleet of Harvest VM traces over a long horizon.
///
/// # Examples
///
/// ```
/// use hrv_trace::harvest::{FleetConfig, FleetTrace};
/// use hrv_trace::rng::SeedFactory;
/// use hrv_trace::time::SimDuration;
///
/// let config = FleetConfig {
///     horizon: SimDuration::from_days(10),
///     initial_population: 20,
///     final_population: 25,
///     ..FleetConfig::default()
/// };
/// let fleet = FleetTrace::generate(&config, &SeedFactory::new(7));
/// assert!(fleet.vms.len() >= 20);
/// let worst = fleet.worst_window(SimDuration::from_days(2), SimDuration::from_days(1));
/// assert!(worst.existing > 0);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetTrace {
    /// Every VM that existed during the horizon.
    pub vms: Vec<VmTrace>,
    /// The horizon the fleet covers, from `SimTime::ZERO`.
    pub horizon: SimDuration,
}

impl FleetTrace {
    /// Generates a fleet per `config`, deterministically from `seeds`.
    pub fn generate(config: &FleetConfig, seeds: &SeedFactory) -> FleetTrace {
        let lifetime_model = LifetimeModel::paper_calibrated();
        let cpu_model = CpuChangeModel::paper_calibrated();
        let mut rng = seeds.stream("fleet");
        let t_end = SimTime::ZERO + config.horizon;

        // Draw the storm schedule up front.
        let mut storms = config.forced_storms.clone();
        {
            let mut t = SimTime::ZERO;
            let mean = config.storm_every.as_secs_f64();
            loop {
                let gap =
                    SimDuration::from_secs_f64(-mean * (1.0 - rng.random_range(0.0..1.0f64)).ln());
                t = t.saturating_add(gap);
                if t >= t_end {
                    break;
                }
                let fraction = LogUniform::new(0.02, 0.35).sample(&mut rng);
                storms.push(Storm { at: t, fraction });
            }
            storms.sort_by_key(|s| s.at);
        }

        // Sequential timeline: deaths are processed lazily; at every
        // redeploy tick the fleet is topped up to the (linearly growing)
        // target population.
        #[derive(Debug)]
        struct Pending {
            deploy: SimTime,
            death: SimTime,
            ended: VmEnd,
        }
        let mut pending: Vec<Pending> = Vec::new();
        let mut finished: Vec<Pending> = Vec::new();

        let target_at = |t: SimTime| -> u32 {
            let frac = t.as_secs_f64() / config.horizon.as_secs_f64();
            let lo = config.initial_population as f64;
            let hi = config.final_population as f64;
            (lo + (hi - lo) * frac).round() as u32
        };

        let deploy_vm = |at: SimTime, rng: &mut rand::rngs::StdRng, pending: &mut Vec<Pending>| {
            let life = lifetime_model.sample(rng);
            let natural_death = at.saturating_add(life);
            let (death, ended) = if natural_death >= t_end {
                (t_end, VmEnd::Censored)
            } else if bernoulli(rng, config.natural_eviction_prob) {
                (natural_death, VmEnd::Evicted)
            } else {
                (natural_death, VmEnd::Removed)
            };
            pending.push(Pending {
                deploy: at,
                death,
                ended,
            });
        };

        let mut t = SimTime::ZERO;
        let mut storm_idx = 0;
        while t < t_end {
            // Apply storms that hit before this tick.
            while storm_idx < storms.len() && storms[storm_idx].at <= t {
                let storm = storms[storm_idx];
                storm_idx += 1;
                for vm in pending.iter_mut() {
                    if vm.deploy < storm.at
                        && vm.death > storm.at
                        && bernoulli(&mut rng, storm.fraction)
                    {
                        vm.death = storm.at;
                        vm.ended = VmEnd::Evicted;
                    }
                }
            }
            // Retire dead VMs.
            let mut i = 0;
            while i < pending.len() {
                if pending[i].death <= t {
                    finished.push(pending.swap_remove(i));
                } else {
                    i += 1;
                }
            }
            // Top the fleet up to target.
            let target = target_at(t);
            while (pending.len() as u32) < target {
                deploy_vm(t, &mut rng, &mut pending);
            }
            t += config.redeploy_check_every;
        }
        finished.append(&mut pending);
        finished.sort_by_key(|p| p.deploy);

        // Materialize full traces with CPU-change schedules.
        let vms = finished
            .into_iter()
            .enumerate()
            .map(|(i, p)| {
                let mut vm_rng = seeds.stream_indexed("fleet-vm", i as u64);
                let initial = vm_rng.random_range(config.base_cpus..=config.max_cpus);
                let cpu_changes = cpu_model.generate(
                    &mut vm_rng,
                    p.deploy,
                    p.death,
                    config.base_cpus,
                    config.max_cpus,
                    initial,
                );
                let vm = VmTrace {
                    deploy: p.deploy,
                    end: p.death,
                    ended: p.ended,
                    base_cpus: config.base_cpus,
                    max_cpus: config.max_cpus,
                    initial_cpus: initial,
                    memory_mb: config.memory_mb,
                    cpu_changes,
                };
                vm.validate();
                vm
            })
            .collect();
        FleetTrace {
            vms,
            horizon: config.horizon,
        }
    }

    /// VMs alive at `t`.
    pub fn alive_at(&self, t: SimTime) -> usize {
        self.vms
            .iter()
            .filter(|v| v.deploy <= t && v.end > t)
            .count()
    }

    /// Computes eviction statistics for every window of length `len`
    /// starting at multiples of `stride` (the paper slides 14-day windows
    /// across Sundays; we slide daily).
    pub fn windows(&self, len: SimDuration, stride: SimDuration) -> Vec<WindowStats> {
        assert!(!stride.is_zero());
        let mut out = Vec::new();
        let mut start = SimTime::ZERO;
        while start + len <= SimTime::ZERO + self.horizon {
            let end = start + len;
            let mut existing = 0u32;
            let mut evictions = 0u32;
            let mut deployments = 0u32;
            for vm in &self.vms {
                let overlaps = vm.deploy < end && vm.end > start;
                if overlaps {
                    existing += 1;
                }
                if vm.evicted() && vm.end > start && vm.end <= end {
                    evictions += 1;
                }
                if vm.deploy >= start && vm.deploy < end {
                    deployments += 1;
                }
            }
            let eviction_rate = if existing == 0 {
                0.0
            } else {
                f64::from(evictions) / f64::from(existing)
            };
            out.push(WindowStats {
                start,
                existing,
                evictions,
                deployments,
                eviction_rate,
            });
            start += stride;
        }
        out
    }

    /// The window with the highest eviction rate (the paper's "Worst").
    pub fn worst_window(&self, len: SimDuration, stride: SimDuration) -> WindowStats {
        self.windows(len, stride)
            .into_iter()
            .max_by(|a, b| a.eviction_rate.total_cmp(&b.eviction_rate))
            .expect("horizon shorter than window")
    }

    /// The window whose eviction rate is closest to the mean rate across
    /// all windows (the paper's "Typical").
    pub fn typical_window(&self, len: SimDuration, stride: SimDuration) -> WindowStats {
        let windows = self.windows(len, stride);
        let mean: f64 = windows.iter().map(|w| w.eviction_rate).sum::<f64>() / windows.len() as f64;
        windows
            .into_iter()
            .min_by(|a, b| {
                (a.eviction_rate - mean)
                    .abs()
                    .total_cmp(&(b.eviction_rate - mean).abs())
            })
            .expect("horizon shorter than window")
    }

    /// Extracts and re-bases all VM traces overlapping the given window,
    /// ready to drive a simulation.
    pub fn extract(&self, start: SimTime, len: SimDuration) -> Vec<VmTrace> {
        self.vms
            .iter()
            .filter_map(|v| v.clip_to_window(start, len))
            .collect()
    }
}

/// Builds the static "Normal" heterogeneous harvest cluster of Section 7.3:
/// `n` VMs with stable but asymmetric CPU counts between `min_cpus` and
/// `max_cpus`, scaled so the total is exactly `total_cpus`.
pub fn heterogeneous_sizes(n: usize, min_cpus: u32, max_cpus: u32, total_cpus: u32) -> Vec<u32> {
    assert!(n >= 2 && min_cpus <= max_cpus);
    assert!(total_cpus >= min_cpus * n as u32 && total_cpus <= max_cpus * n as u32);
    // Start from a linear ramp between min and max, then push the residual
    // into the middle VMs while respecting bounds.
    let mut sizes: Vec<u32> = (0..n)
        .map(|i| {
            let f = i as f64 / (n - 1) as f64;
            (min_cpus as f64 + f * (max_cpus - min_cpus) as f64).round() as u32
        })
        .collect();
    let mut total: i64 = sizes.iter().map(|&c| i64::from(c)).sum();
    let want = i64::from(total_cpus);
    // Keep the extremes pinned at min/max so the cluster stays exactly as
    // asymmetric as requested; absorb the residual in the middle VMs. Fall
    // back to touching the extremes only if the middle saturates.
    let mut touch_extremes = false;
    let mut i = 1;
    while total != want {
        let idx = i % n;
        let adjustable = touch_extremes || (idx != 0 && idx != n - 1);
        if adjustable {
            if total < want && sizes[idx] < max_cpus {
                sizes[idx] += 1;
                total += 1;
            } else if total > want && sizes[idx] > min_cpus {
                sizes[idx] -= 1;
                total -= 1;
            }
        }
        i += 1;
        if i > 10 * n * usize::from(max_cpus as u16) {
            touch_extremes = true;
        }
    }
    sizes
}

/// Builds the "Active" worst-case cluster of Section 7.3: `n` Harvest VM
/// traces with extremely frequent and large CPU changes (mean interval
/// ≈ 3.6 minutes, max shrink 26 CPUs), each covering `horizon`.
pub fn active_cluster(
    n: usize,
    horizon: SimDuration,
    max_cpus: u32,
    memory_mb: u64,
    seeds: &SeedFactory,
) -> Vec<VmTrace> {
    let model = CpuChangeModel::active();
    (0..n)
        .map(|i| {
            let mut rng = seeds.stream_indexed("active-vm", i as u64);
            let base = 2;
            // Start mid-range so the random walk hovers around the
            // cluster's nominal capacity instead of decaying from the top.
            let initial = (base + max_cpus) / 2;
            let cpu_changes = model.generate(
                &mut rng,
                SimTime::ZERO,
                SimTime::ZERO + horizon,
                base,
                max_cpus,
                initial,
            );
            let vm = VmTrace {
                deploy: SimTime::ZERO,
                end: SimTime::ZERO + horizon,
                ended: VmEnd::Censored,
                base_cpus: base,
                max_cpus,
                initial_cpus: initial,
                memory_mb,
                cpu_changes,
            };
            vm.validate();
            vm
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Cdf;

    fn seeds() -> SeedFactory {
        SeedFactory::new(2021)
    }

    #[test]
    fn lifetime_model_matches_figure_1() {
        let model = LifetimeModel::paper_calibrated();
        let mut rng = seeds().stream("life");
        let samples: Vec<f64> = (0..40_000)
            .map(|_| model.sample(&mut rng).as_days_f64())
            .collect();
        let cdf = Cdf::from_samples(samples);
        // Mean 61.5 days (±15 %).
        assert!(
            (cdf.mean() - 61.5).abs() / 61.5 < 0.15,
            "mean {} days",
            cdf.mean()
        );
        // >90 % live longer than a day.
        assert!(
            cdf.fraction_above(1.0) > 0.90,
            "{}",
            cdf.fraction_above(1.0)
        );
        // >60 % live longer than a month.
        assert!(
            cdf.fraction_above(30.0) > 0.60,
            "{}",
            cdf.fraction_above(30.0)
        );
    }

    #[test]
    fn cpu_change_intervals_match_figure_2() {
        let model = CpuChangeModel::paper_calibrated();
        let mut rng = seeds().stream("intervals");
        let samples: Vec<f64> = (0..40_000)
            .map(|_| model.sample_interval(&mut rng).as_secs_f64())
            .collect();
        let cdf = Cdf::from_samples(samples);
        let mean_h = cdf.mean() / 3_600.0;
        assert!((mean_h - 17.8).abs() / 17.8 < 0.2, "mean {mean_h} h");
        // ~70 % longer than 10 minutes.
        let above_10m = cdf.fraction_above(600.0);
        assert!((above_10m - 0.70).abs() < 0.05, "{above_10m}");
        // ~35 % longer than 1 hour.
        let above_1h = cdf.fraction_above(3_600.0);
        assert!((above_1h - 0.35).abs() < 0.05, "{above_1h}");
    }

    #[test]
    fn cpu_change_sizes_match_figure_3() {
        let model = CpuChangeModel::paper_calibrated();
        let mut rng = seeds().stream("sizes");
        let mags: Vec<f64> = (0..40_000)
            .map(|_| f64::from(model.sample_magnitude(&mut rng)))
            .collect();
        let cdf = Cdf::from_samples(mags);
        assert!(cdf.max() <= 30.0);
        assert!((cdf.mean() - 12.0).abs() < 2.0, "mean {}", cdf.mean());
    }

    #[test]
    fn generated_changes_respect_bounds_and_order() {
        let model = CpuChangeModel::paper_calibrated();
        let mut rng = seeds().stream("gen");
        for _ in 0..50 {
            let events = model.generate(
                &mut rng,
                SimTime::ZERO,
                SimTime::ZERO + SimDuration::from_days(30),
                2,
                32,
                16,
            );
            let mut prev_t = SimTime::ZERO;
            let mut prev_c = 16;
            for e in &events {
                assert!(e.at > prev_t);
                assert!((2..=32).contains(&e.cpus));
                assert_ne!(e.cpus, prev_c, "no-op change recorded");
                prev_t = e.at;
                prev_c = e.cpus;
            }
        }
    }

    #[test]
    fn pinned_vm_never_changes() {
        let model = CpuChangeModel::paper_calibrated();
        let mut rng = seeds().stream("pinned");
        let events = model.generate(
            &mut rng,
            SimTime::ZERO,
            SimTime::ZERO + SimDuration::from_days(30),
            8,
            8,
            8,
        );
        assert!(events.is_empty());
    }

    #[test]
    fn vm_trace_cpus_at_lookup() {
        let vm = VmTrace {
            deploy: SimTime::from_secs(10),
            end: SimTime::from_secs(100),
            ended: VmEnd::Evicted,
            base_cpus: 2,
            max_cpus: 32,
            initial_cpus: 8,
            memory_mb: 16_384,
            cpu_changes: vec![
                CpuChange {
                    at: SimTime::from_secs(40),
                    cpus: 20,
                },
                CpuChange {
                    at: SimTime::from_secs(70),
                    cpus: 4,
                },
            ],
        };
        vm.validate();
        assert_eq!(vm.cpus_at(SimTime::from_secs(5)), 0);
        assert_eq!(vm.cpus_at(SimTime::from_secs(10)), 8);
        assert_eq!(vm.cpus_at(SimTime::from_secs(39)), 8);
        assert_eq!(vm.cpus_at(SimTime::from_secs(40)), 20);
        assert_eq!(vm.cpus_at(SimTime::from_secs(69)), 20);
        assert_eq!(vm.cpus_at(SimTime::from_secs(99)), 4);
        assert_eq!(vm.cpus_at(SimTime::from_secs(100)), 0);
    }

    #[test]
    fn vm_trace_cpu_seconds_integral() {
        let vm = VmTrace {
            deploy: SimTime::ZERO,
            end: SimTime::from_secs(100),
            ended: VmEnd::Censored,
            base_cpus: 2,
            max_cpus: 32,
            initial_cpus: 10,
            memory_mb: 16_384,
            cpu_changes: vec![CpuChange {
                at: SimTime::from_secs(50),
                cpus: 20,
            }],
        };
        assert!((vm.cpu_seconds() - (50.0 * 10.0 + 50.0 * 20.0)).abs() < 1e-9);
    }

    #[test]
    fn clip_to_window_rebases() {
        let vm = VmTrace {
            deploy: SimTime::from_secs(100),
            end: SimTime::from_secs(1_000),
            ended: VmEnd::Evicted,
            base_cpus: 2,
            max_cpus: 32,
            initial_cpus: 8,
            memory_mb: 16_384,
            cpu_changes: vec![CpuChange {
                at: SimTime::from_secs(500),
                cpus: 16,
            }],
        };
        // Window [400, 700): VM spans the whole window, censored at clip.
        let clipped = vm
            .clip_to_window(SimTime::from_secs(400), SimDuration::from_secs(300))
            .unwrap();
        assert_eq!(clipped.deploy, SimTime::ZERO);
        assert_eq!(clipped.end, SimTime::from_secs(300));
        assert_eq!(clipped.ended, VmEnd::Censored);
        assert_eq!(clipped.cpu_changes.len(), 1);
        assert_eq!(clipped.cpu_changes[0].at, SimTime::from_secs(100));
        assert_eq!(clipped.initial_cpus, 8);

        // Window containing the end: eviction preserved.
        let clipped = vm
            .clip_to_window(SimTime::from_secs(900), SimDuration::from_secs(300))
            .unwrap();
        assert_eq!(clipped.ended, VmEnd::Evicted);
        assert_eq!(clipped.initial_cpus, 16);

        // Disjoint window.
        assert!(vm
            .clip_to_window(SimTime::from_secs(2_000), SimDuration::from_secs(10))
            .is_none());
    }

    #[test]
    fn fleet_generation_is_deterministic_and_sane() {
        // Shrink the horizon so the test is fast.
        let config = FleetConfig {
            horizon: SimDuration::from_days(40),
            initial_population: 60,
            final_population: 90,
            forced_storms: vec![Storm {
                at: SimTime::ZERO + SimDuration::from_days(20),
                fraction: 0.8,
            }],
            ..FleetConfig::default()
        };
        let a = FleetTrace::generate(&config, &seeds());
        let b = FleetTrace::generate(&config, &seeds());
        assert_eq!(a.vms.len(), b.vms.len());
        assert_eq!(a.vms, b.vms);
        for vm in &a.vms {
            vm.validate();
        }
        // Population stays near target.
        let mid = a.alive_at(SimTime::ZERO + SimDuration::from_days(25));
        assert!(mid >= 50, "population collapsed: {mid}");
    }

    #[test]
    fn fleet_windows_find_storm() {
        let config = FleetConfig {
            horizon: SimDuration::from_days(40),
            initial_population: 60,
            final_population: 80,
            storm_every: SimDuration::from_days(10_000), // no random storms
            forced_storms: vec![Storm {
                at: SimTime::ZERO + SimDuration::from_days(20),
                fraction: 0.8,
            }],
            ..FleetConfig::default()
        };
        let fleet = FleetTrace::generate(&config, &seeds());
        let worst = fleet.worst_window(SimDuration::from_days(14), SimDuration::from_days(1));
        // The worst window must contain the storm and have a high rate.
        assert!(worst.eviction_rate > 0.5, "rate {}", worst.eviction_rate);
        let typical = fleet.typical_window(SimDuration::from_days(14), SimDuration::from_days(1));
        assert!(typical.eviction_rate < worst.eviction_rate);
    }

    #[test]
    fn extract_window_produces_valid_rebased_vms() {
        let config = FleetConfig {
            horizon: SimDuration::from_days(30),
            initial_population: 40,
            final_population: 50,
            ..FleetConfig::default()
        };
        let fleet = FleetTrace::generate(&config, &seeds());
        let window = fleet.extract(
            SimTime::ZERO + SimDuration::from_days(10),
            SimDuration::from_days(14),
        );
        assert!(!window.is_empty());
        for vm in &window {
            vm.validate();
            assert!(vm.end <= SimTime::ZERO + SimDuration::from_days(14));
        }
    }

    #[test]
    fn heterogeneous_sizes_hit_total() {
        let sizes = heterogeneous_sizes(10, 5, 28, 180);
        assert_eq!(sizes.len(), 10);
        assert_eq!(sizes.iter().sum::<u32>(), 180);
        assert_eq!(*sizes.iter().min().unwrap(), 5);
        assert_eq!(*sizes.iter().max().unwrap(), 28);
    }

    #[test]
    fn active_cluster_changes_frequently() {
        let vms = active_cluster(10, SimDuration::from_mins(20), 32, 128 * 1024, &seeds());
        assert_eq!(vms.len(), 10);
        let total_changes: usize = vms.iter().map(|v| v.cpu_changes.len()).sum();
        // Mean interval ~3.6 min over 20 min × 10 VMs → expect ≥ 20 changes.
        assert!(total_changes >= 20, "only {total_changes} changes");
    }
}
