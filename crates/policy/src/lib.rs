//! Cold-start lifecycle policies.
//!
//! The platform's container lifecycle asks one question per idle
//! transition: *how long should this warm container stay resident, and
//! should a replacement be pre-warmed before the function's next
//! predicted arrival?* This crate answers it behind one trait,
//! [`ColdStartPolicy`], with four deterministic implementations:
//!
//! * [`FixedKeepAlive`] — the OpenWhisk default: a single fixed TTL for
//!   every function (the platform's `keep_alive` tunable). This is the
//!   default policy and is byte-identical to the pre-policy platform.
//! * [`HybridHistogram`] — the hybrid policy of *Serverless in the Wild*
//!   (Shahrad et al., ATC '20): a per-function histogram of observed
//!   inter-arrival times with head/tail percentile cutoffs, an
//!   out-of-bounds fallback, and a prewarm window — rarely-invoked
//!   functions are unloaded right away and re-warmed just before the
//!   next predicted arrival.
//! * [`NullPolicy`] — no keep-alive at all: every container is reaped as
//!   soon as it goes idle. The worst-case cold-start baseline.
//! * [`WarmPool`] — a bounded pool of always-resident warm containers
//!   per function, in the spirit of pull-based warm-container schedulers
//!   (Hiku): idle containers park in the pool until work pulls them out,
//!   surplus beyond the pool bound is reaped immediately.
//!
//! # Determinism contract
//!
//! Policies run inside a deterministic discrete-event simulation whose
//! results must be byte-identical across shard counts. Therefore:
//!
//! * decisions may depend only on the arguments of [`ColdStartPolicy`]
//!   callbacks (per-invoker observations) — never on wall clocks, map
//!   iteration order, or ambient randomness;
//! * a stochastic policy must draw exclusively from a named
//!   `SeedFactory` stream handed to it at construction, never from a
//!   global RNG;
//! * one policy instance serves exactly one invoker: observations are
//!   invoker-local, so the state a decision reads is independent of how
//!   the fleet is partitioned across shards.

use serde::{Deserialize, Serialize};

use hrv_trace::faas::FunctionId;
use hrv_trace::time::{SimDuration, SimTime};

pub mod histogram;
pub mod warmpool;

pub use histogram::{HybridHistogram, HybridHistogramConfig};
pub use warmpool::{WarmPool, WarmPoolConfig};

/// Context the invoker supplies with every idle transition.
#[derive(Debug, Clone, Copy)]
pub struct IdleCtx {
    /// Simulation time of the Busy → Idle transition.
    pub now: SimTime,
    /// The platform's fixed keep-alive tunable (`PlatformConfig::
    /// keep_alive`) — what [`FixedKeepAlive`] arms and what fallback
    /// paths should use.
    pub fixed_keep_alive: SimDuration,
    /// Wall-clock cost of a cold container start; a useful prewarm must
    /// lead the predicted arrival by at least this much.
    pub cold_start_delay: SimDuration,
    /// One bus hop — the minimum delay of any cross-entity message, and
    /// therefore the earliest a prewarm order can take effect.
    pub bus_latency: SimDuration,
    /// Other containers of the same function currently idle on this
    /// invoker (the one going idle excluded). Counting them is a scan of
    /// the invoker's container table, so the invoker fills this in only
    /// for a policy whose [`ColdStartPolicy::reads_idle_peers`] is true
    /// (the default); a policy that opted out sees 0 and must not read it.
    pub idle_peers: usize,
}

/// A prewarm order: have one warm container for the function ready
/// `warm_at` after the idle transition, and keep it for `ttl` once warm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrewarmPlan {
    /// Offset from the idle transition at which the container should be
    /// warm. Must exceed the cold-start delay plus one bus hop, or the
    /// spawn cannot be scheduled in time.
    pub warm_at: SimDuration,
    /// Keep-alive TTL armed when the prewarmed container becomes warm.
    pub ttl: SimDuration,
}

/// What to do with a container that just went idle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdleDecision {
    /// Keep-alive TTL to arm; `None` reaps the container as soon as the
    /// current scheduling pass completes (zero keep-alive).
    pub keep_alive: Option<SimDuration>,
    /// Optional prewarm order for this function.
    pub prewarm: Option<PrewarmPlan>,
}

impl IdleDecision {
    /// Keep the container for `ttl`, no prewarm.
    pub fn keep(ttl: SimDuration) -> Self {
        IdleDecision {
            keep_alive: Some(ttl),
            prewarm: None,
        }
    }

    /// Reap immediately, no prewarm.
    pub fn reap() -> Self {
        IdleDecision {
            keep_alive: None,
            prewarm: None,
        }
    }
}

/// Per-function container lifecycle decisions. One instance serves one
/// invoker; see the crate docs for the determinism contract.
pub trait ColdStartPolicy: std::fmt::Debug + Send {
    /// Observes an invocation for `function` arriving at this invoker at
    /// `now` (delivery time). Called before the invocation starts, for
    /// every delivery, whether it warm- or cold-starts.
    fn observe_arrival(&mut self, function: FunctionId, now: SimTime);

    /// Decides the fate of a container for `function` that went idle at
    /// `ctx.now`.
    fn on_idle(&mut self, function: FunctionId, ctx: &IdleCtx) -> IdleDecision;

    /// Whether [`ColdStartPolicy::on_idle`] reads [`IdleCtx::idle_peers`].
    /// Defaults to the safe answer; a policy that never looks at the
    /// count returns false and spares the invoker a container scan per
    /// completion.
    fn reads_idle_peers(&self) -> bool {
        true
    }

    /// Short policy name for tables and CLI flags.
    fn name(&self) -> &'static str;
}

/// The OpenWhisk default: every idle container is kept for the
/// platform's fixed `keep_alive` TTL. Stateless; byte-identical to the
/// pre-policy platform.
#[derive(Debug, Clone, Copy, Default)]
pub struct FixedKeepAlive;

impl ColdStartPolicy for FixedKeepAlive {
    fn observe_arrival(&mut self, _function: FunctionId, _now: SimTime) {}

    fn on_idle(&mut self, _function: FunctionId, ctx: &IdleCtx) -> IdleDecision {
        IdleDecision::keep(ctx.fixed_keep_alive)
    }

    fn reads_idle_peers(&self) -> bool {
        false
    }

    fn name(&self) -> &'static str {
        "fixed"
    }
}

/// No keep-alive: containers are reaped the moment they go idle, so
/// every non-back-to-back invocation cold-starts. The worst-case
/// baseline that bounds the cold-start axis from below.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullPolicy;

impl ColdStartPolicy for NullPolicy {
    fn observe_arrival(&mut self, _function: FunctionId, _now: SimTime) {}

    fn on_idle(&mut self, _function: FunctionId, _ctx: &IdleCtx) -> IdleDecision {
        IdleDecision::reap()
    }

    fn reads_idle_peers(&self) -> bool {
        false
    }

    fn name(&self) -> &'static str {
        "null"
    }
}

/// Serializable policy selection, carried inside the platform config.
/// `Fixed` is the default and reproduces the pre-policy platform byte
/// for byte.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum ColdStartConfig {
    /// [`FixedKeepAlive`] using the platform's `keep_alive` tunable.
    #[default]
    Fixed,
    /// [`NullPolicy`]: zero keep-alive.
    Null,
    /// [`HybridHistogram`] with the given tuning.
    Hybrid(HybridHistogramConfig),
    /// [`WarmPool`] with the given tuning.
    WarmPool(WarmPoolConfig),
}

impl ColdStartConfig {
    /// Builds one per-invoker policy instance.
    pub fn build(&self) -> Box<dyn ColdStartPolicy> {
        match self {
            ColdStartConfig::Fixed => Box::new(FixedKeepAlive),
            ColdStartConfig::Null => Box::new(NullPolicy),
            ColdStartConfig::Hybrid(cfg) => Box::new(HybridHistogram::new(*cfg)),
            ColdStartConfig::WarmPool(cfg) => Box::new(WarmPool::new(*cfg)),
        }
    }

    /// Short name for tables and CLI flags.
    pub fn label(&self) -> &'static str {
        match self {
            ColdStartConfig::Fixed => "fixed",
            ColdStartConfig::Null => "null",
            ColdStartConfig::Hybrid(_) => "hybrid",
            ColdStartConfig::WarmPool(_) => "warmpool",
        }
    }

    /// Parses a CLI policy name (`--coldstart <name>`), using default
    /// tuning for the parameterized policies.
    pub fn parse(name: &str) -> Option<ColdStartConfig> {
        match name {
            "fixed" => Some(ColdStartConfig::Fixed),
            "null" => Some(ColdStartConfig::Null),
            "hybrid" => Some(ColdStartConfig::Hybrid(HybridHistogramConfig::default())),
            "warmpool" | "pool" => Some(ColdStartConfig::WarmPool(WarmPoolConfig::default())),
            _ => None,
        }
    }

    /// All four policies at default tuning (the shootout grid).
    pub fn all() -> [ColdStartConfig; 4] {
        [
            ColdStartConfig::Fixed,
            ColdStartConfig::Null,
            ColdStartConfig::Hybrid(HybridHistogramConfig::default()),
            ColdStartConfig::WarmPool(WarmPoolConfig::default()),
        ]
    }

    /// Validates the tuning against the platform's bus latency floor.
    ///
    /// # Panics
    ///
    /// Panics on nonsensical settings (zero histogram bin widths, prewarm
    /// windows below one bus hop, empty pools).
    pub fn validate(&self, bus_latency: SimDuration) {
        match self {
            ColdStartConfig::Fixed | ColdStartConfig::Null => {}
            ColdStartConfig::Hybrid(h) => h.validate(bus_latency),
            ColdStartConfig::WarmPool(w) => w.validate(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrv_trace::faas::AppId;

    fn f(app: u32) -> FunctionId {
        FunctionId {
            app: AppId(app),
            func: 0,
        }
    }

    fn ctx(now_secs: u64) -> IdleCtx {
        IdleCtx {
            now: SimTime::from_secs(now_secs),
            fixed_keep_alive: SimDuration::from_mins(10),
            cold_start_delay: SimDuration::from_millis(2_500),
            bus_latency: SimDuration::from_millis(2),
            idle_peers: 0,
        }
    }

    #[test]
    fn fixed_arms_the_platform_ttl() {
        let mut p = FixedKeepAlive;
        let d = p.on_idle(f(1), &ctx(100));
        assert_eq!(d.keep_alive, Some(SimDuration::from_mins(10)));
        assert_eq!(d.prewarm, None);
    }

    #[test]
    fn null_always_reaps() {
        let mut p = NullPolicy;
        let d = p.on_idle(f(1), &ctx(100));
        assert_eq!(d, IdleDecision::reap());
    }

    #[test]
    fn config_roundtrip_and_labels() {
        for cfg in ColdStartConfig::all() {
            assert_eq!(ColdStartConfig::parse(cfg.label()), Some(cfg));
            assert_eq!(cfg.build().name(), cfg.label());
            cfg.validate(SimDuration::from_millis(2));
            // Only the pool reads the idle-peer count.
            assert_eq!(
                cfg.build().reads_idle_peers(),
                matches!(cfg, ColdStartConfig::WarmPool(_))
            );
        }
        assert_eq!(ColdStartConfig::parse("bogus"), None);
        assert_eq!(ColdStartConfig::default(), ColdStartConfig::Fixed);
    }

    #[test]
    #[should_panic(expected = "bin width")]
    fn zero_bin_width_is_rejected() {
        let cfg = ColdStartConfig::Hybrid(HybridHistogramConfig {
            bin_width: SimDuration::ZERO,
            ..HybridHistogramConfig::default()
        });
        cfg.validate(SimDuration::from_millis(2));
    }

    #[test]
    #[should_panic(expected = "prewarm window")]
    fn sub_bus_prewarm_window_is_rejected() {
        let cfg = ColdStartConfig::Hybrid(HybridHistogramConfig {
            prewarm_window: SimDuration::from_micros(1),
            ..HybridHistogramConfig::default()
        });
        cfg.validate(SimDuration::from_millis(2));
    }
}
