//! Platform configuration.

use serde::{Deserialize, Serialize};

use hrv_trace::time::SimDuration;

pub use hrv_policy::{ColdStartConfig, HybridHistogramConfig, WarmPoolConfig};
pub use hrv_telemetry::{FlightConfig, TelemetryConfig};

/// Template for VMs the resource monitor spins up to backfill capacity.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VmTemplate {
    /// CPUs of a backfill VM.
    pub cpus: u32,
    /// Memory of a backfill VM, MiB.
    pub memory_mb: u64,
    /// Time from the decision to a ready invoker (VM boot + platform
    /// install; Section 3.1 measures 10 minutes).
    pub deploy_delay: SimDuration,
}

impl Default for VmTemplate {
    fn default() -> Self {
        VmTemplate {
            cpus: 16,
            memory_mb: 64 * 1024,
            deploy_delay: SimDuration::from_mins(10),
        }
    }
}

/// The Resource Monitor of Section 6.2: tracks total available CPUs and
/// spins up new VMs when capacity falls below a floor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ResourceMonitorConfig {
    /// Master switch.
    pub enabled: bool,
    /// Minimum pool of placeable CPUs to maintain.
    pub min_cpus: u32,
    /// How often the monitor checks.
    pub interval: SimDuration,
    /// What it deploys when short.
    pub template: VmTemplate,
}

impl Default for ResourceMonitorConfig {
    fn default() -> Self {
        ResourceMonitorConfig {
            enabled: false,
            min_cpus: 0,
            interval: SimDuration::from_secs(30),
            template: VmTemplate::default(),
        }
    }
}

/// Fixed setup cost of a live migration before state transfer begins.
pub const MIGRATION_SETUP: SimDuration = SimDuration::from_millis(500);

/// Only invocations whose remaining work exceeds this many seconds are
/// migrated; anything shorter finishes within the eviction grace period
/// anyway.
pub const MIGRATION_MIN_REMAINING_SECS: f64 = 25.0;

/// Live migration of long invocations off eviction-warned VMs — the
/// paper's Section 4.4 proposal (nested-VM migration / snapshot-restore),
/// implemented here as an optional platform feature. A transfer takes
/// [`MIGRATION_SETUP`] plus `per_gib` per GiB of container memory.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MigrationConfig {
    /// Master switch (off by default, as in the paper).
    pub enabled: bool,
    /// Transfer time per GiB of container memory ("the total time for
    /// which the source VM must be available").
    pub per_gib: SimDuration,
}

impl Default for MigrationConfig {
    fn default() -> Self {
        MigrationConfig {
            enabled: false,
            per_gib: SimDuration::from_secs(4),
        }
    }
}

/// How many times one invocation may be re-dispatched before it is
/// declared lost.
pub const MAX_RETRIES: u32 = 3;

/// First retry backoff; attempt `n` waits `BACKOFF_BASE * 2^n`, capped at
/// [`BACKOFF_CAP`].
pub const BACKOFF_BASE: SimDuration = SimDuration::from_millis(500);

/// Upper bound on the exponential retry backoff.
pub const BACKOFF_CAP: SimDuration = SimDuration::from_secs(10);

/// Retries each controller replica may spend over the whole run; once its
/// budget is spent, further destroyed work it owns is declared lost
/// immediately. The budget is per controller replica, so a run with `R`
/// replicas may retry up to `R * RETRY_BUDGET` times in all.
pub const RETRY_BUDGET: u64 = 1_000_000;

/// How often each controller replica sweeps invoker health.
pub const PROBE_INTERVAL: SimDuration = SimDuration::from_secs(1);

/// Silence (no ping) after which an invoker is quarantined out of
/// placement. [`PlatformConfig::validate`] requires it to exceed the ping
/// interval when recovery is on.
pub const PROBE_TIMEOUT: SimDuration = SimDuration::from_secs(3);

/// Silence after which a quarantined invoker is removed from the cluster
/// view entirely.
pub const DOWN_AFTER: SimDuration = SimDuration::from_secs(10);

/// Queue-pressure level a ping must report for it to count as a
/// straggler strike.
pub const STRAGGLER_PRESSURE: f64 = 8.0;

/// Consecutive straggler strikes before quarantine.
pub const STRAGGLER_STRIKES: u32 = 5;

const _: () = {
    assert!(!PROBE_INTERVAL.is_zero(), "probe interval must be positive");
    assert!(
        DOWN_AFTER.as_micros() >= PROBE_TIMEOUT.as_micros(),
        "DOWN_AFTER must be at least the probe timeout"
    );
    assert!(
        !BACKOFF_BASE.is_zero() && BACKOFF_CAP.as_micros() >= BACKOFF_BASE.as_micros(),
        "backoff must be positive and capped above its base"
    );
    assert!(
        STRAGGLER_PRESSURE > 0.0 && STRAGGLER_STRIKES >= 1,
        "straggler quarantine needs a positive pressure threshold and at \
         least one strike"
    );
};

/// Failure recovery: retry/re-dispatch of destroyed work plus
/// health-probe quarantine of silent or straggling invokers. Off by
/// default — with it disabled the platform behaves bit-identically to a
/// build that predates fault injection. Its limits and timings are the
/// constants [`MAX_RETRIES`] through [`STRAGGLER_STRIKES`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct RecoveryConfig {
    /// Master switch.
    pub enabled: bool,
}

/// How often each controller replica broadcasts its pending
/// placement-charge deltas to its peers. Staleness between replicas is
/// bounded by this interval plus one bus hop.
/// [`PlatformConfig::validate`] requires it to be at least one bus hop
/// when there is more than one replica.
pub const RECONCILE_INTERVAL: SimDuration = SimDuration::from_millis(200);

/// Controller replication: partition the placement path across `replicas`
/// controller replicas, each owning the functions whose MWS ring walks
/// start in its slice of the 64-bit hash space. Replica `r` is hosted on
/// shard `r % shards`, so with enough shards the placement path
/// parallelizes instead of serializing on shard 0. Each replica keeps its
/// own `HashRing` + `ClusterView`; placement charges are reconciled
/// between replicas via `ViewDelta` envelopes every
/// [`RECONCILE_INTERVAL`].
///
/// The default (`replicas: 1`) is the classic single-controller platform,
/// byte-identical to the pre-replication code path (pinned by golden
/// fingerprints).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ControllerShardingConfig {
    /// Number of controller replicas (>= 1). Independent of the shard
    /// count: records are a function of the replica count, never of how
    /// replicas are laid out over shards.
    pub replicas: u32,
}

impl Default for ControllerShardingConfig {
    fn default() -> Self {
        ControllerShardingConfig { replicas: 1 }
    }
}

/// How often the controller retries invocations it could not place.
pub const PLACEMENT_RETRY: SimDuration = SimDuration::from_millis(250);

const _: () = assert!(
    !PLACEMENT_RETRY.is_zero(),
    "retry interval must be positive"
);

/// All tunables of the platform model. Defaults follow OpenWhisk defaults
/// and the paper's setup where stated.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlatformConfig {
    /// Idle container keep-alive (OpenWhisk default: 10 minutes). The
    /// TTL the default [`ColdStartConfig::Fixed`] policy arms, and the
    /// fallback for policies whose model is not yet trustworthy.
    pub keep_alive: SimDuration,
    /// Container lifecycle policy: keep-alive TTLs and prewarming. The
    /// default (`Fixed`) reproduces the pre-policy platform byte for
    /// byte.
    pub coldstart: ColdStartConfig,
    /// Wall-clock delay of a cold container start (image pull cached;
    /// docker create + runtime init).
    pub cold_start_delay: SimDuration,
    /// CPU-seconds burned by a cold start, added to the first invocation's
    /// demand — cold starts cost capacity, not just latency.
    pub cold_start_cpu_secs: f64,
    /// One-way controller↔invoker message latency (the Kafka hop).
    pub bus_latency: SimDuration,
    /// Invoker health-ping interval (OpenWhisk: 1 s).
    pub ping_interval: SimDuration,
    /// Invoker-side admission threshold: when `cpu demand / allocated
    /// CPUs` is at or above this, new invocations wait in the invoker
    /// queue (Section 6.2's admission control).
    pub admission_pressure: f64,
    /// How long an invocation may wait for placement before it is
    /// rejected.
    pub placement_timeout: SimDuration,
    /// Controller replication: how many simulated controller replicas
    /// partition the placement path. Defaults to one replica — the
    /// classic platform.
    #[serde(default)]
    pub sharding: ControllerShardingConfig,
    /// Resource-monitor settings.
    pub monitor: ResourceMonitorConfig,
    /// Live-migration settings (Section 4.4 extension).
    pub migration: MigrationConfig,
    /// Failure-recovery settings (retry, re-dispatch, quarantine).
    pub recovery: RecoveryConfig,
    /// Utilization sampling period for time-series metrics (Figure 20);
    /// zero disables sampling.
    pub sample_interval: SimDuration,
    /// Keep one `InvocationRecord` per finished invocation (O(invocations)
    /// memory) in addition to the always-on constant-memory aggregates.
    /// Turn off for full-scale streaming runs.
    pub record_invocations: bool,
    /// Lifecycle-span telemetry (flight recorder + latency attribution).
    /// `Off` (the default) is byte-identical to a build without the
    /// telemetry subsystem — pinned by golden-fingerprint tests.
    pub telemetry: TelemetryConfig,
}

impl Default for PlatformConfig {
    fn default() -> Self {
        PlatformConfig {
            keep_alive: SimDuration::from_mins(10),
            coldstart: ColdStartConfig::Fixed,
            cold_start_delay: SimDuration::from_millis(2_500),
            cold_start_cpu_secs: 6.0,
            bus_latency: SimDuration::from_millis(2),
            ping_interval: SimDuration::from_secs(1),
            admission_pressure: 1.0,
            placement_timeout: SimDuration::from_secs(60),
            sharding: ControllerShardingConfig::default(),
            monitor: ResourceMonitorConfig::default(),
            migration: MigrationConfig::default(),
            recovery: RecoveryConfig::default(),
            sample_interval: SimDuration::ZERO,
            record_invocations: true,
            telemetry: TelemetryConfig::Off,
        }
    }
}

impl PlatformConfig {
    /// Validates invariants; call after hand-building configs.
    ///
    /// # Panics
    ///
    /// Panics on nonsensical settings.
    pub fn validate(&self) {
        assert!(!self.keep_alive.is_zero(), "keep-alive must be positive");
        assert!(
            self.admission_pressure > 0.0,
            "admission threshold must be positive"
        );
        assert!(
            !self.bus_latency.is_zero(),
            "bus latency must be positive: it is the minimum cross-entity \
             message delay, and therefore the sharded driver's conservative \
             lookahead — zero would collapse every round window to nothing"
        );
        assert!(
            !self.ping_interval.is_zero(),
            "ping interval must be positive"
        );
        assert!(
            self.ping_interval >= self.bus_latency,
            "ping interval must be at least one bus hop: eviction \
             notifications travel with ping-interval delay and must respect \
             the bus-latency lookahead"
        );
        assert!(
            self.sharding.replicas >= 1,
            "need at least one controller replica"
        );
        if self.sharding.replicas > 1 {
            assert!(
                RECONCILE_INTERVAL >= self.bus_latency,
                "reconcile interval must be at least one bus hop: view \
                 deltas are cross-entity messages bound by the lookahead"
            );
        }
        assert!(
            self.cold_start_cpu_secs >= 0.0 && self.cold_start_cpu_secs.is_finite(),
            "bad cold-start tax"
        );
        self.coldstart.validate(self.bus_latency);
        if let TelemetryConfig::Flight(f) = &self.telemetry {
            assert!(
                f.ring_capacity >= 1,
                "telemetry ring capacity must be at least 1 span per entity"
            );
        }
        if self.monitor.enabled {
            assert!(
                self.monitor.template.deploy_delay >= self.bus_latency,
                "monitor deploy delay must be at least one bus hop: spawn \
                 orders are cross-entity messages bound by the lookahead"
            );
        }
        if self.recovery.enabled {
            assert!(
                PROBE_TIMEOUT > self.ping_interval,
                "probe timeout must exceed the ping interval, or every \
                 healthy invoker reads as silent"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        PlatformConfig::default().validate();
    }

    #[test]
    #[should_panic(expected = "keep-alive")]
    fn zero_keep_alive_is_rejected() {
        let config = PlatformConfig {
            keep_alive: SimDuration::ZERO,
            ..PlatformConfig::default()
        };
        config.validate();
    }

    #[test]
    #[should_panic(expected = "admission")]
    fn zero_admission_is_rejected() {
        let config = PlatformConfig {
            admission_pressure: 0.0,
            ..PlatformConfig::default()
        };
        config.validate();
    }

    #[test]
    #[should_panic(expected = "bus latency")]
    fn zero_bus_latency_is_rejected() {
        let config = PlatformConfig {
            bus_latency: SimDuration::ZERO,
            ..PlatformConfig::default()
        };
        config.validate();
    }

    #[test]
    #[should_panic(expected = "at least one bus hop")]
    fn sub_bus_ping_interval_is_rejected() {
        let config = PlatformConfig {
            ping_interval: SimDuration::from_micros(1),
            ..PlatformConfig::default()
        };
        config.validate();
    }

    #[test]
    fn all_coldstart_policy_defaults_are_valid() {
        for coldstart in ColdStartConfig::all() {
            let config = PlatformConfig {
                coldstart,
                ..PlatformConfig::default()
            };
            config.validate();
        }
    }

    #[test]
    #[should_panic(expected = "prewarm window")]
    fn sub_bus_prewarm_window_is_rejected() {
        let config = PlatformConfig {
            coldstart: ColdStartConfig::Hybrid(HybridHistogramConfig {
                prewarm_window: SimDuration::from_micros(1),
                ..HybridHistogramConfig::default()
            }),
            ..PlatformConfig::default()
        };
        config.validate();
    }

    #[test]
    #[should_panic(expected = "bin width")]
    fn zero_histogram_bin_width_is_rejected() {
        let config = PlatformConfig {
            coldstart: ColdStartConfig::Hybrid(HybridHistogramConfig {
                bin_width: SimDuration::ZERO,
                ..HybridHistogramConfig::default()
            }),
            ..PlatformConfig::default()
        };
        config.validate();
    }

    #[test]
    fn enabled_telemetry_defaults_are_valid() {
        let config = PlatformConfig {
            telemetry: TelemetryConfig::on(),
            ..PlatformConfig::default()
        };
        config.validate();
    }

    #[test]
    #[should_panic(expected = "ring capacity")]
    fn zero_telemetry_ring_is_rejected() {
        let config = PlatformConfig {
            telemetry: TelemetryConfig::Flight(FlightConfig { ring_capacity: 0 }),
            ..PlatformConfig::default()
        };
        config.validate();
    }

    #[test]
    fn enabled_recovery_defaults_are_valid() {
        let mut config = PlatformConfig::default();
        config.recovery.enabled = true;
        config.validate();
    }

    #[test]
    #[should_panic(expected = "probe timeout")]
    fn recovery_probe_timeout_must_exceed_ping_interval() {
        let mut config = PlatformConfig::default();
        config.recovery.enabled = true;
        config.ping_interval = PROBE_TIMEOUT;
        config.validate();
    }

    #[test]
    #[should_panic(expected = "controller replica")]
    fn zero_controller_replicas_are_rejected() {
        let mut config = PlatformConfig::default();
        config.sharding.replicas = 0;
        config.validate();
    }

    #[test]
    #[should_panic(expected = "reconcile interval")]
    fn sub_bus_reconcile_interval_is_rejected() {
        let mut config = PlatformConfig::default();
        config.sharding.replicas = 4;
        config.bus_latency = RECONCILE_INTERVAL + SimDuration::from_micros(1);
        config.ping_interval = config.bus_latency;
        config.validate();
    }

    #[test]
    fn replicated_controller_defaults_are_valid() {
        let mut config = PlatformConfig::default();
        config.sharding.replicas = 8;
        config.validate();
    }
}
