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

/// Live migration of long invocations off eviction-warned VMs — the
/// paper's Section 4.4 proposal (nested-VM migration / snapshot-restore),
/// implemented here as an optional platform feature.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MigrationConfig {
    /// Master switch (off by default, as in the paper).
    pub enabled: bool,
    /// Fixed setup cost before state transfer begins.
    pub setup: SimDuration,
    /// Transfer time per GiB of container memory ("the total time for
    /// which the source VM must be available").
    pub per_gib: SimDuration,
    /// Only invocations whose remaining work exceeds this are migrated;
    /// anything shorter finishes within the eviction grace period anyway.
    pub min_remaining_secs: f64,
}

impl Default for MigrationConfig {
    fn default() -> Self {
        MigrationConfig {
            enabled: false,
            setup: SimDuration::from_millis(500),
            per_gib: SimDuration::from_secs(4),
            min_remaining_secs: 25.0,
        }
    }
}

/// Failure recovery: retry/re-dispatch of destroyed work plus
/// health-probe quarantine of silent or straggling invokers. Off by
/// default — with it disabled the platform behaves bit-identically to a
/// build that predates fault injection.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RecoveryConfig {
    /// Master switch.
    pub enabled: bool,
    /// How many times one invocation may be re-dispatched before it is
    /// declared lost.
    pub max_retries: u32,
    /// First retry backoff; attempt `n` waits `base * 2^n`, capped.
    pub backoff_base: SimDuration,
    /// Upper bound on the exponential backoff.
    pub backoff_cap: SimDuration,
    /// Global budget of retries across the whole run; once spent, further
    /// destroyed work is declared lost immediately.
    pub retry_budget: u64,
    /// How often the controller sweeps invoker health.
    pub probe_interval: SimDuration,
    /// Silence (no ping) after which an invoker is quarantined out of
    /// placement. Must exceed the ping interval.
    pub probe_timeout: SimDuration,
    /// Silence after which a quarantined invoker is removed from the
    /// cluster view entirely.
    pub down_after: SimDuration,
    /// Queue-pressure level a ping must report for it to count as a
    /// straggler strike.
    pub straggler_pressure: f64,
    /// Consecutive straggler strikes before quarantine.
    pub straggler_strikes: u32,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            enabled: false,
            max_retries: 3,
            backoff_base: SimDuration::from_millis(500),
            backoff_cap: SimDuration::from_secs(10),
            retry_budget: 1_000_000,
            probe_interval: SimDuration::from_secs(1),
            probe_timeout: SimDuration::from_secs(3),
            down_after: SimDuration::from_secs(10),
            straggler_pressure: 8.0,
            straggler_strikes: 5,
        }
    }
}

/// Controller replication: partition the placement path across `replicas`
/// controller replicas, each owning the functions whose MWS ring walks
/// start in its slice of the 64-bit hash space. Replica `r` is hosted on
/// shard `r % shards`, so with enough shards the placement path
/// parallelizes instead of serializing on shard 0. Each replica keeps its
/// own `HashRing` + `ClusterView`; placement charges are reconciled
/// between replicas via periodic `ViewDelta` envelopes.
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
    /// How often each replica broadcasts its pending placement-charge
    /// deltas to its peers. Must be at least one bus hop when
    /// `replicas > 1`. Staleness between replicas is bounded by this
    /// interval plus one bus hop.
    pub reconcile_interval: SimDuration,
}

impl Default for ControllerShardingConfig {
    fn default() -> Self {
        ControllerShardingConfig {
            replicas: 1,
            reconcile_interval: SimDuration::from_millis(200),
        }
    }
}

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
    /// How often the controller retries invocations it could not place.
    pub placement_retry: SimDuration,
    /// How long an invocation may wait for placement before it is
    /// rejected.
    pub placement_timeout: SimDuration,
    /// Controller replication: how many simulated controller replicas
    /// partition the placement path, and how often they reconcile their
    /// cluster views. Defaults to one replica — the classic platform.
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
            placement_retry: SimDuration::from_millis(250),
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
            !self.placement_retry.is_zero(),
            "retry interval must be positive"
        );
        assert!(
            self.sharding.replicas >= 1,
            "need at least one controller replica"
        );
        if self.sharding.replicas > 1 {
            assert!(
                self.sharding.reconcile_interval >= self.bus_latency,
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
            let r = &self.recovery;
            assert!(
                !r.probe_interval.is_zero(),
                "probe interval must be positive"
            );
            assert!(
                r.probe_timeout > self.ping_interval,
                "probe timeout must exceed the ping interval, or every \
                 healthy invoker reads as silent"
            );
            assert!(
                r.down_after >= r.probe_timeout,
                "down_after must be at least the probe timeout"
            );
            assert!(
                !r.backoff_base.is_zero() && r.backoff_cap >= r.backoff_base,
                "backoff must be positive and capped above its base"
            );
            assert!(
                r.straggler_pressure > 0.0 && r.straggler_strikes >= 1,
                "straggler quarantine needs a positive pressure threshold \
                 and at least one strike"
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
            telemetry: TelemetryConfig::Flight(FlightConfig {
                ring_capacity: 0,
                ..FlightConfig::default()
            }),
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
        config.recovery.probe_timeout = config.ping_interval;
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
        config.sharding.reconcile_interval = SimDuration::from_micros(1);
        config.validate();
    }

    #[test]
    fn replicated_controller_defaults_are_valid() {
        let mut config = PlatformConfig::default();
        config.sharding.replicas = 8;
        config.validate();
    }
}
