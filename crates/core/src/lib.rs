//! # harvest-faas
//!
//! A from-scratch reproduction of *"Faster and Cheaper Serverless
//! Computing on Harvested Resources"* (SOSP 2021): serverless platforms
//! hosted on Harvest VMs — evictable VMs that grow and shrink with their
//! host's unallocated CPU cores.
//!
//! The crate composes the workspace's substrates into the paper's system
//! and experiments:
//!
//! * [`provision`] — the eviction-handling strategies of Section 4
//!   (no-failures, bounded-failures, live-and-let-die) and the
//!   keep-alive-aware capacity split;
//! * [`cost`] — the discount/pricing model, the fixed-budget provisioning
//!   of Table 3, and the amortized per-CPU price of Section 7.5;
//! * [`funcbench`] — the FunctionBench suite of Table 2 as calibrated
//!   workload models;
//! * [`experiment`] — the harness behind every evaluation figure
//!   (latency-vs-load sweeps, reliability runs, spot-vs-harvest packing);
//! * [`report`] — text rendering of tables and series.
//!
//! Re-exported substrates: [`hrv_trace`] (traces and workload models),
//! [`hrv_sim`] (discrete-event engine), [`hrv_lb`] (MWS/JSQ/vanilla load
//! balancers), [`hrv_platform`] (the OpenWhisk-like platform),
//! [`hrv_policy`] (pluggable cold-start lifecycle policies), and
//! [`hrv_fault`] (deterministic fault-injection plans).
//!
//! # Examples
//!
//! ```
//! use harvest_faas::experiment::{run_point, SweepConfig};
//! use harvest_faas::hrv_lb::policy::PolicyKind;
//! use harvest_faas::hrv_platform::world::ClusterSpec;
//! use harvest_faas::hrv_trace::time::SimDuration;
//!
//! let mut cfg = SweepConfig::quick();
//! cfg.n_functions = 10;
//! cfg.duration = SimDuration::from_secs(60);
//! cfg.warmup = SimDuration::from_secs(5);
//! let cluster = ClusterSpec::regular(2, 8, 32 * 1024, SimDuration::from_mins(5));
//! let point = run_point(&cluster, PolicyKind::Mws, 2.0, &cfg);
//! assert!(point.completed > 0);
//! ```

pub mod cost;
pub mod experiment;
pub mod funcbench;
pub mod provision;
pub mod report;

pub use hrv_fault;
pub use hrv_lb;
pub use hrv_platform;
pub use hrv_policy;
pub use hrv_sim;
pub use hrv_trace;
