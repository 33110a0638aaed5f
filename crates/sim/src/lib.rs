//! # hrv-sim
//!
//! Deterministic discrete-event simulation engine used by the FaaS
//! platform model: a cancellable event [`calendar`], a run-loop
//! [`engine`], and a processor-sharing service queue [`ps`] modelling CPU
//! contention on resizable Harvest VMs.
//!
//! The executable specifications the differential tests hold the calendar
//! and the queue to (`calendar_reference`, `ps_reference`) are built only
//! for tests, through the `test-support` feature.

pub mod calendar;
#[cfg(any(test, feature = "test-support"))]
pub mod calendar_reference;
pub mod engine;
pub mod ps;
#[cfg(any(test, feature = "test-support"))]
pub mod ps_reference;
