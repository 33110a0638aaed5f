//! # hrv-lb
//!
//! Load-balancing policies for serverless platforms on harvested
//! resources: the paper's **min-worker-set (MWS)** algorithm
//! ([`mws`]), the **join-the-shortest-queue** family ([`jsq`]) and
//! **vanilla OpenWhisk** memory bin-packing ([`vanilla`]); plus the
//! consistent-hash ring ([`hashring`]), the controller's fleet view
//! ([`view`]), and the learned per-function statistics ([`estimate`])
//! they consume.

pub mod estimate;
pub mod hashring;
pub mod jsq;
pub mod mws;
pub mod ownership;
pub mod policy;
pub mod vanilla;
pub mod view;

pub use ownership::{owned_arc, owner_of};
pub use policy::{LoadBalancer, PolicyKind};
pub use view::{ClusterView, InvokerId, InvokerView, LoadWeights};
