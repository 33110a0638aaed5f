//! Quickstart: run a FaaS platform on a small harvested cluster and print
//! what the paper cares about — latency percentiles, cold-start rate, and
//! completion counts.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use harvest_faas::experiment::{run_point, SweepConfig};
use harvest_faas::hrv_lb::policy::PolicyKind;
use harvest_faas::hrv_platform::world::ClusterSpec;
use harvest_faas::hrv_trace::harvest::heterogeneous_sizes;
use harvest_faas::hrv_trace::time::SimDuration;
use harvest_faas::report::{pct, secs, Table};

fn main() {
    // A 10-VM harvest-like cluster: stable but heterogeneous CPU counts
    // (5–28 cores, 180 total), 32 GiB of memory each.
    let horizon = SimDuration::from_mins(15);
    let sizes = heterogeneous_sizes(10, 5, 28, 180);
    let cluster = ClusterSpec::from_sizes(&sizes, 32 * 1024, horizon);
    println!(
        "cluster: {} invokers, {} CPUs total (sizes {:?})\n",
        cluster.vms.len(),
        cluster.total_initial_cpus(),
        sizes
    );

    // Drive it with a 200-function FunctionBench-like workload at a few
    // load levels, under the paper's MWS load balancer.
    let cfg = SweepConfig {
        n_functions: 200,
        duration: SimDuration::from_mins(10),
        warmup: SimDuration::from_mins(2),
        ..SweepConfig::quick()
    };
    let mut table = Table::new(
        "MWS on harvested resources",
        &["rps", "P50", "P99", "cold starts", "completed"],
    );
    for rps in [2.0, 8.0, 16.0] {
        let point = run_point(&cluster, PolicyKind::Mws, rps, &cfg);
        table.row(vec![
            format!("{rps:.0}"),
            secs(point.p50),
            secs(point.p99),
            pct(point.cold_rate),
            format!("{}/{}", point.completed, point.arrivals),
        ]);
    }
    println!("{}", table.render());
    println!("Next: `experiments fig12` compares MWS against JSQ and vanilla OpenWhisk.");
}
