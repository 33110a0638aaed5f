//! Cost of the same resources (Section 7.6): what 180 CPUs cost per hour
//! as regular VMs vs Harvest VMs, at each discount level of Table 3.
//!
//! `experiments table3` / `fig17` print the fixed-budget side of the cost
//! story (VMs per budget, throughput at equal cost); this table is the
//! equal-resources side, which no `experiments` section prints.
//!
//! ```sh
//! cargo run --release --example cost_budget
//! ```

use harvest_faas::cost::{harvest_vm_rate, regular_vm_rate, saving, Discounts};
use harvest_faas::report::{pct, Table};

fn main() {
    let mut costs = Table::new(
        "hourly cost of 180 CPUs by VM kind",
        &["discount", "regular", "harvest", "saving"],
    );
    for d in Discounts::table3() {
        let regular = regular_vm_rate(180);
        // 10 harvest VMs: base 2 + 16 harvested cores each.
        let harvest = 10.0 * harvest_vm_rate(2, 16.0, d);
        costs.row(vec![
            d.label.into(),
            format!("{regular:.0}"),
            format!("{harvest:.1}"),
            pct(saving(harvest, regular)),
        ]);
    }
    println!("{}", costs.render());
    println!("paper: harvest is 49% / 77% / 83% / 89% cheaper than regular VMs");
}
