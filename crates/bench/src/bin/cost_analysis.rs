//! The Section 7 cost-effectiveness analysis: doubling the ATE vector
//! memory versus spending the same money on additional ATE channels.

use soctest_ate::AteCostModel;
use soctest_bench::{paper_config, pnx_soc};
use soctest_multisite::Engine;

fn main() {
    let soc = pnx_soc();
    let config = paper_config();
    let prices = AteCostModel::paper_prices();
    let result = Engine::new(&soc)
        .cost_effectiveness(&config, &prices)
        .expect("the PNX8550 stand-in fits the paper ATE");

    println!("=== Section 7 cost analysis: memory depth vs. channel count ===");
    println!(
        "Base test cell: 512 channels x 7M vectors  -> {:.0} devices/hour",
        result.base_devices_per_hour
    );
    println!(
        "Double the vector memory (cost ${:.0})      -> {:.0} devices/hour ({:+.1}%)",
        result.memory_upgrade_cost_usd,
        result.memory_upgrade_devices_per_hour,
        100.0 * result.memory_gain()
    );
    println!(
        "Buy {} extra channels instead (cost ${:.0}) -> {:.0} devices/hour ({:+.1}%)",
        result.equivalent_extra_channels,
        result.channel_upgrade_cost_usd,
        result.channel_upgrade_devices_per_hour,
        100.0 * result.channel_gain()
    );
    println!(
        "Conclusion: for the same money, {} is the more effective upgrade (paper: memory, +27% vs +18%).",
        if result.memory_wins() { "deeper vector memory" } else { "more channels" }
    );
}
