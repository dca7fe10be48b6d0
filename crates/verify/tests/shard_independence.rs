//! The shard count is not observable: `ServerConfig::num_shards` sizes
//! the worker pool and nothing else, so the same case replayed at one
//! shard and at four must put the same bytes on the wire and fire the
//! same alarms. (With an alarm index per shard this failed on most
//! seeds: each shard's tree had its own traversal order, and OPT push
//! lists and MWPSR obstacle order carried it to the client.)

use sa_server::FaultPlan;
use sa_verify::{shard_independence, FuzzCase};

#[test]
fn one_shard_and_four_shards_write_the_same_transcript() {
    for seed in 0..200u64 {
        let mut case = FuzzCase::from_seed(seed);
        case.plan = FaultPlan::clean();
        // Enough alarms that most cells hold several: with one or two
        // per cell there is no order to differ in.
        case.alarms = case.alarms.max(40);
        shard_independence(&case).unwrap_or_else(|e| panic!("{e}"));
    }
}
