//! Property-based tests for the topology partitioner (proptest): the
//! invariants the hybrid engine's region plans rely on must hold on
//! arbitrary connected irregular networks, for any shard request.

use itb_topo::builders::{random_irregular, IrregularSpec};
use itb_topo::{partition, Topology};
use proptest::prelude::*;

/// Strategy: irregular-network size/seed plus a shard request (possibly
/// larger than the switch count — the partitioner must clamp).
fn part_case() -> impl Strategy<Value = (usize, u64, usize)> {
    (3usize..=16, any::<u64>(), 1usize..=24)
}

fn build(switches: usize, seed: u64) -> Topology {
    random_irregular(&IrregularSpec::evaluation_default(switches, seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every switch lands in exactly one in-range shard, and no shard is
    /// empty.
    #[test]
    fn assignment_is_complete_and_nonempty((switches, seed, shards) in part_case()) {
        let topo = build(switches, seed);
        let part = partition(&topo, shards, seed);
        prop_assert!(part.shards >= 1);
        prop_assert!(part.shards as usize <= shards.min(topo.num_switches()));
        prop_assert_eq!(part.shard_of_switch.len(), topo.num_switches());
        let mut seen = vec![false; part.shards as usize];
        for s in topo.switch_ids() {
            let sh = part.shard_of(s);
            prop_assert!(sh < part.shards);
            seen[sh as usize] = true;
        }
        prop_assert!(seen.iter().all(|&b| b), "empty shard: {:?}", seen);
    }

    /// Same inputs, same partition — the partitioner is a pure function of
    /// (topology, shard request, seed).
    #[test]
    fn partition_is_deterministic((switches, seed, shards) in part_case()) {
        let topo = build(switches, seed);
        let a = partition(&topo, shards, seed);
        let b = partition(&topo, shards, seed);
        prop_assert_eq!(a.shards, b.shards);
        prop_assert_eq!(a.shard_of_switch, b.shard_of_switch);
    }
}
