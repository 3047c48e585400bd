//! Property-based tests of the simulator's collectives: conservation of
//! words, correctness of data movement, and round accounting — for
//! arbitrary cluster sizes and payload shapes, on every transport.

use mpc_sim::{Cluster, Partition, TransportKind};
use proptest::prelude::*;

/// Every transport: collective semantics and ledger charges must not
/// depend on how the payloads move.
const TRANSPORTS: [TransportKind; 2] = [TransportKind::Sim, TransportKind::Loopback];

fn arb_contributions() -> impl Strategy<Value = Vec<Vec<u32>>> {
    (1usize..8)
        .prop_flat_map(|m| prop::collection::vec(prop::collection::vec(any::<u32>(), 0..20), m..=m))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// all_broadcast delivers the exact multiset union in machine order,
    /// and the ledger conserves words: what everyone received equals what
    /// was sent divided by the fan-out.
    #[test]
    fn all_broadcast_union_and_conservation(contribs in arb_contributions(), weight in 1u64..8) {
        let m = contribs.len();
        let expect: Vec<u32> = contribs.iter().flatten().copied().collect();
        let total_items: u64 = contribs.iter().map(|v| v.len() as u64).sum();
        for kind in TRANSPORTS {
            let mut c = Cluster::with_transport(m, 0, kind);
            let got = c.all_broadcast("t", contribs.clone(), weight);
            prop_assert_eq!(&got, &expect);
            prop_assert_eq!(c.rounds(), 1);
            let rec = &c.ledger().records()[0];
            let sent: u64 = rec.per_machine.iter().map(|io| io.sent).sum();
            let received: u64 = rec.per_machine.iter().map(|io| io.received).sum();
            prop_assert_eq!(sent, total_items * weight * (m as u64 - 1));
            prop_assert_eq!(received, total_items * weight * (m as u64 - 1));
        }
    }

    /// gather: machine 0 receives everything; senders are only charged for
    /// what they contributed.
    #[test]
    fn gather_conservation(contribs in arb_contributions(), weight in 1u64..8) {
        let m = contribs.len();
        let expect: Vec<u32> = contribs.iter().flatten().copied().collect();
        let own = contribs[0].len() as u64;
        let total: u64 = contribs.iter().map(|v| v.len() as u64).sum();
        for kind in TRANSPORTS {
            let mut c = Cluster::with_transport(m, 0, kind);
            let got = c.gather("t", contribs.clone(), weight);
            prop_assert_eq!(&got, &expect);
            let rec = &c.ledger().records()[0];
            prop_assert_eq!(rec.per_machine[0].received, (total - own) * weight);
            prop_assert_eq!(rec.per_machine[0].sent, 0);
            let sent: u64 = rec.per_machine.iter().map(|io| io.sent).sum();
            prop_assert_eq!(sent, (total - own) * weight);
        }
    }

    /// exchange is an exact transpose, and sent == received globally.
    #[test]
    fn exchange_transpose_and_conservation(
        m in 1usize..6,
        seed in any::<u64>(),
        weight in 1u64..5,
    ) {
        // Deterministic payload derived from (src, dst).
        let msgs: Vec<Vec<Vec<u64>>> = (0..m)
            .map(|s| (0..m).map(|d| {
                let len = ((seed ^ (s as u64) << 8 ^ d as u64) % 5) as usize;
                vec![(s * 100 + d) as u64; len]
            }).collect())
            .collect();
        let expected: Vec<Vec<Vec<u64>>> = (0..m)
            .map(|d| (0..m).map(|s| msgs[s][d].clone()).collect())
            .collect();
        for kind in TRANSPORTS {
            let mut c = Cluster::with_transport(m, 0, kind);
            let inbox = c.exchange("t", msgs.clone(), weight);
            prop_assert_eq!(&inbox, &expected);
            let rec = &c.ledger().records()[0];
            let sent: u64 = rec.per_machine.iter().map(|io| io.sent).sum();
            let received: u64 = rec.per_machine.iter().map(|io| io.received).sum();
            prop_assert_eq!(sent, received);
        }
    }

    /// Every partition constructor covers each item exactly once.
    #[test]
    fn partitions_are_total(n in 0usize..300, m in 1usize..10, seed in any::<u64>()) {
        for p in [
            Partition::round_robin(n, m),
            Partition::contiguous(n, m),
            Partition::random(n, m, seed),
            Partition::skewed(n, m, 1.5, seed),
        ] {
            let mut seen = vec![false; n];
            for mach in 0..m {
                for &it in p.items(mach) {
                    prop_assert!(!std::mem::replace(&mut seen[it as usize], true));
                    prop_assert_eq!(p.owner(it), mach);
                }
            }
            prop_assert!(seen.into_iter().all(|s| s));
            prop_assert_eq!(p.n(), n);
            prop_assert_eq!(p.m(), m);
        }
    }

    /// reduce agrees with a sequential fold for arbitrary inputs.
    #[test]
    fn reduce_matches_sequential(values in prop::collection::vec(any::<i64>(), 1..9)) {
        let m = values.len();
        let expect = values.iter().copied().fold(i64::MIN, i64::max);
        for kind in TRANSPORTS {
            let mut c = Cluster::with_transport(m, 0, kind);
            let got = c.reduce("t", values.clone(), 1, i64::max);
            prop_assert_eq!(got, expect);
        }
    }
}
