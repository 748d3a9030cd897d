//! Property suite pinning the ensemble engine's two core contracts:
//!
//! 1. **Thread invariance** — the same [`EnsembleSpec`] (same root
//!    seed) produces a bit-identical [`EnsembleAggregate`] across
//!    `threads ∈ {1, 2, 8}`: replica seeds are a pure function of
//!    `(root, index)` and the fold runs in replica order, so the worker
//!    count can only change wall-clock, never results.
//! 2. **Fingerprint-index fidelity** — on small games, the equilibrium
//!    census must agree exactly with a *naive* per-replica replay:
//!    collect every converged replica's full per-coin mass vector,
//!    sort-and-dedup, and compare distinct count, canonical keys, and
//!    per-key hit counts against the streaming index.
//!
//! Both properties cover the scheduler-free incremental loop, every
//! bundled scheduler kind, and the churny fixture plan with and without
//! a scheduler (churny replicas clone one shared time-zero tracker; the
//! naive replay builds each from scratch). A third property pins that
//! sharing for every scheduler kind: [`run`]'s aggregate equals the
//! fold of standalone replicas, each of which lowers its own universe.

use std::collections::BTreeMap;

use proptest::prelude::*;

use goc_analysis::ensemble::aggregate::{EquilibriumKey, FingerprintIndex, Welford};
use goc_analysis::ensemble::{replica, run, EnsembleSpec};
use goc_learning::SchedulerKind;

/// A small random ensemble spec: population, replica count, root seed,
/// and a scheduler choice (index 0 = the scheduler-free incremental
/// loop, 1..=6 = the bundled kinds).
fn small_spec() -> impl Strategy<Value = EnsembleSpec> {
    (
        8usize..48,
        3usize..14,
        0u64..u64::MAX,
        0usize..=SchedulerKind::ALL.len(),
    )
        .prop_map(|(miners, replicas, seed, sched)| {
            let spec = EnsembleSpec::new(miners, replicas, seed);
            match sched {
                0 => spec,
                i => spec.with_scheduler(SchedulerKind::ALL[i - 1]),
            }
        })
}

/// As [`small_spec`], but with the fixture churn plan attached (modest
/// populations keep the per-case universe builds cheap), either
/// scheduler-free or round-robin scheduled.
fn churny_spec() -> impl Strategy<Value = EnsembleSpec> {
    (16usize..64, 2usize..6, 0u64..u64::MAX, 5u32..30, 0u8..2).prop_map(
        |(miners, replicas, seed, turnover, scheduled)| {
            let spec = EnsembleSpec::new(miners, replicas, seed).with_churn(turnover);
            match scheduled {
                0 => spec,
                _ => spec.with_scheduler(SchedulerKind::RoundRobin),
            }
        },
    )
}

/// A churny spec run scheduler-free (index 0) or under any bundled
/// scheduler kind (1..=6), plus a worker-thread count.
fn churny_spec_any_scheduler() -> impl Strategy<Value = (EnsembleSpec, usize)> {
    (
        16usize..48,
        2usize..5,
        0u64..u64::MAX,
        5u32..30,
        0usize..=SchedulerKind::ALL.len(),
        1usize..4,
    )
        .prop_map(|(miners, replicas, seed, turnover, sched, threads)| {
            let spec = EnsembleSpec::new(miners, replicas, seed).with_churn(turnover);
            let spec = match sched {
                0 => spec,
                i => spec.with_scheduler(SchedulerKind::ALL[i - 1]),
            };
            (spec, threads)
        })
}

/// The naive census: replay every replica standalone, keep the
/// converged ones' canonical keys, sort-and-dedup.
fn naive_census(spec: &EnsembleSpec) -> (Vec<EquilibriumKey>, BTreeMap<EquilibriumKey, u64>) {
    let mut keys: Vec<EquilibriumKey> = Vec::new();
    let mut hits: BTreeMap<EquilibriumKey, u64> = BTreeMap::new();
    for i in 0..spec.replicas {
        let record = replica(spec, i).expect("small fixture replicas run");
        if record.converged {
            keys.push(record.key.clone());
            *hits.entry(record.key).or_insert(0) += 1;
        }
    }
    keys.sort();
    keys.dedup();
    (keys, hits)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn aggregates_are_identical_across_thread_counts(spec in small_spec()) {
        let base = run(&spec, 1).expect("ensemble runs");
        for threads in [2usize, 8] {
            let other = run(&spec, threads).expect("ensemble runs");
            prop_assert_eq!(
                &base.aggregate,
                &other.aggregate,
                "aggregate drifted between 1 and {} threads",
                threads
            );
            prop_assert_eq!(base.deterministic_json(), other.deterministic_json());
        }
        // The sketch/Welford layers describe exactly the replicas run.
        prop_assert_eq!(base.aggregate.replicas, spec.replicas);
        prop_assert_eq!(base.aggregate.steps.n, spec.replicas as u64);
        prop_assert!(base.aggregate.step_percentiles.p50 <= base.aggregate.step_percentiles.p99);
    }

    #[test]
    fn fingerprint_index_matches_naive_sort_and_dedup(
        small in small_spec(),
        churny in churny_spec(),
    ) {
        for spec in [small, churny] {
            let report = run(&spec, 4).expect("ensemble runs");
            let (naive_keys, naive_hits) = naive_census(&spec);
            let census = &report.aggregate.equilibria;
            prop_assert_eq!(census.distinct, naive_keys.len());
            prop_assert_eq!(census.total_hits, report.aggregate.converged as u64);
            // Every listed census row matches the naive hit count for its
            // mass vector (the listing caps at 12 rows; the distinct count
            // and total_hits always cover everything).
            prop_assert!(census.entries.len() == census.distinct.min(12));
            for entry in &census.entries {
                let key = EquilibriumKey {
                    masses: entry
                        .masses
                        .iter()
                        .map(|m| m.parse::<u128>().expect("decimal mass"))
                        .collect(),
                    live: entry.live.clone(),
                };
                prop_assert_eq!(
                    Some(&entry.hits),
                    naive_hits.get(&key),
                    "hit count diverged for fingerprint {}",
                    &entry.fingerprint
                );
                prop_assert!(naive_keys.binary_search(&key).is_ok());
            }
        }
    }

    #[test]
    fn churny_aggregates_are_identical_across_thread_counts(spec in churny_spec()) {
        let a = run(&spec, 1).expect("churny ensemble runs");
        let b = run(&spec, 8).expect("churny ensemble runs");
        prop_assert_eq!(&a.aggregate, &b.aggregate);
        prop_assert!(a.aggregate.churn_deltas >= a.aggregate.replicas as u64,
            "every replica absorbs at least the coin lifecycle");
    }

    /// Churny replicas share one time-zero tracker inside [`run`]; the
    /// standalone [`replica`] lowers its own churn universe. Folding the
    /// standalone records must reproduce the shared run's census, step
    /// summary and churn-delta total for every scheduler kind.
    #[test]
    fn shared_churn_universe_matches_standalone_replicas(
        (spec, threads) in churny_spec_any_scheduler(),
    ) {
        let report = run(&spec, threads).expect("churny ensemble runs");
        let mut steps = Welford::new();
        let mut index = FingerprintIndex::new();
        let mut converged = 0usize;
        let mut churn_deltas = 0u64;
        for i in 0..spec.replicas {
            let record = replica(&spec, i).expect("small fixture replicas run");
            steps.push(record.steps as f64);
            churn_deltas += record.churn_applied as u64;
            if record.converged {
                converged += 1;
                index.record(record.key, record.potential, record.welfare);
            }
        }
        let aggregate = &report.aggregate;
        prop_assert_eq!(aggregate.converged, converged);
        prop_assert_eq!(aggregate.churn_deltas, churn_deltas);
        prop_assert_eq!(&aggregate.steps, &steps.summary());
        // 12 is the report's census listing cap.
        prop_assert_eq!(&aggregate.equilibria, &index.census(12));
    }
}
