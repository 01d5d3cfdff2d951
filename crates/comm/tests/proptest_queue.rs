//! Property tests of the buffered message queue and sparse all-to-all: for
//! arbitrary PE counts, post schedules, flush thresholds and routing
//! disciplines, every posted envelope must be delivered to its destination
//! exactly once (as a multiset), and the exchange must terminate.

use std::time::Duration;

use proptest::prelude::*;
use tricount_comm::{
    run_guarded, run_sim, MessageQueue, QueueConfig, Routing, SimOptions, HEADER_WORDS,
};

/// A post schedule: per source rank, a list of (dest, payload) envelopes.
type Schedule = Vec<Vec<(usize, Vec<u64>)>>;

fn arb_schedule() -> impl Strategy<Value = (usize, Schedule)> {
    (2usize..7).prop_flat_map(|p| {
        let posts = proptest::collection::vec(
            proptest::collection::vec(
                ((0usize..p), proptest::collection::vec(0u64..1000, 0..6)),
                0..25,
            ),
            p,
        );
        (Just(p), posts).prop_map(|(p, mut sched)| {
            // a rank cannot post to itself: redirect those to (rank+1) % p
            for (src, posts) in sched.iter_mut().enumerate() {
                for (dest, _) in posts.iter_mut() {
                    if *dest == src {
                        *dest = (*dest + 1) % p;
                    }
                }
            }
            (p, sched)
        })
    })
}

fn arb_config() -> impl Strategy<Value = QueueConfig> {
    (
        prop_oneof![Just(None), Just(Some(0usize)), (1usize..200).prop_map(Some)],
        prop_oneof![Just(Routing::Direct), Just(Routing::Grid)],
    )
        .prop_map(|(delta, routing)| QueueConfig { delta, routing })
}

fn expected_inbox(p: usize, sched: &Schedule, me: usize) -> Vec<Vec<u64>> {
    let mut inbox: Vec<Vec<u64>> = (0..p)
        .flat_map(|src| {
            sched[src]
                .iter()
                .filter(|(d, _)| *d == me)
                .map(|(_, payload)| payload.clone())
        })
        .collect();
    inbox.sort();
    inbox
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_envelope_delivered_exactly_once((p, sched) in arb_schedule(), cfg in arb_config()) {
        let sched_ref = &sched;
        let out = run_sim(p, &SimOptions::default(), move |ctx| {
            let mut q = MessageQueue::new(ctx, cfg);
            let mut inbox: Vec<Vec<u64>> = Vec::new();
            let me = ctx.rank();
            for (dest, payload) in &sched_ref[me] {
                q.post(ctx, *dest, payload);
                // interleave polling like the real algorithms
                q.poll(ctx, &mut |_c, env| inbox.push(env.payload.to_vec()));
            }
            q.finish(ctx, &mut |_c, env| inbox.push(env.payload.to_vec()));
            inbox.sort();
            inbox
        }).output;
        for (me, inbox) in out.results.iter().enumerate() {
            prop_assert_eq!(inbox, &expected_inbox(p, &sched, me), "rank {}", me);
        }
    }

    #[test]
    fn consecutive_exchanges_are_isolated((p, sched) in arb_schedule(), cfg in arb_config()) {
        // run the same schedule twice through one queue: each round must
        // deliver exactly its own envelopes
        let sched_ref = &sched;
        let out = run_sim(p, &SimOptions::default(), move |ctx| {
            let me = ctx.rank();
            let mut q = MessageQueue::new(ctx, cfg);
            let mut rounds: Vec<Vec<Vec<u64>>> = Vec::new();
            for _ in 0..2 {
                let mut inbox: Vec<Vec<u64>> = Vec::new();
                for (dest, payload) in &sched_ref[me] {
                    q.post(ctx, *dest, payload);
                }
                q.finish(ctx, &mut |_c, env| inbox.push(env.payload.to_vec()));
                inbox.sort();
                rounds.push(inbox);
            }
            rounds
        }).output;
        for (me, rounds) in out.results.iter().enumerate() {
            let expect = expected_inbox(p, &sched, me);
            prop_assert_eq!(&rounds[0], &expect, "round 1, rank {}", me);
            prop_assert_eq!(&rounds[1], &expect, "round 2, rank {}", me);
        }
    }

    #[test]
    fn peak_buffer_bounded_by_delta_plus_one_record(
        (p, sched) in arb_schedule(),
        delta in 1usize..128,
    ) {
        let sched_ref = &sched;
        let out = run_sim(p, &SimOptions::default(), move |ctx| {
            let mut q = MessageQueue::new(ctx, QueueConfig::dynamic(delta));
            for (dest, payload) in &sched_ref[ctx.rank()] {
                q.post(ctx, *dest, payload);
            }
            q.finish(ctx, &mut |_c, _e| {});
            ctx.counters().peak_buffered_words
        }).output;
        // a post may overshoot δ by at most one record (header 2 + payload ≤ 5);
        // relays buffered while still producing can add one more in-flight
        // message worth of records per poll
        let max_record = 2 + 5;
        let sum_in_flight: usize = sched.iter().map(|s| s.len() * max_record).sum();
        for &peak in &out.results {
            prop_assert!(
                peak <= (delta + max_record + sum_in_flight) as u64,
                "peak {} way beyond delta {}", peak, delta
            );
        }
    }

    #[test]
    fn exchange_terminates_and_respects_memory_lemma(
        (p, sched) in arb_schedule(),
        delta in 1usize..64,
        routing in prop_oneof![Just(Routing::Direct), Just(Routing::Grid)],
    ) {
        // The §IV-A memory lemma, as the conformance linter states it: with
        // `delta: Some(d)` the buffered volume never exceeds d plus one
        // maximal record under direct routing, and 2d plus two maximal
        // records under grid routing (a poll may append one whole incoming
        // relay aggregate before flushing). And the exchange must terminate
        // — a stall becomes a deadlock report, not a hung suite.
        let cfg = QueueConfig { delta: Some(delta), routing };
        let body_sched = sched.clone();
        let out = run_guarded(
            p,
            &SimOptions::default(),
            Duration::from_secs(30),
            move |ctx| {
                let mut q = MessageQueue::new(ctx, cfg);
                let mut got = 0u64;
                let me = ctx.rank();
                for (dest, payload) in &body_sched[me] {
                    q.post(ctx, *dest, payload);
                    q.poll(ctx, &mut |_c, _e| got += 1);
                }
                q.finish(ctx, &mut |_c, _e| got += 1);
                (got, ctx.counters().peak_buffered_words)
            },
        )
        .unwrap_or_else(|report| panic!("exchange failed to terminate: {report}"));
        let max_record: u64 = sched
            .iter()
            .flatten()
            .map(|(_, payload)| HEADER_WORDS + payload.len() as u64)
            .max()
            .unwrap_or(0);
        let bound = match routing {
            Routing::Direct => delta as u64 + max_record,
            Routing::Grid => 2 * delta as u64 + 2 * max_record,
        };
        for (me, &(got, peak)) in out.output.results.iter().enumerate() {
            prop_assert_eq!(
                got as usize,
                expected_inbox(p, &sched, me).len(),
                "rank {} delivery count", me
            );
            prop_assert!(
                peak <= bound,
                "rank {} peak {} exceeds the memory bound {} (delta {}, routing {:?})",
                me, peak, bound, delta, routing
            );
        }
    }
}
