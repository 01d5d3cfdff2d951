//! Property tests of the buffered message queue and sparse all-to-all: for
//! arbitrary PE counts, post schedules, flush thresholds and routing
//! disciplines, every posted envelope must be delivered to its destination
//! exactly once (as a multiset), and the exchange must terminate. The inbox
//! (received envelopes wait until the inbox exceeds 4δ words or `finish`)
//! must not change what is delivered, in which per-source order, or what
//! the sender meters.

use std::time::Duration;

use proptest::prelude::*;
use tricount_comm::{
    run_guarded, run_sim, Counters, Executor, MessageQueue, QueueConfig, Routing, SimOptions,
    HEADER_WORDS, INBOX_FACTOR,
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

/// One rank's program: `(dest, payload, poll_after)` posts in order. Each
/// payload starts `[source, sequence number]`.
type Program = Vec<(usize, Vec<u64>, bool)>;

fn arb_programs() -> impl Strategy<Value = (usize, Vec<Program>)> {
    prop_oneof![Just(2usize), Just(3), Just(5)].prop_flat_map(|p| {
        let program = proptest::collection::vec(
            (
                0usize..p,
                proptest::collection::vec(0u64..1000, 0..6),
                0u8..2,
            ),
            0..30,
        );
        (Just(p), proptest::collection::vec(program, p)).prop_map(|(p, raw)| {
            let programs = raw
                .into_iter()
                .enumerate()
                .map(|(src, posts)| {
                    posts
                        .into_iter()
                        .enumerate()
                        .map(|(seq, (dest, words, poll))| {
                            let dest = if dest == src { (src + 1) % p } else { dest };
                            let mut payload = vec![src as u64, seq as u64];
                            payload.extend(words);
                            (dest, payload, poll == 1)
                        })
                        .collect()
                })
                .collect();
            (p, programs)
        })
    })
}

fn arb_inbox_config() -> impl Strategy<Value = QueueConfig> {
    (
        prop_oneof![
            Just(Some(0usize)),
            Just(Some(8)),
            Just(Some(64)),
            Just(None)
        ],
        prop_oneof![Just(Routing::Direct), Just(Routing::Grid)],
    )
        .prop_map(|(delta, routing)| QueueConfig { delta, routing })
}

/// What one rank saw: the envelopes in delivery order, the sink calls made
/// before `finish`, the inbox high-water mark and the run's counters.
struct RankView {
    delivered: Vec<Vec<u64>>,
    early_sinks: u64,
    peak_inbox: u64,
    counters: Counters,
}

/// Runs `programs` through one exchange; with `polls` unset, no rank polls
/// before `finish`.
fn run_programs(p: usize, programs: &[Program], cfg: QueueConfig, polls: bool) -> Vec<RankView> {
    run_sim(p, &SimOptions::default(), move |ctx| {
        let mut q = MessageQueue::new(ctx, cfg);
        let mut delivered: Vec<Vec<u64>> = Vec::new();
        for (dest, payload, poll) in &programs[ctx.rank()] {
            q.post(ctx, *dest, payload);
            if polls && *poll {
                while q.poll(ctx, &mut |_c, env| delivered.push(env.payload.to_vec())) {}
            }
        }
        let early_sinks = delivered.len() as u64;
        q.finish(ctx, &mut |_c, env| delivered.push(env.payload.to_vec()));
        RankView {
            delivered,
            early_sinks,
            peak_inbox: q.peak_inbox_words(),
            counters: *ctx.counters(),
        }
    })
    .output
    .results
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn inbox_keeps_delivery_order_and_counters(
        (p, programs) in arb_programs(),
        cfg in arb_inbox_config(),
    ) {
        let views = run_programs(p, &programs, cfg, true);
        let max_record = programs
            .iter()
            .flatten()
            .map(|(_, payload, _)| HEADER_WORDS + payload.len() as u64)
            .max()
            .unwrap_or(0);
        for (me, view) in views.iter().enumerate() {
            // the multiset immediate delivery hands over ...
            let mut got = view.delivered.clone();
            got.sort();
            let mut want: Vec<Vec<u64>> = programs
                .iter()
                .flatten()
                .filter(|(dest, _, _)| *dest == me)
                .map(|(_, payload, _)| payload.clone())
                .collect();
            want.sort();
            prop_assert_eq!(got, want, "rank {} delivered multiset", me);
            // ... in per-source post order
            for src in 0..p {
                let seqs: Vec<u64> = view
                    .delivered
                    .iter()
                    .filter(|env| env[0] == src as u64)
                    .map(|env| env[1])
                    .collect();
                prop_assert!(seqs.windows(2).all(|w| w[0] < w[1]), "rank {} from {}: {:?}", me, src, seqs);
            }
            // the inbox bound: 4δ plus the largest message, which is at most
            // a sender's flushed buffer (§IV-A bound, doubled under grid)
            match cfg.delta {
                Some(d) => {
                    let d = d as u64;
                    let largest = match cfg.routing {
                        Routing::Direct => d + max_record,
                        Routing::Grid => 2 * d + 2 * max_record,
                    };
                    prop_assert!(
                        view.peak_inbox <= INBOX_FACTOR * d + largest,
                        "rank {} inbox peak {} (delta {}, {:?})", me, view.peak_inbox, d, cfg.routing
                    );
                }
                None => prop_assert_eq!(view.early_sinks, 0, "rank {}: delta None defers to finish", me),
            }
        }
        // polling (and so the inbox) does not change what a sender meters:
        // every counter under direct routing, the relayed volume under grid
        let quiet = run_programs(p, &programs, cfg, false);
        for (me, (a, b)) in views.iter().zip(&quiet).enumerate() {
            match cfg.routing {
                Routing::Direct => prop_assert_eq!(a.counters, b.counters, "rank {}", me),
                Routing::Grid => prop_assert_eq!(
                    a.counters.sent_words, b.counters.sent_words, "rank {}", me
                ),
            }
        }
    }

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
            &Executor::new(),
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

#[test]
fn envelopes_under_the_inbox_bound_wait_for_finish() {
    // rank 1 flushes 18 words to rank 0 before either finishes; with δ = 64
    // the inbox holds up to 256 words, so rank 0's polls take the message
    // off the transport without running the sink
    let out = run_sim(2, &SimOptions::default(), |ctx| {
        let mut q = MessageQueue::new(ctx, QueueConfig::dynamic(64));
        let (mut early, mut total, mut taken) = (0u64, 0u64, false);
        if ctx.rank() == 1 {
            for i in 0..3u64 {
                q.post(ctx, 0, &[i, i, i, i]);
            }
            q.flush_all(ctx);
        }
        ctx.barrier();
        if ctx.rank() == 0 {
            while q.poll(ctx, &mut |_c, _e| early += 1) {
                taken = true;
            }
        }
        q.finish(ctx, &mut |_c, _e| total += 1);
        (taken, early, early + total, q.peak_inbox_words())
    })
    .output;
    assert_eq!(out.results[0], (true, 0, 3, 18));
    assert_eq!(out.results[1], (false, 0, 0, 0));
}
