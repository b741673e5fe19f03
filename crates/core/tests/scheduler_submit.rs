//! Regression tests for the [`BatchScheduler`]'s non-blocking submit
//! path and its explicit shutdown semantics (crates/core/src/batch.rs):
//!
//! * `try_submit` must refuse with [`SubmitError::QueueFull`] when the
//!   bounded queue is at capacity — the backpressure signal the serving
//!   front-end turns into a `Busy` response — and every ticket it *does*
//!   hand out must resolve to the byte-exact reference answer.
//! * `shutdown` must drain requests already queued (stragglers get their
//!   real answers, nothing is dropped) while refusing new submissions
//!   with [`SubmitError::ShuttingDown`] on both the blocking and the
//!   non-blocking path.
//! * A cache hit is answered at submit: its ticket is ready before any
//!   worker could have run, and each request probes the cache exactly
//!   once whether it hits or misses.
//! * Misses that queue up while the one worker is computing are taken
//!   together as one micro-batch, and batching changes no answer.

use bull::{DbId, Lang};
use finsql_core::batch::{BatchConfig, BatchScheduler, SubmitError, Ticket};
use finsql_core::cache::{AnswerCache, Answerer};
use finsql_core::metrics::EvalMetrics;
use finsql_core::pipeline::{FinSql, FinSqlConfig};
use std::sync::{Arc, OnceLock};

/// One engine for every test in this file — building it trains the full
/// pipeline, so share it instead of paying that per test.
fn engine() -> Arc<FinSql> {
    static ENGINE: OnceLock<Arc<FinSql>> = OnceLock::new();
    Arc::clone(ENGINE.get_or_init(|| {
        let ds = bull::build(bull::DEFAULT_SEED);
        Arc::new(FinSql::build(
            &ds,
            &simllm::profiles::LLAMA2_13B,
            FinSqlConfig::standard(Lang::En),
        ))
    }))
}

/// The per-question reference answer the scheduler must reproduce.
fn reference(engine: &FinSql, db: DbId, question: &str) -> String {
    let mut rng = engine.question_rng(db, question);
    engine.answer(db, question, &mut rng)
}

#[test]
fn try_submit_sheds_load_when_the_queue_is_full() {
    let engine = engine();
    // One worker, batch size 1, queue of 1: while the worker computes
    // (hundreds of microseconds per question) the single queue slot
    // fills instantly, so a tight submission loop must observe
    // QueueFull long before it runs out of questions.
    let scheduler = BatchScheduler::new(
        Arc::clone(&engine),
        None,
        None,
        BatchConfig {
            max_batch: 1,
            workers: 1,
            queue_cap: 1,
        },
    );
    let mut tickets: Vec<(String, Ticket)> = Vec::new();
    let mut rejected = 0u32;
    let mut i = 0usize;
    // Keep pushing distinct questions until backpressure has shown up
    // and a healthy number of requests got through.
    while rejected == 0 || tickets.len() < 8 {
        assert!(i < 100_000, "queue_cap=1 never produced QueueFull");
        let question = format!("list all funds (probe {i})");
        match scheduler.try_submit(DbId::Fund, question.as_str()) {
            Ok(ticket) => tickets.push((question, ticket)),
            Err(SubmitError::QueueFull) => rejected += 1,
            Err(other) => panic!("unexpected submit error: {other}"),
        }
        i += 1;
    }
    assert!(rejected > 0, "full queue must refuse, not block");
    // Backpressure sheds load but never corrupts: every accepted ticket
    // resolves to the byte-exact reference answer.
    for (question, ticket) in tickets {
        assert_eq!(&*ticket.wait(), reference(&engine, DbId::Fund, &question));
    }
}

#[test]
fn shutdown_drains_queued_requests_and_refuses_stragglers() {
    let engine = engine();
    let cache = Arc::new(AnswerCache::unbounded());
    let mut scheduler = BatchScheduler::new(
        Arc::clone(&engine),
        Some(Arc::clone(&cache)),
        None,
        BatchConfig {
            max_batch: 4,
            workers: 2,
            queue_cap: 64,
        },
    );
    let questions: Vec<String> =
        (0..6).map(|i| format!("how many stocks closed higher (case {i})")).collect();
    let tickets: Vec<Ticket> = questions
        .iter()
        .map(|q| {
            scheduler
                .try_submit(DbId::Stock, q.as_str())
                .expect("queue of 64 cannot be full")
        })
        .collect();
    // Shut down right after queueing: the requests are still queued or
    // being computed, not yet answered.
    scheduler.shutdown();
    // Post-shutdown submissions are refused on both paths…
    assert_eq!(
        scheduler.try_submit(DbId::Fund, "straggler").err(),
        Some(SubmitError::ShuttingDown)
    );
    assert_eq!(
        scheduler.submit(DbId::Fund, "straggler").err(),
        Some(SubmitError::ShuttingDown)
    );
    // …but every request accepted before shutdown was drained and
    // answered exactly, never dropped.
    for (question, ticket) in questions.iter().zip(tickets) {
        assert_eq!(&*ticket.wait(), reference(&engine, DbId::Stock, question));
    }
    // Idempotent: a second shutdown (and the implicit one in Drop) is a
    // no-op, not a double-join.
    scheduler.shutdown();
}

#[test]
fn ticket_polling_delivers_the_answer_exactly_once() {
    let engine = engine();
    let scheduler = BatchScheduler::new(
        Arc::clone(&engine),
        None,
        None,
        BatchConfig {
            max_batch: 2,
            workers: 1,
            queue_cap: 8,
        },
    );
    let question = "which macro indicator rose last quarter";
    let ticket = scheduler.try_submit(DbId::Macro, question).expect("empty queue accepts");
    // Poll like the serving event loop does: spin until the worker
    // delivers, then the slot is empty forever after.
    let answer = loop {
        if let Some(answer) = ticket.try_answer() {
            break answer;
        }
        std::thread::yield_now();
    };
    assert_eq!(&*answer, reference(&engine, DbId::Macro, question));
    assert!(ticket.try_answer().is_none(), "an answer is delivered exactly once");
}

#[test]
fn a_cache_hit_is_ready_at_submit() {
    let engine = engine();
    let cache = Arc::new(AnswerCache::unbounded());
    let question = "which fund has the largest total net assets";
    // Warm the cache through the batched engine, outside the scheduler.
    engine.answer_batch_cached(&cache, DbId::Fund, &[question], None);
    // A hit that took the queue would not be answered before a worker
    // ran; a hit's ticket holds its answer at submit.
    let scheduler = BatchScheduler::new(
        Arc::clone(&engine),
        Some(Arc::clone(&cache)),
        None,
        BatchConfig {
            max_batch: 8,
            workers: 1,
            queue_cap: 8,
        },
    );
    let ticket = scheduler.try_submit(DbId::Fund, question).expect("a hit is never refused");
    assert!(ticket.is_cache_hit());
    let answer = ticket.try_answer().expect("a hit is answered at submit");
    assert_eq!(*answer, engine.answer_fresh(DbId::Fund, question, None));
    assert!(ticket.try_answer().is_none(), "an answer is delivered exactly once");
    // The blocking path takes the same probe.
    let ticket = scheduler.submit(DbId::Fund, question).expect("a hit is never refused");
    assert!(ticket.is_cache_hit());
    assert_eq!(*ticket.wait(), engine.answer_fresh(DbId::Fund, question, None));
}

#[test]
fn every_submission_probes_the_cache_exactly_once() {
    let engine = engine();
    let cache = Arc::new(AnswerCache::unbounded());
    let metrics = Arc::new(EvalMetrics::new());
    let scheduler = BatchScheduler::new(
        Arc::clone(&engine),
        Some(Arc::clone(&cache)),
        Some(Arc::clone(&metrics)),
        BatchConfig {
            max_batch: 4,
            workers: 2,
            queue_cap: 16,
        },
    );
    let q = |i: usize| format!("how many stocks are listed in sector {i}");
    // Round one: four misses. Round two, after they filled the cache:
    // hit, hit, miss, hit, miss.
    let rounds: [&[usize]; 2] = [&[0, 1, 2, 3], &[0, 1, 4, 0, 5]];
    let mut submissions = 0u64;
    for round in rounds {
        let tickets: Vec<(usize, Ticket)> = round
            .iter()
            .map(|&i| (i, scheduler.try_submit(DbId::Stock, q(i)).expect("queue of 16")))
            .collect();
        submissions += tickets.len() as u64;
        for (i, ticket) in tickets {
            assert_eq!(&*ticket.wait(), reference(&engine, DbId::Stock, &q(i)));
        }
    }
    let stats = cache.stats();
    assert_eq!(stats.hits + stats.misses, submissions, "one probe per request: {stats:?}");
    assert_eq!((stats.hits, stats.misses), (3, 6));
    let snap = metrics.snapshot();
    assert_eq!((snap.cache_hits, snap.cache_misses), (3, 6));
}

#[test]
fn misses_queued_behind_a_busy_worker_coalesce_into_one_batch() {
    let engine = engine();
    let metrics = Arc::new(EvalMetrics::new());
    let scheduler = BatchScheduler::new(
        Arc::clone(&engine),
        None,
        Some(Arc::clone(&metrics)),
        BatchConfig { max_batch: 8, workers: 1, queue_cap: 64 },
    );
    let q = |i: usize| format!("what is the total net asset value of fund family {i}");
    // The lone worker pops the first miss and computes it (hundreds of
    // microseconds); the followers are queued in a fraction of that, so
    // the worker's next pop takes them as one batch. Every batch would
    // hold one miss only if this thread stalled for a whole compute
    // before each of the 15 followers.
    let tickets: Vec<(usize, Ticket)> = (0..16)
        .map(|i| (i, scheduler.try_submit(DbId::Fund, q(i)).expect("queue of 64")))
        .collect();
    for (i, ticket) in tickets {
        assert_eq!(&*ticket.wait(), reference(&engine, DbId::Fund, &q(i)));
    }
    let snap = metrics.snapshot();
    assert!(
        snap.max_batch > 1,
        "misses queued behind a busy worker must share a batch: {} batches, max {}",
        snap.batches,
        snap.max_batch
    );
    assert_eq!(snap.batched_questions, 16);
}
