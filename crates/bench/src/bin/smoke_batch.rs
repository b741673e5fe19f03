//! CI smoke run for the batched answer engine: evaluate a slice of the
//! dev sets unbatched and batched and assert the per-database EX counts
//! are identical (batching cannot change an answer), then run the same
//! slice twice through a [`BatchScheduler`] with cache-first routing and
//! assert the warm pass reproduces the cold counts from the cache. Exits
//! non-zero on any violation, so CI catches a batched path that drifts
//! from the per-question reference.

use bench::{dataset, headline_profile, HarnessOpts};
use bull::{DbId, Lang};
use finsql_core::batch::{BatchConfig, BatchScheduler};
use finsql_core::cache::AnswerCache;
use finsql_core::eval::evaluate_ex_all_interleaved_batched;
use finsql_core::metrics::EvalMetrics;
use finsql_core::pipeline::{FinSql, FinSqlConfig};
use std::sync::Arc;
use std::time::Instant;

const PER_DB: usize = 25;

fn main() {
    let opts = HarnessOpts::from_args();
    let batch = if opts.batch == 0 { 8 } else { opts.batch };
    let ds = dataset();
    let system = FinSql::build(&ds, headline_profile(Lang::En), FinSqlConfig::standard(Lang::En));

    // Per-question reference pass.
    let wall = Instant::now();
    let unbatched = evaluate_ex_all_interleaved_batched(
        &ds,
        Lang::En,
        opts.workers,
        Some(PER_DB),
        1,
        |db, qs| {
            qs.iter()
                .map(|q| {
                    let mut rng = system.question_rng(db, q);
                    system.answer(db, q, &mut rng)
                })
                .collect()
        },
    );
    let unbatched_wall = wall.elapsed();

    // Batched pass over the same slice.
    let metrics = EvalMetrics::new();
    let wall = Instant::now();
    let batched = evaluate_ex_all_interleaved_batched(
        &ds,
        Lang::En,
        opts.workers,
        Some(PER_DB),
        batch,
        |db, qs| system.answer_batch_with_metrics(db, qs, Some(&metrics)),
    );
    let batched_wall = wall.elapsed();
    let snap = metrics.snapshot();
    let n = unbatched.pooled().total as f64;
    println!(
        "unbatched: EX {}/{}  {:.1} questions/sec",
        unbatched.pooled().correct,
        unbatched.pooled().total,
        n / unbatched_wall.as_secs_f64()
    );
    println!(
        "batched (--batch {batch}): EX {}/{}  {:.1} questions/sec  \
         {} micro-batches (mean size {:.1}, max {}), {} amortised embeds",
        batched.pooled().correct,
        batched.pooled().total,
        n / batched_wall.as_secs_f64(),
        snap.batches,
        snap.mean_batch_size(),
        snap.max_batch,
        snap.amortised_embeds()
    );
    for db in DbId::ALL {
        assert_eq!(
            unbatched.outcome(db),
            batched.outcome(db),
            "{db}: batched EX counts must equal the per-question reference"
        );
    }
    assert!(snap.batches > 0, "the batched pass must actually batch");
    assert!(snap.max_batch > 1, "micro-batches never coalesced more than one question");

    // Scheduler front-end: cold pass fills the cache, warm pass must be
    // served from it with identical counts.
    let system = Arc::new(system);
    let cache = Arc::new(AnswerCache::unbounded());
    let sched_metrics = Arc::new(EvalMetrics::new());
    let scheduler = BatchScheduler::new(
        Arc::clone(&system),
        Some(Arc::clone(&cache)),
        Some(Arc::clone(&sched_metrics)),
        BatchConfig { max_batch: batch, ..BatchConfig::default() },
    );
    let mut passes = Vec::new();
    for pass in 0..2 {
        let wall = Instant::now();
        let outcome = evaluate_ex_all_interleaved_batched(
            &ds,
            Lang::En,
            opts.workers,
            Some(PER_DB),
            1,
            |db, qs| qs.iter().map(|q| scheduler.answer(db, q)).collect(),
        );
        let wall = wall.elapsed();
        println!(
            "scheduler pass {pass}: EX {}/{}  {:.1} questions/sec",
            outcome.pooled().correct,
            outcome.pooled().total,
            n / wall.as_secs_f64()
        );
        passes.push(outcome);
    }
    assert_eq!(passes[0], unbatched, "scheduler answers must equal the per-question reference");
    assert_eq!(passes[0], passes[1], "warm scheduler pass must reproduce cold EX counts");
    let stats = cache.stats();
    println!(
        "cache: {} hits / {} misses / {} entries",
        stats.hits, stats.misses, stats.entries
    );
    assert!(stats.hits >= (3 * PER_DB) as u64, "warm pass must be served from the cache");
    drop(scheduler);
    println!("smoke_batch: OK");
}
