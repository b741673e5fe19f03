//! `sweep_cold`: the 1000 BULL-en dev questions answered in per-database
//! micro-batches of 8 through `FinSql::answer_batch_with_metrics`, with
//! no answer cache, on one thread.
//!
//! One untimed warm-up pass is checked against the golden digest and
//! re-scored with `sqlengine::execution_accuracy`; then whole passes run
//! for the run length, each answer compared with the warm-up's. The seed
//! shuffles the order of the batches, never their contents.

use crate::report::Report;
use crate::setup::Setup;
use crate::stats;
use crate::trace::Trace;
use bull::{DbId, Lang, Split};
use finsql_core::metrics::EvalMetrics;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// Questions per micro-batch.
pub const BATCH: usize = 8;

/// Execution accuracy the warm-up pass must reproduce: Table 4, FinSQL +
/// LLaMA2-13B on BULL-en.
pub const EXPECTED_EX: usize = 850;

/// The digest of all 1000 answers, in dev order, of the shipped engine.
const GOLDEN: &str = include_str!("../golden/sweep_cold.digest");

/// A batch latency above this counts against `slo_share`.
pub const SLO: Duration = Duration::from_millis(10);

/// One micro-batch: its database and the dev indices of its questions.
struct Batch {
    db: DbId,
    questions: Vec<usize>,
}

/// The dev set in canonical order.
struct DevSet<'a> {
    db: Vec<DbId>,
    question: Vec<&'a str>,
    gold: Vec<&'a str>,
}

fn dev_set(setup: &Setup) -> DevSet<'_> {
    let mut dev = DevSet {
        db: Vec::new(),
        question: Vec::new(),
        gold: Vec::new(),
    };
    for db in DbId::ALL {
        for e in setup.ds.examples_for(db, Split::Dev) {
            dev.db.push(db);
            dev.question.push(e.question(Lang::En));
            dev.gold.push(&e.sql);
        }
    }
    dev
}

fn batches(dev: &DevSet<'_>, seed: u64) -> Vec<Batch> {
    let mut out: Vec<Batch> = Vec::new();
    for db in DbId::ALL {
        let ids: Vec<usize> = (0..dev.db.len()).filter(|&i| dev.db[i] == db).collect();
        out.extend(ids.chunks(BATCH).map(|c| Batch {
            db,
            questions: c.to_vec(),
        }));
    }
    out.shuffle(&mut StdRng::seed_from_u64(seed ^ 0x5EE9_0000_0000_0003));
    out
}

/// FNV-1a over every answer in dev order, each followed by a 0xFF byte
/// (which valid UTF-8 never contains).
pub fn digest<S: AsRef<str>>(answers: &[S]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for a in answers {
        for &b in a.as_ref().as_bytes().iter().chain(&[0xFF]) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// What one pass over all batches produced.
struct Pass {
    answers: Vec<String>,
    wall: Duration,
    /// Wall time of each `answer_batch_with_metrics` call, in call order.
    batch_times: Vec<Duration>,
}

fn run_pass(
    setup: &Setup,
    dev: &DevSet<'_>,
    batches: &[Batch],
    metrics: Option<&EvalMetrics>,
    trace: &mut Trace,
) -> Pass {
    let mut answers = vec![String::new(); dev.db.len()];
    let mut batch_times = Vec::with_capacity(batches.len());
    let mut spans = Vec::with_capacity(if metrics.is_some() { batches.len() } else { 0 });
    let start = Instant::now();
    for (k, b) in batches.iter().enumerate() {
        let qs: Vec<&str> = b.questions.iter().map(|&i| dev.question[i]).collect();
        let t0 = Instant::now();
        let out = setup.engine.answer_batch_with_metrics(b.db, &qs, metrics);
        let t1 = Instant::now();
        batch_times.push(t1 - t0);
        if metrics.is_some() {
            spans.push((k as u64, t0, t1));
        }
        for (&i, a) in b.questions.iter().zip(out) {
            answers[i] = a;
        }
    }
    let end = Instant::now();
    if metrics.is_some() {
        let pass = trace.span("sweep.pass", 0, 0, start, end);
        for (k, t0, t1) in spans {
            trace.span("engine.answer_batch", pass, k, t0, t1);
        }
    }
    Pass {
        answers,
        wall: end - start,
        batch_times,
    }
}

/// Checks the warm-up answers: golden digest, then execution accuracy.
fn gate(setup: &Setup, dev: &DevSet<'_>, answers: &[String]) -> Result<(), String> {
    let want = GOLDEN.trim();
    let got = format!("{:016x}", digest(answers));
    if got != want {
        return Err(format!(
            "sweep_cold answers changed: digest {got}, golden {want} (finbench/golden/sweep_cold.digest)"
        ));
    }
    // Two threads, one per core: execution dominates this check.
    let correct = |range: std::ops::Range<usize>| {
        range
            .filter(|&i| {
                sqlengine::execution_accuracy(setup.ds.db(dev.db[i]), &answers[i], dev.gold[i])
            })
            .count()
    };
    let mid = answers.len() / 2;
    let ex = std::thread::scope(|s| {
        let first = s.spawn(|| correct(0..mid));
        let second = correct(mid..answers.len());
        // INVARIANT: a panic inside the SQL engine is a program failure.
        first.join().expect("EX thread panicked") + second
    });
    if ex != EXPECTED_EX {
        return Err(format!(
            "sweep_cold EX is {ex}/{}, expected {EXPECTED_EX}",
            answers.len()
        ));
    }
    Ok(())
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Runs the workload; in trace mode untraced and traced passes alternate
/// so the tracing overhead is measured in one process.
pub fn run(setup: &Setup, seed: u64, seconds: f64, trace: &mut Trace) -> Result<Report, String> {
    let dev = dev_set(setup);
    let batches = batches(&dev, seed);
    let mut untraced = Trace::new(false);
    let golden = run_pass(setup, &dev, &batches, None, &mut untraced).answers;
    gate(setup, &dev, &golden)?;

    let metrics = EvalMetrics::new();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut plain: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    loop {
        let tracing = trace.enabled() && plain.len() > traced.len();
        let pass = if tracing {
            run_pass(setup, &dev, &batches, Some(&metrics), trace)
        } else {
            run_pass(setup, &dev, &batches, None, &mut untraced)
        };
        if pass.answers != golden {
            let wrong = pass
                .answers
                .iter()
                .zip(&golden)
                .filter(|(a, b)| a != b)
                .count();
            return Err(format!(
                "{wrong} sweep_cold answers differ from the warm-up pass"
            ));
        }
        if tracing {
            traced.push(pass);
        } else {
            plain.push(pass);
        }
        if Instant::now() >= deadline && (!trace.enabled() || !traced.is_empty()) {
            break;
        }
    }

    let questions = dev.db.len() as u64;
    let mut report = Report {
        attempted: questions * plain.len() as u64,
        ..Report::default()
    };
    if trace.enabled() {
        per_layer(
            setup,
            &dev,
            &batches,
            &plain,
            &traced,
            &metrics,
            &mut report,
        )?;
        report.attempted += questions * traced.len() as u64;
        return Ok(report);
    }
    let qps: Vec<f64> = plain
        .iter()
        .map(|p| questions as f64 / secs(p.wall))
        .collect();
    let batch_ms: Vec<f64> = plain
        .iter()
        .flat_map(|p| p.batch_times.iter().map(|&d| secs(d) * 1e3))
        .collect();
    let within = batch_ms.iter().filter(|&&ms| ms <= secs(SLO) * 1e3).count();
    let sorted = stats::sorted(&batch_ms);
    let p50 = stats::percentile(&sorted, 50.0).ok_or("no batch latencies")?;
    let p99 = stats::reported_percentile(&batch_ms, 99.0).ok_or("no batch latencies")?;
    // The tail goes to standard error here, and into the traced run's
    // result as `client.p99_ms`.
    eprintln!(
        "sweep_cold: {} passes, {} batches; batch p99 whole run {:.3} ms, calmest window {:.3} ms; tail p{:?} = {:.3} ms",
        plain.len(),
        batch_ms.len(),
        stats::percentile(&sorted, 99.0).unwrap_or(f64::NAN),
        p99,
        stats::highest_resolvable(sorted.len()),
        stats::highest_resolvable(sorted.len())
            .and_then(|p| stats::percentile(&sorted, p))
            .unwrap_or(f64::NAN),
    );
    report.set("sweep_qps", stats::median(&qps).ok_or("no passes")?);
    report.set("p50_ms", p50);
    // Every answer was checked against the warm-up pass above.
    report.set("ok_share", 1.0);
    report.set("slo_share", within as f64 / batch_ms.len() as f64);
    Ok(report)
}

/// Per-layer metrics from the traced passes.
fn per_layer(
    setup: &Setup,
    dev: &DevSet<'_>,
    batches: &[Batch],
    plain: &[Pass],
    traced: &[Pass],
    metrics: &EvalMetrics,
    report: &mut Report,
) -> Result<(), String> {
    let snap = metrics.snapshot();
    let q = snap.questions as f64;
    let us = |d: Duration| secs(d) * 1e6;
    let batch_total: Duration = traced.iter().flat_map(|p| p.batch_times.iter()).sum();
    let wall_total: Duration = traced.iter().map(|p| p.wall).sum();
    let stages = snap.link_time + snap.gen_time + snap.calibrate_time;
    // The stage timers run inside the batch calls, so they must add up
    // to no more than the calls' own time.
    if stages > batch_total {
        return Err(format!(
            "stage timers ({stages:?}) exceed the batch calls ({batch_total:?})"
        ));
    }
    let engine_residual_us = (us(batch_total) - us(stages)) / q;
    report.set("link.us_per_q", us(snap.link_time) / q);
    report.set(
        "project.distinct_per_q",
        distinct_projections(setup, dev, batches) as f64 / dev.db.len() as f64,
    );
    report.set("gen.us_per_q", us(snap.gen_time) / q);
    report.set("gen.samples_per_q", snap.candidates as f64 / q);
    report.set(
        "gen.fallback_share",
        snap.generator_fallbacks as f64 / snap.candidates.max(1) as f64,
    );
    report.set(
        "gen.slip_share",
        snap.skeleton_slips as f64 / snap.candidates.max(1) as f64,
    );
    report.set("calib.us_per_q", us(snap.calibrate_time) / q);
    report.set("calib.repairs_per_q", snap.repairs as f64 / q);
    report.set("calib.dropped_per_q", snap.dropped_unresolved as f64 / q);
    report.set(
        "calib.fallback_share",
        snap.calibration_fallbacks as f64 / q,
    );
    report.set("engine.residual_us_per_q", engine_residual_us);
    let plain_ms: Vec<f64> = plain
        .iter()
        .flat_map(|p| p.batch_times.iter().map(|&d| secs(d) * 1e3))
        .collect();
    report.set(
        "client.p99_ms",
        stats::reported_percentile(&plain_ms, 99.0).ok_or("no untraced batch latencies")?,
    );
    let plain_med = stats::median(&plain.iter().map(|p| secs(p.wall)).collect::<Vec<_>>());
    let traced_med = stats::median(&traced.iter().map(|p| secs(p.wall)).collect::<Vec<_>>());
    if let (Some(p), Some(t)) = (plain_med, traced_med) {
        report.set("trace.overhead_share", t / p - 1.0);
    }
    // End to end is the traced passes' wall time; the attributed layers
    // are the three paper stages inside the batch calls.
    report.set("residual", 1.0 - secs(stages) / secs(wall_total));
    eprintln!(
        "sweep_cold traced: {} traced + {} untraced passes; per question link {:.1} + gen {:.1} + calib {:.1} + engine residual {:.1} = batch {:.1} us; pass {:.1} us",
        traced.len(),
        plain.len(),
        us(snap.link_time) / q,
        us(snap.gen_time) / q,
        us(snap.calibrate_time) / q,
        engine_residual_us,
        us(batch_total) / q,
        us(wall_total) / q,
    );
    Ok(())
}

/// Shared projected schemas per batch, summed over the sweep: the
/// linker's top-k selection recomputed from its public output and keyed
/// as the engine keys the projections it shares within a batch.
fn distinct_projections(setup: &Setup, dev: &DevSet<'_>, batches: &[Batch]) -> usize {
    let engine = &setup.engine;
    let (kt, kc) = (engine.config.k_tables, engine.config.k_columns);
    let mut total = 0;
    for b in batches {
        let qs: Vec<&str> = b.questions.iter().map(|&i| dev.question[i]).collect();
        let (linked, _) = engine
            .linker
            .link_batch_timed(&qs, &engine.runtime(b.db).link_matrix);
        let mut keys: Vec<Vec<(usize, Vec<usize>)>> = linked
            .iter()
            .map(|l| {
                l.tables
                    .iter()
                    .take(kt)
                    .map(|(ti, _)| {
                        (
                            *ti,
                            l.columns[*ti].iter().take(kc).map(|(ci, _)| *ci).collect(),
                        )
                    })
                    .collect()
            })
            .collect();
        keys.sort();
        keys.dedup();
        total += keys.len();
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_separates_answers() {
        assert_ne!(digest(&["ab", "c"]), digest(&["a", "bc"]));
        assert_eq!(digest(&["x"]), digest(&[String::from("x")]));
        assert_eq!(digest::<&str>(&[]), 0xcbf2_9ce4_8422_2325);
    }
}
