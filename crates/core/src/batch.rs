//! The batched answer engine: micro-batched inference plus a request
//! scheduler.
//!
//! [`FinSql::answer_batch`] answers a slice of questions against one
//! database in a single pass that amortises the per-question setup the
//! serial path pays every time: the questions are embedded in one
//! [`simllm::EmbeddingModel::embed_batch`] sweep and ranked against the
//! runtime's contiguous [`simllm::PrototypeMatrix`], questions whose
//! schema linking selects the same top-k tables and columns share one
//! projected prompt schema (built once per distinct projection instead of
//! once per question), and linking runs as one matrix sweep over the
//! runtime's precomputed [`crossenc::SchemaFeatureMatrix`] — every
//! question featurised once, no per-question string work or thread scope.
//!
//! **Why batching cannot change an answer.** Every source of randomness
//! in the pipeline is derived from the question itself, never from batch
//! shape: the sampling RNG is [`FinSql::question_rng`] (seeded from
//! system seed, database and question bytes), and slot decisions come
//! from a per-question slot seed that is re-derived identically inside
//! [`simllm::SqlGenerator::generate_batch`]. Linking is a pure function
//! of `(question, schema views)` and serial/parallel modes agree exactly;
//! the shared projected schema is a pure function of the linker's top-k
//! selection, so sharing it is sharing an identical value; batch
//! embedding computes each row with the very code the single-question
//! path uses. Calibration is deterministic per candidate list. Therefore
//! `answer_batch(db, qs)[i] == answer(db, qs[i])` byte for byte, at every
//! batch size and in every grouping — which is what makes the
//! [`BatchScheduler`]'s coalescing safe and keeps cached answers exact.
//!
//! [`BatchScheduler`] is the serving front-end and implements the
//! [`Answerer`] trait. A submission probes the answer cache on the
//! caller's thread: a hit comes back as an already-answered [`Ticket`]
//! and never enters the queue, so it costs its cache lookup, not a batch.
//! Only misses go to the bounded MPMC queue, where a worker pool
//! coalesces them into micro-batches — whatever is already queued, from
//! *any* database, up to a configurable size; a worker never waits for
//! more — computes them and fills the cache without probing again.
//! Mixed batches are split per database by the same splitter as
//! [`FinSql::answer_batch_mixed`], so a worker never stalls waiting for
//! same-database traffic to accumulate.

use crate::cache::{Answerer, AnswerCache, ConfigFingerprint, QuestionKey};
use crate::calibrate::calibrate_with_stats;
use crate::metrics::EvalMetrics;
use crate::pipeline::FinSql;
use bull::DbId;
use rand::rngs::StdRng;
use simllm::{BatchItem, GenConfig, GenCounters, SqlGenerator};
use sqlkit::catalog::CatalogSchema;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// The linker's top-k selection for one question: the kept table indices
/// in rank order, each with its kept column indices in rank order. Two
/// questions with equal keys project to identical prompt schemas.
type ProjectionKey = Vec<(usize, Vec<usize>)>;

impl FinSql {
    /// Answers a batch of questions against one database. Each returned
    /// answer is byte-identical to what [`FinSql::answer`] produces for
    /// that question alone (see the module docs for why), but the batch
    /// shares one embedding sweep and one projected prompt schema per
    /// distinct linker selection.
    pub fn answer_batch(&self, db: DbId, questions: &[&str]) -> Vec<String> {
        self.answer_batch_with_metrics(db, questions, None)
    }

    /// [`FinSql::answer_batch`], feeding stage timings, counters and the
    /// batch-shape counters into a shared metrics sink.
    pub fn answer_batch_with_metrics(
        &self,
        db: DbId,
        questions: &[&str],
        metrics: Option<&EvalMetrics>,
    ) -> Vec<String> {
        if questions.is_empty() {
            return Vec::new();
        }
        let rt = self.runtime(db);
        // 1. Schema linking for the whole batch in one matrix sweep over
        // the runtime's precomputed schema feature matrix (bit-identical
        // to per-question linking in either mode — crossenc::matrix docs).
        // Questions whose top-k selection coincides share one projected
        // prompt schema.
        let (linked_all, link_time) = self.linker.link_batch_timed(questions, &rt.link_matrix);
        if let Some(m) = metrics {
            m.record_link(link_time);
        }
        let mut schema_of_key: HashMap<ProjectionKey, usize> = HashMap::new();
        let mut schemas: Vec<CatalogSchema> = Vec::new();
        let mut schema_idx: Vec<usize> = Vec::with_capacity(questions.len());
        for linked in &linked_all {
            let key: ProjectionKey = linked
                .tables
                .iter()
                .take(self.config.k_tables)
                .map(|(ti, _)| {
                    let cols = linked.columns[*ti]
                        .iter()
                        .take(self.config.k_columns)
                        .map(|(ci, _)| *ci)
                        .collect();
                    (*ti, cols)
                })
                .collect();
            let idx = *schema_of_key.entry(key).or_insert_with(|| {
                schemas
                    .push(linked.project(&rt.schema, self.config.k_tables, self.config.k_columns));
                schemas.len() - 1
            });
            schema_idx.push(idx);
        }
        // 2. One batched generation pass: a single embed-and-rank sweep,
        // then the exact per-question sampling loop under each question's
        // own deterministic RNG.
        let items: Vec<BatchItem<'_>> = questions
            .iter()
            .zip(&schema_idx)
            .map(|(q, &si)| BatchItem { question: q, prompt_schema: &schemas[si] })
            .collect();
        let mut rngs: Vec<StdRng> =
            questions.iter().map(|q| self.question_rng(db, q)).collect();
        let generator = SqlGenerator::with_matrix(&self.base, &rt.plugin, &rt.matrix, self.profile);
        let gen_start = Instant::now();
        let sampled = generator.generate_batch(
            &items,
            &rt.values,
            GenConfig {
                n_samples: self.config.n_candidates,
                temperature: self.config.temperature,
                skeleton_temperature: None,
            },
            &mut rngs,
        );
        let gen_time = gen_start.elapsed();
        if let Some(m) = metrics {
            let mut merged = GenCounters::default();
            for (_, c) in &sampled {
                merged.samples += c.samples;
                merged.fallbacks += c.fallbacks;
                merged.skeleton_slips += c.skeleton_slips;
            }
            m.record_generation(gen_time, &merged);
        }
        // 3. Calibration per question, exactly as the serial path.
        let out: Vec<String> = sampled
            .into_iter()
            .map(|(candidates, _)| {
                let calib_start = Instant::now();
                let (calibrated, stats) =
                    calibrate_with_stats(&candidates, &rt.schema, &self.config.calibration);
                if let Some(m) = metrics {
                    m.record_question();
                    m.record_calibration(calib_start.elapsed(), &stats, calibrated.is_none());
                }
                calibrated.unwrap_or_else(|| candidates.first().cloned().unwrap_or_default())
            })
            .collect();
        if let Some(m) = metrics {
            m.record_batch(questions.len());
        }
        out
    }

    /// Cache-first batched answering: questions already cached are served
    /// without touching the engine, the misses are answered in one
    /// [`FinSql::answer_batch_with_metrics`] call and fill the cache.
    ///
    /// Questions are any [`QuestionKey`]: the scheduler path passes the
    /// queue's `Arc<str>` requests so a cache fill shares the submitted
    /// allocation instead of copying the question bytes.
    pub fn answer_batch_cached<Q: QuestionKey>(
        &self,
        cache: &AnswerCache,
        db: DbId,
        questions: &[Q],
        metrics: Option<&EvalMetrics>,
    ) -> Vec<Arc<str>> {
        let fingerprint = self.config_fingerprint();
        // finlint: alloc — one slot table per *batch*, amortised over
        // every question in it; the per-question path stays alloc-free.
        let mut out: Vec<Option<Arc<str>>> = vec![None; questions.len()];
        let mut misses: Vec<usize> = Vec::new();
        for (i, q) in questions.iter().enumerate() {
            match probe_cache(cache, db, q.as_str(), fingerprint, metrics) {
                Some(hit) => out[i] = Some(hit),
                None => misses.push(i),
            }
        }
        if !misses.is_empty() {
            let miss_questions: Vec<&Q> = misses.iter().map(|&i| &questions[i]).collect();
            let computed =
                self.answer_batch_fill(Some((cache, fingerprint)), db, &miss_questions, metrics);
            for (&i, answer) in misses.iter().zip(computed) {
                out[i] = Some(answer);
            }
        }
        // INVARIANT: every index is either a cache hit (filled in the
        // probe loop) or in `misses` (filled from `computed`, which has
        // exactly one answer per miss).
        out.into_iter().map(|a| a.expect("every slot filled")).collect()
    }

    /// [`FinSql::answer_batch_cached`] with an optional cache — the shape
    /// the bench harness uses under its `--no-cache` flag.
    pub fn answer_batch_maybe_cached<Q: QuestionKey>(
        &self,
        cache: Option<&AnswerCache>,
        db: DbId,
        questions: &[Q],
        metrics: Option<&EvalMetrics>,
    ) -> Vec<Arc<str>> {
        match cache {
            Some(c) => self.answer_batch_cached(c, db, questions, metrics),
            None => self.answer_batch_fill(None, db, questions, metrics),
        }
    }

    /// The fill half of cache-first answering: computes every question
    /// in one [`FinSql::answer_batch_with_metrics`] call and, given a
    /// cache, inserts each answer under its fingerprint — without
    /// probing first. Each caller has already probed every question
    /// exactly once: [`FinSql::answer_batch_cached`] per batch, the
    /// [`BatchScheduler`] at submit.
    fn answer_batch_fill<Q: QuestionKey>(
        &self,
        cache: Option<(&AnswerCache, ConfigFingerprint)>,
        db: DbId,
        questions: &[Q],
        metrics: Option<&EvalMetrics>,
    ) -> Vec<Arc<str>> {
        // finlint: alloc — one borrowed-question table per *batch*, paid
        // only by misses, beside the engine's own per-batch work.
        let borrowed: Vec<&str> = questions.iter().map(|q| q.as_str()).collect();
        let computed = self.answer_batch_with_metrics(db, &borrowed, metrics);
        questions
            .iter()
            .zip(computed)
            .map(|(q, answer)| {
                let answer: Arc<str> = Arc::from(answer);
                if let Some((cache, fingerprint)) = cache {
                    let outcome = cache.insert(db, q, fingerprint, Arc::clone(&answer));
                    if let Some(m) = metrics {
                        m.record_cache_miss(outcome.evicted);
                        if !outcome.admitted {
                            m.record_admission_rejected();
                        }
                    }
                }
                answer
            })
            .collect()
    }

    /// Answers a micro-batch that may span databases. The linker, the
    /// LoRA plugin, the prototype matrix and the value index are all
    /// per-database artifacts, so the batch is split into one per-db
    /// sub-batch per database present (in [`DbId::ALL`] order), each
    /// answered through the cache-first batched path, and the answers
    /// are scattered back into request order. Every answer is still
    /// byte-identical to a lone [`FinSql::answer`] call — sub-batching
    /// is just batching, and batching cannot change an answer — which is
    /// what lets the [`BatchScheduler`] coalesce mixed traffic without
    /// waiting for same-database requests to accumulate.
    pub fn answer_batch_mixed<Q: QuestionKey>(
        &self,
        cache: Option<&AnswerCache>,
        requests: &[(DbId, Q)],
        metrics: Option<&EvalMetrics>,
    ) -> Vec<Arc<str>> {
        answer_per_db(requests, metrics, |db, questions| {
            self.answer_batch_maybe_cached(cache, db, questions, metrics)
        })
    }
}

/// The probe half of cache-first answering: one [`AnswerCache::get`],
/// counted as a hit in the metrics sink when it finds the answer. A miss
/// is counted by the fill half, once the answer is computed and inserted.
fn probe_cache(
    cache: &AnswerCache,
    db: DbId,
    question: &str,
    fingerprint: ConfigFingerprint,
    metrics: Option<&EvalMetrics>,
) -> Option<Arc<str>> {
    let hit = cache.get(db, question, fingerprint)?;
    if let Some(m) = metrics {
        m.record_cache_hit();
    }
    Some(hit)
}

/// The per-database splitter behind [`FinSql::answer_batch_mixed`] and
/// the scheduler's workers: answers each database's sub-batch (in
/// [`DbId::ALL`] order) with `answer_group` and scatters the answers
/// back into request order.
fn answer_per_db<'r, Q>(
    requests: &'r [(DbId, Q)],
    metrics: Option<&EvalMetrics>,
    mut answer_group: impl FnMut(DbId, &[&'r Q]) -> Vec<Arc<str>>,
) -> Vec<Arc<str>> {
    // finlint: alloc — one slot table per *batch*, amortised over
    // every request in it; the per-request path stays alloc-free.
    let mut out: Vec<Option<Arc<str>>> = vec![None; requests.len()];
    let mut dbs_spanned = 0usize;
    for db in DbId::ALL {
        let indices: Vec<usize> = requests
            .iter()
            .enumerate()
            .filter(|(_, (d, _))| *d == db)
            .map(|(i, _)| i)
            .collect();
        if indices.is_empty() {
            continue;
        }
        dbs_spanned += 1;
        let questions: Vec<&Q> = indices.iter().map(|&i| &requests[i].1).collect();
        for (&i, answer) in indices.iter().zip(answer_group(db, &questions)) {
            out[i] = Some(answer);
        }
    }
    if let Some(m) = metrics {
        if dbs_spanned > 1 {
            m.record_mixed_batch();
        }
    }
    // INVARIANT: DbId::ALL covers every possible request db, so each
    // index lands in exactly one per-db group and is filled there.
    out.into_iter().map(|a| a.expect("every database group answered")).collect()
}

/// Knobs of the [`BatchScheduler`].
#[derive(Debug, Clone, Copy)]
pub struct BatchConfig {
    /// Most questions coalesced into one micro-batch.
    pub max_batch: usize,
    /// Worker threads draining the queue.
    pub workers: usize,
    /// Bounded queue capacity for cache misses. While the queue is full,
    /// [`BatchScheduler::submit`] blocks and [`BatchScheduler::try_submit`]
    /// refuses with [`SubmitError::QueueFull`]; cache hits never take a
    /// queue slot.
    pub queue_cap: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig { max_batch: 8, workers: 2, queue_cap: 256 }
    }
}

/// One pending request's answer slot: filled by a worker, awaited by the
/// submitter.
#[derive(Default)]
struct ResponseSlot {
    answer: Mutex<Option<Arc<str>>>,
    ready: Condvar,
}

impl ResponseSlot {
    /// A slot that already holds its answer.
    fn filled(answer: Arc<str>) -> Self {
        ResponseSlot { answer: Mutex::new(Some(answer)), ready: Condvar::new() }
    }

    fn put(&self, answer: Arc<str>) {
        // INVARIANT: a poisoned slot lock means a peer thread panicked
        // holding it; the slot state is unrecoverable, so propagate.
        *self.answer.lock().expect("slot lock poisoned") = Some(answer);
        self.ready.notify_all();
    }

    fn wait(&self) -> Arc<str> {
        // INVARIANT: a poisoned slot lock means a peer thread panicked
        // holding it; the slot state is unrecoverable, so propagate.
        let mut guard = self.answer.lock().expect("slot lock poisoned");
        loop {
            if let Some(answer) = guard.take() {
                return answer;
            }
            // INVARIANT: poisoning, as above — propagate the peer panic.
            guard = self.ready.wait(guard).expect("slot lock poisoned");
        }
    }

    /// Takes the answer if a worker already delivered it; never blocks.
    fn try_take(&self) -> Option<Arc<str>> {
        // INVARIANT: a poisoned slot lock means a peer thread panicked
        // holding it; the slot state is unrecoverable, so propagate.
        self.answer.lock().expect("slot lock poisoned").take()
    }
}

/// Why a submission was refused. Both cases are backpressure, not
/// failure: no request was enqueued and no answer was computed. Only a
/// cache miss is ever refused — a hit is answered at submit without the
/// queue or the worker pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is at capacity. The caller decides the policy:
    /// the serving front-end sheds load with a `Busy` response, a batch
    /// caller may retry or fall back to the blocking
    /// [`BatchScheduler::submit`].
    QueueFull,
    /// The scheduler is shutting down and accepts no new work. Requests
    /// already queued are still drained and answered.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SubmitError::QueueFull => "scheduler queue is full",
            SubmitError::ShuttingDown => "scheduler is shutting down",
        })
    }
}

impl std::error::Error for SubmitError {}

/// A claim on one submitted request's future answer.
///
/// Obtained from [`BatchScheduler::submit`]/[`BatchScheduler::try_submit`];
/// redeem it either by blocking ([`Ticket::wait`]) or by polling
/// ([`Ticket::try_answer`]) — the shape the non-blocking serving loop
/// needs, where a connection driver polls tickets between socket events
/// instead of parking a thread per request. A cache hit's ticket holds
/// its answer from the start ([`Ticket::is_cache_hit`]).
pub struct Ticket {
    slot: TicketSlot,
}

enum TicketSlot {
    /// Answered at submit from the answer cache; never queued.
    Hit(ResponseSlot),
    /// A queued miss; a worker fills the shared slot.
    Queued(Arc<ResponseSlot>),
}

impl Ticket {
    fn slot(&self) -> &ResponseSlot {
        match &self.slot {
            TicketSlot::Hit(slot) => slot,
            TicketSlot::Queued(slot) => slot,
        }
    }

    /// Whether the answer came from the cache at submit: such a ticket
    /// never entered the queue, and its first [`Ticket::try_answer`] is
    /// `Some`.
    pub fn is_cache_hit(&self) -> bool {
        matches!(self.slot, TicketSlot::Hit(_))
    }

    /// The answer, if it is ready: a cache hit always is, a miss once a
    /// worker delivered it. Returns `Some` exactly once; never blocks.
    pub fn try_answer(&self) -> Option<Arc<str>> {
        self.slot().try_take()
    }

    /// Blocks until the answer is ready. Always terminates: a submitted
    /// request is answered even during shutdown (the workers drain the
    /// queue before exiting).
    pub fn wait(self) -> Arc<str> {
        self.slot().wait()
    }
}

/// One queued question.
struct Request {
    db: DbId,
    question: Arc<str>,
    slot: Arc<ResponseSlot>,
    /// When the request entered the queue: the start of its recorded
    /// answer latency (queue wait + compute).
    enqueued: Instant,
}

/// The bounded MPMC queue the scheduler's workers drain.
#[derive(Default)]
struct QueueState {
    items: VecDeque<Request>,
    shutdown: bool,
}

#[derive(Default)]
struct Queue {
    state: Mutex<QueueState>,
    /// Signalled on push and on shutdown.
    not_empty: Condvar,
    /// Signalled on pop.
    not_full: Condvar,
}

/// Everything a worker thread needs, shared behind one `Arc`.
struct Shared {
    engine: Arc<FinSql>,
    cache: Option<Arc<AnswerCache>>,
    /// The engine's cache fingerprint, computed once: the engine cannot
    /// change while shared (`FinSql::absorb_appends` takes `&mut`).
    fingerprint: ConfigFingerprint,
    metrics: Option<Arc<EvalMetrics>>,
    config: BatchConfig,
    queue: Queue,
}

/// A micro-batching request scheduler in front of a [`FinSql`] engine.
///
/// Each submission first probes the answer cache (when the scheduler has
/// one) on the submitting thread, exactly once. A hit is answered there:
/// its [`Ticket`] already holds the answer, no queue slot is used and no
/// worker wakes. A miss is pushed onto one bounded queue; workers pop a
/// request, take whatever else is already queued — from *any* database —
/// up to [`BatchConfig::max_batch`], and run that micro-batch at once:
/// they never hold a batch open waiting for more, so an idle server
/// answers a lone miss immediately and batches fill by themselves from
/// the backlog under load. Each batch is answered per database through
/// the batched engine, which fills the cache. Because batching
/// cannot change an answer (module docs), coalescing is invisible to
/// callers: every request gets exactly the answer a lone
/// [`FinSql::answer`] call would have produced.
///
/// Dropping the scheduler shuts the pool down after draining every
/// request already queued.
pub struct BatchScheduler {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl BatchScheduler {
    /// Starts a scheduler over an engine, an optional answer cache probed
    /// at submit, and an optional metrics sink the submit path and the
    /// workers record into (per-call sinks cannot cross the queue, so the
    /// sink is fixed at construction).
    pub fn new(
        engine: Arc<FinSql>,
        cache: Option<Arc<AnswerCache>>,
        metrics: Option<Arc<EvalMetrics>>,
        config: BatchConfig,
    ) -> Self {
        let config = BatchConfig {
            max_batch: config.max_batch.max(1),
            workers: config.workers.max(1),
            queue_cap: config.queue_cap.max(1),
        };
        let fingerprint = engine.config_fingerprint();
        let shared = Arc::new(Shared {
            engine,
            cache,
            fingerprint,
            metrics,
            config,
            queue: Queue::default(),
        });
        let workers = (0..config.workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        BatchScheduler { shared, workers }
    }

    /// Submits one question without blocking. A cache hit returns an
    /// already-answered [`Ticket`] (even during shutdown: it needs no
    /// worker). A miss is either enqueued or refused immediately —
    /// [`SubmitError::QueueFull`] when the bounded queue is at capacity,
    /// [`SubmitError::ShuttingDown`] after [`BatchScheduler::shutdown`]
    /// began. This is how the bounded queue exerts backpressure to the
    /// wire: the serving front-end calls this from its event loop and
    /// turns `QueueFull` into a `Busy` response instead of parking a
    /// driver thread.
    ///
    /// Pass an `Arc<str>` question to intern it end to end: the queue,
    /// the cache key and the response all share that one allocation. A
    /// `String` is converted only on a miss.
    pub fn try_submit(
        &self,
        db: DbId,
        question: impl AsRef<str> + Into<Arc<str>>,
    ) -> Result<Ticket, SubmitError> {
        self.enqueue(db, question, false)
    }

    /// Submits one question; a cache hit is answered at once, as in
    /// [`BatchScheduler::try_submit`], and a miss blocks while the queue
    /// is full. Fails only with [`SubmitError::ShuttingDown`] once
    /// shutdown has begun (a full queue blocks; it never errors here).
    pub fn submit(
        &self,
        db: DbId,
        question: impl AsRef<str> + Into<Arc<str>>,
    ) -> Result<Ticket, SubmitError> {
        self.enqueue(db, question, true)
    }

    /// The one submit path behind [`BatchScheduler::try_submit`] and
    /// [`BatchScheduler::submit`]: probe the cache, then push a miss onto
    /// the queue. They differ only at a full queue, which refuses with
    /// [`SubmitError::QueueFull`] unless `block_when_full`, in which case
    /// the caller waits for a worker to pop.
    fn enqueue(
        &self,
        db: DbId,
        question: impl AsRef<str> + Into<Arc<str>>,
        block_when_full: bool,
    ) -> Result<Ticket, SubmitError> {
        if let Some(hit) = self.probe(db, question.as_ref()) {
            return Ok(hit);
        }
        let slot = Arc::new(ResponseSlot::default());
        {
            // INVARIANT: a poisoned queue lock means a worker panicked
            // holding it; the queue state is unrecoverable, so propagate.
            let mut state = self.shared.queue.state.lock().expect("queue lock poisoned");
            loop {
                if state.shutdown {
                    return Err(SubmitError::ShuttingDown);
                }
                if state.items.len() < self.shared.config.queue_cap {
                    break;
                }
                if !block_when_full {
                    return Err(SubmitError::QueueFull);
                }
                // INVARIANT: poisoning, as above — propagate the panic.
                // finlint: blocking — reached only with `block_when_full`,
                // which `try_submit` (the driver's path) never sets.
                state = self.shared.queue.not_full.wait(state).expect("queue lock poisoned");
            }
            state.items.push_back(Request {
                db,
                question: question.into(),
                slot: Arc::clone(&slot),
                enqueued: Instant::now(),
            });
        }
        self.shared.queue.not_empty.notify_one();
        Ok(Ticket { slot: TicketSlot::Queued(slot) })
    }

    /// The submit-time cache probe — the request's one
    /// [`AnswerCache::get`]. A hit comes back as an answered [`Ticket`];
    /// a miss (or no cache) as `None`, for the caller to enqueue.
    fn probe(&self, db: DbId, question: &str) -> Option<Ticket> {
        let cache = self.shared.cache.as_deref()?;
        let metrics = self.shared.metrics.as_deref();
        let start = Instant::now();
        let answer = probe_cache(cache, db, question, self.shared.fingerprint, metrics)?;
        if let Some(m) = metrics {
            m.record_answer_latency(start.elapsed());
        }
        Some(Ticket { slot: TicketSlot::Hit(ResponseSlot::filled(answer)) })
    }

    /// Submits one question and blocks until its answer is ready. Safe to
    /// call from many threads at once — concurrency is what gives the
    /// workers batches to coalesce.
    pub fn answer(&self, db: DbId, question: &str) -> Arc<str> {
        // INVARIANT: library-path callers join their submitter threads
        // before the scheduler shuts down, so `submit` cannot observe
        // `ShuttingDown` here; a non-blocking front-end must use
        // `try_submit` and handle the error instead.
        self.submit(db, question).expect("submit raced scheduler shutdown").wait()
    }

    /// Begins shutdown and joins the worker pool: no new submissions are
    /// accepted (submitters get [`SubmitError::ShuttingDown`]), every
    /// request already queued is drained and answered, and the method
    /// returns once all workers have exited. Idempotent — `Drop`
    /// delegates here.
    pub fn shutdown(&mut self) {
        {
            // INVARIANT: a poisoned queue lock means a worker panicked
            // holding it; the queue state is unrecoverable, so propagate.
            let mut state = self.shared.queue.state.lock().expect("queue lock poisoned");
            state.shutdown = true;
        }
        // Wake both sides: workers parked on not_empty must re-check the
        // flag and drain; submitters parked on not_full must bail out.
        self.shared.queue.not_empty.notify_all();
        self.shared.queue.not_full.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Answerer for BatchScheduler {
    fn fingerprint(&self) -> ConfigFingerprint {
        self.shared.fingerprint
    }

    /// Submits through the scheduler, which probes its own cache (when
    /// given one) before queueing, and records into its construction-time
    /// metrics sink; the per-call `metrics` argument cannot cross the
    /// queue and is ignored.
    fn answer_fresh(&self, db: DbId, question: &str, _metrics: Option<&EvalMetrics>) -> String {
        self.answer(db, question).as_ref().to_owned()
    }
}

impl Drop for BatchScheduler {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One worker: pop a request, take whatever else is already queued (any
/// database, up to the batch cap) and answer that batch at once, filling
/// the cache and the slots. It never waits for more requests while it
/// holds one. On shutdown the queue is drained completely before the
/// worker exits, so no submitted request is ever dropped.
fn worker_loop(shared: &Shared) {
    loop {
        let batch: Vec<Request> = {
            // INVARIANT: a poisoned queue lock means a sibling panicked
            // holding it; the queue state is unrecoverable, so propagate.
            let mut state = shared.queue.state.lock().expect("queue lock poisoned");
            while state.items.is_empty() {
                if state.shutdown {
                    return;
                }
                // INVARIANT: poisoning, as above — propagate the panic.
                state = shared.queue.not_empty.wait(state).expect("queue lock poisoned");
            }
            // One batch Vec per micro-batch, amortised over up to
            // max_batch requests.
            let take = state.items.len().min(shared.config.max_batch);
            state.items.drain(..take).collect()
        };
        shared.queue.not_full.notify_all();
        // Clone the interned question Arcs (refcount bumps): passing the
        // `Arc<str>` keys through the fill lets a cache insert share the
        // submitted allocation instead of copying the bytes.
        let requests: Vec<(DbId, Arc<str>)> =
            batch.iter().map(|r| (r.db, Arc::clone(&r.question))).collect();
        let metrics = shared.metrics.as_deref();
        // Every queued request already missed its one probe at submit:
        // compute and fill, never probe again.
        let cache = shared.cache.as_deref().map(|c| (c, shared.fingerprint));
        let answers = answer_per_db(&requests, metrics, |db, questions| {
            shared.engine.answer_batch_fill(cache, db, questions, metrics)
        });
        for (request, answer) in batch.iter().zip(answers) {
            if let Some(m) = metrics {
                // Scheduler-path latency of a miss: queue wait + compute,
                // anchored at enqueue time.
                m.record_answer_latency(request.enqueued.elapsed());
            }
            request.slot.put(answer);
        }
    }
}
