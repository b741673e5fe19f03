//! `serve_zipf` and `serve_unique`: open-loop Poisson traffic against an
//! in-process `finsqld` (`Server::bind` + `spawn`) over loopback TCP.
//!
//! The load generator is one connection driven by two threads: a writer
//! that sends each request at its scheduled instant whether or not
//! earlier ones were answered, and a reader that decodes responses.
//! Latency runs from the *scheduled* send to the complete response, so a
//! stall in the generator or the server is charged to every request it
//! delays. Every `Ok` payload is compared byte for byte with a fresh
//! `answer_fresh` reference computed before the server starts.

use crate::report::Report;
use crate::schedule::{self, Schedule};
use crate::setup::Setup;
use crate::stats;
use crate::trace::Trace;
use bull::DbId;
use finsql_core::batch::{BatchScheduler, Ticket};
use finsql_core::cache::{AnswerCache, Answerer, CachePolicy, CacheStats};
use finsql_core::metrics::{EvalMetrics, MetricsSnapshot};
use finsql_core::pipeline::FinSql;
use finsql_serve::wire::{encode_response_into, Frame, FrameDecoder, Kind, Status};
use finsql_serve::{BlockingClient, ServeConfig, ServeReport, Server};
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which question stream a serve workload sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Zipf(1.0) over [`ZIPF_POPULATION`] questions.
    Zipf,
    /// Every request a distinct question.
    Unique,
}

/// One serve workload.
#[derive(Debug, Clone, Copy)]
pub struct ServeSpec {
    pub mix: Mix,
    /// Offered rate, requests per second.
    pub rate: f64,
}

pub const SERVE_ZIPF: ServeSpec = ServeSpec {
    mix: Mix::Zipf,
    rate: 2000.0,
};
pub const SERVE_UNIQUE: ServeSpec = ServeSpec {
    mix: Mix::Unique,
    rate: 1000.0,
};

/// Distinct questions of the Zipf population.
pub const ZIPF_POPULATION: usize = 4096;
/// Answer-cache capacity: one eighth of the Zipf working set.
pub const CACHE_CAP: usize = 512;
/// A response slower than this (from its scheduled send) misses the SLO.
pub const SLO: Duration = Duration::from_millis(10);
/// A run is invalid when, in some window of [`stats::WINDOW`] consecutive
/// sends, the generator's median lateness exceeds this: it fell behind
/// the schedule for that stretch rather than stalling for a moment.
pub const LATE_LIMIT: Duration = Duration::from_millis(10);
/// A request sent later than this after its scheduled instant counts in
/// `loadgen.late_share`.
pub const LATE_MARK: Duration = Duration::from_millis(1);
/// Lead time between minting the clock and the first scheduled send.
const LEAD: Duration = Duration::from_millis(20);
/// A reader that sees no byte for this long declares the server stuck.
const READ_TIMEOUT: Duration = Duration::from_secs(30);
/// Repeats of each wire replay; the median is reported.
const WIRE_REPEATS: usize = 5;

/// The generated inputs of one run.
struct Inputs {
    mix: Mix,
    population: Vec<(DbId, Arc<str>)>,
    schedule: Schedule,
    /// Fresh reference answer per population index (requested ones only).
    refs: Vec<Option<Arc<str>>>,
}

impl Inputs {
    fn build(setup: &Setup, spec: ServeSpec, seed: u64, seconds: f64) -> Inputs {
        let (population, schedule) = match spec.mix {
            Mix::Zipf => (
                schedule::zipf_population(&setup.ds, ZIPF_POPULATION),
                schedule::zipf(seed, spec.rate, seconds, ZIPF_POPULATION, 1.0),
            ),
            Mix::Unique => {
                let pool = schedule::unique_pool_size(spec.rate, seconds);
                (
                    schedule::unique_population(&setup.ds, pool),
                    schedule::unique(seed, spec.rate, seconds, pool),
                )
            }
        };
        let population: Vec<(DbId, Arc<str>)> = population
            .into_iter()
            .map(|(db, q)| (db, Arc::from(q)))
            .collect();
        let refs = references(&setup.engine, &population, &schedule.picks);
        Inputs {
            mix: spec.mix,
            population,
            schedule,
            refs,
        }
    }

    fn question(&self, i: usize) -> &(DbId, Arc<str>) {
        &self.population[self.schedule.picks[i] as usize]
    }

    fn reference(&self, i: usize) -> &str {
        // INVARIANT: `references` filled every picked index.
        self.refs[self.schedule.picks[i] as usize]
            .as_deref()
            .expect("reference for every pick")
    }

    fn request_frames(&self, n: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| {
                let (db, q) = self.question(i);
                Frame::request(i as u64, db.index() as u8, q).encode()
            })
            .collect()
    }
}

/// `answer_fresh` for every picked question, on two threads.
fn references(
    engine: &FinSql,
    population: &[(DbId, Arc<str>)],
    picks: &[u32],
) -> Vec<Option<Arc<str>>> {
    let mut wanted: Vec<u32> = picks.to_vec();
    wanted.sort_unstable();
    wanted.dedup();
    let half = wanted.len().div_ceil(2).max(1);
    let answered: Vec<(u32, String)> = std::thread::scope(|s| {
        let jobs: Vec<_> = wanted
            .chunks(half)
            .map(|chunk| {
                s.spawn(move || {
                    chunk
                        .iter()
                        .map(|&p| {
                            let (db, q) = &population[p as usize];
                            (p, engine.answer_fresh(*db, q, None))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        // INVARIANT: a panic while answering is a program failure; re-raise.
        jobs.into_iter()
            .flat_map(|j| j.join().expect("reference thread panicked"))
            .collect()
    });
    let mut refs = vec![None; population.len()];
    for (p, a) in answered {
        refs[p as usize] = Some(Arc::from(a));
    }
    refs
}

/// What the load generator observed. Times are ns after `start`, the
/// instant the schedule is anchored to.
struct Traffic {
    start: Instant,
    /// Per request: response status and ns from scheduled send to the
    /// complete response.
    status: Vec<Option<Status>>,
    latency_ns: Vec<u64>,
    /// Per request: ns from scheduled to actual send.
    late_ns: Vec<u64>,
    sent_ns: Vec<u64>,
    /// Time of the last response.
    end_ns: u64,
    /// Ok payloads that differ from the reference.
    stale: u64,
    /// Reader-side `next_frame` calls that returned a frame (traced only).
    decode_spans: Vec<(u64, u64)>,
}

/// What one pass of traffic against a fresh server observed.
struct PassOut {
    n: usize,
    traffic: Traffic,
    report: ServeReport,
    stats: String,
    cache: CacheStats,
    metrics: Option<MetricsSnapshot>,
}

impl PassOut {
    fn count(&self, s: Status) -> u64 {
        self.traffic
            .status
            .iter()
            .filter(|&&x| x == Some(s))
            .count() as u64
    }

    /// Ok latencies in request order, ms.
    fn ok_latency_ms(&self) -> Vec<f64> {
        let t = &self.traffic;
        (0..self.n)
            .filter(|&i| t.status[i] == Some(Status::Ok))
            .map(|i| t.latency_ns[i] as f64 / 1e6)
            .collect()
    }

    fn late_ms(&self) -> Vec<f64> {
        stats::sorted(
            &self
                .traffic
                .late_ns
                .iter()
                .map(|&ns| ns as f64 / 1e6)
                .collect::<Vec<_>>(),
        )
    }
}

/// Sends the first `n` requests of the schedule against a fresh server
/// and cache, then checks every response and the server's own counts.
fn run_pass(
    engine: &Arc<FinSql>,
    inputs: &Inputs,
    n: usize,
    traced: bool,
) -> Result<PassOut, String> {
    let frames = inputs.request_frames(n);
    let arrivals = &inputs.schedule.arrivals_ns[..n];
    let cache = Arc::new(AnswerCache::with_policy(
        CACHE_CAP,
        CachePolicy::SlruTinyLfu,
    ));
    let metrics = traced.then(|| Arc::new(EvalMetrics::new()));
    let server = Server::bind(
        "127.0.0.1:0",
        Arc::clone(engine),
        Some(Arc::clone(&cache)),
        metrics.clone(),
        ServeConfig::default(),
    )
    .map_err(|e| format!("binding finsqld on loopback: {e}"))?;
    let addr = server.local_addr();
    let handle = server.spawn();
    let traffic = drive(addr, &frames, arrivals, inputs, traced);
    // Read STATS and drain the server even when the traffic failed, so
    // no thread outlives the run.
    let stats = BlockingClient::connect(addr)
        .and_then(|mut c| c.stats())
        .map_err(|e| format!("STATS: {e:?}"));
    let report = handle
        .shutdown()
        .map_err(|_| "the finsqld driver thread panicked".to_string())?;
    let out = PassOut {
        n,
        traffic: traffic?,
        report,
        stats: stats?,
        cache: cache.stats(),
        metrics: metrics.map(|m| m.snapshot()),
    };
    check(&out, inputs.mix)?;
    Ok(out)
}

/// The load generator: one connection, one writer and one reader thread.
fn drive(
    addr: std::net::SocketAddr,
    frames: &[Vec<u8>],
    arrivals: &[u64],
    inputs: &Inputs,
    traced: bool,
) -> Result<Traffic, String> {
    let n = frames.len();
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let _ = stream.set_nodelay(true);
    let mut reader = stream
        .try_clone()
        .map_err(|e| format!("clone stream: {e}"))?;
    reader
        .set_read_timeout(Some(READ_TIMEOUT))
        .map_err(|e| format!("read timeout: {e}"))?;
    let start = Instant::now() + LEAD;
    std::thread::scope(|s| {
        let writer = s.spawn(move || -> Result<(Vec<u64>, Vec<u64>), String> {
            let mut late = Vec::with_capacity(n);
            let mut sent = Vec::with_capacity(n);
            for (frame, &at) in frames.iter().zip(arrivals) {
                let due = start + Duration::from_nanos(at);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let now = Instant::now();
                late.push(now.saturating_duration_since(due).as_nanos() as u64);
                sent.push(now.saturating_duration_since(start).as_nanos() as u64);
                stream.write_all(frame).map_err(|e| format!("send: {e}"))?;
            }
            Ok((late, sent))
        });
        let reader = s.spawn(move || -> Result<_, String> {
            let mut status: Vec<Option<Status>> = vec![None; n];
            let mut latency = vec![0u64; n];
            let mut decode_spans = Vec::with_capacity(if traced { n } else { 0 });
            let mut stale = 0u64;
            let mut decoder = FrameDecoder::new();
            let mut buf = vec![0u8; 1 << 16];
            let mut remaining = n;
            let mut end_ns = 0;
            while remaining > 0 {
                let got = reader.read(&mut buf).map_err(|e| format!("receive: {e}"))?;
                if got == 0 {
                    return Err(format!(
                        "finsqld closed the connection with {remaining} responses owed"
                    ));
                }
                decoder.push(&buf[..got]);
                loop {
                    let t0 = traced.then(Instant::now);
                    let Some(frame) = decoder
                        .next_frame()
                        .map_err(|e| format!("bad response: {e:?}"))?
                    else {
                        break;
                    };
                    let done = Instant::now();
                    let done_ns = done.saturating_duration_since(start).as_nanos() as u64;
                    if let Some(t0) = t0 {
                        let from = t0.saturating_duration_since(start).as_nanos() as u64;
                        decode_spans.push((from, done_ns));
                    }
                    let i = frame.request_id as usize;
                    if frame.kind != Kind::Response || i >= n || status[i].is_some() {
                        return Err(format!("unexpected frame {:?} for request {i}", frame.kind));
                    }
                    let st = frame.status().ok_or("unknown response status")?;
                    status[i] = Some(st);
                    latency[i] = done_ns.saturating_sub(arrivals[i]);
                    if st == Status::Ok
                        && frame.payload.as_slice() != inputs.reference(i).as_bytes()
                    {
                        stale += 1;
                    }
                    end_ns = done_ns;
                    remaining -= 1;
                }
            }
            Ok((status, latency, stale, decode_spans, end_ns))
        });
        let w = writer
            .join()
            .map_err(|_| "writer thread panicked".to_string());
        let r = reader
            .join()
            .map_err(|_| "reader thread panicked".to_string());
        let (late_ns, sent_ns) = w??;
        let (status, latency_ns, stale, decode_spans, end_ns) = r??;
        Ok(Traffic {
            start,
            status,
            latency_ns,
            late_ns,
            sent_ns,
            end_ns,
            stale,
            decode_spans,
        })
    })
}

/// Reads `"key":<integer>` from the STATS JSON.
fn stats_field(json: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let rest = &json[json.find(&pat)? + pat.len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The correctness gate of one pass.
fn check(out: &PassOut, mix: Mix) -> Result<(), String> {
    if mix == Mix::Unique && out.cache.hits != 0 {
        return Err(format!(
            "serve_unique recorded {} cache hits",
            out.cache.hits
        ));
    }
    if out.traffic.stale > 0 {
        return Err(format!(
            "{} Ok payloads differ from the fresh reference",
            out.traffic.stale
        ));
    }
    let (ok, busy, shutdown) = (
        out.count(Status::Ok),
        out.count(Status::Busy),
        out.count(Status::Shutdown),
    );
    if ok + busy + shutdown != out.n as u64 {
        return Err(format!(
            "{} responses were neither Ok, Busy nor Shutdown",
            out.n as u64 - ok - busy - shutdown
        ));
    }
    let r = &out.report;
    if (ok, busy, shutdown, r.bad_frames) != (r.served, r.busy_rejected, r.shutdown_rejected, 0) {
        return Err(format!(
            "client counts Ok {ok} / Busy {busy} / Shutdown {shutdown} disagree with the server's {r:?}"
        ));
    }
    if stats_field(&out.stats, "served") != Some(r.served) {
        return Err(format!(
            "STATS disagrees with the lifetime report: {}",
            out.stats
        ));
    }
    // A brief stall of the generator (or of the host under it) delays a
    // few dozen sends; their latency runs from the scheduled send, so the
    // stall is charged to them. Only a generator that stays behind offers
    // the server less than the stated rate.
    let late: Vec<f64> = out
        .traffic
        .late_ns
        .iter()
        .map(|&ns| ns as f64 / 1e6)
        .collect();
    let lag = stats::worst_window_percentile(&late, stats::WINDOW, 50.0)
        .or_else(|| stats::median(&late))
        .unwrap_or(0.0);
    if lag > LATE_LIMIT.as_secs_f64() * 1e3 {
        return Err(format!(
            "invalid run: the generator's median lateness over a {}-request window was {lag:.3} ms, beyond the {} ms limit",
            stats::WINDOW,
            LATE_LIMIT.as_millis()
        ));
    }
    Ok(())
}

/// Runs one serve workload.
pub fn run(
    setup: &Setup,
    spec: ServeSpec,
    seed: u64,
    seconds: f64,
    trace: &mut Trace,
) -> Result<Report, String> {
    let inputs = Inputs::build(setup, spec, seed, seconds);
    if !trace.enabled() {
        let out = run_pass(&setup.engine, &inputs, inputs.schedule.len(), false)?;
        return end_to_end(&out);
    }
    // Traced run: the first half of the schedule untraced, then the same
    // half traced, then the replays, so the whole run stays near the
    // untraced run's length.
    let half = inputs.schedule.prefix((seconds * 0.5e9) as u64).len();
    let plain = run_pass(&setup.engine, &inputs, half, false)?;
    let traced = run_pass(&setup.engine, &inputs, half, true)?;
    record_request_spans(&traced, trace);
    per_layer(setup, &inputs, half, &plain, &traced, trace)
}

fn end_to_end(out: &PassOut) -> Result<Report, String> {
    let n = out.n as f64;
    let ok_ms = out.ok_latency_ms();
    let sorted = stats::sorted(&ok_ms);
    let within = ok_ms
        .iter()
        .filter(|&&ms| ms <= SLO.as_secs_f64() * 1e3)
        .count();
    let p50 = stats::reported_percentile(&ok_ms, 50.0).ok_or("no Ok responses")?;
    let p99 = stats::reported_percentile(&ok_ms, 99.0).ok_or("no Ok responses")?;
    let tail = stats::highest_resolvable(sorted.len());
    let late = out.late_ms();
    eprintln!(
        "serve: {} sent, {} Ok, {} Busy; p50 whole run {:.3} ms, calmest window {:.3} ms; p99 whole run {:.3} ms, calmest window {:.3} ms; tail p{:?} = {:.3} ms; late p99 {:.3} ms",
        out.n,
        sorted.len(),
        out.count(Status::Busy),
        stats::percentile(&sorted, 50.0).unwrap_or(f64::NAN),
        p50,
        stats::percentile(&sorted, 99.0).unwrap_or(f64::NAN),
        p99,
        tail,
        tail.and_then(|p| stats::percentile(&sorted, p)).unwrap_or(f64::NAN),
        stats::percentile(&late, 99.0).unwrap_or(f64::NAN),
    );
    let first_ns = out.traffic.sent_ns.first().copied().unwrap_or(0);
    let mut report = Report {
        attempted: out.n as u64,
        failed: out.n as u64 - sorted.len() as u64,
        ..Report::default()
    };
    report.set(
        "sweep_qps",
        sorted.len() as f64 / ((out.traffic.end_ns - first_ns) as f64 / 1e9),
    );
    report.set("p50_ms", p50);
    report.set("ok_share", sorted.len() as f64 / n);
    report.set("slo_share", within as f64 / n);
    Ok(report)
}

fn record_request_spans(out: &PassOut, trace: &mut Trace) {
    let t = &out.traffic;
    let at = |ns: u64| t.start + Duration::from_nanos(ns);
    for i in 0..out.n {
        let due = t.sent_ns[i] - t.late_ns[i];
        let req = trace.span(
            "serve.request",
            0,
            i as u64,
            at(due),
            at(due + t.latency_ns[i]),
        );
        trace.span("loadgen.send", req, i as u64, at(due), at(t.sent_ns[i]));
    }
    for (k, &(a, b)) in t.decode_spans.iter().enumerate() {
        trace.span("client.decode", 0, k as u64, at(a), at(b));
    }
}

/// Mean ns per op of `get` hits, `get` misses and `insert`, replaying the
/// workload's key stream against a fresh cache as the server would.
fn replay_cache(engine: &FinSql, inputs: &Inputs, n: usize, trace: &mut Trace) -> (f64, f64, f64) {
    let cache = AnswerCache::with_policy(CACHE_CAP, CachePolicy::SlruTinyLfu);
    let fp = engine.config_fingerprint();
    let (mut hit, mut miss, mut insert) = ((0u64, 0u64), (0u64, 0u64), (0u64, 0u64));
    for i in 0..n {
        let (db, q) = inputs.question(i);
        let t0 = Instant::now();
        let got = cache.get(*db, q, fp);
        let t1 = Instant::now();
        let found = got.is_some();
        black_box(got);
        let d = (t1 - t0).as_nanos() as u64;
        if found {
            hit = (hit.0 + d, hit.1 + 1);
            trace.span("cache.get_hit", 0, i as u64, t0, t1);
            continue;
        }
        miss = (miss.0 + d, miss.1 + 1);
        trace.span("cache.get_miss", 0, i as u64, t0, t1);
        let answer: Arc<str> = Arc::from(inputs.reference(i));
        let t2 = Instant::now();
        black_box(cache.insert(*db, q, fp, answer));
        let t3 = Instant::now();
        insert = (insert.0 + (t3 - t2).as_nanos() as u64, insert.1 + 1);
        trace.span("cache.insert", 0, i as u64, t2, t3);
    }
    let mean = |(sum, count): (u64, u64)| {
        if count == 0 {
            0.0
        } else {
            sum as f64 / count as f64
        }
    };
    (mean(hit), mean(miss), mean(insert))
}

/// Median ns per frame of decoding the workload's request frames (fed in
/// 4 KiB reads, as the driver reads) and encoding its Ok responses.
fn replay_wire(inputs: &Inputs, n: usize, trace: &mut Trace) -> Result<(f64, f64), String> {
    let bytes: Vec<u8> = inputs.request_frames(n).concat();
    let mut decode = Vec::with_capacity(WIRE_REPEATS);
    let mut encode = Vec::with_capacity(WIRE_REPEATS);
    let mut out: Vec<u8> = Vec::with_capacity(1 << 16);
    for k in 0..WIRE_REPEATS {
        let mut decoder = FrameDecoder::new();
        let mut frames = 0usize;
        let t0 = Instant::now();
        for chunk in bytes.chunks(4096) {
            decoder.push(chunk);
            while let Some(f) = decoder
                .next_frame()
                .map_err(|e| format!("replayed frame: {e:?}"))?
            {
                black_box(f);
                frames += 1;
            }
        }
        let t1 = Instant::now();
        if frames != n {
            return Err(format!("decoded {frames} of {n} replayed frames"));
        }
        trace.span("wire.decode", 0, k as u64, t0, t1);
        decode.push((t1 - t0).as_nanos() as f64 / n as f64);
        let t0 = Instant::now();
        for i in 0..n {
            encode_response_into(&mut out, i as u64, Status::Ok, 0, inputs.reference(i));
            if out.len() >= 1 << 16 {
                black_box(&out);
                out.clear();
            }
        }
        let t1 = Instant::now();
        out.clear();
        trace.span("wire.encode", 0, k as u64, t0, t1);
        encode.push((t1 - t0).as_nanos() as f64 / n as f64);
    }
    Ok((
        stats::median(&decode).unwrap_or(0.0),
        stats::median(&encode).unwrap_or(0.0),
    ))
}

/// `try_submit` → `Ticket::try_answer` on the workload's schedule, with
/// the server's `BatchConfig` and a fresh cache, polled as the driver
/// polls (napping `idle_sleep` when nothing happened). Returns each
/// request's submit-to-answer time, ms, in request order.
fn replay_scheduler(
    engine: &Arc<FinSql>,
    inputs: &Inputs,
    n: usize,
    trace: &mut Trace,
) -> Result<Vec<f64>, String> {
    let config = ServeConfig::default();
    let cache = Arc::new(AnswerCache::with_policy(
        CACHE_CAP,
        CachePolicy::SlruTinyLfu,
    ));
    let mut scheduler = BatchScheduler::new(Arc::clone(engine), Some(cache), None, config.batch);
    let arrivals = &inputs.schedule.arrivals_ns;
    let start = Instant::now() + LEAD;
    let mut pending: Vec<(usize, Ticket, Instant)> = Vec::new();
    let mut answered: Vec<(usize, Arc<str>, Instant, Instant)> = Vec::new();
    let mut latency_ms = vec![0.0; n];
    let mut next = 0;
    let mut failure = None;
    while next < n || !pending.is_empty() {
        let mut progressed = false;
        let now = Instant::now();
        while next < n && start + Duration::from_nanos(arrivals[next]) <= now {
            let (db, q) = inputs.question(next);
            match scheduler.try_submit(*db, Arc::clone(q)) {
                Ok(ticket) => pending.push((next, ticket, Instant::now())),
                Err(e) => {
                    failure = Some(format!("the scheduler refused request {next}: {e}"));
                    break;
                }
            }
            next += 1;
            progressed = true;
        }
        if failure.is_some() {
            break;
        }
        pending.retain(|(i, ticket, submitted)| match ticket.try_answer() {
            Some(a) => {
                answered.push((*i, a, *submitted, Instant::now()));
                false
            }
            None => true,
        });
        for (i, a, submitted, done) in answered.drain(..) {
            progressed = true;
            if &*a != inputs.reference(i) {
                failure = Some(format!("replayed request {i} got a stale answer"));
            }
            latency_ms[i] = (done - submitted).as_secs_f64() * 1e3;
            trace.span("sched.request", 0, i as u64, submitted, done);
        }
        if !progressed {
            std::thread::sleep(config.idle_sleep);
        }
    }
    // Drains the queue and joins the workers before returning.
    scheduler.shutdown();
    match failure {
        Some(f) => Err(f),
        None => Ok(latency_ms),
    }
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

fn per_layer(
    setup: &Setup,
    inputs: &Inputs,
    n: usize,
    plain: &PassOut,
    traced: &PassOut,
    trace: &mut Trace,
) -> Result<Report, String> {
    let engine = &setup.engine;
    let (hit_ns, miss_ns, insert_ns) = replay_cache(engine, inputs, n, trace);
    let (decode_ns, encode_ns) = replay_wire(inputs, n, trace)?;
    let sched_ms = replay_scheduler(engine, inputs, n, trace)?;
    let sched_sorted = stats::sorted(&sched_ms);
    let sched_p50 = stats::percentile(&sched_sorted, 50.0).ok_or("no replayed requests")?;
    let sched_p99 = stats::percentile(&sched_sorted, 99.0).ok_or("no replayed requests")?;

    let mut report = Report {
        attempted: (plain.n + traced.n) as u64,
        failed: (plain.n + traced.n) as u64 - plain.count(Status::Ok) - traced.count(Status::Ok),
        ..Report::default()
    };
    // INVARIANT: the traced pass always carries a metrics sink.
    let snap = traced.metrics.as_ref().expect("traced pass has metrics");
    let q = snap.questions.max(1) as f64;
    let samples = snap.candidates.max(1) as f64;
    let us = |d: Duration| d.as_secs_f64() * 1e6;
    report.set("link.us_per_q", us(snap.link_time) / q);
    report.set("project.distinct_per_q", 0.0);
    report.set("gen.us_per_q", us(snap.gen_time) / q);
    report.set("gen.samples_per_q", snap.candidates as f64 / q);
    report.set(
        "gen.fallback_share",
        snap.generator_fallbacks as f64 / samples,
    );
    report.set("gen.slip_share", snap.skeleton_slips as f64 / samples);
    report.set("calib.us_per_q", us(snap.calibrate_time) / q);
    report.set("calib.repairs_per_q", snap.repairs as f64 / q);
    report.set("calib.dropped_per_q", snap.dropped_unresolved as f64 / q);
    report.set(
        "calib.fallback_share",
        snap.calibration_fallbacks as f64 / q,
    );
    report.set("engine.residual_us_per_q", 0.0);

    let c = &traced.cache;
    let lookups = (c.hits + c.misses).max(1) as f64;
    report.set("cache.hit_share", c.hits as f64 / lookups);
    report.set("cache.get_hit_ns", hit_ns);
    report.set("cache.get_miss_ns", miss_ns);
    report.set("cache.insert_ns", insert_ns);
    report.set(
        "cache.admit_reject_share",
        c.admission_rejected as f64 / c.misses.max(1) as f64,
    );
    report.set("cache.evictions", c.evictions as f64);

    report.set("sched.batches", snap.batches as f64);
    report.set(
        "sched.batch_mean",
        snap.batched_questions as f64 / snap.batches.max(1) as f64,
    );
    report.set(
        "sched.mixed_share",
        snap.mixed_batches as f64 / snap.batches.max(1) as f64,
    );
    report.set("sched.submit_to_answer_ms_p50", sched_p50);
    report.set("sched.submit_to_answer_ms_p99", sched_p99);
    report.set("wire.decode_ns", decode_ns);
    report.set("wire.encode_ns", encode_ns);

    let ns_field = |k: &str| {
        stats_field(&traced.stats, k)
            .map(|v| v as f64 / 1e6)
            .ok_or(format!("STATS lacks {k}"))
    };
    report.set("server.latency_p50_ms", ns_field("p50_ns")?);
    report.set("server.latency_p99_ms", ns_field("p99_ns")?);
    report.set(
        "server.busy",
        stats_field(&traced.stats, "busy_rejected").ok_or("STATS lacks busy_rejected")? as f64,
    );

    let ok_ms = traced.ok_latency_ms();
    let p50 = stats::percentile(&stats::sorted(&ok_ms), 50.0).ok_or("no Ok responses")?;
    report.set("net_driver.ms_p50", p50 - sched_p50);
    report.set(
        "client.p99_ms",
        stats::reported_percentile(&plain.ok_latency_ms(), 99.0).ok_or("no Ok responses")?,
    );
    let late = traced.late_ms();
    report.set(
        "loadgen.late_p99_ms",
        stats::percentile(&late, 99.0).unwrap_or(0.0),
    );
    let mark = LATE_MARK.as_secs_f64() * 1e3;
    report.set(
        "loadgen.late_share",
        late.iter().filter(|&&ms| ms > mark).count() as f64 / late.len().max(1) as f64,
    );

    let plain_p50 =
        stats::percentile(&stats::sorted(&plain.ok_latency_ms()), 50.0).ok_or("no Ok responses")?;
    report.set("trace.overhead_share", p50 / plain_p50 - 1.0);
    let e2e_mean = mean(&ok_ms);
    // End to end is the mean Ok latency; the attributed layers are the
    // generator's lateness, the scheduler hop and the server's codec.
    let late_mean = mean(&late);
    let attributed = late_mean + mean(&sched_ms) + (decode_ns + encode_ns) / 1e6;
    report.set("residual", 1.0 - attributed / e2e_mean);
    eprintln!(
        "serve traced: {n} requests per pass; mean latency {e2e_mean:.3} ms = late {late_mean:.3} + scheduler {:.3} + wire {:.4} + unattributed {:.3} ms; \
         server histogram quantiles carry up to 2x error (power-of-two buckets)",
        mean(&sched_ms),
        (decode_ns + encode_ns) / 1e6,
        e2e_mean - attributed,
    );
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_fields_parse() {
        let json =
            "{\"served\":12,\"busy_rejected\":0,\"latency\":{\"count\":12,\"p50_ns\":2097151}}";
        assert_eq!(stats_field(json, "served"), Some(12));
        assert_eq!(stats_field(json, "busy_rejected"), Some(0));
        assert_eq!(stats_field(json, "p50_ns"), Some(2_097_151));
        assert_eq!(stats_field(json, "p99_ns"), None);
    }
}
