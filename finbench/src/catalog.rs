//! Every workload and metric the benchmark reports: the one list that
//! `BENCHMARK.json` must match (a test checks it).

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported metric. `bound` is set for end-to-end metrics only: the
/// share of the parent's median by which the metric may worsen.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

/// One workload and why it is in the benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

/// The workloads `BENCHMARK.json` lists.
pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "sweep_cold",
        why: "1000 dev questions in batches of 8, no cache, one thread: time is in linking, generation and calibration",
    },
    Workload {
        name: "serve_zipf",
        why: "finsqld at 2000 q/s, Zipf(1.0) over 4096 questions, cache of 512: most requests hit, so flush wait, driver and wire dominate",
    },
];

/// Workloads the benchmark runs on request but `BENCHMARK.json` does not
/// list, because their spread on the reference host exceeds the largest
/// bound a metric may carry (README: "serve_unique").
pub const UNLISTED: [Workload; 1] = [Workload {
    name: "serve_unique",
    why: "finsqld at 1000 q/s with no repeated question: every request misses and inserts, the engine runs on tiny mixed batches",
}];

/// Whether `name` is a workload this benchmark can run.
pub fn is_workload(name: &str) -> bool {
    WORKLOADS.iter().chain(&UNLISTED).any(|w| w.name == name)
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// Reported with `--trace 0`.
pub const END_TO_END: [Metric; 6] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("rss_mb", "MiB", Lower, 0.1),
    e2e("sweep_qps", "1/s", Higher, 0.25),
    e2e("p50_ms", "ms", Lower, 0.25),
    e2e("ok_share", "ratio", Higher, 0.05),
    e2e("slo_share", "ratio", Higher, 0.15),
];

/// Reported with `--trace 1`. A layer a workload does not exercise reads
/// 0 there (README: "Per-layer metrics").
pub const PER_LAYER: [Metric; 35] = [
    layer("setup.dataset_s", "s", Lower),
    layer("setup.train_s", "s", Lower),
    layer("link.us_per_q", "us", Lower),
    layer("project.distinct_per_q", "ratio", Lower),
    layer("gen.us_per_q", "us", Lower),
    layer("gen.samples_per_q", "count", Lower),
    layer("gen.fallback_share", "ratio", Lower),
    layer("gen.slip_share", "ratio", Lower),
    layer("calib.us_per_q", "us", Lower),
    layer("calib.repairs_per_q", "count", Lower),
    layer("calib.dropped_per_q", "count", Lower),
    layer("calib.fallback_share", "ratio", Lower),
    layer("engine.residual_us_per_q", "us", Lower),
    layer("cache.hit_share", "ratio", Higher),
    layer("cache.get_hit_ns", "ns", Lower),
    layer("cache.get_miss_ns", "ns", Lower),
    layer("cache.insert_ns", "ns", Lower),
    layer("cache.admit_reject_share", "ratio", Lower),
    layer("cache.evictions", "count", Lower),
    layer("sched.batches", "count", Lower),
    layer("sched.batch_mean", "count", Higher),
    layer("sched.mixed_share", "ratio", Lower),
    layer("sched.submit_to_answer_ms_p50", "ms", Lower),
    layer("sched.submit_to_answer_ms_p99", "ms", Lower),
    layer("wire.decode_ns", "ns", Lower),
    layer("wire.encode_ns", "ns", Lower),
    layer("server.latency_p50_ms", "ms", Lower),
    layer("server.latency_p99_ms", "ms", Lower),
    layer("server.busy", "count", Lower),
    layer("net_driver.ms_p50", "ms", Lower),
    layer("client.p99_ms", "ms", Lower),
    layer("loadgen.late_p99_ms", "ms", Lower),
    layer("loadgen.late_share", "ratio", Lower),
    layer("trace.overhead_share", "ratio", Lower),
    layer("residual", "ratio", Lower),
];

/// The metrics a run reports in the given mode.
pub fn metrics_for(trace: bool) -> &'static [Metric] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// Whether `name` is a valid metric or workload name: 1 to 64 of
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn every_name_is_valid_and_used_once() {
        let names: Vec<&str> = WORKLOADS
            .iter()
            .chain(&UNLISTED)
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        for n in &names {
            assert!(valid_name(n), "bad name {n:?}");
        }
        let distinct: HashSet<&&str> = names.iter().collect();
        assert_eq!(distinct.len(), names.len(), "a name is used twice");
        for w in WORKLOADS.iter().chain(&UNLISTED) {
            assert!(!w.why.is_empty() && w.why.len() <= 200 && !w.why.contains('\n'));
        }
    }

    #[test]
    fn bounds_and_units_follow_the_contract() {
        for m in END_TO_END {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25, "{}: bound {b}", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s has the largest bound");
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(!m.unit.is_empty() && m.unit.len() <= 16, "{}", m.name);
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-')));
        }
    }

    #[test]
    fn name_rule() {
        assert!(valid_name("sched.submit_to_answer_ms_p50"));
        assert!(valid_name("p99_ms"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(&"x".repeat(65)));
    }
}
