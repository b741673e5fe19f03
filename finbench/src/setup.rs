//! The set-up every workload pays: the BULL dataset and one trained
//! FinSQL engine (LLaMA2-13B profile, standard English config).

use bull::{BullDataset, Lang};
use finsql_core::pipeline::{FinSql, FinSqlConfig};
use std::sync::Arc;
use std::time::Instant;

pub struct Setup {
    pub ds: BullDataset,
    pub engine: Arc<FinSql>,
    /// `bull::build` wall time, s.
    pub dataset_s: f64,
    /// `FinSql::build` wall time, s.
    pub train_s: f64,
}

impl Setup {
    pub fn build() -> Setup {
        let t = Instant::now();
        let ds = bull::build(bench::SEED);
        let dataset_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let engine = FinSql::build(
            &ds,
            bench::headline_profile(Lang::En),
            FinSqlConfig::standard(Lang::En),
        );
        let train_s = t.elapsed().as_secs_f64();
        Setup {
            ds,
            engine: Arc::new(engine),
            dataset_s,
            train_s,
        }
    }

    /// What a restart costs: dataset plus training.
    pub fn setup_s(&self) -> f64 {
        self.dataset_s + self.train_s
    }
}

/// Peak resident memory of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}
