//! Seeded open-loop request schedules for the `serve_*` workloads.
//!
//! A schedule is a list of Poisson arrival times (exponential gaps at a
//! fixed rate) and, per arrival, the population index of the question it
//! sends. The seed stays here: the server only ever sees the generated
//! questions.

use bench::traffic::ZipfSampler;
use bull::{BullDataset, DbId, Lang};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// One generated schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// Scheduled send time of request `i`, ns after the run's start.
    pub arrivals_ns: Vec<u64>,
    /// Population index of the question request `i` sends.
    pub picks: Vec<u32>,
}

impl Schedule {
    pub fn len(&self) -> usize {
        self.arrivals_ns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.arrivals_ns.is_empty()
    }

    /// The requests due before `ns`.
    pub fn prefix(&self, ns: u64) -> Schedule {
        let n = self.arrivals_ns.partition_point(|&t| t < ns);
        Schedule {
            arrivals_ns: self.arrivals_ns[..n].to_vec(),
            picks: self.picks[..n].to_vec(),
        }
    }
}

/// Poisson arrival times at `rate` per second over `seconds`.
fn poisson_arrivals(rng: &mut StdRng, rate: f64, seconds: f64) -> Vec<u64> {
    let mut out = Vec::with_capacity((rate * seconds * 1.1) as usize + 16);
    let mut t = 0.0f64;
    loop {
        let u: f64 = rng.gen_range(0.0..1.0);
        t += -(1.0 - u).ln() / rate;
        if t >= seconds {
            return out;
        }
        out.push((t * 1e9) as u64);
    }
}

/// Poisson arrivals with Zipf(`s`)-ranked picks over `population`
/// questions.
pub fn zipf(seed: u64, rate: f64, seconds: f64, population: usize, s: f64) -> Schedule {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5A1F_0000_0000_0001);
    let arrivals_ns = poisson_arrivals(&mut rng, rate, seconds);
    let sampler = ZipfSampler::new(population, s);
    let picks = arrivals_ns
        .iter()
        .map(|_| sampler.sample(&mut rng) as u32)
        .collect();
    Schedule { arrivals_ns, picks }
}

/// Poisson arrivals whose picks never repeat: a seeded draw without
/// replacement from a pool of `pool` questions.
///
/// Panics when the pool is smaller than the number of arrivals.
pub fn unique(seed: u64, rate: f64, seconds: f64, pool: usize) -> Schedule {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0417_0000_0000_0002);
    let arrivals_ns = poisson_arrivals(&mut rng, rate, seconds);
    assert!(
        pool >= arrivals_ns.len(),
        "pool {pool} < {} arrivals",
        arrivals_ns.len()
    );
    let mut order: Vec<u32> = (0..pool as u32).collect();
    order.shuffle(&mut rng);
    order.truncate(arrivals_ns.len());
    Schedule {
        arrivals_ns,
        picks: order,
    }
}

/// Pool size that covers every arrival of [`unique`] at `rate` over
/// `seconds` with room for a Poisson overshoot of many deviations.
pub fn unique_pool_size(rate: f64, seconds: f64) -> usize {
    let mean = rate * seconds;
    (2.0 * mean + 10.0 * mean.sqrt()) as usize + 64
}

/// The `serve_zipf` population: the dev questions round-robin across
/// databases, then `(variant k)` paraphrases, as built by
/// [`bench::traffic::build_population`].
pub fn zipf_population(ds: &BullDataset, size: usize) -> Vec<(DbId, String)> {
    bench::traffic::build_population(ds, Lang::En, size)
}

/// The `serve_unique` pool: the same construction with repeated
/// `(database, question)` pairs removed, so that distinct picks are
/// distinct questions.
pub fn unique_population(ds: &BullDataset, size: usize) -> Vec<(DbId, String)> {
    let mut seen: HashSet<(DbId, String)> = HashSet::with_capacity(size);
    let mut want = size;
    loop {
        let candidates = bench::traffic::build_population(ds, Lang::En, want);
        let out: Vec<(DbId, String)> = candidates
            .into_iter()
            .filter(|e| seen.insert(e.clone()))
            .take(size)
            .collect();
        if out.len() == size {
            return out;
        }
        seen.clear();
        want += want / 2 + 64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_schedule_replays_under_one_seed_and_differs_under_another() {
        let a = zipf(7, 2000.0, 2.0, 4096, 1.0);
        assert_eq!(a, zipf(7, 2000.0, 2.0, 4096, 1.0));
        let b = zipf(8, 2000.0, 2.0, 4096, 1.0);
        assert_ne!(a.arrivals_ns, b.arrivals_ns);
        assert_ne!(a.picks, b.picks);
        // About 4000 arrivals, ascending, inside the window.
        assert!((3700..4300).contains(&a.len()), "{} arrivals", a.len());
        assert!(a.arrivals_ns.windows(2).all(|w| w[0] <= w[1]));
        assert!(*a.arrivals_ns.last().expect("non-empty") < 2_000_000_000);
        assert!(a.picks.iter().all(|&p| p < 4096));
    }

    #[test]
    fn unique_schedule_replays_and_never_repeats() {
        let pool = unique_pool_size(1000.0, 3.0);
        let a = unique(11, 1000.0, 3.0, pool);
        assert_eq!(a, unique(11, 1000.0, 3.0, pool));
        assert_ne!(a.picks, unique(12, 1000.0, 3.0, pool).picks);
        let distinct: HashSet<u32> = a.picks.iter().copied().collect();
        assert_eq!(distinct.len(), a.len());
        assert!(a.picks.iter().all(|&p| (p as usize) < pool));
    }

    #[test]
    fn prefix_keeps_the_early_requests() {
        let a = zipf(3, 1000.0, 2.0, 64, 1.0);
        let p = a.prefix(1_000_000_000);
        assert!(!p.is_empty() && p.len() < a.len());
        assert_eq!(p.picks[..], a.picks[..p.len()]);
        assert!(p.arrivals_ns.iter().all(|&t| t < 1_000_000_000));
    }

    #[test]
    fn unique_population_has_no_repeats() {
        let ds = bull::build(bench::SEED);
        let size = unique_pool_size(1000.0, 10.0);
        let pool = unique_population(&ds, size);
        assert_eq!(pool.len(), size);
        let distinct: HashSet<&(DbId, String)> = pool.iter().collect();
        assert_eq!(distinct.len(), size);
        // Every database is present.
        for db in DbId::ALL {
            assert!(pool.iter().any(|(d, _)| *d == db));
        }
    }
}
