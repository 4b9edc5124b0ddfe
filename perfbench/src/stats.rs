//! Percentiles under the reporting rule: a percentile is reported only when
//! at least [`MIN_BEYOND`] samples lie beyond it, so a p99 needs about a
//! thousand samples and a thin tail is never passed off as a p99.

use std::time::Duration;

use pqp_obs::Json;

/// Samples that must lie strictly above a percentile's rank for it to be
/// reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `q` (in `(0, 1]`) of ascending `sorted` samples.
/// `None` when fewer than [`MIN_BEYOND`] samples rank above it.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// Sort samples ascending (failed operations are `f64::INFINITY`, so they
/// sort last and count as missing any latency limit).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(|a, b| a.total_cmp(b));
    samples
}

/// Median of a non-empty set of values.
pub fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Parts the timed phase is cut into: throughput is measured per time
/// window, latency per group of consecutive samples.
pub const WINDOWS: usize = 5;
/// Samples a latency group needs for its p99 to have `MIN_BEYOND` beyond it.
const GROUP_MIN: usize = 100 * MIN_BEYOND;

/// Latency of one group of consecutive samples.
struct Group {
    ops: usize,
    p50: Option<f64>,
    p99: Option<f64>,
}

/// A phase's throughput and latency as medians over its parts, which a
/// burst of interference inside one part does not move: throughput is the
/// median over `WINDOWS` equal time windows; p50 and p99 are medians over
/// up to `WINDOWS` equal groups of consecutive samples (fewer when there
/// are too few samples for each group to report a p99).
pub struct Windowed {
    pub per_s: f64,
    pub p50: Option<f64>,
    pub p99: Option<f64>,
    window_per_s: Vec<f64>,
    groups: Vec<Group>,
}

impl Windowed {
    /// Summarize the `(completed at, latency ms)` samples of a phase of
    /// length `dur`.
    pub fn new(samples: impl Iterator<Item = (Duration, f64)>, dur: Duration) -> Windowed {
        let mut samples: Vec<(Duration, f64)> = samples.collect();
        samples.sort_by_key(|s| s.0);
        let width = dur / WINDOWS as u32;
        let mut ok = [0usize; WINDOWS];
        for &(done, _) in samples.iter().filter(|s| s.1.is_finite()) {
            let i = (done.as_nanos() / width.as_nanos().max(1)) as usize;
            ok[i.min(WINDOWS - 1)] += 1;
        }
        let window_per_s: Vec<f64> = ok.iter().map(|&n| n as f64 / width.as_secs_f64()).collect();
        let n = samples.len();
        let parts = (n / GROUP_MIN).clamp(1, WINDOWS);
        let groups: Vec<Group> = (0..parts)
            .map(|k| {
                let ms = sorted(
                    samples[k * n / parts..(k + 1) * n / parts].iter().map(|s| s.1).collect(),
                );
                Group { ops: ms.len(), p50: percentile(&ms, 0.5), p99: percentile(&ms, 0.99) }
            })
            .collect();
        let med = |f: &dyn Fn(&Group) -> Option<f64>| {
            groups.iter().map(f).collect::<Option<Vec<f64>>>().map(median)
        };
        Windowed {
            per_s: median(window_per_s.clone()),
            p50: med(&|g| g.p50),
            p99: med(&|g| g.p99),
            window_per_s,
            groups,
        }
    }

    pub fn samples(&self) -> usize {
        self.groups.iter().map(|g| g.ops).sum()
    }

    pub fn to_json(&self) -> Json {
        let opt = |v: Option<f64>| v.map_or(Json::Null, Json::from);
        Json::obj()
            .set("ok_per_s", Json::Arr(self.window_per_s.iter().map(|&v| Json::from(v)).collect()))
            .set(
                "groups",
                Json::Arr(
                    self.groups
                        .iter()
                        .map(|g| {
                            Json::obj()
                                .set("ops", g.ops as i64)
                                .set("p50_ms", opt(g.p50))
                                .set("p99_ms", opt(g.p99))
                        })
                        .collect(),
                ),
            )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_values() {
        let s = ramp(100);
        assert_eq!(percentile(&s, 0.5), Some(50.0));
        assert_eq!(percentile(&s, 0.9), Some(90.0));
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 999 samples: rank ceil(989.01) = 990, 9 beyond -> withheld.
        assert_eq!(percentile(&ramp(999), 0.99), None);
        // 1000 samples: rank 990, exactly 10 beyond -> reported.
        assert_eq!(percentile(&ramp(1000), 0.99), Some(990.0));
    }

    #[test]
    fn median_needs_twenty_samples() {
        assert_eq!(percentile(&ramp(19), 0.5), None);
        assert_eq!(percentile(&ramp(20), 0.5), Some(10.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn a_slow_window_does_not_move_the_medians() {
        // 2000 fast reads in each of seconds 0, 1, 3 and 4, 1000 slow ones
        // in second 2.
        let mut samples = Vec::new();
        for i in 0..2000u64 {
            let ms = 1.0 + (i % 100) as f64 / 100.0;
            for second in [0, 1, 3, 4] {
                samples.push((Duration::from_micros(second * 1_000_000 + i * 500), ms));
            }
        }
        for i in 0..1000u64 {
            samples.push((Duration::from_micros(2_000_000 + i * 1000), 50.0));
        }
        let w = Windowed::new(samples.into_iter(), Duration::from_secs(5));
        assert_eq!(w.window_per_s, vec![2000.0, 2000.0, 1000.0, 2000.0, 2000.0]);
        assert_eq!(w.per_s, 2000.0);
        assert_eq!(w.groups.iter().map(|g| g.ops).collect::<Vec<_>>(), vec![1800; 5]);
        assert!(w.p50.unwrap() < 2.0 && w.p99.unwrap() < 2.0, "{:?} {:?}", w.p50, w.p99);
        assert_eq!(w.samples(), 9000);
    }

    #[test]
    fn fewer_samples_make_fewer_latency_groups() {
        let samples = (0..2500u64).map(|i| (Duration::from_millis(i), (i % 100) as f64));
        let w = Windowed::new(samples, Duration::from_secs(3));
        assert_eq!(w.groups.len(), 2);
        let few = (0..999u64).map(|i| (Duration::from_millis(i), 1.0));
        assert_eq!(Windowed::new(few, Duration::from_secs(3)).p99, None);
    }

    #[test]
    fn failures_sort_to_the_tail() {
        let mut s = ramp(1000);
        s[3] = f64::INFINITY;
        let s = sorted(s);
        assert!(s.last().unwrap().is_infinite());
        assert!(percentile(&s, 0.5).unwrap().is_finite());
    }
}
