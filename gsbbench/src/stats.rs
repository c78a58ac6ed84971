//! Summary statistics used by every workload: order statistics with the
//! "ten samples beyond" rule for tail percentiles, and the geometric
//! mean.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// The tail percentile every workload reports. Not the 99th: on a
/// shared two-core VM, host-side stalls of 0.3–10 ms hit 0.2 % of
/// round trips in some runs and over 1 % in others, so a warm-hit p99
/// moved between 100 and 770 µs on identical code, while the 90th
/// percentile stays put.
pub const TAIL: f64 = 0.9;

/// Samples needed before the `q` quantile counts as a tail figure: at
/// least [`MIN_BEYOND`] samples must lie beyond it.
#[must_use]
pub fn samples_needed(q: f64) -> usize {
    assert!((0.0..1.0).contains(&q), "quantile must lie in [0, 1)");
    // The epsilon keeps 10 / (1 − 0.9) = 100.000…01 from rounding up.
    (MIN_BEYOND as f64 / (1.0 - q) - 1e-9).ceil() as usize
}

/// The `q` quantile of `samples` (nearest rank on the sorted samples).
/// Returns `None` when fewer than [`samples_needed`]`(q)` samples exist
/// for a tail quantile (`q > 0.5`), so a tail is never read off a
/// handful of points.
#[must_use]
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() || (q > 0.5 && samples.len() < samples_needed(q)) {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// The median (nearest rank, lower middle for even counts).
#[must_use]
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// Geometric mean of strictly positive samples; `None` when empty or
/// when any sample is not positive.
#[must_use]
pub fn geomean(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() || samples.iter().any(|&x| x <= 0.0 || !x.is_finite()) {
        return None;
    }
    let log_sum: f64 = samples.iter().map(|x| x.ln()).sum();
    Some((log_sum / samples.len() as f64).exp())
}

/// Consecutive percentile samples per window: about 10 ms of warm
/// round trips, with 16 samples beyond the p90.
pub const TAIL_WINDOW: usize = 160;

/// A serve run's end-to-end timing figures, each the median over the
/// run's windows, so a burst of outside load that spoils a few windows
/// does not move them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Windowed {
    /// Operations per second of busy time.
    pub ops_per_s: f64,
    /// Median latency of the percentile samples, µs.
    pub p50_us: f64,
    /// [`TAIL`] percentile of the percentile samples, µs.
    pub p90_us: f64,
    /// Geometric mean latency of all operations, µs.
    pub geomean_us: f64,
}

/// [`Windowed`] figures over `windows`, each given as (every latency of
/// the window, the latencies percentiles are read from), in µs.
/// Throughput and geomean are read per window; the percentiles per run
/// of [`TAIL_WINDOW`] consecutive percentile samples within a window
/// (a shorter remainder is left out). `None` when a window is empty or
/// no window holds [`TAIL_WINDOW`] percentile samples.
#[must_use]
pub fn windowed(windows: &[(Vec<f64>, Vec<f64>)]) -> Option<Windowed> {
    let mut ops = Vec::new();
    let mut p50 = Vec::new();
    let mut tail = Vec::new();
    let mut geo = Vec::new();
    for (all, picked) in windows {
        ops.push(all.len() as f64 / (all.iter().sum::<f64>() * 1e-6));
        geo.push(geomean(all)?);
        for chunk in picked.chunks_exact(TAIL_WINDOW) {
            p50.push(median(chunk)?);
            tail.push(quantile(chunk, TAIL)?);
        }
    }
    Some(Windowed {
        ops_per_s: median(&ops)?,
        p50_us: median(&p50)?,
        p90_us: median(&tail)?,
        geomean_us: median(&geo)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentiles_need_ten_samples_beyond() {
        assert_eq!(samples_needed(0.99), 1000);
        assert_eq!(samples_needed(TAIL), 100);
        assert_eq!(samples_needed(0.9), 100);
        let few: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(quantile(&few, 0.99), None);
        let enough: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = quantile(&enough, 0.99).unwrap();
        assert_eq!(p99, 990.0);
        let beyond = enough.iter().filter(|&&x| x > p99).count();
        assert!(beyond >= MIN_BEYOND, "{beyond} samples beyond the p99");
    }

    #[test]
    fn the_median_needs_no_tail() {
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn windowed_figures_ignore_one_spoiled_window() {
        let steady: Vec<f64> = vec![100.0; TAIL_WINDOW];
        let spoiled: Vec<f64> = vec![1000.0; TAIL_WINDOW];
        let windows = vec![
            (steady.clone(), steady.clone()),
            (spoiled.clone(), spoiled),
            (steady.clone(), steady),
        ];
        let w = windowed(&windows).unwrap();
        assert_eq!(w.p50_us, 100.0);
        assert_eq!(w.p90_us, 100.0);
        assert!((w.ops_per_s - 10_000.0).abs() < 1e-6);
        assert!((w.geomean_us - 100.0).abs() < 1e-9);
        let small = vec![(vec![1.0; 10], vec![1.0; 10])];
        assert_eq!(windowed(&small), None);
    }

    #[test]
    fn geomean_weighs_small_and_large_alike() {
        let g = geomean(&[1.0, 100.0]).unwrap();
        assert!((g - 10.0).abs() < 1e-9);
        let g = geomean(&[2.0, 2.0, 2.0]).unwrap();
        assert!((g - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
    }
}
