//! The benchmark's own arithmetic: percentiles with their sample counts,
//! ratios with their bases, and the due-time latency of an open-loop
//! request. Kept free of I/O so every formula is unit-tested.

/// A percentile together with the number of samples it was read from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    /// The percentile's value (in the samples' unit).
    pub value: f64,
    /// How many samples the percentile was read from.
    pub n: usize,
}

/// Nearest-rank percentile `p` (0 < p <= 100) of `samples`: the smallest
/// sample with at least `p`% of the samples at or below it. `None` when
/// there are no samples. For fewer than 100 samples `p = 99` is the
/// maximum; the returned count says how far to trust it.
pub fn percentile(samples: &[f64], p: f64) -> Option<Pct> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    let ix = rank.clamp(1, n) - 1;
    Some(Pct {
        value: sorted[ix],
        n,
    })
}

/// Median (the mean of the two middle samples for an even count).
pub fn median(samples: &[f64]) -> Option<Pct> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let value = if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    };
    Some(Pct { value, n })
}

/// A ratio with its numerator and base, so a reader can check it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ratio {
    /// Numerator.
    pub num: f64,
    /// Base (denominator).
    pub base: f64,
}

impl Ratio {
    /// `num / base`, or 0 when the base is 0 (nothing was attempted).
    pub fn value(self) -> f64 {
        if self.base == 0.0 {
            0.0
        } else {
            self.num / self.base
        }
    }
}

/// Latency of one open-loop request in milliseconds, measured from the
/// moment it was *due*, not the moment it was sent: a request that had to
/// wait behind a stall is charged for the wait.
pub fn due_latency_ms(due_s: f64, done_s: f64) -> f64 {
    (done_s - due_s) * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_carry_their_sample_count() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(
            percentile(&xs, 50.0),
            Some(Pct {
                value: 100.0,
                n: 200
            })
        );
        assert_eq!(
            percentile(&xs, 99.0),
            Some(Pct {
                value: 198.0,
                n: 200
            })
        );
        assert_eq!(
            percentile(&xs, 100.0),
            Some(Pct {
                value: 200.0,
                n: 200
            })
        );
        // Order of the input does not matter.
        let rev: Vec<f64> = xs.iter().rev().copied().collect();
        assert_eq!(percentile(&rev, 99.0), percentile(&xs, 99.0));
        // Few samples: p99 is the maximum, and the count says so.
        assert_eq!(
            percentile(&[3.0, 1.0, 2.0], 99.0),
            Some(Pct { value: 3.0, n: 3 })
        );
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[5.0, 1.0, 3.0]).map(|p| p.value), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]).map(|p| p.value), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn ratios_keep_their_base_and_survive_a_zero_base() {
        let r = Ratio {
            num: 3.0,
            base: 4.0,
        };
        assert_eq!(r.value(), 0.75);
        assert_eq!(
            Ratio {
                num: 0.0,
                base: 0.0
            }
            .value(),
            0.0
        );
    }

    #[test]
    fn due_time_latency_counts_the_backlog_behind_a_stall() {
        // Requests due every 10 ms; the server stalls for 100 ms on the
        // first one and then answers the queued ones 1 ms apart. Timing
        // from the send of each request would hide the queue; timing from
        // the due time must not.
        let due: Vec<f64> = (0..10).map(|i| f64::from(i) * 0.010).collect();
        let done: Vec<f64> = (0..10).map(|i| 0.100 + f64::from(i) * 0.001).collect();
        let lat: Vec<f64> = due
            .iter()
            .zip(&done)
            .map(|(&d, &e)| due_latency_ms(d, e))
            .collect();
        assert!((lat[0] - 100.0).abs() < 1e-9);
        // The 10th request was due at 90 ms and answered at 109 ms.
        assert!((lat[9] - 19.0).abs() < 1e-9);
        // Every request waited on the stall; none looks like a 1 ms answer.
        assert!(lat.iter().all(|&l| l >= 19.0 - 1e-9));
        let p50 = percentile(&lat, 50.0).expect("samples");
        assert!(
            p50.value > 50.0,
            "median must reflect the backlog, got {}",
            p50.value
        );
    }
}
