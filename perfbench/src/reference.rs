//! Reference computations written apart from the program, for checking its
//! outputs: the normal tail logs, the textbook Anderson–Darling statistic
//! and a plain per-process-iteration idle and laggard loop.

const SQRT_PI_LN: f64 = 0.572_364_942_924_700_1; // ln √π

/// ln erfc(x) for x ≥ 0: the Maclaurin series of erf below 2, the Laplace
/// continued fraction (evaluated with Lentz's method) above.
fn ln_erfc(x: f64) -> f64 {
    debug_assert!(x >= 0.0);
    if x < 2.0 {
        let x2 = x * x;
        let mut term = x;
        let mut sum = x;
        let mut n = 0.0;
        while term.abs() > 1e-18 * sum.abs() {
            n += 1.0;
            term *= -x2 / n;
            sum += term / (2.0 * n + 1.0);
        }
        let erf = sum * 2.0 / std::f64::consts::PI.sqrt();
        return (-erf).ln_1p();
    }
    let tiny = 1e-300;
    let mut f = x;
    let mut c = f;
    let mut d = 0.0;
    for k in 1..10_000 {
        let a = k as f64 / 2.0;
        d = x + a * d;
        if d.abs() < tiny {
            d = tiny;
        }
        c = x + a / c;
        if c.abs() < tiny {
            c = tiny;
        }
        d = 1.0 / d;
        let delta = c * d;
        f *= delta;
        if (delta - 1.0).abs() < 1e-16 {
            break;
        }
    }
    -x * x - SQRT_PI_LN - f.ln()
}

/// ln Φ(z) for the standard normal CDF Φ.
pub fn ln_phi(z: f64) -> f64 {
    let x = z.abs() / std::f64::consts::SQRT_2;
    let ln_half_erfc = ln_erfc(x) - std::f64::consts::LN_2;
    if z < 0.0 {
        ln_half_erfc
    } else {
        (-ln_half_erfc.exp()).ln_1p()
    }
}

/// Stephens-modified Anderson–Darling A*² of `sorted` (ascending), from its
/// textbook definition with the sample mean and (n − 1) standard deviation.
pub fn anderson_darling(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    let nf = n as f64;
    let mean = kahan_sum(sorted) / nf;
    let ssq = kahan_sum(&sorted.iter().map(|x| (x - mean) * (x - mean)).collect::<Vec<_>>());
    let sd = (ssq / (nf - 1.0)).sqrt();
    let z = |i: usize| (sorted[i] - mean) / sd;
    let terms: Vec<f64> = (0..n)
        .map(|i| (2 * i + 1) as f64 * (ln_phi(z(i)) + ln_phi(-z(n - 1 - i))))
        .collect();
    let a2 = -nf - kahan_sum(&terms) / nf;
    a2 * (1.0 + 0.75 / nf + 2.25 / (nf * nf))
}

pub fn kahan_sum(values: &[f64]) -> f64 {
    let mut sum = 0.0;
    let mut c = 0.0;
    for &v in values {
        let y = v - c;
        let t = sum + y;
        c = (t - sum) - y;
        sum = t;
    }
    sum
}

/// One process-iteration's fork/join timing, computed plainly: the idle
/// time (last finisher minus each thread's own finish, summed), the idle
/// ratio, and whether its latest thread lags the median by more than
/// `threshold_ms`.
pub struct UnitTiming {
    pub idle_ms: f64,
    pub idle_ratio: f64,
    pub laggard: bool,
}

pub fn unit_timing(finish_ms: &[f64], threshold_ms: f64) -> UnitTiming {
    let mut sorted = finish_ms.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let last = sorted[n - 1];
    let median = if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    };
    let idle_ms = kahan_sum(&finish_ms.iter().map(|t| last - t).collect::<Vec<_>>());
    UnitTiming {
        idle_ms,
        idle_ratio: if last > 0.0 { idle_ms / (last * n as f64) } else { 0.0 },
        laggard: last - median > threshold_ms,
    }
}

/// `|a − b| ≤ rel · max(|a|, |b|)`, with exact equality always accepted.
pub fn close(a: f64, b: f64, rel: f64) -> bool {
    a == b || (a - b).abs() <= rel * a.abs().max(b.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normal_tail_logs_match_known_values() {
        // Φ(0) = 1/2, Φ(−1.959963984540054) = 0.025, Φ(−8) ≈ 6.22096e-16.
        assert!(close(ln_phi(0.0), 0.5f64.ln(), 1e-15));
        assert!(close(ln_phi(-1.959_963_984_540_054), 0.025f64.ln(), 1e-13));
        assert!(close(ln_phi(-8.0), 6.220_960_574_271_784e-16f64.ln(), 1e-12));
        assert!(close(ln_phi(1.0), 0.841_344_746_068_542_9f64.ln(), 1e-13));
        // Far tail: ln Φ(−40) ≈ −804.608442013754.
        assert!(close(ln_phi(-40.0), -804.608_442_013_754, 1e-12));
    }

    #[test]
    fn plain_unit_timing_matches_hand_values() {
        let u = unit_timing(&[1.0, 2.0, 3.0, 4.0], 1.0);
        assert_eq!(u.idle_ms, 6.0);
        assert_eq!(u.idle_ratio, 0.375);
        assert!(u.laggard); // 4 − 2.5 > 1
    }
}
