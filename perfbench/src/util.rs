//! Measurement helpers shared by every workload: the clock, order
//! statistics, peak memory, a seeded generator and the metric sink.

use std::time::Instant;

/// One measured metric: name, value and unit, in the order measured.
pub type Metric = (String, f64, &'static str);

/// What a workload hands back to `main`: operations attempted and failed,
/// whether every correctness check held, and the metrics it measured.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// Collects metrics and the first failed check of a run.
#[derive(Default)]
pub struct Sink {
    pub metrics: Vec<Metric>,
    pub failures: Vec<String>,
}

impl Sink {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Records a failed correctness check; the run reports `correct: false`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("perfbench: check failed: {msg}");
            self.failures.push(msg);
        }
    }
}

/// Milliseconds elapsed since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The cost of one clock read, measured before any timing: the median gap
/// between back-to-back `Instant::now()` calls over many pairs (ns).
pub fn timer_overhead_ns() -> f64 {
    let mut gaps: Vec<f64> = (0..20_000)
        .map(|_| {
            let a = Instant::now();
            let b = Instant::now();
            b.duration_since(a).as_nanos() as f64
        })
        .collect();
    median(&mut gaps)
}

/// Host-speed probe: the median time of a fixed integer loop (ms) over five
/// repetitions. It does not touch the program, so when it moves between
/// two sets of runs the host's speed moved, not the program's.
pub fn host_probe_ms() -> f64 {
    let mut times: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let mut rng = Rng::new(1);
            let mut acc = 0u64;
            for _ in 0..4_000_000 {
                acc = acc.wrapping_add(rng.next_u64() >> 7);
            }
            std::hint::black_box(acc);
            ms_since(t)
        })
        .collect();
    median(&mut times)
}

/// Linear-interpolated quantile `q ∈ [0, 1]` of `values` (sorted in place).
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    values.sort_by(f64::total_cmp);
    let h = (values.len() - 1) as f64 * q;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    values[lo] + (h - lo as f64) * (values[hi] - values[lo])
}

pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// Peak resident set size of this process (MB), from `VmHWM`.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// SplitMix64: the benchmark's own seeded generator, so inputs depend on
/// `--seed` alone.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5eed_0bad_cafe_f00d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform index in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Word-wise FNV-style digest, fed field by field, for comparing whole pass
/// outputs without keeping them.
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Mixes one whole word (FNV-1a over 64-bit words rather than bytes:
    /// passes hash millions of fields).
    pub fn u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x0100_0000_01b3);
        self.0 ^= self.0 >> 29;
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}
