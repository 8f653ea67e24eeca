//! Small numeric helpers: percentiles, a seeded generator for arrival
//! schedules, and the process's peak resident memory.

/// The `p`-quantile (`0.0..=1.0`) of `values` by nearest rank; 0 for an
/// empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// The median over windows of each window's `p`-quantile, for samples
/// tagged `(window, value)`. A burst of host interference then moves a
/// few windows, not the figure.
pub fn windowed(samples: &[(usize, f64)], p: f64) -> f64 {
    let windows = samples.iter().map(|&(w, _)| w + 1).max().unwrap_or(0);
    let mut per = vec![Vec::new(); windows];
    for &(w, v) in samples {
        per[w].push(v);
    }
    median(&per.iter().filter(|v| !v.is_empty()).map(|v| percentile(v, p)).collect::<Vec<_>>())
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// SplitMix64: a tiny seeded generator, enough for Poisson inter-arrival
/// draws (the datasets come from `smx::datagen` with the same seed).
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed ^ 0x5EED_BE7C_4A11_0001)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64
    }

    /// Exponential inter-arrival gap in seconds at `rate` events/s.
    pub fn exp_gap(&mut self, rate: f64) -> f64 {
        -self.unit().ln() / rate
    }
}

/// Peak resident set size (`VmHWM`) of this process in MB, 0 when
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One reading of the host's CPU tick counters (`/proc/stat`, all
/// CPUs) and of this process's CPU time (`/proc/self/stat`, all threads,
/// exited ones included). Zeros where `/proc` is unavailable.
#[derive(Clone, Copy, Default)]
pub struct Sample {
    /// Ticks the hypervisor ran other guests on our virtual CPUs.
    steal: u64,
    /// All ticks.
    total: u64,
    /// User + system seconds of this process; the kernel charges stolen
    /// ticks to steal, not to the process.
    cpu: f64,
}

/// What happened between two [`Sample`]s.
#[derive(Clone, Copy, Default)]
pub struct Interval {
    /// Share of all host CPU time the hypervisor stole.
    pub steal: f64,
    /// CPU seconds this process ran.
    pub cpu_s: f64,
}

fn ticks(text: &str, skip: usize, take: usize) -> Vec<u64> {
    text.split_whitespace().skip(skip).take(take).filter_map(|f| f.parse().ok()).collect()
}

impl Sample {
    pub fn now() -> Sample {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let host = ticks(stat.lines().next().unwrap_or_default(), 1, 8);
        let own = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
        // After the parenthesised command name: utime and stime are the
        // 12th and 13th fields, in clock ticks of 10 ms.
        let own = ticks(own.rsplit_once(')').map_or("", |(_, rest)| rest), 11, 2);
        Sample {
            steal: host.get(7).copied().unwrap_or(0),
            total: host.iter().sum(),
            cpu: own.iter().sum::<u64>() as f64 / 100.0,
        }
    }

    pub fn since(&self, earlier: &Sample) -> Interval {
        let total = self.total.saturating_sub(earlier.total);
        let stolen = self.steal.saturating_sub(earlier.steal);
        Interval {
            steal: if total == 0 { 0.0 } else { stolen as f64 / total as f64 },
            cpu_s: self.cpu - earlier.cpu,
        }
    }
}

/// Steal share up to which a measurement unit counts as undisturbed.
const QUIET_STEAL: f64 = 0.02;

/// Which measurement units (rounds, buckets, windows) the wall-clock
/// figures keep, given each one's steal share: every unit at most
/// `QUIET_STEAL` or at most the median share, so a quiet host keeps
/// (nearly) all of them and a busy one its least-disturbed half.
pub fn quiet(steal: &[f64]) -> Vec<bool> {
    let cut = median(steal).max(QUIET_STEAL);
    steal.iter().map(|&s| s <= cut).collect()
}

/// [`Sample`]s taken at the start of each fixed-length unit (bucket or
/// window) of a measured phase.
pub struct Marks {
    unit_s: f64,
    marks: Vec<Sample>,
}

impl Marks {
    pub fn new(unit_s: f64) -> Marks {
        Marks { unit_s, marks: vec![Sample::now()] }
    }

    /// Samples once on entering each new unit; `elapsed` is the phase's
    /// clock in seconds.
    pub fn tick(&mut self, elapsed: f64) {
        let unit = (elapsed / self.unit_s) as usize;
        while self.marks.len() <= unit {
            self.marks.push(Sample::now());
        }
    }

    /// Each of the first `units` units; the last one closes now.
    pub fn intervals(mut self, units: usize) -> Vec<Interval> {
        while self.marks.len() <= units {
            self.marks.push(Sample::now());
        }
        self.marks.windows(2).take(units).map(|w| w[1].since(&w[0])).collect()
    }
}
