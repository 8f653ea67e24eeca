//! Tenant quality-of-service: priority classes, token-bucket admission,
//! and the brownout ladder.
//!
//! Admission is decided per tenant *before* a pair touches the shared
//! work queue, so one hot tenant exhausts its own token bucket instead
//! of the fleet. Brownout converts overload into graduated degradation:
//! as queue occupancy climbs, the server first sheds its own luxuries
//! (audit sampling, hedging), then degrades low-priority tenants to the
//! SIMD software baseline, and only then starts refusing low-priority
//! work — high-priority traffic keeps its full service until the queue
//! is truly saturated.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use super::proto::RejectReason;
use crate::service::ServiceStats;

/// Priority class carried in `HELLO`. Order matters: the work queue
/// serves `High` before `Normal` before `Low`, and brownout degrades in
/// the opposite order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Priority {
    /// Latency-sensitive traffic; degraded last.
    High,
    /// The default class.
    #[default]
    Normal,
    /// Batch/backfill traffic; degraded and refused first.
    Low,
}

impl Priority {
    /// Parses a wire/CLI token.
    #[must_use]
    pub fn parse(s: &str) -> Option<Priority> {
        Some(match s {
            "high" => Priority::High,
            "normal" => Priority::Normal,
            "low" => Priority::Low,
            _ => return None,
        })
    }

    /// Wire/CLI token.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Normal => "normal",
            Priority::Low => "low",
        }
    }

    /// Queue-class index (0 = served first).
    #[must_use]
    pub fn class(self) -> usize {
        self as usize
    }
}

impl std::fmt::Display for Priority {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-tenant token-bucket tuning: a sustained rate plus a burst
/// allowance. The default admits every pair (infinite rate and burst) —
/// admission control is opt-in pressure relief, not a default throttle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantPolicy {
    /// Sustained admission rate, pairs per second.
    pub rate: f64,
    /// Bucket capacity, pairs (burst allowance).
    pub burst: f64,
}

impl Default for TenantPolicy {
    fn default() -> TenantPolicy {
        TenantPolicy { rate: f64::INFINITY, burst: f64::INFINITY }
    }
}

/// The classic token bucket, refilled lazily on each take.
#[derive(Debug)]
pub struct TokenBucket {
    policy: TenantPolicy,
    tokens: f64,
    refilled: Instant,
}

impl TokenBucket {
    /// A full bucket under `policy`.
    #[must_use]
    pub fn new(policy: TenantPolicy) -> TokenBucket {
        TokenBucket { policy, tokens: policy.burst, refilled: Instant::now() }
    }

    /// Takes one token, or reports how long until one accrues — the
    /// typed reject's retry-after hint.
    ///
    /// # Errors
    ///
    /// The `Duration` until the bucket will hold a full token again.
    pub fn try_take(&mut self, now: Instant) -> Result<(), Duration> {
        // An infinite rate admits everything; returning early also keeps
        // the refill below from computing 0 × ∞ = NaN.
        if self.policy.rate == f64::INFINITY {
            return Ok(());
        }
        let dt = now.saturating_duration_since(self.refilled).as_secs_f64();
        self.tokens = (self.tokens + dt * self.policy.rate).min(self.policy.burst);
        self.refilled = now;
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            Ok(())
        } else if self.policy.rate > 0.0 {
            Err(Duration::from_secs_f64((1.0 - self.tokens) / self.policy.rate))
        } else {
            Err(Duration::from_secs(1))
        }
    }
}

/// Per-tenant admission/outcome counters, surfaced in `/stats` and the
/// drain report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantCounters {
    /// Pairs admitted to the work queue.
    pub admitted: u64,
    /// Pairs that aligned.
    pub completed: u64,
    /// Pairs that failed after admission.
    pub failed: u64,
    /// Pairs replayed from the session manifest.
    pub resumed: u64,
    /// Rejections: empty token bucket.
    pub rejected_rate: u64,
    /// Rejections: work queue full.
    pub rejected_queue: u64,
    /// Rejections: brownout refusing low-priority work.
    pub rejected_brownout: u64,
    /// Rejections: server draining.
    pub rejected_draining: u64,
    /// Rejections: per-connection in-flight cap (slow reader).
    pub rejected_overloaded: u64,
    /// Failures caused by an expired deadline.
    pub deadline_exceeded: u64,
    /// Pairs served on the software baseline because of brownout.
    pub degraded_software: u64,
}

impl TenantCounters {
    /// Total typed rejections of every flavor.
    #[must_use]
    pub fn rejected(&self) -> u64 {
        self.rejected_rate
            + self.rejected_queue
            + self.rejected_brownout
            + self.rejected_draining
            + self.rejected_overloaded
    }

    /// Adds the outcomes of acked and replayed pairs, as
    /// [`ServiceStats::record`] booked them into `pairs`.
    pub(crate) fn add(&mut self, pairs: &ServiceStats) {
        self.completed += pairs.completed;
        self.failed += pairs.failed;
        self.resumed += pairs.resumed;
        self.deadline_exceeded += pairs.deadline_exceeded;
        self.degraded_software += pairs.degraded_software;
    }

    /// Books one typed rejection under its flavor.
    pub(crate) fn reject(&mut self, reason: RejectReason) {
        match reason {
            RejectReason::RateLimit => self.rejected_rate += 1,
            RejectReason::QueueFull => self.rejected_queue += 1,
            RejectReason::Brownout => self.rejected_brownout += 1,
            RejectReason::Draining => self.rejected_draining += 1,
            RejectReason::Overloaded => self.rejected_overloaded += 1,
        }
    }
}

impl std::fmt::Display for TenantCounters {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "admitted={} completed={} failed={} resumed={} rejected={} rejected_rate={} \
             rejected_queue={} rejected_brownout={} rejected_draining={} \
             rejected_overloaded={} deadline_exceeded={} degraded_software={}",
            self.admitted,
            self.completed,
            self.failed,
            self.resumed,
            self.rejected(),
            self.rejected_rate,
            self.rejected_queue,
            self.rejected_brownout,
            self.rejected_draining,
            self.rejected_overloaded,
            self.deadline_exceeded,
            self.degraded_software
        )
    }
}

/// One tenant's admission state: bucket, priority (latest HELLO wins),
/// and counters.
#[derive(Debug)]
pub struct TenantState {
    /// Token bucket guarding this tenant's admissions.
    pub bucket: TokenBucket,
    /// Priority class from the most recent HELLO.
    pub priority: Priority,
    /// Admission/outcome counters.
    pub counters: TenantCounters,
}

/// The tenant table: lazily created per-tenant state under one default
/// policy.
#[derive(Debug, Default)]
pub struct TenantTable {
    policy: TenantPolicy,
    tenants: HashMap<String, TenantState>,
}

impl TenantTable {
    /// An empty table handing `policy` to every new tenant.
    #[must_use]
    pub fn new(policy: TenantPolicy) -> TenantTable {
        TenantTable { policy, tenants: HashMap::new() }
    }

    /// The tenant's state, created on first sight.
    pub fn entry(&mut self, tenant: &str, priority: Priority) -> &mut TenantState {
        let state = self.tenants.entry(tenant.to_string()).or_insert_with(|| TenantState {
            bucket: TokenBucket::new(self.policy),
            priority,
            counters: TenantCounters::default(),
        });
        state.priority = priority;
        state
    }

    /// Mutable counters for a known tenant (no-op target for unknown
    /// names, which cannot happen for admitted jobs).
    pub fn counters_mut(&mut self, tenant: &str) -> Option<&mut TenantCounters> {
        self.tenants.get_mut(tenant).map(|t| &mut t.counters)
    }

    /// Tenants in name order, for deterministic reports.
    #[must_use]
    pub fn sorted(&self) -> Vec<(&str, &TenantState)> {
        let mut v: Vec<(&str, &TenantState)> =
            self.tenants.iter().map(|(k, s)| (k.as_str(), s)).collect();
        v.sort_by_key(|(k, _)| *k);
        v
    }
}

/// Brownout thresholds as queue-occupancy fractions. Each level implies
/// the ones before it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BrownoutConfig {
    /// Occupancy at which audit sampling and hedging are shed.
    pub shed_extras_at: f64,
    /// Occupancy at which low-priority pairs run on the software
    /// baseline directly (device capacity reserved for higher classes).
    pub degrade_low_at: f64,
    /// Occupancy at which low-priority admissions are refused outright.
    pub refuse_low_at: f64,
}

impl Default for BrownoutConfig {
    fn default() -> BrownoutConfig {
        BrownoutConfig { shed_extras_at: 0.5, degrade_low_at: 0.75, refuse_low_at: 0.9 }
    }
}

/// The brownout ladder, worst first so `Ord` comparisons read naturally.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum BrownoutLevel {
    /// Full service.
    #[default]
    Normal,
    /// Audit sampling and hedging shed.
    SheddingExtras,
    /// Low-priority pairs degraded to the software baseline.
    DegradingLow,
    /// Low-priority admissions refused.
    RefusingLow,
}

impl BrownoutLevel {
    /// The level implied by `depth / cap` under `cfg`.
    #[must_use]
    pub fn from_occupancy(cfg: &BrownoutConfig, depth: usize, cap: usize) -> BrownoutLevel {
        let occupancy = depth as f64 / cap.max(1) as f64;
        if occupancy >= cfg.refuse_low_at {
            BrownoutLevel::RefusingLow
        } else if occupancy >= cfg.degrade_low_at {
            BrownoutLevel::DegradingLow
        } else if occupancy >= cfg.shed_extras_at {
            BrownoutLevel::SheddingExtras
        } else {
            BrownoutLevel::Normal
        }
    }

    /// Numeric level for counters and `/stats` (0 = full service).
    #[must_use]
    pub fn rank(self) -> usize {
        self as usize
    }
}

impl std::fmt::Display for BrownoutLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BrownoutLevel::Normal => "normal",
            BrownoutLevel::SheddingExtras => "shedding-extras",
            BrownoutLevel::DegradingLow => "degrading-low",
            BrownoutLevel::RefusingLow => "refusing-low",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_parse_and_order() {
        assert_eq!(Priority::parse("high"), Some(Priority::High));
        assert_eq!(Priority::parse("normal"), Some(Priority::Normal));
        assert_eq!(Priority::parse("low"), Some(Priority::Low));
        assert_eq!(Priority::parse("urgent"), None);
        assert!(Priority::High < Priority::Low);
        assert_eq!(Priority::High.class(), 0);
        assert_eq!(Priority::Low.class(), 2);
    }

    #[test]
    fn token_bucket_burst_then_throttle() {
        let mut b = TokenBucket::new(TenantPolicy { rate: 10.0, burst: 3.0 });
        let t0 = Instant::now();
        for _ in 0..3 {
            assert!(b.try_take(t0).is_ok());
        }
        let wait = b.try_take(t0).unwrap_err();
        // One token accrues in 1/rate seconds.
        assert!(wait > Duration::from_millis(50) && wait <= Duration::from_millis(100), "{wait:?}");
        // After enough simulated time, tokens are back (capped at burst).
        assert!(b.try_take(t0 + Duration::from_secs(10)).is_ok());
    }

    #[test]
    fn default_bucket_admits_everything() {
        let mut b = TokenBucket::new(TenantPolicy::default());
        let t0 = Instant::now();
        for _ in 0..1_000_000 {
            assert!(b.try_take(t0).is_ok());
        }
    }

    #[test]
    fn zero_rate_bucket_always_refuses_after_burst() {
        let mut b = TokenBucket::new(TenantPolicy { rate: 0.0, burst: 1.0 });
        let t0 = Instant::now();
        assert!(b.try_take(t0).is_ok());
        assert_eq!(b.try_take(t0 + Duration::from_secs(60)).unwrap_err(), Duration::from_secs(1));
    }

    #[test]
    fn brownout_ladder_from_occupancy() {
        let cfg = BrownoutConfig::default();
        assert_eq!(BrownoutLevel::from_occupancy(&cfg, 0, 100), BrownoutLevel::Normal);
        assert_eq!(BrownoutLevel::from_occupancy(&cfg, 50, 100), BrownoutLevel::SheddingExtras);
        assert_eq!(BrownoutLevel::from_occupancy(&cfg, 75, 100), BrownoutLevel::DegradingLow);
        assert_eq!(BrownoutLevel::from_occupancy(&cfg, 95, 100), BrownoutLevel::RefusingLow);
        // A zero-cap queue is saturated by definition, not a div-by-zero.
        assert_eq!(BrownoutLevel::from_occupancy(&cfg, 1, 0), BrownoutLevel::RefusingLow);
        assert!(BrownoutLevel::Normal < BrownoutLevel::RefusingLow);
    }

    /// SplitMix64 — a tiny seeded generator so the property runs are
    /// deterministic without pulling in a dependency.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn token_bucket_refill_is_monotone_and_never_exceeds_burst() {
        // Property: against a shadow credit model driven by the same
        // monotone sequence of elapsed-time jumps (including zero-length
        // and large ones), the bucket grants exactly when the model has
        // a full token and never holds more than `burst`.
        let mut rng = 42u64;
        for case in 0..64 {
            let rate = [0.0, 0.5, 10.0, 1000.0][(next(&mut rng) % 4) as usize];
            let burst = 1.0 + (next(&mut rng) % 8) as f64;
            let mut bucket = TokenBucket::new(TenantPolicy { rate, burst });
            let t0 = Instant::now();
            let mut now_ms = 0u64;
            let mut credit = burst;
            for step in 0..256 {
                let jump_ms = next(&mut rng) % 50;
                now_ms += jump_ms;
                credit = (credit + jump_ms as f64 / 1000.0 * rate).min(burst);
                match bucket.try_take(t0 + Duration::from_millis(now_ms)) {
                    Ok(()) => {
                        assert!(
                            credit >= 1.0 - 1e-3,
                            "case {case} step {step}: granted with ~{credit} credit"
                        );
                        credit -= 1.0;
                    }
                    Err(hint) => {
                        assert!(
                            credit < 1.0 + 1e-3,
                            "case {case} step {step}: refused with ~{credit} credit"
                        );
                        if rate == 0.0 {
                            assert_eq!(hint, Duration::from_secs(1), "flat hint for a dead rate");
                        } else {
                            // The hint never overshoots the time one full
                            // token takes to accrue from empty.
                            let full = Duration::from_secs_f64(1.0 / rate);
                            assert!(
                                hint <= full + Duration::from_millis(1),
                                "case {case} step {step}: hint {hint:?} > one token at {rate}/s"
                            );
                        }
                    }
                }
                assert!(
                    credit <= burst,
                    "case {case} step {step}: the model itself must respect the cap"
                );
            }
        }
    }

    #[test]
    fn elapsed_time_jump_caps_the_refill_at_burst() {
        for burst in 1..6u32 {
            let mut bucket = TokenBucket::new(TenantPolicy { rate: 5.0, burst: f64::from(burst) });
            let t0 = Instant::now();
            while bucket.try_take(t0).is_ok() {}
            // An hour of simulated idle time refills to exactly `burst`
            // tokens — a jump must never manufacture extra credit.
            let later = t0 + Duration::from_secs(3600);
            let mut grants = 0;
            while bucket.try_take(later).is_ok() {
                grants += 1;
            }
            assert_eq!(grants, burst, "refill after a long jump is capped at the burst");
        }
    }

    #[test]
    fn zero_rate_tenants_never_accrue_whatever_the_jump() {
        let mut bucket = TokenBucket::new(TenantPolicy { rate: 0.0, burst: 2.0 });
        let t0 = Instant::now();
        assert!(bucket.try_take(t0).is_ok());
        assert!(bucket.try_take(t0).is_ok());
        for hours in 1..5u64 {
            let hint = bucket.try_take(t0 + Duration::from_secs(hours * 3600)).unwrap_err();
            assert_eq!(hint, Duration::from_secs(1), "a flat hint, not a division by zero");
        }
    }

    #[test]
    fn concurrent_takes_grant_exactly_the_burst() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::{Arc, Mutex};
        // Eight threads racing one tenant's bucket through the same
        // table lock the server uses: exactly `burst` takes may win,
        // however the lock interleaves them.
        let table = Arc::new(Mutex::new(TenantTable::new(TenantPolicy { rate: 0.0, burst: 32.0 })));
        table.lock().unwrap().entry("hot", Priority::Normal);
        let now = Instant::now();
        let granted = Arc::new(AtomicU64::new(0));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let table = Arc::clone(&table);
                let granted = Arc::clone(&granted);
                std::thread::spawn(move || {
                    for _ in 0..16 {
                        let mut t = table.lock().unwrap();
                        if t.entry("hot", Priority::Normal).bucket.try_take(now).is_ok() {
                            granted.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(granted.load(Ordering::SeqCst), 32, "128 racing takes, exactly 32 grants");
    }

    #[test]
    fn tenant_table_is_lazy_and_sorted() {
        let mut t = TenantTable::new(TenantPolicy::default());
        t.entry("zed", Priority::Low).counters.admitted += 1;
        t.entry("abe", Priority::High).counters.admitted += 2;
        // A later HELLO updates the priority in place.
        t.entry("zed", Priority::Normal);
        let names: Vec<&str> = t.sorted().iter().map(|(n, _)| *n).collect();
        assert_eq!(names, vec!["abe", "zed"]);
        assert_eq!(t.sorted()[1].1.priority, Priority::Normal);
        assert_eq!(t.counters_mut("abe").unwrap().admitted, 2);
        assert!(t.counters_mut("nobody").is_none());
    }
}
