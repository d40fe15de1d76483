//! Windowed aggregation: rolling histograms and windowed rate counters.
//!
//! Cumulative instruments ([`crate::Counter`], [`crate::Histogram`])
//! answer "how much since start"; a live server needs "how much *right
//! now*". Both types here keep a ring of per-epoch buckets (one epoch =
//! one second by default) that lock-free concurrent writers update and a
//! reader merges into a trailing-window snapshot — last-10s req/s, last
//! 60s p99 — without stopping the writers.
//!
//! Rotation is lazy: a writer landing on a slot whose epoch tag is stale
//! claims it with a compare-exchange, zeroes it, and re-tags it; losers
//! spin until the slot is usable. A reader skips slots tagged outside the
//! requested window (or mid-reset), so an idle window yields an empty
//! snapshot whose rate is `0.0` — never NaN.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Slot tag meaning "a writer is zeroing this slot right now".
const RESETTING: u64 = u64::MAX;

/// Trailing windows the registry reports by default (seconds).
pub const DEFAULT_WINDOWS: [u64; 2] = [10, 60];

/// The time source driving epoch rotation: the monotonic clock in
/// production, a manually advanced counter in tests (so rotation
/// behaviour is testable without sleeping).
#[derive(Debug, Clone)]
pub(crate) enum Clock {
    /// Monotonic time since construction.
    Monotonic(Instant),
    /// Manually driven microseconds (see [`ManualClock`]).
    Manual(Arc<AtomicU64>),
}

impl Clock {
    fn micros(&self) -> u64 {
        match self {
            Clock::Monotonic(start) => start.elapsed().as_micros() as u64,
            Clock::Manual(t) => t.load(Ordering::Acquire),
        }
    }
}

/// A hand-driven clock for deterministic window tests.
///
/// ```
/// use cit_telemetry::{ManualClock, RollingHistogram};
/// use std::time::Duration;
///
/// let clock = ManualClock::new();
/// let h = RollingHistogram::with_clock(&[0.1, 1.0], 16, &clock);
/// h.record(0.05);
/// clock.advance(Duration::from_secs(3));
/// h.record(0.5);
/// // Only the second observation is younger than 2 seconds.
/// assert_eq!(h.window(2).count, 1);
/// assert_eq!(h.window(10).count, 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ManualClock {
    micros: Arc<AtomicU64>,
}

impl ManualClock {
    /// A clock starting at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advances the clock.
    pub fn advance(&self, by: Duration) {
        self.micros
            .fetch_add(by.as_micros() as u64, Ordering::AcqRel);
    }

    /// Sets the absolute time.
    pub fn set(&self, at: Duration) {
        self.micros.store(at.as_micros() as u64, Ordering::Release);
    }
}

/// One epoch's worth of histogram state. There is no separate count:
/// a snapshot counts its buckets, so the two can never disagree, however
/// a read interleaves with a writer's adds.
struct Slot {
    /// Epoch index this slot currently holds, or [`RESETTING`].
    tag: AtomicU64,
    buckets: Vec<AtomicU64>,
    sum_bits: AtomicU64,
}

impl Slot {
    fn new(num_buckets: usize) -> Slot {
        Slot {
            tag: AtomicU64::new(0),
            buckets: (0..num_buckets).map(|_| AtomicU64::new(0)).collect(),
            sum_bits: AtomicU64::new(0),
        }
    }

    fn zero(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.sum_bits.store(0, Ordering::Relaxed);
    }

    /// Ensures the slot represents `epoch`, lazily resetting a stale slot.
    /// Returns once the slot is tagged `epoch` (by us or a racing writer).
    fn rotate_to(&self, epoch: u64) {
        loop {
            match self.tag.load(Ordering::Acquire) {
                tag if tag == epoch => return,
                RESETTING => std::hint::spin_loop(),
                stale => {
                    if self
                        .tag
                        .compare_exchange(stale, RESETTING, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        self.zero();
                        self.tag.store(epoch, Ordering::Release);
                        return;
                    }
                }
            }
        }
    }
}

fn cas_add_f64(cell: &AtomicU64, v: f64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let next = (f64::from_bits(cur) + v).to_bits();
        match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => break,
            Err(actual) => cur = actual,
        }
    }
}

/// Quantile by linear interpolation inside the owning bucket — the same
/// estimator [`crate::Histogram::quantile`] uses, shared so windowed and
/// cumulative snapshots agree exactly on identical bucket contents.
pub(crate) fn bucket_quantile(bounds: &[f64], buckets: &[u64], total: u64, q: f64) -> f64 {
    if total == 0 || bounds.is_empty() {
        return 0.0;
    }
    let q = q.clamp(0.0, 1.0);
    let rank = q * total as f64;
    let mut cum = 0u64;
    for (i, &c) in buckets.iter().enumerate() {
        if c == 0 {
            continue;
        }
        let prev = cum;
        cum += c;
        if (cum as f64) >= rank {
            if i == bounds.len() {
                return bounds[bounds.len() - 1];
            }
            let lo = if i == 0 { 0.0 } else { bounds[i - 1] };
            let hi = bounds[i];
            let within = ((rank - prev as f64) / c as f64).clamp(0.0, 1.0);
            return lo + within * (hi - lo);
        }
    }
    bounds[bounds.len() - 1]
}

/// Seconds a trailing window of `span` epochs covers at `now_micros`:
/// from the later of the window's start and the clock origin, up to now.
/// The effective window never exceeds the time the clock has run, so a
/// level younger than one epoch divides by its own age — 300 events at
/// 0.25 s read 1,200/s, not 300/s — and early rates are not diluted by
/// time that has not elapsed yet.
fn covered_s(now_micros: u64, span: u64, epoch_micros: u64) -> f64 {
    now_micros.min(span.saturating_mul(epoch_micros)) as f64 / 1e6
}

/// Shared state of a [`RollingHistogram`].
pub(crate) struct RollingCore {
    bounds: Vec<f64>,
    clock: Clock,
    epoch_micros: u64,
    slots: Vec<Slot>,
    /// Cumulative-since-start totals alongside the ring, so one
    /// instrument serves both "all time" and "right now" queries.
    total_buckets: Vec<AtomicU64>,
    total_sum_bits: AtomicU64,
}

impl RollingCore {
    pub(crate) fn new(bounds: Vec<f64>, slots: usize, epoch_micros: u64, clock: Clock) -> Self {
        assert!(
            !bounds.is_empty(),
            "rolling histogram needs at least one bucket bound"
        );
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "rolling histogram bounds must be strictly increasing"
        );
        assert!(slots >= 2, "rolling histogram needs at least two epochs");
        let num_buckets = bounds.len() + 1;
        RollingCore {
            bounds,
            clock,
            epoch_micros: epoch_micros.max(1),
            slots: (0..slots).map(|_| Slot::new(num_buckets)).collect(),
            total_buckets: (0..num_buckets).map(|_| AtomicU64::new(0)).collect(),
            total_sum_bits: AtomicU64::new(0),
        }
    }

    fn current_epoch(&self) -> u64 {
        self.clock.micros() / self.epoch_micros
    }

    fn record(&self, v: f64) {
        let idx = self.bounds.partition_point(|&b| b < v);
        let epoch = self.current_epoch();
        let slot = &self.slots[(epoch % self.slots.len() as u64) as usize];
        slot.rotate_to(epoch);
        slot.buckets[idx].fetch_add(1, Ordering::Relaxed);
        cas_add_f64(&slot.sum_bits, v);
        self.total_buckets[idx].fetch_add(1, Ordering::Relaxed);
        cas_add_f64(&self.total_sum_bits, v);
    }

    /// Merges every slot whose epoch lies within the trailing window
    /// (including the in-progress epoch).
    fn window(&self, secs: u64) -> WindowSnapshot {
        let now_micros = self.clock.micros();
        let cur = now_micros / self.epoch_micros;
        // The ring spans slots-1 trustworthy epochs beyond the current one.
        let span = ((secs.max(1)).saturating_mul(1_000_000) / self.epoch_micros)
            .clamp(1, self.slots.len() as u64);
        let mut buckets = vec![0u64; self.bounds.len() + 1];
        let mut sum = 0.0f64;
        for slot in &self.slots {
            let tag = slot.tag.load(Ordering::Acquire);
            if tag == RESETTING || tag > cur || cur - tag >= span {
                continue;
            }
            // A slot can be claimed for reset between the tag read and the
            // bucket reads; the worst case is a partially-zeroed epoch in a
            // diagnostic snapshot, which windowed telemetry tolerates.
            for (acc, b) in buckets.iter_mut().zip(&slot.buckets) {
                *acc += b.load(Ordering::Relaxed);
            }
            sum += f64::from_bits(slot.sum_bits.load(Ordering::Relaxed));
        }
        WindowSnapshot {
            window_s: covered_s(now_micros, span, self.epoch_micros),
            count: buckets.iter().sum(),
            sum,
            bounds: self.bounds.clone(),
            buckets,
        }
    }

    fn cumulative(&self) -> WindowSnapshot {
        let elapsed_s = (self.clock.micros() as f64 / 1e6).max(self.epoch_micros as f64 / 1e6);
        let buckets: Vec<u64> = self
            .total_buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        WindowSnapshot {
            window_s: elapsed_s,
            count: buckets.iter().sum(),
            sum: f64::from_bits(self.total_sum_bits.load(Ordering::Relaxed)),
            bounds: self.bounds.clone(),
            buckets,
        }
    }

    fn total_count(&self) -> u64 {
        self.total_buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .sum()
    }
}

/// An immutable merged view of a trailing window (or the cumulative
/// run): bucket counts plus derived quantiles, mean and rate.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSnapshot {
    /// Effective window length in seconds (capped at process uptime).
    pub window_s: f64,
    /// Observations inside the window.
    pub count: u64,
    /// Sum of observations inside the window.
    pub sum: f64,
    /// Bucket upper bounds (the overflow bucket follows the last bound).
    pub bounds: Vec<f64>,
    /// Per-bucket counts, including the trailing overflow bucket.
    pub buckets: Vec<u64>,
}

impl WindowSnapshot {
    /// Quantile estimate over the window (0 when empty).
    pub fn quantile(&self, q: f64) -> f64 {
        bucket_quantile(&self.bounds, &self.buckets, self.count, q)
    }

    /// Mean of the window's observations (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Observations per second over the window. An empty window yields
    /// `0.0`, never NaN — empty snapshots must not poison derived rates.
    pub fn rate(&self) -> f64 {
        if self.count == 0 || self.window_s <= 0.0 {
            0.0
        } else {
            self.count as f64 / self.window_s
        }
    }
}

/// A histogram whose observations age out of trailing-window snapshots.
///
/// A ring of per-second epoch buckets (one minute deep by default) is
/// updated lock-free by any number of writers; [`RollingHistogram::window`]
/// merges the trailing `secs` seconds into a [`WindowSnapshot`] answering
/// "what is p99 *right now*", while [`RollingHistogram::cumulative`] keeps
/// the whole-run view.
///
/// ```
/// use cit_telemetry::Telemetry;
///
/// let (telemetry, _sink) = Telemetry::memory();
/// let latency = telemetry.rolling_histogram("req.latency_s", &[0.001, 0.01, 0.1]);
/// for _ in 0..50 {
///     latency.record(0.004);
/// }
/// let last10 = latency.window(10);
/// assert_eq!(last10.count, 50);
/// assert!(last10.rate() > 0.0);
/// assert!(last10.quantile(0.99) <= 0.01 + 1e-12);
/// // The cumulative view agrees while nothing has aged out.
/// assert_eq!(latency.cumulative().count, 50);
/// ```
#[derive(Clone, Default)]
pub struct RollingHistogram(pub(crate) Option<Arc<RollingCore>>);

impl std::fmt::Debug for RollingHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RollingHistogram")
            .field("enabled", &self.0.is_some())
            .finish()
    }
}

impl RollingHistogram {
    /// A standalone rolling histogram with 1-second epochs and a
    /// 64-epoch ring (trailing windows up to ~60 s).
    pub fn new(bounds: &[f64]) -> RollingHistogram {
        RollingHistogram(Some(Arc::new(RollingCore::new(
            bounds.to_vec(),
            64,
            1_000_000,
            Clock::Monotonic(Instant::now()),
        ))))
    }

    /// A rolling histogram driven by a [`ManualClock`] (tests): `slots`
    /// one-second epochs.
    pub fn with_clock(bounds: &[f64], slots: usize, clock: &ManualClock) -> RollingHistogram {
        RollingHistogram(Some(Arc::new(RollingCore::new(
            bounds.to_vec(),
            slots,
            1_000_000,
            Clock::Manual(clock.micros.clone()),
        ))))
    }

    /// Records one observation into the current epoch (and the
    /// cumulative totals). No-op on a disabled handle.
    pub fn record(&self, v: f64) {
        if let Some(c) = &self.0 {
            c.record(v);
        }
    }

    /// A merged snapshot of the trailing `secs` seconds (clamped to the
    /// ring depth). Disabled handles return an empty snapshot.
    pub fn window(&self, secs: u64) -> WindowSnapshot {
        match &self.0 {
            Some(c) => c.window(secs),
            None => WindowSnapshot {
                window_s: 0.0,
                count: 0,
                sum: 0.0,
                bounds: Vec::new(),
                buckets: Vec::new(),
            },
        }
    }

    /// The cumulative-since-start snapshot.
    pub fn cumulative(&self) -> WindowSnapshot {
        match &self.0 {
            Some(c) => c.cumulative(),
            None => WindowSnapshot {
                window_s: 0.0,
                count: 0,
                sum: 0.0,
                bounds: Vec::new(),
                buckets: Vec::new(),
            },
        }
    }

    /// Total observations since start (0 when disabled).
    pub fn count(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.total_count())
    }
}

/// One epoch's worth of counter state.
struct CounterSlot {
    tag: AtomicU64,
    value: AtomicU64,
}

/// Shared state of a [`WindowedCounter`].
pub(crate) struct WindowedCounterCore {
    clock: Clock,
    epoch_micros: u64,
    slots: Vec<CounterSlot>,
    total: AtomicU64,
}

impl WindowedCounterCore {
    pub(crate) fn new(slots: usize, epoch_micros: u64, clock: Clock) -> Self {
        WindowedCounterCore {
            clock,
            epoch_micros: epoch_micros.max(1),
            slots: (0..slots.max(2))
                .map(|_| CounterSlot {
                    tag: AtomicU64::new(0),
                    value: AtomicU64::new(0),
                })
                .collect(),
            total: AtomicU64::new(0),
        }
    }

    fn add(&self, n: u64) {
        let epoch = self.clock.micros() / self.epoch_micros;
        let slot = &self.slots[(epoch % self.slots.len() as u64) as usize];
        loop {
            match slot.tag.load(Ordering::Acquire) {
                tag if tag == epoch => break,
                RESETTING => std::hint::spin_loop(),
                stale => {
                    if slot
                        .tag
                        .compare_exchange(stale, RESETTING, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        slot.value.store(0, Ordering::Relaxed);
                        slot.tag.store(epoch, Ordering::Release);
                        break;
                    }
                }
            }
        }
        slot.value.fetch_add(n, Ordering::Relaxed);
        self.total.fetch_add(n, Ordering::Relaxed);
    }

    fn window_count(&self, secs: u64) -> (u64, f64) {
        let now_micros = self.clock.micros();
        let cur = now_micros / self.epoch_micros;
        let span = ((secs.max(1)).saturating_mul(1_000_000) / self.epoch_micros)
            .clamp(1, self.slots.len() as u64);
        let mut count = 0u64;
        for slot in &self.slots {
            let tag = slot.tag.load(Ordering::Acquire);
            if tag == RESETTING || tag > cur || cur - tag >= span {
                continue;
            }
            count += slot.value.load(Ordering::Relaxed);
        }
        (count, covered_s(now_micros, span, self.epoch_micros))
    }
}

/// A counter that also answers "events per second over the last N
/// seconds" — the instrument behind live req/s and updates/s gauges.
///
/// ```
/// use cit_telemetry::Telemetry;
///
/// let (telemetry, _sink) = Telemetry::memory();
/// let requests = telemetry.windowed_counter("req.count");
/// for _ in 0..30 {
///     requests.inc();
/// }
/// assert_eq!(requests.total(), 30);
/// assert!(requests.rate(10) > 0.0);
/// assert_eq!(requests.window_count(10), 30);
/// ```
#[derive(Clone, Default)]
pub struct WindowedCounter(pub(crate) Option<Arc<WindowedCounterCore>>);

impl std::fmt::Debug for WindowedCounter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WindowedCounter")
            .field("enabled", &self.0.is_some())
            .finish()
    }
}

impl WindowedCounter {
    /// A standalone windowed counter with 1-second epochs and a 64-epoch
    /// ring.
    pub fn new() -> WindowedCounter {
        WindowedCounter(Some(Arc::new(WindowedCounterCore::new(
            64,
            1_000_000,
            Clock::Monotonic(Instant::now()),
        ))))
    }

    /// A windowed counter driven by a [`ManualClock`] (tests).
    pub fn with_clock(slots: usize, clock: &ManualClock) -> WindowedCounter {
        WindowedCounter(Some(Arc::new(WindowedCounterCore::new(
            slots,
            1_000_000,
            Clock::Manual(clock.micros.clone()),
        ))))
    }

    /// Adds one event.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n` events.
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.add(n);
        }
    }

    /// Events since start (0 when disabled).
    pub fn total(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |c| c.total.load(Ordering::Relaxed))
    }

    /// Events inside the trailing `secs` seconds.
    pub fn window_count(&self, secs: u64) -> u64 {
        self.0.as_ref().map_or(0, |c| c.window_count(secs).0)
    }

    /// Events per second over the trailing `secs` seconds (`0.0` when
    /// idle or disabled — an empty window never yields NaN).
    pub fn rate(&self, secs: u64) -> f64 {
        let Some(c) = &self.0 else { return 0.0 };
        let (count, window_s) = c.window_count(secs);
        if count == 0 || window_s <= 0.0 {
            0.0
        } else {
            count as f64 / window_s
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observations_age_out_of_the_window() {
        let clock = ManualClock::new();
        let h = RollingHistogram::with_clock(&[1.0, 10.0], 8, &clock);
        h.record(0.5);
        h.record(5.0);
        clock.advance(Duration::from_secs(3));
        h.record(0.5);
        assert_eq!(h.window(2).count, 1);
        assert_eq!(h.window(6).count, 3);
        assert_eq!(h.cumulative().count, 3);
        // Ring reuse: past the ring depth the old epochs are overwritten.
        clock.advance(Duration::from_secs(20));
        h.record(0.5);
        assert_eq!(h.window(6).count, 1);
        assert_eq!(h.cumulative().count, 4);
    }

    #[test]
    fn empty_window_rate_is_zero_not_nan() {
        let clock = ManualClock::new();
        let h = RollingHistogram::with_clock(&[1.0], 8, &clock);
        let w = h.window(10);
        assert_eq!(w.count, 0);
        assert_eq!(w.rate(), 0.0);
        assert_eq!(w.quantile(0.99), 0.0);
        assert_eq!(w.mean(), 0.0);
        assert!(w.rate().is_finite());
        let c = WindowedCounter::with_clock(8, &clock);
        assert_eq!(c.rate(10), 0.0);
    }

    #[test]
    fn early_rates_use_elapsed_time_not_the_full_window() {
        let clock = ManualClock::new();
        let c = WindowedCounter::with_clock(64, &clock);
        clock.advance(Duration::from_secs(2));
        c.add(100);
        // 100 events in 2 s of uptime must not read as 100/60.
        let r = c.rate(60);
        assert!((r - 50.0).abs() < 1e-9, "rate {r}");
    }

    #[test]
    fn sub_epoch_rates_divide_by_the_time_covered() {
        let clock = ManualClock::new();
        let c = WindowedCounter::with_clock(16, &clock);
        let h = RollingHistogram::with_clock(&[1.0], 16, &clock);
        clock.set(Duration::from_millis(250));
        c.add(300);
        for _ in 0..300 {
            h.record(0.5);
        }
        // 300 events in the first quarter second are 1,200/s, in the
        // 10-s and the 60-s window alike: only 0.25 s has been covered.
        for secs in [10, 60] {
            assert_eq!(c.window_count(secs), 300);
            assert!((c.rate(secs) - 1200.0).abs() < 1e-9, "{}", c.rate(secs));
            let w = h.window(secs);
            assert_eq!(w.window_s, 0.25);
            assert!((w.rate() - 1200.0).abs() < 1e-9, "{}", w.rate());
        }
    }

    #[test]
    fn windowed_counter_rates() {
        let clock = ManualClock::new();
        let c = WindowedCounter::with_clock(16, &clock);
        for _ in 0..10 {
            c.inc();
            clock.advance(Duration::from_secs(1));
        }
        // Events landed in epochs 0..=9; the clock now reads 10 s, so the
        // epoch-0 event is exactly 10 s old and has aged out of the
        // trailing 10-s window (which spans epochs 1..=10).
        assert_eq!(c.total(), 10);
        assert_eq!(c.window_count(10), 9);
        assert!((c.rate(10) - 0.9).abs() < 1e-9);
        clock.advance(Duration::from_secs(5));
        assert_eq!(c.window_count(5), 0);
        assert_eq!(c.rate(5), 0.0);
    }

    /// A reader can land between a writer's bucket add and its sum add.
    /// Bumping a bucket alone freezes a writer there: each snapshot's
    /// count must still equal its bucket sum.
    #[test]
    fn snapshot_between_a_writers_adds_counts_its_buckets() {
        let clock = ManualClock::new();
        let h = RollingHistogram::with_clock(&[1.0, 10.0], 4, &clock);
        h.record(0.5);
        clock.advance(Duration::from_secs(1));
        h.record(5.0);
        let core = h.0.as_ref().expect("enabled");
        let epoch = core.current_epoch();
        let slot = &core.slots[(epoch % core.slots.len() as u64) as usize];
        slot.buckets[2].fetch_add(1, Ordering::Relaxed);
        core.total_buckets[2].fetch_add(1, Ordering::Relaxed);
        for snap in [h.window(10), h.cumulative()] {
            assert_eq!(snap.count, 3);
            assert_eq!(snap.count, snap.buckets.iter().sum::<u64>());
        }
        assert_eq!(h.count(), 3);
    }

    #[test]
    fn disabled_handles_are_inert() {
        let h = RollingHistogram::default();
        h.record(1.0);
        assert_eq!(h.count(), 0);
        assert_eq!(h.window(10).count, 0);
        assert_eq!(h.window(10).rate(), 0.0);
        let c = WindowedCounter::default();
        c.inc();
        assert_eq!(c.total(), 0);
        assert_eq!(c.rate(10), 0.0);
    }
}
