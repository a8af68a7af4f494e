//! Virtual time.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::num::NonZeroU64;
use std::ops::{Add, AddAssign, Sub};
use std::time::Duration;

/// A point in virtual time, in nanoseconds since simulation start.
///
/// `SimTime` is totally ordered and supports arithmetic with
/// [`std::time::Duration`]; sums past [`SimTime::MAX`] saturate (a
/// simulation never runs that long).
///
/// It stores `ns + 1` in a `NonZeroU64`, so `Option<SimTime>` is 8 bytes,
/// like the instant itself: a benchmark that keeps a sample per commit, each
/// with an optional reply instant, pays nothing for the option. Ordering and
/// hashing follow the nanosecond count.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct SimTime(NonZeroU64);

impl SimTime {
    /// The simulation origin.
    pub const ZERO: SimTime = SimTime::from_nanos(0);
    /// The largest representable instant (used as "never").
    pub const MAX: SimTime = SimTime::from_nanos(u64::MAX - 1);

    /// Construct from raw nanoseconds; counts past [`SimTime::MAX`] clamp
    /// to it.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        let stored = if ns >= u64::MAX - 1 { u64::MAX } else { ns + 1 };
        match NonZeroU64::new(stored) {
            Some(v) => SimTime(v),
            None => unreachable!(),
        }
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime::from_nanos(us * 1_000)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime::from_nanos(ms * 1_000_000)
    }

    /// Construct from seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime::from_nanos(s * 1_000_000_000)
    }

    /// Raw nanoseconds since simulation start.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0.get() - 1
    }

    /// Microseconds since start, as a float (for reporting).
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.as_nanos() as f64 / 1_000.0
    }

    /// Seconds since start, as a float (for reporting).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.as_nanos() as f64 / 1_000_000_000.0
    }

    /// Elapsed duration since `earlier`, or zero if `earlier` is later.
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> Duration {
        Duration::from_nanos(self.as_nanos().saturating_sub(earlier.as_nanos()))
    }

    /// The later of two instants.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        Ord::max(self, other)
    }
}

impl Default for SimTime {
    fn default() -> Self {
        SimTime::ZERO
    }
}

/// Hashes the nanosecond count, as the plain `u64` it replaced did, so
/// every hash-ordered map and digest over instants is unchanged.
impl Hash for SimTime {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_nanos().hash(state);
    }
}

#[inline]
fn dur_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

impl Add<Duration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: Duration) -> SimTime {
        SimTime::from_nanos(self.as_nanos().saturating_add(dur_ns(rhs)))
    }
}

impl AddAssign<Duration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Duration;
    /// Panics in debug builds if `rhs` is later than `self`.
    #[inline]
    fn sub(self, rhs: SimTime) -> Duration {
        debug_assert!(self >= rhs, "SimTime subtraction underflow");
        Duration::from_nanos(self.as_nanos().saturating_sub(rhs.as_nanos()))
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_micros_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_micros(1).as_nanos(), 1_000);
        assert_eq!(SimTime::from_millis(1), SimTime::from_micros(1_000));
        assert_eq!(SimTime::from_secs(1), SimTime::from_millis(1_000));
        assert_eq!(SimTime::ZERO.as_nanos(), 0);
    }

    #[test]
    fn add_duration() {
        let t = SimTime::from_micros(5) + Duration::from_nanos(250);
        assert_eq!(t.as_nanos(), 5_250);
    }

    #[test]
    fn add_saturates() {
        let t = SimTime::MAX + Duration::from_secs(10);
        assert_eq!(t, SimTime::MAX);
    }

    #[test]
    fn the_niche_makes_an_optional_instant_free() {
        assert_eq!(std::mem::size_of::<SimTime>(), 8);
        assert_eq!(std::mem::size_of::<Option<SimTime>>(), 8);
        assert_eq!(SimTime::default(), SimTime::ZERO);
        assert_eq!(SimTime::MAX.as_nanos(), u64::MAX - 1);
        assert_eq!(SimTime::from_nanos(u64::MAX), SimTime::MAX);
        assert!(SimTime::from_nanos(u64::MAX - 2) < SimTime::MAX);
    }

    #[test]
    fn hashing_follows_the_nanosecond_count() {
        use std::collections::hash_map::DefaultHasher;
        let digest = |h: &dyn Fn(&mut DefaultHasher)| {
            let mut s = DefaultHasher::new();
            h(&mut s);
            s.finish()
        };
        for ns in [0, 1, 12_345, u64::MAX - 1] {
            assert_eq!(
                digest(&|s| SimTime::from_nanos(ns).hash(s)),
                digest(&|s| ns.hash(s))
            );
        }
    }

    #[test]
    fn subtraction_gives_duration() {
        let a = SimTime::from_micros(10);
        let b = SimTime::from_micros(4);
        assert_eq!(a - b, Duration::from_micros(6));
    }

    #[test]
    fn saturating_since_is_zero_backwards() {
        let a = SimTime::from_micros(10);
        let b = SimTime::from_micros(4);
        assert_eq!(b.saturating_since(a), Duration::ZERO);
        assert_eq!(a.saturating_since(b), Duration::from_micros(6));
    }

    #[test]
    fn float_views() {
        let t = SimTime::from_nanos(1_500);
        assert!((t.as_micros_f64() - 1.5).abs() < 1e-9);
        let t = SimTime::from_millis(2);
        assert!((t.as_secs_f64() - 0.002).abs() < 1e-12);
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_micros(1) < SimTime::from_micros(2));
        assert_eq!(
            SimTime::from_micros(1).max(SimTime::from_micros(2)),
            SimTime::from_micros(2)
        );
    }
}
