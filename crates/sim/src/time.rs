//! Clock domains and cycle arithmetic.
//!
//! Every timing quantity in the workspace is expressed in **CPU cycles**
//! of the host processor clock (2.0 GHz in the paper's Table I). Slower
//! domains — DRAM at 166 MHz, the HMC logic layer at 1 GHz — convert
//! their native cycle counts through a [`ClockDomain`].

/// A point in time or a duration, measured in CPU cycles.
pub type Cycle = u64;

/// A clock frequency in megahertz.
///
/// Newtype so that frequencies cannot be confused with cycle counts.
///
/// # Example
///
/// ```
/// use hipe_sim::Freq;
/// let dram = Freq::mhz(166);
/// assert_eq!(dram.as_mhz(), 166);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Freq(u64);

impl Freq {
    /// Creates a frequency from a megahertz value.
    ///
    /// # Panics
    ///
    /// Panics if `mhz` is zero.
    pub fn mhz(mhz: u64) -> Self {
        assert!(mhz > 0, "frequency must be non-zero");
        Freq(mhz)
    }

    /// Creates a frequency from a gigahertz value.
    pub fn ghz(ghz: u64) -> Self {
        Freq::mhz(ghz * 1000)
    }

    /// Returns the frequency in megahertz.
    pub fn as_mhz(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for Freq {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.0.is_multiple_of(1000) {
            write!(f, "{} GHz", self.0 / 1000)
        } else {
            write!(f, "{} MHz", self.0)
        }
    }
}

/// Converts native cycles of a slower (or faster) clock into CPU cycles.
///
/// The conversion rounds up: a request that needs 9 DRAM cycles at
/// 166 MHz occupies at least `ceil(9 * 2000 / 166)` CPU cycles at 2 GHz.
///
/// # Example
///
/// ```
/// use hipe_sim::{ClockDomain, Freq};
/// let dram = ClockDomain::new(Freq::mhz(166), Freq::mhz(2000));
/// // One DRAM cycle is a little over 12 CPU cycles.
/// assert_eq!(dram.to_cpu(1), 13);
/// assert_eq!(dram.to_cpu(9), 109);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClockDomain {
    native: Freq,
    cpu: Freq,
}

impl ClockDomain {
    /// Creates a conversion between `native` and the `cpu` reference clock.
    pub fn new(native: Freq, cpu: Freq) -> Self {
        ClockDomain { native, cpu }
    }

    /// Returns the native frequency of this domain.
    pub fn native(&self) -> Freq {
        self.native
    }

    /// Returns the reference CPU frequency.
    pub fn cpu(&self) -> Freq {
        self.cpu
    }

    /// Converts `n` native cycles into CPU cycles, rounding up.
    pub fn to_cpu(&self, n: Cycle) -> Cycle {
        div_ceil(n * self.cpu.as_mhz(), self.native.as_mhz())
    }
}

fn div_ceil(a: u64, b: u64) -> u64 {
    a.div_ceil(b)
}

/// A divisor fixed at construction, for quotients and remainders on a
/// hot path without a hardware division.
///
/// Below 2³² a dividend is divided by multiplying with a precomputed
/// 64-bit reciprocal and keeping the high word (Lemire, Kaser and
/// Kurz, "Faster remainder by direct computation", 2019), which is
/// exact for every such dividend and every divisor below 2³². Larger
/// dividends take the hardware division, so every result equals `/`
/// and `%`.
///
/// # Example
///
/// ```
/// use hipe_sim::Divisor;
/// let sets = Divisor::new(2560);
/// assert_eq!(sets.remainder(1_000_003), 1_000_003 % 2560);
/// assert_eq!(sets.div_ceil(5121), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Divisor {
    d: u64,
    /// `ceil(2⁶⁴ / d)` modulo 2⁶⁴ (0 for `d == 1`).
    m: u64,
}

impl Divisor {
    /// Prepares division by `d`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < d < 2³²`.
    pub fn new(d: u64) -> Self {
        assert!(
            d > 0 && d <= u64::from(u32::MAX),
            "divisor {d} outside 1..2^32"
        );
        Divisor {
            d,
            m: (u64::MAX / d).wrapping_add(1),
        }
    }

    /// `n / d`.
    #[inline]
    pub fn quotient(self, n: u64) -> u64 {
        match u32::try_from(n) {
            Ok(_) if self.d == 1 => n,
            Ok(_) => ((u128::from(self.m) * u128::from(n)) >> 64) as u64,
            Err(_) => n / self.d,
        }
    }

    /// `n % d`.
    #[inline]
    pub fn remainder(self, n: u64) -> u64 {
        match u32::try_from(n) {
            // The low word of `m * n` is the fraction `n / d` scaled by
            // 2⁶⁴; times `d`, its high word is the remainder.
            Ok(_) => ((u128::from(self.m.wrapping_mul(n)) * u128::from(self.d)) >> 64) as u64,
            Err(_) => n % self.d,
        }
    }

    /// `n.div_ceil(d)`.
    #[inline]
    pub fn div_ceil(self, n: u64) -> u64 {
        let q = self.quotient(n);
        q + u64::from(q * self.d != n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn freq_display() {
        assert_eq!(Freq::ghz(2).to_string(), "2 GHz");
        assert_eq!(Freq::mhz(166).to_string(), "166 MHz");
    }

    #[test]
    fn dram_domain_round_trip_is_conservative() {
        let d = ClockDomain::new(Freq::mhz(166), Freq::mhz(2000));
        for n in 1..100 {
            // Converting to CPU cycles rounds up: the CPU duration never
            // undercuts the native one, and overshoots it by less than
            // one CPU cycle.
            let c = d.to_cpu(n);
            assert!(c * 166 >= n * 2000 && (c - 1) * 166 < n * 2000);
        }
    }

    #[test]
    fn same_freq_is_identity() {
        let d = ClockDomain::new(Freq::mhz(2000), Freq::mhz(2000));
        assert_eq!(d.to_cpu(42), 42);
    }

    #[test]
    fn logic_layer_is_half_speed() {
        // Logic layer at 1 GHz vs CPU at 2 GHz: one logic cycle = 2 CPU cycles.
        let d = ClockDomain::new(Freq::ghz(1), Freq::ghz(2));
        assert_eq!(d.to_cpu(1), 2);
        assert_eq!(d.to_cpu(10), 20);
    }

    /// SplitMix64, for dividends and divisors.
    fn mix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn divisor_matches_hardware_division() {
        let mut state = 2018;
        let edges = [
            0,
            1,
            2,
            3,
            63,
            64,
            65,
            2559,
            2560,
            2561,
            u64::from(u32::MAX),
        ];
        let mut divisors = edges[1..].to_vec();
        for _ in 0..200 {
            divisors.push(1 + mix(&mut state) % u64::from(u32::MAX));
            divisors.push(1 + mix(&mut state) % 5000);
        }
        for d in divisors {
            let div = Divisor::new(d);
            let near = [d - 1, d, d + 1, d * 2, u64::from(u32::MAX) / d * d];
            let wide = [1 << 32, (1 << 32) + 1, u64::MAX, mix(&mut state)];
            let small: Vec<u64> = (0..50).map(|_| mix(&mut state) >> 32).collect();
            for n in edges.into_iter().chain(near).chain(wide).chain(small) {
                assert_eq!(div.quotient(n), n / d, "{n} / {d}");
                assert_eq!(div.remainder(n), n % d, "{n} % {d}");
                assert_eq!(div.div_ceil(n), n.div_ceil(d), "ceil({n} / {d})");
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside 1..2^32")]
    fn divisor_rejects_zero() {
        let _ = Divisor::new(0);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_freq_panics() {
        let _ = Freq::mhz(0);
    }
}
