//! The interlocked register bank.

use hipe_isa::{RegId, REGISTER_COUNT};
use hipe_sim::Cycle;

/// Lanes per register (256 B / 8 B).
pub(crate) const LANES: usize = 32;

/// The 36 x 256 B register bank with scoreboard and zero flags.
///
/// Each register holds 32 lanes of `i64` (functional value), a
/// `ready` cycle (interlock scoreboard: when the value becomes
/// available) and a zero flag (`true` when every lane is zero),
/// which the HIPE predication match logic consults.
///
/// # Example
///
/// ```
/// use hipe_isa::RegId;
/// use hipe_logic::RegisterBank;
/// let mut b = RegisterBank::new(36);
/// let r = RegId::new(3).expect("register 3 exists");
/// b.write(r, [1i64; 32], 100);
/// assert_eq!(b.ready(r), 100);
/// assert!(!b.is_zero(r));
/// assert_eq!(b.lane(r, 31), 1);
/// ```
#[derive(Debug, Clone)]
pub struct RegisterBank {
    lanes: Vec<[i64; LANES]>,
    ready: Vec<Cycle>,
    zero: Vec<bool>,
    consumed: Vec<Cycle>,
}

impl RegisterBank {
    /// Creates a bank of `n` zeroed registers, all ready at cycle 0.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or exceeds the architectural
    /// [`REGISTER_COUNT`].
    pub fn new(n: usize) -> Self {
        assert!(
            n > 0 && n <= REGISTER_COUNT,
            "register bank size {n} outside 1..={REGISTER_COUNT}"
        );
        RegisterBank {
            lanes: vec![[0; LANES]; n],
            ready: vec![0; n],
            zero: vec![true; n],
            consumed: vec![0; n],
        }
    }

    /// Number of registers.
    pub fn len(&self) -> usize {
        self.lanes.len()
    }

    /// Returns `true` if the bank has no registers (never, by
    /// construction).
    pub fn is_empty(&self) -> bool {
        self.lanes.is_empty()
    }

    fn check(&self, r: RegId) -> usize {
        let i = r.index();
        assert!(
            i < self.lanes.len(),
            "register {r} outside bank of {}",
            self.lanes.len()
        );
        i
    }

    /// The scoreboard ready cycle of `r`.
    pub fn ready(&self, r: RegId) -> Cycle {
        self.ready[self.check(r)]
    }

    /// The zero flag of `r` (true = every lane zero).
    pub fn is_zero(&self, r: RegId) -> bool {
        self.zero[self.check(r)]
    }

    /// The functional lanes of `r`.
    pub fn lanes(&self, r: RegId) -> &[i64; LANES] {
        &self.lanes[self.check(r)]
    }

    /// One lane of `r`.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= 32` or `r` is outside the bank.
    pub fn lane(&self, r: RegId, lane: usize) -> i64 {
        self.lanes[self.check(r)][lane]
    }

    /// Writes `value` into `r`, becoming ready at `ready`; updates the
    /// zero flag.
    pub fn write(&mut self, r: RegId, value: [i64; LANES], ready: Cycle) {
        self.rewrite(r, ready, |regs, i| regs[i] = value);
    }

    /// Rewrites `r` in place, becoming ready at `ready`; updates the
    /// zero flag. `fill` receives every register's lanes and the index
    /// of `r`, and leaves `r` holding its new value.
    pub(crate) fn rewrite(
        &mut self,
        r: RegId,
        ready: Cycle,
        fill: impl FnOnce(&mut [[i64; LANES]], usize),
    ) {
        let i = self.check(r);
        fill(&mut self.lanes, i);
        self.zero[i] = self.lanes[i].iter().all(|&v| v == 0);
        self.ready[i] = ready;
    }

    /// Records that `r` was read at `cycle` (write-after-read
    /// interlock bookkeeping).
    pub fn consume(&mut self, r: RegId, cycle: Cycle) {
        let i = self.check(r);
        self.consumed[i] = self.consumed[i].max(cycle);
    }

    /// Latest cycle at which `r` was read; a subsequent write must not
    /// start before this (WAR hazard).
    pub fn last_consumed(&self, r: RegId) -> Cycle {
        self.consumed[self.check(r)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(i: usize) -> RegId {
        RegId::new(i).expect("valid register")
    }

    #[test]
    fn fresh_bank_is_zero_and_ready() {
        let b = RegisterBank::new(36);
        assert_eq!(b.len(), 36);
        for i in 0..36 {
            assert!(b.is_zero(r(i)));
            assert_eq!(b.ready(r(i)), 0);
        }
    }

    #[test]
    fn zero_flag_tracks_writes() {
        let mut b = RegisterBank::new(4);
        let mut v = [0i64; LANES];
        b.write(r(0), v, 5);
        assert!(b.is_zero(r(0)));
        v[17] = -3;
        b.write(r(0), v, 9);
        assert!(!b.is_zero(r(0)));
        assert_eq!(b.ready(r(0)), 9);
        assert_eq!(b.lane(r(0), 17), -3);
    }

    #[test]
    #[should_panic(expected = "outside bank")]
    fn out_of_bank_register_panics() {
        // Architecturally valid id, but this bank only has 4 registers.
        let b = RegisterBank::new(4);
        let _ = b.ready(r(10));
    }

    #[test]
    #[should_panic(expected = "outside 1..=")]
    fn oversized_bank_panics() {
        let _ = RegisterBank::new(100);
    }
}
