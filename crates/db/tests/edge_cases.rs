//! Edge-case tests for the pure query logic: comparison evaluation and
//! bitmask arithmetic at their boundaries.

use hipe_db::{Bitmask, CmpOp};

#[test]
fn cmp_ops_at_extremes() {
    for v in [i64::MIN, -1, 0, 1, i64::MAX] {
        assert!(CmpOp::Le(i64::MAX).eval(v), "everything <= MAX");
        assert!(CmpOp::Ge(i64::MIN).eval(v), "everything >= MIN");
        assert!(CmpOp::Range(i64::MIN, i64::MAX).eval(v));
        assert!(CmpOp::Eq(v).eval(v));
    }
    assert!(!CmpOp::Lt(i64::MIN).eval(i64::MIN), "nothing below MIN");
    assert!(!CmpOp::Gt(i64::MAX).eval(i64::MAX), "nothing above MAX");
}

#[test]
fn cmp_boundaries_are_exact() {
    // Strict vs inclusive at the pivot.
    assert!(!CmpOp::Lt(7).eval(7) && CmpOp::Le(7).eval(7));
    assert!(!CmpOp::Gt(7).eval(7) && CmpOp::Ge(7).eval(7));
    // Range is inclusive at both ends and can be a point.
    assert!(CmpOp::Range(7, 7).eval(7));
    assert!(!CmpOp::Range(7, 7).eval(6) && !CmpOp::Range(7, 7).eval(8));
    // Inverted range matches nothing.
    for v in [-1, 0, 5, 100] {
        assert!(!CmpOp::Range(8, 7).eval(v));
    }
}

#[test]
fn cmp_negative_pivots() {
    assert!(CmpOp::Lt(-5).eval(-6));
    assert!(!CmpOp::Lt(-5).eval(-5));
    assert!(CmpOp::Range(-10, -2).eval(-10) && CmpOp::Range(-10, -2).eval(-2));
    assert!(!CmpOp::Range(-10, -2).eval(-1));
}

#[test]
fn empty_bitmask_is_consistent() {
    let m = Bitmask::zeros(0);
    assert!(m.is_empty());
    assert_eq!(m.len(), 0);
    assert_eq!(m.count_ones(), 0);
    assert_eq!(m.iter_ones().count(), 0);
    let ones = Bitmask::ones(0);
    assert_eq!(ones.count_ones(), 0);
    assert_eq!(m, ones);
}

#[test]
fn word_boundary_lengths_trim_exactly() {
    for len in [1, 63, 64, 65, 127, 128, 129] {
        let m = Bitmask::ones(len);
        assert_eq!(m.count_ones(), len, "ones({len}) miscounted");
        assert!(m.get(len - 1));
        // The trimmed tail must not resurface through AND.
        let mut z = Bitmask::zeros(len);
        z.and_with(&m);
        assert_eq!(z.count_ones(), 0);
    }
}

#[test]
fn assign_round_trips_every_position_near_boundaries() {
    let len = 130;
    let mut m = Bitmask::zeros(len);
    for i in [0, 62, 63, 64, 65, 127, 128, 129] {
        m.set(i);
        assert!(m.get(i));
        assert_eq!(m.count_ones(), 1, "bit {i} leaked into a neighbour");
        m.clear(i);
        assert!(!m.get(i));
    }
    assert_eq!(m.count_ones(), 0);
}

#[test]
fn iter_ones_matches_get_exactly() {
    let m: Bitmask = (0..200).map(|i| i % 7 == 3).collect();
    let from_iter: Vec<usize> = m.iter_ones().collect();
    let from_get: Vec<usize> = (0..200).filter(|&i| m.get(i)).collect();
    assert_eq!(from_iter, from_get);
    assert_eq!(m.count_ones(), from_get.len());
}

#[test]
fn from_iterator_handles_all_false_and_all_true() {
    let f: Bitmask = std::iter::repeat_n(false, 100).collect();
    let t: Bitmask = std::iter::repeat_n(true, 100).collect();
    assert_eq!(f.count_ones(), 0);
    assert_eq!(t.count_ones(), 100);
    assert_eq!(t, Bitmask::ones(100));
}
