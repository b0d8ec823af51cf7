//! The bounded distance algebra of §4.1.
//!
//! Distances live in `[0, 1]`; combining them uses the saturating
//! addition `x ⊕ y = min(x + y, 1)`, the paper's "rudimentary" choice of
//! the `⊕` operator, which is compatible with the triangle inequality.

/// Saturating addition on `[0, 1]`: `min(x + y, 1)`.
#[inline]
pub fn oplus(x: f64, y: f64) -> f64 {
    debug_assert!((0.0..=1.0 + 1e-12).contains(&x), "oplus input {x}");
    debug_assert!((0.0..=1.0 + 1e-12).contains(&y), "oplus input {y}");
    (x + y).min(1.0)
}

/// Fold `⊕` over an iterator of distances.
pub fn oplus_sum(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut acc = 0.0;
    for v in values {
        acc = oplus(acc, v);
        if acc >= 1.0 {
            return 1.0;
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saturates_at_one() {
        assert_eq!(oplus(0.7, 0.6), 1.0);
        assert_eq!(oplus(1.0, 1.0), 1.0);
    }

    #[test]
    fn adds_below_one() {
        assert!((oplus(0.25, 0.5) - 0.75).abs() < 1e-12);
        assert_eq!(oplus(0.0, 0.0), 0.0);
    }

    #[test]
    fn identity_and_commutativity() {
        for x in [0.0, 0.3, 0.9, 1.0] {
            assert_eq!(oplus(x, 0.0), x);
            for y in [0.0, 0.4, 1.0] {
                assert_eq!(oplus(x, y), oplus(y, x));
            }
        }
    }

    #[test]
    fn associativity() {
        for x in [0.0, 0.2, 0.5, 1.0] {
            for y in [0.1, 0.6] {
                for z in [0.0, 0.3, 0.9] {
                    let a = oplus(oplus(x, y), z);
                    let b = oplus(x, oplus(y, z));
                    assert!((a - b).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn fold_short_circuits() {
        assert_eq!(oplus_sum([0.5, 0.5, 0.5]), 1.0);
        assert!((oplus_sum([0.1, 0.2]) - 0.3).abs() < 1e-12);
        assert_eq!(oplus_sum(std::iter::empty()), 0.0);
    }

    #[test]
    fn example6_checks() {
        // Example 6: 2/9 ⊕ 1/9 = 1/3 and 2/9 ⊕ 1/36 = 1/4.
        assert!((oplus(2.0 / 9.0, 1.0 / 9.0) - 1.0 / 3.0).abs() < 1e-12);
        assert!((oplus(2.0 / 9.0, 1.0 / 36.0) - 0.25).abs() < 1e-12);
    }
}
