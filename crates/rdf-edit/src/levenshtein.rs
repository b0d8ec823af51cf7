//! String edit distance (Levenshtein) with the normalisation used by the
//! paper's `σ_Edit` (§4.2, Example 5): `lev(a, b) / max(|a|, |b|)`, so that
//! `"abc"` vs `"ac"` is 1/3.
//!
//! Distances are computed over Unicode scalar values by the classic
//! two-row dynamic program: O(|a|·|b|) time, O(min) space.

/// Levenshtein distance between two strings, over chars.
pub fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    levenshtein_slices(&a, &b)
}

/// Levenshtein distance between two char slices.
pub fn levenshtein_slices(a: &[char], b: &[char]) -> usize {
    // Keep the shorter string in the inner dimension for O(min) space.
    let (a, b) = if a.len() < b.len() { (b, a) } else { (a, b) };
    if b.is_empty() {
        return a.len();
    }
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut curr: Vec<usize> = vec![0; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        curr[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let cost = usize::from(ca != cb);
            curr[j + 1] = (prev[j] + cost) // substitute
                .min(prev[j + 1] + 1) // delete from a
                .min(curr[j] + 1); // insert into a
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    prev[b.len()]
}

/// Normalised edit distance in `[0, 1]`: `lev(a,b) / max(|a|, |b|)`;
/// 0 for two empty strings.
pub fn normalized_levenshtein(a: &str, b: &str) -> f64 {
    let ca = a.chars().count();
    let cb = b.chars().count();
    let m = ca.max(cb);
    if m == 0 {
        return 0.0;
    }
    levenshtein(a, b) as f64 / m as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classic_cases() {
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("flaw", "lawn"), 2);
        assert_eq!(levenshtein("", ""), 0);
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("same", "same"), 0);
    }

    #[test]
    fn example5_normalisation() {
        // §4.2 Example 5: "abc" vs "ac" differ by the presence of b and
        // the length of both is bounded by 3 → distance 1/3.
        assert!((normalized_levenshtein("abc", "ac") - 1.0 / 3.0).abs() < 1e-12);
        // "a" vs "ac": normalised edit distance 1/2.
        assert!((normalized_levenshtein("a", "ac") - 0.5).abs() < 1e-12);
    }

    #[test]
    fn unicode_chars_not_bytes() {
        // One char substitution even though UTF-8 lengths differ.
        assert_eq!(levenshtein("café", "cafe"), 1);
        assert_eq!(levenshtein("Sławek", "Sławomir"), 4);
    }

    #[test]
    fn paper_name_change() {
        // Figure 1: "Sławek" → "Sławomir".
        let d = levenshtein("Sławek", "Sławomir");
        let n = normalized_levenshtein("Sławek", "Sławomir");
        assert_eq!(d, 4);
        assert!((n - 0.5).abs() < 1e-12);
    }

    #[test]
    fn metric_axioms_small() {
        let words = ["", "a", "ab", "ba", "abc", "xyz"];
        for x in words {
            assert_eq!(levenshtein(x, x), 0);
            for y in words {
                assert_eq!(levenshtein(x, y), levenshtein(y, x));
                for z in words {
                    assert!(
                        levenshtein(x, z) <= levenshtein(x, y) + levenshtein(y, z)
                    );
                }
            }
        }
    }

    #[test]
    fn normalized_in_unit_interval() {
        let words = ["", "a", "hello world", "x"];
        for x in words {
            for y in words {
                let d = normalized_levenshtein(x, y);
                assert!((0.0..=1.0).contains(&d));
            }
        }
    }
}
