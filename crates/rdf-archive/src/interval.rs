//! Version-interval sets: which versions a triple (or entity) was
//! present in, stored as sorted half-open ranges.

/// A sorted set of disjoint half-open version ranges `[start, end)`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IntervalSet {
    ranges: Vec<(u32, u32)>,
}

impl IntervalSet {
    /// Empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record presence at version `v`. Versions must be pushed in
    /// non-decreasing order (archives are built version by version).
    pub fn push(&mut self, v: u32) {
        if let Some(last) = self.ranges.last_mut() {
            assert!(v >= last.1 - 1, "versions must be pushed in order");
            if v < last.1 {
                return; // already present
            }
            if v == last.1 {
                last.1 = v + 1;
                return;
            }
        }
        self.ranges.push((v, v + 1));
    }

    /// Whether version `v` is in the set.
    pub fn contains(&self, v: u32) -> bool {
        self.ranges
            .binary_search_by(|&(s, e)| {
                if v < s {
                    std::cmp::Ordering::Greater
                } else if v >= e {
                    std::cmp::Ordering::Less
                } else {
                    std::cmp::Ordering::Equal
                }
            })
            .is_ok()
    }

    /// Number of stored ranges.
    pub fn range_count(&self) -> usize {
        self.ranges.len()
    }

    /// Number of versions covered.
    pub fn version_count(&self) -> usize {
        self.ranges.iter().map(|&(s, e)| (e - s) as usize).sum()
    }

    /// The ranges.
    pub fn ranges(&self) -> &[(u32, u32)] {
        &self.ranges
    }

    /// Rebuild a set from stored ranges (deserialisation path). Ranges
    /// must be non-empty, ascending, and non-adjacent — the canonical
    /// form [`IntervalSet::push`] maintains — so equality with a freshly
    /// built set is structural.
    pub fn from_ranges(ranges: Vec<(u32, u32)>) -> Result<Self, &'static str> {
        let mut prev_end: Option<u32> = None;
        for &(s, e) in &ranges {
            if s >= e {
                return Err("empty interval range");
            }
            if let Some(pe) = prev_end {
                if s <= pe {
                    return Err("interval ranges must be ascending and \
                                non-adjacent");
                }
            }
            prev_end = Some(e);
        }
        Ok(IntervalSet { ranges })
    }

    /// Iterate the individual versions.
    pub fn versions(&self) -> impl Iterator<Item = u32> + '_ {
        self.ranges.iter().flat_map(|&(s, e)| s..e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_pushes_merge() {
        let mut s = IntervalSet::new();
        for v in 0..5 {
            s.push(v);
        }
        assert_eq!(s.ranges(), &[(0, 5)]);
        assert_eq!(s.range_count(), 1);
        assert_eq!(s.version_count(), 5);
    }

    #[test]
    fn gaps_create_ranges() {
        let mut s = IntervalSet::new();
        s.push(0);
        s.push(1);
        s.push(4);
        s.push(5);
        assert_eq!(s.ranges(), &[(0, 2), (4, 6)]);
        assert!(s.contains(1));
        assert!(!s.contains(2));
        assert!(!s.contains(3));
        assert!(s.contains(4));
        assert!(!s.contains(6));
        assert_eq!(s.version_count(), 4);
    }

    #[test]
    fn duplicate_push_is_idempotent() {
        let mut s = IntervalSet::new();
        s.push(3);
        s.push(3);
        assert_eq!(s.ranges(), &[(3, 4)]);
    }

    #[test]
    fn versions_iterator() {
        let mut s = IntervalSet::new();
        s.push(1);
        s.push(3);
        let vs: Vec<u32> = s.versions().collect();
        assert_eq!(vs, vec![1, 3]);
    }

    #[test]
    #[should_panic(expected = "versions must be pushed in order")]
    fn out_of_order_push_panics() {
        let mut s = IntervalSet::new();
        s.push(5);
        s.push(2);
    }
}
