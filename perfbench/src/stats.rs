//! Sample statistics and the order-independent pair digest every op is
//! checked with.

use touch_geom::ObjectId;

/// Median of `values` (the mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let sorted = sorted(values);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    }
}

/// The 90th percentile by nearest rank, computed in integers so that exactly
/// `n / 10` samples sit above it: with at least 100 samples, at least ten.
/// 0 for an empty slice.
pub fn p90(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let sorted = sorted(values);
    sorted[sorted.len() - sorted.len() / 10 - 1]
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// Pair count plus a digest that does not depend on the order pairs arrive
/// in: the wrapping sum of a 64-bit mix of each `(a, b)`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PairDigest {
    /// Pairs seen.
    pub count: u64,
    /// Wrapping sum of the mixed pair keys.
    pub sum: u64,
}

impl PairDigest {
    /// Adds the pair `(a, b)`.
    #[inline]
    pub fn add(&mut self, a: ObjectId, b: ObjectId) {
        self.count += 1;
        self.sum = self.sum.wrapping_add(mix((u64::from(a) << 32) | u64::from(b)));
    }

    /// Adds the unordered pair `{a, b}` as `(min, max)`, the orientation
    /// self-join results are compared in.
    #[inline]
    pub fn add_unordered(&mut self, a: ObjectId, b: ObjectId) {
        self.add(a.min(b), a.max(b));
    }
}

/// The splitmix64 finaliser: a bijective mix, so distinct pairs collide in
/// the sum only by chance.
#[inline]
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_keeps_at_least_ten_samples_above_it_from_100_samples_on() {
        for n in 100..=1000usize {
            // Distinct values in scrambled order.
            let values: Vec<f64> = (0..n).map(|i| ((i * 7919) % n) as f64).collect();
            let p = p90(&values);
            let above = values.iter().filter(|&&v| v > p).count();
            assert!(above >= 10, "n = {n}: only {above} samples above p90 = {p}");
            assert_eq!(above, n / 10, "n = {n}");
        }
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn pair_digest_does_not_depend_on_order() {
        let pairs: Vec<(ObjectId, ObjectId)> =
            (0..500u32).map(|i| (i * 31 % 97, i * 17 % 101)).collect();
        let mut forward = PairDigest::default();
        pairs.iter().for_each(|&(a, b)| forward.add(a, b));
        let mut backward = PairDigest::default();
        pairs.iter().rev().for_each(|&(a, b)| backward.add(a, b));
        let mut interleaved = PairDigest::default();
        pairs.iter().step_by(2).chain(pairs.iter().skip(1).step_by(2)).for_each(|&(a, b)| {
            interleaved.add(a, b);
        });
        assert_eq!(forward, backward);
        assert_eq!(forward, interleaved);
        assert_eq!(forward.count, 500);
    }

    #[test]
    fn pair_digest_tells_orientation_and_membership_apart() {
        let mut ab = PairDigest::default();
        ab.add(1, 2);
        let mut ba = PairDigest::default();
        ba.add(2, 1);
        assert_ne!(ab, ba);
        let mut unordered = PairDigest::default();
        unordered.add_unordered(2, 1);
        assert_eq!(ab, unordered);
        let mut other = PairDigest::default();
        other.add(1, 3);
        assert_ne!(ab, other);
    }
}
