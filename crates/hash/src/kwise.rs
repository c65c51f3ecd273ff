//! `k`-wise independent hashing via random polynomials over `F_p`.

use crate::field::{PrimeField, MERSENNE_P};
use hh_math::rng::{derive_seed, seeded_rng};
use rand::Rng;

/// A `k`-wise independent hash function `F_p → [range]`.
///
/// Realized as a uniformly random polynomial of degree `k − 1` over
/// `F_p = GF(2^61 − 1)`; over the field this family is *exactly* `k`-wise
/// independent, and the final `mod range` step introduces at most `range/p`
/// pointwise bias.
///
/// Inputs must be below `p = 2^61 − 1` (asserted); every domain in the
/// workspace satisfies this.
#[derive(Debug, Clone)]
pub struct KWiseHash {
    /// Polynomial coefficients, constant term first.
    coeffs: Vec<u64>,
    range: u64,
}

impl KWiseHash {
    /// Sample a fresh `k`-wise independent function into `[range]`.
    pub fn new(seed: u64, k: usize, range: u64) -> Self {
        assert!(k >= 1, "independence level must be >= 1");
        assert!(range >= 1, "range must be nonempty");
        assert!(
            range <= 1 << 48,
            "range {range} too large for negligible modular bias"
        );
        let mut rng = seeded_rng(derive_seed(seed, 0x6B77_6973_6531)); // "kwise1"
        let coeffs = (0..k).map(|_| rng.gen_range(0..MERSENNE_P)).collect();
        Self { coeffs, range }
    }

    /// Independence level `k`.
    pub fn independence(&self) -> usize {
        self.coeffs.len()
    }

    /// Output range size.
    pub fn range(&self) -> u64 {
        self.range
    }

    /// Raw polynomial evaluation in `F_p` (before range reduction).
    ///
    /// Short polynomials (`k < 8`) run plain Horner. Longer ones split
    /// `f(x) = Σ_r x^r·f_r(x⁴)` by coefficient index mod 4, step the four
    /// Horner chains in `x⁴` side by side — independent multiplies the
    /// core overlaps, instead of one `k`-long dependent chain — and
    /// combine them by a 3-step Horner in `x`. Every step is an exact
    /// canonical field operation, so the value equals plain Horner's.
    #[inline]
    pub fn eval_field(&self, x: u64) -> u64 {
        assert!(x < MERSENNE_P, "input {x} outside F_p domain");
        let coeffs = &self.coeffs;
        if coeffs.len() < 8 {
            // Horner's rule, highest coefficient first.
            let mut acc = 0u64;
            for &c in coeffs.iter().rev() {
                acc = PrimeField::add(PrimeField::mul(acc, x), c);
            }
            return acc;
        }
        let x2 = PrimeField::mul(x, x);
        let x4 = PrimeField::mul(x2, x2);
        // acc[r] = f_r(x⁴), seeded with the top (possibly partial) block.
        let blocks = coeffs.chunks_exact(4);
        let top = blocks.remainder();
        let mut blocks = blocks.rev();
        let mut acc = [0u64; 4];
        if top.is_empty() {
            acc.copy_from_slice(blocks.next().expect("k >= 8 has a full block"));
        } else {
            acc[..top.len()].copy_from_slice(top);
        }
        for block in blocks {
            for (a, &c) in acc.iter_mut().zip(block) {
                *a = PrimeField::add(PrimeField::mul(*a, x4), c);
            }
        }
        let mut out = acc[3];
        for &a in acc[..3].iter().rev() {
            out = PrimeField::add(PrimeField::mul(out, x), a);
        }
        out
    }

    /// Hash into `[0, range)`.
    #[inline]
    pub fn hash(&self, x: u64) -> u64 {
        self.eval_field(x) % self.range
    }

    /// [`KWiseHash::eval_field`] over the run `start, start + 1, …,
    /// start + len − 1`, by forward differences: after `k` Horner
    /// evaluations seed the difference table, each further value costs
    /// `k − 1` field additions instead of `k` multiplications. Exact in
    /// `F_p`, so every value is bit-for-bit Horner's.
    ///
    /// The whole run must lie in the field: `start + len <= p`.
    pub fn eval_field_run(&self, start: u64, len: usize) -> FieldRun<'_> {
        assert!(
            start <= MERSENNE_P && len as u64 <= MERSENNE_P - start,
            "run {start} + {len} outside F_p domain"
        );
        let k = self.coeffs.len();
        let mut run = FieldRun {
            hash: self,
            diffs: [0; MAX_DIFF_ORDER],
            horner: k > MAX_DIFF_ORDER || len <= k,
            next: start,
            left: len,
        };
        if run.horner {
            // Too short (or too high a degree) for the table to pay.
            return run;
        }
        // Seed with f(start..start + k), then difference in place:
        // afterwards diffs[j] = Δ^j f(start).
        for (j, d) in run.diffs[..k].iter_mut().enumerate() {
            *d = self.eval_field(start + j as u64);
        }
        for level in 1..k {
            for j in (level..k).rev() {
                run.diffs[j] = PrimeField::sub(run.diffs[j], run.diffs[j - 1]);
            }
        }
        run
    }
}

/// Highest polynomial order [`KWiseHash::eval_field_run`] steps by
/// forward differences; higher orders fall back to Horner per value.
const MAX_DIFF_ORDER: usize = 16;

/// The iterator [`KWiseHash::eval_field_run`] returns.
#[derive(Debug, Clone)]
pub struct FieldRun<'a> {
    hash: &'a KWiseHash,
    /// `diffs[j] = Δ^j f(next)` for `j < k`.
    diffs: [u64; MAX_DIFF_ORDER],
    /// Evaluate by Horner per value instead.
    horner: bool,
    next: u64,
    left: usize,
}

impl Iterator for FieldRun<'_> {
    type Item = u64;

    #[inline]
    fn next(&mut self) -> Option<u64> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let x = self.next;
        self.next += 1;
        if self.horner {
            return Some(self.hash.eval_field(x));
        }
        let value = self.diffs[0];
        // Step every order up by one: Δ^j f(x + 1) = Δ^j f(x) + Δ^{j+1} f(x),
        // ascending so each update reads the not-yet-stepped next order.
        for j in 0..self.hash.coeffs.len() - 1 {
            self.diffs[j] = PrimeField::add(self.diffs[j], self.diffs[j + 1]);
        }
        Some(value)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for FieldRun<'_> {}

/// Pairwise independent hash (`k = 2`), the `h_m` functions of the paper.
#[derive(Debug, Clone)]
pub struct PairwiseHash {
    inner: KWiseHash,
}

impl PairwiseHash {
    /// Sample a pairwise independent function into `[range]`.
    pub fn new(seed: u64, range: u64) -> Self {
        Self {
            inner: KWiseHash::new(seed, 2, range),
        }
    }

    /// Output range size.
    pub fn range(&self) -> u64 {
        self.inner.range()
    }

    /// Hash into `[0, range)`.
    #[inline]
    pub fn hash(&self, x: u64) -> u64 {
        self.inner.hash(x)
    }

    /// [`PairwiseHash::hash`] over the run `start .. start + len` (see
    /// [`KWiseHash::eval_field_run`]); a power-of-two range reduces by
    /// mask, which equals the `%` of the point query.
    pub fn hash_run(&self, start: u64, len: usize) -> impl Iterator<Item = u64> + '_ {
        let range = self.range();
        let mask = range.wrapping_sub(1);
        let pow2 = range.is_power_of_two();
        self.inner
            .eval_field_run(start, len)
            .map(move |v| if pow2 { v & mask } else { v % range })
    }
}

/// Pairwise independent ±1 sign hash (used by count-sketch style oracles).
#[derive(Debug, Clone)]
pub struct SignHash {
    inner: KWiseHash,
}

impl SignHash {
    /// Sample a fresh sign hash.
    pub fn new(seed: u64) -> Self {
        Self {
            // Range 2^32 then take a bit: avoids the tiny parity bias of
            // `mod 2` on a field of odd order.
            inner: KWiseHash::new(seed, 2, 1 << 32),
        }
    }

    /// Returns −1 or +1.
    #[inline]
    pub fn sign(&self, x: u64) -> i64 {
        Self::of_bit(self.inner.hash(x))
    }

    /// [`SignHash::sign`] over the run `start .. start + len` (see
    /// [`KWiseHash::eval_field_run`]). The range `2^32` is even, so the
    /// parity of the reduced hash is the parity of the field value and
    /// the run skips the reduction.
    pub fn sign_run(&self, start: u64, len: usize) -> impl Iterator<Item = i64> + '_ {
        self.inner.eval_field_run(start, len).map(Self::of_bit)
    }

    #[inline]
    fn of_bit(v: u64) -> i64 {
        if v & 1 == 0 {
            1
        } else {
            -1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let h1 = KWiseHash::new(7, 4, 1000);
        let h2 = KWiseHash::new(7, 4, 1000);
        for x in 0..100u64 {
            assert_eq!(h1.hash(x), h2.hash(x));
        }
        let h3 = KWiseHash::new(8, 4, 1000);
        assert!((0..100u64).any(|x| h1.hash(x) != h3.hash(x)));
    }

    #[test]
    fn outputs_in_range() {
        let h = KWiseHash::new(3, 5, 17);
        for x in 0..10_000u64 {
            assert!(h.hash(x) < 17);
        }
    }

    #[test]
    fn marginal_uniformity() {
        // For a fixed input x, the hash value over random seeds should be
        // ~uniform on the range.
        let range = 8u64;
        let x = 123_456u64;
        let mut counts = vec![0u64; range as usize];
        let trials = 40_000u64;
        for seed in 0..trials {
            counts[KWiseHash::new(seed, 2, range).hash(x) as usize] += 1;
        }
        let expect = trials as f64 / range as f64;
        for (v, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expect).abs();
            assert!(
                dev < 6.0 * expect.sqrt(),
                "value {v}: count {c}, expect {expect}"
            );
        }
    }

    #[test]
    fn pairwise_collision_rate() {
        // Pr[h(x) = h(y)] ≈ 1/range for x != y, averaged over seeds.
        let range = 64u64;
        let trials = 30_000u64;
        let mut coll = 0u64;
        for seed in 0..trials {
            let h = PairwiseHash::new(seed, range);
            if h.hash(10) == h.hash(999) {
                coll += 1;
            }
        }
        let rate = coll as f64 / trials as f64;
        let expect = 1.0 / range as f64;
        assert!(
            (rate - expect).abs() < 6.0 * (expect / trials as f64).sqrt() + 1e-3,
            "collision rate {rate} vs {expect}"
        );
    }

    #[test]
    fn pairwise_joint_uniformity() {
        // (h(x), h(y)) jointly uniform on [r]×[r] over seeds: the defining
        // property of pairwise independence.
        let r = 4u64;
        let trials = 64_000u64;
        let mut joint = vec![0u64; (r * r) as usize];
        for seed in 0..trials {
            let h = PairwiseHash::new(seed, r);
            joint[(h.hash(5) * r + h.hash(77)) as usize] += 1;
        }
        let expect = trials as f64 / (r * r) as f64;
        for (cell, &c) in joint.iter().enumerate() {
            assert!(
                (c as f64 - expect).abs() < 6.0 * expect.sqrt(),
                "cell {cell}: {c} vs {expect}"
            );
        }
    }

    #[test]
    fn four_wise_third_moment_vanishes() {
        // For 4-wise independent ±1 signs s(x), E[s(a)s(b)s(c)] = 0 for
        // distinct a, b, c. Estimate over seeds.
        let trials = 60_000u64;
        let mut sum: i64 = 0;
        for seed in 0..trials {
            let h = KWiseHash::new(seed, 4, 1 << 32);
            let s = |x: u64| if h.hash(x) & 1 == 0 { 1i64 } else { -1 };
            sum += s(1) * s(2) * s(3);
        }
        let m = sum as f64 / trials as f64;
        assert!(
            m.abs() < 6.0 / (trials as f64).sqrt() + 0.01,
            "third moment {m}"
        );
    }

    #[test]
    fn sign_hash_balanced() {
        let trials = 40_000u64;
        let mut sum = 0i64;
        for seed in 0..trials {
            sum += SignHash::new(seed).sign(42);
        }
        assert!((sum as f64 / trials as f64).abs() < 0.02);
    }

    /// Plain Horner over the raw coefficients: the reference
    /// [`KWiseHash::eval_field`] must equal for every `k`.
    fn horner_reference(h: &KWiseHash, x: u64) -> u64 {
        h.coeffs
            .iter()
            .rev()
            .fold(0u64, |acc, &c| PrimeField::add(PrimeField::mul(acc, x), c))
    }

    #[test]
    fn eval_field_matches_horner_reference_for_every_k() {
        // k in 1..=64 covers the plain loop (k < 8) and every chain
        // remainder k mod 4 of the interleaved path.
        let mut rng = seeded_rng(0x6576_616C);
        for k in 1..=64usize {
            let h = KWiseHash::new(1_000 + k as u64, k, 1 << 20);
            let edges = [0u64, 1, 2, MERSENNE_P - 2, MERSENNE_P - 1];
            let random = (0..200).map(|_| rng.gen_range(0..MERSENNE_P));
            for x in edges.into_iter().chain(random) {
                assert_eq!(h.eval_field(x), horner_reference(&h, x), "k = {k}, x = {x}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside F_p domain")]
    fn interleaved_path_rejects_out_of_field_inputs() {
        let h = KWiseHash::new(2, 40, 10);
        let _ = h.eval_field(MERSENNE_P);
    }

    #[test]
    fn field_runs_match_horner() {
        // Orders 1, 2, 4, 8 (constant through degree 7) and 24 (past the
        // difference table, so per-value evaluation), runs shorter
        // than, equal to and past the order, starting at zero, mid-field
        // and flush against p.
        for k in [1usize, 2, 4, 8, 24] {
            let h = KWiseHash::new(40 + k as u64, k, 1 << 20);
            for len in [0usize, 1, k, k + 1, 1000] {
                for start in [0u64, 12_345, MERSENNE_P - len as u64] {
                    let got: Vec<u64> = h.eval_field_run(start, len).collect();
                    let want: Vec<u64> = (start..start + len as u64)
                        .map(|x| horner_reference(&h, x))
                        .collect();
                    assert_eq!(got, want, "k = {k}, start = {start}, len = {len}");
                }
            }
        }
    }

    #[test]
    fn hash_and_sign_runs_match_point_queries() {
        for range in [1024u64, 1000] {
            let h = PairwiseHash::new(5, range);
            let got: Vec<u64> = h.hash_run(777, 600).collect();
            let want: Vec<u64> = (777..1377).map(|x| h.hash(x)).collect();
            assert_eq!(got, want, "range = {range}");
        }
        let s = SignHash::new(6);
        let got: Vec<i64> = s.sign_run(31, 600).collect();
        let want: Vec<i64> = (31..631).map(|x| s.sign(x)).collect();
        assert_eq!(got, want);
    }

    #[test]
    #[should_panic(expected = "outside F_p domain")]
    fn field_run_must_end_inside_the_field() {
        let h = KWiseHash::new(1, 2, 10);
        let _ = h.eval_field_run(MERSENNE_P - 3, 4);
    }

    #[test]
    #[should_panic(expected = "outside F_p domain")]
    fn rejects_out_of_field_inputs() {
        let h = KWiseHash::new(1, 2, 10);
        let _ = h.hash(u64::MAX);
    }
}
