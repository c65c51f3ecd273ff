//! Fast Walsh–Hadamard transform.
//!
//! The Hashtogram frequency oracle (Theorems 3.7/3.8) has each user report
//! a single randomized Hadamard coefficient of their bucket's indicator
//! vector; the server inverts all coefficients at once with one fast
//! transform. `H` here is the ±1 (non-normalized) Hadamard matrix of order
//! `2^k` with `H[i][j] = (−1)^{popcount(i & j)}`.

/// Single entry of the Hadamard matrix: `(−1)^{popcount(i & j)}`.
///
/// `i, j` must be below the matrix order; the function itself is total on
/// u64 so callers enforce the range.
#[inline]
pub fn hadamard_entry(i: u64, j: u64) -> i8 {
    if (i & j).count_ones().is_multiple_of(2) {
        1
    } else {
        -1
    }
}

/// Length of the L1-resident blocks the low butterfly levels run in:
/// `2^11` doubles = 16 KiB. Every level `h < BLOCK` pairs elements of one
/// aligned block, so a block finishes all its low levels in cache before
/// the next block is touched.
const BLOCK: usize = 1 << 11;

/// Butterfly levels one column-tile pass fuses (radix `2^4 = 16`).
const TILE_LEVELS: u32 = 4;

/// Columns per tile: 16 rows × 128 columns × 8 B = 16 KiB, so the four
/// fused levels of a tile stay in L1.
const TILE_COLS: usize = 128;

/// In-place fast Walsh–Hadamard transform (unnormalized).
///
/// `data.len()` must be a power of two. Applying the transform twice
/// multiplies by `len`: `WHT(WHT(x)) = len · x`.
///
/// Cache-blocked: the levels below `2^11` run block by block inside L1,
/// then the high levels run as radix-16 passes over column tiles — one
/// sweep over memory per four levels instead of one per level. Every
/// butterfly still receives exactly the two inputs the textbook
/// level-by-level loop gives it, so the output is bit-for-bit that
/// loop's.
pub fn fwht(data: &mut [f64]) {
    fwht_threaded(data, 1);
}

/// In-place fast Walsh–Hadamard transform on worker threads —
/// bit-for-bit equal to [`fwht`] for every `threads` (`0` = the
/// available hardware parallelism).
///
/// The schedule is [`fwht`]'s own: the low-level blocks are independent,
/// and so are the column tiles of each high-level pass, so every phase
/// hands disjoint slices to the workers and each element sees the
/// identical floating-point operation sequence as the serial transform.
/// Small transforms (or `threads <= 1`) run on the calling thread —
/// fan-out only pays when a pass dwarfs a scope spawn.
pub fn fwht_threaded(data: &mut [f64], threads: usize) {
    transform(data, None, threads);
}

/// In-place transform of `c · data` on worker threads — bit-for-bit
/// scaling every element by `c` and then running [`fwht`], for every
/// `threads` (`0` = the available hardware parallelism).
///
/// The scale is folded into the transform: each L1 block is multiplied
/// by `c` right before its low levels run, so the debias of a Hadamard
/// tally costs no pass over memory of its own. Every product is the
/// same `c · x` and every butterfly then gets the same inputs as in the
/// separate pass, so the output bits do not move.
pub fn fwht_scaled(data: &mut [f64], c: f64, threads: usize) {
    transform(data, Some(c), threads);
}

/// The one transform schedule behind [`fwht_threaded`] and
/// [`fwht_scaled`]; `scale` multiplies each low-level block first.
fn transform(data: &mut [f64], scale: Option<f64>, threads: usize) {
    let n = data.len();
    assert!(
        n.is_power_of_two(),
        "WHT length must be a power of two: {n}"
    );
    let threads = if n < (1 << 12) {
        1
    } else {
        hh_par_threads(threads, n)
    };
    // Low levels: whole blocks, a contiguous run of them per worker.
    let block = BLOCK.min(n);
    let per = (n / block).div_ceil(threads) * block;
    for_each_unit(data.chunks_mut(per), threads, |run| {
        for b in run.chunks_mut(block) {
            if let Some(c) = scale {
                for v in b.iter_mut() {
                    *v *= c;
                }
            }
            fwht_levels(b);
        }
    });
    // High levels: radix-16 passes, the last one radix 2^r (r < 4) when
    // the level count is not a multiple of four. A pass at stride `h`
    // fusing `r` levels cuts the array into super-blocks of `h << r`
    // elements, each `2^r` rows of width `h` whose columns are
    // independent sub-transforms.
    let mut h = block;
    while h < n {
        let r = (n / h).trailing_zeros().min(TILE_LEVELS);
        let supers = n / (h << r);
        // Fewer super-blocks than workers: split each one's columns
        // (a power of two, so the split widths divide `h`).
        let splits = threads
            .div_ceil(supers)
            .next_power_of_two()
            .min(h / TILE_COLS);
        let units = data
            .chunks_mut(h << r)
            .flat_map(|sup| column_units(sup, h, splits));
        for_each_unit(units, threads, |mut unit| {
            column_pass(&mut unit.rows[..unit.count]);
        });
        h <<= r;
    }
}

/// The textbook level-by-level transform (its first two levels fused
/// per quad) — the kernel for one L1-resident block.
fn fwht_levels(data: &mut [f64]) {
    let n = data.len();
    let mut h = 1;
    if n >= 4 {
        // Levels h = 1 and h = 2 fused per quad: the same four sums and
        // four differences, without the per-pair loop overhead.
        for q in data.chunks_exact_mut(4) {
            let (a, b) = (q[0] + q[1], q[0] - q[1]);
            let (c, d) = (q[2] + q[3], q[2] - q[3]);
            q[0] = a + c;
            q[1] = b + d;
            q[2] = a - c;
            q[3] = b - d;
        }
        h = 4;
    }
    while h < n {
        for block in data.chunks_mut(h * 2) {
            let (lo, hi) = block.split_at_mut(h);
            butterflies(lo, hi);
        }
        h *= 2;
    }
}

/// `lo[i], hi[i] ← lo[i] + hi[i], lo[i] − hi[i]`.
#[inline]
fn butterflies(lo: &mut [f64], hi: &mut [f64]) {
    for (x, y) in lo.iter_mut().zip(hi.iter_mut()) {
        let (u, v) = (*x, *y);
        *x = u + v;
        *y = u - v;
    }
}

/// The first `count` rows of one super-block, cut to one column range.
struct ColumnUnit<'a> {
    rows: [&'a mut [f64]; 1 << TILE_LEVELS],
    count: usize,
}

/// Cut a super-block of `len / h` rows of width `h` into `splits`
/// column ranges of equal width.
fn column_units(sup: &mut [f64], h: usize, splits: usize) -> impl Iterator<Item = ColumnUnit<'_>> {
    let count = sup.len() / h;
    let mut rest: [&mut [f64]; 1 << TILE_LEVELS] = Default::default();
    for (slot, row) in rest.iter_mut().zip(sup.chunks_mut(h)) {
        *slot = row;
    }
    let width = h / splits;
    (0..splits).map(move |_| {
        let mut unit = ColumnUnit {
            rows: Default::default(),
            count,
        };
        for (slot, row) in unit.rows.iter_mut().zip(rest.iter_mut()).take(count) {
            let (head, tail) = std::mem::take(row).split_at_mut(width);
            *slot = head;
            *row = tail;
        }
        unit
    })
}

/// All `log2(rows.len())` butterfly levels across `rows`, one column
/// tile at a time. Rows sit `h` apart in the array, so the level with
/// row distance `s` — row `a` against row `a + s`, bit `s` of `a` clear —
/// is the level `s · h` butterfly of the full transform.
fn column_pass(rows: &mut [&mut [f64]]) {
    let width = rows[0].len();
    let mut c = 0;
    while c < width {
        let e = (c + TILE_COLS).min(width);
        let mut s = 1;
        while s < rows.len() {
            for a in (0..rows.len()).filter(|a| a & s == 0) {
                let (lo, hi) = rows.split_at_mut(a + s);
                butterflies(&mut lo[a][c..e], &mut hi[0][c..e]);
            }
            s *= 2;
        }
        c = e;
    }
}

/// Run `f` on every unit: in order on the calling thread when
/// `threads <= 1`, else contiguous groups of units per worker.
fn for_each_unit<T: Send>(units: impl Iterator<Item = T>, threads: usize, f: impl Fn(T) + Sync) {
    if threads <= 1 {
        units.for_each(f);
        return;
    }
    let units: Vec<T> = units.collect();
    let per = units.len().div_ceil(threads).max(1);
    let mut units = units.into_iter();
    let f = &f;
    rayon::scope(|s| loop {
        let group: Vec<T> = units.by_ref().take(per).collect();
        if group.is_empty() {
            break;
        }
        s.spawn(move |_| group.into_iter().for_each(f));
    });
}

/// The effective worker count (`0` = hardware), local so `wht` does not
/// depend on `par`'s scheduling helpers.
fn hh_par_threads(threads: usize, n: usize) -> usize {
    let hw = if threads == 0 {
        rayon::current_num_threads()
    } else {
        threads
    };
    hw.min(n).max(1)
}

/// Inverse transform: `fwht` followed by division by `len`.
pub fn ifwht(data: &mut [f64]) {
    let n = data.len() as f64;
    fwht(data);
    for v in data.iter_mut() {
        *v /= n;
    }
}

/// Naive O(n²) transform used as a test oracle.
pub fn wht_naive(data: &[f64]) -> Vec<f64> {
    let n = data.len();
    assert!(n.is_power_of_two());
    (0..n)
        .map(|i| {
            (0..n)
                .map(|j| f64::from(hadamard_entry(i as u64, j as u64)) * data[j])
                .sum()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn entries_are_symmetric() {
        for i in 0..32u64 {
            for j in 0..32u64 {
                assert_eq!(hadamard_entry(i, j), hadamard_entry(j, i));
            }
        }
    }

    #[test]
    fn rows_are_orthogonal() {
        let n = 64u64;
        for a in 0..n {
            for b in 0..n {
                let dot: i64 = (0..n)
                    .map(|j| i64::from(hadamard_entry(a, j)) * i64::from(hadamard_entry(b, j)))
                    .sum();
                if a == b {
                    assert_eq!(dot, n as i64);
                } else {
                    assert_eq!(dot, 0);
                }
            }
        }
    }

    #[test]
    fn fast_matches_naive() {
        let mut rng = SmallRng::seed_from_u64(3);
        for k in 0..8u32 {
            let n = 1usize << k;
            let data: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let want = wht_naive(&data);
            let mut got = data;
            fwht(&mut got);
            for (g, w) in got.iter().zip(&want) {
                assert!((g - w).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn double_transform_is_scaling() {
        let mut rng = SmallRng::seed_from_u64(11);
        let n = 256usize;
        let data: Vec<f64> = (0..n).map(|_| rng.gen_range(-5.0..5.0)).collect();
        let mut x = data.clone();
        fwht(&mut x);
        ifwht(&mut x);
        for (a, b) in x.iter().zip(&data) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn indicator_transform_is_row() {
        // WHT(e_b)[l] = H[l][b].
        let n = 128usize;
        let b = 77usize;
        let mut x = vec![0.0; n];
        x[b] = 1.0;
        fwht(&mut x);
        for (l, &v) in x.iter().enumerate() {
            assert_eq!(v as i8, hadamard_entry(l as u64, b as u64));
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        let mut x = vec![0.0; 3];
        fwht(&mut x);
    }

    /// The level-by-level loop the blocked transform replaced, kept as
    /// the bit-for-bit reference.
    fn fwht_reference(data: &mut [f64]) {
        let n = data.len();
        let mut h = 1;
        while h < n {
            let mut i = 0;
            while i < n {
                for j in i..i + h {
                    let x = data[j];
                    let y = data[j + h];
                    data[j] = x + y;
                    data[j + h] = x - y;
                }
                i += h * 2;
            }
            h *= 2;
        }
    }

    fn same_bits(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    #[test]
    fn blocked_matches_level_by_level_loop() {
        // Every length 2^0..2^20: below, at and just above the block
        // (2^10, 2^11, 2^12), and high-level counts of 1..9 — so both
        // full radix-16 passes and every ragged final radix occur.
        let mut rng = SmallRng::seed_from_u64(29);
        for k in 0..=20u32 {
            let n = 1usize << k;
            let data: Vec<f64> = (0..n).map(|_| rng.gen_range(-3.0..3.0)).collect();
            let mut want = data.clone();
            fwht_reference(&mut want);
            let mut got = data;
            fwht(&mut got);
            assert!(same_bits(&got, &want), "k = {k}");
        }
    }

    #[test]
    fn threaded_is_bit_identical_to_serial() {
        let mut rng = SmallRng::seed_from_u64(23);
        // The small fall-through (below 2^12), one ragged high pass
        // (2^13), a full radix-16 pass (2^15), and a full pass plus a
        // ragged one (2^18).
        for k in [0u32, 3, 8, 13, 15, 18] {
            let n = 1usize << k;
            let data: Vec<f64> = (0..n).map(|_| rng.gen_range(-3.0..3.0)).collect();
            let mut want = data.clone();
            fwht(&mut want);
            for threads in [0, 1, 2, 3, 4, 7] {
                let mut got = data.clone();
                fwht_threaded(&mut got, threads);
                assert!(same_bits(&got, &want), "k = {k}, threads = {threads}");
            }
        }
    }

    #[test]
    fn scaled_matches_scaling_then_transform() {
        // Every length 2^0..2^20 (inside one block, one block, many
        // blocks with full and ragged radix passes) at every thread
        // count the finish paths use, against a separate scaling pass
        // followed by the serial transform.
        let mut rng = SmallRng::seed_from_u64(31);
        let c = 1.0 / 3.0_f64.sqrt();
        for k in 0..=20u32 {
            let n = 1usize << k;
            let data: Vec<f64> = (0..n).map(|_| rng.gen_range(-9.0..9.0)).collect();
            let mut want: Vec<f64> = data.iter().map(|&t| c * t).collect();
            fwht(&mut want);
            for threads in [0, 1, 2, 3, 7] {
                let mut got = data.clone();
                fwht_scaled(&mut got, c, threads);
                assert!(same_bits(&got, &want), "k = {k}, threads = {threads}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn scaled_rejects_non_power_of_two() {
        let mut x = vec![0.0; 12];
        fwht_scaled(&mut x, 2.0, 1);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn threaded_rejects_non_power_of_two() {
        let mut x = vec![0.0; 6];
        fwht_threaded(&mut x, 2);
    }
}
