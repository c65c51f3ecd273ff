//! Order statistics and a minimal JSON writer.

/// Quantile with linear interpolation at rank `(n + 1) q` clamped to the
/// sample — the "exclusive" method of Python's `statistics.quantiles`.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let n = sorted.len();
    let h = ((n + 1) as f64 * q).clamp(1.0, n as f64);
    let lo = h.floor() as usize;
    let frac = h - lo as f64;
    if lo >= n {
        return sorted[n - 1];
    }
    sorted[lo - 1] + frac * (sorted[lo] - sorted[lo - 1])
}

/// The fixed tail percentile: the same one is compared across runs of
/// different length, so a longer run does not push the tail further out.
const TAIL_PERCENTILE: f64 = 0.84;

/// Median and quartiles of one metric's samples, plus the highest
/// percentile with at least ten samples beyond it.
#[derive(Debug, Clone)]
pub struct Summary {
    pub count: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    /// `(percentile, value)`: the tail. p84 once at least 10 samples lie
    /// beyond it (n ≥ 63), the highest percentile with 10 samples beyond
    /// it for 20 ≤ n < 63, else the maximum (reported as percentile 100).
    pub tail: (f64, f64),
    /// The samples, in the order taken.
    pub samples: Vec<f64>,
}

pub fn summarize(samples: &[f64]) -> Summary {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let tail = if n >= 20 {
        let q = TAIL_PERCENTILE.min((n - 10) as f64 / n as f64);
        let rank = ((q * n as f64).ceil() as usize).max(1);
        (100.0 * q, v[rank - 1])
    } else {
        (100.0, v[n - 1])
    };
    Summary {
        count: n,
        q1: quantile(&v, 0.25),
        median: quantile(&v, 0.5),
        q3: quantile(&v, 0.75),
        tail,
        samples: samples.to_vec(),
    }
}

pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).median
}

/// Builder for one JSON object (keys in insertion order).
#[derive(Default)]
pub struct Json {
    fields: Vec<String>,
}

impl Json {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn raw(mut self, key: &str, value: String) -> Self {
        self.fields.push(format!("\"{key}\": {value}"));
        self
    }

    pub fn str(self, key: &str, value: &str) -> Self {
        let escaped: String = value
            .chars()
            .flat_map(|c| match c {
                '"' => vec!['\\', '"'],
                '\\' => vec!['\\', '\\'],
                c if c.is_control() => vec![' '],
                c => vec![c],
            })
            .collect();
        self.raw(key, format!("\"{escaped}\""))
    }

    pub fn num(self, key: &str, value: f64) -> Self {
        self.raw(key, num(value))
    }

    pub fn int(self, key: &str, value: u64) -> Self {
        self.raw(key, value.to_string())
    }

    pub fn build(self) -> String {
        format!("{{{}}}", self.fields.join(", "))
    }
}

/// A finite number in JSON form with all its digits (non-finite → null).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!(s.tail, (100.0, 10.0));
    }

    #[test]
    fn tail_has_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=64).map(f64::from).collect();
        let (p, x) = summarize(&v).tail;
        assert_eq!((p, x), (84.0, 54.0));
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(summarize(&v).tail, (75.0, 30.0));
        let v: Vec<f64> = (1..=640).map(f64::from).collect();
        assert_eq!(summarize(&v).tail.1, 538.0);
    }
}
