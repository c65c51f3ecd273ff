//! The three workloads: their protocol, stream shape and seeded inputs.
//!
//! Inputs are generated here, from the run seed alone, before anything is
//! timed; the library only ever sees the finished per-epoch user values.
//! Why each workload exists is written down in METRICS.md.

/// Which registry table the protocol comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    HeavyHitter,
    Oracle,
}

/// One session call, in the order the single producer issues them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Ingest epoch `e` (index into [`Workload::epochs`]).
    Epoch(usize),
    /// Synchronous fleet checkpoint.
    Checkpoint,
    /// Crash collector `c` (its live shard is dropped).
    Kill(usize),
    /// Rebuild collector `c` from its snapshot plus spool.
    Recover(usize),
    /// Cold query after the latest checkpoint (the last one is the final
    /// answer).
    Query,
}

/// How a run checks that the Δ-heavy elements are found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecallGate {
    /// Every query's answer holds every Δ-heavy element.
    EveryQuery,
    /// The share of protocol seeds whose answers missed a Δ-heavy element
    /// is tested against β, the miss probability the protocol's contract
    /// allows per seed.
    PerSeed,
}

pub struct Workload {
    pub name: &'static str,
    pub protocol: &'static str,
    pub family: Family,
    pub domain: u64,
    pub eps: f64,
    pub beta: f64,
    pub recall_gate: RecallGate,
    /// Users of each epoch, in arrival order.
    pub epochs: Vec<Vec<u64>>,
    pub steps: Vec<Step>,
}

impl Workload {
    pub fn n(&self) -> u64 {
        self.epochs.iter().map(|e| e.len() as u64).sum()
    }

    /// First user index of every epoch.
    pub fn epoch_starts(&self) -> Vec<u64> {
        self.epochs
            .iter()
            .scan(0u64, |next, e| {
                let s = *next;
                *next += e.len() as u64;
                Some(s)
            })
            .collect()
    }

    pub fn queries(&self) -> usize {
        self.steps.iter().filter(|s| **s == Step::Query).count()
    }
}

pub const NAMES: [&str; 3] = ["sketch_e2e", "rappor_stream", "scan_query"];

pub fn build(name: &str, seed: u64) -> Option<Workload> {
    match name {
        "sketch_e2e" => Some(sketch_e2e(seed)),
        "rappor_stream" => Some(rappor_stream(seed)),
        "scan_query" => Some(scan_query(seed)),
        _ => None,
    }
}

/// `expander_sketch`, |X| = n = 2^20: three planted heavy hitters well
/// above Δ (≈ 0.095 n) over a uniform tail, 8 epochs with a checkpoint
/// each, then one final list.
fn sketch_e2e(seed: u64) -> Workload {
    const N: usize = 1 << 20;
    const EPOCHS: usize = 8;
    let domain = N as u64;
    let mut rng = SplitMix::new(seed ^ 0x5CE7_C4E2);
    let freqs = [0.25, 0.2, 0.15];
    let heavy = distinct_values(&mut rng, domain, freqs.len());
    let planted: Vec<(u64, f64)> = heavy.into_iter().zip(freqs).collect();
    let epochs = (0..EPOCHS)
        .map(|_| {
            (0..N / EPOCHS)
                .map(|_| planted_draw(&mut rng, &planted, domain))
                .collect()
        })
        .collect();
    let mut steps = Vec::new();
    for e in 0..EPOCHS {
        steps.extend([Step::Epoch(e), Step::Checkpoint]);
    }
    steps.push(Step::Query);
    Workload {
        name: "sketch_e2e",
        protocol: "expander_sketch",
        family: Family::HeavyHitter,
        domain,
        eps: 4.0,
        beta: 0.1,
        recall_gate: RecallGate::PerSeed,
        epochs,
        steps,
    }
}

/// RAPPOR, |X| = 1024: n = 2^19 in 64 epochs whose Zipf exponent ramps
/// 1.05 → 1.4, a checkpoint and a top-k query after every epoch, and
/// collector 1 killed after epoch 24 and recovered after epoch 25. The
/// crash window holds no checkpoint, so every query sees the full prefix.
fn rappor_stream(seed: u64) -> Workload {
    const EPOCHS: usize = 64;
    const PER_EPOCH: usize = 1 << 13;
    let domain = 1024u64;
    let mut rng = SplitMix::new(seed ^ 0x4A99_0425);
    let perm = permutation(&mut rng, domain);
    let epochs = (0..EPOCHS)
        .map(|e| {
            let s = 1.05 + (1.4 - 1.05) * e as f64 / (EPOCHS - 1) as f64;
            let zipf = ZipfTable::new(domain, s);
            (0..PER_EPOCH)
                .map(|_| perm[zipf.sample(&mut rng)])
                .collect()
        })
        .collect();
    let mut steps = Vec::new();
    for e in 0..EPOCHS {
        steps.push(Step::Epoch(e));
        if e == 25 {
            steps.push(Step::Recover(1));
        }
        steps.extend([Step::Checkpoint, Step::Query]);
        if e == 24 {
            steps.push(Step::Kill(1));
        }
    }
    Workload {
        name: "rappor_stream",
        protocol: "rappor",
        family: Family::Oracle,
        domain,
        eps: 4.0,
        beta: 0.1,
        recall_gate: RecallGate::EveryQuery,
        epochs,
        steps,
    }
}

/// `scan`, |X| = 2^16: n = 2^21 in 64 epochs. Half the users follow a
/// Zipf(1.2) head whose rank → value map is redrawn every 16 epochs (the
/// heavy hitters drift), half are uniform; a checkpoint and a cold
/// heavy-hitter query after every epoch.
fn scan_query(seed: u64) -> Workload {
    const EPOCHS: usize = 64;
    const PER_EPOCH: usize = 1 << 15;
    const PHASE: usize = 16;
    let domain = 1u64 << 16;
    let mut rng = SplitMix::new(seed ^ 0x5CA7_0001);
    let zipf = ZipfTable::new(domain, 1.2);
    let mut perm = Vec::new();
    let epochs = (0..EPOCHS)
        .map(|e| {
            if e % PHASE == 0 {
                perm = permutation(&mut rng, domain);
            }
            (0..PER_EPOCH)
                .map(|_| {
                    if rng.next() & 1 == 0 {
                        perm[zipf.sample(&mut rng)]
                    } else {
                        rng.below(domain)
                    }
                })
                .collect()
        })
        .collect();
    let mut steps = Vec::new();
    for e in 0..EPOCHS {
        steps.extend([Step::Epoch(e), Step::Checkpoint, Step::Query]);
    }
    Workload {
        name: "scan_query",
        protocol: "scan",
        family: Family::HeavyHitter,
        domain,
        eps: 4.0,
        beta: 0.1,
        recall_gate: RecallGate::EveryQuery,
        epochs,
        steps,
    }
}

/// SplitMix64: the benchmark's own input generator, independent of the
/// library's samplers so the inputs cannot change under the code measured.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[0, bound)` (Lemire's multiply-shift; the bias is below
    /// 2^-40 for the domains used here).
    pub fn below(&mut self, bound: u64) -> u64 {
        ((self.next() as u128 * bound as u128) >> 64) as u64
    }
}

fn distinct_values(rng: &mut SplitMix, domain: u64, k: usize) -> Vec<u64> {
    let mut out: Vec<u64> = Vec::with_capacity(k);
    while out.len() < k {
        let v = rng.below(domain);
        if !out.contains(&v) {
            out.push(v);
        }
    }
    out
}

fn planted_draw(rng: &mut SplitMix, planted: &[(u64, f64)], domain: u64) -> u64 {
    let mut u = rng.unit();
    for &(x, f) in planted {
        if u < f {
            return x;
        }
        u -= f;
    }
    rng.below(domain)
}

fn permutation(rng: &mut SplitMix, domain: u64) -> Vec<u64> {
    let mut p: Vec<u64> = (0..domain).collect();
    for i in (1..p.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        p.swap(i, j);
    }
    p
}

/// Zipf over ranks `0..domain` by inverse-CDF table lookup.
struct ZipfTable {
    cdf: Vec<f64>,
}

impl ZipfTable {
    fn new(domain: u64, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=domain)
            .map(|k| {
                acc += (k as f64).powf(-s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Self { cdf }
    }

    fn sample(&self, rng: &mut SplitMix) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}
