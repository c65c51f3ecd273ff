//! The benchmark's only contact with the library.
//!
//! Everything that names a library item lives in this file, and it uses
//! only the surface meant to outlive the planned simplifications: the
//! registry (`build_hh` / `build_oracle`), the pipelined runtime
//! (`run_pipelined` / `PipelineSession`) and the object-safe
//! `DynHhProtocol` / `DynOracle` methods, plus the public parameter
//! records the error bounds come from. A change to that surface is made
//! here and nowhere else in the benchmark.
//!
//! For the traced run the protocol handed to the engine is wrapped in a
//! decorator ([`TracedHh`] / [`TracedOracle`]) that records one span per
//! call into the protocol layer; the untraced run hands the registry's
//! box over as it is.

use crate::trace::{self, Group, Layer, SpanRec};
use crate::workloads::{Family, Step, Workload};
use hh_core::SketchParams;
use hh_freq::wire::{FrameError, WireError, WireFrames};
use hh_math::par::FinishScratch;
use hh_math::rng::derive_seed;
use hh_sim::registry::{build_hh, build_oracle, ProtocolSpec};
use hh_sim::run::{DistPlan, MergeOrder};
use hh_sim::stream::{StreamIngest, StreamPlan, StreamStats};
use hh_sim::{
    run_pipelined, DynHhProtocol, DynHhStream, DynOracle, DynOracleStream, DynShard,
    PipelineConfig, PipelineSession,
};
use std::time::Instant;

/// Collector actors in the fleet.
pub const COLLECTORS: usize = 2;
/// Users per wire chunk (one chunk = one message to a collector).
pub const CHUNK_USERS: usize = 1 << 12;
/// Bounded depth of each collector's queue, in chunks.
pub const QUEUE_DEPTH: usize = 4;
/// Encoder threads: 1 = the session thread encodes (the single producer).
pub const ENCODERS: usize = 1;

fn spec(w: &Workload, seed: u64) -> ProtocolSpec {
    ProtocolSpec {
        n: w.n(),
        domain: w.domain,
        eps: w.eps,
        beta: w.beta,
        seed,
    }
}

fn plan() -> (StreamPlan, PipelineConfig) {
    let plan = StreamPlan {
        epoch_size: usize::MAX,
        checkpoint_every: 0,
        dist: DistPlan {
            collectors: COLLECTORS,
            chunk_size: CHUNK_USERS,
            threads: 0,
            merge: MergeOrder::Tree,
        },
    };
    let config = PipelineConfig {
        queue_depth: QUEUE_DEPTH,
        workers: ENCODERS,
    };
    (plan, config)
}

/// Threads the finish sweeps use (`FinishScratch`'s automatic plan).
pub fn finish_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Accuracy yardsticks of a workload's protocol at a user prefix.
pub struct Yardstick {
    /// Detection threshold Δ: elements at least this frequent must be in
    /// the answer.
    pub delta: f64,
    /// Documented high-probability bound on |estimate − truth|.
    pub error_bound: f64,
}

/// Δ and the error bound for a query over the first `prefix` users.
///
/// * `expander_sketch`: `SketchParams::detection_threshold` and
///   `estimation_error_bound` (Theorem 3.13) at the configured n.
/// * `scan`: the protocol's Δ, which `ScanParams::detection_threshold`
///   documents as 3× the oracle's per-query bound with a union bound over
///   the domain; that per-query bound is the error bound.
/// * `rappor`: one position's count is a sum of `prefix` independent
///   Bernoulli bits, so by Hoeffding with a union bound over the domain
///   `|est − f| ≤ sqrt(prefix·ln(2|X|/β)/2) / (p − q)`, with
///   `p = e^{ε/2}/(e^{ε/2}+1)` and `q = 1 − p`; Δ is twice that.
pub fn yardstick(w: &Workload, prefix: u64) -> Yardstick {
    let spec = spec(w, 0);
    match w.protocol {
        "expander_sketch" => {
            let p = SketchParams::optimal(spec.n, spec.domain_bits(), spec.eps, spec.beta);
            Yardstick {
                delta: p.detection_threshold(),
                error_bound: p.estimation_error_bound(),
            }
        }
        "scan" => {
            let delta = build_hh("scan", &spec)
                .expect("scan is registered")
                .detection_threshold();
            Yardstick {
                delta,
                error_bound: delta / 3.0,
            }
        }
        "rappor" => {
            let keep = (w.eps / 2.0).exp() / ((w.eps / 2.0).exp() + 1.0);
            let bound = (prefix as f64 * (2.0 * w.domain as f64 / w.beta).ln() / 2.0).sqrt()
                / (2.0 * keep - 1.0);
            Yardstick {
                delta: 2.0 * bound,
                error_bound: bound,
            }
        }
        other => panic!("no yardstick for protocol {other}"),
    }
}

/// Cells one finish sweeps: M·B·Y·|Z| stand-out cells for the sketch, |X|
/// for the scan, none for RAPPOR (its finalize is a no-op; the domain
/// sweep is counted as `estimate` calls).
pub fn finish_cells(w: &Workload) -> u64 {
    let spec = spec(w, 0);
    match w.protocol {
        "expander_sketch" => {
            let p = SketchParams::optimal(spec.n, spec.domain_bits(), spec.eps, spec.beta);
            p.inner_cells() * p.num_coords as u64
        }
        "scan" => w.domain,
        _ => 0,
    }
}

/// Wall-clock of one session step.
pub struct StepTime {
    pub step: Step,
    pub start: Instant,
    pub end: Instant,
}

impl StepTime {
    pub fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// The runtime's own accounting of one stream (a copy of `StreamStats`).
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    pub users: u64,
    pub wire_bytes: u64,
    pub checkpoints: u64,
    pub checkpoint_s: f64,
    pub fold_s: f64,
    /// Time inside `finish_at_epoch`, fold included.
    pub finish_s: f64,
    pub recoveries: u64,
    pub recovery_s: f64,
    pub replayed_reports: u64,
    pub producer_stall_s: f64,
    pub queue_max: u64,
    pub cache_hits: u64,
    pub merge_s: f64,
}

impl From<&StreamStats> for RunStats {
    fn from(s: &StreamStats) -> Self {
        RunStats {
            users: s.users,
            wire_bytes: s.wire_bytes,
            checkpoints: s.checkpoints,
            checkpoint_s: s.checkpoint_total.as_secs_f64(),
            fold_s: s.fold_total.as_secs_f64(),
            finish_s: s.finish_total.as_secs_f64(),
            recoveries: s.recoveries,
            recovery_s: s.recovery_total.as_secs_f64(),
            replayed_reports: s.replayed_reports,
            producer_stall_s: s.producer_stall.as_secs_f64(),
            queue_max: s.max_queue_occupancy as u64,
            cache_hits: s.finish_cache_hits,
            merge_s: s.merge_total.as_secs_f64(),
        }
    }
}

/// One streamed run of a workload.
pub struct Iteration {
    /// Registry construction of the streamed protocol plus fleet start, up
    /// to the first step.
    pub setup_s: f64,
    pub steps: Vec<StepTime>,
    /// One answer per query step: the heavy-hitter list, or for an oracle
    /// the estimate of every domain element.
    pub answers: Vec<Vec<(u64, f64)>>,
    pub stats: RunStats,
    /// Spans of the traced run (empty when untraced).
    pub spans: Vec<SpanRec>,
}

/// Set-up alone: registry construction and fleet start, then shutdown.
pub fn setup_only(w: &Workload, seed: u64) -> f64 {
    run_stream(w, &[], seed, false).setup_s
}

/// Stream a workload through the pipelined runtime once, issuing `steps`
/// (normally `w.steps`). Set-up builds the streamed protocol only; each
/// query builds its own fresh instance inside its step and drops it with
/// the answer.
pub fn run_stream(w: &Workload, steps: &[Step], seed: u64, traced: bool) -> Iteration {
    let t0 = Instant::now();
    let spec = spec(w, seed);
    let (plan, config) = plan();
    if traced {
        trace::start(&w.epoch_starts());
    }
    let (out, stats) = match w.family {
        Family::HeavyHitter => {
            let build = || {
                let p = build_hh(w.protocol, &spec).expect("registered protocol");
                if traced {
                    Box::new(TracedHh(p))
                } else {
                    p
                }
            };
            let server = build();
            let ingest = DynHhStream(server.as_ref());
            let (_, stats, out) = run_pipelined(&ingest, &plan, &config, seed, |s| {
                drive(s, w, steps, t0, |s| s.finish_at_epoch(build().as_mut()))
            });
            (out, stats)
        }
        Family::Oracle => {
            let build = || {
                let p = build_oracle(w.protocol, &spec).expect("registered oracle");
                if traced {
                    Box::new(TracedOracle(p))
                } else {
                    p
                }
            };
            let server = build();
            let ingest = DynOracleStream(server.as_ref());
            let (_, stats, out) = run_pipelined(&ingest, &plan, &config, seed, |s| {
                drive(s, w, steps, t0, |s| {
                    let mut oracle = build();
                    s.finish_at_epoch(oracle.as_mut());
                    (0..w.domain).map(|x| (x, oracle.estimate(x))).collect()
                })
            });
            (out, stats)
        }
    };
    let spans = match out.shutdown {
        Some(span) => {
            span.end(0, 0);
            trace::stop()
        }
        None => Vec::new(),
    };
    Iteration {
        setup_s: out.setup_s,
        steps: out.steps,
        answers: out.answers,
        stats: RunStats::from(&stats),
        spans,
    }
}

/// What the session closure hands back.
struct Driven {
    setup_s: f64,
    steps: Vec<StepTime>,
    answers: Vec<Vec<(u64, f64)>>,
    /// The traced run's shutdown span, closed once the fleet has stopped.
    shutdown: Option<trace::Span>,
}

/// Issue the steps, one at a time, on the session thread. A step's trace
/// group is its kind plus the epoch it follows, so an epoch's ingest,
/// checkpoint and query spans share the epoch's number.
fn drive<I: StreamIngest + Sync>(
    s: &mut PipelineSession<'_, I>,
    w: &Workload,
    steps: &[Step],
    t0: Instant,
    mut query: impl FnMut(&mut PipelineSession<'_, I>) -> Vec<(u64, f64)>,
) -> Driven {
    let setup_s = t0.elapsed().as_secs_f64();
    let traced = trace::enabled();
    let mut times = Vec::with_capacity(steps.len());
    let mut answers = Vec::new();
    let mut epoch = 0;
    for &step in steps {
        let (name, kind) = match step {
            Step::Epoch(e) => {
                epoch = e as u64;
                ("ingest_epoch", "epoch")
            }
            Step::Checkpoint => ("checkpoint", "checkpoint"),
            Step::Kill(_) => ("kill_collector", "kill"),
            Step::Recover(_) => ("recover_collector", "recover"),
            Step::Query => ("finish_at_epoch", "query"),
        };
        let group = Group { kind, index: epoch };
        let span = traced.then(|| trace::begin_step(name, group));
        let start = Instant::now();
        let items = match step {
            Step::Epoch(e) => {
                s.ingest_epoch(&w.epochs[e]);
                w.epochs[e].len() as u64
            }
            Step::Checkpoint => s.checkpoint().collectors as u64,
            Step::Kill(c) => {
                s.kill_collector(c);
                0
            }
            Step::Recover(c) => s.recover_collector(c).replayed_reports,
            Step::Query => {
                let answer = query(s);
                answers.push(answer);
                answers.last().map_or(0, |a| a.len() as u64)
            }
        };
        let end = Instant::now();
        if let Some(span) = span {
            span.end(items, 0);
        }
        times.push(StepTime { step, start, end });
    }
    let shutdown = traced.then(|| {
        trace::begin_step(
            "shutdown",
            Group {
                kind: "shutdown",
                index: epoch,
            },
        )
    });
    Driven {
        setup_s,
        steps: times,
        answers,
        shutdown,
    }
}

/// The one-shot reference answer of a workload: the same users and seed
/// as the stream, encoded in one `respond_encode_batch`, absorbed into one
/// shard and finished once.
pub fn one_shot(w: &Workload, seed: u64) -> Vec<(u64, f64)> {
    let spec = spec(w, seed);
    let users: Vec<u64> = w.epochs.concat();
    let mut scratch = FinishScratch::default();
    let mut wire = Vec::new();
    match w.family {
        Family::HeavyHitter => {
            let mut p = build_hh(w.protocol, &spec).expect("registered protocol");
            let client_seed = derive_seed(seed, <DynHhStream<'_> as StreamIngest>::CLIENT_LABEL);
            let lens = p.respond_encode_batch(0, &users, client_seed, &mut wire);
            let frames = WireFrames::new(&wire, &lens).expect("one-shot frames are well formed");
            let mut shard = p.new_shard();
            p.absorb_wire(&mut shard, 0, &frames)
                .expect("one-shot frames absorb");
            p.finish_shard(shard);
            p.finish_with(&mut scratch)
        }
        Family::Oracle => {
            let mut p = build_oracle(w.protocol, &spec).expect("registered oracle");
            let client_seed =
                derive_seed(seed, <DynOracleStream<'_> as StreamIngest>::CLIENT_LABEL);
            let lens = p.respond_encode_batch(0, &users, client_seed, &mut wire);
            let frames = WireFrames::new(&wire, &lens).expect("one-shot frames are well formed");
            let mut shard = p.new_shard();
            p.absorb_wire(&mut shard, 0, &frames)
                .expect("one-shot frames absorb");
            p.finish_shard(shard);
            p.finalize_with(&mut scratch);
            (0..w.domain).map(|x| (x, p.estimate(x))).collect()
        }
    }
}

/// The calls both protocol families share, each recorded as one span.
macro_rules! traced_common {
    () => {
        fn respond_encode_batch(
            &self,
            start_index: u64,
            xs: &[u64],
            client_seed: u64,
            out: &mut Vec<u8>,
        ) -> Vec<u32> {
            let span = trace::begin("respond_encode_batch", Layer::Client, Some(start_index));
            let before = out.len();
            let lens = self
                .0
                .respond_encode_batch(start_index, xs, client_seed, out);
            span.end(xs.len() as u64, (out.len() - before) as u64);
            lens
        }

        fn new_shard(&self) -> DynShard {
            self.0.new_shard()
        }

        fn absorb_wire(
            &self,
            shard: &mut DynShard,
            start_index: u64,
            frames: &WireFrames<'_>,
        ) -> Result<(), FrameError> {
            let span = trace::begin("absorb_wire", Layer::Ingest, Some(start_index));
            let result = self.0.absorb_wire(shard, start_index, frames);
            span.end(frames.len() as u64, frames.total_bytes() as u64);
            result
        }

        fn merge(&self, a: DynShard, b: DynShard) -> DynShard {
            let span = trace::begin("merge", Layer::Merge, None);
            let merged = self.0.merge(a, b);
            span.end(1, 0);
            merged
        }

        fn shard_encoded_len(&self, shard: &DynShard) -> usize {
            let span = trace::begin("shard_encoded_len", Layer::Snapshot, None);
            let len = self.0.shard_encoded_len(shard);
            span.end(0, 0);
            len
        }

        fn encode_shard_into(&self, shard: &DynShard, out: &mut Vec<u8>) {
            let span = trace::begin("encode_shard_into", Layer::Snapshot, None);
            let before = out.len();
            self.0.encode_shard_into(shard, out);
            span.end(1, (out.len() - before) as u64);
        }

        fn decode_shard(&self, bytes: &[u8]) -> Result<DynShard, WireError> {
            let span = trace::begin("decode_shard", Layer::Snapshot, None);
            let result = self.0.decode_shard(bytes);
            span.end(1, bytes.len() as u64);
            result
        }

        fn finish_shard(&mut self, shard: DynShard) {
            let span = trace::begin("finish_shard", Layer::Merge, None);
            self.0.finish_shard(shard);
            span.end(1, 0);
        }

        fn report_bits(&self) -> usize {
            self.0.report_bits()
        }

        fn memory_bytes(&self) -> usize {
            self.0.memory_bytes()
        }

        fn epsilon(&self) -> f64 {
            self.0.epsilon()
        }
    };
}

/// Heavy-hitter protocol decorator recording a span per call.
struct TracedHh(Box<dyn DynHhProtocol>);

impl DynHhProtocol for TracedHh {
    traced_common!();

    fn finish(&mut self) -> Vec<(u64, f64)> {
        let span = trace::begin("finish", Layer::Finish, None);
        let answer = self.0.finish();
        span.end(answer.len() as u64, 0);
        answer
    }

    fn finish_with(&mut self, scratch: &mut FinishScratch) -> Vec<(u64, f64)> {
        let span = trace::begin("finish_with", Layer::Finish, None);
        let answer = self.0.finish_with(scratch);
        span.end(answer.len() as u64, 0);
        answer
    }

    fn detection_threshold(&self) -> f64 {
        self.0.detection_threshold()
    }
}

/// Frequency-oracle decorator recording a span per call.
struct TracedOracle(Box<dyn DynOracle>);

impl DynOracle for TracedOracle {
    traced_common!();

    fn finalize(&mut self) {
        let span = trace::begin("finalize", Layer::Finish, None);
        self.0.finalize();
        span.end(0, 0);
    }

    fn finalize_with(&mut self, scratch: &mut FinishScratch) {
        let span = trace::begin("finalize_with", Layer::Finish, None);
        self.0.finalize_with(scratch);
        span.end(0, 0);
    }

    fn estimate(&self, x: u64) -> f64 {
        let span = trace::begin("estimate", Layer::Estimate, None);
        let v = self.0.estimate(x);
        span.end(1, 0);
        v
    }
}
