//! Experiments T1.time / T1.mem / T1.comm — the resource rows of Table 1.
//!
//! Measures server time, per-user time, server memory, per-user
//! communication (claimed bits *and* measured wire bytes) and
//! public-randomness size for `PrivateExpanderSketch`, Bitstogram (\[3\])
//! and the Bassily–Smith-style projection oracle (\[4\], with its
//! heavy-hitter search realized as the domain scan the paper deems
//! impractical), across n. Expected shapes per Table 1: ours/\[3\]
//! near-linear server time and O~(1) user cost with O~(√n) memory;
//! \[4\] linear-in-n memory and a per-query cost that makes domain scans
//! explode.
//!
//! Every protocol in this binary is **registry-dispatched**: rows name
//! protocols by their `hh_sim::registry` names and run them through the
//! type-erased drivers, so adding a protocol to the registry adds it to
//! the harness with no per-binary plumbing.
//!
//! Flags:
//!
//! * `--serial` — drive the table rows through the serial reference
//!   runner instead of the batched parallel pipeline (the default), for
//!   before/after comparison.
//! * `--distributed` — drive the table rows through the distributed
//!   collector-fleet pipeline (8 nodes, tree merge): every report is
//!   round-tripped through its wire encoding on the way to a collector.
//! * `--stream` — additionally run the streaming epoch engine (drifting
//!   workload, per-epoch checkpoints, one collector crash + recovery)
//!   and report snapshot bytes/collector, checkpoint + recovery time,
//!   and epoch throughput next to the wire column, plus a cold + warm
//!   mid-stream query pair whose finish-phase counters (fold time,
//!   cache hits, scratch reuse) land in the record; with `--json` /
//!   `--json-out` the records land in the JSON document.
//! * `--ingest-bench` — measure steady-state ingest throughput
//!   (users/sec and MB/s) of the fused zero-copy path
//!   (`respond_encode_batch` + `absorb_wire`) against the legacy
//!   materializing path (respond → encode → decode → absorb), with the
//!   two shards checked bit-for-bit equal; with `--json` / `--json-out`
//!   the records land in the JSON document so the speedup is tracked,
//!   not asserted (without them nothing is written — the tracked
//!   baseline is never clobbered with a partial document).
//! * `--pipeline` — measure end-to-end streaming ingest throughput of
//!   the **pipelined collector runtime** (long-lived collector actors,
//!   bounded queues, no epoch barriers) against the lock-step
//!   `StreamEngine` over the same epochs/checkpoints, with the final
//!   shards checked bit-for-bit equal; with `--json` / `--json-out` the
//!   records (including backpressure stats) land in the JSON document.
//! * `--client-bench` — measure client-side sampling throughput
//!   (users/sec) of the word-kernel client path (`respond_encode_batch`
//!   riding the bit-parallel Bernoulli / one-draw GRR / divide-free
//!   Lemire kernels) against the pre-kernel per-coin client (one `f64`
//!   convert+compare per coin, modulo row picks, a full per-user RNG
//!   construction — emulated in this binary; the library path no longer
//!   exists), with the fused kernel bytes checked bit-for-bit against
//!   the scalar kernel path over the same users; the expander sketch
//!   rows also carry `cell_secs`, the shared `coord_of` + `cell_of`
//!   encoding alone, which the sampling-only ratio cannot see; with
//!   `--json` / `--json-out` the records land in the JSON document as
//!   `client` rows.
//! * `--finish-bench` — measure the server-side finish (decode)
//!   wall-clock: the parallel scratch-threaded `finish_with` against
//!   the forced-serial path over the four registry heavy-hitter
//!   protocols (outputs checked bit-for-bit equal), plus incremental
//!   mid-stream finalization on the streaming engine — `finish_at_epoch`
//!   cold (first query after a checkpoint, pays the fold once) and warm
//!   (memoized) against a from-scratch snapshot decode + finish, and the
//!   expander sketch's stand-out step split into its materialize /
//!   transform / sweep sub-phases (`ExpanderSketch::profile_standout`,
//!   recorded on the sketch's serial row); with
//!   `--json` / `--json-out` the records land in the JSON document as
//!   `finish` rows.
//! * `--quick` — small-n profile (CI smoke runs).
//! * `--json` — additionally run the serial-vs-batched comparison, the
//!   collector-count merge-scaling sweep, the streaming engine, the
//!   ingest, pipeline, finish and client throughput comparisons
//!   (implied, so the document is always written whole), and write the
//!   machine-readable record (the perf-trajectory baseline tracked
//!   across PRs).
//! * `--json-out <path>` — where `--json` (and the implied comparisons)
//!   write (default `BENCH_table1.json`).

use hh_bench::{banner, fmt_dur, json_array, JsonObject, Table};
use hh_core::baselines::{ScanHeavyHitters, ScanParams};
use hh_core::traits::HeavyHitterProtocol;
use hh_core::traits::WireShard;
use hh_core::{ExpanderSketch, SketchParams, SketchReport, SketchShard, StandoutPhases};
use hh_freq::hashtogram::{Hashtogram, HashtogramReport};
use hh_freq::krr::KrrOracle;
use hh_freq::rappor::Rappor;
use hh_freq::traits::FrequencyOracle;
use hh_freq::wire::{encode_reports, write_uint, WireFrames, WireReport};
use hh_math::rng::{client_rng, derive_seed, seeded_rng};
use hh_math::wht::hadamard_entry;
use hh_math::FinishScratch;
use hh_sim::registry::{build_hh, build_oracle, ProtocolSpec};
use hh_sim::{
    run_dyn_heavy_hitter, run_dyn_heavy_hitter_batched, run_dyn_heavy_hitter_distributed,
    run_dyn_oracle, run_dyn_oracle_batched, run_dyn_oracle_distributed, run_pipelined,
    run_pipelined_all, BatchPlan, DistPlan, DynHhProtocol, DynHhStream, DynOracleStream,
    FinishPhase, HhStream, MaterializingIngest, OracleStream, PipelineConfig, ProtocolRun,
    StreamEngine, StreamIngest, StreamPlan, StreamWorkload, Workload,
};
use rand::Rng;
use std::time::Instant;

/// Which pipeline drives the table rows.
#[derive(Clone, Copy, PartialEq)]
enum Driver {
    Serial,
    Batched,
    Distributed,
}

/// A table row's timing plus the measured wire accounting.
struct RowRun {
    run: ProtocolRun,
    /// Mean measured wire bytes per user (end-to-end in distributed
    /// mode, sampled from real reports otherwise).
    wire_bytes_per_user: f64,
}

/// How many leading users the non-distributed rows sample to measure
/// mean wire bytes (the distributed driver measures end-to-end instead).
const WIRE_SAMPLE_CAP: usize = 1 << 13;
/// Client seed of the wire-size sample (any fixed value works — report
/// sizes concentrate; fixed so reruns print identical columns).
const WIRE_SAMPLE_SEED: u64 = 0x317E;

/// Mean encoded report size over a leading sample of the population,
/// measured through the fused wire path.
fn sample_wire_bytes(server: &dyn DynHhProtocol, data: &[u64]) -> f64 {
    let sample = &data[..data.len().min(WIRE_SAMPLE_CAP)];
    let mut buf = Vec::new();
    server.respond_encode_batch(0, sample, WIRE_SAMPLE_SEED, &mut buf);
    buf.len() as f64 / sample.len().max(1) as f64
}

fn drive(server: &mut dyn DynHhProtocol, data: &[u64], seed: u64, driver: Driver) -> RowRun {
    match driver {
        Driver::Serial | Driver::Batched => {
            let wire_bytes_per_user = sample_wire_bytes(&*server, data);
            let run = if driver == Driver::Serial {
                run_dyn_heavy_hitter(server, data, seed)
            } else {
                run_dyn_heavy_hitter_batched(server, data, seed, &BatchPlan::default())
            };
            RowRun {
                run,
                wire_bytes_per_user,
            }
        }
        Driver::Distributed => {
            let d = run_dyn_heavy_hitter_distributed(server, data, seed, &DistPlan::default());
            RowRun {
                wire_bytes_per_user: d.wire_bytes_per_user(),
                run: ProtocolRun {
                    estimates: d.estimates,
                    n: d.n,
                    client_total: d.client_total,
                    server_ingest: d.server_ingest + d.server_merge,
                    server_finish: d.server_finish,
                    threads: d.threads,
                    report_bits: d.report_bits,
                    memory_bytes: d.memory_bytes,
                    detection_threshold: d.detection_threshold,
                },
            }
        }
    }
}

/// One serial-vs-batched wall-clock comparison of a registry protocol.
/// Returns the JSON record and the serial estimates (reused by
/// [`merge_scaling`] as the equality reference, so the serial run
/// happens once).
fn compare_at_scale(
    name: &str,
    spec: &ProtocolSpec,
    data: &[u64],
    seed: u64,
) -> (String, Vec<(u64, f64)>) {
    let serial = {
        let mut s = build_hh(name, spec).expect("registered protocol");
        run_dyn_heavy_hitter(s.as_mut(), data, seed)
    };
    let plan = BatchPlan::default();
    let batched = {
        let mut s = build_hh(name, spec).expect("registered protocol");
        run_dyn_heavy_hitter_batched(s.as_mut(), data, seed, &plan)
    };
    assert_eq!(
        serial.estimates, batched.estimates,
        "{name}: batched output diverged from serial"
    );
    let speedup = serial.total_time().as_secs_f64() / batched.total_time().as_secs_f64();
    println!(
        "  {name:>16}: serial {} | batched {} ({} threads, chunk {}) | speedup x{speedup:.2}",
        fmt_dur(serial.total_time()),
        fmt_dur(batched.total_time()),
        batched.threads,
        plan.chunk_size,
    );
    let json = JsonObject::new()
        .str("protocol", name)
        .int("n", data.len() as u64)
        .int("threads", batched.threads as u64)
        .int("chunk_size", plan.chunk_size as u64)
        .num("serial_total_secs", serial.total_time().as_secs_f64())
        .num("serial_client_secs", serial.client_total.as_secs_f64())
        .num("serial_ingest_secs", serial.server_ingest.as_secs_f64())
        .num("serial_finish_secs", serial.server_finish.as_secs_f64())
        .num("batched_total_secs", batched.total_time().as_secs_f64())
        .num("batched_client_secs", batched.client_total.as_secs_f64())
        .num("batched_ingest_secs", batched.server_ingest.as_secs_f64())
        .num("batched_finish_secs", batched.server_finish.as_secs_f64())
        .num("speedup_total", speedup)
        .build();
    (json, serial.estimates)
}

/// Collector-count scaling: distributed runs at k ∈ {1, 2, 8}, each
/// checked bit-for-bit against the caller's serial reference estimates,
/// returned as JSON records.
fn merge_scaling(
    name: &str,
    spec: &ProtocolSpec,
    data: &[u64],
    seed: u64,
    serial: &[(u64, f64)],
) -> Vec<String> {
    let mut out = Vec::new();
    for collectors in [1usize, 2, 8] {
        let mut s = build_hh(name, spec).expect("registered protocol");
        let run = run_dyn_heavy_hitter_distributed(
            s.as_mut(),
            data,
            seed,
            &DistPlan::with_collectors(collectors),
        );
        assert_eq!(
            run.estimates, serial,
            "{name}: distributed output diverged at k = {collectors}"
        );
        println!(
            "  {name:>16} @ k={collectors}: wire {:.2} B/user | ingest {} | merge {} | total {}",
            run.wire_bytes_per_user(),
            fmt_dur(run.server_ingest),
            fmt_dur(run.server_merge),
            fmt_dur(run.total_time()),
        );
        out.push(
            JsonObject::new()
                .str("protocol", name)
                .int("n", data.len() as u64)
                .int("collectors", collectors as u64)
                .int("wire_bytes_total", run.wire_bytes)
                .num("wire_bytes_per_user", run.wire_bytes_per_user())
                .num("client_secs", run.client_total.as_secs_f64())
                .num("ingest_secs", run.server_ingest.as_secs_f64())
                .num("merge_secs", run.server_merge.as_secs_f64())
                .num("finish_secs", run.server_finish.as_secs_f64())
                .num("total_secs", run.total_time().as_secs_f64())
                .build(),
        );
    }
    out
}

/// One streaming-engine measurement: `epochs` epochs of a drifting
/// (Zipf-ramp, jittered-arrival) workload over a `collectors`-node
/// fleet with per-epoch checkpoints, one collector crash after
/// `epochs/2` epochs and recovery one epoch later — verified bit-for-bit
/// against the serial one-shot run, reported as a JSON record.
fn stream_run(name: &str, spec: &ProtocolSpec, n_per_epoch: usize, seed: u64) -> String {
    let epochs = 6u64;
    let collectors = 4usize;
    let workload = StreamWorkload::zipf_ramp(spec.domain, 1.05, 1.4, epochs as usize, 0.15);
    let plan = StreamPlan {
        epoch_size: n_per_epoch,
        checkpoint_every: 1,
        dist: DistPlan {
            collectors,
            chunk_size: (n_per_epoch / 8).max(1),
            ..DistPlan::default()
        },
    };

    let server = build_hh(name, spec).expect("registered protocol");
    let mut engine = StreamEngine::new(DynHhStream(server.as_ref()), plan, seed);
    let mut all_data = Vec::new();
    let mut recovery_secs = 0.0;
    for epoch in 0..epochs {
        let batch = workload.generate_epoch(epoch, n_per_epoch, seed ^ 0x57);
        engine.ingest_epoch(&batch);
        all_data.extend_from_slice(&batch);
        if epoch == epochs / 2 {
            engine.kill_collector(1);
        }
        if epoch == epochs / 2 + 1 {
            recovery_secs = engine.recover_collector(1).elapsed.as_secs_f64();
        }
    }
    // A cold + warm mid-stream query pair: the cold query folds the
    // durable view at the current checkpoint stamp once, the warm
    // repeat answers from the memoized fold — their finish-phase
    // counters land in the record below.
    let mut probe = build_hh(name, spec).expect("registered protocol");
    let cold = engine.finish_at_epoch(probe.as_mut());
    let mut probe = build_hh(name, spec).expect("registered protocol");
    let warm = engine.finish_at_epoch(probe.as_mut());
    assert_eq!(cold, warm, "{name}: warm mid-stream query diverged");
    let snapshot_sizes = engine.snapshot_sizes();
    let snapshot_total: usize = snapshot_sizes.iter().flatten().sum();
    let (shard, stats) = engine.into_live_shard();
    let mut server = server;
    server.finish_shard(shard);
    let estimates = server.finish();

    let serial = {
        let mut s = build_hh(name, spec).expect("registered protocol");
        run_dyn_heavy_hitter(s.as_mut(), &all_data, seed).estimates
    };
    assert_eq!(estimates, serial, "{name}: streamed output diverged");

    let ingest_secs = (stats.client_total + stats.ingest_total).as_secs_f64();
    let throughput = stats.users as f64 / ingest_secs.max(1e-9);
    let checkpoint_mean = stats.checkpoint_total.as_secs_f64() / stats.checkpoints.max(1) as f64;
    println!(
        "  {name:>16}: {} users / {} epochs | {:.0} users/s | snapshot {:.1} KiB/collector \
         | checkpoint {} (mean) | recovery {} ({} reports replayed)",
        stats.users,
        stats.epochs,
        throughput,
        snapshot_total as f64 / collectors as f64 / 1024.0,
        fmt_dur(std::time::Duration::from_secs_f64(checkpoint_mean)),
        fmt_dur(std::time::Duration::from_secs_f64(recovery_secs)),
        stats.replayed_reports,
    );
    let phase = FinishPhase::from_stats(&stats);
    println!(
        "  {:>16}  finish phase: {} queries ({} cached) | fold {} | scratch reuse {:.0}%",
        "",
        phase.queries,
        phase.cache_hits,
        fmt_dur(std::time::Duration::from_secs_f64(phase.fold_secs)),
        100.0 * phase.scratch_reuse_rate(),
    );
    JsonObject::new()
        .str("protocol", name)
        .int("n", stats.users)
        .int("epochs", stats.epochs)
        .int("collectors", collectors as u64)
        .int("wire_bytes_total", stats.wire_bytes)
        .num(
            "wire_bytes_per_user",
            stats.wire_bytes as f64 / stats.users.max(1) as f64,
        )
        .int("snapshot_bytes_total", snapshot_total as u64)
        .num(
            "snapshot_bytes_per_collector",
            snapshot_total as f64 / collectors as f64,
        )
        .int("checkpoints", stats.checkpoints)
        .num(
            "checkpoint_secs_total",
            stats.checkpoint_total.as_secs_f64(),
        )
        .num("checkpoint_secs_mean", checkpoint_mean)
        .num("recovery_secs", recovery_secs)
        .int("replayed_reports", stats.replayed_reports)
        .num("epoch_ingest_secs", ingest_secs)
        .num("epoch_users_per_sec", throughput)
        .int("finish_queries", phase.queries)
        .num("finish_secs_total", phase.finish_secs)
        .num("fold_secs", phase.fold_secs)
        .int("finish_cache_hits", phase.cache_hits)
        .int("scratch_reused", phase.scratch_reused)
        .int("scratch_fresh", phase.scratch_fresh)
        .build()
}

/// One fused-vs-legacy ingest throughput measurement, single-threaded
/// (so the comparison is pure per-user work, not scheduling):
///
/// * **legacy** — `respond_batch` materializes the chunk's reports,
///   `encode_into` frames them, the collector decodes every frame back
///   into a report vec and `absorb`s it (the pre-zero-copy pipeline);
/// * **fused** — `respond_encode_batch` samples straight into one
///   reused wire buffer and the collector folds the borrowed frames via
///   `absorb_wire` — no report vec on either side, no steady-state
///   allocation.
///
/// The two shards are checked bit-for-bit equal through their snapshot
/// encoding; the throughput records (users/sec and MB/s) land in the
/// JSON document so the speedup is tracked across PRs, not asserted.
/// Necessarily typed (`MaterializingIngest`): the legacy path exists
/// only on the typed surface — a type-erased protocol has no reports to
/// materialize.
fn ingest_throughput<I: MaterializingIngest>(
    ingest: &I,
    name: &str,
    data: &[u64],
    chunk_size: usize,
    client_seed: u64,
) -> Vec<String> {
    // The two paths run interleaved (legacy, fused, legacy, fused, …)
    // for `REPS` rounds each after one unmeasured warmup pair, and the
    // min wall-clock per path is recorded — interleaving cancels slow
    // clock-frequency drift and the min strips scheduler noise, which
    // matters because the fastest paths finish a rep in milliseconds.
    const REPS: usize = 5;

    // Legacy path: respond → encode → decode → absorb.
    let run_legacy = || {
        let t0 = Instant::now();
        let mut shard = ingest.new_shard();
        let mut bytes_total = 0u64;
        for (c, xs) in data.chunks(chunk_size).enumerate() {
            let start = (c * chunk_size) as u64;
            let reports = ingest.respond_batch(start, xs, client_seed);
            let mut bytes = Vec::new();
            let lens = encode_reports(&reports, &mut bytes);
            bytes_total += bytes.len() as u64;
            let mut decoded = Vec::with_capacity(reports.len());
            let mut off = 0usize;
            for &len in &lens {
                decoded.push(
                    <I as MaterializingIngest>::Report::decode(&bytes[off..off + len as usize])
                        .expect("frame decodes"),
                );
                off += len as usize;
            }
            ingest.absorb(&mut shard, start, &decoded);
        }
        (t0.elapsed().as_secs_f64(), shard, bytes_total)
    };

    // Fused path: respond_encode_batch into one reused buffer →
    // absorb_wire over the borrowed frames.
    let run_fused = || {
        let t1 = Instant::now();
        let mut shard = ingest.new_shard();
        let mut bytes_total = 0u64;
        let mut buf: Vec<u8> = Vec::new();
        for (c, xs) in data.chunks(chunk_size).enumerate() {
            let start = (c * chunk_size) as u64;
            buf.clear();
            let lens = ingest.respond_encode_batch(start, xs, client_seed, &mut buf);
            bytes_total += buf.len() as u64;
            let frames = WireFrames::new(&buf, &lens).expect("well-framed chunk");
            ingest
                .absorb_wire(&mut shard, start, &frames)
                .expect("wire absorb");
        }
        (t1.elapsed().as_secs_f64(), shard, bytes_total)
    };

    let (_, mut legacy_shard, mut wire_bytes) = run_legacy();
    let (_, mut fused_shard, mut fused_bytes) = run_fused();
    let mut legacy_secs = f64::INFINITY;
    let mut fused_secs = f64::INFINITY;
    for _ in 0..REPS {
        let (secs, shard, bytes) = run_legacy();
        legacy_secs = legacy_secs.min(secs);
        legacy_shard = shard;
        wire_bytes = bytes;
        let (secs, shard, bytes) = run_fused();
        fused_secs = fused_secs.min(secs);
        fused_shard = shard;
        fused_bytes = bytes;
    }

    assert_eq!(fused_bytes, wire_bytes, "{name}: fused wire bytes diverged");
    assert_eq!(
        ingest.encode_shard(&fused_shard),
        ingest.encode_shard(&legacy_shard),
        "{name}: fused shard diverged from legacy"
    );

    let n = data.len() as f64;
    println!(
        "  {name:>16}: legacy {:>9.0} users/s ({:>6.1} MB/s) | fused {:>9.0} users/s ({:>6.1} MB/s) | x{:.2}",
        n / legacy_secs.max(1e-9),
        wire_bytes as f64 / 1e6 / legacy_secs.max(1e-9),
        n / fused_secs.max(1e-9),
        wire_bytes as f64 / 1e6 / fused_secs.max(1e-9),
        legacy_secs / fused_secs.max(1e-9),
    );
    let record = |path: &str, secs: f64| {
        JsonObject::new()
            .str("protocol", name)
            .str("path", path)
            .int("n", data.len() as u64)
            .int("chunk_size", chunk_size as u64)
            .int("wire_bytes", wire_bytes)
            .num("ingest_secs", secs)
            .num("users_per_sec", n / secs.max(1e-9))
            .num("mb_per_sec", wire_bytes as f64 / 1e6 / secs.max(1e-9))
            .build()
    };
    vec![record("legacy", legacy_secs), record("fused", fused_secs)]
}

/// One client-path throughput comparison: the word-kernel client
/// (`respond_encode_batch` riding the bit-parallel Bernoulli, one-draw
/// GRR and divide-free Lemire kernels over SplitMix per-user streams)
/// against the pre-kernel per-coin client it replaced — one `f64`
/// convert+compare per coin, a modulo per row pick, and a full RNG
/// construction per user, emulated by the caller's `legacy` closure
/// (the library path no longer exists).
///
/// The two paths run interleaved for `REPS` rounds each after one
/// unmeasured warmup pair and the min wall-clock per path is recorded
/// (see `ingest_throughput` for why). Correctness is pinned the only
/// way that is meaningful after a sanctioned coin-stream change: the
/// fused kernel bytes are checked bit-for-bit against the scalar kernel
/// path (`respond` with `client_rng`) over the same users — one kernel,
/// two entry points. The legacy emulation necessarily draws different
/// streams, so only its wall-clock is recorded. Records land in the
/// JSON document as `client` rows (users/sec).
///
/// `cell`, when given, times the protocol's per-user encoding work that
/// both paths share (the sketch's `coord_of` + `cell_of`) over the same
/// users, min of `REPS`; it lands in both records as `cell_secs`,
/// because the legacy/kernel ratio cannot see that layer.
fn client_throughput(
    name: &str,
    users: usize,
    legacy: impl Fn(&mut Vec<u8>),
    kernel: impl Fn(&mut Vec<u8>),
    kernel_serial: impl Fn(&mut Vec<u8>),
    cell: Option<&dyn Fn() -> u64>,
) -> Vec<String> {
    const REPS: usize = 5;
    let mut legacy_buf = Vec::new();
    let mut kernel_buf = Vec::new();
    let mut serial_buf = Vec::new();
    // Unmeasured warmup pair doubling as the bit-for-bit check.
    legacy(&mut legacy_buf);
    kernel(&mut kernel_buf);
    kernel_serial(&mut serial_buf);
    assert_eq!(
        kernel_buf, serial_buf,
        "{name}: fused kernel bytes diverged from the scalar kernel path"
    );
    let mut legacy_secs = f64::INFINITY;
    let mut kernel_secs = f64::INFINITY;
    for _ in 0..REPS {
        legacy_buf.clear();
        let t = Instant::now();
        legacy(&mut legacy_buf);
        legacy_secs = legacy_secs.min(t.elapsed().as_secs_f64());
        kernel_buf.clear();
        let t = Instant::now();
        kernel(&mut kernel_buf);
        kernel_secs = kernel_secs.min(t.elapsed().as_secs_f64());
    }
    let n = users as f64;
    println!(
        "  {name:>16}: legacy {:>10.0} users/s | kernel {:>10.0} users/s | x{:.2}",
        n / legacy_secs.max(1e-9),
        n / kernel_secs.max(1e-9),
        legacy_secs / kernel_secs.max(1e-9),
    );
    let cell_secs = cell.map(|cell| {
        let mut secs = f64::INFINITY;
        for _ in 0..REPS {
            let t = Instant::now();
            std::hint::black_box(cell());
            secs = secs.min(t.elapsed().as_secs_f64());
        }
        println!(
            "  {name:>16}: cell encoding {:>7.0} ns/user (shared by both paths: \
             the ratio above is sampling only)",
            secs * 1e9 / n
        );
        secs
    });
    let record = |path: &str, secs: f64| {
        let obj = JsonObject::new()
            .str("protocol", name)
            .str("path", path)
            .int("n", users as u64)
            .num("client_secs", secs)
            .num("users_per_sec", n / secs.max(1e-9));
        match cell_secs {
            Some(c) => obj.num("cell_secs", c),
            None => obj,
        }
        .build()
    };
    vec![record("legacy", legacy_secs), record("kernel", kernel_secs)]
}

/// The binary randomized-response keep rate at budget ε.
fn rr_keep(eps: f64) -> f64 {
    eps.exp() / (eps.exp() + 1.0)
}

/// The pre-kernel per-user Hashtogram draw: a modulo row pick plus one
/// `f64` randomized-response coin — the cost model the word kernels
/// replaced (the hash/sign work is shared with the kernel path, so the
/// comparison isolates the coin cost).
fn legacy_hashtogram_respond(
    oracle: &Hashtogram,
    group: u32,
    x: u64,
    keep: f64,
    rng: &mut impl Rng,
) -> HashtogramReport {
    let ell = rng.gen::<u64>() % oracle.params().buckets;
    let true_pm = i64::from(hadamard_entry(ell, oracle.bucket(group, x))) * oracle.sign(group, x);
    let true_bit = true_pm > 0;
    let sent = if rng.gen::<f64>() < keep {
        true_bit
    } else {
        !true_bit
    };
    HashtogramReport {
        ell,
        bit: if sent { 1 } else { -1 },
    }
}

/// One pipelined-vs-lock-step streaming throughput measurement over a
/// registry-dispatched (type-erased) protocol: the same population,
/// epoch schedule and checkpoint cadence driven end-to-end through
///
/// * **lockstep** — the epoch-barrier `StreamEngine` (parallel respond →
///   barrier → absorb → barrier → checkpoint), and
/// * **pipelined** — the collector-actor runtime (bounded queues, chunks
///   absorbed and snapshots encoded concurrently with encoding).
///
/// Final shards are checked bit-for-bit equal through the snapshot
/// codec; the records (users/sec plus the pipelined runtime's
/// backpressure stats) land in the JSON document as `pipeline` rows.
fn pipeline_throughput<I: StreamIngest + Sync + Copy>(
    ingest: I,
    name: &str,
    data: &[u64],
    plan: &StreamPlan,
    config: &PipelineConfig,
    seed: u64,
) -> Vec<String> {
    const REPS: usize = 7;

    let run_lockstep = || {
        let t = Instant::now();
        let mut engine = StreamEngine::new(ingest, plan.clone(), seed);
        engine.ingest_all(data);
        let (shard, stats) = engine.into_live_shard();
        (t.elapsed().as_secs_f64(), shard, stats)
    };
    let run_pipe = || {
        let t = Instant::now();
        let (shard, stats) = run_pipelined_all(&ingest, plan, config, seed, data);
        (t.elapsed().as_secs_f64(), shard, stats)
    };

    // Interleaved best-of-REPS after one unmeasured warmup pair, as in
    // `ingest_throughput`.
    let (_, mut lock_shard, _) = run_lockstep();
    let (_, mut pipe_shard, mut pipe_stats) = run_pipe();
    let mut lock_secs = f64::INFINITY;
    let mut pipe_secs = f64::INFINITY;
    for _ in 0..REPS {
        let (secs, shard, _) = run_lockstep();
        lock_secs = lock_secs.min(secs);
        lock_shard = shard;
        let (secs, shard, stats) = run_pipe();
        pipe_secs = pipe_secs.min(secs);
        pipe_shard = shard;
        pipe_stats = stats;
    }

    assert_eq!(
        ingest.encode_shard(&pipe_shard),
        ingest.encode_shard(&lock_shard),
        "{name}: pipelined shard diverged from lock-step"
    );

    let n = data.len() as f64;
    println!(
        "  {name:>16}: lockstep {:>9.0} users/s | pipelined {:>9.0} users/s | x{:.2} \
         | peak queue {} | stall {}",
        n / lock_secs.max(1e-9),
        n / pipe_secs.max(1e-9),
        lock_secs / pipe_secs.max(1e-9),
        pipe_stats.max_queue_occupancy,
        fmt_dur(pipe_stats.producer_stall),
    );
    let record = |path: &str, secs: f64| {
        JsonObject::new()
            .str("protocol", name)
            .str("path", path)
            .int("n", data.len() as u64)
            .int("epoch_size", plan.epoch_size as u64)
            .int("checkpoint_every", plan.checkpoint_every as u64)
            .int("collectors", plan.dist.collectors as u64)
            .int("chunk_size", plan.dist.chunk_size as u64)
            .int("queue_depth", config.queue_depth as u64)
            .int("workers", config.workers as u64)
            .num("ingest_secs", secs)
            .num("users_per_sec", n / secs.max(1e-9))
    };
    vec![
        record("lockstep", lock_secs).build(),
        record("pipelined", pipe_secs)
            .int("max_queue_occupancy", pipe_stats.max_queue_occupancy as u64)
            .num(
                "producer_stall_secs",
                pipe_stats.producer_stall.as_secs_f64(),
            )
            .build(),
    ]
}

/// One serial-vs-parallel finish (server decode) measurement of a
/// registry heavy-hitter protocol: the population is ingested once
/// through the fused wire path and the merged shard snapshot-encoded
/// once; each rep then rebuilds the server, re-decodes that snapshot
/// and times `finish_with` alone — the forced-serial scratch against
/// the auto-threaded one — order-alternated, median-of-REPS leg times
/// with the speedup taken as the median of per-rep paired ratios, after
/// an unmeasured warmup pair, with the two outputs checked bit-for-bit
/// equal.
fn finish_throughput(name: &str, spec: &ProtocolSpec, data: &[u64], seed: u64) -> Vec<String> {
    // Rep count adapts to the protocol's finish cost: the two legs run
    // identical instructions when the box has one hardware thread, so
    // the signal is at the noise floor and the paired-ratio median
    // needs as many pairs as a ~10 s budget affords (odd, so both
    // orderings of the alternating pair appear equally often up to one).
    const MIN_REPS: usize = 9;
    const MAX_REPS: usize = 41;
    const TARGET_SECS: f64 = 10.0;

    // Ingest once; every timed rep re-hydrates from this snapshot
    // instead of re-running the client + ingest phases, so the clock
    // covers exactly the decode the tentpole parallelized.
    let shard_bytes = {
        let server = build_hh(name, spec).expect("registered protocol");
        let ingest = DynHhStream(server.as_ref());
        let chunk = 1usize << 12;
        let mut shard = ingest.new_shard();
        let mut buf = Vec::new();
        for (c, xs) in data.chunks(chunk).enumerate() {
            let start = (c * chunk) as u64;
            buf.clear();
            let lens = ingest.respond_encode_batch(start, xs, seed, &mut buf);
            let frames = WireFrames::new(&buf, &lens).expect("well-framed chunk");
            ingest
                .absorb_wire(&mut shard, start, &frames)
                .expect("wire absorb");
        }
        let mut bytes = Vec::new();
        ingest.encode_shard_into(&shard, &mut bytes);
        bytes
    };

    // Both legs share ONE scratch and differ only in its `threads`
    // knob: with two scratch objects the comparison also measures the
    // heap/page placement their pooled buffers happened to get, which
    // shows up as a persistent phantom percent-level edge for one
    // object (an A/B control with identical knobs reproduces it).
    // `FINISH_BENCH_AB_CONTROL` keeps the "parallel" leg's knob serial
    // too — a harness self-check that must center on x1.00.
    let par_threads = if std::env::var_os("FINISH_BENCH_AB_CONTROL").is_some() {
        1
    } else {
        0
    };
    let mut scratch = FinishScratch::serial();
    let mut run = |threads: usize| {
        let mut server = build_hh(name, spec).expect("registered protocol");
        let shard = server.decode_shard(&shard_bytes).expect("snapshot decodes");
        server.finish_shard(shard);
        scratch.threads = threads;
        let t = Instant::now();
        let estimates = server.finish_with(&mut scratch);
        (t.elapsed().as_secs_f64(), estimates)
    };

    let (warmup_secs, reference) = run(1);
    let (_, par_est) = run(par_threads);
    assert_eq!(
        par_est, reference,
        "{name}: parallel finish diverged from serial"
    );
    let reps =
        ((TARGET_SECS / (2.0 * warmup_secs.max(1e-9))) as usize).clamp(MIN_REPS, MAX_REPS) | 1;
    let mut serial_samples = Vec::with_capacity(reps);
    let mut par_samples = Vec::with_capacity(reps);
    let mut pair_ratios = Vec::with_capacity(reps);
    // Alternate which leg runs first each rep: whichever run executes
    // second in a pair inherits the first's cache/allocator state, so a
    // fixed order shows a phantom percent-level edge for one leg. The
    // speedup is then the median of the *per-rep* serial/parallel
    // ratios — each ratio compares two adjacent-in-time runs (immune to
    // slow machine drift across the section) and the alternation puts
    // both legs in both positions, so position bias cancels at the
    // median. `FINISH_BENCH_TRACE=1` dumps every raw sample.
    for rep in 0..reps {
        let mut secs_of = [0.0f64; 2]; // [serial, parallel] this rep
        let legs: [(usize, usize, &str); 2] = if rep % 2 == 0 {
            [(1, 0, "serial"), (par_threads, 1, "parallel")]
        } else {
            [(par_threads, 1, "parallel"), (1, 0, "serial")]
        };
        for (pos, (threads, slot, leg)) in legs.into_iter().enumerate() {
            let (secs, est) = run(threads);
            if std::env::var_os("FINISH_BENCH_TRACE").is_some() {
                eprintln!("TRACE {name} rep={rep} pos={pos} leg={leg} secs={secs:.6}");
            }
            secs_of[slot] = secs;
            assert_eq!(est, reference, "{name}: {leg} finish diverged");
        }
        serial_samples.push(secs_of[0]);
        par_samples.push(secs_of[1]);
        pair_ratios.push(secs_of[0] / secs_of[1].max(1e-9));
    }
    let median = |samples: &mut Vec<f64>| {
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
        samples[samples.len() / 2]
    };
    let serial_secs = median(&mut serial_samples);
    let par_secs = median(&mut par_samples);
    let speedup = median(&mut pair_ratios);

    println!(
        "  {name:>16}: serial finish {} | parallel finish {} ({} threads) | x{:.2}",
        fmt_dur(std::time::Duration::from_secs_f64(serial_secs)),
        fmt_dur(std::time::Duration::from_secs_f64(par_secs)),
        rayon::current_num_threads(),
        speedup,
    );
    let record = |path: &str, secs: f64| {
        JsonObject::new()
            .str("protocol", name)
            .str("path", path)
            .int("n", data.len() as u64)
            .int("domain", spec.domain)
            .num("finish_secs", secs)
    };
    let mut serial = record("serial", serial_secs);
    if name == "expander_sketch" {
        let phases = standout_phases(spec, &shard_bytes);
        println!(
            "  {:>16}  stand-out (serial): materialize {} | transform {} | sweep {}",
            "",
            fmt_dur(phases.materialize),
            fmt_dur(phases.transform),
            fmt_dur(phases.sweep),
        );
        serial = serial
            .num(
                "standout_materialize_secs",
                phases.materialize.as_secs_f64(),
            )
            .num("standout_transform_secs", phases.transform.as_secs_f64())
            .num("standout_sweep_secs", phases.sweep.as_secs_f64());
    }
    vec![
        serial.build(),
        record("parallel", par_secs)
            .int("threads", rayon::current_num_threads() as u64)
            .num("speedup_vs_serial", speedup)
            .build(),
    ]
}

/// The expander sketch's stand-out step split into its sub-phases
/// (materialize / transform / sweep), profiled serially on the same
/// snapshot `finish_throughput` times: the per-phase median of a few
/// profiles, so a finish change can name the layer it moved.
fn standout_phases(spec: &ProtocolSpec, shard_bytes: &[u8]) -> StandoutPhases {
    const REPS: usize = 3;
    let mut sketch = ExpanderSketch::new(
        SketchParams::optimal(spec.n, spec.domain_bits(), spec.eps, spec.beta),
        spec.seed,
    );
    sketch.finish_shard(SketchShard::decode_shard(shard_bytes).expect("snapshot decodes"));
    let mut runs: Vec<StandoutPhases> = (0..REPS).map(|_| sketch.profile_standout()).collect();
    let mut median = |phase: fn(&StandoutPhases) -> std::time::Duration| {
        runs.sort_by_key(phase);
        phase(&runs[REPS / 2])
    };
    StandoutPhases {
        materialize: median(|p| p.materialize),
        transform: median(|p| p.transform),
        sweep: median(|p| p.sweep),
    }
}

/// Incremental vs from-scratch mid-stream finalization on the streaming
/// engine: ingest a checkpointed stream once, then time three ways of
/// answering the same query — (a) from scratch (decode every
/// collector's snapshot, merge, fresh finish: what every query cost
/// before the fold cache), (b) the first incremental `finish_at_epoch`
/// at a new checkpoint stamp (pays the fold once, into the warm
/// scratch), and (c) a warm repeat (memoized answer). Best-of-REPS
/// each, all three outputs checked bit-for-bit equal.
fn incremental_finish(
    name: &str,
    spec: &ProtocolSpec,
    n_per_epoch: usize,
    seed: u64,
) -> Vec<String> {
    const REPS: usize = 5;
    let collectors = 4usize;
    let server = build_hh(name, spec).expect("registered protocol");
    let plan = StreamPlan {
        epoch_size: n_per_epoch,
        checkpoint_every: 1,
        dist: DistPlan {
            collectors,
            chunk_size: (n_per_epoch / 8).max(1),
            ..DistPlan::default()
        },
    };
    let mut engine = StreamEngine::new(DynHhStream(server.as_ref()), plan, seed);
    let data = Workload::zipf(spec.domain, 1.2).generate(spec.n as usize, seed ^ 0x77);
    engine.ingest_all(&data);

    let fresh = || build_hh(name, spec).expect("registered protocol");
    let run_scratch = |engine: &StreamEngine<DynHhStream<'_>>| {
        let t = Instant::now();
        let mut s = fresh();
        let shard = engine.snapshot_shard().expect("cadence checkpointed");
        s.finish_shard(shard);
        let est = s.finish();
        (t.elapsed().as_secs_f64(), est)
    };

    let (_, reference) = run_scratch(&engine);
    let mut scratch_secs = f64::INFINITY;
    let mut cold_secs = f64::INFINITY;
    let mut warm_secs = f64::INFINITY;
    for _ in 0..REPS {
        let (secs, est) = run_scratch(&engine);
        scratch_secs = scratch_secs.min(secs);
        assert_eq!(
            est, reference,
            "{name}: from-scratch query not reproducible"
        );
        // A checkpoint with an unchanged stream re-stamps the durable
        // view, so the next query is genuinely cold (re-folds).
        let _ = engine.checkpoint();
        let mut s = fresh();
        let t = Instant::now();
        let est = engine.finish_at_epoch(s.as_mut());
        cold_secs = cold_secs.min(t.elapsed().as_secs_f64());
        assert_eq!(est, reference, "{name}: cold incremental query diverged");
        let mut s = fresh();
        let t = Instant::now();
        let est = engine.finish_at_epoch(s.as_mut());
        warm_secs = warm_secs.min(t.elapsed().as_secs_f64());
        assert_eq!(est, reference, "{name}: warm incremental query diverged");
    }

    println!(
        "  {name:>16}: from-scratch {} | incremental cold {} (x{:.2}) | warm {} (x{:.0})",
        fmt_dur(std::time::Duration::from_secs_f64(scratch_secs)),
        fmt_dur(std::time::Duration::from_secs_f64(cold_secs)),
        scratch_secs / cold_secs.max(1e-9),
        fmt_dur(std::time::Duration::from_secs_f64(warm_secs)),
        scratch_secs / warm_secs.max(1e-9),
    );
    let record = |path: &str, secs: f64| {
        JsonObject::new()
            .str("protocol", name)
            .str("path", path)
            .int("n", spec.n)
            .int("domain", spec.domain)
            .int("collectors", collectors as u64)
            .num("finish_secs", secs)
            .num("speedup_vs_from_scratch", scratch_secs / secs.max(1e-9))
            .build()
    };
    vec![
        record("from_scratch", scratch_secs),
        record("incremental_cold", cold_secs),
        record("incremental_warm", warm_secs),
    ]
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let serial = args.iter().any(|a| a == "--serial");
    let distributed = args.iter().any(|a| a == "--distributed");
    let stream = args.iter().any(|a| a == "--stream");
    let ingest_bench = args.iter().any(|a| a == "--ingest-bench");
    let pipeline_bench = args.iter().any(|a| a == "--pipeline");
    let finish_bench = args.iter().any(|a| a == "--finish-bench");
    let client_bench = args.iter().any(|a| a == "--client-bench");
    let quick = args.iter().any(|a| a == "--quick");
    let json_out_value = args.iter().position(|a| a == "--json-out").map(|i| {
        let path = args
            .get(i + 1)
            .unwrap_or_else(|| panic!("--json-out needs a path"));
        assert!(
            !path.starts_with("--"),
            "--json-out needs a path, got flag-like value {path:?}"
        );
        path.clone()
    });
    // --json-out implies --json: asking for an output path is asking for
    // the JSON phase.
    let emit_json = args.iter().any(|a| a == "--json") || json_out_value.is_some();
    // A baseline write always includes every throughput comparison: the
    // JSON document is written whole, so omitting rows would erase the
    // tracked history.
    let stream = stream || emit_json;
    let ingest_bench = ingest_bench || emit_json;
    let pipeline_bench = pipeline_bench || emit_json;
    let finish_bench = finish_bench || emit_json;
    let client_bench = client_bench || emit_json;
    let json_out = json_out_value.unwrap_or_else(|| "BENCH_table1.json".to_string());
    assert!(
        !(serial && distributed),
        "--serial and --distributed are mutually exclusive"
    );
    let driver = if serial {
        Driver::Serial
    } else if distributed {
        Driver::Distributed
    } else {
        Driver::Batched
    };

    banner(
        "T1.time / T1.mem / T1.comm — Table 1 resource rows",
        "ours,[3]: O~(n) server, O~(1) user, O~(sqrt n) memory, O(1) comm; [4]: O(n) memory, O(n) per query",
    );
    println!(
        "driver: {}\n",
        match driver {
            Driver::Serial => "serial (--serial)",
            Driver::Batched => "batched parallel pipeline (default)",
            Driver::Distributed =>
                "distributed collector fleet (--distributed; 8 nodes, wire round-trip, tree merge)",
        }
    );
    let bits = 20u32;
    let eps = 4.0;
    let beta = 0.1;
    let logns: &[u32] = if quick { &[12, 13] } else { &[14, 16, 18] };

    // The registry-dispatched heavy-hitter rows: display label, registry
    // name, construction seed, run seed, public-randomness note.
    let hh_rows: &[(&str, &str, u64, u64, &str)] = &[
        ("ours", "expander_sketch", 1, 2, "64 bits (one seed)"),
        ("bitstogram [3]", "bitstogram", 3, 4, "64 bits (one seed)"),
    ];

    let mut t = Table::new(&[
        "protocol",
        "n",
        "server",
        "user(mean)",
        "memory",
        "claim bits",
        "wire B/user",
        "pub rand",
    ]);
    for &logn in logns {
        let n = 1u64 << logn;
        let workload = Workload::zipf(1u64 << bits, 1.2);
        let data = workload.generate(n as usize, derive_seed(7, u64::from(logn)));
        let spec = |seed| ProtocolSpec {
            n,
            domain: 1u64 << bits,
            eps,
            beta,
            seed,
        };

        for &(display, name, build_seed, run_seed, pub_rand) in hh_rows {
            let mut s = build_hh(name, &spec(build_seed)).expect("registered protocol");
            let row = drive(s.as_mut(), &data, run_seed, driver);
            t.row(&[
                display.into(),
                format!("2^{logn}"),
                fmt_dur(row.run.server_time()),
                fmt_dur(row.run.user_time()),
                format!("{} KiB", row.run.memory_bytes / 1024),
                row.run.report_bits.to_string(),
                format!("{:.2}", row.wire_bytes_per_user),
                pub_rand.into(),
            ]);
        }

        // Bassily–Smith FO with w = n rows; query cost O(n) each. A
        // full heavy-hitter scan would be n·|X| — measure a 512-query
        // slice and extrapolate.
        let mut o = build_oracle("bassily_smith", &spec(5)).expect("registered oracle");
        let queries: Vec<u64> = (0..512u64).collect();
        // (server_build, client_total, query_total, wire B/user) under
        // the same driver as the other rows.
        let (server_build, client_total, query_total, wire, mem, bits_claim) = match driver {
            Driver::Serial | Driver::Batched => {
                let sample = &data[..data.len().min(WIRE_SAMPLE_CAP)];
                let mut buf = Vec::new();
                o.respond_encode_batch(0, sample, WIRE_SAMPLE_SEED, &mut buf);
                let wire = buf.len() as f64 / sample.len().max(1) as f64;
                let run = if serial {
                    run_dyn_oracle(o.as_mut(), &data, &queries, 6)
                } else {
                    run_dyn_oracle_batched(o.as_mut(), &data, &queries, 6, &BatchPlan::default())
                };
                (
                    run.server_build,
                    run.client_total,
                    run.query_total,
                    wire,
                    run.memory_bytes,
                    run.report_bits,
                )
            }
            Driver::Distributed => {
                let run = run_dyn_oracle_distributed(
                    o.as_mut(),
                    &data,
                    &queries,
                    6,
                    &DistPlan::default(),
                );
                (
                    run.server_build,
                    run.client_total,
                    run.query_total,
                    run.wire_bytes_per_user(),
                    run.memory_bytes,
                    run.report_bits,
                )
            }
        };
        let full_scan = query_total.as_secs_f64() / 512.0 * (1u64 << bits) as f64;
        t.row(&[
            "bassily-smith [4]".into(),
            format!("2^{logn}"),
            format!(
                "{} (+{} scan-extrapolated)",
                fmt_dur(server_build),
                fmt_dur(std::time::Duration::from_secs_f64(full_scan))
            ),
            fmt_dur(std::time::Duration::from_nanos(
                (client_total.as_nanos() as u64) / n,
            )),
            format!("{} KiB", mem / 1024),
            bits_claim.to_string(),
            format!("{wire:.2}"),
            "64 bits (hash-compressed Phi)".into(),
        ]);
    }
    t.print();
    println!("\nnotes:");
    if driver == Driver::Batched {
        println!("  - batched driver: user(mean) is the parallel respond phase's wall-clock / n,");
        println!("    a lower bound on per-user compute at >1 thread; use --serial for the");
        println!("    paper's per-user cost metric.");
    }
    println!("  - all rows dispatch through hh_sim::registry (type-erased protocols);");
    println!("    the serial driver ingests per-user through the same wire path.");
    println!("  - claim bits is report_bits() (the protocol's worst-case message claim);");
    println!("    wire B/user is the measured mean size of the actual encoded reports");
    println!("    (end-to-end through the collector fleet under --distributed). The");
    println!("    wire_conformance tests pin wire <= ceil(claim / 8) bytes per report.");
    println!("  - [4]'s Table-1 entries (n^1.5 user, n^2.5 server, n^1.5 public coins)");
    println!("    assume explicitly materialized public randomness; our implementation");
    println!("    hash-compresses Phi (the option their footnote 2 concedes), so the");
    println!("    measured gap shows in memory (linear in n) and the scan-extrapolated");
    println!("    heavy-hitter search time (linear in |X|), not in raw report cost.");
    println!("  - ours/[3]: user time flat in n, memory ~sqrt(n) — the Table 1 shapes.");

    let mut stream_records = Vec::new();
    if stream {
        let n_per_epoch = if quick { 1usize << 12 } else { 1 << 16 };
        let n_total = 6 * n_per_epoch;
        println!(
            "\n— streaming epoch engine (6 epochs x ~{n_per_epoch} users, 4 collectors, \
             Zipf-ramp drift, per-epoch checkpoints, 1 crash + recovery) —\n"
        );
        stream_records.push(stream_run(
            "expander_sketch",
            &ProtocolSpec {
                n: n_total as u64,
                domain: 1u64 << bits,
                eps,
                beta,
                seed: 21,
            },
            n_per_epoch,
            22,
        ));
        stream_records.push(stream_run(
            "scan",
            &ProtocolSpec {
                n: n_total as u64,
                domain: 1u64 << 16,
                eps,
                beta,
                seed: 23,
            },
            n_per_epoch,
            24,
        ));
    }

    let mut ingest_records = Vec::new();
    if ingest_bench {
        let n = if quick { 1usize << 14 } else { 1 << 20 };
        let chunk = 1usize << 13;
        println!(
            "\n— ingest throughput at n = {n}: fused (respond_encode_batch + absorb_wire) \
             vs legacy (respond → encode → decode → absorb), single-threaded —\n"
        );
        let data = Workload::zipf(1u64 << bits, 1.2).generate(n, 131);

        let p = SketchParams::optimal(n as u64, bits, eps, beta);
        let s = ExpanderSketch::new(p, 31);
        ingest_records.extend(ingest_throughput(
            &HhStream(&s),
            "expander_sketch",
            &data,
            chunk,
            0x1D1,
        ));

        let scan_domain = 1u64 << 16;
        let scan_data: Vec<u64> = data.iter().map(|&x| x & (scan_domain - 1)).collect();
        let sp = ScanParams::new(n as u64, scan_domain, eps, beta);
        let s = ScanHeavyHitters::new(sp, 32);
        ingest_records.extend(ingest_throughput(
            &HhStream(&s),
            "scan",
            &scan_data,
            chunk,
            0x1D2,
        ));

        // KRR's per-user work is one GRR draw and a one-byte frame, so a
        // single pass over n finishes in tens of milliseconds — too
        // short to resolve a few-percent delta. Give it 4x the
        // population so the row measures the path, not the timer.
        let krr_data: Vec<u64> = data.iter().cycle().take(4 * n).map(|&x| x % 64).collect();
        let o = KrrOracle::new(64, eps);
        ingest_records.extend(ingest_throughput(
            &OracleStream(&o),
            "krr",
            &krr_data,
            chunk,
            0x1D3,
        ));

        // RAPPOR's per-user cost is Θ(|X|) — the fused path's win here is
        // skipping one dense bitvector allocation per user. Smaller n
        // keeps the row affordable.
        let rappor_n = n / 16;
        let rappor_data: Vec<u64> = data[..rappor_n].iter().map(|&x| x % 256).collect();
        let o = Rappor::new(256, eps);
        ingest_records.extend(ingest_throughput(
            &OracleStream(&o),
            "rappor",
            &rappor_data,
            chunk,
            0x1D4,
        ));
    }

    let mut client_records = Vec::new();
    if client_bench {
        let n = if quick { 1usize << 14 } else { 1 << 20 };
        let chunk = 1usize << 13;
        println!(
            "\n— client-path throughput at n = {n}: word-kernel sampling \
             (bit-parallel RR / one-draw GRR / Lemire rows over SplitMix \
             streams) vs the per-coin f64 client it replaced —\n"
        );
        let data = Workload::zipf(1u64 << bits, 1.2).generate(n, 191);

        // RAPPOR is the headline: Θ(|X|) coins per user collapse to
        // |X|/64 word draws. Same sizing rationale as the ingest row.
        {
            let rappor_n = n / 16;
            let rappor_data: Vec<u64> = data[..rappor_n].iter().map(|&x| x % 256).collect();
            let o = Rappor::new(256, eps);
            let seed = 0x1E1u64;
            let keep = o.keep_probability();
            let bytes = 256usize / 8;
            client_records.extend(client_throughput(
                "rappor",
                rappor_n,
                |out| {
                    for (i, &x) in rappor_data.iter().enumerate() {
                        let mut rng = seeded_rng(derive_seed(seed, i as u64));
                        let base = out.len();
                        out.resize(base + bytes, 0);
                        for j in 0..256u64 {
                            let truth = j == x;
                            let sent = if rng.gen::<f64>() < keep {
                                truth
                            } else {
                                !truth
                            };
                            if sent {
                                out[base + (j / 8) as usize] |= 1 << (j % 8);
                            }
                        }
                    }
                },
                |out| {
                    for (c, xs) in rappor_data.chunks(chunk).enumerate() {
                        o.respond_encode_batch((c * chunk) as u64, xs, seed, out);
                    }
                },
                |out| {
                    for (i, &x) in rappor_data.iter().enumerate() {
                        let rep = o.respond(i as u64, x, &mut client_rng(seed, i as u64));
                        out.extend_from_slice(&rep);
                    }
                },
                None,
            ));
        }

        // KRR: one GRR draw per user — 4x the population, as in the
        // ingest rows, so the row measures the path and not the timer.
        {
            let k = 64u64;
            let krr_data: Vec<u64> = data.iter().cycle().take(4 * n).map(|&x| x % k).collect();
            let o = KrrOracle::new(k, eps);
            let seed = 0x1E2u64;
            let p_true = o.randomizer().kernel().p_keep();
            client_records.extend(client_throughput(
                "krr",
                krr_data.len(),
                |out| {
                    for (i, &x) in krr_data.iter().enumerate() {
                        let mut rng = seeded_rng(derive_seed(seed, i as u64));
                        let v = if rng.gen::<f64>() < p_true {
                            x
                        } else {
                            // Skip-truth lie draw, the pre-kernel idiom.
                            let lie = rng.gen_range(0..k - 1);
                            lie + u64::from(lie >= x)
                        };
                        write_uint(out, v);
                    }
                },
                |out| {
                    for (c, xs) in krr_data.chunks(chunk).enumerate() {
                        o.respond_encode_batch((c * chunk) as u64, xs, seed, out);
                    }
                },
                |out| {
                    for (i, &x) in krr_data.iter().enumerate() {
                        let v = o.respond(i as u64, x, &mut client_rng(seed, i as u64));
                        write_uint(out, v);
                    }
                },
                None,
            ));
        }

        // Scan delegates its client to one Hashtogram — row pick + one
        // RR bit, the report shape every composite protocol shares.
        {
            let scan_domain = 1u64 << 16;
            let scan_data: Vec<u64> = data.iter().map(|&x| x & (scan_domain - 1)).collect();
            let s = ScanHeavyHitters::new(ScanParams::new(n as u64, scan_domain, eps, beta), 32);
            let seed = 0x1E3u64;
            let keep = rr_keep(s.oracle().params().eps);
            client_records.extend(client_throughput(
                "scan",
                n,
                |out| {
                    let o = s.oracle();
                    for (i, &x) in scan_data.iter().enumerate() {
                        let mut rng = seeded_rng(derive_seed(seed, i as u64));
                        let g = o.group_of(i as u64);
                        legacy_hashtogram_respond(o, g, x, keep, &mut rng).encode_into(out);
                    }
                },
                |out| {
                    for (c, xs) in scan_data.chunks(chunk).enumerate() {
                        s.respond_encode_batch((c * chunk) as u64, xs, seed, out);
                    }
                },
                |out| {
                    for (i, &x) in scan_data.iter().enumerate() {
                        s.respond(i as u64, x, &mut client_rng(seed, i as u64))
                            .encode_into(out);
                    }
                },
                None,
            ));
        }

        // The expander sketch: two Hashtogram reports per user (inner
        // cell + outer identity), each oracle at its own budget split.
        {
            let s = ExpanderSketch::new(SketchParams::optimal(n as u64, bits, eps, beta), 31);
            let seed = 0x1E4u64;
            let keep_inner = rr_keep(s.inner_oracle().params().eps);
            let keep_outer = rr_keep(s.outer_oracle().params().eps);
            client_records.extend(client_throughput(
                "expander_sketch",
                n,
                |out| {
                    for (i, &x) in data.iter().enumerate() {
                        let mut rng = seeded_rng(derive_seed(seed, i as u64));
                        let i = i as u64;
                        let m = s.coord_of(i);
                        let cell = s.cell_of(m, x);
                        let inner = s.inner_oracle();
                        let outer = s.outer_oracle();
                        SketchReport {
                            inner: legacy_hashtogram_respond(
                                inner,
                                inner.group_of(i),
                                cell,
                                keep_inner,
                                &mut rng,
                            ),
                            outer: legacy_hashtogram_respond(
                                outer,
                                outer.group_of(i),
                                x,
                                keep_outer,
                                &mut rng,
                            ),
                        }
                        .encode_into(out);
                    }
                },
                |out| {
                    for (c, xs) in data.chunks(chunk).enumerate() {
                        s.respond_encode_batch((c * chunk) as u64, xs, seed, out);
                    }
                },
                |out| {
                    for (i, &x) in data.iter().enumerate() {
                        s.respond(i as u64, x, &mut client_rng(seed, i as u64))
                            .encode_into(out);
                    }
                },
                Some(&|| {
                    data.iter().enumerate().fold(0u64, |acc, (i, &x)| {
                        acc ^ s.cell_of(s.coord_of(i as u64), x)
                    })
                }),
            ));
        }
    }

    let mut pipeline_records = Vec::new();
    if pipeline_bench {
        println!(
            "\n— streaming ingest throughput: pipelined collector runtime (actors + \
             bounded queues) vs lock-step StreamEngine (epoch barriers), \
             registry-dispatched —\n"
        );
        // Both runtimes simulate the same fleet at the same thread
        // budget: k = 2 collector nodes, and the lock-step engine's
        // parallel phases get `threads = k` workers — the pipelined side
        // runs 1 encoder + k long-lived actors. What the comparison then
        // isolates is the coordination machinery itself: lock-step pays
        // a scoped spawn + join barrier per phase per epoch and buffers
        // each whole epoch before absorbing; the actor runtime keeps its
        // threads alive and absorbs/checkpoints behind the encoder. On a
        // multi-core host the pipelined side additionally overlaps the
        // stages in real time.
        let plan = |n: usize, epoch_div: usize, chunk: usize| StreamPlan {
            epoch_size: (n / epoch_div).max(1),
            checkpoint_every: 1,
            dist: DistPlan {
                collectors: 2,
                chunk_size: chunk.min(n.max(1)),
                threads: 2,
                ..DistPlan::default()
            },
        };
        let config = |queue_depth| PipelineConfig {
            queue_depth,
            workers: 1,
        };
        let spec = |n: usize, domain, seed| ProtocolSpec {
            n: n as u64,
            domain,
            eps,
            beta,
            seed,
        };

        let n = if quick { 1usize << 13 } else { 1 << 19 };
        let data = Workload::zipf(1u64 << bits, 1.2).generate(n, 151);
        let s = build_hh("expander_sketch", &spec(n, 1u64 << bits, 41)).expect("registered");
        pipeline_records.extend(pipeline_throughput(
            DynHhStream(s.as_ref()),
            "expander_sketch",
            &data,
            &plan(n, 16, 1 << 14),
            &config(2),
            42,
        ));

        let scan_n = if quick { 1usize << 13 } else { 1 << 20 };
        let scan_domain = 1u64 << 16;
        let scan_data: Vec<u64> = data
            .iter()
            .cycle()
            .take(scan_n)
            .map(|&x| x & (scan_domain - 1))
            .collect();
        let s = build_hh("scan", &spec(scan_n, scan_domain, 43)).expect("registered");
        pipeline_records.extend(pipeline_throughput(
            DynHhStream(s.as_ref()),
            "scan",
            &scan_data,
            &plan(scan_n, 16, 1 << 14),
            &config(4),
            44,
        ));

        // As in the ingest rows: KRR is so cheap per user it needs a
        // larger population to resolve the runtime delta.
        let krr_n = if quick { 1usize << 14 } else { 1 << 21 };
        let krr_data: Vec<u64> = data.iter().cycle().take(krr_n).map(|&x| x % 64).collect();
        let o = build_oracle("krr", &spec(krr_n, 64, 45)).expect("registered");
        pipeline_records.extend(pipeline_throughput(
            DynOracleStream(o.as_ref()),
            "krr",
            &krr_data,
            &plan(krr_n, 16, 1 << 15),
            &config(4),
            46,
        ));

        // RAPPOR reports are dense bitvectors (32 B/user at |X| = 256);
        // many short epochs is the shape a live telemetry stream has,
        // and each one costs the lock-step engine two spawn/join
        // barriers plus a fully buffered epoch.
        let rappor_n = if quick { 1usize << 11 } else { 1 << 17 };
        let rappor_data: Vec<u64> = data
            .iter()
            .cycle()
            .take(rappor_n)
            .map(|&x| x % 256)
            .collect();
        let o = build_oracle("rappor", &spec(rappor_n, 256, 47)).expect("registered");
        pipeline_records.extend(pipeline_throughput(
            DynOracleStream(o.as_ref()),
            "rappor",
            &rappor_data,
            &plan(rappor_n, 32, 1 << 12),
            &config(2),
            48,
        ));

        // Finish-phase counters through the pipelined runtime: one
        // session that answers a cold + warm mid-stream query pair
        // after ingesting, recorded as a `finish_phase` row next to the
        // throughput rows.
        let fp_n = if quick { 1usize << 12 } else { 1 << 16 };
        let fp_spec = spec(fp_n, 1u64 << bits, 49);
        let fp_data: Vec<u64> = data.iter().cycle().take(fp_n).copied().collect();
        let s = build_hh("expander_sketch", &fp_spec).expect("registered");
        let ingest = DynHhStream(s.as_ref());
        let fp_plan = plan(fp_n, 8, 1 << 12);
        let (_, stats, ()) = run_pipelined(&ingest, &fp_plan, &config(2), 50, |session| {
            session.ingest_all(&fp_data);
            let mut probe = build_hh("expander_sketch", &fp_spec).expect("registered");
            let cold = session.finish_at_epoch(probe.as_mut());
            let mut probe = build_hh("expander_sketch", &fp_spec).expect("registered");
            let warm = session.finish_at_epoch(probe.as_mut());
            assert_eq!(cold, warm, "pipelined warm mid-stream query diverged");
        });
        let phase = FinishPhase::from_stats(&stats);
        println!(
            "  {:>16}: finish phase: {} queries ({} cached) | fold {} | scratch reuse {:.0}%",
            "expander_sketch",
            phase.queries,
            phase.cache_hits,
            fmt_dur(std::time::Duration::from_secs_f64(phase.fold_secs)),
            100.0 * phase.scratch_reuse_rate(),
        );
        pipeline_records.push(
            JsonObject::new()
                .str("protocol", "expander_sketch")
                .str("path", "finish_phase")
                .int("n", fp_n as u64)
                .int("finish_queries", phase.queries)
                .num("finish_secs_total", phase.finish_secs)
                .num("fold_secs", phase.fold_secs)
                .int("finish_cache_hits", phase.cache_hits)
                .int("scratch_reused", phase.scratch_reused)
                .int("scratch_fresh", phase.scratch_fresh)
                .build(),
        );
    }

    let mut finish_records = Vec::new();
    if finish_bench {
        println!(
            "\n— finish (server decode) wall-clock: parallel `finish_with` vs forced-serial, \
             registry-dispatched; incremental mid-stream finalization vs from-scratch —\n"
        );
        let spec = |n: usize, domain, seed| ProtocolSpec {
            n: n as u64,
            domain,
            eps,
            beta,
            seed,
        };

        // 2^16 keeps the slowest row (the expander's list-recovery
        // decode, ~seconds per finish) stable without the whole sweep
        // taking minutes per rep.
        let n = if quick { 1usize << 13 } else { 1 << 16 };
        let data = Workload::zipf(1u64 << bits, 1.2).generate(n, 171);
        finish_records.extend(finish_throughput(
            "expander_sketch",
            &spec(n, 1u64 << bits, 61),
            &data,
            62,
        ));
        finish_records.extend(finish_throughput(
            "bitstogram",
            &spec(n, 1u64 << bits, 63),
            &data,
            64,
        ));
        let scan_domain = 1u64 << 16;
        let scan_data: Vec<u64> = data.iter().map(|&x| x & (scan_domain - 1)).collect();
        finish_records.extend(finish_throughput(
            "scan",
            &spec(n, scan_domain, 65),
            &scan_data,
            66,
        ));
        // Bassily–Smith's finish is the domain scan at O(w) = O(n) per
        // query — n·|X| total work; small n and domain keep the row
        // affordable while still timing the parallelized sweep.
        let bs_n = if quick { 1usize << 10 } else { 1 << 13 };
        let bs_domain = 1u64 << 10;
        let bs_data: Vec<u64> = data[..bs_n].iter().map(|&x| x & (bs_domain - 1)).collect();
        finish_records.extend(finish_throughput(
            "bassily_smith_hh",
            &spec(bs_n, bs_domain, 67),
            &bs_data,
            68,
        ));

        let inc_n = if quick { 1usize << 12 } else { 1 << 14 };
        finish_records.extend(incremental_finish(
            "expander_sketch",
            &spec(inc_n, 1u64 << bits, 69),
            inc_n / 4,
            70,
        ));
    }

    let mut runs = Vec::new();
    let mut scaling = Vec::new();
    if emit_json {
        let n = if quick { 100_000usize } else { 1_000_000 };
        println!("\n— serial vs batched pipeline at n = {n} (planted workload) —\n");
        let workload = Workload::planted(1u64 << bits, vec![(0xBEEF, 0.3)]);
        let data = workload.generate(n, 97);

        let sketch_spec = ProtocolSpec {
            n: n as u64,
            domain: 1u64 << bits,
            eps,
            beta,
            seed: 11,
        };
        let (json, sketch_serial) = compare_at_scale("expander_sketch", &sketch_spec, &data, 12);
        runs.push(json);

        let scan_domain = 1u64 << 16;
        let scan_data: Vec<u64> = data.iter().map(|&x| x & (scan_domain - 1)).collect();
        let scan_spec = ProtocolSpec {
            n: n as u64,
            domain: scan_domain,
            eps,
            beta,
            seed: 13,
        };
        let (json, scan_serial) = compare_at_scale("scan", &scan_spec, &scan_data, 14);
        runs.push(json);

        println!("\n— collector-count scaling (wire round-trip, tree merge) —\n");
        scaling.extend(merge_scaling(
            "expander_sketch",
            &sketch_spec,
            &data,
            12,
            &sketch_serial,
        ));
        scaling.extend(merge_scaling(
            "scan",
            &scan_spec,
            &scan_data,
            14,
            &scan_serial,
        ));

        let doc = JsonObject::new()
            .str("experiment", "table1_resources_serial_vs_batched")
            .int("n", n as u64)
            .int("hardware_threads", rayon::current_num_threads() as u64)
            .str("workload", "planted(0.3 heavy over 2^20 / 2^16 domains)")
            .raw("runs", json_array(runs))
            .raw("merge_scaling", json_array(scaling))
            .raw("stream", json_array(stream_records))
            .raw("ingest", json_array(ingest_records))
            .raw("client", json_array(client_records))
            .raw("pipeline", json_array(pipeline_records))
            .raw("finish", json_array(finish_records))
            .build();
        std::fs::write(&json_out, format!("{doc}\n"))
            .unwrap_or_else(|e| panic!("write {json_out}: {e}"));
        println!("\nwrote {json_out}");
    } else if ingest_bench || client_bench || pipeline_bench || finish_bench {
        // Without --json the tracked baseline document would be written
        // with its comparison arrays empty — never clobber it; the
        // measurements (and their bit-for-bit shard checks) above are
        // the smoke value.
        println!(
            "\n(pass --json / --json-out to record the throughput rows into the JSON baseline)"
        );
    }
}
