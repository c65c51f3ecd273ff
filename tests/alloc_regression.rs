//! Allocation regressions in the steady-state streaming paths, pinned
//! with a counting global allocator: the expander sketch's client
//! encoder allocates per call, never per user; a cold parallel sketch
//! finish allocates the same count every call; repeated checkpoints
//! reuse their snapshot buffers, and repeated mid-stream queries
//! (`finish_at_epoch` / `snapshot_shard`) reuse their pooled decode
//! buffers — per-call allocation counts must stay flat, never grow with
//! call count.
//!
//! This file holds exactly one `#[test]`: the harness runs a binary's
//! tests on concurrent threads, and a second test's allocations would
//! race the counters.

use ldp_heavy_hitters::core::SketchShard;
use ldp_heavy_hitters::prelude::*;
use ldp_heavy_hitters::sim::{run_pipelined, HhStream, PipelineConfig, StreamEngine, StreamPlan};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// `System`, with every allocation event counted.
struct CountingAlloc;

static ALLOC_EVENTS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn events() -> u64 {
    ALLOC_EVENTS.load(Ordering::Relaxed)
}

#[test]
fn steady_state_checkpoints_and_queries_do_not_grow_allocations() {
    // ——— Client encoder ———
    // The fused sketch client (group hash, coordinate hashes, one
    // Reed–Solomon symbol, two oracle draws per user) writes into a
    // pre-reserved buffer: its allocation count per call must not grow
    // with the chunk length. The counter is process-wide, so each length
    // keeps its minimum over a few calls: a per-user allocation shows in
    // every call, a stray one from another thread does not.
    let sketch = ExpanderSketch::new(SketchParams::optimal(1 << 14, 20, 2.0, 0.1), 640);
    let users = Workload::planted(1 << 20, vec![(77, 0.3)]).generate(4_096, 639);
    let mut wire = Vec::with_capacity(64 * users.len());
    let _ = sketch.respond_encode_batch(0, &users, 9, &mut wire); // warm-up
    let mut per_call = Vec::new();
    for len in [256usize, 4_096] {
        let mut fewest = u64::MAX;
        for _ in 0..3 {
            wire.clear();
            let before = events();
            let lens = sketch.respond_encode_batch(0, &users[..len], 9, &mut wire);
            fewest = fewest.min(events() - before);
            assert_eq!(lens.len(), len);
        }
        per_call.push(fewest);
    }
    assert!(
        per_call[1] <= per_call[0],
        "sketch client allocations grew with chunk length (256 vs 4096 users): {per_call:?}"
    );

    // ——— Sketch finish ———
    // A cold `finish_with` on 2 workers: each worker materializes its
    // coordinates into one recycled table from a pool sized to the
    // worker count before the coordinate map, so which worker takes
    // which coordinate must not change the allocation count. Every call
    // finishes a fresh sketch holding the same snapshot; each round
    // keeps the minimum of 3 calls (the counter is process-wide), and
    // every round must count the same.
    let params = SketchParams::optimal(1 << 10, 12, 4.0, 0.1);
    let users = Workload::planted(1 << 12, vec![(0x77, 0.3)]).generate(1 << 10, 644);
    let proto = ExpanderSketch::new(params.clone(), 645);
    let mut shard = proto.new_shard();
    proto.absorb(&mut shard, 0, &proto.respond_batch(0, &users, 646));
    let mut snapshot = Vec::new();
    shard.encode_shard_into(&mut snapshot);
    let cold = || {
        let mut sketch = ExpanderSketch::new(params.clone(), 645);
        sketch.finish_shard(SketchShard::decode_shard(&snapshot).expect("snapshot decodes"));
        sketch
    };
    let mut scratch = FinishScratch::with_threads(2);
    let reference = cold().finish_with(&mut scratch); // warm the scratch pool
    let mut per_round = Vec::new();
    for _ in 0..3 {
        let mut fewest = u64::MAX;
        for _ in 0..3 {
            let mut sketch = cold();
            let before = events();
            let estimates = sketch.finish_with(&mut scratch);
            fewest = fewest.min(events() - before);
            assert_eq!(estimates, reference);
        }
        per_round.push(fewest);
    }
    assert!(
        per_round.windows(2).all(|w| w[1] == w[0]),
        "cold 2-thread sketch finish allocations moved across calls: {per_round:?}"
    );

    let n = 4_000usize;
    let input = Workload::planted(256, vec![(9, 0.4)]).generate(n, 641);
    let params = ScanParams::new(n as u64, 256, 4.0, 0.1);
    let make = || ScanHeavyHitters::new(params.clone(), 642);
    let seed = 643;
    // Single-threaded plan: the engine under test must be the only
    // allocator client while we count.
    let plan = StreamPlan {
        epoch_size: n / 4,
        checkpoint_every: 1,
        dist: DistPlan {
            collectors: 2,
            chunk_size: 500,
            threads: 1,
            merge: MergeOrder::Tree,
        },
    };

    // ——— Lock-step engine ———
    let server = make();
    let mut engine = StreamEngine::new(HhStream(&server), plan.clone(), seed);
    engine.ingest_all(&input);

    // Steady-state checkpoints with an unchanged stream: the snapshot
    // buffers were sized by the cadence checkpoints above and the spool
    // is empty, so re-encoding must allocate NOTHING.
    let _ = engine.checkpoint(); // warm any lazily-sized buffer
    for round in 0..3 {
        let before = events();
        let _ = engine.checkpoint();
        assert_eq!(
            events() - before,
            0,
            "steady-state checkpoint {round} allocated"
        );
    }

    // Repeated mid-stream queries: per-query allocations (decoded
    // shards, merge, the fresh server's finish) are inherent, but the
    // count must be *flat* across calls — growth would mean the decode
    // path re-allocates per snapshot instead of reusing pooled state.
    let mut fresh = make();
    let _ = engine.finish_at_epoch(&mut fresh); // warm-up query
    let mut per_query = Vec::new();
    for _ in 0..4 {
        let mut fresh = make();
        let before = events();
        let estimates = engine.finish_at_epoch(&mut fresh);
        per_query.push(events() - before);
        assert!(!estimates.is_empty(), "vacuous query");
    }
    assert!(
        per_query.windows(2).all(|w| w[1] <= w[0]),
        "lock-step finish_at_epoch allocations grew across queries: {per_query:?}"
    );

    // Cold queries with a warm FinishScratch: a checkpoint between
    // queries invalidates the memoized answer, so each query re-runs the
    // full decode (`finish_with`) — but through the engine's warm
    // scratch, whose recycled buffers keep the per-query allocation
    // count flat across checkpoint stamps.
    let _ = engine.checkpoint();
    let _ = engine.finish_at_epoch(&mut make()); // warm the scratch pool
    let mut per_cold_query = Vec::new();
    for _ in 0..4 {
        let _ = engine.checkpoint(); // new stamp: next query must re-decode
        let mut fresh = make();
        let before = events();
        let estimates = engine.finish_at_epoch(&mut fresh);
        per_cold_query.push(events() - before);
        assert!(!estimates.is_empty(), "vacuous cold query");
    }
    assert!(
        per_cold_query.windows(2).all(|w| w[1] <= w[0]),
        "warm-scratch cold finish_at_epoch allocations grew across stamps: {per_cold_query:?}"
    );

    // ——— Pipelined session ———
    // Collector actors allocate deterministically too (threads are
    // quiescent between session calls — every command round-trip below
    // is synchronous), so per-query counts must be flat here as well:
    // snapshot replies land in pooled buffers after the first query.
    let server = make();
    let config = PipelineConfig {
        queue_depth: 2,
        workers: 1,
    };
    let (shard, _, per_query) =
        run_pipelined(&HhStream(&server), &plan, &config, seed, |session| {
            session.ingest_all(&input);
            let mut fresh = make();
            let _ = session.finish_at_epoch(&mut fresh); // warm-up: sizes the buffer pool
            let _ = session.finish_at_epoch(&mut make());
            let mut per_query = Vec::new();
            for _ in 0..4 {
                let mut fresh = make();
                let before = events();
                let estimates = session.finish_at_epoch(&mut fresh);
                per_query.push(events() - before);
                assert!(!estimates.is_empty(), "vacuous query");
            }
            per_query
        });
    assert!(
        per_query.windows(2).all(|w| w[1] <= w[0]),
        "pipelined finish_at_epoch allocations grew across queries: {per_query:?}"
    );

    // The counted runs must still answer correctly.
    let mut server = server;
    server.finish_shard(shard);
    let serial = {
        let mut s = make();
        run_heavy_hitter(&mut s, &input, seed).estimates
    };
    assert_eq!(server.finish(), serial);
}
