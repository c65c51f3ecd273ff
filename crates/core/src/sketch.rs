//! Algorithm `PrivateExpanderSketch` (paper §3.3).
//!
//! Public randomness (one seed): a random partition of users into
//! `I_1, …, I_M`, pairwise hashes `h_m : X → [Y]` and the expander (owned
//! by the [`UniqueListCode`]), and a `(C_g log|X|)`-wise hash
//! `g : X → [B]`.
//!
//! Client (user `i ∈ I_m` holding `x`): one message carrying
//!
//! 1. an `ε/2` Hashtogram report of the cell
//!    `(g(x), h_m(x), E~nc(x)_m) ∈ [B]×[Y]×[Z]` for the coordinate oracle
//!    (step 1 of the algorithm), and
//! 2. an `ε/2` Hashtogram report of `x` itself for the final estimates
//!    (step 5).
//!
//! Both components are ε-LDP in total by basic composition, and the
//! protocol is one-round and non-interactive.
//!
//! Server: per coordinate, reconstruct all cell estimates (one fast WHT),
//! take the per-`(b, y)` argmax over `z` against the stand-out threshold
//! (steps 2–3), decode each bucket's lists through the
//! unique-list-recoverable code (step 4), and return the outer-oracle
//! estimates of the decoded candidates (steps 5–6).

use crate::params::SketchParams;
use crate::traits::{
    FinishScratch, FrameError, HeavyHitterProtocol, WireError, WireFrames, WireReport, WireShard,
};
use hh_codes::ulrc::UniqueListCode;
use hh_freq::hashtogram::{
    read_report_run, report_run_len, write_report_run, Hashtogram, HashtogramReport,
    HashtogramShard, RowPool, RUN_TILE,
};
use hh_freq::traits::FrequencyOracle;
use hh_freq::wire;
use hh_freq::wire::{varint_len, write_varint, ShardReader};
use hh_hash::family::labels;
use hh_hash::{HashFamily, KWiseHash};
use hh_math::par::{par_chunk_zip_map, par_map_indexed, par_map_owned, planned_threads};
use hh_math::rng::derive_seed;
use hh_math::sampler::ClientCoins;
use rand::Rng;
use std::time::{Duration, Instant};

/// The single message a user sends: her coordinate report and her final
/// frequency-oracle report. The user's coordinate `m` is a public
/// function of her index and is recomputed server-side, not transported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SketchReport {
    /// Hashtogram report of the `(g(x), h_m(x), E~nc(x)_m)` cell.
    pub inner: HashtogramReport,
    /// Hashtogram report of `x` for the outer oracle.
    pub outer: HashtogramReport,
}

/// Wire format: the shared [`wire::encode_pair`] composite frame — the
/// two Hadamard payloads in their own minimal encodings behind a
/// one-byte split marker, so the decoder needs no protocol parameters.
/// `report_bits()` counts exactly this layout.
impl WireReport for SketchReport {
    fn encoded_len(&self) -> usize {
        wire::pair_encoded_len(&self.inner, &self.outer)
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        wire::encode_pair(&self.inner, &self.outer, out);
    }

    fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        let (inner, outer) = wire::decode_pair(bytes)?;
        Ok(SketchReport { inner, outer })
    }
}

/// Mergeable partial aggregate of an [`ExpanderSketch`]: buffered inner
/// reports per coordinate (the coordinate oracles materialize lazily at
/// finish) plus the outer oracle's integer-tally shard.
pub struct SketchShard {
    inner: Vec<Vec<(u64, HashtogramReport)>>,
    outer: HashtogramShard,
    users: u64,
}

/// Snapshot codec — a composite frame of the two aggregation halves:
/// `[users][outer_len][outer shard frame][coords]` followed by one
/// buffered-report run per coordinate (each report the same
/// `ℓ·2 + bit` scalar as its wire format). All integers canonical
/// varints, so the frame is self-describing.
impl WireShard for SketchShard {
    fn shard_encoded_len(&self) -> usize {
        let outer = self.outer.shard_encoded_len();
        varint_len(self.users)
            + varint_len(outer as u64)
            + outer
            + varint_len(self.inner.len() as u64)
            + self
                .inner
                .iter()
                .map(|run| report_run_len(run))
                .sum::<usize>()
    }

    fn encode_shard_into(&self, out: &mut Vec<u8>) {
        write_varint(out, self.users);
        write_varint(out, self.outer.shard_encoded_len() as u64);
        self.outer.encode_shard_into(out);
        write_varint(out, self.inner.len() as u64);
        for run in &self.inner {
            write_report_run(out, run);
        }
    }

    fn decode_shard(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = ShardReader::new(bytes);
        let users = r.u64()?;
        let outer_len = r.count()?;
        let outer = HashtogramShard::decode_shard(r.raw(outer_len)?)?;
        let coords = r.count()?;
        let mut inner = Vec::with_capacity(coords);
        for _ in 0..coords {
            inner.push(read_report_run(&mut r)?);
        }
        r.finish()?;
        Ok(SketchShard {
            inner,
            outer,
            users,
        })
    }
}

/// Wall-clock of the stand-out step (steps 2–3) by sub-phase, summed
/// over coordinates — see [`ExpanderSketch::profile_standout`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StandoutPhases {
    /// Zero-filling a recycled coordinate table and tallying the
    /// coordinate's buffered reports into it.
    pub materialize: Duration,
    /// The Hadamard transform of each table, the debias folded into
    /// its first block phase.
    pub transform: Duration,
    /// The argmax-over-`z` sweep of every `(b, y)` cell run.
    pub sweep: Duration,
}

/// `PrivateExpanderSketch`: public randomness + server state.
pub struct ExpanderSketch {
    params: SketchParams,
    seed: u64,
    ulrc: UniqueListCode,
    group_hash: KWiseHash,
    /// Prototype inner oracle (shared public randomness for all
    /// coordinates; the per-coordinate accumulation happens at finish).
    inner_proto: Hashtogram,
    /// Buffered inner reports per coordinate (the coordinate oracles are
    /// materialized one at a time at finish, so peak memory is one
    /// `W_in`-sized accumulator plus these tiny reports).
    inner_reports: Vec<Vec<(u64, HashtogramReport)>>,
    outer: Hashtogram,
    users_seen: u64,
    finished: bool,
}

impl ExpanderSketch {
    /// Instantiate from parameters and a public-randomness seed.
    pub fn new(params: SketchParams, seed: u64) -> Self {
        let ulrc = UniqueListCode::new(params.ulrc_params(), derive_seed(seed, 0xC0DE));
        let family = HashFamily::new(seed);
        let group_hash = family.kwise(
            labels::SKETCH_GROUP_HASH,
            0,
            params.g_independence,
            params.num_buckets,
        );
        let inner_proto = Hashtogram::new(params.inner_oracle_params(), derive_seed(seed, 0x1222));
        let outer = Hashtogram::new(params.outer_oracle_params(), derive_seed(seed, 0x0173));
        let inner_reports = vec![Vec::new(); params.num_coords];
        Self {
            params,
            seed,
            ulrc,
            group_hash,
            inner_proto,
            inner_reports,
            outer,
            users_seen: 0,
            finished: false,
        }
    }

    /// Protocol parameters.
    pub fn params(&self) -> &SketchParams {
        &self.params
    }

    /// The prototype inner oracle (shared public randomness for all
    /// coordinates) — exposed for audits and client-path benchmarks.
    pub fn inner_oracle(&self) -> &Hashtogram {
        &self.inner_proto
    }

    /// The outer (full-domain) oracle — exposed for audits and
    /// client-path benchmarks.
    pub fn outer_oracle(&self) -> &Hashtogram {
        &self.outer
    }

    /// The derivation seed of the public partition (hoistable by batch
    /// paths; one value per sketch instance).
    fn partition_seed(&self) -> u64 {
        derive_seed(self.seed, labels::SKETCH_PARTITION)
    }

    /// The coordinate of `user_index` under a hoisted partition seed —
    /// the single definition both [`ExpanderSketch::coord_of`] and the
    /// batch path go through, so they cannot diverge.
    fn coord_at(partition_seed: u64, user_index: u64, num_coords: u64) -> usize {
        (derive_seed(partition_seed, user_index) % num_coords) as usize
    }

    /// The public coordinate assignment `i ↦ m` (the random partition
    /// `I_1, …, I_M`).
    pub fn coord_of(&self, user_index: u64) -> usize {
        Self::coord_at(
            self.partition_seed(),
            user_index,
            self.params.num_coords as u64,
        )
    }

    /// The group hash `g(x) ∈ [B]`.
    pub fn bucket_of(&self, x: u64) -> u64 {
        self.group_hash.hash(x)
    }

    /// The inner-oracle cell a user holding `x` in coordinate `m` reports.
    pub fn cell_of(&self, m: usize, x: u64) -> u64 {
        let b = self.bucket_of(x);
        let y = self.ulrc.coord_hash(m, x);
        let z = self.ulrc.enc_tilde(x, m);
        self.params.cell_id(b, y, z)
    }

    /// The one batched client loop `respond_batch` and the fused encode
    /// path drive: per-user derived coin streams with the partition
    /// component seed hoisted out of the loop, each composite report
    /// (inner, then outer — the same draw order as `respond`) handed to
    /// `emit` in user order.
    fn respond_each(
        &self,
        start_index: u64,
        xs: &[u64],
        client_seed: u64,
        mut emit: impl FnMut(SketchReport),
    ) {
        let part_seed = self.partition_seed();
        let num_coords = self.params.num_coords as u64;
        let coins = ClientCoins::new(client_seed);
        for (k, &x) in xs.iter().enumerate() {
            let i = start_index + k as u64;
            let mut rng = coins.user(i);
            let m = Self::coord_at(part_seed, i, num_coords);
            let cell = self.cell_of(m, x);
            let inner = self.inner_proto.respond(i, cell, &mut rng);
            let outer = self.outer.respond(i, x, &mut rng);
            emit(SketchReport { inner, outer });
        }
    }

    /// The stand-out lists (step 3): `lists[b][m]` = the `(y, z)` pairs
    /// whose estimate cleared τ.
    ///
    /// Coordinates are independent — each materializes its own inner
    /// oracle from its buffered reports and sweeps it — so they decode
    /// on `scratch.threads` workers, with the per-coordinate results
    /// reassembled in coordinate order: the lists are identical for
    /// every thread count. Each worker materializes into one recycled
    /// `W`-cell table from a [`RowPool`] sized to the worker count, so
    /// only its first coordinate faults the table's pages in. Each
    /// coordinate's run tiles come from the scratch pool and go back to
    /// it.
    fn build_standout_lists(&self, scratch: &mut FinishScratch) -> Vec<Vec<Vec<(u64, u64)>>> {
        let p = &self.params;
        let work: Vec<(usize, Vec<f64>, Vec<f64>)> = (0..p.num_coords)
            .map(|m| (m, scratch.take_f64(), scratch.take_f64()))
            .collect();
        let tables = RowPool::new(
            &self.inner_proto,
            planned_threads(scratch.threads, p.num_coords, 1),
        );
        let per_coord = par_map_owned(work, scratch.threads, |_, (m, mut run, mut tile)| {
            let reports_m = &self.inner_reports[m];
            let lists = if reports_m.is_empty() {
                vec![Vec::new(); p.num_buckets as usize]
            } else {
                let oracle = self.inner_proto.materialize(reports_m, tables.take());
                let lists = self.sweep_coord(&oracle, &mut run, &mut tile);
                tables.put(oracle.into_rows());
                lists
            };
            (lists, run, tile)
        });
        // Transpose coordinate-major results into `lists[b][m]`.
        let mut lists = vec![vec![Vec::new(); p.num_coords]; p.num_buckets as usize];
        for (m, (per_b, run, tile)) in per_coord.into_iter().enumerate() {
            scratch.put_f64(run);
            scratch.put_f64(tile);
            for (b, list) in per_b.into_iter().enumerate() {
                lists[b][m] = list;
            }
        }
        lists
    }

    /// Step 3 on one finalized coordinate oracle: for every `(b, y)`,
    /// the argmax over `z` of the contiguous cell run `(b, y, ·)` —
    /// swept in [`RUN_TILE`]-cell runs through
    /// [`Hashtogram::estimate_run`], the first maximum winning exactly
    /// as in a cell-by-cell scan — kept when it clears τ.
    fn sweep_coord(
        &self,
        oracle: &Hashtogram,
        run: &mut Vec<f64>,
        tile: &mut Vec<f64>,
    ) -> Vec<Vec<(u64, u64)>> {
        let p = &self.params;
        let tau = p.standout_threshold();
        let z_card = p.z_cardinality();
        run.clear();
        run.resize(RUN_TILE.min(z_card as usize), 0.0);
        let mut out = vec![Vec::new(); p.num_buckets as usize];
        for (b, list) in out.iter_mut().enumerate() {
            for y in 0..p.y_range {
                let base = p.cell_id(b as u64, y, 0);
                let (mut best_z, mut best_v) = (0u64, f64::NEG_INFINITY);
                let mut z0 = 0u64;
                while z0 < z_card {
                    let cells = &mut run[..(z_card - z0).min(RUN_TILE as u64) as usize];
                    oracle.estimate_run(base + z0, cells, tile);
                    for (z, &v) in (z0..).zip(cells.iter()) {
                        if v > best_v {
                            best_v = v;
                            best_z = z;
                        }
                    }
                    z0 += cells.len() as u64;
                }
                if best_v >= tau && list.len() < p.list_cap {
                    list.push((y, best_z));
                }
            }
        }
        out
    }

    /// Run the stand-out step (steps 2–3) serially with a clock around
    /// each sub-phase — materialize, transform, sweep — and return the
    /// per-phase totals. The same operations one finish worker runs:
    /// [`Hashtogram::tally_rows`] into a recycled table, then
    /// [`hh_freq::hashtogram::RowTally::finalize`] (the two halves of
    /// [`Hashtogram::materialize`]), then the sweep — so benches can
    /// name the layer a change moved. Reads the buffered reports only;
    /// the sketch stays unfinished.
    pub fn profile_standout(&self) -> StandoutPhases {
        let mut phases = StandoutPhases::default();
        let (mut run, mut tile) = (Vec::new(), Vec::new());
        let tables = RowPool::new(&self.inner_proto, 1);
        for reports_m in self.inner_reports.iter().filter(|r| !r.is_empty()) {
            let t0 = Instant::now();
            let tally = self.inner_proto.tally_rows(reports_m, tables.take());
            let t1 = Instant::now();
            let oracle = tally.finalize();
            let t2 = Instant::now();
            let _ = self.sweep_coord(&oracle, &mut run, &mut tile);
            let t3 = Instant::now();
            tables.put(oracle.into_rows());
            phases.materialize += t1 - t0;
            phases.transform += t2 - t1;
            phases.sweep += t3 - t2;
        }
        phases
    }
}

impl HeavyHitterProtocol for ExpanderSketch {
    type Report = SketchReport;
    type Shard = SketchShard;

    fn respond<R: Rng + ?Sized>(&self, user_index: u64, x: u64, rng: &mut R) -> SketchReport {
        let m = self.coord_of(user_index);
        let cell = self.cell_of(m, x);
        let inner = self.inner_proto.respond(user_index, cell, rng);
        let outer = self.outer.respond(user_index, x, rng);
        SketchReport { inner, outer }
    }

    fn respond_batch(&self, start_index: u64, xs: &[u64], client_seed: u64) -> Vec<SketchReport> {
        let mut out = Vec::with_capacity(xs.len());
        self.respond_each(start_index, xs, client_seed, |rep| out.push(rep));
        out
    }

    fn respond_encode_batch(
        &self,
        start_index: u64,
        xs: &[u64],
        client_seed: u64,
        out: &mut Vec<u8>,
    ) -> Vec<u32> {
        // Fused: write each composite pair frame straight to the wire —
        // no intermediate report vec.
        let mut lens = Vec::with_capacity(xs.len());
        self.respond_each(start_index, xs, client_seed, |rep| {
            let before = out.len();
            rep.encode_into(out);
            lens.push((out.len() - before) as u32);
        });
        lens
    }

    fn collect(&mut self, user_index: u64, report: SketchReport) {
        assert!(!self.finished, "collect after finish");
        let m = self.coord_of(user_index);
        self.inner_reports[m].push((user_index, report.inner));
        self.outer.collect(user_index, report.outer);
        self.users_seen += 1;
    }

    fn new_shard(&self) -> SketchShard {
        SketchShard {
            inner: vec![Vec::new(); self.params.num_coords],
            outer: self.outer.new_shard(),
            users: 0,
        }
    }

    fn absorb(&self, shard: &mut SketchShard, start_index: u64, reports: &[SketchReport]) {
        // Inner reports buffer per (recomputed) coordinate — the
        // coordinate oracles ingest them at finish through order-exact
        // integer tallies, so buffer order across shards is immaterial.
        let part_seed = self.partition_seed();
        let num_coords = self.params.num_coords as u64;
        for (k, rep) in reports.iter().enumerate() {
            let i = start_index + k as u64;
            let m = Self::coord_at(part_seed, i, num_coords);
            shard.inner[m].push((i, rep.inner));
        }
        let outer: Vec<HashtogramReport> = reports.iter().map(|r| r.outer).collect();
        self.outer.absorb(&mut shard.outer, start_index, &outer);
        shard.users += reports.len() as u64;
    }

    fn absorb_wire(
        &self,
        shard: &mut SketchShard,
        start_index: u64,
        frames: &WireFrames<'_>,
    ) -> Result<(), FrameError> {
        // Zero-copy: split each composite frame in place — the inner
        // report buffers into its (recomputed) coordinate, the outer
        // report tallies straight into the outer shard through the
        // hoisted absorber. No `Vec<SketchReport>`, no per-chunk outer
        // report vec.
        let part_seed = self.partition_seed();
        let num_coords = self.params.num_coords as u64;
        let outer_absorber = self.outer.absorber();
        for (k, frame) in frames.iter().enumerate() {
            let (inner, outer) = wire::decode_pair::<HashtogramReport, HashtogramReport>(frame)
                .map_err(|e| frames.frame_error(k, e))?;
            let i = start_index + k as u64;
            let m = Self::coord_at(part_seed, i, num_coords);
            shard.inner[m].push((i, inner));
            outer_absorber
                .absorb_one(&mut shard.outer, i, outer)
                .map_err(|e| frames.frame_error(k, e))?;
        }
        shard.users += frames.len() as u64;
        Ok(())
    }

    fn merge(&self, mut a: SketchShard, b: SketchShard) -> SketchShard {
        // Hard check — decoded snapshots are parameter-free, so a shard
        // with a different coordinate count must not zip-truncate.
        assert_eq!(a.inner.len(), b.inner.len(), "shard shape mismatch");
        for (acc, mut add) in a.inner.iter_mut().zip(b.inner) {
            acc.append(&mut add);
        }
        a.outer = self.outer.merge(a.outer, b.outer);
        a.users += b.users;
        a
    }

    fn finish_shard(&mut self, shard: SketchShard) {
        assert!(!self.finished, "collect after finish");
        assert_eq!(
            shard.inner.len(),
            self.params.num_coords,
            "shard shape mismatch"
        );
        for (acc, mut add) in self.inner_reports.iter_mut().zip(shard.inner) {
            acc.append(&mut add);
        }
        self.outer.finish_shard(shard.outer);
        self.users_seen += shard.users;
    }

    fn finish(&mut self) -> Vec<(u64, f64)> {
        self.finish_with(&mut FinishScratch::default())
    }

    fn finish_with(&mut self, scratch: &mut FinishScratch) -> Vec<(u64, f64)> {
        assert!(!self.finished, "double finish");
        self.finished = true;
        // Steps 2–3: stand-out lists per (bucket, coordinate) —
        // coordinates decode on parallel workers.
        let lists = self.build_standout_lists(scratch);
        let threads = scratch.threads;
        // Step 4: decode each bucket; keep candidates that land in their
        // own bucket under g. Buckets decode independently (results in
        // bucket order); the cross-bucket dedup stays serial so the
        // candidate order — bucket-ascending, decode order within — is
        // the serial loop's exactly.
        let decoded = par_map_indexed(lists.len(), threads, |b| {
            self.ulrc
                .decode(&lists[b])
                .into_iter()
                .filter(|&x| self.bucket_of(x) == b as u64)
                .collect::<Vec<u64>>()
        });
        let mut candidates: Vec<u64> = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for bucket_candidates in decoded {
            for x in bucket_candidates {
                if seen.insert(x) {
                    candidates.push(x);
                }
            }
        }
        // Steps 5–6: final estimates from the outer oracle, swept over
        // candidate chunks in parallel (chunk order preserved; each
        // chunk's median workspace is a pooled scratch buffer).
        self.outer.finalize_with(scratch);
        let keep = self.params.keep_threshold();
        let mut est: Vec<(u64, f64)> = Vec::with_capacity(candidates.len());
        if !candidates.is_empty() {
            let workers = planned_threads(threads, candidates.len(), 1);
            let chunk = candidates.len().div_ceil(workers).max(1);
            let num_chunks = candidates.len().div_ceil(chunk);
            let bufs: Vec<Vec<f64>> = (0..num_chunks).map(|_| scratch.take_f64()).collect();
            let parts = par_chunk_zip_map(&candidates, chunk, threads, bufs, |_, xs, mut buf| {
                let part: Vec<(u64, f64)> = xs
                    .iter()
                    .map(|&x| (x, self.outer.estimate_into(x, &mut buf)))
                    .filter(|&(_, f)| f >= keep)
                    .collect();
                (part, buf)
            });
            for (part, buf) in parts {
                est.extend_from_slice(&part);
                scratch.put_f64(buf);
            }
        }
        est.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .expect("finite estimates")
                .then_with(|| a.0.cmp(&b.0))
        });
        est
    }

    fn report_bits(&self) -> usize {
        // Exact worst-case wire size of the composite message (still
        // Θ(log) — the components claim 1 + log₂W bits each).
        wire::pair_wire_bits(self.inner_proto.report_bits(), self.outer.report_bits())
    }

    fn memory_bytes(&self) -> usize {
        // One coordinate table (a finish holds one recycled table per
        // worker; this is the serial floor) + the outer oracle sketch +
        // stand-out lists.
        self.inner_proto.memory_bytes()
            + self.outer.memory_bytes()
            + self.params.num_buckets as usize
                * self.params.num_coords
                * self.params.list_cap
                * std::mem::size_of::<(u64, u64)>()
    }

    fn epsilon(&self) -> f64 {
        self.params.eps
    }

    fn detection_threshold(&self) -> f64 {
        self.params.detection_threshold()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hh_math::rng::seeded_rng;

    /// Build a dataset with planted heavy elements (given as (value,
    /// fraction)) over a light uniform tail.
    fn planted(n: usize, domain_bits: u32, heavy: &[(u64, f64)], seed: u64) -> Vec<u64> {
        let mut rng = seeded_rng(seed);
        use rand::Rng;
        let domain = 1u64 << domain_bits;
        (0..n)
            .map(|_| {
                let u: f64 = rng.gen();
                let mut acc = 0.0;
                for &(x, frac) in heavy {
                    acc += frac;
                    if u < acc {
                        return x;
                    }
                }
                rng.gen_range(0..domain)
            })
            .collect()
    }

    fn run_protocol(params: SketchParams, data: &[u64], seed: u64) -> Vec<(u64, f64)> {
        let mut server = ExpanderSketch::new(params, seed);
        let mut rng = seeded_rng(derive_seed(seed, 0xFACE));
        for (i, &x) in data.iter().enumerate() {
            let rep = server.respond(i as u64, x, &mut rng);
            server.collect(i as u64, rep);
        }
        server.finish()
    }

    #[test]
    fn partition_is_balanced() {
        let p = SketchParams::optimal(1 << 12, 16, 1.0, 0.1);
        let server = ExpanderSketch::new(p.clone(), 7);
        let mut counts = vec![0u64; p.num_coords];
        for i in 0..(1u64 << 12) {
            counts[server.coord_of(i)] += 1;
        }
        let expect = (1u64 << 12) as f64 / p.num_coords as f64;
        for (m, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - expect).abs() < 6.0 * expect.sqrt(),
                "coordinate {m}: {c} vs {expect}"
            );
        }
    }

    #[test]
    fn cells_are_consistent_with_code() {
        let p = SketchParams::optimal(1 << 12, 16, 1.0, 0.1);
        let server = ExpanderSketch::new(p.clone(), 9);
        for x in [0u64, 1, 12345, (1 << 16) - 1] {
            for m in 0..p.num_coords {
                let cell = server.cell_of(m, x);
                assert!(cell < p.inner_cells());
            }
        }
    }

    #[test]
    fn recovers_planted_heavy_hitters_end_to_end() {
        // Sized against the protocol's own detection threshold (see the
        // params module docs on absolute constants).
        let n = 1usize << 17;
        let eps = 4.0;
        let params = SketchParams::optimal(n as u64, 16, eps, 0.1);
        let delta = params.detection_threshold();
        assert!(
            delta < 0.4 * n as f64,
            "test sizing broken: delta = {delta} vs n = {n}"
        );
        let heavy_frac = (delta / n as f64) * 1.6;
        let h1 = 0xBEEFu64 & 0xFFFF;
        let h2 = 0x1234u64;
        let data = planted(n, 16, &[(h1, heavy_frac), (h2, heavy_frac)], 21);
        let est = run_protocol(params.clone(), &data, 22);
        let found: Vec<u64> = est.iter().map(|&(x, _)| x).collect();
        assert!(found.contains(&h1), "missed {h1:#x}: found {found:#x?}");
        assert!(found.contains(&h2), "missed {h2:#x}: found {found:#x?}");
        // Estimates within the advertised error of the truth.
        let err_bound = params.estimation_error_bound();
        for &(x, f) in &est {
            let truth = data.iter().filter(|&&v| v == x).count() as f64;
            assert!(
                (f - truth).abs() <= err_bound,
                "estimate for {x:#x}: {f} vs {truth} (bound {err_bound})"
            );
        }
        // List stays small.
        assert!(est.len() <= 2 + params.num_buckets as usize * params.list_cap);
    }

    #[test]
    fn no_false_heavies_on_uniform_data() {
        // Uniform data has no Δ/2-heavy elements; the output should be
        // empty (or nearly so — the keep threshold guards this).
        let n = 1usize << 15;
        let params = SketchParams::optimal(n as u64, 16, 4.0, 0.1);
        let data = planted(n, 16, &[], 31);
        let est = run_protocol(params, &data, 32);
        assert!(
            est.len() <= 1,
            "uniform data produced {} 'heavy hitters'",
            est.len()
        );
    }

    #[test]
    fn deterministic_public_randomness() {
        let p = SketchParams::optimal(1 << 12, 16, 1.0, 0.1);
        let a = ExpanderSketch::new(p.clone(), 5);
        let b = ExpanderSketch::new(p, 5);
        for x in [3u64, 999, 65535] {
            assert_eq!(a.bucket_of(x), b.bucket_of(x));
            for m in 0..a.params().num_coords {
                assert_eq!(a.cell_of(m, x), b.cell_of(m, x));
            }
        }
    }

    #[test]
    fn report_bits_are_logarithmic() {
        let p = SketchParams::optimal(1 << 16, 24, 1.0, 0.05);
        let server = ExpanderSketch::new(p, 3);
        // Two Hadamard reports: well under 64 bits total payload.
        assert!(
            server.report_bits() <= 64,
            "bits = {}",
            server.report_bits()
        );
    }

    /// FNV-1a over every `(b, m, y, z)` of the stand-out lists.
    fn standout_digest(lists: &[Vec<Vec<(u64, u64)>>]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for (b, per_m) in lists.iter().enumerate() {
            for (m, list) in per_m.iter().enumerate() {
                for &(y, z) in list {
                    for v in [b as u64, m as u64, y, z] {
                        for byte in v.to_le_bytes() {
                            h = (h ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
                        }
                    }
                }
            }
        }
        h
    }

    #[test]
    fn standout_lists_match_reference_at_every_thread_count() {
        // M > 7 coordinates: at 1, 2, 3 and 7 workers some worker's
        // recycled table carries more than one coordinate.
        let n = 1usize << 13;
        let params = SketchParams::optimal(n as u64, 16, 4.0, 0.1);
        assert!(params.num_coords > 7, "M = {}", params.num_coords);
        let heavy_frac = (params.detection_threshold() / n as f64) * 1.6;
        let data = planted(n, 16, &[(0x0BAD, heavy_frac), (0x7777, heavy_frac)], 51);
        let mut server = ExpanderSketch::new(params.clone(), 52);
        let mut rng = seeded_rng(53);
        for (i, &x) in data.iter().enumerate() {
            let rep = server.respond(i as u64, x, &mut rng);
            server.collect(i as u64, rep);
        }
        // Reference: each coordinate's oracle built by a clone of the
        // prototype fed its reports through `collect`, then finalized.
        let (mut run, mut tile) = (Vec::new(), Vec::new());
        let mut want = vec![vec![Vec::new(); params.num_coords]; params.num_buckets as usize];
        for (m, reports_m) in server.inner_reports.iter().enumerate() {
            let mut oracle = server.inner_proto.clone();
            for &(user, rep) in reports_m {
                oracle.collect(user, rep);
            }
            oracle.finalize();
            for (b, list) in server
                .sweep_coord(&oracle, &mut run, &mut tile)
                .into_iter()
                .enumerate()
            {
                want[b][m] = list;
            }
        }
        assert!(
            want.iter().flatten().any(|list| !list.is_empty()),
            "vacuous: no stand-out cell"
        );
        for threads in [1, 2, 3, 7] {
            let got = server.build_standout_lists(&mut FinishScratch::with_threads(threads));
            assert_eq!(
                standout_digest(&got),
                standout_digest(&want),
                "threads = {threads}"
            );
            assert_eq!(got, want, "threads = {threads}");
        }
    }

    #[test]
    #[should_panic(expected = "double finish")]
    fn double_finish_panics() {
        let p = SketchParams::optimal(1 << 10, 16, 1.0, 0.1);
        let mut server = ExpanderSketch::new(p, 4);
        let _ = server.finish();
        let _ = server.finish();
    }
}
