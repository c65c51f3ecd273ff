//! End-to-end and per-layer benchmark of the heavy-hitter protocols.
//!
//! ```text
//! perfbench --workload <sketch_e2e|rappor_stream|scan_query> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload's inputs from the seed, then streams them
//! through the pipelined runtime again and again for `--seconds`, one
//! closed-loop producer issuing the workload's steps. With `--trace 0` it
//! prints the end-to-end metrics; with `--trace 1` it alternates plain and
//! traced iterations and prints the per-layer metrics. End-to-end timings
//! are scaled to a reference host speed by a kernel timed next to the
//! iterations (`calib.rs`). Every answer is checked (recall, error against
//! the documented bound, and for the first iterations bit-for-bit equality
//! with a one-shot run), and the last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. METRICS.md
//! defines every metric.

mod adapter;
mod calib;
mod stats;
mod trace;
mod workloads;

use adapter::Iteration;
use stats::{num, summarize, Json, Summary};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use trace::{Layer, SpanRec};
use workloads::{Family, RecallGate, Step, Workload};

/// Fewest streamed iterations per run (and at least two per mode when
/// traced).
const MIN_ITERATIONS: usize = 3;
/// Set-up samples per run: set-ups without streaming, before the timed
/// loop, until there are this many or [`SETUP_BUDGET_S`] is spent.
const MIN_SETUPS: usize = 1001;
const SETUP_BUDGET_S: f64 = 1.0;
/// Size cap of an oracle's top-k answer.
const TOP_K: usize = 64;
/// Iterations whose final answer is compared bit for bit with a one-shot
/// run (the first ones). Each reference costs about an iteration's work,
/// outside the timed loop.
const REFERENCES: usize = 3;
/// Level of the binomial test of [`RecallGate::PerSeed`].
const ALPHA: f64 = 0.01;
/// Set-up samples draw their protocol seeds from a stream of their own.
const SETUP_SALT: u64 = 0x5E7_0905;

/// Rows printed in the `--trace 0` table and record but not in the result
/// line: the first two spread wider across seeds than any bound the result
/// allows, and `calib_s` describes the host, not the system (see
/// METRICS.md).
const TABLE_ONLY: [&str; 3] = ["max_err_ratio", "query_pooled_tail_ms", "calib_s"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

/// Where the full record and the spans are written, under the working
/// directory.
const OUT_DIR: &str = "perfbench_out";

fn parse_args() -> Result<Args, String> {
    let mut kv: HashMap<String, String> = HashMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        kv.insert(key.to_string(), value);
    }
    let get = |k: &str| {
        kv.get(k)
            .cloned()
            .ok_or_else(|| format!("--{k} is required"))
    };
    let parse =
        |k: &str| -> Result<u64, String> { get(k)?.parse().map_err(|e| format!("--{k}: {e}")) };
    let trace = match parse("trace")? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, got {t}")),
    };
    Ok(Args {
        workload: get("workload")?,
        seed: parse("seed")?,
        seconds: parse("seconds")? as f64,
        trace,
    })
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some("--calibrate") {
        println!("{}", calib::kernel_s());
        return;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(w) = workloads::build(&args.workload, args.seed) else {
        eprintln!(
            "perfbench: unknown workload {:?} (one of {:?})",
            args.workload,
            workloads::NAMES
        );
        std::process::exit(2);
    };
    let ok = run(&args, &w);
    std::process::exit(if ok { 0 } else { 1 });
}

/// Protocol seed number `i` of a run: fresh public and client randomness
/// over the same inputs. Iteration `i` uses seed number `i`.
fn iteration_seed(seed: u64, i: usize) -> u64 {
    workloads::SplitMix::new(seed ^ (i as u64).wrapping_mul(0xA076_1D64_78BD_642F)).next()
}

/// Operation and check accounting of a run.
#[derive(Default)]
struct Ledger {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Ledger {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.problems.len() < 20 {
                self.problems.push(what());
            }
        }
    }
}

/// One finished iteration plus its seed and mode.
struct Done {
    seed: u64,
    traced: bool,
    it: Iteration,
}

fn run(args: &Args, w: &Workload) -> bool {
    let chunks: u64 = w
        .epochs
        .iter()
        .map(|e| e.len().div_ceil(adapter::CHUNK_USERS) as u64)
        .sum();
    let recoveries = w
        .steps
        .iter()
        .filter(|s| matches!(s, Step::Recover(_)))
        .count() as u64;
    let ops_per_iteration = chunks + recoveries + w.queries() as u64;
    let mut ledger = Ledger::default();

    // Set-up alone, repeated in the fresh process so every run measures it
    // from the same heap state. Each sample draws its own protocol seed:
    // set-up cost depends on the public randomness (the expander search
    // retries until a candidate graph qualifies), so the median is taken
    // over seeds rather than fixed by the run's one seed.
    let mut setups: Vec<f64> = Vec::new();
    let setup_started = Instant::now();
    while setups.len() < MIN_SETUPS && setup_started.elapsed().as_secs_f64() < SETUP_BUDGET_S {
        let seed = iteration_seed(args.seed ^ SETUP_SALT, setups.len());
        match catch_unwind(AssertUnwindSafe(|| adapter::setup_only(w, seed))) {
            Ok(s) => setups.push(s),
            Err(_) => {
                ledger.check(false, || "setup panicked".into());
                break;
            }
        }
    }

    // The timed loop: nothing but calls into the system between a step's
    // start and end; checks run after the loop.
    let started = Instant::now();
    let mut done: Vec<Done> = Vec::new();
    let mut calib_s: Vec<f64> = Vec::new();
    let mut i = 0usize;
    let enough = |done: &[Done], traced_mode: bool| {
        let traced = done.iter().filter(|d| d.traced).count();
        let iterations_ok = done.len() >= MIN_ITERATIONS
            && (!traced_mode || (traced >= 2 && done.len() - traced >= 2));
        iterations_ok && started.elapsed().as_secs_f64() >= args.seconds
    };
    while !enough(&done, args.trace) {
        calib_s.push(calib::measure());
        let traced = args.trace && i % 2 == 1;
        let seed = iteration_seed(args.seed, i);
        i += 1;
        ledger.attempted += ops_per_iteration;
        match catch_unwind(AssertUnwindSafe(|| {
            adapter::run_stream(w, &w.steps, seed, traced)
        })) {
            Ok(mut it) => {
                compact_answers(w, &mut it);
                done.push(Done { seed, traced, it });
            }
            Err(_) => {
                ledger.failed += ops_per_iteration;
                ledger.problems.push(format!("iteration {i} panicked"));
                if trace::enabled() {
                    trace::stop();
                }
                // Give up once the time is spent and the failures alone
                // would have filled the minimum.
                if started.elapsed().as_secs_f64() >= args.seconds
                    && i >= done.len() + MIN_ITERATIONS
                {
                    break;
                }
            }
        }
    }
    calib_s.push(calib::measure());
    let measured_s = started.elapsed().as_secs_f64();
    let peak_rss_mb = peak_rss_mb();
    if setups.is_empty() {
        setups.extend(done.iter().map(|d| d.it.setup_s));
    }

    // Checks, against the inputs and the one-shot reference.
    let quality = check_iterations(w, &done, &mut ledger);
    if done.is_empty() {
        ledger.problems.push("no iteration completed".into());
    }
    let correct = ledger.failed == 0 && !done.is_empty();

    let meta = meta_json(args, w, measured_s, &done);
    let (metrics, summaries) = if done.is_empty() || setups.is_empty() {
        (Vec::new(), Vec::new())
    } else if args.trace {
        per_layer(w, &done, &quality)
    } else {
        end_to_end(w, &done, &setups, &calib_s, &quality, peak_rss_mb, &ledger)
    };

    print_report(args, w, &summaries, &ledger, measured_s, done.len());
    write_record(args, &meta, &summaries, &ledger, &done);

    let metrics_json = metrics
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(*v)
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics_json}}}}}",
        ledger.attempted.max(1),
        ledger.failed
    );
    correct
}

/// Accuracy of every query of a run.
#[derive(Default)]
struct Quality {
    /// Recall of each query that had at least one Δ-heavy element.
    recall: Vec<f64>,
    /// Per iteration: the largest |estimate − truth| over the answers of
    /// its queries, divided by the documented error bound.
    max_err_ratio: Vec<f64>,
}

/// The answer list of a query: the heavy-hitter list as returned, or for
/// an oracle the top-k estimates at or above Δ/2.
fn answer_list(w: &Workload, raw: &[(u64, f64)], delta: f64) -> Vec<(u64, f64)> {
    match w.family {
        Family::HeavyHitter => raw.to_vec(),
        Family::Oracle => {
            let mut kept: Vec<(u64, f64)> = raw
                .iter()
                .copied()
                .filter(|&(_, e)| e >= delta / 2.0)
                .collect();
            kept.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            kept.truncate(TOP_K);
            kept
        }
    }
}

/// Cut each oracle answer but the final one down to its answer list as
/// soon as the iteration ends, so the benchmark does not hold a full
/// domain of estimates per query and per iteration: that would grow with
/// the iteration count and show in `peak_rss_mb`. The final answer stays
/// whole for the bit-for-bit comparison with the one-shot run.
fn compact_answers(w: &Workload, it: &mut Iteration) {
    if w.family != Family::Oracle {
        return;
    }
    let mut users = 0u64;
    let mut q = 0;
    let last = it.answers.len().saturating_sub(1);
    for step in &w.steps {
        match *step {
            Step::Epoch(e) => users += w.epochs[e].len() as u64,
            Step::Query => {
                if q < last {
                    let delta = adapter::yardstick(w, users).delta;
                    it.answers[q] = answer_list(w, &it.answers[q], delta);
                }
                q += 1;
            }
            _ => {}
        }
    }
}

fn same_bits(a: &[(u64, f64)], b: &[(u64, f64)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
}

fn check_iterations(w: &Workload, done: &[Done], ledger: &mut Ledger) -> Quality {
    // Prefix user counts and exact value counts at every query.
    let mut truths: Vec<(u64, Vec<u64>)> = Vec::new();
    let mut counts = vec![0u64; w.domain as usize];
    let mut users = 0u64;
    for step in &w.steps {
        match *step {
            Step::Epoch(e) => {
                for &x in &w.epochs[e] {
                    counts[x as usize] += 1;
                }
                users += w.epochs[e].len() as u64;
            }
            Step::Query => truths.push((users, counts.clone())),
            _ => {}
        }
    }
    let mut quality = Quality::default();
    let mut seeds_missed = 0u64;
    for (i, d) in done.iter().enumerate() {
        let mut missed = false;
        let mut worst = 0.0f64;
        for (q, (raw, (prefix, truth))) in d.it.answers.iter().zip(&truths).enumerate() {
            let yard = adapter::yardstick(w, *prefix);
            let answer = answer_list(w, raw, yard.delta);
            let heavy: Vec<u64> = (0..w.domain)
                .filter(|&x| truth[x as usize] as f64 >= yard.delta)
                .collect();
            if !heavy.is_empty() {
                let found = heavy
                    .iter()
                    .filter(|x| answer.iter().any(|(y, _)| y == *x))
                    .count();
                quality.recall.push(found as f64 / heavy.len() as f64);
                missed |= found < heavy.len();
                if w.recall_gate == RecallGate::EveryQuery {
                    ledger.check(found == heavy.len(), || {
                        format!(
                            "query {q}: {found} of {} Δ-heavy elements in the answer",
                            heavy.len()
                        )
                    });
                }
            }
            if !answer.is_empty() {
                let ratio = answer
                    .iter()
                    .map(|&(x, e)| (e - truth[x as usize] as f64).abs() / yard.error_bound)
                    .fold(0.0, f64::max);
                worst = worst.max(ratio);
                ledger.check(ratio <= 1.0, || {
                    format!("query {q}: max error ratio {ratio:.3} exceeds the bound")
                });
            }
        }
        seeds_missed += u64::from(missed);
        quality.max_err_ratio.push(worst);
        ledger.check(d.it.answers.len() == truths.len(), || {
            format!(
                "{} answers for {} queries",
                d.it.answers.len(),
                truths.len()
            )
        });
        if i < REFERENCES {
            let reference = adapter::one_shot(w, d.seed);
            let final_answer = d.it.answers.last().map(Vec::as_slice).unwrap_or(&[]);
            ledger.check(same_bits(final_answer, &reference), || {
                "final answer differs from the one-shot run".into()
            });
        }
    }
    if w.recall_gate == RecallGate::PerSeed {
        // Every iteration has a seed of its own, and the contract allows a
        // miss with probability at most β per seed. Fail when the count of
        // seeds that missed is unlikely under β (one-sided binomial test).
        let k = done.len() as u64;
        let p = binomial_tail(k, seeds_missed, w.beta);
        ledger.check(p >= ALPHA, || {
            format!(
                "{seeds_missed} of {k} seeds missed a Δ-heavy element: P = {p:.1e} under β = {}",
                w.beta
            )
        });
    }
    quality
}

/// `P(X ≥ m)` for `X ~ Binomial(k, p)`.
fn binomial_tail(k: u64, m: u64, p: f64) -> f64 {
    let mut choose = 1.0; // C(k, j), built up from C(k, 0)
    let mut tail = 0.0;
    for j in 0..=k {
        if j >= m {
            tail += choose * p.powi(j as i32) * (1.0 - p).powi((k - j) as i32);
        }
        choose = choose * (k - j) as f64 / (j + 1) as f64;
    }
    tail
}

/// The mean as a one-sample vector (`1` for an empty sample).
fn mean_or_one(v: &[f64]) -> [f64; 1] {
    if v.is_empty() {
        [1.0]
    } else {
        [v.iter().sum::<f64>() / v.len() as f64]
    }
}

type Metric = (&'static str, &'static str, f64);
type Row = (&'static str, &'static str, Summary);

fn e2e_window(it: &Iteration) -> f64 {
    match (it.steps.first(), it.steps.last()) {
        (Some(a), Some(b)) => (b.end - a.start).as_secs_f64(),
        _ => 0.0,
    }
}

fn step_secs(it: &Iteration, pick: impl Fn(Step) -> bool) -> f64 {
    it.steps
        .iter()
        .filter(|s| pick(s.step))
        .map(|s| s.secs())
        .sum()
}

fn is_ingest(s: Step) -> bool {
    matches!(s, Step::Epoch(_) | Step::Checkpoint)
}

fn end_to_end(
    w: &Workload,
    done: &[Done],
    setups: &[f64],
    calib_s: &[f64],
    quality: &Quality,
    peak_rss_mb: f64,
    ledger: &Ledger,
) -> (Vec<Metric>, Vec<Row>) {
    // Every time below is in seconds of the reference host (see calib.rs).
    let host = calib::REFERENCE_S / stats::median(calib_s);
    let its: Vec<&Iteration> = done.iter().map(|d| &d.it).collect();
    let e2e: Vec<f64> = its.iter().map(|it| e2e_window(it) * host).collect();
    let ingest: Vec<f64> = its
        .iter()
        .map(|it| w.n() as f64 / (step_secs(it, is_ingest) * host))
        .collect();
    let setups: Vec<f64> = setups.iter().map(|s| s * host).collect();
    let per_iteration: Vec<Vec<f64>> = its
        .iter()
        .map(|it| {
            it.steps
                .iter()
                .filter(|s| s.step == Step::Query)
                .map(|s| s.secs() * 1e3 * host)
                .collect()
        })
        .collect();
    let queries: Vec<f64> = per_iteration.concat();
    // The tail is taken over query positions (the k-th query of the
    // stream), each position first reduced to its median over iterations:
    // a position that is slow in every iteration shows, a host scheduling
    // spike in one iteration does not.
    let by_position: Vec<f64> = (0..w.queries())
        .map(|k| {
            let at_k: Vec<f64> = per_iteration
                .iter()
                .filter_map(|q| q.get(k).copied())
                .collect();
            stats::median(&at_k)
        })
        .collect();
    let wire: Vec<f64> = its
        .iter()
        .map(|it| it.stats.wire_bytes as f64 / it.stats.users.max(1) as f64)
        .collect();
    let q = summarize(&queries);
    let ok_frac = 1.0 - ledger.failed as f64 / ledger.attempted.max(1) as f64;
    let rows: Vec<Row> = vec![
        ("setup_s", "s", summarize(&setups)),
        ("e2e_s", "s", summarize(&e2e)),
        ("ingest_users_per_s", "1/s", summarize(&ingest)),
        ("query_p50_ms", "ms", q.clone()),
        ("query_tail_ms", "ms", summarize(&by_position)),
        ("query_pooled_tail_ms", "ms", q.clone()),
        ("recall", "frac", summarize(&mean_or_one(&quality.recall))),
        ("max_err_ratio", "ratio", summarize(&quality.max_err_ratio)),
        ("wire_bytes_per_user", "B", summarize(&wire)),
        ("peak_rss_mb", "MB", summarize(&[peak_rss_mb])),
        ("ok_ops_frac", "frac", summarize(&[ok_frac])),
        ("calib_s", "s", summarize(calib_s)),
    ];
    let metrics = rows
        .iter()
        .filter(|(name, _, _)| !TABLE_ONLY.contains(name))
        .map(|(name, unit, s)| {
            let v = if name.ends_with("tail_ms") {
                s.tail.1
            } else {
                s.median
            };
            (*name, *unit, v)
        })
        .collect();
    (metrics, rows)
}

/// Per-layer numbers of one traced iteration.
fn layer_values(w: &Workload, it: &Iteration) -> Vec<Metric> {
    let spans = &it.spans;
    let own = trace::self_times(spans);
    let pick = |f: &dyn Fn(&SpanRec) -> bool| -> (u64, f64, u64, u64) {
        spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| f(s))
            .fold((0, 0.0, 0, 0), |acc, (s, t)| {
                (acc.0 + 1, acc.1 + t, acc.2 + s.items, acc.3 + s.bytes)
            })
    };
    let named = |n: &'static str| move |s: &SpanRec| s.name == n;
    let (client_calls, client_s, client_users, client_bytes) = pick(&named("respond_encode_batch"));
    let (ingest_calls, ingest_s, ingest_frames, _) = pick(&named("absorb_wire"));
    let (merge_calls, merge_s, _, _) = pick(&|s| s.layer == Layer::Merge);
    let (encode_calls, encode_s, _, snapshot_bytes) = pick(&|s| s.name == "encode_shard_into");
    let (_, len_s, _, _) = pick(&named("shard_encoded_len"));
    let (decode_calls, decode_s, _, _) = pick(&named("decode_shard"));
    let (finish_calls, finish_s, finish_outputs, _) = pick(&|s| s.layer == Layer::Finish);
    let (estimate_calls, estimate_s, _, _) = pick(&|s| s.layer == Layer::Estimate);
    let st = &it.stats;
    // Cross-check with the runtime's own accounting: the time the
    // decorator saw in finish-path calls inside queries, over the time
    // `finish_at_epoch` spent outside its fold. A protocol call the
    // decorator does not wrap lowers it.
    let (_, finish_path_s, _, _) = pick(&|s| {
        s.group.kind == "query"
            && matches!(
                s.name,
                "finish_shard" | "finish" | "finish_with" | "finalize" | "finalize_with"
            )
    });

    // The session thread's steps inside the end-to-end window: their
    // protocol children plus their own time, which is waiting for the
    // fleet in checkpoint and recovery steps and session work elsewhere.
    let e2e = e2e_window(it);
    let in_window: Vec<(&SpanRec, f64)> = spans
        .iter()
        .zip(own.iter().copied())
        .filter(|(s, _)| s.layer == Layer::Sim && s.group.kind != "shutdown")
        .collect();
    let is_wait = |s: &SpanRec| matches!(s.group.kind, "checkpoint" | "recover");
    let sim_wait: f64 = in_window
        .iter()
        .filter(|(s, _)| is_wait(s))
        .map(|(_, t)| t)
        .sum();
    let sim_self: f64 = in_window
        .iter()
        .filter(|(s, _)| !is_wait(s))
        .map(|(_, t)| t)
        .sum();
    let cells = finish_calls * adapter::finish_cells(w);
    let per = |t: f64, n: u64| if n == 0 { 0.0 } else { t * 1e9 / n as f64 };
    vec![
        ("finish.busy_s", "s", finish_s),
        ("finish.calls", "count", finish_calls as f64),
        ("finish.outputs", "count", finish_outputs as f64),
        ("finish.cells", "count", cells as f64),
        ("finish.ns_per_cell", "ns", per(finish_s, cells)),
        ("client.calls", "count", client_calls as f64),
        ("client.users", "count", client_users as f64),
        ("client.busy_s", "s", client_s),
        ("client.ns_per_user", "ns", per(client_s, client_users)),
        ("client.bytes", "B", client_bytes as f64),
        ("ingest.calls", "count", ingest_calls as f64),
        ("ingest.frames", "count", ingest_frames as f64),
        ("ingest.busy_s", "s", ingest_s),
        ("ingest.ns_per_frame", "ns", per(ingest_s, ingest_frames)),
        ("merge.calls", "count", merge_calls as f64),
        ("merge.busy_s", "s", merge_s),
        ("snapshot.encode_calls", "count", encode_calls as f64),
        ("snapshot.encode_s", "s", encode_s + len_s),
        ("snapshot.bytes", "B", snapshot_bytes as f64),
        ("snapshot.decode_calls", "count", decode_calls as f64),
        ("snapshot.decode_s", "s", decode_s),
        ("estimate.calls", "count", estimate_calls as f64),
        ("estimate.busy_s", "s", estimate_s),
        ("sim.checkpoints", "count", st.checkpoints as f64),
        ("sim.checkpoint_s", "s", st.checkpoint_s),
        ("sim.fold_s", "s", st.fold_s),
        ("sim.recoveries", "count", st.recoveries as f64),
        ("sim.recovery_s", "s", st.recovery_s),
        ("sim.replayed_reports", "count", st.replayed_reports as f64),
        ("sim.self_s", "s", sim_self),
        ("sim.wait_s", "s", sim_wait),
        ("sim.producer_stall_s", "s", st.producer_stall_s),
        ("sim.queue_max", "count", st.queue_max as f64),
        ("sim.cache_hits", "count", st.cache_hits as f64),
        ("sim.merge_s", "s", st.merge_s),
        ("sim.e2e_s", "s", e2e),
        ("sim.ingest_s", "s", step_secs(it, is_ingest)),
        ("sim.query_s", "s", step_secs(it, |s| s == Step::Query)),
        (
            "trace.finish_seen_frac",
            "frac",
            finish_path_s / (st.finish_s - st.fold_s),
        ),
        ("trace.spans", "count", spans.len() as f64),
    ]
}

fn per_layer(w: &Workload, done: &[Done], quality: &Quality) -> (Vec<Metric>, Vec<Row>) {
    let traced: Vec<Vec<Metric>> = done
        .iter()
        .filter(|d| d.traced)
        .map(|d| layer_values(w, &d.it))
        .collect();
    let plain_e2e: Vec<f64> = done
        .iter()
        .filter(|d| !d.traced)
        .map(|d| e2e_window(&d.it))
        .collect();
    let mut rows: Vec<Row> = Vec::new();
    if let Some(first) = traced.first() {
        for (k, (name, unit, _)) in first.iter().enumerate() {
            let samples: Vec<f64> = traced.iter().map(|m| m[k].2).collect();
            rows.push((*name, *unit, summarize(&samples)));
        }
        let traced_e2e: Vec<f64> = traced
            .iter()
            .map(|m| m.iter().find(|x| x.0 == "sim.e2e_s").map_or(0.0, |x| x.2))
            .collect();
        let overhead = stats::median(&traced_e2e) / stats::median(&plain_e2e) - 1.0;
        rows.push(("trace.overhead_frac", "frac", summarize(&[overhead])));
        rows.push((
            "quality.recall",
            "frac",
            summarize(&mean_or_one(&quality.recall)),
        ));
        rows.push((
            "quality.max_err_ratio",
            "ratio",
            summarize(&quality.max_err_ratio),
        ));
    }
    let metrics = rows.iter().map(|(n, u, s)| (*n, *u, s.median)).collect();
    (metrics, rows)
}

/// Peak resident set of this process (`VmHWM`), in MB. Each workload runs
/// in its own process, so this is the workload's peak alone.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn meta_json(args: &Args, w: &Workload, measured_s: f64, done: &[Done]) -> String {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    Json::new()
        .str("workload", w.name)
        .str("protocol", w.protocol)
        .int("seed", args.seed)
        .int("n", w.n())
        .int("domain", w.domain)
        .num("eps", w.eps)
        .num("beta", w.beta)
        .int("epochs", w.epochs.len() as u64)
        .int("queries", w.queries() as u64)
        .str("commit", &env("PERFBENCH_COMMIT"))
        .str("rustc", &env("PERFBENCH_RUSTC"))
        .int("nproc", adapter::finish_threads() as u64)
        .raw(
            "threads",
            Json::new()
                .int("session", 1)
                .int("encoders_on_session_thread", adapter::ENCODERS as u64)
                .int("collectors", adapter::COLLECTORS as u64)
                .int("finish", adapter::finish_threads() as u64)
                .int("queue_depth", adapter::QUEUE_DEPTH as u64)
                .int("chunk_users", adapter::CHUNK_USERS as u64)
                .build(),
        )
        .str(
            "loop",
            "closed: one producer, next step when the previous returns",
        )
        .int("trace", u64::from(args.trace))
        .num("measured_s", measured_s)
        .int("iterations", done.len() as u64)
        .build()
}

fn print_report(
    args: &Args,
    w: &Workload,
    rows: &[Row],
    ledger: &Ledger,
    measured_s: f64,
    iterations: usize,
) {
    println!(
        "perfbench {} ({}, n = {}, |X| = {}) seed {} trace {}: {} iterations in {:.1} s",
        w.name,
        w.protocol,
        w.n(),
        w.domain,
        args.seed,
        u8::from(args.trace),
        iterations,
        measured_s
    );
    println!(
        "  {:<24} {:>14} {:>6} {:>14} {:>14} {:>14} {:>5}",
        "metric", "value", "unit", "q1", "median", "q3", "n"
    );
    for (name, unit, s) in rows {
        let value = if name.ends_with("tail_ms") {
            s.tail.1
        } else {
            s.median
        };
        let label = if name.ends_with("tail_ms") {
            format!("{name} (p{:.0})", s.tail.0)
        } else {
            name.to_string()
        };
        println!(
            "  {label:<24} {value:>14.6} {unit:>6} {:>14.6} {:>14.6} {:>14.6} {:>5}",
            s.q1, s.median, s.q3, s.count
        );
    }
    println!(
        "  ops: {} attempted, {} failed",
        ledger.attempted, ledger.failed
    );
    for p in &ledger.problems {
        println!("  FAILED: {p}");
    }
}

/// Write the full record (metadata, per-metric summaries, failures) and,
/// for a traced run, the spans of its last traced iteration.
fn write_record(args: &Args, meta: &str, rows: &[Row], ledger: &Ledger, done: &[Done]) {
    let metrics = rows
        .iter()
        .map(|(name, unit, s)| {
            Json::new()
                .str("name", name)
                .str("unit", unit)
                .int("count", s.count as u64)
                .num("q1", s.q1)
                .num("median", s.median)
                .num("q3", s.q3)
                .num("tail_percentile", s.tail.0)
                .num("tail", s.tail.1)
                .raw(
                    "samples",
                    format!(
                        "[{}]",
                        s.samples
                            .iter()
                            .map(|v| num(*v))
                            .collect::<Vec<_>>()
                            .join(", ")
                    ),
                )
                .build()
        })
        .collect::<Vec<_>>()
        .join(",\n    ");
    let problems = ledger
        .problems
        .iter()
        .map(|p| format!("\"{}\"", p.replace('"', "'")))
        .collect::<Vec<_>>()
        .join(", ");
    let record = format!(
        "{{\n  \"meta\": {meta},\n  \"attempted\": {},\n  \"failed\": {},\n  \"problems\": [{problems}],\n  \"metrics\": [\n    {metrics}\n  ]\n}}\n",
        ledger.attempted, ledger.failed
    );
    let stem = format!(
        "{OUT_DIR}/{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let written = std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(format!("{stem}.json"), record))
        .and_then(|()| match done.iter().rev().find(|d| d.traced) {
            Some(d) => std::fs::write(format!("{stem}-spans.json"), trace::to_json(&d.it.spans)),
            None => Ok(()),
        });
    if let Err(e) = written {
        eprintln!("perfbench: could not write {stem}.json: {e}");
    }
}
