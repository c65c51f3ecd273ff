//! Host-speed calibration.
//!
//! The benchmark is meant for small shared machines, whose cores, caches
//! and memory other tenants use too. Their speed drifts slowly: on the
//! 2-thread VM this was tuned on, every workload ran up to 2× slower for
//! minutes at a time, all together. So the run also times a fixed kernel
//! of its own, which calls nothing in the library: hash-driven random
//! reads, on each of two threads (the fleet's two collector actors, or a
//! 2-thread finish), over a 4 MiB table of that thread's own. It runs
//! before every iteration and once after the last, outside the timed
//! steps, in a child process (this binary with `--calibrate`), so that its
//! tables stay out of the workload's `peak_rss_mb`.
//!
//! The run's timing metrics are then scaled by [`REFERENCE_S`] over the
//! median kernel time: they read in seconds of a host on which the kernel
//! takes [`REFERENCE_S`]. A slower library still reads slower; a slower
//! host mostly does not. METRICS.md gives the measured effect.

use std::process::Command;
use std::time::Instant;

/// Kernel time that defines the reference host: about the median on the
/// 2-thread VM the benchmark was tuned on.
pub const REFERENCE_S: f64 = 0.045;

const TABLE_WORDS: usize = 1 << 19;
const STEPS_PER_THREAD: u64 = 8_000_000;
const THREADS: u64 = 2;

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seconds the kernel takes right now, timed in a child process.
pub fn measure() -> f64 {
    let out = std::env::current_exe()
        .and_then(|exe| Command::new(exe).arg("--calibrate").output())
        .expect("calibration process runs");
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .expect("calibration process prints its time")
}

/// Seconds the kernel takes in this process. The tables are built before
/// the clock starts.
pub fn kernel_s() -> f64 {
    let tables: Vec<Vec<u64>> = (0..THREADS)
        .map(|t| (0..TABLE_WORDS as u64).map(|i| mix(i ^ t)).collect())
        .collect();
    let mask = TABLE_WORDS - 1;
    let start = Instant::now();
    let sum: u64 = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let table = &tables[t as usize];
                scope.spawn(move || {
                    let (mut x, mut acc) = (t, 0u64);
                    for j in 0..STEPS_PER_THREAD {
                        x = mix(x ^ j);
                        acc = acc.wrapping_add(table[x as usize & mask]);
                    }
                    acc
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("calibration thread panicked"))
            .sum()
    });
    let secs = start.elapsed().as_secs_f64();
    std::hint::black_box(sum);
    secs
}
