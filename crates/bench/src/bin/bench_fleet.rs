//! Timing harness for the sharded registry fleet.
//!
//! Answers "what does sharding buy on ingest?" by pushing the same
//! synthetic batch stream through a 1-shard fleet (the single-registry
//! durable path plus fleet plumbing) and a 4-shard fleet (hash-routed,
//! per-shard WAL lineage, one worker thread per touched shard).
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p dctstream-bench --bin bench_fleet [-- --json] [-- --check]
//! ```
//!
//! Always prints a human-readable table; with `--json` it also writes
//! `BENCH_fleet.json` into the current directory. With `--check` it
//! exits non-zero unless the 4-shard fleet clears the tiered ingest
//! floor: at least 2x the single-shard rate with 4+ cores, 1.2x with
//! 2-3 cores, and 0.9x (sharding overhead bounded at 10%) on 1 core.

use dctstream_core::{CosineSynopsis, Domain, Grid};
use dctstream_stream::{FleetOptions, ShardedRegistry, Summary};
use std::path::PathBuf;
use std::time::Instant;

/// Tuples ingested per measured iteration.
const TUPLES: usize = 40_000;
/// Rows per `ingest` call (each call is one routed, synced batch).
const BATCH: usize = 4_096;
/// Synopsis size (matches the other ingest benches).
const COEFFS: usize = 1_024;
/// Value domain for the synthetic stream.
const DOMAIN: usize = 100_000;
/// Timed repetitions per configuration; the median is reported.
const REPS: usize = 5;
/// Shard count for the fleet row.
const SHARDS: usize = 4;

struct Row {
    name: &'static str,
    median_secs: f64,
    items_per_sec: f64,
    speedup_vs_serial: f64,
}

/// Median of `REPS` wall-clock timings of `f` (one warmup run first).
fn median_secs<F: FnMut()>(mut f: F) -> f64 {
    f();
    let mut times: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    times[times.len() / 2]
}

fn batch_rows() -> Vec<(Vec<i64>, f64)> {
    (0..TUPLES)
        .map(|i| (vec![((i * 7_919) % DOMAIN) as i64], 1.0))
        .collect()
}

fn fresh_summary() -> Summary {
    Summary::Cosine(CosineSynopsis::new(Domain::of_size(DOMAIN), Grid::Midpoint, COEFFS).unwrap())
}

fn bench_dir(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dctstream_bench_fleet_{name}"))
}

/// One full ingest run through a fresh fleet of `shards` shards.
fn fleet_run(dir: &PathBuf, shards: usize, rows: &[(Vec<i64>, f64)]) {
    let _ = std::fs::remove_dir_all(dir);
    let fleet = ShardedRegistry::create(dir, shards, FleetOptions::default()).unwrap();
    fleet.register("s", fresh_summary()).unwrap();
    let rows: Vec<(&[i64], f64)> = rows.iter().map(|(t, w)| (t.as_slice(), *w)).collect();
    for chunk in rows.chunks(BATCH) {
        fleet.ingest("s", chunk).unwrap();
    }
    std::hint::black_box(fleet.status());
}

fn print_table(title: &str, rows: &[Row]) {
    println!("\n{title}");
    println!(
        "  {:<16} {:>12} {:>16} {:>10}",
        "path", "median", "items/sec", "speedup"
    );
    for r in rows {
        println!(
            "  {:<16} {:>9.1} ms {:>16.0} {:>9.2}x",
            r.name,
            r.median_secs * 1e3,
            r.items_per_sec,
            r.speedup_vs_serial
        );
    }
}

fn main() {
    let json = std::env::args().any(|a| a == "--json");
    let check = std::env::args().any(|a| a == "--check");
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    println!("dctstream sharded-fleet ingest summary");
    println!(
        "  tuples per run: {TUPLES}, batch: {BATCH}, coefficients: {COEFFS}, \
         reps: {REPS} (median), cores: {cores}"
    );

    let rows_in = batch_rows();
    let single_dir = bench_dir("single");
    let fleet_dir = bench_dir("fleet");
    let mut rows = vec![
        Row {
            name: "single-shard",
            median_secs: median_secs(|| fleet_run(&single_dir, 1, &rows_in)),
            items_per_sec: 0.0,
            speedup_vs_serial: 1.0,
        },
        Row {
            name: "fleet-4",
            median_secs: median_secs(|| fleet_run(&fleet_dir, SHARDS, &rows_in)),
            items_per_sec: 0.0,
            speedup_vs_serial: 1.0,
        },
    ];
    let _ = std::fs::remove_dir_all(&single_dir);
    let _ = std::fs::remove_dir_all(&fleet_dir);
    let serial = rows[0].median_secs;
    for r in &mut rows {
        r.items_per_sec = TUPLES as f64 / r.median_secs;
        r.speedup_vs_serial = serial / r.median_secs;
    }
    print_table("batch ingest (1-shard fleet vs 4-shard fleet)", &rows);

    if json {
        let entries: Vec<String> = rows
            .iter()
            .map(|r| {
                format!(
                    "      {{\"name\": \"{}\", \"median_secs\": {:.6}, \
                     \"items_per_sec\": {:.1}, \"speedup_vs_serial\": {:.3}}}",
                    r.name, r.median_secs, r.items_per_sec, r.speedup_vs_serial
                )
            })
            .collect();
        let body = format!(
            "{{\n  \"fleet_ingest\": {{\n    \"items_per_iteration\": {TUPLES},\n    \
             \"shards\": {SHARDS},\n    \"cores\": {cores},\n    \"results\": [\n{}\n    ]\n  }}\n}}\n",
            entries.join(",\n")
        );
        std::fs::write("BENCH_fleet.json", &body).expect("write BENCH_fleet.json");
        println!("\nwrote BENCH_fleet.json");
    }

    if check {
        // Tiered CI gate: sharding must scale where cores exist, and
        // cost no more than 10% where they don't.
        let floor = if cores >= 4 {
            2.0
        } else if cores >= 2 {
            1.2
        } else {
            0.9
        };
        let ratio = rows[1].items_per_sec / rows[0].items_per_sec;
        if ratio < floor {
            eprintln!(
                "CHECK FAILED: fleet-4 is {ratio:.2}x single-shard (floor {floor:.1}x on \
                 {cores} core(s)): {:.0} vs {:.0} items/s",
                rows[1].items_per_sec, rows[0].items_per_sec
            );
            std::process::exit(1);
        }
        println!(
            "\ncheck passed: fleet-4 is {ratio:.2}x single-shard (floor {floor:.1}x on {cores} core(s))"
        );
    }
}
