//! # ablate_sharding — the ParSim sharded-cluster ablation
//!
//! Runs the Fig 10 shared-file sweep (root writes, every node reads,
//! MCD(1)) on the sharded engine three times per point — serial
//! (`workers = 1`), on as many workers as the host has cores
//! (`available_parallelism`), and on an 8-worker fleet — and asserts the
//! two properties the sharding refactor promises:
//!
//! * **`sharded_bitident`** — the simulated outcome (per-size
//!   latencies, every timed op, virtual end time, event count, and the
//!   whole merged metrics document minus the host-clock `sim.*`
//!   profile) is bit-identical across all three worker counts.
//!   Conservative barrier-epoch sync is not an approximation.
//! * **`sharded_speedup`** — the shard cut exposes ≥2× parallelism at
//!   8 workers. The figure is the critical-path projection from the
//!   serial run's per-shard busy wall time onto the round-robin
//!   8-worker assignment (total busy ÷ busiest worker's share): the
//!   machine-independent statement of how much faster the fleet runs
//!   once 8 host cores are actually free. The measured wall ratios of
//!   1 worker over the host-core fleet and over the 8-worker fleet, the
//!   host's core count, and each run's epoch profile (shard windows run,
//!   host time in windows, coordinator handoff and barrier waits) are
//!   recorded alongside — on a box with fewer free cores than workers
//!   the 8-worker wall ratio legitimately falls below 1 while the
//!   projection holds.
//!
//! Emits `results/ablate_sharding.{json,txt}`, the merged metrics
//! document (including the `sim.epochs` / `sim.events` / `sim.windows`
//! counters and the per-worker phase profile), and the consolidated
//! `results/BENCH_10.json` that `scripts/tier1.sh --strict` checks.

use imca_bench::{emit, emit_metrics, Options};
use imca_core::ShardPlan;
use imca_metrics::Snapshot;
use imca_workloads::latbench::LatencyBench;
use imca_workloads::report::Table;
use imca_workloads::shardbench::{
    critical_path_speedup, run, FleetProfile, ShardedLatencyBench, ShardedLatencyResult,
};
use imca_workloads::SystemSpec;

/// The claim's worker count (ISSUE 10 acceptance: ≥2× at 8 workers).
const SPEEDUP_WORKERS: usize = 8;

/// Bit-identity across worker counts: everything the simulation decides
/// must match; only the host-clock `sim.*` profile may differ.
fn bitident(a: &ShardedLatencyResult, b: &ShardedLatencyResult) -> bool {
    let trace_metrics = |r: &ShardedLatencyResult| -> Vec<(String, imca_metrics::MetricValue)> {
        r.result
            .metrics
            .metrics
            .iter()
            .filter(|(name, _)| !name.starts_with("sim."))
            .map(|(name, v)| (name.clone(), v.clone()))
            .collect()
    };
    a.fleet.end_time_ns == b.fleet.end_time_ns
        && a.fleet.events == b.fleet.events
        && a.fleet.epochs == b.fleet.epochs
        && a.result.write_us == b.result.write_us
        && a.result.read_us == b.result.read_us
        && a.result.read_op_ns == b.result.read_op_ns
        && a.result.cm_read_hits == b.result.cm_read_hits
        && a.result.cm_read_misses == b.result.cm_read_misses
        && trace_metrics(a) == trace_metrics(b)
}

fn main() {
    let opts = Options::from_args(
        "ablate_sharding",
        "sharded-cluster ParSim ablation: Fig-10 shared sweep, 1-worker vs 8-worker \
         bit-identity + critical-path speedup",
    );
    let records = if opts.full {
        1024
    } else if opts.smoke {
        48
    } else {
        256
    };
    let node_sweep: Vec<usize> = if opts.full {
        vec![2, 4, 8, 16, 32]
    } else if opts.smoke {
        vec![2, 8]
    } else {
        vec![2, 8, 24]
    };
    let record_size = 2048u64;

    struct Point {
        nodes: usize,
        plan: ShardPlan,
        serial: ShardedLatencyResult,
        fleet_host: ShardedLatencyResult,
        fleet8: ShardedLatencyResult,
        bitident: bool,
        speedup: f64,
    }

    let mut points: Vec<Point> = Vec::new();
    for &nodes in &node_sweep {
        // One bank shard (the figure runs MCD(1)) plus up to 8 client
        // groups — the same plan for both runs, so the only variable is
        // the worker count.
        let plan = ShardPlan {
            client_groups: nodes.min(8),
            bank_shards: 1,
        };
        let bench = LatencyBench {
            spec: SystemSpec::imca(1),
            clients: nodes,
            record_sizes: vec![record_size],
            records,
            warmup: false,
            shared_file: true,
            seed: opts.seed,
        };
        let run_on = |workers: usize| {
            run(&ShardedLatencyBench {
                bench: bench.clone(),
                plan,
                workers,
            })
        };
        let serial = run_on(1);
        let fleet_host = run_on(host_cores());
        let fleet8 = run_on(SPEEDUP_WORKERS);
        let identical = bitident(&serial, &fleet_host) && bitident(&serial, &fleet8);
        // The serial run measures every shard's busy time on one core —
        // the honest input for projecting the 8-worker critical path.
        let speedup = critical_path_speedup(&serial.fleet.shard_busy_ns, SPEEDUP_WORKERS);
        println!(
            "{nodes:>3} nodes ({} shards): read {:.2} us, {} events / {} epochs \
             ({:.1} ev/epoch, {:.2} windows/epoch), bitident={identical}, critical-path \
             speedup {speedup:.2}x (wall {:.3}s at 1w, {:.3}s at {}w, {:.3}s at \
             {SPEEDUP_WORKERS}w on {} host cores)",
            1 + plan.bank_shards + plan.client_groups,
            serial.result.read_at(record_size).unwrap(),
            serial.fleet.events,
            serial.fleet.epochs,
            serial.fleet.events_per_epoch,
            serial.fleet.windows_per_epoch(),
            serial.fleet.wall_ns as f64 / 1e9,
            fleet_host.fleet.wall_ns as f64 / 1e9,
            host_cores(),
            fleet8.fleet.wall_ns as f64 / 1e9,
            host_cores(),
        );
        points.push(Point {
            nodes,
            plan,
            serial,
            fleet_host,
            fleet8,
            bitident: identical,
            speedup,
        });
    }

    let mut table = Table::new(
        "Sharded Fig 10: shared-file read latency, 1-worker vs 8-worker fleet",
        "nodes",
        "microseconds / ratio",
        vec![
            "read us (1w)".into(),
            "read us (8w)".into(),
            "critical-path speedup".into(),
        ],
    );
    for p in &points {
        table.push_row(
            p.nodes as f64,
            vec![
                p.serial.result.read_at(record_size),
                p.fleet8.result.read_at(record_size),
                Some(p.speedup),
            ],
        );
    }
    emit(&opts, "ablate_sharding", &table);

    // ---- the claims ----
    let claim = points.last().expect("empty sweep");
    let all_bitident = points.iter().all(|p| p.bitident);
    let sharded_speedup = claim.speedup;
    let speedup_ge_2x = sharded_speedup >= 2.0;
    let wall_ratio = measured_ratio(&claim.serial.fleet, &claim.fleet8.fleet);
    let wall_ratio_host = measured_ratio(&claim.serial.fleet, &claim.fleet_host.fleet);

    println!(
        "claims at {} nodes: sharded_bitident={all_bitident}, sharded_speedup={sharded_speedup:.2}x \
         (critical-path at {SPEEDUP_WORKERS} workers; measured wall ratio {wall_ratio_host:.2}x at \
         {} workers = host cores, {wall_ratio:.2}x at {SPEEDUP_WORKERS} workers)",
        claim.nodes,
        host_cores(),
    );

    // ---- consolidated BENCH_10.json for scripts/tier1.sh --strict ----
    let mode = if opts.smoke {
        "smoke"
    } else if opts.full {
        "full"
    } else {
        "default"
    };
    let mut doc = String::from("{\n  \"bench\": \"ablate_sharding\",\n");
    doc.push_str(&format!("  \"mode\": \"{mode}\",\n"));
    doc.push_str(&format!(
        "  \"workload\": {{\"figure\": \"fig10_shared\", \"system\": \"MCD (1)\", \
         \"record_size\": {record_size}, \"records\": {records}, \"shared_file\": true}},\n"
    ));
    doc.push_str(&format!("  \"speedup_workers\": {SPEEDUP_WORKERS},\n"));
    doc.push_str("  \"series\": [\n");
    let total = points.len();
    for (i, p) in points.iter().enumerate() {
        doc.push_str(&format!(
            "    {{\"nodes\": {}, \"shards\": {}, \"client_groups\": {}, \"bank_shards\": {}, \
             \"read_us\": {:.3}, \"end_time_ns\": {}, \"events\": {}, \"epochs\": {}, \
             \"events_per_epoch\": {:.3}, \"windows\": {}, \"windows_per_epoch\": {:.3}, \
             \"bitident\": {}, \"critical_path_speedup\": {:.3}, \
             \"wall_1w_s\": {:.4}, \"wall_host_w_s\": {:.4}, \"wall_8w_s\": {:.4}, \
             \"measured_wall_ratio_host_w\": {:.3}, \"measured_wall_ratio_8w\": {:.3}, \
             \"epoch_profile\": {{\"1w\": {}, \"host_w\": {}, \"8w\": {}}}}}{}\n",
            p.nodes,
            1 + p.plan.bank_shards + p.plan.client_groups,
            p.plan.client_groups,
            p.plan.bank_shards,
            p.serial.result.read_at(record_size).unwrap(),
            p.serial.fleet.end_time_ns,
            p.serial.fleet.events,
            p.serial.fleet.epochs,
            p.serial.fleet.events_per_epoch,
            p.serial.fleet.windows,
            p.serial.fleet.windows_per_epoch(),
            p.bitident,
            p.speedup,
            p.serial.fleet.wall_ns as f64 / 1e9,
            p.fleet_host.fleet.wall_ns as f64 / 1e9,
            p.fleet8.fleet.wall_ns as f64 / 1e9,
            measured_ratio(&p.serial.fleet, &p.fleet_host.fleet),
            measured_ratio(&p.serial.fleet, &p.fleet8.fleet),
            phase_json(&p.serial.fleet),
            phase_json(&p.fleet_host.fleet),
            phase_json(&p.fleet8.fleet),
            if i + 1 < total { "," } else { "" }
        ));
    }
    doc.push_str("  ],\n");
    doc.push_str(&format!("  \"claim_nodes\": {},\n", claim.nodes));
    doc.push_str(&format!("  \"sharded_bitident\": {all_bitident},\n"));
    doc.push_str(&format!("  \"sharded_speedup\": {sharded_speedup:.3},\n"));
    doc.push_str(
        "  \"speedup_model\": \"critical-path projection: 1-worker per-shard busy wall time \
         onto the round-robin 8-worker assignment (total busy / busiest worker's share); \
         equals the wall-clock ratio once >= 8 host cores are free\",\n",
    );
    doc.push_str(&format!(
        "  \"measured_wall_ratio\": {wall_ratio:.3},\n  \"measured_wall_ratio_host_workers\": \
         {wall_ratio_host:.3},\n  \"host_cores\": {},\n",
        host_cores()
    ));
    doc.push_str(&format!(
        "  \"claims\": {{\"sharded_bitident\": {all_bitident}, \"speedup_ge_2x\": \
         {speedup_ge_2x}}}\n}}\n"
    ));
    let _ = std::fs::create_dir_all(&opts.out_dir);
    let path = opts.out_dir.join("BENCH_10.json");
    std::fs::write(&path, &doc).expect("cannot write BENCH_10.json");
    println!("(consolidated summary written to {})", path.display());

    // Metrics document from the deepest point's serial run — carries the
    // fleet-efficiency counters (sim.epochs, sim.events, sim.windows,
    // per-shard busy and the per-worker phase profile) next to the
    // cluster tiers.
    let mut merged = Snapshot::new();
    merged.merge_prefixed(
        &format!("sharded_mcd_1.{}n", claim.nodes),
        &claim.serial.result.metrics,
    );
    emit_metrics(&opts, "ablate_sharding", &merged);

    assert!(
        all_bitident,
        "sharded runs diverged across worker counts — conservative sync is broken"
    );
    if !opts.smoke {
        assert!(
            speedup_ge_2x,
            "shard cut exposes only {sharded_speedup:.2}x critical-path parallelism at \
             {SPEEDUP_WORKERS} workers (need >= 2x)"
        );
    }
    println!(
        "claims hold: bit-identical across 1/{SPEEDUP_WORKERS} workers, \
         {sharded_speedup:.2}x critical-path speedup"
    );
}

/// Measured wall-clock speedup of `fleet` over the serial run.
fn measured_ratio(serial: &FleetProfile, fleet: &FleetProfile) -> f64 {
    serial.wall_ns as f64 / fleet.wall_ns.max(1) as f64
}

/// One run's epoch profile: host time summed over workers per phase.
fn phase_json(f: &FleetProfile) -> String {
    let sum = |v: &[u64]| v.iter().sum::<u64>();
    format!(
        "{{\"workers\": {}, \"windows\": {}, \"window_ns\": {}, \"handoff_ns\": {}, \
         \"barrier_ns\": {}}}",
        f.worker_busy_ns.len(),
        f.windows,
        sum(&f.worker_window_ns),
        sum(&f.worker_handoff_ns),
        sum(&f.worker_barrier_ns),
    )
}

fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}
