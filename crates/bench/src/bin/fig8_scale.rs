//! # fig8_scale — bank-scale Fig 8 sweep + engine-speed yardstick
//!
//! Two jobs in one binary, both built on `imca_workloads::scale`:
//!
//! 1. **Engine A/B** — run the *same* 10 000-client × 8-MCD point under
//!    the pre-refactor engine idioms (`SingleLoop`: heap timers,
//!    watchdog per op, reply-task spawn, materialised wire frames) and
//!    the refactored fast path (`Optimized`: timer wheel + slab store,
//!    pooled encoding, struct RPC). The simulated outcome must be
//!    bit-identical; only the simulator's wall clock may differ. The
//!    engines run in interleaved pairs (alternating which goes first),
//!    and the gate is the median of the per-pair wall ratios: host
//!    drift hits both halves of a pair alike, and one disturbed pair
//!    cannot move a median. Deterministic cost counters (engine events,
//!    tasks and allocations per op, from one untimed counting run per
//!    engine) are recorded alongside, so a change in the ratio can be
//!    told apart from a change in the work.
//! 2. **Scaling sweep** — clients × MCDs grid under the fast engine,
//!    locating the saturation knee per series: p99 inflection,
//!    superlinear hottest-daemon queue growth, server-NIC utilisation,
//!    and (at R>1) the SMCache push fan-out tax.
//!
//! Emits `results/fig8_scale.{json,txt}` plus the consolidated
//! `results/BENCH_8.json` that `scripts/tier1.sh --strict` checks for
//! the `opsec_speedup_4x` and `knee_found` claims.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use imca_bench::{emit, parallel_sweep_bounded, Options};
use imca_workloads::report::Table;
use imca_workloads::scale::{run_scale, EngineStyle, ScaleConfig, ScaleOut};

/// The claim point: where the ≥4× simulator-throughput bar is measured.
const CLAIM_CLIENTS: usize = 10_000;
const CLAIM_MCDS: usize = 8;
const CLAIM_OPS: u64 = 20;

/// Interleaved base/fast pairs timed at the claim point.
const PAIRS: usize = 11;

/// The system allocator, counting allocations while [`COUNTING`] is set
/// (the timed runs leave it clear and pay one relaxed load each).
struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters are statistics and guard no memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        }
        // SAFETY: `ptr` came from `System` with this `layout`, and the
        // caller upholds `realloc`'s contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// One engine at the claim point: the simulated outcome and allocation
/// counts of an untimed counting run, plus the wall time of each timed
/// run.
struct Engine {
    out: ScaleOut,
    allocs: u64,
    alloc_bytes: u64,
    walls: Vec<f64>,
}

impl Engine {
    /// Run `cfg` once with allocation counting on (also the warm-up).
    fn counted(cfg: &ScaleConfig) -> Engine {
        let (a0, b0) = (
            ALLOCS.load(Ordering::Relaxed),
            ALLOC_BYTES.load(Ordering::Relaxed),
        );
        COUNTING.store(true, Ordering::Relaxed);
        let out = run_scale(cfg);
        COUNTING.store(false, Ordering::Relaxed);
        Engine {
            out,
            allocs: ALLOCS.load(Ordering::Relaxed) - a0,
            alloc_bytes: ALLOC_BYTES.load(Ordering::Relaxed) - b0,
            walls: Vec::with_capacity(PAIRS),
        }
    }

    /// Time one run of `cfg`, checking it replays the counted outcome.
    fn time(&mut self, cfg: &ScaleConfig) -> f64 {
        let t0 = Instant::now();
        let out = run_scale(cfg);
        let wall = t0.elapsed().as_secs_f64();
        assert!(
            out.ops == self.out.ops && out.events == self.out.events,
            "a timed repetition diverged from the counted run"
        );
        self.walls.push(wall);
        wall
    }

    fn wall_median(&self) -> f64 {
        median(&self.walls)
    }

    fn per_op(&self, n: u64) -> f64 {
        n as f64 / self.out.ops.max(1) as f64
    }
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A series is one (mcds, replication) line over ascending client
/// counts; the knee is the first point where a congestion signal trips.
struct Series {
    mcds: usize,
    replication: usize,
    clients: Vec<usize>,
    outs: Vec<ScaleOut>,
}

struct Knee {
    clients: usize,
    reason: String,
}

fn p99_us(out: &ScaleOut) -> f64 {
    out.latency.quantile(0.99).as_nanos() as f64 / 1_000.0
}

fn p50_us(out: &ScaleOut) -> f64 {
    out.latency.quantile(0.50).as_nanos() as f64 / 1_000.0
}

/// Walk consecutive points and report the first one past the knee.
/// Signals, in priority order: server-NIC utilisation ≥ 0.9, p99
/// inflecting ≥3× across one step, hottest-daemon queue depth growing
/// more than 2× faster than the client count. At R>1 the annotation
/// also carries the push fan-out, since replica pushes ride the same
/// daemon queues that trip the signal.
fn find_knee(s: &Series) -> Option<Knee> {
    for w in 0..s.clients.len().saturating_sub(1) {
        let (c0, c1) = (s.clients[w], s.clients[w + 1]);
        let (a, b) = (&s.outs[w], &s.outs[w + 1]);
        let growth = c1 as f64 / c0 as f64;
        let reason = if b.server_utilisation() >= 0.9 {
            Some(format!(
                "server NIC saturates: utilisation {:.2} at {c1} clients (was {:.2} at {c0})",
                b.server_utilisation(),
                a.server_utilisation()
            ))
        } else if p99_us(b) >= 3.0 * p99_us(a) {
            Some(format!(
                "p99 inflects: {:.1} us at {c0} clients -> {:.1} us at {c1}",
                p99_us(a),
                p99_us(b)
            ))
        } else if b.hottest_queue_peak() as f64
            > 2.0 * growth * a.hottest_queue_peak().max(1) as f64
            && b.hottest_queue_peak() > 64
        {
            Some(format!(
                "hottest-daemon queue grows superlinearly: peak {} -> {} for {:.0}x clients",
                a.hottest_queue_peak(),
                b.hottest_queue_peak(),
                growth
            ))
        } else {
            None
        };
        if let Some(mut reason) = reason {
            if s.replication > 1 {
                reason.push_str(&format!(
                    "; R={} push fan-out adds {:.2} replica pushes per fill to the same queues",
                    s.replication,
                    b.push_amplification()
                ));
            }
            return Some(Knee {
                clients: c1,
                reason,
            });
        }
    }
    None
}

fn main() {
    let opts = Options::from_args(
        "fig8_scale",
        "bank-scale client sweep + SingleLoop-vs-Optimized simulator speed yardstick",
    );

    // ---- engine A/B at the claim point (timed, strictly sequential) ----
    let mut claim_cfg = ScaleConfig::new(CLAIM_CLIENTS, CLAIM_MCDS);
    claim_cfg.ops_per_client = CLAIM_OPS;
    claim_cfg.seed = opts.seed;
    let mut base_cfg = claim_cfg.clone();
    base_cfg.engine = EngineStyle::SingleLoop;
    claim_cfg.engine = EngineStyle::Optimized;
    println!(
        "engine A/B: {CLAIM_CLIENTS} clients x {CLAIM_MCDS} MCDs, {CLAIM_OPS} ops/client, \
         median of {PAIRS} interleaved pair ratios"
    );
    let mut base = Engine::counted(&base_cfg);
    let mut fast = Engine::counted(&claim_cfg);
    let pair_ratios: Vec<f64> = (0..PAIRS)
        .map(|i| {
            // Alternate which engine goes first so a drift in host speed
            // within a pair biases neither.
            if i % 2 == 0 {
                let b = base.time(&base_cfg);
                b / fast.time(&claim_cfg)
            } else {
                let f = fast.time(&claim_cfg);
                base.time(&base_cfg) / f
            }
        })
        .collect();

    // The refactor must not change what is simulated, only how fast.
    let outcome_identical = base.out.ops == fast.out.ops
        && base.out.hits == fast.out.hits
        && base.out.fills == fast.out.fills
        && base.out.end_time == fast.out.end_time
        && base.out.latency.quantile(0.99) == fast.out.latency.quantile(0.99)
        && base.out.queue_peaks == fast.out.queue_peaks;
    // Identical simulated work, so the wall ratio *is* the ops/sec ratio.
    let speedup = median(&pair_ratios);
    for (label, t) in [("single_loop", &base), ("optimized", &fast)] {
        println!(
            "  {label:>11}: wall median {:.3}s (all {:?}), {:.1} events/op, {:.2} tasks/op, \
             {:.1} allocs/op, {:.0} sim-ops/wall-sec",
            t.wall_median(),
            t.walls
                .iter()
                .map(|w| (w * 1000.0).round() / 1000.0)
                .collect::<Vec<_>>(),
            t.per_op(t.out.events),
            t.per_op(t.out.tasks_spawned),
            t.per_op(t.allocs),
            t.out.ops as f64 / t.wall_median()
        );
    }
    println!(
        "  speedup (median of pair ratios {:?}): {speedup:.2}x; outcome identical: \
         {outcome_identical}",
        pair_ratios
            .iter()
            .map(|r| (r * 100.0).round() / 100.0)
            .collect::<Vec<_>>()
    );

    // ---- scaling sweep under the fast engine ----
    let (client_grid, mcd_grid, r2_clients): (Vec<usize>, Vec<usize>, Vec<usize>) = if opts.smoke {
        (vec![1_000, 3_000, 10_000], vec![8], vec![1_000, 3_000])
    } else if opts.full {
        (
            vec![1_000, 3_000, 10_000, 30_000, 100_000],
            vec![8, 64],
            vec![1_000, 3_000, 10_000, 30_000],
        )
    } else {
        (
            vec![1_000, 3_000, 10_000, 30_000],
            vec![8, 64],
            vec![1_000, 3_000, 10_000],
        )
    };
    let mut specs: Vec<(usize, usize, Vec<usize>)> = mcd_grid
        .iter()
        .map(|&m| (m, 1, client_grid.clone()))
        .collect();
    specs.push((8, 2, r2_clients));

    let points: Vec<(usize, usize, usize)> = specs
        .iter()
        .flat_map(|(m, r, cs)| cs.iter().map(move |&c| (c, *m, *r)))
        .collect();
    let jobs: Vec<Box<dyn FnOnce() -> ScaleOut + Send>> = points
        .iter()
        .map(|&(c, m, r)| {
            let seed = opts.seed;
            Box::new(move || {
                let mut cfg = ScaleConfig::new(c, m);
                cfg.replication = r;
                cfg.seed = seed;
                run_scale(&cfg)
            }) as Box<dyn FnOnce() -> ScaleOut + Send>
        })
        .collect();
    // --workers N: the scale model is a single queueing shard (its
    // in-process queues carry no link latency, so there is nothing for a
    // ParSim lookahead horizon to cut), so here the knob bounds
    // sweep-level thread parallelism instead of intra-sim sharding.
    let sweep_cap = (opts.workers >= 1).then_some(opts.workers);
    let mut results: Vec<Option<ScaleOut>> = parallel_sweep_bounded(jobs, sweep_cap)
        .into_iter()
        .map(Some)
        .collect();

    let mut series: Vec<Series> = Vec::new();
    for (m, r, cs) in &specs {
        let outs = cs
            .iter()
            .map(|&c| {
                let i = points.iter().position(|&p| p == (c, *m, *r)).unwrap();
                results[i].take().unwrap()
            })
            .collect();
        series.push(Series {
            mcds: *m,
            replication: *r,
            clients: cs.clone(),
            outs,
        });
    }

    let mut table = Table::new(
        format!(
            "Fig 8 at bank scale: closed-loop clients vs MCD bank (p99, {} ops/client)",
            ScaleConfig::new(1, 1).ops_per_client
        ),
        "clients",
        "p99 microseconds",
        series
            .iter()
            .map(|s| format!("{} MCDs/R{}", s.mcds, s.replication))
            .collect(),
    );
    for &c in &client_grid {
        let row: Vec<Option<f64>> = series
            .iter()
            .map(|s| {
                s.clients
                    .iter()
                    .position(|&x| x == c)
                    .map(|i| p99_us(&s.outs[i]))
            })
            .collect();
        table.push_row(c as f64, row);
    }
    emit(&opts, "fig8_scale", &table);

    let knees: Vec<(usize, usize, Option<Knee>)> = series
        .iter()
        .map(|s| (s.mcds, s.replication, find_knee(s)))
        .collect();
    for (m, r, knee) in &knees {
        match knee {
            Some(k) => println!(
                "knee [{m} MCDs/R{r}] at {} clients: {}",
                k.clients, k.reason
            ),
            None => println!("knee [{m} MCDs/R{r}]: none within the swept range"),
        }
    }
    let knee_found = knees.iter().any(|(_, _, k)| k.is_some());
    let opsec_speedup_4x = speedup >= 4.0 && outcome_identical;

    // ---- consolidated BENCH_8.json for scripts/tier1.sh --strict ----
    let mode = if opts.smoke {
        "smoke"
    } else if opts.full {
        "full"
    } else {
        "default"
    };
    let mut doc = String::from("{\n  \"bench\": \"fig8_scale\",\n");
    doc.push_str(&format!("  \"mode\": \"{mode}\",\n"));
    doc.push_str(&format!(
        "  \"claim_point\": {{\"clients\": {CLAIM_CLIENTS}, \"mcds\": {CLAIM_MCDS}, \
         \"ops_per_client\": {CLAIM_OPS}, \"pairs\": {PAIRS}}},\n"
    ));
    doc.push_str("  \"engine_comparison\": {\n");
    for (label, t) in [("single_loop", &base), ("optimized", &fast)] {
        doc.push_str(&format!(
            "    \"{label}\": {{\"wall_secs_median\": {:.4}, \"wall_secs_all\": [{}], \
             \"engine_events\": {}, \"events_per_op\": {:.3}, \"tasks_spawned\": {}, \
             \"tasks_per_op\": {:.3}, \"allocs_per_op\": {:.2}, \"alloc_bytes_per_op\": {:.1}, \
             \"sim_ops_per_wall_sec\": {:.0}, \"sim_p99_us\": {:.2}, \"sim_end_ms\": {:.3}}},\n",
            t.wall_median(),
            t.walls
                .iter()
                .map(|w| format!("{w:.4}"))
                .collect::<Vec<_>>()
                .join(", "),
            t.out.events,
            t.per_op(t.out.events),
            t.out.tasks_spawned,
            t.per_op(t.out.tasks_spawned),
            t.per_op(t.allocs),
            t.per_op(t.alloc_bytes),
            t.out.ops as f64 / t.wall_median(),
            p99_us(&t.out),
            t.out.end_time.as_nanos() as f64 / 1e6,
        ));
    }
    doc.push_str(&format!(
        "    \"pair_ratios\": [{}],\n    \"speedup_method\": \"median of per-pair wall ratios \
         over {PAIRS} interleaved single_loop/optimized pairs\",\n",
        pair_ratios
            .iter()
            .map(|r| format!("{r:.3}"))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    doc.push_str(&format!(
        "    \"speedup_ops_per_sec\": {speedup:.3},\n    \"simulated_outcome_identical\": {outcome_identical}\n  }},\n"
    ));
    doc.push_str("  \"series\": [\n");
    let total: usize = series.iter().map(|s| s.clients.len()).sum();
    let mut i = 0;
    for s in &series {
        for (c, out) in s.clients.iter().zip(&s.outs) {
            i += 1;
            doc.push_str(&format!(
                "    {{\"clients\": {c}, \"mcds\": {}, \"replication\": {}, \
                 \"p50_us\": {:.2}, \"p99_us\": {:.2}, \"hottest_queue_peak\": {}, \
                 \"server_utilisation\": {:.4}, \"push_amplification\": {:.3}, \
                 \"sim_ops_per_sec\": {:.0}}}{}\n",
                s.mcds,
                s.replication,
                p50_us(out),
                p99_us(out),
                out.hottest_queue_peak(),
                out.server_utilisation(),
                out.push_amplification(),
                out.sim_ops_per_sec(),
                if i < total { "," } else { "" }
            ));
        }
    }
    doc.push_str("  ],\n  \"knees\": [\n");
    for (j, (m, r, knee)) in knees.iter().enumerate() {
        let comma = if j + 1 < knees.len() { "," } else { "" };
        match knee {
            Some(k) => doc.push_str(&format!(
                "    {{\"mcds\": {m}, \"replication\": {r}, \"clients\": {}, \"reason\": \"{}\"}}{comma}\n",
                k.clients, k.reason
            )),
            None => doc.push_str(&format!(
                "    {{\"mcds\": {m}, \"replication\": {r}, \"clients\": null, \"reason\": \"no knee in swept range\"}}{comma}\n"
            )),
        }
    }
    doc.push_str("  ],\n");
    doc.push_str(&format!("  \"opsec_speedup_4x\": {opsec_speedup_4x},\n"));
    doc.push_str(&format!("  \"knee_found\": {knee_found}\n}}\n"));
    let _ = std::fs::create_dir_all(&opts.out_dir);
    let path = opts.out_dir.join("BENCH_8.json");
    std::fs::write(&path, &doc).expect("cannot write BENCH_8.json");
    println!("(consolidated summary written to {})", path.display());

    assert!(
        outcome_identical,
        "engines disagreed on the simulated outcome at the claim point"
    );
    assert!(
        opsec_speedup_4x,
        "optimized engine managed only {speedup:.2}x over the single-loop baseline (need 4x)"
    );
    assert!(knee_found, "no saturation knee found in any swept series");
    println!(
        "claims hold: {speedup:.2}x simulator ops/sec at {CLAIM_CLIENTS} clients, knee(s) annotated"
    );
}
