//! The cluster-backed benchmark drivers over a sharded
//! [`imca_core::ShardCluster`] fleet — the multi-core engine behind the
//! `--workers N` path of the Fig 5–10 sweeps and the overload drive.
//!
//! Each runner here mirrors its single-`Sim` counterpart phase by phase
//! ([`crate::latbench`], [`crate::statbench`], [`crate::overload`]): the
//! same files, the same op streams, the same per-client RNG seeding. Two
//! things change shape because the clients now live on different shards:
//!
//! * **Barriers are RPCs.** A coordinator service bound at the
//!   topology's spare coordinator node (shard 0) collects one `BarSync`
//!   call from every participant, then releases them all. Release
//!   instants skew by the coordinator's NIC serialisation —
//!   microseconds, fully deterministic — where the in-process `Barrier`
//!   released every task at the same instant. Timed phases therefore
//!   differ slightly from the single-`Sim` numbers; comparisons are
//!   engine-internal (the `ablate_sharding` acceptance is 1-worker vs
//!   N-worker bit-identity, which these runners guarantee by
//!   construction).
//! * **Results merge shard-by-shard.** Each shard accumulates its own
//!   clients' measurements and snapshots its slice of the metrics; the
//!   runner folds them in shard order (worker-count independent) with
//!   [`Snapshot::merge_sum`].
//!
//! Every runner also surfaces the `ParSim` efficiency counters —
//! `sim.epochs`, `sim.events` and `sim.windows` (shard windows run; the
//! exact events-per-epoch and windows-per-epoch ratios follow from
//! these), per-shard busy wall time, and per-worker busy/idle wall time
//! split by epoch phase (windows, handoff, barrier) — in the merged
//! snapshot (see [`FleetProfile`]), so every sharded `*_metrics.json`
//! records how well the fleet parallelised and where the epoch loop's
//! host time went.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;
use std::time::Instant;

use imca_core::{ShardCluster, ShardPlan, ShardTopology};
use imca_fabric::{Network, NodeId, RpcClient, Service, WireSize};
use imca_metrics::Snapshot;
use imca_sim::stats::Histogram;
use imca_sim::{ParSim, ParSummary, SimDuration, SimHandle, SimTime, WorkerProfile};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::latbench::{file_for, record_bytes, LatencyBench, LatencyResult};
use crate::overload::{
    block_bytes, cluster_config as overload_cluster_config, exp_sample, hot_path, mix,
    OverloadBench, OverloadOut,
};
use crate::statbench::{file_path as stat_file_path, StatBench, StatBenchResult};
use crate::system::{FsClient, FsHandle};

/// One barrier arrival/release. Sized like a small control message.
#[derive(Clone)]
struct BarSync;

impl WireSize for BarSync {
    fn wire_bytes(&self) -> usize {
        32
    }
}

/// How the fleet actually executed: virtual totals, conservative-sync
/// epoch efficiency, and the host-clock profile that projects the
/// critical path of any worker assignment.
#[derive(Debug, Clone)]
pub struct FleetProfile {
    /// Virtual end time of the run.
    pub end_time_ns: u64,
    /// Events executed fleet-wide.
    pub events: u64,
    /// Conservative-sync epochs the fleet stepped through.
    pub epochs: u64,
    /// Events per epoch — the lookahead-efficiency figure.
    pub events_per_epoch: f64,
    /// Shard windows run fleet-wide; at most `shards × epochs`, since a
    /// shard with no work before the horizon skips the epoch.
    pub windows: u64,
    /// Per-shard busy wall time (host ns): the critical-path input.
    pub shard_busy_ns: Vec<u64>,
    /// Per-worker busy wall time (host ns).
    pub worker_busy_ns: Vec<u64>,
    /// Per-worker idle wall time (host ns).
    pub worker_idle_ns: Vec<u64>,
    /// Per-worker host ns running shard windows.
    pub worker_window_ns: Vec<u64>,
    /// Per-worker host ns in the coordinator handoff (horizon, parcel
    /// partition and sort, taking batches, posting results).
    pub worker_handoff_ns: Vec<u64>,
    /// Per-worker host ns waiting at the epoch barrier.
    pub worker_barrier_ns: Vec<u64>,
    /// Wall-clock duration of the whole run (host ns).
    pub wall_ns: u64,
}

impl FleetProfile {
    /// Shard windows run per epoch: 1 when one shard carries every
    /// epoch, the shard count when every shard works in every epoch.
    pub fn windows_per_epoch(&self) -> f64 {
        self.windows as f64 / self.epochs.max(1) as f64
    }
}

/// Extract the profile from a finished run and record it as `sim.*`
/// counters in the merged snapshot, so the efficiency figures land in
/// every `*_metrics.json` a bench binary emits.
fn fleet_profile(summary: &ParSummary, wall_ns: u64, metrics: &mut Snapshot) -> FleetProfile {
    metrics.set_counter("sim.epochs", summary.epochs);
    metrics.set_counter("sim.events", summary.events);
    metrics.set_counter("sim.windows", summary.windows);
    let ns = |d: &std::time::Duration| d.as_nanos() as u64;
    let shard_busy_ns: Vec<u64> = summary.shard_busy.iter().map(ns).collect();
    for (s, b) in shard_busy_ns.iter().enumerate() {
        metrics.set_counter(format!("sim.shard.{s}.busy_ns"), *b);
    }
    let per_worker = |f: fn(&WorkerProfile) -> &std::time::Duration| -> Vec<u64> {
        summary.workers.iter().map(|w| ns(f(w))).collect()
    };
    let profile = FleetProfile {
        end_time_ns: summary.end_time.as_nanos(),
        events: summary.events,
        epochs: summary.epochs,
        events_per_epoch: summary.events_per_epoch(),
        windows: summary.windows,
        shard_busy_ns,
        worker_busy_ns: per_worker(|w| &w.busy),
        worker_idle_ns: per_worker(|w| &w.idle),
        worker_window_ns: per_worker(|w| &w.windows),
        worker_handoff_ns: per_worker(|w| &w.handoff),
        worker_barrier_ns: per_worker(|w| &w.barrier),
        wall_ns,
    };
    for w in 0..summary.workers.len() {
        for (phase, v) in [
            ("busy", &profile.worker_busy_ns),
            ("idle", &profile.worker_idle_ns),
            ("window", &profile.worker_window_ns),
            ("handoff", &profile.worker_handoff_ns),
            ("barrier", &profile.worker_barrier_ns),
        ] {
            metrics.set_counter(format!("sim.worker.{w}.{phase}_ns"), v[w]);
        }
    }
    profile
}

/// Projected critical-path speedup of this shard set on `workers`
/// round-robin workers (shard `i` → worker `i % workers`): total busy
/// time over the busiest worker's share. This is the machine-independent
/// parallelism figure — on a host with at least `workers` free cores the
/// measured wall ratio converges to it; on fewer cores the workers
/// time-slice and the wall ratio stays near 1 regardless.
pub fn critical_path_speedup(shard_busy_ns: &[u64], workers: usize) -> f64 {
    assert!(workers >= 1);
    let total: u64 = shard_busy_ns.iter().sum();
    let mut per_worker = vec![0u64; workers];
    for (i, b) in shard_busy_ns.iter().enumerate() {
        per_worker[i % workers] += b;
    }
    let critical = per_worker.iter().copied().max().unwrap_or(0);
    if critical == 0 {
        1.0
    } else {
        total as f64 / critical as f64
    }
}

/// A reasonable default shard cut for `clients` declared clients over an
/// `mcds`-daemon bank: up to 8 client groups and up to 4 bank shards
/// (0 for a bankless NoCache deployment). More shards than workers is
/// fine — they round-robin — and keeps the plan stable as `--workers`
/// varies, which is what makes worker-count sweeps bit-comparable.
pub fn auto_plan(clients: usize, mcds: usize) -> ShardPlan {
    ShardPlan {
        client_groups: clients.min(8),
        bank_shards: mcds.min(4),
    }
}

/// [`auto_plan`] for a [`SystemSpec`]: `None` when the spec has no
/// sharded builder (Lustre), so callers fall back to the legacy engine.
pub fn plan_for(spec: &crate::system::SystemSpec, clients: usize) -> Option<ShardPlan> {
    let cfg = spec.cluster_config()?;
    let mcds = cfg.imca.as_ref().map_or(0, |i| i.mcd_count);
    Some(auto_plan(clients, mcds))
}

/// On shard 0 only: bind the barrier service at the coordinator node and
/// run the collect-`participants`-then-release-all loop. The loop ends
/// with the run (a pending recv is not an event, so it never blocks
/// quiescence).
fn serve_barrier(
    h: &SimHandle,
    net: &Network,
    coordinator: NodeId,
    participants: usize,
) -> Service<BarSync, BarSync> {
    let svc: Service<BarSync, BarSync> = Service::bind(net, coordinator);
    let svc2 = svc.clone();
    h.spawn(async move {
        loop {
            let mut round = Vec::with_capacity(participants);
            for _ in 0..participants {
                match svc2.recv().await {
                    Some(arrival) => round.push(arrival),
                    None => return,
                }
            }
            for arrival in round {
                let (_, _, replier) = arrival.into_parts();
                replier.reply(BarSync);
            }
        }
    });
    svc
}

/// A participant's stub to the barrier coordinator: in-process on
/// shard 0, cross-shard RPC elsewhere.
fn barrier_stub(
    svc: &Option<Service<BarSync, BarSync>>,
    net: &Network,
    src: NodeId,
    coordinator: NodeId,
) -> RpcClient<BarSync, BarSync> {
    match svc {
        Some(svc) => svc.client(src),
        None => RpcClient::remote(net, src, coordinator, None),
    }
}

// ---------------------------------------------------------------------
// Latency benchmark (Figs 6, 7, 8, 10)
// ---------------------------------------------------------------------

/// Sharded latency-benchmark parameters.
#[derive(Debug, Clone)]
pub struct ShardedLatencyBench {
    /// The workload (system, clients, sizes, records, phases). The spec
    /// must deploy on GlusterFS — Lustre has no sharded builder.
    pub bench: LatencyBench,
    /// How the cluster is cut into shards.
    pub plan: ShardPlan,
    /// Worker threads driving the fleet (1 = serial reference run; the
    /// trace is bit-identical for every value).
    pub workers: usize,
}

/// [`LatencyResult`] plus the fleet's execution profile.
#[derive(Debug, Clone)]
pub struct ShardedLatencyResult {
    /// The benchmark measurements, merged across shards. `metrics` also
    /// carries the `sim.*` efficiency counters.
    pub result: LatencyResult,
    /// How the fleet executed.
    pub fleet: FleetProfile,
}

/// Per-shard accumulation, shipped back through the shard output channel.
struct ShardLatOut {
    writes: HashMap<u64, Vec<f64>>,
    reads: HashMap<u64, Vec<f64>>,
    op_ns: HashMap<u64, Vec<u64>>,
    cm_hits: u64,
    cm_misses: u64,
    metrics: Snapshot,
}

/// Run the latency benchmark on a `ParSim` fleet. The trace —
/// measurements, virtual end time, merged metrics — is bit-identical for
/// every `workers` value; only the host-clock profile changes.
pub fn run(cfg: &ShardedLatencyBench) -> ShardedLatencyResult {
    assert!(cfg.bench.clients >= 1);
    let ccfg = cfg
        .bench
        .spec
        .cluster_config()
        .expect("sharded latency bench requires a GlusterFS system");
    let topo = ShardTopology::new(ccfg, cfg.plan, cfg.bench.clients);
    let mut par = ParSim::new(cfg.bench.seed)
        .lookahead(topo.max_lookahead())
        .workers(cfg.workers);

    for _ in 0..topo.shards() {
        let topo = topo.clone();
        let bench = cfg.bench.clone();
        par.add_shard(move |ctx| {
            let h = ctx.handle();
            let shard = ctx.shard();
            let cluster = ShardCluster::build(h.clone(), Some(ctx.comms()), topo.clone());
            let net = cluster.network().clone();

            let bar_svc = (shard == 0)
                .then(|| serve_barrier(&h, &net, topo.coordinator_node(), bench.clients));

            let writes: Rc<RefCell<HashMap<u64, Vec<f64>>>> = Rc::default();
            let reads: Rc<RefCell<HashMap<u64, Vec<f64>>>> = Rc::default();
            let op_ns: Rc<RefCell<HashMap<u64, Vec<u64>>>> = Rc::default();

            // Mount every client homed here (global order), then drive
            // each through the latbench phases.
            for client_id in 0..topo.clients() {
                if topo.client_shard(client_id) != shard {
                    continue;
                }
                let (mount, cm) = cluster.mount_client(client_id);
                let cli = FsClient::Gluster(mount, cm);
                let barrier = barrier_stub(
                    &bar_svc,
                    &net,
                    topo.client_node(client_id),
                    topo.coordinator_node(),
                );
                let writes = Rc::clone(&writes);
                let reads = Rc::clone(&reads);
                let op_ns = Rc::clone(&op_ns);
                let h2 = h.clone();
                let cfg = bench.clone();
                h.spawn(async move {
                    drive_client(client_id, cli, barrier, &cfg, h2, writes, reads, op_ns).await;
                });
            }

            let cluster2 = cluster.clone();
            let writes2 = Rc::clone(&writes);
            let reads2 = Rc::clone(&reads);
            let op2 = Rc::clone(&op_ns);
            move || {
                let cm = cluster2.cmcache_stats();
                ShardLatOut {
                    writes: writes2.borrow().clone(),
                    reads: reads2.borrow().clone(),
                    op_ns: op2.borrow().clone(),
                    cm_hits: cm.read_hits,
                    cm_misses: cm.read_misses,
                    metrics: cluster2.metrics(),
                }
            }
        });
    }

    let t0 = Instant::now();
    let mut summary = par.run();
    let wall_ns = t0.elapsed().as_nanos() as u64;

    // Merge in shard order — worker-count independent.
    let shards = topo.shards();
    let mut writes: HashMap<u64, Vec<f64>> = HashMap::new();
    let mut reads: HashMap<u64, Vec<f64>> = HashMap::new();
    let mut op_ns: HashMap<u64, Vec<u64>> = HashMap::new();
    let mut cm_hits = 0;
    let mut cm_misses = 0;
    let mut metrics = Snapshot::new();
    for s in 0..shards {
        let out = summary.take::<ShardLatOut>(s);
        for (size, v) in out.writes {
            writes.entry(size).or_default().extend(v);
        }
        for (size, v) in out.reads {
            reads.entry(size).or_default().extend(v);
        }
        for (size, v) in out.op_ns {
            op_ns.entry(size).or_default().extend(v);
        }
        cm_hits += out.cm_hits;
        cm_misses += out.cm_misses;
        metrics.merge_sum(&out.metrics);
    }
    let fleet = fleet_profile(&summary, wall_ns, &mut metrics);

    let collect = |m: &HashMap<u64, Vec<f64>>, expect: usize| -> Vec<(u64, f64)> {
        let mut out: Vec<(u64, f64)> = cfg
            .bench
            .record_sizes
            .iter()
            .map(|&s| {
                let v = &m[&s];
                assert_eq!(v.len(), expect, "client dropped out at size {s}");
                (s, v.iter().sum::<f64>() / v.len() as f64)
            })
            .collect();
        out.sort_by_key(|(s, _)| *s);
        out
    };
    let write_expect = if cfg.bench.shared_file {
        1
    } else {
        cfg.bench.clients
    };
    let result = LatencyResult {
        write_us: collect(&writes, write_expect),
        read_us: collect(&reads, cfg.bench.clients),
        read_op_ns: op_ns,
        cm_read_hits: cm_hits,
        cm_read_misses: cm_misses,
        metrics,
    };
    ShardedLatencyResult { result, fleet }
}

/// One client's drive through the latbench phases — the same sequence
/// `latbench::run` spawns, with the RPC barrier in place of the
/// in-process one.
#[allow(clippy::too_many_arguments)]
async fn drive_client(
    client_id: usize,
    cli: FsClient,
    barrier: RpcClient<BarSync, BarSync>,
    cfg: &LatencyBench,
    h: SimHandle,
    writes: Rc<RefCell<HashMap<u64, Vec<f64>>>>,
    reads: Rc<RefCell<HashMap<u64, Vec<f64>>>>,
    op_ns: Rc<RefCell<HashMap<u64, Vec<u64>>>>,
) {
    let is_root = client_id == 0;
    let mut handles: HashMap<u64, FsHandle> = HashMap::new();

    // --- Write phase ---
    for &size in &cfg.record_sizes {
        barrier.call(BarSync).await;
        let path = file_for(client_id, size, cfg.shared_file);
        if !cfg.shared_file || is_root {
            cli.create(&path).await;
            let fd = cli.open(&path).await;
            let t0 = h.now();
            for k in 0..cfg.records as u64 {
                let data = record_bytes(size, k);
                cli.write(&fd, k * size, &data).await;
            }
            let mean = h.now().since(t0).as_micros_f64() / cfg.records as f64;
            writes.borrow_mut().entry(size).or_default().push(mean);
            handles.insert(size, fd);
        }
    }

    // Phase boundary (cold-Lustre remount does not apply: sharded runs
    // are GlusterFS-only).
    barrier.call(BarSync).await;

    // --- Read phase ---
    for &size in &cfg.record_sizes {
        barrier.call(BarSync).await;
        let path = file_for(client_id, size, cfg.shared_file);
        let mut fd_opt = handles.remove(&size);
        if cfg.warmup {
            let fd = match fd_opt.take() {
                Some(fd) => fd,
                None => cli.open(&path).await,
            };
            barrier.call(BarSync).await;
            h.sleep(SimDuration::micros(3 * client_id as u64)).await;
            for k in 0..cfg.records as u64 {
                cli.read(&fd, k * size, size).await;
            }
            fd_opt = Some(fd);
            barrier.call(BarSync).await;
        }
        // Barrier-release skew, as in the single-`Sim` driver.
        h.sleep(SimDuration::micros(3 * client_id as u64)).await;
        let fd = match fd_opt {
            Some(fd) => fd,
            None => cli.open(&path).await, // shared-file readers
        };
        let t0 = h.now();
        for k in 0..cfg.records as u64 {
            let s0 = h.now();
            let got = cli.read(&fd, k * size, size).await;
            op_ns
                .borrow_mut()
                .entry(size)
                .or_default()
                .push(h.now().since(s0).as_nanos());
            debug_assert_eq!(
                got,
                record_bytes(size, k),
                "data corruption at size {size} record {k}"
            );
        }
        let mean = h.now().since(t0).as_micros_f64() / cfg.records as f64;
        reads.borrow_mut().entry(size).or_default().push(mean);
        cli.close(fd).await;
    }
}

// ---------------------------------------------------------------------
// Stat benchmark (Fig 5)
// ---------------------------------------------------------------------

/// Sharded stat-benchmark parameters.
#[derive(Debug, Clone)]
pub struct ShardedStatBench {
    /// The workload. The spec must deploy on GlusterFS.
    pub bench: StatBench,
    /// How the cluster is cut into shards. The topology carries one
    /// extra declared client — the setup node that creates the file set
    /// (the single-`Sim` driver's anonymous extra mount).
    pub plan: ShardPlan,
    /// Worker threads driving the fleet.
    pub workers: usize,
}

/// [`StatBenchResult`] plus the fleet's execution profile.
#[derive(Debug, Clone)]
pub struct ShardedStatResult {
    /// The benchmark measurements, merged across shards.
    pub result: StatBenchResult,
    /// How the fleet executed.
    pub fleet: FleetProfile,
}

struct ShardStatOut {
    times: Vec<f64>,
    metrics: Snapshot,
}

/// Run the stat benchmark on a `ParSim` fleet (bit-identical across
/// `workers`, like [`run`]).
pub fn run_stat(cfg: &ShardedStatBench) -> ShardedStatResult {
    assert!(cfg.bench.clients >= 1);
    let ccfg = cfg
        .bench
        .spec
        .cluster_config()
        .expect("sharded stat bench requires a GlusterFS system");
    // Client `clients` (the last declared one) is the setup node.
    let topo = ShardTopology::new(ccfg, cfg.plan, cfg.bench.clients + 1);
    let mut par = ParSim::new(cfg.bench.seed)
        .lookahead(topo.max_lookahead())
        .workers(cfg.workers);

    for _ in 0..topo.shards() {
        let topo = topo.clone();
        let bench = cfg.bench.clone();
        par.add_shard(move |ctx| {
            let h = ctx.handle();
            let shard = ctx.shard();
            let cluster = ShardCluster::build(h.clone(), Some(ctx.comms()), topo.clone());
            let net = cluster.network().clone();
            let participants = bench.clients + 1;
            let bar_svc = (shard == 0)
                .then(|| serve_barrier(&h, &net, topo.coordinator_node(), participants));

            let times: Rc<RefCell<Vec<f64>>> = Rc::default();
            for client_id in 0..topo.clients() {
                if topo.client_shard(client_id) != shard {
                    continue;
                }
                let (mount, _cm) = cluster.mount_client(client_id);
                let barrier = barrier_stub(
                    &bar_svc,
                    &net,
                    topo.client_node(client_id),
                    topo.coordinator_node(),
                );
                let h2 = h.clone();
                let times = Rc::clone(&times);
                let bench = bench.clone();
                if client_id == bench.clients {
                    // Stage 1 (untimed): the setup node creates the file
                    // set, then joins the barrier.
                    h.spawn(async move {
                        for i in 0..bench.files {
                            mount.create(&stat_file_path(i)).await.unwrap();
                        }
                        barrier.call(BarSync).await;
                    });
                } else {
                    // Stage 2 (timed): stat every file in a
                    // deterministic per-client random order — same
                    // seeding as the single-`Sim` driver.
                    let seed =
                        bench.seed ^ (client_id as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    h.spawn(async move {
                        let mut order: Vec<usize> = (0..bench.files).collect();
                        let mut rng = SmallRng::seed_from_u64(seed);
                        for i in (1..order.len()).rev() {
                            let j = rng.gen_range(0..=i as u64) as usize;
                            order.swap(i, j);
                        }
                        barrier.call(BarSync).await;
                        let t0 = h2.now();
                        for idx in order {
                            mount.stat(&stat_file_path(idx)).await.unwrap();
                        }
                        times.borrow_mut().push(h2.now().since(t0).as_secs_f64());
                    });
                }
            }

            let cluster2 = cluster.clone();
            let times2 = Rc::clone(&times);
            move || ShardStatOut {
                times: times2.borrow().clone(),
                metrics: cluster2.metrics(),
            }
        });
    }

    let t0 = Instant::now();
    let mut summary = par.run();
    let wall_ns = t0.elapsed().as_nanos() as u64;

    let mut times = Vec::new();
    let mut metrics = Snapshot::new();
    for s in 0..topo.shards() {
        let out = summary.take::<ShardStatOut>(s);
        times.extend(out.times);
        metrics.merge_sum(&out.metrics);
    }
    let fleet = fleet_profile(&summary, wall_ns, &mut metrics);

    assert_eq!(times.len(), cfg.bench.clients, "a client never finished");
    let max = times.iter().cloned().fold(0.0f64, f64::max);
    let mean = times.iter().sum::<f64>() / times.len() as f64;
    let result = StatBenchResult {
        max_node_secs: max,
        mean_node_secs: mean,
        mcd_hits: metrics.counter_sum(".store.get_hits"),
        mcd_misses: metrics.counter_sum(".store.get_misses"),
        mcd_evictions: metrics.counter_sum(".store.evictions"),
        metrics,
    };
    ShardedStatResult { result, fleet }
}

// ---------------------------------------------------------------------
// Overload drive (DESIGN.md §8)
// ---------------------------------------------------------------------

/// Sharded overload-drive parameters.
#[derive(Debug, Clone)]
pub struct ShardedOverloadBench {
    /// The drive. Always IMCa (the overload layer under test lives in
    /// the bank path).
    pub bench: OverloadBench,
    /// How the cluster is cut into shards. The topology carries one
    /// extra declared client — the warmer.
    pub plan: ShardPlan,
    /// Worker threads driving the fleet.
    pub workers: usize,
}

/// [`OverloadOut`] plus the fleet's execution profile.
#[derive(Debug)]
pub struct ShardedOverloadResult {
    /// The drive's outputs, merged across shards.
    pub result: OverloadOut,
    /// How the fleet executed.
    pub fleet: FleetProfile,
}

struct ShardOverOut {
    ops: u64,
    latency: Histogram,
    shed_latency: Histogram,
    t_start: Option<SimTime>,
    read_hits: u64,
    read_misses: u64,
    metrics: Snapshot,
}

/// Run the overload drive on a `ParSim` fleet (bit-identical across
/// `workers`, like [`run`]).
pub fn run_overload(cfg: &ShardedOverloadBench) -> ShardedOverloadResult {
    let bench = &cfg.bench;
    assert!(bench.clients >= 1 && bench.hot_files >= 1 && bench.blocks_per_file >= 1);
    // Client `clients` (the last declared one) is the warmer.
    let topo = ShardTopology::new(overload_cluster_config(bench), cfg.plan, bench.clients + 1);
    let mut par = ParSim::new(bench.seed)
        .lookahead(topo.max_lookahead())
        .workers(cfg.workers);

    for _ in 0..topo.shards() {
        let topo = topo.clone();
        let bench = bench.clone();
        par.add_shard(move |ctx| {
            let h = ctx.handle();
            let shard = ctx.shard();
            let cluster = ShardCluster::build(h.clone(), Some(ctx.comms()), topo.clone());
            let net = cluster.network().clone();
            let participants = bench.clients + 1;
            let bar_svc = (shard == 0)
                .then(|| serve_barrier(&h, &net, topo.coordinator_node(), participants));

            let t_start: Rc<Cell<Option<SimTime>>> = Rc::new(Cell::new(None));
            let latency: Rc<RefCell<Histogram>> = Rc::default();
            let shed_latency: Rc<RefCell<Histogram>> = Rc::default();
            let ops_done = Rc::new(Cell::new(0u64));

            for client in 0..topo.clients() {
                if topo.client_shard(client) != shard {
                    continue;
                }
                let (m, cm) = cluster.mount_client(client);
                let barrier = barrier_stub(
                    &bar_svc,
                    &net,
                    topo.client_node(client),
                    topo.coordinator_node(),
                );
                let h2 = h.clone();
                let cfg2 = bench.clone();
                if client == bench.clients {
                    // The warmer: creates the hot files, lets the readers
                    // open (their open purges hit an empty bank), then
                    // writes every block to warm all R replicas. Files
                    // stay open — a close would purge the cache tier.
                    let t_start = Rc::clone(&t_start);
                    h.spawn(async move {
                        let mut fds = Vec::new();
                        for f in 0..cfg2.hot_files {
                            let path = hot_path(f);
                            m.create(&path).await.unwrap();
                            fds.push(m.open(&path).await.unwrap());
                        }
                        barrier.call(BarSync).await; // A: files exist
                        barrier.call(BarSync).await; // readers are open
                        for (f, fd) in fds.iter().enumerate() {
                            for b in 0..cfg2.blocks_per_file {
                                let data = block_bytes(f, b, cfg2.block_size);
                                m.write(*fd, b * cfg2.block_size, &data).await.unwrap();
                            }
                        }
                        barrier.call(BarSync).await; // B: bank is warm
                        t_start.set(Some(h2.now()));
                    });
                } else {
                    let cm = cm.expect("overload drive is IMCa-only");
                    let latency = Rc::clone(&latency);
                    let shed_latency = Rc::clone(&shed_latency);
                    let ops_done = Rc::clone(&ops_done);
                    h.spawn(async move {
                        barrier.call(BarSync).await; // A
                        let mut fds = Vec::new();
                        for f in 0..cfg2.hot_files {
                            fds.push(m.open(&hot_path(f)).await.unwrap());
                        }
                        barrier.call(BarSync).await; // opens done
                        barrier.call(BarSync).await; // B: go
                        let mut rng = SmallRng::seed_from_u64(mix(cfg2.seed ^ (client as u64 + 1)));
                        // Stagger the first op so clients don't march in
                        // lockstep.
                        h2.sleep(SimDuration::micros(37 * client as u64)).await;
                        for _ in 0..cfg2.ops_per_client {
                            h2.sleep(exp_sample(&mut rng, cfg2.think_mean)).await;
                            let f = rng.gen_range(0..cfg2.hot_files);
                            let b = rng.gen_range(0..cfg2.blocks_per_file);
                            let degraded_at_issue = cm.is_degraded();
                            let t0 = h2.now();
                            let got = m
                                .read(fds[f], b * cfg2.block_size, cfg2.block_size)
                                .await
                                .unwrap();
                            let took = h2.now().since(t0);
                            debug_assert_eq!(
                                got,
                                block_bytes(f, b, cfg2.block_size),
                                "overload drive corrupted file {f} block {b}"
                            );
                            latency.borrow_mut().record(took);
                            if degraded_at_issue {
                                shed_latency.borrow_mut().record(took);
                            }
                            ops_done.set(ops_done.get() + 1);
                        }
                    });
                }
            }

            let cluster2 = cluster.clone();
            let latency2 = Rc::clone(&latency);
            let shed2 = Rc::clone(&shed_latency);
            let ops2 = Rc::clone(&ops_done);
            let t2 = Rc::clone(&t_start);
            move || {
                let cm = cluster2.cmcache_stats();
                ShardOverOut {
                    ops: ops2.get(),
                    latency: latency2.borrow().clone(),
                    shed_latency: shed2.borrow().clone(),
                    t_start: t2.get(),
                    read_hits: cm.read_hits,
                    read_misses: cm.read_misses,
                    metrics: cluster2.metrics(),
                }
            }
        });
    }

    let t0 = Instant::now();
    let mut summary = par.run();
    let wall_ns = t0.elapsed().as_nanos() as u64;

    let mut ops = 0;
    let mut latency = Histogram::new();
    let mut shed_latency = Histogram::new();
    let mut t_start = None;
    let mut read_hits = 0;
    let mut read_misses = 0;
    let mut metrics = Snapshot::new();
    for s in 0..topo.shards() {
        let out = summary.take::<ShardOverOut>(s);
        ops += out.ops;
        latency.merge(&out.latency);
        shed_latency.merge(&out.shed_latency);
        t_start = t_start.or(out.t_start);
        read_hits += out.read_hits;
        read_misses += out.read_misses;
        metrics.merge_sum(&out.metrics);
    }
    let fleet = fleet_profile(&summary, wall_ns, &mut metrics);

    let t_start = t_start.expect("warmer never reached the timed phase");
    let elapsed = summary.end_time.since(t_start);
    let sheds = (0..bench.mcds)
        .map(|i| {
            metrics
                .counter(&format!("bank.per_daemon.{i}.sheds"))
                .unwrap_or(0)
        })
        .sum();
    let result = OverloadOut {
        ops,
        elapsed,
        latency,
        shed_latency,
        sheds,
        busy_sheds: metrics.counter_sum(".busy_sheds"),
        hedged_gets: metrics.counter_sum(".hedged_gets"),
        hedge_wins: metrics.counter_sum(".hedge_wins"),
        circuit_opens: metrics.counter_sum(".circuit_opens"),
        budget_exhausted: metrics.counter_sum(".retry_budget_exhausted"),
        degraded_reads: metrics.counter_sum(".degraded_reads"),
        readmissions: metrics.counter_sum(".readmissions"),
        rewarm_suppressed: metrics.counter("smcache.rewarm_suppressed").unwrap_or(0),
        read_hits,
        read_misses,
        metrics,
    };
    ShardedOverloadResult { result, fleet }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::SystemSpec;

    fn small(plan: ShardPlan, workers: usize) -> ShardedLatencyResult {
        run(&ShardedLatencyBench {
            bench: LatencyBench {
                spec: SystemSpec::imca(2),
                clients: 4,
                record_sizes: vec![256, 2048],
                records: 12,
                warmup: false,
                shared_file: false,
                seed: 17,
            },
            plan,
            workers,
        })
    }

    #[test]
    fn sharded_latbench_measures_and_hits_the_bank() {
        let r = small(
            ShardPlan {
                client_groups: 2,
                bank_shards: 1,
            },
            2,
        );
        assert_eq!(r.result.read_us.len(), 2);
        assert!(r.result.read_us.iter().all(|(_, v)| *v > 0.0));
        // §5.3 shape survives sharding: the write phase populated the
        // bank, so timed reads hit it.
        assert!(r.result.cm_read_hits > 0);
        // The efficiency profile is in the metrics document.
        assert!(r.result.metrics.counter("sim.epochs").unwrap() > 0);
        assert!(r.result.metrics.counter("sim.shard.0.busy_ns").is_some());
    }

    #[test]
    fn sharded_latbench_is_bit_identical_across_worker_counts() {
        let plan = ShardPlan {
            client_groups: 2,
            bank_shards: 2,
        };
        let r1 = small(plan, 1);
        let r4 = small(plan, 4);
        assert_eq!(r1.fleet.end_time_ns, r4.fleet.end_time_ns);
        assert_eq!(r1.fleet.events, r4.fleet.events);
        assert_eq!(r1.result.write_us, r4.result.write_us);
        assert_eq!(r1.result.read_us, r4.result.read_us);
        assert_eq!(r1.result.read_op_ns, r4.result.read_op_ns);
        // Deterministic-trace metrics agree name-for-name; the host-clock
        // profile (sim.shard/worker busy) legitimately differs.
        for (name, v) in &r1.result.metrics.metrics {
            if name.starts_with("sim.") {
                continue;
            }
            assert_eq!(
                Some(v),
                r4.result.metrics.metrics.get(name),
                "metric {name} diverged across worker counts"
            );
        }
    }

    #[test]
    fn shared_file_mode_crosses_shards() {
        let r = run(&ShardedLatencyBench {
            bench: LatencyBench {
                spec: SystemSpec::imca(1),
                clients: 3,
                record_sizes: vec![2048],
                records: 24,
                warmup: false,
                shared_file: true,
                seed: 9,
            },
            plan: ShardPlan {
                client_groups: 3,
                bank_shards: 1,
            },
            workers: 2,
        });
        // Only the root wrote; everyone read.
        assert_eq!(r.result.write_us.len(), 1);
        assert_eq!(r.result.read_us.len(), 1);
        assert!(
            r.result.cm_read_hits > 0,
            "shared readers never hit the bank"
        );
    }

    #[test]
    fn critical_path_speedup_projects_round_robin() {
        // 4 equal shards on 2 workers: 2× ideal.
        assert!((critical_path_speedup(&[100, 100, 100, 100], 2) - 2.0).abs() < 1e-9);
        // One dominant shard bounds the speedup.
        let s = critical_path_speedup(&[300, 10, 10, 10], 4);
        assert!((s - 330.0 / 300.0).abs() < 1e-9);
        // Serial is always 1.
        assert!((critical_path_speedup(&[5, 7], 1) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sharded_statbench_is_bit_identical_and_hits_the_bank() {
        let cfg = |workers| ShardedStatBench {
            bench: StatBench {
                files: 60,
                clients: 4,
                spec: SystemSpec::imca(1),
                seed: 7,
            },
            plan: ShardPlan {
                client_groups: 2,
                bank_shards: 1,
            },
            workers,
        };
        let r1 = run_stat(&cfg(1));
        let r2 = run_stat(&cfg(2));
        assert!(r1.result.max_node_secs > 0.0);
        // N-1 of every file's N stats come from the bank.
        assert!(r1.result.mcd_hits > r1.result.mcd_misses);
        assert_eq!(r1.result.max_node_secs, r2.result.max_node_secs);
        assert_eq!(r1.result.mean_node_secs, r2.result.mean_node_secs);
        assert_eq!(r1.result.mcd_hits, r2.result.mcd_hits);
        assert_eq!(r1.fleet.end_time_ns, r2.fleet.end_time_ns);
    }

    #[test]
    fn sharded_overload_replays_bit_identically_and_sheds_past_the_knee() {
        let cfg = |workers| ShardedOverloadBench {
            bench: OverloadBench {
                ops_per_client: 8,
                ..OverloadBench::new(24, true)
            },
            plan: ShardPlan {
                client_groups: 3,
                bank_shards: 2,
            },
            workers,
        };
        let r1 = run_overload(&cfg(1));
        let r2 = run_overload(&cfg(2));
        assert_eq!(r1.result.ops, 24 * 8);
        assert_eq!(r1.result.ops, r2.result.ops);
        assert_eq!(r1.result.elapsed, r2.result.elapsed);
        assert_eq!(r1.result.sheds, r2.result.sheds);
        assert_eq!(r1.result.degraded_reads, r2.result.degraded_reads);
        assert_eq!(
            r1.result.latency.quantile(0.99),
            r2.result.latency.quantile(0.99)
        );
        // 4× past the knee the protection layer must be working.
        assert!(
            r1.result.sheds > 0,
            "no sheds at 4x the knee: {:?}",
            r1.result
        );
    }
}
