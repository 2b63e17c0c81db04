//! One repetition of a workload: set the deployment up, drive the
//! measured phase, and collect what the clients saw together with the
//! program's registry before and after. Two engines: a single `Sim`
//! (`shared-read`, `meta-storm`, `write-cold`) and a `ShardCluster`
//! fleet on `ParSim` (`overload-knee`).

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use imca_core::{Cluster, ShardCluster, ShardTopology};
use imca_glusterfs::GlusterMount;
use imca_metrics::Snapshot;
use imca_sim::{join_all, ParSim, Scheduler, Sim, SimDuration, SimHandle, SimTime};
use imca_workloads::shardbench::auto_plan;
use imca_workloads::{Deployment, FsClient};

use crate::drive::{Client, Geometry, PollClock, Recorder, Shared, Timed};
use crate::ops::Op;
use crate::workloads::Plan;
use crate::{alloc, calib};

/// How the fleet executed (overload-knee only).
#[derive(Debug, Clone)]
pub struct FleetProfile {
    /// Shards in the fleet.
    pub shards: usize,
    /// Worker threads.
    pub workers: usize,
    /// Barrier epochs over the whole run.
    pub epochs: u64,
    /// Events over the whole run.
    pub events: u64,
    /// Per-worker busy host ns.
    pub worker_busy_ns: Vec<u64>,
    /// Per-worker idle host ns (waiting at epoch barriers).
    pub worker_idle_ns: Vec<u64>,
}

/// One repetition's results.
pub struct Rep {
    /// Host time to build the deployment, populate and warm it.
    pub setup: Duration,
    /// Host time of the measured phase.
    pub measured: Duration,
    /// What the clients saw; latencies sorted ascending.
    pub rec: Recorder,
    /// Virtual duration of the measured phase, ns.
    pub sim_ns: u64,
    /// Engine events in the measured phase.
    pub events: u64,
    /// Tasks spawned in the measured phase (whole run on the fleet).
    pub tasks: u64,
    /// Registry at the start of the measured phase.
    pub before: Snapshot,
    /// Registry at its end.
    pub after: Snapshot,
    /// Allocations and bytes in the measured phase (traced runs only).
    pub allocs: (u64, u64),
    /// Fleet execution profile.
    pub fleet: Option<FleetProfile>,
    /// Set-up problems (a phase overran, a file failed to populate).
    pub setup_errors: Vec<String>,
    /// Host ns per calibration-kernel iteration around this repetition.
    pub calib_ns: f64,
    /// Host ns per calibration-kernel iteration just before set-up.
    pub setup_calib_ns: f64,
    /// Process peak RSS (MB) when this repetition ended.
    pub peak_rss_mb: f64,
}

/// Chunk size of the set-up writes that populate the file set.
const POPULATE_CHUNK_BLOCKS: u32 = 32;

/// Host time per measured chunk on the single engine: short enough for
/// the calibrations between chunks to follow the host's speed.
const CHUNK_WALL: Duration = Duration::from_millis(100);

/// A chunk this long in virtual time means the engine went quiescent.
const MAX_STEP_NS: u64 = 1 << 50;

fn gluster(c: FsClient) -> (Rc<GlusterMount>, Option<Rc<imca_core::CmCache>>) {
    match c {
        FsClient::Gluster(m, cm) => (m, cm),
        FsClient::Lustre(_) => unreachable!("every workload deploys GlusterFS"),
    }
}

/// Write version 0 of every file through `mount`.
async fn populate(
    mount: &GlusterMount,
    fds: &[imca_glusterfs::Fd],
    geo: &Geometry,
) -> Result<(), String> {
    let bpf = geo.blocks_per_file();
    for (f, fd) in fds.iter().enumerate() {
        let mut b = 0;
        while b < bpf {
            let n = POPULATE_CHUNK_BLOCKS.min(bpf - b);
            let data = geo.contents(f as u32, b, n, 0);
            mount
                .write(*fd, b as u64 * geo.block_size, &data)
                .await
                .map_err(|e| format!("populating file {f}: {e}"))?;
            b += n;
        }
    }
    Ok(())
}

/// Create and open every file of the set through `mount`.
async fn create_all(
    mount: &GlusterMount,
    paths: &[String],
) -> Result<Vec<imca_glusterfs::Fd>, String> {
    let mut fds = Vec::with_capacity(paths.len());
    for p in paths {
        mount
            .create(p)
            .await
            .map_err(|e| format!("create {p}: {e}"))?;
        fds.push(mount.open(p).await.map_err(|e| format!("open {p}: {e}"))?);
    }
    Ok(fds)
}

/// Open `files` through `mount`, filling a per-file fd table.
async fn open_files(
    mount: Rc<GlusterMount>,
    shared: Rc<Shared>,
    files: Vec<u32>,
) -> Result<Vec<Option<imca_glusterfs::Fd>>, String> {
    let mut fds = vec![None; shared.paths.len()];
    for f in files {
        let p = &shared.paths[f as usize];
        fds[f as usize] = Some(mount.open(p).await.map_err(|e| format!("open {p}: {e}"))?);
    }
    Ok(fds)
}

fn spawn_clients(h: &SimHandle, clients: Vec<Client>, streams: &[Vec<Op>], traced: bool) {
    for client in clients {
        let ops: Rc<[Op]> = streams[client.id as usize].clone().into();
        if traced {
            let clock = Rc::new(PollClock::default());
            let run = client.run(ops, Some(Rc::clone(&clock)));
            h.spawn(Timed::new(run, clock));
        } else {
            h.spawn(client.run(ops, None));
        }
    }
}

/// The clients a set-up produced, ready to run their streams.
type SetupResult = Result<Vec<Client>, String>;

fn sort_latencies(rec: &mut Recorder) {
    for v in &mut rec.lat {
        v.sort_unstable();
    }
}

/// Run one repetition on a single engine.
pub fn run_single(plan: &Plan, seed: u64, scheduler: Scheduler, traced: bool) -> Rep {
    let t_setup = Instant::now();
    let mut sim = Sim::with_scheduler(seed, scheduler);
    let h = sim.handle();
    let dep = Rc::new(Deployment::Gluster(Rc::new(Cluster::build(
        h.clone(),
        plan.cfg.clone(),
    ))));
    let shared = Shared::new(plan.geo.clone(), traced);
    let ready: Rc<RefCell<Option<SetupResult>>> = Rc::default();

    {
        let dep = Rc::clone(&dep);
        let h2 = h.clone();
        let ready = Rc::clone(&ready);
        let opens = plan.opens.clone();
        let warm_stats = plan.warm_stats;
        let shared = Rc::clone(&shared);
        sim.spawn(async move {
            let result = async {
                // The writer keeps its descriptors open: a close would
                // purge the file from the bank.
                let (writer, _) = gluster(dep.mount());
                let wfds = create_all(&writer, &shared.paths).await?;
                // Clients open before the data lands: open purges the
                // file's bank entries, so population afterwards leaves
                // the bank warm.
                let mounts: Vec<_> = opens.iter().map(|_| gluster(dep.mount())).collect();
                let opened = join_all(
                    &h2,
                    mounts
                        .iter()
                        .zip(&opens)
                        .map(|((m, _), fs)| {
                            open_files(Rc::clone(m), Rc::clone(&shared), fs.clone())
                        })
                        .collect(),
                )
                .await;
                populate(&writer, &wfds, &shared.geo).await?;
                if warm_stats {
                    for p in &shared.paths {
                        writer
                            .stat(p)
                            .await
                            .map_err(|e| format!("warm stat {p}: {e}"))?;
                    }
                }
                let mut clients = Vec::new();
                for (id, ((mount, cm), fds)) in mounts.into_iter().zip(opened).enumerate() {
                    clients.push(Client {
                        id: id as u32,
                        mount,
                        cm,
                        fds: fds?,
                        handle: h2.clone(),
                        shared: Rc::clone(&shared),
                    });
                }
                Ok(clients)
            }
            .await;
            *ready.borrow_mut() = Some(result);
        });
    }
    let s0 = sim.run();
    let setup = t_setup.elapsed();
    let clients = ready.borrow_mut().take();
    let mut setup_errors = Vec::new();
    let clients = match clients {
        Some(Ok(c)) => c,
        Some(Err(e)) => {
            setup_errors.push(e);
            Vec::new()
        }
        None => {
            setup_errors.push("set-up never finished".into());
            Vec::new()
        }
    };

    let before = dep.metrics();
    let start = sim.now();
    let n_clients = clients.len();
    spawn_clients(&h, clients, &plan.streams, traced);
    // The measured phase runs in chunks of about CHUNK_WALL host time,
    // with the calibration kernel between chunks. Stopping the engine at
    // a virtual deadline and resuming it replays the same events, so
    // chunking leaves the simulated outcome unchanged (every repetition
    // is checked for that).
    let mut clock = calib::Chunked::start();
    let mut step = SimDuration::micros(100);
    let a0 = alloc::counts();
    alloc::enable(traced);
    let s1 = loop {
        let t = Instant::now();
        sim.run_until(sim.now() + step);
        let last = shared.rec.borrow().finished == n_clients || step.as_nanos() > MAX_STEP_NS;
        // Past the last client, drain to quiescence as one chunk.
        let s = last.then(|| sim.run());
        let wall = t.elapsed();
        alloc::enable(false);
        clock.chunk(wall);
        if let Some(s) = s {
            break s;
        }
        alloc::enable(traced);
        step = if wall < CHUNK_WALL / 2 {
            SimDuration::nanos(step.as_nanos() * 2)
        } else if wall > CHUNK_WALL * 2 {
            SimDuration::nanos((step.as_nanos() / 2).max(1))
        } else {
            step
        };
    };
    let (measured, calib_ns) = clock.finish();
    let finished = shared.rec.borrow().finished;
    if finished != n_clients {
        setup_errors.push(format!(
            "{} of {n_clients} clients never finished their streams",
            n_clients - finished
        ));
    }
    let a1 = alloc::counts();
    let after = dep.metrics();

    let mut rec = shared.rec.take();
    sort_latencies(&mut rec);
    let end = rec.end_ns.max(start.as_nanos());
    Rep {
        setup,
        measured,
        sim_ns: end - start.as_nanos(),
        rec,
        events: s1.events - s0.events,
        tasks: s1.tasks_spawned - s0.tasks_spawned,
        before,
        after,
        allocs: (a1.0 - a0.0, a1.1 - a0.1),
        fleet: None,
        setup_errors,
        calib_ns,
        setup_calib_ns: 0.0,
        peak_rss_mb: 0.0,
    }
}

/// Virtual instants of the fleet's set-up phases. The fleet has no
/// shared barrier, so each phase starts at a fixed time and the run
/// checks that the previous one had finished by then.
const T_OPEN: SimTime = SimTime(200_000_000);
const T_POPULATE: SimTime = SimTime(1_000_000_000);
const T_GO: SimTime = SimTime(3_000_000_000);

/// Host instants of the fleet's measured phase. The calibration kernel
/// runs on the worker thread that reaches each end first, so it samples
/// the core the fleet runs on; its own time is left out of both phases.
#[derive(Default)]
struct FleetClock {
    /// When set-up ended (before the first calibration).
    setup_end: Option<Instant>,
    /// Start of the measured phase, and the calibration just before it.
    start: Option<(Instant, f64)>,
    /// End of the measured phase, and the calibration just after it.
    end: Option<(Instant, f64)>,
}

impl FleetClock {
    /// The first shard to reach the measured phase starts the clock.
    fn start(&mut self, counting_allocs: bool) {
        if self.setup_end.is_none() {
            self.setup_end = Some(Instant::now());
            alloc::enable(false);
            let ns = calib::ns_per_iter(calib::ITERS);
            alloc::enable(counting_allocs);
            self.start = Some((Instant::now(), ns));
        }
    }

    /// The first shard to finish stops it.
    fn end(&mut self) {
        if self.end.is_none() {
            let t = Instant::now();
            let was = alloc::enabled();
            alloc::enable(false);
            self.end = Some((t, calib::ns_per_iter(calib::ITERS)));
            alloc::enable(was);
        }
    }
}

/// What one shard reports back.
struct ShardOut {
    rec: Recorder,
    before: Option<(Snapshot, u64)>,
    after: Snapshot,
    events_end: u64,
    errors: Vec<String>,
}

fn late(phase: &str, done: SimTime, deadline: SimTime) -> Option<String> {
    (done > deadline).then(|| {
        format!(
            "{phase} finished at {:.1} ms, after its {:.1} ms slot",
            done.as_nanos() as f64 / 1e6,
            deadline.as_nanos() as f64 / 1e6
        )
    })
}

/// Run one repetition as a `ShardCluster` fleet on `workers` threads.
/// The last declared client populates the files; the others run the
/// streams.
pub fn run_fleet(
    plan: &Plan,
    seed: u64,
    scheduler: Scheduler,
    workers: usize,
    traced: bool,
) -> Rep {
    let t_setup = Instant::now();
    let readers = plan.streams.len();
    let mcds = plan.cfg.imca.as_ref().map_or(0, |i| i.mcd_count);
    let topo = ShardTopology::new(plan.cfg.clone(), auto_plan(readers + 1, mcds), readers + 1);
    let clock: Arc<Mutex<FleetClock>> = Arc::default();
    let streams = Arc::new(plan.streams.clone());
    let opens = Arc::new(plan.opens.clone());
    let mut par = ParSim::new(seed)
        .lookahead(topo.max_lookahead())
        .workers(workers)
        .scheduler(scheduler);

    for _ in 0..topo.shards() {
        let topo = topo.clone();
        let geo = plan.geo.clone();
        let streams = Arc::clone(&streams);
        let opens = Arc::clone(&opens);
        let (clock, end_clock) = (Arc::clone(&clock), Arc::clone(&clock));
        par.add_shard(move |ctx| {
            let h = ctx.handle();
            let shard = ctx.shard();
            let cluster = ShardCluster::build(h.clone(), Some(ctx.comms()), topo.clone());
            let shared = Shared::new(geo, traced);
            let errors: Rc<RefCell<Vec<String>>> = Rc::default();
            let before: Rc<RefCell<Option<(Snapshot, u64)>>> = Rc::default();

            {
                let (h2, cluster, before) = (h.clone(), cluster.clone(), Rc::clone(&before));
                h.spawn(async move {
                    h2.sleep_until(T_GO).await;
                    clock
                        .lock()
                        .expect("fleet clock lock poisoned")
                        .start(traced);
                    *before.borrow_mut() = Some((cluster.metrics(), h2.events()));
                });
            }

            for client in 0..topo.clients() {
                if topo.client_shard(client) != shard {
                    continue;
                }
                let (mount, cm) = cluster.mount_client(client);
                let (h2, shared, errors) = (h.clone(), Rc::clone(&shared), Rc::clone(&errors));
                if client == readers {
                    h.spawn(async move {
                        let note = |e: Option<String>| errors.borrow_mut().extend(e);
                        match create_all(&mount, &shared.paths).await {
                            Ok(fds) => {
                                note(late("create", h2.now(), T_OPEN));
                                h2.sleep_until(T_POPULATE).await;
                                note(populate(&mount, &fds, &shared.geo).await.err());
                                note(late("populate", h2.now(), T_GO));
                            }
                            Err(e) => note(Some(e)),
                        }
                    });
                    continue;
                }
                let ops: Rc<[Op]> = streams[client].clone().into();
                let to_open = opens[client].clone();
                let clock = traced.then(|| Rc::new(PollClock::default()));
                let run_clock = clock.clone();
                let run = async move {
                    h2.sleep_until(T_OPEN).await;
                    let fds = match open_files(Rc::clone(&mount), Rc::clone(&shared), to_open).await
                    {
                        Ok(fds) => fds,
                        Err(e) => {
                            errors.borrow_mut().push(e);
                            return;
                        }
                    };
                    errors
                        .borrow_mut()
                        .extend(late("open", h2.now(), T_POPULATE));
                    h2.sleep_until(T_GO).await;
                    let c = Client {
                        id: client as u32,
                        mount,
                        cm,
                        fds,
                        handle: h2,
                        shared,
                    };
                    c.run(ops, run_clock).await;
                };
                match clock {
                    Some(clock) => h.spawn(Timed::new(run, clock)),
                    None => h.spawn(run),
                }
            }

            move || {
                end_clock.lock().expect("fleet clock lock poisoned").end();
                ShardOut {
                    rec: shared.rec.take(),
                    before: before.take(),
                    after: cluster.metrics(),
                    events_end: h.events(),
                    errors: errors.take(),
                }
            }
        });
    }

    let a0 = alloc::counts();
    alloc::enable(traced);
    let mut summary = par.run();
    let t_end = Instant::now();
    alloc::enable(false);
    let a1 = alloc::counts();
    let clock = clock.lock().expect("fleet clock lock poisoned");
    let host_end = clock.end.map_or(t_end, |(t, _)| t);
    let host_go = clock.start.map_or(host_end, |(t, _)| t);
    let setup_end = clock.setup_end.unwrap_or(host_go);
    let calib_ns = match (clock.start, clock.end) {
        (Some((_, a)), Some((_, b))) => (a + b) / 2.0,
        _ => 0.0,
    };

    let mut rec = Recorder::new(traced);
    let mut before = Snapshot::new();
    let mut after = Snapshot::new();
    let mut events = 0;
    let mut setup_errors = Vec::new();
    for s in 0..topo.shards() {
        let out = summary.take::<ShardOut>(s);
        rec.merge(out.rec);
        match out.before {
            Some((snap, ev)) => {
                before.merge_sum(&snap);
                events += out.events_end - ev;
            }
            None => setup_errors.push(format!("shard {s} never reached the measured phase")),
        }
        after.merge_sum(&out.after);
        setup_errors.extend(out.errors);
    }
    sort_latencies(&mut rec);
    if let Some(spans) = &mut rec.spans {
        spans.sort_by_key(|s| (s.start_ns, s.client));
    }
    let fleet = FleetProfile {
        shards: topo.shards(),
        workers: summary.workers.len(),
        epochs: summary.epochs,
        events: summary.events,
        worker_busy_ns: summary
            .workers
            .iter()
            .map(|w| w.busy.as_nanos() as u64)
            .collect(),
        worker_idle_ns: summary
            .workers
            .iter()
            .map(|w| w.idle.as_nanos() as u64)
            .collect(),
    };
    let end = rec.end_ns.max(T_GO.as_nanos());
    Rep {
        setup: setup_end.duration_since(t_setup),
        measured: host_end.duration_since(host_go),
        sim_ns: end - T_GO.as_nanos(),
        rec,
        events,
        tasks: summary.tasks_spawned,
        before,
        after,
        allocs: (a1.0 - a0.0, a1.1 - a0.1),
        fleet: Some(fleet),
        setup_errors,
        calib_ns,
        setup_calib_ns: 0.0,
        peak_rss_mb: 0.0,
    }
}
