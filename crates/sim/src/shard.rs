//! Sharded parallel execution of deterministic simulations.
//!
//! [`ParSim`] partitions a simulation into shards — independent [`Sim`]
//! cores, each confined to one worker thread — that exchange messages only
//! through [`ShardComms`] with a fixed minimum latency (the *lookahead*).
//! Execution proceeds in barrier-synchronised epochs, the classic
//! conservative (Chandy–Misra style) scheme:
//!
//! 1. A coordinator computes `horizon = min(next event anywhere) + lookahead`.
//! 2. Cross-shard messages with `at < horizon` are handed to their
//!    destination shards, **sorted by the canonical key `(at, src, seq)`**.
//! 3. Every shard with work before the horizon runs its events in
//!    `[.., horizon)` in parallel.
//! 4. Newly sent messages are collected and the cycle repeats.
//!
//! Because a message sent at time `t` arrives no earlier than
//! `t + lookahead`, and every event executed in an epoch has `t ≥` the
//! global minimum, no message can arrive inside the epoch that produced
//! it — shards never see the past change. The canonical handoff sort is
//! what makes the result *bit-identical regardless of worker count*:
//! workers append their shards' outboxes to the coordinator's pending list
//! in whatever order threads finish, but `(src, seq)` is unique per
//! message, so the sort erases that scheduling noise before any shard can
//! observe it. `workers = 1` and `workers = 8` replay the same trace.
//!
//! A shard whose batch is empty and whose next event lies at or past the
//! horizon skips the epoch: its window would pop no timer and poll no
//! task, so skipping it changes nothing but the host time spent. Epochs
//! end at one [`EpochBarrier`] whose last arriver runs the coordinator
//! step before it releases the others.
//!
//! Within a shard the ordinary engine rules apply (total event order
//! `(at, node, seq)`); delivery pumps run on the reserved node
//! [`NET_NODE`], which orders after every model node at the same instant.
//!
//! Models are built *on* their worker thread (shard state is `Rc`-based
//! and never crosses threads): [`ParSim::add_shard`] takes a `Send`
//! constructor closure that receives a [`ShardCtx`] and returns a
//! finisher closure producing the shard's output (any `Send` value, e.g.
//! a metrics snapshot), which is the only data that crosses back.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use crate::det;
use crate::sim::{RunSummary, Sim, SimHandle};
use crate::sync::Queue;
use crate::time::{SimDuration, SimTime};
use crate::wheel::Scheduler;

/// Node tag of the cross-shard delivery pumps. `u32::MAX` sorts after
/// every model node, so a delivery at tick `t` lands after model timers
/// at `t` — stable no matter how shards are assigned to workers.
pub const NET_NODE: u32 = u32::MAX;

type ShardOutput = Box<dyn Any + Send>;
type Finisher = Box<dyn FnOnce() -> ShardOutput>;
type ShardBuilder = Box<dyn FnOnce(&ShardCtx) -> Finisher + Send>;

/// A cross-shard message in flight.
struct Parcel {
    at: SimTime,
    dst: usize,
    src: usize,
    seq: u64,
    payload: Box<dyn Any + Send>,
}

/// A message delivered to a shard's inbox.
pub struct Envelope {
    /// Index of the sending shard.
    pub src: usize,
    /// Virtual time the message arrived (the receiver's `now`).
    pub at: SimTime,
    payload: Box<dyn Any + Send>,
}

impl Envelope {
    /// Downcast the payload to its concrete type.
    ///
    /// # Panics
    /// Panics if the payload is not a `T`.
    pub fn open<T: Any>(self) -> T {
        *self
            .payload
            .downcast::<T>()
            .unwrap_or_else(|_| panic!("envelope payload is not a {}", std::any::type_name::<T>()))
    }

    /// Whether the payload is a `T`.
    pub fn is<T: Any>(&self) -> bool {
        self.payload.is::<T>()
    }
}

impl std::fmt::Debug for Envelope {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Envelope")
            .field("src", &self.src)
            .field("at", &self.at)
            .finish()
    }
}

struct CommsInner {
    shard: usize,
    shards: usize,
    lookahead: SimDuration,
    handle: SimHandle,
    seq: Cell<u64>,
    /// Messages bound for other shards; drained by the epoch loop.
    outbox: RefCell<Vec<Parcel>>,
    /// Same-shard sends at exactly `now + lookahead`: arrival times are
    /// monotone in send order, so a FIFO pump preserves the canonical
    /// order without going through the coordinator.
    loopback: Queue<Parcel>,
    inbox: Queue<Envelope>,
}

/// A shard's endpoint for cross-shard messaging. Cloneable; all clones
/// share the shard's outbox and inbox.
#[derive(Clone)]
pub struct ShardComms {
    inner: Rc<CommsInner>,
}

impl ShardComms {
    /// This shard's index.
    pub fn shard(&self) -> usize {
        self.inner.shard
    }

    /// Total number of shards in the simulation.
    pub fn shards(&self) -> usize {
        self.inner.shards
    }

    /// The minimum cross-shard latency.
    pub fn lookahead(&self) -> SimDuration {
        self.inner.lookahead
    }

    /// Send `payload` to shard `dst`, arriving after the lookahead.
    pub fn send<P: Any + Send>(&self, dst: usize, payload: P) {
        let at = self.inner.handle.now() + self.inner.lookahead;
        self.send_boxed(dst, at, Box::new(payload));
    }

    /// Send `payload` to shard `dst`, arriving at `at`.
    ///
    /// # Panics
    /// Panics if `at` is earlier than `now + lookahead` — conservative
    /// synchronisation relies on that minimum latency.
    pub fn send_at<P: Any + Send>(&self, dst: usize, at: SimTime, payload: P) {
        self.send_boxed(dst, at, Box::new(payload));
    }

    fn send_boxed(&self, dst: usize, at: SimTime, payload: Box<dyn Any + Send>) {
        let inner = &self.inner;
        assert!(dst < inner.shards, "shard {dst} out of range");
        let earliest = inner.handle.now() + inner.lookahead;
        assert!(
            at >= earliest,
            "cross-shard send at {at} violates lookahead (earliest {earliest})"
        );
        let seq = inner.seq.get();
        inner.seq.set(seq + 1);
        let parcel = Parcel {
            at,
            dst,
            src: inner.shard,
            seq,
            payload,
        };
        if dst == inner.shard && at == earliest {
            inner.loopback.push(parcel);
        } else {
            inner.outbox.borrow_mut().push(parcel);
        }
    }

    /// Receive the next message. Resolves to `None` only if the inbox is
    /// closed (which `ParSim` never does — receiver loops simply remain
    /// blocked at the end of the run and are dropped).
    pub async fn recv(&self) -> Option<Envelope> {
        self.inner.inbox.recv().await
    }

    /// Number of messages waiting in the inbox.
    pub fn inbox_len(&self) -> usize {
        self.inner.inbox.len()
    }
}

impl std::fmt::Debug for ShardComms {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardComms")
            .field("shard", &self.inner.shard)
            .field("shards", &self.inner.shards)
            .finish()
    }
}

/// What a shard constructor gets to work with: the shard's own simulation
/// handle and its comms endpoint.
pub struct ShardCtx {
    handle: SimHandle,
    comms: ShardComms,
}

impl ShardCtx {
    /// The shard's simulation handle (spawn, sleep, rng).
    pub fn handle(&self) -> SimHandle {
        self.handle.clone()
    }

    /// The shard's comms endpoint.
    pub fn comms(&self) -> ShardComms {
        self.comms.clone()
    }

    /// This shard's index.
    pub fn shard(&self) -> usize {
        self.comms.shard()
    }

    /// Total number of shards.
    pub fn shards(&self) -> usize {
        self.comms.shards()
    }
}

/// Builder/runner for a sharded parallel simulation. See the module docs
/// for the synchronisation scheme.
///
/// ```
/// use imca_sim::{ParSim, SimDuration};
///
/// let mut par = ParSim::new(7).lookahead(SimDuration::micros(1)).workers(2);
/// for _ in 0..2 {
///     par.add_shard(|ctx| {
///         let h = ctx.handle();
///         let comms = ctx.comms();
///         let peer = (ctx.shard() + 1) % ctx.shards();
///         h.spawn(async move {
///             comms.send(peer, 42u32);
///             let got = comms.recv().await.unwrap().open::<u32>();
///             assert_eq!(got, 42);
///         });
///         let h2 = ctx.handle();
///         move || h2.now().as_nanos()
///     });
/// }
/// let mut summary = par.run();
/// assert_eq!(summary.take::<u64>(0), 1_000);
/// ```
pub struct ParSim {
    seed: u64,
    lookahead: SimDuration,
    workers: usize,
    scheduler: Scheduler,
    builders: Vec<ShardBuilder>,
}

/// Wall-clock execution profile of one worker thread. Measured with the
/// host clock, so it is *not* part of the deterministic trace — it exists
/// to make shard-plan quality observable (a plan whose workers sit mostly
/// idle left parallelism on the table) and to attribute the epoch loop's
/// cost by phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkerProfile {
    /// Wall time spent building shards and executing epoch windows.
    pub busy: Duration,
    /// Wall time spent outside shard work: handoff and barrier waits.
    pub idle: Duration,
    /// Wall time spent executing shard windows (`busy` minus the build).
    pub windows: Duration,
    /// Wall time spent in the coordinator handoff: the horizon, the
    /// partition and canonical sort of parcels (on whichever worker
    /// arrived last), taking batches and posting results.
    pub handoff: Duration,
    /// Wall time spent waiting at the epoch barrier for other workers,
    /// including the coordinator step the last arriver runs.
    pub barrier: Duration,
}

/// Aggregated result of a [`ParSim`] run.
pub struct ParSummary {
    /// Latest virtual end time across shards.
    pub end_time: SimTime,
    /// Task polls summed over shards.
    pub events: u64,
    /// Tasks spawned, summed over shards.
    pub tasks_spawned: u64,
    /// Tasks still blocked at the end, summed over shards.
    pub tasks_leaked: u64,
    /// Number of barrier epochs executed.
    pub epochs: u64,
    /// Shard windows executed, summed over shards. A shard runs a window
    /// only in epochs where it has parcels or an event before the
    /// horizon, so this is at most `shards × epochs`. Deterministic.
    pub windows: u64,
    /// Per-shard run summaries, indexed by shard.
    pub shards: Vec<RunSummary>,
    /// Shard windows executed, indexed by shard. Deterministic.
    pub shard_windows: Vec<u64>,
    /// Per-worker wall-clock profile, indexed by worker.
    pub workers: Vec<WorkerProfile>,
    /// Wall time each shard spent executing its epoch windows, indexed by
    /// shard. The serial run's per-shard times project the critical path
    /// of any worker assignment (shards are assigned round-robin).
    pub shard_busy: Vec<Duration>,
    outputs: Vec<Option<ShardOutput>>,
}

impl ParSummary {
    /// Mean task polls per barrier epoch — the work the lookahead window
    /// amortises each barrier over. Low values mean the barriers dominate.
    pub fn events_per_epoch(&self) -> f64 {
        self.events as f64 / self.epochs.max(1) as f64
    }
    /// Take shard `shard`'s output, downcast to its concrete type.
    ///
    /// # Panics
    /// Panics if already taken or if the output is not a `T`.
    pub fn take<T: Any>(&mut self, shard: usize) -> T {
        *self.outputs[shard]
            .take()
            .expect("shard output already taken")
            .downcast::<T>()
            .unwrap_or_else(|_| panic!("shard output is not a {}", std::any::type_name::<T>()))
    }
}

impl std::fmt::Debug for ParSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParSummary")
            .field("end_time", &self.end_time)
            .field("events", &self.events)
            .field("epochs", &self.epochs)
            .field("windows", &self.windows)
            .field("shards", &self.shards.len())
            .finish()
    }
}

/// splitmix64-style mix so per-shard RNG streams are independent of shard
/// count and worker assignment.
fn mix_seed(seed: u64, shard: u64) -> u64 {
    let mut z = seed ^ shard.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Coordinator state shared by the workers. Between barriers a worker
/// touches only its own shards' entries and appends to `pending`; the
/// epoch step runs on the last worker to arrive while the others wait.
struct Coord {
    pending: Vec<Parcel>,
    next_times: Vec<Option<u64>>,
    batches: Vec<Vec<Parcel>>,
    horizon: u64,
    done: bool,
    poisoned: bool,
    epochs: u64,
}

/// Recover from lock poisoning: a panicking worker already set the
/// `poisoned` flag, and hanging the barrier would turn one failed test
/// into a wedged suite.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// How long a barrier waiter spins before it parks. Long enough to cover
/// the skew between workers finishing a typical epoch, short enough that
/// a worker whose peer is descheduled gives the core back quickly.
const SPIN: Duration = Duration::from_micros(20);

/// The epoch barrier: one rendezvous per epoch whose last arriver runs
/// the coordinator step before releasing the rest.
///
/// Unlike `std::sync::Barrier`, the release makes no syscall unless a
/// waiter actually parked, so a lone worker pays a few atomic operations
/// per epoch. Waiters spin for [`SPIN`] before parking, but only when
/// every participant can have a core of its own; with more threads than
/// cores a spinning waiter would burn the time slice the thread it waits
/// for needs.
struct EpochBarrier {
    n: usize,
    spin: bool,
    arrived: AtomicUsize,
    generation: AtomicUsize,
    /// Waiters parked (or about to park) on `wake`.
    sleepers: AtomicUsize,
    lock: Mutex<()>,
    wake: Condvar,
}

impl EpochBarrier {
    fn new(n: usize) -> EpochBarrier {
        let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
        EpochBarrier::with_spin(n, n <= cores)
    }

    fn with_spin(n: usize, spin: bool) -> EpochBarrier {
        EpochBarrier {
            n,
            spin,
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            sleepers: AtomicUsize::new(0),
            lock: Mutex::new(()),
            wake: Condvar::new(),
        }
    }

    /// Block until all `n` threads have called `wait_then`; the last to
    /// arrive runs `leader` before anyone returns, and gets `true`.
    /// `leader` must not panic, or the other participants wait forever.
    fn wait_then(&self, leader: impl FnOnce()) -> bool {
        let gen = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            leader();
            self.arrived.store(0, Ordering::Relaxed);
            // SeqCst pairs with the waiter's `sleepers` increment: either
            // the waiter sees the new generation or we see it parked.
            self.generation.store(gen.wrapping_add(1), Ordering::SeqCst);
            if self.sleepers.load(Ordering::SeqCst) > 0 {
                let _guard = lock(&self.lock);
                self.wake.notify_all();
            }
            return true;
        }
        if self.spin {
            let start = Instant::now();
            loop {
                for _ in 0..16 {
                    if self.generation.load(Ordering::Acquire) != gen {
                        return false;
                    }
                    std::hint::spin_loop();
                }
                if start.elapsed() >= SPIN {
                    break;
                }
            }
        }
        let mut guard = lock(&self.lock);
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        while self.generation.load(Ordering::SeqCst) == gen {
            guard = self
                .wake
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner);
        }
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
        false
    }
}

impl ParSim {
    /// Create a builder. Defaults: 1 worker, 1 µs lookahead, the default
    /// scheduler.
    pub fn new(seed: u64) -> ParSim {
        ParSim {
            seed,
            lookahead: SimDuration::micros(1),
            workers: 1,
            scheduler: Scheduler::default(),
            builders: Vec::new(),
        }
    }

    /// Set the cross-shard lookahead (minimum message latency). Must be
    /// positive; larger values mean fewer barriers.
    pub fn lookahead(mut self, d: SimDuration) -> ParSim {
        assert!(d.as_nanos() > 0, "lookahead must be positive");
        self.lookahead = d;
        self
    }

    /// Set the number of worker threads. The trace is identical for every
    /// value; this only changes wall-clock behaviour.
    pub fn workers(mut self, workers: usize) -> ParSim {
        assert!(workers >= 1, "need at least one worker");
        self.workers = workers;
        self
    }

    /// Set the worker count from `IMCA_SIM_WORKERS` if present (used by CI
    /// to pin the parallel path), else `default`.
    ///
    /// # Panics
    /// Panics if the variable is set but is not a positive integer. A CI
    /// job that exports `IMCA_SIM_WORKERS=two` (or `0`) believes it pinned
    /// the parallel path; silently falling back to `default` would let the
    /// suite pass without ever exercising it.
    pub fn workers_from_env(self, default: usize) -> ParSim {
        let workers = match std::env::var("IMCA_SIM_WORKERS") {
            Err(std::env::VarError::NotPresent) => default,
            Err(e) => panic!("IMCA_SIM_WORKERS is not valid unicode: {e}"),
            Ok(v) => match v.parse::<usize>() {
                Ok(w) if w >= 1 => w,
                _ => panic!("IMCA_SIM_WORKERS must be a positive integer, got {v:?}"),
            },
        };
        self.workers(workers)
    }

    /// Set the timer back-end used by every shard.
    pub fn scheduler(mut self, scheduler: Scheduler) -> ParSim {
        self.scheduler = scheduler;
        self
    }

    /// Number of shards added so far.
    pub fn shards(&self) -> usize {
        self.builders.len()
    }

    /// Add a shard. `build` runs on the shard's worker thread with the
    /// shard's [`ShardCtx`]; it wires up the model (spawning processes on
    /// the shard's handle) and returns a finisher that produces the
    /// shard's output once the run is over. Returns the shard's index.
    pub fn add_shard<T, G, B>(&mut self, build: B) -> usize
    where
        T: Any + Send,
        G: FnOnce() -> T + 'static,
        B: FnOnce(&ShardCtx) -> G + Send + 'static,
    {
        let idx = self.builders.len();
        self.builders.push(Box::new(move |ctx| {
            let finish = build(ctx);
            Box::new(move || Box::new(finish()) as ShardOutput) as Finisher
        }));
        idx
    }

    /// Run the simulation to global quiescence.
    pub fn run(self) -> ParSummary {
        let shards = self.builders.len();
        assert!(shards > 0, "ParSim::run with no shards");
        let workers = self.workers.min(shards);
        let lookahead = self.lookahead;
        let seed = self.seed;
        let scheduler = self.scheduler;

        let coord = Mutex::new(Coord {
            pending: Vec::new(),
            next_times: vec![None; shards],
            batches: (0..shards).map(|_| Vec::new()).collect(),
            horizon: 0,
            done: false,
            poisoned: false,
            epochs: 0,
        });
        let barrier = EpochBarrier::new(workers);
        let results: Mutex<Vec<SlotResult>> = Mutex::new(Vec::new());
        let profiles: Mutex<Vec<(usize, WorkerProfile)>> = Mutex::new(Vec::new());

        let mut per_worker: Vec<Vec<(usize, ShardBuilder)>> =
            (0..workers).map(|_| Vec::new()).collect();
        for (idx, builder) in self.builders.into_iter().enumerate() {
            per_worker[idx % workers].push((idx, builder));
        }

        std::thread::scope(|scope| {
            let handles: Vec<_> = per_worker
                .into_iter()
                .enumerate()
                .map(|(wid, own)| {
                    let coord = &coord;
                    let barrier = &barrier;
                    let results = &results;
                    let profiles = &profiles;
                    scope.spawn(move || {
                        worker_main(
                            wid, own, shards, seed, scheduler, lookahead, coord, barrier, results,
                            profiles,
                        )
                    })
                })
                .collect();
            // Join manually so the original panic payload (a model bug,
            // e.g. an assert in a task) surfaces instead of the generic
            // "a scoped thread panicked".
            let mut first_panic = None;
            for handle in handles {
                if let Err(payload) = handle.join() {
                    first_panic.get_or_insert(payload);
                }
            }
            if let Some(payload) = first_panic {
                resume_unwind(payload);
            }
        });

        let mut slots = results.into_inner().unwrap_or_else(PoisonError::into_inner);
        slots.sort_by_key(|slot| slot.idx);
        let mut worker_slots = profiles
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        worker_slots.sort_by_key(|(wid, _)| *wid);
        let coord = coord.into_inner().unwrap_or_else(PoisonError::into_inner);
        let mut summary = ParSummary {
            end_time: SimTime::ZERO,
            events: 0,
            tasks_spawned: 0,
            tasks_leaked: 0,
            epochs: coord.epochs,
            windows: 0,
            shards: Vec::with_capacity(shards),
            shard_windows: Vec::with_capacity(shards),
            workers: worker_slots.into_iter().map(|(_, p)| p).collect(),
            shard_busy: Vec::with_capacity(shards),
            outputs: Vec::with_capacity(shards),
        };
        for slot in slots {
            let s = slot.summary;
            summary.end_time = summary.end_time.max(s.end_time);
            summary.events += s.events;
            summary.tasks_spawned += s.tasks_spawned;
            summary.tasks_leaked += s.tasks_leaked;
            summary.windows += slot.windows;
            summary.shards.push(s);
            summary.shard_windows.push(slot.windows);
            summary.shard_busy.push(slot.busy);
            summary.outputs.push(slot.output);
        }
        summary
    }
}

/// A shard's runtime state, confined to its worker thread.
struct ShardRt {
    idx: usize,
    sim: Sim,
    comms: ShardComms,
    finisher: Option<Finisher>,
    /// Wall time this shard spent executing epoch windows (profiling).
    busy: Duration,
    /// Epoch windows this shard executed.
    windows: u64,
}

fn build_shard(
    idx: usize,
    shards: usize,
    seed: u64,
    scheduler: Scheduler,
    lookahead: SimDuration,
    builder: ShardBuilder,
) -> ShardRt {
    let sim = Sim::with_scheduler(mix_seed(seed, idx as u64), scheduler);
    let handle = sim.handle();
    let comms = ShardComms {
        inner: Rc::new(CommsInner {
            shard: idx,
            shards,
            lookahead,
            handle: handle.clone(),
            seq: Cell::new(0),
            outbox: RefCell::new(Vec::new()),
            loopback: Queue::new(),
            inbox: Queue::new(),
        }),
    };
    // The loopback pump: same-shard sends arrive exactly one lookahead
    // later, so arrival times are monotone in send order and FIFO
    // delivery preserves the canonical order.
    let pump = comms.clone();
    let ph = handle.clone();
    handle.spawn_on(NET_NODE, async move {
        while let Some(p) = pump.inner.loopback.recv().await {
            ph.sleep_until(p.at).await;
            pump.inner.inbox.push(Envelope {
                src: p.src,
                at: p.at,
                payload: p.payload,
            });
        }
    });
    let finisher = builder(&ShardCtx {
        handle,
        comms: comms.clone(),
    });
    ShardRt {
        idx,
        sim,
        comms,
        finisher: Some(finisher),
        busy: Duration::ZERO,
        windows: 0,
    }
}

/// One shard's share of an epoch: inject this epoch's deliveries, run the
/// window, move the outbox into `sent`. Returns the shard's next event
/// time.
fn run_epoch(
    shard: &mut ShardRt,
    batch: Vec<Parcel>,
    horizon: u64,
    sent: &mut Vec<Parcel>,
) -> Option<u64> {
    if !batch.is_empty() {
        det::debug_assert_canonical(&batch, |p| (p.at.0, p.src, p.seq));
        let inbox = shard.comms.clone();
        let handle = shard.sim.handle();
        let h2 = handle.clone();
        handle.spawn_on(NET_NODE, async move {
            for p in batch {
                h2.sleep_until(p.at).await;
                inbox.inner.inbox.push(Envelope {
                    src: p.src,
                    at: p.at,
                    payload: p.payload,
                });
            }
        });
    }
    shard.sim.run_window(SimTime(horizon));
    shard.windows += 1;
    sent.append(&mut shard.comms.inner.outbox.borrow_mut());
    shard.sim.next_event_time().map(|t| t.0)
}

/// Decide the next epoch (or the end of the run) from global state.
/// Runs on the last worker to reach the epoch barrier.
fn compute_epoch(c: &mut Coord, lookahead: SimDuration) {
    if c.poisoned {
        c.done = true;
        return;
    }
    let min_next = c.next_times.iter().flatten().copied().min();
    let min_msg = c.pending.iter().map(|p| p.at.0).min();
    let m = match (min_next, min_msg) {
        (None, None) => {
            c.done = true;
            return;
        }
        (a, b) => a.into_iter().chain(b).min().unwrap(),
    };
    let horizon = m
        .checked_add(lookahead.as_nanos())
        .expect("virtual-time overflow computing epoch horizon");
    c.horizon = horizon;
    // Partition in place: `pending`'s order is thread-timing noise
    // anyway, and the sort below erases it.
    let Coord {
        pending, batches, ..
    } = c;
    let mut i = 0;
    while i < pending.len() {
        if pending[i].at.0 < horizon {
            let p = pending.swap_remove(i);
            batches[p.dst].push(p);
        } else {
            i += 1;
        }
    }
    for batch in batches.iter_mut() {
        // (src, seq) is unique per message, so this sort is total: the
        // thread-timing order in which workers appended to `pending`
        // cannot leak into what shards observe.
        batch.sort_unstable_by_key(|p| (p.at.0, p.src, p.seq));
    }
    c.epochs += 1;
}

/// One finished shard's record.
struct SlotResult {
    idx: usize,
    summary: RunSummary,
    output: Option<ShardOutput>,
    busy: Duration,
    windows: u64,
}

#[allow(clippy::too_many_arguments)]
fn worker_main(
    wid: usize,
    own: Vec<(usize, ShardBuilder)>,
    shards: usize,
    seed: u64,
    scheduler: Scheduler,
    lookahead: SimDuration,
    coord: &Mutex<Coord>,
    barrier: &EpochBarrier,
    results: &Mutex<Vec<SlotResult>>,
    profiles: &Mutex<Vec<(usize, WorkerProfile)>>,
) {
    let started = Instant::now();
    let mut prof = WorkerProfile::default();
    // Build on this thread (shard state never crosses threads). A panic
    // here or in an epoch must not strand peers at the barrier: record it,
    // poison the run, keep participating until everyone agrees to stop,
    // then re-raise.
    let mut panic_payload: Option<Box<dyn Any + Send>> = None;
    let mut my_shards: Vec<ShardRt> = match catch_unwind(AssertUnwindSafe(|| {
        own.into_iter()
            .map(|(idx, b)| build_shard(idx, shards, seed, scheduler, lookahead, b))
            .collect::<Vec<_>>()
    })) {
        Ok(built) => built,
        Err(payload) => {
            lock(coord).poisoned = true;
            panic_payload = Some(payload);
            Vec::new()
        }
    };
    let built = started.elapsed();
    {
        let mut c = lock(coord);
        for sh in &my_shards {
            c.next_times[sh.idx] = sh.sim.next_event_time().map(|t| t.0);
        }
    }

    // Per-epoch buffers, reused: the shards with work this epoch (local
    // index and batch), their next event times, and their sent parcels.
    let mut work: Vec<(usize, Vec<Parcel>)> = Vec::with_capacity(my_shards.len());
    let mut posts: Vec<(usize, Option<u64>)> = Vec::with_capacity(my_shards.len());
    let mut sent: Vec<Parcel> = Vec::new();
    let mut t = Instant::now();
    loop {
        let led = barrier.wait_then(|| {
            let mut c = lock(coord);
            if let Err(payload) =
                catch_unwind(AssertUnwindSafe(|| compute_epoch(&mut c, lookahead)))
            {
                c.poisoned = true;
                c.done = true;
                panic_payload.get_or_insert(payload);
            }
        });
        // The last arriver waited for nobody: its whole stay at the
        // barrier was the coordinator step. (One clock read fewer per
        // epoch than timing the step on its own.)
        let t_released = Instant::now();
        if led {
            prof.handoff += t_released - t;
        } else {
            prof.barrier += t_released - t;
        }

        let (done, horizon) = {
            let mut c = lock(coord);
            let horizon = c.horizon;
            for (i, sh) in my_shards.iter().enumerate() {
                let batch = std::mem::take(&mut c.batches[sh.idx]);
                // Skipping is exact: with no parcel and no event before
                // the horizon, the window would pop no timer and poll no
                // task, and the shard's next event time stays as posted.
                if !batch.is_empty() || c.next_times[sh.idx].is_some_and(|n| n < horizon) {
                    work.push((i, batch));
                }
            }
            (c.done, horizon)
        };
        let t_taken = Instant::now();
        prof.handoff += t_taken - t_released;
        t = t_taken;
        if done {
            break;
        }
        if panic_payload.is_some() || work.is_empty() {
            // Nothing to run (or already failed): keep the barrier balanced.
            work.clear();
            continue;
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut t_prev = t_taken;
            for (i, batch) in work.drain(..) {
                let sh = &mut my_shards[i];
                let next = run_epoch(sh, batch, horizon, &mut sent);
                let t_now = Instant::now();
                sh.busy += t_now - t_prev;
                t_prev = t_now;
                posts.push((sh.idx, next));
            }
            t_prev
        }));
        match outcome {
            Ok(t_ran) => {
                prof.windows += t_ran - t_taken;
                let mut c = lock(coord);
                for (idx, next) in posts.drain(..) {
                    c.next_times[idx] = next;
                }
                c.pending.append(&mut sent);
                drop(c);
                t = Instant::now();
                prof.handoff += t - t_ran;
            }
            Err(payload) => {
                work.clear();
                lock(coord).poisoned = true;
                panic_payload = Some(payload);
                t = Instant::now();
            }
        }
    }

    if let Some(payload) = panic_payload {
        resume_unwind(payload);
    }
    prof.busy = built + prof.windows;
    prof.idle = started.elapsed().saturating_sub(prof.busy);
    lock(profiles).push((wid, prof));
    for mut sh in my_shards {
        let output = sh.finisher.take().map(|f| f());
        lock(results).push(SlotResult {
            idx: sh.idx,
            summary: sh.sim.summary(),
            output,
            busy: sh.busy,
            windows: sh.windows,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ping-pong between shards, returning a per-shard trace of
    /// (virtual time, payload) pairs.
    fn ping_pong(seed: u64, workers: usize, shards: usize) -> (Vec<Vec<(u64, u64)>>, ParSummary) {
        let mut par = ParSim::new(seed)
            .lookahead(SimDuration::micros(2))
            .workers(workers);
        for _ in 0..shards {
            par.add_shard(move |ctx| {
                let h = ctx.handle();
                let comms = ctx.comms();
                let me = ctx.shard();
                let n = ctx.shards();
                let log = Rc::new(RefCell::new(Vec::new()));
                let log2 = Rc::clone(&log);
                h.spawn(async move {
                    if me == 0 {
                        comms.send((me + 1) % n, 0u64);
                    }
                    while let Some(env) = comms.recv().await {
                        let at = env.at.0;
                        let v = env.open::<u64>();
                        log2.borrow_mut().push((at, v));
                        if v < 20 {
                            comms.send((me + 1) % n, v + 1);
                        }
                    }
                });
                // The receiver task is still blocked (and thus alive) when
                // the finisher runs, so clone rather than unwrap the Rc.
                move || log.borrow().clone()
            });
        }
        let mut summary = par.run();
        let traces = (0..shards)
            .map(|i| summary.take::<Vec<(u64, u64)>>(i))
            .collect();
        (traces, summary)
    }

    #[test]
    fn cross_shard_messages_respect_lookahead_timing() {
        let (traces, summary) = ping_pong(1, 1, 2);
        // 21 hops at 2 µs each.
        assert_eq!(summary.end_time.0, 21 * 2_000);
        let total: usize = traces.iter().map(Vec::len).sum();
        assert_eq!(total, 21);
    }

    #[test]
    fn worker_count_does_not_change_the_trace() {
        let (t1, s1) = ping_pong(42, 1, 4);
        for workers in [2, 4, 8] {
            let (tw, sw) = ping_pong(42, workers, 4);
            assert_eq!(t1, tw, "trace diverged at workers={workers}");
            assert_eq!(s1.end_time, sw.end_time);
            assert_eq!(s1.events, sw.events);
            assert_eq!(s1.shards, sw.shards);
        }
    }

    #[test]
    fn single_shard_loopback_delivers_in_order() {
        let mut par = ParSim::new(9).lookahead(SimDuration::micros(1));
        par.add_shard(|ctx| {
            let h = ctx.handle();
            let comms = ctx.comms();
            let seen = Rc::new(RefCell::new(Vec::new()));
            let seen2 = Rc::clone(&seen);
            let c2 = comms.clone();
            h.spawn(async move {
                for i in 0..5u64 {
                    c2.send(0, i);
                }
                while let Some(env) = c2.recv().await {
                    seen2.borrow_mut().push(env.open::<u64>());
                    if seen2.borrow().len() == 5 {
                        break;
                    }
                }
            });
            move || seen.borrow().clone()
        });
        let mut s = par.run();
        assert_eq!(s.take::<Vec<u64>>(0), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "violates lookahead")]
    fn send_below_lookahead_is_rejected() {
        let mut par = ParSim::new(0).lookahead(SimDuration::micros(5));
        par.add_shard(|ctx| {
            let h = ctx.handle();
            let comms = ctx.comms();
            h.spawn(async move {
                comms.send_at(0, SimTime(10), ()); // < lookahead
            });
            || ()
        });
        par.run();
    }

    #[test]
    fn per_shard_rngs_are_independent_of_worker_count() {
        fn draws(workers: usize) -> Vec<u64> {
            let mut par = ParSim::new(5).workers(workers);
            for _ in 0..3 {
                par.add_shard(|ctx| {
                    let h = ctx.handle();
                    move || (0..4).map(|_| h.rng_u64()).collect::<Vec<u64>>()
                });
            }
            let mut s = par.run();
            (0..3).flat_map(|i| s.take::<Vec<u64>>(i)).collect()
        }
        assert_eq!(draws(1), draws(3));
    }

    /// One test covers every `IMCA_SIM_WORKERS` shape because the process
    /// environment is shared mutable state — splitting the cases into
    /// separate `#[test]`s would race under the parallel test runner.
    #[test]
    fn workers_from_env_is_strict_about_malformed_values() {
        const VAR: &str = "IMCA_SIM_WORKERS";
        // Unset: fall back to the explicit default.
        std::env::remove_var(VAR);
        assert_eq!(ParSim::new(0).workers_from_env(3).workers, 3);
        // Well-formed: the variable wins.
        std::env::set_var(VAR, "2");
        assert_eq!(ParSim::new(0).workers_from_env(3).workers, 2);
        // Malformed or zero: refuse loudly instead of silently running the
        // serial path CI believed it had overridden.
        for bad in ["two", "0", "-1", "1.5", ""] {
            std::env::set_var(VAR, bad);
            let got = catch_unwind(AssertUnwindSafe(|| {
                ParSim::new(0).workers_from_env(3);
            }));
            assert!(got.is_err(), "value {bad:?} must panic");
        }
        std::env::remove_var(VAR);
    }

    #[test]
    fn profiles_cover_workers_and_shards() {
        let mut par = ParSim::new(7).workers(2);
        for _ in 0..3 {
            par.add_shard(|ctx| {
                let h = ctx.handle();
                let h2 = h.clone();
                h.spawn(async move {
                    h2.sleep(SimDuration::micros(5)).await;
                });
                || ()
            });
        }
        let s = par.run();
        assert_eq!(s.workers.len(), 2);
        assert_eq!(s.shard_busy.len(), 3);
        assert!(s.epochs > 0);
        assert!(s.events_per_epoch() > 0.0);
    }

    /// A fleet where shards 0 and 1 ping-pong every lookahead while the
    /// other shards sleep until a far-future timer, then each send one
    /// message to shard 0. Returns every shard's log of (time, value).
    fn mostly_sleeping(workers: usize) -> (Vec<Vec<(u64, u64)>>, ParSummary) {
        const SHARDS: usize = 6;
        let mut par = ParSim::new(3)
            .lookahead(SimDuration::micros(1))
            .workers(workers);
        for _ in 0..SHARDS {
            par.add_shard(move |ctx| {
                let h = ctx.handle();
                let comms = ctx.comms();
                let me = ctx.shard();
                let log = Rc::new(RefCell::new(Vec::new()));
                let log2 = Rc::clone(&log);
                if me < 2 {
                    h.spawn(async move {
                        if me == 0 {
                            comms.send(1, 0u64);
                        }
                        while let Some(env) = comms.recv().await {
                            let at = env.at.0;
                            let v = env.open::<u64>();
                            log2.borrow_mut().push((at, v));
                            if v < 400 {
                                comms.send(1 - me, v + 1);
                            }
                        }
                    });
                } else {
                    let h2 = h.clone();
                    h.spawn(async move {
                        h2.sleep(SimDuration::micros(150 + 7 * me as u64)).await;
                        log2.borrow_mut().push((h2.now().0, me as u64));
                        comms.send(0, 1_000 + me as u64);
                    });
                }
                move || log.borrow().clone()
            });
        }
        let mut summary = par.run();
        let logs = (0..SHARDS)
            .map(|i| summary.take::<Vec<(u64, u64)>>(i))
            .collect();
        (logs, summary)
    }

    #[test]
    fn sleeping_shards_replay_identically_across_worker_counts() {
        let (l1, s1) = mostly_sleeping(1);
        for workers in [2, 8] {
            let (lw, sw) = mostly_sleeping(workers);
            assert_eq!(l1, lw, "outputs diverged at workers={workers}");
            assert_eq!(
                s1.shards, sw.shards,
                "run summaries diverged at workers={workers}"
            );
            assert_eq!(s1.epochs, sw.epochs);
            assert_eq!(s1.windows, sw.windows);
            assert_eq!(s1.shard_windows, sw.shard_windows);
        }
        // The sleepers' messages reached shard 0 mid-chatter.
        assert_eq!(l1[0].iter().filter(|(_, v)| *v >= 1_000).count(), 4);
    }

    #[test]
    fn sleeping_shards_run_no_windows_until_their_timer() {
        let (logs, s) = mostly_sleeping(1);
        let shards = s.shards.len() as u64;
        assert!(
            s.windows < shards * s.epochs,
            "{} windows over {} epochs of {shards} shards: nothing was skipped",
            s.windows,
            s.epochs
        );
        assert_eq!(s.windows, s.shard_windows.iter().sum::<u64>());
        for (sleeper, log) in logs.iter().enumerate().skip(2) {
            // One window at time 0 polls the freshly spawned tasks, the
            // next is the one that fires the timer at T: none between.
            assert_eq!(s.shard_windows[sleeper], 2, "shard {sleeper}");
            assert_eq!(log.len(), 1);
        }
        // The chattering pair has work in nearly every epoch.
        assert!(s.shard_windows[0] + s.shard_windows[1] >= s.epochs);
    }

    /// `n` threads pass `gens` generations of the barrier; the leader of
    /// each bumps a counter that every thread must observe on release.
    /// Panics (instead of hanging the suite) if a wake-up is lost.
    fn stress_barrier(n: usize, spin: bool, gens: u64) {
        use std::sync::atomic::AtomicU64;
        use std::sync::Arc;
        let barrier = Arc::new(EpochBarrier::with_spin(n, spin));
        let count = Arc::new(AtomicU64::new(0));
        let threads: Vec<_> = (0..n)
            .map(|_| {
                let (barrier, count) = (Arc::clone(&barrier), Arc::clone(&count));
                std::thread::spawn(move || {
                    let mut led = 0;
                    for g in 0..gens {
                        led += u64::from(barrier.wait_then(|| {
                            count.fetch_add(1, Ordering::Relaxed);
                        }));
                        assert_eq!(count.load(Ordering::Relaxed), g + 1);
                    }
                    led
                })
            })
            .collect();
        let deadline = Instant::now() + Duration::from_secs(120);
        while !threads.iter().all(|t| t.is_finished()) {
            assert!(
                Instant::now() < deadline,
                "barrier wedged at n={n} spin={spin}: {} of {gens} generations",
                count.load(Ordering::Relaxed)
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        let led: u64 = threads
            .into_iter()
            .map(|t| t.join().expect("barrier participant panicked"))
            .sum();
        assert_eq!(count.load(Ordering::Relaxed), gens);
        assert_eq!(led, gens, "exactly one leader per generation");
    }

    #[test]
    fn epoch_barrier_loses_no_wakeups() {
        // n = 8 oversubscribes a small host: waiters must park and be
        // woken, not just spin past the release.
        for n in [1, 2, 8] {
            for spin in [false, true] {
                stress_barrier(n, spin, 10_000);
            }
        }
    }
}
