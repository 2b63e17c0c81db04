//! The closed-loop client: issue an op, wait for it, check its output,
//! record it, issue the next. Shared by the single-engine and the
//! fleet runners.

use std::cell::{Cell, RefCell};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};
use std::time::Instant;

use imca_core::{CmCache, MetaCache};
use imca_glusterfs::{Fd, FsError, GlusterMount};
use imca_sim::{SimDuration, SimHandle};

use crate::ops::{check_read, fill_block, Class, Op, Shadow};

/// Where the workload's files live.
#[derive(Debug, Clone)]
pub struct Geometry {
    /// Files in the set.
    pub files: u32,
    /// Entries per directory (list windows never cross a directory).
    pub per_dir: u32,
    /// Size of every file, in bytes; writes never change it.
    pub file_bytes: u64,
    /// Unit in which ops address files and contents carry versions. It
    /// need not be the IMCa block size.
    pub block_size: u64,
    /// Blocks per write stripe.
    pub stripe_blocks: u32,
    /// Names probed that never exist.
    pub ghosts: u32,
}

impl Geometry {
    /// Blocks per file (the last may be partial).
    pub fn blocks_per_file(&self) -> u32 {
        self.file_bytes.div_ceil(self.block_size) as u32
    }

    /// Path of file `f`.
    pub fn path(&self, f: u32) -> String {
        format!("/pb/d{:03}/f{:05}", f / self.per_dir, f)
    }

    /// Path of ghost `g`, inside a real directory.
    pub fn ghost_path(&self, g: u32) -> String {
        let dirs = self.files.div_ceil(self.per_dir);
        format!("/pb/d{:03}/ghost{:05}", g % dirs, g)
    }

    /// Version-`version` contents of `blocks` blocks from `block` of
    /// `file`, clipped to the file size.
    pub fn contents(&self, file: u32, block: u32, blocks: u32, version: u32) -> Vec<u8> {
        let mut out = Vec::new();
        for b in block..block + blocks {
            let start = b as u64 * self.block_size;
            let len = self.block_size.min(self.file_bytes.saturating_sub(start));
            fill_block(file, b as u64, version, len as usize, &mut out);
        }
        out
    }
}

/// One timed op, kept only in traced runs.
#[derive(Debug, Clone)]
pub struct Span {
    /// Run-wide op id.
    pub op: u64,
    /// Issuing client.
    pub client: u32,
    /// Latency class.
    pub class: Class,
    /// Virtual start, ns.
    pub start_ns: u64,
    /// Virtual end, ns.
    pub end_ns: u64,
    /// Host ns spent inside the client task's polls during the op.
    pub host_ns: u64,
    /// Whether the op succeeded.
    pub ok: bool,
}

/// What the clients of one engine (or one shard) observed.
#[derive(Debug, Default)]
pub struct Recorder {
    /// Per-class latencies (ns); a failed op records `u64::MAX`, so it
    /// counts against every latency limit.
    pub lat: [Vec<u64>; 3],
    /// Ops issued.
    pub attempted: u64,
    /// Ops that returned an error.
    pub failed: u64,
    /// Ops whose output was wrong.
    pub wrong: u64,
    /// The first few wrong-output descriptions.
    pub wrong_examples: Vec<String>,
    /// Paths looked up by stat-class ops (a list window counts each).
    pub stat_paths: u64,
    /// Per-op spans when tracing.
    pub spans: Option<Vec<Span>>,
    /// Host ns inside client polls during their streams, summed over
    /// clients.
    pub client_poll_ns: u64,
    /// Virtual time the last client finished, ns.
    pub end_ns: u64,
    /// Clients that finished their streams.
    pub finished: usize,
}

impl Recorder {
    /// A recorder that keeps spans when `traced`.
    pub fn new(traced: bool) -> Recorder {
        Recorder {
            spans: traced.then(Vec::new),
            ..Recorder::default()
        }
    }

    fn note_wrong(&mut self, what: String) {
        self.wrong += 1;
        if self.wrong_examples.len() < 5 {
            self.wrong_examples.push(what);
        }
    }

    /// Fold another recorder (a shard's) into this one.
    pub fn merge(&mut self, other: Recorder) {
        for (a, b) in self.lat.iter_mut().zip(other.lat) {
            a.extend(b);
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
        for w in other.wrong_examples {
            if self.wrong_examples.len() < 5 {
                self.wrong_examples.push(w);
            }
        }
        self.stat_paths += other.stat_paths;
        if let (Some(a), Some(b)) = (&mut self.spans, other.spans) {
            a.extend(b);
        }
        self.client_poll_ns += other.client_poll_ns;
        self.end_ns = self.end_ns.max(other.end_ns);
        self.finished += other.finished;
    }
}

/// Host time spent inside one task's polls.
#[derive(Default)]
pub struct PollClock {
    done_ns: Cell<u64>,
    since: Cell<Option<Instant>>,
}

impl PollClock {
    /// Host ns spent in polls so far, including the current one.
    pub fn now_ns(&self) -> u64 {
        self.done_ns.get()
            + self
                .since
                .get()
                .map_or(0, |t| t.elapsed().as_nanos() as u64)
    }
}

/// A future whose polls are timed on the host clock.
pub struct Timed<F> {
    inner: Pin<Box<F>>,
    clock: Rc<PollClock>,
}

impl<F: Future> Timed<F> {
    /// Time `inner`'s polls into `clock`.
    pub fn new(inner: F, clock: Rc<PollClock>) -> Timed<F> {
        Timed {
            inner: Box::pin(inner),
            clock,
        }
    }
}

impl<F: Future> Future for Timed<F> {
    type Output = F::Output;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<F::Output> {
        let t = Instant::now();
        self.clock.since.set(Some(t));
        let r = self.inner.as_mut().poll(cx);
        self.clock
            .done_ns
            .set(self.clock.done_ns.get() + t.elapsed().as_nanos() as u64);
        self.clock.since.set(None);
        r
    }
}

/// What the clients of one engine (or one shard) share.
pub struct Shared {
    /// File layout.
    pub geo: Geometry,
    /// Path of every file.
    pub paths: Vec<String>,
    /// Path of every ghost.
    pub ghost_paths: Vec<String>,
    /// Versions of every stripe.
    pub shadow: RefCell<Shadow>,
    /// Where results go.
    pub rec: RefCell<Recorder>,
    /// Run-wide op id counter.
    pub next_op: Cell<u64>,
}

impl Shared {
    /// Shared state over `geo`, keeping spans when `traced`.
    pub fn new(geo: Geometry, traced: bool) -> Rc<Shared> {
        Rc::new(Shared {
            paths: (0..geo.files).map(|f| geo.path(f)).collect(),
            ghost_paths: (0..geo.ghosts).map(|g| geo.ghost_path(g)).collect(),
            shadow: RefCell::new(Shadow::new(
                geo.files,
                geo.blocks_per_file(),
                geo.stripe_blocks,
            )),
            rec: RefCell::new(Recorder::new(traced)),
            next_op: Cell::new(0),
            geo,
        })
    }
}

/// Everything one closed-loop client needs.
pub struct Client {
    /// Client index (global across shards).
    pub id: u32,
    /// The mount the ops go through.
    pub mount: Rc<GlusterMount>,
    /// The mount's CMCache, for batched list windows.
    pub cm: Option<Rc<CmCache>>,
    /// Open descriptor per file, where this client opened it.
    pub fds: Vec<Option<Fd>>,
    /// Engine handle (virtual clock).
    pub handle: SimHandle,
    /// State shared with the other clients.
    pub shared: Rc<Shared>,
}

/// Entries per batched lookup of a listing (one readdir window).
const LIST_WINDOW: u32 = 16;

enum Outcome {
    Ok,
    Failed,
    Wrong(String),
}

impl Client {
    /// Run `ops` in order, each after the previous one returns. With a
    /// `clock`, per-op host poll time goes into the spans.
    pub async fn run(self, ops: Rc<[Op]>, clock: Option<Rc<PollClock>>) {
        let poll0 = clock.as_ref().map_or(0, |c| c.now_ns());
        for op in ops.iter() {
            let Some(class) = op.class() else {
                if let Op::Think { ns } = op {
                    self.handle.sleep(SimDuration::nanos(*ns)).await;
                }
                continue;
            };
            let id = self.shared.next_op.get();
            self.shared.next_op.set(id + 1);
            let host0 = clock.as_ref().map_or(0, |c| c.now_ns());
            let t0 = self.handle.now();
            let outcome = self.exec(op).await;
            let took = self.handle.now().since(t0).as_nanos();
            let host_ns = clock.as_ref().map_or(0, |c| c.now_ns() - host0);
            let mut rec = self.shared.rec.borrow_mut();
            rec.attempted += 1;
            let ok = matches!(outcome, Outcome::Ok);
            match outcome {
                Outcome::Ok => rec.lat[class as usize].push(took),
                Outcome::Failed => {
                    rec.failed += 1;
                    rec.lat[class as usize].push(u64::MAX);
                }
                Outcome::Wrong(what) => {
                    rec.note_wrong(format!("client {}: {what}", self.id));
                    rec.lat[class as usize].push(took);
                }
            }
            if let Some(spans) = &mut rec.spans {
                spans.push(Span {
                    op: id,
                    client: self.id,
                    class,
                    start_ns: t0.as_nanos(),
                    end_ns: t0.as_nanos() + took,
                    host_ns,
                    ok,
                });
            }
        }
        let mut rec = self.shared.rec.borrow_mut();
        if let Some(c) = clock {
            rec.client_poll_ns += c.now_ns() - poll0;
        }
        rec.end_ns = rec.end_ns.max(self.handle.now().as_nanos());
        rec.finished += 1;
    }

    fn fd(&self, file: u32) -> Fd {
        self.fds[file as usize].expect("op on a file this client never opened")
    }

    async fn exec(&self, op: &Op) -> Outcome {
        let geo = &self.shared.geo;
        match *op {
            Op::Read {
                file,
                block,
                blocks,
            } => {
                let lo = self
                    .shared
                    .shadow
                    .borrow()
                    .committed_range(file, block, blocks);
                let got = self
                    .mount
                    .read(
                        self.fd(file),
                        block as u64 * geo.block_size,
                        blocks as u64 * geo.block_size,
                    )
                    .await;
                let Ok(data) = got else {
                    return Outcome::Failed;
                };
                let hi: Vec<u32> = {
                    let shadow = self.shared.shadow.borrow();
                    (block..block + blocks)
                        .map(|b| shadow.issued(file, b))
                        .collect()
                };
                match check_read(file, block, geo.block_size, &data, &lo, &hi) {
                    Ok(()) => Outcome::Ok,
                    Err(e) => Outcome::Wrong(e),
                }
            }
            Op::Write {
                file,
                block,
                blocks,
            } => {
                let version = self.shared.shadow.borrow_mut().begin_write(file, block);
                let data = geo.contents(file, block, blocks, version);
                let off = block as u64 * geo.block_size;
                match self.mount.write(self.fd(file), off, &data).await {
                    Ok(n) if n == data.len() as u64 => {
                        self.shared
                            .shadow
                            .borrow_mut()
                            .commit_write(file, block, version);
                        Outcome::Ok
                    }
                    Ok(n) => Outcome::Wrong(format!(
                        "write to file {file} at {off} returned {n} of {} bytes",
                        data.len()
                    )),
                    Err(_) => Outcome::Failed,
                }
            }
            Op::Stat { file } => {
                self.shared.rec.borrow_mut().stat_paths += 1;
                match self.mount.stat(&self.shared.paths[file as usize]).await {
                    Ok(st) if st.size == geo.file_bytes => Outcome::Ok,
                    Ok(st) => Outcome::Wrong(format!(
                        "stat of file {file}: size {} != {}",
                        st.size, geo.file_bytes
                    )),
                    Err(FsError::NotFound) => {
                        Outcome::Wrong(format!("stat of file {file}: ENOENT"))
                    }
                    Err(_) => Outcome::Failed,
                }
            }
            Op::Ghost { ghost } => {
                self.shared.rec.borrow_mut().stat_paths += 1;
                match self
                    .mount
                    .stat(&self.shared.ghost_paths[ghost as usize])
                    .await
                {
                    Err(FsError::NotFound) => Outcome::Ok,
                    Ok(_) => Outcome::Wrong(format!("ghost {ghost} exists")),
                    Err(_) => Outcome::Failed,
                }
            }
            Op::List { first, n } => {
                self.shared.rec.borrow_mut().stat_paths += n as u64;
                let cm = self.cm.as_ref().expect("listings need an IMCa mount");
                let mut outcome = Outcome::Ok;
                let mut start = first;
                while start < first + n {
                    let end = (start + LIST_WINDOW).min(first + n);
                    let paths: Vec<String> = (start..end)
                        .map(|f| self.shared.paths[f as usize].clone())
                        .collect();
                    let got = Rc::clone(cm).stat_multi(paths).await;
                    if got.len() != (end - start) as usize {
                        return Outcome::Wrong(format!(
                            "window of {} returned {}",
                            end - start,
                            got.len()
                        ));
                    }
                    for (f, r) in (start..end).zip(&got) {
                        match r.stat {
                            Ok(st) if st.size == geo.file_bytes => {}
                            Ok(st) => {
                                return Outcome::Wrong(format!(
                                    "listed file {f}: size {} != {}",
                                    st.size, geo.file_bytes
                                ))
                            }
                            Err(FsError::NotFound) => {
                                return Outcome::Wrong(format!("listed file {f}: ENOENT"))
                            }
                            Err(_) => outcome = Outcome::Failed,
                        }
                    }
                    start = end;
                }
                outcome
            }
            Op::Think { .. } => unreachable!("think time is not an op"),
        }
    }
}
