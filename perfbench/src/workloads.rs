//! The four workloads: deployment, file set and op streams. README.md
//! records why each exists and which layers it loads.

use imca_core::{
    AdaptiveDeadline, ClusterConfig, Coherence, DegradationLadder, HedgePolicy, ImcaConfig,
    McdCosts, MetaConfig, MetaPolicy, Replication, RetryBudget, RetryPolicy, RewarmLimit,
};
use imca_glusterfs::ServerParams;
use imca_memcached::McConfig;
use imca_sim::SimDuration;
use imca_storage::BackendParams;

use crate::drive::Geometry;
use crate::ops::{exp_ns, permutation, stream_rng, Op, Zipf};

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig 10 shared reads from a warm bank.
    SharedRead,
    /// `ls -l` storm on the lease tier.
    MetaStorm,
    /// Reads and writes over a working set larger than every cache.
    WriteCold,
    /// The overload drive at its knee, on a two-worker fleet.
    OverloadKnee,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::SharedRead,
        Workload::MetaStorm,
        Workload::WriteCold,
        Workload::OverloadKnee,
    ];

    /// The CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SharedRead => "shared-read",
            Workload::MetaStorm => "meta-storm",
            Workload::WriteCold => "write-cold",
            Workload::OverloadKnee => "overload-knee",
        }
    }

    /// Parse a CLI name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The op class whose latency the end-to-end `sim_*_us` metrics
    /// report: the class the workload exists to measure.
    pub fn headline(self) -> crate::ops::Class {
        use crate::ops::Class;
        match self {
            Workload::SharedRead | Workload::OverloadKnee => Class::Read,
            Workload::MetaStorm => Class::Stat,
            Workload::WriteCold => Class::Write,
        }
    }
}

/// A configuration known to cost more than the baseline, used by the
/// sensitivity check. `Base` is what a benchmark run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// The workload as specified.
    Base,
    /// The legacy binary-heap scheduler and hash-map task store.
    Heap,
    /// One bank RPC per block instead of multi-key gets.
    NoBatch,
    /// Delete-then-repush write coherence instead of CAS.
    Purge,
    /// A bank round trip per stat instead of leases.
    BankMeta,
}

impl Variant {
    /// The name the sensitivity check prints.
    pub fn name(self) -> &'static str {
        match self {
            Variant::Base => "base",
            Variant::Heap => "heap",
            Variant::NoBatch => "nobatch",
            Variant::Purge => "purge",
            Variant::BankMeta => "bankmeta",
        }
    }
}

/// Everything a runner needs to set a workload up and drive it.
pub struct Plan {
    /// The deployment.
    pub cfg: ClusterConfig,
    /// The file set.
    pub geo: Geometry,
    /// Per-client op streams.
    pub streams: Vec<Vec<Op>>,
    /// Files each client opens during set-up.
    pub opens: Vec<Vec<u32>>,
    /// Stat every file once after population (seeds the bank's stat
    /// entries).
    pub warm_stats: bool,
}

fn imca(mcds: usize, r: usize) -> ImcaConfig {
    ImcaConfig {
        mcd_count: mcds,
        replication: Replication { factor: r },
        ..ImcaConfig::default()
    }
}

fn apply(variant: Variant, mut cfg: ClusterConfig) -> ClusterConfig {
    let imca = cfg.imca.as_mut().expect("every workload deploys IMCa");
    match variant {
        Variant::Base | Variant::Heap => {}
        Variant::NoBatch => imca.batching = false,
        Variant::Purge => imca.coherence = Coherence::Purge,
        Variant::BankMeta => imca.meta.policy = MetaPolicy::Bank,
    }
    cfg
}

/// Ops per client in each workload's measured phase.
pub fn ops_per_client(w: Workload) -> usize {
    match w {
        Workload::SharedRead => 5_000,
        Workload::MetaStorm => 2_000,
        Workload::WriteCold => 9_000,
        Workload::OverloadKnee => 3_000,
    }
}

/// Build the plan for `w` at `seed`.
pub fn plan(w: Workload, seed: u64, variant: Variant) -> Plan {
    match w {
        Workload::SharedRead => shared_read(seed, variant),
        Workload::MetaStorm => meta_storm(seed, variant),
        Workload::WriteCold => write_cold(seed, variant),
        Workload::OverloadKnee => overload_knee(seed, variant),
    }
}

/// Which blocks are hot belongs to the workload, not to the op stream:
/// the Zipf rank → position permutations use this fixed seed, so every
/// run seed draws its stream over the same hot set.
const LAYOUT_SEED: u64 = 0x1CA;

fn all_files(clients: usize, files: u32) -> Vec<Vec<u32>> {
    (0..clients).map(|_| (0..files).collect()).collect()
}

/// 16 clients read 8 KiB (4 blocks) at Zipf(0.99) block offsets over a
/// 16 MiB shared file set on a warm 4-daemon R=2 bank.
fn shared_read(seed: u64, variant: Variant) -> Plan {
    let clients = 16;
    let geo = Geometry {
        files: 32,
        per_dir: 32,
        file_bytes: 512 << 10,
        block_size: 2048,
        stripe_blocks: 4,
        ghosts: 0,
    };
    let starts = geo.blocks_per_file() - 3;
    let positions = (geo.files * starts) as usize;
    let zipf = Zipf::new(positions, 0.99);
    let perm = permutation(positions, &mut stream_rng(LAYOUT_SEED, 1 << 32));
    let streams = (0..clients)
        .map(|c| {
            let mut rng = stream_rng(seed, c as u64);
            (0..ops_per_client(Workload::SharedRead))
                .map(|_| {
                    let p = perm[zipf.sample(&mut rng)];
                    Op::Read {
                        file: p / starts,
                        block: p % starts,
                        blocks: 4,
                    }
                })
                .collect()
        })
        .collect();
    Plan {
        cfg: apply(variant, ClusterConfig::imca(imca(4, 2))),
        opens: all_files(clients, geo.files),
        geo,
        streams,
        warm_stats: false,
    }
}

/// Mean think time between a meta-storm client's ops: a client lists the
/// same directory again about one lease lifetime (250 ms) later, so its
/// listings find some windows still leased and others expired.
const META_THINK_NS: u64 = 5_000_000;

/// 16 clients over 2048 one-KiB files in 32 directories of 64: `ls -l`
/// of a whole directory (batched stats in windows of 16), single stats,
/// ghost probes and 1% in-place writes, on the lease tier.
fn meta_storm(seed: u64, variant: Variant) -> Plan {
    let clients = 16u32;
    let geo = Geometry {
        files: 2048,
        per_dir: 64,
        file_bytes: 1024,
        block_size: 2048,
        stripe_blocks: 1,
        ghosts: 256,
    };
    let dirs = geo.files / geo.per_dir;
    let zipf = Zipf::new(geo.files as usize, 0.99);
    let perm = permutation(geo.files as usize, &mut stream_rng(LAYOUT_SEED, 1 << 32));
    let streams = (0..clients)
        .map(|c| {
            let mut rng = stream_rng(seed, c as u64);
            let own = geo.files / clients;
            let mut ops = Vec::new();
            for _ in 0..ops_per_client(Workload::MetaStorm) {
                ops.push(Op::Think {
                    ns: exp_ns(&mut rng, META_THINK_NS),
                });
                let roll: f64 = rand::Rng::gen(&mut rng);
                ops.push(if roll < 0.70 {
                    let d = rand::Rng::gen_range(&mut rng, 0..dirs);
                    Op::List {
                        first: d * geo.per_dir,
                        n: geo.per_dir,
                    }
                } else if roll < 0.85 {
                    Op::Stat {
                        file: perm[zipf.sample(&mut rng)],
                    }
                } else if roll < 0.99 {
                    Op::Ghost {
                        ghost: rand::Rng::gen_range(&mut rng, 0..geo.ghosts),
                    }
                } else {
                    let k = rand::Rng::gen_range(&mut rng, 0..own);
                    Op::Write {
                        file: k * clients + c,
                        block: 0,
                        blocks: 1,
                    }
                });
            }
            ops
        })
        .collect();
    let opens = (0..clients)
        .map(|c| (0..geo.files).filter(|f| f % clients == c).collect())
        .collect();
    let cfg = ClusterConfig::imca(ImcaConfig {
        meta: MetaConfig::lease(),
        ..imca(4, 2)
    });
    Plan {
        cfg: apply(variant, cfg),
        geo,
        streams,
        opens,
        warm_stats: true,
    }
}

/// 8 clients: 70% 8 KiB reads, 30% 4 KiB writes to their own stripes,
/// Zipf(0.8), over 32 MiB — 4× the server page cache and twice what the
/// R=2 bank holds — with CAS coherence.
fn write_cold(seed: u64, variant: Variant) -> Plan {
    let clients = 8u32;
    let geo = Geometry {
        files: 64,
        per_dir: 64,
        file_bytes: 512 << 10,
        block_size: 4096,
        stripe_blocks: 1,
        ghosts: 0,
    };
    let bpf = geo.blocks_per_file();
    let starts = bpf - 1;
    let positions = (geo.files * starts) as usize;
    let read_zipf = Zipf::new(positions, 0.8);
    let read_perm = permutation(positions, &mut stream_rng(LAYOUT_SEED, 1 << 32));
    let stripes = geo.files * (bpf / geo.stripe_blocks);
    let own = (stripes / clients) as usize;
    let write_zipf = Zipf::new(own, 0.8);
    let streams = (0..clients)
        .map(|c| {
            let mut rng = stream_rng(seed, c as u64);
            let own_perm = permutation(own, &mut stream_rng(LAYOUT_SEED, (1 << 33) + c as u64));
            (0..ops_per_client(Workload::WriteCold))
                .map(|_| {
                    let roll: f64 = rand::Rng::gen(&mut rng);
                    if roll < 0.7 {
                        let p = read_perm[read_zipf.sample(&mut rng)];
                        Op::Read {
                            file: p / starts,
                            block: p % starts,
                            blocks: 2,
                        }
                    } else {
                        // Stripe s belongs to client s % clients.
                        let s = own_perm[write_zipf.sample(&mut rng)] * clients + c;
                        let per_file = bpf / geo.stripe_blocks;
                        Op::Write {
                            file: s / per_file,
                            block: (s % per_file) * geo.stripe_blocks,
                            blocks: geo.stripe_blocks,
                        }
                    }
                })
                .collect()
        })
        .collect();
    let cfg = ClusterConfig {
        backend: BackendParams::paper_server().with_cache_bytes(8 << 20),
        ..ClusterConfig::imca(ImcaConfig {
            // A 4 KiB write covers half an 8 KiB block: CAS splices it
            // into the cached copies, while purge-and-repush must re-read
            // the whole block, whose other half may have left the page
            // cache.
            block_size: 8192,
            coherence: Coherence::Cas,
            mcd_config: McConfig::with_mem_limit(32 << 20),
            ..imca(4, 2)
        })
    };
    Plan {
        cfg: apply(variant, cfg),
        opens: all_files(clients as usize, geo.files),
        geo,
        streams,
        warm_stats: false,
    }
}

/// Readers in the overload drive.
pub const OVERLOAD_READERS: usize = 12;

/// The DESIGN.md §8 overload drive at its knee: 12 readers with 10 ms
/// think time, one block per read, over two hot files on a 2-daemon
/// 5 ms/GET bank at R=2 in front of an 8 ms/fop single-threaded server,
/// with the full protection profile on.
fn overload_knee(seed: u64, variant: Variant) -> Plan {
    let geo = Geometry {
        files: 2,
        per_dir: 2,
        file_bytes: 24 * 2048,
        block_size: 2048,
        stripe_blocks: 1,
        ghosts: 0,
    };
    let think_ns = SimDuration::millis(10).as_nanos();
    let streams = (0..OVERLOAD_READERS)
        .map(|c| {
            let mut rng = stream_rng(seed, c as u64);
            let mut ops = Vec::new();
            for _ in 0..ops_per_client(Workload::OverloadKnee) {
                ops.push(Op::Think {
                    ns: exp_ns(&mut rng, think_ns),
                });
                ops.push(Op::Read {
                    file: rand::Rng::gen_range(&mut rng, 0..geo.files),
                    block: rand::Rng::gen_range(&mut rng, 0..geo.blocks_per_file()),
                    blocks: 1,
                });
            }
            ops
        })
        .collect();
    let deadline = SimDuration::millis(50);
    let retry = RetryPolicy {
        deadline,
        circuit_cooldown: SimDuration::millis(20),
        adaptive: Some(AdaptiveDeadline {
            multiplier: 3.0,
            min: SimDuration::millis(1),
            max: deadline,
            warmup: 16,
        }),
        retry_budget: Some(RetryBudget {
            refill_per_sec: 10.0,
            burst: 10.0,
        }),
        hedge: Some(HedgePolicy {
            min_delay: SimDuration::micros(500),
            max_delay: SimDuration::millis(5),
            warmup: 16,
        }),
        ..RetryPolicy::default()
    };
    // The updater's pipeline syncs wait behind the whole 5 ms/op queue;
    // a read-tuned deadline would quarantine the bank during warm-up.
    let server_retry = RetryPolicy {
        deadline: SimDuration::secs(5),
        retries: 0,
        circuit_cooldown: SimDuration::secs(1),
        ..RetryPolicy::default()
    };
    let cfg = ClusterConfig {
        server_params: ServerParams {
            fop_cpu: SimDuration::millis(8),
            io_threads: 1,
        },
        ..ClusterConfig::imca(ImcaConfig {
            mcd_config: McConfig::with_mem_limit(64 << 20),
            mcd_costs: McdCosts {
                per_op: SimDuration::millis(5),
                queue_limit: Some(4),
                ..McdCosts::default()
            },
            retry,
            server_retry: Some(server_retry),
            ladder: Some(DegradationLadder {
                readmit_probability: 0.1,
            }),
            rewarm: Some(RewarmLimit {
                rate_per_sec: 20.0,
                burst: 8.0,
            }),
            ..imca(2, 2)
        })
    };
    Plan {
        cfg: apply(variant, cfg),
        opens: all_files(OVERLOAD_READERS, geo.files),
        geo,
        streams,
        warm_stats: false,
    }
}
