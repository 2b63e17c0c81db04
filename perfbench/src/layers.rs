//! Per-layer metrics, from three sources outside the program: deltas of
//! its `metrics()` registry over the measured phase, engine and fleet
//! counters, and the host timers and spans the benchmark records around
//! its own calls. Virtual time per layer comes from the registry
//! histograms' exact `sum` and `count`, never from their quantiles.

use imca_metrics::{MetricValue, Snapshot};

use crate::ops::Class;
use crate::quantile::{quantile, P50, P99, P999};
use crate::runner::Rep;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Base counts or sample counts behind the value.
    pub base: String,
}

impl Metric {
    fn new(name: &str, value: f64, unit: &'static str, base: impl Into<String>) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
            base: base.into(),
        }
    }
}

/// `name` is `<prefix>.<index>.<suffix>`.
fn indexed(name: &str, prefix: &str, suffix: &str) -> bool {
    name.strip_prefix(prefix)
        .and_then(|r| r.strip_prefix('.'))
        .and_then(|r| r.split_once('.'))
        .is_some_and(|(i, rest)| {
            !i.is_empty() && i.bytes().all(|b| b.is_ascii_digit()) && rest == suffix
        })
}

fn counters(s: &Snapshot, pick: impl Fn(&str) -> bool) -> u64 {
    s.metrics
        .iter()
        .filter(|(k, _)| pick(k))
        .map(|(_, v)| match v {
            MetricValue::Counter(c) => *c,
            _ => 0,
        })
        .sum()
}

fn hists(s: &Snapshot, pick: impl Fn(&str) -> bool) -> (u64, u64) {
    s.metrics
        .iter()
        .filter(|(k, _)| pick(k))
        .fold((0, 0), |(c, t), (_, v)| match v {
            MetricValue::Histogram(h) => (c + h.count, t + h.sum),
            _ => (c, t),
        })
}

/// Registry deltas over the measured phase.
struct Delta<'a> {
    before: &'a Snapshot,
    after: &'a Snapshot,
}

impl Delta<'_> {
    fn c(&self, pick: impl Fn(&str) -> bool + Copy) -> u64 {
        counters(self.after, pick).saturating_sub(counters(self.before, pick))
    }

    fn exact(&self, name: &str) -> u64 {
        self.c(|k| k == name)
    }

    fn each(&self, prefix: &str, suffix: &str) -> u64 {
        self.c(|k| indexed(k, prefix, suffix))
    }

    /// (count, sum) of the histograms picked.
    fn h(&self, pick: impl Fn(&str) -> bool + Copy) -> (u64, u64) {
        let (c1, s1) = hists(self.after, pick);
        let (c0, s0) = hists(self.before, pick);
        (c1.saturating_sub(c0), s1.saturating_sub(s0))
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Mean in µs of a (count, sum-ns) pair, with its base.
fn mean_us(name: &str, (count, sum): (u64, u64)) -> Metric {
    Metric::new(
        name,
        ratio(sum, count) / 1e3,
        "us",
        format!("{count} samples"),
    )
}

fn per(name: &str, num: u64, den: u64, what: &str) -> Metric {
    Metric::new(
        name,
        ratio(num, den),
        "count",
        format!("{num} / {den} {what}"),
    )
}

fn share(name: &str, num: u64, den: u64, what: &str) -> Metric {
    Metric::new(
        name,
        ratio(num, den),
        "ratio",
        format!("{num} / {den} {what}"),
    )
}

fn count(name: &str, n: u64) -> Metric {
    Metric::new(name, n as f64, "count", "")
}

/// Median of `xs` (upper median for even lengths); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Quantile of one latency class in µs, or `None` when too few samples.
pub fn class_quantile_us(rep: &Rep, class: Class, q: crate::quantile::Q) -> Option<f64> {
    quantile(&rep.rec.lat[class as usize], q).map(|ns| ns as f64 / 1e3)
}

/// The per-layer table. `traced` are the traced repetitions (identical
/// in simulated outcome); `untraced` the repetitions run without
/// tracing in the same process.
pub fn per_layer(traced: &[&Rep], untraced: &[&Rep]) -> Vec<Metric> {
    let rep = traced[0];
    let d = Delta {
        before: &rep.before,
        after: &rep.after,
    };
    let ops = rep.rec.attempted;
    let n = |c: Class| rep.rec.lat[c as usize].len() as u64;
    let (reads, writes) = (n(Class::Read), n(Class::Write));
    let mut m = Vec::new();

    // sim engine
    m.push(per("sim.events_per_op", rep.events, ops, "events / ops"));
    m.push(per(
        "sim.tasks_per_op",
        rep.tasks,
        ops,
        "tasks spawned / ops",
    ));
    let ns_per_event: Vec<f64> = untraced
        .iter()
        .map(|r| r.measured.as_nanos() as f64 / r.events.max(1) as f64)
        .collect();
    m.push(Metric::new(
        "sim.host_ns_per_event",
        median(&ns_per_event),
        "ns",
        format!("median of {} untraced repetitions", untraced.len()),
    ));
    m.push(per(
        "sim.allocs_per_op",
        rep.allocs.0,
        ops,
        "allocations / ops",
    ));
    m.push(per(
        "sim.alloc_bytes_per_op",
        rep.allocs.1,
        ops,
        "bytes / ops",
    ));

    // client stack vs the rest, on the host clock
    let client: Vec<f64> = traced
        .iter()
        .map(|r| r.rec.client_poll_ns as f64 / ops as f64)
        .collect();
    let other: Vec<f64> = traced
        .iter()
        .map(|r| (r.measured.as_nanos() as f64 - r.rec.client_poll_ns as f64) / ops as f64)
        .collect();
    let reps_note = format!("median of {} traced repetitions", traced.len());
    m.push(Metric::new(
        "host.client_poll_ns_per_op",
        median(&client),
        "ns",
        reps_note.clone(),
    ));
    m.push(Metric::new(
        "host.other_ns_per_op",
        median(&other),
        "ns",
        reps_note,
    ));

    // sim::shard
    match &rep.fleet {
        Some(f) => {
            m.push(per(
                "sim.shard.epochs_per_op",
                f.epochs,
                ops,
                "epochs / ops (whole run)",
            ));
            m.push(Metric::new(
                "sim.shard.events_per_epoch",
                ratio(f.events, f.epochs),
                "count",
                format!("{} / {} events / epochs (whole run)", f.events, f.epochs),
            ));
            let idle: Vec<f64> = traced
                .iter()
                .filter_map(|r| r.fleet.as_ref())
                .map(|f| {
                    let idle: u64 = f.worker_idle_ns.iter().sum();
                    let busy: u64 = f.worker_busy_ns.iter().sum();
                    ratio(idle, idle + busy)
                })
                .collect();
            m.push(Metric::new(
                "sim.shard.worker_idle_frac",
                median(&idle),
                "ratio",
                format!("{} workers, {} shards", f.workers, f.shards),
            ));
        }
        None => {
            for (name, unit) in [
                ("sim.shard.epochs_per_op", "count"),
                ("sim.shard.events_per_epoch", "count"),
                ("sim.shard.worker_idle_frac", "ratio"),
            ] {
                m.push(Metric::new(name, 0.0, unit, "single engine"));
            }
        }
    }

    // fabric
    m.push(per(
        "fabric.msgs_per_op",
        d.each("fabric.nic", "msgs_tx"),
        ops,
        "messages / ops",
    ));
    m.push(per(
        "fabric.bytes_per_op",
        d.each("fabric.nic", "bytes_tx"),
        ops,
        "bytes / ops",
    ));
    let rpc = d.h(|k| k == "fabric.rpc.call_ns");
    m.push(per("fabric.rpc.calls_per_op", rpc.0, ops, "calls / ops"));
    m.push(mean_us("fabric.rpc.call_us_mean", rpc));

    // imca.cmcache data path
    let hits = d.each("cmcache", "read_hits");
    let misses = d.each("cmcache", "read_misses");
    m.push(share(
        "imca.cmcache.read_hit_ratio",
        hits,
        hits + misses,
        "bank-served / CMCache reads",
    ));
    m.push(mean_us(
        "imca.cmcache.read_us_mean",
        d.h(|k| indexed(k, "cmcache", "read_ns")),
    ));
    m.push(per(
        "imca.cmcache.degraded_reads_per_op",
        d.each("cmcache", "degraded_reads"),
        ops,
        "degraded reads / ops",
    ));

    // imca.meta
    let lease = d.each("cmcache", "meta.lease_hits");
    let bank = d.each("cmcache", "meta.bank_hits");
    let fills = d.each("cmcache", "meta.backend_fills");
    let neg = d.each("cmcache", "meta.negative_hits");
    m.push(share(
        "imca.meta.lease_hit_ratio",
        lease,
        lease + bank + fills + neg,
        "lease / all lookups",
    ));
    let paths = rep.rec.stat_paths;
    m.push(per(
        "imca.meta.bank_hits_per_stat",
        bank,
        paths,
        "bank hits / paths statted",
    ));
    m.push(per(
        "imca.meta.backend_fills_per_stat",
        fills,
        paths,
        "backend fills / paths statted",
    ));
    m.push(per(
        "imca.meta.negative_hits_per_stat",
        neg,
        paths,
        "negative hits / paths statted",
    ));
    m.push(per(
        "imca.meta.revocations_per_write",
        d.exact("leases.revocations_sent"),
        writes,
        "revocations / writes",
    ));
    m.push(mean_us(
        "imca.cmcache.stat_us_mean",
        d.h(|k| indexed(k, "cmcache", "stat_ns")),
    ));

    // imca.mcd: the client-side BankClient
    let gets = d.each("cmcache", "bank.gets");
    let multi = d.each("cmcache", "bank.multi_gets");
    let (_, multi_keys) = d.h(|k| indexed(k, "cmcache", "bank.keys_per_multi_get"));
    let rounds = multi + gets.saturating_sub(multi_keys);
    m.push(per(
        "imca.mcd.rounds_per_read",
        rounds,
        reads,
        "bank rounds / reads",
    ));
    m.push(per(
        "imca.mcd.keys_per_round",
        gets,
        rounds,
        "keys / bank rounds",
    ));
    m.push(mean_us(
        "imca.mcd.get_us_mean",
        d.h(|k| indexed(k, "cmcache", "bank.get_ns")),
    ));
    let per_daemon: Vec<u64> = (0..)
        .map_while(|i| {
            let name = format!("bank.per_daemon.{i}.gets");
            rep.after
                .counter(&name)
                .map(|a| a - rep.before.counter(&name).unwrap_or(0))
        })
        .collect();
    let max = per_daemon.iter().copied().max().unwrap_or(0);
    let total: u64 = per_daemon.iter().sum();
    m.push(Metric::new(
        "imca.mcd.daemon_imbalance",
        ratio(max * per_daemon.len() as u64, total),
        "ratio",
        format!(
            "max {max} / mean of {total} gets over {} daemons",
            per_daemon.len()
        ),
    ));
    m.push(count(
        "imca.mcd.coalesced_gets",
        d.each("cmcache", "bank.coalesced_gets"),
    ));

    // imca.mcd protection
    let hedged = d.each("cmcache", "bank.hedged_gets");
    m.push(per(
        "imca.mcd.hedged_gets_per_op",
        hedged,
        ops,
        "hedges / ops",
    ));
    m.push(share(
        "imca.mcd.hedge_win_ratio",
        d.each("cmcache", "bank.hedge_wins"),
        hedged,
        "wins / hedges",
    ));
    m.push(per(
        "imca.mcd.retries_per_op",
        d.each("cmcache", "bank.retries"),
        ops,
        "retries / ops",
    ));
    m.push(count(
        "imca.mcd.retry_budget_exhausted",
        d.each("cmcache", "bank.retry_budget_exhausted"),
    ));
    m.push(per(
        "imca.mcd.busy_sheds_per_op",
        d.each("cmcache", "bank.busy_sheds"),
        ops,
        "busy replies / ops",
    ));
    m.push(count(
        "imca.mcd.circuit_opens",
        d.each("cmcache", "bank.circuit_opens"),
    ));

    // memcached daemons
    m.push(per(
        "memcached.requests_per_op",
        d.each("bank.mcd", "requests"),
        ops,
        "requests / ops",
    ));
    m.push(mean_us(
        "memcached.service_us_mean",
        d.h(|k| indexed(k, "bank.mcd", "service_ns")),
    ));
    let peak = rep
        .after
        .metrics
        .iter()
        .filter(|(k, _)| indexed(k, "bank.mcd", "queue_peak"))
        .filter_map(|(_, v)| match v {
            MetricValue::Gauge(g) => Some(*g),
            _ => None,
        })
        .max()
        .unwrap_or(0);
    m.push(Metric::new(
        "memcached.queue_peak",
        peak as f64,
        "count",
        "deepest daemon queue over the run",
    ));
    m.push(per(
        "memcached.sheds_per_op",
        d.each("bank.mcd", "sheds"),
        ops,
        "sheds / ops",
    ));
    m.push(share(
        "memcached.get_hit_ratio",
        d.each("bank.mcd", "store.get_hits"),
        d.each("bank.mcd", "store.cmd_get"),
        "hits / gets",
    ));
    m.push(count(
        "memcached.evictions",
        d.each("bank.mcd", "store.evictions"),
    ));

    // imca.smcache
    let sm = |s: &str| d.exact(&format!("smcache.{s}"));
    m.push(per(
        "imca.smcache.blocks_pushed_per_write",
        sm("blocks_pushed"),
        writes,
        "blocks pushed (fills included) / writes",
    ));
    let bank_ops = sm("bank.gets") + sm("bank.sets") + sm("bank.deletes") + sm("bank.cas_ops");
    m.push(per(
        "imca.smcache.bank_ops_per_write",
        bank_ops,
        writes,
        "SMCache bank commands (fills included) / writes",
    ));
    m.push(per(
        "imca.smcache.cas_replacements_per_write",
        sm("cas_replacements"),
        writes,
        "CAS replacements / writes",
    ));
    m.push(count("imca.smcache.cas_conflicts", sm("cas_conflicts")));
    m.push(count(
        "imca.smcache.cas_fallback_purges",
        sm("cas_fallback_purges"),
    ));
    m.push(per(
        "imca.smcache.purges_per_op",
        sm("purges"),
        ops,
        "purges / ops",
    ));
    m.push(count("imca.smcache.dropped_pushes", sm("dropped_pushes")));
    m.push(per(
        "imca.smcache.rewarm_suppressed_per_op",
        sm("rewarm_suppressed"),
        ops,
        "suppressed fills / ops",
    ));

    // glusterfs posix
    m.push(per(
        "glusterfs.posix.fops_per_op",
        d.c(|k| k.starts_with("glusterfs.posix.fop.")),
        ops,
        "posix fops / ops",
    ));
    m.push(mean_us(
        "glusterfs.posix.fop_us_mean",
        d.h(|k| k == "glusterfs.posix.fop_ns"),
    ));

    // storage
    let pc_hits = d.exact("storage.pagecache.hits");
    let pc_misses = d.exact("storage.pagecache.misses");
    m.push(share(
        "storage.pagecache.hit_ratio",
        pc_hits,
        pc_hits + pc_misses,
        "page hits / lookups",
    ));
    m.push(per(
        "storage.pagecache.evictions_per_op",
        d.exact("storage.pagecache.evictions"),
        ops,
        "evictions / ops",
    ));
    let disk = d.h(|k| indexed(k, "storage.disk", "access_ns"));
    m.push(per(
        "storage.disk.accesses_per_op",
        disk.0,
        ops,
        "disk accesses / ops",
    ));
    m.push(mean_us("storage.disk.access_us_mean", disk));
    m.push(share(
        "storage.disk.sequential_ratio",
        d.each("storage.disk", "sequential_hits"),
        disk.0,
        "sequential / accesses",
    ));

    // every op class, exact quantiles (0 = too few samples)
    for class in Class::ALL {
        let samples = rep.rec.lat[class as usize].len();
        for (q, label) in [(P50, "p50"), (P99, "p99"), (P999, "p999")] {
            m.push(Metric::new(
                &format!("ops.{}_{label}_us", class.name()),
                class_quantile_us(rep, class, q).unwrap_or(0.0),
                "us",
                format!("{samples} samples"),
            ));
        }
        m.push(count(
            &format!("ops.{}_count", class.name()),
            samples as u64,
        ));
    }
    m.push(share(
        "ops.error_rate",
        rep.rec.failed,
        ops,
        "failed / attempted",
    ));
    let kops = |rs: &[&Rep]| {
        median(
            &rs.iter()
                .map(|r| r.rec.attempted as f64 / r.measured.as_secs_f64())
                .collect::<Vec<_>>(),
        )
    };
    let (plain, with_trace) = (kops(untraced), kops(traced));
    m.push(Metric::new(
        "trace.host_kops_overhead",
        plain / with_trace - 1.0,
        "ratio",
        format!(
            "{:.3} untraced / {:.3} traced kops/s, minus 1",
            plain / 1e3,
            with_trace / 1e3
        ),
    ));

    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexed_names_match_only_their_suffix() {
        assert!(indexed("cmcache.3.read_hits", "cmcache", "read_hits"));
        assert!(indexed("cmcache.12.bank.gets", "cmcache", "bank.gets"));
        assert!(!indexed("cmcache.3.bank.read_hits", "cmcache", "read_hits"));
        assert!(!indexed("cmcache.x.read_hits", "cmcache", "read_hits"));
        assert!(!indexed("smcache.bank.gets", "cmcache", "bank.gets"));
        assert!(indexed(
            "bank.mcd.0.store.get_hits",
            "bank.mcd",
            "store.get_hits"
        ));
    }
}
