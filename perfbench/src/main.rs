//! Benchmark of the simulated IMCa stack and of the simulator running it.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload shared-read --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One run repeats the workload — a fresh deployment, set-up, then the
//! measured phase — until `--seconds` have passed, and reports medians
//! over the repetitions. Every repetition of a seed must replay the same
//! simulated outcome. `--trace 0` prints the end-to-end metrics; `--trace
//! 1` alternates untraced and traced repetitions and prints the per-layer
//! metrics. The last line of standard output is the JSON result. See
//! README.md for the workloads and the checks (`--check`).

mod alloc;
mod calib;
mod check;
mod drive;
mod layers;
mod ops;
mod quantile;
mod runner;
mod workloads;

use std::collections::hash_map::DefaultHasher;
use std::fs;
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use imca_metrics::json::Json;
use imca_sim::Scheduler;

use crate::layers::{class_quantile_us, median, per_layer, Metric};
use crate::quantile::{beyond, P50, P99, P999};
use crate::runner::Rep;
use crate::workloads::{plan, Variant, Workload};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Fewest repetitions in one run (the set-up time is their median).
const MIN_REPS: usize = 3;
/// Most repetitions in one run.
const MAX_REPS: usize = 40;
/// ParSim worker threads for `overload-knee`. One: with two workers on
/// a two-core host the fleet's wall time follows the scheduling of its
/// epoch barriers, which other load on the host swings by more than 2×
/// between repetitions (README.md). `--workers 2` measures it anyway.
const DEFAULT_WORKERS: usize = 1;

/// Parsed command line.
pub struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    workers: usize,
    out: PathBuf,
}

const USAGE: &str =
    "usage: imca-perfbench --workload <shared-read|meta-storm|write-cold|overload-knee> \
--seed <n> --seconds <n> --trace <0|1> [--workers <n>] [--out <dir>]\n       imca-perfbench --check <determinism|sensitivity>";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut workers = DEFAULT_WORKERS;
    let mut out = PathBuf::from("perfbench/out");
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&s) {
                    return Err("--seconds must be 1..=600".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, got {v:?}")),
                })
            }
            "--workers" => {
                workers = value()?
                    .parse::<usize>()
                    .ok()
                    .filter(|w| (1..=64).contains(w))
                    .ok_or("--workers must be 1..=64")?;
            }
            "--out" => out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        workers,
        out,
    })
}

/// Run one repetition of `w`.
pub fn run_rep(w: Workload, seed: u64, variant: Variant, workers: usize, traced: bool) -> Rep {
    let plan = plan(w, seed, variant);
    let scheduler = match variant {
        Variant::Heap => Scheduler::Heap,
        _ => Scheduler::default(),
    };
    let before = calib::ns_per_iter(calib::ITERS);
    let mut rep = match w {
        Workload::OverloadKnee => runner::run_fleet(&plan, seed, scheduler, workers, traced),
        _ => runner::run_single(&plan, seed, scheduler, traced),
    };
    rep.setup_calib_ns = before;
    rep.peak_rss_mb = peak_rss_mb().unwrap_or(0.0);
    rep
}

/// A hash of everything simulated in a repetition: every latency, the
/// op counts, the virtual duration, the measured-phase event count and
/// the registry before and after. Host timings are excluded.
pub fn fingerprint(rep: &Rep) -> u64 {
    let mut h = DefaultHasher::new();
    rep.rec.lat.hash(&mut h);
    (
        rep.rec.attempted,
        rep.rec.failed,
        rep.rec.wrong,
        rep.rec.stat_paths,
    )
        .hash(&mut h);
    (rep.sim_ns, rep.events).hash(&mut h);
    rep.before.to_json().hash(&mut h);
    rep.after.to_json().hash(&mut h);
    h.finish()
}

/// Peak resident set of this process, MB.
fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The end-to-end metrics of a run, from its repetitions in order. An
/// error when the workload produced too few samples of its headline
/// class for a quantile.
pub fn end_to_end(w: Workload, reps: &[&Rep]) -> Result<Vec<Metric>, String> {
    let rep = reps[0];
    let class = w.headline();
    let samples = rep.rec.lat[class as usize].len() as u64;
    // Only ops that succeeded count as work done.
    let done = |r: &Rep| (r.rec.attempted - r.rec.failed) as f64;
    // Host seconds at reference speed: each repetition's wall time scaled
    // by how fast the calibration kernel ran around it.
    let speed = |calib_ns: f64| calib::REF_NS_PER_ITER / calib_ns;
    let kops: Vec<f64> = reps
        .iter()
        .map(|r| done(r) / (r.measured.as_secs_f64() * speed(r.calib_ns)) / 1e3)
        .collect();
    let raw_kops: Vec<f64> = reps
        .iter()
        .map(|r| done(r) / r.measured.as_secs_f64() / 1e3)
        .collect();
    let setup: Vec<f64> = reps
        .iter()
        .map(|r| r.setup.as_secs_f64() * speed(r.setup_calib_ns))
        .collect();
    let raw_setup: Vec<f64> = reps.iter().map(|r| r.setup.as_secs_f64()).collect();
    let calib: Vec<f64> = reps.iter().map(|r| r.calib_ns).collect();
    let mut m = vec![
        Metric {
            name: "host_kops".into(),
            value: median(&kops),
            unit: "kops/s",
            base: format!(
                "median of {} repetitions of {} successful ops; wall-clock median {:.3}, calibration {:.1} ns/iter",
                reps.len(),
                done(rep),
                median(&raw_kops),
                median(&calib)
            ),
        },
        Metric {
            name: "setup_s".into(),
            value: median(&setup),
            unit: "s",
            base: format!(
                "median of {} set-ups; wall-clock median {:.4}",
                reps.len(),
                median(&raw_setup)
            ),
        },
        Metric {
            name: "peak_rss_mb".into(),
            value: Some(rep.peak_rss_mb)
                .filter(|&mb| mb > 0.0)
                .ok_or("cannot read VmHWM")?,
            unit: "MB",
            base: "VmHWM after the first repetition".into(),
        },
        Metric {
            name: "sim_goodput_kops".into(),
            value: done(rep) / (rep.sim_ns.max(1) as f64 / 1e9) / 1e3,
            unit: "kops/s",
            base: format!(
                "{} successful ops in {:.3} simulated ms",
                done(rep),
                rep.sim_ns as f64 / 1e6
            ),
        },
    ];
    let lat = &rep.rec.lat[class as usize];
    let median = class_quantile_us(rep, class, P50).unwrap_or(0.0);
    m.push(Metric {
        name: "sim_mean_us".into(),
        value: lat.iter().map(|&ns| ns as f64).sum::<f64>() / samples.max(1) as f64 / 1e3,
        unit: "us",
        base: format!("{} ops, n={samples}, median {median:.3} us", class.name()),
    });
    for (q, label) in [(P99, "p99"), (P999, "p999")] {
        let v = class_quantile_us(rep, class, q).ok_or_else(|| {
            format!(
                "{}: {samples} {} samples leave fewer than 10 beyond {label}",
                w.name(),
                class.name()
            )
        })?;
        m.push(Metric {
            name: format!("sim_{label}_us"),
            value: v,
            unit: "us",
            base: format!(
                "{} ops, n={samples}, {} beyond",
                class.name(),
                beyond(q, samples)
            ),
        });
    }
    Ok(m)
}

/// A finished run.
pub struct RunResult {
    /// Every repetition, in order.
    pub reps: Vec<Rep>,
    /// Which repetitions were traced.
    pub traced: Vec<bool>,
    /// Correctness problems (failed ops, wrong bytes, replay mismatch,
    /// set-up).
    pub problems: Vec<String>,
}

/// Repeat `w` until `seconds` have passed (at least [`MIN_REPS`]
/// repetitions; with `trace`, alternating untraced and traced, at least
/// two of each).
pub fn run(args: &Args) -> RunResult {
    let t0 = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let min_reps = if args.trace { 4 } else { MIN_REPS };
    let mut reps = Vec::new();
    let mut traced = Vec::new();
    let mut problems = Vec::new();
    let mut first = None;
    while reps.len() < MAX_REPS && (reps.len() < min_reps || t0.elapsed() < budget) {
        let tr = args.trace && reps.len() % 2 == 1;
        let rep = run_rep(args.workload, args.seed, Variant::Base, args.workers, tr);
        let fp = fingerprint(&rep);
        match first {
            None => first = Some(fp),
            Some(f) if f != fp => problems.push(format!(
                "repetition {} ({}) replayed a different simulated outcome",
                reps.len(),
                if tr { "traced" } else { "untraced" }
            )),
            Some(_) => {}
        }
        for e in &rep.setup_errors {
            problems.push(format!("set-up: {e}"));
        }
        if rep.rec.failed > 0 {
            problems.push(format!(
                "{} of {} ops failed",
                rep.rec.failed, rep.rec.attempted
            ));
        }
        if rep.rec.wrong > 0 {
            problems.push(format!(
                "{} wrong outputs, e.g. {}",
                rep.rec.wrong,
                rep.rec.wrong_examples.join("; ")
            ));
        }
        reps.push(rep);
        traced.push(tr);
        if !problems.is_empty() {
            break;
        }
    }
    RunResult {
        reps,
        traced,
        problems,
    }
}

fn metrics_json(ms: &[Metric]) -> Json {
    Json::Obj(
        ms.iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::Obj(vec![
                        ("value".into(), Json::Float(m.value)),
                        ("unit".into(), Json::Str(m.unit.into())),
                    ]),
                )
            })
            .collect(),
    )
}

fn print_table(title: &str, ms: &[Metric]) {
    println!("{title}");
    for m in ms {
        println!(
            "  {:<40} {:>16.6} {:<7} {}",
            m.name, m.value, m.unit, m.base
        );
    }
}

/// Write the traced run's artifacts: per-op spans, registry snapshots,
/// allocation counts and the fleet profile.
fn write_trace(dir: &Path, stem: &str, rep: &Rep) -> std::io::Result<()> {
    fs::create_dir_all(dir)?;
    let mut csv = String::from("op,client,class,start_ns,end_ns,host_poll_ns,ok\n");
    for s in rep.rec.spans.iter().flatten() {
        csv.push_str(&format!(
            "{},{},{},{},{},{},{}\n",
            s.op,
            s.client,
            s.class.name(),
            s.start_ns,
            s.end_ns,
            s.host_ns,
            s.ok as u8
        ));
    }
    fs::write(dir.join(format!("{stem}.spans.csv")), csv)?;
    let mut doc = vec![
        ("registry_before".into(), rep.before.to_json_value()),
        ("registry_after".into(), rep.after.to_json_value()),
        ("allocs".into(), Json::Int(rep.allocs.0 as i128)),
        ("alloc_bytes".into(), Json::Int(rep.allocs.1 as i128)),
        ("events".into(), Json::Int(rep.events as i128)),
        ("tasks".into(), Json::Int(rep.tasks as i128)),
        ("sim_ns".into(), Json::Int(rep.sim_ns as i128)),
    ];
    if let Some(f) = &rep.fleet {
        let ints = |v: &[u64]| Json::Arr(v.iter().map(|x| Json::Int(*x as i128)).collect());
        doc.push((
            "fleet".into(),
            Json::Obj(vec![
                ("shards".into(), Json::Int(f.shards as i128)),
                ("workers".into(), Json::Int(f.workers as i128)),
                ("epochs".into(), Json::Int(f.epochs as i128)),
                ("events".into(), Json::Int(f.events as i128)),
                ("worker_busy_ns".into(), ints(&f.worker_busy_ns)),
                ("worker_idle_ns".into(), ints(&f.worker_idle_ns)),
            ]),
        ));
    }
    fs::write(
        dir.join(format!("{stem}.trace.json")),
        Json::Obj(doc).render_pretty(),
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // The first run of the calibration kernel pays its page faults.
    calib::ns_per_iter(calib::ITERS);
    if argv.first().map(String::as_str) == Some("--check") {
        return check::main(&argv[1..]);
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = run(&args);
    let rep0 = &result.reps[0];
    let attempted = rep0.rec.attempted;
    let failed = rep0.rec.failed;
    println!(
        "workload {} seed {}: {} repetitions, {} ops each, {} failed ({:.6} error rate)",
        args.workload.name(),
        args.seed,
        result.reps.len(),
        attempted,
        failed,
        failed as f64 / attempted.max(1) as f64
    );
    let mut problems = result.problems.clone();
    let metrics = if args.trace {
        let traced: Vec<&Rep> = result
            .reps
            .iter()
            .zip(&result.traced)
            .filter_map(|(r, t)| t.then_some(r))
            .collect();
        let untraced: Vec<&Rep> = result
            .reps
            .iter()
            .zip(&result.traced)
            .filter_map(|(r, t)| (!t).then_some(r))
            .collect();
        if traced.is_empty() {
            problems.push("no traced repetition finished".into());
            Vec::new()
        } else {
            let ms = per_layer(&traced, &untraced);
            print_table("per-layer (traced repetitions)", &ms);
            let stem = format!("{}-s{}", args.workload.name(), args.seed);
            if let Err(e) = write_trace(&args.out, &stem, traced[traced.len() - 1]) {
                eprintln!("warning: cannot write trace to {}: {e}", args.out.display());
            }
            ms
        }
    } else {
        let reps: Vec<&Rep> = result.reps.iter().collect();
        match end_to_end(args.workload, &reps) {
            Ok(ms) => {
                print_table("end-to-end", &ms);
                ms
            }
            Err(e) => {
                problems.push(e);
                Vec::new()
            }
        }
    };
    for p in &problems {
        eprintln!("error: {p}");
    }
    let correct = problems.is_empty();
    let line = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Int(attempted as i128)),
        ("failed".into(), Json::Int(failed as i128)),
        ("metrics".into(), metrics_json(&metrics)),
    ])
    .render();
    if let Err(e) = fs::create_dir_all(&args.out).and_then(|_| {
        fs::write(
            args.out.join(format!(
                "{}-s{}-t{}.json",
                args.workload.name(),
                args.seed,
                args.trace as u8
            )),
            &line,
        )
    }) {
        eprintln!(
            "warning: cannot write result to {}: {e}",
            args.out.display()
        );
    }
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
