//! Checks that the benchmark measures the program.
//!
//! * `--check determinism`: every `sim_*` outcome is bit-identical across
//!   two runs of one seed, between traced and untraced runs, and across
//!   ParSim workers 1 and 2 on `overload-knee`; on the tuning seed and on
//!   a held-out seed.
//! * `--check sensitivity`: configurations known to cost more move their
//!   metric past the bound `BENCHMARK.json` fixes for it, in the worse
//!   direction, with no program edit.

use std::process::ExitCode;
use std::time::Instant;

use imca_metrics::json::Json;

use crate::layers::median;
use crate::workloads::{Variant, Workload};
use crate::{end_to_end, fingerprint, run_rep, DEFAULT_WORKERS};

/// The seed the benchmark was tuned on.
const TUNING_SEED: u64 = 1;
/// A seed never used while tuning; later claims are confirmed on it.
pub const HELD_OUT_SEED: u64 = 90_210;

fn metric(w: Workload, rep: &crate::runner::Rep, name: &str) -> f64 {
    end_to_end(w, &[rep])
        .expect("workload sized for every quantile")
        .into_iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("no end-to-end metric {name}"))
        .value
}

fn determinism(seeds: &[u64]) -> bool {
    let mut ok = true;
    for &seed in seeds {
        for w in Workload::ALL {
            let t = Instant::now();
            let a = fingerprint(&run_rep(w, seed, Variant::Base, DEFAULT_WORKERS, false));
            let b = fingerprint(&run_rep(w, seed, Variant::Base, DEFAULT_WORKERS, false));
            let traced = run_rep(w, seed, Variant::Base, DEFAULT_WORKERS, true);
            let c = fingerprint(&traced);
            let mut line = format!(
                "seed {seed:>6} {:<14} repeat {} traced {}",
                w.name(),
                verdict(a == b),
                verdict(a == c)
            );
            ok &= a == b && a == c;
            if w == Workload::OverloadKnee {
                let two = fingerprint(&run_rep(w, seed, Variant::Base, 2, false));
                line.push_str(&format!(" workers1-vs-2 {}", verdict(a == two)));
                ok &= a == two;
            }
            let sims: Vec<String> = end_to_end(w, &[&traced])
                .expect("workload sized for every quantile")
                .into_iter()
                .filter(|m| m.name.starts_with("sim_"))
                .map(|m| format!("{}={}", m.name, m.value))
                .collect();
            println!(
                "{line} ({:.1} s) {}",
                t.elapsed().as_secs_f64(),
                sims.join(" ")
            );
        }
    }
    ok
}

fn verdict(ok: bool) -> &'static str {
    if ok {
        "same"
    } else {
        "DIFFERENT"
    }
}

/// `(name, better, bound)` of every end-to-end metric in BENCHMARK.json.
fn bounds() -> Result<Vec<(String, String, f64)>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json (run from the repository root): {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e:?}"))?;
    doc.get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            Ok((
                m.get("name")
                    .and_then(Json::as_str)
                    .ok_or("unnamed metric")?
                    .to_string(),
                m.get("better")
                    .and_then(Json::as_str)
                    .ok_or("no better")?
                    .to_string(),
                m.get("bound").and_then(Json::as_f64).ok_or("no bound")?,
            ))
        })
        .collect()
}

/// One sensitivity probe: `variant` on `w` must worsen `name`.
struct Probe {
    w: Workload,
    variant: Variant,
    name: &'static str,
}

const PROBES: [Probe; 4] = [
    Probe {
        w: Workload::SharedRead,
        variant: Variant::Heap,
        name: "host_kops",
    },
    Probe {
        w: Workload::SharedRead,
        variant: Variant::NoBatch,
        name: "sim_mean_us",
    },
    Probe {
        w: Workload::WriteCold,
        variant: Variant::Purge,
        name: "sim_p99_us",
    },
    Probe {
        w: Workload::MetaStorm,
        variant: Variant::BankMeta,
        name: "sim_mean_us",
    },
];

/// Seeds per simulated probe, and base/variant pairs per host probe.
const PROBE_SEEDS: [u64; 3] = [1, 2, 3];
const HOST_PAIRS: usize = 8;

fn sensitivity() -> Result<bool, String> {
    let bounds = bounds()?;
    let mut ok = true;
    println!(
        "{:<14} {:<9} {:<12} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "variant", "metric", "base", "variant", "change", "bound"
    );
    for p in &PROBES {
        let (_, better, bound) = bounds
            .iter()
            .find(|(n, _, _)| n == p.name)
            .ok_or_else(|| format!("{} is not in BENCHMARK.json", p.name))?;
        let (mut base, mut var) = (Vec::new(), Vec::new());
        let mut same_sim = true;
        if p.name.starts_with("sim_") {
            // Every simulated metric, for context; the verdict is on
            // `p.name`.
            let mut all: Vec<(String, Vec<f64>, Vec<f64>)> = Vec::new();
            for &seed in &PROBE_SEEDS {
                let b = end_to_end(p.w, &[&run_rep(p.w, seed, Variant::Base, 1, false)])
                    .expect("workload sized for every quantile");
                let v = end_to_end(p.w, &[&run_rep(p.w, seed, p.variant, 1, false)])
                    .expect("workload sized for every quantile");
                for (mb, mv) in b.iter().zip(&v).filter(|(m, _)| m.name.starts_with("sim_")) {
                    match all.iter_mut().find(|(n, _, _)| *n == mb.name) {
                        Some((_, bs, vs)) => {
                            bs.push(mb.value);
                            vs.push(mv.value);
                        }
                        None => all.push((mb.name.clone(), vec![mb.value], vec![mv.value])),
                    }
                }
            }
            for (name, bs, vs) in all {
                let (b, v) = (median(&bs), median(&vs));
                println!(
                    "  {:<12} {:<9} {:<16} {:>14.4} {:>14.4} {:>+8.1}%",
                    p.w.name(),
                    p.variant.name(),
                    name,
                    b,
                    v,
                    (v / b - 1.0) * 100.0
                );
                if name == p.name {
                    base = bs;
                    var = vs;
                }
            }
        } else {
            // Host metric: alternate base and variant so drift on the
            // host hits both alike.
            for i in 0..HOST_PAIRS {
                let seed = PROBE_SEEDS[i % PROBE_SEEDS.len()];
                let order = if i % 2 == 0 {
                    [Variant::Base, p.variant]
                } else {
                    [p.variant, Variant::Base]
                };
                let mut fps = Vec::new();
                for v in order {
                    let rep = run_rep(p.w, seed, v, 1, false);
                    fps.push(fingerprint(&rep));
                    let x = metric(p.w, &rep, p.name);
                    if v == Variant::Base {
                        base.push(x);
                    } else {
                        var.push(x);
                    }
                }
                same_sim &= fps[0] == fps[1];
            }
        }
        let (b, v) = (median(&base), median(&var));
        let change = v / b - 1.0;
        let worse = if better == "lower" { change } else { -change };
        let moved = worse > *bound;
        ok &= moved && same_sim;
        let note = if !same_sim {
            "FAIL: simulated outcome changed"
        } else if moved {
            "pass: worse by more than the bound"
        } else {
            "FAIL: inside the bound on this host"
        };
        println!(
            "{:<14} {:<9} {:<12} {:>14.4} {:>14.4} {:>+8.1}% {:>6.1}%  {note}",
            p.w.name(),
            p.variant.name(),
            p.name,
            b,
            v,
            change * 100.0,
            bound * 100.0
        );
        if !p.name.starts_with("sim_") {
            println!(
                "{:<14} {:<9} simulated outcome under both schedulers: {}",
                "",
                "",
                if same_sim {
                    "bit-identical"
                } else {
                    "DIFFERENT"
                }
            );
        }
    }
    Ok(ok)
}

/// `--check <determinism|sensitivity>`.
pub fn main(argv: &[String]) -> ExitCode {
    let ok = match argv.first().map(String::as_str) {
        Some("determinism") => determinism(&[TUNING_SEED, HELD_OUT_SEED]),
        Some("sensitivity") => match sensitivity() {
            Ok(ok) => ok,
            Err(e) => {
                eprintln!("error: {e}");
                false
            }
        },
        _ => {
            eprintln!("usage: imca-perfbench --check <determinism|sensitivity>");
            return ExitCode::from(2);
        }
    };
    println!("{}", if ok { "check passed" } else { "check FAILED" });
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
