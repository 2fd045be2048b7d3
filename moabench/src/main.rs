//! `moabench`: the fixed-work `ServeSession` benchmark behind the root
//! `BENCHMARK.json`. See `README.md` for the workloads, the metrics and
//! how to run it.

mod affinity;
mod alloc;
mod layers;
mod report;
mod run;
mod stats;
mod trace;
mod workload;

use std::process::ExitCode;
use std::time::Instant;

use moa_corpus::Collection;

use report::{Outcome, END_TO_END, RUN_SECONDS};
use workload::{Spec, SPECS};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const USAGE: &str =
    "usage: moabench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--aa] [--manifest]";

struct Args {
    workloads: Vec<&'static Spec>,
    seed: u64,
    seconds: f64,
    /// `Some(false)`: the untraced pass alone, the end-to-end metrics.
    /// `Some(true)`: the traced pass alone, the per-layer metrics and the
    /// span file. Not given: one after the other, every metric.
    trace: Option<bool>,
    aa: bool,
    manifest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: SPECS.iter().collect(),
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: None,
        aa: false,
        manifest: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let spec = workload::spec_named(&name).ok_or(format!("unknown workload {name}"))?;
                args.workloads = vec![spec];
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--aa" => args.aa = true,
            "--manifest" => args.manifest = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.aa && args.trace == Some(true) {
        return Err(
            "--aa compares end-to-end metrics, which --trace 1 does not measure".to_string(),
        );
    }
    Ok(args)
}

fn print_outcome(outcome: &Outcome) {
    for (d, v) in &outcome.metrics {
        println!("{}/{} {} {}", outcome.workload, d.name, v, d.unit);
    }
    println!("{}", outcome.json_line());
}

/// One workload: the untraced pass, the traced pass, or both. Returns
/// the end-to-end outcome where there is one, and whether all was correct.
fn run_one(
    corpus: &Collection,
    generate_s: f64,
    spec: &'static Spec,
    args: &Args,
) -> (Option<Outcome>, bool) {
    let t0 = Instant::now();
    let stream = workload::build(spec, corpus, args.seed);
    println!(
        "{} seed {} stream {:016x} ({} queries, generated in {:.3} s)",
        spec.name,
        args.seed,
        stream.hash(),
        stream.pool.len(),
        t0.elapsed().as_secs_f64()
    );
    let mut correct = true;
    let mut end_to_end = None;
    if args.trace != Some(true) {
        let outcome = run::run_end_to_end(corpus, spec, &stream, args.seconds);
        print_outcome(&outcome);
        correct &= outcome.correct;
        end_to_end = Some(outcome);
    }
    if args.trace != Some(false) && !args.aa {
        let outcome = layers::run_traced(corpus, generate_s, spec, &stream);
        print_outcome(&outcome);
        correct &= outcome.correct;
    }
    (end_to_end, correct)
}

/// Same code, same seed, twice: the gap between the two runs of every
/// end-to-end metric (over the smaller value) beside its bound. Returns
/// whether all gaps fit.
fn compare_aa(a: &Outcome, b: &Outcome) -> bool {
    let mut within = true;
    for d in END_TO_END {
        let (x, y) = (a.get(d.name), b.get(d.name));
        let gap = (x - y).abs() / x.min(y);
        let bound = d.bound.expect("end-to-end metrics have bounds");
        let verdict = if gap <= bound { "ok" } else { "OVER" };
        within &= gap <= bound;
        println!(
            "aa {}/{}: {x} vs {y} {} gap {gap:.4} bound {bound} {verdict}",
            a.workload, d.name, d.unit
        );
    }
    within
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.manifest {
        print!("{}", report::manifest());
        return ExitCode::SUCCESS;
    }
    let t0 = Instant::now();
    let corpus = Collection::generate(workload::corpus_config(args.seed))
        .expect("the benchmark corpus configuration is valid");
    let generate_s = t0.elapsed().as_secs_f64();
    println!(
        "corpus seed {}: {} postings, generated in {generate_s:.3} s; host parallelism {}",
        args.seed,
        corpus.num_postings(),
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    let mut ok = true;
    for spec in &args.workloads {
        let (first, correct) = run_one(&corpus, generate_s, spec, &args);
        ok &= correct;
        if args.aa {
            let (second, correct) = run_one(&corpus, generate_s, spec, &args);
            ok &= correct;
            if let (Some(a), Some(b)) = (&first, &second) {
                ok &= compare_aa(a, b);
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
