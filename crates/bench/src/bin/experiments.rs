//! The experiment driver: regenerates every paper claim's table.
//!
//! ```text
//! experiments <e1|e2|...|e13|all> [--full] [--csv]
//! ```
//!
//! `--full` runs at FT scale (tens of seconds per experiment); the default
//! quick scale finishes in seconds. `--csv` emits machine-readable output.

use std::io::Write;

use moa_bench::experiments;
use moa_bench::harness::Scale;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut id: Option<String> = None;
    let mut full = false;
    let mut csv = false;
    for a in &args {
        match a.as_str() {
            "--full" => full = true,
            "--csv" => csv = true,
            "--help" | "-h" => {
                print_usage();
                return;
            }
            other if !other.starts_with('-') => id = Some(other.to_owned()),
            other => {
                eprintln!("unknown flag: {other}");
                print_usage();
                std::process::exit(2);
            }
        }
    }
    let Some(id) = id else {
        print_usage();
        std::process::exit(2);
    };

    let scale = Scale::from_full_flag(full);
    let Some(tables) = experiments::run(&id, scale) else {
        eprintln!("unknown experiment: {id}");
        print_usage();
        std::process::exit(2);
    };
    let stdout = std::io::stdout();
    let mut lock = stdout.lock();
    writeln!(
        lock,
        "# Moa top-N reproduction — experiment {id} at {scale:?} scale"
    )
    .expect("stdout");
    for table in tables {
        let text = if csv { table.to_csv() } else { table.render() };
        writeln!(lock, "{text}").expect("stdout");
    }
}

fn print_usage() {
    eprintln!("usage: experiments <e1|e2|...|e13|all> [--full] [--csv]");
    eprintln!();
    eprintln!("  e1   unsafe fragmentation speed/quality trade-off   (paper §3 step 1)");
    eprintln!("  e2   safe switching with the early quality check    (paper §3 step 1)");
    eprintln!("  e3   non-dense index on the large fragment          (paper §3 step 1)");
    eprintln!("  e4   inter-object rewrite of Example 1              (paper §3 step 2)");
    eprintln!("  e5   FA/TA/NRA bound administration                 (paper §2)");
    eprintln!("  e6   STOP AFTER braking distance [CK98]             (paper §2)");
    eprintln!("  e7   probabilistic top-N [DR99]                     (paper §2)");
    eprintln!("  e8   cost model accuracy                            (paper §3 step 3)");
    eprintln!("  e9   Zipf premise / fragment geometry               (paper §1, §3)");
    eprintln!("  e10  fragment volume-budget sweep                   (paper §3 step 1)");
    eprintln!("  e11  switch-policy threshold sweep                   (ablation)");
    eprintln!("  e12  ranking-model sensitivity                       (ablation)");
    eprintln!("  e13  set-based vs element-at-a-time                  (paper §3 step 1)");
    eprintln!();
    eprintln!("  e14-e21 are retired: the moabench layer metrics (operator.*, planner.*,");
    eprintln!("  pack.*, blocks.*) and workloads measure e14-e18, e20 and e21, and the");
    eprintln!("  moa-serve pool_faults tests hold e19's resilience gates.");
}
