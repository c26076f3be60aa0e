//! Command line: `nsbench --workload <name> --seed <n> --seconds <s>
//! --trace <0|1>`, or `--print-expected` to print the statistics one
//! untraced repetition produces in `expected.txt` form.
//!
//! Human-readable lines come first; the last line of standard output is
//! the JSON result. Exit code 2 means the arguments were not understood.

use std::process::ExitCode;
use std::time::Duration;

use nsbench::checks::format_expected;
use nsbench::metrics::{report, result_line, END_TO_END, PER_LAYER};
use nsbench::probe::RowProbe;
use nsbench::run::{traced, untraced, Plan};
use nsbench::workload::{run_rep, Workload};

const USAGE: &str = "usage: nsbench --workload <lbm-maya|mcf-grid|leela-maya> \
[--seed <n>] [--seconds <s>] [--trace <0|1>] [--print-expected]";

struct Args {
    plan: Plan,
    trace: bool,
    print_expected: bool,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    let mut print_expected = false;
    while let Some(flag) = args.next() {
        if flag == "--print-expected" {
            print_expected = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|e| format!("--seed {value:?}: {e}"))?
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("--seconds {value:?}: not a non-negative number"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value:?}: expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        plan: Plan {
            workload,
            seed,
            budget: Duration::from_secs_f64(seconds),
        },
        trace,
        print_expected,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("nsbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Plan { workload, seed, .. } = args.plan;
    if args.print_expected {
        let (rows, _) = run_rep(workload, &workload.config(), seed, |_| RowProbe::Plain);
        for row in &rows {
            print!("{}", format_expected(workload, seed, row));
        }
        return ExitCode::SUCCESS;
    }
    let (catalogue, outcome) = if args.trace {
        (PER_LAYER, traced(args.plan))
    } else {
        (END_TO_END, untraced(args.plan))
    };
    println!(
        "nsbench {} seed={seed} trace={} checks: {} attempted, {} failed",
        workload.name(),
        u8::from(args.trace),
        outcome.checks.attempted,
        outcome.checks.failed
    );
    for note in &outcome.notes {
        println!("{note}");
    }
    for m in &outcome.checks.messages {
        println!("FAILED {m}");
    }
    print!("{}", report(catalogue, &outcome.values));
    println!(
        "{}",
        result_line(
            catalogue,
            &outcome.values,
            outcome.checks.attempted,
            outcome.checks.failed
        )
    );
    ExitCode::SUCCESS
}
