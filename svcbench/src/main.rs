//! Service benchmark for colorist: one command drives a
//! [`colorist_server::Server`] in-process with seeded TPC-W traffic,
//! checks every answer, and prints one JSON result line.
//!
//! ```text
//! cargo run --release --manifest-path svcbench/Cargo.toml -- \
//!     --workload paged_dr|paged_undr --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` runs the same
//! traffic in an untraced half and a traced half and reports the
//! per-layer breakdown. See `svcbench/README.md` for the workloads, the
//! metric → layer → workload map, and the correctness checks.

mod layers;
mod stats;
mod workload;

use std::fmt::Write as _;
use std::path::PathBuf;
use workload::{Run, Spec};

struct Args {
    spec: &'static Spec,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("svcbench: {msg}");
    eprintln!("usage: svcbench --workload paged_dr|paged_undr --seed N --seconds S --trace 0|1");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let (mut spec, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        let int = |v: &str| -> u64 {
            v.parse().unwrap_or_else(|_| usage(&format!("{flag} expects an integer, got {v:?}")))
        };
        match flag.as_str() {
            "--workload" => {
                spec = Some(
                    Spec::by_name(&value)
                        .unwrap_or_else(|| usage(&format!("unknown workload {value:?}"))),
                )
            }
            "--seed" => seed = Some(int(&value)),
            "--seconds" => seconds = Some(int(&value).max(1)),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => usage("--trace expects 0 or 1"),
            },
            _ => usage(&format!("unknown flag {flag:?}")),
        }
    }
    Args {
        spec: spec.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
        trace: trace.unwrap_or(false),
    }
}

/// The benchmark's scratch directory: page files live here and nowhere
/// else, and it is removed when the run ends (also on panic).
struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> WorkDir {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("work")
            .join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create the benchmark work directory");
        WorkDir(dir)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent); // only if empty
        }
    }
}

/// Named metrics with units, printed one per line and then as the
/// `metrics` object of the result line.
#[derive(Default)]
pub struct Report {
    rows: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.rows.push((name.into(), value, unit));
    }

    fn json(&self) -> String {
        let mut s = String::from("{");
        for (i, (name, value, unit)) in self.rows.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(s, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
        }
        s.push('}');
        s
    }
}

fn main() {
    let args = parse_args();
    let work = WorkDir::create();
    eprintln!(
        "svcbench: workload {} seed {} seconds {} trace {} ({} cores)",
        args.spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    let run = Run::execute(args.spec, args.seed, args.seconds as f64, args.trace, &work.0);
    let report = if args.trace { layers::report(&run) } else { run.end_to_end() };
    for (name, value, unit) in &report.rows {
        println!("{name:<36} {value:>14.4} {unit}");
    }
    println!(
        "{:<36} {:>14.4} ratio  ({} of {} ops)",
        "failed_frac",
        stats::ratio(run.failed as f64, run.attempted as f64),
        run.failed,
        run.attempted
    );
    for problem in &run.problems {
        eprintln!("svcbench: CHECK FAILED: {problem}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        run.correct(),
        run.attempted,
        run.failed,
        report.json()
    );
}
