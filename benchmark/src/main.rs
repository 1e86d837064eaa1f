//! The repository's benchmark. See `README.md` beside this package.

mod accuracy;
mod compare;
mod fixture;
mod harness;
mod ingest;
mod layers;
mod loadgen;
mod oracle;
mod reference;
mod report;
mod rng;
mod run;
mod span;
mod stats;
mod steady;
mod workload;

use fixture::{CITY40, SMOKE};
use report::RunResult;
use run::RunArgs;
use workload::Workload;

fn usage() -> ! {
    eprintln!(
        "usage:
  run --workload <name> [--seed <u64>] [--seconds <s>] [--trace 0|1 | --traced] [--out <set.jsonl>]
  all [--seed <u64>] [--seconds <s>] [--runs <n>] [--traced] [--out <set.jsonl>]
  compare <a.jsonl> <b.jsonl>
  smoke
workloads: warm_zipf cold_scan route_batch ingest_churn
seeds: {} by default; {} is held back for claims",
        reference::DEFAULT_SEED,
        reference::CLAIM_SEED
    );
    std::process::exit(2)
}

/// `--name value` options of a subcommand.
struct Options(Vec<String>);

impl Options {
    fn value(&self, name: &str) -> Option<&str> {
        self.0.iter().position(|a| a == name).map(|i| {
            self.0
                .get(i + 1)
                .map(String::as_str)
                .unwrap_or_else(|| usage())
        })
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        match self.value(name) {
            Some(text) => text.parse().unwrap_or_else(|_| usage()),
            None => default,
        }
    }

    fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }
}

fn finish(result: &RunResult, out: Option<&str>) {
    result.print_table();
    if let Some(path) = out {
        use std::io::Write;
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .unwrap_or_else(|e| panic!("open {path}: {e}"));
        writeln!(file, "{}", result.set_line()).expect("append the result line");
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let command = args.remove(0);
    let options = Options(args);
    // The served program logs through the process-wide logger; the server
    // configuration lowers it to `warn`, this covers what runs before.
    pathcost_obs::log::logger().set_level(pathcost_obs::Level::Warn);
    steady::keep_freed_memory();
    match command.as_str() {
        "run" => {
            let workload = options
                .value("--workload")
                .and_then(Workload::parse)
                .unwrap_or_else(|| usage());
            let args = RunArgs {
                workload,
                seed: options.parsed("--seed", reference::DEFAULT_SEED),
                seconds: options.parsed("--seconds", 12.0),
                preset: CITY40,
            };
            let traced = options.flag("--traced") || options.parsed("--trace", 0u8) != 0;
            let result = if traced {
                layers::run(args)
            } else {
                run::run(args)
            };
            finish(&result, options.value("--out"));
            // The contract: the result object is the last line of stdout.
            println!("{}", result.contract_line());
            if !result.correct {
                std::process::exit(1);
            }
        }
        "all" => {
            // One child process per run, so that every run reports its own
            // peak memory. Repetition `i` uses seed + i.
            let seed: u64 = options.parsed("--seed", reference::DEFAULT_SEED);
            let seconds: f64 = options.parsed("--seconds", 12.0);
            let runs: u64 = options.parsed("--runs", 1);
            let trace = if options.flag("--traced") { "1" } else { "0" };
            let this = std::env::current_exe().expect("path of this executable");
            for repetition in 0..runs {
                for workload in Workload::ALL {
                    let mut child = std::process::Command::new(&this);
                    child
                        .args(["run", "--workload", workload.name(), "--trace", trace])
                        .args(["--seed", &(seed + repetition).to_string()])
                        .args(["--seconds", &seconds.to_string()]);
                    if let Some(out) = options.value("--out") {
                        child.args(["--out", out]);
                    }
                    let status = child.status().expect("start a run");
                    if !status.success() {
                        std::process::exit(status.code().unwrap_or(1));
                    }
                }
            }
        }
        "compare" => {
            let (Some(a), Some(b)) = (options.0.first(), options.0.get(1)) else {
                usage()
            };
            let read = |path: &str| {
                std::fs::read_to_string(path).unwrap_or_else(|e| {
                    eprintln!("{path}: {e}");
                    std::process::exit(2)
                })
            };
            let spec = read(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"));
            let parsed = compare::rules(&spec).and_then(|rules| {
                Ok((
                    rules,
                    compare::parse_set(&read(a))?,
                    compare::parse_set(&read(b))?,
                ))
            });
            match parsed {
                Ok((rules, a, b)) => {
                    if compare::compare(&rules, &a, &b) {
                        std::process::exit(1);
                    }
                }
                Err(problem) => {
                    eprintln!("{problem}");
                    std::process::exit(2);
                }
            }
        }
        "smoke" => {
            // The miniature fixture: every workload end to end and one of
            // them traced. Checks the oracle and the result schema, not
            // speed.
            let args = |workload| RunArgs {
                workload,
                seed: reference::DEFAULT_SEED,
                seconds: 2.0,
                preset: SMOKE,
            };
            let mut results: Vec<RunResult> = Workload::ALL.map(|w| run::run(args(w))).into();
            results.push(layers::run(args(Workload::RouteBatch)));
            let mut ok = true;
            for result in &results {
                finish(result, None);
                let line = pathcost_server::json::parse(result.contract_line().as_bytes());
                ok &= result.correct && line.is_ok();
            }
            println!("smoke: {}", if ok { "ok" } else { "FAILED" });
            if !ok {
                std::process::exit(1);
            }
        }
        _ => usage(),
    }
}
