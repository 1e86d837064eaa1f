//! Regenerates the paper's tables and figures.
//!
//! ```text
//! cargo run --release -p pathcost-bench --bin figures -- all
//! cargo run --release -p pathcost-bench --bin figures -- fig14 fig15 --full
//! ```
//!
//! Without arguments, with a name not on the list or with a flag other than
//! `--full` / `--quick`, the binary prints the list of available experiments
//! and exits with status 2 before building any dataset.
//! `--full` switches from the quick laptop-scale presets to the DESIGN.md
//! preset sizes.

use pathcost_bench::experiment::{Dataset, Scale};
use pathcost_bench::figures::{self, FigureOutput};

const AVAILABLE: &[&str] = &[
    "table2", "fig1", "fig3", "fig4", "fig5", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
    "fig14", "fig15", "fig16", "fig17", "fig18", "all",
];

/// Prints the usage text and the experiment list, then exits with status 2.
fn usage() -> ! {
    eprintln!("usage: figures [--full | --quick] <experiment ...>");
    eprintln!("available: {}", AVAILABLE.join(" "));
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = Scale::from_args(&args).unwrap_or_else(|flag| {
        eprintln!("unknown flag: {flag}");
        usage()
    });
    let requested: Vec<String> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(|a| a.to_lowercase())
        .collect();
    let unknown: Vec<&str> = requested
        .iter()
        .map(String::as_str)
        .filter(|name| !AVAILABLE.contains(name))
        .collect();
    if !unknown.is_empty() {
        eprintln!("unknown experiment(s): {}", unknown.join(" "));
    }
    if requested.is_empty() || !unknown.is_empty() {
        usage();
    }
    let want = |name: &str| requested.iter().any(|r| r == name || r == "all");

    eprintln!(
        "# building datasets ({} scale) ...",
        if scale == Scale::Full {
            "full"
        } else {
            "quick"
        }
    );
    let started = std::time::Instant::now();
    let datasets = Dataset::both(scale, 2016);
    eprintln!(
        "# datasets ready in {:.1}s: {} ({} trajectories), {} ({} trajectories)",
        started.elapsed().as_secs_f64(),
        datasets[0].name,
        datasets[0].store.len(),
        datasets[1].name,
        datasets[1].store.len()
    );

    let mut outputs: Vec<FigureOutput> = Vec::new();
    if want("table2") {
        outputs.push(figures::table2_parameters(scale));
    }
    if want("fig3") {
        outputs.push(figures::fig3_sparseness(&datasets, 25));
    }
    if want("fig4") {
        for d in &datasets {
            outputs.push(figures::fig4_independence(d, scale));
        }
    }
    if want("fig5") {
        outputs.push(figures::fig5_bucket_selection(&datasets[0], scale));
    }
    if want("fig8") {
        outputs.push(figures::fig8_alpha(&datasets, scale));
    }
    if want("fig9") {
        outputs.push(figures::fig9_beta(&datasets, scale));
    }
    if want("fig10") {
        outputs.push(figures::fig10_dataset_sizes(&datasets, scale));
    }
    if want("fig11") {
        outputs.push(figures::fig11_histogram_quality(&datasets, scale));
    }
    if want("fig12") {
        outputs.push(figures::fig12_memory(&datasets, scale));
    }
    if want("fig13") || want("fig1") {
        for d in &datasets {
            outputs.push(figures::fig13_single_path(d, scale));
        }
    }
    if want("fig14") {
        for d in &datasets {
            outputs.push(figures::fig14_kl_vs_cardinality(d, scale));
        }
    }
    if want("fig15") {
        for d in &datasets {
            outputs.push(figures::fig15_entropy(d, scale));
        }
    }
    if want("fig16") {
        for d in &datasets {
            outputs.push(figures::fig16_runtime(d, scale));
        }
    }
    if want("fig17") {
        outputs.push(figures::fig17_breakdown(&datasets[0], scale));
    }
    if want("fig18") {
        outputs.push(figures::fig18_routing(&datasets[0], scale));
    }

    for out in &outputs {
        println!("{}", out.render());
    }
    eprintln!(
        "# {} experiment(s) completed in {:.1}s",
        outputs.len(),
        started.elapsed().as_secs_f64()
    );
}
