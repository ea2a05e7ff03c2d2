//! Experiment driver: `cargo run -p prcc-bench --bin experiments -- [id…|all]`.
//!
//! Regenerates the paper's figures and quantitative claims, E01–E16 (the
//! index is `prcc_bench::all_experiments`; each table is produced by its
//! function in `tables.rs`).

#![forbid(unsafe_code)]

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ids: Vec<String> = if args.is_empty() || args.iter().any(|a| a == "all") {
        prcc_bench::all_experiments()
            .iter()
            .map(|(n, _)| n.to_string())
            .collect()
    } else {
        args
    };
    for id in ids {
        match prcc_bench::run_experiment(&id) {
            Some(report) => {
                println!("{report}");
                println!("{}", "=".repeat(72));
            }
            None => {
                eprintln!(
                    "unknown experiment '{id}'; available: {}",
                    prcc_bench::all_experiments()
                        .iter()
                        .map(|(n, _)| *n)
                        .collect::<Vec<_>>()
                        .join(", ")
                );
                std::process::exit(2);
            }
        }
    }
}
