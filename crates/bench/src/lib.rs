//! Experiment harness: regenerates every figure and quantitative claim of
//! the paper as experiments E01–E16 (the id table below).
//!
//! Each `eXX_*` function returns a plain-text report (the "table" the paper
//! would print); the `experiments` binary runs them by id or all at once
//! (`experiments e03`, `experiments all`), and `tests/paper_claims.rs`
//! runs every one and pins the headline claims.

#![forbid(unsafe_code)]

pub mod correctness;
pub mod helpers;
pub mod tables;

/// An experiment: id plus runner.
pub type Experiment = (&'static str, fn() -> String);

/// All experiment ids with their runners, in order.
pub fn all_experiments() -> Vec<Experiment> {
    vec![
        ("e01", correctness::e01_happened_before as fn() -> String),
        ("e02", correctness::e02_share_graph),
        ("e03", correctness::e03_timestamp_graph),
        ("e04", correctness::e04_counterexample1),
        ("e05", correctness::e05_counterexample2),
        ("e06", correctness::e06_ce1_graphs),
        ("e07", correctness::e07_necessity),
        ("e08", tables::e08_sizes),
        ("e09", tables::e09_lower_bound),
        ("e10", tables::e10_compression),
        ("e11", tables::e11_dummies),
        ("e12", tables::e12_ring_breaking),
        ("e13", tables::e13_bounded_loops),
        ("e14", tables::e14_client_server),
        ("e15", tables::e15_protocol_matrix),
        ("e16", tables::e16_scaling),
    ]
}

/// Runs one experiment by id.
pub fn run_experiment(id: &str) -> Option<String> {
    all_experiments()
        .into_iter()
        .find(|(name, _)| *name == id)
        .map(|(_, f)| f())
}

#[cfg(test)]
mod tests {
    #[test]
    fn ids_are_unique_and_ordered() {
        let ids: Vec<_> = super::all_experiments().iter().map(|(n, _)| *n).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(ids.len(), 16);
        assert_eq!(sorted.len(), 16);
    }

    #[test]
    fn unknown_id_is_none() {
        assert!(super::run_experiment("nope").is_none());
    }
}
