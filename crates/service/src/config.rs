//! Topology selection and argument plumbing shared by the binaries.

use prcc_graph::{topologies, ShareGraph};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Builds the share graph for a named topology family at size `nodes`.
///
/// Families: `ring` (default), `line`, `star`, `clique`, `figure5` (fixed
/// 4 nodes), `random` (seeded connected random graph with `2·nodes`
/// registers, ≤ 3 holders each).
///
/// # Errors
///
/// Returns a human-readable message for unknown names or invalid sizes.
pub fn build_topology(name: &str, nodes: usize, seed: u64) -> Result<ShareGraph, String> {
    match name {
        "ring" => {
            if nodes < 3 {
                return Err("ring needs --nodes >= 3".into());
            }
            Ok(topologies::ring(nodes))
        }
        "line" => {
            if nodes < 2 {
                return Err("line needs --nodes >= 2".into());
            }
            Ok(topologies::line(nodes))
        }
        "star" => {
            if nodes < 2 {
                return Err("star needs --nodes >= 2".into());
            }
            Ok(topologies::star(nodes))
        }
        "clique" => {
            if nodes < 2 {
                return Err("clique needs --nodes >= 2".into());
            }
            Ok(topologies::clique_full(nodes, 2))
        }
        "figure5" => Ok(topologies::figure5()),
        "random" => {
            if nodes < 2 {
                return Err("random needs --nodes >= 2".into());
            }
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            Ok(topologies::random_connected(nodes, 2 * nodes, 3, &mut rng))
        }
        other => Err(format!(
            "unknown topology '{other}' (ring|line|star|clique|figure5|random)"
        )),
    }
}

/// Tiny `--flag value` argument scanner for the binaries (no external
/// parser available in this hermetic workspace).
#[derive(Debug)]
pub struct Args {
    raw: Vec<String>,
}

impl Args {
    /// Captures the process arguments (after the binary name).
    pub fn from_env() -> Self {
        Args {
            raw: std::env::args().skip(1).collect(),
        }
    }

    /// Builds from an explicit list (tests).
    pub fn from_vec(raw: Vec<String>) -> Self {
        Args { raw }
    }

    /// True when `--flag` appears (with or without a value).
    pub fn has(&self, flag: &str) -> bool {
        self.raw.iter().any(|a| a == flag)
    }

    /// The value following `--flag`, if any.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.raw
            .iter()
            .position(|a| a == flag)
            .and_then(|at| self.raw.get(at + 1))
            .map(String::as_str)
    }

    /// Refuses what the other methods would silently skip: an argument
    /// that is neither one of `valued` (flags that take a value) nor one
    /// of `switches` (flags that take none), a flag given twice (the
    /// others read only its first occurrence), a valued flag at the end of
    /// the list, and a valued flag followed by another `--flag`.
    ///
    /// # Errors
    ///
    /// Names the offending argument.
    pub fn check(&self, valued: &[&str], switches: &[&str]) -> Result<(), String> {
        let mut rest = self.raw.iter().map(String::as_str);
        let mut seen = Vec::new();
        while let Some(arg) = rest.next() {
            if !switches.contains(&arg) && !valued.contains(&arg) {
                return Err(format!("unrecognised argument '{arg}'"));
            }
            if seen.contains(&arg) {
                return Err(format!("{arg} given twice"));
            }
            seen.push(arg);
            if switches.contains(&arg) {
                continue;
            }
            match rest.next() {
                None => return Err(format!("{arg} needs a value")),
                Some(value) if value.starts_with("--") => {
                    return Err(format!("{arg} needs a value, but '{value}' follows it"))
                }
                Some(_) => {}
            }
        }
        Ok(())
    }

    /// Parses the value of `--flag`, falling back to `default`.
    ///
    /// # Errors
    ///
    /// Reports unparseable values with the offending flag name.
    pub fn parse_or<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.value(flag) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("invalid value '{raw}' for {flag}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topologies_build() {
        for name in ["ring", "line", "star", "clique", "random"] {
            let g = build_topology(name, 5, 7).unwrap();
            assert!(g.num_replicas() >= 4, "{name}");
        }
        assert_eq!(build_topology("figure5", 99, 0).unwrap().num_replicas(), 4);
        assert!(build_topology("ring", 2, 0).is_err());
        assert!(build_topology("moebius", 5, 0).is_err());
    }

    #[test]
    fn args_scanner() {
        let args = Args::from_vec(
            ["--nodes", "6", "--hotspot", "0.3", "--quiet"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
        );
        assert_eq!(args.parse_or("--nodes", 4usize).unwrap(), 6);
        assert_eq!(args.parse_or("--ops", 100usize).unwrap(), 100);
        assert!((args.parse_or("--hotspot", 0.0f64).unwrap() - 0.3).abs() < 1e-9);
        assert!(args.has("--quiet"));
        assert!(args.parse_or("--hotspot", 0usize).is_err());
    }

    fn check(raw: &[&str]) -> Result<(), String> {
        Args::from_vec(raw.iter().map(|s| s.to_string()).collect())
            .check(&["--nodes", "--data-dir", "--fsync-every"], &["--fsync"])
    }

    #[test]
    fn check_accepts_exactly_the_declared_flags() {
        assert_eq!(check(&[]), Ok(()));
        assert_eq!(
            check(&["--nodes", "4", "--fsync", "--data-dir", "/tmp/x"]),
            Ok(())
        );
        // A value may look like anything but a flag.
        assert_eq!(check(&["--data-dir", "-x", "--nodes", "nodes"]), Ok(()));
    }

    #[test]
    fn check_names_what_it_refuses() {
        let refused = |raw: &[&str], needle: &str| {
            let message = check(raw).expect_err("must be refused");
            assert!(message.contains(needle), "{raw:?}: {message}");
        };
        // A misspelled flag, anywhere in the list.
        refused(&["--nodes", "4", "--fsync-evry", "1"], "'--fsync-evry'");
        // A stray positional argument.
        refused(&["4"], "'4'");
        // A valued flag with nothing after it.
        refused(&["--nodes", "4", "--data-dir"], "--data-dir needs a value");
        // A valued flag that would swallow the next flag as its value.
        refused(&["--data-dir", "--fsync"], "--data-dir needs a value");
        refused(&["--data-dir", "--fsync"], "'--fsync'");
        // A switch is not a value-taker: its "value" is a stray argument.
        refused(&["--fsync", "1"], "'1'");
        // A repeated flag or switch: the second occurrence would be ignored.
        refused(&["--nodes", "4", "--nodes", "8"], "--nodes given twice");
        refused(
            &["--fsync", "--data-dir", "d", "--fsync"],
            "--fsync given twice",
        );
    }
}
