//! The class layout is invisible to the algorithm: over random write and
//! delivery schedules, [`EdgeProtocol`] — one counter per class of
//! provably-equal edge counters — gives the same `J` verdict at every step
//! and the same counter for every tracked edge after every step as a
//! per-edge model of the paper's Section 3.3 functions kept here.

use prcc_clock::{ClockState, EdgeClock, EdgeProtocol, Protocol, WireClock};
use prcc_graph::{topologies, Edge, RegisterId, ReplicaId, ShareGraph, TimestampGraph};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;
use std::sync::OnceLock;

/// `advance`, `merge` and `J` over one counter per tracked edge, straight
/// from the paper.
#[derive(Clone)]
struct Model(HashMap<Edge, u64>);

impl Model {
    fn new(tsg: &TimestampGraph) -> Self {
        Model(tsg.edges().map(|e| (e, 0)).collect())
    }

    /// `τ[e_ik] += 1` for every tracked `e_ik` with `x ∈ X_ik`.
    fn advance(&mut self, g: &ShareGraph, i: ReplicaId, x: RegisterId) {
        for (e, c) in &mut self.0 {
            if e.from == i && g.shared_on(*e).contains(x) {
                *c += 1;
            }
        }
    }

    /// `τ[e_ki] = T[e_ki] − 1 ∧ τ[e_ji] ≥ T[e_ji]` over `E_i ∩ E_k`, `j ≠ k`.
    fn deliverable(&self, i: ReplicaId, k: ReplicaId, attached: &Model) -> bool {
        self.0.iter().all(|(e, &mine)| match attached.0.get(e) {
            Some(&theirs) if e.to == i && e.from == k => mine + 1 == theirs,
            Some(&theirs) if e.to == i => mine >= theirs,
            _ => true,
        })
    }

    /// `τ[e] := max(τ[e], T[e])` over `E_i ∩ E_k`.
    fn merge(&mut self, attached: &Model) {
        for (e, c) in &mut self.0 {
            if let Some(&theirs) = attached.0.get(e) {
                *c = (*c).max(theirs);
            }
        }
    }
}

struct Fixture {
    name: String,
    protocol: EdgeProtocol,
    graphs: Vec<TimestampGraph>,
}

/// Every topology three times: with the exact timestamp graphs, with every
/// share edge tracked everywhere (the `all-edges` baseline), and with
/// arbitrary edge sets — each replica's incident edges plus a seeded coin
/// flip per other edge — that split twin groups between replicas.
fn fixtures() -> &'static [Fixture] {
    static FIXTURES: OnceLock<Vec<Fixture>> = OnceLock::new();
    FIXTURES.get_or_init(|| {
        let mut graphs: Vec<(String, ShareGraph)> = vec![
            ("ring(5)".into(), topologies::ring(5)),
            ("line(4)".into(), topologies::line(4)),
            ("star(5)".into(), topologies::star(5)),
            ("clique_full(4, 2)".into(), topologies::clique_full(4, 2)),
            ("grid(2, 3)".into(), topologies::grid(2, 3)),
            ("wheel(5)".into(), topologies::wheel(5)),
            ("figure5".into(), topologies::figure5()),
            ("figure_eight(3, 4)".into(), topologies::figure_eight(3, 4)),
        ];
        for seed in 0..4 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            graphs.push((
                format!("random_share_graph(seed {seed})"),
                topologies::random_share_graph(5, 6, 4, &mut rng),
            ));
        }
        let mut coin = ChaCha8Rng::seed_from_u64(99);
        graphs
            .into_iter()
            .flat_map(|(name, g)| {
                let exact = TimestampGraph::compute_all(&g);
                let all = g
                    .replicas()
                    .map(|i| TimestampGraph::from_edges(i, g.directed_edges()))
                    .collect();
                let split = g
                    .replicas()
                    .map(|i| {
                        let edges: Vec<Edge> = g
                            .directed_edges()
                            .filter(|e| e.touches(i) || coin.gen_bool(0.5))
                            .collect();
                        TimestampGraph::from_edges(i, edges)
                    })
                    .collect();
                [("edge-tsg", exact), ("all-edges", all), ("split", split)].map(|(sets, graphs)| {
                    let name = format!("{name} {sets}");
                    Fixture {
                        protocol: EdgeProtocol::with_edge_sets(g.clone(), graphs.clone(), &*name),
                        name,
                        graphs,
                    }
                })
            })
            .collect()
    })
}

/// An update in flight: issuer, recipient, register, and both timestamps.
struct Message {
    from: ReplicaId,
    to: ReplicaId,
    x: RegisterId,
    clock: EdgeClock,
    model: Model,
}

/// Runs one schedule on one fixture. A step `(a, b)` is a write when
/// `a % 3 == 0` (replica and register picked by `b`), otherwise an attempt
/// to deliver in-flight message `b % len`, applied only if `J` holds.
fn run(f: &Fixture, steps: &[(u64, u64)]) -> TestCaseResult {
    let p = &f.protocol;
    let g = p.share_graph();
    let n = g.num_replicas() as u64;
    let mut clocks: Vec<EdgeClock> = g.replicas().map(|i| p.new_clock(i)).collect();
    let mut models: Vec<Model> = f.graphs.iter().map(Model::new).collect();
    let mut flight: Vec<Message> = Vec::new();
    for (step, &(a, b)) in steps.iter().enumerate() {
        if a % 3 == 0 {
            let i = ReplicaId((b % n) as usize);
            let regs: Vec<RegisterId> = g.registers_of(i).iter().collect();
            if regs.is_empty() {
                continue;
            }
            let x = regs[(b / n) as usize % regs.len()];
            p.advance(i, &mut clocks[i.index()], x);
            models[i.index()].advance(g, i, x);
            for to in p.recipients(i, x) {
                flight.push(Message {
                    from: i,
                    to,
                    x,
                    clock: clocks[i.index()].clone(),
                    model: models[i.index()].clone(),
                });
            }
        } else if !flight.is_empty() {
            let at = (b % flight.len() as u64) as usize;
            let m = &flight[at];
            let i = m.to;
            let verdict = p.deliverable(i, &clocks[i.index()], m.from, &m.clock, m.x);
            prop_assert_eq!(
                verdict,
                models[i.index()].deliverable(i, m.from, &m.model),
                "{}: J differs at step {step} ({} -> {})",
                f.name,
                m.from,
                i
            );
            if verdict {
                let m = flight.swap_remove(at);
                p.merge(i, &mut clocks[i.index()], m.from, &m.clock);
                models[i.index()].merge(&m.model);
            }
        }
        for (i, (clock, model)) in clocks.iter().zip(&models).enumerate() {
            prop_assert_eq!(clock.entries(), model.0.len(), "{}", f.name);
            prop_assert!(clock.counter_values().len() <= clock.entries());
            for (&e, &want) in &model.0 {
                prop_assert_eq!(
                    clock.get(e),
                    Some(want),
                    "{}: replica {i}, edge {e}, step {step}",
                    f.name
                );
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn class_layout_matches_the_per_edge_model(
        steps in prop::collection::vec((any::<u64>(), any::<u64>()), 1..160)
    ) {
        for f in fixtures() {
            run(f, &steps)?;
        }
    }
}

/// The fixtures exercise real classes, not only identity layouts.
#[test]
fn fixtures_include_non_trivial_layouts() {
    let compressed = fixtures()
        .iter()
        .filter(|f| {
            let c = f.protocol.new_clock(ReplicaId(0));
            c.counter_values().len() < c.entries()
        })
        .count();
    assert!(compressed >= 4, "only {compressed} fixtures compress");
}
