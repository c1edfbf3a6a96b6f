//! Inputs, all made from `--seed`: the graph, the held-out split, the
//! query stream and the arrival schedule. The same seed gives the same
//! inputs; the program under test only ever sees the generated data (its
//! own `PbgConfig.seed` stays fixed).

use pbg_datagen::knowledge::KnowledgeGraphConfig;
use pbg_datagen::social::SocialGraphConfig;
use pbg_graph::edges::EdgeList;
use pbg_graph::schema::{GraphSchema, OperatorKind};
use pbg_graph::split::EdgeSplit;
use pbg_tensor::rng::Xoshiro256;

/// The fixed seed handed to the program itself (`PbgConfig.seed`, eval
/// candidate sampling): workload seeds vary the inputs, never this.
pub const PROGRAM_SEED: u64 = 7;

/// Which generator makes the graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GraphKind {
    /// Single-relation social graph (livejournal / twitter stand-ins).
    Social {
        /// Probability an edge stays inside the source's community.
        intra_prob: f64,
        /// Zipf exponent of node popularity.
        zipf_exponent: f64,
    },
    /// Multi-relation knowledge graph (freebase stand-in) whose relations
    /// all carry `operator`.
    Knowledge {
        /// Relation types.
        relations: u32,
        /// Relation operator.
        operator: OperatorKind,
    },
}

/// A graph to generate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GraphSpec {
    /// Generator.
    pub kind: GraphKind,
    /// Nodes.
    pub nodes: u32,
    /// Edges, before the held-out split.
    pub edges: usize,
    /// Latent communities.
    pub communities: u16,
}

impl GraphSpec {
    fn social(&self, seed: u64, intra_prob: f64, zipf_exponent: f64) -> SocialGraphConfig {
        SocialGraphConfig {
            num_nodes: self.nodes,
            num_edges: self.edges,
            num_communities: self.communities,
            intra_prob,
            zipf_exponent,
            seed,
        }
    }

    fn knowledge(&self, seed: u64, relations: u32, operator: OperatorKind) -> KnowledgeGraphConfig {
        KnowledgeGraphConfig {
            num_entities: self.nodes,
            num_relations: relations,
            num_edges: self.edges,
            num_communities: self.communities,
            operator,
            seed,
            // every relation maps a community onto itself: with random
            // maps the MRR of a sparse graph follows whether a hub's
            // community happens to be remapped under the dominant
            // relation, and moves by 15 % from seed to seed
            identity_map_prob: 1.0,
            ..KnowledgeGraphConfig::default()
        }
    }

    /// Smoke size: a twentieth of the nodes and edges.
    pub fn quick(mut self) -> GraphSpec {
        self.nodes /= 20;
        self.edges /= 20;
        self
    }

    /// Generates the edge list for `seed`.
    pub fn generate(&self, seed: u64) -> EdgeList {
        match self.kind {
            GraphKind::Social {
                intra_prob,
                zipf_exponent,
            } => self.social(seed, intra_prob, zipf_exponent).generate().0,
            GraphKind::Knowledge {
                relations,
                operator,
            } => self.knowledge(seed, relations, operator).generate().0,
        }
    }

    /// The schema with `partitions` partitions.
    pub fn schema(&self, partitions: u32) -> GraphSchema {
        match self.kind {
            GraphKind::Social { .. } => self.social(0, 0.5, 1.0).schema(partitions),
            GraphKind::Knowledge {
                relations,
                operator,
            } => self.knowledge(0, relations, operator).schema(partitions),
        }
    }
}

/// Splits off `holdout` test edges (exactly, seeded), the rest train.
pub fn split(edges: &EdgeList, holdout: usize, seed: u64) -> EdgeSplit {
    let frac = holdout as f64 / edges.len().max(1) as f64;
    EdgeSplit::new(edges, 0.0, frac.min(0.5), seed ^ 0x5117)
}

/// One served query: a source and, for `/score`, a destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Query {
    /// Source entity.
    pub src: u32,
    /// Destination entity.
    pub dst: u32,
}

/// `n` uniformly random queries over `nodes` entities.
pub fn query_stream(seed: u64, n: usize, nodes: u32) -> Vec<Query> {
    let mut rng = Xoshiro256::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
    (0..n)
        .map(|_| Query {
            src: rng.gen_index(nodes as usize) as u32,
            dst: rng.gen_index(nodes as usize) as u32,
        })
        .collect()
}

/// Due times (ns from phase start) of `rate_per_s x seconds` Poisson
/// arrivals at `rate_per_s`: independent users, so an open loop. The
/// count is fixed (the phase runs about `seconds`), so a percentile is
/// read off the same number of samples on every seed.
pub fn arrival_schedule(seed: u64, rate_per_s: f64, seconds: f64) -> Vec<u64> {
    assert!(rate_per_s > 0.0, "arrival rate must be positive");
    let mut rng = Xoshiro256::seed_from_u64(seed ^ 0xA221_7A15);
    let mean_gap = 1e9 / rate_per_s;
    let mut t = 0.0f64;
    (0..(rate_per_s * seconds).round() as usize)
        .map(|_| {
            // inverse-CDF exponential gap; 1 - u is in (0, 1]
            t += -(1.0 - rng.gen_f64()).ln() * mean_gap;
            t as u64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: GraphSpec = GraphSpec {
        kind: GraphKind::Social {
            intra_prob: 0.8,
            zipf_exponent: 1.0,
        },
        nodes: 500,
        edges: 4000,
        communities: 8,
    };

    #[test]
    fn same_seed_gives_identical_inputs() {
        let (a, b) = (SPEC.generate(11), SPEC.generate(11));
        assert_eq!(a, b);
        let (sa, sb) = (split(&a, 100, 11), split(&b, 100, 11));
        assert_eq!(sa.test, sb.test);
        assert_eq!(sa.train, sb.train);
        assert_eq!(sa.test.len(), 100);
        assert_eq!(query_stream(11, 64, 500), query_stream(11, 64, 500));
        assert_eq!(
            arrival_schedule(11, 1000.0, 0.5),
            arrival_schedule(11, 1000.0, 0.5)
        );
        let kg = GraphSpec {
            kind: GraphKind::Knowledge {
                relations: 4,
                operator: OperatorKind::ComplexDiagonal,
            },
            ..SPEC
        };
        assert_eq!(kg.generate(3), kg.generate(3));
    }

    #[test]
    fn another_seed_gives_other_inputs() {
        assert_ne!(SPEC.generate(11), SPEC.generate(12));
        assert_ne!(query_stream(11, 64, 500), query_stream(12, 64, 500));
        assert_ne!(
            arrival_schedule(11, 1000.0, 0.5),
            arrival_schedule(12, 1000.0, 0.5)
        );
    }

    #[test]
    fn schedule_is_ascending_at_about_the_asked_rate() {
        let due = arrival_schedule(5, 2000.0, 2.0);
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(due.len(), 4000, "the count is fixed, the horizon varies");
        let horizon = *due.last().unwrap() as f64 / 1e9;
        assert!((horizon - 2.0).abs() < 0.2, "{horizon} s");
    }
}
