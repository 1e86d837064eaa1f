//! The exhaustive reference for the probabilistic path query (§4.3), kept as
//! test code: every simple path of at most a given number of edges from a
//! source to a destination, estimated once per departure with `OdEstimator`
//! and ranked under any budget by the router's own candidate ordering
//! (`bestfirst.rs::Incumbent::beaten_by`: higher within-budget probability,
//! then lower mean, then fewer edges). It prunes nothing, so it answers what
//! the router's budget and incumbent prunes may miss.

use pathcost::core::OdEstimator;
use pathcost::hist::Histogram1D;
use pathcost::roadnet::{EdgeId, Path, RoadNetwork, VertexId};
use pathcost::routing::prob_within_budget;
use pathcost::traj::Timestamp;

/// One enumerated path and its estimate at one departure.
pub struct Candidate {
    pub path: Path,
    pub distribution: Histogram1D,
    pub mean: f64,
    /// Whether the estimate's coarsest decomposition has a component of
    /// rank ≥ 2, i.e. reads a variable that spans more than one edge.
    pub multi_edge: bool,
}

/// Every simple path (no vertex twice, the source included) of at most
/// `max_edges` edges from `source` to `destination`, depth first in the
/// network's out-edge order.
pub fn simple_paths(
    net: &RoadNetwork,
    source: VertexId,
    destination: VertexId,
    max_edges: usize,
) -> Vec<Path> {
    let mut walk = Walk {
        net,
        destination,
        max_edges,
        on_path: vec![false; net.vertex_count()],
        edges: Vec::with_capacity(max_edges),
        paths: Vec::new(),
    };
    walk.on_path[source.index()] = true;
    walk.extend(source);
    walk.paths
}

struct Walk<'n> {
    net: &'n RoadNetwork,
    destination: VertexId,
    max_edges: usize,
    on_path: Vec<bool>,
    edges: Vec<EdgeId>,
    paths: Vec<Path>,
}

impl Walk<'_> {
    fn extend(&mut self, at: VertexId) {
        if at == self.destination {
            self.paths
                .push(Path::from_edges_unchecked(self.edges.clone()));
            return;
        }
        if self.edges.len() == self.max_edges {
            return;
        }
        for &edge in self.net.out_edges(at) {
            let to = self.net.edge(edge).expect("the network's own edge").to;
            if self.on_path[to.index()] {
                continue;
            }
            self.on_path[to.index()] = true;
            self.edges.push(edge);
            self.extend(to);
            self.edges.pop();
            self.on_path[to.index()] = false;
        }
    }
}

/// Each path's estimate at `departure`, in the order of `paths`.
pub fn estimate(od: &OdEstimator<'_, '_>, paths: &[Path], departure: Timestamp) -> Vec<Candidate> {
    paths
        .iter()
        .map(|path| {
            let artifacts = od
                .estimate_with_artifacts(path, departure)
                .expect("every path of the fixture has an estimate");
            Candidate {
                path: path.clone(),
                mean: artifacts.histogram.mean(),
                multi_edge: artifacts.decomposition.ranks().iter().any(|&r| r >= 2),
                distribution: artifacts.histogram,
            }
        })
        .collect()
}

/// The best candidate under `budget_s` and its within-budget probability, or
/// `None` when there is no candidate. On a full tie the earlier candidate is
/// kept, as the router keeps its incumbent.
pub fn best(candidates: &[Candidate], budget_s: f64) -> Option<(&Candidate, f64)> {
    let mut best: Option<(&Candidate, f64)> = None;
    for candidate in candidates {
        let probability = prob_within_budget(&candidate.distribution, budget_s);
        let beats = best.is_none_or(|(incumbent, p)| {
            probability > p
                || (probability == p
                    && (candidate.mean < incumbent.mean
                        || (candidate.mean == incumbent.mean
                            && candidate.path.cardinality() < incumbent.path.cardinality())))
        });
        if beats {
            best = Some((candidate, probability));
        }
    }
    best
}
