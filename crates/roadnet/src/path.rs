//! Paths and the path algebra used by the hybrid graph.
//!
//! A path `P = ⟨e1, e2, …, eA⟩` is a sequence of adjacent edges connecting
//! *distinct* vertices (Section 2.1 of the paper). The operations defined
//! here — sub-path testing, intersection (`Pi ∩ Pj`), difference (`Pi \ Pj`),
//! concatenation and the combine step used to grow rank-`k` paths out of two
//! rank-`k−1` paths sharing `k−2` edges — are exactly the ones needed by the
//! weight-function instantiation (§3) and decomposition machinery (§4).

use crate::error::RoadNetError;
use crate::graph::RoadNetwork;
use crate::ids::{EdgeId, VertexId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A path: a non-empty sequence of adjacent edges over distinct vertices.
///
/// A `Path` does not hold a reference to its network; validity with respect to
/// a particular [`RoadNetwork`] is checked at construction time by
/// [`Path::new`]. The cheaper [`Path::from_edges_unchecked`] is available for
/// callers (generators, tests) that construct paths they know to be valid.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize, PartialOrd, Ord)]
pub struct Path {
    edges: Vec<EdgeId>,
}

impl Path {
    /// Creates a path, validating adjacency and vertex-distinctness against `net`.
    pub fn new(net: &RoadNetwork, edges: Vec<EdgeId>) -> Result<Self, RoadNetError> {
        if edges.is_empty() {
            return Err(RoadNetError::EmptyPath);
        }
        let mut visited: Vec<VertexId> = Vec::with_capacity(edges.len() + 1);
        for (i, &eid) in edges.iter().enumerate() {
            let edge = net.edge(eid)?;
            if i == 0 {
                visited.push(edge.from);
            } else {
                let prev = net.edge(edges[i - 1])?;
                if prev.to != edge.from {
                    return Err(RoadNetError::NonAdjacentEdges {
                        first: edges[i - 1],
                        second: eid,
                    });
                }
            }
            if visited.contains(&edge.to) {
                return Err(RoadNetError::RepeatedVertex(edge.to));
            }
            visited.push(edge.to);
        }
        Ok(Path { edges })
    }

    /// Creates a path from edges without validating against a network.
    ///
    /// # Panics
    /// Panics if `edges` is empty.
    pub fn from_edges_unchecked(edges: Vec<EdgeId>) -> Self {
        assert!(!edges.is_empty(), "a path must contain at least one edge");
        Path { edges }
    }

    /// A unit path (single edge).
    pub fn unit(edge: EdgeId) -> Self {
        Path { edges: vec![edge] }
    }

    /// The edges of the path, in order.
    pub fn edges(&self) -> &[EdgeId] {
        &self.edges
    }

    /// The cardinality `|P|`: the number of edges in the path.
    pub fn cardinality(&self) -> usize {
        self.edges.len()
    }

    /// `true` if the path consists of a single edge.
    pub fn is_unit(&self) -> bool {
        self.edges.len() == 1
    }

    /// The first edge of the path.
    pub fn first_edge(&self) -> EdgeId {
        self.edges[0]
    }

    /// The last edge of the path.
    pub fn last_edge(&self) -> EdgeId {
        *self.edges.last().expect("path is non-empty")
    }

    /// `true` if `edge` occurs in the path.
    pub fn contains_edge(&self, edge: EdgeId) -> bool {
        self.edges.contains(&edge)
    }

    /// The vertices visited by the path, in order, resolved against `net`.
    pub fn vertices(&self, net: &RoadNetwork) -> Result<Vec<VertexId>, RoadNetError> {
        let mut vs = Vec::with_capacity(self.edges.len() + 1);
        vs.push(net.edge(self.edges[0])?.from);
        for &eid in &self.edges {
            vs.push(net.edge(eid)?.to);
        }
        Ok(vs)
    }

    /// Total length of the path in metres, resolved against `net`.
    pub fn length_m(&self, net: &RoadNetwork) -> Result<f64, RoadNetError> {
        let mut total = 0.0;
        for &eid in &self.edges {
            total += net.edge(eid)?.length_m;
        }
        Ok(total)
    }

    /// Returns `true` if `self` is a sub-path of `other`, i.e. `self`'s edge
    /// sequence occurs contiguously (and in order) inside `other`.
    ///
    /// Every path is a sub-path of itself.
    pub fn is_subpath_of(&self, other: &Path) -> bool {
        if self.edges.len() > other.edges.len() {
            return false;
        }
        other
            .edges
            .windows(self.edges.len())
            .any(|w| w == self.edges.as_slice())
    }

    /// The offset at which `sub` starts inside `self`, if `sub` is a sub-path.
    pub fn subpath_offset(&self, sub: &Path) -> Option<usize> {
        if sub.edges.len() > self.edges.len() {
            return None;
        }
        (0..=self.edges.len() - sub.edges.len())
            .find(|&i| &self.edges[i..i + sub.edges.len()] == sub.edges.as_slice())
    }

    /// The contiguous sub-path `self[start..start + len]`.
    ///
    /// Returns `None` if the range is empty or out of bounds.
    pub fn slice(&self, start: usize, len: usize) -> Option<Path> {
        if len == 0 || start + len > self.edges.len() {
            return None;
        }
        Some(Path {
            edges: self.edges[start..start + len].to_vec(),
        })
    }

    /// `Pi ∩ Pj`: the longest contiguous edge sequence shared by both paths.
    ///
    /// The paper uses the intersection of decomposition components that are
    /// sub-paths of the same query path, where the shared portion is
    /// contiguous; this method returns the longest common contiguous edge
    /// run (or `None` when the paths share no edges).
    pub fn intersect(&self, other: &Path) -> Option<Path> {
        let mut best: Option<&[EdgeId]> = None;
        for len in (1..=self.edges.len().min(other.edges.len())).rev() {
            for start in 0..=self.edges.len() - len {
                let candidate = &self.edges[start..start + len];
                if other.edges.windows(len).any(|w| w == candidate) {
                    best = Some(candidate);
                    break;
                }
            }
            if best.is_some() {
                break;
            }
        }
        best.map(|edges| Path {
            edges: edges.to_vec(),
        })
    }

    /// `Pi \ Pj`: the edges of `self` that are not in `other`, preserving order.
    ///
    /// Following the paper's example `⟨e1,e2,e3⟩ \ ⟨e2,e3,e4⟩ = ⟨e1⟩`, the
    /// result keeps the remaining edges of `self`; returns `None` when every
    /// edge of `self` also occurs in `other`.
    pub fn subtract(&self, other: &Path) -> Option<Path> {
        let remaining: Vec<EdgeId> = self
            .edges
            .iter()
            .copied()
            .filter(|e| !other.edges.contains(e))
            .collect();
        if remaining.is_empty() {
            None
        } else {
            Some(Path { edges: remaining })
        }
    }

    /// Concatenates `self` and `other` when the end vertex of `self` equals
    /// the start vertex of `other` (checked against `net`), producing a valid path.
    pub fn concat(&self, other: &Path, net: &RoadNetwork) -> Result<Path, RoadNetError> {
        let mut edges = self.edges.clone();
        edges.extend_from_slice(&other.edges);
        Path::new(net, edges)
    }

    /// Extends the path by one more edge (the "path + another edge" pattern
    /// used by stochastic routing algorithms), validating against `net`.
    pub fn extend(&self, edge: EdgeId, net: &RoadNetwork) -> Result<Path, RoadNetError> {
        let mut edges = self.edges.clone();
        edges.push(edge);
        Path::new(net, edges)
    }

    /// Combines two paths of cardinality `k−1` that overlap in `k−2` edges
    /// into a single path of cardinality `k`, as used by the bottom-up
    /// instantiation of non-unit path weights (§3.2).
    ///
    /// `self = ⟨e1, …, e_{k−1}⟩` and `other = ⟨e2, …, e_k⟩` must satisfy
    /// `self[1..] == other[..k−2]`; the result is `⟨e1, …, e_k⟩`. Returns
    /// `None` when the overlap condition does not hold or the combined edge
    /// sequence is not a valid path in `net`.
    pub fn combine(&self, other: &Path, net: &RoadNetwork) -> Option<Path> {
        let k_minus_1 = self.edges.len();
        if other.edges.len() != k_minus_1 || k_minus_1 == 0 {
            return None;
        }
        if self.edges[1..] != other.edges[..k_minus_1 - 1] {
            return None;
        }
        let mut edges = self.edges.clone();
        edges.push(*other.edges.last().expect("other is non-empty"));
        Path::new(net, edges).ok()
    }

    /// All contiguous sub-paths of length `len`.
    pub fn subpaths_of_length(&self, len: usize) -> Vec<Path> {
        if len == 0 || len > self.edges.len() {
            return Vec::new();
        }
        self.edges
            .windows(len)
            .map(|w| Path { edges: w.to_vec() })
            .collect()
    }

    /// The sub-path starting at edge index `start` and running to the end.
    pub fn suffix(&self, start: usize) -> Option<Path> {
        if start >= self.edges.len() {
            return None;
        }
        Some(Path {
            edges: self.edges[start..].to_vec(),
        })
    }

    /// The sub-path covering the first `len` edges.
    pub fn prefix(&self, len: usize) -> Option<Path> {
        self.slice(0, len)
    }

    /// A cheap, deterministic 64-bit fingerprint of the edge sequence
    /// (FNV-1a over the edge identifiers).
    ///
    /// Intended as a pre-computed hash for cache sharding and lookup: equal
    /// paths always have equal fingerprints, and collisions between distinct
    /// paths are possible (≈ 2⁻⁶⁴ per pair), so callers that must be exact —
    /// like a distribution cache — should confirm with `==` on a fingerprint
    /// match rather than trusting it alone.
    pub fn fingerprint(&self) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for edge in &self.edges {
            let mut bytes = edge.0 as u64;
            // Two FNV rounds per 32-bit id keep avalanche reasonable.
            for _ in 0..2 {
                hash ^= bytes & 0xFFFF_FFFF;
                hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
                bytes >>= 16;
            }
        }
        hash
    }
}

impl fmt::Display for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨")?;
        for (i, e) in self.edges.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{e}")?;
        }
        write!(f, "⟩")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::RoadNetworkBuilder;
    use crate::geo::Point;
    use crate::graph::RoadCategory;

    /// A line network v0 -> v1 -> ... -> v6 with edges e0..e5.
    fn line_net() -> RoadNetwork {
        let mut b = RoadNetworkBuilder::new();
        let vs: Vec<VertexId> = (0..7)
            .map(|i| b.add_vertex(Point::new(i as f64 * 100.0, 0.0)))
            .collect();
        for w in vs.windows(2) {
            b.add_edge(w[0], w[1], RoadCategory::Arterial).unwrap();
        }
        b.build()
    }

    fn p(ids: &[u32]) -> Path {
        Path::from_edges_unchecked(ids.iter().map(|&i| EdgeId(i)).collect())
    }

    #[test]
    fn new_validates_adjacency() {
        let net = line_net();
        assert!(Path::new(&net, vec![EdgeId(0), EdgeId(1), EdgeId(2)]).is_ok());
        let err = Path::new(&net, vec![EdgeId(0), EdgeId(2)]).unwrap_err();
        assert!(matches!(err, RoadNetError::NonAdjacentEdges { .. }));
        assert!(matches!(
            Path::new(&net, vec![]).unwrap_err(),
            RoadNetError::EmptyPath
        ));
    }

    #[test]
    fn new_rejects_repeated_vertices() {
        // Build a triangle so a cycle is possible: v0->v1->v2->v0.
        let mut b = RoadNetworkBuilder::new();
        let v0 = b.add_vertex(Point::new(0.0, 0.0));
        let v1 = b.add_vertex(Point::new(100.0, 0.0));
        let v2 = b.add_vertex(Point::new(0.0, 100.0));
        b.add_edge(v0, v1, RoadCategory::Arterial).unwrap();
        b.add_edge(v1, v2, RoadCategory::Arterial).unwrap();
        b.add_edge(v2, v0, RoadCategory::Arterial).unwrap();
        let net = b.build();
        let err = Path::new(&net, vec![EdgeId(0), EdgeId(1), EdgeId(2)]).unwrap_err();
        assert!(matches!(err, RoadNetError::RepeatedVertex(_)));
    }

    #[test]
    fn subpath_relation() {
        let full = p(&[1, 2, 3, 4]);
        assert!(p(&[2, 3]).is_subpath_of(&full));
        assert!(p(&[1, 2, 3, 4]).is_subpath_of(&full));
        assert!(!p(&[1, 3]).is_subpath_of(&full));
        assert!(!p(&[4, 5]).is_subpath_of(&full));
        assert_eq!(full.subpath_offset(&p(&[3, 4])), Some(2));
        assert_eq!(full.subpath_offset(&p(&[0, 1])), None);
    }

    #[test]
    fn intersect_matches_paper_example() {
        // ⟨e1,e2,e3⟩ ∩ ⟨e2,e3,e4⟩ = ⟨e2,e3⟩
        let a = p(&[1, 2, 3]);
        let b = p(&[2, 3, 4]);
        assert_eq!(a.intersect(&b), Some(p(&[2, 3])));
        assert_eq!(b.intersect(&a), Some(p(&[2, 3])));
        assert_eq!(p(&[1, 2]).intersect(&p(&[5, 6])), None);
    }

    #[test]
    fn subtract_matches_paper_example() {
        // ⟨e1,e2,e3⟩ \ ⟨e2,e3,e4⟩ = ⟨e1⟩
        let a = p(&[1, 2, 3]);
        let b = p(&[2, 3, 4]);
        assert_eq!(a.subtract(&b), Some(p(&[1])));
        assert_eq!(b.subtract(&a), Some(p(&[4])));
        assert_eq!(a.subtract(&a), None);
    }

    #[test]
    fn concat_and_extend_validate() {
        let net = line_net();
        let a = Path::new(&net, vec![EdgeId(0), EdgeId(1)]).unwrap();
        let b = Path::new(&net, vec![EdgeId(2), EdgeId(3)]).unwrap();
        let joined = a.concat(&b, &net).unwrap();
        assert_eq!(joined.cardinality(), 4);
        let extended = joined.extend(EdgeId(4), &net).unwrap();
        assert_eq!(extended.last_edge(), EdgeId(4));
        assert!(a.concat(&a, &net).is_err());
        assert!(a.extend(EdgeId(3), &net).is_err());
    }

    #[test]
    fn combine_grows_rank_by_one() {
        let net = line_net();
        let a = Path::new(&net, vec![EdgeId(0), EdgeId(1), EdgeId(2)]).unwrap();
        let b = Path::new(&net, vec![EdgeId(1), EdgeId(2), EdgeId(3)]).unwrap();
        let combined = a.combine(&b, &net).unwrap();
        assert_eq!(combined, p(&[0, 1, 2, 3]));
        // Mismatched overlap fails.
        let c = Path::new(&net, vec![EdgeId(2), EdgeId(3), EdgeId(4)]).unwrap();
        assert!(a.combine(&c, &net).is_none());
        // Unit paths combine when adjacent.
        let u0 = Path::unit(EdgeId(0));
        let u1 = Path::unit(EdgeId(1));
        assert_eq!(u0.combine(&u1, &net).unwrap(), p(&[0, 1]));
        let u3 = Path::unit(EdgeId(3));
        assert!(u0.combine(&u3, &net).is_none());
    }

    #[test]
    fn subpaths_of_length_enumerates_windows() {
        let full = p(&[1, 2, 3, 4]);
        let subs = full.subpaths_of_length(2);
        assert_eq!(subs, vec![p(&[1, 2]), p(&[2, 3]), p(&[3, 4])]);
        assert!(full.subpaths_of_length(0).is_empty());
        assert!(full.subpaths_of_length(5).is_empty());
        assert_eq!(full.subpaths_of_length(4), vec![full]);
    }

    #[test]
    fn prefix_suffix_slice() {
        let full = p(&[1, 2, 3, 4]);
        assert_eq!(full.prefix(2), Some(p(&[1, 2])));
        assert_eq!(full.suffix(2), Some(p(&[3, 4])));
        assert_eq!(full.suffix(4), None);
        assert_eq!(full.slice(1, 2), Some(p(&[2, 3])));
        assert_eq!(full.slice(3, 2), None);
    }

    #[test]
    fn vertices_and_length() {
        let net = line_net();
        let path = Path::new(&net, vec![EdgeId(0), EdgeId(1)]).unwrap();
        let vs = path.vertices(&net).unwrap();
        assert_eq!(vs, vec![VertexId(0), VertexId(1), VertexId(2)]);
        assert!((path.length_m(&net).unwrap() - 200.0).abs() < 1e-9);
    }

    #[test]
    fn fingerprints_are_deterministic_and_order_sensitive() {
        assert_eq!(p(&[1, 2, 3]).fingerprint(), p(&[1, 2, 3]).fingerprint());
        assert_ne!(p(&[1, 2, 3]).fingerprint(), p(&[3, 2, 1]).fingerprint());
        assert_ne!(p(&[1, 2]).fingerprint(), p(&[1, 2, 3]).fingerprint());
        assert_ne!(p(&[1]).fingerprint(), p(&[2]).fingerprint());
    }

    #[test]
    fn display_formats_edges() {
        let path = p(&[1, 2]);
        assert_eq!(path.to_string(), "⟨e1, e2⟩");
    }

    #[test]
    #[should_panic(expected = "at least one edge")]
    fn unchecked_empty_path_panics() {
        let _ = Path::from_edges_unchecked(vec![]);
    }
}
