//! The directed road-network graph.

use crate::error::RoadNetError;
use crate::geo::{Point, Polyline};
use crate::ids::{EdgeId, VertexId};
use serde::{Deserialize, Serialize};

/// Functional class of a road segment.
///
/// The class drives the free-flow speed, the congestion profile used by the
/// traffic simulator and how likely trips are to be routed over the segment,
/// mirroring the mix of motorways, arterials and residential streets in the
/// paper's Aalborg and Beijing networks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RoadCategory {
    /// Grade-separated, high-speed roads.
    Motorway,
    /// Major urban through roads.
    Arterial,
    /// Connector roads between arterials and residential streets.
    Collector,
    /// Low-speed residential streets.
    Residential,
}

impl RoadCategory {
    /// Typical free-flow speed for the category, in km/h.
    pub fn default_speed_limit_kmh(self) -> f64 {
        match self {
            RoadCategory::Motorway => 110.0,
            RoadCategory::Arterial => 70.0,
            RoadCategory::Collector => 50.0,
            RoadCategory::Residential => 30.0,
        }
    }

    /// All categories, ordered from fastest to slowest.
    pub fn all() -> [RoadCategory; 4] {
        [
            RoadCategory::Motorway,
            RoadCategory::Arterial,
            RoadCategory::Collector,
            RoadCategory::Residential,
        ]
    }
}

/// A vertex: a road intersection or the end of a road.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Vertex {
    /// The vertex identifier (its index in the network).
    pub id: VertexId,
    /// Location in the local planar frame.
    pub location: Point,
}

/// A directed edge: a road segment from `from` to `to`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Edge {
    /// The edge identifier (its index in the network).
    pub id: EdgeId,
    /// Start vertex (`e.s` in the paper's notation).
    pub from: VertexId,
    /// End vertex (`e.d` in the paper's notation).
    pub to: VertexId,
    /// Length of the segment in metres.
    pub length_m: f64,
    /// Posted speed limit in km/h, used for speed-limit-derived unit-path weights.
    pub speed_limit_kmh: f64,
    /// Functional road class.
    pub category: RoadCategory,
    /// Road grade (vertical rise / horizontal run), used by the emission model.
    pub grade: f64,
    /// Geometry of the segment.
    pub geometry: Polyline,
}

impl Edge {
    /// Free-flow traversal time of the edge in seconds, derived from its
    /// length and speed limit.
    pub fn free_flow_time_s(&self) -> f64 {
        self.length_m / (self.speed_limit_kmh / 3.6)
    }
}

/// A directed road-network graph `G = (V, E)`.
///
/// Vertices and edges are stored in index order; [`VertexId`] and [`EdgeId`]
/// are indices into those vectors. Adjacency is kept as per-vertex out-edge
/// and in-edge lists, which is the access pattern needed by path validation,
/// trip generation and routing.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RoadNetwork {
    vertices: Vec<Vertex>,
    edges: Vec<Edge>,
    out_edges: Vec<Vec<EdgeId>>,
    in_edges: Vec<Vec<EdgeId>>,
}

impl RoadNetwork {
    /// Creates a network from already-validated vertices and edges.
    ///
    /// This is used by [`crate::builder::RoadNetworkBuilder`]; library users
    /// should prefer the builder, which validates inputs.
    pub(crate) fn from_parts(vertices: Vec<Vertex>, edges: Vec<Edge>) -> Self {
        let mut out_edges = vec![Vec::new(); vertices.len()];
        let mut in_edges = vec![Vec::new(); vertices.len()];
        for edge in &edges {
            out_edges[edge.from.index()].push(edge.id);
            in_edges[edge.to.index()].push(edge.id);
        }
        RoadNetwork {
            vertices,
            edges,
            out_edges,
            in_edges,
        }
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.vertices.len()
    }

    /// Number of directed edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// All vertices in identifier order.
    pub fn vertices(&self) -> &[Vertex] {
        &self.vertices
    }

    /// All edges in identifier order.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Looks up a vertex, failing if the identifier is out of range.
    pub fn vertex(&self, id: VertexId) -> Result<&Vertex, RoadNetError> {
        self.vertices
            .get(id.index())
            .ok_or(RoadNetError::UnknownVertex(id))
    }

    /// Looks up an edge, failing if the identifier is out of range.
    pub fn edge(&self, id: EdgeId) -> Result<&Edge, RoadNetError> {
        self.edges
            .get(id.index())
            .ok_or(RoadNetError::UnknownEdge(id))
    }

    /// Returns `true` if `id` refers to an edge of this network.
    pub fn contains_edge(&self, id: EdgeId) -> bool {
        id.index() < self.edges.len()
    }

    /// Outgoing edges of a vertex.
    pub fn out_edges(&self, v: VertexId) -> &[EdgeId] {
        self.out_edges
            .get(v.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Incoming edges of a vertex.
    pub fn in_edges(&self, v: VertexId) -> &[EdgeId] {
        self.in_edges
            .get(v.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Returns `true` if `second` can directly follow `first` on a path,
    /// i.e. the end vertex of `first` is the start vertex of `second`.
    pub fn edges_adjacent(&self, first: EdgeId, second: EdgeId) -> bool {
        match (
            self.edges.get(first.index()),
            self.edges.get(second.index()),
        ) {
            (Some(a), Some(b)) => a.to == b.from,
            _ => false,
        }
    }

    /// The edges that can follow `edge` on a path (successors of its end vertex).
    pub fn successors(&self, edge: EdgeId) -> &[EdgeId] {
        match self.edges.get(edge.index()) {
            Some(e) => self.out_edges(e.to),
            None => &[],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::RoadNetworkBuilder;

    fn small_net() -> RoadNetwork {
        // v0 -> v1 -> v2, plus v2 -> v0 closing a cycle.
        let mut b = RoadNetworkBuilder::new();
        let v0 = b.add_vertex(Point::new(0.0, 0.0));
        let v1 = b.add_vertex(Point::new(100.0, 0.0));
        let v2 = b.add_vertex(Point::new(200.0, 0.0));
        b.add_edge(v0, v1, RoadCategory::Arterial).unwrap();
        b.add_edge(v1, v2, RoadCategory::Arterial).unwrap();
        b.add_edge(v2, v0, RoadCategory::Collector).unwrap();
        b.build()
    }

    #[test]
    fn counts_and_lookup() {
        let net = small_net();
        assert_eq!(net.vertex_count(), 3);
        assert_eq!(net.edge_count(), 3);
        assert!(net.vertex(VertexId(2)).is_ok());
        assert!(net.vertex(VertexId(3)).is_err());
        assert!(net.edge(EdgeId(0)).is_ok());
        assert!(net.edge(EdgeId(9)).is_err());
    }

    #[test]
    fn adjacency_follows_direction() {
        let net = small_net();
        assert!(net.edges_adjacent(EdgeId(0), EdgeId(1)));
        assert!(!net.edges_adjacent(EdgeId(1), EdgeId(0)));
        assert_eq!(net.successors(EdgeId(0)), &[EdgeId(1)]);
        assert_eq!(net.out_edges(VertexId(0)), &[EdgeId(0)]);
        assert_eq!(net.in_edges(VertexId(0)), &[EdgeId(2)]);
    }

    #[test]
    fn edge_free_flow_time() {
        let net = small_net();
        let e = net.edge(EdgeId(0)).unwrap();
        let expected = e.length_m / (e.speed_limit_kmh / 3.6);
        assert!((e.free_flow_time_s() - expected).abs() < 1e-9);
        assert!(e.free_flow_time_s() > 0.0);
    }

    #[test]
    fn category_speed_defaults_ordered() {
        let speeds: Vec<f64> = RoadCategory::all()
            .iter()
            .map(|c| c.default_speed_limit_kmh())
            .collect();
        for w in speeds.windows(2) {
            assert!(w[0] > w[1], "faster classes come first");
        }
    }
}
