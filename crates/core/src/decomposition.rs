//! Path decompositions and the coarsest-decomposition algorithm (§4.1).
//!
//! A decomposition of a query path is an ordered sequence of sub-paths that
//! together cover the path, where no component is a sub-path of another
//! (spatial conditions 1–4). Each decomposition induces a set of (conditional)
//! independence assumptions, and by Theorem 3 the *coarsest* decomposition —
//! the one whose components are as long as possible — yields the most accurate
//! joint-distribution estimate. Algorithm 1 constructs it from the candidate
//! array by walking the rows and taking the highest-rank variable whose path is
//! not already contained in a previously chosen component.

use crate::candidate::{CandidateArray, SelectedVariable};
use rand::Rng;

/// A decomposition of a query path into spatio-temporally relevant variables.
#[derive(Debug, Clone)]
pub struct Decomposition {
    components: Vec<SelectedVariable>,
    /// Component ranks, precomputed so hot metadata readers borrow instead of
    /// allocating a fresh `Vec` per call.
    ranks: Vec<usize>,
    query_len: usize,
}

impl Decomposition {
    /// Assembles a decomposition, precomputing the component ranks.
    pub(crate) fn assemble(components: Vec<SelectedVariable>, query_len: usize) -> Decomposition {
        let ranks = components.iter().map(SelectedVariable::rank).collect();
        Decomposition {
            components,
            ranks,
            query_len,
        }
    }

    /// Walks the rows left to right and chains the variable `pick` takes from
    /// each, given the furthest end covered so far. A pick that ends no later
    /// than that is a sub-path of an already chosen component (it would
    /// violate spatial condition 3) and is skipped, as is a row with none.
    fn chained<'a>(
        array: &'a CandidateArray,
        mut pick: impl FnMut(&'a [SelectedVariable], usize) -> Option<&'a SelectedVariable>,
    ) -> Decomposition {
        let mut components: Vec<SelectedVariable> = Vec::new();
        let mut covered_end = 0usize;
        for row in &array.rows {
            if let Some(v) = pick(row, covered_end).filter(|v| v.end() > covered_end) {
                covered_end = v.end();
                components.push(v.clone());
            }
        }
        Decomposition::assemble(components, array.len())
    }

    /// Algorithm 1: the coarsest decomposition obtainable from the candidate
    /// array — every row's highest-rank variable that extends the coverage.
    pub fn coarsest(array: &CandidateArray) -> Decomposition {
        Self::chained(array, |row, _| row.last())
    }

    /// A random valid decomposition (the RD baseline): at each row a variable
    /// is chosen uniformly at random among those extending the coverage.
    pub fn random<R: Rng + ?Sized>(array: &CandidateArray, rng: &mut R) -> Decomposition {
        Self::chained(array, |row, covered_end| {
            let extending: Vec<&SelectedVariable> =
                row.iter().filter(|v| v.end() > covered_end).collect();
            (!extending.is_empty()).then(|| extending[rng.gen_range(0..extending.len())])
        })
    }

    /// The components in path order.
    pub fn components(&self) -> &[SelectedVariable] {
        &self.components
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// `true` when the decomposition has no components.
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }

    /// The cardinality of the query path this decomposition belongs to.
    pub fn query_len(&self) -> usize {
        self.query_len
    }

    /// The ranks of the components (useful for diagnostics and tests),
    /// precomputed at construction.
    pub fn ranks(&self) -> &[usize] {
        &self.ranks
    }

    /// Validates the spatial conditions (1)–(4) of §4.1.1:
    /// components are sub-paths (guaranteed by construction), they cover the
    /// query path, none is a sub-path of another, and they are ordered by
    /// their first edge.
    pub fn is_valid(&self) -> bool {
        if self.components.is_empty() {
            return false;
        }
        // Condition (4): ordered by start position, strictly increasing (two
        // components starting at the same edge would make one a prefix of the
        // other, violating (3)). Condition (3): no component contained in
        // another — with sorted starts it suffices that ends strictly increase.
        for w in self.components.windows(2) {
            if w[1].start <= w[0].start || w[1].end() <= w[0].end() {
                return false;
            }
        }
        // Condition (2): together they cover [0, query_len).
        let mut covered_end = 0usize;
        for c in &self.components {
            if c.start > covered_end {
                return false;
            }
            covered_end = covered_end.max(c.end());
        }
        covered_end == self.query_len
    }

    /// `true` if `self` is coarser than `other` (§4.1.1): every component of
    /// `other` is a sub-path of some component of `self`, and at least one
    /// component differs.
    pub fn is_coarser_than(&self, other: &Decomposition) -> bool {
        let mut any_different = false;
        for oc in &other.components {
            let contained = self
                .components
                .iter()
                .any(|sc| oc.start >= sc.start && oc.end() <= sc.end());
            if !contained {
                return false;
            }
            if !self
                .components
                .iter()
                .any(|sc| sc.start == oc.start && sc.end() == oc.end())
            {
                any_different = true;
            }
        }
        any_different || self.components.len() != other.components.len()
    }

    /// The number of edges shared between component `i` and component `i + 1`.
    pub fn overlap_len(&self, i: usize) -> usize {
        if i + 1 >= self.components.len() {
            return 0;
        }
        let a = &self.components[i];
        let b = &self.components[i + 1];
        a.end().saturating_sub(b.start)
    }

    /// The estimated joint-distribution entropy `H_DE` of Theorem 2:
    /// `Σ H(C_{P_i}) − Σ H(C_{P_i ∩ P_{i−1}})`, where the overlap entropy is
    /// computed from the later component's marginal over the shared edges.
    pub fn entropy_hde(&self) -> f64 {
        let mut h = 0.0;
        for c in &self.components {
            h += c.var.entropy();
        }
        for i in 0..self.components.len().saturating_sub(1) {
            let overlap = self.overlap_len(i);
            if overlap == 0 {
                continue;
            }
            let next = &self.components[i + 1];
            let dims: Vec<usize> = (0..overlap).collect();
            if let Ok(marginal) = next.var.histogram.marginal(&dims) {
                h -= marginal.entropy();
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidate::CandidateArray;
    use crate::config::HybridConfig;
    use crate::hybrid_graph::HybridGraph;
    use pathcost_traj::DatasetPreset;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    struct Fixture {
        net: pathcost_roadnet::RoadNetwork,
        store: pathcost_traj::TrajectoryStore,
        cfg: HybridConfig,
        query: pathcost_roadnet::Path,
        departure: pathcost_traj::Timestamp,
    }

    fn fixture() -> Fixture {
        let (net, store) = DatasetPreset::tiny(41).materialise().unwrap();
        let cfg = HybridConfig {
            beta: 10,
            ..HybridConfig::default()
        };
        let frequent = store.frequent_paths(5, 10, None);
        let (query, _) = frequent
            .first()
            .cloned()
            .unwrap_or_else(|| store.frequent_paths(4, 10, None)[0].clone());
        let departure = store.occurrences_on(&query)[0].entry_time;
        Fixture {
            net,
            store,
            cfg,
            query,
            departure,
        }
    }

    fn array(f: &Fixture, cap: Option<usize>) -> CandidateArray {
        let graph = HybridGraph::build(&f.net, &f.store, f.cfg.clone()).unwrap();
        CandidateArray::build(&graph, &f.query, f.departure, cap).unwrap()
    }

    #[test]
    fn coarsest_is_valid_and_covers_the_query() {
        let f = fixture();
        let a = array(&f, None);
        let d = Decomposition::coarsest(&a);
        assert!(d.is_valid(), "ranks: {:?}", d.ranks());
        assert_eq!(d.query_len(), f.query.cardinality());
        assert!(!d.is_empty());
    }

    /// The legacy (LB) decomposition: the coarsest one under a cap of 1,
    /// every edge's unit variable.
    fn lb_decomposition(f: &Fixture) -> Decomposition {
        Decomposition::coarsest(&array(f, Some(1)))
    }

    #[test]
    fn legacy_uses_only_unit_variables() {
        let f = fixture();
        let d = lb_decomposition(&f);
        assert!(d.is_valid());
        assert!(d.ranks().iter().all(|&r| r == 1));
        assert_eq!(d.len(), f.query.cardinality());
        // No overlaps between unit components.
        for i in 0..d.len() {
            assert_eq!(d.overlap_len(i), 0);
        }
    }

    #[test]
    fn random_decompositions_are_valid() {
        let f = fixture();
        let a = array(&f, None);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..20 {
            let d = Decomposition::random(&a, &mut rng);
            assert!(d.is_valid(), "ranks: {:?}", d.ranks());
        }
    }

    #[test]
    fn coarsest_is_coarser_than_legacy_when_higher_ranks_exist() {
        let f = fixture();
        let a = array(&f, None);
        let coarsest = Decomposition::coarsest(&a);
        let legacy = lb_decomposition(&f);
        if coarsest.ranks().iter().any(|&r| r > 1) {
            assert!(coarsest.is_coarser_than(&legacy));
            assert!(!legacy.is_coarser_than(&coarsest));
        }
    }

    #[test]
    fn coarsest_has_no_fewer_total_covered_edges_than_any_random_decomposition() {
        let f = fixture();
        let a = array(&f, None);
        let coarsest = Decomposition::coarsest(&a);
        let coarsest_max_rank = coarsest.ranks().iter().copied().max().unwrap_or(1);
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..10 {
            let rd = Decomposition::random(&a, &mut rng);
            let rd_max_rank = rd.ranks().iter().copied().max().unwrap_or(1);
            assert!(coarsest_max_rank >= rd_max_rank);
        }
    }

    #[test]
    fn theorem3_entropy_ordering_between_coarsest_and_legacy() {
        // H_DE of the coarsest decomposition must not exceed that of the
        // finest (legacy) decomposition — Theorem 3 expressed through Theorem 2.
        let f = fixture();
        let a = array(&f, None);
        let coarsest = Decomposition::coarsest(&a);
        let legacy = lb_decomposition(&f);
        assert!(
            coarsest.entropy_hde() <= legacy.entropy_hde() + 1e-9,
            "coarsest H_DE {} vs legacy {}",
            coarsest.entropy_hde(),
            legacy.entropy_hde()
        );
    }

    #[test]
    fn rank_capped_array_produces_rank_capped_decomposition() {
        let f = fixture();
        let a = array(&f, Some(2));
        let d = Decomposition::coarsest(&a);
        assert!(d.is_valid());
        assert!(d.ranks().iter().all(|&r| r <= 2));
    }

    #[test]
    fn overlap_lengths_are_consistent_with_component_geometry() {
        let f = fixture();
        let a = array(&f, None);
        let d = Decomposition::coarsest(&a);
        for i in 0..d.len().saturating_sub(1) {
            let a_end = d.components()[i].end();
            let b_start = d.components()[i + 1].start;
            let expected = a_end.saturating_sub(b_start);
            assert_eq!(d.overlap_len(i), expected);
            assert!(d.overlap_len(i) < d.components()[i + 1].rank());
        }
    }
}
