//! The best-first search allocates per *search* and per *candidate*, never
//! per expansion.
//!
//! A search's node slab, histogram arena, frontier heap, convolution buffers
//! and visited marks belong to the thread (`routing/src/bestfirst.rs`), and a
//! unit distribution is lent by the weight view, so once a thread has run a
//! search of some size, repeating it allocates only what it hands back: the
//! ranked list, and per evaluated candidate its materialised path (plus
//! whatever the estimator allocates — here nothing, the estimates are
//! memoised the way the serving layer's cache does it). This file counts
//! allocations with a `#[global_allocator]` and pins that: it is the guard
//! that keeps the next edit from putting a `Vec` back into the loop.
//!
//! The same counter guards a cold estimate's first step: a candidate-array
//! row holds its variables by reference, so building the array allocates
//! the row vectors and nothing per speed-limit fallback.

use pathcost::core::{chain_extension, chain_start, CandidateArray, CandidateSource, OdEstimator};
use pathcost::core::{CoreError, CostEstimator, EstimateBreakdown, HybridConfig, HybridGraph};
use pathcost::hist::convolution::convolve_with_limit;
use pathcost::hist::Histogram1D;
use pathcost::roadnet::search::{fastest_path, free_flow_time_s};
use pathcost::roadnet::{Path, VertexId};
use pathcost::routing::{BestFirstRouter, RouterConfig, SearchTelemetry};
use pathcost::traj::{DatasetPreset, Timestamp};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::Arc;

/// The system allocator, counting this thread's `alloc` and `realloc` calls.
struct Counting;

thread_local! {
    // Const-initialised and without a destructor, so touching it from inside
    // the allocator neither allocates nor re-enters.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a plain thread-local
// `Cell` that is never borrowed across a call.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations for `alloc` are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator, with this
        // layout, by the caller's obligations for `dealloc`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: as for `dealloc`, and `new_size` is the caller's to vouch for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// OD estimates, computed once per path and shared from then on — what the
/// serving layer's cached estimator does for the router.
struct Memo<'g, 'n> {
    od: OdEstimator<'g, 'n>,
    seen: RefCell<HashMap<Path, Arc<Histogram1D>>>,
}

impl CostEstimator for Memo<'_, '_> {
    fn estimate_arc(
        &self,
        path: &Path,
        departure: Timestamp,
    ) -> Result<Arc<Histogram1D>, CoreError> {
        if let Some(hit) = self.seen.borrow().get(path) {
            return Ok(hit.clone());
        }
        let fresh = self.od.estimate_arc(path, departure)?;
        self.seen.borrow_mut().insert(path.clone(), fresh.clone());
        Ok(fresh)
    }

    fn estimate_with_breakdown(
        &self,
        path: &Path,
        departure: Timestamp,
    ) -> Result<(Histogram1D, EstimateBreakdown), CoreError> {
        self.od.estimate_with_breakdown(path, departure)
    }
}

/// Allocations and telemetry of one top-2 search on a thread that has just
/// run the identical search.
fn warmed_search(
    router: &BestFirstRouter<'_, '_>,
    estimator: &dyn CostEstimator,
    (source, destination, budget): (VertexId, VertexId, f64),
) -> (u64, SearchTelemetry) {
    let departure = Timestamp::from_day_hms(0, 8, 0, 0);
    let search = || {
        router
            .route_top_k(
                estimator,
                source,
                destination,
                departure,
                budget,
                2,
                &|| false,
            )
            .unwrap()
    };
    let warm = search();
    let before = ALLOCATIONS.with(Cell::get);
    let (ranked, telemetry) = search();
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    assert_eq!(telemetry, warm.1, "the same search does the same work");
    assert!(!ranked.is_empty());
    (allocations, telemetry)
}

#[test]
fn a_warmed_search_allocates_per_candidate_not_per_expansion() {
    let (net, store) = DatasetPreset::tiny(91).materialise().unwrap();
    let cfg = HybridConfig {
        beta: 10,
        ..HybridConfig::default()
    };
    let graph = HybridGraph::build(&net, &store, cfg).unwrap();
    let router = BestFirstRouter::new(&graph, RouterConfig::default()).unwrap();
    let memo = Memo {
        od: OdEstimator::new(&graph),
        seen: RefCell::new(HashMap::new()),
    };
    let pair = |source: u32, destination: u32, budget_mult: f64| {
        let (source, destination) = (VertexId(source), VertexId(destination));
        let fastest = fastest_path(&net, source, destination).expect("connected fixture pair");
        let budget = free_flow_time_s(&net, &fastest) * budget_mult;
        (source, destination, budget)
    };

    // Neighbours on a tight budget, then corner to corner on a loose one.
    let (small_allocations, small) = warmed_search(&router, &memo, pair(0, 1, 1.5));
    let (large_allocations, large) = warmed_search(&router, &memo, pair(0, 24, 3.0));
    assert!(
        large.expansions >= 100 && large.expansions >= 5 * small.expansions,
        "the two searches must differ in size: {small:?} vs {large:?}"
    );

    // Per search: the ranked list and the result vector (measured: 2). Per
    // candidate: its path (measured: 1). Nothing per expansion — the larger
    // search expands an order of magnitude more nodes than it may allocate.
    for (allocations, telemetry) in [(small_allocations, small), (large_allocations, large)] {
        assert!(
            allocations <= 4 + telemetry.evaluated_candidates as u64,
            "{allocations} allocations for {telemetry:?}"
        );
    }
    assert!(4 + large.evaluated_candidates < large.expansions / 4);

    // The counter does count what the search no longer does: extending a
    // chain kept as one `Histogram1D` per link allocates.
    let edge = net.out_edges(VertexId(0))[0];
    let departure = Timestamp::from_day_hms(0, 8, 0, 0);
    let (start, window) = chain_start(&graph, edge, departure).unwrap();
    let next = net.out_edges(net.edge(edge).unwrap().to)[0];
    let before = ALLOCATIONS.with(Cell::get);
    let extended = chain_extension(&graph, next, window, |unit, limit| {
        convolve_with_limit(start, unit, limit)
    })
    .unwrap();
    assert!(ALLOCATIONS.with(Cell::get) - before >= 3);
    drop(extended);
}

#[test]
fn a_cold_candidate_array_allocates_its_rows_not_its_fallbacks() {
    let (net, store) = DatasetPreset::tiny(91).materialise().unwrap();
    let cfg = HybridConfig {
        beta: 10,
        ..HybridConfig::default()
    };
    let graph = HybridGraph::build(&net, &store, cfg).unwrap();
    let query = store
        .matched()
        .iter()
        .map(|m| &m.path)
        .max_by_key(|path| path.cardinality())
        .unwrap();
    // 03:00: nothing is instantiated, so every row is a speed-limit fallback.
    let departure = Timestamp::from_day_hms(0, 3, 0, 0);
    let build = || CandidateArray::build(&graph, query, departure, None).unwrap();
    let warm = build();
    assert!(
        warm.rows
            .iter()
            .flatten()
            .all(|v| v.source == CandidateSource::UnitFallback),
        "the fixture must be fallback-only"
    );
    assert!(warm.trajectory_unit_reads.is_empty());

    let before = ALLOCATIONS.with(Cell::get);
    let array = build();
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    let rows = array.rows.len() as u64;
    assert!(rows >= 8, "a long path: {rows} rows");
    // One `Vec` per row, plus the row list, the windows and the per-rank
    // scratch (measured: rows + 3). A row that built its fallback — a path,
    // a joint histogram, an `Arc` — would add at least three allocations.
    assert!(
        allocations <= rows + 4,
        "{allocations} allocations for {rows} fallback rows"
    );
    drop(array);
}
