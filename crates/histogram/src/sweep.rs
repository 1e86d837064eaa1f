//! Sweep-line rearrangement and tournament-tree coarsening kernels.
//!
//! Both the §4.2 overlap rearrangement and the convolution of two histograms
//! reduce to the same problem: a set of weighted intervals ("boxcars", each
//! with uniform density) must be flattened into disjoint buckets whose
//! boundaries are the union of the input boundaries. The naive formulation
//! (kept as test code, `tests/support/hist_naive.rs` at the repository root)
//! integrates every input bucket over every elementary interval —
//! `O(entries × cuts)`, which is quartic in the bucket count for a
//! convolution. The sweep here turns every interval into two density events,
//! sorts them once, and accumulates a running density in a single pass:
//! `O(n log n)` with no intermediate allocation beyond the reusable event
//! buffer.
//!
//! Coarsening (greedy merging of the adjacent bucket pair with the smallest
//! combined probability) is likewise reimplemented from the naive
//! rescan-per-merge `O(n²)` loop: the live pairs sit in the leaves of a
//! fixed-size tournament tree keyed `(mass bits, left index)`, whose root is
//! the next pair to merge; a merge rewrites three leaves and re-plays their
//! `log n` matches, so there are no stale entries to skip and nothing grows.
//! `O(n log n)`, the exact same merge sequence and leftmost tie-breaking.
//!
//! [`rebucket`] chains the two — sweep, normalise, coarsen — on one
//! [`RebucketScratch`], for callers that re-bucket in a loop (the joint
//! chain's state merge) and want neither intermediate [`crate::Histogram1D`].

use crate::bucket::Bucket;
use crate::error::HistError;
use std::cell::RefCell;

/// Cut points closer than this are merged into one boundary, mirroring the
/// dedup tolerance of the naive rearrangement.
pub(crate) const CUT_MERGE_EPS: f64 = 1e-12;

/// Elementary intervals with less mass than this are dropped, mirroring the
/// naive rearrangement's threshold.
pub(crate) const MIN_ELEMENTARY_MASS: f64 = 1e-15;

/// Pushes the two density events of a weighted interval.
#[inline]
pub(crate) fn push_box(events: &mut Vec<(f64, f64)>, lo: f64, hi: f64, mass: f64) {
    if mass > 0.0 {
        let density = mass / (hi - lo);
        events.push((lo, density));
        events.push((hi, -density));
    }
}

/// Sorts the accumulated events and emits disjoint `(bucket, mass)` entries.
///
/// The running density uses Kahan-compensated summation so the long
/// add/subtract chains of large convolutions do not drift; masses are the
/// density times the elementary width, exactly the integral the naive
/// rearrangement computes per interval. `events` is drained (left empty) for
/// reuse.
pub(crate) fn sweep_into(events: &mut Vec<(f64, f64)>, out: &mut Vec<(Bucket, f64)>) {
    out.clear();
    if events.is_empty() {
        return;
    }
    events.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
    let mut density = 0.0f64;
    let mut compensation = 0.0f64;
    let n = events.len();
    let mut i = 0usize;
    let mut cut = events[0].0;
    while i < n {
        // Absorb every event within the merge tolerance of this cut.
        while i < n && events[i].0 - cut < CUT_MERGE_EPS {
            let y = events[i].1 - compensation;
            let t = density + y;
            compensation = (t - density) - y;
            density = t;
            i += 1;
        }
        if i >= n {
            break;
        }
        let next = events[i].0;
        let mass = density * (next - cut);
        if mass > MIN_ELEMENTARY_MASS {
            out.push((Bucket::new_unchecked(cut, next), mass));
        }
        cut = next;
    }
    events.clear();
}

const NIL: u32 = u32::MAX;

/// Key of a pair slot that holds no live pair. Pair masses are finite, so
/// their bit patterns all order below it.
const DEAD: u64 = u64::MAX;

/// Reusable buffers for [`coarsen_entries_in_place`].
#[derive(Debug, Default)]
pub struct CoarsenScratch {
    /// Tournament tree over the pair slots, one leaf per left bucket index:
    /// leaf `i` sits at `tree[size + i]` (`size` the leaf count rounded up to
    /// a power of two) and holds `(key, i)`, the key being the bit pattern of
    /// the combined mass of the pair whose left bucket is `i` — [`DEAD`] when
    /// `i` is merged away or has no right neighbour. Every inner node copies
    /// the child with the smaller key, the left one on ties, so `tree[1]` is
    /// the leftmost smallest live pair.
    tree: Vec<(u64, u32)>,
    next: Vec<u32>,
    prev: Vec<u32>,
}

/// Re-plays the matches above the pair slots `leaves` after their keys
/// changed, the three paths level by level (they are independent until they
/// join, and re-playing a shared node twice is harmless).
#[inline]
fn replay(tree: &mut [(u64, u32)], leaves: [usize; 3]) {
    let size = tree.len() / 2;
    let mut nodes = leaves.map(|leaf| (size + leaf) / 2);
    while nodes[0] >= 1 {
        for node in &mut nodes {
            let (left, right) = (tree[2 * *node], tree[2 * *node + 1]);
            tree[*node] = if left.0 <= right.0 { left } else { right };
            *node /= 2;
        }
    }
}

/// Greedily merges the adjacent pair with the smallest combined mass until at
/// most `max_buckets` entries remain, in place.
///
/// Pair masses are non-negative finite, so their IEEE-754 bit patterns order
/// exactly like the values; the tournament tree keeps the minimum of
/// `(mass.to_bits(), left_index)` over the live pairs only — a merge rewrites
/// the three slots it touches and re-plays their matches — so its root is the
/// same leftmost-smallest pair the naive rescan picks.
pub(crate) fn coarsen_entries_in_place(
    entries: &mut Vec<(Bucket, f64)>,
    max_buckets: usize,
    scratch: &mut CoarsenScratch,
) {
    let max_buckets = max_buckets.max(1);
    let n = entries.len();
    if n <= max_buckets {
        return;
    }
    let last = u32::try_from(n - 1).expect("fewer than 2^32 entries to coarsen");
    let CoarsenScratch { tree, next, prev } = scratch;
    next.clear();
    next.extend(1..=last);
    next.push(NIL);
    prev.clear();
    prev.push(NIL);
    prev.extend(0..last);
    // One pair slot per entry but the last.
    let size = (n - 1).next_power_of_two();
    tree.clear();
    tree.resize(size, (DEAD, 0));
    tree.extend(
        entries
            .windows(2)
            .zip(0u32..)
            .map(|(w, i)| ((w[0].1 + w[1].1).to_bits(), i)),
    );
    tree.resize(2 * size, (DEAD, 0));
    for node in (1..size).rev() {
        let (left, right) = (tree[2 * node], tree[2 * node + 1]);
        tree[node] = if left.0 <= right.0 { left } else { right };
    }
    for _ in max_buckets..n {
        let (key, i) = tree[1];
        debug_assert!(key != DEAD, "two entries left always form a live pair");
        let i = i as usize;
        let j = next[i] as usize;
        entries[i] = (
            Bucket::new_unchecked(entries[i].0.lo, entries[j].0.hi),
            entries[i].1 + entries[j].1,
        );
        let after = next[j];
        next[i] = after;
        // The slots whose pair changed: `i`, its left neighbour and — unless
        // `j` was the last entry and never the left of a pair — `j`.
        let mut touched = [i; 3];
        if after != NIL {
            prev[after as usize] = i as u32;
            tree[size + i].0 = (entries[i].1 + entries[after as usize].1).to_bits();
            tree[size + j].0 = DEAD;
            touched[1] = j;
        } else {
            tree[size + i].0 = DEAD;
        }
        let before = prev[i];
        if before != NIL {
            let before = before as usize;
            tree[size + before].0 = (entries[before].1 + entries[i].1).to_bits();
            touched[2] = before;
        }
        replay(tree, touched);
    }
    // The survivors are the `next` chain from entry 0 (a merge always keeps
    // its left entry).
    let (mut read, mut write) = (next[0], 1usize);
    while read != NIL {
        entries[write] = entries[read as usize];
        write += 1;
        read = next[read as usize];
    }
    entries.truncate(write);
}

/// Reusable buffers for [`rebucket`]; one per thread also backs the
/// scratch-free [`Histogram1D::from_overlapping`](crate::Histogram1D::from_overlapping)
/// and [`Histogram1D::coarsen`](crate::Histogram1D::coarsen).
#[derive(Debug, Default)]
pub struct RebucketScratch {
    pub(crate) events: Vec<(f64, f64)>,
    pub(crate) entries: Vec<(Bucket, f64)>,
    pub(crate) coarsen: CoarsenScratch,
}

/// The §4.2 rearrangement on scratch arrays: validates the overlapping
/// `entries`, flattens them with the sweep and normalises the masses, leaving
/// the disjoint sorted `(bucket, probability)` entries in `scratch.entries`.
pub(crate) fn rearrange(
    entries: &[(Bucket, f64)],
    scratch: &mut RebucketScratch,
) -> Result<(), HistError> {
    if entries.is_empty() {
        return Err(HistError::EmptyInput);
    }
    for &(_, p) in entries {
        if !p.is_finite() || p < 0.0 {
            return Err(HistError::InvalidProbability(p));
        }
    }
    let RebucketScratch {
        events,
        entries: out,
        ..
    } = scratch;
    events.clear();
    for &(b, p) in entries {
        push_box(events, b.lo, b.hi, p);
    }
    sweep_into(events, out);
    if out.is_empty() {
        return Err(HistError::EmptyInput);
    }
    let total: f64 = out.iter().map(|&(_, m)| m).sum();
    if total <= 0.0 {
        return Err(HistError::InvalidProbability(total));
    }
    for (_, m) in out.iter_mut() {
        *m /= total;
    }
    Ok(())
}

/// Rearranges overlapping `(bucket, mass)` entries into at most `max_buckets`
/// disjoint sorted buckets with probabilities summing to one — bit for bit
/// the buckets and probabilities of
/// `Histogram1D::from_overlapping(entries)?.coarsen(max_buckets)`, without
/// building either histogram. The result borrows `scratch`.
pub fn rebucket<'s>(
    entries: &[(Bucket, f64)],
    max_buckets: usize,
    scratch: &'s mut RebucketScratch,
) -> Result<&'s [(Bucket, f64)], HistError> {
    rearrange(entries, scratch)?;
    coarsen_entries_in_place(&mut scratch.entries, max_buckets, &mut scratch.coarsen);
    Ok(&scratch.entries)
}

thread_local! {
    static LOCAL: RefCell<RebucketScratch> = RefCell::new(RebucketScratch::default());
}

/// Runs `f` with this thread's reusable sweep/coarsen buffers, so the
/// scratch-free public APIs allocate nothing in steady state.
pub(crate) fn with_local_buffers<R>(f: impl FnOnce(&mut RebucketScratch) -> R) -> R {
    LOCAL.with(|cell| f(&mut cell.borrow_mut()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_flattens_overlapping_boxes() {
        let mut events = Vec::new();
        push_box(&mut events, 0.0, 10.0, 0.5);
        push_box(&mut events, 5.0, 15.0, 0.5);
        let mut out = Vec::new();
        sweep_into(&mut events, &mut out);
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].0.lo, 0.0);
        assert_eq!(out[1].0.lo, 5.0);
        assert_eq!(out[2].0.hi, 15.0);
        let total: f64 = out.iter().map(|&(_, m)| m).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert!(
            (out[1].1 - 0.5).abs() < 1e-12,
            "overlap doubles the density"
        );
        assert!(events.is_empty(), "events drained for reuse");
    }

    #[test]
    fn sweep_merges_cuts_within_tolerance() {
        let mut events = Vec::new();
        push_box(&mut events, 0.0, 1.0, 0.5);
        push_box(&mut events, 1.0 + 1e-13, 2.0, 0.5);
        let mut out = Vec::new();
        sweep_into(&mut events, &mut out);
        assert_eq!(out.len(), 2, "near-identical cuts collapse");
    }

    #[test]
    fn coarsen_in_place_merges_smallest_adjacent_pair_first() {
        let b = |lo: f64, hi: f64| Bucket::new(lo, hi).unwrap();
        let mut entries = vec![
            (b(0.0, 1.0), 0.1),
            (b(1.0, 2.0), 0.1),
            (b(2.0, 3.0), 0.3),
            (b(3.0, 4.0), 0.3),
            (b(4.0, 5.0), 0.2),
        ];
        let mut scratch = CoarsenScratch::default();
        coarsen_entries_in_place(&mut entries, 3, &mut scratch);
        assert_eq!(entries.len(), 3);
        // First merge is the leftmost smallest pair (0.1 + 0.1 over [0, 2)),
        // then the tie between the 0.5-mass pairs resolves leftmost again.
        assert_eq!(entries[0].0.lo, 0.0);
        assert_eq!(entries[0].0.hi, 3.0);
        assert!((entries[0].1 - 0.5).abs() < 1e-12);
        assert_eq!(entries[1].0.hi, 4.0);
        let total: f64 = entries.iter().map(|&(_, m)| m).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn coarsen_in_place_is_a_noop_when_small_enough() {
        let b = |lo: f64, hi: f64| Bucket::new(lo, hi).unwrap();
        let mut entries = vec![(b(0.0, 1.0), 0.4), (b(1.0, 2.0), 0.6)];
        let mut scratch = CoarsenScratch::default();
        coarsen_entries_in_place(&mut entries, 8, &mut scratch);
        assert_eq!(entries.len(), 2);
    }
}
