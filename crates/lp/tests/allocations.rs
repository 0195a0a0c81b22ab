//! The solver's allocations per solve do not grow with its pivots or its
//! refactorizations: the LU refactors into its previous arrays, the eta
//! file is flat, the constraint rows are stored flat, and the crash basis
//! of a start point eliminates in the extraction's kept buffers, so what
//! a solve allocates depends on the problem's size, not on the path to its
//! optimum.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use tetrium_lp::{Problem, Relation};

/// Counts the allocations and reallocations of the current thread and
/// forwards every call to the system allocator.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches no allocation.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's guarantees for `layout` hold for `System`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// A map-placement LP over `n` sites: site `x` ships fractions `a[x][y]`
/// of its data to the destinations `y < dests` and to itself, one
/// epigraph column `T` bounds every upload, download and compute time,
/// and moving data costs a little. Data, tasks, links and slots are drawn
/// from `seed`; the spread of the data volumes cycles with it, which
/// spreads the pivot counts. With `start`, the solve starts from the
/// In-Place point: every site keeps its data and `T` is the largest
/// compute time.
fn map_lp(n: usize, dests: usize, seed: u64, start: bool) -> Problem {
    let mut state = seed;
    let mut draw = |lo: u64, hi: u64| {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (lo + (state >> 33) % (hi - lo)) as f64
    };
    let spread = 2 + 10 * (seed % 4);
    let data: Vec<f64> = (0..n).map(|_| draw(1, spread)).collect();
    let tasks: Vec<f64> = (0..n).map(|_| draw(1, 20)).collect();
    let up: Vec<f64> = (0..n).map(|_| draw(1, 10)).collect();
    let down: Vec<f64> = (0..n).map(|_| draw(1, 10)).collect();
    let slots: Vec<f64> = (0..n).map(|_| draw(1, 16)).collect();
    // Site x's columns: its destinations in ascending order.
    let ys = |x: usize| (0..dests).chain((x >= dests).then_some(x));
    let mut var = Vec::with_capacity(n);
    let mut nv = 0;
    for x in 0..n {
        var.push(nv);
        nv += ys(x).count();
    }
    let col = |x: usize, y: usize| var[x] + ys(x).position(|d| d == y).unwrap();
    let t = nv;
    let mut p = Problem::minimize(nv + 1);
    p.add_objective_term(t, 1.0);
    for x in 0..n {
        for y in ys(x).filter(|&y| y != x) {
            p.add_objective_term(col(x, y), 0.01 * draw(1, 5));
        }
    }
    for x in 0..n {
        let terms: Vec<(usize, f64)> = ys(x).map(|y| (col(x, y), 1.0)).collect();
        p.add_constraint(&terms, Relation::Eq, 1.0);
        let mut terms: Vec<(usize, f64)> = ys(x)
            .filter(|&y| y != x)
            .map(|y| (col(x, y), data[x]))
            .collect();
        terms.push((t, -up[x]));
        p.add_constraint(&terms, Relation::Le, 0.0);
    }
    for y in 0..n {
        let senders: Vec<usize> = (0..n).filter(|&x| ys(x).any(|d| d == y)).collect();
        let mut terms: Vec<(usize, f64)> = senders
            .iter()
            .filter(|&&x| x != y)
            .map(|&x| (col(x, y), data[x]))
            .collect();
        if !terms.is_empty() {
            terms.push((t, -down[y]));
            p.add_constraint(&terms, Relation::Le, 0.0);
        }
        let mut terms: Vec<(usize, f64)> = senders.iter().map(|&x| (col(x, y), tasks[x])).collect();
        terms.push((t, -slots[y]));
        p.add_constraint(&terms, Relation::Le, 0.0);
    }
    if start {
        let mut point = vec![0.0; nv + 1];
        for x in 0..n {
            point[col(x, x)] = 1.0;
        }
        point[t] = (0..n).map(|y| tasks[y] / slots[y]).fold(0.0, f64::max);
        p.set_start(&point);
    }
    p
}

/// Allocations made by one solve of `p`, and its pivots.
fn solve_counted(p: &Problem) -> (usize, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let sol = p.solve().expect("map LPs are feasible and bounded");
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    (allocations, sol.pivots)
}

/// `(allocations, pivots)` of each solve of eight map LPs of one shape
/// (the same rows, columns and nonzeros, 610 rows: longer than the stack
/// buffer of a stable sort), started from their In-Place points when
/// `start`, after a first pass has grown the thread's scratch buffers.
fn runs_of_one_shape(start: bool) -> Vec<(usize, usize)> {
    let lps: Vec<Problem> = (0..8).map(|seed| map_lp(200, 10, seed, start)).collect();
    assert_eq!(lps[0].num_constraints(), 610);
    for p in &lps {
        solve_counted(p);
    }
    lps.iter().map(solve_counted).collect()
}

/// Map LPs of one shape whose pivot counts differ by more than 64, so by
/// at least four refactorizations of the eta file (one per 16 etas at
/// most): every solve makes the same number of allocations, whatever its
/// pivots, from the slack basis and from the crash basis of a start alike.
#[test]
fn allocations_do_not_grow_with_pivots_or_refactors() {
    for start in [false, true] {
        let runs = runs_of_one_shape(start);
        let pivots = |r: &&(usize, usize)| r.1;
        let fewest = runs.iter().min_by_key(pivots).unwrap().1;
        let most = runs.iter().max_by_key(pivots).unwrap().1;
        // Cold solves all cross several refactorizations; started ones
        // skip phase 1, so some cross only one.
        assert!(start || fewest >= 100, "(allocations, pivots) {runs:?}");
        assert!(most >= fewest + 64, "(allocations, pivots) {runs:?}");
        assert!(
            runs.iter().all(|r| r.0 == runs[0].0),
            "start {start}: (allocations, pivots) {runs:?}"
        );
    }
}
