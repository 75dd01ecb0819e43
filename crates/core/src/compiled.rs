//! The compiled serving engine: compile a profile once, evaluate it many
//! times.
//!
//! Discovery (synthesis) runs rarely; constraint *evaluation* sits inline
//! in ML inference and drift monitoring and must be orders of magnitude
//! cheaper (§2, Fig. 11). The interpreted path in [`crate::constraint`]
//! walks rows one at a time, re-resolving columns by name per call,
//! re-checking projection arity per tuple, and string-matching partition
//! cases per row. [`CompiledProfile`] removes all of that by lowering a
//! [`ConformanceProfile`] once into a flat, cache-friendly plan:
//!
//! * one **coefficient panel per constraint group** — the global simple
//!   constraint, then every disjunctive case, in profile order. A panel is
//!   attribute-major: for each attribute, the coefficients of all the
//!   group's conjuncts side by side, followed by their `lb / ub / α / γ`
//!   arrays. Arity is validated here, once, not per tuple;
//! * one plan-wide **lane count**, a multiple of 4, that every panel is
//!   padded to. Padded lanes carry `lb = −∞`, `ub = +∞`, `γ = 0`: their
//!   bound excess is always exactly zero, so they never fire;
//! * per frame, a **dictionary-code → case-index table** per switching
//!   attribute, so partition dispatch is an array load, never a string
//!   comparison.
//!
//! Evaluation gathers fixed blocks of [`EVAL_BLOCK_ROWS`] rows row-major
//! and walks each block a pair of rows at a time. Each row evaluates the
//! global group and, per disjunctive, only the case its code selects (an
//! unseen code adds exactly 1). A group's lanes accumulate their
//! projections side by side in SIMD registers and pass a branch-free
//! bound-excess test; `η` runs only for the lanes that fire. The kernel
//! is monomorphised on the plan's tile width and dispatched once per
//! block — through an AVX `#[target_feature]` wrapper when the CPU has
//! AVX — so no per-row branch depends on a group's width. Steady state
//! allocates nothing per block.
//!
//! **Hard invariant:** every output is **bit-identical** to the
//! interpreted reference path
//! ([`ConformanceProfile::violations_interpreted`]). Each lane folds its
//! `w·x` terms from `+0.0` in ascending attribute order (SIMD packs
//! independent lanes, never reassociates one; `fma` is never enabled, as
//! it would skip a rounding); `η` terms fold in ascending constraint
//! order; and group sums fold global first, in profile order, before the
//! division by the part count. The one arithmetic shortcut — skipping `η`
//! when the bound excess is exactly zero — is bit-exact because
//! `η(α·0) = 0`. `tests/eval_equivalence.rs` enforces this property over
//! random profiles (across lane and tile boundaries), partitions, special
//! values, thread counts, and block-boundary row counts.

use crate::constraint::{ConformanceProfile, ProfileError, SimpleConstraint};
use crate::eta;
use cc_frame::DataFrame;
use std::cell::Cell;
use std::ops::Range;

/// Rows per evaluation block: the unit of gathering, of the per-block
/// kernel dispatch, and of the thread split. The row-major gather of a
/// typical profile's block (tens of attributes × 512 rows) stays
/// L2-resident.
pub const EVAL_BLOCK_ROWS: usize = 512;

/// Widest tile the kernel is monomorphised on. A plan whose widest group
/// needs more lanes splits every panel into tiles of this width.
const MAX_TILE: usize = 16;

/// Per-lane arrays stored after each tile's coefficients: `lb`, `ub`,
/// `α`, `γ`.
const LANE_ARRAYS: usize = 4;

thread_local! {
    static COMPILES: Cell<usize> = const { Cell::new(0) };
}

/// Number of [`CompiledProfile::compile`] runs on the calling thread.
///
/// Diagnostic for cache-regression tests: serving surfaces that claim to
/// compile once (e.g. [`crate::DriftMonitor`]) assert this stays flat
/// across repeated observations. Thread-local so concurrent tests do not
/// interfere.
pub fn thread_compile_count() -> usize {
    COMPILES.with(Cell::get)
}

/// One disjunctive constraint, lowered: case labels (for binding) and the
/// group index of its first case.
#[derive(Clone, Debug)]
struct CompiledDisjunctive {
    /// The switching attribute.
    attribute: String,
    /// Case labels, in profile order.
    labels: Vec<String>,
    /// Case `ci` is plan group `first + ci`.
    first: usize,
}

/// A [`ConformanceProfile`] lowered into a flat serving plan.
///
/// Compile once (cheap: `O(groups·m·lanes)` for `m` attributes), evaluate
/// many times against any frame carrying the profile's attributes. All
/// evaluation surfaces are bit-identical to the interpreted reference
/// path.
#[derive(Clone, Debug)]
pub struct CompiledProfile {
    /// Numeric attribute names, fixing column resolution order.
    attributes: Vec<String>,
    /// Attribute count (`m`).
    m: usize,
    /// Total bounded constraints (`k`).
    k: usize,
    /// Lanes per tile (4, 8, 12 or 16): the width the kernel is
    /// monomorphised on.
    tile: usize,
    /// Tiles per group. The plan-wide lane count is `tiles · tile`.
    tiles: usize,
    /// Every group's panel, group after group, tile after tile: `m × tile`
    /// coefficients (attribute-major), then `tile` entries each of `lb`,
    /// `ub`, `α`, `γ`.
    panels: Vec<f64>,
    /// Plan-row range of each group: the global simple constraint (if
    /// any) first, then every disjunctive case in profile order.
    groups: Vec<Range<usize>>,
    /// Whether group 0 is the global simple constraint.
    global: bool,
    /// Lowered disjunctive constraints, in profile order.
    disjunctive: Vec<CompiledDisjunctive>,
    /// Top-level conjunction size: `global` (0/1) + disjunctive count.
    parts: usize,
}

/// One bound switching attribute: the frame's code column plus the
/// `code → case index` table (`None` = value unseen in training ⇒
/// violation 1).
type BoundCases<'a> = Vec<(&'a [u32], Vec<Option<usize>>)>;

/// A plan bound to one frame: columns resolved once, partition cases
/// lowered to per-dictionary-code case indices.
struct BoundFrame<'a> {
    /// The numeric columns, in plan attribute order.
    cols: Vec<&'a [f64]>,
    n_rows: usize,
    /// Per disjunctive: the code column and case-index table.
    cats: BoundCases<'a>,
}

/// Reusable per-thread evaluation buffer: the current block's tuples,
/// row-major (row `i` of the block at `[i·m..(i+1)·m]`), so the kernel
/// reads each tuple as one contiguous slice — the same shape a
/// single-tuple caller passes in. Sized for one block up front; steady
/// state never reallocates it.
struct Scratch {
    rows: Vec<f64>,
}

impl Scratch {
    fn new(plan: &CompiledProfile, n_rows: usize) -> Self {
        Scratch { rows: Vec::with_capacity(plan.m * n_rows.min(EVAL_BLOCK_ROWS)) }
    }

    /// Gathers `rows` of the bound columns into the buffer, row-major.
    fn gather(&mut self, cols: &[&[f64]], rows: Range<usize>) -> &[f64] {
        self.rows.clear();
        for i in rows {
            self.rows.extend(cols.iter().map(|col| col[i]));
        }
        &self.rows
    }
}

impl CompiledProfile {
    /// Lowers a profile into a serving plan.
    ///
    /// Validates **once** that every projection's arity matches the
    /// profile's attribute list — the per-tuple arity assertion the
    /// interpreted path used to pay is hoisted here (and demoted to a
    /// debug assertion in [`crate::Projection::evaluate`]).
    ///
    /// # Panics
    /// Panics when a projection's coefficient count disagrees with
    /// `profile.numeric_attributes` — such a profile is malformed and
    /// would panic (in debug) or silently truncate in the interpreted
    /// path's hot loop.
    pub fn compile(profile: &ConformanceProfile) -> Self {
        let m = profile.numeric_attributes.len();
        let mut simple: Vec<&SimpleConstraint> = Vec::new();
        simple.extend(&profile.global);
        let mut disjunctive = Vec::with_capacity(profile.disjunctive.len());
        for d in &profile.disjunctive {
            disjunctive.push(CompiledDisjunctive {
                attribute: d.attribute.clone(),
                labels: d.cases.iter().map(|(value, _)| value.clone()).collect(),
                first: simple.len(),
            });
            simple.extend(d.cases.iter().map(|(_, c)| c));
        }
        for (g, sc) in simple.iter().enumerate() {
            for c in &sc.conjuncts {
                assert_eq!(
                    c.projection.coefficients.len(),
                    m,
                    "CompiledProfile::compile: projection arity mismatch in {}",
                    group_name(profile.global.is_some(), &disjunctive, g)
                );
            }
        }
        // Each group's (conjunct, γ) pairs — zipped, as the interpreted
        // path folds them.
        let groups: Vec<Vec<_>> =
            simple.iter().map(|sc| sc.conjuncts.iter().zip(&sc.weights).collect()).collect();
        // One plan-wide lane count: the widest group, rounded up to a
        // multiple of 4 (at least 4, so an empty group still has a tile
        // that evaluates to exactly +0.0), then to whole tiles.
        let width = groups.iter().map(Vec::len).max().unwrap_or(0);
        let lanes = width.div_ceil(4).max(1) * 4;
        let tile = lanes.min(MAX_TILE);
        let tiles = lanes.div_ceil(tile);
        let mut panels = Vec::with_capacity(groups.len() * tiles * (m + LANE_ARRAYS) * tile);
        for group in &groups {
            for t in 0..tiles {
                // Padded lanes (`None`): zero coefficients, `lb = −∞`,
                // `ub = +∞`, `α = γ = 0`.
                let lanes: Vec<_> = (0..tile).map(|l| group.get(t * tile + l)).collect();
                for j in 0..m {
                    panels.extend(
                        lanes.iter().map(|c| c.map_or(0.0, |(c, _)| c.projection.coefficients[j])),
                    );
                }
                panels.extend(lanes.iter().map(|c| c.map_or(f64::NEG_INFINITY, |(c, _)| c.lb)));
                panels.extend(lanes.iter().map(|c| c.map_or(f64::INFINITY, |(c, _)| c.ub)));
                panels.extend(lanes.iter().map(|c| c.map_or(0.0, |(c, _)| c.alpha)));
                panels.extend(lanes.iter().map(|c| c.map_or(0.0, |(_, &w)| w)));
            }
        }
        let mut k = 0;
        let groups = groups
            .iter()
            .map(|group| {
                k += group.len();
                k - group.len()..k
            })
            .collect();
        COMPILES.with(|c| c.set(c.get() + 1));
        CompiledProfile {
            attributes: profile.numeric_attributes.clone(),
            m,
            k,
            tile,
            tiles,
            panels,
            groups,
            global: profile.global.is_some(),
            parts: usize::from(profile.global.is_some()) + disjunctive.len(),
            disjunctive,
        }
    }

    /// The numeric attributes the plan evaluates, in tuple order.
    pub fn attributes(&self) -> &[String] {
        &self.attributes
    }

    /// Total bounded constraints in the plan.
    pub fn constraint_count(&self) -> usize {
        self.k
    }

    /// Floats per tile of a panel.
    fn tile_len(&self) -> usize {
        (self.m + LANE_ARRAYS) * self.tile
    }

    /// Tile `t` of group `g`'s panel, split into its `m × tile`
    /// coefficients and its lane arrays. Plain offset arithmetic: the
    /// kernel calls this per group and row, where a division (as
    /// `chunks_exact` with a run-time width performs) would cost more
    /// than the tile's arithmetic.
    #[inline(always)]
    fn tile(&self, g: usize, t: usize) -> (&[f64], &[f64]) {
        let len = self.tile_len();
        let start = (g * self.tiles + t) * len;
        self.panels[start..start + len].split_at(self.m * self.tile)
    }

    /// Human-readable label of each plan row: the owning group
    /// (`<global>` or `attribute=value`) plus the projection expression.
    /// Rendered on demand — the serving surfaces that compile per call
    /// never pay for label formatting.
    pub fn constraint_labels(&self) -> Vec<String> {
        let mut out = Vec::with_capacity(self.k);
        for (g, rows) in self.groups.iter().enumerate() {
            let group = group_name(self.global, &self.disjunctive, g);
            for lane in 0..rows.len() {
                let (tile, _) = self.tile(g, lane / self.tile);
                let coeffs = (0..self.m).map(|j| tile[j * self.tile + lane % self.tile]).collect();
                let expr = crate::Projection::new(self.attributes.clone(), coeffs).expression();
                out.push(format!("{group}: {expr}"));
            }
        }
        out
    }

    /// Resolves the columns this plan needs from a frame and lowers each
    /// switching attribute's dictionary to a `code → case index` table.
    fn bind<'a>(&self, df: &'a DataFrame) -> Result<BoundFrame<'a>, ProfileError> {
        // Attribute by attribute, so the error names the missing column,
        // matching the interpreted path.
        let cols = self
            .attributes
            .iter()
            .map(|a| df.numeric(a).map_err(|_| ProfileError::MissingNumeric(a.clone())))
            .collect::<Result<_, _>>()?;
        Ok(BoundFrame { cols, n_rows: df.n_rows(), cats: self.bind_cases(df)? })
    }

    /// The categorical half of [`Self::bind`]: per disjunctive, the code
    /// column and dictionary-code → case-index table.
    fn bind_cases<'a>(&self, df: &'a DataFrame) -> Result<BoundCases<'a>, ProfileError> {
        let mut cats = Vec::with_capacity(self.disjunctive.len());
        for d in &self.disjunctive {
            let (codes, dict) = df
                .categorical(&d.attribute)
                .map_err(|_| ProfileError::MissingCategorical(d.attribute.clone()))?;
            // One string scan per dictionary entry — never per row.
            let table: Vec<Option<usize>> =
                dict.iter().map(|label| d.labels.iter().position(|l| l == label)).collect();
            cats.push((codes, table));
        }
        Ok(cats)
    }

    /// Evaluates rows `range` of a bound frame into `out` (aligned with
    /// the range), block by block.
    fn eval_range(
        &self,
        bound: &BoundFrame<'_>,
        range: Range<usize>,
        scratch: &mut Scratch,
        out: &mut [f64],
    ) {
        debug_assert_eq!(out.len(), range.len());
        let mut done = 0;
        let mut start = range.start;
        while start < range.end {
            let stop = (start + EVAL_BLOCK_ROWS).min(range.end);
            let b = stop - start;
            self.eval_block(bound, start..stop, scratch, &mut out[done..done + b]);
            done += b;
            start = stop;
        }
    }

    /// One block: at most [`EVAL_BLOCK_ROWS`] rows.
    fn eval_block(
        &self,
        bound: &BoundFrame<'_>,
        rows: Range<usize>,
        scratch: &mut Scratch,
        out: &mut [f64],
    ) {
        debug_assert!(rows.len() <= EVAL_BLOCK_ROWS && out.len() == rows.len());
        if self.parts == 0 {
            out.fill(0.0);
            return;
        }
        let start = rows.start;
        let x = scratch.gather(&bound.cols, rows);
        self.dispatch(&mut ServeBlock { cats: &bound.cats, start, x, out });
    }

    /// Per-tuple violations for every row of a frame. Bit-identical to
    /// [`ConformanceProfile::violations_interpreted`].
    ///
    /// # Errors
    /// Fails when the frame lacks any attribute the profile needs.
    pub fn violations(&self, df: &DataFrame) -> Result<Vec<f64>, ProfileError> {
        let bound = self.bind(df)?;
        let mut out = vec![0.0; bound.n_rows];
        let mut scratch = Scratch::new(self, bound.n_rows);
        self.eval_range(&bound, 0..bound.n_rows, &mut scratch, &mut out);
        Ok(out)
    }

    /// [`Self::violations`] with the rows split over `n_threads` scoped
    /// threads at block-aligned boundaries. Row results are independent,
    /// so the output is identical for every thread count.
    ///
    /// # Errors
    /// Fails when the frame lacks any attribute the profile needs.
    ///
    /// # Panics
    /// Panics when `n_threads` is zero.
    pub fn violations_parallel(
        &self,
        df: &DataFrame,
        n_threads: usize,
    ) -> Result<Vec<f64>, ProfileError> {
        assert!(n_threads > 0, "violations_parallel: need at least one thread");
        let bound = self.bind(df)?;
        let n = bound.n_rows;
        let mut out = vec![0.0; n];
        if n_threads == 1 || n < 2 * EVAL_BLOCK_ROWS {
            let mut scratch = Scratch::new(self, n);
            self.eval_range(&bound, 0..n, &mut scratch, &mut out);
            return Ok(out);
        }
        let n_blocks = n.div_ceil(EVAL_BLOCK_ROWS);
        let per_thread = n_blocks.div_ceil(n_threads) * EVAL_BLOCK_ROWS;
        std::thread::scope(|scope| {
            let bound = &bound;
            let mut rest: &mut [f64] = &mut out;
            let mut start = 0;
            while start < n {
                let stop = (start + per_thread).min(n);
                let (mine, tail) = rest.split_at_mut(stop - start);
                rest = tail;
                let range = start..stop;
                scope.spawn(move || {
                    let mut scratch = Scratch::new(self, range.len());
                    self.eval_range(bound, range, &mut scratch, mine);
                });
                start = stop;
            }
        });
        Ok(out)
    }

    /// Streams every row's violation, in row order, to `f` — the
    /// aggregation surface that never materializes an `O(n)` vector.
    ///
    /// # Errors
    /// Fails when the frame lacks any attribute the profile needs.
    pub fn for_each_violation(
        &self,
        df: &DataFrame,
        mut f: impl FnMut(f64),
    ) -> Result<(), ProfileError> {
        let bound = self.bind(df)?;
        let mut scratch = Scratch::new(self, bound.n_rows);
        let mut block_out = vec![0.0; EVAL_BLOCK_ROWS.min(bound.n_rows.max(1))];
        let mut start = 0;
        while start < bound.n_rows {
            let stop = (start + EVAL_BLOCK_ROWS).min(bound.n_rows);
            let out = &mut block_out[..stop - start];
            self.eval_block(&bound, start..stop, &mut scratch, out);
            for &v in out.iter() {
                f(v);
            }
            start = stop;
        }
        Ok(())
    }

    /// Mean violation, streamed — the running sum visits rows left to
    /// right, so the result is bit-identical to
    /// `violations(df).iter().sum::<f64>() / n` without the `O(n)`
    /// allocation.
    ///
    /// # Errors
    /// Fails when the frame lacks any attribute the profile needs.
    pub fn mean_violation(&self, df: &DataFrame) -> Result<f64, ProfileError> {
        let mut sum = 0.0;
        let mut n = 0usize;
        self.for_each_violation(df, |v| {
            sum += v;
            n += 1;
        })?;
        if n == 0 {
            return Ok(0.0);
        }
        Ok(sum / n as f64)
    }

    /// Resolves, once, the case index each disjunctive constraint selects
    /// for a tuple with the given categorical values (`None` = unseen).
    /// Pair with [`Self::violation_resolved`] for repeated single-tuple
    /// evaluation (e.g. ExTuNe's intervention search, which re-scores the
    /// same tuple with different numeric values).
    ///
    /// # Errors
    /// Fails when a switching attribute is missing from `categorical`.
    pub fn resolve_cases(
        &self,
        categorical: &[(&str, &str)],
    ) -> Result<Vec<Option<usize>>, ProfileError> {
        self.disjunctive
            .iter()
            .map(|d| {
                let value = categorical
                    .iter()
                    .find(|(a, _)| *a == d.attribute)
                    .map(|(_, v)| *v)
                    .ok_or_else(|| ProfileError::MissingCategorical(d.attribute.clone()))?;
                Ok(d.labels.iter().position(|l| l == value))
            })
            .collect()
    }

    /// Per-disjunctive, per-row case indices for a whole frame, via the
    /// dictionary-code tables (no string matching per row). Touches only
    /// the categorical columns — callers pairing this with their own
    /// numeric resolution don't pay for it twice.
    ///
    /// # Errors
    /// Fails when the frame lacks a switching attribute.
    pub fn resolve_frame_cases(
        &self,
        df: &DataFrame,
    ) -> Result<Vec<Vec<Option<usize>>>, ProfileError> {
        Ok(self
            .bind_cases(df)?
            .iter()
            .map(|(codes, table)| codes.iter().map(|&c| table[c as usize]).collect())
            .collect())
    }

    /// Single-tuple violation with pre-resolved disjunctive cases —
    /// bit-identical to [`ConformanceProfile::violation`] for the
    /// categorical values the cases were resolved from, with no name
    /// resolution or string matching. The tuple goes through the block
    /// kernel as it is, without a copy.
    ///
    /// # Panics
    /// Debug-asserts the tuple arity and case count.
    pub fn violation_resolved(&self, numeric: &[f64], cases: &[Option<usize>]) -> f64 {
        debug_assert_eq!(numeric.len(), self.m, "violation_resolved: tuple arity mismatch");
        debug_assert_eq!(cases.len(), self.disjunctive.len());
        if self.parts == 0 {
            return 0.0;
        }
        let mut tuple = Tuple { x: numeric, cases, out: 0.0 };
        self.dispatch(&mut tuple);
        tuple.out
    }

    /// Mean γ-weighted contribution of every plan constraint over a frame
    /// — the per-constraint output mode backing
    /// [`crate::explain::profile_breakdown`]. A disjunctive case's
    /// constraints accumulate only over the rows that select that case
    /// (other rows never evaluate them); all means divide by the full row
    /// count. Entry order matches [`Self::constraint_labels`].
    ///
    /// Runs on the serving kernel's projections. The fold order is fixed:
    /// a global constraint's terms are summed per [`EVAL_BLOCK_ROWS`]
    /// block, and each block sum is added to its total; a case
    /// constraint's terms are added to its total row by row.
    ///
    /// # Errors
    /// Fails when the frame lacks any attribute the profile needs.
    pub fn mean_constraint_contributions(&self, df: &DataFrame) -> Result<Vec<f64>, ProfileError> {
        let bound = self.bind(df)?;
        let n = bound.n_rows;
        let mut totals = vec![0.0; self.k];
        let mut block_sums = vec![0.0; self.global_rows()];
        let mut scratch = Scratch::new(self, n);
        let mut start = 0;
        while start < n {
            let stop = (start + EVAL_BLOCK_ROWS).min(n);
            // The empty sum: a block sum is the left fold `Iterator::sum`
            // computes over the block's terms.
            block_sums.fill(std::iter::empty::<f64>().sum());
            let x = scratch.gather(&bound.cols, start..stop);
            self.dispatch(&mut ContributionBlock {
                cats: &bound.cats,
                start,
                rows: stop - start,
                x,
                block_sums: &mut block_sums,
                totals: &mut totals,
            });
            for (t, s) in totals.iter_mut().zip(&block_sums) {
                *t += s;
            }
            start = stop;
        }
        let denom = n.max(1) as f64;
        for t in &mut totals {
            *t /= denom;
        }
        Ok(totals)
    }

    /// Plan rows of the global group (0 without one).
    fn global_rows(&self) -> usize {
        if self.global {
            self.groups[0].len()
        } else {
            0
        }
    }

    /// Runs `pass` monomorphised on the plan's tile width — under AVX when
    /// the CPU has it. Called once per block or tuple, never per row.
    fn dispatch(&self, pass: &mut impl Pass) {
        match self.tile {
            4 => run_tile::<4>(self, pass),
            8 => run_tile::<8>(self, pass),
            12 => run_tile::<12>(self, pass),
            16 => run_tile::<16>(self, pass),
            t => unreachable!("tile width {t} is not a multiple of 4 up to {MAX_TILE}"),
        }
    }

    /// Group `g`'s violation for the tuple `x`, clamped to `[0, 1]`.
    #[inline(always)]
    fn group<const T: usize>(&self, g: usize, x: &[f64]) -> f64 {
        let mut acc = 0.0;
        for t in 0..self.tiles {
            let (coeffs, lanes) = self.tile(g, t);
            acc = fold_fired::<T>(&project::<T>(coeffs, x), lanes, acc);
        }
        acc.clamp(0.0, 1.0)
    }

    /// [`Self::group`] for two tuples at once — group `g0` for `x0`, `g1`
    /// for `x1` — so the two rows' lane chains interleave.
    #[inline(always)]
    fn group_pair<const T: usize>(
        &self,
        g0: usize,
        x0: &[f64],
        g1: usize,
        x1: &[f64],
    ) -> (f64, f64) {
        let (mut acc0, mut acc1) = (0.0, 0.0);
        for t in 0..self.tiles {
            let (c0, lanes0) = self.tile(g0, t);
            let (c1, lanes1) = self.tile(g1, t);
            let (v0, v1) = project_pair::<T>(c0, x0, c1, x1);
            acc0 = fold_fired::<T>(&v0, lanes0, acc0);
            acc1 = fold_fired::<T>(&v1, lanes1, acc1);
        }
        (acc0.clamp(0.0, 1.0), acc1.clamp(0.0, 1.0))
    }

    /// One tuple's violation: the global group, then each disjunctive's
    /// selected case (`None` adds exactly 1), divided by the part count.
    #[inline(always)]
    fn tuple<const T: usize>(&self, x: &[f64], cases: impl Iterator<Item = Option<usize>>) -> f64 {
        let mut total = 0.0;
        if self.global {
            total += self.group::<T>(0, x);
        }
        for (d, case) in self.disjunctive.iter().zip(cases) {
            total += match case {
                Some(ci) => self.group::<T>(d.first + ci, x),
                None => 1.0,
            };
        }
        total / self.parts as f64
    }

    /// Calls `f(plan row, term)` for every constraint of group `g` on the
    /// tuple `x`, in ascending plan-row order, where `term` is the
    /// constraint's γ-weighted contribution.
    #[inline(always)]
    fn terms<const T: usize>(&self, g: usize, x: &[f64], mut f: impl FnMut(usize, f64)) {
        let rows = self.groups[g].clone();
        for t in 0..self.tiles {
            let (coeffs, lanes) = self.tile(g, t);
            let v = project::<T>(coeffs, x);
            let (lb, ub, alpha, w) = lane_arrays::<T>(lanes);
            for l in 0..T.min(rows.len().saturating_sub(t * T)) {
                let excess = (v[l] - ub[l]).max(lb[l] - v[l]).max(0.0);
                f(
                    rows.start + t * T + l,
                    if excess == 0.0 { 0.0 } else { w[l] * eta(alpha[l] * excess) },
                );
            }
        }
    }
}

/// `<global>` or `attribute=value` for plan group `g`.
fn group_name(global: bool, disjunctive: &[CompiledDisjunctive], g: usize) -> String {
    if global && g == 0 {
        return "<global>".into();
    }
    let d = disjunctive
        .iter()
        .find(|d| (d.first..d.first + d.labels.len()).contains(&g))
        .expect("group belongs to a disjunctive");
    format!("{}={}", d.attribute, d.labels[g - d.first])
}

/// A pass over a plan's groups, monomorphised on the tile width `T`.
/// Implementations must be `#[inline(always)]`, so that the AVX wrapper
/// compiles their body with AVX enabled.
trait Pass {
    fn run<const T: usize>(&mut self, plan: &CompiledProfile);
}

/// Runs `pass` with tile width `T`, through the AVX wrapper when the CPU
/// supports it.
#[inline(always)]
fn run_tile<const T: usize>(plan: &CompiledProfile, pass: &mut impl Pass) {
    #[cfg(target_arch = "x86_64")]
    if avx_available() {
        // SAFETY: AVX support was verified at runtime; the wrapped body is
        // plain Rust (no intrinsics), merely compiled with 4-lane f64
        // vectors enabled.
        unsafe {
            return run_avx::<T, _>(plan, pass);
        }
    }
    pass.run::<T>(plan);
}

/// Runtime AVX check, done once.
#[cfg(target_arch = "x86_64")]
fn avx_available() -> bool {
    use std::sync::OnceLock;
    static AVX: OnceLock<bool> = OnceLock::new();
    *AVX.get_or_init(|| std::arch::is_x86_feature_detected!("avx"))
}

/// [`Pass::run`] compiled with AVX enabled (4 f64 lanes per register).
/// The `fma` feature is deliberately NOT enabled: fused multiply–add
/// skips the intermediate rounding and would break bit-identity with the
/// scalar reference path.
///
/// # Safety
/// The caller must have verified AVX support at runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn run_avx<const T: usize, P: Pass>(plan: &CompiledProfile, pass: &mut P) {
    pass.run::<T>(plan);
}

/// The serving pass over one gathered block: each row's violation into
/// `out`.
struct ServeBlock<'s, 'a> {
    cats: &'s BoundCases<'a>,
    /// Frame row of the block's first row.
    start: usize,
    /// The block's tuples, row-major.
    x: &'s [f64],
    out: &'s mut [f64],
}

impl Pass for ServeBlock<'_, '_> {
    #[inline(always)]
    fn run<const T: usize>(&mut self, plan: &CompiledProfile) {
        let (m, b) = (plan.m, self.out.len());
        let parts = plan.parts as f64;
        let row = |i: usize| &self.x[i * m..(i + 1) * m];
        let mut i = 0;
        while i + 1 < b {
            let (x0, x1) = (row(i), row(i + 1));
            let (mut t0, mut t1) = (0.0, 0.0);
            if plan.global {
                let (a0, a1) = plan.group_pair::<T>(0, x0, 0, x1);
                t0 += a0;
                t1 += a1;
            }
            let r = self.start + i;
            for (d, (codes, table)) in plan.disjunctive.iter().zip(self.cats) {
                let (a0, a1) = match (table[codes[r] as usize], table[codes[r + 1] as usize]) {
                    (Some(c0), Some(c1)) => {
                        plan.group_pair::<T>(d.first + c0, x0, d.first + c1, x1)
                    }
                    (Some(c0), None) => (plan.group::<T>(d.first + c0, x0), 1.0),
                    (None, Some(c1)) => (1.0, plan.group::<T>(d.first + c1, x1)),
                    (None, None) => (1.0, 1.0),
                };
                t0 += a0;
                t1 += a1;
            }
            self.out[i] = t0 / parts;
            self.out[i + 1] = t1 / parts;
            i += 2;
        }
        if i < b {
            let r = self.start + i;
            let cases = self.cats.iter().map(|(codes, table)| table[codes[r] as usize]);
            self.out[i] = plan.tuple::<T>(row(i), cases);
        }
    }
}

/// The single-tuple pass behind [`CompiledProfile::violation_resolved`].
struct Tuple<'s> {
    x: &'s [f64],
    cases: &'s [Option<usize>],
    out: f64,
}

impl Pass for Tuple<'_> {
    #[inline(always)]
    fn run<const T: usize>(&mut self, plan: &CompiledProfile) {
        self.out = plan.tuple::<T>(self.x, self.cases.iter().copied());
    }
}

/// The per-constraint pass over one gathered block, behind
/// [`CompiledProfile::mean_constraint_contributions`]: global terms fold
/// into `block_sums`, the selected case's terms straight into `totals`.
struct ContributionBlock<'s, 'a> {
    cats: &'s BoundCases<'a>,
    start: usize,
    /// Rows in the block (`x` is empty when the plan has no attributes).
    rows: usize,
    x: &'s [f64],
    block_sums: &'s mut [f64],
    totals: &'s mut [f64],
}

impl Pass for ContributionBlock<'_, '_> {
    #[inline(always)]
    fn run<const T: usize>(&mut self, plan: &CompiledProfile) {
        let m = plan.m;
        for i in 0..self.rows {
            let x = &self.x[i * m..(i + 1) * m];
            if plan.global {
                let sums = &mut *self.block_sums;
                plan.terms::<T>(0, x, |c, term| sums[c] += term);
            }
            let r = self.start + i;
            for (d, (codes, table)) in plan.disjunctive.iter().zip(self.cats) {
                if let Some(ci) = table[codes[r] as usize] {
                    let totals = &mut *self.totals;
                    plan.terms::<T>(d.first + ci, x, |c, term| totals[c] += term);
                }
            }
        }
    }
}

/// Lane projections of one tile: lane `l` folds `w·x` over the
/// attributes from `+0.0`, in ascending attribute order. `coeffs` is
/// attribute-major (`m × T`).
#[inline(always)]
fn project<const T: usize>(coeffs: &[f64], x: &[f64]) -> [f64; T] {
    let mut acc = [0.0; T];
    for (w, &xj) in coeffs.chunks_exact(T).zip(x) {
        let w: &[f64; T] = w.try_into().expect("tile-wide chunk");
        for l in 0..T {
            acc[l] += w[l] * xj;
        }
    }
    acc
}

/// [`project`] for two tuples over (possibly) different panels, in one
/// attribute loop.
#[inline(always)]
fn project_pair<const T: usize>(
    c0: &[f64],
    x0: &[f64],
    c1: &[f64],
    x1: &[f64],
) -> ([f64; T], [f64; T]) {
    let (mut a0, mut a1) = ([0.0; T], [0.0; T]);
    for ((w0, w1), (&y0, &y1)) in c0.chunks_exact(T).zip(c1.chunks_exact(T)).zip(x0.iter().zip(x1))
    {
        let w0: &[f64; T] = w0.try_into().expect("tile-wide chunk");
        let w1: &[f64; T] = w1.try_into().expect("tile-wide chunk");
        for l in 0..T {
            a0[l] += w0[l] * y0;
            a1[l] += w1[l] * y1;
        }
    }
    (a0, a1)
}

/// A tile's `lb`, `ub`, `α`, `γ` arrays.
#[inline(always)]
fn lane_arrays<const T: usize>(lanes: &[f64]) -> (&[f64], &[f64], &[f64], &[f64]) {
    let (lb, rest) = lanes.split_at(T);
    let (ub, rest) = rest.split_at(T);
    let (alpha, w) = rest.split_at(T);
    (lb, ub, alpha, &w[..T])
}

/// Folds one tile's γ-weighted `η` terms into `acc`, in ascending lane
/// order. The bound-excess pass is branch-free and vectorizes; the `η`
/// pass — the only place `exp` lives — runs only when some lane fires,
/// and only for those lanes. Skipping a lane whose excess is exactly zero
/// is bit-exact: its term is `+0.0`, and `acc` is never `-0.0` (it starts
/// at `+0.0` and only adds terms), so `acc + 0.0 ≡ acc`. The excess is
/// never NaN — `f64::max` returns the non-NaN operand, so the trailing
/// `.max(0.0)` collapses a NaN to exactly `0.0` — and the interpreted
/// path computes the identical expression, so a NaN tuple scores as
/// conforming on both paths alike.
#[inline(always)]
fn fold_fired<const T: usize>(v: &[f64; T], lanes: &[f64], mut acc: f64) -> f64 {
    let (lb, ub, alpha, w) = lane_arrays::<T>(lanes);
    let mut excess = [0.0; T];
    let mut fired = false;
    for l in 0..T {
        excess[l] = (v[l] - ub[l]).max(lb[l] - v[l]).max(0.0);
        fired |= excess[l] != 0.0;
    }
    if fired {
        for l in 0..T {
            if excess[l] != 0.0 {
                acc += w[l] * eta(alpha[l] * excess[l]);
            }
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{synthesize, SynthOptions};

    /// A frame with one exact invariant, a per-regime invariant, and a
    /// categorical regime column — exercises global + disjunctive paths.
    fn regime_frame(n: usize) -> DataFrame {
        const REGIMES: [&str; 3] = ["a", "b", "c"];
        let mut x = Vec::new();
        let mut y = Vec::new();
        let mut z = Vec::new();
        let mut regime = Vec::new();
        for i in 0..n {
            let r = i % 3;
            let xv = (i as f64 * 0.37).sin() * 20.0;
            let yv = ((i * 13) % 41) as f64 - 20.0;
            x.push(xv);
            y.push(yv);
            z.push(xv + (r as f64 + 1.0) * yv);
            regime.push(REGIMES[r]);
        }
        let mut df = DataFrame::new();
        df.push_numeric("x", x).unwrap();
        df.push_numeric("y", y).unwrap();
        df.push_numeric("z", z).unwrap();
        df.push_categorical("regime", &regime).unwrap();
        df
    }

    fn assert_bits_eq(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "row {i}: {x} vs {y}");
        }
    }

    #[test]
    fn compiled_matches_interpreted_bitwise() {
        let train = regime_frame(900);
        let profile = synthesize(&train, &SynthOptions::default()).unwrap();
        assert!(!profile.disjunctive.is_empty(), "need a partitioned profile");
        let plan = CompiledProfile::compile(&profile);
        // Block-boundary row counts, including the degenerate ones.
        for n in [0, 1, EVAL_BLOCK_ROWS - 1, EVAL_BLOCK_ROWS, EVAL_BLOCK_ROWS + 1, 900] {
            let serve = regime_frame(n);
            let interpreted = profile.violations_interpreted(&serve).unwrap();
            let compiled = plan.violations(&serve).unwrap();
            assert_bits_eq(&interpreted, &compiled);
            for threads in [1, 2, 3, 7] {
                assert_bits_eq(&interpreted, &plan.violations_parallel(&serve, threads).unwrap());
            }
        }
    }

    #[test]
    fn unseen_partition_value_scores_one() {
        let train = regime_frame(600);
        let profile = synthesize(&train, &SynthOptions::default()).unwrap();
        let plan = CompiledProfile::compile(&profile);
        let mut serve = DataFrame::new();
        serve.push_numeric("x", vec![0.0; 4]).unwrap();
        serve.push_numeric("y", vec![0.0; 4]).unwrap();
        serve.push_numeric("z", vec![0.0; 4]).unwrap();
        serve.push_categorical("regime", &["a", "zzz", "b", "never-seen"]).unwrap();
        let interpreted = profile.violations_interpreted(&serve).unwrap();
        let compiled = plan.violations(&serve).unwrap();
        assert_bits_eq(&interpreted, &compiled);
        // Unseen values must drive their disjunctive part to exactly 1.
        assert!(compiled[1] > compiled[0]);
    }

    #[test]
    fn streaming_mean_matches_materialized() {
        let train = regime_frame(700);
        let profile = synthesize(&train, &SynthOptions::default()).unwrap();
        let plan = CompiledProfile::compile(&profile);
        let serve = regime_frame(EVAL_BLOCK_ROWS + 37);
        let v = plan.violations(&serve).unwrap();
        let expect = v.iter().sum::<f64>() / v.len() as f64;
        assert_eq!(plan.mean_violation(&serve).unwrap().to_bits(), expect.to_bits());
        // Empty frame → 0.
        let empty = regime_frame(0);
        assert_eq!(plan.mean_violation(&empty).unwrap(), 0.0);
    }

    #[test]
    fn resolved_single_tuple_matches_interpreted() {
        let train = regime_frame(600);
        let profile = synthesize(&train, &SynthOptions::default()).unwrap();
        let plan = CompiledProfile::compile(&profile);
        for (tuple, value) in [
            (vec![1.0, 2.0, 3.0], "a"),
            (vec![5.0, -3.0, 100.0], "b"),
            (vec![0.0, 0.0, 0.0], "zzz"),
        ] {
            let cats = [("regime", value)];
            let cases = plan.resolve_cases(&cats).unwrap();
            let interpreted = profile.violation(&tuple, &cats).unwrap();
            let compiled = plan.violation_resolved(&tuple, &cases);
            assert_eq!(interpreted.to_bits(), compiled.to_bits());
        }
        // Missing switching attribute is the same typed error.
        assert!(matches!(plan.resolve_cases(&[]), Err(ProfileError::MissingCategorical(_))));
    }

    #[test]
    fn missing_columns_are_typed_errors() {
        let train = regime_frame(600);
        let profile = synthesize(&train, &SynthOptions::default()).unwrap();
        let plan = CompiledProfile::compile(&profile);
        let no_numeric = train.drop_column("y").unwrap();
        assert!(matches!(plan.violations(&no_numeric), Err(ProfileError::MissingNumeric(_))));
        let no_cat = train.drop_column("regime").unwrap();
        assert!(matches!(plan.violations(&no_cat), Err(ProfileError::MissingCategorical(_))));
    }

    #[test]
    fn empty_profile_evaluates_to_zero() {
        let profile = ConformanceProfile {
            numeric_attributes: vec!["x".into()],
            global: None,
            disjunctive: vec![],
        };
        let plan = CompiledProfile::compile(&profile);
        assert_eq!(plan.constraint_count(), 0);
        let mut df = DataFrame::new();
        df.push_numeric("x", vec![1.0, 2.0, 3.0]).unwrap();
        assert_eq!(plan.violations(&df).unwrap(), vec![0.0; 3]);
    }

    #[test]
    fn contribution_labels_align_and_sum() {
        let train = regime_frame(600);
        let profile = synthesize(&train, &SynthOptions::default()).unwrap();
        let plan = CompiledProfile::compile(&profile);
        assert_eq!(plan.constraint_labels().len(), plan.constraint_count());
        assert!(plan.constraint_labels()[0].starts_with("<global>"));
        let serve = regime_frame(200);
        let contributions = plan.mean_constraint_contributions(&serve).unwrap();
        assert_eq!(contributions.len(), plan.constraint_count());
        // Conforming data: contributions are all (near) zero.
        assert!(contributions.iter().all(|&c| (0.0..0.05).contains(&c)), "{contributions:?}");
    }

    #[test]
    fn zero_coefficient_times_infinity_is_not_skipped() {
        use crate::constraint::{BoundedConstraint, SimpleConstraint};
        use crate::projection::Projection;
        // w = 0 must not be skipped: 0 · ∞ = NaN makes the projection NaN,
        // which scores as conforming on both paths, while skipping the
        // term would leave y = 2, outside [−1, 1].
        let attrs = vec!["x".to_string(), "y".to_string()];
        let profile = ConformanceProfile {
            numeric_attributes: attrs.clone(),
            global: Some(SimpleConstraint::new(
                vec![BoundedConstraint {
                    projection: Projection::new(attrs, vec![0.0, 1.0]),
                    lb: -1.0,
                    ub: 1.0,
                    mean: 0.0,
                    std: 1.0,
                    alpha: 1.0,
                }],
                vec![1.0],
            )),
            disjunctive: vec![],
        };
        let mut df = DataFrame::new();
        df.push_numeric("x", vec![f64::INFINITY, 1.0, f64::INFINITY]).unwrap();
        df.push_numeric("y", vec![2.0, 2.0, 0.0]).unwrap();
        let compiled = CompiledProfile::compile(&profile).violations(&df).unwrap();
        assert_bits_eq(&profile.violations_interpreted(&df).unwrap(), &compiled);
        assert_eq!(compiled[0], 0.0);
        assert!(compiled[1] > 0.5);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn compile_rejects_malformed_profiles() {
        use crate::constraint::{BoundedConstraint, SimpleConstraint};
        use crate::projection::Projection;
        let bad = ConformanceProfile {
            numeric_attributes: vec!["x".into(), "y".into()],
            global: Some(SimpleConstraint::new(
                vec![BoundedConstraint {
                    projection: Projection::new(vec!["x".into()], vec![1.0]),
                    lb: -1.0,
                    ub: 1.0,
                    mean: 0.0,
                    std: 1.0,
                    alpha: 1.0,
                }],
                vec![1.0],
            )),
            disjunctive: vec![],
        };
        CompiledProfile::compile(&bad);
    }
}
