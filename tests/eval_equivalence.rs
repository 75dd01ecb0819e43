//! The compiled serving engine's hard invariant: `CompiledProfile`
//! evaluation is **bit-identical** to the interpreted reference path
//! (`ConformanceProfile::violations_interpreted`) — across random
//! profiles (global and partitioned/compound, 1–16 attributes, groups of
//! 0–17 conjuncts, so every lane and tile boundary of the kernel is
//! crossed), zero coefficients, special inputs (±∞, NaN, −0.0), unseen
//! and all-unseen partition values, thread counts, block-boundary and odd
//! row counts (n = 0, 1, 3, B−1, B, B+1, 2B+3), the streaming mean
//! aggregate, and the per-constraint contributions, which are pinned
//! against the blocked implementation they replaced.

use ccsynth::conformance::compiled::EVAL_BLOCK_ROWS;
use ccsynth::conformance::{
    dataset_drift, dataset_drift_parallel, eta, BoundedConstraint, DisjunctiveConstraint,
    SimpleConstraint,
};
use ccsynth::datagen::{airlines, AirlinesConfig, FlightKind};
use ccsynth::frame::DataFrame;
use ccsynth::prelude::*;
use proptest::prelude::*;
use std::ops::Range;

/// Small deterministic generator (splitmix-style) so a whole scenario —
/// profile and frame — derives from one proptest-drawn seed.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 11
    }

    /// Uniform in `[0, bound)`.
    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }

    /// Uniform in `[lo, hi)`.
    fn f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (self.next() as f64 / (1u64 << 53) as f64) * (hi - lo)
    }
}

/// Most conjuncts a generated group can have: one past the widest tile
/// (16 lanes), so a plan can need two tiles.
const MAX_CONJUNCTS: usize = 17;

fn random_simple(g: &mut Gen, m: usize, conjuncts: usize) -> SimpleConstraint {
    let mut cs = Vec::with_capacity(conjuncts);
    let mut ws = Vec::with_capacity(conjuncts);
    for _ in 0..conjuncts {
        let attrs: Vec<String> = (0..m).map(|j| format!("a{j}")).collect();
        // Exact (signed) zero coefficients too: `0 · ∞ = NaN` must flow
        // through the kernel exactly as through the scalar dot product.
        let coeffs: Vec<f64> = (0..m)
            .map(|_| match g.below(10) {
                0 => 0.0,
                1 => -0.0,
                _ => g.f64(-2.0, 2.0),
            })
            .collect();
        let center = g.f64(-10.0, 10.0);
        let half_width = g.f64(0.0, 8.0);
        let std = g.f64(0.0, 3.0);
        cs.push(BoundedConstraint {
            projection: Projection::new(attrs, coeffs),
            lb: center - half_width,
            ub: center + half_width,
            mean: center,
            std,
            alpha: g.f64(0.01, 50.0),
        });
        ws.push(g.f64(0.0, 2.0));
    }
    SimpleConstraint::new(cs, ws)
}

/// A random profile: an optional global constraint of 0–17 conjuncts
/// plus up to three disjunctive (compound) constraints with 1–3 cases of
/// 1–17 conjuncts each.
fn random_profile(g: &mut Gen, m: usize) -> ConformanceProfile {
    let with_global = g.below(4) != 0; // mostly present
    let n_disj = g.below(4);
    let global = if with_global {
        let conjuncts = g.below(MAX_CONJUNCTS + 1);
        Some(random_simple(g, m, conjuncts))
    } else {
        None
    };
    let mut disjunctive = Vec::with_capacity(n_disj);
    for d in 0..n_disj {
        let n_cases = 1 + g.below(3);
        let mut cases = Vec::with_capacity(n_cases);
        for ci in 0..n_cases {
            let conjuncts = 1 + g.below(MAX_CONJUNCTS);
            cases.push((format!("v{ci}"), random_simple(g, m, conjuncts)));
        }
        disjunctive.push(DisjunctiveConstraint { attribute: format!("g{d}"), cases });
    }
    ConformanceProfile {
        numeric_attributes: (0..m).map(|j| format!("a{j}")).collect(),
        global,
        disjunctive,
    }
}

/// A random frame carrying the profile's attributes: `n` rows of mostly
/// moderate values with occasional extreme outliers (drives the η branch
/// and the [0, 1] clamp) and, in two frames out of three, special values
/// (±∞, NaN, −0.0) at a low or a high rate. Categorical labels include
/// `v3` — never a training case, so the unseen-value ⇒ 1 path is
/// exercised — and one disjunctive in four sees only unseen labels.
fn random_frame(g: &mut Gen, profile: &ConformanceProfile, n: usize) -> DataFrame {
    let special_every = [0, 200, 20][g.below(3)];
    let mut df = DataFrame::new();
    for a in &profile.numeric_attributes {
        let col: Vec<f64> = (0..n)
            .map(|_| {
                if special_every > 0 && g.below(special_every) == 0 {
                    [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, -0.0][g.below(4)]
                } else if g.below(50) == 0 {
                    g.f64(-1.0, 1.0) * 1e300
                } else {
                    g.f64(-30.0, 30.0)
                }
            })
            .collect();
        df.push_numeric(a.clone(), col).unwrap();
    }
    for d in &profile.disjunctive {
        let all_unseen = g.below(4) == 0;
        let labels: Vec<String> = (0..n)
            .map(|_| if all_unseen { "unseen".to_string() } else { format!("v{}", g.below(4)) })
            .collect();
        df.push_categorical(d.attribute.clone(), &labels).unwrap();
    }
    df
}

/// Row counts straddling the kernel's block boundaries and its row-pair
/// tail.
fn row_count(g: &mut Gen, kind: usize) -> usize {
    match kind {
        0 => 0,
        1 => 1,
        2 => 3,
        3 => EVAL_BLOCK_ROWS - 1,
        4 => EVAL_BLOCK_ROWS,
        5 => EVAL_BLOCK_ROWS + 1,
        6 => 2 * EVAL_BLOCK_ROWS + 3,
        _ => 2 + g.below(700),
    }
}

fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: lengths differ");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: row {i}: {x} vs {y}");
    }
}

// ---------------------------------------------------------------------------
// Reference per-constraint contributions.

/// `CompiledProfile::mean_constraint_contributions` as the blocked engine
/// computed it before the row-major kernel: per 512-row block, every plan
/// constraint through a blocked mat-vec over an SoA gather of the block,
/// each value turned into its γ-weighted term; a global constraint adds
/// the block's `sum()` of its terms to its total, a case constraint adds
/// its term row by row for the rows selecting the case. The means divide
/// by the full row count.
fn reference_contributions(profile: &ConformanceProfile, df: &DataFrame) -> Vec<f64> {
    // Plan rows: the global conjuncts, then every case's, in profile order.
    let mut plan: Vec<(&BoundedConstraint, f64)> = Vec::new();
    let global = profile.global.as_ref().map(|sc| push_group(&mut plan, sc));
    let cases: Vec<Vec<Range<usize>>> = profile
        .disjunctive
        .iter()
        .map(|d| d.cases.iter().map(|(_, sc)| push_group(&mut plan, sc)).collect())
        .collect();
    let (m, k) = (profile.numeric_attributes.len(), plan.len());
    let coeffs: Vec<f64> =
        plan.iter().flat_map(|(c, _)| c.projection.coefficients.iter().copied()).collect();
    let cols: Vec<&[f64]> =
        profile.numeric_attributes.iter().map(|a| df.numeric(a).unwrap()).collect();
    let cats: Vec<(&[u32], Vec<Option<usize>>)> = profile
        .disjunctive
        .iter()
        .map(|d| {
            let (codes, dict) = df.categorical(&d.attribute).unwrap();
            let table =
                dict.iter().map(|label| d.cases.iter().position(|(v, _)| v == label)).collect();
            (codes, table)
        })
        .collect();

    let n = df.n_rows();
    let mut totals = vec![0.0; k];
    let mut block = Vec::new();
    let mut vals = vec![0.0; k * EVAL_BLOCK_ROWS];
    let mut start = 0;
    while start < n {
        let stop = (start + EVAL_BLOCK_ROWS).min(n);
        let b = stop - start;
        block.clear();
        for col in &cols {
            block.extend_from_slice(&col[start..stop]);
        }
        let vals = &mut vals[..k * b];
        block_matvec(&coeffs, k, m, &block, b, vals);
        for (c, (bc, w)) in plan.iter().enumerate() {
            for v in &mut vals[c * b..(c + 1) * b] {
                let excess = (*v - bc.ub).max(bc.lb - *v).max(0.0);
                *v = if excess == 0.0 { 0.0 } else { w * eta(bc.alpha * excess) };
            }
        }
        if let Some(g) = &global {
            for c in g.clone() {
                totals[c] += vals[c * b..(c + 1) * b].iter().sum::<f64>();
            }
        }
        for (d_cases, (codes, table)) in cases.iter().zip(&cats) {
            for (i, &code) in codes[start..stop].iter().enumerate() {
                if let Some(ci) = table[code as usize] {
                    for c in d_cases[ci].clone() {
                        totals[c] += vals[c * b + i];
                    }
                }
            }
        }
        start = stop;
    }
    let denom = n.max(1) as f64;
    for t in &mut totals {
        *t /= denom;
    }
    totals
}

/// Appends a simple constraint's conjuncts to the reference plan,
/// returning their plan-row range.
fn push_group<'p>(
    plan: &mut Vec<(&'p BoundedConstraint, f64)>,
    sc: &'p SimpleConstraint,
) -> Range<usize> {
    let start = plan.len();
    plan.extend(sc.conjuncts.iter().zip(sc.weights.iter().copied()));
    start..plan.len()
}

/// `out[c·b + i] = Σ_j coeffs[c·m + j] · block[j·b + i]`, each output
/// folding its terms from `+0.0` in ascending `j` — the accumulation the
/// blocked engine's kernel guaranteed.
fn block_matvec(coeffs: &[f64], k: usize, m: usize, block: &[f64], b: usize, out: &mut [f64]) {
    for c in 0..k {
        for i in 0..b {
            let mut acc = 0.0;
            for j in 0..m {
                acc += coeffs[c * m + j] * block[j * b + i];
            }
            out[c * b + i] = acc;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Compiled ≡ interpreted, bitwise, over random profiles and frames —
    /// row counts straddling every block boundary, all thread counts.
    #[test]
    fn compiled_matches_interpreted(seed in 0u64..u64::MAX, m in 1usize..=16, kind in 0usize..9) {
        let mut g = Gen(seed);
        let profile = random_profile(&mut g, m);
        let n = row_count(&mut g, kind);
        let df = random_frame(&mut g, &profile, n);

        let interpreted = profile.violations_interpreted(&df).unwrap();
        let plan = CompiledProfile::compile(&profile);
        let compiled = plan.violations(&df).unwrap();
        assert_bits_eq(&interpreted, &compiled, "sequential");

        for threads in [1, 2, 3, 5] {
            let par = plan.violations_parallel(&df, threads).unwrap();
            assert_bits_eq(&interpreted, &par, &format!("{threads} threads"));
        }

        // The streaming mean is the same left-to-right fold as summing
        // the materialized vector.
        let expect = if interpreted.is_empty() {
            0.0
        } else {
            interpreted.iter().sum::<f64>() / interpreted.len() as f64
        };
        prop_assert_eq!(plan.mean_violation(&df).unwrap().to_bits(), expect.to_bits());
    }

    /// The re-routed public surfaces agree with the oracle too: the
    /// profile methods compile internally, and drift (the mean/max
    /// streaming aggregates included) matches aggregation over the
    /// interpreted vector.
    #[test]
    fn rerouted_surfaces_match_oracle(seed in 0u64..u64::MAX, m in 1usize..=16) {
        let mut g = Gen(seed);
        let profile = random_profile(&mut g, m);
        let n = 2 + g.below(900);
        let df = random_frame(&mut g, &profile, n);

        let interpreted = profile.violations_interpreted(&df).unwrap();
        assert_bits_eq(&interpreted, &profile.violations(&df).unwrap(), "violations");
        assert_bits_eq(&interpreted, &profile.violations_parallel(&df, 3).unwrap(), "parallel");

        for agg in [DriftAggregator::Mean, DriftAggregator::Max, DriftAggregator::Quantile(0.9)] {
            let expect = agg.aggregate(&interpreted);
            let seq = dataset_drift(&profile, &df, agg).unwrap();
            let par = dataset_drift_parallel(&profile, &df, agg, 4).unwrap();
            prop_assert_eq!(seq.to_bits(), expect.to_bits());
            prop_assert_eq!(par.to_bits(), expect.to_bits());
        }
    }

    /// Per-constraint contributions are bit-identical to the blocked
    /// implementation they replaced, fold order included.
    #[test]
    fn contributions_match_reference(seed in 0u64..u64::MAX, m in 1usize..=16, kind in 0usize..9) {
        let mut g = Gen(seed);
        let profile = random_profile(&mut g, m);
        let n = row_count(&mut g, kind);
        let df = random_frame(&mut g, &profile, n);
        let plan = CompiledProfile::compile(&profile);
        assert_bits_eq(
            &reference_contributions(&profile, &df),
            &plan.mean_constraint_contributions(&df).unwrap(),
            "contributions",
        );
    }

    /// The single-tuple resolved path (ExTuNe's workhorse) agrees with
    /// the interpreted single-tuple semantics at every width, special
    /// values included.
    #[test]
    fn resolved_tuples_match_interpreted(seed in 0u64..u64::MAX, m in 1usize..=16) {
        let mut g = Gen(seed);
        let profile = random_profile(&mut g, m);
        let plan = CompiledProfile::compile(&profile);
        let frame = random_frame(&mut g, &profile, 40);
        let cols: Vec<&[f64]> =
            profile.numeric_attributes.iter().map(|a| frame.numeric(a).unwrap()).collect();
        for (i, label) in (0..40).zip(["v0", "v1", "v2", "v3"].iter().cycle()) {
            let tuple: Vec<f64> = cols.iter().map(|col| col[i]).collect();
            let cats: Vec<(&str, &str)> =
                profile.disjunctive.iter().map(|d| (d.attribute.as_str(), *label)).collect();
            let interpreted = profile.violation(&tuple, &cats).unwrap();
            let compiled = plan.violation_resolved(&tuple, &plan.resolve_cases(&cats).unwrap());
            assert_eq!(interpreted.to_bits(), compiled.to_bits(), "tuple {i}");
        }
    }
}

/// Synthesized (not hand-built) profiles, partitioned training data, and
/// serving frames that include values unseen in training — end to end on
/// the paper-style pipeline.
#[test]
fn synthesized_partitioned_profile_is_bit_identical() {
    let n = 3 * EVAL_BLOCK_ROWS + 17;
    let mut g = Gen(0xC0FFEE);
    let mut x = Vec::with_capacity(n);
    let mut y = Vec::with_capacity(n);
    let mut z = Vec::with_capacity(n);
    let mut regime = Vec::with_capacity(n);
    for i in 0..n {
        let r = i % 3;
        let xv = g.f64(-20.0, 20.0);
        let yv = g.f64(-5.0, 5.0);
        x.push(xv);
        y.push(yv);
        z.push((r as f64 + 1.0) * xv - yv);
        regime.push(["low", "mid", "high"][r].to_string());
    }
    let mut train = DataFrame::new();
    train.push_numeric("x", x).unwrap();
    train.push_numeric("y", y).unwrap();
    train.push_numeric("z", z).unwrap();
    train.push_categorical("regime", &regime).unwrap();

    let profile = synthesize(&train, &SynthOptions::default()).unwrap();
    assert!(!profile.disjunctive.is_empty(), "expected a compound profile");
    let plan = CompiledProfile::compile(&profile);

    // Serving window with drifted values and an unseen regime label.
    let mut serve = train.take(&(0..EVAL_BLOCK_ROWS + 3).collect::<Vec<_>>());
    serve = serve.drop_column("regime").unwrap();
    let labels: Vec<String> =
        (0..serve.n_rows()).map(|i| ["low", "mid", "alien"][i % 3].to_string()).collect();
    serve.push_categorical("regime", &labels).unwrap();

    let interpreted = profile.violations_interpreted(&serve).unwrap();
    assert_bits_eq(&interpreted, &plan.violations(&serve).unwrap(), "synthesized serve");
    for threads in [2, 4] {
        assert_bits_eq(
            &interpreted,
            &plan.violations_parallel(&serve, threads).unwrap(),
            "synthesized parallel",
        );
    }
    // Unseen labels must register: every third row carries "alien".
    assert!(plan.violations(&serve).unwrap()[2] > 0.0);
}

/// The single-tuple resolved path (ExTuNe's workhorse) agrees with the
/// interpreted single-tuple semantics.
#[test]
fn resolved_tuple_matches_interpreted() {
    let mut g = Gen(42);
    let profile = random_profile(&mut g, 3);
    let plan = CompiledProfile::compile(&profile);
    for trial in 0..200 {
        let tuple: Vec<f64> = (0..3).map(|_| g.f64(-40.0, 40.0)).collect();
        let label = format!("v{}", trial % 4);
        let cats: Vec<(&str, &str)> =
            profile.disjunctive.iter().map(|d| (d.attribute.as_str(), label.as_str())).collect();
        let interpreted = profile.violation(&tuple, &cats).unwrap();
        let cases = plan.resolve_cases(&cats).unwrap();
        let compiled = plan.violation_resolved(&tuple, &cases);
        assert_eq!(interpreted.to_bits(), compiled.to_bits(), "trial {trial}");
    }
}

/// A global constraint with no conjuncts contributes exactly `+0.0`, on
/// its own and beside a disjunctive constraint.
#[test]
fn empty_global_group_contributes_positive_zero() {
    let mut g = Gen(7);
    let mut profile = random_profile(&mut g, 5);
    profile.global = Some(SimpleConstraint::new(vec![], vec![]));
    profile.disjunctive.truncate(1);
    let df = random_frame(&mut g, &profile, 2 * EVAL_BLOCK_ROWS + 3);
    let plan = CompiledProfile::compile(&profile);
    assert_bits_eq(
        &profile.violations_interpreted(&df).unwrap(),
        &plan.violations(&df).unwrap(),
        "empty global",
    );

    profile.disjunctive.clear();
    let plan = CompiledProfile::compile(&profile);
    let v = plan.violations(&df).unwrap();
    assert!(v.iter().all(|x| x.to_bits() == 0.0f64.to_bits()), "an empty group must score +0.0");
    assert_bits_eq(&profile.violations_interpreted(&df).unwrap(), &v, "empty global only");
    assert_eq!(plan.violation_resolved(&[1.0; 5], &[]).to_bits(), 0.0f64.to_bits());
}

/// A disjunctive whose every serving row carries an unseen label scores
/// exactly 1 for that part on every row.
#[test]
fn all_unseen_disjunctive_scores_one() {
    let mut g = Gen(11);
    let mut profile = random_profile(&mut g, 4);
    profile.global = None;
    profile.disjunctive = vec![DisjunctiveConstraint {
        attribute: "g0".into(),
        cases: vec![("v0".into(), random_simple(&mut g, 4, 6))],
    }];
    let mut df = DataFrame::new();
    for a in &profile.numeric_attributes {
        df.push_numeric(a.clone(), (0..7).map(|_| g.f64(-30.0, 30.0)).collect()).unwrap();
    }
    df.push_categorical("g0", &["zz"; 7]).unwrap();
    let plan = CompiledProfile::compile(&profile);
    let v = plan.violations(&df).unwrap();
    assert_bits_eq(&profile.violations_interpreted(&df).unwrap(), &v, "all unseen");
    assert!(v.iter().all(|&x| x == 1.0));
}

/// The benchmark's shape: the paper's airlines scenario profiled from
/// 20 000 daytime flights (11 attributes, a 12-conjunct global constraint
/// and three disjunctive constraints with 8/12/12 cases of 12 conjuncts),
/// serving a 4096-row batch with 10 % overnight flights.
#[test]
fn airlines_shaped_batch_is_bit_identical() {
    let train = airlines(&AirlinesConfig { rows: 20_000, kind: FlightKind::Daytime, seed: 7 });
    let profile = synthesize(&train, &SynthOptions::default()).unwrap();
    assert_eq!(profile.numeric_attributes.len(), 11);
    let shape: Vec<(usize, usize)> = profile
        .disjunctive
        .iter()
        .map(|d| (d.cases.len(), d.cases.iter().map(|(_, c)| c.len()).max().unwrap()))
        .collect();
    assert_eq!(shape, [(8, 12), (12, 12), (12, 12)]);

    let batch = airlines(&AirlinesConfig { rows: 4096, kind: FlightKind::Mixed(10), seed: 8 });
    let plan = CompiledProfile::compile(&profile);
    let interpreted = profile.violations_interpreted(&batch).unwrap();
    assert_bits_eq(&interpreted, &plan.violations(&batch).unwrap(), "airlines");
    assert_bits_eq(
        &interpreted,
        &plan.violations_parallel(&batch, 2).unwrap(),
        "airlines, 2 threads",
    );
    assert!(interpreted.iter().any(|&v| v > 0.1), "overnight flights must violate");
    assert_bits_eq(
        &reference_contributions(&profile, &batch),
        &plan.mean_constraint_contributions(&batch).unwrap(),
        "airlines contributions",
    );
}
