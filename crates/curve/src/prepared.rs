//! Pairing preprocessing — the paper's "with preprocessing" mode.
//!
//! PBC lets callers preprocess the first pairing argument; the paper reports
//! 5.5 ms per raw pairing vs 2.5 ms with preprocessing (§VII-B.4). The same
//! trick here: for a fixed `P`, the Miller loop's point arithmetic depends
//! only on `P`, so we precompute per-step line *coefficients* once. A
//! prepared pairing then only evaluates each stored line at `φ(Q)` (two
//! `F_p` multiplications) and accumulates.
//!
//! Stored line form: `l(Q) = (a + b·x_Q) + i·y_Q` — the imaginary
//! coefficient of an affine tangent/chord line is always 1, so it is
//! not stored and evaluation reads `y_Q` directly.
//!
//! Affine lines need a field inversion each. [`PreparedG1::new_batch`]
//! walks all points of a batch (a capability's `n + 3` coordinates) in
//! lockstep and shares each step's inversion among them, so a batch
//! pays one inversion per step rather than one per point and step.

use crate::pairing::{final_exponentiation, MillerValue};
use crate::params::CurveParams;
use crate::point::G1Affine;
use apks_math::fp::{Fp, FpCtx};
use apks_math::fp2::{Fp2, Fp2Ops};
use apks_math::Fr;

/// One precomputed Miller step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Step {
    /// A line with coefficients `(a, b)`; evaluation is
    /// `(a + b·x_Q) + i·y_Q`.
    Line { a: Fp, b: Fp },
    /// A squaring-only step (vertical line dropped at the loop tail).
    Skip,
}

/// A first pairing argument with its Miller lines precomputed.
///
/// One loop iteration's `(Step, Option<Step>)` takes 272 bytes, so a
/// prepared point (159 iterations on either parameter set) holds about
/// 43 KB.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PreparedG1 {
    /// `(double-step line, optional add-step line)` per loop iteration.
    steps: Vec<(Step, Option<Step>)>,
    infinity: bool,
}

/// One point's state in the lockstep walk of [`PreparedG1::new_batch`].
struct Walk {
    p: G1Affine,
    /// The running multiple `T` of `p`.
    tx: Fp,
    ty: Fp,
    /// `T` reached the identity through a vertical chord; every later
    /// iteration only squares.
    done: bool,
    steps: Vec<(Step, Option<Step>)>,
}

impl Walk {
    /// The line of slope `lambda` through `T` (`a = λ·x_T − y_T`,
    /// `b = λ`); moves `T` to the line's third intersection, negated.
    /// `other_x` is the line's other known abscissa: `x_T` for a
    /// tangent, `x_P` for a chord.
    fn line(&mut self, fp: &FpCtx, lambda: Fp, other_x: Fp) -> Step {
        let a = fp.sub(fp.mul(lambda, self.tx), self.ty);
        let x3 = fp.sub(fp.sub(fp.sqr(lambda), self.tx), other_x);
        self.ty = fp.sub(fp.mul(lambda, fp.sub(self.tx, x3)), self.ty);
        self.tx = x3;
        Step::Line { a, b: lambda }
    }
}

impl PreparedG1 {
    /// Preprocesses a point: a batch of one ([`PreparedG1::new_batch`]).
    ///
    /// # Panics
    ///
    /// Panics if the walk meets a zero denominator, which only a point
    /// outside the order-`q` subgroup reaches (e.g. the 2-torsion point
    /// `(0, 0)`). Untrusted points go through [`PreparedG1::new_batch`].
    pub fn new(params: &CurveParams, p: &G1Affine) -> Self {
        Self::new_batch(params, std::slice::from_ref(p))
            .and_then(|mut one| one.pop())
            .expect("order-q points meet no zero Miller denominator")
    }

    /// Preprocesses every point of `ps` in one lockstep affine walk.
    ///
    /// The points share the loop's bit pattern, so each step inverts the
    /// line denominators of all live walks together
    /// ([`FpCtx::batch_inv`]): 160 field inversions for the whole batch
    /// (159 tangents and one chord, as `q = 2¹⁵⁹ + 2¹⁷ + 1`; the final
    /// chord is vertical) instead of 160 per point, plus three
    /// multiplications per point and line. The stored lines are exactly
    /// those of a one-point walk.
    ///
    /// `None` if a walk meets a zero denominator (a tangent at
    /// `y_T = 0`), which only points outside the order-`q` subgroup
    /// reach — e.g. the 2-torsion point `(0, 0)`, which
    /// [`G1Affine::from_bytes`] accepts as on-curve.
    pub fn new_batch(params: &CurveParams, ps: &[G1Affine]) -> Option<Vec<Self>> {
        let fp = params.fp();
        let order = Fr::modulus();
        let nbits = order.bits();
        let mut walks: Vec<Walk> = Vec::with_capacity(ps.len());
        walks.extend(ps.iter().filter(|p| !p.infinity).map(|p| Walk {
            p: *p,
            tx: p.x,
            ty: p.y,
            done: false,
            steps: Vec::with_capacity(nbits - 1),
        }));
        let mut den = Vec::with_capacity(walks.len());
        for i in (0..nbits - 1).rev() {
            // tangent: λ = (3x²+1)/(2y)
            den.clear();
            den.extend(walks.iter().filter(|w| !w.done).map(|w| fp.dbl(w.ty)));
            fp.batch_inv(&mut den)?;
            for w in walks.iter_mut().filter(|w| w.done) {
                w.steps.push((Step::Skip, None));
            }
            for (w, &inv) in walks.iter_mut().filter(|w| !w.done).zip(&den) {
                let x2 = fp.sqr(w.tx);
                let num = fp.add(fp.add(fp.dbl(x2), x2), fp.one());
                let tx = w.tx;
                let dbl = w.line(fp, fp.mul(num, inv), tx);
                w.steps.push((dbl, None));
            }
            if !order.bit(i) {
                continue;
            }
            // chord: λ = (y_T − y_P)/(x_T − x_P); at x_T = x_P the line
            // is vertical (T = −P) and the walk ends
            for w in walks.iter_mut().filter(|w| !w.done && w.tx == w.p.x) {
                w.done = true;
                w.steps.last_mut().expect("pushed above").1 = Some(Step::Skip);
            }
            den.clear();
            den.extend(
                walks
                    .iter()
                    .filter(|w| !w.done)
                    .map(|w| fp.sub(w.tx, w.p.x)),
            );
            fp.batch_inv(&mut den)?;
            for (w, &inv) in walks.iter_mut().filter(|w| !w.done).zip(&den) {
                let px = w.p.x;
                let add = w.line(fp, fp.mul(fp.sub(w.ty, w.p.y), inv), px);
                w.steps.last_mut().expect("pushed above").1 = Some(add);
            }
        }
        let mut walked = walks.into_iter().map(|w| w.steps);
        Some(
            ps.iter()
                .map(|p| PreparedG1 {
                    steps: if p.infinity {
                        Vec::new()
                    } else {
                        walked.next().unwrap_or_default()
                    },
                    infinity: p.infinity,
                })
                .collect(),
        )
    }

    /// True iff the prepared point is the identity.
    pub fn is_infinity(&self) -> bool {
        self.infinity
    }

    fn eval_step(fp: &FpCtx, step: &Step, q: &G1Affine, f: Fp2) -> Fp2 {
        match step {
            Step::Skip => f,
            Step::Line { a, b } => {
                let c0 = fp.add(*a, fp.mul(*b, q.x));
                fp.fp2_mul(f, Fp2::new(c0, q.y))
            }
        }
    }
}

/// Pairing with a prepared first argument (unreduced).
pub fn pairing_prepared_unreduced(
    params: &CurveParams,
    prep: &PreparedG1,
    q: &G1Affine,
) -> MillerValue {
    let fp = params.fp();
    if prep.infinity || q.infinity {
        return MillerValue(fp.fp2_one());
    }
    let mut f = fp.fp2_one();
    for (dbl, add) in &prep.steps {
        f = fp.fp2_sqr(f);
        f = PreparedG1::eval_step(fp, dbl, q, f);
        if let Some(add) = add {
            f = PreparedG1::eval_step(fp, add, q, f);
        }
    }
    MillerValue(f)
}

/// Full pairing with a prepared first argument.
pub fn pairing_prepared(params: &CurveParams, prep: &PreparedG1, q: &G1Affine) -> crate::Gt {
    crate::Gt(final_exponentiation(
        params,
        pairing_prepared_unreduced(params, prep, q),
    ))
}

/// Product of prepared pairings with shared squarings and one final
/// exponentiation.
pub fn multi_pairing_prepared(
    params: &CurveParams,
    pairs: &[(&PreparedG1, G1Affine)],
) -> crate::Gt {
    let fp = params.fp();
    let live: Vec<&(&PreparedG1, G1Affine)> = pairs
        .iter()
        .filter(|(p, q)| !p.infinity && !q.infinity)
        .collect();
    if live.is_empty() {
        return crate::Gt(fp.fp2_one());
    }
    let nsteps = live[0].0.steps.len();
    debug_assert!(live.iter().all(|(p, _)| p.steps.len() == nsteps));
    let mut f = fp.fp2_one();
    for s in 0..nsteps {
        f = fp.fp2_sqr(f);
        for (prep, q) in &live {
            let (dbl, add) = &prep.steps[s];
            f = PreparedG1::eval_step(fp, dbl, q, f);
            if let Some(add) = add {
                f = PreparedG1::eval_step(fp, add, q, f);
            }
        }
    }
    crate::Gt(final_exponentiation(params, MillerValue(f)))
}

/// Several prepared multi-pairings evaluated in one lockstep Miller
/// walk: one accumulator and one final exponentiation *per group*, with
/// the step loop shared across groups.
///
/// Each group is a pair list as in [`multi_pairing_prepared`]; the
/// result at index `i` equals `multi_pairing_prepared(params,
/// groups[i])`. The wave scan uses this to evaluate every capability in
/// a batch against one document in a single pass over the loop
/// iterations, keeping all line coefficients for the step hot while
/// each group folds its own product.
pub fn multi_pairing_prepared_many(
    params: &CurveParams,
    groups: &[&[(&PreparedG1, G1Affine)]],
) -> Vec<crate::Gt> {
    let fp = params.fp();
    // per-group live pairs (identity on either side contributes 1)
    let live: Vec<Vec<&(&PreparedG1, G1Affine)>> = groups
        .iter()
        .map(|pairs| {
            pairs
                .iter()
                .filter(|(p, q)| !p.infinity && !q.infinity)
                .collect()
        })
        .collect();
    let nsteps = live
        .iter()
        .flat_map(|g| g.first())
        .map(|(p, _)| p.steps.len())
        .next()
        .unwrap_or(0);
    debug_assert!(live
        .iter()
        .all(|g| g.iter().all(|(p, _)| p.steps.len() == nsteps)));
    let mut acc: Vec<Fp2> = vec![fp.fp2_one(); groups.len()];
    for s in 0..nsteps {
        for (g, f) in live.iter().zip(acc.iter_mut()) {
            if g.is_empty() {
                continue;
            }
            let mut v = fp.fp2_sqr(*f);
            for (prep, q) in g {
                let (dbl, add) = &prep.steps[s];
                v = PreparedG1::eval_step(fp, dbl, q, v);
                if let Some(add) = add {
                    v = PreparedG1::eval_step(fp, add, q, v);
                }
            }
            *f = v;
        }
    }
    acc.into_iter()
        .map(|f| crate::Gt(final_exponentiation(params, MillerValue(f))))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pairing::{miller_affine_reference, multi_pairing, pairing};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The one-point affine walk with a Fermat inversion per line — the
    /// preparation before batching, kept as the byte-level oracle for
    /// [`PreparedG1::new_batch`].
    fn per_point_walk(params: &CurveParams, p: &G1Affine) -> PreparedG1 {
        let fp = params.fp();
        if p.infinity {
            return PreparedG1 {
                steps: Vec::new(),
                infinity: true,
            };
        }
        let order = Fr::modulus();
        let nbits = order.bits();
        let mut steps = Vec::new();
        let (mut tx, mut ty, mut t_inf) = (p.x, p.y, false);
        for i in (0..nbits - 1).rev() {
            let dbl = if t_inf {
                Step::Skip
            } else {
                let num = fp.add(fp.add(fp.dbl(fp.sqr(tx)), fp.sqr(tx)), fp.one());
                let lambda = fp.mul(num, fp.inv(fp.dbl(ty)).expect("y ≠ 0"));
                let a = fp.sub(fp.mul(lambda, tx), ty);
                let x3 = fp.sub(fp.sqr(lambda), fp.dbl(tx));
                ty = fp.sub(fp.mul(lambda, fp.sub(tx, x3)), ty);
                tx = x3;
                Step::Line { a, b: lambda }
            };
            let add = if order.bit(i) && !t_inf {
                if tx == p.x {
                    t_inf = true;
                    Some(Step::Skip)
                } else {
                    let lambda = fp.mul(fp.sub(ty, p.y), fp.inv(fp.sub(tx, p.x)).unwrap());
                    let a = fp.sub(fp.mul(lambda, tx), ty);
                    let x3 = fp.sub(fp.sqr(lambda), fp.add(tx, p.x));
                    ty = fp.sub(fp.mul(lambda, fp.sub(tx, x3)), ty);
                    tx = x3;
                    Some(Step::Line { a, b: lambda })
                }
            } else {
                None
            };
            steps.push((dbl, add));
        }
        PreparedG1 {
            steps,
            infinity: false,
        }
    }

    /// Seven random subgroup points with the identity at the first,
    /// middle and last positions.
    fn batch_with_identities(params: &CurveParams, rng: &mut StdRng) -> Vec<G1Affine> {
        (0..7)
            .map(|k| {
                if k % 3 == 0 {
                    G1Affine::identity()
                } else {
                    params.mul(&params.generator(), Fr::random(rng))
                }
            })
            .collect()
    }

    #[test]
    fn batch_lines_are_byte_identical_to_per_point_walk() {
        let params = CurveParams::fast();
        let mut rng = StdRng::seed_from_u64(104);
        let ps = batch_with_identities(&params, &mut rng);
        let batch = PreparedG1::new_batch(&params, &ps).unwrap();
        assert_eq!(batch.len(), ps.len());
        for (prep, p) in batch.iter().zip(&ps) {
            assert_eq!(prep.is_infinity(), p.infinity);
            assert_eq!(*prep, per_point_walk(&params, p));
        }
        // one doubling line per bit below the top, and the loop ends on
        // the vertical chord T = −P
        let live = &batch[1];
        assert_eq!(live.steps.len(), Fr::modulus().bits() - 1);
        assert_eq!(live.steps.last().unwrap().1, Some(Step::Skip));
        assert_eq!(std::mem::size_of::<(Step, Option<Step>)>(), 272);
    }

    #[test]
    fn batch_unreduced_matches_affine_reference() {
        let params = CurveParams::fast();
        let fp = params.fp();
        let mut rng = StdRng::seed_from_u64(105);
        let ps = batch_with_identities(&params, &mut rng);
        let q = params.mul(&params.generator(), Fr::random(&mut rng));
        let batch = PreparedG1::new_batch(&params, &ps).unwrap();
        for (prep, p) in batch.iter().zip(&ps) {
            let expected = if p.infinity {
                fp.fp2_one()
            } else {
                miller_affine_reference(fp, p, &q)
            };
            assert_eq!(
                pairing_prepared_unreduced(&params, prep, &q),
                MillerValue(expected)
            );
        }
    }

    #[test]
    fn empty_batch_prepares_nothing() {
        let params = CurveParams::fast();
        assert_eq!(PreparedG1::new_batch(&params, &[]), Some(Vec::new()));
    }

    #[test]
    fn two_torsion_point_fails_the_batch_without_panicking() {
        let params = CurveParams::fast();
        let fp = params.fp();
        let t = G1Affine::new_unchecked(fp.zero(), fp.zero());
        assert!(t.is_on_curve(fp));
        assert_eq!(PreparedG1::new_batch(&params, &[t]), None);
        let g = params.generator();
        assert_eq!(PreparedG1::new_batch(&params, &[g, t, g]), None);
    }

    #[test]
    fn off_subgroup_points_never_panic() {
        // on-curve points of arbitrary order: either the walk fails or
        // its lines match the one-point walk
        let params = CurveParams::fast();
        let fp = params.fp();
        let mut rng = StdRng::seed_from_u64(106);
        let ps: Vec<G1Affine> = std::iter::repeat_with(|| fp.random(&mut rng))
            .filter_map(|x| {
                let y = fp.sqrt(fp.add(fp.mul(fp.sqr(x), x), x))?;
                Some(G1Affine::new_unchecked(x, y))
            })
            .take(4)
            .collect();
        for p in &ps {
            if let Some(batch) = PreparedG1::new_batch(&params, std::slice::from_ref(p)) {
                assert_eq!(batch[0], per_point_walk(&params, p));
            }
        }
        if let Some(batch) = PreparedG1::new_batch(&params, &ps) {
            for (prep, p) in batch.iter().zip(&ps) {
                assert_eq!(*prep, per_point_walk(&params, p));
            }
        }
    }

    #[test]
    fn prepared_matches_plain() {
        let params = CurveParams::fast();
        let mut rng = StdRng::seed_from_u64(100);
        let g = params.generator();
        for _ in 0..3 {
            let p = params.mul(&g, Fr::random(&mut rng));
            let q = params.mul(&g, Fr::random(&mut rng));
            let prep = PreparedG1::new(&params, &p);
            assert_eq!(
                pairing_prepared(&params, &prep, &q),
                pairing(&params, &p, &q)
            );
        }
    }

    #[test]
    fn prepared_identity() {
        let params = CurveParams::fast();
        let g = params.generator();
        let prep = PreparedG1::new(&params, &G1Affine::identity());
        assert!(prep.is_infinity());
        assert!(pairing_prepared(&params, &prep, &g).is_identity(&params));
    }

    #[test]
    fn multi_prepared_matches_multi() {
        let params = CurveParams::fast();
        let mut rng = StdRng::seed_from_u64(101);
        let g = params.generator();
        let pts: Vec<(G1Affine, G1Affine)> = (0..3)
            .map(|_| {
                (
                    params.mul(&g, Fr::random(&mut rng)),
                    params.mul(&g, Fr::random(&mut rng)),
                )
            })
            .collect();
        let preps: Vec<PreparedG1> = pts
            .iter()
            .map(|(p, _)| PreparedG1::new(&params, p))
            .collect();
        let pairs: Vec<(&PreparedG1, G1Affine)> = preps
            .iter()
            .zip(pts.iter())
            .map(|(prep, (_, q))| (prep, *q))
            .collect();
        assert_eq!(
            multi_pairing_prepared(&params, &pairs),
            multi_pairing(&params, &pts)
        );
    }

    #[test]
    fn many_matches_per_group_multi() {
        let params = CurveParams::fast();
        let mut rng = StdRng::seed_from_u64(102);
        let g = params.generator();
        // three groups of different sizes, one containing an identity pair
        let mut groups_pts: Vec<Vec<(G1Affine, G1Affine)>> = (1..=3)
            .map(|n| {
                (0..n)
                    .map(|_| {
                        (
                            params.mul(&g, Fr::random(&mut rng)),
                            params.mul(&g, Fr::random(&mut rng)),
                        )
                    })
                    .collect()
            })
            .collect();
        groups_pts[2][1].1 = G1Affine::identity();
        let preps: Vec<Vec<PreparedG1>> = groups_pts
            .iter()
            .map(|pts| {
                pts.iter()
                    .map(|(p, _)| PreparedG1::new(&params, p))
                    .collect()
            })
            .collect();
        let pairs: Vec<Vec<(&PreparedG1, G1Affine)>> = preps
            .iter()
            .zip(&groups_pts)
            .map(|(ps, pts)| {
                ps.iter()
                    .zip(pts)
                    .map(|(prep, (_, q))| (prep, *q))
                    .collect()
            })
            .collect();
        let refs: Vec<&[(&PreparedG1, G1Affine)]> = pairs.iter().map(|g| g.as_slice()).collect();
        let many = multi_pairing_prepared_many(&params, &refs);
        assert_eq!(many.len(), 3);
        for (out, group) in many.iter().zip(&pairs) {
            assert_eq!(*out, multi_pairing_prepared(&params, group));
        }
    }

    #[test]
    fn many_handles_empty_and_all_identity_groups() {
        let params = CurveParams::fast();
        let mut rng = StdRng::seed_from_u64(103);
        let g = params.generator();
        let p = params.mul(&g, Fr::random(&mut rng));
        let q = params.mul(&g, Fr::random(&mut rng));
        let prep = PreparedG1::new(&params, &p);
        let prep_inf = PreparedG1::new(&params, &G1Affine::identity());
        let live: Vec<(&PreparedG1, G1Affine)> = vec![(&prep, q)];
        let dead: Vec<(&PreparedG1, G1Affine)> = vec![(&prep_inf, q)];
        let empty: Vec<(&PreparedG1, G1Affine)> = Vec::new();
        let out = multi_pairing_prepared_many(
            &params,
            &[live.as_slice(), dead.as_slice(), empty.as_slice()],
        );
        assert_eq!(out[0], pairing_prepared(&params, &prep, &q));
        assert!(out[1].is_identity(&params));
        assert!(out[2].is_identity(&params));
        assert!(multi_pairing_prepared_many(&params, &[]).is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        // Scalars come straight from the generator, so `a == 0` / `b == 0`
        // exercise the identity branches too.
        #[test]
        fn prop_pairing_prepared_matches_pairing(a in any::<u64>(), b in any::<u64>()) {
            let params = CurveParams::fast();
            let g = params.generator();
            let p = params.mul(&g, Fr::from_u64(a));
            let q = params.mul(&g, Fr::from_u64(b));
            let prep = PreparedG1::new(&params, &p);
            prop_assert_eq!(
                pairing_prepared(&params, &prep, &q),
                pairing(&params, &p, &q)
            );
        }

        // A point's lines do not depend on the batch around it.
        #[test]
        fn prop_batch_entry_equals_batch_of_one(
            scalars in prop::collection::vec(prop_oneof![0u64..1, any::<u64>()], 1..5)
        ) {
            let params = CurveParams::fast();
            let g = params.generator();
            let ps: Vec<G1Affine> = scalars
                .iter()
                .map(|&s| params.mul(&g, Fr::from_u64(s)))
                .collect();
            let batch = PreparedG1::new_batch(&params, &ps).unwrap();
            for (prep, p) in batch.iter().zip(&ps) {
                let one = PreparedG1::new_batch(&params, std::slice::from_ref(p)).unwrap();
                prop_assert_eq!(&one[0], prep);
            }
        }
    }
}
