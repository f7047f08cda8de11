//! Rejection sampling for dynamic random walk (§4 of the paper).
//!
//! The engine never scans all out-edges of the walker's residing vertex.
//! Instead it throws darts at a 2-D board:
//!
//! * the **main rectangle** is `Q(v) × ΣPs(e)` — the envelope height times
//!   the total static weight. An `x` sample inside it picks a candidate
//!   edge proportionally to `Ps` (via an alias table, or uniformly when
//!   unbiased); the `y` sample is then compared against the candidate's
//!   dynamic component `Pd`.
//! * each declared **outlier** (an edge whose `Pd` may exceed `Q(v)`, §4.2)
//!   contributes an *appendix* rectangle of `width_bound × (height_bound −
//!   Q)`, representing the chopped-off top of its bar. A dart landing in an
//!   appendix is accepted with probability `actual chopped area / estimated
//!   appendix area`.
//! * darts at or below the optional **lower bound** `L(v)` are
//!   *pre-accepted* without evaluating `Pd` at all — which for second-order
//!   walks also skips a round-trip of remote state queries.
//!
//! Provided the user-declared bounds are true bounds (`Q ≥ Pd` for
//! non-outlier edges, `width_bound ≥ Ps` and `height_bound ≥ Pd` for
//! outliers, `L ≤ Pd` for all edges), the accepted edge is distributed
//! exactly proportionally to `Ps(e) · Pd(e)` — see the exactness property
//! tests at the bottom of this module and in `tests/` of this crate.

use crate::rng::DeterministicRng;

/// A declared outlier: a candidate edge whose `Pd` may exceed the envelope.
///
/// The `target` field identifies the edge by its destination vertex; the
/// engine locates the concrete edge (e.g. node2vec's *return edge* is the
/// one leading back to the walker's previous stop). Bounds may be loose —
/// looser bounds only cost extra rejected trials, never correctness.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutlierSlot {
    /// Destination vertex of the outlier edge.
    pub target: u32,
    /// Upper bound on the edge's static component `Ps`.
    pub width_bound: f64,
    /// Upper bound on the edge's dynamic component `Pd`.
    pub height_bound: f64,
}

/// The sampling board for one walker step at one vertex.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// `Q(v)`: upper bound on `Pd` over all *non-outlier* edges.
    pub q: f64,
    /// `L(v)`: lower bound on `Pd` over all edges; `0.0` disables
    /// pre-acceptance.
    pub lower: f64,
    /// `ΣPs(e)` over all out-edges of the vertex (the degree itself for
    /// unbiased walks).
    pub static_total: f64,
    /// Declared outliers, each contributing an appendix area.
    pub outliers: Vec<OutlierSlot>,
}

/// Where one dart landed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Trial {
    /// The dart landed in the main rectangle at height `y ∈ [0, Q)`.
    ///
    /// The caller samples the candidate edge from the static distribution
    /// and accepts iff `y < Pd(candidate)`; if `y ≤ L(v)` it may pre-accept
    /// without evaluating `Pd`.
    Main {
        /// Dart height within the envelope.
        y: f64,
    },
    /// The dart landed in the appendix of `outliers[index]`.
    ///
    /// The caller locates the outlier edge and accepts iff
    /// `x_mass < Ps(edge)` **and** `y < Pd(edge)` (note `y ≥ Q` here, so
    /// this tests the chopped-off part of the bar).
    Appendix {
        /// Index into [`Envelope::outliers`].
        index: usize,
        /// Horizontal dart position scaled by the slot's `width_bound`.
        x_mass: f64,
        /// Dart height, in `[Q, height_bound)`.
        y: f64,
    },
}

impl Envelope {
    /// Creates an envelope with no lower bound and no outliers.
    pub fn simple(q: f64, static_total: f64) -> Self {
        Envelope {
            q,
            lower: 0.0,
            static_total,
            outliers: Vec::new(),
        }
    }

    /// Area of the main rectangle.
    #[inline]
    pub fn main_area(&self) -> f64 {
        self.q * self.static_total
    }

    /// Estimated area of the appendix for `outliers[i]`.
    #[inline]
    fn appendix_area(&self, slot: &OutlierSlot) -> f64 {
        slot.width_bound * (slot.height_bound - self.q).max(0.0)
    }

    /// Total dart-board area: main rectangle plus all appendices.
    ///
    /// A zero total area means no edge can have positive transition
    /// probability; the walker must terminate (§2.2).
    pub fn total_area(&self) -> f64 {
        self.main_area()
            + self
                .outliers
                .iter()
                .map(|o| self.appendix_area(o))
                .sum::<f64>()
    }

    /// Throws one dart, returning where it landed.
    ///
    /// Returns `None` when the board has zero area.
    pub fn draw(&self, rng: &mut DeterministicRng) -> Option<Trial> {
        let main = self.main_area();
        let total = self.total_area();
        if total <= 0.0 {
            return None;
        }
        let mut r = rng.next_f64_below(total);
        if r < main {
            // Height is uniform in [0, Q); the horizontal coordinate is
            // delegated to the caller's static sampler.
            return Some(Trial::Main {
                y: r / self.static_total,
            });
        }
        r -= main;
        for (index, slot) in self.outliers.iter().enumerate() {
            let area = self.appendix_area(slot);
            if r < area {
                let height = slot.height_bound - self.q;
                let x_mass = (r / height).min(slot.width_bound);
                // Spend an independent draw on the vertical coordinate so x
                // and y are uncorrelated.
                let y = self.q + rng.next_f64_below(height);
                return Some(Trial::Appendix { index, x_mass, y });
            }
            r -= area;
        }
        // Floating-point slack can push `r` a hair past the last appendix;
        // land it in the main rectangle, which is always a valid region.
        Some(Trial::Main {
            y: rng.next_f64_below(self.q.max(f64::MIN_POSITIVE)),
        })
    }

    /// Expected number of trials per accepted sample (Eq. 3 of the paper),
    /// generalized to include appendix areas.
    ///
    /// `effective_mass` must be `Σ Ps(e) · Pd(e)` over all edges.
    pub fn expected_trials(&self, effective_mass: f64) -> f64 {
        if effective_mass <= 0.0 {
            f64::INFINITY
        } else {
            self.total_area() / effective_mass
        }
    }
}

/// Outcome of running local rejection sampling to completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LocalOutcome {
    /// An edge was accepted; carries the edge index and the number of
    /// trials consumed.
    Accepted {
        /// Index of the accepted out-edge.
        edge: usize,
        /// Number of darts thrown, including the accepting one.
        trials: u32,
    },
    /// `max_trials` darts all missed; the caller should fall back to an
    /// exact full scan (which also detects the no-eligible-edge case).
    Exhausted,
    /// The board has zero area: no edge has positive probability.
    NoMass,
}

/// Runs rejection sampling to completion for a *local* decision — the fast
/// path for static and first-order dynamic walks, where `Pd` can be
/// evaluated without remote state queries.
///
/// * `candidate` samples one edge index from the static distribution
///   (alias table or uniform).
/// * `ps` returns the static component of an edge (only consulted for
///   appendix darts).
/// * `pd` returns the dynamic component of an edge; the engine threads its
///   edges-evaluated counter through this closure.
/// * `locate_outlier` resolves an [`OutlierSlot`] to a concrete edge index,
///   or `None` if the declared outlier edge does not exist at this vertex.
pub fn sample_local(
    env: &Envelope,
    rng: &mut DeterministicRng,
    max_trials: u32,
    mut candidate: impl FnMut(&mut DeterministicRng) -> usize,
    mut ps: impl FnMut(usize) -> f64,
    mut pd: impl FnMut(usize) -> f64,
    mut locate_outlier: impl FnMut(&OutlierSlot) -> Option<usize>,
) -> LocalOutcome {
    if env.total_area() <= 0.0 {
        return LocalOutcome::NoMass;
    }
    for trial in 1..=max_trials {
        let Some(dart) = env.draw(rng) else {
            return LocalOutcome::NoMass;
        };
        match dart {
            Trial::Main { y } => {
                let edge = candidate(rng);
                if y <= env.lower || y < pd(edge) {
                    return LocalOutcome::Accepted {
                        edge,
                        trials: trial,
                    };
                }
            }
            Trial::Appendix { index, x_mass, y } => {
                let slot = env.outliers[index];
                if let Some(edge) = locate_outlier(&slot) {
                    if x_mass < ps(edge) && y < pd(edge) {
                        return LocalOutcome::Accepted {
                            edge,
                            trials: trial,
                        };
                    }
                }
            }
        }
    }
    LocalOutcome::Exhausted
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force reference: empirical distribution of `sample_local` over
    /// explicit `ps`/`pd` arrays must match `ps[i]·pd[i]` exactly.
    fn check_exactness(ps: &[f64], pd: &[f64], env: Envelope, seed: u64) {
        let n = ps.len();
        let cdf = crate::CdfTable::new(ps).unwrap();
        let mut rng = DeterministicRng::new(seed);
        let draws = 300_000usize;
        let mut counts = vec![0usize; n];
        for _ in 0..draws {
            match sample_local(
                &env,
                &mut rng,
                10_000,
                |r| cdf.sample(r),
                |e| ps[e],
                |e| pd[e],
                |slot| (0..n).find(|&e| e as u32 == slot.target),
            ) {
                LocalOutcome::Accepted { edge, .. } => counts[edge] += 1,
                other => panic!("unexpected outcome {other:?}"),
            }
        }
        let mass: f64 = ps.iter().zip(pd).map(|(a, b)| a * b).sum();
        for i in 0..n {
            let expect = ps[i] * pd[i] / mass;
            let got = counts[i] as f64 / draws as f64;
            assert!(
                (got - expect).abs() < 0.012,
                "edge {i}: got {got:.4} expected {expect:.4}"
            );
        }
    }

    #[test]
    fn unbiased_node2vec_shape() {
        // p = 2, q = 0.5 → Pd ∈ {0.5, 1, 2}; envelope Q = 2.
        let ps = [1.0, 1.0, 1.0, 1.0];
        let pd = [1.0, 2.0, 2.0, 0.5];
        check_exactness(&ps, &pd, Envelope::simple(2.0, 4.0), 41);
    }

    #[test]
    fn biased_walk_exact() {
        let ps = [0.5, 3.0, 1.5, 2.0, 1.0];
        let pd = [1.0, 0.25, 0.75, 1.0, 0.5];
        let total: f64 = ps.iter().sum();
        check_exactness(&ps, &pd, Envelope::simple(1.0, total), 42);
    }

    #[test]
    fn lower_bound_preserves_distribution() {
        let ps = [1.0, 1.0, 1.0];
        let pd = [0.5, 1.0, 0.75];
        let env = Envelope {
            q: 1.0,
            lower: 0.5,
            static_total: 3.0,
            outliers: Vec::new(),
        };
        check_exactness(&ps, &pd, env, 43);
    }

    #[test]
    fn outlier_folding_preserves_distribution() {
        // Return edge (index 3) has Pd = 2, everything else ≤ 1, so the
        // envelope can stay at Q = 1 with one declared outlier.
        let ps = [1.0, 1.0, 1.0, 1.0];
        let pd = [1.0, 0.5, 0.5, 2.0];
        let env = Envelope {
            q: 1.0,
            lower: 0.0,
            static_total: 4.0,
            outliers: vec![OutlierSlot {
                target: 3,
                width_bound: 1.0,
                height_bound: 2.0,
            }],
        };
        check_exactness(&ps, &pd, env, 44);
    }

    #[test]
    fn loose_outlier_bounds_stay_exact() {
        // Over-estimated width and height only waste trials.
        let ps = [2.0, 1.0, 0.5];
        let pd = [0.5, 3.0, 1.0];
        let env = Envelope {
            q: 1.0,
            lower: 0.0,
            static_total: 3.5,
            outliers: vec![OutlierSlot {
                target: 1,
                width_bound: 2.5,  // actual Ps is 1.0
                height_bound: 5.0, // actual Pd is 3.0
            }],
        };
        check_exactness(&ps, &pd, env, 45);
    }

    #[test]
    fn outlier_with_pd_below_q_adds_no_mass() {
        // Declared outlier turns out not to exceed the envelope: its
        // appendix darts must all reject, leaving the distribution exact.
        let ps = [1.0, 1.0];
        let pd = [1.0, 0.5];
        let env = Envelope {
            q: 1.0,
            lower: 0.0,
            static_total: 2.0,
            outliers: vec![OutlierSlot {
                target: 1,
                width_bound: 1.0,
                height_bound: 3.0,
            }],
        };
        check_exactness(&ps, &pd, env, 46);
    }

    #[test]
    fn zero_area_reports_no_mass() {
        let env = Envelope::simple(0.0, 10.0);
        let mut rng = DeterministicRng::new(47);
        let out = sample_local(&env, &mut rng, 10, |_| 0, |_| 1.0, |_| 1.0, |_| None);
        assert_eq!(out, LocalOutcome::NoMass);
    }

    #[test]
    fn all_pd_zero_exhausts() {
        // Positive envelope but every bar is zero: darts always miss. The
        // engine's full-scan fallback is what turns this into termination.
        let env = Envelope::simple(1.0, 4.0);
        let mut rng = DeterministicRng::new(48);
        let out = sample_local(
            &env,
            &mut rng,
            64,
            |r| r.next_index(4),
            |_| 1.0,
            |_| 0.0,
            |_| None,
        );
        assert_eq!(out, LocalOutcome::Exhausted);
    }

    #[test]
    fn missing_outlier_edge_rejects_gracefully() {
        // The declared outlier's target is not actually adjacent; appendix
        // darts must reject rather than panic, and main-rectangle sampling
        // remains exact.
        let ps = [1.0, 1.0];
        let pd = [1.0, 1.0];
        let env = Envelope {
            q: 1.0,
            lower: 0.0,
            static_total: 2.0,
            outliers: vec![OutlierSlot {
                target: 99,
                width_bound: 1.0,
                height_bound: 2.0,
            }],
        };
        check_exactness(&ps, &pd, env, 49);
    }

    #[test]
    fn expected_trials_formula() {
        // Eq. 3: E = Q·ΣPs / Σ(Ps·Pd).
        let env = Envelope::simple(2.0, 4.0);
        let mass = 1.0 + 2.0 + 2.0 + 0.5;
        let e = env.expected_trials(mass);
        assert!((e - 8.0 / 5.5).abs() < 1e-12);
        assert_eq!(env.expected_trials(0.0), f64::INFINITY);
    }

    #[test]
    fn outlier_folding_reduces_expected_trials() {
        // p = 0.5, q = 2 node2vec at a degree-100 vertex: one bar at 2,
        // the rest at 0.5. Folding the outlier must shrink the board.
        let deg = 100.0;
        let naive = Envelope::simple(2.0, deg);
        let folded = Envelope {
            q: 1.0,
            lower: 0.0,
            static_total: deg,
            outliers: vec![OutlierSlot {
                target: 0,
                width_bound: 1.0,
                height_bound: 2.0,
            }],
        };
        let mass = 2.0 + 99.0 * 0.5;
        assert!(folded.expected_trials(mass) < naive.expected_trials(mass) / 1.9);
    }

    #[test]
    fn trials_counted() {
        let env = Envelope::simple(1.0, 2.0);
        let mut rng = DeterministicRng::new(50);
        // Pd = 1 everywhere → first dart always accepted.
        let out = sample_local(
            &env,
            &mut rng,
            10,
            |r| r.next_index(2),
            |_| 1.0,
            |_| 1.0,
            |_| None,
        );
        assert!(matches!(out, LocalOutcome::Accepted { trials: 1, .. }));
    }
}
