//! The pure §4.3 decision core: progress → candidate utilities → raw
//! argmin allocation.
//!
//! [`ArgminPolicy`] is the side-effect-free heart of the control loop:
//! given the per-stage fractions, scalar progress, elapsed time and a
//! prediction-inflation factor, it evaluates the expected utility
//! `U_a = U(t_r + S·C(p, a))` of every candidate allocation and picks
//! `A^r = argmin_a {a : U_a = max_b U_b}` — the minimum allocation
//! maximizing utility. Everything stateful (slack conditioning, dead
//! zone, hysteresis, clamping) lives in the
//! [`conditioner`](crate::conditioner) pipeline layered on top.

use std::sync::Arc;

use crate::predict::CompletionModel;
use crate::utility::UtilityFunction;

/// The paper's argmin rule over a [`CompletionModel`] and a
/// dead-zone-shifted [`UtilityFunction`]. Pure: the same inputs always
/// produce the same allocation, and calls have no side effects.
pub struct ArgminPolicy {
    model: Arc<dyn CompletionModel>,
    /// The utility already shifted left by the dead zone `D` (§4.3's
    /// step 2 evaluates candidates against the shifted deadline).
    shifted_utility: UtilityFunction,
    /// Smallest candidate considered.
    min_allocation: u32,
}

impl ArgminPolicy {
    /// Builds the policy. `shifted_utility` must already incorporate
    /// the dead-zone shift; [`crate::control::JockeyController`] does
    /// this via [`UtilityFunction::shifted_left`].
    pub fn new(
        model: Arc<dyn CompletionModel>,
        shifted_utility: UtilityFunction,
        min_allocation: u32,
    ) -> Self {
        ArgminPolicy {
            model,
            shifted_utility,
            min_allocation,
        }
    }

    /// The completion model predictions are drawn from.
    pub fn model(&self) -> &Arc<dyn CompletionModel> {
        &self.model
    }

    /// Replaces the shifted utility (deadline changes rebuild it).
    pub fn set_shifted_utility(&mut self, shifted_utility: UtilityFunction) {
        self.shifted_utility = shifted_utility;
    }

    /// Expected remaining seconds at `allocation`, inflated by
    /// `inflation`.
    pub fn predicted_remaining(
        &self,
        fs: &[f64],
        progress: f64,
        allocation: u32,
        inflation: f64,
    ) -> f64 {
        inflation * self.model.remaining_secs(fs, progress, allocation)
    }

    /// The expected (shifted) utility of every candidate allocation,
    /// in ascending allocation order — §4.3's step 2, exposed for
    /// diagnosis and tests.
    pub fn candidate_utilities(
        &self,
        fs: &[f64],
        progress: f64,
        elapsed_secs: f64,
        inflation: f64,
    ) -> Vec<(u32, f64)> {
        (self.min_allocation..=self.model.max_allocation())
            .map(|a| {
                let remaining = self.predicted_remaining(fs, progress, a, inflation);
                (a, self.shifted_utility.eval(elapsed_secs + remaining))
            })
            .collect()
    }

    /// The raw allocation `A^r` for per-stage fractions `fs`, scalar
    /// progress `progress`, at elapsed job time `elapsed_secs`, with
    /// model predictions multiplied by `inflation` (the slack factor
    /// `S`, possibly composed with other conditioning stages).
    pub fn raw_allocation(
        &self,
        fs: &[f64],
        progress: f64,
        elapsed_secs: f64,
        inflation: f64,
    ) -> u32 {
        let max = self.model.max_allocation();
        let mut best_u = f64::NEG_INFINITY;
        let mut best_a = max;
        // Ascending scan: the *first* allocation achieving the maximum
        // utility (within epsilon) is the minimal one.
        for a in self.min_allocation..=max {
            let remaining = self.predicted_remaining(fs, progress, a, inflation);
            let u = self.shifted_utility.eval(elapsed_secs + remaining);
            if u > best_u + 1e-9 {
                best_u = u;
                best_a = a;
            }
        }
        best_a
    }

    /// The largest allocation worth considering.
    pub fn max_allocation(&self) -> u32 {
        self.model.max_allocation()
    }
}

/// One candidate speculation level for the 2D argmin: a clone-token
/// surcharge plus the `C(p, a, s)` surface trained under it (see
/// [`TrainConfig::speculation`](crate::cpa::TrainConfig)). Level 0 is
/// conventionally "speculation off" — zero surcharge, the legacy
/// `C(p, a)` surface.
#[derive(Clone)]
pub struct SpeculationLevel {
    /// Display label (e.g. `"off"`, `"clone@2.0x"`).
    pub label: String,
    /// Clone tokens this level reserves *on top of* the allocation; the
    /// level's total token cost at allocation `a` is `a + clone_budget`.
    pub clone_budget: u32,
    /// Completion surface trained under this level's cloning policy.
    pub model: Arc<dyn CompletionModel>,
}

/// The chosen point of a 2D [`SpeculativeArgmin`] scan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpeculativeDecision {
    /// Guaranteed-token allocation `a`.
    pub allocation: u32,
    /// Index into the policy's speculation levels.
    pub level: usize,
    /// Total reserved footprint `a + clone_budget(level)`.
    pub total_tokens: u32,
}

/// The §4.3 argmin extended to two dimensions: candidates are
/// `(allocation, speculation level)` pairs, each predicted by its own
/// `C(p, a, s)` surface, and "minimum resources" means minimum *total
/// token cost* `a + clone_budget(s)` — a clone token held idle for a
/// straggler race is paid for exactly like a guaranteed token.
///
/// The scan visits candidates in ascending total-cost order (ties:
/// lowest level first) and keeps the first utility maximum, so the
/// decision is the cheapest utility-maximizing pair and, at equal cost,
/// the least speculative one. With a single zero-surcharge level this
/// degenerates to [`ArgminPolicy`]'s 1D rule over the same model.
pub struct SpeculativeArgmin {
    levels: Vec<SpeculationLevel>,
    /// Already dead-zone-shifted, as in [`ArgminPolicy`].
    shifted_utility: UtilityFunction,
    min_allocation: u32,
}

impl SpeculativeArgmin {
    /// Builds the 2D policy.
    ///
    /// # Panics
    ///
    /// Panics if `levels` is empty.
    pub fn new(
        levels: Vec<SpeculationLevel>,
        shifted_utility: UtilityFunction,
        min_allocation: u32,
    ) -> Self {
        assert!(!levels.is_empty(), "need at least one speculation level");
        SpeculativeArgmin {
            levels,
            shifted_utility,
            min_allocation,
        }
    }

    /// The policy's speculation levels, in index order.
    pub fn levels(&self) -> &[SpeculationLevel] {
        &self.levels
    }

    /// The 2D decision for the given conditioned inputs: the
    /// minimum-total-cost `(a, s)` maximizing the expected (shifted)
    /// utility `U(t_r + S·C_s(p, a))`.
    pub fn raw_decision(
        &self,
        fs: &[f64],
        progress: f64,
        elapsed_secs: f64,
        inflation: f64,
    ) -> SpeculativeDecision {
        let min_cost = self
            .levels
            .iter()
            .map(|l| self.min_allocation + l.clone_budget)
            .min()
            .expect("non-empty levels");
        let max_cost = self
            .levels
            .iter()
            .map(|l| l.model.max_allocation() + l.clone_budget)
            .max()
            .expect("non-empty levels");
        let mut best_u = f64::NEG_INFINITY;
        let mut best = SpeculativeDecision {
            allocation: self.levels[0].model.max_allocation(),
            level: 0,
            total_tokens: self.levels[0].model.max_allocation() + self.levels[0].clone_budget,
        };
        // Ascending total-cost scan, lowest level first within a cost:
        // the first candidate achieving the maximum utility (within
        // epsilon) is the cheapest and least speculative one.
        for cost in min_cost..=max_cost {
            for (s, level) in self.levels.iter().enumerate() {
                let Some(a) = cost.checked_sub(level.clone_budget) else {
                    continue;
                };
                if a < self.min_allocation || a > level.model.max_allocation() {
                    continue;
                }
                let remaining = inflation * level.model.remaining_secs(fs, progress, a);
                let u = self.shifted_utility.eval(elapsed_secs + remaining);
                if u > best_u + 1e-9 {
                    best_u = u;
                    best = SpeculativeDecision {
                        allocation: a,
                        level: s,
                        total_tokens: cost,
                    };
                }
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jockey_simrt::time::SimDuration;

    /// remaining = (1 - progress) * work / a.
    struct Toy {
        work: f64,
        max: u32,
    }

    impl CompletionModel for Toy {
        fn remaining_secs(&self, _fs: &[f64], progress: f64, allocation: u32) -> f64 {
            (1.0 - progress) * self.work / f64::from(allocation.max(1))
        }
        fn max_allocation(&self) -> u32 {
            self.max
        }
    }

    fn policy(work: f64, deadline_mins: u64) -> ArgminPolicy {
        ArgminPolicy::new(
            Arc::new(Toy { work, max: 100 }),
            UtilityFunction::deadline(SimDuration::from_mins(deadline_mins)),
            1,
        )
    }

    #[test]
    fn argmin_is_minimal_deadline_meeting() {
        // 6000 s of work, 3600 s deadline: ceil(6000/3600) = 2 tokens.
        let p = policy(6_000.0, 60);
        assert_eq!(p.raw_allocation(&[0.0], 0.0, 0.0, 1.0), 2);
        // Inflation 1.5 behaves exactly like slack: 9000/3600 -> 3.
        assert_eq!(p.raw_allocation(&[0.0], 0.0, 0.0, 1.5), 3);
    }

    #[test]
    fn candidate_utilities_peak_at_the_argmin() {
        let p = policy(6_000.0, 60);
        let us = p.candidate_utilities(&[0.0], 0.0, 0.0, 1.0);
        assert_eq!(us.len(), 100);
        let best = us
            .iter()
            .cloned()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap();
        // The first allocation within epsilon of the best utility is
        // the argmin.
        let argmin = us.iter().find(|(_, u)| *u >= best.1 - 1e-9).unwrap().0;
        assert_eq!(argmin, p.raw_allocation(&[0.0], 0.0, 0.0, 1.0));
    }

    #[test]
    fn purity_same_inputs_same_output() {
        let p = policy(12_345.0, 45);
        let a = p.raw_allocation(&[0.3], 0.3, 600.0, 1.2);
        for _ in 0..5 {
            assert_eq!(p.raw_allocation(&[0.3], 0.3, 600.0, 1.2), a);
        }
    }

    #[test]
    fn impossible_deadline_escalates_to_max() {
        let p = policy(1_000_000.0, 60);
        // No allocation meets the deadline; utility still improves with
        // earlier completion, so the argmin lands on the cap.
        assert_eq!(p.raw_allocation(&[0.0], 0.0, 0.0, 1.0), 100);
    }

    /// Like [`Toy`], but with a per-attempt straggler tail that cloning
    /// removes: `tail_factor` multiplies the remaining time.
    struct TailToy {
        work: f64,
        tail_factor: f64,
        max: u32,
    }

    impl CompletionModel for TailToy {
        fn remaining_secs(&self, _fs: &[f64], progress: f64, allocation: u32) -> f64 {
            self.tail_factor * (1.0 - progress) * self.work / f64::from(allocation.max(1))
        }
        fn max_allocation(&self) -> u32 {
            self.max
        }
    }

    fn two_level(work: f64, tail: f64, clone_budget: u32, deadline_mins: u64) -> SpeculativeArgmin {
        SpeculativeArgmin::new(
            vec![
                SpeculationLevel {
                    label: "off".into(),
                    clone_budget: 0,
                    model: Arc::new(TailToy {
                        work,
                        tail_factor: tail,
                        max: 100,
                    }),
                },
                SpeculationLevel {
                    label: "clone@2.0x".into(),
                    clone_budget,
                    model: Arc::new(TailToy {
                        work,
                        tail_factor: 1.0,
                        max: 100,
                    }),
                },
            ],
            UtilityFunction::deadline(SimDuration::from_mins(deadline_mins)),
            1,
        )
    }

    #[test]
    fn speculation_wins_when_clone_tokens_beat_extra_workers() {
        // Straggler tail doubles the no-speculation surface: meeting
        // the 60-min deadline costs 4 plain tokens (2·6000/3600 ≈ 3.3)
        // but only 2 + 1 with cloning — the 2D argmin must pick the
        // cheaper speculative pair.
        let p = two_level(6_000.0, 2.0, 1, 60);
        let d = p.raw_decision(&[0.0], 0.0, 0.0, 1.0);
        assert_eq!(d.level, 1, "{d:?}");
        assert_eq!(d.total_tokens, 3, "{d:?}");
        assert_eq!(d.allocation, 2, "{d:?}");
    }

    #[test]
    fn speculation_loses_when_the_surcharge_outweighs_the_tail() {
        // No tail at all: both surfaces agree, so the clone surcharge
        // is pure cost and level 0 wins at equal utility.
        let p = two_level(6_000.0, 1.0, 3, 60);
        let d = p.raw_decision(&[0.0], 0.0, 0.0, 1.0);
        assert_eq!(d.level, 0, "{d:?}");
        assert_eq!(d.allocation, 2, "{d:?}");
        assert_eq!(d.total_tokens, 2, "{d:?}");
    }

    #[test]
    fn single_zero_surcharge_level_degenerates_to_the_1d_argmin() {
        let p1 = policy(6_000.0, 60);
        let p2 = SpeculativeArgmin::new(
            vec![SpeculationLevel {
                label: "off".into(),
                clone_budget: 0,
                model: Arc::new(Toy {
                    work: 6_000.0,
                    max: 100,
                }),
            }],
            UtilityFunction::deadline(SimDuration::from_mins(60)),
            1,
        );
        for (progress, inflation) in [(0.0, 1.0), (0.3, 1.5), (0.9, 1.0)] {
            let a1 = p1.raw_allocation(&[progress], progress, 600.0, inflation);
            let d2 = p2.raw_decision(&[progress], progress, 600.0, inflation);
            assert_eq!(d2.allocation, a1);
            assert_eq!(d2.level, 0);
            assert_eq!(d2.total_tokens, a1);
        }
    }

    #[test]
    fn decision_is_pure() {
        let p = two_level(12_345.0, 1.7, 2, 45);
        let d = p.raw_decision(&[0.3], 0.3, 600.0, 1.2);
        for _ in 0..5 {
            assert_eq!(p.raw_decision(&[0.3], 0.3, 600.0, 1.2), d);
        }
    }
}
