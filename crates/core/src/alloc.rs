//! The pure §4.3 decision core: progress → candidate utilities → raw
//! argmin allocation.
//!
//! [`ArgminPolicy`] is the side-effect-free heart of the control loop:
//! given the per-stage fractions, scalar progress, elapsed time and a
//! prediction-inflation factor, it evaluates the expected utility
//! `U_a = U(t_r + S·C(p, a))` of every candidate allocation and picks
//! `A^r = argmin_a {a : U_a = max_b U_b}` — the minimum allocation
//! maximizing utility. Everything stateful (dead zone, hysteresis,
//! clamping) lives in [`JockeyController`](crate::control::JockeyController),
//! which fills one `C(p, ·)` curve per tick
//! ([`ArgminPolicy::fill_curve`]) and reads the argmin from it
//! ([`ArgminPolicy::argmin`]).
//!
//! [`SpeculationLevel`] and [`SpeculativeDecision`] describe the
//! speculation dimension: the control plane's speculative admission
//! ([`ControlPlane::try_add_job_speculative`](crate::plane::ControlPlane::try_add_job_speculative))
//! sizes each level with `size_for_deadline` and keeps the cheapest.

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

    /// Fills `curve` with `C(p, a)` for every candidate allocation
    /// `a` in `min_allocation..=max_allocation`, in ascending order,
    /// with one [`CompletionModel::remaining_curve`] call. The buffer
    /// is reused: once it has grown to the candidate count, filling it
    /// allocates nothing. Empty when `min_allocation` exceeds the
    /// model's cap.
    pub fn fill_curve(&self, fs: &[f64], progress: f64, curve: &mut Vec<f64>) {
        let max = self.model.max_allocation();
        let candidates = max
            .checked_sub(self.min_allocation)
            .map_or(0, |span| span as usize + 1);
        curve.resize(candidates, 0.0);
        self.model
            .remaining_curve(fs, progress, self.min_allocation, curve);
    }

    /// The expected (shifted) utility of finishing `inflation · remaining`
    /// seconds after `elapsed_secs`.
    fn utility(&self, remaining: f64, elapsed_secs: f64, inflation: f64) -> f64 {
        self.shifted_utility
            .eval(elapsed_secs + inflation * remaining)
    }

    /// The raw allocation `A^r` read from a `curve` that
    /// [`ArgminPolicy::fill_curve`] filled, at elapsed job time
    /// `elapsed_secs`, with model predictions multiplied by
    /// `inflation` (the slack factor `S`, possibly composed with other
    /// conditioning stages).
    pub fn argmin(&self, curve: &[f64], elapsed_secs: f64, inflation: f64) -> u32 {
        // With no candidate, or none above utility −∞, the answer is
        // the cap, as for a deadline no allocation meets.
        let mut best_a = match curve.len() {
            0 => self.model.max_allocation(),
            n => self.min_allocation + (n as u32 - 1),
        };
        let mut best_u = f64::NEG_INFINITY;
        // Ascending scan: the *first* allocation achieving the maximum
        // utility (within epsilon) is the minimal one.
        for (a, &remaining) in (self.min_allocation..).zip(curve) {
            let u = self.utility(remaining, elapsed_secs, inflation);
            if u > best_u + 1e-9 {
                best_u = u;
                best_a = a;
            }
        }
        best_a
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
        let mut curve = Vec::new();
        self.fill_curve(fs, progress, &mut curve);
        (self.min_allocation..)
            .zip(curve)
            .map(|(a, remaining)| (a, self.utility(remaining, elapsed_secs, inflation)))
            .collect()
    }

    /// The raw allocation `A^r` for per-stage fractions `fs`, scalar
    /// progress `progress`, at elapsed job time `elapsed_secs`:
    /// [`ArgminPolicy::argmin`] over a freshly filled curve.
    pub fn raw_allocation(
        &self,
        fs: &[f64],
        progress: f64,
        elapsed_secs: f64,
        inflation: f64,
    ) -> u32 {
        let mut curve = Vec::new();
        self.fill_curve(fs, progress, &mut curve);
        self.argmin(&curve, elapsed_secs, inflation)
    }

    /// The largest allocation worth considering.
    pub fn max_allocation(&self) -> u32 {
        self.model.max_allocation()
    }
}

/// One candidate speculation level for speculative admission: a
/// clone-token surcharge plus the `C(p, a, s)` surface trained under
/// it (see [`TrainConfig::speculation`](crate::cpa::TrainConfig)). Level 0 is
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

/// The `(allocation, speculation level)` pair speculative admission
/// picks: the level with the smallest total token cost, the least
/// speculative one on a tie.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpeculativeDecision {
    /// Guaranteed-token allocation `a`.
    pub allocation: u32,
    /// Index into the offered speculation levels.
    pub level: usize,
    /// Total reserved footprint `a + clone_budget(level)`.
    pub total_tokens: u32,
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
}
