//! Stackable control-layer middleware over any [`JobController`].
//!
//! The §4.4/§5.6 runtime extensions — fair-share fallback and online
//! recalibration — are [`ControlLayer`]s: small decorators with hooks
//! before and after the inner controller's tick, stacked in any
//! combination by [`Layered`]:
//!
//! ```text
//! ┌─ Layered ───────────────────────────────────────────────┐
//! │  before hooks: outermost → … → innermost                │
//! │           ┌───────────────────────────┐                 │
//! │           │ inner JobController       │                 │
//! │           └───────────────────────────┘                 │
//! │  after hooks:  innermost → … → outermost (final say)    │
//! └─────────────────────────────────────────────────────────┘
//! ```
//!
//! **Precedence.** Layers are pushed innermost-first with
//! [`Layered::with`]; the *last* pushed layer is outermost. Before
//! hooks run outermost→innermost, after hooks innermost→outermost, so
//! the outermost layer observes every inner transformation and has
//! final say on the guarantee. Layers that only act *before* the tick
//! (e.g. recalibration, which rescales the shared model) and layers
//! that only act *after* it (e.g. fallback, which overrides the
//! decision) commute: stacking fallback-over-recalibration or
//! recalibration-over-fallback yields identical decisions.

use std::any::Any;

use jockey_cluster::{ControlDecision, JobController, JobStatus};
use jockey_simrt::time::SimDuration;

/// One stackable control middleware.
///
/// All hooks default to pass-through, so a layer implements only the
/// seams it needs. `Any` is a supertrait so stacked layers can be
/// recovered by type via [`Layered::layer`] (e.g. to read a fallback
/// flag after a run).
pub trait ControlLayer: Any + Send {
    /// Short stable name for diagnostics.
    fn name(&self) -> &'static str;

    /// Runs before the inner controller's periodic tick.
    fn before_tick(&mut self, _status: &JobStatus) {}

    /// Transforms the decision after the inner controller's periodic
    /// tick.
    fn after_tick(&mut self, _status: &JobStatus, decision: ControlDecision) -> ControlDecision {
        decision
    }

    /// Runs before the admission-time initial decision. Unlike
    /// periodic ticks, this defaults to a no-op: wrappers historically
    /// let the first decision through untouched.
    fn before_initial(&mut self, _status: &JobStatus) {}

    /// Transforms the admission-time initial decision (default:
    /// pass-through).
    fn after_initial(&mut self, _status: &JobStatus, decision: ControlDecision) -> ControlDecision {
        decision
    }

    /// Notifies the layer of a runtime deadline change (after the
    /// inner controller has been notified).
    fn deadline_changed(&mut self, _new_deadline: SimDuration) {}
}

/// A [`JobController`] decorated with a stack of [`ControlLayer`]s.
pub struct Layered<C> {
    inner: C,
    /// Innermost first; the last layer is outermost.
    layers: Vec<Box<dyn ControlLayer>>,
}

impl<C: JobController> Layered<C> {
    /// Wraps `inner` with no layers (a transparent pass-through).
    pub fn new(inner: C) -> Self {
        Layered {
            inner,
            layers: Vec::new(),
        }
    }

    /// Pushes `layer` as the new outermost layer.
    pub fn with(mut self, layer: Box<dyn ControlLayer>) -> Self {
        self.layers.push(layer);
        self
    }

    /// The wrapped controller.
    pub fn inner(&self) -> &C {
        &self.inner
    }

    /// Mutable access to the wrapped controller.
    pub fn inner_mut(&mut self) -> &mut C {
        &mut self.inner
    }

    /// The innermost-first layer stack.
    pub fn layers(&self) -> &[Box<dyn ControlLayer>] {
        &self.layers
    }

    /// Finds the first layer of concrete type `T` (innermost first).
    pub fn layer<T: ControlLayer>(&self) -> Option<&T> {
        self.layers
            .iter()
            .find_map(|l| (l.as_ref() as &dyn Any).downcast_ref::<T>())
    }

    /// Mutable variant of [`Layered::layer`].
    pub fn layer_mut<T: ControlLayer>(&mut self) -> Option<&mut T> {
        self.layers
            .iter_mut()
            .find_map(|l| (l.as_mut() as &mut dyn Any).downcast_mut::<T>())
    }
}

impl<C: JobController> JobController for Layered<C> {
    fn tick(&mut self, status: &JobStatus) -> ControlDecision {
        for layer in self.layers.iter_mut().rev() {
            layer.before_tick(status);
        }
        let mut decision = self.inner.tick(status);
        for layer in &mut self.layers {
            decision = layer.after_tick(status, decision);
        }
        decision
    }

    fn initial(&mut self, status: &JobStatus) -> ControlDecision {
        for layer in self.layers.iter_mut().rev() {
            layer.before_initial(status);
        }
        let mut decision = self.inner.initial(status);
        for layer in &mut self.layers {
            decision = layer.after_initial(status, decision);
        }
        decision
    }

    fn deadline_changed(&mut self, new_deadline: SimDuration) {
        self.inner.deadline_changed(new_deadline);
        for layer in &mut self.layers {
            layer.deadline_changed(new_deadline);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jockey_cluster::FixedAllocation;
    use jockey_simrt::time::SimTime;

    fn status() -> JobStatus {
        JobStatus {
            now: SimTime::from_mins(1),
            elapsed: SimDuration::from_mins(1),
            stage_fraction: vec![0.5],
            stage_completed: vec![5],
            running: 2,
            running_guaranteed: 2,
            guarantee: 4,
            work_done: 10.0,
            finished: false,
        }
    }

    /// Appends a tag to a shared log and adds `delta` to the guarantee.
    struct Tagger {
        tag: &'static str,
        delta: u32,
        log: std::sync::Arc<std::sync::Mutex<Vec<String>>>,
    }

    impl ControlLayer for Tagger {
        fn name(&self) -> &'static str {
            self.tag
        }
        fn before_tick(&mut self, _status: &JobStatus) {
            self.log
                .lock()
                .unwrap()
                .push(format!("before:{}", self.tag));
        }
        fn after_tick(&mut self, _status: &JobStatus, mut d: ControlDecision) -> ControlDecision {
            self.log.lock().unwrap().push(format!("after:{}", self.tag));
            d.guarantee += self.delta;
            d
        }
    }

    #[test]
    fn hooks_run_outside_in_then_inside_out() {
        let log = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let mut c = Layered::new(FixedAllocation(10))
            .with(Box::new(Tagger {
                tag: "inner",
                delta: 1,
                log: log.clone(),
            }))
            .with(Box::new(Tagger {
                tag: "outer",
                delta: 10,
                log: log.clone(),
            }));
        let d = c.tick(&status());
        assert_eq!(d.guarantee, 21);
        assert_eq!(
            *log.lock().unwrap(),
            ["before:outer", "before:inner", "after:inner", "after:outer"]
        );
    }

    /// A layer that pins the guarantee — whoever runs last wins.
    struct Pin(u32);

    impl ControlLayer for Pin {
        fn name(&self) -> &'static str {
            "pin"
        }
        fn after_tick(&mut self, _status: &JobStatus, mut d: ControlDecision) -> ControlDecision {
            d.guarantee = self.0;
            d
        }
    }

    #[test]
    fn outermost_layer_has_final_say() {
        let mut a = Layered::new(FixedAllocation(10))
            .with(Box::new(Pin(3)))
            .with(Box::new(Pin(7)));
        assert_eq!(a.tick(&status()).guarantee, 7);
        let mut b = Layered::new(FixedAllocation(10))
            .with(Box::new(Pin(7)))
            .with(Box::new(Pin(3)));
        assert_eq!(b.tick(&status()).guarantee, 3);
    }

    #[test]
    fn layers_default_to_pass_through_on_initial() {
        let mut c = Layered::new(FixedAllocation(10)).with(Box::new(Pin(3)));
        // `Pin` only implements after_tick; initial stays untouched.
        assert_eq!(c.initial(&status()).guarantee, 10);
        assert_eq!(c.tick(&status()).guarantee, 3);
    }

    #[test]
    fn layer_lookup_by_type() {
        let log = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let c = Layered::new(FixedAllocation(10))
            .with(Box::new(Pin(3)))
            .with(Box::new(Tagger {
                tag: "t",
                delta: 0,
                log,
            }));
        assert_eq!(c.layer::<Pin>().unwrap().0, 3);
        assert_eq!(c.layer::<Tagger>().unwrap().tag, "t");
        struct Absent;
        impl ControlLayer for Absent {
            fn name(&self) -> &'static str {
                "absent"
            }
        }
        assert!(c.layer::<Absent>().is_none());
    }

    #[test]
    fn empty_stack_is_transparent() {
        let mut c = Layered::new(FixedAllocation(25));
        assert_eq!(c.tick(&status()), ControlDecision::simple(25));
        assert_eq!(c.initial(&status()), ControlDecision::simple(25));
        c.deadline_changed(SimDuration::from_mins(9)); // No-op, no panic.
    }
}
