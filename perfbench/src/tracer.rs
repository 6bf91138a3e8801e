//! Tracing from outside the program: wrappers around the public layer
//! boundaries (`JobController`, `CompletionModel`) plus spans around
//! coarse calls (`ClusterSim::run_single`, `JockeySetup::train`).
//!
//! Coarse calls get one [`Span`] each, kept in memory and written out
//! when the run ends. Boundaries crossed millions of times (controller
//! ticks, model queries, admissions) get a count and a
//! [`LogHistogram`] instead, so tracing stays cheap enough that the
//! traced run's simulated outcomes and most of its timing survive.

use std::io::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use jockey_cluster::{ControlDecision, JobController, JobStatus};
use jockey_core::predict::CompletionModel;
use jockey_simrt::time::SimDuration;

use crate::measure::LogHistogram;

/// One coarse call: name, start, end and the span that caused it.
#[derive(Clone, Debug)]
pub struct Span {
    /// Boundary name, e.g. `cluster.run`.
    pub name: &'static str,
    /// Span identifier, unique within one [`Tracer`].
    pub id: u32,
    /// The enclosing span, if any.
    pub parent: Option<u32>,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Span and histogram store for one traced run.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    /// `JobController::tick`/`initial` of the real controller.
    pub control_tick: LogHistogram,
    /// Every `CompletionModel` call (C(p, a), Amdahl, `ModelHandle`).
    pub model_query: LogHistogram,
    /// `JobHandle::tick` into the control plane.
    pub plane_tick: LogHistogram,
    /// `ControlPlane::try_add_job`, including model sizing.
    pub admit: LogHistogram,
    /// `ModelStore::record_completion`.
    pub absorb: LogHistogram,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            control_tick: LogHistogram::default(),
            model_query: LogHistogram::default(),
            plane_tick: LogHistogram::default(),
            admit: LogHistogram::default(),
            absorb: LogHistogram::default(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` under `parent`; `f` gets the
    /// new span's id, so that calls it makes can name it as parent.
    pub fn span<R>(&self, name: &'static str, parent: Option<u32>, f: impl FnOnce(u32) -> R) -> R {
        let start_ns = self.now_ns();
        let id = {
            let mut spans = self
                .spans
                .lock()
                .expect("span store poisoned by a panicking thread");
            let id = spans.len() as u32;
            spans.push(Span {
                name,
                id,
                parent,
                start_ns,
                end_ns: start_ns,
            });
            id
        };
        let r = f(id);
        let end_ns = self.now_ns();
        self.spans
            .lock()
            .expect("span store poisoned by a panicking thread")[id as usize]
            .end_ns = end_ns;
        r
    }

    /// Durations, in seconds, of every span named `name`.
    pub fn span_secs(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span store poisoned by a panicking thread")
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Writes every span as TSV (`id parent name start_ns end_ns`).
    pub fn write_spans(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tname\tstart_ns\tend_ns")?;
        for s in self
            .spans
            .lock()
            .expect("span store poisoned by a panicking thread")
            .iter()
        {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{}\t{parent}\t{}\t{}\t{}",
                s.id, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Runs one pass's work, inside a root `pass` span when tracing; `f`
/// gets the tracer and the span its calls hang under.
pub fn in_pass<R>(
    tracer: Option<&Arc<Tracer>>,
    f: impl FnOnce(Option<(&Arc<Tracer>, u32)>) -> R,
) -> R {
    match tracer {
        None => f(None),
        Some(t) => t.span("pass", None, |root| f(Some((t, root)))),
    }
}

/// Times `f` into `hist` when tracing, calls it bare otherwise.
pub fn timed<R>(hist: Option<&LogHistogram>, f: impl FnOnce() -> R) -> R {
    match hist {
        None => f(),
        Some(h) => {
            let t = Instant::now();
            let r = f();
            h.record(t.elapsed().as_nanos() as u64);
            r
        }
    }
}

/// A `CompletionModel` that forwards every method to the real model and
/// times each call into [`Tracer::model_query`].
pub struct TracedModel {
    inner: Arc<dyn CompletionModel>,
    tracer: Arc<Tracer>,
}

impl TracedModel {
    /// Wraps `inner`, recording into `tracer`.
    pub fn new(inner: Arc<dyn CompletionModel>, tracer: Arc<Tracer>) -> Self {
        TracedModel { inner, tracer }
    }
}

impl CompletionModel for TracedModel {
    fn remaining_secs(&self, fs: &[f64], progress: f64, allocation: u32) -> f64 {
        timed(Some(&self.tracer.model_query), || {
            self.inner.remaining_secs(fs, progress, allocation)
        })
    }

    fn max_allocation(&self) -> u32 {
        self.inner.max_allocation()
    }

    // Forwarded explicitly: models such as `CpaModel` override the
    // trait's exhaustive scan with a binary search, and the wrapper must
    // not fall back to the default.
    fn size_for_deadline(&self, fs: &[f64], deadline: SimDuration, slack: f64) -> Option<u32> {
        timed(Some(&self.tracer.model_query), || {
            self.inner.size_for_deadline(fs, deadline, slack)
        })
    }
}

/// A `JobController` that forwards to the real controller and times
/// each decision into [`Tracer::control_tick`].
pub struct TracedController {
    inner: Box<dyn JobController>,
    tracer: Arc<Tracer>,
}

impl TracedController {
    /// Wraps `inner`, recording into `tracer`.
    pub fn new(inner: Box<dyn JobController>, tracer: Arc<Tracer>) -> Self {
        TracedController { inner, tracer }
    }
}

impl JobController for TracedController {
    fn tick(&mut self, status: &JobStatus) -> ControlDecision {
        let inner = &mut self.inner;
        timed(Some(&self.tracer.control_tick), || inner.tick(status))
    }

    fn initial(&mut self, status: &JobStatus) -> ControlDecision {
        let inner = &mut self.inner;
        timed(Some(&self.tracer.control_tick), || inner.initial(status))
    }

    fn deadline_changed(&mut self, new_deadline: SimDuration) {
        self.inner.deadline_changed(new_deadline);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jockey_core::cpa::{CpaModel, TrainConfig};
    use jockey_core::progress::{IndicatorContext, ProgressIndicator};
    use jockey_jobgraph::graph::{EdgeKind, JobGraphBuilder};
    use jockey_jobgraph::profile::ProfileBuilder;
    use jockey_jobgraph::StageId;

    fn small_model() -> Arc<CpaModel> {
        let mut b = JobGraphBuilder::new("traced");
        let m = b.stage("map", 24);
        let r = b.stage("reduce", 4);
        b.edge(m, r, EdgeKind::AllToAll);
        let graph = Arc::new(b.build().expect("valid graph"));
        let mut pb = ProfileBuilder::new(&graph);
        for _ in 0..24 {
            pb.record_task(StageId(0), 0.5, 20.0, false);
        }
        for _ in 0..4 {
            pb.record_task(StageId(1), 0.5, 40.0, false);
        }
        let profile = pb.finish(300.0, 2.0);
        let ctx = IndicatorContext::new(ProgressIndicator::TotalWorkWithQ, &graph, &profile, None);
        Arc::new(CpaModel::train(
            &graph,
            &profile,
            &ctx,
            &TrainConfig::fast(vec![1, 2, 4, 8, 16, 32]),
            5,
        ))
    }

    #[test]
    fn traced_model_forwards_every_method() {
        let model = small_model();
        let tracer = Arc::new(Tracer::default());
        let traced = TracedModel::new(model.clone(), tracer.clone());
        assert_eq!(traced.max_allocation(), model.max_allocation());
        for p in [0.0, 0.3, 0.9] {
            for a in [1, 3, 8, 32] {
                let (x, y) = (
                    traced.remaining_secs(&[p], p, a),
                    model.remaining_secs(&[p], p, a),
                );
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        let before = tracer.model_query.count();
        for mins in 1..120 {
            let d = SimDuration::from_mins(mins);
            assert_eq!(
                traced.size_for_deadline(&[0.0], d, 1.2),
                model.size_for_deadline(&[0.0], d, 1.2)
            );
        }
        // One recorded call per sizing: the wrapper forwarded to the
        // model's own search instead of scanning through
        // `remaining_secs` with the trait default.
        assert_eq!(tracer.model_query.count() - before, 119);
    }

    #[test]
    fn spans_record_parent_links() {
        let t = Tracer::default();
        let (root, child) = t.span("pass", None, |root| {
            (root, t.span("cluster.run", Some(root), |id| id))
        });
        assert_ne!(root, child);
        assert_eq!(t.span_secs("cluster.run").len(), 1);
        let spans = t.spans.lock().unwrap();
        assert_eq!(spans[child as usize].parent, Some(root));
        assert!(spans[root as usize].end_ns >= spans[child as usize].end_ns);
    }
}
