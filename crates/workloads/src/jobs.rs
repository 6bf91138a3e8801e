//! The evaluation jobs: Table 2's A–G and synthetic recurring jobs.
//!
//! # Generator design
//!
//! Each job is built from **segments**: maximal chains of stages joined
//! by one-to-one edges (which therefore share a task count). Segments
//! are stitched together with all-to-all (barrier) edges, so a job with
//! `b` barrier stages has exactly `b` non-root segments. Segment
//! lengths are a random composition of the stage count; task counts are
//! solved so the vertex total matches the target *exactly* (the final
//! single-stage segment absorbs the remainder, mirroring the small
//! aggregate/output stage real SCOPE plans end with).
//!
//! Per-stage task runtimes are log-normal. Stage medians vary around
//! the job's published median (fast extract stages, slow joins), one
//! stage is pinned to the published slowest-stage p90 and one to the
//! fastest, and a final calibration pass rescales all medians so the
//! vertex-weighted overall median matches the published value.

use std::sync::Arc;

use jockey_cluster::JobSpec;
use jockey_jobgraph::graph::{EdgeKind, JobGraph, JobGraphBuilder, StageId};
use jockey_simrt::dist::{Dist, LogNormal};
use jockey_simrt::rng::SeedDeriver;
use rand::rngs::StdRng;
use rand::Rng;

/// Published statistics for one evaluation job (Table 2).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct JobTargets {
    /// Job letter/name.
    pub name: &'static str,
    /// Number of stages.
    pub stages: usize,
    /// Number of barrier stages.
    pub barriers: usize,
    /// Number of vertices (tasks).
    pub vertices: u64,
    /// Median vertex runtime, seconds.
    pub runtime_median: f64,
    /// 90th-percentile vertex runtime, seconds.
    pub runtime_p90: f64,
    /// p90 vertex runtime of the fastest stage, seconds.
    pub p90_fastest: f64,
    /// p90 vertex runtime of the slowest stage, seconds.
    pub p90_slowest: f64,
    /// Total data read, GB.
    pub data_gb: f64,
}

/// Table 2 of the paper: statistics of the seven detailed jobs A–G.
pub const TABLE2: [JobTargets; 7] = [
    JobTargets {
        name: "A",
        stages: 23,
        barriers: 6,
        vertices: 681,
        runtime_median: 16.3,
        runtime_p90: 61.5,
        p90_fastest: 4.0,
        p90_slowest: 126.3,
        data_gb: 222.5,
    },
    JobTargets {
        name: "B",
        stages: 14,
        barriers: 0,
        vertices: 1605,
        runtime_median: 4.0,
        runtime_p90: 54.1,
        p90_fastest: 3.3,
        p90_slowest: 116.7,
        data_gb: 114.3,
    },
    JobTargets {
        name: "C",
        stages: 16,
        barriers: 3,
        vertices: 5751,
        runtime_median: 2.6,
        runtime_p90: 5.7,
        p90_fastest: 1.7,
        p90_slowest: 21.9,
        data_gb: 151.1,
    },
    JobTargets {
        name: "D",
        stages: 24,
        barriers: 3,
        vertices: 3897,
        runtime_median: 6.1,
        runtime_p90: 25.1,
        p90_fastest: 1.4,
        p90_slowest: 72.6,
        data_gb: 268.7,
    },
    JobTargets {
        name: "E",
        stages: 11,
        barriers: 1,
        vertices: 2033,
        runtime_median: 8.0,
        runtime_p90: 130.0,
        p90_fastest: 3.9,
        p90_slowest: 320.6,
        data_gb: 195.7,
    },
    JobTargets {
        name: "F",
        stages: 26,
        barriers: 1,
        vertices: 6139,
        runtime_median: 3.6,
        runtime_p90: 17.4,
        p90_fastest: 3.3,
        p90_slowest: 110.4,
        data_gb: 285.6,
    },
    JobTargets {
        name: "G",
        stages: 110,
        barriers: 15,
        vertices: 8496,
        runtime_median: 3.0,
        runtime_p90: 7.7,
        p90_fastest: 1.6,
        p90_slowest: 68.3,
        data_gb: 155.3,
    },
];

/// Default queueing-latency distribution: medians near the ~6 s the
/// paper's Table 3 reports for production vertex queueing.
fn queue_dist() -> LogNormal {
    LogNormal::from_median_p90(4.0, 9.0)
}

/// Default per-task failure probability for generated jobs.
const TASK_FAILURE_PROB: f64 = 0.015;

/// A generated evaluation job: graph, executable spec, and the targets
/// it was built from.
#[derive(Clone)]
pub struct GeneratedJob {
    /// The plan graph (stage/barrier/vertex counts match the targets
    /// exactly).
    pub graph: Arc<JobGraph>,
    /// The executable spec with calibrated runtime distributions.
    pub spec: JobSpec,
    /// The targets the job was generated from.
    pub targets: JobTargets,
    /// The calibrated per-stage median runtimes (diagnostics).
    pub stage_medians: Vec<f64>,
}

impl std::fmt::Debug for GeneratedJob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GeneratedJob")
            .field("name", &self.targets.name)
            .field("stages", &self.graph.num_stages())
            .field("vertices", &self.graph.total_tasks())
            .finish()
    }
}

/// Generates one of the paper's jobs A–G (index 0–6).
///
/// # Panics
///
/// Panics if `index >= 7`.
pub fn paper_job(index: usize, seed: u64) -> GeneratedJob {
    generate(TABLE2[index], seed)
}

/// Generates all seven jobs A–G.
pub fn paper_jobs(seed: u64) -> Vec<GeneratedJob> {
    (0..TABLE2.len()).map(|i| paper_job(i, seed)).collect()
}

/// Generates `n` additional synthetic recurring jobs (the paper
/// evaluates 21 jobs total; A–G plus 14 more from the same business
/// group). Shapes are drawn from the same ranges Table 2 spans.
pub fn synthetic_recurring_jobs(n: usize, seed: u64) -> Vec<GeneratedJob> {
    let seeds = SeedDeriver::new(seed).child("synthetic-jobs");
    (0..n)
        .map(|i| {
            let mut rng = seeds.rng_indexed("shape", i as u64);
            let stages = rng.gen_range(8..=40);
            let barriers = rng.gen_range(0..=6).min(stages / 3);
            let vertices = rng.gen_range(400..=6_000);
            let median = 1.5 + rng.gen::<f64>() * 14.0;
            let ratio = 2.0 + rng.gen::<f64>() * 5.0;
            let p90 = median * ratio;
            let name: &'static str = Box::leak(format!("R{i:02}").into_boxed_str());
            let targets = JobTargets {
                name,
                stages,
                barriers,
                vertices,
                runtime_median: median,
                runtime_p90: p90,
                p90_fastest: (median * 0.4).max(0.5),
                p90_slowest: p90 * 3.0,
                data_gb: 50.0 + rng.gen::<f64>() * 250.0,
            };
            generate(targets, seeds.seed_indexed("gen", i as u64))
        })
        .collect()
}

/// Generates a job matching `targets` exactly in structure and
/// approximately in runtime statistics.
///
/// # Panics
///
/// Panics on degenerate targets (zero stages/vertices, more barriers
/// than stages allow).
pub fn generate(targets: JobTargets, seed: u64) -> GeneratedJob {
    assert!(targets.stages >= 1);
    assert!(targets.vertices >= targets.stages as u64);
    assert!(targets.barriers < targets.stages);
    let seeds = SeedDeriver::new(seed).child(targets.name);
    let mut rng = seeds.rng("structure");

    // ---- Structure: segments of one-to-one chains joined by barriers.
    // Non-root segments each contribute exactly one barrier stage.
    let extra_roots = if targets.barriers >= 3 && targets.stages > targets.barriers + 4 {
        rng.gen_range(0..=1)
    } else {
        0
    };
    // Barrier-free jobs become a few independent one-to-one chains
    // (task counts may then vary across chains); otherwise one root
    // segment per barrier-free entry point.
    let n_segments = if targets.barriers == 0 {
        targets.stages.min(3)
    } else {
        (targets.barriers + 1 + extra_roots).min(targets.stages)
    };
    let n_roots = n_segments - targets.barriers;

    // Segment lengths: a random composition of `stages` with the final
    // segment pinned to length 1 (the small tail stage).
    let lengths = random_composition(&mut rng, targets.stages, n_segments);

    // Task counts: early segments (extracts) are heavy; the final
    // segment absorbs the remainder.
    let tasks = solve_task_counts(&mut rng, &lengths, targets.vertices);

    // Build the graph. Segment i's stages are contiguous; non-root
    // segments (the last `barriers` ones) attach via all-to-all to the
    // last stage of one or two earlier segments.
    let mut b = JobGraphBuilder::new(format!("job-{}", targets.name));
    let op_names = [
        "extract",
        "filter",
        "map",
        "partition",
        "combine",
        "join",
        "reduce",
        "aggregate",
    ];
    let mut seg_stage_ids: Vec<Vec<StageId>> = Vec::with_capacity(n_segments);
    for (si, (&len, &t)) in lengths.iter().zip(&tasks).enumerate() {
        let mut ids = Vec::with_capacity(len);
        for k in 0..len {
            let op = op_names[(si + k) % op_names.len()];
            ids.push(b.stage(format!("s{si}_{op}{k}"), t));
        }
        for w in ids.windows(2) {
            b.edge(w[0], w[1], EdgeKind::OneToOne);
        }
        seg_stage_ids.push(ids);
    }
    for si in n_roots..n_segments {
        let first = seg_stage_ids[si][0];
        let parent_seg = rng.gen_range(0..si);
        let parent = *seg_stage_ids[parent_seg].last().expect("non-empty segment");
        b.edge(parent, first, EdgeKind::AllToAll);
        // Occasionally a join: a second upstream parent.
        if si >= 2 && rng.gen::<f64>() < 0.4 {
            let mut second = rng.gen_range(0..si);
            if second == parent_seg {
                second = (second + 1) % si;
            }
            if second != parent_seg {
                let p2 = *seg_stage_ids[second].last().expect("non-empty segment");
                b.edge(p2, first, EdgeKind::AllToAll);
            }
        }
    }
    let graph = Arc::new(b.build().expect("generator produced invalid graph"));
    debug_assert_eq!(graph.num_stages(), targets.stages);
    debug_assert_eq!(graph.total_tasks(), targets.vertices);
    debug_assert_eq!(graph.num_barrier_stages(), targets.barriers);

    // ---- Runtimes: per-stage log-normals, calibrated to the overall
    // median, with pinned fastest/slowest stages.
    let mut medians: Vec<f64> = (0..targets.stages)
        .map(|_| {
            let spread = (rng.gen::<f64>() - 0.5) * 2.0; // [-1, 1]
            targets.runtime_median * (2.0_f64).powf(spread * 1.5)
        })
        .collect();
    let ratios: Vec<f64> = (0..targets.stages)
        .map(|_| 1.5 + rng.gen::<f64>() * (targets.runtime_p90 / targets.runtime_median).max(1.6))
        .collect();

    // Calibration: rescale medians so the vertex-weighted overall
    // median of the mixture hits the target.
    let weights: Vec<f64> = graph
        .stage_ids()
        .map(|s| f64::from(graph.tasks_in(s)))
        .collect();
    let achieved = mixture_median(&medians, &ratios, &weights, &mut rng);
    let scale = targets.runtime_median / achieved.max(1e-9);
    for m in &mut medians {
        *m *= scale;
    }

    // Pin the slowest and fastest stages. Prefer small-task stages for
    // the slow one (typical of skewed joins/aggregates) and the largest
    // stage for the fast one (extracts are quick per task).
    let slow_idx = graph
        .stage_ids()
        .filter(|&s| graph.tasks_in(s) <= 64 || targets.stages == 1)
        .map(StageId::index)
        .last()
        .unwrap_or(targets.stages - 1);
    let fast_idx = weights
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .unwrap_or(0);

    // Task runtimes are clamped a little above each stage's p90:
    // production vertex runtimes are heavy-tailed but bounded (Table 2
    // reports slowest-stage p90s within ~10x of the overall median),
    // and unbounded log-normal maxima would distort `l_s` — the
    // longest-task statistic the Amdahl model builds its critical path
    // from.
    let clamped = |median: f64, p90: f64| -> Dist {
        let m = median.max(0.05);
        let p = p90.max(m * 1.2);
        Dist::clamped(LogNormal::from_median_p90(m, p), 0.0, p * 2.5)
    };
    let mut dists: Vec<Dist> = medians
        .iter()
        .zip(&ratios)
        .map(|(&m, &r)| clamped(m, m * r))
        .collect();
    dists[slow_idx] = clamped(targets.p90_slowest / 3.0, targets.p90_slowest);
    medians[slow_idx] = targets.p90_slowest / 3.0;
    if fast_idx != slow_idx {
        dists[fast_idx] = clamped(targets.p90_fastest / 1.8, targets.p90_fastest);
        medians[fast_idx] = targets.p90_fastest / 1.8;
    }

    let queues: Vec<Dist> = (0..targets.stages).map(|_| queue_dist().into()).collect();
    let spec = JobSpec::new(
        graph.clone(),
        dists,
        queues,
        TASK_FAILURE_PROB,
        targets.data_gb,
    );

    GeneratedJob {
        graph,
        spec,
        targets,
        stage_medians: medians,
    }
}

/// A random composition of `total` into `parts` positive integers, the
/// last pinned to 1.
fn random_composition(rng: &mut StdRng, total: usize, parts: usize) -> Vec<usize> {
    assert!(parts >= 1 && total >= parts);
    if parts == 1 {
        return vec![total];
    }
    let body = total - 1; // Last part is 1.
    let body_parts = parts - 1;
    let weights: Vec<f64> = (0..body_parts).map(|_| 0.2 + rng.gen::<f64>()).collect();
    let wsum: f64 = weights.iter().sum();
    let mut lengths: Vec<usize> = weights
        .iter()
        .map(|w| ((w / wsum) * body as f64).floor().max(1.0) as usize)
        .collect();
    // Fix the total by adjusting the largest / smallest entries.
    loop {
        let sum: usize = lengths.iter().sum();
        match sum.cmp(&body) {
            std::cmp::Ordering::Equal => break,
            std::cmp::Ordering::Less => {
                let i = (0..body_parts)
                    .max_by_key(|&i| lengths[i])
                    .expect("non-empty");
                lengths[i] += 1;
            }
            std::cmp::Ordering::Greater => {
                let i = (0..body_parts)
                    .filter(|&i| lengths[i] > 1)
                    .max_by_key(|&i| lengths[i])
                    .expect("sum > parts implies a length > 1");
                lengths[i] -= 1;
            }
        }
    }
    lengths.push(1);
    lengths
}

/// Solves per-segment task counts so `Σ len_i · t_i == vertices`,
/// biasing early segments heavy and letting the final length-1 segment
/// absorb the remainder.
fn solve_task_counts(rng: &mut StdRng, lengths: &[usize], vertices: u64) -> Vec<u32> {
    let n = lengths.len();
    if n == 1 {
        let t = vertices / lengths[0] as u64;
        // The composition guarantees divisibility only for len 1; for a
        // single segment the caller's targets must divide. Rather than
        // fail, distribute the remainder by rounding down and accepting
        // the small shortfall via an extra root... not applicable: with
        // one segment its length is `stages` and we adjust t to floor,
        // then the remainder is forced into the task count of the same
        // segment, so lengths must divide vertices. Enforce:
        assert!(
            vertices.is_multiple_of(lengths[0] as u64),
            "single-segment job requires stages | vertices"
        );
        return vec![t as u32];
    }
    // Weights: geometric decay with noise; last (remainder) segment
    // excluded from the solve.
    let weights: Vec<f64> = (0..n - 1)
        .map(|i| (0.3 + rng.gen::<f64>()) * (0.75_f64).powi(i as i32))
        .collect();
    let denom: f64 = weights
        .iter()
        .zip(lengths)
        .map(|(w, &l)| w * l as f64)
        .sum();
    // Reserve a small tail for the remainder segment.
    let reserve = (vertices / 50).clamp(1, 50);
    let scale = (vertices - reserve) as f64 / denom.max(1e-9);
    let mut tasks: Vec<u32> = weights
        .iter()
        .map(|w| ((w * scale).round() as u32).max(1))
        .collect();
    // Remainder into the last segment (length 1).
    loop {
        let used: u64 = tasks
            .iter()
            .zip(lengths)
            .map(|(&t, &l)| u64::from(t) * l as u64)
            .sum();
        if used < vertices {
            tasks.push((vertices - used) as u32);
            break;
        }
        // Overshoot: shave the biggest contributor and retry.
        let i = (0..n - 1)
            .filter(|&i| tasks[i] > 1)
            .max_by_key(|&i| u64::from(tasks[i]) * lengths[i] as u64)
            .expect("cannot shave below one task per stage");
        tasks[i] -= 1;
    }
    tasks
}

/// Empirical median of the stage mixture (used once for calibration).
fn mixture_median(medians: &[f64], ratios: &[f64], weights: &[f64], rng: &mut StdRng) -> f64 {
    let dists: Vec<Dist> = medians
        .iter()
        .zip(ratios)
        .map(|(&m, &r)| LogNormal::from_median_p90(m.max(1e-6), (m * r).max(2e-6)).into())
        .collect();
    let total_w: f64 = weights.iter().sum();
    let mut samples = Vec::with_capacity(4_000);
    for _ in 0..4_000 {
        // Pick a stage by weight.
        let mut pick = rng.gen::<f64>() * total_w;
        let mut idx = 0;
        for (i, &w) in weights.iter().enumerate() {
            if pick < w {
                idx = i;
                break;
            }
            pick -= w;
        }
        samples.push(dists[idx].sample(rng));
    }
    jockey_simrt::stats::percentile(&samples, 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use jockey_simrt::stats;

    #[test]
    fn paper_jobs_match_structure_exactly() {
        for (i, t) in TABLE2.iter().enumerate() {
            let j = paper_job(i, 1);
            assert_eq!(j.graph.num_stages(), t.stages, "job {}", t.name);
            assert_eq!(j.graph.total_tasks(), t.vertices, "job {}", t.name);
            assert_eq!(j.graph.num_barrier_stages(), t.barriers, "job {}", t.name);
            assert_eq!(j.spec.data_gb, t.data_gb);
        }
    }

    #[test]
    fn runtime_median_is_calibrated() {
        for i in [0, 2, 4] {
            let j = paper_job(i, 7);
            let mut rng = SeedDeriver::new(9).rng("check");
            // Sample the vertex mixture: every task one draw.
            let mut samples = Vec::new();
            for s in j.graph.stage_ids() {
                for _ in 0..j.graph.tasks_in(s).min(200) {
                    samples.push(j.spec.stage_runtimes[s.index()].sample(&mut rng));
                }
            }
            let med = stats::percentile(&samples, 50.0);
            let target = j.targets.runtime_median;
            assert!(
                med > target * 0.4 && med < target * 2.5,
                "job {} median {med} vs target {target}",
                j.targets.name
            );
        }
    }

    #[test]
    fn slowest_stage_has_heavy_tail() {
        let j = paper_job(0, 3); // Job A: slowest p90 = 126.3.
        let mut rng = SeedDeriver::new(4).rng("tail");
        let max_p90 = j
            .graph
            .stage_ids()
            .map(|s| {
                let d = &j.spec.stage_runtimes[s.index()];
                let samples: Vec<f64> = (0..500).map(|_| d.sample(&mut rng)).collect();
                stats::percentile(&samples, 90.0)
            })
            .fold(0.0, f64::max);
        assert!(
            max_p90 > 126.3 * 0.6 && max_p90 < 126.3 * 1.8,
            "slowest-stage p90 {max_p90}"
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let a = paper_job(6, 5);
        let b = paper_job(6, 5);
        assert_eq!(a.stage_medians, b.stage_medians);
        assert_eq!(a.graph.edges().len(), b.graph.edges().len());
    }

    #[test]
    fn different_seeds_differ_structurally() {
        let a = paper_job(0, 1);
        let b = paper_job(0, 2);
        // Same aggregate structure...
        assert_eq!(a.graph.num_stages(), b.graph.num_stages());
        assert_eq!(a.graph.total_tasks(), b.graph.total_tasks());
        // ...but different internals.
        assert_ne!(a.stage_medians, b.stage_medians);
    }

    #[test]
    fn graphs_are_connected_enough() {
        // Every non-root stage must be reachable; builder validation
        // plus root count sanity.
        for i in 0..7 {
            let j = paper_job(i, 11);
            let roots = j.graph.roots().len();
            assert!(roots >= 1);
            assert!(
                roots <= j.targets.stages - j.targets.barriers,
                "job {} roots {roots}",
                j.targets.name
            );
        }
    }

    #[test]
    fn synthetic_jobs_are_valid_and_varied() {
        let jobs = synthetic_recurring_jobs(14, 21);
        assert_eq!(jobs.len(), 14);
        let mut stage_counts = std::collections::HashSet::new();
        for j in &jobs {
            assert_eq!(j.graph.num_stages(), j.targets.stages);
            assert_eq!(j.graph.total_tasks(), j.targets.vertices);
            assert_eq!(j.graph.num_barrier_stages(), j.targets.barriers);
            stage_counts.insert(j.graph.num_stages());
        }
        assert!(stage_counts.len() > 5, "shapes too uniform");
    }

    #[test]
    fn composition_sums_and_positivity() {
        let mut rng = SeedDeriver::new(3).rng("comp");
        for total in [5, 14, 110] {
            for parts in [1, 2, 7] {
                if parts > total {
                    continue;
                }
                let c = random_composition(&mut rng, total, parts);
                assert_eq!(c.iter().sum::<usize>(), total);
                assert_eq!(c.len(), parts);
                assert!(c.iter().all(|&l| l >= 1));
                if parts > 1 {
                    assert_eq!(*c.last().unwrap(), 1);
                }
            }
        }
    }

    #[test]
    fn task_solver_hits_exact_totals() {
        let mut rng = SeedDeriver::new(5).rng("tasks");
        for vertices in [681_u64, 1605, 8496] {
            let lengths = random_composition(&mut rng, 23, 7);
            let tasks = solve_task_counts(&mut rng, &lengths, vertices);
            let total: u64 = tasks
                .iter()
                .zip(&lengths)
                .map(|(&t, &l)| u64::from(t) * l as u64)
                .sum();
            assert_eq!(total, vertices);
            assert!(tasks.iter().all(|&t| t >= 1));
        }
    }
}
