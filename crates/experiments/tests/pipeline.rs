//! Integration tests for the experiment pipeline: registry
//! completeness, DAG runner determinism across worker counts, and
//! artifact-cache equivalence (cold vs. warm, and corruption
//! fallback).
//!
//! Everything runs at smoke scale; the heavier whole-pipeline checks
//! share one environment to keep the suite fast.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use jockey_experiments::artifact::{
    fnv1a, load_trained, store_trained, train_cache_key, ArtifactStore, MODEL_FORMAT_VERSION,
};
use jockey_experiments::env::{Env, Scale};
use jockey_experiments::experiment::registry;
use jockey_experiments::runner::{self, RunnerConfig};

/// A scratch directory, wiped on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir =
            std::env::temp_dir().join(format!("jockey-pipeline-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }
    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Every emitted file under `dir`, as `relative path -> contents`.
fn tree(dir: &Path) -> BTreeMap<String, String> {
    fn walk(root: &Path, dir: &Path, out: &mut BTreeMap<String, String>) {
        for entry in fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                walk(root, &path, out);
            } else {
                let rel = path
                    .strip_prefix(root)
                    .unwrap()
                    .to_string_lossy()
                    .into_owned();
                out.insert(rel, fs::read_to_string(&path).unwrap());
            }
        }
    }
    let mut out = BTreeMap::new();
    walk(dir, dir, &mut out);
    out
}

fn run_into(env: &Env, store: &ArtifactStore, dir: &Path, jobs: Option<usize>) {
    let cfg = RunnerConfig {
        only: None,
        jobs,
        out_dir: dir.to_path_buf(),
    };
    let report = runner::run(env, store, &cfg).unwrap();
    assert!(!report.failed(), "pipeline run failed");
}

#[test]
fn registry_covers_every_figure_module_exactly_once() {
    // One registered experiment per figures:: module (sweep is the
    // shared artifact producer, not an experiment).
    let expected = [
        "table1",
        "fig1",
        "table2",
        "fig3",
        "fig4",
        "fig5",
        "fig6",
        "table3",
        "fig7",
        "fig8",
        "fig9",
        "fig10",
        "fig11",
        "fig12",
        "fig13",
        "ext",
        "scenarios",
        "speculation",
        "appendix",
    ];
    let names: Vec<&str> = registry().iter().map(|e| e.name()).collect();
    assert_eq!(
        names, expected,
        "registry must list every module once, in emission order"
    );
    let mut unique = names.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "duplicate registration");
    // Titles are the --list surface; they must be present and distinct.
    let mut titles: Vec<&str> = registry().iter().map(|e| e.title()).collect();
    titles.sort_unstable();
    titles.dedup();
    assert_eq!(titles.len(), names.len(), "duplicate or empty title");
}

#[test]
fn parallel_run_is_byte_identical_to_serial() {
    let env = Env::build(Scale::Smoke, 42);

    let d1 = TempDir::new("jobs1");
    let d4 = TempDir::new("jobs4");
    // Fresh stores: each run computes its own artifacts.
    run_into(&env, &ArtifactStore::new(), d1.path(), Some(1));
    run_into(&env, &ArtifactStore::new(), d4.path(), Some(4));

    let t1 = tree(d1.path());
    let t4 = tree(d4.path());
    assert_eq!(
        t1.keys().collect::<Vec<_>>(),
        t4.keys().collect::<Vec<_>>(),
        "file sets differ"
    );
    assert!(
        t1.len() >= 20,
        "expected the full result tree, got {:?}",
        t1.keys()
    );
    for (file, contents) in &t1 {
        assert_eq!(
            contents, &t4[file],
            "{file} differs between --jobs 1 and --jobs 4"
        );
    }
}

#[test]
fn warm_artifact_cache_is_equivalent_and_skips_training() {
    let cache = TempDir::new("cache");

    // Cold: trains and populates the cache.
    let cold_env = Env::build_cached(Scale::Smoke, 43, Some(cache.path()));
    assert_eq!(cold_env.cache_hits, 0);
    let entries = fs::read_dir(cache.path()).unwrap().count();
    assert_eq!(entries, cold_env.jobs.len(), "one cache entry per job");

    // Warm: every job loads from disk.
    let warm_env = Env::build_cached(Scale::Smoke, 43, Some(cache.path()));
    assert_eq!(warm_env.cache_hits, warm_env.jobs.len());

    // The cached environment must be indistinguishable where it
    // matters: same deadlines and bit-identical model queries.
    for (a, b) in cold_env.jobs.iter().zip(&warm_env.jobs) {
        assert_eq!(a.name(), b.name());
        assert_eq!(a.deadline, b.deadline, "{}", a.name());
        assert_eq!(a.setup.rel_inf, b.setup.rel_inf, "{}", a.name());
        for progress in [0.0, 0.5, 1.0] {
            for alloc in [1, 10, 40, 100] {
                assert_eq!(
                    a.setup.cpa.remaining(progress, alloc).to_bits(),
                    b.setup.cpa.remaining(progress, alloc).to_bits(),
                    "{} C({progress}, {alloc})",
                    a.name()
                );
            }
        }
    }

    // And a cheap end-to-end slice produces byte-identical outputs.
    let dc = TempDir::new("cold-out");
    let dw = TempDir::new("warm-out");
    let only = Some(vec!["table2".to_string(), "fig6".to_string()]);
    for (env, dir) in [(&cold_env, &dc), (&warm_env, &dw)] {
        let cfg = RunnerConfig {
            only: only.clone(),
            jobs: Some(2),
            out_dir: dir.path().to_path_buf(),
        };
        let report = runner::run(env, &ArtifactStore::new(), &cfg).unwrap();
        assert!(!report.failed());
    }
    assert_eq!(tree(dc.path()), tree(dw.path()));
}

#[test]
fn corrupted_cache_entry_falls_back_to_recompute() {
    let cache = TempDir::new("corrupt");
    let env = Env::build_cached(Scale::Smoke, 44, Some(cache.path()));
    assert_eq!(env.cache_hits, 0);

    // Corrupt every entry: truncate to garbage that still parses as
    // key=value but fails model validation.
    for entry in fs::read_dir(cache.path()).unwrap() {
        fs::write(entry.unwrap().path(), "bins=0\npercentile=95\n").unwrap();
    }
    let env2 = Env::build_cached(Scale::Smoke, 44, Some(cache.path()));
    assert_eq!(env2.cache_hits, 0, "corrupted entries must miss");
    // Recompute matches the original training bit-for-bit.
    for (a, b) in env.jobs.iter().zip(&env2.jobs) {
        assert_eq!(a.deadline, b.deadline);
        assert_eq!(
            a.setup.cpa.remaining(0.3, 20).to_bits(),
            b.setup.cpa.remaining(0.3, 20).to_bits()
        );
    }

    // A wrong-keyed (renamed) entry must also miss.
    let job = &env.jobs[0];
    let key = train_cache_key(
        Scale::Smoke,
        &Scale::Smoke.train_config(),
        999,
        job.name(),
        &job.gen.graph,
        &job.profile,
    );
    store_trained(
        cache.path(),
        key,
        &jockey_experiments::artifact::TrainedParts {
            cpa: (*job.setup.cpa).clone(),
            rel_inf: job.setup.rel_inf.clone(),
        },
    );
    assert!(load_trained(cache.path(), key).is_some());
    let other = key.wrapping_add(1);
    let renamed = cache.path().join(format!("cpa-{other:016x}.kv"));
    fs::rename(cache.path().join(format!("cpa-{key:016x}.kv")), &renamed).unwrap();
    assert!(
        load_trained(cache.path(), other).is_none(),
        "embedded key must be validated against the file name"
    );

    // An entry stamped with a different model-format version — as
    // written by an older or newer binary that happened to collide on
    // the key — must miss rather than be misread as current.
    store_trained(
        cache.path(),
        key,
        &jockey_experiments::artifact::TrainedParts {
            cpa: (*job.setup.cpa).clone(),
            rel_inf: job.setup.rel_inf.clone(),
        },
    );
    let path = cache.path().join(format!("cpa-{key:016x}.kv"));
    let text = fs::read_to_string(&path).unwrap();
    let stamp = format!("format={MODEL_FORMAT_VERSION}");
    assert!(text.contains(&stamp), "entry must carry the format stamp");
    fs::write(&path, text.replace(&stamp, "format=0")).unwrap();
    assert!(
        load_trained(cache.path(), key).is_none(),
        "a foreign format version must be rejected on load"
    );
}

#[test]
fn cache_key_tracks_content() {
    let env = Env::build(Scale::Smoke, 45);
    let job = &env.jobs[0];
    let cfg = Scale::Smoke.train_config();
    let base = train_cache_key(
        Scale::Smoke,
        &cfg,
        1,
        job.name(),
        &job.gen.graph,
        &job.profile,
    );
    // Different seed, scale tag, config or job name -> different key.
    assert_ne!(
        base,
        train_cache_key(
            Scale::Smoke,
            &cfg,
            2,
            job.name(),
            &job.gen.graph,
            &job.profile
        )
    );
    assert_ne!(
        base,
        train_cache_key(
            Scale::Quick,
            &cfg,
            1,
            job.name(),
            &job.gen.graph,
            &job.profile
        )
    );
    assert_ne!(
        base,
        train_cache_key(Scale::Smoke, &cfg, 1, "other", &job.gen.graph, &job.profile)
    );
    let mut cfg2 = cfg.clone();
    cfg2.runs_per_allocation += 1;
    assert_ne!(
        base,
        train_cache_key(
            Scale::Smoke,
            &cfg2,
            1,
            job.name(),
            &job.gen.graph,
            &job.profile
        )
    );
    // Same inputs -> same key (pure function of content).
    assert_eq!(
        base,
        train_cache_key(
            Scale::Smoke,
            &cfg,
            1,
            job.name(),
            &job.gen.graph,
            &job.profile
        )
    );
}

#[test]
fn emit_failures_are_collected_not_fatal() {
    let env = Env::build(Scale::Smoke, 46);
    let store = ArtifactStore::new();
    // /dev/null/... cannot be created as a directory, so every write
    // fails; the runner must report per-experiment errors, not panic.
    let cfg = RunnerConfig {
        only: Some(vec!["table2".to_string(), "appendix".to_string()]),
        jobs: Some(1),
        out_dir: PathBuf::from("/dev/null/results"),
    };
    let report = runner::run(&env, &store, &cfg).unwrap();
    assert!(report.failed());
    assert_eq!(report.outcomes.len(), 2);
    for o in &report.outcomes {
        let err = o
            .error
            .as_ref()
            .unwrap_or_else(|| panic!("{} should have failed", o.name));
        assert!(err.contains("writing"), "{err}");
    }
}

#[test]
fn unknown_experiment_is_an_error() {
    let env = Env::build(Scale::Smoke, 47);
    let cfg = RunnerConfig {
        only: Some(vec!["fig99".to_string()]),
        jobs: None,
        out_dir: std::env::temp_dir(),
    };
    let err = runner::run(&env, &ArtifactStore::new(), &cfg).unwrap_err();
    assert!(err.contains("fig99"));
}

#[test]
fn golden_smoke_digests_match() {
    // The committed golden digests gate the CI smoke run
    // (`jockey-repro --only table2,fig1,scenarios,speculation,fig6,fig7,
    // fig12,fig13,ext --jobs 2 --digests`); this test keeps the
    // committed file honest against the live tables.
    let golden = include_str!("golden_smoke_digests.tsv");
    let env = Env::build(Scale::Smoke, 42);
    let store = ArtifactStore::new();
    let mut computed = BTreeMap::new();
    for name in [
        "table2",
        "fig1",
        "scenarios",
        "speculation",
        "fig6",
        "fig7",
        "fig12",
        "fig13",
        "ext",
    ] {
        let exp = jockey_experiments::experiment::find(name).unwrap();
        for emission in exp.run(&env, &store) {
            computed.insert(
                emission.filename(),
                format!("{:016x}", fnv1a(emission.bytes().as_bytes())),
            );
        }
    }
    let mut golden_map = BTreeMap::new();
    for line in golden
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
    {
        let mut it = line.split('\t');
        let (file, digest) = (it.next().unwrap(), it.next().unwrap());
        golden_map.insert(file.to_string(), digest.to_string());
    }
    assert_eq!(
        computed, golden_map,
        "smoke digests drifted; regenerate crates/experiments/tests/golden_smoke_digests.tsv \
         with: JOCKEY_SCALE=smoke JOCKEY_SEED=42 jockey-repro \
         --only table2,fig1,scenarios,speculation,fig6,fig7,fig12,fig13,ext --digests"
    );
}
