//! The `jockey-repro` command line: one binary reproducing any subset
//! of the paper's figures and tables through the pipeline runner.
//!
//! ```text
//! jockey-repro [--list] [--only fig6,table1] [--scale smoke|quick|full]
//!              [--seed N] [--jobs N] [--out DIR] [--digests]
//! ```
//!
//! Flags override the `JOCKEY_SCALE` / `JOCKEY_SEED` / `JOCKEY_RESULTS`
//! environment variables, which remain the defaults so existing
//! wrappers keep working; `JOCKEY_ARTIFACTS=<dir>` additionally enables
//! the on-disk trained-model cache.

use std::path::PathBuf;

use crate::artifact::ArtifactStore;
use crate::env::{Env, Scale};
use crate::experiment::registry;
use crate::report;
use crate::runner::{self, RunnerConfig};

/// Parsed command line.
#[derive(Debug)]
pub struct Cli {
    /// Print the registry and exit.
    pub list: bool,
    /// Experiment subset (`--only a,b`).
    pub only: Option<Vec<String>>,
    /// Scale override.
    pub scale: Option<Scale>,
    /// Seed override.
    pub seed: Option<u64>,
    /// Worker threads.
    pub jobs: Option<usize>,
    /// Results directory override.
    pub out: Option<PathBuf>,
    /// Print `digest <file> <fnv1a>` lines after the run (the CI
    /// golden gate consumes these).
    pub digests: bool,
}

/// Usage text.
pub const USAGE: &str = "\
usage: jockey-repro [options]

Reproduces the paper's tables and figures through the experiment
pipeline: shared artifacts (trained models, the §5.2 sweep, scenario
traces) are computed once, experiments run in dependency order, and
outputs are written in a fixed order so results are byte-identical at
any --jobs level.

options:
  --list            print registered experiments and exit
  --only A,B,...    run only the named experiments (see --list)
  --scale SCALE     smoke | quick | full  (default: $JOCKEY_SCALE or full)
  --seed N          root seed             (default: $JOCKEY_SEED or 42)
  --jobs N          worker threads        (default: available parallelism)
  --out DIR         results directory     (default: $JOCKEY_RESULTS or results/)
  --digests         print 'digest <file> <fnv1a>' lines after the run
  -h, --help        this help
";

impl Cli {
    /// Parses arguments (without the program name). Returns an error
    /// message for unknown or malformed flags.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Cli, String> {
        let mut cli = Cli {
            list: false,
            only: None,
            scale: None,
            seed: None,
            jobs: None,
            out: None,
            digests: false,
        };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let mut value = |flag: &str| {
                args.next()
                    .ok_or_else(|| format!("{flag} requires a value"))
            };
            match arg.as_str() {
                "--list" => cli.list = true,
                "--digests" => cli.digests = true,
                "--only" => {
                    cli.only = Some(
                        value("--only")?
                            .split(',')
                            .map(|s| s.trim().to_string())
                            .filter(|s| !s.is_empty())
                            .collect(),
                    );
                }
                "--scale" => {
                    cli.scale = Some(match value("--scale")?.as_str() {
                        "smoke" => Scale::Smoke,
                        "quick" => Scale::Quick,
                        "full" => Scale::Full,
                        other => return Err(format!("unknown scale {other:?}")),
                    });
                }
                "--seed" => {
                    cli.seed = Some(
                        value("--seed")?
                            .parse()
                            .map_err(|e| format!("bad --seed: {e}"))?,
                    );
                }
                "--jobs" => {
                    let n: usize = value("--jobs")?
                        .parse()
                        .map_err(|e| format!("bad --jobs: {e}"))?;
                    if n == 0 {
                        return Err("--jobs must be at least 1".to_string());
                    }
                    cli.jobs = Some(n);
                }
                "--out" => cli.out = Some(PathBuf::from(value("--out")?)),
                "-h" | "--help" => return Err(USAGE.to_string()),
                other => return Err(format!("unknown flag {other:?}\n\n{USAGE}")),
            }
        }
        Ok(cli)
    }
}

/// Runs the CLI to completion, returning the process exit code.
pub fn main_with_args<I: IntoIterator<Item = String>>(args: I) -> i32 {
    let cli = match Cli::parse(args) {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("{msg}");
            return if msg == USAGE { 0 } else { 2 };
        }
    };

    if cli.list {
        println!("{:<10}  {:<14}  title", "name", "needs");
        for e in registry() {
            let needs: Vec<&str> = e.needs().iter().map(|a| a.name()).collect();
            println!(
                "{:<10}  {:<14}  {}",
                e.name(),
                if needs.is_empty() {
                    "-".to_string()
                } else {
                    needs.join(",")
                },
                e.title()
            );
        }
        return 0;
    }

    // Validate the selection before spending minutes on training.
    if let Err(msg) = runner::select(cli.only.as_deref()) {
        eprintln!("{msg}");
        return 2;
    }

    let scale = cli.scale.unwrap_or_else(Scale::from_env);
    let seed = cli.seed.unwrap_or_else(|| {
        std::env::var("JOCKEY_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(42)
    });
    let store = ArtifactStore::from_env();

    eprintln!(
        "[jockey] building environment: scale={scale:?} seed={seed} (training C(p,a) models...)"
    );
    let start = std::time::Instant::now();
    let env = Env::build_cached(scale, seed, store.disk_dir());
    eprintln!(
        "[jockey] environment ready: {} jobs in {:.1}s{}",
        env.jobs.len(),
        start.elapsed().as_secs_f64(),
        if env.cache_hits > 0 {
            format!(" ({} trained from artifact cache)", env.cache_hits)
        } else {
            String::new()
        }
    );

    let cfg = RunnerConfig {
        only: cli.only.clone(),
        jobs: cli.jobs,
        out_dir: cli.out.clone().unwrap_or_else(report::results_dir),
    };
    let report = match runner::run(&env, &store, &cfg) {
        Ok(r) => r,
        Err(msg) => {
            eprintln!("{msg}");
            return 2;
        }
    };

    if cli.digests {
        for o in &report.outcomes {
            for (file, digest) in &o.emissions {
                println!("digest\t{file}\t{digest:016x}");
            }
        }
    }

    let failed: Vec<&str> = report
        .outcomes
        .iter()
        .filter(|o| o.error.is_some())
        .map(|o| o.name)
        .collect();
    if failed.is_empty() {
        eprintln!("[jockey] all experiments complete.");
        0
    } else {
        eprintln!(
            "[jockey] {} of {} experiments failed: {}",
            failed.len(),
            report.outcomes.len(),
            failed.join(", ")
        );
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Cli, String> {
        Cli::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_all_flags() {
        let cli = parse(&[
            "--only",
            "fig6,table1",
            "--scale",
            "smoke",
            "--seed",
            "7",
            "--jobs",
            "4",
            "--out",
            "/tmp/x",
            "--digests",
        ])
        .unwrap();
        assert_eq!(
            cli.only.as_deref(),
            Some(&["fig6".to_string(), "table1".to_string()][..])
        );
        assert_eq!(cli.scale, Some(Scale::Smoke));
        assert_eq!(cli.seed, Some(7));
        assert_eq!(cli.jobs, Some(4));
        assert_eq!(cli.out.as_deref(), Some(std::path::Path::new("/tmp/x")));
        assert!(cli.digests);
        assert!(!cli.list);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&["--scale", "huge"]).is_err());
        assert!(parse(&["--jobs", "0"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
    }

    #[test]
    fn help_returns_usage() {
        assert_eq!(parse(&["--help"]).unwrap_err(), USAGE);
    }
}
