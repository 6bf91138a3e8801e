//! The declarative experiment layer: every paper figure/table is an
//! [`Experiment`] that declares which shared [`ArtifactId`]s it needs
//! and returns its outputs as data ([`Emission`]s) instead of writing
//! files itself.
//!
//! The static [`registry`] is the single source of truth for what the
//! reproduction produces and in which order outputs are emitted; the
//! [runner](crate::runner) schedules registered experiments by their
//! artifact dependencies and serializes emission in registry order so
//! results are byte-identical at any `--jobs` level.

use jockey_simrt::table::Table;

use crate::artifact::{ArtifactId, ArtifactStore};
use crate::env::Env;
use crate::figures;

/// One output of an experiment, produced as data and written by the
/// runner (or discarded by tests that only inspect it).
pub enum Emission {
    /// A TSV table: printed aligned under `== title ==` and written to
    /// `<name>.tsv` in the results directory.
    Table {
        /// Output file stem (`<name>.tsv`).
        name: String,
        /// Console heading.
        title: String,
        /// The table itself.
        table: Table,
    },
    /// Raw text (e.g. a Graphviz rendering) written verbatim to
    /// `<filename>` in the results directory.
    Text {
        /// Output path relative to the results directory.
        filename: String,
        /// File contents.
        text: String,
    },
}

impl Emission {
    /// The output path of this emission, relative to the results
    /// directory.
    pub fn filename(&self) -> String {
        match self {
            Emission::Table { name, .. } => format!("{name}.tsv"),
            Emission::Text { filename, .. } => filename.clone(),
        }
    }

    /// The exact bytes this emission writes to its file.
    pub fn bytes(&self) -> String {
        match self {
            Emission::Table { table, .. } => table.to_tsv(),
            Emission::Text { text, .. } => text.clone(),
        }
    }
}

/// One reproducible paper figure or table.
///
/// Implementations must be pure up to the environment and store: the
/// same `(Env, ArtifactStore)` must yield byte-identical emissions
/// regardless of thread schedule, so the runner may execute
/// independent experiments in parallel.
pub trait Experiment: Sync {
    /// Stable CLI name (`--only fig6,table1`).
    fn name(&self) -> &'static str;

    /// Human title shown by `--list`.
    fn title(&self) -> &'static str;

    /// Shared artifacts this experiment consumes. The runner
    /// materializes these before `run` is called, so `run` only ever
    /// reads memoized values.
    fn needs(&self) -> &'static [ArtifactId] {
        &[]
    }

    /// Computes the experiment's outputs.
    fn run(&self, env: &Env, store: &ArtifactStore) -> Vec<Emission>;
}

/// All experiments, in canonical emission order (emission follows it
/// at any `--jobs` level, so results and console output stay
/// byte-identical).
pub fn registry() -> &'static [&'static dyn Experiment] {
    static REGISTRY: [&dyn Experiment; 19] = [
        &figures::table1::Table1Experiment,
        &figures::fig1::Fig1Experiment,
        &figures::table2::Table2Experiment,
        &figures::fig3::Fig3Experiment,
        &figures::fig4::Fig4Experiment,
        &figures::fig5::Fig5Experiment,
        &figures::fig6::Fig6Experiment,
        &figures::table3::Table3Experiment,
        &figures::fig7::Fig7Experiment,
        &figures::fig8::Fig8Experiment,
        &figures::fig9::Fig9Experiment,
        &figures::fig10::Fig10Experiment,
        &figures::fig11::Fig11Experiment,
        &figures::fig12::Fig12Experiment,
        &figures::fig13::Fig13Experiment,
        &figures::ext::ExtExperiment,
        &figures::scenarios::ScenariosExperiment,
        &figures::speculation::SpeculationExperiment,
        &figures::appendix::AppendixExperiment,
    ];
    &REGISTRY
}

/// Looks up an experiment by its CLI name.
pub fn find(name: &str) -> Option<&'static dyn Experiment> {
    registry().iter().copied().find(|e| e.name() == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn find_resolves_registered_names() {
        assert_eq!(find("fig6").map(|e| e.name()), Some("fig6"));
        assert_eq!(find("table1").map(|e| e.name()), Some("table1"));
        assert!(find("fig99").is_none());
    }

    #[test]
    fn needs_reference_known_artifacts() {
        for e in registry() {
            for a in e.needs() {
                assert!(
                    ArtifactId::ALL.contains(a),
                    "{} needs unknown artifact {a:?}",
                    e.name()
                );
            }
        }
    }

    #[test]
    fn emission_paths_and_bytes() {
        let mut t = Table::new(["a"]);
        t.row(["1".to_string()]);
        let e = Emission::Table {
            name: "x".into(),
            title: "t".into(),
            table: t,
        };
        assert_eq!(e.filename(), "x.tsv");
        assert!(e.bytes().starts_with("a\n"));
        let e = Emission::Text {
            filename: "fig3/f.dot".into(),
            text: "digraph {}".into(),
        };
        assert_eq!(e.filename(), "fig3/f.dot");
        assert_eq!(e.bytes(), "digraph {}");
    }
}
