//! Results output: directory layout, table emission, and the shared
//! self-check TSV parsing helpers.

use jockey_simrt::table::Table;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// The directory experiment outputs are written to: the
/// `JOCKEY_RESULTS` environment variable if set, else `results/` under
/// the current directory.
pub fn results_dir() -> PathBuf {
    std::env::var_os("JOCKEY_RESULTS")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"))
}

/// An output file the pipeline could not write: the path it tried and
/// the underlying I/O error. The [runner](crate::runner) collects
/// these per experiment instead of aborting the whole reproduction
/// mid-run.
#[derive(Debug)]
pub struct EmitError {
    /// The path that could not be written.
    pub path: PathBuf,
    /// The underlying I/O error.
    pub source: io::Error,
}

impl fmt::Display for EmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "writing {}: {}", self.path.display(), self.source)
    }
}

impl std::error::Error for EmitError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// Prints `table` (aligned) under a heading and writes it to
/// `<dir>/<name>.tsv`, returning the written path.
pub fn try_emit_in(
    dir: &Path,
    name: &str,
    title: &str,
    table: &Table,
) -> Result<PathBuf, EmitError> {
    println!("== {title} ==");
    print!("{}", table.to_aligned());
    println!();
    let path = dir.join(format!("{name}.tsv"));
    table.write_tsv(&path).map_err(|source| EmitError {
        path: path.clone(),
        source,
    })?;
    println!("[written {}]", path.display());
    Ok(path)
}

/// Writes raw text (e.g. a Graphviz rendering) to `<dir>/<filename>`,
/// creating parent directories, returning the written path.
pub fn try_emit_text_in(dir: &Path, filename: &str, text: &str) -> Result<PathBuf, EmitError> {
    let path = dir.join(filename);
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).map_err(|source| EmitError {
            path: parent.to_path_buf(),
            source,
        })?;
    }
    std::fs::write(&path, text).map_err(|source| EmitError {
        path: path.clone(),
        source,
    })?;
    println!("[written {}]", path.display());
    Ok(path)
}

/// Formats a float with three significant decimals for table cells.
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

/// Formats a fraction as a percentage with one decimal.
pub fn pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

/// Returns data cell `(row, col)` of a TSV rendering (`row` is
/// 0-based over *data* rows — the header line is excluded), panicking
/// with the figure, row and column on any shape mismatch.
///
/// Self-check tests re-parse their own emitted tables through this
/// helper so a layout change fails with a labeled message instead of a
/// bare `unwrap` on `None`.
///
/// # Panics
///
/// Panics, naming `figure`, `row` and `col`, when the row or column
/// does not exist.
pub fn cell<'a>(figure: &str, tsv: &'a str, row: usize, col: usize) -> &'a str {
    let line = tsv
        .lines()
        .nth(row + 1)
        .unwrap_or_else(|| panic!("{figure}: no data row {row} in TSV"));
    line.split('\t')
        .nth(col)
        .unwrap_or_else(|| panic!("{figure}: row {row} has no column {col}: {line:?}"))
}

/// Parses data cell `(row, col)` of a TSV rendering as `T` (see
/// [`cell`] for addressing), panicking with the figure, row, column
/// and offending value on failure.
///
/// # Panics
///
/// Panics, naming `figure`, `row`, `col` and the cell contents, when
/// the cell is missing or does not parse as `T`.
pub fn parse_cell<T>(figure: &str, tsv: &str, row: usize, col: usize) -> T
where
    T: std::str::FromStr,
    T::Err: fmt::Display,
{
    let raw = cell(figure, tsv, row, col);
    raw.parse().unwrap_or_else(|e| {
        panic!("{figure}: cell (row {row}, col {col}) = {raw:?} did not parse: {e}")
    })
}

/// [`parse_cell`] for percentage cells formatted by [`pct`]: strips
/// the trailing `%` and parses the number.
///
/// # Panics
///
/// Panics, naming `figure`, `row`, `col` and the cell contents, when
/// the cell is missing or is not a percentage.
pub fn parse_pct_cell(figure: &str, tsv: &str, row: usize, col: usize) -> f64 {
    let raw = cell(figure, tsv, row, col);
    raw.trim_end_matches('%').parse().unwrap_or_else(|e| {
        panic!("{figure}: cell (row {row}, col {col}) = {raw:?} is not a percentage: {e}")
    })
}

/// 0-based *data*-row index of the first row whose first cell starts
/// with `prefix`, panicking with the figure and prefix if absent.
///
/// # Panics
///
/// Panics, naming `figure` and `prefix`, when no data row matches.
pub fn find_row(figure: &str, tsv: &str, prefix: &str) -> usize {
    tsv.lines()
        .skip(1)
        .position(|l| l.starts_with(prefix))
        .unwrap_or_else(|| panic!("{figure}: no data row starting with {prefix:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(f3(1.23456), "1.235");
        assert_eq!(pct(0.1234), "12.3%");
    }

    #[test]
    fn results_dir_respects_env() {
        // Can't mutate the process env safely in parallel tests;
        // just check the default shape.
        let d = results_dir();
        assert!(d.ends_with("results") || d.is_absolute());
    }

    const TSV: &str = "name\tvalue\tmet\nalpha\t1.5\t30.0%\nbeta\t2.5\t60.0%\n";

    #[test]
    fn cell_helpers_parse_labeled() {
        assert_eq!(cell("t", TSV, 0, 0), "alpha");
        assert_eq!(parse_cell::<f64>("t", TSV, 1, 1), 2.5);
        assert_eq!(parse_pct_cell("t", TSV, 0, 2), 30.0);
        assert_eq!(find_row("t", TSV, "beta"), 1);
    }

    #[test]
    #[should_panic(expected = "fig99: no data row 5")]
    fn missing_row_is_labeled() {
        cell("fig99", TSV, 5, 0);
    }

    #[test]
    #[should_panic(expected = "fig99: cell (row 0, col 0) = \"alpha\" did not parse")]
    fn bad_parse_is_labeled() {
        parse_cell::<f64>("fig99", TSV, 0, 0);
    }

    #[test]
    fn try_emit_surfaces_write_failure() {
        let t = Table::new(["a"]);
        let err = try_emit_in(Path::new("/dev/null/not-a-dir"), "x", "title", &t)
            .expect_err("write into /dev/null must fail");
        assert!(err.path.to_string_lossy().contains("x.tsv"));
        assert!(err.to_string().contains("writing"));
    }

    #[test]
    fn try_emit_writes_and_returns_path() {
        let dir = std::env::temp_dir().join("jockey-report-test");
        std::fs::create_dir_all(&dir).unwrap();
        let mut t = Table::new(["a", "b"]);
        t.row(["1".to_string(), "2".to_string()]);
        let p = try_emit_in(&dir, "emit_test", "emit test", &t).unwrap();
        assert_eq!(std::fs::read_to_string(&p).unwrap(), t.to_tsv());
        let p2 = try_emit_text_in(&dir, "sub/emit_test.txt", "hello").unwrap();
        assert_eq!(std::fs::read_to_string(&p2).unwrap(), "hello");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
