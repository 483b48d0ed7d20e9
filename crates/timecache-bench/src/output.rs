//! Table printing and CSV emission for experiment results.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use timecache_telemetry::encode;

/// The directory experiment artifacts (CSVs, run records, event logs) are
/// written to: `$TIMECACHE_RESULTS` or `results/`, created on demand.
///
/// # Errors
///
/// Returns the underlying error, prefixed with the directory, if it cannot
/// be created.
pub fn results_dir() -> io::Result<PathBuf> {
    let dir = std::env::var_os("TIMECACHE_RESULTS")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"));
    fs::create_dir_all(&dir).map_err(|e| in_context("creating", &dir, e))?;
    Ok(dir)
}

/// Writes `contents` to `path` and prints `wrote <path>`.
///
/// # Errors
///
/// Returns the underlying error, prefixed with the path.
pub fn write_artifact(path: &Path, contents: &str) -> io::Result<()> {
    fs::write(path, contents).map_err(|e| in_context("writing", path, e))?;
    println!("wrote {}", path.display());
    Ok(())
}

/// Prefixes `e` with what was being done to which path.
pub(crate) fn in_context(action: &str, path: &Path, e: io::Error) -> io::Error {
    io::Error::new(e.kind(), format!("{action} {}: {e}", path.display()))
}

/// Writes rows as an RFC-4180 CSV file (cells containing commas, quotes,
/// or newlines are quoted and escaped) under [`results_dir`] with
/// [`write_artifact`]; returns the path.
///
/// # Errors
///
/// Returns the underlying error if the directory or file cannot be
/// written.
pub fn write_csv(name: &str, header: &[&str], rows: &[Vec<String>]) -> io::Result<PathBuf> {
    let path = results_dir()?.join(name);
    write_artifact(&path, &encode::csv_table(header, rows))?;
    Ok(path)
}

/// Prints an aligned text table with a header rule.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:w$}", c, w = widths.get(i).copied().unwrap_or(0)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let head: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    println!("{}", fmt_row(&head));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Geometric mean of a nonempty slice.
///
/// # Panics
///
/// Panics if `values` is empty or any value is non-positive.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of empty slice");
    assert!(
        values.iter().all(|&v| v > 0.0),
        "geomean requires positive values"
    );
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Points `TIMECACHE_RESULTS` at a per-process temp directory and returns
/// the directory (test helper). Unit tests run on parallel threads of one
/// process, so the variable is set once and never removed: a test that
/// removed it could send another test's artifacts into `results/`.
#[cfg(test)]
pub(crate) fn test_results_dir() -> PathBuf {
    static SET: std::sync::Once = std::sync::Once::new();
    SET.call_once(|| {
        let dir = std::env::temp_dir().join(format!("timecache-bench-test-{}", std::process::id()));
        std::env::set_var("TIMECACHE_RESULTS", dir);
    });
    results_dir().expect("create the test results directory")
}

/// Checks that a path was written and is nonempty (test helper).
pub fn assert_csv_written(path: &Path) {
    let meta = fs::metadata(path).expect("csv exists");
    assert!(meta.len() > 0, "csv {path:?} is empty");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_matches_hand_calc() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn geomean_rejects_empty() {
        geomean(&[]);
    }

    #[test]
    fn csv_roundtrip() {
        test_results_dir();
        let p = write_csv(
            "unit_test.csv",
            &["a", "b"],
            &[vec!["1".into(), "2".into()]],
        )
        .unwrap();
        assert_csv_written(&p);
        let body = fs::read_to_string(&p).unwrap();
        assert_eq!(body, "a,b\n1,2\n");
    }

    #[test]
    fn csv_escapes_delimiters_in_cells() {
        test_results_dir();
        let p = write_csv(
            "unit_test_escape.csv",
            &["label", "note"],
            &[vec!["a,b".into(), "say \"hi\"".into()]],
        )
        .unwrap();
        let body = fs::read_to_string(&p).unwrap();
        assert_eq!(body, "label,note\n\"a,b\",\"say \"\"hi\"\"\"\n");
    }
}
