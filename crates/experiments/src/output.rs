//! Machine-readable experiment artifacts (CSV series, JSON summaries).
//!
//! Every write goes through [`coop_telemetry::write_atomic`] (tmp file +
//! fsync + rename), so a crash — or a SIGKILL from the resume-smoke CI
//! job — can never leave a torn CSV or JSON artifact behind: files are
//! either absent or complete.

use std::cell::RefCell;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use coop_telemetry::write_atomic;
use serde::Serialize;

/// Process-wide override for [`OutputDir::default_dir`], set at most once
/// (the CLI sets it from `--out-dir` before any runner executes).
static DEFAULT_ROOT: OnceLock<PathBuf> = OnceLock::new();

thread_local! {
    /// This thread's override for [`OutputDir::default_dir`], installed by
    /// a live [`ScopedOutputDir`]; it wins over [`DEFAULT_ROOT`].
    static SCOPED_ROOT: RefCell<Option<PathBuf>> = const { RefCell::new(None) };
}

/// A directory experiment artifacts are written into (created on demand).
///
/// # Example
///
/// ```no_run
/// use coop_experiments::OutputDir;
/// let out = OutputDir::new("target/experiments");
/// out.csv("fig4a_completion_cdf", &["time_s", "fraction"], &[(1.0, 0.5)])
///     .unwrap();
/// ```
#[derive(Clone, Debug)]
pub struct OutputDir {
    root: PathBuf,
}

impl OutputDir {
    /// Creates a handle rooted at `root`.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        OutputDir { root: root.into() }
    }

    /// The default artifact directory: `target/experiments`, unless a
    /// [`ScopedOutputDir`] on this thread or
    /// [`OutputDir::set_default_root`] installed an override.
    pub fn default_dir() -> Self {
        if let Some(root) = SCOPED_ROOT.with(|r| r.borrow().clone()) {
            return OutputDir::new(root);
        }
        match DEFAULT_ROOT.get() {
            Some(root) => OutputDir::new(root.clone()),
            None => OutputDir::new("target/experiments"),
        }
    }

    /// Redirects [`OutputDir::default_dir`] for the rest of the process.
    ///
    /// Returns `false` (leaving the original override in place) if a root
    /// was already installed; the first caller wins so that runners never
    /// see the default directory change mid-run.
    pub fn set_default_root(root: impl Into<PathBuf>) -> bool {
        DEFAULT_ROOT.set(root.into()).is_ok()
    }

    /// The root path.
    pub fn path(&self) -> &Path {
        &self.root
    }

    /// Writes a two-column CSV (e.g. a figure series).
    ///
    /// # Errors
    ///
    /// Returns any I/O error.
    pub fn csv(
        &self,
        name: &str,
        headers: &[&str],
        rows: &[(f64, f64)],
    ) -> std::io::Result<PathBuf> {
        let rows: Vec<Vec<String>> = rows
            .iter()
            .map(|&(a, b)| vec![format!("{a}"), format!("{b}")])
            .collect();
        self.csv_rows(name, headers, &rows)
    }

    /// Writes a CSV with arbitrary stringified rows (atomically).
    ///
    /// # Errors
    ///
    /// Returns any I/O error.
    pub fn csv_rows(
        &self,
        name: &str,
        headers: &[&str],
        rows: &[Vec<String>],
    ) -> std::io::Result<PathBuf> {
        let path = self.root.join(format!("{name}.csv"));
        let mut buf = Vec::new();
        writeln!(buf, "{}", headers.join(","))?;
        for row in rows {
            writeln!(buf, "{}", row.join(","))?;
        }
        write_atomic(&path, &buf)?;
        Ok(path)
    }

    /// Serializes `value` as pretty JSON (atomically).
    ///
    /// # Errors
    ///
    /// Returns any I/O or serialization error.
    pub fn json<T: Serialize>(&self, name: &str, value: &T) -> std::io::Result<PathBuf> {
        let path = self.root.join(format!("{name}.json"));
        let data = serde_json::to_string_pretty(value)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        write_atomic(&path, data.as_bytes())?;
        Ok(path)
    }
}

/// A throwaway artifact directory that [`OutputDir::default_dir`] resolves
/// to on the creating thread until it is dropped; the drop deletes it.
/// Runners that write into the default directory write here instead, so
/// tests can run them in parallel without sharing a directory or leaving
/// files in the source tree.
///
/// # Example
///
/// ```
/// use coop_experiments::{write_json, OutputDir, ScopedOutputDir};
/// let scratch = ScopedOutputDir::temp("doc-example");
/// let path = write_json("summary", &[1, 2, 3]).unwrap();
/// assert!(path.starts_with(scratch.path()));
/// let root = scratch.path().to_path_buf();
/// drop(scratch);
/// assert!(!root.exists());
/// assert_eq!(OutputDir::default_dir().path(), std::path::Path::new("target/experiments"));
/// ```
#[derive(Debug)]
#[must_use = "the override ends when the guard is dropped"]
pub struct ScopedOutputDir {
    root: PathBuf,
    previous: Option<PathBuf>,
}

impl ScopedOutputDir {
    /// Installs a fresh directory under the system temporary directory,
    /// named by `tag` and the process id, as this thread's default
    /// artifact directory.
    ///
    /// # Panics
    ///
    /// Panics if the directory cannot be created.
    pub fn temp(tag: &str) -> Self {
        let name = format!("coop-experiments-{}-{tag}", std::process::id());
        let root = std::env::temp_dir().join(name);
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).unwrap_or_else(|e| panic!("create {}: {e}", root.display()));
        let previous = SCOPED_ROOT.with(|r| r.replace(Some(root.clone())));
        ScopedOutputDir { root, previous }
    }

    /// The directory's path.
    pub fn path(&self) -> &Path {
        &self.root
    }
}

impl Drop for ScopedOutputDir {
    fn drop(&mut self) {
        SCOPED_ROOT.with(|r| *r.borrow_mut() = self.previous.take());
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Convenience: writes a series CSV into the default directory.
///
/// # Errors
///
/// Returns any I/O error.
pub fn write_csv(name: &str, headers: &[&str], rows: &[(f64, f64)]) -> std::io::Result<PathBuf> {
    OutputDir::default_dir().csv(name, headers, rows)
}

/// Convenience: writes a JSON summary into the default directory.
///
/// # Errors
///
/// Returns any I/O or serialization error.
pub fn write_json<T: Serialize>(name: &str, value: &T) -> std::io::Result<PathBuf> {
    OutputDir::default_dir().json(name, value)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scratch directory, deleted when the test ends, and the default
    /// directory handle that now points at it.
    fn tmp(tag: &str) -> (ScopedOutputDir, OutputDir) {
        let scratch = ScopedOutputDir::temp(tag);
        let out = OutputDir::default_dir();
        assert_eq!(out.path(), scratch.path());
        (scratch, out)
    }

    #[test]
    fn csv_round_trip() {
        let (_scratch, out) = tmp("output-csv_round_trip");
        let path = out
            .csv("series", &["x", "y"], &[(1.0, 2.0), (3.0, 4.0)])
            .unwrap();
        let text = std::fs::read_to_string(path).unwrap();
        assert_eq!(text, "x,y\n1,2\n3,4\n");
    }

    #[test]
    fn json_round_trip() {
        #[derive(serde::Serialize)]
        struct S {
            a: u32,
        }
        let (_scratch, out) = tmp("output-json_round_trip");
        let path = out.json("summary", &S { a: 7 }).unwrap();
        let text = std::fs::read_to_string(path).unwrap();
        assert!(text.contains("\"a\": 7"));
    }

    #[test]
    fn csv_rows_arbitrary_width() {
        let (_scratch, out) = tmp("output-csv_rows_arbitrary_width");
        let path = out
            .csv_rows(
                "wide",
                &["a", "b", "c"],
                &[vec!["1".into(), "2".into(), "3".into()]],
            )
            .unwrap();
        let text = std::fs::read_to_string(path).unwrap();
        assert_eq!(text.lines().count(), 2);
    }
}
