//! Tabular experiment output: aligned console tables and CSV files.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// A simple column-oriented report: header + rows of strings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Report {
    /// Experiment identifier (used as the CSV file stem).
    pub name: String,
    /// Human title printed above the table.
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
}

impl Report {
    /// Creates an empty report.
    pub fn new(name: &str, title: &str, columns: &[&str]) -> Report {
        Report {
            name: name.to_string(),
            title: title.to_string(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the arity differs from the header.
    pub fn push(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.columns.len(), "row arity mismatch");
        self.rows.push(row);
    }

    /// Renders an aligned console table.
    pub fn to_table_string(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        for (i, c) in self.columns.iter().enumerate() {
            let _ = write!(out, "{:>w$}  ", c, w = widths[i]);
        }
        out.push('\n');
        for (i, _) in self.columns.iter().enumerate() {
            let _ = write!(out, "{}  ", "-".repeat(widths[i]));
        }
        out.push('\n');
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                let _ = write!(out, "{:>w$}  ", cell, w = widths[i]);
            }
            out.push('\n');
        }
        out
    }

    /// Renders CSV text.
    pub fn to_csv(&self) -> String {
        let esc = |s: &str| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let mut out = String::new();
        let _ =
            writeln!(out, "{}", self.columns.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
        }
        out
    }

    /// Prints the table and writes `<dir>/<name>.csv`, creating `dir`.
    ///
    /// # Errors
    ///
    /// I/O errors from creating the directory or writing the files.
    pub fn emit(&self, dir: &Path) -> std::io::Result<PathBuf> {
        println!("{}", self.to_table_string());
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.csv", self.name));
        std::fs::write(&path, self.to_csv())?;
        Ok(path)
    }
}

/// The default output directory (`bench/out` under the workspace root).
pub fn default_out_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR = <workspace>/crates/bench
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .map_or_else(|| PathBuf::from("bench/out"), |ws| ws.join("bench").join("out"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_rendering_aligns() {
        let mut r = Report::new("t", "Title", &["a", "long_column"]);
        r.push(vec!["1".into(), "2".into()]);
        r.push(vec!["100".into(), "x".into()]);
        let s = r.to_table_string();
        assert!(s.contains("Title"));
        assert!(s.contains("long_column"));
        assert!(s.lines().count() >= 5);
    }

    #[test]
    fn csv_escapes_commas_and_quotes() {
        let mut r = Report::new("t", "T", &["a"]);
        r.push(vec!["x,y".into()]);
        r.push(vec!["say \"hi\"".into()]);
        let csv = r.to_csv();
        assert!(csv.contains("\"x,y\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_checked() {
        let mut r = Report::new("t", "T", &["a", "b"]);
        r.push(vec!["only-one".into()]);
    }

    #[test]
    fn emit_writes_the_csv() {
        let dir = std::env::temp_dir().join(format!("mbd_bench_csv_{}", std::process::id()));
        let mut r = Report::new("e_pair", "T", &["x"]);
        r.push(vec!["7".into()]);
        let path = r.emit(&dir).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "x\n7\n");
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1, "the CSV is the only output");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn default_out_dir_ends_with_bench_out() {
        let d = default_out_dir();
        assert!(d.ends_with("bench/out"));
    }
}
