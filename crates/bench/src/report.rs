//! Tabular experiment output: aligned console tables, CSV files and
//! machine-readable `BENCH_<name>.json` documents (raw series plus
//! per-column summary statistics, for dashboards and regression
//! tracking without CSV re-parsing).

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Formats an f64 as JSON (JSON has no NaN/Infinity; clamp to null).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

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

    /// Renders a JSON document: name, title, the raw series (one object
    /// per row, keyed by column), and `summary` — count/min/max/mean per
    /// column whose every cell parses as a number.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"name\": \"{}\",", json_escape(&self.name));
        let _ = writeln!(out, "  \"title\": \"{}\",", json_escape(&self.title));
        let cols: Vec<String> =
            self.columns.iter().map(|c| format!("\"{}\"", json_escape(c))).collect();
        let _ = writeln!(out, "  \"columns\": [{}],", cols.join(", "));

        out.push_str("  \"rows\": [\n");
        for (r, row) in self.rows.iter().enumerate() {
            let cells: Vec<String> = self
                .columns
                .iter()
                .zip(row)
                .map(|(c, cell)| {
                    let value = match cell.parse::<f64>() {
                        Ok(v) if v.is_finite() => json_num(v),
                        _ => format!("\"{}\"", json_escape(cell)),
                    };
                    format!("\"{}\": {}", json_escape(c), value)
                })
                .collect();
            let comma = if r + 1 < self.rows.len() { "," } else { "" };
            let _ = writeln!(out, "    {{{}}}{comma}", cells.join(", "));
        }
        out.push_str("  ],\n");

        out.push_str("  \"summary\": {\n");
        let mut summaries = Vec::new();
        for (i, col) in self.columns.iter().enumerate() {
            let values: Vec<f64> = self
                .rows
                .iter()
                .filter_map(|row| row[i].parse::<f64>().ok())
                .filter(|v| v.is_finite())
                .collect();
            if values.is_empty() || values.len() != self.rows.len() {
                continue; // not a (fully) numeric column
            }
            let min = values.iter().copied().fold(f64::INFINITY, f64::min);
            let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let mean = values.iter().sum::<f64>() / values.len() as f64;
            summaries.push(format!(
                "    \"{}\": {{\"count\": {}, \"min\": {}, \"max\": {}, \"mean\": {}}}",
                json_escape(col),
                values.len(),
                json_num(min),
                json_num(max),
                json_num(mean)
            ));
        }
        out.push_str(&summaries.join(",\n"));
        if !summaries.is_empty() {
            out.push('\n');
        }
        out.push_str("  }\n}\n");
        out
    }

    /// Prints the table and writes `<dir>/<name>.csv` plus
    /// `<dir>/BENCH_<name>.json`, creating `dir`.
    ///
    /// # Errors
    ///
    /// I/O errors from creating the directory or writing the files.
    pub fn emit(&self, dir: &Path) -> std::io::Result<PathBuf> {
        println!("{}", self.to_table_string());
        std::fs::create_dir_all(dir)?;
        let json_path = dir.join(format!("BENCH_{}.json", self.name));
        std::fs::write(&json_path, self.to_json())?;
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
    fn json_has_series_and_summary_stats() {
        let mut r = Report::new("e_test", "A \"quoted\" title", &["op", "mean_us"]);
        r.push(vec!["fast".into(), "1.5".into()]);
        r.push(vec!["slow".into(), "2.5".into()]);
        let j = r.to_json();
        assert!(j.contains("\"name\": \"e_test\""));
        assert!(j.contains("A \\\"quoted\\\" title"));
        assert!(j.contains("{\"op\": \"fast\", \"mean_us\": 1.5}"));
        // `op` is non-numeric: only mean_us gets summary stats.
        assert!(j.contains("\"mean_us\": {\"count\": 2, \"min\": 1.5, \"max\": 2.5, \"mean\": 2}"));
        assert!(!j.contains("\"op\": {\"count\""));
    }

    #[test]
    fn json_mixed_numeric_column_is_treated_as_text() {
        let mut r = Report::new("t", "T", &["v"]);
        r.push(vec!["1".into()]);
        r.push(vec!["n/a".into()]);
        let j = r.to_json();
        // The series keeps per-cell typing; no summary for a column
        // that is not numeric throughout.
        assert!(j.contains("{\"v\": 1}"));
        assert!(j.contains("{\"v\": \"n/a\"}"));
        assert!(!j.contains("\"count\""));
    }

    #[test]
    fn emit_writes_csv_and_json_side_by_side() {
        let dir = std::env::temp_dir().join(format!("mbd_bench_json_{}", std::process::id()));
        let mut r = Report::new("e_pair", "T", &["x"]);
        r.push(vec!["7".into()]);
        r.emit(&dir).unwrap();
        let json = std::fs::read_to_string(dir.join("BENCH_e_pair.json")).unwrap();
        assert!(json.contains("\"summary\""));
        assert!(dir.join("e_pair.csv").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn default_out_dir_ends_with_bench_out() {
        let d = default_out_dir();
        assert!(d.ends_with("bench/out"));
    }
}
