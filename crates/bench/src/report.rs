//! Plain-text tables, CSV series, and JSON dumps for the experiment
//! binaries. Everything prints to stdout; `--json` additionally writes a
//! machine-readable file under `bench_results/`.
//!
//! Every JSON artifact goes through [`save_envelope`], which wraps the body
//! in the workspace's versioned envelope (`hchol_obs::envelope`) so
//! downstream tooling can dispatch on `schema_version` and `kind` instead
//! of sniffing shapes.

use hchol_obs::envelope;
use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

/// A rendered table: header row + data rows, auto-aligned.
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with a caption and column headers.
    pub fn new(title: &str, header: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append one row (stringified cells).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.header.len(), "column count mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Render as an aligned plain-text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |cells: &[String], widths: &[usize]| -> String {
            let mut s = String::new();
            for (c, w) in cells.iter().zip(widths) {
                let _ = write!(s, "| {:<width$} ", c, width = w);
            }
            s.push('|');
            s
        };
        let header = line(&self.header, &widths);
        let _ = writeln!(out, "{header}");
        let _ = writeln!(out, "{}", "-".repeat(header.len()));
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
    }

    /// Render rows as CSV (header first).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.header.join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.join(","));
        }
        out
    }

    /// Structured JSON body of the table: `{title, header, rows}` with all
    /// cells as strings (exactly what was rendered).
    pub fn to_value(&self) -> serde::Value {
        let strs = |v: &[String]| {
            serde::Value::Array(v.iter().map(|s| serde::Value::Str(s.clone())).collect())
        };
        serde::Value::Object(vec![
            ("title".to_string(), serde::Value::Str(self.title.clone())),
            ("header".to_string(), strs(&self.header)),
            (
                "rows".to_string(),
                serde::Value::Array(self.rows.iter().map(|r| strs(r)).collect()),
            ),
        ])
    }

    /// Write the table as a versioned-envelope JSON artifact to
    /// `bench_results/<name>`; returns the path written.
    pub fn save_json(&self, name: &str) -> PathBuf {
        save_envelope("table", &self.title, name, self.to_value())
    }
}

/// Format seconds like the paper's tables (4 significant decimals).
pub fn fmt_secs(s: f64) -> String {
    format!("{s:.4}s")
}

/// Format a percentage.
pub fn fmt_pct(p: f64) -> String {
    format!("{p:.2}%")
}

/// Write `content` to `bench_results/<name>`, creating the directory.
/// Returns the path written.
pub fn save(name: &str, content: &str) -> PathBuf {
    let dir = PathBuf::from("bench_results");
    fs::create_dir_all(&dir).expect("create bench_results/");
    let path = dir.join(name);
    fs::write(&path, content).expect("write result file");
    path
}

/// Wrap `body` in the versioned artifact envelope
/// (`{schema_version, kind, name, body}`) and write it pretty-printed to
/// `bench_results/<file>`; returns the path written.
pub fn save_envelope(kind: &str, name: &str, file: &str, body: serde::Value) -> PathBuf {
    let env = envelope(kind, name, body);
    save(
        file,
        &serde_json::to_string_pretty(&env).expect("artifact serializes"),
    )
}

/// Write the `BENCH_<name>.json` sweep artifact (versioned envelope,
/// pretty-printed). A full run replaces the committed file at the
/// workspace root; a `--quick` run writes
/// `target/bench-quick/BENCH_<name>.json` instead, so CI can compare it
/// with the committed file without touching the tree. Returns the path
/// written.
pub fn write_bench_artifact(name: &str, quick: bool, body: serde::Value) -> PathBuf {
    // Anchor to the workspace root: cargo runs binaries and benches from
    // varying working directories.
    let root = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    let dir = if quick {
        root.join("target").join("bench-quick")
    } else {
        root
    };
    fs::create_dir_all(&dir).expect("create the artifact directory");
    let path = dir.join(format!("BENCH_{name}.json"));
    let env = envelope("bench", name, body);
    let json = serde_json::to_string_pretty(&env).expect("artifact serializes");
    fs::write(&path, json).expect("write the bench artifact");
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(&["a".into(), "1".into()]);
        t.row(&["long-name".into(), "22".into()]);
        let r = t.render();
        assert!(r.contains("== demo =="));
        assert!(r.contains("| long-name "));
        assert!(r.contains("| a         "));
    }

    #[test]
    #[should_panic]
    fn wrong_arity_panics() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn csv_roundtrip() {
        let mut t = Table::new("demo", &["n", "secs"]);
        t.row(&["5120".into(), "1.5".into()]);
        let csv = t.to_csv();
        assert_eq!(csv.lines().count(), 2);
        assert!(csv.starts_with("n,secs\n"));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_secs(10.65721), "10.6572s");
        assert_eq!(fmt_pct(6.377), "6.38%");
    }

    #[test]
    fn table_value_is_enveloped_json() {
        let mut t = Table::new("demo", &["n", "secs"]);
        t.row(&["5120".into(), "1.5".into()]);
        let env = envelope("table", "demo", t.to_value());
        let json = serde_json::to_string_pretty(&env).unwrap();
        assert!(json.contains("\"schema_version\""));
        assert!(json.contains("\"kind\": \"table\""));
        let back = serde_json::value_from_str(&json).unwrap();
        let obj = back.as_object().unwrap();
        assert!(obj.iter().any(|(k, _)| k == "body"));
    }
}
