//! Minimal plain-text table formatting used by every experiment binary.
//!
//! No external dependency: the harness prints fixed-width aligned tables to stdout and
//! can also emit tab-separated values for downstream plotting.

/// A simple column-aligned table.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (cells are stringified by the caller).
    pub fn add_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row has {} cells but the table has {} columns",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells);
    }

    /// Number of data rows so far.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table as aligned plain text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("## {}\n", self.title));
        let header_line: Vec<String> = self
            .headers
            .iter()
            .enumerate()
            .map(|(i, h)| format!("{:>width$}", h, width = widths[i]))
            .collect();
        out.push_str(&header_line.join("  "));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
                .collect();
            out.push_str(&line.join("  "));
            out.push('\n');
        }
        out
    }

    /// Renders the table as tab-separated values (header row included).
    pub fn to_tsv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.headers.join("\t"));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join("\t"));
            out.push('\n');
        }
        out
    }

    /// Prints the rendered table (and, when `RFC_BENCH_TSV=1`, the TSV form) to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
        if std::env::var("RFC_BENCH_TSV").as_deref() == Ok("1") {
            println!("{}", self.to_tsv());
        }
    }
}

/// Formats a ratio like `12.3x`.
pub fn speedup(baseline_us: u128, other_us: u128) -> String {
    if other_us == 0 {
        return "inf".to_string();
    }
    format!("{:.1}x", baseline_us as f64 / other_us as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_columns() {
        let mut t = Table::new("demo", &["dataset", "k", "time(us)"]);
        t.add_row(vec!["Themarker".into(), "2".into(), "12345".into()]);
        t.add_row(vec!["Google".into(), "9".into(), "7".into()]);
        let rendered = t.render();
        assert!(rendered.contains("## demo"));
        assert!(rendered.contains("Themarker"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        let tsv = t.to_tsv();
        assert_eq!(tsv.lines().count(), 3);
        assert!(tsv.lines().nth(1).unwrap().starts_with("Themarker\t2\t"));
    }

    #[test]
    #[should_panic(expected = "row has")]
    fn mismatched_row_width_panics() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.add_row(vec!["only-one".into()]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(speedup(100, 10), "10.0x");
        assert_eq!(speedup(100, 0), "inf");
    }
}
