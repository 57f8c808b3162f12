//! Minimal fixed-width text tables for the experiment binaries.

/// A simple left-aligned text table.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        Self {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row; extra or missing cells are tolerated.
    pub fn add_row<S: Into<String>>(&mut self, row: Vec<S>) {
        self.rows.push(row.into_iter().map(Into::into).collect());
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table to a string.
    pub fn render(&self) -> String {
        let columns = self
            .header
            .len()
            .max(self.rows.iter().map(Vec::len).max().unwrap_or(0));
        let mut widths = vec![0usize; columns];
        let measure = |widths: &mut Vec<usize>, cells: &[String]| {
            for (i, cell) in cells.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        };
        measure(&mut widths, &self.header);
        for row in &self.rows {
            measure(&mut widths, row);
        }
        let render_row = |cells: &[String]| {
            let mut line = String::new();
            for (i, width) in widths.iter().enumerate() {
                let empty = String::new();
                let cell = cells.get(i).unwrap_or(&empty);
                line.push_str(&format!("{cell:<width$}  "));
            }
            line.trim_end().to_string()
        };
        let mut out = String::new();
        out.push_str(&render_row(&self.header));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&render_row(row));
            out.push('\n');
        }
        out
    }
}

impl std::fmt::Display for TextTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

/// Formats a float with the given number of decimal places.
pub fn fmt_f(value: f64, decimals: usize) -> String {
    format!("{value:.decimals$}")
}

/// Formats a value as a percentage with two decimals.
pub fn fmt_pct(value: f64) -> String {
    format!("{value:.2}%")
}

/// Formats a break-point radius, marking one the extraction could not bound
/// (every searched location still exceeded the threshold) as `>=radius`:
/// the edge of the searched range is a lower bound, not an answer.
pub fn fmt_radius(radius: usize, bounded: bool) -> String {
    if bounded {
        radius.to_string()
    } else {
        format!(">={radius}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = TextTable::new(vec!["threshold", "radius"]);
        t.add_row(vec!["0.1".to_string(), "30".to_string()]);
        t.add_row(vec!["20".to_string(), "6".to_string()]);
        let rendered = t.render();
        assert!(rendered.contains("threshold"));
        assert_eq!(rendered.lines().count(), 4);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn ragged_rows_are_tolerated() {
        let mut t = TextTable::new(vec!["a", "b", "c"]);
        t.add_row(vec!["1"]);
        t.add_row(vec!["1", "2", "3", "4"]);
        let rendered = t.render();
        assert!(rendered.lines().count() >= 4);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_f(1.23456, 2), "1.23");
        assert_eq!(fmt_pct(3.25169), "3.25%");
    }

    #[test]
    fn unbounded_radius_is_marked_as_a_lower_bound() {
        assert_eq!(fmt_radius(8, true), "8");
        assert_eq!(fmt_radius(10, false), ">=10");
    }
}
