//! Experiment implementations regenerating every quantitative artifact of
//! the paper (see DESIGN.md §4 for the index).
//!
//! Each module produces typed result rows plus a formatted table, so the
//! same code backs the `experiments` binary that fills EXPERIMENTS.md and
//! the integration tests that assert the paper's claims hold.

pub mod e1_examples;
pub mod e2_theorem1;
pub mod e3_throughput;
pub mod e4_amortization;
pub mod e5_baselines;
pub mod e6_pipelining;
pub mod e7_capacity;
pub mod e8_ablation;
pub mod scenarios;

/// Formats a table of rows for terminal/markdown output.
pub fn format_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::from("|");
        for (c, w) in cells.iter().zip(widths) {
            line.push_str(&format!(" {c:w$} |"));
        }
        line
    };
    let head: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&head, &widths));
    out.push('\n');
    out.push('|');
    for w in &widths {
        out.push_str(&format!("{:-<1$}|", "", w + 2));
    }
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn table_formatting_aligns() {
        let t = super::format_table(
            &["a", "bb"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        assert!(t.contains("| a   | bb |"));
        assert!(t.contains("| 333 | 4  |"));
    }
}
