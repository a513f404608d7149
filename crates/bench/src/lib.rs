//! The computed half of the experiment suite behind the `experiments`
//! binary, which regenerates every quantitative artifact of the paper as a
//! table pinned by `tests/golden/experiments.txt`.
//!
//! E1, E2, E6, E7 and E8 *compute* — min-cuts and bounds, Theorem-1 trials
//! over small fields, the Figure 3 pipelining model, soundness of coding
//! matrices — and each module here returns typed rows plus a table. E3, E4,
//! E5 and E7's worst-case placement *run the engine*; every such run is a
//! job of `nab-scenario`'s sweep runner described by a file under
//! `scenarios/`, and the binary only selects report columns to print, so
//! they have no module here.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

pub mod e1_examples;
pub mod e2_theorem1;
pub mod e6_pipelining;
pub mod e7_capacity;
pub mod e8_ablation;

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
