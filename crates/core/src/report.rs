//! Plain-text table rendering for `memes repro`.
//!
//! Every `memes repro` section prints its rows through [`ascii_table`] so
//! the regenerated output reads like the paper's tables.

/// Render an ASCII table with a header row.
///
/// Column widths adapt to content; numeric-looking cells are
/// right-aligned.
pub fn ascii_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.chars().count()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.chars().count());
        }
    }
    let numeric: Vec<bool> = (0..cols)
        .map(|i| {
            rows.iter().all(|r| {
                r.get(i).is_none_or(|c| {
                    c.is_empty()
                        || c.chars()
                            .all(|ch| ch.is_ascii_digit() || "+-.,%()* ".contains(ch))
                })
            }) && !rows.is_empty()
        })
        .collect();
    let render_row = |cells: &[String]| -> String {
        let mut line = String::from("|");
        for i in 0..cols {
            let cell = cells.get(i).map(String::as_str).unwrap_or("");
            let pad = widths[i].saturating_sub(cell.chars().count());
            if numeric[i] {
                line.push_str(&format!(" {}{} |", " ".repeat(pad), cell));
            } else {
                line.push_str(&format!(" {}{} |", cell, " ".repeat(pad)));
            }
        }
        line.push('\n');
        line
    };
    let sep = {
        let mut s = String::from("+");
        for w in &widths {
            s.push_str(&"-".repeat(w + 2));
            s.push('+');
        }
        s.push('\n');
        s
    };
    let mut out = String::new();
    out.push_str(&sep);
    out.push_str(&render_row(
        &headers.iter().map(|h| h.to_string()).collect::<Vec<_>>(),
    ));
    out.push_str(&sep);
    for row in rows {
        out.push_str(&render_row(row));
    }
    out.push_str(&sep);
    out
}

/// Format a count with thousands separators (paper style: `1,469,582`).
pub fn thousands(n: u64) -> String {
    let s = n.to_string();
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

/// Format a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{x:.1}%")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_all_cells() {
        let out = ascii_table(
            &["Platform", "#Posts"],
            &[
                vec!["Twitter".into(), "1,469".into()],
                vec!["Gab".into(), "12".into()],
            ],
        );
        assert!(out.contains("Twitter"));
        assert!(out.contains("1,469"));
        // Header + separator lines present.
        assert!(out.matches("+--").count() >= 3);
    }

    #[test]
    fn numeric_columns_right_align() {
        let out = ascii_table(
            &["N", "Name"],
            &[vec!["5".into(), "x".into()], vec!["500".into(), "y".into()]],
        );
        // "  5" right-aligned against "500".
        assert!(out.contains("|   5 |"));
    }

    #[test]
    fn thousands_formatting() {
        assert_eq!(thousands(0), "0");
        assert_eq!(thousands(999), "999");
        assert_eq!(thousands(1_000), "1,000");
        assert_eq!(thousands(1_469_582_378), "1,469,582,378");
    }

    #[test]
    fn pct_formatting() {
        assert_eq!(pct(63.25), "63.2%");
        assert_eq!(pct(4.0), "4.0%");
    }

    #[test]
    fn empty_rows_ok() {
        let out = ascii_table(&["A"], &[]);
        assert!(out.contains("| A |"));
    }
}
