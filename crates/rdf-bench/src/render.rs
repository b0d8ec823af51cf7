//! Plain-text rendering of tables, matrices and stacked bars for the
//! figure-reproduction harness.

/// Render a simple aligned table.
pub fn simple_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let ncol = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(ncol) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let sep = |out: &mut String| {
        for w in &widths {
            out.push('+');
            out.push_str(&"-".repeat(w + 2));
        }
        out.push_str("+\n");
    };
    sep(&mut out);
    for (i, h) in headers.iter().enumerate() {
        out.push_str(&format!("| {:>w$} ", h, w = widths[i]));
    }
    out.push_str("|\n");
    sep(&mut out);
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(ncol) {
            out.push_str(&format!("| {:>w$} ", cell, w = widths[i]));
        }
        out.push_str("|\n");
    }
    sep(&mut out);
    out
}

/// Render a version × version matrix with a caption.
pub fn matrix_table(
    caption: &str,
    data: &[Vec<f64>],
    decimals: usize,
) -> String {
    let n = data.len();
    let mut out = format!("{caption}\n");
    let cell = |v: f64| format!("{v:.decimals$}");
    let width = data
        .iter()
        .flatten()
        .map(|&v| cell(v).len())
        .max()
        .unwrap_or(4)
        .max(3);
    out.push_str(&format!("{:>5}", "tgt\\src"));
    for j in 0..n {
        out.push_str(&format!(" {:>w$}", j + 1, w = width));
    }
    out.push('\n');
    for (i, row) in data.iter().enumerate() {
        out.push_str(&format!("{:>8}", i + 1));
        for &v in row {
            out.push_str(&format!(" {:>w$}", cell(v), w = width));
        }
        out.push('\n');
    }
    out
}

/// Render stacked category fractions per row (Fig 14/15 style).
pub fn stacked_rows(
    caption: &str,
    row_labels: &[String],
    categories: &[&str],
    counts: &[Vec<usize>],
) -> String {
    let mut out = format!("{caption}\n");
    let lw = row_labels.iter().map(String::len).max().unwrap_or(0);
    const SYMS: [char; 4] = ['█', '▓', '░', '·'];
    const WIDTH: usize = 48;
    for (label, row) in row_labels.iter().zip(counts) {
        let total: usize = row.iter().sum();
        out.push_str(&format!("{label:>lw$} |"));
        if total > 0 {
            let mut used = 0;
            for (k, &c) in row.iter().enumerate() {
                let n = if k + 1 == row.len() {
                    WIDTH - used
                } else {
                    (c as f64 / total as f64 * WIDTH as f64).round() as usize
                };
                let n = n.min(WIDTH - used);
                out.push_str(
                    &SYMS[k % SYMS.len()].to_string().repeat(n),
                );
                used += n;
            }
        }
        out.push_str("| ");
        for (k, &c) in row.iter().enumerate() {
            out.push_str(&format!("{}={} ", categories[k], c));
        }
        out.push('\n');
    }
    out.push_str(&format!(
        "legend: {}\n",
        categories
            .iter()
            .enumerate()
            .map(|(k, c)| format!("{}={}", SYMS[k % SYMS.len()], c))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let t = simple_table(
            &["Version", "Edges"],
            &[
                vec!["1".into(), "100".into()],
                vec!["10".into(), "12345".into()],
            ],
        );
        assert!(t.contains("| Version |"));
        assert!(t.contains("| 12345 |"));
        assert!(t.contains("|      10 |"));
    }

    #[test]
    fn matrix_shape() {
        let m = matrix_table("cap", &[vec![0.5, 1.0], vec![0.25, 0.75]], 2);
        assert!(m.starts_with("cap\n"));
        assert!(m.contains("0.50"));
        assert!(m.contains("0.75"));
    }

    #[test]
    fn stacked_render() {
        let s = stacked_rows(
            "t",
            &["v1".into()],
            &["exact", "inclusive", "false", "missing"],
            &[vec![10, 5, 3, 2]],
        );
        assert!(s.contains("exact=10"));
        assert!(s.contains("missing=2"));
    }
}
