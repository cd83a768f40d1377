//! Minimal ASCII charts so `repro` output *looks* like the paper's
//! figures, not just its tables.

/// Renders a horizontal bar chart. Values may be negative; bars are
/// scaled to the largest magnitude.
///
/// # Examples
///
/// ```
/// use psca_bench::chart::bar_chart;
///
/// let out = bar_chart(
///     "PPW gain",
///     &[("Best RF".into(), 0.219), ("CHARSTAR".into(), 0.184)],
///     30,
///     |v| format!("{:.1}%", 100.0 * v),
/// );
/// assert!(out.contains("Best RF"));
/// assert!(out.contains('#'));
/// ```
pub fn bar_chart(
    title: &str,
    rows: &[(String, f64)],
    width: usize,
    fmt: impl Fn(f64) -> String,
) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    if rows.is_empty() {
        let _ = writeln!(out, "  (no data)");
        return out;
    }
    let label_w = rows.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
    let max = rows
        .iter()
        .map(|(_, v)| v.abs())
        .fold(f64::MIN_POSITIVE, f64::max);
    for (label, v) in rows {
        let n = ((v.abs() / max) * width as f64).round() as usize;
        let bar = "#".repeat(n.max(usize::from(*v != 0.0)));
        let sign = if *v < 0.0 { "-" } else { "" };
        let _ = writeln!(
            out,
            "  {label:<label_w$} |{sign}{bar:<width$} {}",
            fmt(*v),
            label_w = label_w,
            width = width + 1
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bars_scale_to_largest_value() {
        let out = bar_chart("t", &[("a".into(), 1.0), ("b".into(), 0.5)], 10, |v| {
            format!("{v}")
        });
        let lines: Vec<&str> = out.lines().collect();
        let count = |s: &str| s.chars().filter(|&c| c == '#').count();
        assert_eq!(count(lines[1]), 10);
        assert_eq!(count(lines[2]), 5);
    }

    #[test]
    fn negative_values_render_with_sign() {
        let out = bar_chart("t", &[("a".into(), -0.4)], 10, |v| format!("{v}"));
        assert!(out.contains("|-"));
    }

    #[test]
    fn empty_chart_is_graceful() {
        let out = bar_chart("t", &[], 10, |v| format!("{v}"));
        assert!(out.contains("no data"));
    }
}
