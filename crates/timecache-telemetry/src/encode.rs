//! Minimal hand-rolled serialization helpers shared by every artifact
//! writer: JSON string escaping and RFC-4180 CSV escaping. Keeping one
//! implementation here means the tracer, the bench harness's run records
//! and its CSV emitter all serialize through the same code path (no
//! third-party serializers, per DESIGN.md §6).

use std::fmt::Write as _;

/// Appends `s` to `out` as a JSON string literal (with surrounding quotes).
pub fn json_string(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

/// Escapes one CSV cell per RFC 4180: cells containing a comma, quote, or
/// newline are wrapped in quotes with inner quotes doubled.
pub fn csv_cell(s: &str) -> String {
    if s.contains([',', '"', '\n', '\r']) {
        let mut out = String::with_capacity(s.len() + 2);
        out.push('"');
        for c in s.chars() {
            if c == '"' {
                out.push('"');
            }
            out.push(c);
        }
        out.push('"');
        out
    } else {
        s.to_owned()
    }
}

/// Renders a header plus rows as CSV text (the single serialization path
/// used by the bench harness's `write_csv`).
pub fn csv_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    let head: Vec<String> = header.iter().map(|h| csv_cell(h)).collect();
    out.push_str(&head.join(","));
    out.push('\n');
    for row in rows {
        let cells: Vec<String> = row.iter().map(|c| csv_cell(c)).collect();
        out.push_str(&cells.join(","));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_string_escapes_specials() {
        let mut s = String::new();
        json_string(&mut s, "a\"b\\c\nd\u{1}");
        assert_eq!(s, r#""a\"b\\c\nd\u0001""#);
    }

    #[test]
    fn csv_cell_escapes_when_needed() {
        assert_eq!(csv_cell("plain"), "plain");
        assert_eq!(csv_cell("a,b"), "\"a,b\"");
        assert_eq!(csv_cell("say \"hi\""), "\"say \"\"hi\"\"\"");
        assert_eq!(csv_cell("two\nlines"), "\"two\nlines\"");
    }

    #[test]
    fn csv_table_round_trips_simple_rows() {
        let t = csv_table(&["a", "b"], &[vec!["1".into(), "x,y".into()]]);
        assert_eq!(t, "a,b\n1,\"x,y\"\n");
    }
}
