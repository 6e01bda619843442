//! Table 2: compactness of the Colog programs.
//!
//! The paper compares the number of Colog rules in each of the five programs
//! against the lines of RapidNet + Gecode C++ its compiler generated,
//! reporting a roughly 100x gap. This runtime interprets the localized rules
//! and generates no imperative code, so each row quotes the paper's two
//! columns and sets beside them what the compiler the runtime uses reports
//! for the program sources shipped in [`crate::programs`]: the Colog rule
//! count and the number of rules installed after localization.

use cologne::colog::{analyze, localize_rules, parse_program, Program};

use crate::programs::table2_programs;

/// The paper's Table 2 (Colog rules, generated C++ LOC), in the order of
/// [`table2_programs`].
const PAPER: [(usize, usize); 5] = [(10, 935), (16, 1487), (32, 3112), (35, 3229), (48, 4445)];

/// One row of Table 2.
#[derive(Debug, Clone)]
pub struct CompactnessRow {
    /// Program name (as in the paper's first column).
    pub protocol: String,
    /// Number of Colog rules + declarations in this repository's program.
    pub colog_rules: usize,
    /// Number of rules the runtime installs after localization (a
    /// distributed rule becomes a shipping rule plus a local one).
    pub localized_rules: usize,
    /// The paper's Colog rule count.
    pub paper_rules: usize,
    /// The paper's lines of generated RapidNet + Gecode C++.
    pub paper_loc: usize,
}

/// Build every row of Table 2 with the compiler calls the runtime makes:
/// parse, localize, analyze the localized program.
pub fn compactness_table() -> Vec<CompactnessRow> {
    table2_programs()
        .into_iter()
        .zip(PAPER)
        .map(|((name, source), (paper_rules, paper_loc))| {
            let parsed = parse_program(&source).expect("shipped programs parse");
            let colog_rules = parsed.num_rules();
            let program = Program {
                rules: localize_rules(&parsed.rules).expect("shipped programs localize"),
                ..parsed
            };
            analyze(&program).expect("shipped programs analyze");
            CompactnessRow {
                protocol: name.to_string(),
                colog_rules,
                localized_rules: program.rules.len(),
                paper_rules,
                paper_loc,
            }
        })
        .collect()
}

/// Render the table as aligned text (what the Table 2 harness binary prints).
pub fn render_table(rows: &[CompactnessRow]) -> String {
    let mut out = format!(
        "{:<32} {:>12} {:>16} {:>12} {:>14}\n",
        "Protocol", "Colog rules", "Installed rules", "Paper rules", "Paper C++ LOC"
    );
    for row in rows {
        out.push_str(&format!(
            "{:<32} {:>12} {:>16} {:>12} {:>14}\n",
            row.protocol, row.colog_rules, row.localized_rules, row.paper_rules, row.paper_loc
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_pin_repo_localized_and_paper_counts() {
        let expected = [
            ("ACloud (centralized)", 9, 7, 10, 935),
            ("Follow-the-Sun (centralized)", 12, 10, 16, 1487),
            ("Follow-the-Sun (distributed)", 19, 21, 32, 3112),
            ("Wireless (centralized)", 10, 8, 35, 3229),
            ("Wireless (distributed)", 10, 8, 48, 4445),
        ];
        let rows = compactness_table();
        assert_eq!(rows.len(), expected.len());
        for (row, (protocol, colog, localized, paper_rules, paper_loc)) in rows.iter().zip(expected)
        {
            assert_eq!(
                (
                    row.protocol.as_str(),
                    row.colog_rules,
                    row.localized_rules,
                    row.paper_rules,
                    row.paper_loc
                ),
                (protocol, colog, localized, paper_rules, paper_loc)
            );
        }
    }

    #[test]
    fn render_produces_one_line_per_row_plus_header() {
        let rows = compactness_table();
        let text = render_table(&rows);
        assert_eq!(text.lines().count(), rows.len() + 1);
        assert!(text.contains("ACloud"));
        assert!(text.contains("Paper C++ LOC"));
    }
}
