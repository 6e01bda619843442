//! Regenerates **Table 2** of the paper: Colog rules per program, the rules
//! the runtime installs after localization, and the paper's rule and
//! generated-C++ line counts for the five programs.
//!
//! ```text
//! cargo run -p cologne-bench --bin table2_compactness
//! ```

use cologne_usecases::{compactness_table, render_table};

fn main() {
    println!("Table 2: Colog compactness");
    println!();
    print!("{}", render_table(&compactness_table()));
    println!();
    println!(
        "this runtime interprets the localized rules and generates no imperative code, \
         so the paper's ~100× ratio is quoted, not reproduced"
    );
}
