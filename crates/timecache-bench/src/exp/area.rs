//! Area scaling (Section VI-C): the cost of the timestamp/s-bit SRAM
//! array as a fraction of the data array, for the full per-context bit map
//! and for the limited-pointer alternative the paper points at for
//! many-context server LLCs.

use crate::output::{print_table, write_csv};
use std::io;
use timecache_core::{AreaModel, TimestampWidth};

/// Prints the area table across context counts for the Table I LLC.
pub fn run() -> io::Result<()> {
    let header = [
        "contexts",
        "full map (% of data array)",
        "limited k=2 (%)",
        "limited k=4 (%)",
    ];
    let mut rows = Vec::new();
    for contexts in [2usize, 4, 8, 16, 32, 64, 128] {
        let m = AreaModel::new(32768, contexts, TimestampWidth::new(32), 64);
        let lk2 = if contexts >= 2 {
            format!("{:.2}", m.limited_overhead_fraction(2) * 100.0)
        } else {
            String::new()
        };
        let lk4 = if contexts >= 4 {
            format!("{:.2}", m.limited_overhead_fraction(4) * 100.0)
        } else {
            String::new()
        };
        rows.push(vec![
            contexts.to_string(),
            format!("{:.2}", m.total_overhead_fraction() * 100.0),
            lk2,
            lk4,
        ]);
    }
    print_table(
        "Section VI-C: area overhead of the 8-T timestamp/s-bit array (2 MB LLC)",
        &header,
        &rows,
    );
    println!("the full map grows linearly with hardware contexts; limited pointers");
    println!("(Agarwal et al.) keep it O(k log n) — the paper's scaling suggestion.");
    write_csv("vi_c_area.csv", &header, &rows)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    #[test]
    fn area_table_prints() {
        crate::output::test_results_dir();
        super::run().unwrap();
    }
}
