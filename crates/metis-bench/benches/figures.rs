//! The one bench target: runs the figures named on the command line (all of
//! [`metis_bench::FIGURES`] when none is), prints each one's report and
//! claims, and writes its report.
//!
//! `cargo bench -p metis-bench -- fig10_overall fig19_low_load`

use metis_bench::{emit, scale_from_env, select};

fn main() {
    let scale = scale_from_env();
    let figures = select(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    for figure in figures {
        let (report, claims) = figure.report(scale);
        figure.print(&report, &claims, scale);
        emit(&report);
    }
}
