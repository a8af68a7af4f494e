//! Related-work comparison (§5 of the paper): the RDMA consensus systems the
//! paper discusses qualitatively, measured on the common fabric.
//!
//! ```text
//! cargo run --release -p bench --bin related
//! ```

use bench::{run, Run, RunSpec, System};

fn usage() {
    eprintln!("usage: related   (no flags; prints the §5 lineage table)");
}

fn main() {
    if let Some(arg) = std::env::args().nth(1) {
        if arg == "--help" || arg == "-h" {
            usage();
            std::process::exit(0);
        }
        eprintln!("unknown flag {arg}");
        usage();
        std::process::exit(2);
    }
    let spec = RunSpec::quick(System::Acuerdo);
    println!("RDMA consensus lineage on 3 nodes, 10-byte messages (§5)\n");
    println!(
        "{:<16} {:>12} {:>14}   notes",
        "system", "lat_us(w=1)", "sat msg/s"
    );
    let rows = [
        (System::Dare, "per-write completions; vote-once elections"),
        (System::Apus, "batch acks; single pending batch"),
        (System::DerechoLeader, "virtual synchrony; 2 writes/msg"),
        (System::Acuerdo, "implicit cumulative acks; quorum speed"),
    ];
    for (system, note) in rows {
        let point = |window| run(&Run::new(system, 3, 10, window, 42, spec)).point;
        println!(
            "{:<16} {:>12.2} {:>14.0}   {}",
            system.name(),
            point(1).mean_us,
            point(512).msgs_per_sec,
            note
        );
    }
    println!("\n(Mu is discussed in §5 but could not run on the paper's RoCE cluster either.)");
}
