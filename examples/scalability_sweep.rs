//! Scalability sweep (extending the paper's §6 beyond 4 CPUs).
//!
//! ```text
//! cargo run --release --example scalability_sweep
//! ```
//!
//! The paper closes by noting that "an accurate evaluation of the
//! tradeoffs will require traces from a much larger number of processors".
//! The synthetic workload generator can produce those traces, so this
//! example runs the §6 alternatives — full-map `DirnNB`, limited-pointer
//! `DiriNB`/`DiriB`, the coded-set scheme and broadcast `Dir0B` — on
//! machines of 4 to 32 CPUs and reports cycles/ref plus the quantity that
//! actually gates scaling: invalidation *messages* per reference.

use dircc::core::ProtocolKind;
use dircc::sim::default_jobs;
use dircc::sim::experiments::extensions::{size_sweep, ScalingRow};

const REFS: u64 = 300_000;

fn main() {
    let kinds_at = |cpus: u16| {
        [
            ProtocolKind::Dir0B,
            ProtocolKind::DirB { pointers: 1 },
            ProtocolKind::DirB { pointers: 2 },
            ProtocolKind::DirNb { pointers: 1 },
            ProtocolKind::DirNb { pointers: 2 },
            ProtocolKind::DirNb { pointers: 4 },
            ProtocolKind::DirNb { pointers: u32::from(cpus) },
            ProtocolKind::CodedSet,
        ]
    };
    // One warmed workbench per machine size; the rows below read its memo.
    let cpu_counts = [4u16, 8, 16, 32];
    let benches = size_sweep(&cpu_counts, REFS, 3, default_jobs(), kinds_at);
    for (&cpus, wb) in cpu_counts.iter().zip(&benches) {
        println!("=== {cpus} CPUs ===");
        println!(
            "{:<12} {:>10} {:>12} {:>12}",
            "scheme", "cycles/ref", "invals/kref", "bcasts/kref"
        );
        for kind in kinds_at(cpus) {
            let row = ScalingRow::measure(wb, kind);
            println!(
                "{:<12} {:>10.4} {:>12.2} {:>12.2}",
                row.scheme, row.cycles_per_ref, row.messages_per_kref, row.broadcasts_per_kref
            );
        }
        println!();
    }
    println!("Broadcast schemes (Dir0B) hold their cycle count but every");
    println!("broadcast touches all n caches; limited-pointer directories");
    println!("keep the message count (the real scaling cost) nearly flat,");
    println!("which is the paper's argument for Dir_i_NB at scale.");
}
