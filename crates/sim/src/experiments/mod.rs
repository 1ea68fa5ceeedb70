//! Experiment runners: one per paper table, figure and in-text study.
//!
//! Every paper runner takes a shared [`Workbench`](crate::workbench::Workbench)
//! (so event frequencies are measured once per protocol and trace, exactly
//! as the paper's methodology prescribes), returns a structured result with
//! the quantities the paper reports, and implements `Display` to print the
//! table/figure in a form comparable with the original. The beyond-paper
//! sweeps need trace shapes of their own, so they build their own
//! workbenches: one per machine size ([`extensions::size_sweep`]) or one
//! over the block-size trace.
//!
//! | Runner | Paper artifact |
//! |---|---|
//! | [`tables::table1`] | Table 1 — fundamental bus timings |
//! | [`tables::table2`] | Table 2 — bus cycle costs |
//! | [`tables::table3`] | Table 3 — trace characteristics |
//! | [`tables::table4`] | Table 4 — event frequencies |
//! | [`tables::table5`] | Table 5 — bus-cycle breakdown |
//! | [`figures::figure1`] | Figure 1 — invalidation histogram |
//! | [`figures::figure2`] | Figure 2 — cycles/ref ranges (average) |
//! | [`figures::figure3`] | Figure 3 — cycles/ref ranges per trace |
//! | [`figures::figure4`] | Figure 4 — cycle breakdown fractions |
//! | [`figures::figure5`] | Figure 5 — cycles per transaction |
//! | [`studies::sensitivity`] | §5.1 — fixed overhead q lines |
//! | [`studies::spinlock`] | §5.2 — spin-lock exclusion |
//! | [`studies::berkeley`] | §5 aside — Berkeley estimate |
//! | [`studies::scalability`] | §6 — scalable alternatives |
//! | [`extensions::finite_cache`] | §4 extension — finite-cache first-order costs |
//! | [`extensions::scaling`] | §6/§7 extension — 4-32 CPU sweep |
//! | [`extensions::block_size`] | ablation — block-size sweep |
//! | [`system::system`] | §5 — shared-bus effective processors (analytic + queueing) |
//! | [`network::storage_table`] | §6 — directory storage per block |
//! | [`network::network_study`] | §2/§7 — coherence traffic on 2-D meshes |

pub mod extensions;
pub mod figures;
pub mod network;
pub mod studies;
pub mod system;
pub mod tables;

use crate::workbench::{Workbench, Workload};

/// Everything the full paper pipeline (`dircc all`) reads from the
/// workbench memo: the infinite-cache runs of
/// [`Workbench::paper_workload`], Table 3's trace statistics, and both
/// finite-cache studies' scans and replays — the task list one
/// [`Workbench::warm_workload`] pool runs before rendering.
pub fn paper_all_workload(wb: &Workbench) -> Workload {
    Workload { stats: true, ..Workload::runs(&wb.paper_workload()) }
        .merge(extensions::finite_cache_workload())
        .merge(extensions::footnote2_workload())
}
