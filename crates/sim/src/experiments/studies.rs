//! The paper's in-text studies: §5.1 fixed-overhead sensitivity, §5.2 spin
//! locks, the Berkeley aside, and §6 scalable directory alternatives.

use crate::metrics::mean;
use crate::report::{cycles, Table};
use crate::workbench::{TraceFilter, Workbench, Workload};
use core::fmt;
use dircc_bus::{CostConfig, CostModel};
use dircc_core::ProtocolKind;

/// §5.1: the `base + slope·q` cost lines for Dragon and Dir0B.
///
/// The paper: "the performance for Dragon is given by 0.0336 + 0.0206q and
/// the performance for Dir0B is given by 0.0491 + 0.0114q bus cycles per
/// reference. For example, with q = 1 Dir0B needs only 12% more bus cycles
/// than Dragon."
#[derive(Debug, Clone)]
pub struct Sensitivity {
    /// `(scheme, base cycles/ref at q = 0, transactions/ref slope)`.
    pub lines: Vec<(String, f64, f64)>,
    /// Sampled q values.
    pub q_values: Vec<f64>,
    /// `samples[scheme][q]` cycles/ref.
    pub samples: Vec<Vec<f64>>,
}

impl Sensitivity {
    /// `(base, slope)` for a scheme.
    pub fn line(&self, scheme: &str) -> Option<(f64, f64)> {
        self.lines.iter().find(|(s, _, _)| s == scheme).map(|(_, b, m)| (*b, *m))
    }

    /// Ratio of Dir0B to Dragon cycles/ref at a given q.
    pub fn dir0b_over_dragon(&self, q: f64) -> Option<f64> {
        let (b0, m0) = self.line("Dir0B")?;
        let (bd, md) = self.line("Dragon")?;
        Some((b0 + m0 * q) / (bd + md * q))
    }
}

/// Runs the §5.1 sensitivity study on the pipelined bus.
pub fn sensitivity(wb: &Workbench) -> Sensitivity {
    let m = CostModel::pipelined();
    let q_values = vec![0.0, 0.5, 1.0, 2.0, 4.0];
    let mut lines = Vec::new();
    let mut samples = Vec::new();
    for kind in [ProtocolKind::Dragon, ProtocolKind::Dir0B] {
        let evals = wb.evaluations(kind, TraceFilter::Full);
        let base = mean(
            &evals.iter().map(|e| e.cycles_per_ref(&m, &CostConfig::PAPER)).collect::<Vec<_>>(),
        );
        let slope = mean(&evals.iter().map(|e| e.transactions_per_ref()).collect::<Vec<_>>());
        let row = q_values
            .iter()
            .map(|q| {
                let cfg = CostConfig::PAPER.with_overhead_q(*q);
                mean(&evals.iter().map(|e| e.cycles_per_ref(&m, &cfg)).collect::<Vec<_>>())
            })
            .collect();
        lines.push((kind.display_name(wb.n_caches()), base, slope));
        samples.push(row);
    }
    Sensitivity { lines, q_values, samples }
}

impl fmt::Display for Sensitivity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Section 5.1: Fixed per-transaction overhead sensitivity (pipelined bus)")?;
        for (scheme, base, slope) in &self.lines {
            writeln!(f, "  {scheme}: cycles/ref = {} + {}*q", cycles(*base), cycles(*slope))?;
        }
        let mut t = Table::new("  samples", vec!["q", "Dragon", "Dir0B", "Dir0B/Dragon"]);
        for (i, q) in self.q_values.iter().enumerate() {
            t.row(vec![
                format!("{q}"),
                cycles(self.samples[0][i]),
                cycles(self.samples[1][i]),
                format!("{:.2}", self.samples[1][i] / self.samples[0][i]),
            ]);
        }
        write!(f, "{t}")
    }
}

/// §5.2: impact of spin locks on `Dir1NB` vs `Dir0B`.
///
/// The paper: "we ran a set of experiments excluding all the tests on locks
/// ... Dir0B gave the same performance as before, while the performance of
/// Dir1NB improved significantly (from 0.32 to 0.12 bus cycles per
/// reference)."
#[derive(Debug, Clone)]
pub struct Spinlock {
    /// Dir1NB cycles/ref with the full trace.
    pub dir1nb_full: f64,
    /// Dir1NB cycles/ref with lock-test reads excluded.
    pub dir1nb_no_spins: f64,
    /// Dir0B cycles/ref with the full trace.
    pub dir0b_full: f64,
    /// Dir0B cycles/ref with lock-test reads excluded.
    pub dir0b_no_spins: f64,
}

impl Spinlock {
    /// Improvement factor for Dir1NB (paper: ≈ 0.32/0.12 ≈ 2.7×).
    pub fn dir1nb_improvement(&self) -> f64 {
        if self.dir1nb_no_spins == 0.0 {
            return f64::INFINITY;
        }
        self.dir1nb_full / self.dir1nb_no_spins
    }
}

/// Runs the §5.2 spin-lock exclusion study (pipelined bus, trace average;
/// POPS and THOR carry the spins).
pub fn spinlock(wb: &Workbench) -> Spinlock {
    let m = CostModel::pipelined();
    let cfg = CostConfig::PAPER;
    let avg = |kind: ProtocolKind, filter: TraceFilter| {
        let evals = wb.evaluations(kind, filter);
        mean(&evals.iter().map(|e| e.cycles_per_ref(&m, &cfg)).collect::<Vec<_>>())
    };
    let dir1 = ProtocolKind::DirNb { pointers: 1 };
    Spinlock {
        dir1nb_full: avg(dir1, TraceFilter::Full),
        dir1nb_no_spins: avg(dir1, TraceFilter::ExcludeLockSpins),
        dir0b_full: avg(ProtocolKind::Dir0B, TraceFilter::Full),
        dir0b_no_spins: avg(ProtocolKind::Dir0B, TraceFilter::ExcludeLockSpins),
    }
}

impl fmt::Display for Spinlock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Section 5.2: Impact of spin locks (pipelined bus, cycles/ref)")?;
        writeln!(
            f,
            "  Dir1NB: full trace {}  -> spins excluded {}   ({:.1}x better)",
            cycles(self.dir1nb_full),
            cycles(self.dir1nb_no_spins),
            self.dir1nb_improvement()
        )?;
        writeln!(
            f,
            "  Dir0B : full trace {}  -> spins excluded {}",
            cycles(self.dir0b_full),
            cycles(self.dir0b_no_spins)
        )
    }
}

/// The §5 Berkeley aside: the paper's derived estimate next to a real
/// Berkeley protocol run.
#[derive(Debug, Clone)]
pub struct BerkeleyStudy {
    /// Dir0B cycles/ref (pipelined).
    pub dir0b: f64,
    /// The paper's estimate: Dir0B event frequencies with the directory
    /// access cost "trivially set to 0 bus cycles".
    pub estimate: f64,
    /// A full Berkeley protocol simulation priced with its own schema.
    pub simulated: f64,
    /// Dragon cycles/ref for the "roughly midway" comparison.
    pub dragon: f64,
}

/// Runs the Berkeley comparison (pipelined bus, trace average).
pub fn berkeley(wb: &Workbench) -> BerkeleyStudy {
    let cfg = CostConfig::PAPER;
    let m = CostModel::pipelined();
    let zero_dir = CostModel { dir_check: 0, ..m };
    let avg = |kind: ProtocolKind, model: &CostModel| {
        let evals = wb.evaluations(kind, TraceFilter::Full);
        mean(&evals.iter().map(|e| e.cycles_per_ref(model, &cfg)).collect::<Vec<_>>())
    };
    BerkeleyStudy {
        dir0b: avg(ProtocolKind::Dir0B, &m),
        estimate: avg(ProtocolKind::Dir0B, &zero_dir),
        simulated: avg(ProtocolKind::Berkeley, &m),
        dragon: avg(ProtocolKind::Dragon, &m),
    }
}

impl fmt::Display for BerkeleyStudy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Section 5 aside: Berkeley Ownership estimate (pipelined bus, cycles/ref)")?;
        writeln!(f, "  Dir0B                      : {}", cycles(self.dir0b))?;
        writeln!(f, "  Berkeley (paper's estimate): {}", cycles(self.estimate))?;
        writeln!(f, "  Berkeley (full simulation) : {}", cycles(self.simulated))?;
        writeln!(f, "  Dragon                     : {}", cycles(self.dragon))
    }
}

/// §6: scalable directory alternatives.
#[derive(Debug, Clone)]
pub struct Scalability {
    /// Dir0B cycles/ref (full broadcast baseline).
    pub dir0b: f64,
    /// DirnNB cycles/ref (sequential invalidates; paper: 0.0491 → 0.0499).
    pub dirnnb: f64,
    /// Dir1B cycles/ref sampled at each broadcast cost `b`.
    pub dir1b_by_b: Vec<(f64, f64)>,
    /// `(i, cycles/ref, rm+wm percent)` for the DiriNB sweep.
    pub dirinb_sweep: Vec<(u32, f64, f64)>,
    /// `(i, cycles/ref, broadcasts per 1000 refs)` for the DiriB sweep.
    pub dirib_sweep: Vec<(u32, f64, f64)>,
    /// Coded-set cycles/ref and its invalidation messages relative to the
    /// full map's exact count.
    pub coded_cycles: f64,
    /// Coded-set invalidation messages ÷ full-map invalidation messages.
    pub coded_message_overhead: f64,
}

/// Every run [`scalability`] reads from the workbench memo: Dir0B, the
/// DiriNB sweep up to the full map, the DiriB sweep and the coded set,
/// all on the full traces.
pub fn scalability_workload(wb: &Workbench) -> Workload {
    let n = wb.n_caches() as u32;
    let mut runs = vec![ProtocolKind::Dir0B];
    runs.extend((1..=n).map(|i| ProtocolKind::DirNb { pointers: i }));
    runs.extend((1..n).map(|i| ProtocolKind::DirB { pointers: i }));
    runs.push(ProtocolKind::CodedSet);
    Workload {
        runs: runs.into_iter().map(|k| (k, TraceFilter::Full)).collect(),
        ..Workload::default()
    }
}

/// Runs the §6 study (pipelined bus, trace average); warm its runs in
/// parallel with [`scalability_workload`].
pub fn scalability(wb: &Workbench) -> Scalability {
    let cfg = CostConfig::PAPER;
    let m = CostModel::pipelined();
    let n = wb.n_caches();
    let avg_cycles = |kind: ProtocolKind, cfg: &CostConfig| {
        let evals = wb.evaluations(kind, TraceFilter::Full);
        mean(&evals.iter().map(|e| e.cycles_per_ref(&m, cfg)).collect::<Vec<_>>())
    };

    let dir1b_by_b = [1.0, 2.0, 4.0, 8.0, 16.0]
        .into_iter()
        .map(|b| {
            (
                b,
                avg_cycles(
                    ProtocolKind::DirB { pointers: 1 },
                    &CostConfig::PAPER.with_broadcast_cycles(b),
                ),
            )
        })
        .collect();

    let mut dirinb_sweep = Vec::new();
    for i in 1..=n as u32 {
        let kind = ProtocolKind::DirNb { pointers: i };
        let evals = wb.evaluations(kind, TraceFilter::Full);
        let c = avg_cycles(kind, &cfg);
        let miss = mean(
            &evals
                .iter()
                .map(|e| e.counters.pct(e.counters.rm() + e.counters.wm()))
                .collect::<Vec<_>>(),
        );
        dirinb_sweep.push((i, c, miss));
    }

    let mut dirib_sweep = Vec::new();
    for i in 1..n as u32 {
        let kind = ProtocolKind::DirB { pointers: i };
        let evals = wb.evaluations(kind, TraceFilter::Full);
        let c = avg_cycles(kind, &cfg);
        let bc = mean(
            &evals
                .iter()
                .map(|e| 1000.0 * e.counters.broadcasts() as f64 / e.counters.total() as f64)
                .collect::<Vec<_>>(),
        );
        dirib_sweep.push((i, c, bc));
    }

    let coded = wb.merged_counters(ProtocolKind::CodedSet, TraceFilter::Full);
    let full = wb.merged_counters(ProtocolKind::DirNb { pointers: n as u32 }, TraceFilter::Full);
    let coded_message_overhead = if full.control_messages() > 0 {
        coded.control_messages() as f64 / full.control_messages() as f64
    } else {
        1.0
    };

    Scalability {
        dir0b: avg_cycles(ProtocolKind::Dir0B, &cfg),
        dirnnb: avg_cycles(ProtocolKind::DirNb { pointers: n as u32 }, &cfg),
        dir1b_by_b,
        dirinb_sweep,
        dirib_sweep,
        coded_cycles: avg_cycles(ProtocolKind::CodedSet, &cfg),
        coded_message_overhead,
    }
}

impl fmt::Display for Scalability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Section 6: Directory scheme alternatives for scalability")?;
        writeln!(f, "  (pipelined bus, cycles/ref, averaged over traces)")?;
        writeln!(f, "  Dir0B  (full broadcast)        : {}", cycles(self.dir0b))?;
        writeln!(f, "  DirnNB (sequential invalidates): {}", cycles(self.dirnnb))?;
        writeln!(f, "  Dir1B as a function of broadcast cost b:")?;
        for (b, c) in &self.dir1b_by_b {
            writeln!(f, "    b = {b:>4}: {}", cycles(*c))?;
        }
        let mut t = Table::new("  DiriNB sweep", vec!["i", "cycles/ref", "rm+wm %"]);
        for (i, c, miss) in &self.dirinb_sweep {
            t.row(vec![i.to_string(), cycles(*c), format!("{miss:.2}")]);
        }
        write!(f, "{t}")?;
        let mut t = Table::new("  DiriB sweep", vec!["i", "cycles/ref", "bcasts/1000 refs"]);
        for (i, c, bc) in &self.dirib_sweep {
            t.row(vec![i.to_string(), cycles(*c), format!("{bc:.2}")]);
        }
        write!(f, "{t}")?;
        writeln!(
            f,
            "  Coded set: {} cycles/ref; {:.2}x the full map's invalidation messages",
            cycles(self.coded_cycles),
            self.coded_message_overhead
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wb() -> Workbench {
        Workbench::paper_scaled(60_000, 3)
    }

    #[test]
    fn sensitivity_lines_match_direct_samples() {
        let s = sensitivity(&wb());
        let (base, slope) = s.line("Dragon").unwrap();
        // Sampled value at q=2 equals base + slope*2 (linearity).
        let sampled = s.samples[0][3];
        assert!((sampled - (base + 2.0 * slope)).abs() < 1e-9);
        // Dir0B's q-penalty is smaller than Dragon's (fewer transactions):
        let (_, slope0) = s.line("Dir0B").unwrap();
        assert!(slope0 < slope, "Dir0B slope {slope0} < Dragon slope {slope}");
        // The gap narrows with q (the paper's 46% -> 12% observation).
        let r0 = s.dir0b_over_dragon(0.0).unwrap();
        let r1 = s.dir0b_over_dragon(1.0).unwrap();
        assert!(r1 < r0, "overhead narrows the Dir0B/Dragon gap: {r0} -> {r1}");
        assert!(s.to_string().contains("q"));
    }

    #[test]
    fn spinlock_exclusion_rescues_dir1nb_only() {
        let s = spinlock(&wb());
        assert!(
            s.dir1nb_improvement() > 1.5,
            "Dir1NB improves a lot: {} -> {}",
            s.dir1nb_full,
            s.dir1nb_no_spins
        );
        let dir0b_change = (s.dir0b_full - s.dir0b_no_spins).abs() / s.dir0b_full;
        assert!(dir0b_change < 0.25, "Dir0B roughly unchanged ({dir0b_change})");
        // And the effect is much stronger for Dir1NB than Dir0B.
        let dir0b_ratio = s.dir0b_full / s.dir0b_no_spins.max(1e-12);
        assert!(s.dir1nb_improvement() > dir0b_ratio);
    }

    #[test]
    fn berkeley_sits_between_dragon_and_dir0b() {
        let b = berkeley(&wb());
        assert!(b.estimate < b.dir0b, "dropping directory cost must help");
        assert!(b.estimate > b.dragon, "but not beat Dragon");
        assert!(b.simulated < b.dir0b, "the real protocol also beats Dir0B");
        assert!(b.to_string().contains("Berkeley"));
    }

    #[test]
    fn scalability_matches_section6_shapes() {
        let s = scalability(&wb());
        // Sequential invalidation costs almost nothing extra (paper:
        // 0.0491 -> 0.0499, under 2%).
        let ratio = s.dirnnb / s.dir0b;
        assert!((0.98..=1.06).contains(&ratio), "DirnNB/Dir0B = {ratio} (paper: +1.6%)");
        // Dir1B grows slowly with b: the slope is the broadcast frequency,
        // which must stay a small fraction of references (paper: 0.0006;
        // the synthetic traces' spinner accumulation makes it a few times
        // larger but still well under 1%).
        let c1 = s.dir1b_by_b[0].1;
        let c16 = s.dir1b_by_b.last().unwrap().1;
        assert!(c16 > c1);
        let slope = (c16 - c1) / 15.0;
        assert!(slope < 0.005, "broadcasts per reference must be rare: slope {slope}");
        // More pointers monotonically (weakly) reduce the DiriNB miss rate.
        for w in s.dirinb_sweep.windows(2) {
            assert!(w[1].2 <= w[0].2 + 0.05, "miss rate should fall with i: {:?}", s.dirinb_sweep);
        }
        // The coded set sends at least as many messages as the full map.
        assert!(s.coded_message_overhead >= 1.0);
        assert!(s.to_string().contains("Coded set"));
    }
}
