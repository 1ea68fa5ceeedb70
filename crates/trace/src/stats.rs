//! Reference-stream statistics (the Table 3 columns, and more).
//!
//! [`TraceStats`] accumulates the per-trace characteristics the paper
//! reports: total references, instruction fetches, data reads, data writes,
//! user/system split — plus the extra quantities the methodology depends on:
//! lock-spin reads (§4.4 reports roughly one third of reads in POPS and THOR
//! are spins), distinct data blocks (first-reference misses), and per-CPU
//! reference counts.

use crate::record::TraceRecord;
use dircc_types::{AccessKind, BlockGeometry, CpuId};
use std::collections::HashSet;

/// Accumulated statistics over a trace.
///
/// Build one by [`Extend`]ing/[`FromIterator`]-collecting records into it,
/// or by calling [`TraceStats::observe`] per record.
#[derive(Debug, Clone)]
pub struct TraceStats {
    geometry: BlockGeometry,
    total: u64,
    instr: u64,
    reads: u64,
    writes: u64,
    system: u64,
    lock_refs: u64,
    lock_spin_reads: u64,
    /// References per CPU, indexed by CPU id (ids are `u16`, so the
    /// table is bounded).
    per_cpu: Vec<u64>,
    /// Whether each process id was observed, indexed by process id.
    processes: Vec<bool>,
    data_blocks: HashSet<u64>,
    instr_blocks: HashSet<u64>,
}

impl TraceStats {
    /// Creates empty statistics using the paper's block geometry.
    pub fn new() -> Self {
        Self::with_geometry(BlockGeometry::PAPER)
    }

    /// Creates empty statistics with an explicit block geometry.
    pub fn with_geometry(geometry: BlockGeometry) -> Self {
        TraceStats {
            geometry,
            total: 0,
            instr: 0,
            reads: 0,
            writes: 0,
            system: 0,
            lock_refs: 0,
            lock_spin_reads: 0,
            per_cpu: Vec::new(),
            processes: Vec::new(),
            data_blocks: HashSet::new(),
            instr_blocks: HashSet::new(),
        }
    }

    /// Accounts for one record.
    pub fn observe(&mut self, r: &TraceRecord) {
        self.total += 1;
        let (cpu, pid) = (r.cpu.index(), r.pid.index());
        if cpu >= self.per_cpu.len() {
            self.per_cpu.resize(cpu + 1, 0);
        }
        self.per_cpu[cpu] += 1;
        if pid >= self.processes.len() {
            self.processes.resize(pid + 1, false);
        }
        self.processes[pid] = true;
        let block = self.geometry.block_of(r.addr).index();
        match r.kind {
            AccessKind::InstrFetch => {
                self.instr += 1;
                self.instr_blocks.insert(block);
            }
            AccessKind::Read => {
                self.reads += 1;
                self.data_blocks.insert(block);
            }
            AccessKind::Write => {
                self.writes += 1;
                self.data_blocks.insert(block);
            }
        }
        if r.flags.is_system() {
            self.system += 1;
        }
        if r.flags.is_lock() {
            self.lock_refs += 1;
            if r.is_lock_spin() {
                self.lock_spin_reads += 1;
            }
        }
    }

    /// Total number of references.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of instruction fetches.
    pub fn instr(&self) -> u64 {
        self.instr
    }

    /// Number of data reads.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Number of data writes.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Number of references issued by system code.
    pub fn system(&self) -> u64 {
        self.system
    }

    /// Number of references issued by user code.
    pub fn user(&self) -> u64 {
        self.total - self.system
    }

    /// Number of references that touched a lock word.
    pub fn lock_refs(&self) -> u64 {
        self.lock_refs
    }

    /// Number of lock-test reads (spins).
    pub fn lock_spin_reads(&self) -> u64 {
        self.lock_spin_reads
    }

    /// Number of distinct data blocks referenced (equals the count of
    /// first-reference misses in an infinite cache).
    pub fn distinct_data_blocks(&self) -> usize {
        self.data_blocks.len()
    }

    /// Number of distinct instruction blocks referenced.
    pub fn distinct_instr_blocks(&self) -> usize {
        self.instr_blocks.len()
    }

    /// Number of distinct processes observed.
    pub fn distinct_processes(&self) -> usize {
        self.processes.iter().filter(|&&seen| seen).count()
    }

    /// References issued by one CPU.
    pub fn refs_for_cpu(&self, cpu: CpuId) -> u64 {
        self.per_cpu.get(cpu.index()).copied().unwrap_or(0)
    }

    /// Number of distinct CPUs observed.
    pub fn distinct_cpus(&self) -> usize {
        self.per_cpu.iter().filter(|&&n| n > 0).count()
    }

    /// Fraction of references that are instruction fetches.
    pub fn instr_fraction(&self) -> f64 {
        self.frac(self.instr)
    }

    /// Fraction of references that are data reads.
    pub fn read_fraction(&self) -> f64 {
        self.frac(self.reads)
    }

    /// Fraction of references that are data writes.
    pub fn write_fraction(&self) -> f64 {
        self.frac(self.writes)
    }

    /// Fraction of references issued by system code.
    pub fn system_fraction(&self) -> f64 {
        self.frac(self.system)
    }

    /// Ratio of data reads to data writes.
    pub fn read_write_ratio(&self) -> f64 {
        if self.writes == 0 {
            f64::INFINITY
        } else {
            self.reads as f64 / self.writes as f64
        }
    }

    /// Fraction of data reads that are lock spins (§4.4: roughly one third
    /// in POPS and THOR).
    pub fn spin_fraction_of_reads(&self) -> f64 {
        if self.reads == 0 {
            0.0
        } else {
            self.lock_spin_reads as f64 / self.reads as f64
        }
    }

    fn frac(&self, n: u64) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            n as f64 / self.total as f64
        }
    }
}

impl Default for TraceStats {
    fn default() -> Self {
        TraceStats::new()
    }
}

impl Extend<TraceRecord> for TraceStats {
    fn extend<I: IntoIterator<Item = TraceRecord>>(&mut self, iter: I) {
        for r in iter {
            self.observe(&r);
        }
    }
}

impl FromIterator<TraceRecord> for TraceStats {
    fn from_iter<I: IntoIterator<Item = TraceRecord>>(iter: I) -> Self {
        let mut s = TraceStats::new();
        s.extend(iter);
        s
    }
}

impl<'a> FromIterator<&'a TraceRecord> for TraceStats {
    fn from_iter<I: IntoIterator<Item = &'a TraceRecord>>(iter: I) -> Self {
        let mut s = TraceStats::new();
        for r in iter {
            s.observe(r);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::RecordFlags;
    use dircc_types::{Address, ProcessId};

    fn rec(cpu: u16, pid: u16, kind: AccessKind, addr: u64) -> TraceRecord {
        TraceRecord::new(CpuId::new(cpu), ProcessId::new(pid), kind, Address::new(addr))
    }

    #[test]
    fn counts_and_fractions() {
        let recs = [
            rec(0, 0, AccessKind::InstrFetch, 0x100),
            rec(0, 0, AccessKind::Read, 0x200),
            rec(1, 1, AccessKind::Write, 0x200),
            rec(1, 1, AccessKind::Read, 0x210).with_flags(RecordFlags::LOCK),
            rec(1, 1, AccessKind::Write, 0x210).with_flags(RecordFlags::LOCK | RecordFlags::SYSTEM),
        ];
        let s: TraceStats = recs.iter().collect();
        assert_eq!(s.total(), 5);
        assert_eq!(s.instr(), 1);
        assert_eq!(s.reads(), 2);
        assert_eq!(s.writes(), 2);
        assert_eq!(s.system(), 1);
        assert_eq!(s.user(), 4);
        assert_eq!(s.lock_refs(), 2);
        assert_eq!(s.lock_spin_reads(), 1);
        assert_eq!(s.distinct_cpus(), 2);
        assert_eq!(s.distinct_processes(), 2);
        assert!((s.instr_fraction() - 0.2).abs() < 1e-12);
        assert!((s.spin_fraction_of_reads() - 0.5).abs() < 1e-12);
        assert!((s.read_write_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn distinct_blocks_use_geometry() {
        // 0x200 and 0x20c share a 16-byte block; 0x210 does not.
        let recs = [
            rec(0, 0, AccessKind::Read, 0x200),
            rec(0, 0, AccessKind::Read, 0x20c),
            rec(0, 0, AccessKind::Read, 0x210),
            rec(0, 0, AccessKind::InstrFetch, 0x1000),
        ];
        let s: TraceStats = recs.iter().collect();
        assert_eq!(s.distinct_data_blocks(), 2);
        assert_eq!(s.distinct_instr_blocks(), 1);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = TraceStats::new();
        assert_eq!(s.total(), 0);
        assert_eq!(s.instr_fraction(), 0.0);
        assert_eq!(s.spin_fraction_of_reads(), 0.0);
        assert!(s.read_write_ratio().is_infinite());
    }

    #[test]
    fn per_cpu_counts() {
        let recs = [rec(2, 0, AccessKind::Read, 0), rec(2, 0, AccessKind::Read, 4)];
        let s: TraceStats = recs.iter().collect();
        assert_eq!(s.refs_for_cpu(CpuId::new(2)), 2);
        assert_eq!(s.refs_for_cpu(CpuId::new(0)), 0);
    }
}
