//! A deliberately plain explorer, kept as the reference [`explore`] is
//! pinned to: std `HashSet<Vec<u64>>` dedup, the full op path stored in
//! every node, and per-cache version rows in nested vectors. It shares
//! only [`step`] (the transition relation and its checks) and the op
//! alphabet with the explorer; everything the explorer optimizes is
//! written out here the straightforward way.

use super::*;
use std::collections::HashSet;

/// The version tables as one vector per table and per cache.
#[derive(Debug, Clone)]
struct NestedValues {
    version: Vec<u64>,
    memory: Vec<u64>,
    copy: Vec<Vec<u64>>,
}

impl NestedValues {
    fn new(cpus: usize, blocks: usize) -> Self {
        NestedValues {
            version: vec![0; blocks],
            memory: vec![0; blocks],
            copy: vec![vec![0; blocks]; cpus],
        }
    }

    fn encode(&self, out: &mut Vec<u64>) {
        out.extend_from_slice(&self.version);
        out.extend_from_slice(&self.memory);
        for c in &self.copy {
            out.extend_from_slice(c);
        }
    }
}

impl ValueModel for NestedValues {
    fn version(&mut self, b: usize) -> &mut u64 {
        &mut self.version[b]
    }

    fn memory(&mut self, b: usize) -> &mut u64 {
        &mut self.memory[b]
    }

    fn copy(&mut self, c: usize, b: usize) -> &mut u64 {
        &mut self.copy[c][b]
    }
}

struct Node<P> {
    protocol: P,
    values: NestedValues,
    seen: u64,
    path: Vec<Op>,
}

fn state_key<P: Protocol>(protocol: &P, values: &NestedValues, seen: u64) -> Vec<u64> {
    let mut key = Vec::with_capacity(48);
    protocol.encode_state(&mut key);
    key.push(seen);
    values.encode(&mut key);
    key
}

/// Explores `initial` under `cfg` exactly as [`explore`] specifies.
/// Reports `arena_bytes` as 0: it keeps no arena.
pub(crate) fn explore_reference<P: Protocol + Clone>(initial: P, cfg: &CheckConfig) -> CheckReport {
    assert_bounds(cfg, initial.num_caches());
    let name = initial.name();
    let kind = initial.kind();
    let ops = op_alphabet(cfg);

    let values = NestedValues::new(cfg.cpus, cfg.blocks);
    let mut visited: HashSet<Vec<u64>> = HashSet::new();
    visited.insert(state_key(&initial, &values, 0));
    let mut frontier = vec![Node { protocol: initial, values, seen: 0, path: Vec::new() }];
    let mut transitions = 0u64;

    for _ in 0..cfg.depth {
        let mut next = Vec::new();
        for node in &frontier {
            for &op in &ops {
                if op.kind == OpKind::Evict && !node.protocol.holders(op.block).contains(op.cache) {
                    continue;
                }
                transitions += 1;
                let mut protocol = node.protocol.clone();
                let mut values = node.values.clone();
                let mut seen = node.seen;
                if let Err(violation) = step(&mut protocol, &mut values, &mut seen, op) {
                    let mut ops = node.path.clone();
                    ops.push(op);
                    return CheckReport {
                        name,
                        kind,
                        states: visited.len() as u64,
                        transitions,
                        arena_bytes: 0,
                        counterexample: Some(Counterexample { ops, violation }),
                    };
                }
                if visited.insert(state_key(&protocol, &values, seen)) {
                    let mut path = node.path.clone();
                    path.push(op);
                    next.push(Node { protocol, values, seen, path });
                }
            }
        }
        frontier = next;
        if frontier.is_empty() {
            break;
        }
    }

    CheckReport {
        name,
        kind,
        states: visited.len() as u64,
        transitions,
        arena_bytes: 0,
        counterexample: None,
    }
}

/// Asserts two reports agree on everything but `arena_bytes`.
pub(crate) fn assert_same(got: &CheckReport, want: &CheckReport) {
    assert_eq!(got.name, want.name);
    assert_eq!(got.kind, want.kind);
    assert_eq!(got.states, want.states, "{}: states", want.name);
    assert_eq!(got.transitions, want.transitions, "{}: transitions", want.name);
    let ce =
        |r: &CheckReport| r.counterexample.as_ref().map(|c| (c.ops.clone(), c.violation.clone()));
    assert_eq!(ce(got), ce(want), "{}: counterexample", want.name);
}

mod tests {
    use super::*;

    /// Runs both explorers on the concrete scheme type.
    struct Both<'a>(&'a CheckConfig);

    impl ProtocolVisitor for Both<'_> {
        type Output = (CheckReport, CheckReport);

        fn visit<P: Protocol + Clone>(self, protocol: P) -> Self::Output {
            (explore(protocol.clone(), self.0), explore_reference(protocol, self.0))
        }
    }

    #[test]
    fn explorer_matches_the_reference_on_every_default_kind() {
        for cfg in [CheckConfig::smoke(), CheckConfig { cpus: 3, blocks: 2, depth: 5 }] {
            for kind in default_kinds() {
                let (got, want) = dispatch(kind, cfg.cpus, Both(&cfg));
                assert_same(&got, &want);
                assert!(got.passed(), "{}", got.name);
                assert!(got.arena_bytes >= got.states, "{}: one byte per key at least", got.name);
            }
        }
    }
}
