//! Output checks computed apart from the program.
//!
//! Nothing here calls the program's own judges (`AggregateKind::expected`,
//! `RequestRecord::is_correct`, the ledger summary, `Graph` metrics): the
//! expected folds come from closed forms over the default contributions
//! `i + 1`, eccentricities from a breadth-first search written here, and
//! every ledger record is matched against the request the benchmark
//! itself submitted.

use std::collections::{HashMap, VecDeque};

use pif_graph::{Graph, ProcId};
use pif_serve::{AggregateKind, RequestOutcome, RequestRecord};

/// The fold a correct cycle must return over the default contributions
/// `1, 2, …, n` (Ack counts processors).
pub fn expected_fold(kind: AggregateKind, n: usize) -> i64 {
    let n = n as i64;
    match kind {
        AggregateKind::Ack | AggregateKind::Max => n,
        AggregateKind::Sum => n * (n + 1) / 2,
        AggregateKind::Min => 1,
    }
}

/// Eccentricity of `p`: the largest hop distance from `p`.
pub fn eccentricity(graph: &Graph, p: ProcId) -> u32 {
    let mut dist = vec![u32::MAX; graph.len()];
    let mut queue = VecDeque::from([p]);
    dist[p.index()] = 0;
    let mut far = 0;
    while let Some(u) = queue.pop_front() {
        far = far.max(dist[u.index()]);
        for &v in graph.neighbor_slice(u) {
            if dist[v.index()] == u32::MAX {
                dist[v.index()] = dist[u.index()] + 1;
                queue.push_back(v);
            }
        }
    }
    far
}

/// What the benchmark submitted for one request.
#[derive(Clone, Copy, Debug)]
pub struct Submitted {
    pub initiator: ProcId,
    pub aggregate: AggregateKind,
}

/// The oracle's finding on one request.
#[derive(Clone, Debug, PartialEq)]
pub enum Finding {
    Correct,
    /// The ledger marks the request [PIF1] ∧ [PIF2] but the root's fold
    /// differs from the true fold.
    WrongFold {
        got: Option<i64>,
        want: i64,
    },
    /// Anything else: a missing, duplicated or unknown record, a
    /// non-completed outcome, a ledger verdict of failure, or a cycle too
    /// short or a tree too low for the initiator's eccentricity.
    Other(String),
}

/// Judges every submitted request against the ledger.
pub fn judge(
    graph: &Graph,
    submitted: &HashMap<u64, Submitted>,
    records: &[RequestRecord],
) -> HashMap<u64, Finding> {
    let n = graph.len();
    let mut ecc: HashMap<ProcId, u32> = HashMap::new();
    let mut findings: HashMap<u64, Finding> = HashMap::with_capacity(submitted.len());
    for r in records {
        let id = r.id.0;
        let Some(sub) = submitted.get(&id) else {
            findings.insert(
                id,
                Finding::Other("record for an id never submitted".into()),
            );
            continue;
        };
        let e = *ecc
            .entry(sub.initiator)
            .or_insert_with(|| eccentricity(graph, sub.initiator));
        findings
            .entry(id)
            .and_modify(|f| *f = Finding::Other("id recorded twice".into()))
            .or_insert_with(|| judge_one(r, sub, e, n));
    }
    for id in submitted.keys() {
        findings
            .entry(*id)
            .or_insert_with(|| Finding::Other("no ledger record".into()));
    }
    findings
}

fn judge_one(r: &RequestRecord, sub: &Submitted, ecc: u32, n: usize) -> Finding {
    if r.initiator != sub.initiator || r.aggregate != sub.aggregate {
        return Finding::Other(format!("record {} does not match its submission", r.id));
    }
    let RequestOutcome::Completed {
        pif1,
        pif2,
        feedback,
    } = &r.outcome
    else {
        return Finding::Other(format!("{} ended {:?}", r.id, r.outcome));
    };
    if !(*pif1 && *pif2) {
        return Finding::Other(format!("{} completed with pif1={pif1} pif2={pif2}", r.id));
    }
    let want = expected_fold(sub.aggregate, n);
    if *feedback != Some(want) {
        return Finding::WrongFold {
            got: *feedback,
            want,
        };
    }
    if r.cycle_steps < 2 * u64::from(ecc) || r.height < ecc {
        return Finding::Other(format!(
            "{}: cycle of {} steps and height {} below eccentricity {ecc}",
            r.id, r.cycle_steps, r.height
        ));
    }
    Finding::Correct
}

#[cfg(test)]
mod tests {
    use super::*;
    use pif_graph::generators;

    #[test]
    fn folds_and_eccentricities() {
        assert_eq!(expected_fold(AggregateKind::Sum, 36), 666);
        assert_eq!(expected_fold(AggregateKind::Ack, 36), 36);
        assert_eq!(expected_fold(AggregateKind::Min, 36), 1);
        let chain = generators::chain(256).unwrap();
        assert_eq!(eccentricity(&chain, ProcId(0)), 255);
        assert_eq!(eccentricity(&chain, ProcId(128)), 128);
        let torus = generators::torus(8, 8).unwrap();
        assert_eq!(eccentricity(&torus, ProcId(9)), 8);
    }
}
