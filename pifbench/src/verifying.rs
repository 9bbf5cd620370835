//! The `verify-n3` workload: exhaustive checks with `Checker::auto()`.
//!
//! One suite is seven verdicts: the Theorem 1 correction bound
//! (`3·L_max + 3` rounds) and snap safety with acknowledgment tracking on
//! chain(3) rooted at an end, chain(3) rooted in the middle and the
//! triangle, plus snap safety on the leaf-guard ablation on chain(3),
//! which must be reported violated.

use std::time::Instant;

use pif_core::{Features, PifProtocol};
use pif_graph::{generators, Graph, ProcId};
use pif_verify::{Checker, StateSpace};

use crate::Error;

#[derive(Clone, Copy, Debug)]
enum Kind {
    CorrectionBound,
    SnapSafety,
}

#[derive(Clone, Copy, Debug)]
struct Check {
    name: &'static str,
    space: usize,
    kind: Kind,
    expect_verified: bool,
}

const CHECKS: [Check; 7] = [
    Check {
        name: "chain3-end/correction_bound",
        space: 0,
        kind: Kind::CorrectionBound,
        expect_verified: true,
    },
    Check {
        name: "chain3-end/snap_safety",
        space: 0,
        kind: Kind::SnapSafety,
        expect_verified: true,
    },
    Check {
        name: "chain3-mid/correction_bound",
        space: 1,
        kind: Kind::CorrectionBound,
        expect_verified: true,
    },
    Check {
        name: "chain3-mid/snap_safety",
        space: 1,
        kind: Kind::SnapSafety,
        expect_verified: true,
    },
    Check {
        name: "triangle/correction_bound",
        space: 2,
        kind: Kind::CorrectionBound,
        expect_verified: true,
    },
    Check {
        name: "triangle/snap_safety",
        space: 2,
        kind: Kind::SnapSafety,
        expect_verified: true,
    },
    Check {
        name: "chain3-leaf-guard-ablation/snap_safety",
        space: 3,
        kind: Kind::SnapSafety,
        expect_verified: false,
    },
];

/// For each state space, the first check of the suite on it.
pub const FIRST_CHECK_PER_SPACE: [usize; 4] = [0, 2, 4, 6];

/// Verdicts in one suite.
pub const SUITE_LEN: usize = CHECKS.len();

/// One answered check.
pub struct Verdict {
    pub name: &'static str,
    pub secs: f64,
    pub states: u64,
    /// Whether the verdict is the expected one.
    pub as_expected: bool,
}

/// The four state spaces and the checker.
pub struct Suite {
    spaces: Vec<StateSpace>,
    checker: Checker,
}

fn space(graph: Graph, root: ProcId, features: Features) -> StateSpace {
    let protocol = PifProtocol::new(root, &graph).with_features(features);
    StateSpace::new(graph, protocol)
}

impl Suite {
    /// Builds the state spaces (their guard memos are built by the first
    /// check on each).
    pub fn build() -> Result<Self, Error> {
        let chain3 = generators::chain(3).map_err(|e| e.to_string())?;
        let triangle = generators::complete(3).map_err(|e| e.to_string())?;
        let paper = Features::paper();
        let ablated = Features {
            leaf_guard: false,
            ..paper
        };
        Ok(Suite {
            spaces: vec![
                space(chain3.clone(), ProcId(0), paper),
                space(chain3.clone(), ProcId(1), paper),
                space(triangle, ProcId(0), paper),
                space(chain3, ProcId(0), ablated),
            ],
            checker: Checker::auto(),
        })
    }

    /// Answers check `i` of the suite.
    pub fn check(&self, i: usize) -> Verdict {
        let c = CHECKS[i % SUITE_LEN];
        let space = &self.spaces[c.space];
        let start = Instant::now();
        let (verified, states) = match c.kind {
            Kind::CorrectionBound => {
                let bound = 3 * u32::from(space.protocol().l_max()) + 3;
                let r = self.checker.check_correction_bound(space, bound);
                (r.verified(), r.states_explored)
            }
            Kind::SnapSafety => {
                let r = self.checker.check_snap_safety(space, true);
                (r.verified(), r.states_explored)
            }
        };
        let secs = start.elapsed().as_secs_f64();
        Verdict {
            name: c.name,
            secs,
            states,
            as_expected: verified == c.expect_verified && states > 0,
        }
    }

    /// Answers every check once, in suite order.
    pub fn pass(&self) -> Vec<Verdict> {
        (0..SUITE_LEN).map(|i| self.check(i)).collect()
    }
}

/// Builds the suite and answers it once (which builds the guard memos)
/// `times` times; returns the last suite and each set-up's seconds.
pub fn setup(times: usize) -> Result<(Suite, Vec<f64>), Error> {
    let mut secs = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times.max(1) {
        let start = Instant::now();
        let suite = Suite::build()?;
        if let Some(bad) = suite.pass().into_iter().find(|v| !v.as_expected) {
            return Err(format!(
                "warm-up verdict on {} is not the expected one",
                bad.name
            ));
        }
        secs.push(start.elapsed().as_secs_f64());
        last = Some(suite);
    }
    Ok((last.expect("at least one setup"), secs))
}
