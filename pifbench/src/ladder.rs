//! The layer ladder: each rung drives one layer's public functions on
//! fixed inputs and is timed from outside. Counts are taken over a fixed
//! amount of work so they repeat exactly from run to run; times are
//! taken over as much work as fits in the rung's time slice.

use std::time::Instant;

use pif_core::protocol::F_ACTION;
use pif_core::wave::WaveOverlay;
use pif_core::{initial, PifProtocol, PifState};
use pif_daemon::daemons::Synchronous;
use pif_daemon::{Fanout, MetricsObserver, PhaseTag};
use pif_graph::{Graph, ProcId, Topology};
use pif_net::{NetSim, TickOutcome, Transport};
use pif_serve::KindAggregate;
use pif_soa::{Engine, EngineSim};

use crate::serving::{lossy_plan, Campaign};
use crate::stats::median;
use crate::trace::Tracer;
use crate::verifying::{Suite, Verdict, FIRST_CHECK_PER_SPACE, SUITE_LEN};
use crate::{Error, Metrics};

/// Steps per timed batch of the engine rungs.
const STEP_BATCH: u64 = 512;
/// PIF cycles the core rung counts over.
const CORE_CYCLES: u64 = 8;
/// PIF cycles the net rung counts over.
const NET_CYCLES: u64 = 40;
/// Seed of the net rung's transport (independent of the workload seed,
/// so its counts repeat in every run).
const NET_SEED: u64 = 2026;
/// Seed of the core rung's corruption campaigns.
const CORE_FAULT_SEED: u64 = 0x51DE;

fn engine(kind: Engine, graph: &Graph, root: ProcId) -> Result<EngineSim, Error> {
    let protocol = PifProtocol::new(root, graph);
    EngineSim::builder(kind, graph.clone(), protocol)
        .states(initial::normal_starting(graph))
        .try_build()
        .map_err(|e| e.to_string())
}

/// `EngineSim::step` under the lane daemon, no observer: the `pif-daemon`
/// rung on `Engine::Aos`, the `pif-soa` rung on `Engine::Soa`.
pub fn engine_rung(
    kind: Engine,
    graph: &Graph,
    root: ProcId,
    slice: f64,
    tracer: &mut Tracer,
    out: &mut Metrics,
) -> Result<(), Error> {
    let (prefix, span_name) = match kind {
        Engine::Aos => ("daemon", "daemon.steps"),
        Engine::Soa => ("soa", "soa.steps"),
    };
    let mut sim = engine(kind, graph, root)?;
    let mut daemon = Synchronous::first_action();
    let (mut steps, mut moves, mut secs) = (0u64, 0u64, 0.0);
    while secs < slice {
        let span = tracer.begin(span_name, steps);
        let start = Instant::now();
        for _ in 0..STEP_BATCH {
            let report = sim.step(&mut daemon).map_err(|e| e.to_string())?;
            moves += report.executed as u64;
        }
        secs += start.elapsed().as_secs_f64();
        tracer.end(span);
        steps += STEP_BATCH;
    }
    out.push(
        format!("{prefix}.us_per_step"),
        secs * 1e6 / steps as f64,
        "us",
    );
    out.push(format!("{prefix}.moves_per_s"), moves as f64 / secs, "1/s");
    Ok(())
}

fn corrupt(sim: &mut EngineSim, registers: usize, seed: u64) {
    let mut copy: Vec<PifState> = sim.states().to_vec();
    initial::corrupt_registers(&mut copy, sim.graph(), sim.protocol(), registers, seed);
    let changed: Vec<(ProcId, PifState)> = sim
        .graph()
        .procs()
        .filter(|p| copy[p.index()] != sim.states()[p.index()])
        .map(|p| (p, copy[p.index()]))
        .collect();
    sim.corrupt_many(&changed);
}

/// `step_observed` with `WaveOverlay` and `MetricsObserver` via `Fanout`,
/// one arm per cycle; with a campaign, registers are corrupted between
/// cycles as the workload corrupts them between rounds.
pub fn core_rung(
    graph: &Graph,
    root: ProcId,
    campaign: Option<Campaign>,
    slice: f64,
    tracer: &mut Tracer,
    out: &mut Metrics,
) -> Result<(), Error> {
    let n = graph.len();
    let mut sim = engine(Engine::Aos, graph, root)?;
    let mut daemon = Synchronous::first_action();
    let contributions = (1..=n as i64).collect();
    let mut overlay: WaveOverlay<u64, KindAggregate> =
        WaveOverlay::new(n, root, KindAggregate::new(contributions));
    let mut metrics = MetricsObserver::for_protocol(sim.protocol(), n);
    let limit = 100_000u64;
    let (mut cycles, mut steps, mut secs) = (0u64, 0u64, 0.0);
    let mut counted = None;
    while cycles < CORE_CYCLES || secs < slice {
        if let Some(c) = campaign {
            if cycles > 0 && cycles % c.every == 0 {
                corrupt(&mut sim, c.registers, CORE_FAULT_SEED ^ cycles);
            }
        }
        let span = tracer.begin("core.cycle", cycles);
        let start = Instant::now();
        overlay.arm(cycles);
        let mut taken = 0;
        while overlay.broadcast_step().is_none() || overlay.feedback_step().is_none() {
            let mut fanout = Fanout::new(&mut overlay, &mut metrics);
            sim.step_observed(&mut daemon, &mut fanout)
                .map_err(|e| e.to_string())?;
            taken += 1;
            if taken > limit {
                return Err(format!("core rung: no root F-action within {limit} steps"));
            }
        }
        secs += start.elapsed().as_secs_f64();
        tracer.end(span);
        steps += taken;
        cycles += 1;
        if cycles == CORE_CYCLES {
            counted = Some(metrics.report());
        }
    }
    let report = counted.expect("counted cycles");
    let per = |v: u64| v as f64 / CORE_CYCLES as f64;
    out.push("core.us_per_step".into(), secs * 1e6 / steps as f64, "us");
    out.push(
        "core.steps_per_request".into(),
        per(report.total_steps),
        "count",
    );
    out.push(
        "core.moves_per_request".into(),
        per(report.total_moves),
        "count",
    );
    for (tag, name) in [
        (PhaseTag::Broadcast, "broadcast"),
        (PhaseTag::Fok, "fok"),
        (PhaseTag::Feedback, "feedback"),
        (PhaseTag::Cleaning, "cleaning"),
        (PhaseTag::Correction, "correction"),
    ] {
        out.push(
            format!("core.moves_per_request.{name}"),
            per(report.moves_of(tag)),
            "count",
        );
    }
    Ok(())
}

/// `NetSim` ticked directly on torus:6x6 under the lossy plan. A request
/// is one PIF cycle (one root F-action).
pub fn net_rung(slice: f64, tracer: &mut Tracer, out: &mut Metrics) -> Result<(), Error> {
    let graph = Topology::Torus { w: 6, h: 6 }
        .build()
        .map_err(|e| e.to_string())?;
    let root = ProcId(0);
    let protocol = PifProtocol::new(root, &graph);
    let mut net = NetSim::builder(graph.clone(), protocol)
        .states(initial::normal_starting(&graph))
        .fault_plan(lossy_plan())
        .capacity(64)
        .heartbeat_every(16)
        .delivery_bias(0.5)
        .seed(NET_SEED)
        .build()
        .map_err(|e| e.to_string())?;
    let (mut cycles, mut secs) = (0u64, 0.0);
    let mut counted = None;
    let mut events_at_start = 0;
    while cycles < NET_CYCLES || secs < slice {
        let span = tracer.begin("net.cycle", cycles);
        let start = Instant::now();
        loop {
            let outcome = net.tick();
            if matches!(outcome, TickOutcome::Executed { proc, action } if proc == root && action == F_ACTION)
            {
                break;
            }
            if net.events() - events_at_start > 10_000_000 {
                return Err("net rung: no root F-action within 10M events".into());
            }
        }
        events_at_start = net.events();
        secs += start.elapsed().as_secs_f64();
        tracer.end(span);
        cycles += 1;
        if cycles == NET_CYCLES {
            counted = Some(net.stats());
        }
    }
    let stats = net.stats();
    if stats.corrupt_applied != 0 {
        return Err(format!(
            "net rung: {} corrupted frames were applied",
            stats.corrupt_applied
        ));
    }
    let c = counted.expect("counted cycles");
    let per = |v: u64| v as f64 / NET_CYCLES as f64;
    out.push(
        "net.us_per_execution".into(),
        secs * 1e6 / stats.executions as f64,
        "us",
    );
    out.push(
        "net.executions_per_event".into(),
        c.executions as f64 / c.events as f64,
        "ratio",
    );
    out.push("net.frames_sent".into(), per(c.frames_sent), "count");
    out.push("net.dropped".into(), per(c.dropped), "count");
    out.push(
        "net.corrupt_rejected".into(),
        per(c.corrupt_rejected),
        "count",
    );
    out.push("net.stale_rejected".into(), per(c.stale_rejected), "count");
    out.push(
        "net.overflow_dropped".into(),
        per(c.overflow_dropped),
        "count",
    );
    Ok(())
}

/// Fresh suites for the guard-memo cost: on each state space the first
/// check builds the memo and its repeats do not.
const MEMO_SAMPLES: usize = 5;
/// Warm repeats of each first check; the fastest is subtracted.
const MEMO_REPEATS: usize = 2;

/// The verify-n3 suite: warm passes for the search rate, and the cold
/// first check on each state space of fresh suites for the memo cost.
pub fn verify_rung(slice: f64, tracer: &mut Tracer, out: &mut Metrics) -> Result<(), Error> {
    let expect = |v: Verdict| -> Result<Verdict, Error> {
        if v.as_expected {
            Ok(v)
        } else {
            Err(format!(
                "verify rung: verdict on {} is not the expected one",
                v.name
            ))
        }
    };
    let mut memo = Vec::with_capacity(MEMO_SAMPLES);
    for sample in 0..MEMO_SAMPLES {
        let suite = Suite::build()?;
        let mut build = 0.0;
        for first in FIRST_CHECK_PER_SPACE {
            let span = tracer.begin("verify.cold", sample as u64);
            let cold = expect(suite.check(first))?.secs;
            let mut warm = f64::INFINITY;
            for _ in 0..MEMO_REPEATS {
                warm = warm.min(expect(suite.check(first))?.secs);
            }
            tracer.end(span);
            build += cold - warm;
        }
        memo.push(build);
    }
    let suite = Suite::build()?;
    let _ = suite.pass();
    let (mut secs, mut states, mut passes) = (0.0, 0u64, 0u64);
    let mut per_pass = 0;
    while passes == 0 || secs < slice {
        let span = tracer.begin("verify.suite", passes);
        for i in 0..SUITE_LEN {
            let v = expect(suite.check(i))?;
            secs += v.secs;
            states += v.states;
        }
        tracer.end(span);
        if passes == 0 {
            per_pass = states;
        }
        passes += 1;
    }
    out.push("verify.states_per_s".into(), states as f64 / secs, "1/s");
    out.push(
        "verify.states_per_verdict".into(),
        per_pass as f64 / SUITE_LEN as f64,
        "count",
    );
    out.push("verify.memo_build_s".into(), median(&memo), "s");
    Ok(())
}
