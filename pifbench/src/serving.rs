//! The serving workloads: closed loops over `WaveService`.
//!
//! Each initiator is one client with one request outstanding. A round
//! submits one request per client and calls `WaveService::run`, which
//! returns once all of them are served. A request's payload is its id;
//! its aggregate cycles through Ack/Sum/Max/Min (client `c` in round `r`
//! asks for kind `(r + c) mod 4`). Everything else stays at the
//! `ServeConfig` defaults.

use std::collections::HashMap;
use std::time::Instant;

use pif_graph::{Graph, ProcId, Topology};
use pif_net::FaultPlan;
use pif_serve::{
    spread_initiators, AggregateKind, FaultSpec, NetLaneConfig, Request, ServeConfig, WaveService,
};

use crate::oracle::{self, Finding, Submitted};
use crate::trace::Tracer;
use crate::{mix, Error};

/// Per-link rates of the lossy plan: drop 0.2, duplicate 0.1, reorder
/// 0.3, corrupt 0.05.
pub fn lossy_plan() -> FaultPlan {
    FaultPlan::fault_free()
        .drop_rate(0.2)
        .duplicate_rate(0.1)
        .reorder_rate(0.3)
        .corrupt_rate(0.05)
}

/// The loss-free part of the lossy plan (duplicate 0.1, reorder 0.3).
/// The closed loop of `torus-lossy` runs on it: frame loss (a drop, or a
/// corrupted frame rejected by its checksum) makes a few requests per
/// thousand return an over-counted fold on seed-dependent rounds (see
/// [`probe_known_fault`]), which a run could neither predict nor count
/// the same way twice.
pub fn loss_free_plan() -> FaultPlan {
    FaultPlan::fault_free()
        .duplicate_rate(0.1)
        .reorder_rate(0.3)
}

/// A corruption campaign between rounds: after every `every`-th round,
/// `registers` registers of every lane are redrawn.
#[derive(Clone, Copy, Debug)]
pub struct Campaign {
    pub every: u64,
    pub registers: usize,
}

/// One serving workload.
#[derive(Clone, Copy, Debug)]
pub struct ServingSpec {
    pub topology: &'static str,
    pub clients: usize,
    /// Lanes over `pif-net` with [`loss_free_plan`] instead of the
    /// shared-memory engine.
    pub net: bool,
    pub campaign: Option<Campaign>,
    /// Rounds per block. A run attempts whole blocks, so every run
    /// attempts the same mix of operations.
    pub block_rounds: u64,
    /// Whether each block ends with [`probe_known_fault`].
    pub probe: bool,
}

/// chain:256 with 4 clients, fault-free: each request takes 512–1020
/// steps, most of them Count refreshes, so engine stepping does almost
/// all the work. Not gated (see `README.md`); also the ladder's service
/// for `verify-n3`.
pub const CHAIN_DEEP: ServingSpec = ServingSpec {
    topology: "chain:256",
    clients: 4,
    net: false,
    campaign: None,
    block_rounds: 1,
    probe: false,
};

pub const TORUS_FAULTS: ServingSpec = ServingSpec {
    topology: "torus:8x8",
    clients: 16,
    net: false,
    campaign: Some(Campaign {
        every: 4,
        registers: 8,
    }),
    block_rounds: 4,
    probe: false,
};

pub const TORUS_LOSSY: ServingSpec = ServingSpec {
    topology: "torus:6x6",
    clients: 4,
    net: true,
    campaign: None,
    block_rounds: 16,
    probe: true,
};

/// A built service plus everything the oracle needs about it.
pub struct Served {
    pub spec: ServingSpec,
    pub service: WaveService<u64>,
    pub graph: Graph,
    initiators: Vec<ProcId>,
    seed: u64,
    pub submitted: HashMap<u64, Submitted>,
    /// First request id of the measured rounds (earlier ids are warm-up).
    pub measured_from: u64,
    rounds: u64,
}

impl Served {
    /// Builds the service and serves one warm-up round.
    pub fn build(spec: ServingSpec, seed: u64) -> Result<Self, Error> {
        let topology = Topology::parse(spec.topology).map_err(|e| e.to_string())?;
        let graph = topology.build().map_err(|e| e.to_string())?;
        let initiators = spread_initiators(graph.len(), spec.clients);
        let mut config = ServeConfig::new(topology)
            .initiators(initiators.clone())
            .seed(seed);
        if spec.net {
            config = config.net_transport(NetLaneConfig {
                plan: loss_free_plan(),
                ..NetLaneConfig::default()
            });
        }
        let service = WaveService::new(config).map_err(|e| e.to_string())?;
        let mut served = Served {
            spec,
            service,
            graph,
            initiators,
            seed,
            submitted: HashMap::new(),
            measured_from: 0,
            rounds: 0,
        };
        served.round(&mut Tracer::new(false))?;
        served.measured_from = served.service.submitted();
        Ok(served)
    }

    /// Serves one round and returns its latency in seconds: from the
    /// first submit to `run` returning.
    pub fn round(&mut self, tracer: &mut Tracer) -> Result<f64, Error> {
        let round = self.rounds;
        if let Some(c) = self.spec.campaign {
            if (round + 1).is_multiple_of(c.every) {
                // Fires once this round's last request completes, i.e.
                // between this round and the next.
                self.service.schedule_fault(FaultSpec {
                    after_completions: (round + 1) * self.initiators.len() as u64,
                    registers_per_lane: c.registers,
                    seed: mix(self.seed ^ mix(round)),
                });
            }
        }
        let span = tracer.begin("round", round);
        let start = Instant::now();
        for (c, &initiator) in self.initiators.iter().enumerate() {
            let id = self.service.submitted();
            let aggregate = AggregateKind::ALL[(round as usize + c) % AggregateKind::ALL.len()];
            let s = tracer.begin("submit", round);
            let got = self.service.submit(Request::new(initiator, id, aggregate));
            tracer.end(s);
            if got.map_err(|e| e.to_string())?.0 != id {
                return Err(format!("request {id} got another id"));
            }
            self.submitted.insert(
                id,
                Submitted {
                    initiator,
                    aggregate,
                },
            );
        }
        let s = tracer.begin("run", round);
        let ran = self.service.run();
        tracer.end(s);
        ran.map_err(|e| e.to_string())?;
        let latency = start.elapsed().as_secs_f64();
        tracer.end(span);
        self.rounds += 1;
        Ok(latency)
    }

    /// Serves one block: its rounds, then the probe if the workload has one.
    pub fn block(&mut self, tracer: &mut Tracer, out: &mut LoopRun) -> Result<(), Error> {
        for _ in 0..self.spec.block_rounds {
            out.round_secs.push(self.round(tracer)?);
        }
        if self.spec.probe {
            out.probes.push(probe_known_fault(tracer, self.rounds)?);
        }
        Ok(())
    }
}

/// Builds the service `times` times (each with its warm-up round) and
/// returns the last one with every build's duration in seconds.
pub fn setup(spec: ServingSpec, seed: u64, times: usize) -> Result<(Served, Vec<f64>), Error> {
    let mut secs = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times.max(1) {
        let start = Instant::now();
        let served = Served::build(spec, seed)?;
        secs.push(start.elapsed().as_secs_f64());
        last = Some(served);
    }
    Ok((last.expect("at least one setup"), secs))
}

/// Service seed under which the very first request on torus:6x6 over the
/// lossy plan (one initiator, processor 0, an Ack) returns a fold of 37
/// where the true count is 36, while the ledger marks it [PIF1] ∧ [PIF2].
pub const PROBE_SEED: u64 = 30;

/// Replays the over-counted feedback of the lossy transport on inputs
/// that do not depend on the workload seed, so it fails the same way in
/// every run while the fault stands.
pub fn probe_known_fault(tracer: &mut Tracer, round: u64) -> Result<Finding, Error> {
    let span = tracer.begin("probe", round);
    let topology = Topology::Torus { w: 6, h: 6 };
    let graph = topology.build().map_err(|e| e.to_string())?;
    let config = ServeConfig::new(topology)
        .initiators(vec![ProcId(0)])
        .seed(PROBE_SEED)
        .net_transport(NetLaneConfig {
            plan: lossy_plan(),
            ..NetLaneConfig::default()
        });
    let mut service: WaveService<u64> = WaveService::new(config).map_err(|e| e.to_string())?;
    service
        .submit(Request::new(ProcId(0), 0, AggregateKind::Ack))
        .map_err(|e| e.to_string())?;
    service.run().map_err(|e| e.to_string())?;
    let submitted = HashMap::from([(
        0,
        Submitted {
            initiator: ProcId(0),
            aggregate: AggregateKind::Ack,
        },
    )]);
    let finding = oracle::judge(&graph, &submitted, service.ledger().records())
        .remove(&0)
        .expect("judged");
    tracer.end(span);
    Ok(finding)
}

/// What one closed loop measured.
#[derive(Default)]
pub struct LoopRun {
    /// Latency of every measured round, seconds.
    pub round_secs: Vec<f64>,
    /// Findings of the known-fault probes, one per block.
    pub probes: Vec<Finding>,
    /// Peak resident set (MiB) once `min_rounds` rounds were served: a
    /// fixed amount of work, while the ledger keeps growing with every
    /// request a faster run serves.
    pub rss_mib: Option<f64>,
}

/// Serves whole blocks until at least `min_rounds` rounds are served and
/// `seconds` have passed.
pub fn run_loop(
    served: &mut Served,
    seconds: f64,
    min_rounds: usize,
    tracer: &mut Tracer,
) -> Result<LoopRun, Error> {
    let mut out = LoopRun::default();
    let start = Instant::now();
    loop {
        served.block(tracer, &mut out)?;
        if out.rss_mib.is_none() && out.round_secs.len() >= min_rounds {
            out.rss_mib = Some(crate::peak_rss_mib()?);
        }
        if out.round_secs.len() >= min_rounds && start.elapsed().as_secs_f64() >= seconds {
            return Ok(out);
        }
    }
}
