//! `lb-faults`: the Figure 6 load balancer (one source, three workers)
//! built from the public DataCutter API, under demand-driven and
//! round-robin scheduling, with slowed workers as in Figures 10 and 11,
//! fault-free and under loss, flap and crash plans with recovery.

use crate::harness::{check_conservation, drive, Counters, Drive, JobShape, Outcome};
use hpsock_datacutter::{
    Action, DataBuffer, FilterCtx, FilterLogic, GroupBuilder, Policy, SpeedModel,
};
use hpsock_net::{fault, with_netmodel, Cluster, FaultPlan, NetModel, NodeId, TransportKind};
use hpsock_sim::{Dur, Sim, SimTime};
use hpsock_vizserver::{
    dd_execution_time_probed, faulted_lb_run, rr_reaction_time_probed, LbSetup, QueryDesc,
    QueryKind,
};
use std::any::Any;
use std::collections::{HashSet, VecDeque};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Megabytes distributed per job.
const MB: u64 = 32;
/// Slowdown factor of the slowed workers (Figures 10 and 11).
const SLOW_FACTOR: f64 = 4.0;
/// Per-block slow probability of Figure 11's workers.
const SLOW_PROB: f64 = 0.5;

/// What the job does besides balancing load.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Scenario {
    /// Demand-driven, homogeneous workers, no faults.
    Clean,
    /// Demand-driven under an injected fault plan (`HPSOCK_FAULTS`
    /// grammar; `{mid}` stands for the middle of the fault-free run).
    Faulted(&'static str),
    /// Round-robin; worker 0 turns slower a third of the way into the
    /// run (Figure 10).
    SlowStep,
    /// Demand-driven; every worker is slow on a random half of its blocks
    /// (Figure 11).
    SlowRandom,
}

/// One job shape.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    kind: TransportKind,
    scenario: Scenario,
    /// Bytes distributed per job.
    bytes: u64,
}

impl Shape {
    fn setup(&self) -> LbSetup {
        LbSetup::paper(self.kind)
    }

    fn blocks(&self) -> u32 {
        (self.bytes / self.setup().block_bytes) as u32
    }

    /// Simulated duration of a fault-free run: the balancer emits one
    /// block per block-processing time.
    fn makespan(&self) -> SimTime {
        let s = self.setup();
        SimTime::from_nanos((s.ns_per_byte * self.bytes as f64) as u64)
    }

    fn slow_at(&self) -> SimTime {
        SimTime::from_nanos(self.makespan().as_nanos() / 3)
    }

    /// The experiments entry point on the same inputs: (digest, outputs as
    /// the job reports them).
    fn reference(&self, seed: u64) -> (u64, Vec<f64>) {
        let setup = self.setup();
        let blocks = self.blocks();
        with_netmodel(NetModel::Packet, || match self.scenario {
            Scenario::Clean | Scenario::Faulted(_) => fault::with_plan(self.plan(), || {
                let o = faulted_lb_run(&setup, blocks, seed);
                (o.digest, vec![o.availability(), o.makespan_us * 1e3, 0.0])
            }),
            Scenario::SlowStep => fault::with_plan(None, || {
                let (reaction, cap) = rr_reaction_time_probed(
                    &setup,
                    SLOW_FACTOR,
                    self.slow_at(),
                    blocks,
                    seed,
                    |_| None,
                );
                (
                    cap.digest,
                    vec![
                        1.0,
                        cap.end.as_nanos() as f64,
                        reaction.map_or(-1.0, |d| d.as_micros_f64()),
                    ],
                )
            }),
            Scenario::SlowRandom => fault::with_plan(None, || {
                let (_, cap) =
                    dd_execution_time_probed(&setup, SLOW_PROB, SLOW_FACTOR, blocks, seed, |_| {
                        None
                    });
                (cap.digest, vec![1.0, cap.end.as_nanos() as f64, 0.0])
            }),
        })
    }

    fn plan(&self) -> Option<Arc<FaultPlan>> {
        match self.scenario {
            Scenario::Faulted(spec) => {
                let crash = format!("{}us", self.makespan().as_nanos() / 2_000);
                let spec = spec.replace("{mid}", &crash);
                Some(Arc::new(
                    FaultPlan::parse(&spec).expect("the shape's fault spec parses"),
                ))
            }
            _ => None,
        }
    }
}

/// The shapes and how many of each one round of the job list holds.
/// TCP jobs cost about a third of SocketVIA ones. The p50 rank sits near
/// the top of the TCP crash block, with SocketVIA's cheapest shape over
/// 2x dearer above it, and the p90 rank in the SocketVIA crash block,
/// below a 64 MB round-robin job about 1.8x dearer (see README.md).
pub fn shapes() -> Vec<(Shape, usize)> {
    let sv = TransportKind::SocketVia;
    let tcp = TransportKind::KTcp;
    let s = |kind, scenario, mb: u64| Shape {
        kind,
        scenario,
        bytes: mb << 20,
    };
    let drop = Scenario::Faulted("drop=0.01,detect=100us,backoff=100us");
    let flap = Scenario::Faulted("flap=2ms:200us,detect=100us,backoff=100us");
    let crash = Scenario::Faulted("crash=1@{mid},detect=200us,backoff=100us");
    vec![
        (s(tcp, Scenario::Clean, MB), 1),
        (s(tcp, drop, MB), 1),
        (s(tcp, flap, MB), 1),
        (s(tcp, Scenario::SlowStep, MB), 1),
        (s(tcp, Scenario::SlowRandom, MB), 1),
        (s(tcp, crash, MB), 8),
        (s(sv, Scenario::Clean, MB), 1),
        (s(sv, Scenario::SlowRandom, MB), 1),
        (s(sv, drop, MB), 1),
        (s(sv, flap, MB), 1),
        (s(sv, crash, MB), 7),
        (s(sv, Scenario::SlowStep, 2 * MB), 1),
    ]
}

/// Streams the query's blocks one per block-processing time.
struct Source {
    queue: VecDeque<u64>,
    block_bytes: u64,
    emit_interval: Dur,
}

impl FilterLogic for Source {
    fn on_uow_start(
        &mut self,
        _fc: &mut FilterCtx<'_>,
        uow: u32,
        desc: Arc<dyn Any + Send + Sync>,
    ) -> Action {
        let q = desc
            .downcast::<QueryDesc>()
            .expect("source expects a QueryDesc");
        self.queue = q.blocks.iter().copied().collect();
        Action::compute(Dur::ZERO).and_continue(uow)
    }
    fn on_continue(&mut self, _fc: &mut FilterCtx<'_>, uow: u32) -> Action {
        match self.queue.pop_front() {
            Some(b) => Action::emit(
                self.emit_interval,
                0,
                DataBuffer::new(uow, self.block_bytes, b),
            )
            .and_continue(uow),
            None => Action::none().and_end_uow(uow),
        }
    }
}

/// Processes each block at `ns_per_byte` and records the distinct tags.
struct Worker {
    ns_per_byte: f64,
    seen: Arc<Mutex<HashSet<u64>>>,
}

impl FilterLogic for Worker {
    fn on_buffer(&mut self, _fc: &mut FilterCtx<'_>, _port: usize, buf: DataBuffer) -> Action {
        self.seen.lock().expect("tag set lock").insert(buf.tag);
        Action::compute(Dur::nanos(
            (self.ns_per_byte * buf.bytes as f64).round() as u64
        ))
    }
}

impl JobShape for Shape {
    fn label(&self) -> String {
        let what = match self.scenario {
            Scenario::Clean => "DD clean".to_string(),
            Scenario::Faulted(spec) => format!("DD {}", spec.split(',').next().unwrap_or(spec)),
            Scenario::SlowStep => "RR slow-step".to_string(),
            Scenario::SlowRandom => "DD slow-random".to_string(),
        };
        format!(
            "{} {}B {what} {}MB",
            self.kind.label(),
            self.setup().block_bytes,
            self.bytes >> 20
        )
    }

    fn run(&self, seed: u64, how: Drive, traced: bool) -> Outcome {
        let setup = self.setup();
        let blocks = self.blocks();
        let plan = self.plan();
        let (policy, speeds) = match self.scenario {
            Scenario::SlowStep => {
                let mut v = vec![SpeedModel::Uniform(1.0); setup.workers];
                v[0] = SpeedModel::StepAt {
                    t: self.slow_at(),
                    before: 1.0,
                    after: SLOW_FACTOR,
                };
                (Policy::RoundRobinAcked, Some(v))
            }
            Scenario::SlowRandom => (
                Policy::demand_driven(),
                Some(vec![
                    SpeedModel::RandomSlow {
                        prob: SLOW_PROB,
                        factor: SLOW_FACTOR,
                    };
                    setup.workers
                ]),
            ),
            _ => (Policy::demand_driven(), None),
        };

        let t0 = Instant::now();
        let mut sim = Sim::new(seed);
        let b0 = Instant::now();
        let cluster = with_netmodel(NetModel::Packet, || {
            fault::with_plan(plan.clone(), || Cluster::build(&mut sim, setup.workers + 1))
        });
        let build_ns = b0.elapsed().as_nanos() as u64;
        let provider = socketvia::Provider::new(setup.kind);
        let mut g = GroupBuilder::new();
        let bb = setup.block_bytes;
        let emit_interval = Dur::nanos((setup.ns_per_byte * bb as f64).round() as u64);
        let lb = g.filter(
            "load-balancer",
            vec![NodeId(0)],
            Box::new(move |_| {
                Box::new(Source {
                    queue: VecDeque::new(),
                    block_bytes: bb,
                    emit_interval,
                })
            }),
        );
        let seen = Arc::new(Mutex::new(HashSet::new()));
        let npb = setup.ns_per_byte;
        let worker_seen = Arc::clone(&seen);
        let workers = g.filter(
            "worker",
            (1..=setup.workers).map(NodeId).collect(),
            Box::new(move |_| {
                Box::new(Worker {
                    ns_per_byte: npb,
                    seen: Arc::clone(&worker_seen),
                })
            }),
        );
        // The Figure 10/11 drivers log acknowledgements and set every
        // worker's speed; the fault experiment does neither.
        if let Some(speeds) = &speeds {
            for (i, &m) in speeds.iter().enumerate() {
                g.set_speed(workers, i, m);
            }
            g.enable_ack_log(lb);
        }
        g.stream(lb, workers, policy, &provider);
        let inst = g.instantiate(&mut sim, &cluster);
        let desc = QueryDesc {
            kind: QueryKind::Complete,
            blocks: (0..u64::from(blocks)).collect(),
            block_bytes: bb,
        };
        inst.start_uow_at(&mut sim, SimTime::ZERO, lb, 0, Arc::new(desc));
        let ran = drive(sim, t0, build_ns, how, traced);

        let sim = &ran.sim;
        let mut c = Counters::default();
        c.add_network(sim, &cluster, setup.kind);
        c.add_filter(&inst.copy(sim, lb, 0).stats);
        for i in 0..setup.workers {
            c.add_filter(&inst.copy(sim, workers, i).stats);
        }
        let processed = seen.lock().expect("tag set lock").len() as u64;
        let mut errors = Vec::new();
        if plan.is_some() {
            c.faulted_blocks = u64::from(blocks);
            c.faulted_processed = processed;
        } else {
            check_conservation(&c, &mut errors);
            if processed != u64::from(blocks) {
                errors.push(format!("processed {processed} of {blocks} blocks"));
            }
        }
        let availability = processed as f64 / f64::from(blocks.max(1));
        let reaction = inst
            .copy(sim, lb, 0)
            .done_log
            .iter()
            .filter(|r| r.consumer == 0 && r.sent_at >= self.slow_at())
            .map(|r| r.acked_at.since(r.sent_at).as_micros_f64())
            .next();
        let outputs = vec![
            availability,
            ran.end.as_nanos() as f64,
            match self.scenario {
                Scenario::SlowStep => reaction.unwrap_or(-1.0),
                _ => 0.0,
            },
        ];
        ran.finish(c, errors, outputs, &|_, _| false, false)
    }

    /// The experiments entry point on the same inputs must give the job's
    /// digest, availability, end time and (Figure 10) reaction time.
    fn fidelity(&self, seed: u64, got: &Outcome) -> Result<(), String> {
        let (digest, want) = self.reference(seed);
        let close = want
            .iter()
            .zip(&got.outputs)
            .all(|(a, b)| (a - b).abs() <= 1e-9 * a.abs().max(b.abs()));
        if digest != got.digest || !close {
            return Err(format!(
                "entry point gave digest {digest:#x} {want:?}, the job {:#x} {:?}",
                got.digest, got.outputs
            ));
        }
        Ok(())
    }
}
