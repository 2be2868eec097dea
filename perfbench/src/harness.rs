//! The per-job timing harness shared by every workload.
//!
//! A job is one independent simulation. Its host time is split into the
//! phases the report names: set-up (`Sim::new` through the first
//! `run_until(SimTime::ZERO)`, which runs every `on_start`), the run
//! proper (`sim.run()`), and teardown (dropping the `Sim`). Reading the
//! job's outputs between run and teardown is not timed.

use crate::layers::{Layer, PidTimes};
use hpsock_datacutter::FilterStats;
use hpsock_net::{Cluster, ConnId, NodeCore, NodeId, TransportKind};
use hpsock_sim::{ProcessId, Sim, SimTime};
use std::time::Instant;

/// Host-time phases of one job, in nanoseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Phases {
    /// `Sim::new` through the end of the first `run_until(SimTime::ZERO)`.
    pub setup_ns: u64,
    /// Topology build plus explicit `connect` calls (part of set-up).
    pub build_ns: u64,
    /// The first `run_until(SimTime::ZERO)` alone (part of set-up).
    pub start_ns: u64,
    /// `sim.run()` after the start.
    pub run_ns: u64,
    /// Dropping the simulation.
    pub drop_ns: u64,
}

impl Phases {
    /// Host time the job cost: construction, run and teardown.
    pub fn job_ns(&self) -> u64 {
        self.setup_ns + self.run_ns + self.drop_ns
    }
}

/// Simulated-system counters a job contributes to the per-layer report.
/// Every field is a sum over jobs, so workloads add into one value.
#[derive(Debug, Default)]
pub struct Counters {
    pub frames_tx: u64,
    pub rx_interrupts: u64,
    /// Credit stalls of VIA and SocketVIA senders, simulated ns.
    pub credit_stall_ns: u64,
    pub bytes_sent: u64,
    pub bytes_delivered: u64,
    pub dc_buffers: u64,
    pub queue_wait_us_sum: f64,
    pub queue_wait_n: u64,
    pub retries: u64,
    pub failovers: u64,
    pub stream_errors: u64,
    pub stale: u64,
    /// Blocks and distinct blocks processed, over faulted jobs only.
    pub faulted_blocks: u64,
    pub faulted_processed: u64,
    pub viz_outstanding: u64,
    pub viz_partial_us_sum: f64,
    pub viz_partial_n: u64,
    pub viz_jobs: u64,
    pub viz_sustained: u64,
}

impl Counters {
    pub fn add(&mut self, o: &Counters) {
        self.frames_tx += o.frames_tx;
        self.rx_interrupts += o.rx_interrupts;
        self.credit_stall_ns += o.credit_stall_ns;
        self.bytes_sent += o.bytes_sent;
        self.bytes_delivered += o.bytes_delivered;
        self.dc_buffers += o.dc_buffers;
        self.queue_wait_us_sum += o.queue_wait_us_sum;
        self.queue_wait_n += o.queue_wait_n;
        self.retries += o.retries;
        self.failovers += o.failovers;
        self.stream_errors += o.stream_errors;
        self.stale += o.stale;
        self.faulted_blocks += o.faulted_blocks;
        self.faulted_processed += o.faulted_processed;
        self.viz_outstanding += o.viz_outstanding;
        self.viz_partial_us_sum += o.viz_partial_us_sum;
        self.viz_partial_n += o.viz_partial_n;
        self.viz_jobs += o.viz_jobs;
        self.viz_sustained += o.viz_sustained;
    }

    /// Fold one filter copy's statistics in.
    pub fn add_filter(&mut self, s: &FilterStats) {
        self.dc_buffers += s.buffers_out;
        self.queue_wait_us_sum += s.queue_wait_us.mean() * s.queue_wait_us.count() as f64;
        self.queue_wait_n += s.queue_wait_us.count();
        self.retries += s.retries;
        self.failovers += s.consumers_failed;
        self.stream_errors += s.stream_errors;
        self.stale += s.stale_deliveries;
    }

    /// Fold in the engine statistics of every connection of `cluster`.
    /// Connection ids are dense from 0, and every connection has its send
    /// half on exactly one node core, so the scan ends at the first id no
    /// core sends on.
    pub fn add_network(&mut self, sim: &Sim, cluster: &Cluster, kind: TransportKind) {
        let net = cluster.network();
        let cores: Vec<&NodeCore> = (0..cluster.len())
            .map(|n| {
                sim.process::<NodeCore>(net.core_of(NodeId(n)))
                    .expect("node core persists")
            })
            .collect();
        let credits = matches!(kind, TransportKind::Via | TransportKind::SocketVia);
        for c in 0.. {
            let conn = ConnId(c);
            let Some(tx) = cores.iter().find_map(|core| core.tx_stats(conn)) else {
                break;
            };
            self.add_conn(
                tx,
                cores.iter().find_map(|core| core.rx_stats(conn)),
                credits,
            );
        }
    }

    /// Fold in one connection whose endpoints are known.
    pub fn add_conn(
        &mut self,
        tx: &hpsock_net::ConnStats,
        rx: Option<&hpsock_net::ConnStats>,
        credits: bool,
    ) {
        self.frames_tx += tx.frames_tx;
        self.bytes_sent += tx.bytes_sent;
        if credits {
            self.credit_stall_ns += tx.credit_stall.as_nanos();
        }
        if let Some(rx) = rx {
            self.rx_interrupts += rx.rx_interrupts;
            self.bytes_delivered += rx.bytes_delivered;
        }
    }
}

/// One job shape of a workload: everything the main loop needs.
pub trait JobShape {
    fn label(&self) -> String;

    /// Run one job of this shape with the given seed.
    fn run(&self, seed: u64, how: Drive, traced: bool) -> Outcome;

    /// Check the job `got`, run with `seed`, against the experiments
    /// entry point on the same inputs.
    fn fidelity(&self, seed: u64, got: &Outcome) -> Result<(), String>;
}

/// What one job produced.
#[derive(Debug)]
pub struct Outcome {
    pub digest: u64,
    pub events: u64,
    pub end: SimTime,
    pub phases: Phases,
    pub counters: Counters,
    /// Host ns and dispatches per layer; traced jobs only.
    pub layers: Vec<(Layer, u64, u64)>,
    /// Failed output checks; an empty list is a correct job.
    pub errors: Vec<String>,
    /// The job's model outputs (latencies, rates, availability, end
    /// time), compared by the fidelity and determinism checks alongside
    /// the trace digest.
    pub outputs: Vec<f64>,
}

impl Outcome {
    /// Scale every host time of the job by `f` (see `host::factors`).
    pub fn scale(&mut self, f: f64) {
        let s = |ns: &mut u64| *ns = (*ns as f64 * f).round() as u64;
        let p = &mut self.phases;
        for ns in [
            &mut p.setup_ns,
            &mut p.build_ns,
            &mut p.start_ns,
            &mut p.run_ns,
            &mut p.drop_ns,
        ] {
            s(ns);
        }
        for (_, ns, _) in &mut self.layers {
            s(ns);
        }
    }
}

/// A job that has been constructed and run but not yet torn down.
pub struct Ran {
    pub sim: Sim,
    pub phases: Phases,
    pub end: SimTime,
    pub pid_times: Option<PidTimes>,
}

/// How a job drives its simulation to the end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Drive {
    /// `run_until(SimTime::ZERO)` then `run()`: the timed path, which
    /// separates start-up from the run.
    Split,
    /// A single `run()`: the reference the split path must match.
    Single,
}

/// Run a constructed simulation. `t0` is the instant the job began
/// (before `Sim::new`), `build_ns` the topology-build time measured by
/// the caller.
pub fn drive(mut sim: Sim, t0: Instant, build_ns: u64, how: Drive, traced: bool) -> Ran {
    let slot = traced.then(|| {
        let (sink, slot) = crate::layers::probe();
        sim.attach_probe(sink);
        slot
    });
    let s0 = Instant::now();
    if how == Drive::Split {
        sim.run_until(SimTime::ZERO);
    }
    let s1 = Instant::now();
    let end = sim.run();
    let r1 = Instant::now();
    let pid_times = slot.map(|slot| {
        drop(sim.detach_probe());
        slot.take(s0, r1)
    });
    Ran {
        sim,
        phases: Phases {
            setup_ns: (s1 - t0).as_nanos() as u64,
            build_ns,
            start_ns: (s1 - s0).as_nanos() as u64,
            run_ns: (r1 - s1).as_nanos() as u64,
            drop_ns: 0,
        },
        end,
        pid_times,
    }
}

impl Ran {
    /// Tear the simulation down (timed) and assemble the outcome; `own`
    /// tells which pids are the benchmark's load generators.
    pub fn finish(
        self,
        counters: Counters,
        errors: Vec<String>,
        outputs: Vec<f64>,
        own: &dyn Fn(&Sim, ProcessId) -> bool,
        flow: bool,
    ) -> Outcome {
        let Ran {
            sim,
            mut phases,
            end,
            pid_times,
        } = self;
        let layers = pid_times
            .map(|t| crate::layers::attribute(&sim, &t, own, flow))
            .unwrap_or_default();
        let digest = sim.trace_digest();
        let events = sim.events_dispatched();
        let d0 = Instant::now();
        drop(sim);
        phases.drop_ns = d0.elapsed().as_nanos() as u64;
        Outcome {
            digest,
            events,
            end,
            phases,
            counters,
            layers,
            errors,
            outputs,
        }
    }
}

/// Check that every byte sent was delivered (fault-free jobs).
pub fn check_conservation(c: &Counters, errors: &mut Vec<String>) {
    if c.bytes_sent == 0 || c.bytes_sent != c.bytes_delivered {
        errors.push(format!(
            "conservation: {} bytes sent, {} delivered",
            c.bytes_sent, c.bytes_delivered
        ));
    }
}

/// splitmix64: the benchmark's only source of generated inputs.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
