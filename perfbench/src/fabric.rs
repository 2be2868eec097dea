//! `fabric-flow`: open-loop TCP clients over hierarchical racks
//! (`Cluster::build_racks_hier`, oversubscription 4) under the flow-level
//! network model. The clients and sinks are the benchmark's own load
//! generator; every connection crosses from the sender half of the
//! cluster to the receiver half, as in `fig_scale`.

use crate::harness::{check_conservation, drive, mix, Counters, Drive, JobShape, Outcome};
use hpsock_experiments::fig_scale::run_scale_point;
use hpsock_net::{
    fault, with_netmodel, Cluster, ConnId, Delivery, NetModel, Network, NodeCore, NodeId,
    TransportKind,
};
use hpsock_sim::{Ctx, Dur, Message, Process, Sim};
use std::time::Instant;

/// Core oversubscription of the rack fabric.
const OVERSUB: f64 = 4.0;
/// Application message size (16 KB blocks).
const MSG_BYTES: u64 = 16_384;
/// Open-loop send interval per client.
const INTERVAL: Dur = Dur::nanos(1_000_000);
/// The `fig_scale` experiment's fixed seed, used by the fidelity check.
const SCALE_SEED: u64 = 0x5CA1E;

/// One job shape: cluster size and offered load.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    nodes: usize,
    clients_per_node: usize,
    msgs: u32,
}

impl Shape {}

/// The shapes and how many of each one round of the job list holds.
/// Host cost follows the number of concurrent flows more than the node
/// count. The p50 rank sits near the top of the 512-node x1 block and the
/// p90 rank near the top of the 128-node block, each with a shape at
/// least 1.7x dearer right above it (see README.md).
pub fn shapes() -> Vec<(Shape, usize)> {
    let s = |nodes, clients_per_node, msgs| Shape {
        nodes,
        clients_per_node,
        msgs,
    };
    vec![
        (s(64, 2, 8), 2),
        (s(64, 4, 8), 2),
        (s(512, 1, 8), 7),
        (s(128, 4, 8), 8),
        (s(512, 2, 8), 1),
    ]
}

/// Sends a [`MSG_BYTES`] message every [`INTERVAL`], `remaining` times,
/// whether or not earlier ones were delivered.
struct Client {
    net: Network,
    conn: ConnId,
    remaining: u32,
    stagger: Dur,
}

impl Process for Client {
    fn name(&self) -> String {
        format!("bench-client-{}", self.conn.0)
    }
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.send_self_in(self.stagger, Message::new(()));
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
        if msg.downcast_ref::<Delivery>().is_some() || self.remaining == 0 {
            return;
        }
        self.remaining -= 1;
        self.net.send(ctx, self.conn, MSG_BYTES, Message::new(()));
        if self.remaining > 0 {
            ctx.send_self_in(INTERVAL, Message::new(()));
        }
    }
}

/// Consumes every delivery immediately.
struct Sink {
    net: Network,
}

impl Process for Sink {
    fn name(&self) -> String {
        "bench-sink".to_string()
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
        let d = msg.downcast::<Delivery>().expect("sink expects deliveries");
        self.net.consumed(ctx, d.conn, d.msg_id);
    }
}

fn is_own(sim: &Sim, pid: hpsock_sim::ProcessId) -> bool {
    sim.process::<Client>(pid).is_some() || sim.process::<Sink>(pid).is_some()
}

impl JobShape for Shape {
    fn label(&self) -> String {
        format!(
            "{} nodes x{} clients x{} msgs",
            self.nodes, self.clients_per_node, self.msgs
        )
    }

    /// Run one job. With `seed == SCALE_SEED` the clients use `fig_scale`'s
    /// fixed stagger, so the job reproduces `run_scale_point` exactly; any
    /// other seed draws each client's start offset from the seed.
    fn run(&self, seed: u64, how: Drive, traced: bool) -> Outcome {
        let per_rack = self.nodes.min(16);
        let racks = self.nodes / per_rack;
        let senders = self.nodes / 2;
        let stagger = |conn: usize| {
            let step = if seed == SCALE_SEED {
                conn as u64 % 64
            } else {
                mix(seed ^ conn as u64) % 64
            };
            Dur::nanos(INTERVAL.as_nanos() * step / 64)
        };

        let t0 = Instant::now();
        let mut sim = Sim::new(seed);
        let b0 = Instant::now();
        let cluster = with_netmodel(NetModel::Flow, || {
            fault::with_plan(None, || {
                Cluster::build_racks_hier(&mut sim, racks, per_rack, OVERSUB)
            })
        });
        let net = cluster.network();
        let mut ends = Vec::new();
        for node in 0..senders {
            for _ in 0..self.clients_per_node {
                let conn = ConnId(ends.len());
                let tx = sim.add_process(Box::new(Client {
                    net: net.clone(),
                    conn,
                    remaining: self.msgs,
                    stagger: stagger(conn.0),
                }));
                let rx = sim.add_process(Box::new(Sink { net: net.clone() }));
                let id = net.connect(
                    cluster.endpoint(NodeId(node), tx),
                    cluster.endpoint(NodeId(senders + node), rx),
                    TransportKind::KTcp,
                );
                assert_eq!(id, conn, "connection ids are dense");
                ends.push((node, senders + node));
            }
        }
        let build_ns = b0.elapsed().as_nanos() as u64;
        let ran = drive(sim, t0, build_ns, how, traced);

        let sim = &ran.sim;
        let core = |n: usize| {
            sim.process::<NodeCore>(net.core_of(NodeId(n)))
                .expect("node core persists")
        };
        let mut c = Counters::default();
        for (i, &(src, dst)) in ends.iter().enumerate() {
            let tx = core(src).tx_stats(ConnId(i)).expect("send half at source");
            c.add_conn(tx, core(dst).rx_stats(ConnId(i)), false);
        }
        let mut errors = Vec::new();
        check_conservation(&c, &mut errors);
        let want = ends.len() as u64 * u64::from(self.msgs) * MSG_BYTES;
        if c.bytes_sent != want {
            errors.push(format!(
                "clients sent {} bytes, expected {want}",
                c.bytes_sent
            ));
        }
        ran.finish(c, errors, vec![], &is_own, true)
    }

    /// `fig_scale::run_scale_point` must give the same events and end time
    /// as this shape's job at that function's fixed seed and stagger.
    fn fidelity(&self, _seed: u64, _got: &Outcome) -> Result<(), String> {
        let mine = self.run(SCALE_SEED, Drive::Split, false);
        let p = fault::with_plan(None, || {
            run_scale_point(NetModel::Flow, self.nodes, self.clients_per_node, self.msgs)
        });
        let mine_ms = mine.end.as_nanos() as f64 / 1e6;
        if (p.events, p.end_ms) != (mine.events, mine_ms) {
            return Err(format!(
                "run_scale_point gave {} events ending at {} ms, the job {} events ending at {mine_ms} ms",
                p.events, p.end_ms, mine.events
            ));
        }
        Ok(())
    }
}
