//! Flow-level fluid network model: the `HPSOCK_NETMODEL=flow` fast path.
//!
//! Instead of walking every wire segment through the per-node stage
//! pipeline, each in-flight application message becomes one *flow* over a
//! path of capacitated links, and the only events are flow arrivals and
//! departures. Active flows share link capacity max-min fairly; on every
//! arrival or departure the allocator recomputes bottleneck fair shares
//! for the affected connected component only and reschedules the changed
//! flows' completion events — O(flows) work per state change regardless
//! of message size.
//!
//! ## Calibration
//!
//! The link graph reuses the packet engine's calibrated stage costs
//! ([`PathCosts`]): every node contributes three unit-capacity stage links
//! (host send engine, NIC/wire, host receive engine), and a flow of `s`
//! payload bytes places weight `stage_occupancy(s) / s` ns-per-byte on
//! each ([`PathCosts::stage_occupancies`]). A lone flow therefore drains
//! at `s / max(stage occupancies)` — exactly the packet model's
//! steady-state bandwidth for that message size — and concurrent flows
//! through one host contend for its engines just as FCFS frames did, in
//! fluid approximation. Under a hierarchical topology
//! ([`Topology::Racks`]), inter-rack flows additionally cross their
//! racks' oversubscribed uplink/downlink, whose capacity caps aggregate
//! cross-rack bandwidth.
//!
//! Unloaded latency is preserved exactly: a message is handed to the
//! fluid core after the switch+propagation hop, drains for its bottleneck
//! occupancy, and is delivered after a residual delay chosen so the
//! end-to-end time equals [`PathCosts::oneway_latency`]. What the fluid
//! model gives up is per-frame flow control (credits/windows) and FCFS
//! queueing order — see `DESIGN.md` §13 for the documented tolerance and
//! when *not* to use it.
//!
//! ## Determinism and sharding
//!
//! All flow state lives in a single [`FluidCore`] process pinned to
//! shard 0, so state changes happen in canonical event order and digests
//! are shard-invariant. Every edge touching the core has positive delay
//! (`switch+prop` inbound, the minimum delivery residual outbound, the
//! fault-detection latency for failure notifications), preserving the
//! engine's no-zero-delay-across-nodes property that conservative
//! sharding needs.

use crate::cluster::Topology;
use crate::engine::{ConnId, Registry, Route, StreamErrorKind};
use crate::fault::{ConnFaults, MsgFate};
use crate::params::PathCosts;
use hpsock_sim::{Ctx, Dur, Message, Process, ProcessId, SimTime};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, OnceLock};

/// cLAN wire drain rate in payload bytes per nanosecond (the 795 Mbps
/// VIA peak from [`crate::params`]: 1 byte per 10.06 ns). Rack uplink
/// capacity is expressed in multiples of this per-node rate.
pub const NODE_WIRE_BYTES_PER_NS: f64 = 1.0 / 10.06;

/// Weighted max-min fair-share allocation by progressive filling.
///
/// `caps[l]` is the capacity of link `l`; `flows[f]` lists `(link,
/// weight)` pairs — flow `f` at rate `r` consumes `r * weight` of each
/// link on its path (weights are ns-per-byte stage demands, so stage
/// links have capacity 1.0). Returns the max-min fair rate per flow: the
/// classic water-filling loop, freezing the flows that cross each
/// successive bottleneck link at its fair share.
///
/// Every weight must be positive and every flow must cross at least one
/// link; the result then saturates at least one link on every flow's
/// path (Pareto optimality) and never exceeds any capacity.
///
/// This is a checked front end to [`Filling`], the one progressive-filling
/// routine the fluid core also runs.
pub fn max_min_rates(caps: &[f64], flows: &[Vec<(usize, f64)>]) -> Vec<f64> {
    for (f, path) in flows.iter().enumerate() {
        assert!(!path.is_empty(), "flow {f} crosses no links");
        for &(l, w) in path {
            assert!(l < caps.len(), "flow {f} crosses unknown link {l}");
            assert!(w > 0.0, "flow {f} has non-positive weight {w} on link {l}");
        }
    }
    let mut fill = Filling::default();
    fill.caps.extend_from_slice(caps);
    for path in flows {
        fill.push_flow(path.iter().copied());
    }
    fill.solve().to_vec()
}

/// A max-min allocation problem laid out flat, with the working buffers
/// of progressive filling kept across calls so a reused `Filling`
/// allocates nothing once it has grown to the largest problem seen.
///
/// Flow `f` crosses `hops[ends[f - 1]..ends[f]]` (from 0 for the first
/// flow), each hop a `(link, weight)` pair indexing `caps`.
#[derive(Default)]
pub(crate) struct Filling {
    caps: Vec<f64>,
    ends: Vec<usize>,
    hops: Vec<(usize, f64)>,
    rate: Vec<f64>,
    frozen: Vec<bool>,
    cap_left: Vec<f64>,
    wsum: Vec<f64>,
    fair: Vec<f64>,
}

impl Filling {
    /// Forget the previous problem, keeping every buffer's capacity.
    fn clear(&mut self) {
        self.caps.clear();
        self.ends.clear();
        self.hops.clear();
    }

    /// Append a flow crossing `path`.
    fn push_flow(&mut self, path: impl IntoIterator<Item = (usize, f64)>) {
        self.hops.extend(path);
        self.ends.push(self.hops.len());
    }

    /// Progressive filling over the current problem; returns the rate of
    /// each flow in push order. Weights are summed per link in flow order
    /// and capacity is drawn down in flow order, so the rates are a pure
    /// function of the problem as laid out.
    pub(crate) fn solve(&mut self) -> &[f64] {
        let Filling {
            caps,
            ends,
            hops,
            rate,
            frozen,
            cap_left,
            wsum,
            fair,
        } = self;
        let n = ends.len();
        rate.clear();
        rate.resize(n, 0.0);
        frozen.clear();
        frozen.resize(n, false);
        cap_left.clear();
        cap_left.extend_from_slice(caps);
        loop {
            // Fair share each link could still grant its unfrozen flows.
            wsum.clear();
            wsum.resize(caps.len(), 0.0);
            let mut start = 0;
            for (f, &end) in ends.iter().enumerate() {
                if !frozen[f] {
                    for &(l, w) in &hops[start..end] {
                        wsum[l] += w;
                    }
                }
                start = end;
            }
            fair.clear();
            fair.extend(cap_left.iter().zip(wsum.iter()).map(|(&left, &ws)| {
                if ws > 0.0 {
                    left.max(0.0) / ws
                } else {
                    f64::INFINITY
                }
            }));
            let bottleneck = fair.iter().copied().fold(f64::INFINITY, f64::min);
            if !bottleneck.is_finite() {
                break; // no unfrozen flows left
            }
            // Freeze every flow crossing a bottleneck link at the fair share.
            let mut froze_any = false;
            let mut start = 0;
            for (f, &end) in ends.iter().enumerate() {
                let path = &hops[start..end];
                start = end;
                if frozen[f] {
                    continue;
                }
                if path
                    .iter()
                    .any(|&(l, _)| fair[l] <= bottleneck * (1.0 + 1e-12))
                {
                    rate[f] = bottleneck;
                    frozen[f] = true;
                    froze_any = true;
                    for &(l, w) in path {
                        cap_left[l] -= bottleneck * w;
                    }
                }
            }
            if !froze_any {
                break; // numerical stalemate: everyone left is unconstrained
            }
        }
        rate
    }
}

/// The reusable working state of one reallocation: generation-stamped
/// marks for the component search (a link or connection belongs to the
/// current search when its mark equals `stamp`, so starting a new search
/// is one increment, not a clear), the dense global → local link map,
/// and the component's allocation problem.
#[derive(Default)]
pub(crate) struct Scratch {
    stamp: u32,
    link_mark: Vec<u32>,
    conn_mark: Vec<u32>,
    /// Local index of each marked link in the current problem.
    link_local: Vec<usize>,
    pending: Vec<usize>,
    links: Vec<usize>,
    /// The component's connections in ascending order: flow `k` of
    /// `fill` belongs to `comp[k]`.
    pub(crate) comp: Vec<usize>,
    pub(crate) fill: Filling,
}

impl Scratch {
    /// Scratch for a graph of `links` links and `conns` connections.
    pub(crate) fn new(links: usize, conns: usize) -> Scratch {
        Scratch {
            link_mark: vec![0; links],
            conn_mark: vec![0; conns],
            link_local: vec![0; links],
            ..Scratch::default()
        }
    }

    /// Find the connected component of the flow–link sharing graph that
    /// touches the `seed` links and lay out its allocation problem in
    /// `fill`: connections in ascending order (`comp`), links renumbered
    /// in ascending global order, each path in its stored hop order.
    /// `users[l]` lists the active connections crossing link `l`, and
    /// `path(c)` is active connection `c`'s `(global link, weight)` path.
    pub(crate) fn gather<'p>(
        &mut self,
        seed: impl IntoIterator<Item = usize>,
        caps: &[f64],
        users: &[Vec<usize>],
        path: impl Fn(usize) -> &'p [(usize, f64)],
    ) {
        if self.stamp == u32::MAX {
            self.link_mark.fill(0);
            self.conn_mark.fill(0);
            self.stamp = 0;
        }
        self.stamp += 1;
        let stamp = self.stamp;
        self.pending.clear();
        self.links.clear();
        self.comp.clear();
        for l in seed {
            if self.link_mark[l] != stamp {
                self.link_mark[l] = stamp;
                self.links.push(l);
                self.pending.push(l);
            }
        }
        while let Some(l) = self.pending.pop() {
            for &c in &users[l] {
                if self.conn_mark[c] == stamp {
                    continue;
                }
                self.conn_mark[c] = stamp;
                self.comp.push(c);
                for &(l2, _) in path(c) {
                    if self.link_mark[l2] != stamp {
                        self.link_mark[l2] = stamp;
                        self.links.push(l2);
                        self.pending.push(l2);
                    }
                }
            }
        }
        // Sorted component and links: float accumulation order must be a
        // pure function of the component, not of the search order.
        self.comp.sort_unstable();
        self.links.sort_unstable();
        self.fill.clear();
        for (i, &l) in self.links.iter().enumerate() {
            self.link_local[l] = i;
            self.fill.caps.push(caps[l]);
        }
        let local = &self.link_local;
        for &c in &self.comp {
            self.fill
                .push_flow(path(c).iter().map(|&(l, w)| (local[l], w)));
        }
    }
}

/// Events of the fluid engine. `Arrive`/`Complete` are handled by the
/// [`FluidCore`]; `Deliver`/`Failed` by the destination/source node cores.
pub(crate) enum FluidEv {
    /// A submitted message reached the fluid core (after switch+prop).
    Arrive {
        conn: ConnId,
        msg: u64,
        bytes: u64,
        sent_at: SimTime,
        payload: Message,
    },
    /// Epoch-tagged flow-completion self-event. The kernel has no event
    /// cancellation, so a reallocation bumps the flow's epoch and lets
    /// the superseded completion fall through as a stale no-op.
    Complete { conn: ConnId, epoch: u64 },
    /// A completed flow's payload arriving at the receive-side node core.
    Deliver {
        conn: ConnId,
        msg: u64,
        bytes: u64,
        sent_at: SimTime,
        payload: Message,
    },
    /// A fault verdict surfacing at the send-side node core after the
    /// loss-detection latency; forwarded to the sender as a StreamError.
    Failed {
        conn: ConnId,
        msg: u64,
        bytes: u64,
        kind: StreamErrorKind,
    },
}

/// The switch+propagation hop a message pays before reaching the fluid
/// core — the positive cross-shard lookahead of every `tx core → fluid`
/// edge.
pub(crate) fn tx_hop(costs: &PathCosts) -> Dur {
    costs.switch_latency + costs.prop_delay
}

/// Lower bound of the fluid `core → rx core` delivery residual for a
/// connection, used both as the shard-plan lookahead and as a runtime
/// clamp (the size-dependent residual is not provably monotone). Always
/// at least 1 ns so the sharded kernel keeps a positive edge.
pub(crate) fn min_delivery(costs: &PathCosts) -> Dur {
    Dur::nanos(delivery_residual_ns(costs, 1).max(1))
}

/// `oneway_latency(s) − bottleneck_occupancy(s) − tx_hop`: what remains
/// of the unloaded one-way latency after the fluid transfer term, so an
/// isolated message completes at exactly the packet model's closed form.
fn delivery_residual_ns(costs: &PathCosts, bytes: u64) -> u64 {
    costs
        .oneway_latency(bytes)
        .as_nanos()
        .saturating_sub(costs.bottleneck_occupancy(bytes).as_nanos())
        .saturating_sub(tx_hop(costs).as_nanos())
}

/// A message queued behind the connection's active flow (per-connection
/// FIFO, mirroring the packet engine's in-order delivery guarantee).
struct QueuedMsg {
    msg: u64,
    bytes: u64,
    sent_at: SimTime,
    payload: Message,
    /// Extra delivery latency from triggered delay filters.
    extra: Dur,
}

/// The currently draining flow of one connection.
struct ActiveFlow {
    msg: u64,
    bytes: u64,
    sent_at: SimTime,
    payload: Option<Message>,
    extra: Dur,
    /// Payload bytes left to drain as of `updated` (lazily advanced:
    /// between rate changes the residual is a pure function of time).
    remaining: f64,
    /// Current fair-share rate in bytes/ns (0 until first allocation).
    rate: f64,
    /// Virtual time `remaining` was last brought current.
    updated: SimTime,
    /// Tag of the completion event currently in flight for this flow.
    epoch: u64,
    /// `(global link id, weight)` pairs — the allocator's view.
    path: FlowPath,
}

/// A flow's path without a heap allocation: three stage links, plus the
/// rack uplink and downlink for an inter-rack flow.
struct FlowPath {
    hops: [(usize, f64); 5],
    len: usize,
}

impl FlowPath {
    fn hops(&self) -> &[(usize, f64)] {
        &self.hops[..self.len]
    }
}

/// Per-connection fluid state.
struct FluidConn {
    costs: Arc<PathCosts>,
    /// Node core owning the send half (target of `Failed`).
    tx_core: ProcessId,
    /// Node core owning the receive half (target of `Deliver`).
    rx_core: ProcessId,
    /// `[host_tx, nic, host_rx]` global link ids.
    stage_links: [usize; 3],
    /// `(uplink, downlink)` of the source/destination racks for
    /// inter-rack connections under a hierarchical topology.
    fabric: Option<(usize, usize)>,
    min_drx: Dur,
    faults: Option<ConnFaults>,
    cut_at: Option<SimTime>,
    detect: Dur,
    queue: VecDeque<QueuedMsg>,
    active: Option<ActiveFlow>,
    /// Monotone per-connection epoch counter; never reset, so stale
    /// completions of earlier flows can never collide with a later flow.
    epochs: u64,
}

/// The single process owning all flow state (see module docs). Spawned by
/// the net switch when the cluster was built under [`super::NetModel::Flow`];
/// shard plans pin it to shard 0.
pub(crate) struct FluidCore {
    registry: Arc<Mutex<Registry>>,
    route: Arc<OnceLock<Route>>,
    conns: Vec<FluidConn>,
    /// Link capacities: stage links at 1.0 (weights are ns/byte), fabric
    /// links in bytes/ns.
    caps: Vec<f64>,
    /// Active connections per link, kept sorted, indexed by global link
    /// id — the sharing graph the component search walks, maintained
    /// incrementally so a state change never scans flows that share
    /// nothing with it.
    link_users: Vec<Vec<usize>>,
    /// Reallocation working state, reused across events.
    scratch: Scratch,
}

impl FluidCore {
    pub(crate) fn new(registry: Arc<Mutex<Registry>>, route: Arc<OnceLock<Route>>) -> FluidCore {
        FluidCore {
            registry,
            route,
            conns: Vec::new(),
            caps: Vec::new(),
            link_users: Vec::new(),
            scratch: Scratch::default(),
        }
    }

    /// Bring one flow's residual current: between rate changes it drains
    /// linearly, so a single `rate · dt` step at read time replaces the
    /// old advance-everything-at-every-event sweep.
    fn advance_flow(f: &mut ActiveFlow, now: SimTime) {
        let dt = now.since(f.updated).as_nanos() as f64;
        if dt > 0.0 {
            f.remaining = (f.remaining - f.rate * dt).max(0.0);
        }
        f.updated = now;
    }

    /// The allocator's path for a flow of `bytes` on `conn`: stage links
    /// weighted by their per-byte occupancy for this message size, plus
    /// the rack fabric weighted by wire bytes per payload byte.
    fn flow_path(&self, conn: usize, bytes: u64) -> FlowPath {
        let c = &self.conns[conn];
        let s = bytes.max(1) as f64;
        let occ = c.costs.stage_occupancies(bytes);
        let mut path = FlowPath {
            hops: [(0, 0.0); 5],
            len: 3,
        };
        for (hop, (&l, &o)) in path.hops.iter_mut().zip(c.stage_links.iter().zip(&occ)) {
            *hop = (l, o / s);
        }
        if let Some((up, down)) = c.fabric {
            let frames = c.costs.frames_for(bytes) as u64;
            let wire = (bytes + frames * c.costs.frame_overhead as u64) as f64 / s;
            path.hops[3] = (up, wire);
            path.hops[4] = (down, wire);
            path.len = 5;
        }
        path
    }

    /// Delivery residual for a completed flow, clamped to the connection's
    /// shard-plan lower bound.
    fn delivery_delay(&self, conn: usize, bytes: u64) -> Dur {
        let c = &self.conns[conn];
        Dur::nanos(delivery_residual_ns(&c.costs, bytes).max(c.min_drx.as_nanos()))
    }

    fn fail(&self, ctx: &mut Ctx<'_>, conn: usize, msg: u64, bytes: u64, kind: StreamErrorKind) {
        let c = &self.conns[conn];
        ctx.send_in(
            c.detect,
            c.tx_core,
            Message::new(FluidEv::Failed {
                conn: ConnId(conn),
                msg,
                bytes,
                kind,
            }),
        );
    }

    /// Promote the next queued message (if any) to the connection's active
    /// flow; messages landing after the endpoint crash fail over instead.
    /// Returns true when a flow was started (the caller reallocates).
    fn start_next(&mut self, ctx: &mut Ctx<'_>, conn: usize) -> bool {
        loop {
            let c = &mut self.conns[conn];
            debug_assert!(c.active.is_none(), "starting over an active flow");
            let Some(q) = c.queue.pop_front() else {
                return false;
            };
            if c.cut_at.is_some_and(|t| ctx.now() >= t) {
                let (msg, bytes) = (q.msg, q.bytes);
                self.fail(ctx, conn, msg, bytes, StreamErrorKind::PeerDead);
                continue;
            }
            let path = self.flow_path(conn, q.bytes);
            for &(l, _) in path.hops() {
                let lu = &mut self.link_users[l];
                if let Err(i) = lu.binary_search(&conn) {
                    lu.insert(i, conn);
                }
            }
            let c = &mut self.conns[conn];
            c.epochs += 1;
            c.active = Some(ActiveFlow {
                msg: q.msg,
                bytes: q.bytes,
                sent_at: q.sent_at,
                payload: Some(q.payload),
                extra: q.extra,
                remaining: q.bytes.max(1) as f64,
                rate: 0.0,
                epoch: c.epochs,
                updated: ctx.now(),
                path,
            });
            return true;
        }
    }

    /// Recompute max-min fair shares for the connected component of the
    /// flow–link sharing graph around `seed_conn`, and reschedule the
    /// completion of every flow whose rate changed. Flows outside the
    /// component share no link (transitively) with the changed connection,
    /// so their rates — and their already-scheduled completions — stand.
    fn reallocate(&mut self, ctx: &mut Ctx<'_>, seed_conn: usize) {
        let c = &self.conns[seed_conn];
        let seed = c
            .stage_links
            .into_iter()
            .chain(c.fabric.into_iter().flat_map(|(up, down)| [up, down]));
        let conns = &self.conns;
        self.scratch
            .gather(seed, &self.caps, &self.link_users, |ci| {
                conns[ci].active.as_ref().expect("in sync").path.hops()
            });
        let Scratch { comp, fill, .. } = &mut self.scratch;
        if comp.is_empty() {
            return;
        }
        let rates = fill.solve();
        let now = ctx.now();
        for (&ci, &rate) in comp.iter().zip(rates) {
            let c = &mut self.conns[ci];
            let f = c.active.as_mut().expect("in sync");
            Self::advance_flow(f, now);
            if rate != f.rate {
                // An unchanged rate keeps its scheduled completion: the
                // residual shrank by exactly rate·dt since scheduling.
                f.rate = rate;
                c.epochs += 1;
                f.epoch = c.epochs;
                let delay = Dur::nanos((f.remaining / f.rate).ceil() as u64);
                ctx.send_self_in(
                    delay,
                    Message::new(FluidEv::Complete {
                        conn: ConnId(ci),
                        epoch: f.epoch,
                    }),
                );
            }
        }
    }

    fn on_arrive(
        &mut self,
        ctx: &mut Ctx<'_>,
        conn: usize,
        msg: u64,
        bytes: u64,
        sent_at: SimTime,
        payload: Message,
    ) {
        let c = &mut self.conns[conn];
        // Fate is drawn once per message, in arrival order, from this
        // core's own deterministic RNG stream — shard-invariant because
        // the core is a single pinned process.
        let fate = match &c.faults {
            Some(f) => f.fate(ctx.now(), ctx.rng()),
            None => MsgFate::Deliver { extra: Dur::ZERO },
        };
        match fate {
            MsgFate::Drop => {
                let kind = if c.cut_at.is_some_and(|t| ctx.now() >= t) {
                    StreamErrorKind::PeerDead
                } else {
                    StreamErrorKind::Lost
                };
                self.fail(ctx, conn, msg, bytes, kind);
            }
            MsgFate::Deliver { extra } => {
                c.queue.push_back(QueuedMsg {
                    msg,
                    bytes,
                    sent_at,
                    payload,
                    extra,
                });
                if c.active.is_none() && self.start_next(ctx, conn) {
                    self.reallocate(ctx, conn);
                }
            }
        }
    }

    fn on_complete(&mut self, ctx: &mut Ctx<'_>, conn: usize, epoch: u64) {
        {
            let Some(f) = &self.conns[conn].active else {
                return; // stale: the flow already completed
            };
            if f.epoch != epoch {
                return; // stale: superseded by a reallocation
            }
        }
        let c = &mut self.conns[conn];
        let mut f = c.active.take().expect("checked above");
        for &(l, _) in f.path.hops() {
            let lu = &mut self.link_users[l];
            if let Ok(i) = lu.binary_search(&conn) {
                lu.remove(i);
            }
        }
        let payload = f.payload.take().expect("payload present until delivery");
        if c.cut_at.is_some_and(|t| ctx.now() >= t) {
            // The endpoint died mid-transfer: the flow fails instead of
            // delivering.
            let (msg, bytes) = (f.msg, f.bytes);
            self.fail(ctx, conn, msg, bytes, StreamErrorKind::PeerDead);
        } else {
            hpsock_sim::telemetry::count_flows(1);
            let d_rx = self.delivery_delay(conn, f.bytes) + f.extra;
            let c = &self.conns[conn];
            ctx.send_in(
                d_rx,
                c.rx_core,
                Message::new(FluidEv::Deliver {
                    conn: ConnId(conn),
                    msg: f.msg,
                    bytes: f.bytes,
                    sent_at: f.sent_at,
                    payload,
                }),
            );
        }
        self.start_next(ctx, conn);
        // One recompute covers both the departure and any promotion.
        self.reallocate(ctx, conn);
    }
}

impl Process for FluidCore {
    fn name(&self) -> String {
        "net-fluid".to_string()
    }

    fn on_start(&mut self, _ctx: &mut Ctx<'_>) {
        let reg = self.registry.lock().expect("registry lock");
        assert!(reg.sealed, "fluid core started before the switch");
        let route = self
            .route
            .get()
            .expect("fluid core starts after the switch installed routes");
        let topo = reg.topology;
        let n = route.core_of_node.len();
        self.caps = vec![1.0; 3 * n];
        if let Topology::Racks {
            racks,
            per_rack,
            oversub,
        } = topo
        {
            let up = per_rack as f64 * NODE_WIRE_BYTES_PER_NS / oversub;
            for _ in 0..racks {
                self.caps.push(up); // uplink
                self.caps.push(up); // downlink
            }
        }
        self.link_users = vec![Vec::new(); self.caps.len()];
        self.conns = reg
            .conns
            .iter()
            .enumerate()
            .map(|(ci, spec)| {
                let (src, dst) = (spec.src.node.0, spec.dst.node.0);
                let faults = reg.faults.as_ref().and_then(|p| p.compile(src, dst));
                let fabric = match topo {
                    Topology::Racks { per_rack, .. } if topo.inter_rack(src, dst) => Some((
                        3 * n + 2 * (src / per_rack),
                        3 * n + 2 * (dst / per_rack) + 1,
                    )),
                    _ => None,
                };
                FluidConn {
                    tx_core: route.tx[ci].core,
                    rx_core: route.rx[ci].core,
                    stage_links: [3 * src, 3 * src + 1, 3 * dst + 2],
                    fabric,
                    min_drx: min_delivery(&spec.costs),
                    cut_at: faults.as_ref().and_then(|f| f.cut_at),
                    detect: faults
                        .as_ref()
                        .map_or(Dur::nanos(1), |f| Dur::nanos(f.detect.as_nanos().max(1))),
                    faults,
                    costs: Arc::clone(&spec.costs),
                    queue: VecDeque::new(),
                    active: None,
                    epochs: 0,
                }
            })
            .collect();
        self.scratch = Scratch::new(self.caps.len(), self.conns.len());
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
        match msg.downcast::<FluidEv>() {
            Ok(FluidEv::Arrive {
                conn,
                msg,
                bytes,
                sent_at,
                payload,
            }) => self.on_arrive(ctx, conn.0, msg, bytes, sent_at, payload),
            Ok(FluidEv::Complete { conn, epoch }) => self.on_complete(ctx, conn.0, epoch),
            Ok(_) => panic!("node-core fluid event at the fluid core"),
            Err(_) => panic!("fluid core received an unknown message type"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, what: &str) {
        assert!(
            (a - b).abs() <= 1e-9 * b.abs().max(1.0),
            "{what}: {a} vs {b}"
        );
    }

    #[test]
    fn single_flow_gets_the_bottleneck_rate() {
        // One flow over links of capacity 10 and 4 with unit weights.
        let rates = max_min_rates(&[10.0, 4.0], &[vec![(0, 1.0), (1, 1.0)]]);
        assert_close(rates[0], 4.0, "single flow");
    }

    #[test]
    fn shared_uplink_splits_evenly() {
        // Two unit-weight flows through one capacity-10 uplink.
        let flows = vec![vec![(0, 1.0)], vec![(0, 1.0)]];
        let rates = max_min_rates(&[10.0], &flows);
        assert_close(rates[0], 5.0, "flow 0");
        assert_close(rates[1], 5.0, "flow 1");
    }

    #[test]
    fn asymmetric_capacities_water_fill() {
        // Flow A crosses a tight private link (cap 2) and the shared link
        // (cap 10); flow B only the shared link. A freezes at 2, B takes
        // the leftovers: 8.
        let flows = vec![vec![(0, 1.0), (1, 1.0)], vec![(1, 1.0)]];
        let rates = max_min_rates(&[2.0, 10.0], &flows);
        assert_close(rates[0], 2.0, "constrained flow");
        assert_close(rates[1], 8.0, "unconstrained flow");
    }

    #[test]
    fn weights_scale_consumption() {
        // Equal fair shares in *rate* under unequal weights: both freeze
        // at the shared bottleneck, r * (w_a + w_b) = cap.
        let flows = vec![vec![(0, 3.0)], vec![(0, 1.0)]];
        let rates = max_min_rates(&[8.0], &flows);
        assert_close(rates[0], 2.0, "heavy flow");
        assert_close(rates[1], 2.0, "light flow");
    }

    #[test]
    fn three_tier_bottleneck_chain() {
        // f0: links 0,1; f1: links 1,2; f2: link 2. cap 1, 3, 12.
        // Round 1: link 0 fair 1 -> f0 = 1. Round 2: link 1 left 2 for
        // f1 -> 2. Round 3: link 2 left 10 for f2 -> 10.
        let flows = vec![
            vec![(0, 1.0), (1, 1.0)],
            vec![(1, 1.0), (2, 1.0)],
            vec![(2, 1.0)],
        ];
        let rates = max_min_rates(&[1.0, 3.0, 12.0], &flows);
        assert_close(rates[0], 1.0, "f0");
        assert_close(rates[1], 2.0, "f1");
        assert_close(rates[2], 10.0, "f2");
    }

    #[test]
    fn stamp_wraparound_clears_stale_marks() {
        // Two disjoint one-link flows. The first search marks link 0 and
        // flow 0 with stamp 1; after the stamp wraps, the next search
        // takes stamp 1 again and must not mistake those marks for its own.
        let caps = [1.0, 2.0];
        let flows = [vec![(0, 1.0)], vec![(1, 1.0)]];
        let users = [vec![0], vec![1]];
        let mut s = Scratch::new(2, 2);
        for stamp in [0, u32::MAX, u32::MAX - 1] {
            s.stamp = stamp;
            s.gather([0], &caps, &users, |f| &flows[f][..]);
            assert_eq!(s.comp, [0], "search from stamp {stamp}");
            assert_eq!(s.fill.solve(), [1.0]);
        }
    }

    #[test]
    fn unloaded_single_flow_reproduces_peak_bandwidths() {
        // A lone fluid flow's drain rate (1 / max stage weight) must equal
        // the packet model's calibrated steady-state bandwidth.
        use crate::params::{PathCosts, TransportKind};
        for kind in TransportKind::PAPER_SET {
            let costs = PathCosts::for_kind(kind);
            let s = 65_536u64;
            let occ = costs.stage_occupancies(s);
            let max_w = occ.iter().fold(0.0f64, |a, &b| a.max(b)) / s as f64;
            let mbps = 8.0 / max_w * 1_000.0;
            let want = costs.steady_bandwidth_mbps(s);
            assert!(
                (mbps - want).abs() / want < 1e-3,
                "{}: fluid {mbps} vs packet {want}",
                kind.label()
            );
        }
    }
}
