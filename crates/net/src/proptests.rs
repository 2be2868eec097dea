//! Property tests over the network engine: conservation, per-connection
//! FIFO delivery, and latency sanity for arbitrary message batches; and
//! over the fluid allocator: feasibility, Pareto optimality, scratch
//! reuse and component decomposition.

#![cfg(test)]

use crate::cluster::Cluster;
use crate::engine::{ConnId, Delivery, NodeId};
use crate::params::TransportKind;
use hpsock_sim::{Ctx, Message, Process, Sim};
use proptest::prelude::*;

/// Sends a fixed batch of (size, tag) messages on one connection.
struct BatchSender {
    net: crate::engine::Network,
    conn: ConnId,
    batch: Vec<(u64, u64)>,
}
impl Process for BatchSender {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for &(bytes, tag) in &self.batch {
            self.net.send(ctx, self.conn, bytes, Message::new(tag));
        }
    }
    fn on_message(&mut self, _ctx: &mut Ctx<'_>, _msg: Message) {}
}

/// Records (tag, bytes, latency) per delivery, consuming immediately.
struct BatchSink {
    net: crate::engine::Network,
    got: Vec<(u64, u64)>,
    latencies_ns: Vec<u64>,
}
impl Process for BatchSink {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
        let d = msg.downcast::<Delivery>().expect("delivery");
        self.net.consumed(ctx, d.conn, d.msg_id);
        let tag = d.payload.downcast::<u64>().expect("tag");
        self.got.push((tag, d.bytes));
        self.latencies_ns
            .push(ctx.now().since(d.sent_at).as_nanos());
    }
}

fn run_batch(kind: TransportKind, batch: Vec<(u64, u64)>) -> (Vec<(u64, u64)>, Vec<u64>) {
    let mut sim = Sim::new(99);
    let cluster = Cluster::build(&mut sim, 2);
    let net = cluster.network();
    let sender = sim.add_process(Box::new(BatchSender {
        net: net.clone(),
        conn: ConnId(0),
        batch: batch.clone(),
    }));
    let sink = sim.add_process(Box::new(BatchSink {
        net: net.clone(),
        got: vec![],
        latencies_ns: vec![],
    }));
    net.connect(
        cluster.endpoint(NodeId(0), sender),
        cluster.endpoint(NodeId(1), sink),
        kind,
    );
    sim.run();
    let s: &BatchSink = sim.process(sink).unwrap();
    (s.got.clone(), s.latencies_ns.clone())
}

fn batch_strategy() -> impl Strategy<Value = Vec<(u64, u64)>> {
    proptest::collection::vec((1u64..300_000, any::<u64>()), 1..40)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every message arrives exactly once, in order, with its exact byte
    /// count, on both flow-control regimes.
    #[test]
    fn delivery_is_exactly_once_and_fifo(batch in batch_strategy()) {
        for kind in [TransportKind::SocketVia, TransportKind::KTcp] {
            let (got, _) = run_batch(kind, batch.clone());
            let expect: Vec<(u64, u64)> =
                batch.iter().map(|&(b, t)| (t, b)).collect();
            prop_assert_eq!(&got, &expect, "{:?}", kind);
        }
    }

    /// One-way latency of every message is at least the unloaded
    /// closed-form latency for its size (queueing can only add).
    #[test]
    fn latency_lower_bound(batch in batch_strategy()) {
        let kind = TransportKind::SocketVia;
        let costs = crate::params::PathCosts::for_kind(kind);
        let (got, lats) = run_batch(kind, batch);
        for ((_tag, bytes), lat_ns) in got.iter().zip(&lats) {
            let floor = costs.oneway_latency(*bytes).as_nanos();
            prop_assert!(
                *lat_ns + 2 >= floor,
                "{} B took {} < floor {}", bytes, lat_ns, floor
            );
        }
    }

    /// The engine is deterministic for any batch: same batch, same trace.
    #[test]
    fn engine_deterministic(batch in batch_strategy()) {
        let (a, la) = run_batch(TransportKind::KTcp, batch.clone());
        let (b, lb) = run_batch(TransportKind::KTcp, batch);
        prop_assert_eq!(a, b);
        prop_assert_eq!(la, lb);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The max-min allocation is feasible (no link over capacity) and
    /// Pareto-optimal (every flow is pinned by some saturated link, so no
    /// flow's rate can grow without shrinking another's). Link graphs are
    /// arbitrary: paths may repeat links, weights and capacities span
    /// three decades.
    #[test]
    fn max_min_allocation_conserves_capacity_and_is_pareto(
        links in 1usize..6,
        caps_raw in proptest::collection::vec(100u64..100_000, 6),
        flows_raw in proptest::collection::vec(
            proptest::collection::vec((0usize..6, 10u64..10_000), 1..5), 1..8),
    ) {
        let caps: Vec<f64> = caps_raw[..links].iter().map(|&c| c as f64 / 1_000.0).collect();
        let flows: Vec<Vec<(usize, f64)>> = flows_raw
            .iter()
            .map(|p| p.iter().map(|&(l, w)| (l % links, w as f64 / 1_000.0)).collect())
            .collect();
        let rates = crate::fluid::max_min_rates(&caps, &flows);
        prop_assert_eq!(rates.len(), flows.len());
        let mut used = vec![0.0f64; caps.len()];
        for (f, path) in flows.iter().enumerate() {
            prop_assert!(
                rates[f].is_finite() && rates[f] > 0.0,
                "flow {} rate {}", f, rates[f]
            );
            for &(l, w) in path {
                used[l] += rates[f] * w;
            }
        }
        for l in 0..caps.len() {
            prop_assert!(
                used[l] <= caps[l] * (1.0 + 1e-9),
                "link {} over capacity: {} > {}", l, used[l], caps[l]
            );
        }
        for (f, path) in flows.iter().enumerate() {
            prop_assert!(
                path.iter().any(|&(l, _)| used[l] >= caps[l] * (1.0 - 1e-6)),
                "flow {} crosses no saturated link (rates {:?}, used {:?}, caps {:?})",
                f, &rates, &used, &caps
            );
        }
    }
}

/// A generated allocation problem: link capacities and flow paths.
type Problem = (Vec<f64>, Vec<Vec<(usize, f64)>>);

/// Raw draws for [`problem`]: link count, capacities, flow paths.
type RawProblem = (usize, Vec<u64>, Vec<Vec<(usize, u64)>>);

fn problem_strategy() -> impl Strategy<Value = RawProblem> {
    (
        1usize..12,
        proptest::collection::vec(100u64..100_000, 11),
        proptest::collection::vec(
            proptest::collection::vec((0usize..11, 10u64..10_000), 1..5),
            1..12,
        ),
    )
}

/// Problems of 1-11 links and 1-11 flows; paths may repeat links, and
/// capacities and weights span three decades.
fn problem((links, caps, flows): &RawProblem) -> Problem {
    (
        caps[..*links].iter().map(|&c| c as f64 / 1_000.0).collect(),
        flows
            .iter()
            .map(|p| {
                p.iter()
                    .map(|&(l, w)| (l % links, w as f64 / 1_000.0))
                    .collect()
            })
            .collect(),
    )
}

/// Active flows per link, ascending and without repeats: the sharing
/// graph the fluid core keeps.
fn users_of(links: usize, flows: &[Vec<(usize, f64)>]) -> Vec<Vec<usize>> {
    let mut users = vec![Vec::new(); links];
    for (f, path) in flows.iter().enumerate() {
        for &(l, _) in path {
            if users[l].last() != Some(&f) {
                users[l].push(f);
            }
        }
    }
    users
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One reallocation scratch, reused across a sequence of problems
    /// that grow and shrink in flows and links, gives rates bit-identical
    /// to a fresh `max_min_rates` call on each: no state of an earlier
    /// problem leaks into a later one.
    #[test]
    fn reused_scratch_matches_fresh_allocation_bit_for_bit(
        problems in proptest::collection::vec(problem_strategy(), 1..8),
    ) {
        let mut scratch = crate::fluid::Scratch::new(12, 12);
        for (caps, flows) in problems.iter().map(problem) {
            let fresh = crate::fluid::max_min_rates(&caps, &flows);
            // Seeding every link gathers every flow, in ascending order,
            // with links renumbered onto themselves.
            let users = users_of(caps.len(), &flows);
            scratch.gather(0..caps.len(), &caps, &users, |f| &flows[f][..]);
            prop_assert_eq!(&scratch.comp, &(0..flows.len()).collect::<Vec<_>>());
            let reused: Vec<u64> = scratch.fill.solve().iter().map(|r| r.to_bits()).collect();
            let fresh: Vec<u64> = fresh.iter().map(|r| r.to_bits()).collect();
            prop_assert_eq!(reused, fresh);
        }
    }

    /// Max-min fairness decomposes over connected components: the rates
    /// the fluid core computes for the component around any one flow
    /// agree, within 1e-9 relative, with an allocation over every active
    /// flow at once. The gathered component is closed (no flow outside
    /// it shares a link with a flow inside) and sorted.
    #[test]
    fn component_allocation_matches_whole_graph(raw in problem_strategy()) {
        let (caps, flows) = problem(&raw);
        let whole = crate::fluid::max_min_rates(&caps, &flows);
        let users = users_of(caps.len(), &flows);
        let mut scratch = crate::fluid::Scratch::new(caps.len(), flows.len());
        for seed in 0..flows.len() {
            let seed_links = flows[seed].iter().map(|&(l, _)| l);
            scratch.gather(seed_links, &caps, &users, |f| &flows[f][..]);
            let comp = scratch.comp.clone();
            prop_assert!(comp.windows(2).all(|w| w[0] < w[1]), "unsorted {:?}", comp);
            prop_assert!(comp.binary_search(&seed).is_ok(), "seed {} outside {:?}", seed, comp);
            for &f in &comp {
                for &(l, _) in &flows[f] {
                    for u in &users[l] {
                        prop_assert!(comp.binary_search(u).is_ok(), "{} escapes {:?}", u, comp);
                    }
                }
            }
            let rates = scratch.fill.solve();
            for (&f, &r) in comp.iter().zip(rates) {
                prop_assert!(
                    (r - whole[f]).abs() <= 1e-9 * whole[f].abs(),
                    "flow {}: component {} vs whole graph {}", f, r, whole[f]
                );
            }
        }
    }
}

#[test]
fn zero_byte_message_is_delivered() {
    let (got, lats) = run_batch(TransportKind::SocketVia, vec![(0, 7)]);
    assert_eq!(got, vec![(7, 0)]);
    assert!(lats[0] > 0);
}

#[test]
fn interleaved_connections_do_not_cross_deliver() {
    // Two senders on two connections to one sink: tags must partition.
    let mut sim = Sim::new(5);
    let cluster = Cluster::build(&mut sim, 3);
    let net = cluster.network();
    let s1 = sim.add_process(Box::new(BatchSender {
        net: net.clone(),
        conn: ConnId(0),
        batch: (0..20).map(|i| (1_000, i)).collect(),
    }));
    let s2 = sim.add_process(Box::new(BatchSender {
        net: net.clone(),
        conn: ConnId(1),
        batch: (100..120).map(|i| (2_000, i)).collect(),
    }));
    let sink = sim.add_process(Box::new(BatchSink {
        net: net.clone(),
        got: vec![],
        latencies_ns: vec![],
    }));
    net.connect(
        cluster.endpoint(NodeId(0), s1),
        cluster.endpoint(NodeId(2), sink),
        TransportKind::SocketVia,
    );
    net.connect(
        cluster.endpoint(NodeId(1), s2),
        cluster.endpoint(NodeId(2), sink),
        TransportKind::KTcp,
    );
    sim.run();
    let s: &BatchSink = sim.process(sink).unwrap();
    let low: Vec<u64> = s
        .got
        .iter()
        .filter(|(t, _)| *t < 100)
        .map(|(t, _)| *t)
        .collect();
    let high: Vec<u64> = s
        .got
        .iter()
        .filter(|(t, _)| *t >= 100)
        .map(|(t, _)| *t)
        .collect();
    assert_eq!(low, (0..20).collect::<Vec<_>>(), "conn 0 FIFO");
    assert_eq!(high, (100..120).collect::<Vec<_>>(), "conn 1 FIFO");
}
