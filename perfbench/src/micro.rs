//! Outside-in micro-measurements of single layers on generated inputs,
//! and the Figure 4 accuracy check.

use crate::harness::mix;
use hpsock_datacutter::{Policy, Scheduler};
use hpsock_net::{fault, max_min_rates, with_netmodel, NetModel, TransportKind};
use socketvia::{microbench, Provider};
use std::hint::black_box;
use std::time::Instant;

/// A uniform draw in `[0, 1)` from a splitmix64 state.
fn unit(state: &mut u64) -> f64 {
    *state = mix(*state);
    (*state >> 11) as f64 / (1u64 << 53) as f64
}

/// One generated allocation problem: link capacities and flow paths.
struct Problem {
    caps: Vec<f64>,
    flows: Vec<Vec<(usize, f64)>>,
}

/// A link set shaped like a `fabric-flow` cluster of `nodes` nodes in
/// racks of 16: three unit-capacity stage links per node plus an uplink
/// and a downlink per rack. Each of `flows` flows runs from the sender
/// half to the receiver half and crosses its endpoints' stage links and,
/// between racks, both rack links.
fn problem(nodes: usize, flows: usize, state: &mut u64) -> Problem {
    let per_rack = nodes.min(16);
    let racks = nodes / per_rack;
    let rack_link = |r: usize, down: usize| 3 * nodes + 2 * r + down;
    let mut caps = vec![1.0; 3 * nodes];
    for _ in 0..2 * racks {
        caps.push(per_rack as f64 / 4.0 * (0.05 + 0.1 * unit(state)));
    }
    let half = nodes / 2;
    let flows = (0..flows)
        .map(|_| {
            let src = (unit(state) * half as f64) as usize;
            let dst = half + (unit(state) * half as f64) as usize;
            let w = |s: &mut u64| 5.0 + 11.0 * unit(s);
            let mut path = vec![
                (3 * src, w(state)),
                (3 * src + 1, w(state)),
                (3 * dst + 2, w(state)),
            ];
            if src / per_rack != dst / per_rack {
                path.push((rack_link(src / per_rack, 0), 1.0));
                path.push((rack_link(dst / per_rack, 1), 1.0));
            }
            path
        })
        .collect();
    Problem { caps, flows }
}

/// Capacity conservation and Pareto efficiency of an allocation: no link
/// carries more than its capacity, and every flow crosses a saturated
/// link.
fn check_rates(p: &Problem, rates: &[f64]) -> Result<(), String> {
    let mut load = vec![0.0; p.caps.len()];
    for (f, path) in p.flows.iter().enumerate() {
        if !(rates[f].is_finite() && rates[f] > 0.0) {
            return Err(format!("flow {f} got rate {}", rates[f]));
        }
        for &(l, w) in path {
            load[l] += rates[f] * w;
        }
    }
    for (l, (&used, &cap)) in load.iter().zip(&p.caps).enumerate() {
        if used > cap * (1.0 + 1e-9) {
            return Err(format!("link {l} carries {used} over capacity {cap}"));
        }
    }
    for (f, path) in p.flows.iter().enumerate() {
        if !path
            .iter()
            .any(|&(l, _)| load[l] >= p.caps[l] * (1.0 - 1e-6))
        {
            return Err(format!("flow {f} crosses no saturated link"));
        }
    }
    Ok(())
}

/// Host µs per `max_min_rates` call over generated problems sized like
/// `fabric-flow`'s clusters, after checking every allocation.
pub fn alloc_us(seed: u64) -> Result<f64, String> {
    let mut state = seed ^ 0xA110C;
    let sizes = [(64, 32), (128, 64), (256, 128), (512, 256)];
    let problems: Vec<Problem> = sizes
        .iter()
        .flat_map(|&(n, f)| (0..4).map(move |_| (n, f)))
        .map(|(n, f)| problem(n, f, &mut state))
        .collect();
    for p in &problems {
        check_rates(p, &max_min_rates(&p.caps, &p.flows))?;
    }
    let reps = 8;
    let t = Instant::now();
    for _ in 0..reps {
        for p in &problems {
            black_box(max_min_rates(black_box(&p.caps), black_box(&p.flows)));
        }
    }
    Ok(t.elapsed().as_nanos() as f64 / 1e3 / (reps * problems.len()) as f64)
}

/// Host ns per `Scheduler` pick → `on_sent` → `on_ack` cycle, averaged
/// over equal round-robin and demand-driven cycle counts. The ack order
/// is generated from the seed and replayed; the timed replay must pick
/// exactly what the untimed one did.
pub fn sched_ns(seed: u64) -> Result<(f64, f64), String> {
    let consumers = 3;
    let cycles = 200_000;
    let mut out = [0.0; 2];
    for (k, policy) in [Policy::RoundRobinAcked, Policy::demand_driven()]
        .into_iter()
        .enumerate()
    {
        // Untimed pass: generate the ack sequence and record the picks.
        let prime = match policy {
            Policy::DemandDriven { window } => window as usize * consumers,
            _ => consumers,
        };
        let mut s = Scheduler::new(policy, consumers);
        for _ in 0..prime {
            let i = s.pick().ok_or("priming pick stalled")?;
            s.on_sent(i);
        }
        let primed = s.clone();
        let mut state = seed ^ (k as u64 + 1);
        let mut acks = Vec::with_capacity(cycles);
        let mut picks = Vec::with_capacity(cycles);
        for _ in 0..cycles {
            let busy: Vec<usize> = (0..consumers).filter(|&i| s.unacked(i) > 0).collect();
            let a = busy[(unit(&mut state) * busy.len() as f64) as usize];
            s.on_ack(a);
            let i = s.pick().ok_or("pick stalled after an ack")?;
            s.on_sent(i);
            acks.push(a);
            picks.push(i);
        }
        // Timed replay.
        let mut s = primed;
        let mut got = Vec::with_capacity(cycles);
        let t = Instant::now();
        for &a in &acks {
            s.on_ack(black_box(a));
            let i = s.pick().unwrap_or(usize::MAX);
            s.on_sent(i);
            got.push(i);
        }
        out[k] = t.elapsed().as_nanos() as f64 / cycles as f64;
        if got != picks {
            return Err(format!("{} replay picked differently", policy.label()));
        }
    }
    Ok((out[0], out[1]))
}

/// Largest relative deviation, in percent, of the simulated Figure 4
/// constants from the paper's: one-way latency of a 4 B message and
/// streamed bandwidth at 64 KB.
pub fn fig4_err_pct() -> f64 {
    let paper = [
        (TransportKind::KTcp, 47.5, 510.0),
        (TransportKind::SocketVia, 9.5, 763.0),
        (TransportKind::Via, 8.5, 795.0),
    ];
    with_netmodel(NetModel::Packet, || {
        fault::with_plan(None, || {
            paper
                .iter()
                .flat_map(|&(kind, us, mbps)| {
                    let p = Provider::new(kind);
                    let got_us = microbench::oneway_us(&p, 4, 16);
                    let got_mbps = microbench::streaming_mbps(&p, 65_536, 150);
                    [(got_us / us - 1.0).abs(), (got_mbps / mbps - 1.0).abs()]
                })
                .fold(0.0, f64::max)
                * 100.0
        })
    })
}
