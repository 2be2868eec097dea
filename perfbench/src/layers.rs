//! Per-layer host-time attribution for the traced run.
//!
//! A benchmark-owned [`Probe`] stamps `Instant::now()` at every
//! `ProbeEvent::Dispatch` and charges the interval up to the next stamp
//! to the process that received the dispatch. Time before the first
//! dispatch of a run is the start-up phase (every `on_start`). After the
//! run each pid is classified by its concrete type, and the layers are
//! the crates: the net engine, the fluid core, DataCutter filters, the
//! vizserver driver, and the benchmark's own load generators.

use hpsock_datacutter::FilterProcess;
use hpsock_net::{NetSwitch, NodeCore};
use hpsock_sim::{Probe, ProbeEvent, ProcessId, Sim};
use hpsock_vizserver::QueryDriver;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A layer of the traced table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// Start-up inside the first `run_until(SimTime::ZERO)`, before any
    /// dispatch: the kernel running every `on_start`.
    SimStart,
    /// `NodeCore` and `NetSwitch`: the packet engine.
    NetEngine,
    /// The flow model's fluid core.
    NetFluid,
    /// DataCutter `FilterProcess`es.
    Dc,
    /// The vizserver `QueryDriver`.
    Viz,
    /// The benchmark's own clients and sinks.
    BenchLoad,
    /// A pid no rule above matched.
    Unattributed,
}

impl Layer {
    pub const ALL: [Layer; 7] = [
        Layer::SimStart,
        Layer::NetEngine,
        Layer::NetFluid,
        Layer::Dc,
        Layer::Viz,
        Layer::BenchLoad,
        Layer::Unattributed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::SimStart => "sim.start",
            Layer::NetEngine => "net.engine",
            Layer::NetFluid => "net.fluid",
            Layer::Dc => "dc",
            Layer::Viz => "viz",
            Layer::BenchLoad => "bench.load",
            Layer::Unattributed => "unattributed",
        }
    }
}

#[derive(Debug, Default)]
struct Acc {
    first: Option<Instant>,
    last: Option<Instant>,
    cur: Option<usize>,
    ns: Vec<u64>,
    events: Vec<u64>,
}

impl Acc {
    fn stamp(&mut self, now: Instant) {
        if let (Some(cur), Some(last)) = (self.cur, self.last) {
            self.ns[cur] += (now - last).as_nanos() as u64;
        }
        self.first.get_or_insert(now);
        self.last = Some(now);
    }
}

/// The probe attached to a traced job. Its accumulator reaches the
/// benchmark through the shared slot when the probe is dropped, so the
/// per-dispatch path takes no lock.
struct Sink {
    acc: Acc,
    slot: Arc<Mutex<Option<Acc>>>,
}

impl Probe for Sink {
    fn record(&mut self, ev: ProbeEvent) {
        if let ProbeEvent::Dispatch { target, .. } = ev {
            self.acc.stamp(Instant::now());
            let p = target.0;
            if p >= self.acc.ns.len() {
                self.acc.ns.resize(p + 1, 0);
                self.acc.events.resize(p + 1, 0);
            }
            self.acc.events[p] += 1;
            self.acc.cur = Some(p);
        }
    }
}

impl Drop for Sink {
    fn drop(&mut self) {
        self.acc.stamp(Instant::now());
        if let Ok(mut slot) = self.slot.lock() {
            *slot = Some(std::mem::take(&mut self.acc));
        }
    }
}

/// Host time per pid of one traced run.
#[derive(Debug, Default)]
pub struct PidTimes {
    /// From the start of the run to its first dispatch.
    pre_ns: u64,
    ns: Vec<u64>,
    events: Vec<u64>,
}

/// Where a detached probe leaves its measurements.
pub struct Slot(Arc<Mutex<Option<Acc>>>);

impl Slot {
    /// The measurements of a probe that has been detached and dropped;
    /// `start` is the instant the run began.
    pub fn take(self, start: Instant, end: Instant) -> PidTimes {
        let acc = self
            .0
            .lock()
            .expect("probe slot lock")
            .take()
            .unwrap_or_default();
        let first = acc.first.unwrap_or(end);
        PidTimes {
            pre_ns: (first - start).as_nanos() as u64,
            ns: acc.ns,
            events: acc.events,
        }
    }
}

/// A fresh probe and the slot it reports into.
pub fn probe() -> (Box<dyn Probe>, Slot) {
    let slot = Arc::new(Mutex::new(None));
    let sink = Sink {
        acc: Acc::default(),
        slot: Arc::clone(&slot),
    };
    (Box::new(sink), Slot(slot))
}

/// Sum a run's pid times into layers. `own` recognises the benchmark's
/// load generators; under the flow model (`flow`), the one process no
/// other rule matches is the crate-private fluid core.
pub fn attribute(
    sim: &Sim,
    t: &PidTimes,
    own: &dyn Fn(&Sim, ProcessId) -> bool,
    flow: bool,
) -> Vec<(Layer, u64, u64)> {
    let mut out: Vec<(Layer, u64, u64)> = Layer::ALL.iter().map(|&l| (l, 0, 0)).collect();
    out[0].1 = t.pre_ns;
    let mut unknown = Vec::new();
    for (p, (&ns, &ev)) in t.ns.iter().zip(&t.events).enumerate() {
        if ev == 0 {
            continue;
        }
        let pid = ProcessId(p);
        let layer =
            if sim.process::<NodeCore>(pid).is_some() || sim.process::<NetSwitch>(pid).is_some() {
                Layer::NetEngine
            } else if sim.process::<FilterProcess>(pid).is_some() {
                Layer::Dc
            } else if sim.process::<QueryDriver>(pid).is_some() {
                Layer::Viz
            } else if own(sim, pid) {
                Layer::BenchLoad
            } else {
                unknown.push((ns, ev));
                continue;
            };
        let slot = &mut out[layer as usize];
        slot.1 += ns;
        slot.2 += ev;
    }
    let rest = if flow && unknown.len() == 1 {
        Layer::NetFluid
    } else {
        Layer::Unattributed
    };
    for (ns, ev) in unknown {
        let slot = &mut out[rest as usize];
        slot.1 += ns;
        slot.2 += ev;
    }
    out
}
