//! Host-speed reference for normalising job times.
//!
//! The host this benchmark runs on shares its cores with other machines,
//! and its speed drifts by a third or more over seconds to minutes (see
//! `README.md`). So before every job, and once after the last, the
//! benchmark times a fixed reference: a small discrete-event simulation
//! compiled into the benchmark itself, with its own event queue, boxed
//! processes reached through a trait object and per-process tables, the
//! same kinds of work the simulator does. It uses none of the crates, so
//! no change to the program changes it, and it allocates nothing after
//! construction, so the state the program leaves in the allocator does
//! not change it either. Each job's host times are then scaled by
//! [`NOMINAL_NS`] over the median of the three samples around the job:
//! the times the benchmark reports are those of a host on which the
//! reference takes exactly [`NOMINAL_NS`].

use crate::harness::mix;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// Reference time of the normalised host, ns.
pub const NOMINAL_NS: f64 = 1_000_000.0;
/// Processes of the reference simulation.
const PROCESSES: usize = 512;
/// Events one sample dispatches (about 1 ms on the host of `README.md`).
const EVENTS: usize = 11_000;
/// The reference's fixed seed: every sample does the same work.
const SEED: u64 = 0x4EF5_EED5;

/// A process of the reference simulation.
trait RefProcess {
    fn on_event(&mut self, now: u64, value: u64, out: &mut Vec<(u64, u32, u64)>);
    fn reset(&mut self);
}

struct RefNode {
    id: u64,
    peers: u64,
    table: [u64; 64],
    rate: f64,
}

impl RefProcess for RefNode {
    /// Fold the value into a table slot and a smoothed rate, then send one
    /// event to a peer after a delay drawn from both.
    fn on_event(&mut self, now: u64, value: u64, out: &mut Vec<(u64, u32, u64)>) {
        let slot = &mut self.table[(value & 63) as usize];
        *slot = slot.wrapping_add(value);
        self.rate = 0.5 * self.rate + (value & 0xffff) as f64 / 65536.0;
        let h = mix(value ^ self.id ^ *slot);
        let at = now + 1 + (h >> 54) + (self.rate * 8.0) as u64;
        out.push((at, (h % self.peers) as u32, h));
    }

    fn reset(&mut self) {
        self.table = [0; 64];
        self.rate = 0.0;
    }
}

/// The reference simulation, built once and rerun for every sample.
pub struct Reference {
    procs: Vec<Box<dyn RefProcess>>,
    /// Pending events: (time, sequence number, destination).
    queue: BinaryHeap<Reverse<(u64, u64, u32)>>,
    /// Event payloads by sequence number.
    payloads: Vec<u64>,
    out: Vec<(u64, u32, u64)>,
    checksum: Option<u64>,
}

impl Reference {
    pub fn new() -> Self {
        let procs = (0..PROCESSES)
            .map(|id| {
                Box::new(RefNode {
                    id: id as u64,
                    peers: PROCESSES as u64,
                    table: [0; 64],
                    rate: 0.0,
                }) as Box<dyn RefProcess>
            })
            .collect();
        let mut r = Reference {
            procs,
            queue: BinaryHeap::with_capacity(2 * PROCESSES),
            payloads: Vec::with_capacity(PROCESSES + EVENTS),
            out: Vec::with_capacity(4),
            checksum: None,
        };
        // Warm caches and branch predictors before the first timed sample.
        for _ in 0..20 {
            r.sample();
        }
        r
    }

    /// Run the reference once from its initial state.
    fn run(&mut self) -> u64 {
        for p in &mut self.procs {
            p.reset();
        }
        self.queue.clear();
        self.payloads.clear();
        for i in 0..PROCESSES {
            self.payloads.push(mix(SEED ^ i as u64));
            self.queue.push(Reverse((0, i as u64, i as u32)));
        }
        let mut sum = 0u64;
        for _ in 0..EVENTS {
            let Reverse((now, seq, dst)) = self.queue.pop().expect("every event sends one");
            let value = self.payloads[seq as usize];
            self.procs[dst as usize].on_event(now, value, &mut self.out);
            for (at, to, v) in self.out.drain(..) {
                self.queue
                    .push(Reverse((at, self.payloads.len() as u64, to)));
                self.payloads.push(v);
            }
            sum = mix(sum ^ now);
        }
        sum
    }

    /// Host ns of one reference run. Every run must reach the same
    /// checksum; a host that cannot repeat it cannot be measured.
    pub fn sample(&mut self) -> u64 {
        let t0 = Instant::now();
        let sum = std::hint::black_box(self.run());
        let ns = t0.elapsed().as_nanos() as u64;
        assert_eq!(
            *self.checksum.get_or_insert(sum),
            sum,
            "the host-speed reference gave two results"
        );
        ns
    }
}

/// Per-job scale factors from `samples`, taken before every job and once
/// after the last: job `i` is scaled by [`NOMINAL_NS`] over the median of
/// samples `i - 1`, `i` and `i + 1` (the one before the previous job, and
/// the ones right before and right after the job), so one disturbed
/// sample moves no job.
pub fn factors(samples: &[u64]) -> Vec<f64> {
    (0..samples.len().saturating_sub(1))
        .map(|i| {
            let mut w = samples[i.saturating_sub(1)..=i + 1].to_vec();
            w.sort_unstable();
            let mid = if w.len() % 2 == 1 {
                w[w.len() / 2] as f64
            } else {
                (w[w.len() / 2 - 1] + w[w.len() / 2]) as f64 / 2.0
            };
            NOMINAL_NS / mid
        })
        .collect()
}
