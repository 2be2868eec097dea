//! One workload of the simulator benchmark, in one single-thread process.
//!
//! ```text
//! hpsock-perfbench --workload <viz-guarantee|fabric-flow|lb-faults>
//!                  --seed <n> --seconds <s> --mode <plain|traced>
//! ```
//!
//! The workload is a fixed list of independent simulation jobs generated
//! from the seed, sized from `--seconds`. The process warms every job
//! shape up, times one pass over the list, normalises the job times by a
//! host-speed reference sampled between jobs (`host.rs`), checks every
//! job's outputs and prints one JSON line of results (see `README.md` for
//! the metrics).
//! `perfbench/run.py` is the entry point that builds this binary and
//! turns its output into the benchmark's report.

mod fabric;
mod harness;
mod host;
mod layers;
mod lb;
mod micro;
mod viz;

use harness::{mix, Counters, Drive, JobShape, Outcome};
use layers::Layer;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A workload: its job shapes, each with its count per round, and the
/// outside-in micro-measurement of the layer it stresses.
struct Work {
    shapes: Vec<(Box<dyn JobShape>, usize)>,
    /// Rounds of the job list per requested second, calibrated so one
    /// timed pass takes about `--seconds` on a 2-vCPU x86-64 VM. The job
    /// count depends only on `--seconds`, never on how fast the host is.
    rounds_per_second: f64,
    micro: Micro,
}

type Micro = fn(u64) -> Result<Vec<(&'static str, f64)>, String>;

fn boxed<S: JobShape + 'static>(v: Vec<(S, usize)>) -> Vec<(Box<dyn JobShape>, usize)> {
    v.into_iter()
        .map(|(s, n)| (Box::new(s) as Box<dyn JobShape>, n))
        .collect()
}

fn workload(name: &str) -> Option<Work> {
    Some(match name {
        "viz-guarantee" => Work {
            shapes: boxed(viz::shapes()),
            rounds_per_second: 0.28,
            micro: |_| Ok(vec![]),
        },
        "fabric-flow" => Work {
            shapes: boxed(fabric::shapes()),
            rounds_per_second: 0.6,
            micro: |seed| Ok(vec![("net.fluid.alloc_us", micro::alloc_us(seed)?)]),
        },
        "lb-faults" => Work {
            shapes: boxed(lb::shapes()),
            rounds_per_second: 0.8,
            micro: |seed| {
                let (rr, dd) = micro::sched_ns(seed)?;
                Ok(vec![
                    ("dc.sched_ns", (rr + dd) / 2.0),
                    ("dc.sched_ns.rr", rr),
                    ("dc.sched_ns.dd", dd),
                ])
            },
        },
        _ => return None,
    })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kv = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(k) = it.next() {
        let v = it.next().ok_or(format!("{k} needs a value"))?;
        kv.insert(k, v);
    }
    let get = |k: &str| kv.get(k).ok_or(format!("missing {k}"));
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: get("--workload")?.clone(),
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        traced: match get("--mode")?.as_str() {
            "plain" => false,
            "traced" => true,
            m => return Err(format!("--mode must be plain or traced, got {m}")),
        },
    })
}

/// The job list: whole rounds, each holding every shape its count of
/// times, interleaved so each shape samples the host's slow and fast
/// phases alike. Job `j` runs with a seed derived from the workload seed.
fn job_list(counts: &[usize], rounds: usize, seed: u64) -> Vec<(usize, u64)> {
    let most = counts.iter().copied().max().unwrap_or(0);
    let round: Vec<usize> = (0..most)
        .flat_map(|slot| (0..counts.len()).filter(move |&s| counts[s] > slot))
        .collect();
    (0..rounds)
        .flat_map(|_| round.iter().copied())
        .enumerate()
        .map(|(j, s)| (s, mix(mix(seed) ^ j as u64)))
        .collect()
}

/// The process's peak resident set (`VmHWM`), MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Nearest-rank percentile of sorted values.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_map(m: &[(String, f64)]) -> String {
    let body: Vec<String> = m
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), if v.is_finite() { *v } else { 0.0 }))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hpsock-perfbench: {e}");
            std::process::exit(2);
        }
    };
    // The benchmark drives the library through explicit calls only; no
    // HPSOCK_* variable may reconfigure the jobs. No other thread exists
    // yet, so changing the environment here is sound.
    let vars: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("HPSOCK_"))
        .collect();
    for k in vars {
        std::env::remove_var(k);
    }
    let Some(work) = workload(&args.workload) else {
        eprintln!("hpsock-perfbench: unknown workload {:?}", args.workload);
        std::process::exit(2);
    };

    let counts: Vec<usize> = work.shapes.iter().map(|s| s.1).collect();
    let per_round: usize = counts.iter().sum();
    // At least 100 jobs, so ten lie beyond the nearest-rank p90.
    let rounds = ((args.seconds * work.rounds_per_second).round() as usize)
        .max(100usize.div_ceil(per_round));
    let jobs = job_list(&counts, rounds, args.seed);

    // Warm-up: one untimed job of each shape, with the seed of that
    // shape's first timed job and a single `run()`, so the timed job
    // also checks determinism and the split start.
    let first: Vec<usize> = (0..counts.len())
        .map(|s| {
            jobs.iter()
                .position(|j| j.0 == s)
                .expect("every shape is listed")
        })
        .collect();
    let warm: Vec<Outcome> = first
        .iter()
        .map(|&j| {
            work.shapes[jobs[j].0]
                .0
                .run(jobs[j].1, Drive::Single, false)
        })
        .collect();

    // The timed pass, with a host-speed sample before every job and one
    // after the last. Every host time reported below is normalised by
    // them (see `host.rs`); the raw pass time is reported beside.
    let mut reference = host::Reference::new();
    let mut samples = Vec::with_capacity(jobs.len() + 1);
    let mut done: Vec<Outcome> = Vec::with_capacity(jobs.len());
    for &(s, seed) in &jobs {
        samples.push(reference.sample());
        done.push(work.shapes[s].0.run(seed, Drive::Split, args.traced));
    }
    samples.push(reference.sample());
    let rss = peak_rss_mb();
    let raw_wall_s = done.iter().map(|o| o.phases.job_ns()).sum::<u64>() as f64 / 1e9;
    for (o, f) in done.iter_mut().zip(host::factors(&samples)) {
        o.scale(f);
    }
    let wall_s = done.iter().map(|o| o.phases.job_ns()).sum::<u64>() as f64 / 1e9;

    for (s, &j) in first.iter().enumerate() {
        let (w, t) = (&warm[s], &done[j]);
        if (w.digest, w.events, w.end, &w.outputs) != (t.digest, t.events, t.end, &t.outputs) {
            let e = format!(
                "shape {s}: run twice (single run() vs run_until(0) + run()) gave \
                 digest {:#x}/{:#x}, events {}/{}",
                w.digest, t.digest, w.events, t.events
            );
            done[j].errors.push(e);
        }
        if !args.traced {
            if let Err(e) = work.shapes[s].0.fidelity(jobs[j].1, &done[j]) {
                done[j].errors.push(format!("shape {s} fidelity: {e}"));
            }
        }
    }

    let mut metrics: Vec<(String, f64)> = Vec::new();
    let mut m = |k: &str, v: f64| metrics.push((k.to_string(), v));
    let mut job_ms: Vec<f64> = done
        .iter()
        .map(|o| o.phases.job_ns() as f64 / 1e6)
        .collect();
    job_ms.sort_by(f64::total_cmp);
    let sum = |f: &dyn Fn(&Outcome) -> u64| done.iter().map(f).sum::<u64>() as f64;
    let events = sum(&|o| o.events);
    m("wall_s", wall_s);
    m("job_ms_p50", percentile(&job_ms, 0.5));
    m("job_ms_p90", percentile(&job_ms, 0.9));
    m("setup_s", sum(&|o| o.phases.setup_ns) / 1e9);
    m("peak_rss_mb", rss);
    m("host.raw_wall_s", raw_wall_s);
    m(
        "host.ref_ms",
        median(samples.iter().map(|&ns| ns as f64 / 1e6).collect()),
    );
    let mut c = Counters::default();
    for o in &done {
        c.add(&o.counters);
    }
    m("sim.events", events);
    m("sim.ns_per_event", ratio(sum(&|o| o.phases.run_ns), events));
    m("sim.start_ms", sum(&|o| o.phases.start_ns) / 1e6);
    m("sim.drop_ms", sum(&|o| o.phases.drop_ns) / 1e6);
    m("net.build_ms", sum(&|o| o.phases.build_ns) / 1e6);
    m("net.frames_tx", c.frames_tx as f64);
    m("net.rx_interrupts", c.rx_interrupts as f64);
    m("net.credit_stall_ms", c.credit_stall_ns as f64 / 1e6);
    m(
        "net.delivered_frac",
        ratio(c.bytes_delivered as f64, c.bytes_sent as f64),
    );
    m("dc.buffers", c.dc_buffers as f64);
    m(
        "dc.queue_wait_us",
        ratio(c.queue_wait_us_sum, c.queue_wait_n as f64),
    );
    m("dc.retries", c.retries as f64);
    m("dc.failovers", c.failovers as f64);
    m("dc.stream_errors", c.stream_errors as f64);
    m("dc.stale", c.stale as f64);
    m(
        "dc.availability",
        ratio(c.faulted_processed as f64, c.faulted_blocks as f64),
    );
    m("viz.outstanding", c.viz_outstanding as f64);
    m(
        "viz.partial_us_mean",
        ratio(c.viz_partial_us_sum, c.viz_partial_n as f64),
    );
    m(
        "viz.sustained_frac",
        ratio(c.viz_sustained as f64, c.viz_jobs as f64),
    );

    let mut table = Vec::new();
    let mut errors: Vec<String> = Vec::new();
    let mut attempted = done.len();
    let mut failed = done.iter().filter(|o| !o.errors.is_empty()).count();
    if args.traced {
        let mut by_layer: BTreeMap<Layer, (u64, u64)> = BTreeMap::new();
        for o in &done {
            for &(l, ns, ev) in &o.layers {
                let e = by_layer.entry(l).or_default();
                e.0 += ns;
                e.1 += ev;
            }
        }
        let setup_other = sum(&|o| o.phases.setup_ns - o.phases.start_ns);
        let drop_ns = sum(&|o| o.phases.drop_ns);
        let traced_ns = sum(&|o| o.phases.job_ns());
        table.push(("setup (build + install)".to_string(), setup_other, 0.0));
        for l in Layer::ALL {
            let (ns, ev) = by_layer.get(&l).copied().unwrap_or_default();
            table.push((l.name().to_string(), ns as f64, ev as f64));
        }
        table.push(("sim.drop".to_string(), drop_ns, 0.0));
        let layer = |l: Layer| by_layer.get(&l).copied().unwrap_or_default();
        for (name, l) in [
            ("net.engine", Layer::NetEngine),
            ("net.fluid", Layer::NetFluid),
            ("dc", Layer::Dc),
            ("viz", Layer::Viz),
            ("bench.load", Layer::BenchLoad),
        ] {
            let (ns, ev) = layer(l);
            m(&format!("{name}.self_ms"), ns as f64 / 1e6);
            if matches!(l, Layer::NetEngine | Layer::NetFluid | Layer::Dc) {
                m(&format!("{name}.events"), ev as f64);
            }
        }
        let (fns, fev) = layer(Layer::NetFluid);
        m("net.fluid.ns_per_event", ratio(fns as f64, fev as f64));
        let unattributed = layer(Layer::Unattributed).0 as f64;
        m(
            "trace.attributed_pct",
            100.0 * ratio(traced_ns - unattributed, traced_ns),
        );
        m("trace.wall_s", wall_s);
        // The micro-measurement checks its inputs' outputs before timing
        // them, so it counts as one more operation.
        attempted += 1;
        match (work.micro)(args.seed) {
            Ok(v) => {
                for (k, x) in v {
                    m(k, x);
                }
            }
            Err(e) => {
                failed += 1;
                errors.push(format!("micro-measurement: {e}"));
            }
        }
        m("core.fig4_err_pct", micro::fig4_err_pct());
    }

    errors.extend(done.iter().flat_map(|o| o.errors.iter().cloned()).take(10));
    let digest_fold = done
        .iter()
        .fold(0u64, |h, o| mix(h ^ o.digest).wrapping_add(o.events));

    let mut shapes = Vec::new();
    for (s, &n) in counts.iter().enumerate() {
        let ms: Vec<f64> = done
            .iter()
            .zip(&jobs)
            .filter(|(_, j)| j.0 == s)
            .map(|(o, _)| o.phases.job_ns() as f64 / 1e6)
            .collect();
        shapes.push(format!(
            "[{}, {}, {}, {}]",
            json_str(&work.shapes[s].0.label()),
            n * rounds,
            median(ms),
            done[first[s]].events
        ));
    }
    let table_json: Vec<String> = table
        .iter()
        .map(|(k, ns, ev)| format!("[{}, {}, {}]", json_str(k), ns / 1e6, ev))
        .collect();
    let errors_json: Vec<String> = errors.iter().map(|e| json_str(e)).collect();
    println!(
        "{{\"workload\": {}, \"seed\": {}, \"mode\": {}, \"attempted\": {}, \"failed\": {}, \
         \"jobs\": {}, \"beyond_p90\": {}, \"digest_fold\": \"{:#018x}\", \"metrics\": {}, \
         \"shapes\": [{}], \"table_ms\": [{}], \"errors\": [{}]}}",
        json_str(&args.workload),
        args.seed,
        json_str(if args.traced { "traced" } else { "plain" }),
        attempted,
        failed,
        done.len(),
        done.len() - ((0.9 * done.len() as f64).ceil() as usize),
        digest_fold,
        json_map(&metrics),
        shapes.join(", "),
        table_json.join(", "),
        errors_json.join(", ")
    );
}
