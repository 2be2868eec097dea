//! `viz-guarantee`: the Figure 5 pipeline under an open-loop stream of
//! complete updates at Figure 7's target rates, with interleaved partial
//! probes, under the packet engine.

use crate::harness::{check_conservation, drive, Counters, Drive, JobShape, Outcome};
use hpsock_experiments::runner::{probe_indices, run_guarantee, GuaranteeRun};
use hpsock_net::{fault, with_netmodel, Cluster, NetModel, TransportKind};
use hpsock_sim::{Dur, Sim, SimTime};
use hpsock_vizserver::{
    block_size_for_update_rate, complete_update, partial_update, BlockedImage, ComputeModel,
    PipelineCfg, Plan, QueryDriver, QueryKind, VizPipeline,
};
use socketvia::{PerfCurve, Provider};
use std::time::Instant;

/// The paper's 16 MB image.
const IMAGE_BYTES: u64 = 16 * 1024 * 1024;

/// One job shape: a transport carrying blocks planned against its own
/// curve for a Figure 7 target rate.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    kind: TransportKind,
    compute: ComputeModel,
    ups: f64,
    block: u64,
    n_complete: u32,
    n_partial: u32,
}

impl Shape {
    fn new(kind: TransportKind, compute: ComputeModel, ups: f64, n_complete: u32) -> Shape {
        let block = block_size_for_update_rate(&PerfCurve::from_kind(kind), IMAGE_BYTES, ups)
            .expect("the shape's rate is feasible for its transport");
        Shape {
            kind,
            compute,
            ups,
            block,
            n_complete,
            n_partial: 4,
        }
    }

    fn run_cfg(&self, seed: u64) -> GuaranteeRun {
        GuaranteeRun {
            kind: self.kind,
            block_bytes: self.block,
            compute: self.compute,
            target_ups: self.ups,
            n_complete: self.n_complete,
            n_partial: self.n_partial,
            seed,
        }
    }
}

/// The shapes and how many of each one round of the job list holds.
/// Each shape costs at least 1.6x the one before it. The p50 rank sits
/// near the top of the TCP 18 ns/B block and the p90 rank near the top of
/// the SocketVIA no-compute block (see README.md).
pub fn shapes() -> Vec<(Shape, usize)> {
    let linear = ComputeModel::paper_linear();
    let none = ComputeModel::None;
    let sv = TransportKind::SocketVia;
    let tcp = TransportKind::KTcp;
    vec![
        (Shape::new(tcp, none, 3.5, 2), 2),
        (Shape::new(tcp, linear, 2.5, 2), 9),
        (Shape::new(sv, none, 3.5, 2), 8),
        (Shape::new(sv, linear, 3.0, 2), 1),
    ]
}

impl JobShape for Shape {
    fn label(&self) -> String {
        let c = match self.compute {
            ComputeModel::None => "none",
            _ => "18ns/B",
        };
        format!(
            "{} {}B {:.2}ups {c} x{}",
            self.kind.label(),
            self.block,
            self.ups,
            self.n_complete
        )
    }

    fn run(&self, seed: u64, how: Drive, traced: bool) -> Outcome {
        let img = BlockedImage::paper_image(self.block);
        let period = Dur::from_secs_f64(1.0 / self.ups);
        let mut items: Vec<(SimTime, hpsock_vizserver::QueryDesc)> = (0..self.n_complete)
            .map(|i| (SimTime::ZERO + period.mul(i as u64), complete_update(&img)))
            .collect();
        for idx in probe_indices(self.n_complete, self.n_partial) {
            items.push((
                SimTime::ZERO + period.mul(u64::from(idx)) + period.div(2),
                partial_update(&img, 1),
            ));
        }

        let t0 = Instant::now();
        let mut sim = Sim::new(seed);
        let b0 = Instant::now();
        let cluster = with_netmodel(NetModel::Packet, || {
            fault::with_plan(None, || {
                Cluster::build(&mut sim, VizPipeline::nodes_needed(3))
            })
        });
        let build_ns = b0.elapsed().as_nanos() as u64;
        let cfg = PipelineCfg::paper(Provider::new(self.kind), self.compute);
        let (driver, targets) = QueryDriver::install(&mut sim, Plan::OpenLoop(items));
        let pipe = VizPipeline::build(&mut sim, &cluster, &cfg, driver);
        *targets.lock().expect("driver target slot") = pipe.repo_pids();
        let ran = drive(sim, t0, build_ns, how, traced);

        let sim = &ran.sim;
        let mut c = Counters::default();
        c.add_network(sim, &cluster, self.kind);
        for f in [pipe.repo, pipe.stage1, pipe.stage2, pipe.viz] {
            for i in 0..pipe.inst.pids(f).len() {
                c.add_filter(&pipe.inst.copy(sim, f, i).stats);
            }
        }
        let d: &QueryDriver = sim.process(driver).expect("driver persists");
        let achieved = d.achieved_rate(QueryKind::Complete);
        let sustained = achieved.is_some_and(|r| r >= 0.95 * self.ups) && d.outstanding() == 0;
        let partial = d.mean_latency_us(QueryKind::Partial);
        c.viz_outstanding = d.outstanding() as u64;
        c.viz_jobs = 1;
        c.viz_sustained = u64::from(sustained);
        if let Some(p) = partial {
            c.viz_partial_us_sum = p;
            c.viz_partial_n = 1;
        }
        let mut errors = Vec::new();
        check_conservation(&c, &mut errors);
        if d.outstanding() != 0 {
            errors.push(format!("{} queries unanswered", d.outstanding()));
        }
        let outputs = vec![
            partial.unwrap_or(-1.0),
            d.mean_latency_us(QueryKind::Complete).unwrap_or(-1.0),
            achieved.unwrap_or(-1.0),
            f64::from(u8::from(sustained)),
        ];
        ran.finish(c, errors, outputs, &|_, _| false, false)
    }

    /// `runner::run_guarantee` on the same inputs must report what the
    /// job did.
    fn fidelity(&self, seed: u64, got: &Outcome) -> Result<(), String> {
        let r = with_netmodel(NetModel::Packet, || {
            fault::with_plan(None, || run_guarantee(&self.run_cfg(seed)))
        });
        let want = vec![
            r.partial_us.unwrap_or(-1.0),
            r.complete_us.unwrap_or(-1.0),
            r.achieved_ups.unwrap_or(-1.0),
            f64::from(u8::from(r.sustained)),
        ];
        if want != got.outputs {
            return Err(format!(
                "run_guarantee gave {want:?}, the job {:?}",
                got.outputs
            ));
        }
        Ok(())
    }
}
