//! Cross-crate determinism: identical seeds produce bit-identical event
//! traces through the full stack (kernel → transports → DataCutter →
//! application), and different seeds genuinely diverge where randomness is
//! involved.

use hpsock_net::{Cluster, TransportKind};
use hpsock_sim::{Recorder, Sim};
use hpsock_vizserver::{
    complete_update, zoom_query, BlockedImage, ComputeModel, PipelineCfg, Plan, QueryDesc,
    QueryDriver, VizPipeline,
};
use socketvia::Provider;

fn run_pipeline(seed: u64, kind: TransportKind) -> (u64, u64, f64) {
    run_pipeline_probed(seed, kind, None)
}

fn run_pipeline_probed(seed: u64, kind: TransportKind, rec: Option<&Recorder>) -> (u64, u64, f64) {
    let img = BlockedImage::paper_image(262_144);
    let queries: Vec<QueryDesc> = vec![zoom_query(&img), complete_update(&img), zoom_query(&img)];
    let mut sim = Sim::new(seed);
    if let Some(r) = rec {
        sim.attach_probe(r.probe());
    }
    let cluster = Cluster::build(&mut sim, VizPipeline::nodes_needed(3));
    let cfg = PipelineCfg::paper(Provider::new(kind), ComputeModel::paper_linear());
    let (driver_pid, targets) = QueryDriver::install(&mut sim, Plan::ClosedLoop(queries));
    let pipe = VizPipeline::build(&mut sim, &cluster, &cfg, driver_pid);
    *targets.lock().unwrap() = pipe.repo_pids();
    sim.run();
    let d: &QueryDriver = sim.process(driver_pid).unwrap();
    (
        sim.trace_digest(),
        sim.events_dispatched(),
        d.mean_latency_all_us().unwrap(),
    )
}

#[test]
fn same_seed_same_trace_socketvia() {
    assert_eq!(
        run_pipeline(7, TransportKind::SocketVia),
        run_pipeline(7, TransportKind::SocketVia)
    );
}

#[test]
fn same_seed_same_trace_tcp() {
    assert_eq!(
        run_pipeline(7, TransportKind::KTcp),
        run_pipeline(7, TransportKind::KTcp)
    );
}

/// The probe bus is purely observational: attaching a [`Recorder`] must
/// leave the trace digest, dispatch count and measured latencies
/// bit-identical to the unprobed run — probes draw no randomness and
/// insert no events.
#[test]
fn recorder_does_not_perturb_the_trace() {
    for kind in [TransportKind::SocketVia, TransportKind::KTcp] {
        let bare = run_pipeline(7, kind);
        let rec = Recorder::new();
        let probed = run_pipeline_probed(7, kind, Some(&rec));
        assert_eq!(bare, probed, "recorder perturbed a {kind:?} run");
        assert!(rec.dispatches() > 0, "recorder saw kernel dispatches");
        assert!(!rec.is_empty(), "recorder buffered probe events");
        assert_eq!(
            rec.dispatches(),
            probed.1,
            "recorder counted every dispatch"
        );
    }
}

/// Payload storage strategy (inline vs forced-boxed) is invisible to the
/// trace: the digest folds `(time, target)` per dispatch, never the
/// payload's storage kind, so the same workload run with `Message::new`
/// (inline/pooled) and with `Payload::boxed` (heap) must be bit-identical.
#[test]
fn payload_storage_kind_does_not_change_the_digest() {
    use hpsock_sim::{Ctx, Dur, Message, Payload, Process};

    struct Relay {
        remaining: u64,
        force_boxed: bool,
    }
    impl Process for Relay {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.send_self_in(Dur::nanos(3), self.wrap(0));
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
            let v = msg.downcast::<u64>().expect("relay counter");
            if self.remaining > 0 {
                self.remaining -= 1;
                ctx.trace_tag(v);
                ctx.send_self_in(Dur::nanos(1 + v % 5), self.wrap(v + 1));
            }
        }
    }
    impl Relay {
        fn wrap(&self, v: u64) -> Message {
            if self.force_boxed {
                Payload::boxed(v)
            } else {
                Message::new(v)
            }
        }
    }

    fn digest_of(force_boxed: bool) -> (u64, u64) {
        let mut sim = Sim::new(5);
        sim.add_process(Box::new(Relay {
            remaining: 500,
            force_boxed,
        }));
        sim.run();
        (sim.trace_digest(), sim.events_dispatched())
    }

    assert_eq!(digest_of(false), digest_of(true));
}

#[test]
fn heterogeneous_runs_are_seed_reproducible_and_seed_sensitive() {
    use hpsock_vizserver::{dd_execution_time, LbSetup};
    let setup = LbSetup::paper(TransportKind::SocketVia);
    let a1 = dd_execution_time(&setup, 0.5, 8.0, 256, 11);
    let a2 = dd_execution_time(&setup, 0.5, 8.0, 256, 11);
    assert_eq!(a1, a2, "same seed, same execution time");
    let b = dd_execution_time(&setup, 0.5, 8.0, 256, 12);
    assert_ne!(a1, b, "different seed draws different slowdowns");
}

/// The probed variants of the LB and query drivers are observational
/// too: a probed fig10 sweep renders a byte-identical table to the
/// unprobed one, and probed fig9/fig11 measurements match the unprobed
/// runs to the bit — while the recorder demonstrably saw the run.
#[test]
fn probed_lb_runs_render_byte_identical_tables() {
    use hpsock_experiments::runner::{FIG10_SEED, FIG11_SEED, FIG9_SEED};
    use hpsock_experiments::{fig10, fig11, fig9};
    use hpsock_sim::SimTime;

    let factors = [4.0, 8.0];
    let rows_of = |probed: bool| -> Vec<fig10::Row> {
        factors
            .iter()
            .map(|&f| {
                let measure = |kind: TransportKind| {
                    if probed {
                        let rec = Recorder::new();
                        let (v, cap) =
                            fig10::reaction_probed(kind, f, FIG10_SEED, |_| Some(rec.probe()));
                        assert!(!rec.is_empty(), "recorder buffered LB probe events");
                        assert!(cap.end > SimTime::ZERO, "capture records the end time");
                        assert_eq!(
                            cap.resource_names.len(),
                            cap.servers.len(),
                            "one server count per resource"
                        );
                        v
                    } else {
                        fig10::reaction_us(kind, f, FIG10_SEED)
                    }
                };
                fig10::Row {
                    factor: f,
                    sv: vec![measure(TransportKind::SocketVia)],
                    tcp: vec![measure(TransportKind::KTcp)],
                }
            })
            .collect()
    };
    let bare = fig10::to_table(&rows_of(false)).to_csv();
    let probed = fig10::to_table(&rows_of(true)).to_csv();
    assert_eq!(bare, probed, "probing perturbed the fig10 table");

    let rec = Recorder::new();
    let (probed_us, cap) = fig11::exec_probed(TransportKind::KTcp, 0.5, 4.0, FIG11_SEED, |_| {
        Some(rec.probe())
    });
    let bare_us = fig11::exec_us(TransportKind::KTcp, 0.5, 4.0, FIG11_SEED);
    assert_eq!(
        bare_us.to_bits(),
        probed_us.to_bits(),
        "probing perturbed fig11: {bare_us} vs {probed_us}"
    );
    assert!(!rec.is_empty(), "recorder buffered DD probe events");
    assert!(cap.end > SimTime::ZERO);

    let rec = Recorder::new();
    let (probed_ms, _) = fig9::mean_response_probed(
        TransportKind::SocketVia,
        ComputeModel::None,
        8,
        0.5,
        3,
        FIG9_SEED,
        |_| Some(rec.probe()),
    );
    let bare_ms = fig9::mean_response_ms(
        TransportKind::SocketVia,
        ComputeModel::None,
        8,
        0.5,
        3,
        FIG9_SEED,
    );
    assert_eq!(
        bare_ms.to_bits(),
        probed_ms.to_bits(),
        "probing perturbed fig9: {bare_ms} vs {probed_ms}"
    );
    assert!(!rec.is_empty(), "recorder buffered query-mix probe events");
}

#[test]
fn microbench_results_are_deterministic() {
    use socketvia::microbench;
    let p = Provider::new(TransportKind::SocketVia);
    let a = microbench::oneway_us(&p, 1_024, 8);
    let b = microbench::oneway_us(&p, 1_024, 8);
    assert_eq!(a.to_bits(), b.to_bits());
    let bw1 = microbench::streaming_mbps(&p, 8_192, 64);
    let bw2 = microbench::streaming_mbps(&p, 8_192, 64);
    assert_eq!(bw1.to_bits(), bw2.to_bits());
}

// ---------------------------------------------------------------------
// Sharded-kernel determinism: `HPSOCK_SHARDS=2` and `=4` must produce
// trace digests and rendered tables byte-identical to the sequential
// run for the figure smoke configurations. Any divergence in event
// order, float accumulation order, or RNG stream shows up here.
// The count is injected with `with_shard_count` — a scoped thread-local
// override of `HPSOCK_SHARDS` — never `std::env::set_var`, which is
// undefined behaviour on glibc while sibling tests on other threads call
// `getenv`, and which would leak the setting to concurrent tests.

/// Run `f` once per shard count in `counts`, returning the outputs in
/// order.
fn per_shard_count<T>(counts: &[usize], mut f: impl FnMut() -> T) -> Vec<T> {
    counts
        .iter()
        .map(|&n| hpsock_sim::shard::with_shard_count(n, &mut f))
        .collect()
}

#[test]
fn fig4_tables_are_shard_count_invariant() {
    use hpsock_experiments::fig4;
    // The micro-benchmarks run 2-node sims, so 4 requested shards also
    // exercise the clamp path (down to 2) on the way.
    let runs = per_shard_count(&[1, 2, 4], || {
        format!(
            "{}\n{}",
            fig4::latency_table(4),
            fig4::bandwidth_table(1 << 20)
        )
    });
    assert_eq!(runs[0], runs[1], "2 shards must render identical tables");
    assert_eq!(runs[0], runs[2], "4 shards must render identical tables");
}

#[test]
fn fig7_guarantee_run_is_shard_count_invariant() {
    use hpsock_experiments::runner::{run_guarantee_traced, GuaranteeRun, FIG7_SEED};
    let run = GuaranteeRun {
        kind: TransportKind::SocketVia,
        block_bytes: 65_536,
        compute: ComputeModel::None,
        target_ups: 2.0,
        n_complete: 5,
        n_partial: 3,
        seed: FIG7_SEED,
    };
    let runs = per_shard_count(&[1, 2, 4], || {
        let (result, cap) = run_guarantee_traced(&run, None);
        (format!("{result:?}"), cap.digest, cap.end)
    });
    assert_eq!(runs[0], runs[1], "2 shards: digest and result identical");
    assert_eq!(runs[0], runs[2], "4 shards: digest and result identical");
}

#[test]
fn fig9_mixed_stream_is_shard_count_invariant() {
    use hpsock_experiments::fig9;
    use hpsock_experiments::runner::FIG9_SEED;
    let runs = per_shard_count(&[1, 2, 4], || {
        let (ms, cap) = fig9::mean_response_probed(
            TransportKind::KTcp,
            ComputeModel::None,
            8,
            0.5,
            6,
            FIG9_SEED,
            |_| None,
        );
        (ms.to_bits(), cap.digest, cap.end)
    });
    assert_eq!(runs[0], runs[1], "2 shards: digest and response identical");
    assert_eq!(runs[0], runs[2], "4 shards: digest and response identical");
}

// ---------------------------------------------------------------------
// Flow-model determinism: `HPSOCK_NETMODEL=flow` replaces per-segment
// wire events with fluid fair-share completions, but the digest contract
// is unchanged — same seed, same trace, and sharded execution replays
// the sequential run bit for bit. The model is injected with
// `with_netmodel` (scoped thread-local, like `with_shard_count`).

/// The big rack topology under the fluid model is reproducible and
/// shard-count invariant, on both the default SocketVIA workload and the
/// TCP gate workload whose packet run is ~20× more expensive.
#[test]
fn flow_model_big_topology_is_shard_count_invariant() {
    use hpsock_experiments::bigtopo::{self, GATE_BYTES};
    use hpsock_net::{with_netmodel, NetModel};
    with_netmodel(NetModel::Flow, || {
        let seq = bigtopo::run_big(1, 3);
        assert_eq!(seq, bigtopo::run_big(1, 3), "same seed, same fluid trace");
        assert_eq!(seq, bigtopo::run_big(2, 3), "2 shards replay sequential");
        assert_eq!(seq, bigtopo::run_big(4, 3), "4 shards replay sequential");
        let tcp = |shards| bigtopo::run_big_custom(shards, 3, TransportKind::KTcp, GATE_BYTES);
        let seq = tcp(1);
        assert_eq!(seq, tcp(2), "2 shards replay the TCP gate workload");
        assert_eq!(seq, tcp(4), "4 shards replay the TCP gate workload");
    });
}

/// The fig9 mixed query stream under the fluid model: digest and
/// measured response are shard-count invariant, like the packet run.
#[test]
fn flow_model_fig9_is_shard_count_invariant() {
    use hpsock_experiments::fig9;
    use hpsock_experiments::runner::FIG9_SEED;
    use hpsock_net::{with_netmodel, NetModel};
    let runs = with_netmodel(NetModel::Flow, || {
        per_shard_count(&[1, 2, 4], || {
            let (ms, cap) = fig9::mean_response_probed(
                TransportKind::KTcp,
                ComputeModel::None,
                8,
                0.5,
                6,
                FIG9_SEED,
                |_| None,
            );
            (ms.to_bits(), cap.digest, cap.end)
        })
    });
    assert_eq!(runs[0], runs[1], "2 shards: fluid digest identical");
    assert_eq!(runs[0], runs[2], "4 shards: fluid digest identical");
}

// ---------------------------------------------------------------------
// Telemetry neutrality: `HPSOCK_TELEMETRY` measures wall-clock behaviour
// but must never touch simulated behaviour — digests, dispatch counts
// and rendered tables are byte-identical with telemetry on and off, for
// sequential and sharded runs alike. The directory is injected with
// `with_telemetry_dir` (scoped thread-local, like `with_shard_count`).

// ---------------------------------------------------------------------
// Fault-layer neutrality and reproducibility: installing the
// `net::fault` layer without an active plan must leave every figure
// byte-identical (the fault hooks sit on the delivery path of every
// transport), and an *active* seeded plan must itself be deterministic —
// same digest across invocations and across shard counts, because fault
// decisions draw from the sim's seeded RNG at the faulting endpoint,
// never from ambient entropy.

/// An inactive fault plan (empty spec and an explicit `None` override)
/// renders fig4 tables and the fig7 guarantee digest byte-identical to
/// a run with no fault scope installed at all.
#[test]
fn inactive_fault_plan_is_digest_and_table_neutral() {
    use hpsock_experiments::fig4;
    use hpsock_experiments::runner::{run_guarantee_traced, GuaranteeRun, FIG7_SEED};
    use hpsock_net::fault;

    let run = GuaranteeRun {
        kind: TransportKind::SocketVia,
        block_bytes: 65_536,
        compute: ComputeModel::None,
        target_ups: 2.0,
        n_complete: 5,
        n_partial: 3,
        seed: FIG7_SEED,
    };
    let observe = || {
        let (result, cap) = run_guarantee_traced(&run, None);
        let tables = format!(
            "{}\n{}",
            fig4::latency_table(3),
            fig4::bandwidth_table(1 << 18)
        );
        (format!("{result:?}"), cap.digest, cap.end, tables)
    };
    let bare = observe();
    let empty_spec = fault::with_spec("", observe);
    assert_eq!(
        bare, empty_spec,
        "an empty HPSOCK_FAULTS spec changed a digest or a table"
    );
    let none_override = fault::with_plan(None, observe);
    assert_eq!(
        bare, none_override,
        "a None fault override changed a digest or a table"
    );
}

/// A seeded fault run (1% drop on every link) is reproducible: the same
/// seed yields the same trace digest and recovery counters on every
/// invocation, and sharded execution (`HPSOCK_SHARDS=2`) replays the
/// exact same faults as the sequential run.
#[test]
fn seeded_fault_run_is_reproducible_and_shard_count_invariant() {
    use hpsock_experiments::fig_faults;
    use hpsock_experiments::runner::FIG_FAULTS_SEED;

    let spec = "drop=0.01,detect=100us,backoff=100us";
    let observe = || {
        let o = fig_faults::availability_run(TransportKind::SocketVia, spec, true, FIG_FAULTS_SEED);
        format!("{o:?}")
    };
    let first = observe();
    assert_eq!(first, observe(), "same seed, same faults, same recovery");
    let sharded = per_shard_count(&[1, 2], observe);
    assert_eq!(first, sharded[0], "shard scope (1) left the run unchanged");
    assert_eq!(first, sharded[1], "2 shards replayed the same faults");
    assert!(
        first.contains("digest"),
        "outcome debug form carries the trace digest: {first}"
    );
}

#[test]
fn telemetry_is_digest_and_table_neutral() {
    use hpsock_experiments::fig4;
    use hpsock_experiments::runner::{run_guarantee_traced, GuaranteeRun, FIG7_SEED};
    use hpsock_sim::telemetry::with_telemetry_dir;

    let dir = std::env::temp_dir().join(format!("hpsock_det_tel_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let run = GuaranteeRun {
        kind: TransportKind::SocketVia,
        block_bytes: 65_536,
        compute: ComputeModel::None,
        target_ups: 2.0,
        n_complete: 5,
        n_partial: 3,
        seed: FIG7_SEED,
    };
    let observe = || {
        per_shard_count(&[1, 2], || {
            let (result, cap) = run_guarantee_traced(&run, None);
            let tables = format!(
                "{}\n{}",
                fig4::latency_table(3),
                fig4::bandwidth_table(1 << 18)
            );
            (format!("{result:?}"), cap.digest, cap.end, tables)
        })
    };
    let bare = observe();
    let telemetered = with_telemetry_dir(Some(&dir), observe);
    assert_eq!(
        bare, telemetered,
        "telemetry changed a digest or a rendered table"
    );

    // The sharded leg of the telemetered pass wrote real output files.
    for file in ["shard_rounds.csv", "run_report.json", "shard_lanes.json"] {
        let meta = std::fs::metadata(dir.join(file))
            .unwrap_or_else(|e| panic!("{file} missing under HPSOCK_TELEMETRY: {e}"));
        assert!(meta.len() > 0, "{file} is empty");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Pinned outputs of the flow-level fabric and its packet twin: event
/// counts, virtual end times and trace digests recorded before the fluid
/// core's reallocation and the node cores' connection tables were
/// rewritten for speed. Those rewrites must change host time only, so
/// every figure here stays exactly as recorded.
#[test]
fn fabric_outputs_match_pinned_values() {
    use hpsock_experiments::bigtopo::{self, GATE_BYTES};
    use hpsock_experiments::fig_scale::run_scale_point;
    use hpsock_net::{with_netmodel, NetModel};

    // (model, nodes, clients per node) -> (events, end ms)
    let scale = [
        (NetModel::Flow, 128, 4, 28_160, 22.979551),
        (NetModel::Flow, 512, 1, 41_216, 8.673275),
        (NetModel::Packet, 64, 2, 33_792, 8.593925),
    ];
    for (model, nodes, cpn, events, end_ms) in scale {
        let p = run_scale_point(model, nodes, cpn, 8);
        assert_eq!(
            (p.events, p.end_ms),
            (events, end_ms),
            "{model:?} scale point {nodes} nodes x{cpn}"
        );
    }

    // (model, transport, bytes, msgs per conn) -> (end ns, digest, events)
    let big = [
        (
            NetModel::Flow,
            TransportKind::SocketVia,
            bigtopo::BYTES,
            100,
            17_245_900,
            0x8bea_ede6_ea1e_f2b5,
            38_400,
        ),
        (
            NetModel::Flow,
            TransportKind::KTcp,
            GATE_BYTES,
            100,
            53_598_111,
            0xf890_b102_8a5e_9296,
            38_400,
        ),
        (
            NetModel::Packet,
            TransportKind::SocketVia,
            bigtopo::BYTES,
            100,
            17_252_300,
            0x673f_ed04_eaf5_73f3,
            57_600,
        ),
        (
            NetModel::Packet,
            TransportKind::KTcp,
            GATE_BYTES,
            20,
            10_771_991,
            0x33a3_1e38_86ca_156b,
            153_600,
        ),
    ];
    for (model, kind, bytes, msgs, end_ns, digest, events) in big {
        let (end, got_digest, got_events) =
            with_netmodel(model, || bigtopo::run_big_custom(1, msgs, kind, bytes));
        assert_eq!(
            (end.as_nanos(), got_digest, got_events),
            (end_ns, digest, events),
            "{model:?} big topology over {}",
            kind.label()
        );
    }
}
