//! The traced run (`--trace 1`): the per-layer breakdown.
//!
//! It times each crate's public functions from outside (`layers`), runs a
//! fixed-size traced pass of every phase (spans around `Ctx` calls and
//! inside the app closures, plus deltas of the counters the program
//! exports), compares the default cluster with one built without the flight
//! recorder and event bus, compares traced and untraced passes of the named
//! workload, and checks that virtual time repeats exactly across two passes
//! with the same seed. The passes have fixed sizes, so counter-derived
//! metrics compare across runs; `stackbench/README.md` lists which of them
//! repeat exactly for a seed.

use std::time::{Duration, Instant};

use crate::cluster::MPI_COUNTERS;
use crate::report::Report;
use crate::stats::{mean, median, quantile};
use crate::{datapath, failover, jacobi, layers, Args, Budget, Phase, Workload};

/// Sizes of the fixed traced passes: jacobi solves, failover clusters of
/// `failover::PAIRS_PER_CLUSTER` job pairs. (The datapath pass is one
/// block per bare-layer repetition.)
const JACOBI_SOLVES: usize = 3;
const FAILOVER_CLUSTERS: usize = 1;
/// Instrumentation arm: alternating default/bare cluster repetitions of
/// `INSTR_RTS` 8 B round trips each.
const INSTR_REPS: usize = 7;
const INSTR_RTS: usize = 2000;
/// Round trips of the virtual-time guard's ping-pong.
const VT_RTS: usize = 100;
/// Share of `--seconds` for each of the four passes of the tracing-overhead
/// comparison (untraced, traced, traced, untraced).
const OVERHEAD_SHARE: f64 = 0.1;
/// Serial reference solves timed for `jacobi.serial_s`.
const SERIAL_REPS: usize = 3;

pub fn run(args: &Args, rep: &mut Report) {
    let seed = args.seed;
    // The traced datapath blocks run between the bare-layer repetitions.
    let mut dp_runner = datapath::Runner::start(seed, true, true, rep);
    let bare = layers::measure(seed, rep, |rep| {
        if let Some(r) = dp_runner.as_mut() {
            r.unit(rep);
        }
    });
    let dp = dp_runner.map(|r| r.finish(rep)).unwrap_or_default();
    let jc = jacobi::run(seed, Budget::Units(JACOBI_SOLVES), true, rep);
    let fo = failover::run(seed, Budget::Units(FAILOVER_CLUSTERS), rep);

    // ---- vni, mpi ---------------------------------------------------------
    for si in 0..3 {
        let size = datapath::SIZE_NAMES[si];
        let oneway = median(&dp.oneway[si]);
        rep.metric(
            &format!("vni.fabric_oneway_us.{size}"),
            bare.fabric_oneway[si],
            "us",
        );
        rep.metric(&format!("mpi.oneway_us.{size}"), bare.mpi_oneway[si], "us");
        rep.check_nested(
            &format!("vni.fabric_oneway <= mpi.oneway at {size}"),
            bare.fabric_oneway[si],
            bare.mpi_oneway[si],
        );
        rep.check_nested(
            &format!("mpi.oneway <= ctx oneway at {size}"),
            bare.mpi_oneway[si],
            oneway,
        );
        rep.metric(
            &format!("vni.packets_per_msg.{size}"),
            dp.packets[si] as f64 / dp.msgs[si] as f64,
            "count",
        );
        rep.metric(&format!("ctx.send_us.{size}"), median(&dp.send[si]), "us");
        rep.metric(&format!("ctx.recv_us.{size}"), median(&dp.recv[si]), "us");
        rep.self_time(
            &format!("ctx.overhead_us.{size}"),
            oneway,
            bare.mpi_oneway[si],
            "us",
        );
    }
    rep.metric("vni.polled_oneway_us.8B", bare.polled_oneway_8b, "us");
    rep.metric("mpi.oneway_direct_us.8B", bare.mpi_direct_8b, "us");
    for ai in 0..2 {
        rep.metric(
            &format!("mpi.allreduce_us.{}", datapath::AR_NAMES[ai]),
            bare.mpi_allreduce[ai],
            "us",
        );
    }
    rep.self_time(
        "ctx.allreduce_gap_ms.1MiB",
        median(&dp.allreduce[1]) / 1e3,
        bare.mpi_allreduce[1] / 1e3,
        "ms",
    );
    for (w, counts) in [
        ("datapath", dp.mpi),
        ("jacobi", jc.mpi),
        ("failover", fo.mpi),
    ] {
        for (i, (name, _)) in MPI_COUNTERS.iter().enumerate() {
            rep.metric(&format!("mpi.{name}.{w}"), counts[i] as f64, "count");
        }
    }
    for (w, counts) in [("datapath", dp.mpi), ("jacobi", jc.mpi)] {
        if counts[2] != 0 {
            rep.error(format!(
                "{} retransmits on the unfaulted {w} fabric",
                counts[2]
            ));
        }
    }

    // ---- checkpoint, runtime, jacobi ---------------------------------------
    rep.metric("checkpoint.capture_us", bare.capture_us, "us");
    rep.metric("checkpoint.store_put_us", bare.put_us, "us");
    rep.metric("checkpoint.restore_us", bare.restore_us, "us");
    rep.metric("checkpoint.store_latest_us", bare.latest_us, "us");
    rep.metric("checkpoint.image_bytes", jc.image_bytes, "bytes");
    let ckpt_round = median(&jc.ckpt_ms);
    let write_ms = (bare.capture_us + bare.put_us) / 1e3;
    rep.check_nested("capture + put <= ckpt_round", write_ms, ckpt_round);
    rep.self_time("runtime.ckpt_coord_ms", ckpt_round, write_ms, "ms");
    rep.metric(
        "runtime.ctrl_msgs_per_round",
        median(&jc.ctrl_per_round),
        "count",
    );
    let phases = [
        ("jacobi.safepoint_us", &jc.safepoint_us),
        ("jacobi.halo_us", &jc.halo_us),
        ("jacobi.compute_us", &jc.compute_us),
        ("jacobi.allreduce_us", &jc.allreduce_us),
    ];
    for (name, v) in phases {
        rep.metric(name, median(v), "us");
    }
    rep.check_sum(
        "jacobi phases vs iter_us_p50",
        &phases.map(|(_, v)| median(v)),
        median(&jc.iter_us),
        0.10,
    );
    let serial: Vec<f64> = (0..SERIAL_REPS)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(jacobi::serial_solve(seed, jacobi::ITERS));
            t0.elapsed().as_secs_f64()
        })
        .collect();
    let serial_s = median(&serial);
    rep.metric("jacobi.serial_s", serial_s, "s");
    rep.metric(
        "jacobi.runtime_cost_x",
        median(&jc.solve_s) / serial_s,
        "ratio",
    );

    // ---- daemon, ensemble, host (failover) ---------------------------------
    // Means, like `submit_to_done_ms_mean`: `exit_to_done` is bimodal
    // under the 5 ms poll.
    let submit_parts = [
        mean(&fo.submit_to_entry),
        mean(&fo.entry_to_exit),
        mean(&fo.exit_to_done),
    ];
    rep.metric("failover.submit_call_us", median(&fo.submit_call_us), "us");
    rep.metric("failover.submit_to_entry_ms", submit_parts[0], "ms");
    rep.metric("failover.entry_to_exit_ms", submit_parts[1], "ms");
    rep.metric("failover.exit_to_done_ms", submit_parts[2], "ms");
    rep.check_sum(
        "failover submit phases vs submit_to_done",
        &submit_parts,
        mean(&fo.submit_to_done),
        0.10,
    );
    let kill_parts = [median(&fo.kill_to_reentry), median(&fo.reentry_to_send)];
    rep.metric("failover.kill_to_reentry_ms", kill_parts[0], "ms");
    rep.metric("failover.reentry_to_send_ms", kill_parts[1], "ms");
    rep.check_sum(
        "failover kill phases vs kill_to_first_send",
        &kill_parts,
        median(&fo.kill_to_first_send),
        0.10,
    );
    rep.metric("failover.rejoin_ms", median(&fo.rejoin), "ms");
    // Medians: a node restart's casts can land after the next job started
    // and be counted against it.
    for (kind, k) in [("fault_free", 0), ("faulty", 1)] {
        rep.metric(
            &format!("ensemble.casts_per_job.{kind}"),
            median(&fo.casts_per_job[k]),
            "count",
        );
        rep.metric(
            &format!("msg.count.control_per_job.{kind}"),
            median(&fo.ctrl_per_job[k]),
            "count",
        );
    }
    rep.metric(
        "recovery.restarts_per_faulty_job",
        median(&fo.restarts_per_faulty),
        "count",
    );
    // Model time, not wall clock: the histogram is fed from the ensemble's
    // virtual clock. The `vt_` units keep the two apart.
    rep.metric("ensemble.view_change_ms", fo.view_change_ms, "vt_ms");

    // ---- instrumentation and tracing cost -----------------------------------
    let (with, without) = instrumentation_arm(seed, rep);
    rep.self_time("instr.overhead_us.8B", with, without, "us");
    let pct = trace_overhead_pct(args, rep);
    rep.metric("bench.trace_overhead_pct", pct, "%");

    // ---- tails and the model ------------------------------------------------
    rep.metric("tail.oneway_8B_us_p99", quantile(&dp.oneway[0], 0.99), "us");
    rep.metric("tail.ckpt_round_ms_p90", quantile(&jc.ckpt_ms, 0.9), "ms");
    rep.metric(
        "tail.kill_to_first_send_ms_p90",
        quantile(&fo.kill_to_first_send, 0.9),
        "ms",
    );
    let (vt, mismatches) = vt_guard(seed, rep);
    rep.metric("vt.oneway_8B_us", vt[0], "vt_us");
    rep.metric("vt.ckpt_round_ms", vt[1], "vt_ms");
    rep.metric("vt.kill_to_first_send_ms", vt[2], "vt_ms");
    rep.metric("bench.vt_mismatches", mismatches as f64, "count");

    rep.note(format!(
        "traced samples: {} / {} / {} round trips, {} iterations, {} rounds, {} fault-free and {} faulty jobs",
        dp.oneway[0].len(),
        dp.oneway[1].len(),
        dp.oneway[2].len(),
        jc.iter_us.len(),
        jc.ckpt_ms.len(),
        fo.submit_to_done.len(),
        fo.kill_to_first_send.len()
    ));
    let violations = rep.violations() as f64;
    rep.metric("bench.nesting_violations", violations, "count");
}

/// 8 B one-way p50 on the default cluster and on one built with
/// `no_flight_recorder()` and `no_event_bus()`, alternating fresh clusters.
fn instrumentation_arm(seed: u64, rep: &mut Report) -> (f64, f64) {
    let mut with = Vec::new();
    let mut without = Vec::new();
    for _ in 0..INSTR_REPS {
        for instrumented in [true, false] {
            let job = datapath::Job::single(seed, 0, INSTR_RTS);
            let s = datapath::run_job_on(instrumented, job, rep);
            let m = median(&s.oneway[0]);
            if instrumented {
                with.push(m);
            } else {
                without.push(m);
            }
        }
    }
    (median(&with), median(&without))
}

/// Percent by which the named workload's headline metric is slower traced
/// than untraced, over interleaved passes of equal length: datapath 8 B
/// one-way, jacobi iteration time, failover kill→first send (whose stamps
/// are on in both modes, so there it is the noise floor).
fn trace_overhead_pct(args: &Args, rep: &mut Report) -> f64 {
    let budget = Budget::Time(Duration::from_secs_f64(args.seconds * OVERHEAD_SHARE));
    let mut samples = [Vec::new(), Vec::new()];
    for traced in [false, true, true, false] {
        let v = match args.workload {
            Workload::Datapath => datapath::run(args.seed, budget, traced, rep).oneway[0].clone(),
            Workload::Jacobi => jacobi::run(args.seed, budget, traced, rep).iter_us,
            Workload::Failover => failover::run(args.seed, budget, rep).kill_to_first_send,
        };
        samples[usize::from(traced)].extend(v);
    }
    let (untraced, traced) = (median(&samples[0]), median(&samples[1]));
    100.0 * (traced - untraced) / untraced
}

/// Virtual-time metrics of one pass on fresh clusters: 8 B half round trip,
/// checkpoint round, kill→first send. Two passes with the same seed must
/// agree exactly; each metric that differs is listed and counted. (The
/// recovery path's virtual time absorbs the order in which daemon casts
/// interleave, so `vt.kill_to_first_send_ms` can differ in the last
/// microseconds.)
fn vt_guard(seed: u64, rep: &mut Report) -> ([f64; 3], usize) {
    let pass = |rep: &mut Report| -> [f64; 3] {
        let dp = datapath::run_job_on(true, datapath::Job::single(seed, 0, VT_RTS), rep);
        let jc = jacobi::run_short(seed, rep);
        let fo = failover::run_short(seed, rep);
        [
            median(&dp.vt_oneway_8b),
            median(&jc.vt_ckpt_ms),
            median(&fo.vt_kill_to_first_send),
        ]
    };
    let a = pass(rep);
    let b = pass(rep);
    let mut mismatches = 0;
    for (i, name) in [
        "vt.oneway_8B_us",
        "vt.ckpt_round_ms",
        "vt.kill_to_first_send_ms",
    ]
    .iter()
    .enumerate()
    {
        if a[i].to_bits() != b[i].to_bits() {
            mismatches += 1;
            rep.note(format!(
                "virtual-time guard: {name} differs between two passes with the same seed: {} vs {}",
                a[i], b[i]
            ));
        }
    }
    (a, mismatches)
}
