//! End-to-end scenario tests of the full Starfish stack (cluster boot →
//! daemons → application processes → C/R → recovery).

use std::time::Duration;

use starfish_checkpoint::CkptValue;
use starfish_daemon::{CkptProto, FtPolicy, LevelKind};
use starfish_mpi::ReduceOp;
use starfish_util::{AppId, Rank, VirtualTime};

use crate::cluster::{Cluster, SubmitOpts};
use crate::state::CkptValueExt;

const T: Duration = Duration::from_secs(60);

#[test]
fn ring_pass_completes() {
    let cluster = Cluster::builder().nodes(3).network_bip().build().unwrap();
    cluster.register_app("ring", |ctx| {
        let n = ctx.size();
        let me = ctx.rank().0;
        // Pass a counter around the ring twice.
        if me == 0 {
            ctx.send(Rank(1 % n), 1, &[1])?;
            let m = ctx.recv(Some(Rank(n - 1)), Some(1))?;
            ctx.publish(CkptValue::Int(m.data[0] as i64));
        } else {
            let m = ctx.recv(Some(Rank(me - 1)), Some(1))?;
            ctx.send(Rank((me + 1) % n), 1, &[m.data[0] + 1])?;
        }
        Ok(())
    });
    let app = cluster
        .submit("ring", 3, SubmitOpts::default().policy(FtPolicy::Kill))
        .unwrap();
    cluster.wait_app_done(app, T).unwrap();
    assert_eq!(cluster.outputs(app, Rank(0)), vec![CkptValue::Int(3)]);
}

#[test]
fn collectives_work_through_ctx() {
    let cluster = Cluster::builder().nodes(2).build().unwrap();
    cluster.register_app("coll", |ctx| {
        let r = ctx.rank().0 as f64;
        ctx.barrier()?;
        let sum = ctx.allreduce_f64(&[r + 1.0], ReduceOp::Sum)?;
        let all = ctx.allgather(&[ctx.rank().0 as u8])?;
        ctx.publish(CkptValue::Float(sum[0]));
        ctx.publish(CkptValue::Int(all.len() as i64));
        Ok(())
    });
    let app = cluster
        .submit("coll", 4, SubmitOpts::default().policy(FtPolicy::Kill))
        .unwrap();
    cluster.wait_app_done(app, T).unwrap();
    for r in 0..4 {
        let out = cluster.outputs(app, Rank(r));
        assert_eq!(out[0], CkptValue::Float(1.0 + 2.0 + 3.0 + 4.0));
        assert_eq!(out[1], CkptValue::Int(4));
    }
}

#[test]
fn user_initiated_checkpoint_round_commits() {
    let cluster = Cluster::builder().nodes(2).build().unwrap();
    cluster.register_app("ckpt", |ctx| {
        let state = CkptValue::record(vec![("iter", CkptValue::Int(1))]);
        let dt = ctx.checkpoint(&state)?;
        if ctx.rank().0 == 0 {
            ctx.publish(CkptValue::Float(dt.as_secs_f64()));
        }
        ctx.barrier()?;
        Ok(())
    });
    let app = cluster.submit("ckpt", 2, SubmitOpts::default()).unwrap();
    cluster.wait_app_done(app, T).unwrap();
    // Both ranks stored checkpoint index 1.
    assert_eq!(cluster.store().latest_index(app, Rank(0)), 1);
    assert_eq!(cluster.store().latest_index(app, Rank(1)), 1);
    // Rank 0 measured a positive round time that includes at least the
    // VM-level image write (~7.7ms single node; here 2 nodes + sync).
    let out = cluster.outputs(app, Rank(0));
    let secs = out[0].as_float().unwrap();
    assert!(secs > 0.005, "round time {secs}s too small");
}

/// The headline fault-tolerance scenario: crash a node mid-run, watch the
/// system restart from the last coordinated checkpoint, and check the final
/// answer matches a failure-free execution.
#[test]
fn crash_restart_from_checkpoint_preserves_result() {
    let cluster = Cluster::builder().nodes(3).build().unwrap();
    cluster.register_app("survivor", |ctx| {
        let me = ctx.rank();
        let mut iter;
        let mut acc;
        match ctx.restored() {
            Some(v) => {
                iter = v.req_int("iter")?;
                acc = v.req_int("acc")?;
                ctx.publish(CkptValue::Str(format!("restored@{iter}")));
            }
            None => {
                iter = 0;
                acc = 0;
            }
        }
        while iter < 6 {
            let state = CkptValue::record(vec![
                ("iter", CkptValue::Int(iter)),
                ("acc", CkptValue::Int(acc)),
            ]);
            if iter == 3 && me.0 == 0 {
                // Coordinated checkpoint mid-run.
                ctx.checkpoint(&state)?;
            } else {
                ctx.safepoint(&state)?;
            }
            // One "compute + exchange" step: global sum of ranks. The real
            // sleep keeps the run alive long enough for the injected crash.
            std::thread::sleep(Duration::from_millis(25));
            let sums = ctx.allreduce_i64(&[me.0 as i64 + 1], ReduceOp::Sum)?;
            acc += sums[0];
            iter += 1;
        }
        ctx.publish(CkptValue::Int(acc));
        Ok(())
    });
    let app = cluster
        .submit("survivor", 3, SubmitOpts::default())
        .unwrap();

    // Let it checkpoint (all ranks at index 1), then kill a node.
    let deadline = std::time::Instant::now() + T;
    while cluster
        .store()
        .latest_common_index(app, &[Rank(0), Rank(1), Rank(2)])
        < 1
    {
        assert!(
            std::time::Instant::now() < deadline,
            "checkpoint never landed"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let victim = cluster.config().apps[&app].placement[1];
    cluster.crash_node(victim);

    cluster.wait_app_done(app, T).unwrap();
    // Expected: 6 iterations × (1+2+3) = 36, identical to failure-free.
    for r in 0..3 {
        let out = cluster.outputs(app, Rank(r));
        assert!(
            out.contains(&CkptValue::Int(36)),
            "rank {r} outputs {out:?}"
        );
    }
    // The restart actually happened from the checkpoint (not from scratch):
    // some rank published a restore marker.
    let restored_seen = (0..3).any(|r| {
        cluster
            .outputs(app, Rank(r))
            .iter()
            .any(|v| matches!(v, CkptValue::Str(s) if s.starts_with("restored@")))
    });
    assert!(
        restored_seen,
        "no rank reported restoring from a checkpoint"
    );
    // And the epoch was bumped exactly once.
    assert_eq!(cluster.config().apps[&app].epoch.0, 1);
}

#[test]
fn kill_policy_takes_app_down_on_crash() {
    let cluster = Cluster::builder().nodes(2).build().unwrap();
    cluster.register_app("fragile", |ctx| {
        let state = CkptValue::Unit;
        loop {
            ctx.safepoint(&state)?;
            ctx.advance(VirtualTime::from_millis(1));
            std::thread::sleep(Duration::from_millis(1));
        }
    });
    let app = cluster
        .submit("fragile", 2, SubmitOpts::default().policy(FtPolicy::Kill))
        .unwrap();
    std::thread::sleep(Duration::from_millis(100));
    let victim = cluster.config().apps[&app].placement[1];
    cluster.crash_node(victim);
    cluster
        .wait_app(app, T, |a| a.status == starfish_daemon::AppStatus::Killed)
        .unwrap();
}

/// Dynamicity (paper §3.2.1): a trivially parallel app under the NotifyView
/// policy repartitions over the survivors after a crash.
#[test]
fn notify_view_policy_repartitions() {
    let cluster = Cluster::builder().nodes(3).build().unwrap();
    cluster.register_app("adaptive", |ctx| {
        let state = CkptValue::Unit;
        // Work is 12 items; each alive rank owns a slice.
        let me = ctx.rank();
        let mut covered: Vec<i64> = Vec::new();
        for round in 0..40 {
            ctx.safepoint(&state)?;
            let alive = ctx.alive_ranks();
            if !alive.contains(&me) {
                break;
            }
            let k = alive.iter().position(|r| *r == me).unwrap();
            let share = 12 / alive.len();
            for item in (k * share)..((k + 1) * share) {
                if !covered.contains(&(item as i64)) {
                    covered.push(item as i64);
                }
            }
            // Round 20 publishes a progress marker so the test can inject
            // the failure in the middle.
            if round == 20 && me.0 == 0 {
                ctx.publish(CkptValue::Str("mid".into()));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        covered.sort_unstable();
        ctx.publish(CkptValue::IntArray(covered));
        Ok(())
    });
    let app = cluster
        .submit(
            "adaptive",
            3,
            SubmitOpts::default().policy(FtPolicy::NotifyView),
        )
        .unwrap();
    cluster.wait_outputs(app, Rank(0), 1, T).unwrap();
    let victim = cluster.config().apps[&app].placement[2];
    cluster.crash_node(victim);
    // Ranks 0 and 1 finish and together cover a larger share after the
    // crash (6 items each instead of 4).
    let out0 = cluster.wait_outputs(app, Rank(0), 2, T).unwrap();
    let out1 = cluster.wait_outputs(app, Rank(1), 1, T).unwrap();
    let cov0 = match &out0[1] {
        CkptValue::IntArray(v) => v.clone(),
        other => panic!("unexpected {other:?}"),
    };
    let cov1 = match &out1[0] {
        CkptValue::IntArray(v) => v.clone(),
        other => panic!("unexpected {other:?}"),
    };
    let mut union: Vec<i64> = cov0.iter().chain(cov1.iter()).copied().collect();
    union.sort_unstable();
    union.dedup();
    assert_eq!(
        union,
        (0..12).collect::<Vec<i64>>(),
        "full coverage after repartition"
    );
    assert!(
        cov0.len() >= 6,
        "rank 0 took over part of the lost share: {cov0:?}"
    );
}

#[test]
fn suspend_resume_via_cluster_api() {
    let cluster = Cluster::builder().nodes(1).build().unwrap();
    cluster.register_app("pausable", |ctx| {
        let state = CkptValue::Unit;
        for i in 0..30 {
            ctx.safepoint(&state)?;
            if i == 5 {
                ctx.publish(CkptValue::Int(5));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        ctx.publish(CkptValue::Str("done".into()));
        Ok(())
    });
    let app = cluster
        .submit("pausable", 1, SubmitOpts::default())
        .unwrap();
    cluster.wait_outputs(app, Rank(0), 1, T).unwrap();
    cluster.suspend(app).unwrap();
    cluster
        .wait_app(app, T, |a| {
            a.status == starfish_daemon::AppStatus::Suspended
        })
        .unwrap();
    // While suspended it must not finish.
    std::thread::sleep(Duration::from_millis(150));
    assert_ne!(
        cluster.app_status(app),
        Some(starfish_daemon::AppStatus::Done)
    );
    cluster.resume(app).unwrap();
    cluster.wait_app_done(app, T).unwrap();
}

#[test]
fn independent_checkpoints_have_no_coordination() {
    let cluster = Cluster::builder().nodes(2).build().unwrap();
    cluster.register_app("indep", |ctx| {
        let me = ctx.rank().0 as i64;
        let state = CkptValue::record(vec![("me", CkptValue::Int(me))]);
        // Each rank checkpoints independently: no Stop/Resume round.
        let dt = ctx.checkpoint(&state)?;
        ctx.publish(CkptValue::Float(dt.as_secs_f64()));
        Ok(())
    });
    let app = cluster
        .submit(
            "indep",
            2,
            SubmitOpts::default().proto(CkptProto::Independent),
        )
        .unwrap();
    cluster.wait_app_done(app, T).unwrap();
    assert_eq!(cluster.store().latest_index(app, Rank(0)), 1);
    assert_eq!(cluster.store().latest_index(app, Rank(1)), 1);
    // Local-only cost: well under the coordinated round times.
    let dt0 = cluster.outputs(app, Rank(0))[0].as_float().unwrap();
    assert!(dt0 > 0.0 && dt0 < 0.05, "independent ckpt took {dt0}s");
}

#[test]
fn chandy_lamport_round_commits_without_stopping() {
    let cluster = Cluster::builder().nodes(2).build().unwrap();
    cluster.register_app("cl", |ctx| {
        let state = CkptValue::record(vec![("x", CkptValue::Int(9))]);
        let me = ctx.rank().0;
        // Keep traffic flowing while the snapshot happens.
        for i in 0..10u64 {
            if me == 0 && i == 3 {
                ctx.checkpoint(&state)?;
            } else {
                ctx.safepoint(&state)?;
            }
            let peer = Rank(1 - me);
            ctx.send(peer, 40 + i, &[i as u8])?;
            let m = ctx.recv(Some(peer), Some(40 + i))?;
            assert_eq!(m.data[0], i as u8);
        }
        Ok(())
    });
    let app = cluster
        .submit(
            "cl",
            2,
            SubmitOpts::default().proto(CkptProto::ChandyLamport),
        )
        .unwrap();
    cluster.wait_app_done(app, T).unwrap();
    assert_eq!(cluster.store().latest_index(app, Rank(0)), 1);
    assert_eq!(cluster.store().latest_index(app, Rank(1)), 1);
}

#[test]
fn native_level_checkpoint_images_are_bigger() {
    let cluster = Cluster::builder().nodes(1).build().unwrap();
    cluster.register_app("nat", |ctx| {
        let state = CkptValue::Unit;
        ctx.checkpoint(&state)?;
        Ok(())
    });
    let app_vm = cluster
        .submit("nat", 1, SubmitOpts::default().level(LevelKind::Vm))
        .unwrap();
    cluster.wait_app_done(app_vm, T).unwrap();
    let app_nat = cluster
        .submit("nat", 1, SubmitOpts::default().level(LevelKind::Native))
        .unwrap();
    cluster.wait_app_done(app_nat, T).unwrap();
    let vm = cluster.store().latest(app_vm, Rank(0)).unwrap();
    let nat = cluster.store().latest(app_nat, Rank(0)).unwrap();
    // Paper §5: 260 KB vs 632 KB for the empty program.
    assert!(vm.total_bytes() >= 260 * 1024 && vm.total_bytes() < 261 * 1024);
    assert!(nat.total_bytes() >= 632 * 1024 && nat.total_bytes() < 633 * 1024);
}

#[test]
fn dynamic_node_addition_expands_cluster() {
    let cluster = Cluster::builder().nodes(2).build().unwrap();
    let new = cluster.add_node(1).unwrap(); // a SunOS big-endian box
    let cfg = cluster.config();
    assert!(cfg.nodes.contains_key(&new));
    assert_eq!(cfg.up_nodes().len(), 3);
    // New submissions can land on it.
    cluster.register_app("hello", |ctx| {
        ctx.publish(CkptValue::Int(ctx.rank().0 as i64));
        Ok(())
    });
    let app = cluster.submit("hello", 3, SubmitOpts::default()).unwrap();
    cluster.wait_app_done(app, T).unwrap();
    assert!(cluster.config().apps[&app].placement.contains(&new));
}

#[test]
fn mgmt_session_drives_whole_lifecycle() {
    let cluster = Cluster::builder().nodes(2).build().unwrap();
    cluster.register_app("job", |ctx| {
        let state = CkptValue::Unit;
        for _ in 0..5 {
            ctx.safepoint(&state)?;
        }
        Ok(())
    });
    let mut s = cluster.session();
    assert!(s.handle_line("LOGIN USER carol").starts_with("OK"));
    let resp = s.handle_line("SUBMIT job 2 POLICY kill");
    assert!(resp.starts_with("OK submitted"), "{resp}");
    let status = s.handle_line("STATUS");
    assert!(status.contains("job"), "{status}");
}

/// Robustness: crash the same workload at several different points in its
/// execution (before, during and after checkpoints); the answer must always
/// match the failure-free run.
#[test]
fn crash_at_various_times_always_recovers() {
    for delay_ms in [20u64, 80, 160, 240] {
        let cluster = Cluster::builder().nodes(3).build().unwrap();
        cluster.register_app("robust", |ctx| {
            let me = ctx.rank();
            let (mut iter, mut acc) = match ctx.restored() {
                Some(v) => (
                    v.req_int("iter").unwrap_or(0),
                    v.req_int("acc").unwrap_or(0),
                ),
                None => (0, 0),
            };
            while iter < 10 {
                let state = CkptValue::record(vec![
                    ("iter", CkptValue::Int(iter)),
                    ("acc", CkptValue::Int(acc)),
                ]);
                if iter % 3 == 0 && iter > 0 {
                    ctx.checkpoint(&state)?;
                } else {
                    ctx.safepoint(&state)?;
                }
                std::thread::sleep(Duration::from_millis(10));
                let s = ctx.allreduce_i64(&[me.0 as i64 + 1], ReduceOp::Sum)?;
                acc += s[0];
                iter += 1;
            }
            ctx.publish(CkptValue::Int(acc));
            Ok(())
        });
        let app = cluster.submit("robust", 3, SubmitOpts::default()).unwrap();
        std::thread::sleep(Duration::from_millis(delay_ms));
        // Crash whichever node currently hosts rank 1.
        let victim = cluster.config().apps[&app].placement[1];
        cluster.crash_node(victim);
        cluster
            .wait_app_done(app, Duration::from_secs(120))
            .unwrap();
        for r in 0..3 {
            let out = cluster.outputs(app, Rank(r));
            assert!(
                out.contains(&CkptValue::Int(60)), // 10 × (1+2+3)
                "delay {delay_ms}ms, rank {r}: {out:?}"
            );
        }
    }
}

/// Stop-and-sync checkpoint with a *rendezvous* transfer in flight: rank 0
/// isends a payload over the rendezvous threshold (RTS out, payload parked
/// awaiting CTS — rank 1 has not posted the receive yet) and then starts a
/// coordinated round. The flush protocol must push the parked payload ahead
/// of its marks so channel capture sees it, and the payload must arrive
/// intact exactly once after the round.
#[test]
fn checkpoint_with_rendezvous_in_flight_loses_nothing() {
    const LEN: usize = 192 * 1024; // over DEFAULT_RNDV_THRESHOLD (64 KiB)
    let cluster = Cluster::builder().nodes(2).build().unwrap();
    cluster.register_app("bigsend", |ctx| {
        let me = ctx.rank().0;
        let state = CkptValue::Unit;
        if me == 0 {
            let payload: Vec<u8> = (0..LEN).map(|i| (i % 251) as u8).collect();
            // RTS leaves, payload parks: no receive is posted on rank 1.
            let req = ctx.isend(Rank(1), 7, &payload)?;
            ctx.checkpoint(&state)?;
            ctx.wait(req)?;
            ctx.barrier()?;
        } else {
            // Let rank 0 park the transfer and start the round first.
            std::thread::sleep(Duration::from_millis(50));
            let m = ctx.recv(Some(Rank(0)), Some(7))?;
            let intact = m.data.len() == LEN
                && m.data
                    .iter()
                    .enumerate()
                    .all(|(i, b)| *b == (i % 251) as u8);
            ctx.publish(CkptValue::Int(intact as i64));
            ctx.barrier()?;
        }
        Ok(())
    });
    let app = cluster.submit("bigsend", 2, SubmitOpts::default()).unwrap();
    cluster.wait_app_done(app, T).unwrap();
    assert_eq!(cluster.outputs(app, Rank(1)), vec![CkptValue::Int(1)]);
    assert_eq!(cluster.store().latest_index(app, Rank(0)), 1);
    assert_eq!(cluster.store().latest_index(app, Rank(1)), 1);
}

/// Diskless checkpointing end to end: a replica-backed app checkpoints into
/// peer memory (nothing touches the stable store), a node dies, and the
/// recovery line is reassembled entirely from surviving peers.
#[test]
fn replica_backend_recovers_from_peer_memory_after_crash() {
    let cluster = Cluster::builder().nodes(4).build().unwrap();
    cluster.register_app("diskless", |ctx| {
        let me = ctx.rank();
        let (mut iter, mut acc) = match ctx.restored() {
            Some(v) => {
                ctx.publish(CkptValue::Str(format!("restored@{}", v.req_int("iter")?)));
                (v.req_int("iter")?, v.req_int("acc")?)
            }
            None => (0, 0),
        };
        while iter < 6 {
            let state = CkptValue::record(vec![
                ("iter", CkptValue::Int(iter)),
                ("acc", CkptValue::Int(acc)),
            ]);
            if iter == 3 && me.0 == 0 {
                ctx.checkpoint(&state)?;
            } else {
                ctx.safepoint(&state)?;
            }
            std::thread::sleep(Duration::from_millis(25));
            let sums = ctx.allreduce_i64(&[me.0 as i64 + 1], ReduceOp::Sum)?;
            acc += sums[0];
            iter += 1;
        }
        ctx.publish(CkptValue::Int(acc));
        Ok(())
    });
    let app = cluster
        .submit("diskless", 3, SubmitOpts::default().replica(2))
        .unwrap();
    let ranks = [Rank(0), Rank(1), Rank(2)];

    // Wait for the coordinated round to land in peer memory.
    let deadline = std::time::Instant::now() + T;
    while cluster.ckpt_hub().latest_common_index(app, &ranks) < 1 {
        assert!(
            std::time::Instant::now() < deadline,
            "replica checkpoint never landed"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    // The stable store saw none of it, and every rank is replicated.
    for r in ranks {
        assert_eq!(cluster.store().latest_index(app, r), 0, "disk used for {r}");
    }
    let health = cluster.ckpt_hub().replica().health(app);
    assert_eq!(health.len(), 3);
    assert!(health.iter().all(|h| h.recoverable && !h.under_replicated));

    let victim = cluster.config().apps[&app].placement[1];
    cluster.crash_node(victim);

    cluster.wait_app_done(app, T).unwrap();
    // Same answer as failure-free: 6 iterations × (1+2+3) = 36.
    for r in ranks {
        let out = cluster.outputs(app, r);
        assert!(
            out.contains(&CkptValue::Int(36)),
            "rank {r} outputs {out:?}"
        );
    }
    // The restart really came out of peer memory, not from scratch.
    let restored_seen = ranks.iter().any(|r| {
        cluster
            .outputs(app, *r)
            .iter()
            .any(|v| matches!(v, CkptValue::Str(s) if s.starts_with("restored@")))
    });
    assert!(restored_seen, "no rank restored from the replica store");
    assert_eq!(cluster.config().apps[&app].epoch.0, 1);
}

/// The management-protocol spelling of the same policy: `SUBMIT … STORE
/// replica:2` must route the round into peer memory and `CKPT STATUS`
/// must show the fragments — the path the paper's GUI drives.
#[test]
fn mgmt_submitted_replica_app_lands_fragments_in_peer_memory() {
    let cluster = Cluster::builder().nodes(3).build().unwrap();
    cluster.register_app("soak", |ctx| {
        let state = CkptValue::Unit;
        for _ in 0..400 {
            ctx.safepoint(&state)?;
            std::thread::sleep(Duration::from_millis(5));
        }
        Ok(())
    });
    let mut s = cluster.session();
    assert!(s.handle_line("LOGIN USER alice").starts_with("OK"));
    let resp = s.handle_line("SUBMIT soak 2 POLICY restart LEVEL vm PROTO sync STORE replica:2");
    assert!(resp.starts_with("OK submitted"), "{resp}");
    let id = resp.split_whitespace().nth(2).unwrap().to_string();
    let app = AppId(id.trim_start_matches("app").parse().unwrap());
    assert!(s.handle_line(&format!("CHECKPOINT {id}")).starts_with("OK"));

    let ranks = [Rank(0), Rank(1)];
    let deadline = std::time::Instant::now() + T;
    while cluster.ckpt_hub().latest_common_index(app, &ranks) < 1 {
        assert!(
            std::time::Instant::now() < deadline,
            "mgmt-submitted replica checkpoint never landed"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    for r in ranks {
        assert_eq!(cluster.store().latest_index(app, r), 0, "disk used for {r}");
    }
    let status = s.handle_line(&format!("CKPT STATUS {id}"));
    assert!(status.contains("backend=replica:2"), "{status}");
    assert!(!status.contains("no fragments"), "{status}");
    assert!(s.handle_line(&format!("DELETE {id}")).starts_with("OK"));
}

/// Checkpoint while heavy point-to-point traffic is in flight: nothing is
/// lost or duplicated across the round.
#[test]
fn checkpoint_under_heavy_traffic_loses_nothing() {
    let cluster = Cluster::builder().nodes(2).build().unwrap();
    cluster.register_app("firehose", |ctx| {
        let me = ctx.rank().0;
        let state = CkptValue::Unit;
        const N: u64 = 200;
        if me == 0 {
            // Blast messages, checkpoint mid-stream, keep blasting.
            for i in 0..N / 2 {
                ctx.send(Rank(1), i, &i.to_be_bytes())?;
            }
            ctx.checkpoint(&state)?;
            for i in N / 2..N {
                ctx.send(Rank(1), i, &i.to_be_bytes())?;
            }
            ctx.barrier()?;
        } else {
            // Consume everything, participating in the round when it comes.
            let mut sum = 0u64;
            for i in 0..N {
                let m = ctx.recv(Some(Rank(0)), Some(i))?;
                sum += u64::from_be_bytes(m.data[..8].try_into().unwrap());
            }
            ctx.publish(CkptValue::Int(sum as i64));
            ctx.barrier()?;
        }
        Ok(())
    });
    let app = cluster
        .submit("firehose", 2, SubmitOpts::default())
        .unwrap();
    cluster.wait_app_done(app, Duration::from_secs(60)).unwrap();
    let expect: u64 = (0..200u64).sum();
    assert_eq!(
        cluster.outputs(app, Rank(1)),
        vec![CkptValue::Int(expect as i64)]
    );
}

/// A rank blocked in `Ctx::recv` joins a system-initiated stop-and-sync
/// round: the daemon-relayed Stop rings its receive queue, the receive
/// returns to its service point and captures the cached safepoint state,
/// the round commits while the receive is still pending, and the receive
/// then gets the message sent after the round.
#[test]
fn blocked_receive_joins_system_initiated_round() {
    use starfish_events::EventKind;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let cluster = Cluster::builder().nodes(2).build().unwrap();
    let release = Arc::new(AtomicBool::new(false));
    let released = release.clone();
    cluster.register_app("blocked-recv", move |ctx| {
        let state = CkptValue::record(vec![("rank", CkptValue::Int(ctx.rank().0 as i64))]);
        if ctx.rank().0 == 0 {
            // The coordinator serves the round at its safepoints.
            while !released.load(Ordering::SeqCst) {
                ctx.safepoint(&state)?;
                std::thread::sleep(Duration::from_millis(1));
            }
            ctx.send(Rank(1), 5, b"after the round")?;
        } else {
            ctx.safepoint(&state)?;
            ctx.publish(CkptValue::Str("receiving".into()));
            let m = ctx.recv(Some(Rank(0)), Some(5))?;
            ctx.publish(CkptValue::Bytes(m.data.to_vec()));
        }
        Ok(())
    });
    let app = cluster
        .submit("blocked-recv", 2, SubmitOpts::default())
        .unwrap();
    cluster.wait_outputs(app, Rank(1), 1, T).unwrap();
    let mut events = cluster.events().subscribe();
    cluster.checkpoint(app).unwrap();
    let deadline = std::time::Instant::now() + T;
    let committed = |ev: &starfish_events::ClusterEvent| matches!(ev.kind, EventKind::CkptCommit { app: a, index: 1, .. } if a == app);
    while !events.poll().events.iter().any(committed) {
        assert!(
            std::time::Instant::now() < deadline,
            "round never committed"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    // Rank 1 saved its image from inside the receive, which is still
    // waiting for its message.
    assert_eq!(cluster.store().latest_index(app, Rank(1)), 1);
    assert_eq!(cluster.outputs(app, Rank(1)).len(), 1);
    release.store(true, Ordering::SeqCst);
    let out = cluster.wait_outputs(app, Rank(1), 2, T).unwrap();
    assert_eq!(out[1], CkptValue::Bytes(b"after the round".to_vec()));
    cluster.wait_app_done(app, T).unwrap();
}
