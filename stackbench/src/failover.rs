//! `failover`: a loop of short 2-rank `FtPolicy::Restart` jobs on 3 worker
//! nodes, one of which stays idle as the spare, plus a head node. Node 0
//! founded the group and runs its daemon, but is disabled for placement:
//! restarting a crashed node 0 never completes (`Cluster::restart_node`
//! times out in `wait_config`), so the workload never crashes it.
//!
//! Jobs come in pairs, one fault-free and one faulty, in a seed-chosen
//! order. A fault-free job is trivial — each rank publishes a seeded value
//! without communicating — so its submit→done time is the daemon and
//! ensemble path a user waits on. A faulty job exchanges values for
//! `ITERS` iterations with a checkpoint at `CKPT_AT`; both ranks park at a
//! seed-chosen later iteration, the benchmark crashes the node hosting a
//! seed-chosen rank, the job recovers on the spare and finishes, and the
//! benchmark restarts the crashed node. Each cluster runs a fixed number of
//! pairs and is then replaced by a fresh one. The workload loads the
//! daemons, the ensemble, respawn and the checkpoint *read* path, with
//! little data-path traffic.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use starfish::state::CkptValueExt;
use starfish::{AppId, CkptValue, Cluster, Ctx, Error, NodeId, Rank, Result, VirtualTime};
use starfish_telemetry::{metric, Registry};

use crate::cluster::{self, boot as boot_cluster, JOB_TIMEOUT};
use crate::report::Report;
use crate::stats::{mean, median, ms, quantile, us, Rng};
use crate::{lock, run_phase, Budget, Phase};

/// Iterations per job; the checkpoint is taken at `CKPT_AT`, and a faulty
/// job parks somewhere in `CKPT_AT + 1 .. ITERS - 1`.
pub const ITERS: u64 = 24;
pub const CKPT_AT: u64 = 6;
/// The head node: never hosts a rank, never crashed.
const HEAD: NodeId = NodeId(0);
const TAG_X: u64 = 11;
/// How often a parked rank polls its service point.
const PARK_POLL: Duration = Duration::from_micros(200);

#[derive(Clone, Default)]
pub struct Job {
    pub seed: u64,
    pub index: u64,
    pub faulty: bool,
    pub crash_iter: u64,
    pub victim: u32,
}

impl Job {
    /// The two jobs of pair `pair`, in seed-chosen order.
    fn pair(seed: u64, pair: u64) -> [Job; 2] {
        let mut rng = Rng::new(seed, 0x4000 + pair);
        let faulty_first = rng.range(0, 2) == 1;
        let crash_iter = rng.range(CKPT_AT + 1, ITERS - 1);
        let victim = rng.range(0, 2) as u32;
        let mk = |k: u64, faulty: bool| Job {
            seed,
            index: pair * 2 + k,
            faulty,
            crash_iter,
            victim,
        };
        [mk(0, faulty_first), mk(1, !faulty_first)]
    }
}

/// The value rank `rank` contributes at `iter` of job `index`.
fn value(seed: u64, index: u64, rank: usize, iter: u64) -> i64 {
    Rng::new(
        seed ^ index.wrapping_mul(0x9E37),
        (rank as u64) << 32 | iter,
    )
    .range(0, 1000) as i64
}

/// The answer rank `rank` must publish: its own value in a fault-free job;
/// in a faulty one, the fault-free sum of both ranks' values over all
/// iterations.
fn expected(job: &Job, rank: usize) -> i64 {
    if !job.faulty {
        return value(job.seed, job.index, rank, 0);
    }
    (0..ITERS)
        .map(|i| value(job.seed, job.index, 0, i) + value(job.seed, job.index, 1, i))
        .sum()
}

/// Wall-clock and virtual stamps written by the app closures.
#[derive(Default)]
struct Stamps {
    /// First closure entry and last closure return per rank.
    entry: [Option<Instant>; 2],
    exit: [Option<Instant>; 2],
    /// Re-entry after a rollback, and the first `Ctx::send` returning
    /// after it, per rank.
    reentry: [Option<Instant>; 2],
    first_send: [Option<Instant>; 2],
    park_vt: [Option<VirtualTime>; 2],
    first_send_vt: [Option<VirtualTime>; 2],
}

pub struct Shared {
    job: Mutex<Job>,
    stamps: Mutex<Stamps>,
    parked: AtomicU32,
    metrics: Registry,
}

pub fn boot() -> Result<(Cluster, Arc<Shared>)> {
    let cluster = boot_cluster(4, true)?;
    cluster.disable_node(HEAD)?;
    cluster
        .daemon()
        .wait_config(JOB_TIMEOUT, |c| !c.live_nodes().contains(&HEAD))?;
    let sh = Arc::new(Shared {
        job: Mutex::new(Job::default()),
        stamps: Mutex::new(Stamps::default()),
        parked: AtomicU32::new(0),
        metrics: cluster.metrics().clone(),
    });
    let s2 = sh.clone();
    cluster.register_app("failover", move |ctx| app(ctx, &s2));
    Ok((cluster, sh))
}

fn app(ctx: &mut Ctx<'_>, sh: &Shared) -> Result<()> {
    let now = Instant::now();
    let job = lock(&sh.job).clone();
    let me = ctx.rank().0 as usize;
    let peer = Rank(1 - me as u32);
    let restored = ctx.restored();
    {
        let mut st = lock(&sh.stamps);
        st.entry[me].get_or_insert(now);
        if restored.is_some() {
            st.reentry[me].get_or_insert(now);
        }
    }
    if !job.faulty {
        ctx.publish(CkptValue::Int(expected(&job, me)));
        lock(&sh.stamps).exit[me] = Some(Instant::now());
        return Ok(());
    }
    let (mut iter, mut acc) = match &restored {
        Some(v) => (v.req_int("iter")? as u64, v.req_int("acc")?),
        None => (0, 0),
    };
    let mut first_send_pending = restored.is_some();
    while iter < ITERS {
        let state = CkptValue::record(vec![
            ("iter", CkptValue::Int(iter as i64)),
            ("acc", CkptValue::Int(acc)),
        ]);
        if iter == CKPT_AT {
            ctx.checkpoint(&state)?;
        } else {
            ctx.safepoint(&state)?;
        }
        if restored.is_none() && iter == job.crash_iter {
            lock(&sh.stamps).park_vt[me] = Some(ctx.time());
            sh.parked.fetch_add(1, Ordering::SeqCst);
            // Idle at a service point until the crash ends this
            // incarnation: the victim is killed, the survivor rolled back.
            // (A rank parked in a blocking receive instead would notice the
            // rollback only at the receive's next 100 ms service slice.)
            loop {
                ctx.safepoint(&state)?;
                std::thread::sleep(PARK_POLL);
            }
        }
        let v = value(job.seed, job.index, me, iter);
        ctx.send(peer, TAG_X, &v.to_le_bytes())?;
        if first_send_pending {
            first_send_pending = false;
            let mut st = lock(&sh.stamps);
            st.first_send[me].get_or_insert(Instant::now());
            st.first_send_vt[me].get_or_insert(ctx.time());
        }
        let m = ctx.recv(Some(peer), Some(TAG_X))?;
        let pv = i64::from_le_bytes(
            m.data[..]
                .try_into()
                .map_err(|_| Error::codec("exchange message is not 8 bytes"))?,
        );
        acc += v + pv;
        iter += 1;
    }
    ctx.publish(CkptValue::Int(acc));
    lock(&sh.stamps).exit[me] = Some(Instant::now());
    Ok(())
}

#[derive(Default)]
pub struct Samples {
    /// Fault-free jobs, ms unless named otherwise.
    pub submit_to_done: Vec<f64>,
    pub submit_call_us: Vec<f64>,
    pub submit_to_entry: Vec<f64>,
    pub entry_to_exit: Vec<f64>,
    pub exit_to_done: Vec<f64>,
    /// Faulty jobs, victim rank, ms.
    pub kill_to_first_send: Vec<f64>,
    pub kill_to_reentry: Vec<f64>,
    pub reentry_to_send: Vec<f64>,
    pub vt_kill_to_first_send: Vec<f64>,
    pub rejoin: Vec<f64>,
    /// `ensemble.casts` and `msg.count.control` deltas per job, indexed by
    /// `faulty as usize`.
    pub casts_per_job: [Vec<f64>; 2],
    pub ctrl_per_job: [Vec<f64>; 2],
    /// `recovery.restarts` per faulty job, from the stats hub.
    pub restarts_per_faulty: Vec<f64>,
    /// `cluster::MPI_COUNTERS` summed over the run's clusters.
    pub mpi: [u64; 4],
    /// Mean of the `ensemble.view_change_ns` histograms, ms.
    pub view_change_ms: f64,
    pub attempted: u64,
    pub failed: u64,
    pub pairs: usize,
    pub clusters: usize,
}

/// A job's last output on both ranks must equal the fault-free answer.
fn check_outputs(cluster: &Cluster, app: AppId, job: &Job) -> bool {
    (0..2).all(|r| {
        cluster.outputs(app, Rank(r as u32)).last() == Some(&CkptValue::Int(expected(job, r)))
    })
}

fn restarts_of(cluster: &Cluster, app: AppId) -> u64 {
    let stats = cluster.stats();
    (0..2)
        .filter_map(|r| stats.get(&format!("{app}.r{r}")))
        .map(|s| s.counter(metric::RECOVERY_RESTARTS))
        .sum()
}

/// Run one job; returns whether it succeeded with correct outputs.
fn run_one(cluster: &Cluster, sh: &Shared, job: Job, s: &mut Samples, rep: &mut Report) -> bool {
    *lock(&sh.job) = job.clone();
    *lock(&sh.stamps) = Stamps::default();
    sh.parked.store(0, Ordering::SeqCst);
    let casts0 = sh.metrics.counter(metric::ENSEMBLE_CASTS);
    let ctrl0 = sh.metrics.counter(metric::MSG_COUNT_CONTROL);
    let t_submit = Instant::now();
    let app = match cluster.submit("failover", 2, starfish::SubmitOpts::default()) {
        Ok(a) => a,
        Err(e) => {
            rep.error(format!("failover submit failed: {e}"));
            return false;
        }
    };
    let t_submitted = Instant::now();
    let mut victim_node = None;
    let mut t_kill = None;
    if job.faulty {
        let deadline = Instant::now() + JOB_TIMEOUT;
        while sh.parked.load(Ordering::SeqCst) < 2 {
            if Instant::now() > deadline {
                rep.error(format!("failover job {app}: ranks never parked"));
                return false;
            }
            std::thread::sleep(Duration::from_micros(100));
        }
        let node: NodeId = match cluster.config().apps.get(&app) {
            Some(e) => e.placement[job.victim as usize],
            None => {
                rep.error(format!("failover job {app} vanished from the config"));
                return false;
            }
        };
        t_kill = Some(Instant::now());
        cluster.crash_node(node);
        victim_node = Some(node);
    }
    let done = cluster.wait_app_done(app, JOB_TIMEOUT);
    let t_done = Instant::now();
    let mut ok = match done {
        Ok(()) if check_outputs(cluster, app, &job) => true,
        Ok(()) => {
            rep.error(format!(
                "failover job {app}: outputs differ from the fault-free answer"
            ));
            false
        }
        Err(e) => {
            rep.error(format!("failover job {app} did not finish: {e}"));
            false
        }
    };
    let kind = usize::from(job.faulty);
    s.casts_per_job[kind].push((sh.metrics.counter(metric::ENSEMBLE_CASTS) - casts0) as f64);
    s.ctrl_per_job[kind].push((sh.metrics.counter(metric::MSG_COUNT_CONTROL) - ctrl0) as f64);
    let st = std::mem::take(&mut *lock(&sh.stamps));
    if ok {
        if let Some(t_kill) = t_kill {
            let v = job.victim as usize;
            match (
                st.reentry[v],
                st.first_send[v],
                st.park_vt[v],
                st.first_send_vt[v],
            ) {
                (Some(re), Some(fs), Some(pvt), Some(fvt)) => {
                    s.kill_to_reentry.push(ms(re - t_kill));
                    s.reentry_to_send.push(ms(fs - re));
                    s.kill_to_first_send.push(ms(fs - t_kill));
                    s.vt_kill_to_first_send.push((fvt - pvt).as_millis_f64());
                }
                _ => {
                    rep.error(format!("failover job {app}: victim stamps missing"));
                    ok = false;
                }
            }
            // The restarts counter arrives with the restored ranks' stats.
            s.restarts_per_faulty.push(restarts_of(cluster, app) as f64);
        } else {
            let entry = st.entry.iter().flatten().min();
            let exit = st.exit.iter().flatten().max();
            match (entry, exit) {
                (Some(&en), Some(&ex)) => {
                    s.submit_to_done.push(ms(t_done - t_submit));
                    s.submit_call_us.push(us(t_submitted - t_submit));
                    s.submit_to_entry.push(ms(en - t_submit));
                    s.entry_to_exit.push(ms(ex - en));
                    s.exit_to_done.push(ms(t_done - ex));
                }
                _ => {
                    rep.error(format!("failover job {app}: entry/exit stamps missing"));
                    ok = false;
                }
            }
        }
    }
    // A crashed node always rejoins, so the next job has its spare back.
    if let Some(node) = victim_node {
        let t0 = Instant::now();
        match cluster.restart_node(node) {
            Ok(()) => s.rejoin.push(ms(t0.elapsed())),
            Err(e) => {
                rep.error(format!("restart of {node:?} failed: {e}"));
                ok = false;
            }
        }
    }
    ok
}

/// Job pairs each failover cluster runs before it is torn down. Recovery
/// slows as a cluster's job history grows (kill→first send climbs from
/// about 8 ms over its first pairs to about 25 ms after 140 pairs), so a
/// cluster kept for the whole run would make the metrics depend on how
/// many pairs the machine's speed allowed; a fixed lifetime gives every
/// run the same mix of young and older clusters.
pub const PAIRS_PER_CLUSTER: usize = 16;

/// The failover phase; a unit is one fresh cluster running `pairs` job
/// pairs, then torn down.
pub struct Runner {
    seed: u64,
    pairs: usize,
    clusters: usize,
    /// Sum and count of the `ensemble.view_change_ns` histograms, ns.
    view_change: (u64, u64),
    s: Samples,
}

impl Runner {
    pub fn start(seed: u64) -> Runner {
        Runner::with_pairs(seed, PAIRS_PER_CLUSTER)
    }

    fn with_pairs(seed: u64, pairs: usize) -> Runner {
        Runner {
            seed,
            pairs,
            clusters: 0,
            view_change: (0, 0),
            s: Samples::default(),
        }
    }
}

impl Phase for Runner {
    type Out = Samples;

    fn units(&self) -> usize {
        self.clusters
    }

    fn unit(&mut self, rep: &mut Report) {
        self.clusters += 1;
        let (cluster, sh) = match boot() {
            Ok(b) => b,
            Err(e) => {
                self.s.attempted += 1;
                self.s.failed += 1;
                rep.error(format!("failover cluster boot failed: {e}"));
                return;
            }
        };
        for _ in 0..self.pairs {
            for job in Job::pair(self.seed, self.s.pairs as u64) {
                let ok = run_one(&cluster, &sh, job, &mut self.s, rep);
                self.s.attempted += 1;
                self.s.failed += u64::from(!ok);
            }
            self.s.pairs += 1;
        }
        for (total, n) in self.s.mpi.iter_mut().zip(cluster::mpi_counters(&cluster)) {
            *total += n;
        }
        if let Some(h) = cluster
            .metrics()
            .snapshot()
            .hist(metric::ENSEMBLE_VIEW_CHANGE_NS)
        {
            self.view_change.0 += h.sum;
            self.view_change.1 += h.count;
        }
        cluster::teardown(cluster);
    }

    fn finish(self, rep: &mut Report) -> Samples {
        let mut s = self.s;
        s.clusters = self.clusters;
        s.view_change_ms = self.view_change.0 as f64 / self.view_change.1 as f64 / 1e6;
        rep.ops(s.attempted, s.failed);
        s
    }
}

/// Run fresh clusters of `PAIRS_PER_CLUSTER` job pairs until `budget` is
/// spent.
pub fn run(seed: u64, budget: Budget, rep: &mut Report) -> Samples {
    run_phase(Runner::start(seed), budget, rep)
}

/// One job pair on one fresh cluster: the virtual-time guard's pass.
pub fn run_short(seed: u64, rep: &mut Report) -> Samples {
    run_phase(Runner::with_pairs(seed, 1), Budget::Units(1), rep)
}

pub fn report_e2e(s: &Samples, rep: &mut Report) {
    // A mean, not a median: `wait_app_done` looks every 5 ms, so a job is
    // seen at about 5.3 ms or, when its completion misses the first look,
    // at about 10.3 ms. The share of the second kind varies from run to
    // run, and the median jumps between the two; the mean moves smoothly
    // with that share.
    rep.metric("submit_to_done_ms_mean", mean(&s.submit_to_done), "ms");
    rep.metric(
        "kill_to_first_send_ms_p50",
        median(&s.kill_to_first_send),
        "ms",
    );
    rep.note(format!(
        "failover: {} pairs on {} clusters; submit->done p90 {:.3} ms ({} jobs), kill->first send p90 {:.3} ms ({} crashes)",
        s.pairs,
        s.clusters,
        quantile(&s.submit_to_done, 0.9),
        s.submit_to_done.len(),
        quantile(&s.kill_to_first_send, 0.9),
        s.kill_to_first_send.len()
    ));
}
