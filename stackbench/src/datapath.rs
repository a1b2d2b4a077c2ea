//! `datapath`: Ctx round trips at 8 B, 4 KiB (eager) and 1 MiB
//! (rendezvous), then `Ctx::allreduce_f64` at 1 and 128 Ki elements, on a
//! 2-node cluster with one message in flight. It loads `core::ctx`, the MPI
//! endpoint and collectives, and the VNI fabric and polling thread, and
//! does almost no checkpoint, daemon or ensemble work.
//!
//! The unit of work is a *block*: one job running every size once. Each
//! block is a fresh job, so fresh rank threads.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use starfish::{CkptValue, Cluster, Ctx, Rank, ReduceOp, Result};
use starfish_telemetry::{metric, Registry};

use crate::cluster::{self, boot as boot_cluster};
use crate::report::Report;
use crate::stats::{median, quantile, us, Rng};
use crate::{lock, run_phase, Budget, Phase};

pub const SIZES: [usize; 3] = [8, 4096, 1 << 20];
pub const SIZE_NAMES: [&str; 3] = ["8B", "4KiB", "1MiB"];
/// Round trips per block, after `WARM` unmeasured ones.
const RTS: [usize; 3] = [400, 400, 40];
const WARM: [usize; 3] = [20, 20, 4];
/// Allreduce element counts (8 B and 1 MiB of f64), calls per block, and
/// unmeasured warm-up calls.
pub const AR_ELEMS: [usize; 2] = [1, 128 * 1024];
pub const AR_NAMES: [&str; 2] = ["8B", "1MiB"];
const AR_OPS: [usize; 2] = [200, 20];
const AR_WARM: [usize; 2] = [10, 2];

const TAG_PING: u64 = 1;
const TAG_PONG: u64 = 2;

/// What one job does: how many measured round trips per size and calls
/// per allreduce size (warm-up is added to each non-zero count).
#[derive(Clone)]
pub struct Job {
    pub seed: u64,
    pub block: u64,
    pub traced: bool,
    /// Run unmeasured warm-up round trips and calls first.
    pub warm: bool,
    pub rts: [usize; 3],
    pub ar_ops: [usize; 2],
}

impl Job {
    fn block(seed: u64, block: u64, traced: bool) -> Job {
        Job {
            seed,
            block,
            traced,
            warm: true,
            rts: RTS,
            ar_ops: AR_OPS,
        }
    }

    /// Only `rts` round trips at size index `si`, nothing else.
    pub fn single(seed: u64, si: usize, rts: usize) -> Job {
        let mut counts = [0; 3];
        counts[si] = rts;
        Job {
            seed,
            block: 0,
            traced: false,
            warm: false,
            rts: counts,
            ar_ops: [0; 2],
        }
    }
}

/// Samples collected by rank 0 (and failures seen by either rank).
#[derive(Default)]
pub struct Samples {
    /// Half round-trip times, µs, per size.
    pub oneway: [Vec<f64>; 3],
    /// Spans around `Ctx::send` and `Ctx::recv` on rank 0 (traced jobs).
    pub send: [Vec<f64>; 3],
    pub recv: [Vec<f64>; 3],
    /// `Ctx::allreduce_f64` call times on rank 0, µs, per size.
    pub allreduce: [Vec<f64>; 2],
    /// Virtual-time half round trips at 8 B, µs.
    pub vt_oneway_8b: Vec<f64>,
    /// `vni.packets` accepted by the fabric during each size's loop, and
    /// the one-way messages those loops sent.
    pub packets: [u64; 3],
    pub msgs: [u64; 3],
    /// `cluster::MPI_COUNTERS` over the whole run.
    pub mpi: [u64; 4],
    pub attempted: u64,
    pub failed: u64,
    pub blocks: usize,
}

impl Samples {
    fn absorb(&mut self, o: Samples) {
        for i in 0..3 {
            self.oneway[i].extend(o.oneway[i].iter());
            self.send[i].extend(o.send[i].iter());
            self.recv[i].extend(o.recv[i].iter());
            self.packets[i] += o.packets[i];
            self.msgs[i] += o.msgs[i];
        }
        for i in 0..2 {
            self.allreduce[i].extend(o.allreduce[i].iter());
        }
        self.vt_oneway_8b.extend(o.vt_oneway_8b);
        self.attempted += o.attempted;
        self.failed += o.failed;
    }
}

pub struct Shared {
    job: Mutex<Job>,
    out: Mutex<Samples>,
    done: AtomicU32,
    /// The cluster's infrastructure registry (fabric packet counter).
    metrics: Registry,
}

/// Build the 2-node cluster and register the `datapath` program.
pub fn boot(instrumented: bool) -> Result<(Cluster, Arc<Shared>)> {
    let cluster = boot_cluster(2, instrumented)?;
    let sh = Arc::new(Shared {
        job: Mutex::new(Job::block(0, 0, false)),
        out: Mutex::new(Samples::default()),
        done: AtomicU32::new(0),
        metrics: cluster.metrics().clone(),
    });
    let s2 = sh.clone();
    cluster.register_app("datapath", move |ctx| app(ctx, &s2));
    Ok((cluster, sh))
}

/// The bytes rank 0 sends at size index `si` in a block.
fn payload(seed: u64, block: u64, si: usize) -> Vec<u8> {
    Rng::new(seed, 0x1000 + block * 8 + si as u64).bytes(SIZES[si])
}

/// Rank `rank`'s allreduce contribution: small integers as f64, so every
/// sum is exact and the closed form is bit-exact.
fn ar_input(seed: u64, block: u64, ai: usize, rank: u32) -> Vec<f64> {
    let mut rng = Rng::new(seed, 0x2000 + block * 8 + ai as u64 * 2 + rank as u64);
    (0..AR_ELEMS[ai])
        .map(|_| rng.range(0, 2048) as f64 - 1024.0)
        .collect()
}

fn app(ctx: &mut Ctx<'_>, sh: &Shared) -> Result<()> {
    let job = lock(&sh.job).clone();
    let me = ctx.rank().0;
    let peer = Rank(1 - me);
    let mut s = Samples::default();
    for (si, &rts) in job.rts.iter().enumerate() {
        if rts == 0 {
            continue;
        }
        let data = payload(job.seed, job.block, si);
        let warm = if job.warm { WARM[si] } else { 0 };
        let packets0 = sh.metrics.counter(metric::VNI_PACKETS);
        for i in 0..warm + rts {
            if me == 0 {
                let vt0 = ctx.time();
                let t0 = Instant::now();
                ctx.send(peer, TAG_PING, &data)?;
                let t1 = job.traced.then(Instant::now);
                let m = ctx.recv(Some(peer), Some(TAG_PONG))?;
                let t2 = Instant::now();
                let vt2 = ctx.time();
                if i >= warm {
                    s.attempted += 1;
                    if m.data[..] != data[..] {
                        s.failed += 1;
                    }
                    s.oneway[si].push(us(t2 - t0) / 2.0);
                    if let Some(t1) = t1 {
                        s.send[si].push(us(t1 - t0));
                        s.recv[si].push(us(t2 - t1));
                    }
                    if si == 0 {
                        s.vt_oneway_8b.push((vt2 - vt0).as_micros_f64() / 2.0);
                    }
                }
            } else {
                let m = ctx.recv(Some(peer), Some(TAG_PING))?;
                ctx.send(peer, TAG_PONG, &m.data)?;
            }
            // Clears the runtime's consumed-message log, which would
            // otherwise keep every received payload alive until the job
            // ends.
            ctx.safepoint(&CkptValue::Unit)?;
        }
        if me == 0 {
            s.packets[si] = sh.metrics.counter(metric::VNI_PACKETS) - packets0;
            s.msgs[si] = 2 * (warm + rts) as u64;
        }
    }
    for (ai, &ops) in job.ar_ops.iter().enumerate() {
        if ops == 0 {
            continue;
        }
        let mine = ar_input(job.seed, job.block, ai, me);
        let expect: Vec<f64> = ar_input(job.seed, job.block, ai, 0)
            .iter()
            .zip(ar_input(job.seed, job.block, ai, 1))
            .map(|(a, b)| a + b)
            .collect();
        let warm = if job.warm { AR_WARM[ai] } else { 0 };
        for i in 0..warm + ops {
            let t0 = Instant::now();
            let out = ctx.allreduce_f64(&mine, ReduceOp::Sum)?;
            let d = t0.elapsed();
            if i >= warm {
                if me == 0 {
                    s.attempted += 1;
                    s.allreduce[ai].push(us(d));
                }
                if out != expect {
                    s.failed += 1;
                }
            }
            ctx.safepoint(&CkptValue::Unit)?;
        }
    }
    lock(&sh.out).absorb(s);
    sh.done.fetch_add(1, Ordering::SeqCst);
    Ok(())
}

/// Run `job` on a booted datapath cluster; a job that errors, times out or
/// does not finish on both ranks counts as one failed operation.
pub fn run_one(cluster: &Cluster, sh: &Shared, job: Job, rep: &mut Report) {
    *lock(&sh.job) = job;
    sh.done.store(0, Ordering::SeqCst);
    match cluster::run_job(cluster, "datapath", 2) {
        Ok(_) if sh.done.load(Ordering::SeqCst) == 2 => {}
        Ok(app) => {
            rep.ops(1, 1);
            rep.error(format!(
                "datapath job {app} ended without finishing both ranks"
            ));
        }
        Err(e) => {
            rep.ops(1, 1);
            rep.error(format!("datapath job failed: {e}"));
        }
    }
}

/// Take everything the jobs collected so far.
pub fn drain(sh: &Shared) -> Samples {
    std::mem::take(&mut *lock(&sh.out))
}

/// Run one `job` on a fresh cluster with (`instrumented`) or without the
/// flight recorder and event bus.
pub fn run_job_on(instrumented: bool, job: Job, rep: &mut Report) -> Samples {
    let (cluster, sh) = match boot(instrumented) {
        Ok(b) => b,
        Err(e) => {
            rep.ops(1, 1);
            rep.error(format!("datapath cluster boot failed: {e}"));
            return Samples::default();
        }
    };
    run_one(&cluster, &sh, job, rep);
    cluster::teardown(cluster);
    let s = drain(&sh);
    rep.ops(s.attempted, s.failed);
    s
}

/// The datapath phase on its own live cluster; a unit is one block.
pub struct Runner {
    cluster: Cluster,
    sh: Arc<Shared>,
    seed: u64,
    traced: bool,
    s: Samples,
}

impl Runner {
    pub fn start(seed: u64, traced: bool, instrumented: bool, rep: &mut Report) -> Option<Runner> {
        match boot(instrumented) {
            Ok((cluster, sh)) => Some(Runner {
                cluster,
                sh,
                seed,
                traced,
                s: Samples::default(),
            }),
            Err(e) => {
                rep.ops(1, 1);
                rep.error(format!("datapath cluster boot failed: {e}"));
                None
            }
        }
    }
}

impl Phase for Runner {
    type Out = Samples;

    fn units(&self) -> usize {
        self.s.blocks
    }

    fn unit(&mut self, rep: &mut Report) {
        let job = Job::block(self.seed, self.s.blocks as u64, self.traced);
        run_one(&self.cluster, &self.sh, job, rep);
        self.s.absorb(drain(&self.sh));
        self.s.blocks += 1;
    }

    fn finish(self, rep: &mut Report) -> Samples {
        let mut s = self.s;
        s.mpi = cluster::mpi_counters(&self.cluster);
        cluster::teardown(self.cluster);
        rep.ops(s.attempted, s.failed);
        s
    }
}

/// Run blocks on a fresh default cluster until `budget` is spent.
pub fn run(seed: u64, budget: Budget, traced: bool, rep: &mut Report) -> Samples {
    Runner::start(seed, traced, true, rep)
        .map_or_else(Samples::default, |r| run_phase(r, budget, rep))
}

pub fn report_e2e(s: &Samples, rep: &mut Report) {
    for (name, samples) in SIZE_NAMES.iter().zip(&s.oneway) {
        rep.metric(&format!("oneway_{name}_us_p50"), median(samples), "us");
    }
    rep.metric("allreduce_8B_us_p50", median(&s.allreduce[0]), "us");
    rep.metric("allreduce_1MiB_ms_p50", median(&s.allreduce[1]) / 1e3, "ms");
    rep.note(format!(
        "datapath: {} blocks; samples per size {} / {} / {}, allreduce {} / {}; 8 B p99 {:.2} us",
        s.blocks,
        s.oneway[0].len(),
        s.oneway[1].len(),
        s.oneway[2].len(),
        s.allreduce[0].len(),
        s.allreduce[1].len(),
        quantile(&s.oneway[0], 0.99)
    ));
}
