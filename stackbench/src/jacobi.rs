//! `jacobi`: the paper's flagship program on 2 nodes — a 1-D heat-diffusion
//! solve. Each rank holds 128 Ki cells (1 MiB of f64) behind a
//! `Checkpointable` struct. Every iteration does a safepoint, an 8 B halo
//! exchange, a stencil sweep and an 8 B residual allreduce; every
//! `CKPT_EVERY` iterations a stop-and-sync `Ctx::checkpoint` replaces the
//! safepoint. It is the workload where checkpoint writes (image capture,
//! store put, round coordination) and small-message collectives dominate.
//!
//! The unit of work is one solve of `ITERS` iterations from the seeded
//! initial grid; its final grid must match a single-thread solve bit for
//! bit (the residual reduction order at 2 ranks is fixed: rank 0's partial
//! plus rank 1's).

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use starfish::state::CkptValueExt;
use starfish::{Checkpointable, CkptValue, Cluster, Ctx, Error, Rank, ReduceOp, Result};
use starfish_telemetry::{metric, Registry};

use crate::cluster::{self, boot as boot_cluster};
use crate::report::Report;
use crate::stats::{median, ms, quantile, us, Rng};
use crate::{lock, run_phase, Budget, Phase};

/// Cells per rank: 1 MiB of f64.
pub const N_LOCAL: usize = 128 * 1024;
/// Iterations per solve, and the checkpoint period.
pub const ITERS: u64 = 600;
pub const CKPT_EVERY: u64 = 100;
const ALPHA: f64 = 0.25;
const LEFT_BC: f64 = 1.0;
const RIGHT_BC: f64 = 0.0;
const TAG_HALO: u64 = 7;

#[derive(Clone)]
pub struct Job {
    pub seed: u64,
    pub iters: u64,
    pub traced: bool,
}

/// One rank's checkpointable state.
struct State {
    iter: u64,
    grid: Vec<f64>,
}

impl Checkpointable for State {
    fn save(&self) -> CkptValue {
        state_value(self.iter, &self.grid)
    }
}

/// The checkpoint value of a rank's state (also the input of the bare
/// checkpoint-layer arms).
pub fn state_value(iter: u64, grid: &[f64]) -> CkptValue {
    CkptValue::record(vec![
        ("iter", CkptValue::Int(iter as i64)),
        ("grid", CkptValue::FloatArray(grid.to_vec())),
    ])
}

/// The seeded initial grid, both ranks' cells (`2 * N_LOCAL`).
pub fn initial_grid(seed: u64) -> Vec<f64> {
    let mut rng = Rng::new(seed, 0x3000);
    (0..2 * N_LOCAL).map(|_| rng.unit()).collect()
}

/// One explicit diffusion step over `old` with ghost cells `left` and
/// `right`; writes `new` and returns the sum of |new − old|. Both the
/// ranks and the serial reference call this, so their arithmetic is
/// identical.
pub fn sweep(old: &[f64], left: f64, right: f64, new: &mut [f64]) -> f64 {
    let n = old.len();
    let mut res = 0.0;
    for i in 0..n {
        let l = if i == 0 { left } else { old[i - 1] };
        let r = if i + 1 == n { right } else { old[i + 1] };
        let v = old[i] + ALPHA * (l - 2.0 * old[i] + r);
        res += (v - old[i]).abs();
        new[i] = v;
    }
    res
}

/// The same solve in one plain thread: final grid and last residual.
pub fn serial_solve(seed: u64, iters: u64) -> (Vec<f64>, f64) {
    let mut g = initial_grid(seed);
    let mut next = vec![0.0; 2 * N_LOCAL];
    let mut residual = 0.0;
    for _ in 0..iters {
        let (a, b) = g.split_at(N_LOCAL);
        let (na, nb) = next.split_at_mut(N_LOCAL);
        let p0 = sweep(a, LEFT_BC, b[0], na);
        let p1 = sweep(b, a[N_LOCAL - 1], RIGHT_BC, nb);
        residual = p0 + p1;
        std::mem::swap(&mut g, &mut next);
    }
    (g, residual)
}

#[derive(Default)]
pub struct Samples {
    /// Wall time of each non-checkpoint iteration on rank 0, µs.
    pub iter_us: Vec<f64>,
    /// `Ctx::checkpoint` call time on rank 0, ms, and its virtual time.
    pub ckpt_ms: Vec<f64>,
    pub vt_ckpt_ms: Vec<f64>,
    /// Rank 0's closure entry to its last iteration, per solve, s.
    pub solve_s: Vec<f64>,
    /// Per-phase spans of non-checkpoint iterations on rank 0 (traced), µs.
    pub safepoint_us: Vec<f64>,
    pub halo_us: Vec<f64>,
    pub compute_us: Vec<f64>,
    pub allreduce_us: Vec<f64>,
    /// `msg.count.control` delta per solve, divided by its rounds.
    pub ctrl_per_round: Vec<f64>,
    /// `cluster::MPI_COUNTERS` over the whole run.
    pub mpi: [u64; 4],
    /// Mean `ckpt.image_bytes` over the run's images.
    pub image_bytes: f64,
    pub attempted: u64,
    pub failed: u64,
}

#[derive(Default)]
struct Finals {
    grid: [Vec<f64>; 2],
    residual: [f64; 2],
}

pub struct Shared {
    job: Mutex<Job>,
    out: Mutex<Samples>,
    finals: Mutex<Finals>,
    done: AtomicU32,
    metrics: Registry,
}

pub fn boot() -> Result<(Cluster, Arc<Shared>)> {
    let cluster = boot_cluster(2, true)?;
    let sh = Arc::new(Shared {
        job: Mutex::new(Job {
            seed: 0,
            iters: ITERS,
            traced: false,
        }),
        out: Mutex::new(Samples::default()),
        finals: Mutex::new(Finals::default()),
        done: AtomicU32::new(0),
        metrics: cluster.metrics().clone(),
    });
    let s2 = sh.clone();
    cluster.register_app("jacobi", move |ctx| app(ctx, &s2));
    Ok((cluster, sh))
}

fn app(ctx: &mut Ctx<'_>, sh: &Shared) -> Result<()> {
    let entry = Instant::now();
    let job = lock(&sh.job).clone();
    let me = ctx.rank().0;
    let peer = Rank(1 - me);
    let mut st = match ctx.restored() {
        Some(v) => State {
            iter: v.req_int("iter")? as u64,
            grid: v.req_float_array("grid")?,
        },
        None => State {
            iter: 0,
            grid: initial_grid(job.seed)[me as usize * N_LOCAL..][..N_LOCAL].to_vec(),
        },
    };
    let mut next = vec![0.0; N_LOCAL];
    let mut residual = 0.0;
    let mut s = Samples::default();
    let ctrl0 = sh.metrics.counter(metric::MSG_COUNT_CONTROL);
    let mut rounds = 0u64;
    while st.iter < job.iters {
        let t0 = Instant::now();
        let is_ckpt = st.iter > 0 && st.iter % CKPT_EVERY == 0;
        if is_ckpt {
            let vt = ctx.checkpoint(&st)?;
            rounds += 1;
            if me == 0 {
                s.ckpt_ms.push(ms(t0.elapsed()));
                s.vt_ckpt_ms.push(vt.as_millis_f64());
            }
        } else {
            ctx.safepoint(&st)?;
        }
        let t1 = Instant::now();
        let edge = if me == 0 {
            st.grid[N_LOCAL - 1]
        } else {
            st.grid[0]
        };
        ctx.send(peer, TAG_HALO, &edge.to_le_bytes())?;
        let m = ctx.recv(Some(peer), Some(TAG_HALO))?;
        let ghost = f64::from_le_bytes(
            m.data[..]
                .try_into()
                .map_err(|_| Error::codec("halo message is not 8 bytes"))?,
        );
        let (left, right) = if me == 0 {
            (LEFT_BC, ghost)
        } else {
            (ghost, RIGHT_BC)
        };
        let t2 = Instant::now();
        let part = sweep(&st.grid, left, right, &mut next);
        std::mem::swap(&mut st.grid, &mut next);
        let t3 = Instant::now();
        residual = ctx.allreduce_f64(&[part], ReduceOp::Sum)?[0];
        let t4 = Instant::now();
        st.iter += 1;
        if me == 0 && !is_ckpt {
            s.iter_us.push(us(t4 - t0));
            if job.traced {
                s.safepoint_us.push(us(t1 - t0));
                s.halo_us.push(us(t2 - t1));
                s.compute_us.push(us(t3 - t2));
                s.allreduce_us.push(us(t4 - t3));
            }
        }
    }
    if me == 0 {
        s.solve_s.push(entry.elapsed().as_secs_f64());
        if rounds > 0 {
            let ctrl = sh.metrics.counter(metric::MSG_COUNT_CONTROL) - ctrl0;
            s.ctrl_per_round.push(ctrl as f64 / rounds as f64);
        }
    }
    {
        let mut f = lock(&sh.finals);
        f.grid[me as usize] = std::mem::take(&mut st.grid);
        f.residual[me as usize] = residual;
    }
    lock(&sh.out).absorb(s);
    sh.done.fetch_add(1, Ordering::SeqCst);
    Ok(())
}

impl Samples {
    fn absorb(&mut self, o: Samples) {
        self.iter_us.extend(o.iter_us);
        self.ckpt_ms.extend(o.ckpt_ms);
        self.vt_ckpt_ms.extend(o.vt_ckpt_ms);
        self.solve_s.extend(o.solve_s);
        self.safepoint_us.extend(o.safepoint_us);
        self.halo_us.extend(o.halo_us);
        self.compute_us.extend(o.compute_us);
        self.allreduce_us.extend(o.allreduce_us);
        self.ctrl_per_round.extend(o.ctrl_per_round);
    }
}

/// Run one solve and check its final grid and residual against the serial
/// reference, bit for bit. The solve is one operation.
pub fn run_one(
    cluster: &Cluster,
    sh: &Shared,
    job: Job,
    reference: &(Vec<f64>, f64),
    rep: &mut Report,
) {
    *lock(&sh.job) = job;
    sh.done.store(0, Ordering::SeqCst);
    let ok = match cluster::run_job(cluster, "jacobi", 2) {
        Ok(_) if sh.done.load(Ordering::SeqCst) == 2 => {
            let f = std::mem::take(&mut *lock(&sh.finals));
            let grid_ok = f.grid[0]
                .iter()
                .chain(f.grid[1].iter())
                .map(|x| x.to_bits())
                .eq(reference.0.iter().map(|x| x.to_bits()));
            let res_ok = f
                .residual
                .iter()
                .all(|r| r.to_bits() == reference.1.to_bits());
            if !(grid_ok && res_ok) {
                rep.error(format!(
                    "jacobi solve differs from the serial reference (grid ok: {grid_ok}, residual ok: {res_ok})"
                ));
            }
            grid_ok && res_ok
        }
        Ok(app) => {
            rep.error(format!(
                "jacobi job {app} ended without finishing both ranks"
            ));
            false
        }
        Err(e) => {
            rep.error(format!("jacobi job failed: {e}"));
            false
        }
    };
    let mut out = lock(&sh.out);
    out.attempted += 1;
    out.failed += u64::from(!ok);
}

pub fn drain(sh: &Shared) -> Samples {
    std::mem::take(&mut *lock(&sh.out))
}

/// The jacobi phase on its own live cluster; a unit is one solve.
pub struct Runner {
    cluster: Cluster,
    sh: Arc<Shared>,
    job: Job,
    reference: (Vec<f64>, f64),
    solves: usize,
}

impl Runner {
    /// Boot the cluster and compute the serial reference of a solve of
    /// `iters` iterations.
    pub fn start(seed: u64, iters: u64, traced: bool, rep: &mut Report) -> Option<Runner> {
        let reference = serial_solve(seed, iters);
        match boot() {
            Ok((cluster, sh)) => Some(Runner {
                cluster,
                sh,
                job: Job {
                    seed,
                    iters,
                    traced,
                },
                reference,
                solves: 0,
            }),
            Err(e) => {
                rep.ops(1, 1);
                rep.error(format!("jacobi cluster boot failed: {e}"));
                None
            }
        }
    }
}

impl Phase for Runner {
    type Out = Samples;

    fn units(&self) -> usize {
        self.solves
    }

    fn unit(&mut self, rep: &mut Report) {
        run_one(
            &self.cluster,
            &self.sh,
            self.job.clone(),
            &self.reference,
            rep,
        );
        self.solves += 1;
    }

    fn finish(self, rep: &mut Report) -> Samples {
        let mut s = drain(&self.sh);
        s.mpi = cluster::mpi_counters(&self.cluster);
        s.image_bytes = self
            .cluster
            .stats()
            .merged()
            .hist(metric::CKPT_IMAGE_BYTES)
            .map_or(f64::NAN, |h| h.mean());
        cluster::teardown(self.cluster);
        rep.ops(s.attempted, s.failed);
        s
    }
}

/// Solve repeatedly on a fresh cluster until `budget` is spent.
pub fn run(seed: u64, budget: Budget, traced: bool, rep: &mut Report) -> Samples {
    Runner::start(seed, ITERS, traced, rep)
        .map_or_else(Samples::default, |r| run_phase(r, budget, rep))
}

/// One short solve (two checkpoint rounds) on a fresh cluster: the
/// virtual-time guard's pass.
pub fn run_short(seed: u64, rep: &mut Report) -> Samples {
    Runner::start(seed, 2 * CKPT_EVERY + 1, false, rep)
        .map_or_else(Samples::default, |r| run_phase(r, Budget::Units(1), rep))
}

pub fn report_e2e(s: &Samples, rep: &mut Report) {
    rep.metric("iter_us_p50", median(&s.iter_us), "us");
    rep.metric("ckpt_round_ms_p50", median(&s.ckpt_ms), "ms");
    rep.metric("solve_s", median(&s.solve_s), "s");
    rep.note(format!(
        "jacobi: {} solves, {} iterations and {} checkpoint rounds sampled; ckpt p90 {:.3} ms; solve p10/p90 {:.4}/{:.4} s; iteration p90/p99 {:.1}/{:.1} us",
        s.solve_s.len(),
        s.iter_us.len(),
        s.ckpt_ms.len(),
        quantile(&s.ckpt_ms, 0.9),
        quantile(&s.solve_s, 0.1),
        quantile(&s.solve_s, 0.9),
        quantile(&s.iter_us, 0.9),
        quantile(&s.iter_us, 0.99)
    ));
}
