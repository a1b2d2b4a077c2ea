//! Stack benchmark: wall-clock end-to-end metrics of Starfish applications
//! on a booted in-process cluster, plus an outside-in per-layer breakdown.
//!
//! ```text
//! cargo run --release --manifest-path stackbench/Cargo.toml -- \
//!     --workload datapath --seed 1 --seconds 12 --trace 0
//! ```
//!
//! Three phases exist — `datapath` (Ctx ping-pong and allreduce), `jacobi`
//! (a checkpointed heat-diffusion solve) and `failover` (short restartable
//! jobs, half of them with a node crash). Every run reports every metric,
//! so each run executes all three: the named workload's phase gets half of
//! the measuring time, the other two a quarter each. With
//! `--trace 1` the run measures the per-layer metrics instead: bare-layer
//! arms, traced passes of every phase, the instrumentation and tracing
//! overhead arms, and the virtual-time determinism guard.
//!
//! The human-readable report goes to stderr; the last stdout line is the
//! JSON result. See `stackbench/README.md`.

mod cluster;
mod datapath;
mod failover;
mod jacobi;
mod layers;
mod report;
mod stats;
mod traced;

use std::process::ExitCode;
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use report::Report;

/// Share of `--seconds` the named workload's phase measures for in an
/// untraced run; each of the other two phases gets `OTHER_SHARE`.
const PRIMARY_SHARE: f64 = 0.5;
const OTHER_SHARE: f64 = 0.25;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Datapath,
    Jacobi,
    Failover,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "datapath" => Some(Workload::Datapath),
            "jacobi" => Some(Workload::Jacobi),
            "failover" => Some(Workload::Failover),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Datapath => "datapath",
            Workload::Jacobi => "jacobi",
            Workload::Failover => "failover",
        }
    }
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&val).ok_or_else(|| format!("unknown workload {val}"))?)
            }
            "--seed" => seed = val.parse().map_err(|_| format!("bad seed {val}"))?,
            "--seconds" => {
                seconds = val.parse().map_err(|_| format!("bad seconds {val}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds out of range: {val}"));
                }
            }
            "--trace" => {
                trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {val}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required (datapath|jacobi|failover)")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("stackbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Recovery postmortem bundles land inside the build directory of the
    // checkout, never next to the sources.
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    std::env::set_var(
        "STARFISH_POSTMORTEM_DIR",
        format!("{target}/stackbench-postmortems"),
    );

    pin_malloc_thresholds();
    let cpu = pin_to_one_cpu();
    let started = Instant::now();
    let mut rep = Report::new();
    if args.trace {
        traced::run(&args, &mut rep);
    } else {
        run_untraced(&args, &mut rep);
    }
    rep.note(match cpu {
        Some(c) => format!("every thread ran on CPU {c}"),
        None => "could not pin the run to one CPU".into(),
    });
    rep.note(format!(
        "{} run of workload {} (seed {}) took {:.1} s",
        if args.trace { "traced" } else { "untraced" },
        args.workload.name(),
        args.seed,
        started.elapsed().as_secs_f64()
    ));
    rep.finish();
    ExitCode::SUCCESS
}

/// Fix glibc malloc's mmap and trim thresholds for the whole run. By
/// default glibc moves the mmap threshold as large blocks are freed, so
/// whether a 1 MiB message buffer is a fresh page-faulting mapping or
/// recycled heap depends on the process's allocation history: a bare
/// endpoint pair in a fresh process took about 800 µs per 1 MiB one-way
/// hop, the same pair after the threshold moved about 255 µs. Pinning the
/// thresholds makes every arm of every run see the same allocator.
fn pin_malloc_thresholds() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_MMAP_THRESHOLD: i32 = -3;
        // SAFETY: mallopt only adjusts allocator tunables; it is called
        // before any other thread exists.
        unsafe {
            mallopt(M_MMAP_THRESHOLD, 32 << 20);
            mallopt(M_TRIM_THRESHOLD, 256 << 20);
        }
    }
}

/// Confine the process, and every thread it will start, to one CPU: the
/// last one it may run on. On a shared 2-vCPU host whole runs sometimes
/// lost most of the second vCPU for minutes; with the two ranks of a job
/// free to use both, such a run's jacobi iterations took twice as long
/// (about 1350 µs instead of about 650 µs) and `solve_s` spread 21–35 %
/// between runs of the same code. On one CPU the ranks always share a core,
/// so every run measures the same thing. Returns the CPU, or `None` when
/// the affinity calls fail (the run then goes on unpinned).
fn pin_to_one_cpu() -> Option<usize> {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
            fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
        }
        // A cpu_set_t: 1024 bits.
        let mut mask = [0u64; 16];
        let size = std::mem::size_of_val(&mask);
        // SAFETY: `mask` is a writable cpu_set_t of `size` bytes, and pid 0
        // is the calling thread; no other thread exists yet.
        if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
            return None;
        }
        let cpu = (0..64 * mask.len())
            .rev()
            .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)?;
        let mut one = [0u64; 16];
        one[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: as above; threads started later inherit the mask.
        if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
            return None;
        }
        Some(cpu)
    }
    #[cfg(not(target_os = "linux"))]
    None
}

/// The end-to-end run: set-up time of the workload's cluster, then all
/// three phases interleaved unit by unit, each on its own clusters, the
/// workload's own phase getting half of `--seconds` and the other two a
/// quarter each. Interleaving spreads every phase over the whole run, so a
/// slow stretch of the machine weighs on all of them alike.
fn run_untraced(args: &Args, rep: &mut Report) {
    let setup = cluster::measure_setup(args.workload, rep);
    rep.metric("setup_s", setup, "s");

    let mut dp = datapath::Runner::start(args.seed, false, true, rep);
    let mut jc = jacobi::Runner::start(args.seed, jacobi::ITERS, false, rep);
    let mut fo = Some(failover::Runner::start(args.seed));
    let order = [Workload::Datapath, Workload::Jacobi, Workload::Failover];
    let share = order.map(|w| {
        if w == args.workload {
            PRIMARY_SHARE
        } else {
            OTHER_SHARE
        }
    });
    let mut spent = [0.0f64; 3];
    let began = Instant::now();
    loop {
        let units = [
            dp.as_ref().map_or(usize::MAX, Phase::units),
            jc.as_ref().map_or(usize::MAX, Phase::units),
            fo.as_ref().map_or(usize::MAX, Phase::units),
        ];
        let behind = (0..3).filter(|&i| units[i] != usize::MAX).min_by(|&a, &b| {
            let key = |i: usize| (units[i] > 0, spent[i] / share[i]);
            key(a).partial_cmp(&key(b)).expect("finite")
        });
        let Some(i) = behind else { break };
        if units[i] > 0 && began.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
        let t0 = Instant::now();
        match i {
            0 => dp.as_mut().map(|p| p.unit(rep)),
            1 => jc.as_mut().map(|p| p.unit(rep)),
            _ => fo.as_mut().map(|p| p.unit(rep)),
        };
        spent[i] += t0.elapsed().as_secs_f64();
    }
    let dp = dp.map(|p| p.finish(rep)).unwrap_or_default();
    datapath::report_e2e(&dp, rep);
    let jc = jc.map(|p| p.finish(rep)).unwrap_or_default();
    jacobi::report_e2e(&jc, rep);
    let fo = fo.map(|p| p.finish(rep)).unwrap_or_default();
    failover::report_e2e(&fo, rep);
}

/// A phase on its own cluster: a repeatable unit of work (a block of round
/// trips, a solve, a fresh cluster's job pairs) and the samples it collects.
pub trait Phase {
    type Out;
    /// Units of work done so far.
    fn units(&self) -> usize;
    fn unit(&mut self, rep: &mut Report);
    /// Read the cluster's counters, tear down what is still up, and count
    /// operations.
    fn finish(self, rep: &mut Report) -> Self::Out;
}

/// Run `phase` alone until `budget` is spent.
pub fn run_phase<P: Phase>(mut phase: P, budget: Budget, rep: &mut Report) -> P::Out {
    let began = Instant::now();
    while budget.more(phase.units(), began) {
        phase.unit(rep);
    }
    phase.finish(rep)
}

/// Lock a mutex shared with rank threads. Poisoning means a rank thread
/// panicked, which is a bug in this benchmark.
pub fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().expect("a rank thread panicked holding the lock")
}

/// How much work a phase does: repeat its unit of work (a block of round
/// trips, a solve, a pair of jobs) until a wall-clock budget is spent, or
/// a fixed number of times. Every budget runs at least one unit.
#[derive(Clone, Copy, Debug)]
pub enum Budget {
    Time(Duration),
    Units(usize),
}

impl Budget {
    /// Whether another unit should start, given how many ran and when the
    /// phase began.
    pub fn more(self, done: usize, began: Instant) -> bool {
        match self {
            _ if done == 0 => true,
            Budget::Time(d) => began.elapsed() < d,
            Budget::Units(n) => done < n,
        }
    }
}
