//! Cluster boot, set-up timing and teardown shared by the phases.

use std::time::{Duration, Instant};

use starfish::{AppId, Cluster, Result};
use starfish_telemetry::{metric, MetricId};

use crate::report::Report;
use crate::stats::median;
use crate::{datapath, failover, jacobi, Workload};

/// Cluster builds timed per run for `setup_s` (the median is reported).
const SETUP_REPS: usize = 7;

/// How long the benchmark waits for one job before counting it failed.
pub const JOB_TIMEOUT: Duration = Duration::from_secs(60);

/// Boot a cluster of `nodes` default machines on the BIP/Myrinet model.
/// `instrumented == false` turns the flight recorder and the event bus off
/// (the instrumentation-cost arm).
pub fn boot(nodes: u32, instrumented: bool) -> Result<Cluster> {
    let b = Cluster::builder().nodes(nodes).network_bip();
    if instrumented {
        b.build()
    } else {
        b.no_flight_recorder().no_event_bus().build()
    }
}

/// Stop every daemon, polling thread and ensemble stack of `cluster` by
/// crashing all of its nodes, then drop it. Each cluster owns its fabric,
/// so this touches no other cluster.
pub fn teardown(cluster: Cluster) {
    for (node, _) in cluster.fabric().nodes() {
        cluster.fabric().crash_node(node);
    }
    // Give the stacks a moment to observe their closed ports and exit so
    // their threads do not compete with the next measurement.
    std::thread::sleep(Duration::from_millis(20));
    drop(cluster);
}

/// Median wall time to build the workload's cluster and register its
/// application, over several builds.
pub fn measure_setup(w: Workload, rep: &mut Report) -> f64 {
    let mut samples = Vec::new();
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let booted = match w {
            Workload::Datapath => datapath::boot(true).map(|(c, _)| c),
            Workload::Jacobi => jacobi::boot().map(|(c, _)| c),
            Workload::Failover => failover::boot().map(|(c, _)| c),
        };
        match booted {
            Ok(c) => {
                samples.push(t0.elapsed().as_secs_f64());
                teardown(c);
            }
            Err(e) => {
                rep.error(format!("cluster set-up failed: {e}"));
            }
        }
    }
    rep.ops(SETUP_REPS as u64, (SETUP_REPS - samples.len()) as u64);
    median(&samples)
}

/// Submit `name` with `size` ranks under the default (restart) policy and
/// wait for it to finish. Returns the app id, or the error that ended it.
pub fn run_job(cluster: &Cluster, name: &str, size: u32) -> Result<AppId> {
    let app = cluster.submit(name, size, starfish::SubmitOpts::default())?;
    cluster.wait_app_done(app, JOB_TIMEOUT)?;
    Ok(app)
}

/// The MPI reliability and protocol counters reported per workload.
pub const MPI_COUNTERS: [(&str, MetricId); 4] = [
    ("rndv_sends", metric::MPI_RNDV_SENDS),
    ("credit_fallbacks", metric::MPI_CREDIT_FALLBACKS),
    ("retransmits", metric::MPI_RETRANSMITS),
    ("nacks", metric::MPI_NACKS),
];

/// [`MPI_COUNTERS`] summed over every rank process of `cluster`, from the
/// stats hub (each process flushes its counters when it finishes).
pub fn mpi_counters(cluster: &Cluster) -> [u64; 4] {
    let merged = cluster.stats().merged();
    MPI_COUNTERS.map(|(_, id)| merged.counter(id))
}
