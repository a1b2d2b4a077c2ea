//! Bare-layer arms: each crate's public functions timed from outside, with
//! no cluster, daemon or runtime around them.
//!
//! * `vni`: `Fabric::send` → `Port::recv`, and `Fabric::send` →
//!   `PollingThread` → `RecvQueue::wait_matching`;
//! * `mpi`: two bare `MpiEndpoint`s ping-ponging in `RecvMode::Polled`
//!   (the mode the cluster uses) and `RecvMode::Direct`, and
//!   `collectives::allreduce` at 2 ranks with the selector's pick;
//! * `checkpoint`: `CkptImage::capture`, `CkptStore::put`,
//!   `CkptStore::latest` and `CkptImage::restore_state` of a `jacobi` rank
//!   state.
//!
//! Each two-thread arm runs `REPS` times on fresh threads and reports the
//! median of the per-repetition medians, so one slow stretch of the
//! machine moves one repetition, not the arm.

use std::time::{Duration, Instant};

use bytes::Bytes;
use starfish::{AppId, CkptValue, Epoch, NodeId, Rank, ReduceOp, VirtualTime};
use starfish_checkpoint::arch::DEFAULT_ARCH;
use starfish_checkpoint::{CkptImage, CkptLevel, CkptStore};
use starfish_mpi::collectives;
use starfish_mpi::{Comm, MpiEndpoint, RankDirectory, RecvMode, WORLD_CONTEXT};
use starfish_util::trace::TraceSink;
use starfish_util::VClock;
use starfish_vni::{
    Addr, BipMyrinet, Fabric, LayerCosts, Packet, PacketKind, PollingThread, PortId, RecvQueue,
};

use crate::datapath::{AR_ELEMS, SIZES};
use crate::jacobi;
use crate::report::Report;
use crate::stats::{median, us, Rng};

/// Fresh-thread repetitions of every two-thread arm.
const REPS: usize = 7;
/// Round trips per repetition, per size (8 B, 4 KiB, 1 MiB).
const FABRIC_RTS: [usize; 3] = [2000, 2000, 500];
const MPI_RTS: [usize; 3] = [1000, 1000, 100];
/// Allreduce calls per repetition (1 and 128 Ki f64).
const AR_CALLS: [usize; 2] = [500, 30];
/// Unmeasured warm-up operations at the start of every repetition.
const WARM: usize = 5;
/// Capture/put/latest/restore cycles of the checkpoint arm.
const CKPT_CYCLES: usize = 15;
const RECV_DEADLINE: Duration = Duration::from_secs(10);

#[derive(Default)]
pub struct Bare {
    /// One-way µs per size: raw fabric, bare endpoints (polled).
    pub fabric_oneway: [f64; 3],
    pub mpi_oneway: [f64; 3],
    pub polled_oneway_8b: f64,
    pub mpi_direct_8b: f64,
    /// Bare `collectives::allreduce` call time on rank 0, µs per size.
    pub mpi_allreduce: [f64; 2],
    pub capture_us: f64,
    pub put_us: f64,
    pub latest_us: f64,
    pub restore_us: f64,
}

/// A 2-node fabric with the cluster's network model and layer costs.
fn fabric() -> Fabric {
    let f = Fabric::new(Box::new(BipMyrinet), LayerCosts::prototype());
    f.add_node(NodeId(0));
    f.add_node(NodeId(1));
    f
}

/// Stop everything bound on `f` (ports close, polling threads exit).
fn shut(f: &Fabric) {
    f.crash_node(NodeId(0));
    f.crash_node(NodeId(1));
}

/// Run the two sides of a two-thread arm: rank 1's on its own thread,
/// rank 0's on this one. Once rank 0's side returns, `f` is shut so rank
/// 1's side cannot block forever; rank 1's result is `None` if it panicked.
fn run_pair<R0, R1: Send>(
    f: &Fabric,
    rank0: impl FnOnce() -> R0,
    rank1: impl FnOnce() -> R1 + Send,
) -> (R0, Option<R1>) {
    std::thread::scope(|s| {
        let one = s.spawn(rank1);
        let r0 = rank0();
        shut(f);
        (r0, one.join().ok())
    })
}

/// Raw fabric ping-pong; `polled` routes both receive sides through a
/// polling thread and its receive queue. Returns one-way µs samples.
fn fabric_pingpong(size: usize, rounds: usize, polled: bool, bad: &mut u64) -> Vec<f64> {
    let f = fabric();
    let a = Addr::new(NodeId(0), PortId(1));
    let b = Addr::new(NodeId(1), PortId(1));
    let (pa, pb) = (f.bind(a).expect("bind"), f.bind(b).expect("bind"));
    let data = Bytes::from(Rng::new(size as u64, 0x5000).bytes(size));
    let total = WARM + rounds;
    // A receive side is either the bare port or a polling thread feeding a
    // receive queue.
    enum Rx {
        Port(starfish_vni::Port),
        Queue(RecvQueue, PollingThread),
    }
    impl Rx {
        fn new(p: starfish_vni::Port, polled: bool) -> Rx {
            if polled {
                let q = RecvQueue::new();
                let poller = PollingThread::spawn(p, q.clone());
                Rx::Queue(q, poller)
            } else {
                Rx::Port(p)
            }
        }
        fn recv(&self) -> Option<Packet> {
            match self {
                Rx::Port(p) => p.recv_timeout(RECV_DEADLINE).ok(),
                Rx::Queue(q, _) => q.wait_matching(|_| true, RECV_DEADLINE).ok(),
            }
        }
        /// Wait for the polling thread, which exits once `shut` closed
        /// its port.
        fn join(self) {
            if let Rx::Queue(_, poller) = self {
                poller.join();
            }
        }
    }
    let (rxa, rxb) = (Rx::new(pa, polled), Rx::new(pb, polled));
    let (out, rxb) = run_pair(
        &f,
        || {
            let mut out = Vec::with_capacity(rounds);
            for i in 0..total {
                let t0 = Instant::now();
                let sent = f.send(Packet::new(a, b, PacketKind::Data, 0, data.clone()));
                let got = sent.ok().and_then(|_| rxa.recv());
                let t = t0.elapsed();
                if !matches!(got, Some(p) if p.payload == data) {
                    return None;
                }
                if i >= WARM {
                    out.push(us(t) / 2.0);
                }
            }
            Some(out)
        },
        || {
            for _ in 0..total {
                let Some(p) = rxb.recv() else { break };
                let back = Packet::new(b, a, PacketKind::Data, 0, p.payload);
                if f.send(back).is_err() {
                    break;
                }
            }
            rxb
        },
    );
    rxa.join();
    match rxb {
        Some(rxb) => rxb.join(),
        None => *bad += 1,
    }
    out.unwrap_or_else(|| {
        *bad += 1;
        Vec::new()
    })
}

/// Two bare endpoints (ranks 0 and 1 of app 1) on a fresh fabric.
fn endpoints(mode: RecvMode) -> (Fabric, MpiEndpoint, MpiEndpoint) {
    let f = fabric();
    let dir = RankDirectory::with_placement(&[NodeId(0), NodeId(1)]);
    let mk = |r: u32| {
        MpiEndpoint::new(
            &f,
            AppId(1),
            Rank(r),
            dir.clone(),
            mode,
            TraceSink::disabled(),
        )
        .expect("bind endpoint")
    };
    let (e0, e1) = (mk(0), mk(1));
    (f, e0, e1)
}

/// Bare endpoint ping-pong through `send_world`/`recv_world` (the calls
/// `Ctx::send`/`Ctx::recv` make). Returns one-way µs samples.
fn mpi_pingpong(size: usize, rounds: usize, mode: RecvMode, bad: &mut u64) -> Vec<f64> {
    let (f, mut e0, mut e1) = endpoints(mode);
    let data = Rng::new(size as u64, 0x6000).bytes(size);
    let total = WARM + rounds;
    let (out, echoed) = run_pair(
        &f,
        || {
            let mut clock = VClock::new();
            let mut out = Vec::with_capacity(rounds);
            for i in 0..total {
                let t0 = Instant::now();
                let got = e0
                    .send_world(&mut clock, Rank(1), WORLD_CONTEXT, 1, &data)
                    .and_then(|_| e0.recv_world(&mut clock, WORLD_CONTEXT, Some(Rank(1)), Some(2)));
                let t = t0.elapsed();
                if !matches!(got, Ok(m) if m.data[..] == data[..]) {
                    return None;
                }
                if i >= WARM {
                    out.push(us(t) / 2.0);
                }
            }
            Some(out)
        },
        || {
            let mut clock = VClock::new();
            for _ in 0..total {
                let Ok(m) = e1.recv_world(&mut clock, WORLD_CONTEXT, Some(Rank(0)), Some(1)) else {
                    return;
                };
                if e1
                    .send_world(&mut clock, Rank(0), WORLD_CONTEXT, 2, &m.data)
                    .is_err()
                {
                    return;
                }
            }
        },
    );
    if echoed.is_none() {
        *bad += 1;
    }
    out.unwrap_or_else(|| {
        *bad += 1;
        Vec::new()
    })
}

/// Bare `collectives::allreduce` of `elems` f64 at 2 ranks; rank 0's call
/// times in µs. Both ranks check the exact closed-form sum.
fn mpi_allreduce(elems: usize, calls: usize, bad: &mut u64) -> Vec<f64> {
    let (f, mut e0, mut e1) = endpoints(RecvMode::Polled);
    let input = |r: u64| -> Vec<f64> {
        let mut rng = Rng::new(elems as u64, 0x7000 + r);
        (0..elems)
            .map(|_| rng.range(0, 2048) as f64 - 1024.0)
            .collect()
    };
    let (x0, x1) = (input(0), input(1));
    let expect: Vec<f64> = x0.iter().zip(&x1).map(|(a, b)| a + b).collect();
    let total = WARM + calls;
    let (out, peer_bad) = run_pair(
        &f,
        || {
            let mut clock = VClock::new();
            let mut comm = Comm::world(2, Rank(0));
            let mut out = Vec::with_capacity(calls);
            for i in 0..total {
                let t0 = Instant::now();
                let got =
                    collectives::allreduce(&mut e0, &mut comm, &mut clock, &x0, ReduceOp::Sum);
                let t = t0.elapsed();
                if !matches!(got, Ok(v) if v == expect) {
                    return None;
                }
                if i >= WARM {
                    out.push(us(t));
                }
            }
            Some(out)
        },
        || {
            let mut clock = VClock::new();
            let mut comm = Comm::world(2, Rank(1));
            let mut bad = 0u64;
            for _ in 0..total {
                match collectives::allreduce(&mut e1, &mut comm, &mut clock, &x1, ReduceOp::Sum) {
                    Ok(v) if v == expect => {}
                    Ok(_) => bad += 1,
                    Err(_) => return bad + 1,
                }
            }
            bad
        },
    );
    *bad += peer_bad.unwrap_or(1);
    out.unwrap_or_else(|| {
        *bad += 1;
        Vec::new()
    })
}

/// Capture, put, latest and restore of one `jacobi` rank state, wrapped
/// the way the runtime wraps application state.
fn checkpoint_arm(seed: u64, bare: &mut Bare, bad: &mut u64) {
    let grid = &jacobi::initial_grid(seed)[..jacobi::N_LOCAL];
    let state = CkptValue::record(vec![
        ("__coll_seq", CkptValue::Int(0)),
        ("__user", jacobi::state_value(0, grid)),
    ]);
    let level = CkptLevel::Vm { arch: DEFAULT_ARCH };
    let store = CkptStore::new();
    let (app, rank) = (AppId(1), Rank(0));
    let mut t = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
    for i in 0..CKPT_CYCLES as u64 {
        let t0 = Instant::now();
        let img = CkptImage::capture(
            app,
            rank,
            Epoch(0),
            i + 1,
            level,
            &state,
            Vec::new(),
            VirtualTime::ZERO,
        );
        t[0].push(us(t0.elapsed()));
        let Ok(img) = img else {
            *bad += 1;
            return;
        };
        let t0 = Instant::now();
        store.put(img);
        t[1].push(us(t0.elapsed()));
        let t0 = Instant::now();
        let got = store.latest(app, rank);
        t[2].push(us(t0.elapsed()));
        let Some(got) = got else {
            *bad += 1;
            return;
        };
        let t0 = Instant::now();
        let restored = got.restore_state(DEFAULT_ARCH);
        t[3].push(us(t0.elapsed()));
        if !matches!(restored, Ok((v, _)) if v == state) {
            *bad += 1;
        }
        store.prune_below(app, i + 1);
    }
    bare.capture_us = median(&t[0]);
    bare.put_us = median(&t[1]);
    bare.latest_us = median(&t[2]);
    bare.restore_us = median(&t[3]);
}

/// Run every bare arm `REPS` times, calling `between` after each
/// repetition (the traced run measures its `Ctx` blocks there, so the bare
/// and full-stack numbers it compares come from the same stretch of time).
/// Each measured operation stream that breaks or returns a wrong payload
/// counts as a failed operation.
pub fn measure(seed: u64, rep: &mut Report, mut between: impl FnMut(&mut Report)) -> Bare {
    // Per-repetition medians, one list per arm: fabric ×3, mpi ×3, polled,
    // direct, allreduce ×2.
    let mut per_rep: [Vec<f64>; 10] = Default::default();
    let mut bad = 0u64;
    for _ in 0..REPS {
        for si in 0..3 {
            per_rep[si].push(median(&fabric_pingpong(
                SIZES[si],
                FABRIC_RTS[si],
                false,
                &mut bad,
            )));
            per_rep[3 + si].push(median(&mpi_pingpong(
                SIZES[si],
                MPI_RTS[si],
                RecvMode::Polled,
                &mut bad,
            )));
        }
        per_rep[6].push(median(&fabric_pingpong(
            SIZES[0],
            FABRIC_RTS[0],
            true,
            &mut bad,
        )));
        per_rep[7].push(median(&mpi_pingpong(
            SIZES[0],
            MPI_RTS[0],
            RecvMode::Direct,
            &mut bad,
        )));
        for ai in 0..2 {
            per_rep[8 + ai].push(median(&mpi_allreduce(AR_ELEMS[ai], AR_CALLS[ai], &mut bad)));
        }
        between(rep);
    }
    let m = per_rep.map(|v| median(&v));
    let mut b = Bare {
        fabric_oneway: [m[0], m[1], m[2]],
        mpi_oneway: [m[3], m[4], m[5]],
        polled_oneway_8b: m[6],
        mpi_direct_8b: m[7],
        mpi_allreduce: [m[8], m[9]],
        ..Bare::default()
    };
    checkpoint_arm(seed, &mut b, &mut bad);
    let streams = 10 * REPS as u64 + CKPT_CYCLES as u64;
    rep.ops(streams, bad.min(streams));
    if bad > 0 {
        rep.error(format!("{bad} bare-layer operations failed"));
    }
    b
}
