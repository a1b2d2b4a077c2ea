//! The polling thread and the received-messages queue (paper §2.2.1).
//!
//! "In Starfish we overcome this problem by introducing a low priority
//! thread, called the *polling thread*. This thread continuously polls the
//! network, so whenever a message arrives, the polling thread receives the
//! message and puts it in a queue of received messages, for further handling
//! by the application at a later time."
//!
//! The benefit the paper claims — receive operations avoid a kernel
//! interaction on the critical path — is modelled by the cost accounting in
//! `starfish-mpi`: with the polling thread, a receive pays only
//! [`LayerCosts::poll`](crate::models::LayerCosts::poll); without it (ablation), every receive pays an extra
//! simulated system-call cost. The thread itself is real: it owns the port
//! and moves packets concurrently with application compute.

use std::collections::VecDeque;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::{Condvar, Mutex, MutexGuard};

use starfish_telemetry::{metric, Registry};
use starfish_util::{Error, Result};

use crate::fabric::Port;
use crate::inbox::PopBatch;
use crate::packet::Packet;

/// The queue of received messages fed by the polling thread and consumed by
/// the MPI module's matching logic.
#[derive(Clone, Default)]
pub struct RecvQueue {
    inner: Arc<QueueInner>,
}

#[derive(Default)]
struct QueueInner {
    q: Mutex<QueueState>,
    cond: Condvar,
}

#[derive(Default)]
struct QueueState {
    packets: VecDeque<Packet>,
    closed: bool,
    /// A [`RecvQueue::ring`] no wait has consumed yet.
    rung: bool,
    /// Highest port ring ticket passed on by [`RecvQueue::ring`].
    rings_passed: u64,
    /// Telemetry registry whose `vni.recv_queue_depth` gauge mirrors
    /// `packets.len()` after every mutation.
    metrics: Option<Registry>,
}

/// Why a blocking wait on the queue returned.
enum Wake {
    Packets,
    Rung,
    TimedOut,
}

impl QueueState {
    fn publish_depth(&self) {
        if let Some(m) = &self.metrics {
            m.gauge_set(metric::VNI_RECV_QUEUE_DEPTH, self.packets.len() as i64);
        }
    }
}

impl RecvQueue {
    pub fn new() -> Self {
        RecvQueue::default()
    }

    /// Mirror this queue's depth into `reg`'s `vni.recv_queue_depth` gauge.
    pub fn attach_metrics(&self, reg: Registry) {
        let mut g = self.inner.q.lock();
        g.metrics = Some(reg);
        g.publish_depth();
    }

    /// Enqueue a packet (called by the polling thread).
    pub fn push(&self, pkt: Packet) {
        let mut g = self.inner.q.lock();
        g.packets.push_back(pkt);
        g.publish_depth();
        self.inner.cond.notify_all();
    }

    /// Enqueue a batch of packets under one lock acquisition, preserving
    /// order (the polling thread's batched drain lands here).
    pub fn push_batch(&self, batch: Vec<Packet>) {
        if batch.is_empty() {
            return;
        }
        let mut g = self.inner.q.lock();
        g.packets.extend(batch);
        g.publish_depth();
        self.inner.cond.notify_all();
    }

    /// Mark the queue closed (port gone); waiters wake with `Closed`.
    pub fn close(&self) {
        let mut g = self.inner.q.lock();
        g.closed = true;
        self.inner.cond.notify_all();
    }

    /// Port ring `ticket` has passed: every packet delivered to the port
    /// before it is queued here. Wakes the owner's blocked wait without a
    /// packet: the next (or current) [`wait_batch`](Self::wait_batch)
    /// returns `Interrupted` and the next [`wait_ready`](Self::wait_ready)
    /// returns. A ring with nobody waiting is latched, once, for the next
    /// wait. The polling thread rings here when its port is rung, so the
    /// process runtime's daemon messages and the data path share one wake
    /// source.
    pub fn ring(&self, ticket: u64) {
        let mut g = self.inner.q.lock();
        g.rung = true;
        g.rings_passed = g.rings_passed.max(ticket);
        self.inner.cond.notify_all();
    }

    /// The highest port ring ticket passed on so far.
    pub fn rings_passed(&self) -> u64 {
        self.inner.q.lock().rings_passed
    }

    pub fn is_closed(&self) -> bool {
        self.inner.q.lock().closed
    }

    pub fn len(&self) -> usize {
        self.inner.q.lock().packets.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Remove and return up to `max` packets from the front of the queue in
    /// one lock acquisition (empty when nothing is queued). The MPI module's
    /// ingest loop drains pipelined rendezvous bursts through here so a
    /// burst costs one lock hop, not one per frame.
    pub fn take_batch(&self, max: usize) -> Vec<Packet> {
        let mut g = self.inner.q.lock();
        let take = g.packets.len().min(max.max(1));
        let batch: Vec<Packet> = g.packets.drain(..take).collect();
        if !batch.is_empty() {
            g.publish_depth();
        }
        batch
    }

    /// Block until at least one packet is available (or `deadline` passes),
    /// then remove and return up to `max` packets in one lock acquisition.
    /// `Ok(vec![])` means the wait timed out with nothing queued; a
    /// [`ring`](Self::ring) ends the wait with `Interrupted`, and a closed
    /// queue wins over both with `Closed`.
    pub fn wait_batch(&self, max: usize, deadline: Duration) -> Result<Vec<Packet>> {
        let mut g = self.inner.q.lock();
        match self.wait(&mut g, deadline)? {
            Wake::Packets => {
                let take = g.packets.len().min(max.max(1));
                let batch: Vec<Packet> = g.packets.drain(..take).collect();
                g.publish_depth();
                Ok(batch)
            }
            Wake::Rung => Err(Error::interrupted("receive queue rung")),
            Wake::TimedOut => Ok(Vec::new()),
        }
    }

    /// Block until a packet is queued, the queue is rung, or `deadline`
    /// passes, taking nothing: the owner's service loop drains whatever
    /// woke it. `Closed` once the port is gone.
    pub fn wait_ready(&self, deadline: Duration) -> Result<()> {
        let mut g = self.inner.q.lock();
        self.wait(&mut g, deadline).map(drop)
    }

    fn wait(&self, g: &mut MutexGuard<'_, QueueState>, deadline: Duration) -> Result<Wake> {
        let until = std::time::Instant::now() + deadline; // lint: allow(wall-clock)
        loop {
            if !g.packets.is_empty() {
                return Ok(Wake::Packets);
            }
            if g.closed {
                return Err(Error::closed("receive queue closed"));
            }
            if std::mem::take(&mut g.rung) {
                return Ok(Wake::Rung);
            }
            let left = until.saturating_duration_since(std::time::Instant::now()); // lint: allow(wall-clock)
            if self.inner.cond.wait_for(g, left).timed_out() {
                return Ok(if g.packets.is_empty() {
                    Wake::TimedOut
                } else {
                    Wake::Packets
                });
            }
        }
    }

    /// Remove and return the first packet matching `pred`, without blocking.
    pub fn take_matching(&self, mut pred: impl FnMut(&Packet) -> bool) -> Option<Packet> {
        let mut g = self.inner.q.lock();
        let idx = g.packets.iter().position(&mut pred)?;
        let pkt = g.packets.remove(idx);
        g.publish_depth();
        pkt
    }

    /// Block until a packet matching `pred` is available, then remove and
    /// return it. `deadline` bounds the real-time wait.
    pub fn wait_matching(
        &self,
        mut pred: impl FnMut(&Packet) -> bool,
        deadline: Duration,
    ) -> Result<Packet> {
        let start = std::time::Instant::now(); // lint: allow(wall-clock)
        let mut g = self.inner.q.lock();
        loop {
            if let Some(idx) = g.packets.iter().position(&mut pred) {
                let pkt = g.packets.remove(idx).expect("index valid under lock");
                g.publish_depth();
                return Ok(pkt);
            }
            if g.closed {
                return Err(Error::closed("receive queue closed"));
            }
            let elapsed = start.elapsed();
            if elapsed >= deadline {
                return Err(Error::timeout("wait_matching"));
            }
            let timed_out = self
                .inner
                .cond
                .wait_for(&mut g, deadline - elapsed)
                .timed_out();
            if timed_out && g.packets.iter().position(&mut pred).is_none() {
                if g.closed {
                    return Err(Error::closed("receive queue closed"));
                }
                return Err(Error::timeout("wait_matching"));
            }
        }
    }

    /// Snapshot every queued packet (used when checkpointing: in-transit
    /// messages that already reached the queue belong to the local state).
    pub fn snapshot(&self) -> Vec<Packet> {
        self.inner.q.lock().packets.iter().cloned().collect()
    }

    /// Replace the queue contents (used on restore).
    pub fn restore(&self, packets: Vec<Packet>) {
        let mut g = self.inner.q.lock();
        g.packets = packets.into();
        g.publish_depth();
        self.inner.cond.notify_all();
    }

    /// Drop everything queued (used when an application is killed).
    pub fn clear(&self) {
        let mut g = self.inner.q.lock();
        g.packets.clear();
        g.publish_depth();
    }
}

/// Handle to a running polling thread. Dropping the handle does not stop the
/// thread; it stops when its port closes (node crash, process teardown).
pub struct PollingThread {
    handle: Option<JoinHandle<u64>>,
}

impl PollingThread {
    /// Packets drained from the port per wakeup. Bounds the time the recv
    /// queue lock is held per batch while amortizing the port lock + condvar
    /// handshake over many packets under load.
    pub const DRAIN_BATCH: usize = 64;

    /// Spawn the polling thread: moves every packet from `port` into `queue`
    /// until the port closes. Each wakeup drains up to [`Self::DRAIN_BATCH`]
    /// packets in one port lock acquisition instead of one packet per
    /// handshake. A ring on the port ([`Port::bell`]) is passed on as a
    /// [`RecvQueue::ring`] behind the packets delivered before it. Returns
    /// immediately.
    pub fn spawn(port: Port, queue: RecvQueue) -> Self {
        let handle = std::thread::Builder::new()
            .name(format!("starfish-poll-{}", port.addr()))
            .spawn(move || {
                let mut moved = 0u64;
                loop {
                    match port.recv_batch(Self::DRAIN_BATCH) {
                        Ok(PopBatch::Packets(batch)) => {
                            moved += batch.len() as u64;
                            queue.push_batch(batch);
                        }
                        Ok(PopBatch::Rung(ticket)) => queue.ring(ticket),
                        Ok(_) => {}
                        Err(_) => {
                            queue.close();
                            return moved;
                        }
                    }
                }
            })
            .expect("spawn polling thread");
        PollingThread {
            handle: Some(handle),
        }
    }

    /// Wait for the thread to exit (after its port closed); returns the
    /// number of packets it moved.
    pub fn join(mut self) -> u64 {
        self.handle
            .take()
            .map(|h| h.join().unwrap_or(0))
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::Fabric;
    use crate::models::{Ideal, LayerCosts};
    use crate::packet::{Addr, PacketKind, PortId};
    use bytes::Bytes;
    use starfish_util::NodeId;

    fn setup() -> (Fabric, Addr, Addr) {
        let f = Fabric::new(Box::new(Ideal), LayerCosts::zero());
        f.add_node(NodeId(0));
        f.add_node(NodeId(1));
        (
            f,
            Addr::new(NodeId(0), PortId(1)),
            Addr::new(NodeId(1), PortId(1)),
        )
    }

    fn pkt(src: Addr, dst: Addr, tag: u64) -> Packet {
        Packet::new(src, dst, PacketKind::Data, tag, Bytes::from_static(b"x"))
    }

    #[test]
    fn polling_thread_moves_packets() {
        let (f, a, b) = setup();
        let _pa = f.bind(a).unwrap();
        let pb = f.bind(b).unwrap();
        let q = RecvQueue::new();
        let poll = PollingThread::spawn(pb, q.clone());
        for t in 0..5 {
            f.send(pkt(a, b, t)).unwrap();
        }
        // Wait for all five to land.
        for t in 0..5 {
            let got = q
                .wait_matching(|p| p.tag == t, Duration::from_secs(2))
                .unwrap();
            assert_eq!(got.tag, t);
        }
        f.crash_node(NodeId(1));
        assert_eq!(poll.join(), 5);
        assert!(q.is_closed());
    }

    #[test]
    fn take_matching_picks_by_predicate_not_order() {
        let q = RecvQueue::new();
        let (_, a, b) = setup();
        for t in [3u64, 1, 2] {
            q.push(pkt(a, b, t));
        }
        let got = q.take_matching(|p| p.tag == 2).unwrap();
        assert_eq!(got.tag, 2);
        assert_eq!(q.len(), 2);
        assert!(q.take_matching(|p| p.tag == 99).is_none());
    }

    #[test]
    fn wait_matching_times_out() {
        let q = RecvQueue::new();
        let r = q.wait_matching(|_| true, Duration::from_millis(30));
        assert!(matches!(r, Err(Error::Timeout(_))));
    }

    #[test]
    fn wait_matching_wakes_on_push() {
        let q = RecvQueue::new();
        let (_, a, b) = setup();
        let q2 = q.clone();
        let h =
            std::thread::spawn(move || q2.wait_matching(|p| p.tag == 7, Duration::from_secs(2)));
        std::thread::sleep(Duration::from_millis(20));
        q.push(pkt(a, b, 7));
        assert_eq!(h.join().unwrap().unwrap().tag, 7);
    }

    #[test]
    fn close_wakes_waiters_with_error() {
        let q = RecvQueue::new();
        let q2 = q.clone();
        let h = std::thread::spawn(move || q2.wait_matching(|_| true, Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert!(matches!(h.join().unwrap(), Err(Error::Closed(_))));
    }

    #[test]
    fn ring_wakes_a_blocked_wait_batch_without_a_packet() {
        let q = RecvQueue::new();
        let q2 = q.clone();
        let h = std::thread::spawn(move || q2.wait_batch(8, Duration::from_secs(30)));
        std::thread::sleep(Duration::from_millis(20));
        q.ring(1);
        assert!(matches!(h.join().unwrap(), Err(Error::Interrupted(_))));
        assert_eq!(q.rings_passed(), 1);
        assert!(q.is_empty());
    }

    #[test]
    fn ring_without_a_waiter_is_latched_once() {
        let q = RecvQueue::new();
        q.ring(1);
        q.ring(2);
        assert!(matches!(
            q.wait_batch(8, Duration::from_secs(30)),
            Err(Error::Interrupted(_))
        ));
        // The second ring folded into the first: the next wait times out.
        assert!(q
            .wait_batch(8, Duration::from_millis(20))
            .unwrap()
            .is_empty());
        assert_eq!(q.rings_passed(), 2);
        q.ring(3);
        q.wait_ready(Duration::from_secs(30)).unwrap();
        assert!(q
            .wait_batch(8, Duration::from_millis(20))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn packets_come_before_a_pending_ring() {
        let q = RecvQueue::new();
        let (_, a, b) = setup();
        q.ring(1);
        q.push(pkt(a, b, 4));
        let got = q.wait_batch(8, Duration::from_secs(30)).unwrap();
        assert_eq!(got.len(), 1);
        // The ring is still owed to the next wait.
        assert!(matches!(
            q.wait_batch(8, Duration::from_secs(30)),
            Err(Error::Interrupted(_))
        ));
    }

    #[test]
    fn close_wins_over_a_ring() {
        let q = RecvQueue::new();
        q.ring(1);
        q.close();
        assert!(matches!(
            q.wait_batch(8, Duration::from_secs(30)),
            Err(Error::Closed(_))
        ));
        assert!(matches!(
            q.wait_ready(Duration::from_secs(30)),
            Err(Error::Closed(_))
        ));
    }

    #[test]
    fn wait_ready_wakes_on_push_and_takes_nothing() {
        let q = RecvQueue::new();
        let (_, a, b) = setup();
        let q2 = q.clone();
        let h = std::thread::spawn(move || q2.wait_ready(Duration::from_secs(30)));
        std::thread::sleep(Duration::from_millis(20));
        q.push(pkt(a, b, 9));
        h.join().unwrap().unwrap();
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn snapshot_and_restore() {
        let q = RecvQueue::new();
        let (_, a, b) = setup();
        q.push(pkt(a, b, 1));
        q.push(pkt(a, b, 2));
        let snap = q.snapshot();
        assert_eq!(snap.len(), 2);
        q.clear();
        assert!(q.is_empty());
        q.restore(snap);
        assert_eq!(q.len(), 2);
        assert_eq!(q.take_matching(|p| p.tag == 1).unwrap().tag, 1);
    }
}
