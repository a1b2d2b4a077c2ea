//! The per-endpoint inbox shard: one lock + condvar per bound port.
//!
//! Sharding the fabric means the send/recv hot path touches only the state
//! of the two endpoints involved: the sender takes a shared read lock on the
//! membership table to validate the route, then queues straight into the
//! destination's [`Inbox`]. Senders to different endpoints never contend.
//!
//! Besides the condvar (which serves the blocking `recv`/`recv_timeout`
//! family), every inbox carries a *doorbell*: a channel of `()` tokens where
//! a token means "packets may be waiting". The doorbell is what lets a
//! consumer multiplex a port with other channels via `crossbeam::select!`
//! without the fabric keeping a channel of packets per port. Tokens are
//! coalesced: a producer rings only when the bell is empty, and only while
//! holding the inbox lock, *after* enqueuing its packet. That makes the
//! protocol wakeup-safe: if the producer skips ringing, a token existed at
//! the moment the packet was already queued, so whichever consumer takes
//! that token (before or after the skip) drains a queue containing the
//! packet. A consumer must therefore always drain (`try_pop` until empty)
//! after taking a token; an occasional token left over after a drain wakes
//! the consumer once with an empty queue, which is harmless. Closing an
//! inbox drops the doorbell sender, so a `select!` arm sees a disconnect —
//! after which any still-queued packets remain drainable (the wire does not
//! eat frames already delivered).

use std::collections::VecDeque;
use std::time::Duration;

use crossbeam::channel::{self, Receiver, Sender};
use parking_lot::{Condvar, Mutex};

use crate::packet::Packet;

/// Outcome of a blocking pop.
pub enum Pop {
    Packet(Packet),
    Closed,
    TimedOut,
}

/// Outcome of a blocking batched pop.
pub enum PopBatch {
    /// At least one packet (never an empty vector).
    Packets(Vec<Packet>),
    /// The inbox was [rung](Inbox::ring_with) and holds no packet: every
    /// packet queued before ring number `.0` (and every earlier ring) has
    /// already been taken.
    Rung(u64),
    Closed,
    TimedOut,
}

struct InboxState {
    packets: VecDeque<Packet>,
    closed: bool,
    /// Rings so far; each ring's number is its ticket.
    rings: u64,
    /// Highest ring a pop or wait has reported.
    rings_reported: u64,
    doorbell: Option<Sender<()>>,
}

impl InboxState {
    /// Up to `max` queued packets, else the unreported rings, else `None`.
    /// Packets come first, so a ring is reported only once every packet
    /// queued before it has been taken.
    fn take_batch(&mut self, max: usize) -> Option<PopBatch> {
        if !self.packets.is_empty() {
            let take = self.packets.len().min(max.max(1));
            return Some(PopBatch::Packets(self.packets.drain(..take).collect()));
        }
        self.take_rings().map(PopBatch::Rung)
    }

    fn take_rings(&mut self) -> Option<u64> {
        (self.rings_reported < self.rings).then(|| {
            self.rings_reported = self.rings;
            self.rings
        })
    }
}

/// One port's receive queue. Shared between the fabric (producer side) and
/// the owning [`Port`](crate::fabric::Port).
pub struct Inbox {
    q: Mutex<InboxState>,
    cond: Condvar,
}

impl Inbox {
    /// Create an inbox and the doorbell receiver its port will hold.
    pub fn new() -> (std::sync::Arc<Inbox>, Receiver<()>) {
        let (tx, rx) = channel::unbounded();
        let inbox = std::sync::Arc::new(Inbox {
            q: Mutex::new(InboxState {
                packets: VecDeque::new(),
                closed: false,
                rings: 0,
                rings_reported: 0,
                doorbell: Some(tx),
            }),
            cond: Condvar::new(),
        });
        (inbox, rx)
    }

    /// Queue a packet. Returns `false` if the inbox is closed (the frame is
    /// then the caller's to account as dropped).
    pub fn push(&self, pkt: Packet) -> bool {
        let mut g = self.q.lock();
        if g.closed {
            return false;
        }
        g.packets.push_back(pkt);
        // Ring under the lock so producers' empty-checks are serialized;
        // the packet is already queued, so a consumer that takes the
        // pre-existing token (making the skip-ring decision stale) still
        // finds it in its drain.
        if let Some(bell) = &g.doorbell {
            if bell.is_empty() {
                let _ = bell.send(());
            }
        }
        drop(g);
        self.cond.notify_one();
        true
    }

    /// Close the inbox: waiters wake, the doorbell disconnects, and pushes
    /// start failing. Packets already queued stay drainable.
    pub fn close(&self) {
        let mut g = self.q.lock();
        g.closed = true;
        g.doorbell = None;
        drop(g);
        self.cond.notify_all();
    }

    /// Wake the consumer without a packet. The ring queues behind every
    /// packet already in the inbox: the batched pops report it
    /// ([`PopBatch::Rung`]) only once those are taken, and unreported rings
    /// coalesce. `f` runs under the inbox lock with the ring's ticket, so
    /// whatever it publishes is in place before any consumer can see the
    /// ring.
    pub fn ring_with<R>(&self, f: impl FnOnce(u64) -> R) -> R {
        let mut g = self.q.lock();
        g.rings += 1;
        let r = f(g.rings);
        drop(g);
        self.cond.notify_all();
        r
    }

    /// Tickets issued so far ([`ring_with`](Self::ring_with)).
    pub fn rings(&self) -> u64 {
        self.q.lock().rings
    }

    /// Block until a packet is queued, a ring is pending (taken here), the
    /// inbox closes, or `timeout` elapses; takes no packet. `false` once
    /// the inbox is closed and drained.
    pub fn wait_ready(&self, timeout: Duration) -> bool {
        let until = std::time::Instant::now() + timeout; // lint: allow(wall-clock)
        let mut g = self.q.lock();
        loop {
            if !g.packets.is_empty() || g.take_rings().is_some() {
                return true;
            }
            if g.closed {
                return false;
            }
            let left = until.saturating_duration_since(std::time::Instant::now()); // lint: allow(wall-clock)
            if self.cond.wait_for(&mut g, left).timed_out() {
                return true;
            }
        }
    }

    pub fn len(&self) -> usize {
        self.q.lock().packets.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pop without blocking. `Pop::TimedOut` doubles as "empty" here.
    pub fn try_pop(&self) -> Pop {
        let mut g = self.q.lock();
        match g.packets.pop_front() {
            Some(p) => Pop::Packet(p),
            None if g.closed => Pop::Closed,
            None => Pop::TimedOut,
        }
    }

    /// Block until a packet arrives, the inbox closes, or `timeout` (if any)
    /// elapses. Packets win over closure: a closed inbox drains first.
    pub fn pop_wait(&self, timeout: Option<Duration>) -> Pop {
        let start = std::time::Instant::now(); // lint: allow(wall-clock)
        let mut g = self.q.lock();
        loop {
            if let Some(p) = g.packets.pop_front() {
                return Pop::Packet(p);
            }
            if g.closed {
                return Pop::Closed;
            }
            match timeout {
                Some(t) => {
                    let elapsed = start.elapsed();
                    if elapsed >= t {
                        return Pop::TimedOut;
                    }
                    self.cond.wait_for(&mut g, t - elapsed);
                }
                None => self.cond.wait(&mut g),
            }
        }
    }

    /// Like [`pop_batch_wait`](Self::pop_batch_wait), but bounded by a
    /// real-time `timeout`: a pipelined burst is still drained in one lock
    /// acquisition, and an idle wait surfaces as [`PopBatch::TimedOut`]
    /// instead of blocking forever.
    pub fn pop_batch_timeout(&self, max: usize, timeout: Duration) -> PopBatch {
        let start = std::time::Instant::now(); // lint: allow(wall-clock)
        let mut g = self.q.lock();
        loop {
            if let Some(b) = g.take_batch(max) {
                return b;
            }
            if g.closed {
                return PopBatch::Closed;
            }
            let elapsed = start.elapsed();
            if elapsed >= timeout {
                return PopBatch::TimedOut;
            }
            self.cond.wait_for(&mut g, timeout - elapsed);
        }
    }

    /// Non-blocking batched pop: take up to `max` queued packets in one lock
    /// acquisition. An empty result means nothing was queued (closed or not).
    pub fn try_pop_batch(&self, max: usize) -> Vec<Packet> {
        let mut g = self.q.lock();
        let take = g.packets.len().min(max.max(1));
        g.packets.drain(..take).collect()
    }

    /// Blocking batched pop: wait for the first packet (or a ring), then
    /// take up to `max` in one lock acquisition. Never
    /// [`PopBatch::TimedOut`]; [`PopBatch::Closed`] once the inbox closed
    /// with nothing queued.
    pub fn pop_batch_wait(&self, max: usize) -> PopBatch {
        let mut g = self.q.lock();
        loop {
            if let Some(b) = g.take_batch(max) {
                return b;
            }
            if g.closed {
                return PopBatch::Closed;
            }
            self.cond.wait(&mut g);
        }
    }
}
