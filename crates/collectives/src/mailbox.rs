//! Receive-side state shared by both schedule executors: per-pair
//! mailboxes plus the parked receivers, so the receive/wake state
//! machine exists once.
//!
//! Each `(receiver, sender)` pair with messages in flight owns an
//! intrusive FIFO of arrival times. Nodes live in one slab threaded by a
//! free list; the map keyed `to << 32 | from` holds `(head, tail)` of
//! non-empty queues only, as a pair's entry goes when its queue drains.
//! An all-to-all thus touches O(messages in flight) state, not p²
//! per-pair buffers, and a warm mailbox allocates nothing. The map is
//! only looked up, never iterated, so hash order cannot reach event
//! order.

use polaris_simnet::fasthash::FastHashMap;
use polaris_simnet::time::SimTime;
use std::mem::replace;

/// End-of-list link.
const NIL: u32 = u32::MAX;

/// What a receive found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Recv {
    /// An arrived message was consumed.
    Ready,
    /// The next message lands at this later time and stays queued.
    At(SimTime),
    /// Nothing is in flight: the receiver is parked until a delivery.
    Blocked,
}

/// Mailboxes of receivers `0..n` (an executor's local rank indices).
pub(crate) struct Mailboxes {
    /// `(arrival, next)` nodes of every queue and of the free list.
    nodes: Vec<(SimTime, u32)>,
    free: u32,
    queues: FastHashMap<u64, (u32, u32)>,
    /// The sender each receiver is parked on, and since when.
    parked: Vec<Option<(u32, SimTime)>>,
}

fn key(to: u32, from: u32) -> u64 {
    (u64::from(to) << 32) | u64::from(from)
}

impl Mailboxes {
    pub(crate) fn new(n: usize) -> Self {
        Mailboxes {
            nodes: Vec::new(),
            free: NIL,
            queues: FastHashMap::default(),
            parked: vec![None; n],
        }
    }

    /// Queue a message from `from` reaching `to` at `arrival`. If `to`
    /// was parked on `from` it is unparked, and this returns when it
    /// wakes: on arrival, or at once if it parked later than that.
    pub(crate) fn deliver(&mut self, to: u32, from: u32, arrival: SimTime) -> Option<SimTime> {
        let node = match self.free {
            NIL => {
                assert!(self.nodes.len() < NIL as usize, "slab index overflow");
                self.nodes.push((arrival, NIL));
                self.nodes.len() as u32 - 1
            }
            n => {
                self.free = replace(&mut self.nodes[n as usize], (arrival, NIL)).1;
                n
            }
        };
        let q = self.queues.entry(key(to, from)).or_insert((node, NIL));
        let tail = replace(&mut q.1, node);
        if tail != NIL {
            self.nodes[tail as usize].1 = node;
        }
        let parked = self.parked[to as usize].take_if(|&mut (f, _)| f == from);
        parked.map(|(_, since)| since.max(arrival))
    }

    /// `to` receives the next message from `from` at `now`.
    pub(crate) fn recv(&mut self, to: u32, from: u32, now: SimTime) -> Recv {
        let k = key(to, from);
        let Some(q) = self.queues.get_mut(&k) else {
            self.parked[to as usize] = Some((from, now));
            return Recv::Blocked;
        };
        let head = q.0;
        let (arrival, next) = self.nodes[head as usize];
        if arrival > now {
            return Recv::At(arrival);
        }
        if head == q.1 {
            self.queues.remove(&k);
        } else {
            q.0 = next;
        }
        self.nodes[head as usize].1 = replace(&mut self.free, head);
        Recv::Ready
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polaris_simnet::rng::SplitMix64;
    use std::collections::{HashMap, VecDeque};

    /// Random pushes and receives across many pairs agree, step by
    /// step, with a plain map of per-pair `VecDeque`s.
    #[test]
    fn matches_reference_queues() {
        const RECEIVERS: u32 = 24;
        let mut rng = SplitMix64::new(0x3A11_B0C5);
        let mut mb = Mailboxes::new(RECEIVERS as usize);
        let mut reference: HashMap<(u32, u32), VecDeque<SimTime>> = HashMap::new();
        let mut parked: Vec<Option<(u32, SimTime)>> = vec![None; RECEIVERS as usize];
        for _ in 0..200_000 {
            let to = rng.next_below(u64::from(RECEIVERS)) as u32;
            let from = rng.next_below(u64::from(RECEIVERS)) as u32;
            if rng.next_below(2) == 0 {
                let arrival = SimTime(rng.next_below(1_000));
                reference.entry((to, from)).or_default().push_back(arrival);
                let wake = match parked[to as usize] {
                    Some((f, since)) if f == from => {
                        parked[to as usize] = None;
                        Some(since.max(arrival))
                    }
                    _ => None,
                };
                assert_eq!(mb.deliver(to, from, arrival), wake);
            } else if parked[to as usize].is_none() {
                let now = SimTime(rng.next_below(1_000));
                let q = reference.entry((to, from)).or_default();
                let want = match q.front() {
                    None => {
                        parked[to as usize] = Some((from, now));
                        Recv::Blocked
                    }
                    Some(&a) if a > now => Recv::At(a),
                    Some(_) => {
                        q.pop_front();
                        Recv::Ready
                    }
                };
                assert_eq!(mb.recv(to, from, now), want);
            }
        }
        let live: usize = reference.values().map(VecDeque::len).sum();
        assert_eq!(
            mb.queues.len(),
            reference.values().filter(|q| !q.is_empty()).count()
        );
        assert!(live > 0, "the interleaving should leave messages in flight");
    }

    /// Drained slots are reused: the slab never grows past the peak
    /// number of messages in flight, and drained pairs leave the map.
    #[test]
    fn slab_never_exceeds_peak_in_flight() {
        let mut rng = SplitMix64::new(7);
        let mut mb = Mailboxes::new(8);
        let (mut in_flight, mut peak) = (vec![0u32; 64], 0u32);
        for round in 0..10_000u64 {
            let to = rng.next_below(8) as u32;
            let from = rng.next_below(8) as u32;
            let pair = (to * 8 + from) as usize;
            if in_flight[pair] < 3 && rng.next_below(2) == 0 {
                mb.deliver(to, from, SimTime(round));
                in_flight[pair] += 1;
            } else if in_flight[pair] > 0 {
                assert_eq!(mb.recv(to, from, SimTime(u64::MAX)), Recv::Ready);
                in_flight[pair] -= 1;
            }
            peak = peak.max(in_flight.iter().sum());
            assert!(
                mb.nodes.len() <= peak as usize,
                "slab {} > peak {peak}",
                mb.nodes.len()
            );
        }
        for (pair, n) in in_flight.iter().enumerate() {
            for _ in 0..*n {
                let (to, from) = (pair as u32 / 8, pair as u32 % 8);
                assert_eq!(mb.recv(to, from, SimTime(u64::MAX)), Recv::Ready);
            }
        }
        assert!(mb.queues.is_empty());
    }
}
