//! Simulated-time execution of collective schedules.
//!
//! The executable algorithms in this crate run on real threads over the
//! shared-memory fabric — that validates *correctness*. To measure
//! *scaling shape* at thousands of nodes on the 2002-era interconnects
//! (experiment F3), the same communication schedules are interpreted by
//! a discrete-event executor over the flow-level [`Network`] model.
//!
//! [`schedule`] generates, per rank, the operation list each algorithm
//! performs; `tests` in this module cross-check those schedules against
//! traces recorded from the executable algorithms, so the simulator is
//! guaranteed to time the algorithm that actually runs.
//!
//! Receives go through the per-pair mailboxes in `mailbox.rs`, which
//! the sharded executor in [`crate::parsim`] shares.

use crate::allgather::AllgatherAlgo;
use crate::allreduce::AllreduceAlgo;
use crate::barrier::BarrierAlgo;
use crate::bcast::{chunk_range, BcastAlgo};
use crate::mailbox::{Mailboxes, Recv};
use polaris_simnet::engine::{run, Scheduler, World};
use polaris_simnet::network::Network;
use polaris_simnet::time::{SimDuration, SimTime};

/// One step of a rank's schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedOp {
    /// Nonblocking send of `bytes` payload to `to`.
    Send { to: u32, bytes: u64 },
    /// Blocking receive of the next message from `from`.
    Recv { from: u32 },
    /// Local work proportional to `bytes` (reduction arithmetic).
    Compute { bytes: u64 },
    /// Local work for an explicit virtual-time duration. Workload
    /// compute phases priced by the roofline model compile to this —
    /// the duration is fixed at schedule time, so the executor never
    /// needs the node model.
    Work { ps: u64 },
}

/// Which collective to schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Collective {
    Barrier(BarrierAlgo),
    Bcast(BcastAlgo),
    Allreduce(AllreduceAlgo),
    Allgather(AllgatherAlgo),
    AlltoallPairwise,
    /// Binomial-tree reduce to root 0 (the building block of the
    /// hierarchical group-local stage in [`crate::hier`]).
    ReduceBinomial,
}

/// Generate rank `rank`'s schedule for `coll` over `p` ranks with a
/// total payload of `bytes` (semantics per collective: bcast/allreduce =
/// vector size; allgather/alltoall = per-rank block size).
pub fn schedule(coll: Collective, rank: u32, p: u32, bytes: u64) -> Vec<SchedOp> {
    let mut ops = Vec::new();
    match coll {
        Collective::Barrier(BarrierAlgo::Dissemination) => {
            let mut dist = 1;
            while dist < p {
                ops.push(SchedOp::Send {
                    to: (rank + dist) % p,
                    bytes: 0,
                });
                ops.push(SchedOp::Recv {
                    from: (rank + p - dist) % p,
                });
                dist <<= 1;
            }
        }
        Collective::Barrier(BarrierAlgo::Tree) => {
            if p > 1 {
                let mut mask = 1u32;
                while mask < p {
                    if rank & mask == 0 {
                        if (rank | mask) < p {
                            ops.push(SchedOp::Recv { from: rank | mask });
                        }
                    } else {
                        ops.push(SchedOp::Send {
                            to: rank & !mask,
                            bytes: 0,
                        });
                        break;
                    }
                    mask <<= 1;
                }
                let mut mask;
                if rank != 0 {
                    let low = rank & rank.wrapping_neg();
                    ops.push(SchedOp::Recv { from: rank & !low });
                    mask = low >> 1;
                } else {
                    mask = p.next_power_of_two() >> 1;
                }
                while mask > 0 {
                    let peer = rank | mask;
                    if peer < p && peer != rank {
                        ops.push(SchedOp::Send {
                            to: peer,
                            bytes: 0,
                        });
                    }
                    mask >>= 1;
                }
            }
        }
        Collective::Bcast(BcastAlgo::Binomial) => {
            // root is 0 in simulated schedules.
            if p > 1 {
                let rel = rank;
                let mut mask = 1u32;
                while mask < p {
                    if rel & mask != 0 {
                        ops.push(SchedOp::Recv { from: rel - mask });
                        break;
                    }
                    mask <<= 1;
                }
                mask >>= 1;
                while mask > 0 {
                    if rel & mask == 0 && rel + mask < p {
                        ops.push(SchedOp::Send {
                            to: rel + mask,
                            bytes,
                        });
                    }
                    mask >>= 1;
                }
            }
        }
        Collective::Bcast(BcastAlgo::ScatterAllgather) => {
            if p > 1 {
                let n = bytes as usize;
                if rank == 0 {
                    for i in 1..p {
                        let (_, len) = chunk_range(n, p, i);
                        ops.push(SchedOp::Send {
                            to: i,
                            bytes: len as u64,
                        });
                    }
                } else {
                    ops.push(SchedOp::Recv { from: 0 });
                }
                let next = (rank + 1) % p;
                let prev = (rank + p - 1) % p;
                let mut have = rank;
                for _ in 0..p - 1 {
                    let (_, s_len) = chunk_range(n, p, have);
                    ops.push(SchedOp::Send {
                        to: next,
                        bytes: s_len as u64,
                    });
                    ops.push(SchedOp::Recv { from: prev });
                    have = (have + p - 1) % p;
                }
            }
        }
        Collective::Allreduce(AllreduceAlgo::RecursiveDoubling) => {
            if p > 1 {
                let p2 = if p.is_power_of_two() {
                    p
                } else {
                    p.next_power_of_two() >> 1
                };
                let rem = p - p2;
                let newrank: Option<u32> = if rank < 2 * rem {
                    if rank.is_multiple_of(2) {
                        ops.push(SchedOp::Send {
                            to: rank + 1,
                            bytes,
                        });
                        None
                    } else {
                        ops.push(SchedOp::Recv { from: rank - 1 });
                        ops.push(SchedOp::Compute { bytes });
                        Some(rank / 2)
                    }
                } else {
                    Some(rank - rem)
                };
                if let Some(nr) = newrank {
                    let mut mask = 1u32;
                    while mask < p2 {
                        let peer_nr = nr ^ mask;
                        let peer = if peer_nr < rem {
                            peer_nr * 2 + 1
                        } else {
                            peer_nr + rem
                        };
                        ops.push(SchedOp::Send { to: peer, bytes });
                        ops.push(SchedOp::Recv { from: peer });
                        ops.push(SchedOp::Compute { bytes });
                        mask <<= 1;
                    }
                }
                if rank < 2 * rem {
                    if rank.is_multiple_of(2) {
                        ops.push(SchedOp::Recv { from: rank + 1 });
                    } else {
                        ops.push(SchedOp::Send {
                            to: rank - 1,
                            bytes,
                        });
                    }
                }
            }
        }
        Collective::Allreduce(AllreduceAlgo::Ring) => {
            if p > 1 {
                // The executable ring chunks element-wise; mirror it with
                // 8-byte elements (the reduction types used throughout)
                // so byte counts match the real algorithm exactly.
                let (unit, n) = if bytes.is_multiple_of(8) {
                    (8u64, (bytes / 8) as usize)
                } else {
                    (1u64, bytes as usize)
                };
                let next = (rank + 1) % p;
                let prev = (rank + p - 1) % p;
                for s in 0..p - 1 {
                    let send_idx = (rank + p - s) % p;
                    let recv_idx = (rank + p - s - 1) % p;
                    let (_, s_len) = chunk_range(n, p, send_idx);
                    let (_, r_len) = chunk_range(n, p, recv_idx);
                    ops.push(SchedOp::Send {
                        to: next,
                        bytes: s_len as u64 * unit,
                    });
                    ops.push(SchedOp::Recv { from: prev });
                    ops.push(SchedOp::Compute {
                        bytes: r_len as u64 * unit,
                    });
                }
                for s in 0..p - 1 {
                    let send_idx = (rank + 1 + p - s) % p;
                    let (_, s_len) = chunk_range(n, p, send_idx);
                    ops.push(SchedOp::Send {
                        to: next,
                        bytes: s_len as u64 * unit,
                    });
                    ops.push(SchedOp::Recv { from: prev });
                }
            }
        }
        Collective::Allreduce(AllreduceAlgo::ReduceBcast) => {
            // Binomial reduce to 0 then binomial bcast from 0.
            ops = schedule(Collective::ReduceBinomial, rank, p, bytes);
            ops.extend(schedule(Collective::Bcast(BcastAlgo::Binomial), rank, p, bytes));
        }
        Collective::Allgather(AllgatherAlgo::Ring) => {
            if p > 1 {
                let next = (rank + 1) % p;
                let prev = (rank + p - 1) % p;
                for _ in 0..p - 1 {
                    ops.push(SchedOp::Send { to: next, bytes });
                    ops.push(SchedOp::Recv { from: prev });
                }
            }
        }
        Collective::Allgather(AllgatherAlgo::Bruck) => {
            if p > 1 {
                let mut held = 1u32;
                while held < p {
                    let count = held.min(p - held);
                    let to = (rank + p - held) % p;
                    let from = (rank + held) % p;
                    ops.push(SchedOp::Send {
                        to,
                        bytes: count as u64 * bytes,
                    });
                    ops.push(SchedOp::Recv { from });
                    held += count;
                }
            }
        }
        Collective::AlltoallPairwise => {
            for r in 1..p {
                let dst = (rank + r) % p;
                let src = (rank + p - r) % p;
                ops.push(SchedOp::Send { to: dst, bytes });
                ops.push(SchedOp::Recv { from: src });
            }
        }
        Collective::ReduceBinomial => {
            // Binomial reduce to root 0 — the reduce phase of
            // ReduceBcast, without the broadcast.
            if p > 1 {
                let mut mask = 1u32;
                while mask < p {
                    if rank & mask == 0 {
                        if (rank | mask) < p {
                            ops.push(SchedOp::Recv { from: rank | mask });
                            ops.push(SchedOp::Compute { bytes });
                        }
                    } else {
                        ops.push(SchedOp::Send {
                            to: rank & !mask,
                            bytes,
                        });
                        break;
                    }
                    mask <<= 1;
                }
            }
        }
    }
    ops
}

/// Host-side cost knobs for the executor.
#[derive(Debug, Clone, Copy)]
pub struct ExecParams {
    /// Per-operation CPU overhead (post/match cost).
    pub overhead: SimDuration,
    /// Reduction arithmetic throughput, bytes/sec.
    pub compute_bps: u64,
}

impl ExecParams {
    /// Virtual time a local op takes: reduction arithmetic at
    /// `compute_bps` for `Compute`, the fixed duration for `Work`, and
    /// nothing for communication.
    pub fn local_time(&self, op: SchedOp) -> SimDuration {
        match op {
            SchedOp::Compute { bytes } => {
                SimDuration::from_secs_f64(bytes as f64 / self.compute_bps as f64)
            }
            SchedOp::Work { ps } => SimDuration::from_ps(ps),
            SchedOp::Send { .. } | SchedOp::Recv { .. } => SimDuration::ZERO,
        }
    }
}

impl Default for ExecParams {
    fn default() -> Self {
        ExecParams {
            overhead: SimDuration::from_ns(500),
            compute_bps: 2_000_000_000,
        }
    }
}

struct RankState {
    ops: Vec<SchedOp>,
    pc: usize,
    finished: Option<SimTime>,
}

struct SimExec<'a> {
    net: &'a mut Network,
    params: ExecParams,
    ranks: Vec<RankState>,
    mail: Mailboxes,
}

#[derive(Debug, Clone, Copy)]
enum Ev {
    Step(u32),
}

impl World for SimExec<'_> {
    type Event = Ev;

    fn handle(&mut self, sched: &mut Scheduler<Ev>, Ev::Step(r): Ev) {
        let now = sched.now();
        let rank = r as usize;
        let Some(op) = self.ranks[rank].ops.get(self.ranks[rank].pc).copied() else {
            self.ranks[rank].finished.get_or_insert(now);
            return;
        };
        match op {
            SchedOp::Send { to, bytes } => {
                let t = now + self.params.overhead;
                let arrival = self.net.transfer(t, r, to, bytes).arrival;
                let wake = self.mail.deliver(to, r, arrival);
                self.ranks[rank].pc += 1;
                sched.at(t, Ev::Step(r));
                if let Some(w) = wake {
                    sched.at(w, Ev::Step(to));
                }
            }
            SchedOp::Recv { from } => match self.mail.recv(r, from, now) {
                Recv::Ready => {
                    self.ranks[rank].pc += 1;
                    sched.at(now + self.params.overhead, Ev::Step(r));
                }
                Recv::At(a) => sched.at(a, Ev::Step(r)),
                Recv::Blocked => {}
            },
            SchedOp::Compute { .. } | SchedOp::Work { .. } => {
                self.ranks[rank].pc += 1;
                sched.at(now + self.params.local_time(op), Ev::Step(r));
            }
        }
    }
}

/// Result of a simulated collective.
#[derive(Debug, Clone, Copy)]
pub struct SimResult {
    /// Time the slowest rank finished.
    pub completion: SimDuration,
    /// Total payload bytes presented to the network.
    pub payload_bytes: u64,
    /// Messages sent.
    pub messages: u64,
}

/// Execute one collective over `net` and return its completion time.
/// Panics if any rank's schedule deadlocks (a schedule-generation bug).
pub fn simulate_collective(
    net: &mut Network,
    coll: Collective,
    bytes: u64,
    params: ExecParams,
) -> SimResult {
    let p = net.topology().hosts();
    let before_transfers = net.transfers();
    let before_bytes = net.payload_bytes();
    let ranks = (0..p)
        .map(|r| RankState {
            ops: schedule(coll, r, p, bytes),
            pc: 0,
            finished: None,
        })
        .collect();
    let mut world = SimExec {
        net,
        params,
        ranks,
        mail: Mailboxes::new(p as usize),
    };
    // Live population peaks around one in-flight event per rank.
    let mut sched = Scheduler::with_capacity(p as usize);
    for r in 0..p {
        sched.at(SimTime::ZERO, Ev::Step(r));
    }
    run(&mut world, &mut sched, None);
    let mut completion = SimTime::ZERO;
    for (r, st) in world.ranks.iter().enumerate() {
        let done = st
            .finished
            .unwrap_or_else(|| panic!("rank {r} deadlocked at op {} of {:?}", st.pc, coll));
        completion = completion.max(done);
    }
    SimResult {
        completion: completion.since(SimTime::ZERO),
        payload_bytes: world.net.payload_bytes() - before_bytes,
        messages: world.net.transfers() - before_transfers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allreduce::allreduce_with;
    use crate::barrier::barrier_with;
    use crate::bcast::bcast_with;
    use crate::comm::{TraceEvent, TracingComm};
    use crate::op::ReduceOp;
    use crate::testing::run_world;
    use polaris_msg::prelude::MsgConfig;
    use polaris_simnet::link::Generation;
    use polaris_simnet::topology::{Topology, TopologyKind};

    fn net(p: u32) -> Network {
        Network::new(
            Topology::new(TopologyKind::Crossbar { hosts: p }),
            Generation::InfiniBand4x.link_model(),
        )
    }

    /// The executable algorithms and the simulator's schedules must
    /// describe the same communication, rank by rank.
    fn cross_check(coll: Collective, p: u32, bytes: usize) {
        let traces: Vec<Vec<TraceEvent>> =
            run_world(p, MsgConfig::default(), move |mut ep| {
                let mut tc = TracingComm::new(&mut ep);
                match coll {
                    Collective::Barrier(a) => barrier_with(&mut tc, a),
                    Collective::Bcast(a) => {
                        let mut data = vec![7u8; bytes];
                        bcast_with(&mut tc, a, 0, &mut data);
                    }
                    Collective::Allreduce(a) => {
                        let mut data = vec![1u64; bytes / 8];
                        allreduce_with(&mut tc, a, ReduceOp::Sum, &mut data);
                    }
                    Collective::Allgather(a) => {
                        let mine = vec![1u8; bytes];
                        let mut out = vec![0u8; bytes * p as usize];
                        crate::allgather::allgather_with(&mut tc, a, &mine, &mut out);
                    }
                    Collective::AlltoallPairwise => {
                        let send = vec![1u8; bytes * p as usize];
                        let mut recv = vec![0u8; bytes * p as usize];
                        crate::alltoall::alltoall_pairwise(&mut tc, &send, &mut recv, bytes);
                    }
                    Collective::ReduceBinomial => {
                        let mut data = vec![1u64; bytes / 8];
                        crate::reduce::reduce_binomial(&mut tc, 0, ReduceOp::Sum, &mut data);
                    }
                }
                tc.trace
            });
        for (r, trace) in traces.iter().enumerate() {
            let sched = schedule(coll, r as u32, p, bytes as u64);
            let sched_events: Vec<TraceEvent> = sched
                .iter()
                .filter_map(|op| match *op {
                    SchedOp::Send { to, bytes } => Some(TraceEvent::Send { to, bytes }),
                    SchedOp::Recv { from } => Some(TraceEvent::Recv { from, bytes: 0 }),
                    SchedOp::Compute { .. } | SchedOp::Work { .. } => None,
                })
                .collect();
            let trace_shape: Vec<TraceEvent> = trace
                .iter()
                .map(|e| match *e {
                    TraceEvent::Send { to, bytes } => TraceEvent::Send { to, bytes },
                    TraceEvent::Recv { from, .. } => TraceEvent::Recv { from, bytes: 0 },
                })
                .collect();
            assert_eq!(
                trace_shape, sched_events,
                "rank {r} schedule mismatch for {coll:?} p={p}"
            );
        }
    }

    #[test]
    fn schedules_match_executable_algorithms() {
        for p in [2, 3, 4, 5, 8] {
            cross_check(Collective::Barrier(BarrierAlgo::Dissemination), p, 0);
            cross_check(Collective::Barrier(BarrierAlgo::Tree), p, 0);
            cross_check(Collective::Bcast(BcastAlgo::Binomial), p, 1024);
            cross_check(Collective::Bcast(BcastAlgo::ScatterAllgather), p, 1024);
            cross_check(
                Collective::Allreduce(AllreduceAlgo::RecursiveDoubling),
                p,
                1024,
            );
            cross_check(Collective::Allreduce(AllreduceAlgo::Ring), p, 1024);
            cross_check(Collective::Allreduce(AllreduceAlgo::ReduceBcast), p, 1024);
            cross_check(Collective::Allgather(AllgatherAlgo::Ring), p, 512);
            cross_check(Collective::Allgather(AllgatherAlgo::Bruck), p, 512);
            cross_check(Collective::AlltoallPairwise, p, 512);
            cross_check(Collective::ReduceBinomial, p, 1024);
        }
    }

    #[test]
    fn simulated_barrier_scales_logarithmically() {
        let t = |p: u32| {
            simulate_collective(
                &mut net(p),
                Collective::Barrier(BarrierAlgo::Dissemination),
                0,
                ExecParams::default(),
            )
            .completion
            .as_us()
        };
        let t16 = t(16);
        let t256 = t(256);
        // 16 -> 256 is 4 -> 8 rounds: about 2x, definitely not 16x.
        let ratio = t256 / t16;
        assert!((1.5..4.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn simulated_allreduce_algorithms_tradeoff() {
        let p = 64;
        let params = ExecParams::default();
        // Small vectors: recursive doubling (log p rounds) beats ring
        // (2(p-1) rounds).
        let small_rd = simulate_collective(
            &mut net(p),
            Collective::Allreduce(AllreduceAlgo::RecursiveDoubling),
            64,
            params,
        );
        let small_ring =
            simulate_collective(&mut net(p), Collective::Allreduce(AllreduceAlgo::Ring), 64, params);
        assert!(
            small_rd.completion < small_ring.completion,
            "rd {} vs ring {}",
            small_rd.completion,
            small_ring.completion
        );
        // Large vectors: ring's bandwidth optimality wins.
        let big = 16 << 20;
        let big_rd = simulate_collective(
            &mut net(p),
            Collective::Allreduce(AllreduceAlgo::RecursiveDoubling),
            big,
            params,
        );
        let big_ring =
            simulate_collective(&mut net(p), Collective::Allreduce(AllreduceAlgo::Ring), big, params);
        assert!(
            big_ring.completion < big_rd.completion,
            "ring {} vs rd {}",
            big_ring.completion,
            big_rd.completion
        );
    }

    #[test]
    fn simulation_is_deterministic() {
        let run1 = simulate_collective(
            &mut net(32),
            Collective::Allreduce(AllreduceAlgo::Ring),
            1 << 20,
            ExecParams::default(),
        );
        let run2 = simulate_collective(
            &mut net(32),
            Collective::Allreduce(AllreduceAlgo::Ring),
            1 << 20,
            ExecParams::default(),
        );
        assert_eq!(run1.completion, run2.completion);
        assert_eq!(run1.messages, run2.messages);
    }

    #[test]
    fn message_counts_match_theory() {
        let p = 8u32;
        let r = simulate_collective(
            &mut net(p),
            Collective::Barrier(BarrierAlgo::Dissemination),
            0,
            ExecParams::default(),
        );
        // Dissemination: p * ceil(log2 p) messages.
        assert_eq!(r.messages, (p * 3) as u64);
        let r = simulate_collective(
            &mut net(p),
            Collective::AlltoallPairwise,
            100,
            ExecParams::default(),
        );
        assert_eq!(r.messages, (p * (p - 1)) as u64);
        assert_eq!(r.payload_bytes, (p * (p - 1)) as u64 * 100);
    }

    #[test]
    fn simulation_scales_to_thousands_of_ranks() {
        // How fast this runs is perfbench's claim; here only the answer
        // is checked: 4096 ranks, log2(4096) = 12 exchange rounds.
        let p = 4096;
        let r = simulate_collective(
            &mut net(p),
            Collective::Allreduce(AllreduceAlgo::RecursiveDoubling),
            1024,
            ExecParams::default(),
        );
        assert_eq!(r.messages, 4096 * 12);
        assert!(r.completion > SimDuration::ZERO);
    }
}
