//! Topology-aware hierarchical allreduce for group-structured fabrics.
//!
//! On a Dragonfly, a flat recursive-doubling allreduce is hostile to
//! the wiring: every round with `mask >= group_size` makes all `S`
//! hosts of a group exchange with the *same* partner group, and the
//! Dragonfly provides exactly one global cable per group pair — `S`
//! messages serialize over one wire, every round, `log2(groups)` times.
//!
//! The hierarchical schedule restructures the collective around the
//! topology: (1) a binomial reduce inside each group delivers the group
//! sum to a leader, (2) the `G` leaders allreduce among themselves —
//! over the packet fabric, or over *reserved optical circuits* obtained
//! from the [`CircuitScheduler`] — and (3) a binomial broadcast fans
//! the result back out inside each group. Only one message per group
//! crosses the global wires per round.
//!
//! All three stages are deterministic and shard-count invariant: the
//! local stages run through [`simulate_collective_sharded`] (bit-equal
//! at any `jobs`), and the circuit stage is closed arithmetic over the
//! scheduler — so `jobs = 1, 2, 4` produce identical picosecond
//! results, which `tests/parallel_determinism.rs` holds as an oracle.

use crate::allreduce::AllreduceAlgo;
use crate::bcast::BcastAlgo;
use crate::parsim::simulate_collective_sharded;
use crate::simx::{Collective, ExecParams};
use polaris_simnet::circuit::{CircuitScheduler, CircuitSchedulerConfig};
use polaris_simnet::link::LinkModel;
use polaris_simnet::time::{SimDuration, SimTime};

/// How the inter-group (leader) stage moves bytes.
#[derive(Debug, Clone, Copy)]
pub enum InterGroup {
    /// Recursive doubling over the packet fabric (global links shared
    /// with everything else, but no reconfiguration cost).
    Packet,
    /// Reserved optical circuits: each round's pairwise exchanges
    /// reserve point-to-point circuits from the scheduler, paying
    /// reconfiguration once per reservation and running at circuit
    /// bandwidth with zero packet contention.
    Circuits(CircuitSchedulerConfig),
}

/// Timing breakdown of one hierarchical allreduce.
#[derive(Debug, Clone, Copy)]
pub struct HierResult {
    /// End-to-end completion (sum of the three stage barriers).
    pub completion: SimDuration,
    /// Stage 1: binomial reduce to the group leader.
    pub local_reduce: SimDuration,
    /// Stage 2: allreduce among the `groups` leaders.
    pub inter_group: SimDuration,
    /// Stage 3: binomial broadcast from the leader.
    pub local_bcast: SimDuration,
    /// Messages crossing group boundaries (leader traffic only).
    pub global_messages: u64,
}

/// Simulate a hierarchical allreduce of `bytes` over `groups` groups of
/// `group_size` hosts each. `link` models the electrical fabric used by
/// the local stages (and the leader stage when `inter` is
/// [`InterGroup::Packet`]); `jobs` shards the local-stage simulation.
///
/// Every group runs the identical local schedule on disjoint hosts, so
/// the local stages are simulated once for a representative group —
/// that is what makes a 1M-host figure tractable — while the leader
/// stage covers all `groups` leaders.
pub fn simulate_hier_allreduce(
    groups: u32,
    group_size: u32,
    bytes: u64,
    params: ExecParams,
    link: LinkModel,
    inter: InterGroup,
    jobs: u32,
) -> HierResult {
    assert!(groups >= 1 && group_size >= 1);
    let local_reduce = if group_size > 1 {
        simulate_collective_sharded(
            group_size,
            Collective::ReduceBinomial,
            bytes,
            params,
            link,
            jobs,
        )
        .0
        .completion
    } else {
        SimDuration::ZERO
    };
    let local_bcast = if group_size > 1 {
        simulate_collective_sharded(
            group_size,
            Collective::Bcast(BcastAlgo::Binomial),
            bytes,
            params,
            link,
            jobs,
        )
        .0
        .completion
    } else {
        SimDuration::ZERO
    };
    let (inter_group, global_messages) = match inter {
        InterGroup::Packet => {
            if groups > 1 {
                let (r, _) = simulate_collective_sharded(
                    groups,
                    Collective::Allreduce(AllreduceAlgo::RecursiveDoubling),
                    bytes,
                    params,
                    link,
                    jobs,
                );
                (r.completion, r.messages)
            } else {
                (SimDuration::ZERO, 0)
            }
        }
        InterGroup::Circuits(cfg) => circuit_allreduce_time(groups, bytes, params, cfg),
    };
    HierResult {
        completion: local_reduce + inter_group + local_bcast,
        local_reduce,
        inter_group,
        local_bcast,
        global_messages,
    }
}

/// Recursive-doubling allreduce among `groups` leaders where every
/// pairwise exchange runs over a reserved circuit. Drives a real
/// [`CircuitScheduler`] so capacity, reconfiguration latency, and the
/// reserve/transfer/release discipline are all honored (and its event
/// ledger exercised); requires a power-of-two group count, which every
/// F13 Dragonfly configuration satisfies.
///
/// Within a round the `groups` directed transfers are packed into waves
/// of at most `max_circuits` concurrent reservations; a wave's circuits
/// reserve together, transfer in parallel, and release before the next
/// wave reserves. Deterministic: iteration order is leader-ascending.
pub fn circuit_allreduce_time(
    groups: u32,
    bytes: u64,
    params: ExecParams,
    cfg: CircuitSchedulerConfig,
) -> (SimDuration, u64) {
    if groups <= 1 {
        return (SimDuration::ZERO, 0);
    }
    assert!(
        groups.is_power_of_two(),
        "circuit inter-group stage requires a power-of-two group count, got {groups}"
    );
    assert!(cfg.max_circuits >= 1, "need at least one circuit");
    let mut s = CircuitScheduler::new(cfg);
    let compute = SimDuration::from_secs_f64(bytes as f64 / params.compute_bps as f64);
    let mut t = SimTime::ZERO;
    let mut messages = 0u64;
    let mut mask = 1u32;
    while mask < groups {
        // One round: every leader g exchanges with g ^ mask. The 2·G/2
        // directed transfers pack into capacity-bounded waves.
        let mut g = 0u32;
        let mut round_end = t;
        while g < groups {
            let wave_start = t;
            let mut wave = Vec::with_capacity(cfg.max_circuits);
            while g < groups && wave.len() < cfg.max_circuits {
                let res = s
                    .try_reserve(wave_start, g, g ^ mask)
                    .expect("wave sized to capacity");
                wave.push(res);
                g += 1;
            }
            let mut wave_end = wave_start;
            for res in &wave {
                let arrival = s.transfer(wave_start, res, bytes).expect("circuit active");
                wave_end = wave_end.max(arrival);
                messages += 1;
            }
            for res in &wave {
                s.release(wave_end, res).expect("circuit active");
            }
            round_end = round_end.max(wave_end);
            t = wave_end;
        }
        // Round barrier: send/recv overhead at the leader plus the
        // reduction arithmetic, then the next round may start.
        t = round_end + params.overhead + params.overhead + compute;
        mask <<= 1;
    }
    debug_assert_eq!(s.active_count(), 0, "all circuits released");
    (t.since(SimTime::ZERO), messages)
}

/// Closed-form completion of a *flat* recursive-doubling allreduce over
/// `groups * group_size` hosts of a Dragonfly, for comparison against
/// the hierarchical schedule. Rounds with `mask < group_size` stay
/// inside a group (≤3-link minimal paths, uncontended). Rounds with
/// `mask >= group_size` pair every host with a peer in one partner
/// group, and the Dragonfly has a single global cable per group pair:
/// the `group_size` concurrent messages serialize over that cable, so
/// each such round pays `(S-1)` extra serialization terms on top of the
/// 5-link minimal path.
pub fn flat_allreduce_model(
    groups: u32,
    group_size: u32,
    bytes: u64,
    params: ExecParams,
    link: LinkModel,
) -> SimDuration {
    let p = groups as u64 * group_size as u64;
    if p <= 1 {
        return SimDuration::ZERO;
    }
    assert!(
        (groups == 1 || groups.is_power_of_two()) && group_size.is_power_of_two(),
        "flat model assumes power-of-two dimensions"
    );
    let compute = SimDuration::from_secs_f64(bytes as f64 / params.compute_bps as f64);
    let ser_ps = link.serialize_payload(bytes).0;
    let mut total = SimDuration::ZERO;
    let mut mask = 1u64;
    while mask < p {
        let round = if mask < group_size as u64 {
            // Intra-group: host -> router -> router -> host worst case.
            link.message_time(bytes, 3)
        } else {
            // Cross-group: 5-link minimal path plus serialization of the
            // group's S concurrent messages over the one global cable.
            link.message_time(bytes, 5) + SimDuration(ser_ps * (group_size as u64 - 1))
        };
        total = total + params.overhead + params.overhead + round + compute;
        mask <<= 1;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use polaris_simnet::link::Generation;

    fn params() -> ExecParams {
        ExecParams::default()
    }

    #[test]
    fn hier_is_deterministic_and_jobs_invariant() {
        let link = Generation::InfiniBand4x.link_model();
        let base = simulate_hier_allreduce(
            16,
            32,
            1 << 20,
            params(),
            link,
            InterGroup::Circuits(CircuitSchedulerConfig::default()),
            1,
        );
        for jobs in [2u32, 4] {
            let r = simulate_hier_allreduce(
                16,
                32,
                1 << 20,
                params(),
                link,
                InterGroup::Circuits(CircuitSchedulerConfig::default()),
                jobs,
            );
            assert_eq!(r.completion, base.completion, "jobs={jobs}");
            assert_eq!(r.global_messages, base.global_messages);
        }
    }

    #[test]
    fn circuit_stage_respects_capacity_waves() {
        // 8 groups, capacity 2: each round's 8 transfers need 4 waves;
        // capacity 8 needs 1. More waves must cost strictly more.
        let cfg_small = CircuitSchedulerConfig {
            max_circuits: 2,
            ..CircuitSchedulerConfig::default()
        };
        let cfg_big = CircuitSchedulerConfig {
            max_circuits: 8,
            ..CircuitSchedulerConfig::default()
        };
        let (t_small, m_small) = circuit_allreduce_time(8, 1 << 20, params(), cfg_small);
        let (t_big, m_big) = circuit_allreduce_time(8, 1 << 20, params(), cfg_big);
        assert_eq!(m_small, m_big);
        assert_eq!(m_big, 8 * 3); // G transfers per round, log2(8) rounds
        assert!(t_small > t_big, "{t_small} vs {t_big}");
    }

    #[test]
    fn circuit_stage_charges_reconfiguration_per_wave() {
        // Doubling the reconfiguration latency shows up in completion.
        let slow = CircuitSchedulerConfig {
            reconfig: SimDuration::from_us(60),
            ..CircuitSchedulerConfig::default()
        };
        let (t_fast, _) = circuit_allreduce_time(4, 4096, params(), CircuitSchedulerConfig::default());
        let (t_slow, _) = circuit_allreduce_time(4, 4096, params(), slow);
        assert!(t_slow > t_fast);
        // 2 rounds, 1 wave each: exactly 2 * 30us of extra reconfig.
        let delta = t_slow - t_fast;
        assert_eq!(delta, SimDuration::from_us(60));
    }

    #[test]
    fn hier_beats_flat_at_many_groups() {
        // The acceptance-criteria shape: at >= 64 groups the flat
        // schedule's per-round global-cable serialization dominates and
        // the hierarchical schedule (even paying reconfiguration) wins.
        let link = Generation::Optical.link_model();
        let groups = 64;
        let group_size = 64;
        let bytes = 4 << 20;
        let hier = simulate_hier_allreduce(
            groups,
            group_size,
            bytes,
            params(),
            link,
            InterGroup::Circuits(CircuitSchedulerConfig::default()),
            1,
        );
        let flat = flat_allreduce_model(groups, group_size, bytes, params(), link);
        assert!(
            hier.completion < flat,
            "hier {} vs flat {}",
            hier.completion,
            flat
        );
    }

    #[test]
    fn single_group_degenerates_to_local_stages() {
        let link = Generation::InfiniBand4x.link_model();
        let r = simulate_hier_allreduce(1, 16, 4096, params(), link, InterGroup::Packet, 1);
        assert_eq!(r.inter_group, SimDuration::ZERO);
        assert_eq!(r.global_messages, 0);
        assert_eq!(r.completion, r.local_reduce + r.local_bcast);
    }
}
