//! `collective_sweep`: an F3-shaped sweep of independent serial
//! simulations over the sweep pool.
//!
//! Each cell is one `simulate_collective` on the routed k=16 fat tree
//! (1024 hosts) with InfiniBand 4x links: allreduce by recursive
//! doubling, ring and reduce+bcast at 64 B and 4 MiB, plus a pairwise
//! alltoall. Cells fan out over `jobs` sweep workers, as every figure
//! does. This stresses the event queue, the serial engine, the routed
//! `Network` and the sweep pool; it never touches `ShardSim`, msg or
//! serve. A request is one pass: the whole sweep a figure asks for.

use crate::{stats, timed, timed_passes, Ctx, Digest, Report, Scale, SETUP_REPS};
use polaris_bench::sweep::{sweep_with_jobs, warm_pool};
use polaris_collectives::prelude::*;
use polaris_collectives::simx::{schedule, SchedOp};
use polaris_simnet::link::Generation;
use polaris_simnet::network::Network;
use polaris_simnet::time::SimTime;
use polaris_simnet::topology::{Topology, TopologyKind};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Longest first, as a sweep scheduler would order them.
const CELLS: [(Collective, u64); 7] = [
    (Collective::AlltoallPairwise, 4 << 10),
    (Collective::Allreduce(AllreduceAlgo::Ring), 64),
    (Collective::Allreduce(AllreduceAlgo::Ring), 4 << 20),
    (Collective::Allreduce(AllreduceAlgo::RecursiveDoubling), 64),
    (
        Collective::Allreduce(AllreduceAlgo::RecursiveDoubling),
        4 << 20,
    ),
    (Collective::Allreduce(AllreduceAlgo::ReduceBcast), 4 << 20),
    (Collective::Allreduce(AllreduceAlgo::ReduceBcast), 64),
];

/// Messages and payload bytes the schedules of a cell send.
fn expected_traffic(coll: Collective, p: u32, bytes: u64) -> (u64, u64) {
    (0..p)
        .flat_map(|r| schedule(coll, r, p, bytes))
        .fold((0, 0), |(m, b), op| match op {
            SchedOp::Send { bytes, .. } => (m + 1, b + bytes),
            _ => (m, b),
        })
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct CellOut {
    completion_ps: u64,
    messages: u64,
    payload_bytes: u64,
    link_bytes: u64,
    peak_util: f64,
}

pub fn run(ctx: &Ctx) -> Report {
    let tr = &*ctx.tracer;
    let k = if ctx.scale == Scale::Tiny { 4 } else { 16 };
    let model = Generation::InfiniBand4x.link_model();
    let mut r = Report::default();

    // Set-up: topology build, the cells' schedules (which give the
    // expected traffic), and the sweep pool warm-up.
    let mut topo = None;
    let mut expected = Vec::new();
    let mut build_s = Vec::new();
    for _ in 0..SETUP_REPS {
        let (_, s) = timed(|| {
            let (t, b) = timed(|| {
                tr.span("topology", None, |_| {
                    Topology::new(TopologyKind::FatTree { k })
                })
            });
            build_s.push(b);
            let p = t.hosts();
            expected = tr.span("simx", None, |_| {
                CELLS
                    .iter()
                    .map(|&(c, bytes)| expected_traffic(c, p, bytes))
                    .collect()
            });
            tr.span("sweep", None, |_| warm_pool(ctx.jobs));
            topo = Some(t);
        });
        r.setup_s.push(s);
    }
    let topo = topo.expect("set-up ran");
    if ctx.tamper {
        expected[0].0 += 1;
    }
    r.layer("topology.build_s", stats::median(&build_s));

    // The cells are F3's and have no random input; their order is fixed
    // too, because it decides which cells share the machine, and so
    // each cell's latency.
    let order: Vec<usize> = (0..CELLS.len()).collect();

    let mut first: Vec<Option<CellOut>> = vec![None; CELLS.len()];
    let (mut simx_s, mut busy_s, mut messages) = (Vec::new(), 0.0, 0u64);
    let (mut link_bytes, mut peak_util, mut simx_total) = (0u64, 0.0f64, 0.0);
    let walls = timed_passes(ctx.seconds, 3, || {
        let outs = tr.span("pass", None, |pass| {
            tr.span("sweep", pass, |sw| {
                sweep_with_jobs(order.clone(), ctx.jobs, |i| {
                    let (coll, bytes) = CELLS[i];
                    let (out, host_s) = timed(|| {
                        let mut net = tr.span("network", sw, |_| Network::new(topo.clone(), model));
                        let (res, sim_s) = timed(|| {
                            tr.span("simx", sw, |_| {
                                catch_unwind(AssertUnwindSafe(|| {
                                    simulate_collective(
                                        &mut net,
                                        coll,
                                        bytes,
                                        ExecParams::default(),
                                    )
                                }))
                            })
                        });
                        res.ok().map(|res| {
                            let horizon = SimTime::ZERO + res.completion;
                            let out = CellOut {
                                completion_ps: res.completion.0,
                                messages: res.messages,
                                payload_bytes: res.payload_bytes,
                                link_bytes: net.total_link_bytes(),
                                peak_util: net.peak_link_utilization(horizon),
                            };
                            (out, sim_s)
                        })
                    });
                    (i, out, host_s)
                })
            })
        });
        let mut pass_simx = 0.0;
        for (i, out, host_s) in outs {
            busy_s += host_s;
            let (coll, bytes) = CELLS[i];
            let Some((out, sim_s)) = out else {
                r.check(false, || {
                    format!("{coll:?} {bytes} B: a rank did not finish")
                });
                continue;
            };
            pass_simx += sim_s;
            messages += out.messages;
            link_bytes += out.link_bytes;
            peak_util = peak_util.max(out.peak_util);
            let (m, b) = expected[i];
            let same = first[i].get_or_insert(out) == &out;
            r.check(
                out.messages == m && out.payload_bytes == b && out.completion_ps > 0 && same,
                || {
                    format!(
                        "{coll:?} {bytes} B: {} messages / {} bytes, schedules send {m} / {b}; \
                     same as first pass: {same}",
                        out.messages, out.payload_bytes
                    )
                },
            );
        }
        simx_total += pass_simx;
        simx_s.push(pass_simx);
    });

    let passes = walls.len() as f64;
    r.passes = walls.len() as u64;
    r.wall_s = stats::median(&walls);
    r.req_us = walls.iter().map(|w| w * 1e6).collect();
    r.req_per_s = 1.0 / r.wall_s;
    r.layer(
        "sweep.busy_share",
        busy_s / (ctx.jobs as f64 * walls.iter().sum::<f64>()),
    );
    r.layer("sweep.cells", r.passes as f64 * CELLS.len() as f64);
    r.layer("simx.calls_s", stats::median(&simx_s));
    r.layer("simx.messages", messages as f64 / passes);
    r.layer("simx.ns_per_msg", simx_total * 1e9 / messages.max(1) as f64);
    r.layer("network.link_bytes", link_bytes as f64 / passes);
    r.layer("network.peak_link_util", peak_util);

    let mut d = Digest::default();
    for out in first.iter().flatten() {
        d.add(out.completion_ps);
        d.add(out.messages);
        d.add(out.payload_bytes);
        d.add(out.link_bytes);
    }
    r.digest = d.0;
    r
}
