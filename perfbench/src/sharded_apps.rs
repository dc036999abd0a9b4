//! `sharded_apps`: a few large single simulations through `Fabric::run`.
//!
//! * `ring` — ring allreduce of 1 MiB over GigE, built from
//!   `simx::schedule`;
//! * `stencil` — the 3-D halo stencil on 4096 ranks of a fat tree (few
//!   cross-shard messages);
//! * `shuffle` — a MapReduce shuffle over a Dragonfly (many);
//! * `ps` — parameter server on 512 ranks over a Dragonfly (many).
//!
//! This is time to one large answer, through the `ShardSim` engine and
//! the workload library; it bypasses routing and the sweep pool. The
//! timed passes run each program on one shard: on `jobs` shards the
//! window barriers' wake-ups dominate, and on a small VM their latency
//! follows the host's load, not the code (see `README.md`). Every run
//! also runs each program on `jobs` shards, outside the timing, to check
//! that the answer is identical and to measure the window protocol,
//! cross-shard channels, lookahead and speculation for the per-layer
//! metrics. A request is one pass: all four answers.

use crate::{stats, timed, timed_passes, Ctx, Digest, Report, Scale, PROGRAMS, SETUP_REPS};
use polaris_arch::prelude::{NodeKind, NodeModel, Projection};
use polaris_collectives::prelude::*;
use polaris_collectives::simx::{schedule, SchedOp};
use polaris_simnet::link::Generation;
use polaris_workloads::{paramserver, shuffle, stencil, Fabric};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Rank counts of ring, stencil, shuffle and parameter server.
fn ranks(scale: Scale) -> [u32; 4] {
    match scale {
        Scale::Full => [256, 4096, 128, 512],
        Scale::Tiny => [16, 64, 16, 16],
    }
}

fn fabrics(scale: Scale) -> Vec<Fabric> {
    let [ring, st, sh, ps] = ranks(scale);
    vec![
        Fabric::crossbar(Generation::GigabitEthernet, ring),
        Fabric::fat_tree(Generation::InfiniBand4x, st),
        Fabric::dragonfly(Generation::Optical, sh),
        Fabric::dragonfly(Generation::Optical, ps),
    ]
}

fn compile(scale: Scale) -> Vec<Vec<Vec<SchedOp>>> {
    let [ring, st, sh, ps] = ranks(scale);
    let node = NodeModel::build(NodeKind::Pc, &Projection::default().at(2002));
    let allreduce = Collective::Allreduce(AllreduceAlgo::Ring);
    vec![
        (0..ring)
            .map(|r| schedule(allreduce, r, ring, 1 << 20))
            .collect(),
        stencil::compile(&stencil::StencilConfig::default(), &node, st).programs,
        shuffle::compile(
            &shuffle::ShuffleConfig {
                rounds: 1,
                ..Default::default()
            },
            &node,
            sh,
        )
        .programs,
        paramserver::compile(&paramserver::ParamServerConfig::default(), &node, ps).programs,
    ]
}

/// The simulated answer of one program run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Answer {
    completion_ps: u64,
    messages: u64,
    payload_bytes: u64,
}

/// Engine counters of one run.
struct EngineStats {
    events: u64,
    per_shard: Vec<u64>,
    windows: u64,
    remote: u64,
}

fn run_once(
    fabric: &Fabric,
    programs: Vec<Vec<SchedOp>>,
    shards: u32,
) -> Option<(Answer, EngineStats)> {
    catch_unwind(AssertUnwindSafe(|| {
        fabric.run(programs, ExecParams::default(), shards)
    }))
    .ok()
    .map(|(res, st)| {
        let answer = Answer {
            completion_ps: res.completion.0,
            messages: res.messages,
            payload_bytes: res.payload_bytes,
        };
        let stats = EngineStats {
            events: st.events_dispatched,
            per_shard: st.per_shard_events,
            windows: st.windows,
            remote: st.remote_events,
        };
        (answer, stats)
    })
}

pub fn run(ctx: &Ctx) -> Report {
    let tr = &*ctx.tracer;
    let shards = ctx.jobs as u32;
    let mut r = Report::default();

    // Set-up: fabric (topology) build and program compile.
    let (mut build_s, mut compile_s) = (Vec::new(), Vec::new());
    let (mut fabs, mut progs) = (Vec::new(), Vec::new());
    for _ in 0..SETUP_REPS {
        let (_, s) = timed(|| {
            let (f, b) = timed(|| tr.span("topology", None, |_| fabrics(ctx.scale)));
            let (p, c) = timed(|| tr.span("workloads", None, |_| compile(ctx.scale)));
            build_s.push(b);
            compile_s.push(c);
            (fabs, progs) = (f, p);
        });
        r.setup_s.push(s);
    }
    r.layer("topology.build_s", stats::median(&build_s));
    r.layer("workloads.compile_s", stats::median(&compile_s));
    r.layer(
        "workloads.ops",
        progs.iter().flatten().map(|ops| ops.len() as f64).sum(),
    );

    // Messages and bytes each program's send ops put on the fabric.
    let expected: Vec<(u64, u64)> = progs
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let (m, b) = p.iter().flatten().fold((0, 0), |(m, b), op| match op {
                SchedOp::Send { bytes, .. } => (m + 1, b + bytes),
                _ => (m, b),
            });
            (m + u64::from(ctx.tamper && i == 0), b)
        })
        .collect();

    // A pass runs every program once on one shard. Every run must
    // conserve its program's traffic and repeat the first pass's answer.
    let mut order: Vec<usize> = (0..PROGRAMS.len()).collect();
    crate::shuffle(&mut order, ctx.seed);
    let mut reference: Vec<Option<Answer>> = vec![None; PROGRAMS.len()];
    let mut one_s = vec![Vec::new(); PROGRAMS.len()];
    let mut walls = Vec::new();
    timed_passes(ctx.seconds, 3, || {
        let mut wall = 0.0;
        tr.span("pass", None, |pass| {
            for &i in &order {
                let programs = progs[i].clone();
                let (out, s) = timed(|| tr.span("shard", pass, |_| run_once(&fabs[i], programs, 1)));
                wall += s;
                one_s[i].push(s);
                let answer = out.map(|(a, _)| a);
                let (m, b) = expected[i];
                let ok = answer.is_some_and(|a| {
                    a.messages == m
                        && a.payload_bytes == b
                        && a.completion_ps > 0
                        && *reference[i].get_or_insert(a) == a
                });
                r.check(ok, || {
                    format!(
                        "{} at 1 shard: {answer:?}; first pass {:?}; its send ops are {m} messages / {b} bytes",
                        PROGRAMS[i], reference[i]
                    )
                });
            }
        });
        walls.push(wall);
    });
    r.passes = walls.len() as u64;
    r.req_us = walls.iter().map(|w| w * 1e6).collect();
    r.wall_s = stats::median(&walls);
    r.req_per_s = 1.0 / r.wall_s;

    // Outside the timed passes, every program runs on `jobs` shards (three
    // times when tracing, for the per-layer medians) and must give the
    // 1-shard answer exactly.
    let reps = if tr.enabled() { 3 } else { 1 };
    let mut par_s = vec![Vec::new(); PROGRAMS.len()];
    let mut last: Vec<Option<EngineStats>> = (0..PROGRAMS.len()).map(|_| None).collect();
    for (i, name) in PROGRAMS.iter().enumerate() {
        for _ in 0..reps {
            let programs = progs[i].clone();
            let (out, s) =
                timed(|| tr.span("shard", None, |_| run_once(&fabs[i], programs, shards)));
            par_s[i].push(s);
            let answer = out.as_ref().map(|(a, _)| *a);
            let balanced = out
                .as_ref()
                .is_some_and(|(_, st)| st.per_shard.iter().sum::<u64>() == st.events);
            r.check(
                answer.is_some() && answer == reference[i] && balanced,
                || {
                    format!(
                        "{name} at {shards} shards: {answer:?}, at 1 shard {:?}; \
                     per-shard events sum to the total: {balanced}",
                        reference[i]
                    )
                },
            );
            last[i] = out.map(|(_, st)| st);
        }
    }

    let mut d = Digest::default();
    for (i, name) in PROGRAMS.iter().enumerate() {
        if let Some(a) = reference[i] {
            d.add(a.completion_ps);
            d.add(a.messages);
            d.add(a.payload_bytes);
        }
        let Some(st) = &last[i] else { continue };
        let (one, par) = (stats::median(&one_s[i]), stats::median(&par_s[i]));
        r.notes.push(format!(
            "{name}: {one:.4} s at 1 shard, {par:.4} s at {shards} shards (medians)"
        ));
        let events = st.events.max(1) as f64;
        let mean = events / st.per_shard.len().max(1) as f64;
        let max = st.per_shard.iter().copied().max().unwrap_or(0) as f64;
        r.layer(format!("shard.{name}.run_s"), par);
        r.layer(format!("shard.{name}.speedup_vs_1"), one / par);
        r.layer(format!("shard.{name}.events"), st.events as f64);
        r.layer(format!("shard.{name}.ns_per_event"), par * 1e9 / events);
        r.layer(format!("shard.{name}.windows"), st.windows as f64);
        r.layer(
            format!("shard.{name}.events_per_window"),
            st.events as f64 / st.windows.max(1) as f64,
        );
        r.layer(
            format!("shard.{name}.remote_share"),
            st.remote as f64 / events,
        );
        r.layer(format!("shard.{name}.imbalance"), max / mean);
    }
    r.digest = d.0;
    r
}
