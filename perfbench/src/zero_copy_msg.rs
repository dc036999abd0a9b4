//! `zero_copy_msg`: the executable stack, 2 ranks on 2 threads over the
//! virtual NIC, driven through the `MsgBuf` API.
//!
//! Each pass (a "round") is a batch of 8-byte ping-pongs (the eager
//! path; a request is one round trip) followed by a stream of 1 MiB
//! messages (the rendezvous path; `wall_s` is the stream's time). This
//! is the paper's zero-copy claim and the only workload that touches
//! nic and msg; it bypasses simnet entirely. The cluster is launched
//! `LAUNCHES` times, so set-up is measured several times.

use crate::stats::Reservoir;
use crate::stats::{self, Tally};
use crate::trace::Tracer;
use crate::{Ctx, Digest, Report, Scale};
use polaris::prelude::*;
use polaris_msg::prelude::{EndpointStats, MsgResult, ReqId};
use polaris_simnet::rng::SplitMix64;
use std::sync::Arc;
use std::time::{Duration, Instant};

const CTRL: u64 = 1;
const PING: u64 = 2;
const PONG: u64 = 3;
const STREAM: u64 = 4;
const ACK: u64 = 5;
const SUM: u64 = 6;

const STREAM_LEN: usize = 1 << 20;
/// Cluster launches per run; `setup_s` is their median. A launch takes
/// well under a millisecond, mostly thread start-up, whose latency
/// follows the host's scheduling, so it takes many to steady the median.
const LAUNCHES: usize = 25;
/// Rounds of a traced run. Each round trip makes four spans, so an
/// untimed traced run would hold millions of them in memory.
const TRACED_ROUNDS: u64 = 32;
/// Round trips the measuring launch keeps for the percentiles.
const RTT_SAMPLES: usize = 100_000;
/// Far above any healthy wait; a wait this long counts as a failure.
const TIMEOUT: Duration = Duration::from_secs(10);
/// What rank 1 XORs into every pong, so an echo proves it read the ping.
const ECHO: u64 = 0x5a5a_0f0f_a5a5_f0f0;

#[derive(Clone, Copy)]
struct Params {
    seed: u64,
    tamper: bool,
    pings: usize,
    stream_msgs: usize,
    /// Only the last launch measures; the others only set up.
    measure: bool,
    max_rounds: u64,
    deadline: Instant,
    started: Instant,
}

struct RankOut {
    setup_s: f64,
    /// Round trips, µs; a fixed-size sample keeps the resident set
    /// independent of how many round trips fit in the run.
    rtt: Reservoir,
    /// Seconds of each round's ping-pong phase.
    ping_s: Vec<f64>,
    stream_s: Vec<f64>,
    tally: Tally,
    failures: Vec<String>,
    stats: Option<EndpointStats>,
    digest: Digest,
}

impl RankOut {
    fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.tally.record(ok);
        if !ok && self.failures.len() < 20 {
            self.failures.push(why());
        }
    }
}

/// Fill `buf` with a pattern unique to (`key`, word index).
fn fill(buf: &mut [u8], key: u64) {
    for (j, w) in buf.chunks_exact_mut(8).enumerate() {
        let v = (key ^ (j as u64)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        w.copy_from_slice(&v.to_le_bytes());
    }
}

fn checksum(buf: &[u8]) -> u64 {
    let mut d = Digest::default();
    for w in buf.chunks_exact(8) {
        d.0 = (d.0 ^ u64::from_le_bytes(w.try_into().expect("8-byte chunk")))
            .wrapping_mul(0x0100_0000_01b3);
    }
    d.0
}

fn word(buf: &MsgBuf) -> u64 {
    u64::from_le_bytes(buf.as_slice()[..8].try_into().expect("8-byte message"))
}

fn send_word(
    ep: &mut Endpoint,
    to: u32,
    tag: u64,
    buf: &mut Option<MsgBuf>,
    v: u64,
) -> MsgResult<()> {
    let mut b = buf.take().expect("word buffer");
    b.as_mut_slice()[..8].copy_from_slice(&v.to_le_bytes());
    let req = ep.isend(to, tag, b)?;
    *buf = Some(ep.wait_send_timeout(req, TIMEOUT)?);
    Ok(())
}

fn post_word(ep: &mut Endpoint, from: u32, tag: u64, buf: &mut Option<MsgBuf>) -> MsgResult<ReqId> {
    ep.irecv(
        MatchSpec::exact(from, tag),
        buf.take().expect("word buffer"),
    )
}

fn wait_word(ep: &mut Endpoint, req: ReqId, buf: &mut Option<MsgBuf>) -> MsgResult<u64> {
    let (b, _) = ep.wait_recv_timeout(req, TIMEOUT)?;
    let v = word(&b);
    *buf = Some(b);
    Ok(v)
}

fn recv_word(ep: &mut Endpoint, from: u32, tag: u64, buf: &mut Option<MsgBuf>) -> MsgResult<u64> {
    let req = post_word(ep, from, tag, buf)?;
    wait_word(ep, req, buf)
}

fn rank0(ep: &mut Endpoint, p: Params, tr: &Tracer, o: &mut RankOut) -> MsgResult<()> {
    let mut wbuf = Some(ep.alloc(8)?);
    let mut ack = Some(ep.alloc(8)?);
    let mut sbuf = Some(ep.alloc(8)?);
    let mut rbuf = Some(ep.alloc(8)?);
    o.setup_s = p.started.elapsed().as_secs_f64();
    recv_word(ep, 1, CTRL, &mut wbuf)?;
    let stream_msgs = if p.measure { p.stream_msgs } else { 0 };
    let mut bufs = (0..stream_msgs)
        .map(|_| ep.alloc(STREAM_LEN))
        .collect::<MsgResult<Vec<_>>>()?;

    let mut rng = SplitMix64::new(p.seed);
    let mut round = 0u64;
    loop {
        let go = p.measure && (round == 0 || Instant::now() < p.deadline) && round < p.max_rounds;
        send_word(ep, 1, CTRL, &mut wbuf, go as u64)?;
        if !go {
            return Ok(());
        }
        round += 1;
        tr.span("pass", None, |pass| -> MsgResult<()> {
            let pings_start = Instant::now();
            for _ in 0..p.pings {
                let v = rng.next_u64();
                let mut ping = sbuf.take().expect("ping buffer");
                ping.as_mut_slice().copy_from_slice(&v.to_le_bytes());
                let pong = rbuf.take().expect("pong buffer");
                let t = Instant::now();
                let rr = tr.span("msg.irecv", pass, |_| {
                    ep.irecv(MatchSpec::exact(1, PONG), pong)
                })?;
                let sr = tr.span("msg.isend", pass, |_| ep.isend(1, PING, ping))?;
                sbuf = Some(tr.span("msg.wait", pass, |_| ep.wait_send_timeout(sr, TIMEOUT))?);
                let (b, info) = tr.span("msg.wait", pass, |_| ep.wait_recv_timeout(rr, TIMEOUT))?;
                o.rtt.push(t.elapsed().as_secs_f64() * 1e6);
                let echoed = word(&b);
                o.check(info.len == 8 && echoed == v ^ ECHO, || {
                    format!(
                        "pong carried {echoed:#x} ({} bytes) for ping {v:#x}",
                        info.len
                    )
                });
                rbuf = Some(b);
            }
            o.ping_s.push(pings_start.elapsed().as_secs_f64());

            let key = p.seed ^ round.wrapping_mul(0xd6e8_feb8_6659_fd93);
            let mut expect = Digest::default();
            for (k, b) in bufs.iter_mut().enumerate() {
                fill(b.as_mut_slice(), key ^ ((k as u64) << 40));
                expect.add(checksum(b.as_slice()));
            }
            if p.tamper {
                expect.add(1);
            }
            // Post the replies' receives first, so each costs exactly one
            // receive copy; the stream itself must cost none.
            let ack_req = post_word(ep, 1, ACK, &mut ack)?;
            let sum_req = post_word(ep, 1, SUM, &mut wbuf)?;
            let copies = ep.stats().host_copies;
            let t = Instant::now();
            let reqs = bufs
                .drain(..)
                .map(|b| tr.span("msg.isend", pass, |_| ep.isend(1, STREAM, b)))
                .collect::<MsgResult<Vec<_>>>()?;
            for req in reqs {
                bufs.push(tr.span("msg.wait", pass, |_| ep.wait_send_timeout(req, TIMEOUT))?);
            }
            wait_word(ep, ack_req, &mut ack)?;
            o.stream_s.push(t.elapsed().as_secs_f64());
            let got = wait_word(ep, sum_req, &mut wbuf)?;
            let copied = ep.stats().host_copies - copies - 2;
            o.check(got == expect.0, || {
                format!("stream checksum {got:#x}, sent {:#x}", expect.0)
            });
            o.check(copied == 0, || {
                format!("{copied} host copies sending the rendezvous stream")
            });
            if round == 1 {
                // Later rounds depend on how many fit in the time.
                o.digest.add(expect.0);
            }
            Ok(())
        })?;
    }
}

fn rank1(ep: &mut Endpoint, p: Params, o: &mut RankOut) -> MsgResult<()> {
    let mut wbuf = Some(ep.alloc(8)?);
    let mut free = vec![ep.alloc(8)?, ep.alloc(8)?];
    let mut pong = ep.alloc(8)?;
    o.setup_s = p.started.elapsed().as_secs_f64();
    send_word(ep, 0, CTRL, &mut wbuf, 1)?;
    let mut bufs = Vec::new();
    while recv_word(ep, 0, CTRL, &mut wbuf)? == 1 {
        if bufs.is_empty() {
            bufs = (0..p.stream_msgs)
                .map(|_| ep.alloc(STREAM_LEN))
                .collect::<MsgResult<Vec<_>>>()?;
        }
        let mut rr = ep.irecv(MatchSpec::exact(0, PING), free.pop().expect("ping buffer"))?;
        let mut sreqs = Vec::new();
        for i in 0..p.pings {
            let (b, _) = ep.wait_recv_timeout(rr, TIMEOUT)?;
            if i + 1 < p.pings {
                rr = ep.irecv(MatchSpec::exact(0, PING), free.pop().expect("ping buffer"))?;
            } else {
                // Post the stream's receives before the last pong, so
                // every stream message finds its buffer posted.
                for b in bufs.drain(..) {
                    sreqs.push(ep.irecv(MatchSpec::exact(0, STREAM), b)?);
                }
            }
            pong.as_mut_slice()
                .copy_from_slice(&(word(&b) ^ ECHO).to_le_bytes());
            free.push(b);
            let req = ep.isend(0, PONG, pong)?;
            pong = ep.wait_send_timeout(req, TIMEOUT)?;
        }
        let copies = ep.stats().host_copies;
        for req in sreqs {
            let (b, info) = ep.wait_recv_timeout(req, TIMEOUT)?;
            o.check(info.len == STREAM_LEN, || {
                format!("stream message of {} bytes", info.len)
            });
            bufs.push(b);
        }
        let copied = ep.stats().host_copies - copies;
        o.check(copied == 0, || {
            format!("{copied} host copies receiving the rendezvous stream")
        });
        send_word(ep, 0, ACK, &mut wbuf, 1)?;
        let mut sum = Digest::default();
        for b in &bufs {
            sum.add(checksum(b.as_slice()));
        }
        send_word(ep, 0, SUM, &mut wbuf, sum.0)?;
    }
    Ok(())
}

pub fn run(ctx: &Ctx) -> Report {
    let (pings, stream_msgs) = match ctx.scale {
        Scale::Full => (2000, 8),
        Scale::Tiny => (20, 2),
    };
    let mut r = Report::default();
    let (mut rounds, mut dma_bytes, mut ep_stats) = (0u64, 0u64, Vec::new());
    let (mut digest, mut streams, mut ping_s) = (Digest::default(), Vec::new(), Vec::new());
    // Every launch sets a cluster up; only the last one measures.
    // Measuring in one launch keeps the resident set from depending on
    // how the allocator reuses earlier launches' memory.
    for s in 0..LAUNCHES {
        let started = Instant::now();
        let measure = s + 1 == LAUNCHES;
        let p = Params {
            seed: ctx.seed,
            tamper: ctx.tamper,
            pings,
            stream_msgs,
            measure,
            max_rounds: if ctx.tracer.enabled() {
                TRACED_ROUNDS
            } else {
                u64::MAX
            },
            deadline: started + Duration::from_secs_f64(ctx.seconds),
            started,
        };
        let tr = Arc::clone(&ctx.tracer);
        let (outs, fabric) = Cluster::builder().nodes(2).run(move |mut node| {
            let rank = node.rank();
            let ep = node.endpoint();
            let mut o = RankOut {
                setup_s: 0.0,
                rtt: Reservoir::new(RTT_SAMPLES, p.seed),
                ping_s: Vec::new(),
                stream_s: Vec::new(),
                tally: Tally::default(),
                failures: Vec::new(),
                stats: None,
                digest: Digest::default(),
            };
            let res = if rank == 0 {
                rank0(ep, p, &tr, &mut o)
            } else {
                rank1(ep, p, &mut o)
            };
            if let Err(e) = res {
                o.check(false, || format!("rank {rank}: {e:?}"));
            }
            o.stats = Some(ep.stats());
            o
        });
        // Set up means both ranks hold their endpoint and buffers.
        r.setup_s
            .push(outs.iter().map(|o| o.setup_s).fold(0.0, f64::max));
        for mut o in outs {
            r.tally.merge(o.tally);
            r.failures.append(&mut o.failures);
            if measure {
                rounds += o.stream_s.len() as u64;
                r.req_us.extend(&o.rtt.samples);
                streams.extend(&o.stream_s);
                ping_s.extend(&o.ping_s);
                digest.add(o.digest.0);
                ep_stats.extend(o.stats);
            }
        }
        if measure {
            dma_bytes = fabric.dma_bytes;
        }
    }
    r.passes = rounds;
    if !streams.is_empty() {
        r.wall_s = stats::median(&streams);
        r.req_per_s = pings as f64 / stats::median(&ping_s);
        r.notes.push(format!(
            "{rounds} rounds; stream {:.3} GiB/s; round-trip p50 {:.2} us",
            stream_msgs as f64 / 1024.0 / r.wall_s,
            stats::median(&r.req_us)
        ));
    }
    r.digest = digest.0;

    let sum = |f: fn(&EndpointStats) -> u64| ep_stats.iter().map(f).sum::<u64>() as f64;
    let per_round = rounds.max(1) as f64;
    let msgs = sum(|s| s.msgs_sent).max(1.0);
    r.layer("msg.eager_sends", sum(|s| s.eager_sends) / per_round);
    r.layer(
        "msg.rendezvous_sends",
        sum(|s| s.rendezvous_sends) / per_round,
    );
    r.layer("msg.host_copies_per_msg", sum(|s| s.host_copies) / msgs);
    r.layer(
        "msg.host_copy_bytes_per_msg",
        sum(|s| s.host_copy_bytes) / msgs,
    );
    r.layer(
        "msg.unexpected_arrivals",
        sum(|s| s.unexpected_arrivals) / per_round,
    );
    r.layer("msg.tx_pool_growth", sum(|s| s.tx_pool_growth));
    r.layer("msg.rel_retransmits", sum(|s| s.rel_retransmits));
    r.layer("nic.dma_bytes", dma_bytes as f64 / per_round);
    if ctx.tracer.enabled() {
        let spans = ctx.tracer.spans();
        let mean_ns = |name: &str| {
            let d: Vec<u64> = spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.end_ns - s.start_ns)
                .collect();
            d.iter().sum::<u64>() as f64 / d.len().max(1) as f64
        };
        r.layer("msg.isend_ns", mean_ns("msg.isend"));
        r.layer("msg.wait_ns", mean_ns("msg.wait"));
    }
    r
}
