//! `sweep_service`: a closed loop of `jobs` clients against one
//! `SweepServer`.
//!
//! Each client sends its next request only after the previous one
//! returns, drawing specs Zipf(1) over `figure_specs` with the spec
//! list order as popularity rank. The cache budget holds half the spec
//! space, so hits (reads) run beside misses, inserts and evictions
//! (writes). Misses run simx on small fabrics (4 to 128 nodes), so a
//! simx change that helps 1024-node cells but costs small ones shows up
//! here. A pass is a fixed batch of requests; a request is one
//! `SweepServer::request`.

use crate::{stats, timed, timed_passes, Ctx, Digest, Report, Scale, SETUP_REPS};
use polaris_obs::Obs;
use polaris_serve::prelude::{figure_specs, PointResult, SpecHash, SweepServer};
use polaris_simnet::rng::SplitMix64;
use std::panic::{catch_unwind, AssertUnwindSafe};

const ZIPF_S: f64 = 1.0;

/// Cumulative Zipf(`s`) weights over `n` ranks.
fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let mut acc = 0.0;
    let mut cdf: Vec<f64> = (1..=n)
        .map(|r| {
            acc += 1.0 / (r as f64).powf(s);
            acc
        })
        .collect();
    cdf.iter_mut().for_each(|c| *c /= acc);
    cdf
}

fn draw(cdf: &[f64], rng: &mut SplitMix64) -> usize {
    let u = rng.next_f64();
    cdf.partition_point(|&c| c < u).min(cdf.len() - 1)
}

/// One client's batch: `(spec index, latency µs, answer was right)`.
type Batch = Vec<(usize, f64, bool)>;

pub fn run(ctx: &Ctx) -> Report {
    let tr = &*ctx.tracer;
    let (scales, batch): (&[u32], usize) = match ctx.scale {
        Scale::Full => (&[4, 16, 64, 128], 4000),
        Scale::Tiny => (&[4, 16], 200),
    };
    let mut r = Report::default();
    let specs = figure_specs(scales);
    let budget = specs.len() as u64 / 2 * specs[0].compute().cache_bytes();
    let cdf = zipf_cdf(specs.len(), ZIPF_S);

    // Set-up: a fresh server warmed with every spec, coldest first, so
    // the hottest half is what stays cached.
    let mut server = None;
    for _ in 0..SETUP_REPS {
        let (s, secs) = timed(|| {
            let s = SweepServer::new(budget, Obs::new());
            for spec in specs.iter().rev() {
                tr.span("serve", None, |_| s.request(*spec));
            }
            s
        });
        server = Some(s);
        r.setup_s.push(secs);
    }
    let server = server.expect("set-up ran");

    // The answer every served result must equal: a fresh compute.
    let mut reference: Vec<PointResult> = Vec::new();
    let (mut compute_s, mut messages) = (Vec::new(), 0u64);
    for spec in &specs {
        let (res, s) = timed(|| tr.span("simx", None, |_| spec.compute()));
        compute_s.push(s);
        messages += res.messages;
        reference.push(res);
    }
    if ctx.tamper {
        reference[0].messages += 1;
    }
    let simx_s: f64 = compute_s.iter().sum();
    r.layer("simx.calls_s", simx_s);
    r.layer("simx.messages", messages as f64);
    r.layer("simx.ns_per_msg", simx_s * 1e9 / messages.max(1) as f64);
    r.layer("serve.miss_compute_s", stats::median(&compute_s));
    const HASH_REPS: usize = 200;
    let (_, hash_s) = timed(|| {
        for _ in 0..HASH_REPS {
            for spec in &specs {
                std::hint::black_box(SpecHash::of(std::hint::black_box(spec)));
            }
        }
    });
    r.layer(
        "serve.hash_ns",
        hash_s * 1e9 / (HASH_REPS * specs.len()) as f64,
    );

    let clients = ctx.jobs.max(1);
    let before = server.cache_stats();
    let mut pass_no = 0u64;
    let walls = timed_passes(ctx.seconds, 3, || {
        pass_no += 1;
        let batches: Vec<Batch> = tr.span("pass", None, |pass| {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..clients)
                    .map(|c| {
                        let (server, specs, cdf, reference) = (&server, &specs, &cdf, &reference);
                        let seed = ctx.seed
                            ^ pass_no.wrapping_mul(0x9e37_79b9_7f4a_7c15)
                            ^ ((c as u64) << 48);
                        scope.spawn(move || {
                            let mut rng = SplitMix64::new(seed);
                            (0..batch / clients)
                                .map(|_| {
                                    let i = draw(cdf, &mut rng);
                                    let (res, s) = timed(|| {
                                        catch_unwind(AssertUnwindSafe(|| {
                                            tr.span("serve", pass, |_| server.request(specs[i]))
                                        }))
                                    });
                                    (i, s * 1e6, res.is_ok_and(|got| *got == reference[i]))
                                })
                                .collect::<Batch>()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("client thread panicked"))
                    .collect()
            })
        });
        for (i, us, ok) in batches.into_iter().flatten() {
            r.req_us.push(us);
            r.check(ok, || {
                format!(
                    "request for {:?} errored or differs from a fresh compute",
                    specs[i]
                )
            });
        }
    });
    let after = server.cache_stats();
    r.passes = walls.len() as u64;
    r.wall_s = stats::median(&walls);
    r.req_per_s = (batch / clients * clients) as f64 / r.wall_s;
    let passes = walls.len() as f64;
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    r.layer(
        "serve.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    r.layer(
        "serve.evictions",
        (after.evictions - before.evictions) as f64 / passes,
    );
    r.layer(
        "serve.singleflight_waits",
        (after.singleflight_waits - before.singleflight_waits) as f64 / passes,
    );

    let mut d = Digest::default();
    for res in &reference {
        d.add(res.completion_ps);
        d.add(res.messages);
        d.add(res.payload_bytes);
    }
    r.digest = d.0;
    r
}
