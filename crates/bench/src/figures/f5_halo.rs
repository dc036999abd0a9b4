//! F5 — application proxy: 2-D Jacobi halo exchange, weak scaling, by
//! protocol. Runs the *executable* stack (real threads, real data
//! movement) with the sockets model's overheads enabled so the
//! wall-clock comparison reflects the 2002 cost structure.

use crate::table::Table;
use polaris::prelude::*;
use std::time::Duration;

/// Per-rank block edge: each rank owns block × block cells (weak scaling).
const BLOCK: usize = 64;
const ITERS: u32 = 40;

fn run_once(ranks: u32, cfg: MsgConfig) -> (f64, u64) {
    // Weak scaling with square process grids (1, 4, 9, 16 ranks): each
    // rank always owns exactly BLOCK x BLOCK cells.
    let (px, py) = process_grid(ranks);
    assert_eq!(px, py, "F5 uses square rank counts");
    let jacobi = JacobiConfig {
        n: BLOCK * px as usize,
        iters: ITERS,
    };
    let t0 = std::time::Instant::now();
    let (out, stats) = Cluster::builder()
        .nodes(ranks)
        .messaging(cfg)
        .run(move |mut ctx| {
            let (_, res) = run_parallel(&mut ctx, jacobi);
            res
        });
    let dt = t0.elapsed().as_secs_f64();
    assert!(out.iter().all(|r| r.is_finite()));
    (dt, stats.dma_bytes)
}

pub fn generate() -> Vec<Table> {
    let mut t = Table::new(
        "F5",
        "Jacobi halo exchange, weak scaling: wall time (ms) by protocol",
        &["ranks", "sockets-2002", "zero-copy", "speedup"],
    );
    let mut sockets_cfg = MsgConfig::with_protocol(Protocol::Sockets);
    // The calibrated busy-waits that stand in for 2002 kernel overheads.
    sockets_cfg.syscall_overhead = Duration::from_micros(5);
    sockets_cfg.interrupt_overhead = Duration::from_micros(15);
    let zc_cfg = MsgConfig::default(); // auto eager/rendezvous

    for ranks in [1u32, 4, 9, 16] {
        let (t_sock, _) = run_once(ranks, sockets_cfg);
        let (t_zc, _) = run_once(ranks, zc_cfg);
        t.row(vec![
            ranks.to_string(),
            format!("{:.1}", t_sock * 1e3),
            format!("{:.1}", t_zc * 1e3),
            format!("{:.2}x", t_sock / t_zc),
        ]);
    }
    t.note(format!(
        "weak scaling: {BLOCK}x{BLOCK} cells per rank, {ITERS} iterations, executable stack"
    ));
    t.note("expected: zero-copy advantage grows with ranks (more halo messages/iter)");
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Host copies per message sent over one 4-rank halo run, read
    /// from every rank's endpoint counters.
    fn host_copies_per_msg(cfg: MsgConfig) -> f64 {
        let jacobi = JacobiConfig {
            n: BLOCK * 2,
            iters: 4,
        };
        let (stats, _) = Cluster::builder()
            .nodes(4)
            .messaging(cfg)
            .run(move |mut ctx| {
                run_parallel(&mut ctx, jacobi);
                ctx.endpoint().stats()
            });
        let copies: u64 = stats.iter().map(|s| s.host_copies).sum();
        let msgs: u64 = stats.iter().map(|s| s.msgs_sent).sum();
        assert!(msgs > 0, "the halo exchange sends messages");
        copies as f64 / msgs as f64
    }

    /// The copy count is what makes zero-copy win. Unlike the wall
    /// clock it does not depend on how busy the host is: zero-copy pays
    /// 2-3 copies per message (the third only for a message that
    /// arrives before its receive is posted), sockets pays the kernel
    /// copies on every segment (8.5 per message here).
    #[test]
    fn zero_copy_beats_sockets_model() {
        let sockets = host_copies_per_msg(MsgConfig::with_protocol(Protocol::Sockets));
        let zero_copy = host_copies_per_msg(MsgConfig::default());
        assert!(
            zero_copy < sockets,
            "zero-copy {zero_copy} host copies/msg must undercut sockets {sockets}"
        );
    }
}
