//! Memory regression gate for the O(1) interconnect refactor: building
//! a 1,048,576-host Dragonfly [`Topology`] must allocate O(routers)
//! state, never any per-host (let alone per-host-pair) table, and
//! deriving routes through [`Topology::route_plan`] or counting their
//! links with [`Topology::hops`] must not allocate at all, on that
//! Dragonfly or on a fat tree.
//!
//! The test binary installs a metering global allocator that counts
//! allocator calls and bytes *per thread*, and each test meters only
//! its own region on its own thread: the harness runs sibling tests in
//! parallel, and a process-wide counter would charge their allocations
//! to whichever region happened to be open. The caps are absolute and
//! generous: the 1M-host machine has 65,536 routers, so an O(hosts)
//! slip costs ~1M allocator-visible bytes in one growth sequence and an
//! O(hosts^2) table is astronomically over the cap — while the intended
//! O(1)/O(routers) representation stays in single digits.
//!
//! The same meter gates the schedule executors' receive path: an
//! all-to-all must cost a bounded number of allocator calls per rank,
//! not one per-pair queue per message pair.

use polaris_collectives::parsim::simulate_collective_sharded;
use polaris_collectives::simx::{simulate_collective, Collective, ExecParams};
use polaris_simnet::link::Generation;
use polaris_simnet::network::Network;
use polaris_simnet::rng::SplitMix64;
use polaris_simnet::topology::{Routing, Topology, TopologyKind};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator plus per-thread call and byte counters.
struct MeteredAlloc;

thread_local! {
    static CALLS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn record(bytes: usize) {
    // `try_with`: allocations during thread teardown, after the
    // counters are gone, are simply not metered.
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|b| b.set(b.get() + bytes as u64));
}

unsafe impl GlobalAlloc for MeteredAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: MeteredAlloc = MeteredAlloc;

/// Run `f` on the calling thread and return its result with the
/// allocator calls and bytes this thread made inside it.
fn metered<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let (calls0, bytes0) = (CALLS.with(Cell::get), BYTES.with(Cell::get));
    let r = f();
    let (calls1, bytes1) = (CALLS.with(Cell::get), BYTES.with(Cell::get));
    (r, calls1 - calls0, bytes1 - bytes0)
}

const MILLION_HOST_FLY: TopologyKind = TopologyKind::Dragonfly {
    groups: 2048,
    routers_per_group: 32,
    hosts_per_router: 16,
};

/// The tentpole claim: the lean constructor derives everything
/// arithmetically, so a million-host Dragonfly costs a handful of
/// allocator calls and a bounded number of bytes — O(routers), not
/// O(hosts) and certainly not O(hosts^2).
#[test]
fn million_host_dragonfly_builds_in_o_routers_memory() {
    let (topo, calls, bytes) = metered(|| std::hint::black_box(Topology::new(MILLION_HOST_FLY)));
    assert_eq!(topo.hosts(), 1 << 20);
    // 65,536 routers at even one byte each would pass; one u32 per host
    // (4 MiB) would not, and a hosts^2 route table (4 TiB) is absurd.
    assert!(calls <= 64, "Topology::new made {calls} allocator calls");
    assert!(
        bytes <= 1 << 20,
        "Topology::new allocated {bytes} bytes for a 1M-host dragonfly"
    );
}

/// The routing hot path materializes nothing: deriving and walking a
/// `RoutePlan`, and the closed-form `hops`, for sampled pairs perform
/// zero allocator calls — on the 1M-host Dragonfly under minimal and
/// Valiant routing, on the k=16 fat tree the F3 sweep routes over, and
/// on a multi-pod fat tree.
#[test]
fn route_plan_hot_path_is_allocation_free() {
    let fabrics = [
        Topology::new(MILLION_HOST_FLY),
        Topology::new(MILLION_HOST_FLY).with_routing(Routing::Valiant { seed: 0xF00D }),
        Topology::new(TopologyKind::FatTree { k: 16 }),
        Topology::new(TopologyKind::FatTreePods { k: 16, pods: 5 }),
    ];
    for topo in &fabrics {
        let hosts = topo.hosts() as u64;
        let mut rng = SplitMix64::new(0x0A11_0C8E);
        // Warm up once so lazy process-wide state cannot masquerade as
        // a per-route allocation.
        let _ = std::hint::black_box(topo.hops(0, topo.hosts() - 1));
        let (acc, calls, _) = metered(|| {
            let mut acc = 0u64;
            for _ in 0..10_000 {
                let s = rng.next_below(hosts) as u32;
                let d = rng.next_below(hosts) as u32;
                for link in topo.route_plan(s, d) {
                    acc = acc.wrapping_add(link.0 as u64);
                }
                acc = acc.wrapping_add(topo.hops(s, d) as u64);
            }
            acc
        });
        std::hint::black_box(acc);
        assert_eq!(
            calls,
            0,
            "routing allocated on {:?} under {:?}",
            topo.kind(),
            topo.routing()
        );
    }
}

/// Both schedule executors keep per-pair mailboxes in one recycled
/// slab, so a 256-rank pairwise all-to-all (65,280 messages over 65,280
/// distinct pairs) costs a handful of allocator calls per rank:
/// schedules, event queue and slab growth. One buffer per pair would be
/// ~255 calls per rank.
#[test]
fn alltoall_executors_allocate_o1_per_rank() {
    const P: u32 = 256;
    const CAP: u64 = 32 * P as u64;
    let link = Generation::InfiniBand4x.link_model();
    let coll = Collective::AlltoallPairwise;
    let mut net = Network::new(Topology::new(TopologyKind::Crossbar { hosts: P }), link);
    let (serial, calls, _) =
        metered(|| simulate_collective(&mut net, coll, 4096, ExecParams::default()));
    assert_eq!(serial.messages, u64::from(P * (P - 1)));
    assert!(calls <= CAP, "simx all-to-all made {calls} allocator calls for {P} ranks");
    // One job runs the sharded engine on this thread, inside the meter.
    let ((sharded, _), calls, _) =
        metered(|| simulate_collective_sharded(P, coll, 4096, ExecParams::default(), link, 1));
    assert_eq!(sharded.messages, serial.messages);
    assert!(calls <= CAP, "parsim all-to-all made {calls} allocator calls for {P} ranks");
}

/// The meter is live: a zero-allocation verdict above means the hot
/// path made no calls, not that the counters never moved.
#[test]
fn metering_counts_this_threads_allocations() {
    let (v, calls, bytes) = metered(|| std::hint::black_box(vec![0u8; 4096]));
    assert_eq!(v.len(), 4096);
    assert!(calls >= 1 && bytes >= 4096, "metered {calls} calls / {bytes} bytes");
}
