//! Property-based tests of mesh geometry and the contention model.

use hoploc_noc::{
    L2ToMcMapping, McPlacement, Mesh, Network, NocConfig, NodeId, Routing, TrafficClass,
};
use hoploc_ptest::run_cases;

#[test]
fn route_length_equals_distance() {
    run_cases("route_length_equals_distance", 128, |rng| {
        let mesh = Mesh::new(rng.u16_in(2..10), rng.u16_in(2..10));
        let n = mesh.num_nodes() as u16;
        let (a, b) = (
            NodeId(rng.u16_in(0..100) % n),
            NodeId(rng.u16_in(0..100) % n),
        );
        let route = mesh.xy_route(a, b);
        assert_eq!(route.len() as u32, mesh.hop_distance(a, b));
        // Every step in the route is between adjacent nodes.
        let mut prev = a;
        for &next in &route {
            assert_eq!(mesh.hop_distance(prev, next), 1);
            prev = next;
        }
        if !route.is_empty() {
            assert_eq!(*route.last().unwrap(), b);
        }
    });
}

#[test]
fn distance_is_a_metric() {
    run_cases("distance_is_a_metric", 256, |rng| {
        let mesh = Mesh::new(8, 8);
        let (a, b, c) = (
            NodeId(rng.u16_in(0..64)),
            NodeId(rng.u16_in(0..64)),
            NodeId(rng.u16_in(0..64)),
        );
        assert_eq!(mesh.hop_distance(a, b), mesh.hop_distance(b, a));
        assert_eq!(mesh.hop_distance(a, a), 0);
        assert!(mesh.hop_distance(a, c) <= mesh.hop_distance(a, b) + mesh.hop_distance(b, c));
    });
}

#[test]
fn send_latency_at_least_uncontended() {
    run_cases("send_latency_at_least_uncontended", 128, |rng| {
        let mesh = Mesh::new(8, 8);
        let mut net = Network::new(mesh, NocConfig::default());
        let warmups = rng.usize_in(0..20);
        for k in 0..warmups {
            net.send(
                NodeId((k % 64) as u16),
                NodeId(((k * 7) % 64) as u16),
                256,
                TrafficClass::OnChip,
                0,
            );
        }
        let (src, dst) = (NodeId(rng.u16_in(0..64)), NodeId(rng.u16_in(0..64)));
        let bytes = rng.u32_in(1..512);
        let arrival = net.send(src, dst, bytes, TrafficClass::OffChip, 100);
        assert!(arrival >= 100 + net.uncontended_latency(src, dst));
    });
}

#[test]
fn histogram_totals_match_message_count() {
    run_cases("histogram_totals_match_message_count", 128, |rng| {
        let n_sends = rng.usize_in(1..40);
        let sends: Vec<(u16, u16)> = (0..n_sends)
            .map(|_| (rng.u16_in(0..64), rng.u16_in(0..64)))
            .collect();
        let mut net = Network::new(Mesh::new(8, 8), NocConfig::default());
        for &(s, d) in &sends {
            net.send(NodeId(s), NodeId(d), 8, TrafficClass::OffChip, 0);
        }
        let stats = net.stats();
        assert_eq!(
            stats.off_chip.hop_histogram.iter().sum::<u64>(),
            sends.len() as u64
        );
        assert_eq!(stats.off_chip.messages, sends.len() as u64);
    });
}

#[test]
fn nearest_mc_minimizes_distance() {
    run_cases("nearest_mc_minimizes_distance", 192, |rng| {
        let mesh = Mesh::new(8, 8);
        let placements = [
            McPlacement::Corners,
            McPlacement::EdgeMidpoints,
            McPlacement::Diagonal,
        ];
        let mapping = L2ToMcMapping::nearest_cluster(mesh, &placements[rng.usize_in(0..3)]);
        let n = NodeId(rng.u16_in(0..64));
        let nearest = mapping.nearest_mc(n);
        let d = mesh.hop_distance(n, mapping.mc_node(nearest));
        for mc in 0..mapping.num_mcs() {
            assert!(d <= mesh.hop_distance(n, mapping.mc_node(hoploc_noc::McId(mc as u16))));
        }
    });
}

#[test]
fn every_node_belongs_to_exactly_one_cluster() {
    run_cases("every_node_belongs_to_exactly_one_cluster", 64, |rng| {
        let mesh = Mesh::new(8, 8);
        let mapping = L2ToMcMapping::nearest_cluster(mesh, &McPlacement::Corners);
        let c = mapping.cluster_of(NodeId(rng.u16_in(0..64)));
        assert!((c.0 as usize) < mapping.num_clusters());
        assert!(!mapping.cluster_mcs(c).is_empty());
    });
}

/// The directed link id (`node * 4 + direction`, directions E, W, N, S)
/// of the hop between two adjacent nodes, derived from coordinates.
fn link_between(mesh: &Mesh, from: NodeId, to: NodeId) -> usize {
    let (fx, fy) = mesh.coords(from);
    let (tx, ty) = mesh.coords(to);
    let dir = match (tx as i32 - fx as i32, ty as i32 - fy as i32) {
        (1, 0) => 0,
        (-1, 0) => 1,
        (0, -1) => 2,
        (0, 1) => 3,
        step => panic!("{from} -> {to} is not one hop ({step:?})"),
    };
    from.0 as usize * 4 + dir
}

/// `send` walks exactly the links of the specification routes
/// ([`Mesh::xy_route`] / [`Mesh::yx_route`]) and, on an idle network,
/// arrives after exactly the uncontended latency.
#[test]
fn send_loads_exactly_the_specified_route() {
    for mesh in [Mesh::new(8, 8), Mesh::new(3, 5)] {
        for routing in [Routing::XY, Routing::YX] {
            let n = mesh.num_nodes() as u16;
            for (src, dst) in (0..n).flat_map(|a| (0..n).map(move |b| (NodeId(a), NodeId(b)))) {
                let config = NocConfig {
                    routing,
                    ..NocConfig::default()
                };
                let mut net = Network::new(mesh, config);
                let now = 100;
                let arrival = net.send(src, dst, 64, TrafficClass::OffChip, now);
                assert_eq!(arrival, now + net.uncontended_latency(src, dst));
                let route = match routing {
                    Routing::XY => mesh.xy_route(src, dst),
                    Routing::YX => mesh.yx_route(src, dst),
                };
                let mut expect = vec![0.0; mesh.num_nodes() * 4];
                let mut from = src;
                for next in route {
                    expect[link_between(&mesh, from, next)] = net.flits(64) as f64;
                    from = next;
                }
                assert_eq!(
                    net.link_utilization(1),
                    expect,
                    "{routing:?} {src} -> {dst} on {}x{}",
                    mesh.width(),
                    mesh.height()
                );
            }
        }
    }
}
