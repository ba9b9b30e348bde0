//! Node naming, switch-graph construction and deterministic routing for
//! the interconnect: clusters of GPUs behind per-cluster edge switches,
//! with the edge switches wired into one of three fabrics —
//!
//! * **mesh** — every edge switch links directly to every other (the
//!   paper's Figure 2 node is the 2-switch/1-link case),
//! * **fat-tree** — a two-tier Clos: every edge switch uplinks to each
//!   core switch, packets route up to a deterministic core
//!   (`dst_gpu % cores`) and back down,
//! * **3D torus** — dimension-order routing (X, then Y, then Z) with
//!   dateline virtual channels on the wrap links for deadlock freedom.
//!
//! The topology is a pure description: [`SwitchSpec`] lists each switch's
//! ports ([`FabricLink`]) and its full routing table, and the system
//! builder materializes switches and wires from it. Routing is entirely
//! static, so path selection is identical under every scheduler.

use std::collections::BTreeMap;

use netcrafter_proto::config::TORUS_VC_SHARE;
use netcrafter_proto::{ClusterId, FabricConfig, GpuId, NodeId, TopologyConfig};
use netcrafter_sim::Cycle;

/// Cycle latency of every GPU↔switch wire (bandwidth differences are
/// modelled by the port rate limiters, not by latency). Switch↔switch
/// fabric wires take their kind's [`FabricConfig::link_cycles`] instead,
/// which is the same single cycle on the paper-baseline mesh.
pub const WIRE_LATENCY: Cycle = 1;

/// Checked narrowing for switch/port index arithmetic, which is bounded
/// by the `u16` configuration fields by construction.
fn narrow16(x: usize) -> u16 {
    u16::try_from(x).expect("index fits in u16")
}

/// One port of a switch: the link to a neighboring node.
#[derive(Debug, Clone)]
pub struct FabricLink {
    /// Node on the other end (a GPU's RDMA engine or another switch).
    pub peer: NodeId,
    /// The paired port's index at the peer (0 for GPU endpoints, which
    /// have a single implicit port).
    pub peer_port: u16,
    /// Wire propagation latency in cycles.
    pub latency: Cycle,
    /// True for switch↔switch fabric links, which run at the
    /// inter-cluster rate; GPU links run at the intra-cluster rate.
    pub is_inter: bool,
    /// Fraction of the link class's bandwidth this port gets. Torus
    /// virtual channels split one physical wrap-capable channel in two
    /// ([`TORUS_VC_SHARE`] each); everything else is 1.0.
    pub rate_scale: f64,
}

/// The static description of one switch: identity, ports in wiring
/// order, and the complete deterministic routing table.
#[derive(Debug, Clone)]
pub struct SwitchSpec {
    /// Network node id of this switch.
    pub node: NodeId,
    /// The cluster this switch fronts, or `None` for fat-tree core
    /// switches, which have no attached GPUs.
    pub cluster: Option<ClusterId>,
    /// Ports in construction order: attached GPUs first (edge switches),
    /// then fabric links in a fabric-specific deterministic order.
    pub links: Vec<FabricLink>,
    /// Output port for every other node in the network (GPUs and
    /// switches), so both endpoint traffic and switch-addressed stitched
    /// flits route without dynamic state.
    pub routes: BTreeMap<NodeId, usize>,
}

/// The static shape of the interconnect: which node ids exist, how they
/// map to GPUs, clusters and switches, and how flits route between them.
///
/// Node numbering: GPUs occupy `0..total_gpus`, cluster (edge) switches
/// occupy `total_gpus..total_gpus + clusters`, and fat-tree core switches
/// follow at `total_gpus + clusters..`.
#[derive(Debug, Clone)]
pub struct Topology {
    clusters: u16,
    gpus_per_cluster: u16,
    fabric: FabricConfig,
    switches: Vec<SwitchSpec>,
}

impl Topology {
    /// Builds the switch graph and routing tables from a configuration.
    pub fn new(cfg: &TopologyConfig) -> Self {
        assert!(cfg.clusters > 0 && cfg.gpus_per_cluster > 0);
        let mut t = Self {
            clusters: cfg.clusters,
            gpus_per_cluster: cfg.gpus_per_cluster,
            fabric: cfg.fabric,
            switches: Vec::new(),
        };
        match cfg.fabric {
            FabricConfig::Mesh => t.build_mesh(),
            FabricConfig::FatTree { cores } => t.build_fat_tree(cores),
            FabricConfig::Torus { x, y, z } => {
                assert_eq!(
                    (x as u32) * (y as u32) * (z as u32),
                    cfg.clusters as u32,
                    "torus dimensions must cover every cluster"
                );
                t.build_torus([x, y, z]);
            }
        }
        t.fill_routes();
        t.check_symmetry();
        t
    }

    /// Number of clusters.
    pub fn clusters(&self) -> u16 {
        self.clusters
    }

    /// GPUs per cluster.
    pub fn gpus_per_cluster(&self) -> u16 {
        self.gpus_per_cluster
    }

    /// Total GPUs in the node.
    pub fn total_gpus(&self) -> u16 {
        self.clusters * self.gpus_per_cluster
    }

    /// The fabric wiring the switches together.
    pub fn fabric(&self) -> FabricConfig {
        self.fabric
    }

    /// Total switches: one edge switch per cluster plus any core tier.
    pub fn num_switches(&self) -> u16 {
        narrow16(self.switches.len())
    }

    /// Static description of switch `idx` (edge switches first, in
    /// cluster order, then core switches).
    pub fn switch_spec(&self, idx: usize) -> &SwitchSpec {
        &self.switches[idx]
    }

    /// Human-readable name of switch `idx`: `"cluster<N>.switch"` for
    /// edge switches, `"core<K>.switch"` for fat-tree cores.
    pub fn switch_name(&self, idx: usize) -> String {
        match self.switches[idx].cluster {
            Some(c) => format!("{c}.switch"),
            None => format!("core{}.switch", idx - self.clusters as usize),
        }
    }

    /// All switch descriptions in node-id order.
    pub fn switch_specs(&self) -> impl Iterator<Item = &SwitchSpec> + '_ {
        self.switches.iter()
    }

    /// Network node of a GPU's RDMA engine.
    pub fn gpu_node(&self, gpu: GpuId) -> NodeId {
        assert!(gpu.raw() < self.total_gpus(), "unknown {gpu}");
        NodeId(gpu.raw())
    }

    /// Network node of a cluster's edge switch.
    pub fn switch_node(&self, cluster: ClusterId) -> NodeId {
        assert!(cluster.raw() < self.clusters, "unknown {cluster}");
        NodeId(self.total_gpus() + cluster.raw())
    }

    /// Dense index (into [`Self::switch_spec`]) of a switch node.
    pub fn switch_index(&self, node: NodeId) -> usize {
        assert!(self.is_switch(node), "unknown {node}");
        (node.raw() - self.total_gpus()) as usize
    }

    /// True if `node` is a switch (edge or core).
    pub fn is_switch(&self, node: NodeId) -> bool {
        node.raw() >= self.total_gpus() && node.raw() < self.total_gpus() + self.num_switches()
    }

    /// The GPU behind an endpoint node, if it is one.
    pub fn node_gpu(&self, node: NodeId) -> Option<GpuId> {
        (node.raw() < self.total_gpus()).then(|| GpuId(node.raw()))
    }

    /// Cluster of a GPU.
    pub fn gpu_cluster(&self, gpu: GpuId) -> ClusterId {
        gpu.cluster(self.gpus_per_cluster)
    }

    /// Port index of `gpu`'s link at its edge switch (GPU ports come
    /// first, in cluster-local order).
    pub fn gpu_port_at_switch(&self, gpu: GpuId) -> u16 {
        assert!(gpu.raw() < self.total_gpus(), "unknown {gpu}");
        gpu.raw() % self.gpus_per_cluster
    }

    /// True if traffic between the two endpoints crosses the
    /// lower-bandwidth inter-cluster fabric.
    pub fn crosses_clusters(&self, a: GpuId, b: GpuId) -> bool {
        self.gpu_cluster(a) != self.gpu_cluster(b)
    }

    /// All GPUs in the node, in id order.
    pub fn all_gpus(&self) -> impl Iterator<Item = GpuId> + '_ {
        (0..self.total_gpus()).map(GpuId)
    }

    /// The sequence of switch nodes a flit from `src` to `dst` traverses,
    /// following the static route tables. Both endpoints are GPUs; the
    /// returned path excludes them. Panics if the tables loop.
    pub fn switch_path(&self, src: GpuId, dst: GpuId) -> Vec<NodeId> {
        let dst_node = self.gpu_node(dst);
        let mut here = self.switch_node(self.gpu_cluster(src));
        let mut path = Vec::new();
        loop {
            path.push(here);
            assert!(
                path.len() <= self.switches.len(),
                "routing loop from {src} to {dst}: {path:?}"
            );
            let spec = &self.switches[self.switch_index(here)];
            let port = *spec
                .routes
                .get(&dst_node)
                .unwrap_or_else(|| panic!("{here} has no route to {dst_node}"));
            let next = spec.links[port].peer;
            if next == dst_node {
                return path;
            }
            here = next;
        }
    }

    /// Number of switch hops between two GPUs (1 when they share an edge
    /// switch).
    pub fn hops(&self, src: GpuId, dst: GpuId) -> usize {
        self.switch_path(src, dst).len()
    }

    /// Mean switch-hop count over every ordered cross-cluster GPU pair —
    /// the x-axis of the topology-sweep figure.
    pub fn mean_cross_hops(&self) -> f64 {
        let mut total = 0usize;
        let mut pairs = 0usize;
        for a in self.all_gpus() {
            for b in self.all_gpus() {
                if self.crosses_clusters(a, b) {
                    total += self.hops(a, b);
                    pairs += 1;
                }
            }
        }
        if pairs == 0 {
            0.0
        } else {
            total as f64 / pairs as f64
        }
    }

    // ---- construction ----

    /// Allocates switch `idx` with its GPU-facing ports (edge switches
    /// front `cluster`; core switches pass `None`).
    fn push_switch(&mut self, cluster: Option<ClusterId>) {
        let node = NodeId(self.total_gpus() + narrow16(self.switches.len()));
        let mut links = Vec::new();
        if let Some(c) = cluster {
            for gpu in
                (c.raw() * self.gpus_per_cluster..(c.raw() + 1) * self.gpus_per_cluster).map(GpuId)
            {
                links.push(FabricLink {
                    peer: NodeId(gpu.raw()),
                    peer_port: 0,
                    latency: WIRE_LATENCY,
                    is_inter: false,
                    rate_scale: 1.0,
                });
            }
        }
        self.switches.push(SwitchSpec {
            node,
            cluster,
            links,
            routes: BTreeMap::new(),
        });
    }

    fn fabric_link(&self, peer_idx: usize, peer_port: usize, rate_scale: f64) -> FabricLink {
        FabricLink {
            peer: NodeId(self.total_gpus() + narrow16(peer_idx)),
            peer_port: narrow16(peer_port),
            latency: Cycle::from(self.fabric.link_cycles()),
            is_inter: true,
            rate_scale,
        }
    }

    /// Full mesh: every edge switch links to every other, ports in peer
    /// cluster order (this reproduces the legacy star for 2 clusters).
    fn build_mesh(&mut self) {
        let c = self.clusters as usize;
        for cluster in 0..c {
            self.push_switch(Some(ClusterId(narrow16(cluster))));
        }
        let g = self.gpus_per_cluster as usize;
        // Port of peer `a` in switch `b`'s list: GPU ports, then peers in
        // order with self skipped.
        let port_of = |a: usize, b: usize| g + if a < b { a } else { a - 1 };
        for a in 0..c {
            for b in 0..c {
                if a == b {
                    continue;
                }
                let link = self.fabric_link(b, port_of(a, b), 1.0);
                self.switches[a].links.push(link);
            }
        }
    }

    /// Two-tier fat-tree: edge switch `e` uplinks to every core; core
    /// `k`'s downlink to edge `e` sits at port `e`.
    fn build_fat_tree(&mut self, cores: u16) {
        assert!(cores > 0, "fat-tree needs at least one core switch");
        let c = self.clusters as usize;
        let g = self.gpus_per_cluster as usize;
        for cluster in 0..c {
            self.push_switch(Some(ClusterId(narrow16(cluster))));
        }
        for _ in 0..cores {
            self.push_switch(None);
        }
        for e in 0..c {
            for k in 0..cores as usize {
                let up = self.fabric_link(c + k, e, 1.0);
                self.switches[e].links.push(up);
                let down = self.fabric_link(e, g + k, 1.0);
                self.switches[c + k].links.push(down);
            }
        }
    }

    /// 3D torus of edge switches. Each ring dimension of length ≥ 3
    /// contributes two directions × two virtual channels (dateline
    /// deadlock avoidance, each VC at half the physical rate); length-2
    /// rings are a single full-rate bidirectional link; length-1 rings
    /// contribute nothing.
    fn build_torus(&mut self, dims: [u16; 3]) {
        let c = self.clusters as usize;
        for cluster in 0..c {
            self.push_switch(Some(ClusterId(narrow16(cluster))));
        }
        let g = self.gpus_per_cluster as usize;
        let port_of = |dim: usize, positive: bool, vc: usize| {
            Self::torus_port_base(g, dims, dim)
                + if dims[dim] == 2 {
                    0
                } else {
                    (if positive { 0 } else { 2 }) + vc
                }
        };
        for s in 0..c {
            let coords = Self::torus_coords(s, dims);
            for dim in 0..3 {
                let n = dims[dim] as usize;
                if n < 2 {
                    continue;
                }
                let neighbor = |delta: isize| -> usize {
                    let mut nc = coords;
                    nc[dim] =
                        narrow16((coords[dim] as isize + delta).rem_euclid(n as isize) as usize);
                    Self::torus_index(nc, dims)
                };
                if n == 2 {
                    // +1 and -1 are the same switch: one full-rate link;
                    // the pair port is the peer's single port in this dim.
                    let link = self.fabric_link(neighbor(1), port_of(dim, true, 0), 1.0);
                    self.switches[s].links.push(link);
                } else {
                    for (positive, delta) in [(true, 1isize), (false, -1)] {
                        let peer = neighbor(delta);
                        for vc in 0..2 {
                            // My +dir port pairs with the peer's -dir port
                            // on the same VC (and vice versa).
                            let link =
                                self.fabric_link(peer, port_of(dim, !positive, vc), TORUS_VC_SHARE);
                            self.switches[s].links.push(link);
                        }
                    }
                }
            }
        }
    }

    /// Torus coordinates of switch `idx`: X fastest-varying.
    fn torus_coords(idx: usize, dims: [u16; 3]) -> [u16; 3] {
        let x = dims[0] as usize;
        let y = dims[1] as usize;
        [
            narrow16(idx % x),
            narrow16((idx / x) % y),
            narrow16(idx / (x * y)),
        ]
    }

    /// First port of dimension `dim` at every torus switch. The layout
    /// after the `g` GPU ports is deterministic: each earlier dimension
    /// contributes no port (size 1), one (size 2) or four (+vc0, +vc1,
    /// -vc0, -vc1).
    fn torus_port_base(g: usize, dims: [u16; 3], dim: usize) -> usize {
        let ports = |d: u16| match d {
            0 | 1 => 0,
            2 => 1,
            _ => 4,
        };
        g + dims[..dim].iter().map(|&d| ports(d)).sum::<usize>()
    }

    /// Inverse of [`Self::torus_coords`].
    fn torus_index(c: [u16; 3], dims: [u16; 3]) -> usize {
        c[0] as usize + dims[0] as usize * (c[1] as usize + dims[1] as usize * c[2] as usize)
    }

    /// Output port at switch `here` for a packet addressed to switch
    /// `dst` (dense indices, `here != dst`).
    fn next_hop_port(&self, here: usize, dst: usize) -> usize {
        let g = self.gpus_per_cluster as usize;
        match self.fabric {
            FabricConfig::Mesh => {
                // Direct link, ports in peer order with self skipped.
                g + if dst < here { dst } else { dst - 1 }
            }
            FabricConfig::FatTree { cores } => {
                let c = self.clusters as usize;
                if here < c {
                    // Edge: up to the deterministic core for this edge
                    // destination (cores are addressed directly).
                    if dst >= c {
                        g + (dst - c)
                    } else {
                        g + dst % cores as usize
                    }
                } else if dst >= c {
                    // Core to core: no direct link exists and no traffic
                    // ever takes this path (stitched flits only address
                    // adjacent switches); detour via edge 0 keeps the
                    // table total and deterministic.
                    0
                } else {
                    // Core: down to the destination edge.
                    dst
                }
            }
            FabricConfig::Torus { x, y, z } => {
                let dims = [x, y, z];
                let a = Self::torus_coords(here, dims);
                let b = Self::torus_coords(dst, dims);
                // Dimension-order: correct the first differing dimension.
                let dim = (0..3).find(|&d| a[d] != b[d]).expect("here != dst");
                let n = dims[dim] as usize;
                let port_base = Self::torus_port_base(g, dims, dim);
                if n == 2 {
                    return port_base;
                }
                let (ai, bi) = (a[dim] as usize, b[dim] as usize);
                let dist_pos = (bi + n - ai) % n;
                // Minimal direction; exact ties break positive.
                let positive = dist_pos * 2 <= n;
                // Dateline VC: while the remaining path in this dimension
                // still crosses the wrap edge, ride VC1; after the wrap
                // (and on wrap-free paths) ride VC0. The resulting channel
                // order (VC1 ring, wrap, VC0 ring) is total, so the
                // channel dependency graph is acyclic.
                let wraps = if positive { ai > bi } else { ai < bi };
                port_base + (if positive { 0 } else { 2 }) + wraps as usize
            }
        }
    }

    /// Populates every switch's route table with an entry per foreign
    /// node (all GPUs and all other switches).
    fn fill_routes(&mut self) {
        for here in 0..self.switches.len() {
            let mut routes = BTreeMap::new();
            for gpu in 0..self.total_gpus() {
                let gc = (gpu / self.gpus_per_cluster) as usize;
                let port = if Some(ClusterId(narrow16(gc))) == self.switches[here].cluster {
                    (gpu % self.gpus_per_cluster) as usize
                } else {
                    self.next_hop_to_edge(here, gc, GpuId(gpu))
                };
                routes.insert(NodeId(gpu), port);
            }
            for other in 0..self.switches.len() {
                if other != here {
                    routes.insert(
                        NodeId(self.total_gpus() + narrow16(other)),
                        self.next_hop_port(here, other),
                    );
                }
            }
            for (&dst, &port) in &routes {
                assert!(
                    port < self.switches[here].links.len(),
                    "switch {} routes {dst} to missing port {port}",
                    self.switches[here].node
                );
            }
            self.switches[here].routes = routes;
        }
    }

    /// Next-hop port at switch `here` for a GPU living behind edge
    /// switch `edge`. Fat-trees spread GPUs over cores by destination
    /// GPU, every other fabric routes by destination switch.
    fn next_hop_to_edge(&self, here: usize, edge: usize, gpu: GpuId) -> usize {
        if here == edge {
            return (gpu.raw() % self.gpus_per_cluster) as usize;
        }
        if let FabricConfig::FatTree { cores } = self.fabric {
            let c = self.clusters as usize;
            if here < c {
                // Up-route: D-mod-k on the destination GPU, so the core
                // choice (and thus the whole path) is a pure function of
                // the destination.
                return self.gpus_per_cluster as usize + (gpu.raw() as usize % cores as usize);
            }
        }
        self.next_hop_port(here, edge)
    }

    /// Debug validation: every fabric link's `peer_port` really is the
    /// paired port at the peer.
    fn check_symmetry(&self) {
        for s in &self.switches {
            for (i, l) in s.links.iter().enumerate() {
                if !l.is_inter {
                    continue;
                }
                let peer = &self.switches[self.switch_index(l.peer)];
                let back = &peer.links[l.peer_port as usize];
                assert_eq!(
                    back.peer, s.node,
                    "asymmetric wiring: {}:{} -> {}:{}",
                    s.node, i, l.peer, l.peer_port
                );
                assert_eq!(
                    back.peer_port as usize, i,
                    "asymmetric pairing: {}:{} -> {}:{}",
                    s.node, i, l.peer, l.peer_port
                );
                assert_eq!(back.latency, l.latency);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(clusters: u16, gpus_per_cluster: u16, fabric: FabricConfig) -> TopologyConfig {
        TopologyConfig {
            clusters,
            gpus_per_cluster,
            intra_gbps: 128.0,
            inter_gbps: 16.0,
            fabric,
        }
    }

    fn frontier() -> Topology {
        Topology::new(&cfg(2, 2, FabricConfig::Mesh))
    }

    #[test]
    fn node_numbering() {
        let t = frontier();
        assert_eq!(t.total_gpus(), 4);
        assert_eq!(t.gpu_node(GpuId(0)), NodeId(0));
        assert_eq!(t.gpu_node(GpuId(3)), NodeId(3));
        assert_eq!(t.switch_node(ClusterId(0)), NodeId(4));
        assert_eq!(t.switch_node(ClusterId(1)), NodeId(5));
    }

    #[test]
    fn switch_detection() {
        let t = frontier();
        assert!(!t.is_switch(NodeId(3)));
        assert!(t.is_switch(NodeId(4)));
        assert!(t.is_switch(NodeId(5)));
        assert!(!t.is_switch(NodeId(6)));
    }

    #[test]
    fn node_to_gpu_and_cluster() {
        let t = frontier();
        assert_eq!(t.node_gpu(NodeId(2)), Some(GpuId(2)));
        assert_eq!(t.node_gpu(NodeId(4)), None);
        assert_eq!(t.gpu_cluster(GpuId(1)), ClusterId(0));
        assert_eq!(t.gpu_cluster(GpuId(2)), ClusterId(1));
    }

    #[test]
    fn cluster_membership() {
        let t = frontier();
        let clusters: Vec<_> = t.all_gpus().map(|g| t.gpu_cluster(g).raw()).collect();
        assert_eq!(clusters, [0, 0, 1, 1]);
        assert!(t.crosses_clusters(GpuId(0), GpuId(2)));
        assert!(t.crosses_clusters(GpuId(1), GpuId(2)));
        assert!(t.crosses_clusters(GpuId(0), GpuId(3)));
        assert!(!t.crosses_clusters(GpuId(2), GpuId(3)));
    }

    #[test]
    fn bigger_topology() {
        let t = Topology::new(&cfg(4, 2, FabricConfig::Mesh));
        assert_eq!(t.total_gpus(), 8);
        assert_eq!(t.switch_node(ClusterId(3)), NodeId(11));
        assert_eq!(t.gpu_cluster(GpuId(7)), ClusterId(3));
        assert_eq!(t.all_gpus().count(), 8);
    }

    #[test]
    #[should_panic(expected = "unknown gpu")]
    fn unknown_gpu_panics() {
        frontier().gpu_node(GpuId(9));
    }

    #[test]
    fn mesh_reproduces_legacy_star() {
        let t = frontier();
        assert_eq!(t.num_switches(), 2);
        let s0 = t.switch_spec(0);
        // GPU ports first, then the single inter link.
        assert_eq!(s0.links.len(), 3);
        assert_eq!(s0.links[0].peer, NodeId(0));
        assert_eq!(s0.links[1].peer, NodeId(1));
        assert_eq!(s0.links[2].peer, NodeId(5));
        assert!(s0.links[2].is_inter && !s0.links[0].is_inter);
        assert_eq!(s0.links[2].peer_port, 2);
        assert_eq!(s0.routes[&NodeId(3)], 2);
        assert_eq!(s0.routes[&NodeId(1)], 1);
        assert_eq!(t.hops(GpuId(0), GpuId(3)), 2);
        assert_eq!(t.hops(GpuId(0), GpuId(1)), 1);
    }

    #[test]
    fn fat_tree_routes_up_and_down() {
        let t = Topology::new(&cfg(4, 2, FabricConfig::FatTree { cores: 2 }));
        assert_eq!(t.num_switches(), 6);
        assert_eq!(t.total_gpus(), 8);
        // GPU 7 lives behind edge 3; its D-mod-k core is 7 % 2 = core 1.
        let path = t.switch_path(GpuId(0), GpuId(7));
        assert_eq!(
            path,
            vec![
                t.switch_node(ClusterId(0)),
                NodeId(8 + 4 + 1),
                t.switch_node(ClusterId(3))
            ]
        );
        // Every GPU pair routes in ≤ 3 switch hops and path choice is a
        // pure function of the destination (D-mod-k): same dst, same core.
        for dst in t.all_gpus() {
            let mut cores_seen = std::collections::BTreeSet::new();
            for src in t.all_gpus() {
                if src == dst || !t.crosses_clusters(src, dst) {
                    continue;
                }
                let p = t.switch_path(src, dst);
                assert_eq!(p.len(), 3);
                cores_seen.insert(p[1]);
            }
            assert!(cores_seen.len() <= 1, "dst {dst} used cores {cores_seen:?}");
        }
        assert!((t.mean_cross_hops() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn torus_dimension_order_routing() {
        let t = Topology::new(&cfg(8, 1, FabricConfig::Torus { x: 2, y: 2, z: 2 }));
        assert_eq!(t.num_switches(), 8);
        // GPU g sits on switch g; route 0 -> 7 must correct X, then Y,
        // then Z: (0,0,0) -> (1,0,0) -> (1,1,0) -> (1,1,1).
        let path = t.switch_path(GpuId(0), GpuId(7));
        let sw = |i: u16| NodeId(8 + i);
        assert_eq!(path, vec![sw(0), sw(1), sw(3), sw(7)]);
        // 2-rings: single port per dimension, full rate, no VCs.
        let s0 = t.switch_spec(0);
        assert_eq!(s0.links.len(), 1 + 3);
        assert!(s0.links.iter().skip(1).all(|l| l.rate_scale == 1.0));
    }

    #[test]
    fn torus_dateline_vc_on_wrap_paths() {
        let t = Topology::new(&cfg(4, 1, FabricConfig::Torus { x: 4, y: 1, z: 1 }));
        // Ring of 4: ports at each switch are gpu, +vc0, +vc1, -vc0, -vc1.
        let s3 = t.switch_spec(3);
        assert_eq!(s3.links.len(), 5);
        assert!(s3.links.iter().skip(1).all(|l| l.rate_scale == 0.5));
        // 3 -> 1 goes +1 around the wrap edge (3 -> 0 -> 1): the first
        // hop still faces the wrap, so it rides VC1 (+dir port, vc 1).
        assert_eq!(s3.routes[&NodeId(1)], 2);
        // After the wrap at switch 0 the path is wrap-free: VC0.
        let s0 = t.switch_spec(0);
        assert_eq!(s0.routes[&NodeId(1)], 1);
        // 0 -> 1 never wraps: VC0 all the way.
        assert_eq!(
            t.switch_path(GpuId(0), GpuId(1)),
            vec![NodeId(4), NodeId(5)]
        );
        // Ties (distance exactly n/2) break positive: 0 -> 2 via +1.
        assert_eq!(
            t.switch_path(GpuId(0), GpuId(2)),
            vec![NodeId(4), NodeId(5), NodeId(6)]
        );
        // Minimal direction otherwise: 0 -> 3 is one -1 hop across the
        // wrap edge, so it rides VC1 (-dir port, vc 1).
        assert_eq!(s0.routes[&NodeId(3)], 4);
        assert_eq!(t.hops(GpuId(0), GpuId(3)), 2);
    }

    #[test]
    fn torus_channel_order_is_acyclic() {
        // Enumerate every channel dependency (consecutive fabric hops of
        // every route) on a 4x4x1 torus and check the dateline ordering
        // admits a topological rank — i.e. routing cannot deadlock.
        let t = Topology::new(&cfg(16, 1, FabricConfig::Torus { x: 4, y: 4, z: 1 }));
        // The dateline order (VC1 ring, wrap edge, VC0 ring, per
        // dimension+direction) is total, so it suffices to check each
        // path's channel sequence is monotone in it: dimensions only
        // increase, direction never flips within a dimension, and VC
        // never upgrades 0 -> 1 (the dateline is crossed at most once).
        for src in t.all_gpus() {
            for dst in t.all_gpus() {
                if src == dst || !t.crosses_clusters(src, dst) {
                    continue;
                }
                let path = t.switch_path(src, dst);
                let dst_node = t.gpu_node(dst);
                let mut last: Option<(usize, usize, usize)> = None; // dim, dir, vc
                for here in &path {
                    let spec = t.switch_spec(t.switch_index(*here));
                    let port = spec.routes[&dst_node];
                    if !spec.links[port].is_inter {
                        break;
                    }
                    let fabric_port = port - 1;
                    let key = (fabric_port / 4, (fabric_port % 4) / 2, fabric_port % 2);
                    if let Some(prev) = last {
                        // Within a dimension+direction, VC never goes
                        // 0 -> 1 (dateline is crossed at most once).
                        if prev.0 == key.0 {
                            assert_eq!(prev.1, key.1, "direction flip {src}->{dst}");
                            assert!(
                                !(prev.2 == 0 && key.2 == 1),
                                "VC0 -> VC1 upgrade on {src}->{dst}"
                            );
                        } else {
                            assert!(prev.0 < key.0, "dimension order violated");
                        }
                    }
                    last = Some(key);
                }
            }
        }
    }

    #[test]
    fn every_switch_routes_every_foreign_node() {
        for t in [
            Topology::new(&cfg(2, 2, FabricConfig::Mesh)),
            Topology::new(&cfg(4, 2, FabricConfig::FatTree { cores: 2 })),
            Topology::new(&cfg(8, 2, FabricConfig::FatTree { cores: 4 })),
            Topology::new(&cfg(8, 1, FabricConfig::Torus { x: 2, y: 2, z: 2 })),
            Topology::new(&cfg(12, 1, FabricConfig::Torus { x: 3, y: 2, z: 2 })),
        ] {
            let nodes = t.total_gpus() + t.num_switches();
            for s in t.switch_specs() {
                // Cores route to every GPU and switch; so do edges.
                let expected = nodes as usize - 1;
                assert_eq!(s.routes.len(), expected, "at {}", s.node);
            }
            // And every GPU pair actually terminates.
            for a in t.all_gpus() {
                for b in t.all_gpus() {
                    if a != b {
                        assert!(t.hops(a, b) >= 1);
                    }
                }
            }
        }
    }

    /// GPU wires take [`WIRE_LATENCY`] and fabric links their fabric's
    /// latency, so one fabric's links may differ in latency.
    #[test]
    fn per_pair_latencies_are_heterogeneous() {
        let fat_tree = Topology::new(&cfg(4, 2, FabricConfig::FatTree { cores: 2 }));
        assert_eq!(fat_tree.fabric().link_cycles(), 4);
        for t in [fat_tree, frontier()] {
            let fabric = Cycle::from(t.fabric().link_cycles());
            for link in t.switch_specs().flat_map(|s| &s.links) {
                let want = if link.is_inter { fabric } else { WIRE_LATENCY };
                assert_eq!(link.latency, want, "{link:?}");
            }
        }
    }
}
