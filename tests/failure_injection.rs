//! Failure injection: the simulator's protocol assertions must catch
//! violated invariants loudly instead of silently corrupting results.

use netcrafter::net::{EgressQueue, FifoQueue, Switch, SwitchPortSpec};
use netcrafter::proto::{Chunk, Flit, Message, NodeId, PacketId, PacketKind, TrafficClass};
use netcrafter::sim::{Component, ComponentId, Ctx, EngineBuilder};
use std::collections::BTreeMap;

fn flit(dst: u16) -> Flit {
    Flit::single(
        16,
        Chunk {
            packet: PacketId(1),
            kind: PacketKind::ReadReq,
            bytes: 12,
            meta_bytes: 0,
            has_header: true,
            is_tail: true,
            seq: 0,
            dst: NodeId(dst),
            class: TrafficClass::Data,
            packet_info: None,
        },
    )
}

struct Blaster {
    switch: ComponentId,
    count: u32,
    dst: u16,
}
impl Component for Blaster {
    fn tick(&mut self, ctx: &mut Ctx<'_>) {
        for _ in 0..self.count {
            ctx.send(
                self.switch,
                Message::Flit {
                    flit: flit(self.dst),
                    from: NodeId(0),
                    link: 0,
                },
                1,
            );
        }
        self.count = 0;
        while ctx.recv().is_some() {}
    }
    fn busy(&self) -> bool {
        self.count > 0
    }
    fn name(&self) -> &str {
        "blaster"
    }
}

fn switch_with_buffer(peer: ComponentId, buffer: u32) -> Switch {
    Switch::new(
        NodeId(2),
        "sw",
        30,
        vec![SwitchPortSpec {
            peer,
            peer_node: NodeId(0),
            peer_port: 0,
            flits_per_cycle: 8.0,
            buffer,
            queue: Box::new(FifoQueue::new()),
            wire_latency: 1,
            is_inter: false,
        }],
        BTreeMap::from([(NodeId(0), 0)]),
    )
}

/// A sender that ignores the credit protocol and floods a tiny input
/// buffer must trip the switch's overflow assertion — the failure is
/// detected, not absorbed.
#[test]
#[should_panic(expected = "credit protocol violated")]
fn credit_violation_is_detected() {
    let mut b = EngineBuilder::new();
    let blaster = b.reserve();
    let sw = b.reserve();
    b.install(
        blaster,
        Box::new(Blaster {
            switch: sw,
            count: 8,
            dst: 0,
        }),
    );
    b.install(sw, Box::new(switch_with_buffer(blaster, 2)));
    let mut e = b.build();
    for _ in 0..40 {
        e.step();
    }
}

/// A flit addressed to a node no route covers must panic with the
/// offending destination, not vanish.
#[test]
#[should_panic(expected = "no route")]
fn unroutable_flit_is_detected() {
    let mut b = EngineBuilder::new();
    let blaster = b.reserve();
    let sw = b.reserve();
    b.install(
        blaster,
        Box::new(Blaster {
            switch: sw,
            count: 1,
            dst: 77,
        }),
    );
    b.install(sw, Box::new(switch_with_buffer(blaster, 1024)));
    let mut e = b.build();
    for _ in 0..40 {
        e.step();
    }
}

/// Oversized stitch attempts are rejected by construction.
#[test]
fn oversized_stitch_rejected() {
    let parent = flit(3); // 12 used, 4 empty
    let candidate = flit(3); // needs 12
    assert_eq!(parent.stitch_cost(&candidate), None);
}

/// The cluster queue never emits a flit larger than its capacity, even
/// under adversarial push/pop interleavings (complements the proptest).
#[test]
fn cluster_queue_never_overflows_capacity() {
    use netcrafter::core::ClusterQueue;
    use netcrafter::proto::NetCrafterConfig;
    let mut q = ClusterQueue::new(NetCrafterConfig::full(), NodeId(9));
    for i in 0..50u64 {
        let mut c = Chunk {
            packet: PacketId(i),
            kind: if i % 2 == 0 {
                PacketKind::WriteRsp
            } else {
                PacketKind::ReadRsp
            },
            bytes: 4,
            meta_bytes: 0,
            has_header: i % 2 == 0,
            is_tail: true,
            seq: if i % 2 == 0 { 0 } else { 4 },
            dst: NodeId(3),
            class: TrafficClass::Data,
            packet_info: None,
        };
        c.seq = if c.has_header { 0 } else { 4 };
        q.push(Flit::single(16, c), i);
    }
    let mut now = 50;
    while q.len() > 0 {
        now += 1;
        if let Some(f) = q.pop(now) {
            assert!(f.used_bytes() <= f.capacity);
        }
        assert!(now < 10_000, "must drain");
    }
}
