//! The Shared State Table (Figure 2 of the paper).

use crate::codec::FixedCodec;
use rdma_sim::{Endpoint, PostError, RdmaPkt, RegionId};
use simnet::{Counter, Ctx, MsgKind, NodeId};
use std::marker::PhantomData;

/// A replicated array of `n` cells of type `T`, one per node.
///
/// Every node holds a full local copy in registered memory. Node `i` has
/// *logical* write access only to slot `i`; it updates the slot locally with
/// [`Sst::write_mine`] and replicates it with [`Sst::push_mine_to`] /
/// [`Sst::push_mine`], which issue one-sided RDMA writes into the same slot
/// of the peers' copies. Traversing the local copy with [`Sst::read`] gives a
/// per-slot "last write wins" snapshot — exactly the semantics the paper
/// wants for monotone values like the latest accepted message header.
///
/// All nodes must construct their SSTs in the same order so the backing
/// region ids line up (the region-plan convention).
pub struct Sst<T: FixedCodec> {
    region: RegionId,
    n: usize,
    me: usize,
    _cell: PhantomData<T>,
}

impl<T: FixedCodec> Sst<T> {
    /// Register the backing region on `ep` and return the table handle.
    pub fn register(ep: &mut Endpoint, n: usize, me: usize) -> Self {
        assert!(me < n, "own index out of range");
        let region = ep.register_region(n * T::SIZE);
        Sst {
            region,
            n,
            me,
            _cell: PhantomData,
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always false: an SST has one slot per node.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// This node's slot index.
    pub fn me(&self) -> usize {
        self.me
    }

    /// The backing region id (for tests and layout assertions).
    pub fn region(&self) -> RegionId {
        self.region
    }

    /// The slot a remote write to `(region, offset)` lands in, if the
    /// region is this table's.
    pub fn slot_at(&self, region: RegionId, offset: u32) -> Option<usize> {
        (region == self.region).then_some(offset as usize / T::SIZE)
    }

    /// Read slot `j` from the local copy.
    pub fn read(&self, ep: &Endpoint, j: usize) -> T {
        assert!(j < self.n, "slot out of range");
        T::decode(&ep.peek(self.region, (j * T::SIZE) as u32, T::SIZE))
    }

    /// Whether a peer's push landed in the local copy since the last call
    /// ([`Endpoint::take_dirty`]): until one does, every slot but this
    /// node's own reads as it did. One caller per table.
    pub fn take_dirty(&self, ep: &mut Endpoint) -> bool {
        ep.take_dirty(self.region)
    }

    /// Read this node's own slot.
    pub fn mine(&self, ep: &Endpoint) -> T {
        self.read(ep, self.me)
    }

    /// Snapshot all slots (the `votes_cpy = Vote_SST` of Figure 7).
    pub fn snapshot(&self, ep: &Endpoint) -> Vec<T> {
        (0..self.n).map(|j| self.read(ep, j)).collect()
    }

    /// Update this node's own slot in the local copy only.
    pub fn write_mine(&self, ep: &mut Endpoint, v: &T) {
        let mut buf = vec![0u8; T::SIZE];
        v.encode(&mut buf);
        ep.write_local(self.region, (self.me * T::SIZE) as u32, &buf);
    }

    /// Zero slot `j` in the local copy: forget the mirrored state of a peer
    /// that rebooted (its fresh incarnation starts from all-zero cells and
    /// will re-push real values).
    pub fn reset_slot(&self, ep: &mut Endpoint, j: usize) {
        assert!(j < self.n, "slot out of range");
        let zeros = vec![0u8; T::SIZE];
        ep.write_local(self.region, (j * T::SIZE) as u32, &zeros);
    }

    /// Replicate this node's slot to `peer` with one RDMA write.
    pub fn push_mine_to<M: From<RdmaPkt>>(
        &self,
        ctx: &mut Ctx<M>,
        ep: &mut Endpoint,
        peer: NodeId,
    ) -> Result<(), PostError> {
        let off = (self.me * T::SIZE) as u32;
        let data = bytes::Bytes::copy_from_slice(&ep.peek(self.region, off, T::SIZE));
        ctx.count(Counter::SstPushes, 1);
        // SST rows carry acknowledgment/visibility state, never payload.
        ep.post_write(ctx, peer, self.region, off, data, MsgKind::Ack)
    }

    /// Replicate this node's slot to every node in `peers` except itself.
    ///
    /// Returns the first post error, if any (callers treat SST pushes as
    /// best-effort: the next push carries strictly newer state anyway).
    pub fn push_mine<M: From<RdmaPkt>>(
        &self,
        ctx: &mut Ctx<M>,
        ep: &mut Endpoint,
        peers: &[NodeId],
    ) -> Result<(), PostError> {
        let mut first_err = Ok(());
        for &p in peers {
            if p == self.me {
                continue;
            }
            if let Err(e) = self.push_mine_to(ctx, ep, p) {
                if first_err.is_ok() {
                    first_err = Err(e);
                }
            }
        }
        first_err
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdma_sim::QpConfig;
    use simnet::{NetParams, Process, Sim, SimTime};
    use std::time::Duration;

    type Cell = (u32, u64);

    struct SstNode {
        ep: Endpoint,
        sst: Sst<Cell>,
        peers: Vec<NodeId>,
        value: Cell,
        push_at_start: bool,
    }

    #[derive(Clone, Debug)]
    struct Wire(RdmaPkt);
    impl From<RdmaPkt> for Wire {
        fn from(p: RdmaPkt) -> Self {
            Wire(p)
        }
    }

    impl Process<Wire> for SstNode {
        fn on_start(&mut self, ctx: &mut Ctx<Wire>) {
            if self.push_at_start {
                self.sst.write_mine(&mut self.ep, &self.value);
                let peers = self.peers.clone();
                self.sst.push_mine(ctx, &mut self.ep, &peers).unwrap();
            }
        }
        fn on_message(&mut self, ctx: &mut Ctx<Wire>, from: NodeId, msg: Wire) {
            self.ep.on_packet(ctx, from, msg.0);
        }
    }

    fn cluster(n: usize) -> (Sim<Wire>, Vec<NodeId>) {
        let mut sim = Sim::new(5, NetParams::rdma());
        let ids: Vec<NodeId> = (0..n).collect();
        for me in 0..n {
            let mut ep = Endpoint::new(QpConfig::default());
            for &p in &ids {
                ep.connect(p);
            }
            let sst = Sst::<Cell>::register(&mut ep, n, me);
            sim.add_node(Box::new(SstNode {
                ep,
                sst,
                peers: ids.clone(),
                value: (me as u32 + 1, (me as u64 + 1) * 100),
                push_at_start: true,
            }));
        }
        (sim, ids)
    }

    #[test]
    fn pushes_replicate_to_all_peers() {
        let (mut sim, ids) = cluster(3);
        sim.run_until(SimTime::from_millis(1));
        for &reader in &ids {
            let node = sim.node::<SstNode>(reader);
            for j in 0..3 {
                assert_eq!(
                    node.sst.read(&node.ep, j),
                    (j as u32 + 1, (j as u64 + 1) * 100),
                    "reader {reader} slot {j}"
                );
            }
        }
    }

    #[test]
    fn snapshot_matches_individual_reads() {
        let (mut sim, _) = cluster(4);
        sim.run_until(SimTime::from_millis(1));
        let node = sim.node::<SstNode>(0);
        let snap = node.sst.snapshot(&node.ep);
        assert_eq!(snap.len(), 4);
        for (j, v) in snap.iter().enumerate() {
            assert_eq!(*v, node.sst.read(&node.ep, j));
        }
    }

    #[test]
    fn last_write_wins_remotely() {
        // Node 0's slot is overwritten by successive remote writes; node 1
        // always converges to the latest value.
        let (mut sim, _) = cluster(2);
        sim.run_until(SimTime::from_millis(1));
        for v in [(5u32, 50u64), (9, 90), (3, 30)] {
            let node = sim.node_mut::<SstNode>(0);
            node.sst.write_mine(&mut node.ep, &v);
            let (region, data) = (
                node.sst.region(),
                bytes::Bytes::copy_from_slice(node.ep.read(node.sst.region(), 0, Cell::SIZE)),
            );
            // Mirror slot 0 to node 1 through the engine.
            sim.inject(
                0,
                1,
                simnet::DeliveryClass::Dma,
                Duration::from_micros(1),
                Wire(RdmaPkt::Write {
                    region,
                    offset: 0,
                    data,
                    signal: None,
                }),
            );
            sim.run_for(Duration::from_micros(10));
        }
        let node = sim.node::<SstNode>(1);
        assert_eq!(node.sst.read(&node.ep, 0), (3, 30));
    }

    #[test]
    fn mine_reads_own_slot() {
        let mut ep = Endpoint::new(QpConfig::default());
        let sst = Sst::<u64>::register(&mut ep, 5, 2);
        sst.write_mine(&mut ep, &777);
        assert_eq!(sst.mine(&ep), 777);
        assert_eq!(sst.read(&ep, 0), 0);
        assert_eq!(sst.len(), 5);
        assert_eq!(sst.me(), 2);
    }

    #[test]
    fn region_layout_is_n_times_cell() {
        let mut ep = Endpoint::new(QpConfig::default());
        let sst = Sst::<Cell>::register(&mut ep, 7, 0);
        assert_eq!(ep.region_len(sst.region()), 7 * Cell::SIZE);
    }

    #[test]
    #[should_panic]
    fn out_of_range_slot_panics() {
        let mut ep = Endpoint::new(QpConfig::default());
        let sst = Sst::<u32>::register(&mut ep, 3, 0);
        let _ = sst.read(&ep, 3);
    }

    #[test]
    fn push_survives_peer_crash() {
        let (mut sim, _) = cluster(3);
        sim.crash(2);
        sim.run_until(SimTime::from_millis(1));
        // Nodes 0 and 1 still see each other's slots.
        let node = sim.node::<SstNode>(0);
        assert_eq!(node.sst.read(&node.ep, 1), (2, 200));
    }

    #[test]
    fn sst_write_lands_during_pause() {
        let (mut sim, _) = cluster(2);
        sim.pause_at(1, SimTime::ZERO, Duration::from_millis(5));
        sim.run_until(SimTime::from_millis(1));
        // Node 1's process is descheduled but the SST value is in memory.
        let node = sim.node::<SstNode>(1);
        assert_eq!(node.sst.read(&node.ep, 0), (1, 100));
    }
}
