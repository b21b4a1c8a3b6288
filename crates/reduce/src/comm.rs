//! The redesigned collectives API: one [`Communicator`] handle per rank.
//!
//! A `Communicator<F: Fabric>` wraps one rank's [`Fabric`] endpoint and
//! provides every executable collective as a method — `allreduce` (double
//! binary tree or ring), `reduce_to_root`, `broadcast`, `hfreduce`, and
//! `all2all` — plus the plumbing they share: tag matching with an
//! out-of-order stash, element serialization, peer-death bookkeeping, and
//! the per-rank logical-clock observability discipline (a staged
//! [`TrackBuf`] whose clock counts *elements moved*). The world-level
//! drivers in [`exec`](crate::exec) spawn one thread per rank, hand each
//! a `Communicator`, and commit the staged observability buffers only for
//! clean executions.
//!
//! Elements travel the wire at native width as their own little-endian
//! bits ([`Element::wire_bits`]): f32 in 4 bytes, f16/bf16 in 2, f8e4m3 in
//! 1, so a frame carries exactly `len × DType::size_bytes()` bytes and
//! every bit pattern (NaN payloads included) arrives unchanged. Each
//! communicator encodes into one reusable send buffer. A received frame
//! is decoded straight into the caller's slice, or reduced into it with
//! the exact [`reduce_add_into`] arithmetic; the collectives all work in
//! place on the caller's `data`. Arbitrary payloads (the MoE all2all
//! routes structured tokens) implement [`Wire`] instead.

use crate::fabric::{
    CommError, Fabric, RecvAnyError, Tag, DEFAULT_RECV_TIMEOUT, PHASE_A2A, PHASE_DOWN, PHASE_RING,
    PHASE_UP,
};
use crate::kernels::{chunk_ranges, reduce_add_into, reduce_n_into};
use ff_dtypes::Element;
use ff_obs::TrackBuf;
use ff_topo::dbtree::DoubleBinaryTree;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::time::Duration;

/// Reduction operator for [`Communicator::allreduce`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum Op {
    /// Elementwise sum — the gradient-accumulation operator HFReduce
    /// serves (§IV).
    Sum,
}

/// Which allreduce algorithm runs under [`Communicator::allreduce`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// Chunked double-binary-tree allreduce (Algorithm 2): tree A carries
    /// the lower half of each chunk, tree B the upper half.
    DbTree {
        /// Number of pipeline chunks (clamped to `1..=len`).
        chunks: usize,
    },
    /// Ring allreduce (reduce-scatter + allgather) — the NCCL-style
    /// baseline. Needs at least one element per rank.
    Ring,
}

// ---------------------------------------------------------------------------
// Wire serialization for arbitrary all2all payloads
// ---------------------------------------------------------------------------

/// Read cursor over a received frame, consumed by [`Wire::wire_read`].
pub struct WireCursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireCursor<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> WireCursor<'a> {
        WireCursor { buf, pos: 0 }
    }

    /// Take the next `n` bytes, or `None` past the end.
    pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.buf.len() {
            return None;
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Some(s)
    }

    /// True once every byte has been consumed.
    pub fn is_done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

/// Self-describing byte serialization for all2all payloads — the typed
/// messages (routed MoE tokens, index pairs) that must cross a byte
/// transport. Collective element buffers do *not* go through `Wire`; they
/// travel as raw native-width element bits.
pub trait Wire: Sized {
    /// Append this value's encoding to `out`.
    fn wire_write(&self, out: &mut Vec<u8>);
    /// Decode one value, or `None` on malformed bytes.
    fn wire_read(cur: &mut WireCursor<'_>) -> Option<Self>;
}

macro_rules! wire_le_bytes {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn wire_write(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn wire_read(cur: &mut WireCursor<'_>) -> Option<Self> {
                let b = cur.take(std::mem::size_of::<$t>())?;
                Some(<$t>::from_le_bytes(b.try_into().ok()?))
            }
        }
    )*};
}

wire_le_bytes!(u8, u16, u32, u64, i8, i16, i32, i64, f32, f64);

impl Wire for usize {
    fn wire_write(&self, out: &mut Vec<u8>) {
        (*self as u64).wire_write(out);
    }
    fn wire_read(cur: &mut WireCursor<'_>) -> Option<Self> {
        usize::try_from(u64::wire_read(cur)?).ok()
    }
}

impl Wire for bool {
    fn wire_write(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
    fn wire_read(cur: &mut WireCursor<'_>) -> Option<Self> {
        match cur.take(1)? {
            [0] => Some(false),
            [1] => Some(true),
            _ => None,
        }
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn wire_write(&self, out: &mut Vec<u8>) {
        self.0.wire_write(out);
        self.1.wire_write(out);
    }
    fn wire_read(cur: &mut WireCursor<'_>) -> Option<Self> {
        Some((A::wire_read(cur)?, B::wire_read(cur)?))
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn wire_write(&self, out: &mut Vec<u8>) {
        self.0.wire_write(out);
        self.1.wire_write(out);
        self.2.wire_write(out);
    }
    fn wire_read(cur: &mut WireCursor<'_>) -> Option<Self> {
        Some((A::wire_read(cur)?, B::wire_read(cur)?, C::wire_read(cur)?))
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn wire_write(&self, out: &mut Vec<u8>) {
        (self.len() as u32).wire_write(out);
        for x in self {
            x.wire_write(out);
        }
    }
    fn wire_read(cur: &mut WireCursor<'_>) -> Option<Self> {
        let n = u32::wire_read(cur)? as usize;
        let mut v = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            v.push(T::wire_read(cur)?);
        }
        Some(v)
    }
}

impl Wire for String {
    fn wire_write(&self, out: &mut Vec<u8>) {
        (self.len() as u32).wire_write(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn wire_read(cur: &mut WireCursor<'_>) -> Option<Self> {
        let n = u32::wire_read(cur)? as usize;
        String::from_utf8(cur.take(n)?.to_vec()).ok()
    }
}

// ---------------------------------------------------------------------------
// Elements on the wire
// ---------------------------------------------------------------------------

/// Elements decoded per stack block when reducing a frame on receive.
const RECV_BLOCK: usize = 256;

/// Encode `data` into `out` (replacing its contents) as native-width
/// little-endian element bits.
fn encode_elems<E: Element>(data: &[E], out: &mut Vec<u8>) {
    let w = E::DTYPE.size_bytes();
    out.clear();
    out.resize(data.len() * w, 0);
    for (b, x) in out.chunks_exact_mut(w).zip(data) {
        b.copy_from_slice(&x.wire_bits().to_le_bytes()[..w]);
    }
}

/// Overwrite `dst` with the elements of `bytes`, whose length the caller
/// has checked is `dst.len() × size_bytes()`.
fn decode_elems_into<E: Element>(dst: &mut [E], bytes: &[u8]) {
    let w = E::DTYPE.size_bytes();
    for (d, b) in dst.iter_mut().zip(bytes.chunks_exact(w)) {
        let mut le = [0u8; 4];
        le[..w].copy_from_slice(b);
        *d = E::from_wire_bits(u32::from_le_bytes(le));
    }
}

/// `dst += bytes` elementwise with exactly [`reduce_add_into`]'s
/// arithmetic: the frame is decoded a stack block at a time and added in.
fn reduce_elems_into<E: Element>(dst: &mut [E], bytes: &[u8]) {
    let w = E::DTYPE.size_bytes();
    let mut block = [E::ZERO; RECV_BLOCK];
    for (d, b) in dst.chunks_mut(RECV_BLOCK).zip(bytes.chunks(RECV_BLOCK * w)) {
        let block = &mut block[..d.len()];
        decode_elems_into(block, b);
        reduce_add_into(d, block);
    }
}

/// How a received element frame lands in the caller's slice.
#[derive(Clone, Copy)]
enum Land {
    /// Overwrite the slice (broadcast-down and allgather legs).
    Copy,
    /// Add into the slice (reduce-up and reduce-scatter legs).
    Add,
}

fn phase_char(phase: u8) -> char {
    match phase {
        PHASE_UP => 'u',
        PHASE_DOWN => 'd',
        PHASE_A2A => 'a',
        _ => 'g', // ring
    }
}

// ---------------------------------------------------------------------------
// The Communicator
// ---------------------------------------------------------------------------

/// One rank's handle onto the collectives: the headline API every call
/// site uses (`comm.allreduce(..)`, `comm.hfreduce(..)`,
/// `comm.all2all(..)`). Generic over the transport; the algorithms above
/// it are transport-invariant by construction, which the trace-digest
/// harness verifies bit-for-bit across backends.
pub struct Communicator<F: Fabric> {
    fab: F,
    /// Out-of-order arrivals, keyed by `(sender, tag)`.
    stash: HashMap<(usize, Tag), Vec<u8>>,
    /// Element frames are encoded here, reused across every send.
    send_buf: Vec<u8>,
    /// Peers that delivered a hangup control frame.
    dead: Vec<bool>,
    recv_timeout: Duration,
    /// Staged observability events; the world driver commits them only
    /// for clean executions (see [`ObsCtx`](crate::exec::ObsCtx)).
    obs: Option<TrackBuf>,
}

impl<F: Fabric> Communicator<F> {
    /// Wrap a fabric endpoint with the default receive timeout.
    pub fn new(fab: F) -> Communicator<F> {
        Self::with_timeout(fab, DEFAULT_RECV_TIMEOUT)
    }

    /// Wrap a fabric endpoint with a custom receive timeout — the
    /// liveness-detection latency for all collectives run through it.
    pub fn with_timeout(fab: F, recv_timeout: Duration) -> Communicator<F> {
        let n = fab.world_size();
        Communicator {
            fab,
            stash: HashMap::new(),
            send_buf: Vec::new(),
            dead: vec![false; n],
            recv_timeout,
            obs: None,
        }
    }

    /// This rank.
    pub fn rank(&self) -> usize {
        self.fab.rank()
    }

    /// Ranks in the world.
    pub fn world_size(&self) -> usize {
        self.fab.world_size()
    }

    /// The underlying fabric endpoint (e.g. to ask a
    /// [`FaultyFabric`](crate::fabric::FaultyFabric) whether its injected
    /// death fired).
    pub fn fabric(&self) -> &F {
        &self.fab
    }

    /// Attach a staged observability buffer; send/recv events accumulate
    /// there until the world driver commits or discards them.
    pub fn set_obs(&mut self, buf: TrackBuf) {
        self.obs = Some(buf);
    }

    /// Detach the staged observability buffer, if any.
    pub fn take_obs(&mut self) -> Option<TrackBuf> {
        self.obs.take()
    }

    /// Record a non-communication span (e.g. HFReduce's intra-node
    /// reduce) onto the staged observability buffer.
    pub fn note(&mut self, name: &str, ticks: u64, value: f64) {
        if let Some(buf) = &mut self.obs {
            buf.op(name, ticks, value);
        }
    }

    /// Send `data` to `to` under the collective leg `(tree, chunk, phase)`.
    fn send_elems<E: Element>(
        &mut self,
        to: usize,
        tree: u8,
        chunk: u32,
        phase: u8,
        data: &[E],
    ) -> Result<(), CommError> {
        if let Some(buf) = &mut self.obs {
            let len = data.len() as u64;
            let name = format!("send:{}:t{tree}:c{chunk}->r{to}", phase_char(phase));
            buf.op(&name, len, len as f64);
        }
        let tag = Tag { phase, tree, chunk };
        encode_elems(data, &mut self.send_buf);
        self.fab.send(to, tag, &self.send_buf)
    }

    /// Receive the element frame `from` sent under `(tree, chunk, phase)`
    /// straight into `dst`, stashing any other traffic that arrives first.
    /// A frame whose length does not match `dst` is a
    /// [`CommError::Protocol`] and leaves `dst` untouched.
    fn recv_elems<E: Element>(
        &mut self,
        from: usize,
        tree: u8,
        chunk: u32,
        phase: u8,
        dst: &mut [E],
        land: Land,
    ) -> Result<(), CommError> {
        let tag = Tag { phase, tree, chunk };
        let bytes = self.recv_raw(from, tag)?;
        if bytes.len() != dst.len() * E::DTYPE.size_bytes() {
            return Err(CommError::Protocol { peer: from });
        }
        match land {
            Land::Copy => decode_elems_into(dst, &bytes),
            Land::Add => reduce_elems_into(dst, &bytes),
        }
        if let Some(buf) = &mut self.obs {
            let len = dst.len() as u64;
            let name = format!("recv:{}:t{tree}:c{chunk}<-r{from}", phase_char(phase));
            buf.op(&name, len, len as f64);
        }
        Ok(())
    }

    /// Tag-matched receive over the raw fabric. The stash is consulted
    /// before the dead-peer flag: a message sent before a hangup must
    /// still be deliverable after it (per-pair FIFO guarantees data
    /// frames precede the hangup frame). A second frame under a
    /// `(sender, tag)` already stashed is a [`CommError::Protocol`] naming
    /// that sender.
    fn recv_raw(&mut self, from: usize, tag: Tag) -> Result<Vec<u8>, CommError> {
        if let Some(b) = self.stash.remove(&(from, tag)) {
            return Ok(b);
        }
        if self.dead[from] {
            return Err(CommError::Disconnected { peer: from });
        }
        loop {
            let msg = match self.fab.recv_any(self.recv_timeout) {
                Ok(m) => m,
                Err(RecvAnyError::Timeout) => {
                    return Err(CommError::Timeout {
                        peer: from,
                        deadline: self.recv_timeout,
                    })
                }
                Err(RecvAnyError::Closed) => return Err(CommError::Disconnected { peer: from }),
            };
            if msg.tag.is_ctrl() {
                self.dead[msg.from] = true;
                if msg.from == from {
                    return Err(CommError::Disconnected { peer: from });
                }
                continue;
            }
            if msg.from == from && msg.tag == tag {
                return Ok(msg.bytes);
            }
            match self.stash.entry((msg.from, msg.tag)) {
                Entry::Occupied(_) => return Err(CommError::Protocol { peer: msg.from }),
                Entry::Vacant(slot) => {
                    slot.insert(msg.bytes);
                }
            }
        }
    }

    // -- collectives ------------------------------------------------------

    /// Allreduce `data` in place across the world: every rank ends up
    /// holding the elementwise sum. On error `data` may hold a partial
    /// sum; retry from a saved copy of the input.
    pub fn allreduce<E: Element>(
        &mut self,
        data: &mut [E],
        _op: Op,
        algo: Algo,
    ) -> Result<(), CommError> {
        let n = self.world_size();
        if n == 1 {
            return Ok(());
        }
        match algo {
            Algo::DbTree { chunks } => {
                let dt = DoubleBinaryTree::new(n);
                let chunks = chunks.clamp(1, data.len().max(1));
                self.dbtree_allreduce_rank(&dt, data, chunks)
            }
            Algo::Ring => {
                assert!(data.len() >= n, "ring needs at least one element per rank");
                self.ring_allreduce_rank(data)
            }
        }
    }

    /// This rank's side of the chunked double-binary-tree allreduce:
    /// reduces `data` in place to the global sum. Tree A carries the
    /// lower half of each chunk, tree B the upper half.
    fn dbtree_allreduce_rank<E: Element>(
        &mut self,
        dt: &DoubleBinaryTree,
        data: &mut [E],
        chunks: usize,
    ) -> Result<(), CommError> {
        let rank = self.rank();
        let ranges = chunk_ranges(data.len(), chunks);
        for (c, range) in ranges.iter().enumerate() {
            let mid = range.start + range.len() / 2;
            let halves = [range.start..mid, mid..range.end];
            for (ti, tree) in [&dt.a, &dt.b].into_iter().enumerate() {
                let seg = &mut data[halves[ti].clone()];
                let (t, c) = (ti as u8, c as u32);
                for &child in &tree.children[rank] {
                    self.recv_elems(child, t, c, PHASE_UP, seg, Land::Add)?;
                }
                if let Some(parent) = tree.parent[rank] {
                    self.send_elems(parent, t, c, PHASE_UP, seg)?;
                    self.recv_elems(parent, t, c, PHASE_DOWN, seg, Land::Copy)?;
                }
                for &child in &tree.children[rank] {
                    self.send_elems(child, t, c, PHASE_DOWN, seg)?;
                }
            }
        }
        Ok(())
    }

    /// This rank's ring allreduce (reduce-scatter + allgather).
    fn ring_allreduce_rank<E: Element>(&mut self, data: &mut [E]) -> Result<(), CommError> {
        let n = self.world_size();
        let rank = self.rank();
        let ranges = chunk_ranges(data.len(), n);
        let next = (rank + 1) % n;
        let prev = (rank + n - 1) % n;
        let mut step = 0u32;
        // Reduce-scatter: after n-1 steps rank r owns the sum of chunk
        // (r+1)%n.
        for s in 0..n - 1 {
            let send_chunk = (rank + n - s) % n;
            let recv_chunk = (rank + n - s - 1) % n;
            self.send_elems(next, 0, step, PHASE_RING, &data[ranges[send_chunk].clone()])?;
            let into = &mut data[ranges[recv_chunk].clone()];
            self.recv_elems(prev, 0, step, PHASE_RING, into, Land::Add)?;
            step += 1;
        }
        // Allgather: circulate the finished chunks.
        for s in 0..n - 1 {
            let send_chunk = (rank + 1 + n - s) % n;
            let recv_chunk = (rank + n - s) % n;
            self.send_elems(next, 0, step, PHASE_RING, &data[ranges[send_chunk].clone()])?;
            let into = &mut data[ranges[recv_chunk].clone()];
            self.recv_elems(prev, 0, step, PHASE_RING, into, Land::Copy)?;
            step += 1;
        }
        Ok(())
    }

    /// This rank's side of a single-tree (tree A) reduce with no
    /// broadcast-down pass — the "general reduce" operation HFReduce also
    /// serves (§IV). Returns `Some(sum)` on the tree root, `None`
    /// elsewhere.
    pub fn reduce_to_root<E: Element>(
        &mut self,
        mut data: Vec<E>,
        chunks: usize,
    ) -> Result<Option<Vec<E>>, CommError> {
        let n = self.world_size();
        if n == 1 {
            return Ok(Some(data));
        }
        let dt = DoubleBinaryTree::new(n);
        let tree = &dt.a;
        let rank = self.rank();
        let chunks = chunks.clamp(1, data.len().max(1));
        let ranges = chunk_ranges(data.len(), chunks);
        for (c, range) in ranges.into_iter().enumerate() {
            let acc = &mut data[range];
            for &child in &tree.children[rank] {
                self.recv_elems(child, 0, c as u32, PHASE_UP, acc, Land::Add)?;
            }
            if let Some(parent) = tree.parent[rank] {
                self.send_elems(parent, 0, c as u32, PHASE_UP, acc)?;
            }
        }
        Ok(if tree.parent[rank].is_none() {
            Some(data)
        } else {
            None
        })
    }

    /// This rank's side of a tree-A broadcast from the root: the root's
    /// `buf` holds the payload, every other rank's `buf` is overwritten
    /// with it chunk by chunk.
    pub fn broadcast<E: Element>(&mut self, buf: &mut [E], chunks: usize) -> Result<(), CommError> {
        let n = self.world_size();
        if n == 1 {
            return Ok(());
        }
        let dt = DoubleBinaryTree::new(n);
        let rank = self.rank();
        let chunks = chunks.clamp(1, buf.len().max(1));
        let ranges = chunk_ranges(buf.len(), chunks);
        for (c, range) in ranges.into_iter().enumerate() {
            let seg = &mut buf[range];
            if let Some(parent) = dt.a.parent[rank] {
                self.recv_elems(parent, 0, c as u32, PHASE_DOWN, seg, Land::Copy)?;
            }
            for &child in &dt.a.children[rank] {
                self.send_elems(child, 0, c as u32, PHASE_DOWN, seg)?;
            }
        }
        Ok(())
    }

    /// This node's full HFReduce data path: reduce the GPU buffers on the
    /// "CPU" (one fused multi-input reduction), allreduce the node sum
    /// across nodes with the double binary tree, and broadcast the result
    /// back to every GPU buffer. The result is written into `gpu_bufs`,
    /// which are returned.
    pub fn hfreduce<E: Element>(
        &mut self,
        mut gpu_bufs: Vec<Vec<E>>,
        chunks: usize,
    ) -> Result<Vec<Vec<E>>, CommError> {
        let len = gpu_bufs
            .first()
            .map(|b| b.len())
            .expect("nodes must have at least one GPU buffer");
        assert!(gpu_bufs.iter().all(|b| b.len() == len), "unequal buffers");
        // Intra-node reduce (Algorithm 1): one widened pass.
        let mut node_sum = vec![E::ZERO; len];
        let refs: Vec<&[E]> = gpu_bufs.iter().map(|b| b.as_slice()).collect();
        reduce_n_into(&mut node_sum, &refs);
        let gpus = gpu_bufs.len();
        self.note("reduce:intra", len as u64, (len * gpus) as f64);
        // Inter-node allreduce (Algorithm 2).
        if self.world_size() > 1 {
            let dt = DoubleBinaryTree::new(self.world_size());
            let chunks = chunks.clamp(1, len.max(1));
            self.dbtree_allreduce_rank(&dt, &mut node_sum, chunks)?;
        }
        self.note("bcast:h2d", len as u64, (len * gpus) as f64);
        // H2D broadcast: every GPU buffer gets the result.
        for buf in &mut gpu_bufs {
            buf.copy_from_slice(&node_sum);
        }
        Ok(gpu_bufs)
    }

    /// This rank's all2all: `sends[dst]` goes to rank `dst`, the result's
    /// `out[src]` is what rank `src` sent here. The self-row never touches
    /// the fabric. `seq` disambiguates successive all2alls on one
    /// communicator (e.g. MoE dispatch vs combine).
    ///
    /// Send failures toward already-dead peers are tolerated — survivors
    /// still need this rank's data — but a missing *inbound* payload is a
    /// typed [`CommError::Disconnected`] naming the dead peer.
    pub fn all2all<T: Wire>(
        &mut self,
        sends: Vec<Vec<T>>,
        seq: u32,
    ) -> Result<Vec<Vec<T>>, CommError> {
        let n = self.world_size();
        let me = self.rank();
        assert_eq!(sends.len(), n, "all2all needs one send row per rank");
        let mut out: Vec<Option<Vec<T>>> = (0..n).map(|_| None).collect();
        for (dst, payload) in sends.into_iter().enumerate() {
            if dst == me {
                out[dst] = Some(payload);
                continue;
            }
            let mut bytes = Vec::new();
            payload.wire_write(&mut bytes);
            if let Some(buf) = &mut self.obs {
                let len = payload.len() as u64;
                let name = format!("send:a:t0:c{seq}->r{dst}");
                buf.op(&name, len, len as f64);
            }
            let tag = Tag {
                phase: PHASE_A2A,
                tree: 0,
                chunk: seq,
            };
            // A dead destination cannot abort the exchange: the survivors
            // still complete theirs. Its silence surfaces below when this
            // rank waits for the dead peer's payload.
            let _ = self.fab.send(dst, tag, &bytes);
        }
        for (src, slot) in out.iter_mut().enumerate() {
            if src == me {
                continue;
            }
            let tag = Tag {
                phase: PHASE_A2A,
                tree: 0,
                chunk: seq,
            };
            let bytes = self.recv_raw(src, tag)?;
            let mut cur = WireCursor::new(&bytes);
            let payload = Vec::<T>::wire_read(&mut cur).ok_or(CommError::Protocol { peer: src })?;
            if !cur.is_done() {
                return Err(CommError::Protocol { peer: src });
            }
            if let Some(buf) = &mut self.obs {
                let len = payload.len() as u64;
                let name = format!("recv:a:t0:c{seq}<-r{src}");
                buf.op(&name, len, len as f64);
            }
            *slot = Some(payload);
        }
        Ok(out
            .into_iter()
            .map(|p| p.expect("every peer delivered"))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::InMemFabric;

    #[test]
    fn wire_roundtrips() {
        fn rt<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
            let mut b = Vec::new();
            v.wire_write(&mut b);
            let mut cur = WireCursor::new(&b);
            assert_eq!(T::wire_read(&mut cur), Some(v));
            assert!(cur.is_done());
        }
        rt(42i32);
        rt(7u32);
        rt(-9i64);
        rt(1.5f64);
        rt(usize::MAX);
        rt((3usize, 4usize));
        rt(vec![1i32, 2, 3]);
        rt(Vec::<i64>::new());
        rt((1u32, vec![2.0f32, 3.0], true));
        rt("héllo".to_string());
    }

    #[test]
    fn truncated_wire_bytes_decode_to_none() {
        let mut b = Vec::new();
        vec![1i64, 2, 3].wire_write(&mut b);
        b.truncate(b.len() - 1);
        let mut cur = WireCursor::new(&b);
        assert_eq!(Vec::<i64>::wire_read(&mut cur), None);
    }

    /// Encode then decode `xs`; every bit pattern must come back, in
    /// `len × size_bytes()` bytes.
    fn wire_roundtrip<E: Element>(xs: &[E]) {
        let mut bytes = Vec::new();
        encode_elems(xs, &mut bytes);
        assert_eq!(bytes.len(), xs.len() * E::DTYPE.size_bytes());
        let mut back = vec![E::ZERO; xs.len()];
        decode_elems_into(&mut back, &bytes);
        for (x, y) in xs.iter().zip(&back) {
            assert_eq!(x.wire_bits(), y.wire_bits(), "{:?}", E::DTYPE);
        }
    }

    #[test]
    fn element_wire_format_is_exact_for_all_dtypes() {
        use ff_dtypes::{Bf16, F16, F8E4M3};
        let bf16s: Vec<Bf16> = (0..=u16::MAX).map(Bf16::from_bits).collect();
        wire_roundtrip(&bf16s);
        let f16s: Vec<F16> = (0..=u16::MAX).map(F16::from_bits).collect();
        wire_roundtrip(&f16s);
        let f8s: Vec<F8E4M3> = (0..=u8::MAX).map(F8E4M3::from_bits).collect();
        wire_roundtrip(&f8s);
        // Every sign/exponent pair with a spread of mantissas, including
        // signalling-NaN and subnormal payloads.
        let f32s: Vec<f32> = (0..=0x1ffu32)
            .flat_map(|se| [0, 1, 0x2a_aaaa, 0x40_0000, 0x7f_ffff].map(|m| (se << 23) | m))
            .map(f32::from_bits)
            .collect();
        wire_roundtrip(&f32s);
    }

    #[test]
    fn reduce_on_receive_matches_reduce_add_into() {
        use ff_dtypes::Bf16;
        for len in [0usize, 1, RECV_BLOCK - 1, RECV_BLOCK, RECV_BLOCK + 1, 1000] {
            let a: Vec<Bf16> = (0..len).map(|i| Bf16::from_f32(i as f32 * 0.37)).collect();
            let b: Vec<Bf16> = (0..len).map(|i| Bf16::from_f32(1.0 - i as f32)).collect();
            let mut want = a.clone();
            reduce_add_into(&mut want, &b);
            let mut bytes = Vec::new();
            encode_elems(&b, &mut bytes);
            let mut got = a;
            reduce_elems_into(&mut got, &bytes);
            assert_eq!(got, want, "len {len}");
        }
    }

    /// Rank 0 as a bare fabric endpoint feeding hand-made frames to rank
    /// 1's communicator.
    fn raw_pair() -> (InMemFabric, Communicator<InMemFabric>) {
        let mut world = InMemFabric::mesh(2);
        let c1 = Communicator::with_timeout(world.pop().expect("two"), Duration::from_secs(5));
        (world.pop().expect("two"), c1)
    }

    #[test]
    fn duplicate_frame_is_a_protocol_error() {
        let (mut raw, mut comm) = raw_pair();
        let stray = Tag {
            phase: PHASE_UP,
            tree: 1,
            chunk: 0,
        };
        raw.send(1, stray, &[0; 8]).expect("send");
        raw.send(1, stray, &[0; 8]).expect("send");
        let mut acc = vec![1.0f32, 2.0];
        let r = comm.recv_elems(0, 0, 0, PHASE_UP, &mut acc, Land::Add);
        assert_eq!(r, Err(CommError::Protocol { peer: 0 }));
        assert_eq!(acc, vec![1.0, 2.0]);
    }

    #[test]
    fn wrong_length_frame_is_a_protocol_error_and_leaves_acc_untouched() {
        let (mut raw, mut comm) = raw_pair();
        let tag = Tag {
            phase: PHASE_UP,
            tree: 0,
            chunk: 0,
        };
        for bytes in [&[0u8; 12][..], &[0u8; 7][..]] {
            raw.send(1, tag, bytes).expect("send");
            let mut acc = vec![1.0f32, 2.0];
            let r = comm.recv_elems(0, 0, 0, PHASE_UP, &mut acc, Land::Add);
            assert_eq!(r, Err(CommError::Protocol { peer: 0 }));
            assert_eq!(acc, vec![1.0, 2.0]);
        }
    }

    #[test]
    fn tcp_broadcast_delivers_every_bf16_bit_pattern() {
        use crate::exec::run_broadcast;
        use crate::fabric::TcpProvider;
        use ff_dtypes::Bf16;
        let all: Vec<Bf16> = (0..=u16::MAX).map(Bf16::from_bits).collect();
        // The old f32 widening turned this signalling NaN into 0x7fc1.
        assert_eq!(all[0x7f81].to_bits(), 0x7f81);
        for out in run_broadcast(all.clone(), 3, 4, &TcpProvider) {
            let bits: Vec<u16> = out.iter().map(|x| x.to_bits()).collect();
            assert!(bits.iter().copied().eq(0..=u16::MAX));
        }
    }

    #[test]
    fn two_rank_allreduce_over_raw_communicators() {
        let mut world = InMemFabric::mesh(2);
        let c1 = Communicator::new(world.pop().expect("two"));
        let c0 = Communicator::new(world.pop().expect("two"));
        let h = std::thread::spawn(move || {
            let mut comm = c1;
            let mut data = vec![10.0f32, 20.0];
            comm.allreduce(&mut data, Op::Sum, Algo::DbTree { chunks: 1 })
                .expect("allreduce");
            data
        });
        let mut comm = c0;
        let mut data = vec![1.0f32, 2.0];
        comm.allreduce(&mut data, Op::Sum, Algo::DbTree { chunks: 1 })
            .expect("allreduce");
        assert_eq!(data, vec![11.0, 22.0]);
        assert_eq!(h.join().expect("rank 1"), vec![11.0, 22.0]);
    }
}
