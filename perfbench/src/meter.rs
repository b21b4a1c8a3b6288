//! A metering [`Fabric`] wrapper: counts frames and bytes and records a
//! span around every `send` and `recv_any` of the real backend beneath
//! it. It adds nothing to the frames, so the collectives above it see the
//! same traffic as on the bare backend.

use crate::trace;
use ff_reduce::fabric::{CommError, Fabric, RawMsg, RecvAnyError, Tag};
use std::time::Duration;

/// Span name for time inside the backend's `send`.
pub const SEND: &str = "fabric.send";
/// Span name for time inside the backend's `recv_any`.
pub const RECV_WAIT: &str = "fabric.recv_wait";

/// Counts at the fabric boundary of one rank.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FabricCounts {
    /// Frames sent.
    pub sends: u64,
    /// Payload bytes sent.
    pub bytes_sent: u64,
    /// Data frames received (hangup control frames are not counted).
    pub recvs: u64,
}

/// `inner` with every transport call counted and traced.
pub struct Metered<F: Fabric> {
    inner: F,
    counts: FabricCounts,
}

impl<F: Fabric> Metered<F> {
    /// Wrap one rank's endpoint.
    pub fn new(inner: F) -> Metered<F> {
        Metered {
            inner,
            counts: FabricCounts::default(),
        }
    }

    /// Counts so far.
    pub fn counts(&self) -> FabricCounts {
        self.counts
    }
}

impl<F: Fabric> Fabric for Metered<F> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn world_size(&self) -> usize {
        self.inner.world_size()
    }

    fn backend(&self) -> &'static str {
        self.inner.backend()
    }

    fn send(&mut self, to: usize, tag: Tag, bytes: &[u8]) -> Result<(), CommError> {
        self.counts.sends += 1;
        self.counts.bytes_sent += bytes.len() as u64;
        let inner = &mut self.inner;
        trace::span(SEND, || inner.send(to, tag, bytes))
    }

    fn recv_any(&mut self, timeout: Duration) -> Result<RawMsg, RecvAnyError> {
        let inner = &mut self.inner;
        let msg = trace::span(RECV_WAIT, || inner.recv_any(timeout));
        if msg.as_ref().is_ok_and(|m| !m.tag.is_ctrl()) {
            self.counts.recvs += 1;
        }
        msg
    }

    fn set_silent_teardown(&mut self, silent: bool) {
        self.inner.set_silent_teardown(silent);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_reduce::comm::{Algo, Communicator, Op};
    use ff_reduce::fabric::{cal_sink, CalibratedFabric, InMemFabric, TcpFabric};
    use ff_reduce::kernels::reference_sum;

    /// Allreduce one input row per rank over `world`; returns each rank's
    /// result and what `counts` reads off its endpoint afterwards.
    fn run<F: Fabric>(
        world: Vec<F>,
        inputs: &[Vec<f32>],
        chunks: usize,
        counts: fn(&F) -> FabricCounts,
    ) -> (Vec<Vec<f32>>, Vec<FabricCounts>) {
        std::thread::scope(|s| {
            let hs: Vec<_> = world
                .into_iter()
                .zip(inputs)
                .map(|(fab, input)| {
                    s.spawn(move || {
                        let mut comm = Communicator::new(fab);
                        let mut data = input.clone();
                        comm.allreduce(&mut data, Op::Sum, Algo::DbTree { chunks })
                            .expect("allreduce");
                        for (name, lt) in trace::layer_times(&trace::take()) {
                            assert!(lt.self_ns <= lt.total_ns, "{name}: self exceeds span");
                        }
                        (data, counts(comm.fabric()))
                    })
                })
                .collect();
            hs.into_iter()
                .map(|h| h.join().expect("rank thread"))
                .unzip()
        })
    }

    fn metered<F: Fabric>(world: Vec<F>) -> Vec<Metered<F>> {
        world.into_iter().map(Metered::new).collect()
    }

    #[test]
    fn metered_fabric_is_transparent() {
        trace::set_enabled(true);
        let (ranks, len, chunks) = (4, 1000, 3);
        // Integer values: every summation order gives the same bits.
        let ins: Vec<Vec<f32>> = (0..ranks)
            .map(|r| (0..len).map(|i| (r * 7 + i % 13) as f32 - 9.0).collect())
            .collect();
        let want = reference_sum(&ins);

        // The bare backend, framed by the program's own send meter.
        let sink = cal_sink();
        let bare_world = InMemFabric::mesh(ranks)
            .into_iter()
            .map(|f| CalibratedFabric::new(f, sink.clone()))
            .collect();
        let (bare, _) = run(bare_world, &ins, chunks, |_| FabricCounts::default());
        let bare_frames = sink.lock().sends;

        let (inmem, inmem_counts) = run(
            metered(InMemFabric::mesh(ranks)),
            &ins,
            chunks,
            Metered::counts,
        );
        let (tcp, tcp_counts) = run(
            metered(TcpFabric::mesh(ranks).expect("tcp mesh")),
            &ins,
            chunks,
            Metered::counts,
        );
        for out in [&bare, &inmem, &tcp] {
            assert!(
                out.iter().all(|row| row == &want),
                "sum differs from reference"
            );
        }
        // Every tree edge carries one frame up and one down per chunk.
        let frames = 2 * (ranks as u64 - 1) * 2 * chunks as u64;
        assert_eq!(bare_frames, frames);
        for counts in [&inmem_counts, &tcp_counts] {
            assert_eq!(counts.iter().map(|c| c.sends).sum::<u64>(), frames);
            assert_eq!(counts.iter().map(|c| c.recvs).sum::<u64>(), frames);
            // Elements travel as 4-byte f32; each is sent up and down once
            // per tree edge it crosses.
            let bytes: u64 = counts.iter().map(|c| c.bytes_sent).sum();
            assert_eq!(bytes, 4 * len as u64 * 2 * (ranks as u64 - 1));
        }
        assert_eq!(inmem_counts, tcp_counts);
    }
}
