//! The two executable-collective workloads.
//!
//! * `grad-sync` — a closed loop of HFReduce steps over real localhost
//!   `TcpFabric`, 2 nodes × 8 GPU buffers of 1 Mi bf16 elements each. Bytes
//!   dominate: the intra-node reduce kernel, bf16↔f32 conversion on the
//!   wire, and TCP.
//! * `allreduce-latency` — a closed loop of 16 KiB f32 double-binary-tree
//!   allreduces (4 chunks) over a persistent 2-rank `InMemFabric`. Per-message
//!   overhead dominates: tag matching, the stash and channel wake-ups; no
//!   TCP and no bf16 conversion.
//!
//! Both build their world once. Inputs are generated, and cloned for each
//! call, outside every timer; every result is compared bit for bit with
//! `kernels::reference_sum`.

use crate::meter::{self, FabricCounts, Metered};
use crate::stats::{median, peak_rss_mb, percentile, timed, Ledger};
use crate::trace::{self, Span};
use crate::{Args, Report};
use ff_dtypes::Bf16;
use ff_reduce::comm::{Algo, Communicator, Op};
use ff_reduce::fabric::{Fabric, InMemFabric, TcpFabric};
use ff_reduce::kernels::{reduce_n_into, reference_sum};
use ff_util::rng::ChaCha8Rng;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Deadline for any one receive: far above a healthy step, well inside the
/// run's time limit.
const RECV_TIMEOUT: Duration = Duration::from_secs(10);
/// World builds timed for `setup_s`; the last one is used.
const SETUP_REPS: usize = 101;
/// Span name around each `Communicator` collective call.
const COMM: &str = "comm.collective";

const GS_NODES: usize = 2;
const GS_GPUS: usize = 8;
const GS_ELEMS: usize = 1 << 20;
const GS_CHUNKS: usize = 4;
/// Repeats of each kernel and conversion timing.
const KERNEL_REPS: usize = 5;

const AR_RANKS: usize = 2;
const AR_ELEMS: usize = 16 * 1024 / 4;
const AR_CHUNKS: usize = 4;
/// Calls each rank makes between two checks of the deadline.
const AR_BATCH: usize = 256;

/// Ranks agree, between operations, whether to run another one: one rank
/// reads the clock and every rank follows its decision.
struct Lockstep {
    barrier: Barrier,
    go: AtomicBool,
    abort: AtomicBool,
    rounds: AtomicUsize,
    deadline: Instant,
    min_rounds: usize,
    /// Peak resident memory after the first round, MiB, as `f64` bits.
    rss_mb: AtomicU64,
}

impl Lockstep {
    fn new(ranks: usize, budget: Duration, min_rounds: usize) -> Lockstep {
        Lockstep {
            barrier: Barrier::new(ranks),
            go: AtomicBool::new(false),
            abort: AtomicBool::new(false),
            rounds: AtomicUsize::new(0),
            deadline: Instant::now() + budget,
            min_rounds,
            rss_mb: AtomicU64::new(f64::NAN.to_bits()),
        }
    }

    /// Wait for every rank; true if all of them run another round.
    fn next(&self) -> bool {
        if self.barrier.wait().is_leader() {
            let n = self.rounds.fetch_add(1, Ordering::SeqCst);
            if n == 1 {
                self.rss_mb.store(peak_rss_mb().to_bits(), Ordering::SeqCst);
            }
            let go = !self.abort.load(Ordering::SeqCst)
                && (n < self.min_rounds || Instant::now() < self.deadline);
            self.go.store(go, Ordering::SeqCst);
        }
        self.barrier.wait();
        self.go.load(Ordering::SeqCst)
    }

    fn abort(&self) {
        self.abort.store(true, Ordering::SeqCst);
    }

    fn rss_mb(&self) -> f64 {
        f64::from_bits(self.rss_mb.load(Ordering::SeqCst))
    }
}

/// What one rank measured in one phase.
struct RankLog {
    /// Seconds per timed call.
    op_s: Vec<f64>,
    ledger: Ledger,
    counts: FabricCounts,
    spans: Vec<Span>,
}

/// Everything one phase (untraced or traced) measured.
struct Phase {
    ranks: Vec<RankLog>,
    /// Peak resident memory after the first round, MiB.
    rss_mb: f64,
}

impl Phase {
    fn ledger(&self) -> Ledger {
        let mut l = Ledger::default();
        for r in &self.ranks {
            l.merge(r.ledger);
        }
        l
    }

    /// Per-operation seconds: the slowest rank of each lockstep step.
    fn step_max_s(&self) -> Vec<f64> {
        (0..self.ranks[0].op_s.len())
            .map(|i| self.ranks.iter().map(|r| r.op_s[i]).fold(0.0, f64::max))
            .collect()
    }

    /// Every rank's call latencies pooled.
    fn pooled_s(&self) -> Vec<f64> {
        self.ranks
            .iter()
            .flat_map(|r| r.op_s.iter().copied())
            .collect()
    }

    fn rank_ops(&self) -> f64 {
        self.ranks.iter().map(|r| r.op_s.len()).sum::<usize>() as f64
    }

    fn counts(&self) -> FabricCounts {
        let mut c = FabricCounts::default();
        for r in &self.ranks {
            c.sends += r.counts.sends;
            c.bytes_sent += r.counts.bytes_sent;
            c.recvs += r.counts.recvs;
        }
        c
    }

    fn spans(&self) -> Vec<Span> {
        self.ranks
            .iter()
            .flat_map(|r| r.spans.iter().copied())
            .collect()
    }
}

/// Run `rank_body` on one thread per rank of `world`.
fn run_world<F: Fabric>(
    world: Vec<Communicator<F>>,
    counts: fn(&F) -> FabricCounts,
    lock: &Lockstep,
    rank_body: impl Fn(&mut Communicator<F>, &mut RankLog) + Sync,
) -> Phase {
    let ranks = std::thread::scope(|s| {
        let hs: Vec<_> = world
            .into_iter()
            .map(|mut comm| {
                let body = &rank_body;
                s.spawn(move || {
                    let mut log = RankLog {
                        op_s: Vec::new(),
                        ledger: Ledger::default(),
                        counts: FabricCounts::default(),
                        spans: Vec::new(),
                    };
                    body(&mut comm, &mut log);
                    log.counts = counts(comm.fabric());
                    log.spans = trace::take();
                    log
                })
            })
            .collect();
        hs.into_iter()
            .map(|h| h.join().expect("rank thread panicked"))
            .collect()
    });
    Phase {
        ranks,
        rss_mb: lock.rss_mb(),
    }
}

fn bare<F>(_: &F) -> FabricCounts {
    FabricCounts::default()
}

fn metered<F: Fabric>(world: Vec<F>) -> Vec<Metered<F>> {
    world.into_iter().map(Metered::new).collect()
}

/// Build the world `SETUP_REPS` times: the mesh, then one thread per
/// rank holding its `Communicator`, until every rank is ready. Returns the
/// median set-up, the median of the mesh calls alone, and the last world.
fn build_world<F: Fabric>(mut mesh: impl FnMut() -> Vec<F>) -> (f64, f64, Vec<Communicator<F>>) {
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut meshes = Vec::with_capacity(SETUP_REPS);
    let mut world = Vec::new();
    for _ in 0..SETUP_REPS {
        drop(std::mem::take(&mut world));
        let t0 = Instant::now();
        let fabrics = mesh();
        meshes.push(t0.elapsed().as_secs_f64());
        let ready = Barrier::new(fabrics.len() + 1);
        world = std::thread::scope(|s| {
            let hs: Vec<_> = fabrics
                .into_iter()
                .map(|fab| {
                    let ready = &ready;
                    s.spawn(move || {
                        let comm = Communicator::with_timeout(fab, RECV_TIMEOUT);
                        ready.wait();
                        comm
                    })
                })
                .collect();
            ready.wait();
            setups.push(t0.elapsed().as_secs_f64());
            hs.into_iter()
                .map(|h| h.join().expect("rank thread panicked"))
                .collect()
        });
    }
    (median(&setups), median(&meshes), world)
}

fn tcp_mesh() -> Vec<TcpFabric> {
    TcpFabric::mesh(GS_NODES).expect("localhost TCP mesh")
}

/// Fabric and comm layer times per rank-operation from a traced phase.
fn comm_layers(traced: &Phase, payload_bytes_per_rank_op: f64) -> Vec<(&'static str, f64)> {
    let ops = traced.rank_ops();
    let c = traced.counts();
    let lt = trace::layer_times(&traced.spans());
    let get = |name: &str| lt.get(name).copied().unwrap_or_default();
    let (comm, send, recv) = (get(COMM), get(meter::SEND), get(meter::RECV_WAIT));
    let per_op = |ns: u64| ns as f64 / 1e9 / ops;
    vec![
        ("fabric.sends", c.sends as f64 / ops),
        ("fabric.bytes_sent", c.bytes_sent as f64 / ops),
        ("fabric.send_s", per_op(send.total_ns)),
        ("fabric.recv_wait_s", per_op(recv.total_ns)),
        (
            "fabric.wire_amplification",
            c.bytes_sent as f64 / ops / payload_bytes_per_rank_op,
        ),
        ("comm.calls", comm.count as f64),
        ("comm.busy_s", per_op(comm.total_ns)),
        ("comm.self_s", per_op(comm.self_ns)),
    ]
}

// ---------------------------------------------------------------------------
// grad-sync
// ---------------------------------------------------------------------------

/// Seeded gradients: `[node][gpu][elem]`, finite normal bf16 values.
fn grad_inputs(seed: u64) -> Vec<Vec<Vec<Bf16>>> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..GS_NODES)
        .map(|_| {
            (0..GS_GPUS)
                .map(|_| {
                    (0..GS_ELEMS)
                        .map(|_| Bf16::from_f32(rng.gen_range(-1.0f64..1.0) as f32))
                        .collect()
                })
                .collect()
        })
        .collect()
}

/// What HFReduce computes: each node's buffers summed with one rounding,
/// then the node sums added across the two nodes. Both steps are
/// `reference_sum`, so the result is exact bit for bit.
fn grad_expected(inputs: &[Vec<Vec<Bf16>>]) -> Vec<Bf16> {
    let node_sums: Vec<Vec<Bf16>> = inputs.iter().map(|n| reference_sum(n)).collect();
    reference_sum(&node_sums)
}

fn grad_phase<F: Fabric>(
    world: Vec<Communicator<F>>,
    counts: fn(&F) -> FabricCounts,
    inputs: &[Vec<Vec<Bf16>>],
    expected: &[Bf16],
    budget: Duration,
) -> Phase {
    let lock = Lockstep::new(GS_NODES, budget, 3);
    run_world(world, counts, &lock, |comm, log| {
        let mine = &inputs[comm.rank()];
        loop {
            let bufs = mine.clone();
            if !lock.next() {
                break;
            }
            let t0 = Instant::now();
            let out = trace::span(COMM, || comm.hfreduce(bufs, GS_CHUNKS));
            log.op_s.push(t0.elapsed().as_secs_f64());
            match out {
                Ok(out) => log.ledger.check(
                    out.len() == GS_GPUS && out.iter().all(|b| b.as_slice() == expected),
                    "hfreduce output differs from reference_sum",
                ),
                Err(e) => {
                    log.ledger.check(false, &format!("hfreduce: {e}"));
                    lock.abort();
                }
            }
        }
    })
}

/// Median seconds of `KERNEL_REPS` runs of `f`, traced as `name`.
fn kernel_time(name: &'static str, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..KERNEL_REPS)
        .map(|_| timed(|| trace::span(name, &mut f)).0)
        .collect();
    median(&times)
}

/// The reduce kernel and bf16 conversions over the grad-sync shape.
fn kernel_layers(node: &[Vec<Bf16>], ledger: &mut Ledger) -> Vec<(&'static str, f64)> {
    let srcs: Vec<&[Bf16]> = node.iter().map(|b| b.as_slice()).collect();
    let mut sum = vec![Bf16::ZERO; GS_ELEMS];
    let reduce_s = kernel_time("kernels.reduce_n_into", || {
        reduce_n_into(black_box(&mut sum), black_box(&srcs));
    });
    ledger.check(
        sum == reference_sum(node),
        "reduce_n_into differs from reference_sum",
    );
    let mut wide = vec![0.0f32; GS_ELEMS];
    let widen_s = kernel_time("dtypes.bf16_widen", || {
        for (w, x) in wide.iter_mut().zip(black_box(&node[0])) {
            *w = x.to_f32();
        }
    });
    let mut narrow = vec![Bf16::ZERO; GS_ELEMS];
    let narrow_s = kernel_time("dtypes.bf16_narrow", || {
        for (n, w) in narrow.iter_mut().zip(black_box(&wide)) {
            *n = Bf16::from_f32(*w);
        }
    });
    ledger.check(narrow == node[0], "bf16 widen/narrow does not round-trip");
    let bf16_bytes = (GS_ELEMS * 2) as f64;
    vec![
        (
            "kernels.reduce_gbps",
            GS_GPUS as f64 * bf16_bytes / reduce_s / 1e9,
        ),
        ("dtypes.bf16_widen_gbps", bf16_bytes / widen_s / 1e9),
        ("dtypes.bf16_narrow_gbps", bf16_bytes / narrow_s / 1e9),
    ]
}

/// The `grad-sync` workload.
pub fn grad_sync(args: &Args) -> Report {
    let inputs = grad_inputs(args.seed);
    let expected = grad_expected(&inputs);
    let (setup_s, _, world) = build_world(tcp_mesh);
    let mut report = Report::new(setup_s);
    let budget = args.budget();
    let plain = grad_phase(world, bare, &inputs, &expected, budget);
    report.ledger.merge(plain.ledger());
    report.peak_rss_mb = plain.rss_mb;
    report.op("HFReduce step (slowest rank)", &plain.step_max_s());
    let p50 = report.op_p50_s;
    report.note(format!(
        "hfreduce_algbw_gbps {:.6} (bf16 bytes per GPU / median step)",
        (GS_ELEMS * 2) as f64 / p50 / 1e9
    ));
    if !args.trace {
        return report;
    }

    let (_, mesh_s, world) = build_world(|| metered(tcp_mesh()));
    trace::set_enabled(true);
    let traced = grad_phase(world, Metered::counts, &inputs, &expected, budget);
    let kernels = kernel_layers(&inputs[0], &mut report.ledger);
    trace::set_enabled(false);
    report.ledger.merge(traced.ledger());
    report.layer("world.setup_s", mesh_s);
    report.layer(
        "trace.overhead_frac",
        median(&traced.step_max_s()) / p50 - 1.0,
    );
    report.layers(comm_layers(&traced, (GS_ELEMS * 2) as f64));
    report.layers(kernels);
    crate::write_spans(&args.workload, &traced.spans());
    report
}

// ---------------------------------------------------------------------------
// allreduce-latency
// ---------------------------------------------------------------------------

/// Seeded f32 rows, one per rank, with no zeros (so no signed-zero sums).
fn latency_inputs(seed: u64) -> Vec<Vec<f32>> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..AR_RANKS)
        .map(|_| {
            (0..AR_ELEMS)
                .map(|_| {
                    let mag = rng.gen_range(0.5f64..1.5) as f32;
                    if rng.gen_bool(0.5) {
                        mag
                    } else {
                        -mag
                    }
                })
                .collect()
        })
        .collect()
}

fn latency_phase<F: Fabric>(
    world: Vec<Communicator<F>>,
    counts: fn(&F) -> FabricCounts,
    inputs: &[Vec<f32>],
    expected: &[f32],
    budget: Duration,
) -> Phase {
    let lock = Lockstep::new(AR_RANKS, budget, 1);
    run_world(world, counts, &lock, |comm, log| {
        let mine = &inputs[comm.rank()];
        let mut data = vec![0.0f32; AR_ELEMS];
        while lock.next() {
            for _ in 0..AR_BATCH {
                data.copy_from_slice(mine);
                let t0 = Instant::now();
                let r = trace::span(COMM, || {
                    comm.allreduce(&mut data, Op::Sum, Algo::DbTree { chunks: AR_CHUNKS })
                });
                log.op_s.push(t0.elapsed().as_secs_f64());
                match r {
                    Ok(()) => log
                        .ledger
                        .check(data == expected, "allreduce differs from reference_sum"),
                    Err(e) => {
                        log.ledger.check(false, &format!("allreduce: {e}"));
                        lock.abort();
                        break;
                    }
                }
            }
        }
    })
}

/// The `allreduce-latency` workload.
pub fn allreduce_latency(args: &Args) -> Report {
    let inputs = latency_inputs(args.seed);
    let expected = reference_sum(&inputs);
    let (setup_s, _, world) = build_world(|| InMemFabric::mesh(AR_RANKS));
    let mut report = Report::new(setup_s);
    let budget = args.budget();
    let plain = latency_phase(world, bare, &inputs, &expected, budget);
    report.ledger.merge(plain.ledger());
    report.peak_rss_mb = plain.rss_mb;
    let calls = plain.pooled_s();
    report.op("16 KiB allreduce call (every rank)", &calls);
    let p50 = report.op_p50_s;
    report.note(format!("allreduce_p50_us {:.3}", p50 * 1e6));
    if !args.trace {
        return report;
    }

    let (_, mesh_s, world) = build_world(|| metered(InMemFabric::mesh(AR_RANKS)));
    trace::set_enabled(true);
    let traced = latency_phase(world, Metered::counts, &inputs, &expected, budget);
    trace::set_enabled(false);
    report.ledger.merge(traced.ledger());
    report.layer("world.setup_s", mesh_s);
    report.layer(
        "trace.overhead_frac",
        median(&traced.pooled_s()) / p50 - 1.0,
    );
    report.layers(comm_layers(&traced, (AR_ELEMS * 4) as f64));
    // Diagnostic only: the tail of the untraced calls varies too much
    // between runs to gate on.
    report.layer("allreduce_p99_us", percentile(&calls, 990) * 1e6);
    crate::write_spans(&args.workload, &traced.spans());
    report
}
