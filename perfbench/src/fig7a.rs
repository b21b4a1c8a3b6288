//! The `fig7a-sweep` workload: the paper's Figure 7a HFReduce grid at
//! 186 MiB from 16 to 2,560 GPUs, a fresh `ClusterModel` per simulation.
//! The fluid max-min solver does almost all the work, with no sockets and
//! no rank threads, so this is where the solver's share can be timed from
//! outside. The 10,000-GPU point is left to the repository's
//! `fluid_bench`, so that a sweep stays a few seconds long and a run holds
//! several.
//!
//! The untraced sweep times the program's own path, `hfreduce_steady` at
//! the fluid solver's default width, as the Figure 7a harness calls it.
//! The traced sweep runs a copy of that function split into its cluster
//! builds and simulations, and checks it reproduces the same bits.

use crate::reference::{at_nominal, Reference};
use crate::stats::{median, median_of_parts, peak_rss_mb, timed, Ledger};
use crate::trace::{self, Span};
use crate::{Args, Report};
use ff_desim::fluid::SolverStats;
use ff_reduce::cluster::{ClusterConfig, ClusterModel};
use ff_reduce::model::{hfreduce_steady, hfreduce_time, HfReduceOptions, TARGET_CHUNK_BYTES};
use ff_util::par;
use ff_util::rng::ChaCha8Rng;

/// Gradient bytes per GPU (the figure's message size).
const BYTES: f64 = 186.0 * 1024.0 * 1024.0;
/// Cluster builds timed for `setup_s`.
const SETUP_REPS: usize = 15;

/// Every grid point with the simulated algbw recorded for it, as `f64`
/// bits: the simulation is deterministic, so each sweep must reproduce
/// them exactly.
const GRID: [(usize, u64); 10] = [
    (16, 0x4202_3ca2_c404_263f),   // 9.791 GB/s
    (32, 0x4201_44bc_6da2_f01c),   // 9.271 GB/s
    (64, 0x4200_c862_7f01_fa64),   // 9.010 GB/s
    (128, 0x4201_3d82_c1fb_e54b),  // 9.256 GB/s
    (256, 0x4201_107f_50d5_d1a2),  // 9.161 GB/s
    (512, 0x4200_2aac_8f16_cc2d),  // 8.679 GB/s
    (720, 0x4201_13b9_ef28_2445),  // 9.168 GB/s
    (1024, 0x4200_7ae9_3b58_9334), // 8.848 GB/s
    (1440, 0x4201_14a8_e6ac_d3ae), // 9.170 GB/s
    (2560, 0x4201_2f05_d7f9_b381), // 9.225 GB/s
];

/// One grid point's result.
struct Point {
    algbw_bps: f64,
    /// Solver counters; the untraced path cannot read them and leaves
    /// them zero.
    stats: SolverStats,
}

/// Steady-state HFReduce algbw at `gpus`, through the program's own
/// `hfreduce_steady`.
fn steady_point(gpus: usize) -> Point {
    let cfg = ClusterConfig::fire_flyer(gpus / 8);
    Point {
        algbw_bps: hfreduce_steady(&cfg, BYTES, &HfReduceOptions::default()).algbw_bps,
        stats: SolverStats::default(),
    }
}

/// Steady-state HFReduce algbw at `gpus`, computed as `hfreduce_steady`
/// does (two pipeline depths, each on a fresh cluster, extrapolated to the
/// production chunk count) but with the cluster builds and the
/// simulations under spans of their own, and the solver counters read.
fn split_point(gpus: usize) -> Point {
    let cfg = ClusterConfig::fire_flyer(gpus / 8);
    let target = (BYTES / TARGET_CHUNK_BYTES).ceil() as usize;
    let (c1, c2) = (3usize, 6usize);
    assert!(target > c2, "the grid's message size needs extrapolation");
    let mut stats = SolverStats::default();
    let mut run = |chunks: usize| {
        let mut cluster = trace::span("cluster.build", || ClusterModel::build(&cfg));
        let opts = HfReduceOptions {
            chunks,
            ..HfReduceOptions::default()
        };
        let r = trace::span("model.simulate", || {
            hfreduce_time(&mut cluster, BYTES, &opts)
        });
        add_stats(&mut stats, cluster.fluid.solver_stats());
        r.seconds
    };
    let (t1, t2) = (run(c1), run(c2));
    let a = (t1 - t2) / (1.0 / c1 as f64 - 1.0 / c2 as f64);
    let b = (t1 - a / c1 as f64).max(1e-12);
    let seconds = (a.max(0.0) / target as f64 + b).max(1e-12);
    Point {
        algbw_bps: BYTES / seconds,
        stats,
    }
}

fn add_stats(acc: &mut SolverStats, s: SolverStats) {
    acc.flow_starts += s.flow_starts;
    acc.cancels += s.cancels;
    acc.completions += s.completions;
    acc.recomputes += s.recomputes;
    acc.components += s.components;
    acc.empty_components += s.empty_components;
    acc.fill_rounds += s.fill_rounds;
    acc.parallel_batches += s.parallel_batches;
}

/// The grid in a seeded order: the seed moves nothing but the order.
fn grid_order(seed: u64) -> Vec<(usize, u64)> {
    let mut g = GRID.to_vec();
    ChaCha8Rng::seed_from_u64(seed).shuffle(&mut g);
    g
}

/// One sweep of `point`: checks each point against its recorded value and
/// returns each point's wall time, and the reference timed right after it.
fn sweep(
    order: &[(usize, u64)],
    point: fn(usize) -> Point,
    reference: &Reference,
    ledger: &mut Ledger,
    stats: &mut SolverStats,
) -> Vec<(f64, f64)> {
    let mut walls = Vec::with_capacity(order.len());
    for &(gpus, bits) in order {
        let (wall, p) = timed(|| point(gpus));
        walls.push((wall, reference.time()));
        check(ledger, gpus, bits, &p);
        add_stats(stats, p.stats);
    }
    walls
}

/// Checks a point's simulated algbw against its recorded bits.
fn check(ledger: &mut Ledger, gpus: usize, bits: u64, p: &Point) {
    ledger.check(
        p.algbw_bps.to_bits() == bits,
        &format!(
            "{gpus} GPUs: simulated algbw {} (bits {:#x}) differs from the recorded value",
            p.algbw_bps,
            p.algbw_bps.to_bits()
        ),
    );
}

/// What one phase of sweeps measured.
struct Phase {
    /// Each sweep's point times at the reference host speed.
    sweeps: Vec<Vec<f64>>,
    /// Each sweep's point times as measured.
    raw: Vec<Vec<f64>>,
    /// The last sweep's solver counters.
    stats: SolverStats,
    spans: Vec<Span>,
}

/// Sweeps `point` until the budget is spent.
fn phase(
    order: &[(usize, u64)],
    point: fn(usize) -> Point,
    reference: &Reference,
    budget: std::time::Duration,
    ledger: &mut Ledger,
) -> Phase {
    let (mut sweeps, mut raw) = (Vec::new(), Vec::new());
    let mut stats = SolverStats::default();
    crate::stats::repeat_for(budget, 1, || {
        stats = SolverStats::default();
        let pairs = sweep(order, point, reference, ledger, &mut stats);
        // The sweep's references, a few seconds apart at most, give its
        // host speed; their median ignores one that an interruption hit.
        let speed = median(&pairs.iter().map(|p| p.1).collect::<Vec<_>>());
        sweeps.push(pairs.iter().map(|&(t, _)| at_nominal(t, speed)).collect());
        raw.push(pairs.iter().map(|&(t, _)| t).collect());
    });
    Phase {
        sweeps,
        raw,
        stats,
        spans: trace::take(),
    }
}

/// The `fig7a-sweep` workload.
pub fn fig7a_sweep(args: &Args) -> Report {
    let order = grid_order(args.seed);
    // One untimed sweep first, checked like the others: it warms caches
    // and the allocator, and gives the peak resident memory before the
    // reference's own memory joins it.
    let mut ledger = Ledger::default();
    for &(gpus, bits) in &order {
        check(&mut ledger, gpus, bits, &steady_point(gpus));
    }
    let rss_mb = peak_rss_mb();
    let largest = ClusterConfig::fire_flyer(GRID[GRID.len() - 1].0 / 8);
    let reference = Reference::new();
    let builds: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            let build_s = timed(|| ClusterModel::build(&largest)).0;
            at_nominal(build_s, reference.time())
        })
        .collect();
    let mut report = Report::new(median(&builds));
    report.ledger = ledger;
    report.peak_rss_mb = rss_mb;
    report.solver_threads = par::default_threads();
    let budget = args.budget();
    let plain = phase(&order, steady_point, &reference, budget, &mut report.ledger);
    report.op_parts("Figure 7a sweep", &plain.sweeps, &plain.raw);
    let p50 = report.op_p50_s;
    report.note(format!("fig7a_wall_s {p50:.6} at the reference speed"));
    if !args.trace {
        return report;
    }

    // The split copy is checked against the same recorded bits that
    // `hfreduce_steady` reproduced above, so both paths agree bit for bit.
    trace::set_enabled(true);
    let traced = phase(&order, split_point, &reference, budget, &mut report.ledger);
    trace::set_enabled(false);
    let (stats, spans) = (traced.stats, &traced.spans);
    let sweeps = traced.sweeps.len() as f64;
    let lt = trace::layer_times(spans);
    let per_sweep = |name: &str| {
        lt.get(name)
            .map_or(0.0, |t| t.total_ns as f64 / 1e9 / sweeps)
    };
    let simulate_s = per_sweep("model.simulate");
    report.layer(
        "trace.overhead_frac",
        median_of_parts(&traced.sweeps) / p50 - 1.0,
    );
    report.layer("cluster.build_s", per_sweep("cluster.build"));
    report.layer("model.simulate_s", simulate_s);
    report.layer("fluid.events", stats.events() as f64);
    report.layer("fluid.recomputes", stats.recomputes as f64);
    report.layer("fluid.components", stats.components as f64);
    report.layer("fluid.fill_rounds", stats.fill_rounds as f64);
    report.layer("fluid.events_per_s", stats.events() as f64 / simulate_s);
    report.layer(
        "fluid.empty_component_ratio",
        stats.empty_components as f64 / stats.components as f64,
    );
    crate::write_spans(&args.workload, spans);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_point_matches_the_library_extrapolation() {
        for gpus in [16, 32] {
            assert_eq!(
                split_point(gpus).algbw_bps.to_bits(),
                steady_point(gpus).algbw_bps.to_bits()
            );
        }
    }
}
