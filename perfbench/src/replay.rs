//! The `cluster-replay` workload: about one simulated hour of a
//! fluid-mode HAI `Platform` on 64 nodes. A seeded pretrain / research /
//! dev training mix checkpoints to 3FS beside a 4 × 2-node serving tier
//! on a diurnal arrival trace, while hard failures run at 100× the
//! paper's rates and gray stragglers, flaps and throttles meet the
//! balanced detector. Scheduler handlers, serving, the detector,
//! checkpointing and the recorder all load together; the executable
//! collectives do not run at all.
//!
//! The fluid solver runs inside `Platform::tick` and cannot be timed
//! from outside it, so its share of `platform.tick_s` is not reported.

use crate::reference::{at_nominal, Reference};
use crate::stats::{median, median_of_parts, peak_rss_mb, timed, Ledger};
use crate::trace;
use crate::{Args, Report};
use ff_failures::{FaultPlan, GrayPlan, GrayRates};
use ff_obs::Recorder;
use ff_platform::{DetectorConfig, JobSpec, Platform, PlatformConfig, ServingId, ServingSpec};
use ff_reduce::cluster::{ClusterConfig, ClusterModel};
use ff_util::rng::ChaCha8Rng;
use ff_util::scengen::{ArrivalConfig, ArrivalTrace};
use std::sync::Arc;

/// Not 128: on a 2-core host a 128-node hour takes 3–6 s, too long to
/// replay several input sets several times in a run.
const NODES: usize = 64;
const HORIZON_S: u64 = 3600;
const TICK_S: u64 = 60;
/// Hard and gray fault rates over the paper's measured ones.
const FAULT_SCALE: f64 = 100.0;
const SERVE_REPLICAS: u32 = 4;
const NODES_PER_REPLICA: usize = 2;
/// Input sets per run, each from its own seed drawn from the run's seed:
/// a replay's cost depends on its inputs (one set's hour ran 1.25×
/// another's in the same run, at the reference speed), so a run averages
/// over four.
const INPUT_SETS: usize = 4;
/// Replays of each input set an untraced phase makes at least, so that
/// each tick's median across them rejects a burst of interference.
const MIN_REPLAYS: usize = 3;
/// Ticks between two timings of the host-speed reference in a replay.
const REF_EVERY: usize = 10;

/// Everything a replay consumes, generated from the seed before any timer
/// starts.
#[derive(Clone)]
struct Inputs {
    jobs: Vec<JobSpec>,
    serving: ServingSpec,
    faults: FaultPlan,
    gray: GrayPlan,
}

/// Compute nodes the platform schedules onto (storage hosts are
/// carved out of the cluster at build).
fn compute_nodes() -> usize {
    build().0.node_count()
}

fn inputs(seed: u64, compute: usize) -> Inputs {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    // Oversubscribe the nodes serving leaves free by about 15%, so the
    // queue never drains and backfill always has work.
    let headroom = compute - SERVE_REPLICAS as usize * NODES_PER_REPLICA;
    let mut want = headroom + headroom / 7;
    let mut jobs = Vec::new();
    while want > 0 {
        let i = jobs.len();
        let (name, need, prio, work) = match i % 10 {
            0 => ("pretrain", rng.gen_range(24..41usize), 10, 100_000u64),
            1..=4 => (
                "research",
                rng.gen_range(4..17usize),
                5,
                rng.gen_range(900..2400u64),
            ),
            _ => (
                "dev",
                rng.gen_range(1..5usize),
                0,
                rng.gen_range(200..900u64),
            ),
        };
        jobs.push(
            JobSpec::new(format!("{name}-{i}"), need, work)
                .priority(prio)
                .step_bytes(16.0 * (1u64 << 30) as f64)
                .ckpt_bytes(32.0 * (1u64 << 30) as f64),
        );
        want = want.saturating_sub(need);
    }
    let trace = ArrivalTrace::generate(
        seed ^ 0xA11CE,
        &ArrivalConfig {
            duration_s: HORIZON_S as f64,
            // One compressed day per hour, so the replay sees the swing.
            diurnal_period_s: HORIZON_S as f64,
            ..ArrivalConfig::default()
        },
    );
    let base = GrayRates::default();
    let rates = GrayRates {
        stragglers_per_year: base.stragglers_per_year * FAULT_SCALE,
        flaps_per_year: base.flaps_per_year * FAULT_SCALE,
        throttles_per_year: base.throttles_per_year * FAULT_SCALE,
    };
    Inputs {
        jobs,
        serving: ServingSpec::new("serve", SERVE_REPLICAS, NODES_PER_REPLICA, trace),
        faults: FaultPlan::generate(seed, NODES, HORIZON_S as f64, FAULT_SCALE),
        gray: GrayPlan::generate(seed, compute, HORIZON_S as f64, &rates),
    }
}

fn build() -> (Platform, Arc<Recorder>) {
    let rec = Recorder::new();
    let p = PlatformConfig::new()
        .cluster(ClusterModel::build(&ClusterConfig::fire_flyer(NODES)))
        // 300-step cadence ≈ the paper's 5-minute checkpoints at ~1 s/step.
        .ckpt_interval(300)
        .repair_delay_s(1800)
        .validation_s(120)
        .detector(DetectorConfig::balanced())
        .recorder(rec.clone())
        .build()
        .expect("64-node fluid platform builds");
    (p, rec)
}

/// A platform with every input submitted and every fault planned.
struct World {
    p: Platform,
    rec: Arc<Recorder>,
    sid: ServingId,
    /// Seconds spent in build, submit and plan.
    setup: [f64; 3],
}

fn setup(inputs: Inputs) -> World {
    let (build_s, (mut p, rec)) = timed(|| trace::span("platform.build", build));
    let (submit_s, sid) = timed(|| {
        trace::span("platform.submit", || {
            let sid = p
                .submit_serving(inputs.serving)
                .expect("serving fits the cluster");
            for job in inputs.jobs {
                p.submit(job).expect("mix job fits the cluster");
            }
            sid
        })
    });
    let (plan_s, ()) = timed(|| {
        trace::span("platform.plan", || {
            p.apply_fault_plan(&inputs.faults);
            p.apply_gray_plan(&inputs.gray);
        })
    });
    World {
        p,
        rec,
        sid,
        setup: [build_s, submit_s, plan_s],
    }
}

/// The simulated outcome: a pure performance change leaves it equal.
#[derive(Debug, Clone, PartialEq)]
struct Outcome {
    digest: String,
    events: usize,
    failures: u64,
    preemptions: u64,
    quarantines: u64,
    lost_work_s: u64,
    utilization: f64,
    serving_completed: u64,
    serving_attainment: f64,
}

/// One replay's measurements.
struct Replay {
    setup: [f64; 3],
    tick_s: Vec<f64>,
    /// The median reference time over the replay, its host speed; NaN
    /// when no reference was timed.
    reference_s: f64,
    outcome: Outcome,
    digest_s: f64,
    chrome_s: f64,
}

fn replay(inputs: &Inputs, reference: Option<&Reference>, export: bool) -> Replay {
    let mut w = setup(inputs.clone());
    let mut tick_s = Vec::new();
    let mut refs = Vec::new();
    let mut now = 0;
    while now < HORIZON_S {
        let dt = TICK_S.min(HORIZON_S - now);
        tick_s.push(timed(|| trace::span("platform.tick", || w.p.tick(dt))).0);
        now += dt;
        if let Some(reference) = reference.filter(|_| tick_s.len() % REF_EVERY == 0) {
            refs.push(reference.time());
        }
    }
    let (digest_s, digest) = timed(|| trace::span("obs.digest", || w.rec.digest()));
    let chrome_s = if export {
        let (t, json) = timed(|| {
            trace::span("obs.chrome_export", || {
                ff_obs::chrome::export_chrome_json(&w.rec)
            })
        });
        std::hint::black_box(json);
        t
    } else {
        0.0
    };
    let serving = w.p.serving_report(w.sid).expect("serving job exists");
    Replay {
        setup: w.setup,
        tick_s,
        reference_s: reference.map_or(f64::NAN, |_| median(&refs)),
        digest_s,
        chrome_s,
        outcome: Outcome {
            digest,
            events: w.rec.event_count(),
            failures: w.p.failures(),
            preemptions: w.p.preemptions(),
            quarantines: w.p.detector_quarantines(),
            lost_work_s: w.p.lost_work_s(),
            utilization: w.p.utilization(),
            serving_completed: serving.completed,
            serving_attainment: serving.attainment,
        },
    }
}

/// Replays the input sets in turn until the budget is spent and each has
/// run `min_replays` times; every replay is checked against its set's
/// first. Returns the replays by set.
fn phase(
    sets: &[Inputs],
    reference: &Reference,
    budget: std::time::Duration,
    min_replays: usize,
    export: bool,
    ledger: &mut Ledger,
) -> Vec<Vec<Replay>> {
    let mut out: Vec<Vec<Replay>> = sets.iter().map(|_| Vec::new()).collect();
    let mut next = 0;
    crate::stats::repeat_for(budget, sets.len() * min_replays, || {
        let k = next % sets.len();
        next += 1;
        let r = replay(&sets[k], Some(reference), export);
        if let Some(first) = out[k].first() {
            ledger.check(
                r.outcome == first.outcome,
                "replays of the same inputs differ",
            );
        }
        ledger.check(r.outcome.serving_completed > 0, "replay served no request");
        out[k].push(r);
    });
    out
}

impl Replay {
    /// Each tick's time at the reference host speed.
    fn ticks_at_nominal(&self) -> Vec<f64> {
        self.tick_s
            .iter()
            .map(|&t| at_nominal(t, self.reference_s))
            .collect()
    }

    /// Each tick's time as measured.
    fn ticks_raw(&self) -> Vec<f64> {
        self.tick_s.clone()
    }
}

/// Each input set's simulated hour at median speed: the sum of its ticks'
/// medians across its replays, with tick times taken by `ticks`.
fn set_hours_s(by_set: &[Vec<Replay>], ticks: fn(&Replay) -> Vec<f64>) -> Vec<f64> {
    by_set
        .iter()
        .map(|rs| median_of_parts(&rs.iter().map(ticks).collect::<Vec<_>>()))
        .collect()
}

/// The simulated hour at median speed, averaged over the input sets.
fn hour_p50_s(by_set: &[Vec<Replay>], ticks: fn(&Replay) -> Vec<f64>) -> f64 {
    set_hours_s(by_set, ticks).iter().sum::<f64>() / by_set.len() as f64
}

/// The `cluster-replay` workload.
pub fn cluster_replay(args: &Args) -> Report {
    let compute = compute_nodes();
    let mut seeds = ChaCha8Rng::seed_from_u64(args.seed);
    let sets: Vec<Inputs> = (0..INPUT_SETS)
        .map(|_| inputs(seeds.next_u64(), compute))
        .collect();
    let budget = args.budget();
    let mut ledger = Ledger::default();
    // One untimed replay of the first set: it warms caches and the
    // allocator, and gives the peak resident memory before the
    // reference's own memory joins it.
    let warm = replay(&sets[0], None, false);
    let rss_mb = peak_rss_mb();
    let reference = Reference::new();
    let plain = phase(&sets, &reference, budget, MIN_REPLAYS, false, &mut ledger);
    ledger.check(
        warm.outcome == plain[0][0].outcome,
        "the warm-up replay differs from the timed ones",
    );
    // Every replay's own set-up is a sample: at least ten, over the run.
    let setups: Vec<f64> = plain
        .iter()
        .flatten()
        .map(|r| at_nominal(r.setup.iter().sum(), r.reference_s))
        .collect();
    let mut report = Report::new(median(&setups));
    report.ledger = ledger;
    report.peak_rss_mb = rss_mb;
    report.solver_threads = 1;
    let p50 = hour_p50_s(&plain, Replay::ticks_at_nominal);
    report.op_p50_s = p50;
    let ms = |hours: Vec<f64>| hours.iter().map(|h| h * 1e3).collect::<Vec<_>>();
    report.note(format!(
        "op: simulated hour, {} input sets, replays {:?}, hours {:.3?} ms: {:.6} ms at median \
         speed and the reference speed (hours {:.3?} ms, {:.6} ms as measured)",
        plain.len(),
        plain.iter().map(Vec::len).collect::<Vec<_>>(),
        ms(set_hours_s(&plain, Replay::ticks_at_nominal)),
        p50 * 1e3,
        ms(set_hours_s(&plain, Replay::ticks_raw)),
        hour_p50_s(&plain, Replay::ticks_raw) * 1e3
    ));
    report.note(format!(
        "replay_sim_s_per_s {:.6} at the reference speed; digests {:?}",
        HORIZON_S as f64 / p50,
        plain
            .iter()
            .map(|rs| &rs[0].outcome.digest)
            .collect::<Vec<_>>()
    ));
    if !args.trace {
        return report;
    }

    trace::set_enabled(true);
    // One replay of each set is enough for the layer split; the traced
    // run's untraced phase above already took MIN_REPLAYS of each.
    let traced = phase(&sets, &reference, budget, 1, true, &mut report.ledger);
    trace::set_enabled(false);
    let spans = trace::take();
    for (t, p) in traced.iter().zip(&plain) {
        report.ledger.check(
            t[0].outcome == p[0].outcome,
            "traced replay differs from the untraced one",
        );
    }
    let all: Vec<&Replay> = traced.iter().flatten().collect();
    let mean =
        |f: &dyn Fn(&Replay) -> f64| all.iter().map(|r| f(r)).sum::<f64>() / all.len() as f64;
    let ticks: Vec<f64> = all.iter().flat_map(|r| r.tick_s.iter().copied()).collect();
    let o = &traced[0][0].outcome;
    report.layer(
        "trace.overhead_frac",
        hour_p50_s(&traced, Replay::ticks_at_nominal) / p50 - 1.0,
    );
    report.layer("platform.build_s", mean(&|r| r.setup[0]));
    report.layer("platform.submit_s", mean(&|r| r.setup[1]));
    report.layer("platform.plan_s", mean(&|r| r.setup[2]));
    report.layer("platform.tick_s", mean(&|r| r.tick_s.iter().sum()));
    report.layer("platform.tick_p50_ms", median(&ticks) * 1e3);
    report.layer(
        "platform.tick_max_ms",
        ticks.iter().copied().fold(0.0, f64::max) * 1e3,
    );
    report.layer("platform.failures", o.failures as f64);
    report.layer("platform.preemptions", o.preemptions as f64);
    report.layer("platform.detector_quarantines", o.quarantines as f64);
    report.layer("platform.lost_work_s", o.lost_work_s as f64);
    report.layer("platform.utilization", o.utilization);
    report.layer("serving.completed", o.serving_completed as f64);
    report.layer("serving.attainment", o.serving_attainment);
    report.layer("obs.events", o.events as f64);
    report.layer("obs.digest_s", mean(&|r| r.digest_s));
    report.layer("obs.chrome_export_s", mean(&|r| r.chrome_s));
    crate::write_spans(&args.workload, &spans);
    report
}
