//! A host-speed reference for the two simulation workloads.
//!
//! On a shared host, pointer-heavy code of the fluid solver's kind drifts
//! in speed by a third over minutes with what the rest of the host runs,
//! and a slow spell can outlast a whole run, so no statistic inside one
//! run removes it. A reference timed beside each unit of work drifts with
//! it when the two are the same kind of code: this is a fixed max-min
//! fair-share kernel (progressive filling over flows that cross shared
//! resources, from a heap of fair shares), written here and frozen, so no
//! change to the program moves it. Dividing a sample by the reference
//! timed next to it, and multiplying by [`NOMINAL_S`], gives the sample's
//! time at a fixed host speed.
//!
//! Generic references do not track the solver: on the 2-core host the
//! README describes, a dependent walk through 1 MiB or 32 MiB and an ALU
//! loop left the drift of the solver's 10-second medians as it was (about
//! 0.15 between quartiles), while a kernel of this kind brought it to
//! about 0.04.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Resources in the reference network.
const RESOURCES: usize = 16_384;
/// Flows in it, each crossing 3 to 7 distinct resources. With the
/// routes, per-resource flow lists and per-flow state this is a working
/// set of about 3 MiB, past a core's L2 like the simulations' own: a
/// reference that fits in L2 slowed only half as much as they did when
/// the host got busier over minutes.
const FLOWS: usize = 2 * RESOURCES;

/// Median seconds of one [`Reference::time`] call on the README's 2-core
/// host, a fixed scale: times are reported as if every reference call
/// had taken this long.
pub const NOMINAL_S: f64 = 0.045;

/// The reference kernel's fixed network.
pub struct Reference {
    cap: Vec<f64>,
    routes: Vec<Vec<u32>>,
    by_res: Vec<Vec<u32>>,
    size: Vec<f64>,
}

/// The xorshift64 step: a generator fixed here, so the network never
/// changes with a library.
fn next(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// A fair share, ordered for the heap.
#[derive(PartialEq)]
struct Share(f64);

impl Eq for Share {}

impl PartialOrd for Share {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Share {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl Reference {
    /// The reference network, always the same.
    pub fn new() -> Reference {
        let mut s = 7;
        let cap = (0..RESOURCES)
            .map(|_| 1.0 + (next(&mut s) % 100) as f64)
            .collect();
        let mut routes = Vec::with_capacity(FLOWS);
        let mut by_res = vec![Vec::new(); RESOURCES];
        let mut size = Vec::with_capacity(FLOWS);
        for f in 0..FLOWS {
            let len = 3 + (next(&mut s) % 5) as usize;
            let mut r: Vec<u32> = (0..len)
                .map(|_| (next(&mut s) % RESOURCES as u64) as u32)
                .collect();
            r.sort_unstable();
            r.dedup();
            for &x in &r {
                by_res[x as usize].push(f as u32);
            }
            routes.push(r);
            size.push(1.0 + (next(&mut s) % 1000) as f64);
        }
        Reference {
            cap,
            routes,
            by_res,
            size,
        }
    }

    /// Simulates `events` completions, computing every live flow's
    /// max-min fair rate before each; returns the simulated time reached.
    fn run(&self, events: usize) -> f64 {
        let (nr, nf) = (self.cap.len(), self.routes.len());
        let mut left = self.size.clone();
        let mut alive = vec![true; nf];
        let mut rate = vec![0.0f64; nf];
        let mut rem = vec![0.0f64; nr];
        let mut active = vec![0u32; nr];
        let mut frozen = vec![false; nf];
        let mut heap = BinaryHeap::with_capacity(nr);
        let mut now = 0.0;
        for _ in 0..events {
            rem.copy_from_slice(&self.cap);
            for (r, flows) in self.by_res.iter().enumerate() {
                active[r] = flows.iter().filter(|&&f| alive[f as usize]).count() as u32;
                if active[r] > 0 {
                    heap.push(Reverse((Share(rem[r] / active[r] as f64), r)));
                }
            }
            for (fz, &a) in frozen.iter_mut().zip(&alive) {
                *fz = !a;
            }
            // Progressive filling: the resource with the smallest fair
            // share fixes the rate of every unfrozen flow crossing it.
            // Freezing a flow only raises the shares of its other
            // resources, so an entry whose share is out of date is
            // skipped and the fresh one, pushed later, comes after it.
            while let Some(Reverse((Share(share), b))) = heap.pop() {
                if active[b] == 0 || share != rem[b] / active[b] as f64 {
                    continue;
                }
                for &f in &self.by_res[b] {
                    let f = f as usize;
                    if frozen[f] {
                        continue;
                    }
                    frozen[f] = true;
                    rate[f] = share;
                    for &x in &self.routes[f] {
                        let x = x as usize;
                        rem[x] -= share;
                        active[x] -= 1;
                        if x != b && active[x] > 0 {
                            heap.push(Reverse((Share(rem[x] / active[x] as f64), x)));
                        }
                    }
                }
            }
            let (mut dt, mut first) = (f64::INFINITY, None);
            for f in 0..nf {
                if alive[f] && left[f] / rate[f] < dt {
                    dt = left[f] / rate[f];
                    first = Some(f);
                }
            }
            let Some(done) = first else { break };
            now += dt;
            for f in 0..nf {
                if alive[f] {
                    left[f] -= rate[f] * dt;
                }
            }
            alive[done] = false;
        }
        now
    }

    /// Seconds one reference call, one completion, takes now.
    pub fn time(&self) -> f64 {
        crate::stats::timed(|| std::hint::black_box(self.run(std::hint::black_box(1)))).0
    }
}

/// `sample_s` at the reference host speed, given `reference_s`, the
/// reference timed next to it.
pub fn at_nominal(sample_s: f64, reference_s: f64) -> f64 {
    sample_s * NOMINAL_S / reference_s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_are_max_min_fair() {
        // Two flows share resource 0; one also crosses resource 1, whose
        // capacity is the smaller, so it is its bottleneck.
        let r = Reference {
            cap: vec![10.0, 2.0],
            routes: vec![vec![0], vec![0, 1]],
            by_res: vec![vec![0, 1], vec![1]],
            size: vec![16.0, 4.0],
        };
        // Flow 1 runs at 2 and ends at t = 2; flow 0 runs at 8 until then
        // (16 left after 2 s: 0), so both end at t = 2.
        assert_eq!(r.run(1), 2.0);
        assert_eq!(r.run(2), 2.0);
    }

    #[test]
    fn the_reference_network_never_changes() {
        let (a, b) = (Reference::new(), Reference::new());
        assert_eq!(a.routes, b.routes);
        assert_eq!(a.run(2).to_bits(), b.run(2).to_bits());
        assert!(a.run(2) > a.run(1));
    }

    #[test]
    fn at_nominal_scales_by_the_reference() {
        assert_eq!(at_nominal(1.0, NOMINAL_S), 1.0);
        assert_eq!(at_nominal(1.0, 2.0 * NOMINAL_S), 0.5);
    }
}
