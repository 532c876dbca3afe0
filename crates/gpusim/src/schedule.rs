//! Resource-constrained concurrent-kernel scheduler.
//!
//! CUDA-era concurrency in one sentence: kernels from different streams may
//! overlap as long as (a) the device has SM resources left and (b) the
//! hardware's concurrent-kernel cap is not exceeded. The paper leans on this
//! for Optimization 1 and states the effective concurrency as
//! `P = min(N, M)` where `N` is the hardware cap and `M` is how many copies
//! of the kernel fit resource-wise. This module realizes exactly that rule
//! as an incremental interval-placement problem on the virtual timeline:
//! each kernel occupies `resource ∈ (0, 1]` of the device for its duration,
//! the sum of active resources may not exceed 1, and the number of active
//! kernels may not exceed `N`.

use crate::time::SimTime;

/// One scheduled execution on the device.
#[derive(Debug, Clone, Copy)]
pub struct Interval {
    /// Start time (inclusive).
    pub start: f64,
    /// End time (exclusive).
    pub end: f64,
    /// Device fraction occupied.
    pub resource: f64,
}

/// Incremental first-fit scheduler over the device timeline.
///
/// Kernels are placed in issue order (as real command queues admit them) at
/// the earliest time that satisfies both constraints for their entire
/// duration — kernels never migrate or preempt once placed.
///
/// The placed intervals are kept sorted by end time. An interval that ends
/// at or before a time `t` is inactive at every point `p ≥ t` (activity
/// needs `p < end − EPS`) and contributes no boundary point there, so a
/// placement at or after `t` never needs to look at it: [`Self::place`]
/// binary-searches past the intervals ended by each candidate start, and
/// [`Self::prune`] drains a prefix.
#[derive(Debug)]
pub struct KernelScheduler {
    /// Placed intervals, sorted by end time (ties in placement order).
    active: Vec<Interval>,
    max_concurrent: usize,
    /// Total busy time × resource (for utilization reporting).
    busy_integral: f64,
}

const EPS: f64 = 1e-9;

impl KernelScheduler {
    /// New scheduler for a device admitting at most `max_concurrent`
    /// simultaneous kernels.
    pub fn new(max_concurrent: usize) -> Self {
        KernelScheduler {
            active: Vec::new(),
            max_concurrent: max_concurrent.max(1),
            busy_integral: 0.0,
        }
    }

    /// Number of leading intervals that end at or before `t`.
    fn ended_by(&self, t: f64) -> usize {
        self.active.partition_point(|iv| iv.end <= t)
    }

    /// Place a kernel requiring `resource` of the device for `duration`,
    /// starting no earlier than `earliest`. Returns `(start, end)`.
    pub fn place(
        &mut self,
        earliest: SimTime,
        duration: SimTime,
        resource: f64,
    ) -> (SimTime, SimTime) {
        let resource = resource.clamp(EPS, 1.0);
        let d = duration.as_secs().max(0.0);

        // Candidate start times: `earliest` itself, then each moment an
        // existing interval frees its resources — the distinct ends after
        // `earliest`, which the sort by end yields in ascending order. For
        // each candidate only the intervals ending after it can matter.
        let mut start = earliest.as_secs();
        let mut live = self.ended_by(start);
        loop {
            live += self.active[live..].partition_point(|iv| iv.end <= start);
            if self.fits(&self.active[live..], start, d, resource) {
                break;
            }
            // An empty suffix always fits, so a later end exists.
            start = self.active[live].end;
        }

        let iv = Interval {
            start,
            end: start + d,
            resource,
        };
        let at = self.ended_by(iv.end);
        self.active.insert(at, iv);
        self.busy_integral += d * resource;
        (SimTime::secs(iv.start), SimTime::secs(iv.end))
    }

    /// Can a kernel `(resource, duration d)` run throughout `[t, t+d)`,
    /// given the intervals `live` that end after `t`?
    fn fits(&self, live: &[Interval], t: f64, d: f64, resource: f64) -> bool {
        // Constraints only change at interval starts/ends, so it suffices to
        // check every boundary point inside the window plus the window start.
        let end = t + d;
        let fits_at = |p: f64| {
            let mut usage = 0.0;
            let mut count = 0usize;
            for iv in live {
                // Active on [start, end): p inside?
                if iv.start <= p + EPS && p < iv.end - EPS {
                    usage += iv.resource;
                    count += 1;
                }
            }
            usage + resource <= 1.0 + EPS && count < self.max_concurrent
        };
        let inside = |p: f64| p > t && p < end;
        fits_at(t)
            && live.iter().all(|iv| {
                (!inside(iv.start) || fits_at(iv.start)) && (!inside(iv.end) || fits_at(iv.end))
            })
    }

    /// Drop intervals that can no longer influence placement (everything
    /// ending at or before `horizon`). Call with the host clock after syncs;
    /// later placements must not ask for an `earliest` before `horizon`.
    pub fn prune(&mut self, horizon: SimTime) {
        let ended = self.ended_by(horizon.as_secs());
        self.active.drain(..ended);
    }

    /// Number of intervals still tracked.
    pub fn tracked(&self) -> usize {
        self.active.len()
    }

    /// Integral of (resource × time) consumed so far — divide by a span to
    /// get average device utilization.
    pub fn busy_integral(&self) -> f64 {
        self.busy_integral
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::secs(s)
    }

    #[test]
    fn full_device_kernels_serialize() {
        let mut s = KernelScheduler::new(16);
        let (a0, a1) = s.place(t(0.0), t(1.0), 1.0);
        let (b0, b1) = s.place(t(0.0), t(1.0), 1.0);
        assert_eq!(a0.as_secs(), 0.0);
        assert_eq!(a1.as_secs(), 1.0);
        assert_eq!(b0.as_secs(), 1.0);
        assert_eq!(b1.as_secs(), 2.0);
    }

    #[test]
    fn quarter_kernels_run_four_wide() {
        let mut s = KernelScheduler::new(16);
        let mut ends = Vec::new();
        for _ in 0..8 {
            let (_, e) = s.place(t(0.0), t(1.0), 0.25);
            ends.push(e.as_secs());
        }
        // 8 kernels, 4 concurrent → makespan 2, not 8.
        let makespan = ends.iter().cloned().fold(0.0, f64::max);
        assert!((makespan - 2.0).abs() < 1e-9, "makespan {makespan}");
    }

    #[test]
    fn hardware_cap_limits_concurrency() {
        let mut s = KernelScheduler::new(2); // N = 2 although M = 10
        let mut ends = Vec::new();
        for _ in 0..4 {
            let (_, e) = s.place(t(0.0), t(1.0), 0.1);
            ends.push(e.as_secs());
        }
        let makespan = ends.iter().cloned().fold(0.0, f64::max);
        assert!((makespan - 2.0).abs() < 1e-9, "makespan {makespan}");
    }

    #[test]
    fn small_kernel_fills_gap_next_to_big_one() {
        let mut s = KernelScheduler::new(16);
        s.place(t(0.0), t(2.0), 0.5);
        let (b0, _) = s.place(t(0.0), t(1.0), 0.5);
        assert_eq!(b0.as_secs(), 0.0, "co-scheduled beside the big kernel");
        // A third half-device kernel must wait for one of them to end.
        let (c0, _) = s.place(t(0.0), t(1.0), 0.75);
        assert!(c0.as_secs() >= 1.0, "start {}", c0.as_secs());
    }

    #[test]
    fn earliest_constraint_respected() {
        let mut s = KernelScheduler::new(4);
        let (a0, _) = s.place(t(5.0), t(1.0), 1.0);
        assert_eq!(a0.as_secs(), 5.0);
    }

    #[test]
    fn oversized_resource_clamps_to_whole_device() {
        let mut s = KernelScheduler::new(4);
        let (_, a1) = s.place(t(0.0), t(1.0), 7.0);
        let (b0, _) = s.place(t(0.0), t(1.0), 7.0);
        assert_eq!(b0.as_secs(), a1.as_secs());
    }

    #[test]
    fn prune_discards_finished_intervals() {
        let mut s = KernelScheduler::new(4);
        for _ in 0..10 {
            s.place(t(0.0), t(1.0), 1.0);
        }
        assert_eq!(s.tracked(), 10);
        s.prune(t(5.0));
        assert_eq!(s.tracked(), 5);
        // Placement still correct after pruning, for requests honoring the
        // prune contract (earliest >= horizon).
        let (c0, _) = s.place(t(5.0), t(1.0), 1.0);
        assert_eq!(c0.as_secs(), 10.0);
    }

    #[test]
    fn zero_duration_kernel_is_instant() {
        let mut s = KernelScheduler::new(4);
        let (a0, a1) = s.place(t(3.0), t(0.0), 1.0);
        assert_eq!(a0.as_secs(), 3.0);
        assert_eq!(a1.as_secs(), 3.0);
    }

    #[test]
    fn busy_integral_accumulates() {
        let mut s = KernelScheduler::new(4);
        s.place(t(0.0), t(2.0), 0.5);
        s.place(t(0.0), t(1.0), 1.0);
        assert!((s.busy_integral() - 2.0).abs() < 1e-12);
    }
}

/// Equivalence of [`KernelScheduler`] with the plain first-fit it replaced:
/// rescan every tracked interval, candidates and fit points included, at
/// every placement.
#[cfg(test)]
mod equivalence {
    use super::{Interval, KernelScheduler, EPS};
    use crate::time::SimTime;
    use proptest::prelude::*;

    /// The reference first-fit: `active` in placement order, every interval
    /// considered for every candidate.
    struct FirstFit {
        active: Vec<Interval>,
        max_concurrent: usize,
    }

    impl FirstFit {
        fn new(max_concurrent: usize) -> Self {
            FirstFit {
                active: Vec::new(),
                max_concurrent: max_concurrent.max(1),
            }
        }

        fn place(&mut self, e: f64, d: f64, resource: f64) -> (f64, f64) {
            let resource = resource.clamp(EPS, 1.0);
            let d = d.max(0.0);
            let mut candidates: Vec<f64> = vec![e];
            for iv in &self.active {
                if iv.end > e {
                    candidates.push(iv.end);
                }
            }
            candidates.sort_by(|a, b| a.partial_cmp(b).expect("times are finite"));
            candidates.dedup();
            let start = candidates
                .into_iter()
                .find(|&t| self.fits(t, d, resource))
                .expect("device eventually drains, so a slot always exists");
            self.active.push(Interval {
                start,
                end: start + d,
                resource,
            });
            (start, start + d)
        }

        fn fits(&self, t: f64, d: f64, resource: f64) -> bool {
            let end = t + d;
            let mut points: Vec<f64> = vec![t];
            for iv in &self.active {
                if iv.start > t && iv.start < end {
                    points.push(iv.start);
                }
                if iv.end > t && iv.end < end {
                    points.push(iv.end);
                }
            }
            points.iter().all(|&p| {
                let mut usage = 0.0;
                let mut count = 0usize;
                for iv in &self.active {
                    if iv.start <= p + EPS && p < iv.end - EPS {
                        usage += iv.resource;
                        count += 1;
                    }
                }
                usage + resource <= 1.0 + EPS && count < self.max_concurrent
            })
        }

        fn prune(&mut self, h: f64) {
            self.active.retain(|iv| iv.end > h);
        }
    }

    /// The device fractions of the shipped profiles, plus two that pack
    /// exactly.
    const RESOURCES: [f64; 6] = [1.0, 0.93, 0.33, 1.0 / 32.0, 0.25, 0.5];
    const CAPS: [usize; 5] = [1, 2, 3, 16, 32];

    #[derive(Debug, Clone)]
    enum Op {
        /// Place at `horizon + offset` for `duration` with `RESOURCES[r]`.
        Place {
            offset: f64,
            duration: f64,
            r: usize,
        },
        /// Advance the horizon by `step` and prune there.
        Prune { step: f64 },
    }

    /// Times drawn from a coarse grid (so starts coincide with ends, as
    /// stream-ordered launches do) or from a continuum.
    fn time(max: f64) -> impl Strategy<Value = f64> {
        prop_oneof![
            (0u32..8).prop_map(move |k| k as f64 * max / 8.0),
            0.0f64..max,
        ]
    }

    fn place() -> impl Strategy<Value = Op> {
        (time(3.0), time(2.0), 0usize..RESOURCES.len()).prop_map(|(offset, duration, r)| {
            Op::Place {
                offset,
                duration,
                r,
            }
        })
    }

    /// Placements twice as often as prunes, so queues build up between
    /// syncs as they do on launch-heavy phases.
    fn ops() -> impl Strategy<Value = Vec<Op>> {
        let op = prop_oneof![
            place(),
            place(),
            time(1.0).prop_map(|step| Op::Prune { step }),
        ];
        proptest::collection::vec(op, 1..160)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Placement by placement, the sorted scheduler returns the
        /// reference's `(start, end)` bit for bit, across prunes that honour
        /// the contract (`earliest ≥ horizon`).
        #[test]
        fn matches_reference_first_fit(ops in ops(), cap in 0usize..CAPS.len()) {
            let cap = CAPS[cap];
            let mut fast = KernelScheduler::new(cap);
            let mut reference = FirstFit::new(cap);
            let mut horizon = 0.0f64;
            for (k, op) in ops.iter().enumerate() {
                match *op {
                    Op::Place { offset, duration, r } => {
                        let e = horizon + offset;
                        let (s, t) = fast.place(
                            SimTime::secs(e),
                            SimTime::secs(duration),
                            RESOURCES[r],
                        );
                        let want = reference.place(e, duration, RESOURCES[r]);
                        prop_assert_eq!(
                            (s.as_secs().to_bits(), t.as_secs().to_bits()),
                            (want.0.to_bits(), want.1.to_bits()),
                            "placement {} of {:?} (cap {})", k, op, cap
                        );
                    }
                    Op::Prune { step } => {
                        horizon += step;
                        fast.prune(SimTime::secs(horizon));
                        reference.prune(horizon);
                        prop_assert_eq!(fast.tracked(), reference.active.len());
                    }
                }
            }
        }
    }
}
