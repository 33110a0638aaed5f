//! Property-based tests of the trace substrate: CDF/percentile laws,
//! VM-trace window clipping, and distribution bounds.

use proptest::prelude::*;

use hrv_trace::dist::{BoundedPareto, Clamped, LogUniform, Sampler, UniformDist};
use hrv_trace::faas::{Workload, WorkloadSpec};
use hrv_trace::harvest::{CpuChange, VmEnd, VmTrace};
use hrv_trace::rng::SeedFactory;
use hrv_trace::stats::Cdf;
use hrv_trace::stream::{ArrivalStream, WorkloadStream};
use hrv_trace::time::{SimDuration, SimTime};

proptest! {
    /// The streaming k-way merge emits exactly the same
    /// `(id, arrival, function, duration)` sequence as the materialized
    /// `Workload::invocations` for arbitrary workload shapes, horizons,
    /// and seeds — both F_small- and F_large-shaped (bursty) app mixes.
    #[test]
    fn streaming_merge_matches_materialized(
        seed in any::<u64>(),
        n_apps in 2usize..24,
        total_rps in 0.2f64..25.0,
        horizon_mins in 1u64..20,
        flarge in any::<bool>(),
    ) {
        let spec = if flarge {
            WorkloadSpec::paper_flarge_scaled(n_apps).scaled(n_apps, total_rps)
        } else {
            WorkloadSpec::paper_fsmall().scaled(n_apps, total_rps)
        };
        let seeds = SeedFactory::new(seed);
        let horizon = SimDuration::from_mins(horizon_mins);
        let trace = Workload::generate(&spec, &seeds).invocations(horizon, &seeds);
        let mut stream = WorkloadStream::from_spec(&spec, horizon, &seeds);
        for (i, expected) in trace.iter().enumerate() {
            let got = stream.next_invocation();
            prop_assert_eq!(got.as_ref(), Some(expected), "diverged at index {}", i);
        }
        prop_assert_eq!(stream.next_invocation(), None);
    }

    /// Percentiles are monotone in `p`, bounded by min/max, and
    /// `fraction_at_or_below` is a non-decreasing CDF.
    #[test]
    fn cdf_laws(samples in prop::collection::vec(-1.0e6f64..1.0e6, 1..500)) {
        let cdf = Cdf::from_samples(samples.clone());
        let mut prev = f64::NEG_INFINITY;
        for p in [0.0, 10.0, 50.0, 90.0, 99.0, 100.0] {
            let v = cdf.percentile(p);
            prop_assert!(v >= prev - 1e-12);
            prop_assert!(v >= cdf.min() - 1e-12 && v <= cdf.max() + 1e-12);
            prev = v;
        }
        let probes = [-1.0e6, -10.0, 0.0, 10.0, 1.0e6];
        let mut prev_frac = -1.0;
        for &x in &probes {
            let frac = cdf.fraction_at_or_below(x);
            prop_assert!((0.0..=1.0).contains(&frac));
            prop_assert!(frac >= prev_frac);
            prev_frac = frac;
        }
        prop_assert!((cdf.fraction_at_or_below(cdf.max()) - 1.0).abs() < 1e-12);
    }

    /// Samplers respect their advertised support.
    #[test]
    fn samplers_respect_bounds(seed in any::<u64>()) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let u = UniformDist::new(2.0, 9.0);
        let lu = LogUniform::new(0.5, 100.0);
        let bp = BoundedPareto::new(1.0, 50.0, 1.2);
        let cl = Clamped::new(Box::new(LogUniform::new(0.01, 1e6)), 3.0, 4.0);
        for _ in 0..64 {
            prop_assert!((2.0..9.0).contains(&u.sample(&mut rng)));
            prop_assert!((0.5..100.0).contains(&lu.sample(&mut rng)));
            let x = bp.sample(&mut rng);
            prop_assert!((1.0..=50.0).contains(&x));
            let y = cl.sample(&mut rng);
            prop_assert!((3.0..=4.0).contains(&y));
        }
    }

    /// Clipping a VM trace to any window preserves the CPU timeline on
    /// the overlap and produces a valid trace.
    #[test]
    fn vm_clip_preserves_timeline(
        deploy_s in 0u64..1_000,
        life_s in 10u64..5_000,
        changes in prop::collection::vec((1u64..5_000, 2u32..32), 0..10),
        win_start_s in 0u64..4_000,
        win_len_s in 10u64..4_000,
    ) {
        let deploy = SimTime::from_secs(deploy_s);
        let end = deploy + SimDuration::from_secs(life_s);
        // Build strictly ordered changes inside (deploy, end).
        let mut offsets: Vec<(u64, u32)> = changes;
        offsets.sort_by_key(|&(o, _)| o);
        offsets.dedup_by_key(|&mut (o, _)| o);
        let cpu_changes: Vec<CpuChange> = offsets
            .into_iter()
            .filter(|&(o, _)| o > 0 && o < life_s)
            .map(|(o, c)| CpuChange {
                at: deploy + SimDuration::from_secs(o),
                cpus: c,
            })
            .collect();
        let vm = VmTrace {
            deploy,
            end,
            ended: VmEnd::Evicted,
            base_cpus: 2,
            max_cpus: 32,
            initial_cpus: 16,
            memory_mb: 16_384,
            cpu_changes,
        };
        vm.validate();
        let win_start = SimTime::from_secs(win_start_s);
        let win_len = SimDuration::from_secs(win_len_s);
        match vm.clip_to_window(win_start, win_len) {
            None => {
                // No overlap means the VM is entirely outside the window.
                prop_assert!(vm.end <= win_start || vm.deploy >= win_start + win_len);
            }
            Some(clipped) => {
                clipped.validate();
                prop_assert!(clipped.end.as_micros() <= win_len.as_micros());
                // Probe the CPU timeline at several points of the overlap.
                for k in 0..10u64 {
                    let offset = SimDuration::from_secs(k * win_len_s / 10);
                    let t_abs = win_start + offset;
                    let t_rel = SimTime::ZERO + offset;
                    if t_abs >= vm.deploy.max(win_start)
                        && t_abs < vm.end.min(win_start + win_len)
                    {
                        prop_assert_eq!(
                            vm.cpus_at(t_abs),
                            clipped.cpus_at(t_rel),
                            "timeline diverged at {:?}", t_abs
                        );
                    }
                }
            }
        }
    }

    /// `cpu_seconds` equals a brute-force Riemann sum of `cpus_at`.
    #[test]
    fn cpu_seconds_matches_pointwise_integral(
        life_s in 10u64..500,
        changes in prop::collection::vec((1u64..500, 2u32..32), 0..8),
    ) {
        let deploy = SimTime::ZERO;
        let end = SimTime::from_secs(life_s);
        let mut offsets: Vec<(u64, u32)> = changes;
        offsets.sort_by_key(|&(o, _)| o);
        offsets.dedup_by_key(|&mut (o, _)| o);
        let cpu_changes: Vec<CpuChange> = offsets
            .into_iter()
            .filter(|&(o, _)| o > 0 && o < life_s)
            .map(|(o, c)| CpuChange {
                at: SimTime::from_secs(o),
                cpus: c,
            })
            .collect();
        let vm = VmTrace {
            deploy,
            end,
            ended: VmEnd::Censored,
            base_cpus: 2,
            max_cpus: 32,
            initial_cpus: 8,
            memory_mb: 16_384,
            cpu_changes,
        };
        vm.validate();
        // Integrate second by second (changes land on whole seconds).
        let brute: f64 = (0..life_s)
            .map(|s| f64::from(vm.cpus_at(SimTime::from_secs(s))))
            .sum();
        prop_assert!((vm.cpu_seconds() - brute).abs() < 1e-6,
            "{} vs {}", vm.cpu_seconds(), brute);
    }
}
