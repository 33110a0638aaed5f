//! Isolated drives for the layers that have no seam to decorate. Each
//! builds its subject from public constructors only, sizes it like the
//! workload it explains (38 invokers for the replay, 1 600 for the
//! fleet), and runs for at least [`DRIVE_SECS`].

use std::hint::black_box;
use std::time::Instant;

use hrv_lb::hashring::HashRing;
use hrv_lb::view::{ClusterView, InvokerId, InvokerView};
use hrv_policy::{ColdStartPolicy, HybridHistogram, HybridHistogramConfig, IdleCtx};
use hrv_sim::ps::{JobId, PsQueue};
use hrv_telemetry::{FlightConfig, FlightRecorder, SpanKind};
use hrv_trace::faas::{AppId, FunctionId};
use hrv_trace::rng::SeedFactory;
use hrv_trace::time::{SimDuration, SimTime};

use crate::inputs;

/// Shortest measured stretch of a drive.
pub const DRIVE_SECS: f64 = 0.5;

/// Calls `batch`, which returns how many operations it did, until
/// [`DRIVE_SECS`] have passed; returns operations per second.
fn rate(mut batch: impl FnMut() -> u64) -> f64 {
    let start = Instant::now();
    let mut ops = 0u64;
    loop {
        ops += batch();
        let secs = start.elapsed().as_secs_f64();
        if secs >= DRIVE_SECS {
            return ops as f64 / secs;
        }
    }
}

fn function(app: u32) -> FunctionId {
    FunctionId {
        app: AppId(app),
        func: 0,
    }
}

/// `PsQueue` completions per second at a steady `concurrency`: every
/// completion is replaced by a fresh job, with a capacity resize every 64
/// steps for the harvest path (the `perfsmoke` driver's shape).
pub fn ps_completions_per_s(concurrency: u64) -> f64 {
    let base_cap = (concurrency as f64 / 2.0).max(1.0);
    let demand = |id: u64| 1.0 + (id % 997) as f64 * 0.003;
    let mut ps = PsQueue::new(base_cap);
    for i in 0..concurrency {
        ps.add(JobId(i), demand(i), 1.0);
    }
    let (mut next_id, mut resizes) = (concurrency, 0u64);
    rate(|| {
        let before = next_id;
        for _ in 0..64 {
            let (at, _) = ps.next_completion().expect("the queue is never empty");
            ps.advance(at);
            for _ in ps.take_completed(1e-5) {
                ps.add(JobId(next_id), demand(next_id), 1.0);
                next_id += 1;
            }
        }
        resizes += 1;
        ps.set_capacity(base_cap * (0.5 + (resizes % 4) as f64 * 0.25));
        next_id - before
    })
}

/// `ClusterView::update` calls per second over `n` invokers: the
/// controller's load bookkeeping on every report, one update in sixteen
/// flipping placeability the way an invoker going silent does.
pub fn view_updates_per_s(n: u32) -> f64 {
    let mut view = ClusterView::new();
    for i in 0..n {
        view.add(InvokerView::register(
            InvokerId(i),
            6,
            32 * 1024,
            SimTime::ZERO,
        ));
    }
    let mut k = 0u32;
    rate(|| {
        for _ in 0..1_024 {
            let id = InvokerId(k.wrapping_mul(2_654_435_761) % n);
            view.update(id, |v| {
                v.inflight = (v.inflight + 1) % 8;
                v.cpu_in_use = f64::from(v.inflight) * 0.75;
                v.healthy = !k.is_multiple_of(16);
            });
            k = k.wrapping_add(1);
        }
        black_box(view.placeability_epoch());
        1_024
    })
}

/// Hash-ring walks per second on an `n`-member ring (64 vnodes each):
/// the MWS miss path, taking the first four distinct successors of a
/// function's home.
pub fn ring_walks_per_s(n: u32) -> f64 {
    let mut ring = HashRing::new();
    for i in 0..n {
        ring.add(InvokerId(i));
    }
    let mut app = 0u32;
    rate(|| {
        for _ in 0..256 {
            black_box(ring.walk(function(app % 20_809)).take(4).count());
            app = app.wrapping_add(1);
        }
        256
    })
}

/// Hybrid-histogram decisions per second: one arrival observation and one
/// idle decision per step over 512 functions with periods from 2 s to
/// ≈ 17 min, so both the keep and the unload-and-prewarm paths run.
pub fn hybrid_decisions_per_s() -> f64 {
    let mut policy = HybridHistogram::new(HybridHistogramConfig::default());
    let mut i = 0u64;
    rate(|| {
        for _ in 0..512 {
            let f = function((i % 512) as u32);
            let period = 2 + (i % 512 % 7) * 170;
            let now = SimTime::from_secs((i / 512) * period);
            policy.observe_arrival(f, now);
            black_box(policy.on_idle(
                f,
                &IdleCtx {
                    now,
                    fixed_keep_alive: SimDuration::from_mins(10),
                    cold_start_delay: SimDuration::from_millis(2_500),
                    bus_latency: SimDuration::from_millis(2),
                    idle_peers: 0,
                },
            ));
            i += 1;
        }
        512
    })
}

/// `DispatchSampler::roll` calls per second on the sampler the faulty
/// `policy_sweep` cells run with.
pub fn sampler_rolls_per_s() -> f64 {
    let plan = inputs::sweep_fault_spec().compile(
        38,
        inputs::SWEEP_HORIZON,
        &SeedFactory::new(inputs::POPULATION_SEED),
    );
    let mut sampler = plan
        .dispatch
        .expect("the sweep's fault spec has a dispatch process")
        .sampler();
    rate(|| {
        for _ in 0..1_024 {
            black_box(sampler.roll());
        }
        1_024
    })
}

/// `FlightRecorder::record` calls per second at the default ring
/// capacity, spread over a controller and 38 invokers like the
/// telemetry-on replay.
pub fn recorder_records_per_s() -> f64 {
    let mut recorder = FlightRecorder::new(FlightConfig::default().ring_capacity as usize);
    let mut i = 0u64;
    let out = rate(|| {
        for _ in 0..1_024 {
            recorder.record(
                (i % 39) as u32,
                SimTime::from_micros(i),
                i,
                SpanKind::ExecBegin {
                    cold: i.is_multiple_of(64),
                },
            );
            i += 1;
        }
        1_024
    });
    black_box(recorder.len());
    out
}

/// Every isolated drive, by per-layer metric name.
pub fn all() -> Vec<(&'static str, f64)> {
    vec![
        ("sim.ps.completions_per_s.c8", ps_completions_per_s(8)),
        ("sim.ps.completions_per_s.c64", ps_completions_per_s(64)),
        ("lb.view.updates_per_s.n38", view_updates_per_s(38)),
        ("lb.view.updates_per_s.n1600", view_updates_per_s(1_600)),
        ("lb.ring.walks_per_s.n1600", ring_walks_per_s(1_600)),
        ("policy.hybrid.decisions_per_s", hybrid_decisions_per_s()),
        ("fault.sampler.rolls_per_s", sampler_rolls_per_s()),
        ("telemetry.recorder.records_per_s", recorder_records_per_s()),
    ]
}
