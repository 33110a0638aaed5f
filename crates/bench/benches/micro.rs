//! Microbenchmarks of the core data structures: event calendar,
//! processor-sharing queue, consistent-hash ring, the controller's fleet
//! view, an invoker's container table, a block's ping trains, the
//! statistics histograms, and the sharded driver's cross-shard mailbox and
//! barrier round-trip. These are the hot paths of every simulation.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use harvest_faas::hrv_lb::hashring::HashRing;
use harvest_faas::hrv_lb::hashring::WalkSeen;
use harvest_faas::hrv_lb::mws::Mws;
use harvest_faas::hrv_lb::policy::LoadBalancer;
use harvest_faas::hrv_lb::view::{ClusterView, InvokerId, InvokerView, LoadWeights};
use harvest_faas::hrv_sim::calendar::{Calendar, EnvelopeLane};
use harvest_faas::hrv_sim::calendar_reference;
use harvest_faas::hrv_sim::ps::{JobId, PsQueue};
use harvest_faas::hrv_trace::faas::{AppId, FunctionId};
use harvest_faas::hrv_trace::time::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_calendar(c: &mut Criterion) {
    c.bench_function("calendar/schedule_pop_1k", |b| {
        b.iter(|| {
            let mut cal = Calendar::new();
            for i in 0..1_000u64 {
                cal.schedule(SimTime::from_micros(i * 37 % 50_000), i);
            }
            let mut acc = 0u64;
            while let Some(ev) = cal.pop() {
                acc = acc.wrapping_add(ev.event);
            }
            black_box(acc)
        })
    });
    c.bench_function("calendar/cancel_heavy", |b| {
        b.iter(|| {
            let mut cal = Calendar::new();
            let ids: Vec<_> = (0..1_000u64)
                .map(|i| cal.schedule(SimTime::from_micros(i), i))
                .collect();
            for id in ids.iter().step_by(2) {
                cal.cancel(*id);
            }
            let mut n = 0;
            while cal.pop().is_some() {
                n += 1;
            }
            black_box(n)
        })
    });
    // 38 one-second timers spread over the second, each re-armed when it
    // fires (`harvest_replay`'s shape while every invoker kept its own
    // ping timer). Every timer sits alone in a level-3 bucket, so this is
    // the cascade path and little else.
    c.bench_function("calendar/sparse_timers_1s", |b| {
        b.iter(|| {
            let mut cal = Calendar::new();
            for i in 0..38u64 {
                cal.schedule(SimTime::from_micros(1_000_000 + i * 26_000), i);
            }
            for _ in 0..1_000 {
                let ev = cal.pop().expect("timers re-arm forever");
                cal.schedule_after(SimDuration::from_secs(1), ev.event);
            }
            black_box(cal.now())
        })
    });
    // The same workloads against the executable spec (heap + tombstone
    // set), so `cargo bench` reports the timer wheel's speedup directly.
    c.bench_function("calendar_reference/schedule_pop_1k", |b| {
        b.iter(|| {
            let mut cal = calendar_reference::Calendar::new();
            for i in 0..1_000u64 {
                cal.schedule(SimTime::from_micros(i * 37 % 50_000), i);
            }
            let mut acc = 0u64;
            while let Some(ev) = cal.pop() {
                acc = acc.wrapping_add(ev.event);
            }
            black_box(acc)
        })
    });
    c.bench_function("calendar_reference/cancel_heavy", |b| {
        b.iter(|| {
            let mut cal = calendar_reference::Calendar::new();
            let ids: Vec<_> = (0..1_000u64)
                .map(|i| cal.schedule(SimTime::from_micros(i), i))
                .collect();
            for id in ids.iter().step_by(2) {
                cal.cancel(*id);
            }
            let mut n = 0;
            while cal.pop().is_some() {
                n += 1;
            }
            black_box(n)
        })
    });
}

fn bench_ps_queue(c: &mut Criterion) {
    c.bench_function("ps/resize_storm_64_jobs", |b| {
        b.iter(|| {
            let mut q = PsQueue::new(16.0);
            for i in 0..64 {
                q.add(JobId(i), 10.0, 1.0);
            }
            for step in 1..100u64 {
                q.advance(SimTime::from_micros(step * 10_000));
                q.set_capacity((step % 32) as f64 + 1.0);
                black_box(q.next_completion());
            }
            black_box(q.len())
        })
    });
}

fn bench_hash_ring(c: &mut Criterion) {
    let mut ring = HashRing::new();
    for i in 0..100 {
        ring.add(InvokerId(i));
    }
    c.bench_function("ring/home_lookup", |b| {
        let mut i = 0u32;
        b.iter(|| {
            i = i.wrapping_add(1);
            black_box(ring.home(FunctionId {
                app: AppId(i),
                func: 0,
            }))
        })
    });
    c.bench_function("ring/walk_5", |b| {
        b.iter(|| {
            let f = FunctionId {
                app: AppId(7),
                func: 0,
            };
            black_box(ring.walk(f).take(5).count())
        })
    });
    c.bench_function("ring/walk_5_reused_scratch", |b| {
        let mut seen = WalkSeen::new();
        b.iter(|| {
            let f = FunctionId {
                app: AppId(7),
                func: 0,
            };
            black_box(ring.walk_with(f, &mut seen).take(5).count())
        })
    });
    c.bench_function("ring/member_churn", |b| {
        b.iter(|| {
            let mut r = ring.clone();
            r.remove(InvokerId(50));
            r.add(InvokerId(200));
            black_box(r.members())
        })
    });
    // The paper-scale ring: 1 600 members × 64 vnodes. The harness
    // re-enters the closure per timed call, so undoing the change after
    // `b.iter` keeps every timed join and leave at exactly 1 600 members.
    let mut fleet = HashRing::new();
    for i in 0..1_600 {
        fleet.add(InvokerId(i));
    }
    c.bench_function("ring/join_at_1600_members", |b| {
        b.iter(|| black_box(fleet.add(InvokerId(1_600))));
        fleet.remove(InvokerId(1_600));
    });
    // A rotating victim: the rejoin puts the last victim in the last
    // slot, and removing that one again would skip the renumbering.
    let mut victim = 0u32;
    c.bench_function("ring/leave_at_1600_members", |b| {
        victim = (victim + 1) % 1_600;
        b.iter(|| black_box(fleet.remove(InvokerId(victim))));
        fleet.add(InvokerId(victim));
    });
}

/// A fleet start as a controller replica sees it: 1 600 joins at one
/// instant, then the first placement, which is what puts the buffered
/// burst on the ring (one sort and one merge of 102 400 vnodes).
fn bench_fleet_start(c: &mut Criterion) {
    let mut view = ClusterView::new();
    for i in 0..1_600 {
        view.add(InvokerView::register(
            InvokerId(i),
            8,
            64 * 1024,
            SimTime::ZERO,
        ));
    }
    let f = FunctionId {
        app: AppId(42),
        func: 0,
    };
    let mut rng = StdRng::seed_from_u64(3);
    c.bench_function("ring/fleet_start_1600_joins", |b| {
        b.iter(|| {
            let mut mws = Mws::new(LoadWeights::default(), 1);
            for i in 0..1_600 {
                mws.on_invoker_join(InvokerId(i));
            }
            black_box(mws.place(SimTime::ZERO, f, 256, &view, &mut rng))
        })
    });
}

/// `ClusterView::update` at fleet size — one call per ping, placement
/// charge and completion report. Dense ids resolve at the probed row;
/// after removals the rows above a removed id sit left of their id and
/// the lookup gallops back to them.
fn bench_view(c: &mut Criterion) {
    let mut dense = ClusterView::new();
    for i in 0..1_600 {
        dense.add(InvokerView::register(
            InvokerId(i),
            8,
            64 * 1024,
            SimTime::ZERO,
        ));
    }
    let mut holed = dense.clone();
    for i in 0..32 {
        holed.remove(InvokerId(i * 50));
    }
    for (name, mut view) in [
        ("view/update_dense_n1600", dense),
        ("view/update_after_32_removals_n1600", holed),
    ] {
        c.bench_function(name, |b| {
            let mut i = 0u32;
            b.iter(|| {
                // A stride coprime to the fleet size visits every id.
                i = (i + 611) % 1_600;
                black_box(view.update(InvokerId(i), |v| v.cpu_in_use += 0.001))
            })
        });
    }
}

/// One warm invocation through an invoker holding 50 idle containers of
/// 50 functions (the `fleet_s1` operating point): the delivery scans the
/// container table for the warm container, the completion tick parks it
/// again and asks the keep-alive policy.
fn bench_invoker(c: &mut Criterion) {
    use harvest_faas::hrv_platform::config::PlatformConfig;
    use harvest_faas::hrv_platform::event::Event;
    use harvest_faas::hrv_platform::invoker::InvokerState;
    use harvest_faas::hrv_trace::faas::Invocation;

    let cfg = PlatformConfig {
        keep_alive: SimDuration::from_hours(24 * 30),
        ..PlatformConfig::default()
    };
    let mut cal: Calendar<Event> = Calendar::new();
    let mut iv = InvokerState::new(0, 1 << 20);
    iv.deploy(SimTime::ZERO, 64);
    let mut next_id = 0u64;
    // Delivers one 1 ms invocation of `app` at `now` and runs the
    // invoker's own timers up to and including its completion tick.
    let mut serve = |iv: &mut InvokerState, cal: &mut Calendar<Event>, now: SimTime, app: u32| {
        next_id += 1;
        let invocation = Invocation {
            id: next_id,
            function: FunctionId {
                app: AppId(app),
                func: 0,
            },
            arrival: now,
            duration: SimDuration::from_millis(1),
            memory_mb: 256,
            cpu_demand: 1.0,
        };
        iv.deliver(now, invocation, cal, &cfg);
        while let Some(ev) = cal.pop() {
            match ev.event {
                Event::StartupDone { container, .. } => {
                    iv.startup_done(ev.at, container, cal, &cfg)
                }
                Event::Completion { .. } => return iv.completion_tick(ev.at, cal, &cfg).len(),
                _ => {}
            }
        }
        0
    };
    let mut now = SimTime::ZERO;
    for app in 0..50 {
        now += SimDuration::from_secs(10);
        assert_eq!(serve(&mut iv, &mut cal, now, app), 1);
    }
    assert_eq!((iv.container_count(), iv.cold_starts), (50, 50));
    // Past the last cold start's completion.
    now += SimDuration::from_secs(10);
    c.bench_function("invoker/completion_tick_50_containers", |b| {
        let mut app = 0u32;
        b.iter(|| {
            app = (app + 7) % 50;
            now += SimDuration::from_millis(10);
            black_box(serve(&mut iv, &mut cal, now, app))
        })
    });
    assert_eq!((iv.container_count(), iv.cold_starts), (50, 50));
}

fn bench_ping(c: &mut Criterion) {
    use harvest_faas::hrv_fault::{FaultKind, FaultPlan};
    use harvest_faas::hrv_lb::policy::PolicyKind;
    use harvest_faas::hrv_platform::config::PlatformConfig;
    use harvest_faas::hrv_platform::mailbox::ShardPlan;
    use harvest_faas::hrv_platform::shard::run_rounds;
    use harvest_faas::hrv_platform::world::{ClusterSpec, PlatformWorld};
    use harvest_faas::hrv_trace::harvest::{VmEnd, VmTrace};
    use harvest_faas::hrv_trace::stream::SortedTraceStream;

    // One invoker block of 32 idle VMs, pinging once a second: every VM
    // deploying at 0 s puts them on one train, deploys 31 ms apart give
    // 32 single-member trains. An iteration is one simulated second, so
    // 32 member pings; the first second's reports are past, so every
    // ping compares its snapshot and stays home. The `reports_` cases
    // plan a view freeze past any horizon, so every ping reports: the
    // one train sends one 32-row message, the 32 trains send 32 one-row
    // messages through the calendar, and the replica applies 32 rows.
    for (name, spacing_ms, every_ping_reports) in [
        ("ping/block_32_members_1s", 0u64, false),
        ("ping/singles_32_trains_1s", 31, false),
        ("ping/reports_block_32_rows_1s", 0, true),
        ("ping/reports_singles_32_messages_1s", 31, true),
    ] {
        let vms = (0..32)
            .map(|i| {
                let deploy = SimTime::from_micros(i * spacing_ms * 1_000);
                VmTrace::constant(
                    deploy,
                    SimTime::from_secs(1 << 20),
                    VmEnd::Censored,
                    8,
                    1 << 14,
                )
            })
            .collect();
        let mut faults = FaultPlan::none();
        if every_ping_reports {
            faults.push(SimTime::from_secs(1 << 40), FaultKind::ViewFreeze);
            faults.finish();
        }
        let mut cal = Calendar::new();
        let mut world = PlatformWorld::from_stream_sharded_in(
            ClusterSpec::from_traces(vms),
            Box::new(SortedTraceStream::new(Vec::new())),
            PolicyKind::Mws.build(),
            PlatformConfig::default(),
            1,
            faults,
            ShardPlan::solo(),
            &mut cal,
        );
        let mut end = SimTime::from_secs(3);
        run_rounds(&mut world, &mut cal, end);
        c.bench_function(name, |b| {
            b.iter(|| {
                end += SimDuration::from_secs(1);
                black_box(run_rounds(&mut world, &mut cal, end).events)
            })
        });
    }
}

fn bench_mws(c: &mut Criterion) {
    // A 64-invoker cluster and one function whose learned usage spans a
    // few members, without load churn.
    let setup = || {
        let mut mws = Mws::new(LoadWeights::default(), 1);
        let mut view = ClusterView::new();
        for i in 0..64 {
            mws.on_invoker_join(InvokerId(i));
            view.add(InvokerView::register(
                InvokerId(i),
                8,
                64 * 1024,
                SimTime::ZERO,
            ));
        }
        let f = FunctionId {
            app: AppId(42),
            func: 0,
        };
        for _ in 0..16 {
            mws.on_completion(f, SimDuration::from_secs(2), 1.0);
        }
        for i in 0..64u64 {
            mws.on_arrival(f, SimTime::from_micros(i * 100_000));
        }
        (mws, view, f)
    };
    // Setup stays outside the bench closures: the harness re-enters the
    // closure per timed call, and ring construction would dwarf the
    // placement being measured.
    let now = SimTime::from_secs(7);
    {
        let (mut mws, view, f) = setup();
        let mut rng = StdRng::seed_from_u64(3);
        // First placement fills the cache; epochs never move after.
        mws.place(now, f, 256, &view, &mut rng);
        c.bench_function("mws/place_cached_hit", |b| {
            b.iter(|| black_box(mws.place(now, f, 256, &view, &mut rng)))
        });
    }
    {
        let (mut mws, mut view, f) = setup();
        let mut rng = StdRng::seed_from_u64(3);
        let mut flip = false;
        c.bench_function("mws/place_cold_miss", |b| {
            b.iter(|| {
                // Toggling one invoker's placeability bumps the epoch, so
                // every placement misses and refills via a full ring walk.
                flip = !flip;
                view.update(InvokerId(63), |v| v.eviction_pending = flip);
                black_box(mws.place(now, f, 256, &view, &mut rng))
            })
        });
    }
}

fn bench_histograms(c: &mut Criterion) {
    // The hybrid cold-start policy's hot path: one IAT record per
    // arrival, one walk over the occupied bins per idle decision.
    c.bench_function("histogram/hybrid_idle_decision", |b| {
        use harvest_faas::hrv_policy::{
            ColdStartPolicy, HybridHistogram, HybridHistogramConfig, IdleCtx,
        };
        let mut policy = HybridHistogram::new(HybridHistogramConfig::default());
        let f = FunctionId {
            app: AppId(1),
            func: 0,
        };
        for i in 0..=256u64 {
            policy.observe_arrival(f, SimTime::from_secs(i * 900));
        }
        let ctx = IdleCtx {
            now: SimTime::from_secs(256 * 900),
            fixed_keep_alive: SimDuration::from_mins(10),
            cold_start_delay: SimDuration::from_millis(2_500),
            bus_latency: SimDuration::from_millis(2),
            idle_peers: 0,
        };
        b.iter(|| black_box(policy.on_idle(f, &ctx)))
    });
}

fn bench_mailbox(c: &mut Criterion) {
    use harvest_faas::hrv_platform::event::Event;
    use harvest_faas::hrv_platform::mailbox::{Envelope, ShardPlan, CONTROLLER};
    use std::sync::Mutex;

    let envs: Vec<Envelope> = (0..1_000u64)
        .map(|i| Envelope {
            deliver_at: SimTime::from_micros(1_000 + i % 97),
            sender: (i % 64) as u32 + 1,
            seq: i,
            target: if i % 3 == 0 {
                CONTROLLER
            } else {
                (i % 256) as u32 + 1
            },
            event: Event::MonitorTick,
        })
        .collect();
    let route = |envs: &[Envelope], inboxes: &[Mutex<Vec<Envelope>>]| {
        for env in envs.iter().cloned() {
            let target = ShardPlan::shard_of(4, env.target) as usize;
            inboxes[target].lock().unwrap().push(env);
        }
    };

    // One barrier round's worth of traffic — the exact hot path between
    // two sharded rounds: route, drain each inbox in place into its
    // shard's calendar lane, open the window, pop in canonical order.
    // The calendars persist across rounds as the driver's do, so each
    // round's traffic is shifted one window further on.
    c.bench_function("calendar/envelope_lane_1k", |b| {
        let inboxes: Vec<Mutex<Vec<Envelope>>> = (0..4).map(|_| Mutex::new(Vec::new())).collect();
        let mut cals: Vec<Calendar<Event>> = (0..4).map(|_| Calendar::new()).collect();
        let mut base = SimDuration::ZERO;
        b.iter(|| {
            route(&envs, &inboxes);
            let mut delivered = 0u64;
            for (inbox, cal) in inboxes.iter().zip(&mut cals) {
                for env in inbox.lock().unwrap().drain(..) {
                    cal.schedule_envelope(env.deliver_at + base, env.sender, env.seq, env.event);
                }
                cal.open_window(SimTime::from_micros(2_000) + base);
                let mut last = SimTime::ZERO;
                while let Some(ev) = cal.pop() {
                    assert!(last <= ev.at);
                    last = ev.at;
                    delivered += 1;
                }
            }
            base += SimDuration::from_micros(2_000);
            black_box(delivered)
        })
    });
}

fn bench_barrier(c: &mut Criterion) {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Barrier;

    // The sharded driver's round cost floor: three barrier waits per
    // round across the worker set, nothing else.
    for workers in [2usize, 4] {
        c.bench_function(&format!("barrier/round_trip_x3_{workers}threads"), |b| {
            let barrier = Barrier::new(workers);
            let stop = AtomicBool::new(false);
            std::thread::scope(|scope| {
                for _ in 1..workers {
                    scope.spawn(|| loop {
                        barrier.wait();
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        barrier.wait();
                        barrier.wait();
                    });
                }
                b.iter(|| {
                    barrier.wait();
                    barrier.wait();
                    barrier.wait();
                });
                stop.store(true, Ordering::SeqCst);
                barrier.wait();
            });
        });
    }
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_calendar, bench_ps_queue, bench_hash_ring, bench_fleet_start, bench_view,
        bench_invoker, bench_ping, bench_mws, bench_histograms, bench_mailbox, bench_barrier
}
criterion_main!(benches);
