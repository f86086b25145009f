//! Driver equivalence: every way of driving the sans-IO `SessionMachine`
//! must produce the same measurement.
//!
//! * The blocking `Session::run` driver vs a hand-stepped machine on
//!   `OracleTransport` — byte-identical `Estimate`s across ≥ 20 seeds and
//!   across noise/loss/grey/ceiling conditions (property test).
//! * The blocking `SimTransport` shim vs the event-driven in-sim
//!   `SessionApp` driver — the two hosts of `simprobe`'s one probe
//!   executor, the machine outside the simulator's event loop and inside
//!   it — on the paper's Fig. 4 topology and on lossy paths: identical
//!   estimates for the same simulator seed.

use availbw::simprobe::scenarios::{PaperPath, PaperPathConfig};
use availbw::simprobe::{install_session, run_session, SessionApp};
use availbw::slops::machine::{Command, Event, SessionMachine};
use availbw::slops::testutil::OracleTransport;
use availbw::slops::{Estimate, ProbeTransport, Session, SlopsConfig};
use availbw::telemetry::{TraceEvent, VecSink};
use availbw::units::{Rate, TimeNs};
use proptest::prelude::*;
use std::sync::Arc;

/// Drive a `SessionMachine` by hand over a transport, exactly as the
/// blocking driver does — but stepping explicitly, and checking the
/// poll/event alternation contract at every step.
fn hand_step<T: ProbeTransport>(cfg: SlopsConfig, transport: &mut T) -> Estimate {
    let start = transport.elapsed();
    let rtt = transport.rtt();
    let mut m = SessionMachine::new(cfg, rtt, transport.max_rate()).expect("valid config");
    let mut steps = 0;
    loop {
        steps += 1;
        assert!(steps < 1_000_000, "machine does not terminate");
        let cmd = m.poll().expect("no command pending at loop head");
        let event = match cmd {
            Command::SendTrain { len, size } => {
                assert!(m.poll().is_none(), "machine must pend while train flies");
                Event::TrainDone(transport.send_train(len, size).unwrap())
            }
            Command::SendStream(req) => {
                assert!(m.poll().is_none(), "machine must pend while stream flies");
                Event::StreamDone(transport.send_stream(&req).unwrap())
            }
            Command::Idle(dur) => {
                assert!(m.poll().is_none(), "machine must pend while idling");
                transport.idle(dur);
                Event::Tick(transport.elapsed())
            }
            Command::Finish(est) => {
                let mut est = *est;
                est.elapsed = transport.elapsed().saturating_sub(start);
                return est;
            }
        };
        m.on_event(event)
            .expect("event answers the machine's own command");
    }
}

/// Byte-identical estimates across 24 plain seeds on the default oracle.
#[test]
fn blocking_driver_equals_hand_stepped_machine_across_seeds() {
    for seed in 0..24u64 {
        let a = Rate::from_mbps(5.0 + 4.0 * seed as f64);
        let blocking = {
            let mut t = OracleTransport::new(a, seed);
            Session::new(SlopsConfig::default()).run(&mut t).unwrap()
        };
        let stepped = {
            let mut t = OracleTransport::new(a, seed);
            hand_step(SlopsConfig::default(), &mut t)
        };
        assert_eq!(blocking, stepped, "divergence at seed {seed}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Equivalence holds under arbitrary avail-bw, clock offsets, grey
    /// noise, loss, and transport ceilings — the whole oracle parameter
    /// space, not just the happy path.
    #[test]
    fn equivalence_over_oracle_parameter_space(
        a_mbps in 5.0f64..100.0,
        seed in 0u64..10_000,
        offset in -1_000_000_000i64..1_000_000_000,
        halfwidth in 0.0f64..5.0,
        loss in 0.0f64..0.05,
        cap in 0u8..2,
    ) {
        let make = || {
            let mut t = OracleTransport::new(Rate::from_mbps(a_mbps), seed);
            t.clock_offset_ns = offset;
            t.avail_halfwidth = Rate::from_mbps(halfwidth);
            t.loss_prob = loss;
            if cap == 1 {
                t.max_rate = Some(Rate::from_mbps(60.0));
            }
            t
        };
        let blocking = Session::new(SlopsConfig::default()).run(&mut make()).unwrap();
        let stepped = hand_step(SlopsConfig::default(), &mut make());
        prop_assert_eq!(blocking, stepped);
    }
}

/// The trace a measurement emits is minted entirely inside the sans-IO
/// machine, so the blocking driver and a hand-stepped machine produce
/// byte-identical event sequences — phases, stream verdicts, fleet
/// verdicts, and termination, in order.
#[test]
fn blocking_driver_trace_equals_hand_stepped_trace() {
    for seed in [0u64, 5, 11] {
        let a = Rate::from_mbps(9.0 + 13.0 * seed as f64);
        let blocking_trace = {
            let sink = Arc::new(VecSink::new());
            let mut t = OracleTransport::new(a, seed);
            Session::new(SlopsConfig::default())
                .with_trace_sink(sink.clone())
                .run(&mut t)
                .unwrap();
            sink.take()
        };
        let stepped_trace = {
            let mut t = OracleTransport::new(a, seed);
            let mut m = SessionMachine::new(SlopsConfig::default(), t.rtt(), t.max_rate()).unwrap();
            let mut trace = Vec::new();
            loop {
                let cmd = m.poll().expect("no command pending at loop head");
                trace.extend(m.drain_trace());
                let event = match cmd {
                    Command::SendTrain { len, size } => {
                        Event::TrainDone(t.send_train(len, size).unwrap())
                    }
                    Command::SendStream(req) => Event::StreamDone(t.send_stream(&req).unwrap()),
                    Command::Idle(dur) => {
                        t.idle(dur);
                        Event::Tick(t.elapsed())
                    }
                    Command::Finish(_) => break trace,
                };
                m.on_event(event).unwrap();
                trace.extend(m.drain_trace());
            }
        };
        assert!(!blocking_trace.is_empty(), "trace must not be empty");
        assert_eq!(
            blocking_trace, stepped_trace,
            "trace diverged at seed {seed}"
        );
        // The trace ends with the terminal phase and the session verdict.
        let n = blocking_trace.len();
        assert!(matches!(
            blocking_trace[n - 1],
            TraceEvent::SessionDone { .. }
        ));
        assert!(matches!(
            blocking_trace[n - 2],
            TraceEvent::Phase { to: "Done", .. }
        ));
    }
}

/// On the paper's loaded 5-hop topology, the event-driven in-sim driver
/// relays the very same machine-minted trace as the blocking shim —
/// bit-identical events in identical order for the same simulator seed.
/// Drivers forward trace events; they never synthesize them.
#[test]
fn in_sim_driver_trace_equals_blocking_trace_on_paper_path() {
    let path_cfg = PaperPathConfig::default();
    for seed in [7u64, 77] {
        let blocking_trace = {
            let sink = Arc::new(VecSink::new());
            let mut t = PaperPath::build(&path_cfg, seed).into_transport();
            Session::new(SlopsConfig::default())
                .with_trace_sink(sink.clone())
                .run(&mut t)
                .unwrap();
            sink.take()
        };
        let in_sim_trace = {
            let sink = Arc::new(VecSink::new());
            let t = PaperPath::build(&path_cfg, seed).into_transport();
            let chain = t.chain().clone();
            let mut sim = t.into_sim();
            let id = install_session(&mut sim, &chain, SlopsConfig::default()).unwrap();
            sim.app_mut::<SessionApp>(id).set_trace_sink(sink.clone());
            run_session(&mut sim, id, TimeNs::from_secs(3600)).expect("session finished");
            sink.take()
        };
        assert!(!blocking_trace.is_empty(), "trace must not be empty");
        assert_eq!(
            blocking_trace, in_sim_trace,
            "traces diverged at seed {seed}"
        );
    }
}

/// On the paper's loaded 5-hop topology, the event-driven in-sim driver
/// reports the same estimate as the blocking shim for the same seed: the
/// two drivers inject identical packet sequences into identical cross
/// traffic.
#[test]
fn in_sim_driver_equals_blocking_shim_on_paper_path() {
    let path_cfg = PaperPathConfig::default();
    for seed in [7u64, 77, 777] {
        let blocking = {
            let mut t = PaperPath::build(&path_cfg, seed).into_transport();
            Session::new(SlopsConfig::default()).run(&mut t).unwrap()
        };
        let in_sim = {
            let t = PaperPath::build(&path_cfg, seed).into_transport();
            let chain = t.chain().clone();
            let mut sim = t.into_sim();
            let id = install_session(&mut sim, &chain, SlopsConfig::default()).unwrap();
            run_session(&mut sim, id, TimeNs::from_secs(3600)).expect("session finished")
        };
        assert_eq!(blocking, in_sim, "drivers diverged at seed {seed}");
        // Sanity: the measurement itself is meaningful (A = 4 Mb/s).
        assert!(blocking.low.mbps() <= 8.0 && blocking.high.mbps() >= 1.0);
    }
}

/// Two in-sim sessions can share one simulation — something the blocking
/// shim structurally cannot do. Their estimates must both bracket their
/// paths' avail-bw.
#[test]
fn two_sessions_run_concurrently_in_one_simulation() {
    use availbw::netsim::{Chain, ChainConfig, LinkConfig, Simulator};
    let mut sim = Simulator::new(99);
    let mk = |cap: f64| {
        ChainConfig::symmetric(vec![
            LinkConfig::new(Rate::from_mbps(cap), TimeNs::from_millis(5)),
            LinkConfig::new(Rate::from_mbps(cap - 2.0), TimeNs::from_millis(5)),
        ])
    };
    // Two disjoint paths in one simulation, measured simultaneously.
    let chain_a = Chain::build(&mut sim, &mk(10.0)); // narrow 8 Mb/s
    let chain_b = Chain::build(&mut sim, &mk(20.0)); // narrow 18 Mb/s
    let id_a = install_session(&mut sim, &chain_a, SlopsConfig::default()).unwrap();
    let id_b = install_session(&mut sim, &chain_b, SlopsConfig::default()).unwrap();
    let est_a = run_session(&mut sim, id_a, TimeNs::from_secs(3600)).unwrap();
    let est_b = run_session(&mut sim, id_b, TimeNs::from_secs(3600)).unwrap();
    assert!(
        est_a.low.mbps() <= 8.0 && 8.0 <= est_a.high.mbps() + 0.5,
        "path A reported [{}, {}]",
        est_a.low,
        est_a.high
    );
    assert!(
        est_b.low.mbps() <= 18.0 && 18.0 <= est_b.high.mbps() + 0.5,
        "path B reported [{}, {}]",
        est_b.low,
        est_b.high
    );
}

/// Where a link draws from its own `Prng` in arrival order (`drop_prob`,
/// RED) or accepts by exact occupancy (a drop-tail buffer that overflows),
/// one probe packet shifted by a nanosecond reshuffles every later loss —
/// and a stream or train that lost a packet completes at its deadline, not
/// on the poll grid. The shim and `SessionApp` agree to the nanosecond
/// there too: the three lossy neighbours of `tests/engine_golden.rs`, whole
/// `Estimate` (elapsed included), with the elapsed time that file pins.
#[test]
fn in_sim_driver_equals_blocking_shim_on_lossy_paths() {
    use availbw::netsim::app::CountingSink;
    use availbw::netsim::{Chain, ChainConfig, LinkConfig, RedConfig, Simulator};
    use availbw::simprobe::SimTransport;
    use availbw::traffic::{attach_sources, SourceConfig};
    let link = |mbps, ms| LinkConfig::new(Rate::from_mbps(mbps), TimeNs::from_millis(ms));
    let red = RedConfig::for_queue_limit(24 * 1024);
    let cases = [
        (
            21u64,
            link(10.0, 10).with_drop_prob(0.01),
            40_722_100_000u64,
        ),
        (
            22,
            link(10.0, 10).with_queue_limit(24 * 1024).with_red(red),
            18_064_200_000,
        ),
        (23, link(10.0, 10).with_queue_limit(6000), 24_154_500_000),
    ];
    for (seed, tight, elapsed_ns) in cases {
        // A 40 / 10 / 40 Mb/s chain, 6 Mb/s of Pareto load on the middle
        // hop, one second of warm-up.
        let build = || {
            let mut sim = Simulator::new(seed);
            let hops = vec![link(40.0, 5), tight.clone(), link(40.0, 5)];
            let chain = Chain::build(&mut sim, &ChainConfig::symmetric(hops));
            let sink = sim.add_app(Box::new(CountingSink::default()));
            let route = chain.hop_route(&sim, 1, sink);
            let load = Rate::from_mbps(6.0);
            attach_sources(&mut sim, route, load, 10, &SourceConfig::paper_pareto());
            let mut t = SimTransport::new(sim, chain);
            t.sim_mut().run_until(TimeNs::from_secs(1));
            t
        };
        let cfg = SlopsConfig::default();
        let blocking = Session::new(cfg.clone()).run(&mut build()).unwrap();
        let t = build();
        let chain = t.chain().clone();
        let mut sim = t.into_sim();
        let id = install_session(&mut sim, &chain, cfg).unwrap();
        let in_sim = run_session(&mut sim, id, TimeNs::from_secs(3600)).expect("finished");
        assert_eq!(blocking, in_sim, "drivers diverged at seed {seed}");
        assert_eq!(blocking.elapsed.as_nanos(), elapsed_ns, "seed {seed}");
    }
}
