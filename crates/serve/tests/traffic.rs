//! Solver health under a day of exchange traffic.
//!
//! Replays one seeded day of the default trace on Setting A ground
//! truth and checks that the relaxed solves end where they should: at
//! most 1% of resolves may end at the iteration cap
//! (`optim.solve.cap_hits`), and every resolve while a cluster is down
//! must stop `Converged`. The trial counters show which steps got
//! there. This is its own test binary because it reads process-wide
//! counters.

use mfcp_optim::StopReason;
use mfcp_platform::prelude::{ClusterPool, Setting};
use mfcp_platform::stream::{generate_trace, ExchangeEvent, TraceConfig};
use mfcp_serve::{DaemonConfig, ExchangeDaemon, MatrixSource};

#[test]
fn a_day_of_traffic_converges_without_the_cap() {
    let trace = generate_trace(&TraceConfig {
        seed: 1,
        ..TraceConfig::default()
    });
    let model = ClusterPool::standard().setting(Setting::A);
    let mut daemon = ExchangeDaemon::new(DaemonConfig::default(), MatrixSource::GroundTruth(model));
    let counter = |name: &str| mfcp_obs::counter(name).get();
    let cap_hits_before = counter("optim.solve.cap_hits");
    let price_steps_before = counter("optim.solve.price_steps");
    let mut down = 0usize;
    let mut outage_resolves = 0;
    for event in &trace {
        let resolves = daemon.counters().resolves;
        match event.event {
            ExchangeEvent::ClusterDown { .. } => down += 1,
            ExchangeEvent::ClusterUp { .. } => down -= 1,
            _ => {}
        }
        daemon.apply(&event.event);
        if down > 0 && daemon.counters().resolves > resolves {
            outage_resolves += 1;
            let diagnostics = daemon
                .last_resolve()
                .expect("a resolve records its diagnostics");
            for attempt in &diagnostics.attempts {
                assert_eq!(
                    attempt.stop,
                    Some(StopReason::Converged),
                    "outage resolve {} stopped {:?} at residual {:?} ({})",
                    daemon.counters().resolves,
                    attempt.stop,
                    attempt.residual,
                    diagnostics.path()
                );
            }
        }
    }
    daemon.finish();
    let resolves = daemon.counters().resolves;
    let cap_hits = counter("optim.solve.cap_hits") - cap_hits_before;
    eprintln!("{resolves} resolves, {outage_resolves} during outages, {cap_hits} cap hits");
    assert!(resolves > 200, "a day of traffic: {resolves} resolves");
    assert!(
        outage_resolves >= 5,
        "the outages saw {outage_resolves} resolves"
    );
    assert!(
        cap_hits * 100 <= resolves,
        "{cap_hits} of {resolves} resolves ended at the iteration cap"
    );
    assert!(counter("optim.solve.price_steps") > price_steps_before);
}
