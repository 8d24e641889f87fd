//! A daemon configured with invalid relaxation parameters keeps its
//! event loop running: every resolve fails validation with a typed
//! error and is counted in `serve.solve_error`, never a panic (debug
//! builds included), and no matching is ever committed.
//!
//! Its own test binary: `serve.solve_error` is a process-wide counter.

use mfcp_optim::{BarrierKind, RelaxationParams};
use mfcp_platform::prelude::{ClusterPool, Setting};
use mfcp_platform::stream::{generate_trace, TraceConfig};
use mfcp_serve::{replay, DaemonConfig, ExchangeDaemon, MatrixSource};

#[test]
fn invalid_params_count_a_solve_error_per_resolve() {
    let trace = generate_trace(&TraceConfig {
        seed: 11,
        duration_secs: 3600.0,
        mean_interarrival_secs: 90.0,
        mean_service_secs: 1800.0,
        clusters: 3,
        outages: 1,
        mean_outage_secs: 600.0,
    });
    let config = DaemonConfig {
        params: RelaxationParams {
            barrier: BarrierKind::Log { eps: 0.0 },
            ..Default::default()
        },
        ..Default::default()
    };
    let errors = mfcp_obs::counter("serve.solve_error");
    let before = errors.get();
    let source = MatrixSource::GroundTruth(ClusterPool::standard().setting(Setting::A));
    let mut daemon = ExchangeDaemon::new(config, source);
    let outcome = replay(&mut daemon, &trace);

    assert!(outcome.counters.resolves > 0, "the trace must resolve");
    assert!(daemon.last_solution().is_none());
    assert!(daemon.last_resolve().is_none());
    assert_eq!(errors.get() - before, outcome.counters.resolves);
}
