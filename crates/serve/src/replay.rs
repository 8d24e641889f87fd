//! Trace replay and the chaos harness.
//!
//! [`replay`] drives a daemon through a slice of trace events;
//! [`replay_with_kills`] is the chaos harness: at each kill point it
//! snapshots the daemon, throws the live instance away, restores a
//! fresh one from disk, and keeps going — the in-process equivalent of
//! a SIGKILL + restart (the process-level kill is exercised separately
//! by the `mfcp-nn` kill-during-write test and the `serve_replay`
//! binary). The differential chaos test asserts that both drivers end
//! in bit-identical matchings.
//!
//! Stragglers need no injection of their own: the trace generator
//! drops departures that fall past the end of the trace, so every
//! replay carries tasks that arrive and then never leave — the daemon
//! keeps re-matching around them to the last event.

use std::path::Path;

use crate::daemon::{DaemonConfig, ExchangeDaemon, MatrixSource};
use crate::state::{LastSolution, ServeCounters, SnapshotError};
use mfcp_platform::stream::TraceEvent;

/// What a replay run ended with.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// Events applied across the whole run.
    pub events: u64,
    /// The final matching (None when the trace left no active tasks).
    pub last: Option<LastSolution>,
    /// SLO counters accumulated across the run (kills included — the
    /// counters are part of the snapshot).
    pub counters: ServeCounters,
}

/// Applies every event of `trace` past the daemon's cursor, then
/// flushes buffered arrivals with a final resolve.
pub fn replay(daemon: &mut ExchangeDaemon, trace: &[TraceEvent]) -> ReplayOutcome {
    let start = daemon.cursor() as usize;
    for event in &trace[start.min(trace.len())..] {
        daemon.apply(&event.event);
    }
    daemon.finish();
    ReplayOutcome {
        events: daemon.cursor(),
        last: daemon.last_solution().cloned(),
        counters: daemon.counters(),
    }
}

/// Chaos replay: runs the trace but kills and restores the daemon from
/// a fresh snapshot at each cursor position in `kill_points`
/// (out-of-range or duplicate points are ignored). `make_source`
/// rebuilds the static serving configuration for each resurrected
/// daemon, exactly as a restarted process would.
pub fn replay_with_kills(
    trace: &[TraceEvent],
    config: &DaemonConfig,
    make_source: impl Fn() -> MatrixSource,
    snapshot_dir: &Path,
    kill_points: &[usize],
) -> Result<ReplayOutcome, SnapshotError> {
    let mut points: Vec<usize> = kill_points
        .iter()
        .copied()
        .filter(|&p| p > 0 && p < trace.len())
        .collect();
    points.sort_unstable();
    points.dedup();

    let mut daemon = ExchangeDaemon::new(config.clone(), make_source());
    for &point in &points {
        while (daemon.cursor() as usize) < point {
            daemon.apply(&trace[daemon.cursor() as usize].event);
        }
        daemon.snapshot(snapshot_dir)?;
        // Kill: the live daemon (column store, solver state, everything not on
        // disk) is dropped on the floor, exactly like a SIGKILL.
        drop(daemon);
        daemon = ExchangeDaemon::restore(snapshot_dir, config.clone(), make_source())?;
        debug_assert_eq!(daemon.cursor() as usize, point);
        #[cfg(feature = "strict-determinism")]
        {
            // Snapshot round-trip stability: re-snapshotting the daemon
            // we just restored must reproduce the on-disk bytes exactly,
            // or resumed state has silently drifted from persisted state.
            let before = std::fs::read_to_string(snapshot_dir.join(crate::state::SNAPSHOT_FILE))?;
            daemon.snapshot(snapshot_dir)?;
            let after = std::fs::read_to_string(snapshot_dir.join(crate::state::SNAPSHOT_FILE))?;
            assert_eq!(
                before, after,
                "snapshot is not round-trip stable at cursor {point}"
            );
        }
    }
    Ok(replay(&mut daemon, trace))
}
