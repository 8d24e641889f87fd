//! Chaos and differential tests for the exchange daemon.
//!
//! The headline invariant: a daemon killed and restored from its
//! snapshot at every 1/4 mark of a trace must end in a final matching
//! bit-for-bit identical to an uninterrupted run. Also covered here:
//! overload sheds load with zero unbounded-queue growth, a blown
//! deadline degrades to a feasible greedy matching instead of stalling,
//! and learned-predictor snapshots round-trip the model weights.

use std::time::Duration;

use mfcp_linalg::Matrix;
use mfcp_optim::{
    FallbackStage, LearnedDualHead, MatchingProblem, RelaxationParams, RobustSolver,
    SeedProvenance, SeedSource, SolveCtx,
};
use mfcp_platform::prelude::{ClusterPool, FeatureEmbedder, Setting};
use mfcp_platform::stream::{generate_trace, ExchangeEvent, TraceConfig, TraceEvent};
use mfcp_platform::task::{Corpus, TaskFamily, TaskSpec};
use mfcp_serve::{
    replay, replay_with_kills, DaemonConfig, ExchangeDaemon, MatrixSource, SnapshotError,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn ground_truth() -> MatrixSource {
    MatrixSource::GroundTruth(ClusterPool::standard().setting(Setting::A))
}

fn test_trace() -> Vec<TraceEvent> {
    generate_trace(&TraceConfig {
        seed: 7,
        duration_secs: 2.0 * 3600.0,
        mean_interarrival_secs: 90.0,
        mean_service_secs: 1800.0,
        clusters: 3,
        outages: 2,
        mean_outage_secs: 1200.0,
    })
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("mfcp_serve_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn kill_resume_is_bit_identical() {
    let trace = test_trace();
    assert!(trace.len() > 20, "trace too small to be interesting");
    let config = DaemonConfig::default();

    let mut straight_daemon = ExchangeDaemon::new(config.clone(), ground_truth());
    let straight = replay(&mut straight_daemon, &trace);

    let dir = temp_dir("chaos");
    let kills: Vec<usize> = (1..4).map(|q| q * trace.len() / 4).collect();
    let killed = replay_with_kills(&trace, &config, ground_truth, &dir, &kills)
        .expect("chaos replay survives kill/restore");
    std::fs::remove_dir_all(&dir).ok();

    assert_eq!(straight.events, killed.events);
    assert_eq!(
        straight.counters, killed.counters,
        "SLO counters must survive kill/restore exactly"
    );
    let a = straight.last.expect("straight run ends with a matching");
    let b = killed.last.expect("killed run ends with a matching");
    assert_eq!(a.ids, b.ids);
    assert_eq!(
        a.objective.to_bits(),
        b.objective.to_bits(),
        "objective must agree bit-for-bit"
    );
    let bits_a: Vec<u64> = a.x.as_slice().iter().map(|v| v.to_bits()).collect();
    let bits_b: Vec<u64> = b.x.as_slice().iter().map(|v| v.to_bits()).collect();
    assert_eq!(bits_a, bits_b, "assignments must agree bit-for-bit");
    // The prices the next resolve starts from ride in the snapshot too.
    assert!(!a.prices.is_empty(), "ground-truth resolves keep prices");
    let prices_a: Vec<u64> = a.prices.iter().map(|v| v.to_bits()).collect();
    let prices_b: Vec<u64> = b.prices.iter().map(|v| v.to_bits()).collect();
    assert_eq!(prices_a, prices_b, "prices must agree bit-for-bit");
}

#[test]
fn retired_kkt_flags_restore_and_replay_bit_identically() {
    // Snapshot v2 carried a warm-start cache section whose entries end
    // in a per-entry KKT flag, which older writers set to `1` on every
    // convex entry. v3 has no cache: a v2 document with such a section
    // must restore with the section skipped and resume exactly like an
    // uninterrupted run, and a truncated section must fail typed.
    let trace = test_trace();
    let config = DaemonConfig::default();
    let mut straight_daemon = ExchangeDaemon::new(config.clone(), ground_truth());
    let straight = replay(&mut straight_daemon, &trace);

    let dir = temp_dir("kkt_flag");
    let mut daemon = ExchangeDaemon::new(config.clone(), ground_truth());
    while (daemon.cursor() as usize) < trace.len() / 2 {
        daemon.apply(&trace[daemon.cursor() as usize].event);
    }
    daemon.snapshot(&dir).expect("snapshot writes");
    drop(daemon);
    let path = dir.join(mfcp_serve::state::SNAPSHOT_FILE);
    let v3 = std::fs::read_to_string(&path).unwrap();
    assert!(v3.starts_with("mfcp-serve-snapshot v3\n"));
    let entry = |key: u64| {
        format!(
            "entry {key} 3 3 2 1.5e0 1\nxrow 5e-1 1e0\nxrow 5e-1 0e0\nxrow 0e0 0e0\n\
             duals 2.5e-1 -1e0\nprices 1e-1 2e-1 3e-1 -1e-2\n"
        )
    };
    let v2 = |entries: &str, count: usize| {
        v3.replacen("v3\n", "v2\n", 1).replacen(
            "predictors ",
            &format!("cache 9 {count}\n{entries}predictors "),
            1,
        )
    };
    let entries = entry(11) + &entry(12);
    std::fs::write(&path, v2(&entries, 2)).unwrap();
    let mut restored =
        ExchangeDaemon::restore(&dir, config.clone(), ground_truth()).expect("flagged v2 restores");
    let resumed = replay(&mut restored, &trace);

    // The same section cut short: an entry short of its prices line,
    // and a count promising an entry that never comes.
    let cut = entries
        .trim_end()
        .rsplit_once('\n')
        .expect("lines")
        .0
        .to_string()
        + "\n";
    for doc in [v2(&cut, 2), v2(&entries, 3)] {
        std::fs::write(&path, doc).unwrap();
        let result = ExchangeDaemon::restore(&dir, config.clone(), ground_truth());
        assert!(
            matches!(result, Err(SnapshotError::Format(_))),
            "a truncated cache section must fail typed"
        );
    }
    std::fs::remove_dir_all(&dir).ok();

    assert_eq!(straight.events, resumed.events);
    assert_eq!(straight.counters, resumed.counters);
    let a = straight.last.expect("straight run ends with a matching");
    let b = resumed.last.expect("resumed run ends with a matching");
    assert_eq!(a.ids, b.ids);
    assert_eq!(a.objective.to_bits(), b.objective.to_bits());
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(a.x.as_slice()), bits(b.x.as_slice()));
    assert_eq!(bits(&a.prices), bits(&b.prices));
}

#[test]
fn overload_sheds_with_bounded_queue() {
    // Arrivals only, never resolved until the end: admission control is
    // the only thing standing between the queue and unbounded growth.
    let spec = TaskSpec {
        family: TaskFamily::Cnn,
        corpus: Corpus::Cifar10,
        depth: 8,
        width: 64,
        batch_size: 128,
    };
    let config = DaemonConfig {
        max_pending: 4,
        resolve_batch: 1_000,
        degrade_watermark: 1_000,
        ..DaemonConfig::default()
    };
    let mut daemon = ExchangeDaemon::new(config, ground_truth());
    for id in 0..100u64 {
        daemon.apply(&ExchangeEvent::Arrival {
            task_id: id,
            spec: spec.clone(),
        });
        assert!(daemon.pending_len() <= 4, "queue must stay bounded");
    }
    let counters = daemon.counters();
    assert_eq!(counters.admitted, 4);
    assert_eq!(counters.shed, 96);
    assert_eq!(counters.max_pending_seen, 4);
    daemon.finish();
    let last = daemon.last_solution().expect("admitted tasks get matched");
    assert_eq!(last.ids.len(), 4);
}

#[test]
fn capacity_bound_sheds_after_resolves() {
    // Tasks that resolve into the active set still count against the
    // platform capacity bound, so a flood without departures sheds once
    // active + pending hits max_load.
    let spec = TaskSpec {
        family: TaskFamily::Rnn,
        corpus: Corpus::Europarl,
        depth: 4,
        width: 32,
        batch_size: 64,
    };
    let config = DaemonConfig {
        max_load: 10,
        resolve_batch: 2,
        ..DaemonConfig::default()
    };
    let mut daemon = ExchangeDaemon::new(config, ground_truth());
    for id in 0..30u64 {
        daemon.apply(&ExchangeEvent::Arrival {
            task_id: id,
            spec: spec.clone(),
        });
    }
    let counters = daemon.counters();
    assert_eq!(counters.admitted, 10);
    assert_eq!(counters.shed, 20);
}

#[test]
fn zero_deadline_degrades_but_still_serves() {
    let trace = test_trace();
    let config = DaemonConfig {
        deadline: Some(Duration::ZERO),
        ..DaemonConfig::default()
    };
    let mut daemon = ExchangeDaemon::new(config, ground_truth());
    let outcome = replay(&mut daemon, &trace[..trace.len() / 4]);
    let counters = outcome.counters;
    assert!(counters.resolves > 0);
    assert_eq!(
        counters.deadline_miss, counters.resolves,
        "a zero deadline must miss on every resolve"
    );
    // Degraded or not, the exchange still holds a feasible matching:
    // every column sums to one.
    let last = outcome
        .last
        .expect("greedy rung always produces a matching");
    for j in 0..last.x.cols() {
        let col: f64 = (0..last.x.rows()).map(|i| last.x[(i, j)]).sum();
        assert!((col - 1.0).abs() < 1e-9, "column {j} sums to {col}");
    }
}

#[test]
fn outage_routes_around_downed_cluster() {
    let spec = TaskSpec {
        family: TaskFamily::Transformer,
        corpus: Corpus::ImageNet,
        depth: 12,
        width: 256,
        batch_size: 32,
    };
    let config = DaemonConfig {
        resolve_batch: 1,
        ..DaemonConfig::default()
    };
    let mut daemon = ExchangeDaemon::new(config, ground_truth());
    daemon.apply(&ExchangeEvent::ClusterDown { cluster: 0 });
    for id in 0..6u64 {
        daemon.apply(&ExchangeEvent::Arrival {
            task_id: id,
            spec: spec.clone(),
        });
    }
    let last = daemon.last_solution().expect("matched during the outage");
    // The downed cluster's times are penalized by 1e4; no task should
    // put meaningful mass there.
    for j in 0..last.x.cols() {
        assert!(
            last.x[(0, j)] < 0.05,
            "task {j} put {} on the downed cluster",
            last.x[(0, j)]
        );
    }
    // After recovery the cluster is usable again.
    daemon.apply(&ExchangeEvent::ClusterUp { cluster: 0 });
    let recovered = daemon.last_solution().expect("re-solved after recovery");
    let mass_on_zero: f64 = (0..recovered.x.cols()).map(|j| recovered.x[(0, j)]).sum();
    assert!(
        mass_on_zero > 0.1,
        "cluster 0 should attract work again, got {mass_on_zero}"
    );
}

#[test]
fn learned_predictors_round_trip_through_snapshot() {
    let embedder = FeatureEmbedder::default_platform();
    let make_source = || {
        let mut rng = StdRng::seed_from_u64(11);
        let predictors = (0..3)
            .map(|_| mfcp_core::predictor::ClusterPredictor::new(embedder.dim(), &[8], &mut rng))
            .collect();
        MatrixSource::Learned {
            predictors,
            embedder: FeatureEmbedder::default_platform(),
        }
    };
    let trace = test_trace();
    let half = trace.len() / 2;
    let config = DaemonConfig::default();

    let mut reference = ExchangeDaemon::new(config.clone(), make_source());
    let straight = replay(&mut reference, &trace[..half]);

    let dir = temp_dir("learned");
    let killed = replay_with_kills(&trace[..half], &config, make_source, &dir, &[half / 2])
        .expect("learned-mode chaos replay");
    assert!(
        dir.join("predictors").join("cluster_0.mfcp").exists(),
        "snapshot must include the predictor checkpoint"
    );
    std::fs::remove_dir_all(&dir).ok();

    let a = straight.last.expect("matching under learned predictors");
    let b = killed.last.expect("matching after kill/restore");
    assert_eq!(a.ids, b.ids);
    assert_eq!(a.objective.to_bits(), b.objective.to_bits());
    assert_eq!(
        a.x.as_slice()
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<_>>(),
        b.x.as_slice()
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<_>>()
    );
    assert_eq!(
        a.prices.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        b.prices.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
    );
}

#[test]
fn learned_kill_resume_is_bit_identical() {
    // Learned predictors over the whole trace, outages included, killed
    // at every 1/4 mark: each restored daemon starts with no per-task
    // columns and recomputes them from the checkpointed predictors, so
    // its matrices, and with them the final matching, must not move.
    let embedder = FeatureEmbedder::default_platform();
    let make_source = || {
        let mut rng = StdRng::seed_from_u64(29);
        let predictors = (0..3)
            .map(|_| mfcp_core::predictor::ClusterPredictor::new(embedder.dim(), &[8], &mut rng))
            .collect();
        MatrixSource::Learned {
            predictors,
            embedder: FeatureEmbedder::default_platform(),
        }
    };
    let trace = test_trace();
    let config = DaemonConfig::default();

    let mut straight_daemon = ExchangeDaemon::new(config.clone(), make_source());
    let straight = replay(&mut straight_daemon, &trace);

    let dir = temp_dir("learned_quarters");
    let kills: Vec<usize> = (1..4).map(|q| q * trace.len() / 4).collect();
    let killed = replay_with_kills(&trace, &config, make_source, &dir, &kills)
        .expect("learned chaos replay survives kill/restore");
    std::fs::remove_dir_all(&dir).ok();

    assert_eq!(straight.events, killed.events);
    assert_eq!(straight.counters, killed.counters);
    let a = straight.last.expect("straight run ends with a matching");
    let b = killed.last.expect("killed run ends with a matching");
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(a.ids, b.ids);
    assert_eq!(a.objective.to_bits(), b.objective.to_bits());
    assert_eq!(bits(a.x.as_slice()), bits(b.x.as_slice()));
    assert_eq!(bits(&a.prices), bits(&b.prices));
}

#[test]
fn ops_server_enabled_stays_bit_identical() {
    // The live ops surface must be strictly read-only against solver
    // state: the same trace replayed with and without the HTTP server +
    // sampler (and with requests actively hitting the endpoints
    // mid-replay) must end in bit-identical matchings.
    let trace = test_trace();
    let plain_config = DaemonConfig::default();
    let ops_config = DaemonConfig {
        metrics_addr: Some("127.0.0.1:0".to_string()),
        ..DaemonConfig::default()
    };

    let mut plain = ExchangeDaemon::new(plain_config, ground_truth());
    let baseline = replay(&mut plain, &trace);

    let mut served = ExchangeDaemon::new(ops_config.clone(), ground_truth());
    let addr = served
        .ops_addr()
        .expect("ops server binds an ephemeral port");
    // Poll the surface while the daemon is mid-replay, not just after
    // (raw applies, not `replay`, whose end-of-trace flush would add a
    // resolve the baseline run doesn't have).
    let half = trace.len() / 2;
    for event in &trace[..half] {
        served.apply(&event.event);
    }
    for path in ["/healthz", "/metrics", "/slo", "/timeseries", "/trace"] {
        use std::io::{Read, Write};
        let mut s = std::net::TcpStream::connect(addr).expect("connect ops surface");
        s.write_all(format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes())
            .expect("request");
        let mut reply = String::new();
        s.read_to_string(&mut reply).expect("response");
        assert!(reply.starts_with("HTTP/1.1 200"), "{path}: {reply}");
    }
    let with_ops = replay(&mut served, &trace);

    assert_eq!(baseline.events, with_ops.events);
    assert_eq!(
        baseline.counters, with_ops.counters,
        "SLO counters must not see the ops surface"
    );
    let a = baseline.last.expect("baseline matching");
    let b = with_ops.last.expect("matching with ops surface enabled");
    assert_eq!(a.ids, b.ids);
    assert_eq!(a.objective.to_bits(), b.objective.to_bits());
    assert_eq!(
        a.x.as_slice()
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<_>>(),
        b.x.as_slice()
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<_>>(),
        "ops surface must leave the matching bit-identical"
    );

    // And the chaos harness composes with the server enabled: each
    // restore rebinds a fresh ephemeral port.
    let dir = temp_dir("ops_chaos");
    let killed = replay_with_kills(
        &trace,
        &ops_config,
        ground_truth,
        &dir,
        &[trace.len() / 3, 2 * trace.len() / 3],
    )
    .expect("chaos replay with ops surface enabled");
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(baseline.counters, killed.counters);
    let c = killed.last.expect("matching after ops-enabled chaos run");
    assert_eq!(a.objective.to_bits(), c.objective.to_bits());
}

#[test]
fn untrained_dual_head_is_inert_bit_for_bit() {
    // A head below its readiness bar abstains from every prediction, so
    // attaching it must leave the replay bit-identical to a headless
    // daemon — the learned path can only ever *add* a seed source.
    let trace = test_trace();
    let config = DaemonConfig::default();

    let mut plain = ExchangeDaemon::new(config.clone(), ground_truth());
    let baseline = replay(&mut plain, &trace);

    let head = LearnedDualHead::new(3, 17);
    assert!(!head.ready());
    let mut with_head = ExchangeDaemon::new(config, ground_truth()).with_dual_head(head);
    let seeded = replay(&mut with_head, &trace);

    assert_eq!(baseline.events, seeded.events);
    assert_eq!(baseline.counters, seeded.counters);
    let a = baseline.last.expect("baseline matching");
    let b = seeded.last.expect("matching with inert head");
    assert_eq!(a.ids, b.ids);
    assert_eq!(a.objective.to_bits(), b.objective.to_bits());
    assert_eq!(
        a.x.as_slice()
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<_>>(),
        b.x.as_slice()
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<_>>(),
        "an abstaining head must leave the matching bit-identical"
    );
}

#[test]
fn trained_dual_head_seeds_resolves_without_previous_prices() {
    // Train a head offline on solved instances of the serving shape,
    // attach it frozen, and replay with a degrade watermark of 2 so
    // many resolves run greedily. A resolve after a priced solve starts
    // from its prices and never asks the head; an optimizing resolve
    // without previous prices (the first one, or one after a greedy
    // resolve, which keeps none) starts from the head's prices. The
    // final matching must stay a valid, finite solution.
    let params = RelaxationParams::default();
    let solver = RobustSolver::new(params);
    let mut head = LearnedDualHead::new(3, 71);
    let mut rng = StdRng::seed_from_u64(404);
    for k in 0..10u64 {
        let n = 3 + (k as usize % 4);
        let t = Matrix::from_fn(3, n, |_, _| rng.gen_range(0.5..2.0));
        let a = Matrix::from_fn(3, n, |_, _| rng.gen_range(0.8..1.0));
        let problem = MatchingProblem::new(t, a, 0.75);
        let sol = solver
            .solve(&problem, SolveCtx::default())
            .expect("training solve");
        head.observe(&problem, &params, &sol.x);
    }
    assert!(head.ready(), "10 clean observations clear the bar");
    assert!(head.prices_ready(), "and the price head's");

    let predicts = mfcp_obs::counter("optim.learned.predict");
    let rejections = mfcp_obs::counter("optim.learned.rejected");
    let (predicts_before, rejections_before) = (predicts.get(), rejections.get());
    let trace = test_trace();
    let config = DaemonConfig {
        degrade_watermark: 2,
        ..DaemonConfig::default()
    };
    let mut daemon = ExchangeDaemon::new(config, ground_truth()).with_dual_head(head);
    let (mut seeded, mut given, mut abstained) = (0u64, 0u64, 0u64);
    let mut down = std::collections::BTreeSet::new();
    for event in trace.iter().map(|e| Some(&e.event)).chain([None]) {
        let resolves = daemon.counters().resolves;
        let priced = daemon.last_solution().is_some_and(|l| !l.prices.is_empty());
        match event {
            Some(event) => {
                match event {
                    ExchangeEvent::ClusterDown { cluster } => {
                        down.insert(*cluster);
                    }
                    ExchangeEvent::ClusterUp { cluster } => {
                        down.remove(cluster);
                    }
                    _ => {}
                }
                daemon.apply(event)
            }
            None => daemon.finish(),
        }
        let Some(diagnostics) = daemon.last_resolve() else {
            continue;
        };
        if daemon.counters().resolves == resolves
            || diagnostics.attempts[0].stage != FallbackStage::Primary
        {
            continue; // no resolve, or a degraded greedy-only one
        }
        if priced {
            assert_eq!(diagnostics.seed, SeedProvenance::Seeded(SeedSource::Given));
            given += 1;
        } else if !down.is_empty() {
            // The solve runs over the clusters that are up, a shape the
            // 3-cluster head does not cover: it abstains.
            assert_eq!(diagnostics.seed, SeedProvenance::Cold);
            abstained += 1;
        } else {
            assert_eq!(
                diagnostics.seed,
                SeedProvenance::Seeded(SeedSource::Predicted),
                "path: {}",
                diagnostics.path()
            );
            seeded += 1;
        }
    }

    assert!(
        daemon.counters().degraded > 0,
        "the watermark must degrade resolves"
    );
    assert!(
        seeded > 1 && given > 0,
        "a ready head must seed resolves after greedy ones over a 2h trace \
         ({seeded} seeded, {given} from previous prices, {abstained} abstained)"
    );
    assert!(predicts.get() - predicts_before >= seeded);
    assert_eq!(
        rejections.get() - rejections_before,
        0,
        "every in-family prediction must pass its check"
    );
    let last = daemon.last_solution().expect("trace ends with a matching");
    assert!(last.objective.is_finite());
    assert!(last.x.as_slice().iter().all(|v| v.is_finite()));
    assert!(daemon.dual_head().is_some_and(|h| h.ready()));
}
