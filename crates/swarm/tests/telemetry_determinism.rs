//! Telemetry must be purely observational: attaching a recorder — at any
//! sampling rate — may never change a simulation's results, because the
//! recorder draws no randomness and no simulation branch consults it.

use coop_incentives::MechanismKind;
use coop_swarm::{flash_crowd, Simulation, SwarmConfig};
use coop_telemetry::{Category, MemorySink, Recorder, Sampling, TelemetryConfig, TraceEvent};

fn run_with(recorder: Recorder) -> (coop_swarm::SimResult, coop_telemetry::TelemetryReport) {
    let config = SwarmConfig::tiny_test();
    let population = flash_crowd(&config, 12, MechanismKind::TChain, 3);
    Simulation::builder(config)
        .population(population)
        .recorder(recorder)
        .build()
        .expect("valid setup")
        .run_traced()
}

#[test]
fn results_are_identical_across_telemetry_modes() {
    let (baseline, empty) = run_with(Recorder::disabled());
    assert_eq!(empty.events.len(), 0, "disabled recorder gathers nothing");

    let (full, report) = run_with(Recorder::enabled(TelemetryConfig {
        probe_every: 1,
        ..TelemetryConfig::default()
    }));
    assert_eq!(baseline, full, "full-rate telemetry changed the results");
    assert!(report.counter("swarm.rounds") > 0);

    let sampled_config = TelemetryConfig {
        probe_every: 7,
        sampling: Sampling::keep_all()
            .every(Category::Grant, 13)
            .every(Category::Transfer, 0)
            .every(Category::Probe, 3),
        ..TelemetryConfig::default()
    };
    let (sampled, _) = run_with(Recorder::enabled(sampled_config));
    assert_eq!(baseline, sampled, "sampling rate changed the results");
}

#[test]
fn enabled_recorder_gathers_probes_grants_and_engine_stats() {
    let (result, report) = run_with(Recorder::enabled(TelemetryConfig {
        probe_every: 1,
        ..TelemetryConfig::default()
    }));

    assert_eq!(report.counter("swarm.rounds"), result.rounds_run);
    assert!(report.counter("swarm.grants") > 0, "grants were recorded");
    assert!(report.counter("swarm.granted_bytes") > 0);
    assert!(report.counter("engine.events_processed") > 0);
    assert!(report.counter("engine.queue_depth_hwm") > 0);

    let probes: Vec<_> = report.events_in(Category::Probe).collect();
    assert_eq!(
        probes.len() as u64,
        result.rounds_run,
        "probe_every=1 probes every round"
    );
    // Probes carry a consistent bytes-by-reason delta stream: the deltas
    // must sum to (at most) the run's total attributed bytes.
    let mut delta_sum = 0u64;
    for p in &probes {
        if let TraceEvent::RoundProbe {
            bytes_by_reason_delta,
            ..
        } = p
        {
            delta_sum += bytes_by_reason_delta.iter().sum::<u64>();
        }
    }
    let total: u64 = result.totals.bytes_by_reason.iter().sum();
    assert!(delta_sum <= total);
    assert!(delta_sum > 0, "some bytes attributed in probes");

    assert!(
        report.events_in(Category::Grant).next().is_some(),
        "grant decisions traced"
    );
    assert_eq!(report.events_in(Category::Engine).count(), 1);

    // Histograms and spans surfaces populated.
    assert!(report
        .histograms
        .iter()
        .any(|(name, h)| name == "swarm.probe.active_peers" && h.count() > 0));
}

#[test]
fn sinks_stream_during_the_run() {
    let sink = MemorySink::new();
    let mut recorder = Recorder::enabled(TelemetryConfig {
        probe_every: 2,
        ..TelemetryConfig::default()
    });
    recorder.add_sink(Box::new(sink.clone()));
    let (_, report) = run_with(recorder);
    assert_eq!(sink.len(), report.events.len(), "sink saw the kept stream");
    for event in sink.events() {
        let line = event.to_jsonl();
        coop_telemetry::json::parse(&line).expect("sink events render valid JSONL");
    }
}

#[test]
fn inflight_at_end_events_come_in_pair_order() {
    let mut config = SwarmConfig::tiny_test();
    config.max_rounds = 4;
    let population = flash_crowd(&config, 24, MechanismKind::BitTorrent, 5);
    let (_, report) = Simulation::builder(config)
        .population(population)
        .recorder(Recorder::enabled(TelemetryConfig::default()))
        .build()
        .expect("valid setup")
        .run_traced();
    let pairs: Vec<(u32, u32)> = report
        .events_in(Category::Final)
        .filter_map(|e| match e {
            TraceEvent::InflightAtEnd { from, to, .. } => Some((*from, *to)),
            _ => None,
        })
        .collect();
    assert!(pairs.len() > 1, "the run ends with transfers in flight");
    assert!(
        pairs.windows(2).all(|w| w[0] < w[1]),
        "InflightAtEnd events out of pair order: {pairs:?}"
    );
}
