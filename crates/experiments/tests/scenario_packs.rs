//! Scenario packs are *data*: the spec → jobs compilation must be stable
//! (pinned golden fingerprints, canonical under key reordering), faithful
//! (a zero-fault figure-style scenario writes byte-identical artifacts to
//! the plain fig4 runner), and diagnosable (spec errors carry file, line
//! and field).

use std::path::PathBuf;

use coop_experiments::runners::{fig4, sweep};
use coop_experiments::scenario::{builtin_names, BUILTIN_PACKS};
use coop_experiments::{load_pack, Executor, OutputDir, Scale, Scenario, TelemetryOpts};
use coop_incentives::MechanismKind;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "coop-scn-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn builtin_scenarios_round_trip_through_their_canonical_json() {
    for (name, text) in BUILTIN_PACKS
        .iter()
        .flat_map(|(name, texts)| texts.iter().map(move |text| (name, text)))
    {
        let parsed = Scenario::parse(text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let reparsed = Scenario::parse(&parsed.to_json())
            .unwrap_or_else(|e| panic!("{name} canonical json: {e}"));
        assert_eq!(
            parsed, reparsed,
            "{name}: canonical JSON round-trip drifted"
        );
        assert_eq!(
            parsed.fingerprint(),
            reparsed.fingerprint(),
            "{name}: fingerprint not stable across round-trip"
        );
    }
}

/// Golden spec fingerprints for the built-in library. These pin the
/// canonical encoding: any change to a built-in spec file *or* to the
/// canonical `to_json()` encoding shows up here and must be deliberate
/// (it invalidates `--resume` for in-flight sweeps of that scenario).
#[test]
fn builtin_fingerprints_are_pinned() {
    let golden: &[(&str, &[u64])] = &[
        ("flash-crowd-baseline", &[0x703d_21b6_ecdf_1404]),
        ("software-update-push", &[0x4be3_15b3_0b40_2fe5]),
        ("mobile-churn-storm", &[0xb069_7c5f_e4ba_d236]),
        ("seeder-starved-archive", &[0x8c13_4418_f432_7e62]),
        ("epoch-settlement", &[0xe137_b39e_b041_f318]),
        ("consensus-bans", &[0x4f2b_4262_7b23_9ecc]),
        (
            "fig4-churn",
            &[
                0xa8af_db7c_c8a0_ca06,
                0x1e96_0b32_5547_32e5,
                0x2002_e1b3_9ec0_f26b,
                0x8afc_bba5_2aeb_4709,
            ],
        ),
    ];
    assert_eq!(builtin_names().len(), golden.len());
    for (name, expected) in golden {
        let pack = load_pack(name).unwrap();
        let actual: Vec<u64> = pack.scenarios.iter().map(|s| s.fingerprint()).collect();
        assert_eq!(
            actual, *expected,
            "{name}: spec fingerprints drifted (actual {actual:#018x?})"
        );
    }
}

#[test]
fn fingerprints_are_stable_under_spec_key_reordering() {
    let ordered = r#"{
        "spec_version": 1,
        "name": "reorder-probe",
        "arrival": {"process": "poisson", "mean_gap_s": 1.5},
        "attack": {"mode": "freeride", "fraction": 0.3},
        "faults": {"churn_rate": 0.01, "loss_prob": 0.02},
        "peers": [40, 80],
        "replicates": 2
    }"#;
    let reordered = r#"{
        "replicates": 2,
        "peers": [40, 80],
        "faults": {"loss_prob": 0.02, "churn_rate": 0.01},
        "attack": {"fraction": 0.3, "mode": "freeride"},
        "arrival": {"mean_gap_s": 1.5, "process": "poisson"},
        "name": "reorder-probe",
        "spec_version": 1
    }"#;
    let a = Scenario::parse(ordered).unwrap();
    let b = Scenario::parse(reordered).unwrap();
    assert_eq!(a, b);
    assert_eq!(a.fingerprint(), b.fingerprint());
}

/// The tentpole acceptance bar: a figure-style scenario with no faults, no
/// attack and default workload compiles onto exactly the plain fig4 job
/// stream, so every fig4 artifact it writes is byte-identical to the plain
/// runner's.
#[test]
fn zero_fault_baseline_scenario_matches_plain_fig4_byte_for_byte() {
    let seed = 7;
    let plain_dir = tmp_dir("plain");
    let sweep_dir = tmp_dir("sweep");
    let plain_out = OutputDir::new(&plain_dir);
    let sweep_out = OutputDir::new(&sweep_dir);
    let executor = Executor::default();
    let opts = TelemetryOpts::disabled();

    // The scenario's `mechanisms: "all"` means the paper's six; restrict
    // the plain runner (which defaults to `EXTENDED`) to the same list.
    fig4::try_run(
        Scale::Quick,
        seed,
        &MechanismKind::ALL,
        &executor,
        &opts,
        &plain_out,
    )
    .expect("plain fig4 runs");

    let pack = load_pack("flash-crowd-baseline").unwrap();
    let (report, errors) =
        sweep::try_run_pack(&pack, Scale::Quick, seed, 1, &executor, &opts, &sweep_out);
    assert!(
        errors.is_empty(),
        "{:?}",
        errors.first().map(ToString::to_string)
    );
    assert_eq!(report.scenarios.len(), 1);
    assert_eq!(report.get("flash-crowd-baseline").figure, "fig4");

    let mut compared = 0;
    for entry in std::fs::read_dir(&plain_dir).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_str().unwrap().to_string();
        if !name.starts_with("fig4") {
            continue; // journal/manifest artifacts are run-identity, not figure data
        }
        let twin = sweep_dir.join(&name);
        assert!(twin.is_file(), "sweep run did not write {name}");
        assert_eq!(
            std::fs::read(&path).unwrap(),
            std::fs::read(&twin).unwrap(),
            "{name}: scenario artifact differs from plain fig4"
        );
        compared += 1;
    }
    assert!(
        compared >= 6,
        "expected the full fig4 artifact set, compared {compared}"
    );
    let _ = std::fs::remove_dir_all(&plain_dir);
    let _ = std::fs::remove_dir_all(&sweep_dir);
}

#[test]
fn epoch_settlement_builtin_compiles_to_the_declared_grid() {
    let pack = load_pack("epoch-settlement").unwrap();
    assert_eq!(pack.scenarios.len(), 1);
    let s = &pack.scenarios[0];
    assert_eq!(
        s.mechanisms,
        [
            MechanismKind::EpochSettlement,
            MechanismKind::FairTorrent,
            MechanismKind::Reputation,
            MechanismKind::Altruism,
        ]
    );
    assert_eq!(s.replicates, 2);
    let jobs = s.jobs(Scale::Quick, 11, 1);
    // replicates (outer) x mechanisms (inner), every job under the attack.
    assert_eq!(jobs.len(), 2 * s.mechanisms.len());
    assert_eq!(jobs[0].kind, MechanismKind::EpochSettlement);
    assert!(jobs.iter().all(|j| j.plan.is_some()));
}

#[test]
fn spec_file_errors_name_the_file_line_and_field() {
    let dir = tmp_dir("err");
    let bad = dir.join("bad-scenario.json");
    std::fs::write(
        &bad,
        "{\n  \"spec_version\": 1,\n  \"name\": \"bad\",\n  \"attack\": {\"mode\": \"freeride\",\n             \"fraction\": 1.5}\n}\n",
    )
    .unwrap();
    let err = load_pack(bad.to_str().unwrap()).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("bad-scenario.json"), "no file in: {msg}");
    assert!(msg.contains("fraction"), "no field in: {msg}");
    assert!(msg.contains(':'), "no location separator in: {msg}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_scenario_error_lists_the_builtin_library() {
    let err = load_pack("no-such-scenario").unwrap_err();
    let msg = err.to_string();
    for name in builtin_names() {
        assert!(msg.contains(name), "'{name}' missing from: {msg}");
    }
}

#[test]
fn directory_packs_load_sorted_and_reject_duplicate_names() {
    let dir = tmp_dir("pack");
    let spec = |name: &str| {
        format!(r#"{{"spec_version": 1, "name": "{name}", "artifacts": "sweep", "peers": [20]}}"#)
    };
    std::fs::write(dir.join("b.json"), spec("beta")).unwrap();
    std::fs::write(dir.join("a.json"), spec("alpha")).unwrap();
    let pack = load_pack(dir.to_str().unwrap()).unwrap();
    let names: Vec<&str> = pack.scenarios.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(
        names,
        ["alpha", "beta"],
        "pack order must follow file names"
    );

    std::fs::write(dir.join("c.json"), spec("alpha")).unwrap();
    let err = load_pack(dir.to_str().unwrap()).unwrap_err();
    assert!(err.to_string().contains("duplicate"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}
