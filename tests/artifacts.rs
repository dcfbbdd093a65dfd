//! The experiment harness must actually produce its artifacts: CSV series,
//! JSON summaries and SVG panels for each figure run.

use coop_experiments::journal::fnv1a;
use coop_experiments::runners::{
    ablations, fig4, fig4_scale, fig5, fig6, fig_consensus, fig_epoch,
};
use coop_experiments::{BatchError, Executor, OutputDir, Scale, ScopedOutputDir, TelemetryOpts};
use coop_incentives::MechanismKind;
use std::path::Path;

#[test]
fn fig4_writes_csv_json_and_svg_artifacts() {
    let out = ScopedOutputDir::temp("fig4_writes_csv_json_and_svg_artifacts");
    let _ = fig4::run(Scale::Quick, 7);
    let dir = out.path();
    let expectations = [
        "fig4_altruism_quick_completion_cdf.csv",
        "fig4_altruism_quick_fairness_vs_time.csv",
        "fig4_altruism_quick_bootstrapped_vs_time.csv",
        "fig4_altruism_quick_peers.csv",
        "fig4_altruism_quick_bandwidth_by_reason.csv",
        "fig4_tchain_quick_completion_cdf.csv",
        "fig4_quick.json",
        "fig4a_completion_cdf_quick.svg",
        "fig4b_fairness_quick.svg",
        "fig4c_bootstrapped_quick.svg",
        "fig4d_susceptibility_quick.svg",
    ];
    for name in expectations {
        let path = dir.join(name);
        assert!(path.exists(), "missing artifact {name}");
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(!text.is_empty(), "{name} is empty");
        if name.ends_with(".svg") {
            assert!(text.contains("</svg>"), "{name} is not an SVG");
        }
        if name.ends_with(".csv") {
            assert!(text.lines().count() >= 1, "{name} has no header");
        }
    }
}

#[test]
fn peer_records_csv_is_well_formed() {
    let out = ScopedOutputDir::temp("peer_records_csv_is_well_formed");
    let _ = fig4::run(Scale::Quick, 8);
    let path = out.path().join("fig4_bittorrent_quick_peers.csv");
    let text = std::fs::read_to_string(path).unwrap();
    let mut lines = text.lines();
    let header = lines.next().unwrap();
    assert!(header.starts_with("peer_id,capacity_bps,compliant"));
    let cols = header.split(',').count();
    let mut rows = 0;
    for line in lines {
        assert_eq!(line.split(',').count(), cols, "ragged row: {line}");
        rows += 1;
    }
    assert_eq!(rows, Scale::Quick.peers(), "one row per peer identity");
}

/// Folds FNV-1a over the sorted (name, bytes) of every file in `dir`
/// whose name `keep` accepts: each name, a zero byte, the length as
/// little-endian u64, then the bytes.
fn files_hash(dir: &Path, keep: fn(&str) -> bool) -> (usize, u64) {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("read artifact dir")
        .map(|entry| entry.expect("dir entry").path())
        .filter_map(|path| {
            let name = path.file_name()?.to_str()?.to_string();
            keep(&name).then(|| (name, std::fs::read(&path).expect("read artifact")))
        })
        .collect();
    files.sort();
    let mut buf = Vec::new();
    for (name, bytes) in &files {
        buf.extend_from_slice(name.as_bytes());
        buf.push(0);
        buf.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
        buf.extend_from_slice(bytes);
    }
    (files.len(), fnv1a(&buf))
}

/// Pins the bytes of the simulated figure and sweep artifact sets from
/// one commit to the next, each at quick scale for seed 42 into its own
/// directory: Figs. 4–6 (also replicated over seeds `[42, 43]`), the
/// fig-epoch and fig-consensus sweeps, the deterministic half of a
/// fig4-scale sweep at N = 200 (its `fig4scale_perf_*` files hold
/// wall-clock readings and are not pinned), and the ablations report.
/// The Fig. 4–6 constants were computed on the commit before the figure
/// runners were folded onto one shared single-seed path and one
/// replicated path; the sweep and ablation constants on the commit
/// before those runners moved onto `SimJob` batches. Both prove their
/// refactor left every artifact byte unchanged. A change here means an
/// artifact changed; re-pin only when that is intended, and say which
/// file moved and why.
#[test]
fn figure_artifact_bytes_are_pinned() {
    let _out = ScopedOutputDir::temp("figure_artifact_bytes_are_pinned");
    type Run = fn(&Executor, &TelemetryOpts, &OutputDir) -> Result<(), BatchError>;
    type Keep = fn(&str) -> bool;
    const SEEDS: [u64; 2] = [42, 43];
    let figures: Keep = |name| name.starts_with("fig");
    let cases: [(&str, Run, Keep, usize, u64); 10] = [
        (
            "fig4",
            |ex, opts, out| {
                fig4::try_run(Scale::Quick, 42, &MechanismKind::EXTENDED, ex, opts, out).map(drop)
            },
            figures,
            53,
            0xc869_0665_0b05_38e4,
        ),
        (
            "fig5",
            |ex, opts, out| fig5::try_run(Scale::Quick, 42, ex, opts, out).map(drop),
            figures,
            53,
            0x2c58_3bd8_3660_53e2,
        ),
        (
            "fig6",
            |ex, opts, out| fig6::try_run(Scale::Quick, 42, ex, opts, out).map(drop),
            figures,
            53,
            0x56e1_9dcb_ca55_1289,
        ),
        (
            "fig4_replicated",
            |ex, opts, out| fig4::try_run_replicated(Scale::Quick, &SEEDS, ex, opts, out).map(drop),
            figures,
            54,
            0x24fa_5a6a_1fe5_9a83,
        ),
        (
            "fig5_replicated",
            |ex, opts, out| fig5::try_run_replicated(Scale::Quick, &SEEDS, ex, opts, out).map(drop),
            figures,
            54,
            0x3b78_d67c_0a16_12b8,
        ),
        (
            "fig6_replicated",
            |ex, opts, out| fig6::try_run_replicated(Scale::Quick, &SEEDS, ex, opts, out).map(drop),
            figures,
            54,
            0xc31f_8824_164d_3ce5,
        ),
        (
            "fig_epoch",
            |ex, opts, out| fig_epoch::try_run(Scale::Quick, 42, None, ex, opts, out).map(drop),
            figures,
            2,
            0x3147_2ded_fb95_6a79,
        ),
        (
            "fig_consensus",
            |ex, opts, out| {
                fig_consensus::try_run(Scale::Quick, 42, None, None, ex, opts, out).map(drop)
            },
            figures,
            2,
            0x61c3_b406_7aad_2e00,
        ),
        (
            "fig4_scale",
            |ex, opts, out| {
                fig4_scale::try_run(Scale::Quick, 42, Some(&[200]), ex, opts, out).map(drop)
            },
            |name| name.starts_with("fig4scale_") && !name.starts_with("fig4scale_perf_"),
            2,
            0xc504_cd1d_bee5_8c95,
        ),
        (
            "ablations",
            // The ablations runner writes into the default artifact
            // directory; pin the file it wrote there.
            |ex, _, out| {
                ablations::try_run(Scale::Quick, 42, ex)?;
                let name = "ablations_quick.json";
                std::fs::create_dir_all(out.path()).expect("create pin dir");
                std::fs::copy(
                    OutputDir::default_dir().path().join(name),
                    out.path().join(name),
                )
                .expect("copy ablations artifact");
                Ok(())
            },
            |name| name.starts_with("ablations_"),
            1,
            0xe4c2_18db_768f_ab33,
        ),
    ];
    let mut drifted = Vec::new();
    for (name, run, keep, files, hash) in cases {
        let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
            .join("artifact_pins")
            .join(name);
        // Stale files from a previous run would corrupt the hash.
        let _ = std::fs::remove_dir_all(&dir);
        run(
            &Executor::new(2),
            &TelemetryOpts::disabled(),
            &OutputDir::new(&dir),
        )
        .unwrap_or_else(|e| panic!("{name}: {e}"));
        let got = files_hash(&dir, keep);
        if got != (files, hash) {
            drifted.push(format!("{name}: got ({}, {:#018x})", got.0, got.1));
        }
    }
    assert!(
        drifted.is_empty(),
        "artifact bytes drifted from the pinned (count, hash):\n{}",
        drifted.join("\n")
    );
}
