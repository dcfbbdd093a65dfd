//! Property-based tests for the crash-safety ledger: any journal the
//! writer can produce must replay bit-exactly, and a journal truncated at
//! *any* byte offset — the on-disk state a crash can leave — must still
//! load, replaying only fully-durable records and re-running the rest.

use std::path::PathBuf;

use coop_experiments::journal::{JobOutcome, JobRecord, JournalReplay, RunHeader, RunJournal};
use coop_incentives::PeerId;
use coop_swarm::{PeerRecord, SimResult};
use proptest::prelude::*;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "coop-journal-prop-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A synthetic result whose fields exercise the encoder's edge cases:
/// large (but in-contract, < 2^53) u64 counters, non-exact decimals,
/// optional times. Seeds and fingerprints go beyond 2^53 — those travel
/// as hex strings in the ledger.
fn sample_result(bits: u64, x: f64) -> SimResult {
    let mut r = SimResult {
        rounds_run: bits % 1_000,
        sim_seconds: x,
        stalled: bits & 1 == 0,
        ..SimResult::default()
    };
    r.peers.push(PeerRecord {
        id: PeerId::new((bits % 64) as u32),
        capacity_bps: x * 3.0 + 1.0,
        compliant: bits & 2 == 0,
        arrival_s: x / 7.0,
        bootstrap_s: (bits & 4 == 0).then_some(x / 3.0),
        completion_s: (bits & 8 == 0).then_some(x + 1.0),
        bytes_sent: bits,
        bytes_received_usable: bits >> 3,
        bytes_received_raw: bits >> 2,
        bytes_inherited: bits >> 5,
    });
    r.totals.uploaded_compliant = bits ^ 0xFF;
    r.totals.bytes_by_reason[(bits % 5) as usize] = bits >> 7;
    r.fairness_avg.push(x, x * 0.5 + 0.1);
    r.susceptibility.push(x + 2.0, f64::MIN_POSITIVE);
    r
}

fn record(fingerprint: u64, slot: u64, bits: u64, x: f64) -> JobRecord {
    JobRecord {
        fingerprint,
        slot,
        label: format!("Mech-{}", bits % 7),
        seed: bits.rotate_left(13),
        outcome: JobOutcome::Ok,
        attempts: 1 + bits % 3,
        result: Some(sample_result(bits, x)),
        error: None,
    }
}

/// A JSON-valid job line whose series time goes backwards is corrupt:
/// replay drops it (the job re-runs) instead of panicking in
/// `TimeSeries::push`.
#[test]
fn backwards_series_time_drops_the_line() {
    let dir = tmp_dir("backwards");
    let header = RunHeader {
        artifact: "fig4".to_string(),
        scale: "quick".to_string(),
        seed: 3,
        replicates: 1,
    };
    let journal = RunJournal::create(&dir, &header).expect("create");
    journal.record_job(&record(7, 0, 21, 4.5)).expect("record");
    drop(journal);

    let path = RunJournal::path_in(&dir);
    let text = std::fs::read_to_string(&path).expect("read journal");
    let key = "\"fairness_avg\":[";
    let start = text.find(key).expect("journal line carries fairness_avg") + key.len() - 1;
    let end = start + text[start..].find("]]").expect("series closes") + 2;
    let corrupt = format!("{}[[2,0],[1,0]]{}", &text[..start], &text[end..]);
    std::fs::write(&path, corrupt).expect("rewrite journal");

    let replay = JournalReplay::load(&dir).expect("a corrupt line never fails the load");
    assert_eq!(replay.header, Some(header));
    assert_eq!(replay.dropped_lines, 1);
    assert_eq!(replay.completed_count(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Whatever the writer records, `load` replays bit-exactly: the
    /// header round-trips, every fingerprint is completed, and each
    /// replayed `SimResult` equals the recorded one (f64s included).
    #[test]
    fn journal_round_trips_bit_exactly(
        base_fp in proptest::strategy::any::<u64>(),
        seed in proptest::strategy::any::<u64>(),
        replicates in 1u64..16,
        cells in proptest::collection::vec(
            (0u64..(1u64 << 50), 0.0f64..1e12),
            1..8,
        ),
    ) {
        let dir = tmp_dir("roundtrip");
        let header = RunHeader {
            artifact: "fig4".to_string(),
            scale: "quick".to_string(),
            seed,
            replicates,
        };
        let journal = RunJournal::create(&dir, &header).expect("create");
        let records: Vec<JobRecord> = cells
            .iter()
            .enumerate()
            // Distinct fingerprints: replay is keyed by fingerprint, and
            // a real grid never repeats a configuration.
            .map(|(i, &(bits, x))| record(base_fp.wrapping_add(i as u64), i as u64, bits, x))
            .collect();
        for r in &records {
            journal.record_job(r).expect("record");
        }

        let replay = JournalReplay::load(&dir).expect("load");
        prop_assert_eq!(&replay.header, &Some(header));
        prop_assert_eq!(replay.dropped_lines, 0);
        prop_assert_eq!(replay.completed_count(), records.len());
        for r in &records {
            prop_assert_eq!(replay.completed(r.fingerprint), r.result.as_ref());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Chopping the journal at an arbitrary byte offset — the state a
    /// crash mid-append leaves behind — never poisons replay: loading
    /// still succeeds, at most the torn line is dropped, and every record
    /// that does replay is bit-exact. The torn job simply re-runs.
    #[test]
    fn journal_truncated_anywhere_still_replays_the_durable_prefix(
        cells in proptest::collection::vec(
            (0u64..(1u64 << 50), 0.0f64..1e9),
            1..5,
        ),
        cut_per_mille in 0u64..=1000,
    ) {
        let dir = tmp_dir("truncate");
        let header = RunHeader {
            artifact: "fig5".to_string(),
            scale: "quick".to_string(),
            seed: 9,
            replicates: 1,
        };
        let journal = RunJournal::create(&dir, &header).expect("create");
        let records: Vec<JobRecord> = cells
            .iter()
            .enumerate()
            .map(|(i, &(bits, x))| record(1 + i as u64, i as u64, bits, x))
            .collect();
        for r in &records {
            journal.record_job(r).expect("record");
        }
        drop(journal);

        let path = RunJournal::path_in(&dir);
        let text = std::fs::read(&path).expect("read journal");
        let cut = (text.len() as u64 * cut_per_mille / 1000) as usize;
        std::fs::write(&path, &text[..cut]).expect("truncate journal");

        let replay = JournalReplay::load(&dir).expect("truncated journal loads");
        // A cut hits at most one line, so at most one record is lost.
        prop_assert!(replay.dropped_lines <= 1);
        prop_assert!(replay.completed_count() <= records.len());
        let mut replayed = 0;
        for r in &records {
            if let Some(result) = replay.completed(r.fingerprint) {
                prop_assert_eq!(Some(result), r.result.as_ref());
                replayed += 1;
            }
        }
        prop_assert_eq!(replayed, replay.completed_count());
        // Everything before the cut is durable: exactly the fully-written
        // job lines replay (the first surviving line is the header).
        let whole_lines = text[..cut].iter().filter(|&&b| b == b'\n').count();
        let surviving_jobs = whole_lines.saturating_sub(1).min(records.len());
        prop_assert_eq!(replay.completed_count(), surviving_jobs);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
