//! The per-run crash-safety ledger (`journal.jsonl`).
//!
//! A [`RunJournal`] lives next to a run's artifacts and records, one JSON
//! object per line, (a) a header identifying the run (artifact, scale,
//! seed, replicates), (b) one record per finished job — keyed by a
//! fingerprint of the full [`SimJob`](crate::SimJob) configuration — with
//! its outcome, attempt count, and (for successes) the complete
//! [`SimResult`], and (c) FNV-1a content hashes of the artifacts written
//! at the end of the run.
//!
//! Unlike whole-file artifacts (which go through
//! [`coop_telemetry::write_atomic`]), the journal is an *append-only*
//! stream: each record is one `write` followed by an fsync, so a crash at
//! any instant leaves a valid prefix plus at most one torn trailing line.
//! [`JournalReplay::load`] tolerates exactly that — unparseable lines are
//! dropped (the affected job simply re-runs) and never poison the rest of
//! the ledger.
//!
//! `--resume <dir>` replays the ledger: completed jobs are satisfied from
//! their recorded [`SimResult`]s (bit-exact — the f64 encoding uses
//! shortest-round-trip formatting, and `u64` values that may exceed the
//! JSON number range, like seeds and fingerprints, travel as 16-digit hex
//! strings), incomplete or failed jobs re-run, and the artifact writers
//! then see exactly the results an uninterrupted run would have produced.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use coop_swarm::{PeerRecord, SimResult, Totals};
use coop_telemetry::is_staging_file;
use coop_telemetry::json::{self, Json, ObjWriter};

use coop_incentives::metrics::TimeSeries;
use coop_incentives::PeerId;

/// The journal's file name, next to the run's artifacts.
pub const JOURNAL_FILE: &str = "journal.jsonl";

/// Journal format version (bump on incompatible record changes).
pub const JOURNAL_VERSION: u64 = 1;

/// Identifies the run a journal belongs to; `--resume` refuses a
/// directory whose header does not match the current invocation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunHeader {
    /// The artifact being produced (e.g. `fig4`, `all`).
    pub artifact: String,
    /// Scale name (`quick` / `default` / `paper`).
    pub scale: String,
    /// The base seed.
    pub seed: u64,
    /// Replicate count.
    pub replicates: u64,
}

/// How a journaled job ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobOutcome {
    /// Completed and its result is recorded.
    Ok,
    /// Panicked on every attempt.
    Panic,
    /// Exceeded the watchdog timeout on every attempt.
    Timeout,
}

impl JobOutcome {
    fn name(self) -> &'static str {
        match self {
            JobOutcome::Ok => "ok",
            JobOutcome::Panic => "panic",
            JobOutcome::Timeout => "timeout",
        }
    }
}

/// One finished job, as recorded in (or replayed from) the ledger.
#[derive(Clone, Debug, PartialEq)]
pub struct JobRecord {
    /// Fingerprint of the job's full configuration
    /// ([`coop_telemetry::fingerprint_debug`] of the `SimJob`).
    pub fingerprint: u64,
    /// Batch slot the job ran in.
    pub slot: u64,
    /// Job label (mechanism name).
    pub label: String,
    /// The job's seed.
    pub seed: u64,
    /// How the job ended.
    pub outcome: JobOutcome,
    /// Attempts consumed (1 = first try).
    pub attempts: u64,
    /// The result (present iff `outcome` is [`JobOutcome::Ok`]).
    pub result: Option<SimResult>,
    /// The failure message (present for non-`Ok` outcomes).
    pub error: Option<String>,
}

/// The append-only crash-safety ledger for one run directory.
#[derive(Debug)]
pub struct RunJournal {
    path: PathBuf,
    file: Mutex<File>,
}

impl RunJournal {
    /// The journal path inside `dir`.
    pub fn path_in(dir: &Path) -> PathBuf {
        dir.join(JOURNAL_FILE)
    }

    /// Starts a fresh journal in `dir` (truncating any previous one) and
    /// writes the run header.
    ///
    /// # Errors
    ///
    /// Returns any I/O error.
    pub fn create(dir: &Path, header: &RunHeader) -> io::Result<RunJournal> {
        std::fs::create_dir_all(dir)?;
        let path = Self::path_in(dir);
        let file = File::create(&path)?;
        let journal = RunJournal {
            path,
            file: Mutex::new(file),
        };
        let mut o = ObjWriter::new();
        o.str("type", "run")
            .uint("version", JOURNAL_VERSION)
            .str("artifact", &header.artifact)
            .str("scale", &header.scale)
            .str("seed", &hex16(header.seed))
            .uint("replicates", header.replicates);
        journal.append_line(&o.finish())?;
        Ok(journal)
    }

    /// Reopens an existing journal in `dir` for appending (the `--resume`
    /// path; pair with [`JournalReplay::load`]).
    ///
    /// # Errors
    ///
    /// Returns any I/O error; [`io::ErrorKind::NotFound`] when the
    /// directory holds no journal.
    pub fn open_append(dir: &Path) -> io::Result<RunJournal> {
        let path = Self::path_in(dir);
        let file = OpenOptions::new().append(true).open(&path)?;
        Ok(RunJournal {
            path,
            file: Mutex::new(file),
        })
    }

    /// The journal file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one finished-job record (fsynced before returning).
    ///
    /// # Errors
    ///
    /// Returns any I/O error.
    pub fn record_job(&self, record: &JobRecord) -> io::Result<()> {
        let mut o = ObjWriter::new();
        o.str("type", "job")
            .str("fp", &hex16(record.fingerprint))
            .uint("slot", record.slot)
            .str("label", &record.label)
            .str("seed", &hex16(record.seed))
            .str("outcome", record.outcome.name())
            .uint("attempts", record.attempts);
        if let Some(result) = &record.result {
            o.raw("result", &result_to_json(result));
        }
        if let Some(error) = &record.error {
            o.str("error", error);
        }
        self.append_line(&o.finish())
    }

    /// Appends one artifact content-hash record (fsynced).
    ///
    /// # Errors
    ///
    /// Returns any I/O error.
    pub fn record_artifact(&self, file_name: &str, hash: u64) -> io::Result<()> {
        let mut o = ObjWriter::new();
        o.str("type", "artifact")
            .str("file", file_name)
            .str("hash", &hex16(hash));
        self.append_line(&o.finish())
    }

    /// Hashes and records every regular file directly inside `dir`
    /// (except the journal itself and staging files a killed writer left
    /// behind), in name order. Returns how many were recorded.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the directory walk or the appends.
    pub fn record_artifact_dir(&self, dir: &Path) -> io::Result<usize> {
        let mut names: Vec<String> = std::fs::read_dir(dir)?
            .filter_map(Result::ok)
            .filter(|e| e.file_type().map(|t| t.is_file()).unwrap_or(false))
            .filter_map(|e| e.file_name().into_string().ok())
            .filter(|n| n != JOURNAL_FILE && !is_staging_file(n))
            .collect();
        names.sort();
        for name in &names {
            let bytes = std::fs::read(dir.join(name))?;
            self.record_artifact(name, fnv1a(&bytes))?;
        }
        Ok(names.len())
    }

    fn append_line(&self, line: &str) -> io::Result<()> {
        let mut file = self.file.lock().expect("journal lock poisoned");
        file.write_all(line.as_bytes())?;
        file.write_all(b"\n")?;
        file.flush()?;
        file.sync_data()
    }
}

/// The replayed contents of an existing journal.
#[derive(Debug, Default)]
pub struct JournalReplay {
    /// The run header, when a valid one led the file.
    pub header: Option<RunHeader>,
    /// Completed jobs by configuration fingerprint.
    completed: HashMap<u64, SimResult>,
    /// Jobs recorded as failed (they re-run on resume, but their prior
    /// attempt counts carry into reporting).
    failed: HashMap<u64, u64>,
    /// Lines dropped as truncated or corrupted (those jobs re-run).
    pub dropped_lines: usize,
}

impl JournalReplay {
    /// Loads and replays `dir`'s journal. Unparseable or incomplete lines
    /// — the signature of a crash mid-append — are dropped individually;
    /// every record that survives is trustworthy because records are only
    /// appended after their job fully finished.
    ///
    /// # Errors
    ///
    /// Returns any I/O error; [`io::ErrorKind::NotFound`] when `dir` has
    /// no journal.
    pub fn load(dir: &Path) -> io::Result<JournalReplay> {
        let text = std::fs::read_to_string(RunJournal::path_in(dir))?;
        let mut replay = JournalReplay::default();
        for line in text.lines() {
            if line.trim().is_empty() {
                continue;
            }
            let Ok(doc) = json::parse(line) else {
                replay.dropped_lines += 1;
                continue;
            };
            match doc.get("type").and_then(Json::as_str) {
                Some("run") => {
                    let header = (|| {
                        let version = as_u64(doc.get("version")?)?;
                        if version != JOURNAL_VERSION {
                            return None;
                        }
                        Some(RunHeader {
                            artifact: doc.get("artifact")?.as_str()?.to_string(),
                            scale: doc.get("scale")?.as_str()?.to_string(),
                            seed: from_hex16(doc.get("seed")?.as_str()?)?,
                            replicates: as_u64(doc.get("replicates")?)?,
                        })
                    })();
                    match header {
                        Some(h) => replay.header = Some(h),
                        None => replay.dropped_lines += 1,
                    }
                }
                Some("job") => {
                    let parsed = (|| {
                        let fp = from_hex16(doc.get("fp")?.as_str()?)?;
                        let outcome = doc.get("outcome")?.as_str()?;
                        let attempts = as_u64(doc.get("attempts")?)?;
                        Some((fp, outcome.to_string(), attempts))
                    })();
                    match parsed {
                        Some((fp, outcome, _attempts)) if outcome == "ok" => {
                            match doc.get("result").and_then(result_from_json) {
                                Some(result) => {
                                    replay.completed.insert(fp, result);
                                }
                                None => replay.dropped_lines += 1,
                            }
                        }
                        Some((fp, _outcome, attempts)) => {
                            replay.failed.insert(fp, attempts);
                        }
                        None => replay.dropped_lines += 1,
                    }
                }
                Some("artifact") => {}
                _ => replay.dropped_lines += 1,
            }
        }
        Ok(replay)
    }

    /// The recorded result for a completed job, if any.
    pub fn completed(&self, fingerprint: u64) -> Option<&SimResult> {
        self.completed.get(&fingerprint)
    }

    /// Number of completed jobs in the ledger.
    pub fn completed_count(&self) -> usize {
        self.completed.len()
    }

    /// Attempts a previously *failed* job already consumed, if recorded.
    pub fn prior_attempts(&self, fingerprint: u64) -> u64 {
        self.failed.get(&fingerprint).copied().unwrap_or(0)
    }
}

/// The journal-header artifact id for a scenario-pack sweep. Folding the
/// pack fingerprint into the id makes `--resume` refuse a directory whose
/// journal belongs to a different (or since-edited) pack: the header
/// comparison fails before any job is replayed.
pub fn sweep_artifact_id(pack_fingerprint: u64) -> String {
    format!("sweep:{pack_fingerprint:016x}")
}

/// FNV-1a over raw bytes (artifact content hashes).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn hex16(v: u64) -> String {
    format!("{v:016x}")
}

fn from_hex16(s: &str) -> Option<u64> {
    u64::from_str_radix(s, 16).ok()
}

/// Converts a JSON number back to the `u64` it was written from. Safe
/// because every `u64` serialized as a bare number is a byte/round count
/// far below 2^53; unbounded values (seeds, fingerprints) travel as hex
/// strings instead.
fn as_u64(j: &Json) -> Option<u64> {
    let f = j.as_f64()?;
    (f >= 0.0 && f.fract() == 0.0 && f <= 9_007_199_254_740_992.0).then_some(f as u64)
}

fn as_opt_f64(j: &Json) -> Option<Option<f64>> {
    match j {
        Json::Null => Some(None),
        Json::Num(n) => Some(Some(*n)),
        _ => None,
    }
}

fn write_opt_f64(out: &mut String, v: Option<f64>) {
    match v {
        Some(x) => json::write_f64(out, x),
        None => out.push_str("null"),
    }
}

fn series_to_json(out: &mut String, series: &TimeSeries) {
    out.push('[');
    for (i, &(t, v)) in series.points().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        json::write_f64(out, t);
        out.push(',');
        json::write_f64(out, v);
        out.push(']');
    }
    out.push(']');
}

fn series_from_json(j: &Json) -> Option<TimeSeries> {
    let Json::Arr(points) = j else { return None };
    let mut series = TimeSeries::new();
    for p in points {
        let Json::Arr(pair) = p else { return None };
        let [t, v] = pair.as_slice() else { return None };
        let t = t.as_f64()?;
        // `TimeSeries::push` panics on a time that goes backwards; the
        // writer never records one, so such a line is corrupt.
        if series.points().last().is_some_and(|&(last, _)| t < last) {
            return None;
        }
        series.push(t, v.as_f64()?);
    }
    Some(series)
}

/// Serializes a [`SimResult`] as one compact JSON object that
/// [`result_from_json`] restores bit-exactly.
pub fn result_to_json(r: &SimResult) -> String {
    let mut out = String::from("{\"rounds_run\":");
    let _ = std::fmt::Write::write_fmt(&mut out, format_args!("{}", r.rounds_run));
    out.push_str(",\"sim_seconds\":");
    json::write_f64(&mut out, r.sim_seconds);
    out.push_str(",\"stalled\":");
    out.push_str(if r.stalled { "true" } else { "false" });
    out.push_str(",\"peers\":[");
    for (i, p) in r.peers.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = std::fmt::Write::write_fmt(&mut out, format_args!("[{},", p.id.index()));
        json::write_f64(&mut out, p.capacity_bps);
        out.push(',');
        out.push_str(if p.compliant { "true" } else { "false" });
        out.push(',');
        json::write_f64(&mut out, p.arrival_s);
        out.push(',');
        write_opt_f64(&mut out, p.bootstrap_s);
        out.push(',');
        write_opt_f64(&mut out, p.completion_s);
        let _ = std::fmt::Write::write_fmt(
            &mut out,
            format_args!(
                ",{},{},{},{}]",
                p.bytes_sent, p.bytes_received_usable, p.bytes_received_raw, p.bytes_inherited
            ),
        );
    }
    out.push_str("],\"totals\":{");
    let t = &r.totals;
    let _ = std::fmt::Write::write_fmt(
        &mut out,
        format_args!(
            "\"uploaded_compliant\":{},\"uploaded_freeriders\":{},\"uploaded_seeder\":{},\
             \"freerider_received_usable\":{},\"freerider_received_raw\":{},\
             \"freerider_received_from_peers\":{},\"aborted_bytes\":{},\
             \"fault_dropped_bytes\":{},\"bytes_by_reason\":[",
            t.uploaded_compliant,
            t.uploaded_freeriders,
            t.uploaded_seeder,
            t.freerider_received_usable,
            t.freerider_received_raw,
            t.freerider_received_from_peers,
            t.aborted_bytes,
            t.fault_dropped_bytes,
        ),
    );
    for (i, b) in t.bytes_by_reason.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = std::fmt::Write::write_fmt(&mut out, format_args!("{b}"));
    }
    out.push_str("]}");
    for (name, series) in [
        ("fairness_avg", &r.fairness_avg),
        ("fairness_stat", &r.fairness_stat),
        ("bootstrapped_frac", &r.bootstrapped_frac),
        ("completed_frac", &r.completed_frac),
        ("susceptibility", &r.susceptibility),
        ("diversity", &r.diversity),
    ] {
        let _ = std::fmt::Write::write_fmt(&mut out, format_args!(",\"{name}\":"));
        series_to_json(&mut out, series);
    }
    out.push('}');
    out
}

/// Restores a [`SimResult`] from [`result_to_json`]'s output. Returns
/// `None` for any structural mismatch (corrupt ledger lines must never
/// produce a half-filled result).
pub fn result_from_json(doc: &Json) -> Option<SimResult> {
    let mut r = SimResult {
        rounds_run: as_u64(doc.get("rounds_run")?)?,
        sim_seconds: doc.get("sim_seconds")?.as_f64()?,
        stalled: matches!(doc.get("stalled")?, Json::Bool(true)),
        ..SimResult::default()
    };
    let Json::Arr(peers) = doc.get("peers")? else {
        return None;
    };
    for p in peers {
        let Json::Arr(f) = p else { return None };
        let [id, capacity, compliant, arrival, bootstrap, completion, sent, usable, raw, inherited] =
            f.as_slice()
        else {
            return None;
        };
        r.peers.push(PeerRecord {
            id: PeerId::new(u32::try_from(as_u64(id)?).ok()?),
            capacity_bps: capacity.as_f64()?,
            compliant: matches!(compliant, Json::Bool(true)),
            arrival_s: arrival.as_f64()?,
            bootstrap_s: as_opt_f64(bootstrap)?,
            completion_s: as_opt_f64(completion)?,
            bytes_sent: as_u64(sent)?,
            bytes_received_usable: as_u64(usable)?,
            bytes_received_raw: as_u64(raw)?,
            bytes_inherited: as_u64(inherited)?,
        });
    }
    let totals = doc.get("totals")?;
    let mut t = Totals {
        uploaded_compliant: as_u64(totals.get("uploaded_compliant")?)?,
        uploaded_freeriders: as_u64(totals.get("uploaded_freeriders")?)?,
        uploaded_seeder: as_u64(totals.get("uploaded_seeder")?)?,
        freerider_received_usable: as_u64(totals.get("freerider_received_usable")?)?,
        freerider_received_raw: as_u64(totals.get("freerider_received_raw")?)?,
        freerider_received_from_peers: as_u64(totals.get("freerider_received_from_peers")?)?,
        aborted_bytes: as_u64(totals.get("aborted_bytes")?)?,
        fault_dropped_bytes: as_u64(totals.get("fault_dropped_bytes")?)?,
        bytes_by_reason: [0; 9],
    };
    let Json::Arr(by_reason) = totals.get("bytes_by_reason")? else {
        return None;
    };
    if by_reason.len() != t.bytes_by_reason.len() {
        return None;
    }
    for (slot, value) in t.bytes_by_reason.iter_mut().zip(by_reason) {
        *slot = as_u64(value)?;
    }
    r.totals = t;
    r.fairness_avg = series_from_json(doc.get("fairness_avg")?)?;
    r.fairness_stat = series_from_json(doc.get("fairness_stat")?)?;
    r.bootstrapped_frac = series_from_json(doc.get("bootstrapped_frac")?)?;
    r.completed_frac = series_from_json(doc.get("completed_frac")?)?;
    r.susceptibility = series_from_json(doc.get("susceptibility")?)?;
    r.diversity = series_from_json(doc.get("diversity")?)?;
    Some(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_result(seed: u64) -> SimResult {
        let mut r = SimResult {
            rounds_run: 120 + seed,
            sim_seconds: 120.5,
            stalled: seed.is_multiple_of(2),
            ..SimResult::default()
        };
        r.peers.push(PeerRecord {
            id: PeerId::new(3),
            capacity_bps: 65536.375,
            compliant: true,
            arrival_s: 0.25,
            bootstrap_s: Some(1.0 / 3.0),
            completion_s: None,
            bytes_sent: 1 << 33,
            bytes_received_usable: 42,
            bytes_received_raw: 43,
            bytes_inherited: 0,
        });
        r.totals.uploaded_compliant = 9_999_999;
        r.totals.bytes_by_reason[4] = 77;
        r.fairness_avg.push(1.0, 0.1 + 0.2); // deliberately non-exact decimal
        r.susceptibility.push(2.5, f64::MIN_POSITIVE);
        r
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "coop-journal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn header() -> RunHeader {
        RunHeader {
            artifact: "fig4".into(),
            scale: "quick".into(),
            seed: u64::MAX - 3, // exercises the hex path beyond 2^53
            replicates: 3,
        }
    }

    #[test]
    fn result_json_round_trips_bit_exactly() {
        for seed in 0..4 {
            let r = sample_result(seed);
            let doc = json::parse(&result_to_json(&r)).expect("valid json");
            assert_eq!(result_from_json(&doc), Some(r));
        }
    }

    #[test]
    fn journal_round_trips_jobs_and_header() {
        let dir = tmp_dir("roundtrip");
        let journal = RunJournal::create(&dir, &header()).unwrap();
        journal
            .record_job(&JobRecord {
                fingerprint: 0xdead_beef_dead_beef,
                slot: 2,
                label: "T-Chain".into(),
                seed: 42,
                outcome: JobOutcome::Ok,
                attempts: 1,
                result: Some(sample_result(1)),
                error: None,
            })
            .unwrap();
        journal
            .record_job(&JobRecord {
                fingerprint: 7,
                slot: 3,
                label: "BitTorrent".into(),
                seed: 43,
                outcome: JobOutcome::Panic,
                attempts: 3,
                result: None,
                error: Some("injected \"panic\"\nwith newline".into()),
            })
            .unwrap();
        journal.record_artifact("fig4a_quick.csv", 0x1234).unwrap();

        let replay = JournalReplay::load(&dir).unwrap();
        assert_eq!(replay.header, Some(header()));
        assert_eq!(replay.dropped_lines, 0);
        assert_eq!(replay.completed_count(), 1);
        assert_eq!(
            replay.completed(0xdead_beef_dead_beef),
            Some(&sample_result(1))
        );
        assert_eq!(replay.completed(7), None, "failed jobs are not completed");
        assert_eq!(replay.prior_attempts(7), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_trailing_line_reruns_only_that_job() {
        let dir = tmp_dir("truncated");
        let journal = RunJournal::create(&dir, &header()).unwrap();
        for fp in [1u64, 2] {
            journal
                .record_job(&JobRecord {
                    fingerprint: fp,
                    slot: fp,
                    label: "Altruism".into(),
                    seed: fp,
                    outcome: JobOutcome::Ok,
                    attempts: 1,
                    result: Some(sample_result(fp)),
                    error: None,
                })
                .unwrap();
        }
        // Simulate a crash mid-append: chop the file mid-way through the
        // last record.
        let path = RunJournal::path_in(&dir);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() - 40]).unwrap();

        let replay = JournalReplay::load(&dir).unwrap();
        assert_eq!(replay.dropped_lines, 1, "torn line dropped, not fatal");
        assert_eq!(replay.completed(1), Some(&sample_result(1)));
        assert_eq!(replay.completed(2), None, "torn job re-runs");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_middle_line_drops_only_itself() {
        let dir = tmp_dir("corrupt");
        let journal = RunJournal::create(&dir, &header()).unwrap();
        journal
            .record_job(&JobRecord {
                fingerprint: 5,
                slot: 0,
                label: "Reciprocity".into(),
                seed: 5,
                outcome: JobOutcome::Ok,
                attempts: 1,
                result: Some(sample_result(5)),
                error: None,
            })
            .unwrap();
        let path = RunJournal::path_in(&dir);
        let mut lines: Vec<String> = std::fs::read_to_string(&path)
            .unwrap()
            .lines()
            .map(String::from)
            .collect();
        lines.insert(1, "{\"type\":\"job\",\"fp\":garbage".into());
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();

        let replay = JournalReplay::load(&dir).unwrap();
        assert_eq!(replay.dropped_lines, 1);
        assert_eq!(replay.header, Some(header()));
        assert_eq!(replay.completed(5), Some(&sample_result(5)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_append_extends_an_existing_ledger() {
        let dir = tmp_dir("append");
        {
            let journal = RunJournal::create(&dir, &header()).unwrap();
            journal
                .record_job(&JobRecord {
                    fingerprint: 10,
                    slot: 0,
                    label: "FairTorrent".into(),
                    seed: 1,
                    outcome: JobOutcome::Timeout,
                    attempts: 2,
                    result: None,
                    error: Some("exceeded 30s".into()),
                })
                .unwrap();
        }
        let journal = RunJournal::open_append(&dir).unwrap();
        journal
            .record_job(&JobRecord {
                fingerprint: 10,
                slot: 0,
                label: "FairTorrent".into(),
                seed: 1,
                outcome: JobOutcome::Ok,
                attempts: 1,
                result: Some(sample_result(9)),
                error: None,
            })
            .unwrap();
        let replay = JournalReplay::load(&dir).unwrap();
        // The later (successful) record wins.
        assert_eq!(replay.completed(10), Some(&sample_result(9)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sweep_artifact_ids_embed_the_pack_fingerprint() {
        assert_eq!(sweep_artifact_id(0xdead_beef), "sweep:00000000deadbeef");
        assert_ne!(sweep_artifact_id(1), sweep_artifact_id(2));
    }

    #[test]
    fn missing_journal_is_not_found() {
        let dir = tmp_dir("missing");
        std::fs::create_dir_all(&dir).unwrap();
        let err = JournalReplay::load(&dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        let err = RunJournal::open_append(&dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn artifact_dir_hashes_are_recorded_in_name_order() {
        let dir = tmp_dir("artifacts");
        let journal = RunJournal::create(&dir, &header()).unwrap();
        std::fs::write(dir.join("b.csv"), b"x,y\n1,2\n").unwrap();
        std::fs::write(dir.join("a.json"), b"{}").unwrap();
        std::fs::write(dir.join(".b.csv.4242.tmp"), b"x,").unwrap();
        let n = journal.record_artifact_dir(&dir).unwrap();
        assert_eq!(n, 2, "journal and staging files are excluded");
        let text = std::fs::read_to_string(journal.path()).unwrap();
        assert!(!text.contains(".tmp"), "staging file recorded: {text}");
        let a = text.find("a.json").unwrap();
        let b = text.find("b.csv").unwrap();
        assert!(a < b, "name order");
        assert!(text.contains(&hex16(fnv1a(b"{}"))));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
