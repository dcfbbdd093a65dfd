//! Crash-safe file writes.
//!
//! Every artifact, manifest and trace file in the workspace goes through
//! [`write_atomic`]: the bytes land in a temporary file in the *same*
//! directory, are fsynced, and are then renamed over the destination.
//! A crash (or SIGKILL) at any point leaves either the old file or the
//! new file — never a truncated hybrid that would silently poison
//! downstream plots. Append-style logs (the run journal) instead fsync
//! after every record; this module only covers whole-file artifacts.
//!
//! A kill between create and rename does leave the staging file itself
//! behind (`.NAME.PID.tmp`). [`is_staging_file`] recognises such names,
//! so artifact hashing can skip them and a resumed run can delete them
//! ([`remove_staging_files`]).

use std::fs;
use std::io::{self, Write};
use std::path::Path;

/// Writes `bytes` to `path` atomically: tmp file in the same directory +
/// fsync + rename (+ best-effort directory fsync on unix, so the rename
/// itself is durable).
///
/// Parent directories are created as needed. The temporary name embeds
/// the process id, so concurrent writers in different processes cannot
/// trample each other's staging files; concurrent same-path writers in
/// one process must synchronize externally (the experiment harness
/// writes artifacts from a single thread).
///
/// # Errors
///
/// Returns any I/O error from directory creation, the write, the fsync,
/// or the rename. The temporary file is removed on failure.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => std::path::PathBuf::from("."),
    };
    fs::create_dir_all(&parent)?;
    let file_name = path
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?;
    let tmp = parent.join(staging_name(file_name, std::process::id()));
    let result = (|| {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        fs::rename(&tmp, path)?;
        // Make the rename itself durable. Directories cannot be opened
        // for writing on all platforms; treat failure as best-effort.
        if let Ok(dir) = fs::File::open(&parent) {
            let _ = dir.sync_all();
        }
        Ok(())
    })();
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

/// The staging file name [`write_atomic`] uses for `file_name` in
/// process `pid`.
fn staging_name(file_name: &str, pid: u32) -> String {
    format!(".{file_name}.{pid}.tmp")
}

/// Is `name` a [`write_atomic`] staging file (`.NAME.PID.tmp`)? Only a
/// writer killed between create and rename leaves one behind.
pub fn is_staging_file(name: &str) -> bool {
    name.strip_prefix('.')
        .and_then(|rest| rest.strip_suffix(".tmp"))
        .and_then(|rest| rest.rsplit_once('.'))
        .is_some_and(|(file, pid)| {
            !file.is_empty() && !pid.is_empty() && pid.bytes().all(|b| b.is_ascii_digit())
        })
}

/// Deletes every staging file directly inside `dir` (leftovers of killed
/// writers), returning their names in name order.
///
/// # Errors
///
/// Returns any I/O error from the directory walk or a removal.
pub fn remove_staging_files(dir: &Path) -> io::Result<Vec<String>> {
    let mut names: Vec<String> = fs::read_dir(dir)?
        .filter_map(Result::ok)
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|n| is_staging_file(n))
        .collect();
    names.sort();
    for name in &names {
        fs::remove_file(dir.join(name))?;
    }
    Ok(names)
}

/// [`write_atomic`] for text content.
///
/// # Errors
///
/// Propagates [`write_atomic`] errors.
pub fn write_atomic_str(path: &Path, text: &str) -> io::Result<()> {
    write_atomic(path, text.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("coop-telemetry-atomic-tests");
        fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn writes_and_overwrites() {
        let path = scratch("a.txt");
        write_atomic_str(&path, "first").unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "first");
        write_atomic_str(&path, "second").unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "second");
    }

    #[test]
    fn creates_missing_parent_dirs() {
        let path = scratch("nested/deep/b.txt");
        let _ = fs::remove_dir_all(scratch("nested"));
        write_atomic(&path, b"data").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"data");
    }

    #[test]
    fn leaves_no_tmp_file_behind() {
        let path = scratch("c.txt");
        write_atomic_str(&path, "payload").unwrap();
        let leftovers: Vec<_> = fs::read_dir(path.parent().unwrap())
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains("c.txt."))
            .collect();
        assert!(leftovers.is_empty(), "staging file leaked: {leftovers:?}");
    }

    #[test]
    fn staging_names_are_recognised_and_removed() {
        let name = staging_name("fig4_quick.json", 4242);
        assert!(is_staging_file(&name), "{name}");
        for plain in [
            "fig4_quick.json",
            ".hidden",
            ".a.tmp",
            ".a.x.tmp",
            "a.1.tmp",
            "..1.tmp",
        ] {
            assert!(!is_staging_file(plain), "{plain}");
        }
        let dir = scratch("staging");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join(&name), b"torn").unwrap();
        fs::write(dir.join("keep.csv"), b"x").unwrap();
        assert_eq!(remove_staging_files(&dir).unwrap(), vec![name.clone()]);
        assert!(!dir.join(&name).exists());
        assert!(dir.join("keep.csv").exists());
    }

    #[test]
    fn rejects_bare_directory_path() {
        assert!(write_atomic(Path::new("/"), b"x").is_err());
    }
}
