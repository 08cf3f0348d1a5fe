//! Checkpoint/resume for interrupted batch runs.
//!
//! A checkpoint is a directory per job holding two artifacts:
//!
//! * `p_field.pgm` — the optimizer's `P`-field rendered as an 8-bit PGM
//!   for **human inspection** (is the mask evolving sensibly?). Lossy by
//!   construction; never read back.
//! * `state.txt` — a plain-text manifest carrying the **exact** state:
//!   every `f64` of the `P` and best-`P` grids as hexadecimal bit
//!   patterns (`f64::to_bits`), plus the scalar loop state. Resuming
//!   from it reproduces the uninterrupted run bit for bit.
//!
//! Saves are atomic and durable (write `state.txt.tmp`, fsync it,
//! rename, fsync the job directory — [`crate::vfs::commit_replace`]) so
//! a kill or power loss mid-save leaves the previous checkpoint intact:
//! after a crash `state.txt` is old-complete, new-complete, or absent,
//! never torn. The manifest ends with an FNV-1a checksum over everything
//! above it; [`load_with`] verifies it, and [`load_or_quarantine_with`]
//! turns any corrupt manifest into a fresh start by renaming it to
//! `state.txt.corrupt` for post-mortem inspection.
//!
//! Every filesystem touch goes through a [`Vfs`], so the crash matrix
//! (`tests/crashmat.rs`) can interpose a seeded
//! [`crate::vfs::FaultVfs`]; production passes [`crate::vfs::RealVfs`].

use crate::vfs::{commit_replace, Vfs};
use mosaic_core::OptimizerCheckpoint;
use mosaic_eval::pgm;
use mosaic_numerics::Grid;
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};

const MAGIC: &str = "mosaic-checkpoint v2";
/// Hex words per manifest line — keeps lines short enough for editors.
const WORDS_PER_LINE: usize = 8;

/// FNV-1a 64-bit hash — the manifest integrity checksum. Not
/// cryptographic; it only needs to catch truncation and bit rot.
/// Shared with the job ledger's lease records ([`crate::ledger`]).
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The checkpoint directory for one job.
pub fn job_dir(root: &Path, job_id: &str) -> PathBuf {
    root.join(job_id)
}

fn push_grid_hex(out: &mut String, label: &str, grid: &Grid<f64>) {
    let _ = writeln!(out, "{label}");
    for chunk in grid.as_slice().chunks(WORDS_PER_LINE) {
        let mut line = String::with_capacity(17 * chunk.len());
        for (i, v) in chunk.iter().enumerate() {
            if i > 0 {
                line.push(' ');
            }
            let _ = write!(line, "{:016x}", v.to_bits());
        }
        let _ = writeln!(out, "{line}");
    }
}

/// Saves `checkpoint` under `root/<job_id>/` through `vfs`, replacing
/// any previous checkpoint for the job.
///
/// # Errors
///
/// Propagates I/O errors (directory creation, writes, fsyncs, the
/// atomic rename).
pub fn save_with(
    vfs: &dyn Vfs,
    root: &Path,
    job_id: &str,
    checkpoint: &OptimizerCheckpoint,
) -> io::Result<()> {
    let dir = job_dir(root, job_id);
    vfs.create_dir_all(&dir)?;
    vfs.write(
        &dir.join("p_field.pgm"),
        &pgm::encode_autoscale(&checkpoint.variables),
    )?;

    let (w, h) = checkpoint.variables.dims();
    let mut manifest = String::with_capacity(64 + 2 * 17 * w * h);
    let _ = writeln!(manifest, "{MAGIC}");
    let _ = writeln!(manifest, "job {job_id}");
    let _ = writeln!(manifest, "grid {w} {h}");
    let _ = writeln!(manifest, "iterations_done {}", checkpoint.iterations_done);
    let _ = writeln!(manifest, "stagnant {}", checkpoint.stagnant);
    let _ = writeln!(
        manifest,
        "best_value {:016x}",
        checkpoint.best_value.to_bits()
    );
    let _ = writeln!(
        manifest,
        "prev_value {:016x}",
        checkpoint.prev_value.to_bits()
    );
    let _ = writeln!(manifest, "recoveries {}", checkpoint.recoveries);
    let _ = writeln!(
        manifest,
        "step_damp {:016x}",
        checkpoint.step_damp.to_bits()
    );
    push_grid_hex(&mut manifest, "p", &checkpoint.variables);
    push_grid_hex(&mut manifest, "best_p", &checkpoint.best_variables);
    let _ = writeln!(manifest, "checksum {:016x}", fnv1a64(manifest.as_bytes()));

    let tmp = dir.join("state.txt.tmp");
    commit_replace(vfs, &tmp, &dir.join("state.txt"), manifest.as_bytes())
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

fn parse_f64_bits(word: &str) -> io::Result<f64> {
    u64::from_str_radix(word, 16)
        .map(f64::from_bits)
        .map_err(|_| bad(format!("bad hex f64 word {word:?}")))
}

fn parse_grid<'a>(
    lines: &mut impl Iterator<Item = &'a str>,
    label: &str,
    w: usize,
    h: usize,
) -> io::Result<Grid<f64>> {
    match lines.next() {
        Some(l) if l == label => {}
        other => return Err(bad(format!("expected {label:?} section, got {other:?}"))),
    }
    let mut data = Vec::with_capacity(w * h);
    while data.len() < w * h {
        let line = lines
            .next()
            .ok_or_else(|| bad(format!("{label}: truncated at {} of {}", data.len(), w * h)))?;
        for word in line.split_whitespace() {
            data.push(parse_f64_bits(word)?);
        }
    }
    if data.len() != w * h {
        return Err(bad(format!(
            "{label}: {} values, expected {}",
            data.len(),
            w * h
        )));
    }
    Grid::from_vec(w, h, data).map_err(|_| bad(format!("{label}: grid assembly failed")))
}

fn parse_field<'a>(
    lines: &mut impl Iterator<Item = &'a str>,
    key: &str,
) -> io::Result<Vec<&'a str>> {
    let line = lines.next().ok_or_else(|| bad(format!("missing {key}")))?;
    let mut parts = line.split_whitespace();
    if parts.next() != Some(key) {
        return Err(bad(format!("expected {key:?}, got {line:?}")));
    }
    Ok(parts.collect())
}

/// Splits the manifest into its body and the trailing checksum line and
/// verifies the checksum covers the body exactly.
fn verify_checksum(text: &str) -> io::Result<&str> {
    let body_end = text
        .rfind("checksum ")
        .ok_or_else(|| bad("manifest has no checksum line"))?;
    if body_end > 0 && !text[..body_end].ends_with('\n') {
        return Err(bad("checksum marker is not at the start of a line"));
    }
    let (body, tail) = text.split_at(body_end);
    let word = tail
        .strip_prefix("checksum ")
        .and_then(|rest| rest.split_whitespace().next())
        .ok_or_else(|| bad("missing checksum value"))?;
    let recorded =
        u64::from_str_radix(word, 16).map_err(|_| bad(format!("bad checksum word {word:?}")))?;
    let actual = fnv1a64(body.as_bytes());
    if recorded != actual {
        return Err(bad(format!(
            "checksum mismatch: manifest records {recorded:016x}, contents hash to {actual:016x}"
        )));
    }
    Ok(body)
}

/// Loads the checkpoint for `job_id` through `vfs`, or `Ok(None)` if
/// the job has no checkpoint under `root`.
///
/// # Errors
///
/// Returns `InvalidData` for corrupt manifests (bad magic, missing
/// fields, truncated grids, checksum mismatch) and propagates other I/O
/// errors.
pub fn load_with(
    vfs: &dyn Vfs,
    root: &Path,
    job_id: &str,
) -> io::Result<Option<OptimizerCheckpoint>> {
    let path = job_dir(root, job_id).join("state.txt");
    let text = match vfs.read_to_string(&path) {
        Ok(t) => t,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let body = verify_checksum(&text)?;
    let mut lines = body.lines();
    if lines.next() != Some(MAGIC) {
        return Err(bad("not a mosaic checkpoint manifest"));
    }
    let job = parse_field(&mut lines, "job")?;
    if job != [job_id] {
        return Err(bad(format!("manifest is for job {job:?}, not {job_id:?}")));
    }
    let grid = parse_field(&mut lines, "grid")?;
    let [w, h] = grid.as_slice() else {
        return Err(bad("grid line needs width and height"));
    };
    let w: usize = w.parse().map_err(|_| bad("bad grid width"))?;
    let h: usize = h.parse().map_err(|_| bad("bad grid height"))?;
    let iterations_done = parse_field(&mut lines, "iterations_done")?
        .first()
        .ok_or_else(|| bad("missing iterations_done value"))?
        .parse()
        .map_err(|_| bad("bad iterations_done"))?;
    let stagnant = parse_field(&mut lines, "stagnant")?
        .first()
        .ok_or_else(|| bad("missing stagnant value"))?
        .parse()
        .map_err(|_| bad("bad stagnant"))?;
    let best_value = parse_f64_bits(
        parse_field(&mut lines, "best_value")?
            .first()
            .ok_or_else(|| bad("missing best_value"))?,
    )?;
    let prev_value = parse_f64_bits(
        parse_field(&mut lines, "prev_value")?
            .first()
            .ok_or_else(|| bad("missing prev_value"))?,
    )?;
    let recoveries = parse_field(&mut lines, "recoveries")?
        .first()
        .ok_or_else(|| bad("missing recoveries value"))?
        .parse()
        .map_err(|_| bad("bad recoveries"))?;
    let step_damp = parse_f64_bits(
        parse_field(&mut lines, "step_damp")?
            .first()
            .ok_or_else(|| bad("missing step_damp"))?,
    )?;
    let variables = parse_grid(&mut lines, "p", w, h)?;
    let best_variables = parse_grid(&mut lines, "best_p", w, h)?;
    Ok(Some(OptimizerCheckpoint {
        variables,
        best_variables,
        best_value,
        prev_value,
        stagnant,
        iterations_done,
        recoveries,
        step_damp,
    }))
}

/// Like [`load_with`], but a corrupt manifest is contained instead of
/// fatal: the bad `state.txt` is renamed to `state.txt.corrupt`
/// (replacing any earlier quarantined file) and the job restarts from
/// scratch.
///
/// Returns the checkpoint (or `None` when there is nothing usable) plus
/// a description of the quarantine when one happened, for logging.
///
/// # Errors
///
/// Propagates I/O errors other than corruption (unreadable directory,
/// failed rename).
pub fn load_or_quarantine_with(
    vfs: &dyn Vfs,
    root: &Path,
    job_id: &str,
) -> io::Result<(Option<OptimizerCheckpoint>, Option<String>)> {
    match load_with(vfs, root, job_id) {
        Ok(cp) => Ok((cp, None)),
        Err(e) if e.kind() == io::ErrorKind::InvalidData => {
            let dir = job_dir(root, job_id);
            let quarantined = dir.join("state.txt.corrupt");
            vfs.rename(&dir.join("state.txt"), &quarantined)?;
            Ok((
                None,
                Some(format!(
                    "corrupt checkpoint quarantined to {}: {e}",
                    quarantined.display()
                )),
            ))
        }
        Err(e) => Err(e),
    }
}

/// Removes the job's checkpoint artifacts through `vfs` (after a
/// successful finish). Missing directories are fine. A quarantined
/// `state.txt.corrupt` is deliberately left behind — it exists for
/// post-mortem inspection and keeps the job directory alive.
///
/// # Errors
///
/// Propagates unexpected I/O errors from the removal.
pub fn clear_with(vfs: &dyn Vfs, root: &Path, job_id: &str) -> io::Result<()> {
    let dir = job_dir(root, job_id);
    for name in ["state.txt", "state.txt.tmp", "p_field.pgm"] {
        match vfs.remove_file(&dir.join(name)) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
    }
    // Drop the directory if that emptied it; a remaining quarantine file
    // (or anything else a human put there) keeps it.
    match vfs.remove_dir(&dir) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
        Err(_) if vfs.exists(&dir) => Ok(()),
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::RealVfs;

    fn temp_root(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("mosaic_checkpoint_tests")
            .join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_checkpoint() -> OptimizerCheckpoint {
        OptimizerCheckpoint {
            variables: Grid::from_fn(5, 3, |x, y| (x as f64 - 2.0) * 0.37 + y as f64 * 1e-9),
            best_variables: Grid::from_fn(5, 3, |x, y| -(x as f64) + 0.25 * y as f64),
            best_value: 123.456789,
            prev_value: 130.0e-3,
            stagnant: 2,
            iterations_done: 7,
            recoveries: 1,
            step_damp: 0.5,
        }
    }

    #[test]
    fn save_load_round_trip_is_bit_exact() {
        let root = temp_root("round_trip");
        let cp = sample_checkpoint();
        save_with(&RealVfs, &root, "B3-fast", &cp).unwrap();
        let back = load_with(&RealVfs, &root, "B3-fast")
            .unwrap()
            .expect("checkpoint exists");
        assert_eq!(back.variables, cp.variables);
        assert_eq!(back.best_variables, cp.best_variables);
        assert_eq!(back.best_value.to_bits(), cp.best_value.to_bits());
        assert_eq!(back.prev_value.to_bits(), cp.prev_value.to_bits());
        assert_eq!(back.stagnant, cp.stagnant);
        assert_eq!(back.iterations_done, cp.iterations_done);
        assert_eq!(back.recoveries, cp.recoveries);
        assert_eq!(back.step_damp.to_bits(), cp.step_damp.to_bits());
    }

    #[test]
    fn round_trip_preserves_infinity_prev_value() {
        let root = temp_root("infinity");
        let mut cp = sample_checkpoint();
        cp.prev_value = f64::INFINITY;
        cp.best_value = f64::INFINITY;
        save_with(&RealVfs, &root, "j", &cp).unwrap();
        let back = load_with(&RealVfs, &root, "j").unwrap().unwrap();
        assert!(back.prev_value.is_infinite());
        assert!(back.best_value.is_infinite());
    }

    #[test]
    fn missing_checkpoint_is_none() {
        let root = temp_root("missing");
        assert!(load_with(&RealVfs, &root, "nope").unwrap().is_none());
    }

    #[test]
    fn job_id_mismatch_is_rejected() {
        let root = temp_root("mismatch");
        save_with(&RealVfs, &root, "B1-fast", &sample_checkpoint()).unwrap();
        std::fs::rename(job_dir(&root, "B1-fast"), job_dir(&root, "B2-fast")).unwrap();
        let err = load_with(&RealVfs, &root, "B2-fast").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn corrupt_manifest_is_invalid_data() {
        let root = temp_root("corrupt");
        save_with(&RealVfs, &root, "j", &sample_checkpoint()).unwrap();
        let path = job_dir(&root, "j").join("state.txt");
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.truncate(text.len() / 2);
        std::fs::write(&path, text).unwrap();
        assert_eq!(
            load_with(&RealVfs, &root, "j").unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }

    /// Applies `mutate` to a freshly saved manifest, then checks that
    /// `load_with` rejects it and `load_or_quarantine_with` contains it: the bad
    /// file moves to `state.txt.corrupt` and the job restarts fresh.
    fn assert_quarantined(name: &str, mutate: impl FnOnce(&str) -> String) {
        let root = temp_root(name);
        save_with(&RealVfs, &root, "j", &sample_checkpoint()).unwrap();
        let path = job_dir(&root, "j").join("state.txt");
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, mutate(&text)).unwrap();

        assert_eq!(
            load_with(&RealVfs, &root, "j").unwrap_err().kind(),
            io::ErrorKind::InvalidData,
            "{name}: corruption not detected"
        );
        let (cp, note) = load_or_quarantine_with(&RealVfs, &root, "j").unwrap();
        assert!(cp.is_none(), "{name}: corrupt state must not be resumed");
        assert!(note.unwrap().contains("quarantined"));
        assert!(
            job_dir(&root, "j").join("state.txt.corrupt").is_file(),
            "{name}: corrupt file not preserved"
        );
        // A second look sees no checkpoint at all: the job starts fresh.
        let (cp, note) = load_or_quarantine_with(&RealVfs, &root, "j").unwrap();
        assert!(cp.is_none());
        assert!(note.is_none());
    }

    #[test]
    fn truncated_manifest_is_quarantined() {
        assert_quarantined("q_truncated", |text| text[..text.len() * 2 / 3].to_string());
    }

    #[test]
    fn flipped_hex_word_is_quarantined() {
        assert_quarantined("q_bitflip", |text| {
            // Flip one nibble inside the first `p`-grid hex word; every
            // scalar field still parses, only the checksum can notice.
            let grid = text.find("\np\n").expect("p section") + 2;
            let mut bytes = text.as_bytes().to_vec();
            bytes[grid + 1] = if bytes[grid + 1] == b'0' { b'1' } else { b'0' };
            String::from_utf8(bytes).unwrap()
        });
    }

    #[test]
    fn missing_field_is_quarantined() {
        assert_quarantined("q_missing_field", |text| {
            // Drop the `stagnant` line entirely.
            text.lines()
                .filter(|l| !l.starts_with("stagnant"))
                .map(|l| format!("{l}\n"))
                .collect()
        });
    }

    #[test]
    fn clear_preserves_quarantined_state() {
        let root = temp_root("q_survives_clear");
        save_with(&RealVfs, &root, "j", &sample_checkpoint()).unwrap();
        let path = job_dir(&root, "j").join("state.txt");
        std::fs::write(&path, "garbage").unwrap();
        let (cp, _) = load_or_quarantine_with(&RealVfs, &root, "j").unwrap();
        assert!(cp.is_none());
        // The job then runs fresh, checkpoints, finishes and clears.
        save_with(&RealVfs, &root, "j", &sample_checkpoint()).unwrap();
        clear_with(&RealVfs, &root, "j").unwrap();
        assert!(load_with(&RealVfs, &root, "j").unwrap().is_none());
        assert!(job_dir(&root, "j").join("state.txt.corrupt").is_file());
    }

    #[test]
    fn save_writes_inspectable_pgm() {
        let root = temp_root("pgm");
        save_with(&RealVfs, &root, "j", &sample_checkpoint()).unwrap();
        let bytes = std::fs::read(job_dir(&root, "j").join("p_field.pgm")).unwrap();
        let img = pgm::decode(&bytes).unwrap();
        assert_eq!(img.dims(), (5, 3));
    }

    #[test]
    fn clear_removes_and_tolerates_missing() {
        let root = temp_root("clear");
        save_with(&RealVfs, &root, "j", &sample_checkpoint()).unwrap();
        clear_with(&RealVfs, &root, "j").unwrap();
        assert!(load_with(&RealVfs, &root, "j").unwrap().is_none());
        clear_with(&RealVfs, &root, "j").unwrap(); // second clear is a no-op
    }

    /// Torn-write exhaustion: a `state.txt` truncated at *every* byte
    /// boundary must load as either the complete checkpoint (only the
    /// untruncated manifest qualifies) or a detected corruption that
    /// quarantines — never a panic, never a silently-accepted torn
    /// state. This is the read-side half of the durability story; the
    /// write side ([`crate::vfs::commit_replace`]) makes torn
    /// `state.txt` unreachable via the commit protocol, but a disk can
    /// still hand back garbage.
    #[test]
    fn truncation_at_every_byte_boundary_is_detected_or_complete() {
        let root = temp_root("torn_matrix");
        let cp = sample_checkpoint();
        save_with(&RealVfs, &root, "j", &cp).unwrap();
        let path = job_dir(&root, "j").join("state.txt");
        let full = std::fs::read(&path).unwrap();
        for cut in 0..=full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            match load_with(&RealVfs, &root, "j") {
                Ok(Some(back)) => {
                    // Accepting a prefix is only legal if every bit of
                    // state survived (e.g. the cut only removed the
                    // trailing newline after the checksum line).
                    assert!(
                        cut >= full.len() - 1,
                        "torn prefix of {cut}/{} bytes accepted",
                        full.len()
                    );
                    assert_eq!(back.variables, cp.variables);
                    assert_eq!(back.best_variables, cp.best_variables);
                    assert_eq!(back.best_value.to_bits(), cp.best_value.to_bits());
                    assert_eq!(back.prev_value.to_bits(), cp.prev_value.to_bits());
                    assert_eq!(back.iterations_done, cp.iterations_done);
                }
                Ok(None) => panic!("truncation at {cut} read as missing, file exists"),
                Err(e) => {
                    assert_eq!(
                        e.kind(),
                        io::ErrorKind::InvalidData,
                        "truncation at {cut}: wrong error kind ({e})"
                    );
                    // And the containment path quarantines it cleanly.
                    let (got, note) = load_or_quarantine_with(&RealVfs, &root, "j").unwrap();
                    assert!(got.is_none());
                    assert!(note.unwrap().contains("quarantined"));
                    // Restore for the next boundary.
                    std::fs::remove_file(job_dir(&root, "j").join("state.txt.corrupt")).unwrap();
                }
            }
        }
    }
}
