//! Append-only, crash-safe campaign journal.
//!
//! Every scheduler invocation appends to its own per-shard file
//! (`journal-shard-<i>-of-<n>.log`) inside the campaign out dir, so
//! concurrent shards never interleave writes; readers merge *all*
//! `journal-*.log` files in the dir. Each record is one line:
//!
//! ```text
//! rnj1 <crc32 hex8> <payload byte len> <payload>\n
//! ```
//!
//! The CRC covers the payload bytes. Payloads never contain raw newlines
//! (`\n`, `\r` and `\\` are escaped), so a record is valid iff its line is
//! complete, the length matches, and the CRC matches. A reader stops at the
//! first invalid record — which is exactly the torn tail a `kill -9`
//! mid-append leaves behind — and every record before it is trusted because
//! appends are `fsync`'d before the scheduler acts on them.
//!
//! Record payloads (space-separated `key=value`, values escaped):
//!
//! * `header name=.. fp=<hex16> grid=<n> warmup=<u> measure=<u>` — first
//!   record of every journal; lets a resume refuse a spec that changed.
//! * `done id=.. manifest=<rel path> fnv=<hex16> key=..` — job completed
//!   and its manifest is durable; `fnv` fingerprints the manifest bytes so
//!   a torn manifest demotes the job back to pending.
//! * `fail id=.. attempt=<k> payload=..` — one attempt panicked.
//! * `quarantine id=.. attempts=<k> payload=..` — retries exhausted; the
//!   job is excluded from the grid and reported, not retried.

use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use crate::hashes::crc32;

/// Magic tag opening every journal line.
pub const RECORD_TAG: &str = "rnj1";

/// One journal record.
#[derive(Clone, Debug, PartialEq)]
pub enum Record {
    /// Campaign identity stamped at journal creation.
    Header {
        /// Campaign name from the spec.
        name: String,
        /// Spec text fingerprint (FNV-1a).
        fingerprint: u64,
        /// Total grid size.
        grid: usize,
        /// Warm-up budget the jobs ran with.
        warmup: u64,
        /// Measure budget the jobs ran with.
        measure: u64,
    },
    /// A job finished and its manifest is on disk.
    Done {
        /// Job id (`j` + 16 hex digits).
        id: String,
        /// Manifest path relative to the campaign out dir.
        manifest: String,
        /// FNV-1a of the manifest bytes as written.
        fnv: u64,
        /// Canonical job key (human-readable audit trail).
        key: String,
    },
    /// One attempt of a job panicked.
    Fail {
        /// Job id.
        id: String,
        /// 1-based attempt number.
        attempt: u32,
        /// Captured panic payload.
        payload: String,
    },
    /// A job exhausted its retries.
    Quarantine {
        /// Job id.
        id: String,
        /// Total attempts made.
        attempts: u32,
        /// Panic payload of the last attempt.
        payload: String,
    },
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out
}

fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some(c) => out.push(c),
            None => out.push('\\'),
        }
    }
    out
}

impl Record {
    /// Serialise the payload (the part covered by the CRC).
    pub fn payload(&self) -> String {
        match self {
            Record::Header {
                name,
                fingerprint,
                grid,
                warmup,
                measure,
            } => format!(
                "header name={} fp={fingerprint:016x} grid={grid} warmup={warmup} measure={measure}",
                escape(name)
            ),
            Record::Done {
                id,
                manifest,
                fnv,
                key,
            } => format!(
                "done id={id} manifest={} fnv={fnv:016x} key={}",
                escape(manifest),
                escape(key)
            ),
            Record::Fail {
                id,
                attempt,
                payload,
            } => format!("fail id={id} attempt={attempt} payload={}", escape(payload)),
            Record::Quarantine {
                id,
                attempts,
                payload,
            } => format!(
                "quarantine id={id} attempts={attempts} payload={}",
                escape(payload)
            ),
        }
    }

    /// Parse a payload back into a record. Fields are positional per kind;
    /// only the *last* field (panic payload / job key) may contain spaces
    /// or `=`, so splitting on literal ` <field>=` markers is unambiguous.
    pub fn parse_payload(payload: &str) -> Option<Record> {
        let mut words = payload.splitn(2, ' ');
        let kind = words.next()?;
        let rest = words.next().unwrap_or("");
        match kind {
            "header" => {
                let fields = split_fields(rest, &["name", "fp", "grid", "warmup", "measure"])?;
                Some(Record::Header {
                    name: unescape(fields[0]),
                    fingerprint: u64::from_str_radix(fields[1], 16).ok()?,
                    grid: fields[2].parse().ok()?,
                    warmup: fields[3].parse().ok()?,
                    measure: fields[4].parse().ok()?,
                })
            }
            "done" => {
                let fields = split_fields(rest, &["id", "manifest", "fnv", "key"])?;
                Some(Record::Done {
                    id: fields[0].to_string(),
                    manifest: unescape(fields[1]),
                    fnv: u64::from_str_radix(fields[2], 16).ok()?,
                    key: unescape(fields[3]),
                })
            }
            "fail" => {
                let fields = split_fields(rest, &["id", "attempt", "payload"])?;
                Some(Record::Fail {
                    id: fields[0].to_string(),
                    attempt: fields[1].parse().ok()?,
                    payload: unescape(fields[2]),
                })
            }
            "quarantine" => {
                let fields = split_fields(rest, &["id", "attempts", "payload"])?;
                Some(Record::Quarantine {
                    id: fields[0].to_string(),
                    attempts: fields[1].parse().ok()?,
                    payload: unescape(fields[2]),
                })
            }
            _ => None,
        }
    }

    /// Full framed line (without trailing newline).
    pub fn frame(&self) -> String {
        let payload = self.payload();
        format!(
            "{RECORD_TAG} {:08x} {} {payload}",
            crc32(payload.as_bytes()),
            payload.len()
        )
    }
}

/// Split `k1=v1 k2=v2 ... kn=vn` given the exact expected key sequence.
/// Values of all keys but the last must be space-free; the last value is
/// the remainder of the line (panic payloads, job keys).
fn split_fields<'a>(rest: &'a str, keys: &[&str]) -> Option<Vec<&'a str>> {
    let mut out = Vec::with_capacity(keys.len());
    let mut remaining = rest;
    for (i, key) in keys.iter().enumerate() {
        remaining = remaining.strip_prefix(key)?.strip_prefix('=')?;
        if i + 1 == keys.len() {
            out.push(remaining);
        } else {
            let (value, rest) = remaining.split_once(' ')?;
            out.push(value);
            remaining = rest;
        }
    }
    Some(out)
}

/// Append-side handle: an open journal file with fsync-per-record appends.
pub struct Journal {
    file: File,
    path: PathBuf,
}

/// File name of a shard's journal within the campaign out dir.
pub fn shard_file_name(shard_index: usize, shard_count: usize) -> String {
    format!("journal-shard-{shard_index}-of-{shard_count}.log")
}

impl Journal {
    /// Open (creating if needed) the journal for one shard.
    ///
    /// An existing file is first *repaired*: a torn tail left by a crash
    /// mid-append (no newline, bad CRC, even a half-written multi-byte
    /// character) is chopped off so appends resume at a record boundary —
    /// otherwise garbage bytes would hide every later record from readers.
    /// When no valid records remain (new or fully-torn file), `header` is
    /// appended and the *directory* is fsync'd so the file itself survives
    /// a crash.
    pub fn open(
        dir: &Path,
        shard_index: usize,
        shard_count: usize,
        header: &Record,
    ) -> std::io::Result<Journal> {
        fs::create_dir_all(dir)?;
        let path = dir.join(shard_file_name(shard_index, shard_count));
        let existing = match fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        let (valid_len, records) = scan(&existing);
        if valid_len < existing.len() {
            let f = OpenOptions::new().write(true).open(&path)?;
            f.set_len(valid_len as u64)?;
            f.sync_all()?;
        }
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        let mut journal = Journal { file, path };
        if records.is_empty() {
            journal.append(header)?;
            File::open(dir)?.sync_all()?;
        }
        Ok(journal)
    }

    /// Durably append one record: write the framed line, then `fsync`.
    pub fn append(&mut self, record: &Record) -> std::io::Result<()> {
        let mut line = record.frame();
        line.push('\n');
        self.file.write_all(line.as_bytes())?;
        self.file.sync_all()
    }

    /// Path of the underlying file.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Read every valid record from one journal file, stopping at the first
/// torn or corrupt line (everything after a torn record is untrusted).
pub fn read_journal(path: &Path) -> std::io::Result<Vec<Record>> {
    Ok(scan(&fs::read(path)?).1)
}

/// Walk raw journal bytes, returning the byte length of the valid prefix
/// and the records inside it. Operates on bytes, not `str`: a crash can
/// tear the file inside a multi-byte character and the prefix must still
/// be recoverable.
fn scan(bytes: &[u8]) -> (usize, Vec<Record>) {
    let mut out = Vec::new();
    let mut pos = 0;
    while let Some(nl) = bytes[pos..].iter().position(|&b| b == b'\n') {
        let Ok(line) = std::str::from_utf8(&bytes[pos..pos + nl]) else {
            break;
        };
        let Some(record) = parse_line(line) else {
            break;
        };
        out.push(record);
        pos += nl + 1;
    }
    (pos, out)
}

fn parse_line(line: &str) -> Option<Record> {
    let rest = line.strip_prefix(RECORD_TAG)?.strip_prefix(' ')?;
    let (crc_hex, rest) = rest.split_once(' ')?;
    let (len_str, payload) = rest.split_once(' ')?;
    let expect_crc = u32::from_str_radix(crc_hex, 16).ok()?;
    let expect_len: usize = len_str.parse().ok()?;
    if payload.len() != expect_len || crc32(payload.as_bytes()) != expect_crc {
        return None;
    }
    Record::parse_payload(payload)
}

/// List all `journal-*.log` files in a campaign out dir, sorted by name so
/// merged reads are deterministic.
pub fn journal_files(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    match fs::read_dir(dir) {
        Ok(entries) => {
            for entry in entries {
                let entry = entry?;
                let name = entry.file_name();
                let name = name.to_string_lossy();
                if name.starts_with("journal-") && name.ends_with(".log") {
                    out.push(entry.path());
                }
            }
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }
    out.sort();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<Record> {
        vec![
            Record::Header {
                name: "tiny".into(),
                fingerprint: 0xdead_beef_0123_4567,
                grid: 12,
                warmup: 100,
                measure: 500,
            },
            Record::Done {
                id: "j0123456789abcdef".into(),
                manifest: "jobs/j0123456789abcdef.json".into(),
                fnv: 0xfeed_face_8765_4321,
                key: "x=3/scheme=S-NUCA/wl=1".into(),
            },
            Record::Fail {
                id: "jfedcba9876543210".into(),
                attempt: 1,
                payload: "index out of bounds:\nthe len is 4".into(),
            },
            Record::Quarantine {
                id: "jfedcba9876543210".into(),
                attempts: 3,
                payload: "weird \\ payload = with spaces\r\n".into(),
            },
        ]
    }

    #[test]
    fn records_roundtrip_through_payloads() {
        for r in sample_records() {
            let payload = r.payload();
            assert!(!payload.contains('\n'), "{payload:?}");
            assert_eq!(Record::parse_payload(&payload).as_ref(), Some(&r));
        }
    }

    #[test]
    fn journal_roundtrips_on_disk() {
        let dir = std::env::temp_dir().join(format!("rnj-rt-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let records = sample_records();
        {
            let mut j = Journal::open(&dir, 0, 1, &records[0]).unwrap();
            for r in &records[1..] {
                j.append(r).unwrap();
            }
        }
        let path = dir.join(shard_file_name(0, 1));
        assert_eq!(read_journal(&path).unwrap(), records);
        // Re-opening appends, it does not re-write the header.
        {
            let mut j = Journal::open(&dir, 0, 1, &records[0]).unwrap();
            j.append(&records[2]).unwrap();
        }
        let again = read_journal(&path).unwrap();
        assert_eq!(again.len(), records.len() + 1);
        assert_eq!(again[..records.len()], records[..]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reader_stops_at_any_truncation_point() {
        let records = sample_records();
        let mut bytes = Vec::new();
        let mut boundaries = vec![0usize];
        for r in &records {
            bytes.extend_from_slice(r.frame().as_bytes());
            bytes.push(b'\n');
            boundaries.push(bytes.len());
        }
        let dir = std::env::temp_dir().join(format!("rnj-trunc-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal-shard-0-of-1.log");
        for cut in 0..=bytes.len() {
            fs::write(&path, &bytes[..cut]).unwrap();
            let read = read_journal(&path).unwrap();
            let complete = boundaries.iter().filter(|b| **b <= cut).count() - 1;
            assert_eq!(read.len(), complete, "cut at byte {cut}");
            assert_eq!(read[..], records[..complete], "cut at byte {cut}");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_lines_are_rejected() {
        let good = sample_records()[1].frame();
        assert!(parse_line(&good).is_some());
        // Flip a payload byte: CRC mismatch.
        let mut tampered = good.clone().into_bytes();
        let last = tampered.len() - 1;
        tampered[last] ^= 1;
        assert!(parse_line(std::str::from_utf8(&tampered).unwrap()).is_none());
        // Wrong tag, short line, bad length field.
        assert!(parse_line(&good.replacen(RECORD_TAG, "rnj2", 1)).is_none());
        assert!(parse_line("rnj1 00000000").is_none());
        let mut parts = good.splitn(4, ' ');
        let (tag, crc, len, payload) = (
            parts.next().unwrap(),
            parts.next().unwrap(),
            parts.next().unwrap().parse::<usize>().unwrap(),
            parts.next().unwrap(),
        );
        let bad_len = format!("{tag} {crc} {} {payload}", len + 1);
        assert!(parse_line(&bad_len).is_none());
    }

    #[test]
    fn journal_files_lists_only_journals_sorted() {
        let dir = std::env::temp_dir().join(format!("rnj-list-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(dir.join("jobs")).unwrap();
        fs::write(dir.join("journal-shard-1-of-2.log"), "").unwrap();
        fs::write(dir.join("journal-shard-0-of-2.log"), "").unwrap();
        fs::write(dir.join("report.json"), "{}").unwrap();
        let files = journal_files(&dir).unwrap();
        let names: Vec<_> = files
            .iter()
            .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
            .collect();
        assert_eq!(
            names,
            vec!["journal-shard-0-of-2.log", "journal-shard-1-of-2.log"]
        );
        assert!(journal_files(&dir.join("missing")).unwrap().is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }
}
