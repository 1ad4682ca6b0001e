//! The one durable record format: a journal of CRC-framed JSON lines.
//!
//! The sweep checkpoint ([`crate::checkpoint`]) and the `rvz serve`
//! cache snapshot persist the same thing, an outcome keyed by a
//! scenario, so both write it the same way:
//!
//! ```text
//! crc32-hex TAB {"version":8,"fingerprint":"<16 hex>"[,"entries":N]} NEWLINE
//! crc32-hex TAB record-json NEWLINE        (one per record)
//! ```
//!
//! The first frame is the header. It pins [`JOURNAL_VERSION`] and the
//! writer's fingerprint (a digest of everything that shapes the
//! records). A snapshot's header also carries its record count, so a
//! file cut exactly at a line boundary is still told apart from a
//! complete one. Each record frame holds exactly the
//! [`crate::write_record_json`] rendering of a [`crate::SweepRecord`].
//!
//! [`read_journal`] walks the valid prefix. It ends at the first frame
//! that is torn (no newline), fails its CRC, or that the caller
//! rejects: a journal is only damaged at its tail or by corruption, and
//! nothing after a bad frame keeps its framing guarantee. A torn or
//! corrupt header is an empty valid prefix like any other bad frame. A
//! *valid* first frame that is not this version's header for this
//! fingerprint is refused by name: its records were computed by another
//! build or for another configuration.

use crate::durable::crc32;
use crate::json::{self, Json};

/// Format version of every journal, bumped on any framing change and
/// whenever the records the engine computes change.
///
/// * 9: arc positions through the in-house `rvz_geometry::sin_cos`
///   (last bits of times and distances) and the law walk on
///   unequal-rate circle pairs (`steps`); the format is unchanged.
/// * 8: the wait-window certificate in the step ladder moved the
///   engine's bytes (`steps`, and contact times and distances within
///   the declaration slack); the format is unchanged.
/// * 7: one format for snapshots and checkpoints, with the header as
///   the journal's first line. A checkpoint had been at version 5 with
///   a `.manifest` sibling, and a snapshot at version 6 in a binary
///   `RVZSNAP1` layout; neither is read back.
/// * Earlier bumps each moved the engine's bytes: the curvature
///   certificate in the step ladder (`steps`, and contact times and
///   distances within the declaration slack); `Vec2::norm` as
///   `√(x² + y²)` rather than `hypot`; τ = 1 scenarios on the Lemma 4
///   relative trajectory rather than two cursors; and the retirement of
///   the compiled sweep path.
pub const JOURNAL_VERSION: u32 = 9;

/// FNV-1a digest of the engine's output bytes on a pinned sweep plus one
/// served `/first-contact` body (`tests/engine_bytes.rs`). Every update
/// goes with a bump of [`JOURNAL_VERSION`], so no checkpoint or snapshot
/// outlives the bytes it holds.
pub const ENGINE_BYTES_DIGEST: u64 = 0xcf48_0963_08bd_e707;

/// Appends one frame whose JSON `body` writes: `crc32-hex TAB json
/// NEWLINE`. The JSON is written in place and checksummed after, so no
/// scratch buffer is needed.
pub fn write_frame(out: &mut String, body: impl FnOnce(&mut String)) {
    let start = out.len();
    out.push_str("00000000\t");
    body(out);
    let crc = crc32(&out.as_bytes()[start + 9..]);
    out.replace_range(start..start + 8, &format!("{crc:08x}"));
    out.push('\n');
}

/// Appends the header frame for `fingerprint`; `entries` is the number
/// of record frames that follow, when the writer knows it up front.
pub fn write_header(out: &mut String, fingerprint: u64, entries: Option<usize>) {
    let mut fields = vec![
        ("version", Json::Num(f64::from(JOURNAL_VERSION))),
        ("fingerprint", Json::Str(format!("{fingerprint:016x}"))),
    ];
    if let Some(n) = entries {
        fields.push(("entries", Json::Num(n as f64)));
    }
    write_frame(out, |s| s.push_str(&Json::obj(fields).render()));
}

/// The valid prefix [`read_journal`] found.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Prefix {
    /// Byte length of the valid prefix; `0` when the header frame is
    /// missing, torn or corrupt.
    pub valid_bytes: usize,
    /// The record count the header promises, when it carries one.
    pub entries: Option<u64>,
    /// Lines after the valid prefix, a torn final line included.
    pub dropped_lines: usize,
}

/// Walks the journal image `bytes` written under `fingerprint`, handing
/// each record frame's JSON to `accept` in file order; the valid prefix
/// ends before the first frame `accept` rejects.
///
/// # Errors
///
/// A valid first frame that is not a [`JOURNAL_VERSION`] header for
/// `fingerprint`: the message (to follow the file's name) says which.
pub fn read_journal(
    bytes: &[u8],
    fingerprint: u64,
    mut accept: impl FnMut(&Json) -> bool,
) -> Result<Prefix, String> {
    let mut prefix = Prefix::default();
    let mut offset = 0;
    let mut header = true;
    while let Some(nl) = bytes[offset..].iter().position(|&b| b == b'\n') {
        let Some(value) = parse_frame(&bytes[offset..offset + nl]) else {
            break;
        };
        if header {
            prefix.entries = check_header(&value, fingerprint)?;
            header = false;
        } else if !accept(&value) {
            break;
        }
        offset += nl + 1;
        prefix.valid_bytes = offset;
    }
    let rest = &bytes[offset..];
    prefix.dropped_lines = rest
        .split(|&b| b == b'\n')
        .filter(|l| !l.is_empty())
        .count();
    Ok(prefix)
}

/// Decodes one `crc TAB json` frame; `None` on a CRC mismatch or
/// malformed framing or JSON.
fn parse_frame(line: &[u8]) -> Option<Json> {
    let text = std::str::from_utf8(line).ok()?;
    let (crc_hex, json_text) = text.split_once('\t')?;
    let stored = u32::from_str_radix(crc_hex, 16).ok()?;
    (stored == crc32(json_text.as_bytes()))
        .then(|| json::parse(json_text).ok())
        .flatten()
}

/// Checks a valid first frame, returning the header's record count.
fn check_header(value: &Json, fingerprint: u64) -> Result<Option<u64>, String> {
    let Some(version) = value.get("version").and_then(Json::as_u64) else {
        return Err(format!(
            "does not start with a version {JOURNAL_VERSION} header (written by an older build?)"
        ));
    };
    if version != u64::from(JOURNAL_VERSION) {
        return Err(format!(
            "has version {version}, this build reads {JOURNAL_VERSION}"
        ));
    }
    let want = format!("{fingerprint:016x}");
    match value.get("fingerprint").and_then(Json::as_str) {
        Some(f) if f == want => Ok(value.get("entries").and_then(Json::as_u64)),
        f => Err(format!(
            "fingerprints a different configuration ({} vs {want})",
            f.unwrap_or("none")
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn journal(fingerprint: u64, records: &[&str]) -> String {
        let mut out = String::new();
        write_header(&mut out, fingerprint, Some(records.len()));
        for r in records {
            write_frame(&mut out, |s| s.push_str(r));
        }
        out
    }

    #[test]
    fn frames_round_trip_with_their_header() {
        let text = journal(0xABCD, &["{\"a\":1}", "{\"b\":[2,3]}"]);
        let first = text.lines().next().unwrap();
        let (crc, json) = first.split_once('\t').unwrap();
        assert_eq!(crc, format!("{:08x}", crc32(json.as_bytes())));
        assert_eq!(
            json,
            format!(
                "{{\"version\":{JOURNAL_VERSION},\"fingerprint\":\"000000000000abcd\",\"entries\":2}}"
            )
        );
        let mut seen = Vec::new();
        let prefix = read_journal(text.as_bytes(), 0xABCD, |v| {
            seen.push(v.render());
            true
        })
        .unwrap();
        assert_eq!(seen, ["{\"a\":1}", "{\"b\":[2,3]}"]);
        assert_eq!(
            prefix,
            Prefix {
                valid_bytes: text.len(),
                entries: Some(2),
                dropped_lines: 0
            }
        );
    }

    #[test]
    fn a_rejected_record_ends_the_prefix() {
        let text = journal(3, &["{\"a\":1}", "{\"a\":2}", "{\"a\":3}"]);
        let prefix =
            read_journal(text.as_bytes(), 3, |v| v.get("a") != Some(&Json::Num(2.0))).unwrap();
        let second = text.match_indices('\n').nth(1).unwrap().0 + 1;
        assert_eq!((prefix.valid_bytes, prefix.dropped_lines), (second, 2));
    }
}
