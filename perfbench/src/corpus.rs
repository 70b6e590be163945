//! The frozen analysis corpus: the workspace sources, protocol spec,
//! allowlist and sweep scenario exactly as `git archive` wrote them at
//! [`CORPUS_COMMIT`] (`inputs/corpus.tar`). Later edits to the live
//! source tree leave the `analysis` and `sweep` inputs unchanged.

use std::path::Path;

/// The commit the corpus was archived from; `git archive` records it in
/// the tar's pax global header.
pub const CORPUS_COMMIT: &str = "79b0fff4d3f0a310233c4546b0c210a3d2e8f986";

/// FNV-1a digest of every archived file (path and bytes, in path order).
pub const CORPUS_DIGEST: u64 = 0xa043_c617_9fea_55e2;

/// The archive, relative to this package.
pub const CORPUS_TAR: &str = "inputs/corpus.tar";

/// The regular files of the archive.
#[derive(Clone, Debug)]
pub struct Corpus {
    /// `(path, bytes)`, sorted by path components.
    pub files: Vec<(String, Vec<u8>)>,
    /// The commit id from the pax global header, if present.
    pub commit: Option<String>,
}

impl Corpus {
    /// Reads the archive shipped with the benchmark.
    pub fn load() -> Result<Corpus, String> {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(CORPUS_TAR);
        let bytes = std::fs::read(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
        Corpus::from_tar(&bytes)
    }

    /// Parses a ustar/pax archive: regular files plus the global
    /// `comment` record `git archive` writes the commit id into.
    pub fn from_tar(tar: &[u8]) -> Result<Corpus, String> {
        let mut files = Vec::new();
        let mut commit = None;
        let mut next_path: Option<String> = None;
        let mut at = 0usize;
        while at + 512 <= tar.len() {
            let header = &tar[at..at + 512];
            if header.iter().all(|&b| b == 0) {
                break;
            }
            let size = octal(&header[124..136])
                .ok_or_else(|| format!("bad size field in tar header at byte {at}"))?;
            let body_start = at + 512;
            let body_end = body_start
                .checked_add(size)
                .filter(|&end| end <= tar.len())
                .ok_or_else(|| format!("tar entry at byte {at} runs past the archive"))?;
            let body = &tar[body_start..body_end];
            match header[156] {
                b'g' => {
                    if let Some(c) = pax_record(body, "comment") {
                        commit = Some(c);
                    }
                }
                b'x' => next_path = pax_record(body, "path"),
                b'0' | 0 => {
                    let path = match next_path.take() {
                        Some(p) => p,
                        None => {
                            let name = cstr(&header[0..100]);
                            let prefix = cstr(&header[345..500]);
                            if prefix.is_empty() {
                                name
                            } else {
                                format!("{prefix}/{name}")
                            }
                        }
                    };
                    files.push((path, body.to_vec()));
                }
                _ => next_path = None,
            }
            at = body_start + size.div_ceil(512) * 512;
        }
        files.sort_by(|a, b| Path::new(&a.0).cmp(Path::new(&b.0)));
        Ok(Corpus { files, commit })
    }

    /// FNV-1a over every file's path and bytes, in path order.
    pub fn digest(&self) -> u64 {
        let mut h = crate::pins::Fnv::default();
        for (path, bytes) in &self.files {
            h.bytes(path.as_bytes());
            h.u64(bytes.len() as u64);
            h.bytes(bytes);
        }
        h.finish()
    }

    /// The text of `path`, if archived and UTF-8.
    pub fn text(&self, path: &str) -> Option<&str> {
        self.files
            .iter()
            .find(|(p, _)| p == path)
            .and_then(|(_, b)| std::str::from_utf8(b).ok())
    }

    /// The `.rs` files under `crates/` and `vendor/` as (path, text)
    /// pairs, in the order `lint::collect_sources` reads a live tree.
    pub fn lint_sources(&self) -> Vec<(String, String)> {
        self.files
            .iter()
            .filter(|(p, _)| {
                (p.starts_with("crates/") || p.starts_with("vendor/")) && p.ends_with(".rs")
            })
            .map(|(p, b)| (p.clone(), String::from_utf8_lossy(b).into_owned()))
            .collect()
    }

    /// Why this corpus is not the pinned one (empty when it is).
    pub fn pin_failures(&self, digest_pin: u64) -> Vec<String> {
        let mut out = Vec::new();
        if self.commit.as_deref() != Some(CORPUS_COMMIT) {
            out.push(format!(
                "corpus commit {:?} is not the pinned {CORPUS_COMMIT}",
                self.commit
            ));
        }
        let digest = self.digest();
        if digest != digest_pin {
            out.push(format!(
                "corpus digest {digest:016x} is not the pinned {digest_pin:016x}"
            ));
        }
        out
    }
}

fn cstr(field: &[u8]) -> String {
    let end = field.iter().position(|&b| b == 0).unwrap_or(field.len());
    String::from_utf8_lossy(&field[..end]).into_owned()
}

fn octal(field: &[u8]) -> Option<usize> {
    let digits: Vec<u8> = field
        .iter()
        .copied()
        .skip_while(|b| *b == b' ')
        .take_while(|b| (b'0'..=b'7').contains(b))
        .collect();
    if digits.is_empty() {
        return None;
    }
    usize::from_str_radix(std::str::from_utf8(&digits).ok()?, 8).ok()
}

/// The value of `key` in a pax extended header body (`"<len> key=value\n"`
/// records).
fn pax_record(body: &[u8], key: &str) -> Option<String> {
    let text = std::str::from_utf8(body).ok()?;
    text.lines().find_map(|line| {
        let (_, record) = line.split_once(' ')?;
        let (k, v) = record.split_once('=')?;
        (k == key).then(|| v.to_string())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shipped_corpus_matches_its_pin() {
        let corpus = Corpus::load().expect("corpus archive is readable");
        assert_eq!(corpus.pin_failures(CORPUS_DIGEST), Vec::<String>::new());
        assert_eq!(corpus.lint_sources().len(), 176);
        assert!(corpus.text("specs/recovery-protocol.toml").is_some());
        assert!(corpus.text("lint-allow.toml").is_some());
        assert!(corpus.text("scenarios/sweep-full.toml").is_some());
    }

    #[test]
    fn a_changed_byte_breaks_the_pin() {
        let mut corpus = Corpus::load().expect("corpus archive is readable");
        corpus.files[0].1.push(b' ');
        assert_eq!(corpus.pin_failures(CORPUS_DIGEST).len(), 1);
    }
}
