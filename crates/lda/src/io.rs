//! Plain-TSV model persistence shared with `topmine_serve`'s bundles: the
//! φ matrix writer/reader (17 significant digits, so every `f64`
//! round-trips bit-exactly), the versioned `key<TAB>value` header
//! writer/reader, and the α-vector assembly their parsers share. The
//! grouped-document stream itself is saved by `topmine_corpus::io`.

use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::Path;

/// Write a `K × V` probability matrix as TSV with a header row of word
/// ids (17 significant digits, so every `f64` round-trips bit-exactly).
pub fn save_phi_matrix(phi: &[Vec<f64>], path: &Path) -> io::Result<()> {
    let mut out = BufWriter::new(File::create(path)?);
    write!(out, "topic")?;
    for w in 0..phi.first().map_or(0, Vec::len) {
        write!(out, "\tw{w}")?;
    }
    writeln!(out)?;
    for (t, row) in phi.iter().enumerate() {
        write!(out, "{t}")?;
        for p in row {
            write!(out, "\t{p:.17e}")?;
        }
        writeln!(out)?;
    }
    out.flush()
}

/// Read a φ matrix written by [`save_phi_matrix`]; returns `K × V`
/// probabilities.
pub fn load_phi(path: &Path) -> io::Result<Vec<Vec<f64>>> {
    let reader = BufReader::new(File::open(path)?);
    let mut rows = Vec::new();
    let mut expected_cols: Option<usize> = None;
    for (i, line) in reader.lines().enumerate() {
        let line = line?;
        if i == 0 || line.is_empty() {
            continue; // header
        }
        let mut fields = line.split('\t');
        let _topic = fields.next();
        let mut row = Vec::new();
        for (col, field) in fields.enumerate() {
            let p: f64 = field.parse().map_err(|_| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "phi line {}, column {}: not a float: {field:?}",
                        i + 1,
                        col + 2, // 1-indexed, counting the leading topic column
                    ),
                )
            })?;
            row.push(p);
        }
        if let Some(c) = expected_cols {
            if row.len() != c {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "phi line {}: ragged row ({} columns, expected {c})",
                        i + 1,
                        row.len()
                    ),
                ));
            }
        } else {
            expected_cols = Some(row.len());
        }
        rows.push(row);
    }
    if rows.is_empty() {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "empty phi file"));
    }
    Ok(rows)
}

fn data_err(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Write a versioned `key<TAB>value` file readable by
/// [`read_versioned_kv`]: the `format` line first, then every pair in the
/// given order. Values are written verbatim, so callers format floats
/// themselves (the bundle convention is `{:.17e}` for exact round-trips).
pub fn save_versioned_kv<K, V>(
    path: &Path,
    format: &str,
    pairs: impl IntoIterator<Item = (K, V)>,
) -> io::Result<()>
where
    K: std::fmt::Display,
    V: std::fmt::Display,
{
    let mut out = BufWriter::new(File::create(path)?);
    writeln!(out, "format\t{format}")?;
    for (key, value) in pairs {
        writeln!(out, "{key}\t{value}")?;
    }
    out.flush()
}

/// Read a versioned `key<TAB>value` file: line 1 must be
/// `format<TAB>expected_format` (any other version fails with an error
/// naming both), empty lines are skipped, and the remaining pairs are
/// returned with their 1-indexed line numbers. `topmine_serve` reads its
/// bundle `header.tsv` and sharded `manifest.tsv` through it.
pub fn read_versioned_kv(
    path: &Path,
    expected_format: &str,
) -> io::Result<Vec<(usize, String, String)>> {
    let name = path
        .file_name()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.display().to_string());
    let reader = BufReader::new(File::open(path)?);
    let mut pairs = Vec::new();
    let mut format_seen = false;
    for (i, line) in reader.lines().enumerate() {
        let line = line?;
        if line.is_empty() {
            continue;
        }
        let line_no = i + 1;
        let (key, value) = line
            .split_once('\t')
            .ok_or_else(|| data_err(format!("{name} line {line_no}: not key<TAB>value")))?;
        if !format_seen {
            if key != "format" {
                return Err(data_err(format!(
                    "{name} has no versioned header: expected `format\t{expected_format}` \
                     on line 1, found key {key:?}"
                )));
            }
            if value != expected_format {
                return Err(data_err(format!(
                    "unsupported model bundle format {value:?} (this build reads \
                     {expected_format:?})"
                )));
            }
            format_seen = true;
            continue;
        }
        pairs.push((line_no, key.to_string(), value.to_string()));
    }
    if !format_seen {
        return Err(data_err(format!(
            "{name} is empty: expected a `format\t{expected_format}` versioned header"
        )));
    }
    Ok(pairs)
}

/// Assemble `alphaN` key/value pairs into a dense α vector of length
/// `n_topics`; errors name `context` (the file being parsed).
pub fn assemble_alpha(
    mut alphas: Vec<(usize, f64)>,
    n_topics: usize,
    context: &str,
) -> io::Result<Vec<f64>> {
    alphas.sort_by_key(|&(t, _)| t);
    if alphas.len() != n_topics || alphas.iter().enumerate().any(|(i, &(t, _))| i != t) {
        return Err(data_err(format!(
            "{context} alpha vector is not dense 0..{n_topics}"
        )));
    }
    Ok(alphas.into_iter().map(|(_, a)| a).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{GroupedDoc, GroupedDocs};
    use crate::sampler::{PhraseLda, TopicModelConfig};

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("topmine-lda-io-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn model() -> PhraseLda {
        let docs = GroupedDocs {
            docs: (0..10)
                .map(|d| GroupedDoc {
                    tokens: vec![d % 4, (d + 1) % 4, (d + 2) % 4],
                    group_ends: vec![2, 3],
                })
                .collect(),
            vocab_size: 4,
        };
        let mut m = PhraseLda::new(docs, TopicModelConfig::new(3).with_seed(5));
        m.run(10);
        m
    }

    #[test]
    fn phi_roundtrip_preserves_probabilities() {
        let dir = tmpdir("phi");
        let m = model();
        let path = dir.join("phi.tsv");
        save_phi_matrix(&m.phi(), &path).unwrap();
        let loaded = load_phi(&path).unwrap();
        let phi = m.phi();
        assert_eq!(loaded.len(), phi.len());
        for (a, b) in phi.iter().zip(&loaded) {
            for (x, y) in a.iter().zip(b) {
                assert!((x - y).abs() < 1e-12, "{x} vs {y}");
            }
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn load_phi_rejects_ragged_and_empty() {
        let dir = tmpdir("bad");
        let path = dir.join("phi.tsv");
        std::fs::write(&path, "topic\tw0\tw1\n0\t0.5\t0.5\n1\t1.0\n").unwrap();
        assert!(load_phi(&path).is_err());
        std::fs::write(&path, "topic\tw0\n").unwrap();
        assert!(load_phi(&path).is_err());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn load_phi_errors_name_line_and_column() {
        let dir = tmpdir("badcell");
        let path = dir.join("phi.tsv");
        std::fs::write(&path, "topic\tw0\tw1\n0\t0.5\t0.5\n1\t0.25\toops\n").unwrap();
        let err = load_phi(&path).unwrap_err().to_string();
        assert!(err.contains("line 3"), "{err}");
        assert!(err.contains("column 3"), "{err}");
        assert!(err.contains("oops"), "{err}");
        // Ragged rows report both the found and expected column counts.
        std::fs::write(&path, "topic\tw0\tw1\n0\t0.5\t0.5\n1\t1.0\n").unwrap();
        let err = load_phi(&path).unwrap_err().to_string();
        assert!(err.contains("line 3"), "{err}");
        assert!(err.contains("1 columns, expected 2"), "{err}");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn version_mismatch_is_a_clean_error() {
        let dir = tmpdir("version");
        let path = dir.join("header.tsv");
        // A future-versioned file must be refused with a message naming
        // both versions, not mis-parsed.
        save_versioned_kv(&path, "topmine-test-kv/99", [("n_topics", 3)]).unwrap();
        let err = read_versioned_kv(&path, "topmine-test-kv/1")
            .unwrap_err()
            .to_string();
        assert!(err.contains("topmine-test-kv/99"), "{err}");
        assert!(err.contains("topmine-test-kv/1"), "{err}");
        // A header-less file (the pre-versioning format) is refused, and
        // so is an empty one.
        std::fs::write(&path, "n_topics\t3\nbeta\t1e-2\n").unwrap();
        let err = read_versioned_kv(&path, "topmine-test-kv/1")
            .unwrap_err()
            .to_string();
        assert!(err.contains("versioned header"), "{err}");
        std::fs::write(&path, "\n").unwrap();
        let err = read_versioned_kv(&path, "topmine-test-kv/1")
            .unwrap_err()
            .to_string();
        assert!(err.contains("header.tsv is empty"), "{err}");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn versioned_kv_writer_roundtrips_through_the_reader() {
        let dir = tmpdir("kv");
        let path = dir.join("manifest.tsv");
        save_versioned_kv(
            &path,
            "topmine-test-kv/1",
            [
                ("n_shards", "3".to_string()),
                ("beta", format!("{:.17e}", 0.01f64)),
            ],
        )
        .unwrap();
        let pairs = read_versioned_kv(&path, "topmine-test-kv/1").unwrap();
        assert_eq!(pairs.len(), 2);
        assert_eq!(pairs[0].1, "n_shards");
        assert_eq!(pairs[0].2, "3");
        let beta: f64 = pairs[1].2.parse().unwrap();
        assert_eq!(beta, 0.01);
        // The reader still rejects the wrong version.
        assert!(read_versioned_kv(&path, "topmine-test-kv/2").is_err());
        let _ = std::fs::remove_dir_all(dir);
    }
}
