//! The sharded bundle layout: the on-disk form a fitted model takes when a
//! fleet serves it, split into N vocabulary-range shards.
//!
//! The partitioning follows the parameter-server cut used by distributed
//! topic-model servers (LightLDA's vocabulary-sliced workers): the word-id
//! space `[0, V)` is split into `N` contiguous ranges, and shard `i` owns
//!
//! * the **vocabulary slice** for its range (word strings and the unstem
//!   display table);
//! * the **lexicon slice**: every stored phrase whose *first* word falls
//!   in the range (every slice carries the global `L` and `ε`);
//! * the **φ slice**: the `n_topics × range_width` block of trained
//!   topic-word columns.
//!
//! A `topmine serve-shard` process loads one φ slice
//! ([`ShardSlice`](crate::ShardSlice)); the fleet router
//! ([`RemoteShardedModel`](crate::RemoteShardedModel)) loads everything
//! but φ. A process serving a sharded bundle from its own memory puts the
//! shards back together into one [`FrozenModel`] ([`FrozenModel::load`]):
//! every shard in one process's RAM buys nothing over the monolith, so no
//! in-memory model is sharded.
//!
//! # On-disk layout
//!
//! ```text
//! bundle/
//!   manifest.tsv        versioned header: shapes, α, ε, shard ranges
//!   stopwords.txt       (present iff the contract removes stop words)
//!   shard-0/
//!     vocab.tsv         global id<TAB>word, dense over the shard range
//!     unstem.tsv        global id<TAB>surface (present iff training stemmed)
//!     lexicon.tsv       total_tokens line + count<TAB>ids (first word in range)
//!     phi.tsv           n_topics × range_width probability block
//!   shard-1/ …
//! ```
//!
//! `manifest.tsv` rides the same versioned `key<TAB>value` machinery as
//! every other bundle header ([`topmine_lda::io::read_versioned_kv`]);
//! re-saving into a directory removes stale `shard-K/` directories beyond
//! the new count and the monolithic format's marker files, so a bundle
//! directory always holds exactly one loadable model.

use crate::frozen::{
    bundle_header_pairs, load_lexicon, load_stopword_file, read_unstem, read_vocab,
    remove_if_present, save_id_table, save_lexicon_file, save_stopword_file, unstem_rows,
    FrozenModel, RawHeader,
};
use crate::trie::PhraseTrie;
use std::io;
use std::path::Path;
use topmine_corpus::Vocab;
use topmine_phrase::PhraseCounts;

/// Version tag on the first line of `manifest.tsv`.
pub const SHARDED_MODEL_FORMAT: &str = "topmine-sharded-model/1";

fn data_err(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// A frozen model cut into vocabulary-range shards, ready to be written in
/// the sharded layout. It borrows the model: nothing is copied until
/// [`ShardedModel::save`] writes the slices.
#[derive(Debug, Clone)]
pub struct ShardedModel<'a> {
    model: &'a FrozenModel,
    /// Range starts plus the trailing `vocab_size`, length `n_shards + 1`;
    /// shard `i` owns `[boundaries[i], boundaries[i+1])`.
    boundaries: Vec<u32>,
}

impl<'a> ShardedModel<'a> {
    /// Cut `model` into `n_shards` contiguous vocabulary ranges of
    /// near-equal width (shards may be empty when `n_shards > vocab_size`).
    pub fn from_frozen(model: &'a FrozenModel, n_shards: usize) -> io::Result<Self> {
        if n_shards == 0 {
            return Err(data_err("shard count must be at least 1".into()));
        }
        let v = model.vocab_size();
        Ok(Self {
            model,
            boundaries: (0..=n_shards).map(|i| (i * v / n_shards) as u32).collect(),
        })
    }

    pub fn n_shards(&self) -> usize {
        self.boundaries.len() - 1
    }

    /// Write the sharded bundle into `dir` (created if needed). Stale
    /// `shard-K/` directories beyond the new shard count and the
    /// monolithic format's marker files are removed, so re-saving with a
    /// different shard count (or over a monolithic bundle) leaves exactly
    /// this model on disk.
    pub fn save(&self, dir: &Path) -> io::Result<()> {
        let m = self.model;
        std::fs::create_dir_all(dir)?;
        save_stopword_file(&dir.join("stopwords.txt"), &m.preprocess.stopwords)?;

        let total_tokens = PhraseCounts::total_tokens(&m.lexicon);
        // Canonical order sorts phrases by first word, so each shard's
        // phrases are one contiguous run.
        let phrases = m.lexicon.iter_phrases();
        let mut rest = &phrases[..];
        for (i, w) in self.boundaries.windows(2).enumerate() {
            let (lo, hi) = (w[0], w[1]);
            let shard_dir = dir.join(format!("shard-{i}"));
            // Recreate from scratch so no stale file inside the shard
            // directory (an old unstem.tsv, say) survives as meaning.
            if shard_dir.exists() {
                std::fs::remove_dir_all(&shard_dir)?;
            }
            std::fs::create_dir_all(&shard_dir)?;
            save_id_table(
                &shard_dir.join("vocab.tsv"),
                (lo..hi).map(|id| (id, m.vocab.word(id))),
            )?;
            if let Some(unstem) = &m.unstem {
                save_id_table(&shard_dir.join("unstem.tsv"), unstem_rows(unstem, lo, hi))?;
            }
            let (own, tail) = rest.split_at(rest.partition_point(|(p, _)| p[0] < hi));
            rest = tail;
            save_lexicon_file(&shard_dir.join("lexicon.tsv"), total_tokens, own)?;
            let phi: Vec<Vec<f64>> = m
                .phi
                .iter()
                .map(|row| row[lo as usize..hi as usize].to_vec())
                .collect();
            topmine_lda::io::save_phi_matrix(&phi, &shard_dir.join("phi.tsv"))?;
        }

        // The manifest is the commit point: it goes down only after every
        // shard directory is complete, so a mid-save failure over a
        // monolithic bundle never shadows the still-loadable old model
        // (manifest.tsv is what the loader keys the layout on). It is the
        // shared bundle header plus the shard topology.
        let n_shards = self.n_shards();
        let mut pairs = vec![("n_shards".to_string(), n_shards.to_string())];
        pairs.extend(bundle_header_pairs(
            &m.header,
            &m.preprocess,
            m.lexicon.min_support(),
            &m.alpha,
        ));
        for (i, lo) in self.boundaries[..n_shards].iter().enumerate() {
            pairs.push((format!("shard{i}_start"), lo.to_string()));
        }
        topmine_lda::io::save_versioned_kv(&dir.join("manifest.tsv"), SHARDED_MODEL_FORMAT, pairs)?;

        // Only cleanup remains after the commit point: stale shard
        // directories beyond the new count are harmless to a loader (it
        // reads exactly 0..n_shards), as are the monolithic format's files
        // (manifest.tsv wins detection; `FrozenModel::save` removes
        // manifest.tsv in the other direction).
        remove_stale_shards(dir, n_shards)?;
        for stale in [
            "header.tsv",
            "vocab.tsv",
            "lexicon.tsv",
            "phi.tsv",
            "unstem.tsv",
        ] {
            remove_if_present(&dir.join(stale))?;
        }
        Ok(())
    }
}

/// Remove `shard-K/` directories with `K >= keep` (stale remnants of a
/// bundle saved with more shards, or of a sharded bundle being replaced by
/// a monolithic one when `keep == 0`).
pub(crate) fn remove_stale_shards(dir: &Path, keep: usize) -> io::Result<()> {
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(e),
    };
    for entry in entries {
        let entry = entry?;
        let name = entry.file_name();
        let Some(index) = name
            .to_str()
            .and_then(|n| n.strip_prefix("shard-"))
            .and_then(|k| k.parse::<usize>().ok())
        else {
            continue;
        };
        if index >= keep && entry.file_type()?.is_dir() {
            std::fs::remove_dir_all(entry.path())?;
        }
    }
    Ok(())
}

/// Read a sharded bundle back into one [`FrozenModel`], returned with the
/// shard boundaries. `with_phi = false` skips every φ block: the fleet
/// router's local view, whose φ lives in the shard processes.
pub(crate) fn load_sharded(dir: &Path, with_phi: bool) -> io::Result<(FrozenModel, Vec<u32>)> {
    let RawManifest { base, boundaries } = RawManifest::load(dir)?;
    let k = base.header.n_topics;
    let mut vocab = Vocab::new();
    let mut unstem = dir
        .join("shard-0")
        .join("unstem.tsv")
        .exists()
        .then(Vec::new);
    let mut lexicon: Option<PhraseTrie> = None;
    let mut phi: Vec<Vec<f64>> = Vec::new();
    for (i, w) in boundaries.windows(2).enumerate() {
        let (lo, hi) = (w[0], w[1]);
        let shard = format!("shard-{i}");
        read_vocab(&mut vocab, dir, &format!("{shard}/vocab.tsv"), lo, hi)?;
        let unstem_name = format!("{shard}/unstem.tsv");
        match (&mut unstem, dir.join(&unstem_name).exists()) {
            (Some(table), true) => {
                table.resize(hi as usize, String::new());
                read_unstem(table, dir, &unstem_name, lo, hi)?;
            }
            (None, false) => {}
            _ => {
                return Err(data_err(format!(
                    "{shard} disagrees with shard-0 on unstem table presence"
                )))
            }
        }

        let part = load_lexicon(&dir.join(&shard).join("lexicon.tsv"), base.min_support)?;
        let total_tokens = PhraseCounts::total_tokens(&part);
        let merged = lexicon.get_or_insert_with(|| PhraseTrie::new(total_tokens, base.min_support));
        if total_tokens != PhraseCounts::total_tokens(merged) {
            return Err(data_err(format!(
                "{shard}/lexicon.tsv disagrees with shard-0 on total tokens"
            )));
        }
        for (phrase, count) in part.iter_phrases() {
            if phrase[0] < lo || phrase[0] >= hi {
                return Err(data_err(format!(
                    "{shard}/lexicon.tsv holds a phrase starting at word {} outside [{lo}, {hi})",
                    phrase[0]
                )));
            }
            merged.insert(&phrase, count);
        }

        if with_phi {
            let block = topmine_lda::io::load_phi(&dir.join(&shard).join("phi.tsv"))?;
            let width = (hi - lo) as usize;
            if block.len() != k || block.iter().any(|row| row.len() != width) {
                return Err(data_err(format!(
                    "{shard}/phi.tsv is not {k} × {width} as the manifest requires"
                )));
            }
            if i == 0 {
                phi = block;
            } else {
                for (row, columns) in phi.iter_mut().zip(block) {
                    row.extend(columns);
                }
            }
        }
    }
    let mut preprocess = base.preprocess;
    preprocess.stopwords = load_stopword_file(&dir.join("stopwords.txt"))?;
    let lexicon = lexicon.unwrap_or_else(|| PhraseTrie::new(0, base.min_support));
    let model = FrozenModel::from_parts_unchecked(
        base.header,
        preprocess,
        vocab,
        unstem,
        lexicon,
        phi,
        base.alpha,
    );
    model.validate_with(with_phi).map_err(data_err)?;
    Ok((model, boundaries))
}

/// Parsed `manifest.tsv`: the shared bundle header plus the shard
/// topology. `pub(crate)` because a shard process
/// ([`crate::shard::ShardSlice`]) reads it for its range and topic count
/// without assembling a model.
pub(crate) struct RawManifest {
    pub(crate) base: RawHeader,
    /// Range starts plus the trailing `vocab_size`, ascending, length
    /// `n_shards + 1`.
    pub(crate) boundaries: Vec<u32>,
}

impl RawManifest {
    pub(crate) fn load(dir: &Path) -> io::Result<Self> {
        let mut n_shards: Option<usize> = None;
        let mut starts: Vec<(usize, u32)> = Vec::new();
        let base = RawHeader::load(
            &dir.join("manifest.tsv"),
            SHARDED_MODEL_FORMAT,
            |key, value| {
                let bad_value = || format!("bad value for {key}: {value:?}");
                if key == "n_shards" {
                    n_shards = Some(value.parse().map_err(|_| bad_value())?);
                } else if let Some(i) = key
                    .strip_prefix("shard")
                    .and_then(|k| k.strip_suffix("_start"))
                {
                    let i = i.parse().map_err(|_| format!("bad key {key:?}"))?;
                    starts.push((i, value.parse().map_err(|_| bad_value())?));
                } else {
                    return Ok(false);
                }
                Ok(true)
            },
        )?;
        let n_shards = n_shards.ok_or_else(|| data_err("manifest.tsv missing n_shards".into()))?;
        starts.sort_by_key(|&(i, _)| i);
        if starts.len() != n_shards || starts.iter().enumerate().any(|(i, &(j, _))| i != j) {
            return Err(data_err(format!(
                "manifest.tsv shard starts are not dense 0..{n_shards}"
            )));
        }
        let mut boundaries: Vec<u32> = starts.into_iter().map(|(_, lo)| lo).collect();
        if boundaries.first() != Some(&0) {
            return Err(data_err("manifest.tsv: shard0_start must be 0".into()));
        }
        let vocab_size = base.header.vocab_size;
        boundaries.push(vocab_size as u32);
        // Ranges must be checked before anything is sized by `hi - lo` (a
        // corrupt manifest must be an error, not an underflow).
        if boundaries.windows(2).any(|w| w[0] > w[1]) {
            return Err(data_err(format!(
                "manifest.tsv: shard ranges must ascend to vocab_size {vocab_size}: {boundaries:?}"
            )));
        }
        Ok(Self { base, boundaries })
    }

    pub(crate) fn n_shards(&self) -> usize {
        self.boundaries.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frozen::tests::tiny_model;

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("topmine-sharded-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Every persisted field of `b` equals `a`'s (φ compared bit for bit).
    fn assert_same_model(a: &FrozenModel, b: &FrozenModel) {
        assert_eq!(a.header, b.header);
        assert_eq!(a.preprocess, b.preprocess);
        assert_eq!(
            a.vocab.iter().collect::<Vec<_>>(),
            b.vocab.iter().collect::<Vec<_>>()
        );
        assert_eq!(a.unstem, b.unstem);
        assert_eq!(a.lexicon, b.lexicon);
        let bits = |m: &FrozenModel| -> Vec<Vec<u64>> {
            m.phi
                .iter()
                .map(|row| row.iter().map(|x| x.to_bits()).collect())
                .collect()
        };
        assert_eq!(bits(a), bits(b));
        assert_eq!(a.alpha, b.alpha);
    }

    #[test]
    fn from_frozen_partitions_everything_exactly_once() {
        let m = tiny_model();
        let dir = tmpdir("partition");
        for n in [1usize, 2, 3, 7, 64] {
            let sharded = ShardedModel::from_frozen(&m, n).unwrap();
            assert_eq!(sharded.n_shards(), n);
            sharded.save(&dir).unwrap();
            // Each shard's lexicon holds exactly the phrases starting in its
            // range; together they hold every phrase once.
            let mut n_phrases = 0;
            for (i, w) in sharded.boundaries.windows(2).enumerate() {
                let part = load_lexicon(
                    &dir.join(format!("shard-{i}")).join("lexicon.tsv"),
                    m.lexicon.min_support(),
                )
                .unwrap();
                assert!(part
                    .iter_phrases()
                    .iter()
                    .all(|(p, _)| (w[0]..w[1]).contains(&p[0])));
                n_phrases += part.n_phrases();
            }
            assert_eq!(n_phrases, m.lexicon.n_phrases());
            let (loaded, boundaries) = load_sharded(&dir, true).unwrap();
            assert_eq!(boundaries, sharded.boundaries);
            assert_same_model(&m, &loaded);
        }
        assert!(ShardedModel::from_frozen(&m, 0).is_err());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn prepare_and_segment_match_the_monolith() {
        let m = tiny_model();
        let dir = tmpdir("prepare");
        ShardedModel::from_frozen(&m, 3)
            .unwrap()
            .save(&dir)
            .unwrap();
        let loaded = FrozenModel::load(&dir).unwrap();
        let text = "The support vector machines, for the data streams! quux";
        let a = m.prepare(text);
        let b = loaded.prepare(text);
        assert_eq!(a.doc.tokens, b.doc.tokens);
        assert_eq!(a.n_oov, b.n_oov);
        assert_eq!(m.segment(&a.doc), loaded.segment(&b.doc));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn save_load_roundtrip_is_exact() {
        let dir = tmpdir("roundtrip");
        let m = tiny_model();
        ShardedModel::from_frozen(&m, 3)
            .unwrap()
            .save(&dir)
            .unwrap();
        assert_same_model(&m, &FrozenModel::load(&dir).unwrap());
        // The router's view is the same model without φ.
        let (view, boundaries) = load_sharded(&dir, false).unwrap();
        assert!(view.phi.is_empty());
        assert_eq!(view.lexicon, m.lexicon);
        assert_eq!(boundaries.len(), 4);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn resave_with_fewer_shards_cleans_stale_directories() {
        let dir = tmpdir("resave");
        let m = tiny_model();
        ShardedModel::from_frozen(&m, 7)
            .unwrap()
            .save(&dir)
            .unwrap();
        assert!(dir.join("shard-6").exists());
        let two = ShardedModel::from_frozen(&m, 2).unwrap();
        two.save(&dir).unwrap();
        assert!(dir.join("shard-1").exists());
        for stale in 2..7 {
            assert!(
                !dir.join(format!("shard-{stale}")).exists(),
                "shard-{stale} must be cleaned up"
            );
        }
        let (loaded, boundaries) = load_sharded(&dir, true).unwrap();
        assert_eq!(boundaries, two.boundaries);
        assert_same_model(&m, &loaded);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn sharded_save_replaces_a_monolithic_bundle() {
        let dir = tmpdir("replace");
        let m = tiny_model();
        m.save(&dir).unwrap();
        assert!(dir.join("header.tsv").exists());
        ShardedModel::from_frozen(&m, 2)
            .unwrap()
            .save(&dir)
            .unwrap();
        assert!(!dir.join("header.tsv").exists());
        assert!(dir.join("manifest.tsv").exists());
        // And the other direction: a monolithic save clears shard state.
        m.save(&dir).unwrap();
        assert!(!dir.join("manifest.tsv").exists());
        assert!(!dir.join("shard-0").exists());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn version_mismatch_and_corruption_are_clean_errors() {
        let dir = tmpdir("corrupt");
        let m = tiny_model();
        let sharded = ShardedModel::from_frozen(&m, 2).unwrap();
        sharded.save(&dir).unwrap();
        let manifest = dir.join("manifest.tsv");
        let body = std::fs::read_to_string(&manifest).unwrap();
        std::fs::write(
            &manifest,
            body.replace(SHARDED_MODEL_FORMAT, "topmine-sharded-model/99"),
        )
        .unwrap();
        let err = FrozenModel::load(&dir).unwrap_err().to_string();
        assert!(err.contains("topmine-sharded-model/99"), "{err}");
        assert!(err.contains(SHARDED_MODEL_FORMAT), "{err}");
        sharded.save(&dir).unwrap();
        std::fs::remove_dir_all(dir.join("shard-1")).unwrap();
        assert!(FrozenModel::load(&dir).is_err());
        // Non-ascending ranges (vocab_size edited below a shard start) must
        // be a clean error before any shard sizes a buffer by `hi - lo`.
        sharded.save(&dir).unwrap();
        let body = std::fs::read_to_string(&manifest).unwrap();
        let vocab_size = m.vocab_size();
        std::fs::write(
            &manifest,
            body.replace(&format!("vocab_size\t{vocab_size}"), "vocab_size\t1"),
        )
        .unwrap();
        let err = FrozenModel::load(&dir).unwrap_err().to_string();
        assert!(err.contains("ascend"), "{err}");
        sharded.save(&dir).unwrap();
        std::fs::write(dir.join("shard-0").join("phi.tsv"), "topic\tw0\n0\tnope\n").unwrap();
        assert!(FrozenModel::load(&dir).is_err());
        // A broken table names its file and line.
        sharded.save(&dir).unwrap();
        std::fs::write(dir.join("shard-1").join("vocab.tsv"), "x\tword\n").unwrap();
        let err = FrozenModel::load(&dir).unwrap_err().to_string();
        assert!(err.contains("shard-1/vocab.tsv line 1"), "{err}");
        let _ = std::fs::remove_dir_all(dir);
    }
}
