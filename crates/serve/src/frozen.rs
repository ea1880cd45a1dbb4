//! The frozen-model artifact: an immutable, versioned, single-directory
//! bundle holding everything fold-in inference over unseen text needs.
//!
//! A [`FrozenModel`] captures the three layers of a fitted ToPMine run:
//!
//! 1. the **preprocessing contract** — vocabulary, stemming/stop-word
//!    configuration — so unseen text is normalized exactly as the training
//!    corpus was;
//! 2. the **phrase lexicon** as a [`PhraseTrie`], so unseen documents are
//!    segmented by the same Algorithm 2 pass (via
//!    `topmine_phrase`'s construction, which is generic over
//!    [`PhraseCounts`]);
//! 3. the **topic model point estimate** — φ, the asymmetric α vector and
//!    β — frozen for Eq. 7 fold-in.
//!
//! The on-disk layout is a directory of plain TSV files fronted by
//! `header.tsv`, whose first line carries [`FROZEN_MODEL_FORMAT`]; loading
//! any other version fails with an error naming both versions, never a
//! panic. [`FrozenModel::load`] also reads the fleet's sharded layout
//! ([`crate::sharded`]), putting the shards back together into one model,
//! so a process serving from its own memory always holds one
//! `FrozenModel`.

use crate::backend::{BackendError, GatherOptions, ModelBackend};
use crate::trie::PhraseTrie;
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::Path;
use topmine_corpus::{porter_stem, tokenize_chunks, Document, StopwordSet, Vocab};
use topmine_lda::PhraseLda;
use topmine_phrase::{PhraseConstructor, PhraseCounts, PhraseStats};

/// Version tag on the first line of `header.tsv`.
pub const FROZEN_MODEL_FORMAT: &str = "topmine-frozen-model/1";

/// The preprocessing contract unseen text is held to (a persistable subset
/// of `topmine_corpus::CorpusOptions` — the provenance switch is a training
/// concern and deliberately absent).
#[derive(Debug, Clone, PartialEq)]
pub struct PreprocessConfig {
    /// Porter-stem every token.
    pub stem: bool,
    /// Drop stop words from the inference stream.
    pub remove_stopwords: bool,
    /// Drop surface tokens shorter than this many characters.
    pub min_token_len: usize,
    /// The stop word list itself (sorted; empty when removal is off), so a
    /// bundle trained with a custom list reproduces it bit-for-bit.
    pub stopwords: Vec<String>,
}

impl PreprocessConfig {
    /// Capture the persistable parts of the training-side options.
    pub fn from_corpus_options(options: &topmine_corpus::CorpusOptions) -> Self {
        Self {
            stem: options.stem,
            remove_stopwords: options.remove_stopwords,
            min_token_len: options.min_token_len,
            stopwords: if options.remove_stopwords {
                options
                    .stopwords
                    .sorted_words()
                    .into_iter()
                    .map(str::to_string)
                    .collect()
            } else {
                Vec::new()
            },
        }
    }
}

impl Default for PreprocessConfig {
    /// The paper's preprocessing (mirrors `CorpusOptions::default`).
    fn default() -> Self {
        Self::from_corpus_options(&topmine_corpus::CorpusOptions::default())
    }
}

/// Bundle metadata: format version plus the training-corpus statistics that
/// size every downstream structure.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelHeader {
    pub n_topics: usize,
    pub vocab_size: usize,
    /// Documents in the training corpus.
    pub n_docs: usize,
    /// Tokens in the training corpus (the lexicon's `L`).
    pub n_tokens: u64,
    /// Significance threshold α the segmentation was (and will be) run with.
    pub seg_alpha: f64,
    /// Symmetric topic-word Dirichlet β.
    pub beta: f64,
}

/// A fitted ToPMine model frozen for inference.
#[derive(Debug, Clone)]
pub struct FrozenModel {
    pub header: ModelHeader,
    pub preprocess: PreprocessConfig,
    pub vocab: Vocab,
    /// Display table: most frequent surface form per stem id (empty string
    /// = fall back to the vocab word). Present iff training stemmed.
    pub unstem: Option<Vec<String>>,
    pub lexicon: PhraseTrie,
    /// Topic-word point estimate, `n_topics × vocab_size`.
    pub phi: Vec<Vec<f64>>,
    /// Asymmetric document-topic Dirichlet, length `n_topics`.
    pub alpha: Vec<f64>,
    /// Membership set built from `preprocess.stopwords` (not persisted
    /// separately).
    stopword_set: StopwordSet,
}

/// A document preprocessed against a frozen vocabulary.
#[derive(Debug, Clone, Default)]
pub struct PreparedDoc {
    /// The inference stream: known-word ids with chunk structure.
    pub doc: Document,
    /// Surface tokens that survived filtering but are outside the frozen
    /// vocabulary (dropped from the stream).
    pub n_oov: usize,
}

fn data_err(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

pub(crate) fn remove_if_present(path: &Path) -> io::Result<()> {
    match std::fs::remove_file(path) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(e),
    }
}

/// The `key<TAB>value` pairs both bundle headers share — shapes, Algorithm
/// 2 parameters, preprocessing contract, α vector. `header.tsv` is exactly
/// these; the sharded `manifest.tsv` wraps them with its shard topology.
/// One builder, so the two layouts cannot drift field by field;
/// [`RawHeader::load`] is its inverse.
pub(crate) fn bundle_header_pairs(
    header: &ModelHeader,
    preprocess: &PreprocessConfig,
    min_support: u64,
    alpha: &[f64],
) -> Vec<(String, String)> {
    let mut pairs: Vec<(String, String)> = vec![
        ("n_topics".into(), header.n_topics.to_string()),
        ("vocab_size".into(), header.vocab_size.to_string()),
        ("n_docs".into(), header.n_docs.to_string()),
        ("n_tokens".into(), header.n_tokens.to_string()),
        ("seg_alpha".into(), format!("{:.17e}", header.seg_alpha)),
        ("beta".into(), format!("{:.17e}", header.beta)),
        ("min_support".into(), min_support.to_string()),
        ("stem".into(), preprocess.stem.to_string()),
        (
            "remove_stopwords".into(),
            preprocess.remove_stopwords.to_string(),
        ),
        ("min_token_len".into(), preprocess.min_token_len.to_string()),
    ];
    for (t, a) in alpha.iter().enumerate() {
        pairs.push((format!("alpha{t}"), format!("{a:.17e}")));
    }
    pairs
}

/// Write `lexicon.tsv`: the `total_tokens` line, then `count<TAB>space-joined
/// ids` per phrase, in the trie's canonical (lexicographic) order. The one
/// writer both bundle layouts share; [`load_lexicon`] is its inverse.
pub(crate) fn save_lexicon_file(
    path: &Path,
    total_tokens: u64,
    phrases: &[(Vec<u32>, u64)],
) -> io::Result<()> {
    let mut out = BufWriter::new(File::create(path)?);
    writeln!(out, "total_tokens\t{total_tokens}")?;
    for (phrase, count) in phrases {
        write!(out, "{count}\t")?;
        for (i, w) in phrase.iter().enumerate() {
            if i > 0 {
                write!(out, " ")?;
            }
            write!(out, "{w}")?;
        }
        writeln!(out)?;
    }
    out.flush()
}

/// Write `stopwords.txt`, one word per line — or remove it when the list is
/// empty, since loaders treat the file's presence as meaning.
pub(crate) fn save_stopword_file(path: &Path, stopwords: &[String]) -> io::Result<()> {
    if stopwords.is_empty() {
        return remove_if_present(path);
    }
    let mut out = BufWriter::new(File::create(path)?);
    for w in stopwords {
        writeln!(out, "{w}")?;
    }
    out.flush()
}

/// Read an optional stop-word file (one word per line); a missing file is
/// the empty list, matching the save-side "presence is meaning" rule.
pub(crate) fn load_stopword_file(path: &Path) -> io::Result<Vec<String>> {
    if !path.exists() {
        return Ok(Vec::new());
    }
    let reader = BufReader::new(File::open(path)?);
    let mut words = Vec::new();
    for line in reader.lines() {
        let line = line?;
        if !line.is_empty() {
            words.push(line);
        }
    }
    Ok(words)
}

/// Write an `id<TAB>string` table (`vocab.tsv`, `unstem.tsv`).
pub(crate) fn save_id_table<'s>(
    path: &Path,
    rows: impl Iterator<Item = (u32, &'s str)>,
) -> io::Result<()> {
    let mut out = BufWriter::new(File::create(path)?);
    for (id, text) in rows {
        writeln!(out, "{id}\t{text}")?;
    }
    out.flush()
}

/// The rows of an unstem table for ids `[lo, hi)`: an empty surface means
/// "display the vocabulary word" and is not written.
pub(crate) fn unstem_rows(
    unstem: &[String],
    lo: u32,
    hi: u32,
) -> impl Iterator<Item = (u32, &str)> {
    (lo..hi)
        .map(|id| (id, unstem[id as usize].as_str()))
        .filter(|(_, surface)| !surface.is_empty())
}

/// Read the `id<TAB>string` table `dir/name`, calling `put(id, string)` per
/// line. Ids outside `[lo, hi)` are errors (`lo` is the first id a shard
/// owns, 0 for a whole model), and every error names `name` and the line.
fn read_id_table(
    dir: &Path,
    name: &str,
    lo: u32,
    hi: u32,
    mut put: impl FnMut(u32, &str) -> Result<(), String>,
) -> io::Result<()> {
    let file =
        File::open(dir.join(name)).map_err(|e| io::Error::new(e.kind(), format!("{name}: {e}")))?;
    for (i, line) in BufReader::new(file).lines().enumerate() {
        let line = line?;
        if line.is_empty() {
            continue;
        }
        let at = |msg: String| data_err(format!("{name} line {}: {msg}", i + 1));
        let (id_str, text) = line
            .split_once('\t')
            .ok_or_else(|| at("not id<TAB>string".into()))?;
        let id: u32 = id_str
            .parse()
            .map_err(|_| at(format!("bad id {id_str:?}")))?;
        if id < lo || id >= hi {
            return Err(at(format!("id {id} outside [{lo}, {hi})")));
        }
        put(id, text).map_err(at)?;
    }
    Ok(())
}

/// Append the vocabulary table `dir/name` — ids `[lo, hi)`, dense and in
/// order, following the words `vocab` already holds — to `vocab`.
pub(crate) fn read_vocab(
    vocab: &mut Vocab,
    dir: &Path,
    name: &str,
    lo: u32,
    hi: u32,
) -> io::Result<()> {
    read_id_table(dir, name, lo, hi, |id, word| {
        let expected = vocab.len() as u32;
        if id != expected {
            return Err(format!("id {id} out of order (expected {expected})"));
        }
        if vocab.intern(word) != id {
            return Err(format!("word {word:?} is listed twice"));
        }
        Ok(())
    })?;
    if vocab.len() != hi as usize {
        return Err(data_err(format!(
            "{name} has {} words for ids [{lo}, {hi})",
            vocab.len() - lo as usize
        )));
    }
    Ok(())
}

/// Fill `table` from the unstem table `dir/name` (ids `[lo, hi)`, indexing
/// `table` globally; ids it leaves out keep their empty string).
pub(crate) fn read_unstem(
    table: &mut [String],
    dir: &Path,
    name: &str,
    lo: u32,
    hi: u32,
) -> io::Result<()> {
    read_id_table(dir, name, lo, hi, |id, surface| {
        table[id as usize] = surface.to_string();
        Ok(())
    })
}

impl FrozenModel {
    /// Freeze a fitted model. `stats` and `seg_alpha` are the mining-side
    /// outputs (Algorithm 1 counts and the Algorithm 2 threshold), `model`
    /// the trained sampler, `options` the preprocessing the corpus was
    /// built with.
    pub fn freeze(
        corpus: &topmine_corpus::Corpus,
        stats: &PhraseStats,
        seg_alpha: f64,
        model: &PhraseLda,
        options: &topmine_corpus::CorpusOptions,
    ) -> Self {
        assert_eq!(
            corpus.vocab.len(),
            model.vocab_size(),
            "corpus and sampler disagree on vocabulary size"
        );
        Self::from_parts_unchecked(
            ModelHeader {
                n_topics: model.n_topics(),
                vocab_size: model.vocab_size(),
                n_docs: corpus.n_docs(),
                n_tokens: corpus.n_tokens() as u64,
                seg_alpha,
                beta: model.beta(),
            },
            PreprocessConfig::from_corpus_options(options),
            corpus.vocab.clone(),
            corpus.unstem.clone(),
            PhraseTrie::from_stats(stats),
            model.phi(),
            model.alpha().to_vec(),
        )
    }

    /// Assemble a model from raw parts (tests, format converters). Shape
    /// invariants are checked.
    pub fn from_parts(
        header: ModelHeader,
        preprocess: PreprocessConfig,
        vocab: Vocab,
        unstem: Option<Vec<String>>,
        lexicon: PhraseTrie,
        phi: Vec<Vec<f64>>,
        alpha: Vec<f64>,
    ) -> io::Result<Self> {
        let model =
            Self::from_parts_unchecked(header, preprocess, vocab, unstem, lexicon, phi, alpha);
        model.validate().map_err(data_err)?;
        Ok(model)
    }

    /// [`FrozenModel::from_parts`] without the checks; the caller runs
    /// [`FrozenModel::validate_with`].
    pub(crate) fn from_parts_unchecked(
        header: ModelHeader,
        preprocess: PreprocessConfig,
        vocab: Vocab,
        unstem: Option<Vec<String>>,
        lexicon: PhraseTrie,
        phi: Vec<Vec<f64>>,
        alpha: Vec<f64>,
    ) -> Self {
        Self {
            stopword_set: StopwordSet::from_words(preprocess.stopwords.iter().map(String::as_str)),
            header,
            preprocess,
            vocab,
            unstem,
            lexicon,
            phi,
            alpha,
        }
    }

    /// Structural invariants every loaded/assembled model satisfies.
    pub fn validate(&self) -> Result<(), String> {
        self.validate_with(true)
    }

    /// Like [`FrozenModel::validate`], but `with_phi = false` accepts the
    /// fleet router's phi-less local view (φ lives in the shard processes,
    /// so it must then be absent, not merely misshapen).
    pub(crate) fn validate_with(&self, with_phi: bool) -> Result<(), String> {
        let h = &self.header;
        if self.vocab.len() != h.vocab_size {
            return Err(format!(
                "vocab has {} words, header says {}",
                self.vocab.len(),
                h.vocab_size
            ));
        }
        if !with_phi {
            if !self.phi.is_empty() {
                return Err("a phi-less view carries phi".into());
            }
        } else if self.phi.len() != h.n_topics {
            return Err(format!(
                "phi has {} rows, header says {} topics",
                self.phi.len(),
                h.n_topics
            ));
        } else if let Some(row) = self.phi.iter().find(|r| r.len() != h.vocab_size) {
            return Err(format!(
                "phi row has {} columns, header says vocab_size {}",
                row.len(),
                h.vocab_size
            ));
        }
        if self.alpha.len() != h.n_topics {
            return Err(format!(
                "alpha has {} entries, header says {} topics",
                self.alpha.len(),
                h.n_topics
            ));
        }
        // NaN must fail too, so compare via the negation.
        let positive = |x: f64| x > 0.0;
        if !self.alpha.iter().copied().all(positive) || !positive(h.beta) {
            return Err("hyperparameters must be positive".into());
        }
        if let Some(u) = &self.unstem {
            if u.len() != h.vocab_size {
                return Err("unstem table length mismatch".into());
            }
        }
        Ok(())
    }

    pub fn n_topics(&self) -> usize {
        self.header.n_topics
    }

    pub fn vocab_size(&self) -> usize {
        self.header.vocab_size
    }

    /// Preferred display string for one word id (unstemmed when possible).
    pub fn display_word(&self, id: u32) -> &str {
        match &self.unstem {
            Some(table) if !table[id as usize].is_empty() => &table[id as usize],
            _ => self.vocab.word(id),
        }
    }

    /// Render a phrase of word ids for display.
    pub fn display_phrase(&self, ids: &[u32]) -> String {
        let mut s = String::new();
        for (i, &id) in ids.iter().enumerate() {
            if i > 0 {
                s.push(' ');
            }
            s.push_str(self.display_word(id));
        }
        s
    }

    /// Normalize unseen text exactly as training preprocessing did:
    /// tokenize into chunks, filter by length and stop words, stem, then
    /// map through the *frozen* vocabulary. Out-of-vocabulary terms are
    /// dropped (and counted) — fold-in has no estimate for them.
    pub fn prepare(&self, text: &str) -> PreparedDoc {
        let preprocess = &self.preprocess;
        let mut chunks: Vec<Vec<u32>> = Vec::new();
        let mut current_chunk: Option<u32> = None;
        let mut n_oov = 0usize;
        for tok in tokenize_chunks(text) {
            if current_chunk != Some(tok.chunk) {
                chunks.push(Vec::new());
                current_chunk = Some(tok.chunk);
            }
            if tok.text.chars().count() < preprocess.min_token_len {
                continue;
            }
            if preprocess.remove_stopwords && self.stopword_set.contains(&tok.text) {
                continue;
            }
            let term = if preprocess.stem {
                porter_stem(&tok.text)
            } else {
                tok.text
            };
            if term.is_empty() {
                continue;
            }
            match self.vocab.id(&term) {
                Some(id) => chunks.last_mut().expect("chunk open").push(id),
                None => n_oov += 1,
            }
        }
        PreparedDoc {
            doc: Document::from_chunks(chunks),
            n_oov,
        }
    }

    /// Segment a prepared document against the frozen lexicon (Algorithm 2
    /// with the trained counts and threshold).
    pub fn segment(&self, doc: &Document) -> Vec<(u32, u32)> {
        PhraseConstructor::new(self.header.seg_alpha).construct_doc(doc, &self.lexicon)
    }

    // ----- persistence ------------------------------------------------------

    /// Write the bundle into `dir` (created if needed): `header.tsv`,
    /// `vocab.tsv`, `lexicon.tsv`, `phi.tsv`, plus `stopwords.txt` and
    /// `unstem.tsv` when applicable.
    pub fn save(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)?;
        // A sharded bundle previously saved here must not shadow this one:
        // `load` treats manifest.tsv as the sharded layout's marker.
        remove_if_present(&dir.join("manifest.tsv"))?;
        crate::sharded::remove_stale_shards(dir, 0)?;
        let pairs = bundle_header_pairs(
            &self.header,
            &self.preprocess,
            self.lexicon.min_support(),
            &self.alpha,
        );
        topmine_lda::io::save_versioned_kv(&dir.join("header.tsv"), FROZEN_MODEL_FORMAT, pairs)?;
        save_id_table(&dir.join("vocab.tsv"), self.vocab.iter())?;
        save_lexicon_file(
            &dir.join("lexicon.tsv"),
            PhraseCounts::total_tokens(&self.lexicon),
            &self.lexicon.iter_phrases(),
        )?;
        topmine_lda::io::save_phi_matrix(&self.phi, &dir.join("phi.tsv"))?;
        // The optional files must not survive from a previous bundle saved
        // into the same directory: load() treats their presence as meaning.
        save_stopword_file(&dir.join("stopwords.txt"), &self.preprocess.stopwords)?;
        let unstem_path = dir.join("unstem.tsv");
        match &self.unstem {
            None => remove_if_present(&unstem_path),
            Some(unstem) => {
                save_id_table(&unstem_path, unstem_rows(unstem, 0, unstem.len() as u32))
            }
        }
    }

    /// Load the bundle in `dir`, whichever layout it holds: a
    /// `manifest.tsv` marks the fleet's sharded layout, whose shards are
    /// put back together into one model ([`crate::sharded`]); a
    /// `header.tsv` marks the monolithic one. Both savers remove the other
    /// layout's marker, so a directory is never ambiguous. The format line
    /// is checked first; every other failure (missing file, bad number,
    /// shape mismatch) is an `io::Error` naming the file.
    pub fn load(dir: &Path) -> io::Result<Self> {
        if dir.join("manifest.tsv").exists() {
            return crate::sharded::load_sharded(dir, true).map(|(model, _)| model);
        }
        if !dir.join("header.tsv").exists() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!(
                    "{}: neither manifest.tsv (sharded bundle) nor header.tsv \
                     (monolithic bundle) found",
                    dir.display()
                ),
            ));
        }
        let raw = RawHeader::load(&dir.join("header.tsv"), FROZEN_MODEL_FORMAT, |_, _| {
            Ok(false)
        })?;
        let v = raw.header.vocab_size as u32;
        let mut vocab = Vocab::new();
        read_vocab(&mut vocab, dir, "vocab.tsv", 0, v)?;
        let unstem = if dir.join("unstem.tsv").exists() {
            let mut table = vec![String::new(); v as usize];
            read_unstem(&mut table, dir, "unstem.tsv", 0, v)?;
            Some(table)
        } else {
            None
        };
        let lexicon = load_lexicon(&dir.join("lexicon.tsv"), raw.min_support)?;
        let phi = topmine_lda::io::load_phi(&dir.join("phi.tsv"))?;
        let mut preprocess = raw.preprocess;
        preprocess.stopwords = load_stopword_file(&dir.join("stopwords.txt"))?;
        Self::from_parts(
            raw.header, preprocess, vocab, unstem, lexicon, phi, raw.alpha,
        )
    }
}

/// The header both layouts share (`header.tsv`, and the common part of the
/// sharded `manifest.tsv`), parsed.
pub(crate) struct RawHeader {
    pub(crate) header: ModelHeader,
    /// The preprocessing contract minus the stop word list, which lives in
    /// its own file.
    pub(crate) preprocess: PreprocessConfig,
    pub(crate) min_support: u64,
    pub(crate) alpha: Vec<f64>,
}

impl RawHeader {
    /// Parse the versioned `key<TAB>value` file at `path` (format line
    /// `format`). A key outside the shared set goes to `extra` — the
    /// manifest's shard topology — which returns `Ok(false)` for a key it
    /// does not know either. Errors name the file and line.
    pub(crate) fn load(
        path: &Path,
        format: &str,
        mut extra: impl FnMut(&str, &str) -> Result<bool, String>,
    ) -> io::Result<Self> {
        let file = path
            .file_name()
            .map(|f| f.to_string_lossy().into_owned())
            .unwrap_or_default();
        // The versioned key<TAB>value plumbing (format line, line-numbered
        // errors) is shared with the LDA bundle format.
        let pairs = topmine_lda::io::read_versioned_kv(path, format)?;
        let mut n_topics = None;
        let mut vocab_size = None;
        let mut n_docs = None;
        let mut n_tokens = None;
        let mut seg_alpha = None;
        let mut beta = None;
        let mut min_support = None;
        let mut stem = None;
        let mut remove_stopwords = None;
        let mut min_token_len = None;
        let mut alphas: Vec<(usize, f64)> = Vec::new();
        for (line_no, key, value) in pairs {
            let at = |msg: String| data_err(format!("{file} line {line_no}: {msg}"));
            let bad_value = || at(format!("bad value for {key}: {value:?}"));
            macro_rules! parse_into {
                ($slot:ident) => {
                    $slot = Some(value.parse().map_err(|_| bad_value())?)
                };
            }
            match key.as_str() {
                "n_topics" => parse_into!(n_topics),
                "vocab_size" => parse_into!(vocab_size),
                "n_docs" => parse_into!(n_docs),
                "n_tokens" => parse_into!(n_tokens),
                "seg_alpha" => parse_into!(seg_alpha),
                "beta" => parse_into!(beta),
                "min_support" => parse_into!(min_support),
                "stem" => parse_into!(stem),
                "remove_stopwords" => parse_into!(remove_stopwords),
                "min_token_len" => parse_into!(min_token_len),
                k if k.starts_with("alpha") => {
                    let t: usize = k["alpha".len()..]
                        .parse()
                        .map_err(|_| at(format!("bad key {k:?}")))?;
                    alphas.push((t, value.parse().map_err(|_| bad_value())?));
                }
                other => {
                    if !extra(other, &value).map_err(at)? {
                        return Err(at(format!("unknown key {other:?}")));
                    }
                }
            }
        }
        let missing = |k: &str| data_err(format!("{file} missing {k}"));
        let n_topics = n_topics.ok_or_else(|| missing("n_topics"))?;
        let alpha = topmine_lda::io::assemble_alpha(alphas, n_topics, &file)?;
        Ok(Self {
            header: ModelHeader {
                n_topics,
                vocab_size: vocab_size.ok_or_else(|| missing("vocab_size"))?,
                n_docs: n_docs.ok_or_else(|| missing("n_docs"))?,
                n_tokens: n_tokens.ok_or_else(|| missing("n_tokens"))?,
                seg_alpha: seg_alpha.ok_or_else(|| missing("seg_alpha"))?,
                beta: beta.ok_or_else(|| missing("beta"))?,
            },
            preprocess: PreprocessConfig {
                stem: stem.ok_or_else(|| missing("stem"))?,
                remove_stopwords: remove_stopwords.ok_or_else(|| missing("remove_stopwords"))?,
                min_token_len: min_token_len.ok_or_else(|| missing("min_token_len"))?,
                stopwords: Vec::new(),
            },
            min_support: min_support.ok_or_else(|| missing("min_support"))?,
            alpha,
        })
    }
}

/// The in-process backend: one in-memory model answering every part of
/// the contract locally (the φ gather copies the trained columns, which is
/// bit-exact by construction). It serves a sharded bundle too, once
/// [`FrozenModel::load`] has put the shards back together.
impl ModelBackend for FrozenModel {
    fn header(&self) -> &ModelHeader {
        &self.header
    }

    fn preprocess(&self) -> &PreprocessConfig {
        &self.preprocess
    }

    fn alpha(&self) -> &[f64] {
        &self.alpha
    }

    fn format_tag(&self) -> &'static str {
        FROZEN_MODEL_FORMAT
    }

    fn n_lexicon_phrases(&self) -> usize {
        self.lexicon.n_phrases()
    }

    fn prepare(&self, text: &str) -> PreparedDoc {
        FrozenModel::prepare(self, text)
    }

    fn segment(&self, doc: &Document) -> Vec<(u32, u32)> {
        FrozenModel::segment(self, doc)
    }

    fn try_gather_phi(
        &self,
        words: &[u32],
        _opts: &GatherOptions,
    ) -> Result<Vec<f64>, BackendError> {
        let k = self.header.n_topics;
        let n = words.len();
        let mut out = vec![0.0f64; k * n];
        for (t, row) in self.phi.iter().enumerate() {
            for (j, &w) in words.iter().enumerate() {
                out[t * n + j] = row[w as usize];
            }
        }
        Ok(out)
    }

    fn display_word(&self, id: u32) -> &str {
        FrozenModel::display_word(self, id)
    }

    fn display_phrase(&self, ids: &[u32]) -> String {
        FrozenModel::display_phrase(self, ids)
    }
}

pub(crate) fn load_lexicon(path: &Path, min_support: u64) -> io::Result<PhraseTrie> {
    let reader = BufReader::new(File::open(path)?);
    let mut lines = reader.lines();
    let first = lines
        .next()
        .transpose()?
        .ok_or_else(|| data_err("lexicon.tsv is empty".into()))?;
    let total_tokens: u64 = match first.split_once('\t') {
        Some(("total_tokens", v)) => v
            .parse()
            .map_err(|_| data_err(format!("lexicon line 1: bad total_tokens {v:?}")))?,
        _ => {
            return Err(data_err(
                "lexicon line 1: expected total_tokens\t<count>".into(),
            ))
        }
    };
    let mut trie = PhraseTrie::new(total_tokens, min_support);
    for (i, line) in lines.enumerate() {
        let line = line?;
        if line.is_empty() {
            continue;
        }
        let line_no = i + 2;
        let (count_str, ids) = line
            .split_once('\t')
            .ok_or_else(|| data_err(format!("lexicon line {line_no}: not count<TAB>ids")))?;
        let count: u64 = count_str
            .parse()
            .map_err(|_| data_err(format!("lexicon line {line_no}: bad count {count_str:?}")))?;
        let mut phrase = Vec::new();
        for tok in ids.split_whitespace() {
            phrase.push(
                tok.parse::<u32>().map_err(|_| {
                    data_err(format!("lexicon line {line_no}: bad word id {tok:?}"))
                })?,
            );
        }
        if phrase.is_empty() || count == 0 {
            return Err(data_err(format!(
                "lexicon line {line_no}: empty phrase or zero count"
            )));
        }
        trie.insert(&phrase, count);
    }
    Ok(trie)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use topmine_corpus::{corpus_from_texts, CorpusOptions};
    use topmine_lda::{GroupedDocs, TopicModelConfig};
    use topmine_phrase::Segmenter;

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("topmine-frozen-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Fit a tiny but real model: mine + segment + a few Gibbs sweeps.
    pub(crate) fn tiny_model() -> FrozenModel {
        let texts: Vec<String> = (0..30)
            .flat_map(|i| {
                [
                    format!("mining frequent patterns in data streams {i}"),
                    format!("support vector machines for classification task {i}"),
                ]
            })
            .collect();
        let corpus = corpus_from_texts(texts.iter().map(String::as_str));
        let (stats, seg) = Segmenter::with_params(5, 2.0).segment(&corpus);
        let grouped = GroupedDocs::from_segmentation(&corpus, &seg);
        let mut model = topmine_lda::PhraseLda::new(grouped, TopicModelConfig::new(2).with_seed(9));
        model.run(30);
        FrozenModel::freeze(&corpus, &stats, 2.0, &model, &CorpusOptions::default())
    }

    #[test]
    fn freeze_captures_shapes() {
        let m = tiny_model();
        m.validate().unwrap();
        assert_eq!(m.n_topics(), 2);
        assert_eq!(m.phi.len(), 2);
        assert_eq!(m.phi[0].len(), m.vocab_size());
        assert!(m.lexicon.n_phrases() > 0);
        assert!(m.unstem.is_some());
        assert!(!m.preprocess.stopwords.is_empty());
    }

    #[test]
    fn save_load_roundtrip_is_exact() {
        let dir = tmpdir("roundtrip");
        let m = tiny_model();
        m.save(&dir).unwrap();
        let loaded = FrozenModel::load(&dir).unwrap();
        assert_eq!(loaded.header, m.header);
        assert_eq!(loaded.preprocess, m.preprocess);
        assert_eq!(loaded.phi, m.phi);
        assert_eq!(loaded.alpha, m.alpha);
        assert_eq!(loaded.lexicon, m.lexicon);
        assert_eq!(loaded.vocab.len(), m.vocab.len());
        for (id, w) in m.vocab.iter() {
            assert_eq!(loaded.vocab.word(id), w);
        }
        assert_eq!(loaded.unstem, m.unstem);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn version_mismatch_is_a_clean_error() {
        let dir = tmpdir("version");
        let m = tiny_model();
        m.save(&dir).unwrap();
        let header = dir.join("header.tsv");
        let body = std::fs::read_to_string(&header).unwrap();
        std::fs::write(
            &header,
            body.replace(FROZEN_MODEL_FORMAT, "topmine-frozen-model/99"),
        )
        .unwrap();
        let err = FrozenModel::load(&dir).unwrap_err().to_string();
        assert!(err.contains("topmine-frozen-model/99"), "{err}");
        assert!(err.contains(FROZEN_MODEL_FORMAT), "{err}");
        // Header-less bundles are refused too.
        std::fs::write(&header, "n_topics\t2\n").unwrap();
        let err = FrozenModel::load(&dir).unwrap_err().to_string();
        assert!(err.contains("versioned header"), "{err}");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn corrupt_bundles_error_instead_of_panicking() {
        let dir = tmpdir("corrupt");
        let m = tiny_model();
        m.save(&dir).unwrap();
        std::fs::write(dir.join("lexicon.tsv"), "total_tokens\t10\n5\t1 x\n").unwrap();
        let err = FrozenModel::load(&dir).unwrap_err().to_string();
        assert!(err.contains("lexicon line 2"), "{err}");
        m.save(&dir).unwrap();
        std::fs::write(dir.join("phi.tsv"), "topic\tw0\n0\tnope\n").unwrap();
        assert!(FrozenModel::load(&dir).is_err());
        m.save(&dir).unwrap();
        std::fs::remove_file(dir.join("vocab.tsv")).unwrap();
        assert!(FrozenModel::load(&dir).is_err());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn overwriting_a_bundle_drops_stale_optional_files() {
        let dir = tmpdir("overwrite");
        // First bundle: stemmed + stopwords → writes both optional files.
        tiny_model().save(&dir).unwrap();
        assert!(dir.join("unstem.tsv").exists());
        assert!(dir.join("stopwords.txt").exists());
        // Second bundle into the same directory: raw preprocessing, so the
        // optional files must disappear, and the reload must reflect it.
        let texts: Vec<String> = (0..20).map(|i| format!("alpha beta gamma {i}")).collect();
        let mut builder = topmine_corpus::CorpusBuilder::new(CorpusOptions::raw());
        builder.add_documents(texts.iter().map(String::as_str));
        let corpus = builder.build();
        let (stats, seg) = Segmenter::with_params(3, 2.0).segment(&corpus);
        let grouped = GroupedDocs::from_segmentation(&corpus, &seg);
        let mut model = topmine_lda::PhraseLda::new(grouped, TopicModelConfig::new(2).with_seed(1));
        model.run(5);
        let raw = FrozenModel::freeze(&corpus, &stats, 2.0, &model, &CorpusOptions::raw());
        raw.save(&dir).unwrap();
        assert!(!dir.join("unstem.tsv").exists());
        assert!(!dir.join("stopwords.txt").exists());
        let loaded = FrozenModel::load(&dir).unwrap();
        assert!(loaded.unstem.is_none());
        assert!(loaded.preprocess.stopwords.is_empty());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn prepare_applies_frozen_preprocessing() {
        let m = tiny_model();
        let prepared = m.prepare("The support vector machines, for the data streams!");
        // Stop words removed, stems mapped through the frozen vocab; the
        // comma opens a new chunk.
        let words: Vec<&str> = prepared
            .doc
            .tokens
            .iter()
            .map(|&t| m.vocab.word(t))
            .collect();
        assert_eq!(words, vec!["support", "vector", "machin", "data", "stream"]);
        assert_eq!(prepared.doc.n_chunks(), 2);
        assert_eq!(prepared.n_oov, 0);
        // Unknown words are dropped and counted.
        let prepared = m.prepare("support quux vector");
        assert_eq!(prepared.n_oov, 1);
        assert_eq!(prepared.doc.n_tokens(), 2);
    }

    #[test]
    fn segment_finds_trained_phrases_in_unseen_text() {
        let m = tiny_model();
        let prepared = m.prepare("a study of support vector machines in practice");
        let spans = m.segment(&prepared.doc);
        // The trained collocation "support vector machin" segments as one
        // multi-word phrase.
        let svm: Vec<u32> = ["support", "vector", "machin"]
            .iter()
            .map(|w| m.vocab.id(w).unwrap())
            .collect();
        let found = spans
            .iter()
            .any(|&(s, e)| prepared.doc.tokens[s as usize..e as usize] == svm[..]);
        assert!(found, "spans: {spans:?}");
    }

    #[test]
    fn empty_text_prepares_to_empty_doc() {
        let m = tiny_model();
        let prepared = m.prepare("");
        assert!(prepared.doc.is_empty());
        assert!(m.segment(&prepared.doc).is_empty());
    }
}
