//! The `ModelBackend` seam: everything below the HTTP layer talks to a
//! fitted model through this trait, so the serving stack is agnostic to
//! where the model lives — in this process's memory as one
//! [`FrozenModel`](crate::FrozenModel) (loaded from either bundle layout),
//! or behind the fleet router
//! [`RemoteShardedModel`](crate::RemoteShardedModel), whose φ lives in
//! vocabulary-range shard processes in the parameter-server style
//! (LightLDA's vocabulary-sliced workers are the reference design).
//!
//! The contract is the three things fold-in inference needs:
//!
//! 1. the **preprocessing contract** ([`ModelBackend::prepare`]) — unseen
//!    text normalized exactly as training text was;
//! 2. the **lexicon** ([`ModelBackend::segment`]) — Algorithm 2 against
//!    the frozen phrase counts;
//! 3. **φ access** ([`ModelBackend::try_gather_phi`]) — fetch the φ
//!    columns for a set of words, wherever they live, as one dense
//!    topic-major table. A backend implements this one gather; a single
//!    document's words and a whole dispatch batch's union go through it
//!    alike.
//!
//! Every implementation must be *bit-identical* to every other for the
//! same fitted model: the gather returns the exact trained `f64`s and
//! `segment` the exact trained counts, so
//! [`infer_doc`](crate::infer::infer_doc) produces the same θ, ranking,
//! and annotations whatever the backend or shard count.

use crate::frozen::{FrozenModel, ModelHeader, PreparedDoc, PreprocessConfig};
use std::fmt;
use std::hash::Hasher;
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use topmine_corpus::Document;

/// Why a φ gather against a remote backend failed. In-memory backends
/// never construct one; the router maps each variant to an HTTP status
/// (`Timeout` → 504, everything else → 503).
#[derive(Debug, Clone)]
pub enum BackendError {
    /// The shard is down (connect refused, circuit open, retries spent).
    ShardUnavailable {
        shard: usize,
        addr: String,
        detail: String,
    },
    /// The request deadline (or the per-RPC timeout) expired first.
    Timeout { shard: usize, addr: String },
    /// The shard answered, but with bytes that violate the wire protocol
    /// or the handshake contract. Not retryable: the peer is the wrong
    /// model or the wrong software, and retrying can't fix either.
    Protocol {
        shard: usize,
        addr: String,
        detail: String,
    },
}

impl BackendError {
    /// HTTP status the serving layer reports this failure as.
    pub fn http_status(&self) -> u16 {
        match self {
            BackendError::Timeout { .. } => 504,
            _ => 503,
        }
    }
}

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendError::ShardUnavailable {
                shard,
                addr,
                detail,
            } => {
                write!(f, "shard {shard} ({addr}) unavailable: {detail}")
            }
            BackendError::Timeout { shard, addr } => {
                write!(f, "shard {shard} ({addr}) deadline expired")
            }
            BackendError::Protocol {
                shard,
                addr,
                detail,
            } => {
                write!(f, "shard {shard} ({addr}) protocol error: {detail}")
            }
        }
    }
}

impl std::error::Error for BackendError {}

/// Caller-side context for a φ gather — today just the request deadline,
/// which a remote backend propagates into its RPC timeouts so a stalled
/// shard fails the request instead of hanging it.
#[derive(Debug, Clone, Copy, Default)]
pub struct GatherOptions {
    /// Absolute deadline inherited from `?deadline_ms=`; `None` means the
    /// backend's own per-RPC timeout is the only bound.
    pub deadline: Option<Instant>,
}

/// Read access to a fitted, frozen ToPMine model, however it is stored.
///
/// Object-safe on purpose: the [`QueryEngine`](crate::QueryEngine) and the
/// HTTP layer hold an `Arc<dyn ModelBackend>` and never know which
/// implementation is behind it.
pub trait ModelBackend: Send + Sync {
    /// Bundle metadata (topic/vocabulary shapes, training-corpus sizes,
    /// segmentation threshold, β).
    fn header(&self) -> &ModelHeader;

    /// The preprocessing contract unseen text is held to.
    fn preprocess(&self) -> &PreprocessConfig;

    /// Asymmetric document-topic Dirichlet α, length `n_topics`.
    fn alpha(&self) -> &[f64];

    /// The on-disk format tag this backend was (or would be) persisted as.
    fn format_tag(&self) -> &'static str;

    /// How many vocabulary-range shards compose this backend (1 for an
    /// in-memory model, whichever layout it was loaded from).
    fn n_shards(&self) -> usize {
        1
    }

    /// Total stored phrases across all shards of the lexicon.
    fn n_lexicon_phrases(&self) -> usize;

    /// Normalize unseen text with the frozen preprocessing contract and
    /// map it through the frozen vocabulary.
    fn prepare(&self, text: &str) -> PreparedDoc;

    /// Segment a prepared document against the frozen lexicon (Algorithm 2
    /// with the trained counts and threshold).
    fn segment(&self, doc: &Document) -> Vec<(u32, u32)>;

    /// The φ gather: entry `(t, j)` of the returned `n_topics ×
    /// words.len()` row-major matrix is the trained `φ[t][words[j]]`,
    /// bit-exact. `words` may be one document's distinct words or a whole
    /// dispatch batch's union. A remote backend surfaces shard failures as
    /// a [`BackendError`]; the in-memory one never fails.
    fn try_gather_phi(&self, words: &[u32], opts: &GatherOptions)
        -> Result<Vec<f64>, BackendError>;

    /// Infallible [`try_gather_phi`](ModelBackend::try_gather_phi) with
    /// no deadline, for callers outside the serving path (benchmarks
    /// gathering a batch union of words); panics if a remote backend
    /// fails.
    fn gather_phi_batch(&self, words: &[u32]) -> Vec<f64> {
        self.try_gather_phi(words, &GatherOptions::default())
            .unwrap_or_else(|e| panic!("phi gather failed: {e}"))
    }

    /// Per-shard fleet health as a JSON array, when this backend fronts
    /// remote shard processes (`None` for in-memory backends). Rendered
    /// into the router's `/healthz` body.
    fn fleet_status_json(&self) -> Option<String> {
        None
    }

    /// Preferred display string for one word id (unstemmed when the bundle
    /// carries a surface table).
    fn display_word(&self, id: u32) -> &str;

    /// Render a phrase of word ids for display.
    fn display_phrase(&self, ids: &[u32]) -> String {
        let mut s = String::new();
        for (i, &id) in ids.iter().enumerate() {
            if i > 0 {
                s.push(' ');
            }
            s.push_str(self.display_word(id));
        }
        s
    }

    fn n_topics(&self) -> usize {
        self.header().n_topics
    }

    fn vocab_size(&self) -> usize {
        self.header().vocab_size
    }

    /// Stable fingerprint of the loaded bundle, used to key the response
    /// cache: two backends serving the same fitted model from the same
    /// artifact version hash equally only if their headers, α, and lexicon
    /// sizes agree, which is all one engine ever compares (its model never
    /// changes after load).
    fn fingerprint(&self) -> u64 {
        let mut h = topmine_util::FxHasher::default();
        let hd = self.header();
        h.write_u64(hd.n_topics as u64);
        h.write_u64(hd.vocab_size as u64);
        h.write_u64(hd.n_docs as u64);
        h.write_u64(hd.n_tokens);
        h.write_u64(hd.seg_alpha.to_bits());
        h.write_u64(hd.beta.to_bits());
        h.write_u64(self.n_lexicon_phrases() as u64);
        for &a in self.alpha() {
            h.write_u64(a.to_bits());
        }
        h.finish()
    }
}

/// Load a serving bundle from `dir` into memory, whichever layout it
/// holds ([`FrozenModel::load`]): a sharded bundle is put back together
/// into one model, so it reports one shard and
/// [`FROZEN_MODEL_FORMAT`](crate::FROZEN_MODEL_FORMAT). Only the fleet
/// router ([`RemoteShardedModel`](crate::RemoteShardedModel)) serves the
/// shards apart.
pub fn load_bundle(dir: &Path) -> io::Result<Arc<dyn ModelBackend>> {
    Ok(Arc::new(FrozenModel::load(dir)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frozen::tests::tiny_model;
    use crate::ShardedModel;

    #[test]
    fn fingerprint_is_stable_and_shape_sensitive() {
        let m = tiny_model();
        let a = ModelBackend::fingerprint(&m);
        assert_eq!(a, ModelBackend::fingerprint(&m));
        let mut other = tiny_model();
        other.header.n_docs += 1;
        assert_ne!(a, ModelBackend::fingerprint(&other));
    }

    #[test]
    fn load_bundle_detects_both_layouts() {
        let dir = std::env::temp_dir().join(format!("topmine-backend-load-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let m = tiny_model();
        m.save(&dir).unwrap();
        let backend = load_bundle(&dir).unwrap();
        assert_eq!(backend.format_tag(), crate::FROZEN_MODEL_FORMAT);
        assert_eq!(backend.n_shards(), 1);
        let fingerprint = backend.fingerprint();
        ShardedModel::from_frozen(&m, 2)
            .unwrap()
            .save(&dir)
            .unwrap();
        // A sharded bundle loads back into the same in-memory model: one
        // shard, the frozen tag, the same response-cache key space.
        let backend = load_bundle(&dir).unwrap();
        assert_eq!(backend.format_tag(), crate::FROZEN_MODEL_FORMAT);
        assert_eq!(backend.n_shards(), 1);
        assert_eq!(backend.fingerprint(), fingerprint);
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(load_bundle(&dir).is_err());
    }
}
