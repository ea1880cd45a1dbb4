//! Topical coherence (paper §7.2, Figure 4): "homogeneity of a topical
//! phrase list's thematic structure", rated 1-10 by experts in the paper.
//! The automatic surrogate is mean pairwise document-NPMI over the list's
//! top phrases — the standard coherence proxy — fed through the simulated
//! expert panel's z-score protocol ([`crate::raters`]).

use crate::cooccur::{phrase_ids, CooccurrenceIndex};
use topmine_corpus::Corpus;
use topmine_lda::TopicSummary;

/// Raw coherence of one topic's phrase list: mean pairwise NPMI over its
/// top-`n` phrases (unigrams count too when the list has few phrases —
/// experts rated the full visualized list).
pub fn topic_coherence(
    corpus: &Corpus,
    index: &CooccurrenceIndex,
    summary: &TopicSummary,
    top_n: usize,
) -> f64 {
    let mut items: Vec<Vec<u32>> = summary
        .top_phrases
        .iter()
        .take(top_n)
        .filter_map(|(p, _)| phrase_ids(corpus, p))
        .collect();
    if items.len() < top_n {
        items.extend(
            summary
                .top_unigrams
                .iter()
                .take(top_n - items.len())
                .filter_map(|(w, _)| phrase_ids(corpus, w)),
        );
    }
    index.mean_pairwise_npmi(corpus, &items)
}

/// Per-topic raw coherence scores for one method.
pub fn method_coherence(
    corpus: &Corpus,
    index: &CooccurrenceIndex,
    summaries: &[TopicSummary],
    top_n: usize,
) -> Vec<f64> {
    summaries
        .iter()
        .map(|s| topic_coherence(corpus, index, s, top_n))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use topmine_corpus::{Document, Vocab};

    fn setup() -> (Corpus, CooccurrenceIndex) {
        let mut vocab = Vocab::new();
        for w in ["a0", "a1", "a2", "b0", "b1", "b2"] {
            vocab.intern(w);
        }
        let mut docs = Vec::new();
        for i in 0..40 {
            if i % 2 == 0 {
                docs.push(Document::single_chunk(vec![0, 1, 2]));
            } else {
                docs.push(Document::single_chunk(vec![3, 4, 5]));
            }
        }
        let corpus = Corpus {
            vocab,
            docs,
            provenance: None,
            unstem: None,
        };
        let index = CooccurrenceIndex::new(&corpus);
        (corpus, index)
    }

    fn summary(phrases: &[&str]) -> TopicSummary {
        TopicSummary {
            topic: 0,
            top_unigrams: vec![],
            top_phrases: phrases.iter().map(|p| (p.to_string(), 5u64)).collect(),
        }
    }

    #[test]
    fn homogeneous_list_beats_mixed_list() {
        let (corpus, index) = setup();
        let coherent = topic_coherence(&corpus, &index, &summary(&["a0 a1", "a1 a2", "a0"]), 10);
        let mixed = topic_coherence(&corpus, &index, &summary(&["a0 a1", "b0 b1", "a2"]), 10);
        assert!(
            coherent > mixed,
            "coherent {coherent} should beat mixed {mixed}"
        );
    }

    #[test]
    fn falls_back_to_unigrams_when_few_phrases() {
        let (corpus, index) = setup();
        let mut s = summary(&["a0 a1"]);
        s.top_unigrams = vec![("a2".into(), 0.5), ("a0".into(), 0.4)];
        let c = topic_coherence(&corpus, &index, &s, 10);
        assert!(c > 0.0, "coherence {c}");
    }

    #[test]
    fn unknown_words_are_skipped_not_fatal() {
        let (corpus, index) = setup();
        let c = topic_coherence(
            &corpus,
            &index,
            &summary(&["a0 a1", "nonexistent word", "a1 a2"]),
            10,
        );
        assert!(c.is_finite());
    }

    #[test]
    fn method_level_scores_one_per_topic() {
        let (corpus, index) = setup();
        let methods = vec![summary(&["a0 a1", "a1 a2"]), summary(&["b0 b1", "b1 b2"])];
        let scores = method_coherence(&corpus, &index, &methods, 10);
        assert_eq!(scores.len(), 2);
    }
}
