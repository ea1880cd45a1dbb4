//! The sharded layout is the fleet's on-disk form; a process serving it
//! from its own memory puts the shards back together into one
//! `FrozenModel`. The acceptance bar: `ShardedModel::from_frozen(n)` +
//! `save`, read back through `load_bundle`, gives a model equal field by
//! field to the source at every shard count — with more shards than words,
//! with stemming, with stop words — which then serves over HTTP
//! byte-identically to the monolith. Plus the layout's disk story:
//! re-saving with fewer shards cleans the stale ones.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use topmine_corpus::{CorpusBuilder, CorpusOptions};
use topmine_lda::{GroupedDocs, PhraseLda, TopicModelConfig};
use topmine_phrase::Segmenter;
use topmine_serve::{
    infer_doc, load_bundle, FrozenModel, HttpServer, InferConfig, ModelBackend, QueryEngine,
    ServerConfig, ShardedModel, FROZEN_MODEL_FORMAT,
};

/// Fit a small model on `texts` with the given preprocessing.
fn fit(texts: &[String], options: CorpusOptions, seed: u64) -> FrozenModel {
    let mut builder = CorpusBuilder::new(options.clone());
    builder.add_documents(texts.iter().map(String::as_str));
    let corpus = builder.build();
    let (stats, seg) = Segmenter::with_params(5, 2.0).segment(&corpus);
    let grouped = GroupedDocs::from_segmentation(&corpus, &seg);
    let mut lda = PhraseLda::new(grouped, TopicModelConfig::new(3).with_seed(seed));
    lda.run(30);
    FrozenModel::freeze(&corpus, &stats, 2.0, &lda, &options)
}

fn corpus_texts() -> Vec<String> {
    (0..30)
        .flat_map(|i| {
            [
                format!("mining frequent patterns in the data streams {i}"),
                format!("support vector machines for a classification task {i}"),
                format!("topic models for text corpora volume {i}"),
            ]
        })
        .collect()
}

fn fitted_model(seed: u64) -> FrozenModel {
    fit(&corpus_texts(), CorpusOptions::default(), seed)
}

/// The preprocessing variants every layout test covers: stemming and stop
/// words each on and off, plus a three-word vocabulary that seven shards
/// outnumber.
fn model_variants() -> Vec<(&'static str, FrozenModel)> {
    let with = |stem: bool, remove_stopwords: bool| CorpusOptions {
        stem,
        remove_stopwords,
        ..CorpusOptions::default()
    };
    let tiny: Vec<String> = (0..20).map(|_| "alpha beta gamma".to_string()).collect();
    vec![
        ("stem+stopwords", fit(&corpus_texts(), with(true, true), 3)),
        ("stem only", fit(&corpus_texts(), with(true, false), 4)),
        ("stopwords only", fit(&corpus_texts(), with(false, true), 5)),
        ("raw", fit(&corpus_texts(), CorpusOptions::raw(), 6)),
        ("three words", fit(&tiny, CorpusOptions::raw(), 7)),
    ]
}

const QUERIES: &[&str] = &[
    "support vector machines in the data streams",
    "a study of mining frequent patterns",
    "topic models, support vector machines",
    "completely unknown querywords here",
    "",
];

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "topmine-sharded-equiv-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every persisted field of `b` equals `a`'s: vocabulary, unstem table,
/// lexicon, φ bit for bit, α, header, preprocessing and stop words.
fn assert_same_model(a: &FrozenModel, b: &FrozenModel, what: &str) {
    assert_eq!(a.header, b.header, "{what}: header");
    assert_eq!(a.preprocess, b.preprocess, "{what}: preprocessing");
    assert_eq!(
        a.vocab.iter().collect::<Vec<_>>(),
        b.vocab.iter().collect::<Vec<_>>(),
        "{what}: vocab"
    );
    assert_eq!(a.unstem, b.unstem, "{what}: unstem");
    assert_eq!(a.lexicon, b.lexicon, "{what}: lexicon");
    let bits = |m: &FrozenModel| -> Vec<Vec<u64>> {
        m.phi
            .iter()
            .map(|row| row.iter().map(|x| x.to_bits()).collect())
            .collect()
    };
    assert_eq!(bits(a), bits(b), "{what}: phi");
    assert_eq!(
        a.alpha.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
        b.alpha.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
        "{what}: alpha"
    );
}

#[test]
fn sharded_equals_monolithic() {
    let dir = tmpdir("fields");
    let variants = model_variants();
    assert!(variants[0].1.unstem.is_some() && !variants[0].1.preprocess.stopwords.is_empty());
    assert!(variants[1].1.unstem.is_some() && variants[1].1.preprocess.stopwords.is_empty());
    assert!(variants[2].1.unstem.is_none() && !variants[2].1.preprocess.stopwords.is_empty());
    assert!(variants[4].1.vocab_size() < 7);
    for (name, frozen) in &variants {
        for shards in [1usize, 2, 3, 7] {
            ShardedModel::from_frozen(frozen, shards)
                .unwrap()
                .save(&dir)
                .unwrap();
            let what = format!("{name}, {shards} shards");
            let backend = load_bundle(&dir).unwrap();
            assert_eq!(backend.format_tag(), FROZEN_MODEL_FORMAT, "{what}");
            assert_eq!(backend.n_shards(), 1, "{what}");
            assert_eq!(backend.fingerprint(), frozen.fingerprint(), "{what}");
            assert_same_model(frozen, &FrozenModel::load(&dir).unwrap(), &what);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sharded_inference_is_bit_identical_across_shard_counts() {
    let frozen = fitted_model(9);
    let dir = tmpdir("infer");
    for shards in [1usize, 2, 3, 7] {
        ShardedModel::from_frozen(&frozen, shards)
            .unwrap()
            .save(&dir)
            .unwrap();
        let loaded = load_bundle(&dir).unwrap();
        for (i, text) in QUERIES.iter().enumerate() {
            for seed in [1u64, 7, 123456789] {
                let cfg = InferConfig {
                    fold_iters: 15 + i,
                    seed,
                    top_topics: 1 + i % 3,
                };
                assert_eq!(
                    frozen.infer(text, &cfg),
                    infer_doc(loaded.as_ref(), text, &cfg, seed),
                    "shards={shards} text={text:?} seed={seed}"
                );
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sharded_bundle_roundtrips_and_resave_cleans_stale_shards() {
    let dir = tmpdir("rt");
    let frozen = fitted_model(17);
    ShardedModel::from_frozen(&frozen, 7)
        .unwrap()
        .save(&dir)
        .unwrap();
    assert!(dir.join("shard-6").exists());
    // Re-save with fewer shards: stale shard directories must disappear
    // and the loader must see exactly the new bundle.
    ShardedModel::from_frozen(&frozen, 2)
        .unwrap()
        .save(&dir)
        .unwrap();
    for stale in 2..7 {
        assert!(!dir.join(format!("shard-{stale}")).exists());
    }
    let manifest = std::fs::read_to_string(dir.join("manifest.tsv")).unwrap();
    assert!(manifest.contains("n_shards\t2"), "{manifest}");
    assert_same_model(&frozen, &FrozenModel::load(&dir).unwrap(), "resaved");
    let _ = std::fs::remove_dir_all(&dir);
}

/// One raw HTTP/1.1 request; returns (status, body).
fn request(addr: std::net::SocketAddr, head: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let message = format!(
        "{head} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(message.as_bytes()).unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let payload = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, payload)
}

#[test]
fn sharded_bundle_serves_over_http_end_to_end() {
    let dir = tmpdir("http");
    let frozen = fitted_model(19);
    ShardedModel::from_frozen(&frozen, 3)
        .unwrap()
        .save(&dir)
        .unwrap();
    let backend = load_bundle(&dir).unwrap();

    let sharded_engine = Arc::new(QueryEngine::new(backend, 2));
    let sharded_server = HttpServer::bind("127.0.0.1:0", sharded_engine, ServerConfig::default())
        .expect("bind")
        .spawn()
        .expect("spawn");
    let frozen_engine = Arc::new(QueryEngine::new(Arc::new(frozen), 2));
    let frozen_server = HttpServer::bind("127.0.0.1:0", frozen_engine, ServerConfig::default())
        .expect("bind")
        .spawn()
        .expect("spawn");

    // Put back together in memory, the bundle is one frozen model.
    let (status, health) = request(sharded_server.addr(), "GET /healthz", "");
    assert_eq!(status, 200, "{health}");
    assert!(health.contains("\"shards\":1"), "{health}");
    assert!(health.contains(FROZEN_MODEL_FORMAT), "{health}");
    assert!(health.contains("\"cache\""), "{health}");

    // Identical queries against both servers produce byte-identical
    // inference bodies.
    let doc = "support vector machines for the data streams";
    let (status_a, body_a) = request(sharded_server.addr(), "POST /infer?seed=42&iters=25", doc);
    let (status_b, body_b) = request(frozen_server.addr(), "POST /infer?seed=42&iters=25", doc);
    assert_eq!((status_a, status_b), (200, 200), "{body_a} {body_b}");
    assert_eq!(body_a, body_b, "sharded and monolithic bodies diverged");
    assert!(body_a.contains("\"theta\""), "{body_a}");
    let batch = QUERIES[..4].join("\n");
    let (status_a, body_a) = request(sharded_server.addr(), "POST /infer_batch?seed=3", &batch);
    let (status_b, body_b) = request(frozen_server.addr(), "POST /infer_batch?seed=3", &batch);
    assert_eq!((status_a, status_b), (200, 200), "{body_a} {body_b}");
    assert_eq!(
        body_a, body_b,
        "sharded and monolithic batch bodies diverged"
    );

    sharded_server.shutdown();
    frozen_server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
