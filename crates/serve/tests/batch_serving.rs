//! The acceptance bar for batched serving: `/infer_batch` (and the
//! dispatcher's coalescing of queued `/infer` requests) must be
//! **bit-identical** to running each document through a sequential
//! `/infer` with the same per-index seeds — the shared φ gather is an
//! implementation detail, never an observable one. Plus the admission
//! pipeline's contract: per-document cache probes inside a batch, the
//! deadline path (`504`), and byte-parity between the epoll event loop
//! and the blocking fallback front end.

mod fleet_common;

use proptest::prelude::*;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use topmine_corpus::{corpus_from_texts, CorpusOptions, Document};
use topmine_lda::{GroupedDocs, PhraseLda, TopicModelConfig};
use topmine_phrase::Segmenter;
use topmine_serve::{
    batch_inference_json, infer_doc, inference_json, BackendError, FrontEnd, FrozenModel,
    GatherOptions, HttpServer, InferConfig, ModelBackend, ModelHeader, PreparedDoc,
    PreprocessConfig, QueryEngine, ServerConfig,
};

fn fitted_model() -> &'static FrozenModel {
    static MODEL: OnceLock<FrozenModel> = OnceLock::new();
    MODEL.get_or_init(|| {
        let texts: Vec<String> = (0..30)
            .flat_map(|i| {
                [
                    format!("mining frequent patterns in data streams {i}"),
                    format!("support vector machines for classification task {i}"),
                    format!("topic models for text corpora volume {i}"),
                ]
            })
            .collect();
        let corpus = corpus_from_texts(texts.iter().map(String::as_str));
        let (stats, seg) = Segmenter::with_params(5, 2.0).segment(&corpus);
        let grouped = GroupedDocs::from_segmentation(&corpus, &seg);
        let mut lda = PhraseLda::new(grouped, TopicModelConfig::new(3).with_seed(13));
        lda.run(30);
        FrozenModel::freeze(&corpus, &stats, 2.0, &lda, &CorpusOptions::default())
    })
}

const DOC_POOL: &[&str] = &[
    "support vector machines in the data streams",
    "a study of mining frequent patterns",
    "topic models, support vector machines",
    "completely unknown querywords here",
    "",
    "frequent patterns of topic models for classification",
];

/// One raw HTTP/1.1 request; returns (status, body).
fn request(addr: std::net::SocketAddr, head: &str, body: &str) -> (u16, String) {
    let (status, _headers, body) = request_full(addr, head, body);
    (status, body)
}

/// Like [`request`] but also returns the raw response head (for header
/// assertions).
fn request_full(addr: std::net::SocketAddr, head: &str, body: &str) -> (u16, String, String) {
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
    let (headers, payload) = response
        .split_once("\r\n\r\n")
        .map(|(h, b)| (h.to_string(), b.to_string()))
        .unwrap_or_default();
    (status, headers, payload)
}

// ----- bit-identity: batched ≡ sequential ----------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any (shard count, batch composition, seed, iters): the amortized
    /// batch path through the fleet router — one gather frame per shard
    /// for the whole batch — returns exactly what N sequential
    /// single-document inferences with per-index seeds return, through the
    /// router and through the in-memory model, at every batch size and
    /// every shard count.
    #[test]
    fn amortized_batch_equals_sequential_inference(
        shard_idx in 0usize..4,
        doc_idx in proptest::collection::vec(0usize..6, 0..6),
        seed in 0u64..1_000_000,
        fold_iters in 1usize..30,
    ) {
        let shards = [1usize, 2, 3, 7][shard_idx];
        let frozen = fitted_model();
        let (router, handles, dir) = fleet_common::fleet("batch", frozen, shards);
        let router: Arc<dyn ModelBackend> = Arc::new(router);
        let cfg = InferConfig { fold_iters, seed, top_topics: 3 };
        let docs: Vec<&str> = doc_idx.iter().map(|&i| DOC_POOL[i]).collect();
        // No response cache: every document must take the amortized path.
        let engine = QueryEngine::with_cache_capacity(Arc::clone(&router), 1, 0);
        let batched = engine.infer_batch(&docs, &cfg);
        let seeds = (0..docs.len()).map(|i| cfg.seed_for_index(i));
        let alone: Vec<_> = docs
            .iter()
            .zip(seeds.clone())
            .map(|(doc, s)| infer_doc(router.as_ref(), doc, &cfg, s))
            .collect();
        let in_memory: Vec<_> = docs
            .iter()
            .zip(seeds)
            .map(|(doc, s)| infer_doc(frozen, doc, &cfg, s))
            .collect();
        for handle in handles {
            handle.shutdown();
        }
        let _ = std::fs::remove_dir_all(dir);
        prop_assert_eq!(&batched, &alone);
        prop_assert_eq!(&alone, &in_memory);
    }
}

// ----- HTTP: /infer_batch ≡ N sequential /infer ----------------------------

#[test]
fn infer_batch_endpoint_is_byte_identical_to_sequential_infers() {
    let backend = Arc::new(fitted_model().clone());
    let engine = Arc::new(QueryEngine::new(backend.clone(), 1));
    let server = HttpServer::bind("127.0.0.1:0", engine, ServerConfig::default())
        .expect("bind")
        .spawn()
        .expect("spawn");

    let docs = [
        "support vector machines in the data streams",
        "a study of mining frequent patterns",
        "completely unknown querywords here",
        "topic models for the frequent patterns",
    ];
    let cfg = InferConfig {
        fold_iters: 25,
        seed: 42,
        top_topics: 3,
    };
    let body = docs.join("\n");
    let (status, batch_body) = request(
        server.addr(),
        "POST /infer_batch?seed=42&iters=25&top=3",
        &body,
    );
    assert_eq!(status, 200, "{batch_body}");

    // Byte-exact against per-document fold-in with per-index seeds.
    let expected: Vec<_> = docs
        .iter()
        .enumerate()
        .map(|(i, doc)| infer_doc(backend.as_ref(), doc, &cfg, cfg.seed_for_index(i)))
        .collect();
    assert_eq!(batch_body, batch_inference_json(&expected));

    // And each entry equals a standalone `/infer` pinned to that index's
    // seed — the batch wrapper is pure packaging.
    for (i, doc) in docs.iter().enumerate() {
        let (status, single) = request(
            server.addr(),
            &format!("POST /infer?seed={}&iters=25&top=3", cfg.seed_for_index(i)),
            doc,
        );
        assert_eq!(status, 200, "{single}");
        assert_eq!(single, inference_json(&expected[i]));
        assert!(batch_body.contains(&single), "entry {i} not embedded");
    }

    // Malformed batches are refused before admission.
    let (status, err) = request(server.addr(), "POST /infer_batch", "\n  \n");
    assert_eq!(status, 400, "{err}");
    assert!(err.contains("empty batch"), "{err}");

    server.shutdown();
}

// ----- batch cache semantics: per-document probes --------------------------

/// `(hits, misses)` parsed from the `/healthz` cache counters.
fn cache_counters(addr: std::net::SocketAddr) -> (u64, u64) {
    let (status, body) = request(addr, "GET /healthz", "");
    assert_eq!(status, 200, "{body}");
    let field = |key: &str| -> u64 {
        body.split_once(&format!("\"{key}\":"))
            .and_then(|(_, rest)| {
                rest.split(|c: char| !c.is_ascii_digit())
                    .next()?
                    .parse()
                    .ok()
            })
            .unwrap_or_else(|| panic!("no {key} in {body}"))
    };
    (field("hits"), field("misses"))
}

#[test]
fn batch_documents_probe_the_cache_individually() {
    let frozen = fitted_model();
    let engine = Arc::new(QueryEngine::new(Arc::new(frozen.clone()), 1));
    let server = HttpServer::bind("127.0.0.1:0", Arc::clone(&engine), ServerConfig::default())
        .expect("bind")
        .spawn()
        .expect("spawn");
    let addr = server.addr();

    let doc_x = "support vector machines in the data streams";
    let doc_y = "a study of mining frequent patterns";
    let cfg = InferConfig {
        seed: 5,
        ..InferConfig::default()
    };

    // Seed the cache with doc X through the single route.
    let (status, single_x) = request(addr, "POST /infer?seed=5", doc_x);
    assert_eq!(status, 200, "{single_x}");
    assert_eq!(cache_counters(addr), (0, 1));

    // A batch of [X, Y]: document 0 draws `seed_for_index(0)` == the
    // config seed, so it must HIT the entry the single request planted;
    // document 1 is a fresh miss folded in by the batch.
    let (status, batch) = request(
        addr,
        "POST /infer_batch?seed=5",
        &format!("{doc_x}\n{doc_y}"),
    );
    assert_eq!(status, 200, "{batch}");
    assert_eq!(cache_counters(addr), (1, 2), "mixed hit/miss batch");
    // Expected bodies computed off-engine (going through the engine here
    // would itself probe the cache and skew the counters under test).
    let expected = batch_inference_json(&[
        infer_doc(frozen, doc_x, &cfg, cfg.seed_for_index(0)),
        infer_doc(frozen, doc_y, &cfg, cfg.seed_for_index(1)),
    ]);
    assert_eq!(batch, expected);
    assert!(
        batch.contains(&single_x),
        "cached entry must be reused verbatim"
    );

    // The same batch again: every document hits, bodies stay identical.
    let (status, again) = request(
        addr,
        "POST /infer_batch?seed=5",
        &format!("{doc_x}\n{doc_y}"),
    );
    assert_eq!(status, 200);
    assert_eq!(again, batch);
    assert_eq!(cache_counters(addr), (3, 2), "all-hit batch");

    server.shutdown();
}

// ----- deadline expiry: 504 before dispatch --------------------------------

/// A backend whose φ gathers block until the test opens a gate, with an
/// arrivals counter so tests can wait until a dispatcher is provably
/// stuck inside inference.
struct GatedBackend {
    inner: Arc<FrozenModel>,
    state: Mutex<(usize, bool)>, // (arrivals, open)
    cv: Condvar,
}

impl GatedBackend {
    fn new(inner: Arc<FrozenModel>) -> Self {
        Self {
            inner,
            state: Mutex::new((0, false)),
            cv: Condvar::new(),
        }
    }

    fn arrive_and_wait(&self) {
        let mut state = self.state.lock().unwrap();
        state.0 += 1;
        self.cv.notify_all();
        while !state.1 {
            state = self.cv.wait(state).unwrap();
        }
    }

    /// Block until `n` gathers have arrived at the (closed) gate.
    fn wait_arrivals(&self, n: usize) {
        let mut state = self.state.lock().unwrap();
        while state.0 < n {
            state = self.cv.wait(state).unwrap();
        }
    }

    fn open(&self) {
        let mut state = self.state.lock().unwrap();
        state.1 = true;
        self.cv.notify_all();
    }
}

impl ModelBackend for GatedBackend {
    fn header(&self) -> &ModelHeader {
        self.inner.header()
    }
    fn preprocess(&self) -> &PreprocessConfig {
        ModelBackend::preprocess(self.inner.as_ref())
    }
    fn alpha(&self) -> &[f64] {
        ModelBackend::alpha(self.inner.as_ref())
    }
    fn format_tag(&self) -> &'static str {
        self.inner.format_tag()
    }
    fn n_lexicon_phrases(&self) -> usize {
        self.inner.n_lexicon_phrases()
    }
    fn prepare(&self, text: &str) -> PreparedDoc {
        self.inner.prepare(text)
    }
    fn segment(&self, doc: &Document) -> Vec<(u32, u32)> {
        ModelBackend::segment(self.inner.as_ref(), doc)
    }
    fn try_gather_phi(
        &self,
        words: &[u32],
        opts: &GatherOptions,
    ) -> Result<Vec<f64>, BackendError> {
        self.arrive_and_wait();
        self.inner.try_gather_phi(words, opts)
    }
    fn display_word(&self, id: u32) -> &str {
        self.inner.display_word(id)
    }
}

#[test]
fn requests_queued_past_their_deadline_get_504() {
    let backend = Arc::new(GatedBackend::new(Arc::new(fitted_model().clone())));
    // One dispatcher and max_batch=1: the second request cannot coalesce
    // with the first; it sits queued while the first blocks on the gate.
    let engine = Arc::new(QueryEngine::with_cache_capacity(
        Arc::clone(&backend) as Arc<dyn ModelBackend>,
        1,
        0,
    ));
    let server = HttpServer::bind(
        "127.0.0.1:0",
        engine,
        ServerConfig {
            n_threads: 1,
            max_batch: 1,
            ..ServerConfig::default()
        },
    )
    .expect("bind")
    .spawn()
    .expect("spawn");
    let addr = server.addr();

    let blocker =
        std::thread::spawn(move || request(addr, "POST /infer", "support vector machines"));
    // The dispatcher is now provably inside the gated gather, so the next
    // request can only wait in the admission queue.
    backend.wait_arrivals(1);
    let doomed = std::thread::spawn(move || {
        request(
            addr,
            "POST /infer?deadline_ms=50",
            "mining frequent patterns",
        )
    });
    std::thread::sleep(std::time::Duration::from_millis(150));
    backend.open();

    let (status, body) = blocker.join().unwrap();
    assert_eq!(status, 200, "{body}");
    let (status, body) = doomed.join().unwrap();
    assert_eq!(status, 504, "{body}");
    assert!(body.contains("deadline expired"), "{body}");

    server.shutdown();
}

// ----- front-end parity: event loop ≡ blocking -----------------------------

/// Send `body` to `head`, then half-close the connection (shut down the
/// write side) before reading; returns the response's status line.
fn half_closed_request(addr: std::net::SocketAddr, head: &str, body: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let message = format!(
        "{head} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(message.as_bytes()).unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(5)))
        .unwrap();
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .expect("read the response to a half-closed request");
    response.lines().next().unwrap_or_default().to_string()
}

#[test]
fn blocking_front_end_serves_byte_identical_responses() {
    let frozen = fitted_model();
    let front_ends = [FrontEnd::EventLoop, FrontEnd::Blocking];
    let servers: Vec<_> = front_ends
        .into_iter()
        .map(|front_end| {
            let engine = Arc::new(QueryEngine::new(Arc::new(frozen.clone()), 1));
            HttpServer::bind(
                "127.0.0.1:0",
                engine,
                ServerConfig {
                    front_end,
                    ..ServerConfig::default()
                },
            )
            .expect("bind")
            .spawn()
            .expect("spawn")
        })
        .collect();

    let doc = "support vector machines for the data streams";
    let batch = "support vector machines\nmining frequent patterns\n";
    for (head, body) in [
        ("GET /model", ""),
        ("POST /infer?seed=42&iters=25", doc),
        ("POST /infer_batch?seed=42&iters=25", batch),
        ("POST /infer?bogus=1", doc),
        ("GET /nowhere", ""),
    ] {
        let responses: Vec<_> = servers
            .iter()
            .map(|s| request(s.addr(), head, body))
            .collect();
        assert_eq!(
            responses[0], responses[1],
            "front ends diverged on {head:?}"
        );
    }
    // A client that half-closes right after sending its request still
    // gets the full answer from each front end.
    for (front_end, server) in front_ends.iter().zip(&servers) {
        assert_eq!(
            half_closed_request(server.addr(), "POST /infer?seed=42&iters=25", doc),
            "HTTP/1.1 200 OK",
            "{front_end:?} front end on a half-closed connection"
        );
    }
    for server in servers {
        server.shutdown();
    }
}
