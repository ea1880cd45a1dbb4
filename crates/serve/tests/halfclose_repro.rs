//! Half-closed clients: a client that shuts down its write side right
//! after sending a request must still get the full answer, and the epoll
//! event loop must answer it exactly as the blocking front end does.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use topmine_corpus::{corpus_from_texts, CorpusOptions};
use topmine_lda::{GroupedDocs, PhraseLda, TopicModelConfig};
use topmine_phrase::Segmenter;
use topmine_serve::{FrontEnd, FrozenModel, HttpServer, QueryEngine, ServerConfig};

fn fitted_model() -> FrozenModel {
    let texts: Vec<String> = (0..30)
        .flat_map(|i| {
            [
                format!("mining frequent patterns in data streams {i}"),
                format!("support vector machines for classification {i}"),
            ]
        })
        .collect();
    let corpus = corpus_from_texts(texts.iter().map(String::as_str));
    let (stats, seg) = Segmenter::with_params(5, 2.0).segment(&corpus);
    let grouped = GroupedDocs::from_segmentation(&corpus, &seg);
    let mut lda = PhraseLda::new(grouped, TopicModelConfig::new(2).with_seed(3));
    lda.run(30);
    FrozenModel::freeze(&corpus, &stats, 2.0, &lda, &CorpusOptions::default())
}

fn half_close_request(front_end: FrontEnd) -> Option<String> {
    let engine = Arc::new(QueryEngine::new(Arc::new(fitted_model()), 1));
    let server = HttpServer::bind(
        "127.0.0.1:0",
        engine,
        ServerConfig {
            front_end,
            ..ServerConfig::default()
        },
    )
    .unwrap()
    .spawn()
    .unwrap();
    let addr = server.addr();
    let body = "support vector machines";
    let msg = format!(
        "POST /infer HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(msg.as_bytes()).unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(5)))
        .unwrap();
    let mut response = String::new();
    let got = stream.read_to_string(&mut response);
    server.shutdown();
    match got {
        Ok(0) => None,
        Ok(_) => Some(response.lines().next().unwrap_or("").to_string()),
        Err(e) => Some(format!("read error: {e}")),
    }
}

#[test]
fn half_close_blocking_vs_event_loop() {
    let blocking = half_close_request(FrontEnd::Blocking);
    println!("blocking front end: {blocking:?}");
    let event_loop = half_close_request(FrontEnd::EventLoop);
    println!("event loop front end: {event_loop:?}");
    assert_eq!(blocking, event_loop, "front ends diverge on half-close");
    assert_eq!(blocking.as_deref(), Some("HTTP/1.1 200 OK"));
}
