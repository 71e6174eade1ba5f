//! Behavioral pins of the daemon: reply streams are byte-identical at
//! every `--shard-workers` width, a snapshot/restore cycle continues
//! bit-identically to an uninterrupted run, full queues answer `Busy`
//! with the configured retry hint, incompatible or truncated snapshots
//! are refused at startup, and over TCP each reply reaches a client
//! that waits for it before sending more.

use std::io::{self, BufReader, BufWriter, Cursor, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::mpsc::{self, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::Duration;

use dcn_flow::workload::UniformWorkload;
use dcn_server::{
    encode_frame, read_frame, Request, RequestBody, Response, ResponseBody, ServeOutcome,
    ServePolicy, Server, ServerConfig, ServerError, SnapshotFile, SubmitFlow, TopologySpec,
};
use dcn_topology::GraphCsr;

fn config() -> ServerConfig {
    ServerConfig::new(TopologySpec::FatTree { k: 4 })
}

/// A deterministic request stream: `n` submissions from the paper's
/// uniform workload in release order, a query after every fifth.
fn canned_requests(n: usize, seed: u64) -> Vec<Request> {
    let built = TopologySpec::FatTree { k: 4 }.build();
    let flows = UniformWorkload::paper_defaults(n, seed)
        .generate(&built.hosts)
        .expect("workload generates");
    let mut flows: Vec<_> = flows.iter().cloned().collect();
    flows.sort_by(|a, b| {
        a.release
            .partial_cmp(&b.release)
            .expect("finite times")
            .then(a.id.cmp(&b.id))
    });
    let mut requests = Vec::new();
    for (submitted, flow) in flows.iter().enumerate() {
        requests.push(Request::new(
            requests.len() as u64,
            RequestBody::SubmitFlow(SubmitFlow {
                src: flow.src.0,
                dst: flow.dst.0,
                release: flow.release,
                deadline: flow.deadline,
                volume: flow.volume,
            }),
        ));
        if (submitted + 1) % 5 == 0 {
            requests.push(Request::new(
                requests.len() as u64,
                RequestBody::QueryFlow {
                    flow: submitted as u64,
                },
            ));
        }
    }
    requests
}

fn to_stream(requests: &[Request]) -> Vec<u8> {
    let mut stream = Vec::new();
    for request in requests {
        stream.extend_from_slice(&encode_frame(request));
    }
    stream
}

/// Runs one connection over `stream` against a fresh server of `config`.
fn serve(config: ServerConfig, stream: &[u8]) -> Vec<u8> {
    let mut server = Server::start(config).expect("server starts");
    let mut reader = Cursor::new(stream.to_vec());
    let mut replies = Vec::new();
    server
        .serve_connection(&mut reader, &mut replies)
        .expect("in-memory write cannot fail");
    server.shutdown();
    replies
}

fn parse_replies(bytes: &[u8]) -> Vec<Response> {
    let mut reader = Cursor::new(bytes.to_vec());
    let mut replies = Vec::new();
    while let Some(payload) = read_frame(&mut reader).expect("well-formed reply frames") {
        let text = std::str::from_utf8(&payload).expect("UTF-8 replies");
        replies.push(serde_json::from_str(text).expect("valid Response"));
    }
    replies
}

/// The client end of one loopback TCP connection served by
/// [`Server::serve_connection`] on a background thread.
struct TcpClient {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    server: JoinHandle<std::io::Result<ServeOutcome>>,
}

impl TcpClient {
    /// Starts a server of `config` behind a fresh loopback port and
    /// connects to it. Every read waits at most two seconds.
    fn connect(config: ServerConfig) -> Self {
        let listener = TcpListener::bind("127.0.0.1:0").expect("loopback port");
        let addr = listener.local_addr().expect("bound address");
        let server = std::thread::spawn(move || {
            let mut server = Server::start(config).expect("server starts");
            let (stream, _) = listener.accept().expect("client connects");
            let mut reader = BufReader::new(stream.try_clone().expect("socket clones"));
            let mut writer = BufWriter::new(stream);
            let outcome = server.serve_connection(&mut reader, &mut writer);
            server.shutdown();
            outcome
        });
        let stream = TcpStream::connect(addr).expect("connects to the server");
        stream
            .set_read_timeout(Some(Duration::from_secs(2)))
            .expect("read timeout");
        let reader = BufReader::new(stream.try_clone().expect("socket clones"));
        Self {
            stream,
            reader,
            server,
        }
    }

    fn send(&mut self, requests: &[Request]) {
        self.stream
            .write_all(&to_stream(requests))
            .expect("request frames are sent");
    }

    /// The next reply, or `None` at end of stream; panics when none
    /// arrives within the read timeout.
    fn recv(&mut self) -> Option<Response> {
        let payload = read_frame(&mut self.reader).expect("a reply within the read timeout")?;
        let text = std::str::from_utf8(&payload).expect("UTF-8 replies");
        Some(serde_json::from_str(text).expect("valid Response"))
    }

    /// Waits for the server thread and returns how the connection ended.
    fn finish(self) -> ServeOutcome {
        self.server
            .join()
            .expect("server thread does not panic")
            .expect("replies are written")
    }
}

/// A writer whose peer is gone; it reports each failed write.
struct BrokenPipe(Sender<()>);

impl Write for BrokenPipe {
    fn write(&mut self, _: &[u8]) -> io::Result<usize> {
        let _ = self.0.send(());
        Err(io::ErrorKind::BrokenPipe.into())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// A request stream that ends only after the writer failed, so the
/// router's end marker reaches a mux that has already stopped.
struct EndAfterFailure {
    data: Cursor<Vec<u8>>,
    failed: Receiver<()>,
}

impl Read for EndAfterFailure {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.data.read(buf)?;
        if n == 0 {
            let _ = self.failed.recv();
        }
        Ok(n)
    }
}

fn temp_path(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("dcn-serve-test-{name}-{}", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

#[test]
fn replies_are_byte_identical_at_every_worker_width() {
    let stream = to_stream(&canned_requests(40, 11));
    let baseline = serve(config(), &stream);
    assert!(!baseline.is_empty());
    for workers in [2, 3, 5, 8] {
        let mut wide = config();
        wide.shard_workers = workers;
        assert_eq!(
            serve(wide, &stream),
            baseline,
            "reply stream diverged at {workers} workers"
        );
    }
}

#[test]
fn policies_differ_but_each_is_width_invariant() {
    let stream = to_stream(&canned_requests(25, 3));
    for policy in [ServePolicy::Edf, ServePolicy::Greedy, ServePolicy::Resolve] {
        let mut narrow = config();
        narrow.policy = policy;
        let mut wide = narrow.clone();
        wide.shard_workers = 4;
        assert_eq!(
            serve(narrow, &stream),
            serve(wide, &stream),
            "{} diverged across widths",
            policy.name()
        );
    }
}

#[test]
fn snapshot_restore_continues_bit_identically() {
    let requests = canned_requests(40, 17);
    let split = requests.len() / 2;
    let snapshot_path = temp_path("roundtrip");

    // The uninterrupted reference run.
    let mut reference = Server::start(config()).expect("server starts");
    let full: Vec<Vec<u8>> = requests
        .iter()
        .map(|r| encode_frame(&reference.request(r.clone())))
        .collect();
    reference.shutdown();

    // First half, snapshot, kill.
    let mut cfg = config();
    cfg.snapshot_path = Some(snapshot_path.clone());
    let mut first = Server::start(cfg.clone()).expect("server starts");
    let head: Vec<Vec<u8>> = requests[..split]
        .iter()
        .map(|r| encode_frame(&first.request(r.clone())))
        .collect();
    let done = first.request(Request::new(9_000, RequestBody::Snapshot));
    assert!(
        matches!(done.body, ResponseBody::SnapshotDone { .. }),
        "snapshot failed: {done:?}"
    );
    first.shutdown();

    // Restart from the snapshot and serve the second half.
    let mut second = Server::start(cfg).expect("server restores");
    let tail: Vec<Vec<u8>> = requests[split..]
        .iter()
        .map(|r| encode_frame(&second.request(r.clone())))
        .collect();
    second.shutdown();

    assert_eq!(
        head,
        full[..split].to_vec(),
        "pre-snapshot replies diverged"
    );
    assert_eq!(
        tail,
        full[split..].to_vec(),
        "post-restore replies diverged"
    );
    let _ = std::fs::remove_file(&snapshot_path);
}

#[test]
fn snapshot_file_rebuilds_an_auditable_schedule() {
    let snapshot_path = temp_path("audit");
    let mut cfg = config();
    cfg.snapshot_path = Some(snapshot_path.clone());
    let mut server = Server::start(cfg).expect("server starts");
    for request in canned_requests(30, 5) {
        server.request(request);
    }
    server.request(Request::new(9_000, RequestBody::Snapshot));
    server.shutdown();

    let file = SnapshotFile::load(&snapshot_path).expect("snapshot loads");
    assert_eq!(file.flow_count(), 30);
    let built = TopologySpec::FatTree { k: 4 }.build();
    let schedule = file.schedule(&built.network).expect("schedule rebuilds");
    let power = config().power;
    let energy = schedule.energy(&power);
    assert!(energy.idle.is_finite() && energy.dynamic > 0.0);
    let _ = std::fs::remove_file(&snapshot_path);
}

#[test]
fn incompatible_snapshot_is_refused_at_startup() {
    let snapshot_path = temp_path("compat");
    let mut cfg = config();
    cfg.snapshot_path = Some(snapshot_path.clone());
    let mut server = Server::start(cfg.clone()).expect("server starts");
    for request in canned_requests(10, 2) {
        server.request(request);
    }
    server.request(Request::new(9_000, RequestBody::Snapshot));
    server.shutdown();

    let mut other = cfg;
    other.policy = ServePolicy::Greedy;
    let err = match Server::start(other) {
        Ok(_) => panic!("policy mismatch must be refused"),
        Err(e) => e,
    };
    assert!(
        err.to_string().contains("policy=edf"),
        "unhelpful refusal: {err}"
    );
    let _ = std::fs::remove_file(&snapshot_path);
}

#[test]
fn full_queues_answer_busy_with_the_configured_hint() {
    // One worker, queue depth 1, solver-priced policy: a burst of
    // submissions outruns the worker, so the overflow gets `Busy`.
    let mut cfg = config();
    cfg.policy = ServePolicy::Resolve;
    cfg.queue_depth = 1;
    cfg.retry_after_ms = 7;
    let stream = to_stream(&canned_requests(30, 23));
    let replies = parse_replies(&serve(cfg, &stream));
    let mut admits = 0usize;
    let mut busy = 0usize;
    for reply in &replies {
        match &reply.body {
            ResponseBody::Admit(_) | ResponseBody::Status(_) => admits += 1,
            ResponseBody::Busy { retry_after_ms } => {
                assert_eq!(*retry_after_ms, 7);
                busy += 1;
            }
            other => panic!("unexpected reply under backpressure: {other:?}"),
        }
    }
    assert_eq!(admits + busy, replies.len());
    assert!(
        busy > 0,
        "queue depth 1 under a 30-submission burst never overflowed"
    );
}

#[test]
fn queries_report_lifecycle_states() {
    let built = TopologySpec::FatTree { k: 4 }.build();
    let host = |i: usize| built.hosts[i].0;
    let mut server = Server::start(config()).expect("server starts");

    let admit = server.request(Request::new(
        0,
        RequestBody::SubmitFlow(SubmitFlow {
            src: host(0),
            dst: host(5),
            release: 1.0,
            deadline: 10.0,
            volume: 4.0,
        }),
    ));
    assert!(matches!(
        &admit.body,
        ResponseBody::Admit(a) if a.admitted && a.plan.is_some()
    ));

    let live = server.request(Request::new(1, RequestBody::QueryFlow { flow: 0 }));
    assert!(
        matches!(&live.body, ResponseBody::Status(s) if s.state == "in-flight"),
        "fresh flow should be in flight: {live:?}"
    );

    let unknown = server.request(Request::new(2, RequestBody::QueryFlow { flow: 99 }));
    assert!(matches!(&unknown.body, ResponseBody::Status(s) if s.state == "unknown"));

    // A submission whose deadline is behind the shard clock is rejected,
    // and stays queryable as rejected on the same shard.
    let src = host(0);
    let graph = GraphCsr::from_network(&built.network);
    let same_pod_src = built
        .hosts
        .iter()
        .map(|h| h.0)
        .find(|&h| {
            h != src
                && graph.pod_of(dcn_topology::NodeId(h)) == graph.pod_of(dcn_topology::NodeId(src))
        })
        .expect("fat-tree pods hold several hosts");
    let late = server.request(Request::new(
        3,
        RequestBody::SubmitFlow(SubmitFlow {
            src: same_pod_src,
            dst: host(9),
            release: 0.5,
            deadline: 0.9,
            volume: 1.0,
        }),
    ));
    assert!(
        matches!(&late.body, ResponseBody::Admit(a) if !a.admitted),
        "expired deadline must be rejected: {late:?}"
    );
    let rejected = server.request(Request::new(4, RequestBody::QueryFlow { flow: 1 }));
    assert!(
        matches!(&rejected.body, ResponseBody::Status(s) if s.state == "rejected"),
        "rejected flow should be queryable: {rejected:?}"
    );
    server.shutdown();
}

#[test]
fn shutdown_request_gets_bye_and_ends_the_connection() {
    let mut requests = canned_requests(5, 41);
    requests.push(Request::new(500, RequestBody::Shutdown));
    // Anything after Shutdown must not be served.
    requests.push(Request::new(501, RequestBody::QueryFlow { flow: 0 }));
    let replies = parse_replies(&serve(config(), &to_stream(&requests)));
    assert_eq!(replies.len(), requests.len() - 1);
    let last = replies.last().expect("bye reply");
    assert_eq!(last.id, 500);
    assert!(matches!(last.body, ResponseBody::Bye));
}

#[test]
fn a_client_that_waits_for_each_reply_gets_it() {
    let built = TopologySpec::FatTree { k: 4 }.build();
    let mut client = TcpClient::connect(config());

    client.send(&[Request::new(
        0,
        RequestBody::SubmitFlow(SubmitFlow {
            src: built.hosts[0].0,
            dst: built.hosts[5].0,
            release: 1.0,
            deadline: 10.0,
            volume: 4.0,
        }),
    )]);
    let admit = client.recv().expect("admit reply");
    assert_eq!(admit.id, 0);
    assert!(matches!(&admit.body, ResponseBody::Admit(a) if a.admitted));

    client.send(&[Request::new(1, RequestBody::QueryFlow { flow: 0 })]);
    let status = client.recv().expect("status reply");
    assert_eq!(status.id, 1);
    assert!(matches!(&status.body, ResponseBody::Status(s) if s.state == "in-flight"));

    client.send(&[Request::new(2, RequestBody::Shutdown)]);
    let bye = client.recv().expect("bye reply");
    assert_eq!(bye.id, 2);
    assert!(matches!(bye.body, ResponseBody::Bye));
    assert!(client.recv().is_none(), "the stream ends after Bye");
    assert_eq!(client.finish(), ServeOutcome::Shutdown);
}

#[test]
fn busy_replies_keep_request_order_under_a_pipelined_burst() {
    // One worker, queue depth 1, solver-priced policy: the burst outruns
    // the worker, so `Busy` replies from the router interleave with the
    // worker's admits on the same ordered stream.
    let mut cfg = config();
    cfg.policy = ServePolicy::Resolve;
    cfg.queue_depth = 1;
    let mut requests = canned_requests(30, 23);
    requests.push(Request::new(requests.len() as u64, RequestBody::Shutdown));
    let mut client = TcpClient::connect(cfg);
    client.send(&requests);
    let mut replies = Vec::new();
    while let Some(reply) = client.recv() {
        replies.push(reply);
    }
    assert_eq!(client.finish(), ServeOutcome::Shutdown);

    let ids: Vec<u64> = replies.iter().map(|r| r.id).collect();
    let expected: Vec<u64> = (0..requests.len() as u64).collect();
    assert_eq!(ids, expected, "one reply per request, in request order");
    let busy = replies
        .iter()
        .filter(|r| matches!(r.body, ResponseBody::Busy { .. }))
        .count();
    assert!(busy > 0, "queue depth 1 under a burst never overflowed");
    assert!(
        replies[..replies.len() - 1].iter().all(|r| matches!(
            r.body,
            ResponseBody::Busy { .. } | ResponseBody::Admit(_) | ResponseBody::Status(_)
        )),
        "unexpected reply under backpressure: {replies:?}"
    );
    assert!(matches!(replies[replies.len() - 1].body, ResponseBody::Bye));
}

#[test]
fn truncated_snapshots_restore_identically_or_fail_typed() {
    let snapshot_path = temp_path("truncate");
    let mut cfg = config();
    cfg.snapshot_path = Some(snapshot_path.clone());
    let mut server = Server::start(cfg.clone()).expect("server starts");
    for request in canned_requests(4, 9) {
        server.request(request);
    }
    let done = server.request(Request::new(9_000, RequestBody::Snapshot));
    assert!(matches!(done.body, ResponseBody::SnapshotDone { .. }));
    server.shutdown();
    assert!(
        !PathBuf::from(format!("{}.tmp", snapshot_path.display())).exists(),
        "the temp file is renamed over the snapshot"
    );

    let bytes = std::fs::read(&snapshot_path).expect("snapshot written");
    let original = SnapshotFile::load(&snapshot_path).expect("snapshot loads");
    let pretty = |file: &SnapshotFile| serde_json::to_string_pretty(file).expect("serializes");
    for len in 0..=bytes.len() {
        std::fs::write(&snapshot_path, &bytes[..len]).expect("truncated copy written");
        match SnapshotFile::load(&snapshot_path) {
            Ok(loaded) => {
                assert_eq!(pretty(&loaded), pretty(&original), "prefix of {len} bytes");
                Server::start(cfg.clone())
                    .expect("a complete snapshot restores")
                    .shutdown();
            }
            Err(_) => assert!(
                matches!(Server::start(cfg.clone()), Err(ServerError::Config(_))),
                "prefix of {len} bytes must be refused with a typed error"
            ),
        }
    }
    let _ = std::fs::remove_file(&snapshot_path);
}

#[test]
fn a_failed_connection_leaves_the_next_one_intact() {
    let requests = canned_requests(10, 4);
    let stream = to_stream(&requests);
    let mut server = Server::start(config()).expect("server starts");
    let (failed_tx, failed_rx) = mpsc::channel();
    let mut reader = BufReader::new(EndAfterFailure {
        data: Cursor::new(stream.clone()),
        failed: failed_rx,
    });
    let failed = server.serve_connection(&mut reader, &mut BrokenPipe(failed_tx));
    assert_eq!(
        failed.expect_err("the write error surfaces").kind(),
        io::ErrorKind::BrokenPipe
    );
    let mut replies = Vec::new();
    server
        .serve_connection(&mut Cursor::new(stream), &mut replies)
        .expect("in-memory write cannot fail");
    server.shutdown();
    let ids: Vec<u64> = parse_replies(&replies).iter().map(|r| r.id).collect();
    let expected: Vec<u64> = requests.iter().map(|r| r.id).collect();
    assert_eq!(
        ids, expected,
        "every request of the second connection is answered"
    );
}
