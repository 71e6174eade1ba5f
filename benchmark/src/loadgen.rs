//! The benchmark's own load generator for the daemon: a seeded request
//! schedule and a client with one TCP connection, a sender thread and a
//! receiver.
//!
//! Open loop: every request has a due time and is sent then, whether or
//! not earlier replies have come back; its latency counts from the due
//! time, so a stall also charges the requests queued behind it, and the
//! sender's own lateness is recorded separately.
//!
//! There is no closed-loop mode on purpose: `dcn-serve` writes replies
//! only after reading the next frame and flushes its buffered writer only
//! when the connection ends, so a client that waits for replies before
//! sending more can wait forever.

use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use dcn_flow::workload::{ArrivalProcess, UniformWorkload};
use dcn_server::{
    encode_frame, read_frame, Request, RequestBody, Response, ResponseBody, SubmitFlow,
};
use dcn_topology::NodeId;

use crate::derive_seed;

/// Share of requests that are `QueryFlow` (a 4:1 submit:query mix).
pub const QUERY_SHARE: f64 = 0.2;

/// Expected flows in flight of the submitted stream.
pub const LOAD: f64 = 64.0;

/// One request of a schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct Scheduled {
    /// When the request is due, in nanoseconds from the phase start.
    pub due_ns: u64,
    /// The request; its id is its index in the schedule.
    pub request: Request,
}

/// A uniform draw in `[0, 1)` from a derived seed.
fn unit(seed: u64, stream: u64, index: u64) -> f64 {
    (derive_seed(seed, stream, index) >> 11) as f64 / (1u64 << 53) as f64
}

/// The request schedule of one phase, a pure function of its arguments:
/// `count` requests at Poisson rate `rate` per second (all due at 0 when
/// `rate` is 0). Submissions carry the paper's
/// uniform workload re-released at load [`LOAD`] and are sent in release
/// order; a query names a random flow submitted earlier in the phase
/// (server flow ids are dense in submission order).
pub fn schedule(seed: u64, rate: f64, count: usize, hosts: &[NodeId]) -> Vec<Scheduled> {
    let base = UniformWorkload::paper_defaults(count.max(1), seed)
        .generate(hosts)
        .expect("the fabric has hosts");
    let flows = ArrivalProcess::with_load(LOAD, seed)
        .apply(&base)
        .expect("arrival rewrite keeps flows valid");
    let mut out = Vec::with_capacity(count);
    let mut clock = 0.0f64;
    let mut submitted = 0u64;
    for i in 0..count as u64 {
        if rate > 0.0 {
            clock += -(1.0 - unit(seed, 10, i)).ln() / rate;
        }
        let body = if submitted > 0 && unit(seed, 11, i) < QUERY_SHARE {
            let flow = (unit(seed, 12, i) * submitted as f64) as u64;
            RequestBody::QueryFlow { flow }
        } else {
            let f = flows.flow(submitted as usize);
            submitted += 1;
            RequestBody::SubmitFlow(SubmitFlow {
                src: f.src.0,
                dst: f.dst.0,
                release: f.release,
                deadline: f.deadline,
                volume: f.volume,
            })
        };
        out.push(Scheduled {
            due_ns: (clock * 1e9) as u64,
            request: Request::new(i, body),
        });
    }
    out
}

/// What came back for each request of a phase.
#[derive(Debug, Default)]
pub struct WireOutcome {
    /// Due time per request, nanoseconds from the phase start.
    pub due_ns: Vec<u64>,
    /// Send time per request.
    pub sent_ns: Vec<u64>,
    /// Receive time per request (`None` = unanswered).
    pub recv_ns: Vec<Option<u64>>,
    /// Reply frame per request (length prefix, payload, newline).
    pub replies: Vec<Option<Vec<u8>>>,
    /// Replies per request id beyond the first, or naming unknown ids.
    pub stray: usize,
    /// Whether the trailing `Shutdown` was answered with `Bye`.
    pub bye: bool,
}

impl WireOutcome {
    /// Latency of request `i` in milliseconds, from its due time.
    pub fn latency_ms(&self, i: usize) -> Option<f64> {
        self.recv_ns[i].map(|r| r.saturating_sub(self.due_ns[i]) as f64 / 1e6)
    }

    /// How late the sender was for request `i`, in milliseconds.
    pub fn late_ms(&self, i: usize) -> f64 {
        self.sent_ns[i].saturating_sub(self.due_ns[i]) as f64 / 1e6
    }

    /// The decoded reply of request `i`.
    pub fn response(&self, i: usize) -> Option<Response> {
        let frame = self.replies[i].as_ref()?;
        let payload = payload(frame)?;
        serde_json::from_str(std::str::from_utf8(payload).ok()?).ok()
    }
}

/// The payload of an encoded frame.
fn payload(frame: &[u8]) -> Option<&[u8]> {
    let newline = frame.iter().position(|&b| b == b'\n')?;
    frame.get(newline + 1..frame.len() - 1)
}

/// The request id a reply payload answers: the envelope's `id`, which
/// is serialized before the body.
fn reply_id(payload: &[u8]) -> Option<u64> {
    const KEY: &[u8] = b"\"id\":";
    let at = payload.windows(KEY.len()).position(|w| w == KEY)? + KEY.len();
    let digits = payload[at..]
        .iter()
        .take_while(|b| b.is_ascii_digit())
        .count();
    std::str::from_utf8(&payload[at..at + digits])
        .ok()?
        .parse()
        .ok()
}

/// Drives one phase over `stream`: sends each request of `schedule` at
/// its due time after `start`, calls `before_shutdown` on the sender thread, sends a
/// `Shutdown` (id = schedule length), and collects replies until `Bye`,
/// end of stream, or `timeout` without data.
///
/// # Errors
///
/// Propagates socket set-up errors.
pub fn drive(
    stream: TcpStream,
    schedule: &[Scheduled],
    start: Instant,
    timeout: Duration,
    before_shutdown: impl FnOnce() + Send + 'static,
) -> std::io::Result<WireOutcome> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(timeout))?;
    let n = schedule.len();
    let mut writer = stream.try_clone()?;
    let frames: Vec<Vec<u8>> = schedule.iter().map(|s| encode_frame(&s.request)).collect();
    let due: Vec<u64> = schedule.iter().map(|s| s.due_ns).collect();
    let shutdown = encode_frame(&Request::new(n as u64, RequestBody::Shutdown));

    let sender = std::thread::spawn(move || -> Vec<u64> {
        let mut sent = Vec::with_capacity(frames.len());
        for (frame, due) in frames.iter().zip(due) {
            wait_until(start + Duration::from_nanos(due));
            let at = start.elapsed().as_nanos() as u64;
            if writer.write_all(frame).is_err() {
                break;
            }
            sent.push(at);
        }
        before_shutdown();
        let _ = writer.write_all(&shutdown);
        sent
    });

    let mut out = WireOutcome {
        recv_ns: vec![None; n],
        replies: vec![None; n],
        ..WireOutcome::default()
    };
    let mut reader = BufReader::new(stream);
    while let Ok(Some(payload_bytes)) = read_frame(&mut reader) {
        let at = start.elapsed().as_nanos() as u64;
        let mut frame = payload_bytes.len().to_string().into_bytes();
        frame.push(b'\n');
        frame.extend_from_slice(&payload_bytes);
        frame.push(b'\n');
        match reply_id(&payload_bytes) {
            Some(id) if (id as usize) < n && out.recv_ns[id as usize].is_none() => {
                out.recv_ns[id as usize] = Some(at);
                out.replies[id as usize] = Some(frame);
            }
            Some(id) if id as usize == n => {
                out.bye = true;
                break;
            }
            _ => out.stray += 1,
        }
    }
    out.sent_ns = sender.join().expect("sender thread");
    // A request the sender never got onto the wire reads as sent at the
    // end of time; it also has no reply, so it counts as unanswered.
    out.sent_ns.resize(n, u64::MAX);
    out.due_ns = schedule.iter().map(|s| s.due_ns).collect();
    Ok(out)
}

/// Sleeps, then spins the last stretch, until `target`.
fn wait_until(target: Instant) {
    loop {
        let now = Instant::now();
        if now >= target {
            return;
        }
        let left = target - now;
        if left > Duration::from_micros(200) {
            std::thread::sleep(left - Duration::from_micros(100));
        } else {
            std::thread::yield_now();
        }
    }
}

/// Whether a reply is `Busy`, an error frame, or neither.
pub fn classify(response: &Response) -> (bool, bool) {
    match response.body {
        ResponseBody::Busy { .. } => (true, false),
        ResponseBody::Error(_) => (false, true),
        _ => (false, false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_server::decode_request;
    use dcn_topology::builders;
    use std::io::BufRead;
    use std::net::TcpListener;

    #[test]
    fn schedule_is_a_pure_function_of_the_seed() {
        let topo = builders::fat_tree(4);
        let a = schedule(7, 1000.0, 300, topo.hosts());
        assert_eq!(a, schedule(7, 1000.0, 300, topo.hosts()));
        assert_ne!(a, schedule(8, 1000.0, 300, topo.hosts()));
        // Due times rise, ids are indices, the mix is about 4:1 and
        // queries only name flows already submitted.
        let mut submitted = 0;
        for (i, s) in a.iter().enumerate() {
            assert_eq!(s.request.id, i as u64);
            assert!(i == 0 || s.due_ns >= a[i - 1].due_ns);
            match &s.request.body {
                RequestBody::SubmitFlow(_) => submitted += 1,
                RequestBody::QueryFlow { flow } => assert!(*flow < submitted),
                other => panic!("unexpected {other:?}"),
            }
        }
        let queries = a.len() - submitted as usize;
        assert!((30..=90).contains(&queries), "{queries} queries of 300");
        // 300 requests at 1000/s span about 0.3 s.
        let last = a.last().unwrap().due_ns as f64 / 1e9;
        assert!((0.2..0.4).contains(&last), "{last}");
    }

    /// A server that answers nothing until it has read every request,
    /// then answers all of them and the shutdown.
    fn holding_server(listener: TcpListener, requests: usize) {
        let (stream, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        let mut ids = Vec::new();
        for _ in 0..=requests {
            let payload = read_frame(&mut reader).unwrap().unwrap();
            ids.push(decode_request(&payload).unwrap().id);
        }
        for id in ids {
            let body = if id as usize == requests {
                ResponseBody::Bye
            } else {
                ResponseBody::Busy { retry_after_ms: 1 }
            };
            writer
                .write_all(&encode_frame(&Response::new(id, body)))
                .unwrap();
        }
        writer.flush().unwrap();
        assert!(reader.fill_buf().map_or(true, |b| b.is_empty()));
    }

    #[test]
    fn a_held_back_reply_counts_from_its_due_time() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || holding_server(listener, 2));
        let topo = builders::fat_tree(4);
        let mut plan = schedule(3, 0.0, 2, topo.hosts());
        plan[1].due_ns = 80_000_000;
        // The phase started 30 ms ago: the sender is late for request 0,
        // and its reply is held back until request 1 (due at 80 ms) lands.
        let start = Instant::now() - Duration::from_millis(30);
        let stream = TcpStream::connect(addr).unwrap();
        let out = drive(stream, &plan, start, Duration::from_secs(5), || ()).unwrap();
        server.join().unwrap();
        assert!(out.bye);
        assert!(out.late_ms(0) >= 30.0, "late {}", out.late_ms(0));
        let from_due = out.latency_ms(0).unwrap();
        let from_send = (out.recv_ns[0].unwrap() - out.sent_ns[0]) as f64 / 1e6;
        assert!(from_due >= 80.0, "latency from due {from_due}");
        assert!(from_due - from_send >= 30.0, "{from_due} vs {from_send}");
        assert_eq!(classify(&out.response(0).unwrap()), (true, false));
    }
}
