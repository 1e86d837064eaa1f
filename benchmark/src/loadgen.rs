//! The load generator: keep-alive HTTP/1.1 connections driven either
//! back-to-back (closed loop) or on a fixed schedule (open loop).
//!
//! Open loop is the mode the latency metrics come from. Every operation has
//! an *intended* send time fixed before the phase starts; its latency runs
//! from that time — not from when the generator got round to sending it —
//! to the last response byte. A stall therefore shows up in every operation
//! queued behind it instead of silently thinning the load (coordinated
//! omission). How late the generator actually sent is recorded per
//! operation and reported, so a slow generator cannot pass for a fast
//! server.

use crate::workload::Op;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// What the checker made of one response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Answered `200` with the right payload.
    Correct,
    /// Not answered, not `200`, or the payload is wrong.
    Failed,
    /// Plausible so far; keep the body for a check after the phase.
    Keep,
}

/// Judges a response: `(operation index, status, body)`.
pub type Checker<'a> = dyn Fn(usize, u16, &[u8]) -> Verdict + Sync + 'a;

/// One completed (or failed) operation.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Index into the operation slice the phase was given.
    pub op: usize,
    /// Intended send time → last response byte (closed loop: actual send).
    pub latency_us: f64,
    /// Actual send − intended send (0 in a closed loop).
    pub sendlag_us: f64,
    pub ok: bool,
}

impl Sample {
    /// A client that could not even connect: one failed operation, so the
    /// phase cannot pass for an idle one.
    fn refused(op: usize) -> Sample {
        Sample {
            op,
            latency_us: 0.0,
            sendlag_us: 0.0,
            ok: false,
        }
    }
}

/// Everything one phase observed.
#[derive(Debug, Default)]
pub struct PhaseOutcome {
    pub samples: Vec<Sample>,
    /// Bodies the checker asked to keep, by operation index.
    pub kept: Vec<(usize, Vec<u8>)>,
    /// Open loop: operations that were due inside the phase but still unsent
    /// when it ended — a backlog the next second would inherit.
    pub unsent: usize,
}

impl PhaseOutcome {
    pub fn attempted(&self) -> usize {
        self.samples.len()
    }

    pub fn failed(&self) -> usize {
        self.samples.iter().filter(|s| !s.ok).count()
    }

    fn merge(parts: Vec<PhaseOutcome>) -> PhaseOutcome {
        let mut merged = PhaseOutcome::default();
        for part in parts {
            merged.samples.extend(part.samples);
            merged.kept.extend(part.kept);
            merged.unsent += part.unsent;
        }
        merged
    }
}

/// One keep-alive client connection.
pub struct Connection {
    stream: TcpStream,
    out: Vec<u8>,
    buf: Vec<u8>,
}

impl Connection {
    pub fn open(addr: SocketAddr) -> std::io::Result<Connection> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // A hung server must fail the run, not hang it.
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        stream.set_write_timeout(Some(Duration::from_secs(30)))?;
        Ok(Connection {
            stream,
            out: Vec::with_capacity(4096),
            buf: Vec::with_capacity(16 * 1024),
        })
    }

    /// One round trip; returns the status and leaves the body in
    /// [`Self::body`].
    pub fn roundtrip(&mut self, method: &str, target: &str, body: &str) -> std::io::Result<u16> {
        self.out.clear();
        write!(
            self.out,
            "{method} {target} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )?;
        self.out.extend_from_slice(body.as_bytes());
        // One write per request: a split header/body would meet Nagle.
        self.stream.write_all(&self.out)?;
        self.read_response()
    }

    fn read_response(&mut self) -> std::io::Result<u16> {
        self.buf.clear();
        let invalid =
            |what: &'static str| std::io::Error::new(std::io::ErrorKind::InvalidData, what);
        let mut chunk = [0u8; 16 * 1024];
        let head_end = loop {
            if let Some(at) = find(&self.buf, b"\r\n\r\n") {
                break at + 4;
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head =
            std::str::from_utf8(&self.buf[..head_end]).map_err(|_| invalid("non-UTF-8 head"))?;
        let status: u16 = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| invalid("status line"))?;
        let length: usize = head
            .lines()
            .filter_map(|line| line.split_once(':'))
            .find(|(name, _)| name.eq_ignore_ascii_case("content-length"))
            .and_then(|(_, value)| value.trim().parse().ok())
            .ok_or_else(|| invalid("content-length"))?;
        while self.buf.len() < head_end + length {
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        // Keep only the body (no pipelining: nothing follows it).
        self.buf.truncate(head_end + length);
        self.buf.drain(..head_end);
        Ok(status)
    }

    /// The body of the last response.
    pub fn body(&self) -> &[u8] {
        &self.buf
    }

    /// Sends `op` and judges the answer.
    fn execute(&mut self, index: usize, op: &Op, checker: &Checker<'_>) -> (Verdict, bool) {
        let target = if op.batch { "/query/batch" } else { "/query" };
        match self.roundtrip("POST", target, &op.body) {
            Ok(status) => (checker(index, status, &self.buf), true),
            Err(_) => (Verdict::Failed, false),
        }
    }
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

fn record(outcome: &mut PhaseOutcome, conn: &Connection, sample: Sample, verdict: Verdict) {
    if verdict == Verdict::Keep {
        outcome.kept.push((sample.op, conn.body().to_vec()));
    }
    outcome.samples.push(sample);
}

/// A client renews its connection after this many operations. The server
/// gives every connection a thread, and where the kernel puts that thread
/// relative to the client's, the dispatcher's and the workers' decides what
/// every hand-over of the connection's round trips costs (same core or
/// other core) for as long as the connection lives; a phase over two
/// long-lived connections measured its draw of placements as much as the
/// program. Renewing often makes every phase average over many draws.
pub const RENEW_EVERY: usize = 64;

/// Reconnects when a connection is due for renewal or broke, so one broken
/// connection fails one operation, not the rest of the phase.
fn reopen(conn: &mut Connection, addr: SocketAddr, alive: bool) {
    if !alive {
        if let Ok(fresh) = Connection::open(addr) {
            *conn = fresh;
        }
    }
}

/// Closed loop: `connections` clients, each sending its next operation as
/// soon as the previous one is answered. Connection `c` takes operations
/// `c, c + connections, …` and the phase ends when every operation has been
/// sent once — a fixed amount of work, not a fixed time, so two runs that
/// order the same operations differently still do the same work. The rate
/// is the sum of the clients' own rates (each over its own busy time), so a
/// client that finishes early does not dilute it.
pub fn closed_loop(
    addr: SocketAddr,
    connections: usize,
    ops: &[Op],
    checker: &Checker<'_>,
) -> (PhaseOutcome, f64) {
    let parts: Vec<(PhaseOutcome, f64)> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..connections)
            .map(|c| {
                scope.spawn(move || {
                    let mut outcome = PhaseOutcome::default();
                    let Ok(mut conn) = Connection::open(addr) else {
                        outcome.samples.push(Sample::refused(c));
                        return (outcome, 0.0);
                    };
                    let began = Instant::now();
                    for index in (c..ops.len()).step_by(connections) {
                        let sent = Instant::now();
                        let (verdict, alive) = conn.execute(index, &ops[index], checker);
                        let sample = Sample {
                            op: index,
                            latency_us: sent.elapsed().as_secs_f64() * 1e6,
                            sendlag_us: 0.0,
                            ok: verdict != Verdict::Failed,
                        };
                        record(&mut outcome, &conn, sample, verdict);
                        reopen(
                            &mut conn,
                            addr,
                            alive && outcome.samples.len() % RENEW_EVERY != 0,
                        );
                    }
                    let correct = outcome.samples.iter().filter(|s| s.ok).count();
                    let rate = correct as f64 / began.elapsed().as_secs_f64();
                    (outcome, rate)
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|h| h.join().expect("load generator thread"))
            .collect()
    });
    let rate = parts.iter().map(|(_, rate)| rate).sum();
    let outcomes = parts.into_iter().map(|(outcome, _)| outcome).collect();
    (PhaseOutcome::merge(outcomes), rate)
}

/// Open loop: operation `k` is due at `schedule_ns[k]` after the phase
/// starts and goes out on connection `k % connections`, so arrivals are
/// evenly spaced per connection. A connection still waiting for an answer
/// sends its next operation late — immediately once free — and that
/// operation's latency still counts from when it was due. Nothing due after
/// `duration` is sent.
pub fn open_loop(
    addr: SocketAddr,
    connections: usize,
    ops: &[Op],
    schedule_ns: &[u64],
    duration: Duration,
    checker: &Checker<'_>,
) -> PhaseOutcome {
    assert_eq!(ops.len(), schedule_ns.len());
    let started = Instant::now();
    let parts = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..connections)
            .map(|c| {
                scope.spawn(move || {
                    let mut outcome = PhaseOutcome::default();
                    let Ok(mut conn) = Connection::open(addr) else {
                        outcome.samples.push(Sample::refused(c));
                        return outcome;
                    };
                    for index in (c..ops.len()).step_by(connections) {
                        let due = Duration::from_nanos(schedule_ns[index]);
                        if due >= duration {
                            break;
                        }
                        let now = started.elapsed();
                        if now >= duration {
                            outcome.unsent += 1;
                            continue;
                        }
                        if due > now {
                            // Sleep, not spin: the generator shares the
                            // machine with the server it measures.
                            std::thread::sleep(due - now);
                        }
                        let sent = started.elapsed();
                        let (verdict, alive) = conn.execute(index, &ops[index], checker);
                        let done = started.elapsed();
                        let sample = Sample {
                            op: index,
                            latency_us: (done - due).as_secs_f64() * 1e6,
                            sendlag_us: (sent - due).as_secs_f64() * 1e6,
                            ok: verdict != Verdict::Failed,
                        };
                        record(&mut outcome, &conn, sample, verdict);
                        reopen(
                            &mut conn,
                            addr,
                            alive && outcome.samples.len() % RENEW_EVERY != 0,
                        );
                    }
                    outcome
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|h| h.join().expect("load generator thread"))
            .collect()
    });
    PhaseOutcome::merge(parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::net::TcpListener;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// A server that answers every request `200 {}` — and sleeps `stall`
    /// before answering request number `stall_at` — on one connection after
    /// the other; the counter holds the requests served so far.
    fn fake_server(stall_at: usize, stall: Duration) -> (SocketAddr, Arc<AtomicUsize>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let served = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&served);
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let stream = stream.unwrap();
                let mut writer = stream.try_clone().unwrap();
                let mut reader = BufReader::new(stream);
                'connection: loop {
                    let mut length = 0usize;
                    let mut line = String::new();
                    loop {
                        line.clear();
                        if reader.read_line(&mut line).unwrap_or(0) == 0 {
                            break 'connection;
                        }
                        let l = line.trim_end();
                        if l.is_empty() {
                            break;
                        }
                        if let Some((name, value)) = l.split_once(':') {
                            if name.eq_ignore_ascii_case("content-length") {
                                length = value.trim().parse().unwrap();
                            }
                        }
                    }
                    let mut body = vec![0u8; length];
                    reader.read_exact(&mut body).unwrap();
                    if counter.load(Ordering::SeqCst) == stall_at {
                        std::thread::sleep(stall);
                    }
                    counter.fetch_add(1, Ordering::SeqCst);
                    writer
                        .write_all(
                            b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\nconnection: keep-alive\r\n\r\n{}",
                        )
                        .unwrap();
                }
            }
        });
        (addr, served)
    }

    fn ops(n: usize) -> Vec<Op> {
        (0..n)
            .map(|i| Op {
                batch: false,
                body: format!("{{\"n\":{i}}}"),
                items: vec![],
            })
            .collect()
    }

    #[test]
    fn a_stall_is_charged_to_the_requests_queued_behind_it() {
        // 200 operations, one every 5 ms, on one connection; the server
        // stalls 200 ms on operation 20. An omitting generator would report
        // one slow operation; this one must show ~40 operations whose
        // intended send times fell inside the stall.
        let stall = Duration::from_millis(200);
        let (addr, server) = fake_server(20, stall);
        let ops = ops(200);
        let schedule = crate::workload::schedule_ns(ops.len(), 200.0);
        let always = |_: usize, status: u16, body: &[u8]| {
            if status == 200 && body == b"{}" {
                Verdict::Correct
            } else {
                Verdict::Failed
            }
        };
        let outcome = open_loop(addr, 1, &ops, &schedule, Duration::from_secs(2), &always);
        assert_eq!(server.load(Ordering::SeqCst), 200);
        assert_eq!(outcome.attempted(), 200);
        assert_eq!(outcome.failed(), 0);
        assert_eq!(outcome.unsent, 0);

        let by_op = |i: usize| outcome.samples.iter().find(|s| s.op == i).unwrap();
        assert!(
            by_op(20).latency_us >= 200_000.0,
            "the stalled operation itself"
        );
        assert!(by_op(10).latency_us < 50_000.0, "before the stall");
        // Operation 21 was due 5 ms after 20 but could only go out when the
        // stall ended: ≥ 195 ms of lateness, all of it in its latency.
        assert!(by_op(21).sendlag_us >= 150_000.0);
        assert!(by_op(21).latency_us >= by_op(21).sendlag_us);
        // Operation 40 was due 100 ms into the stall: ≥ ~100 ms.
        assert!(by_op(40).latency_us >= 80_000.0, "{}", by_op(40).latency_us);
        let behind = outcome
            .samples
            .iter()
            .filter(|s| s.op > 20 && s.latency_us >= 50_000.0)
            .count();
        assert!(behind >= 25, "only {behind} operations show the stall");
        // Once the backlog drained, latency is back to normal.
        assert!(by_op(150).latency_us < 50_000.0);
        assert!(by_op(150).sendlag_us < 20_000.0);
    }

    #[test]
    fn closed_loop_sends_every_operation_once_back_to_back() {
        let (addr, server) = fake_server(usize::MAX, Duration::ZERO);
        let ops = ops(50);
        let keep_third = |index: usize, _: u16, _: &[u8]| {
            if index == 3 {
                Verdict::Keep
            } else {
                Verdict::Correct
            }
        };
        let (outcome, rate) = closed_loop(addr, 1, &ops, &keep_third);
        assert_eq!(server.load(Ordering::SeqCst), 50);
        assert_eq!(outcome.attempted(), 50);
        assert!(outcome.samples.iter().all(|s| s.ok && s.sendlag_us == 0.0));
        assert_eq!(outcome.kept, vec![(3, b"{}".to_vec())]);
        // 50 answers in the time they took: far above one per millisecond
        // against a server that answers at once.
        assert!(rate > 1_000.0, "{rate}");
    }

    #[test]
    fn work_due_after_the_phase_is_not_sent_and_a_backlog_is_counted() {
        // 100 operations due over 1 s, but the phase lasts 0.3 s and the
        // server stalls 400 ms on the first: everything else due inside the
        // phase is still unsent when it ends.
        let (addr, server) = fake_server(0, Duration::from_millis(400));
        let ops = ops(100);
        let schedule = crate::workload::schedule_ns(ops.len(), 100.0);
        let ok = |_: usize, _: u16, _: &[u8]| Verdict::Correct;
        let outcome = open_loop(addr, 1, &ops, &schedule, Duration::from_millis(300), &ok);
        let served = server.load(Ordering::SeqCst);
        assert_eq!(outcome.attempted(), served);
        assert_eq!(outcome.attempted(), 1);
        assert_eq!(outcome.unsent, 29, "due inside the phase, never sent");
    }
}
