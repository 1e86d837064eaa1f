//! Mutation test for the HTTP request decoder: `http::read_request` answers
//! `Ok` or `Err` on damaged requests, never panics, never returns a body
//! over `Limits::max_body`, and never asks the allocator for more than a
//! bound linear in the bytes it was given.
//!
//! The seeds are valid requests the server answers: a `GET`, single and
//! batched `POST /query`, and requests carrying `Expect: 100-continue`,
//! `x-deadline-ms`, `x-trace-id` and `Connection`. A deterministic
//! SplitMix64 generator damages them (bit flips, truncation, an inflated
//! `Content-Length`, a repeated header line, splices from another seed) and
//! each mutant is read from a byte slice, under the default limits or a
//! tight set that puts every limit within reach of a small input. A
//! per-thread counting `#[global_allocator]` measures the bytes the call
//! requests.
//!
//! `HTTP_MUTATION_ITERATIONS` selects a longer run.

use pathcost_server::http::{read_request, HttpError, Limits};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting the bytes this thread requests through
/// `alloc` and `realloc`.
struct Counting;

thread_local! {
    // Const-initialised and without a destructor, so touching it from inside
    // the allocator neither allocates nor re-enters.
    static REQUESTED: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a plain thread-local
// `Cell` that is never borrowed across a call.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        REQUESTED.with(|n| n.set(n.get() + layout.size() as u64));
        // SAFETY: the caller's obligations for `alloc` are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator, with this
        // layout, by the caller's obligations for `dealloc`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REQUESTED.with(|n| n.set(n.get() + new_size as u64));
        // SAFETY: as for `dealloc`, and `new_size` is the caller's to vouch for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Bytes requested per input byte, and the constant on top: the most
/// `read_request` may ask the allocator for is `C × input length + K`.
///
/// `K` covers the up-to-64 KiB the decoder reserves for a body whose
/// `Content-Length` has not arrived yet; `C` the line buffers, which grow
/// by doubling and are then copied and lower-cased. Measured over 2 M
/// release iterations of the mutation test below: with `C = 4` the largest
/// constant needed was 65 481 bytes (64 KiB + 55), and with `K` = 64.25 KiB
/// the largest per-byte cost was 2.62.
const C: u64 = 4;
const K: u64 = 65 * 1024;

/// The allocation bound for an input of `len` bytes.
fn bound(len: usize) -> u64 {
    C * len as u64 + K
}

struct Gen {
    state: u64,
}

impl Gen {
    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..=n`.
    fn upto(&mut self, n: usize) -> usize {
        (self.next() % (n as u64 + 1)) as usize
    }
}

/// Limits small enough for a mutated seed to cross each of them.
const TIGHT: Limits = Limits {
    max_request_line: 32,
    max_header_line: 40,
    max_headers: 4,
    max_body: 48,
};

/// A request with `head` (request line and header lines, CRLF-terminated)
/// and a `Content-Length`-framed `body`.
fn with_body(head: &str, body: &str) -> Vec<u8> {
    format!("{head}Content-Length: {}\r\n\r\n{body}", body.len()).into_bytes()
}

fn seeds() -> Vec<Vec<u8>> {
    let estimate = r#"{"type":"estimate","path":[3,4,5],"departure_s":28800}"#;
    let prob = r#"{"type":"prob","path":[3,4],"departure_s":28800,"budget_s":600}"#;
    vec![
        b"GET /metrics HTTP/1.1\r\nHost: pathcost\r\n\r\n".to_vec(),
        b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n".to_vec(),
        with_body("POST /query HTTP/1.1\r\nHost: pathcost\r\n", estimate),
        with_body(
            "POST /query/batch HTTP/1.1\r\nHost: pathcost\r\n",
            &format!(r#"{{"requests":[{estimate},{prob},{estimate}]}}"#),
        ),
        with_body(
            "POST /query HTTP/1.1\r\nExpect: 100-continue\r\nx-deadline-ms: 250\r\n\
             x-trace-id: mutation-seed-7\r\nConnection: close\r\n",
            prob,
        ),
        with_body(
            "POST /query HTTP/1.1\r\nConnection: keep-alive, Upgrade\r\nx-deadline-ms: 0\r\n",
            estimate,
        ),
    ]
}

/// The byte range of the digits after the first `Content-Length:` header.
fn content_length_digits(bytes: &[u8]) -> Option<std::ops::Range<usize>> {
    let key = b"Content-Length: ";
    let start = bytes.windows(key.len()).position(|w| w == key)? + key.len();
    let len = bytes[start..]
        .iter()
        .take_while(|b| b.is_ascii_digit())
        .count();
    Some(start..start + len)
}

/// One random edit of `bytes`: a bit flip, a truncation, an inflated
/// `Content-Length`, a repeated header line, or a slice of `donor` spliced
/// over one of its ranges.
fn mutate(gen: &mut Gen, mut bytes: Vec<u8>, donor: &[u8]) -> Vec<u8> {
    match gen.upto(4) {
        0 if !bytes.is_empty() => {
            let at = gen.upto(bytes.len() - 1);
            bytes[at] ^= 1 << gen.upto(7);
        }
        1 => bytes.truncate(gen.upto(bytes.len())),
        2 => {
            if let Some(digits) = content_length_digits(&bytes) {
                let body = bytes.len() - digits.end;
                let claims = [
                    body + 1,
                    body + 4096,
                    TIGHT.max_body + 1,
                    64 * 1024,
                    1 << 20,
                    (1 << 20) + 1,
                    usize::MAX,
                ];
                let claim = claims[gen.upto(claims.len() - 1)].to_string();
                bytes.splice(digits, claim.into_bytes());
            }
        }
        3 => {
            // Repeat one line of the head (the request line included).
            let head = bytes
                .windows(4)
                .position(|w| w == b"\r\n\r\n")
                .unwrap_or(bytes.len());
            let starts: Vec<usize> = std::iter::once(0)
                .chain((0..head).filter(|&i| bytes[i] == b'\n').map(|i| i + 1))
                .filter(|&i| i < head)
                .collect();
            if let Some(&start) = starts.get(gen.upto(starts.len().saturating_sub(1))) {
                let end = bytes[start..]
                    .iter()
                    .position(|&b| b == b'\n')
                    .map_or(bytes.len(), |i| start + i + 1);
                let line = bytes[start..end].to_vec();
                bytes.splice(end..end, line);
            }
        }
        _ => {
            let (a, b) = (gen.upto(donor.len()), gen.upto(donor.len()));
            let at = gen.upto(bytes.len());
            let end = at + gen.upto(bytes.len() - at);
            bytes.splice(at..end, donor[a.min(b)..a.max(b)].iter().copied());
        }
    }
    bytes
}

/// Reads one request from `input` under `limits`, returning the outcome
/// and the bytes requested from the allocator during the call.
fn read_counted(input: &[u8], limits: &Limits) -> (Result<usize, HttpError>, u64) {
    let mut reader = input;
    let before = REQUESTED.with(Cell::get);
    let outcome = read_request(&mut reader, &mut std::io::sink(), limits);
    let requested = REQUESTED.with(Cell::get) - before;
    (outcome.map(|request| request.body.len()), requested)
}

/// Every mutant reads as a request or an error, never panics, keeps its
/// body within `max_body` and allocates within [`bound`].
/// `HTTP_MUTATION_ITERATIONS` selects a longer run.
#[test]
fn mutated_requests_parse_or_fail_within_bounds() {
    let iterations: u64 = std::env::var("HTTP_MUTATION_ITERATIONS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(20_000);
    let seeds = seeds();
    for seed in &seeds {
        let (outcome, _) = read_counted(seed, &Limits::default());
        assert!(outcome.is_ok(), "seed must parse: {outcome:?}");
    }
    let mut gen = Gen {
        state: 0x6874_7470_6d75_7461,
    };
    let mut parsed = 0u64;
    for i in 0..iterations {
        let seed = &seeds[gen.upto(seeds.len() - 1)];
        let donor = &seeds[gen.upto(seeds.len() - 1)];
        let limits = if gen.upto(3) == 0 {
            TIGHT
        } else {
            Limits::default()
        };
        let mut bytes = seed.clone();
        for _ in 0..=gen.upto(3) {
            bytes = mutate(&mut gen, bytes, donor);
        }
        let (outcome, requested) = std::panic::catch_unwind(|| read_counted(&bytes, &limits))
            .unwrap_or_else(|_| panic!("iteration {i}: read_request panicked on {bytes:02x?}"));
        if let Ok(body) = outcome {
            parsed += 1;
            assert!(
                body <= limits.max_body,
                "iteration {i}: a {body}-byte body passed max_body {}",
                limits.max_body
            );
        }
        assert!(
            requested <= bound(bytes.len()),
            "iteration {i}: {requested} bytes requested for a {}-byte input {:?}",
            bytes.len(),
            String::from_utf8_lossy(&bytes)
        );
    }
    // Some mutants must parse, or the decoder was never reached past its
    // request line.
    assert!(iterations < 1000 || parsed > 0, "no mutant parsed");
}

/// A header may claim any length up to `max_body`; until the bytes arrive
/// the decoder reserves a bounded buffer, not the claim.
#[test]
fn an_inflated_content_length_reserves_what_arrives_not_what_it_claims() {
    let limits = Limits::default();
    let claim = limits.max_body;
    let input = format!("POST /query HTTP/1.1\r\nContent-Length: {claim}\r\n\r\n0123456789");
    let (outcome, requested) = read_counted(input.as_bytes(), &limits);
    assert!(matches!(outcome, Err(HttpError::Truncated)), "{outcome:?}");
    assert!(
        requested <= bound(input.len()),
        "{requested} bytes requested for a {}-byte input claiming {claim}",
        input.len()
    );

    // The same claim with every byte present reads the whole body.
    let mut full = format!("POST /query HTTP/1.1\r\nContent-Length: {claim}\r\n\r\n").into_bytes();
    full.resize(full.len() + claim, b'x');
    let (outcome, requested) = read_counted(&full, &limits);
    assert_eq!(outcome.ok(), Some(claim));
    assert!(
        requested <= bound(full.len()),
        "{requested} bytes requested"
    );
}
