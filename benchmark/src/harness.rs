//! Booting the program under test: set-up with its parts timed, the
//! in-process server, and reference answers.

use crate::fixture::Fixture;
use crate::loadgen::Connection;
use crate::oracle::Expected;
use crate::workload::{Item, Op, Plan};
use pathcost_obs::Level;
use pathcost_server::{wire, Json, Server, ServerConfig, ShutdownHandle};
use pathcost_service::{QueryEngine, QueryRequest};
use std::net::SocketAddr;
use std::time::Instant;

/// Generator threads and connections: `min(nproc, 4)`.
pub fn connections() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(4)
}

/// The server configuration every phase uses: the defaults, quieter.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        log_level: Some(Level::Warn),
        ..ServerConfig::default()
    }
}

/// Stops the server when dropped, so a failed assertion inside a serving
/// scope ends the accept loop instead of deadlocking the scope's join.
struct ShutdownOnDrop(ShutdownHandle);

impl Drop for ShutdownOnDrop {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}

/// Runs `body` against `engine` served on an ephemeral port, then drains
/// and joins the server.
pub fn serve<T>(
    engine: &QueryEngine<'_>,
    config: ServerConfig,
    body: impl FnOnce(SocketAddr) -> T,
) -> T {
    let server = Server::bind(config).expect("bind an ephemeral port");
    let addr = server.local_addr().expect("bound address");
    let handle = server.shutdown_handle();
    std::thread::scope(|scope| {
        scope.spawn(|| server.run(engine));
        let _stop = ShutdownOnDrop(handle);
        body(addr)
    })
}

/// `GET target`, parsed; panics on anything but a `200` with a JSON body.
pub fn get_json(addr: SocketAddr, target: &str) -> Json {
    let mut conn = Connection::open(addr).expect("connect to the served engine");
    let status = conn.roundtrip("GET", target, "").expect("GET round trip");
    assert_eq!(status, 200, "GET {target}");
    pathcost_server::json::parse(conn.body()).expect("JSON body")
}

/// Seconds each part of one set-up took.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub generate_s: f64,
    pub simulate_s: f64,
    pub instantiate_s: f64,
    pub boot_s: f64,
    pub warmup_s: f64,
    pub variables: usize,
}

impl SetupTimes {
    pub fn total_s(&self) -> f64 {
        self.generate_s + self.simulate_s + self.instantiate_s + self.boot_s + self.warmup_s
    }
}

/// The second half of a set-up, over an already built (and timed) fixture:
/// instantiate the hybrid graph, boot an engine and a server to the first
/// `/healthz`, and fill the cache with `warm_fill`.
///
/// `between` is called between the timed parts (the run reads the machine's
/// speed there).
pub fn boot<'f>(
    fixture: &'f Fixture,
    warm_fill: &[QueryRequest],
    between: &mut dyn FnMut(),
) -> (QueryEngine<'f>, SetupTimes) {
    let (weights, instantiate_s) = fixture.instantiate();
    between();
    let variables = weights.stats().total_variables();

    let started = Instant::now();
    let engine = fixture.engine(weights);
    serve(&engine, server_config(), |addr| {
        let health = get_json(addr, "/healthz");
        assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));
    });
    let boot_s = started.elapsed().as_secs_f64();

    let started = Instant::now();
    warm(&engine, warm_fill);
    let warmup_s = started.elapsed().as_secs_f64();
    between();
    (
        engine,
        SetupTimes {
            generate_s: fixture.generate_s,
            simulate_s: fixture.simulate_s,
            instantiate_s,
            boot_s,
            warmup_s,
            variables,
        },
    )
}

/// Executes `requests` through the batch executor (all workers), so their
/// distributions are cached before timing starts. Every one must succeed.
pub fn warm(engine: &QueryEngine<'_>, requests: &[QueryRequest]) {
    for chunk in requests.chunks(256) {
        for (request, result) in chunk.iter().zip(engine.execute_batch(chunk)) {
            if let Err(error) = result {
                panic!("warm-up request failed: {error} ({request:?})");
            }
        }
    }
}

/// The reference answer of one item: the reference engine's outcome in the
/// program's own wire encoding.
pub fn reference_answer(engine: &QueryEngine<'_>, item: &Item) -> String {
    let outcome = engine
        .execute(&item.request)
        .unwrap_or_else(|e| panic!("reference engine failed on {}: {e}", item.json));
    wire::encode_outcome_for(&outcome, item.request.regime()).to_string()
}

/// Reference answers for (some of) the items of a plan.
pub struct References {
    expected: Vec<Option<Expected>>,
}

impl References {
    /// Computes the reference of every item in `ids`. The estimations
    /// behind them run through the batch executor first, on all workers.
    pub fn compute(
        engine: &QueryEngine<'_>,
        plan: &Plan,
        ids: impl Iterator<Item = usize>,
    ) -> References {
        let mut ids: Vec<usize> = ids.collect();
        ids.sort_unstable();
        ids.dedup();
        let requests: Vec<QueryRequest> = ids
            .iter()
            .map(|&id| plan.items[id].request.clone())
            .collect();
        warm(engine, &requests);
        let mut expected = vec![None; plan.items.len()];
        for id in ids {
            let answer = reference_answer(engine, &plan.items[id]);
            expected[id] = Some(Expected::from_encoded(&answer));
        }
        References { expected }
    }

    fn expected(&self, id: usize) -> &Expected {
        self.expected[id]
            .as_ref()
            .expect("reference computed before it is needed")
    }

    /// Whether `other` holds the same payload for item `id`.
    pub fn agrees_with(&self, other: &References, id: usize) -> bool {
        self.expected(id).same_payload_as(other.expected(id))
    }

    /// Whether `body` (a `200` answer to `op`) carries the reference payload.
    pub fn matches(&self, op: &Op, body: &[u8]) -> bool {
        let expected = |id: u32| self.expected(id as usize);
        if !op.batch {
            return expected(op.items[0]).matches(body);
        }
        let Ok(parsed) = pathcost_server::json::parse(body) else {
            return false;
        };
        let Some(results) = parsed.get("results").and_then(Json::as_array) else {
            return false;
        };
        results.len() == op.items.len()
            && results
                .iter()
                .zip(&op.items)
                .all(|(result, &id)| expected(id).matches_value(result))
    }
}
