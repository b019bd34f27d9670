//! `service-paper`: build a paper-scale `ResidentState`, serve it from an
//! in-process `hybridd::Server` on loopback, and run two closed-loop
//! connections replaying `hybridd::query_mix` until the measuring time is
//! up. Each caller waits for its reply before sending the next request.

use std::net::SocketAddr;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use hybrid_tor::service::ResidentState;
use hybridd::{answer, query_mix, Connection, Request, Server, ServerConfig};
use routesim::{Scenario, Versioned};

use crate::inputs::{self, WORKERS};
use crate::stats::{digest, peak_rss_mb, percentile, sub_seed};
use crate::{Outcome, Workload};

/// Closed-loop client connections.
pub const CLIENTS: usize = 2;

/// Untimed requests each client sends before measuring.
const WARMUP_REQUESTS: usize = 2000;

/// Mix length per client and measured second; a client stops early when
/// its mix runs out.
const REQUESTS_PER_SECOND: usize = 60_000;

/// A running in-process daemon and the snapshot it serves.
pub struct Served {
    pub addr: SocketAddr,
    pub snapshot: Arc<Versioned<ResidentState>>,
}

/// Bind a server on a free loopback port and start its accept loop. The
/// server keeps `scenario` to rebuild from, as the `hybridd` daemon does.
/// `Server::run` has no shutdown: the accept thread ends with the process.
pub fn serve(scenario: Scenario, state: ResidentState) -> Served {
    let pipeline = inputs::e1_pipeline();
    let rebuild: hybridd::Rebuild = Arc::new(move || ResidentState::build(&scenario, &pipeline));
    let config = ServerConfig { workers: WORKERS, batch: 32, epoch_check_ms: 50 };
    let server = Server::bind("127.0.0.1:0", state, rebuild, config).expect("bind a loopback port");
    let addr = server.local_addr().expect("bound listener has an address");
    let snapshot = server.cell().load();
    std::thread::spawn(move || server.run());
    Served { addr, snapshot }
}

/// The query mix of one client.
pub fn client_mix(state: &ResidentState, seed: u64, client: usize, count: usize) -> Vec<Request> {
    let seed = sub_seed(seed, inputs::QUERIES + client as u64);
    query_mix(state.universe(), state.hybrid_pairs(), seed, count)
}

/// One client's measured requests: round-trip nanoseconds and a digest
/// of each response's bytes, in request order. Keeping digests rather
/// than the bytes keeps the benchmark's own memory out of `peak_rss_mb`.
pub struct ClientRun {
    pub latencies_ns: Vec<f64>,
    pub digests: Vec<u64>,
}

/// Send `mix` over one connection, waiting for each reply, until the mix
/// or `time` runs out.
pub fn closed_loop(conn: &mut Connection, mix: &[Request], time: Duration) -> ClientRun {
    let deadline = Instant::now().checked_add(time);
    let mut run = ClientRun { latencies_ns: Vec::new(), digests: Vec::new() };
    for request in mix {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            break;
        }
        let sent = Instant::now();
        let raw = conn.roundtrip_raw(request).expect("loopback round trip");
        run.latencies_ns.push(sent.elapsed().as_nanos() as f64);
        run.digests.push(digest(&raw));
    }
    run
}

/// Count responses whose bytes differ from `hybridd::answer` on the
/// served snapshot.
pub fn mismatches(state: &ResidentState, mix: &[Request], digests: &[u64]) -> usize {
    mix.iter().zip(digests).filter(|(req, &d)| digest(&answer(state, req).encode()) != d).count()
}

/// Set-up: synthesise the paper-scale scenario and build the resident
/// state from it.
pub fn setup(seed: u64) -> ((Scenario, ResidentState), Duration) {
    let scale = inputs::paper(seed);
    let start = Instant::now();
    let scenario = Scenario::build(&scale.topology, &scale.sim);
    let state = ResidentState::build(&scenario, &inputs::e1_pipeline());
    ((scenario, state), start.elapsed())
}

pub fn run(seed: u64, seconds: Duration) -> Outcome {
    let ((scenario, state), elapsed) = setup(seed);
    let setup_s = crate::setup_seconds(Workload::ServicePaper, seed, elapsed);
    let served = serve(scenario, state);
    let state = served.snapshot.value();

    let per_client = REQUESTS_PER_SECOND * seconds.as_secs() as usize;
    let mixes: Vec<Vec<Request>> =
        (0..CLIENTS).map(|c| client_mix(state, seed, c, per_client)).collect();
    let barrier = Barrier::new(CLIENTS);
    let started = Instant::now();
    let runs: Vec<(ClientRun, Duration)> = std::thread::scope(|scope| {
        let handles: Vec<_> = mixes
            .iter()
            .enumerate()
            .map(|(c, mix)| {
                let (barrier, addr) = (&barrier, served.addr);
                scope.spawn(move || {
                    let mut conn = Connection::connect(&addr.to_string()).expect("connect");
                    let warmup = client_mix(state, !seed, c, WARMUP_REQUESTS);
                    closed_loop(&mut conn, &warmup, Duration::MAX);
                    barrier.wait();
                    let start = Instant::now();
                    let run = closed_loop(&mut conn, mix, seconds);
                    (run, start.elapsed())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let wall = runs.iter().map(|(_, elapsed)| *elapsed).max().expect("clients ran");
    let total_wall = started.elapsed();
    let peak_rss_mb = peak_rss_mb();

    // Check every response against the served snapshot, one thread per
    // client's requests.
    let failed: usize = std::thread::scope(|scope| {
        let handles: Vec<_> = runs
            .iter()
            .zip(&mixes)
            .map(|((run, _), mix)| scope.spawn(move || mismatches(state, mix, &run.digests)))
            .collect();
        handles.into_iter().map(|h| h.join().expect("check thread")).sum()
    });

    let latencies: Vec<f64> = runs.iter().flat_map(|(run, _)| run.latencies_ns.clone()).collect();
    let requests = latencies.len();
    let (p50, p99) = (percentile(&latencies, 50.0), percentile(&latencies, 99.0));
    let qps = requests as f64 / wall.as_secs_f64();
    Outcome {
        attempted: requests as u64,
        failed: failed as u64,
        metrics: vec![
            ("setup_s", setup_s, "s"),
            ("result_ms", p50 / 1e6, "ms"),
            ("slow_result_ms", p99 / 1e6, "ms"),
            ("results_per_s", qps, "1/s"),
            ("peak_rss_mb", peak_rss_mb, "MB"),
        ],
        notes: vec![
            format!(
                "service-paper seed {seed}: {requests} requests from {CLIENTS} closed-loop clients in {:.2} s ({:.2} s with warm-up), {} ASes served",
                wall.as_secs_f64(),
                total_wall.as_secs_f64(),
                state.universe().len()
            ),
            format!(
                "qps {qps:.0}  query_p50_us {:.2}  query_p99_us {:.2}",
                p50 / 1e3,
                p99 / 1e3
            ),
        ],
    }
}
