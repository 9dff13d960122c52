//! The campaign-service workloads: one closed-loop client on one
//! connection submits full scenario matrices to an in-process server and
//! waits for every row before sending the next.
//!
//! * `serve-fresh` sends never-seen matrices (fresh seeds) to a server with
//!   a cold-tier cache directory: every cell is priced and appended.
//! * `serve-repeat` resubmits matrices priced during set-up to a server
//!   restarted over the written directory with a hot tier smaller than the
//!   working set, so hits split between the hot tier and cold-tier reads.
//!
//! The traced run spends the first half of its time on plain submits and
//! the second half on submits each followed by a replay of the request's
//! layers from the benchmark (parse, resolve, content keys, and for fresh
//! cells the arrivals, transport campaign, delivery kernel and cache
//! insert), and scrapes the server's own `metrics` and `status` around the
//! traced half.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ebird_analysis::report;
use ebird_cluster::{
    run_delivery_campaign, NoiseRegime, RealKernelParams, Workload, WorkloadSpec,
};
use ebird_partcomm::{run_delivery, SimScratch, Strategy};
use ebird_runtime::Pool;
use ebird_serve::client;
use ebird_serve::protocol::{
    parse_request, reply_line, MatrixSource, MetricsReply, Request, StatusReply, SubmitFooter,
    SubmitHeader,
};
use ebird_serve::s3fifo::ENTRY_OVERHEAD_BYTES;
use ebird_serve::scenario::{run_matrix, ScenarioMatrix, ScenarioRow};
use ebird_serve::{CacheConfig, ResultCache, Server, ServerConfig, DEFAULT_QUEUE_BOUND};

use crate::reference::close;
use crate::util::{median, ms_since, quantile, timer_overhead_ns, Rng, Sink};

/// The server's worker team. One worker: with a second one, two workers,
/// the connection thread and the client contend for two cores, and on a
/// shared host a submit's time then followed the host's load more than the
/// program's.
const SERVER_THREADS: usize = 1;
/// Timed rounds after which the peak resident set is read. The `serve-fresh`
/// cold tier's index grows with every cell priced, so a peak read at the end
/// of the run would grow with the host's speed; read after a fixed amount of
/// work it measures the program.
const RSS_ROUNDS: usize = 20;
/// Set-ups per run; `setup_s` is their median. A serve set-up is short
/// (about 0.2 s on `serve-fresh`), so it takes more of them than the
/// pipeline's to hold a steady median.
const SETUPS: usize = 5;
/// Rounds of the workload's own traffic in each set-up's warm-up.
const WARMUP_ROUNDS: usize = 2;
/// Hot-tier budget of the `serve-fresh` server: bounded, so memory stays
/// flat however many cells a run prices.
const FRESH_HOT_BYTES: usize = 4 << 20;
/// `serve-fresh` round: this many `full` matrices, then one real-kernel
/// matrix.
const FRESH_FULL_PER_ROUND: usize = 3;
/// Matrices in the `serve-repeat` working set; a round resubmits each once.
const REPEAT_SET: usize = 12;
/// `serve-repeat` hot-tier budget as a share of the working set's bytes.
const REPEAT_HOT_SHARE: f64 = 0.4;
/// Submits whose rows are compared with offline `run_matrix` per run.
const OFFLINE_SAMPLE: usize = 4;
/// A submit not answered within this time counts as failed.
const SUBMIT_TIMEOUT: Duration = Duration::from_secs(60);

/// A `full`-shape matrix (288 cells: 3 apps × 4 strategies × 2 links × 4
/// noise regimes × 3 rank counts) under `seed`.
fn full_matrix(seed: u64) -> ScenarioMatrix {
    ScenarioMatrix {
        seed,
        ..ScenarioMatrix::full()
    }
}

/// A small matrix of metered real-kernel runs of the three proxy apps
/// (3 workloads × 2 strategies = 6 cells) at the `full` preset's
/// iteration, so each cell re-runs a 26-iteration kernel campaign. A real
/// kernel runs on a pool of `threads` that forks a team of OS threads per
/// region when larger than one; on a shared two-core host, submits at 8
/// and at 2 threads waited on thread start-up and host load, so the kernel
/// runs inline on one.
fn real_matrix(seed: u64) -> ScenarioMatrix {
    let real = |app: &str| WorkloadSpec::RealKernel {
        app: app.into(),
        params: RealKernelParams::default(),
    };
    ScenarioMatrix {
        apps: vec![],
        workloads: vec![real("MiniFE"), real("MiniMD"), real("MiniQMC")],
        strategies: vec![Strategy::Bulk, Strategy::EarlyBird],
        links: vec!["omni-path".into()],
        noise: vec!["baseline".into()],
        ranks: vec![2],
        threads: 1,
        bytes_per_rank: 1_000_000,
        ..full_matrix(seed)
    }
}

/// The submit request for `matrix`, newline-terminated so it goes out in
/// one write.
fn submit_line(matrix: &ScenarioMatrix) -> String {
    let mut line = reply_line(&Request::Submit {
        matrix: MatrixSource::Inline(matrix.clone()),
        priority: 0,
    });
    line.push('\n');
    line
}

/// An in-process server on an ephemeral loopback port.
struct Running {
    addr: String,
    handle: JoinHandle<Result<(), String>>,
}

impl Running {
    fn start(threads: usize, dir: &Path, hot_bytes: Option<usize>) -> Result<Running, String> {
        let server = Server::bind(
            "127.0.0.1:0",
            ServerConfig {
                threads,
                cache_dir: Some(dir.to_path_buf()),
                hot_bytes,
                queue_bound: DEFAULT_QUEUE_BOUND,
            },
        )?;
        let addr = server.local_addr().to_string();
        let handle = std::thread::Builder::new()
            .name("perfbench-server".into())
            .spawn(move || server.run())
            .map_err(|e| format!("starting server: {e}"))?;
        Ok(Running { addr, handle })
    }

    /// Shuts the server down and waits for it (the cold tier is flushed).
    fn stop(self) -> Result<(), String> {
        client::shutdown(&self.addr)?;
        self.handle
            .join()
            .map_err(|_| "server thread panicked".to_string())?
    }
}

/// The benchmark's one load connection.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// One answered submit: its framing and the client-observed time.
struct Answer {
    header: SubmitHeader,
    footer: SubmitFooter,
    ms: f64,
}

impl Conn {
    fn open(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connecting {addr}: {e}"))?;
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(SUBMIT_TIMEOUT)).ok();
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            reader,
            writer: stream,
        })
    }

    fn read_line(&mut self, line: &mut String) -> Result<(), String> {
        line.clear();
        match self.reader.read_line(line) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(_) => {
                if line.ends_with('\n') {
                    line.pop();
                }
                Ok(())
            }
            Err(e) => Err(format!("reading reply: {e}")),
        }
    }

    /// Sends one submit line and reads header, rows (into `rows`, reusing
    /// its strings) and footer. Timed from the write to the footer.
    fn submit(&mut self, line: &str, rows: &mut Vec<String>) -> Result<Answer, String> {
        let t = Instant::now();
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("sending submit: {e}"))?;
        let mut first = String::new();
        self.read_line(&mut first)?;
        let header: SubmitHeader = serde_json::from_str(&first)
            .map_err(|_| format!("submit refused or failed: {first}"))?;
        rows.resize_with(header.cells, String::new);
        for row in rows.iter_mut() {
            self.read_line(row)?;
        }
        let mut last = String::new();
        self.read_line(&mut last)?;
        let ms = ms_since(t);
        let footer: SubmitFooter =
            serde_json::from_str(&last).map_err(|_| format!("stream ended with: {last}"))?;
        Ok(Answer { header, footer, ms })
    }
}

/// Checks the properties every served row must have.
fn check_rows(rows: &[String], sink: &mut Sink) {
    for line in rows {
        let row: ScenarioRow = match serde_json::from_str(line) {
            Ok(r) => r,
            Err(e) => {
                sink.check(false, || format!("unparseable row {line}: {e}"));
                continue;
            }
        };
        sink.check(
            close(row.speedup_vs_bulk, row.bulk_exposed_ms / row.exposed_ms, 1e-12),
            || format!("speedup_vs_bulk {} ≠ bulk/exposed in {line}", row.speedup_vs_bulk),
        );
        sink.check(row.completion_ms >= row.last_arrival_ms, || {
            format!("completion before last arrival in {line}")
        });
        sink.check(row.transport_verified, || format!("transport unverified in {line}"));
    }
}

/// Rows of `matrix` priced offline, serialized as the server streams them.
fn offline_rows(matrix: &ScenarioMatrix) -> Result<Vec<String>, String> {
    run_matrix(matrix, &Pool::new(1))?
        .iter()
        .map(|r| report::json_line(r).map_err(|e| e.to_string()))
        .collect()
}

/// Indices of `values` sorted ascending, ties by index: a rank's readiness
/// order, as the service derives it for its transport campaign.
fn argsort(values: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..values.len()).collect();
    order.sort_by(|&a, &b| values[a].total_cmp(&values[b]).then(a.cmp(&b)));
    order
}

fn us_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Per-operation timings of the replayed layers (µs).
#[derive(Default)]
struct Layers {
    parse: Vec<f64>,
    resolve: Vec<f64>,
    key: Vec<f64>,
    arrivals: Vec<f64>,
    real_arrivals: Vec<f64>,
    campaign: Vec<f64>,
    delivery: Vec<f64>,
    insert: Vec<f64>,
}

/// Replays one submit's layers from the benchmark: protocol parse, matrix
/// resolve and content keys always; with `cache`, each cell's pricing
/// (arrivals, transport campaign, delivery kernel) and the insert of its
/// served row.
fn replay(
    line: &str,
    rows: &[String],
    cache: Option<&ResultCache>,
    layers: &mut Layers,
) -> Result<(), String> {
    let t = Instant::now();
    let request = parse_request(line.trim_end())?;
    layers.parse.push(us_since(t));
    let Request::Submit { matrix, .. } = request else {
        return Err("replayed line is not a submit".into());
    };
    let t = Instant::now();
    let cells = matrix.matrix()?.resolve()?.cells();
    layers.resolve.push(us_since(t));
    let unit_pool = Pool::new(1);
    let mut scratch = SimScratch::new();
    for (cell, row) in cells.iter().zip(rows) {
        let t = Instant::now();
        let key = cell.content_key();
        layers.key.push(us_since(t));
        let Some(cache) = cache else { continue };
        let spec = &cell.spec;
        let regime = NoiseRegime::parse(&spec.noise).ok_or("unknown noise regime")?;
        let workload = spec.workload.resolve()?.with_noise_regime(regime)?;
        let t = Instant::now();
        let arrivals =
            workload.rank_arrivals_ms(spec.seed, spec.ranks, spec.iteration, spec.threads)?;
        match spec.workload {
            WorkloadSpec::RealKernel { .. } => layers.real_arrivals.push(us_since(t)),
            _ => layers.arrivals.push(us_since(t)),
        }
        let t = Instant::now();
        let campaign = run_delivery_campaign(
            spec.ranks,
            spec.threads,
            spec.threads * 8,
            |rank| argsort(&arrivals[rank]),
            &unit_pool,
            Duration::from_secs_f64(spec.deadline_ms / 1000.0),
        );
        layers.campaign.push(us_since(t));
        if !campaign.all_verified() {
            return Err("replayed transport campaign failed to verify".into());
        }
        let mut model = spec.model.resolve()?.build(spec.ranks);
        let t = Instant::now();
        let bulk = run_delivery(
            &mut *model,
            &arrivals,
            spec.bytes_per_rank,
            Strategy::Bulk,
            &mut scratch,
        );
        if spec.strategy != Strategy::Bulk {
            run_delivery(
                &mut *model,
                &arrivals,
                spec.bytes_per_rank,
                spec.strategy,
                &mut scratch,
            );
        }
        layers.delivery.push(us_since(t));
        std::hint::black_box(bulk);
        let t = Instant::now();
        cache.insert(&key, row.clone());
        layers.insert.push(us_since(t));
    }
    Ok(())
}

/// The server's own instruments, read before and after the traced phase.
struct Scrape {
    status: StatusReply,
    metrics: MetricsReply,
}

impl Scrape {
    /// Scrapes once every dispatched submit has recorded its latency (the
    /// server records it just after the footer the client already holds).
    fn take(addr: &str) -> Result<Scrape, String> {
        loop {
            let status = client::status(addr)?;
            let metrics = client::metrics(addr)?;
            let recorded = metrics
                .histogram("serve.request.submit.ns")
                .map_or(0, |h| h.count);
            if recorded == metrics.counter("serve.requests.submit") {
                return Ok(Scrape { status, metrics });
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

/// Mean of a server histogram over the interval between two scrapes, in
/// nanoseconds (0 when nothing was recorded).
fn hist_mean_ns(before: &MetricsReply, after: &MetricsReply, name: &str) -> f64 {
    let read = |m: &MetricsReply| m.histogram(name).map_or((0, 0), |h| (h.count, h.total_ns));
    let ((c0, t0), (c1, t1)) = (read(before), read(after));
    if c1 > c0 {
        (t1 - t0) as f64 / (c1 - c0) as f64
    } else {
        0.0
    }
}

/// A workload's state after set-up: the running server and the load
/// connection.
struct Live {
    server: Running,
    conn: Conn,
    dir: PathBuf,
}

impl Live {
    fn start(threads: usize, dir: PathBuf, hot_bytes: Option<usize>) -> Result<Live, String> {
        let server = Running::start(threads, &dir, hot_bytes)?;
        let conn = Conn::open(&server.addr)?;
        Ok(Live { server, conn, dir })
    }

    fn stop(self) -> Result<(), String> {
        drop(self.conn);
        self.server.stop()?;
        let _ = std::fs::remove_dir_all(&self.dir);
        Ok(())
    }
}

/// One planned submit: the matrix, its wire line, and on repeat the index
/// of the primed matrix whose rows it must stream.
struct Planned {
    matrix: ScenarioMatrix,
    line: String,
    expect: Option<usize>,
}

/// Runs one serve workload; returns (submits attempted, submits failed).
pub fn run(
    repeat: bool,
    seed: u64,
    seconds: f64,
    trace: bool,
    dir: &Path,
    sink: &mut Sink,
) -> Result<(u64, u64), String> {
    let timer_ns = timer_overhead_ns();
    let mut rng = Rng::new(seed);
    let mut rows = Vec::new();

    // Set-up, several times; the last one's server carries the load.
    let mut setup_s = Vec::new();
    let mut live: Option<Live> = None;
    let mut primed: Vec<(ScenarioMatrix, Vec<String>)> = Vec::new();
    for k in 0..SETUPS {
        if let Some(l) = live.take() {
            l.stop()?;
        }
        let t = Instant::now();
        let setup_dir = dir.join(format!("setup-{k}"));
        let _ = std::fs::remove_dir_all(&setup_dir);
        let mut l = if repeat {
            // Price the working set on a first server, then restart over the
            // written cold tier with a hot budget below the working set.
            let mut first = Live::start(SERVER_THREADS, setup_dir.clone(), None)?;
            primed.clear();
            let mut set_rng = Rng::new(seed);
            let mut working_bytes = 0usize;
            for _ in 0..REPEAT_SET {
                let matrix = full_matrix(set_rng.next_u64());
                let a = first.conn.submit(&submit_line(&matrix), &mut rows)?;
                sink.check(a.footer.computed == a.header.cells, || {
                    format!("priming computed {} of {} cells", a.footer.computed, a.header.cells)
                });
                check_rows(&rows, sink);
                for (cell, row) in matrix.resolve()?.cells().iter().zip(&rows) {
                    working_bytes += cell.content_key().content().len() + row.len() + ENTRY_OVERHEAD_BYTES;
                }
                primed.push((matrix, rows.clone()));
            }
            drop(first.conn);
            first.server.stop()?;
            let hot = (working_bytes as f64 * REPEAT_HOT_SHARE) as usize;
            Live::start(SERVER_THREADS, setup_dir, Some(hot))?
        } else {
            Live::start(SERVER_THREADS, setup_dir, Some(FRESH_HOT_BYTES))?
        };
        // Warm-up: rounds of the workload's own traffic.
        for _ in 0..WARMUP_ROUNDS {
            for p in plan_round(repeat, &primed, &mut rng) {
                l.conn.submit(&p.line, &mut rows)?;
            }
        }
        setup_s.push(t.elapsed().as_secs_f64());
        live = Some(l);
    }
    let mut l = live.expect("at least one set-up");
    eprintln!("perfbench: set-up times {setup_s:.3?} s");

    // Timed phase: whole rounds until the time is spent (and at least
    // `RSS_ROUNDS`). The traced run replays layers during its second half.
    let mut plain_ms = Vec::new();
    let mut round_per_s = Vec::new();
    let mut peak_rss = None;
    let mut traced_ms = Vec::new();
    let (mut attempted, mut failed, mut cells, mut cells_failed) = (0u64, 0u64, 0u64, 0u64);
    let mut offline: Vec<(ScenarioMatrix, Vec<String>)> = Vec::new();
    let mut layers = Layers::default();
    let replay_cache = ResultCache::new(CacheConfig {
        cold_dir: Some(dir.join("replay")),
        hot_budget_bytes: Some(FRESH_HOT_BYTES),
    })?;
    let mut before: Option<Scrape> = None;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds || round_per_s.len() < RSS_ROUNDS {
        let tracing = trace && start.elapsed().as_secs_f64() >= seconds / 2.0;
        let (mut round_cells, mut round_ms) = (0u64, 0.0);
        if tracing && before.is_none() {
            before = Some(Scrape::take(&l.server.addr)?);
        }
        for p in plan_round(repeat, &primed, &mut rng) {
            attempted += 1;
            let n_cells = p.matrix.len() as u64;
            cells += n_cells;
            let a = match l.conn.submit(&p.line, &mut rows) {
                Ok(a) => a,
                Err(e) => {
                    sink.check(false, || format!("submit failed: {e}"));
                    failed += 1;
                    cells_failed += n_cells;
                    l.conn = Conn::open(&l.server.addr)?;
                    continue;
                }
            };
            let ok = if let Some(i) = p.expect {
                let same = rows == primed[i].1;
                sink.check(same, || "a repeat row differs from its priced row".into());
                let cached = a.footer.cached == a.header.cells && a.footer.computed == 0;
                sink.check(cached, || {
                    format!("repeat footer {} computed / {} cached", a.footer.computed, a.footer.cached)
                });
                same && cached
            } else {
                let computed = a.footer.computed == a.header.cells && a.footer.cached == 0;
                sink.check(computed, || {
                    format!("fresh footer {} computed / {} cached", a.footer.computed, a.footer.cached)
                });
                let before_failures = sink.failures.len();
                check_rows(&rows, sink);
                if offline.len() < OFFLINE_SAMPLE && rng.below(16) == 0 {
                    offline.push((p.matrix.clone(), rows.clone()));
                }
                computed && sink.failures.len() == before_failures
            };
            if ok {
                round_cells += n_cells;
            } else {
                failed += 1;
                cells_failed += n_cells;
            }
            round_ms += a.ms;
            if tracing {
                traced_ms.push(a.ms);
                let cache = (!repeat).then_some(&replay_cache);
                replay(&p.line, &rows, cache, &mut layers)?;
            } else {
                plain_ms.push(a.ms);
            }
        }
        round_per_s.push(round_cells as f64 / (round_ms / 1e3));
        if round_per_s.len() == RSS_ROUNDS {
            peak_rss = Some(crate::util::peak_rss_mb());
        }
    }
    let after = if trace {
        Some(Scrape::take(&l.server.addr)?)
    } else {
        None
    };
    let peak_rss = peak_rss.expect("the timed phase runs RSS_ROUNDS rounds");
    l.stop()?;

    // Served rows against offline pricing of the same matrices.
    if repeat {
        offline.extend(primed.iter().take(2).cloned());
    }
    for (matrix, served) in &offline {
        let priced = offline_rows(matrix)?;
        sink.check(&priced == served, || {
            format!("served rows differ from offline run_matrix (seed {})", matrix.seed)
        });
    }
    eprintln!(
        "perfbench: {} submits attempted, {failed} failed; {cells} cells attempted, {cells_failed} failed",
        attempted
    );

    if !trace {
        sink.put("setup_s", median(&mut setup_s), "s");
        sink.put("peak_rss_mb", peak_rss, "MB");
        sink.put("op_ms", median(&mut plain_ms), "ms");
        sink.put("items_per_s", median(&mut round_per_s), "1/s");
        return Ok((attempted, failed));
    }

    let (before, after) = (before.ok_or("no traced phase")?, after.ok_or("no scrape")?);
    let (m0, m1) = (&before.metrics, &after.metrics);
    let submits = (m1.counter("serve.requests.submit") - m0.counter("serve.requests.submit")) as f64;
    let request_ms = hist_mean_ns(m0, m1, "serve.request.submit.ns") / 1e6;
    let client_ms = traced_ms.iter().sum::<f64>() / traced_ms.len() as f64;
    // The after-snapshot also counts the bytes of the before-scrape reply.
    let scrape_bytes = reply_line(m0).len() as u64 + 1;
    let written = m1.counter("serve.bytes.written") - m0.counter("serve.bytes.written") - scrape_bytes;
    let (s0, s1) = (&before.status, &after.status);
    let hits = (s1.hits - s0.hits) as f64;
    let cold = (s1.cold_hits - s0.cold_hits) as f64;
    let hot = hits - cold;
    let med = |v: &mut Vec<f64>| if v.is_empty() { 0.0 } else { median(v) };

    sink.put("trace.timer_overhead_ns", timer_ns, "ns");
    sink.put("trace.overhead_ms", median(&mut traced_ms) - median(&mut plain_ms), "ms");
    sink.put("serve.submit_p95_ms", quantile(&mut plain_ms, 0.95), "ms");
    sink.put("ops.cells_attempted", cells as f64, "count");
    sink.put("ops.cells_failed", cells_failed as f64, "count");
    sink.put("serve.protocol.parse_us", med(&mut layers.parse), "us");
    sink.put("serve.scenario.resolve_us", med(&mut layers.resolve), "us");
    sink.put("serve.scenario.key_us", med(&mut layers.key), "us");
    sink.put("cluster.arrivals_us", med(&mut layers.arrivals), "us");
    sink.put("apps.real_arrivals_us", med(&mut layers.real_arrivals), "us");
    sink.put("partcomm.campaign_us", med(&mut layers.campaign), "us");
    sink.put("partcomm.delivery_us", med(&mut layers.delivery), "us");
    sink.put("serve.cache.insert_us", med(&mut layers.insert), "us");
    sink.put("serve.request_ms", request_ms, "ms");
    sink.put("serve.job_run_us", hist_mean_ns(m0, m1, "serve.job.run_ns") / 1e3, "us");
    sink.put("serve.queue_wait_us", hist_mean_ns(m0, m1, "serve.queue.wait_ns") / 1e3, "us");
    let busy = m1.counter("serve.worker.busy_ns") - m0.counter("serve.worker.busy_ns");
    sink.put("serve.worker_busy_ms", busy as f64 / 1e6 / submits, "ms");
    sink.put("serve.bytes_written", written as f64 / submits, "B");
    sink.put("serve.client_unattributed_ms", client_ms - request_ms, "ms");
    sink.put("serve.cache.hot_hit_us", hist_mean_ns(m0, m1, "serve.cache.hit_ns") / 1e3, "us");
    sink.put(
        "serve.cache.cold_read_us",
        hist_mean_ns(m0, m1, "serve.cache.cold_read_ns") / 1e3,
        "us",
    );
    sink.put("serve.cache.hot_hits", hot, "count");
    sink.put("serve.cache.cold_hits", cold, "count");
    sink.put("serve.cache.hot_share", if hits > 0.0 { hot / hits } else { 0.0 }, "ratio");
    sink.put("serve.s3fifo.evictions", (s1.evictions - s0.evictions) as f64, "count");
    sink.put("serve.s3fifo.ghost_hits", (s1.ghost_hits - s0.ghost_hits) as f64, "count");
    Ok((attempted, failed))
}

/// The submits of one round. Fresh: `FRESH_FULL_PER_ROUND` never-seen
/// `full` matrices, then one never-seen real-kernel matrix. Repeat: every
/// primed matrix once, in a seeded order.
fn plan_round(
    repeat: bool,
    primed: &[(ScenarioMatrix, Vec<String>)],
    rng: &mut Rng,
) -> Vec<Planned> {
    let planned = |matrix: ScenarioMatrix, expect| Planned {
        line: submit_line(&matrix),
        matrix,
        expect,
    };
    if repeat {
        let mut order: Vec<usize> = (0..primed.len()).collect();
        rng.shuffle(&mut order);
        order
            .into_iter()
            .map(|i| planned(primed[i].0.clone(), Some(i)))
            .collect()
    } else {
        let mut round: Vec<Planned> = (0..FRESH_FULL_PER_ROUND)
            .map(|_| planned(full_matrix(rng.next_u64()), None))
            .collect();
        round.push(planned(real_matrix(rng.next_u64()), None));
        round
    }
}
