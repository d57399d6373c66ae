//! The `serve` workload: open-loop top-k serving with snapshot
//! publication on the serving thread.
//!
//! The loop is the benchmark's own, so a change to `kge-serve` cannot
//! change how it is measured. Arrivals are pre-drawn from the seed. The
//! server clock is simulated: it jumps to the next arrival (or
//! publication) when idle and advances by the host-measured time of each
//! drain and publication. Batched admission submits every query that has
//! arrived by the server clock and drains them together. A query's
//! latency runs from its due time to the completion of its drain, so
//! every stall shows up in the queries that waited behind it. The
//! generator issues each query exactly at its due time by construction,
//! so its lateness is 0.

use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use kge_core::{ComplEx, EmbeddingTable, KgeModel};
use kge_data::{PermutedZipf, ZipfSampler};
use kge_serve::{Query, ServeEngine, SnapshotHub};
use rand::rngs::StdRng;
use rand::SeedableRng;
use simgrid::OpenLoopArrivals;

use crate::digest::Fnv;
use crate::stats::{backlog_growing, median, nearest_rank, slo_qps, tail_percentile, RateStep};
use crate::trace::{durations, Tracer};
use crate::{peak_rss_mb, Checks, RunArgs, RunResult, DRIVER_TRACK, SETUP_REPEATS};

const RANK: usize = 64;
const N_ENTITIES: usize = 131_072;
const N_RELATIONS: usize = 256;
const TOP_K: usize = 10;
const ENTITY_ZIPF: f64 = 1.0;
const RELATION_ZIPF: f64 = 0.9;
/// Offered rates of the ladder, queries per simulated second.
pub const RATES: [f64; 3] = [50.0, 100.0, 200.0];
/// The rate the latency and throughput metrics are reported at.
pub const REFERENCE_QPS: f64 = 100.0;
/// Queries per rate: enough for p99 to have ten samples beyond it.
const QUERIES_PER_RATE: usize = 1000;
/// A new snapshot generation every simulated second.
const PUBLISH_EVERY_S: f64 = 1.0;
/// The p99 latency limit a ladder step must meet.
pub const P99_LIMIT_MS: f64 = 250.0;
/// Every this many queries, one answer is compared with the oracle.
const ORACLE_EVERY: usize = 60;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    pub due_s: f64,
    pub head: u32,
    pub rel: u32,
}

/// `n` Poisson arrivals at `rate_qps` with permuted-Zipf heads and Zipf
/// relations, a pure function of its arguments.
pub fn schedule(
    rate_qps: f64,
    n: usize,
    seed: u64,
    heads: &PermutedZipf,
    rels: &ZipfSampler,
) -> Vec<Arrival> {
    let mut arrivals = OpenLoopArrivals::new(rate_qps, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_0FA1);
    (0..n)
        .map(|_| Arrival {
            due_s: arrivals.next_arrival_s(),
            head: heads.sample(&mut rng),
            rel: rels.sample(&mut rng) as u32,
        })
        .collect()
}

/// What one pass over a schedule measured.
#[derive(Debug, Default, Clone)]
pub struct LoopOutcome {
    /// Per query, completion of its drain minus its due time.
    pub latency_s: Vec<f64>,
    /// Per query, the host time of the drain that answered it.
    pub own_drain_s: Vec<f64>,
    pub batch_sizes: Vec<usize>,
    pub drain_s: Vec<f64>,
    pub publish_s: Vec<f64>,
    pub answered: usize,
}

/// The server side of the open loop.
pub trait LoopServer {
    /// Answer the queries in `range`; returns (host seconds, answered).
    fn drain(&mut self, range: Range<usize>) -> (f64, usize);
    /// Install a new snapshot at server time `clock_s`; returns host seconds.
    fn publish(&mut self, clock_s: f64) -> f64;
}

/// Run the open loop over arrivals `due_s`, publishing every
/// `publish_every_s` of server time.
pub fn open_loop(due_s: &[f64], publish_every_s: f64, server: &mut impl LoopServer) -> LoopOutcome {
    let n = due_s.len();
    let mut out = LoopOutcome {
        latency_s: vec![0.0; n],
        own_drain_s: vec![0.0; n],
        ..LoopOutcome::default()
    };
    let mut clock = 0.0f64;
    let mut next_publish = publish_every_s;
    let mut next = 0;
    while next < n {
        if clock >= next_publish {
            let dt = server.publish(clock);
            out.publish_s.push(dt);
            clock += dt;
            next_publish += publish_every_s;
            continue;
        }
        if due_s[next] > clock {
            clock = due_s[next].min(next_publish);
            continue;
        }
        let end = next + due_s[next..].partition_point(|&d| d <= clock);
        let (dt, answered) = server.drain(next..end);
        clock += dt;
        out.answered += answered;
        out.batch_sizes.push(end - next);
        out.drain_s.push(dt);
        for (lat, due) in out.latency_s[next..end].iter_mut().zip(&due_s[next..end]) {
            *lat = clock - due;
        }
        out.own_drain_s[next..end].fill(dt);
        next = end;
    }
    out
}

/// Everything the server receives, generated from the seed.
struct Inputs {
    rel: EmbeddingTable,
    /// Two entity-table versions published alternately.
    tables: [EmbeddingTable; 2],
    schedules: Vec<Vec<Arrival>>,
}

fn make_inputs(seed: u64, tr: &mut Tracer) -> Inputs {
    let dim = ComplEx::new(RANK).storage_dim();
    let mut rng = StdRng::seed_from_u64(seed);
    let (ent, rel) = tr.span("kge-core", "table_init", 0, || {
        let ent = EmbeddingTable::xavier(N_ENTITIES, dim, &mut rng);
        let rel = EmbeddingTable::xavier(N_RELATIONS, dim, &mut rng);
        (ent, rel)
    });
    // The second version moves every eighth row, as a training step would.
    let mut next = ent.clone();
    for r in (0..N_ENTITIES).step_by(8) {
        for x in next.row_mut(r) {
            *x *= 1.01;
        }
    }
    let schedules = tr.span("kge-data", "generate", 0, || {
        let heads = PermutedZipf::new(N_ENTITIES, ENTITY_ZIPF, seed ^ 0x4EAD);
        let rels = ZipfSampler::new(N_RELATIONS, RELATION_ZIPF);
        RATES
            .iter()
            .enumerate()
            .map(|(i, &rate)| {
                schedule(
                    rate,
                    QUERIES_PER_RATE,
                    seed.wrapping_add(i as u64 + 1),
                    &heads,
                    &rels,
                )
            })
            .collect()
    });
    Inputs {
        rel,
        tables: [ent, next],
        schedules,
    }
}

fn inputs_digest(inp: &Inputs) -> String {
    let mut h = Fnv::default();
    h.f32s(inp.tables[0].as_slice()).f32s(inp.rel.as_slice());
    for s in &inp.schedules {
        for a in s {
            h.f64(a.due_s).u64(u64::from(a.head)).u64(u64::from(a.rel));
        }
    }
    h.hex()
}

/// Digest of a small fixed-seed table and schedule from the same
/// generators, checked on every run whatever the seed.
pub fn canary_digest() -> String {
    let mut rng = StdRng::seed_from_u64(7);
    let t = EmbeddingTable::xavier(64, 8, &mut rng);
    let heads = PermutedZipf::new(64, ENTITY_ZIPF, 7);
    let rels = ZipfSampler::new(8, RELATION_ZIPF);
    let mut h = Fnv::default();
    h.f32s(t.as_slice());
    for a in schedule(REFERENCE_QPS, 100, 7, &heads, &rels) {
        h.f64(a.due_s).u64(u64::from(a.head)).u64(u64::from(a.rel));
    }
    h.hex()
}

struct Server {
    hub: SnapshotHub,
    engine: ServeEngine,
    generation: usize,
}

fn start_server(inp: &Inputs, tr: &mut Tracer) -> Server {
    let model: Arc<dyn KgeModel> = Arc::new(ComplEx::new(RANK));
    let hub = SnapshotHub::new(model);
    tr.span("kge-serve", "first_snapshot", 0, || {
        hub.publish_tables(0, 0.0, &inp.tables[0], &inp.rel)
    });
    let mut engine = ServeEngine::new(hub.latest().expect("first snapshot published"));
    // Warm-up: size the engine's pooled buffers at a typical batch.
    for a in inp.schedules[0].iter().take(8) {
        engine.submit(query(a));
    }
    engine.drain();
    Server {
        hub,
        engine,
        generation: 0,
    }
}

fn query(a: &Arrival) -> Query {
    Query {
        head: a.head,
        rel: a.rel,
        k: TOP_K,
        filtered: false,
    }
}

/// One ladder step's server: the engine and hub, plus the oracle
/// comparison of sampled answers, made outside the server clock.
struct RateServer<'a> {
    srv: &'a mut Server,
    inp: &'a Inputs,
    arrivals: &'a [Arrival],
    checks: &'a mut Checks,
    oracle: &'a mut (usize, usize),
    tr: Option<&'a mut Tracer>,
    batch: u64,
}

impl RateServer<'_> {
    fn span<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce(&mut Server) -> T) -> T {
        match self.tr.as_mut() {
            Some(t) => {
                let id = t.begin("kge-serve", name, request);
                let out = f(self.srv);
                t.end(id);
                out
            }
            None => f(self.srv),
        }
    }
}

impl LoopServer for RateServer<'_> {
    fn drain(&mut self, range: Range<usize>) -> (f64, usize) {
        self.batch += 1;
        for a in &self.arrivals[range.clone()] {
            self.srv.engine.submit(query(a));
        }
        let t = Instant::now();
        let answered = self.span("drain", self.batch, |s| s.engine.drain().len());
        let dt = t.elapsed().as_secs_f64();
        let n = range.len();
        self.checks.count(
            n as u64,
            n.saturating_sub(answered) as u64,
            "every arrived query answered",
        );
        for i in range.clone().filter(|i| i % ORACLE_EVERY == 0) {
            let q = query(&self.arrivals[i]);
            let engine = &self.srv.engine;
            let ok = engine.results().get(i - range.start) == engine.oracle(&q).as_slice();
            self.oracle.0 += usize::from(ok);
            self.oracle.1 += 1;
            self.checks
                .expect(ok, "served top-k equals ServeEngine::oracle");
        }
        (dt, answered)
    }

    fn publish(&mut self, clock_s: f64) -> f64 {
        self.srv.generation += 1;
        let generation = self.srv.generation;
        let inp = self.inp;
        let table = &inp.tables[generation % 2];
        let t = Instant::now();
        self.span("publish", generation as u64, |s| {
            s.hub.publish_tables(generation, clock_s, table, &inp.rel)
        });
        self.span("install", generation as u64, |s| {
            s.engine
                .install(s.hub.latest().expect("snapshot just published"))
        });
        t.elapsed().as_secs_f64()
    }
}

fn run_rate(
    srv: &mut Server,
    inp: &Inputs,
    arrivals: &[Arrival],
    checks: &mut Checks,
    oracle: &mut (usize, usize),
    tr: Option<&mut Tracer>,
) -> LoopOutcome {
    let due: Vec<f64> = arrivals.iter().map(|a| a.due_s).collect();
    let mut server = RateServer {
        srv,
        inp,
        arrivals,
        checks,
        oracle,
        tr,
        batch: 0,
    };
    open_loop(&due, PUBLISH_EVERY_S, &mut server)
}

fn step_of(rate: f64, out: &LoopOutcome, n: usize) -> RateStep {
    RateStep {
        offered_qps: rate,
        p99_ms: nearest_rank(&out.latency_s, 99.0) * 1e3,
        backlog_growing: backlog_growing(&out.batch_sizes),
        all_answered: out.answered == n,
    }
}

pub fn run(args: &RunArgs, pinned: &dyn Fn(&str) -> Option<String>) -> RunResult {
    let mut res = RunResult::new(args);
    let origin = Instant::now();
    let mut tr = Tracer::new(origin, DRIVER_TRACK);

    let repeats = if args.trace { 1 } else { SETUP_REPEATS };
    let mut setup_s = Vec::with_capacity(repeats);
    let mut state = None;
    for _ in 0..repeats {
        drop(state.take());
        let t = Instant::now();
        let inp = make_inputs(args.seed, &mut tr);
        let srv = start_server(&inp, &mut tr);
        setup_s.push(t.elapsed().as_secs_f64());
        state = Some((inp, srv));
    }
    let (inp, mut srv) = state.expect("at least one set-up");
    res.check_input(
        "inputs",
        &inputs_digest(&inp),
        pinned(&args.seed.to_string()),
    );
    res.check_input("canary", &canary_digest(), pinned("canary"));

    let mut oracle_ok = (0usize, 0usize);
    let mut steps = Vec::new();
    let mut reference = None;
    for (i, &rate) in RATES.iter().enumerate() {
        let out = run_rate(
            &mut srv,
            &inp,
            &inp.schedules[i],
            &mut res.checks,
            &mut oracle_ok,
            None,
        );
        steps.push(step_of(rate, &out, QUERIES_PER_RATE));
        let lat_ms: Vec<f64> = out.latency_s.iter().map(|x| x * 1e3).collect();
        res.spread(&format!("latency_ms@{rate}"), &lat_ms);
        if rate == REFERENCE_QPS {
            reference = Some(out);
        }
    }
    let reference = reference.expect("the ladder holds the reference rate");
    let busy = |o: &LoopOutcome| o.drain_s.iter().sum::<f64>() + o.publish_s.iter().sum::<f64>();
    let drain_total: f64 = reference.drain_s.iter().sum();
    let work_per_s = reference.answered as f64 / busy(&reference);
    let candidates_per_s = (reference.answered * N_ENTITIES) as f64 / drain_total;
    let lat_ms: Vec<f64> = reference.latency_s.iter().map(|x| x * 1e3).collect();
    let (tail_p, tail_ms) = tail_percentile(&lat_ms);
    let p50 = median(&lat_ms);
    let slo = slo_qps(&steps, P99_LIMIT_MS);

    let m = &mut res.metrics;
    m.set("setup_s", median(&setup_s));
    m.set("work_per_s", work_per_s);
    m.set("peak_rss_mb", peak_rss_mb());
    res.headline("serve_candidates_per_s", candidates_per_s, "1/s");
    res.headline("serve_p50_ms", p50, "ms");
    res.headline("serve_p99_ms", tail_ms, "ms");
    res.headline("serve_p99_samples", lat_ms.len() as f64, "count");
    res.headline("serve_slo_qps", slo, "queries/s");
    res.note("reference_qps", REFERENCE_QPS);
    res.note("latency_tail_percentile", tail_p);
    res.note("p99_limit_ms", P99_LIMIT_MS);
    res.note("generator_late_ms", 0.0);
    for s in &steps {
        res.note(&format!("p99_ms@{}", s.offered_qps), s.p99_ms);
        res.note(
            &format!("backlog_growing@{}", s.offered_qps),
            f64::from(u8::from(s.backlog_growing)),
        );
    }

    if args.trace {
        // The reference rate once more, traced; its own numbers sit beside
        // the untraced ones and the difference is the tracing overhead.
        let i = RATES
            .iter()
            .position(|&r| r == REFERENCE_QPS)
            .expect("reference in ladder");
        let step = tr.begin("kge-serve", "reference_rate", 0);
        let traced = run_rate(
            &mut srv,
            &inp,
            &inp.schedules[i],
            &mut res.checks,
            &mut oracle_ok,
            Some(&mut tr),
        );
        tr.end(step);
        let traced_work = traced.answered as f64 / busy(&traced);
        let m = &mut res.metrics;
        m.set(
            "bench.tracing_overhead_share",
            work_per_s / traced_work - 1.0,
        );
        let spans = tr.spans();
        m.set(
            "kge-data.generate_s",
            durations(spans, "kge-data", "generate").iter().sum(),
        );
        m.set("kge-serve.p50_ms", p50);
        m.set("kge-serve.p99_ms", tail_ms);
        m.set("kge-serve.p99_samples", lat_ms.len() as f64);
        m.set("kge-serve.slo_qps", slo);
        let drains: Vec<f64> = durations(spans, "kge-serve", "drain")
            .iter()
            .map(|x| x * 1e3)
            .collect();
        m.set("kge-serve.drain_p50_ms", median(&drains));
        m.set("kge-serve.drain_tail_ms", tail_percentile(&drains).1);
        let per_query = |lo: usize, hi: usize| {
            let xs: Vec<f64> = reference
                .batch_sizes
                .iter()
                .zip(&reference.drain_s)
                .filter(|(&b, _)| b >= lo && b <= hi)
                .map(|(&b, &d)| d / b as f64 * 1e6)
                .collect();
            median(&xs)
        };
        m.set("kge-serve.us_per_query_b1", per_query(1, 1));
        m.set("kge-serve.us_per_query_b2_7", per_query(2, 7));
        m.set("kge-serve.us_per_query_b8plus", per_query(8, usize::MAX));
        let wait_ms: Vec<f64> = reference
            .latency_s
            .iter()
            .zip(&reference.own_drain_s)
            .map(|(l, d)| (l - d) * 1e3)
            .collect();
        m.set("kge-serve.queue_wait_p50_ms", median(&wait_ms));
        m.set("kge-serve.queue_wait_p99_ms", nearest_rank(&wait_ms, 99.0));
        m.set(
            "kge-serve.mean_batch",
            reference.answered as f64 / reference.batch_sizes.len() as f64,
        );
        let publish_ms: Vec<f64> = durations(spans, "kge-serve", "publish")
            .iter()
            .map(|x| x * 1e3)
            .collect();
        m.set("kge-serve.publish_p50_ms", median(&publish_ms));
        m.set(
            "kge-serve.publish_max_ms",
            publish_ms.iter().cloned().fold(0.0, f64::max),
        );
        let install_us: Vec<f64> = durations(spans, "kge-serve", "install")
            .iter()
            .map(|x| x * 1e6)
            .collect();
        m.set("kge-serve.install_us", median(&install_us));
        m.set(
            "kge-serve.oracle_match_ratio",
            oracle_ok.0 as f64 / oracle_ok.1.max(1) as f64,
        );
        res.note("traced_work_per_s", traced_work);
        res.spread(
            "traced_latency_ms",
            &traced.latency_s.iter().map(|x| x * 1e3).collect::<Vec<_>>(),
        );
    }
    res.spans = tr.spans().to_vec();
    res
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fixed drain and publish costs; records publication times.
    struct Fake {
        drain_s: f64,
        publish_s: f64,
        published: Vec<f64>,
    }

    impl Fake {
        fn new(drain_s: f64, publish_s: f64) -> Self {
            Fake {
                drain_s,
                publish_s,
                published: Vec::new(),
            }
        }
    }

    impl LoopServer for Fake {
        fn drain(&mut self, range: Range<usize>) -> (f64, usize) {
            (self.drain_s, range.len())
        }

        fn publish(&mut self, clock_s: f64) -> f64 {
            self.published.push(clock_s);
            self.publish_s
        }
    }

    #[test]
    fn schedule_is_a_pure_function_of_the_seed() {
        let heads = PermutedZipf::new(1000, 1.0, 3);
        let rels = ZipfSampler::new(16, 0.9);
        let a = schedule(100.0, 500, 9, &heads, &rels);
        assert_eq!(a, schedule(100.0, 500, 9, &heads, &rels));
        assert_ne!(a, schedule(100.0, 500, 10, &heads, &rels));
        assert!(a.windows(2).all(|w| w[0].due_s < w[1].due_s));
    }

    #[test]
    fn latency_runs_from_the_due_time() {
        // Arrivals every 100 ms, each drain takes 10 ms: no queueing.
        let due: Vec<f64> = (1..=5).map(|i| i as f64 * 0.1).collect();
        let out = open_loop(&due, 100.0, &mut Fake::new(0.01, 0.0));
        assert_eq!(out.batch_sizes, vec![1; 5]);
        for l in &out.latency_s {
            assert!((l - 0.01).abs() < 1e-12);
        }
        // Three arrivals land during one 50 ms drain: they share the next
        // drain, and each waits from its own due time.
        let due = [0.0, 0.01, 0.02, 0.03];
        let out = open_loop(&due, 100.0, &mut Fake::new(0.05, 0.0));
        assert_eq!(out.batch_sizes, vec![1, 3]);
        let want = [0.05, 0.09, 0.08, 0.07];
        for (l, w) in out.latency_s.iter().zip(want) {
            assert!((l - w).abs() < 1e-12, "{l} vs {w}");
        }
        assert_eq!(out.answered, 4);
    }

    #[test]
    fn a_publication_stalls_the_queries_behind_it() {
        // A 200 ms publication is due at t = 1 s; a query due at 1.05 s
        // waits for it to finish before its 10 ms drain.
        let due = [0.5, 1.05];
        let mut fake = Fake::new(0.01, 0.2);
        let out = open_loop(&due, 1.0, &mut fake);
        assert_eq!(fake.published, vec![1.0]);
        assert!((out.latency_s[1] - (1.2 + 0.01 - 1.05)).abs() < 1e-12);
        assert!((out.own_drain_s[1] - 0.01).abs() < 1e-12);
    }
}
