//! `serve`: the §2.2 torrent at the root. The calibrated DITL unit (1/8000
//! of the paper's day: 712,500 queries from 512 resolvers) is replayed
//! through `runtime::serve` against the 1,532-TLD root zone, one shard
//! thread plus the injector, memo and classification on — the
//! configuration of `experiments traffic --runtime-threads 1`.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rootless_ditl::classify::{classify_stream, Classifier, TrafficReport};
use rootless_ditl::population::{bogus_labels, WorkloadConfig};
use rootless_ditl::trace::{Query, QueryName, TraceStream};
use rootless_proto::message::Message;
use rootless_proto::name::Name;
use rootless_proto::rr::RType;
use rootless_proto::view::MessageView;
use rootless_proto::wire::Encoder;
use rootless_runtime::shard::{NameTable, ShardState};
use rootless_runtime::{serve, QnamePools, RuntimeConfig, ServeReport};
use rootless_server::auth::AuthServer;
use rootless_util::rng::substream_seed;
use rootless_zone::rootzone::{self, RootZoneConfig};
use rootless_zone::zone::Zone;

use crate::alloc::AllocCount;
use crate::report::{median, ms, peak_rss_mb, repeated_setup, Checks, Outcome};
use crate::trace::Tracer;

/// Divisor from the paper's day to one replay.
pub const UNIT_DIVISOR: u64 = 8_000;

/// The workload of one replay, its stream drawn from `seed`.
pub fn workload(seed: u64) -> WorkloadConfig {
    let base = WorkloadConfig::default();
    WorkloadConfig {
        total_queries: 5_700_000_000 / UNIT_DIVISOR,
        resolvers: (4_100_000 / UNIT_DIVISOR) as u32,
        seed: substream_seed(base.seed, seed),
        ..base
    }
}

/// The 1,532-TLD root zone every replay is served from.
fn root_zone() -> Zone {
    rootzone::build(&RootZoneConfig::default())
}

fn runtime_config() -> RuntimeConfig {
    RuntimeConfig {
        threads: 1,
        classify: true,
        ..RuntimeConfig::default()
    }
}

struct Setup {
    cfg: WorkloadConfig,
    zone: Arc<Zone>,
    pools: QnamePools,
    /// The untimed warm replay; every timed replay must equal it.
    warm: ServeReport,
}

fn setup(seed: u64) -> Setup {
    let zone = Arc::new(root_zone());
    let cfg = workload(seed);
    let pools = QnamePools::build(&cfg, &zone);
    let warm = serve(&cfg, 1, &zone, &pools, &runtime_config());
    Setup {
        cfg,
        zone,
        pools,
        warm,
    }
}

/// What the stream itself says a replay must produce, computed by
/// iterating `TraceStream` directly, apart from the runtime.
#[derive(Clone, Debug, PartialEq)]
pub struct StreamFacts {
    pub expected: u64,
    pub valid: u64,
    pub bogus: u64,
    pub traffic: TrafficReport,
    /// Labels of the junk pool that the zone delegates. A stream that tags
    /// such a label junk is self-contradictory: the server rightly refers
    /// it, so the NXDOMAIN, referral and traffic checks fail with it.
    pub delegated_junk: Vec<String>,
}

pub fn stream_facts(cfg: &WorkloadConfig, zone: &Zone) -> StreamFacts {
    let (mut valid, mut bogus) = (0u64, 0u64);
    for q in TraceStream::new(cfg, 1) {
        match q.name {
            QueryName::ValidTld(_) => valid += 1,
            QueryName::BogusTld(_) => bogus += 1,
        }
    }
    StreamFacts {
        expected: TraceStream::expected_queries(cfg, 1),
        valid,
        bogus,
        traffic: classify_stream(TraceStream::new(cfg, 1)),
        delegated_junk: delegated_junk(cfg, zone),
    }
}

/// The labels of `cfg`'s junk pool that `zone` delegates.
/// `ditl::population::bogus_labels` does not exclude the zone's TLDs, and
/// some seeds draw one (seeds 1, 2 and 7 of 1..=40 draw `pro`, `biz` or
/// `tel`); such a run reports `correct: false` until the generator
/// excludes them.
fn delegated_junk(cfg: &WorkloadConfig, zone: &Zone) -> Vec<String> {
    let tlds: HashSet<Name> = zone.tlds().into_iter().collect();
    bogus_labels(cfg.bogus_label_count, cfg.seed)
        .into_iter()
        .filter(|l| Name::parse(l).is_ok_and(|n| tlds.contains(&n)))
        .collect()
}

/// The checked fields of one replay.
#[derive(Clone, Debug, PartialEq)]
pub struct Replay {
    pub injected: u64,
    pub served: u64,
    pub nxdomain: u64,
    pub referrals: u64,
    pub parse_errors: u64,
    pub slow_path: u64,
    pub resp_xor: u64,
    pub traffic: Option<TrafficReport>,
}

impl Replay {
    fn of(r: &ServeReport) -> Replay {
        Replay {
            injected: r.injected,
            served: r.served,
            nxdomain: r.snapshot.counter("auth.nxdomain"),
            referrals: r.snapshot.counter("auth.referrals"),
            parse_errors: r.parse_errors,
            slow_path: r.slow_path,
            resp_xor: r.resp_xor,
            traffic: r.traffic.clone(),
        }
    }
}

/// Checks one replay against the stream's own facts: every query injected
/// and served, bogus TLDs answered NXDOMAIN and valid ones referred, the
/// runtime's classification equal to the classifier over the raw stream,
/// no parse errors and no slow path.
pub fn check_replay(r: &Replay, facts: &StreamFacts, checks: &mut Checks) {
    checks.check(facts.delegated_junk.is_empty(), || {
        format!(
            "the stream tags delegated TLDs {:?} as junk (ditl::population::bogus_labels does not exclude the zone's TLDs)",
            facts.delegated_junk
        )
    });
    checks.eq(
        "stream length vs expected_queries",
        facts.valid + facts.bogus,
        facts.expected,
    );
    checks.eq("injected", r.injected, facts.expected);
    checks.eq("served", r.served, facts.expected);
    checks.eq(
        "auth.nxdomain vs bogus-TLD queries",
        r.nxdomain,
        facts.bogus,
    );
    checks.eq(
        "auth.referrals vs valid-TLD queries",
        r.referrals,
        facts.valid,
    );
    checks.check(r.traffic.as_ref() == Some(&facts.traffic), || {
        "runtime traffic report differs from classify_stream over the raw stream".into()
    });
    checks.eq("parse errors", r.parse_errors, 0);
    checks.eq("slow-path queries", r.slow_path, 0);
}

/// The untraced workload: whole replays until `seconds` have passed.
pub fn run(seed: u64, seconds: Duration) -> Outcome {
    let (setup_s, s) = repeated_setup(|| setup(seed));
    let rt = runtime_config();
    let mut replays = Vec::new();
    let mut op_ms = Vec::new();
    let start = Instant::now();
    while replays.is_empty() || start.elapsed() < seconds {
        let t = Instant::now();
        let r = serve(&s.cfg, 1, &s.zone, &s.pools, &rt);
        op_ms.push(ms(t.elapsed()));
        replays.push(Replay::of(&r));
    }
    let wall = start.elapsed().as_secs_f64();

    let facts = stream_facts(&s.cfg, &s.zone);
    let warm = Replay::of(&s.warm);
    let mut checks = Checks::default();
    check_replay(&warm, &facts, &mut checks);
    for r in &replays {
        checks.check(*r == warm, || {
            format!("a timed replay differs from the warm replay: {r:?}")
        });
    }

    let mut out = Outcome {
        attempted: replays.iter().map(|r| r.injected).sum(),
        failed: replays
            .iter()
            .map(|r| r.injected - r.served.min(r.injected))
            .sum(),
        ..Outcome::default()
    };
    let served: u64 = replays.iter().map(|r| r.served).sum();
    out.metric("setup_s", "s", setup_s);
    out.metric("rate_per_s", "1/s", served as f64 / wall);
    out.metric("op_p50_ms", "ms", median(&op_ms));
    out.metric("peak_rss_mb", "MB", peak_rss_mb());
    out.absorb(checks);
    out
}

fn ns_per(start: Instant, n: usize) -> f64 {
    start.elapsed().as_nanos() as f64 / n.max(1) as f64
}

/// The traced probe: each stage of the serving path re-driven
/// single-threaded over the same stream, then one untraced pipeline replay
/// for comparison.
pub fn traced(seed: u64, tracer: &mut Tracer, out: &mut Outcome) {
    let s = setup(seed);
    let facts = stream_facts(&s.cfg, &s.zone);
    let mut checks = Checks::default();
    tracer.span("serve", None, |tracer, root| {
        // ditl: generate the stream.
        let (stream_ns, queries) = tracer.span("ditl.stream", Some(root), |_, _| {
            let t = Instant::now();
            let queries: Vec<Query> = TraceStream::new(&s.cfg, 1).collect();
            (ns_per(t, queries.len()), queries)
        });
        let n = queries.len();

        // proto: encode every query as the injector does, into one flat
        // frame buffer.
        let (encode_ns, frames, ends) = tracer.span("proto.encode", Some(root), |_, _| {
            let mut enc = Encoder::new();
            let mut qmsg = Message::query(0, Name::root(), RType::A);
            let mut frames: Vec<u8> = Vec::with_capacity(n * 40);
            let mut ends: Vec<usize> = Vec::with_capacity(n);
            let t = Instant::now();
            for (i, q) in queries.iter().enumerate() {
                qmsg.header.id = i as u16;
                qmsg.questions[0].qname = qname(&s.pools, q.name);
                qmsg.encode_into(&mut enc);
                frames.extend_from_slice(enc.wire());
                ends.push(frames.len());
            }
            (ns_per(t, n), frames, ends)
        });
        let frame = |i: usize| &frames[if i == 0 { 0 } else { ends[i - 1] }..ends[i]];

        let parse_ns = tracer.span("proto.view_parse", Some(root), |_, _| {
            let t = Instant::now();
            let mut ok = 0usize;
            for i in 0..n {
                ok += MessageView::parse(std::hint::black_box(frame(i))).is_ok() as usize;
            }
            checks.eq("frames that parse", ok, n);
            ns_per(t, n)
        });

        let classify_ns = tracer.span("ditl.classify", Some(root), |_, _| {
            let t = Instant::now();
            let mut c = Classifier::new();
            for q in &queries {
                c.observe(q);
            }
            let ns = ns_per(t, n);
            checks.check(c.finish() == facts.traffic, || {
                "re-driven classifier differs".into()
            });
            ns
        });

        // runtime: one shard serving every frame (first pass, memo filling
        // as in a replay), then a steady-state pass counting allocations.
        let (serve_frame_ns, allocs_per_query) =
            tracer.span("runtime.serve_frame", Some(root), |_, _| {
                let table = Arc::new(NameTable::build(&s.pools.tlds, &s.pools.bogus));
                let mut state = ShardState::new(Arc::clone(&s.zone), table, 0, &runtime_config());
                let t = Instant::now();
                for (i, q) in queries.iter().enumerate() {
                    state.serve_frame(q.time, q.resolver, frame(i));
                }
                let ns = ns_per(t, n);
                let before = AllocCount::now();
                for (i, q) in queries.iter().enumerate() {
                    state.serve_frame(q.time, q.resolver, frame(i));
                }
                let allocs = before.since().allocs;
                let outcome = state.finish();
                checks.eq("re-driven shard served", outcome.served, 2 * n as u64);
                (ns, allocs as f64 / n as f64)
            });

        // server: AuthServer::handle_into on every query, no memo.
        let handle_ns = tracer.span("server.handle", Some(root), |_, _| {
            let mut server = AuthServer::new_shared(Arc::clone(&s.zone));
            server.dnssec_enabled = false;
            let mut query = Message::query(0, Name::root(), RType::A);
            let mut resp = Message::default();
            let t = Instant::now();
            for (i, q) in queries.iter().enumerate() {
                query.header.id = i as u16;
                query.questions[0].qname = qname(&s.pools, q.name);
                server.handle_into(&query, &mut resp);
                std::hint::black_box(&resp);
            }
            ns_per(t, n)
        });

        // The whole pipeline, untraced inside: injector + shard threads.
        let (r, allocs) = tracer.span("runtime.pipeline", Some(root), |_, _| {
            let before = AllocCount::now();
            let r = serve(&s.cfg, 1, &s.zone, &s.pools, &runtime_config());
            (r, before.since().allocs)
        });
        check_replay(&Replay::of(&r), &facts, &mut checks);
        let pipeline_ns = r.elapsed * 1e9 / r.served.max(1) as f64;

        out.attempted += r.injected + 5 * n as u64;
        out.failed += r.injected - r.served.min(r.injected);
        out.metric("ditl.stream_ns_per_query", "ns", stream_ns);
        out.metric("proto.encode_ns_per_query", "ns", encode_ns);
        out.metric("proto.view_parse_ns_per_query", "ns", parse_ns);
        out.metric("ditl.classify_ns_per_query", "ns", classify_ns);
        out.metric("runtime.serve_frame_ns_per_query", "ns", serve_frame_ns);
        out.metric("runtime.pipeline_ns_per_query", "ns", pipeline_ns);
        out.metric(
            "runtime.stage_overlap",
            "ratio",
            (stream_ns + encode_ns + serve_frame_ns) / pipeline_ns,
        );
        out.metric(
            "runtime.memo_hit_ratio",
            "ratio",
            r.memo_hits as f64 / r.served.max(1) as f64,
        );
        out.metric("runtime.memo_base_queries", "count", r.served as f64);
        out.metric("runtime.allocs_per_query", "count", allocs_per_query);
        out.metric("runtime.allocs_per_replay", "count", allocs as f64);
        out.metric("server.handle_ns_per_query", "ns", handle_ns);
    });
    out.absorb(checks);
}

fn qname(pools: &QnamePools, name: QueryName) -> Name {
    match name {
        QueryName::ValidTld(t) => pools.tlds[t as usize].clone(),
        QueryName::BogusTld(b) => pools.bogus[b as usize % pools.bogus.len()].clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> WorkloadConfig {
        WorkloadConfig {
            total_queries: 5_000,
            resolvers: 20,
            valid_tld_count: 60,
            new_tld_start: 50,
            bogus_label_count: 40,
            ..workload(3)
        }
    }

    fn zone_of(cfg: &WorkloadConfig) -> Zone {
        rootzone::build(&RootZoneConfig::small(cfg.valid_tld_count))
    }

    fn facts(cfg: &WorkloadConfig) -> StreamFacts {
        stream_facts(cfg, &zone_of(cfg))
    }

    fn served(cfg: &WorkloadConfig) -> Replay {
        let zone = Arc::new(zone_of(cfg));
        let pools = QnamePools::build(cfg, &zone);
        Replay::of(&serve(cfg, 1, &zone, &pools, &runtime_config()))
    }

    #[test]
    fn a_correct_replay_passes() {
        let cfg = small();
        let mut checks = Checks::default();
        check_replay(&served(&cfg), &facts(&cfg), &mut checks);
        assert!(checks.passed(), "{:?}", checks.failures);
    }

    #[test]
    fn an_nxdomain_count_off_by_one_is_rejected() {
        let cfg = small();
        let mut wrong = served(&cfg);
        wrong.nxdomain += 1;
        let mut checks = Checks::default();
        check_replay(&wrong, &facts(&cfg), &mut checks);
        assert_eq!(checks.failures.len(), 1, "{:?}", checks.failures);
        assert!(checks.failures[0].contains("auth.nxdomain"));
    }

    #[test]
    fn a_dropped_query_or_a_misclassified_stream_is_rejected() {
        let cfg = small();
        let facts = facts(&cfg);
        let mut dropped = served(&cfg);
        dropped.served -= 1;
        let mut checks = Checks::default();
        check_replay(&dropped, &facts, &mut checks);
        assert!(!checks.passed());

        let mut misclassified = served(&cfg);
        misclassified
            .traffic
            .as_mut()
            .expect("classification on")
            .bogus_queries += 1;
        let mut checks = Checks::default();
        check_replay(&misclassified, &facts, &mut checks);
        assert!(!checks.passed());
    }

    #[test]
    fn a_stream_tagging_a_delegated_tld_as_junk_is_rejected() {
        let cfg = small();
        let mut facts = facts(&cfg);
        facts.delegated_junk = vec!["pro".into()];
        let mut checks = Checks::default();
        check_replay(&served(&cfg), &facts, &mut checks);
        assert_eq!(checks.failures.len(), 1, "{:?}", checks.failures);
        assert!(checks.failures[0].contains("delegated TLDs [\"pro\"]"));
    }
}
