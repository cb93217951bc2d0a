//! `resolve`: the resolver side. Stub clients → `RecursiveNode`s → the
//! 26-instance anycast root fleet or a local root → TLD servers, on one
//! `ShardedSim` shard (the plain timing-wheel `Sim`), one world per root
//! mode. Every root and TLD packet goes through `AuthServer`, the codec,
//! the resolver cache and the wheel; `ditl` and `runtime` are absent.
//!
//! Inputs: the 1,532-TLD root zone; each resolver's plan is a mix of
//! `www.domainN.<tld>` names whose TLDs are drawn from the seed by the
//! calibrated DITL popularity model (`ditl::population::tld_weights`, the
//! weights the `serve` stream uses), plus a fixed, seed-independent tenth
//! of lookups for junk TLDs (the classic leaked labels).
//!
//! One fault is kept in `failed`: in preload mode `RecursiveNode` sends any
//! name without a cached delegation — each junk TLD — to the anycast roots
//! (the `find_start` fallback), where the mode exists to answer it from the
//! local copy. Such a lookup gets the right NXDOMAIN but fails at what
//! preload is for, so it counts as failed. The root fleet logs every query
//! it receives; a preload run is correct only if each logged query is the
//! first lookup of one of its resolver's junk names, so a delegated name
//! that reaches the root fails the run. The junk lookups do not depend on
//! the seed, so the failed share is the same on every run.

use std::collections::{HashMap, HashSet};
use std::net::Ipv4Addr;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rootless_ditl::population::{tld_weights, WorkloadConfig, BOGUS_SEED_LABELS};
use rootless_netsim::geo::{city_point, GeoPoint};
use rootless_netsim::psim::{PNodeId, ShardedSim};
use rootless_netsim::sim::{Ctx, Datagram, Node};
use rootless_proto::message::Rcode;
use rootless_proto::name::Name;
use rootless_proto::rr::{RData, RType};
use rootless_proto::view::MessageView;
use rootless_resolver::node::{NodeRootSource, NodeStats, RecursiveNode, StubClient};
use rootless_server::auth::{tld_server, AuthServer};
use rootless_server::node::{root_anycast_addrs, ServerNode};
use rootless_util::digest::StateDigest;
use rootless_util::rng::{substream_seed, DetRng};
use rootless_util::time::SimDuration;
use rootless_zone::rootzone::{self, RootZoneConfig};
use rootless_zone::zone::Zone;

use crate::report::{median, ms, peak_rss_mb, repeated_setup, Checks, Outcome};
use crate::trace::{inner, Timed, Tracer};

/// Recursive resolvers per world, each with one stub client.
pub const RESOLVERS: usize = 16;
/// Lookups each stub client plans.
pub const LOOKUPS: usize = 150;
/// Sim-time spacing between a client's lookups.
const SPACING_MS: u64 = 200;
/// Every tenth lookup names a junk TLD.
const BOGUS_EVERY: usize = 10;
/// Junk labels in rotation (the first of the classic leaked labels).
const BOGUS_LABELS: usize = 12;
/// Second-level domains each TLD server carries.
const SLDS: usize = 3;
/// Traced rounds (each: every mode once plain, once traced).
const TRACED_ROUNDS: usize = 3;

/// The four root modes, in report order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    Hints,
    LocalZone,
    Preload,
    Loopback,
}

impl Mode {
    pub const ALL: [Mode; 4] = [Mode::Hints, Mode::LocalZone, Mode::Preload, Mode::Loopback];

    pub fn name(self) -> &'static str {
        match self {
            Mode::Hints => "hints",
            Mode::LocalZone => "local-zone",
            Mode::Preload => "preload",
            Mode::Loopback => "loopback",
        }
    }
}

/// One `AuthServer` per TLD, deduplicated across shared glue addresses,
/// built once and cloned into every world.
struct TldServers {
    servers: Vec<AuthServer>,
    /// `(glue address, server index)` sorted by address.
    placed: Vec<(Ipv4Addr, usize)>,
}

impl TldServers {
    fn build(zone: &Zone) -> TldServers {
        let mut by_addr: HashMap<Ipv4Addr, usize> = HashMap::new();
        let mut servers: Vec<AuthServer> = Vec::new();
        for (ti, tld) in zone.tlds().into_iter().enumerate() {
            let auth = tld_server(&tld, SLDS, ti as u64);
            let tld_zone = auth.zone_shared();
            let mut idx: Option<usize> = None;
            for r in zone.delegation_records(&tld) {
                let RData::A(addr) = r.rdata else { continue };
                if let Some(&existing) = by_addr.get(&addr) {
                    servers[existing].add_zone(Arc::clone(&tld_zone));
                    continue;
                }
                let i = *idx.get_or_insert_with(|| {
                    servers.push(auth.clone());
                    servers.len() - 1
                });
                by_addr.insert(addr, i);
            }
        }
        let mut placed: Vec<(Ipv4Addr, usize)> = by_addr.into_iter().collect();
        placed.sort_by_key(|(addr, _)| u32::from(*addr));
        TldServers { servers, placed }
    }
}

/// Per client and lookup: the name, is it a junk-TLD name, and is it the
/// client's first lookup of that name (a cold lookup)?
#[derive(Clone, Debug, PartialEq)]
pub struct PlanMeta {
    pub names: Vec<Vec<Name>>,
    pub bogus: Vec<Vec<bool>>,
    pub cold: Vec<Vec<bool>>,
}

type Plan = Vec<(SimDuration, Name, RType)>;

struct Inputs {
    zone: Arc<Zone>,
    tld_servers: TldServers,
    plans: Vec<Plan>,
    meta: PlanMeta,
    world_seed: u64,
}

fn inputs(seed: u64) -> Inputs {
    let zone = Arc::new(rootzone::build(&RootZoneConfig::default()));
    let tld_servers = TldServers::build(&zone);
    let tlds = zone.tlds();
    let weights = tld_weights(&WorkloadConfig {
        valid_tld_count: tlds.len(),
        ..WorkloadConfig::default()
    });
    let mut plans = Vec::with_capacity(RESOLVERS);
    let mut meta = PlanMeta {
        names: Vec::new(),
        bogus: Vec::new(),
        cold: Vec::new(),
    };
    for r in 0..RESOLVERS {
        let mut rng = DetRng::seed_from_u64(substream_seed(seed, r as u64));
        let mut seen = HashSet::new();
        let (mut plan, mut bogus, mut cold) = (Vec::new(), Vec::new(), Vec::new());
        for i in 0..LOOKUPS {
            let is_bogus = i % BOGUS_EVERY == BOGUS_EVERY - 1;
            let name = if is_bogus {
                // Seed-independent on purpose (see the module docs).
                let label = BOGUS_SEED_LABELS[(r + i / BOGUS_EVERY) % BOGUS_LABELS];
                Name::parse(&format!("www.{label}")).expect("junk labels are valid names")
            } else {
                let t = rng.weighted_index(&weights);
                let d = rng.below(SLDS as u64);
                tlds[t]
                    .child(format!("domain{d}"))
                    .and_then(|n| n.child("www"))
                    .expect("www.domainN.<tld> is a valid name")
            };
            cold.push(seen.insert(name.clone()));
            bogus.push(is_bogus);
            plan.push((
                SimDuration::from_millis(SPACING_MS * i as u64),
                name,
                RType::A,
            ));
        }
        meta.names
            .push(plan.iter().map(|(_, n, _)| n.clone()).collect());
        plans.push(plan);
        meta.bogus.push(bogus);
        meta.cold.push(cold);
    }
    Inputs {
        zone,
        tld_servers,
        plans,
        meta,
        world_seed: substream_seed(seed, 0x3e50),
    }
}

fn resolver_addr(r: usize) -> Ipv4Addr {
    Ipv4Addr::new(240, (r >> 8) as u8, (r & 0xff) as u8, 53)
}

fn client_addr(r: usize) -> Ipv4Addr {
    Ipv4Addr::new(241, (r >> 8) as u8, (r & 0xff) as u8, 2)
}

fn loopback_addr(r: usize) -> Ipv4Addr {
    Ipv4Addr::new(242, (r >> 8) as u8, (r & 0xff) as u8, 1)
}

/// The resolver index behind `resolver_addr(r)`.
fn resolver_index(addr: Ipv4Addr) -> Option<usize> {
    let [a, hi, lo, d] = addr.octets();
    (a == 240 && d == 53).then_some(((hi as usize) << 8) | lo as usize)
}

/// Queries one root-fleet world received, as `(sender, qname)`.
type RootLog = Arc<Mutex<Vec<(Ipv4Addr, Name)>>>;

/// A root-fleet node that logs every query it receives before serving it:
/// which lookups reached the root, read apart from the resolvers' own
/// counters.
struct Logged {
    inner: ServerNode,
    log: RootLog,
}

impl Node for Logged {
    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, dgram: Datagram) {
        if let Ok(view) = MessageView::parse(&dgram.payload) {
            if let Some(Ok(qname)) = view.question().map(|q| q.qname()) {
                if !view.header().response {
                    let mut log = self.log.lock().expect("no thread panicked holding the log");
                    log.push((dgram.src, qname));
                }
            }
        }
        self.inner.on_datagram(ctx, dgram);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        self.inner.on_timer(ctx, token);
    }

    fn state_digest(&self, digest: &mut StateDigest) {
        self.inner.state_digest(digest);
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Root,
    Tld,
    LocalRoot,
    Resolver,
    Stub,
}

struct World {
    sim: ShardedSim,
    clients: Vec<PNodeId>,
    /// Every node with its kind (read back for handler times).
    nodes: Vec<(PNodeId, Kind)>,
    /// Queries served by the anycast root fleet.
    fleet_served: Arc<Mutex<u64>>,
    root_log: RootLog,
}

impl World {
    #[allow(clippy::too_many_arguments)]
    fn add<N: Node>(
        &mut self,
        kind: Kind,
        shard: usize,
        addr: Ipv4Addr,
        geo: GeoPoint,
        node: N,
        rng_seed: Option<u64>,
        traced: bool,
    ) -> PNodeId {
        let boxed: Box<dyn Node> = if traced {
            Box::new(Timed::new(node))
        } else {
            Box::new(node)
        };
        let id = match rng_seed {
            Some(s) => self.sim.add_node_seeded(shard, addr, geo, boxed, s),
            None => self.sim.add_node(shard, addr, geo, boxed),
        };
        self.nodes.push((id, kind));
        id
    }
}

/// Builds one mode's world on `shards` shards, every node wrapped in
/// [`Timed`] when `traced`. Servers go round-robin; each resolver, its
/// client and its loopback root share a shard.
fn build_world(mode: Mode, inp: &Inputs, shards: usize, traced: bool) -> World {
    let seed = inp.world_seed;
    let mut w = World {
        sim: ShardedSim::new(seed, shards),
        clients: Vec::new(),
        nodes: Vec::new(),
        fleet_served: Arc::new(Mutex::new(0)),
        root_log: RootLog::default(),
    };
    let any_addrs = root_anycast_addrs();
    let mut rng = DetRng::seed_from_u64(seed ^ 0xf1ee7);
    let mut k = 0usize;
    for (li, letter) in ('a'..='m').enumerate() {
        let mut ids = Vec::new();
        for i in 0..2usize {
            let uni = Ipv4Addr::new(203, li as u8, 0, (i + 1) as u8);
            let node = Logged {
                inner: ServerNode::new(AuthServer::new_shared(Arc::clone(&inp.zone)))
                    .with_fleet_counter(Arc::clone(&w.fleet_served)),
                log: Arc::clone(&w.root_log),
            };
            let geo = city_point(i * 13 + letter as usize, &mut rng);
            ids.push(w.add(Kind::Root, k % shards, uni, geo, node, None, traced));
            k += 1;
        }
        w.sim.add_anycast(any_addrs[li], ids);
    }
    let mut rng = DetRng::seed_from_u64(seed ^ 0x51d);
    for (addr, idx) in &inp.tld_servers.placed {
        let node = ServerNode::new(inp.tld_servers.servers[*idx].clone());
        w.add(
            Kind::Tld,
            k % shards,
            *addr,
            city_point(idx + 3, &mut rng),
            node,
            None,
            traced,
        );
        k += 1;
    }
    let mut rng = DetRng::seed_from_u64(seed ^ 0x9e01);
    let n = inp.plans.len();
    for (r, plan) in inp.plans.iter().enumerate() {
        let shard = r * shards / n;
        let source = match mode {
            Mode::Hints => NodeRootSource::Hints,
            Mode::LocalZone => NodeRootSource::LocalZone(Arc::clone(&inp.zone)),
            Mode::Preload => NodeRootSource::Preload(Arc::clone(&inp.zone)),
            Mode::Loopback => NodeRootSource::Loopback(loopback_addr(r)),
        };
        // Resolver, loopback root and client share one location.
        let geo = city_point(r, &mut rng);
        let resolver_seed = Some(substream_seed(seed ^ 0x5eed, r as u64));
        w.add(
            Kind::Resolver,
            shard,
            resolver_addr(r),
            geo,
            RecursiveNode::new(source),
            resolver_seed,
            traced,
        );
        if mode == Mode::Loopback {
            let local = ServerNode::new(AuthServer::new_shared(Arc::clone(&inp.zone)));
            w.add(
                Kind::LocalRoot,
                shard,
                loopback_addr(r),
                geo,
                local,
                None,
                traced,
            );
        }
        let client = StubClient::new(resolver_addr(r), plan.clone());
        let cid = w.add(Kind::Stub, shard, client_addr(r), geo, client, None, traced);
        for (i, (d, _, _)) in plan.iter().enumerate() {
            w.sim.schedule_timer(cid, *d, i as u64);
        }
        w.clients.push(cid);
    }
    w
}

/// What one mode's world produced.
#[derive(Clone, Debug, PartialEq)]
pub struct ModeResult {
    pub mode: Mode,
    /// Per client, sorted by plan index: (index, latency, rcode, answers).
    pub clients: Vec<Vec<(u16, SimDuration, Rcode, usize)>>,
    /// Resolver counters summed over the population.
    pub node: NodeStats,
    /// Queries the anycast root fleet served.
    pub fleet_served: u64,
    /// Every query the fleet received, `(sender, qname)`, sorted.
    pub root_log: Vec<(Ipv4Addr, Name)>,
    pub delivered: u64,
}

fn result(mode: Mode, w: &World) -> ModeResult {
    let mut node = NodeStats::default();
    for (id, kind) in &w.nodes {
        if *kind != Kind::Resolver {
            continue;
        }
        let s = &inner::<RecursiveNode>(w.sim.node(*id)).stats;
        node.client_queries += s.client_queries;
        node.answered += s.answered;
        node.nxdomain += s.nxdomain;
        node.servfail += s.servfail;
        node.upstream_queries += s.upstream_queries;
        node.root_queries += s.root_queries;
        node.timeouts += s.timeouts;
        node.cache_answers += s.cache_answers;
        node.stale_answers += s.stale_answers;
        node.max_armed_timeout = node.max_armed_timeout.max(s.max_armed_timeout);
    }
    let clients = w
        .clients
        .iter()
        .map(|id| {
            let mut v: Vec<_> = inner::<StubClient>(w.sim.node(*id))
                .results
                .iter()
                .map(|(i, lat, rc, ans)| (*i, *lat, *rc, ans.len()))
                .collect();
            v.sort_by_key(|(i, ..)| *i);
            v
        })
        .collect();
    let fleet_served = *w
        .fleet_served
        .lock()
        .expect("no thread panicked holding the counter");
    let mut root_log = w
        .root_log
        .lock()
        .expect("no thread panicked holding the log")
        .clone();
    root_log.sort();
    ModeResult {
        mode,
        clients,
        node,
        fleet_served,
        root_log,
        delivered: w.sim.stats().delivered,
    }
}

fn cold_p50_ms(meta: &PlanMeta, r: &ModeResult) -> f64 {
    let mut lat = Vec::new();
    for (c, outcomes) in r.clients.iter().enumerate() {
        for (i, l, ..) in outcomes {
            if meta.cold[c].get(*i as usize) == Some(&true) {
                lat.push(l.as_millis_f64());
            }
        }
    }
    median(&lat)
}

/// Checks the four worlds of one round against the plan and against each
/// other, and returns the failed lookups: unsettled ones, plus the junk
/// lookups a preload resolver sent to the root fleet (the module docs say
/// why those count as failed).
pub fn check_modes(meta: &PlanMeta, results: &[ModeResult], checks: &mut Checks) -> u64 {
    let modes: Vec<Mode> = results.iter().map(|r| r.mode).collect();
    checks.eq("modes", modes, Mode::ALL.to_vec());
    let mut failed = 0u64;
    for r in results {
        let m = r.mode.name();
        for (c, outcomes) in r.clients.iter().enumerate() {
            let planned = meta.bogus[c].len();
            let indices: Vec<usize> = outcomes.iter().map(|(i, ..)| *i as usize).collect();
            let settled =
                indices.len() == planned && indices.iter().enumerate().all(|(k, i)| k == *i);
            checks.check(settled, || {
                format!(
                    "{m}: client {c} settled {} of {planned} lookups",
                    outcomes.len()
                )
            });
            failed += planned.saturating_sub(outcomes.len()) as u64;
            for (i, _, rcode, answers) in outcomes {
                let bogus = meta.bogus[c].get(*i as usize).copied().unwrap_or(false);
                let ok = if bogus {
                    *rcode == Rcode::NxDomain && *answers == 0
                } else {
                    *rcode == Rcode::NoError && *answers > 0
                };
                checks.check(ok, || {
                    format!("{m}: client {c} lookup {i} (junk={bogus}) got {rcode:?} with {answers} answers")
                });
            }
        }
        checks.eq(&format!("{m}: SERVFAILs"), r.node.servfail, 0);
        checks.eq(
            &format!("{m}: root queries sent vs served at the fleet"),
            r.node.root_queries,
            r.fleet_served,
        );
    }
    let Some(hints) = results.iter().find(|r| r.mode == Mode::Hints) else {
        return failed;
    };
    for r in results.iter().filter(|r| r.mode != Mode::Hints) {
        let agree = r.clients.len() == hints.clients.len()
            && r.clients.iter().zip(&hints.clients).all(|(a, b)| {
                a.len() == b.len()
                    && a.iter()
                        .zip(b)
                        .all(|(x, y)| x.0 == y.0 && x.2 == y.2 && x.3 == y.3)
            });
        checks.check(agree, || {
            format!(
                "{} disagrees with hints on some lookup's rcode or answer count",
                r.mode.name()
            )
        });
    }
    for r in results {
        match r.mode {
            Mode::LocalZone => checks.eq("local-zone root queries", r.node.root_queries, 0),
            Mode::Preload => {
                let mut seen = HashSet::new();
                for (src, qname) in &r.root_log {
                    let junk = resolver_index(*src).is_some_and(|c| {
                        !qname.is_root()
                            && meta.names.get(c).is_some_and(|names| {
                                names
                                    .iter()
                                    .zip(&meta.bogus[c])
                                    .any(|(n, b)| *b && n.is_within(qname))
                            })
                    });
                    let first = seen.insert((*src, qname.clone()));
                    checks.check(junk && first, || {
                        format!(
                            "preload: root query for {qname} from {src} is not the first lookup of one of its client's junk names"
                        )
                    });
                }
                failed += seen.len() as u64;
            }
            _ => {}
        }
    }
    if let Some(preload) = results.iter().find(|r| r.mode == Mode::Preload) {
        let (h, p) = (cold_p50_ms(meta, hints), cold_p50_ms(meta, preload));
        checks.check(h > p, || {
            format!("cold p50 under hints ({h:.2} ms) is not above preload ({p:.2} ms)")
        });
    }
    failed
}

fn run_world(mode: Mode, inp: &Inputs, shards: usize) -> (f64, ModeResult) {
    let mut w = build_world(mode, inp, shards, false);
    let t = Instant::now();
    w.sim.run_to_completion();
    let op = ms(t.elapsed());
    (op, result(mode, &w))
}

struct Setup {
    inp: Inputs,
    warm: Vec<ModeResult>,
}

fn setup(seed: u64) -> Setup {
    let inp = inputs(seed);
    let warm = Mode::ALL.iter().map(|m| run_world(*m, &inp, 1).1).collect();
    Setup { inp, warm }
}

/// The untraced workload: whole rounds (every mode's world built and run
/// to completion once) until `seconds` have passed.
pub fn run(seed: u64, seconds: Duration) -> Outcome {
    let (setup_s, s) = repeated_setup(|| setup(seed));
    let mut checks = Checks::default();
    let failed_per_round = check_modes(&s.inp.meta, &s.warm, &mut checks);
    let lookups_per_round = (Mode::ALL.len() * RESOLVERS * LOOKUPS) as u64;
    // Per mode: the four modes' world times form four separate clusters,
    // and a pooled median would jump between two of them.
    let mut op_ms: [Vec<f64>; 4] = Default::default();
    let mut rounds = 0u64;
    let start = Instant::now();
    while rounds == 0 || start.elapsed() < seconds {
        for ((mode, warm), op_ms) in Mode::ALL.iter().zip(&s.warm).zip(&mut op_ms) {
            let (op, r) = run_world(*mode, &s.inp, 1);
            op_ms.push(op);
            checks.check(r == *warm, || {
                format!("{}: a timed world differs from the warm one", mode.name())
            });
        }
        rounds += 1;
    }
    let wall = start.elapsed().as_secs_f64();
    let settled_per_round: u64 = s
        .warm
        .iter()
        .flat_map(|r| &r.clients)
        .map(|c| c.len() as u64)
        .sum();

    let mut out = Outcome {
        attempted: rounds * lookups_per_round,
        failed: rounds * failed_per_round,
        ..Outcome::default()
    };
    out.metric("setup_s", "s", setup_s);
    out.metric(
        "rate_per_s",
        "1/s",
        (rounds * settled_per_round) as f64 / wall,
    );
    let per_mode = op_ms.map(|v| median(&v));
    out.metric("op_p50_ms", "ms", median(&per_mode));
    out.metric("peak_rss_mb", "MB", peak_rss_mb());
    out.absorb(checks);
    out
}

/// Handler time of every node of `kind` in a traced world, and (when
/// `spans_under` is given) each call recorded as a span under it.
fn harvest(w: &World, kind: Kind, tracer: &mut Tracer, spans_under: Option<u32>) -> u64 {
    let name = match kind {
        Kind::Root => "server.root_handler",
        Kind::LocalRoot => "server.local_root_handler",
        Kind::Tld => "server.tld_handler",
        Kind::Resolver => "resolver.handler",
        Kind::Stub => "resolver.stub_handler",
    };
    let mut busy = 0u64;
    for (id, k) in w.nodes.iter().filter(|(_, k)| *k == kind) {
        let node = w.sim.node(*id) as &dyn std::any::Any;
        let calls = match k {
            Kind::Root => node.downcast_ref::<Timed<Logged>>().map(|t| &t.calls),
            Kind::Tld | Kind::LocalRoot => {
                node.downcast_ref::<Timed<ServerNode>>().map(|t| &t.calls)
            }
            Kind::Resolver => node
                .downcast_ref::<Timed<RecursiveNode>>()
                .map(|t| &t.calls),
            Kind::Stub => node.downcast_ref::<Timed<StubClient>>().map(|t| &t.calls),
        }
        .expect("traced worlds wrap every node");
        for (s, e) in calls {
            busy += e - s;
            if let Some(parent) = spans_under {
                tracer.record(name, Some(parent), *s, *e);
            }
        }
    }
    busy
}

/// The traced probe: rounds of every mode run plain and wrapped, handler
/// time per node kind from the wrapped worlds, and the hints world at two
/// shards beside one.
pub fn traced(seed: u64, tracer: &mut Tracer, out: &mut Outcome) {
    let inp = inputs(seed);
    let mut checks = Checks::default();
    const KINDS: [Kind; 5] = [
        Kind::Root,
        Kind::LocalRoot,
        Kind::Tld,
        Kind::Resolver,
        Kind::Stub,
    ];
    let mut per_round: Vec<HashMap<&'static str, f64>> = Vec::new();
    let mut plain_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut last: Vec<ModeResult> = Vec::new();
    tracer.span("resolve", None, |tracer, root| {
        for round in 0..TRACED_ROUNDS {
            tracer.span(
                format!("resolve.round{round}"),
                Some(root),
                |tracer, rid| {
                    let mut m: HashMap<&'static str, f64> = HashMap::new();
                    let (mut plain, mut wrapped) = (0.0, 0.0);
                    let mut results = Vec::new();
                    for mode in Mode::ALL {
                        let (op, plain_result) = tracer.span(
                            format!("netsim.run_plain.{}", mode.name()),
                            Some(rid),
                            |_, _| run_world(mode, &inp, 1),
                        );
                        plain += op;
                        let mut w = build_world(mode, &inp, 1, true);
                        let wid = tracer.span(
                            format!("netsim.run.{}", mode.name()),
                            Some(rid),
                            |_, id| {
                                w.sim.run_to_completion();
                                id
                            },
                        );
                        let wall_ns = (tracer.ms(wid) * 1e6) as u64;
                        wrapped += tracer.ms(wid);
                        let mut handlers = 0u64;
                        for kind in KINDS {
                            let busy = harvest(&w, kind, tracer, (round == 0).then_some(wid));
                            handlers += busy;
                            let key = match kind {
                                Kind::Root | Kind::LocalRoot => "server.root_handler_ms",
                                Kind::Tld => "server.tld_handler_ms",
                                Kind::Stub => "resolver.stub_handler_ms",
                                Kind::Resolver => match mode {
                                    Mode::Hints => "resolver.handler_ms.hints",
                                    Mode::LocalZone => "resolver.handler_ms.local-zone",
                                    Mode::Preload => "resolver.handler_ms.preload",
                                    Mode::Loopback => "resolver.handler_ms.loopback",
                                },
                            };
                            *m.entry(key).or_default() += busy as f64 / 1e6;
                        }
                        *m.entry("netsim.engine_ms").or_default() +=
                            wall_ns.saturating_sub(handlers) as f64 / 1e6;
                        let r = result(mode, &w);
                        *m.entry("netsim.datagrams_delivered").or_default() += r.delivered as f64;
                        checks.check(r == plain_result, || {
                            format!(
                                "{}: the wrapped world differs from the plain one",
                                mode.name()
                            )
                        });
                        results.push(r);
                    }
                    out.failed += check_modes(&inp.meta, &results, &mut checks);
                    out.attempted += (Mode::ALL.len() * RESOLVERS * LOOKUPS) as u64;
                    plain_ms.push(plain);
                    traced_ms.push(wrapped);
                    per_round.push(m);
                    last = results;
                },
            );
        }
    });
    for key in [
        "server.root_handler_ms",
        "server.tld_handler_ms",
        "resolver.handler_ms.hints",
        "resolver.handler_ms.local-zone",
        "resolver.handler_ms.preload",
        "resolver.handler_ms.loopback",
        "resolver.stub_handler_ms",
        "netsim.engine_ms",
    ] {
        let v: Vec<f64> = per_round
            .iter()
            .map(|m| m.get(key).copied().unwrap_or(0.0))
            .collect();
        out.metric(key, "ms", median(&v));
    }
    let delivered = per_round[0]["netsim.datagrams_delivered"];
    let engine: Vec<f64> = per_round
        .iter()
        .map(|m| m["netsim.engine_ms"] * 1e6 / delivered)
        .collect();
    out.metric("netsim.datagrams_delivered", "count", delivered);
    out.metric("netsim.ns_per_datagram", "ns", median(&engine));
    for r in &last {
        let q = r.node.client_queries.max(1) as f64;
        out.metric(
            format!("resolver.upstream_per_lookup.{}", r.mode.name()),
            "ratio",
            r.node.upstream_queries as f64 / q,
        );
        out.metric(
            format!("resolver.cache_answer_ratio.{}", r.mode.name()),
            "ratio",
            r.node.cache_answers as f64 / q,
        );
        out.metric(
            format!("resolver.root_queries.{}", r.mode.name()),
            "count",
            r.node.root_queries as f64,
        );
    }
    out.metric(
        "trace.resolve_overhead_pct",
        "%",
        (median(&traced_ms) / median(&plain_ms) - 1.0) * 100.0,
    );

    // psim: the hints world at two shards beside one, alternating.
    let (mut one, mut two) = (Vec::new(), Vec::new());
    let lookahead = build_world(Mode::Hints, &inp, 2, false).sim.lookahead();
    tracer.span("psim", None, |tracer, pid| {
        for _ in 0..TRACED_ROUNDS {
            let (a, r1) = tracer.span("psim.shards1", Some(pid), |_, _| {
                run_world(Mode::Hints, &inp, 1)
            });
            let (b, r2) = tracer.span("psim.shards2", Some(pid), |_, _| {
                run_world(Mode::Hints, &inp, 2)
            });
            checks.check(r1 == r2, || "the hints world differs at two shards".into());
            one.push(a);
            two.push(b);
        }
    });
    out.metric("psim.lookahead_ms", "ms", lookahead.as_millis_f64());
    out.metric("psim.wall_ms_1shard", "ms", median(&one));
    out.metric("psim.wall_ms_2shards", "ms", median(&two));
    out.metric("psim.wall_ratio_2v1", "ratio", median(&two) / median(&one));
    out.absorb(checks);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (PlanMeta, Vec<ModeResult>) {
        let name = |s: &str| Name::parse(s).unwrap();
        let meta = PlanMeta {
            names: vec![vec![name("www.a.com"), name("www.bad"), name("www.a.com")]],
            bogus: vec![vec![false, true, false]],
            cold: vec![vec![true, true, false]],
        };
        let ms = SimDuration::from_millis;
        let results = Mode::ALL
            .iter()
            .map(|m| {
                let cold = if *m == Mode::Hints { 90 } else { 40 };
                ModeResult {
                    mode: *m,
                    clients: vec![vec![
                        (0, ms(cold), Rcode::NoError, 1),
                        (1, ms(cold), Rcode::NxDomain, 0),
                        (2, ms(1), Rcode::NoError, 1),
                    ]],
                    node: NodeStats {
                        root_queries: (*m == Mode::Hints) as u64 * 2,
                        ..NodeStats::default()
                    },
                    fleet_served: (*m == Mode::Hints) as u64 * 2,
                    root_log: Vec::new(),
                    delivered: 10,
                }
            })
            .collect();
        (meta, results)
    }

    #[test]
    fn a_consistent_round_passes() {
        let (meta, results) = sample();
        let mut checks = Checks::default();
        assert_eq!(check_modes(&meta, &results, &mut checks), 0);
        assert!(checks.passed(), "{:?}", checks.failures);
    }

    #[test]
    fn an_answer_count_differing_in_one_mode_is_rejected() {
        let (meta, mut results) = sample();
        results[3].clients[0][2].3 = 2; // loopback: two answers where the others have one
        let mut checks = Checks::default();
        check_modes(&meta, &results, &mut checks);
        assert_eq!(checks.failures.len(), 1, "{:?}", checks.failures);
        assert!(checks.failures[0].contains("loopback disagrees"));
    }

    #[test]
    fn leaks_servfails_and_unsettled_lookups_are_rejected() {
        let (meta, results) = sample();
        let mut local_leak = results.clone();
        local_leak[1].node.root_queries = 1;
        local_leak[1].fleet_served = 1;
        let mut servfail = results.clone();
        servfail[0].node.servfail = 1;
        let mut unsettled = results.clone();
        unsettled[2].clients[0].pop();
        for bad in [local_leak, servfail, unsettled] {
            let mut checks = Checks::default();
            check_modes(&meta, &bad, &mut checks);
            assert!(!checks.passed());
        }
    }

    #[test]
    fn preload_junk_leaks_count_as_failed_lookups() {
        let (meta, mut results) = sample();
        let leak = |r: &mut ModeResult, qname: &str| {
            r.root_log
                .push((resolver_addr(0), Name::parse(qname).unwrap()));
            r.node.root_queries += 1;
            r.fleet_served += 1;
        };
        leak(&mut results[2], "bad");
        let mut checks = Checks::default();
        assert_eq!(check_modes(&meta, &results, &mut checks), 1);
        assert!(checks.passed(), "{:?}", checks.failures);

        // A delegated name at the root, or the same junk name twice.
        for qname in ["com", "bad"] {
            let mut bad = results.clone();
            leak(&mut bad[2], qname);
            let mut checks = Checks::default();
            check_modes(&meta, &bad, &mut checks);
            assert_eq!(checks.failures.len(), 1, "{qname}: {:?}", checks.failures);
            assert!(checks.failures[0].contains(&format!("root query for {qname}.")));
        }
    }
}
