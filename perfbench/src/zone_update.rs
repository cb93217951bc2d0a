//! `zone_update`: one month of daily refreshes of a verified local root
//! copy at the 2019 plateau (`history::churn_timeline`, 1,532 TLDs). Day 0
//! is installed during set-up (publish + full verification); each timed
//! operation is one `RootZoneManager::tick` on the next day, verified with
//! `Verification::Incremental` over
//! `MirrorZoneSource::with_incremental_publishing`.
//!
//! A run is whole months: a month that ends before `--seconds` have passed
//! is followed by a fresh month (new timeline from the next seed
//! substream, its day-0 install outside the timed phase). Peak RSS is read
//! when the first month ends, so it does not depend on how many months a
//! run's tick speed allows.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rootless_core::manager::{
    ManagerStats, RefreshPolicy, RootZoneManager, Verification, ZoneSource,
};
use rootless_core::sources::MirrorZoneSource;
use rootless_delta::channel::ZoneFile;
use rootless_dnssec::incremental::{Publisher, VerifiedZone};
use rootless_dnssec::keys::ZoneKey;
use rootless_proto::name::Name;
use rootless_util::rng::substream_seed;
use rootless_util::time::{Date, SimDuration, SimTime};
use rootless_zone::churn::Timeline;
use rootless_zone::diff::ZoneDiff;
use rootless_zone::history;
use rootless_zone::zone::Zone;

use crate::alloc::AllocCount;
use crate::report::{median, ms, peak_rss_mb, repeated_setup, Checks, Outcome};
use crate::trace::{FetchRecord, TimedSource, Tracer};

/// Days in the month: day 0 installed in set-up, days 1.. timed.
pub const DAYS: u64 = 30;
/// Days of standalone stage calls in the traced run.
const SAMPLE_DAYS: u64 = 3;

fn start() -> Date {
    Date::new(2019, 4, 1)
}

/// Tick time of `day`: an hour into it.
fn now_on(day: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(day * 86_400 + 3_600)
}

fn secs_on(day: u64) -> u32 {
    now_on(day).as_secs() as u32
}

/// The publisher the mirror uses (its fixed signature window), rebuilt
/// here so the check's expected zone is made outside the manager.
fn publisher(key: &ZoneKey) -> Publisher {
    Publisher::new(key.clone(), 0, ((DAYS + 10) * 86_400) as u32)
}

struct Month {
    key: ZoneKey,
    timeline: Arc<Timeline>,
    manager: RootZoneManager,
}

/// Builds a month's timeline, key, source and manager, and installs day 0.
fn month(seed: u64, wrap: impl FnOnce(MirrorZoneSource) -> Box<dyn ZoneSource>) -> Month {
    let key = ZoneKey::generate(Name::root(), true, seed);
    let timeline = Arc::new(history::churn_timeline(start(), DAYS, seed));
    let source =
        MirrorZoneSource::new(Arc::clone(&timeline), key.clone()).with_incremental_publishing();
    let policy = RefreshPolicy {
        refresh_after: SimDuration::from_days(1),
        retry_every: SimDuration::from_hours(1),
        expire_after: SimDuration::from_hours(48),
    };
    let mut manager = RootZoneManager::new(
        wrap(source),
        Verification::Incremental { key: key.clone() },
        policy,
    );
    manager.tick(now_on(0));
    Month {
        key,
        timeline,
        manager,
    }
}

fn plain(source: MirrorZoneSource) -> Box<dyn ZoneSource> {
    Box::new(source)
}

/// Checks the manager's counters after a whole month: every day installed,
/// every day after the first verified incrementally, no fallback.
pub fn check_stats(stats: &ManagerStats, checks: &mut Checks) {
    checks.eq("installs", stats.installs, DAYS);
    checks.eq("incremental verifies", stats.incremental_verifies, DAYS - 1);
    checks.eq("incremental fallbacks", stats.incremental_fallbacks, 0);
    checks.eq("verify failures", stats.verify_failures, 0);
    checks.eq("fetch failures", stats.fetch_failures, 0);
}

/// Checks the final installed copy: it equals the last day's zone published
/// outside the manager, and the cached validation state equals a
/// from-scratch verification of it.
pub fn check_installed(
    installed: Option<&Zone>,
    state_digest: Option<[u8; 32]>,
    key: &ZoneKey,
    timeline: &Timeline,
    checks: &mut Checks,
) {
    let last = DAYS - 1;
    let Some(installed) = installed else {
        checks.check(false, || "no zone installed".into());
        return;
    };
    let expected = publisher(key).publish(&timeline.snapshot(last));
    checks.check(*installed == expected, || {
        format!(
            "installed zone ({} RRsets) differs from the last day's published zone ({} RRsets)",
            installed.rrset_count(),
            expected.rrset_count()
        )
    });
    match VerifiedZone::full_verify(installed, key, secs_on(last)) {
        Ok(fresh) => checks.check(state_digest == Some(fresh.state_digest()), || {
            "incremental state digest differs from a from-scratch verification".into()
        }),
        Err(e) => checks.check(false, || {
            format!("the installed zone fails full verification: {e}")
        }),
    }
}

fn check_month(m: &Month, checks: &mut Checks) {
    check_stats(&m.manager.stats, checks);
    let zone = m.manager.zone();
    let digest = m.manager.verified().map(VerifiedZone::state_digest);
    check_installed(zone.as_deref(), digest, &m.key, &m.timeline, checks);
}

/// The untraced workload: whole months of daily ticks until `seconds` of
/// ticking have passed.
pub fn run(seed: u64, seconds: Duration) -> Outcome {
    let (setup_s, first) = repeated_setup(|| month(seed, plain));
    let mut current = Some(first);
    let mut checks = Checks::default();
    let mut op_ms = Vec::new();
    let mut ticking = Duration::ZERO;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut peak_rss = None;
    for round in 1.. {
        let mut m = current.take().expect("a month is set up");
        for day in 1..DAYS {
            let t = Instant::now();
            let installed = m.manager.tick(now_on(day));
            let d = t.elapsed();
            ticking += d;
            op_ms.push(ms(d));
            attempted += 1;
            failed += installed.is_none() as u64;
        }
        check_month(&m, &mut checks);
        peak_rss.get_or_insert_with(peak_rss_mb);
        drop(m);
        if ticking >= seconds {
            break;
        }
        current = Some(month(substream_seed(seed, round), plain));
    }
    let mut out = Outcome {
        attempted,
        failed,
        ..Outcome::default()
    };
    out.metric("setup_s", "s", setup_s);
    out.metric(
        "rate_per_s",
        "1/s",
        (attempted - failed) as f64 / ticking.as_secs_f64(),
    );
    out.metric("op_p50_ms", "ms", median(&op_ms));
    out.metric(
        "peak_rss_mb",
        "MB",
        peak_rss.expect("a run ticks at least one month"),
    );
    out.absorb(checks);
    out
}

/// The traced probe: one month through a timed source, then standalone
/// calls of each stage on the month's first days.
pub fn traced(seed: u64, tracer: &mut Tracer, out: &mut Outcome) {
    let mut checks = Checks::default();
    tracer.span("zone_update", None, |tracer, root| {
        let log: Rc<RefCell<Vec<FetchRecord>>> = Rc::default();
        let mut m = tracer.span("core.setup_day0", Some(root), |_, _| {
            month(seed, |s| Box::new(TimedSource::new(s, Rc::clone(&log))))
        });
        let bytes_day0 = m.manager.stats.bytes_down;
        let rss_day0 = peak_rss_mb();
        let (mut tick_ms, mut fetch_ms, mut rest_ms, mut alloc_mb) =
            (vec![], vec![], vec![], vec![]);
        for day in 1..DAYS {
            let before = AllocCount::now();
            let id = tracer.span("core.tick", Some(root), |_, id| {
                m.manager.tick(now_on(day));
                id
            });
            alloc_mb.push(before.since().bytes as f64 / (1 << 20) as f64);
            let f = *log.borrow().last().expect("every tick fetches");
            tracer.record("core.fetch", Some(id), f.start_ns, f.end_ns);
            let fetch = (f.end_ns - f.start_ns) as f64 / 1e6;
            tick_ms.push(tracer.ms(id));
            fetch_ms.push(fetch);
            rest_ms.push(tracer.ms(id) - fetch);
        }
        let per_day = (DAYS - 1) as f64;
        out.metric("core.fetch_ms_per_day", "ms", median(&fetch_ms));
        out.metric("core.verify_install_ms_per_day", "ms", median(&rest_ms));
        out.metric("trace.zone_update_tick_p50_ms", "ms", median(&tick_ms));
        out.metric(
            "core.rss_growth_mb_per_day",
            "MB",
            (peak_rss_mb() - rss_day0) / per_day,
        );
        out.metric("core.allocated_mb_per_day", "MB", median(&alloc_mb));
        out.metric(
            "delta.bytes_down_per_day",
            "B",
            (m.manager.stats.bytes_down - bytes_day0) as f64 / per_day,
        );
        check_month(&m, &mut checks);
        out.attempted += DAYS - 1;
        out.failed += (DAYS - 1).saturating_sub(m.manager.stats.installs.saturating_sub(1));
        let (key, timeline) = (m.key.clone(), Arc::clone(&m.timeline));
        drop(m);

        // Standalone stage calls on days 1..=SAMPLE_DAYS of the same month.
        let publisher = publisher(&key);
        let mut times: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        let mut prev = publisher.publish(&timeline.snapshot(0));
        let mut vz = VerifiedZone::full_verify(&prev, &key, secs_on(0)).expect("day 0 verifies");
        let (mut sets, mut spans, mut owners) = (vec![], vec![], vec![]);
        for day in 1..=SAMPLE_DAYS {
            tracer.span(format!("zone.day{day}"), Some(root), |tracer, did| {
                let mut stage = |name, f: &mut dyn FnMut()| {
                    let id = tracer.span(name, Some(did), |_, id| {
                        f();
                        id
                    });
                    times.entry(name).or_default().push(tracer.ms(id));
                };
                let (mut raw, mut next, mut file, mut diff) = (None, None, None, None);
                let (mut decoded, mut applied, mut fresh) = (None, None, None);
                stage("zone.snapshot", &mut || raw = Some(timeline.snapshot(day)));
                let raw = raw.expect("snapshot ran");
                stage("dnssec.publish", &mut || {
                    next = Some(publisher.publish(&raw))
                });
                let next = next.expect("publish ran");
                stage("delta.zonefile_build", &mut || {
                    file = Some(ZoneFile::build(&next, Some(&prev)))
                });
                stage("zone.diff_compute", &mut || {
                    diff = Some(ZoneDiff::compute(&prev, &next))
                });
                let diff = diff.expect("diff ran");
                stage("delta.diff_decode", &mut || {
                    decoded = file.as_ref().and_then(ZoneFile::diff)
                });
                stage("dnssec.apply_diff", &mut || {
                    applied = Some(vz.apply_diff(&diff, secs_on(day)))
                });
                stage("dnssec.full_verify", &mut || {
                    fresh = Some(VerifiedZone::full_verify(&next, &key, secs_on(day)))
                });
                checks.check(matches!(&decoded, Some(Ok(d)) if *d == diff), || {
                    format!("day {day}: the zone file's diff does not decode to ZoneDiff::compute")
                });
                match applied.expect("apply ran") {
                    Ok(st) => {
                        sets.push(st.sets_verified as f64);
                        spans.push(st.spans_checked as f64);
                        owners.push(st.owners_touched as f64);
                    }
                    Err(e) => checks.check(false, || {
                        format!("day {day}: apply_diff rejected an honest diff: {e}")
                    }),
                }
                match fresh.expect("full verify ran") {
                    Ok(f) => checks.check(f.state_digest() == vz.state_digest(), || {
                        format!(
                            "day {day}: incremental state differs from a from-scratch verification"
                        )
                    }),
                    Err(e) => checks.check(false, || {
                        format!("day {day}: full verification failed: {e}")
                    }),
                }
                prev = next;
            });
        }
        out.attempted += SAMPLE_DAYS;
        for (name, metric) in [
            ("zone.snapshot", "zone.snapshot_ms"),
            ("dnssec.publish", "dnssec.publish_ms"),
            ("delta.zonefile_build", "delta.zonefile_build_ms"),
            ("zone.diff_compute", "zone.diff_compute_ms"),
            ("delta.diff_decode", "delta.diff_decode_ms"),
            ("dnssec.apply_diff", "dnssec.apply_diff_ms"),
            ("dnssec.full_verify", "dnssec.full_verify_ms"),
        ] {
            out.metric(metric, "ms", median(&times[name]));
        }
        out.metric("dnssec.sets_verified_per_day", "count", median(&sets));
        out.metric("dnssec.spans_checked_per_day", "count", median(&spans));
        out.metric("zone.owners_touched_per_day", "count", median(&owners));
    });
    out.absorb(checks);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rootless_util::rng::DetRng;
    use rootless_zone::churn::ChurnConfig;
    use rootless_zone::rootzone::RootZoneConfig;

    fn small() -> (ZoneKey, Timeline) {
        let key = ZoneKey::generate(Name::root(), true, 7);
        let timeline = Timeline::generate(
            RootZoneConfig::small(20),
            ChurnConfig::default(),
            start(),
            DAYS,
        );
        (key, timeline)
    }

    fn installed(key: &ZoneKey, timeline: &Timeline) -> (Zone, [u8; 32]) {
        let zone = publisher(key).publish(&timeline.snapshot(DAYS - 1));
        let digest = VerifiedZone::full_verify(&zone, key, secs_on(DAYS - 1))
            .expect("verifies")
            .state_digest();
        (zone, digest)
    }

    #[test]
    fn the_true_final_zone_passes() {
        let (key, timeline) = small();
        let (zone, digest) = installed(&key, &timeline);
        let mut checks = Checks::default();
        check_installed(Some(&zone), Some(digest), &key, &timeline, &mut checks);
        assert!(checks.passed(), "{:?}", checks.failures);
    }

    #[test]
    fn an_installed_zone_missing_one_rrset_is_rejected() {
        let (key, timeline) = small();
        let (mut zone, digest) = installed(&key, &timeline);
        let mut rng = DetRng::seed_from_u64(3);
        let victims: Vec<_> = zone.rrsets().map(|s| (s.name.clone(), s.rtype)).collect();
        let (name, rtype) = victims[rng.below(victims.len() as u64) as usize].clone();
        assert!(zone.remove_rrset(&name, rtype).is_some());
        let mut checks = Checks::default();
        check_installed(Some(&zone), Some(digest), &key, &timeline, &mut checks);
        assert!(!checks.passed());
        assert!(checks.failures[0].contains("differs from the last day's published zone"));
    }

    #[test]
    fn a_month_with_a_fallback_is_rejected() {
        let good = ManagerStats {
            installs: DAYS,
            incremental_verifies: DAYS - 1,
            ..ManagerStats::default()
        };
        let mut checks = Checks::default();
        check_stats(&good, &mut checks);
        assert!(checks.passed());
        let bad = ManagerStats {
            incremental_verifies: DAYS - 2,
            incremental_fallbacks: 1,
            ..good
        };
        let mut checks = Checks::default();
        check_stats(&bad, &mut checks);
        assert_eq!(checks.failures.len(), 2);
    }
}
