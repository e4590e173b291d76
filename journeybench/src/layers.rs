//! Per-layer numbers of the traced run, all read from outside the
//! program: the benchmark's own spans, the daemons' shutdown dumps
//! (flight-recorder events plus cumulative metrics), the home node's
//! recorder and wire statistics, `/proc`, and the journal directories.

use std::collections::{BTreeSet, HashMap};
use std::time::Instant;

use naplet_obs::{analyze_events, merge_flat_events, FlatEvent, FlatSegment, SEGMENT_NAMES};

use crate::load::LoadRecord;
use crate::stats::{hist_quantile, merge_hists, percentile, sorted, Metrics};
use crate::Run;

/// The per-layer metrics of one traced run.
pub fn per_layer(run: &Run) -> Metrics {
    let mut m = Metrics::default();
    let load = &run.load;
    // whole-lifetime denominators: the dumps' metrics cover warm-up,
    // window and drain alike
    let journeys = load.completed_total.max(1) as f64;

    // the host: every wall-clock number below follows it
    m.put("host.steal_pct", run.steal_pct, "%");

    // bench: the load generator's own spans
    m.put("loadgen.busy_pct", 100.0 * load.busy_s / load.window_s, "%");
    m.put(
        "loadgen.launch_us_p50",
        percentile(&sorted(load.launch_us.clone()), 0.5),
        "us",
    );
    m.put(
        "loadgen.pump_us_p99",
        percentile(&sorted(load.pump_us.clone()), 0.99),
        "us",
    );
    m.put("run.journey_samples", load.journey_ms.len() as f64, "count");
    // the tail moves with host steal far more than the median does, so
    // it is reported here rather than gated
    let lat = sorted(load.journey_ms.clone());
    m.put("run.journey_ms_p95", percentile(&lat, 0.95), "ms");
    m.put("run.journey_ms_p99", percentile(&lat, 0.99), "ms");

    // hops, from report arrival times
    let first = sorted(load.first_hop_ms.clone());
    let next = sorted(load.next_hop_ms.clone());
    m.put("hop.first_ms_p50", percentile(&first, 0.5), "ms");
    m.put("hop.first_ms_p99", percentile(&first, 0.99), "ms");
    m.put("hop.next_ms_p50", percentile(&next, 0.5), "ms");
    m.put("hop.next_ms_p99", percentile(&next, 0.99), "ms");

    // server: NapletServer::handle, from the daemons' histograms
    let metrics: Vec<_> = run
        .dumps
        .iter()
        .filter_map(|d| d.metrics.as_ref())
        .collect();
    let hist = |name: &str| merge_hists(metrics.iter().filter_map(|s| s.histogram(name)));
    let handle_ms: f64 = metrics
        .iter()
        .flat_map(|s| s.histograms.iter())
        .filter(|(name, _)| name.starts_with("handler_us."))
        .map(|(_, h)| h.sum as f64 / 1e3)
        .sum();
    let handle_ms_per_journey = handle_ms / journeys;
    m.put("server.handle_ms_per_journey", handle_ms_per_journey, "ms");
    for label in ["Transfer", "TransferAck", "LandingRequest"] {
        m.put(
            format!("server.handler_us_p50.{label}"),
            hist_quantile(&hist(&format!("handler_us.{label}")), 0.5),
            "us",
        );
    }
    let rtt = hist("handoff_rtt_ms");
    m.put("server.handoff_rtt_ms_p50", hist_quantile(&rtt, 0.5), "ms");
    m.put("server.handoff_rtt_ms_p99", hist_quantile(&rtt, 0.99), "ms");
    m.put(
        "server.landing_latency_ms_p50",
        hist_quantile(&hist("landing_latency_ms"), 0.5),
        "ms",
    );

    // server::live + net::tcp: the daemons' CPU over the same
    // lifetime. Handler time above is wall time, so the driver loop's
    // share is the difference only where `handle` never blocks
    // (ring_memory, ring_directory), not on ring_journal's disk writes.
    m.put(
        "daemon.cpu_ms_per_journey",
        run.lifetime_cpu_ms / journeys,
        "ms",
    );
    // peak RSS steps with the journeys a cluster served (the daemons'
    // tables grow in doublings), so it carries no bound
    m.put("daemon_rss_mib", run.rss_mib, "MiB");
    m.put(
        "net.frames_per_journey",
        run.home_net.total_messages() as f64 / journeys,
        "count",
    );
    let daemon_retransmits: u64 = metrics
        .iter()
        .map(|s| s.counter("handoff.retransmits"))
        .sum();
    m.put(
        "net.retransmits",
        (run.home_net.retransmits + daemon_retransmits) as f64,
        "count",
    );
    m.put("net.drops", run.home_net.dropped as f64, "count");
    m.put(
        "net.reports_reordered",
        load.reordered_reports as f64,
        "count",
    );

    // the analyzed journeys: finished, and wholly inside every
    // recorder's retained tail
    let mut segments: Vec<FlatSegment> = run.dumps.clone();
    segments.push(run.ctl.clone());
    let events = whole_journeys(&segments, &run.ctl, &run.finished);
    let analyzed: BTreeSet<&str> = events.iter().filter_map(journey_of).collect();
    let n = analyzed.len().max(1) as f64;
    let count = |name: &str| events.iter().filter(|e| e.name == name).count() as f64;
    m.put("segment.journeys_analyzed", analyzed.len() as f64, "count");

    // core::codec: migration bytes per transfer
    let migration_bytes: f64 = events
        .iter()
        .filter(|e| e.name == "wire.send" && e.arg_str("class") == Some("migration"))
        .filter_map(|e| arg_num(e, "bytes"))
        .sum();
    m.put(
        "codec.migration_bytes_per_hop",
        migration_bytes / count("transfer.sent").max(1.0),
        "B",
    );

    // server::journal
    m.put(
        "journal.appends_per_journey",
        count("journal.append") / n,
        "count",
    );
    m.put("journal.files_end", run.journal.files as f64, "count");
    m.put("journal.bytes_end", run.journal.bytes as f64, "B");
    m.put("journal.entries_end", run.journal.entries as f64, "count");
    m.put(
        "server.pending_transfers_end",
        run.journal.pending_transfers as f64,
        "count",
    );
    m.put("run.decay_pct", decay_pct(load), "%");

    // obs: the analyzer's partition of the analyzed journeys
    let analysis = analyze_events(&events);
    let wall = analysis.total_wall_ms.max(1) as f64;
    for (name, seg) in SEGMENT_NAMES.iter().zip(&analysis.segments) {
        m.put(
            format!("segment.{name}_pct"),
            100.0 * seg.total_ms as f64 / wall,
            "%",
        );
    }
    let other = analysis.segments[SEGMENT_NAMES.len() - 1].total_ms as f64;
    m.put("segment.attributed_pct", 100.0 * (wall - other) / wall, "%");
    // the analyzer awards whole milliseconds, so a per-journey median
    // sticks to an integer; the mean resolves sub-millisecond shifts
    let seg_mean = |name: &str| {
        analysis
            .segments
            .iter()
            .find(|s| s.name == name)
            .map_or(0.0, |s| s.total_ms as f64 / n)
    };
    m.put("segment.wire_ms_mean", seg_mean("wire"), "ms");
    m.put("segment.queue_ms_mean", seg_mean("queue"), "ms");
    // the spans are the only work a traced run adds: their count times
    // the measured cost of recording one, over the window
    let spans = load.launch_us.len() + load.pump_us.len() + first.len() + next.len();
    m.put(
        "trace.overhead_pct",
        100.0 * spans as f64 * span_cost_s() / load.window_s,
        "%",
    );
    m.put("segment.directory_ms_mean", seg_mean("directory"), "ms");

    // server::repl; every metric reads 0 where no replica set runs
    let append = hist("repl_append_us");
    m.put("repl.append_us_p50", hist_quantile(&append, 0.5), "us");
    m.put("repl.append_us_p99", hist_quantile(&append, 0.99), "us");
    m.put(
        "repl.commit_us_p50",
        hist_quantile(&hist("repl_commit_us"), 0.5),
        "us",
    );
    m.put(
        "repl.commit_lag_ms_p99",
        hist_quantile(&hist("repl_commit_lag_ms"), 0.99),
        "ms",
    );
    // every replica applies every commit: count them once
    let commits = metrics
        .iter()
        .map(|s| s.counter("repl.commits"))
        .max()
        .unwrap_or(0);
    m.put(
        "repl.commits_per_journey",
        commits as f64 / journeys,
        "count",
    );
    let elections: u64 = metrics.iter().map(|s| s.counter("repl.elections")).sum();
    m.put("repl.elections", elections as f64, "count");
    m.put(
        "repl.follower_lag_end",
        run.journal.repl_lag as f64,
        "count",
    );
    m
}

/// Seconds one span costs the load loop: a clock read and a push,
/// timed over many repetitions. An upper estimate — pump and hop spans
/// reuse clock reads the loop takes anyway.
fn span_cost_s() -> f64 {
    const REPS: usize = 100_000;
    let mut sink = Vec::with_capacity(REPS);
    let began = Instant::now();
    for _ in 0..REPS {
        sink.push(began.elapsed().as_secs_f64() * 1e6);
    }
    let cost = began.elapsed().as_secs_f64() / REPS as f64;
    std::hint::black_box(sink);
    cost
}

/// 1 − (last third ÷ first third) of the window's completions, in %.
pub fn decay_pct(load: &LoadRecord) -> f64 {
    let third = load.window_s / 3.0;
    let first = load.completed_at_s.iter().filter(|t| **t < third).count() as f64;
    let last = load
        .completed_at_s
        .iter()
        .filter(|t| **t >= 2.0 * third)
        .count() as f64;
    100.0 * (1.0 - last / first.max(1.0))
}

fn journey_of(e: &FlatEvent) -> Option<&str> {
    e.ctx
        .as_ref()
        .map(|c| c.journey.as_str())
        .or(e.naplet.as_deref())
}

fn arg_num(e: &FlatEvent, key: &str) -> Option<f64> {
    e.args
        .iter()
        .find(|(k, _)| k == key)
        .and_then(|(_, v)| match v {
            naplet_obs::ArgValue::Int(n) => Some(*n as f64),
            _ => None,
        })
}

/// The merged events of the finished journeys that lie wholly inside
/// every recorder's retained tail: each truncated ring has lost every
/// event up to its oldest survivor, so a journey is whole when it was
/// launched after the latest of those instants.
fn whole_journeys(
    segments: &[FlatSegment],
    ctl: &FlatSegment,
    finished: &HashMap<String, u64>,
) -> Vec<FlatEvent> {
    let cutoff = segments
        .iter()
        .filter(|s| s.dropped > 0)
        .filter_map(|s| s.events.first().map(|e| e.at + s.epoch_unix_ms))
        .max()
        .unwrap_or(0);
    merge_flat_events(segments)
        .into_iter()
        .filter(|e| {
            journey_of(e)
                .and_then(|j| finished.get(j))
                .is_some_and(|launched| launched + ctl.epoch_unix_ms > cutoff)
        })
        .collect()
}
