//! Closed-loop journey benchmark over real `napletd` daemons.
//!
//! Boots clusters with `naplet_bench::cluster::ClusterHarness`, keeps
//! K probe journeys in flight from the harness's in-process home node,
//! and reports journeys/s, journey latency, daemon CPU per journey
//! and set-up time, each the median over three clusters. With `--trace 1` it runs the same load
//! with the benchmark's own spans recorded and reports per-layer
//! numbers read from those spans, the daemons' shutdown dumps, `/proc`
//! and the journal directories instead.
//!
//! ```text
//! bash journeybench/run.sh --workload ring_journal --seed 1 --seconds 24 --trace 0
//! ```
//!
//! The last line of stdout is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.

mod cluster;
mod host;
mod layers;
mod load;
mod stats;

use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};

use cluster::{Cluster, JournalReading, Result};
use layers::per_layer;
use load::{LoadGen, LoadRecord};
use naplet_obs::FlatSegment;
use stats::{median, percentile, result_json, sorted, Metrics};

/// One traffic mix.
pub struct Workload {
    pub name: &'static str,
    /// The daemons every journey visits, in an order the seed picks.
    pub daemons: &'static [&'static str],
    /// File journals (the harness default) instead of in-memory ones.
    pub journal: bool,
    /// The daemons form the `[directory]` replica set.
    pub directory: bool,
    /// Journeys kept in flight.
    pub k: usize,
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "ring_journal",
        daemons: &["n1", "n2"],
        journal: true,
        directory: false,
        k: 16,
    },
    // the file-journal ring with only the journal toggled: same
    // daemons, same K
    Workload {
        name: "ring_memory",
        daemons: &["n1", "n2"],
        journal: false,
        directory: false,
        k: 16,
    },
    // the memory ring plus a replicated directory: a third daemon for
    // the quorum, in-memory journals so the consensus log's cost shows
    // on its own (with file journals the directory scan on every write
    // makes throughput bistable between runs)
    Workload {
        name: "ring_directory",
        daemons: &["n1", "n2", "n3"],
        journal: false,
        directory: true,
        k: 8,
    },
];

/// Load before the measured window, so connections are up and the
/// daemons' first-use costs are paid.
const WARMUP: Duration = Duration::from_secs(2);
/// How long in-flight journeys may take to finish after the window.
const DRAIN_DEADLINE: Duration = Duration::from_secs(10);
/// Fresh clusters an untraced run splits its window over; each
/// end-to-end metric is the median of theirs, so one cluster that goes
/// astray (see `ring_directory`) does not decide the run.
const CLUSTERS: usize = 3;
/// Cluster boots per untraced run, the measured clusters included;
/// `setup_s` is their median.
const SETUPS: usize = 9;
/// A window in which the hypervisor withheld more than this share of
/// the machine's CPU time is measured again on a fresh cluster: the
/// wall-clock numbers of such a window follow the host, not the code.
const MAX_STEAL_PCT: f64 = 5.0;
/// How long a run may take before it gives up waiting for a quiet
/// host: the caller's limit is 180 s.
const RUN_BUDGET: Duration = Duration::from_secs(150);

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// When the run stops repeating noisy windows.
    deadline: Instant,
}

fn parse_args() -> Result<Args> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| {
        argv.iter()
            .position(|a| a == name)
            .and_then(|i| argv.get(i + 1))
            .ok_or_else(|| format!("missing {name} <value>"))
    };
    let number = |name: &str| {
        flag(name)?
            .parse::<u64>()
            .map_err(|e| format!("{name}: {e}"))
    };
    Ok(Args {
        workload: flag("--workload")?.clone(),
        seed: number("--seed")?,
        seconds: number("--seconds")?.max(1),
        trace: number("--trace")? != 0,
        deadline: Instant::now() + RUN_BUDGET,
    })
}

fn main() {
    match run() {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("journeybench: {e}");
            std::process::exit(1);
        }
    }
}

fn run() -> Result<String> {
    let args = parse_args()?;
    let wl = WORKLOADS
        .iter()
        .find(|w| w.name == args.workload)
        .ok_or_else(|| format!("unknown workload `{}`", args.workload))?;
    // harness roots, journals and dumps stay inside the working
    // directory; the daemons inherit TMPDIR
    let scratch = std::env::current_dir()
        .map_err(|e| e.to_string())?
        .join(".bench_tmp")
        .join(std::process::id().to_string());
    std::fs::create_dir_all(&scratch).map_err(|e| format!("mkdir scratch: {e}"))?;
    std::env::set_var("TMPDIR", &scratch);
    // start from a clean page cache: write-back left by earlier work
    // (a build, a previous run's deleted journals) must not land in
    // this run's window
    host::sync_disks();
    let result = if args.trace {
        traced(&args, wl, &scratch)
    } else {
        untraced(&args, wl, &scratch)
    };
    let _ = std::fs::remove_dir_all(&scratch);
    result
}

/// One closed-loop run on a fresh cluster.
pub struct Run {
    pub load: LoadRecord,
    /// Failed journeys plus daemons that did not exit cleanly.
    pub failed: u64,
    pub setup_s: f64,
    /// Daemon CPU over the window, and over their whole lifetime, ms.
    pub window_cpu_ms: f64,
    pub lifetime_cpu_ms: f64,
    /// Share of the machine's CPU time the hypervisor withheld during
    /// the window: the noise floor of every wall-clock number.
    pub steal_pct: f64,
    pub rss_mib: f64,
    pub journal: JournalReading,
    /// Traced runs only: the daemons' shutdown dumps.
    pub dumps: Vec<FlatSegment>,
    /// The home node's recorder segment and wire statistics.
    pub ctl: FlatSegment,
    pub home_net: naplet_net::StatsSnapshot,
    /// Finished journeys: id → launch instant on the home node's clock.
    pub finished: HashMap<String, u64>,
}

impl Run {
    fn journeys_per_s(&self) -> f64 {
        self.load.journey_ms.len() as f64 / self.load.window_s
    }

    fn cpu_ms_per_journey(&self) -> f64 {
        self.window_cpu_ms / self.load.journey_ms.len().max(1) as f64
    }

    fn summary(&self, wl: &Workload, label: &str) {
        let lat = sorted(self.load.journey_ms.clone());
        eprintln!(
            "journeybench: {} {label}: {} journeys, {:.1} journeys/s, p50 {:.2} ms, p99 {:.2} ms, \
             decay {:.1}%, journal files {} ({} bytes), {} reordered reports, {} failed, \
             host steal {:.1}%",
            wl.name,
            lat.len(),
            self.journeys_per_s(),
            percentile(&lat, 0.5),
            percentile(&lat, 0.99),
            layers::decay_pct(&self.load),
            self.journal.files,
            self.journal.bytes,
            self.load.reordered_reports,
            self.failed,
            self.steal_pct
        );
    }
}

/// Boot a cluster, warm it up, measure `window`, drain, read the
/// journals and `/proc`, and shut it down.
fn closed_loop(
    wl: &Workload,
    seed: u64,
    window: Duration,
    scratch: &Path,
    tag: &str,
    traced: bool,
) -> Result<Run> {
    let mut cluster = Cluster::boot(wl, tag, scratch)?;
    let mut gen = LoadGen::new(wl, seed, traced);
    gen.run(&mut cluster.ctl, WARMUP, false)?;
    let before = cluster.proc_reading()?;
    let steal_before = host::steal_jiffies();
    gen.run(&mut cluster.ctl, window, true)?;
    let after = cluster.proc_reading()?;
    let steal_after = host::steal_jiffies();
    gen.drain(&mut cluster.ctl, DRAIN_DEADLINE);
    let journal = cluster.journal_reading()?;
    let end = cluster.proc_reading()?;
    let ctl = FlatSegment::from_segment(&cluster.ctl.trace_segment());
    let home_net = cluster.ctl.net_stats();
    let setup_s = cluster.setup_s;
    let failed = gen.failed(&cluster.ctl);
    let (unclean, dumps) = cluster.shutdown(traced);
    let finished = gen
        .finished()
        .map(|(id, launched)| (id.to_string(), launched))
        .collect();
    let run = Run {
        failed: failed + unclean as u64,
        load: std::mem::take(&mut gen.record),
        setup_s,
        window_cpu_ms: after.cpu_ms - before.cpu_ms,
        lifetime_cpu_ms: end.cpu_ms,
        steal_pct: 100.0 * (steal_after.0 - steal_before.0) as f64
            / (steal_after.1 - steal_before.1).max(1) as f64,
        rss_mib: end.peak_rss_mib,
        journal,
        dumps: dumps?,
        ctl,
        home_net,
        finished,
    };
    run.summary(wl, if traced { "traced run" } else { "run" });
    Ok(run)
}

/// [`closed_loop`] until a window is quiet enough to measure: a
/// window the host stole more than [`MAX_STEAL_PCT`] of is repeated on
/// a fresh cluster, unless the run failed (a failure always counts),
/// for as long as another window fits before `deadline`.
fn quiet_closed_loop(
    wl: &Workload,
    seed: u64,
    window: Duration,
    scratch: &Path,
    tag: &str,
    traced: bool,
    deadline: Instant,
) -> Result<Run> {
    let mut windows = 0;
    loop {
        let run = closed_loop(wl, seed, window, scratch, tag, traced)?;
        windows += 1;
        if run.steal_pct <= MAX_STEAL_PCT || run.failed > 0 {
            return Ok(run);
        }
        if Instant::now() + WARMUP + window + DRAIN_DEADLINE > deadline {
            return Err(format!(
                "host steal exceeded {MAX_STEAL_PCT}% in {windows} windows in a row; \
                 the host is too busy to measure on, run again later"
            ));
        }
        eprintln!(
            "journeybench: host steal {:.1}% exceeds {MAX_STEAL_PCT}%: measuring again",
            run.steal_pct
        );
    }
}

fn untraced(args: &Args, wl: &Workload, scratch: &Path) -> Result<String> {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut failed = 0;
    for i in CLUSTERS..SETUPS {
        let cluster = Cluster::boot(wl, &format!("{}-boot{i}", wl.name), scratch)?;
        setups.push(cluster.setup_s);
        failed += cluster.shutdown(false).0 as u64;
    }
    let window = Duration::from_secs_f64(args.seconds as f64 / CLUSTERS as f64);
    let mut runs = Vec::with_capacity(CLUSTERS);
    for i in 0..CLUSTERS {
        let seed = args
            .seed
            .wrapping_mul(CLUSTERS as u64)
            .wrapping_add(i as u64);
        let run = quiet_closed_loop(wl, seed, window, scratch, wl.name, false, args.deadline)?;
        setups.push(run.setup_s);
        failed += run.failed;
        runs.push(run);
    }
    let per_run = |f: &dyn Fn(&Run) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());

    let mut m = Metrics::default();
    m.put("journeys_per_s", per_run(&Run::journeys_per_s), "1/s");
    m.put(
        "journey_ms_p50",
        per_run(&|r| percentile(&sorted(r.load.journey_ms.clone()), 0.5)),
        "ms",
    );
    m.put(
        "cpu_ms_per_journey",
        per_run(&Run::cpu_ms_per_journey),
        "ms",
    );
    m.put("setup_s", median(&setups), "s");
    Ok(result_json(
        failed == 0 && runs.iter().all(|r| !r.load.journey_ms.is_empty()),
        runs.iter().map(|r| r.load.launched).sum(),
        failed,
        &m,
    ))
}

fn traced(args: &Args, wl: &Workload, scratch: &Path) -> Result<String> {
    let window = Duration::from_secs(args.seconds);
    let tag = format!("{}-traced", wl.name);
    let run = quiet_closed_loop(wl, args.seed, window, scratch, &tag, true, args.deadline)?;
    let m = per_layer(&run);
    Ok(result_json(
        run.failed == 0 && !run.load.journey_ms.is_empty(),
        run.load.launched,
        run.failed,
        &m,
    ))
}
