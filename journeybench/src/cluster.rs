//! One benchmark cluster: `napletd` processes, the harness's in-process
//! home node (`ctl`) and its `mon` status station — plus everything the
//! benchmark reads about the daemons from outside their processes:
//! `/proc`, the journal directories on disk, and the shutdown dumps.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use naplet_bench::cluster::{napletd_bin, ClusterHarness, CtlNode, MON};
use naplet_man::ClusterStatusPoller;
use naplet_obs::{parse_flight_dump, FlatSegment};
use naplet_server::status::StatusReport;

use crate::Workload;

pub type Result<T> = std::result::Result<T, String>;

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
    fn sysconf(name: i32) -> i64;
}
const SIGTERM: i32 = 15;
const SC_CLK_TCK: i32 = 2;

/// How long one daemon may take to accept its first connection, and
/// the replica set to elect a leader.
const BOOT_DEADLINE: Duration = Duration::from_secs(10);

pub struct Cluster {
    pub ctl: CtlNode,
    pub setup_s: f64,
    /// The bootstrap file, the home node and the `mon` entry. The
    /// harness boots no daemon itself: it writes a `journal` key for
    /// every node it boots (the in-memory workload has none), and its
    /// 50 ms readiness poll would be most of the measured set-up time.
    harness: ClusterHarness,
    daemons: Vec<Daemon>,
    poller: ClusterStatusPoller,
    /// This cluster's journals and shutdown dumps.
    dir: PathBuf,
}

/// A `napletd` process; killed if dropped while still running.
struct Daemon {
    name: String,
    child: Child,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Daemon CPU and memory as `/proc` shows them.
#[derive(Clone, Copy, Default)]
pub struct ProcReading {
    pub cpu_ms: f64,
    pub peak_rss_mib: f64,
}

/// What a status poll and the disk say about the journals.
#[derive(Default)]
pub struct JournalReading {
    pub entries: u64,
    pub pending_transfers: u64,
    pub files: u64,
    pub bytes: u64,
    /// Committed log entries the furthest-behind directory replica
    /// lacks against the furthest-ahead one (0 without a replica set).
    pub repl_lag: u64,
}

impl Cluster {
    /// Boot the workload's daemons and the home node; `setup_s` runs
    /// from spawning the first daemon until every daemon accepts
    /// connections, the home node is up and (with a replicated
    /// directory) a leader is known.
    pub fn boot(wl: &Workload, tag: &str, scratch: &Path) -> Result<Cluster> {
        let dir = scratch.join(tag);
        // hold the daemons' ports while the harness reserves its own,
        // so no two nodes are handed the same one
        let held: Vec<TcpListener> = wl
            .daemons
            .iter()
            .map(|_| TcpListener::bind("127.0.0.1:0").map_err(|e| format!("reserve port: {e}")))
            .collect::<Result<_>>()?;
        let mut nodes = String::new();
        for (name, l) in wl.daemons.iter().zip(&held) {
            let addr = l.local_addr().map_err(|e| e.to_string())?;
            nodes.push_str(&format!(
                "[[node]]\nname = \"{name}\"\nlisten = \"{addr}\"\n"
            ));
            if wl.journal {
                let journal = dir.join("journal").join(name);
                nodes.push_str(&format!("journal = \"{}\"\n", journal.display()));
            }
        }
        if wl.directory {
            nodes.push_str(&format!(
                "[directory]\nreplicas = \"{}\"\n",
                wl.daemons.join(", ")
            ));
        }
        let section = format!("trace_dir = \"{}\"\n", dir.join("trace").display());
        let harness = ClusterHarness::launch_with(tag, &[], &section, &nodes)
            .map_err(|e| format!("launch cluster: {e}"))?;
        drop(held);

        let bin = napletd_bin().map_err(|e| e.to_string())?;
        let config = harness.root().join("cluster.toml");
        let started = Instant::now();
        let mut daemons = Vec::new();
        for name in wl.daemons {
            let log = std::fs::File::create(harness.log_path(name)).map_err(|e| e.to_string())?;
            let err = log.try_clone().map_err(|e| e.to_string())?;
            let child = Command::new(&bin)
                .arg("--config")
                .arg(&config)
                .arg("--node")
                .arg(name)
                .stdin(Stdio::null())
                .stdout(log)
                .stderr(err)
                .spawn()
                .map_err(|e| format!("spawn napletd[{name}]: {e}"))?;
            daemons.push(Daemon {
                name: name.to_string(),
                child,
            });
        }
        for name in wl.daemons {
            await_listening(harness.config().node(name).expect("declared above").listen)?;
        }
        let ctl = harness.ctl().map_err(|e| format!("ctl node: {e}"))?;
        let poller = ClusterStatusPoller::connect(harness.config(), MON)
            .map_err(|e| format!("mon station: {e}"))?;
        let mut cluster = Cluster {
            ctl,
            setup_s: 0.0,
            harness,
            daemons,
            poller,
            dir,
        };
        if wl.directory {
            cluster.await_leader()?;
        }
        cluster.setup_s = started.elapsed().as_secs_f64();
        Ok(cluster)
    }

    fn await_leader(&mut self) -> Result<()> {
        let deadline = Instant::now() + BOOT_DEADLINE;
        while Instant::now() < deadline {
            // a request sent before the station's connection to a
            // daemon is up is dropped: poll briefly and ask again
            if self
                .poll(Duration::from_millis(100))?
                .iter()
                .any(|r| r.repl.as_ref().is_some_and(|s| s.role == "leader"))
            {
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err("the directory replica set elected no leader".into())
    }

    /// Whatever status reports arrive within `timeout`.
    fn poll(&mut self, timeout: Duration) -> Result<Vec<StatusReport>> {
        let names: Vec<String> = self.daemons.iter().map(|d| d.name.clone()).collect();
        self.poller
            .poll(&names, timeout)
            .map_err(|e| format!("status poll: {e}"))
    }

    /// Summed CPU and peak RSS of the daemon processes.
    pub fn proc_reading(&self) -> Result<ProcReading> {
        // SAFETY: sysconf takes an integer and touches no memory of ours.
        let ticks_per_s = unsafe { sysconf(SC_CLK_TCK) };
        let tick_ms = 1000.0 / ticks_per_s.max(1) as f64;
        let mut reading = ProcReading::default();
        for pid in self.daemons.iter().map(|d| d.child.id()) {
            let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))
                .map_err(|e| format!("read /proc/{pid}/stat: {e}"))?;
            // fields after the parenthesised command name; utime and
            // stime are fields 14 and 15 of the whole line
            let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
            let fields: Vec<&str> = rest.split_whitespace().collect();
            let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
            let (Some(utime), Some(stime)) = (ticks(11), ticks(12)) else {
                return Err(format!("unparseable /proc/{pid}/stat"));
            };
            reading.cpu_ms += (utime + stime) * tick_ms;
            let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
                .map_err(|e| format!("read /proc/{pid}/status: {e}"))?;
            let hwm_kib = status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
                .ok_or_else(|| format!("no VmHWM in /proc/{pid}/status"))?;
            reading.peak_rss_mib += hwm_kib / 1024.0;
        }
        Ok(reading)
    }

    /// One status poll (journal entries, pending transfers) plus the
    /// journal directories' file count and bytes on disk. Call it only
    /// after the measured window: a poll is work the daemons do.
    pub fn journal_reading(&mut self) -> Result<JournalReading> {
        let mut reading = JournalReading::default();
        let mut reports = Vec::new();
        for _ in 0..5 {
            reports = self.poll(Duration::from_secs(1))?;
            if reports.len() == self.daemons.len() {
                break;
            }
        }
        if reports.len() != self.daemons.len() {
            return Err(format!(
                "status poll: {} of {} daemons answered",
                reports.len(),
                self.daemons.len()
            ));
        }
        let commits: Vec<u64> = reports
            .iter()
            .filter_map(|r| r.repl.as_ref().map(|s| s.commit))
            .collect();
        reading.repl_lag = commits.iter().max().unwrap_or(&0) - commits.iter().min().unwrap_or(&0);
        for report in reports {
            reading.entries += report.journal_entries;
            reading.pending_transfers += report.pending_transfers;
        }
        let (files, bytes) = dir_usage(&self.dir.join("journal"));
        reading.files = files;
        reading.bytes = bytes;
        Ok(reading)
    }

    /// SIGTERM every daemon and wait for each to exit; returns how many
    /// did not exit cleanly, and the shutdown dumps when `dumps`. The
    /// cluster's files are removed and flushed afterwards.
    pub fn shutdown(self, dumps: bool) -> (usize, Result<Vec<FlatSegment>>) {
        for d in &self.daemons {
            // SAFETY: kill takes two integers and touches no memory of
            // ours; the child is not reaped yet, so its pid is still its own.
            unsafe { kill(d.child.id() as i32, SIGTERM) };
        }
        let mut unclean = 0;
        let mut segments = Vec::new();
        for mut d in self.daemons {
            if !wait_exit(&mut d.child) {
                eprintln!("journeybench: napletd[{}] did not exit cleanly", d.name);
                unclean += 1;
            }
            if dumps {
                let path = self
                    .dir
                    .join("trace")
                    .join(format!("{}.trace.json", d.name));
                segments.push(
                    std::fs::read_to_string(&path)
                        .map_err(|e| format!("read {}: {e}", path.display()))
                        .and_then(|text| {
                            parse_flight_dump(&text)
                                .map_err(|e| format!("parse {}: {e}", path.display()))
                        }),
                );
            }
        }
        let _ = std::fs::remove_dir_all(self.harness.root());
        let _ = std::fs::remove_dir_all(&self.dir);
        // the deletions' write-back must not land in the next window
        crate::host::sync_disks();
        (unclean, segments.into_iter().collect())
    }
}

fn await_listening(addr: SocketAddr) -> Result<()> {
    let deadline = Instant::now() + BOOT_DEADLINE;
    while Instant::now() < deadline {
        if TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_ok() {
            return Ok(());
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    Err(format!("napletd never listened on {addr}"))
}

fn wait_exit(child: &mut Child) -> bool {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match child.try_wait() {
            Ok(Some(status)) => return status.success(),
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(5)),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return false;
            }
        }
    }
}

/// Files and bytes under a directory, recursively (0, 0 if absent).
fn dir_usage(dir: &Path) -> (u64, u64) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return (0, 0);
    };
    let mut total = (0, 0);
    for entry in entries.flatten() {
        let Ok(meta) = entry.metadata() else { continue };
        if meta.is_dir() {
            let (f, b) = dir_usage(&entry.path());
            total = (total.0 + f, total.1 + b);
        } else {
            total = (total.0 + 1, total.1 + meta.len());
        }
    }
    total
}
