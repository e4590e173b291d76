//! The closed-loop load generator: K journeys always in flight, each
//! replaced by a fresh probe as soon as its last report reaches home.
//!
//! One thread does everything: it launches probes through
//! [`CtlNode::launch_probe`], pumps the home node with
//! [`CtlNode::pump`] at sub-millisecond cadence, and checks every
//! report against the journey's seeded itinerary.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use naplet_bench::cluster::{CtlNode, CTL};
use naplet_core::clock::Millis;
use naplet_core::id::NapletId;

use crate::cluster::Result;
use crate::Workload;

/// Pause between pump rounds: short enough that report arrival times
/// resolve well under a millisecond, long enough to leave the CPU to
/// the daemons.
const PUMP_INTERVAL: Duration = Duration::from_micros(200);

/// Principal the harness's home node launches its probes as.
const OWNER: &str = "ops";

/// SplitMix64: the seeded source of every itinerary.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniformly random permutation of `0..n` (Fisher-Yates).
    fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            p.swap(i, j);
        }
        p
    }
}

struct Journey {
    /// Indices into the workload's daemons, in visiting order.
    stops: Vec<usize>,
    reported: usize,
    launched: Instant,
    last_report: Instant,
    /// The home node's clock at launch (ms), to place the journey on
    /// the merged trace timeline.
    launched_ctl_ms: u64,
    /// The daemon (index) of every report received, in arrival order;
    /// `None` for a report naming no daemon of the workload.
    seen: Vec<Option<usize>>,
    done: bool,
    broken: bool,
}

/// Everything the loop observed; times are taken by the benchmark
/// around its own calls.
#[derive(Default)]
pub struct LoadRecord {
    pub launched: u64,
    pub completed_total: u64,
    /// Reports that named a journey the benchmark never launched.
    pub unknown_reports: u64,
    /// Reports that arrived before the report of an earlier stop.
    pub reordered_reports: u64,
    /// Completion latencies (ms) of journeys finished in the window.
    pub journey_ms: Vec<f64>,
    /// Completion instants, seconds into the window.
    pub completed_at_s: Vec<f64>,
    pub window_s: f64,
    // traced run only
    pub first_hop_ms: Vec<f64>,
    pub next_hop_ms: Vec<f64>,
    pub launch_us: Vec<f64>,
    pub pump_us: Vec<f64>,
    pub busy_s: f64,
}

pub struct LoadGen<'w> {
    wl: &'w Workload,
    rng: Rng,
    traced: bool,
    journeys: HashMap<NapletId, Journey>,
    inflight: usize,
    reports_seen: usize,
    last_id_ms: u64,
    window: Option<(Instant, Instant)>,
    pub record: LoadRecord,
}

impl<'w> LoadGen<'w> {
    pub fn new(wl: &'w Workload, seed: u64, traced: bool) -> LoadGen<'w> {
        LoadGen {
            wl,
            rng: Rng::new(seed),
            traced,
            journeys: HashMap::new(),
            inflight: 0,
            reports_seen: 0,
            last_id_ms: 0,
            window: None,
            record: LoadRecord::default(),
        }
    }

    /// Keep K journeys in flight for `dur`; samples are kept only
    /// inside the measured window.
    pub fn run(&mut self, ctl: &mut CtlNode, dur: Duration, measured: bool) -> Result<()> {
        let start = Instant::now();
        let end = start + dur;
        self.window = measured.then_some((start, end));
        while Instant::now() < end {
            while self.inflight < self.wl.k {
                self.launch(ctl)?;
            }
            self.pump(ctl);
            std::thread::sleep(PUMP_INTERVAL);
        }
        if measured {
            self.record.window_s = start.elapsed().as_secs_f64();
        }
        self.window = None;
        Ok(())
    }

    /// Stop launching and pump until every journey has finished or
    /// `deadline` passes.
    pub fn drain(&mut self, ctl: &mut CtlNode, deadline: Duration) {
        let end = Instant::now() + deadline;
        while self.inflight > 0 && Instant::now() < end {
            self.pump(ctl);
            std::thread::sleep(PUMP_INTERVAL);
        }
    }

    /// Journeys that failed — unfinished, or given a missing,
    /// duplicated or foreign report — plus reports naming a journey
    /// never launched. Each failure is described on stderr.
    pub fn failed(&self, ctl: &CtlNode) -> u64 {
        let mut failed = self.record.unknown_reports;
        for (id, j) in &self.journeys {
            if j.broken || !j.done {
                failed += 1;
                let name = |d: &Option<usize>| d.map_or("?", |i| self.wl.daemons[i]);
                let stops: Vec<&str> = j.stops.iter().map(|i| self.wl.daemons[*i]).collect();
                let seen: Vec<&str> = j.seen.iter().map(name).collect();
                let entry = ctl.server().manager.table_entry(id);
                eprintln!(
                    "journeybench: journey {id} failed: itinerary {stops:?}, reports {seen:?}, \
                     home table {:?}",
                    entry.map(|e| (&e.status, &e.last_known))
                );
                let key = id.to_string();
                for line in ctl.server().log.iter().filter(|l| l.line.contains(&key)) {
                    eprintln!("journeybench:   home log: {line:?}");
                }
            }
        }
        failed
    }

    /// The finished journeys' ids with their launch time on the home
    /// node's clock.
    pub fn finished(&self) -> impl Iterator<Item = (&NapletId, u64)> {
        self.journeys
            .iter()
            .filter(|(_, j)| j.done && !j.broken)
            .map(|(id, j)| (id, j.launched_ctl_ms))
    }

    fn launch(&mut self, ctl: &mut CtlNode) -> Result<()> {
        let stops = self.rng.permutation(self.wl.daemons.len());
        let hosts: Vec<&str> = stops.iter().map(|&i| self.wl.daemons[i]).collect();
        let launched_ctl_ms = ctl.now().0;
        let launched = Instant::now();
        ctl.launch_probe(&hosts)
            .map_err(|e| format!("launch_probe: {e}"))?;
        if self.traced && self.window.is_some() {
            let took = launched.elapsed();
            self.record.launch_us.push(took.as_secs_f64() * 1e6);
            self.record.busy_s += took.as_secs_f64();
        }
        let id = self.new_id(ctl)?;
        self.journeys.insert(
            id,
            Journey {
                stops,
                reported: 0,
                launched,
                last_report: launched,
                launched_ctl_ms,
                seen: Vec::new(),
                done: false,
                broken: false,
            },
        );
        self.inflight += 1;
        self.record.launched += 1;
        Ok(())
    }

    /// The id of the probe just launched. Probe ids are owner + home +
    /// a creation time the home node keeps strictly increasing, so the
    /// new probe is the home table's only entry stamped after the
    /// previous launch.
    fn new_id(&mut self, ctl: &CtlNode) -> Result<NapletId> {
        let upto = ctl.now().0.max(self.last_id_ms + 1);
        for ms in self.last_id_ms + 1..=upto {
            let id = NapletId::new(OWNER, CTL, Millis(ms)).map_err(|e| e.to_string())?;
            if ctl.server().manager.table_entry(&id).is_some() {
                self.last_id_ms = ms;
                return Ok(id);
            }
        }
        Err("launched probe is missing from the home table".into())
    }

    fn pump(&mut self, ctl: &mut CtlNode) {
        let began = Instant::now();
        ctl.pump();
        let now = Instant::now();
        let in_window = self.window.is_some_and(|(s, e)| now >= s && now < e);
        if self.traced && in_window {
            let took = now - began;
            self.record.pump_us.push(took.as_secs_f64() * 1e6);
            self.record.busy_s += took.as_secs_f64();
        }
        let reports = &ctl.server().reports;
        for (id, value) in &reports[self.reports_seen..] {
            let host = value.as_str().ok().and_then(|s| s.strip_prefix("probe:"));
            let daemon = host.and_then(|h| self.wl.daemons.iter().position(|d| *d == h));
            let Some(j) = self.journeys.get_mut(id) else {
                eprintln!("journeybench: report {value:?} names unknown journey {id}");
                self.record.unknown_reports += 1;
                continue;
            };
            j.seen.push(daemon);
            // exactly one report per stop; reports from different
            // daemons travel on different connections, so an arrival
            // order that differs from the itinerary is counted, not failed
            let firsts = j.seen.iter().filter(|d| **d == daemon).count() == 1;
            if j.done || daemon.is_none_or(|d| !j.stops.contains(&d)) || !firsts {
                j.broken = true;
                continue;
            }
            if daemon != Some(j.stops[j.reported]) {
                self.record.reordered_reports += 1;
            }
            if self.traced && in_window {
                let gap = (now - j.last_report).as_secs_f64() * 1e3;
                if j.reported == 0 {
                    self.record.first_hop_ms.push(gap);
                } else {
                    self.record.next_hop_ms.push(gap);
                }
            }
            j.reported += 1;
            j.last_report = now;
            if j.reported == j.stops.len() {
                j.done = true;
                self.inflight -= 1;
                self.record.completed_total += 1;
                if let Some((start, _)) = self.window.filter(|_| in_window) {
                    self.record
                        .journey_ms
                        .push((now - j.launched).as_secs_f64() * 1e3);
                    self.record.completed_at_s.push((now - start).as_secs_f64());
                }
            }
        }
        self.reports_seen = reports.len();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutations_are_seeded_and_complete() {
        let (mut a, mut b) = (Rng::new(7), Rng::new(7));
        for _ in 0..100 {
            let p = a.permutation(3);
            assert_eq!(p, b.permutation(3));
            let mut s = p.clone();
            s.sort_unstable();
            assert_eq!(s, vec![0, 1, 2]);
        }
    }
}
