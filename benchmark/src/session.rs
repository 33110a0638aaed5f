//! The parent side of a benchmark run: spawns one fresh child process per
//! repetition (so `peak_rss_mb` is that repetition's alone), keeps what
//! the children report, checks their outputs against each other, and
//! reduces them to the declared metrics.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::catalog;
use crate::drives;
use crate::stats::{median, quartiles};
use crate::workloads::Workload;

/// What a child prints as its last line.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChildDoc {
    /// Hex FNV fingerprint of the simulated output.
    pub fingerprint: String,
    pub values: BTreeMap<String, f64>,
}

/// One finished repetition.
#[derive(Debug, Clone)]
pub struct Rep {
    pub doc: ChildDoc,
    /// Seconds the child process took, start to exit.
    pub process_s: f64,
}

impl Rep {
    fn get(&self, key: &str) -> f64 {
        self.doc.values.get(key).copied().unwrap_or(0.0)
    }
}

/// Median, quartiles and count of one metric over a workload's
/// repetitions.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: u64,
}

/// How far the sum of a traced run's self times may be from its wall
/// time before the ledger counts as broken.
const LEDGER_TOLERANCE: f64 = 0.15;

/// Everything measured for one seed.
pub struct Session {
    exe: PathBuf,
    out_dir: PathBuf,
    pub seed: u64,
    reps: BTreeMap<&'static str, Vec<Rep>>,
    traced: BTreeMap<&'static str, Rep>,
    drives: BTreeMap<&'static str, f64>,
}

impl Session {
    /// A session whose children are this executable run with `--child`,
    /// writing trace files under `out_dir`.
    pub fn new(seed: u64, out_dir: PathBuf) -> Result<Session, String> {
        Ok(Session {
            exe: std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?,
            out_dir,
            seed,
            reps: BTreeMap::new(),
            traced: BTreeMap::new(),
            drives: BTreeMap::new(),
        })
    }

    fn spawn(&self, workload: Workload, traced: bool) -> Result<Rep, String> {
        let start = Instant::now();
        let out = Command::new(&self.exe)
            .arg("--child")
            .arg(workload.name())
            .args(["--seed", &self.seed.to_string()])
            .args(["--traced", if traced { "1" } else { "0" }])
            .arg("--out")
            .arg(&self.out_dir)
            .output()
            .map_err(|e| format!("cannot start a child process: {e}"))?;
        let process_s = start.elapsed().as_secs_f64();
        let stdout = String::from_utf8_lossy(&out.stdout);
        if !out.status.success() {
            return Err(format!(
                "{} child exited with {}:\n{}{}",
                workload.name(),
                out.status,
                stdout,
                String::from_utf8_lossy(&out.stderr)
            ));
        }
        let last = stdout.lines().last().unwrap_or("");
        let doc: ChildDoc = serde_json::from_str(last)
            .map_err(|e| format!("{} child printed no result: {e}", workload.name()))?;
        Ok(Rep { doc, process_s })
    }

    /// Runs one untraced repetition of `workload`; returns how long its
    /// process took.
    pub fn rep(&mut self, workload: Workload) -> Result<f64, String> {
        let rep = self.spawn(workload, false)?;
        let process_s = rep.process_s;
        self.reps.entry(workload.name()).or_default().push(rep);
        Ok(process_s)
    }

    /// Runs the traced repetition of a traceable `workload`.
    pub fn trace(&mut self, workload: Workload) -> Result<(), String> {
        let rep = self.spawn(workload, true)?;
        self.traced.insert(workload.name(), rep);
        Ok(())
    }

    /// Runs the isolated layer drives in this process.
    pub fn drive(&mut self) {
        self.drives = drives::all().into_iter().collect();
    }

    fn all_reps(&self) -> impl Iterator<Item = (&'static str, &Rep)> {
        self.reps
            .iter()
            .flat_map(|(w, reps)| reps.iter().map(move |r| (*w, r)))
            .chain(self.traced.iter().map(|(w, r)| (*w, r)))
    }

    /// Simulated invocations replayed by every child so far.
    pub fn attempted(&self) -> u64 {
        self.all_reps().map(|(_, r)| r.get("arrivals") as u64).sum()
    }

    /// The fingerprint of `workload`'s first repetition, if it ran.
    pub fn fingerprint(&self, workload: Workload) -> Option<&str> {
        self.reps
            .get(workload.name())
            .and_then(|r| r.first())
            .map(|r| r.doc.fingerprint.as_str())
    }

    /// Checks the outputs against each other. Returns one line per
    /// violated rule: every repetition of a workload has one fingerprint;
    /// a traced run reproduces the untraced fingerprint and event count,
    /// and its self times add up to its wall time within
    /// [`LEDGER_TOLERANCE`]; `fleet_s2` equals `fleet_s1` and `harvest_replay_tel` equals
    /// `harvest_replay`. (A conservation gap is data, not a violation: it
    /// feeds `failed_share`.)
    pub fn violations(&self) -> Vec<String> {
        let mut bad = Vec::new();
        for w in Workload::ALL {
            let Some(first) = self.reps.get(w.name()).and_then(|r| r.first()) else {
                continue;
            };
            for rep in &self.reps[w.name()] {
                if rep.doc.fingerprint != first.doc.fingerprint {
                    bad.push(format!(
                        "{}: repetitions disagree: fingerprint {} vs {}",
                        w.name(),
                        rep.doc.fingerprint,
                        first.doc.fingerprint
                    ));
                }
            }
            if let Some(traced) = self.traced.get(w.name()) {
                if traced.doc.fingerprint != first.doc.fingerprint
                    || traced.get("sim.engine.events") != first.get("sim.engine.events")
                {
                    bad.push(format!(
                        "{}: traced run diverged: fingerprint {} vs {}, events {} vs {}",
                        w.name(),
                        traced.doc.fingerprint,
                        first.doc.fingerprint,
                        traced.get("sim.engine.events"),
                        first.get("sim.engine.events"),
                    ));
                }
                let accounted = traced.get("trace.ledger_over_wall");
                if (accounted - 1.0).abs() > LEDGER_TOLERANCE {
                    bad.push(format!(
                        "{}: traced self times sum to {accounted:.3} of the traced wall_s \
                         (allowed 1 ± {LEDGER_TOLERANCE})",
                        w.name()
                    ));
                }
            }
            // Twins name each other; the later of a pair reports for both.
            let earlier = w.twin().filter(|t| (*t as u8) < w as u8);
            if let Some(twin) = earlier.and_then(|t| self.fingerprint(t)) {
                if twin != first.doc.fingerprint {
                    bad.push(format!(
                        "{} and its twin disagree: fingerprint {} vs {twin}",
                        w.name(),
                        first.doc.fingerprint
                    ));
                }
            }
        }
        bad
    }

    fn series(&self, workload: Workload, key: &str) -> Vec<f64> {
        self.reps
            .get(workload.name())
            .map(|reps| {
                reps.iter()
                    .filter_map(|r| r.doc.values.get(key).copied())
                    .collect()
            })
            .unwrap_or_default()
    }

    fn median_of(&self, workload: Workload, key: &str) -> Option<f64> {
        let s = self.series(workload, key);
        (!s.is_empty()).then(|| median(&s))
    }

    /// What every untraced repetition of `workload` reported, in the order
    /// they ran.
    pub fn repetitions(&self, workload: Workload) -> Vec<BTreeMap<String, f64>> {
        self.reps
            .get(workload.name())
            .map(|reps| reps.iter().map(|r| r.doc.values.clone()).collect())
            .unwrap_or_default()
    }

    /// Every end-to-end metric of `workload` (plus `failed_share` and
    /// `completed_share`), over its untraced repetitions.
    pub fn end_to_end(&self, workload: Workload) -> BTreeMap<String, Summary> {
        catalog::end_to_end()
            .iter()
            .map(|m| m.name.as_str())
            .chain(["failed_share", "completed_share"])
            .filter_map(|name| {
                let s = self.series(workload, name);
                if s.is_empty() {
                    return None;
                }
                let (q1, q3) = quartiles(&s);
                Some((
                    name.to_string(),
                    Summary {
                        median: median(&s),
                        q1,
                        q3,
                        n: s.len() as u64,
                    },
                ))
            })
            .collect()
    }

    /// A metric that compares `workload` with another run — its traced
    /// run, or the two sides of its twin pair — or that only the other
    /// side of the pair measures. Both twins report the same value.
    fn derived(&self, workload: Workload, name: &str) -> Option<f64> {
        use Workload::{FleetS1, FleetS2, HarvestReplay, HarvestReplayTel};
        let med = |w, key| self.median_of(w, key);
        match (name, workload) {
            ("trace_overhead", _) => {
                Some(self.traced.get(workload.name())?.get("wall_s") / med(workload, "wall_s")?)
            }
            ("platform.shard.speedup", FleetS1 | FleetS2) => {
                Some(med(FleetS1, "wall_s")? / med(FleetS2, "wall_s")?)
            }
            ("platform.shard.cpu_inflation", FleetS1 | FleetS2) => {
                Some(med(FleetS2, "cpu_s")? / med(FleetS1, "cpu_s")?)
            }
            ("platform.shard.cpu_over_wall", FleetS1) => med(FleetS2, name),
            ("telemetry.on_over_off", HarvestReplay | HarvestReplayTel) => {
                Some(med(HarvestReplay, "wall_s")? / med(HarvestReplayTel, "wall_s")?)
            }
            ("telemetry.rss_delta_mb", HarvestReplay | HarvestReplayTel) => {
                Some(med(HarvestReplayTel, "peak_rss_mb")? - med(HarvestReplay, "peak_rss_mb")?)
            }
            ("telemetry.events_recorded", HarvestReplay) => med(HarvestReplayTel, name),
            _ => None,
        }
    }

    /// Every per-layer metric of `workload`: what a comparison with its
    /// twin gives, else the median over its untraced repetitions where
    /// they report it, else what its traced run or the isolated drives
    /// give, else 0.
    pub fn per_layer(&self, workload: Workload) -> BTreeMap<String, f64> {
        catalog::per_layer()
            .into_iter()
            .map(|m| {
                let value = self
                    .derived(workload, &m.name)
                    .or_else(|| self.median_of(workload, &m.name))
                    .or_else(|| {
                        self.traced
                            .get(workload.name())
                            .and_then(|t| t.doc.values.get(&m.name).copied())
                    })
                    .or_else(|| self.drives.get(m.name.as_str()).copied())
                    .unwrap_or(0.0);
                (m.name, value)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rep(fingerprint: &str, values: &[(&str, f64)]) -> Rep {
        Rep {
            doc: ChildDoc {
                fingerprint: fingerprint.to_string(),
                values: values.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            },
            process_s: 1.0,
        }
    }

    #[test]
    fn a_traced_run_must_match_its_untraced_run_and_add_up() {
        let mut s = Session::new(76, PathBuf::from("unused")).expect("a test has an executable");
        let plain = rep("aa", &[("sim.engine.events", 9.0)]);
        s.reps.insert("fleet_s1", vec![plain.clone(), plain]);
        let traced = |fingerprint, accounted| {
            rep(
                fingerprint,
                &[
                    ("sim.engine.events", 9.0),
                    ("trace.ledger_over_wall", accounted),
                ],
            )
        };
        for (run, broken) in [
            (traced("aa", 0.95), 0),
            (traced("aa", 1.10), 0),
            (traced("aa", 0.80), 1),
            (traced("aa", 1.20), 1),
            (traced("ab", 1.00), 1),
        ] {
            s.traced.insert("fleet_s1", run);
            assert_eq!(s.violations().len(), broken, "{:?}", s.violations());
        }
        s.reps
            .get_mut("fleet_s1")
            .expect("inserted")
            .push(rep("ab", &[]));
        assert_eq!(s.violations().len(), 2, "{:?}", s.violations());
    }

    #[test]
    fn twins_report_one_ratio_and_one_violation() {
        let mut s = Session::new(76, PathBuf::from("unused")).expect("a test has an executable");
        let s1 = |wall| {
            let own = ("platform.shard.cpu_over_wall", 1.0);
            rep("aa", &[("wall_s", wall), ("cpu_s", wall), own])
        };
        s.reps.insert("fleet_s1", vec![s1(6.0), s1(8.0), s1(7.0)]);
        let s2 = [
            ("wall_s", 3.5),
            ("cpu_s", 10.5),
            ("platform.shard.cpu_over_wall", 2.4),
        ];
        s.reps.insert("fleet_s2", vec![rep("aa", &s2)]);
        for w in [Workload::FleetS1, Workload::FleetS2] {
            let layers = s.per_layer(w);
            assert_eq!(layers["platform.shard.speedup"], 2.0);
            assert_eq!(layers["platform.shard.cpu_inflation"], 1.5);
            assert_eq!(layers["platform.shard.cpu_over_wall"], 2.4);
            assert_eq!(layers["telemetry.on_over_off"], 0.0);
        }
        assert!(s.violations().is_empty(), "{:?}", s.violations());
        s.reps.insert("fleet_s2", vec![rep("ab", &s2)]);
        assert_eq!(s.violations().len(), 1, "{:?}", s.violations());
    }
}
