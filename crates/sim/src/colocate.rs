//! Co-located workloads sharing a node (Section V-E, Fig. 16).
//!
//! Two benchmarks run together on the same machine: hardware counters
//! observe the *combined* event stream (per-benchmark attribution is
//! impossible — the paper makes the same point). The interference model:
//!
//! * event counts add; normalized activities average,
//! * when the benchmarks *differ*, shared-cache contention inflates the
//!   L2 request/miss events and makes them genuinely performance-relevant
//!   (the six L2 events entering the top-10 of Fig. 16), front-end churn
//!   boosts the branch-execution event, and each benchmark's private
//!   bottlenecks are diluted,
//! * when the same benchmark co-runs with itself, behaviour stays close
//!   to solo (the paper's 'DataCaching + DataCaching' observation).

use crate::pmu::ActivitySource;
use crate::truth::RESPONSE_SCALE;
use crate::workload::GeneratedRun;
use crate::{Benchmark, Workload};
use cm_events::{abbrev, EventCatalog, EventId};

/// Two benchmarks co-scheduled on one node.
///
/// # Examples
///
/// ```
/// use cm_events::EventCatalog;
/// use cm_sim::{Benchmark, ColocatedWorkload};
///
/// let catalog = EventCatalog::haswell();
/// let pair = ColocatedWorkload::new(
///     Benchmark::DataCaching,
///     Benchmark::GraphAnalytics,
///     &catalog,
/// );
/// assert_eq!(pair.name(), "DataCaching+GraphAnalytics");
/// let run = pair.generate_run(0, 1);
/// assert_eq!(run.ipc.len(), run.intervals);
/// ```
#[derive(Debug, Clone)]
pub struct ColocatedWorkload {
    first: Workload,
    second: Workload,
    name: String,
    /// Merged main-effect weights, indexed by event id.
    weights: Vec<f64>,
    /// Merged interaction terms.
    interactions: Vec<(usize, usize, f64)>,
    /// L2 event ids (inflated under heterogeneous co-location).
    l2_ids: Vec<usize>,
    heterogeneous: bool,
}

/// L2 activity boost applied to normalized activity under heterogeneous
/// co-location.
const L2_Z_BOOST: f64 = 1.2;
/// L2 count inflation factor under heterogeneous co-location.
const L2_COUNT_BOOST: f64 = 2.5;

impl ColocatedWorkload {
    /// Builds the co-located pair.
    pub fn new(a: Benchmark, b: Benchmark, catalog: &EventCatalog) -> Self {
        let first = Workload::new(a, catalog);
        let second = Workload::new(b, catalog);
        let heterogeneous = a != b;
        let n = catalog.len();

        // Heterogeneous interference dilutes each program's private
        // bottlenecks (the paper finds ISF gone from the heterogeneous
        // top-10); homogeneous co-location preserves them.
        let dilution = if heterogeneous { 0.2 } else { 0.5 };
        let mut weights: Vec<f64> = (0..n)
            .map(|i| {
                let id = EventId::new(i);
                dilution * (first.model().weight(id) + second.model().weight(id))
            })
            .collect();

        let l2_ids: Vec<usize> = [
            abbrev::L2H,
            abbrev::L2R,
            abbrev::L2C,
            abbrev::L2A,
            abbrev::L2M,
            abbrev::L2S,
        ]
        .iter()
        .map(|a| catalog.by_abbrev(a).expect("L2 abbrev").id().index())
        .collect();

        if heterogeneous {
            // Shared L1/L2 contention: the mixed instruction and data
            // footprints thrash the private caches, making L2 traffic a
            // first-order performance factor.
            for (k, &id) in l2_ids.iter().enumerate() {
                weights[id] += 0.14 * RESPONSE_SCALE * 0.97f64.powi(k as i32);
            }
            // Front-end churn from context mixing boosts the
            // branch-execution event (the Fig. 16 top event).
            let bre = catalog.by_abbrev(abbrev::BRE).expect("BRE").id().index();
            weights[bre] += 0.25 * RESPONSE_SCALE;
        }

        let mut interactions = Vec::new();
        for model in [first.model(), second.model()] {
            for &(x, y, v) in model.interactions() {
                interactions.push((x, y, if heterogeneous { 0.35 * v } else { 0.5 * v }));
            }
        }

        ColocatedWorkload {
            name: format!("{}+{}", a.name(), b.name()),
            first,
            second,
            weights,
            interactions,
            l2_ids,
            heterogeneous,
        }
    }

    /// The combined program name, `"first+second"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Merged main-effect weight of an event.
    pub fn weight(&self, id: EventId) -> f64 {
        self.weights[id.index()]
    }

    /// Generates the merged ground truth of one co-located run.
    pub fn generate_run(&self, run_index: u32, seed: u64) -> GeneratedRun {
        let ra = self.first.generate_run(run_index, seed);
        let rb = self.second.generate_run(run_index, seed ^ 0x00C0_FFEE);
        let n = ra.intervals.min(rb.intervals);
        let width = ra.counts.len();

        let mut counts = vec![Vec::with_capacity(n); width];
        let mut z = vec![Vec::with_capacity(n); width];
        for e in 0..width {
            let is_l2 = self.heterogeneous && self.l2_ids.contains(&e);
            for t in 0..n {
                let mut c = ra.counts[e][t] + rb.counts[e][t];
                let mut zi = 0.5 * (ra.z[e][t] + rb.z[e][t]);
                if is_l2 {
                    c *= L2_COUNT_BOOST;
                    zi += L2_Z_BOOST;
                }
                counts[e].push(c);
                z[e].push(zi);
            }
        }

        // Contention lowers the achievable base IPC.
        let base = if self.heterogeneous { 1.25 } else { 1.65 };
        let ipc: Vec<f64> = (0..n)
            .map(|t| {
                let mut v = base;
                for (e, w) in self.weights.iter().enumerate() {
                    if *w != 0.0 {
                        let zi = z[e][t]
                            - if self.l2_ids.contains(&e) && self.heterogeneous {
                                // The boost shifts the operating point; IPC
                                // responds to deviations around it.
                                L2_Z_BOOST
                            } else {
                                0.0
                            };
                        let zs = zi.clamp(-3.0, 3.0);
                        v -= w * (zs + 0.12 * zs * zs);
                    }
                }
                for &(a, b, w) in &self.interactions {
                    v -= w * z[a][t].clamp(-3.0, 3.0) * z[b][t].clamp(-3.0, 3.0);
                }
                v.max(0.2)
            })
            .collect();

        GeneratedRun {
            intervals: n,
            counts,
            z,
            ipc,
            exec_secs: ra.exec_secs.max(rb.exec_secs),
        }
    }
}

impl ActivitySource for ColocatedWorkload {
    fn program_name(&self) -> &str {
        &self.name
    }
    fn burstiness(&self, event: EventId) -> f64 {
        self.first
            .burstiness(event)
            .max(self.second.burstiness(event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PmuConfig, SimRun};
    use cm_events::EventSet;

    fn catalog() -> EventCatalog {
        EventCatalog::haswell()
    }

    #[test]
    fn homogeneous_pair_matches_solo_weights() {
        let c = catalog();
        let solo = Workload::new(Benchmark::DataCaching, &c);
        let pair = ColocatedWorkload::new(Benchmark::DataCaching, Benchmark::DataCaching, &c);
        for info in c.iter() {
            let id = info.id();
            assert!(
                (pair.weight(id) - solo.model().weight(id)).abs() < 1e-12,
                "{}",
                info.abbrev()
            );
        }
    }

    #[test]
    fn heterogeneous_pair_promotes_l2_and_bre() {
        let c = catalog();
        let pair = ColocatedWorkload::new(Benchmark::DataCaching, Benchmark::GraphAnalytics, &c);
        let bre = c.by_abbrev(abbrev::BRE).unwrap().id();
        let isf = c.by_abbrev(abbrev::ISF).unwrap().id();
        let l2h = c.by_abbrev(abbrev::L2H).unwrap().id();
        // BRE overtakes ISF; L2 events gain real weight.
        assert!(pair.weight(bre) > pair.weight(isf));
        assert!(pair.weight(l2h) > 0.05);
        // Solo models give L2 essentially nothing.
        let solo = Workload::new(Benchmark::DataCaching, &c);
        assert!(solo.model().weight(l2h) < 0.02);
    }

    #[test]
    fn l2_counts_inflate_under_heterogeneous_colocation() {
        let c = catalog();
        let homo = ColocatedWorkload::new(Benchmark::DataCaching, Benchmark::DataCaching, &c);
        let hetero = ColocatedWorkload::new(Benchmark::DataCaching, Benchmark::GraphAnalytics, &c);
        let l2h = c.by_abbrev(abbrev::L2H).unwrap().id().index();
        let mean =
            |run: &GeneratedRun, e: usize| run.counts[e].iter().sum::<f64>() / run.intervals as f64;
        let m_homo = mean(&homo.generate_run(0, 1), l2h);
        let m_hetero = mean(&hetero.generate_run(0, 1), l2h);
        assert!(
            m_hetero > 1.5 * m_homo,
            "hetero {m_hetero} vs homo {m_homo}"
        );
    }

    #[test]
    fn merged_run_is_measurable_by_pmu() {
        let c = catalog();
        let pair = ColocatedWorkload::new(Benchmark::DataCaching, Benchmark::GraphAnalytics, &c);
        let truth = pair.generate_run(0, 2);
        let events: EventSet = c.iter().take(10).map(|e| e.id()).collect();
        let run: SimRun = PmuConfig::default().measure_mlpx(&pair, &truth, &events, 0, 2);
        assert_eq!(run.record.program(), "DataCaching+GraphAnalytics");
        assert_eq!(run.record.event_count(), 10);
    }

    #[test]
    fn ipc_stays_positive_under_contention() {
        let c = catalog();
        let pair = ColocatedWorkload::new(Benchmark::WebServing, Benchmark::WebSearch, &c);
        let run = pair.generate_run(0, 3);
        assert!(run.ipc.iter().all(|&v| v > 0.0));
        // Heterogeneous co-location runs slower than solo on average.
        let solo = Workload::new(Benchmark::WebServing, &c).generate_run(0, 3);
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(mean(&run.ipc) < mean(&solo.ipc));
    }
}
