//! First-level queries over a [`Store`]: the paper's per-program table
//! (Section III-A), answered from the run table and the series index
//! without decoding a chunk.

use crate::{RunId, Store};
use cm_events::EventId;

/// First-level summary of everything stored for one program.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramSummary {
    /// Program name.
    pub program: String,
    /// Number of runs in the run table (all modes).
    pub run_count: usize,
    /// Execution time of each run, in key order.
    pub exec_times_secs: Vec<f64>,
    /// Union of events stored across the program's series.
    pub events: Vec<EventId>,
    /// Second-level table names ([`RunId::table_name`]), in key order.
    pub table_names: Vec<String>,
}

/// Min / mean / max execution time of a program's stored runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecTimeStats {
    /// Fastest run, seconds.
    pub min: f64,
    /// Mean across runs, seconds.
    pub mean: f64,
    /// Slowest run, seconds.
    pub max: f64,
    /// Number of runs aggregated.
    pub runs: usize,
}

impl RunId {
    /// The second-level table name this run maps to, mirroring the
    /// paper's "names of the second-level tables" column.
    pub fn table_name(&self) -> String {
        format!("{}__{}__run{}", self.program, self.mode, self.run_index)
    }
}

impl Store {
    /// First-level summary for one program, or `None` when the run table
    /// holds no run of it.
    pub fn summary(&self, program: &str) -> Option<ProgramSummary> {
        let runs: Vec<(&RunId, f64)> = self.program_runs(program).collect();
        if runs.is_empty() {
            return None;
        }
        let mut events: Vec<EventId> = self
            .series_keys()
            .filter(|k| k.program == program)
            .map(|k| k.event)
            .collect();
        events.sort();
        events.dedup();
        Some(ProgramSummary {
            program: program.to_string(),
            run_count: runs.len(),
            exec_times_secs: runs.iter().map(|&(_, secs)| secs).collect(),
            events,
            table_names: runs.iter().map(|(id, _)| id.table_name()).collect(),
        })
    }

    /// Execution-time statistics for one program (any mode), or `None`
    /// when the run table holds no run of it.
    pub fn exec_time_stats(&self, program: &str) -> Option<ExecTimeStats> {
        let times: Vec<f64> = self.program_runs(program).map(|(_, secs)| secs).collect();
        if times.is_empty() {
            return None;
        }
        let min = times.iter().copied().fold(f64::INFINITY, f64::min);
        let max = times.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mean = times.iter().sum::<f64>() / times.len() as f64;
        Some(ExecTimeStats {
            min,
            mean,
            max,
            runs: times.len(),
        })
    }

    /// The run-table entries of one program, in key order.
    fn program_runs<'a>(&'a self, program: &'a str) -> impl Iterator<Item = (&'a RunId, f64)> {
        self.run_ids()
            .filter(move |id| id.program == program)
            .filter_map(|id| Some((id, self.exec_time_secs(id)?)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cm_events::{RunRecord, SampleMode, TimeSeries};

    fn run(program: &str, idx: u32, mode: SampleMode, secs: f64, events: &[usize]) -> RunRecord {
        let mut r = RunRecord::new(program, idx, mode);
        r.set_exec_time_secs(secs);
        for &e in events {
            r.insert_series(
                EventId::new(e),
                TimeSeries::from_values(vec![e as f64; 3 + idx as usize]),
            );
        }
        r
    }

    /// A staged store (nothing committed): the queries read only the
    /// run table and the index, so they need no file.
    fn sample_store(tag: &str) -> Store {
        let path = std::env::temp_dir().join(format!("cm_query_{tag}_{}", std::process::id()));
        let mut store = Store::open(path).unwrap();
        for r in [
            run("a", 0, SampleMode::Mlpx, 10.0, &[1, 2, 3]),
            run("a", 1, SampleMode::Mlpx, 14.0, &[1, 2]),
            run("a", 0, SampleMode::Ocoe, 12.0, &[1]),
            run("b", 0, SampleMode::Mlpx, 50.0, &[7]),
        ] {
            store.append_run(&r).unwrap();
        }
        store
    }

    #[test]
    fn exec_time_stats_aggregate() {
        let store = sample_store("stats");
        let stats = store.exec_time_stats("a").unwrap();
        assert_eq!(stats.min, 10.0);
        assert_eq!(stats.max, 14.0);
        assert_eq!(stats.runs, 3);
        assert!((stats.mean - 12.0).abs() < 1e-12);
        assert!(store.exec_time_stats("zzz").is_none());
    }

    #[test]
    fn summary_aggregates_first_level_info() {
        let store = sample_store("summary");
        let summary = store.summary("a").unwrap();
        assert_eq!(summary.run_count, 3);
        // Key order: OCOE sorts before MLPX within a run index.
        assert_eq!(summary.exec_times_secs, vec![12.0, 10.0, 14.0]);
        assert_eq!(
            summary.events,
            vec![EventId::new(1), EventId::new(2), EventId::new(3)]
        );
        assert_eq!(summary.table_names.len(), 3);
        assert!(summary.table_names.iter().all(|t| t.starts_with("a__")));
        assert!(store.summary("unknown").is_none());
    }

    #[test]
    fn table_name_is_unique_per_key() {
        let a = RunId::new("x", 0, SampleMode::Ocoe).table_name();
        let b = RunId::new("x", 0, SampleMode::Mlpx).table_name();
        let c = RunId::new("x", 1, SampleMode::Ocoe).table_name();
        assert_ne!(a, b);
        assert_ne!(a, c);
    }
}
