use crate::abbrev;
use crate::id::EventId;
use std::collections::HashMap;
use std::fmt;

/// Value-distribution family of an event, as determined by the paper's
/// Anderson–Darling testing (Section III-B).
///
/// On the paper's Haswell-E machines, 100 of the 229 events had
/// Gaussian-distributed per-interval values; the other 129 followed
/// long-tail distributions best fit by the generalized extreme value
/// (GEV) family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TailFamily {
    /// Values follow a Gaussian (normal) distribution.
    Gaussian,
    /// Values follow a long-tail distribution (GEV fits best).
    LongTail,
}

impl fmt::Display for TailFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TailFamily::Gaussian => f.write_str("gaussian"),
            TailFamily::LongTail => f.write_str("long-tail"),
        }
    }
}

/// Coarse microarchitectural category of an event.
///
/// The paper's findings are phrased in terms of these categories ("branch
/// related events interact the most strongly", "common important events
/// related to branches, TLBs, and remote memory/cache operations"), so the
/// catalog tags every event with one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// Branch execution, retirement, and prediction events.
    Branch,
    /// Instruction/data/second-level TLB and page-walk events.
    Tlb,
    /// L1/L2/LLC cache events.
    Cache,
    /// Memory access, offcore, and remote-socket events.
    Memory,
    /// Instruction fetch and decode (front-end) events.
    Frontend,
    /// Execution and retirement (back-end) events.
    Backend,
    /// Everything else (transactional memory, assists, ring transitions…).
    Other,
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            EventKind::Branch => "branch",
            EventKind::Tlb => "tlb",
            EventKind::Cache => "cache",
            EventKind::Memory => "memory",
            EventKind::Frontend => "frontend",
            EventKind::Backend => "backend",
            EventKind::Other => "other",
        };
        f.write_str(s)
    }
}

/// Static metadata for one catalog event.
#[derive(Debug, Clone)]
pub struct EventInfo {
    id: EventId,
    abbrev: String,
    name: String,
    description: String,
    kind: EventKind,
    family: TailFamily,
    base_scale: f64,
}

impl EventInfo {
    /// The event's dense catalog id.
    pub fn id(&self) -> EventId {
        self.id
    }

    /// Three-character abbreviation (Table III style).
    pub fn abbrev(&self) -> &str {
        &self.abbrev
    }

    /// Full `perf`-style event name, e.g. `BR_INST_RETIRED.ALL_BRANCHES`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Human-readable description.
    pub fn description(&self) -> &str {
        &self.description
    }

    /// Microarchitectural category.
    pub fn kind(&self) -> EventKind {
        self.kind
    }

    /// Value-distribution family.
    pub fn family(&self) -> TailFamily {
        self.family
    }

    /// Typical per-interval count magnitude, used by the workload
    /// simulator to scale event processes.
    pub fn base_scale(&self) -> f64 {
        self.base_scale
    }

    /// Returns `true` for branch-related events (used for the paper's
    /// interaction finding).
    pub fn is_branch_related(&self) -> bool {
        self.kind == EventKind::Branch
    }

    /// Returns `true` for L2-cache events (used for the co-location
    /// finding of Fig. 16).
    pub fn is_l2_related(&self) -> bool {
        self.name.starts_with("L2_")
    }
}

/// The full event catalog of the modeled processor.
///
/// `EventCatalog::haswell()` builds the 229-event catalog modeled on the
/// Intel Xeon E5-2630 v3 (Haswell-E) machines of the paper.
///
/// # Examples
///
/// ```
/// use cm_events::{EventCatalog, TailFamily};
///
/// let catalog = EventCatalog::haswell();
/// let gaussian = catalog
///     .iter()
///     .filter(|e| e.family() == TailFamily::Gaussian)
///     .count();
/// assert_eq!(gaussian, 100);
/// assert_eq!(catalog.len() - gaussian, 129);
/// ```
#[derive(Debug, Clone)]
pub struct EventCatalog {
    events: Vec<EventInfo>,
    by_abbrev: HashMap<String, EventId>,
    by_name: HashMap<String, EventId>,
}

/// Number of events in the Haswell-E model catalog.
pub const HASWELL_EVENT_COUNT: usize = 229;
/// Number of Gaussian-distributed events in the Haswell-E model catalog.
pub const HASWELL_GAUSSIAN_COUNT: usize = 100;

struct RawEvent {
    abbrev: &'static str,
    name: String,
    description: String,
    kind: EventKind,
    family: TailFamily,
    base_scale: f64,
}

impl EventCatalog {
    /// Builds the 229-event Haswell-E model catalog.
    pub fn haswell() -> Self {
        let mut raw = named_events();
        raw.extend(generated_events());
        assert!(
            raw.len() >= HASWELL_EVENT_COUNT,
            "generator produced too few events: {}",
            raw.len()
        );
        raw.truncate(HASWELL_EVENT_COUNT);
        calibrate_families(&mut raw);
        Self::from_raw(raw)
    }

    fn from_raw(raw: Vec<RawEvent>) -> Self {
        let mut events = Vec::with_capacity(raw.len());
        let mut by_abbrev = HashMap::with_capacity(raw.len());
        let mut by_name = HashMap::with_capacity(raw.len());
        let mut auto = 0usize;
        for (i, r) in raw.into_iter().enumerate() {
            let id = EventId::new(i);
            let abbrev = if r.abbrev.is_empty() {
                let code = auto_abbrev(auto);
                auto += 1;
                code
            } else {
                r.abbrev.to_string()
            };
            let dup = by_abbrev.insert(abbrev.clone(), id);
            assert!(dup.is_none(), "duplicate abbreviation {abbrev}");
            let dup = by_name.insert(r.name.clone(), id);
            assert!(dup.is_none(), "duplicate event name {}", r.name);
            events.push(EventInfo {
                id,
                abbrev,
                name: r.name,
                description: r.description,
                kind: r.kind,
                family: r.family,
                base_scale: r.base_scale,
            });
        }
        EventCatalog {
            events,
            by_abbrev,
            by_name,
        }
    }

    /// Number of events in the catalog.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` if the catalog is empty (never true for built-in
    /// catalogs).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Looks up an event by id.
    ///
    /// Returns `None` when the id is out of range for this catalog.
    pub fn get(&self, id: EventId) -> Option<&EventInfo> {
        self.events.get(id.index())
    }

    /// Looks up an event by id, panicking on out-of-range ids.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this catalog.
    pub fn info(&self, id: EventId) -> &EventInfo {
        &self.events[id.index()]
    }

    /// Looks up an event by its Table III abbreviation.
    pub fn by_abbrev(&self, abbrev: &str) -> Option<&EventInfo> {
        self.by_abbrev.get(abbrev).map(|&id| self.info(id))
    }

    /// Looks up an event by its full `perf`-style name.
    pub fn by_name(&self, name: &str) -> Option<&EventInfo> {
        self.by_name.get(name).map(|&id| self.info(id))
    }

    /// Iterates over all events in id order.
    pub fn iter(&self) -> impl Iterator<Item = &EventInfo> {
        self.events.iter()
    }
}

impl<'a> IntoIterator for &'a EventCatalog {
    type Item = &'a EventInfo;
    type IntoIter = std::slice::Iter<'a, EventInfo>;

    fn into_iter(self) -> Self::IntoIter {
        self.events.iter()
    }
}

fn auto_abbrev(n: usize) -> String {
    // Q00..Q99, V00..V99, ... : prefixes chosen to avoid collisions with
    // the named Table III abbreviations.
    const PREFIXES: &[char] = &['Q', 'V', 'X', 'Y', 'Z', 'J', 'K'];
    let prefix = PREFIXES[n / 100 % PREFIXES.len()];
    format!("{prefix}{:02}", n % 100)
}

fn scale_for(kind: EventKind, family: TailFamily) -> f64 {
    match (kind, family) {
        (EventKind::Branch, TailFamily::Gaussian) => 2.0e7,
        (EventKind::Branch, TailFamily::LongTail) => 4.0e5,
        (EventKind::Tlb, _) => 8.0e3,
        (EventKind::Cache, TailFamily::Gaussian) => 5.0e5,
        (EventKind::Cache, TailFamily::LongTail) => 3.0e4,
        (EventKind::Memory, TailFamily::Gaussian) => 2.0e6,
        (EventKind::Memory, TailFamily::LongTail) => 1.0e4,
        (EventKind::Frontend, _) => 1.0e7,
        (EventKind::Backend, TailFamily::Gaussian) => 5.0e7,
        (EventKind::Backend, TailFamily::LongTail) => 2.0e6,
        (EventKind::Other, _) => 2.0e3,
    }
}

fn named(
    abbrev: &'static str,
    name: &str,
    description: &str,
    kind: EventKind,
    family: TailFamily,
) -> RawEvent {
    RawEvent {
        abbrev,
        name: name.to_string(),
        description: description.to_string(),
        kind,
        family,
        base_scale: scale_for(kind, family),
    }
}

fn named_events() -> Vec<RawEvent> {
    use EventKind::*;
    use TailFamily::*;
    vec![
        named(
            abbrev::ISF,
            "ILD_STALL.IQ_FULL",
            "stall cycles due to instruction queue full",
            Frontend,
            LongTail,
        ),
        named(
            abbrev::BRE,
            "BR_INST_EXEC.ALL_BRANCHES",
            "branch instructions executed",
            Branch,
            Gaussian,
        ),
        named(
            abbrev::BRB,
            "BR_INST_RETIRED.ALL_BRANCHES",
            "successfully retired branch instructions",
            Branch,
            Gaussian,
        ),
        named(
            abbrev::BMP,
            "BR_MISP_RETIRED.ALL_BRANCHES",
            "mispredicted but finally retired branch instructions",
            Branch,
            LongTail,
        ),
        named(
            abbrev::BRC,
            "BR_INST_RETIRED.CONDITIONAL",
            "retired conditional branch instructions",
            Branch,
            Gaussian,
        ),
        named(
            abbrev::BNT,
            "BR_INST_RETIRED.NOT_TAKEN",
            "retired not-taken branch instructions",
            Branch,
            Gaussian,
        ),
        named(
            abbrev::BAA,
            "BACLEARS.ANY",
            "branch address clears (front-end resteers)",
            Branch,
            LongTail,
        ),
        named(
            abbrev::ORA,
            "OFFCORE_RESPONSE.ALL_READS.LLC_MISS.REMOTE_DRAM",
            "offcore reads served by remote DRAM",
            Memory,
            LongTail,
        ),
        named(
            abbrev::ORO,
            "OFFCORE_RESPONSE.ALL_REQUESTS.LLC_MISS.REMOTE_HIT_FORWARD",
            "offcore requests served by a remote cache",
            Memory,
            LongTail,
        ),
        named(
            abbrev::URA,
            "UOPS_RETIRED.ALL",
            "uops retired, all",
            Backend,
            Gaussian,
        ),
        named(
            abbrev::URS,
            "UOPS_RETIRED.RETIRE_SLOTS",
            "retirement slots used",
            Backend,
            Gaussian,
        ),
        named(
            abbrev::IPD,
            "INST_RETIRED.PREC_DIST",
            "instructions retired (precise distribution)",
            Backend,
            Gaussian,
        ),
        named(
            abbrev::MSL,
            "MEM_UOPS_RETIRED.SPLIT_LOADS",
            "retired load uops split across cache lines",
            Memory,
            LongTail,
        ),
        named(
            abbrev::MST,
            "MEM_UOPS_RETIRED.SPLIT_STORES",
            "retired store uops split across cache lines",
            Memory,
            LongTail,
        ),
        named(
            abbrev::MLL,
            "MEM_LOAD_UOPS_RETIRED.LLC_MISS",
            "retired load uops missing the last-level cache",
            Memory,
            LongTail,
        ),
        named(
            abbrev::MUL,
            "MEM_UOPS_RETIRED.ALL_LOADS",
            "retired load uops, all",
            Memory,
            Gaussian,
        ),
        named(
            abbrev::MMR,
            "MEM_LOAD_UOPS_L3_MISS_RETIRED.REMOTE_DRAM",
            "L3-miss loads served by remote DRAM",
            Memory,
            LongTail,
        ),
        named(
            abbrev::LMH,
            "MEM_LOAD_UOPS_L3_HIT_RETIRED.XSNP_HIT",
            "L3-hit loads with cross-core snoop hit",
            Cache,
            LongTail,
        ),
        named(
            abbrev::LHN,
            "MEM_LOAD_UOPS_L3_HIT_RETIRED.XSNP_NONE",
            "L3-hit loads without snoop",
            Cache,
            Gaussian,
        ),
        named(
            abbrev::LRC,
            "MEM_LOAD_UOPS_L3_MISS_RETIRED.REMOTE_HITM",
            "L3-miss loads hitting modified data in a remote cache",
            Memory,
            LongTail,
        ),
        named(
            abbrev::LRA,
            "MEM_LOAD_UOPS_L3_MISS_RETIRED.REMOTE_FWD",
            "L3-miss loads forwarded from a remote cache",
            Memory,
            LongTail,
        ),
        named(
            abbrev::ITM,
            "ITLB_MISSES.MISS_CAUSES_A_WALK",
            "instruction TLB misses causing a page walk",
            Tlb,
            LongTail,
        ),
        named(
            abbrev::IMT,
            "ITLB_MISSES.WALK_COMPLETED",
            "instruction TLB page walks completed",
            Tlb,
            LongTail,
        ),
        named(
            abbrev::DSP,
            "DTLB_STORE_MISSES.MISS_CAUSES_A_WALK",
            "data TLB store misses causing a page walk",
            Tlb,
            LongTail,
        ),
        named(
            abbrev::DSH,
            "DTLB_STORE_MISSES.STLB_HIT",
            "data TLB store misses hitting the second-level TLB",
            Tlb,
            LongTail,
        ),
        named(
            abbrev::IDU,
            "IDQ.DSB_UOPS",
            "uops delivered to IDQ from the decode stream buffer",
            Frontend,
            Gaussian,
        ),
        named(
            abbrev::IM4,
            "IDQ.ALL_MITE_CYCLES_4_UOPS",
            "cycles MITE delivered four uops",
            Frontend,
            Gaussian,
        ),
        named(
            abbrev::IMC,
            "IDQ.MITE_CYCLES",
            "cycles MITE delivered uops to the IDQ",
            Frontend,
            Gaussian,
        ),
        named(
            abbrev::I4U,
            "IDQ.ALL_DSB_CYCLES_4_UOPS",
            "cycles DSB delivered four uops",
            Frontend,
            Gaussian,
        ),
        named(
            abbrev::ICM,
            "ICACHE.MISSES",
            "instruction cache misses per 1K instructions",
            Cache,
            LongTail,
        ),
        named(
            abbrev::CAC,
            "CYCLE_ACTIVITY.CYCLES_L1D_PENDING",
            "cycles with a pending L1D miss",
            Backend,
            LongTail,
        ),
        named(
            abbrev::OTS,
            "OTHER_ASSISTS.ANY",
            "hardware assists of any kind",
            Other,
            LongTail,
        ),
        named(
            abbrev::TFA,
            "TLB_FLUSH.STLB_ANY",
            "second-level TLB flushes",
            Tlb,
            LongTail,
        ),
        named(
            abbrev::PI3,
            "PAGE_WALKER_LOADS.ITLB_L3",
            "instruction-TLB page-walker loads hitting L3",
            Tlb,
            LongTail,
        ),
        named(
            abbrev::MIE,
            "MACHINE_CLEARS.MEMORY_ORDERING",
            "machine clears due to memory ordering",
            Backend,
            LongTail,
        ),
        named(
            abbrev::MCO,
            "MACHINE_CLEARS.COUNT",
            "machine clears, total",
            Backend,
            LongTail,
        ),
        named(
            abbrev::CRX,
            "OFFCORE_REQUESTS_BUFFER.SQ_FULL",
            "cycles the offcore super queue was full",
            Memory,
            LongTail,
        ),
        named(
            abbrev::ISL,
            "ILD_STALL.LCP",
            "instruction-length-decoder stalls on length-changing prefixes",
            Frontend,
            LongTail,
        ),
        named(
            abbrev::L2H,
            "L2_RQSTS.DEMAND_DATA_RD_HIT",
            "L2 demand data read hits",
            Cache,
            Gaussian,
        ),
        named(
            abbrev::L2R,
            "L2_RQSTS.ALL_DEMAND_DATA_RD",
            "L2 demand data reads, total",
            Cache,
            Gaussian,
        ),
        named(
            abbrev::L2C,
            "L2_RQSTS.CODE_RD_HIT",
            "L2 code read hits",
            Cache,
            Gaussian,
        ),
        named(
            abbrev::L2A,
            "L2_RQSTS.ALL_CODE_RD",
            "L2 code reads, total",
            Cache,
            Gaussian,
        ),
        named(
            abbrev::L2M,
            "L2_RQSTS.DEMAND_DATA_RD_MISS",
            "L2 demand data read misses",
            Cache,
            LongTail,
        ),
        named(
            abbrev::L2S,
            "L2_RQSTS.ALL_RFO",
            "L2 store (RFO) requests",
            Cache,
            Gaussian,
        ),
    ]
}

fn generated_events() -> Vec<RawEvent> {
    let mut out = Vec::new();
    let mut push = |name: String, kind: EventKind, desc: String| {
        let family = heuristic_family(&name);
        out.push(RawEvent {
            abbrev: "",
            name,
            description: desc,
            kind,
            family,
            base_scale: scale_for(kind, family),
        });
    };

    let groups: &[(&str, EventKind, &[&str])] = &[
        (
            "UOPS_DISPATCHED_PORT",
            EventKind::Backend,
            &[
                "PORT_0", "PORT_1", "PORT_2", "PORT_3", "PORT_4", "PORT_5", "PORT_6", "PORT_7",
            ],
        ),
        (
            "UOPS_EXECUTED",
            EventKind::Backend,
            &[
                "CORE",
                "THREAD",
                "CYCLES_GE_1_UOP_EXEC",
                "CYCLES_GE_2_UOPS_EXEC",
                "CYCLES_GE_3_UOPS_EXEC",
                "CYCLES_GE_4_UOPS_EXEC",
            ],
        ),
        (
            "UOPS_ISSUED",
            EventKind::Backend,
            &[
                "ANY",
                "FLAGS_MERGE",
                "SLOW_LEA",
                "SINGLE_MUL",
                "STALL_CYCLES",
                "CORE_STALL_CYCLES",
            ],
        ),
        (
            "CYCLE_ACTIVITY",
            EventKind::Backend,
            &[
                "STALLS_L1D_PENDING",
                "STALLS_L2_PENDING",
                "STALLS_LDM_PENDING",
                "CYCLES_L2_PENDING",
                "CYCLES_LDM_PENDING",
                "CYCLES_NO_EXECUTE",
            ],
        ),
        (
            "RESOURCE_STALLS",
            EventKind::Backend,
            &["ANY", "RS", "SB", "ROB"],
        ),
        (
            "LD_BLOCKS",
            EventKind::Memory,
            &["STORE_FORWARD", "NO_SR", "PARTIAL_ADDRESS_ALIAS"],
        ),
        (
            "DTLB_LOAD_MISSES",
            EventKind::Tlb,
            &[
                "MISS_CAUSES_A_WALK",
                "WALK_COMPLETED",
                "WALK_COMPLETED_4K",
                "WALK_COMPLETED_2M_4M",
                "WALK_DURATION",
                "STLB_HIT",
                "STLB_HIT_4K",
                "STLB_HIT_2M",
                "PDE_CACHE_MISS",
            ],
        ),
        (
            "DTLB_STORE_MISSES",
            EventKind::Tlb,
            &[
                "WALK_COMPLETED",
                "WALK_COMPLETED_4K",
                "WALK_DURATION",
                "STLB_HIT_4K",
                "PDE_CACHE_MISS",
            ],
        ),
        (
            "ITLB_MISSES",
            EventKind::Tlb,
            &[
                "WALK_COMPLETED_4K",
                "WALK_COMPLETED_2M_4M",
                "WALK_DURATION",
                "STLB_HIT",
            ],
        ),
        (
            "PAGE_WALKER_LOADS",
            EventKind::Tlb,
            &[
                "DTLB_L1",
                "DTLB_L2",
                "DTLB_L3",
                "DTLB_MEMORY",
                "ITLB_L1",
                "ITLB_L2",
                "ITLB_MEMORY",
                "EPT_DTLB_L1",
            ],
        ),
        (
            "L2_RQSTS",
            EventKind::Cache,
            &[
                "RFO_HIT",
                "RFO_MISS",
                "CODE_RD_MISS",
                "ALL_PF",
                "L2_PF_HIT",
                "L2_PF_MISS",
                "MISS",
                "REFERENCES",
            ],
        ),
        (
            "L2_TRANS",
            EventKind::Cache,
            &[
                "DEMAND_DATA_RD",
                "RFO",
                "CODE_RD",
                "ALL_PF",
                "L1D_WB",
                "L2_FILL",
                "L2_WB",
                "ALL_REQUESTS",
            ],
        ),
        ("L2_LINES_IN", EventKind::Cache, &["I", "S", "E", "ALL"]),
        (
            "L2_LINES_OUT",
            EventKind::Cache,
            &["DEMAND_CLEAN", "DEMAND_DIRTY"],
        ),
        (
            "L1D_PEND_MISS",
            EventKind::Cache,
            &["PENDING", "REQUEST_FB_FULL"],
        ),
        ("L1D", EventKind::Cache, &["REPLACEMENT"]),
        (
            "LONGEST_LAT_CACHE",
            EventKind::Cache,
            &["MISS", "REFERENCE"],
        ),
        (
            "MEM_LOAD_UOPS_RETIRED",
            EventKind::Memory,
            &[
                "L1_HIT", "L2_HIT", "L3_HIT", "L1_MISS", "L2_MISS", "L3_MISS", "HIT_LFB",
            ],
        ),
        (
            "MEM_UOPS_RETIRED",
            EventKind::Memory,
            &[
                "ALL_STORES",
                "STLB_MISS_LOADS",
                "STLB_MISS_STORES",
                "LOCK_LOADS",
            ],
        ),
        (
            "MEM_LOAD_UOPS_L3_HIT_RETIRED",
            EventKind::Cache,
            &["XSNP_MISS", "XSNP_HITM"],
        ),
        (
            "MEM_LOAD_UOPS_L3_MISS_RETIRED",
            EventKind::Memory,
            &["LOCAL_DRAM"],
        ),
        (
            "OFFCORE_REQUESTS",
            EventKind::Memory,
            &[
                "DEMAND_DATA_RD",
                "DEMAND_CODE_RD",
                "DEMAND_RFO",
                "ALL_DATA_RD",
            ],
        ),
        (
            "OFFCORE_REQUESTS_OUTSTANDING",
            EventKind::Memory,
            &[
                "DEMAND_DATA_RD",
                "DEMAND_CODE_RD",
                "DEMAND_RFO",
                "ALL_DATA_RD",
                "CYCLES_WITH_DEMAND_DATA_RD",
            ],
        ),
        (
            "BR_INST_EXEC",
            EventKind::Branch,
            &[
                "TAKEN_CONDITIONAL",
                "TAKEN_DIRECT_JUMP",
                "TAKEN_INDIRECT_JUMP_NON_CALL_RET",
                "TAKEN_INDIRECT_NEAR_RETURN",
                "TAKEN_DIRECT_NEAR_CALL",
                "TAKEN_INDIRECT_NEAR_CALL",
                "ALL_CONDITIONAL",
                "ALL_DIRECT_JMP",
            ],
        ),
        (
            "BR_MISP_EXEC",
            EventKind::Branch,
            &[
                "TAKEN_CONDITIONAL",
                "TAKEN_INDIRECT_JUMP_NON_CALL_RET",
                "ALL_CONDITIONAL",
                "ALL_INDIRECT_JUMP_NON_CALL_RET",
                "TAKEN_RETURN_NEAR",
                "ALL_BRANCHES",
            ],
        ),
        (
            "BR_INST_RETIRED",
            EventKind::Branch,
            &["NEAR_CALL", "NEAR_RETURN", "NEAR_TAKEN", "FAR_BRANCH"],
        ),
        (
            "BR_MISP_RETIRED",
            EventKind::Branch,
            &["CONDITIONAL", "NEAR_TAKEN", "ALL_BRANCHES_PEBS"],
        ),
        (
            "INT_MISC",
            EventKind::Backend,
            &["RECOVERY_CYCLES", "RAT_STALL_CYCLES"],
        ),
        (
            "IDQ",
            EventKind::Frontend,
            &[
                "MITE_UOPS",
                "MS_UOPS",
                "MS_SWITCHES",
                "MS_CYCLES",
                "ALL_DSB_CYCLES_ANY_UOPS",
                "EMPTY",
                "MITE_ALL_UOPS",
                "DSB_CYCLES",
            ],
        ),
        (
            "ICACHE",
            EventKind::Cache,
            &["HIT", "IFETCH_STALL", "IFDATA_STALL"],
        ),
        (
            "DSB2MITE_SWITCHES",
            EventKind::Frontend,
            &["COUNT", "PENALTY_CYCLES"],
        ),
        (
            "MOVE_ELIMINATION",
            EventKind::Backend,
            &[
                "INT_ELIMINATED",
                "SIMD_ELIMINATED",
                "INT_NOT_ELIMINATED",
                "SIMD_NOT_ELIMINATED",
            ],
        ),
        ("ARITH", EventKind::Backend, &["DIVIDER_UOPS"]),
        ("ROB_MISC_EVENTS", EventKind::Backend, &["LBR_INSERTS"]),
        (
            "LSD",
            EventKind::Frontend,
            &["UOPS", "CYCLES_ACTIVE", "CYCLES_4_UOPS"],
        ),
        ("RS_EVENTS", EventKind::Backend, &["EMPTY_CYCLES"]),
        (
            "LOCK_CYCLES",
            EventKind::Memory,
            &["CACHE_LOCK_DURATION", "SPLIT_LOCK_UC_LOCK_DURATION"],
        ),
        ("SQ_MISC", EventKind::Cache, &["SPLIT_LOCK"]),
        ("TLB_FLUSH", EventKind::Tlb, &["DTLB_THREAD"]),
        (
            "CPU_CLK_THREAD_UNHALTED",
            EventKind::Backend,
            &["ONE_THREAD_ACTIVE", "REF_XCLK"],
        ),
        ("MISALIGN_MEM_REF", EventKind::Memory, &["LOADS", "STORES"]),
        (
            "MACHINE_CLEARS",
            EventKind::Backend,
            &["SMC", "MASKMOV", "CYCLES"],
        ),
        (
            "OTHER_ASSISTS",
            EventKind::Other,
            &["AVX_TO_SSE", "SSE_TO_AVX", "ANY_WB_ASSIST"],
        ),
        (
            "UOPS_RETIRED",
            EventKind::Backend,
            &["STALL_CYCLES", "TOTAL_CYCLES", "CORE_STALL_CYCLES"],
        ),
        ("INST_RETIRED", EventKind::Backend, &["ANY_P", "X87"]),
        ("CPL_CYCLES", EventKind::Other, &["RING0", "RING123"]),
        (
            "HLE_RETIRED",
            EventKind::Other,
            &["START", "COMMIT", "ABORTED"],
        ),
        (
            "RTM_RETIRED",
            EventKind::Other,
            &["START", "COMMIT", "ABORTED"],
        ),
        (
            "MEM_TRANS_RETIRED",
            EventKind::Memory,
            &[
                "LOAD_LATENCY_GT_4",
                "LOAD_LATENCY_GT_8",
                "LOAD_LATENCY_GT_16",
                "LOAD_LATENCY_GT_32",
                "LOAD_LATENCY_GT_64",
                "LOAD_LATENCY_GT_128",
                "LOAD_LATENCY_GT_256",
                "LOAD_LATENCY_GT_512",
            ],
        ),
    ];
    for &(group, kind, members) in groups {
        for member in members {
            push(
                format!("{group}.{member}"),
                kind,
                format!("{} / {}", group.replace('_', " "), member.replace('_', " ")),
            );
        }
    }

    // Offcore response matrix: request type x response type.
    for request in [
        "DEMAND_DATA_RD",
        "DEMAND_CODE_RD",
        "DEMAND_RFO",
        "PF_L2_DATA_RD",
        "PF_L2_RFO",
        "PF_L3_DATA_RD",
        "PF_L3_RFO",
        "ALL_READS",
    ] {
        for response in [
            "ANY_RESPONSE",
            "LLC_HIT",
            "LLC_MISS.LOCAL_DRAM",
            "LLC_MISS.REMOTE_DRAM",
        ] {
            push(
                format!("OFFCORE_RESPONSE.{request}.{response}"),
                EventKind::Memory,
                format!(
                    "offcore response: {} / {}",
                    request.replace('_', " "),
                    response.replace('_', " ")
                ),
            );
        }
    }

    out
}

fn heuristic_family(name: &str) -> TailFamily {
    const LONG_TAIL_MARKERS: &[&str] = &[
        "MISS", "STALL", "WALK", "CLEAR", "FLUSH", "ABORT", "SPLIT", "LOCK", "ASSIST", "REMOTE",
        "LATENCY", "PENDING", "EMPTY", "RECOVERY", "SWITCH", "BLOCK", "FULL", "MISALIGN",
    ];
    if LONG_TAIL_MARKERS.iter().any(|m| name.contains(m)) {
        TailFamily::LongTail
    } else {
        TailFamily::Gaussian
    }
}

/// Nudges generated-event families so the catalog matches the paper's
/// reported 100 Gaussian / 129 long-tail split for this processor model.
fn calibrate_families(raw: &mut [RawEvent]) {
    let gaussian = raw
        .iter()
        .filter(|e| e.family == TailFamily::Gaussian)
        .count();
    let (from, to, excess) = if gaussian > HASWELL_GAUSSIAN_COUNT {
        (
            TailFamily::Gaussian,
            TailFamily::LongTail,
            gaussian - HASWELL_GAUSSIAN_COUNT,
        )
    } else {
        (
            TailFamily::LongTail,
            TailFamily::Gaussian,
            HASWELL_GAUSSIAN_COUNT - gaussian,
        )
    };
    let mut remaining = excess;
    // Only reclassify auto-generated events, from the end of the catalog,
    // so the named Table III events keep their documented families.
    for e in raw.iter_mut().rev() {
        if remaining == 0 {
            break;
        }
        if e.abbrev.is_empty() && e.family == from {
            e.family = to;
            e.base_scale = scale_for(e.kind, to);
            remaining -= 1;
        }
    }
    assert_eq!(remaining, 0, "could not calibrate family split");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn haswell_has_229_events() {
        let c = EventCatalog::haswell();
        assert_eq!(c.len(), HASWELL_EVENT_COUNT);
        assert!(!c.is_empty());
    }

    #[test]
    fn family_split_matches_paper() {
        let c = EventCatalog::haswell();
        let gaussian = c
            .iter()
            .filter(|e| e.family() == TailFamily::Gaussian)
            .count();
        assert_eq!(gaussian, HASWELL_GAUSSIAN_COUNT);
        assert_eq!(c.len() - gaussian, 129);
    }

    #[test]
    fn all_named_abbrevs_resolve() {
        let c = EventCatalog::haswell();
        for a in abbrev::ALL_NAMED {
            let info = c
                .by_abbrev(a)
                .unwrap_or_else(|| panic!("abbrev {a} missing from catalog"));
            assert_eq!(info.abbrev(), *a);
        }
    }

    #[test]
    fn ids_are_dense_and_consistent() {
        let c = EventCatalog::haswell();
        for (i, e) in c.iter().enumerate() {
            assert_eq!(e.id().index(), i);
            assert_eq!(c.info(e.id()).name(), e.name());
        }
    }

    #[test]
    fn lookup_by_name() {
        let c = EventCatalog::haswell();
        let icm = c.by_name("ICACHE.MISSES").unwrap();
        assert_eq!(icm.abbrev(), abbrev::ICM);
        assert!(c.by_name("NO.SUCH.EVENT").is_none());
    }

    #[test]
    fn get_out_of_range_is_none() {
        let c = EventCatalog::haswell();
        assert!(c.get(EventId::new(c.len())).is_none());
        assert!(c.get(EventId::new(0)).is_some());
    }

    #[test]
    fn branch_and_l2_helpers() {
        let c = EventCatalog::haswell();
        assert!(c.by_abbrev(abbrev::BRB).unwrap().is_branch_related());
        assert!(!c.by_abbrev(abbrev::ICM).unwrap().is_branch_related());
        assert!(c.by_abbrev(abbrev::L2H).unwrap().is_l2_related());
    }

    #[test]
    fn scales_are_positive() {
        let c = EventCatalog::haswell();
        assert!(c.iter().all(|e| e.base_scale() > 0.0));
    }

    #[test]
    fn isf_is_the_instruction_queue_stall_event() {
        let c = EventCatalog::haswell();
        let isf = c.by_abbrev(abbrev::ISF).unwrap();
        assert_eq!(isf.name(), "ILD_STALL.IQ_FULL");
        assert_eq!(isf.family(), TailFamily::LongTail);
    }

    #[test]
    fn auto_abbrevs_do_not_collide() {
        // Construction would panic on collision; building is the test.
        let c = EventCatalog::haswell();
        let abbrevs: std::collections::HashSet<&str> = c.iter().map(|e| e.abbrev()).collect();
        assert_eq!(abbrevs.len(), c.len());
    }
}
