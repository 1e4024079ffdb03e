//! The service-shaped orchestration layer over the `sb-core` selector.
//!
//! `sb-core` owns the placement *primitives* (closest-DC assignment, quota
//! debits, the degradation ladder); this module owns everything a
//! long-running service wraps around them: admission control, the call
//! lifecycle persisted through the `sb-store` call-state store, plan
//! hot-swap, and graceful drain. Keeping the two apart is deliberate — see
//! DESIGN.md §Layering for the separation-of-concerns lesson this encodes.

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use sb_core::{
    FreezeDecision, LatencyMap, PlanArtifact, PlanSwapStats, RealtimeSelector, RestoreDebit,
    SelectorOutcome, SelectorRung, SelectorStats,
};
use sb_forecast::{Observation, StreamingForecaster, StreamingParams};
use sb_net::{CountryId, DcId};
use sb_pack::{
    CallInfo, CostModel, FleetPacker, FleetSpec, GrowthModel, MoveDcOutcome, PackStateExport,
    PackStats, PackerConfig, ServerId,
};
use sb_store::{
    BuildCallIdHasher, CallEvent, CallState, CallStateStore, Frames, Journal, JournalConfig,
    JournalReadError, LatencyHistogram, MediaFlag,
};
use sb_workload::ConfigId;

use crate::wal::{self, freeze_kind, WalRecord};

/// One serving op in this many is timed. A worker counts its admits, joins,
/// media changes, freezes and ends; the first and every `OP_SAMPLE`-th after
/// it is sampled, and a sampled op's latency and its store write's are
/// recorded with weight `OP_SAMPLE`
/// ([`LatencyHistogram::record_n`]), so [`Engine::op_latency`] and
/// [`Engine::store_latency`] keep estimating every op. The other ops read
/// no clock — unless an admit deadline is configured, which needs a reading
/// on every admit, freeze and end.
pub const OP_SAMPLE: u64 = 64;

/// Overload-protection knobs: watermarks that turn admissions into typed
/// [`Admission::Shed`] outcomes instead of letting the engine collapse.
///
/// The default disables both watermarks (existing callers see no behavior
/// change) while keeping the store-write backoff armed — a healthy store
/// never triggers it.
#[derive(Clone, Debug)]
pub struct OverloadConfig {
    /// Shed admissions while live calls ≥ this watermark (queue-depth
    /// protection). `None` disables.
    pub active_watermark: Option<usize>,
    /// Per-admission deadline: shed while the EWMA of recent admit
    /// latencies exceeds it, and cap store-write backoff so one admission
    /// never sleeps past it. `None` disables.
    pub admit_deadline: Option<Duration>,
    /// First store-write retry backoff; doubles per attempt (bounded
    /// exponential).
    pub store_retry_base: Duration,
    /// Store-write retry attempts before declaring the store degraded.
    pub store_retry_limit: u32,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        OverloadConfig {
            active_watermark: None,
            admit_deadline: None,
            store_retry_base: Duration::from_micros(100),
            store_retry_limit: 3,
        }
    }
}

/// Two-level placement knobs: when present, every admitted call is also
/// packed onto a media server of its DC's fleet, placements become
/// `(DC, server)` pairs end-to-end, and [`Engine::kill_server`] gains a
/// server-granular failure domain.
#[derive(Clone, Debug)]
pub struct EnginePackConfig {
    /// Per-DC server fleet (must cover every DC of the topology).
    pub spec: FleetSpec,
    /// Packing policy knobs (scorer, hysteresis, eviction budget).
    pub packer: PackerConfig,
    /// Per-call CPU cost model.
    pub cost: CostModel,
    /// Optional growth predictor shaping reservations. The engine always
    /// evaluates it on an empty history — a reservation must be a pure
    /// function of the participant count so recovery can recompute it from
    /// journaled state — so a fitted model degenerates to its base rate
    /// here; [`GrowthModel::flat`] is the common choice.
    pub growth: Option<GrowthModel>,
}

/// Engine construction knobs.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Shard count of the call-state store.
    pub store_shards: usize,
    /// Overload-protection watermarks and deadlines.
    pub overload: OverloadConfig,
    /// Two-level `(DC, server)` placement; `None` keeps DC-only placement.
    pub pack: Option<EnginePackConfig>,
    /// Closed-loop service mode: run a streaming demand forecaster inside
    /// the engine. Every [`Engine::observe_demand`] bucket is journaled as
    /// a [`WalRecord::ForecastMark`] so recovery restores the controller's
    /// models bitwise. `None` keeps the engine purely reactive.
    pub forecast: Option<StreamingParams>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            store_shards: 64,
            overload: OverloadConfig::default(),
            pack: None,
            forecast: None,
        }
    }
}

/// The engine's closed-loop forecasting runtime: streaming models plus the
/// per-config bucket cursors that order the journaled marks.
struct ForecastState {
    fc: StreamingForecaster,
    marks: u64,
    /// Next expected bucket index per config — journaled with each mark and
    /// checked at recovery, so a reordered or dropped mark surfaces as a
    /// typed inconsistency instead of silently divergent models.
    next_bucket: std::collections::HashMap<u32, u64>,
}

impl ForecastState {
    fn new(params: StreamingParams) -> ForecastState {
        ForecastState {
            fc: StreamingForecaster::new(params),
            marks: 0,
            next_bucket: Default::default(),
        }
    }
}

/// The engine's packing runtime: the fleet packer plus the models that
/// derive a call's charge from its participant count.
struct PackRuntime {
    packer: FleetPacker,
    cost: CostModel,
    growth: Option<GrowthModel>,
}

impl PackRuntime {
    fn from_config(cfg: &EnginePackConfig) -> PackRuntime {
        PackRuntime {
            packer: FleetPacker::new(cfg.spec.clone(), cfg.packer),
            cost: cfg.cost,
            growth: cfg.growth.clone(),
        }
    }

    /// Reserved charge for a call of `participants` — actual cost plus the
    /// predicted growth headroom. Deliberately a pure function of the
    /// participant count (empty history) so recovery can recompute it.
    fn reserve(&self, participants: u32) -> u32 {
        match &self.growth {
            Some(g) => g.reserve_mcpu(&self.cost, participants, &[]),
            None => self.cost.cost_mcpu(participants),
        }
    }
}

/// Why an admission was shed instead of placed.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ShedReason {
    /// Live calls crossed [`OverloadConfig::active_watermark`].
    QueueDepth,
    /// The admit-latency EWMA exceeded [`OverloadConfig::admit_deadline`].
    LatencyWatermark,
    /// Store writes are failing after bounded exponential backoff.
    StoreBackoff,
}

impl std::fmt::Display for ShedReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ShedReason::QueueDepth => "queue-depth",
            ShedReason::LatencyWatermark => "latency-watermark",
            ShedReason::StoreBackoff => "store-backoff",
        })
    }
}

/// Outcome of an admission request.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum Admission {
    /// The call was admitted and placed (the outcome says where and via
    /// which rung). A placement of `None` means every DC was unreachable —
    /// admitted but stranded, mirroring the selector's ladder.
    Granted(SelectorOutcome),
    /// The engine is draining: no new calls.
    Draining,
    /// The engine is overloaded: the call was shed before touching the
    /// selector or the store (typed, counted, never a panic).
    Shed {
        /// Which watermark tripped.
        reason: ShedReason,
    },
}

impl Admission {
    /// The assigned DC, if any.
    pub fn dc(self) -> Option<sb_net::DcId> {
        match self {
            Admission::Granted(o) => o.dc(),
            Admission::Draining | Admission::Shed { .. } => None,
        }
    }
}

/// Aggregate engine counters (one consistent snapshot).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EngineStats {
    /// Selector-side statistics (assignments, freezes, migrations, …).
    pub selector: SelectorStats,
    /// Calls admitted (placed or stranded — the selector saw them).
    pub admitted: u64,
    /// Admissions rejected because the engine was draining.
    pub rejected_draining: u64,
    /// Calls ended.
    pub ended: u64,
    /// Plans hot-swapped in over the engine's lifetime.
    pub plans_installed: u64,
    /// Currently live calls (selector view).
    pub active_calls: usize,
    /// Call-state store write attempts (failed ones and retries included),
    /// counted exactly rather than sampled.
    pub store_writes: u64,
    /// Admissions shed at the queue-depth watermark.
    pub shed_queue_depth: u64,
    /// Admissions shed at the latency watermark.
    pub shed_latency: u64,
    /// Admissions shed while the store was degraded.
    pub shed_store: u64,
    /// Store-write retries performed (bounded exponential backoff).
    pub store_retries: u64,
    /// Store writes abandoned after exhausting the retry budget.
    pub store_write_failures: u64,
    /// Journal appends that failed (injected faults or I/O errors).
    pub journal_failures: u64,
    /// Realized-demand buckets absorbed by the streaming forecaster
    /// (0 when forecast mode is off).
    pub forecast_marks: u64,
    /// Configs the forecaster tracks.
    pub forecast_configs: u64,
    /// Configs whose model grid has seeded (past the warmup prefix).
    pub forecast_seeded: u64,
    /// Drift events the forecaster has signalled.
    pub forecast_drifts: u64,
}

/// A long-running selector service: admission, call lifecycle via the
/// sharded call-state store, plan hot-swap, graceful drain.
///
/// All methods take `&self`; workers drive a per-thread [`EngineWorker`]
/// (from [`Engine::worker`]) so stats and latency samples batch locally and
/// merge on flush/drop.
pub struct Engine {
    selector: RealtimeSelector,
    store: CallStateStore,
    pack: Option<PackRuntime>,
    forecast: Option<Mutex<ForecastState>>,
    journal: Option<Journal>,
    overload: OverloadConfig,
    draining: AtomicBool,
    admitted: AtomicU64,
    rejected_draining: AtomicU64,
    ended: AtomicU64,
    plans_installed: AtomicU64,
    shed_queue: AtomicU64,
    shed_latency: AtomicU64,
    shed_store: AtomicU64,
    store_retries: AtomicU64,
    store_write_failures: AtomicU64,
    store_degraded: AtomicBool,
    journal_failures: AtomicU64,
    store_writes: AtomicU64,
    /// EWMA of recent admit latencies, in nanoseconds (α = 1/8); kept only
    /// while an admit deadline is configured, the one reader.
    ewma_admit_ns: AtomicU64,
    op_latency: Mutex<LatencyHistogram>,
    store_latency: Mutex<LatencyHistogram>,
}

impl Engine {
    /// Boot the engine from a topology view and an initial plan artifact.
    pub fn new(latmap: &LatencyMap, artifact: &PlanArtifact, cfg: &EngineConfig) -> Engine {
        Engine {
            selector: RealtimeSelector::from_artifact(latmap, artifact),
            store: CallStateStore::new(cfg.store_shards),
            pack: cfg.pack.as_ref().map(PackRuntime::from_config),
            forecast: cfg.forecast.map(|p| Mutex::new(ForecastState::new(p))),
            journal: None,
            overload: cfg.overload.clone(),
            draining: AtomicBool::new(false),
            admitted: AtomicU64::new(0),
            rejected_draining: AtomicU64::new(0),
            ended: AtomicU64::new(0),
            plans_installed: AtomicU64::new(0),
            shed_queue: AtomicU64::new(0),
            shed_latency: AtomicU64::new(0),
            shed_store: AtomicU64::new(0),
            store_retries: AtomicU64::new(0),
            store_write_failures: AtomicU64::new(0),
            store_degraded: AtomicBool::new(false),
            journal_failures: AtomicU64::new(0),
            store_writes: AtomicU64::new(0),
            ewma_admit_ns: AtomicU64::new(0),
            op_latency: Mutex::new(LatencyHistogram::new()),
            store_latency: Mutex::new(LatencyHistogram::new()),
        }
    }

    /// Boot a journaled engine: every lifecycle operation is appended to
    /// `journal` (write-ahead, group-committed), starting with the boot
    /// plan artifact as record 0 — synced immediately, so a recovering
    /// engine always finds its plan.
    pub fn with_journal(
        latmap: &LatencyMap,
        artifact: &PlanArtifact,
        cfg: &EngineConfig,
        journal: Journal,
    ) -> Result<Engine, sb_store::JournalError> {
        journal.append_with(|f| WalRecord::frame_plan_install(artifact, f))?;
        journal.sync()?;
        let mut engine = Engine::new(latmap, artifact, cfg);
        engine.journal = Some(journal);
        Ok(engine)
    }

    /// A worker handle batching selector stats and latency samples locally.
    pub fn worker(&self) -> EngineWorker<'_> {
        EngineWorker {
            engine: self,
            shard: self.selector.shard(),
            ops: LatencyHistogram::new(),
            store_hist: LatencyHistogram::new(),
            op_count: 0,
            store_writes: 0,
        }
    }

    /// Hot-swap a new plan into the selector (carrying consumed quota over,
    /// see [`RealtimeSelector::install_plan`]). Journaled and synced
    /// eagerly when the engine is journaled — a plan install is never lost
    /// to the group-commit window.
    pub fn install_plan(&self, artifact: &PlanArtifact) -> PlanSwapStats {
        self.journal_op(|f| WalRecord::frame_plan_install(artifact, f));
        if let Some(j) = &self.journal {
            if j.sync().is_err() {
                self.journal_failures.fetch_add(1, Ordering::Relaxed);
            }
        }
        let swap = self.selector.install_plan(artifact);
        self.plans_installed.fetch_add(1, Ordering::Relaxed);
        swap
    }

    /// Journal one op's WAL records, if journaled: `write` frames them
    /// ([`WalRecord::frame`]) in the order recovery reads them, and they go
    /// out as one append — one lock, one fault check, one group-commit
    /// check. A failed append (an injected drop, an I/O error) loses the
    /// op's records together and is counted once; the engine keeps serving —
    /// availability wins over durability, and a later crash surfaces the
    /// gap as a typed realignment error instead of silent divergence.
    fn journal_op(&self, write: impl FnOnce(&mut Frames<'_>)) {
        if let Some(j) = &self.journal {
            if j.append_with(write).is_err() {
                self.journal_failures.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// The write-ahead journal, when this engine was booted with one.
    pub fn journal(&self) -> Option<&Journal> {
        self.journal.as_ref()
    }

    /// Force the journal's group commit (no-op when un-journaled).
    pub fn sync_journal(&self) {
        if let Some(j) = &self.journal {
            if j.sync().is_err() {
                self.journal_failures.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Is the store currently considered degraded (admissions shed with
    /// [`ShedReason::StoreBackoff`])? Cleared by the next successful write.
    pub fn store_degraded(&self) -> bool {
        self.store_degraded.load(Ordering::Relaxed)
    }

    /// Push a fresh topology view (latency map + per-DC health).
    pub fn update_topology(&self, latmap: &LatencyMap, dc_up: &[bool]) {
        self.selector.update_topology(latmap, dc_up);
    }

    /// Stop admitting new calls; in-flight calls keep running to completion.
    pub fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
    }

    /// Is the engine refusing new admissions?
    pub fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Drained = draining and no live calls remain.
    pub fn drained(&self) -> bool {
        self.draining() && self.selector.active_calls() == 0
    }

    /// Block until drained or `timeout` elapses; returns whether the drain
    /// completed. (Callers must keep feeding `end` events — the engine never
    /// hangs up calls itself.)
    pub fn wait_drained(&self, timeout: Duration) -> bool {
        let t0 = Instant::now();
        while !self.drained() {
            if t0.elapsed() >= timeout {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        true
    }

    /// Installed plan epoch.
    pub fn plan_epoch(&self) -> u64 {
        self.selector.plan_epoch()
    }

    /// Whether the installed plan is currently trusted (mirrors
    /// [`RealtimeSelector::plan_valid`]; journaled on every freeze record).
    pub fn plan_valid(&self) -> bool {
        self.selector.plan_valid()
    }

    /// Opaque token identifying the quota pool a `(config, start-minute)`
    /// freeze will debit, for partitioning work across workers (same token →
    /// same pool). `None` when the freeze would be unplanned.
    pub fn pool_token(&self, config: ConfigId, start_minute: u64) -> Option<u64> {
        self.selector.quota_pool_token(config, start_minute)
    }

    /// Feed one realized-demand bucket for `config` into the engine's
    /// streaming forecaster (service mode). The observation is journaled as
    /// a [`WalRecord::ForecastMark`] *before* the models advance — the
    /// write-ahead contract — so [`Engine::recover`] replays the exact
    /// observation sequence and restores the controller bitwise. Returns
    /// `None` when the engine was built without
    /// [`EngineConfig::forecast`].
    pub fn observe_demand(&self, config: u32, value: f64) -> Option<Observation> {
        let st = self.forecast.as_ref()?;
        let mut st = st.lock();
        let bucket = st.next_bucket.get(&config).copied().unwrap_or(0);
        let mark = WalRecord::ForecastMark {
            config,
            bucket,
            value_bits: value.to_bits(),
        };
        self.journal_op(|f| mark.frame(f));
        st.next_bucket.insert(config, bucket + 1);
        st.marks += 1;
        Some(st.fc.observe(config, value))
    }

    /// Horizon forecast for `config` from the engine's streaming models
    /// (`None` without forecast mode or before the config's grid seeds).
    pub fn forecast(&self, config: u32, horizon: usize) -> Option<Vec<f64>> {
        self.forecast.as_ref()?.lock().fc.forecast(config, horizon)
    }

    /// Snapshot of the streaming forecaster — the recovery differential's
    /// equality witness for the controller ([`StreamingForecaster::models_eq`]).
    pub fn export_forecaster(&self) -> Option<StreamingForecaster> {
        Some(self.forecast.as_ref()?.lock().fc.clone())
    }

    /// Selector-side statistics (includes deltas from flushed workers only).
    pub fn selector_stats(&self) -> SelectorStats {
        self.selector.stats()
    }

    /// Per-DC frozen-call tallies.
    pub fn per_dc_tallies(&self) -> Vec<u64> {
        self.selector.per_dc_tallies()
    }

    /// One consistent counter snapshot.
    pub fn stats(&self) -> EngineStats {
        let (fm, fc_n, fs, fd) = match &self.forecast {
            Some(st) => {
                let st = st.lock();
                (
                    st.marks,
                    st.fc.num_configs() as u64,
                    st.fc.num_seeded() as u64,
                    st.fc.drifts(),
                )
            }
            None => (0, 0, 0, 0),
        };
        EngineStats {
            selector: self.selector.stats(),
            admitted: self.admitted.load(Ordering::Relaxed),
            rejected_draining: self.rejected_draining.load(Ordering::Relaxed),
            ended: self.ended.load(Ordering::Relaxed),
            plans_installed: self.plans_installed.load(Ordering::Relaxed),
            active_calls: self.selector.active_calls(),
            store_writes: self.store_writes.load(Ordering::Relaxed),
            shed_queue_depth: self.shed_queue.load(Ordering::Relaxed),
            shed_latency: self.shed_latency.load(Ordering::Relaxed),
            shed_store: self.shed_store.load(Ordering::Relaxed),
            store_retries: self.store_retries.load(Ordering::Relaxed),
            store_write_failures: self.store_write_failures.load(Ordering::Relaxed),
            journal_failures: self.journal_failures.load(Ordering::Relaxed),
            forecast_marks: fm,
            forecast_configs: fc_n,
            forecast_seeded: fs,
            forecast_drifts: fd,
        }
    }

    /// Serving-op latency distribution (admit, freeze, end) merged from
    /// flushed workers: one op in [`OP_SAMPLE`] is timed and recorded with
    /// weight [`OP_SAMPLE`], so its count is a multiple of that and its
    /// mean and quantiles estimate every op.
    pub fn op_latency(&self) -> LatencyHistogram {
        self.op_latency.lock().clone()
    }

    /// Store write-latency distribution of the sampled ops' writes, merged
    /// from flushed workers and weighted like [`Engine::op_latency`];
    /// [`EngineStats::store_writes`] is the exact write count.
    pub fn store_latency(&self) -> LatencyHistogram {
        self.store_latency.lock().clone()
    }

    /// The call-state store (shared, cheap to clone).
    pub fn store(&self) -> &CallStateStore {
        &self.store
    }

    /// Deterministic snapshot of the selector's entire mutable state — the
    /// recovery differential's equality witness.
    pub fn export_selector_state(&self) -> sb_core::SelectorStateExport {
        self.selector.export_state()
    }

    /// The fleet packer, when two-level placement is enabled.
    pub fn packer(&self) -> Option<&FleetPacker> {
        self.pack.as_ref().map(|rt| &rt.packer)
    }

    /// Server currently hosting `call`, when the call is live and packed.
    pub fn server_of(&self, call: u64) -> Option<ServerId> {
        let dc = self.selector.current_dc(call)?;
        self.pack.as_ref()?.packer.server_of(dc, call)
    }

    /// Fleet-wide packing counters (`None` when packing is disabled).
    pub fn pack_stats(&self) -> Option<PackStats> {
        self.pack.as_ref().map(|rt| rt.packer.stats())
    }

    /// Deterministic snapshot of every server's occupancy and every packed
    /// call's slot — the pack half of the recovery equality witness
    /// (`None` when packing is disabled).
    pub fn export_pack_state(&self) -> Option<PackStateExport> {
        self.pack.as_ref().map(|rt| rt.packer.export_state())
    }

    /// Declare one media server dead: journal the death, drain its calls
    /// onto surviving servers of the same DC, and only for calls the DC
    /// cannot absorb fall back to the selector's re-home ladder (plan →
    /// locality → any-reachable), re-packing survivors at their new DC.
    /// Every displaced call's destination is journaled as a
    /// [`WalRecord::Pack`] record after the death, in the same append, so
    /// recovery replays the drain without re-running any packing decision
    /// and a crash never splits it. A no-op (still counted) on an
    /// empty server; a full no-op when packing is disabled or the server
    /// was already dead.
    pub fn kill_server(&self, server: ServerId) -> ServerDeathReport {
        let mut report = ServerDeathReport::default();
        let Some(rt) = &self.pack else {
            report.already_dead = true;
            return report;
        };
        report.records.push(WalRecord::ServerDeath {
            dc: server.dc.0,
            server: server.index,
        });
        let r = rt.packer.kill_server(server);
        report.already_dead = r.already_dead;
        report.was_empty = r.was_empty;
        for c in &r.rehomed {
            report.records.push(WalRecord::Pack {
                call: c.call,
                dc: server.dc.0,
                server: c.server,
                participants: c.participants,
                cost_mcpu: c.cost_mcpu,
            });
            report.rehomed += 1;
        }
        for sp in &r.spilled {
            let outcome = self.selector.rehome_call(sp.call);
            let (dc16, rung) = wal::encode_outcome(outcome);
            report.records.push(WalRecord::Rehome {
                call: sp.call,
                dc: dc16,
                rung,
            });
            let (dc, server) = match outcome.dc() {
                Some(new_dc) => {
                    let placed = rt.packer.place(
                        new_dc,
                        sp.call,
                        sp.participants,
                        sp.cost_mcpu,
                        sp.reserve_mcpu,
                    );
                    if sp.frozen {
                        rt.packer.freeze(new_dc, sp.call);
                    }
                    report.spilled_rehomed += 1;
                    (new_dc.0, placed.map_or(wal::NO_SERVER, |s| s.index))
                }
                None => {
                    report.stranded += 1;
                    (wal::NO_DC, wal::NO_SERVER)
                }
            };
            report.records.push(WalRecord::Pack {
                call: sp.call,
                dc,
                server,
                participants: sp.participants,
                cost_mcpu: sp.cost_mcpu,
            });
        }
        self.journal_op(|f| {
            for rec in &report.records {
                rec.frame(f);
            }
        });
        report
    }

    /// Rebuild an engine from its journal in one validating pass: re-install
    /// the boot plan from record 0, then decode and re-apply every durable
    /// operation's *recorded decision* as its frame is read. What depends
    /// on log order — quota debits, per-DC tallies, statistics, plan
    /// installs, server deaths, forecast marks — is applied record by
    /// record; each call's selector entry, store record and packer slot are
    /// kept in one recovery-local table that an end removes the call from,
    /// and the calls that survive the log land in the selector, the store
    /// and the packer once. The result is bitwise-identical to an
    /// uninterrupted run over the same durable prefix. The first problem in
    /// log order is the error, and a refused recovery leaves the file as it
    /// found it: a torn tail is truncated only after the last record is
    /// applied. The returned engine appends to the same journal, resuming at
    /// the next sequence number.
    pub fn recover(
        latmap: &LatencyMap,
        cfg: &EngineConfig,
        jcfg: JournalConfig,
        path: &Path,
    ) -> Result<(Engine, RecoveryReport), RecoveryError> {
        let mut frames = Journal::reopen(path).map_err(RecoveryError::Journal)?;
        let boot = frames
            .next_frame()
            .map_err(RecoveryError::Journal)?
            .ok_or(RecoveryError::NoBootPlan)?;
        let boot = WalRecord::decode(boot).map_err(|_| RecoveryError::BadRecord { index: 0 })?;
        let WalRecord::PlanInstall { ndjson } = boot else {
            return Err(RecoveryError::NoBootPlan);
        };
        // a plan the journal holds is outside input: parsed, then checked
        // against the topology before any freeze indexes a DC by it
        let plan = |ndjson: &str, index: u64| {
            PlanArtifact::from_ndjson(ndjson)
                .and_then(|a| a.check_dcs(latmap.num_dcs()))
                .map_err(|_| RecoveryError::PlanParse { index })
        };
        let boot = plan(&ndjson, 0)?;
        let mut engine = Engine::new(latmap, &boot, cfg);
        let mut report = RecoveryReport::default();
        let mut delta = SelectorStats::default();
        // every store event the live run persisted is one write: a fresh
        // store has no failed shard
        let mut writes = 0u64;
        let mut calls: HashMap<u64, RecoveredCall, BuildCallIdHasher> = HashMap::default();
        let mut index = 0;
        while let Some(payload) = frames.next_frame().map_err(RecoveryError::Journal)? {
            index += 1;
            let rec = WalRecord::decode(payload).map_err(|_| RecoveryError::BadRecord { index })?;
            match &rec {
                WalRecord::PlanInstall { ndjson } => {
                    let art = plan(ndjson, index)?;
                    engine.selector.install_plan(&art);
                    engine.plans_installed.fetch_add(1, Ordering::Relaxed);
                    report.plans += 1;
                }
                WalRecord::Admit {
                    call,
                    country,
                    dc,
                    rung,
                    server,
                } => {
                    engine.admitted.fetch_add(1, Ordering::Relaxed);
                    report.admits += 1;
                    delta.calls += 1;
                    match wal::decode_outcome(*dc, *rung) {
                        SelectorOutcome::Placed { dc: place, rung } => {
                            match rung {
                                SelectorRung::Plan => delta.rehomed_plan += 1,
                                SelectorRung::Locality => {}
                                SelectorRung::AnyReachable => delta.degraded_any += 1,
                            }
                            let c = calls.entry(*call).or_default();
                            c.selector = Some((CountryId(*country), place, None));
                            c.state = Some(CallState::start(*country, place.0));
                            writes += 1;
                            // a duplicate admit keeps the call's slot in its
                            // DC; one that moved the call freed the old slot
                            if let Some(rt) = &engine.pack {
                                if c.slot.is_none_or(|s| s.server.dc != place) {
                                    c.slot = (*server != wal::NO_SERVER).then(|| CallInfo {
                                        server: ServerId {
                                            dc: place,
                                            index: *server,
                                        },
                                        participants: 1,
                                        cost_mcpu: rt.cost.cost_mcpu(1),
                                        reserve_mcpu: rt.reserve(1),
                                        frozen: false,
                                    });
                                }
                            }
                        }
                        SelectorOutcome::Stranded => delta.stranded += 1,
                    }
                }
                WalRecord::Join { call, country } => {
                    if let Some(st) = calls.get_mut(call).and_then(|c| c.state.as_mut()) {
                        st.join(*country);
                    }
                    writes += 1;
                }
                WalRecord::Media { call, media } => {
                    if let Some(st) = calls.get_mut(call).and_then(|c| c.state.as_mut()) {
                        st.media = wal_media(*media);
                    }
                    writes += 1;
                }
                WalRecord::Freeze {
                    call,
                    config,
                    start_minute,
                    stale,
                    kind,
                    from: _,
                    to,
                    to_server,
                } => {
                    report.freezes += 1;
                    match *kind {
                        freeze_kind::STAY
                        | freeze_kind::MIGRATE
                        | freeze_kind::UNPLANNED
                        | freeze_kind::OVERFLOW => {
                            let Some(c) = calls.get_mut(call) else {
                                return Err(RecoveryError::Inconsistent { index });
                            };
                            let Some((_, dc, frozen)) = &mut c.selector else {
                                return Err(RecoveryError::Inconsistent { index });
                            };
                            let key = engine
                                .selector
                                .plan_slot_of_minute(*start_minute)
                                .map(|s| (ConfigId(*config), s));
                            *frozen = key;
                            *dc = DcId(*to);
                            let debit = match *kind {
                                freeze_kind::STAY => RestoreDebit::FirstOf,
                                freeze_kind::MIGRATE => RestoreDebit::BestOf,
                                _ => RestoreDebit::None,
                            };
                            engine.selector.restore_debit(key, *dc, debit, true);
                            // the packed half: the slot froze in place, or
                            // went with the call to the journaled `(to,
                            // to_server)` — or left the fleet when the DC
                            // move found no feasible server
                            c.slot = c.slot.and_then(|s| {
                                (*to_server != wal::NO_SERVER).then_some(CallInfo {
                                    server: ServerId {
                                        dc: *dc,
                                        index: *to_server,
                                    },
                                    frozen: true,
                                    ..s
                                })
                            });
                            if let Some(st) = &mut c.state {
                                st.frozen = true;
                            }
                            writes += 1;
                            delta.freezes += 1;
                            match *kind {
                                freeze_kind::MIGRATE => delta.migrations += 1,
                                freeze_kind::UNPLANNED => {
                                    delta.unplanned += 1;
                                    if *stale {
                                        delta.plan_stale += 1;
                                    }
                                }
                                freeze_kind::OVERFLOW => delta.overflow += 1,
                                _ => {}
                            }
                        }
                        freeze_kind::ALREADY_FROZEN => {
                            delta.duplicate_freezes += 1;
                            if let Some(st) = calls.get_mut(call).and_then(|c| c.state.as_mut()) {
                                st.frozen = true;
                            }
                            writes += 1;
                        }
                        freeze_kind::UNKNOWN => delta.unknown_freezes += 1,
                        _ => return Err(RecoveryError::BadRecord { index }),
                    }
                }
                WalRecord::End { call } => {
                    // `call_end` accounts an end the selector does not know
                    // itself, exactly as the live run's did
                    if calls.remove(call).and_then(|c| c.selector).is_none() {
                        engine.selector.call_end(*call);
                    }
                    writes += 1;
                    engine.ended.fetch_add(1, Ordering::Relaxed);
                    report.ends += 1;
                }
                WalRecord::Pack {
                    call,
                    dc,
                    server,
                    participants,
                    cost_mcpu,
                } => {
                    report.packs += 1;
                    if let Some(rt) = &engine.pack {
                        // a call the pack record moves off `NO_DC` or
                        // `NO_SERVER` left the fleet (stranded or unpacked)
                        let c = calls.entry(*call).or_default();
                        c.slot =
                            (*dc != wal::NO_DC && *server != wal::NO_SERVER).then(|| CallInfo {
                                server: ServerId {
                                    dc: DcId(*dc),
                                    index: *server,
                                },
                                participants: *participants,
                                cost_mcpu: *cost_mcpu,
                                reserve_mcpu: rt.reserve(*participants),
                                frozen: c.slot.is_some_and(|s| s.frozen),
                            });
                    }
                }
                WalRecord::ServerDeath { dc, server } => {
                    report.server_deaths += 1;
                    if let Some(rt) = &engine.pack {
                        rt.packer.restore_kill(ServerId {
                            dc: DcId(*dc),
                            index: *server,
                        });
                    }
                }
                WalRecord::Rehome { call, dc, rung } => {
                    report.rehomes += 1;
                    match wal::decode_outcome(*dc, *rung) {
                        SelectorOutcome::Placed { dc: new_dc, rung } => {
                            let Some((_, dc, frozen)) =
                                calls.get_mut(call).and_then(|c| c.selector.as_mut())
                            else {
                                return Err(RecoveryError::Inconsistent { index });
                            };
                            // the plan rung debited what `rehome_call` did
                            if rung == SelectorRung::Plan {
                                engine.selector.restore_debit(
                                    *frozen,
                                    new_dc,
                                    RestoreDebit::BestOf,
                                    false,
                                );
                            }
                            match rung {
                                SelectorRung::Plan => delta.rehomed_plan += 1,
                                SelectorRung::Locality => {}
                                SelectorRung::AnyReachable => delta.degraded_any += 1,
                            }
                            if *dc != new_dc {
                                delta.forced_migrations += 1;
                            }
                            *dc = new_dc;
                        }
                        SelectorOutcome::Stranded => {
                            // the live run dropped the call down the ladder;
                            // one the selector did not know counts as its end
                            if calls
                                .get_mut(call)
                                .and_then(|c| c.selector.take())
                                .is_none()
                            {
                                engine.selector.call_end(*call);
                            }
                            delta.stranded += 1;
                        }
                    }
                }
                WalRecord::ForecastMark {
                    config,
                    bucket,
                    value_bits,
                } => {
                    report.forecast_marks += 1;
                    // replay the observation sequence through a fresh
                    // forecaster — the streaming path is deterministic in
                    // its inputs, so the rebuilt models are bitwise-equal
                    // to the pre-crash ones. Marks in a journal written
                    // without forecast mode configured cannot be replayed
                    // meaningfully (no season length), so cfg must ask.
                    if let Some(st) = &engine.forecast {
                        let mut st = st.lock();
                        let expect = st.next_bucket.get(config).copied().unwrap_or(0);
                        if *bucket != expect {
                            return Err(RecoveryError::Inconsistent { index });
                        }
                        st.next_bucket.insert(*config, expect + 1);
                        st.marks += 1;
                        st.fc.observe(*config, f64::from_bits(*value_bits));
                    }
                }
            }
        }
        // the survivors land once; no table's observable state depends on
        // the order they land in
        for (call, c) in calls {
            if let Some((country, dc, frozen)) = c.selector {
                engine.selector.restore_call(call, country, dc, frozen);
            }
            if let Some(st) = c.state {
                engine.store.restore_state(call, st);
            }
            if let (Some(s), Some(rt)) = (c.slot, &engine.pack) {
                rt.packer.restore_set(
                    s.server.dc,
                    call,
                    s.server.index,
                    s.participants,
                    s.cost_mcpu,
                    s.reserve_mcpu,
                    s.frozen,
                );
            }
        }
        report.records = frames.records();
        report.torn_tail_bytes = frames.torn_tail_bytes();
        engine.journal = Some(frames.resume(path, jcfg).map_err(RecoveryError::Journal)?);
        engine.selector.add_stats(&delta);
        engine.store_writes.store(writes, Ordering::Relaxed);
        report.live_calls = engine.selector.active_calls();
        report.plan_epoch = engine.plan_epoch();
        Ok((engine, report))
    }
}

/// The `(config, plan slot)` quota pool a frozen call debited.
type QuotaKey = (ConfigId, usize);

/// One call as [`Engine::recover`] rebuilds it from the journal: the
/// selector's entry, the store's record and the packer's slot, each present
/// while the journaled history says that table holds the call.
#[derive(Default)]
struct RecoveredCall {
    /// First joiner's country, hosting DC and frozen quota key.
    selector: Option<(CountryId, DcId, Option<QuotaKey>)>,
    state: Option<CallState>,
    slot: Option<CallInfo>,
}

/// Decode a wire media code back to a [`MediaFlag`].
fn wal_media(code: u8) -> MediaFlag {
    match code {
        1 => MediaFlag::ScreenShare,
        2 => MediaFlag::Video,
        _ => MediaFlag::Audio,
    }
}

/// Encode a [`MediaFlag`] as its wire code.
pub(crate) fn media_code(media: MediaFlag) -> u8 {
    match media {
        MediaFlag::Audio => 0,
        MediaFlag::ScreenShare => 1,
        MediaFlag::Video => 2,
    }
}

/// What [`Engine::kill_server`] did with the dead server's calls.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ServerDeathReport {
    /// The server was already dead (or packing is disabled) — nothing was
    /// drained or counted.
    pub already_dead: bool,
    /// The server hosted no calls; the death itself is still counted.
    pub was_empty: bool,
    /// Calls re-homed onto surviving servers in the same DC.
    pub rehomed: usize,
    /// Spilled calls the selector's ladder re-placed at a DC (possibly the
    /// same one, unpacked, when nothing else is reachable).
    pub spilled_rehomed: usize,
    /// Spilled calls even the ladder could not place — dropped.
    pub stranded: usize,
    /// The exact WAL records this death appended, in order — crash
    /// harnesses mirror these into their expected record stream.
    pub records: Vec<WalRecord>,
}

/// What [`Engine::recover`] rebuilt.
#[derive(Clone, Debug, Default)]
pub struct RecoveryReport {
    /// Durable records replayed (including the boot plan).
    pub records: u64,
    /// Bytes truncated off a half-written journal tail.
    pub torn_tail_bytes: u64,
    /// Admissions replayed.
    pub admits: u64,
    /// Freezes replayed.
    pub freezes: u64,
    /// Ends replayed.
    pub ends: u64,
    /// Post-boot plan installs replayed.
    pub plans: u64,
    /// Pack (server-assignment) records replayed.
    pub packs: u64,
    /// Server deaths replayed.
    pub server_deaths: u64,
    /// Forced re-homes replayed.
    pub rehomes: u64,
    /// Forecast marks replayed through the streaming forecaster.
    pub forecast_marks: u64,
    /// Calls live after replay.
    pub live_calls: usize,
    /// Plan epoch after replay.
    pub plan_epoch: u64,
}

/// Why a recovery failed. Every variant is a typed, diagnosable refusal —
/// recovery never silently diverges from the journaled history.
#[derive(Clone, Debug, PartialEq)]
pub enum RecoveryError {
    /// The journal itself failed to scan (corruption, duplicated frames,
    /// bad magic, I/O).
    Journal(JournalReadError),
    /// Frame `index` is durable and CRC-valid but not a decodable record.
    BadRecord {
        /// 0-based record index.
        index: u64,
    },
    /// Record 0 is not a plan install — the engine cannot know its plan.
    NoBootPlan,
    /// A journaled plan artifact failed to parse, or names a DC the
    /// recovering engine's topology lacks.
    PlanParse {
        /// 0-based record index.
        index: u64,
    },
    /// A record references state the journal prefix never created (e.g. a
    /// freeze for a call that is not live).
    Inconsistent {
        /// 0-based record index.
        index: u64,
    },
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::Journal(e) => write!(f, "journal scan failed: {e}"),
            RecoveryError::BadRecord { index } => {
                write!(f, "undecodable wal record at index {index}")
            }
            RecoveryError::NoBootPlan => write!(f, "journal does not start with a plan install"),
            RecoveryError::PlanParse { index } => {
                write!(
                    f,
                    "journaled plan artifact at index {index} failed to parse or \
                     names an unknown DC"
                )
            }
            RecoveryError::Inconsistent { index } => {
                write!(
                    f,
                    "wal record at index {index} references state never created"
                )
            }
        }
    }
}

impl std::error::Error for RecoveryError {}

/// Per-thread engine handle: wraps a [`sb_core::SelectorShard`] plus local
/// latency histograms and counters; everything merges back into the
/// [`Engine`] on [`flush`](EngineWorker::flush) or drop.
pub struct EngineWorker<'a> {
    engine: &'a Engine,
    shard: sb_core::SelectorShard<'a>,
    ops: LatencyHistogram,
    store_hist: LatencyHistogram,
    /// Serving ops issued so far: picks the 1-in-[`OP_SAMPLE`] that are timed.
    op_count: u64,
    store_writes: u64,
}

/// A serving op as it starts: whether it is sampled, and the clock reading
/// a timed op (admit, freeze, end) started at, taken when it is sampled or
/// an admit deadline needs one.
#[derive(Copy, Clone)]
struct OpStart {
    sampled: bool,
    at: Option<Instant>,
}

impl EngineWorker<'_> {
    /// Count one serving op; `true` when it is one of the sampled 1 in
    /// [`OP_SAMPLE`].
    fn tick(&mut self) -> bool {
        let sampled = self.op_count.is_multiple_of(OP_SAMPLE);
        self.op_count += 1;
        sampled
    }

    /// Count one timed op and read the clock when the sample or the admit
    /// deadline (the EWMA watermark and `persist`'s retry budget) needs it.
    fn start_op(&mut self) -> OpStart {
        let sampled = self.tick();
        let timed = sampled || self.engine.overload.admit_deadline.is_some();
        OpStart {
            sampled,
            at: timed.then(Instant::now),
        }
    }

    /// The op's latency so far, when its clock was read; recorded into the
    /// op histogram with weight [`OP_SAMPLE`] when the op is sampled.
    fn stop_op(&mut self, op: OpStart) -> Option<Duration> {
        let elapsed = op.at?.elapsed();
        if op.sampled {
            self.ops.record_n(elapsed, OP_SAMPLE);
        }
        Some(elapsed)
    }

    /// Persist one store event with bounded exponential backoff: retries
    /// [`OverloadConfig::store_retry_limit`] times (doubling from
    /// [`OverloadConfig::store_retry_base`], never sleeping past the admit
    /// deadline's remaining budget), then abandons the write, marks the
    /// store degraded, and lets the selector remain the source of truth —
    /// the store is a stale-read cache until it heals. Any successful write
    /// clears the degraded flag. A sampled op's attempts are timed into the
    /// store histogram with weight [`OP_SAMPLE`]; every attempt is counted.
    /// `op.at` is when the op's deadline began to run; ops that take no
    /// reading of their own pass `None`, and the clock is read only if the
    /// first write fails.
    fn persist(&mut self, ev: CallEvent, op: OpStart) {
        let OpStart { sampled, mut at } = op;
        let ov = &self.engine.overload;
        let store = &self.engine.store;
        let mut attempt: u32 = 0;
        loop {
            self.store_writes += 1;
            let written = if sampled {
                store.try_apply_n(ev, &mut self.store_hist, OP_SAMPLE)
            } else {
                store.try_write(ev)
            };
            if written.is_ok() {
                self.engine.store_degraded.store(false, Ordering::Relaxed);
                return;
            }
            if attempt >= ov.store_retry_limit {
                self.engine
                    .store_write_failures
                    .fetch_add(1, Ordering::Relaxed);
                self.engine.store_degraded.store(true, Ordering::Relaxed);
                return;
            }
            let mut backoff = ov.store_retry_base * 2u32.saturating_pow(attempt);
            if let Some(deadline) = ov.admit_deadline {
                let budget = deadline.saturating_sub(at.get_or_insert_with(Instant::now).elapsed());
                if budget.is_zero() {
                    self.engine
                        .store_write_failures
                        .fetch_add(1, Ordering::Relaxed);
                    self.engine.store_degraded.store(true, Ordering::Relaxed);
                    return;
                }
                backoff = backoff.min(budget);
            }
            self.engine.store_retries.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(backoff);
            attempt += 1;
        }
    }

    /// Admit a new call: place it via the selector's ladder, journal the
    /// decision, and persist the `Start` record. Rejected outright while
    /// the engine drains; shed (typed, never a panic) past an overload
    /// watermark. Admit latency — selector + journal + store, sheds
    /// included — is sampled into [`Engine::op_latency`], so the p99 there
    /// is the deadline the engine is held to.
    pub fn admit(&mut self, call: u64, first_joiner: CountryId) -> Admission {
        if self.engine.draining.load(Ordering::Relaxed) {
            self.engine
                .rejected_draining
                .fetch_add(1, Ordering::Relaxed);
            return Admission::Draining;
        }
        let op = self.start_op();
        let ov = &self.engine.overload;
        if let Some(reason) = {
            if ov
                .active_watermark
                .is_some_and(|w| self.engine.selector.active_calls() >= w)
            {
                Some(ShedReason::QueueDepth)
            } else if ov.admit_deadline.is_some_and(|d| {
                self.engine.ewma_admit_ns.load(Ordering::Relaxed) > d.as_nanos() as u64
            }) {
                Some(ShedReason::LatencyWatermark)
            } else if self.engine.store_degraded.load(Ordering::Relaxed) {
                Some(ShedReason::StoreBackoff)
            } else {
                None
            }
        } {
            match reason {
                ShedReason::QueueDepth => &self.engine.shed_queue,
                ShedReason::LatencyWatermark => &self.engine.shed_latency,
                ShedReason::StoreBackoff => &self.engine.shed_store,
            }
            .fetch_add(1, Ordering::Relaxed);
            self.stop_op(op);
            return Admission::Shed { reason };
        }
        let (outcome, moved_from) = self.shard.call_start_replacing(call, first_joiner);
        let (dc16, rung) = wal::encode_outcome(outcome);
        let server = match (outcome.dc(), &self.engine.pack) {
            (Some(dc), Some(rt)) => {
                // a duplicate admit that moved a live call to another DC
                // frees its old slot before taking a new one
                if let Some(old) = moved_from {
                    rt.packer.remove(old, call);
                }
                rt.packer
                    .place(dc, call, 1, rt.cost.cost_mcpu(1), rt.reserve(1))
                    .map_or(wal::NO_SERVER, |s| s.index)
            }
            _ => wal::NO_SERVER,
        };
        let rec = WalRecord::Admit {
            call,
            country: first_joiner.0,
            dc: dc16,
            rung,
            server,
        };
        self.engine.journal_op(|f| rec.frame(f));
        self.engine.admitted.fetch_add(1, Ordering::Relaxed);
        if let Some(dc) = outcome.dc() {
            self.persist(
                CallEvent::Start {
                    call,
                    country: first_joiner.0,
                    dc: dc.index() as u16,
                },
                op,
            );
        }
        let elapsed = self.stop_op(op);
        if let (Some(elapsed), Some(_)) = (elapsed, self.engine.overload.admit_deadline) {
            // EWMA with α = 1/8: cheap, monotone-decaying admission pressure
            let sample = elapsed.as_nanos() as u64;
            let _ = self.engine.ewma_admit_ns.fetch_update(
                Ordering::Relaxed,
                Ordering::Relaxed,
                |old| {
                    Some(if old == 0 {
                        sample
                    } else {
                        old - old / 8 + sample / 8
                    })
                },
            );
        }
        Admission::Granted(outcome)
    }

    /// A participant joined an admitted call. With packing enabled the
    /// call's charge grows, which may re-pack it (or evict unfrozen
    /// neighbours when it is frozen in place); every touched call's
    /// resulting `(server, participants, cost)` is journaled as a
    /// [`WalRecord::Pack`] after the [`WalRecord::Join`], in one append.
    pub fn join(&mut self, call: u64, country: CountryId) {
        let op = OpStart {
            sampled: self.tick(),
            at: None,
        };
        let grown = self.engine.pack.as_ref().and_then(|rt| {
            let dc = self.shard.current_dc(call)?;
            let p = rt
                .packer
                .call_info(dc, call)?
                .participants
                .saturating_add(1);
            Some((
                dc,
                rt.packer
                    .grow(dc, call, p, rt.cost.cost_mcpu(p), rt.reserve(p)),
            ))
        });
        self.engine.journal_op(|f| {
            WalRecord::Join {
                call,
                country: country.0,
            }
            .frame(f);
            let Some((dc, out)) = &grown else { return };
            for c in &out.changed {
                WalRecord::Pack {
                    call: c.call,
                    dc: dc.0,
                    server: c.server,
                    participants: c.participants,
                    cost_mcpu: c.cost_mcpu,
                }
                .frame(f);
            }
        });
        self.persist(
            CallEvent::Join {
                call,
                country: country.0,
            },
            op,
        );
    }

    /// The call's media classification changed.
    pub fn set_media(&mut self, call: u64, media: MediaFlag) {
        let op = OpStart {
            sampled: self.tick(),
            at: None,
        };
        let rec = WalRecord::Media {
            call,
            media: media_code(media),
        };
        self.engine.journal_op(|f| rec.frame(f));
        self.persist(CallEvent::Media { call, media }, op);
    }

    /// The call's config froze (A minutes in): tally it against the plan,
    /// migrating if the plan disagrees with the initial placement, journal
    /// the decision, and persist the freeze.
    pub fn freeze(&mut self, call: u64, config: ConfigId, start_minute: u64) -> FreezeDecision {
        let op = self.start_op();
        let decision = self.shard.config_frozen(call, config, start_minute);
        self.stop_op(op);
        let (kind, from, to) = wal::encode_freeze(decision);
        let mut to_server = wal::NO_SERVER;
        if let Some(rt) = &self.engine.pack {
            if from != wal::NO_DC {
                rt.packer.freeze(DcId(from), call);
                if to != from {
                    // selector migration: carry the packed slot to the new
                    // DC's fleet (it may land unpacked if nothing fits)
                    if let MoveDcOutcome::Moved(s) = rt.packer.move_dc(DcId(from), DcId(to), call) {
                        to_server = s.index;
                    }
                } else if let Some(s) = rt.packer.server_of(DcId(to), call) {
                    to_server = s.index;
                }
            }
        }
        let rec = WalRecord::Freeze {
            call,
            config: config.0,
            start_minute,
            stale: !self.engine.selector.plan_valid(),
            kind,
            from,
            to,
            to_server,
        };
        self.engine.journal_op(|f| rec.frame(f));
        if !matches!(decision, FreezeDecision::UnknownCall) {
            self.persist(CallEvent::Freeze { call }, op);
        }
        decision
    }

    /// The call ended: release selector state and delete the store record.
    pub fn end(&mut self, call: u64) {
        let op = self.start_op();
        if let Some(rt) = &self.engine.pack {
            if let Some(dc) = self.shard.current_dc(call) {
                rt.packer.remove(dc, call);
            }
        }
        self.shard.call_end(call);
        self.stop_op(op);
        self.engine.journal_op(|f| WalRecord::End { call }.frame(f));
        self.persist(CallEvent::End { call }, op);
        self.engine.ended.fetch_add(1, Ordering::Relaxed);
    }

    /// Current DC hosting `call`, if live.
    pub fn current_dc(&self, call: u64) -> Option<sb_net::DcId> {
        self.shard.current_dc(call)
    }

    /// Re-read the engine's topology + plan snapshots (after
    /// [`Engine::install_plan`] / [`Engine::update_topology`]).
    pub fn refresh(&mut self) {
        self.shard.refresh_topology();
    }

    /// Merge local stats, counters and latency samples into the engine.
    pub fn flush(&mut self) {
        self.shard.flush();
        self.engine
            .store_writes
            .fetch_add(std::mem::take(&mut self.store_writes), Ordering::Relaxed);
        self.engine.op_latency.lock().merge(&self.ops);
        self.ops = LatencyHistogram::new();
        self.engine.store_latency.lock().merge(&self.store_hist);
        self.store_hist = LatencyHistogram::new();
    }
}

impl Drop for EngineWorker<'_> {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_core::{AllocationShares, PlanProvenance, PlannedQuotas};
    use sb_net::{FailureScenario, RoutingTable};
    use sb_workload::DemandMatrix;

    fn world() -> (sb_net::Topology, LatencyMap, PlanArtifact, ConfigId) {
        let topo = sb_net::presets::toy_three_dc();
        let routing = RoutingTable::compute(&topo, FailureScenario::None);
        let latmap = LatencyMap::from_routing(&topo, &routing);
        let cfg = ConfigId(0);
        let tokyo = topo.dc_by_name("Tokyo");
        let slots = 4;
        let mut shares = AllocationShares::new(slots);
        let mut demand = DemandMatrix::zero(1, slots, 30, 0);
        for s in 0..slots {
            shares.set(cfg, s, vec![(tokyo, 1.0)]);
            demand.set(cfg, s, 10.0);
        }
        let quotas = PlannedQuotas::from_plan(&shares, &demand);
        (topo, latmap, PlanArtifact::seed(quotas), cfg)
    }

    #[test]
    fn lifecycle_persists_through_store() {
        let (topo, latmap, artifact, cfg) = world();
        let engine = Engine::new(&latmap, &artifact, &EngineConfig::default());
        let jp = topo.country_by_name("JP");
        let mut w = engine.worker();
        let adm = w.admit(7, jp);
        let dc = adm.dc().expect("healthy topology places the call");
        assert_eq!(
            engine.store().get(7).map(|st| st.dc),
            Some(dc.index() as u16)
        );
        w.join(7, jp);
        w.set_media(7, MediaFlag::Video);
        let d = w.freeze(7, cfg, 0);
        assert!(!matches!(d, FreezeDecision::UnknownCall));
        assert!(engine.store().get(7).unwrap().frozen);
        w.end(7);
        assert!(engine.store().get(7).is_none());
        drop(w);
        let stats = engine.stats();
        assert_eq!(stats.admitted, 1);
        assert_eq!(stats.ended, 1);
        assert_eq!(stats.active_calls, 0);
        assert_eq!(stats.selector.calls, 1);
        assert_eq!(stats.selector.freezes, 1);
        assert_eq!(stats.store_writes, 5);
        // admit, freeze, end: the first is sampled and stands for OP_SAMPLE
        assert_eq!(engine.op_latency().count(), OP_SAMPLE);
    }

    #[test]
    fn one_op_in_op_sample_is_timed_and_store_writes_are_exact() {
        let (topo, latmap, artifact, cfg) = world();
        let ecfg = EngineConfig {
            store_shards: 1, // one shard: failing it fails every write
            overload: OverloadConfig {
                store_retry_base: Duration::from_micros(1),
                store_retry_limit: 1,
                ..OverloadConfig::default()
            },
            ..EngineConfig::default()
        };
        let engine = Engine::new(&latmap, &artifact, &ecfg);
        let jp = topo.country_by_name("JP");
        let mut w = engine.worker();
        let timed_count = |k: u64| OP_SAMPLE * k.div_ceil(OP_SAMPLE);
        assert!(w.admit(0, jp).dc().is_some());
        w.flush();
        assert_eq!(engine.op_latency().count(), timed_count(1));
        w.freeze(0, cfg, 0);
        w.end(0);
        for call in 1..70 {
            assert!(w.admit(call, jp).dc().is_some());
            w.freeze(call, cfg, 0);
            w.end(call);
        }
        w.flush();
        // 210 timed ops; ops 0, 64, 128 and 192 are sampled, each with a
        // store write
        assert_eq!(engine.op_latency().count(), timed_count(210));
        assert_eq!(engine.store_latency().count(), 4 * OP_SAMPLE);
        assert_eq!(engine.stats().store_writes, 210);

        // a failed-shard write and its one retry are two writes
        assert!(w.admit(100, jp).dc().is_some());
        engine.store().fail_shard(0, true);
        w.join(100, jp);
        engine.store().fail_shard(0, false);
        w.end(100);
        drop(w);
        let stats = engine.stats();
        assert_eq!(stats.store_retries, 1);
        assert_eq!(stats.store_write_failures, 1);
        assert_eq!(stats.store_writes, 210 + 1 + 2 + 1);
        assert_eq!(engine.op_latency().count(), timed_count(210));
    }

    #[test]
    fn latency_watermark_sheds_typed() {
        let (topo, latmap, artifact, _) = world();
        let mut cfg = EngineConfig::default();
        cfg.overload.admit_deadline = Some(Duration::from_nanos(1));
        let engine = Engine::new(&latmap, &artifact, &cfg);
        let jp = topo.country_by_name("JP");
        let mut w = engine.worker();
        // the first admit takes longer than 1 ns, so the EWMA it seeds is
        // over the deadline and the next admission is shed
        assert!(matches!(w.admit(1, jp), Admission::Granted(_)));
        assert_eq!(
            w.admit(2, jp),
            Admission::Shed {
                reason: ShedReason::LatencyWatermark
            }
        );
        assert!(engine.store().get(2).is_none());
        drop(w);
        let stats = engine.stats();
        assert_eq!(stats.shed_latency, 1);
        assert_eq!(stats.admitted, 1);
    }

    #[test]
    fn drain_rejects_new_calls_but_finishes_old_ones() {
        let (topo, latmap, artifact, _) = world();
        let engine = Engine::new(&latmap, &artifact, &EngineConfig::default());
        let jp = topo.country_by_name("JP");
        let mut w = engine.worker();
        assert!(matches!(w.admit(1, jp), Admission::Granted(_)));
        engine.begin_drain();
        assert_eq!(w.admit(2, jp), Admission::Draining);
        assert!(!engine.drained(), "call 1 is still live");
        assert!(!engine.wait_drained(Duration::from_millis(5)));
        w.end(1);
        assert!(engine.drained());
        assert!(engine.wait_drained(Duration::from_millis(5)));
        drop(w);
        let stats = engine.stats();
        assert_eq!(stats.admitted, 1);
        assert_eq!(stats.rejected_draining, 1);
        // the rejected call never reached the selector or the store
        assert_eq!(stats.selector.calls, 1);
        assert!(engine.store().get(2).is_none());
    }

    #[test]
    fn plan_hot_swap_changes_freeze_decisions() {
        let (topo, latmap, artifact, cfg) = world();
        let engine = Engine::new(&latmap, &artifact, &EngineConfig::default());
        let jp = topo.country_by_name("JP");
        let pune = topo.dc_by_name("Pune");

        // epoch 0 plan pins quota at Tokyo (closest): freezes stay
        let mut w = engine.worker();
        assert!(w.admit(1, jp).dc().is_some());
        assert!(matches!(w.freeze(1, cfg, 0), FreezeDecision::Stay(_)));

        // hot-swap a plan that moves all quota to Pune
        let slots = 4;
        let mut shares = AllocationShares::new(slots);
        let mut demand = DemandMatrix::zero(1, slots, 30, 0);
        for s in 0..slots {
            shares.set(cfg, s, vec![(pune, 1.0)]);
            demand.set(cfg, s, 10.0);
        }
        let quotas = PlannedQuotas::from_plan(&shares, &demand);
        let v2 = PlanArtifact::seed(quotas).with_epoch(1);
        engine.install_plan(&v2);
        assert_eq!(engine.plan_epoch(), 1);
        w.refresh();

        assert!(w.admit(2, jp).dc().is_some());
        match w.freeze(2, cfg, 0) {
            FreezeDecision::Migrate { to, .. } => assert_eq!(to, pune),
            other => panic!("expected a migration to Pune, got {other:?}"),
        }
        drop(w);
        assert_eq!(engine.stats().plans_installed, 1);
    }

    /// A journaled install frames the plan's NDJSON in place: the log holds
    /// the bytes of the `PlanInstall` record of `to_ndjson`, shares and an
    /// escaped scenario string included.
    #[test]
    fn journaled_install_writes_the_plan_install_record_bytes() {
        let (topo, latmap, artifact, cfg) = world();
        let path = temp_journal_path("install-bytes");
        let journal = Journal::create(&path, JournalConfig::default()).unwrap();
        let engine =
            Engine::with_journal(&latmap, &artifact, &EngineConfig::default(), journal).unwrap();
        let (tokyo, pune) = (topo.dc_by_name("Tokyo"), topo.dc_by_name("Pune"));
        let slots = 2;
        let mut shares = AllocationShares::new(slots);
        let mut demand = DemandMatrix::zero(1, slots, 30, 0);
        for s in 0..slots {
            shares.set(cfg, s, vec![(pune, 1.0 / 3.0), (tokyo, 2.0 / 3.0)]);
            demand.set(cfg, s, 10.0);
        }
        let quotas = PlannedQuotas::from_plan(&shares, &demand);
        let provenance = PlanProvenance {
            scenario: r#"DcDown("x\y")"#.to_string(),
            ..PlanProvenance::default()
        };
        let v2 = PlanArtifact::new(1, shares, quotas, provenance);
        engine.install_plan(&v2);
        engine.sync_journal();
        drop(engine);
        let scan = Journal::scan(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let want = |a: &PlanArtifact| WalRecord::PlanInstall {
            ndjson: a.to_ndjson(),
        };
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.records[0], want(&artifact).encode());
        assert_eq!(scan.records[1], want(&v2).encode());
        assert_eq!(WalRecord::decode(&scan.records[1]).unwrap(), want(&v2));
    }

    #[test]
    fn pool_token_matches_selector_partitioning() {
        let (_topo, latmap, artifact, cfg) = world();
        let engine = Engine::new(&latmap, &artifact, &EngineConfig::default());
        // same slot → same pool; different slot → different pool
        assert_eq!(engine.pool_token(cfg, 0), engine.pool_token(cfg, 29));
        assert_ne!(engine.pool_token(cfg, 0), engine.pool_token(cfg, 30));
        // unknown config → unplanned → no token
        assert_eq!(engine.pool_token(ConfigId(99), 0), None);
    }

    fn temp_journal_path(tag: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("sb-engine-test-{tag}-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn crash_recovery_rebuilds_identical_state() {
        let (topo, latmap, artifact, cfg) = world();
        let path = temp_journal_path("recover");
        let jcfg = JournalConfig {
            sync_every: 1, // sync every record: crash loses nothing
            ..JournalConfig::default()
        };
        let journal = Journal::create(&path, jcfg).unwrap();
        let engine =
            Engine::with_journal(&latmap, &artifact, &EngineConfig::default(), journal).unwrap();
        let jp = topo.country_by_name("JP");
        let mut w = engine.worker();
        // a frozen-and-live call, an ended call, an unknown-call freeze
        assert!(w.admit(1, jp).dc().is_some());
        w.join(1, jp);
        w.set_media(1, MediaFlag::Video);
        assert!(!matches!(w.freeze(1, cfg, 0), FreezeDecision::UnknownCall));
        assert!(w.admit(2, jp).dc().is_some());
        w.end(2);
        assert!(matches!(w.freeze(99, cfg, 0), FreezeDecision::UnknownCall));
        drop(w);
        let before_state = engine.export_selector_state();
        let before = engine.stats();
        let before_store = engine.store().export_state();

        let lost = engine.journal().unwrap().crash();
        assert_eq!(lost, 0, "sync_every=1 leaves no unsynced tail");
        drop(engine);

        let (recovered, report) =
            Engine::recover(&latmap, &EngineConfig::default(), jcfg, &path).unwrap();
        assert_eq!(report.torn_tail_bytes, 0);
        assert_eq!(report.admits, 2);
        assert_eq!(report.freezes, 2);
        assert_eq!(report.ends, 1);
        assert_eq!(report.live_calls, 1);
        let after = recovered.stats();
        assert_eq!(after.selector, before.selector, "selector stats diverged");
        assert_eq!(after.active_calls, before.active_calls);
        assert_eq!(recovered.export_selector_state(), before_state);
        // the store holds the live call again, as the live run left it
        assert_eq!(recovered.store().export_state(), before_store);
        assert_eq!(after.store_writes, before.store_writes);
        assert!(recovered.store().get(1).unwrap().frozen);
        assert!(recovered.store().get(2).is_none());
        // recovered engine keeps journaling: a new op appends past the tail
        // with a dense sequence (a fresh scan sees old + new records)
        let mut w = recovered.worker();
        assert!(w.admit(3, jp).dc().is_some());
        drop(w);
        recovered.sync_journal();
        let rescan = Journal::scan(&path).unwrap();
        assert_eq!(rescan.records.len() as u64, report.records + 1);
        let _ = std::fs::remove_file(&path);
    }

    /// Quotas for `cfg` in each of four 30-minute slots: `per_slot` calls
    /// split over `dcs` by share.
    fn quotas_at(cfg: ConfigId, dcs: &[(DcId, f64)], per_slot: f64) -> PlannedQuotas {
        let mut shares = AllocationShares::new(4);
        let mut demand = DemandMatrix::zero(1, 4, 30, 0);
        for s in 0..4 {
            shares.set(cfg, s, dcs.to_vec());
            demand.set(cfg, s, per_slot);
        }
        PlannedQuotas::from_plan(&shares, &demand)
    }

    #[test]
    fn recovery_across_a_mid_run_install_matches_the_live_engine() {
        let (topo, latmap, _, cfg) = world();
        let (jp, tokyo, pune) = (
            topo.country_by_name("JP"),
            topo.dc_by_name("Tokyo"),
            topo.dc_by_name("Pune"),
        );
        // a tight boot plan (3 calls a slot, all at Tokyo), then a re-spread
        // of the same pools (5 at Tokyo, 5 at Pune): Tokyo's 3 consumed
        // carry over, so the install leaves 2 there
        let boot = PlanArtifact::seed(quotas_at(cfg, &[(tokyo, 1.0)], 3.0));
        let respread = quotas_at(cfg, &[(tokyo, 0.5), (pune, 0.5)], 10.0);
        let respread = PlanArtifact::seed(respread).with_epoch(1);
        for sync_every in [1, 7] {
            let path = temp_journal_path(&format!("mid-run-install-{sync_every}"));
            let jcfg = JournalConfig {
                sync_every,
                ..JournalConfig::default()
            };
            let journal = Journal::create(&path, jcfg).unwrap();
            let ecfg = EngineConfig::default();
            let engine = Engine::with_journal(&latmap, &boot, &ecfg, journal).unwrap();
            let mut w = engine.worker();
            // 8 freezes on 3 quota: 3 stay, 5 overflow
            for call in 0..8 {
                assert!(w.admit(call, jp).dc().is_some());
                w.freeze(call, cfg, 0);
            }
            w.end(0);
            let swap = engine.install_plan(&respread);
            w.refresh();
            assert_eq!(swap.carried_consumed, 3, "sync_every={sync_every}");
            // 7 more: 2 stay on Tokyo's carried-over remainder, 5 migrate
            for call in 8..15 {
                assert!(w.admit(call, jp).dc().is_some());
                w.freeze(call, cfg, 0);
            }
            w.end(9);
            drop(w);
            engine.sync_journal();
            let state = engine.export_selector_state();
            let stats = engine.stats().selector;
            assert_eq!((stats.migrations, stats.overflow), (5, 5));
            assert_eq!(engine.journal().unwrap().crash(), 0);
            drop(engine);

            let (recovered, report) = Engine::recover(&latmap, &ecfg, jcfg, &path).unwrap();
            let _ = std::fs::remove_file(&path);
            assert_eq!(report.plans, 1, "sync_every={sync_every}");
            assert_eq!(recovered.plan_epoch(), 1);
            assert_eq!(recovered.export_selector_state(), state);
            assert_eq!(recovered.stats().selector, stats);
        }
    }

    /// Regression: a journaled plan with a zero slot width, or naming a DC
    /// the topology lacks, recovered — and the first freeze under it divided
    /// by zero or indexed past the per-DC state. Recovery now refuses it,
    /// typed, and leaves the log byte for byte as it found it, torn tail
    /// included: the tail is cut only once every record has been applied.
    #[test]
    fn recovery_refuses_a_hostile_plan_install() {
        let (topo, latmap, artifact, cfg) = world();
        let jp = topo.country_by_name("JP");
        let tokyo = topo.dc_by_name("Tokyo");
        let pools = |dc| std::collections::HashMap::from([((cfg, 0), vec![(dc, 5)])]);
        for torn_tail in [false, true] {
            for (label, hostile) in [
                (
                    "zero slot width",
                    PlannedQuotas::from_parts(0, 0, 4, pools(tokyo)),
                ),
                (
                    "unknown dc",
                    PlannedQuotas::from_parts(30, 0, 4, pools(DcId(999))),
                ),
            ] {
                let path = temp_journal_path("hostile-plan");
                let jcfg = JournalConfig {
                    sync_every: 1,
                    ..JournalConfig::default()
                };
                let journal = Journal::create(&path, jcfg).unwrap();
                let ecfg = EngineConfig::default();
                let engine = Engine::with_journal(&latmap, &artifact, &ecfg, journal).unwrap();
                assert!(engine.worker().admit(1, jp).dc().is_some());
                engine.install_plan(&PlanArtifact::seed(hostile).with_epoch(1));
                drop(engine);
                let mut log = std::fs::read(&path).unwrap();
                if torn_tail {
                    // half a frame header: a write the crash cut short
                    log.extend_from_slice(&[0x2a; 7]);
                    std::fs::write(&path, &log).unwrap();
                }
                let recovered = Engine::recover(&latmap, &ecfg, jcfg, &path);
                let after = std::fs::read(&path).unwrap();
                let _ = std::fs::remove_file(&path);
                match recovered {
                    Err(e) => assert_eq!(
                        e,
                        RecoveryError::PlanParse { index: 2 },
                        "{label}, torn tail {torn_tail}"
                    ),
                    Ok((engine, _)) => {
                        engine.worker().freeze(1, cfg, 0);
                        panic!("{label}: the hostile plan was recovered");
                    }
                }
                assert!(
                    after == log,
                    "{label}, torn tail {torn_tail}: a refused recovery changed the log"
                );
            }
        }
    }

    /// Regression: a boot plan whose `num_slots` sizes a share table past
    /// any memory aborted recovery. It is refused, typed, at index 0.
    #[test]
    fn recovery_refuses_a_boot_plan_with_a_hostile_horizon() {
        let (_, latmap, artifact, _) = world();
        let meta = artifact.to_ndjson();
        let meta = meta.lines().next().unwrap();
        let num_slots = format!(r#""num_slots":{},"#, artifact.quotas.num_slots());
        let ndjson = format!(
            "{}\n{}\n",
            meta.replacen(&num_slots, r#""num_slots":1099511627776,"#, 1),
            r#"{"config":0,"slot":0,"dc":0,"share":1,"quota":3}"#
        );
        let path = temp_journal_path("hostile-horizon");
        let jcfg = JournalConfig::default();
        let journal = Journal::create(&path, jcfg).unwrap();
        journal
            .append(&WalRecord::PlanInstall { ndjson }.encode())
            .unwrap();
        journal.sync().unwrap();
        drop(journal);
        let recovered = Engine::recover(&latmap, &EngineConfig::default(), jcfg, &path);
        let _ = std::fs::remove_file(&path);
        assert_eq!(recovered.err(), Some(RecoveryError::PlanParse { index: 0 }));
    }

    #[test]
    fn forecast_marks_recover_bitwise() {
        let (topo, latmap, artifact, cfg) = world();
        let path = temp_journal_path("forecast");
        let jcfg = JournalConfig {
            sync_every: 1,
            ..JournalConfig::default()
        };
        let journal = Journal::create(&path, jcfg).unwrap();
        let mut ecfg = EngineConfig::default();
        let season = 6usize;
        ecfg.forecast = Some(StreamingParams::new(season));
        let engine = Engine::with_journal(&latmap, &artifact, &ecfg, journal).unwrap();
        let jp = topo.country_by_name("JP");
        // interleave lifecycle ops with demand buckets: the journal holds
        // both record families and recovery replays each through its own
        // state machine
        let mut w = engine.worker();
        assert!(w.admit(1, jp).dc().is_some());
        assert!(!matches!(w.freeze(1, cfg, 0), FreezeDecision::UnknownCall));
        drop(w);
        for t in 0..season * 3 {
            let y0 =
                20.0 + 5.0 * ((t % season) as f64 / season as f64 * std::f64::consts::TAU).sin();
            engine.observe_demand(0, y0);
            engine.observe_demand(7, y0 * 0.5 + 1.0);
        }
        let before_fc = engine.export_forecaster().unwrap();
        let before = engine.stats();
        assert_eq!(before.forecast_marks, season as u64 * 6);
        assert_eq!(before.forecast_configs, 2);
        assert_eq!(
            before.forecast_seeded, 2,
            "3 seasons passes 2-season warmup"
        );

        assert_eq!(engine.journal().unwrap().crash(), 0);
        drop(engine);

        let (recovered, report) = Engine::recover(&latmap, &ecfg, jcfg, &path).unwrap();
        assert_eq!(report.forecast_marks, season as u64 * 6);
        let after_fc = recovered.export_forecaster().unwrap();
        assert!(
            after_fc.models_eq(&before_fc),
            "recovered forecaster must be bitwise-identical"
        );
        let after = recovered.stats();
        assert_eq!(after.forecast_marks, before.forecast_marks);
        assert_eq!(after.forecast_configs, before.forecast_configs);
        assert_eq!(after.forecast_seeded, before.forecast_seeded);
        assert_eq!(after.forecast_drifts, before.forecast_drifts);
        // forecasts from the recovered engine match bitwise too
        assert_eq!(
            recovered.forecast(0, season),
            engine_forecast(&before_fc, 0, season)
        );
        let _ = std::fs::remove_file(&path);
    }

    fn engine_forecast(fc: &StreamingForecaster, config: u32, h: usize) -> Option<Vec<f64>> {
        fc.forecast(config, h)
    }

    #[test]
    fn queue_depth_watermark_sheds_typed() {
        let (topo, latmap, artifact, _) = world();
        let mut cfg = EngineConfig::default();
        cfg.overload.active_watermark = Some(1);
        let engine = Engine::new(&latmap, &artifact, &cfg);
        let jp = topo.country_by_name("JP");
        let mut w = engine.worker();
        assert!(matches!(w.admit(1, jp), Admission::Granted(_)));
        assert_eq!(
            w.admit(2, jp),
            Admission::Shed {
                reason: ShedReason::QueueDepth
            }
        );
        // shed before touching selector or store
        assert!(engine.store().get(2).is_none());
        w.end(1);
        assert!(matches!(w.admit(3, jp), Admission::Granted(_)));
        drop(w);
        let stats = engine.stats();
        assert_eq!(stats.shed_queue_depth, 1);
        assert_eq!(stats.selector.calls, 2);
        assert_eq!(stats.admitted, 2);
    }

    /// Pack-enabled engine config: every DC of the toy topology gets the
    /// same server capacities; reservations predict two extra participants.
    fn pack_config(caps_per_dc: &[u32]) -> EngineConfig {
        let mut spec = FleetSpec::empty(3); // toy_three_dc
        for d in 0..3 {
            for &c in caps_per_dc {
                spec.push_server(DcId(d), c);
            }
        }
        EngineConfig {
            pack: Some(EnginePackConfig {
                spec,
                packer: PackerConfig::default(),
                cost: CostModel {
                    base_mcpu: 300,
                    per_participant_mcpu: 250,
                },
                growth: Some(GrowthModel::flat(2)),
            }),
            ..EngineConfig::default()
        }
    }

    #[test]
    fn a_join_and_its_pack_records_are_one_append() {
        let (topo, latmap, artifact, _) = world();
        let path = temp_journal_path("one-append");
        let jcfg = JournalConfig {
            sync_every: 1,
            ..JournalConfig::default()
        };
        let journal = Journal::create(&path, jcfg).unwrap();
        let ecfg = pack_config(&[2_000, 2_000]);
        let engine = Engine::with_journal(&latmap, &artifact, &ecfg, journal).unwrap();
        let jp = topo.country_by_name("JP");
        let mut w = engine.worker();
        assert!(w.admit(1, jp).dc().is_some());
        let j = engine.journal().unwrap();
        let (records, syncs) = (j.appended_records(), j.sync_count());
        // a Join and the grown call's Pack: two records, one append, so one
        // group commit at sync_every 1
        w.join(1, jp);
        assert_eq!(j.appended_records() - records, 2);
        assert_eq!(j.sync_count() - syncs, 1);
        // a dropped join loses both records and counts one failure
        j.set_fault(sb_store::JournalFault::Drop);
        w.join(1, jp);
        j.set_fault(sb_store::JournalFault::None);
        assert_eq!(j.appended_records() - records, 2);
        assert_eq!(engine.stats().journal_failures, 1);
        drop(w);
        let scan = Journal::scan(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let tail: Vec<WalRecord> = scan.records[2..]
            .iter()
            .map(|p| WalRecord::decode(p).unwrap())
            .collect();
        assert!(matches!(
            tail[..],
            [
                WalRecord::Join { call: 1, .. },
                WalRecord::Pack {
                    call: 1,
                    participants: 2,
                    ..
                }
            ]
        ));
    }

    #[test]
    fn server_death_between_start_and_freeze_rehomes_in_dc() {
        let (topo, latmap, artifact, cfg) = world();
        let engine = Engine::new(&latmap, &artifact, &pack_config(&[2_000, 2_000]));
        let jp = topo.country_by_name("JP");
        let mut w = engine.worker();
        let dc = w.admit(1, jp).dc().expect("placed");
        drop(w);
        let home = engine.server_of(1).expect("admission packs the call");
        assert_eq!(home.dc, dc);

        // the hosting server dies before the call freezes: the call must be
        // re-homed onto the surviving server of the same DC, not spilled
        let rep = engine.kill_server(home);
        assert!(!rep.already_dead && !rep.was_empty);
        assert_eq!((rep.rehomed, rep.spilled_rehomed, rep.stranded), (1, 0, 0));
        let moved = engine.server_of(1).expect("still packed");
        assert_eq!(moved.dc, dc, "in-DC re-home must not change the DC");
        assert_ne!(moved.index, home.index);

        // the freeze then proceeds normally and lands on the new server
        let mut w = engine.worker();
        assert!(!matches!(w.freeze(1, cfg, 0), FreezeDecision::UnknownCall));
        w.end(1);
        drop(w);
        let stats = engine.pack_stats().unwrap();
        assert_eq!(stats.server_deaths, 1);
        assert_eq!(stats.death_rehomes, 1);
        assert_eq!(stats.removed, 1);
        assert_eq!(engine.packer().unwrap().capacity_violations(), 0);
    }

    #[test]
    fn duplicate_admit_keeps_the_call_on_its_server() {
        let (topo, latmap, artifact, _) = world();
        let engine = Engine::new(&latmap, &artifact, &pack_config(&[2_000, 2_000]));
        let jp = topo.country_by_name("JP");
        let mut w = engine.worker();
        let dc = w.admit(1, jp).dc().expect("placed");
        let packer = engine.packer().unwrap();
        let home = packer.server_of(dc, 1).expect("admission packs the call");
        assert_eq!(w.admit(1, jp).dc(), Some(dc));
        assert_eq!(packer.server_of(dc, 1), Some(home));
        assert_eq!(
            packer.stats().placed,
            1,
            "the duplicate is not charged again"
        );
        assert_eq!(packer.capacity_violations(), 0);
    }

    /// Regression: a duplicate admit that the selector placed at another
    /// DC took a second packer slot there, and the call's end freed only
    /// that one — the first slot was held for good.
    #[test]
    fn duplicate_admit_to_another_dc_frees_the_old_slot() {
        let (topo, latmap, artifact, _) = world();
        let engine = Engine::new(&latmap, &artifact, &pack_config(&[2_000, 2_000]));
        let (jp, india) = (topo.country_by_name("JP"), topo.country_by_name("IN"));
        let mut w = engine.worker();
        let first = w.admit(3, jp).dc().expect("placed");
        let second = w.admit(3, india).dc().expect("placed");
        assert_ne!(first, second, "the duplicate moves the call");
        let packer = engine.packer().unwrap();
        assert!(
            packer.server_of(first, 3).is_none(),
            "the old slot is freed"
        );
        assert!(packer.server_of(second, 3).is_some());
        w.end(3);
        drop(w);
        let ex = engine.export_pack_state().unwrap();
        assert!(ex.calls.iter().flatten().all(|c| c.0 != 3), "{ex:?}");
        assert!(ex
            .servers
            .iter()
            .flatten()
            .all(|s| (s.used_mcpu, s.reserved_mcpu) == (0, 0)));
        assert_eq!(packer.capacity_violations(), 0);
    }

    /// One scripted log through every branch of recovery's apply loop — a
    /// same-DC duplicate admit, a server death whose call survives in its
    /// DC, a mid-log plan install, a migrating freeze that finds no server
    /// (`to_server == NO_SERVER`), an admit that packs nowhere, a repeated
    /// freeze, a stranded re-home (`Pack` to `NO_DC`) and its end, an
    /// unknown end and an unknown freeze — recovers to the live engine's
    /// selector, store, packer and counters, packed and unpacked.
    #[test]
    fn a_corner_case_log_recovers_to_the_live_engine() {
        let (topo, latmap, artifact, cfg) = world();
        let (jp, hk, india) = (
            topo.country_by_name("JP"),
            topo.country_by_name("HK"),
            topo.country_by_name("IN"),
        );
        let (tokyo, hong_kong, pune) = (
            topo.dc_by_name("Tokyo"),
            topo.dc_by_name("HongKong"),
            topo.dc_by_name("Pune"),
        );
        let server = |dc, index| ServerId { dc, index };
        let to_pune = PlanArtifact::seed(quotas_at(cfg, &[(pune, 1.0)], 10.0)).with_epoch(1);
        for packed in [false, true] {
            let path = temp_journal_path(&format!("corner-cases-{packed}"));
            let jcfg = JournalConfig {
                sync_every: 1,
                ..JournalConfig::default()
            };
            let ecfg = if packed {
                pack_config(&[2_000, 2_000])
            } else {
                EngineConfig::default()
            };
            let journal = Journal::create(&path, jcfg).unwrap();
            let engine = Engine::with_journal(&latmap, &artifact, &ecfg, journal).unwrap();
            let mut w = engine.worker();
            assert_eq!(w.admit(1, jp).dc(), Some(tokyo));
            w.join(1, jp);
            w.set_media(1, MediaFlag::Video);
            assert_eq!(w.freeze(1, cfg, 0), FreezeDecision::Stay(tokyo));
            // same DC again: a fresh selector entry and store record, the
            // packer slot (two participants, frozen) kept
            assert_eq!(w.admit(1, jp).dc(), Some(tokyo));
            assert_eq!(w.admit(2, jp).dc(), Some(tokyo));
            assert_eq!(w.admit(3, hk).dc(), Some(hong_kong));
            drop(w);
            if packed {
                // call 2's server dies and its DC absorbs it
                let home = engine.server_of(2).unwrap();
                assert_eq!(engine.kill_server(home).rehomed, 1);
                // Pune's fleet dies empty: nothing packs there any more
                engine.kill_server(server(pune, 0));
                engine.kill_server(server(pune, 1));
            }
            engine.install_plan(&to_pune);
            let mut w = engine.worker();
            assert_eq!(
                w.freeze(2, cfg, 0),
                FreezeDecision::Migrate {
                    from: tokyo,
                    to: pune
                }
            );
            assert_eq!(w.freeze(2, cfg, 0), FreezeDecision::AlreadyFrozen(pune));
            assert_eq!(w.admit(4, india).dc(), Some(pune));
            drop(w);
            if packed {
                // with every DC down, call 3's fleet dies under it and the
                // ladder strands it
                engine.update_topology(&latmap, &[false; 3]);
                engine.kill_server(server(hong_kong, 1));
                let rep = engine.kill_server(engine.server_of(3).unwrap());
                assert_eq!(rep.stranded, 1);
                engine.update_topology(&latmap, &[true; 3]);
            }
            let mut w = engine.worker();
            w.end(3);
            w.end(99);
            assert_eq!(w.freeze(98, cfg, 0), FreezeDecision::UnknownCall);
            drop(w);
            let (selector, stats) = (engine.export_selector_state(), engine.stats());
            let (store, pack) = (engine.store().export_state(), engine.export_pack_state());
            assert_eq!(selector.calls.len(), 3);
            assert_eq!(store.len(), 3);
            assert_eq!(engine.journal().unwrap().crash(), 0);
            drop(engine);

            let records: Vec<WalRecord> = Journal::scan(&path)
                .unwrap()
                .records
                .iter()
                .map(|p| WalRecord::decode(p).unwrap())
                .collect();
            let (recovered, report) = Engine::recover(&latmap, &ecfg, jcfg, &path).unwrap();
            let _ = std::fs::remove_file(&path);
            assert_eq!(
                recovered.export_selector_state(),
                selector,
                "packed {packed}"
            );
            assert_eq!(recovered.stats(), stats, "packed {packed}");
            assert_eq!(recovered.store().export_state(), store, "packed {packed}");
            assert_eq!(recovered.export_pack_state(), pack, "packed {packed}");
            assert_eq!((report.plans, report.live_calls), (1, 3));
            assert_eq!(stats.selector.unknown_ends, u64::from(packed) + 1);
            if packed {
                assert_eq!(report.server_deaths, 5);
                assert!(records.iter().any(|r| matches!(
                    r,
                    WalRecord::Freeze {
                        kind: freeze_kind::MIGRATE,
                        to_server: wal::NO_SERVER,
                        ..
                    }
                )));
                assert!(records.iter().any(|r| matches!(
                    r,
                    WalRecord::Pack {
                        call: 3,
                        dc: wal::NO_DC,
                        ..
                    }
                )));
                let pack = pack.unwrap();
                let (tokyo_calls, pune_calls) = (&pack.calls[0], &pack.calls[2]);
                assert_eq!(tokyo_calls.len(), 1, "only call 1 stays packed");
                assert_eq!(
                    (tokyo_calls[0].0, tokyo_calls[0].2, tokyo_calls[0].5),
                    (1, 2, true)
                );
                assert!(pune_calls.is_empty());
            }
        }
    }

    /// A freeze or a re-home for a call the log never admitted is an
    /// inconsistent journal, refused at that record.
    #[test]
    fn recovery_refuses_a_decision_for_a_call_never_admitted() {
        let (_, latmap, artifact, _) = world();
        let freeze = WalRecord::Freeze {
            call: 5,
            config: 0,
            start_minute: 0,
            stale: false,
            kind: freeze_kind::STAY,
            from: 0,
            to: 0,
            to_server: wal::NO_SERVER,
        };
        let (dc, rung) = wal::encode_outcome(SelectorOutcome::Placed {
            dc: DcId(1),
            rung: SelectorRung::Locality,
        });
        let rehome = WalRecord::Rehome { call: 5, dc, rung };
        for (packed, rec) in [(false, &freeze), (true, &freeze), (true, &rehome)] {
            let path = temp_journal_path("never-admitted");
            let ecfg = if packed {
                pack_config(&[2_000])
            } else {
                EngineConfig::default()
            };
            let journal = Journal::create(&path, JournalConfig::default()).unwrap();
            let engine = Engine::with_journal(&latmap, &artifact, &ecfg, journal).unwrap();
            assert!(engine.worker().admit(1, CountryId(0)).dc().is_some());
            engine.journal().unwrap().append(&rec.encode()).unwrap();
            engine.sync_journal();
            drop(engine);
            let recovered = Engine::recover(&latmap, &ecfg, JournalConfig::default(), &path);
            let _ = std::fs::remove_file(&path);
            assert_eq!(
                recovered.err(),
                Some(RecoveryError::Inconsistent { index: 2 }),
                "{rec:?}"
            );
        }
    }

    #[test]
    fn double_repack_of_same_call_stays_consistent() {
        let (topo, latmap, artifact, _) = world();
        let engine = Engine::new(&latmap, &artifact, &pack_config(&[2_000, 2_000, 2_000]));
        let jp = topo.country_by_name("JP");
        let mut w = engine.worker();
        assert!(w.admit(1, jp).dc().is_some());
        drop(w);

        // kill the call's server twice in a row: each death re-packs the
        // same call onto the next surviving server of the DC
        let first = engine.server_of(1).unwrap();
        let rep1 = engine.kill_server(first);
        assert_eq!(rep1.rehomed, 1);
        let second = engine.server_of(1).unwrap();
        assert_ne!(second.index, first.index);
        let rep2 = engine.kill_server(second);
        assert_eq!(rep2.rehomed, 1);
        let third = engine.server_of(1).unwrap();
        assert!(third.index != first.index && third.index != second.index);

        let stats = engine.pack_stats().unwrap();
        assert_eq!(stats.server_deaths, 2);
        assert_eq!(stats.death_rehomes, 2);
        assert_eq!(stats.death_spills, 0);
        assert_eq!(engine.packer().unwrap().capacity_violations(), 0);
        // the doubly-re-packed call is still a perfectly normal call
        let mut w = engine.worker();
        w.end(1);
        drop(w);
        assert_eq!(engine.stats().active_calls, 0);
    }

    #[test]
    fn server_death_on_empty_server_is_counted_noop() {
        let (_topo, latmap, artifact, _) = world();
        let engine = Engine::new(&latmap, &artifact, &pack_config(&[2_000, 2_000]));
        let victim = ServerId {
            dc: DcId(0),
            index: 1,
        };
        let rep = engine.kill_server(victim);
        assert!(!rep.already_dead);
        assert!(rep.was_empty);
        assert_eq!((rep.rehomed, rep.spilled_rehomed, rep.stranded), (0, 0, 0));
        // the death is journaled and counted even though nothing drained
        assert_eq!(rep.records.len(), 1);
        assert!(matches!(rep.records[0], WalRecord::ServerDeath { .. }));
        assert_eq!(engine.pack_stats().unwrap().server_deaths, 1);

        // killing it again is a pure no-op: counted nowhere
        let rep = engine.kill_server(victim);
        assert!(rep.already_dead);
        assert_eq!(engine.pack_stats().unwrap().server_deaths, 1);
    }

    #[test]
    fn recovery_replays_wal_with_server_ids() {
        let (topo, latmap, artifact, cfg) = world();
        let path = temp_journal_path("pack-recover");
        let jcfg = JournalConfig {
            sync_every: 1,
            ..JournalConfig::default()
        };
        let journal = Journal::create(&path, jcfg).unwrap();
        // one small server per DC (fits both calls: 800 + 550 ≤ 1500): the
        // death below can only spill, driving Rehome records through
        // recovery too
        let ecfg = pack_config(&[1_500]);
        let engine = Engine::with_journal(&latmap, &artifact, &ecfg, journal).unwrap();
        let jp = topo.country_by_name("JP");
        let mut w = engine.worker();
        assert!(w.admit(1, jp).dc().is_some());
        w.join(1, jp); // grow → a Pack record with participants = 2
        assert!(w.admit(2, jp).dc().is_some());
        assert!(!matches!(w.freeze(1, cfg, 0), FreezeDecision::UnknownCall));
        drop(w);
        let home = engine.server_of(1).expect("packed");
        // the only server of the DC dies: both calls spill down the ladder
        // (re-placed at the same closest DC, unpacked)
        let rep = engine.kill_server(home);
        assert_eq!(rep.rehomed, 0);
        assert_eq!(rep.spilled_rehomed + rep.stranded, 2);
        let mut w = engine.worker();
        assert!(w.admit(3, jp).dc().is_some()); // Admit with NO_SERVER
        w.end(2);
        drop(w);
        assert!(engine.server_of(3).is_none(), "no live server to pack onto");

        let pack_before = engine.export_pack_state().unwrap();
        let selector_before = engine.export_selector_state();
        let stats_before = engine.stats();
        assert_eq!(engine.journal().unwrap().crash(), 0);
        drop(engine);

        let (recovered, report) = Engine::recover(&latmap, &ecfg, jcfg, &path).unwrap();
        assert_eq!(report.admits, 3);
        assert_eq!(report.server_deaths, 1);
        assert_eq!(report.rehomes, 2, "both spilled calls journaled a Rehome");
        assert!(
            report.packs >= 3,
            "join + spill re-placements journal Packs"
        );
        assert_eq!(recovered.export_pack_state().unwrap(), pack_before);
        assert_eq!(recovered.export_selector_state(), selector_before);
        assert_eq!(recovered.stats().selector, stats_before.selector);
        assert_eq!(
            recovered.packer().unwrap().capacity_violations(),
            0,
            "restored fleet must satisfy the hard invariants"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn store_backoff_degrades_then_heals() {
        let (topo, latmap, artifact, _) = world();
        let cfg = EngineConfig {
            store_shards: 1, // one shard: failing it fails every write
            ..EngineConfig::default()
        };
        let engine = Engine::new(&latmap, &artifact, &cfg);
        let jp = topo.country_by_name("JP");
        let mut w = engine.worker();
        engine.store().fail_shard(0, true);
        // this admission is placed, but its store write exhausts the backoff
        assert!(matches!(w.admit(1, jp), Admission::Granted(_)));
        assert!(engine.store_degraded());
        // the next admission sheds on the degraded store — typed, no panic
        assert_eq!(
            w.admit(2, jp),
            Admission::Shed {
                reason: ShedReason::StoreBackoff
            }
        );
        engine.store().fail_shard(0, false);
        // a successful write (any op) clears the flag; admissions resume
        w.join(1, jp);
        assert!(!engine.store_degraded());
        assert!(matches!(w.admit(3, jp), Admission::Granted(_)));
        drop(w);
        let stats = engine.stats();
        assert_eq!(stats.shed_store, 1);
        assert!(stats.store_retries >= 1);
        assert_eq!(stats.store_write_failures, 1);
    }
}
