//! The one read surface: [`ReadState`] owns everything a `SELECT`
//! touches and carries the only body of every read method.
//!
//! The writer ([`GhostDb`](crate::GhostDb)) and a read session
//! ([`Snapshot`](crate::Snapshot)) are two *views* of the database, not
//! two engines: each is a `ReadState` plus its own bookkeeping (WAL and
//! epoch counter for the writer, pin guard for the snapshot) and reaches
//! this surface through `Deref`. Capturing a snapshot is
//! [`ReadState::fork`].

use std::sync::Arc;

use ghostdb_bus::{Bus, BusTrace, Endpoint, Message};
use ghostdb_catalog::{Schema, SchemaStats, TreeSchema};
use ghostdb_exec::{
    attach_actuals, execute, plan_nodes, render_plan, CostModel, CostedPlan, ExecContext,
    Optimizer, PipelineMode, Plan, PlanNode, QuerySpec,
};
use ghostdb_flash::Volume;
use ghostdb_index::IndexSet;
use ghostdb_obs::{Span, TraceRecorder};
use ghostdb_ram::RamBudget;
use ghostdb_sql::{bind_select, parse_statements, Statement};
use ghostdb_storage::HiddenStore;
use ghostdb_types::{format_ns, DeviceConfig, GhostError, Result, Sealed, SimClock, Value};

use crate::flight::{build_statement_trace, CoreMetrics, StageClock};
use crate::{BusPcLink, QueryOutcome};

/// Everything a `SELECT` reads, owned: the state behind both
/// [`GhostDb`](crate::GhostDb) and [`Snapshot`](crate::Snapshot).
pub struct ReadState {
    /// Immutable after load; `Arc`ed so forks share them for free.
    pub(crate) schema: Arc<Schema>,
    pub(crate) tree: Arc<TreeSchema>,
    pub(crate) config: Arc<DeviceConfig>,
    pub(crate) clock: SimClock,
    pub(crate) bus: Bus,
    pub(crate) volume: Volume,
    /// This view's device RAM slice.
    pub(crate) ram: RamBudget,
    /// Shared flash bases + this view's RAM deltas.
    pub(crate) hidden: HiddenStore,
    pub(crate) indexes: IndexSet,
    pub(crate) stats: SchemaStats,
    /// This view's PC endpoint over the shared (spied) bus, holding the
    /// visible store.
    pub(crate) pc_link: BusPcLink,
    /// The engine's flight recorder (one slot, shared by every fork).
    pub(crate) recorder: TraceRecorder,
    /// Core-owned metric handles (shared by every fork).
    pub(crate) metrics: Arc<CoreMetrics>,
}

impl ReadState {
    /// A frozen copy for a snapshot session: flash bases, schema and the
    /// engine-wide handles are shared, the bounded RAM state (deltas,
    /// overlays, tombstones, statistics, the PC's visible store) is
    /// copied, and the fork gets a fresh RAM budget and its own PC
    /// endpoint. The caller pins the base pages first.
    pub(crate) fn fork(&self) -> ReadState {
        ReadState {
            schema: self.schema.clone(),
            tree: self.tree.clone(),
            config: self.config.clone(),
            clock: self.clock.clone(),
            bus: self.bus.clone(),
            volume: self.volume.clone(),
            ram: RamBudget::new(self.config.ram_bytes),
            hidden: self.hidden.clone(),
            indexes: self.indexes.clone(),
            stats: self.stats.clone(),
            pc_link: BusPcLink::new(self.bus.clone(), self.pc_link.visible().clone()),
            recorder: self.recorder.clone(),
            metrics: self.metrics.clone(),
        }
    }

    /// The bound schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Tree analysis of the schema.
    pub fn tree(&self) -> &TreeSchema {
        &self.tree
    }

    /// Catalog statistics (load-time, kept current by every mutation).
    pub fn stats(&self) -> &SchemaStats {
        &self.stats
    }

    /// The hardware configuration.
    pub fn config(&self) -> &DeviceConfig {
        &self.config
    }

    /// The shared simulated clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// The device's flash volume (for space/stat reports).
    pub fn volume(&self) -> &Volume {
        &self.volume
    }

    /// This view's device RAM budget.
    pub fn ram(&self) -> &RamBudget {
        &self.ram
    }

    /// The device's index set.
    pub fn indexes(&self) -> &IndexSet {
        &self.indexes
    }

    /// Un-flushed delta rows across all tables (observability).
    pub fn delta_rows(&self) -> u64 {
        self.hidden.total_delta_rows()
    }

    /// The spy-visible bus trace.
    pub fn trace(&self) -> &BusTrace {
        self.bus.trace()
    }

    /// Forget the trace (between experiment phases).
    pub fn clear_trace(&self) {
        self.bus.trace().clear();
    }

    /// Demo phase 1: the pirate's view of the last transfers.
    pub fn spy_report(&self) -> String {
        self.bus.trace().spy_report()
    }

    /// Would a spy have seen this value on the PC ↔ device link?
    pub fn spy_sees_value(&self, v: &Value) -> bool {
        self.bus.trace().spy_sees_value(v)
    }

    /// Bind a SELECT statement into an executable [`QuerySpec`].
    pub fn bind(&self, sql: &str) -> Result<QuerySpec> {
        self.bind_parsed(&parse_statements(sql)?)
    }

    /// The bind half of [`bind`](Self::bind), over already-parsed
    /// statements — the traced query path times parse and bind apart.
    fn bind_parsed(&self, stmts: &[Statement]) -> Result<QuerySpec> {
        let sel = stmts
            .iter()
            .find_map(|s| match s {
                Statement::Select(sel) | Statement::ExplainAnalyze(sel) => Some(sel),
                _ => None,
            })
            .ok_or_else(|| GhostError::sql("expected a SELECT statement"))?;
        let bound = bind_select(&self.schema, &self.tree, sel)?;
        QuerySpec::bind(
            &self.schema,
            &self.tree,
            bound.sql,
            bound.tables,
            bound.projections,
            bound.predicates,
            bound.joins,
        )?
        .with_analytics(&self.schema, &bound.analytics)
    }

    pub(crate) fn exec_context(&self, pipeline: PipelineMode) -> ExecContext<'_> {
        ExecContext {
            schema: &self.schema,
            tree: &self.tree,
            config: &self.config,
            clock: self.clock.clone(),
            volume: &self.volume,
            ram: &self.ram,
            hidden: &self.hidden,
            indexes: &self.indexes,
            pc: &self.pc_link,
            pipeline,
        }
    }

    fn optimizer(&self) -> Optimizer<'_> {
        Optimizer::new(&self.schema, &self.tree, &self.stats, &self.config)
    }

    fn cost_model(&self) -> CostModel<'_> {
        CostModel::new(&self.schema, &self.tree, &self.stats, &self.config)
    }

    /// All candidate plans for a statement, cheapest first (demo phases
    /// 2 and 3).
    pub fn plans(&self, sql: &str) -> Result<Vec<CostedPlan>> {
        let spec = self.bind(sql)?;
        self.optimizer()
            .plans(&spec, |c| self.indexes.has_value_index(c))
    }

    /// The optimizer's pick for an already-bound spec.
    pub(crate) fn best_plan(&self, spec: &QuerySpec) -> Result<Plan> {
        self.optimizer()
            .best(spec, |c| self.indexes.has_value_index(c))
    }

    /// The canonical all-Pre-filtering plan ("P1").
    pub fn plan_pre(&self, spec: &QuerySpec) -> Plan {
        ghostdb_exec::plan_all_pre(spec, &self.schema, |c| self.indexes.has_value_index(c))
    }

    /// The canonical Post-filtering plan ("P2", Figure 5).
    pub fn plan_post(&self, spec: &QuerySpec) -> Plan {
        ghostdb_exec::plan_all_post(spec, &self.schema, |c| self.indexes.has_value_index(c))
    }

    /// Execute a statement with the optimizer's best plan, against this
    /// view's state.
    ///
    /// With the flight recorder on ([`set_tracing`](Self::set_tracing))
    /// the statement leaves a span tree — parse → bind → plan → execute
    /// with per-operator actuals — retrievable via
    /// [`last_trace`](Self::last_trace). Recorder off costs one relaxed
    /// atomic load.
    pub fn query(&self, sql: &str) -> Result<QueryOutcome> {
        if !self.recorder.is_enabled() {
            let spec = self.bind(sql)?;
            let plan = self.best_plan(&spec)?;
            return self.run(&spec, &plan);
        }
        let stage = StageClock::start();
        let stmts = parse_statements(sql)?;
        let parse_end = stage.now_ns();
        let spec = self.bind_parsed(&stmts)?;
        let bind_end = stage.now_ns();
        let plan = self.best_plan(&spec)?;
        let plan_end = stage.now_ns();
        let out = self.run(&spec, &plan)?;
        self.recorder.record(build_statement_trace(
            stmts.len() as u64,
            parse_end,
            bind_end,
            plan_end,
            stage.now_ns(),
            &plan.label,
            &out.report,
        ));
        Ok(out)
    }

    /// Execute a statement with a caller-chosen plan (demo phase 2/3).
    pub fn query_with_plan(&self, sql: &str, plan: &Plan) -> Result<QueryOutcome> {
        let spec = self.bind(sql)?;
        self.run(&spec, plan)
    }

    /// Execute an already-bound spec with a plan.
    pub fn run(&self, spec: &QuerySpec, plan: &Plan) -> Result<QueryOutcome> {
        self.run_with_pipeline(spec, plan, PipelineMode::Blocked)
    }

    /// Execute with the seed's scalar (id-at-a-time) operators instead
    /// of the blocked pipeline. Results and tuple counts must match
    /// [`run`](Self::run) exactly; only simulated timings differ. Kept
    /// public as the equivalence foil for tests and benchmarks.
    pub fn run_scalar(&self, spec: &QuerySpec, plan: &Plan) -> Result<QueryOutcome> {
        self.run_with_pipeline(spec, plan, PipelineMode::Scalar)
    }

    fn run_with_pipeline(
        &self,
        spec: &QuerySpec,
        plan: &Plan,
        pipeline: PipelineMode,
    ) -> Result<QueryOutcome> {
        // The query text is public: the PC poses it to the device.
        self.bus.transmit(
            Endpoint::Pc,
            Endpoint::Device,
            &Message::Query {
                sql: spec.sql.clone(),
            },
        )?;
        let (rows, report) = execute(&self.exec_context(pipeline), spec, plan)?;
        self.metrics.select_latency.observe(report.total_ns);
        // Results exist only sealed on the device...
        let sealed = Sealed::new(rows);
        // ...and are opened by the secure display alone.
        let ticket = self.bus.present(&sealed.peek_on_device().rows);
        let rows = sealed.open(ticket);
        Ok(QueryOutcome { rows, report })
    }

    /// Multi-line explain: the plan list with costs for a statement,
    /// each plan rendered as the same operator tree `EXPLAIN ANALYZE`
    /// prints (annotated with the cost model's estimated cardinalities —
    /// no execution happens here).
    pub fn explain(&self, sql: &str) -> Result<String> {
        let spec = self.bind(sql)?;
        let plans = self.plans(sql)?;
        let cost = self.cost_model();
        let mut out = format!("{} candidate plan(s)\n", plans.len());
        for cp in plans.iter().take(8) {
            let cards = cost.cardinalities(&spec, &cp.plan);
            let tree = plan_nodes(&self.schema, &self.tree, &spec, &cp.plan, Some(&cards));
            out.push_str(&format!(
                "-- estimated {}\n{}",
                format_ns(cp.est_ns as u64),
                render_plan(&cp.plan.label, &tree)
            ));
        }
        Ok(out)
    }

    /// `EXPLAIN ANALYZE`: run `sql` with the optimizer's best plan, then
    /// render the plan tree annotated with the cost model's estimated
    /// cardinalities next to the measured actuals (rows, simulated time,
    /// blocks pulled, gallops, Bloom probes, liveness drops). The query
    /// really executes — its frames cross the spied bus like any
    /// `SELECT`'s, and the annotations are counts/times/sizes only.
    pub fn explain_analyze(&self, sql: &str) -> Result<String> {
        let spec = self.bind(sql)?;
        let plan = self.best_plan(&spec)?;
        let (tree, _) = self.analyze_with_plan(&spec, &plan)?;
        Ok(render_plan(&plan.label, &tree))
    }

    /// Structured `EXPLAIN ANALYZE` for a caller-chosen plan: the
    /// annotated [`PlanNode`] tree plus the outcome it was measured
    /// from. This is the oracle-facing API — tests recount cardinalities
    /// independently and compare them to the tree's actuals.
    pub fn analyze_with_plan(
        &self,
        spec: &QuerySpec,
        plan: &Plan,
    ) -> Result<(PlanNode, QueryOutcome)> {
        let out = self.run(spec, plan)?;
        let cards = self.cost_model().cardinalities(spec, plan);
        let mut tree = plan_nodes(&self.schema, &self.tree, spec, plan, Some(&cards));
        attach_actuals(&mut tree, &out.report);
        Ok((tree, out))
    }

    /// Turn the flight recorder on or off — engine-wide: the writer and
    /// every snapshot record into one slot. Off (the default) costs one
    /// relaxed atomic load per statement; on, each `query` records a
    /// span tree over parse → bind → plan → execute.
    pub fn set_tracing(&self, on: bool) {
        self.recorder.set_enabled(on);
    }

    /// The last completed statement trace, if tracing was on for it.
    pub fn last_trace(&self) -> Option<Span> {
        self.recorder.last()
    }
}
