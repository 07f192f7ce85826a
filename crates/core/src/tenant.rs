//! The tenant table: one record per registered query, and the one
//! place its lifecycle rules live.
//!
//! A query's state — its definition and parameters (paper §3.1), its
//! retention flag, its privacy-budget ledger, its feedback controller
//! and last observed error, the warehouse recovered for it, and where
//! it stands in the schedule — is one [`Tenant`]. The transitions
//! (register, admit, withdraw, retire, set-budget, charge) are methods
//! of [`Tenants`], and both the live deployment and the journal and
//! snapshot replay call them, so a rule is written once and a
//! recovered table is the table the crashed incarnation held.
//!
//! The table keeps its tenants in registration order. The two other
//! orders the runtime depends on — admission order (the batch order
//! of a multi-tenant epoch and the snapshot's schedule section) and
//! retirement order (the snapshot's terminal list and
//! `drain_retired`) — are read off a tick each transition stamps, as
//! is the order retention was switched on (the snapshot's warehouse
//! section). No second list of ids is kept beside the table.

use crate::deploy::Retirement;
use crate::error::{CoreError, DeployError};
use crate::feedback::FeedbackController;
use privapprox_rr::privacy::epsilon_zk;
use privapprox_types::{BitVec, BudgetLedger, ExecutionParams, PrivacyBudget, Query, QueryId};
use std::sync::Arc;

/// One retained query's warehouse: `(ts, mid, answer)` entries.
pub(crate) type Retained = Vec<(u64, u128, BitVec)>;

/// Where a tenant stands in the epoch schedule. Each carrying state
/// holds the tick that ordered it.
pub(crate) enum State {
    /// Off the schedule; `submit_epoch` still runs it.
    Registered,
    /// On the `submit_epoch_all` schedule, admitted at the tick.
    Admitted(u64),
    /// Retired by budget exhaustion at the tick, for good. The report
    /// waits for `drain_retired`; a replayed retirement has none.
    Retired(u64, Option<Retirement>),
}

/// One registered query and everything the deployment keeps for it.
pub(crate) struct Tenant {
    /// The registered definition, shared by every worker command.
    pub query: Arc<Query>,
    pub params: ExecutionParams,
    /// The tick retention was switched on at, if it is on.
    pub retain: Option<u64>,
    /// The spend ledger: assigned by a budget, or created unbounded
    /// by the first charge.
    pub ledger: Option<BudgetLedger>,
    /// The feedback controller (opt-in; not durable).
    pub feedback: Option<FeedbackController>,
    /// Worst relative CI bound of the most recently finalized window
    /// — the feedback signal (not durable).
    pub last_error: Option<f64>,
    /// Answers retained before the last restart, from the snapshot
    /// (the shards' in-memory stores die with a crash).
    pub recovered: Retained,
    pub state: State,
}

impl Tenant {
    pub fn is_retired(&self) -> bool {
        matches!(self.state, State::Retired(..))
    }
}

/// The typed refusal of a retired query, from `admit` and from every
/// epoch entry point alike.
pub(crate) fn retired(query: QueryId) -> CoreError {
    CoreError::Deploy(DeployError::InvalidConfig(format!(
        "query {query:?} was retired: its privacy budget is spent"
    )))
}

/// Every registered query's [`Tenant`], in registration order.
#[derive(Default)]
pub(crate) struct Tenants {
    list: Vec<Tenant>,
    /// Stamps admissions, retirements and retention switches.
    tick: u64,
}

impl Tenants {
    pub fn get(&self, id: QueryId) -> Option<&Tenant> {
        self.list.iter().find(|t| t.query.id == id)
    }

    pub fn get_mut(&mut self, id: QueryId) -> Option<&mut Tenant> {
        self.list.iter_mut().find(|t| t.query.id == id)
    }

    /// The tenant of a registered query, or `UnknownQuery`.
    pub fn known(&mut self, id: QueryId) -> Result<&mut Tenant, CoreError> {
        self.get_mut(id).ok_or(CoreError::UnknownQuery)
    }

    /// Every tenant, in registration order.
    pub fn iter(&self) -> std::slice::Iter<'_, Tenant> {
        self.list.iter()
    }

    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// The ids `key` stamps, in tick order.
    fn by_tick(&self, key: impl Fn(&Tenant) -> Option<u64>) -> Vec<QueryId> {
        let mut stamped: Vec<(u64, QueryId)> = (self.list.iter())
            .filter_map(|t| key(t).map(|tick| (tick, t.query.id)))
            .collect();
        stamped.sort_unstable_by_key(|&(tick, _)| tick);
        stamped.into_iter().map(|(_, id)| id).collect()
    }

    /// The multi-tenant schedule, in admission order.
    pub fn schedule(&self) -> Vec<QueryId> {
        self.by_tick(|t| match t.state {
            State::Admitted(tick) => Some(tick),
            _ => None,
        })
    }

    /// Every retired query, in retirement order.
    pub fn terminal(&self) -> Vec<QueryId> {
        self.by_tick(|t| match t.state {
            State::Retired(tick, _) => Some(tick),
            _ => None,
        })
    }

    /// Every retained query, in the order retention was switched on.
    pub fn retained(&self) -> Vec<QueryId> {
        self.by_tick(|t| t.retain)
    }

    /// The schedule's one window size must hold for `query` too: one
    /// shared event clock tags each epoch. Checked against every
    /// other admitted tenant.
    fn check_window(&self, query: &Query) -> Result<(), CoreError> {
        let size = query.window.size;
        let other = (self.list.iter())
            .find(|t| t.query.id != query.id && matches!(t.state, State::Admitted(_)));
        match other.map(|t| t.query.window.size) {
            Some(shared) if shared != size => Err(CoreError::Deploy(DeployError::InvalidConfig(
                format!("scheduled queries must share a window size: {size} != {shared}"),
            ))),
            _ => Ok(()),
        }
    }

    /// Registers a query, or re-registers it with a new definition or
    /// parameters (a retune, a retention switch, a recovery): the
    /// tenant keeps its ledger, retention and schedule state. An
    /// admitted tenant's new window must still match the schedule's.
    pub fn register(
        &mut self,
        query: Arc<Query>,
        params: ExecutionParams,
    ) -> Result<&Tenant, CoreError> {
        let Some(i) = self.list.iter().position(|t| t.query.id == query.id) else {
            self.list.push(Tenant {
                query,
                params,
                retain: None,
                ledger: None,
                feedback: None,
                last_error: None,
                recovered: Vec::new(),
                state: State::Registered,
            });
            return Ok(&self.list[self.list.len() - 1]);
        };
        if matches!(self.list[i].state, State::Admitted(_)) {
            self.check_window(&query)?;
        }
        (self.list[i].query, self.list[i].params) = (query, params);
        Ok(&self.list[i])
    }

    /// Switches retention on. Returns whether it was off.
    pub fn retain(&mut self, id: QueryId) -> Result<bool, CoreError> {
        let tick = self.next_tick();
        let t = self.known(id)?;
        let switched = t.retain.is_none();
        t.retain = t.retain.or(Some(tick));
        Ok(switched)
    }

    /// Admits a registered query to the schedule. Returns whether it
    /// was off it. A retired query cannot come back.
    pub fn admit(&mut self, id: QueryId) -> Result<bool, CoreError> {
        let t = self.get(id).ok_or(CoreError::UnknownQuery)?;
        match t.state {
            State::Retired(..) => return Err(retired(id)),
            State::Admitted(_) => return Ok(false),
            State::Registered => self.check_window(&t.query)?,
        }
        let tick = self.next_tick();
        self.known(id)?.state = State::Admitted(tick);
        Ok(true)
    }

    /// Takes a query off the schedule; its ledger keeps its spend.
    pub fn withdraw(&mut self, id: QueryId) {
        if let Some(t) = self.get_mut(id) {
            if matches!(t.state, State::Admitted(_)) {
                t.state = State::Registered;
            }
        }
    }

    /// Retires a query for good: off the schedule and refused by
    /// every entry point. A second retirement keeps the first.
    pub fn retire(&mut self, id: QueryId, report: Option<Retirement>) {
        let tick = self.next_tick();
        if let Some(t) = self.get_mut(id) {
            if !t.is_retired() {
                t.state = State::Retired(tick, report);
            }
        }
    }

    /// Assigns a lifetime allowance. The new ledger keeps the spend
    /// and epoch count of the old one (the spend capped at the new
    /// allowance), so a re-budget never hands back ε already spent.
    pub fn set_budget(&mut self, id: QueryId, allocated: f64) -> Result<(), CoreError> {
        let t = self.known(id)?;
        let (spent, epochs) = t.ledger.map_or((0.0, 0), |l| (l.spent(), l.epochs()));
        t.ledger = Some(BudgetLedger::restore(allocated, spent, epochs));
        Ok(())
    }

    /// Debits one epoch's `ε_zk(s, p, q)` (paper Equation 9); a query
    /// without a budget is metered on the unbounded ledger its first
    /// charge creates. A debit that would overdraw retires the query
    /// instead, and its [`Retirement`] is returned. A retired or
    /// unknown query is refused.
    pub fn charge(&mut self, id: QueryId) -> Result<Option<Retirement>, CoreError> {
        let t = self.known(id)?;
        if t.is_retired() {
            return Err(retired(id));
        }
        let eps = epsilon_zk(t.params.s, t.params.p, t.params.q);
        let ledger =
            (t.ledger).get_or_insert_with(|| BudgetLedger::new(PrivacyBudget::unbounded()));
        let Err(exhausted) = ledger.try_charge(eps) else {
            return Ok(None);
        };
        let retirement = Retirement {
            query: id,
            spent: exhausted.spent,
            allocated: exhausted.allocated,
            epochs: exhausted.epochs,
        };
        self.retire(id, Some(retirement));
        Ok(Some(retirement))
    }

    /// Replays a journaled charge: the absolute post-charge spend and
    /// epoch count, so applying it twice is applying it once.
    pub fn settle(&mut self, id: QueryId, spent: f64, epochs: u64) {
        if let Some(t) = self.get_mut(id) {
            let allocated = t.ledger.map_or(f64::INFINITY, |l| l.allocated());
            t.ledger = Some(BudgetLedger::restore(allocated, spent, epochs));
        }
    }

    /// Takes the retirements not yet reported, in retirement order.
    pub fn drain_retired(&mut self) -> Vec<Retirement> {
        let mut reports: Vec<(u64, Retirement)> = (self.list.iter_mut())
            .filter_map(|t| match &mut t.state {
                State::Retired(tick, report) => report.take().map(|r| (*tick, r)),
                _ => None,
            })
            .collect();
        reports.sort_unstable_by_key(|&(tick, _)| tick);
        reports.into_iter().map(|(_, r)| r).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use privapprox_types::ids::AnalystId;
    use privapprox_types::{AnswerSpec, QueryBuilder};

    fn query(serial: u32, window: u64) -> Arc<Query> {
        let id = QueryId::new(AnalystId(1), serial);
        let q = QueryBuilder::new(id, "SELECT speed FROM cars")
            .answer(AnswerSpec::ranges_with_overflow(0.0, 10.0, 1))
            .window(window, window)
            .sign_and_build(7);
        Arc::new(q)
    }

    /// The orders kept on ticks: a re-admitted query goes to the back
    /// of the schedule, retirement takes a query off it and orders the
    /// terminal list and the reports, each report is taken once, and
    /// a replayed retirement has none.
    #[test]
    fn ticks_keep_admission_and_retirement_order() {
        let params = ExecutionParams::checked(1.0, 0.9, 0.5);
        let mut table = Tenants::default();
        let [a, b, c] = [1, 2, 3].map(|serial| query(serial, 1_000));
        for q in [&a, &b, &c] {
            table.register(Arc::clone(q), params).unwrap();
        }
        for q in [&c, &a, &b] {
            assert!(table.admit(q.id).unwrap());
        }
        assert!(!table.admit(a.id).unwrap(), "re-admitting is a no-op");
        table.withdraw(c.id);
        table.admit(c.id).unwrap();
        assert_eq!(table.schedule(), vec![a.id, b.id, c.id]);

        table.set_budget(b.id, f64::MIN_POSITIVE).unwrap();
        let report = table.charge(b.id).unwrap().expect("b cannot pay");
        assert_eq!((report.query, report.epochs), (b.id, 0));
        table.retire(a.id, None);
        assert_eq!(table.schedule(), vec![c.id]);
        assert_eq!(table.terminal(), vec![b.id, a.id]);
        assert!(table.admit(b.id).is_err() && table.charge(a.id).is_err());
        assert_eq!(table.drain_retired(), vec![report]);
        assert!(table.drain_retired().is_empty());

        let wider = query(3, 3_000);
        assert!(table.register(wider, params).is_ok(), "c is alone");
        let d = query(4, 1_000);
        table.register(Arc::clone(&d), params).unwrap();
        assert!(table.admit(d.id).is_err(), "d's window differs from c's");
    }
}
