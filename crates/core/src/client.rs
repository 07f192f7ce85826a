//! The PrivApprox client (paper §3.2.1–§3.2.3, Figure 3 left).
//!
//! Each client stores its user's private data locally (here: the
//! in-process SQL engine standing in for SQLite), subscribes to
//! queries, and per epoch: (i) flips the participation coin, (ii) if
//! participating, executes the SQL over its local rows and bucketizes
//! the answer into the `A[n]` bit-vector, (iii) randomizes every bit
//! with the two-coin mechanism, and (iv) splits the encoded message
//! into XOR shares, one per proxy.
//!
//! A query is long-lived while local rows churn, so the client
//! prepares each `QueryId`'s SQL once ([`privapprox_sql::PlanCache`])
//! and caches a compiled bucket indexer per query
//! ([`privapprox_types::BucketIndexer`]); the per-epoch SQL stage is
//! then a plan-cache hit plus the plan's fused scan, which allocates
//! nothing. Re-registering a `QueryId` with different SQL, or
//! re-creating a local table, transparently re-prepares.

use crate::error::CoreError;
use privapprox_crypto::xor::{encode_answer_into, Share, SplitScratch, XorSplitter};
use privapprox_rr::randomize::{RandomizeScratch, Randomizer};
use privapprox_sampling::srs::ParticipationCoin;
use privapprox_sql::{Database, EvalScratch, PlanCache, ValueRef};
use privapprox_types::{
    BitVec, BucketIndexer, ClientId, ExecutionParams, FastState, MessageId, Query, QueryId,
    Timestamp,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// One client's produced answer: `n` shares destined for `n` proxies.
#[derive(Debug, Clone)]
pub struct ClientAnswer {
    /// Share `i` goes to proxy `i`.
    pub shares: Vec<Share>,
}

/// Caller-owned buffers for the client's per-epoch hot path
/// (SQL → bucketize → randomize → encode → split).
///
/// Reusing one `ClientScratch` across epochs makes the whole answer
/// pipeline allocation-free at steady state: the truthful `A[n]`
/// vector is rebuilt in place from the prepared plan's scan, and the
/// downstream stages reuse their buffers as before.
#[derive(Debug, Clone, Default)]
pub struct ClientScratch {
    /// The truthful `A[n]` vector.
    truth: BitVec,
    /// The randomized `A[n]` vector.
    randomized: BitVec,
    /// The randomize stage's bulk-RNG state: an 8-lane `WideRng` plus
    /// its pre-filled word buffer, both materialized on first use
    /// (the generator forks off the answer's RNG) and reused every
    /// epoch after.
    randomize: RandomizeScratch,
    /// The encoded wire message `⟨QID, randomized answer⟩`.
    message: Vec<u8>,
    /// The XOR share buffers.
    split: SplitScratch,
}

impl ClientScratch {
    /// Creates an empty scratch (buffers grow on first use).
    pub fn new() -> ClientScratch {
        ClientScratch::default()
    }

    /// The shares produced by the most recent
    /// [`Client::answer_query_into`].
    pub fn shares(&self) -> &[Share] {
        self.split.shares()
    }
}

/// A cached [`BucketIndexer`] plus the fingerprint it was compiled
/// under: the query's signature covers the SQL, id and answer width,
/// so a re-registered query recompiles the indexer too. Stale
/// indexers are merely slow, never wrong — every arithmetic
/// candidate is verified against the live spec (see
/// [`BucketIndexer::bucketize_num`]).
#[derive(Debug, Clone, Copy)]
struct CachedIndexer {
    signature: u64,
    answer_len: usize,
    indexer: BucketIndexer,
}

/// A client device holding one user's private data.
pub struct Client {
    id: ClientId,
    db: Database,
    /// Seed material for every answer's RNG, which is a pure function
    /// of `(rng_seed, query, epoch)` (see [`Client::epoch_rng`]): the
    /// client carries no RNG state from one call to the next, so a
    /// respawned or recovered client answers an epoch exactly as the
    /// original would have. The `QueryId` is mixed in so that two
    /// tenants draw independent coins, MIDs and pads — equal pads would
    /// hand the proxy holding both tenants' `M_E` shares the XOR of the
    /// two randomized answers, and equal coins would let an aggregator
    /// read true bits off complementary queries. A query's stream still
    /// depends on nothing but (seed, query, epoch), never on which
    /// other tenants are admitted, so K concurrent queries stay
    /// byte-identical to the same K queries run in isolation under the
    /// same ids (the `multi_query` equivalence suite).
    rng_seed: u64,
    /// Analyst public keys this client trusts (keyed verification of
    /// query signatures, §3.1).
    analyst_key: u64,
    /// Prepared plans keyed by `QueryId` (see the module docs).
    plans: PlanCache,
    /// Where a plan the fused scan cannot serve parks its answer.
    sql_scratch: EvalScratch,
    /// Compiled bucket indexers keyed by `QueryId`. `FastState`: hit
    /// once per answered message, analyst-assigned keys.
    indexers: HashMap<QueryId, CachedIndexer, FastState>,
}

impl Client {
    /// Creates a client with a deterministic RNG seed and the analyst
    /// verification key it trusts.
    pub fn new(id: ClientId, seed: u64, analyst_key: u64) -> Client {
        Client {
            id,
            db: Database::new(),
            rng_seed: seed ^ id.0.rotate_left(32),
            analyst_key,
            plans: PlanCache::new(),
            sql_scratch: EvalScratch::new(),
            indexers: HashMap::default(),
        }
    }

    /// The RNG of this client's answer to `query` at `epoch`. The seed
    /// is hashed (one SplitMix64 finalizer), XORed with the query id
    /// and hashed again, before the epoch is added; it is never XORed
    /// raw with the epoch: `rng_seed` carries the client id in its
    /// high 32 bits and a millisecond clock passes 2³² after 49.7 days,
    /// so a raw mix would hand client `c` at `t + 2³²` the stream of
    /// client `c ^ 1` at `t`. The multiplier is odd (epochs map
    /// one-to-one) and is not `seed_from_u64`'s own SplitMix64
    /// increment, whose multiples would make neighbouring epochs'
    /// state words overlap.
    fn epoch_rng(&self, query: QueryId, epoch: Timestamp) -> StdRng {
        let mix = |mut z: u64| {
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let z = mix(mix(self.rng_seed) ^ query.to_u64());
        StdRng::seed_from_u64(z.wrapping_add(epoch.0.wrapping_mul(0xD1B5_4A32_D192_ED03)))
    }

    /// The client id.
    pub fn id(&self) -> ClientId {
        self.id
    }

    /// The private local database.
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// Mutable access to the private local database.
    pub fn db_mut(&mut self) -> &mut Database {
        &mut self.db
    }

    /// Executes the query's SQL locally and bucketizes the newest
    /// matching value into the truthful `A[n]` vector.
    ///
    /// Returns the all-zero vector when the query matches no local
    /// rows (the client has no answer in range — every bucket is
    /// truthfully "no").
    ///
    /// Allocating wrapper over [`Client::truthful_answer_into`];
    /// both consult the client's plan cache, so repeated calls for
    /// one `QueryId` compile the SQL exactly once.
    pub fn truthful_answer(&mut self, query: &Query) -> Result<BitVec, CoreError> {
        let mut vec = BitVec::zeros(query.answer.len());
        self.truthful_answer_into(query, &mut vec)?;
        Ok(vec)
    }

    /// [`Client::truthful_answer`] into a caller-owned vector:
    /// plan-cache hit, prepared scan, arithmetic bucketization —
    /// allocation-free once the plan and `out` are warm.
    pub fn truthful_answer_into(
        &mut self,
        query: &Query,
        out: &mut BitVec,
    ) -> Result<(), CoreError> {
        out.reset(query.answer.len());
        // The indexer cache is refreshed first so its borrow ends
        // before the plan's scan borrows the database.
        let indexer = self.indexer_for(query);
        let plan = self.plans.get_or_prepare(query.id, &query.sql, &self.db)?;
        // The newest row is the client's current state (clients append
        // their stream in time order).
        let Some(value) = plan.last_single_value(&self.db, &mut self.sql_scratch)? else {
            return Ok(());
        };
        let bucket = match value {
            ValueRef::Null => None,
            ValueRef::Text(s) => indexer.bucketize_text(&query.answer, s),
            other => match other.as_f64() {
                Some(v) => indexer.bucketize_num(&query.answer, v),
                None => None,
            },
        };
        match bucket {
            Some(b) => {
                out.set(b, true);
                Ok(())
            }
            None => Err(CoreError::Unbucketizable(value.to_value().to_string())),
        }
    }

    /// The cached bucket indexer for `query`, recompiled when the
    /// query's signature or answer width changed.
    fn indexer_for(&mut self, query: &Query) -> BucketIndexer {
        let entry = self
            .indexers
            .entry(query.id)
            .and_modify(|c| {
                if c.signature != query.signature || c.answer_len != query.answer.len() {
                    *c = CachedIndexer {
                        signature: query.signature,
                        answer_len: query.answer.len(),
                        indexer: query.answer.index_plan(),
                    };
                }
            })
            .or_insert_with(|| CachedIndexer {
                signature: query.signature,
                answer_len: query.answer.len(),
                indexer: query.answer.index_plan(),
            });
        entry.indexer
    }

    /// Runs one full epoch of the query-answering pipeline.
    ///
    /// Returns `Ok(None)` when the participation coin (bias `s`) says
    /// to sit this epoch out — the low-latency half of the paper's
    /// marriage. Otherwise returns the XOR shares to transmit, one per
    /// proxy. Coins, randomized bits, MID and share pads are a pure
    /// function of the client's seed, the query and `epoch` (§3.2:
    /// fresh per query epoch, nothing carried over): answering the
    /// same epoch again yields the same shares, which the
    /// aggregator's duplicate defence counts once.
    pub fn answer_query(
        &mut self,
        query: &Query,
        params: &ExecutionParams,
        epoch: Timestamp,
        n_proxies: usize,
    ) -> Result<Option<ClientAnswer>, CoreError> {
        let mut scratch = ClientScratch::new();
        Ok(self
            .answer_query_into(query, params, epoch, n_proxies, &mut scratch)?
            .map(|shares| ClientAnswer {
                shares: shares.to_vec(),
            }))
    }

    /// [`Client::answer_query`] through caller-owned scratch buffers:
    /// the randomize → encode → split stages run allocation-free once
    /// `scratch` is warm, and the returned shares borrow from it.
    pub fn answer_query_into<'a>(
        &mut self,
        query: &Query,
        params: &ExecutionParams,
        epoch: Timestamp,
        n_proxies: usize,
        scratch: &'a mut ClientScratch,
    ) -> Result<Option<&'a [Share]>, CoreError> {
        if !query.verify(self.analyst_key) {
            // Invalidate *before* erroring so a stale previous answer
            // can never leak through `scratch.shares()`.
            scratch.split.invalidate();
            return Err(CoreError::BadSignature);
        }
        self.answer_query_into_preverified(query, params, epoch, n_proxies, scratch)
    }

    /// [`Client::answer_query_into`] minus the signature check: for
    /// drivers that verified `query` against the same analyst key
    /// **once** and then fan one immutable `Query` value out to a
    /// whole client population (the deployment's worker threads).
    /// Re-hashing the canonical fields per client is pure overhead
    /// there — the verdict cannot change between clients — and
    /// skipping it consumes no RNG, so answers are byte-identical to
    /// the verifying path.
    pub fn answer_query_into_preverified<'a>(
        &mut self,
        query: &Query,
        params: &ExecutionParams,
        epoch: Timestamp,
        n_proxies: usize,
        scratch: &'a mut ClientScratch,
    ) -> Result<Option<&'a [Share]>, CoreError> {
        // Until a split completes below, `scratch.shares()` must not
        // expose the previous epoch's shares (a stale read could
        // resubmit the old message).
        scratch.split.invalidate();
        let mut rng = self.epoch_rng(query.id, epoch);
        // Step I: sampling at the client (§3.2.1).
        let coin = ParticipationCoin::new(params.s);
        if !coin.flip(&mut rng) {
            return Ok(None);
        }
        // Step II: truthful answer + randomized response (§3.2.2).
        self.truthful_answer_into(query, &mut scratch.truth)?;
        let randomized = if params.p >= 1.0 {
            &scratch.truth // degenerate no-randomization mode (Fig 4b)
        } else {
            // The *forked* path re-seeds the scratch's bulk generator
            // from this answer's RNG on every call, so the randomized
            // bits are a pure function of (client seed, query, epoch) —
            // independent of which (possibly shared, possibly
            // per-shard) scratch serves the call. That determinism is
            // what makes the sharded deployment byte-identical to the
            // single-threaded harness.
            Randomizer::new(params.p, params.q).randomize_vec_forked(
                &scratch.truth,
                &mut scratch.randomized,
                &mut scratch.randomize,
                &mut rng,
            );
            &scratch.randomized
        };
        // Step III: encode and split (§3.2.3).
        encode_answer_into(query.id, randomized, &mut scratch.message);
        let splitter = XorSplitter::new(n_proxies);
        let mid = MessageId(rng.gen());
        Ok(Some(splitter.split_into(
            &scratch.message,
            mid,
            &mut rng,
            &mut scratch.split,
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use privapprox_crypto::xor::{combine, decode_answer};
    use privapprox_sql::{ColumnType, Schema, Value};
    use privapprox_types::ids::AnalystId;
    use privapprox_types::{AnswerSpec, QueryBuilder, QueryId};

    const KEY: u64 = 0xA11CE;

    fn speed_query() -> Query {
        QueryBuilder::new(
            QueryId::new(AnalystId(1), 1),
            "SELECT speed FROM vehicle WHERE location = 'SF'",
        )
        .answer(AnswerSpec::ranges_with_overflow(0.0, 110.0, 11))
        .frequency(1_000)
        .window(60_000, 60_000)
        .sign_and_build(KEY)
    }

    fn client_with_speed(speed: f64) -> Client {
        client_at(1, 42, speed)
    }

    fn client_at(id: u64, seed: u64, speed: f64) -> Client {
        let mut c = Client::new(ClientId(id), seed, KEY);
        c.db_mut().create_table(
            "vehicle",
            Schema::new(vec![
                ("ts", ColumnType::Int),
                ("speed", ColumnType::Float),
                ("location", ColumnType::Text),
            ]),
        );
        c.db_mut()
            .insert(
                "vehicle",
                vec![Value::Int(0), Value::Float(speed), "SF".into()],
            )
            .unwrap();
        c
    }

    #[test]
    fn truthful_answer_is_one_hot_on_the_right_bucket() {
        let mut c = client_with_speed(15.0);
        let truth = c.truthful_answer(&speed_query()).unwrap();
        assert_eq!(truth.count_ones(), 1);
        assert!(truth.get(1), "15 mph is in [10,20)");
    }

    #[test]
    fn no_matching_rows_is_all_zero() {
        let mut c = client_with_speed(15.0);
        // Overwrite location so the WHERE filters everything out.
        c.db_mut().table_mut("vehicle").unwrap().clear();
        c.db_mut()
            .insert(
                "vehicle",
                vec![Value::Int(0), Value::Float(15.0), "Oakland".into()],
            )
            .unwrap();
        let truth = c.truthful_answer(&speed_query()).unwrap();
        assert_eq!(truth.count_ones(), 0);
    }

    #[test]
    fn newest_row_wins() {
        let mut c = client_with_speed(15.0);
        c.db_mut()
            .insert(
                "vehicle",
                vec![Value::Int(1), Value::Float(95.0), "SF".into()],
            )
            .unwrap();
        let truth = c.truthful_answer(&speed_query()).unwrap();
        assert!(truth.get(9), "95 mph is in [90,100)");
    }

    #[test]
    fn full_pipeline_round_trips_without_randomization() {
        // p = 1 disables randomization; shares must recombine to the
        // truthful answer.
        let mut c = client_with_speed(15.0);
        let q = speed_query();
        let params = ExecutionParams::checked(1.0, 1.0, 0.5);
        let answer = c
            .answer_query(&q, &params, Timestamp(30_000), 2)
            .unwrap()
            .expect("s = 1 always participates");
        assert_eq!(answer.shares.len(), 2);
        let msg = combine(&answer.shares).unwrap();
        let (qid, decoded) = decode_answer(&msg).unwrap();
        assert_eq!(qid, q.id);
        assert_eq!(decoded, c.truthful_answer(&q).unwrap());
    }

    #[test]
    fn sampling_rate_is_respected() {
        let mut c = client_with_speed(15.0);
        let q = speed_query();
        let params = ExecutionParams::checked(0.3, 1.0, 0.5);
        let n = 2_000;
        let mut participated = 0;
        for epoch in 0..n {
            if c.answer_query(&q, &params, Timestamp(epoch), 2)
                .unwrap()
                .is_some()
            {
                participated += 1;
            }
        }
        let rate = participated as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.04, "participation rate {rate}");
    }

    /// One answer as comparable bytes: the MID and every share payload.
    fn answer_bytes(
        c: &mut Client,
        q: &Query,
        params: &ExecutionParams,
        epoch: u64,
    ) -> Option<(u128, Vec<Vec<u8>>)> {
        c.answer_query(q, params, Timestamp(epoch), 3)
            .unwrap()
            .map(|a| {
                let payloads = a.shares.iter().map(|s| s.payload.to_vec()).collect();
                (a.shares[0].mid.0, payloads)
            })
    }

    proptest::proptest! {
        /// An answer is a pure function of (seed, id, epoch, params):
        /// no order of earlier calls, repetition or client age moves a
        /// bit of it.
        #[test]
        fn an_answer_depends_only_on_seed_id_epoch_and_params(
            seed in proptest::any::<u64>(),
            id in 0u64..(1 << 40),
            epochs in proptest::collection::vec(proptest::any::<u64>(), 1..6),
            s in 0.05f64..1.0,
            p in 0.05f64..1.2,
            q in 0.05f64..0.95,
        ) {
            let query = speed_query();
            let params = ExecutionParams::checked(s, p.min(1.0), q);
            let mut veteran = client_at(id, seed, 15.0);
            let forward: Vec<_> = epochs
                .iter()
                .map(|&e| answer_bytes(&mut veteran, &query, &params, e))
                .collect();
            for (i, &e) in epochs.iter().enumerate().rev() {
                let again = answer_bytes(&mut veteran, &query, &params, e);
                proptest::prop_assert_eq!(&again, &forward[i]);
                let fresh = answer_bytes(&mut client_at(id, seed, 15.0), &query, &params, e);
                proptest::prop_assert_eq!(&fresh, &forward[i]);
            }
        }
    }

    /// 256 consecutive clients × 256 epochs, three ways: consecutive
    /// timestamps, consecutive window centres, and two half-blocks
    /// 2³² ms apart (the same clock 49.7 days later — where a seed
    /// that XORs the raw timestamp into the raw client seed hands
    /// client `c` the earlier answers of client `c ^ 1`). Every cell
    /// must be its own stream.
    #[test]
    fn neighbouring_clients_and_epochs_draw_independent_streams() {
        let query = QueryBuilder::new(QueryId::new(AnalystId(1), 2), "SELECT speed FROM vehicle")
            .answer(AnswerSpec::ranges_with_overflow(0.0, 630.0, 63))
            .window(60_000, 60_000)
            .sign_and_build(KEY);
        let params = ExecutionParams::checked(0.5, 0.5, 0.5);
        let mut clients: Vec<Client> = (0..256).map(|id| client_at(id, 7, 15.0)).collect();
        let grids: [fn(u64) -> u64; 3] = [
            |k| k,
            |k| 30_000 + k * 60_000,
            |k| 1_000_000 + (k % 128) + ((k / 128) << 32),
        ];
        let mut scratch = ClientScratch::new();
        for (g, epoch_of) in grids.iter().enumerate() {
            let mut mids = std::collections::HashSet::new();
            // First 64 randomized bits per cell; `None` sat out.
            let mut cells = vec![[None; 256]; 256];
            for (client, row) in clients.iter_mut().zip(&mut cells) {
                for (k, cell) in row.iter_mut().enumerate() {
                    let epoch = Timestamp(epoch_of(k as u64));
                    let Some(shares) = client
                        .answer_query_into(&query, &params, epoch, 2, &mut scratch)
                        .unwrap()
                    else {
                        continue;
                    };
                    assert!(mids.insert(shares[0].mid), "grid {g}: MID drawn twice");
                    let (_, answer) = decode_answer(&combine(shares).unwrap()).unwrap();
                    *cell = Some(answer.limbs()[0]);
                }
            }
            // Participation is Binomial(256, ½) along every row and
            // column: σ = 8, bound at 5σ.
            for i in 0..256 {
                let row = cells[i].iter().flatten().count();
                let column = cells.iter().filter(|r| r[i].is_some()).count();
                for n in [row, column] {
                    assert!((88..=168).contains(&n), "grid {g}, line {i}: {n} of 256");
                }
            }
            for c in 0..256 {
                for k in 0..256 {
                    let Some(word) = cells[c][k] else { continue };
                    if c + 1 < 256 {
                        assert_ne!(
                            cells[c + 1][k],
                            Some(word),
                            "grid {g}: clients {c}, {}",
                            c + 1
                        );
                    }
                    if k + 1 < 256 {
                        assert_ne!(
                            cells[c][k + 1],
                            Some(word),
                            "grid {g}: epochs {k}, {}",
                            k + 1
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn sat_out_epoch_exposes_no_stale_shares() {
        let mut c = client_with_speed(15.0);
        let q = speed_query();
        let mut scratch = ClientScratch::new();
        // Populate the scratch with one real answer.
        let always = ExecutionParams::checked(1.0, 1.0, 0.5);
        assert!(c
            .answer_query_into(&q, &always, Timestamp(0), 2, &mut scratch)
            .unwrap()
            .is_some());
        assert_eq!(scratch.shares().len(), 2);
        // A sat-out epoch (s ≈ 0 never wins the coin under this seed)
        // must not leave last epoch's shares readable — a stale read
        // would resubmit the previous message.
        let never = ExecutionParams::checked(1e-12, 1.0, 0.5);
        assert!(c
            .answer_query_into(&q, &never, Timestamp(1), 2, &mut scratch)
            .unwrap()
            .is_none());
        assert!(scratch.shares().is_empty());
    }

    #[test]
    fn plan_cache_invalidates_on_reregistered_sql() {
        let mut c = client_with_speed(15.0);
        // First registration of the QueryId: speed query → bucket 1.
        let q1 = speed_query();
        let truth = c.truthful_answer(&q1).unwrap();
        assert!(truth.get(1), "15 mph is in [10,20)");
        // The analyst re-registers the same QueryId with different
        // SQL. The cached plan must not answer the old query.
        let q2 = QueryBuilder::new(q1.id, "SELECT ts FROM vehicle WHERE location = 'SF'")
            .answer(AnswerSpec::ranges_with_overflow(0.0, 110.0, 11))
            .frequency(1_000)
            .window(60_000, 60_000)
            .sign_and_build(KEY);
        let truth = c.truthful_answer(&q2).unwrap();
        assert!(truth.get(0), "ts = 0 is in [0,10)");
        // And flipping back re-compiles again rather than serving q2.
        let truth = c.truthful_answer(&q1).unwrap();
        assert!(truth.get(1));
    }

    #[test]
    fn plan_cache_survives_table_recreation() {
        let mut c = client_with_speed(15.0);
        let q = speed_query();
        assert!(c.truthful_answer(&q).unwrap().get(1));
        // Re-creating the table moves the catalog generation; the
        // cached plan must be recompiled against the new schema, not
        // read through stale column indices.
        c.db_mut().create_table(
            "vehicle",
            Schema::new(vec![
                ("speed", ColumnType::Float),
                ("ts", ColumnType::Int),
                ("location", ColumnType::Text),
            ]),
        );
        c.db_mut()
            .insert(
                "vehicle",
                vec![Value::Float(95.0), Value::Int(0), "SF".into()],
            )
            .unwrap();
        let truth = c.truthful_answer(&q).unwrap();
        assert!(truth.get(9), "95 mph is in [90,100) under the new schema");
    }

    #[test]
    fn forged_queries_are_rejected() {
        let mut c = client_with_speed(15.0);
        let mut q = speed_query();
        q.sql = "SELECT speed FROM vehicle".into(); // tampered post-signing
        let params = ExecutionParams::checked(1.0, 0.9, 0.5);
        assert_eq!(
            c.answer_query(&q, &params, Timestamp(0), 2).unwrap_err(),
            CoreError::BadSignature
        );
    }

    #[test]
    fn unbucketizable_values_error() {
        let mut c = client_with_speed(-5.0); // negative speed: no bucket
        let q = speed_query();
        assert!(matches!(
            c.truthful_answer(&q),
            Err(CoreError::Unbucketizable(_))
        ));
    }

    #[test]
    fn randomized_answers_vary_but_decode_to_valid_vectors() {
        let mut c = client_with_speed(15.0);
        let q = speed_query();
        let params = ExecutionParams::checked(1.0, 0.5, 0.5);
        let mut distinct = std::collections::HashSet::new();
        for epoch in 0..20 {
            let ans = c
                .answer_query(&q, &params, Timestamp(epoch), 2)
                .unwrap()
                .unwrap();
            let msg = combine(&ans.shares).unwrap();
            let (_, decoded) = decode_answer(&msg).expect("valid wire format");
            assert_eq!(decoded.len(), 12);
            distinct.insert(decoded.to_string());
        }
        assert!(distinct.len() > 1, "randomization must vary answers");
    }

    /// `speed_query` under another id and `buckets` 1-mph buckets: a
    /// second tenant asking the same question at the same width.
    fn tenant_query(number: u32, buckets: usize) -> Query {
        QueryBuilder::new(
            QueryId::new(AnalystId(1), number),
            "SELECT speed FROM vehicle WHERE location = 'SF'",
        )
        .answer(AnswerSpec::ranges_with_overflow(
            0.0,
            buckets as f64,
            buckets,
        ))
        .frequency(1_000)
        .window(60_000, 60_000)
        .sign_and_build(KEY)
    }

    /// Two tenants of equal width draw their own pads: the proxy that
    /// holds both tenants' `M_E` shares (share 0) must not be able to
    /// XOR them into `msg₁ ⊕ msg₂`, the XOR of the two randomized
    /// answers (a two-time pad breaks §3.2.3's guarantee that one
    /// proxy learns nothing). Nor may the two answers carry one MID.
    #[test]
    fn two_tenants_never_share_pads() {
        let mut c = client_with_speed(15.0);
        let params = ExecutionParams::checked(1.0, 0.9, 0.6);
        let epoch = Timestamp(1_000);
        let a = c
            .answer_query(&tenant_query(1, 11), &params, epoch, 2)
            .unwrap()
            .expect("s = 1 participates");
        let b = c
            .answer_query(&tenant_query(2, 11), &params, epoch, 2)
            .unwrap()
            .expect("s = 1 participates");
        let xor = |x: &[u8], y: &[u8]| -> Vec<u8> { x.iter().zip(y).map(|(x, y)| x ^ y).collect() };
        let messages = xor(&combine(&a.shares).unwrap(), &combine(&b.shares).unwrap());
        let proxy_view = xor(&a.shares[0].payload, &b.shares[0].payload);
        assert_ne!(proxy_view, messages, "one proxy can read msg₁ ⊕ msg₂");
        assert_ne!(a.shares[0].mid, b.shares[0].mid, "the tenants share a MID");
    }

    /// Two tenants with equal truth and equal (p, q) flip their own
    /// coins: their randomized vectors differ. With shared coins they
    /// would be identical, and for complementary queries every
    /// disagreement would reveal a truthful bit (Eq. 9 charges each
    /// query's ε on the premise of fresh coins per query).
    #[test]
    fn two_tenants_flip_their_own_coins() {
        let mut c = client_with_speed(15.0);
        let params = ExecutionParams::checked(1.0, 0.5, 0.5);
        let epoch = Timestamp(1_000);
        let mut randomized = Vec::new();
        for number in [1, 2] {
            let answer = c
                .answer_query(&tenant_query(number, 256), &params, epoch, 2)
                .unwrap()
                .expect("s = 1 participates");
            let (_, bits) = decode_answer(&combine(&answer.shares).unwrap()).unwrap();
            randomized.push(bits);
        }
        assert_ne!(randomized[0], randomized[1], "the tenants share RR coins");
    }
}
