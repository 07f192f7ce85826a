//! The analyst's query model (paper §2.2 and §3.1, Equation 1).
//!
//! A query is the tuple `⟨QID, SQL, A[n], f, w, δ⟩`: a unique id, the
//! SQL text executed at every client over its private data, the answer
//! format (an `n`-bucket specification producing an n-bit vector), the
//! answer frequency, and the sliding-window parameters.
//!
//! Buckets are either numeric ranges (the driving-speed example of
//! §2.2) or non-numeric matching rules ("each bucket is specified by a
//! matching rule or a regular expression").

use crate::ids::QueryId;
use crate::time::{Millis, WindowSpec};

/// A rule deciding whether a client's answer value falls into a bucket.
#[derive(Debug, Clone, PartialEq)]
pub enum BucketRule {
    /// Half-open numeric range `[lo, hi)`; use `f64::INFINITY` for an
    /// unbounded top bucket such as the paper's `>100`.
    Range { lo: f64, hi: f64 },
    /// Exact numeric value (the paper's standalone `0` speed bucket).
    Value(f64),
    /// Exact string match for non-numeric queries.
    Text(String),
    /// SQL-LIKE pattern with `%` (any run) and `_` (any single char),
    /// the paper's "matching rule" bucket flavor.
    Like(String),
}

impl BucketRule {
    /// True if the numeric value `v` matches this rule.
    ///
    /// String rules never match numeric values.
    pub fn matches_num(&self, v: f64) -> bool {
        match self {
            BucketRule::Range { lo, hi } => v >= *lo && v < *hi,
            BucketRule::Value(x) => v == *x,
            BucketRule::Text(_) | BucketRule::Like(_) => false,
        }
    }

    /// True if the string value `s` matches this rule.
    ///
    /// Numeric rules never match string values.
    pub fn matches_text(&self, s: &str) -> bool {
        match self {
            BucketRule::Range { .. } | BucketRule::Value(_) => false,
            BucketRule::Text(t) => t == s,
            BucketRule::Like(pattern) => like_match(pattern, s),
        }
    }
}

/// Case-sensitive SQL-LIKE matcher supporting `%` and `_`.
///
/// Implemented with the classic two-pointer backtracking algorithm so
/// that pathological patterns stay linear-ish rather than exponential.
pub fn like_match(pattern: &str, text: &str) -> bool {
    let p: Vec<char> = pattern.chars().collect();
    let t: Vec<char> = text.chars().collect();
    let (mut pi, mut ti) = (0usize, 0usize);
    let mut star: Option<(usize, usize)> = None; // (pattern idx after %, text idx)
    while ti < t.len() {
        if pi < p.len() && (p[pi] == '_' || p[pi] == t[ti]) {
            pi += 1;
            ti += 1;
        } else if pi < p.len() && p[pi] == '%' {
            star = Some((pi + 1, ti));
            pi += 1;
        } else if let Some((sp, st)) = star {
            // Backtrack: let the last % absorb one more character.
            pi = sp;
            ti = st + 1;
            star = Some((sp, st + 1));
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == '%' {
        pi += 1;
    }
    pi == p.len()
}

/// The answer format `A[n]`: an ordered list of bucket rules.
///
/// A client's answer to a query is the n-bit vector whose i-th bit says
/// whether the client's value matched bucket i (paper §2.2).
#[derive(Debug, Clone, PartialEq)]
pub struct AnswerSpec {
    buckets: Vec<BucketRule>,
}

impl AnswerSpec {
    /// Builds a spec from explicit rules.
    ///
    /// # Panics
    ///
    /// Panics if `buckets` is empty — a zero-bucket answer carries no
    /// information and would break the wire format.
    pub fn new(buckets: Vec<BucketRule>) -> AnswerSpec {
        assert!(!buckets.is_empty(), "answer spec needs at least 1 bucket");
        AnswerSpec { buckets }
    }

    /// Convenience constructor: `count` equal-width numeric ranges
    /// covering `[lo, hi)` plus one unbounded `[hi, ∞)` bucket.
    ///
    /// Matches the paper's case-study formats, e.g. 10 one-mile ranges
    /// plus `[10, +∞)` for the NYC taxi query.
    pub fn ranges_with_overflow(lo: f64, hi: f64, count: usize) -> AnswerSpec {
        assert!(count > 0 && hi > lo);
        let width = (hi - lo) / count as f64;
        let mut buckets: Vec<BucketRule> = (0..count)
            .map(|i| BucketRule::Range {
                lo: lo + i as f64 * width,
                hi: lo + (i + 1) as f64 * width,
            })
            .collect();
        buckets.push(BucketRule::Range {
            lo: hi,
            hi: f64::INFINITY,
        });
        AnswerSpec::new(buckets)
    }

    /// Number of buckets `n` (the answer bit-vector length).
    pub fn len(&self) -> usize {
        self.buckets.len()
    }

    /// True if there are no buckets (never constructible).
    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty()
    }

    /// The bucket rules in order.
    pub fn buckets(&self) -> &[BucketRule] {
        &self.buckets
    }

    /// Index of the first bucket matching numeric value `v`.
    pub fn bucketize_num(&self, v: f64) -> Option<usize> {
        self.buckets.iter().position(|b| b.matches_num(v))
    }

    /// Index of the first bucket matching string value `s`.
    pub fn bucketize_text(&self, s: &str) -> Option<usize> {
        self.buckets.iter().position(|b| b.matches_text(s))
    }

    /// Compiles a [`BucketIndexer`] for this spec: an O(1) arithmetic
    /// lookup when the spec is a uniform range ladder (the common
    /// [`AnswerSpec::ranges_with_overflow`] shape), falling back to
    /// the linear [`AnswerSpec::bucketize_num`] scan otherwise.
    ///
    /// Clients cache the indexer alongside their prepared query plan
    /// so a 10⁴-bucket answer format does not cost a 10⁴-entry scan
    /// per epoch.
    pub fn index_plan(&self) -> BucketIndexer {
        BucketIndexer::for_spec(self)
    }
}

/// A compiled numeric-bucket lookup for one [`AnswerSpec`] (see
/// [`AnswerSpec::index_plan`]).
///
/// The indexer holds only derived geometry, not the rules themselves:
/// callers pass the spec back at lookup time, and every arithmetic
/// candidate is verified against the actual rule before being
/// returned, so a stale or mismatched indexer degrades to the exact
/// linear scan instead of mis-bucketing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BucketIndexer {
    uniform: Option<UniformRanges>,
}

/// Geometry of a uniform range ladder `[lo, lo+width), [lo+width,
/// lo+2·width), …` of `count` rungs.
#[derive(Debug, Clone, Copy, PartialEq)]
struct UniformRanges {
    lo: f64,
    width: f64,
    /// Number of leading uniform-width buckets.
    count: usize,
}

impl BucketIndexer {
    fn for_spec(spec: &AnswerSpec) -> BucketIndexer {
        // Detect a leading ladder of contiguous, equal-width numeric
        // ranges. A trailing unbounded/overflow bucket (or any other
        // tail) is handled by the verified-candidate probe below.
        let rules = spec.buckets();
        let mut ladder: Option<UniformRanges> = None;
        for rule in rules {
            let BucketRule::Range { lo, hi } = rule else {
                break;
            };
            if !hi.is_finite() {
                break;
            }
            match &mut ladder {
                None => {
                    ladder = Some(UniformRanges {
                        lo: *lo,
                        width: hi - lo,
                        count: 1,
                    });
                }
                Some(u) => {
                    let expected_lo = u.lo + u.count as f64 * u.width;
                    let expected_hi = u.lo + (u.count + 1) as f64 * u.width;
                    if *lo != expected_lo || (hi - expected_hi).abs() > u.width * 1e-9 {
                        break;
                    }
                    u.count += 1;
                }
            }
        }
        let uniform = match ladder {
            // A one-rung ladder buys nothing; require a real ladder
            // with positive width.
            Some(u) if u.count >= 2 && u.width > 0.0 => Some(u),
            _ => None,
        };
        BucketIndexer { uniform }
    }

    /// Index of the first bucket of `spec` matching `v` — identical
    /// to [`AnswerSpec::bucketize_num`], in O(1) when the leading
    /// uniform ladder covers `v`.
    pub fn bucketize_num(&self, spec: &AnswerSpec, v: f64) -> Option<usize> {
        if let Some(u) = self.uniform {
            if v >= u.lo && v < u.lo + u.count as f64 * u.width {
                // Arithmetic candidate, then verify against the real
                // rule (float division can land one rung off at
                // boundaries).
                let est = (((v - u.lo) / u.width) as usize).min(u.count - 1);
                // Ascending probe order preserves first-match
                // semantics even if adjacent rungs overlap slightly;
                // `get` (rather than indexing) keeps a stale indexer
                // over a shrunken spec merely slow, never wrong.
                for cand in [est.saturating_sub(1), est, (est + 1).min(u.count - 1)] {
                    if spec.buckets().get(cand).is_some_and(|b| b.matches_num(v)) {
                        return Some(cand);
                    }
                }
                // Geometry disagreed with the rules (mismatched spec);
                // fall through to the exact scan.
            } else if v >= u.lo + u.count as f64 * u.width {
                // Beyond the derived top. The last rung's true upper
                // bound may exceed the derived `lo + count·width` by
                // the ladder-acceptance tolerance, so probe it before
                // handing off to the tail rules — otherwise a value
                // in that float sliver would wrongly miss its bucket.
                if spec
                    .buckets()
                    .get(u.count - 1)
                    .is_some_and(|b| b.matches_num(v))
                {
                    return Some(u.count - 1);
                }
                if let Some(tail) = spec.buckets().get(u.count..) {
                    return tail
                        .iter()
                        .position(|b| b.matches_num(v))
                        .map(|i| i + u.count);
                }
            }
            // v below the ladder (or NaN): no ladder rung matches,
            // but non-range tail rules still might — exact scan.
        }
        spec.bucketize_num(v)
    }

    /// Index of the first bucket of `spec` matching text `s` (no fast
    /// path; text rules are scanned exactly).
    pub fn bucketize_text(&self, spec: &AnswerSpec, s: &str) -> Option<usize> {
        spec.bucketize_text(s)
    }
}

/// An analyst's streaming query `⟨QID, SQL, A[n], f, w, δ⟩` (Eq. 1).
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Unique query identifier.
    pub id: QueryId,
    /// SQL text executed at each client over its local private data.
    pub sql: String,
    /// Answer format `A[n]`.
    pub answer: AnswerSpec,
    /// Answer frequency `f`: how often clients re-execute the query.
    pub frequency: Millis,
    /// Sliding-window parameters `(w, δ)` used by the aggregator.
    pub window: WindowSpec,
    /// Analyst signature for non-repudiation (§3.1). The reproduction
    /// uses a keyed 64-bit tag rather than full PKI; what matters for
    /// the system behaviour is that clients verify it before answering.
    pub signature: u64,
}

impl Query {
    /// Computes the signature tag an analyst with `key` would produce.
    ///
    /// FNV-1a over the canonical fields — *not* cryptographically
    /// strong, standing in for the paper's unspecified signing scheme.
    pub fn sign_tag(&self, key: u64) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64 ^ key;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        eat(&self.id.to_u64().to_le_bytes());
        eat(self.sql.as_bytes());
        eat(&(self.answer.len() as u64).to_le_bytes());
        eat(&self.frequency.to_le_bytes());
        eat(&self.window.size.to_le_bytes());
        eat(&self.window.slide.to_le_bytes());
        h
    }

    /// Signs the query in place with the analyst's key.
    pub fn sign(&mut self, key: u64) {
        self.signature = 0;
        self.signature = self.sign_tag(key);
    }

    /// Verifies the signature against the analyst's key.
    ///
    /// Allocation-free: [`Query::sign_tag`] hashes only the canonical
    /// fields (never the signature itself), so verification is a
    /// straight recompute-and-compare — this runs once per client
    /// answer on the hot path.
    pub fn verify(&self, key: u64) -> bool {
        self.sign_tag(key) == self.signature
    }
}

/// Fluent builder for [`Query`].
#[derive(Debug, Clone)]
pub struct QueryBuilder {
    id: QueryId,
    sql: String,
    answer: Option<AnswerSpec>,
    frequency: Millis,
    window: WindowSpec,
}

impl QueryBuilder {
    /// Starts a builder with mandatory id and SQL text.
    pub fn new(id: QueryId, sql: impl Into<String>) -> QueryBuilder {
        QueryBuilder {
            id,
            sql: sql.into(),
            answer: None,
            frequency: 1_000,
            window: WindowSpec::tumbling(60_000),
        }
    }

    /// Sets the answer format.
    pub fn answer(mut self, spec: AnswerSpec) -> Self {
        self.answer = Some(spec);
        self
    }

    /// Sets the answer frequency `f` in milliseconds.
    pub fn frequency(mut self, f: Millis) -> Self {
        self.frequency = f;
        self
    }

    /// Sets the sliding-window parameters.
    pub fn window(mut self, size: Millis, slide: Millis) -> Self {
        self.window = WindowSpec::sliding(size, slide);
        self
    }

    /// Finalizes and signs the query.
    ///
    /// # Panics
    ///
    /// Panics if no answer spec was provided.
    pub fn sign_and_build(self, analyst_key: u64) -> Query {
        let mut q = Query {
            id: self.id,
            sql: self.sql,
            answer: self.answer.expect("query needs an answer spec"),
            frequency: self.frequency,
            window: self.window,
            signature: 0,
        };
        q.sign(analyst_key);
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::AnalystId;

    fn speed_buckets() -> AnswerSpec {
        // The §2.2 example: '0', '1~10', ..., '91~100', '>100'.
        let mut b = vec![BucketRule::Value(0.0)];
        for i in 0..10 {
            b.push(BucketRule::Range {
                lo: (i * 10 + 1) as f64,
                hi: (i * 10 + 11) as f64,
            });
        }
        b.push(BucketRule::Range {
            lo: 101.0,
            hi: f64::INFINITY,
        });
        AnswerSpec::new(b)
    }

    #[test]
    fn paper_speed_example_buckets() {
        let spec = speed_buckets();
        assert_eq!(spec.len(), 12);
        // "If a vehicle is moving at 15 mph … it answers '1' for the
        // third bucket and '0' for all others."
        assert_eq!(spec.bucketize_num(15.0), Some(2));
        assert_eq!(spec.bucketize_num(0.0), Some(0));
        assert_eq!(spec.bucketize_num(150.0), Some(11));
        // The example's buckets are integer-oriented: fractional speeds
        // between the standalone '0' bucket and the '1~10' range fall
        // into no bucket, mirroring the paper's integral answer domain.
        assert_eq!(spec.bucketize_num(0.5), None);
    }

    #[test]
    fn ranges_with_overflow_covers_all_nonnegative_values() {
        let spec = AnswerSpec::ranges_with_overflow(0.0, 10.0, 10);
        assert_eq!(spec.len(), 11);
        assert_eq!(spec.bucketize_num(0.0), Some(0));
        assert_eq!(spec.bucketize_num(9.99), Some(9));
        assert_eq!(spec.bucketize_num(10.0), Some(10));
        assert_eq!(spec.bucketize_num(1e9), Some(10));
    }

    #[test]
    fn text_buckets_match_exact_and_like() {
        let spec = AnswerSpec::new(vec![
            BucketRule::Text("chrome".into()),
            BucketRule::Like("fire%".into()),
            BucketRule::Like("%_edge".into()),
        ]);
        assert_eq!(spec.bucketize_text("chrome"), Some(0));
        assert_eq!(spec.bucketize_text("firefox"), Some(1));
        assert_eq!(spec.bucketize_text("ms_edge"), Some(2));
        assert_eq!(spec.bucketize_text("safari"), None);
    }

    #[test]
    fn like_matcher_semantics() {
        assert!(like_match("%", ""));
        assert!(like_match("%", "anything"));
        assert!(like_match("a%c", "abc"));
        assert!(like_match("a%c", "ac"));
        assert!(like_match("a_c", "abc"));
        assert!(!like_match("a_c", "ac"));
        assert!(like_match("%ell%", "hello"));
        assert!(!like_match("hell", "hello"));
        assert!(like_match("h%l%o", "hello"));
        assert!(!like_match("", "x"));
        assert!(like_match("", ""));
        // Backtracking case: first % must not greedily eat everything.
        assert!(like_match("%b%b", "abab"));
    }

    #[test]
    fn numeric_rules_reject_text_and_vice_versa() {
        assert!(!BucketRule::Value(1.0).matches_text("1"));
        assert!(!BucketRule::Text("1".into()).matches_num(1.0));
    }

    #[test]
    fn query_signature_verifies_and_detects_tampering() {
        let key = 0x5EED_CAFE;
        let q = QueryBuilder::new(
            QueryId::new(AnalystId(1), 1),
            "SELECT speed FROM vehicle WHERE location='San Francisco'",
        )
        .answer(speed_buckets())
        .frequency(500)
        .window(600_000, 60_000)
        .sign_and_build(key);

        assert!(q.verify(key));
        assert!(!q.verify(key + 1), "wrong key must fail");

        let mut tampered = q.clone();
        tampered.sql = "SELECT ssn FROM users".into();
        assert!(!tampered.verify(key), "tampered SQL must fail");
    }

    #[test]
    #[should_panic(expected = "at least 1 bucket")]
    fn empty_answer_spec_is_rejected() {
        let _ = AnswerSpec::new(vec![]);
    }

    #[test]
    fn bucket_indexer_agrees_with_linear_scan_on_uniform_ladders() {
        for spec in [
            AnswerSpec::ranges_with_overflow(0.0, 110.0, 11),
            AnswerSpec::ranges_with_overflow(-3.5, 12.25, 7),
            AnswerSpec::ranges_with_overflow(0.0, 10.0, 10_000),
        ] {
            let idx = spec.index_plan();
            let lo = match spec.buckets()[0] {
                BucketRule::Range { lo, .. } => lo,
                _ => unreachable!(),
            };
            let mut v = lo - 2.0;
            while v < lo + 130.0 {
                assert_eq!(
                    idx.bucketize_num(&spec, v),
                    spec.bucketize_num(v),
                    "value {v}"
                );
                v += 0.093;
            }
            for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1e300, 1e300] {
                assert_eq!(idx.bucketize_num(&spec, v), spec.bucketize_num(v));
            }
        }
    }

    #[test]
    fn bucket_indexer_falls_back_on_irregular_specs() {
        let spec = AnswerSpec::new(vec![
            BucketRule::Value(0.0),
            BucketRule::Range { lo: 0.0, hi: 10.0 },
            BucketRule::Range { lo: 30.0, hi: 50.0 },
            BucketRule::Text("other".into()),
        ]);
        let idx = spec.index_plan();
        for v in [-1.0, 0.0, 5.0, 20.0, 35.0, 50.0] {
            assert_eq!(idx.bucketize_num(&spec, v), spec.bucketize_num(v), "{v}");
        }
        assert_eq!(idx.bucketize_text(&spec, "other"), Some(3));
    }

    #[test]
    fn bucket_indexer_covers_the_last_rung_tolerance_sliver() {
        // The last rung's hi exceeds the derived uniform top by an
        // amount inside the ladder-acceptance tolerance; values in
        // that sliver must still bucketize identically to the scan.
        let spec = AnswerSpec::new(vec![
            BucketRule::Range { lo: 0.0, hi: 10.0 },
            BucketRule::Range { lo: 10.0, hi: 20.0 },
            BucketRule::Range {
                lo: 20.0,
                hi: 30.0 + 1e-10,
            },
            BucketRule::Range {
                lo: 30.0 + 1e-10,
                hi: f64::INFINITY,
            },
        ]);
        let idx = spec.index_plan();
        for v in [29.999_999_999, 30.0, 30.000_000_000_05, 30.0 + 1e-10, 31.0] {
            assert_eq!(idx.bucketize_num(&spec, v), spec.bucketize_num(v), "{v}");
        }
    }

    #[test]
    fn bucket_indexer_respects_first_match_on_exact_boundaries() {
        // Boundary values must land in the upper rung (half-open
        // ranges), exactly like the linear scan.
        let spec = AnswerSpec::ranges_with_overflow(0.0, 100.0, 10);
        let idx = spec.index_plan();
        for k in 0..=10 {
            let v = k as f64 * 10.0;
            assert_eq!(idx.bucketize_num(&spec, v), spec.bucketize_num(v), "{v}");
        }
    }
}
