//! The correctness oracle: the paper's closed forms, written here from
//! the theorem statements and not taken from the program, plus the
//! round-monotonicity rule. Every verdict a workload receives is held
//! against it after the timed phase.
//!
//! * Theorem 9: a symmetric `⟨n,m,ℓ,u⟩` with `m > 1` is solvable with no
//!   communication iff `ℓ = 0 ∧ ⌈(2n−1)/m⌉ ≤ u` (every feasible `m = 1`
//!   task is).
//! * Theorem 10: if `gcd{C(n,i) : 0 < i < n} > 1`, no feasible
//!   `⟨n,m,ℓ,u⟩` with `m ≥ 2` and `ℓ ≥ 1` is wait-free solvable.
//! * Theorem 11 / Corollary 5: election and perfect renaming (every
//!   `⟨n,n,·,1⟩`, whose outputs are exactly perfect renaming's) are not
//!   wait-free solvable for `n ≥ 2`.

use std::collections::BTreeMap;

use gsb_core::{GsbSpec, Solvability};
use gsb_engine::{Evidence, Query, Question, Verdict};

use crate::Outcome;

/// What the closed forms say about one spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClosedForm {
    /// `Σℓ ≤ n ≤ Σu` (Lemmas 1 and 2).
    pub feasible: bool,
    /// Theorem 9 for symmetric specs; election is never solvable
    /// without communication (it is not solvable at all). `None` where
    /// no closed form applies.
    pub no_comm: Option<bool>,
    /// The theorem proving the spec not wait-free solvable, if any.
    pub impossible: Option<&'static str>,
}

/// `gcd{C(n,i) : 0 < i < n}`, by Pascal's rule in u128 (exact for the
/// `n ≤ 100` this benchmark can meet).
#[must_use]
pub fn binomial_gcd(n: usize) -> u128 {
    assert!(
        (2..=100).contains(&n),
        "binomial_gcd is exact for 2 ≤ n ≤ 100"
    );
    let mut row = vec![1u128];
    for _ in 0..n {
        let mut next = vec![1u128; row.len() + 1];
        for i in 1..row.len() {
            next[i] = row[i - 1] + row[i];
        }
        row = next;
    }
    row[1..n].iter().fold(0, |g, &c| gcd(g, c))
}

fn gcd(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// `(m, ℓ, u)` when every value carries the same bounds.
fn symmetric_bounds(spec: &GsbSpec) -> Option<(usize, usize, usize)> {
    let (lower, upper) = (spec.lower_bounds(), spec.upper_bounds());
    let (l, u) = (lower[0], upper[0]);
    (lower.iter().all(|&x| x == l) && upper.iter().all(|&x| x == u)).then_some((lower.len(), l, u))
}

/// The election task: one process decides 1, the other `n − 1` decide 2.
fn is_election(spec: &GsbSpec) -> bool {
    let n = spec.n();
    n >= 2 && spec.lower_bounds() == [1, n - 1] && spec.upper_bounds() == [1, n - 1]
}

/// Evaluates the closed forms on `spec`.
#[must_use]
pub fn closed_form(spec: &GsbSpec) -> ClosedForm {
    let n = spec.n();
    let feasible = spec.lower_bounds().iter().sum::<usize>() <= n
        && n <= spec.upper_bounds().iter().sum::<usize>();
    if is_election(spec) {
        return ClosedForm {
            feasible,
            no_comm: Some(false),
            impossible: Some("Theorem 11: election"),
        };
    }
    let Some((m, l, u)) = symmetric_bounds(spec) else {
        return ClosedForm {
            feasible,
            no_comm: None,
            impossible: None,
        };
    };
    let no_comm = feasible && (m == 1 || (l == 0 && (2 * n - 1).div_ceil(m) <= u));
    let impossible = if !feasible || n < 2 {
        None
    } else if m == n && u == 1 {
        Some("Corollary 5: perfect renaming")
    } else if m >= 2 && l >= 1 && binomial_gcd(n) > 1 {
        Some("Theorem 10: binomial gcd > 1 with ℓ ≥ 1")
    } else {
        None
    };
    ClosedForm {
        feasible,
        no_comm: Some(no_comm),
        impossible,
    }
}

/// Holds one verdict for `question` on `spec` against the closed forms,
/// then re-checks its evidence with [`Verdict::check`].
///
/// # Errors
///
/// A one-line description of the first violation.
pub fn check_verdict(question: &Question, spec: &GsbSpec, verdict: &Verdict) -> Result<(), String> {
    let fail = |what: String| Err(format!("{question} on {spec}: {what}"));
    if verdict.is_indeterminate() {
        return fail("indeterminate verdict".into());
    }
    if verdict.provenance.question != *question || verdict.provenance.spec.as_ref() != Some(spec) {
        return fail("verdict answers a different question or spec".into());
    }
    let form = closed_form(spec);
    let solvability = verdict.solvability;
    let has_witness = matches!(verdict.evidence, Evidence::NoCommunication { .. });
    let has_map = matches!(verdict.evidence, Evidence::DecisionMap(_));
    if !form.feasible && solvability != Some(Solvability::Infeasible) {
        return fail(format!("infeasible spec answered {solvability:?}"));
    }
    if let Some(theorem) = form.impossible {
        if !solvability.is_some_and(Solvability::is_negative) || has_witness || has_map {
            return fail(format!(
                "{theorem} proves it impossible, verdict says {solvability:?} with {} evidence",
                verdict.evidence.label()
            ));
        }
    }
    match question {
        Question::Classify | Question::NoCommWitness => {
            if let (Some(no_comm), true) = (form.no_comm, form.feasible) {
                let says = solvability == Some(Solvability::SolvableWithoutCommunication);
                if says != no_comm {
                    return fail(format!(
                        "Theorem 9 says no-comm = {no_comm}, verdict {solvability:?}"
                    ));
                }
                if matches!(question, Question::NoCommWitness) && has_witness != no_comm {
                    return fail(format!(
                        "Theorem 9 says no-comm = {no_comm}, witness = {has_witness}"
                    ));
                }
            }
        }
        Question::Certificate { .. } => {
            if form.no_comm == Some(true) && !has_witness {
                return fail("Theorem 9 witness expected as the certificate".into());
            }
            if is_election(spec)
                && !matches!(verdict.evidence, Evidence::ElectionCertificate { .. })
            {
                return fail("Theorem 11 certificate expected for election".into());
            }
        }
        _ => {}
    }
    verdict
        .check()
        .or_else(|e| fail(format!("evidence rejected: {e}")))
}

/// Whether a round-bounded verdict found a decision map (SAT) or refuted
/// one (UNSAT); `None` for verdicts that answer by another certificate.
#[must_use]
pub fn round_outcome(verdict: &Verdict) -> Option<bool> {
    match verdict.evidence {
        Evidence::DecisionMap(_) => Some(true),
        Evidence::RoundsUnsat { .. } => Some(false),
        _ => None,
    }
}

/// Round-monotonicity bookkeeping: SAT at `r` implies SAT at `r + 1`,
/// and one `(spec, r)` always gets the same outcome.
#[derive(Debug, Default)]
pub struct Monotonicity {
    outcomes: BTreeMap<(String, usize), bool>,
}

impl Monotonicity {
    /// Records the outcome of one round-bounded verdict.
    ///
    /// # Errors
    ///
    /// When the same `(spec, rounds)` was seen with the other outcome.
    pub fn record(&mut self, spec: &GsbSpec, rounds: usize, sat: bool) -> Result<(), String> {
        let key = (spec.to_string(), rounds);
        match self.outcomes.insert(key, sat) {
            Some(before) if before != sat => Err(format!(
                "{spec} at {rounds} round(s) answered both SAT and UNSAT"
            )),
            _ => Ok(()),
        }
    }

    /// Every `(spec, r)` SAT whose `(spec, r + 1)` was recorded UNSAT.
    #[must_use]
    pub fn violations(&self) -> Vec<String> {
        self.outcomes
            .iter()
            .filter(|(&(ref spec, r), &sat)| {
                sat && self.outcomes.get(&(spec.clone(), r + 1)) == Some(&false)
            })
            .map(|((spec, r), _)| format!("{spec}: SAT at {r} round(s) but UNSAT at {}", r + 1))
            .collect()
    }

    /// `(spec, r)` pairs whose successor round was also recorded.
    #[must_use]
    pub fn pairs(&self) -> usize {
        self.outcomes
            .keys()
            .filter(|(spec, r)| self.outcomes.contains_key(&(spec.clone(), r + 1)))
            .count()
    }
}

/// The distinct verdicts a run received per key, held against the
/// oracle once each after the timed phase (re-checking thousands of
/// identical answers would only repeat work).
#[derive(Debug)]
pub struct Book {
    queries: Vec<Query>,
    distinct: Vec<Vec<Verdict>>,
}

impl Book {
    /// An empty book over a workload's keys.
    #[must_use]
    pub fn new(queries: &[Query]) -> Book {
        Book {
            queries: queries.to_vec(),
            distinct: vec![Vec::new(); queries.len()],
        }
    }

    /// Records the verdict received for key `key`.
    pub fn add(&mut self, key: usize, verdict: &Verdict) {
        let same = |v: &Verdict| {
            v.solvability == verdict.solvability
                && v.evidence == verdict.evidence
                && v.provenance == verdict.provenance
        };
        if !self.distinct[key].iter().any(same) {
            self.distinct[key].push(verdict.clone());
        }
    }

    /// Runs every check: each key answered, each distinct verdict
    /// against the closed forms and its own evidence, and round
    /// monotonicity over all round-bounded outcomes.
    pub fn check(&self, outcome: &mut Outcome) {
        let mut rounds = Monotonicity::default();
        for (query, verdicts) in self.queries.iter().zip(&self.distinct) {
            let spec = query.spec().expect("every benchmark key has a spec");
            if verdicts.is_empty() {
                outcome.violations.push(format!("{query}: never answered"));
            }
            for verdict in verdicts {
                if let Err(e) = check_verdict(query.question(), spec, verdict) {
                    outcome.violations.push(e);
                }
                let bound = match query.question() {
                    Question::SolvableInRounds { rounds } | Question::Certificate { rounds } => {
                        Some(*rounds)
                    }
                    _ => None,
                };
                if let (Some(r), Some(sat)) = (bound, round_outcome(verdict)) {
                    if let Err(e) = rounds.record(spec, r, sat) {
                        outcome.violations.push(e);
                    }
                }
            }
        }
        for violation in rounds.violations() {
            outcome.violations.push(violation);
        }
        println!(
            "checked {} distinct verdicts over {} keys; {} (spec, r)/(spec, r+1) pairs",
            self.distinct.iter().map(Vec::len).sum::<usize>(),
            self.queries.len(),
            rounds.pairs()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsb_core::SymmetricGsb;
    use gsb_engine::{EngineCache, Query};

    fn sym(n: usize, m: usize, l: usize, u: usize) -> GsbSpec {
        SymmetricGsb::new(n, m, l, u).unwrap().to_spec()
    }

    #[test]
    fn binomial_gcds_match_the_prime_power_rule() {
        let expected = [
            (2, 2),
            (3, 3),
            (4, 2),
            (5, 5),
            (6, 1),
            (7, 7),
            (8, 2),
            (9, 3),
        ];
        for (n, g) in expected {
            assert_eq!(binomial_gcd(n), g, "n = {n}");
        }
        assert_eq!(binomial_gcd(10), 1);
        assert_eq!(binomial_gcd(11), 11);
    }

    #[test]
    fn closed_forms_of_named_tasks() {
        // (2n−1)-renaming is solvable with no communication (Theorem 9).
        let loose = closed_form(&sym(4, 7, 0, 1));
        assert_eq!(loose.no_comm, Some(true));
        assert_eq!(loose.impossible, None);
        // WSB at a prime power is impossible (Theorem 10), at n = 6 open.
        assert!(closed_form(&sym(4, 2, 1, 3)).impossible.is_some());
        assert_eq!(closed_form(&sym(6, 2, 1, 5)).impossible, None);
        // Perfect renaming and its n-renaming synonym (Corollary 5).
        assert!(closed_form(&sym(6, 6, 1, 1)).impossible.is_some());
        assert!(closed_form(&sym(6, 6, 0, 1)).impossible.is_some());
        // Election (Theorem 11).
        let election = closed_form(&GsbSpec::election(5).unwrap());
        assert_eq!(election.no_comm, Some(false));
        assert!(election.impossible.is_some());
        // Infeasible: 3·2 > 5.
        assert!(!closed_form(&sym(5, 3, 2, 5)).feasible);
    }

    #[test]
    fn correct_verdicts_pass() {
        let cache = EngineCache::new();
        for (spec, question) in [
            (sym(4, 2, 1, 3), Question::Classify),
            (sym(4, 7, 0, 1), Question::NoCommWitness),
            (sym(3, 2, 1, 2), Question::SolvableInRounds { rounds: 2 }),
            (
                GsbSpec::election(3).unwrap(),
                Question::Certificate { rounds: 1 },
            ),
        ] {
            let verdict = Query::new(spec.clone(), question.clone())
                .run_with(&cache)
                .unwrap();
            check_verdict(&question, &spec, &verdict).unwrap();
        }
    }

    #[test]
    fn a_flipped_solvability_is_caught() {
        let cache = EngineCache::new();
        // WSB(4): Theorem 10 makes it impossible; flip it to solvable.
        let spec = sym(4, 2, 1, 3);
        let mut verdict = Query::classify(spec.clone()).run_with(&cache).unwrap();
        verdict.solvability = Some(Solvability::WaitFreeSolvable);
        assert!(check_verdict(&Question::Classify, &spec, &verdict).is_err());
        // (2n−1)-renaming: Theorem 9 makes it solvable; flip it.
        let spec = sym(4, 7, 0, 1);
        let mut verdict = Query::classify(spec.clone()).run_with(&cache).unwrap();
        verdict.solvability = Some(Solvability::NotWaitFreeSolvable);
        assert!(check_verdict(&Question::Classify, &spec, &verdict).is_err());
        // A round-bounded UNSAT on an impossible spec, flipped positive.
        let spec = sym(3, 2, 1, 2);
        let question = Question::SolvableInRounds { rounds: 2 };
        let mut verdict = Query::new(spec.clone(), question.clone())
            .run_with(&cache)
            .unwrap();
        verdict.solvability = Some(Solvability::WaitFreeSolvable);
        assert!(check_verdict(&question, &spec, &verdict).is_err());
    }

    #[test]
    fn monotonicity_flags_sat_then_unsat() {
        let spec = sym(3, 5, 0, 1);
        let mut book = Monotonicity::default();
        book.record(&spec, 1, false).unwrap();
        book.record(&spec, 2, true).unwrap();
        book.record(&spec, 3, true).unwrap();
        assert!(book.violations().is_empty());
        assert_eq!(book.pairs(), 2);
        assert!(book.record(&spec, 2, false).is_err());
        let mut bad = Monotonicity::default();
        bad.record(&spec, 1, true).unwrap();
        bad.record(&spec, 2, false).unwrap();
        assert_eq!(bad.violations().len(), 1);
    }
}
