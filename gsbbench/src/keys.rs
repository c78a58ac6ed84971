//! The fixed key sets of the three workloads and the seeded order in
//! which a run asks them. Key sets never depend on the seed; only the
//! order does.

use gsb_core::{zoo, GsbSpec};
use gsb_engine::{Query, Question};
use gsb_topology::SearchMode;

/// Depth of the `serve-hit` store: `gsb store build --atlas 10` holds
/// classify and witness verdicts for every feasible symmetric task and
/// zoo entry with `n ≤ 10` (1,596 keys). Evidence checks are most of
/// its build time.
pub const ATLAS_DEPTH: usize = 10;

/// Largest `n` of the `serve-fill` classify and witness keys: the
/// server's admission cap.
pub const FILL_MAX_N: usize = 9;

/// How many times `serve-fill` asks each key per pass: the first ask
/// runs the engine, the other five are store hits.
pub const FILL_ASKS: usize = 6;

/// The splitmix64 step: the benchmark's only source of randomness.
#[must_use]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seeded Fisher–Yates shuffle.
pub fn shuffle<T>(items: &mut [T], state: &mut u64) {
    for i in (1..items.len()).rev() {
        let j = (splitmix64(state) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// Pushes `spec` unless an equal spec is already present.
fn push_distinct(specs: &mut Vec<GsbSpec>, spec: GsbSpec) {
    if !specs.contains(&spec) {
        specs.push(spec);
    }
}

/// The specs `gsb store build --atlas max_n` precomputes: every
/// feasible symmetric task with `m ≤ n ≤ max_n`, then every zoo entry.
#[must_use]
pub fn atlas_specs(max_n: usize) -> Vec<GsbSpec> {
    let mut specs = Vec::new();
    for n in 1..=max_n {
        for m in 1..=n {
            if let Ok(family) = gsb_core::order::feasible_family(n, m) {
                for task in family {
                    push_distinct(&mut specs, task.to_spec());
                }
            }
        }
        if let Ok(entries) = zoo::catalog(n) {
            for entry in entries {
                push_distinct(&mut specs, entry.spec);
            }
        }
    }
    specs
}

/// Classify and witness queries over `specs`.
#[must_use]
pub fn classify_and_witness(specs: &[GsbSpec]) -> Vec<Query> {
    specs
        .iter()
        .flat_map(|spec| {
            [
                Query::new(spec.clone(), Question::Classify),
                Query::new(spec.clone(), Question::NoCommWitness),
            ]
        })
        .collect()
}

/// Whether a round-bounded zoo instance is within reach of a cold
/// solve in well under a second today. Left out, and named in the
/// README:
/// * `wsb(4)` at r = 2 (no verdict after 10 minutes, 1.3 GB);
/// * `⟨4,6,0,1⟩` at r = 2;
/// * the n = 3 WSB family at r = 3 (4–10 s and over 100k conflicts);
/// * every n = 5 instance at r = 2 (0.6 s to over 10 s each).
fn in_reach(name: &str, n: usize, rounds: usize) -> bool {
    match (n, rounds) {
        (3, 1 | 2) | (4, 1) | (5, 1) => true,
        (3, 3) => matches!(
            name,
            "election" | "perfect renaming" | "(2n−1)-renaming" | "x-bounded homonymous renaming"
        ),
        (4, 2) => !matches!(name, "weak symmetry breaking" | "(2n−2)-renaming"),
        _ => false,
    }
}

/// The round-bounded instances: distinct zoo specs with `n = 3..5`,
/// every reachable round bound `r ≤ 3`, in catalog order.
#[must_use]
pub fn round_instances() -> Vec<(GsbSpec, usize)> {
    let mut out: Vec<(GsbSpec, usize)> = Vec::new();
    for rounds in 1..=3 {
        for n in 3..=5 {
            for entry in zoo::catalog(n).expect("n ≥ 2 has a catalog") {
                let key = (entry.spec, rounds);
                if in_reach(entry.name, n, rounds) && !out.contains(&key) {
                    out.push(key);
                }
            }
        }
    }
    out
}

/// The `solve-cold` queries: every round-bounded instance under CDCL,
/// plus three SAT instances raced against the local-search lane.
#[must_use]
pub fn cold_queries() -> Vec<Query> {
    let mut queries: Vec<Query> = round_instances()
        .into_iter()
        .map(|(spec, rounds)| Query::new(spec, Question::SolvableInRounds { rounds }))
        .collect();
    let raced = [
        ("loose-renaming", 4, None, 2),
        ("loose-renaming", 3, None, 3),
        ("homonymous", 4, Some(2), 2),
    ];
    for (name, n, k, rounds) in raced {
        let spec = gsb_engine::named_task(name, n, k).expect("zoo task");
        let mut query = Query::new(spec, Question::SolvableInRounds { rounds });
        query.opts_mut().mode = SearchMode::Race;
        queries.push(query);
    }
    queries
}

/// The `serve-fill` keys: round-bounded and certificate questions on
/// the instances with `r ≤ 2`, then classify and witness questions on
/// every zoo spec with `n ≤ FILL_MAX_N`.
#[must_use]
pub fn fill_queries() -> Vec<Query> {
    let mut queries = Vec::new();
    for (spec, rounds) in round_instances().into_iter().filter(|&(_, r)| r <= 2) {
        queries.push(Query::new(
            spec.clone(),
            Question::SolvableInRounds { rounds },
        ));
        queries.push(Query::new(spec, Question::Certificate { rounds }));
    }
    let mut specs = Vec::new();
    for n in 2..=FILL_MAX_N {
        for entry in zoo::catalog(n).expect("n ≥ 2 has a catalog") {
            push_distinct(&mut specs, entry.spec);
        }
    }
    queries.extend(classify_and_witness(&specs));
    queries
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_sets_are_fixed_and_distinct() {
        let atlas = classify_and_witness(&atlas_specs(ATLAS_DEPTH));
        assert_eq!(atlas.len(), 1596);
        let rounds = round_instances();
        assert_eq!(rounds.iter().filter(|&&(_, r)| r <= 2).count(), 44);
        assert_eq!(rounds.len(), 49);
        assert_eq!(cold_queries().len(), 52);
        assert_eq!(fill_queries().len(), 2 * 44 + 2 * 78);
        for queries in [atlas, fill_queries(), cold_queries()] {
            let mut keys: Vec<String> = queries
                .iter()
                .map(|q| format!("{} {:?}", gsb_serve::proto::canonical_key(q), q.opts().mode))
                .collect();
            let total = keys.len();
            keys.sort();
            keys.dedup();
            assert_eq!(keys.len(), total, "duplicate keys");
        }
    }

    #[test]
    fn shuffles_depend_only_on_the_seed() {
        let base: Vec<usize> = (0..50).collect();
        let (mut a, mut b, mut c) = (base.clone(), base.clone(), base.clone());
        shuffle(&mut a, &mut 7);
        shuffle(&mut b, &mut 7);
        shuffle(&mut c, &mut 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
        a.sort_unstable();
        assert_eq!(a, base);
    }
}
