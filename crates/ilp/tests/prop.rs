//! Property tests: the maximum-weight independent set search is exact,
//! verified against brute-force enumeration.

use av_ilp::max_weight_independent_set;
use proptest::prelude::*;

/// Whether `picks` takes no conflicting pair and no self-paired item.
fn independent(picks: &[bool], conflicts: &[(usize, usize)]) -> bool {
    conflicts.iter().all(|&(a, b)| !(picks[a] && picks[b]))
}

fn weight_of(picks: &[bool], weights: &[f64]) -> f64 {
    picks
        .iter()
        .zip(weights)
        .map(|(&p, &w)| if p { w } else { 0.0 })
        .sum()
}

/// The best total weight over every independent set of positive-weight items.
fn brute_force(weights: &[f64], conflicts: &[(usize, usize)]) -> f64 {
    let n = weights.len();
    let mut best = 0.0f64;
    for mask in 0..(1usize << n) {
        let picks: Vec<bool> = (0..n).map(|i| mask >> i & 1 == 1).collect();
        let positive = picks.iter().zip(weights).all(|(&p, &w)| !p || w > 0.0);
        if positive && independent(&picks, conflicts) {
            best = best.max(weight_of(&picks, weights));
        }
    }
    best
}

/// Weights with many exact ties, zeros and negatives, or arbitrary floats.
fn weight() -> impl Strategy<Value = f64> {
    prop_oneof![(-2i32..4).prop_map(f64::from), Just(-0.0), -3.0f64..6.0,]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn mwis_matches_brute_force(
        weights in proptest::collection::vec(weight(), 0..11),
        edges in proptest::collection::vec((0..10usize, 0..10usize, 0..8u32), 0..16),
    ) {
        let n = weights.len();
        // One edge in eight is a self pair; duplicates come from the draw.
        let conflicts: Vec<(usize, usize)> = edges
            .into_iter()
            .filter(|&(a, b, _)| a < n && b < n)
            .map(|(a, b, kind)| if kind == 0 { (a, a) } else { (a, b) })
            .collect();
        let picks = max_weight_independent_set(&weights, &conflicts);
        prop_assert_eq!(picks.len(), n);
        prop_assert!(independent(&picks, &conflicts), "conflicting picks {picks:?}");
        for (i, &p) in picks.iter().enumerate() {
            prop_assert!(!p || weights[i] > 0.0, "non-positive weight {i} picked");
        }
        let best = brute_force(&weights, &conflicts);
        let got = weight_of(&picks, &weights);
        prop_assert!((got - best).abs() < 1e-9, "MWIS {got} != brute force {best}");
    }

    #[test]
    fn mwis_never_picks_conflicting_pairs(
        weights in proptest::collection::vec(-3.0f64..6.0, 1..9),
        edges in proptest::collection::vec((0..9usize, 0..9usize), 0..10),
    ) {
        let n = weights.len();
        let conflicts: Vec<(usize, usize)> = edges
            .into_iter()
            .filter(|&(a, b)| a < n && b < n && a != b)
            .collect();
        let picks = max_weight_independent_set(&weights, &conflicts);
        for &(a, b) in &conflicts {
            prop_assert!(!(picks[a] && picks[b]), "conflict ({a},{b}) both picked");
        }
        for (i, &p) in picks.iter().enumerate() {
            if p {
                prop_assert!(weights[i] > 0.0, "non-positive weight picked");
            }
        }
    }
}
