//! Golden digests of the CART trees: every node of every tree (split
//! feature, threshold, child indices, leaf value, all as exact bits) plus
//! `predict_proba` on fixed probe rows, for the forests the experiments
//! train (the Best RF, Table 3's one-tree depth-16 and 16 × 8 forests),
//! the default gradient-boosted ensemble, and the corners of the grower:
//! a forest with `min_leaf = 0`, a dataset whose first split leaves pure
//! children, features whose values mostly tie, and a split between two
//! adjacent floats, which leaves an empty child.
//!
//! The constants were generated when the forest and the boosting stages
//! were still grown by two separate tree implementations. Nodes are read
//! through their `Debug` form, which names every field, so this file
//! compiles against either node type. Any change to the grower, the
//! split search or the traversal must reproduce them exactly.

use psca_exec::Digest;
use psca_ml::gbdt::{Gbdt, GbdtConfig};
use psca_ml::{Dataset, DecisionTree, Matrix, RandomForest, RandomForestConfig};
use std::fmt::Debug;

/// A seeded `n × 12` dataset with features uniform in `[-2, 2)`, labelled
/// by `label`.
fn seeded(n: usize, seed: u64, label: impl Fn(&[f64]) -> bool) -> Dataset {
    let mut s = seed;
    let mut next = move || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (s >> 11) as f64 / (1u64 << 53) as f64
    };
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..12).map(|_| next() * 4.0 - 2.0).collect())
        .collect();
    let labels: Vec<u8> = rows.iter().map(|r| label(r) as u8).collect();
    let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
    Dataset::new(Matrix::from_rows(&refs), labels, vec![0; n])
}

/// 400 samples with a non-linear label and about 10 % label noise, so the
/// trees grow to their depth bound.
fn noisy() -> Dataset {
    seeded(400, 0x9e37_79b9_7f4a_7c15, |r| {
        let clean = r[0] * r[1] + 0.5 * r[2] - 0.25 * r[7] > 0.1;
        clean != ((r[11] * 1000.0).rem_euclid(1.0) < 0.1)
    })
}

/// 300 samples labelled by the sign of feature 0 alone: a split on it
/// leaves two pure children.
fn separable() -> Dataset {
    seeded(300, 0x2545_f491_4f6c_dd1d, |r| r[0] > 0.0)
}

/// The noisy dataset with every feature rounded to a multiple of 0.5, so
/// most feature values tie, as integer counters do.
fn tied() -> Dataset {
    let base = noisy();
    let rows: Vec<Vec<f64>> = (0..base.len())
        .map(|i| {
            base.sample(i)
                .0
                .iter()
                .map(|v| (v * 2.0).round() / 2.0)
                .collect()
        })
        .collect();
    let labels: Vec<u8> = (0..base.len()).map(|i| base.sample(i).1).collect();
    let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
    Dataset::new(Matrix::from_rows(&refs), labels, vec![0; rows.len()])
}

/// 1.0 and the next float up: their midpoint rounds down onto 1.0, so the
/// split between them sends every sample right and leaves the left child
/// empty.
fn adjacent() -> Dataset {
    let up = f64::from_bits(1.0f64.to_bits() + 1);
    let x = Matrix::from_rows(&[&[1.0], &[1.0], &[up], &[up]]);
    Dataset::new(x, vec![0, 0, 1, 1], vec![0; 4])
}

/// Probe rows independent of the training data, including an all-zero row.
fn probes() -> Vec<Vec<f64>> {
    (0..24)
        .map(|i| {
            (0..12)
                .map(|j| {
                    if i == 0 {
                        0.0
                    } else {
                        ((i * 12 + j) as f64).sin() * 2.5
                    }
                })
                .collect()
        })
        .collect()
}

/// Feeds one node to the digest: a tag for the variant, then each field
/// in declaration order, integers as themselves and floats as their bits
/// (`Debug` prints the shortest string that parses back to the same f64).
fn write_node(d: &mut Digest, node: &impl Debug) {
    let text = format!("{node:?}");
    let (variant, fields) = text.split_once(" { ").expect("struct-like variant");
    d.write_str(variant);
    for field in fields.trim_end_matches(" }").split(", ") {
        let (_, value) = field.split_once(": ").expect("named field");
        match value.parse::<u64>() {
            Ok(v) => d.write_u64(v),
            Err(_) => d.write_u64(value.parse::<f64>().expect("float field").to_bits()),
        };
    }
}

fn write_tree<N: Debug>(d: &mut Digest, max_depth: usize, nodes: &[N]) {
    d.write_u64(max_depth as u64).write_u64(nodes.len() as u64);
    for node in nodes {
        write_node(d, node);
    }
}

fn forest_digest(cfg: &RandomForestConfig, data: &Dataset, seed: u64) -> u64 {
    let rf = RandomForest::fit(cfg, data, seed);
    let mut d = Digest::new();
    for tree in rf.trees() {
        write_tree(&mut d, tree.max_depth(), tree.nodes());
    }
    for x in probes() {
        d.write_u64(rf.predict_proba(&x).to_bits());
    }
    d.finish()
}

fn gbdt_digest(cfg: &GbdtConfig, data: &Dataset) -> u64 {
    let model = Gbdt::fit(cfg, data);
    let mut d = Digest::new();
    for tree in model.trees() {
        write_tree(&mut d, tree.max_depth(), tree.nodes());
    }
    for x in probes() {
        d.write_u64(model.predict_proba(&x).to_bits());
    }
    d.finish()
}

#[test]
fn best_rf_is_bit_identical() {
    let got = forest_digest(&RandomForestConfig::best_rf(), &noisy(), 11);
    assert_eq!(got, 1260707907815298642);
}

#[test]
fn table3_depth16_tree_is_bit_identical() {
    let cfg = RandomForestConfig {
        num_trees: 1,
        max_depth: 16,
        min_leaf: 1,
    };
    let got = forest_digest(&cfg, &noisy(), 12);
    assert_eq!(got, 11687203171653059658);
}

#[test]
fn table3_16_by_8_forest_is_bit_identical() {
    let cfg = RandomForestConfig {
        num_trees: 16,
        max_depth: 8,
        min_leaf: 2,
    };
    let got = forest_digest(&cfg, &noisy(), 13);
    assert_eq!(got, 6882304938143633435);
}

#[test]
fn default_gbdt_is_bit_identical() {
    let got = gbdt_digest(&GbdtConfig::default(), &noisy());
    assert_eq!(got, 14438617424661400928);
}

#[test]
fn forest_with_min_leaf_zero_is_bit_identical() {
    let cfg = RandomForestConfig {
        num_trees: 4,
        max_depth: 10,
        min_leaf: 0,
    };
    let got = forest_digest(&cfg, &noisy(), 14);
    assert_eq!(got, 4462954412971123922);
}

#[test]
fn tree_with_pure_children_is_bit_identical() {
    // Every feature is a candidate, so the root splits on feature 0 and
    // both children are pure leaves.
    let tree = DecisionTree::fit(&separable(), 8, 2, None, 16);
    assert_eq!(tree.num_nodes(), 3);
    let mut d = Digest::new();
    write_tree(&mut d, tree.max_depth(), tree.nodes());
    for x in probes() {
        d.write_u64(tree.predict_proba(&x).to_bits());
    }
    let got = d.finish();
    assert_eq!(got, 337298651466847286);
}

#[test]
fn forest_on_a_separable_dataset_is_bit_identical() {
    let got = forest_digest(&RandomForestConfig::best_rf(), &separable(), 15);
    assert_eq!(got, 15302652859052164662);
}

#[test]
fn gbdt_on_a_separable_dataset_is_bit_identical() {
    let got = gbdt_digest(&GbdtConfig::default(), &separable());
    assert_eq!(got, 8301325165369542643);
}

#[test]
fn forest_on_tied_features_is_bit_identical() {
    let got = forest_digest(&RandomForestConfig::best_rf(), &tied(), 17);
    assert_eq!(got, 946378903020227786);
}

#[test]
fn gbdt_on_tied_features_is_bit_identical() {
    let got = gbdt_digest(&GbdtConfig::default(), &tied());
    assert_eq!(got, 8101050038425667893);
}

#[test]
fn empty_children_are_bit_identical() {
    let tree = DecisionTree::fit(&adjacent(), 3, 1, None, 18);
    let model = Gbdt::fit(&GbdtConfig::default(), &adjacent());
    let mut d = Digest::new();
    write_tree(&mut d, tree.max_depth(), tree.nodes());
    for stage in model.trees() {
        write_tree(&mut d, stage.max_depth(), stage.nodes());
    }
    // An empty forest leaf is NaN; its sign bit depends on the platform.
    let bits = |p: f64| {
        if p.is_nan() {
            f64::NAN.to_bits()
        } else {
            p.to_bits()
        }
    };
    for x in [[0.5], [1.0], [2.0]] {
        d.write_u64(bits(tree.predict_proba(&x)));
        d.write_u64(bits(model.predict_proba(&x)));
    }
    let got = d.finish();
    assert_eq!(got, 13416821614591083906);
}
