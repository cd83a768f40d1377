//! Golden bytes of the two on-disk binary formats: firmware images
//! (`psca_uc::image`) and sweep-cache trace entries
//! (`psca_adapt::{encode_trace, encode_traces}`).
//!
//! Both formats outlive the build that wrote them: an image is pushed to
//! dies in the field, and a sweep-cache entry is read back by later runs.
//! The FNV-1a digests below pin the exact bytes, so a codec change that
//! moves one byte fails here rather than invalidating deployed images or
//! cached corpora. Each blob must also decode back to the same bytes.

use psca_adapt::{decode_trace, decode_traces, encode_trace, encode_traces, TraceTelemetry};
use psca_ml::{DecisionTree, LogisticRegression, Matrix, Mlp, Node, RandomForest};
use psca_telemetry::NUM_EVENTS;
use psca_uc::image::{decode, encode, fingerprint};
use psca_uc::{FirmwareModel, Model};

/// `model` at decision threshold `threshold`.
fn tuned(model: Model, threshold: f64) -> FirmwareModel {
    let mut fw = FirmwareModel::new(model);
    fw.set_threshold(threshold);
    fw
}

fn mlp() -> FirmwareModel {
    let hidden = Matrix::from_rows(&[&[0.5, -1.25, 2.0], &[-0.75, 0.125, 1.5]]);
    let output = Matrix::from_rows(&[&[1.0, -2.5]]);
    let layers = vec![(hidden, vec![0.1, -0.2]), (output, vec![0.3])];
    tuned(Model::Mlp(Mlp::from_layers(layers)), 0.625)
}

fn forest() -> FirmwareModel {
    let stump = DecisionTree::from_nodes(
        vec![
            Node::Split {
                feature: 2,
                threshold: 0.375,
                left: 1,
                right: 2,
            },
            Node::Leaf { value: 0.25 },
            Node::Leaf { value: 0.875 },
        ],
        1,
        3,
    );
    let leaf = DecisionTree::from_nodes(vec![Node::Leaf { value: 0.5 }], 0, 3);
    tuned(
        Model::Forest(RandomForest::from_trees(vec![stump, leaf])),
        0.4,
    )
}

fn logistic() -> FirmwareModel {
    let lr = LogisticRegression::from_parts(vec![1.5, -0.25, 0.0, 3.0], -0.5);
    tuned(Model::Logistic(lr), 0.55)
}

/// Encodes `model`, checks the image decodes and re-encodes to the same
/// bytes, and returns `(length, FNV-1a 32 fingerprint)`.
fn image_golden(model: &FirmwareModel) -> (usize, u32) {
    let bytes = encode(model).unwrap();
    let back = decode(&bytes).unwrap();
    assert_eq!(encode(&back).unwrap(), bytes, "image must re-encode");
    (bytes.len(), fingerprint(&bytes))
}

#[test]
fn mlp_image_bytes_are_golden() {
    assert_eq!(image_golden(&mlp()), (115, 0x7b2d_9f71));
}

#[test]
fn forest_image_bytes_are_golden() {
    assert_eq!(image_golden(&forest()), (82, 0xda12_cfc5));
}

#[test]
fn logistic_image_bytes_are_golden() {
    assert_eq!(image_golden(&logistic()), (60, 0x496b_a675));
}

fn trace(app_id: u32, name: &str, intervals: usize) -> TraceTelemetry {
    let row = |k: usize, mode: f64| -> Vec<f64> {
        (0..NUM_EVENTS)
            .map(|e| (e as f64 * 0.125 + k as f64) / (mode + 1.0))
            .collect()
    };
    let f = |k: usize, scale: f64| scale * (k as f64 + 0.5);
    let n = 0..intervals;
    TraceTelemetry {
        app_id,
        app_name: name.to_string(),
        workload: 0x0123_4567_89ab_cdef,
        rows_hi: n.clone().map(|k| row(k, 0.0)).collect(),
        rows_lo: n.clone().map(|k| row(k, 1.0)).collect(),
        ipc_hi: n.clone().map(|k| f(k, 1.75)).collect(),
        ipc_lo: n.clone().map(|k| f(k, 1.25)).collect(),
        cycles_hi: n.clone().map(|k| 1_000 + k as u64).collect(),
        cycles_lo: n.clone().map(|k| 1_400 + 3 * k as u64).collect(),
        energy_hi: n.clone().map(|k| f(k, 2.5e-3)).collect(),
        energy_lo: n.clone().map(|k| f(k, 1.5e-3)).collect(),
        insts: n.map(|k| 2_000 + 7 * k as u64).collect(),
    }
}

#[test]
fn trace_entry_bytes_are_golden() {
    let t = trace(3, "roms_s", 4);
    let bytes = encode_trace(&t);
    assert_eq!(decode_trace(&bytes), Ok(t));
    assert_eq!(
        (bytes.len(), psca_exec::fnv1a(&bytes)),
        (3906, 0x8431_e654_1b89_a117)
    );
}

#[test]
fn trace_list_entry_bytes_are_golden() {
    let ts = vec![
        trace(0, "a", 2),
        trace(19, "fotonik3d_s", 3),
        trace(7, "", 0),
    ];
    let bytes = encode_traces(&ts);
    assert_eq!(decode_traces(&bytes), Ok(ts));
    assert_eq!(
        (bytes.len(), psca_exec::fnv1a(&bytes)),
        (5008, 0xbd00_2079_2f73_0de7)
    );
}
