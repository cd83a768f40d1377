//! Firmware images: the byte format pushed to CPUs in the field.
//!
//! The paper's post-silicon story (§3.2) hinges on adaptation models being
//! plain firmware: a data-center operator installs a new model through
//! existing infrastructure-management software, and the CPU's power and
//! performance character changes. This module is that artifact — a
//! self-describing little-endian binary encoding of a trained
//! [`FirmwareModel`], with bit-exact round-tripping.
//!
//! Layout: magic `PSCA`, format version, model tag, decision threshold,
//! then a per-class payload (layer shapes + weights for MLPs, node arrays
//! for forests, coefficients for logistic regression). Version 2 appends
//! a little-endian CRC-32 of everything before it, so bit flips in
//! transit are detected before the payload is even parsed; any other
//! version (including the checksum-less version 1) is rejected as
//! [`ImageError::BadVersion`]. Decoding also runs
//! [`FirmwareModel::validate`], rejecting images whose weights are NaN
//! or infinite — the "validated firmware images" rung of the robustness
//! story (docs/ROBUSTNESS.md).

use crate::firmware::{FirmwareError, FirmwareModel, Model};
use psca_exec::codec::{Reader, Truncated, Writer};
use psca_ml::{DecisionTree, LogisticRegression, Matrix, Mlp, Node, RandomForest};
use std::fmt;

/// Errors raised while encoding or decoding a firmware image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ImageError {
    /// The model class cannot be deployed as firmware (χ²-kernel SVMs
    /// exceed every µC budget; Table 3).
    Unsupported(&'static str),
    /// The byte stream is not a firmware image.
    BadMagic,
    /// The format version is unknown.
    BadVersion(u8),
    /// The byte stream ended prematurely or a field is out of range.
    Corrupt(&'static str),
    /// The CRC-32 trailer does not match the image contents.
    ChecksumMismatch,
    /// The payload parsed but the model failed weight-sanity validation.
    InvalidModel(FirmwareError),
}

impl fmt::Display for ImageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImageError::Unsupported(what) => {
                write!(f, "model class not deployable as firmware: {what}")
            }
            ImageError::BadMagic => f.write_str("not a PSCA firmware image"),
            ImageError::BadVersion(v) => write!(f, "unsupported image version {v}"),
            ImageError::Corrupt(what) => write!(f, "corrupt firmware image: {what}"),
            ImageError::ChecksumMismatch => f.write_str("firmware image checksum mismatch"),
            ImageError::InvalidModel(e) => write!(f, "firmware image failed validation: {e}"),
        }
    }
}

impl std::error::Error for ImageError {}

impl From<Truncated> for ImageError {
    fn from(_: Truncated) -> ImageError {
        ImageError::Corrupt("unexpected end of image")
    }
}

const MAGIC: &[u8; 4] = b"PSCA";
/// The one format version: payload followed by a CRC-32 trailer.
const VERSION: u8 = 2;

/// Bitwise CRC-32 (IEEE 802.3 polynomial, reflected). Hand-rolled so the
/// image format stays dependency-free.
fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// FNV-1a fingerprint of an encoded image blob.
///
/// Fleet tooling uses this as a compact content id when reporting which
/// image version is installed on each die: two byte-identical images have
/// equal fingerprints, and any reencoding that changes a single weight
/// changes it. Deliberately *not* the trailer's CRC-32: a version-2 blob
/// ends with the CRC of its payload, and CRC-32 of `payload ++ crc` is
/// the same residue constant for every payload, so reusing the trailer
/// polynomial over the whole blob would fingerprint every image
/// identically.
pub fn fingerprint(bytes: &[u8]) -> u32 {
    let mut h = 0x811C_9DC5u32;
    for &b in bytes {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

const TAG_MLP: u8 = 0;
const TAG_FOREST: u8 = 1;
const TAG_LOGISTIC: u8 = 2;

/// Encodes a trained model as a firmware image.
///
/// # Errors
/// Returns [`ImageError::Unsupported`] for SVM variants, which the paper's
/// budget analysis rules out for deployment.
pub fn encode(model: &FirmwareModel) -> Result<Vec<u8>, ImageError> {
    let tag = match model.model() {
        Model::Mlp(_) => TAG_MLP,
        Model::Forest(_) => TAG_FOREST,
        Model::Logistic(_) => TAG_LOGISTIC,
        Model::SvmEnsemble(_) => return Err(ImageError::Unsupported("linear SVM ensemble")),
        Model::Chi2Svm(_) => return Err(ImageError::Unsupported("chi^2 kernel SVM")),
        // Deployable in principle, but the image format pins the §5 model
        // classes; extend with a new tag before shipping GBDTs.
        Model::Gbdt(_) => return Err(ImageError::Unsupported("gradient-boosted trees")),
    };
    let mut w = Writer::new();
    w.raw(MAGIC);
    w.u8(VERSION);
    w.u8(tag);
    w.f64(model.threshold());
    match model.model() {
        Model::Mlp(m) => {
            w.u8(m.num_layers() as u8);
            for li in 0..m.num_layers() {
                let (weights, biases) = m.layer_weights(li);
                w.u16(weights.rows() as u16);
                w.u16(weights.cols() as u16);
                (0..weights.rows())
                    .flat_map(|r| weights.row(r))
                    .chain(biases)
                    .for_each(|&v| w.f64(v));
            }
        }
        Model::Forest(forest) => {
            w.u16(forest.trees().len() as u16);
            for tree in forest.trees() {
                w.u16(tree.max_depth() as u16);
                w.u16(tree.num_features() as u16);
                w.u32(tree.nodes().len() as u32);
                for node in tree.nodes() {
                    match node {
                        Node::Leaf { value } => {
                            w.u8(0);
                            w.f64(*value);
                        }
                        Node::Split {
                            feature,
                            threshold,
                            left,
                            right,
                        } => {
                            w.u8(1);
                            w.u16(*feature as u16);
                            w.f64(*threshold);
                            w.u32(*left as u32);
                            w.u32(*right as u32);
                        }
                    }
                }
            }
        }
        Model::Logistic(lr) => {
            w.u16(lr.weights().len() as u16);
            lr.weights().iter().for_each(|&v| w.f64(v));
            w.f64(lr.bias());
        }
        // Rejected by the tag match above.
        Model::SvmEnsemble(_) | Model::Chi2Svm(_) | Model::Gbdt(_) => {}
    }
    let crc = crc32(w.as_bytes());
    w.u32(crc);
    Ok(w.into_bytes())
}

/// Decodes a firmware image back into a runnable model.
///
/// # Errors
/// Returns a descriptive [`ImageError`] for malformed inputs; decoding
/// never panics on untrusted bytes.
pub fn decode(bytes: &[u8]) -> Result<FirmwareModel, ImageError> {
    let mut header = Reader::new(bytes);
    if header.take(4)? != MAGIC {
        return Err(ImageError::BadMagic);
    }
    let version = header.u8()?;
    if version != VERSION {
        return Err(ImageError::BadVersion(version));
    }
    // The last four bytes are a little-endian CRC-32 of the rest.
    header.fits(1, 4)?;
    let (body, trailer) = bytes.split_at(bytes.len() - 4);
    if crc32(body) != Reader::new(trailer).u32()? {
        return Err(ImageError::ChecksumMismatch);
    }
    // Every count is checked against the bytes left before it sizes an
    // allocation: a short image claiming millions of nodes is truncated,
    // not a hundred-megabyte reservation.
    let mut r = Reader::new(&body[5..]);
    let tag = r.u8()?;
    let threshold = r.f64()?;
    if !(0.0..=1.0).contains(&threshold) {
        return Err(ImageError::Corrupt("threshold out of range"));
    }
    let model = match tag {
        TAG_MLP => {
            let n_layers = r.u8()? as usize;
            if n_layers == 0 {
                return Err(ImageError::Corrupt("MLP with zero layers"));
            }
            // A layer is at least a 1×1 shape, one weight and one bias.
            let mut layers = Vec::with_capacity(r.fits(n_layers, 20)?);
            for _ in 0..n_layers {
                let rows = r.u16()? as usize;
                let cols = r.u16()? as usize;
                if rows == 0 || cols == 0 || rows * cols > 1 << 20 {
                    return Err(ImageError::Corrupt("implausible layer shape"));
                }
                r.fits(rows * (cols + 1), 8)?;
                let weights = (0..rows * cols)
                    .map(|_| r.f64())
                    .collect::<Result<_, _>>()?;
                let biases = (0..rows).map(|_| r.f64()).collect::<Result<_, _>>()?;
                layers.push((Matrix::from_vec(rows, cols, weights), biases));
            }
            // Validate chaining before handing to the panicking constructor.
            for pair in layers.windows(2) {
                if pair[0].0.rows() != pair[1].0.cols() {
                    return Err(ImageError::Corrupt("MLP layer shapes do not chain"));
                }
            }
            if layers.last().unwrap().0.rows() != 1 {
                return Err(ImageError::Corrupt("MLP output layer must be 1-wide"));
            }
            Model::Mlp(Mlp::from_layers(layers))
        }
        TAG_FOREST => {
            let n_trees = r.u16()? as usize;
            if n_trees == 0 {
                return Err(ImageError::Corrupt("forest with zero trees"));
            }
            // A tree is at least its 8-byte header and one 9-byte leaf.
            let mut trees = Vec::with_capacity(r.fits(n_trees, 17)?);
            for _ in 0..n_trees {
                let max_depth = r.u16()? as usize;
                let num_features = r.u16()? as usize;
                let n_nodes = r.count(9)?;
                if n_nodes == 0 || n_nodes > 1 << 22 {
                    return Err(ImageError::Corrupt("implausible node count"));
                }
                let mut nodes = Vec::with_capacity(n_nodes);
                // Each node's deepest path from the root, final when the node
                // is read because parents precede children. The traversal
                // asserts it ends within the declared `max_depth`.
                let mut depth = vec![0; n_nodes];
                for i in 0..n_nodes {
                    match r.u8()? {
                        0 => nodes.push(Node::Leaf { value: r.f64()? }),
                        1 => {
                            let feature = r.u16()? as usize;
                            let threshold = r.f64()?;
                            let left = r.u32()? as usize;
                            let right = r.u32()? as usize;
                            if feature >= num_features
                                || left >= n_nodes
                                || right >= n_nodes
                                || left <= i
                                || right <= i
                                || depth[i] >= max_depth
                            {
                                return Err(ImageError::Corrupt("malformed split node"));
                            }
                            depth[left] = depth[left].max(depth[i] + 1);
                            depth[right] = depth[right].max(depth[i] + 1);
                            nodes.push(Node::Split {
                                feature,
                                threshold,
                                left,
                                right,
                            });
                        }
                        _ => return Err(ImageError::Corrupt("unknown node tag")),
                    }
                }
                trees.push(DecisionTree::from_nodes(nodes, max_depth, num_features));
            }
            // Every tree reads the one input vector the forest is given.
            let width = trees[0].num_features();
            if trees.iter().any(|t| t.num_features() != width) {
                return Err(ImageError::Corrupt("trees disagree on input width"));
            }
            Model::Forest(RandomForest::from_trees(trees))
        }
        TAG_LOGISTIC => {
            let d = r.u16()? as usize;
            let weights = (0..r.fits(d, 8)?)
                .map(|_| r.f64())
                .collect::<Result<_, _>>()?;
            let bias = r.f64()?;
            Model::Logistic(LogisticRegression::from_parts(weights, bias))
        }
        _ => return Err(ImageError::Corrupt("unknown model tag")),
    };
    r.finish(ImageError::Corrupt("trailing bytes"))?;
    let mut model = FirmwareModel::new(model);
    model.set_threshold(threshold);
    // Weight-sanity check at load: a checksum proves the bytes arrived
    // intact, not that the encoded weights were sane to begin with.
    model.validate().map_err(ImageError::InvalidModel)?;
    psca_obs::counter("uc.image.loaded").inc();
    Ok(model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use psca_ml::{Dataset, MlpConfig, RandomForestConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn dataset(n: usize, d: usize) -> Dataset {
        let mut rng = StdRng::seed_from_u64(1);
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..d).map(|_| rng.gen::<f64>()).collect())
            .collect();
        let labels: Vec<u8> = rows.iter().map(|r| (r[0] > 0.5) as u8).collect();
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        Dataset::new(Matrix::from_rows(&refs), labels, vec![0; n])
    }

    /// A logistic predictor at the untuned threshold.
    fn logistic(weights: Vec<f64>, bias: f64) -> FirmwareModel {
        FirmwareModel::new(Model::Logistic(LogisticRegression::from_parts(
            weights, bias,
        )))
    }

    fn roundtrip_matches(model: &FirmwareModel, d: usize) {
        let image = encode(model).unwrap();
        let back = decode(&image).unwrap();
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..200 {
            let x: Vec<f64> = (0..d).map(|_| rng.gen::<f64>() * 4.0 - 2.0).collect();
            assert_eq!(model.predict(&x).unwrap(), back.predict(&x).unwrap());
            assert!((model.score(&x).unwrap() - back.score(&x).unwrap()).abs() < 1e-12);
        }
    }

    #[test]
    fn mlp_image_roundtrips_bit_exact() {
        let data = dataset(300, 12);
        let mut mlp = FirmwareModel::new(Model::Mlp(Mlp::fit(&MlpConfig::best_mlp(), &data, 5)));
        mlp.set_threshold(0.7);
        roundtrip_matches(&mlp, 12);
    }

    #[test]
    fn forest_image_roundtrips_bit_exact() {
        let data = dataset(400, 12);
        let mut rf = FirmwareModel::new(Model::Forest(RandomForest::fit(
            &RandomForestConfig::best_rf(),
            &data,
            6,
        )));
        rf.set_threshold(0.65);
        roundtrip_matches(&rf, 12);
    }

    #[test]
    fn logistic_image_roundtrips_bit_exact() {
        let data = dataset(200, 8);
        let lr = LogisticRegression::fit(&data, 1e-4, 100);
        roundtrip_matches(&FirmwareModel::new(Model::Logistic(lr)), 8);
    }

    #[test]
    fn fingerprint_distinguishes_crc_trailed_blobs() {
        // The CRC residue trap: every version-2 blob ends with the CRC of
        // its payload, so CRC-32 over the whole blob is the same constant
        // for *every* image. The fingerprint must not fall into it.
        let mut model = logistic(vec![1.0, 2.0], 0.0);
        let a = encode(&model).unwrap();
        model.set_threshold(0.25);
        let b = encode(&model).unwrap();
        assert_ne!(a, b);
        assert_ne!(fingerprint(&a), fingerprint(&b));
        assert_eq!(fingerprint(&a), fingerprint(&a.clone()));
    }

    #[test]
    fn svms_are_rejected() {
        let data = dataset(100, 4);
        let svm = psca_ml::LinearSvm::fit(&data, 1e-3, 500, 1);
        let err = encode(&FirmwareModel::new(Model::SvmEnsemble(vec![svm]))).unwrap_err();
        assert!(matches!(err, ImageError::Unsupported(_)));
    }

    #[test]
    fn garbage_is_rejected_not_panicked() {
        assert_eq!(
            decode(b"PSC").unwrap_err(),
            ImageError::Corrupt("unexpected end of image")
        );
        assert_eq!(decode(b"nope").unwrap_err(), ImageError::BadMagic);
        assert_eq!(decode(b"XXXX\x01\x00").unwrap_err(), ImageError::BadMagic);
        let mut truncated = encode(&logistic(vec![1.0, 2.0], 0.0)).unwrap();
        truncated.pop();
        // Truncation shifts the CRC trailer, so it reads as a checksum
        // failure (or as truncation if the image becomes too short).
        assert!(matches!(
            decode(&truncated).unwrap_err(),
            ImageError::Corrupt(_) | ImageError::ChecksumMismatch
        ));
    }

    #[test]
    fn checksum_catches_payload_bit_flips() {
        let data = dataset(200, 8);
        let lr = LogisticRegression::fit(&data, 1e-4, 100);
        let image = encode(&FirmwareModel::new(Model::Logistic(lr))).unwrap();
        // Flip one bit in every payload byte position past the header;
        // the CRC trailer must catch each one.
        for idx in 6..image.len() - 4 {
            let mut corrupted = image.clone();
            corrupted[idx] ^= 0x10;
            assert_eq!(
                decode(&corrupted).unwrap_err(),
                ImageError::ChecksumMismatch,
                "flip at byte {idx} must be caught"
            );
        }
    }

    #[test]
    fn v1_images_without_checksum_are_rejected() {
        let mut v1 = encode(&logistic(vec![1.0, -0.5], 0.25)).unwrap();
        v1.truncate(v1.len() - 4); // strip the CRC trailer
        v1[4] = 1; // mark as the pre-checksum format
        assert_eq!(decode(&v1).unwrap_err(), ImageError::BadVersion(1));
    }

    #[test]
    fn nan_weights_are_rejected_at_load() {
        let image = encode(&logistic(vec![1.0, f64::NAN], 0.0)).unwrap();
        // The image is well-formed (checksum valid) but the weights are
        // garbage: load-time validation must reject it.
        assert!(matches!(
            decode(&image).unwrap_err(),
            ImageError::InvalidModel(crate::FirmwareError::NonFiniteParameter(_))
        ));
    }

    #[test]
    fn fuzzed_mutations_never_panic() {
        let data = dataset(150, 6);
        let rf = RandomForest::fit(&RandomForestConfig::best_rf(), &data, 7);
        let image = encode(&FirmwareModel::new(Model::Forest(rf))).unwrap();
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..500 {
            let mut corrupted = image.clone();
            let idx = rng.gen_range(0..corrupted.len());
            corrupted[idx] ^= 1u8 << rng.gen_range(0..8);
            let _ = decode(&corrupted); // must not panic; error or value both fine
        }
    }

    /// One trained, encoded image of each deployable class.
    fn trained_images() -> &'static [Vec<u8>; 3] {
        static IMAGES: std::sync::OnceLock<[Vec<u8>; 3]> = std::sync::OnceLock::new();
        IMAGES.get_or_init(|| {
            let data = dataset(150, 6);
            [
                FirmwareModel::new(Model::Mlp(Mlp::fit(&MlpConfig::best_mlp(), &data, 5))),
                FirmwareModel::new(Model::Forest(RandomForest::fit(
                    &RandomForestConfig::best_rf(),
                    &data,
                    7,
                ))),
                FirmwareModel::new(Model::Logistic(LogisticRegression::fit(&data, 1e-4, 100))),
            ]
            .map(|m| encode(&m).unwrap())
        })
    }

    /// Appends a valid CRC-32 trailer to `body`, so the decoder gets past
    /// the checksum to the payload.
    fn reseal(mut body: Vec<u8>) -> Vec<u8> {
        let crc = crc32(&body);
        body.extend_from_slice(&crc.to_le_bytes());
        body
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        /// Truncated and mutated payloads, re-sealed so the CRC passes,
        /// reach the body decoder: each decodes to an error or to a valid
        /// model that re-encodes to the same bytes, and none panics.
        #[test]
        fn resealed_mutations_never_panic(
            kind in 0usize..3,
            truncate in proptest::arbitrary::any::<bool>(),
            keep in 0.0f64..1.0,
            mutations in proptest::prop::collection::vec(
                (0.0f64..1.0, proptest::arbitrary::any::<u8>(), 1usize..5),
                0..4,
            ),
        ) {
            let image = &trained_images()[kind];
            // Magic and version stay, so every case reaches the payload.
            let mut body = image[..image.len() - 4].to_vec();
            if truncate {
                body.truncate(5 + ((body.len() - 5) as f64 * keep) as usize);
            }
            for (at, byte, width) in mutations {
                let payload = body.len() - 5;
                if payload == 0 {
                    break;
                }
                let i = 5 + (payload as f64 * at) as usize;
                let end = (i + width).min(body.len());
                body[i..end].fill(byte);
            }
            let sealed = reseal(body);
            if let Ok(model) = decode(&sealed) {
                proptest::prop_assert!(model.validate().is_ok());
                proptest::prop_assert_eq!(encode(&model).unwrap(), sealed);
                if let Some(d) = model.input_dim() {
                    proptest::prop_assert!(model.score(&vec![0.5; d]).is_ok());
                }
            }
        }
    }

    #[test]
    fn counts_the_image_cannot_hold_are_truncated() {
        // 28 CRC-valid bytes: a forest header whose one tree claims 2^22
        // nodes and carries none. Sizing the node vector from the claim
        // reserved ~160 MB before the first node read failed.
        let mut w = Writer::new();
        w.raw(MAGIC);
        w.u8(VERSION);
        w.u8(TAG_FOREST);
        w.f64(0.5);
        w.u16(1); // trees
        w.u16(8); // max depth
        w.u16(4); // features
        w.u32(1 << 22); // nodes
        let image = reseal(w.into_bytes());
        assert_eq!(image.len(), 28);
        let truncated = ImageError::Corrupt("unexpected end of image");
        assert_eq!(decode(&image).unwrap_err(), truncated);
        // A 1024 × 1024 MLP layer with no weights behind it.
        let mut w = Writer::new();
        w.raw(MAGIC);
        w.u8(VERSION);
        w.u8(TAG_MLP);
        w.f64(0.5);
        w.u8(1);
        w.u16(1024);
        w.u16(1024);
        assert_eq!(decode(&reseal(w.into_bytes())).unwrap_err(), truncated);
    }

    #[test]
    fn forest_trees_must_agree_on_input_width() {
        // Each tree asserts its own width at predict time, so a forest
        // whose trees disagree would decode and then panic on first use.
        let stump = |num_features| {
            let nodes = vec![
                Node::Split {
                    feature: 0,
                    threshold: 0.5,
                    left: 1,
                    right: 2,
                },
                Node::Leaf { value: 0.25 },
                Node::Leaf { value: 0.75 },
            ];
            DecisionTree::from_nodes(nodes, 1, num_features)
        };
        let forest = RandomForest::from_trees(vec![stump(3), stump(5)]);
        let image = encode(&FirmwareModel::new(Model::Forest(forest))).unwrap();
        assert_eq!(
            decode(&image).unwrap_err(),
            ImageError::Corrupt("trees disagree on input width")
        );
    }

    #[test]
    fn forest_trees_must_fit_their_declared_depth() {
        // A depth-2 path: the traversal's depth assertion would panic on
        // first use if the header claimed less, so a split at the declared
        // depth is malformed.
        let split = |left| Node::Split {
            feature: 0,
            threshold: 0.5,
            left,
            right: left + 1,
        };
        let nodes = vec![
            split(1),
            split(3),
            Node::Leaf { value: 0.25 },
            Node::Leaf { value: 0.5 },
            Node::Leaf { value: 0.75 },
        ];
        let image = |max_depth| {
            let tree = DecisionTree::from_nodes(nodes.clone(), max_depth, 1);
            encode(&FirmwareModel::new(Model::Forest(
                RandomForest::from_trees(vec![tree]),
            )))
            .unwrap()
        };
        for max_depth in [0, 1] {
            assert_eq!(
                decode(&image(max_depth)).unwrap_err(),
                ImageError::Corrupt("malformed split node")
            );
        }
        assert!(decode(&image(2)).unwrap().score(&[0.1]).is_ok());
    }

    #[test]
    fn version_mismatch_detected() {
        let mut image = encode(&logistic(vec![1.0], 0.0)).unwrap();
        image[4] = 9; // bump version byte
        assert_eq!(decode(&image).unwrap_err(), ImageError::BadVersion(9));
    }
}
