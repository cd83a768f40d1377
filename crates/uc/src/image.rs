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

use crate::firmware::{FirmwareError, FirmwareModel};
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

struct Writer(Vec<u8>);

impl Writer {
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
}

struct Reader<'a> {
    data: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ImageError> {
        if self.at + n > self.data.len() {
            return Err(ImageError::Corrupt("unexpected end of image"));
        }
        let s = &self.data[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, ImageError> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, ImageError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> Result<u32, ImageError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn f64(&mut self) -> Result<f64, ImageError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn done(&self) -> bool {
        self.at == self.data.len()
    }
}

/// Encodes a trained model as a firmware image.
///
/// # Errors
/// Returns [`ImageError::Unsupported`] for SVM variants, which the paper's
/// budget analysis rules out for deployment.
pub fn encode(model: &FirmwareModel) -> Result<Vec<u8>, ImageError> {
    let mut w = Writer(Vec::new());
    w.0.extend_from_slice(MAGIC);
    w.u8(VERSION);
    match model {
        FirmwareModel::Mlp(m) => {
            w.u8(TAG_MLP);
            w.f64(m.threshold());
            w.u8(m.num_layers() as u8);
            for li in 0..m.num_layers() {
                let (weights, biases) = m.layer_weights(li);
                w.u16(weights.rows() as u16);
                w.u16(weights.cols() as u16);
                for r in 0..weights.rows() {
                    for c in 0..weights.cols() {
                        w.f64(weights.get(r, c));
                    }
                }
                for &b in biases {
                    w.f64(b);
                }
            }
        }
        FirmwareModel::Forest(forest) => {
            w.u8(TAG_FOREST);
            w.f64(forest.threshold());
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
        FirmwareModel::Logistic(lr) => {
            w.u8(TAG_LOGISTIC);
            w.f64(lr.threshold());
            w.u16(lr.weights().len() as u16);
            for &v in lr.weights() {
                w.f64(v);
            }
            w.f64(lr.bias());
        }
        FirmwareModel::SvmEnsemble(_) => {
            return Err(ImageError::Unsupported("linear SVM ensemble"))
        }
        FirmwareModel::Chi2Svm(_) => return Err(ImageError::Unsupported("chi^2 kernel SVM")),
        FirmwareModel::Gbdt(_) => {
            // Deployable in principle, but the image format pins the §5
            // model classes; extend with a new tag before shipping GBDTs.
            return Err(ImageError::Unsupported("gradient-boosted trees"));
        }
    }
    let crc = crc32(&w.0);
    w.u32(crc);
    Ok(w.0)
}

/// Decodes a firmware image back into a runnable model.
///
/// # Errors
/// Returns a descriptive [`ImageError`] for malformed inputs; decoding
/// never panics on untrusted bytes.
pub fn decode(bytes: &[u8]) -> Result<FirmwareModel, ImageError> {
    let mut header = Reader { data: bytes, at: 0 };
    if header.take(4)? != MAGIC {
        return Err(ImageError::BadMagic);
    }
    let version = header.u8()?;
    if version != VERSION {
        return Err(ImageError::BadVersion(version));
    }
    // The last four bytes are a little-endian CRC-32 of the rest.
    if bytes.len() < 9 {
        return Err(ImageError::Corrupt("unexpected end of image"));
    }
    let (body, trailer) = bytes.split_at(bytes.len() - 4);
    let stored = u32::from_le_bytes(trailer.try_into().unwrap());
    if crc32(body) != stored {
        return Err(ImageError::ChecksumMismatch);
    }
    let mut r = Reader { data: body, at: 5 };
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
            let mut layers = Vec::with_capacity(n_layers);
            for _ in 0..n_layers {
                let rows = r.u16()? as usize;
                let cols = r.u16()? as usize;
                if rows == 0 || cols == 0 || rows * cols > 1 << 20 {
                    return Err(ImageError::Corrupt("implausible layer shape"));
                }
                let mut m = Matrix::zeros(rows, cols);
                for row in 0..rows {
                    for col in 0..cols {
                        let v = r.f64()?;
                        m.set(row, col, v);
                    }
                }
                let mut biases = Vec::with_capacity(rows);
                for _ in 0..rows {
                    biases.push(r.f64()?);
                }
                layers.push((m, biases));
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
            FirmwareModel::Mlp(Mlp::from_layers(layers, threshold))
        }
        TAG_FOREST => {
            let n_trees = r.u16()? as usize;
            if n_trees == 0 {
                return Err(ImageError::Corrupt("forest with zero trees"));
            }
            let mut trees = Vec::with_capacity(n_trees);
            for _ in 0..n_trees {
                let max_depth = r.u16()? as usize;
                let num_features = r.u16()? as usize;
                let n_nodes = r.u32()? as usize;
                if n_nodes == 0 || n_nodes > 1 << 22 {
                    return Err(ImageError::Corrupt("implausible node count"));
                }
                let mut nodes = Vec::with_capacity(n_nodes);
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
                            {
                                return Err(ImageError::Corrupt("malformed split node"));
                            }
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
            FirmwareModel::Forest(RandomForest::from_trees(trees, threshold))
        }
        TAG_LOGISTIC => {
            let d = r.u16()? as usize;
            let mut weights = Vec::with_capacity(d);
            for _ in 0..d {
                weights.push(r.f64()?);
            }
            let bias = r.f64()?;
            FirmwareModel::Logistic(LogisticRegression::from_parts(weights, bias, threshold))
        }
        _ => return Err(ImageError::Corrupt("unknown model tag")),
    };
    if !r.done() {
        return Err(ImageError::Corrupt("trailing bytes"));
    }
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
        let mut mlp = Mlp::fit(&MlpConfig::best_mlp(), &data, 5);
        mlp.set_threshold(0.7);
        roundtrip_matches(&FirmwareModel::Mlp(mlp), 12);
    }

    #[test]
    fn forest_image_roundtrips_bit_exact() {
        let data = dataset(400, 12);
        let mut rf = RandomForest::fit(&RandomForestConfig::best_rf(), &data, 6);
        rf.set_threshold(0.65);
        roundtrip_matches(&FirmwareModel::Forest(rf), 12);
    }

    #[test]
    fn logistic_image_roundtrips_bit_exact() {
        let data = dataset(200, 8);
        let lr = LogisticRegression::fit(&data, 1e-4, 100);
        roundtrip_matches(&FirmwareModel::Logistic(lr), 8);
    }

    #[test]
    fn fingerprint_distinguishes_crc_trailed_blobs() {
        // The CRC residue trap: every version-2 blob ends with the CRC of
        // its payload, so CRC-32 over the whole blob is the same constant
        // for *every* image. The fingerprint must not fall into it.
        let a = encode(&FirmwareModel::Logistic(LogisticRegression::from_parts(
            vec![1.0, 2.0],
            0.0,
            0.5,
        )))
        .unwrap();
        let b = encode(&FirmwareModel::Logistic(LogisticRegression::from_parts(
            vec![1.0, 2.0],
            0.0,
            0.25,
        )))
        .unwrap();
        assert_ne!(a, b);
        assert_ne!(fingerprint(&a), fingerprint(&b));
        assert_eq!(fingerprint(&a), fingerprint(&a.clone()));
    }

    #[test]
    fn svms_are_rejected() {
        let data = dataset(100, 4);
        let svm = psca_ml::LinearSvm::fit(&data, 1e-3, 500, 1);
        let err = encode(&FirmwareModel::SvmEnsemble(vec![svm])).unwrap_err();
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
        let mut truncated = encode(&FirmwareModel::Logistic(LogisticRegression::from_parts(
            vec![1.0, 2.0],
            0.0,
            0.5,
        )))
        .unwrap();
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
        let image = encode(&FirmwareModel::Logistic(lr)).unwrap();
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
        let lr = LogisticRegression::from_parts(vec![1.0, -0.5], 0.25, 0.5);
        let mut v1 = encode(&FirmwareModel::Logistic(lr)).unwrap();
        v1.truncate(v1.len() - 4); // strip the CRC trailer
        v1[4] = 1; // mark as the pre-checksum format
        assert_eq!(decode(&v1).unwrap_err(), ImageError::BadVersion(1));
    }

    #[test]
    fn nan_weights_are_rejected_at_load() {
        let lr = LogisticRegression::from_parts(vec![1.0, f64::NAN], 0.0, 0.5);
        let image = encode(&FirmwareModel::Logistic(lr)).unwrap();
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
        let image = encode(&FirmwareModel::Forest(rf)).unwrap();
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..500 {
            let mut corrupted = image.clone();
            let idx = rng.gen_range(0..corrupted.len());
            corrupted[idx] ^= 1u8 << rng.gen_range(0..8);
            let _ = decode(&corrupted); // must not panic; error or value both fine
        }
    }

    #[test]
    fn version_mismatch_detected() {
        let lr = LogisticRegression::from_parts(vec![1.0], 0.0, 0.5);
        let mut image = encode(&FirmwareModel::Logistic(lr)).unwrap();
        image[4] = 9; // bump version byte
        assert_eq!(decode(&image).unwrap_err(), ImageError::BadVersion(9));
    }
}
