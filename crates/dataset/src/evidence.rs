//! A batch's visual evidence, reduced to what a committee member reads.
//!
//! [`EvidenceMatrix`] is the batch-inference companion of
//! [`SyntheticImage::visual_evidence`]: per image of a batch it keeps the id
//! and the `(family, class)` block means of the evidence vector
//! ([`EvidenceMatrix::block_means`]), precomputed with the scalar path's
//! exact float-op order and shared by every committee member instead of
//! being recomputed per member. A simulated expert's vote reads nothing
//! else of an image, so the matrix is also the compact, serializable form
//! of a labeled-sample history (the boosted Ensemble's validation buffer).

use crate::generator::visual_layout::{BLOCK, FAMILIES, VISUAL_DIM};
use crate::{DamageLabel, ImageId, SyntheticImage};
use serde::binary::{Decode, DecodeError, Encode, Reader};

/// Per-image row length of [`EvidenceMatrix::block_means`]: one mean per
/// `(family, class)` block, family-major.
pub const MEANS_ROW: usize = FAMILIES * DamageLabel::COUNT;

/// A batch of images' ids and visual-evidence block means.
///
/// # Example
///
/// ```
/// use crowdlearn_dataset::{Dataset, DatasetConfig, EvidenceMatrix, MEANS_ROW};
/// use crowdlearn_dataset::visual_layout::{dim, BLOCK};
///
/// let ds = Dataset::generate(&DatasetConfig::paper());
/// let batch = &ds.test()[..10];
/// let matrix = EvidenceMatrix::from_refs(batch);
/// assert_eq!(matrix.len(), 10);
/// // Image 3's first block mean: family 0, class 0, summed `k` ascending.
/// let evidence = batch[3].visual_evidence();
/// let mean = (0..BLOCK).map(|k| evidence[dim(0, 0, k)]).sum::<f64>() / BLOCK as f64;
/// assert_eq!(matrix.block_means()[3 * MEANS_ROW], mean);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EvidenceMatrix {
    ids: Vec<ImageId>,
    /// [`MEANS_ROW`] means per image, image-major.
    means: Vec<f64>,
}

impl EvidenceMatrix {
    /// Gathers a batch from any sequence of image references (sensing cycles
    /// hand out scattered references into the dataset).
    ///
    /// # Panics
    ///
    /// Panics if any image's visual evidence is shorter than
    /// [`visual_layout::VISUAL_DIM`](crate::visual_layout::VISUAL_DIM).
    pub fn from_refs<'a, I>(images: I) -> Self
    where
        I: IntoIterator<Item = &'a SyntheticImage>,
    {
        let images = images.into_iter();
        let count = images.size_hint().0;
        let mut matrix = Self {
            ids: Vec::with_capacity(count),
            means: Vec::with_capacity(count * MEANS_ROW),
        };
        for image in images {
            matrix.push(image);
        }
        matrix
    }

    /// Appends one image to the batch.
    ///
    /// # Panics
    ///
    /// Panics if the image's visual evidence is shorter than
    /// [`visual_layout::VISUAL_DIM`](crate::visual_layout::VISUAL_DIM).
    pub fn push(&mut self, image: &SyntheticImage) {
        let visual = image.visual_evidence();
        assert!(
            visual.len() >= VISUAL_DIM,
            "visual evidence must cover the full layout"
        );
        self.ids.push(image.id());
        for block in visual[..VISUAL_DIM].chunks_exact(BLOCK) {
            let mut mean = 0.0;
            for v in block {
                mean += v;
            }
            self.means.push(mean / BLOCK as f64);
        }
    }

    /// Number of images in the batch.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The batch's image ids, in batch order.
    pub fn ids(&self) -> &[ImageId] {
        &self.ids
    }

    /// Every image's `(family, class)` block means, image-major: one
    /// [`MEANS_ROW`] row per image in batch order, `row[family *
    /// DamageLabel::COUNT + class]` being the mean over the block's `BLOCK`
    /// dimensions in `k`-ascending order (the scalar path's accumulation
    /// order, so consuming these is bit-identical to re-summing per image).
    pub fn block_means(&self) -> &[f64] {
        &self.means
    }
}

// Snapshot codec: the ids, then the means. Decoding refuses a means vector
// that is not one finite row per id.
impl Encode for EvidenceMatrix {
    fn encode(&self, out: &mut Vec<u8>) {
        self.ids.encode(out);
        self.means.encode(out);
    }
}

impl Decode for EvidenceMatrix {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let matrix = Self {
            ids: Vec::<ImageId>::decode(r)?,
            means: Vec::<f64>::decode(r)?,
        };
        if matrix.means.len() != matrix.ids.len() * MEANS_ROW
            || !matrix.means.iter().all(|m| m.is_finite())
        {
            return Err(DecodeError::Invalid);
        }
        Ok(matrix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::visual_layout::dim;
    use crate::{Dataset, DatasetConfig};

    #[test]
    fn block_means_match_per_image_sums_bit_for_bit() {
        let ds = Dataset::generate(&DatasetConfig::paper());
        let batch = &ds.test()[..9];
        let matrix = EvidenceMatrix::from_refs(batch);
        let means = matrix.block_means();
        assert_eq!(means.len(), batch.len() * MEANS_ROW);
        for (i, img) in batch.iter().enumerate() {
            assert_eq!(matrix.ids()[i], img.id());
            let row = &means[i * MEANS_ROW..(i + 1) * MEANS_ROW];
            for family in 0..FAMILIES {
                for class in 0..DamageLabel::COUNT {
                    // The scalar predict path's op order: k ascending, then
                    // one divide.
                    let mut mean = 0.0;
                    for k in 0..BLOCK {
                        mean += img.visual_evidence()[dim(family, class, k)];
                    }
                    mean /= BLOCK as f64;
                    assert_eq!(
                        row[family * DamageLabel::COUNT + class].to_bits(),
                        mean.to_bits(),
                        "image {i} family {family} class {class}"
                    );
                }
            }
        }
    }

    #[test]
    fn pushing_images_one_by_one_builds_the_same_matrix() {
        let ds = Dataset::generate(&DatasetConfig::paper());
        let mut matrix = EvidenceMatrix::default();
        for image in &ds.train()[..12] {
            matrix.push(image);
        }
        assert_eq!(matrix, EvidenceMatrix::from_refs(&ds.train()[..12]));
    }

    #[test]
    fn codec_round_trips_and_rejects_rows_that_do_not_fit() {
        let ds = Dataset::generate(&DatasetConfig::paper());
        let matrix = EvidenceMatrix::from_refs(&ds.test()[..5]);
        assert_eq!(EvidenceMatrix::from_bytes(&matrix.to_bytes()), Ok(matrix));
        assert_eq!(
            EvidenceMatrix::from_bytes(&EvidenceMatrix::default().to_bytes()),
            Ok(EvidenceMatrix::default())
        );

        let ids = vec![ImageId(1), ImageId(2)];
        for (what, means) in [
            ("one row short", vec![0.5; MEANS_ROW]),
            ("a NaN mean", {
                let mut means = vec![0.5; 2 * MEANS_ROW];
                means[4] = f64::NAN;
                means
            }),
            ("an infinite mean", {
                let mut means = vec![0.5; 2 * MEANS_ROW];
                means[MEANS_ROW] = f64::INFINITY;
                means
            }),
        ] {
            let mut bytes = Vec::new();
            ids.encode(&mut bytes);
            means.encode(&mut bytes);
            assert_eq!(
                EvidenceMatrix::from_bytes(&bytes),
                Err(DecodeError::Invalid),
                "{what}"
            );
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let matrix = EvidenceMatrix::from_refs(&[]);
        assert!(matrix.is_empty());
        assert_eq!(matrix.len(), 0);
        assert!(matrix.block_means().is_empty());
    }

    #[test]
    #[should_panic(expected = "full layout")]
    fn short_evidence_is_rejected() {
        let img = SyntheticImage::from_latents(
            ImageId(0),
            DamageLabel::NoDamage,
            crate::ImageAttribute::Plain,
            DamageLabel::NoDamage,
            false,
            vec![0.0; VISUAL_DIM - 1],
            vec![0.0; SyntheticImage::CONTEXTUAL_DIM],
        );
        EvidenceMatrix::from_refs(&[img]);
    }
}
