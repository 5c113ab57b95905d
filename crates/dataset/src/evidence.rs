//! Contiguous structure-of-arrays layout of a batch's visual evidence.
//!
//! [`EvidenceMatrix`] is the batch-inference companion of
//! [`SyntheticImage::visual_evidence`]: it gathers the evidence vectors of a
//! whole sensing-cycle batch into family-major contiguous blocks, so a
//! classifier that weights feature families (the simulated DDA experts) can
//! compute every `dim(family, class, k)` block mean with sequential slice
//! sums instead of per-image strided gathers through [`visual_layout::dim`].
//!
//! The raw segments are a pure re-layout of the images' evidence, so summing
//! over them is bit-identical to indexing the per-image vectors in the same
//! arithmetic order. The one derived payload is [`EvidenceMatrix::block_means`]:
//! per-image `(family, class)` block means precomputed with the scalar path's
//! exact float-op order, shared by every committee member instead of being
//! recomputed per member.
//!
//! [`visual_layout::dim`]: crate::visual_layout::dim

use crate::generator::visual_layout::{BLOCK, FAMILIES, VISUAL_DIM};
use crate::{DamageLabel, ImageId, SyntheticImage};

/// Per-image, per-family row length: one `BLOCK`-dimensional sub-block per
/// damage class.
pub const FAMILY_ROW: usize = DamageLabel::COUNT * BLOCK;

/// Per-image row length of [`EvidenceMatrix::block_means`]: one mean per
/// `(family, class)` block, family-major.
pub const MEANS_ROW: usize = FAMILIES * DamageLabel::COUNT;

/// A batch of images' visual evidence in family-major SoA layout.
///
/// Layout: `FAMILIES` segments; segment `f` holds, for each image in batch
/// order, the image's contiguous family-`f` row (`FAMILY_ROW` values, classes
/// in index order, `BLOCK` dimensions per class). The image ids ride along so
/// deterministic per-image noise models can be evaluated without re-touching
/// the images.
///
/// # Example
///
/// ```
/// use crowdlearn_dataset::{Dataset, DatasetConfig, EvidenceMatrix};
/// use crowdlearn_dataset::visual_layout::{dim, FAMILIES};
///
/// let ds = Dataset::generate(&DatasetConfig::paper());
/// let batch = &ds.test()[..10];
/// let matrix = EvidenceMatrix::from_refs(batch);
/// assert_eq!(matrix.len(), 10);
/// // Every value is the same bit pattern as the per-image accessor's.
/// for family in 0..FAMILIES {
///     let row = matrix.family_row(family, 3);
///     assert_eq!(row[0], batch[3].visual_evidence()[dim(family, 0, 0)]);
/// }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EvidenceMatrix {
    count: usize,
    ids: Vec<ImageId>,
    /// `FAMILIES` contiguous segments of `count * FAMILY_ROW` values each.
    data: Vec<f64>,
    /// Per-image `(family, class)` block means, image-major ([`MEANS_ROW`]
    /// values per image). Means are member-independent — every classifier
    /// weighting feature families consumes the same sums — so they are
    /// computed once here and shared across the whole committee, with the
    /// scalar path's exact float-op order (`k` ascending, one divide).
    means: Vec<f64>,
}

impl EvidenceMatrix {
    /// Gathers a batch from any sequence of image references (sensing cycles
    /// hand out scattered references into the dataset).
    ///
    /// # Panics
    ///
    /// Panics if any image's visual evidence is shorter than
    /// [`visual_layout::VISUAL_DIM`](crate::visual_layout::VISUAL_DIM) — the
    /// same out-of-range failure a strided per-image gather would hit.
    pub fn from_refs<'a, I>(images: I) -> Self
    where
        I: IntoIterator<Item = &'a SyntheticImage>,
        I::IntoIter: Clone,
    {
        let iter = images.into_iter();
        let ids: Vec<ImageId> = iter.clone().map(SyntheticImage::id).collect();
        let count = ids.len();
        let mut data = Vec::with_capacity(FAMILIES * count * FAMILY_ROW);
        for family in 0..FAMILIES {
            let offset = family * FAMILY_ROW;
            for image in iter.clone() {
                let visual = image.visual_evidence();
                assert!(
                    visual.len() >= VISUAL_DIM,
                    "visual evidence must cover the full layout"
                );
                data.extend_from_slice(&visual[offset..offset + FAMILY_ROW]);
            }
        }
        let mut means = Vec::with_capacity(count * MEANS_ROW);
        for image in iter {
            let visual = image.visual_evidence();
            for family in 0..FAMILIES {
                for class in 0..DamageLabel::COUNT {
                    let block = &visual[family * FAMILY_ROW + class * BLOCK..];
                    let mut mean = 0.0;
                    for v in &block[..BLOCK] {
                        mean += v;
                    }
                    means.push(mean / BLOCK as f64);
                }
            }
        }
        Self {
            count,
            ids,
            data,
            means,
        }
    }

    /// Number of images in the batch.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The batch's image ids, in batch order.
    pub fn ids(&self) -> &[ImageId] {
        &self.ids
    }

    /// The whole family segment: `len() * FAMILY_ROW` values, one contiguous
    /// `FAMILY_ROW` row per image in batch order.
    ///
    /// # Panics
    ///
    /// Panics if `family` is out of range.
    pub fn family(&self, family: usize) -> &[f64] {
        assert!(family < FAMILIES, "family out of range");
        let span = self.count * FAMILY_ROW;
        &self.data[family * span..(family + 1) * span]
    }

    /// One image's row within a family segment (`FAMILY_ROW` values).
    ///
    /// # Panics
    ///
    /// Panics if `family` or `image` is out of range.
    pub fn family_row(&self, family: usize, image: usize) -> &[f64] {
        assert!(image < self.count, "image out of range");
        &self.family(family)[image * FAMILY_ROW..(image + 1) * FAMILY_ROW]
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::visual_layout::dim;
    use crate::{Dataset, DatasetConfig};

    #[test]
    fn matrix_is_a_bit_exact_relayout_of_the_per_image_vectors() {
        let ds = Dataset::generate(&DatasetConfig::paper());
        let batch: Vec<&SyntheticImage> = ds.test().iter().take(7).collect();
        let matrix = EvidenceMatrix::from_refs(batch.iter().copied());
        assert_eq!(matrix.len(), 7);
        for (i, img) in batch.iter().enumerate() {
            assert_eq!(matrix.ids()[i], img.id());
            for family in 0..FAMILIES {
                let row = matrix.family_row(family, i);
                for class in 0..DamageLabel::COUNT {
                    for k in 0..BLOCK {
                        assert_eq!(
                            row[class * BLOCK + k].to_bits(),
                            img.visual_evidence()[dim(family, class, k)].to_bits(),
                            "image {i} family {family} class {class} k {k}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn block_means_match_per_image_sums_bit_for_bit() {
        let ds = Dataset::generate(&DatasetConfig::paper());
        let batch = &ds.test()[..9];
        let matrix = EvidenceMatrix::from_refs(batch);
        let means = matrix.block_means();
        assert_eq!(means.len(), batch.len() * MEANS_ROW);
        for (i, img) in batch.iter().enumerate() {
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
    fn empty_batch_is_fine() {
        let matrix = EvidenceMatrix::from_refs(&[]);
        assert!(matrix.is_empty());
        assert_eq!(matrix.len(), 0);
        assert!(matrix.family(0).is_empty());
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
