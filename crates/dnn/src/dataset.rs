//! Dataset descriptions.
//!
//! The input pipeline needs only aggregate facts about a dataset: how many
//! samples, how many bytes on disk, and how expensive a sample is to
//! preprocess relative to an ImageNet JPEG (decode + augment). The two
//! datasets of the paper's Table II are provided.

use serde::{Deserialize, Serialize};

use crate::model::Model;

/// A training dataset as seen by the storage/preprocessing pipeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetSpec {
    /// Display name.
    pub name: String,
    /// Number of training samples.
    pub num_samples: u64,
    /// Total on-disk size in bytes.
    pub total_bytes: f64,
    /// CPU preprocessing cost of one sample relative to an ImageNet JPEG
    /// (1.0 = full decode + augmentation pipeline).
    pub prep_cost_factor: f64,
}

impl DatasetSpec {
    /// Average on-disk bytes per sample.
    ///
    /// # Panics
    ///
    /// Panics if the dataset has no samples.
    #[must_use]
    pub fn avg_sample_bytes(&self) -> f64 {
        assert!(self.num_samples > 0, "dataset has no samples");
        self.total_bytes / self.num_samples as f64
    }

    /// ImageNet-1k as used by the paper (ILSVRC-2012 train, 133 GB).
    #[must_use]
    pub fn imagenet1k() -> DatasetSpec {
        DatasetSpec {
            name: "ImageNet1k".into(),
            num_samples: 1_281_167,
            total_bytes: 133.0e9,
            prep_cost_factor: 1.0,
        }
    }

    /// SQuAD 2.0 (45 MB) — tokenization is far cheaper than JPEG decode.
    #[must_use]
    pub fn squad2() -> DatasetSpec {
        DatasetSpec {
            name: "SQuAD 2.0".into(),
            num_samples: 130_319,
            total_bytes: 45.0e6,
            prep_cost_factor: 0.05,
        }
    }

    /// The dataset `model` trains on in the paper: SQuAD 2.0 for BERT
    /// models, ImageNet-1k for every other model.
    #[must_use]
    pub fn for_model(model: &Model) -> DatasetSpec {
        if model.name.starts_with("BERT") {
            DatasetSpec::squad2()
        } else {
            DatasetSpec::imagenet1k()
        }
    }

    /// A deterministic scaled-down dataset for fast tests: `fraction` of
    /// ImageNet's samples and bytes.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < fraction <= 1`.
    #[must_use]
    pub fn imagenet_scaled(fraction: f64) -> DatasetSpec {
        assert!(
            fraction > 0.0 && fraction <= 1.0,
            "fraction must be in (0, 1]"
        );
        let full = DatasetSpec::imagenet1k();
        DatasetSpec {
            name: format!("ImageNet1k/{:.0}", 1.0 / fraction),
            num_samples: ((full.num_samples as f64 * fraction) as u64).max(1),
            total_bytes: full.total_bytes * fraction,
            prep_cost_factor: 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn imagenet_sample_size_is_realistic() {
        let d = DatasetSpec::imagenet1k();
        let avg = d.avg_sample_bytes();
        // ~104 KB per JPEG.
        assert!((90_000.0..120_000.0).contains(&avg), "{avg}");
    }

    #[test]
    fn squad_is_tiny_and_cheap() {
        let d = DatasetSpec::squad2();
        assert!(d.total_bytes < 100e6);
        assert!(d.prep_cost_factor < 0.5);
    }

    #[test]
    fn bert_streams_squad_and_the_rest_imagenet() {
        for (model, _) in crate::zoo::all_models() {
            let expected = if model.name == "BERT-large" {
                DatasetSpec::squad2()
            } else {
                DatasetSpec::imagenet1k()
            };
            assert_eq!(DatasetSpec::for_model(&model), expected, "{}", model.name);
        }
    }

    #[test]
    fn scaling_preserves_sample_size() {
        let full = DatasetSpec::imagenet1k();
        let tenth = DatasetSpec::imagenet_scaled(0.1);
        assert!((tenth.avg_sample_bytes() - full.avg_sample_bytes()).abs() < 1.0);
        assert_eq!(tenth.num_samples, 128_116);
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn zero_fraction_rejected() {
        let _ = DatasetSpec::imagenet_scaled(0.0);
    }
}
