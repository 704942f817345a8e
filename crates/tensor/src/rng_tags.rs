//! Central registry of RNG stream tags.
//!
//! Every [`Prng::derive`](crate::rng::Prng::derive) call names its stream
//! with an [`RngTag`], and only this module can construct one, so every
//! stream's first tag element is a named constant below. Two derive sites
//! that shared a first tag would draw **correlated** streams (selection
//! re-using the dispatch stream, a partition re-using the shuffle stream,
//! …), the class of bug that silently breaks the golden fixtures without
//! failing any unit test. The [`ALL`] table is asserted pairwise-distinct
//! by a unit test.
//!
//! The registry lives in `fedtrip-tensor` because [`Prng`](crate::rng::Prng)
//! does and the downstream crates (`fedtrip-data`, `fedtrip-models`) sit
//! below `fedtrip-core` in the dependency graph; `fedtrip-core` re-exports
//! it as `fedtrip_core::rng_tags`, the canonical import for engine-level
//! code.
//!
//! Values are frozen: they are part of the reproducibility contract (the
//! golden fixtures pin the streams they select). Add new tags freely; never
//! renumber an existing one.

/// A registered RNG stream tag, the first element of a
/// [`Prng::derive`](crate::rng::Prng::derive) derivation.
///
/// The field is private to this module, so a stream can only be named by
/// one of the constants below:
///
/// ```
/// use fedtrip_tensor::{rng::Prng, rng_tags};
/// let _ = Prng::derive(7, rng_tags::DROPOUT, &[]);
/// ```
///
/// and an inline literal does not compile:
///
/// ```compile_fail,E0423
/// use fedtrip_tensor::{rng::Prng, rng_tags::RngTag};
/// let _ = Prng::derive(7, RngTag(0xBEEF), &[]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RngTag(u64);

impl RngTag {
    /// The tag's frozen numeric value.
    pub const fn value(self) -> u64 {
        self.0
    }
}

/// Round-participant selection stream (`Sampler::select`), `(SELECT, t)`.
pub const SELECT: RngTag = RngTag(0x005E_1EC7); // "SELECT"
/// Straggler / failure injection stream (`Sampler::apply_failures`),
/// `(FAILURE, t)`.
pub const FAILURE: RngTag = RngTag(0xFA_11); // "FAIL"
/// Semi-async re-dispatch selection (`Sampler::select_idle`),
/// `(DISPATCH, t)` — distinct from [`SELECT`] so
/// redispatch never correlates with the synchronous selection stream.
pub const DISPATCH: RngTag = RngTag(0xD15_9A7C); // "DISPATCH"
/// Per-client device-profile derivation (`DeviceProfile::derive`),
/// `(DEVICE, client)`.
pub const DEVICE: RngTag = RngTag(0x0DE_71CE); // "DEVICE"
/// Model parameter initialization (`ModelKind::build`), `(MODEL_INIT,)`.
pub const MODEL_INIT: RngTag = RngTag(0x4D4F_4445_4C00); // "MODEL\0"
/// Per-epoch mini-batch shuffling (`LocalContext::epoch_rng`),
/// `(EPOCH_SHUFFLE, round, client, epoch)`.
pub const EPOCH_SHUFFLE: RngTag = RngTag(0xE0);
/// IID partition draw (`Partition`), `(PARTITION_IID, client)`.
pub const PARTITION_IID: RngTag = RngTag(0x1D);
/// Dirichlet label-skew partition draw, `(PARTITION_DIRICHLET, client)`.
pub const PARTITION_DIRICHLET: RngTag = RngTag(0xD1);
/// Orthogonal-cluster partition draw, `(PARTITION_ORTHOGONAL, client)`.
pub const PARTITION_ORTHOGONAL: RngTag = RngTag(0x0A);
/// Synthetic-dataset class prototype blobs, `(SYNTH_PROTO, class, channel)`.
pub const SYNTH_PROTO: RngTag = RngTag(0x50_52_4F_54); // "PROT"
/// Synthetic-dataset per-channel base texture, `(SYNTH_BASE, channel)`.
pub const SYNTH_BASE: RngTag = RngTag(0x42_41_53_45); // "BASE"
/// Synthetic-dataset per-sample pixels, `(SYNTH_SAMPLE, class, id)`.
pub const SYNTH_SAMPLE: RngTag = RngTag(0x53_41_4D_50); // "SAMP"
/// Label-flip sub-stream discriminator — the *fourth* tag element of
/// `label_of`'s `(SYNTH_SAMPLE, class, id, SYNTH_LABEL_FLIP)` derivation,
/// registered so its value can never collide into a first-position tag.
pub const SYNTH_LABEL_FLIP: RngTag = RngTag(0xF11B); // "FLIP"
/// Dropout mask stream (`layers::Dropout`), `(DROPOUT,)`.
pub const DROPOUT: RngTag = RngTag(0xD0_D0);
/// t-SNE embedding initialization (`fig2_tsne`), `(TSNE_INIT, client)`.
pub const TSNE_INIT: RngTag = RngTag(0xF1_62);
/// Per-client availability trace derivation (`AvailabilityModel`),
/// `(AVAIL, client)` — diurnal phase offsets.
pub const AVAIL: RngTag = RngTag(0x41_56_41_49); // "AVAI"
/// Per-client churn epoch derivation (`AvailabilityModel`),
/// `(CHURN, client)` — join round and residency lifetime.
pub const CHURN: RngTag = RngTag(0x43_48_52_4E); // "CHRN"
/// Utility-aware (Oort-style) selection stream
/// (`Sampler::select_with`), `(OORT, t)` — exploration draws on top of
/// the deterministic exploitation ranking.
pub const OORT: RngTag = RngTag(0x4F_4F_52_54); // "OORT"
/// All-failed survivor election (`Sampler::apply_failures`),
/// `(SURVIVOR, t)` — decoupled from [`FAILURE`] so the survivor choice
/// does not depend on how many coin flips the failure filter consumed.
pub const SURVIVOR: RngTag = RngTag(0x53_55_52_56); // "SURV"

/// Every registered tag, by name — the table the distinctness test walks.
pub const ALL: &[(&str, RngTag)] = &[
    ("SELECT", SELECT),
    ("FAILURE", FAILURE),
    ("DISPATCH", DISPATCH),
    ("DEVICE", DEVICE),
    ("MODEL_INIT", MODEL_INIT),
    ("EPOCH_SHUFFLE", EPOCH_SHUFFLE),
    ("PARTITION_IID", PARTITION_IID),
    ("PARTITION_DIRICHLET", PARTITION_DIRICHLET),
    ("PARTITION_ORTHOGONAL", PARTITION_ORTHOGONAL),
    ("SYNTH_PROTO", SYNTH_PROTO),
    ("SYNTH_BASE", SYNTH_BASE),
    ("SYNTH_SAMPLE", SYNTH_SAMPLE),
    ("SYNTH_LABEL_FLIP", SYNTH_LABEL_FLIP),
    ("DROPOUT", DROPOUT),
    ("TSNE_INIT", TSNE_INIT),
    ("AVAIL", AVAIL),
    ("CHURN", CHURN),
    ("OORT", OORT),
    ("SURVIVOR", SURVIVOR),
];

#[cfg(test)]
mod tests {
    use super::ALL;

    #[test]
    fn registry_values_are_pairwise_distinct() {
        for (i, &(name_a, a)) in ALL.iter().enumerate() {
            for &(name_b, b) in &ALL[i + 1..] {
                assert_ne!(
                    a,
                    b,
                    "RNG tags {name_a} and {name_b} collide on {:#x}: \
                     their derived streams would be correlated",
                    a.value()
                );
            }
        }
    }

    #[test]
    fn table_covers_every_constant() {
        // the table drives the distinctness check, so a constant missing
        // from it silently escapes auditing; pin the count
        assert_eq!(ALL.len(), 19);
    }
}
