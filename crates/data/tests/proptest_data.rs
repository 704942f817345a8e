//! Property-based tests for the data crate: loader completeness, sample
//! determinism, and partition/label invariants under arbitrary parameters.

use fedtrip_data::loader::BatchIter;
use fedtrip_data::partition::{HeterogeneityKind, Partition};
use fedtrip_data::synth::{DatasetKind, SampleRef, SyntheticVision};
use fedtrip_tensor::rng::Prng;
use proptest::prelude::*;

#[path = "common/synth_reference.rs"]
mod reference;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The batch iterator yields every sample exactly once for any batch
    /// size, with only the last batch allowed to be partial.
    #[test]
    fn loader_is_an_exact_cover(n in 1u32..120, batch in 1usize..40, seed in 0u64..100) {
        let ds = SyntheticVision::new(DatasetKind::MnistLike, 1);
        let refs: Vec<SampleRef> = (0..n)
            .map(|i| SampleRef { class: (i % 10) as u16, id: i })
            .collect();
        let mut rng = Prng::seed_from_u64(seed);
        let it = BatchIter::new(&ds, &refs, batch, &mut rng);
        prop_assert_eq!(it.num_batches(), (n as usize).div_ceil(batch));
        let sizes: Vec<usize> = BatchIter::new(&ds, &refs, batch, &mut Prng::seed_from_u64(seed))
            .map(|(x, y)| {
                prop_assert_eq!(x.shape()[0], y.len());
                Ok(y.len())
            })
            .collect::<Result<Vec<_>, _>>()?;
        let total: usize = sizes.iter().sum();
        prop_assert_eq!(total, n as usize);
        for (i, &s) in sizes.iter().enumerate() {
            if i + 1 < sizes.len() {
                prop_assert_eq!(s, batch, "only the last batch may be partial");
            }
        }
    }

    /// Sample pixels and labels are pure functions of (seed, class, id).
    #[test]
    fn samples_are_pure_functions(class in 0u16..10, id in 0u32..5000, seed in 0u64..50) {
        let d1 = SyntheticVision::new(DatasetKind::FmnistLike, seed);
        let d2 = SyntheticVision::new(DatasetKind::FmnistLike, seed);
        let r = SampleRef { class, id };
        let mut a = vec![0.0; d1.spec().sample_elems()];
        let mut b = vec![0.0; d2.spec().sample_elems()];
        d1.write_sample(r, &mut a);
        d2.write_sample(r, &mut b);
        prop_assert_eq!(a, b);
        prop_assert_eq!(d1.label_of(r), d2.label_of(r));
        prop_assert!(d1.label_of(r) < d1.spec().classes);
    }

    /// The table-driven synthesis is the per-pixel definition, bit for bit,
    /// for any dataset, seed and sample.
    #[test]
    fn samples_match_the_per_pixel_reference(
        kind in prop::sample::select(DatasetKind::ALL.to_vec()),
        seed in 0u64..=u64::MAX,
        class in 0u16..47,
        id in 0u32..=u32::MAX,
    ) {
        let d = SyntheticVision::new(kind, seed);
        let r = SampleRef { class: class % d.spec().classes as u16, id };
        let mut got = vec![0.0f32; d.spec().sample_elems()];
        let mut want = got.clone();
        d.write_sample(r, &mut got);
        reference::reference_sample(kind, seed, r, &mut want);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        prop_assert_eq!(bits(&got), bits(&want));
    }

    /// Orthogonal partitions never share a class across clusters, for any
    /// cluster count that divides the class space.
    #[test]
    fn orthogonal_clusters_disjoint(k in prop::sample::select(vec![2usize, 5, 10]), seed in 0u64..100) {
        let spec = DatasetKind::MnistLike.spec();
        let p = Partition::build(&spec, HeterogeneityKind::Orthogonal(k), 10, seed);
        let hists = p.label_histograms();
        for i in 0..10 {
            for j in 0..10 {
                if i % k == j % k {
                    continue;
                }
                for (c, (&a, &b)) in hists[i].iter().zip(&hists[j]).enumerate() {
                    prop_assert!(
                        !(a > 0 && b > 0),
                        "clients {} and {} in different clusters share class {}", i, j, c
                    );
                }
            }
        }
    }

    /// IID partitions have low skew regardless of seed.
    #[test]
    fn iid_skew_is_small(seed in 0u64..200) {
        let spec = DatasetKind::MnistLike.spec();
        let p = Partition::build(&spec, HeterogeneityKind::Iid, 6, seed);
        prop_assert!(p.skew() < 0.15, "IID skew {} too high", p.skew());
    }
}
