//! Property-based tests over the core invariants.
//!
//! The systolic engines, the tiling algebra, the FP16 codec, the memory
//! models and the hybrid operators all carry invariants that must hold
//! for *arbitrary* inputs, not just the unit-test examples.

use proptest::prelude::*;
use sma::core::{GemmMapper, LsmaOp, SmaConfig};
use sma::mem::{BankedConfig, BankedMemory, Coalescer};
use sma::models::ops::{self, ScoredBox};
use sma::systolic::{
    DataflowKind, OutputStationaryArray, PassTiming, SemiBroadcastArray, SystolicGemm,
    WeightStationaryArray,
};
use sma::tensor::{gemm, Conv2dParams, GemmShape, Matrix, TensorShape, TileConfig, F16};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every dataflow engine computes the exact reference product for any
    /// shape and any array size.
    #[test]
    fn engines_match_reference(
        m in 1usize..24,
        k in 1usize..24,
        n in 1usize..24,
        dim in 2usize..9,
        seed in 0u64..1000,
    ) {
        let a = Matrix::<f32>::random(m, k, seed);
        let b = Matrix::<f32>::random(k, n, seed.wrapping_add(1));
        let expected = gemm::reference(&a, &b).unwrap();
        let sb = SemiBroadcastArray::new(dim).gemm(&a, &b).unwrap();
        prop_assert!(sb.result.approx_eq(&expected, 1e-3));
        let ws = WeightStationaryArray::new(dim).gemm(&a, &b).unwrap();
        prop_assert!(ws.result.approx_eq(&expected, 1e-3));
        let os = OutputStationaryArray::new(dim).gemm(&a, &b).unwrap();
        prop_assert!(os.result.approx_eq(&expected, 1e-3));
    }

    /// The analytical timing model equals the functional engines'
    /// cycle counts exactly, for every dataflow.
    #[test]
    fn timing_models_are_cycle_exact(
        m in 1usize..20,
        k in 1usize..20,
        n in 1usize..20,
        dim in 2usize..9,
    ) {
        let a = Matrix::<f32>::random(m, k, 7);
        let b = Matrix::<f32>::random(k, n, 8);
        let shape = GemmShape::new(m, n, k);
        let sb = SemiBroadcastArray::new(dim).gemm(&a, &b).unwrap().trace;
        prop_assert_eq!(
            sb.cycles,
            PassTiming::new(DataflowKind::SemiBroadcastWeightStationary, dim, false)
                .gemm_cycles(shape)
        );
        let ws = WeightStationaryArray::new(dim).gemm(&a, &b).unwrap().trace;
        prop_assert_eq!(
            ws.cycles,
            PassTiming::new(DataflowKind::WeightStationary, dim, false).gemm_cycles(shape)
        );
        let os = OutputStationaryArray::new(dim).gemm(&a, &b).unwrap().trace;
        prop_assert_eq!(
            os.cycles,
            PassTiming::new(DataflowKind::OutputStationary, dim, false).gemm_cycles(shape)
        );
    }

    /// The SMA GEMM mapper is correct for arbitrary shapes (it must
    /// handle ragged edges of every kind).
    #[test]
    fn mapper_matches_reference(
        m in 1usize..150,
        k in 1usize..40,
        n in 1usize..150,
        seed in 0u64..100,
    ) {
        let a = Matrix::<f32>::random(m, k, seed);
        let b = Matrix::<f32>::random(k, n, seed.wrapping_add(9));
        let out = GemmMapper::new(SmaConfig::iso_flop_2sma()).execute(&a, &b).unwrap();
        let expected = gemm::reference(&a, &b).unwrap();
        prop_assert!(
            out.result.approx_eq(&expected, 1e-2),
            "err {}", out.result.max_abs_diff(&expected)
        );
    }

    /// FP16 roundtrip: every f32 that is exactly representable in binary16
    /// survives the conversion unchanged; everything else lands within
    /// half a ULP of the original.
    #[test]
    fn f16_conversion_is_faithful(bits in 0u16..0x7C00) {
        // All positive finite f16 values, decoded from their bit
        // pattern: 10 fraction bits, exponent bias 15, subnormals at
        // exponent 0.
        let (exponent, fraction) = (i32::from(bits >> 10), f32::from(bits & 0x3FF));
        let value = if exponent == 0 {
            fraction * 2f32.powi(-24)
        } else {
            (1024.0 + fraction) * 2f32.powi(exponent - 25)
        };
        let back = F16::from_f32(value).to_f32();
        prop_assert_eq!(back.to_bits(), value.to_bits());
    }

    /// Bank-conflict cost is bounded by [1, lanes] and is exactly 1 for
    /// a unit-stride pattern regardless of base offset.
    #[test]
    fn bank_conflicts_are_bounded(
        base in 0u64..4096,
        stride in 1u32..256,
        lanes in 1usize..33,
    ) {
        let mut mem = BankedMemory::new(BankedConfig::volta_shared());
        let addrs: Vec<u64> = (0..lanes).map(|i| base + i as u64 * u64::from(stride)).collect();
        let cost = mem.access(&addrs).cycles;
        prop_assert!(cost >= 1 && cost <= lanes as u32);
        let aligned: Vec<u64> = (0..lanes).map(|i| base * 4 + i as u64 * 4).collect();
        prop_assert_eq!(mem.access(&aligned).cycles, 1);
    }

    /// Coalescing never produces more sectors than lanes, and the useful
    /// bytes never exceed the fetched bytes.
    #[test]
    fn coalescer_conservation(
        base in 0u64..10_000,
        stride in 0u32..512,
    ) {
        let addrs: Vec<u64> = (0..32).map(|i| base + i as u64 * u64::from(stride)).collect();
        let r = Coalescer::probe(&addrs, 4);
        prop_assert!(r.sectors <= 64); // 32 lanes, worst case straddling
        prop_assert!(r.sectors >= 1);
        prop_assert!(u64::from(r.useful_bytes) <= u64::from(r.sectors) * 32);
    }

    /// NMS postcondition: kept boxes are mutually below the IoU
    /// threshold, and every suppressed box overlaps some kept box.
    #[test]
    fn nms_invariants(seed in 0u64..500) {
        let m = Matrix::<f32>::random(16, 5, seed);
        let boxes: Vec<ScoredBox> = (0..16)
            .map(|i| {
                let x = m[(i, 0)] * 10.0;
                let y = m[(i, 1)] * 10.0;
                ScoredBox::new(x, y, x + 1.0 + m[(i, 2)].abs() * 5.0,
                               y + 1.0 + m[(i, 3)].abs() * 5.0, m[(i, 4)])
            })
            .collect();
        let keep = ops::nms(&boxes, 0.5);
        for (i, &a) in keep.iter().enumerate() {
            for &b in keep.iter().skip(i + 1) {
                prop_assert!(boxes[a].iou(&boxes[b]) <= 0.5);
            }
        }
        for i in 0..boxes.len() {
            if !keep.contains(&i) {
                prop_assert!(
                    keep.iter().any(|&kidx| boxes[kidx].iou(&boxes[i]) > 0.5),
                    "suppressed box {i} overlaps no kept box"
                );
            }
        }
    }

    /// im2col + GEMM equals direct convolution for arbitrary geometry.
    #[test]
    fn conv_lowering_is_exact(
        c_in in 1usize..4,
        c_out in 1usize..4,
        hw in 4usize..10,
        kernel in 1usize..4,
        stride in 1usize..3,
        pad in 0usize..2,
    ) {
        let shape = TensorShape::new(c_in, hw, hw);
        let conv = Conv2dParams::new(c_in, c_out, kernel, stride, pad);
        prop_assume!(conv.output_shape(shape).is_ok());
        let input = Matrix::<f32>::random(c_in, hw * hw, 3);
        let weights = Matrix::<f32>::random(c_in * kernel * kernel, c_out, 4);
        let via_gemm =
            sma::tensor::conv2d_gemm(&input, shape, &conv, &weights).unwrap();
        let direct =
            sma::tensor::conv2d_direct(&input, shape, &conv, &weights).unwrap();
        prop_assert!(via_gemm.approx_eq(&direct, 1e-3));
    }

    /// Tile walks cover every output element exactly once, and the
    /// quantisation efficiency (useful over issued MACs) is in (0, 1].
    #[test]
    fn tile_walks_partition_output(
        m in 1usize..400,
        n in 1usize..400,
        k in 1usize..64,
    ) {
        let shape = GemmShape::new(m, n, k);
        let walk = TileConfig::paper().walk(shape);
        let mut covered = 0u64;
        for tile in walk.iter() {
            covered += (tile.rows * tile.cols) as u64;
        }
        prop_assert_eq!(covered, (m * n) as u64);
        let eff = shape.macs() as f64 / walk.issued_macs() as f64;
        prop_assert!(eff > 0.0 && eff <= 1.0);
    }

    /// LSMA feeds never conflict on the dedicated banks, for any k and
    /// any bank-aligned pitch that is a multiple of the bank count.
    #[test]
    fn lsma_feed_conflict_free(k in 1u32..200, pitch_mult in 1u64..4) {
        let op = LsmaOp::new(0, 0, 0, k).unwrap();
        let mut banks = BankedMemory::new(BankedConfig::sma_a_feed_slice());
        let pitch = 8 * pitch_mult;
        for t in 0..u64::from(k) + 7 {
            let addrs = op.a_feed_addresses(t, pitch);
            if !addrs.is_empty() {
                prop_assert_eq!(banks.access(&addrs).cycles, 1);
            }
        }
    }

    /// End-to-end latency is monotone (non-decreasing) in batch size on
    /// every backend: batching stacks im2col GEMMs along `m` and can
    /// never make an inference cheaper. [`Platform::ALL`] keeps this
    /// covering new platforms the moment they land — the reconfigurable
    /// backends must stay monotone even where batch stacking flips
    /// their per-shape pipeline/tile configuration.
    #[test]
    fn latency_monotone_in_batch(
        batch in 1usize..48,
        delta in 1usize..16,
    ) {
        use sma::runtime::{Executor, Platform};
        let net = sma::models::zoo::alexnet();
        for platform in Platform::ALL {
            let small = Executor::builder(platform).batch(batch).build();
            let large = Executor::builder(platform).batch(batch + delta).build();
            let t_small = small.try_run(&net).unwrap().total_ms;
            let t_large = large.try_run(&net).unwrap().total_ms;
            prop_assert!(
                t_large >= t_small,
                "{platform}: batch {} took {t_large} ms < batch {batch} at {t_small} ms",
                batch + delta
            );
        }
    }

    /// CRF output is always a probability distribution per pixel.
    #[test]
    fn crf_outputs_distributions(seed in 0u64..100) {
        let (h, w, classes) = (6usize, 6usize, 3usize);
        let unary = Matrix::<f32>::random(classes, h * w, seed).map(f32::abs);
        let q = ops::crf_mean_field(&unary, h, w, 3, 1.5);
        for p in 0..h * w {
            let total: f32 = (0..classes).map(|c| q[(c, p)]).sum();
            prop_assert!((total - 1.0).abs() < 1e-4);
            for c in 0..classes {
                prop_assert!(q[(c, p)] >= 0.0);
            }
        }
    }
}
