//! The figure/table computations.

use sma_accel::{TcGemmModel, TpuSim};
use sma_core::{SmaConfig, SmaGemmModel};
use sma_energy::EnergyModel;
use sma_models::zoo;
use sma_runtime::{DrivingPipeline, Executor, Platform};
use sma_sim::GpuConfig;
use sma_tensor::GemmShape;

/// One point of Fig. 1: FLOPS efficiency of the TPU and TC on square
/// GEMMs.
#[derive(Debug, Clone, Copy)]
pub struct Fig1Row {
    /// log2 of the square matrix size.
    pub log2_size: u32,
    /// TPU achieved fraction of peak.
    pub tpu_efficiency: f64,
    /// TensorCore achieved fraction of peak.
    pub tc_efficiency: f64,
}

/// Fig. 1: TPU vs TensorCore FLOPS efficiency, sizes 2^7..2^14.
#[must_use]
pub fn fig1() -> Vec<Fig1Row> {
    let tpu = TpuSim::default();
    let tc = TcGemmModel::new(GpuConfig::volta());
    (7..=14)
        .map(|p| {
            let shape = GemmShape::square(1 << p);
            Fig1Row {
                log2_size: p,
                tpu_efficiency: tpu.estimate_gemm(shape).efficiency,
                tc_efficiency: tc.estimate(shape).efficiency,
            }
        })
        .collect()
}

/// One bar segment of Fig. 3: a model's per-stage breakdown on a platform.
#[derive(Debug, Clone)]
pub struct Fig3Row {
    /// Model name.
    pub model: &'static str,
    /// Platform label.
    pub platform: &'static str,
    /// GEMM-compatible time (CNN & FC), ms.
    pub cnn_fc_ms: f64,
    /// GEMM-incompatible time (RoIAlign/NMS/ArgMax), ms.
    pub irregular_ms: f64,
    /// Host transfer time, ms.
    pub transfer_ms: f64,
    /// Total, ms.
    pub total_ms: f64,
}

/// Fig. 3: TPU vs GPU on Mask R-CNN and DeepLab, plus the CRF CPU/GPU
/// comparison (returned as two extra rows with model "CRF").
///
/// # Panics
///
/// Panics if a built-in backend rejects a zoo layer (a model bug).
#[must_use]
pub fn fig3() -> Vec<Fig3Row> {
    let mut rows = Vec::new();
    for (model, net) in [
        ("Mask R-CNN", zoo::mask_rcnn()),
        ("DeepLab", zoo::deeplab()),
    ] {
        for platform in [Platform::GpuSimd, Platform::TpuHost] {
            // Fig. 3 separates the CRF; the TPU still pays its hand-off.
            let exec = Executor::builder(platform).postprocessing(false).build();
            let p = exec
                .try_run(&net)
                .expect("built-in backends accept every Fig. 3 layer");
            rows.push(Fig3Row {
                model,
                platform: platform.label(),
                cnn_fc_ms: p.gemm_ms,
                irregular_ms: p.irregular_ms - p.transfer_ms,
                transfer_ms: p.transfer_ms,
                total_ms: p.total_ms,
            });
        }
    }
    // CRF: GPU vs single-core CPU.
    use sma_models::Layer;
    use sma_runtime::backend::IrregularWork;
    let crf = Layer::Crf {
        pixels: 513 * 513,
        classes: 21,
        iterations: 10,
    };
    let work = IrregularWork::from_layer(&crf).expect("crf is irregular");
    let gpu_ms = Platform::GpuSimd.backend().irregular(work).time_ms;
    let cpu_ms = sma_accel::CpuModel::xeon_core().irregular_ms(work.flops, work.bytes);
    rows.push(Fig3Row {
        model: "CRF",
        platform: "GPU",
        cnn_fc_ms: 0.0,
        irregular_ms: gpu_ms,
        transfer_ms: 0.0,
        total_ms: gpu_ms,
    });
    rows.push(Fig3Row {
        model: "CRF",
        platform: "CPU",
        cnn_fc_ms: 0.0,
        irregular_ms: cpu_ms,
        transfer_ms: 0.0,
        total_ms: cpu_ms,
    });
    rows
}

/// One point of Fig. 7: the iso-FLOP comparison.
#[derive(Debug, Clone, Copy)]
pub struct Fig7Row {
    /// log2 of the square matrix size.
    pub log2_size: u32,
    /// 2-SMA speedup over 4-TC (left panel, left axis).
    pub speedup_2sma_over_4tc: f64,
    /// 2-SMA FLOP efficiency (left panel, right axis).
    pub sma_efficiency: f64,
    /// 4-TC FLOP efficiency.
    pub tc_efficiency: f64,
    /// Normalised cycles of the TPU (classic WS) dataflow on the SMA
    /// substrate relative to the semi-broadcast dataflow (right panel).
    pub ws_over_sb_cycles: f64,
}

/// Fig. 7: iso-FLOP sweep, sizes 2^7..2^13.
#[must_use]
pub fn fig7() -> Vec<Fig7Row> {
    let tc = TcGemmModel::new(GpuConfig::volta());
    let sma = SmaGemmModel::new(SmaConfig::iso_flop_2sma());
    let ws = SmaGemmModel::new(SmaConfig::tpu_dataflow_ablation());
    (7..=13)
        .map(|p| {
            let shape = GemmShape::square(1 << p);
            let e_tc = tc.estimate(shape);
            let e_sma = sma.estimate(shape);
            let e_ws = ws.estimate(shape);
            Fig7Row {
                log2_size: p,
                speedup_2sma_over_4tc: e_tc.time_ms / e_sma.time_ms,
                sma_efficiency: e_sma.efficiency,
                tc_efficiency: e_tc.efficiency,
                ws_over_sb_cycles: e_ws.cycles as f64 / e_sma.cycles as f64,
            }
        })
        .collect()
}

/// One bar group of Fig. 8: a network's speedups and energy.
#[derive(Debug, Clone)]
pub struct Fig8Row {
    /// Network name.
    pub network: String,
    /// Speedups over the SIMD baseline for 4-TC / 2-SMA / 3-SMA.
    pub speedup_4tc: f64,
    /// 2-SMA speedup.
    pub speedup_2sma: f64,
    /// 3-SMA speedup.
    pub speedup_3sma: f64,
    /// Energy of 2-SMA normalised to 4-TC.
    pub energy_2sma: f64,
    /// Energy of 3-SMA normalised to 4-TC.
    pub energy_3sma: f64,
}

/// Fig. 8: iso-area comparison on the Table II networks (kernel study:
/// batch 16, CNN+head portion).
///
/// # Panics
///
/// Panics if a built-in backend rejects a zoo layer (a model bug).
#[must_use]
pub fn fig8() -> Vec<Fig8Row> {
    let model = EnergyModel::volta();
    zoo::table2_models()
        .into_iter()
        .map(|net| {
            let run = |p: Platform| {
                Executor::kernel_study(p)
                    .try_run(&net)
                    .expect("built-in GPU-family backends accept every Table II layer")
            };
            let simd = run(Platform::GpuSimd);
            let tc = run(Platform::GpuTensorCore);
            let sma2 = run(Platform::Sma2);
            let sma3 = run(Platform::Sma3);
            let e_tc = tc.energy(&model).total();
            Fig8Row {
                network: net.name().to_string(),
                speedup_4tc: simd.total_ms / tc.total_ms,
                speedup_2sma: simd.total_ms / sma2.total_ms,
                speedup_3sma: simd.total_ms / sma3.total_ms,
                energy_2sma: sma2.energy(&model).total() / e_tc,
                energy_3sma: sma3.energy(&model).total() / e_tc,
            }
        })
        .collect()
}

/// One bar of Fig. 9 (left): frame latency per platform.
#[derive(Debug, Clone, Copy)]
pub struct Fig9LeftRow {
    /// Platform label.
    pub platform: &'static str,
    /// Detection latency, ms.
    pub det_ms: f64,
    /// Tracking latency, ms.
    pub tra_ms: f64,
    /// Localisation latency, ms.
    pub loc_ms: f64,
    /// Single-frame latency under the platform's schedule, ms.
    pub frame_ms: f64,
}

/// Fig. 9 (left): DET+TRA+LOC on GPU, TC and SMA.
///
/// # Panics
///
/// Panics if a Fig. 9 platform lacks programmable lanes (a model bug).
#[must_use]
pub fn fig9_left() -> Vec<Fig9LeftRow> {
    [Platform::GpuSimd, Platform::GpuTensorCore, Platform::Sma3]
        .into_iter()
        .map(|p| {
            let pipe = DrivingPipeline::try_new(p).expect("Fig. 9 platforms have SIMD lanes");
            let s = pipe.schedule();
            Fig9LeftRow {
                platform: p.label(),
                det_ms: s.det_ms,
                tra_ms: s.tra_ms,
                loc_ms: s.loc_ms,
                frame_ms: pipe.frame_latency_ms(),
            }
        })
        .collect()
}

/// One point of Fig. 9 (right): latency vs detection-skip interval.
#[derive(Debug, Clone, Copy)]
pub struct Fig9RightRow {
    /// Detection interval N.
    pub skip: u32,
    /// TC average frame latency, ms.
    pub tc_ms: f64,
    /// SMA average frame latency, ms.
    pub sma_ms: f64,
}

/// Fig. 9 (right): frame latency for N = 2..9.
///
/// # Panics
///
/// Panics if a Fig. 9 platform lacks programmable lanes (a model bug).
#[must_use]
pub fn fig9_right() -> Vec<Fig9RightRow> {
    let pipeline = |p| DrivingPipeline::try_new(p).expect("Fig. 9 platforms have SIMD lanes");
    let tc = pipeline(Platform::GpuTensorCore);
    let sma = pipeline(Platform::Sma3);
    (2..=9)
        .map(|n| Fig9RightRow {
            skip: n,
            tc_ms: tc.frame_latency_skipping_ms(n),
            sma_ms: sma.frame_latency_skipping_ms(n),
        })
        .collect()
}

/// Table I as printable rows (baseline vs SMA configuration).
#[must_use]
pub fn table1() -> Vec<[String; 3]> {
    let gpu = GpuConfig::volta();
    let sma = SmaConfig::iso_area_3sma();
    vec![
        ["Baseline".into(), "Volta".into(), "Volta".into()],
        ["SMs".into(), gpu.sms.to_string(), gpu.sms.to_string()],
        [
            "CUDA Core/SM".into(),
            format!("{} FP32 units", gpu.fp32_lanes),
            format!("{} {}x{} SMA unit", sma.units, sma.dim, sma.dim),
        ],
        [
            "Tensor Core/SM".into(),
            format!("{} (256 FP16 units)", gpu.tensor_cores),
            "(repurposed)".into(),
        ],
        [
            "Shared Memory/SM".into(),
            format!("{} banks", gpu.shared_banks),
            format!(
                "{} banks ({} for all SMA units)",
                gpu.shared_banks, gpu.sma_feed_banks
            ),
        ],
        [
            "Register File/SM".into(),
            format!("{} KB", gpu.rf_bytes / 1024),
            format!("{} KB", gpu.rf_bytes / 1024),
        ],
    ]
}

/// Table II: conv-layer census of the model zoo.
#[must_use]
pub fn table2() -> Vec<(String, usize)> {
    zoo::table2_models()
        .into_iter()
        .map(|n| (n.name().to_string(), n.conv_layers()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_shapes() {
        let rows = fig1();
        assert_eq!(rows.len(), 8);
        // TPU climbs to ~100%; TC stays below ~70%; TPU crosses TC.
        let last = rows.last().unwrap();
        assert!(last.tpu_efficiency > 0.9);
        assert!(last.tc_efficiency < 0.72);
        assert!(rows[0].tpu_efficiency < rows[7].tpu_efficiency);
    }

    #[test]
    fn fig3_shapes() {
        let rows = fig3();
        assert_eq!(rows.len(), 6);
        let get = |m: &str, p: &str| {
            rows.iter()
                .find(|r| r.model == m && r.platform == p)
                .unwrap()
                .total_ms
        };
        // TPU slower end-to-end on both hybrid models.
        assert!(get("Mask R-CNN", "TPU") > 1.3 * get("Mask R-CNN", "SIMD"));
        assert!(get("DeepLab", "TPU") > 1.3 * get("DeepLab", "SIMD"));
        // CRF: CPU ~10x GPU.
        let ratio = get("CRF", "CPU") / get("CRF", "GPU");
        assert!((7.0..15.0).contains(&ratio), "CRF ratio {ratio:.1}");
    }

    #[test]
    fn fig7_shapes() {
        let rows = fig7();
        assert_eq!(rows.len(), 7);
        for r in &rows {
            assert!(r.speedup_2sma_over_4tc > 1.2 && r.speedup_2sma_over_4tc < 1.6);
            assert!(r.ws_over_sb_cycles > 1.15 && r.ws_over_sb_cycles < 1.45);
        }
        // Asymptotes: 90.71% and 68.46%.
        let last = rows.last().unwrap();
        assert!((last.sma_efficiency - 0.9071).abs() < 0.03);
        assert!((last.tc_efficiency - 0.6846).abs() < 0.03);
    }

    #[test]
    fn fig8_shapes() {
        let rows = fig8();
        assert_eq!(rows.len(), 5);
        for r in &rows {
            assert!(r.speedup_3sma > r.speedup_2sma);
            assert!(r.speedup_2sma > r.speedup_4tc);
            assert!(r.energy_3sma < r.energy_2sma);
            assert!(r.energy_2sma < 1.0);
        }
        let avg3: f64 = rows.iter().map(|r| r.speedup_3sma).sum::<f64>() / 5.0;
        let avg_tc: f64 = rows.iter().map(|r| r.speedup_4tc).sum::<f64>() / 5.0;
        // "The temporal integration leads to 63% faster 3-SMA" over 4-TC.
        let gain = avg3 / avg_tc;
        assert!((1.4..2.1).contains(&gain), "3-SMA/4-TC {gain:.2}");
    }

    #[test]
    fn fig9_shapes() {
        let left = fig9_left();
        assert_eq!(left.len(), 3);
        assert!(left[0].frame_ms > 100.0); // GPU misses
        assert!(left[1].frame_ms < 100.0); // TC meets
        assert!(left[2].frame_ms < 100.0); // SMA meets
        let right = fig9_right();
        assert_eq!(right.len(), 8);
        for r in &right {
            assert!(
                r.sma_ms <= r.tc_ms,
                "N={}: {} vs {}",
                r.skip,
                r.sma_ms,
                r.tc_ms
            );
        }
    }

    #[test]
    fn tables_match_paper() {
        assert_eq!(
            table2(),
            vec![
                ("AlexNet".to_string(), 5),
                ("VGG-A".to_string(), 8),
                ("GoogLeNet".to_string(), 57),
                ("Mask R-CNN".to_string(), 132),
                ("DeepLab".to_string(), 108),
            ]
        );
        assert_eq!(table1().len(), 6);
    }
}
