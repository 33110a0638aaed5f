//! The FunctionBench-derived benchmark suite (Table 2).
//!
//! The paper ports nine Python FunctionBench workloads to OpenWhisk and
//! builds 401 function images from them. This module models that suite
//! as calibrated service demands: [`Family::profile`] gives each family's
//! execution profile, and [`workload`] builds the 401-function workload
//! that drives every load-balancing experiment (Figures 12–17).

use serde::{Deserialize, Serialize};

use hrv_trace::dist::{Clamped, LogNormal, LogUniform, Sampler};
use hrv_trace::faas::{AppClass, AppId, AppModel, Workload};
use hrv_trace::rng::SeedFactory;

/// One FunctionBench workload family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Family {
    /// Sine, cosine & square root loops.
    Floatop,
    /// Square matrix multiplication.
    Matmult,
    /// Linear equation solver.
    Linpack,
    /// HTML table rendering (Chameleon).
    Chameleon,
    /// AES encryption & decryption (PyAES).
    Pyaes,
    /// Flip/rotate/resize/filter/grayscale images.
    ImageProcessing,
    /// Grayscale video.
    VideoProcessing,
    /// MobileNet inference.
    ImageClassification,
    /// Logistic regression.
    TextClassification,
}

impl Family {
    /// All nine families of Table 2.
    pub const ALL: [Family; 9] = [
        Family::Floatop,
        Family::Matmult,
        Family::Linpack,
        Family::Chameleon,
        Family::Pyaes,
        Family::ImageProcessing,
        Family::VideoProcessing,
        Family::ImageClassification,
        Family::TextClassification,
    ];

    /// Typical execution profile: `(median_secs, sigma, memory_mb)`.
    /// Medians follow FunctionBench measurements on the paper's input
    /// sizes (Python runtimes, seconds-scale work; video processing and
    /// model inference are the long poles). The suite averages ≈ 5 CPU-
    /// seconds per invocation, which puts the Section 7.2 cluster's
    /// saturation knee near the paper's 25–30 req/s.
    pub fn profile(self) -> (f64, f64, u64) {
        match self {
            Family::Floatop => (0.3, 0.3, 128),
            Family::Matmult => (4.0, 0.4, 256),
            Family::Linpack => (3.0, 0.4, 256),
            Family::Chameleon => (1.0, 0.3, 256),
            Family::Pyaes => (3.0, 0.35, 128),
            Family::ImageProcessing => (2.5, 0.5, 512),
            Family::VideoProcessing => (15.0, 0.5, 512),
            Family::ImageClassification => (6.0, 0.4, 512),
            Family::TextClassification => (2.0, 0.4, 256),
        }
    }
}

/// Builds the paper's LB-experiment workload: `n_functions` functions
/// drawn round-robin from the nine families, with heavy-tailed per-
/// function popularity normalized to `total_rps`.
///
/// Heavy-tailed popularity matters: it creates the cold tail of rarely
/// invoked functions whose warm containers JSQ scatters and MWS
/// consolidates (Section 5.2's λ/N vs λ/k argument).
pub fn workload(n_functions: usize, total_rps: f64, seeds: &SeedFactory) -> Workload {
    assert!(n_functions >= 1 && total_rps > 0.0);
    let mut rng = seeds.stream("funcbench");
    let popularity = LogUniform::new(0.02, 20.0);
    let mut weights = Vec::with_capacity(n_functions);
    let mut apps = Vec::with_capacity(n_functions);
    for i in 0..n_functions {
        let family = Family::ALL[i % Family::ALL.len()];
        let (median, sigma, mem) = family.profile();
        // Per-function input-size variation around the family profile.
        let scale = LogUniform::new(0.5, 2.0).sample(&mut rng);
        let duration: Box<dyn Sampler> = Box::new(Clamped::new(
            Box::new(LogNormal::from_median(median * scale, sigma)),
            0.005,
            120.0,
        ));
        weights.push(popularity.sample(&mut rng));
        apps.push(AppModel::new(
            AppId(i as u32),
            if median * scale > 6.0 {
                AppClass::Long
            } else {
                AppClass::Short
            },
            1.0,
            mem,
            1.0,
            1,
            duration,
        ));
    }
    let total_weight: f64 = weights.iter().sum();
    for (app, w) in apps.iter_mut().zip(&weights) {
        app.rate_rps = (total_rps * w / total_weight).max(1e-9);
    }
    Workload { apps }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrv_trace::time::SimDuration;

    #[test]
    fn workload_has_requested_shape() {
        let wl = workload(401, 20.0, &SeedFactory::new(1));
        assert_eq!(wl.n_apps(), 401);
        assert!((wl.total_rps() - 20.0).abs() < 1e-6);
        // Popularity is heavy-tailed: the hottest function carries many
        // times the median rate.
        let mut rates: Vec<f64> = wl.apps.iter().map(|a| a.rate_rps).collect();
        rates.sort_by(f64::total_cmp);
        assert!(rates[400] / rates[200] > 5.0);
    }

    #[test]
    fn workload_generates_invocations_in_profile() {
        let wl = workload(40, 10.0, &SeedFactory::new(2));
        let trace = wl.invocations(SimDuration::from_mins(10), &SeedFactory::new(2));
        assert!(!trace.is_empty());
        for inv in &trace {
            assert!(inv.duration <= SimDuration::from_secs(120));
            assert!(inv.memory_mb >= 128);
        }
    }

    #[test]
    fn families_cover_table_2() {
        assert_eq!(Family::ALL.len(), 9);
        for f in Family::ALL {
            let (median, sigma, mem) = f.profile();
            assert!(median > 0.0 && sigma > 0.0 && mem >= 128);
        }
    }
}
