//! End-to-end prediction pipelines.
//!
//! A [`Pipeline`] bundles the four knobs the paper studies —
//! instrumentation mode, compiler setting, calibration procedure, replay
//! back-end — and a [`Predictor`] executes the full acquisition →
//! calibration → replay chain against an emulated testbed, comparing the
//! simulated time with the testbed's "real" (uninstrumented) time. This
//! is exactly the experiment of Figures 3, 6 and 7.

use std::sync::Arc;

use acquisition::{acquire, CompilerOpt, Instrumentation};
use calibrate::{calibrate, Calibration, CalibrationMethod};
use emulator::Testbed;
use replay::{replay_input_observed, ReplayConfig, ReplayEngine};
use titrace::TraceInput;
use workloads::lu::{LuClass, LuConfig};

/// A named configuration of the whole framework.
#[derive(Debug, Clone, PartialEq)]
pub struct Pipeline {
    /// Human-readable name ("legacy", "improved", or custom).
    pub name: String,
    /// How traces are acquired.
    pub instrumentation: Instrumentation,
    /// How the (emulated) application binary is built.
    pub compiler: CompilerOpt,
    /// How instruction rates are calibrated.
    pub calibration: CalibrationMethod,
    /// Which back-end replays the trace.
    pub engine: ReplayEngine,
    /// Classes measured by cache-aware calibration.
    pub calibration_classes: Vec<LuClass>,
    /// Model the eager memory-copy time during replay (the paper's
    /// future work, implemented here; off in both published pipelines).
    pub model_copy: bool,
}

impl Pipeline {
    /// The first implementation, as diagnosed in Section 2: fine-grain
    /// TAU traces from an unoptimized binary, A-4-only calibration, MSG
    /// replay.
    pub fn legacy() -> Pipeline {
        Pipeline {
            name: "legacy".into(),
            instrumentation: Instrumentation::legacy_default(),
            compiler: CompilerOpt::O0,
            calibration: CalibrationMethod::Simple,
            engine: ReplayEngine::Msg,
            calibration_classes: Vec::new(),
            model_copy: false,
        }
    }

    /// The modified framework of Section 3: `-O3`, minimal
    /// instrumentation, cache-aware calibration, SMPI replay.
    pub fn improved() -> Pipeline {
        Pipeline {
            name: "improved".into(),
            instrumentation: Instrumentation::Minimal,
            compiler: CompilerOpt::O3,
            calibration: CalibrationMethod::CacheAware,
            engine: ReplayEngine::Smpi,
            calibration_classes: vec![LuClass::B, LuClass::C],
            model_copy: false,
        }
    }

    /// The paper's future-work configuration: the improved pipeline plus
    /// (a) the eager memory-copy model in the replay engine and (b) the
    /// automatic cache-aware calibration (Section 6: "we plan to
    /// implement the missing feature to model the time taken in sends
    /// and receives to copy data in memory... we also aim at improving
    /// our calibration method to automatically take cache usage into
    /// account").
    pub fn future_work() -> Pipeline {
        Pipeline {
            name: "future-work".into(),
            calibration: CalibrationMethod::Automatic,
            model_copy: true,
            ..Pipeline::improved()
        }
    }

    /// An ablation of the improved pipeline with one knob reverted —
    /// used by the ablation bench to attribute the accuracy gain.
    pub fn improved_without(knob: AblationKnob) -> Pipeline {
        let mut p = Pipeline::improved();
        p.name = format!("improved-without-{}", knob.label());
        match knob {
            AblationKnob::CompilerOptimization => p.compiler = CompilerOpt::O0,
            AblationKnob::MinimalInstrumentation => {
                p.instrumentation = Instrumentation::legacy_default();
            }
            AblationKnob::CacheAwareCalibration => {
                p.calibration = CalibrationMethod::Simple;
                p.calibration_classes = Vec::new();
            }
            AblationKnob::SmpiBackend => p.engine = ReplayEngine::Msg,
        }
        p
    }
}

/// One of the paper's four fixes, for ablation studies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AblationKnob {
    /// Section 3.1: the `-O3` build.
    CompilerOptimization,
    /// Section 3.2: the selective instrumentation.
    MinimalInstrumentation,
    /// Section 3.4: the cache-aware calibration.
    CacheAwareCalibration,
    /// Section 3.3: the SMPI rewrite.
    SmpiBackend,
}

impl AblationKnob {
    /// All knobs, in paper order.
    pub fn all() -> [AblationKnob; 4] {
        [
            AblationKnob::CompilerOptimization,
            AblationKnob::MinimalInstrumentation,
            AblationKnob::CacheAwareCalibration,
            AblationKnob::SmpiBackend,
        ]
    }

    /// Kebab-case label.
    pub fn label(self) -> &'static str {
        match self {
            AblationKnob::CompilerOptimization => "o3",
            AblationKnob::MinimalInstrumentation => "minimal-instrumentation",
            AblationKnob::CacheAwareCalibration => "cache-aware-calibration",
            AblationKnob::SmpiBackend => "smpi-backend",
        }
    }
}

/// The result of predicting one instance.
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    /// Instance label ("B-64").
    pub instance: String,
    /// The emulated testbed's (uninstrumented) execution time, seconds —
    /// the paper's "real" time.
    pub real_seconds: f64,
    /// The replayed trace's simulated time, seconds.
    pub simulated_seconds: f64,
    /// The instruction rate the calibration chose for this instance.
    pub calibrated_rate: f64,
    /// Messages simulated during replay.
    pub replay_messages: u64,
}

impl Prediction {
    /// `(simulated - real) / real`, in percent — the paper's accuracy
    /// metric (Figures 3, 6, 7).
    pub fn relative_error_percent(&self) -> f64 {
        (self.simulated_seconds - self.real_seconds) / self.real_seconds * 100.0
    }
}

/// A calibrated, ready-to-predict instance of a pipeline on a testbed.
pub struct Predictor<'a> {
    testbed: &'a Testbed,
    pipeline: Pipeline,
    calibration: Calibration,
}

impl<'a> Predictor<'a> {
    /// Runs the pipeline's calibration procedure on `testbed`.
    ///
    /// # Errors
    /// Propagates calibration failures.
    pub fn new(testbed: &'a Testbed, pipeline: Pipeline, seed: u64) -> Result<Self, String> {
        let calibration = calibrate(
            testbed,
            pipeline.calibration,
            pipeline.compiler,
            &pipeline.calibration_classes,
            // Counters are read under the pipeline's own instrumentation,
            // as the real toolchain would (see `calibrate`'s docs).
            pipeline.instrumentation,
            seed,
        )?;
        Ok(Predictor {
            testbed,
            pipeline,
            calibration,
        })
    }

    /// The pipeline configuration.
    pub fn pipeline(&self) -> &Pipeline {
        &self.pipeline
    }

    /// The calibration in effect.
    pub fn calibration(&self) -> &Calibration {
        &self.calibration
    }

    /// Runs the full chain for one LU instance: emulate the real run,
    /// acquire the instrumented trace, replay it, compare.
    ///
    /// # Errors
    /// Propagates emulation/replay failures.
    pub fn predict(&self, instance: &LuConfig, seed: u64) -> Result<Prediction, String> {
        let real = self
            .testbed
            .run_lu(instance, Instrumentation::None, self.pipeline.compiler)?;
        let rate = self.calibration.rate_for(instance);
        let config = ReplayConfig {
            engine: self.pipeline.engine,
            placement: self.testbed.placement,
            copy_model: self.pipeline.model_copy.then(|| {
                // In a real deployment this constant comes from a memcpy
                // micro-calibration of the target nodes; the emulated
                // testbed's value is known exactly.
                smpi::SmpiConfig::ground_truth()
                    .copy
                    .expect("ground truth models the copy")
            }),
            ..ReplayConfig::improved(rate)
        };
        let acq = acquire(
            instance.sources(),
            self.pipeline.instrumentation,
            self.pipeline.compiler,
            seed,
        );
        let input = TraceInput::Memory(Arc::new(acq.trace));
        let sim = replay_input_observed(
            &self.testbed.platform,
            &input,
            instance.procs,
            &config,
            false,
        )?;
        Ok(Prediction {
            instance: instance.label(),
            real_seconds: real.time(),
            simulated_seconds: sim.time(),
            calibrated_rate: rate,
            replay_messages: sim.metrics.messages,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_presets_match_the_paper() {
        let legacy = Pipeline::legacy();
        assert_eq!(legacy.compiler, CompilerOpt::O0);
        assert_eq!(legacy.engine, ReplayEngine::Msg);
        assert_eq!(legacy.calibration, CalibrationMethod::Simple);
        let improved = Pipeline::improved();
        assert_eq!(improved.compiler, CompilerOpt::O3);
        assert_eq!(improved.engine, ReplayEngine::Smpi);
        assert_eq!(improved.calibration, CalibrationMethod::CacheAware);
        assert_eq!(improved.instrumentation, Instrumentation::Minimal);
    }

    #[test]
    fn ablations_revert_exactly_one_knob() {
        let improved = Pipeline::improved();
        for knob in AblationKnob::all() {
            let ab = Pipeline::improved_without(knob);
            let mut differences = 0;
            if ab.compiler != improved.compiler {
                differences += 1;
            }
            if ab.instrumentation != improved.instrumentation {
                differences += 1;
            }
            if ab.calibration != improved.calibration {
                differences += 1;
            }
            if ab.engine != improved.engine {
                differences += 1;
            }
            assert_eq!(differences, 1, "{:?}", knob);
            assert!(ab.name.contains(knob.label()));
        }
    }

    #[test]
    fn improved_predictor_beats_legacy_on_a_small_instance() {
        let testbed = Testbed::bordereau();
        let instance = LuConfig::new(LuClass::S, 8).with_steps(4);
        let legacy = Predictor::new(&testbed, Pipeline::legacy(), 3)
            .unwrap()
            .predict(&instance, 7)
            .unwrap();
        let improved = Predictor::new(&testbed, Pipeline::improved(), 3)
            .unwrap()
            .predict(&instance, 7)
            .unwrap();
        assert!(
            improved.relative_error_percent().abs() < legacy.relative_error_percent().abs(),
            "improved {:+.2}% should beat legacy {:+.2}%",
            improved.relative_error_percent(),
            legacy.relative_error_percent()
        );
    }

    #[test]
    fn prediction_fields_are_consistent() {
        let testbed = Testbed::graphene();
        let instance = LuConfig::new(LuClass::S, 4).with_steps(3);
        let p = Predictor::new(&testbed, Pipeline::improved(), 1)
            .unwrap()
            .predict(&instance, 2)
            .unwrap();
        assert_eq!(p.instance, "S-4");
        assert!(p.real_seconds > 0.0);
        assert!(p.simulated_seconds > 0.0);
        assert!(p.replay_messages > 0);
        assert!(p.calibrated_rate > 1e8);
    }
}
