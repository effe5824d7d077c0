//! Network calibration: estimating the platform description's latency
//! and bandwidth from ping-pong measurements.
//!
//! The paper's calibration "consists in determining the number of
//! instructions a CPU can compute in one second *and the latency and
//! bandwidth of communication links*". The instruction side lives in the
//! crate root; this module covers the network side: a classic ping-pong
//! sweep over message sizes, fitted to the affine model
//! `time(s) = latency + s / bandwidth` by least squares on the
//! one-way times.
//!
//! Two regimes are fitted separately, split at the eager/rendezvous
//! threshold — mirroring how MPI benchmarking tools (and SMPI's own
//! calibration scripts) handle the protocol switch.

use emulator::Testbed;
use workloads::{MpiOp, OpSource, VecSource};

use acquisition::{CompilerOpt, Instrumentation};

/// One fitted affine segment: `time(bytes) = latency + bytes / bandwidth`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkEstimate {
    /// Effective one-way latency, seconds.
    pub latency: f64,
    /// Effective bandwidth, bytes/second.
    pub bandwidth: f64,
}

/// The network calibration result.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkCalibration {
    /// Fit over eager-sized messages (`< 64 KiB`).
    pub eager: LinkEstimate,
    /// Fit over rendezvous-sized messages.
    pub rendezvous: LinkEstimate,
    /// The raw `(bytes, one_way_seconds)` measurements.
    pub samples: Vec<(u64, f64)>,
}

impl NetworkCalibration {
    /// Predicted one-way time for a message of `bytes`.
    pub fn one_way_seconds(&self, bytes: u64) -> f64 {
        let seg = if bytes < 64 * 1024 {
            &self.eager
        } else {
            &self.rendezvous
        };
        seg.latency + bytes as f64 / seg.bandwidth
    }
}

/// Message sizes swept by the ping-pong (mirrors the usual
/// power-of-two sweep of MPI benchmarks).
const SWEEP_BYTES: [u64; 12] = [
    64,
    256,
    1024,
    4096,
    16 * 1024,
    32 * 1024,
    48 * 1024,
    128 * 1024,
    256 * 1024,
    512 * 1024,
    1024 * 1024,
    4 * 1024 * 1024,
];

/// Ping-pong iterations per size (amortizes protocol noise).
const REPS: u32 = 20;

/// Runs the ping-pong sweep between the first two hosts of `testbed`
/// and fits the two affine segments.
///
/// # Errors
/// Propagates emulation failures.
pub fn calibrate_network(testbed: &Testbed) -> Result<NetworkCalibration, String> {
    let mut samples = Vec::with_capacity(SWEEP_BYTES.len());
    for bytes in SWEEP_BYTES {
        let time = ping_pong_seconds(testbed, bytes)?;
        samples.push((bytes, time));
    }
    let eager: Vec<(u64, f64)> = samples
        .iter()
        .copied()
        .filter(|(b, _)| *b < 64 * 1024)
        .collect();
    let rendezvous: Vec<(u64, f64)> = samples
        .iter()
        .copied()
        .filter(|(b, _)| *b >= 64 * 1024)
        .collect();
    Ok(NetworkCalibration {
        eager: fit_affine(&eager)?,
        rendezvous: fit_affine(&rendezvous)?,
        samples,
    })
}

/// Measures the mean one-way time of a `bytes`-sized message between
/// ranks 0 and 1.
fn ping_pong_seconds(testbed: &Testbed, bytes: u64) -> Result<f64, String> {
    let mut r0 = Vec::with_capacity(2 * REPS as usize);
    let mut r1 = Vec::with_capacity(2 * REPS as usize);
    for _ in 0..REPS {
        r0.push(MpiOp::Send { dst: 1, bytes });
        r0.push(MpiOp::Recv { src: 1, bytes });
        r1.push(MpiOp::Recv { src: 0, bytes });
        r1.push(MpiOp::Send { dst: 0, bytes });
    }
    let sources: Vec<Box<dyn OpSource>> =
        vec![Box::new(VecSource::new(r0)), Box::new(VecSource::new(r1))];
    let run = testbed.run(sources, Instrumentation::None, CompilerOpt::O3)?;
    // Each rep is a full round trip: two one-way transfers.
    Ok(run.time() / (2.0 * f64::from(REPS)))
}

/// Ordinary least squares for `t = a + b·s`, returned as
/// `latency = a`, `bandwidth = 1/b`.
fn fit_affine(samples: &[(u64, f64)]) -> Result<LinkEstimate, String> {
    if samples.len() < 2 {
        return Err("need at least two sizes per protocol regime".into());
    }
    let n = samples.len() as f64;
    let sx: f64 = samples.iter().map(|(b, _)| *b as f64).sum();
    let sy: f64 = samples.iter().map(|(_, t)| *t).sum();
    let sxx: f64 = samples.iter().map(|(b, _)| (*b as f64).powi(2)).sum();
    let sxy: f64 = samples.iter().map(|(b, t)| *b as f64 * *t).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < f64::EPSILON {
        return Err("degenerate sweep (all sizes equal)".into());
    }
    let slope = (n * sxy - sx * sy) / denom;
    let intercept = (sy - slope * sx) / n;
    if slope <= 0.0 {
        return Err(format!("non-physical fit: slope {slope}"));
    }
    Ok(LinkEstimate {
        latency: intercept.max(0.0),
        bandwidth: 1.0 / slope,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_recovers_a_synthetic_affine_law() {
        let lat = 30e-6;
        let bw = 1.0e8;
        let samples: Vec<(u64, f64)> = [1024u64, 8192, 65536, 262144]
            .iter()
            .map(|b| (*b, lat + *b as f64 / bw))
            .collect();
        let est = fit_affine(&samples).unwrap();
        assert!((est.latency - lat).abs() / lat < 1e-9);
        assert!((est.bandwidth - bw).abs() / bw < 1e-9);
    }

    #[test]
    fn degenerate_inputs_are_rejected() {
        assert!(fit_affine(&[(100, 1.0)]).is_err());
        assert!(fit_affine(&[(100, 1.0), (100, 2.0)]).is_err());
    }

    #[test]
    fn bordereau_calibration_is_physical() {
        let cal = calibrate_network(&Testbed::bordereau()).unwrap();
        // Eager effective bandwidth must be below nominal NIC speed and
        // above a tenth of it; latency in the tens of microseconds.
        assert!(cal.eager.bandwidth < 1.21e8, "{:?}", cal.eager);
        assert!(cal.eager.bandwidth > 1.2e7, "{:?}", cal.eager);
        assert!(
            cal.eager.latency > 5e-6 && cal.eager.latency < 5e-4,
            "{:?}",
            cal.eager
        );
        // Rendezvous achieves better effective bandwidth than eager
        // (larger messages amortize the protocol factors).
        assert!(
            cal.rendezvous.bandwidth > cal.eager.bandwidth,
            "rdv {:?} vs eager {:?}",
            cal.rendezvous,
            cal.eager
        );
        // Monotone one-way predictions.
        assert!(cal.one_way_seconds(1024) < cal.one_way_seconds(1 << 20));
    }

    #[test]
    fn both_clusters_fit_in_the_gige_regime() {
        // Both platforms model GigE-era interconnects: effective eager
        // latencies within the same order of magnitude, and effective
        // bandwidths below the nominal NIC rate.
        let b = calibrate_network(&Testbed::bordereau()).unwrap();
        let g = calibrate_network(&Testbed::graphene()).unwrap();
        for (name, cal) in [("bordereau", &b), ("graphene", &g)] {
            assert!(
                cal.eager.latency > 2e-5 && cal.eager.latency < 2e-4,
                "{name}: {:?}",
                cal.eager
            );
            assert!(cal.eager.bandwidth < 1.21e8, "{name}: {:?}", cal.eager);
        }
        let ratio = g.eager.latency / b.eager.latency;
        assert!((0.5..2.0).contains(&ratio), "latency ratio {ratio}");
    }

    #[test]
    fn samples_cover_both_regimes() {
        let cal = calibrate_network(&Testbed::graphene()).unwrap();
        assert!(cal.samples.iter().filter(|(b, _)| *b < 65536).count() >= 4);
        assert!(cal.samples.iter().filter(|(b, _)| *b >= 65536).count() >= 4);
        for w in cal.samples.windows(2) {
            assert!(w[1].1 >= w[0].1 * 0.8, "one-way time dropped: {w:?}");
        }
    }
}
